//! Shared experiment plumbing: configuration, model dispatch, and
//! framework execution.

use std::sync::Arc;

use gnnadvisor_core::input::AggOrder;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::{Framework, Result, RuntimeParams};
use gnnadvisor_datasets::Dataset;
use gnnadvisor_gpu::{Engine, GpuSpec, RunMetrics, TraceRecorder};
use gnnadvisor_models::{Gcn, Gin, GraphSage, ModelExec};
use gnnadvisor_tensor::init::random_features;

/// The GNN architectures benchmarked in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ModelKind {
    /// 2-layer GCN, hidden 16 (Section 8.1.1).
    Gcn,
    /// 5-layer GIN, hidden 64 (Section 8.1.1).
    Gin,
    /// 2-layer GraphSage without sampling (Section 8.5).
    Sage,
}

impl ModelKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gin => "GIN",
            ModelKind::Sage => "GraphSage",
        }
    }

    /// Aggregation order of the architecture (Section 4.2).
    pub fn agg_order(&self) -> AggOrder {
        match self {
            ModelKind::Gcn | ModelKind::Sage => AggOrder::UpdateThenAggregate,
            ModelKind::Gin => AggOrder::AggregateThenUpdate,
        }
    }

    /// Hidden dimensionality used by the paper for this model.
    pub fn hidden_dim(&self) -> usize {
        match self {
            ModelKind::Gcn => gnnadvisor_models::gcn::GCN_HIDDEN,
            ModelKind::Gin => gnnadvisor_models::gin::GIN_HIDDEN,
            ModelKind::Sage => gnnadvisor_models::sage::SAGE_HIDDEN,
        }
    }
}

/// Global experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset scale in `(0, 1]` (env `GNNADVISOR_SCALE`, default 0.05).
    pub scale: f64,
    /// Device preset.
    pub spec: GpuSpec,
    /// Feature-matrix seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::at_scale(scale_from_env())
    }
}

impl ExperimentConfig {
    /// A configuration at an explicit dataset scale, with the device cache
    /// scaled to match (see [`scaled_spec`]). Prefer this over struct
    /// update on `Default`, which would keep a cache sized for the default
    /// scale.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is a finite number in `(0, 1]` — a zero,
    /// negative, NaN, or oversized scale would silently generate empty or
    /// out-of-profile datasets.
    pub fn at_scale(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0 && scale <= 1.0,
            "dataset scale must be in (0, 1], got {scale} \
             (check GNNADVISOR_SCALE)"
        );
        Self {
            scale,
            spec: scaled_spec(GpuSpec::quadro_p6000(), scale),
            seed: 7,
        }
    }
}

/// Shrinks a device's cache in proportion to the dataset scale, preserving
/// the full-scale cache-to-working-set ratio. Without this, a 20x-scaled
/// dataset fits entirely in the 3 MB L2 and every locality effect the
/// paper measures (renumbering, Figure 12) vanishes. Compute resources are
/// left untouched — kernels shrink with the dataset naturally.
///
/// # Panics
///
/// Panics unless `scale` is a finite number in `(0, 1]`; a zero or
/// negative scale would shrink the cache model to garbage silently.
pub fn scaled_spec(mut spec: GpuSpec, scale: f64) -> GpuSpec {
    assert!(
        scale.is_finite() && scale > 0.0 && scale <= 1.0,
        "dataset scale must be in (0, 1], got {scale} \
         (check GNNADVISOR_SCALE)"
    );
    spec.l2_bytes = ((spec.l2_bytes as f64 * scale) as usize).max(32 * 1024);
    spec
}

/// Reads `GNNADVISOR_SCALE`, defaulting to 0.05.
///
/// # Panics
///
/// Panics with a pointed message when the variable is set to something
/// that is not a number in `(0, 1]` (zero, negative, NaN, or > 1) —
/// silently clamping a typo like `-0.5` or `5` would run every experiment
/// at an unintended scale.
pub fn scale_from_env() -> f64 {
    let Ok(raw) = std::env::var("GNNADVISOR_SCALE") else {
        return 0.05;
    };
    let parsed = raw.trim().parse::<f64>().ok();
    match parsed {
        Some(s) if s.is_finite() && s > 0.0 && s <= 1.0 => s,
        _ => panic!(
            "GNNADVISOR_SCALE must be a number in (0, 1], got {raw:?}; \
             unset it to use the default 0.05"
        ),
    }
}

/// Builds a GNNAdvisor runtime for a dataset + model pair (auto-tuned with
/// the analytical model; the evolutionary tuner is exercised separately).
pub fn build_advisor(ds: &Dataset, model: ModelKind, spec: &GpuSpec) -> Result<Advisor> {
    Advisor::new(
        &ds.graph,
        ds.feat_dim,
        model.hidden_dim(),
        ds.num_classes,
        model.agg_order(),
        AdvisorConfig {
            spec: spec.clone(),
            ..Default::default()
        },
    )
}

/// Builds an advisor with explicitly overridden runtime parameters (for
/// sweeps and ablations).
pub fn build_advisor_manual(
    ds: &Dataset,
    model: ModelKind,
    spec: &GpuSpec,
    params: RuntimeParams,
) -> Result<Advisor> {
    Advisor::new(
        &ds.graph,
        ds.feat_dim,
        model.hidden_dim(),
        ds.num_classes,
        model.agg_order(),
        AdvisorConfig {
            spec: spec.clone(),
            tune: TuneStrategy::Manual(params),
            ..Default::default()
        },
    )
}

/// Runs a full forward pass of `model` on `ds` under `framework`,
/// returning the simulated metrics. Feature values are deterministic per
/// dataset + seed. For `Framework::GnnAdvisor`, pass a prepared advisor
/// (reuse it across calls — building one runs renumbering).
pub fn run_forward(
    framework: Framework,
    model: ModelKind,
    ds: &Dataset,
    config: &ExperimentConfig,
    advisor: Option<&Advisor>,
) -> Result<RunMetrics> {
    let engine = Engine::new(config.spec.clone());
    forward_on(&engine, framework, model, ds, config, advisor)
}

/// Like [`run_forward`], but with a trace recorder attached to the engine:
/// returns the metrics together with the recorder holding every span of
/// the pass (kernels, shard chunks, hotspots, GEMMs). The advisor is built
/// here, around the traced engine — GNNAdvisor-framework kernels launch on
/// `advisor.engine()`, so an advisor built elsewhere would bypass tracing.
/// Timestamps are simulated cycles: the recorder's chrome JSON is
/// byte-identical run-to-run at any `GNNADVISOR_SIM_THREADS`.
pub fn run_forward_traced(
    framework: Framework,
    model: ModelKind,
    ds: &Dataset,
    config: &ExperimentConfig,
) -> Result<(RunMetrics, Arc<TraceRecorder>)> {
    let tracer = Arc::new(TraceRecorder::new());
    let engine = Engine::builder(config.spec.clone())
        .tracer(Arc::clone(&tracer))
        .build()
        .expect("valid engine configuration");
    let advisor = if framework == Framework::GnnAdvisor {
        Some(Advisor::new(
            &ds.graph,
            ds.feat_dim,
            model.hidden_dim(),
            ds.num_classes,
            model.agg_order(),
            AdvisorConfig {
                spec: config.spec.clone(),
                engine: Some(engine.clone()),
                ..Default::default()
            },
        )?)
    } else {
        None
    };
    let metrics = forward_on(&engine, framework, model, ds, config, advisor.as_ref())?;
    Ok((metrics, tracer))
}

fn forward_on(
    engine: &Engine,
    framework: Framework,
    model: ModelKind,
    ds: &Dataset,
    config: &ExperimentConfig,
    advisor: Option<&Advisor>,
) -> Result<RunMetrics> {
    let features = random_features(ds.graph.num_nodes(), ds.feat_dim, config.seed);
    let exec = ModelExec::new(engine, &ds.graph, framework, advisor);
    let metrics = match model {
        ModelKind::Gcn => {
            Gcn::paper_default(ds.feat_dim, ds.num_classes, config.seed)
                .forward(&exec, &features)?
                .metrics
        }
        ModelKind::Gin => {
            Gin::paper_default(ds.feat_dim, ds.num_classes, config.seed)
                .forward(&exec, &features)?
                .metrics
        }
        ModelKind::Sage => {
            GraphSage::paper_default(ds.feat_dim, ds.num_classes, config.seed)
                .forward(&exec, &features)?
                .metrics
        }
    };
    Ok(metrics)
}

/// Reads `GNNADVISOR_TRACE_DIR`: when set, experiment drivers dump one
/// chrome trace per traced run into that directory (created on demand).
pub fn trace_dir_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os("GNNADVISOR_TRACE_DIR").map(std::path::PathBuf::from)
}

/// Writes `tracer`'s chrome://tracing JSON to `<dir>/<name>.trace.json`.
/// Returns the written path, or an IO error message.
pub fn dump_trace(
    tracer: &TraceRecorder,
    dir: &std::path::Path,
    name: &str,
) -> std::result::Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    #[test]
    fn gcn_forward_on_scaled_cora() {
        let cfg = ExperimentConfig::at_scale(0.05);
        let ds = table1_by_name("Cora")
            .expect("present")
            .generate(cfg.scale)
            .expect("valid");
        let m = run_forward(Framework::Dgl, ModelKind::Gcn, &ds, &cfg, None).expect("runs");
        assert!(m.total_ms() > 0.0);
    }

    #[test]
    fn advisor_beats_dgl_on_scaled_type3() {
        let cfg = ExperimentConfig::at_scale(0.02);
        let ds = table1_by_name("soc-BlogCatalog")
            .expect("present")
            .generate(cfg.scale)
            .expect("valid");
        let adv = build_advisor(&ds, ModelKind::Gcn, &cfg.spec).expect("builds");
        let ours = run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, &cfg, Some(&adv))
            .expect("runs");
        let dgl = run_forward(Framework::Dgl, ModelKind::Gcn, &ds, &cfg, None).expect("runs");
        assert!(
            ours.total_ms() < dgl.total_ms(),
            "advisor {} ms vs DGL {} ms",
            ours.total_ms(),
            dgl.total_ms()
        );
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_scale_rejected() {
        ExperimentConfig::at_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn negative_scale_rejected_by_scaled_spec() {
        scaled_spec(GpuSpec::quadro_p6000(), -0.5);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn oversized_scale_rejected() {
        ExperimentConfig::at_scale(1.5);
    }

    #[test]
    fn model_kinds_expose_paper_shapes() {
        assert_eq!(ModelKind::Gcn.hidden_dim(), 16);
        assert_eq!(ModelKind::Gin.hidden_dim(), 64);
        assert_eq!(ModelKind::Gin.agg_order(), AggOrder::AggregateThenUpdate);
    }
}
