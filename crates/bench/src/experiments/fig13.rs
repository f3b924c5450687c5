//! Figure 13 + Table 3: case studies — hidden-dimension scaling (a, b) and
//! Tesla V100 vs Quadro P6000 (c).
//!
//! Paper reference: GCN latency grows with hidden dimension, GIN grows
//! *sharper* (5 layers vs 2); the V100 runs 1.97x (GCN) / 1.86x (GIN)
//! faster than the P6000 thanks to 2.6x SMs and 2.08x memory bandwidth.

use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
use gnnadvisor_core::Framework;
use gnnadvisor_datasets::table1_by_name;
use gnnadvisor_gpu::{Engine, GpuSpec};
use gnnadvisor_models::{Gcn, Gin, ModelExec};
use gnnadvisor_tensor::init::random_features;
use serde::Serialize;

use crate::report::{mean, Table};
use crate::runner::{build_advisor, run_forward, ExperimentConfig, ModelKind};

/// One hidden-dimension sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct DimPoint {
    /// Hidden dimension.
    pub hidden: usize,
    /// GCN latency, ms.
    pub gcn_ms: f64,
    /// GIN latency, ms.
    pub gin_ms: f64,
}

/// One V100-vs-P6000 comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceRow {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// P6000 latency, ms.
    pub p6000_ms: f64,
    /// V100 latency, ms.
    pub v100_ms: f64,
    /// V100 speedup over P6000.
    pub speedup: f64,
}

/// Full Figure 13 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Result {
    /// Dataset scale used.
    pub scale: f64,
    /// Dataset the dimension sweep runs on.
    pub sweep_dataset: String,
    /// 13a/13b points.
    pub dim_sweep: Vec<DimPoint>,
    /// 13c rows.
    pub devices: Vec<DeviceRow>,
    /// Mean V100 speedup, GCN.
    pub v100_gcn_speedup: f64,
    /// Mean V100 speedup, GIN.
    pub v100_gin_speedup: f64,
}

/// Hidden dimensions swept in 13a/13b.
pub const HIDDEN_SWEEP: &[usize] = &[16, 32, 64, 128, 256, 512];

fn forward_with_hidden(
    spec: &GpuSpec,
    ds: &gnnadvisor_datasets::Dataset,
    hidden: usize,
    gin: bool,
    seed: u64,
) -> f64 {
    let order = if gin {
        gnnadvisor_core::input::AggOrder::AggregateThenUpdate
    } else {
        gnnadvisor_core::input::AggOrder::UpdateThenAggregate
    };
    let advisor = Advisor::new(
        &ds.graph,
        ds.feat_dim,
        hidden,
        ds.num_classes,
        order,
        AdvisorConfig {
            spec: spec.clone(),
            ..Default::default()
        },
    )
    .expect("advisor builds");
    let engine = Engine::new(spec.clone());
    let features = random_features(ds.graph.num_nodes(), ds.feat_dim, seed);
    let exec = ModelExec::new(&engine, &ds.graph, Framework::GnnAdvisor, Some(&advisor));
    if gin {
        Gin::new(ds.feat_dim, hidden, ds.num_classes, 5, 0.0, seed)
            .forward(&exec, &features)
            .expect("runs")
            .metrics
            .total_ms()
    } else {
        Gcn::new(ds.feat_dim, hidden, ds.num_classes, 2, seed)
            .forward(&exec, &features)
            .expect("runs")
            .metrics
            .total_ms()
    }
}

/// Runs both case studies.
pub fn run(cfg: &ExperimentConfig) -> Fig13Result {
    // Dimension sweep on a mid-size Type III graph.
    let sweep_spec = table1_by_name("com-amazon").expect("present");
    let ds = sweep_spec.generate(cfg.scale).expect("dataset generates");
    let dim_sweep = HIDDEN_SWEEP
        .iter()
        .map(|&hidden| DimPoint {
            hidden,
            gcn_ms: forward_with_hidden(&cfg.spec, &ds, hidden, false, cfg.seed),
            gin_ms: forward_with_hidden(&cfg.spec, &ds, hidden, true, cfg.seed),
        })
        .collect();

    // Device comparison over the Type III datasets.
    let mut devices = Vec::new();
    for name in [
        "amazon0505",
        "artist",
        "com-amazon",
        "soc-BlogCatalog",
        "amazon0601",
    ] {
        let spec = table1_by_name(name).expect("present");
        let ds = spec.generate(cfg.scale).expect("dataset generates");
        for model in [ModelKind::Gcn, ModelKind::Gin] {
            let p_cfg = ExperimentConfig {
                spec: crate::runner::scaled_spec(GpuSpec::quadro_p6000(), cfg.scale),
                ..cfg.clone()
            };
            let v_cfg = ExperimentConfig {
                spec: crate::runner::scaled_spec(GpuSpec::tesla_v100(), cfg.scale),
                ..cfg.clone()
            };
            let adv_p = build_advisor(&ds, model, &p_cfg.spec).expect("builds");
            let adv_v = build_advisor(&ds, model, &v_cfg.spec).expect("builds");
            let p = run_forward(Framework::GnnAdvisor, model, &ds, &p_cfg, Some(&adv_p))
                .expect("runs")
                .total_ms();
            let v = run_forward(Framework::GnnAdvisor, model, &ds, &v_cfg, Some(&adv_v))
                .expect("runs")
                .total_ms();
            devices.push(DeviceRow {
                dataset: name.to_string(),
                model: model.name().to_string(),
                p6000_ms: p,
                v100_ms: v,
                speedup: p / v.max(1e-12),
            });
        }
    }
    let pick = |m: &str| {
        devices
            .iter()
            .filter(|r| r.model == m)
            .map(|r| r.speedup)
            .collect::<Vec<_>>()
    };
    Fig13Result {
        scale: cfg.scale,
        sweep_dataset: sweep_spec.name.to_string(),
        dim_sweep,
        v100_gcn_speedup: mean(&pick("GCN")),
        v100_gin_speedup: mean(&pick("GIN")),
        devices,
    }
}

/// Prints Table 3 (device specs) and both case studies.
pub fn print(result: &Fig13Result) {
    println!("Table 3: GPU specs.\n");
    let mut t = Table::new(&[
        "Processor",
        "Architect",
        "SMs",
        "CUDA Cores",
        "Frequency",
        "Throughput",
        "Cache",
        "Mem. B/W",
    ]);
    for spec in [GpuSpec::quadro_p6000(), GpuSpec::tesla_v100()] {
        t.row(&[
            spec.name.clone(),
            spec.architecture.clone(),
            spec.num_sms.to_string(),
            spec.cuda_cores.to_string(),
            format!("{:.3} GHz", spec.clock_ghz),
            format!("{:.0} TFLOPs", spec.peak_tflops()),
            format!("{} MB L2", spec.l2_bytes / (1024 * 1024)),
            format!("{:.0} GB/s", spec.dram_bandwidth_gbps),
        ]);
    }
    t.print();

    println!(
        "\nFigure 13a/b: latency vs hidden dimension on {} (scale {}).\n",
        result.sweep_dataset, result.scale
    );
    let mut t = Table::new(&["Hidden dim", "GCN (ms)", "GIN (ms)", "GIN/GCN"]);
    for p in &result.dim_sweep {
        t.row(&[
            p.hidden.to_string(),
            format!("{:.4}", p.gcn_ms),
            format!("{:.4}", p.gin_ms),
            format!("{:.2}x", p.gin_ms / p.gcn_ms.max(1e-12)),
        ]);
    }
    t.print();

    println!(
        "\nFigure 13c: Tesla V100 vs Quadro P6000.\n\
         Paper reference: 1.97x (GCN), 1.86x (GIN).\n"
    );
    let mut t = Table::new(&["Dataset", "Model", "P6000 (ms)", "V100 (ms)", "Speedup"]);
    for r in &result.devices {
        t.row(&[
            r.dataset.clone(),
            r.model.clone(),
            format!("{:.4}", r.p6000_ms),
            format!("{:.4}", r.v100_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
    println!(
        "\nMean V100 speedup: GCN {:.2}x, GIN {:.2}x",
        result.v100_gcn_speedup, result.v100_gin_speedup
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_hidden_dim() {
        let cfg = ExperimentConfig::at_scale(0.01);
        let ds = table1_by_name("com-amazon")
            .expect("present")
            .generate(cfg.scale)
            .expect("valid");
        let lo = forward_with_hidden(&cfg.spec, &ds, 16, false, 1);
        let hi = forward_with_hidden(&cfg.spec, &ds, 256, false, 1);
        assert!(hi > lo, "256 hidden ({hi}) must cost more than 16 ({lo})");
    }

    #[test]
    fn v100_beats_p6000() {
        let cfg = ExperimentConfig::at_scale(0.01);
        let ds = table1_by_name("artist")
            .expect("present")
            .generate(cfg.scale)
            .expect("valid");
        let adv_p = build_advisor(&ds, ModelKind::Gcn, &GpuSpec::quadro_p6000()).expect("builds");
        let adv_v = build_advisor(&ds, ModelKind::Gcn, &GpuSpec::tesla_v100()).expect("builds");
        let p_cfg = ExperimentConfig {
            spec: GpuSpec::quadro_p6000(),
            ..cfg.clone()
        };
        let v_cfg = ExperimentConfig {
            spec: GpuSpec::tesla_v100(),
            ..cfg
        };
        let p = run_forward(
            Framework::GnnAdvisor,
            ModelKind::Gcn,
            &ds,
            &p_cfg,
            Some(&adv_p),
        )
        .expect("runs");
        let v = run_forward(
            Framework::GnnAdvisor,
            ModelKind::Gcn,
            &ds,
            &v_cfg,
            Some(&adv_v),
        )
        .expect("runs");
        assert!(
            v.total_ms() < p.total_ms(),
            "V100 {} vs P6000 {}",
            v.total_ms(),
            p.total_ms()
        );
    }
}
