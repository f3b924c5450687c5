//! Figure 9: GPU kernel metrics vs DGL — SM efficiency and cache hit rate.
//!
//! Paper reference: GNNAdvisor achieves on average +24.47% (GCN) and
//! +12.02% (GIN) SM efficiency, and +75.55% / +126.20% relatively better
//! cache hit rate. Shape to reproduce: both metrics higher for GNNAdvisor
//! on (almost) every dataset, with the cache advantage the larger of the
//! two.

use gnnadvisor_core::Framework;
use gnnadvisor_datasets::all_table1;
use serde::Serialize;

use crate::report::{mean, Table};
use crate::runner::{build_advisor, run_forward, ExperimentConfig, ModelKind};

/// One dataset × model metric comparison (aggregation kernels only — the
/// paper profiles the aggregation phase, not the shared cuBLAS updates).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// GNNAdvisor SM efficiency (0–1).
    pub advisor_sm_eff: f64,
    /// DGL SM efficiency.
    pub dgl_sm_eff: f64,
    /// GNNAdvisor cache hit rate (0–1).
    pub advisor_cache: f64,
    /// DGL cache hit rate.
    pub dgl_cache: f64,
}

/// Full Figure 9 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Result {
    /// Dataset scale used.
    pub scale: f64,
    /// All rows.
    pub rows: Vec<Row>,
    /// Mean absolute SM-efficiency advantage (percentage points), GCN.
    pub gcn_sm_eff_gain_pp: f64,
    /// Mean absolute SM-efficiency advantage, GIN.
    pub gin_sm_eff_gain_pp: f64,
    /// Mean relative cache-hit-rate improvement (%), GCN.
    pub gcn_cache_gain_pct: f64,
    /// Mean relative cache-hit-rate improvement (%), GIN.
    pub gin_cache_gain_pct: f64,
}

fn aggregation_only(metrics: &gnnadvisor_gpu::RunMetrics) -> (f64, f64) {
    let agg: Vec<_> = metrics
        .kernels
        .iter()
        .filter(|k| !k.name.starts_with("gemm"))
        .cloned()
        .collect();
    let mut filtered = gnnadvisor_gpu::RunMetrics::default();
    for k in agg {
        filtered.push_kernel(k);
    }
    (filtered.mean_sm_efficiency(), filtered.cache_hit_rate())
}

/// Runs the metric sweep.
pub fn run(cfg: &ExperimentConfig) -> Fig9Result {
    let mut rows = Vec::new();
    for spec in all_table1() {
        let ds = spec.generate(cfg.scale).expect("dataset generates");
        for model in [ModelKind::Gcn, ModelKind::Gin] {
            let advisor = build_advisor(&ds, model, &cfg.spec).expect("advisor builds");
            let ours = run_forward(Framework::GnnAdvisor, model, &ds, cfg, Some(&advisor))
                .expect("advisor runs");
            let dgl = run_forward(Framework::Dgl, model, &ds, cfg, None).expect("dgl runs");
            let (our_eff, our_cache) = aggregation_only(&ours);
            let (dgl_eff, dgl_cache) = aggregation_only(&dgl);
            rows.push(Row {
                dataset: spec.name.to_string(),
                model: model.name().to_string(),
                advisor_sm_eff: our_eff,
                dgl_sm_eff: dgl_eff,
                advisor_cache: our_cache,
                dgl_cache,
            });
        }
    }
    let gain_pp = |m: &str| {
        mean(
            &rows
                .iter()
                .filter(|r| r.model == m)
                .map(|r| (r.advisor_sm_eff - r.dgl_sm_eff) * 100.0)
                .collect::<Vec<_>>(),
        )
    };
    let cache_pct = |m: &str| {
        mean(
            &rows
                .iter()
                .filter(|r| r.model == m)
                .map(|r| (r.advisor_cache / r.dgl_cache.max(1e-9) - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        )
    };
    Fig9Result {
        scale: cfg.scale,
        gcn_sm_eff_gain_pp: gain_pp("GCN"),
        gin_sm_eff_gain_pp: gain_pp("GIN"),
        gcn_cache_gain_pct: cache_pct("GCN"),
        gin_cache_gain_pct: cache_pct("GIN"),
        rows,
    }
}

/// Prints the paper-style figure data.
pub fn print(result: &Fig9Result) {
    println!(
        "Figure 9: kernel metrics vs DGL (scale {}).\n\
         Paper reference: SM efficiency +24.47pp (GCN) / +12.02pp (GIN);\n\
         cache hit rate +75.55% (GCN) / +126.20% (GIN) relative.\n",
        result.scale
    );
    let mut t = Table::new(&[
        "Dataset",
        "Model",
        "SM eff (ours)",
        "SM eff (DGL)",
        "Cache (ours)",
        "Cache (DGL)",
    ]);
    for r in &result.rows {
        t.row(&[
            r.dataset.clone(),
            r.model.clone(),
            format!("{:.1}%", r.advisor_sm_eff * 100.0),
            format!("{:.1}%", r.dgl_sm_eff * 100.0),
            format!("{:.1}%", r.advisor_cache * 100.0),
            format!("{:.1}%", r.dgl_cache * 100.0),
        ]);
    }
    t.print();
    println!(
        "\nMean gains: SM eff +{:.1}pp (GCN) / +{:.1}pp (GIN); cache +{:.1}% (GCN) / +{:.1}% (GIN)",
        result.gcn_sm_eff_gain_pp,
        result.gin_sm_eff_gain_pp,
        result.gcn_cache_gain_pct,
        result.gin_cache_gain_pct
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    #[test]
    fn advisor_metrics_beat_dgl_on_type3() {
        let cfg = ExperimentConfig::at_scale(0.02);
        let ds = table1_by_name("amazon0505")
            .expect("present")
            .generate(cfg.scale)
            .expect("valid");
        let advisor = build_advisor(&ds, ModelKind::Gcn, &cfg.spec).expect("builds");
        let ours = run_forward(
            Framework::GnnAdvisor,
            ModelKind::Gcn,
            &ds,
            &cfg,
            Some(&advisor),
        )
        .expect("runs");
        let dgl = run_forward(Framework::Dgl, ModelKind::Gcn, &ds, &cfg, None).expect("runs");
        let (our_eff, our_cache) = aggregation_only(&ours);
        let (dgl_eff, dgl_cache) = aggregation_only(&dgl);
        assert!(our_eff > dgl_eff, "SM eff {our_eff} vs {dgl_eff}");
        assert!(our_cache > dgl_cache, "cache {our_cache} vs {dgl_cache}");
    }
}
