//! Figure 8: speedup over DGL for GCN and GIN across all 15 datasets.
//!
//! The paper reports 4.03x (GCN) and 2.02x (GIN) on average, with the GCN
//! advantage largest on Type I (6.45x) and both evident on Type III
//! (2.10x / 1.70x). The shape to reproduce: GNNAdvisor wins everywhere,
//! GCN gains exceed GIN gains on Type I (dimension reduction before
//! aggregation), and Type II GIN beats Type I GIN (lower dims + intrinsic
//! block-diagonal locality).

use gnnadvisor_core::Framework;
use gnnadvisor_datasets::all_table1;
use serde::Serialize;

use crate::report::{geomean, Table};
use crate::runner::{build_advisor, run_forward, ExperimentConfig, ModelKind};

/// One dataset × model measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Dataset type label.
    pub ty: String,
    /// Model name.
    pub model: String,
    /// GNNAdvisor forward time, ms (simulated).
    pub advisor_ms: f64,
    /// DGL forward time, ms (simulated).
    pub dgl_ms: f64,
    /// Speedup (`dgl / advisor`).
    pub speedup: f64,
}

/// Full Figure 8 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// Dataset scale used.
    pub scale: f64,
    /// All rows (15 datasets × 2 models).
    pub rows: Vec<Row>,
    /// Geometric-mean speedup for GCN.
    pub gcn_mean_speedup: f64,
    /// Geometric-mean speedup for GIN.
    pub gin_mean_speedup: f64,
}

/// Runs the full sweep. Datasets are independent, so they run on scoped
/// worker threads (`std::thread::scope`); rows are collected in dataset
/// order, so the output stays deterministic.
pub fn run(cfg: &ExperimentConfig) -> Fig8Result {
    let specs = all_table1();
    let per_dataset: Vec<Vec<Row>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                scope.spawn(move || {
                    let ds = spec.generate(cfg.scale).expect("dataset generates");
                    [ModelKind::Gcn, ModelKind::Gin]
                        .into_iter()
                        .map(|model| {
                            let advisor =
                                build_advisor(&ds, model, &cfg.spec).expect("advisor builds");
                            let ours =
                                run_forward(Framework::GnnAdvisor, model, &ds, cfg, Some(&advisor))
                                    .expect("advisor runs");
                            let dgl = run_forward(Framework::Dgl, model, &ds, cfg, None)
                                .expect("dgl runs");
                            Row {
                                dataset: spec.name.to_string(),
                                ty: spec.ty.label().to_string(),
                                model: model.name().to_string(),
                                advisor_ms: ours.total_ms(),
                                dgl_ms: dgl.total_ms(),
                                speedup: dgl.total_ms() / ours.total_ms().max(1e-12),
                            }
                        })
                        .collect::<Vec<Row>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let rows: Vec<Row> = per_dataset.into_iter().flatten().collect();
    let gcn: Vec<f64> = rows
        .iter()
        .filter(|r| r.model == "GCN")
        .map(|r| r.speedup)
        .collect();
    let gin: Vec<f64> = rows
        .iter()
        .filter(|r| r.model == "GIN")
        .map(|r| r.speedup)
        .collect();
    Fig8Result {
        scale: cfg.scale,
        rows,
        gcn_mean_speedup: geomean(&gcn),
        gin_mean_speedup: geomean(&gin),
    }
}

/// Prints the paper-style figure data.
pub fn print(result: &Fig8Result) {
    println!(
        "Figure 8: Speedup over DGL for GCN and GIN (scale {}).\n\
         Paper reference: GCN avg 4.03x, GIN avg 2.02x.\n",
        result.scale
    );
    let mut t = Table::new(&[
        "Dataset",
        "Type",
        "Model",
        "GNNAdvisor (ms)",
        "DGL (ms)",
        "Speedup",
    ]);
    for r in &result.rows {
        t.row(&[
            r.dataset.clone(),
            r.ty.clone(),
            r.model.clone(),
            format!("{:.4}", r.advisor_ms),
            format!("{:.4}", r.dgl_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
    println!(
        "\nGeomean speedup: GCN {:.2}x, GIN {:.2}x",
        result.gcn_mean_speedup, result.gin_mean_speedup
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    /// A focused subset check (the full sweep runs in the binary/benches).
    #[test]
    fn advisor_wins_on_representative_datasets() {
        let cfg = ExperimentConfig::at_scale(0.02);
        for name in ["Pubmed", "PROTEINS_full", "artist"] {
            let ds = table1_by_name(name)
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
            assert!(
                ours.total_ms() < dgl.total_ms(),
                "{name}: advisor {} vs DGL {}",
                ours.total_ms(),
                dgl.total_ms()
            );
        }
    }
}
