//! Figure 10: comparisons with PyG (Type II) and GunRock (Type III).
//!
//! Paper reference: vs PyG, 46.24x (GCN) and 13.39x (GIN) average on the
//! Type II sets, peaking on the high-dimensional TWITTER-Partial; vs
//! GunRock's GraphSage, 27.18x–100.01x on the Type III graphs, largest on
//! big high-dimensional inputs like soc-BlogCatalog.

use gnnadvisor_core::Framework;
use gnnadvisor_datasets::{TYPE_II, TYPE_III};
use serde::Serialize;

use crate::report::{geomean, Table};
use crate::runner::{build_advisor, run_forward, ExperimentConfig, ModelKind};

/// One comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Baseline framework name.
    pub baseline: String,
    /// GNNAdvisor time, ms.
    pub advisor_ms: f64,
    /// Baseline time, ms.
    pub baseline_ms: f64,
    /// Speedup.
    pub speedup: f64,
}

/// Full Figure 10 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Result {
    /// Dataset scale used.
    pub scale: f64,
    /// 10a rows: PyG on Type II, GCN + GIN.
    pub pyg_rows: Vec<Row>,
    /// 10b rows: GunRock GraphSage on Type III.
    pub gunrock_rows: Vec<Row>,
    /// Geomean PyG speedup, GCN.
    pub pyg_gcn_mean: f64,
    /// Geomean PyG speedup, GIN.
    pub pyg_gin_mean: f64,
    /// Min and max GunRock speedups.
    pub gunrock_range: (f64, f64),
}

fn compare(
    cfg: &ExperimentConfig,
    spec: &gnnadvisor_datasets::DatasetSpec,
    model: ModelKind,
    baseline: Framework,
) -> Row {
    let ds = spec.generate(cfg.scale).expect("dataset generates");
    let advisor = build_advisor(&ds, model, &cfg.spec).expect("advisor builds");
    let ours =
        run_forward(Framework::GnnAdvisor, model, &ds, cfg, Some(&advisor)).expect("advisor runs");
    let other = run_forward(baseline, model, &ds, cfg, None).expect("baseline runs");
    Row {
        dataset: spec.name.to_string(),
        model: model.name().to_string(),
        baseline: baseline.name().to_string(),
        advisor_ms: ours.total_ms(),
        baseline_ms: other.total_ms(),
        speedup: other.total_ms() / ours.total_ms().max(1e-12),
    }
}

/// Runs both halves of Figure 10.
pub fn run(cfg: &ExperimentConfig) -> Fig10Result {
    let mut pyg_rows = Vec::new();
    for spec in TYPE_II {
        for model in [ModelKind::Gcn, ModelKind::Gin] {
            pyg_rows.push(compare(cfg, spec, model, Framework::Pyg));
        }
    }
    let mut gunrock_rows = Vec::new();
    for spec in TYPE_III {
        gunrock_rows.push(compare(cfg, spec, ModelKind::Sage, Framework::Gunrock));
    }
    let gcn: Vec<f64> = pyg_rows
        .iter()
        .filter(|r| r.model == "GCN")
        .map(|r| r.speedup)
        .collect();
    let gin: Vec<f64> = pyg_rows
        .iter()
        .filter(|r| r.model == "GIN")
        .map(|r| r.speedup)
        .collect();
    let gr_min = gunrock_rows
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let gr_max = gunrock_rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    Fig10Result {
        scale: cfg.scale,
        pyg_rows,
        gunrock_rows,
        pyg_gcn_mean: geomean(&gcn),
        pyg_gin_mean: geomean(&gin),
        gunrock_range: (gr_min, gr_max),
    }
}

/// Prints both sub-figures.
pub fn print(result: &Fig10Result) {
    println!(
        "Figure 10a: speedup over PyG on Type II (scale {}).\n\
         Paper reference: 46.24x (GCN), 13.39x (GIN) average.\n",
        result.scale
    );
    let mut t = Table::new(&["Dataset", "Model", "GNNAdvisor (ms)", "PyG (ms)", "Speedup"]);
    for r in &result.pyg_rows {
        t.row(&[
            r.dataset.clone(),
            r.model.clone(),
            format!("{:.4}", r.advisor_ms),
            format!("{:.4}", r.baseline_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
    println!(
        "\nGeomean: GCN {:.2}x, GIN {:.2}x\n",
        result.pyg_gcn_mean, result.pyg_gin_mean
    );

    println!(
        "Figure 10b: speedup over GunRock (GraphSage, sampling disabled) on Type III.\n\
         Paper reference: 27.18x to 100.01x.\n"
    );
    let mut t = Table::new(&["Dataset", "GNNAdvisor (ms)", "GunRock (ms)", "Speedup"]);
    for r in &result.gunrock_rows {
        t.row(&[
            r.dataset.clone(),
            format!("{:.4}", r.advisor_ms),
            format!("{:.4}", r.baseline_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
    println!(
        "\nRange: {:.2}x to {:.2}x",
        result.gunrock_range.0, result.gunrock_range.1
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    #[test]
    fn pyg_gap_largest_on_high_dim_gcn() {
        // Section 8.3: "For GCN, GNNAdvisor achieves significant speedup on
        // datasets with high-dimensional node embedding, such as
        // TWITTER-Partial, through node dimension reduction before
        // aggregation" — PyG aggregates at the full 1323 dims while the
        // advisor reduces to 16 first.
        let cfg = ExperimentConfig::at_scale(0.04);
        let twitter = table1_by_name("TWITTER-Partial").expect("present");
        let proteins = table1_by_name("PROTEINS_full").expect("present");
        let hi = compare(&cfg, &twitter, ModelKind::Gcn, Framework::Pyg);
        let lo = compare(&cfg, &proteins, ModelKind::Gcn, Framework::Pyg);
        assert!(hi.speedup > 1.0 && lo.speedup > 1.0);
        assert!(
            hi.speedup > lo.speedup * 1.5,
            "1323-dim TWITTER must widen the PyG gap decisively: {} vs {}",
            hi.speedup,
            lo.speedup
        );
    }

    #[test]
    fn gunrock_gap_is_order_of_magnitude() {
        let cfg = ExperimentConfig::at_scale(0.01);
        let blog = table1_by_name("soc-BlogCatalog").expect("present");
        let row = compare(&cfg, &blog, ModelKind::Sage, Framework::Gunrock);
        assert!(row.speedup > 10.0, "got only {:.2}x", row.speedup);
    }
}
