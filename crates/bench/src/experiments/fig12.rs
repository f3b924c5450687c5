//! Figure 12: node renumbering (a, b) and block-level optimization (c).
//!
//! Paper reference: renumbering brings up to 1.74x (GCN) / 1.49x (GIN)
//! speedup and cuts DRAM access ~40% on Type III, weakest on `artist`
//! (high community-size variance); block-level optimizations cut atomics
//! 47.85% and DRAM 57.93% on three large graphs.

use gnnadvisor_core::Framework;
use gnnadvisor_datasets::TYPE_III;
use serde::Serialize;

use crate::report::{mean, Table};
use crate::runner::{build_advisor_manual, run_forward, ExperimentConfig, ModelKind};
use gnnadvisor_core::RuntimeParams;

/// Renumbering effect on one dataset × model.
#[derive(Debug, Clone, Serialize)]
pub struct RenumberRow {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Runtime without renumbering, ms.
    pub off_ms: f64,
    /// Runtime with renumbering, ms.
    pub on_ms: f64,
    /// Speedup from renumbering.
    pub speedup: f64,
    /// DRAM bytes without renumbering.
    pub off_dram: u64,
    /// DRAM bytes with renumbering.
    pub on_dram: u64,
    /// DRAM reduction percent.
    pub dram_reduction_pct: f64,
}

/// Block-level-optimization effect on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct BlockOptRow {
    /// Dataset name.
    pub dataset: String,
    /// Atomic ops without block-level optimization.
    pub off_atomics: u64,
    /// Atomic ops with it.
    pub on_atomics: u64,
    /// Atomic reduction percent.
    pub atomic_reduction_pct: f64,
    /// DRAM bytes without.
    pub off_dram: u64,
    /// DRAM bytes with.
    pub on_dram: u64,
    /// DRAM reduction percent.
    pub dram_reduction_pct: f64,
}

/// Full Figure 12 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Result {
    /// Dataset scale used.
    pub scale: f64,
    /// 12a/12b rows (Type III × {GCN, GIN}).
    pub renumber: Vec<RenumberRow>,
    /// 12c rows (three large graphs).
    pub block_opt: Vec<BlockOptRow>,
    /// Mean DRAM reduction from renumbering, GCN (%).
    pub gcn_mean_dram_reduction: f64,
    /// Mean DRAM reduction from renumbering, GIN (%).
    pub gin_mean_dram_reduction: f64,
    /// Mean atomic reduction from block-level optimization (%).
    pub mean_atomic_reduction: f64,
    /// Mean DRAM reduction from block-level optimization (%).
    pub mean_block_dram_reduction: f64,
}

/// Manual params for the ablation: fixed sensible settings so the only
/// variable is the toggle under study.
fn base_params() -> RuntimeParams {
    RuntimeParams {
        group_size: 4,
        threads_per_block: 256,
        dim_workers: 16,
        use_shared: true,
        renumber: true,
    }
}

fn aggregation_dram(m: &gnnadvisor_gpu::RunMetrics) -> u64 {
    m.kernels
        .iter()
        .filter(|k| !k.name.starts_with("gemm"))
        .map(|k| k.dram_bytes())
        .sum()
}

fn aggregation_atomics(m: &gnnadvisor_gpu::RunMetrics) -> u64 {
    m.kernels.iter().map(|k| k.atomic_ops).sum()
}

/// Runs both halves of Figure 12.
pub fn run(cfg: &ExperimentConfig) -> Fig12Result {
    let mut renumber = Vec::new();
    for spec in TYPE_III {
        let ds = spec.generate(cfg.scale).expect("dataset generates");
        for model in [ModelKind::Gcn, ModelKind::Gin] {
            let on_params = base_params();
            let off_params = RuntimeParams {
                renumber: false,
                ..on_params
            };
            let on = build_advisor_manual(&ds, model, &cfg.spec, on_params).expect("builds");
            let off = build_advisor_manual(&ds, model, &cfg.spec, off_params).expect("builds");
            let m_on =
                run_forward(Framework::GnnAdvisor, model, &ds, cfg, Some(&on)).expect("runs");
            let m_off =
                run_forward(Framework::GnnAdvisor, model, &ds, cfg, Some(&off)).expect("runs");
            let (on_dram, off_dram) = (aggregation_dram(&m_on), aggregation_dram(&m_off));
            renumber.push(RenumberRow {
                dataset: spec.name.to_string(),
                model: model.name().to_string(),
                off_ms: m_off.total_ms(),
                on_ms: m_on.total_ms(),
                speedup: m_off.total_ms() / m_on.total_ms().max(1e-12),
                off_dram,
                on_dram,
                dram_reduction_pct: (1.0 - on_dram as f64 / off_dram.max(1) as f64) * 100.0,
            });
        }
    }

    // 12c on the three largest Type III graphs, GCN.
    let mut block_opt = Vec::new();
    for spec in [&TYPE_III[0], &TYPE_III[3], &TYPE_III[4]] {
        let ds = spec.generate(cfg.scale).expect("dataset generates");
        let on_params = base_params();
        let off_params = RuntimeParams {
            use_shared: false,
            ..on_params
        };
        let on = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, on_params).expect("builds");
        let off = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, off_params).expect("builds");
        let m_on =
            run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, cfg, Some(&on)).expect("runs");
        let m_off =
            run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, cfg, Some(&off)).expect("runs");
        let (on_a, off_a) = (aggregation_atomics(&m_on), aggregation_atomics(&m_off));
        let (on_d, off_d) = (aggregation_dram(&m_on), aggregation_dram(&m_off));
        block_opt.push(BlockOptRow {
            dataset: spec.name.to_string(),
            off_atomics: off_a,
            on_atomics: on_a,
            atomic_reduction_pct: (1.0 - on_a as f64 / off_a.max(1) as f64) * 100.0,
            off_dram: off_d,
            on_dram: on_d,
            dram_reduction_pct: (1.0 - on_d as f64 / off_d.max(1) as f64) * 100.0,
        });
    }

    let pick = |model: &str| {
        renumber
            .iter()
            .filter(|r| r.model == model)
            .map(|r| r.dram_reduction_pct)
            .collect::<Vec<_>>()
    };
    Fig12Result {
        scale: cfg.scale,
        gcn_mean_dram_reduction: mean(&pick("GCN")),
        gin_mean_dram_reduction: mean(&pick("GIN")),
        mean_atomic_reduction: mean(
            &block_opt
                .iter()
                .map(|r| r.atomic_reduction_pct)
                .collect::<Vec<_>>(),
        ),
        mean_block_dram_reduction: mean(
            &block_opt
                .iter()
                .map(|r| r.dram_reduction_pct)
                .collect::<Vec<_>>(),
        ),
        renumber,
        block_opt,
    }
}

/// Prints all three panels.
pub fn print(result: &Fig12Result) {
    println!(
        "Figure 12a/b: node renumbering impact (scale {}).\n\
         Paper reference: up to 1.74x (GCN) / 1.49x (GIN) speedup,\n\
         ~40.62% / 42.33% DRAM reduction; weakest on artist.\n",
        result.scale
    );
    let mut t = Table::new(&[
        "Dataset",
        "Model",
        "w/o renum (ms)",
        "w/ renum (ms)",
        "Speedup",
        "DRAM reduction",
    ]);
    for r in &result.renumber {
        t.row(&[
            r.dataset.clone(),
            r.model.clone(),
            format!("{:.4}", r.off_ms),
            format!("{:.4}", r.on_ms),
            format!("{:.2}x", r.speedup),
            format!("{:.1}%", r.dram_reduction_pct),
        ]);
    }
    t.print();
    println!(
        "\nMean DRAM reduction: GCN {:.1}%, GIN {:.1}%\n",
        result.gcn_mean_dram_reduction, result.gin_mean_dram_reduction
    );

    println!(
        "Figure 12c: block-level optimization impact.\n\
         Paper reference: atomics -47.85%, DRAM -57.93% on average.\n"
    );
    let mut t = Table::new(&[
        "Dataset",
        "Atomics (off)",
        "Atomics (on)",
        "Atomic redn",
        "DRAM (off)",
        "DRAM (on)",
        "DRAM redn",
    ]);
    for r in &result.block_opt {
        t.row(&[
            r.dataset.clone(),
            r.off_atomics.to_string(),
            r.on_atomics.to_string(),
            format!("{:.1}%", r.atomic_reduction_pct),
            r.off_dram.to_string(),
            r.on_dram.to_string(),
            format!("{:.1}%", r.dram_reduction_pct),
        ]);
    }
    t.print();
    println!(
        "\nMean reductions: atomics {:.1}%, DRAM {:.1}%",
        result.mean_atomic_reduction, result.mean_block_dram_reduction
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    #[test]
    fn block_opt_reduces_atomics_on_blogcatalog() {
        let cfg = ExperimentConfig::at_scale(0.01);
        let spec = table1_by_name("soc-BlogCatalog").expect("present");
        let ds = spec.generate(cfg.scale).expect("valid");
        let on = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, base_params()).expect("b");
        let off_params = RuntimeParams {
            use_shared: false,
            ..base_params()
        };
        let off = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, off_params).expect("b");
        let m_on =
            run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, &cfg, Some(&on)).expect("r");
        let m_off =
            run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, &cfg, Some(&off)).expect("r");
        assert!(
            aggregation_atomics(&m_on) < aggregation_atomics(&m_off),
            "{} vs {}",
            aggregation_atomics(&m_on),
            aggregation_atomics(&m_off)
        );
    }
}
