//! Figure 11: group-based workload impact — normalized runtime vs group
//! size (11a), thread-per-block (11b), and dimension worker (11c), on the
//! Type III graphs under GCN.
//!
//! Paper reference shapes: each sweep is U-shaped — runtime first falls,
//! then climbs past a dataset-dependent optimum (e.g. gs ~32 on `artist`,
//! tpb ~128 on `com-amazon`, dw ~16 across Type III). All values are
//! normalized to the first setting of the sweep (gs = 1 / tpb = 32 /
//! dw = 1), as in the paper.

use gnnadvisor_core::{Framework, RuntimeParams};
use gnnadvisor_datasets::TYPE_III;
use serde::Serialize;

use crate::report::Table;
use crate::runner::{build_advisor_manual, run_forward, ExperimentConfig, ModelKind};

/// One sweep series for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Dataset name.
    pub dataset: String,
    /// Swept parameter values.
    pub x: Vec<usize>,
    /// Runtime normalized to the first point (percent).
    pub normalized_pct: Vec<f64>,
    /// Raw runtimes, ms.
    pub raw_ms: Vec<f64>,
}

/// Full Figure 11 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Result {
    /// Dataset scale used.
    pub scale: f64,
    /// 11a: group-size sweep.
    pub group_size: Vec<Series>,
    /// 11b: thread-per-block sweep.
    pub threads_per_block: Vec<Series>,
    /// 11c: dimension-worker sweep.
    pub dim_workers: Vec<Series>,
}

/// Swept values per knob.
pub const GS_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Thread-per-block sweep.
pub const TPB_SWEEP: &[usize] = &[32, 64, 128, 256, 512, 1024];
/// Dimension-worker sweep.
pub const DW_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32];

fn sweep(
    cfg: &ExperimentConfig,
    spec: &gnnadvisor_datasets::DatasetSpec,
    xs: &[usize],
    make: impl Fn(usize) -> RuntimeParams,
) -> Series {
    let ds = spec.generate(cfg.scale).expect("dataset generates");
    let mut raw = Vec::with_capacity(xs.len());
    for &x in xs {
        let advisor =
            build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, make(x)).expect("advisor builds");
        let m = run_forward(
            Framework::GnnAdvisor,
            ModelKind::Gcn,
            &ds,
            cfg,
            Some(&advisor),
        )
        .expect("runs");
        raw.push(m.total_ms());
    }
    let base = raw[0].max(1e-12);
    Series {
        dataset: spec.name.to_string(),
        x: xs.to_vec(),
        normalized_pct: raw.iter().map(|&v| v / base * 100.0).collect(),
        raw_ms: raw,
    }
}

/// Runs all three sweeps over the Type III datasets.
pub fn run(cfg: &ExperimentConfig) -> Fig11Result {
    let base = RuntimeParams {
        renumber: false,
        ..RuntimeParams::default()
    };
    let mut group_size = Vec::new();
    let mut threads_per_block = Vec::new();
    let mut dim_workers = Vec::new();
    for spec in TYPE_III {
        group_size.push(sweep(cfg, spec, GS_SWEEP, |gs| RuntimeParams {
            group_size: gs,
            ..base
        }));
        threads_per_block.push(sweep(cfg, spec, TPB_SWEEP, |tpb| RuntimeParams {
            threads_per_block: tpb as u32,
            // dw must divide tpb; 16 divides every swept tpb except 32.
            dim_workers: if tpb >= 64 { 16 } else { 8 },
            ..base
        }));
        dim_workers.push(sweep(cfg, spec, DW_SWEEP, |dw| RuntimeParams {
            dim_workers: dw as u32,
            ..base
        }));
    }
    Fig11Result {
        scale: cfg.scale,
        group_size,
        threads_per_block,
        dim_workers,
    }
}

fn print_panel(title: &str, xs_label: &str, series: &[Series]) {
    println!("{title}");
    let mut header: Vec<String> = vec![xs_label.to_string()];
    header.extend(series.iter().map(|s| s.dataset.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    if let Some(first) = series.first() {
        for (i, &x) in first.x.iter().enumerate() {
            let mut row = vec![x.to_string()];
            row.extend(
                series
                    .iter()
                    .map(|s| format!("{:.1}%", s.normalized_pct[i])),
            );
            t.row(&row);
        }
    }
    t.print();
    println!();
}

/// Prints all three panels.
pub fn print(result: &Fig11Result) {
    println!(
        "Figure 11: group-based workload impact on GCN, Type III (scale {}).\n\
         Runtime normalized to the first setting (100%).\n",
        result.scale
    );
    print_panel("(a) Group size:", "gs", &result.group_size);
    print_panel("(b) Thread-per-block:", "tpb", &result.threads_per_block);
    print_panel("(c) Dimension worker:", "dw", &result.dim_workers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_datasets::table1_by_name;

    #[test]
    fn dimension_worker_sweep_is_u_shaped() {
        let cfg = ExperimentConfig::at_scale(0.02);
        let artist = table1_by_name("artist").expect("present");
        let base = RuntimeParams {
            renumber: false,
            ..RuntimeParams::default()
        };
        let s = sweep(&cfg, &artist, DW_SWEEP, |dw| RuntimeParams {
            dim_workers: dw as u32,
            ..base
        });
        let first = s.normalized_pct[0];
        let min = s
            .normalized_pct
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min < first,
            "some dw > 1 must beat dw = 1: {:?}",
            s.normalized_pct
        );
    }

    #[test]
    fn group_size_has_interior_optimum() {
        let cfg = ExperimentConfig::at_scale(0.02);
        let artist = table1_by_name("artist").expect("present");
        let base = RuntimeParams {
            renumber: false,
            ..RuntimeParams::default()
        };
        let s = sweep(&cfg, &artist, &[1, 4, 16, 256], |gs| RuntimeParams {
            group_size: gs,
            ..base
        });
        let best_idx = s
            .normalized_pct
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert!(
            best_idx > 0 && best_idx < s.x.len() - 1,
            "optimum should be interior: {:?} over {:?}",
            s.normalized_pct,
            s.x
        );
    }
}
