//! Validates Section 6.1's claim that node renumbering is "lightweight in
//! its computation and memory cost".
//!
//! Measures the *host-side wall time* of the full renumbering pipeline
//! (Louvain + per-community RCM + permutation application) per dataset and
//! amortizes it against the simulated per-epoch saving it buys: how many
//! GCN forward passes pay back the preprocessing investment?

#![deny(unsafe_code)]

use std::time::Instant;

use gnnadvisor_bench::report::Table;
use gnnadvisor_bench::runner::{build_advisor_manual, run_forward, ExperimentConfig, ModelKind};
use gnnadvisor_core::{Framework, RuntimeParams};
use gnnadvisor_datasets::TYPE_III;
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};

fn main() {
    let cfg = ExperimentConfig::default();
    println!(
        "Renumbering preprocessing overhead (scale {}).\n\
         Paper claim (Section 6.1): the renumbering process is lightweight.\n",
        cfg.scale
    );

    let mut t = Table::new(&[
        "Dataset",
        "nodes",
        "edges",
        "renumber wall (ms)",
        "epoch w/o (sim ms)",
        "epoch w/ (sim ms)",
        "saving/epoch",
        "break-even epochs*",
    ]);
    for spec in TYPE_III {
        let ds = spec.generate(cfg.scale).expect("dataset generates");

        let start = Instant::now();
        let r = renumber(&ds.graph, &RenumberConfig::default()).expect("renumber runs");
        let _permuted = ds
            .graph
            .permute(&r.permutation)
            .expect("permutation is valid");
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

        let params_on = RuntimeParams::default();
        let params_off = RuntimeParams {
            renumber: false,
            ..params_on
        };
        let on = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, params_on).expect("builds");
        let off = build_advisor_manual(&ds, ModelKind::Gcn, &cfg.spec, params_off).expect("builds");
        let ms_on = run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, &cfg, Some(&on))
            .expect("runs")
            .total_ms();
        let ms_off = run_forward(Framework::GnnAdvisor, ModelKind::Gcn, &ds, &cfg, Some(&off))
            .expect("runs")
            .total_ms();
        let saving = (ms_off - ms_on).max(0.0);
        let break_even = if saving > 0.0 {
            format!("{:.0}", wall_ms / saving)
        } else {
            "-".into()
        };

        t.row(&[
            spec.name.to_string(),
            ds.graph.num_nodes().to_string(),
            ds.graph.num_edges().to_string(),
            format!("{wall_ms:.1}"),
            format!("{ms_off:.4}"),
            format!("{ms_on:.4}"),
            format!("{saving:.4}"),
            break_even,
        ]);
    }
    t.print();
    println!(
        "\n* break-even compares host preprocessing wall time against simulated\n\
          device milliseconds, so it is an upper bound: on real hardware one\n\
          epoch is orders of magnitude longer than a simulated-kernel tick,\n\
          and GNN training runs hundreds of epochs over a fixed graph."
    );
}
