//! Training-workload comparison (Section 8.1.4's claim that GNNAdvisor's
//! optimizations carry over to training).
//!
//! Runs real GCN training epochs (forward + backward + SGD) on a Type III
//! dataset under GNNAdvisor and DGL execution strategies, reporting the
//! simulated per-epoch time, the speedup, and the learning curve — the
//! numerics are identical by construction, only the cost differs.

#![deny(unsafe_code)]

use gnnadvisor_bench::report::Table;
use gnnadvisor_bench::runner::{build_advisor, ExperimentConfig, ModelKind};
use gnnadvisor_core::Framework;
use gnnadvisor_datasets::table1_by_name;
use gnnadvisor_gpu::Engine;
use gnnadvisor_models::{GcnTrainer, ModelExec};
use gnnadvisor_tensor::Matrix;

fn main() {
    let cfg = ExperimentConfig::default();
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "com-amazon".into());
    let spec = table1_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset {name}");
        std::process::exit(1);
    });
    let ds = spec.generate(cfg.scale).expect("dataset generates");
    println!(
        "GCN training on {} (scale {}): {} nodes, {} edges, {} classes\n",
        spec.name,
        cfg.scale,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.num_classes
    );

    // Learnable labels: noisy community indicator (from the renumbering
    // pipeline's own detection, so no ground truth leaks in).
    let detected = gnnadvisor_graph::community::louvain(
        &ds.graph,
        &gnnadvisor_graph::community::LouvainConfig::default(),
    );
    let labels: Vec<usize> = detected
        .community_of
        .iter()
        .map(|&c| c as usize % ds.num_classes)
        .collect();
    let dim = 32;
    let features = Matrix::from_fn(ds.graph.num_nodes(), dim, |v, d| {
        let hot = labels[v] % dim;
        let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
        if d == hot {
            1.0 + noise
        } else {
            noise
        }
    });

    let engine = Engine::new(cfg.spec.clone());
    let advisor = build_advisor(&ds, ModelKind::Gcn, &cfg.spec).expect("advisor builds");
    let epochs = 10;

    let mut t = Table::new(&["Strategy", "per-epoch (sim ms)", "final loss", "final acc"]);
    let mut advisor_ms = 0.0;
    for (fw, adv) in [
        (Framework::GnnAdvisor, Some(&advisor)),
        (Framework::Dgl, None),
    ] {
        let exec = ModelExec::new(&engine, &ds.graph, fw, adv);
        let mut trainer = GcnTrainer::new(&[dim, 16, ds.num_classes], 0.5, 3);
        let mut last = None;
        let mut epoch_ms = 0.0;
        for _ in 0..epochs {
            let step = trainer
                .step(&exec, &features, &labels)
                .expect("training step");
            epoch_ms = step.metrics.total_ms();
            last = Some(step);
        }
        let last = last.expect("epochs > 0");
        if fw == Framework::GnnAdvisor {
            advisor_ms = epoch_ms;
        }
        t.row(&[
            fw.name().to_string(),
            format!("{epoch_ms:.4}"),
            format!("{:.4}", last.loss),
            format!("{:.1}%", last.accuracy * 100.0),
        ]);
    }
    t.print();

    let exec = ModelExec::new(&engine, &ds.graph, Framework::Dgl, None);
    let mut trainer = GcnTrainer::new(&[dim, 16, ds.num_classes], 0.5, 3);
    println!("\nlearning curve (strategy-independent numerics):");
    for epoch in 0..epochs {
        let step = trainer
            .step(&exec, &features, &labels)
            .expect("training step");
        println!(
            "  epoch {epoch:>2}: loss {:.4}, accuracy {:>5.1}%",
            step.loss,
            step.accuracy * 100.0
        );
    }
    println!(
        "\nGNNAdvisor per-epoch: {advisor_ms:.4} sim ms — both forward and backward\n\
         aggregation run through the same group-based kernels (Section 8.1.4)."
    );
}
