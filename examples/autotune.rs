//! The Modeling & Estimating loop (Section 7): analytical parameter
//! decisions, the evolutionary search, and profile-guided tuning against
//! the simulated GPU.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use gnnadvisor_repro::core::input::{extract, AggOrder};
use gnnadvisor_repro::core::tuning::estimator::{Estimator, EstimatorConfig};
use gnnadvisor_repro::core::tuning::{aggregation_metrics, model};
use gnnadvisor_repro::core::RuntimeParams;
use gnnadvisor_repro::gpu::{Engine, GpuSpec};
use gnnadvisor_repro::graph::generators::{community_graph, CommunityParams};

fn main() {
    let params = CommunityParams {
        num_nodes: 15_000,
        num_edges: 450_000,
        mean_community: 90,
        community_size_cv: 0.4,
        inter_fraction: 0.1,
        shuffle_ids: true,
    };
    let (graph, _) = community_graph(&params, 99).expect("generator parameters are valid");
    let spec = GpuSpec::quadro_p6000();
    let engine = Engine::new(spec.clone());
    let input = extract(&graph, 96, 16, 10, AggOrder::UpdateThenAggregate);
    println!(
        "input: N={}, E={}, avg deg {:.1}, deg stddev {:.1}, alpha {:.3}",
        input.num_nodes,
        input.num_edges,
        input.avg_degree,
        input.degree_stddev,
        input.alpha()
    );

    // Profile-guided fitness: actually launch the kernel on the simulator,
    // in the launch shape the runtime would use.
    let simulate = |p: &RuntimeParams| -> f64 {
        aggregation_metrics(&graph, 16, p, &engine).map_or(f64::INFINITY, |m| m.time_ms)
    };

    // 1. Analytical Modeling (Eq. 2-4) over a coarse grid.
    let analytical = model::decide(&input, &spec);
    println!(
        "\nanalytical decision: gs={}, tpb={}, dw={} -> {:.4} ms simulated",
        analytical.group_size,
        analytical.threads_per_block,
        analytical.dim_workers,
        simulate(&analytical)
    );

    // 2. Evolutionary Estimating with the analytical fitness (fast).
    let est = Estimator::new(input.clone(), spec.clone(), EstimatorConfig::default());
    let evolved = est.tune();
    println!(
        "estimating (model fitness): gs={}, tpb={}, dw={} -> {:.4} ms simulated",
        evolved.group_size,
        evolved.threads_per_block,
        evolved.dim_workers,
        simulate(&evolved)
    );

    // 3. Profile-guided Estimating: fitness = the simulated kernel itself
    //    (the full optimization loop of Figure 1).
    let profiled = est.tune_with(|p| simulate(p));
    println!(
        "estimating (profile-guided): gs={}, tpb={}, dw={} -> {:.4} ms simulated",
        profiled.group_size,
        profiled.threads_per_block,
        profiled.dim_workers,
        simulate(&profiled)
    );

    // Show the latency landscape along group size for context (Fig. 11a).
    println!("\ngroup-size landscape (tpb=256, dw=16):");
    for gs in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let p = RuntimeParams {
            group_size: gs,
            ..RuntimeParams::default()
        };
        println!("  gs={gs:<4} -> {:.4} ms", simulate(&p));
    }
}
