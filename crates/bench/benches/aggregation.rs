//! Criterion benchmarks of the aggregation strategies.
//!
//! These measure the *simulator's* wall-clock cost of evaluating each
//! strategy on a fixed mid-size graph — a regression harness for the
//! runtime system itself. The simulated GPU milliseconds (the paper's
//! numbers) come from the `src/bin` experiment binaries instead.
//!
//! `Advisor::aggregate` keeps each width's price after its first call, so
//! timing it would time a lookup. The GNNAdvisor row therefore submits the
//! advisor's kernel, in the shape `Advisor::resolved_launch` gives it,
//! through `Engine::submit` like every baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::input::AggOrder;
use gnnadvisor_core::kernels::advisor::AdvisorKernel;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
use gnnadvisor_gpu::{Engine, GpuSpec, Workload};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::Csr;

fn graph() -> Csr {
    let params = CommunityParams {
        num_nodes: 2_000,
        num_edges: 40_000,
        mean_community: 64,
        community_size_cv: 0.3,
        inter_fraction: 0.1,
        shuffle_ids: true,
    };
    community_graph(&params, 2024).expect("valid").0
}

fn bench_strategies(c: &mut Criterion) {
    let g = graph();
    let engine = Engine::new(GpuSpec::quadro_p6000());
    let advisor = Advisor::new(
        &g,
        96,
        16,
        10,
        AggOrder::UpdateThenAggregate,
        AdvisorConfig::default(),
    )
    .expect("builds");
    let dim = 16;

    let mut group = c.benchmark_group("aggregation_strategies");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let resolved = advisor.resolved_launch(dim);
    let kernel = AdvisorKernel::new(
        advisor.graph(),
        advisor.groups(),
        resolved.layout.as_ref(),
        dim,
        resolved.params,
    );
    group.bench_function("gnnadvisor", |b| {
        b.iter(|| {
            engine
                .submit(&mut engine.lock_context(), Workload::Kernel(&kernel))
                .expect("runs")
        })
    });
    for fw in [
        Framework::Dgl,
        Framework::Pyg,
        Framework::Gunrock,
        Framework::NodeCentric,
        Framework::EdgeCentric,
    ] {
        group.bench_function(fw.name(), |b| {
            b.iter(|| aggregate_with(fw, &engine, &g, dim, None).expect("runs"))
        });
    }
    group.finish();
}

fn bench_runtime_construction(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("runtime_construction");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("advisor_new_with_renumbering", |b| {
        b.iter(|| {
            Advisor::new(
                &g,
                96,
                16,
                10,
                AggOrder::UpdateThenAggregate,
                AdvisorConfig::default(),
            )
            .expect("builds")
        })
    });
    group.bench_function("advisor_new_no_renumbering", |b| {
        b.iter(|| {
            let cfg = AdvisorConfig {
                renumber: Some(false),
                ..Default::default()
            };
            Advisor::new(&g, 96, 16, 10, AggOrder::UpdateThenAggregate, cfg).expect("builds")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_runtime_construction);
criterion_main!(benches);
