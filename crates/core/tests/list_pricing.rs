//! Differential test: pricing a list of ops in one call equals pricing
//! each op alone.
//!
//! `Engine::price_list` simulates every kernel of a list in one host pool
//! job, each into its own context, and leaves the fault verdicts to
//! `StreamSim::draw`. The list mixes GNNAdvisor and DGL SpMM launches of
//! one shard and of sixteen, stacking kernels, GEMMs and transfers. The
//! tests check, every field and floats by their bits:
//!
//! - clean list pricing equals a per-op `Engine::submit` on a fault-free
//!   engine;
//! - under a fault plan with slowdowns, failures and a device reset,
//!   drawing verdicts for the clean prices (the serving runner's retries,
//!   which stop at the first fault, and the mini-batch loop's full lists)
//!   equals `StreamSim::price` called op by op on a twin engine;
//! - both hold at 1, 2 and 4 sim threads, and from four threads at once,
//!   where the busy host pool runs some lists on the caller alone.

use std::sync::{Arc, Barrier};

use gnnadvisor_core::kernels::advisor::AdvisorKernel;
use gnnadvisor_core::kernels::spmm_dgl::{SpmmKernel, StackingKernel};
use gnnadvisor_core::memory::{organize_shared, SharedLayout};
use gnnadvisor_core::workload::partition_groups;
use gnnadvisor_core::{NeighborGroup, RuntimeParams};
use gnnadvisor_gpu::{
    Engine, Enqueued, FaultConfig, FaultKind, FaultPlan, GpuSpec, Kernel, KernelMetrics, OpClass,
    RunContext, StreamReport, StreamSim, Workload, WorkloadMetrics,
};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::Csr;

fn graph(num_nodes: usize, num_edges: usize, seed: u64) -> Csr {
    community_graph(
        &CommunityParams {
            num_nodes,
            num_edges,
            mean_community: 40,
            community_size_cv: 0.6,
            inter_fraction: 0.1,
            shuffle_ids: true,
        },
        seed,
    )
    .expect("valid generator params")
    .0
}

/// One graph with its GNNAdvisor neighbour groups and shared layout.
struct Prepared {
    graph: Csr,
    groups: Vec<NeighborGroup>,
    layout: SharedLayout,
    params: RuntimeParams,
}

impl Prepared {
    fn new(graph: Csr, group_size: usize, threads_per_block: u32, dim_workers: u32) -> Self {
        let params = RuntimeParams {
            group_size,
            threads_per_block,
            dim_workers,
            ..Default::default()
        };
        let groups = partition_groups(&graph, group_size).expect("valid group size");
        let layout = organize_shared(&groups, params.groups_per_block());
        Self {
            graph,
            groups,
            layout,
            params,
        }
    }

    fn advisor(&self, dim: usize) -> AdvisorKernel<'_> {
        AdvisorKernel::new(
            &self.graph,
            &self.groups,
            Some(&self.layout),
            dim,
            self.params,
        )
    }
}

/// A small graph (one-shard launches) and a big one (sixteen shards).
struct Graphs {
    small: Prepared,
    big: Prepared,
}

fn graphs() -> Graphs {
    Graphs {
        small: Prepared::new(graph(240, 2_400, 5), 32, 1024, 32),
        big: Prepared::new(graph(6_000, 60_000, 9), 4, 64, 16),
    }
}

/// The list's kernels, in the order [`list`] issues them.
fn kernels(g: &Graphs) -> Vec<Box<dyn Kernel + '_>> {
    vec![
        Box::new(SpmmKernel::new(&g.small.graph, 16)),
        Box::new(StackingKernel::new(1_200, 16)),
        Box::new(g.big.advisor(16)),
        Box::new(SpmmKernel::new(&g.big.graph, 32)),
        Box::new(g.small.advisor(32)),
        Box::new(StackingKernel::new(6_000, 64)),
    ]
}

/// Kernels, GEMMs and transfers interleaved.
fn list<'k>(kernels: &'k [Box<dyn Kernel + 'k>]) -> Vec<Workload<'k>> {
    let k = |i: usize| Workload::Kernel(&*kernels[i]);
    vec![
        Workload::Transfer { bytes: 2 << 20 },
        k(0),
        k(1),
        Workload::Gemm {
            m: 1_200,
            n: 16,
            k: 96,
        },
        k(2),
        k(3),
        k(4),
        Workload::Transfer { bytes: 512 << 10 },
        k(5),
        Workload::Gemm {
            m: 96,
            n: 16,
            k: 1_200,
        },
    ]
}

fn kernel_bits(m: &KernelMetrics) -> Vec<u64> {
    vec![
        m.elapsed_cycles,
        m.time_ms.to_bits(),
        m.dram_read_bytes,
        m.dram_write_bytes,
        m.l2_hits,
        m.l2_misses,
        m.atomic_ops,
        m.atomic_serialization_cycles,
        m.shared_bytes,
        m.useful_cycles,
        m.num_blocks,
        m.sm_efficiency.to_bits(),
        m.achieved_occupancy.to_bits(),
        m.limiter as u64,
        m.phases.compute_cycles,
        m.phases.dram_cycles,
        m.phases.atomic_cycles,
        m.phases.launch_cycles,
    ]
}

/// A workload's name and every other number of its metrics, floats by
/// their bits.
type Bits = (String, Vec<u64>);

fn bits(m: &WorkloadMetrics) -> Bits {
    match m {
        WorkloadMetrics::Kernel(k) => (k.name.clone(), kernel_bits(k)),
        WorkloadMetrics::Transfer(t) => ("transfer".into(), vec![t.bytes, t.time_ms.to_bits()]),
    }
}

fn enqueued_bits(e: &Enqueued) -> (usize, usize, Bits, Option<FaultKind>) {
    (
        e.handle.stream.index(),
        e.handle.index,
        bits(&e.metrics),
        e.fault,
    )
}

fn report_bits(r: &StreamReport) -> Vec<u64> {
    let mut out = vec![
        r.makespan_cycles,
        r.makespan_ms.to_bits(),
        r.kernel_busy_cycles,
        r.copy_busy_cycles,
        u64::from(r.max_coresident_kernels_per_sm),
        r.peak_resident_warps,
    ];
    for s in &r.spans {
        out.extend([
            s.stream.index() as u64,
            s.index as u64,
            match s.class {
                OpClass::Kernel => 0,
                OpClass::Copy => 1,
                OpClass::Event => 2,
            },
            s.start_cycles,
            s.end_cycles,
            s.occupancy.to_bits(),
            s.fault.map_or(0, |k| 1 + k as u64),
        ]);
    }
    out
}

fn engine(threads: usize, faults: Option<&FaultConfig>) -> Engine {
    let builder = Engine::builder(GpuSpec::quadro_p6000()).sim_threads(threads);
    let builder = match faults {
        Some(config) => builder.fault_plan(Arc::new(
            FaultPlan::new(config.clone()).expect("valid plan"),
        )),
        None => builder,
    };
    builder.build().expect("valid engine")
}

/// Slowdowns, failures of both kinds, and a device reset a few lists in.
fn faults(reset_ms: f64) -> FaultConfig {
    FaultConfig {
        transfer_fail_prob: 0.2,
        kernel_slow_prob: 0.35,
        kernel_slow_factor: 2.5,
        kernel_timeout_prob: 0.12,
        device_reset_ms: Some(reset_ms),
        seed: 23,
    }
}

/// Clean list pricing against a per-op `submit`, twice through the same
/// recycled contexts (the second time in reverse order).
fn clean_check(threads: usize, list: &[Workload<'_>]) -> Vec<Bits> {
    let e = engine(threads, None);
    let mut ctxs = Vec::new();
    let clean = e.price_list(&mut ctxs, list).expect("valid list");
    let alone: Vec<Bits> = list
        .iter()
        .map(|&w| bits(&e.submit(&mut RunContext::new(), w).expect("fault-free")))
        .collect();
    let listed: Vec<Bits> = clean.iter().map(|c| bits(c.metrics())).collect();
    assert_eq!(listed, alone, "list pricing differs from per-op submit");
    let reversed: Vec<Workload<'_>> = list.iter().rev().copied().collect();
    let again = e.price_list(&mut ctxs, &reversed).expect("valid list");
    let again: Vec<Bits> = again.iter().rev().map(|c| bits(c.metrics())).collect();
    assert_eq!(again, alone, "recycled contexts changed a price");
    listed
}

/// What a faulted run committed: every enqueued op with its index in the
/// list, and the schedule.
type Drawn = (
    Vec<(usize, (usize, usize, Bits, Option<FaultKind>))>,
    Vec<u64>,
);

/// Prices `list` once and draws verdicts for it over `rounds` attempts
/// (each stops at its first fault, as the serving runner does), then
/// draws one full list through `StreamSim::price_list` (the mini-batch
/// loop). The twin engine does the same by pricing op by op.
fn faulted_check(threads: usize, list: &[Workload<'_>], config: &FaultConfig) -> Drawn {
    const ROUNDS: usize = 6;
    let run = |listed: bool| -> Drawn {
        let e = engine(threads, Some(config));
        let mut sim = StreamSim::new(&e);
        let (s0, s1) = (sim.stream(), sim.stream());
        let mut ctxs = Vec::new();
        let clean = if listed {
            e.price_list(&mut ctxs, list).expect("valid list")
        } else {
            Vec::new()
        };
        let mut out = Vec::new();
        for round in 0..ROUNDS {
            let release = round as u64 * 50_000;
            for (i, &w) in list.iter().enumerate() {
                let enq = if listed {
                    let op = sim.draw(&clean[i]);
                    sim.enqueue_priced(s0, op, release)
                } else {
                    sim.try_enqueue_at(s0, w, release)
                }
                .expect("valid op");
                let fault = enq.fault;
                out.push((i, enqueued_bits(&enq)));
                if fault.is_some() {
                    break;
                }
            }
        }
        let ops = if listed {
            sim.price_list(list).expect("valid list")
        } else {
            list.iter()
                .map(|&w| sim.price(w).expect("valid op"))
                .collect()
        };
        for (i, op) in ops.into_iter().enumerate() {
            out.push((
                i,
                enqueued_bits(&sim.enqueue_priced(s1, op, 0).expect("valid op")),
            ));
        }
        (out, report_bits(&sim.run().expect("schedule runs")))
    };
    let listed = run(true);
    assert_eq!(
        listed,
        run(false),
        "drawn clean prices differ from per-op pricing on a twin engine"
    );
    listed
}

/// The reset instant: a third of the way into the fourth list's time.
fn reset_ms(clean: &[Bits]) -> f64 {
    let list_ms: f64 = clean.iter().map(|(_, b)| f64::from_bits(b[1])).sum();
    list_ms * 3.3
}

#[test]
fn the_list_has_one_and_sixteen_shard_launches_of_both_spmms() {
    let g = graphs();
    let ks = kernels(&g);
    let blocks: Vec<usize> = ks.iter().map(|k| k.grid().num_blocks).collect();
    // Below 64 blocks a launch is one shard; from 512 on it is sixteen.
    assert!(blocks[0] < 64, "small DGL SpMM: {} blocks", blocks[0]);
    assert!(blocks[4] < 64, "small advisor: {} blocks", blocks[4]);
    assert!(blocks[2] >= 512, "big advisor: {} blocks", blocks[2]);
    assert!(blocks[3] >= 512, "big DGL SpMM: {} blocks", blocks[3]);
}

#[test]
fn list_pricing_equals_per_op_pricing_at_every_worker_count() {
    let g = graphs();
    let ks = kernels(&g);
    let list = list(&ks);
    let clean = clean_check(1, &list);
    let config = faults(reset_ms(&clean));
    let drawn = faulted_check(1, &list, &config);

    // The plan did hit the list: slowdowns, both failure kinds, a reset.
    let stretched = drawn
        .0
        .iter()
        .any(|(i, (_, _, got, fault))| fault.is_none() && got.1[0] != clean[*i].1[0]);
    let kinds: Vec<FaultKind> = drawn.0.iter().filter_map(|(_, d)| d.3).collect();
    assert!(stretched, "no op drew a slowdown");
    for kind in [
        FaultKind::TransferFailure,
        FaultKind::KernelTimeout,
        FaultKind::DeviceReset,
    ] {
        assert!(kinds.contains(&kind), "no op drew {kind}: {kinds:?}");
    }

    for threads in [2, 4] {
        assert_eq!(clean_check(threads, &list), clean, "sim threads {threads}");
        assert_eq!(
            faulted_check(threads, &list, &config),
            drawn,
            "sim threads {threads}"
        );
    }
}

#[test]
fn lists_priced_from_four_threads_at_once_match_the_serial_lists() {
    let g = graphs();
    let ks = kernels(&g);
    let list = list(&ks);
    let clean = clean_check(1, &list);
    let config = faults(reset_ms(&clean));
    let drawn = faulted_check(1, &list, &config);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (list, config, start) = (&list, &config, &start);
                s.spawn(move || {
                    start.wait();
                    let threads = [2, 4][t % 2];
                    (
                        clean_check(threads, list),
                        faulted_check(threads, list, config),
                    )
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let (c, d) = h.join().expect("pricing thread");
            assert_eq!(c, clean, "thread {t}: clean prices");
            assert_eq!(d, drawn, "thread {t}: drawn ops");
        }
    });
}
