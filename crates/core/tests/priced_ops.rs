//! Differential test: pricing an op and placing it are separate steps.
//!
//! An op reaches a schedule as `Engine::price`, then `StreamSim::draw`
//! (its fault verdict), then `StreamSim::enqueue_priced`. These tests
//! build a mixed kernel/GEMM/transfer list with release times over three
//! streams and check that pricing every op up front and then placing it —
//! in the same simulator, or as a clone in another one — commits a
//! schedule bitwise equal to placing each op as soon as it is priced,
//! with and without a fault plan on the engine. A last test checks that
//! a kernel alone on a single stream reports what a standalone
//! `Engine::submit` does.

use std::sync::Arc;

use gnnadvisor_core::kernels::node_centric::NodeCentricKernel;
use gnnadvisor_core::kernels::spmm_dgl::{SpmmKernel, StackingKernel};
use gnnadvisor_gpu::engine::GEMM_BLOCK_RESOURCES;
use gnnadvisor_gpu::{
    Engine, Enqueued, FaultConfig, FaultPlan, GpuError, GpuSpec, Kernel, OpClass, PricedOp,
    StreamReport, StreamSim, Workload,
};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::Csr;

fn graph() -> Csr {
    community_graph(
        &CommunityParams {
            num_nodes: 1_200,
            num_edges: 14_000,
            mean_community: 50,
            community_size_cv: 0.6,
            inter_fraction: 0.1,
            shuffle_ids: true,
        },
        3,
    )
    .expect("valid generator params")
    .0
}

fn engine(faults: bool) -> Engine {
    let builder = Engine::builder(GpuSpec::quadro_p6000()).sim_threads(2);
    let builder = if faults {
        let mut config = FaultConfig::uniform(0.3, 17);
        config.device_reset_ms = Some(0.05);
        builder.fault_plan(Arc::new(FaultPlan::new(config).expect("valid plan")))
    } else {
        builder
    };
    builder.build().expect("engine builds")
}

/// `(stream, workload, release cycles)`: kernels, GEMMs and transfers
/// interleaved over three streams, some held back by release times.
fn ops<'k>(
    spmm: &'k SpmmKernel<'k>,
    node: &'k NodeCentricKernel<'k>,
    stack: &'k StackingKernel,
) -> Vec<(usize, Workload<'k>, u64)> {
    vec![
        (0, Workload::Transfer { bytes: 2 << 20 }, 0),
        (0, Workload::Kernel(spmm), 0),
        (
            1,
            Workload::Gemm {
                m: 1_200,
                n: 16,
                k: 96,
            },
            0,
        ),
        (1, Workload::Kernel(stack), 20_000),
        (2, Workload::Transfer { bytes: 512 << 10 }, 5_000),
        (2, Workload::Kernel(node), 0),
        (0, Workload::Kernel(node), 80_000),
        (
            1,
            Workload::Gemm {
                m: 96,
                n: 16,
                k: 1_200,
            },
            0,
        ),
        (2, Workload::Kernel(spmm), 0),
        (0, Workload::Transfer { bytes: 1 << 20 }, 150_000),
    ]
}

/// Every number of a report as bits, so float fields compare bitwise.
fn bits(r: &StreamReport) -> Vec<u64> {
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
            },
            s.start_cycles,
            s.end_cycles,
            s.occupancy.to_bits(),
        ]);
    }
    out
}

/// Prices `workload` on `e` and draws its verdict in `sim`.
fn price(e: &Engine, sim: &StreamSim<'_>, workload: Workload<'_>) -> PricedOp {
    sim.draw(&e.price(&mut e.lock_context(), workload).expect("prices"))
}

/// How the list reaches the schedule.
#[derive(Clone, Copy)]
enum Arm {
    /// Each op placed as soon as it is priced.
    Direct,
    /// Price every op, then place each in the same simulator.
    PricedFirst,
    /// Price every op in one simulator, place clones in another.
    Cloned,
}

fn schedule(arm: Arm, faults: bool) -> (Vec<Enqueued>, StreamReport) {
    let g = graph();
    let (spmm, node, stack) = (
        SpmmKernel::new(&g, 16),
        NodeCentricKernel::new(&g, 16, 256),
        StackingKernel::new(g.num_nodes(), 16),
    );
    let list = ops(&spmm, &node, &stack);
    let e = engine(faults);
    let mut sim = StreamSim::new(&e);
    let streams = [sim.stream(), sim.stream(), sim.stream()];
    let enqueued: Vec<Enqueued> = match arm {
        Arm::Direct => list
            .into_iter()
            .map(|(s, w, at)| sim.enqueue_priced(streams[s], price(&e, &sim, w), at))
            .collect::<Result<_, _>>()
            .expect("enqueues"),
        Arm::PricedFirst | Arm::Cloned => {
            let pricer = StreamSim::new(&e);
            let drawer = match arm {
                Arm::Cloned => &pricer,
                _ => &sim,
            };
            let priced: Vec<(usize, PricedOp, u64)> = list
                .into_iter()
                .map(|(s, w, at)| (s, price(&e, drawer, w), at))
                .collect();
            priced
                .into_iter()
                .map(|(s, op, at)| {
                    let op = match arm {
                        Arm::Cloned => op.clone(),
                        _ => op,
                    };
                    sim.enqueue_priced(streams[s], op, at)
                })
                .collect::<Result<_, _>>()
                .expect("enqueues")
        }
    };
    (enqueued, sim.run().expect("schedule runs"))
}

fn assert_arms_agree(faults: bool) {
    let (want_ops, want) = schedule(Arm::Direct, faults);
    for arm in [Arm::PricedFirst, Arm::Cloned] {
        let (ops, report) = schedule(arm, faults);
        assert_eq!(ops, want_ops, "enqueue results differ");
        assert_eq!(bits(&report), bits(&want), "schedules differ");
        assert_eq!(report, want);
    }
    let faulted = want_ops.iter().filter(|e| e.fault.is_some()).count();
    if faults {
        assert!(faulted > 0, "the fault plan must hit the list");
    } else {
        assert_eq!(faulted, 0);
    }
}

#[test]
fn priced_ops_schedule_like_direct_enqueues() {
    assert_arms_agree(false);
}

#[test]
fn priced_ops_carry_their_fault_verdicts() {
    assert_arms_agree(true);
}

#[test]
fn placing_on_a_foreign_stream_is_a_typed_error() {
    let g = graph();
    let spmm = SpmmKernel::new(&g, 16);
    let e = engine(false);
    let mut sim = StreamSim::new(&e);
    let s = sim.stream();
    let mut other = StreamSim::new(&e);
    let op = price(&e, &other, Workload::Kernel(&spmm));
    assert!(matches!(
        other.enqueue_priced(s, op.clone(), 0),
        Err(GpuError::UnknownStream { id: 0 })
    ));
    assert!(sim.enqueue_priced(s, op, 0).is_ok());
}

#[test]
fn a_lone_kernel_on_one_stream_is_a_standalone_submit() {
    // The other half of the stream model's contract: a price placed on a
    // stream reports what `Engine::submit` does. Alone on a single stream, a kernel
    // reports the standalone metrics in every field and spans the
    // standalone time. The scheduler runs a launch as `waves` rounds of
    // equal blocks, each `ceil(body / waves)` cycles, so a multi-wave
    // launch spans its standalone time rounded up to whole rounds: up to
    // `waves - 1` cycles more. A single-wave launch spans it exactly.
    let g = graph();
    let (spmm, node, stack) = (
        SpmmKernel::new(&g, 16),
        NodeCentricKernel::new(&g, 16, 256),
        StackingKernel::new(g.num_nodes(), 16),
    );
    let gemm = |m, n, k| (Workload::Gemm { m, n, k }, GEMM_BLOCK_RESOURCES);
    let list = [
        (Workload::Kernel(&spmm), spmm.block_resources()),
        (Workload::Kernel(&node), node.block_resources()),
        (Workload::Kernel(&stack), stack.block_resources()),
        gemm(1_200, 16, 96),
        gemm(96, 16, 1_200),
        gemm(100_000, 64, 96),
    ];
    let e = engine(false);
    let spec = e.spec();
    let mut multi_wave = 0;
    for (workload, resources) in list {
        let standalone = e.submit(&mut e.lock_context(), workload).expect("submits");
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let enqueued = sim
            .enqueue_priced(s, price(&e, &sim, workload), 0)
            .expect("enqueues");
        let report = sim.run().expect("schedule runs");
        assert_eq!(enqueued.metrics, standalone);
        assert_eq!(format!("{:?}", enqueued.metrics), format!("{standalone:?}"));
        let k = standalone.as_kernel().expect("a kernel");
        let [span] = &report.spans[..] else {
            panic!("one op, one span: {:?}", report.spans);
        };
        let capacity = spec.occupancy_limit(&resources).get() as u64 * spec.num_sms as u64;
        let waves = k.num_blocks.max(1).div_ceil(capacity);
        let body = k.elapsed_cycles - spec.kernel_launch_cycles;
        let want = spec.kernel_launch_cycles + waves * body.div_ceil(waves);
        assert_eq!(span.end_cycles - span.start_cycles, want, "{}", k.name);
        assert!(want - k.elapsed_cycles < waves, "{}", k.name);
        if waves == 1 {
            assert_eq!(want, k.elapsed_cycles, "{}", k.name);
        } else {
            multi_wave += 1;
        }
    }
    assert!(multi_wave > 0, "the list covers a multi-wave launch");
}
