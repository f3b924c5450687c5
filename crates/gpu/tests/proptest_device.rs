//! Property-based tests on the device core's admission invariant and the
//! block-level stream dispatcher's determinism.
//!
//! The command processor must never overcommit an SM — register-file
//! bytes, shared-memory bytes, warp slots, and block slots all stay
//! within the spec at every instant — and retirement must return every
//! resource an admission pinned, leaving the device idle once the last
//! block retires.

use proptest::collection::vec;
use proptest::prelude::*;

use gnnadvisor_gpu::{
    BlockDemand, BlockResources, CommandProcessor, Engine, Enqueued, GpuSpec, Retirement,
    RetirementQueue, StreamId, StreamSim, Workload,
};

/// Prices `workload` on `e` and places it on `stream` of `sim`, released
/// at `at`.
fn place(
    e: &Engine,
    sim: &mut StreamSim<'_>,
    stream: StreamId,
    workload: Workload<'_>,
    at: u64,
) -> Enqueued {
    let clean = e.price(&mut e.lock_context(), workload).expect("prices");
    sim.enqueue_priced(stream, sim.draw(&clean), at)
        .expect("valid stream")
}

/// A randomly shaped launch: block resources plus a grid size.
#[derive(Debug, Clone)]
struct LaunchPlan {
    resources: BlockResources,
    blocks: u64,
    /// How long each admitted block stays resident.
    block_cycles: u64,
}

fn launch_plan() -> impl Strategy<Value = LaunchPlan> {
    const THREADS: [u32; 8] = [32, 64, 96, 128, 192, 256, 512, 1024];
    (
        16u32..=256,        // regs per thread
        0usize..=48 * 1024, // static shared memory
        0usize..THREADS.len(),
        1u64..=200, // grid blocks
        1u64..=50,  // residency cycles
    )
        .prop_map(|(regs, smem, threads, blocks, cycles)| LaunchPlan {
            resources: BlockResources {
                regs_per_thread: regs,
                smem_bytes: smem,
                threads: THREADS[threads],
            },
            blocks,
            block_cycles: cycles,
        })
}

/// Audits every SM of `cp` against the spec's per-SM limits.
fn assert_within_limits(cp: &CommandProcessor, spec: &GpuSpec) {
    for sm in 0..cp.num_sms() {
        let used = cp.usage(sm);
        assert!(used.regfile_bytes <= spec.regfile_bytes_per_sm as u64);
        assert!(used.smem_bytes <= spec.shared_mem_per_sm as u64);
        assert!(used.warp_slots <= spec.max_warps_per_sm());
        assert!(used.blocks <= spec.max_blocks_per_sm);
    }
}

proptest! {
    /// Drive random launches through admission and retirement on the
    /// simulated clock; at every instant the per-SM usage respects every
    /// limit, and once all blocks retire the device is idle again.
    #[test]
    fn admission_never_overcommits_and_retirement_returns_everything(
        plans in vec(launch_plan(), 1..8),
        p6000 in 0u8..2,
    ) {
        let spec = if p6000 == 0 { GpuSpec::quadro_p6000() } else { GpuSpec::tesla_v100() };
        // The scheduler rejects shapes that fit no SM before admission
        // ([`GpuSpec::occupancy_limit`] gates launches); mirror that here.
        let plans: Vec<_> = plans
            .into_iter()
            .filter(|p| spec.occupancy_limit(&p.resources).is_launchable())
            .collect();
        let mut cp = CommandProcessor::new(&spec);
        let mut rq = RetirementQueue::new();
        // Per launch: (demand, blocks still to admit).
        let mut pending: Vec<(BlockDemand, u64)> = plans
            .iter()
            .map(|p| (BlockDemand::of(&p.resources), p.blocks))
            .collect();
        let mut now = 0u64;
        loop {
            // Retire everything due, then audit.
            for Retirement { launch, sm, blocks, .. } in rq.pop_due(now) {
                cp.retire(sm, launch, &pending[launch].0, blocks);
            }
            assert_within_limits(&cp, &spec);
            // Admit as much as fits of every launch, in order.
            for (launch, plan) in plans.iter().enumerate() {
                let (demand, remaining) = pending[launch];
                if remaining == 0 {
                    continue;
                }
                let placed = cp.admit_up_to(launch, &demand, remaining);
                assert_within_limits(&cp, &spec);
                let total: u64 = placed.iter().map(|&(_, n)| n).sum();
                prop_assert!(total <= remaining);
                pending[launch].1 -= total;
                for (sm, blocks) in placed {
                    rq.push(Retirement {
                        at: now + plan.block_cycles,
                        launch,
                        sm,
                        blocks,
                    });
                }
            }
            match rq.next_at() {
                Some(at) => {
                    prop_assert!(at > now, "the clock must advance");
                    now = at;
                }
                None => break,
            }
        }
        prop_assert!(pending.iter().all(|&(_, n)| n == 0), "every block admitted");
        prop_assert!(cp.is_idle(), "retirement must return every resource");
    }

    /// The block-level dispatcher commits byte-identical schedules at any
    /// engine shard count: same spans, same occupancy, same makespan.
    #[test]
    fn dispatcher_schedule_is_identical_across_thread_counts(
        grids in vec((1usize..=80, 0u64..=5_000), 1..6),
        // 0 = no copy stream; otherwise that many bytes on a copy stream.
        copy_bytes in 0u64..=(64 << 20),
    ) {
        let copy_bytes = (copy_bytes > 0).then_some(copy_bytes);
        let run_at = |threads: usize| {
            let e = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(threads)
                .build()
                .expect("valid thread count");
            let mut sim = StreamSim::new(&e);
            for &(blocks, release) in &grids {
                let s = sim.stream();
                place(&e, &mut sim, s, Workload::Gemm { m: blocks * 64, n: 64, k: 256 }, release);
            }
            if let Some(bytes) = copy_bytes {
                let s = sim.stream();
                place(&e, &mut sim, s, Workload::Transfer { bytes }, 0);
            }
            sim.run().expect("no deadlock in straight-line work")
        };
        let baseline = run_at(1);
        for threads in [2, 4] {
            prop_assert_eq!(&run_at(threads), &baseline);
        }
    }
}
