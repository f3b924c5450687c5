//! Wall-clock benchmark of the sharded simulation engine (`BENCH_sim.json`).
//!
//! Runs a fixed synthetic kernel workload — many blocks with cross-block
//! cache locality, scattered reads, and atomic hotspots, i.e. the traffic
//! mix real GNN kernels emit — through the engine at 1, 2, 4, and 8
//! simulation workers, with every configuration checked for bit-identical
//! metrics, then times the engine's recycled [`RunContext`] arena against
//! a fresh context per launch.
//!
//! Timings land in `BENCH_sim.json` together with `host_cpus`, because the
//! thread-scaling rows only show parallel speedup when the host actually
//! has cores to scale onto. End-to-end host cost per workload is measured
//! by the repository benchmark (`benchmark/`), not here, and the simulated
//! scenarios (co-residency, cluster, dynamic, mini-batch, tuning) are
//! tests in `crates/bench/tests/scenarios.rs`.
//!
//! Usage: `cargo run --release -p gnnadvisor-bench --bin bench_sim`.

#![deny(unsafe_code)]

use std::time::Instant;

use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{
    ArrayId, BlockSink, Engine, GpuSpec, GridConfig, Kernel, KernelMetrics, RunContext, Workload,
    WorkloadMetrics,
};
use serde::{Deserialize, Serialize};

/// Fixed workload: 512 blocks of 8 warps each, mixing a sliding coalesced
/// window (cross-block temporal locality), per-lane scattered rows, and a
/// small pool of contended atomic counters.
struct SimWorkload {
    blocks: usize,
}

impl SimWorkload {
    /// The warp's scattered lane offset for one read round. The footprint (4 MB of 4-byte words) is deliberately much
    /// larger than the 3 MB L2, like a node-feature table: sets run at
    /// full occupancy, so replacement policy work is on the hot path.
    fn lane_offset(block_id: u64, warp: u64, round: u64, lane: u64) -> u64 {
        ((block_id * 131 + warp * 37 + round * 17 + lane * 97) % 1_048_576) * 4
    }
}

impl Kernel for SimWorkload {
    fn name(&self) -> &str {
        "bench_sim_workload"
    }

    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.blocks,
            threads_per_block: 8 * WARP_SIZE,
            shared_mem_bytes: 0,
        }
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        for w in 0..8u64 {
            sink.begin_warp();
            sink.compute(120, WARP_SIZE);
            // 16 KB window sliding 2 KB per block: 7/8 of each block's
            // lines were touched by its predecessor.
            sink.global_read(ArrayId(1), block_id as u64 * 2048 + w * 1024, 16384);
            let mut offsets = [0u64; WARP_SIZE as usize];
            for round in 0..8u64 {
                for (lane, slot) in offsets.iter_mut().enumerate() {
                    *slot = Self::lane_offset(block_id as u64, w, round, lane as u64);
                }
                sink.global_read_scattered(ArrayId(2), &offsets, 4);
            }
            sink.atomic_rmw(ArrayId(3), ((block_id as u64 + w) % 13) * 4, 4, 64);
            sink.sync();
        }
    }
}

/// One worker-count measurement of the current engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ThreadRow {
    /// Simulation worker threads.
    threads: usize,
    /// Best-of-runs wall-clock for the whole workload, milliseconds.
    wall_ms: f64,
    /// Speedup over the current engine's own 1-worker run (thread scaling;
    /// only exceeds ~1.0 when `host_cpus` > 1).
    speedup_vs_serial: f64,
}

/// The hot-loop before/after: the same engine, same worker count, with
/// the recycled [`RunContext`] arena versus a fresh context per launch
/// (what every launch paid before spans, traces, and hot-block buffers
/// moved into the context).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotLoopBench {
    /// One reused context across all launches (the engine's own path).
    reused_context_wall_ms: f64,
    /// A fresh `RunContext` allocated per launch.
    fresh_context_wall_ms: f64,
    /// fresh / reused — what arena reuse buys on this workload.
    arena_speedup: f64,
}

/// Everything `BENCH_sim.json` records.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchSim {
    /// Workload shape, for reproducibility.
    workload: String,
    /// Kernel launches per timed run.
    launches_per_run: usize,
    /// Timed runs per configuration (best is reported).
    runs: usize,
    /// CPUs visible to this process; thread-scaling rows are bounded by it.
    host_cpus: usize,
    /// Worker counts not timed because the host has too few CPUs to let
    /// them win (counts above `host_cpus`, except the serial row).
    skipped_worker_counts: Vec<usize>,
    /// Current engine, 1 worker, milliseconds.
    serial_wall_ms: f64,
    /// Current engine at each measured worker count.
    threaded: Vec<ThreadRow>,
    /// Whether every worker count produced bit-identical metrics.
    deterministic: bool,
    /// Arena-reuse before/after at 1 worker, on small tuner-shaped
    /// launches (8 blocks, 400 launches per run) where per-launch context
    /// setup is a real fraction of the work.
    hot_loop: HotLoopBench,
    /// How to read the numbers on this host.
    note: String,
}

const LAUNCHES_PER_RUN: usize = 24;
const RUNS: usize = 5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One launch of `kernel` on the engine's own recycled context.
fn launch(engine: &Engine, kernel: &SimWorkload) -> KernelMetrics {
    engine
        .submit(&mut engine.lock_context(), Workload::Kernel(kernel))
        .map(WorkloadMetrics::into_kernel)
        .expect("workload runs")
}

/// Like [`launch`] but against a caller-provided context, so the fresh-
/// context baseline can pay the per-launch allocation the arena avoids.
fn launch_with(engine: &Engine, ctx: &mut RunContext, kernel: &SimWorkload) -> KernelMetrics {
    engine
        .submit(ctx, Workload::Kernel(kernel))
        .map(WorkloadMetrics::into_kernel)
        .expect("workload runs")
}

/// Arena before/after at 1 worker: identical launches, one reusing the
/// engine's context and one building a fresh `RunContext` each time.
/// Measured on a *small* launch (8 blocks against the full-size L2 model),
/// the shape tuner sweeps hammer: per-launch context setup — allocating
/// and wiping the cache arrays — is a real fraction of such launches, and
/// the recycled arena turns it into an O(1) epoch bump.
fn bench_hot_loop(engine: &Engine) -> HotLoopBench {
    let kernel = SimWorkload { blocks: 8 };
    const SMALL_LAUNCHES: usize = 400;
    let expect = launch(engine, &kernel);
    let mut reused = f64::INFINITY;
    let mut fresh = f64::INFINITY;
    for _ in 0..RUNS {
        let start = Instant::now();
        for _ in 0..SMALL_LAUNCHES {
            let m = launch(engine, &kernel);
            assert_eq!(m, expect, "reused-context launches must be identical");
        }
        reused = reused.min(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        for _ in 0..SMALL_LAUNCHES {
            let mut ctx = RunContext::new();
            let m = launch_with(engine, &mut ctx, &kernel);
            assert_eq!(m, expect, "context reuse must be transparent");
        }
        fresh = fresh.min(start.elapsed().as_secs_f64() * 1e3);
    }
    HotLoopBench {
        reused_context_wall_ms: reused,
        fresh_context_wall_ms: fresh,
        arena_speedup: fresh / reused.max(1e-9),
    }
}

/// Times one full workload (`LAUNCHES_PER_RUN` launches) on an engine,
/// checking run-to-run determinism against the warm-up metrics.
fn time_engine(engine: &Engine, kernel: &SimWorkload, expect: &KernelMetrics) -> f64 {
    let start = Instant::now();
    for _ in 0..LAUNCHES_PER_RUN {
        let m = launch(engine, kernel);
        assert_eq!(&m, expect, "engine must be deterministic run-to-run");
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let kernel = SimWorkload { blocks: 512 };
    // Detect host parallelism once: worker counts beyond it cannot beat
    // the serial row (they just time-slice one core), so they are checked
    // for determinism but not timed.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed_counts: Vec<usize> = WORKER_COUNTS
        .iter()
        .copied()
        .filter(|&t| t == 1 || t <= host_cpus)
        .collect();
    let skipped_worker_counts: Vec<usize> = WORKER_COUNTS
        .iter()
        .copied()
        .filter(|t| !timed_counts.contains(t))
        .collect();
    let spec = GpuSpec::quadro_p6000();

    // Determinism is verified at every worker count, timed or not: the
    // bit-identity guarantee does not depend on the host having cores.
    let check_engines: Vec<Engine> = WORKER_COUNTS
        .iter()
        .map(|&t| {
            Engine::builder(spec.clone())
                .sim_threads(t)
                .build()
                .expect("valid engine configuration")
        })
        .collect();
    // Warm-ups: size each run context so steady state is allocation-free,
    // and record the metrics every timed launch must reproduce.
    let serial_metrics = launch(&check_engines[0], &kernel);
    let mut deterministic = true;
    for engine in &check_engines[1..] {
        deterministic &= launch(engine, &kernel) == serial_metrics;
    }
    assert!(
        deterministic,
        "metrics must be bit-identical across worker counts"
    );

    let engines: Vec<&Engine> = WORKER_COUNTS
        .iter()
        .zip(&check_engines)
        .filter(|(t, _)| timed_counts.contains(t))
        .map(|(_, e)| e)
        .collect();

    // Interleave configurations round-robin so clock-speed drift over the
    // benchmark's lifetime (noisy shared hosts) biases no configuration;
    // report per-configuration best-of-rounds.
    let mut best_engine = vec![f64::INFINITY; timed_counts.len()];
    for _ in 0..RUNS {
        for (slot, engine) in best_engine.iter_mut().zip(&engines) {
            *slot = slot.min(time_engine(engine, &kernel, &serial_metrics));
        }
    }

    let serial_wall_ms = best_engine[0];
    let threaded: Vec<ThreadRow> = timed_counts
        .iter()
        .zip(&best_engine)
        .skip(1)
        .map(|(&threads, &wall_ms)| ThreadRow {
            threads,
            wall_ms,
            speedup_vs_serial: serial_wall_ms / wall_ms.max(1e-9),
        })
        .collect();
    let hot_loop = bench_hot_loop(&check_engines[0]);

    let skip_note = if skipped_worker_counts.is_empty() {
        String::new()
    } else {
        format!(
            " Worker counts {skipped_worker_counts:?} were skipped: this host has \
             only {host_cpus} CPU(s), so they cannot win and their timings \
             would be noise."
        )
    };
    let result = BenchSim {
        workload: format!(
            "{} blocks x 8 warps: sliding 16 KB window + 8x32-lane scattered \
             reads over a 4 MB table + contended atomics, P6000 model",
            kernel.blocks
        ),
        launches_per_run: LAUNCHES_PER_RUN,
        runs: RUNS,
        host_cpus,
        skipped_worker_counts,
        serial_wall_ms,
        threaded,
        deterministic,
        hot_loop,
        note: format!(
            "speedup_vs_serial is thread scaling and is bounded by host_cpus \
             (= {host_cpus} here, so worker counts above it cannot beat \
             1.0x).{skip_note}"
        ),
    };

    let json = serde_json::to_string_pretty(&result).expect("serializes");
    std::fs::write("BENCH_sim.json", &json).expect("BENCH_sim.json written");
    println!("{json}");
    println!(
        "\nserial {:.2} ms; {}; hot loop: reused {:.2} ms vs fresh {:.2} ms ({:.2}x)",
        result.serial_wall_ms,
        result
            .threaded
            .iter()
            .map(|r| format!(
                "{} workers {:.2} ms ({:.2}x)",
                r.threads, r.wall_ms, r.speedup_vs_serial
            ))
            .collect::<Vec<_>>()
            .join(", "),
        result.hot_loop.reused_context_wall_ms,
        result.hot_loop.fresh_context_wall_ms,
        result.hot_loop.arena_speedup,
    );
}
