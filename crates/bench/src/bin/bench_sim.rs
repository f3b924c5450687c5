//! Wall-clock benchmark of the sharded simulation engine (`BENCH_sim.json`).
//!
//! Runs a fixed synthetic kernel workload — many blocks with cross-block
//! cache locality, scattered reads, and atomic hotspots, i.e. the traffic
//! mix real GNN kernels emit — through the engine at 1, 2, 4, and 8
//! simulation workers, with every configuration checked for bit-identical
//! metrics.
//!
//! A second table times the host aggregation numerics: GCN-normalized
//! aggregation (`compute::aggregate_reference`, `Aggregation::GcnNorm`)
//! of the artist Table-1 graph at scale 1.0, at the widths the
//! full-graph GCN forward aggregates (16 and 12), on 1 and 2 host
//! workers, with every worker count checked for bit-identical output. It
//! times each configuration twice: over the graph in its original order,
//! and over the graph renamed by the paper's community-aware renumbering
//! with each row's order kept (`Csr::relabel`), the order the GNNAdvisor
//! GCN forward runs its numerics in. The renumbered output, gathered back
//! into original order, is checked bit for bit against the original one;
//! the gathers themselves are not timed.
//!
//! A third table times the full-graph GCN forward's two GEMMs at the
//! artist graph's shapes (`50515 x 100 . 100 x 16`, then the ReLU'd
//! hidden `50515 x 16 . 16 x 12`) on 1 and 2 host workers, with every
//! worker count checked for bit-identical output.
//!
//! A fourth table times `Advisor::new` on the artist graph at scale 1.0
//! under two-tier tuning: each set-up stage on its own (tuning; Louvain,
//! per-community RCM, the whole `renumber`, and `Csr::relabel`) and the
//! advisor's overlapped total, in which `renumber` runs on a scoped
//! thread while the calling thread tunes. The advisor is checked against
//! the stages' own outputs.
//!
//! Timings land in `BENCH_sim.json` together with `host_cpus`, because the
//! thread-scaling rows only show parallel speedup when the host actually
//! has cores to scale onto, and `host_body`, the compiled body of the host
//! kernels this CPU runs (`avx2` or `baseline`, see
//! `gnnadvisor_tensor::simd`). End-to-end host cost per workload is measured
//! by the repository benchmark (`benchmark/`), not here, and the simulated
//! scenarios (co-residency, cluster, dynamic, mini-batch, tuning) are
//! tests in `crates/bench/tests/scenarios.rs`.
//!
//! Usage: `cargo run --release -p gnnadvisor-bench --bin bench_sim`.

#![deny(unsafe_code)]

use std::time::Instant;

use gnnadvisor_core::compute::{aggregate_reference, Aggregation};
use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::tuning::{aggregation_metrics, tune_two_tier, TwoTierConfig};
use gnnadvisor_datasets::table1_by_name;
use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{
    ArrayId, BlockSink, Engine, GpuSpec, GridConfig, Kernel, KernelMetrics, Workload,
    WorkloadMetrics,
};
use gnnadvisor_graph::community::{louvain, LouvainConfig};
use gnnadvisor_graph::reorder::{rcm_by_community, renumber, RenumberConfig};
use gnnadvisor_graph::Csr;
use gnnadvisor_tensor::init::random_features;
use gnnadvisor_tensor::ops::relu_inplace;
use gnnadvisor_tensor::simd::Body;
use gnnadvisor_tensor::{gemm_par, Matrix};
use serde::Serialize;

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
#[derive(Debug, Clone, Serialize)]
struct ThreadRow {
    /// Simulation worker threads.
    threads: usize,
    /// Best-of-runs wall-clock for the whole workload, milliseconds.
    wall_ms: f64,
    /// Speedup over the current engine's own 1-worker run (thread scaling;
    /// only exceeds ~1.0 when `host_cpus` > 1).
    speedup_vs_serial: f64,
}

/// Everything `BENCH_sim.json` records.
#[derive(Debug, Clone, Serialize)]
struct BenchSim {
    /// Workload shape, for reproducibility.
    workload: String,
    /// Kernel launches per timed run.
    launches_per_run: usize,
    /// Timed runs per configuration (best is reported).
    runs: usize,
    /// CPUs visible to this process; thread-scaling rows are bounded by it.
    host_cpus: usize,
    /// The compiled body the host GEMM and aggregation kernels run on
    /// this CPU: `avx2` or `baseline`.
    host_body: String,
    /// Worker counts not timed because the host has too few CPUs to let
    /// them win (counts above `host_cpus`, except the serial row).
    skipped_worker_counts: Vec<usize>,
    /// Current engine, 1 worker, milliseconds.
    serial_wall_ms: f64,
    /// Current engine at each measured worker count.
    threaded: Vec<ThreadRow>,
    /// Whether every worker count produced bit-identical metrics.
    deterministic: bool,
    /// The host aggregation numerics.
    host_aggregation: HostAggregation,
    /// The full-graph forward's host GEMMs.
    host_gemm: HostGemm,
    /// `Advisor::new`'s set-up stages and its overlapped total.
    advisor_setup: AdvisorSetup,
    /// How to read the numbers on this host.
    note: String,
}

/// The host aggregation table of `BENCH_sim.json`.
#[derive(Debug, Clone, Serialize)]
struct HostAggregation {
    /// The aggregated graph.
    graph: String,
    /// Timed calls per configuration (best is reported).
    runs: usize,
    /// One row per row order, feature width and worker count.
    rows: Vec<HostAggRow>,
    /// Whether every worker count in `WORKER_COUNTS` produced bit-identical
    /// output at every width, in both orders, and the renumbered output
    /// gathered back equals the original one bit for bit.
    deterministic: bool,
}

/// One host aggregation measurement.
#[derive(Debug, Clone, Serialize)]
struct HostAggRow {
    /// `original` (the generated graph) or `renumbered` (renamed by the
    /// community-aware renumbering, each row's order kept).
    order: String,
    /// Feature width `d`.
    dim: usize,
    /// Host worker threads.
    workers: usize,
    /// Best-of-runs wall-clock of one aggregation call, milliseconds.
    wall_ms: f64,
}

/// The host GEMM table of `BENCH_sim.json`.
#[derive(Debug, Clone, Serialize)]
struct HostGemm {
    /// The timed products.
    shapes: String,
    /// Timed calls per configuration (best is reported).
    runs: usize,
    /// One row per shape and worker count.
    rows: Vec<HostGemmRow>,
    /// Whether every worker count in `WORKER_COUNTS` produced bit-identical
    /// output for every shape.
    deterministic: bool,
}

/// One host GEMM measurement of `m x k . k x n`.
#[derive(Debug, Clone, Serialize)]
struct HostGemmRow {
    m: usize,
    k: usize,
    n: usize,
    /// Host worker threads.
    workers: usize,
    /// Best-of-runs wall-clock of one product, milliseconds.
    wall_ms: f64,
}

/// The set-up table of `BENCH_sim.json`: best-of-runs wall-clock of each
/// stage of `Advisor::new` on its own, and of the advisor itself.
#[derive(Debug, Clone, Serialize)]
struct AdvisorSetup {
    /// The graph and the tuning strategy.
    graph: String,
    /// Timed runs per stage (best is reported).
    runs: usize,
    /// Two-tier tuning on the input graph, milliseconds.
    tune_ms: f64,
    /// Louvain community detection, milliseconds.
    louvain_ms: f64,
    /// RCM within every community (`rcm_by_community`), milliseconds.
    rcm_ms: f64,
    /// Applying the permutation (`Csr::relabel`), milliseconds.
    relabel_ms: f64,
    /// The whole `renumber` (Louvain, RCM, the permutation): what the
    /// advisor runs on its thread beside tuning, milliseconds.
    renumber_ms: f64,
    /// The whole `Advisor::new` (tuning overlapped with renumbering, then
    /// partitioning), milliseconds.
    advisor_new_ms: f64,
}

const LAUNCHES_PER_RUN: usize = 24;
const RUNS: usize = 5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Feature widths the full-graph GCN forward aggregates (hidden 16, then
/// the artist graph's 12 classes).
const HOST_AGG_DIMS: [usize; 2] = [16, 12];
const HOST_AGG_WORKERS: [usize; 2] = [1, 2];
const HOST_AGG_RUNS: usize = 15;
/// GCN hidden width and timed runs of the set-up table.
const SETUP_HIDDEN: usize = 16;
const SETUP_RUNS: usize = 5;

/// One launch of `kernel` on the engine's own recycled context.
fn launch(engine: &Engine, kernel: &SimWorkload) -> KernelMetrics {
    engine
        .submit(&mut engine.lock_context(), Workload::Kernel(kernel))
        .map(WorkloadMetrics::into_kernel)
        .expect("workload runs")
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

/// Times the host aggregation of the artist graph in both row orders at
/// every width in `HOST_AGG_DIMS` and worker count in `HOST_AGG_WORKERS`,
/// interleaved, after checking that every worker count in
/// `WORKER_COUNTS` gives the 1-worker output bit for bit in both orders,
/// and that the renumbered output gathered back is the original one.
fn host_aggregation() -> HostAggregation {
    let graph = table1_by_name("artist")
        .expect("artist is a Table 1 dataset")
        .generate(1.0)
        .expect("artist generates")
        .graph;
    let perm = renumber(&graph, &RenumberConfig::default())
        .expect("artist renumbers")
        .permutation;
    let relabeled = graph.relabel(&perm).expect("one id per node");
    let old_of_new = perm.inverse();
    let aggregate = |g: &Csr, features: &Matrix, workers: usize| {
        aggregate_reference(g, features, Aggregation::GcnNorm, workers)
    };
    let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
    // (order, graph, d, features in that order).
    let mut inputs: Vec<(&str, &Csr, usize, Matrix)> = Vec::new();
    let mut deterministic = true;
    for &d in &HOST_AGG_DIMS {
        let x = random_features(graph.num_nodes(), d, 7);
        let rx = x.gather_rows(old_of_new.as_slice());
        let serial = bits(&aggregate(&graph, &x, 1));
        let renumbered = aggregate(&relabeled, &rx, 1);
        deterministic &= bits(&renumbered.gather_rows(perm.as_slice())) == serial
            && WORKER_COUNTS[1..].iter().all(|&w| {
                bits(&aggregate(&graph, &x, w)) == serial
                    && bits(&aggregate(&relabeled, &rx, w)) == bits(&renumbered)
            });
        inputs.push(("original", &graph, d, x));
        inputs.push(("renumbered", &relabeled, d, rx));
    }
    assert!(
        deterministic,
        "host aggregation must be bit-identical across worker counts and row orders"
    );
    let configs: Vec<(&str, &Csr, usize, &Matrix, usize)> = inputs
        .iter()
        .flat_map(|(order, g, d, x)| {
            HOST_AGG_WORKERS
                .iter()
                .map(move |&w| (*order, *g, *d, x, w))
        })
        .collect();
    let mut best = vec![f64::INFINITY; configs.len()];
    for _ in 0..HOST_AGG_RUNS {
        for (slot, &(_, g, _, features, workers)) in best.iter_mut().zip(&configs) {
            let start = Instant::now();
            std::hint::black_box(aggregate(g, features, workers));
            *slot = slot.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    HostAggregation {
        graph: format!(
            "artist (Table 1) at scale 1.0: {} nodes, {} edges; GcnNorm aggregation",
            graph.num_nodes(),
            graph.num_edges()
        ),
        runs: HOST_AGG_RUNS,
        rows: configs
            .iter()
            .zip(best)
            .map(|(&(order, _, dim, _, workers), wall_ms)| HostAggRow {
                order: order.to_string(),
                dim,
                workers,
                wall_ms,
            })
            .collect(),
        deterministic,
    }
}

/// Times the full-graph GCN forward's two GEMMs at the artist graph's
/// shapes for every worker count in `HOST_AGG_WORKERS`, interleaved, after
/// checking that every worker count in `WORKER_COUNTS` gives the 1-worker
/// product bit for bit.
fn host_gemm() -> HostGemm {
    let spec = table1_by_name("artist").expect("artist is a Table 1 dataset");
    let (n, feat, hidden, classes) = (spec.num_nodes, spec.feat_dim, 16, spec.num_classes);
    let x = random_features(n, feat, 7);
    let w1 = random_features(feat, hidden, 8);
    let w2 = random_features(hidden, classes, 9);
    // The second GEMM's left operand is the ReLU'd hidden layer, about
    // half exact zeros, as in the forward.
    let mut h = gemm_par(&x, &w1, 1).expect("shapes agree");
    relu_inplace(&mut h);
    let products = [(&x, &w1), (&h, &w2)];
    let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
    let deterministic = products.iter().all(|&(a, b)| {
        let serial = bits(&gemm_par(a, b, 1).expect("shapes agree"));
        WORKER_COUNTS[1..]
            .iter()
            .all(|&w| bits(&gemm_par(a, b, w).expect("shapes agree")) == serial)
    });
    assert!(
        deterministic,
        "host GEMMs must be bit-identical across worker counts"
    );
    let configs: Vec<(&Matrix, &Matrix, usize)> = products
        .iter()
        .flat_map(|&(a, b)| HOST_AGG_WORKERS.iter().map(move |&w| (a, b, w)))
        .collect();
    let mut best = vec![f64::INFINITY; configs.len()];
    for _ in 0..HOST_AGG_RUNS {
        for (slot, &(a, b, workers)) in best.iter_mut().zip(&configs) {
            let start = Instant::now();
            std::hint::black_box(gemm_par(a, b, workers).expect("shapes agree"));
            *slot = slot.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    HostGemm {
        shapes: format!(
            "artist (Table 1) GCN forward: {n} x {feat} . {feat} x {hidden}, \
             then the ReLU'd {n} x {hidden} . {hidden} x {classes}"
        ),
        runs: HOST_AGG_RUNS,
        rows: configs
            .iter()
            .zip(best)
            .map(|(&(a, b, workers), wall_ms)| HostGemmRow {
                m: a.rows(),
                k: a.cols(),
                n: b.cols(),
                workers,
                wall_ms,
            })
            .collect(),
        deterministic,
    }
}

/// Times `Advisor::new` on the artist graph at scale 1.0 under two-tier
/// tuning, and each of its stages on its own, interleaved, after checking
/// that the advisor's parameters and permutation are the stages' own.
fn advisor_setup() -> AdvisorSetup {
    let spec = table1_by_name("artist").expect("artist is a Table 1 dataset");
    let graph = spec.generate(1.0).expect("artist generates").graph;
    let gpu = GpuSpec::quadro_p6000();
    let tuning = TwoTierConfig::default();
    let build = || {
        Advisor::new(
            &graph,
            spec.feat_dim,
            SETUP_HIDDEN,
            spec.num_classes,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                spec: gpu.clone(),
                tune: TuneStrategy::TwoTier(tuning),
                ..Default::default()
            },
        )
        .expect("artist advisor builds")
    };
    let input = extract(
        &graph,
        spec.feat_dim,
        SETUP_HIDDEN,
        spec.num_classes,
        AggOrder::UpdateThenAggregate,
    );
    let dim = input.aggregation_dim();
    let tune = || {
        tune_two_tier(&input, &gpu, &tuning, |p, e| {
            aggregation_metrics(&graph, dim, p, e)
        })
        .best
    };
    let detect = || louvain(&graph, &LouvainConfig::default());
    let renumbered = || renumber(&graph, &RenumberConfig::default()).expect("artist renumbers");

    let advisor = build();
    let params = tune();
    let detected = detect();
    let perm = renumbered().permutation;
    assert_eq!(
        advisor.params(),
        &params,
        "the advisor tunes as the tuner does"
    );
    assert_eq!(
        advisor.permutation(),
        params.renumber.then_some(&perm),
        "the advisor renumbers as renumber does"
    );

    let time = |best: &mut f64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        *best = best.min(start.elapsed().as_secs_f64() * 1e3);
    };
    let mut best = [f64::INFINITY; 6];
    for _ in 0..SETUP_RUNS {
        let [tune_ms, louvain_ms, rcm_ms, relabel_ms, renumber_ms, new_ms] = &mut best;
        time(tune_ms, &mut || {
            std::hint::black_box(tune());
        });
        time(louvain_ms, &mut || {
            std::hint::black_box(detect());
        });
        time(rcm_ms, &mut || {
            std::hint::black_box(rcm_by_community(
                &graph,
                &detected.community_of,
                detected.num_communities,
            ));
        });
        time(relabel_ms, &mut || {
            std::hint::black_box(graph.relabel(&perm).expect("one id per node"));
        });
        time(renumber_ms, &mut || {
            std::hint::black_box(renumbered());
        });
        time(new_ms, &mut || {
            std::hint::black_box(build());
        });
    }
    let [tune_ms, louvain_ms, rcm_ms, relabel_ms, renumber_ms, advisor_new_ms] = best;
    AdvisorSetup {
        graph: format!(
            "artist (Table 1) at scale 1.0: {} nodes, {} edges; two-tier tuning, \
             GCN hidden {SETUP_HIDDEN}",
            graph.num_nodes(),
            graph.num_edges()
        ),
        runs: SETUP_RUNS,
        tune_ms,
        louvain_ms,
        rcm_ms,
        relabel_ms,
        renumber_ms,
        advisor_new_ms,
    }
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
        host_body: Body::detect().name().to_string(),
        skipped_worker_counts,
        serial_wall_ms,
        threaded,
        deterministic,
        host_aggregation: host_aggregation(),
        host_gemm: host_gemm(),
        advisor_setup: advisor_setup(),
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
        "\nserial {:.2} ms; {}",
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
    );
    println!(
        "host aggregation: {}",
        result
            .host_aggregation
            .rows
            .iter()
            .map(|r| format!(
                "{} d={} {} workers {:.2} ms",
                r.order, r.dim, r.workers, r.wall_ms
            ))
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!(
        "host gemm ({} body): {}",
        result.host_body,
        result
            .host_gemm
            .rows
            .iter()
            .map(|r| format!(
                "{}x{}x{} {} workers {:.2} ms",
                r.m, r.k, r.n, r.workers, r.wall_ms
            ))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let setup = &result.advisor_setup;
    println!(
        "advisor set-up: tune {:.1} ms, louvain {:.1} ms, rcm {:.1} ms, relabel {:.1} ms, \
         renumber {:.1} ms, Advisor::new {:.1} ms",
        setup.tune_ms,
        setup.louvain_ms,
        setup.rcm_ms,
        setup.relabel_ms,
        setup.renumber_ms,
        setup.advisor_new_ms
    );
}
