//! Wall-clock benchmark of the sharded simulation engine (`BENCH_sim.json`).
//!
//! Runs a fixed synthetic kernel workload — many blocks with cross-block
//! cache locality, scattered reads, and atomic hotspots, i.e. the traffic
//! mix real GNN kernels emit — through the engine at 1, 2, 4, and 8
//! simulation workers, with every configuration checked for bit-identical
//! metrics.
//!
//! Timings land in `BENCH_sim.json` together with `host_cpus`, because the
//! thread-scaling rows only show parallel speedup when the host actually
//! has cores to scale onto. End-to-end host cost per workload is measured
//! by the repository benchmark (`benchmark/`), not here.
//!
//! Usage: `cargo run --release -p gnnadvisor-bench --bin bench_sim`.

#![deny(unsafe_code)]

use std::time::Instant;

use gnnadvisor_core::cluster::{
    assign_tenants, simulate_cluster, ClusterConfig, ClusterReport, RouterPolicy, TenantSpec,
};
use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, DynamicReport, PreparedSnapshot,
    RenumberPolicy, SnapshotAggregationKernel, SnapshotExecutor, UpdateStreamConfig,
};
use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::serving::{
    generate_arrivals, ArrivalConfig, BatchPolicy, BatchWork, DeviceWork, DispatchedBatch,
    QueuePolicy, RetryPolicy, ServingConfig,
};
use gnnadvisor_core::tuning::{
    aggregation_metrics, tune_two_tier, Estimator, EstimatorConfig, TwoTierConfig,
};
use gnnadvisor_core::RuntimeParams;
use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{
    ArrayId, BlockSink, Engine, GpuSpec, GridConfig, Kernel, KernelMetrics, OpClass, RunContext,
    StreamSim, Workload, WorkloadMetrics,
};
use gnnadvisor_graph::generators::{
    barabasi_albert, batched_graph, community_graph, BatchedParams, CommunityParams,
};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::sample::SampleConfig;
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{train_minibatch, GcnBatchExecutor, MiniBatchConfig, MiniBatchReport};
use gnnadvisor_tensor::Matrix;
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

/// Two-tier tuner benchmark on a moderate aggregation workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TuningBench {
    /// The tuned workload.
    graph: String,
    /// Full-simulation tuner, memoization off (every duplicate candidate
    /// re-simulated — the pre-PR cost), milliseconds.
    full_sim_unmemoized_wall_ms: f64,
    /// Full-simulation tuner with the fitness memo cache, milliseconds.
    full_sim_memoized_wall_ms: f64,
    /// Two-tier tuner end to end (probes + calibration + fast-path search
    /// + finalist verification), milliseconds.
    two_tier_wall_ms: f64,
    /// full_sim_unmemoized / two_tier — the acceptance-criterion number.
    tuner_speedup: f64,
    /// Calibrated relative-error band reported by the analytic model.
    calibration_error_band: f64,
    /// Mean fast-path (closed-form) scoring cost per candidate, µs.
    fast_path_per_candidate_us: f64,
    /// Mean full-simulation scoring cost per candidate, µs.
    full_sim_per_candidate_us: f64,
    /// full_sim / fast_path per-candidate scoring ratio.
    scoring_speedup: f64,
    /// Engine latency of the two-tier winner, simulated ms.
    two_tier_winner_ms: f64,
    /// Engine latency of the full-sim tuner's winner, simulated ms.
    full_sim_winner_ms: f64,
    /// Whether the two-tier winner sits within the calibration band of
    /// the full-sim winner (the acceptance criterion).
    winner_within_band: bool,
    /// Engine launches the two-tier tuner consumed (probes + finalists).
    engine_evals: usize,
    /// Distinct candidates the fast path scored.
    fast_evals: usize,
    /// Fast-path evaluations absorbed by the memo cache.
    memo_hits: usize,
}

/// One replica-count row of the cluster serving scenario (simulated
/// goodput, not wall clock — replication must buy schedule span).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClusterReplicaRow {
    /// Replicas behind the router.
    replicas: usize,
    /// In-deadline completions per simulated second.
    goodput_rps: f64,
    /// Schedule makespan, simulated ms.
    makespan_ms: f64,
    /// This row's goodput over the single-replica goodput.
    goodput_speedup_vs_single: f64,
}

/// Per-tenant SLO outcome at the two-replica operating point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClusterTenantRow {
    /// Tenant name.
    tenant: String,
    /// Requests the trace assigned to the tenant.
    arrivals: usize,
    /// Requests completed within the tenant's deadline.
    completed: usize,
    /// completed / arrivals.
    slo_attainment: f64,
}

/// Cluster serving scenario: the same device-limited trace pushed through
/// 1, 2, and 4 cost-aware-routed replicas.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClusterBench {
    /// Requests in the shared trace.
    requests: usize,
    /// Router policy used on every row.
    router: String,
    /// Replica-count sweep, ascending.
    rows: Vec<ClusterReplicaRow>,
    /// Best multi-replica goodput over single-replica goodput (the
    /// acceptance-criterion number; must clear 1.5x).
    goodput_speedup: f64,
    /// Per-tenant SLO attainment at two replicas.
    tenants_at_two_replicas: Vec<ClusterTenantRow>,
    /// Whether the two-replica report renders byte-identically at 1 and 4
    /// simulation worker threads.
    deterministic: bool,
}

/// Runs the cluster serving pipeline at one replica count.
fn cluster_report(spec: &GpuSpec, replicas: usize, sim_threads: usize) -> ClusterReport {
    // A Type II batched workload like the serving scenario, but with
    // wider features and fatter component graphs: the offered rate sits
    // far above one device's capacity, so the schedule is device-limited
    // and replication moves the span (a light workload pins goodput to
    // the arrival window and every replica count ties).
    let nodes = 8_000;
    let (graph, components) = batched_graph(
        &BatchedParams {
            num_nodes: nodes,
            num_edges: nodes * 4,
            mean_graph_size: 400,
            graph_size_cv: 0.4,
        },
        31,
    )
    .expect("valid batched dataset");
    let mut exec = GcnBatchExecutor::new(&graph, &components, 512, 64, 10);
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: 96,
        mean_interarrival_ms: 0.005,
        num_components: exec.num_components(),
        seed: 7,
    })
    .expect("valid arrival config");
    let tenants = vec![
        TenantSpec {
            name: "batch".into(),
            weight: 3,
            deadline_ms: None,
        },
        TenantSpec {
            name: "online".into(),
            weight: 1,
            deadline_ms: Some(10.0),
        },
    ];
    let tenant_of = assign_tenants(&arrivals, &tenants, 11).expect("valid roster");
    let cfg = ClusterConfig {
        replicas,
        streams: 2,
        queue: QueuePolicy { capacity: 96 },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 1.0,
        },
        retry: RetryPolicy::default(),
        router: RouterPolicy::CostAware,
        autoscaler: None,
    };
    let engines: Vec<Engine> = (0..replicas)
        .map(|_| {
            Engine::builder(spec.clone())
                .sim_threads(sim_threads)
                .build()
                .expect("valid engine configuration")
        })
        .collect();
    simulate_cluster(&engines, &arrivals, &tenant_of, &tenants, &cfg, &mut exec)
        .expect("cluster simulation runs")
}

/// The replica sweep plus the two-replica determinism cross-check.
fn bench_cluster(spec: &GpuSpec) -> ClusterBench {
    let counts = [1usize, 2, 4];
    let reports: Vec<ClusterReport> = counts.iter().map(|&r| cluster_report(spec, r, 1)).collect();
    let single = reports[0].goodput_rps.max(1e-12);
    let rows: Vec<ClusterReplicaRow> = counts
        .iter()
        .zip(&reports)
        .map(|(&replicas, r)| ClusterReplicaRow {
            replicas,
            goodput_rps: r.goodput_rps,
            makespan_ms: r.makespan_ms,
            goodput_speedup_vs_single: r.goodput_rps / single,
        })
        .collect();
    let goodput_speedup = rows[1..]
        .iter()
        .map(|r| r.goodput_speedup_vs_single)
        .fold(0.0, f64::max);
    let tenants_at_two_replicas = reports[1]
        .tenants
        .iter()
        .map(|t| ClusterTenantRow {
            tenant: t.name.clone(),
            arrivals: t.arrivals,
            completed: t.completed,
            slo_attainment: t.slo_attainment,
        })
        .collect();
    let deterministic = cluster_report(spec, 2, 1).render() == cluster_report(spec, 2, 4).render();
    ClusterBench {
        requests: 96,
        router: RouterPolicy::CostAware.label().into(),
        rows,
        goodput_speedup,
        tenants_at_two_replicas,
        deterministic,
    }
}

/// One kernel of the co-residency scenario's committed schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OccupancyKernelRow {
    /// The stream the kernel ran on.
    stream: usize,
    /// First block admission, simulated ms.
    start_ms: f64,
    /// Last block retirement + launch teardown, simulated ms.
    end_ms: f64,
    /// Time-averaged resident warps over the device's warp slots across
    /// the kernel's execution window — the share of the device this
    /// kernel actually held while sharing SMs with its neighbor.
    achieved_occupancy: f64,
}

/// Kernel co-residency: two half-device kernels on independent streams
/// share every SM under the block-level admission path, where the old
/// whole-kernel arbitration (one residency check per launch) serialized
/// them (simulated time, host-independent).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OccupancyBench {
    /// The two launches, for reproducibility.
    scenario: String,
    /// What whole-kernel arbitration produced: the kernels back to back
    /// (the sum of their standalone elapsed times), simulated ms.
    coarse_serialized_ms: f64,
    /// Makespan of the block-level schedule, simulated ms.
    coresident_makespan_ms: f64,
    /// coarse_serialized / coresident — the co-residency win; must
    /// exceed 1.0.
    speedup: f64,
    /// Most distinct kernels simultaneously resident on one SM; `>= 2`
    /// is proof blocks of both kernels shared an SM.
    max_coresident_kernels_per_sm: u32,
    /// Peak device-wide resident warps (never above the device's warp
    /// slots — the admission invariant, observed).
    peak_resident_warps: u64,
    /// Per-kernel placement and achieved occupancy.
    kernels: Vec<OccupancyKernelRow>,
    /// Whether the schedule is byte-identical at 1 and 4 simulation
    /// worker threads.
    deterministic: bool,
}

/// Runs the two-kernel co-residency scenario: two 30-block GEMMs (one
/// block per SM each, two per SM co-resident) released at the same
/// instant on independent streams.
fn bench_occupancy(spec: &GpuSpec) -> OccupancyBench {
    let gemm = Workload::Gemm {
        m: 30 * 64,
        n: 64,
        k: 256,
    };
    let run_at = |sim_threads: usize| {
        let engine = Engine::builder(spec.clone())
            .sim_threads(sim_threads)
            .build()
            .expect("valid engine configuration");
        let mut sim = StreamSim::new(&engine);
        let mut standalone_ms = 0.0;
        for _ in 0..2 {
            let s = sim.stream();
            let (_, m) = sim.enqueue(s, gemm).expect("valid stream");
            standalone_ms += m.time_ms();
        }
        (sim.run().expect("schedule commits"), standalone_ms)
    };
    let (report, coarse_serialized_ms) = run_at(1);
    let deterministic = report == run_at(4).0;
    let kernels: Vec<OccupancyKernelRow> = report
        .spans
        .iter()
        .filter(|s| s.class == OpClass::Kernel)
        .map(|s| OccupancyKernelRow {
            stream: s.stream.index(),
            start_ms: spec.cycles_to_ms(s.start_cycles),
            end_ms: spec.cycles_to_ms(s.end_cycles),
            achieved_occupancy: s.occupancy,
        })
        .collect();
    OccupancyBench {
        scenario: "2 streams x GEMM 1920x64x256 (30 blocks, 2-per-SM shape) \
                   released at cycle 0, P6000 model (30 SMs)"
            .into(),
        coarse_serialized_ms,
        coresident_makespan_ms: report.makespan_ms,
        speedup: coarse_serialized_ms / report.makespan_ms.max(1e-12),
        max_coresident_kernels_per_sm: report.max_coresident_kernels_per_sm,
        peak_resident_warps: report.peak_resident_warps,
        kernels,
        deterministic,
    }
}

/// One (subsampled) point of a dynamic run's hit-rate trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DynamicTrajectoryRow {
    /// Batch index in dispatch order.
    batch: usize,
    /// Graph version the batch's snapshot was pinned to.
    version: u64,
    /// Hit-count-weighted L2 hit-rate of the batch's kernels.
    hit_rate: f64,
}

/// One arm (policy off / policy on) of the dynamic-graph scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DynamicArm {
    /// In-deadline completions per simulated second.
    goodput_rps: f64,
    /// Mean kernel hit-rate over the first 8 traffic-carrying batches.
    head_hit_rate: f64,
    /// Mean kernel hit-rate over the last 8 traffic-carrying batches.
    tail_hit_rate: f64,
    /// Locality-triggered rebuilds the run performed.
    renumbers: usize,
    /// Final graph version (updates + rebuilds).
    final_version: u64,
    /// Every 8th batch of the version-tagged hit-rate trajectory.
    trajectory: Vec<DynamicTrajectoryRow>,
}

/// Dynamic-graph serving: the same seeded churn stream served with the
/// re-renumbering policy off (the layout decays forever) and on (the
/// watermark trips a rebuild whose recovered kernel speed pays back the
/// stall). Simulated time, host-independent.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DynamicBench {
    /// Base graph + layout, for reproducibility.
    graph: String,
    /// Update-stream shape.
    churn: String,
    /// Requests in the saturating arrival trace.
    requests: usize,
    /// The decay arm: no policy, the renumbered layout erodes.
    without_policy: DynamicArm,
    /// The recovery arm: watermark-triggered rebuild mid-run.
    with_policy: DynamicArm,
    /// with / without goodput (the acceptance-criterion number; must
    /// exceed 1.0 — the rebuild stall is charged on the same clock).
    goodput_recovery: f64,
    /// Whether the policy-on report renders byte-identically at 1 and 4
    /// simulation worker threads.
    deterministic: bool,
}

/// Aggregation-only snapshot executor: one advisor aggregation over the
/// live snapshot per batch, so the measured hit-rate *is* the layout's
/// locality (the models-crate GCN executor adds GEMM/stacking traffic
/// that dilutes the signal; the bench isolates it).
struct AggExecutor {
    dim: usize,
    prepared: Option<(u64, SnapshotAggregationKernel)>,
}

impl SnapshotExecutor for AggExecutor {
    fn plan(
        &mut self,
        batch: &DispatchedBatch,
        graph: &Csr,
        version: u64,
    ) -> gnnadvisor_core::Result<BatchWork> {
        if batch.requests.is_empty() {
            return Ok(BatchWork::default());
        }
        if self.prepared.as_ref().map(|(v, _)| *v) != Some(version) {
            let snapshot = PreparedSnapshot::prepare(graph, RuntimeParams::default())?;
            let kernel = SnapshotAggregationKernel::new(snapshot, self.dim)?;
            self.prepared = Some((version, kernel));
        }
        let kernel = self.prepared.as_ref().expect("just prepared").1.clone();
        Ok(BatchWork {
            ops: vec![
                DeviceWork::Transfer {
                    bytes: (batch.requests.len() * 64) as u64,
                },
                DeviceWork::Kernel(Box::new(kernel)),
            ],
        })
    }
}

/// Runs one arm of the dynamic scenario: a freshly renumbered community
/// graph under attachment-heavy churn, arrivals paced to saturate the
/// device so goodput measures kernel speed, not the arrival window.
fn dynamic_report(
    spec: &GpuSpec,
    policy: Option<RenumberPolicy>,
    sim_threads: usize,
) -> DynamicReport {
    let (shuffled, _) = community_graph(
        &CommunityParams {
            num_nodes: 2_000,
            num_edges: 24_000,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        },
        1,
    )
    .expect("valid community graph");
    let r = renumber(&shuffled, &RenumberConfig::default()).expect("renumbering runs");
    let base = shuffled.permute(&r.permutation).expect("valid permutation");
    let updates = generate_updates(
        &base,
        &UpdateStreamConfig {
            num_updates: 10_000,
            mean_interarrival_ms: 0.0001,
            delete_fraction: 0.15,
            node_fraction: 0.25,
            attach_degree: 6,
            seed: 7,
        },
    )
    .expect("valid update stream");
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: 800,
        mean_interarrival_ms: 0.002,
        num_components: 1,
        seed: 3,
    })
    .expect("valid arrival config");
    let cfg = DynamicConfig {
        serving: ServingConfig {
            streams: 1,
            queue: QueuePolicy { capacity: 64 },
            batch: BatchPolicy {
                max_batch: 4,
                max_delay_ms: 0.2,
            },
            retry: RetryPolicy::default(),
            deadline_ms: None,
        },
        policy,
        compact_every: 64,
    };
    let engine = Engine::builder(spec.clone())
        .sim_threads(sim_threads)
        .build()
        .expect("valid engine configuration");
    let mut exec = AggExecutor {
        dim: 32,
        prepared: None,
    };
    simulate_dynamic(&[engine], base, &updates, &arrivals, &cfg, &mut exec)
        .expect("dynamic simulation runs")
}

fn dynamic_arm(report: &DynamicReport) -> DynamicArm {
    let last = report.trajectory.len().saturating_sub(1);
    DynamicArm {
        goodput_rps: report.serving.goodput_rps,
        head_hit_rate: report.head_hit_rate(8),
        tail_hit_rate: report.tail_hit_rate(8),
        renumbers: report.renumbers.len(),
        final_version: report.final_version,
        trajectory: report
            .trajectory
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 8 == 0 || *i == last)
            .map(|(_, row)| DynamicTrajectoryRow {
                batch: row.batch,
                version: row.version,
                hit_rate: row.hit_rate,
            })
            .collect(),
    }
}

/// The decay/recovery comparison plus the policy-on determinism check.
fn bench_dynamic(spec: &GpuSpec) -> DynamicBench {
    let policy = RenumberPolicy {
        window: 8,
        watermark: 0.95,
        cooldown_batches: 30,
        rebuild_cost_us_per_edge: 0.0005,
    };
    let without = dynamic_report(spec, None, 1);
    let with = dynamic_report(spec, Some(policy.clone()), 1);
    let deterministic = with.render() == dynamic_report(spec, Some(policy), 4).render();
    DynamicBench {
        graph: "community_graph(2000 nodes, 24000 edges, seed 1), renumbered".into(),
        churn: "10000 updates, 0.0001 ms gap: 15% deletes, 25% node arrivals \
                attaching 6 community edges, 60% uniform inserts"
            .into(),
        requests: 800,
        goodput_recovery: with.serving.goodput_rps / without.serving.goodput_rps.max(1e-12),
        without_policy: dynamic_arm(&without),
        with_policy: dynamic_arm(&with),
        deterministic,
    }
}

/// One epoch of the mini-batch training pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SamplingEpochRow {
    /// Epoch index.
    epoch: usize,
    /// Mini-batches the epoch ran.
    batches: usize,
    /// Mean per-batch training loss (real numerics, not simulated).
    loss: f64,
    /// Mean per-batch seed accuracy.
    accuracy: f64,
    /// Host metadata time: sampling + CSR slicing + feature gathering,
    /// simulated ms.
    host_ms: f64,
    /// Device time with every batch run alone, simulated ms.
    device_ms: f64,
    /// Makespan with the host pipelined one batch ahead of the device.
    pipelined_ms: f64,
    /// Makespan of the classic sample-then-train loop: host + device.
    serialized_ms: f64,
    /// Fraction of the host's working interval hidden under device work.
    overlap_ratio: f64,
}

/// Sampling-based mini-batch training: the host sampling pipeline
/// overlapped with device training vs the serialized loop (simulated
/// time, host-independent; losses are real numerics).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SamplingBench {
    /// Training graph, for reproducibility.
    graph: String,
    /// Sampler + model shape.
    config: String,
    /// Per-epoch trajectory.
    epochs: Vec<SamplingEpochRow>,
    /// Total host metadata time across epochs, simulated ms.
    host_ms: f64,
    /// Total solo device time across epochs, simulated ms.
    device_ms: f64,
    /// Total pipelined makespan, simulated ms.
    pipelined_ms: f64,
    /// Total serialized makespan, simulated ms.
    serialized_ms: f64,
    /// serialized / pipelined — what overlapping the host buys; must
    /// exceed 1.0.
    pipeline_speedup: f64,
    /// Last-epoch mean loss.
    final_loss: f64,
    /// Last-epoch mean seed accuracy.
    final_accuracy: f64,
    /// Whether host metadata work dominated device compute in every
    /// epoch — the paper-motivating regime at hidden dim 16.
    host_bound: bool,
    /// Whether the report renders byte-identically at 1 and 4 simulation
    /// worker threads.
    deterministic: bool,
}

/// Runs the mini-batch pipeline once at a given worker count.
fn sampling_report(spec: &GpuSpec, sim_threads: usize) -> MiniBatchReport {
    let (graph, communities) = community_graph(
        &CommunityParams {
            num_nodes: 1_200,
            num_edges: 14_400,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        },
        41,
    )
    .expect("valid community graph");
    let labels: Vec<usize> = communities.iter().map(|&c| c as usize % 4).collect();
    let features = Matrix::from_fn(graph.num_nodes(), 16, |v, d| {
        let hot = labels[v] % 16;
        let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
        if d == hot {
            1.0 + noise
        } else {
            noise
        }
    });
    let cfg = MiniBatchConfig {
        dims: vec![16, 16, 4],
        lr: 0.4,
        epochs: 3,
        sample: SampleConfig {
            batch_size: 128,
            fanouts: vec![8, 4],
            ..SampleConfig::default()
        },
        ..MiniBatchConfig::default()
    };
    let engine = Engine::builder(spec.clone())
        .sim_threads(sim_threads)
        .build()
        .expect("valid engine configuration");
    train_minibatch(&engine, &graph, &features, &labels, &cfg).expect("mini-batch training runs")
}

/// The pipelined-vs-serialized comparison plus the determinism check.
fn bench_sampling(spec: &GpuSpec) -> SamplingBench {
    let report = sampling_report(spec, 1);
    let deterministic = report.render() == sampling_report(spec, 4).render();
    let epochs: Vec<SamplingEpochRow> = report
        .epochs
        .iter()
        .map(|e| SamplingEpochRow {
            epoch: e.epoch,
            batches: e.num_batches,
            loss: e.loss,
            accuracy: e.accuracy,
            host_ms: e.host_ms,
            device_ms: e.device_ms,
            pipelined_ms: e.pipelined_ms,
            serialized_ms: e.serialized_ms,
            overlap_ratio: e.overlap_ratio(),
        })
        .collect();
    let host_ms: f64 = epochs.iter().map(|e| e.host_ms).sum();
    let device_ms: f64 = epochs.iter().map(|e| e.device_ms).sum();
    let pipelined_ms = report.pipelined_ms();
    let serialized_ms = report.serialized_ms();
    let host_bound = epochs.iter().all(|e| e.host_ms > e.device_ms);
    SamplingBench {
        graph: "community_graph(1200 nodes, 14400 edges, seed 41), 16-dim \
                noisy one-hot features, 4 classes"
            .into(),
        config: "batch 128 seeds, fan-outs [8, 4], neighbor sampling, \
                 dims [16, 16, 4], lr 0.4, 3 epochs"
            .into(),
        epochs,
        host_ms,
        device_ms,
        pipelined_ms,
        serialized_ms,
        pipeline_speedup: serialized_ms / pipelined_ms.max(1e-12),
        final_loss: report.final_loss(),
        final_accuracy: report.final_accuracy(),
        host_bound,
        deterministic,
    }
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
    /// Two-tier vs full-simulation tuning.
    tuning: TuningBench,
    /// Kernel co-residency under the block-level device core vs the old
    /// whole-kernel arbitration (simulated time, host-independent).
    occupancy: OccupancyBench,
    /// Cluster serving: goodput scaling across replica counts and
    /// per-tenant SLO attainment (simulated time, host-independent).
    cluster: ClusterBench,
    /// Dynamic-graph serving: hit-rate decay under churn without the
    /// re-renumbering policy vs recovered goodput with it (simulated
    /// time, host-independent).
    dynamic: DynamicBench,
    /// Sampling-based mini-batch training: host sampling pipelined
    /// against device training vs the serialized loop (simulated time,
    /// host-independent).
    sampling: SamplingBench,
    /// How to read the numbers on this host.
    note: String,
}

const LAUNCHES_PER_RUN: usize = 24;
const RUNS: usize = 5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Times one full workload (`LAUNCHES_PER_RUN` launches) on an engine,
/// checking run-to-run determinism against the warm-up metrics.
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

/// Two-tier vs full-simulation tuning on a moderate power-law graph (the
/// same workload the acceptance tests use).
fn bench_tuning(spec: &GpuSpec) -> TuningBench {
    let graph = barabasi_albert(2_000, 8, 42).expect("generator");
    let input = extract(&graph, 96, 16, 10, AggOrder::UpdateThenAggregate);
    let dim = input.aggregation_dim();
    let est_cfg = EstimatorConfig::default();

    // Pre-PR baseline: every candidate priced on the event-level engine,
    // duplicates re-simulated (memoization off).
    let raw_cfg = EstimatorConfig {
        memoize: false,
        ..est_cfg
    };
    let start = Instant::now();
    let est = Estimator::new(input.clone(), spec.clone(), raw_cfg);
    let full_best = est.tune_profiled(|p, e| {
        aggregation_metrics(&graph, dim, p, e).map_or(f64::INFINITY, |m| m.time_ms)
    });
    let full_sim_unmemoized_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Same search with the fitness memo cache (satellite win on its own).
    let start = Instant::now();
    let est = Estimator::new(input.clone(), spec.clone(), est_cfg);
    let memo_best = est.tune_profiled(|p, e| {
        aggregation_metrics(&graph, dim, p, e).map_or(f64::INFINITY, |m| m.time_ms)
    });
    let full_sim_memoized_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        full_best, memo_best,
        "memoization must not change the full-sim winner"
    );

    // The two-tier tuner end to end.
    let tt_cfg = TwoTierConfig {
        estimator: est_cfg,
        ..Default::default()
    };
    let start = Instant::now();
    let outcome = tune_two_tier(&input, spec, &tt_cfg, |p, e| {
        aggregation_metrics(&graph, dim, p, e)
    });
    let two_tier_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Per-candidate scoring cost, each tier on the same finalist sample.
    let sample: Vec<_> = outcome.pool.iter().take(3).map(|&(p, _)| p).collect();
    const REPS: usize = 256;
    let start = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..REPS {
        for p in &sample {
            sink += outcome.model.predict_us(p);
        }
    }
    std::hint::black_box(sink);
    let fast_path_per_candidate_us =
        start.elapsed().as_secs_f64() * 1e6 / (REPS * sample.len()) as f64;
    let engine = Engine::new(spec.clone());
    let start = Instant::now();
    for p in &sample {
        std::hint::black_box(aggregation_metrics(&graph, dim, p, &engine));
    }
    let full_sim_per_candidate_us = start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;

    let full_sim_winner_ms =
        aggregation_metrics(&graph, dim, &full_best, &engine).map_or(f64::INFINITY, |m| m.time_ms);
    let band = outcome.model.error_band();
    TuningBench {
        graph: "barabasi_albert(2000 nodes, attach 8, seed 42), feat dim 96".into(),
        full_sim_unmemoized_wall_ms,
        full_sim_memoized_wall_ms,
        two_tier_wall_ms,
        tuner_speedup: full_sim_unmemoized_wall_ms / two_tier_wall_ms.max(1e-9),
        calibration_error_band: band,
        fast_path_per_candidate_us,
        full_sim_per_candidate_us,
        scoring_speedup: full_sim_per_candidate_us / fast_path_per_candidate_us.max(1e-9),
        two_tier_winner_ms: outcome.best_engine_ms,
        full_sim_winner_ms,
        winner_within_band: outcome.best_engine_ms
            <= full_sim_winner_ms * (1.0 + band.max(0.05)) + 1e-12,
        engine_evals: outcome.engine_evals,
        fast_evals: outcome.fast_evals,
        memo_hits: outcome.memo_hits,
    }
}

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
    let tuning = bench_tuning(&spec);
    let occupancy = bench_occupancy(&spec);
    let cluster = bench_cluster(&spec);
    let dynamic = bench_dynamic(&spec);
    let sampling = bench_sampling(&spec);

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
        tuning,
        occupancy,
        cluster,
        dynamic,
        sampling,
        note: format!(
            "speedup_vs_serial is thread scaling and is bounded by host_cpus \
             (= {host_cpus} here, so worker counts above it cannot beat \
             1.0x).{skip_note}"
        ),
    };

    assert!(
        result.deterministic,
        "metrics must be bit-identical across worker counts"
    );
    assert!(
        result.tuning.winner_within_band,
        "two-tier winner must sit within the calibration band of the \
         full-sim winner"
    );
    assert!(
        result.occupancy.speedup > 1.0,
        "co-residency must beat whole-kernel serialization, got {:.3}x",
        result.occupancy.speedup
    );
    assert!(
        result.occupancy.max_coresident_kernels_per_sm >= 2,
        "blocks of both kernels must share an SM, got {}",
        result.occupancy.max_coresident_kernels_per_sm
    );
    assert_eq!(result.occupancy.kernels.len(), 2);
    for k in &result.occupancy.kernels {
        assert!(
            k.achieved_occupancy > 0.0 && k.achieved_occupancy <= 1.0,
            "stream {} occupancy {} out of range",
            k.stream,
            k.achieved_occupancy
        );
    }
    assert!(
        result.occupancy.deterministic,
        "the co-residency schedule must be identical across worker counts"
    );
    assert!(
        result.cluster.goodput_speedup >= 1.5,
        "replication must buy at least 1.5x goodput at 2+ replicas, got {:.2}x",
        result.cluster.goodput_speedup
    );
    assert!(
        result.cluster.deterministic,
        "the cluster report must render byte-identically across worker counts"
    );
    assert!(
        result.dynamic.without_policy.tail_hit_rate
            < result.dynamic.without_policy.head_hit_rate - 0.01,
        "churn must decay the measured hit-rate without the policy: head {:.4} tail {:.4}",
        result.dynamic.without_policy.head_hit_rate,
        result.dynamic.without_policy.tail_hit_rate,
    );
    assert!(
        result.dynamic.with_policy.renumbers > 0,
        "decay past the watermark must trigger a rebuild"
    );
    assert!(
        result.dynamic.goodput_recovery > 1.0,
        "re-renumbering must strictly beat the decayed layout, got {:.4}x",
        result.dynamic.goodput_recovery
    );
    assert!(
        result.dynamic.deterministic,
        "the dynamic report must render byte-identically across worker counts"
    );
    assert!(
        result.sampling.host_bound,
        "host metadata work must dominate device compute at hidden dim 16"
    );
    assert!(
        result.sampling.pipeline_speedup > 1.0,
        "pipelining must strictly beat the serialized loop, got {:.4}x",
        result.sampling.pipeline_speedup
    );
    for e in &result.sampling.epochs {
        assert!(
            e.pipelined_ms < e.serialized_ms,
            "epoch {}: pipelined {:.4} ms must beat serialized {:.4} ms",
            e.epoch,
            e.pipelined_ms,
            e.serialized_ms
        );
        assert!(
            e.overlap_ratio > 0.0 && e.overlap_ratio <= 1.0,
            "epoch {}: overlap ratio {} out of range",
            e.epoch,
            e.overlap_ratio
        );
    }
    assert!(
        result.sampling.deterministic,
        "the mini-batch report must render byte-identically across worker counts"
    );

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
        "hot loop: reused {:.2} ms vs fresh {:.2} ms ({:.2}x); tuner: two-tier {:.0} ms \
         vs full-sim {:.0} ms ({:.1}x), band {:.1}%",
        result.hot_loop.reused_context_wall_ms,
        result.hot_loop.fresh_context_wall_ms,
        result.hot_loop.arena_speedup,
        result.tuning.two_tier_wall_ms,
        result.tuning.full_sim_unmemoized_wall_ms,
        result.tuning.tuner_speedup,
        result.tuning.calibration_error_band * 100.0,
    );
    println!(
        "occupancy: 2 co-resident kernels finish in {:.4} ms vs {:.4} ms \
         serialized ({:.2}x); {} kernels/SM peak, per-kernel occupancy {:.4}/{:.4}",
        result.occupancy.coresident_makespan_ms,
        result.occupancy.coarse_serialized_ms,
        result.occupancy.speedup,
        result.occupancy.max_coresident_kernels_per_sm,
        result.occupancy.kernels[0].achieved_occupancy,
        result.occupancy.kernels[1].achieved_occupancy,
    );
    println!(
        "cluster: best goodput speedup {:.2}x over one replica; online tenant \
         SLO attainment at 2 replicas: {:.3}",
        result.cluster.goodput_speedup,
        result
            .cluster
            .tenants_at_two_replicas
            .iter()
            .find(|t| t.tenant == "online")
            .map_or(1.0, |t| t.slo_attainment),
    );
    println!(
        "dynamic: hit-rate {:.4} -> {:.4} without the policy; {} rebuild(s) \
         recover {:.4} and {:.3}x goodput",
        result.dynamic.without_policy.head_hit_rate,
        result.dynamic.without_policy.tail_hit_rate,
        result.dynamic.with_policy.renumbers,
        result.dynamic.with_policy.tail_hit_rate,
        result.dynamic.goodput_recovery,
    );
    println!(
        "sampling: pipelined {:.4} ms vs serialized {:.4} ms ({:.2}x); host \
         {:.4} ms vs device {:.4} ms; final loss {:.4}, accuracy {:.4}",
        result.sampling.pipelined_ms,
        result.sampling.serialized_ms,
        result.sampling.pipeline_speedup,
        result.sampling.host_ms,
        result.sampling.device_ms,
        result.sampling.final_loss,
        result.sampling.final_accuracy,
    );
}
