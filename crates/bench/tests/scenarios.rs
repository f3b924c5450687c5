//! Simulated scenarios behind the reproduction's claims beyond the paper's
//! figures: kernel co-residency, replica goodput scaling, renumbering
//! locality that decays under churn and a rebuild that wins it back
//! (§6.1's locality argument, on a live graph), the pipelined mini-batch
//! loop, the two-tier tuner's calibration band, retries under injected
//! faults, and stream overlap in serving.
//!
//! Each test asserts its claim on the library report. The tests of the
//! first five scenarios also check the report is byte-identical at 1 and 4
//! simulation workers and pin every simulated number the scenario produces
//! with an FNV-1a hash over the f64 bits, so a change that moves one cycle
//! of any scenario fails here even when the claim still holds; the retry
//! and overlap tests check that two runs produce identical reports.

use std::sync::{Arc, OnceLock};

use gnnadvisor_bench::ExperimentConfig;
use gnnadvisor_core::cluster::{
    assign_tenants, simulate_cluster, ClusterConfig, ClusterReport, RouterPolicy, TenantSpec,
};
use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, DynamicReport, PreparedSnapshot,
    RenumberPolicy, SnapshotAggregationKernel, SnapshotExecutor, UpdateStreamConfig,
};
use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::serving::{
    generate_arrivals, simulate, ArrivalConfig, BatchPolicy, BatchWork, DeviceWork,
    DispatchedBatch, QueuePolicy, RetryPolicy, ServingConfig, ServingReport,
};
use gnnadvisor_core::tuning::{
    aggregation_metrics, tune_two_tier, Estimator, EstimatorConfig, TwoTierConfig,
};
use gnnadvisor_core::RuntimeParams;
use gnnadvisor_gpu::{
    Engine, FaultConfig, FaultPlan, GpuSpec, OpClass, StreamReport, StreamSim, Workload,
};
use gnnadvisor_graph::generators::{
    barabasi_albert, batched_graph, community_graph, BatchedParams, CommunityParams,
};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::sample::SampleConfig;
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{train_minibatch, GcnBatchExecutor, MiniBatchConfig, MiniBatchReport};
use gnnadvisor_tensor::Matrix;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Fails with the observed hash, ready to paste, when it moved.
    fn check(&self, scenario: &str, pin: u64) {
        assert_eq!(
            self.0, pin,
            "{scenario}: simulated numbers moved; new hash 0x{:016x}",
            self.0
        );
    }
}

fn spec() -> GpuSpec {
    GpuSpec::quadro_p6000()
}

fn engine(sim_threads: usize) -> Engine {
    Engine::builder(spec())
        .sim_threads(sim_threads)
        .build()
        .expect("valid engine configuration")
}

/// Two 30-block GEMMs (one block per SM each, two per SM co-resident)
/// released at the same instant on independent streams. Returns the
/// block-level schedule and what whole-kernel arbitration produced: the
/// kernels back to back, the sum of their standalone elapsed times.
fn coresidency(sim_threads: usize) -> (StreamReport, f64) {
    let gemm = Workload::Gemm {
        m: 30 * 64,
        n: 64,
        k: 256,
    };
    let engine = engine(sim_threads);
    let mut sim = StreamSim::new(&engine);
    let mut standalone_ms = 0.0;
    for _ in 0..2 {
        let s = sim.stream();
        let clean = engine
            .price(&mut engine.lock_context(), gemm)
            .expect("prices");
        let placed = sim.enqueue_priced(s, sim.draw(&clean), 0);
        standalone_ms += placed.expect("valid stream").metrics.time_ms();
    }
    (sim.run().expect("schedule commits"), standalone_ms)
}

#[test]
fn coresident_kernels_beat_whole_kernel_serialization() {
    let (report, coarse_serialized_ms) = coresidency(1);
    assert!(
        report == coresidency(4).0,
        "the co-residency schedule must be identical across worker counts"
    );
    let speedup = coarse_serialized_ms / report.makespan_ms.max(1e-12);
    assert!(
        speedup > 1.0,
        "co-residency must beat whole-kernel serialization, got {speedup:.3}x"
    );
    assert!(
        report.max_coresident_kernels_per_sm >= 2,
        "blocks of both kernels must share an SM, got {}",
        report.max_coresident_kernels_per_sm
    );
    let kernels: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.class == OpClass::Kernel)
        .collect();
    assert_eq!(kernels.len(), 2);
    for k in &kernels {
        assert!(
            k.occupancy > 0.0 && k.occupancy <= 1.0,
            "stream {} occupancy {} out of range",
            k.stream.index(),
            k.occupancy
        );
    }

    let spec = spec();
    let mut h = Fnv::new();
    h.f64(coarse_serialized_ms);
    h.f64(report.makespan_ms);
    h.f64(speedup);
    h.u64(u64::from(report.max_coresident_kernels_per_sm));
    h.u64(report.peak_resident_warps);
    for k in &kernels {
        h.u64(k.stream.index() as u64);
        h.f64(spec.cycles_to_ms(k.start_cycles));
        h.f64(spec.cycles_to_ms(k.end_cycles));
        h.f64(k.occupancy);
    }
    h.check("co-residency", 0x39446ea40fb08d71);
}

/// The cluster serving pipeline at one replica count. A Type II batched
/// workload with wide features and fat component graphs: the offered rate
/// sits far above one device's capacity, so the schedule is device-limited
/// and replication moves the span (a light workload pins goodput to the
/// arrival window and every replica count ties).
fn cluster_report(replicas: usize, sim_threads: usize) -> ClusterReport {
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
    let engines: Vec<Engine> = (0..replicas).map(|_| engine(sim_threads)).collect();
    simulate_cluster(&engines, &arrivals, &tenant_of, &tenants, &cfg, &mut exec)
        .expect("cluster simulation runs")
}

#[test]
fn replication_scales_cluster_goodput() {
    let counts = [1usize, 2, 4];
    let reports: Vec<ClusterReport> = counts.iter().map(|&r| cluster_report(r, 1)).collect();
    assert!(
        reports[1].render() == cluster_report(2, 4).render(),
        "the cluster report must render byte-identically across worker counts"
    );
    let single = reports[0].goodput_rps.max(1e-12);
    let goodput_speedup = reports[1..]
        .iter()
        .map(|r| r.goodput_rps / single)
        .fold(0.0, f64::max);
    assert!(
        goodput_speedup >= 1.5,
        "replication must buy at least 1.5x goodput at 2+ replicas, got {goodput_speedup:.2}x"
    );

    let mut h = Fnv::new();
    for (&replicas, r) in counts.iter().zip(&reports) {
        h.u64(replicas as u64);
        h.f64(r.goodput_rps);
        h.f64(r.makespan_ms);
        h.f64(r.goodput_rps / single);
    }
    h.f64(goodput_speedup);
    for t in &reports[1].tenants {
        h.str(&t.name);
        h.u64(t.arrivals as u64);
        h.u64(t.completed as u64);
        h.f64(t.slo_attainment);
    }
    h.check("cluster", 0x1888368b54a2a4d1);
}

/// Aggregation-only snapshot executor: one advisor aggregation over the
/// live snapshot per batch, so the measured hit-rate *is* the layout's
/// locality (the models-crate GCN executor adds GEMM/stacking traffic
/// that dilutes the signal).
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

fn renumber_policy() -> RenumberPolicy {
    RenumberPolicy {
        window: 8,
        watermark: 0.95,
        cooldown_batches: 30,
        rebuild_cost_us_per_edge: 0.0005,
    }
}

/// One arm of the dynamic scenario: a freshly renumbered community graph
/// under attachment-heavy churn (10000 updates: 15% deletes, 25% node
/// arrivals attaching 6 community edges, the rest uniform inserts), with
/// arrivals paced to saturate the device so goodput measures kernel
/// speed, not the arrival window.
fn dynamic_report(policy: Option<RenumberPolicy>, sim_threads: usize) -> DynamicReport {
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
    let mut exec = AggExecutor {
        dim: 32,
        prepared: None,
    };
    simulate_dynamic(
        &[engine(sim_threads)],
        base,
        &updates,
        &arrivals,
        &cfg,
        &mut exec,
    )
    .expect("dynamic simulation runs")
}

/// The decay arm (no policy) at 1 worker, shared by the tests that read it.
fn without_policy() -> &'static DynamicReport {
    static REPORT: OnceLock<DynamicReport> = OnceLock::new();
    REPORT.get_or_init(|| dynamic_report(None, 1))
}

/// The recovery arm (watermark-triggered rebuild) at 1 worker.
fn with_policy() -> &'static DynamicReport {
    static REPORT: OnceLock<DynamicReport> = OnceLock::new();
    REPORT.get_or_init(|| dynamic_report(Some(renumber_policy()), 1))
}

/// Folds one arm's goodput, head/tail hit-rates, rebuild count, final
/// version and whole hit-rate trajectory into `h`.
fn hash_arm(h: &mut Fnv, r: &DynamicReport) {
    h.f64(r.serving.goodput_rps);
    h.f64(r.head_hit_rate(8));
    h.f64(r.tail_hit_rate(8));
    h.u64(r.renumbers.len() as u64);
    h.u64(r.final_version);
    for row in &r.trajectory {
        h.u64(row.batch as u64);
        h.u64(row.version);
        h.f64(row.hit_rate);
    }
}

#[test]
fn churn_decays_the_renumbered_layout_without_the_policy() {
    let without = without_policy();
    assert!(
        without.tail_hit_rate(8) < without.head_hit_rate(8) - 0.01,
        "churn must decay the measured hit-rate without the policy: head {:.4} tail {:.4}",
        without.head_hit_rate(8),
        without.tail_hit_rate(8),
    );
    let mut h = Fnv::new();
    hash_arm(&mut h, without);
    h.check("dynamic without policy", 0x40d8cd15e46683ad);
}

#[test]
fn a_locality_rebuild_recovers_goodput() {
    let with = with_policy();
    let without = without_policy();
    assert!(
        !with.renumbers.is_empty(),
        "decay past the watermark must trigger a rebuild"
    );
    let goodput_recovery = with.serving.goodput_rps / without.serving.goodput_rps.max(1e-12);
    assert!(
        goodput_recovery > 1.0,
        "re-renumbering must strictly beat the decayed layout, got {goodput_recovery:.4}x"
    );
    let mut h = Fnv::new();
    hash_arm(&mut h, with);
    h.f64(goodput_recovery);
    h.check("dynamic with policy", 0xdd1e01546f43f344);
}

#[test]
fn dynamic_report_is_identical_across_worker_counts() {
    assert!(
        with_policy().render() == dynamic_report(Some(renumber_policy()), 4).render(),
        "the dynamic report must render byte-identically across worker counts"
    );
}

/// Mini-batch GCN training on a community graph with noisy one-hot
/// features: batch 128 seeds, fan-outs [8, 4], dims [16, 16, 4], 3 epochs.
fn minibatch_report(sim_threads: usize) -> MiniBatchReport {
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
    train_minibatch(&engine(sim_threads), &graph, &features, &labels, &cfg)
        .expect("mini-batch training runs")
}

#[test]
fn pipelined_sampling_beats_the_serialized_loop() {
    let report = minibatch_report(1);
    assert!(
        report.render() == minibatch_report(4).render(),
        "the mini-batch report must render byte-identically across worker counts"
    );
    assert!(
        report.epochs.iter().all(|e| e.host_ms > e.device_ms),
        "host metadata work must dominate device compute at hidden dim 16"
    );
    let pipeline_speedup = report.serialized_ms() / report.pipelined_ms().max(1e-12);
    assert!(
        pipeline_speedup > 1.0,
        "pipelining must strictly beat the serialized loop, got {pipeline_speedup:.4}x"
    );
    for e in &report.epochs {
        assert!(
            e.pipelined_ms < e.serialized_ms,
            "epoch {}: pipelined {:.4} ms must beat serialized {:.4} ms",
            e.epoch,
            e.pipelined_ms,
            e.serialized_ms
        );
        assert!(
            e.overlap_ratio() > 0.0 && e.overlap_ratio() <= 1.0,
            "epoch {}: overlap ratio {} out of range",
            e.epoch,
            e.overlap_ratio()
        );
    }

    let mut h = Fnv::new();
    for e in &report.epochs {
        h.u64(e.epoch as u64);
        h.u64(e.num_batches as u64);
        for v in [
            e.loss,
            e.accuracy,
            e.host_ms,
            e.device_ms,
            e.pipelined_ms,
            e.serialized_ms,
            e.overlap_ratio(),
        ] {
            h.f64(v);
        }
    }
    h.f64(report.epochs.iter().map(|e| e.host_ms).sum());
    h.f64(report.epochs.iter().map(|e| e.device_ms).sum());
    h.f64(report.pipelined_ms());
    h.f64(report.serialized_ms());
    h.f64(pipeline_speedup);
    h.f64(report.final_loss());
    h.f64(report.final_accuracy());
    h.check("mini-batch", 0x8439e500fba74218);
}

/// Two-tier vs full-simulation tuning on a moderate power-law graph
/// (`barabasi_albert(2000, 8, seed 42)`, feature dim 96).
#[test]
fn two_tier_winner_sits_within_the_calibration_band() {
    let graph = barabasi_albert(2_000, 8, 42).expect("generator");
    let input = extract(&graph, 96, 16, 10, AggOrder::UpdateThenAggregate);
    let dim = input.aggregation_dim();
    let full_best = Estimator::new(input.clone(), spec(), EstimatorConfig::default())
        .tune_profiled(|p, e| {
            aggregation_metrics(&graph, dim, p, e).map_or(f64::INFINITY, |m| m.time_ms)
        });
    let outcome = tune_two_tier(&input, &spec(), &TwoTierConfig::default(), |p, e| {
        aggregation_metrics(&graph, dim, p, e)
    });
    let full_sim_winner_ms = aggregation_metrics(&graph, dim, &full_best, &Engine::new(spec()))
        .map_or(f64::INFINITY, |m| m.time_ms);
    let band = outcome.model.error_band();
    assert!(
        outcome.best_engine_ms <= full_sim_winner_ms * (1.0 + band.max(0.05)) + 1e-12,
        "two-tier winner {} ms must sit within the calibration band {band} of the \
         full-sim winner {full_sim_winner_ms} ms",
        outcome.best_engine_ms
    );

    let mut h = Fnv::new();
    h.f64(band);
    h.f64(outcome.best_engine_ms);
    h.f64(full_sim_winner_ms);
    h.u64(outcome.engine_evals as u64);
    h.u64(outcome.fast_evals as u64);
    h.u64(outcome.memo_hits as u64);
    h.check("tuning", 0x95748f2b9946b03e);
}

/// Injected fault rate of the retry scenario: high enough that several
/// batches fault, low enough that a small retry budget absorbs nearly all
/// of them.
const FAULT_RATE: f64 = 0.2;

/// One served trace over a Type II batched dataset (many small independent
/// graphs, the workload class the paper serves with mini-batching, §8.3)
/// at scale 0.05: 96 requests in batches of up to four, with features wide
/// enough that the H2D copies are heavy. A fresh engine per run, so every
/// run under `faults` sees the identical fault sequence (the plan's op
/// counter restarts).
fn serve_batched(
    streams: usize,
    mean_interarrival_ms: f64,
    retry: RetryPolicy,
    faults: Option<FaultPlan>,
) -> ServingReport {
    let cfg = ExperimentConfig::at_scale(0.05);
    let nodes = ((8_000.0 * (cfg.scale / 0.05)) as usize).clamp(800, 80_000);
    let (graph, components) = batched_graph(
        &BatchedParams {
            num_nodes: nodes,
            num_edges: nodes * 4,
            mean_graph_size: 100,
            graph_size_cv: 0.4,
        },
        cfg.seed.wrapping_add(31),
    )
    .expect("valid batched dataset");
    let mut exec = GcnBatchExecutor::new(&graph, &components, 256, 64, 10);
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: 96,
        mean_interarrival_ms,
        num_components: exec.num_components(),
        seed: cfg.seed.wrapping_add(7),
    })
    .expect("valid arrival config");
    let serving = ServingConfig {
        streams,
        queue: QueuePolicy { capacity: 96 },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 1.0,
        },
        retry,
        deadline_ms: None,
    };
    let mut builder = Engine::builder(cfg.spec.clone());
    if let Some(plan) = faults {
        builder = builder.fault_plan(Arc::new(plan));
    }
    let engine = builder.build().expect("valid engine configuration");
    simulate(&engine, &arrivals, &serving, &mut exec).expect("serving simulation runs")
}

/// The same trace with retries disabled (every faulted batch fails
/// outright) and with a budget of three, under one seeded fault plan.
fn retry_reports() -> [ServingReport; 2] {
    let seed = ExperimentConfig::at_scale(0.05).seed;
    [0usize, 3].map(|retries| {
        let retry = RetryPolicy {
            max_attempts: retries + 1,
            backoff_base_ms: 0.25,
            seed,
            ..RetryPolicy::default()
        };
        let plan =
            FaultPlan::new(FaultConfig::uniform(FAULT_RATE, seed)).expect("valid fault rate");
        serve_batched(2, 0.05, retry, Some(plan))
    })
}

/// Bounded retries with backoff restore goodput (in-deadline completions
/// per second) when the device injects transfer failures, kernel
/// slowdowns and timeouts.
#[test]
fn retries_recover_goodput_and_are_deterministic() {
    let a = retry_reports();
    let b = retry_reports();
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "scenario must be deterministic"
    );
    let [no_retry, with_retry] = &a;
    assert!(
        no_retry.failed > 0,
        "a {FAULT_RATE} fault rate must fail batches without retries"
    );
    assert!(with_retry.retries > 0);
    assert!(with_retry.completed > no_retry.completed);
    assert!(
        with_retry.goodput_rps > no_retry.goodput_rps,
        "retry goodput {} must beat no-retry goodput {}",
        with_retry.goodput_rps,
        no_retry.goodput_rps
    );
    let goodput_recovery = with_retry.goodput_rps / no_retry.goodput_rps.max(1e-12);
    assert!(goodput_recovery > 1.0);
}

/// The same trace on 1 (the CUDA default-stream behaviour), 2 and 4
/// streams, offered far above device capacity so batches pile up at the
/// batcher and the schedule is device-limited, not arrival-limited.
fn stream_reports() -> [ServingReport; 3] {
    [1usize, 2, 4].map(|streams| serve_batched(streams, 0.005, RetryPolicy::default(), None))
}

/// Copy/compute overlap and SM co-residency shrink the makespan of a
/// served trace without changing any per-batch cost.
#[test]
fn overlap_beats_serialized_and_is_deterministic() {
    let a = stream_reports();
    let b = stream_reports();
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "scenario must be deterministic"
    );
    assert!(a.len() == 3);
    let serialized = a[0].makespan_ms;
    let best_overlapped = a[1..]
        .iter()
        .map(|r| r.makespan_ms)
        .fold(f64::INFINITY, f64::min);
    let overlap_speedup = serialized / best_overlapped.max(1e-12);
    assert!(
        overlap_speedup > 1.0,
        "overlapped streams must beat serialized: {:?}",
        a.iter().map(|r| r.makespan_ms).collect::<Vec<_>>()
    );
    // Overlap may only help: every multi-stream makespan is bounded by
    // the serialized one.
    for r in &a[1..] {
        assert!(r.makespan_ms <= serialized);
    }
}
