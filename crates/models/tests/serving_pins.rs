//! Byte-identity pins for the three serving entry points.
//!
//! `serving::simulate`, `cluster::simulate_cluster` and
//! `dynamic::simulate_dynamic` each turn an arrival trace into a report of
//! latency percentiles, rates, conservation buckets and schedule
//! statistics. These tests pin FNV-1a hashes of the bits of every report
//! field under faults, retries and deadlines, with the GCN executors the
//! CLI serves with. Each pin is checked at 1 and 4 simulation workers:
//! any change to batching, retry timing, placement or latency accounting
//! that moves one bit fails here.

use std::sync::Arc;

use gnnadvisor_core::cluster::{
    assign_tenants, simulate_cluster, AutoscalerConfig, ClusterConfig, ClusterReport, RouterPolicy,
    ScaleEvent, TenantRow, TenantSpec,
};
use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, DynamicReport, RenumberEvent,
    RenumberPolicy, SnapshotRow, UpdateStreamConfig,
};
use gnnadvisor_core::serving::{
    generate_arrivals, generate_mmpp_arrivals, simulate, ArrivalConfig, BatchPolicy, MmppConfig,
    QueuePolicy, Request, RetryPolicy, ServingConfig, ServingReport,
};
use gnnadvisor_core::RuntimeParams;
use gnnadvisor_gpu::{Engine, FaultConfig, FaultPlan, GpuSpec};
use gnnadvisor_graph::generators::{
    batched_graph, community_graph, BatchedParams, CommunityParams,
};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{DynamicGcnExecutor, GcnBatchExecutor};

/// Simulation worker counts every pin is checked at.
const THREADS: [usize; 2] = [1, 4];

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

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Folds every field of `r` into `h`; the exhaustive destructuring makes
/// a new report field a compile error here until it is pinned.
fn hash_serving(h: &mut Fnv, r: &ServingReport) {
    let ServingReport {
        completed,
        shed,
        failed,
        deadline_missed,
        retries,
        batches,
        p50_ms,
        p95_ms,
        p99_ms,
        mean_ms,
        throughput_rps,
        goodput_rps,
        makespan_ms,
        kernel_busy_cycles,
        copy_busy_cycles,
        mean_kernel_occupancy,
    } = r;
    for v in [completed, failed, deadline_missed, batches] {
        h.usize(*v);
    }
    for v in [shed, retries, kernel_busy_cycles, copy_busy_cycles] {
        h.u64(*v);
    }
    for v in [
        p50_ms,
        p95_ms,
        p99_ms,
        mean_ms,
        throughput_rps,
        goodput_rps,
        makespan_ms,
        mean_kernel_occupancy,
    ] {
        h.f64(*v);
    }
}

fn hash_tenant(h: &mut Fnv, t: &TenantRow) {
    let TenantRow {
        name,
        arrivals,
        completed,
        shed,
        failed,
        deadline_missed,
        p50_ms,
        p95_ms,
        p99_ms,
        mean_ms,
        goodput_rps,
        slo_attainment,
    } = t;
    h.str(name);
    for v in [arrivals, completed, failed, deadline_missed] {
        h.usize(*v);
    }
    h.u64(*shed);
    for v in [p50_ms, p95_ms, p99_ms, mean_ms, goodput_rps, slo_attainment] {
        h.f64(*v);
    }
}

fn hash_cluster(h: &mut Fnv, r: &ClusterReport) {
    let ClusterReport {
        tenants,
        completed,
        shed,
        failed,
        deadline_missed,
        retries,
        batches,
        per_replica_batches,
        per_replica_occupancy,
        dead_replicas,
        scale_events,
        peak_active,
        throughput_rps,
        goodput_rps,
        makespan_ms,
    } = r;
    h.usize(tenants.len());
    for t in tenants {
        hash_tenant(h, t);
    }
    for v in [completed, failed, deadline_missed, batches, peak_active] {
        h.usize(*v);
    }
    h.u64(*shed);
    h.u64(*retries);
    for list in [per_replica_batches, dead_replicas] {
        h.usize(list.len());
        for v in list {
            h.usize(*v);
        }
    }
    h.usize(per_replica_occupancy.len());
    for v in per_replica_occupancy {
        h.f64(*v);
    }
    h.usize(scale_events.len());
    for e in scale_events {
        let ScaleEvent { at_ms, from, to } = e;
        h.f64(*at_ms);
        h.usize(*from);
        h.usize(*to);
    }
    for v in [throughput_rps, goodput_rps, makespan_ms] {
        h.f64(*v);
    }
}

fn hash_dynamic(h: &mut Fnv, r: &DynamicReport) {
    let DynamicReport {
        serving,
        replicas,
        updates_applied,
        updates_noop,
        final_version,
        final_nodes,
        final_edges,
        compactions,
        renumbers,
        trajectory,
    } = r;
    hash_serving(h, serving);
    for v in [
        replicas,
        updates_applied,
        updates_noop,
        final_nodes,
        final_edges,
        compactions,
    ] {
        h.usize(*v);
    }
    h.u64(*final_version);
    h.usize(renumbers.len());
    for e in renumbers {
        let RenumberEvent {
            at_ms,
            version,
            windowed_rate,
            baseline_rate,
            rebuild_ms,
        } = e;
        h.u64(*version);
        for v in [at_ms, windowed_rate, baseline_rate, rebuild_ms] {
            h.f64(*v);
        }
    }
    h.usize(trajectory.len());
    for row in trajectory {
        let SnapshotRow {
            batch,
            dispatch_ms,
            version,
            hit_rate,
            windowed_rate,
        } = row;
        h.usize(*batch);
        h.u64(*version);
        h.f64(*dispatch_ms);
        h.f64(*hit_rate);
        h.opt_f64(*windowed_rate);
    }
}

/// An engine with a uniform fault plan (`rate == 0` attaches none).
fn engine(threads: usize, fault_rate: f64, seed: u64) -> Engine {
    let mut b = Engine::builder(GpuSpec::quadro_p6000()).sim_threads(threads);
    if fault_rate > 0.0 {
        b = b.fault_plan(Arc::new(
            FaultPlan::new(FaultConfig::uniform(fault_rate, seed)).expect("valid rate"),
        ));
    }
    b.build().expect("valid worker count")
}

/// A block-diagonal Type II dataset and a GCN executor over it.
fn gcn_executor() -> GcnBatchExecutor {
    let (g, comp) = batched_graph(
        &BatchedParams {
            num_nodes: 1_200,
            num_edges: 4_800,
            mean_graph_size: 30,
            graph_size_cv: 0.4,
        },
        17,
    )
    .expect("valid params");
    GcnBatchExecutor::new(&g, &comp, 32, 16, 4)
}

fn poisson(n: usize, gap_ms: f64, components: usize, seed: u64) -> Vec<Request> {
    generate_arrivals(&ArrivalConfig {
        num_requests: n,
        mean_interarrival_ms: gap_ms,
        num_components: components,
        seed,
    })
    .expect("valid trace")
}

fn retry(max_attempts: usize, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_base_ms: 0.1,
        seed,
        ..RetryPolicy::default()
    }
}

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "batch".into(),
            weight: 3,
            deadline_ms: None,
        },
        TenantSpec {
            name: "online".into(),
            weight: 1,
            deadline_ms: Some(0.6),
        },
    ]
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        replicas: 2,
        streams: 2,
        queue: QueuePolicy { capacity: 24 },
        batch: BatchPolicy {
            max_batch: 6,
            max_delay_ms: 0.2,
        },
        retry: retry(3, 5),
        router: RouterPolicy::CostAware,
        autoscaler: None,
    }
}

/// Compares computed pins against the expected table at every worker
/// count, reporting every mismatch in paste-ready form.
fn check(compute: impl Fn(usize) -> Vec<(String, u64)>, expected: &[(&str, u64)]) {
    for threads in THREADS {
        let actual = compute(threads);
        let want: Vec<(String, u64)> = expected
            .iter()
            .map(|&(name, pin)| (name.to_string(), pin))
            .collect();
        assert!(
            actual == want,
            "serving moved at {threads} sim threads; computed pins:\n{}",
            actual
                .iter()
                .map(|(name, pin)| format!("(\"{name}\", 0x{pin:016x}),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn faulted_serving_with_a_deadline_is_byte_identical() {
    check(
        |t| {
            let mut exec = gcn_executor();
            let arrivals = poisson(64, 0.05, exec.num_components(), 11);
            let cfg = ServingConfig {
                streams: 3,
                queue: QueuePolicy { capacity: 16 },
                batch: BatchPolicy {
                    max_batch: 6,
                    max_delay_ms: 0.3,
                },
                retry: retry(3, 11),
                deadline_ms: Some(0.5),
            };
            let r = simulate(&engine(t, 0.2, 11), &arrivals, &cfg, &mut exec).expect("serves");
            assert!(r.retries > 0 && r.deadline_missed > 0 && r.completed > 0);
            let mut h = Fnv::new();
            hash_serving(&mut h, &r);
            vec![("serve".to_string(), h.0)]
        },
        &[("serve", 0xd6522d5dab2e835e)],
    );
}

#[test]
fn cluster_serving_is_byte_identical() {
    check(
        |t| {
            let mut exec = gcn_executor();
            let mut pins = Vec::new();

            // Two tenants over 2 replicas x 2 streams, cost-aware routing,
            // faults and retries.
            let arrivals = poisson(64, 0.05, exec.num_components(), 13);
            let tenant_of = assign_tenants(&arrivals, &tenants(), 13).expect("valid");
            let engines: Vec<Engine> = (0..2).map(|r| engine(t, 0.2, 13 + r)).collect();
            let r = simulate_cluster(
                &engines,
                &arrivals,
                &tenant_of,
                &tenants(),
                &cluster_config(),
                &mut exec,
            )
            .expect("serves");
            assert!(r.retries > 0 && r.deadline_missed > 0 && r.completed > 0);
            let mut h = Fnv::new();
            hash_cluster(&mut h, &r);
            pins.push(("faulted".to_string(), h.0));

            // Bursty arrivals against an autoscaler over three slots.
            let arrivals = generate_mmpp_arrivals(&MmppConfig {
                num_requests: 160,
                phase_interarrival_ms: vec![0.01, 0.5],
                mean_dwell_ms: 1.0,
                num_components: exec.num_components(),
                seed: 3,
            })
            .expect("valid trace");
            let tenant_of = assign_tenants(&arrivals, &tenants(), 3).expect("valid");
            let mut cfg = cluster_config();
            cfg.replicas = 1;
            cfg.autoscaler = Some(AutoscalerConfig {
                min_replicas: 1,
                max_replicas: 3,
                interval_ms: 0.2,
                high_queue_depth: 4,
                low_queue_depth: 1,
                p99_high_ms: Some(1.0),
                consecutive: 1,
                seed: 3,
            });
            let engines: Vec<Engine> = (0..3).map(|r| engine(t, 0.1, 3 + r)).collect();
            let r = simulate_cluster(&engines, &arrivals, &tenant_of, &tenants(), &cfg, &mut exec)
                .expect("serves");
            assert!(r.scale_events.len() > 1 && r.peak_active > 1);
            let mut h = Fnv::new();
            hash_cluster(&mut h, &r);
            pins.push(("autoscale".to_string(), h.0));

            // A device reset kills replica 0; its traffic fails over.
            let arrivals = poisson(48, 0.05, exec.num_components(), 17);
            let tenant_of = assign_tenants(&arrivals, &tenants(), 17).expect("valid");
            let reset = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(t)
                .fault_plan(Arc::new(
                    FaultPlan::new(FaultConfig {
                        device_reset_ms: Some(0.3),
                        seed: 17,
                        ..FaultConfig::default()
                    })
                    .expect("valid"),
                ))
                .build()
                .expect("valid");
            let engines = [reset, engine(t, 0.1, 18)];
            let r = simulate_cluster(
                &engines,
                &arrivals,
                &tenant_of,
                &tenants(),
                &cluster_config(),
                &mut exec,
            )
            .expect("serves");
            assert_eq!(r.dead_replicas, vec![0]);
            let mut h = Fnv::new();
            hash_cluster(&mut h, &r);
            pins.push(("reset".to_string(), h.0));
            pins
        },
        &[
            ("faulted", 0x5fefa9ecd3c89302),
            ("autoscale", 0x31d8f19cc3fbb15c),
            ("reset", 0x7acec3e3c8203a55),
        ],
    );
}

#[test]
fn dynamic_serving_with_the_policy_is_byte_identical() {
    check(
        |t| {
            let (g, _) = community_graph(
                &CommunityParams {
                    num_nodes: 600,
                    num_edges: 6_000,
                    mean_community: 30,
                    community_size_cv: 0.3,
                    inter_fraction: 0.08,
                    shuffle_ids: true,
                },
                5,
            )
            .expect("valid params");
            let r = renumber(&g, &RenumberConfig::default()).expect("renumbers");
            let base: Csr = g.permute(&r.permutation).expect("permutes");
            let updates = generate_updates(
                &base,
                &UpdateStreamConfig {
                    num_updates: 1_500,
                    mean_interarrival_ms: 0.002,
                    delete_fraction: 0.15,
                    node_fraction: 0.25,
                    attach_degree: 6,
                    seed: 7,
                },
            )
            .expect("valid stream");
            let arrivals = poisson(96, 0.03, 1, 9);
            let cfg = DynamicConfig {
                serving: ServingConfig {
                    streams: 2,
                    queue: QueuePolicy { capacity: 32 },
                    batch: BatchPolicy {
                        max_batch: 4,
                        max_delay_ms: 0.1,
                    },
                    retry: retry(3, 9),
                    deadline_ms: Some(0.5),
                },
                policy: Some(RenumberPolicy {
                    window: 4,
                    watermark: 0.99,
                    cooldown_batches: 6,
                    rebuild_cost_us_per_edge: 0.001,
                }),
                compact_every: 128,
            };
            let engines = [engine(t, 0.1, 9), engine(t, 0.1, 10)];
            let mut exec =
                DynamicGcnExecutor::new(24, 32, 4, RuntimeParams::default()).expect("valid dims");
            let r = simulate_dynamic(&engines, base, &updates, &arrivals, &cfg, &mut exec)
                .expect("serves");
            assert!(r.serving.retries > 0 && r.serving.deadline_missed > 0);
            assert!(r.updates_applied > 0 && !r.renumbers.is_empty());
            let mut h = Fnv::new();
            hash_dynamic(&mut h, &r);
            vec![("dynamic".to_string(), h.0)]
        },
        &[("dynamic", 0x117e83ce446c7613)],
    );
}
