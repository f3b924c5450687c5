//! Differential oracles between the serving entry points.
//!
//! Plain serving is the degenerate case of the other two:
//!
//! - dynamic serving with one engine, no updates and no re-renumbering
//!   policy serves the same batches on the same round-robin streams;
//! - a cluster of one replica with one stream and one tenant, whose
//!   deadline is the serving deadline, places every batch on that stream
//!   under any router policy.
//!
//! So every report field must agree bit for bit. The runs cover faults,
//! retries, deadlines and admission shedding. (With two or more streams
//! a cluster is not plain serving: its router picks the least-busy
//! stream, where plain serving takes the next stream in turn.)

use std::sync::Arc;

use gnnadvisor_core::cluster::{simulate_cluster, ClusterConfig, RouterPolicy, TenantSpec};
use gnnadvisor_core::dynamic::{simulate_dynamic, DynamicConfig, SnapshotExecutor};
use gnnadvisor_core::kernels::spmm_dgl::StackingKernel;
use gnnadvisor_core::serving::{
    generate_arrivals, simulate, ArrivalConfig, BatchExecutor, BatchPolicy, BatchWork, DeviceWork,
    DispatchedBatch, QueuePolicy, Request, RetryPolicy, ServingConfig, ServingReport,
};
use gnnadvisor_core::Result;
use gnnadvisor_gpu::{Engine, FaultConfig, FaultPlan, GpuSpec};
use gnnadvisor_graph::Csr;

/// Per batch: an h2d copy, a GEMM and a stacking kernel whose rows scale
/// with the batch size, and a d2h copy.
struct GemmExecutor;

impl BatchExecutor for GemmExecutor {
    fn plan(&mut self, batch: &DispatchedBatch) -> Result<BatchWork> {
        let rows = 384 * batch.requests.len();
        let bytes = (rows * 32 * 4) as u64;
        Ok(BatchWork {
            ops: vec![
                DeviceWork::Transfer { bytes },
                DeviceWork::Gemm {
                    m: rows,
                    n: 32,
                    k: 32,
                },
                DeviceWork::Kernel(Box::new(StackingKernel::new(rows, 32))),
                DeviceWork::Transfer { bytes },
            ],
        })
    }
}

impl SnapshotExecutor for GemmExecutor {
    fn plan(&mut self, batch: &DispatchedBatch, _graph: &Csr, _version: u64) -> Result<BatchWork> {
        BatchExecutor::plan(self, batch)
    }
}

/// Plans no device work: every batch completes at its dispatch instant.
struct NoOps;

impl BatchExecutor for NoOps {
    fn plan(&mut self, _batch: &DispatchedBatch) -> Result<BatchWork> {
        Ok(BatchWork::default())
    }
}

fn engine(fault_rate: f64, seed: u64) -> Engine {
    let mut b = Engine::builder(GpuSpec::quadro_p6000());
    if fault_rate > 0.0 {
        b = b.fault_plan(Arc::new(
            FaultPlan::new(FaultConfig::uniform(fault_rate, seed)).expect("valid rate"),
        ));
    }
    b.build().expect("valid engine")
}

fn trace(seed: u64) -> Vec<Request> {
    generate_arrivals(&ArrivalConfig {
        num_requests: 40,
        mean_interarrival_ms: 0.03,
        num_components: 4,
        seed,
    })
    .expect("valid trace")
}

/// One serving shape of the sweep.
struct Case {
    streams: usize,
    fault_rate: f64,
    max_attempts: usize,
    deadline_ms: Option<f64>,
    queue_capacity: usize,
    seed: u64,
}

impl Case {
    fn config(&self) -> ServingConfig {
        ServingConfig {
            streams: self.streams,
            queue: QueuePolicy {
                capacity: self.queue_capacity,
            },
            batch: BatchPolicy {
                max_batch: 4,
                max_delay_ms: 0.1,
            },
            retry: RetryPolicy {
                max_attempts: self.max_attempts,
                backoff_base_ms: 0.05,
                seed: self.seed,
                ..RetryPolicy::default()
            },
            deadline_ms: self.deadline_ms,
        }
    }
}

/// Every combination of streams, fault rate, retry budget, deadline and
/// queue capacity over `streams`, each with its own seed.
fn cases(streams: std::ops::RangeInclusive<usize>) -> Vec<Case> {
    let mut out = Vec::new();
    for streams in streams {
        for fault_rate in [0.0, 0.25] {
            for max_attempts in [1, 3] {
                for deadline_ms in [None, Some(0.3)] {
                    for queue_capacity in [3, 64] {
                        let seed = out.len() as u64 + 1;
                        out.push(Case {
                            streams,
                            fault_rate,
                            max_attempts,
                            deadline_ms,
                            queue_capacity,
                            seed,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The debug form prints every field, and each `f64` as its shortest
/// round-trip decimal, so equal strings mean bitwise-equal reports.
fn bits(r: &ServingReport) -> String {
    format!("{r:?}")
}

#[test]
fn plain_serving_equals_dynamic_serving_without_updates() {
    let base = Csr::from_raw(2, vec![0, 1, 2], vec![1, 0]).expect("valid csr");
    let (mut shed, mut retried, mut missed) = (false, false, false);
    for case in cases(1..=3) {
        let cfg = case.config();
        let arrivals = trace(case.seed);
        let plain = simulate(
            &engine(case.fault_rate, case.seed),
            &arrivals,
            &cfg,
            &mut GemmExecutor,
        )
        .expect("serves");
        let dynamic = simulate_dynamic(
            &[engine(case.fault_rate, case.seed)],
            base.clone(),
            &[],
            &arrivals,
            &DynamicConfig {
                serving: cfg,
                policy: None,
                compact_every: 0,
            },
            &mut GemmExecutor,
        )
        .expect("serves");
        assert_eq!(
            bits(&plain),
            bits(&dynamic.serving),
            "streams {} fault rate {} attempts {} deadline {:?} capacity {}",
            case.streams,
            case.fault_rate,
            case.max_attempts,
            case.deadline_ms,
            case.queue_capacity
        );
        shed |= plain.shed > 0;
        retried |= plain.retries > 0;
        missed |= plain.deadline_missed > 0;
    }
    assert!(
        shed && retried && missed,
        "the sweep must shed, retry and miss"
    );
}

#[test]
fn a_one_stream_single_tenant_cluster_equals_plain_serving() {
    let mut shed = false;
    for policy in [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::CostAware,
    ] {
        for case in cases(1..=1) {
            for zero_ops in [false, true] {
                let exec = || -> Box<dyn BatchExecutor> {
                    if zero_ops {
                        Box::new(NoOps)
                    } else {
                        Box::new(GemmExecutor)
                    }
                };
                let cfg = case.config();
                let arrivals = trace(case.seed);
                let plain = simulate(
                    &engine(case.fault_rate, case.seed),
                    &arrivals,
                    &cfg,
                    &mut *exec(),
                )
                .expect("serves");
                let tenant = TenantSpec {
                    name: "only".into(),
                    weight: 1,
                    deadline_ms: cfg.deadline_ms,
                };
                let cluster = simulate_cluster(
                    &[engine(case.fault_rate, case.seed)],
                    &arrivals,
                    &vec![0; arrivals.len()],
                    &[tenant],
                    &ClusterConfig {
                        replicas: 1,
                        streams: 1,
                        queue: cfg.queue.clone(),
                        batch: cfg.batch.clone(),
                        retry: cfg.retry.clone(),
                        router: policy,
                        autoscaler: None,
                    },
                    &mut *exec(),
                )
                .expect("serves");
                let row = &cluster.tenants[0];
                // The cluster report carries no busy cycles; every other
                // serving field has a cluster counterpart.
                let as_serving = ServingReport {
                    completed: cluster.completed,
                    shed: cluster.shed,
                    failed: cluster.failed,
                    deadline_missed: cluster.deadline_missed,
                    retries: cluster.retries,
                    batches: cluster.batches,
                    p50_ms: row.p50_ms,
                    p95_ms: row.p95_ms,
                    p99_ms: row.p99_ms,
                    mean_ms: row.mean_ms,
                    throughput_rps: cluster.throughput_rps,
                    goodput_rps: row.goodput_rps,
                    makespan_ms: cluster.makespan_ms,
                    kernel_busy_cycles: plain.kernel_busy_cycles,
                    copy_busy_cycles: plain.copy_busy_cycles,
                    mean_kernel_occupancy: cluster.per_replica_occupancy[0],
                };
                assert_eq!(
                    bits(&plain),
                    bits(&as_serving),
                    "{policy:?} zero ops {zero_ops} fault rate {} attempts {} deadline {:?} \
                     capacity {}",
                    case.fault_rate,
                    case.max_attempts,
                    case.deadline_ms,
                    case.queue_capacity
                );
                assert_eq!(cluster.goodput_rps.to_bits(), row.goodput_rps.to_bits());
                shed |= plain.shed > 0;
            }
        }
    }
    assert!(shed, "the sweep must shed");
}
