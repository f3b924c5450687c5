//! Cluster-level serving: replicated engines behind one router.
//!
//! [`crate::serving`] serves one simulated GPU. This module scales that
//! pipeline out the way real inference fleets do — N replicated engines
//! behind a deterministic router — while keeping the workspace's
//! bit-reproducibility contract:
//!
//! - **tenants** ([`tenant`]): traffic classes with their own deadlines
//!   and weighted-fair admission at the shared bounded queue, so a heavy
//!   tenant's burst cannot starve a light tenant's SLO;
//! - **routing** ([`router`]): each tenant-pure batch lands on a replica
//!   chosen round-robin, by least in-flight batches, or by least
//!   estimated backlog cycles — the router folds over its own cost
//!   estimates, never device state, so placement is deterministic;
//! - **autoscaling** ([`autoscaler`]): a seeded controller steps the
//!   active replica count on queue-depth and p99 signals with streak
//!   hysteresis; scale-down drains (committed batches finish);
//! - **failover**: a batch whose attempt faults retries *elsewhere*
//!   (the faulted replica is excluded from the next attempt's routing),
//!   and a device reset kills its replica for the rest of the run.
//!
//! [`simulate_cluster`] ties it together and aggregates a
//! [`ClusterReport`] with per-tenant goodput and SLO attainment under the
//! cluster-wide conservation invariant: summed across replicas,
//! `completed + shed + failed + deadline_missed == arrivals`. Batches run
//! through the serving layer's batch runner, with the router and the
//! failover rule placing each attempt, and requests are accounted in its
//! latency ledger, one class per tenant. A cluster of one replica with
//! one stream and one tenant reports exactly what
//! [`crate::serving::simulate`] reports; with more streams it does not,
//! because the router picks the least-busy stream where plain serving
//! takes the next stream in turn. The report
//! renders byte-identically across runs and `GNNADVISOR_SIM_THREADS`
//! settings — pricing is worker-count-invariant and every policy above is
//! a seeded pure fold.

pub mod autoscaler;
pub mod router;
pub mod tenant;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleEvent};
pub use router::{Placement, Router, RouterPolicy};
pub use tenant::{
    assign_tenants, plan_cluster_batches, validate_tenants, ClusterBatch, ClusterPlan, TenantSpec,
};

use gnnadvisor_gpu::fault::FaultKind;
use gnnadvisor_gpu::{Engine, GpuSpec};

use crate::serving::ledger::RunningPercentile;
use crate::serving::runner::{Attempt, Fleet, Outcome, Placer};
use crate::serving::{BatchExecutor, BatchPolicy, QueuePolicy, Request, RetryPolicy};
use crate::{CoreError, Result};

/// Shape of the cluster: replica/stream counts plus the shared policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Replicas active at start (the autoscaler may move this within its
    /// bounds); at least 1.
    pub replicas: usize,
    /// Concurrent device streams per replica.
    pub streams: usize,
    /// Shared admission queue (weighted-fair across tenants).
    pub queue: QueuePolicy,
    /// Dynamic batching policy (shared triggers, tenant-pure batches).
    pub batch: BatchPolicy,
    /// Re-submission policy for faulted batches; retries route away from
    /// the replica that faulted.
    pub retry: RetryPolicy,
    /// Replica selection policy.
    pub router: RouterPolicy,
    /// Optional replica autoscaler.
    pub autoscaler: Option<AutoscalerConfig>,
}

/// Per-tenant slice of the cluster report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Tenant display name.
    pub name: String,
    /// Requests the trace assigned to this tenant.
    pub arrivals: usize,
    /// Requests completed within the tenant's deadline.
    pub completed: usize,
    /// Requests shed (or evicted) at admission.
    pub shed: u64,
    /// Requests whose batch exhausted its retry budget.
    pub failed: usize,
    /// Requests served later than the tenant's deadline.
    pub deadline_missed: usize,
    /// Median in-deadline latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile in-deadline latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile in-deadline latency, ms.
    pub p99_ms: f64,
    /// Mean in-deadline latency, ms.
    pub mean_ms: f64,
    /// In-deadline completions per second of schedule span.
    pub goodput_rps: f64,
    /// `completed / arrivals` — the fraction of offered traffic served
    /// within SLO (1 when the tenant offered nothing).
    pub slo_attainment: f64,
}

/// Aggregate result of one cluster serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Per-tenant rows, in roster order.
    pub tenants: Vec<TenantRow>,
    /// Total in-deadline completions.
    pub completed: usize,
    /// Total requests shed at admission.
    pub shed: u64,
    /// Total requests failed on retry exhaustion.
    pub failed: usize,
    /// Total requests served past their deadline.
    pub deadline_missed: usize,
    /// Batch re-submissions caused by faults.
    pub retries: u64,
    /// Tenant-pure batches the planner dispatched.
    pub batches: usize,
    /// Batch submissions (including retries) each replica slot received.
    pub per_replica_batches: Vec<usize>,
    /// Duration-weighted mean achieved kernel occupancy per replica slot,
    /// in `[0, 1]` (`0` for a slot that ran no kernels).
    pub per_replica_occupancy: Vec<f64>,
    /// Replica slots killed by a device reset during the run.
    pub dead_replicas: Vec<usize>,
    /// Autoscaler steps, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Most replicas simultaneously active.
    pub peak_active: usize,
    /// Served requests (completed + missed) per second of schedule span.
    pub throughput_rps: f64,
    /// In-deadline completions per second of schedule span.
    pub goodput_rps: f64,
    /// End of the last device op across all replicas, ms.
    pub makespan_ms: f64,
}

impl ClusterReport {
    /// Renders the report as a deterministic fixed-precision table (the
    /// CLI prints this; CI diffs it byte-for-byte across runs and worker
    /// counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster-serving report\n");
        out.push_str(&format!(
            "  replicas             {} slots, peak active {}\n",
            self.per_replica_batches.len(),
            self.peak_active
        ));
        out.push_str(&format!("  batches dispatched   {}\n", self.batches));
        let loads: Vec<String> = self
            .per_replica_batches
            .iter()
            .map(|n| n.to_string())
            .collect();
        out.push_str(&format!("  replica submissions  {}\n", loads.join("/")));
        let occ: Vec<String> = self
            .per_replica_occupancy
            .iter()
            .map(|o| format!("{o:.4}"))
            .collect();
        out.push_str(&format!("  replica occupancy    {}\n", occ.join("/")));
        out.push_str(&format!("  batch retries        {}\n", self.retries));
        if self.dead_replicas.is_empty() {
            out.push_str("  dead replicas        none\n");
        } else {
            let dead: Vec<String> = self.dead_replicas.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("  dead replicas        {}\n", dead.join(",")));
        }
        if self.scale_events.is_empty() {
            out.push_str("  scale events         none\n");
        } else {
            let steps: Vec<String> = self
                .scale_events
                .iter()
                .map(|e| format!("{}->{}@{:.3}ms", e.from, e.to, e.at_ms))
                .collect();
            out.push_str(&format!("  scale events         {}\n", steps.join(" ")));
        }
        out.push_str(&format!(
            "  totals               completed {} shed {} failed {} missed {}\n",
            self.completed, self.shed, self.failed, self.deadline_missed
        ));
        out.push_str(&format!(
            "  throughput           {:.3} req/s\n",
            self.throughput_rps
        ));
        out.push_str(&format!(
            "  goodput              {:.3} req/s\n",
            self.goodput_rps
        ));
        out.push_str(&format!(
            "  makespan             {:.3} ms\n",
            self.makespan_ms
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "  tenant {:<12} arrivals {} completed {} shed {} failed {} missed {} \
                 p50 {:.3} p95 {:.3} p99 {:.3} goodput {:.3} slo {:.4}\n",
                t.name,
                t.arrivals,
                t.completed,
                t.shed,
                t.failed,
                t.deadline_missed,
                t.p50_ms,
                t.p95_ms,
                t.p99_ms,
                t.goodput_rps,
                t.slo_attainment
            ));
        }
        out
    }
}

/// The cluster's control plane as it places each attempt of a batch:
/// the active replica set, the router's estimates, and failover.
struct Control {
    router: Router,
    /// The router keeps time in replica 0's cycles (every CLI and bench
    /// path builds identical specs; with mixed specs the estimates stay
    /// deterministic, merely coarser).
    clock: GpuSpec,
    active: Vec<usize>,
    dead: Vec<bool>,
    per_replica_batches: Vec<usize>,
    /// The replica the batch's previous attempt faulted on.
    exclude: Option<usize>,
    /// The router's estimated end cycle of the last committed attempt.
    est_end: u64,
}

impl Placer for Control {
    fn place(&mut self, release_ms: f64) -> Placement {
        // Retry elsewhere: skip the replica that just faulted unless it
        // is the only active one.
        let avail: Vec<usize> = match self.exclude {
            Some(x) if self.active.len() > 1 => {
                self.active.iter().copied().filter(|&r| r != x).collect()
            }
            _ => self.active.clone(),
        };
        let p = self
            .router
            .route(&avail, self.clock.ms_to_cycles(release_ms));
        self.per_replica_batches[p.replica] += 1;
        p
    }

    fn settled(&mut self, attempt: &Attempt) {
        let replica = attempt.placement.replica;
        self.est_end = self.router.commit(
            attempt.placement,
            self.clock.ms_to_cycles(attempt.release_ms),
            attempt.cycles,
        );
        if let Some(kind) = attempt.fault {
            if kind == FaultKind::DeviceReset && !self.dead[replica] {
                // The replica is gone for the rest of the run — unless it
                // is the last one standing, where a degraded replica
                // beats an empty cluster.
                self.dead[replica] = true;
                if self.active.len() > 1 {
                    self.active.retain(|&r| r != replica);
                }
            }
            self.exclude = Some(replica);
        }
    }
}

fn validate(engines: &[Engine], cfg: &ClusterConfig) -> Result<usize> {
    if cfg.replicas == 0 {
        return Err(CoreError::Serving {
            reason: "the cluster needs at least one replica".into(),
        });
    }
    if cfg.streams == 0 {
        return Err(CoreError::Serving {
            reason: "streams per replica must be at least 1".into(),
        });
    }
    cfg.retry.validate()?;
    let slots = match &cfg.autoscaler {
        Some(a) => {
            a.validate()?;
            a.max_replicas
        }
        None => cfg.replicas,
    };
    let slots = slots.max(cfg.replicas);
    if engines.len() < slots {
        return Err(CoreError::Serving {
            reason: format!(
                "the cluster can activate up to {} replicas but only {} engines were supplied",
                slots,
                engines.len()
            ),
        });
    }
    Ok(slots)
}

/// Runs the full cluster pipeline: weighted-fair tenant batching, routed
/// placement across the replica fleet, optional autoscaling, retry with
/// failover, and per-tenant SLO accounting.
///
/// `engines` supplies one engine per replica *slot* — at least
/// `max(cfg.replicas, autoscaler.max_replicas)` of them; slots beyond the
/// active count idle until the autoscaler activates them. Replica failure
/// is modeled by an engine whose fault plan carries a `device_reset_ms`:
/// the reset kills the in-flight attempt, the batch retries on another
/// replica, and the dead slot leaves the active set for good.
pub fn simulate_cluster(
    engines: &[Engine],
    arrivals: &[Request],
    tenant_of: &[usize],
    tenants: &[TenantSpec],
    cfg: &ClusterConfig,
    exec: &mut dyn BatchExecutor,
) -> Result<ClusterReport> {
    let slots = validate(engines, cfg)?;
    let engines = &engines[..slots];
    let plan = plan_cluster_batches(arrivals, tenant_of, tenants, &cfg.queue, &cfg.batch)?;

    let mut fleet = Fleet::new(engines, cfg.streams);
    let mut control = Control {
        router: Router::new(cfg.router, slots, cfg.streams),
        clock: engines[0].spec().clone(),
        active: (0..cfg.replicas.min(slots)).collect(),
        dead: vec![false; slots],
        per_replica_batches: vec![0; slots],
        exclude: None,
        est_end: 0,
    };
    let mut scaler = match &cfg.autoscaler {
        Some(a) => Some(Autoscaler::new(a.clone(), cfg.replicas)?),
        None => None,
    };
    let mut peak_active = control.active.len();
    let mut est_p99 = RunningPercentile::new(99.0);
    let mut outcomes = Vec::with_capacity(plan.batches.len());
    let mut retries = 0u64;

    for (i, cb) in plan.batches.iter().enumerate() {
        // Control plane first: the autoscaler sees the queue depth at
        // this dispatch and the running p99 estimate.
        if let Some(scaler) = scaler.as_mut() {
            let target =
                scaler.observe(cb.batch.dispatch_ms, cb.depth_at_dispatch, est_p99.value());
            let Control { active, dead, .. } = &mut control;
            while active.len() > target {
                // Drain the highest slot: committed batches still run.
                active.pop();
            }
            while active.len() < target {
                match (0..slots).find(|s| !dead[*s] && !active.contains(s)) {
                    Some(s) => {
                        active.push(s);
                        active.sort_unstable();
                    }
                    None => break, // every spare slot is dead
                }
            }
            peak_active = peak_active.max(active.len());
        }

        let work = exec.plan(&cb.batch)?;
        control.exclude = None;
        let run = fleet.run_batch(i, &work, cb.batch.dispatch_ms, &cfg.retry, &mut control)?;
        retries += run.retries();
        if scaler.is_some() && matches!(run.outcome, Outcome::Done { .. }) {
            // Feed the latency estimator so the autoscaler's p99 signal
            // tracks estimated service; nothing else reads it.
            let est_end_ms = control.clock.cycles_to_ms(control.est_end);
            for request in &cb.batch.requests {
                est_p99.insert((est_end_ms - request.arrival_ms).max(0.0));
            }
        }
        outcomes.push(run.outcome);
    }

    let classes = plan.classes(tenants, tenant_of);
    let tenant_arrivals: Vec<usize> = classes.iter().map(|c| c.arrivals).collect();
    let mut ledger = fleet.close(classes)?;
    for (cb, outcome) in plan.batches.iter().zip(outcomes) {
        ledger.record(cb.tenant, &cb.batch, outcome);
    }
    let rows = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let r = ledger.report(t..t + 1);
            let arrivals = tenant_arrivals[t];
            TenantRow {
                name: spec.name.clone(),
                arrivals,
                completed: r.completed,
                shed: r.shed,
                failed: r.failed,
                deadline_missed: r.deadline_missed,
                p50_ms: r.p50_ms,
                p95_ms: r.p95_ms,
                p99_ms: r.p99_ms,
                mean_ms: r.mean_ms,
                goodput_rps: r.goodput_rps,
                slo_attainment: if arrivals == 0 {
                    1.0
                } else {
                    r.completed as f64 / arrivals as f64
                },
            }
        })
        .collect();
    let total = ledger.report(0..tenants.len());
    Ok(ClusterReport {
        tenants: rows,
        completed: total.completed,
        shed: total.shed,
        failed: total.failed,
        deadline_missed: total.deadline_missed,
        retries,
        batches: plan.batches.len(),
        per_replica_batches: control.per_replica_batches,
        per_replica_occupancy: ledger.per_replica_occupancy(),
        dead_replicas: (0..slots).filter(|&r| control.dead[r]).collect(),
        scale_events: scaler.map(Autoscaler::into_events).unwrap_or_default(),
        peak_active,
        throughput_rps: total.throughput_rps,
        goodput_rps: total.goodput_rps,
        makespan_ms: total.makespan_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{generate_arrivals, generate_mmpp_arrivals, ArrivalConfig, MmppConfig};
    use crate::serving::{BatchWork, DeviceWork, DispatchedBatch};
    use gnnadvisor_gpu::{FaultConfig, FaultPlan, GpuSpec};
    use std::sync::Arc;

    /// A model-free executor: per batch, copies around a GEMM whose rows
    /// scale with batch size — enough device time to be device-limited.
    struct GemmExecutor {
        rows_per_request: usize,
        dim: usize,
    }

    impl BatchExecutor for GemmExecutor {
        fn plan(&mut self, batch: &DispatchedBatch) -> crate::Result<BatchWork> {
            let rows = self.rows_per_request * batch.requests.len();
            let bytes = (rows * self.dim * 4) as u64;
            Ok(BatchWork {
                ops: vec![
                    DeviceWork::Transfer { bytes },
                    DeviceWork::Gemm {
                        m: rows,
                        n: self.dim,
                        k: self.dim,
                    },
                    DeviceWork::Transfer { bytes },
                ],
            })
        }
    }

    fn exec() -> GemmExecutor {
        // Heavy enough that the device, not the arrival process, is the
        // bottleneck — replica count must move the schedule span.
        GemmExecutor {
            rows_per_request: 16_384,
            dim: 128,
        }
    }

    fn tenants2() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "batch".into(),
                weight: 3,
                deadline_ms: None,
            },
            TenantSpec {
                name: "online".into(),
                weight: 1,
                deadline_ms: Some(40.0),
            },
        ]
    }

    fn trace(n: usize) -> (Vec<Request>, Vec<usize>) {
        let arrivals = generate_arrivals(&ArrivalConfig {
            num_requests: n,
            mean_interarrival_ms: 0.05,
            num_components: 4,
            seed: 7,
        })
        .expect("valid");
        let tenant_of = assign_tenants(&arrivals, &tenants2(), 7).expect("valid");
        (arrivals, tenant_of)
    }

    fn engines(slots: usize, fault_rate: f64, seed: u64, sim_threads: usize) -> Vec<Engine> {
        (0..slots)
            .map(|r| {
                let mut b = Engine::builder(GpuSpec::quadro_p6000()).sim_threads(sim_threads);
                if fault_rate > 0.0 {
                    b = b.fault_plan(Arc::new(
                        FaultPlan::new(FaultConfig::uniform(
                            fault_rate,
                            seed.wrapping_add(r as u64),
                        ))
                        .expect("valid rate"),
                    ));
                }
                b.build().expect("valid engine")
            })
            .collect()
    }

    fn config(replicas: usize) -> ClusterConfig {
        ClusterConfig {
            replicas,
            streams: 2,
            queue: QueuePolicy { capacity: 32 },
            batch: BatchPolicy {
                max_batch: 4,
                max_delay_ms: 1.0,
            },
            retry: RetryPolicy::default(),
            router: RouterPolicy::CostAware,
            autoscaler: None,
        }
    }

    fn conservation(report: &ClusterReport, arrivals: usize) {
        assert_eq!(
            report.completed as u64
                + report.shed
                + report.failed as u64
                + report.deadline_missed as u64,
            arrivals as u64,
            "cluster-wide conservation: {report:?}"
        );
        for row in &report.tenants {
            assert_eq!(
                row.completed as u64 + row.shed + row.failed as u64 + row.deadline_missed as u64,
                row.arrivals as u64,
                "per-tenant conservation: {row:?}"
            );
        }
    }

    #[test]
    fn reports_are_identical_across_runs_and_worker_counts() {
        let (arrivals, tenant_of) = trace(48);
        let render_at = |sim_threads: usize| {
            let engines = engines(2, 0.15, 23, sim_threads);
            simulate_cluster(
                &engines,
                &arrivals,
                &tenant_of,
                &tenants2(),
                &config(2),
                &mut exec(),
            )
            .expect("runs")
            .render()
        };
        let serial = render_at(1);
        assert_eq!(render_at(1), serial, "same seed, same report");
        assert_eq!(render_at(4), serial, "worker count must not leak");
    }

    #[test]
    fn two_replicas_beat_one_on_a_device_limited_trace() {
        let (arrivals, tenant_of) = trace(64);
        let run = |replicas: usize| {
            let engines = engines(replicas, 0.0, 0, 1);
            simulate_cluster(
                &engines,
                &arrivals,
                &tenant_of,
                &tenants2(),
                &config(replicas),
                &mut exec(),
            )
            .expect("runs")
        };
        let one = run(1);
        let two = run(2);
        conservation(&one, 64);
        conservation(&two, 64);
        assert!(two.per_replica_batches.iter().filter(|&&n| n > 0).count() == 2);
        assert!(
            two.goodput_rps >= one.goodput_rps * 1.5,
            "2 replicas must lift goodput >= 1.5x: {} vs {}",
            two.goodput_rps,
            one.goodput_rps
        );
    }

    #[test]
    fn every_router_policy_balances_and_conserves() {
        let (arrivals, tenant_of) = trace(48);
        for policy in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::CostAware,
        ] {
            let mut cfg = config(3);
            cfg.router = policy;
            let engines = engines(3, 0.0, 0, 1);
            let report = simulate_cluster(
                &engines,
                &arrivals,
                &tenant_of,
                &tenants2(),
                &cfg,
                &mut exec(),
            )
            .expect("runs");
            conservation(&report, 48);
            assert_eq!(
                report
                    .per_replica_batches
                    .iter()
                    .filter(|&&n| n > 0)
                    .count(),
                3,
                "{policy:?} must use every replica"
            );
        }
    }

    #[test]
    fn autoscaler_rides_an_mmpp_burst_up_and_down() {
        // Bursty arrivals: heavy phases pile the queue up, lulls drain
        // it, so the controller must both grow and shrink the fleet.
        let arrivals = generate_mmpp_arrivals(&MmppConfig {
            num_requests: 500,
            phase_interarrival_ms: vec![0.05, 5.0],
            mean_dwell_ms: 15.0,
            num_components: 4,
            seed: 3,
        })
        .expect("valid");
        let tenant_of = assign_tenants(&arrivals, &tenants2(), 3).expect("valid");
        let mut cfg = config(1);
        // Let depth build past the high watermark during heavy phases.
        cfg.batch.max_batch = 8;
        cfg.queue.capacity = 64;
        cfg.autoscaler = Some(AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 3,
            interval_ms: 4.0,
            high_queue_depth: 6,
            low_queue_depth: 1,
            p99_high_ms: None,
            consecutive: 2,
            seed: 3,
        });
        let engines = engines(3, 0.0, 0, 1);
        let report = simulate_cluster(
            &engines,
            &arrivals,
            &tenant_of,
            &tenants2(),
            &cfg,
            &mut exec(),
        )
        .expect("runs");
        conservation(&report, 500);
        assert!(report.peak_active > 1, "the burst must scale the fleet up");
        assert!(
            report.scale_events.iter().any(|e| e.to > e.from),
            "missing scale-up events: {:?}",
            report.scale_events
        );
        assert!(
            report.scale_events.iter().any(|e| e.to < e.from),
            "lulls must scale back down: {:?}",
            report.scale_events
        );
    }

    #[test]
    fn device_reset_fails_over_to_the_surviving_replica() {
        let (arrivals, tenant_of) = trace(48);
        // Replica 0 resets early; replica 1 is clean. With a retry
        // budget, every batch must still complete — on replica 1.
        let reset = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(Arc::new(
                FaultPlan::new(FaultConfig {
                    device_reset_ms: Some(0.5),
                    seed: 1,
                    ..FaultConfig::default()
                })
                .expect("valid"),
            ))
            .build()
            .expect("valid");
        let clean = Engine::new(GpuSpec::quadro_p6000());
        let mut cfg = config(2);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0.25,
            seed: 1,
            ..RetryPolicy::default()
        };
        let report = simulate_cluster(
            &[reset, clean],
            &arrivals,
            &tenant_of,
            &tenants2(),
            &cfg,
            &mut exec(),
        )
        .expect("runs");
        conservation(&report, 48);
        assert_eq!(report.dead_replicas, vec![0], "the reset kills replica 0");
        assert!(report.retries > 0, "the killed attempt must retry");
        assert_eq!(report.failed, 0, "failover absorbs the reset");
        assert!(
            report.per_replica_batches[1] > report.per_replica_batches[0],
            "traffic must drain to the survivor: {:?}",
            report.per_replica_batches
        );
    }

    #[test]
    fn invalid_cluster_configs_are_rejected() {
        let (arrivals, tenant_of) = trace(8);
        let engines1 = engines(1, 0.0, 0, 1);
        // Zero replicas / zero streams.
        for breakage in [
            |c: &mut ClusterConfig| c.replicas = 0,
            |c: &mut ClusterConfig| c.streams = 0,
            |c: &mut ClusterConfig| c.retry.max_attempts = 0,
        ] {
            let mut bad = config(1);
            breakage(&mut bad);
            assert!(simulate_cluster(
                &engines1,
                &arrivals,
                &tenant_of,
                &tenants2(),
                &bad,
                &mut exec(),
            )
            .is_err());
        }
        // Fewer engines than replica slots.
        assert!(simulate_cluster(
            &engines1,
            &arrivals,
            &tenant_of,
            &tenants2(),
            &config(2),
            &mut exec(),
        )
        .is_err());
        // Autoscaler wanting more slots than supplied.
        let mut bad = config(1);
        bad.autoscaler = Some(AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 4,
            interval_ms: 5.0,
            high_queue_depth: 6,
            low_queue_depth: 1,
            p99_high_ms: None,
            consecutive: 1,
            seed: 0,
        });
        assert!(simulate_cluster(
            &engines1,
            &arrivals,
            &tenant_of,
            &tenants2(),
            &bad,
            &mut exec(),
        )
        .is_err());
    }

    #[test]
    fn non_finite_arrivals_are_rejected() {
        let engines = engines(2, 0.0, 0, 1);
        for (at, bad) in [(3, f64::NAN), (7, f64::NAN), (7, f64::INFINITY)] {
            let (mut arrivals, tenant_of) = trace(8);
            arrivals[at].arrival_ms = bad;
            assert!(
                matches!(
                    simulate_cluster(
                        &engines,
                        &arrivals,
                        &tenant_of,
                        &tenants2(),
                        &config(2),
                        &mut exec(),
                    ),
                    Err(CoreError::Serving { .. })
                ),
                "{bad} ms at request {at}"
            );
        }
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let engines = engines(2, 0.0, 0, 1);
        let report = simulate_cluster(&engines, &[], &[], &tenants2(), &config(2), &mut exec())
            .expect("runs");
        assert_eq!(report.batches, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.goodput_rps, 0.0);
        assert_eq!(
            report.tenants[0].slo_attainment, 1.0,
            "no traffic, no misses"
        );
    }

    mod cluster_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Under any fault rate, replica count, router policy, and
            /// retry budget, every request lands in exactly one bucket
            /// per tenant and cluster-wide, and the report bytes do not
            /// depend on the simulation worker count.
            #[test]
            fn cluster_conservation_holds_under_chaos(
                rate_permille in 0u64..600,
                replicas in 1u64..4,
                max_attempts in 1u64..4,
                policy_idx in 0u64..3,
                seed in 0u64..500,
            ) {
                let rate = rate_permille as f64 / 1000.0;
                let replicas = replicas as usize;
                let arrivals = generate_arrivals(&ArrivalConfig {
                    num_requests: 24,
                    mean_interarrival_ms: 0.4,
                    num_components: 3,
                    seed,
                }).expect("valid");
                let tenants = tenants2();
                let tenant_of = assign_tenants(&arrivals, &tenants, seed).expect("valid");
                let mut cfg = config(replicas);
                cfg.router = [
                    RouterPolicy::RoundRobin,
                    RouterPolicy::LeastLoaded,
                    RouterPolicy::CostAware,
                ][policy_idx as usize];
                cfg.retry = RetryPolicy {
                    max_attempts: max_attempts as usize,
                    backoff_base_ms: 0.25,
                    seed,
                    ..RetryPolicy::default()
                };
                let run = |sim_threads: usize| {
                    let engines = engines(replicas, rate, seed, sim_threads);
                    simulate_cluster(
                        &engines,
                        &arrivals,
                        &tenant_of,
                        &tenants,
                        &cfg,
                        &mut exec(),
                    ).expect("runs")
                };
                let report = run(1);
                prop_assert_eq!(
                    report.completed as u64
                        + report.shed
                        + report.failed as u64
                        + report.deadline_missed as u64,
                    24,
                    "conservation: {:?}",
                    &report
                );
                for row in &report.tenants {
                    prop_assert_eq!(
                        row.completed as u64
                            + row.shed
                            + row.failed as u64
                            + row.deadline_missed as u64,
                        row.arrivals as u64,
                        "tenant conservation: {:?}",
                        row
                    );
                }
                prop_assert_eq!(run(4).render(), report.render());
            }
        }
    }
}
