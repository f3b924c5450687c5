//! Multi-stream serving runtime with dynamic batching.
//!
//! GNNAdvisor's runtime (the paper, Section 4) optimizes one forward pass
//! at a time. This module layers an *inference server* on top of the same
//! simulated device: an open-loop arrival process ([`arrivals`]) feeds a
//! bounded admission queue ([`queue`]), a dynamic batcher coalesces
//! waiting requests under a max-batch / max-delay policy ([`batcher`]),
//! and the dispatched batches execute on concurrent simulated streams
//! ([`gnnadvisor_gpu::stream`]) so host↔device copies overlap compute and
//! small kernels co-reside on the SMs.
//!
//! The split of responsibilities:
//!
//! - [`plan_batches`] is pure policy — trace in, dispatch schedule and
//!   shed count out;
//! - [`BatchExecutor`] is the model-specific part (what device work one
//!   batch costs), implemented by the model layer so this crate never
//!   depends on it;
//! - [`simulate`] ties them together: batches round-robin across
//!   `streams` simulated streams, each pinned to its dispatch instant via
//!   a release time, and per-request latency is measured from arrival to
//!   the completion of its batch's last op on the simulated clock.
//!
//! Two private pieces do that work for every serving entry point, this
//! one, [`crate::cluster`] and [`crate::dynamic`]: the batch runner
//! (`runner`) submits one batch's ops with retries on the stream its
//! caller picks per attempt, and the latency ledger (`ledger`) accounts
//! each request and owns the percentiles, the mean, the rates and the
//! occupancy merge. Dynamic serving also shares this module's
//! round-robin loop, adding a step before and after each batch.
//!
//! With a fault plan attached to the engine (see [`gnnadvisor_gpu::fault`])
//! the device may kill a batch's ops; a [`RetryPolicy`] re-submits the
//! batch with exponential backoff up to a bounded attempt count, and an
//! optional per-request deadline reclassifies too-late completions. Every
//! request lands in exactly one bucket — the report upholds
//! `completed + shed + failed + deadline_missed == arrivals`.
//!
//! Everything downstream of the seed is deterministic: the report is
//! byte-identical across runs and across `GNNADVISOR_SIM_THREADS`
//! settings (the engine's pricing is worker-count-invariant, fault
//! verdicts are drawn on the serial enqueue path, and the stream
//! scheduler is serial).

pub mod arrivals;
pub mod batcher;
pub(crate) mod ledger;
pub mod queue;
pub mod retry;
pub(crate) mod runner;

pub use arrivals::{generate_arrivals, generate_mmpp_arrivals, ArrivalConfig, MmppConfig, Request};
pub use batcher::{plan_batches, BatchPlan, BatchPolicy, DispatchedBatch, QueuePolicy};
pub use queue::BoundedQueue;
pub use retry::RetryPolicy;

use gnnadvisor_gpu::{Engine, Kernel, Workload};

use crate::cluster::Placement;
use crate::{CoreError, Result};
use ledger::Class;
use runner::{BatchRun, Fleet};

/// One unit of device work an executor plans for a batch.
pub enum DeviceWork {
    /// A full simulated kernel (priced through the engine's block model).
    Kernel(Box<dyn Kernel>),
    /// A roofline-priced dense update, `m×k · k×n`.
    Gemm {
        /// Rows of the left operand.
        m: usize,
        /// Columns of the right operand.
        n: usize,
        /// Shared inner dimension.
        k: usize,
    },
    /// A host↔device copy over the single copy engine.
    Transfer {
        /// Payload size in bytes.
        bytes: u64,
    },
}

impl DeviceWork {
    /// The engine workload this op submits.
    pub fn workload(&self) -> Workload<'_> {
        match self {
            DeviceWork::Kernel(k) => Workload::Kernel(&**k),
            DeviceWork::Gemm { m, n, k } => Workload::Gemm {
                m: *m,
                n: *n,
                k: *k,
            },
            DeviceWork::Transfer { bytes } => Workload::Transfer { bytes: *bytes },
        }
    }
}

impl core::fmt::Debug for DeviceWork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceWork::Kernel(k) => f.debug_tuple("Kernel").field(&k.name()).finish(),
            DeviceWork::Gemm { m, n, k } => f
                .debug_struct("Gemm")
                .field("m", m)
                .field("n", n)
                .field("k", k)
                .finish(),
            DeviceWork::Transfer { bytes } => {
                f.debug_struct("Transfer").field("bytes", bytes).finish()
            }
        }
    }
}

/// The device-side plan for one dispatched batch, executed in order on
/// one stream.
#[derive(Debug, Default)]
pub struct BatchWork {
    /// Ordered device ops; typically h2d copy, kernels/GEMMs, d2h copy.
    pub ops: Vec<DeviceWork>,
}

/// The model-specific half of the server: turns a dispatched batch into
/// device work. Implemented by the model layer (e.g. a GCN forward over
/// the batch's coalesced graphs).
pub trait BatchExecutor {
    /// Plans the device ops for `batch`.
    fn plan(&mut self, batch: &DispatchedBatch) -> Result<BatchWork>;
}

/// Server shape: stream count plus the queue, batch, and retry policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Concurrent device streams batches round-robin across.
    pub streams: usize,
    /// Admission-queue backpressure.
    pub queue: QueuePolicy,
    /// Dynamic batching policy.
    pub batch: BatchPolicy,
    /// Re-submission policy for batches whose device work faulted (the
    /// default never retries).
    pub retry: RetryPolicy,
    /// Per-request latency deadline: a request whose batch completes
    /// later than this after its arrival counts as `deadline_missed`
    /// instead of `completed`. `None` disables the check.
    pub deadline_ms: Option<f64>,
}

impl ServingConfig {
    /// Rejects zero streams, an invalid retry policy and a deadline that
    /// is not positive and finite.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.streams == 0 {
            return Err(CoreError::Serving {
                reason: "streams must be at least 1".into(),
            });
        }
        self.retry.validate()?;
        if let Some(d) = self.deadline_ms {
            if !(d.is_finite() && d > 0.0) {
                return Err(CoreError::Serving {
                    reason: format!("deadline_ms must be positive and finite, got {d}"),
                });
            }
        }
        Ok(())
    }
}

/// Aggregate latency/throughput statistics of one serving simulation.
///
/// Every admitted request lands in exactly one of `completed`, `failed`,
/// or `deadline_missed`; with `shed` they partition the arrival trace:
/// `completed + shed + failed + deadline_missed == arrivals`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests that completed on the device within their deadline.
    pub completed: usize,
    /// Requests rejected by the admission queue.
    pub shed: u64,
    /// Requests whose batch exhausted its retry budget on faults.
    pub failed: usize,
    /// Requests served later than the configured deadline.
    pub deadline_missed: usize,
    /// Batch re-submissions caused by faults (not counting first
    /// attempts).
    pub retries: u64,
    /// Batches dispatched to the device.
    pub batches: usize,
    /// Median request latency (arrival → batch completion), ms.
    pub p50_ms: f64,
    /// 95th-percentile request latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_ms: f64,
    /// Mean request latency, ms.
    pub mean_ms: f64,
    /// All served requests (completed + deadline-missed) per second of
    /// simulated schedule time.
    pub throughput_rps: f64,
    /// Requests completed *within deadline* per second of simulated
    /// schedule time — the number retries are meant to restore.
    pub goodput_rps: f64,
    /// End of the last device op on the simulated clock, ms.
    pub makespan_ms: f64,
    /// Total SM-side busy cycles across the schedule.
    pub kernel_busy_cycles: u64,
    /// Total copy-engine busy cycles across the schedule.
    pub copy_busy_cycles: u64,
    /// Duration-weighted mean achieved occupancy over the schedule's
    /// kernel spans, in `[0, 1]` (see
    /// [`gnnadvisor_gpu::StreamReport::mean_kernel_occupancy`]).
    pub mean_kernel_occupancy: f64,
}

impl ServingReport {
    /// Renders the report as a deterministic fixed-precision table (the
    /// CLI prints this; CI diffs it byte-for-byte across runs and worker
    /// counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("serving-sim report\n");
        out.push_str(&format!("  requests completed   {}\n", self.completed));
        out.push_str(&format!("  requests shed        {}\n", self.shed));
        out.push_str(&format!("  requests failed      {}\n", self.failed));
        out.push_str(&format!(
            "  deadline missed      {}\n",
            self.deadline_missed
        ));
        out.push_str(&format!("  batch retries        {}\n", self.retries));
        out.push_str(&format!("  batches dispatched   {}\n", self.batches));
        out.push_str(&format!("  latency p50          {:.3} ms\n", self.p50_ms));
        out.push_str(&format!("  latency p95          {:.3} ms\n", self.p95_ms));
        out.push_str(&format!("  latency p99          {:.3} ms\n", self.p99_ms));
        out.push_str(&format!("  latency mean         {:.3} ms\n", self.mean_ms));
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
        out.push_str(&format!(
            "  kernel busy cycles   {}\n",
            self.kernel_busy_cycles
        ));
        out.push_str(&format!(
            "  copy engine cycles   {}\n",
            self.copy_busy_cycles
        ));
        out.push_str(&format!(
            "  kernel occupancy     {:.4}\n",
            self.mean_kernel_occupancy
        ));
        out
    }
}

/// The per-batch steps around the round-robin serving loop: plain
/// serving plans each batch and releases it at its dispatch instant;
/// dynamic serving also applies due graph updates first and runs its
/// locality policy after.
pub(crate) trait BatchSteps {
    /// Plans batch `i`'s device work and the instant its first attempt is
    /// released at.
    fn plan(&mut self, i: usize, batch: &DispatchedBatch) -> Result<(BatchWork, f64)>;

    /// Sees how batch `i` ran.
    fn ran(&mut self, _i: usize, _batch: &DispatchedBatch, _run: &BatchRun) -> Result<()> {
        Ok(())
    }
}

impl BatchSteps for dyn BatchExecutor + '_ {
    fn plan(&mut self, _i: usize, batch: &DispatchedBatch) -> Result<(BatchWork, f64)> {
        Ok((BatchExecutor::plan(self, batch)?, batch.dispatch_ms))
    }
}

/// Serves `arrivals` on `engines x cfg.streams` streams: batch `i` runs on
/// slot `i mod (engines x streams)` of the replica-major
/// `(replica, stream)` order, retrying on that slot.
pub(crate) fn serve_round_robin<S: BatchSteps + ?Sized>(
    engines: &[Engine],
    arrivals: &[Request],
    cfg: &ServingConfig,
    steps: &mut S,
) -> Result<ServingReport> {
    if engines.is_empty() {
        return Err(CoreError::Serving {
            reason: "at least one replica engine is required".into(),
        });
    }
    cfg.validate()?;
    let plan = plan_batches(arrivals, &cfg.queue, &cfg.batch)?;

    let mut fleet = Fleet::new(engines, cfg.streams);
    let slots = engines.len() * cfg.streams;
    let mut outcomes = Vec::with_capacity(plan.batches.len());
    let mut retries = 0u64;
    for (i, batch) in plan.batches.iter().enumerate() {
        let (work, release_ms) = steps.plan(i, batch)?;
        let mut slot = Placement {
            replica: i % slots / cfg.streams,
            stream: i % slots % cfg.streams,
        };
        let run = fleet.run_batch(i, &work, release_ms, &cfg.retry, &mut slot)?;
        retries += run.retries();
        outcomes.push(run.outcome);
        steps.ran(i, batch, &run)?;
    }

    let mut ledger = fleet.close(vec![Class {
        deadline_ms: cfg.deadline_ms,
        arrivals: arrivals.len(),
        shed: plan.shed,
    }])?;
    for (batch, outcome) in plan.batches.iter().zip(outcomes) {
        ledger.record(0, batch, outcome);
    }
    Ok(ServingReport {
        retries,
        batches: plan.batches.len(),
        ..ledger.report(0..1)
    })
}

/// Runs the full serving pipeline on the simulated device: plans batches
/// from `arrivals`, round-robins them across `cfg.streams` streams (each
/// batch released at its dispatch instant), executes the multi-stream
/// schedule, and aggregates per-request latencies.
///
/// With a fault plan on the engine, a batch whose op faults is re-
/// submitted on the same stream under `cfg.retry`: the retry may not
/// start before the failed attempt's estimated end plus backoff (the
/// stream's FIFO independently guarantees it starts after the failed
/// ops, which burn their full priced time on the device). A batch that
/// faults on every attempt marks its requests `failed`.
pub fn simulate(
    engine: &Engine,
    arrivals: &[Request],
    cfg: &ServingConfig,
    exec: &mut dyn BatchExecutor,
) -> Result<ServingReport> {
    serve_round_robin(std::slice::from_ref(engine), arrivals, cfg, exec)
}

#[cfg(test)]
mod tests {
    use super::ledger::percentile;
    use super::*;
    use gnnadvisor_gpu::GpuSpec;

    /// A model-free executor: per batch, an h2d copy, one GEMM whose rows
    /// scale with batch size, and a d2h copy.
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

    fn trace() -> Vec<Request> {
        generate_arrivals(&ArrivalConfig {
            num_requests: 64,
            mean_interarrival_ms: 0.4,
            num_components: 4,
            seed: 7,
        })
        .expect("valid")
    }

    fn config(streams: usize) -> ServingConfig {
        ServingConfig {
            streams,
            queue: QueuePolicy { capacity: 32 },
            batch: BatchPolicy {
                max_batch: 8,
                max_delay_ms: 2.0,
            },
            retry: RetryPolicy::default(),
            deadline_ms: None,
        }
    }

    fn exec() -> GemmExecutor {
        GemmExecutor {
            rows_per_request: 512,
            dim: 64,
        }
    }

    #[test]
    fn reports_are_identical_across_runs_and_worker_counts() {
        let mut renders = Vec::new();
        for sim_threads in [1, 1, 4] {
            let engine = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(sim_threads)
                .build()
                .expect("valid");
            let report = simulate(&engine, &trace(), &config(3), &mut exec()).expect("runs");
            renders.push(report.render());
        }
        assert_eq!(renders[0], renders[1], "same engine, same report");
        assert_eq!(renders[0], renders[2], "worker count must not leak");
    }

    #[test]
    fn latency_stats_are_ordered_and_complete() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = simulate(&engine, &trace(), &config(2), &mut exec()).expect("runs");
        assert_eq!(report.completed as u64 + report.shed, 64);
        assert!(report.completed > 0);
        assert!(report.batches > 0);
        assert!(report.p50_ms <= report.p95_ms);
        assert!(report.p95_ms <= report.p99_ms);
        assert!(report.p50_ms > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.makespan_ms > 0.0);
    }

    #[test]
    fn more_streams_never_slow_the_schedule() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let serialized = simulate(&engine, &trace(), &config(1), &mut exec()).expect("runs");
        let overlapped = simulate(&engine, &trace(), &config(4), &mut exec()).expect("runs");
        assert!(
            overlapped.makespan_ms <= serialized.makespan_ms,
            "overlap {} ms vs serialized {} ms",
            overlapped.makespan_ms,
            serialized.makespan_ms
        );
        assert_eq!(overlapped.completed, serialized.completed);
    }

    #[test]
    fn overload_sheds_and_reports_it() {
        // Offered load far beyond capacity: a burst of simultaneous
        // arrivals against a tiny queue.
        let arrivals: Vec<Request> = (0..40)
            .map(|id| Request {
                id,
                arrival_ms: 0.0,
                component: 0,
            })
            .collect();
        let cfg = ServingConfig {
            streams: 2,
            queue: QueuePolicy { capacity: 6 },
            batch: BatchPolicy {
                max_batch: 8,
                max_delay_ms: 4.0,
            },
            retry: RetryPolicy::default(),
            deadline_ms: None,
        };
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = simulate(&engine, &arrivals, &cfg, &mut exec()).expect("runs");
        assert!(report.shed > 0, "overload must shed");
        assert_eq!(report.completed as u64 + report.shed, 40);
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = simulate(&engine, &[], &config(2), &mut exec()).expect("runs");
        assert_eq!(report.completed, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.p99_ms, 0.0);
        assert_eq!(report.throughput_rps, 0.0);
    }

    #[test]
    fn zero_streams_is_rejected() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let err = simulate(&engine, &[], &config(0), &mut exec());
        assert!(matches!(err, Err(CoreError::Serving { .. })));
    }

    #[test]
    fn invalid_retry_and_deadline_are_rejected() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut cfg = config(1);
        cfg.retry.max_attempts = 0;
        assert!(matches!(
            simulate(&engine, &[], &cfg, &mut exec()),
            Err(CoreError::Serving { .. })
        ));
        let mut cfg = config(1);
        cfg.deadline_ms = Some(0.0);
        assert!(matches!(
            simulate(&engine, &[], &cfg, &mut exec()),
            Err(CoreError::Serving { .. })
        ));
    }

    #[test]
    fn non_finite_arrivals_are_rejected() {
        // A NaN arrival passes an ordering check written with `>`; its
        // latency would clamp to 0 ms and skew p50 and the mean.
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let n = trace().len();
        for (at, bad) in [(5, f64::NAN), (n - 1, f64::NAN), (n - 1, f64::INFINITY)] {
            let mut arrivals = trace();
            arrivals[at].arrival_ms = bad;
            assert!(
                matches!(
                    simulate(&engine, &arrivals, &config(2), &mut exec()),
                    Err(CoreError::Serving { .. })
                ),
                "{bad} ms at request {at}"
            );
        }
    }

    /// An executor that plans no device work at all — the zero-op batch
    /// regression case.
    struct NoopExecutor;

    impl BatchExecutor for NoopExecutor {
        fn plan(&mut self, _batch: &DispatchedBatch) -> crate::Result<BatchWork> {
            Ok(BatchWork::default())
        }
    }

    #[test]
    fn zero_op_batches_still_report_throughput() {
        // Regression: with no device ops the stream schedule is empty
        // (makespan 0) but requests still complete at their batches'
        // dispatch instants; throughput must fall back to the last
        // completion instant instead of reporting 0.
        let arrivals = vec![
            Request {
                id: 0,
                arrival_ms: 1.0,
                component: 0,
            },
            Request {
                id: 1,
                arrival_ms: 3.0,
                component: 0,
            },
        ];
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = simulate(&engine, &arrivals, &config(2), &mut NoopExecutor).expect("runs");
        assert_eq!(report.completed, 2);
        assert_eq!(report.makespan_ms, 0.0, "no device ops were scheduled");
        // The first batch flushes at its delay deadline 1.0 + 2.0 = 3.0 ms
        // (the deadline fires before the 3.0 ms arrival joins), and the
        // second drains at 3.0 + 2.0 = 5.0 ms, so the rate is 2 req / 5 ms.
        assert!(
            (report.throughput_rps - 2.0 * 1000.0 / 5.0).abs() < 1e-6,
            "throughput {} must use the last completion instant",
            report.throughput_rps
        );
        assert_eq!(report.goodput_rps, report.throughput_rps);
    }

    /// Fault-plan fixture: a fresh engine with a uniform fault rate.
    fn chaotic_engine(rate: f64, seed: u64, sim_threads: usize) -> Engine {
        use gnnadvisor_gpu::{FaultConfig, FaultPlan};
        Engine::builder(GpuSpec::quadro_p6000())
            .sim_threads(sim_threads)
            .fault_plan(std::sync::Arc::new(
                FaultPlan::new(FaultConfig::uniform(rate, seed)).expect("valid rate"),
            ))
            .build()
            .expect("valid")
    }

    #[test]
    fn retries_restore_completions_under_faults() {
        let no_retry = simulate(
            &chaotic_engine(0.3, 13, 1),
            &trace(),
            &config(2),
            &mut exec(),
        )
        .expect("runs");
        assert!(
            no_retry.failed > 0,
            "a 30 % fault rate with no retries must fail some batches"
        );
        assert_eq!(no_retry.retries, 0);

        let mut cfg = config(2);
        cfg.retry = RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 0.25,
            seed: 13,
            ..RetryPolicy::default()
        };
        let with_retry =
            simulate(&chaotic_engine(0.3, 13, 1), &trace(), &cfg, &mut exec()).expect("runs");
        assert!(with_retry.retries > 0);
        assert!(
            with_retry.completed > no_retry.completed,
            "retries must recover completions: {} vs {}",
            with_retry.completed,
            no_retry.completed
        );
        for r in [&no_retry, &with_retry] {
            assert_eq!(
                r.completed as u64 + r.shed + r.failed as u64 + r.deadline_missed as u64,
                64,
                "conservation"
            );
        }
    }

    #[test]
    fn deadlines_reclassify_late_completions() {
        let mut cfg = config(1);
        cfg.deadline_ms = Some(0.5);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let tight = simulate(&engine, &trace(), &cfg, &mut exec()).expect("runs");
        assert!(tight.deadline_missed > 0, "0.5 ms must be missed by some");
        assert_eq!(
            tight.completed as u64
                + tight.shed
                + tight.failed as u64
                + tight.deadline_missed as u64,
            64
        );
        // Latency percentiles describe only within-deadline requests.
        assert!(tight.p99_ms <= 0.5 + 1e-9);
        // Goodput counts only in-deadline completions.
        assert!(tight.goodput_rps <= tight.throughput_rps);

        cfg.deadline_ms = Some(1e9);
        let loose = simulate(&engine, &trace(), &cfg, &mut exec()).expect("runs");
        assert_eq!(loose.deadline_missed, 0);
        assert_eq!(loose.goodput_rps, loose.throughput_rps);
    }

    #[test]
    fn nearest_rank_percentiles_are_pinned_for_tiny_samples() {
        // Nearest-rank on 1-3 completed batches is where an off-by-one
        // hides: rank = ceil(p/100 · n), 1-based. Pin the hand-computed
        // values so any indexing drift fails loudly.
        let one = [5.0];
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(percentile(&one, p), 5.0, "n=1, p{p}");
        }
        let two = [1.0, 9.0];
        assert_eq!(percentile(&two, 50.0), 1.0, "p50 of [1,9] is rank 1");
        assert_eq!(percentile(&two, 95.0), 9.0);
        assert_eq!(percentile(&two, 99.0), 9.0);
        let three = [1.0, 5.0, 9.0];
        assert_eq!(percentile(&three, 50.0), 5.0, "p50 of [1,5,9] is rank 2");
        assert_eq!(percentile(&three, 95.0), 9.0);
        assert_eq!(percentile(&three, 99.0), 9.0);
        // Degenerate edges: an empty sample reports 0, p0 clamps to the
        // first sample, p100 to the last.
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&three, 0.0), 1.0);
        assert_eq!(percentile(&three, 100.0), 9.0);
    }

    #[test]
    fn exhausted_batches_fail_exactly_once_even_past_the_deadline() {
        // A batch that exhausts max_attempts *and* would also have missed
        // its deadline must count as failed XOR deadline_missed, never
        // both. Fault rate 1.0 exhausts every batch; the tiny positive
        // deadline would reclassify any completion — so any double
        // counting breaks conservation here.
        let mut cfg = config(2);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0.25,
            seed: 3,
            ..RetryPolicy::default()
        };
        cfg.deadline_ms = Some(1e-6);
        let report =
            simulate(&chaotic_engine(1.0, 3, 1), &trace(), &cfg, &mut exec()).expect("runs");
        assert!(report.retries > 0, "every batch retries before exhausting");
        assert_eq!(report.completed, 0);
        assert_eq!(
            report.deadline_missed, 0,
            "exhausted batches must not double-count as deadline misses"
        );
        assert_eq!(
            report.failed as u64 + report.shed,
            64,
            "every admitted request fails exactly once"
        );
    }

    #[test]
    fn faulted_reports_are_identical_across_runs_and_worker_counts() {
        let mut cfg = config(3);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0.5,
            seed: 21,
            ..RetryPolicy::default()
        };
        cfg.deadline_ms = Some(50.0);
        let render_at = |sim_threads: usize| {
            simulate(
                &chaotic_engine(0.25, 21, sim_threads),
                &trace(),
                &cfg,
                &mut exec(),
            )
            .expect("runs")
            .render()
        };
        let serial = render_at(1);
        assert_eq!(render_at(1), serial, "same seed, same report");
        assert_eq!(render_at(4), serial, "worker count must not leak");
    }

    mod chaos_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Under any fault rate, retry budget, and deadline, every
            /// request lands in exactly one bucket, and the report bytes
            /// do not depend on the simulation worker count.
            #[test]
            fn conservation_holds_under_chaos(
                // The vendored proptest only samples integer ranges, so
                // fault rate and deadline are drawn as integers and mapped.
                rate_permille in 0u64..700,
                max_attempts in 1u64..4,
                deadline_ms in 0u64..60,
                seed in 0u64..1000,
            ) {
                let rate = rate_permille as f64 / 1000.0;
                let max_attempts = max_attempts as usize;
                let deadline = (deadline_ms > 0).then_some(deadline_ms as f64);
                let arrivals = generate_arrivals(&ArrivalConfig {
                    num_requests: 24,
                    mean_interarrival_ms: 0.6,
                    num_components: 3,
                    seed,
                }).expect("valid");
                let mut cfg = config(2);
                cfg.retry = RetryPolicy {
                    max_attempts,
                    backoff_base_ms: 0.25,
                    seed,
                    ..RetryPolicy::default()
                };
                cfg.deadline_ms = deadline;
                let run = |sim_threads: usize| {
                    simulate(
                        &chaotic_engine(rate, seed, sim_threads),
                        &arrivals,
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
                prop_assert_eq!(run(4).render(), report.render());
                // Disjointness of failed vs deadline_missed: failures come
                // only from retry exhaustion, so removing the deadline must
                // leave the failed count untouched (the deadline
                // reclassifies completions, never failures) and every
                // former deadline miss must complete instead.
                let mut no_deadline = cfg.clone();
                no_deadline.deadline_ms = None;
                let open = simulate(
                    &chaotic_engine(rate, seed, 1),
                    &arrivals,
                    &no_deadline,
                    &mut exec(),
                ).expect("runs");
                prop_assert_eq!(open.failed, report.failed, "deadline leaks into failed");
                prop_assert_eq!(open.deadline_missed, 0);
                prop_assert_eq!(
                    open.completed,
                    report.completed + report.deadline_missed,
                    "every deadline miss must be a completion without the deadline"
                );
            }
        }
    }
}
