//! The batch runner: one batch's submit, fault and backoff loop.
//!
//! Every serving entry point submits a batch the same way. The batch's
//! ops are priced once, fault-free, before its first attempt. An attempt
//! then draws each op's fault verdict from the placing replica's fault
//! plan and enqueues the ops in order on one stream, released at the
//! attempt's instant. A faulted op still burns its priced time on the
//! stream, and the attempt's remaining ops are neither drawn nor issued.
//! The next attempt may not start before the failed attempt's estimated
//! end (its release plus the per-op cycle sum the stream charges) plus
//! the [`RetryPolicy`] backoff. The caller picks each attempt's
//! `(replica, stream)` placement through a [`Placer`]: plain and dynamic
//! serving keep a batch on one stream, the cluster routes every attempt and
//! fails over.

use gnnadvisor_gpu::fault::FaultKind;
use gnnadvisor_gpu::stream::OpHandle;
use gnnadvisor_gpu::{CleanPrice, Engine, RunContext, StreamId, StreamSim, Workload};

use super::ledger::{Class, Ledger};
use super::{BatchWork, DeviceWork, RetryPolicy};
use crate::cluster::Placement;
use crate::Result;

/// One submission of a batch's ops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    /// Where the attempt ran.
    pub placement: Placement,
    /// Instant its ops were released at, ms.
    pub release_ms: f64,
    /// Device cycles of the ops it issued, summed per op.
    pub cycles: u64,
    /// The fault that ended it, if any.
    pub fault: Option<FaultKind>,
}

/// How one batch's retry chain ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// An attempt on `replica` ran fault-free; `tail` is its last op
    /// (`None`: the batch planned no device ops and completes at its
    /// dispatch instant).
    Done {
        replica: usize,
        tail: Option<OpHandle>,
    },
    /// Every attempt faulted; the batch's requests failed.
    Exhausted,
}

/// What [`Fleet::run_batch`] did with one batch.
#[derive(Debug)]
pub(crate) struct BatchRun {
    /// How the retry chain ended.
    pub outcome: Outcome,
    /// Every attempt, in order; all but the last faulted.
    pub attempts: Vec<Attempt>,
    /// Kernel L2 hits of the first attempt's ops (retries place the same
    /// priced work).
    pub l2_hits: u64,
    /// Kernel L2 misses of the first attempt's ops.
    pub l2_misses: u64,
}

impl BatchRun {
    /// Re-submissions after the first attempt.
    pub fn retries(&self) -> u64 {
        self.attempts.len() as u64 - 1
    }

    /// The last attempt (the one that ended the chain).
    pub fn last(&self) -> &Attempt {
        self.attempts.last().expect("a batch runs at least once")
    }
}

/// Picks the `(replica, stream)` placement of each attempt of one batch.
pub(crate) trait Placer {
    /// The placement of the next attempt, released at `release_ms`.
    fn place(&mut self, release_ms: f64) -> Placement;

    /// Sees each attempt end, before the next one is placed.
    fn settled(&mut self, _attempt: &Attempt) {}
}

/// A fixed placement puts every attempt on itself.
impl Placer for Placement {
    fn place(&mut self, _release_ms: f64) -> Placement {
        *self
    }
}

/// The stream simulators of a set of replica engines, `streams` per
/// engine, and the pricing contexts they share.
pub(crate) struct Fleet<'e> {
    engines: &'e [Engine],
    sims: Vec<StreamSim<'e>>,
    streams: Vec<Vec<StreamId>>,
    /// For each replica, the lowest replica whose `GpuSpec` equals its
    /// own: replicas of one class price every op identically.
    spec_class: Vec<usize>,
    /// One context per kernel of the longest batch priced so far, shared
    /// by every replica (a batch is priced on one engine at a time).
    ctxs: Vec<RunContext>,
}

impl<'e> Fleet<'e> {
    /// One stream simulator per engine with `streams` streams each.
    pub fn new(engines: &'e [Engine], streams: usize) -> Self {
        let mut sims: Vec<StreamSim<'e>> = engines.iter().map(StreamSim::new).collect();
        let streams = sims
            .iter_mut()
            .map(|sim| (0..streams).map(|_| sim.stream()).collect())
            .collect();
        let spec_class = engines
            .iter()
            .map(|e| {
                engines
                    .iter()
                    .position(|other| other.spec() == e.spec())
                    .expect("an engine's spec equals itself")
            })
            .collect();
        Self {
            engines,
            sims,
            streams,
            spec_class,
            ctxs: Vec::new(),
        }
    }

    /// Submits batch number `batch` (it seeds the backoff jitter), first
    /// released at `release_ms`, retrying faulted attempts under `retry`
    /// where `placer` puts each attempt.
    ///
    /// The batch's ops are priced once, on the first attempt's engine,
    /// with [`Engine::price_list`], and an attempt on a replica with an
    /// equal `GpuSpec` reuses those clean prices (another spec prices them
    /// again). Each attempt then only draws the placing replica's fault
    /// verdicts, op by op in issue order, and stops at the first fault.
    ///
    /// # Errors
    ///
    /// A kernel whose grid is invalid fails the batch before its first
    /// attempt draws a verdict.
    pub fn run_batch(
        &mut self,
        batch: usize,
        work: &BatchWork,
        mut release_ms: f64,
        retry: &RetryPolicy,
        placer: &mut dyn Placer,
    ) -> Result<BatchRun> {
        let workloads: Vec<Workload<'_>> = work.ops.iter().map(DeviceWork::workload).collect();
        let mut clean: Vec<CleanPrice> = Vec::new();
        let mut priced_class = None;
        let mut attempts = Vec::with_capacity(1);
        let (mut l2_hits, mut l2_misses) = (0u64, 0u64);
        for attempt in 1..=retry.max_attempts {
            let at = placer.place(release_ms);
            let engine = &self.engines[at.replica];
            let class = self.spec_class[at.replica];
            if priced_class != Some(class) {
                clean = engine.price_list(&mut self.ctxs, &workloads)?;
                priced_class = Some(class);
            }
            let spec = engine.spec();
            let sim = &mut self.sims[at.replica];
            let stream = self.streams[at.replica][at.stream];
            let release = spec.ms_to_cycles(release_ms);
            let (mut tail, mut cycles, mut fault) = (None, 0u64, None);
            for op in &clean {
                let enq = sim.enqueue_priced(stream, sim.draw(op), release)?;
                cycles += spec.ms_to_cycles(enq.metrics.time_ms());
                if attempt == 1 {
                    if let Some(k) = enq.metrics.as_kernel() {
                        l2_hits += k.l2_hits;
                        l2_misses += k.l2_misses;
                    }
                }
                if enq.fault.is_some() {
                    fault = enq.fault;
                    break;
                }
                tail = Some(enq.handle);
            }
            let ended = Attempt {
                placement: at,
                release_ms,
                cycles,
                fault,
            };
            placer.settled(&ended);
            attempts.push(ended);
            if fault.is_none() {
                let outcome = Outcome::Done {
                    replica: at.replica,
                    tail,
                };
                return Ok(BatchRun {
                    outcome,
                    attempts,
                    l2_hits,
                    l2_misses,
                });
            }
            release_ms = spec.cycles_to_ms(release + cycles) + retry.backoff_ms(batch, attempt);
        }
        Ok(BatchRun {
            outcome: Outcome::Exhausted,
            attempts,
            l2_hits,
            l2_misses,
        })
    }

    /// Runs every replica's schedule and opens a ledger over the result
    /// for the given request classes.
    pub fn close(self, classes: Vec<Class>) -> Result<Ledger<'e>> {
        let reports = self
            .sims
            .into_iter()
            .map(StreamSim::run)
            .collect::<gnnadvisor_gpu::Result<_>>()?;
        Ok(Ledger::new(self.engines, reports, classes))
    }
}
