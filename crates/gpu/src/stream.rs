//! Simulated CUDA-style streams and events on the simulated clock.
//!
//! The serial [`Engine`] answers "how long does this kernel take alone?";
//! this module answers "how long does a *mix* take when issued onto
//! concurrent streams?" — the question serving workloads ask. A
//! [`StreamSim`] borrows an engine, prices every enqueued [`Workload`]
//! through the engine's deterministic cost model at enqueue time, and then
//! schedules the priced ops with a serial discrete-event loop that models
//! the overlap machinery of a real device:
//!
//! - **Per-stream FIFO**: ops on one stream execute in enqueue order,
//!   never overlapping each other.
//! - **Copy/compute overlap**: transfers occupy a single copy engine
//!   (serialized among themselves, like one DMA engine per direction-less
//!   PCIe model), while kernels occupy SMs — a copy and a kernel on
//!   different streams proceed concurrently.
//! - **Block-level admission**: a kernel is not a monolithic reservation.
//!   Its thread blocks are admitted to per-SM slots by the device core's
//!   [`CommandProcessor`] against register-file bytes, shared-memory
//!   bytes, warp slots, and block slots ([`crate::GpuSpec`] limits), and
//!   retired on the simulated clock by the [`RetirementQueue`], freeing
//!   their resources for whoever is waiting. Two kernels whose block
//!   shapes fit co-reside on the *same* SM (true kernel co-residency); a
//!   kernel that finds no free slots trickles in as earlier blocks
//!   retire.
//! - **Events**: [`StreamSim::record_event`] marks a point in one
//!   stream's FIFO; [`StreamSim::wait_event`] gates another stream on it
//!   (cross-stream dependencies without coupling whole streams).
//!
//! Pricing and placement are separable: [`StreamSim::price`] turns a
//! workload into a [`PricedOp`] and [`StreamSim::enqueue_priced`] places
//! it, so a caller that schedules the same work on several timelines
//! prices it once and enqueues clones. Pricing splits once more: the
//! engine prices fault-free ([`Engine::price_list`] returns a
//! [`CleanPrice`]) and [`StreamSim::draw`] draws the op's fault verdict,
//! so a caller that retries the same work prices it once and draws a
//! fresh verdict per attempt.
//!
//! The event loop advances the clock from instant to instant; at each
//! instant it retires due blocks, admits waiting blocks in kernel
//! activation order (visiting only launches with blocks still waiting,
//! so the loop's cost grows linearly with the trace), and commits every
//! schedulable stream head, scanning streams in ascending id — so heads
//! that become schedulable at the same cycle commit in
//! **lowest-stream-id order**, even when the copy engine and an SM slot
//! free at the same cycle. The schedule is a pure function
//! of the enqueued ops: pricing is worker-count-invariant and the
//! scheduler is serial, so reports and traces are byte-identical at any
//! `GNNADVISOR_SIM_THREADS` value.
//!
//! A kernel's span runs from its first block admission to its last block
//! retirement plus the launch-overhead teardown, so a kernel alone on an
//! idle device spans exactly its standalone `elapsed_cycles`. Each kernel
//! span also reports its **achieved occupancy** — time-averaged resident
//! warps over the device's warp slots across the span's execution window
//! (see [`OpSpan::occupancy`]).
//!
//! With a tracer attached to the engine, the committed schedule is
//! recorded as overlapping [`SpanKind::StreamKernel`] /
//! [`SpanKind::StreamCopy`] spans, one chrome lane per stream.

use crate::context::RunContext;
use crate::device::{BlockDemand, CommandProcessor, Retirement, RetirementQueue};
use crate::engine::{CleanPrice, Engine, Workload, WorkloadMetrics};
use crate::fault::FaultKind;
use crate::trace::{ArgValue, SpanKind, TraceEvent, STREAM_TRACK_BASE};
use crate::{GpuError, Result};

/// Identifies one simulated stream of a [`StreamSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(usize);

impl StreamId {
    /// The stream's index (issue order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identifies one simulated event of a [`StreamSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// Handle to one enqueued op: its stream and position in that stream's
/// FIFO. Use it to look up completion times in the [`StreamReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpHandle {
    /// The stream the op was enqueued on.
    pub stream: StreamId,
    /// The op's position in the stream's FIFO.
    pub index: usize,
}

/// What one scheduled op was, as reported in [`OpSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A kernel launch or roofline GEMM occupying per-SM block slots.
    Kernel,
    /// A host↔device transfer occupying the copy engine.
    Copy,
    /// An event record or wait (zero duration).
    Event,
}

/// One op's placement on the committed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    /// The stream the op ran on.
    pub stream: StreamId,
    /// The op's position in its stream's FIFO.
    pub index: usize,
    /// Display name (kernel name, `copy <n> B`, `record`/`wait`).
    pub name: String,
    /// What kind of op this was.
    pub class: OpClass,
    /// Scheduled start on the simulated clock, cycles. For kernels this
    /// is the first block admission.
    pub start_cycles: u64,
    /// Scheduled end on the simulated clock, cycles. For kernels this is
    /// the last block retirement plus the launch-overhead teardown.
    pub end_cycles: u64,
    /// Achieved occupancy over the span for kernels, `0.0` for copies and
    /// events: time-averaged resident warps of this kernel over the
    /// device's total warp slots, across the span's execution window
    /// (start to last retirement). A kernel squeezed in next to another
    /// kernel's blocks reports the share it actually held.
    pub occupancy: f64,
    /// The injected fault that killed this op, if any. A faulted op still
    /// occupies its resources for its full `[start, end)` window — the
    /// failure is observed at `end_cycles`.
    pub fault: Option<FaultKind>,
}

/// The committed schedule of one [`StreamSim::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Every op's placement, sorted by `(start_cycles, stream, index)` —
    /// so equal-start spans read in lowest-stream-id commit order.
    pub spans: Vec<OpSpan>,
    /// End of the last op, cycles (the schedule's simulated wall time).
    pub makespan_cycles: u64,
    /// The makespan in milliseconds at the device clock.
    pub makespan_ms: f64,
    /// Total cycles of kernel occupancy (sum over kernel spans of
    /// duration).
    pub kernel_busy_cycles: u64,
    /// Total cycles the copy engine was busy.
    pub copy_busy_cycles: u64,
    /// Highest number of distinct kernels simultaneously resident on one
    /// SM — `>= 2` is proof of true kernel co-residency.
    pub max_coresident_kernels_per_sm: u32,
    /// Peak device-wide resident warp slots at any instant; never exceeds
    /// `num_sms * max_warps_per_sm` (the admission invariant).
    pub peak_resident_warps: u64,
}

impl StreamReport {
    /// Duration-weighted mean achieved occupancy over the kernel spans,
    /// `0.0` when the schedule ran no kernels.
    pub fn mean_kernel_occupancy(&self) -> f64 {
        let mut weight = 0u64;
        let mut acc = 0.0;
        for span in &self.spans {
            if span.class == OpClass::Kernel {
                let dur = span.end_cycles - span.start_cycles;
                weight += dur;
                acc += span.occupancy * dur as f64;
            }
        }
        if weight == 0 {
            0.0
        } else {
            acc / weight as f64
        }
    }
}

/// The block-level shape of a priced kernel: what the device core admits.
#[derive(Debug, Clone, Copy)]
struct KernelShape {
    /// Thread blocks to admit.
    blocks: u64,
    /// Per-block resource demand.
    demand: BlockDemand,
    /// Warp slots per block (for occupancy reporting).
    warps_per_block: u32,
    /// Cycles each block holds its slot: standalone body time split over
    /// the waves the launch needs alone on the device, so a kernel alone
    /// finishes in its standalone time and a crowded kernel stretches.
    block_cycles: u64,
    /// Launch-overhead teardown charged after the last retirement.
    launch_cycles: u64,
}

/// The priced, schedulable form of one enqueued op.
#[derive(Debug, Clone)]
enum OpKind {
    /// Admits `shape.blocks` blocks through the command processor.
    Kernel(KernelShape),
    /// Occupies the copy engine for `cycles`.
    Copy { cycles: u64 },
    /// Marks the event complete when reached in the stream's FIFO.
    Record { event: usize },
    /// Blocks the stream until the event completes.
    Wait { event: usize },
}

#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    name: String,
    /// Earliest permitted start on the simulated clock (a release time —
    /// serving uses it to pin batches to their dispatch instants).
    not_before: u64,
    /// The injected fault this op dies with, drawn at enqueue time.
    fault: Option<FaultKind>,
}

/// A kernel the command processor is currently admitting or draining.
#[derive(Debug)]
struct ActiveKernel {
    stream: usize,
    index: usize,
    name: String,
    fault: Option<FaultKind>,
    shape: KernelShape,
    /// Blocks not yet admitted to an SM.
    to_admit: u64,
    /// Blocks admitted or pending whose retirement has not happened.
    to_retire: u64,
    /// First block admission instant (the span start).
    first_admit: Option<u64>,
}

/// One workload priced by [`StreamSim::price`] and not yet placed on a
/// stream: its schedulable shape, its standalone metrics and its fault
/// verdict. [`StreamSim::enqueue_priced`] places it; cloning it places the
/// same priced work on several schedules without pricing it again.
///
/// A `PricedOp` carries the fault verdict drawn when it was priced: with
/// a fault plan on the engine, the verdict is consumed from the plan's
/// sequence at [`StreamSim::price`] (or [`StreamSim::draw`]), and every
/// schedule the op (or a clone of it) is enqueued on sees that same
/// verdict.
#[derive(Debug, Clone)]
pub struct PricedOp {
    kind: OpKind,
    name: String,
    metrics: WorkloadMetrics,
    fault: Option<FaultKind>,
}

/// What [`StreamSim::try_enqueue_at`] committed: the op's handle, its
/// standalone metrics, and — with a fault plan attached to the engine —
/// whether the op is doomed to fail on the schedule. The fault is known
/// at enqueue time (verdicts are drawn in submission order), so callers
/// can plan retries before running the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Enqueued {
    /// Handle for completion-time lookups in the [`StreamReport`].
    pub handle: OpHandle,
    /// The op's standalone metrics (stretched if the op drew a slowdown).
    pub metrics: WorkloadMetrics,
    /// The fault this op will die with, if any; it still burns its full
    /// priced time on the schedule first.
    pub fault: Option<FaultKind>,
}

/// A deterministic multi-stream scheduler over one [`Engine`]. See the
/// module docs for the model; see [`StreamSim::run`] for the output.
#[derive(Debug)]
pub struct StreamSim<'e> {
    engine: &'e Engine,
    /// Private pricing contexts, one per kernel of the longest list priced
    /// so far, so enqueue-time pricing neither contends with nor perturbs
    /// the engine's shared context users.
    ctxs: Vec<RunContext>,
    streams: Vec<Vec<Op>>,
    /// `Some(record op issued)` per created event.
    event_recorded: Vec<bool>,
}

impl<'e> StreamSim<'e> {
    /// A simulator with no streams over `engine`'s cost model.
    pub fn new(engine: &'e Engine) -> Self {
        Self {
            engine,
            ctxs: Vec::new(),
            streams: Vec::new(),
            event_recorded: Vec::new(),
        }
    }

    /// Creates a new, empty stream.
    pub fn stream(&mut self) -> StreamId {
        self.streams.push(Vec::new());
        StreamId(self.streams.len() - 1)
    }

    /// Enqueues a workload on `stream`, pricing it through the engine
    /// immediately (ops are priced as if alone on the device; the
    /// scheduler arbitrates only *when* their blocks run). Returns the
    /// op's handle and its standalone metrics.
    pub fn enqueue(
        &mut self,
        stream: StreamId,
        workload: Workload<'_>,
    ) -> Result<(OpHandle, WorkloadMetrics)> {
        self.enqueue_at(stream, workload, 0)
    }

    /// [`StreamSim::enqueue`] with a release time: the op may not start
    /// before `not_before_cycles` on the simulated clock, even if its
    /// stream is idle earlier.
    pub fn enqueue_at(
        &mut self,
        stream: StreamId,
        workload: Workload<'_>,
        not_before_cycles: u64,
    ) -> Result<(OpHandle, WorkloadMetrics)> {
        self.try_enqueue_at(stream, workload, not_before_cycles)
            .map(|e| (e.handle, e.metrics))
    }

    /// [`StreamSim::enqueue_at`] exposing the op's enqueue-time fault
    /// verdict (always `None` without a fault plan on the engine):
    /// [`StreamSim::price`] followed by [`StreamSim::enqueue_priced`].
    pub fn try_enqueue_at(
        &mut self,
        stream: StreamId,
        workload: Workload<'_>,
        not_before_cycles: u64,
    ) -> Result<Enqueued> {
        // An unknown stream fails before pricing draws a fault verdict.
        self.check_stream(stream)?;
        let op = self.price(workload)?;
        self.enqueue_priced(stream, op, not_before_cycles)
    }

    /// Prices a workload through the engine as if alone on the device,
    /// drawing its fault verdict from the engine's fault plan (if any),
    /// without placing it on a stream: [`StreamSim::price_list`] of the
    /// one-op list.
    pub fn price(&mut self, workload: Workload<'_>) -> Result<PricedOp> {
        let mut ops = self.price_list(&[workload])?;
        Ok(ops.pop().expect("one op priced"))
    }

    /// Prices every workload of `list` with [`Engine::price_list`] (one
    /// host pool job for all its kernels), then draws each op's fault
    /// verdict in list order with [`StreamSim::draw`]. Equal to calling
    /// [`StreamSim::price`] on each workload in turn.
    pub fn price_list(&mut self, list: &[Workload<'_>]) -> Result<Vec<PricedOp>> {
        let clean = self.engine.price_list(&mut self.ctxs, list)?;
        Ok(clean.iter().map(|c| self.draw(c)).collect())
    }

    /// Draws the fault verdict of one clean-priced op from the engine's
    /// fault plan (if any) and returns the op ready to place. A `Slow`
    /// verdict stretches a kernel's or GEMM's clean metrics; a transfer is
    /// never stretched. Each call consumes one verdict, so drawing the
    /// same clean price again (a retry) draws a fresh verdict. `clean`
    /// must have been priced by an engine with this engine's [`GpuSpec`].
    ///
    /// [`GpuSpec`]: crate::GpuSpec
    pub fn draw(&self, clean: &CleanPrice) -> PricedOp {
        let mut metrics = clean.metrics.clone();
        let (fault, _) = self.engine.draw_verdict(&mut metrics);
        let spec = self.engine.spec();
        let (kind, name) = match (&metrics, clean.resources) {
            (WorkloadMetrics::Kernel(m), Some(resources)) => {
                // Split the standalone body over the waves the launch
                // needs alone: occupancy_limit blocks per SM at a time.
                let occupancy = spec.occupancy_limit(&resources).get().max(1) as u64;
                let capacity = occupancy * spec.num_sms as u64;
                let blocks = m.num_blocks.max(1);
                let waves = blocks.div_ceil(capacity);
                let body = m.elapsed_cycles.saturating_sub(spec.kernel_launch_cycles);
                (
                    OpKind::Kernel(KernelShape {
                        blocks,
                        demand: BlockDemand::of(&resources),
                        warps_per_block: resources.warps(),
                        block_cycles: body.div_ceil(waves.max(1)),
                        launch_cycles: spec.kernel_launch_cycles,
                    }),
                    m.name.clone(),
                )
            }
            (WorkloadMetrics::Kernel(_), None) => {
                unreachable!("kernels and GEMMs price with their block shape")
            }
            (WorkloadMetrics::Transfer(m), _) => (
                OpKind::Copy {
                    cycles: spec.ms_to_cycles(m.time_ms),
                },
                format!("copy {} B", m.bytes),
            ),
        };
        PricedOp {
            kind,
            name,
            metrics,
            fault,
        }
    }

    /// Places an op priced by [`StreamSim::price`] on `stream`, released
    /// at `not_before_cycles`. The op must have been priced by a
    /// simulator over the same engine.
    pub fn enqueue_priced(
        &mut self,
        stream: StreamId,
        op: PricedOp,
        not_before_cycles: u64,
    ) -> Result<Enqueued> {
        self.check_stream(stream)?;
        let PricedOp {
            kind,
            name,
            metrics,
            fault,
        } = op;
        let handle = self.push_op(
            stream,
            Op {
                kind,
                name,
                not_before: not_before_cycles,
                fault,
            },
        );
        Ok(Enqueued {
            handle,
            metrics,
            fault,
        })
    }

    /// Creates an event. It completes when a [`StreamSim::record_event`]
    /// op for it is reached in its stream's FIFO.
    pub fn event(&mut self) -> EventId {
        self.event_recorded.push(false);
        EventId(self.event_recorded.len() - 1)
    }

    /// Enqueues a record op for `event` on `stream`: the event completes
    /// once every op enqueued on `stream` before this point has finished.
    pub fn record_event(&mut self, stream: StreamId, event: EventId) -> Result<OpHandle> {
        self.check_stream(stream)?;
        let recorded = self
            .event_recorded
            .get_mut(event.0)
            .ok_or(GpuError::UnknownEvent { id: event.0 })?;
        if *recorded {
            return Err(GpuError::InvalidConfig {
                reason: format!("event {} recorded twice", event.0),
            });
        }
        *recorded = true;
        Ok(self.push_op(
            stream,
            Op {
                kind: OpKind::Record { event: event.0 },
                name: format!("record e{}", event.0),
                not_before: 0,
                fault: None,
            },
        ))
    }

    /// Enqueues a wait op on `stream`: subsequent ops of the stream may
    /// not start until `event` completes.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<OpHandle> {
        self.check_stream(stream)?;
        if event.0 >= self.event_recorded.len() {
            return Err(GpuError::UnknownEvent { id: event.0 });
        }
        Ok(self.push_op(
            stream,
            Op {
                kind: OpKind::Wait { event: event.0 },
                name: format!("wait e{}", event.0),
                not_before: 0,
                fault: None,
            },
        ))
    }

    fn check_stream(&self, stream: StreamId) -> Result<()> {
        if stream.0 < self.streams.len() {
            Ok(())
        } else {
            Err(GpuError::UnknownStream { id: stream.0 })
        }
    }

    fn push_op(&mut self, stream: StreamId, op: Op) -> OpHandle {
        let fifo = &mut self.streams[stream.0];
        fifo.push(op);
        OpHandle {
            stream,
            index: fifo.len() - 1,
        }
    }

    /// Schedules every enqueued op and returns the committed timeline.
    ///
    /// Discrete-event loop over the device core: at each instant the loop
    /// (a) retires due block groups through the [`RetirementQueue`],
    /// returning their SM resources, (b) admits waiting blocks through
    /// the [`CommandProcessor`] in kernel activation order, and (c)
    /// commits every stream head whose dependencies (FIFO order, release
    /// time, event completion, copy-engine availability) are met,
    /// scanning streams in ascending id — heads that become schedulable
    /// at the same cycle therefore commit in lowest-stream-id order. The
    /// clock then advances to the next retirement, release, event, or
    /// copy-engine instant. Consumes the simulator — one `StreamSim` is
    /// one schedule.
    ///
    /// # Errors
    ///
    /// [`GpuError::StreamDeadlock`] when no head is schedulable but ops
    /// remain (every remaining head waits on an event whose record op
    /// sits behind another blocked wait, or was never enqueued). The
    /// reported stream is the lowest blocked id.
    pub fn run(self) -> Result<StreamReport> {
        let spec = self.engine.spec();
        let num_streams = self.streams.len();
        let total_ops: usize = self.streams.iter().map(Vec::len).sum();
        let device_warp_slots = spec.num_sms as u64 * spec.max_warps_per_sm() as u64;

        let mut next_op = vec![0usize; num_streams];
        /// Sentinel for "a kernel of this stream is still in flight".
        const IN_FLIGHT: u64 = u64::MAX;
        let mut stream_ready = vec![0u64; num_streams];
        let mut event_time: Vec<Option<u64>> = vec![None; self.event_recorded.len()];
        let mut copy_free = 0u64;
        let mut cp = CommandProcessor::new(spec);
        let mut rq = RetirementQueue::new();
        let mut active: Vec<ActiveKernel> = Vec::new();
        // Ids into `active` of the launches with blocks still to admit, in
        // activation order.
        let mut admitting: Vec<usize> = Vec::new();
        let mut spans: Vec<OpSpan> = Vec::new();
        let mut kernel_busy = 0u64;
        let mut copy_busy = 0u64;
        let mut resident_warps = 0u64;
        let mut peak_resident_warps = 0u64;
        let mut now = 0u64;

        while spans.len() < total_ops {
            // Fixpoint at `now`: retire, admit, and commit until nothing
            // changes at this instant.
            loop {
                let mut changed = false;

                // (a) Retire due block groups; completed kernels close
                // their span after the launch-overhead teardown.
                for r in rq.pop_due(now) {
                    let ak = &mut active[r.launch];
                    cp.retire(r.sm, r.launch, &ak.shape.demand, r.blocks);
                    resident_warps -= r.blocks * ak.shape.warps_per_block as u64;
                    ak.to_retire -= r.blocks;
                    changed = true;
                    if ak.to_retire == 0 {
                        let start = ak.first_admit.expect("retired blocks were admitted");
                        let end = now + ak.shape.launch_cycles;
                        let window = now - start;
                        let block_cycles_total = ak.shape.blocks
                            * ak.shape.block_cycles
                            * ak.shape.warps_per_block as u64;
                        let occupancy = if window == 0 {
                            0.0
                        } else {
                            (block_cycles_total as f64 / (window as f64 * device_warp_slots as f64))
                                .min(1.0)
                        };
                        kernel_busy += end - start;
                        spans.push(OpSpan {
                            stream: StreamId(ak.stream),
                            index: ak.index,
                            name: std::mem::take(&mut ak.name),
                            class: OpClass::Kernel,
                            start_cycles: start,
                            end_cycles: end,
                            occupancy,
                            fault: ak.fault,
                        });
                        stream_ready[ak.stream] = end;
                    }
                }

                // (b) Admit waiting blocks in kernel activation order
                // (FIFO — an earlier launch keeps first claim on freed
                // slots; within a launch, admission is breadth-first).
                // Only launches with blocks left to admit are visited, so
                // an instant costs the waiting launches, not every launch
                // the schedule has activated.
                for &id in &admitting {
                    let ak = &mut active[id];
                    let placed = cp.admit_up_to(id, &ak.shape.demand, ak.to_admit);
                    let mut admitted = 0u64;
                    for (sm, blocks) in placed {
                        admitted += blocks;
                        rq.push(Retirement {
                            at: now + ak.shape.block_cycles,
                            launch: id,
                            sm,
                            blocks,
                        });
                    }
                    if admitted > 0 {
                        ak.to_admit -= admitted;
                        ak.first_admit.get_or_insert(now);
                        resident_warps += admitted * ak.shape.warps_per_block as u64;
                        peak_resident_warps = peak_resident_warps.max(resident_warps);
                        changed = true;
                    }
                }
                admitting.retain(|&id| active[id].to_admit > 0);

                // (c) Commit schedulable stream heads, ascending stream
                // id: the deterministic tie-break.
                for s in 0..num_streams {
                    if stream_ready[s] == IN_FLIGHT {
                        continue;
                    }
                    let Some(op) = self.streams[s].get(next_op[s]) else {
                        continue;
                    };
                    let dep = stream_ready[s].max(op.not_before);
                    if dep > now {
                        continue;
                    }
                    match op.kind {
                        OpKind::Record { event } => {
                            event_time[event] = Some(now);
                        }
                        OpKind::Wait { event } => {
                            if event_time[event].is_none_or(|t| t > now) {
                                continue;
                            }
                        }
                        OpKind::Copy { cycles } => {
                            if copy_free > now {
                                continue;
                            }
                            copy_free = now + cycles;
                            copy_busy += cycles;
                            spans.push(OpSpan {
                                stream: StreamId(s),
                                index: next_op[s],
                                name: op.name.clone(),
                                class: OpClass::Copy,
                                start_cycles: now,
                                end_cycles: now + cycles,
                                occupancy: 0.0,
                                fault: op.fault,
                            });
                            stream_ready[s] = now + cycles;
                            next_op[s] += 1;
                            changed = true;
                            continue;
                        }
                        OpKind::Kernel(shape) => {
                            // Activation: the launch joins the admission
                            // queue; its span is closed at retirement.
                            active.push(ActiveKernel {
                                stream: s,
                                index: next_op[s],
                                name: op.name.clone(),
                                fault: op.fault,
                                shape,
                                to_admit: shape.blocks,
                                to_retire: shape.blocks,
                                first_admit: None,
                            });
                            admitting.push(active.len() - 1);
                            stream_ready[s] = IN_FLIGHT;
                            next_op[s] += 1;
                            changed = true;
                            continue;
                        }
                    }
                    // Record / satisfied Wait: zero-duration event op.
                    spans.push(OpSpan {
                        stream: StreamId(s),
                        index: next_op[s],
                        name: op.name.clone(),
                        class: OpClass::Event,
                        start_cycles: now,
                        end_cycles: now,
                        occupancy: 0.0,
                        fault: None,
                    });
                    stream_ready[s] = now;
                    next_op[s] += 1;
                    changed = true;
                }

                if !changed {
                    break;
                }
            }
            if spans.len() >= total_ops {
                break;
            }

            // Advance the clock to the next instant anything can happen:
            // a block retirement, a release time, a stream becoming
            // ready, a recorded event, or the copy engine freeing.
            let mut next_time: Option<u64> = rq.next_at();
            for s in 0..num_streams {
                if stream_ready[s] == IN_FLIGHT {
                    continue; // its retirements drive progress
                }
                let Some(op) = self.streams[s].get(next_op[s]) else {
                    continue;
                };
                let dep = stream_ready[s].max(op.not_before);
                let candidate = if dep > now {
                    Some(dep)
                } else {
                    match op.kind {
                        OpKind::Wait { event } => event_time[event].filter(|&t| t > now),
                        OpKind::Copy { .. } => (copy_free > now).then_some(copy_free),
                        // A ready kernel or record would have committed
                        // in the fixpoint above.
                        OpKind::Kernel(_) | OpKind::Record { .. } => None,
                    }
                };
                if let Some(t) = candidate {
                    next_time = Some(next_time.map_or(t, |n| n.min(t)));
                }
            }
            let Some(t) = next_time else {
                let stream = (0..num_streams)
                    .find(|&s| next_op[s] < self.streams[s].len())
                    .expect("ops remain, so some stream is blocked");
                return Err(GpuError::StreamDeadlock { stream });
            };
            debug_assert!(t > now, "the clock must advance");
            now = t;
        }
        debug_assert!(cp.is_idle(), "every admitted block must retire");

        spans.sort_by(|a, b| {
            (a.start_cycles, a.stream.0, a.index).cmp(&(b.start_cycles, b.stream.0, b.index))
        });
        let makespan_cycles = spans.iter().map(|s| s.end_cycles).max().unwrap_or(0);
        let report = StreamReport {
            makespan_cycles,
            makespan_ms: spec.cycles_to_ms(makespan_cycles),
            kernel_busy_cycles: kernel_busy,
            copy_busy_cycles: copy_busy,
            max_coresident_kernels_per_sm: cp.max_coresident_launches(),
            peak_resident_warps,
            spans,
        };
        if let Some(tracer) = self.engine.tracer() {
            let events: Vec<TraceEvent> = report
                .spans
                .iter()
                .filter(|span| span.class != OpClass::Event)
                .map(|span| TraceEvent {
                    kind: match span.class {
                        OpClass::Copy => SpanKind::StreamCopy,
                        _ => SpanKind::StreamKernel,
                    },
                    name: span.name.clone(),
                    start_cycles: span.start_cycles,
                    dur_cycles: span.end_cycles - span.start_cycles,
                    track: STREAM_TRACK_BASE + span.stream.0 as u32,
                    args: {
                        let mut args = vec![
                            ("stream", ArgValue::Int(span.stream.0 as u64)),
                            ("cycles", ArgValue::Int(span.end_cycles - span.start_cycles)),
                        ];
                        if span.class == OpClass::Kernel {
                            args.push((
                                "occupancy",
                                ArgValue::Text(format!("{:.4}", span.occupancy)),
                            ));
                        }
                        if let Some(kind) = span.fault {
                            args.push(("fault", ArgValue::Text(kind.label().into())));
                        }
                        args
                    },
                    counter: false,
                })
                .collect();
            tracer.record_stream_schedule(events, makespan_cycles);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use crate::trace::TraceRecorder;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(GpuSpec::quadro_p6000())
    }

    /// A GEMM sized to `blocks` thread blocks (the roofline model assigns
    /// one block per 64 rows), for controlling block demand. GEMM tiles
    /// co-reside two per SM (the 48 KiB shared-memory stage binds), so 60
    /// blocks fill the P6000.
    fn gemm_with_blocks(blocks: usize) -> Workload<'static> {
        Workload::Gemm {
            m: blocks * 64,
            n: 64,
            k: 256,
        }
    }

    #[test]
    fn fifo_within_a_stream() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let (a, _) = sim.enqueue(s, gemm_with_blocks(4)).unwrap();
        let (b, _) = sim.enqueue(s, gemm_with_blocks(4)).unwrap();
        let (c, _) = sim
            .enqueue(s, Workload::Transfer { bytes: 1 << 20 })
            .unwrap();
        let report = sim.run().unwrap();
        // Ops on one stream execute in order, back to back.
        let spans = &report.spans;
        assert_eq!(spans.len(), 3);
        for (span, h) in spans.iter().zip([a, b, c]) {
            assert_eq!((span.stream, span.index), (h.stream, h.index));
        }
        assert!(spans[0].end_cycles < spans[1].end_cycles);
        assert!(spans[1].end_cycles < spans[2].end_cycles);
        assert!(spans[1].start_cycles >= spans[0].end_cycles);
        assert!(spans[2].start_cycles >= spans[1].end_cycles);
    }

    #[test]
    fn a_kernel_alone_spans_its_standalone_time() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let (h, m) = sim.enqueue(s, gemm_with_blocks(30)).unwrap();
        let report = sim.run().unwrap();
        // First admission at 0, last retirement + launch teardown at the
        // standalone elapsed time: the single-kernel timings of the old
        // whole-kernel scheduler are preserved exactly.
        let span = &report.spans[0];
        assert_eq!((span.stream, span.index), (h.stream, h.index));
        assert_eq!(span.end_cycles, m.into_kernel().elapsed_cycles);
        assert_eq!(report.spans[0].start_cycles, 0);
        // 30 one-per-SM blocks of 8 warps each: 8/64 of the warp slots.
        assert!((report.spans[0].occupancy - 0.125).abs() < 1e-9);
    }

    #[test]
    fn copy_and_compute_overlap_across_streams() {
        let e = engine();
        // Serialized: one stream runs copy then kernel.
        let mut serial = StreamSim::new(&e);
        let s = serial.stream();
        serial
            .enqueue(s, Workload::Transfer { bytes: 64 << 20 })
            .unwrap();
        serial.enqueue(s, gemm_with_blocks(30)).unwrap();
        let serial = serial.run().unwrap();

        // Overlapped: copy and kernel on independent streams.
        let mut overlap = StreamSim::new(&e);
        let s0 = overlap.stream();
        let s1 = overlap.stream();
        overlap
            .enqueue(s0, Workload::Transfer { bytes: 64 << 20 })
            .unwrap();
        overlap.enqueue(s1, gemm_with_blocks(30)).unwrap();
        let overlap = overlap.run().unwrap();

        assert!(
            overlap.makespan_cycles < serial.makespan_cycles,
            "copy/compute overlap must shorten the makespan: {} vs {}",
            overlap.makespan_cycles,
            serial.makespan_cycles
        );
        // The overlapped makespan is the max of the two ops, not the sum.
        let longest = serial
            .spans
            .iter()
            .map(|s| s.end_cycles - s.start_cycles)
            .max()
            .unwrap();
        assert_eq!(overlap.makespan_cycles, longest);
    }

    #[test]
    fn copies_serialize_on_the_copy_engine() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s0 = sim.stream();
        let s1 = sim.stream();
        let (a, _) = sim
            .enqueue(s0, Workload::Transfer { bytes: 32 << 20 })
            .unwrap();
        let (b, _) = sim
            .enqueue(s1, Workload::Transfer { bytes: 32 << 20 })
            .unwrap();
        let report = sim.run().unwrap();
        let (a_span, b_span) = (
            report.spans.iter().find(|s| s.stream == a.stream).unwrap(),
            report.spans.iter().find(|s| s.stream == b.stream).unwrap(),
        );
        // One copy engine: the second transfer starts when the first ends.
        assert_eq!(b_span.start_cycles, a_span.end_cycles);
    }

    #[test]
    fn small_kernels_co_reside_big_kernels_serialize() {
        let e = engine();
        let launch = e.spec().kernel_launch_cycles;
        // Two device-filling kernels (60 blocks = 2 per SM x 30 SMs).
        let mut big = StreamSim::new(&e);
        let (b0, b1) = (big.stream(), big.stream());
        let (_, m) = big.enqueue(b0, gemm_with_blocks(60)).unwrap();
        big.enqueue(b1, gemm_with_blocks(60)).unwrap();
        let big = big.run().unwrap();
        let one = m.into_kernel().elapsed_cycles;
        // The second kernel's blocks admit the instant the first's
        // retire, so only one launch teardown sits on the critical path.
        assert_eq!(
            big.makespan_cycles,
            2 * one - launch,
            "device-filling kernels must serialize block-for-block"
        );

        // Two half-device kernels (30 blocks each) co-reside: every SM
        // hosts one block of each, and the makespan is a single kernel's.
        let mut half = StreamSim::new(&e);
        let (h0, h1) = (half.stream(), half.stream());
        let (_, m) = half.enqueue(h0, gemm_with_blocks(30)).unwrap();
        half.enqueue(h1, gemm_with_blocks(30)).unwrap();
        let half = half.run().unwrap();
        assert_eq!(
            half.makespan_cycles,
            m.into_kernel().elapsed_cycles,
            "half-device kernels must co-reside"
        );
        assert!(
            half.max_coresident_kernels_per_sm >= 2,
            "both kernels' blocks must share SMs, got {}",
            half.max_coresident_kernels_per_sm
        );

        // Two one-block kernels fit side by side too.
        let mut small = StreamSim::new(&e);
        let (s0, s1) = (small.stream(), small.stream());
        let (_, m) = small.enqueue(s0, gemm_with_blocks(1)).unwrap();
        small.enqueue(s1, gemm_with_blocks(1)).unwrap();
        let small = small.run().unwrap();
        assert_eq!(
            small.makespan_cycles,
            m.into_kernel().elapsed_cycles,
            "one-block kernels must co-reside"
        );
    }

    #[test]
    fn sm_capacity_is_never_overcommitted() {
        let e = engine();
        let spec = e.spec().clone();
        let mut sim = StreamSim::new(&e);
        // A mix of demands across eight streams, with releases that tempt
        // the scheduler into packing mistakes. Combined demand (114
        // blocks) is nearly twice the device's 60 block slots.
        let demands = [20usize, 15, 10, 5, 25, 1, 30, 8];
        for (i, &d) in demands.iter().enumerate() {
            let s = sim.stream();
            sim.enqueue_at(s, gemm_with_blocks(d), (i as u64) * 1_000)
                .unwrap();
        }
        let report = sim.run().unwrap();
        // The admission invariant, observed end to end: peak device-wide
        // resident warps never exceed the warp slots.
        let warp_slots = spec.num_sms as u64 * spec.max_warps_per_sm() as u64;
        assert!(
            report.peak_resident_warps <= warp_slots,
            "overcommitted: {} resident warps > {warp_slots} slots",
            report.peak_resident_warps
        );
        // And the device really was shared: more than one kernel's worth
        // of warps was resident at the peak (30 blocks x 8 warps = 240).
        assert!(report.peak_resident_warps > 240);
        assert!(report.max_coresident_kernels_per_sm >= 2);
        let mean = report.mean_kernel_occupancy();
        assert!(mean > 0.0 && mean <= 1.0, "occupancy {mean} out of range");
    }

    #[test]
    fn equal_start_heads_commit_in_stream_order() {
        let e = engine();
        let launch = e.spec().kernel_launch_cycles;
        let mut sim = StreamSim::new(&e);
        let s0 = sim.stream();
        let s1 = sim.stream();
        // Two device-filling kernels released at the same instant: both
        // heads are schedulable at cycle 0 and contend for every block
        // slot. The lowest stream id must win the device.
        let (_, m) = sim.enqueue_at(s1, gemm_with_blocks(60), 0).unwrap();
        sim.enqueue_at(s0, gemm_with_blocks(60), 0).unwrap();
        let report = sim.run().unwrap();
        let one = m.into_kernel().elapsed_cycles;
        assert_eq!(report.spans[0].stream, s0, "lowest stream commits first");
        assert_eq!(report.spans[0].start_cycles, 0);
        assert_eq!(
            report.spans[1].stream, s1,
            "spans sort (start, stream, index)"
        );
        assert_eq!(
            report.spans[1].start_cycles,
            one - launch,
            "stream 1's blocks admit when stream 0's retire"
        );
    }

    #[test]
    fn copy_engine_and_sm_ties_resolve_to_lowest_stream() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s0 = sim.stream();
        let s1 = sim.stream();
        let s2 = sim.stream();
        let s3 = sim.stream();
        // Blockers: a copy holding the copy engine and a device-filling
        // kernel holding every SM block slot.
        let (_, copy_m) = sim
            .enqueue(s2, Workload::Transfer { bytes: 32 << 20 })
            .unwrap();
        let (_, kernel_m) = sim.enqueue(s3, gemm_with_blocks(60)).unwrap();
        let copy_frees = e.spec().ms_to_cycles(copy_m.time_ms());
        let sm_frees = kernel_m.into_kernel().elapsed_cycles - e.spec().kernel_launch_cycles;
        // Followers released at the instant both resources are free (the
        // later of the two frees; the other freed earlier): a follow-up
        // copy on stream 1 and a follow-up kernel on stream 0, both
        // schedulable at exactly `t`.
        let t = copy_frees.max(sm_frees);
        let (k, _) = sim.enqueue_at(s0, gemm_with_blocks(60), t).unwrap();
        let (c, _) = sim
            .enqueue_at(s1, Workload::Transfer { bytes: 1 << 20 }, t)
            .unwrap();
        let report = sim.run().unwrap();
        let kernel_span = report
            .spans
            .iter()
            .find(|sp| sp.stream == k.stream && sp.index == k.index)
            .unwrap();
        let copy_span = report
            .spans
            .iter()
            .find(|sp| sp.stream == c.stream && sp.index == c.index)
            .unwrap();
        assert_eq!(kernel_span.start_cycles, t);
        assert_eq!(copy_span.start_cycles, t);
        // Equal starts read in lowest-stream-id order: the stream-0
        // kernel precedes the stream-1 copy in the sorted spans.
        let pos = |stream: StreamId| {
            report
                .spans
                .iter()
                .position(|sp| sp.stream == stream && sp.start_cycles == t)
                .unwrap()
        };
        assert!(pos(s0) < pos(s1), "lowest stream id commits first on ties");
    }

    #[test]
    fn events_order_across_streams() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let producer = sim.stream();
        let consumer = sim.stream();
        let (prod_op, _) = sim.enqueue(producer, gemm_with_blocks(10)).unwrap();
        let done = sim.event();
        sim.record_event(producer, done).unwrap();
        sim.wait_event(consumer, done).unwrap();
        let (cons_op, _) = sim.enqueue(consumer, gemm_with_blocks(10)).unwrap();
        let report = sim.run().unwrap();
        let produced = report
            .spans
            .iter()
            .find(|s| s.stream == prod_op.stream && s.index == prod_op.index)
            .unwrap()
            .end_cycles;
        let consumer_span = report
            .spans
            .iter()
            .find(|s| s.stream == cons_op.stream && s.index == cons_op.index)
            .unwrap();
        assert!(
            consumer_span.start_cycles >= produced,
            "consumer started at {} before the producer finished at {produced}",
            consumer_span.start_cycles
        );
    }

    #[test]
    fn release_times_hold_work_back() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let (h, _) = sim.enqueue_at(s, gemm_with_blocks(2), 1_000_000).unwrap();
        let report = sim.run().unwrap();
        let span = report
            .spans
            .iter()
            .find(|sp| sp.stream == h.stream && sp.index == h.index)
            .unwrap();
        assert_eq!(span.start_cycles, 1_000_000);
    }

    #[test]
    fn wait_before_record_cycle_deadlocks() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let a = sim.stream();
        let b = sim.stream();
        let ea = sim.event();
        let eb = sim.event();
        // a waits for eb before recording ea; b waits for ea before
        // recording eb: classic cross-wait cycle.
        sim.wait_event(a, eb).unwrap();
        sim.record_event(a, ea).unwrap();
        sim.wait_event(b, ea).unwrap();
        sim.record_event(b, eb).unwrap();
        let err = sim.run().unwrap_err();
        assert_eq!(err, GpuError::StreamDeadlock { stream: 0 });
    }

    #[test]
    fn wait_on_never_recorded_event_deadlocks() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let idle = sim.stream();
        let blocked = sim.stream();
        // The event exists but no stream ever records it; work queued
        // behind the wait must surface as a deadlock on the waiting
        // stream, not hang or get scheduled.
        let never = sim.event();
        sim.enqueue(idle, gemm_with_blocks(2)).unwrap();
        sim.wait_event(blocked, never).unwrap();
        sim.enqueue(blocked, gemm_with_blocks(2)).unwrap();
        let err = sim.run().unwrap_err();
        assert_eq!(err, GpuError::StreamDeadlock { stream: blocked.0 });
    }

    #[test]
    fn invalid_handles_are_rejected() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let ev = sim.event();
        let other = StreamId(7);
        assert_eq!(
            sim.enqueue(other, gemm_with_blocks(1)).unwrap_err(),
            GpuError::UnknownStream { id: 7 }
        );
        assert_eq!(
            sim.wait_event(s, EventId(9)).unwrap_err(),
            GpuError::UnknownEvent { id: 9 }
        );
        sim.record_event(s, ev).unwrap();
        assert!(matches!(
            sim.record_event(s, ev).unwrap_err(),
            GpuError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn schedule_is_identical_across_sim_thread_counts() {
        let spec = GpuSpec::quadro_p6000();
        let run_at = |threads: usize| {
            let tracer = Arc::new(TraceRecorder::new());
            let e = Engine::builder(spec.clone())
                .sim_threads(threads)
                .tracer(Arc::clone(&tracer))
                .build()
                .unwrap();
            let mut sim = StreamSim::new(&e);
            let s0 = sim.stream();
            let s1 = sim.stream();
            sim.enqueue(s0, Workload::Transfer { bytes: 8 << 20 })
                .unwrap();
            sim.enqueue(s0, gemm_with_blocks(12)).unwrap();
            let ev = sim.event();
            sim.record_event(s0, ev).unwrap();
            sim.wait_event(s1, ev).unwrap();
            sim.enqueue(s1, gemm_with_blocks(25)).unwrap();
            sim.enqueue(s1, Workload::Transfer { bytes: 4 << 20 })
                .unwrap();
            let report = sim.run().unwrap();
            (report, tracer.to_chrome_json())
        };
        let (serial_report, serial_trace) = run_at(1);
        for threads in [2, 4] {
            let (report, trace) = run_at(threads);
            assert_eq!(report, serial_report, "threads {threads}");
            assert_eq!(trace, serial_trace, "threads {threads}");
        }
    }

    #[test]
    fn faulted_ops_burn_their_cycles_on_the_schedule() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let plan = Arc::new(
            FaultPlan::new(FaultConfig {
                transfer_fail_prob: 1.0,
                seed: 9,
                ..FaultConfig::default()
            })
            .unwrap(),
        );
        let e = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(plan)
            .build()
            .unwrap();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let doomed = sim
            .try_enqueue_at(s, Workload::Transfer { bytes: 32 << 20 }, 0)
            .unwrap();
        assert_eq!(doomed.fault, Some(FaultKind::TransferFailure));
        let clean = sim.try_enqueue_at(s, gemm_with_blocks(4), 0).unwrap();
        assert_eq!(clean.fault, None);
        let report = sim.run().unwrap();
        let copy = &report.spans[0];
        assert_eq!(copy.fault, Some(FaultKind::TransferFailure));
        // The doomed transfer holds the copy engine for its full priced
        // window; the next op on the stream starts only after it ends.
        let copy_cycles = e.spec().ms_to_cycles(doomed.metrics.time_ms());
        assert_eq!(copy.end_cycles - copy.start_cycles, copy_cycles);
        assert!(copy_cycles > 0);
        let kernel = &report.spans[1];
        assert_eq!(kernel.fault, None);
        assert!(kernel.start_cycles >= copy.end_cycles);
        assert_eq!(report.copy_busy_cycles, copy_cycles);
    }

    #[test]
    fn traced_schedules_emit_overlapping_stream_spans() {
        let tracer = Arc::new(TraceRecorder::new());
        let e = Engine::builder(GpuSpec::quadro_p6000())
            .tracer(Arc::clone(&tracer))
            .build()
            .unwrap();
        let mut sim = StreamSim::new(&e);
        let s0 = sim.stream();
        let s1 = sim.stream();
        sim.enqueue(s0, Workload::Transfer { bytes: 64 << 20 })
            .unwrap();
        sim.enqueue(s1, gemm_with_blocks(30)).unwrap();
        let report = sim.run().unwrap();
        // Pricing must not leak device-stream spans; only the committed
        // schedule is recorded, and the clock advances by the makespan.
        assert_eq!(tracer.clock_cycles(), report.makespan_cycles);
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.kind == SpanKind::StreamCopy));
        assert!(events.iter().any(|e| e.kind == SpanKind::StreamKernel));
        // The two spans overlap on the timeline (that's the point).
        let (a, b) = (&events[0], &events[1]);
        assert!(
            a.start_cycles < b.start_cycles + b.dur_cycles
                && b.start_cycles < a.start_cycles + a.dur_cycles,
            "stream spans must overlap: {a:?} vs {b:?}"
        );
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"cat\":\"stream_copy\""));
        assert!(json.contains("\"cat\":\"stream_kernel\""));
        assert!(
            json.contains("\"occupancy\""),
            "kernel stream spans carry their achieved occupancy"
        );
    }
}
