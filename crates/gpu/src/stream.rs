//! Simulated CUDA-style streams on the simulated clock.
//!
//! The serial [`Engine`] answers "how long does this kernel take alone?";
//! this module answers "how long does a *mix* take when issued onto
//! concurrent streams?" — the question serving workloads ask. A
//! [`StreamSim`] borrows an engine and schedules ops the engine has
//! already priced with a serial discrete-event loop that models the
//! overlap machinery of a real device:
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
//!
//! The simulator prices nothing itself. Work reaches it one way: the
//! engine prices a list fault-free ([`Engine::price_list`] returns one
//! [`CleanPrice`] per op), [`StreamSim::draw`] draws an op's fault
//! verdict into a [`PricedOp`], and [`StreamSim::enqueue_priced`] places
//! it on a stream with a release time. A caller that retries the same work
//! prices it once and draws a fresh verdict per attempt; a caller that
//! schedules the same work on several timelines places clones of one
//! `PricedOp`.
//!
//! The event loop advances the clock from instant to instant; at each
//! instant it retires due blocks, admits waiting blocks in kernel
//! activation order (visiting only launches with blocks still waiting,
//! so the loop's cost grows linearly with the trace), and commits every
//! schedulable stream head, scanning streams in ascending id — so heads
//! that become schedulable at the same cycle commit in
//! **lowest-stream-id order**, even when the copy engine and an SM slot
//! free at the same cycle. The schedule is a pure function
//! of the placed ops: pricing is worker-count-invariant and the
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

use crate::device::{BlockDemand, CommandProcessor, Retirement, RetirementQueue};
use crate::engine::{CleanPrice, Engine, WorkloadMetrics};
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
}

/// One op's placement on the committed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    /// The stream the op ran on.
    pub stream: StreamId,
    /// The op's position in its stream's FIFO.
    pub index: usize,
    /// Display name (kernel name or `copy <n> B`).
    pub name: String,
    /// What kind of op this was.
    pub class: OpClass,
    /// Scheduled start on the simulated clock, cycles. For kernels this
    /// is the first block admission.
    pub start_cycles: u64,
    /// Scheduled end on the simulated clock, cycles. For kernels this is
    /// the last block retirement plus the launch-overhead teardown.
    pub end_cycles: u64,
    /// Achieved occupancy over the span for kernels, `0.0` for copies:
    /// time-averaged resident warps of this kernel over the device's total
    /// warp slots, across the span's execution window (start to last
    /// retirement). A kernel squeezed in next to another kernel's blocks
    /// reports the share it actually held.
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

/// The priced, schedulable form of one placed op.
#[derive(Debug, Clone)]
enum OpKind {
    /// Admits `shape.blocks` blocks through the command processor.
    Kernel(KernelShape),
    /// Occupies the copy engine for `cycles`.
    Copy { cycles: u64 },
}

#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    name: String,
    /// Earliest permitted start on the simulated clock (a release time —
    /// serving uses it to pin batches to their dispatch instants).
    not_before: u64,
    /// The injected fault this op dies with, drawn before placement.
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

/// One op drawn by [`StreamSim::draw`] from a [`CleanPrice`] and not yet
/// placed on a stream: its schedulable shape, its standalone metrics and
/// its fault verdict. [`StreamSim::enqueue_priced`] places it; cloning it
/// places the same priced work on several schedules without pricing it
/// again.
///
/// A `PricedOp` carries the fault verdict drawn for it: with a fault plan
/// on the engine, the verdict is consumed from the plan's sequence at
/// [`StreamSim::draw`], and every schedule the op (or a clone of it) is
/// placed on sees that same verdict.
#[derive(Debug, Clone)]
pub struct PricedOp {
    kind: OpKind,
    name: String,
    metrics: WorkloadMetrics,
    fault: Option<FaultKind>,
}

/// What [`StreamSim::enqueue_priced`] committed: the op's handle, its
/// standalone metrics, and — with a fault plan attached to the engine —
/// whether the op is doomed to fail on the schedule. The fault is known
/// before the schedule runs (verdicts are drawn in [`StreamSim::draw`]
/// order), so callers can plan retries before running it.
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
    streams: Vec<Vec<Op>>,
}

impl<'e> StreamSim<'e> {
    /// A simulator with no streams over `engine`'s device.
    pub fn new(engine: &'e Engine) -> Self {
        Self {
            engine,
            streams: Vec::new(),
        }
    }

    /// Creates a new, empty stream.
    pub fn stream(&mut self) -> StreamId {
        self.streams.push(Vec::new());
        StreamId(self.streams.len() - 1)
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
        let (kind, name) = match (&metrics, clean.resources()) {
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

    /// Places an op drawn by [`StreamSim::draw`] on `stream`, released at
    /// `not_before_cycles`: it may not start earlier on the simulated
    /// clock, even if its stream is idle. The op must have been drawn by a
    /// simulator over an engine with this engine's spec.
    pub fn enqueue_priced(
        &mut self,
        stream: StreamId,
        op: PricedOp,
        not_before_cycles: u64,
    ) -> Result<Enqueued> {
        let fifo = self
            .streams
            .get_mut(stream.0)
            .ok_or(GpuError::UnknownStream { id: stream.0 })?;
        let PricedOp {
            kind,
            name,
            metrics,
            fault,
        } = op;
        fifo.push(Op {
            kind,
            name,
            not_before: not_before_cycles,
            fault,
        });
        Ok(Enqueued {
            handle: OpHandle {
                stream,
                index: fifo.len() - 1,
            },
            metrics,
            fault,
        })
    }

    /// Schedules every placed op and returns the committed timeline.
    ///
    /// Discrete-event loop over the device core: at each instant the loop
    /// (a) retires due block groups through the [`RetirementQueue`],
    /// returning their SM resources, (b) admits waiting blocks through
    /// the [`CommandProcessor`] in kernel activation order, and (c)
    /// commits every stream head whose dependencies (FIFO order, release
    /// time, copy-engine availability) are met, scanning streams in
    /// ascending id — heads that become schedulable at the same cycle
    /// therefore commit in lowest-stream-id order. The clock then advances
    /// to the next retirement, release, or copy-engine instant. Consumes
    /// the simulator — one `StreamSim` is one schedule.
    ///
    /// # Errors
    ///
    /// [`GpuError::StreamDeadlock`] when ops remain but nothing can ever
    /// happen again: an active kernel's block needs more of an SM than the
    /// spec has, so it is never admitted and its stream never advances.
    /// The reported stream is the lowest blocked id.
    pub fn run(self) -> Result<StreamReport> {
        let spec = self.engine.spec();
        let num_streams = self.streams.len();
        let total_ops: usize = self.streams.iter().map(Vec::len).sum();
        let device_warp_slots = spec.num_sms as u64 * spec.max_warps_per_sm() as u64;

        let mut next_op = vec![0usize; num_streams];
        /// Sentinel for "a kernel of this stream is still in flight".
        const IN_FLIGHT: u64 = u64::MAX;
        let mut stream_ready = vec![0u64; num_streams];
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
                while let Some(r) = rq.pop_next_due(now) {
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
                    let placed = cp.admit(id, &ak.shape.demand, ak.to_admit);
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
                        }
                    }
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
            // ready, or the copy engine freeing.
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
                        OpKind::Copy { .. } => (copy_free > now).then_some(copy_free),
                        // A ready kernel would have committed in the
                        // fixpoint above.
                        OpKind::Kernel(_) => None,
                    }
                };
                if let Some(t) = candidate {
                    next_time = Some(next_time.map_or(t, |n| n.min(t)));
                }
            }
            let Some(t) = next_time else {
                // Nothing retires, so an in-flight kernel has blocks that
                // no SM can ever admit.
                let stream = (0..num_streams)
                    .find(|&s| stream_ready[s] == IN_FLIGHT || next_op[s] < self.streams[s].len())
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
                .map(|span| TraceEvent {
                    kind: match span.class {
                        OpClass::Copy => SpanKind::StreamCopy,
                        OpClass::Kernel => SpanKind::StreamKernel,
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
    use crate::engine::{Workload, GEMM_BLOCK_RESOURCES};
    use crate::spec::GpuSpec;
    use crate::trace::TraceRecorder;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(GpuSpec::quadro_p6000())
    }

    /// Prices `workload` on the simulator's engine, draws its verdict and
    /// places it on `stream`, released at `at`.
    fn place(
        sim: &mut StreamSim<'_>,
        stream: StreamId,
        workload: Workload<'_>,
        at: u64,
    ) -> Enqueued {
        let clean = sim
            .engine
            .price(&mut sim.engine.lock_context(), workload)
            .unwrap();
        sim.enqueue_priced(stream, sim.draw(&clean), at).unwrap()
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
        let a = place(&mut sim, s, gemm_with_blocks(4), 0).handle;
        let b = place(&mut sim, s, gemm_with_blocks(4), 0).handle;
        let c = place(&mut sim, s, Workload::Transfer { bytes: 1 << 20 }, 0).handle;
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
        let Enqueued {
            handle: h,
            metrics: m,
            ..
        } = place(&mut sim, s, gemm_with_blocks(30), 0);
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
        place(&mut serial, s, Workload::Transfer { bytes: 64 << 20 }, 0);
        place(&mut serial, s, gemm_with_blocks(30), 0);
        let serial = serial.run().unwrap();

        // Overlapped: copy and kernel on independent streams.
        let mut overlap = StreamSim::new(&e);
        let s0 = overlap.stream();
        let s1 = overlap.stream();
        place(&mut overlap, s0, Workload::Transfer { bytes: 64 << 20 }, 0);
        place(&mut overlap, s1, gemm_with_blocks(30), 0);
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
        let a = place(&mut sim, s0, Workload::Transfer { bytes: 32 << 20 }, 0).handle;
        let b = place(&mut sim, s1, Workload::Transfer { bytes: 32 << 20 }, 0).handle;
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
        let m = place(&mut big, b0, gemm_with_blocks(60), 0).metrics;
        place(&mut big, b1, gemm_with_blocks(60), 0);
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
        let m = place(&mut half, h0, gemm_with_blocks(30), 0).metrics;
        place(&mut half, h1, gemm_with_blocks(30), 0);
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
        let m = place(&mut small, s0, gemm_with_blocks(1), 0).metrics;
        place(&mut small, s1, gemm_with_blocks(1), 0);
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
            place(&mut sim, s, gemm_with_blocks(d), (i as u64) * 1_000);
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
        let m = place(&mut sim, s1, gemm_with_blocks(60), 0).metrics;
        place(&mut sim, s0, gemm_with_blocks(60), 0);
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
        let copy_m = place(&mut sim, s2, Workload::Transfer { bytes: 32 << 20 }, 0).metrics;
        let kernel_m = place(&mut sim, s3, gemm_with_blocks(60), 0).metrics;
        let copy_frees = e.spec().ms_to_cycles(copy_m.time_ms());
        let sm_frees = kernel_m.into_kernel().elapsed_cycles - e.spec().kernel_launch_cycles;
        // Followers released at the instant both resources are free (the
        // later of the two frees; the other freed earlier): a follow-up
        // copy on stream 1 and a follow-up kernel on stream 0, both
        // schedulable at exactly `t`.
        let t = copy_frees.max(sm_frees);
        let k = place(&mut sim, s0, gemm_with_blocks(60), t).handle;
        let c = place(&mut sim, s1, Workload::Transfer { bytes: 1 << 20 }, t).handle;
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
    fn release_times_hold_work_back() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        let s = sim.stream();
        let h = place(&mut sim, s, gemm_with_blocks(2), 1_000_000).handle;
        let report = sim.run().unwrap();
        let span = report
            .spans
            .iter()
            .find(|sp| sp.stream == h.stream && sp.index == h.index)
            .unwrap();
        assert_eq!(span.start_cycles, 1_000_000);
    }

    #[test]
    fn invalid_handles_are_rejected() {
        let e = engine();
        let mut sim = StreamSim::new(&e);
        sim.stream();
        let clean = e.price(&mut e.lock_context(), gemm_with_blocks(1)).unwrap();
        assert_eq!(
            sim.enqueue_priced(StreamId(7), sim.draw(&clean), 0)
                .unwrap_err(),
            GpuError::UnknownStream { id: 7 }
        );
    }

    #[test]
    fn a_block_no_sm_can_admit_deadlocks() {
        // The GEMM's blocks stage 48 KiB of shared memory; a device whose
        // SMs hold less never admits one, so the schedule can never finish.
        let spec = GpuSpec {
            shared_mem_per_sm: 32 * 1024,
            ..GpuSpec::quadro_p6000()
        };
        assert!(GEMM_BLOCK_RESOURCES.smem_bytes > spec.shared_mem_per_sm);
        let e = Engine::new(spec);
        let mut sim = StreamSim::new(&e);
        let copies = sim.stream();
        let stuck = sim.stream();
        place(&mut sim, copies, Workload::Transfer { bytes: 1 << 20 }, 0);
        place(&mut sim, stuck, gemm_with_blocks(4), 0);
        let err = sim.run().unwrap_err();
        assert_eq!(err, GpuError::StreamDeadlock { stream: stuck.0 });
        assert!(err.to_string().contains("can never start"), "{err}");
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
            place(&mut sim, s0, Workload::Transfer { bytes: 8 << 20 }, 0);
            place(&mut sim, s0, gemm_with_blocks(12), 0);
            place(&mut sim, s1, gemm_with_blocks(25), 0);
            place(&mut sim, s1, Workload::Transfer { bytes: 4 << 20 }, 0);
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
        let doomed = place(&mut sim, s, Workload::Transfer { bytes: 32 << 20 }, 0);
        assert_eq!(doomed.fault, Some(FaultKind::TransferFailure));
        let clean = place(&mut sim, s, gemm_with_blocks(4), 0);
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
        place(&mut sim, s0, Workload::Transfer { bytes: 64 << 20 }, 0);
        place(&mut sim, s1, gemm_with_blocks(30), 0);
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
