//! Deterministic kernel-level tracing on the simulated clock.
//!
//! The paper's Figure 1 closes its optimization loop through "GPU
//! profiling → performance evaluator"; this module is that profiler. A
//! [`TraceRecorder`] attached to an [`crate::Engine`] captures *spans* —
//! kernel launches, per-shard block chunks, warp-imbalance hotspot blocks,
//! cache epochs, host↔device transfers, GEMM calls — with timestamps on
//! the **simulated** clock (device cycles), never the wall clock.
//!
//! Because every span is derived from the engine's merged, thread-count-
//! invariant simulation state, a trace is bit-identical run-to-run and at
//! any `GNNADVISOR_SIM_THREADS` value: traces are diffable regression
//! artifacts, not samples. Export formats:
//!
//! - [`TraceRecorder::to_chrome_json`] — `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) `trace_event` JSON, timestamps in
//!   simulated cycles,
//! - [`TraceRecorder::flame_report`] — a flamegraph-style text summary
//!   aggregated by span category and name.
//!
//! Tracing is opt-in and zero-cost when off: an engine without a recorder
//! executes the exact hot path it always did (one pointer test per
//! launch).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::metrics::KernelMetrics;
use crate::spec::GpuSpec;
use crate::transfer::TransferMetrics;

/// The span taxonomy (the `cat` field of the chrome trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One kernel launch, spanning launch overhead plus body.
    Kernel,
    /// The fixed launch-overhead prefix of a kernel.
    LaunchOverhead,
    /// One shard's contiguous block chunk (its private cache epoch).
    ShardChunk,
    /// One of the most expensive blocks of a launch (warp-imbalance
    /// hotspot), placed on its shard's serial timeline.
    BlockHotspot,
    /// Cache-epoch counter sample (L2 hits/misses at a launch boundary).
    CacheEpoch,
    /// A dense GEMM priced by the roofline model.
    Gemm,
    /// A host↔device transfer.
    Transfer,
    /// A kernel or GEMM scheduled on a simulated stream (placed at its
    /// stream-scheduler start time, possibly overlapping other spans).
    StreamKernel,
    /// A transfer scheduled on a simulated stream's copy engine.
    StreamCopy,
}

impl SpanKind {
    /// Category label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::LaunchOverhead => "launch",
            SpanKind::ShardChunk => "shard",
            SpanKind::BlockHotspot => "hotspot",
            SpanKind::CacheEpoch => "cache",
            SpanKind::Gemm => "gemm",
            SpanKind::Transfer => "transfer",
            SpanKind::StreamKernel => "stream_kernel",
            SpanKind::StreamCopy => "stream_copy",
        }
    }

    /// Whether spans of this kind lie on the serial device stream, so
    /// their cycles are a share of [`TraceRecorder::clock_cycles`]. Shard
    /// and hotspot cycles are serial sums over blocks that ran in
    /// parallel, and stream spans may overlap one another: neither is.
    fn on_device_stream(&self) -> bool {
        matches!(
            self,
            SpanKind::Kernel | SpanKind::LaunchOverhead | SpanKind::Gemm | SpanKind::Transfer
        )
    }
}

/// A typed argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counters, byte totals, cycle totals).
    Int(u64),
    /// Fixed-precision float (rates, efficiencies); formatted with four
    /// decimals so output bytes are stable.
    Float(f64),
    /// Short label (limiter verdicts, kernel names).
    Text(String),
}

impl ArgValue {
    fn emit_json(&self, out: &mut String) {
        match self {
            ArgValue::Int(v) => out.push_str(&v.to_string()),
            ArgValue::Float(v) => out.push_str(&format!("{v:.4}")),
            ArgValue::Text(s) => emit_json_string(s, out),
        }
    }
}

/// One recorded event: a complete span (`ph: "X"`) or a counter sample
/// (`ph: "C"`). Timestamps and durations are simulated device cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span taxonomy entry.
    pub kind: SpanKind,
    /// Display name.
    pub name: String,
    /// Start timestamp on the simulated clock, cycles.
    pub start_cycles: u64,
    /// Duration in cycles (`0` for counter samples).
    pub dur_cycles: u64,
    /// Timeline lane (chrome `tid`): 0 is the device stream, `1 + s` is
    /// shard `s`'s lane.
    pub track: u32,
    /// Deterministic key-ordered arguments.
    pub args: Vec<(&'static str, ArgValue)>,
    /// Whether this is a counter sample rather than a complete span.
    pub counter: bool,
}

#[derive(Debug, Default)]
struct TraceState {
    /// Simulated-clock cursor: end of the last device-stream span.
    clock_cycles: u64,
    events: Vec<TraceEvent>,
}

/// Per-shard data the engine hands over for one traced launch.
#[derive(Debug, Clone)]
pub(crate) struct ShardTrace {
    /// First block of the shard's chunk (dispatch order).
    pub first_block: usize,
    /// Blocks in the chunk.
    pub num_blocks: usize,
    /// Sum of the chunk's block cycle costs (its serial timeline length).
    pub cycles: u64,
    /// L2 hits within this shard's private cache partition.
    pub l2_hits: u64,
    /// L2 misses within this shard's private cache partition.
    pub l2_misses: u64,
    /// DRAM traffic attributed to the chunk, bytes.
    pub dram_bytes: u64,
}

/// A warp-imbalance hotspot: one of the launch's costliest blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotBlock {
    /// Global block id (dispatch order).
    pub block_id: usize,
    /// Shard that simulated the block.
    pub shard: usize,
    /// Start offset on the shard's serial timeline, cycles.
    pub offset_cycles: u64,
    /// The block's cycle cost.
    pub cycles: u64,
}

/// How many hotspot blocks each traced launch records.
pub(crate) const HOTSPOTS_PER_KERNEL: usize = 4;

/// First chrome `tid` used for simulated-stream lanes: stream `s` renders
/// on `STREAM_TRACK_BASE + s`, clear of the device lane (0) and the shard
/// lanes (`1 + shard`).
pub(crate) const STREAM_TRACK_BASE: u32 = 32;

/// An opt-in recorder of simulated-clock spans. Attach one to an engine
/// with [`crate::EngineBuilder::tracer`]; it is shared (and internally
/// synchronized), so clones of the engine append to the same timeline.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    state: Mutex<TraceState>,
}

impl TraceRecorder {
    /// An empty recorder at simulated time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// The simulated clock cursor: total device-stream cycles recorded.
    pub fn clock_cycles(&self) -> u64 {
        self.lock().clock_cycles
    }

    /// Drops all recorded events and rewinds the simulated clock.
    pub fn clear(&self) {
        let mut st = self.lock();
        st.events.clear();
        st.clock_cycles = 0;
    }

    /// A snapshot of the recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records one kernel launch: the kernel span, its launch-overhead
    /// prefix, per-shard chunk spans (cache epochs), hotspot blocks, and a
    /// cache counter sample. Called by the engine *after* the serial merge,
    /// so every value is worker-count-invariant.
    pub(crate) fn record_kernel(
        &self,
        metrics: &KernelMetrics,
        spec: &GpuSpec,
        shards: &[ShardTrace],
        hotspots: &[HotBlock],
    ) {
        let mut st = self.lock();
        let start = st.clock_cycles;
        let launch = spec.kernel_launch_cycles.min(metrics.elapsed_cycles);
        let body_start = start + launch;
        st.events.push(TraceEvent {
            kind: SpanKind::Kernel,
            name: metrics.name.clone(),
            start_cycles: start,
            dur_cycles: metrics.elapsed_cycles,
            track: 0,
            args: vec![
                ("limiter", ArgValue::Text(metrics.limiter.label().into())),
                ("blocks", ArgValue::Int(metrics.num_blocks)),
                ("dram_bytes", ArgValue::Int(metrics.dram_bytes())),
                ("atomic_ops", ArgValue::Int(metrics.atomic_ops)),
                ("l2_hit_rate", ArgValue::Float(metrics.cache_hit_rate())),
                ("sm_efficiency", ArgValue::Float(metrics.sm_efficiency)),
                (
                    "compute_cycles",
                    ArgValue::Int(metrics.phases.compute_cycles),
                ),
                ("dram_cycles", ArgValue::Int(metrics.phases.dram_cycles)),
                ("atomic_cycles", ArgValue::Int(metrics.phases.atomic_cycles)),
                ("launch_cycles", ArgValue::Int(metrics.phases.launch_cycles)),
            ],
            counter: false,
        });
        st.events.push(TraceEvent {
            kind: SpanKind::LaunchOverhead,
            name: "launch_overhead".into(),
            start_cycles: start,
            dur_cycles: launch,
            track: 0,
            args: Vec::new(),
            counter: false,
        });
        for (s, shard) in shards.iter().enumerate() {
            st.events.push(TraceEvent {
                kind: SpanKind::ShardChunk,
                name: format!(
                    "shard {s}: blocks {}..{}",
                    shard.first_block,
                    shard.first_block + shard.num_blocks
                ),
                start_cycles: body_start,
                dur_cycles: shard.cycles,
                track: 1 + s as u32,
                args: vec![
                    ("blocks", ArgValue::Int(shard.num_blocks as u64)),
                    ("l2_hits", ArgValue::Int(shard.l2_hits)),
                    ("l2_misses", ArgValue::Int(shard.l2_misses)),
                    ("dram_bytes", ArgValue::Int(shard.dram_bytes)),
                ],
                counter: false,
            });
        }
        for hot in hotspots {
            st.events.push(TraceEvent {
                kind: SpanKind::BlockHotspot,
                name: format!("block {}", hot.block_id),
                start_cycles: body_start + hot.offset_cycles,
                dur_cycles: hot.cycles,
                track: 1 + hot.shard as u32,
                args: vec![("cycles", ArgValue::Int(hot.cycles))],
                counter: false,
            });
        }
        st.events.push(TraceEvent {
            kind: SpanKind::CacheEpoch,
            name: "l2".into(),
            start_cycles: start,
            dur_cycles: 0,
            track: 0,
            args: vec![
                ("hits", ArgValue::Int(metrics.l2_hits)),
                ("misses", ArgValue::Int(metrics.l2_misses)),
            ],
            counter: true,
        });
        st.clock_cycles = start + metrics.elapsed_cycles;
    }

    /// Records a roofline-priced GEMM on the device stream.
    pub(crate) fn record_gemm(&self, metrics: &KernelMetrics) {
        let mut st = self.lock();
        let start = st.clock_cycles;
        st.events.push(TraceEvent {
            kind: SpanKind::Gemm,
            name: metrics.name.clone(),
            start_cycles: start,
            dur_cycles: metrics.elapsed_cycles,
            track: 0,
            args: vec![
                ("limiter", ArgValue::Text(metrics.limiter.label().into())),
                ("flops", ArgValue::Int(metrics.useful_cycles)),
                ("dram_bytes", ArgValue::Int(metrics.dram_bytes())),
                (
                    "compute_cycles",
                    ArgValue::Int(metrics.phases.compute_cycles),
                ),
                ("dram_cycles", ArgValue::Int(metrics.phases.dram_cycles)),
            ],
            counter: false,
        });
        st.clock_cycles = start + metrics.elapsed_cycles;
    }

    /// Records one stream-scheduled timeline: spans arrive with start
    /// times relative to the schedule's origin (and their stream lane
    /// already assigned); they are shifted onto the recorder's cursor,
    /// which then advances by the schedule's makespan. Unlike the serial
    /// device-stream spans above, these may overlap — that overlap *is*
    /// the signal a stream trace exists to show.
    pub(crate) fn record_stream_schedule(&self, spans: Vec<TraceEvent>, makespan_cycles: u64) {
        let mut st = self.lock();
        let base = st.clock_cycles;
        for mut e in spans {
            e.start_cycles += base;
            st.events.push(e);
        }
        st.clock_cycles = base + makespan_cycles;
    }

    /// Records a host↔device transfer on the device stream, converting its
    /// milliseconds to device cycles at the spec's clock.
    pub(crate) fn record_transfer(&self, metrics: &TransferMetrics, spec: &GpuSpec) {
        let cycles = spec.ms_to_cycles(metrics.time_ms);
        let mut st = self.lock();
        let start = st.clock_cycles;
        st.events.push(TraceEvent {
            kind: SpanKind::Transfer,
            name: format!("transfer {} B", metrics.bytes),
            start_cycles: start,
            dur_cycles: cycles,
            track: 0,
            args: vec![("bytes", ArgValue::Int(metrics.bytes))],
            counter: false,
        });
        st.clock_cycles = start + cycles;
    }

    /// Exports the timeline as `chrome://tracing` / Perfetto `trace_event`
    /// JSON. Timestamps (`ts`) and durations (`dur`) are simulated device
    /// cycles, so the bytes are identical run-to-run and at any simulation
    /// worker count.
    pub fn to_chrome_json(&self) -> String {
        let st = self.lock();
        let mut out = String::with_capacity(256 + st.events.len() * 160);
        out.push_str(
            "{\"displayTimeUnit\":\"ms\",\
             \"otherData\":{\"clock\":\"simulated device cycles\"},\
             \"traceEvents\":[",
        );
        for (i, e) in st.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            emit_json_string(&e.name, &mut out);
            out.push_str(",\"cat\":");
            emit_json_string(e.kind.label(), &mut out);
            out.push_str(",\"ph\":");
            out.push_str(if e.counter { "\"C\"" } else { "\"X\"" });
            out.push_str(&format!(",\"ts\":{},", e.start_cycles));
            if !e.counter {
                out.push_str(&format!("\"dur\":{},", e.dur_cycles));
            }
            out.push_str(&format!("\"pid\":0,\"tid\":{}", e.track));
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    emit_json_string(k, &mut out);
                    out.push(':');
                    v.emit_json(&mut out);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// A flamegraph-style text report: spans aggregated by category and
    /// name, sorted by total cycles (descending, name-tiebroken), with
    /// percentages of the device-stream total for the spans that lie on
    /// the device stream; the others print `-` there (see
    /// `SpanKind::on_device_stream`). Deterministic byte-for-byte.
    pub fn flame_report(&self) -> String {
        // (category, name) -> (cycles, count, on the device stream),
        // BTreeMap for stable order.
        type SpanKey = (&'static str, String);
        type SpanStat = (u64, u64, bool);
        let st = self.lock();
        let total = st.clock_cycles.max(1);
        let mut agg: BTreeMap<SpanKey, SpanStat> = BTreeMap::new();
        for e in st.events.iter().filter(|e| !e.counter) {
            let entry = agg.entry((e.kind.label(), e.name.clone())).or_insert((
                0,
                0,
                e.kind.on_device_stream(),
            ));
            entry.0 += e.dur_cycles;
            entry.1 += 1;
        }
        let mut rows: Vec<(SpanKey, SpanStat)> = agg.into_iter().collect();
        rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
        let mut out = format!(
            "trace report: {} events, {} device-stream cycles\n\
             {:<10} {:<44} {:>14} {:>7} {:>7}\n",
            st.events.len(),
            st.clock_cycles,
            "category",
            "span",
            "cycles",
            "%",
            "count"
        );
        for ((cat, name), (cycles, count, on_stream)) in rows {
            let mut name = name;
            if name.len() > 44 {
                name.truncate(41);
                name.push_str("...");
            }
            let share = if on_stream {
                format!("{:>6.1}%", 100.0 * cycles as f64 / total as f64)
            } else {
                "-".into()
            };
            out.push_str(&format!(
                "{cat:<10} {name:<44} {cycles:>14} {share:>7} {count:>7}\n"
            ));
        }
        out
    }
}

/// Appends `s` as a JSON string literal with minimal escaping.
fn emit_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PhaseBreakdown;

    fn kernel_metrics(name: &str, elapsed: u64) -> KernelMetrics {
        KernelMetrics {
            name: name.into(),
            elapsed_cycles: elapsed,
            num_blocks: 8,
            l2_hits: 10,
            l2_misses: 5,
            phases: PhaseBreakdown {
                compute_cycles: elapsed / 2,
                dram_cycles: elapsed / 4,
                atomic_cycles: 0,
                launch_cycles: elapsed - elapsed / 2 - elapsed / 4,
            },
            ..Default::default()
        }
    }

    #[test]
    fn clock_advances_per_stream_span() {
        let t = TraceRecorder::new();
        let spec = GpuSpec::quadro_p6000();
        t.record_kernel(&kernel_metrics("k1", 1_000), &spec, &[], &[]);
        assert_eq!(t.clock_cycles(), 1_000);
        t.record_gemm(&kernel_metrics("g1", 500));
        assert_eq!(t.clock_cycles(), 1_500);
        let events = t.events();
        // Kernel span, launch span, cache counter, gemm span.
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].start_cycles, 1_000, "gemm starts after kernel");
    }

    #[test]
    fn shard_and_hotspot_spans_sit_inside_the_kernel_body() {
        let t = TraceRecorder::new();
        let spec = GpuSpec::quadro_p6000();
        let shards = vec![ShardTrace {
            first_block: 0,
            num_blocks: 64,
            cycles: 700,
            l2_hits: 3,
            l2_misses: 2,
            dram_bytes: 256,
        }];
        let hot = vec![HotBlock {
            block_id: 7,
            shard: 0,
            offset_cycles: 100,
            cycles: 50,
        }];
        t.record_kernel(&kernel_metrics("k", 10_000), &spec, &shards, &hot);
        let events = t.events();
        let shard = events
            .iter()
            .find(|e| e.kind == SpanKind::ShardChunk)
            .expect("shard span");
        assert_eq!(shard.start_cycles, spec.kernel_launch_cycles);
        assert_eq!(shard.track, 1);
        let hotspot = events
            .iter()
            .find(|e| e.kind == SpanKind::BlockHotspot)
            .expect("hotspot span");
        assert_eq!(hotspot.start_cycles, spec.kernel_launch_cycles + 100);
        assert_eq!(hotspot.dur_cycles, 50);
    }

    #[test]
    fn chrome_json_shape_and_determinism() {
        let build = || {
            let t = TraceRecorder::new();
            let spec = GpuSpec::quadro_p6000();
            t.record_kernel(&kernel_metrics("agg", 2_000), &spec, &[], &[]);
            t.record_transfer(
                &TransferMetrics {
                    bytes: 4_096,
                    time_ms: 0.01,
                },
                &spec,
            );
            t.to_chrome_json()
        };
        let a = build();
        assert_eq!(a, build(), "identical recordings emit identical bytes");
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"cat\":\"kernel\""));
        assert!(a.contains("\"cat\":\"transfer\""));
        // Balanced braces/brackets (cheap well-formedness probe; nothing in
        // the workspace parses JSON back).
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn flame_report_aggregates_and_sorts() {
        let t = TraceRecorder::new();
        let spec = GpuSpec::quadro_p6000();
        t.record_kernel(&kernel_metrics("small", 100), &spec, &[], &[]);
        t.record_kernel(&kernel_metrics("big", 9_000), &spec, &[], &[]);
        t.record_kernel(&kernel_metrics("big", 9_000), &spec, &[], &[]);
        let report = t.flame_report();
        let big = report.find("big").expect("big row");
        let small = report.find("small").expect("small row");
        assert!(big < small, "rows sorted by total cycles:\n{report}");
        assert!(report.contains("count"));
        assert_eq!(t.flame_report(), report, "report is deterministic");
    }

    #[test]
    fn flame_report_percentages_never_exceed_the_stream() {
        // Shards and hotspots whose serial sums over two launches exceed
        // the whole stream, a GEMM, a transfer, and a stream schedule
        // whose spans overlap: only device-stream rows carry a
        // percentage, and every one printed is at most 100%.
        let t = TraceRecorder::new();
        let spec = GpuSpec::quadro_p6000();
        let shard = |first_block| ShardTrace {
            first_block,
            num_blocks: 64,
            cycles: 30_000,
            l2_hits: 3,
            l2_misses: 2,
            dram_bytes: 256,
        };
        let hot = |block_id, shard| HotBlock {
            block_id,
            shard,
            offset_cycles: 0,
            cycles: 25_000,
        };
        for _ in 0..2 {
            t.record_kernel(
                &kernel_metrics("agg", 10_000),
                &spec,
                &[shard(0), shard(64)],
                &[hot(3, 0), hot(70, 1)],
            );
        }
        t.record_gemm(&kernel_metrics("gemm", 4_000));
        t.record_transfer(
            &TransferMetrics {
                bytes: 4_096,
                time_ms: 0.01,
            },
            &spec,
        );
        let span = |track| TraceEvent {
            kind: SpanKind::StreamKernel,
            name: "overlapped".into(),
            start_cycles: 0,
            dur_cycles: 8_000,
            track,
            args: Vec::new(),
            counter: false,
        };
        t.record_stream_schedule((32..40).map(span).collect(), 8_000);
        for kind in [
            SpanKind::ShardChunk,
            SpanKind::BlockHotspot,
            SpanKind::StreamKernel,
        ] {
            let first = t
                .events()
                .into_iter()
                .find(|e| e.kind == kind)
                .expect("span");
            let same: u64 = t
                .events()
                .iter()
                .filter(|e| e.kind == kind && e.name == first.name)
                .map(|e| e.dur_cycles)
                .sum();
            assert!(same > t.clock_cycles(), "{kind:?} row sums past the stream");
        }
        let report = t.flame_report();
        let mut with_share = 0;
        for row in report.lines().skip(2) {
            let cat = row.split_whitespace().next().expect("category");
            let share = row.split_whitespace().rev().nth(1).expect("share");
            match share.strip_suffix('%') {
                Some(pct) => {
                    let pct: f64 = pct.parse().expect("a percentage");
                    assert!(pct <= 100.0, "{pct}% in row {row:?}:\n{report}");
                    assert!(["kernel", "launch", "gemm", "transfer"].contains(&cat));
                    with_share += 1;
                }
                None => assert_eq!(share, "-", "row {row:?}"),
            }
        }
        assert_eq!(
            with_share, 4,
            "kernel, launch, gemm and transfer:\n{report}"
        );
        for cat in ["shard", "hotspot", "stream_kernel"] {
            assert!(report.contains(cat), "{cat} row:\n{report}");
        }
    }

    #[test]
    fn clear_rewinds() {
        let t = TraceRecorder::new();
        t.record_gemm(&kernel_metrics("g", 10));
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.clock_cycles(), 0);
    }

    #[test]
    fn json_strings_escape() {
        let mut s = String::new();
        emit_json_string("a\"b\\c\nd", &mut s);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
