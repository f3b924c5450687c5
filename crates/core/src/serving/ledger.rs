//! The latency ledger: where every request's time is accounted.
//!
//! Each serving entry point hands the ledger its batches' outcomes once
//! the stream schedules have run. A batch that exhausted its retries
//! fails all of its requests. A batch that completed ends at its last
//! op's end on the simulated clock (or at its dispatch instant when it
//! planned no ops), and each request's latency runs from its arrival to
//! that end. A request of a class with a deadline that finished later
//! than the deadline counts as `deadline_missed`; every other served
//! request completes, and only completions enter the latency statistics.
//!
//! The ledger owns the arithmetic on top: nearest-rank percentiles, the
//! mean, throughput and goodput over the schedule span, the merged kernel
//! occupancy, and the conservation check
//! `completed + shed + failed + deadline_missed == arrivals` per class.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

use gnnadvisor_gpu::{Engine, StreamReport};

use super::batcher::DispatchedBatch;
use super::runner::Outcome;
use super::ServingReport;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)` (1-based), so p50 of `[1, 9]` is `1` (rank 1)
/// and every percentile of a singleton is that sample.
pub(crate) fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[nearest_rank(p, sorted_ms.len()) - 1]
}

/// The 1-based nearest rank `ceil(p/100 · n)` of percentile `p` in a
/// sample of `n >= 1`, clamped to `[1, n]`.
fn nearest_rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` of a sample that only grows, at
/// `O(log n)` per insert: equal to [`percentile`] of the sorted sample.
/// `low` holds the `nearest_rank` smallest values with the largest on top,
/// `high` the rest with the smallest on top, so the percentile is `low`'s
/// top. Values must be finite.
pub(crate) struct RunningPercentile {
    p: f64,
    low: BinaryHeap<Ms>,
    high: BinaryHeap<Reverse<Ms>>,
}

/// A finite latency, ordered by `f64::total_cmp`. That agrees with `<` on
/// every finite value but the two zeros, which are equal values anyway.
#[derive(Debug, Clone, Copy)]
struct Ms(f64);

impl PartialEq for Ms {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ms {}

impl PartialOrd for Ms {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ms {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl RunningPercentile {
    /// An empty sample tracking percentile `p`.
    pub fn new(p: f64) -> Self {
        Self {
            p,
            low: BinaryHeap::new(),
            high: BinaryHeap::new(),
        }
    }

    /// Adds one value to the sample.
    pub fn insert(&mut self, ms: f64) {
        debug_assert!(ms.is_finite(), "latency estimates are finite");
        let ms = Ms(ms);
        if self.low.peek().is_some_and(|top| ms <= *top) {
            self.low.push(ms);
        } else {
            self.high.push(Reverse(ms));
        }
        let rank = nearest_rank(self.p, self.low.len() + self.high.len());
        while self.low.len() > rank {
            let top = self.low.pop().expect("low is longer than the rank");
            self.high.push(Reverse(top));
        }
        while self.low.len() < rank {
            let Reverse(least) = self.high.pop().expect("the rank fits the sample");
            self.low.push(least);
        }
    }

    /// The percentile of the sample so far, `0.0` when it is empty.
    pub fn value(&self) -> f64 {
        self.low.peek().map_or(0.0, |top| top.0)
    }
}

/// The end cycle of every span of `report`, indexed `[stream][index]`.
fn end_index(report: &StreamReport) -> Vec<Vec<u64>> {
    let mut ends: Vec<Vec<u64>> = Vec::new();
    for span in &report.spans {
        let (stream, index) = (span.stream.index(), span.index);
        if ends.len() <= stream {
            ends.resize_with(stream + 1, Vec::new);
        }
        let fifo = &mut ends[stream];
        if fifo.len() <= index {
            fifo.resize(index + 1, 0);
        }
        fifo[index] = span.end_cycles;
    }
    ends
}

/// A request class (one tenant, or all traffic of plain serving).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Class {
    /// Latency deadline of the class's requests, if any.
    pub deadline_ms: Option<f64>,
    /// Requests of the class in the arrival trace.
    pub arrivals: usize,
    /// Requests of the class shed at admission.
    pub shed: u64,
}

/// What the ledger has recorded for one class.
#[derive(Debug, Default)]
struct Tally {
    /// Latencies of in-deadline completions, ms.
    latencies: Vec<f64>,
    failed: usize,
    deadline_missed: usize,
}

/// Request accounting over the run schedules of a set of replicas.
pub(crate) struct Ledger<'e> {
    engines: &'e [Engine],
    reports: Vec<StreamReport>,
    /// `ends[replica][stream][index]`: the end cycle of each committed op,
    /// so a batch's end is one lookup instead of a scan of every span.
    ends: Vec<Vec<Vec<u64>>>,
    classes: Vec<(Class, Tally)>,
    /// Schedule span for rates: the last device op or the last batch
    /// completion, whichever is later (a zero-op batch completes at its
    /// dispatch instant without extending the op makespan).
    span_ms: f64,
}

impl<'e> Ledger<'e> {
    /// A ledger over `reports[r]`, the run schedule of `engines[r]`.
    pub fn new(engines: &'e [Engine], reports: Vec<StreamReport>, classes: Vec<Class>) -> Self {
        let span_ms = reports.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
        let ends = reports.iter().map(end_index).collect();
        Self {
            engines,
            reports,
            ends,
            classes: classes.into_iter().map(|c| (c, Tally::default())).collect(),
            span_ms,
        }
    }

    /// Accounts `batch`'s requests, all of class `class`, under the
    /// outcome of its retry chain.
    pub fn record(&mut self, class: usize, batch: &DispatchedBatch, outcome: Outcome) {
        let (spec, tally) = &mut self.classes[class];
        let end_ms = match outcome {
            Outcome::Exhausted => {
                tally.failed += batch.requests.len();
                return;
            }
            Outcome::Done {
                replica,
                tail: Some(handle),
            } => {
                let end = self.ends[replica][handle.stream.index()][handle.index];
                self.engines[replica].spec().cycles_to_ms(end)
            }
            Outcome::Done { tail: None, .. } => batch.dispatch_ms,
        };
        self.span_ms = self.span_ms.max(end_ms);
        for request in &batch.requests {
            let latency = (end_ms - request.arrival_ms).max(0.0);
            match spec.deadline_ms {
                Some(d) if latency > d => tally.deadline_missed += 1,
                _ => tally.latencies.push(latency),
            }
        }
    }

    /// The statistics of the requests of `classes` over the whole
    /// schedule. The ledger knows nothing of batches or retries: those
    /// two fields are 0.
    pub fn report(&self, classes: Range<usize>) -> ServingReport {
        let (mut latencies, mut shed, mut failed, mut deadline_missed) = (Vec::new(), 0, 0, 0);
        for (class, tally) in &self.classes[classes] {
            debug_assert_eq!(
                (tally.latencies.len() + tally.failed + tally.deadline_missed) as u64 + class.shed,
                class.arrivals as u64,
                "every arrival lands in exactly one bucket"
            );
            latencies.extend_from_slice(&tally.latencies);
            shed += class.shed;
            failed += tally.failed;
            deadline_missed += tally.deadline_missed;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let completed = latencies.len();
        let rate = |count: usize| {
            if self.span_ms > 0.0 {
                count as f64 * 1000.0 / self.span_ms
            } else {
                0.0
            }
        };
        let reports = &self.reports;
        let kernel_busy_cycles: u64 = reports.iter().map(|r| r.kernel_busy_cycles).sum();
        // One schedule's mean is already duration-weighted over its spans;
        // several merge weighted by their kernel time.
        let mean_kernel_occupancy = match reports.as_slice() {
            [one] => one.mean_kernel_occupancy(),
            _ if kernel_busy_cycles == 0 => 0.0,
            all => {
                all.iter()
                    .map(|r| r.mean_kernel_occupancy() * r.kernel_busy_cycles as f64)
                    .sum::<f64>()
                    / kernel_busy_cycles as f64
            }
        };
        ServingReport {
            completed,
            shed,
            failed,
            deadline_missed,
            retries: 0,
            batches: 0,
            p50_ms: percentile(&latencies, 50.0),
            p95_ms: percentile(&latencies, 95.0),
            p99_ms: percentile(&latencies, 99.0),
            mean_ms: if completed == 0 {
                0.0
            } else {
                latencies.iter().sum::<f64>() / completed as f64
            },
            throughput_rps: rate(completed + deadline_missed),
            goodput_rps: rate(completed),
            makespan_ms: reports.iter().map(|r| r.makespan_ms).fold(0.0, f64::max),
            kernel_busy_cycles,
            copy_busy_cycles: reports.iter().map(|r| r.copy_busy_cycles).sum(),
            mean_kernel_occupancy,
        }
    }

    /// Duration-weighted mean kernel occupancy of each replica.
    pub fn per_replica_occupancy(&self) -> Vec<f64> {
        self.reports
            .iter()
            .map(|r| r.mean_kernel_occupancy())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 step: a seeded stream of well-mixed words.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn running_percentile_matches_the_sorted_sample() {
        for seed in 0..12u64 {
            for p in [99.0, 50.0, 95.0, 0.0, 100.0] {
                let mut state = seed;
                let mut running = RunningPercentile::new(p);
                let mut sorted: Vec<f64> = Vec::new();
                assert_eq!(running.value().to_bits(), percentile(&sorted, p).to_bits());
                for i in 0..700 {
                    let word = next(&mut state);
                    // Mostly a handful of repeated values (ties, zeros
                    // included), sometimes a fresh one.
                    let ms = if word.is_multiple_of(4) {
                        (word >> 11) as f64 / (1u64 << 53) as f64 * 10.0
                    } else {
                        ((word >> 8) % 6) as f64 * 0.5
                    };
                    running.insert(ms);
                    let at = sorted.partition_point(|&x| x < ms);
                    sorted.insert(at, ms);
                    assert_eq!(
                        running.value().to_bits(),
                        percentile(&sorted, p).to_bits(),
                        "seed {seed}, p{p}, after {} values",
                        i + 1
                    );
                }
            }
        }
    }
}
