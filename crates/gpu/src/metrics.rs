//! Kernel and run metrics — the simulator's NVProf.

use serde::Serialize;

/// Phase-attributed cycle breakdown of a launch (or a whole run): where
/// the elapsed simulated cycles went. Attribution is hierarchical and
/// exact — `compute + dram + atomic + launch == elapsed` always — so the
/// breakdown is a partition, not an overlap report: DRAM-bandwidth cycles
/// are attributed first (they bound the body from below), the atomic
/// serial chain claims what bandwidth cannot explain, and per-SM work
/// (issue, latency, imbalance tails) absorbs the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseBreakdown {
    /// Cycles attributed to per-SM work: compute issue, exposed memory
    /// latency, and cross-SM tail imbalance.
    pub compute_cycles: u64,
    /// Cycles attributed to aggregate DRAM bandwidth demand.
    pub dram_cycles: u64,
    /// Cycles attributed to serialization on atomic hotspots.
    pub atomic_cycles: u64,
    /// Fixed kernel-launch overhead cycles.
    pub launch_cycles: u64,
}

impl PhaseBreakdown {
    /// Total cycles across all phases; equals the launch's
    /// `elapsed_cycles` (and, when accumulated over a run, the sum of the
    /// run's kernel `elapsed_cycles`).
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.dram_cycles + self.atomic_cycles + self.launch_cycles
    }

    /// Folds another breakdown into this one.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.compute_cycles += other.compute_cycles;
        self.dram_cycles += other.dram_cycles;
        self.atomic_cycles += other.atomic_cycles;
        self.launch_cycles += other.launch_cycles;
    }

    /// Fraction of total cycles in each phase, ordered
    /// `[compute, dram, atomic, launch]`; all zeros for an empty breakdown.
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.total_cycles();
        if total == 0 {
            return [0.0; 4];
        }
        let t = total as f64;
        [
            self.compute_cycles as f64 / t,
            self.dram_cycles as f64 / t,
            self.atomic_cycles as f64 / t,
            self.launch_cycles as f64 / t,
        ]
    }

    /// One-line percentage report, e.g.
    /// `compute 61.2% | dram 28.4% | atomics 8.1% | launch 2.3%`.
    pub fn report(&self) -> String {
        let [c, d, a, l] = self.fractions();
        format!(
            "compute {:.1}% | dram {:.1}% | atomics {:.1}% | launch {:.1}%",
            c * 100.0,
            d * 100.0,
            a * 100.0,
            l * 100.0
        )
    }
}

/// Metrics of a single kernel launch, mirroring the NVProf counters the
/// paper reports (Section 8.1.4, Figure 9, Figure 12).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelMetrics {
    /// Kernel name for reports.
    pub name: String,
    /// Elapsed device cycles including launch overhead.
    pub elapsed_cycles: u64,
    /// Elapsed wall time in milliseconds at the device clock.
    pub time_ms: f64,
    /// Bytes read from DRAM (cache misses × line size).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Cache hits across the kernel.
    pub l2_hits: u64,
    /// Cache misses across the kernel.
    pub l2_misses: u64,
    /// Atomic read-modify-write operations issued.
    pub atomic_ops: u64,
    /// Extra cycles lost to atomic serialization on hot addresses.
    pub atomic_serialization_cycles: u64,
    /// Shared-memory bytes moved.
    pub shared_bytes: u64,
    /// Useful lane-cycles issued (numerator of SM efficiency).
    pub useful_cycles: u64,
    /// Thread blocks launched.
    pub num_blocks: u64,
    /// SM efficiency in `[0, 1]`: useful issue time over elapsed × #SMs.
    pub sm_efficiency: f64,
    /// Achieved occupancy in `[0, 1]`: resident warps over the device's
    /// warp slots (`max_threads_per_sm / 32` per SM), analytically, with
    /// the kernel alone on the device. Grids too small to reach the
    /// per-shape residency limit ([`crate::GpuSpec::occupancy_limit`])
    /// achieve proportionally less.
    pub achieved_occupancy: f64,
    /// Which resource bound the kernel's elapsed time (roofline verdict).
    pub limiter: Limiter,
    /// Exact phase attribution of `elapsed_cycles` (sums to it).
    pub phases: PhaseBreakdown,
}

/// The resource that determined a kernel's elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum Limiter {
    /// Per-SM work (compute issue, memory latency, imbalance tails).
    #[default]
    SmTime,
    /// Aggregate DRAM bandwidth.
    DeviceBandwidth,
    /// Serialization on the hottest atomic address.
    AtomicHotspot,
    /// Fixed launch overhead dominates (kernel too small).
    LaunchOverhead,
}

impl Limiter {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Limiter::SmTime => "sm-time",
            Limiter::DeviceBandwidth => "bandwidth",
            Limiter::AtomicHotspot => "atomics",
            Limiter::LaunchOverhead => "launch",
        }
    }
}

impl KernelMetrics {
    /// Cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Stretches the kernel's elapsed time by `factor` (an injected-fault
    /// slowdown, `>= 1`). The extra cycles are exposed stall time on the
    /// SMs, so they are attributed to the compute phase — keeping the
    /// `compute + dram + atomic + launch == elapsed` partition exact —
    /// and SM efficiency shrinks by the same factor (the useful work did
    /// not grow).
    pub fn stretch(&mut self, factor: f64, spec: &crate::spec::GpuSpec) {
        debug_assert!(factor.is_finite() && factor >= 1.0);
        let stretched = (self.elapsed_cycles as f64 * factor).round() as u64;
        let extra = stretched.saturating_sub(self.elapsed_cycles);
        self.elapsed_cycles += extra;
        self.phases.compute_cycles += extra;
        self.time_ms = spec.cycles_to_ms(self.elapsed_cycles);
        self.sm_efficiency /= factor;
    }
}

/// Aggregated metrics of a multi-kernel run (e.g. a full GNN forward pass):
/// kernel compute plus host↔device transfer time, split the way Table 2
/// reports NeuGraph ("Mem.IO" vs "Comp.").
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunMetrics {
    /// Sum of kernel elapsed times, ms ("Comp." in Table 2).
    pub compute_ms: f64,
    /// Sum of host↔device transfer times, ms ("Mem.IO" in Table 2).
    pub transfer_ms: f64,
    /// Per-kernel breakdown in launch order.
    pub kernels: Vec<KernelMetrics>,
    /// Total bytes moved over PCIe.
    pub transfer_bytes: u64,
    /// Phase-attributed cycle totals accumulated over every kernel; sums
    /// to the run's total kernel `elapsed_cycles`.
    pub phases: PhaseBreakdown,
}

impl RunMetrics {
    /// End-to-end time (compute + transfers), ms.
    pub fn total_ms(&self) -> f64 {
        self.compute_ms + self.transfer_ms
    }

    /// Folds a kernel's metrics into the run.
    pub fn push_kernel(&mut self, k: KernelMetrics) {
        self.compute_ms += k.time_ms;
        self.phases.add(&k.phases);
        self.kernels.push(k);
    }

    /// Folds a transfer into the run.
    pub fn push_transfer(&mut self, t: crate::transfer::TransferMetrics) {
        self.transfer_ms += t.time_ms;
        self.transfer_bytes += t.bytes;
    }

    /// Merges another run (e.g. a later layer) into this one.
    pub fn merge(&mut self, other: RunMetrics) {
        self.compute_ms += other.compute_ms;
        self.transfer_ms += other.transfer_ms;
        self.transfer_bytes += other.transfer_bytes;
        self.phases.add(&other.phases);
        self.kernels.extend(other.kernels);
    }

    /// Total elapsed kernel cycles across the run.
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.elapsed_cycles).sum()
    }

    /// Total DRAM traffic across all kernels, bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.kernels.iter().map(KernelMetrics::dram_bytes).sum()
    }

    /// Total atomic operations across all kernels.
    pub fn atomic_ops(&self) -> u64 {
        self.kernels.iter().map(|k| k.atomic_ops).sum()
    }

    /// Elapsed-cycles-weighted mean SM efficiency across kernels.
    pub fn mean_sm_efficiency(&self) -> f64 {
        let total: u64 = self.kernels.iter().map(|k| k.elapsed_cycles).sum();
        if total == 0 {
            return 0.0;
        }
        self.kernels
            .iter()
            .map(|k| k.sm_efficiency * k.elapsed_cycles as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Hit-count-weighted cache hit rate across kernels.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.kernels.iter().map(|k| k.l2_hits).sum();
        let misses: u64 = self.kernels.iter().map(|k| k.l2_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// A sliding window over per-kernel L2 hit/miss counts: the locality
/// signal the dynamic-graph re-renumbering policy watches
/// (`core::dynamic`). Samples are whole `(hits, misses)` pairs, so the
/// windowed rate is hit-count-weighted exactly like
/// [`RunMetrics::cache_hit_rate`] rather than an average of ratios —
/// a tiny kernel cannot swing the window.
#[derive(Debug, Clone)]
pub struct HitRateWindow {
    capacity: usize,
    samples: std::collections::VecDeque<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl HitRateWindow {
    /// A window holding the last `capacity` samples; `capacity` must be
    /// at least 1.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be at least 1");
        Self {
            capacity,
            samples: std::collections::VecDeque::with_capacity(capacity + 1),
            hits: 0,
            misses: 0,
        }
    }

    /// Pushes one sample, evicting the oldest once full.
    pub fn push(&mut self, hits: u64, misses: u64) {
        self.samples.push_back((hits, misses));
        self.hits += hits;
        self.misses += misses;
        if self.samples.len() > self.capacity {
            let (h, m) = self.samples.pop_front().expect("non-empty after push");
            self.hits -= h;
            self.misses -= m;
        }
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been pushed (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the window holds `capacity` samples — policies gate on
    /// this so a half-warm window never triggers anything.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Hit-count-weighted rate over the window, or `None` while the
    /// window holds no cache traffic at all.
    pub fn rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Drops every sample (a policy resets the window after acting on
    /// it, so stale pre-action samples cannot re-trigger).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(ms: f64, hits: u64, misses: u64) -> KernelMetrics {
        KernelMetrics {
            name: "k".into(),
            time_ms: ms,
            elapsed_cycles: (ms * 1000.0) as u64,
            l2_hits: hits,
            l2_misses: misses,
            sm_efficiency: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn hit_rate() {
        assert_eq!(kernel(1.0, 0, 0).cache_hit_rate(), 0.0);
        assert!((kernel(1.0, 3, 1).cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn run_accumulates() {
        let mut run = RunMetrics::default();
        run.push_kernel(kernel(2.0, 10, 10));
        run.push_kernel(kernel(3.0, 30, 10));
        run.push_transfer(crate::transfer::TransferMetrics {
            bytes: 100,
            time_ms: 1.5,
        });
        assert!((run.compute_ms - 5.0).abs() < 1e-12);
        assert!((run.transfer_ms - 1.5).abs() < 1e-12);
        assert!((run.total_ms() - 6.5).abs() < 1e-12);
        assert!((run.cache_hit_rate() - 40.0 / 60.0).abs() < 1e-12);
        assert_eq!(run.transfer_bytes, 100);
    }

    #[test]
    fn merge_combines() {
        let mut a = RunMetrics::default();
        a.push_kernel(kernel(1.0, 1, 1));
        let mut b = RunMetrics::default();
        b.push_kernel(kernel(2.0, 2, 2));
        a.merge(b);
        assert_eq!(a.kernels.len(), 2);
        assert!((a.compute_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn phase_breakdown_partitions_and_accumulates() {
        let phases = PhaseBreakdown {
            compute_cycles: 600,
            dram_cycles: 250,
            atomic_cycles: 100,
            launch_cycles: 50,
        };
        assert_eq!(phases.total_cycles(), 1000);
        let [c, d, a, l] = phases.fractions();
        assert!((c - 0.6).abs() < 1e-12 && (d - 0.25).abs() < 1e-12);
        assert!((a - 0.1).abs() < 1e-12 && (l - 0.05).abs() < 1e-12);
        assert!(phases.report().contains("compute 60.0%"));

        let mut run = RunMetrics::default();
        let mut k1 = kernel(1.0, 0, 0);
        k1.phases = phases;
        let mut k2 = kernel(2.0, 0, 0);
        k2.phases = PhaseBreakdown {
            compute_cycles: 10,
            dram_cycles: 20,
            atomic_cycles: 30,
            launch_cycles: 40,
        };
        run.push_kernel(k1);
        run.push_kernel(k2);
        assert_eq!(run.phases.total_cycles(), 1100);
        assert_eq!(run.phases.compute_cycles, 610);

        let mut other = RunMetrics::default();
        let mut k3 = kernel(1.0, 0, 0);
        k3.phases.launch_cycles = 9;
        other.push_kernel(k3);
        run.merge(other);
        assert_eq!(run.phases.launch_cycles, 99);
        assert_eq!(run.kernels.len(), 3);
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        let phases = PhaseBreakdown::default();
        assert_eq!(phases.total_cycles(), 0);
        assert_eq!(phases.fractions(), [0.0; 4]);
    }

    #[test]
    fn weighted_sm_efficiency() {
        let mut run = RunMetrics::default();
        let mut k1 = kernel(1.0, 0, 0);
        k1.sm_efficiency = 1.0;
        k1.elapsed_cycles = 100;
        let mut k2 = kernel(1.0, 0, 0);
        k2.sm_efficiency = 0.0;
        k2.elapsed_cycles = 300;
        run.push_kernel(k1);
        run.push_kernel(k2);
        assert!((run.mean_sm_efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_window_slides_and_weights_by_counts() {
        let mut w = HitRateWindow::new(2);
        assert!(w.is_empty());
        assert_eq!(w.rate(), None, "no traffic, no rate");
        w.push(3, 1);
        assert!(!w.is_full());
        assert!((w.rate().expect("traffic") - 0.75).abs() < 1e-12);
        w.push(0, 4);
        assert!(w.is_full());
        // Count-weighted: (3 hits) / (3 + 1 + 4) accesses.
        assert!((w.rate().expect("traffic") - 3.0 / 8.0).abs() < 1e-12);
        // Third push evicts the first sample.
        w.push(4, 0);
        assert_eq!(w.len(), 2);
        assert!((w.rate().expect("traffic") - 4.0 / 8.0).abs() < 1e-12);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.rate(), None);
    }

    #[test]
    fn hit_rate_window_ignores_trafficless_samples_in_the_rate() {
        // Zero-access samples (e.g. a batch of pure transfers) occupy a
        // slot but contribute nothing to the rate.
        let mut w = HitRateWindow::new(3);
        w.push(0, 0);
        assert!(!w.is_empty());
        assert_eq!(w.rate(), None);
        w.push(5, 5);
        assert!((w.rate().expect("traffic") - 0.5).abs() < 1e-12);
    }
}
