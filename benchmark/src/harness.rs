//! Shared measurement machinery: repeated set-up, the timed steady phase,
//! op accounting, output checks and the determinism self-check.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::catalogue;
use crate::trace::Tracer;

/// Input size: `Full` is the benchmark proper, `Tiny` the smoke-test
/// and thread-determinism size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A workload failure: a call into the program returned an error.
pub type Fallible<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Exact fingerprint of a repetition's simulated outputs: every `sim_*`
/// value and simulated count, as raw bits, so "identical" means bitwise.
pub type Fingerprint = Vec<u64>;

/// One steady-phase repetition.
pub struct Rep<T> {
    /// Ops the repetition performed (forwards, requests, updates, batches).
    pub ops: u64,
    /// Simulated outputs that must repeat exactly.
    pub fingerprint: Fingerprint,
    /// Whatever the workload needs afterwards (reports, outputs).
    pub data: T,
}

/// The measurement context one workload run fills in.
pub struct Ctx {
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub sim_threads: usize,
    pub tracer: Tracer,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Minimum repetitions of set-up and of the steady phase at full size, so
/// the medians are medians.
const MIN_REPS: usize = 3;
/// Cheap set-ups repeat until this much time has passed, so their median
/// rests on enough samples to be steady.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 25;

impl Ctx {
    pub fn new(size: Size, seed: u64, seconds: f64, sim_threads: usize, trace: bool) -> Self {
        Self {
            size,
            seed,
            seconds,
            sim_threads,
            tracer: Tracer::new(trace),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Repetitions of set-up (and of the traced run's attribution calls).
    pub fn reps(&self) -> usize {
        match self.size {
            Size::Full => MIN_REPS,
            Size::Tiny => 1,
        }
    }

    /// Records a metric value; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records the median of `samples` under `name` (0 when empty).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `n` attempted ops.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed ops and says why.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.notes.push(format!("FAILED ({n} ops): {}", why.into()));
    }

    /// An output check: a false condition is one failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(1, format!("check: {}", what()));
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Runs `setup` at least [`Ctx::reps`] times, and at full size until
    /// [`SETUP_BUDGET_S`] have passed (at most [`MAX_SETUP_REPS`]), records
    /// the median wall time as `setup_s` (`traced.setup_s` when tracing)
    /// and returns the last result. Each repetition is one set-up op.
    pub fn setup<S>(&mut self, mut setup: impl FnMut(&mut Ctx) -> Fallible<S>) -> Fallible<S> {
        let mut walls: Vec<f64> = Vec::new();
        let mut last = None;
        let budget = match self.size {
            Size::Full => SETUP_BUDGET_S,
            Size::Tiny => 0.0,
        };
        while walls.len() < self.reps()
            || (walls.iter().sum::<f64>() < budget && walls.len() < MAX_SETUP_REPS)
        {
            self.attempt(1);
            let span = self.tracer.begin("setup");
            let start = Instant::now();
            let result = setup(self);
            walls.push(start.elapsed().as_secs_f64());
            self.tracer.end(span);
            match result {
                Ok(s) => last = Some(s),
                Err(e) => {
                    self.fail(1, e.clone());
                    return Err(e);
                }
            }
        }
        let name = if self.tracer.enabled() {
            "traced.setup_s"
        } else {
            "setup_s"
        };
        self.set_median(name, &walls);
        Ok(last.expect("at least one repetition"))
    }

    /// The timed steady phase: repeats `rep` until `seconds` have passed
    /// (and at least [`MIN_REPS`] times at full size), records the median
    /// per-repetition throughput as `ops_per_s` (`traced.ops_per_s` when
    /// tracing), and checks that every repetition's simulated outputs are
    /// bitwise identical to the first one's. Returns the first
    /// repetition's data.
    pub fn steady<T>(&mut self, mut rep: impl FnMut(&mut Ctx) -> Fallible<Rep<T>>) -> Fallible<T> {
        let budget = Duration::from_secs_f64(self.seconds);
        let min_reps = self.reps();
        let phase = Instant::now();
        let mut rates = Vec::new();
        let mut first: Option<Rep<T>> = None;
        while rates.len() < min_reps || phase.elapsed() < budget {
            let span = self.tracer.begin("steady");
            let start = Instant::now();
            let result = rep(self);
            let wall = start.elapsed().as_secs_f64();
            self.tracer.end(span);
            let r = result.inspect_err(|e| self.fail(1, e.clone()))?;
            self.attempt(r.ops);
            rates.push(r.ops as f64 / wall);
            match &first {
                None => first = Some(r),
                Some(f) => {
                    if f.fingerprint != r.fingerprint {
                        self.fail(
                            r.ops,
                            format!(
                                "simulated outputs of repetition {} differ from repetition 1",
                                rates.len()
                            ),
                        );
                    }
                }
            }
        }
        let name = if self.tracer.enabled() {
            "traced.ops_per_s"
        } else {
            "ops_per_s"
        };
        self.set_median(name, &rates);
        self.notes.push(format!(
            "steady phase: {} repetitions in {:.2} s",
            rates.len(),
            phase.elapsed().as_secs_f64()
        ));
        Ok(first.expect("at least one repetition").data)
    }

    /// Runs `f` and returns its result with its wall time in ms, inside a
    /// span called `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> (T, f64) {
        let span = self.tracer.begin(name);
        let start = Instant::now();
        let out = f(self);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(span);
        (out, ms)
    }

    /// The determinism self-check across worker counts: `probe` is run at
    /// tiny size with one simulation worker and with the configured count;
    /// differing fingerprints are one failed op.
    pub fn check_thread_invariance(&mut self, probe: impl Fn(usize) -> Fallible<Fingerprint>) {
        self.attempt(2);
        let one = with_sim_threads(1, || probe(1));
        let many = with_sim_threads(self.sim_threads, || probe(self.sim_threads));
        match (one, many) {
            (Ok(a), Ok(b)) => {
                let threads = self.sim_threads;
                self.check(a == b, || {
                    format!(
                        "tiny-size simulated outputs differ between 1 and {threads} sim threads"
                    )
                });
            }
            (Err(e), _) | (_, Err(e)) => self.fail(2, e),
        }
    }
}

/// Runs `f` with `GNNADVISOR_SIM_THREADS` set to `threads`, so engines the
/// program builds internally use that worker count too, then restores
/// the previous value. Called only between simulations, when no worker
/// threads are alive.
pub fn with_sim_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    const VAR: &str = "GNNADVISOR_SIM_THREADS";
    let previous = std::env::var(VAR).ok();
    std::env::set_var(VAR, threads.to_string());
    let out = f();
    match previous {
        Some(v) => std::env::set_var(VAR, v),
        None => std::env::remove_var(VAR),
    }
    out
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Derives an independent stream seed from the benchmark seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    fn read(git: &std::path::Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    }
    read(std::path::Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_seed() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
