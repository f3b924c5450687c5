//! Deterministic synthetic request arrivals.
//!
//! A serving benchmark needs an open-loop workload: requests arrive on
//! their own schedule whether or not the server keeps up. Two processes
//! are available, all seeded so a `(config, seed)` pair always yields the
//! same trace, bit for bit:
//!
//! - [`generate_arrivals`] — the classic **Poisson** process: i.i.d.
//!   exponential inter-arrival gaps at one mean rate.
//! - [`generate_mmpp_arrivals`] — a **Markov-modulated Poisson process**:
//!   the process switches between phases (each with its own mean gap)
//!   after exponentially distributed dwells, producing the bursty,
//!   state-switching traffic real front ends see. A phase mixing a 10x
//!   rate spread stresses admission and autoscaling far harder than any
//!   single-rate Poisson stream.
//!
//! Every generator guarantees *strictly* increasing arrival instants (two
//! requests never alias one timestamp) and rejects degenerate configs
//! with typed [`CoreError::Serving`] errors instead of returning an empty
//! trace or spinning.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{CoreError, Result};

/// One inference request in an arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Monotonically increasing request id (index in the trace).
    pub id: usize,
    /// Arrival instant on the serving clock, milliseconds.
    pub arrival_ms: f64,
    /// Which input graph (batch component) the request asks about.
    pub component: usize,
}

/// Parameters of the synthetic arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Total requests to generate; zero is rejected (an empty trace is a
    /// config bug, not a workload).
    pub num_requests: usize,
    /// Mean gap between consecutive arrivals, milliseconds (the offered
    /// rate is `1000 / mean_interarrival_ms` requests per second).
    pub mean_interarrival_ms: f64,
    /// Requests pick a component uniformly from `0..num_components`.
    pub num_components: usize,
    /// RNG seed; equal seeds give equal traces.
    pub seed: u64,
}

fn validate_common(num_requests: usize, num_components: usize) -> Result<()> {
    if num_requests == 0 {
        return Err(CoreError::Serving {
            reason: "num_requests must be at least 1 (an empty trace is a config bug)".into(),
        });
    }
    if num_components == 0 {
        return Err(CoreError::Serving {
            reason: "num_components must be at least 1".into(),
        });
    }
    Ok(())
}

fn validate_gap(name: &str, gap_ms: f64) -> Result<()> {
    if !(gap_ms.is_finite() && gap_ms > 0.0) {
        return Err(CoreError::Serving {
            reason: format!("{name} must be positive and finite, got {gap_ms}"),
        });
    }
    Ok(())
}

impl ArrivalConfig {
    fn validate(&self) -> Result<()> {
        validate_common(self.num_requests, self.num_components)?;
        validate_gap("mean_interarrival_ms", self.mean_interarrival_ms)
    }
}

/// One exponential gap of the given mean. `u in [0, 1)` makes `1 - u` in
/// `(0, 1]`, so the log is finite and the gap non-negative; the floor
/// keeps consecutive instants *strictly* increasing even on the
/// measure-zero draw `u == 0`.
fn exp_gap(rng: &mut SmallRng, mean_ms: f64) -> f64 {
    let u: f64 = rng.gen();
    (-mean_ms * (1.0 - u).ln()).max(mean_ms * 1e-12)
}

/// Draws the arrival trace: Poisson arrivals (exponential gaps of the
/// configured mean) with uniformly chosen components, strictly sorted by
/// time by construction.
pub fn generate_arrivals(cfg: &ArrivalConfig) -> Result<Vec<Request>> {
    cfg.validate()?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut clock_ms = 0.0f64;
    let mut out = Vec::with_capacity(cfg.num_requests);
    for id in 0..cfg.num_requests {
        clock_ms += exp_gap(&mut rng, cfg.mean_interarrival_ms);
        let component = rng.gen_range(0..cfg.num_components);
        out.push(Request {
            id,
            arrival_ms: clock_ms,
            component,
        });
    }
    Ok(out)
}

/// Parameters of the Markov-modulated Poisson process.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppConfig {
    /// Total requests to generate; zero is rejected.
    pub num_requests: usize,
    /// Mean inter-arrival gap of each phase, milliseconds. Two phases
    /// with a large rate spread (e.g. `[0.1, 2.0]`) produce the classic
    /// burst/lull traffic shape; one phase degenerates to Poisson.
    pub phase_interarrival_ms: Vec<f64>,
    /// Mean dwell in a phase before switching, milliseconds
    /// (exponentially distributed; the next phase is drawn uniformly
    /// among the *other* phases).
    pub mean_dwell_ms: f64,
    /// Requests pick a component uniformly from `0..num_components`.
    pub num_components: usize,
    /// RNG seed; equal seeds give equal traces.
    pub seed: u64,
}

impl MmppConfig {
    fn validate(&self) -> Result<()> {
        validate_common(self.num_requests, self.num_components)?;
        if self.phase_interarrival_ms.is_empty() {
            return Err(CoreError::Serving {
                reason: "MMPP needs at least one phase".into(),
            });
        }
        for (i, &gap) in self.phase_interarrival_ms.iter().enumerate() {
            validate_gap(&format!("phase {i} mean_interarrival_ms"), gap)?;
        }
        validate_gap("mean_dwell_ms", self.mean_dwell_ms)
    }
}

/// Draws a bursty, state-switching arrival trace: a continuous-time
/// Markov chain over the configured phases emits Poisson arrivals at each
/// phase's rate. Strictly sorted by construction.
pub fn generate_mmpp_arrivals(cfg: &MmppConfig) -> Result<Vec<Request>> {
    cfg.validate()?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let phases = &cfg.phase_interarrival_ms;
    let mut phase = 0usize;
    let mut clock_ms = 0.0f64;
    // End of the current dwell; arrivals that would land beyond it switch
    // phase first (the remaining gap is re-drawn at the new rate — the
    // standard memoryless-restart approximation).
    let mut dwell_end_ms = exp_gap(&mut rng, cfg.mean_dwell_ms);
    let mut out = Vec::with_capacity(cfg.num_requests);
    for id in 0..cfg.num_requests {
        let mut next = clock_ms + exp_gap(&mut rng, phases[phase]);
        while next > dwell_end_ms && phases.len() > 1 {
            // Switch to a uniformly drawn *different* phase at the dwell
            // boundary and restart the gap there.
            let hop = rng.gen_range(0..phases.len() - 1);
            phase = if hop >= phase { hop + 1 } else { hop };
            clock_ms = dwell_end_ms;
            dwell_end_ms += exp_gap(&mut rng, cfg.mean_dwell_ms);
            next = clock_ms + exp_gap(&mut rng, phases[phase]);
        }
        clock_ms = next;
        let component = rng.gen_range(0..cfg.num_components);
        out.push(Request {
            id,
            arrival_ms: clock_ms,
            component,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArrivalConfig {
        ArrivalConfig {
            num_requests: 400,
            mean_interarrival_ms: 2.5,
            num_components: 8,
            seed: 42,
        }
    }

    fn mmpp_cfg() -> MmppConfig {
        MmppConfig {
            num_requests: 400,
            phase_interarrival_ms: vec![0.1, 2.0],
            mean_dwell_ms: 20.0,
            num_components: 8,
            seed: 42,
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = generate_arrivals(&cfg()).expect("valid");
        let b = generate_arrivals(&cfg()).expect("valid");
        assert_eq!(a, b);
        let mut other = cfg();
        other.seed = 43;
        let c = generate_arrivals(&other).expect("valid");
        assert_ne!(a, c);
    }

    #[test]
    fn traces_are_sorted_with_valid_components() {
        let trace = generate_arrivals(&cfg()).expect("valid");
        assert_eq!(trace.len(), 400);
        for pair in trace.windows(2) {
            assert!(pair[0].arrival_ms < pair[1].arrival_ms, "strictly sorted");
        }
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.arrival_ms >= 0.0);
            assert!(r.component < 8);
        }
    }

    #[test]
    fn mean_gap_tracks_the_configured_rate() {
        let mut big = cfg();
        big.num_requests = 20_000;
        let trace = generate_arrivals(&big).expect("valid");
        let span = trace.last().unwrap().arrival_ms;
        let mean = span / big.num_requests as f64;
        // 20k exponential draws: the sample mean sits well within 5 %.
        assert!(
            (mean - 2.5).abs() < 0.125,
            "sample mean {mean} strays from 2.5"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut zero_gap = cfg();
        zero_gap.mean_interarrival_ms = 0.0;
        assert!(generate_arrivals(&zero_gap).is_err());
        let mut negative = cfg();
        negative.mean_interarrival_ms = -2.0;
        assert!(generate_arrivals(&negative).is_err());
        let mut nan = cfg();
        nan.mean_interarrival_ms = f64::NAN;
        assert!(generate_arrivals(&nan).is_err());
        let mut inf = cfg();
        inf.mean_interarrival_ms = f64::INFINITY;
        assert!(generate_arrivals(&inf).is_err());
        let mut no_components = cfg();
        no_components.num_components = 0;
        assert!(generate_arrivals(&no_components).is_err());
        // Regression: an empty trace used to come back as Ok(vec![]).
        let mut empty = cfg();
        empty.num_requests = 0;
        assert!(matches!(
            generate_arrivals(&empty),
            Err(CoreError::Serving { .. })
        ));
    }

    #[test]
    fn mmpp_traces_are_deterministic_and_strictly_sorted() {
        let a = generate_mmpp_arrivals(&mmpp_cfg()).expect("valid");
        let b = generate_mmpp_arrivals(&mmpp_cfg()).expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        for pair in a.windows(2) {
            assert!(pair[0].arrival_ms < pair[1].arrival_ms, "strictly sorted");
        }
        let mut other = mmpp_cfg();
        other.seed = 43;
        assert_ne!(a, generate_mmpp_arrivals(&other).expect("valid"));
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_the_same_span() {
        // Squared coefficient of variation of the gaps: Poisson sits near
        // 1; a 20x rate spread across phases pushes MMPP well above it.
        let gap_cv2 = |trace: &[Request]| {
            let gaps: Vec<f64> = trace
                .windows(2)
                .map(|w| w[1].arrival_ms - w[0].arrival_ms)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let mut big_mmpp = mmpp_cfg();
        big_mmpp.num_requests = 8_000;
        let mmpp = generate_mmpp_arrivals(&big_mmpp).expect("valid");
        let mut big_poisson = cfg();
        big_poisson.num_requests = 8_000;
        let poisson = generate_arrivals(&big_poisson).expect("valid");
        let (bursty, flat) = (gap_cv2(&mmpp), gap_cv2(&poisson));
        assert!(
            bursty > flat * 1.5,
            "MMPP gap CV² {bursty:.2} must exceed Poisson {flat:.2}"
        );
    }

    #[test]
    fn single_phase_mmpp_degenerates_to_a_valid_process() {
        let cfg = MmppConfig {
            phase_interarrival_ms: vec![1.0],
            ..mmpp_cfg()
        };
        let trace = generate_mmpp_arrivals(&cfg).expect("valid");
        assert_eq!(trace.len(), 400);
        for pair in trace.windows(2) {
            assert!(pair[0].arrival_ms < pair[1].arrival_ms);
        }
    }

    #[test]
    fn invalid_mmpp_configs_are_rejected() {
        let mut no_phases = mmpp_cfg();
        no_phases.phase_interarrival_ms.clear();
        assert!(generate_mmpp_arrivals(&no_phases).is_err());
        let mut bad_phase = mmpp_cfg();
        bad_phase.phase_interarrival_ms[1] = f64::NAN;
        assert!(generate_mmpp_arrivals(&bad_phase).is_err());
        let mut zero_dwell = mmpp_cfg();
        zero_dwell.mean_dwell_ms = 0.0;
        assert!(generate_mmpp_arrivals(&zero_dwell).is_err());
        let mut empty = mmpp_cfg();
        empty.num_requests = 0;
        assert!(generate_mmpp_arrivals(&empty).is_err());
    }

    mod arrival_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// For any seed and rate, both generators produce strictly
            /// sorted instants confined to a sane window (non-negative,
            /// finite, ids dense).
            #[test]
            fn generated_traces_are_strictly_sorted_and_in_window(
                seed in 0u64..10_000,
                // Deci-milliseconds: the vendored proptest samples
                // integer ranges only.
                gap_deci in 1u64..500,
                n in 1usize..200,
            ) {
                let gap = gap_deci as f64 / 10.0;
                let poisson = generate_arrivals(&ArrivalConfig {
                    num_requests: n,
                    mean_interarrival_ms: gap,
                    num_components: 3,
                    seed,
                }).expect("valid");
                let mmpp = generate_mmpp_arrivals(&MmppConfig {
                    num_requests: n,
                    phase_interarrival_ms: vec![gap / 4.0, gap * 4.0],
                    mean_dwell_ms: gap * 8.0,
                    num_components: 3,
                    seed,
                }).expect("valid");
                for trace in [&poisson, &mmpp] {
                    prop_assert_eq!(trace.len(), n);
                    let mut prev = 0.0f64;
                    for (i, r) in trace.iter().enumerate() {
                        prop_assert_eq!(r.id, i);
                        prop_assert!(r.arrival_ms.is_finite());
                        prop_assert!(
                            r.arrival_ms > prev || (i == 0 && r.arrival_ms > 0.0),
                            "instants must strictly increase: {} after {}",
                            r.arrival_ms,
                            prev
                        );
                        prop_assert!(r.component < 3);
                        prev = r.arrival_ms;
                    }
                    // Window sanity: n gaps of mean <= 4*gap cannot sum
                    // anywhere near this bound except astronomically
                    // rarely; catches runaway clocks from bad switching.
                    prop_assert!(prev < gap * 4.0 * (n as f64) * 64.0);
                }
            }
        }
    }
}
