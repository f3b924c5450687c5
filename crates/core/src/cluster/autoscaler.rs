//! Seeded replica autoscaler with hysteresis.
//!
//! Watches two load signals on a fixed control cadence — the shared
//! admission queue's depth and the running p99 latency estimate — and
//! steps the active replica count by one when a signal has been past its
//! watermark for `consecutive` control intervals in a row. The streak
//! requirement is the hysteresis: a single bursty interval (one MMPP
//! phase flip) does not flap the fleet, and scaling resets the streak so
//! consecutive steps need fresh evidence.
//!
//! Determinism: the controller is a pure fold over `(instant, depth,
//! p99)` observations. The only randomness is a seeded jitter on the
//! *first* control instant (up to 10 % of the interval) — the standard
//! trick that de-synchronizes many controllers sharing a cadence — drawn
//! once from the config seed, so a `(config, seed)` pair replays
//! bit-for-bit.

use crate::{splitmix64, CoreError, Result};

/// Control policy of the autoscaler.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerConfig {
    /// Never scale below this many replicas; at least 1.
    pub min_replicas: usize,
    /// Never scale above this many replicas.
    pub max_replicas: usize,
    /// Control cadence, milliseconds.
    pub interval_ms: f64,
    /// Scale up when the queue depth reaches this watermark.
    pub high_queue_depth: usize,
    /// Scale down when the queue depth is at or below this watermark
    /// (and the p99 signal, if configured, is also calm).
    pub low_queue_depth: usize,
    /// Optional latency watermark: a p99 estimate above this also votes
    /// to scale up, and blocks scale-down while hot.
    pub p99_high_ms: Option<f64>,
    /// Consecutive control intervals a signal must persist before one
    /// scaling step fires; at least 1. This is the hysteresis.
    pub consecutive: usize,
    /// Seed of the first-instant jitter.
    pub seed: u64,
}

impl AutoscalerConfig {
    /// Validates the config.
    pub fn validate(&self) -> Result<()> {
        if self.min_replicas == 0 {
            return Err(CoreError::Serving {
                reason: "autoscaler min_replicas must be at least 1".into(),
            });
        }
        if self.max_replicas < self.min_replicas {
            return Err(CoreError::Serving {
                reason: format!(
                    "autoscaler max_replicas {} below min_replicas {}",
                    self.max_replicas, self.min_replicas
                ),
            });
        }
        if !(self.interval_ms.is_finite() && self.interval_ms > 0.0) {
            return Err(CoreError::Serving {
                reason: format!(
                    "autoscaler interval_ms must be positive and finite, got {}",
                    self.interval_ms
                ),
            });
        }
        if self.low_queue_depth >= self.high_queue_depth {
            return Err(CoreError::Serving {
                reason: format!(
                    "autoscaler low watermark {} must sit below the high watermark {}",
                    self.low_queue_depth, self.high_queue_depth
                ),
            });
        }
        if let Some(p) = self.p99_high_ms {
            if !(p.is_finite() && p > 0.0) {
                return Err(CoreError::Serving {
                    reason: format!("autoscaler p99_high_ms must be positive and finite, got {p}"),
                });
            }
        }
        if self.consecutive == 0 {
            return Err(CoreError::Serving {
                reason: "autoscaler consecutive must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One replica-count change the controller committed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Control instant the step fired at, milliseconds.
    pub at_ms: f64,
    /// Active replicas before the step.
    pub from: usize,
    /// Active replicas after the step.
    pub to: usize,
}

/// The running controller.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    active: usize,
    next_control_ms: f64,
    high_streak: usize,
    low_streak: usize,
    events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// A controller starting at `initial` active replicas (clamped into
    /// `[min, max]`).
    pub fn new(cfg: AutoscalerConfig, initial: usize) -> Result<Self> {
        cfg.validate()?;
        let active = initial.clamp(cfg.min_replicas, cfg.max_replicas);
        // Jitter the first control instant into [interval, 1.1*interval).
        let u = (splitmix64(cfg.seed) >> 11) as f64 / (1u64 << 53) as f64;
        let next_control_ms = cfg.interval_ms * (1.0 + 0.1 * u);
        Ok(Self {
            cfg,
            active,
            next_control_ms,
            high_streak: 0,
            low_streak: 0,
            events: Vec::new(),
        })
    }

    /// Currently active replicas.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The committed scaling steps so far.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// Consumes the controller, returning its event log.
    pub fn into_events(self) -> Vec<ScaleEvent> {
        self.events
    }

    /// Feeds the controller the load observed at `now_ms`: the shared
    /// queue depth and the running p99 latency estimate. Every control
    /// instant that elapsed up to `now_ms` evaluates against this
    /// observation (the freshest one available to it). Returns the active
    /// replica count after any steps.
    pub fn observe(&mut self, now_ms: f64, queue_depth: usize, p99_est_ms: f64) -> usize {
        while self.next_control_ms <= now_ms {
            let at = self.next_control_ms;
            self.next_control_ms += self.cfg.interval_ms;
            let latency_hot = self.cfg.p99_high_ms.is_some_and(|t| p99_est_ms > t);
            let latency_calm = self.cfg.p99_high_ms.is_none_or(|t| p99_est_ms <= t);
            if queue_depth >= self.cfg.high_queue_depth || latency_hot {
                self.high_streak += 1;
                self.low_streak = 0;
            } else if queue_depth <= self.cfg.low_queue_depth && latency_calm {
                self.low_streak += 1;
                self.high_streak = 0;
            } else {
                self.high_streak = 0;
                self.low_streak = 0;
            }
            if self.high_streak >= self.cfg.consecutive && self.active < self.cfg.max_replicas {
                self.events.push(ScaleEvent {
                    at_ms: at,
                    from: self.active,
                    to: self.active + 1,
                });
                self.active += 1;
                self.high_streak = 0;
            } else if self.low_streak >= self.cfg.consecutive && self.active > self.cfg.min_replicas
            {
                self.events.push(ScaleEvent {
                    at_ms: at,
                    from: self.active,
                    to: self.active - 1,
                });
                self.active -= 1;
                self.low_streak = 0;
            }
        }
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 4,
            interval_ms: 10.0,
            high_queue_depth: 8,
            low_queue_depth: 1,
            p99_high_ms: None,
            consecutive: 2,
            seed: 7,
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for breakage in [
            |c: &mut AutoscalerConfig| c.min_replicas = 0,
            |c: &mut AutoscalerConfig| c.max_replicas = 0,
            |c: &mut AutoscalerConfig| c.interval_ms = 0.0,
            |c: &mut AutoscalerConfig| c.interval_ms = f64::NAN,
            |c: &mut AutoscalerConfig| c.low_queue_depth = 8,
            |c: &mut AutoscalerConfig| c.p99_high_ms = Some(-1.0),
            |c: &mut AutoscalerConfig| c.consecutive = 0,
        ] {
            let mut bad = cfg();
            breakage(&mut bad);
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn hysteresis_requires_a_streak_before_scaling_up() {
        let mut a = Autoscaler::new(cfg(), 1).expect("valid");
        // One hot interval is not enough (consecutive = 2).
        assert_eq!(a.observe(12.0, 20, 0.0), 1);
        // A calm interval resets the streak.
        assert_eq!(a.observe(22.0, 0, 0.0), 1);
        assert_eq!(a.observe(32.0, 20, 0.0), 1);
        // The second consecutive hot interval fires the step.
        assert_eq!(a.observe(42.0, 20, 0.0), 2);
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events()[0].from, 1);
        assert_eq!(a.events()[0].to, 2);
    }

    #[test]
    fn scales_down_when_calm_and_respects_bounds() {
        let mut a = Autoscaler::new(cfg(), 3).expect("valid");
        // Long calm: down to min, never below.
        let n = a.observe(500.0, 0, 0.0);
        assert_eq!(n, 1, "drains to min_replicas");
        // Long storm: up to max, never above.
        let n = a.observe(1_000.0, 50, 0.0);
        assert_eq!(n, 4, "climbs to max_replicas");
        for e in a.events() {
            assert!(e.to >= 1 && e.to <= 4);
            assert_eq!(e.to as i64 - e.from as i64, (e.to > e.from) as i64 * 2 - 1);
        }
    }

    #[test]
    fn p99_signal_scales_up_and_blocks_scale_down() {
        let mut cfg = cfg();
        cfg.p99_high_ms = Some(5.0);
        let mut a = Autoscaler::new(cfg.clone(), 1).expect("valid");
        // Queue is empty but latency is hot: scale up.
        assert_eq!(a.observe(40.0, 0, 9.0), 2);
        // Queue calm + latency still hot: the fleet keeps growing and
        // never steps down.
        let before = a.active();
        assert!(a.observe(80.0, 0, 9.0) >= before);
        assert!(a.events().iter().all(|e| e.to > e.from));
        // Latency cools: scale-down resumes.
        assert_eq!(a.observe(160.0, 0, 1.0), 1);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let first_step = |seed: u64| {
            let mut c = cfg();
            c.seed = seed;
            c.consecutive = 1;
            let mut a = Autoscaler::new(c, 1).expect("valid");
            a.observe(100.0, 50, 0.0);
            a.into_events()[0].at_ms
        };
        // Deterministic per seed, inside [interval, 1.1*interval).
        assert_eq!(first_step(1), first_step(1));
        for seed in 0..20 {
            let at = first_step(seed);
            assert!((10.0..11.0).contains(&at), "first instant {at} out of band");
        }
        assert_ne!(first_step(1), first_step(2), "seed must move the jitter");
    }

    #[test]
    fn controller_is_a_pure_fold_over_observations() {
        let run = || {
            let mut a = Autoscaler::new(cfg(), 2).expect("valid");
            let depths = [0, 2, 30, 30, 30, 1, 0, 0, 40, 40];
            for (i, &d) in depths.iter().enumerate() {
                a.observe((i as f64 + 1.0) * 11.0, d, d as f64 * 0.3);
            }
            a.into_events()
        };
        assert_eq!(run(), run());
    }
}
