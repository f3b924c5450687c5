//! The capacity criterion of the serving workloads' offered-rate ladders.

/// How one rung of a ladder went, on the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per simulated second.
    pub rate: f64,
    /// p99 latency of the requests served within the deadline, ms.
    pub p99_ms: f64,
    /// Requests of the measured population that were shed, failed or
    /// served late, over its arrivals.
    pub bad_fraction: f64,
    /// Requests shed at admission, over all arrivals.
    pub shed_fraction: f64,
    /// Device time left after the last arrival (the backlog), ms.
    pub drain_ms: f64,
}

impl Rung {
    /// `<= 1` when the rung is sustained: the p99 over every arrival of
    /// the population meets the deadline (so at most 1% of it may be bad),
    /// nothing is shed, and the backlog drains within one deadline.
    /// Above 1 it says by how much the rung fails.
    pub fn score(&self, deadline_ms: f64) -> f64 {
        let p99 = if self.bad_fraction > 0.01 {
            1.0 + self.bad_fraction
        } else {
            self.p99_ms / deadline_ms
        };
        let shed = if self.shed_fraction > 0.0 {
            1.0 + self.shed_fraction
        } else {
            0.0
        };
        p99.max(self.drain_ms / deadline_ms).max(shed)
    }
}

/// The highest sustained offered rate: where the score crosses 1,
/// interpolated in log-rate between the last sustained rung and the
/// first failing one. The top rate when every rung is sustained; the
/// bottom rate scaled down by its score when none is.
pub fn capacity(rungs: &[Rung], deadline_ms: f64) -> f64 {
    let scores: Vec<f64> = rungs.iter().map(|r| r.score(deadline_ms)).collect();
    if scores[0] > 1.0 {
        return rungs[0].rate / scores[0];
    }
    for i in 1..rungs.len() {
        if scores[i] > 1.0 {
            let (s0, s1) = (scores[i - 1].ln(), scores[i].ln());
            let t = if s1 > s0 { -s0 / (s1 - s0) } else { 0.0 };
            let (r0, r1) = (rungs[i - 1].rate.ln(), rungs[i].rate.ln());
            return (r0 + t.clamp(0.0, 1.0) * (r1 - r0)).exp();
        }
    }
    rungs.last().expect("a ladder has rungs").rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung {
            rate,
            p99_ms,
            bad_fraction: 0.0,
            shed_fraction: 0.0,
            drain_ms: 0.0,
        }
    }

    #[test]
    fn capacity_interpolates_the_crossing() {
        // Scores 0.5 and 2.0: the log-score crosses 0 halfway in log-rate.
        let c = capacity(&[rung(100.0, 2.5), rung(400.0, 10.0)], 5.0);
        assert!((c - 200.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn misses_shedding_and_backlog_fail_a_rung() {
        let mut r = rung(100.0, 1.0);
        assert!(r.score(5.0) <= 1.0);
        r.bad_fraction = 0.02;
        assert!(r.score(5.0) > 1.0);
        r.bad_fraction = 0.0;
        r.shed_fraction = 0.001;
        assert!(r.score(5.0) > 1.0);
        r.shed_fraction = 0.0;
        r.drain_ms = 6.0;
        assert!(r.score(5.0) > 1.0);
    }

    #[test]
    fn saturated_ladders_report_their_ends() {
        assert_eq!(capacity(&[rung(100.0, 1.0), rung(200.0, 1.0)], 5.0), 200.0);
        assert_eq!(capacity(&[rung(100.0, 10.0)], 5.0), 50.0);
    }
}
