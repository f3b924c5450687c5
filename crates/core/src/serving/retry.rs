//! Retry policy for faulted batches.
//!
//! When the simulated device kills a batch's op (see
//! [`gnnadvisor_gpu::fault`]), the server re-submits the whole batch: a
//! partial batch cannot be delivered, so the unit of retry is the unit of
//! dispatch. [`RetryPolicy`] bounds how often (total attempts) and paces
//! the re-submissions with exponential backoff plus deterministic jitter
//! — drawn from the policy's seed, not wall clock, so a faulted serving
//! run replays bit-for-bit.

use crate::{splitmix64, CoreError, Result};

/// How the server re-submits a batch whose device work faulted.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total submission attempts per batch, including the first; `1`
    /// means no retries.
    pub max_attempts: usize,
    /// Backoff before attempt `a + 1` is `backoff_base_ms * 2^(a-1)`,
    /// jittered up to +25 %; `0.0` retries immediately (the failed
    /// attempt's ops still finish first — streams are FIFO).
    pub backoff_base_ms: f64,
    /// Hard ceiling on any single backoff, milliseconds. The exponential
    /// step saturates here instead of growing without bound — in f64 the
    /// uncapped step overflows to `inf` near attempt 1075, and jitter
    /// arithmetic on `inf` is NaN-prone.
    pub max_backoff_ms: f64,
    /// Seed of the deterministic jitter; equal seeds replay equal
    /// backoff schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_ms: 0.5,
            max_backoff_ms: 1_000.0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(CoreError::Serving {
                reason: "retry max_attempts must be at least 1 (1 = no retries)".into(),
            });
        }
        if !(self.backoff_base_ms.is_finite() && self.backoff_base_ms >= 0.0) {
            return Err(CoreError::Serving {
                reason: format!(
                    "retry backoff_base_ms must be non-negative and finite, got {}",
                    self.backoff_base_ms
                ),
            });
        }
        if !(self.max_backoff_ms.is_finite() && self.max_backoff_ms >= 0.0) {
            return Err(CoreError::Serving {
                reason: format!(
                    "retry max_backoff_ms must be non-negative and finite, got {}",
                    self.max_backoff_ms
                ),
            });
        }
        Ok(())
    }

    /// Backoff to wait after attempt `failed_attempt` (1-based) of batch
    /// `batch` fails, before the next attempt: exponential in the attempt
    /// number with deterministic jitter in `[0, 25 %)` of the step, the
    /// whole wait capped at `max_backoff_ms`. The exponent is computed in
    /// f64 so huge attempt counts saturate at the cap instead of
    /// overflowing an integer shift or producing `inf`/NaN.
    pub fn backoff_ms(&self, batch: usize, failed_attempt: usize) -> f64 {
        debug_assert!(failed_attempt >= 1);
        // `powi` on an exponent this large can return `inf`; `min` with a
        // finite cap yields the cap, never NaN, because `inf.min(c) == c`.
        let exponent = (failed_attempt - 1).min(i32::MAX as usize) as i32;
        let step = (self.backoff_base_ms * 2f64.powi(exponent)).min(self.max_backoff_ms);
        let word = splitmix64(self.seed ^ splitmix64((batch as u64) << 8 | failed_attempt as u64));
        let jitter = (word >> 11) as f64 / (1u64 << 53) as f64;
        (step * (1.0 + 0.25 * jitter)).min(self.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_never_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        p.validate().expect("default is valid");
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(RetryPolicy {
                backoff_base_ms: bad,
                ..RetryPolicy::default()
            }
            .validate()
            .is_err());
            assert!(RetryPolicy {
                max_backoff_ms: bad,
                ..RetryPolicy::default()
            }
            .validate()
            .is_err());
        }
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 2.0,
            seed: 5,
            ..RetryPolicy::default()
        };
        for attempt in 1..=4 {
            let step = 2.0 * (1u64 << (attempt - 1)) as f64;
            let b = p.backoff_ms(0, attempt);
            assert!(
                (step..step * 1.25).contains(&b),
                "attempt {attempt}: {b} outside [{step}, {})",
                step * 1.25
            );
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        // Regression: the uncapped exponential overflows f64 to `inf`
        // around attempt 1075 (and an integer shift much earlier); the
        // jitter multiply on `inf` then risks NaN. Every attempt count
        // must now return a finite wait bounded by `max_backoff_ms`.
        let p = RetryPolicy {
            max_attempts: usize::MAX,
            backoff_base_ms: 0.5,
            max_backoff_ms: 250.0,
            seed: 11,
        };
        for attempt in [64usize, 65, 1024, 1075, 4096, usize::MAX] {
            let b = p.backoff_ms(3, attempt);
            assert!(b.is_finite(), "attempt {attempt}: backoff {b} not finite");
            assert!(
                b <= 250.0,
                "attempt {attempt}: backoff {b} exceeds the 250 ms cap"
            );
            assert!(b > 0.0, "attempt {attempt}: backoff must stay positive");
        }
        // The cap binds exactly: two saturated attempts wait the same.
        assert_eq!(p.backoff_ms(3, 64), 250.0);
        assert_eq!(p.backoff_ms(3, 4096), 250.0);
    }

    #[test]
    fn capped_backoff_leaves_small_attempts_untouched() {
        let capped = RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 2.0,
            max_backoff_ms: 1_000.0,
            seed: 5,
        };
        let roomy = RetryPolicy {
            max_backoff_ms: f64::MAX,
            ..capped.clone()
        };
        for attempt in 1..=4 {
            assert_eq!(
                capped.backoff_ms(0, attempt),
                roomy.backoff_ms(0, attempt),
                "a non-binding cap must not change attempt {attempt}"
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_and_seed_dependent() {
        let p = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1.0,
            seed: 40,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(7, 2), p.backoff_ms(7, 2));
        let other = RetryPolicy {
            seed: 41,
            ..p.clone()
        };
        assert_ne!(p.backoff_ms(7, 2), other.backoff_ms(7, 2));
        // Different batches jitter differently (decorrelated retries).
        assert_ne!(p.backoff_ms(7, 2), p.backoff_ms(8, 2));
    }

    #[test]
    fn zero_base_backs_off_zero() {
        let p = RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 0.0,
            seed: 1,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(0, 1), 0.0);
    }
}
