//! The one seeded-backoff retry engine.
//!
//! Every bounded retry loop in the workspace — idempotent read RPCs, clock
//! reads, recovery fetches, supervisor repair attempts — is built on
//! [`retry_with`], so backoff shape, attempt caps, and metrics accounting
//! live in exactly one place. Delays are *seeded jittered exponentials*: a
//! pure function of `(seed, attempt)`, so a chaos-soak run replays its retry
//! schedule byte-identically under the same seed (the determinism contract),
//! while distinct seeds decorrelate retry storms across sites.
//!
//! Taxonomy: what is worth another attempt is each caller's classifier —
//! a disconnect for an idempotent read (a closed connection, a refused
//! connect, or a peer silent past its liveness deadline), a lock timeout for
//! a recovery lock. Commit-protocol messages never pass through here.

use crate::error::{DbError, DbResult};
use crate::metrics::Metrics;
use std::time::Duration;

/// Shape of one bounded retry schedule.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (`0` = try once, never retry).
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter seed. Derive it from the run seed plus a per-call-site salt so
    /// concurrent loops decorrelate but a replay reproduces every delay.
    pub seed: u64,
}

impl RetryPolicy {
    pub const fn new(attempts: u32, base: Duration, cap: Duration, seed: u64) -> Self {
        RetryPolicy {
            attempts,
            base,
            cap,
            seed,
        }
    }

    /// No delays at all — for tests and for callers that pace themselves.
    pub const fn immediate(attempts: u32) -> Self {
        RetryPolicy::new(attempts, Duration::ZERO, Duration::ZERO, 0)
    }

    /// The delay preceding retry number `attempt` (0-based): an exponential
    /// of `base` capped at `cap`, jittered into `[half, full]` by a pure
    /// hash of `(seed, attempt)` — decorrelated but replayable.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let half = nanos / 2;
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_nanos(half + jitter % (nanos - half + 1))
    }
}

/// SplitMix64: one add and a multiply-xor-shift chain, uniform and pure.
/// Every seeded draw in the system goes through it — retry jitter, the
/// fault plan's per-effect decisions, the chaos harness's schedule — so each
/// depends only on its input.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `op` with up to `policy.attempts` bounded retries after failures
/// that `retryable` classifies as worth retrying, sleeping
/// [`RetryPolicy::delay`] between attempts. The terminal error is returned
/// *verbatim* — classification (escalation, wrapping) is the caller's
/// business. `op` receives the 0-based attempt number.
///
/// Only for *idempotent* operations. Commit-protocol messages must never
/// pass through here: a retransmitted PREPARE/COMMIT could double-apply.
pub fn retry_with<T>(
    policy: &RetryPolicy,
    metrics: Option<&Metrics>,
    mut retryable: impl FnMut(&DbError) -> bool,
    mut op: impl FnMut(u32) -> DbResult<T>,
) -> DbResult<T> {
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.attempts && retryable(&e) => {
                if let Some(m) = metrics {
                    m.add_backoff_retries(1);
                }
                let delay = policy.delay(attempt);
                if delay > Duration::ZERO {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn policy() -> RetryPolicy {
        RetryPolicy::immediate(3)
    }

    #[test]
    fn delays_are_deterministic_capped_and_jittered() {
        let p = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(80), 42);
        let again = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(80), 42);
        for a in 0..8 {
            // Same (seed, attempt) → same delay; bounded by [half, cap].
            assert_eq!(p.delay(a), again.delay(a));
            assert!(p.delay(a) <= Duration::from_millis(80));
            let floor = p
                .delay(a)
                .max(Duration::from_millis(5))
                .min(Duration::from_millis(40));
            assert!(p.delay(a) >= floor.min(p.delay(a)));
        }
        // Different seeds decorrelate (overwhelmingly likely some attempt
        // differs).
        let other = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(80), 43);
        assert!((0..8).any(|a| p.delay(a) != other.delay(a)));
        // Exponential growth reaches the cap's half-floor.
        assert!(p.delay(7) >= Duration::from_millis(40));
    }

    #[test]
    fn a_class_the_classifier_rejects_is_never_retried() {
        for err in [
            DbError::unavailable("dead"),
            DbError::net("closed"),
            DbError::internal("bug"),
        ] {
            let msg = err.to_string();
            let calls = Cell::new(0u32);
            let moved = Cell::new(Some(err));
            let r: DbResult<()> = retry_with(&policy(), None, DbError::is_corrupt, |_| {
                calls.set(calls.get() + 1);
                Err(moved.take().expect("called once"))
            });
            assert_eq!(calls.get(), 1, "{msg} must not be retried");
            assert_eq!(r.unwrap_err().to_string(), msg, "terminal error verbatim");
        }
    }

    #[test]
    fn success_mid_schedule_stops_retrying() {
        let m = Metrics::new();
        let r = retry_with(&policy(), Some(&m), DbError::is_disconnect, |attempt| {
            if attempt < 2 {
                Err(DbError::net("warming up"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r.unwrap(), 2);
        assert_eq!(m.backoff_retries(), 2);
    }

    #[test]
    fn custom_classifier_widens_the_retry_set() {
        let calls = Cell::new(0u32);
        let r: DbResult<()> = retry_with(
            &policy(),
            None,
            |e| e.is_corrupt() || e.is_disconnect(),
            |_| {
                calls.set(calls.get() + 1);
                Err(DbError::net("connection refused"))
            },
        );
        assert_eq!(calls.get(), 4);
        // retry_with never reclassifies: the net error comes back verbatim.
        assert!(matches!(r.unwrap_err(), DbError::Net(_)));
    }
}
