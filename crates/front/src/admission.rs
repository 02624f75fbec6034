//! Admission control for the serving path: bounded in-flight permits, a
//! bounded number of requests waiting for one, and deadline enforcement.
//!
//! This module is the *construction site* for the serving-path error
//! taxonomy (enforced by harbor-lint): every [`DbError::Overloaded`] shed
//! and every deadline-expiry [`DbError::Timeout`] on the front door is
//! minted here, so the classification rules live in one place:
//!
//! * **Shed** (`Overloaded`): the request was *never executed* — too many
//!   others were already waiting for a permit, or none freed up within the
//!   admission budget. Always safe to resubmit after the hint.
//! * **Deadline reject** (`Timeout`): the client's budget ran out while the
//!   request waited. Also never executed (the gate checks *before* handing
//!   the transaction to the engine), but classified as a timeout because
//!   the budget — not the server's load policy — is what expired.

use harbor_common::config::DEFAULT_RETRY_AFTER_MS;
use harbor_common::{DbError, DbResult, Metrics};
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

struct GateState {
    /// Permits not handed out.
    free: usize,
    /// Requests between arrival and permit.
    waiting: usize,
}

/// A counting semaphore bounding requests inside the engine, which also
/// counts the requests waiting at it. `parking_lot`'s condvar has no
/// spurious-wakeup-free guarantee either, so waits re-check the count in a
/// loop; fairness is whatever the condvar gives us, which is fine —
/// admitted requests are peers.
pub struct PermitGate {
    capacity: usize,
    state: Mutex<GateState>,
    cv: Condvar,
    metrics: Metrics,
}

/// RAII permit: releasing is returning.
pub struct Permit<'a> {
    gate: &'a PermitGate,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Permit")
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().free += 1;
        self.gate.cv.notify_one();
    }
}

/// Why the gate turned a request away.
#[derive(Debug, PartialEq, Eq)]
pub enum Refused {
    /// `queue_depth` others were already waiting.
    QueueFull,
    /// The gate stayed full for the whole budget.
    NoPermit,
}

impl PermitGate {
    pub fn new(capacity: usize, metrics: Metrics) -> Self {
        PermitGate {
            capacity,
            state: Mutex::new(GateState {
                free: capacity,
                waiting: 0,
            }),
            cv: Condvar::new(),
            metrics,
        }
    }

    /// Permits currently held (for the metrics printout).
    pub fn in_use(&self) -> usize {
        self.capacity - self.state.lock().free
    }

    /// Requests currently between arrival and permit.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// Acquires a permit, waiting at most `budget` for it — unless
    /// `queue_depth` requests are waiting already, which refuses at once.
    pub fn acquire(&self, queue_depth: usize, budget: Duration) -> Result<Permit<'_>, Refused> {
        let deadline = Instant::now() + budget;
        let mut st = self.state.lock();
        if st.waiting >= queue_depth {
            return Err(Refused::QueueFull);
        }
        st.waiting += 1;
        self.metrics.note_queue_depth(st.waiting as u64);
        if st.free == 0 {
            self.metrics.add_permit_waits(1);
        }
        while st.free == 0 && Instant::now() < deadline {
            self.cv.wait_until(&mut st, deadline);
        }
        st.waiting -= 1;
        if st.free == 0 {
            return Err(Refused::NoPermit);
        }
        st.free -= 1;
        Ok(Permit { gate: self })
    }
}

/// The limits the gate is asked with.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Bound on requests waiting for a permit; one that arrives to find
    /// this many ahead of it is shed at once, so a burst fails fast instead
    /// of stacking latency.
    pub queue_depth: usize,
    /// How long a request may wait for an in-flight permit before it is
    /// shed.
    pub permit_budget: Duration,
}

impl AdmissionPolicy {
    /// Admits or rejects one request read off its session, minting the
    /// typed error. On success the returned [`Permit`] keeps the engine
    /// slot until drop.
    pub fn admit<'g>(
        &self,
        gate: &'g PermitGate,
        deadline: Instant,
        metrics: &Metrics,
    ) -> DbResult<Permit<'g>> {
        let now = Instant::now();
        if now >= deadline {
            metrics.add_deadline_rejects(1);
            return Err(DbError::timeout("deadline expired before execution"));
        }
        // Never wait for a permit past the request's own deadline.
        let budget = self.permit_budget.min(deadline - now);
        let refused = match gate.acquire(self.queue_depth, budget) {
            Ok(permit) => {
                metrics.add_requests_admitted(1);
                return Ok(permit);
            }
            Err(refused) => refused,
        };
        if refused == Refused::NoPermit && Instant::now() >= deadline {
            metrics.add_deadline_rejects(1);
            Err(DbError::timeout("deadline expired waiting for a permit"))
        } else {
            metrics.add_requests_shed(1);
            Err(DbError::overloaded(DEFAULT_RETRY_AFTER_MS))
        }
    }
}

/// Deadline expiry discovered *after* admission, between engine steps (the
/// [`crate::FrontHandler`] checks its absolute deadline before begin, each
/// update, and commit). Minted here so every serving-path timeout shares
/// one construction site.
pub fn deadline_expired(what: &str) -> DbError {
    DbError::timeout(format!("deadline expired before {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdmissionPolicy {
        AdmissionPolicy {
            queue_depth: 4,
            permit_budget: Duration::from_millis(50),
        }
    }

    #[test]
    fn permits_bound_concurrency() {
        let gate = PermitGate::new(2, Metrics::new());
        let a = gate.acquire(4, Duration::from_millis(10)).expect("permit");
        let _b = gate.acquire(4, Duration::from_millis(10)).expect("permit");
        assert_eq!(gate.in_use(), 2);
        assert_eq!(
            gate.acquire(4, Duration::from_millis(20)).unwrap_err(),
            Refused::NoPermit
        );
        assert_eq!(gate.waiting(), 0, "a refused request no longer waits");
        drop(a);
        assert!(gate.acquire(4, Duration::from_millis(100)).is_ok());
    }

    #[test]
    fn a_full_queue_sheds_at_once_typed() {
        let m = Metrics::new();
        let gate = PermitGate::new(1, m.clone());
        let none_may_wait = AdmissionPolicy {
            queue_depth: 0,
            permit_budget: Duration::from_secs(5),
        };
        let t0 = Instant::now();
        let err = none_may_wait
            .admit(&gate, t0 + Duration::from_secs(5), &m)
            .expect_err("a queue with no room sheds even beside a free permit");
        assert!(t0.elapsed() < Duration::from_secs(1), "shed must not wait");
        assert!(err.is_overloaded());
        assert_eq!(err.retry_after_ms(), Some(DEFAULT_RETRY_AFTER_MS));
        assert_eq!(m.requests_shed(), 1);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn expired_deadline_rejects_before_execution() {
        let m = Metrics::new();
        let gate = PermitGate::new(1, m.clone());
        let err = policy()
            .admit(&gate, Instant::now() - Duration::from_millis(1), &m)
            .expect_err("expired deadline must reject");
        assert!(err.is_timeout());
        assert_eq!(m.deadline_rejects(), 1);
        assert_eq!(gate.in_use(), 0, "no permit may leak on a reject");
    }

    #[test]
    fn full_gate_sheds_within_budget() {
        let m = Metrics::new();
        let gate = PermitGate::new(1, m.clone());
        let _held = gate.acquire(1, Duration::ZERO).expect("permit");
        let err = policy()
            .admit(&gate, Instant::now() + Duration::from_secs(5), &m)
            .expect_err("full gate must shed");
        assert!(err.is_overloaded());
        assert_eq!(m.permit_waits(), 1);
        assert_eq!(m.queue_peak_depth(), 1);
    }
}
