//! Cluster-wide crash schedules.
//!
//! The harness arms `(site, CrashPoint)` pairs up front, and the coordinator,
//! the workers and a recovering site probe the schedule at the steps named
//! by [`CrashPoint`]. A fired point is *consumed* — it can never fire twice.
//! A coordinator point armed but never reached is disarmed when its
//! transaction ends on any path, and a recovery point when the cluster ends
//! the site's recovery (a restart, a join or a scrub's repairs), so a
//! leftover point cannot leak into a later one.
//!
//! Worker-side points make the thesis' cascading-failure cases reachable
//! from tests instead of only by luck: Table 4.1's backup-coordinator rows
//! need workers dying between PREPARE and PTC, and §5.5's buddy-death paths
//! need a site dying *while serving* a Phase-2/Phase-3 recovery scan.

use harbor_common::SiteId;
use parking_lot::Mutex;

/// A protocol step at which a site can be scheduled to crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Coordinator: after collecting PREPARE votes, before acting on them.
    CoordAfterPrepare,
    /// Coordinator: after sending PREPARE-TO-COMMIT to `n` workers (3PC).
    CoordAfterPtcSent(usize),
    /// Coordinator: after sending COMMIT to `n` workers.
    CoordAfterCommitSent(usize),
    /// Coordinator: in epoch mode, after the epoch's decision records are
    /// forced but before the COMMIT wave goes out — every decided txn is
    /// durable at the coordinator yet no worker has heard the outcome, so
    /// recovery/consensus must resolve each txn individually.
    CoordAfterEpochForce,
    /// Worker: while handling a PREPARE request, before the vote is sent —
    /// the coordinator sees a dead participant instead of a vote.
    WorkerDuringPrepareVote,
    /// Worker: after receiving a batched PREPARE wave but before voting on
    /// any transaction in it — the whole vote vector is lost and the
    /// coordinator must abort only that worker's txns, not the epoch.
    WorkerDuringBatchPrepare,
    /// Worker: immediately *after* its PREPARE-TO-COMMIT ack is on the wire —
    /// the worker dies in the prepared-to-commit state (Table 4.1 rows where
    /// some participant reached PTC).
    WorkerAfterPtcAck,
    /// Worker: mid-stream while serving a Phase-2 historical recovery scan
    /// to a recovering buddy (§5.5 buddy death → range reassignment).
    WorkerServingPhase2Scan,
    /// Worker: mid-stream while serving a Phase-3 locked catch-up scan.
    WorkerServingPhase3Scan,
    /// Worker: mid-resolution while acting as the elected backup
    /// coordinator — between its consensus broadcasts, so the next-ranked
    /// live participant must take over with the Table 4.1 outcome unchanged.
    WorkerDuringConsensusResolve,
    /// Recovering site: after Phase 1 (local state at the checkpoint).
    RecoveryAfterPhase1,
    /// Recovering site: after a Phase-2 pass records its object checkpoint.
    RecoveryAfterObjectCheckpoint,
    /// Recovering site: after Phase 2 (a restart resumes from its checkpoint).
    RecoveryAfterPhase2,
    /// Recovering site: in Phase 3, dropping the buddies' table locks
    /// unreleased — their failure detection must override them (§5.5.1).
    RecoveryHoldingLocks,
}

impl CrashPoint {
    /// `true` for points probed by the coordinator role.
    pub fn is_coordinator_point(&self) -> bool {
        matches!(
            self,
            CrashPoint::CoordAfterPrepare
                | CrashPoint::CoordAfterPtcSent(_)
                | CrashPoint::CoordAfterCommitSent(_)
                | CrashPoint::CoordAfterEpochForce
        )
    }

    /// `true` for points probed by a recovering site.
    pub fn is_recovery_point(&self) -> bool {
        matches!(
            self,
            CrashPoint::RecoveryAfterPhase1
                | CrashPoint::RecoveryAfterObjectCheckpoint
                | CrashPoint::RecoveryAfterPhase2
                | CrashPoint::RecoveryHoldingLocks
        )
    }
}

/// Shared schedule of `(site, point)` crash instructions. One instance is
/// shared by every site of a cluster; arming is thread-safe and firing
/// consumes the entry atomically, so a point fires exactly once even if the
/// probing step races with itself.
#[derive(Debug, Default)]
pub struct CrashSchedule {
    armed: Mutex<Vec<(SiteId, CrashPoint)>>,
}

impl CrashSchedule {
    pub fn new() -> Self {
        CrashSchedule::default()
    }

    /// Arms `point` for `site`. Multiple points may be armed per site.
    pub fn arm(&self, site: SiteId, point: CrashPoint) {
        self.armed.lock().push((site, point));
    }

    /// Consumes the first entry for `site` matching `pred`; `true` if one
    /// was armed.
    pub fn fire_if(&self, site: SiteId, pred: impl Fn(&CrashPoint) -> bool) -> bool {
        let mut armed = self.armed.lock();
        let found = armed.iter().position(|(s, p)| *s == site && pred(p));
        found.map(|idx| armed.remove(idx)).is_some()
    }

    /// Consumes the exact `(site, point)` entry; `true` if it was armed.
    pub fn fire(&self, site: SiteId, point: CrashPoint) -> bool {
        self.fire_if(site, |p| *p == point)
    }

    /// Disarms every entry for `site` matching `pred` without firing it.
    pub fn disarm_if(&self, site: SiteId, pred: impl Fn(&CrashPoint) -> bool) {
        self.armed.lock().retain(|(s, p)| *s != site || !pred(p));
    }

    /// Entries still armed (diagnostics / leak assertions in tests).
    pub fn armed(&self) -> Vec<(SiteId, CrashPoint)> {
        self.armed.lock().clone()
    }

    pub fn is_empty(&self) -> bool {
        self.armed.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_consumes_exactly_once() {
        let s = CrashSchedule::new();
        s.arm(SiteId(1), CrashPoint::WorkerDuringPrepareVote);
        assert!(!s.fire(SiteId(2), CrashPoint::WorkerDuringPrepareVote));
        assert!(!s.fire(SiteId(1), CrashPoint::WorkerAfterPtcAck));
        assert!(s.fire(SiteId(1), CrashPoint::WorkerDuringPrepareVote));
        assert!(
            !s.fire(SiteId(1), CrashPoint::WorkerDuringPrepareVote),
            "a fired point must not fire again"
        );
        assert!(s.is_empty());
    }

    #[test]
    fn fire_if_matches_counting_points() {
        let s = CrashSchedule::new();
        s.arm(SiteId(0), CrashPoint::CoordAfterPtcSent(2));
        fn reached(k: usize) -> impl Fn(&CrashPoint) -> bool {
            move |p| matches!(p, CrashPoint::CoordAfterPtcSent(n) if k >= *n)
        }
        assert!(!s.fire_if(SiteId(0), reached(1)));
        assert!(s.fire_if(SiteId(0), reached(2)));
        assert!(s.is_empty());
    }

    #[test]
    fn disarm_clears_without_firing() {
        let s = CrashSchedule::new();
        s.arm(SiteId(0), CrashPoint::CoordAfterPrepare);
        s.arm(SiteId(0), CrashPoint::WorkerAfterPtcAck);
        s.disarm_if(SiteId(0), |p| p.is_coordinator_point());
        assert_eq!(s.armed(), vec![(SiteId(0), CrashPoint::WorkerAfterPtcAck)]);
    }
}
