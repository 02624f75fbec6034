//! Logical time: the versioned-representation timestamps of thesis §3.3.
//!
//! Timestamps are opaque, monotonically increasing logical values handed out
//! by the coordinator's timestamp authority at commit time. They need not
//! correspond to wall-clock time (§4.1); the frontend maps client-visible
//! times to these values. Two values are reserved:
//!
//! * [`Timestamp::ZERO`] — stored in a tuple's deletion field to mean "not
//!   deleted".
//! * [`Timestamp::UNCOMMITTED`] — stored in a tuple's insertion field until
//!   its transaction commits. It is chosen greater than any valid timestamp
//!   so uncommitted tuples always land in the most recent segment and are
//!   filtered by `insertion_time <= T` visibility checks for free (§5.2).

use crate::wire_struct;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

wire_struct! {
    /// A logical commit timestamp ("epoch").
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
    pub struct Timestamp(pub u64);
}

impl Timestamp {
    /// Deletion-field sentinel: tuple has not been deleted.
    pub const ZERO: Timestamp = Timestamp(0);
    /// Insertion-field sentinel: tuple's transaction has not yet committed.
    /// Greater than every valid timestamp by construction.
    pub const UNCOMMITTED: Timestamp = Timestamp(u64::MAX);
    /// Largest valid (assignable) timestamp.
    pub const MAX_VALID: Timestamp = Timestamp(u64::MAX - 1);

    pub fn is_uncommitted(self) -> bool {
        self == Self::UNCOMMITTED
    }

    /// `true` when this is a real, assigned commit time (not a sentinel).
    pub fn is_valid_commit_time(self) -> bool {
        self != Self::ZERO && self != Self::UNCOMMITTED
    }

    /// The timestamp immediately before this one. Used for "current time
    /// minus one" constructions in checkpointing (Fig 3-2) and the HWM (§5.3).
    pub fn prev(self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }

    pub fn next(self) -> Timestamp {
        debug_assert!(self < Self::MAX_VALID);
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_uncommitted() {
            write!(f, "t<uncommitted>")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// Determines tuple visibility for a historical query as of time `t`
/// (thesis §3.3): the tuple must have been inserted at or before `t` by a
/// committed transaction, and either never deleted or deleted after `t`.
pub fn visible_at(insertion: Timestamp, deletion: Timestamp, t: Timestamp) -> bool {
    if insertion.is_uncommitted() || insertion > t {
        return false;
    }
    deletion == Timestamp::ZERO || deletion > t
}

/// The timestamp authority of §4.1: a designated source that decides the
/// current logical time and mints commit timestamps.
///
/// The thesis points at the C-Store consensus protocol for multi-coordinator
/// deployments; with a single authority an atomic counter suffices and is
/// what the thesis' own 4-node implementation does. Each committing update
/// transaction advances time by one, so "current time" and "latest commit
/// time" coincide, matching the sample tables of Chapter 5.
///
/// A commit time is assigned *before* COMMIT reaches the workers, so for a
/// while a transaction holds a time below `now` and is still uncommitted on
/// some replica's pages. §5.3 assumes a historical query at T sees every
/// transaction with commit time ≤ T; [`watermark`](Self::watermark) is the
/// time for which that holds.
#[derive(Debug)]
pub struct TimestampAuthority {
    now: AtomicU64,
    /// Commit times [`assign`](Self::assign)ed and not yet settled.
    unsettled: Mutex<BTreeSet<u64>>,
}

/// A commit time whose transaction may not be committed at every
/// participant yet. Dropping it settles the time, whichever way the commit
/// protocol is left.
#[derive(Debug)]
pub struct Unsettled<'a> {
    authority: &'a TimestampAuthority,
    time: Timestamp,
}

impl Unsettled<'_> {
    pub fn time(&self) -> Timestamp {
        self.time
    }
}

impl Drop for Unsettled<'_> {
    fn drop(&mut self) {
        self.authority.unsettled().remove(&self.time.0);
    }
}

impl TimestampAuthority {
    /// Starts the clock at `start`. Time 0 is reserved (deletion sentinel),
    /// so the earliest usable start is 1.
    pub fn new(start: Timestamp) -> Self {
        assert!(start >= Timestamp(1), "time 0 is reserved");
        TimestampAuthority {
            now: AtomicU64::new(start.0),
            unsettled: Mutex::new(BTreeSet::new()),
        }
    }

    /// Every update of the set is one insert or one remove, so a panic
    /// elsewhere under the lock leaves it valid.
    fn unsettled(&self) -> MutexGuard<'_, BTreeSet<u64>> {
        self.unsettled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current logical time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::SeqCst))
    }

    /// Mints a commit timestamp for a transaction and advances the clock.
    pub fn next_commit_time(&self) -> Timestamp {
        let t = self.now.fetch_add(1, Ordering::SeqCst);
        assert!(t < Timestamp::MAX_VALID.0, "logical clock exhausted");
        Timestamp(t)
    }

    /// Mints a commit time and holds it unsettled until the returned guard
    /// drops: the caller keeps the guard until its COMMIT round is in. The
    /// time is minted under the set's lock, so the watermark never passes a
    /// time that is about to enter the set.
    pub fn assign(&self) -> Unsettled<'_> {
        let mut unsettled = self.unsettled();
        let time = self.next_commit_time();
        unsettled.insert(time.0);
        Unsettled {
            authority: self,
            time,
        }
    }

    /// The smallest unsettled commit time, else `now`: every transaction
    /// with a commit time below this is committed wherever it ran. What a
    /// "now − 1" historical reader (recovery's high-water mark, scrub, the
    /// latest-committed snapshot) must be handed instead of `now`.
    pub fn watermark(&self) -> Timestamp {
        let unsettled = self.unsettled();
        unsettled
            .first()
            .map_or_else(|| self.now(), |t| Timestamp(*t))
    }

    /// Advances the clock to at least `t` (used when a backup coordinator
    /// replays a commit with a previously assigned time, §4.3.3).
    pub fn advance_to(&self, t: Timestamp) {
        self.now.fetch_max(t.0 + 1, Ordering::SeqCst);
    }
}

impl Default for TimestampAuthority {
    fn default() -> Self {
        TimestampAuthority::new(Timestamp(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_matches_figure_3_1() {
        // The employees table of Fig 3-1: (insertion, deletion) pairs.
        let rows = [
            (Timestamp(1), Timestamp::ZERO), // Jessica
            (Timestamp(1), Timestamp(3)),    // Kenny, deleted at 3
            (Timestamp(2), Timestamp::ZERO), // Suey
            (Timestamp(4), Timestamp(6)),    // Elliss, updated at 6
            (Timestamp(6), Timestamp::ZERO), // Ellis (corrected)
        ];
        let visible_at_t = |t: u64| -> Vec<usize> {
            rows.iter()
                .enumerate()
                .filter(|(_, (i, d))| visible_at(*i, *d, Timestamp(t)))
                .map(|(n, _)| n)
                .collect()
        };
        assert_eq!(visible_at_t(1), vec![0, 1]);
        assert_eq!(visible_at_t(2), vec![0, 1, 2]);
        assert_eq!(visible_at_t(3), vec![0, 2]);
        assert_eq!(visible_at_t(5), vec![0, 2, 3]);
        assert_eq!(visible_at_t(6), vec![0, 2, 4]);
    }

    #[test]
    fn uncommitted_tuples_are_never_visible() {
        assert!(!visible_at(
            Timestamp::UNCOMMITTED,
            Timestamp::ZERO,
            Timestamp::MAX_VALID
        ));
    }

    #[test]
    fn authority_mints_strictly_increasing_times() {
        let auth = TimestampAuthority::default();
        let a = auth.next_commit_time();
        let b = auth.next_commit_time();
        assert!(b > a);
        assert_eq!(auth.now(), b.next());
    }

    #[test]
    fn the_watermark_waits_for_the_oldest_unsettled_time() {
        let auth = TimestampAuthority::default();
        assert_eq!(auth.watermark(), auth.now());
        let a = auth.assign();
        let b = auth.assign();
        assert_eq!(auth.now(), b.time().next());
        assert_eq!(auth.watermark(), a.time());
        // Settled out of order: the older one still holds the mark.
        let b_time = b.time();
        drop(b);
        assert_eq!(auth.watermark(), a.time());
        drop(a);
        assert_eq!(auth.watermark(), b_time.next());
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let auth = TimestampAuthority::default();
        auth.advance_to(Timestamp(100));
        assert_eq!(auth.now(), Timestamp(101));
        auth.advance_to(Timestamp(50));
        assert_eq!(auth.now(), Timestamp(101));
    }

    #[test]
    fn prev_saturates_at_zero() {
        assert_eq!(Timestamp::ZERO.prev(), Timestamp::ZERO);
        assert_eq!(Timestamp(5).prev(), Timestamp(4));
    }
}
