//! The lock manager (thesis §6.1.2).
//!
//! Strict two-phase locking at page granularity for ordinary transactions,
//! plus table granularity for recovery: Phase 3 of HARBOR's recovery takes a
//! *table-level read lock* on every recovery object at the buddies (§5.4.1),
//! which must block page-level writers. That requires hierarchical locking,
//! so the manager implements the classic multi-granularity modes
//! `IS / IX / S / SIX / X`: writers take `IX` on the table before `X` on a
//! page, readers take `IS` before `S`, and the recovering site's table-`S`
//! conflicts with writers' table-`IX` exactly as §5.4.1 needs.
//!
//! Deadlocks are resolved by timeout, as in the thesis ("the call employs a
//! simple timeout mechanism and throws an exception"). The timeout is
//! configurable; [`LockManager::release_all`] implements `releaseLocks`.
//!
//! Historical queries never call into this module at all — that they are
//! lock-free is what lets recovery Phase 2 run without quiescing the system.

use harbor_common::lockrank::{self, Rank};
use harbor_common::{DbError, DbResult, Metrics, PageId, TableId, TransactionId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Lockable resources.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockKey {
    Table(TableId),
    Page(PageId),
}

impl std::fmt::Display for LockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockKey::Table(t) => write!(f, "{t}"),
            LockKey::Page(p) => write!(f, "{p}"),
        }
    }
}

/// Multi-granularity lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LockMode {
    /// Intention shared: this txn holds S locks below.
    IntentionShared,
    /// Intention exclusive: this txn holds X locks below.
    IntentionExclusive,
    /// Shared.
    Shared,
    /// Shared + intention exclusive.
    SharedIntentionExclusive,
    /// Exclusive.
    Exclusive,
}

use LockMode::*;

impl LockMode {
    /// Classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!(
            (self, other),
            (IntentionShared, IntentionShared)
                | (IntentionShared, IntentionExclusive)
                | (IntentionShared, Shared)
                | (IntentionShared, SharedIntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (Shared, IntentionShared)
                | (Shared, Shared)
                | (SharedIntentionExclusive, IntentionShared)
        )
    }

    /// Least upper bound in the mode lattice — the mode a holder ends up
    /// with after also acquiring `other` (lock upgrade).
    pub fn join(self, other: LockMode) -> LockMode {
        if self == other {
            return self;
        }
        match (self.min(other), self.max(other)) {
            (IntentionShared, m) => m,
            (IntentionExclusive, Shared) => SharedIntentionExclusive,
            (IntentionExclusive, SharedIntentionExclusive) => SharedIntentionExclusive,
            (Shared, SharedIntentionExclusive) => SharedIntentionExclusive,
            (_, Exclusive) => Exclusive,
            (a, b) => {
                debug_assert!(false, "unhandled join {a:?} {b:?}");
                Exclusive
            }
        }
    }

    /// `true` when holding `self` satisfies a request for `want`.
    pub fn covers(self, want: LockMode) -> bool {
        self.join(want) == self
    }
}

#[derive(Default)]
struct LockEntry {
    holders: HashMap<TransactionId, LockMode>,
    /// Number of transactions blocked on this entry (for fairness metrics).
    waiters: usize,
}

struct State {
    locks: HashMap<LockKey, LockEntry>,
}

/// The per-site lock manager.
pub struct LockManager {
    state: Mutex<State>,
    released: Condvar,
    timeout: Duration,
    metrics: Metrics,
}

impl LockManager {
    pub fn new(timeout: Duration, metrics: Metrics) -> Self {
        LockManager {
            state: Mutex::new(State {
                locks: HashMap::new(),
            }),
            released: Condvar::new(),
            timeout,
            metrics,
        }
    }

    /// Blocks until the lock is granted or the deadlock timeout expires
    /// (`acquireLock` of §6.1.2).
    pub fn acquire(&self, tid: TransactionId, key: LockKey, mode: LockMode) -> DbResult<()> {
        self.acquire_with_timeout(tid, key, mode, self.timeout)
    }

    /// As [`acquire`](Self::acquire) with an explicit timeout; recovery uses
    /// long timeouts when waiting out pending update transactions (§5.4.1
    /// "retries until it succeeds").
    pub fn acquire_with_timeout(
        &self,
        tid: TransactionId,
        key: LockKey,
        mode: LockMode,
        timeout: Duration,
    ) -> DbResult<()> {
        let deadline = Instant::now() + timeout;
        let _rank = lockrank::acquire(Rank::LockManager);
        let mut st = self.state.lock();
        let mut waited = false;
        loop {
            let entry = st.locks.entry(key).or_default();
            let held = entry.holders.get(&tid).copied();
            let target = held.map(|h| h.join(mode)).unwrap_or(mode);
            if held.map(|h| h.covers(mode)).unwrap_or(false) {
                return Ok(()); // already sufficient
            }
            let conflict = entry
                .holders
                .iter()
                .any(|(other, m)| *other != tid && !target.compatible(*m));
            if !conflict {
                entry.holders.insert(tid, target);
                if waited {
                    self.metrics.add_lock_waits(1);
                }
                return Ok(());
            }
            waited = true;
            entry.waiters += 1;
            let timed_out = self.released.wait_until(&mut st, deadline).timed_out();
            if let Some(e) = st.locks.get_mut(&key) {
                e.waiters -= 1;
            }
            if timed_out {
                self.metrics.add_lock_waits(1);
                self.metrics.add_lock_timeouts(1);
                return Err(DbError::LockTimeout {
                    txn: tid,
                    what: key.to_string(),
                });
            }
        }
    }

    /// `hasAccess` of §6.1.2: does `tid` already hold a lock covering `mode`?
    pub fn has_access(&self, tid: TransactionId, key: LockKey, mode: LockMode) -> bool {
        let _rank = lockrank::acquire(Rank::LockManager);
        let st = self.state.lock();
        st.locks
            .get(&key)
            .and_then(|e| e.holders.get(&tid))
            .map(|h| h.covers(mode))
            .unwrap_or(false)
    }

    /// Releases every lock held by `tid` (`releaseLocks`; end of strict 2PL).
    pub fn release_all(&self, tid: TransactionId) {
        let _rank = lockrank::acquire(Rank::LockManager);
        let mut st = self.state.lock();
        st.locks.retain(|_, e| {
            e.holders.remove(&tid);
            !e.holders.is_empty() || e.waiters > 0
        });
        drop(st);
        self.released.notify_all();
    }

    /// Releases one specific lock (recovery releases its remote read locks
    /// object by object, §5.4.2).
    pub fn release(&self, tid: TransactionId, key: LockKey) {
        let _rank = lockrank::acquire(Rank::LockManager);
        let mut st = self.state.lock();
        if let Some(e) = st.locks.get_mut(&key) {
            e.holders.remove(&tid);
            if e.holders.is_empty() && e.waiters == 0 {
                st.locks.remove(&key);
            }
        }
        drop(st);
        self.released.notify_all();
    }

    /// Transactions currently holding a lock on `key` (any mode). Used by a
    /// recovery buddy to detect and break a dead recoverer's locks (§5.5.1:
    /// "overrides the node's ownership of the locks and releases them").
    pub fn holders(&self, key: LockKey) -> Vec<TransactionId> {
        let _rank = lockrank::acquire(Rank::LockManager);
        let st = self.state.lock();
        st.locks
            .get(&key)
            .map(|e| e.holders.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Number of distinct locks currently held (tests / introspection).
    pub fn held_count(&self) -> usize {
        let _rank = lockrank::acquire(Rank::LockManager);
        self.state.lock().locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::ids::SiteId;
    use std::sync::Arc;

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    fn mgr(ms: u64) -> LockManager {
        LockManager::new(Duration::from_millis(ms), Metrics::new())
    }

    fn pkey(n: u32) -> LockKey {
        LockKey::Page(PageId::new(TableId(1), n))
    }

    #[test]
    fn mode_lattice_and_compatibility() {
        assert!(IntentionShared.compatible(IntentionExclusive));
        assert!(!Shared.compatible(IntentionExclusive));
        assert!(!Exclusive.compatible(IntentionShared));
        assert_eq!(Shared.join(IntentionExclusive), SharedIntentionExclusive);
        assert_eq!(IntentionShared.join(Shared), Shared);
        assert_eq!(Shared.join(Exclusive), Exclusive);
        assert!(Exclusive.covers(Shared));
        assert!(!Shared.covers(Exclusive));
        assert!(SharedIntentionExclusive.covers(IntentionExclusive));
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let m = mgr(50);
        m.acquire(tid(1), pkey(0), Shared).unwrap();
        m.acquire(tid(2), pkey(0), Shared).unwrap();
        let err = m.acquire(tid(3), pkey(0), Exclusive).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        m.release_all(tid(1));
        m.release_all(tid(2));
        m.acquire(tid(3), pkey(0), Exclusive).unwrap();
    }

    #[test]
    fn upgrade_from_shared_to_exclusive() {
        let m = mgr(50);
        m.acquire(tid(1), pkey(0), Shared).unwrap();
        // Sole holder upgrades (the insert path's S -> X upgrade, §6.1.3).
        m.acquire(tid(1), pkey(0), Exclusive).unwrap();
        assert!(m.has_access(tid(1), pkey(0), Exclusive));
        // A second reader blocks the upgrade.
        let m = mgr(50);
        m.acquire(tid(1), pkey(0), Shared).unwrap();
        m.acquire(tid(2), pkey(0), Shared).unwrap();
        assert!(m.acquire(tid(1), pkey(0), Exclusive).is_err());
    }

    #[test]
    fn table_read_lock_blocks_page_writers_via_intentions() {
        let m = mgr(50);
        let table = LockKey::Table(TableId(9));
        // Recovering site: table-level S (Phase 3).
        m.acquire(tid(1), table, Shared).unwrap();
        // Writer must take IX on the table first — and blocks.
        assert!(m.acquire(tid(2), table, IntentionExclusive).is_err());
        // A reader's IS is fine.
        m.acquire(tid(3), table, IntentionShared).unwrap();
        // After the recoverer releases, the writer proceeds.
        m.release(tid(1), table);
        m.acquire(tid(2), table, IntentionExclusive).unwrap();
        m.acquire(tid(2), pkey(0), Exclusive).unwrap();
    }

    #[test]
    fn blocked_writer_wakes_on_release() {
        let m = Arc::new(mgr(5_000));
        m.acquire(tid(1), pkey(0), Exclusive).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.acquire(tid(2), pkey(0), Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.release_all(tid(1));
        h.join().unwrap().unwrap();
        assert!(m.has_access(tid(2), pkey(0), Exclusive));
    }

    #[test]
    fn release_all_clears_every_key() {
        let m = mgr(50);
        for i in 0..10 {
            m.acquire(tid(1), pkey(i), Exclusive).unwrap();
        }
        assert_eq!(m.held_count(), 10);
        m.release_all(tid(1));
        assert_eq!(m.held_count(), 0);
    }

    #[test]
    fn holders_reports_foreign_locks_for_override() {
        let m = mgr(50);
        let key = LockKey::Table(TableId(1));
        m.acquire(tid(7), key, Shared).unwrap();
        assert_eq!(m.holders(key), vec![tid(7)]);
        // Buddy detects the recoverer died and overrides its lock.
        m.release_all(tid(7));
        assert!(m.holders(key).is_empty());
    }

    #[test]
    fn reacquire_held_lock_is_idempotent() {
        let m = mgr(50);
        m.acquire(tid(1), pkey(0), Shared).unwrap();
        m.acquire(tid(1), pkey(0), Shared).unwrap();
        m.acquire(tid(1), pkey(0), IntentionShared).unwrap(); // covered
        assert!(m.has_access(tid(1), pkey(0), Shared));
    }

    #[test]
    fn timeout_counts_metrics() {
        let metrics = Metrics::new();
        let m = LockManager::new(Duration::from_millis(10), metrics.clone());
        m.acquire(tid(1), pkey(0), Exclusive).unwrap();
        let _ = m.acquire(tid(2), pkey(0), Exclusive);
        assert_eq!(metrics.lock_timeouts(), 1);
        assert!(metrics.lock_waits() >= 1);
    }
}
