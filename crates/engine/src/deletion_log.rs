//! The deletion-vector alternative from the §5.2 footnote.
//!
//! The thesis observes that recovery queries with `deletion_time > T`
//! predicates must sequentially scan every segment whose `Tmax-deletion`
//! postdates `T`, and sketches "a separate deletion vector with the deletion
//! times" that recovery could scan instead — trading a little runtime
//! bookkeeping for recovery time. This module implements that idea as a
//! per-table **deletion log**: an ordered set of `(deletion_time, record id)`
//! pairs, maintained whenever a deletion timestamp is written and consulted
//! by the worker's remote-scan fast path for `ids_and_deletions_only` recovery
//! queries. The ablation bench (`ablations.rs` #4) measures what it buys.
//!
//! Like the primary-key index, the log is volatile: it reopens *cold* after
//! a restart and rebuilds lazily with one `SEE DELETED` scan, so recovery
//! on the crashed site never depends on it — only the (live) recovery
//! buddies answer deletion queries, and their logs are warm.

use crate::index::{pack, unpack};
use harbor_common::{DbResult, RecordId, TableId, Timestamp};
use harbor_storage::BufferPool;
use harbor_wal::record::TsField;
use parking_lot::Mutex;
use std::collections::BTreeSet;

struct Inner {
    built: bool,
    /// `(deletion time, tuple's place)`, ordered by time: a bulk load that
    /// deletes tens of thousands of versions at one commit time costs a tree
    /// insert per tuple, not a scan of everything already deleted at that
    /// time. The place is packed as the key index packs it (the table is the
    /// log's own): 16 bytes a pair.
    by_time: BTreeSet<(u64, u64)>,
}

/// Per-table ordered log of deletion timestamps.
pub struct DeletionLog {
    table: TableId,
    inner: Mutex<Inner>,
}

impl DeletionLog {
    /// Fresh (empty, authoritative) log for a newly created table.
    pub fn fresh(table: TableId) -> Self {
        DeletionLog {
            table,
            inner: Mutex::new(Inner {
                built: true,
                by_time: BTreeSet::new(),
            }),
        }
    }

    /// Cold log for a reopened table; rebuilt on first use.
    pub fn cold(table: TableId) -> Self {
        DeletionLog {
            table,
            inner: Mutex::new(Inner {
                built: false,
                by_time: BTreeSet::new(),
            }),
        }
    }

    pub fn is_built(&self) -> bool {
        self.inner.lock().built
    }

    /// Records that `rid` was deleted at `ts`. No-op while cold.
    pub fn note(&self, rid: RecordId, ts: Timestamp) {
        self.note_run([(rid, ts)]);
    }

    /// [`note`](Self::note) for each `(record, deletion time)` of a run under
    /// one lock; a pair whose time is no commit time (a live row) is skipped.
    pub fn note_run(&self, run: impl IntoIterator<Item = (RecordId, Timestamp)>) {
        let mut g = self.inner.lock();
        if g.built {
            let deleted = run.into_iter().filter(|(_, ts)| ts.is_valid_commit_time());
            g.by_time.extend(deleted.map(|(rid, ts)| (ts.0, pack(rid))));
        }
    }

    /// Removes a record (undelete in recovery Phase 1, or physical removal
    /// of the tuple). No-op while cold.
    pub fn unnote(&self, rid: RecordId, ts: Timestamp) {
        if !ts.is_valid_commit_time() {
            return;
        }
        let mut g = self.inner.lock();
        if !g.built {
            return;
        }
        g.by_time.remove(&(ts.0, pack(rid)));
    }

    /// All `(rid, deletion_time)` pairs with `deletion_time > after`,
    /// rebuilding first if cold. This is the recovery fast path: its cost
    /// is proportional to the number of *deletions*, not to the segments
    /// they touched.
    pub fn deleted_after(
        &self,
        pool: &BufferPool,
        after: Timestamp,
    ) -> DbResult<Vec<(RecordId, Timestamp)>> {
        let mut g = self.inner.lock();
        if !g.built {
            self.build_locked(pool, &mut g)?;
        }
        // The smallest pair of the first admitted time; nothing comes after
        // the last time there is.
        let Some(next) = after.0.checked_add(1) else {
            return Ok(Vec::new());
        };
        Ok(g.by_time
            .range((next, 0)..)
            .map(|(ts, at)| (unpack(self.table, *at), Timestamp(*ts)))
            .collect())
    }

    /// Drops contents and marks cold (crash simulation / ARIES restart).
    pub fn invalidate(&self) {
        let mut g = self.inner.lock();
        g.built = false;
        g.by_time.clear();
    }

    fn build_locked(&self, pool: &BufferPool, g: &mut Inner) -> DbResult<()> {
        let table = pool.table(self.table)?;
        let mut by_time = BTreeSet::new();
        for pid in table.all_page_ids() {
            pool.with_page(None, pid, |page| {
                for slot in page.occupied_slots() {
                    let del = page.timestamp(slot, TsField::Deletion)?;
                    if del.is_valid_commit_time() {
                        by_time.insert((del.0, pack(RecordId::new(pid, slot))));
                    }
                }
                Ok(())
            })?;
        }
        g.by_time = by_time;
        g.built = true;
        Ok(())
    }

    /// Total recorded deletions (tests).
    pub fn len(&self) -> usize {
        self.inner.lock().by_time.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::PageId;
    use std::time::{Duration, Instant};

    fn rid(i: u32) -> RecordId {
        RecordId::new(PageId::new(TableId(7), i / 100), (i % 100) as u16)
    }

    /// `deleted_after` on a warm log never touches the pool it is handed.
    fn pairs(log: &DeletionLog, after: u64) -> Vec<(RecordId, Timestamp)> {
        let metrics = harbor_common::Metrics::new();
        let locks = harbor_storage::LockManager::new(Duration::from_millis(10), metrics.clone());
        let pool = BufferPool::new(
            2,
            std::sync::Arc::new(locks),
            harbor_storage::PagePolicy::steal_no_force(),
            metrics,
        );
        log.deleted_after(&pool, Timestamp(after)).unwrap()
    }

    #[test]
    fn bulk_deletions_at_one_time_are_not_quadratic() {
        let log = DeletionLog::fresh(TableId(7));
        let started = Instant::now();
        for i in 0..50_000 {
            log.note(rid(i), Timestamp(9));
        }
        // Repeats (recovery re-notes what it re-applies) change nothing.
        for i in 0..50_000 {
            log.note(rid(i), Timestamp(9));
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "100k notes at one timestamp took {:?}",
            started.elapsed()
        );
        assert_eq!(log.len(), 50_000);
    }

    #[test]
    fn deleted_after_returns_each_pair_once_in_time_order() {
        let log = DeletionLog::fresh(TableId(7));
        // Noted out of order, with a repeat and an invalid (uncommitted) time.
        log.note(rid(3), Timestamp(12));
        log.note(rid(1), Timestamp(10));
        log.note(rid(2), Timestamp(12));
        log.note(rid(2), Timestamp(12));
        log.note(rid(4), Timestamp(11));
        log.note(rid(5), Timestamp::UNCOMMITTED);
        assert_eq!(
            pairs(&log, 10),
            vec![
                (rid(4), Timestamp(11)),
                (rid(2), Timestamp(12)),
                (rid(3), Timestamp(12)),
            ]
        );
        assert_eq!(pairs(&log, 0).len(), 4);
        assert!(pairs(&log, 12).is_empty());
        assert!(pairs(&log, u64::MAX).is_empty());
        // Removing the last pair of a time leaves nothing behind.
        log.unnote(rid(4), Timestamp(11));
        log.unnote(rid(4), Timestamp(11));
        assert_eq!(log.len(), 3);
        assert_eq!(pairs(&log, 10).len(), 2);
    }
}
