//! The deletion-vector alternative from the §5.2 footnote.
//!
//! The thesis observes that recovery queries with `deletion_time > T`
//! predicates must sequentially scan every segment whose `Tmax-deletion`
//! postdates `T`, and sketches "a separate deletion vector with the deletion
//! times" that recovery could scan instead — trading a little runtime
//! bookkeeping for recovery time. This module implements that idea as a
//! per-table **deletion log**: an ordered set of `(deletion_time, record id)`
//! pairs, maintained whenever a deletion timestamp is written. It is one of
//! the worker's scan sources: a deletion query (`ids_and_deletions_only`)
//! visits the rows it lists, each through the page visitor, instead of the
//! segments they sit in.
//! Writes far outnumber reads (a read is a recovery query), so a note is an
//! append to an unsorted tail, and a read sorts the tail into the set first:
//! it pays once for every note since the last read.
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
    /// `(deletion time, tuple's place)`, ordered by time. The place is
    /// packed as the key index packs it (the table is the log's own).
    by_time: BTreeSet<(u64, u64)>,
    /// Pairs noted since the last read, in no order and possibly repeated:
    /// a note is a push (16 bytes a pair), and a bulk load that carries
    /// tens of thousands of superseded versions pays no tree insert for
    /// them. Every read merges it into `by_time` first ([`Inner::merged`]).
    tail: Vec<(u64, u64)>,
}

impl Inner {
    fn new(built: bool) -> Self {
        Inner {
            built,
            by_time: BTreeSet::new(),
            tail: Vec::new(),
        }
    }

    /// The set with the tail merged in: a sort, then a bulk build into an
    /// empty set or an extend of a full one (either drops the repeats).
    fn merged(&mut self) -> &mut BTreeSet<(u64, u64)> {
        if !self.tail.is_empty() {
            let mut tail = std::mem::take(&mut self.tail);
            tail.sort_unstable();
            if self.by_time.is_empty() {
                self.by_time = BTreeSet::from_iter(tail);
            } else {
                self.by_time.extend(tail);
            }
        }
        &mut self.by_time
    }
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
            inner: Mutex::new(Inner::new(true)),
        }
    }

    /// Cold log for a reopened table; rebuilt on first use.
    pub fn cold(table: TableId) -> Self {
        DeletionLog {
            table,
            inner: Mutex::new(Inner::new(false)),
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
    /// one lock, appended to the tail; a pair whose time is no commit time
    /// (a live row) is skipped.
    pub fn note_run(&self, run: impl IntoIterator<Item = (RecordId, Timestamp)>) {
        let mut g = self.inner.lock();
        if g.built {
            let deleted = run.into_iter().filter(|(_, ts)| ts.is_valid_commit_time());
            g.tail.extend(deleted.map(|(rid, ts)| (ts.0, pack(rid))));
        }
    }

    /// Removes a record (undelete in recovery Phase 1, or physical removal
    /// of the tuple), wherever it was noted. No-op while cold.
    pub fn unnote(&self, rid: RecordId, ts: Timestamp) {
        if !ts.is_valid_commit_time() {
            return;
        }
        let mut g = self.inner.lock();
        if !g.built {
            return;
        }
        g.merged().remove(&(ts.0, pack(rid)));
    }

    /// All `(rid, deletion_time)` pairs with `deletion_time > after`, in
    /// time order, rebuilding first if cold. Their number is that of the
    /// *deletions*, not of the segments they touched.
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
        Ok(g.merged()
            .range((next, 0)..)
            .map(|(ts, at)| (unpack(self.table, *at), Timestamp(*ts)))
            .collect())
    }

    /// Drops contents and marks cold (crash simulation / ARIES restart).
    pub fn invalidate(&self) {
        let mut g = self.inner.lock();
        *g = Inner::new(false);
    }

    /// Rebuilds a cold log with one scan: what it finds is the tail.
    fn build_locked(&self, pool: &BufferPool, g: &mut Inner) -> DbResult<()> {
        let table = pool.table(self.table)?;
        let mut rebuilt = Inner::new(true);
        for pid in table.all_page_ids() {
            pool.with_page(None, pid, |page| {
                for slot in page.occupied_slots() {
                    let del = page.timestamp(slot, TsField::Deletion)?;
                    if del.is_valid_commit_time() {
                        rebuilt.tail.push((del.0, pack(RecordId::new(pid, slot))));
                    }
                }
                Ok(())
            })?;
        }
        *g = rebuilt;
        Ok(())
    }

    /// Total recorded deletions (tests).
    pub fn len(&self) -> usize {
        self.inner.lock().merged().len()
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
        let noted = started.elapsed();
        assert!(
            noted < Duration::from_secs(1),
            "100k notes at one timestamp took {noted:?}"
        );
        // The first read merges the tail; it pays once for every note.
        let started = Instant::now();
        let first = pairs(&log, 8).len();
        let merge = started.elapsed();
        let started = Instant::now();
        let second = pairs(&log, 8).len();
        let reread = started.elapsed();
        println!("100k notes {noted:?}, first read {merge:?}, second read {reread:?}");
        assert!(merge < Duration::from_secs(1), "the merge took {merge:?}");
        assert_eq!((first, second), (50_000, 50_000));
        assert_eq!(log.len(), 50_000);
    }

    /// Random walks over every editor and reader of the log — repeats,
    /// times that are no commit time, reads between notes, going cold and
    /// rebuilding — against a plain `BTreeSet` of what it should hold.
    #[test]
    fn the_log_answers_as_a_set_of_its_notes() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let dir = std::env::temp_dir().join(format!("harbor-dlog-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = harbor_common::Metrics::new();
        let locks = harbor_storage::LockManager::new(Duration::from_millis(10), metrics.clone());
        let pool = BufferPool::new(
            2,
            std::sync::Arc::new(locks),
            harbor_storage::PagePolicy::steal_no_force(),
            metrics.clone(),
        );
        // The table a cold log rebuilds from: it holds no rows.
        let desc = harbor_common::TupleDesc::with_version_columns(vec![(
            "id",
            harbor_common::FieldType::Int64,
        )]);
        let heap = harbor_storage::SegmentedHeapFile::create(
            dir.join("t.tbl"),
            TableId(7),
            desc,
            4,
            harbor_common::DiskProfile::fast(),
            metrics,
        )
        .unwrap();
        pool.register_table(std::sync::Arc::new(heap));

        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let log = DeletionLog::fresh(TableId(7));
            let (mut built, mut model) = (true, BTreeSet::<(Timestamp, RecordId)>::new());
            // Few places and times, so pairs repeat; 0 and `UNCOMMITTED`
            // are no commit time.
            let pair = |rng: &mut SmallRng| {
                let rid = RecordId::new(
                    PageId::new(TableId(7), rng.gen_range(0..3u32)),
                    rng.gen_range(0..6u16),
                );
                let ts = match rng.gen_range(0..8u64) {
                    0 => Timestamp::ZERO,
                    1 => Timestamp::UNCOMMITTED,
                    t => Timestamp(t),
                };
                (rid, ts)
            };
            for step in 0..300 {
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let (rid, ts) = pair(&mut rng);
                        log.note(rid, ts);
                        if built && ts.is_valid_commit_time() {
                            model.insert((ts, rid));
                        }
                    }
                    3..=4 => {
                        let run: Vec<_> =
                            (0..rng.gen_range(0..12)).map(|_| pair(&mut rng)).collect();
                        log.note_run(run.iter().copied());
                        if built {
                            let deleted = run.iter().filter(|(_, ts)| ts.is_valid_commit_time());
                            model.extend(deleted.map(|&(rid, ts)| (ts, rid)));
                        }
                    }
                    5..=6 => {
                        let (rid, ts) = pair(&mut rng);
                        log.unnote(rid, ts);
                        model.remove(&(ts, rid));
                    }
                    7..=8 => {
                        let after = match rng.gen_range(0..10u64) {
                            0 => Timestamp::UNCOMMITTED,
                            t => Timestamp(t),
                        };
                        // A cold log rebuilds from the (empty) table.
                        built = true;
                        let expect: Vec<_> = model
                            .iter()
                            .filter(|(ts, _)| *ts > after)
                            .map(|&(ts, rid)| (rid, ts))
                            .collect();
                        let got = log.deleted_after(&pool, after).unwrap();
                        assert_eq!(got, expect, "seed {seed} step {step}: after {after:?}");
                    }
                    _ if rng.gen_range(0..4) == 0 => {
                        log.invalidate();
                        (built, model) = (false, BTreeSet::new());
                    }
                    // A read of its own: between two, the tail piles up.
                    _ => assert_eq!(log.len(), model.len(), "seed {seed} step {step}"),
                }
                assert_eq!(log.is_built(), built, "seed {seed} step {step}");
            }
        }
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
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
