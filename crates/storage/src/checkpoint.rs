//! HARBOR checkpointing (thesis Fig 3-2 and §5.2/§5.3).
//!
//! A checkpoint at time `T` guarantees that all insertions and deletions of
//! transactions that committed at or before `T` are on disk. The procedure:
//!
//! ```text
//! procedure checkpoint():
//!     let T = current time - 1
//!     obtain snapshot of dirty pages table
//!     for each page P in snapshot: latch, flush, unlatch
//!     record T to checkpoint file
//! ```
//!
//! The flush loop runs in page order, a run of adjacent pages per write
//! ([`BufferPool::write_back`]): the same pages and bytes, fewer syscalls.
//!
//! The engine serializes the "which commits count" decision (it holds a
//! commit gate while computing `T` and taking the snapshot); this module
//! performs the flushing and owns the on-disk [`CheckpointRecord`],
//! including the per-object checkpoints that recovery writes as individual
//! objects catch up.

use crate::buffer::BufferPool;
use crate::file::CheckpointRecord;
use harbor_common::{DbResult, DiskProfile, TableId, Timestamp};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};

/// Owns the checkpoint record for one site.
pub struct Checkpointer {
    path: PathBuf,
    disk: DiskProfile,
    record: Mutex<CheckpointRecord>,
    /// Set during recovery: periodic checkpoints are disabled (§5.2).
    suspended: std::sync::atomic::AtomicBool,
}

impl Checkpointer {
    /// Opens (or initializes) the checkpoint record at `path`.
    pub fn open(path: impl AsRef<Path>, disk: DiskProfile) -> DbResult<Self> {
        let path = path.as_ref().to_path_buf();
        let record = CheckpointRecord::read(&path)?;
        Ok(Checkpointer {
            path,
            disk,
            record: Mutex::new(record),
            suspended: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The current record (clone).
    pub fn record(&self) -> CheckpointRecord {
        self.record.lock().clone()
    }

    /// The global checkpoint time.
    pub fn global(&self) -> Timestamp {
        self.record.lock().global
    }

    /// Effective checkpoint for one table.
    pub fn for_table(&self, table: TableId) -> Timestamp {
        self.record.lock().for_table(table)
    }

    /// Phase-1 uncommitted-scan start segment for one table.
    pub fn scan_start(&self, table: TableId) -> u32 {
        self.record
            .lock()
            .scan_start
            .get(&table.0)
            .copied()
            .unwrap_or(0)
    }

    /// Disables/enables periodic checkpoints (recovery runs with them off).
    pub fn set_suspended(&self, suspended: bool) {
        self.suspended
            .store(suspended, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn is_suspended(&self) -> bool {
        self.suspended.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Runs the checkpoint body for time `t` over an already-taken dirty
    /// page snapshot: write every page back in page order, a run of
    /// adjacent pages at a time ([`BufferPool::write_back`]), persist
    /// directories, sync, then durably record `t` (plus the per-table
    /// scan-start segments supplied by the engine).
    pub fn checkpoint(
        &self,
        pool: &BufferPool,
        t: Timestamp,
        dirty_snapshot: Vec<harbor_common::PageId>,
        scan_start: Vec<(TableId, u32)>,
    ) -> DbResult<Timestamp> {
        pool.write_back(dirty_snapshot)?;
        for id in pool.table_ids() {
            let table = pool.table(id)?;
            table.persist_directory()?;
            table.sync()?;
        }
        let mut rec = self.record.lock();
        rec.promote_global(t);
        for (table, seg) in scan_start {
            rec.scan_start.insert(table.0, seg);
        }
        rec.write(&self.path, self.disk)?;
        Ok(t)
    }

    /// Records a finer-granularity per-object checkpoint during recovery
    /// (§5.3): object `table` is consistent up to `t`.
    pub fn checkpoint_object(&self, table: TableId, t: Timestamp) -> DbResult<()> {
        let mut rec = self.record.lock();
        rec.set_object(table, t);
        rec.write(&self.path, self.disk)
    }

    /// Rewinds objects in one durable write: each `(table, t)` is
    /// consistent only up to `t` — or up to the global checkpoint, if that
    /// is lower, so that promotions keep the rewind — from now on, whatever
    /// later global checkpoints say, until recovery raises it with
    /// [`Checkpointer::checkpoint_object`].
    pub fn rewind_objects(
        &self,
        rewinds: impl IntoIterator<Item = (TableId, Timestamp)>,
    ) -> DbResult<()> {
        let mut rec = self.record.lock();
        let global = rec.global;
        for (table, t) in rewinds {
            rec.rewind(table, t.min(global));
        }
        rec.write(&self.path, self.disk)
    }

    /// Promotes the global checkpoint once recovery of all objects is done
    /// (§5.3) and resumes normal checkpointing.
    pub fn finish_recovery(&self, t: Timestamp) -> DbResult<()> {
        let mut rec = self.record.lock();
        rec.promote_global(t);
        rec.write(&self.path, self.disk)?;
        drop(rec);
        self.set_suspended(false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPool, PagePolicy};
    use crate::lock::LockManager;
    use crate::table::SegmentedHeapFile;
    use harbor_common::{FieldType, Metrics, TupleDesc};
    use std::sync::Arc;
    use std::time::Duration;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("harbor-ckpt-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tuple_bytes(id: i64) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&u64::MAX.to_le_bytes());
        v.extend_from_slice(&0u64.to_le_bytes());
        v.extend_from_slice(&id.to_le_bytes());
        v
    }

    #[test]
    fn checkpoint_flushes_and_records_time() {
        let dir = temp_dir("basic");
        let metrics = Metrics::new();
        let locks = Arc::new(LockManager::new(Duration::from_millis(50), metrics.clone()));
        let pool = BufferPool::new(16, locks, PagePolicy::steal_no_force(), metrics.clone());
        let desc = TupleDesc::with_version_columns(vec![("id", FieldType::Int64)]);
        let table = SegmentedHeapFile::create(
            dir.join("t.tbl"),
            TableId(1),
            desc,
            4,
            harbor_common::DiskProfile::fast(),
            metrics,
        )
        .unwrap();
        pool.register_table(Arc::new(table));
        pool.insert_tuple_bytes(None, TableId(1), &tuple_bytes(1))
            .unwrap();

        let ck =
            Checkpointer::open(dir.join("checkpoint"), harbor_common::DiskProfile::fast()).unwrap();
        assert_eq!(ck.global(), Timestamp::ZERO);
        let snapshot = pool.dirty_pages();
        ck.checkpoint(&pool, Timestamp(9), snapshot, vec![(TableId(1), 0)])
            .unwrap();
        assert!(pool.dirty_pages().is_empty());
        assert_eq!(ck.global(), Timestamp(9));
        // Reopen sees the persisted record.
        let ck2 =
            Checkpointer::open(dir.join("checkpoint"), harbor_common::DiskProfile::fast()).unwrap();
        assert_eq!(ck2.global(), Timestamp(9));
        assert_eq!(ck2.scan_start(TableId(1)), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_object_checkpoints_then_promotion() {
        let dir = temp_dir("objects");
        let ck =
            Checkpointer::open(dir.join("checkpoint"), harbor_common::DiskProfile::fast()).unwrap();
        ck.checkpoint_object(TableId(1), Timestamp(20)).unwrap();
        ck.checkpoint_object(TableId(2), Timestamp(30)).unwrap();
        assert_eq!(ck.for_table(TableId(1)), Timestamp(20));
        assert_eq!(ck.for_table(TableId(3)), Timestamp::ZERO);
        ck.finish_recovery(Timestamp(25)).unwrap();
        assert_eq!(ck.for_table(TableId(1)), Timestamp(25));
        assert_eq!(ck.for_table(TableId(2)), Timestamp(30));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rewind_below_global_holds_until_recovery_raises_it() {
        let dir = temp_dir("rewind");
        let path = dir.join("checkpoint");
        let fast = harbor_common::DiskProfile::fast();
        let ck = Checkpointer::open(&path, fast).unwrap();
        ck.finish_recovery(Timestamp(20)).unwrap();
        ck.rewind_objects([(TableId(1), Timestamp(5))]).unwrap();
        assert_eq!(ck.for_table(TableId(1)), Timestamp(5), "the rewind wins");
        assert_eq!(ck.for_table(TableId(2)), Timestamp(20));
        // It survives a reopen and a promotion of the global checkpoint.
        let ck = Checkpointer::open(&path, fast).unwrap();
        ck.finish_recovery(Timestamp(30)).unwrap();
        assert_eq!(ck.global(), Timestamp(30));
        assert_eq!(ck.for_table(TableId(1)), Timestamp(5));
        // A rewind to above the global checkpoint goes to it, even under a
        // recovered checkpoint above both, so that a promotion keeps it.
        ck.checkpoint_object(TableId(2), Timestamp(50)).unwrap();
        ck.rewind_objects([(TableId(2), Timestamp(40))]).unwrap();
        assert_eq!(ck.for_table(TableId(2)), Timestamp(30));
        ck.finish_recovery(Timestamp(45)).unwrap();
        assert_eq!(ck.for_table(TableId(2)), Timestamp(30));
        // Recovery raises it; the next promotion past it subsumes it.
        ck.checkpoint_object(TableId(1), Timestamp(55)).unwrap();
        assert_eq!(ck.for_table(TableId(1)), Timestamp(55));
        ck.checkpoint_object(TableId(2), Timestamp(55)).unwrap();
        ck.finish_recovery(Timestamp(55)).unwrap();
        assert!(ck.record().per_object.is_empty());
        assert_eq!(ck.for_table(TableId(1)), Timestamp(55));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suspension_flag_round_trips() {
        let dir = temp_dir("suspend");
        let ck =
            Checkpointer::open(dir.join("checkpoint"), harbor_common::DiskProfile::fast()).unwrap();
        assert!(!ck.is_suspended());
        ck.set_suspended(true);
        assert!(ck.is_suspended());
        ck.finish_recovery(Timestamp(1)).unwrap();
        assert!(!ck.is_suspended());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
