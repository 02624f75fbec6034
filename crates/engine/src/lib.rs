//! The versioned transaction engine: the layer between the distributed
//! commit protocols and the storage substrate (thesis §6.1.4, "Versioning
//! and Timestamp Management").
//!
//! One [`Engine`] instance is one site's volatile brain: it owns the buffer
//! pool, lock manager, catalog, primary-key indexes and per-transaction
//! insertion/deletion lists. Dropping it without flushing *is* the crash
//! model — only what reached the heap files, the checkpoint record, and (in
//! baseline mode) the forced prefix of the WAL survives.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod deletion_log;
pub mod engine;
pub mod index;
pub mod txn;

pub use catalog::{Catalog, TableDef};
pub use deletion_log::DeletionLog;
pub use engine::{Engine, EngineOptions, RecoveredInserter, StepLogging, KEY_OFFSET};
pub use index::{KeyIndex, Stretch};
pub use txn::{LocalTxnStatus, TxnState};

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp, TransactionId, Tuple, Value};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("harbor-engine-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    fn fields() -> Vec<(String, FieldType)> {
        vec![
            ("id".into(), FieldType::Int64),
            ("qty".into(), FieldType::Int32),
        ]
    }

    fn harbor_engine(name: &str) -> (Arc<Engine>, PathBuf) {
        let dir = temp_dir(name);
        let e = Engine::open(
            &dir,
            EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
        )
        .unwrap();
        (e, dir)
    }

    fn aries_engine(dir: &PathBuf) -> Arc<Engine> {
        Engine::open(
            dir,
            EngineOptions::aries(SiteId(0), StorageConfig::for_tests()),
        )
        .unwrap()
    }

    fn row(id: i64, qty: i32) -> Vec<Value> {
        vec![Value::Int64(id), Value::Int32(qty)]
    }

    #[test]
    fn insert_commit_assigns_timestamps() {
        let (e, dir) = harbor_engine("commit");
        let def = e.create_table("sales", fields()).unwrap();
        let t = tid(1);
        e.begin(t).unwrap();
        let rid = e.insert(t, def.id, row(1, 10)).unwrap();
        assert_eq!(
            e.read_tuple(rid).unwrap().insertion_ts().unwrap(),
            Timestamp::UNCOMMITTED
        );
        e.commit(t, Timestamp(5), StepLogging::OFF).unwrap();
        let tup = e.read_tuple(rid).unwrap();
        assert_eq!(tup.insertion_ts().unwrap(), Timestamp(5));
        assert_eq!(tup.deletion_ts().unwrap(), Timestamp::ZERO);
        assert_eq!(e.local_now(), Timestamp(6));
        // Locks were released.
        assert_eq!(e.locks().held_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_assigns_deletion_time_at_commit_only() {
        let (e, dir) = harbor_engine("delete");
        let def = e.create_table("sales", fields()).unwrap();
        let t1 = tid(1);
        e.begin(t1).unwrap();
        let rid = e.insert(t1, def.id, row(1, 10)).unwrap();
        e.commit(t1, Timestamp(5), StepLogging::OFF).unwrap();
        let t2 = tid(2);
        e.begin(t2).unwrap();
        e.delete(t2, rid).unwrap();
        // Before commit, nothing on the page changed.
        assert_eq!(
            e.read_tuple(rid).unwrap().deletion_ts().unwrap(),
            Timestamp::ZERO
        );
        e.commit(t2, Timestamp(7), StepLogging::OFF).unwrap();
        assert_eq!(
            e.read_tuple(rid).unwrap().deletion_ts().unwrap(),
            Timestamp(7)
        );
        // Segment annotations track the delete.
        let table = e.pool().table(def.id).unwrap();
        assert_eq!(table.segments()[0].tmax_delete, Timestamp(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let (e, dir) = harbor_engine("update");
        let def = e.create_table("sales", fields()).unwrap();
        let t1 = tid(1);
        e.begin(t1).unwrap();
        let rid = e.insert(t1, def.id, row(1, 10)).unwrap();
        e.commit(t1, Timestamp(5), StepLogging::OFF).unwrap();
        let t2 = tid(2);
        e.begin(t2).unwrap();
        let rid2 = e.update(t2, rid, row(1, 99)).unwrap();
        e.commit(t2, Timestamp(8), StepLogging::OFF).unwrap();
        let old = e.read_tuple(rid).unwrap();
        let new = e.read_tuple(rid2).unwrap();
        assert_eq!(old.deletion_ts().unwrap(), Timestamp(8));
        assert_eq!(new.insertion_ts().unwrap(), Timestamp(8));
        assert_eq!(new.user_values()[1], Value::Int32(99));
        // The index holds both versions under key 1.
        let versions = e.index(def.id).unwrap().lookup(e.pool(), 1).unwrap();
        assert_eq!(versions.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn logless_abort_rolls_back_via_insertion_list() {
        let (e, dir) = harbor_engine("abort");
        let def = e.create_table("sales", fields()).unwrap();
        let t1 = tid(1);
        e.begin(t1).unwrap();
        let kept = e.insert(t1, def.id, row(1, 10)).unwrap();
        e.commit(t1, Timestamp(5), StepLogging::OFF).unwrap();
        let t2 = tid(2);
        e.begin(t2).unwrap();
        e.insert(t2, def.id, row(2, 20)).unwrap();
        e.delete(t2, kept).unwrap();
        e.abort(t2, StepLogging::OFF).unwrap();
        // Inserted tuple gone, deletion never materialized.
        let tup = e.read_tuple(kept).unwrap();
        assert_eq!(tup.deletion_ts().unwrap(), Timestamp::ZERO);
        assert!(e
            .index(def.id)
            .unwrap()
            .lookup(e.pool(), 2)
            .unwrap()
            .is_empty());
        assert_eq!(e.metrics().aborts(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_respects_inflight_commit_bounds() {
        let (e, dir) = harbor_engine("ckpt-bound");
        let def = e.create_table("sales", fields()).unwrap();
        // Committed up to time 10.
        let t1 = tid(1);
        e.begin(t1).unwrap();
        e.insert(t1, def.id, row(1, 1)).unwrap();
        e.commit(t1, Timestamp(10), StepLogging::OFF).unwrap();
        // A prepared transaction with commit bound 8 clamps the checkpoint
        // to 7 even though time 10 is fully applied.
        let t2 = tid(2);
        e.begin(t2).unwrap();
        e.insert(t2, def.id, row(2, 2)).unwrap();
        e.prepare(t2, Timestamp(8), StepLogging::OFF).unwrap();
        let t = e.checkpoint().unwrap();
        assert_eq!(t, Timestamp(7));
        // After it commits, the checkpoint advances.
        e.commit(t2, Timestamp(11), StepLogging::OFF).unwrap();
        let t = e.checkpoint().unwrap();
        assert_eq!(t, Timestamp(11));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_transactions_vote_no() {
        let (e, dir) = harbor_engine("poison");
        let def = e.create_table("sales", fields()).unwrap();
        let t = tid(1);
        e.begin(t).unwrap();
        e.insert(t, def.id, row(1, 1)).unwrap();
        e.poison(t);
        assert!(e.prepare(t, Timestamp(1), StepLogging::OFF).is_err());
        e.abort(t, StepLogging::OFF).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aries_crash_recovery_round_trip() {
        let dir = temp_dir("aries-rt");
        let committed_rid;
        {
            let e = aries_engine(&dir);
            let def = e.create_table("sales", fields()).unwrap();
            let t1 = tid(1);
            e.begin(t1).unwrap();
            committed_rid = e.insert(t1, def.id, row(1, 10)).unwrap();
            e.prepare(t1, Timestamp(4), StepLogging::FORCE).unwrap();
            e.commit(t1, Timestamp(5), StepLogging::FORCE).unwrap();
            // A loser: inserted, logged, never committed.
            let t2 = tid(2);
            e.begin(t2).unwrap();
            e.insert(t2, def.id, row(2, 20)).unwrap();
            e.wal().unwrap().flush_all().unwrap();
            // Crash: drop without flushing pages.
        }
        {
            let e = aries_engine(&dir);
            let report = e.aries_restart().unwrap();
            assert!(report.redone > 0);
            assert_eq!(report.undone, 1);
            let tup = e.read_tuple(committed_rid).unwrap();
            assert_eq!(tup.insertion_ts().unwrap(), Timestamp(5));
            assert_eq!(tup.user_values()[0], Value::Int64(1));
            // The loser's tuple is gone: only key 1 is indexed.
            let def = e.table_def("sales").unwrap();
            assert_eq!(
                e.index(def.id).unwrap().lookup(e.pool(), 2).unwrap().len(),
                0
            );
            assert_eq!(
                e.index(def.id).unwrap().lookup(e.pool(), 1).unwrap().len(),
                1
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aries_logged_abort_uses_clrs() {
        let dir = temp_dir("aries-abort");
        let e = aries_engine(&dir);
        let def = e.create_table("sales", fields()).unwrap();
        let t = tid(1);
        e.begin(t).unwrap();
        let rid = e.insert(t, def.id, row(1, 10)).unwrap();
        e.abort(t, StepLogging::FORCE).unwrap();
        assert!(e.read_tuple(rid).is_err(), "tuple physically removed");
        let recs = e.wal().unwrap().scan(harbor_wal::Lsn::ZERO).unwrap();
        assert!(recs.len() >= 4, "Begin, Update, Abort, CLR, End");
        assert!(matches!(
            recs.last().unwrap().1.payload,
            harbor_wal::LogPayload::End { .. }
        ));
        assert!(recs
            .iter()
            .any(|(_, r)| matches!(r.payload, harbor_wal::LogPayload::Clr { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_primitives_round_trip() {
        let (e, dir) = harbor_engine("recovery-prims");
        let def = e.create_table("sales", fields()).unwrap();
        let tup = harbor_common::Tuple::versioned(Timestamp(3), Timestamp::ZERO, row(7, 70));
        let mut inserter = e.recovered_inserter(def.id).unwrap();
        inserter.insert(&tup).unwrap();
        inserter.flush().unwrap();
        let rid = e.index(def.id).unwrap().lookup(e.pool(), 7).unwrap()[0];
        let table = e.pool().table(def.id).unwrap();
        assert_eq!(table.segments()[0].tmin_insert, Timestamp(3));
        e.set_deletion(rid, Timestamp(9)).unwrap();
        assert_eq!(
            e.read_tuple(rid).unwrap().deletion_ts().unwrap(),
            Timestamp(9)
        );
        assert_eq!(table.segments()[0].tmax_delete, Timestamp(9));
        // Undelete (Phase 1).
        e.set_deletion(rid, Timestamp::ZERO).unwrap();
        assert_eq!(
            e.read_tuple(rid).unwrap().deletion_ts().unwrap(),
            Timestamp::ZERO
        );
        e.remove_physical(rid).unwrap();
        assert!(e.read_tuple(rid).is_err());
        assert!(e
            .index(def.id)
            .unwrap()
            .lookup(e.pool(), 7)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rows an inserter holds staged are on no page yet, so a checkpoint may
    /// not claim their time; once placed, it may.
    #[test]
    fn staged_rows_bound_the_checkpoint() {
        let (e, dir) = harbor_engine("staged-ckpt");
        let def = e.create_table("sales", fields()).unwrap();
        let mut inserter = e.recovered_inserter(def.id).unwrap();
        for id in 0..3 {
            let tup = Tuple::versioned(Timestamp(3), Timestamp::ZERO, row(id, 1));
            inserter.insert(&tup).unwrap();
        }
        e.advance_applied_clock(Timestamp(5));
        assert!(e.checkpoint().unwrap() < Timestamp(3));
        inserter.flush().unwrap();
        assert!(e.checkpoint().unwrap() >= Timestamp(3));
        drop(inserter);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A row the table cannot take is refused at its own `insert`; the rows
    /// staged before it stay staged, unseen until `flush` places them.
    #[test]
    fn a_refused_row_leaves_the_rows_staged_before_it() {
        let (e, dir) = harbor_engine("staged-refused");
        let def = e.create_table("sales", fields()).unwrap();
        let index = e.index(def.id).unwrap();
        let mut inserter = e.recovered_inserter(def.id).unwrap();
        let at = |ins, user| Tuple::versioned(ins, Timestamp::ZERO, user);
        inserter.insert(&at(Timestamp(3), row(1, 1))).unwrap();
        inserter.insert(&at(Timestamp(3), row(2, 2))).unwrap();
        assert!(inserter
            .insert(&at(Timestamp::UNCOMMITTED, row(3, 3)))
            .is_err());
        assert!(inserter
            .insert(&at(Timestamp(3), vec![Value::Int64(4)]))
            .is_err());
        assert!(index.lookup(e.pool(), 1).unwrap().is_empty());
        inserter.flush().unwrap();
        for (key, versions) in [(1, 1), (2, 1), (3, 0), (4, 0)] {
            let found = index.lookup(e.pool(), key).unwrap();
            assert_eq!(found.len(), versions, "key {key}");
        }
        let table = e.pool().table(def.id).unwrap();
        assert_eq!(table.segments()[0].tmax_insert, Timestamp(3));
        drop(inserter);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_catalog_and_data() {
        let dir = temp_dir("reopen");
        let rid;
        {
            let e = Engine::open(
                &dir,
                EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
            )
            .unwrap();
            let def = e.create_table("sales", fields()).unwrap();
            let t = tid(1);
            e.begin(t).unwrap();
            rid = e.insert(t, def.id, row(1, 10)).unwrap();
            e.commit(t, Timestamp(5), StepLogging::OFF).unwrap();
            e.checkpoint().unwrap();
        }
        {
            let e = Engine::open(
                &dir,
                EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
            )
            .unwrap();
            let def = e.table_def("sales").unwrap();
            let tup = e.read_tuple(rid).unwrap();
            assert_eq!(tup.user_values()[1], Value::Int32(10));
            // Cold index rebuilds on first use.
            let hits = e.index(def.id).unwrap().lookup(e.pool(), 1).unwrap();
            assert_eq!(hits, vec![rid]);
            assert_eq!(e.checkpointer().global(), Timestamp(5));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transaction_isolation_between_writers() {
        let (e, dir) = harbor_engine("isolation");
        let def = e.create_table("sales", fields()).unwrap();
        let t1 = tid(1);
        e.begin(t1).unwrap();
        let rid = e.insert(t1, def.id, row(1, 10)).unwrap();
        e.commit(t1, Timestamp(2), StepLogging::OFF).unwrap();
        let t2 = tid(2);
        let t3 = tid(3);
        e.begin(t2).unwrap();
        e.begin(t3).unwrap();
        e.delete(t2, rid).unwrap();
        // t3 cannot delete the same tuple: page X lock held by t2.
        assert!(e.delete(t3, rid).is_err());
        e.abort(t2, StepLogging::OFF).unwrap();
        // After t2 aborts, t3 can.
        e.delete(t3, rid).unwrap();
        e.commit(t3, Timestamp(3), StepLogging::OFF).unwrap();
        assert_eq!(
            e.read_tuple(rid).unwrap().deletion_ts().unwrap(),
            Timestamp(3)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
