//! DML executors: the update-side operators of §6.1.5, expressed as
//! functions over the engine (they mutate state rather than produce tuple
//! streams).
//!
//! All three run in `Current` mode with transactional locks — the strict
//! 2PL side of the concurrency model. The predicate sees the stored tuple
//! (version columns included, at indices 0 and 1).

use crate::expr::Expr;
use crate::scan::{scan_rids, visit_versions, ReadMode};
use harbor_common::{DbResult, RecordId, TableId, TransactionId, Value};
use harbor_engine::Engine;
use harbor_storage::ScanBounds;

/// Inserts one row; returns its record id.
pub fn run_insert(
    engine: &Engine,
    tid: TransactionId,
    table: TableId,
    user_values: Vec<Value>,
) -> DbResult<RecordId> {
    engine.insert(tid, table, user_values)
}

/// Deletes all currently-visible rows satisfying `pred`; returns how many.
pub fn run_delete(
    engine: &Engine,
    tid: TransactionId,
    table: TableId,
    pred: &Expr,
) -> DbResult<usize> {
    let victims = scan_rids(
        engine.pool(),
        table,
        ReadMode::Current(tid),
        ScanBounds::all(),
        |t| pred.eval_bool(t),
    )?;
    for (rid, _) in &victims {
        engine.delete(tid, *rid)?;
    }
    Ok(victims.len())
}

/// Updates all currently-visible rows satisfying `pred` by mapping their
/// user values through `f`; returns how many.
pub fn run_update(
    engine: &Engine,
    tid: TransactionId,
    table: TableId,
    pred: &Expr,
    mut f: impl FnMut(Vec<Value>) -> Vec<Value>,
) -> DbResult<usize> {
    let victims = scan_rids(
        engine.pool(),
        table,
        ReadMode::Current(tid),
        ScanBounds::all(),
        |t| pred.eval_bool(t),
    )?;
    for (rid, tup) in &victims {
        let new_values = f(tup.user_values());
        engine.update(tid, *rid, new_values)?;
    }
    Ok(victims.len())
}

/// Updates the currently-visible version of the row with primary key `key`
/// ("indexed update queries", §4.2): the common warehouse correction of one
/// recent tuple. Returns `true` if a row was found and updated.
///
/// The versions are judged under their page locks, which a probe of the
/// index comes before: while this waits for a writer that deletes the
/// version it found, that writer may put the key's next version in. So when
/// no version is live, the index is probed again, and the versions are read
/// again for as long as its answer moves — every replica then updates the
/// version the writer left, whichever side of the writer's insert its
/// probe fell on.
pub fn run_update_by_key(
    engine: &Engine,
    tid: TransactionId,
    table: TableId,
    key: i64,
    mut f: impl FnMut(Vec<Value>) -> Vec<Value>,
) -> DbResult<bool> {
    let index = engine.index(table)?;
    let (mode, bounds) = (ReadMode::Current(tid), ScanBounds::all());
    let mut probed = index.lookup(engine.pool(), key)?;
    loop {
        // At most one live version exists per key under correct usage;
        // update the first.
        let mut hit = None;
        visit_versions(engine, table, &probed, mode, &bounds, |row| {
            if hit.is_none() {
                hit = Some((row.rid, row.decode()?));
            }
            Ok(())
        })?;
        if let Some((rid, tup)) = hit {
            engine.update(tid, rid, f(tup.user_values()))?;
            return Ok(true);
        }
        let now = index.lookup(engine.pool(), key)?;
        if now == probed {
            return Ok(false);
        }
        probed = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::SeqScan;
    use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp};
    use harbor_engine::{EngineOptions, StepLogging};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn setup(name: &str) -> (Arc<Engine>, TableId, PathBuf) {
        let dir = std::env::temp_dir()
            .join("harbor-dml-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = Engine::open(
            &dir,
            EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
        )
        .unwrap();
        let def = e
            .create_table(
                "t",
                vec![
                    ("id".into(), FieldType::Int64),
                    ("v".into(), FieldType::Int32),
                ],
            )
            .unwrap();
        (e, def.id, dir)
    }

    fn tid(n: u64) -> TransactionId {
        harbor_common::TransactionId::from_parts(SiteId(0), n)
    }

    #[test]
    fn delete_by_predicate() {
        let (e, table, dir) = setup("del");
        let t = tid(1);
        e.begin(t).unwrap();
        for i in 0..10 {
            run_insert(&e, t, table, vec![Value::Int64(i), Value::Int32(i as i32)]).unwrap();
        }
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        let t = tid(2);
        e.begin(t).unwrap();
        let n = run_delete(&e, t, table, &Expr::col(3).ge(Expr::lit(5))).unwrap();
        assert_eq!(n, 5);
        e.commit(t, Timestamp(2), StepLogging::OFF).unwrap();
        let mut scan =
            SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(2))).unwrap();
        assert_eq!(collect(&mut scan).unwrap().len(), 5);
        // Time travel: before the delete, all ten are visible.
        let mut scan =
            SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(1))).unwrap();
        assert_eq!(collect(&mut scan).unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_by_key_touches_one_row() {
        let (e, table, dir) = setup("updkey");
        let t = tid(1);
        e.begin(t).unwrap();
        for i in 0..5 {
            run_insert(&e, t, table, vec![Value::Int64(i), Value::Int32(0)]).unwrap();
        }
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        let t = tid(2);
        e.begin(t).unwrap();
        let hit = run_update_by_key(&e, t, table, 3, |vals| {
            vec![vals[0].clone(), Value::Int32(77)]
        })
        .unwrap();
        assert!(hit);
        assert!(!run_update_by_key(&e, t, table, 99, |v| v).unwrap());
        e.commit(t, Timestamp(2), StepLogging::OFF).unwrap();
        let mut scan =
            SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(2))).unwrap();
        let rows = collect(&mut scan).unwrap();
        let v3: Vec<_> = rows
            .iter()
            .filter(|r| r.get(2).as_i64().unwrap() == 3)
            .collect();
        assert_eq!(v3.len(), 1);
        assert_eq!(v3[0].get(3), Value::Int32(77));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A deleter commits while an indexed update is waiting for the row's
    /// page: the update has to judge the row by what the page says once it
    /// holds the lock — deleted — not by a read taken before it waited.
    #[test]
    fn update_by_key_reads_the_row_under_its_lock() {
        use harbor_storage::LockKey;
        let (e, table, dir) = setup("updkey-race");
        let t = tid(1);
        e.begin(t).unwrap();
        run_insert(&e, t, table, vec![Value::Int64(3), Value::Int32(0)]).unwrap();
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        // The deleter holds the page exclusively until it commits.
        let deleter = tid(2);
        e.begin(deleter).unwrap();
        let victim = Expr::col(2).eq(Expr::lit(3i64));
        assert_eq!(run_delete(&e, deleter, table, &victim).unwrap(), 1);
        let updater = tid(3);
        let update = std::thread::spawn({
            let e = e.clone();
            move || {
                e.begin(updater).unwrap();
                let hit = run_update_by_key(&e, updater, table, 3, |v| v);
                e.abort(updater, StepLogging::OFF).unwrap();
                hit
            }
        });
        // The table intention lock is the step before the page lock: once
        // the updater holds it, its probe is done and it is (about to be)
        // parked behind the deleter.
        while !e.locks().holders(LockKey::Table(table)).contains(&updater) {
            std::thread::yield_now();
        }
        e.commit(deleter, Timestamp(2), StepLogging::OFF).unwrap();
        let hit = update.join().unwrap().unwrap();
        assert!(!hit, "a row deleted at 2 was updated as if live");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two indexed updates of one key: the first deletes the live version
    /// and, after the second has probed the index and is parked behind it,
    /// inserts the key's next version and commits. The second must update
    /// that next version, as it does at a replica where its probe came after
    /// the insert — not find the deleted one and report no row.
    #[test]
    fn update_by_key_after_a_concurrent_update_is_not_lost() {
        use harbor_storage::LockKey;
        let (e, table, dir) = setup("updkey-lost");
        let t = tid(1);
        e.begin(t).unwrap();
        let v1 = run_insert(&e, t, table, vec![Value::Int64(3), Value::Int32(0)]).unwrap();
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        // The first update holds the page exclusively until it commits.
        let first = tid(2);
        e.begin(first).unwrap();
        e.delete(first, v1).unwrap();
        let second = tid(3);
        let update = std::thread::spawn({
            let e = e.clone();
            move || {
                e.begin(second).unwrap();
                run_update_by_key(&e, second, table, 3, |v| {
                    vec![v[0].clone(), Value::Int32(2)]
                })
            }
        });
        // Its table intention lock is taken after its probe.
        while !e.locks().holders(LockKey::Table(table)).contains(&second) {
            std::thread::yield_now();
        }
        run_insert(&e, first, table, vec![Value::Int64(3), Value::Int32(1)]).unwrap();
        e.commit(first, Timestamp(2), StepLogging::OFF).unwrap();
        let hit = update.join().unwrap().unwrap();
        e.commit(second, Timestamp(3), StepLogging::OFF).unwrap();
        let mut scan =
            SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(3))).unwrap();
        let live: Vec<Value> = collect(&mut scan)
            .unwrap()
            .iter()
            .filter(|r| r.get(2) == Value::Int64(3))
            .map(|r| r.get(3))
            .collect();
        assert!(hit, "the second update found no row; live at 3: {live:?}");
        assert_eq!(live, vec![Value::Int32(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_by_predicate_rewrites_matching_rows() {
        let (e, table, dir) = setup("updpred");
        let t = tid(1);
        e.begin(t).unwrap();
        for i in 0..6 {
            run_insert(&e, t, table, vec![Value::Int64(i), Value::Int32(1)]).unwrap();
        }
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        let t = tid(2);
        e.begin(t).unwrap();
        let n = run_update(&e, t, table, &Expr::col(2).lt(Expr::lit(3i64)), |vals| {
            vec![vals[0].clone(), Value::Int32(2)]
        })
        .unwrap();
        assert_eq!(n, 3);
        e.commit(t, Timestamp(2), StepLogging::OFF).unwrap();
        let mut scan =
            SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(2))).unwrap();
        let rows = collect(&mut scan).unwrap();
        assert_eq!(rows.len(), 6, "update preserved cardinality");
        let doubled = rows.iter().filter(|r| r.get(3) == Value::Int32(2)).count();
        assert_eq!(doubled, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
