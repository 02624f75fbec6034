//! Engine-level policy tests: the write-ahead-logging rule, the FORCE
//! paging policy, and the checkpoint soundness bound for transactions whose
//! inserts straddle a segment boundary.

use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp, TransactionId, Value};
use harbor_engine::{Engine, EngineOptions, StepLogging};
use harbor_storage::PagePolicy;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-engine-policy-tests")
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
        ("v".into(), FieldType::Int32),
    ]
}

fn row(id: i64) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(id as i32)]
}

#[test]
fn wal_rule_forces_log_before_page_writeback() {
    let dir = temp_dir("wal-rule");
    let e = Engine::open(
        &dir,
        EngineOptions::aries(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let def = e.create_table("t", fields()).unwrap();
    let t = tid(1);
    e.begin(t).unwrap();
    e.insert(t, def.id, row(1)).unwrap();
    // Nothing committed, nothing forced: the update record is buffered.
    let wal = e.wal().unwrap();
    let unforced_before = wal.end().0 - wal.durable_end().0;
    assert!(unforced_before > 0, "update record should be buffered");
    // Flushing the dirty page must drag the log to disk first (STEAL +
    // WAL rule): afterwards the tail is durable.
    e.pool().flush_all().unwrap();
    assert_eq!(
        wal.end(),
        wal.durable_end(),
        "page write-back must force the log through the page LSN"
    );
    e.abort(t, StepLogging::FORCE).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn force_policy_flushes_touched_pages_at_commit() {
    let dir = temp_dir("force-policy");
    let opts = EngineOptions {
        policy: PagePolicy::no_steal_force(),
        ..EngineOptions::harbor(SiteId(0), StorageConfig::for_tests())
    };
    let e = Engine::open(&dir, opts).unwrap();
    let def = e.create_table("t", fields()).unwrap();
    let t = tid(1);
    e.begin(t).unwrap();
    e.insert(t, def.id, row(1)).unwrap();
    assert!(!e.pool().dirty_pages().is_empty());
    e.commit(t, Timestamp(3), StepLogging::OFF).unwrap();
    assert!(
        e.pool().dirty_pages().is_empty(),
        "FORCE policy must write back the transaction's pages at commit"
    );
    // And the data is durably correct: reopen without any recovery.
    drop(e);
    let e = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let def = e.table_def("t").unwrap();
    let hits = e.index(def.id).unwrap().lookup(e.pool(), 1).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        e.read_tuple(hits[0]).unwrap().insertion_ts().unwrap(),
        Timestamp(3)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transaction inserts into segment N, a new segment is created by other
/// inserts, and only then does the first transaction commit. The checkpoint
/// must keep its Phase-1 scan start at segment N — otherwise a crash would
/// leave an invisible uncommitted tuple (or a tuple committed after the
/// checkpoint) stranded on disk where Phase 1 never looks.
#[test]
fn checkpoint_scan_start_covers_straddling_transactions() {
    let dir = temp_dir("straddle");
    let mut storage = StorageConfig::for_tests();
    storage.segment_pages = 1; // one page per segment: easy to straddle
    let e = Engine::open(&dir, EngineOptions::harbor(SiteId(0), storage)).unwrap();
    let def = e.create_table("t", fields()).unwrap();
    let table = e.pool().table(def.id).unwrap();
    // The slow transaction fills the current last segment completely (so
    // later traffic moves on without contending for its page locks).
    let per_page = harbor_storage::slots_per_page(table.tuple_size());
    let slow = tid(1);
    e.begin(slow).unwrap();
    for i in 0..per_page as i64 {
        e.insert(slow, def.id, row(1_000 + i)).unwrap();
    }
    let seg_at_insert = table.last_segment().0;
    // Competing committed traffic rolls the table into later segments.
    let filler = tid(2);
    e.begin(filler).unwrap();
    for i in 0..(per_page * 2) as i64 {
        e.insert(filler, def.id, row(i)).unwrap();
    }
    e.commit(filler, Timestamp(10), StepLogging::OFF).unwrap();
    assert!(table.last_segment().0 > seg_at_insert, "segments rolled");
    // Checkpoint while `slow` is still pending: the recorded scan-start
    // segment must not exceed the segment `slow` inserted into.
    e.checkpoint().unwrap();
    let start = e.checkpointer().scan_start(def.id);
    assert!(
        start <= seg_at_insert,
        "scan start {start} skips the straddling transaction's segment {seg_at_insert}"
    );
    e.commit(slow, Timestamp(11), StepLogging::OFF).unwrap();
    // After the straddler finishes, a fresh checkpoint advances the bound
    // to the (new) last segment.
    e.checkpoint().unwrap();
    assert_eq!(e.checkpointer().scan_start(def.id), table.last_segment().0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_transactions_on_disjoint_tables_commit_independently() {
    let dir = temp_dir("concurrent");
    let e = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let defs: Vec<_> = (0..4)
        .map(|i| e.create_table(&format!("t{i}"), fields()).unwrap())
        .collect();
    let _keep: &Arc<Engine> = &e;
    std::thread::scope(|scope| {
        for (i, def) in defs.iter().enumerate() {
            let e = &e;
            let id = def.id;
            scope.spawn(move || {
                let t = tid(10 + i as u64);
                e.begin(t).unwrap();
                for k in 0..50 {
                    e.insert(t, id, row(k)).unwrap();
                }
                e.commit(t, Timestamp(5 + i as u64), StepLogging::OFF)
                    .unwrap();
            });
        }
    });
    for def in &defs {
        let hits = e.index(def.id).unwrap().lookup(e.pool(), 7).unwrap();
        assert_eq!(hits.len(), 1);
    }
    assert_eq!(e.metrics().commits(), 4);
    assert_eq!(e.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A logless rollback that a disk fault stops part-way must be resumable:
/// the connection's close and the termination protocol both retry a failed
/// abort, and a retry that started over would try to remove a tuple it had
/// already removed ("remove of empty slot"), fail for ever, and leave the
/// transaction's locks behind — where they block every later recovery that
/// needs the table lock at this site.
#[test]
fn a_rollback_stopped_by_a_disk_fault_resumes_where_it_failed() {
    use harbor_common::fault::{Armed, FaultConfig, FaultPlan, PageFault};
    let dir = temp_dir("abort-resumes");
    // The table and page are not known until rows are in: build the plan
    // around the first data page of the first table, and check below.
    let first_page = {
        let probe = Engine::open(
            dir.join("probe"),
            EngineOptions::harbor(SiteId(1), StorageConfig::for_tests()),
        )
        .unwrap();
        let def = probe.create_table("t", fields()).unwrap();
        probe.begin(tid(1)).unwrap();
        let rid = probe.insert(tid(1), def.id, row(0)).unwrap();
        (def.id, rid.page.page_no)
    };
    let plan = std::sync::Arc::new(FaultPlan::new(FaultConfig::quiet(7)));
    let (table, page) = first_page;
    let fault = PageFault::ReadError;
    plan.arm(
        SiteId(1),
        Armed::Page {
            table,
            page,
            ordinal: 0,
            fault,
        },
    );
    let e = Engine::open(
        dir.join("site"),
        EngineOptions::harbor(SiteId(1), StorageConfig::for_tests()).with_faults(plan.clone()),
    )
    .unwrap();
    let def = e.create_table("t", fields()).unwrap();
    assert_eq!(def.id, first_page.0);
    // One transaction inserts until its rows span two pages: the rollback
    // undoes the second page's first, then comes back to the first page.
    let t = tid(2);
    e.begin(t).unwrap();
    let mut pages = Vec::new();
    let mut id = 0;
    while pages.len() < 2 {
        let rid = e.insert(t, def.id, row(id)).unwrap();
        if pages.last() != Some(&rid.page.page_no) {
            pages.push(rid.page.page_no);
        }
        id += 1;
    }
    assert_eq!(pages[0], first_page.1);
    // Cache gone cold: the rollback has to read both pages back, and the
    // first read of the first page fails.
    e.pool().flush_all().unwrap();
    let heap = e.pool().table(def.id).unwrap();
    e.pool().deregister_table(def.id);
    e.pool().register_table(heap);
    plan.set_enabled(true);
    let first = e.abort(t, StepLogging::OFF);
    assert!(first.is_err(), "the injected read error stops the rollback");
    assert_eq!(plan.page_faults_injected(), 1);
    assert!(
        e.txn_status(t).is_some(),
        "still open: nothing is forgotten"
    );
    e.abort(t, StepLogging::OFF)
        .expect("the retry resumes with the tuples that are left");
    assert!(e.txn_status(t).is_none());
    assert_eq!(e.locks().held_count(), 0);
    let mut left = 0;
    for pid in e.pool().table(def.id).unwrap().all_page_ids() {
        e.pool()
            .with_page(None, pid, |page| {
                left += page.occupied_slots().count();
                Ok(())
            })
            .unwrap();
    }
    assert_eq!(left, 0, "every inserted row is gone");
    let _ = std::fs::remove_dir_all(&dir);
}
