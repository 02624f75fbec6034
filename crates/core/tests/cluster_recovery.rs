//! End-to-end cluster tests: distributed transactions under all four commit
//! protocols, crash + HARBOR recovery, crash + ARIES recovery, and recovery
//! concurrent with update traffic (the Fig 6-7 scenario in miniature).

use harbor::{Cluster, ClusterConfig, TransportKind};
use harbor_common::{SiteId, Timestamp, Value};
use harbor_dist::{ProtocolKind, UpdateRequest};
use harbor_exec::Expr;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-cluster-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(id: i64, v: i32) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(v)]
}

fn ids_of(rows: &[harbor_common::Tuple]) -> Vec<i64> {
    let mut v: Vec<i64> = rows.iter().map(|t| t.get(2).as_i64().unwrap()).collect();
    v.sort();
    v
}

#[test]
fn insert_transactions_commit_under_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let dir = temp_dir(&format!("all-protocols-{protocol:?}"));
        let cluster = Cluster::build(&dir, ClusterConfig::for_tests(protocol)).unwrap();
        for i in 0..10 {
            cluster.insert_one("sales", row(i, i as i32 * 10)).unwrap();
        }
        let rows = cluster.read_latest("sales").unwrap();
        assert_eq!(rows.len(), 10, "{protocol:?}");
        assert_eq!(ids_of(&rows), (0..10).collect::<Vec<i64>>());
        // Both replicas hold the data.
        for site in cluster.worker_sites() {
            let e = cluster.engine(site).unwrap();
            let def = e.table_def("sales").unwrap();
            let hits = e.index(def.id).unwrap().lookup(e.pool(), 5).unwrap();
            assert_eq!(hits.len(), 1, "{protocol:?} at {site}");
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn deletes_and_updates_replicate() {
    let dir = temp_dir("dml");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    for i in 0..6 {
        cluster.insert_one("sales", row(i, 1)).unwrap();
    }
    // Delete ids >= 4 (stored tuple: key is column 2).
    cluster
        .run_txn(vec![UpdateRequest::DeleteWhere {
            table: "sales".into(),
            pred: Expr::col(2).ge(Expr::lit(4i64)),
        }])
        .unwrap();
    // Update id 2 by key.
    let t_update = cluster
        .run_txn(vec![UpdateRequest::UpdateByKey {
            table: "sales".into(),
            key: 2,
            set: vec![(1, Value::Int32(99))],
        }])
        .unwrap();
    let rows = cluster.read_latest("sales").unwrap();
    assert_eq!(ids_of(&rows), vec![0, 1, 2, 3]);
    let two: Vec<_> = rows
        .iter()
        .filter(|t| t.get(2).as_i64().unwrap() == 2)
        .collect();
    assert_eq!(two[0].get(3), Value::Int32(99));
    // Time travel: before the update, id 2 still has v = 1.
    let before = cluster.read_historical("sales", t_update.prev()).unwrap();
    let two: Vec<_> = before
        .iter()
        .filter(|t| t.get(2).as_i64().unwrap() == 2)
        .collect();
    assert_eq!(two[0].get(3), Value::Int32(1));
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_no_vote_aborts_the_transaction_everywhere() {
    for protocol in [ProtocolKind::Trad2pc, ProtocolKind::Opt3pc] {
        let dir = temp_dir(&format!("abort-{protocol:?}"));
        let cluster = Cluster::build(&dir, ClusterConfig::for_tests(protocol)).unwrap();
        cluster.insert_one("sales", row(1, 1)).unwrap();
        // Poison the transaction at one worker: it votes NO.
        let tid = cluster.coordinator().begin().unwrap();
        cluster
            .coordinator()
            .update(
                tid,
                UpdateRequest::Insert {
                    table: "sales".into(),
                    values: row(2, 2),
                },
            )
            .unwrap();
        let victim = cluster.worker_sites()[0];
        cluster.engine(victim).unwrap().poison(tid);
        assert!(cluster.coordinator().commit(tid).is_err());
        // The poisoned insert is nowhere.
        let rows = cluster.read_latest("sales").unwrap();
        assert_eq!(ids_of(&rows), vec![1], "{protocol:?}");
        for site in cluster.worker_sites() {
            let e = cluster.engine(site).unwrap();
            let def = e.table_def("sales").unwrap();
            assert!(e
                .index(def.id)
                .unwrap()
                .lookup(e.pool(), 2)
                .unwrap()
                .is_empty());
            assert_eq!(e.locks().held_count(), 0, "locks leaked at {site}");
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn harbor_recovery_after_quiesced_inserts() {
    let dir = temp_dir("harbor-quiesced");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    // Phase A: inserts reach both workers, then checkpoint everywhere.
    for i in 0..20 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    // Phase B: more inserts, a delete, and an update — none checkpointed.
    for i in 20..35 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    cluster
        .run_txn(vec![UpdateRequest::DeleteWhere {
            table: "sales".into(),
            pred: Expr::col(2).eq(Expr::lit(3i64)),
        }])
        .unwrap();
    cluster
        .run_txn(vec![UpdateRequest::UpdateByKey {
            table: "sales".into(),
            key: 7,
            set: vec![(1, Value::Int32(777))],
        }])
        .unwrap();
    let expect = cluster.read_latest("sales").unwrap();
    // Crash worker 1 and recover it from worker 2.
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    // The cluster still serves reads and writes while the site is down.
    cluster.insert_one("sales", row(100, 100)).unwrap();
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(report.tuples_copied() > 0);
    // The recovered site answers queries identically to the survivor.
    let now = cluster.coordinator().authority().now().prev();
    for site in cluster.worker_sites() {
        let e = cluster.engine(site).unwrap();
        let def = e.table_def("sales").unwrap();
        let mut scan = harbor_exec::SeqScan::new(
            e.pool().clone(),
            def.id,
            harbor_exec::ReadMode::Historical(now),
        )
        .unwrap();
        let rows = harbor_exec::collect(&mut scan).unwrap();
        let mut ids = ids_of(&rows);
        ids.sort();
        let mut expect_ids = ids_of(&expect);
        expect_ids.push(100);
        expect_ids.sort();
        assert_eq!(ids, expect_ids, "site {site}");
        // The update and delete replicated.
        let seven: Vec<_> = rows
            .iter()
            .filter(|t| t.get(2).as_i64().unwrap() == 7)
            .collect();
        assert_eq!(seven[0].get(3), Value::Int32(777), "site {site}");
        assert!(!ids.contains(&3), "site {site}");
    }
    // New transactions include the recovered site again.
    cluster.insert_one("sales", row(101, 101)).unwrap();
    let e = cluster.engine(victim).unwrap();
    let def = e.table_def("sales").unwrap();
    assert_eq!(
        e.index(def.id)
            .unwrap()
            .lookup(e.pool(), 101)
            .unwrap()
            .len(),
        1
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aries_recovery_after_quiesced_inserts() {
    let dir = temp_dir("aries-quiesced");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Trad2pc)).unwrap();
    for i in 0..25 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    let victim = SiteId(1);
    // Make sure the log is durable (commit records are forced under
    // trad-2PC) and crash before any page flush.
    cluster.crash_worker(victim).unwrap();
    let report = cluster.recover_worker_aries(victim).unwrap();
    assert!(report.redone > 0);
    let e = cluster.engine(victim).unwrap();
    let def = e.table_def("sales").unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        e.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(Timestamp(1000)),
    )
    .unwrap();
    let rows = harbor_exec::collect(&mut scan).unwrap();
    assert_eq!(rows.len(), 25);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_during_live_insert_traffic() {
    let dir = temp_dir("live-traffic");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.checkpoint_every = Some(std::time::Duration::from_millis(100));
    let cluster = std::sync::Arc::new(Cluster::build(&dir, cfg).unwrap());
    for i in 0..30 {
        cluster.insert_one("sales", row(i, 0)).unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    // Background inserts keep running while the site recovers.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let cluster = cluster.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i: i64 = 1_000;
            let mut committed = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if cluster.insert_one("sales", row(i, 0)).is_ok() {
                    committed.push(i);
                }
                i += 1;
            }
            committed
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    let report = cluster.recover_worker_harbor(victim).unwrap();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let committed = writer.join().unwrap();
    assert!(report.tuples_copied() > 0);
    assert!(
        !committed.is_empty(),
        "writer made progress during recovery"
    );
    // Drain: one more insert after recovery.
    cluster.insert_one("sales", row(9_999, 0)).unwrap();
    // The recovered replica agrees with the survivor on all committed ids.
    let now = cluster.coordinator().authority().now().prev();
    let mut per_site: Vec<Vec<i64>> = Vec::new();
    for site in cluster.worker_sites() {
        let e = cluster.engine(site).unwrap();
        let def = e.table_def("sales").unwrap();
        let mut scan = harbor_exec::SeqScan::new(
            e.pool().clone(),
            def.id,
            harbor_exec::ReadMode::Historical(now),
        )
        .unwrap();
        per_site.push(ids_of(&harbor_exec::collect(&mut scan).unwrap()));
    }
    assert_eq!(per_site[0], per_site[1], "replicas diverged");
    for id in &committed {
        assert!(per_site[0].contains(id), "lost committed insert {id}");
    }
    assert!(per_site[0].contains(&9_999));
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clusters_run_over_real_tcp() {
    let dir = temp_dir("tcp");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.transport = TransportKind::Tcp;
    let cluster = Cluster::build(&dir, cfg).unwrap();
    for i in 0..5 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    assert_eq!(cluster.read_latest("sales").unwrap().len(), 5);
    let victim = SiteId(2);
    cluster.crash_worker(victim).unwrap();
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(report.tuples_copied() >= 5);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn current_reads_take_locks_and_see_latest_data() {
    let dir = temp_dir("current-reads");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    for i in 0..5 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    let coordinator = cluster.coordinator();
    // A read-only transaction sees the latest committed state under locks.
    let reader = coordinator.begin().unwrap();
    let rows = coordinator.read_current(reader, "sales", |_| {}).unwrap();
    assert_eq!(rows.len(), 5);
    // While the reader holds its locks, a writer's commit cannot apply on
    // the same pages: the insert transaction times out and aborts.
    let blocked = cluster.insert_one("sales", row(100, 0));
    assert!(blocked.is_err(), "writer should block behind read locks");
    // Releasing the reader (abort = release, §4.3) unblocks writers.
    coordinator.abort(reader).unwrap();
    cluster.insert_one("sales", row(101, 0)).unwrap();
    assert_eq!(cluster.read_latest("sales").unwrap().len(), 6);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_transactions_skip_commit_protocol_messages() {
    let dir = temp_dir("ro-cheap");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Trad2pc)).unwrap();
    cluster.insert_one("sales", row(1, 1)).unwrap();
    let coordinator = cluster.coordinator();
    let reader = coordinator.begin().unwrap();
    let _ = coordinator.read_current(reader, "sales", |_| {}).unwrap();
    // "For read transactions, the coordinator merely needs to notify the
    // workers to release any system resources and locks" (§4.3): no
    // forced writes happen at commit of a read-only transaction.
    let before = cluster.worker_metrics(SiteId(1)).unwrap().snapshot();
    coordinator.abort(reader).unwrap();
    let after = cluster.worker_metrics(SiteId(1)).unwrap().snapshot();
    assert_eq!(after.since(&before).forced_writes, 0);
    // Locks were released at both replicas.
    for site in cluster.worker_sites() {
        assert_eq!(cluster.engine(site).unwrap().locks().held_count(), 0);
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn historical_reads_do_not_block_behind_writers() {
    let dir = temp_dir("lock-free-reads");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    for i in 0..5 {
        cluster.insert_one("sales", row(i, 0)).unwrap();
    }
    let snapshot = cluster.coordinator().authority().now().prev();
    // A pending writer holds exclusive page locks on both replicas.
    let writer = cluster.coordinator().begin().unwrap();
    cluster
        .coordinator()
        .update(
            writer,
            UpdateRequest::Insert {
                table: "sales".into(),
                values: row(99, 0),
            },
        )
        .unwrap();
    // Historical reads sail past the locks (§3.3): time-bounded check.
    let t0 = std::time::Instant::now();
    let rows = cluster.read_historical("sales", snapshot).unwrap();
    assert_eq!(rows.len(), 5);
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(100),
        "historical read appears to have waited on locks"
    );
    cluster.coordinator().abort(writer).unwrap();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
