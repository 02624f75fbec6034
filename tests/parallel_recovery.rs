//! Phase 2 over several buddies (§4.2 ranges + §5.5 failover):
//!
//! * a recovery buddy dies and its range is re-dealt to a surviving
//!   alternate without restarting recovery;
//! * a buddy that answers its ranged scan with an error that is not its
//!   death fails the recovery promptly instead of stranding the fetchers;
//! * the recovering site dies after Phase 2 and the retry resumes from
//!   the per-object checkpoint;
//! * the recovered site's version history equals the surviving replicas',
//!   including under concurrent update load.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::{SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{CrashPoint, ProtocolKind};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-parallel-recovery-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three workers, everything replicated, one page per segment so modest
/// fills span many segments (and thus many Phase-2 ranges).
fn three_worker_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.storage.segment_pages = 1;
    cfg.tables = vec![TableSpec::small("sales")];
    cfg
}

fn row(id: i64, v: i32) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(v)]
}

fn fill(cluster: &Cluster, from: i64, to: i64) {
    for id in from..to {
        cluster.insert_one("sales", row(id, id as i32)).unwrap();
    }
}

fn count_at(cluster: &Cluster, site: SiteId) -> usize {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let now = cluster.coordinator().authority().now().prev();
    let mut scan = harbor_exec::SeqScan::new(
        e.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(now),
    )
    .unwrap();
    harbor_exec::collect(&mut scan).unwrap().len()
}

/// Every version a site holds, committed or deleted, as
/// `(id, v, insert_ts, delete_ts)` sorted — the strictest equivalence
/// two replicas can have short of physical page layout.
fn versions_at(cluster: &Cluster, site: SiteId) -> Vec<(i64, i64, u64, u64)> {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let mut scan =
        harbor_exec::SeqScan::new(e.pool().clone(), def.id, harbor_exec::ReadMode::SeeDeleted)
            .unwrap();
    let mut out: Vec<(i64, i64, u64, u64)> = harbor_exec::collect(&mut scan)
        .unwrap()
        .iter()
        .map(|t| {
            (
                t.get(2).as_i64().unwrap(),
                t.get(3).as_i64().unwrap(),
                t.get(0).as_time().unwrap().0,
                t.get(1).as_time().unwrap().0,
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// A buddy whose server dies *mid-Phase-2* (its placement entry still
/// lists it as live) must have its unfetched ranges handed to the
/// surviving alternate replica (§5.5.2) rather than failing recovery.
#[test]
fn buddy_death_mid_phase2_reassigns_ranges() {
    let dir = temp_dir("buddy-death");
    let cluster = Cluster::build(&dir, three_worker_config()).unwrap();
    fill(&cluster, 0, 50);
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    // Enough catch-up volume to span several one-page segments, so the
    // ranged Phase 2 derives multiple per-segment recovery queries.
    fill(&cluster, 50, 500);
    // Kill the primary buddy's server without declaring it down: the
    // recovery plan still offers SiteId(2) first, so Phase 2 must detect
    // the disconnect and re-deal its range to SiteId(3).
    let buddy = SiteId(2);
    cluster.worker(buddy).unwrap().crash();
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(
        report.ranges_fetched() >= 2,
        "expected multiple Phase-2 ranges, got {}",
        report.ranges_fetched()
    );
    assert!(
        report.ranges_reassigned() >= 1,
        "the dead buddy's range was never reassigned"
    );
    assert_eq!(count_at(&cluster, victim), 500);
    assert_eq!(
        versions_at(&cluster, victim),
        versions_at(&cluster, SiteId(3)),
        "victim diverged from the alternate that served its recovery"
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A buddy that answers its ranged scan with an error that is not its own
/// death — here every page read at site 3 fails, which crosses the wire as
/// `Response::Err` — is not failed over: recovery returns that error as
/// soon as the other fetcher's share is in, the victim stays crashed, and
/// a later attempt succeeds. (A work queue once left the other fetchers
/// polling for the range that error took with it, for ever.)
#[test]
fn buddy_error_mid_phase2_fails_recovery_promptly() {
    let dir = temp_dir("buddy-error");
    let mut cfg = three_worker_config();
    // A pool far smaller than the table: site 3 must go to disk to serve
    // its share of the catch-up.
    cfg.storage.buffer_pool_pages = 2;
    cfg.disk_faults = Some(harbor_storage::DiskFaultConfig {
        read_error_per_mille: 1000,
        ..Default::default()
    });
    let cluster = std::sync::Arc::new(Cluster::build(&dir, cfg).unwrap());
    fill(&cluster, 0, 50);
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 50, 1250);
    let site3_disk = cluster.disk_fault_plan(SiteId(3)).unwrap();
    site3_disk.set_enabled(true);
    let (done, outcome) = std::sync::mpsc::channel();
    let recovering = cluster.clone();
    std::thread::spawn(move || done.send(recovering.recover_worker_harbor(victim)));
    let err = outcome
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("recovery neither finished nor failed: fetchers stranded")
        .expect_err("site 3 cannot read its disk");
    assert!(
        matches!(&err, harbor_common::DbError::Protocol(m) if m.contains("io error")),
        "{err}"
    );
    assert!(site3_disk.injected() > 0);
    assert!(cluster.is_crashed(victim));
    site3_disk.set_enabled(false);
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(report.ranges_fetched() >= 3, "deletions, then two shares");
    assert_eq!(count_at(&cluster, victim), 1250);
    assert_eq!(
        versions_at(&cluster, victim),
        versions_at(&cluster, SiteId(3))
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovering site dies right after the parallel Phase 2; the retry
/// must resume from the per-object checkpoint instead of re-copying.
#[test]
fn parallel_phase2_resumes_from_object_checkpoint() {
    let dir = temp_dir("parallel-resume");
    let cluster = Cluster::build(&dir, three_worker_config()).unwrap();
    fill(&cluster, 0, 40);
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    fill(&cluster, 40, 80);
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 80, 120);
    cluster.arm_crash(victim, CrashPoint::RecoveryAfterPhase2);
    let err = cluster.recover_worker_harbor(victim).unwrap_err();
    assert!(err.to_string().contains("injected"));
    assert!(cluster.is_crashed(victim));
    fill(&cluster, 120, 140);
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(
        report.objects[0].checkpoint > Timestamp(40),
        "resumed from the recovery-time object checkpoint"
    );
    assert!(
        report.tuples_copied() <= 30,
        "copied {} tuples; expected only the post-attempt-1 delta",
        report.tuples_copied()
    );
    assert_eq!(count_at(&cluster, victim), 140);
    assert_eq!(
        versions_at(&cluster, victim),
        versions_at(&cluster, SiteId(2))
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery must leave the victim with the same version history as the
/// replicas that served it, even with writers running throughout, and
/// with no locks leaked by the lock-free historical catch-up queries.
#[test]
fn recovery_matches_replicas_under_concurrent_load() {
    let dir = temp_dir("equivalence");
    let cluster = std::sync::Arc::new(Cluster::build(&dir, three_worker_config()).unwrap());
    fill(&cluster, 0, 60);
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 60, 200);
    // Historical updates while the victim is down: deletion pairs the
    // Phase-2 SELECT+UPDATE ranges must carry over.
    for k in 0..30 {
        cluster
            .run_txn(vec![harbor_workload::update_by_key_request(
                "sales",
                k,
                1_000 + k as i32,
            )])
            .unwrap();
    }
    // Writers stay busy during recovery itself (inserts and updates),
    // exercising Phase 3's forwarded-traffic handoff on top.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let cluster = cluster.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 1_000_000 + w * 100_000i64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let _ = cluster.insert_one("sales", row(i, 0));
                    let _ = cluster.run_txn(vec![harbor_workload::update_by_key_request(
                        "sales",
                        30 + (i % 30),
                        i as i32,
                    )]);
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let report = cluster.recover_worker_harbor(victim).unwrap();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    assert!(report.ranges_fetched() >= 1);
    // Strict version-history equivalence across all three replicas.
    let reference = versions_at(&cluster, victim);
    assert!(!reference.is_empty());
    for site in [SiteId(2), SiteId(3)] {
        assert_eq!(
            reference,
            versions_at(&cluster, site),
            "{site:?} diverged from the recovered victim"
        );
    }
    // The historical catch-up queries never lock (§5.3): nothing may
    // remain in any survivor's lock table after recovery.
    for site in [SiteId(2), SiteId(3)] {
        assert_eq!(
            cluster.engine(site).unwrap().locks().held_count(),
            0,
            "recovery leaked locks on {site:?}"
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
