//! Automatic non-blocking termination under 3PC (§4.3.3): with
//! `auto_consensus` on, a worker that sees the coordinator's connection die
//! mid-commit elects the backup and drives the transaction to a consistent
//! outcome with *no external intervention* — the property that lets
//! optimized 3PC run without any coordinator log.
//!
//! The coordinator's sessions to the workers outlive transactions, so each
//! scenario also holds a crash to closing *every* session: the ones leased
//! to the in-doubt transaction (that is what the workers detect) and the
//! ones idling in the pool.

use harbor::{Cluster, ClusterConfig, TableSpec, TransportKind};
use harbor_common::{SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{CrashPoint, ProtocolKind, UpdateRequest};
use harbor_front::FrontHandler;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-auto-consensus")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn count_at(cluster: &Cluster, site: SiteId) -> usize {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("t").unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        e.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
    )
    .unwrap();
    harbor_exec::collect(&mut scan).unwrap().len()
}

/// `through_handler`: the in-doubt transaction runs as the front door runs
/// it, whole, so its PREPARE rides its one statement and the votes are in
/// when `commit` starts — the coordinator's fail points are where they were.
fn scenario(name: &str, fail: CrashPoint, expect_rows: usize, through_handler: bool) {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
    cfg.storage = StorageConfig::for_tests();
    cfg.transport = TransportKind::InMem {
        latency: None,
        bandwidth: None,
    };
    cfg.tables = vec![TableSpec::small("t"), TableSpec::small("u")];
    cfg.auto_consensus = true;
    let cluster = Cluster::build(temp_dir(name), cfg).unwrap();
    let coordinator = cluster.coordinator();
    // Two transactions open at once (on tables of their own, so neither
    // waits for the other's locks) leave two sessions per site behind. The
    // in-doubt transaction below leases one; the other stays idle.
    let row0 = |table: &str| UpdateRequest::Insert {
        table: table.into(),
        values: vec![Value::Int64(0), Value::Int32(0)],
    };
    let (t1, t2) = (coordinator.begin().unwrap(), coordinator.begin().unwrap());
    coordinator.update(t1, row0("t")).unwrap();
    coordinator.update(t2, row0("u")).unwrap();
    coordinator.commit(t1).unwrap();
    coordinator.commit(t2).unwrap();
    let row1 = UpdateRequest::Insert {
        table: "t".into(),
        values: vec![Value::Int64(1), Value::Int32(1)],
    };
    if through_handler {
        cluster.arm_crash(coordinator.site(), fail);
        let patience = Instant::now() + Duration::from_secs(60);
        let died = coordinator.execute(vec![row1], patience);
        assert!(died.is_err(), "{name}: coordinator died");
    } else {
        let tid = coordinator.begin().unwrap();
        coordinator.update(tid, row1).unwrap();
        for site in cluster.worker_sites() {
            assert_eq!(coordinator.idle_sessions(site), 1, "{name}: {site}");
        }
        cluster.arm_crash(coordinator.site(), fail);
        assert!(coordinator.commit(tid).is_err(), "{name}: coordinator died");
    }
    for site in cluster.worker_sites() {
        assert_eq!(coordinator.idle_sessions(site), 0, "{name}: {site}");
    }
    assert!(
        coordinator.begin().is_err(),
        "{name}: a crashed coordinator"
    );
    // No manual resolution: the workers' disconnect detection elects the
    // backup and finishes the transaction. Poll until both replicas agree
    // on the expected outcome.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counts: Vec<usize> = cluster
            .worker_sites()
            .iter()
            .map(|s| count_at(&cluster, *s))
            .collect();
        let locks_free = cluster
            .worker_sites()
            .iter()
            .all(|s| cluster.engine(*s).unwrap().locks().held_count() == 0);
        if counts.iter().all(|&c| c == expect_rows) && locks_free {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{name}: consensus did not converge; counts={counts:?} locks_free={locks_free}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

#[test]
fn crash_after_prepare_auto_aborts() {
    scenario("after-prepare", CrashPoint::CoordAfterPrepare, 1, false);
}

#[test]
fn crash_mid_prepare_to_commit_auto_commits() {
    // One worker reached prepared-to-commit: the backup replays the last
    // two phases and the transaction commits everywhere.
    scenario("mid-ptc", CrashPoint::CoordAfterPtcSent(1), 2, false);
}

#[test]
fn crash_mid_commit_fanout_auto_commits() {
    scenario("mid-commit", CrashPoint::CoordAfterCommitSent(1), 2, false);
}

/// The same two rows of Table 4.1 when the PREPARE rode the statement: with
/// every vote in and the coordinator gone the backup finds everyone
/// prepared-YES and aborts; one PREPARE-TO-COMMIT out, and it commits.
#[test]
fn crash_after_a_riding_prepare_auto_aborts() {
    scenario(
        "riding-after-prepare",
        CrashPoint::CoordAfterPrepare,
        1,
        true,
    );
}

#[test]
fn crash_mid_prepare_to_commit_after_a_riding_prepare_auto_commits() {
    scenario("riding-mid-ptc", CrashPoint::CoordAfterPtcSent(1), 2, true);
}
