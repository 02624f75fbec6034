//! Crash points armed on the cluster's fault plan:
//!
//! * a coordinator fail point armed for a transaction is consumed exactly
//!   once and cleared on *both* finish paths — commit and abort — so a
//!   leftover armed point can never kill an unrelated later transaction;
//! * the backup coordinator itself crashing mid-resolution hands the role
//!   to the next-ranked live participant, and the Table 4.1 outcome is
//!   unchanged (the cascading-backup case of §4.3.3);
//! * a buddy crashing *while serving* a Phase-2 recovery scan (§5.5) has
//!   its unfinished ranges reassigned to the surviving alternate.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::{SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{CrashPoint, ProtocolKind, UpdateRequest};
use harbor_front::FrontHandler;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-crash-schedule")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(workers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, workers);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    cfg
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

fn insert(id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: "t".into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

/// Wait until every listed replica holds `expect` rows with no locks held.
fn await_counts(cluster: &Cluster, sites: &[SiteId], expect: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counts: Vec<usize> = sites.iter().map(|s| count_at(cluster, *s)).collect();
        let locks_free = sites
            .iter()
            .all(|s| cluster.engine(*s).unwrap().locks().held_count() == 0);
        if counts.iter().all(|&c| c == expect) && locks_free {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: replicas did not converge; counts={counts:?} locks_free={locks_free}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// An armed coordinator fail point whose predicate never matches must be
/// cleared when the transaction commits — not left armed to assassinate
/// the next transaction that happens to send enough PTCs.
#[test]
fn armed_fail_point_cleared_on_commit() {
    let dir = temp_dir("clear-on-commit");
    let cluster = Cluster::build(&dir, config(2)).unwrap();
    let coordinator = cluster.coordinator();

    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    // With 2 workers the counter never reaches 99: the point stays armed
    // through the whole protocol and must be disarmed by finish().
    cluster.arm_crash(coordinator.site(), CrashPoint::CoordAfterPtcSent(99));
    coordinator.commit(tid).unwrap();
    assert!(
        cluster.faults().armed().is_empty(),
        "fail point survived a committed transaction: {:?}",
        cluster.faults().armed()
    );

    // The next transaction runs with no schedule interference.
    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(2)).unwrap();
    coordinator.commit(tid).unwrap();
    await_counts(&cluster, &cluster.worker_sites(), 2, "clear-on-commit");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the abort path: a fail point armed for a transaction
/// that is *aborted* before the point is ever probed must also be cleared.
/// Before the fix, `finish()` only disarmed on commit, so the leftover
/// `AfterPrepare` here would crash the coordinator inside the follow-up
/// transaction's commit.
#[test]
fn armed_fail_point_cleared_on_abort() {
    let dir = temp_dir("clear-on-abort");
    let cluster = Cluster::build(&dir, config(2)).unwrap();
    let coordinator = cluster.coordinator();

    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    cluster.arm_crash(coordinator.site(), CrashPoint::CoordAfterPrepare);
    // Abort without ever reaching PREPARE: the point is never consumed.
    coordinator.abort(tid).unwrap();
    assert!(
        cluster.faults().armed().is_empty(),
        "fail point survived an aborted transaction: {:?}",
        cluster.faults().armed()
    );

    // If the point had leaked, this commit would die at AfterPrepare.
    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(2)).unwrap();
    coordinator.commit(tid).unwrap();
    await_counts(&cluster, &cluster.worker_sites(), 1, "clear-on-abort");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the cascading-backup case: the coordinator crashes at `fail`,
/// the first-ranked backup (site 1) crashes mid-resolution, and the
/// next-ranked live participant (site 2) must take over and drive the
/// surviving replicas to the same Table 4.1 outcome (`expect_rows`).
fn cascading_backup(name: &str, fail: CrashPoint, expect_rows: usize) {
    let dir = temp_dir(name);
    let cluster = Cluster::build(&dir, config(3)).unwrap();
    let coordinator = cluster.coordinator();
    cluster
        .insert_one("t", vec![Value::Int64(0), Value::Int32(0)])
        .unwrap();

    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    cluster.arm_crash(coordinator.site(), fail);
    // The would-be backup dies partway through its own resolution: after
    // re-broadcasting the first phase of its Table 4.1 action but before
    // the outcome broadcast, leaving the transaction still unresolved.
    cluster.arm_crash(SiteId(1), CrashPoint::WorkerDuringConsensusResolve);
    assert!(
        coordinator.commit(tid).is_err(),
        "{name}: coordinator should have crashed at its fail point"
    );

    // Site 1 is lowest-ranked live, elects itself backup, and dies at the
    // armed point — its resolution attempt must surface the crash.
    let first = cluster.worker(SiteId(1)).unwrap();
    assert!(
        first.resolve_by_consensus(tid).is_err(),
        "{name}: backup should have crashed mid-resolution"
    );
    assert_eq!(
        cluster.reap_scheduled_crashes(),
        vec![SiteId(1)],
        "{name}: the fired crash point should have fail-stopped site 1"
    );

    // Site 2 is now the lowest-ranked *live* participant: its election ping
    // to site 1 fails on the closed listener, it takes over as backup, and
    // its own 3PC state decides the outcome — the same one site 1's state
    // implied, because 3PC keeps all participants within one transition.
    let second = cluster.worker(SiteId(2)).unwrap();
    assert!(
        second.resolve_by_consensus(tid).unwrap(),
        "{name}: next-ranked site did not act as backup"
    );
    await_counts(&cluster, &[SiteId(2), SiteId(3)], expect_rows, name);
    assert!(cluster.faults().armed().is_empty());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Coordinator dies after all PTCs: every survivor is prepared-to-commit,
/// so both the first and the cascading backup must drive a COMMIT.
#[test]
fn backup_crash_mid_resolution_still_commits() {
    cascading_backup(
        "cascade-commit",
        CrashPoint::CoordAfterPtcSent(3),
        2, // baseline row + committed insert
    );
}

/// Coordinator dies right after PREPARE: survivors are prepared-yes, so
/// the action is prepare-then-abort — and stays ABORT across the takeover.
#[test]
fn backup_crash_mid_resolution_still_aborts() {
    cascading_backup(
        "cascade-abort",
        CrashPoint::CoordAfterPrepare,
        1, // baseline row only
    );
}

/// `WorkerDuringPrepareVote` on a PREPARE that rides the last statement: the
/// second site executes the statement and dies producing its vote. The
/// first has voted YES by then and the third has not seen the transaction;
/// the coordinator sees a dead participant where a vote was due (§4.3.2: a
/// NO), aborts, and nothing of the transaction is left anywhere.
#[test]
fn worker_crash_during_a_riding_prepare_vote_aborts_everywhere() {
    let dir = temp_dir("riding-vote-crash");
    let cluster = Cluster::build(&dir, config(3)).unwrap();
    let coordinator = cluster.coordinator();
    cluster
        .insert_one("t", vec![Value::Int64(0), Value::Int32(0)])
        .unwrap();
    cluster.arm_crash(SiteId(2), CrashPoint::WorkerDuringPrepareVote);
    let patience = Instant::now() + Duration::from_secs(60);
    let err = coordinator.execute(vec![insert(1)], patience).unwrap_err();
    assert!(
        matches!(err, harbor_common::DbError::TransactionAborted(_)),
        "{err}"
    );
    assert_eq!(cluster.reap_scheduled_crashes(), vec![SiteId(2)]);
    assert!(coordinator.is_dead(SiteId(2)));
    assert_eq!(coordinator.inflight_txns(), 0);
    let survivors = [SiteId(1), SiteId(3)];
    await_counts(&cluster, &survivors, 1, "riding-vote-crash");
    for site in survivors {
        let worker = cluster.worker(site).unwrap();
        assert!(worker.unresolved_dist_txns().is_empty(), "{site}");
        assert!(cluster.engine(site).unwrap().active_txns().is_empty());
    }
    // The dead site comes back without the row it executed but never voted
    // on, and the next transaction reaches all three.
    cluster.recover_worker_harbor(SiteId(2)).unwrap();
    coordinator.execute(vec![insert(2)], patience).unwrap();
    await_counts(&cluster, &cluster.worker_sites(), 2, "riding-vote-crash");
    assert!(cluster.faults().armed().is_empty());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// §5.5 buddy death via the schedule: the primary buddy crashes *while
/// serving* a Phase-2 historical scan (mid-stream, not pre-killed), and
/// the recovering site must reassign the unfinished ranges to the
/// surviving alternate and still converge.
#[test]
fn buddy_crash_mid_phase2_scan_reassigns() {
    let dir = temp_dir("phase2-scan-crash");
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.storage.segment_pages = 1; // many segments => many Phase-2 ranges
    cfg.tables = vec![TableSpec::small("t")];
    let cluster = Cluster::build(&dir, cfg).unwrap();

    for id in 0..50 {
        cluster
            .insert_one("t", vec![Value::Int64(id), Value::Int32(id as i32)])
            .unwrap();
    }
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    for id in 50..300 {
        cluster
            .insert_one("t", vec![Value::Int64(id), Value::Int32(id as i32)])
            .unwrap();
    }

    // The first buddy to serve a Phase-2 catch-up scan dies mid-stream.
    cluster.arm_crash(SiteId(2), CrashPoint::WorkerServingPhase2Scan);
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(
        report.ranges_reassigned() >= 1,
        "the dead buddy's range was never re-dealt"
    );
    assert_eq!(count_at(&cluster, victim), 300);
    // The crash point fires after a batch is on the wire, so part of the
    // range had been applied when the stream broke: a row left behind or
    // copied twice by the re-deal shows here.
    assert_eq!(
        cluster.version_history("t", victim).unwrap(),
        cluster.version_history("t", SiteId(3)).unwrap(),
        "victim diverged from the alternate that finished serving it"
    );

    // It died inside its insert stream, not on the empty deletion answer
    // that went before it: rows of the range it was shipping are out.
    let shipped = cluster.worker_metrics(SiteId(2)).unwrap().snapshot();
    assert!(
        shipped.recovery_tuples_shipped > 0,
        "the crash point fired before an inserted row was shipped"
    );

    // The fired buddy fail-stopped; bring it back and verify it converges
    // to the same state as the replica that finished serving recovery.
    let reaped = cluster.reap_scheduled_crashes();
    assert_eq!(reaped, vec![SiteId(2)], "scan crash point never fired");
    cluster.recover_worker_harbor(SiteId(2)).unwrap();
    assert_eq!(count_at(&cluster, SiteId(2)), 300);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
