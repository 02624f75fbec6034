//! Table 4.1 — action table for the backup coordinator (§4.3.3), driven
//! end-to-end: a coordinator is crashed at each interesting point of the
//! optimized 3PC protocol and a worker resolves the transaction with the
//! consensus-building protocol. The final replicated state is verified to
//! match the action the table prescribes.

use harbor::{Cluster, ClusterConfig, TableSpec, TransportKind};
use harbor_bench::{experiment_dir, print_table};
use harbor_common::Timestamp;
use harbor_common::{SiteId, StorageConfig, Value};
use harbor_dist::{
    backup_action, BackupAction, CrashPoint, ProtocolKind, UpdateRequest, WireTxnState,
};

/// Runs one coordinator-crash scenario; returns (backup state observed,
/// action taken, rows visible afterwards).
fn scenario(name: &str, fail: Option<CrashPoint>) -> (WireTxnState, BackupAction, usize) {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
    cfg.storage = StorageConfig::for_tests();
    cfg.transport = TransportKind::InMem {
        latency: None,
        bandwidth: None,
    };
    cfg.tables = vec![TableSpec::small("t")];
    let cluster = Cluster::build(experiment_dir(&format!("table4_1-{name}")), cfg).unwrap();
    // A committed baseline row so scans have a stable reference.
    cluster
        .insert_one("t", vec![Value::Int64(0), Value::Int32(0)])
        .unwrap();
    let coordinator = cluster.coordinator();
    let tid = coordinator.begin().unwrap();
    coordinator
        .update(
            tid,
            UpdateRequest::Insert {
                table: "t".into(),
                values: vec![Value::Int64(1), Value::Int32(1)],
            },
        )
        .unwrap();
    let commit_result = match fail {
        // "Pending" scenario: crash before commit processing begins.
        None => {
            coordinator.crash();
            Err(harbor_common::DbError::SiteDown("crashed".into()))
        }
        Some(point) => {
            cluster.arm_crash(coordinator.site(), point);
            coordinator.commit(tid)
        }
    };
    assert!(commit_result.is_err(), "{name}: coordinator was crashed");
    // Give the workers' disconnect detection a moment.
    std::thread::sleep(std::time::Duration::from_millis(150));
    // The backup is the lowest live participant: worker 1.
    let backup = cluster.worker(SiteId(1)).unwrap();
    let state = backup.backup_state(tid);
    let action = backup_action(state);
    backup.resolve_by_consensus(tid).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    // Count surviving rows on both replicas directly (coordinator is dead).
    let mut rows = usize::MAX;
    for site in cluster.worker_sites() {
        let e = cluster.engine(site).unwrap();
        let def = e.table_def("t").unwrap();
        let mut scan = harbor_exec::SeqScan::new(
            e.pool().clone(),
            def.id,
            harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
        )
        .unwrap();
        let n = harbor_exec::collect(&mut scan).unwrap().len();
        assert!(
            rows == usize::MAX || rows == n,
            "{name}: replicas disagree after consensus"
        );
        rows = n;
        assert_eq!(e.locks().held_count(), 0, "{name}: locks leaked at {site}");
    }
    cluster.shutdown();
    (state, action, rows)
}

fn main() {
    let mut rows = Vec::new();
    // Pending: coordinator dies before PREPARE → abort. The worker's
    // failure detection applies the abort the moment it sees the dropped
    // connection (§4.3.2), so by observation time the state is Aborted.
    let (st, action, n) = scenario("pending", None);
    assert!(matches!(st, WireTxnState::Pending | WireTxnState::Aborted));
    assert_eq!(action, BackupAction::Abort);
    assert_eq!(n, 1, "pending transaction rolled back");
    rows.push(vec![
        "pending".into(),
        format!("{action:?}"),
        "abort".into(),
        "aborted".into(),
    ]);
    // Prepared, voted YES: coordinator dies after PREPARE → prepare, abort.
    let (st, action, n) = scenario("prepared-yes", Some(CrashPoint::CoordAfterPrepare));
    assert!(matches!(st, WireTxnState::PreparedVotedYes));
    assert_eq!(action, BackupAction::PrepareThenAbort);
    assert_eq!(n, 1);
    rows.push(vec![
        "prepared, voted YES".into(),
        format!("{action:?}"),
        "prepare, then abort".into(),
        "aborted".into(),
    ]);
    // Prepared-to-commit: dies mid-PTC → replay last two phases, commit.
    let (st, action, n) = scenario("ptc", Some(CrashPoint::CoordAfterPtcSent(1)));
    assert!(matches!(st, WireTxnState::PreparedToCommit(_)));
    assert!(matches!(action, BackupAction::PrepareToCommitThenCommit(_)));
    assert_eq!(n, 2, "transaction committed everywhere");
    rows.push(vec![
        "prepared-to-commit".into(),
        format!("{action:?}"),
        "prepare-to-commit, then commit".into(),
        "committed".into(),
    ]);
    // Committed at backup: dies mid-COMMIT fan-out → commit.
    let (st, action, n) = scenario("committed", Some(CrashPoint::CoordAfterCommitSent(1)));
    assert!(matches!(st, WireTxnState::Committed(_)));
    assert!(matches!(action, BackupAction::Commit(_)));
    assert_eq!(n, 2);
    rows.push(vec![
        "committed".into(),
        format!("{action:?}"),
        "commit".into(),
        "committed".into(),
    ]);
    // The two pure-function rows not reachable by fail points.
    assert_eq!(
        backup_action(WireTxnState::PreparedVotedNo),
        BackupAction::Abort
    );
    assert_eq!(backup_action(WireTxnState::Aborted), BackupAction::Abort);
    rows.push(vec![
        "prepared, voted NO".into(),
        "Abort".into(),
        "abort".into(),
        "aborted".into(),
    ]);
    rows.push(vec![
        "aborted".into(),
        "Abort".into(),
        "abort".into(),
        "aborted".into(),
    ]);
    print_table(
        "Table 4.1: backup coordinator actions (driven end-to-end)",
        &[
            "backup state",
            "action taken",
            "paper action",
            "final outcome",
        ],
        &rows,
    );
}
