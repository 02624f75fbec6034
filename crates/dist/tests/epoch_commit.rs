//! Epoch group commit (DESIGN.md "Epoch group commit"): batched PREPARE/COMMIT waves,
//! per-transaction failure isolation, and §4.3.3 per-transaction
//! consensus resolution after a mid-epoch coordinator crash.

use harbor_common::{FieldType, Metrics, SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{
    Coordinator, CoordinatorConfig, Copy, CrashPoint, EpochCommitConfig, Part, Placement,
    ProtocolKind, UpdateRequest, Worker, WorkerConfig,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{InMemNetwork, Transport};
use harbor_wal::GroupCommit;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Fixture {
    dir: PathBuf,
    coordinator: Arc<Coordinator>,
    workers: HashMap<SiteId, Arc<Worker>>,
    engines: HashMap<SiteId, Arc<Engine>>,
    metrics: Metrics,
    crash_schedule: Arc<harbor_dist::CrashSchedule>,
}

/// Builds an Opt2pc cluster with epoch commit enabled. `tables` maps each
/// table name to the sites holding a full copy.
fn build(
    name: &str,
    sites: &[u16],
    tables: &[(&str, &[u16])],
    epoch: EpochCommitConfig,
) -> Fixture {
    let dir = std::env::temp_dir()
        .join("harbor-epoch-commit")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
    let crash_schedule: Arc<harbor_dist::CrashSchedule> = Default::default();

    let peers: HashMap<SiteId, String> = sites
        .iter()
        .map(|s| (SiteId(*s), format!("epoch-{name}-site-{s}")))
        .collect();
    let mut placement = Placement::new();
    placement.set_coordinator_addr(&format!("epoch-{name}-coordinator"));
    for (site, addr) in &peers {
        placement.set_address(*site, addr);
    }
    for (table, holders) in tables {
        let copies = holders
            .iter()
            .map(|s| Copy {
                parts: vec![Part::full(SiteId(*s))],
            })
            .collect();
        placement.add_table(table, copies);
    }

    let mut workers = HashMap::new();
    let mut engines = HashMap::new();
    for s in sites {
        let site = SiteId(*s);
        let engine = Engine::open(
            dir.join(format!("site-{s}")),
            EngineOptions::harbor(site, StorageConfig::for_tests()),
        )
        .unwrap();
        for (table, holders) in tables {
            if holders.contains(s) {
                engine
                    .create_table(
                        table,
                        vec![
                            ("id".into(), FieldType::Int64),
                            ("v".into(), FieldType::Int32),
                        ],
                    )
                    .unwrap();
            }
        }
        let worker = Worker::start(
            engine.clone(),
            transport.clone(),
            WorkerConfig {
                site,
                addr: peers[&site].clone(),
                protocol: ProtocolKind::Opt2pc,
                checkpoint_every: None,
                peers: peers.clone(),
                coordinator: None,
                auto_consensus: false,
                crash_schedule: crash_schedule.clone(),
            },
        )
        .unwrap();
        workers.insert(site, worker);
        engines.insert(site, engine);
    }
    let metrics = Metrics::new();
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: format!("epoch-{name}-coordinator"),
            protocol: ProtocolKind::Opt2pc,
            log_dir: Some(dir.join("coordinator")),
            group_commit: GroupCommit::enabled(),
            disk: harbor_common::DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            crash_schedule: crash_schedule.clone(),
            epoch_commit: Some(epoch),
            degrade_read_only: false,
        },
        placement,
        transport,
        metrics.clone(),
    )
    .unwrap();
    Fixture {
        dir,
        coordinator,
        workers,
        engines,
        metrics,
        crash_schedule,
    }
}

impl Fixture {
    fn teardown(self) {
        self.coordinator.crash();
        for w in self.workers.values() {
            w.crash();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn insert(table: &str, id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: table.into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

fn count_at(engine: &Arc<Engine>, table: &str) -> usize {
    let def = engine.table_def(table).unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        engine.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
    )
    .unwrap();
    harbor_exec::collect(&mut scan).unwrap().len()
}

/// Runs `n` client threads; thread `i` commits one single-row insert into
/// table `t{i}` (disjoint tables: no lock conflicts between clients).
fn commit_concurrently(
    coordinator: &Arc<Coordinator>,
    n: i64,
) -> Vec<Result<Timestamp, harbor_common::DbError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = coordinator.clone();
                scope.spawn(move || -> Result<Timestamp, harbor_common::DbError> {
                    let tid = c.begin()?;
                    c.update(tid, insert(&format!("t{i}"), i))?;
                    c.commit(tid)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Eight concurrent commits with `max_txns = 8` form exactly one epoch:
/// one coordinator force covers all eight decision records, and the
/// epoch-size histogram lands in the 5–16 bucket.
#[test]
fn concurrent_commits_share_one_epoch() {
    let f = build(
        "one-epoch",
        &[1, 2],
        &[
            ("t0", &[1, 2]),
            ("t1", &[1, 2]),
            ("t2", &[1, 2]),
            ("t3", &[1, 2]),
            ("t4", &[1, 2]),
            ("t5", &[1, 2]),
            ("t6", &[1, 2]),
            ("t7", &[1, 2]),
        ],
        EpochCommitConfig {
            max_txns: 8,
            max_wait: Duration::from_secs(5),
            pipeline_depth: 2,
        },
    );
    let results = commit_concurrently(&f.coordinator, 8);
    for r in &results {
        r.as_ref().expect("every transaction should commit");
    }
    for site in [SiteId(1), SiteId(2)] {
        let rows: usize = (0..8)
            .map(|i| count_at(&f.engines[&site], &format!("t{i}")))
            .sum();
        assert_eq!(rows, 8, "replica {site} rows");
    }
    let snap = f.metrics.snapshot();
    assert_eq!(snap.epochs_committed, 1, "expected a single full epoch");
    assert_eq!(snap.epoch_txns, 8);
    assert_eq!(snap.epoch_size_5_16, 1);
    // One force for 8 decision records: 7 syncs saved at the coordinator.
    assert_eq!(snap.batched_syncs_saved, 7);
    assert_eq!(snap.commits, 8);
    f.teardown();
}

/// A worker that dies on receipt of the batched PREPARE dooms only the
/// transactions it participates in: the co-batched transaction on the
/// surviving worker still commits (no epoch-wide abort).
#[test]
fn worker_crash_during_batch_prepare_aborts_only_its_txns() {
    let f = build(
        "batch-prepare-crash",
        &[1, 2],
        // Disjoint placement: "a" lives only on site 1, "b" only on site 2.
        &[("a", &[1]), ("b", &[2])],
        EpochCommitConfig {
            max_txns: 2,
            max_wait: Duration::from_secs(5),
            pipeline_depth: 2,
        },
    );
    // Site 1 fail-stops while handling the batched PREPARE wave.
    f.crash_schedule
        .arm(SiteId(1), CrashPoint::WorkerDuringBatchPrepare);

    let results = std::thread::scope(|scope| {
        let ca = f.coordinator.clone();
        let a = scope.spawn(move || {
            let tid = ca.begin()?;
            ca.update(tid, insert("a", 1))?;
            ca.commit(tid)
        });
        let cb = f.coordinator.clone();
        let b = scope.spawn(move || {
            let tid = cb.begin()?;
            cb.update(tid, insert("b", 1))?;
            cb.commit(tid)
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(
        results.0.is_err(),
        "txn on the crashed worker must abort, got {:?}",
        results.0
    );
    results
        .1
        .as_ref()
        .expect("txn on the surviving worker must commit");
    assert_eq!(count_at(&f.engines[&SiteId(2)], "b"), 1);
    let snap = f.metrics.snapshot();
    assert_eq!(snap.commits, 1, "exactly one txn commits");
    f.teardown();
}

/// Coordinator crash between the epoch force and the COMMIT wave: every
/// transaction in the epoch is in doubt at the workers, and §4.3.3
/// consensus resolves each one *individually* — all replicas converge on
/// the same per-transaction outcome, with no phantom commit.
#[test]
fn coordinator_crash_after_epoch_force_resolves_per_txn() {
    let f = build(
        "epoch-force-crash",
        &[1, 2],
        &[("t0", &[1, 2]), ("t1", &[1, 2])],
        EpochCommitConfig {
            max_txns: 2,
            max_wait: Duration::from_secs(5),
            pipeline_depth: 2,
        },
    );
    f.crash_schedule
        .arm(SiteId(0), CrashPoint::CoordAfterEpochForce);

    // Clients record their txn ids before committing, so the test can
    // resolve each one after the crash.
    let tids: Arc<parking_lot::Mutex<Vec<harbor_common::TransactionId>>> = Default::default();
    let results: Vec<Result<Timestamp, harbor_common::DbError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2i64)
            .map(|i| {
                let c = f.coordinator.clone();
                let tids = tids.clone();
                scope.spawn(move || -> Result<Timestamp, harbor_common::DbError> {
                    let tid = c.begin()?;
                    tids.lock().push(tid);
                    c.update(tid, insert(&format!("t{i}"), i))?;
                    c.commit(tid)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert!(r.is_err(), "clients must observe the coordinator crash");
    }
    let tids = tids.lock().clone();
    assert_eq!(tids.len(), 2, "both txns should be in doubt");
    // Each in-doubt transaction is resolved on its own.
    for tid in &tids {
        let resolved = f.workers[&SiteId(1)]
            .clone()
            .resolve_by_consensus(*tid)
            .unwrap();
        assert!(resolved, "site 1 should act as backup for {tid:?}");
    }
    // Table 4.1: prepared-yes under a dead coordinator resolves to ABORT on
    // every replica — consistently per transaction, no phantom commit.
    for site in [SiteId(1), SiteId(2)] {
        for tid in &tids {
            assert!(
                matches!(
                    f.workers[&site].backup_state(*tid),
                    harbor_dist::WireTxnState::Aborted
                ),
                "{tid:?} unresolved at {site}"
            );
        }
        for t in ["t0", "t1"] {
            assert_eq!(count_at(&f.engines[&site], t), 0, "no phantom rows in {t}");
        }
        assert_eq!(f.engines[&site].locks().held_count(), 0);
    }
    f.teardown();
}

/// A lone transaction forms a size-1 epoch: same force count as the
/// serial path (no sync is saved, none is added).
#[test]
fn single_txn_epoch_matches_serial_cost() {
    let f = build(
        "single-txn",
        &[1],
        &[("t", &[1])],
        EpochCommitConfig::default(),
    );
    let tid = f.coordinator.begin().unwrap();
    f.coordinator.update(tid, insert("t", 7)).unwrap();
    let t = f.coordinator.commit(tid).unwrap();
    assert!(t > Timestamp::ZERO);
    assert_eq!(count_at(&f.engines[&SiteId(1)], "t"), 1);
    let snap = f.metrics.snapshot();
    assert_eq!(snap.epochs_committed, 1);
    assert_eq!(snap.epoch_size_1, 1);
    assert_eq!(snap.batched_syncs_saved, 0, "a size-1 epoch saves nothing");
    f.teardown();
}
