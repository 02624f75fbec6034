//! Failures *during* recovery (thesis §5.5) — scenarios the thesis
//! describes but its implementation never exercised:
//!
//! * the recovering site dies after Phase 1, right after a Phase-2 pass
//!   records its object checkpoint, or after Phase 2, and restarts
//!   recovery, resuming from the finer-granularity per-object checkpoint;
//! * the recovering site dies in Phase 3 while holding remote table read
//!   locks, and the buddies override the orphaned locks (§5.5.1);
//! * a recovery buddy dies mid-recovery, and the retry recomputes the
//!   recovery plan from the remaining replicas (§5.5.2);
//! * K = 2: two workers down simultaneously, recovered one after the other.

use harbor::{recover_site, Cluster, ClusterConfig, RecoveryContext};
use harbor_common::codec::Wire;
use harbor_common::{
    DbError, DbResult, DiskProfile, FieldType, Metrics, SiteId, StorageConfig, Timestamp,
    TransactionId, Value,
};
use harbor_dist::{
    rpc, Coordinator, CoordinatorConfig, CrashPoint, Placement, ProtocolKind, Request, Response,
    UpdateRequest, WireReadMode, Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_front::FrontHandler;
use harbor_net::{Channel, InMemNetwork, Listener, Transport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-failure-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// One attempt to recover `victim` that dies at `point`.
fn recover_dying_at(cluster: &Cluster, victim: SiteId, point: CrashPoint) -> DbError {
    cluster.arm_crash(victim, point);
    cluster.recover_worker_harbor(victim).unwrap_err()
}

#[test]
fn recovering_site_dies_after_each_phase_and_retries() {
    let dir = temp_dir("retry-phases");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    fill(&cluster, 0, 30);
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    fill(&cluster, 30, 60);
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 60, 80);
    // First attempt dies after Phase 1.
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryAfterPhase1);
    assert!(err.to_string().contains("injected"));
    assert!(cluster.is_crashed(victim));
    // The next dies right after its first pass records an object
    // checkpoint: the rows that pass copied must be on disk by then, or
    // every later attempt resumes past rows the site no longer has.
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryAfterObjectCheckpoint);
    assert!(err.to_string().contains("injected"));
    // The next dies after Phase 2 — its object checkpoint survives.
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryAfterPhase2);
    assert!(err.to_string().contains("injected"));
    // Progress continues between attempts.
    fill(&cluster, 80, 90);
    // The last attempt completes. The per-object checkpoint from the one
    // before means Phase 2 copies only what arrived since then.
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(
        report.objects[0].checkpoint > Timestamp(30),
        "resumed from the recovery-time object checkpoint"
    );
    assert_eq!(count_at(&cluster, victim), 90);
    assert_eq!(count_at(&cluster, SiteId(2)), 90);
    // The last attempt should not have re-copied the earlier attempts' tuples.
    assert!(
        report.tuples_copied() <= 15,
        "copied {} tuples; expected only the post-attempt-2 delta",
        report.tuples_copied()
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buddies_override_a_dead_recoverers_locks() {
    let dir = temp_dir("lock-override");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    fill(&cluster, 0, 20);
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    // The recoverer dies while holding the buddy's table read lock.
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryHoldingLocks);
    assert!(err.to_string().contains("injected"));
    // Give the buddy's disconnect detection a moment to fire.
    std::thread::sleep(std::time::Duration::from_millis(200));
    // Updates must be able to proceed: the orphaned lock was overridden.
    cluster.insert_one("sales", row(1_000, 0)).unwrap();
    let survivor = SiteId(2);
    assert_eq!(
        cluster.engine(survivor).unwrap().locks().held_count(),
        0,
        "orphaned recovery locks remain on the buddy"
    );
    // And a clean retry brings the site fully online.
    cluster.recover_worker_harbor(victim).unwrap();
    assert_eq!(count_at(&cluster, victim), 21);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovery point armed but not reached goes with the recovery that did
/// not reach it: two points armed, the first recovery dies at the first,
/// and the next is not killed by the one its predecessor never reached.
#[test]
fn a_recovery_point_not_reached_is_disarmed_when_the_recovery_ends() {
    let dir = temp_dir("unreached-point");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    fill(&cluster, 0, 20);
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 20, 30);
    cluster.arm_crash(victim, CrashPoint::RecoveryAfterPhase1);
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryAfterPhase2);
    assert!(
        err.to_string().contains("RecoveryAfterPhase1"),
        "the first point reached fires: {err}"
    );
    assert!(cluster.faults().armed().is_empty());
    cluster.recover_worker_harbor(victim).unwrap();
    assert_eq!(count_at(&cluster, victim), 30);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovery point that fires is the site's death, not one object's: with
/// two objects recovered in parallel, neither gets past Phase 1, so the
/// next recovery copies what each missed, not only what the first missed.
#[test]
fn a_recovery_point_stops_every_object_recovered_in_parallel() {
    let dir = temp_dir("parallel-death");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.tables = vec![
        harbor::TableSpec::small("sales"),
        harbor::TableSpec::small("returns"),
    ];
    let cluster = Cluster::build(&dir, cfg).unwrap();
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    for id in 0..10 {
        cluster.insert_one("sales", row(id, 0)).unwrap();
        cluster.insert_one("returns", row(id, 0)).unwrap();
    }
    let err = recover_dying_at(&cluster, victim, CrashPoint::RecoveryAfterPhase1);
    assert!(err.to_string().contains("injected"));
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert_eq!(report.objects.len(), 2);
    for object in &report.objects {
        assert_eq!(
            object.tuples_copied, 10,
            "{} was recovered by the attempt that died",
            object.table
        );
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buddy_failure_mid_recovery_switches_to_another_copy() {
    let dir = temp_dir("buddy-fails");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.num_workers = 3; // K = 2
    let cluster = Cluster::build(&dir, cfg).unwrap();
    fill(&cluster, 0, 25);
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    fill(&cluster, 25, 40);
    // The planner would pick site 2 as the buddy; kill it so the recovery
    // attempt fails mid-flight, then retry — the new plan must use site 3.
    let plan = cluster
        .placement()
        .recovery_plan(victim, "sales", &std::collections::HashSet::new())
        .unwrap();
    assert_eq!(plan[0].buddies[0], SiteId(2));
    cluster.crash_worker(SiteId(2)).unwrap();
    // With site 2 down the retry plans around it and succeeds from site 3.
    let report = cluster.recover_worker_harbor(victim).unwrap();
    assert!(report.tuples_copied() >= 15);
    assert_eq!(count_at(&cluster, victim), 40);
    // Finally recover site 2 as well (second of the K = 2 failures),
    // which can now use either live replica.
    let report = cluster.recover_worker_harbor(SiteId(2)).unwrap();
    assert!(report.tuples_copied() > 0);
    assert_eq!(count_at(&cluster, SiteId(2)), 40);
    // All three replicas converge.
    for site in cluster.worker_sites() {
        assert_eq!(count_at(&cluster, site), 40, "at {site}");
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_error_when_all_copies_are_down() {
    let dir = temp_dir("all-down");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    fill(&cluster, 0, 5);
    cluster.crash_worker(SiteId(1)).unwrap();
    cluster.crash_worker(SiteId(2)).unwrap();
    // More than K simultaneous failures: HARBOR no longer applies (§3.2).
    let err = cluster.recover_worker_harbor(SiteId(1)).unwrap_err();
    assert!(matches!(err, harbor_common::DbError::Unrecoverable(_)));
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hook on every request the recovering site sends, run before the frame
/// goes out: an `Err` fails the send, and the frame is not sent.
type SendHook = Arc<dyn Fn(&Request) -> DbResult<()> + Send + Sync>;

/// The recovering site's transport: every channel it opens runs `hook`.
struct Hooked {
    inner: Arc<dyn Transport>,
    hook: SendHook,
}

struct HookedChannel {
    inner: Box<dyn Channel>,
    hook: SendHook,
}

impl Transport for Hooked {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        self.inner.listen(addr)
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        Ok(Box::new(HookedChannel {
            inner: self.inner.connect(addr)?,
            hook: self.hook.clone(),
        }))
    }
}

impl Channel for HookedChannel {
    fn send(&mut self, frame: Vec<u8>) -> DbResult<()> {
        if let Ok(req) = Request::from_slice(&frame) {
            (self.hook)(&req)?;
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>> {
        self.inner.recv_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// Two workers replicating `sales` and a coordinator on one in-memory
/// network, built by hand so that a recovery can be given a transport of
/// its own.
struct TwoSites {
    name: &'static str,
    dir: PathBuf,
    net: Arc<dyn Transport>,
    placement: Placement,
    storage: StorageConfig,
}

impl TwoSites {
    const SITES: [SiteId; 2] = [SiteId(1), SiteId(2)];

    fn new(name: &'static str, storage: StorageConfig) -> TwoSites {
        let mut placement = Placement::new();
        placement.add_replicated_table("sales", &Self::SITES);
        placement.set_coordinator_addr(&format!("{name}-coordinator"));
        for site in Self::SITES {
            placement.set_address(site, &format!("{name}-site-{}", site.0));
        }
        TwoSites {
            name,
            dir: temp_dir(name),
            net: Arc::new(InMemNetwork::new(Metrics::new())),
            placement,
            storage,
        }
    }

    /// `site`'s worker, on its engine opened from its files.
    fn boot_worker(&self, site: SiteId) -> (Arc<Worker>, Arc<Engine>) {
        let engine = Engine::open(
            self.dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(site, self.storage.clone()),
        )
        .unwrap();
        if engine.table_def("sales").is_none() {
            let fields = vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
            ];
            engine.create_table("sales", fields).unwrap();
        }
        let addr = |s: SiteId| self.placement.address(s).unwrap().to_string();
        let cfg = WorkerConfig {
            site,
            addr: addr(site),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: Self::SITES.iter().map(|s| (*s, addr(*s))).collect(),
            coordinator: None,
            auto_consensus: false,
            faults: Default::default(),
        };
        let worker = Worker::start(engine.clone(), self.net.clone(), cfg).unwrap();
        (worker, engine)
    }

    fn boot_coordinator(&self) -> Arc<Coordinator> {
        Coordinator::start(
            CoordinatorConfig {
                site: SiteId(0),
                addr: format!("{}-coordinator", self.name),
                protocol: ProtocolKind::Opt3pc,
                log_dir: None,
                group_commit: harbor_wal::GroupCommit::enabled(),
                disk: DiskProfile::fast(),
                rpc_deadline: DEFAULT_RPC_DEADLINE,
                faults: Default::default(),
                epoch_commit: None,
                degrade_read_only: false,
            },
            self.placement.clone(),
            self.net.clone(),
            Metrics::new(),
        )
        .unwrap()
    }

    /// A recovery of `site` on `engine` whose every send runs `hook`.
    fn recovery(&self, site: SiteId, engine: &Arc<Engine>, hook: SendHook) -> RecoveryContext {
        RecoveryContext {
            engine: engine.clone(),
            site,
            placement: self.placement.clone(),
            transport: Arc::new(Hooked {
                inner: self.net.clone(),
                hook,
            }),
            down: Default::default(),
            rpc_deadline: DEFAULT_RPC_DEADLINE,
            parallel_objects: true,
            faults: Default::default(),
            died_at: Default::default(),
        }
    }
}

impl Drop for TwoSites {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn insert_through(coordinator: &Arc<Coordinator>, id: i64) {
    let op = UpdateRequest::Insert {
        table: "sales".into(),
        values: row(id, id as i32),
    };
    coordinator
        .execute(vec![op], Instant::now() + Duration::from_secs(10))
        .unwrap();
}

/// Every version a site holds, deleted ones included, as a sorted list.
fn versions(engine: &Engine) -> Vec<String> {
    let def = engine.table_def("sales").unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        engine.pool().clone(),
        def.id,
        harbor_exec::ReadMode::SeeDeleted,
    )
    .unwrap();
    let rows = harbor_exec::collect(&mut scan).unwrap();
    let mut v: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
    v.sort();
    v
}

/// §5.3's repeat rule on a clock that moves once: a commit settles during
/// the first pass, so a second pass copies it; nothing commits during the
/// second, so Phase 2 stops there and the victim matches its buddy.
#[test]
fn a_commit_during_phase2_earns_exactly_one_more_pass() {
    let sites = TwoSites::new("phase2-passes", StorageConfig::for_tests());
    let (buddy, buddy_engine) = sites.boot_worker(SiteId(1));
    let (victim, victim_engine) = sites.boot_worker(SiteId(2));
    let coordinator = sites.boot_coordinator();
    for id in 0..3 {
        insert_through(&coordinator, id);
    }
    victim.crash();
    drop(victim_engine);
    coordinator.mark_dead(SiteId(2));
    for id in 3..10 {
        insert_through(&coordinator, id);
    }

    let (victim, victim_engine) = sites.boot_worker(SiteId(2));
    // The first time the recovering site asks a buddy for Phase-2 inserts,
    // one more insert commits before the request goes out: a commit that
    // lands while Phase 2 is running.
    let fired = AtomicBool::new(false);
    let during = coordinator.clone();
    let commit_once = move |req: &Request| {
        if let Request::Scan(scan) = req {
            let phase2 = matches!(scan.mode, WireReadMode::SeeDeletedHistorical(_));
            if phase2 && !scan.ids_and_deletions_only && !fired.swap(true, SeqCst) {
                insert_through(&during, 100);
            }
        }
        Ok(())
    };
    let ctx = sites.recovery(SiteId(2), &victim_engine, Arc::new(commit_once));
    let report = recover_site(&ctx).unwrap();
    assert_eq!(report.objects[0].phase2_rounds, 2, "{report:?}");
    assert_eq!(versions(&victim_engine).len(), 11);
    assert_eq!(versions(&victim_engine), versions(&buddy_engine));
    coordinator.crash();
    buddy.crash();
    victim.crash();
}

/// Phase 3 releases its buddy's table lock once the object is online, when
/// the coordinator already routes updates to the site: a release that does
/// not get through must not fail the recovery, which would crash the site
/// again. The buddy frees the lock itself when the lock connection closes
/// (§5.5.1), so the next write there commits well within the lock timeout.
#[test]
fn a_lost_lock_release_does_not_fail_a_finished_recovery() {
    let storage = StorageConfig {
        lock_timeout: Duration::from_secs(5),
        ..StorageConfig::for_tests()
    };
    let sites = TwoSites::new("release-lost", storage.clone());
    let (buddy, buddy_engine) = sites.boot_worker(SiteId(1));
    let (victim, victim_engine) = sites.boot_worker(SiteId(2));
    let coordinator = sites.boot_coordinator();
    for id in 0..3 {
        insert_through(&coordinator, id);
    }
    victim.crash();
    drop(victim_engine);
    coordinator.mark_dead(SiteId(2));
    for id in 3..10 {
        insert_through(&coordinator, id);
    }

    let (victim, victim_engine) = sites.boot_worker(SiteId(2));
    let lose_release = |req: &Request| match req {
        Request::ReleaseTableLock { .. } => Err(DbError::net("injected: the release is lost")),
        _ => Ok(()),
    };
    let ctx = sites.recovery(SiteId(2), &victim_engine, Arc::new(lose_release));
    recover_site(&ctx).unwrap();
    assert!(coordinator.is_usable(SiteId(2), "sales"));
    let started = Instant::now();
    insert_through(&coordinator, 10);
    assert!(
        started.elapsed() < storage.lock_timeout / 5,
        "the write waited {:?} on the recovery's lock",
        started.elapsed()
    );
    assert_eq!(versions(&victim_engine).len(), 11);
    assert_eq!(versions(&victim_engine), versions(&buddy_engine));
    coordinator.crash();
    buddy.crash();
    victim.crash();
}

/// Parallel recovery of several objects announces each object separately
/// (Fig 5-4 is per-`rec`). Updates to a *still-recovering* table must not
/// start flowing to the site just because another table came online first —
/// they would be applied twice (once live, once by the Phase-3 copy).
#[test]
fn per_object_announcements_gate_update_routing() {
    let dir = temp_dir("per-object-online");
    let mut cfg = harbor::ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.tables = vec![
        harbor::TableSpec::small("sales"),
        harbor::TableSpec::small("returns"),
    ];
    // Force heavily skewed recovery: serial object order with traffic in
    // flight maximizes the window between the two announcements.
    cfg.parallel_recovery = false;
    let cluster = std::sync::Arc::new(Cluster::build(&dir, cfg).unwrap());
    for i in 0..20 {
        cluster.insert_one("sales", row(i, 0)).unwrap();
        cluster.insert_one("returns", row(i, 0)).unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    // Background writers on BOTH tables throughout recovery.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = ["sales", "returns"]
        .into_iter()
        .map(|t| {
            let cluster = cluster.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 1_000i64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let _ = cluster.insert_one(t, row(i, 0));
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(30));
    cluster.recover_worker_harbor(victim).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    cluster.insert_one("sales", row(9_999, 0)).unwrap();
    cluster.insert_one("returns", row(9_999, 0)).unwrap();
    // No duplicates and no losses on either table, on either replica.
    let now = cluster.coordinator().authority().now().prev();
    for t in ["sales", "returns"] {
        let mut per_site = Vec::new();
        for site in cluster.worker_sites() {
            let e = cluster.engine(site).unwrap();
            let def = e.table_def(t).unwrap();
            let mut scan = harbor_exec::SeqScan::new(
                e.pool().clone(),
                def.id,
                harbor_exec::ReadMode::Historical(now),
            )
            .unwrap();
            let mut ids: Vec<i64> = harbor_exec::collect(&mut scan)
                .unwrap()
                .iter()
                .map(|r| r.get(2).as_i64().unwrap())
                .collect();
            ids.sort();
            // Duplicate detection.
            let mut dedup = ids.clone();
            dedup.dedup();
            assert_eq!(ids, dedup, "duplicate tuples in {t} at {site}");
            per_site.push(ids);
        }
        assert_eq!(per_site[0], per_site[1], "replicas diverged on {t}");
    }
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A site can join a transaction *while its last statement is out*: the
/// statement waits behind the recoverer's Phase-3 table lock at a buddy,
/// the recoverer announces the object online (Fig 5-4), and the coordinator
/// forwards the transaction's backlog — that statement — to it. The votes
/// that then ride in on the statement's replies were cast on a participant
/// list that lacks the joined site, so `commit` must not count them: it
/// runs a full PREPARE round on the list it finds, every participant ends
/// up knowing all three (the §4.3.3 consensus would ask them), and the
/// joined site commits the row with the others.
#[test]
fn a_site_that_joins_while_the_last_statement_is_blocked_gets_a_full_prepare() {
    let dir = temp_dir("join-during-last");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.num_workers = 3;
    // The statement must sit out the table lock, not time out behind it.
    cfg.storage.lock_timeout = Duration::from_secs(30);
    let cluster = std::sync::Arc::new(Cluster::build(&dir, cfg).unwrap());
    fill(&cluster, 0, 5);
    let coordinator = cluster.coordinator().clone();
    let (buddy, joiner) = (SiteId(1), SiteId(3));
    // Site 3 is "recovering": routed around, its copy as good as the others'.
    coordinator.mark_dead(joiner);
    // Phase 3: the recoverer's table read lock at the buddy.
    let recoverer = TransactionId::from_parts(joiner, 1);
    let mut to_buddy = cluster
        .transport()
        .connect(cluster.worker(buddy).unwrap().addr())
        .unwrap();
    let table_lock = |chan: &mut dyn harbor_net::Channel, req: Request| {
        assert!(
            matches!(
                rpc(chan, &req, DEFAULT_RPC_DEADLINE, &Metrics::new()).unwrap(),
                Response::Ok
            ),
            "{req:?}"
        );
    };
    table_lock(
        to_buddy.as_mut(),
        Request::AcquireTableLock {
            tid: recoverer,
            table: "sales".into(),
        },
    );
    let client = {
        let coordinator = coordinator.clone();
        std::thread::spawn(move || {
            let last = UpdateRequest::Insert {
                table: "sales".into(),
                values: row(100, 0),
            };
            coordinator.execute(vec![last], Instant::now() + Duration::from_secs(60))
        })
    };
    // Once the buddy has the transaction open its one statement is queued
    // at the coordinator, and cannot finish before the lock goes.
    let buddy_engine = cluster.engine(buddy).unwrap();
    let patience = Instant::now() + Duration::from_secs(10);
    let tid = loop {
        if let Some(tid) = buddy_engine.active_txns().first() {
            break *tid;
        }
        assert!(Instant::now() < patience, "the statement never arrived");
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut to_coordinator = cluster.transport().connect(coordinator.addr()).unwrap();
    let online = Request::RecComingOnline {
        site: joiner,
        table: "sales".into(),
    };
    assert!(matches!(
        rpc(
            to_coordinator.as_mut(),
            &online,
            DEFAULT_RPC_DEADLINE,
            &Metrics::new()
        )
        .unwrap(),
        Response::AllDone
    ));
    assert!(
        cluster.engine(joiner).unwrap().active_txns().contains(&tid),
        "the forwarder brought the joiner into the transaction"
    );
    table_lock(
        to_buddy.as_mut(),
        Request::ReleaseTableLock {
            tid: recoverer,
            table: "sales".into(),
        },
    );
    client.join().unwrap().unwrap();
    for site in cluster.worker_sites() {
        assert_eq!(count_at(&cluster, site), 6, "at {site}");
        assert_eq!(
            cluster.worker(site).unwrap().participants(tid),
            cluster.worker_sites(),
            "the list {site} would run the consensus protocol on"
        );
        assert_eq!(cluster.engine(site).unwrap().locks().held_count(), 0);
    }
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
