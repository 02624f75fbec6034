//! A protocol step is one scatter-gather round (§4.3, Figs 4-2…4-5): the
//! coordinator hands the frame to every participant and then collects, so a
//! step lasts as long as its slowest worker and any number of silent ones
//! cost one liveness deadline. What a round buys, and the two things it
//! must not break: a statement that takes locks still visits its sites one
//! at a time, in one order, and a counting fail point still means "exactly
//! the first `n`".

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::codec::Wire;
use harbor_common::fault::{Armed, FaultConfig, FaultPlan};
use harbor_common::{
    DbError, DbResult, DiskProfile, Metrics, SiteId, StorageConfig, Timestamp, Value,
};
use harbor_dist::{
    rpc, Coordinator, CoordinatorConfig, CrashPoint, Placement, ProtocolKind, Request, Response,
    UpdateRequest, WireTxnState, Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_front::FrontHandler;
use harbor_net::{Channel, InMemNetwork, Listener, Transport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-commit-rounds")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn insert(id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: "t".into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

/// The committed ids of `t` at one replica, sorted.
fn ids_at(engine: &Arc<Engine>) -> Vec<i64> {
    let mut ids = ids_as_of(engine, Timestamp(1_000_000));
    ids.sort_unstable();
    ids
}

/// The ids of `t` visible at one replica as of `at`.
fn ids_as_of(engine: &Arc<Engine>, at: Timestamp) -> Vec<i64> {
    let def = engine.table_def("t").unwrap();
    let mode = harbor_exec::ReadMode::Historical(at);
    let mut scan = harbor_exec::SeqScan::new(engine.pool().clone(), def.id, mode).unwrap();
    let rows = harbor_exec::collect(&mut scan).unwrap();
    rows.iter().map(|t| t.get(2).as_i64().unwrap()).collect()
}

fn three_workers(name: &str, faults: Option<FaultConfig>, rpc_deadline: Duration) -> Cluster {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    cfg.faults = faults;
    cfg.rpc_deadline = rpc_deadline;
    Cluster::build(temp_dir(name), cfg).unwrap()
}

/// One whole transaction the way the front door runs it: the handler knows
/// which statement is the last, so the PREPARE may ride on it.
fn execute(coordinator: &Arc<Coordinator>, ops: Vec<UpdateRequest>) -> DbResult<Timestamp> {
    coordinator.execute(ops, Instant::now() + Duration::from_secs(60))
}

/// The lock-order rule. A transactional insert X-locks the table's last
/// non-full page until commit, so concurrent loaders of one table queue at
/// the first site in placement order — as long as every statement takes its
/// sites in that order, one reply at a time. The day `update` fans a locking
/// statement out, one loader wins the page at one site and another at the
/// next, and only the 500 ms lock timeout parts them: this test then sees
/// timeouts and aborts. A full fan-out fails it outright. Sending to the
/// first site alone and to the rest at once fails it about one run in four
/// *beside two busy loops*, and not otherwise: each time a page fills, two
/// loaders are past the first site together and race for the next page at
/// the other two; once a loser has aborted the replicas' pages no longer
/// fill alike, and it happens at every page.
#[test]
fn concurrent_loaders_of_one_table_never_deadlock_across_replicas() {
    concurrent_loaders("leader", |cluster, ops| cluster.run_txn(ops));
}

/// The same with the PREPARE riding each insert: a loader is then
/// *prepared* at the first site while it still queues for the page at the
/// second, which changes who holds what for how long but not the order.
#[test]
fn concurrent_loaders_through_the_front_door_never_deadlock_either() {
    concurrent_loaders("leader-front", |cluster, ops| {
        execute(cluster.coordinator(), ops)
    });
}

fn concurrent_loaders(
    name: &str,
    run: impl Fn(&Cluster, Vec<UpdateRequest>) -> DbResult<Timestamp> + Send + Sync + 'static,
) {
    let cluster = Arc::new(three_workers(name, None, harbor_dist::DEFAULT_RPC_DEADLINE));
    let run = Arc::new(run);
    let loaders: Vec<_> = (0..4i64)
        .map(|loader| {
            let (cluster, run) = (cluster.clone(), run.clone());
            std::thread::spawn(move || -> usize {
                (0..200)
                    .filter(|i| run(&cluster, vec![insert(loader * 1000 + i)]).is_err())
                    .count()
            })
        })
        .collect();
    let aborted: usize = loaders.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(aborted, 0, "transactions aborted");
    assert_eq!(cluster.coordinator().metrics().snapshot().aborts, 0);
    let mut expected: Vec<i64> = (0..4i64)
        .flat_map(|l| (0..200).map(move |i| l * 1000 + i))
        .collect();
    expected.sort_unstable();
    for site in cluster.worker_sites() {
        let m = cluster.worker_metrics(site).unwrap().snapshot();
        assert_eq!(m.lock_timeouts, 0, "lock timeouts at {site}");
        assert_eq!(ids_at(&cluster.engine(site).unwrap()), expected, "{site}");
    }
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (a) A round lasts as long as its slowest worker.
// ----------------------------------------------------------------------

/// What becomes of a request a [`Faulty`] network picks on its way to a
/// site.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Fault {
    /// Never delivered. The connection stays open, so the sender learns of
    /// the loss only from its deadline.
    Lost,
    /// Delivered and processed; the reply is lost on its way back.
    ReplyLost,
    /// Held in the sender's thread until the test opens the network's gate.
    Parked,
    /// Delivered; the reply is read no sooner than this long after the
    /// request left. Measured from the send, replies to requests sent
    /// together are late together, as if each site answered late in its
    /// own thread.
    SlowReply(Duration),
}

type FaultRule = Arc<dyn Fn(&str, &Request) -> Option<Fault> + Send + Sync>;

/// A network that does to every request what `rule` picks for it, given
/// the address it goes to.
struct Faulty {
    inner: Arc<dyn Transport>,
    rule: FaultRule,
    gate: Arc<Gate>,
}

struct FaultyChannel {
    inner: Box<dyn Channel>,
    to: String,
    rule: FaultRule,
    gate: Arc<Gate>,
    reply_lost: bool,
    reply_due: Option<Instant>,
}

/// Where [`Fault::Parked`] requests wait: the test learns that one has
/// arrived, then opens the gate for good.
#[derive(Default)]
struct Gate {
    /// (a request is parked, the gate is open)
    state: Mutex<(bool, bool)>,
    cond: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cond.notify_all();
        drop(self.cond.wait_while(state, |s| !s.1).unwrap());
    }

    fn await_parked(&self) {
        let state = self.state.lock().unwrap();
        drop(self.cond.wait_while(state, |s| !s.0).unwrap());
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cond.notify_all();
    }
}

impl Faulty {
    fn new(rule: impl Fn(&str, &Request) -> Option<Fault> + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Faulty {
            inner: Arc::new(InMemNetwork::new(Metrics::new())),
            rule: Arc::new(rule),
            gate: Arc::default(),
        })
    }
}

impl Transport for Faulty {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        self.inner.listen(addr)
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        Ok(Box::new(FaultyChannel {
            inner: self.inner.connect(addr)?,
            to: addr.to_string(),
            rule: self.rule.clone(),
            gate: self.gate.clone(),
            reply_lost: false,
            reply_due: None,
        }))
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, frame: Vec<u8>) -> DbResult<()> {
        let fault = Request::from_slice(&frame)
            .ok()
            .and_then(|req| (self.rule)(&self.to, &req));
        self.reply_lost = fault == Some(Fault::ReplyLost);
        self.reply_due = None;
        match fault {
            Some(Fault::Lost) => return Ok(()),
            Some(Fault::Parked) => self.gate.park(),
            Some(Fault::SlowReply(d)) => self.reply_due = Some(Instant::now() + d),
            _ => {}
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>> {
        if let Some(due) = self.reply_due.take() {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let frame = self.inner.recv_timeout(timeout)?;
        if std::mem::take(&mut self.reply_lost) {
            return Ok(None);
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// Workers holding `t` and their coordinator, started by hand on
/// `transport` (the cluster facade builds its own). Each worker knows every
/// worker and the coordinator, as the cluster facade's do.
struct HandBuilt {
    dir: PathBuf,
    coordinator: Arc<Coordinator>,
    workers: Vec<(Arc<Worker>, Arc<Engine>)>,
    faults: Arc<FaultPlan>,
}

/// Three Opt3pc workers under the default deadline.
fn hand_built(name: &str, transport: Arc<dyn Transport>) -> HandBuilt {
    built_with(
        name,
        transport,
        ProtocolKind::Opt3pc,
        3,
        DEFAULT_RPC_DEADLINE,
        false,
    )
}

fn built_with(
    name: &str,
    transport: Arc<dyn Transport>,
    protocol: ProtocolKind,
    copies: u16,
    rpc_deadline: Duration,
    auto_consensus: bool,
) -> HandBuilt {
    let dir = temp_dir(name);
    let sites: Vec<SiteId> = (1..=copies).map(SiteId).collect();
    let addr = |site: &SiteId| format!("{name}-site-{}", site.0);
    let peers: HashMap<SiteId, String> = sites.iter().map(|s| (*s, addr(s))).collect();
    let faults: Arc<FaultPlan> = Default::default();
    let mut placement = Placement::new();
    let mut workers = Vec::new();
    for site in &sites {
        let engine = Engine::open(
            dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(*site, StorageConfig::for_tests()),
        )
        .unwrap();
        engine
            .create_table("t", TableSpec::small("t").user_fields)
            .unwrap();
        let cfg = WorkerConfig {
            site: *site,
            addr: addr(site),
            protocol,
            checkpoint_every: None,
            peers: peers.clone(),
            coordinator: Some(format!("{name}-coordinator")),
            auto_consensus,
            faults: faults.clone(),
        };
        let worker = Worker::start(engine.clone(), transport.clone(), cfg).unwrap();
        placement.set_address(*site, worker.addr());
        workers.push((worker, engine));
    }
    placement.add_replicated_table("t", &sites);
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: format!("{name}-coordinator"),
            protocol,
            log_dir: None,
            group_commit: harbor_wal::GroupCommit::enabled(),
            disk: DiskProfile::fast(),
            rpc_deadline,
            faults: faults.clone(),
            epoch_commit: None,
            degrade_read_only: false,
        },
        placement,
        transport,
        Metrics::new(),
    )
    .unwrap();
    HandBuilt {
        dir,
        coordinator,
        workers,
        faults,
    }
}

impl HandBuilt {
    fn stop(self) {
        self.coordinator.crash();
        for (worker, _) in &self.workers {
            worker.crash();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Three Opt3pc participants whose every reply takes `d`: the three phases
/// of a commit cost about `3·d`. Sent to one worker at a time they cost
/// `3·(3·d)`; the bound sits between the two. Statements are rounds too,
/// unless they take locks.
#[test]
fn a_commit_round_lasts_as_long_as_its_slowest_worker() {
    let d = Duration::from_millis(40);
    let built = hand_built(
        "slowest",
        Faulty::new(move |_, _| Some(Fault::SlowReply(d))),
    );
    let (coordinator, workers) = (&built.coordinator, &built.workers);

    let tid = coordinator.begin().unwrap();
    let started = Instant::now();
    coordinator.update(tid, insert(1)).unwrap();
    let locking = started.elapsed();
    assert!(
        locking >= 3 * d,
        "a statement that takes locks visits its sites in turn: {locking:?}"
    );
    let started = Instant::now();
    let work = UpdateRequest::SimulateWork { cycles: 10 };
    coordinator.update(tid, work).unwrap();
    let lock_free = started.elapsed();
    assert!(
        lock_free >= d && lock_free < 2 * d,
        "one that takes none is one round: {lock_free:?}"
    );
    let started = Instant::now();
    coordinator.commit(tid).unwrap();
    let commit = started.elapsed();
    assert!(commit >= 3 * d, "three phases, three replies: {commit:?}");
    assert!(
        commit < 2 * (3 * d),
        "a 3-phase commit took {commit:?} with replies {d:?} late"
    );
    // Through the handler the votes come back with the statement's replies:
    // the statement at three sites in turn, PREPARE-TO-COMMIT, COMMIT. The
    // interactive calls above spend a sixth reply on the PREPARE round.
    let started = Instant::now();
    execute(coordinator, vec![insert(2)]).unwrap();
    let whole = started.elapsed();
    assert!(
        whole >= 5 * d && whole < 6 * d,
        "statement with PREPARE riding, then two rounds: {whole:?}"
    );
    for (_, engine) in workers {
        assert_eq!(ids_at(engine), vec![1, 2]);
    }
    built.stop();
}

// ----------------------------------------------------------------------
// (a') A commit time is not behind the clock until its round is in.
// ----------------------------------------------------------------------

/// §5.3 reads a buddy as of `GetTime − 1` and assumes every transaction with
/// a commit time at or below that is committed there. The coordinator
/// assigns the time before COMMIT reaches the workers, so while a COMMIT
/// round is out — here two workers have the frame and the third's is held —
/// `GetTime` must not have passed the time the round carries: a recovery
/// that took its high-water mark now would scan the third worker's page
/// with the row still uncommitted on it, and Phase 3 (`insertion_time >
/// hwm`) would never look at it again. Once the round is in, the time is
/// history.
#[test]
fn get_time_stays_at_a_commit_time_until_its_round_is_in() {
    let transport = Faulty::new(|to, req| {
        let held = to == "watermark-site-3" && matches!(req, Request::Commit { .. });
        held.then_some(Fault::Parked)
    });
    let built = hand_built("watermark", transport.clone());
    let client = {
        let coordinator = built.coordinator.clone();
        std::thread::spawn(move || {
            let tid = coordinator.begin()?;
            coordinator.update(tid, insert(1))?;
            coordinator.commit(tid)
        })
    };
    let mut chan = transport.connect(built.coordinator.addr()).unwrap();
    let mut get_time = || match rpc(
        chan.as_mut(),
        &Request::GetTime,
        DEFAULT_RPC_DEADLINE,
        &Metrics::new(),
    )
    .unwrap()
    {
        Response::Time { now } => now,
        other => panic!("GetTime answered {other:?}"),
    };
    transport.gate.await_parked();
    let during = get_time();
    transport.gate.open();
    let commit_time = client.join().unwrap().unwrap();
    let after = get_time();
    assert!(
        during <= commit_time,
        "GetTime answered {during} with the COMMIT round of {commit_time} still out"
    );
    assert!(after > commit_time, "{after} after {commit_time} settled");
    for (_, engine) in &built.workers {
        assert_eq!(ids_at(engine), vec![1]);
    }
    built.stop();
}

// ----------------------------------------------------------------------
// (b) Any number of silent participants cost one liveness deadline.
// ----------------------------------------------------------------------

#[test]
fn two_silent_participants_cost_one_deadline() {
    let deadline = Duration::from_millis(400);
    let cluster = three_workers("silent", Some(FaultConfig::quiet(11)), deadline);
    let coordinator = cluster.coordinator();
    let chaos = cluster.chaos().unwrap();
    cluster.faults().set_enabled(true);
    cluster.run_txn(vec![insert(0)]).unwrap();

    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    // Partitioned during PREPARE: the frames to sites 2 and 3 vanish, the
    // connections stay open.
    chaos.partition(&["coordinator"], &["site-2", "site-3"], true);
    let before = coordinator.metrics().snapshot();
    let started = Instant::now();
    let err = coordinator.commit(tid).unwrap_err();
    let took = started.elapsed();
    assert!(matches!(err, DbError::TransactionAborted(_)), "{err}");
    assert!(took >= deadline, "aborted before the deadline: {took:?}");
    assert!(
        took < deadline * 3 / 2,
        "two silent participants cost {took:?}, not one deadline of {deadline:?}"
    );
    assert_eq!(
        coordinator.metrics().snapshot().since(&before).rpc_timeouts,
        2
    );
    assert!(coordinator.is_dead(SiteId(2)) && coordinator.is_dead(SiteId(3)));
    assert!(!coordinator.is_dead(SiteId(1)));
    // The survivor voted YES and was sent the ABORT: nothing of the
    // transaction is left there.
    let survivor = cluster.engine(SiteId(1)).unwrap();
    assert!(survivor.active_txns().is_empty());
    assert_eq!(survivor.locks().held_count(), 0);
    assert_eq!(ids_at(&survivor), vec![0]);
    chaos.heal();
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (c) A counting fail point still means "exactly the first n".
// ----------------------------------------------------------------------

#[test]
fn a_counting_fail_point_splits_the_round() {
    let cluster = three_workers("split", None, harbor_dist::DEFAULT_RPC_DEADLINE);
    let coordinator = cluster.coordinator();
    cluster.run_txn(vec![insert(0)]).unwrap();
    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    cluster.arm_crash(coordinator.site(), CrashPoint::CoordAfterPtcSent(1));
    assert!(coordinator.commit(tid).is_err(), "the coordinator died");
    // At the moment `commit` returns: the first participant has received
    // and processed PREPARE-TO-COMMIT, the others were never sent it.
    let state = |site: u16| cluster.worker(SiteId(site)).unwrap().backup_state(tid);
    assert!(
        matches!(state(1), WireTxnState::PreparedToCommit(_)),
        "{:?}",
        state(1)
    );
    assert_eq!(state(2), WireTxnState::PreparedVotedYes);
    assert_eq!(state(3), WireTxnState::PreparedVotedYes);
    // Table 4.1: a backup that is prepared-to-commit replays the last two
    // phases, and the transaction commits everywhere.
    let backup = cluster.worker(SiteId(1)).unwrap();
    assert!(backup.resolve_by_consensus(tid).unwrap());
    for site in cluster.worker_sites() {
        let engine = cluster.engine(site).unwrap();
        let settled = Instant::now() + Duration::from_secs(5);
        while ids_at(&engine) != vec![0, 1] || engine.locks().held_count() != 0 {
            assert!(Instant::now() < settled, "{site} never committed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (d) What a transaction costs in frames.
// ----------------------------------------------------------------------

/// Runs three one-insert transactions on `cluster`'s three workers and holds
/// each to `per_worker` frames a worker, whatever order they travel in.
fn assert_frames_per_worker(
    cluster: Cluster,
    per_worker: u64,
    run: impl Fn(&Cluster, Vec<UpdateRequest>) -> DbResult<Timestamp>,
) {
    let net = cluster.net_metrics();
    let start = net.snapshot();
    let sent = |expected: u64| {
        // A sender counts a frame after handing it over, so the last reply
        // may be read before it is counted.
        let patience = Instant::now() + Duration::from_secs(5);
        loop {
            let sent = net.snapshot().since(&start).messages_sent;
            if sent >= expected || Instant::now() > patience {
                return sent;
            }
            std::thread::yield_now();
        }
    };
    // The first transaction opens the sessions, the others reuse them: the
    // same frames either way.
    for txns in 1..=3u64 {
        run(&cluster, vec![insert(txns as i64)]).unwrap();
        assert_eq!(sent(txns * 3 * per_worker), txns * 3 * per_worker);
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(sent(0), 3 * 3 * per_worker, "and nothing after them");
    for site in cluster.worker_sites() {
        assert_eq!(ids_at(&cluster.engine(site).unwrap()), vec![1, 2, 3]);
    }
    cluster.shutdown();
}

/// Through the interactive API a one-insert Opt3pc transaction is four
/// exchanges with each worker — the statement (which carries the begin
/// marker: first contact is one frame and one reply), PREPARE,
/// PREPARE-TO-COMMIT, COMMIT — so eight frames per worker: `update` cannot
/// know that `commit` is what the client calls next.
#[test]
fn a_one_insert_transaction_is_eight_frames_per_worker_call_by_call() {
    let cluster = three_workers("frames", None, harbor_dist::DEFAULT_RPC_DEADLINE);
    assert_frames_per_worker(cluster, 8, |cluster, ops| cluster.run_txn(ops));
}

/// The front door's handler has the whole transaction in hand, so the
/// PREPARE rides the statement and the vote its reply: three exchanges, six
/// frames per worker, and still no forced write anywhere.
#[test]
fn a_one_insert_transaction_is_six_frames_per_worker_through_the_handler() {
    let cluster = three_workers("frames-front", None, harbor_dist::DEFAULT_RPC_DEADLINE);
    let forces = |cluster: &Cluster| -> u64 {
        let at = |site| {
            cluster
                .worker_metrics(site)
                .unwrap()
                .snapshot()
                .forced_writes
        };
        cluster.worker_sites().into_iter().map(at).sum::<u64>()
            + cluster.coordinator().metrics().snapshot().forced_writes
    };
    let before = forces(&cluster);
    assert_frames_per_worker(cluster, 6, move |cluster, ops| {
        let committed = execute(cluster.coordinator(), ops);
        assert_eq!(forces(cluster), before, "optimized 3PC forces nothing");
        committed
    });
}

/// Optimized 2PC has no PREPARE-TO-COMMIT round, and its workers force
/// nothing either: the statement with the vote, then COMMIT.
#[test]
fn optimized_2pc_is_four_frames_per_worker_through_the_handler() {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt2pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    let cluster = Cluster::build(temp_dir("frames-2pc"), cfg).unwrap();
    assert_frames_per_worker(cluster, 4, |cluster, ops| {
        execute(cluster.coordinator(), ops)
    });
}

/// Where a worker's PREPARE is a forced write it does not ride: the
/// statement visits its sites one after the other, and so would the forces.
/// Canonical 2PC through the handler is still statement, PREPARE, COMMIT —
/// six frames a worker, not four — and the workers force side by side: two
/// rounds of forces and the coordinator's own, three force times, where
/// riding would make it five.
#[test]
fn a_forced_prepare_does_not_ride_the_statement() {
    let force = Duration::from_millis(40);
    let mut cfg = ClusterConfig::new(ProtocolKind::Trad2pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.storage.disk = DiskProfile::emulated(force);
    cfg.tables = vec![TableSpec::small("t")];
    let cluster = Cluster::build(temp_dir("forced"), cfg).unwrap();
    assert_frames_per_worker(cluster, 6, |cluster, ops| {
        let started = Instant::now();
        let committed = execute(cluster.coordinator(), ops);
        let took = started.elapsed();
        assert!(
            took >= 3 * force && took < 5 * force,
            "three workers' PREPARE forces took {took:?} at {force:?} a force"
        );
        committed
    });
}

// ----------------------------------------------------------------------
// (e) A worker in doubt ends the transaction the way the client was told.
// ----------------------------------------------------------------------

/// What a lost frame costs: every reply that is not lost arrives well
/// within it, even beside busy loops.
const LOSS_DEADLINE: Duration = Duration::from_millis(500);

/// `copies` workers of `protocol` on a network that does to each request
/// what `rule` picks.
fn lossy(
    name: &str,
    protocol: ProtocolKind,
    copies: u16,
    rule: impl Fn(&str, &Request) -> Option<Fault> + Send + Sync + 'static,
) -> HandBuilt {
    built_with(
        name,
        Faulty::new(rule),
        protocol,
        copies,
        LOSS_DEADLINE,
        false,
    )
}

fn is_ptc(req: &Request) -> bool {
    matches!(req, Request::PrepareToCommit { .. })
}

/// The state every copy must end in for what the client was told.
fn as_told(told: &DbResult<Timestamp>) -> WireTxnState {
    match told {
        Ok(t) => WireTxnState::Committed(*t),
        Err(DbError::TransactionAborted(_)) => WireTxnState::Aborted,
        Err(e) => panic!("the client was told {e}"),
    }
}

/// Terminates `tid` at every worker, then holds each copy to `end`: the
/// row from the commit time on, or nowhere.
fn assert_terminates_as(built: &HandBuilt, tid: harbor_common::TransactionId, end: WireTxnState) {
    for (worker, engine) in &built.workers {
        let site = worker.site();
        assert!(
            worker.resolve_by_consensus(tid).unwrap(),
            "{site} stayed blocked"
        );
        assert!(engine.active_txns().is_empty(), "{site}");
        assert_eq!(engine.locks().held_count(), 0, "{site}");
        assert_eq!(worker.backup_state(tid), end, "{site}");
        match end {
            WireTxnState::Committed(t) => {
                assert_eq!(ids_as_of(engine, t), vec![1], "{site} at {t}");
                assert!(ids_as_of(engine, t.prev()).is_empty(), "{site} before {t}");
            }
            _ => assert!(ids_at(engine).is_empty(), "{site} holds an aborted row"),
        }
    }
}

/// One live copy, the coordinator alive, and the last frame before the
/// decision — PREPARE-TO-COMMIT under 3PC, COMMIT under 2PC — lost on its
/// way there. Under 2PC the coordinator has decided commit and the worker
/// is left prepared; its termination asks the coordinator. Under 3PC no
/// copy holds the decision, so the coordinator aborts, on a session of its
/// own, before the client hears of it — instead of acknowledging a commit
/// the copy's election would abort.
#[test]
fn a_worker_in_doubt_ends_as_the_client_was_told_under_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let name = format!("told-{protocol:?}");
        let built = lossy(&name, protocol, 1, move |_, req| {
            let last = if protocol.is_three_phase() {
                is_ptc(req)
            } else {
                matches!(req, Request::Commit { .. })
            };
            last.then_some(Fault::Lost)
        });
        let tid = built.coordinator.begin().unwrap();
        built.coordinator.update(tid, insert(1)).unwrap();
        let told = built.coordinator.commit(tid);
        let (worker, _) = &built.workers[0];
        let left = if protocol.is_three_phase() {
            WireTxnState::Aborted
        } else {
            WireTxnState::PreparedVotedYes
        };
        assert_eq!(worker.backup_state(tid), left, "{protocol:?}");
        assert_terminates_as(&built, tid, as_told(&told));
        built.stop();
    }
}

/// Two Opt3pc copies, both PREPARE-TO-COMMIT frames lost: neither copy holds
/// the decision, so the client must not hear of one.
#[test]
fn two_copies_that_both_miss_prepare_to_commit_end_aborted() {
    let built = lossy("both-ptc", ProtocolKind::Opt3pc, 2, |_, req| {
        is_ptc(req).then_some(Fault::Lost)
    });
    let tid = built.coordinator.begin().unwrap();
    built.coordinator.update(tid, insert(1)).unwrap();
    let told = built.coordinator.commit(tid);
    assert!(
        matches!(told, Err(DbError::TransactionAborted(_))),
        "{told:?}"
    );
    assert_terminates_as(&built, tid, as_told(&told));
    built.stop();
}

/// With no PREPARE-TO-COMMIT acknowledged the coordinator never reaches the
/// commit point: a crash armed for right after it would send COMMIT never
/// fires, and no copy holds the row once each has terminated.
#[test]
fn no_commit_point_passes_without_a_holder() {
    let built = lossy("no-holder", ProtocolKind::Opt3pc, 3, |_, req| {
        is_ptc(req).then_some(Fault::Lost)
    });
    let coordinator = &built.coordinator;
    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert(1)).unwrap();
    built.faults.arm(
        coordinator.site(),
        Armed::Crash(CrashPoint::CoordAfterCommitSent(0)),
    );
    let told = coordinator.commit(tid);
    assert!(
        matches!(told, Err(DbError::TransactionAborted(_))),
        "{told:?}"
    );
    assert!(coordinator.begin().is_ok(), "the coordinator crashed");
    assert_eq!(coordinator.txn_outcome(tid), WireTxnState::Aborted);
    assert_terminates_as(&built, tid, as_told(&told));
    built.stop();
}

/// PREPARE-TO-COMMIT reaches the one copy but its ack is lost. The copy
/// holds prepared-to-commit, which alone would elect commit, and the
/// coordinator, with no ack, aborts: so the ABORT must reach the copy before
/// the client is told. Then not even a coordinator crash lets the copy's
/// election decide otherwise.
#[test]
fn a_copy_whose_ack_was_lost_hears_the_abort_before_the_client_does() {
    let built = lossy("ack-lost", ProtocolKind::Opt3pc, 1, |_, req| {
        is_ptc(req).then_some(Fault::ReplyLost)
    });
    let tid = built.coordinator.begin().unwrap();
    built.coordinator.update(tid, insert(1)).unwrap();
    let told = built.coordinator.commit(tid);
    assert!(
        matches!(told, Err(DbError::TransactionAborted(_))),
        "{told:?}"
    );
    assert_eq!(built.workers[0].0.backup_state(tid), WireTxnState::Aborted);
    built.coordinator.crash();
    assert_terminates_as(&built, tid, as_told(&told));
    built.stop();
}

/// As above, but the ABORT is lost too. The coordinator cannot say the
/// transaction aborted — the copy still holds prepared-to-commit — so the
/// client is told the outcome is in doubt. The coordinator stays alive, and
/// the copy, asking it first, aborts.
#[test]
fn a_copy_that_missed_the_abort_too_asks_the_coordinator() {
    let built = lossy("abort-lost", ProtocolKind::Opt3pc, 1, |_, req| match req {
        Request::PrepareToCommit { .. } => Some(Fault::ReplyLost),
        Request::Abort { .. } => Some(Fault::Lost),
        _ => None,
    });
    let tid = built.coordinator.begin().unwrap();
    built.coordinator.update(tid, insert(1)).unwrap();
    let told = built.coordinator.commit(tid);
    assert!(
        matches!(&told, Err(e) if e.is_disconnect()),
        "in doubt, not {told:?}"
    );
    assert!(matches!(
        built.workers[0].0.backup_state(tid),
        WireTxnState::PreparedToCommit(_)
    ));
    assert_eq!(built.coordinator.txn_outcome(tid), WireTxnState::Aborted);
    assert_terminates_as(&built, tid, WireTxnState::Aborted);
    built.stop();
}

/// A worker terminating on its own (`auto_consensus`) whose coordinator is
/// alive but still has the transaction in flight asks again until it hears
/// the outcome. Canon3pc, two copies: the first copy's vote is lost, so the
/// coordinator drops its session — the worker sees the disconnect and starts
/// termination — and aborts at the second copy, whose ABORT the network
/// holds until the worker has had time to ask.
#[test]
fn a_worker_asks_until_its_live_coordinator_decides() {
    let transport = Faulty::new(|to, req| match req {
        Request::Prepare { .. } if to == "in-flight-site-1" => Some(Fault::ReplyLost),
        Request::Abort { .. } if to == "in-flight-site-2" => Some(Fault::Parked),
        _ => None,
    });
    let built = built_with(
        "in-flight",
        transport.clone(),
        ProtocolKind::Canon3pc,
        2,
        LOSS_DEADLINE,
        true,
    );
    let tid = built.coordinator.begin().unwrap();
    built.coordinator.update(tid, insert(1)).unwrap();
    let client = {
        let coordinator = built.coordinator.clone();
        std::thread::spawn(move || coordinator.commit(tid))
    };
    transport.gate.await_parked();
    std::thread::sleep(Duration::from_millis(300));
    transport.gate.open();
    let told = client.join().unwrap();
    assert!(
        matches!(told, Err(DbError::TransactionAborted(_))),
        "{told:?}"
    );
    let (worker, engine) = &built.workers[0];
    let asked_until = Instant::now() + Duration::from_secs(10);
    while worker.backup_state(tid) != WireTxnState::Aborted && Instant::now() < asked_until {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(worker.backup_state(tid), WireTxnState::Aborted);
    assert!(engine.active_txns().is_empty());
    assert_eq!(engine.locks().held_count(), 0);
    built.stop();
}
