//! Coordinator↔worker sessions outlive transactions: on the steady-state
//! path no connection is opened, no thread is started and no handle is kept
//! per transaction — and a reused connection never changes what a failure
//! means. Only a clean session goes back to a site's idle list; a stale idle
//! session is not a dead site; a crashed coordinator closes every session,
//! idle ones included (that last scenario lives in `auto_consensus.rs`).

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::fault::FaultConfig;
use harbor_common::{DbError, Metrics, SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{
    rpc, Coordinator, CoordinatorConfig, Placement, ProtocolKind, Request, Response, UpdateRequest,
    Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{InMemNetwork, TcpTransport, Transport};
use harbor_storage::{LockKey, LockMode};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The tests below read `/proc/self` and build whole clusters: one at a
/// time, so that a neighbour's threads are not counted as a leak.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-session-reuse")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn insert(table: &str, id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: table.into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

fn count_rows(engine: &Arc<Engine>, table: &str) -> usize {
    let def = engine.table_def(table).unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        engine.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
    )
    .unwrap();
    harbor_exec::collect(&mut scan).unwrap().len()
}

fn cluster_counts(cluster: &Cluster, table: &str) -> Vec<usize> {
    cluster
        .worker_sites()
        .iter()
        .map(|s| count_rows(&cluster.engine(*s).unwrap(), table))
        .collect()
}

/// `(memory mappings, threads)` of this process.
fn proc_footprint() -> (usize, usize) {
    let maps = std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .count();
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    (maps, threads)
}

fn three_workers_config(faults: Option<FaultConfig>, rpc_deadline: Duration) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    cfg.faults = faults;
    cfg.rpc_deadline = rpc_deadline;
    cfg
}

fn three_workers(name: &str, faults: Option<FaultConfig>, rpc_deadline: Duration) -> Cluster {
    Cluster::build(temp_dir(name), three_workers_config(faults, rpc_deadline)).unwrap()
}

/// (a) Three thousand serial transactions on one cluster cost the process a
/// fixed number of connections, threads and mappings — not six mappings and
/// three threads each, which killed a cluster at `vm.max_map_count` after
/// about ten thousand. What it checks is mappings, threads and session
/// leases, not heap: per-transaction state such as the worker's
/// `dist_txns` and the coordinator's `decided_commits` still grows by one
/// entry a transaction, and nothing here would see it.
#[test]
fn a_long_lived_cluster_does_not_grow_per_transaction() {
    const TXNS: i64 = 3000;
    let _one = serial();
    let cluster = three_workers("steady", None, harbor_dist::DEFAULT_RPC_DEADLINE);
    let mut at_1000 = (0, 0);
    for i in 0..TXNS {
        cluster.run_txn(vec![insert("t", i)]).unwrap();
        if i == 999 {
            at_1000 = proc_footprint();
        }
    }
    let at_end = proc_footprint();
    assert!(
        at_end.0.abs_diff(at_1000.0) <= 16 && at_end.1.abs_diff(at_1000.1) <= 2,
        "(mappings, threads) went from {at_1000:?} after 1000 transactions to {at_end:?} after {TXNS}"
    );
    let m = cluster.coordinator().metrics().snapshot();
    let sites = cluster.worker_sites().len() as u64;
    assert!(
        m.sessions_opened <= 2 * sites,
        "{} sessions opened for {sites} sites",
        m.sessions_opened
    );
    assert_eq!(
        m.sessions_opened + m.sessions_reused,
        TXNS as u64 * sites,
        "one lease per transaction and site"
    );
    assert_eq!(cluster_counts(&cluster, "t"), vec![TXNS as usize; 3]);
}

/// A cluster with idle sessions stops without waiting out a poll slice:
/// every server closes its listener, which ends its accept loop at once, and
/// the coordinator hangs up its idle sessions, which ends the workers'
/// connection threads, and a worker's checkpointer is woken out of its
/// interval. Each cluster is stopped right after its sessions were
/// opened — the moment its accept loops have a whole 50 ms slice ahead of
/// them, so a server that waits for its slice takes 40 ms and more every
/// time. The fastest of five, because beside a busy CPU joining a dozen
/// threads is itself worth a few milliseconds now and then.
#[test]
fn a_cluster_with_idle_sessions_shuts_down_without_a_tick() {
    let _one = serial();
    let fastest = (0..5)
        .map(|i| {
            let mut cfg = three_workers_config(None, Duration::from_secs(5));
            cfg.checkpoint_every = Some(Duration::from_secs(1));
            let cluster = Cluster::build(temp_dir(&format!("tick{i}")), cfg).unwrap();
            cluster.run_txn(vec![insert("t", 1)]).unwrap();
            let stopping = Instant::now();
            cluster.shutdown();
            stopping.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(10),
        "shutting down 3 workers with idle sessions took {fastest:?} at best"
    );
}

/// (b) A worker that crashes under pooled sessions and rejoins at the same
/// address: the crash empties its idle list, and the first transaction
/// after the recovery commits everywhere on new sessions — no abort, no
/// `mark_dead`.
#[test]
fn a_recovered_worker_is_reached_on_new_sessions() {
    let _one = serial();
    let cluster = three_workers("rejoin", None, harbor_dist::DEFAULT_RPC_DEADLINE);
    let coordinator = cluster.coordinator();
    for i in 0..20 {
        cluster.run_txn(vec![insert("t", i)]).unwrap();
    }
    let victim = SiteId(1);
    assert_eq!(coordinator.idle_sessions(victim), 1);
    cluster.crash_worker(victim).unwrap();
    assert_eq!(
        coordinator.idle_sessions(victim),
        0,
        "pooled to a dead site"
    );
    for i in 20..30 {
        cluster.run_txn(vec![insert("t", i)]).unwrap();
    }
    cluster.recover_worker_harbor(victim).unwrap();
    let before = coordinator.metrics().snapshot();
    cluster.run_txn(vec![insert("t", 30)]).unwrap();
    let after = coordinator.metrics().snapshot().since(&before);
    assert_eq!(after.aborts, 0);
    assert_eq!(after.sessions_opened, 1, "the recovered site, and only it");
    assert_eq!(after.sessions_reused, 2);
    assert!(!coordinator.is_dead(victim));
    assert_eq!(cluster_counts(&cluster, "t"), vec![31; 3]);
    cluster.shutdown();
}

/// (c) A session on which a reply went missing is never used again. The
/// link from site 2 back to the coordinator is cut, so the worker executes
/// the next statement but its replies vanish; the liveness deadline expires,
/// the transaction aborts everywhere — at site 2 through the closed
/// connection — and once the link heals the site is reached on a new
/// session, where the next reply read really is the next request's.
#[test]
fn a_session_that_missed_a_reply_is_not_reused() {
    let _one = serial();
    let deadline = Duration::from_millis(300);
    let cluster = three_workers("partition", Some(FaultConfig::quiet(7)), deadline);
    let coordinator = cluster.coordinator();
    let chaos = cluster.chaos().unwrap();
    cluster.faults().set_enabled(true);
    cluster.run_txn(vec![insert("t", 0)]).unwrap();
    let cut = SiteId(2);
    assert_eq!(coordinator.idle_sessions(cut), 1);

    chaos.partition(&["site-2"], &["coordinator"], false);
    let before = coordinator.metrics().snapshot();
    let started = Instant::now();
    let err = cluster.run_txn(vec![insert("t", 1)]).unwrap_err();
    assert!(matches!(err, DbError::TransactionAborted(_)), "{err}");
    assert!(started.elapsed() >= deadline, "aborted before the deadline");
    let during = coordinator.metrics().snapshot().since(&before);
    assert_eq!(during.rpc_timeouts, 1);
    assert!(coordinator.is_dead(cut));
    assert_eq!(coordinator.idle_sessions(cut), 0);
    chaos.heal();

    // Site 2 executed the insert; the dropped session is what rolls it back
    // there (the coordinator's ABORT had no session left to travel on).
    let engine = cluster.engine(cut).unwrap();
    let rolled_back = Instant::now() + Duration::from_secs(5);
    while !engine.active_txns().is_empty() || engine.locks().held_count() != 0 {
        assert!(
            Instant::now() < rolled_back,
            "site 2 never rolled back the transaction of the closed session"
        );
        std::thread::yield_now();
    }
    // It missed nothing that committed, so it may simply serve again.
    coordinator.mark_alive(cut);
    let before = coordinator.metrics().snapshot();
    cluster.run_txn(vec![insert("t", 2)]).unwrap();
    let after = coordinator.metrics().snapshot().since(&before);
    assert_eq!(after.sessions_opened, 1, "site 2 needs a new session");
    assert_eq!(after.sessions_reused, 2);
    assert_eq!(cluster_counts(&cluster, "t"), vec![2; 3]);
    cluster.shutdown();
}

/// (c') A silent buddy is counted on the site that waited. Site 2's frames to
/// a recovering site 1 vanish while its socket stays open: each of site 1's
/// waits on it expires after the liveness deadline, is a disconnect, and
/// recovery fails over to site 3's copy and completes — with the expiries
/// on the recovering site's own `rpc_timeouts`.
#[test]
fn a_silent_buddy_is_counted_on_the_recovering_site() {
    let _one = serial();
    let deadline = Duration::from_millis(300);
    let cluster = three_workers("silent-buddy", Some(FaultConfig::quiet(7)), deadline);
    let chaos = cluster.chaos().unwrap();
    cluster.faults().set_enabled(true);
    for id in 0..10 {
        cluster.run_txn(vec![insert("t", id)]).unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    for id in 10..30 {
        cluster.run_txn(vec![insert("t", id)]).unwrap();
    }
    chaos.partition(&["site-2"], &["site-1"], false);
    cluster.recover_worker_harbor(victim).unwrap();
    chaos.heal();
    let waited = cluster.worker_metrics(victim).unwrap().snapshot();
    assert!(waited.rpc_timeouts >= 1, "{} expiries", waited.rpc_timeouts);
    assert!(!cluster.coordinator().is_dead(victim));
    assert_eq!(cluster_counts(&cluster, "t"), vec![30; 3]);
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Coordinator-level scenarios: workers are restarted, and objects brought
// online, behind the coordinator's back.
// ----------------------------------------------------------------------

struct Sites {
    dir: PathBuf,
    transport: Arc<dyn Transport>,
    coordinator: Arc<Coordinator>,
    workers: HashMap<SiteId, Arc<Worker>>,
    engines: HashMap<SiteId, Arc<Engine>>,
}

fn worker_config(site: SiteId, addr: String) -> WorkerConfig {
    WorkerConfig {
        site,
        addr,
        protocol: ProtocolKind::Opt3pc,
        checkpoint_every: None,
        peers: HashMap::new(),
        coordinator: None,
        auto_consensus: false,
        faults: Default::default(),
    }
}

/// An Opt3pc coordinator and `n` workers, table `t` replicated on all, in
/// memory or over loopback TCP (every site on a port of the kernel's
/// choosing).
fn sites(name: &str, n: u16, tcp: bool) -> Sites {
    let dir = temp_dir(name);
    let transport: Arc<dyn Transport> = if tcp {
        Arc::new(TcpTransport::new(Metrics::new()))
    } else {
        Arc::new(InMemNetwork::new(Metrics::new()))
    };
    let addr_of = |label: String| if tcp { "127.0.0.1:0".into() } else { label };
    let all: Vec<SiteId> = (1..=n).map(SiteId).collect();
    let mut placement = Placement::new();
    let mut workers = HashMap::new();
    let mut engines = HashMap::new();
    for site in &all {
        let cfg = worker_config(*site, addr_of(format!("{name}-site-{}", site.0)));
        let engine = Engine::open(
            dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(*site, StorageConfig::for_tests()),
        )
        .unwrap();
        engine
            .create_table("t", TableSpec::small("t").user_fields)
            .unwrap();
        let worker = Worker::start(engine.clone(), transport.clone(), cfg).unwrap();
        placement.set_address(*site, worker.addr());
        workers.insert(*site, worker);
        engines.insert(*site, engine);
    }
    placement.add_replicated_table("t", &all);
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: addr_of(format!("{name}-coordinator")),
            protocol: ProtocolKind::Opt3pc,
            log_dir: None,
            group_commit: harbor_wal::GroupCommit::enabled(),
            disk: harbor_common::DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            faults: Default::default(),
            epoch_commit: None,
            degrade_read_only: false,
        },
        placement,
        transport.clone(),
        Metrics::new(),
    )
    .unwrap();
    Sites {
        dir,
        transport,
        coordinator,
        workers,
        engines,
    }
}

impl Sites {
    fn txn(&self, id: i64) -> Result<Timestamp, DbError> {
        let tid = self.coordinator.begin()?;
        self.coordinator.update(tid, insert("t", id))?;
        self.coordinator.commit(tid)
    }

    fn teardown(self) {
        self.coordinator.crash();
        for w in self.workers.values() {
            w.crash();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A stale idle session is not a dead site. The worker process is replaced
/// at the same address without the coordinator hearing of it, which leaves
/// a dead session in the idle list; the next transaction finds it closed
/// before anything has travelled on it, sends on a new connection instead,
/// and commits.
fn stale_idle_session(name: &str, tcp: bool) {
    let _one = serial();
    let mut f = sites(name, 1, tcp);
    let site = SiteId(1);
    f.txn(1).unwrap();
    assert_eq!(f.coordinator.idle_sessions(site), 1);
    let addr = f.workers[&site].addr().to_string();
    f.workers[&site].crash();
    let restarted = Worker::start(
        f.engines[&site].clone(),
        f.transport.clone(),
        worker_config(site, addr),
    )
    .unwrap();
    f.workers.insert(site, restarted);

    let before = f.coordinator.metrics().snapshot();
    f.txn(2).unwrap();
    let after = f.coordinator.metrics().snapshot().since(&before);
    assert_eq!((after.sessions_reused, after.sessions_opened), (1, 1));
    assert_eq!(after.aborts, 0);
    assert!(!f.coordinator.is_dead(site));
    assert_eq!(count_rows(&f.engines[&site], "t"), 2);
    // A worker that is really gone is still found out: on a new connection
    // nothing excuses the failure.
    f.workers[&site].crash();
    assert!(f.txn(3).is_err());
    assert!(f.coordinator.is_dead(site));
    f.teardown();
}

#[test]
fn a_stale_idle_session_is_not_a_dead_site() {
    stale_idle_session("stale", false);
}

/// Over TCP a write to a peer that has gone succeeds and the loss shows only
/// at the read — too late to send the frame again. The lease asks the
/// socket before it hands anything over.
#[test]
fn a_stale_idle_tcp_session_is_not_a_dead_site() {
    stale_idle_session("stale-tcp", true);
}

/// Fig 5-4 under fire: `t` on site 2 comes online while a transaction that
/// already wrote `t` is open, the forward of its backlog fails on a table
/// lock held at site 2 (as a recoverer's would be), and the client's next
/// statement races the forwarder for the site. Both go through the
/// transaction's one session to site 2, so the site sees one BEGIN, and the
/// doomed transaction's ABORT travels on that same session: nothing of it —
/// no lock, no open transaction — outlives it anywhere.
#[test]
fn a_failed_join_forward_leaves_nothing_open_on_the_joining_site() {
    let _one = serial();
    let f = sites("join", 2, false);
    let c = &f.coordinator;
    let joining = SiteId(2);
    let engine = f.engines[&joining].clone();
    f.txn(0).unwrap();
    c.mark_dead(joining);
    let tid = c.begin().unwrap();
    c.update(tid, insert("t", 1)).unwrap();

    let table = LockKey::Table(engine.table_def("t").unwrap().id);
    let recoverer = harbor_common::TransactionId::from_parts(joining, 99);
    engine
        .locks()
        .acquire(recoverer, table, LockMode::Shared)
        .unwrap();
    let before = c.metrics().snapshot();
    std::thread::scope(|scope| {
        let announce = scope.spawn(|| {
            let mut chan = f.transport.connect(c.addr()).unwrap();
            let online = Request::RecComingOnline {
                site: joining,
                table: "t".into(),
            };
            rpc(
                chan.as_mut(),
                &online,
                DEFAULT_RPC_DEADLINE,
                &Metrics::new(),
            )
            .unwrap()
        });
        // The forwarder is inside its session to site 2 once the site has
        // the transaction open; the client's next statement arrives then.
        while engine.txn_status(tid).is_none() {
            std::thread::yield_now();
        }
        let racing = c.update(tid, insert("t", 2));
        assert!(racing.is_err(), "the doomed transaction took a statement");
        assert!(matches!(announce.join().unwrap(), Response::AllDone));
    });
    let _ = c.abort(tid);
    engine.locks().release_all(recoverer);

    let during = c.metrics().snapshot().since(&before);
    assert_eq!(during.sessions_opened, 1, "one session to the joining site");
    assert!(!c.is_dead(joining), "the join itself succeeded");
    assert_eq!(c.inflight_txns(), 0);
    for (site, e) in &f.engines {
        assert!(e.active_txns().is_empty(), "{site} still has {tid} open");
        assert_eq!(e.locks().held_count(), 0, "{site} still holds locks");
        assert_eq!(count_rows(e, "t"), 1, "{site}");
    }
    // Both sessions of the aborted transaction were acknowledged and pooled.
    assert_eq!(c.idle_sessions(SiteId(1)), 1);
    assert_eq!(c.idle_sessions(joining), 1);
    f.txn(3).unwrap();
    assert_eq!(count_rows(&engine, "t"), 2);
    f.teardown();
}
