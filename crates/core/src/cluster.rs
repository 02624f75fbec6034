//! The cluster facade: builds a coordinator plus N worker sites on one
//! transport, replicating tables across all workers (the thesis evaluation
//! topology: one coordinator, 2–3 workers, everything replicated).
//!
//! This is the crate's quickstart surface: build a cluster, run update
//! transactions, crash a worker, recover it with HARBOR or ARIES, and read
//! historically — all in a few lines (see `examples/quickstart.rs`).

use crate::recovery::{
    quarantine_site, recover_object, recover_site, RecoveryContext, RecoveryReport, ScrubReport,
};
use harbor_common::fault::{Armed, FaultConfig, FaultPlan};
use harbor_common::{
    DbError, DbResult, FieldType, Metrics, SiteId, StorageConfig, Timestamp, Tuple, Value,
};
use harbor_dist::{
    Coordinator, CoordinatorConfig, CrashPoint, Placement, ProtocolKind, SharedPlacement,
    UpdateRequest, Worker, WorkerConfig,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{ChaosTransport, InMemNetwork, TcpTransport, Transport};
use harbor_storage::PagePolicy;
use harbor_wal::aries::AriesReport;
use harbor_wal::GroupCommit;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Which transport the cluster runs on.
#[derive(Clone, Copy, Debug)]
pub enum TransportKind {
    /// In-process channels; optional injected per-message latency and
    /// finite link bandwidth (bytes/second) to model the paper's LAN.
    InMem {
        latency: Option<Duration>,
        bandwidth: Option<u64>,
    },
    /// Real loopback TCP sockets (the thesis' own model).
    Tcp,
}

/// One table to create on every worker.
#[derive(Clone, Debug)]
pub struct TableSpec {
    pub name: String,
    pub user_fields: Vec<(String, FieldType)>,
}

impl TableSpec {
    /// The evaluation schema: 16 four-byte-equivalent fields including the
    /// two timestamps (§6.2) — here the i64 key plus 13 i32 payload fields.
    pub fn paper_table(name: &str) -> Self {
        let mut fields = vec![("id".to_string(), FieldType::Int64)];
        for i in 0..13 {
            fields.push((format!("f{i}"), FieldType::Int32));
        }
        TableSpec {
            name: name.to_string(),
            user_fields: fields,
        }
    }

    /// A minimal two-column table for tests.
    pub fn small(name: &str) -> Self {
        TableSpec {
            name: name.to_string(),
            user_fields: vec![
                ("id".to_string(), FieldType::Int64),
                ("v".to_string(), FieldType::Int32),
            ],
        }
    }
}

/// Cluster construction options.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub protocol: ProtocolKind,
    pub num_workers: usize,
    pub storage: StorageConfig,
    pub group_commit: GroupCommit,
    /// Periodic checkpoint interval at workers (None = manual only).
    pub checkpoint_every: Option<Duration>,
    pub transport: TransportKind,
    pub tables: Vec<TableSpec>,
    /// Workers run the consensus protocol automatically on coordinator
    /// disconnect (3PC).
    pub auto_consensus: bool,
    /// A recovering site recovers its objects in parallel (§5.1) or one at
    /// a time — the comparison of Figs 6-4/6-5.
    pub parallel_recovery: bool,
    /// Deterministic fault injection: when set, the cluster's one
    /// [`FaultPlan`] decides every send on an inter-site link (each goes
    /// through a [`ChaosTransport`]), every worker's heap-file page I/O and
    /// every crash point. The plan is built *off*, so bootstrap is
    /// fault-free; tests switch it through [`Cluster::faults`]. It outlives
    /// worker restarts, so a seed replays one byte-identical fault trace.
    /// Without it the crash points are still asked, of a plan that draws
    /// nothing.
    pub faults: Option<FaultConfig>,
    /// Liveness deadline for commit-protocol round trips and recovery scan
    /// frames. Must comfortably exceed the engine's lock timeout, which is
    /// a *normal* source of slow replies.
    pub rpc_deadline: Duration,
    /// Epoch group commit at the coordinator (2PC variants only; `None` =
    /// the serial paper-faithful commit path).
    pub epoch_commit: Option<harbor_dist::EpochCommitConfig>,
    /// Refuse updates for an object down to its last live copy (graceful
    /// degradation to read-only while the supervisor restores K). Off by
    /// default: the paper's crash-recovery experiments commit below K.
    pub degrade_read_only: bool,
}

impl ClusterConfig {
    pub fn new(protocol: ProtocolKind, num_workers: usize) -> Self {
        ClusterConfig {
            protocol,
            num_workers,
            storage: StorageConfig::default(),
            group_commit: GroupCommit::enabled(),
            checkpoint_every: None,
            transport: TransportKind::InMem {
                latency: None,
                bandwidth: None,
            },
            tables: Vec::new(),
            auto_consensus: false,
            parallel_recovery: true,
            faults: None,
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            epoch_commit: None,
            degrade_read_only: false,
        }
    }

    /// Small storage, fast disk, two workers — unit/integration defaults.
    pub fn for_tests(protocol: ProtocolKind) -> Self {
        let mut cfg = Self::new(protocol, 2);
        cfg.storage = StorageConfig::for_tests();
        cfg.tables = vec![TableSpec::small("sales")];
        cfg
    }
}

/// A running cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    dir: PathBuf,
    transport: Arc<dyn Transport>,
    /// The fault plan every site asks, at its [`CrashPoint`]s and — when
    /// the cluster was built with [`ClusterConfig::faults`] — at every send
    /// and heap-file page I/O.
    faults: Arc<FaultPlan>,
    /// The chaos network every site talks through (`None` without
    /// [`ClusterConfig::faults`]).
    chaos: Option<Arc<ChaosTransport>>,
    /// Counts every message/byte crossing the cluster's transport.
    net_metrics: Metrics,
    /// The live placement catalog, shared with the coordinator: membership
    /// mutations made through either handle are visible to both.
    placement: SharedPlacement,
    coordinator: Arc<Coordinator>,
    /// The running workers. A worker holds its engine, so the site's
    /// volatile state goes when the last handle to it does.
    workers: Mutex<HashMap<SiteId, Arc<Worker>>>,
    crashed: Mutex<HashSet<SiteId>>,
    /// Optional transaction router: when set, [`Cluster::run_txn`] submits
    /// through it instead of driving the coordinator directly. The chaos
    /// soak uses this to push the workload through the front-door serving
    /// layer over real sockets without the harness drawing any extra
    /// randomness — a seed replays the same schedule routed or not.
    txn_router: Mutex<Option<TxnRouter>>,
}

/// A pluggable transaction submission path (see [`Cluster::set_txn_router`]).
pub type TxnRouter = Arc<dyn Fn(Vec<UpdateRequest>) -> DbResult<Timestamp> + Send + Sync>;

/// Site id of the coordinator.
pub const COORDINATOR_SITE: SiteId = SiteId(0);

/// What a site is called: its directory under the cluster's, its identity
/// on the chaos layer and its in-process address.
fn site_name(site: SiteId) -> String {
    match site {
        COORDINATOR_SITE => "coordinator".to_string(),
        _ => format!("site-{}", site.0),
    }
}

/// `site`'s identity-carrying view of the transport: chaos-wrapped when
/// fault injection is on, the base transport otherwise.
fn transport_as(
    chaos: &Option<Arc<ChaosTransport>>,
    base: &Arc<dyn Transport>,
    site: SiteId,
) -> Arc<dyn Transport> {
    match chaos {
        Some(ct) => Arc::new(ct.for_site(site, &site_name(site))),
        None => base.clone(),
    }
}

/// Binds the listener of a site that has no address yet: TCP port 0, so
/// the address book can be written once the port is known, or the site's
/// name in-process.
fn bind(
    kind: TransportKind,
    transport: &dyn Transport,
    site: SiteId,
) -> DbResult<Box<dyn harbor_net::Listener>> {
    match kind {
        TransportKind::Tcp => transport.listen("127.0.0.1:0"),
        TransportKind::InMem { .. } => transport.listen(&site_name(site)),
    }
}

impl Cluster {
    /// Builds and starts the cluster under `dir`.
    pub fn build(dir: impl AsRef<Path>, cfg: ClusterConfig) -> DbResult<Cluster> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let net_metrics = Metrics::new();
        let base: Arc<dyn Transport> = match cfg.transport {
            TransportKind::InMem {
                latency: Some(l),
                bandwidth: Some(b),
            } => Arc::new(InMemNetwork::with_link(net_metrics.clone(), l, b)),
            TransportKind::InMem {
                latency: Some(l),
                bandwidth: None,
            } => Arc::new(InMemNetwork::with_latency(net_metrics.clone(), l)),
            TransportKind::InMem { .. } => Arc::new(InMemNetwork::new(net_metrics.clone())),
            TransportKind::Tcp => Arc::new(TcpTransport::new(net_metrics.clone())),
        };
        // Every site talks through its own identity-carrying view of the
        // one shared chaos layer, so fault decisions and partitions are
        // keyed on logical site names, not transport addresses. The plan
        // starts off: bootstrap is always fault-free.
        let faults = Arc::new(FaultPlan::new(cfg.faults.clone().unwrap_or_default()));
        let chaos = cfg.faults.is_some().then(|| {
            Arc::new(ChaosTransport::new(
                base.clone(),
                faults.clone(),
                net_metrics.clone(),
            ))
        });
        let coord_transport = transport_as(&chaos, &base, COORDINATOR_SITE);
        // Bind all listeners first so TCP port 0 resolves before the
        // address book is built.
        let coord_listener = bind(cfg.transport, coord_transport.as_ref(), COORDINATOR_SITE)?;
        let mut worker_listeners = Vec::new();
        for i in 1..=cfg.num_workers {
            let site = SiteId(i as u16);
            let wt = transport_as(&chaos, &base, site);
            let l = bind(cfg.transport, wt.as_ref(), site)?;
            worker_listeners.push((site, l, wt));
        }
        let mut placement = Placement::new();
        placement.set_coordinator_addr(&coord_listener.local_addr());
        for (site, l, _) in &worker_listeners {
            placement.set_address(*site, &l.local_addr());
        }
        let worker_sites: Vec<SiteId> = worker_listeners.iter().map(|(s, _, _)| *s).collect();
        for spec in &cfg.tables {
            placement.add_replicated_table(&spec.name, &worker_sites);
        }
        // Coordinator. It shares the SAME catalog handle the cluster keeps,
        // so membership changes (join/decommission/re-replication) are never
        // stale on either side.
        let placement = SharedPlacement::new(placement);
        let coordinator = Coordinator::start_with_listener(
            CoordinatorConfig {
                site: COORDINATOR_SITE,
                addr: coord_listener.local_addr(),
                protocol: cfg.protocol,
                log_dir: Some(dir.join(site_name(COORDINATOR_SITE))),
                group_commit: cfg.group_commit,
                disk: cfg.storage.disk,
                rpc_deadline: cfg.rpc_deadline,
                faults: faults.clone(),
                epoch_commit: cfg.epoch_commit,
                degrade_read_only: cfg.degrade_read_only,
            },
            placement.clone(),
            coord_transport,
            Metrics::new(),
            coord_listener,
        )?;
        let cluster = Cluster {
            cfg,
            dir,
            transport: base,
            faults,
            chaos,
            net_metrics,
            placement,
            coordinator,
            workers: Mutex::new(HashMap::new()),
            crashed: Mutex::new(HashSet::new()),
            txn_router: Mutex::new(None),
        };
        for (site, listener, wt) in worker_listeners {
            cluster.start_worker(site, listener, wt)?;
        }
        Ok(cluster)
    }

    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// The live, shared placement catalog (see [`SharedPlacement`]). Use
    /// [`SharedPlacement::snapshot`] for a point-in-time [`Placement`].
    pub fn placement(&self) -> &SharedPlacement {
        &self.placement
    }

    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The cluster's fault plan (see [`ClusterConfig::faults`]): switch it,
    /// arm it, read its trace. The same seed replays the identical trace.
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// The chaos network, when the cluster was built with
    /// [`ClusterConfig::faults`]: partition and heal through this handle.
    pub fn chaos(&self) -> Option<&Arc<ChaosTransport>> {
        self.chaos.as_ref()
    }

    /// Arms a crash point for `site` on the cluster's plan.
    pub fn arm_crash(&self, site: SiteId, point: CrashPoint) {
        self.faults.arm(site, Armed::Crash(point));
    }

    /// `site`'s own view of the transport (see [`transport_as`]).
    fn transport_of(&self, site: SiteId) -> Arc<dyn Transport> {
        transport_as(&self.chaos, &self.transport, site)
    }

    /// Transport-level counters (messages/bytes for the whole cluster).
    pub fn net_metrics(&self) -> &Metrics {
        &self.net_metrics
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn worker_sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.workers.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// The worker server handle of a live worker (consensus tests drive
    /// `resolve_by_consensus` through this).
    pub fn worker(&self, site: SiteId) -> DbResult<Arc<Worker>> {
        let running = self.workers.lock().get(&site).cloned();
        running.ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))
    }

    /// The engine of a live worker.
    pub fn engine(&self, site: SiteId) -> DbResult<Arc<Engine>> {
        Ok(self.worker(site)?.engine().clone())
    }

    /// Per-site metrics.
    pub fn worker_metrics(&self, site: SiteId) -> DbResult<Metrics> {
        Ok(self.worker(site)?.engine().metrics().clone())
    }

    // ------------------------------------------------------------------
    // Convenience transaction helpers
    // ------------------------------------------------------------------

    /// Runs one transaction consisting of the given update requests. A
    /// failed update aborts the transaction before surfacing the error, so
    /// a fault mid-transaction can never leak an open transaction (and its
    /// locks) into the next operation.
    pub fn run_txn(&self, ops: Vec<UpdateRequest>) -> DbResult<Timestamp> {
        let router = self.txn_router.lock().clone();
        if let Some(route) = router {
            return route(ops);
        }
        let tid = self.coordinator.begin()?;
        for op in ops {
            if let Err(e) = self.coordinator.update(tid, op) {
                let _ = self.coordinator.abort(tid);
                return Err(e);
            }
        }
        self.coordinator.commit(tid)
    }

    /// Installs (or clears, with `None`) the transaction router consulted
    /// by [`Cluster::run_txn`]. Routing is transparent to the chaos
    /// harness: it changes *where* a transaction enters the system, never
    /// how many random draws the schedule makes, so pinned seeds replay
    /// byte-identically with or without a router.
    pub fn set_txn_router(&self, router: Option<TxnRouter>) {
        *self.txn_router.lock() = router;
    }

    /// Inserts one row in its own transaction.
    pub fn insert_one(&self, table: &str, values: Vec<Value>) -> DbResult<Timestamp> {
        self.run_txn(vec![UpdateRequest::Insert {
            table: table.to_string(),
            values,
        }])
    }

    /// Historical read against any live replica.
    pub fn read_historical(&self, table: &str, as_of: Timestamp) -> DbResult<Vec<Tuple>> {
        self.coordinator.read_historical(table, as_of, |_| {})
    }

    /// Latest-committed snapshot: a historical read just below the oldest
    /// commit time still on its way to the workers (`now - 1` when none is).
    pub fn read_latest(&self, table: &str) -> DbResult<Vec<Tuple>> {
        let settled = self.coordinator.authority().watermark();
        self.read_historical(table, settled.prev())
    }

    // ------------------------------------------------------------------
    // Failure and recovery
    // ------------------------------------------------------------------

    /// Fail-stop crash of one worker: all volatile state (buffer pool,
    /// locks, in-memory lists, unforced log tail) is dropped.
    pub fn crash_worker(&self, site: SiteId) -> DbResult<()> {
        let running = self.workers.lock().remove(&site);
        let worker = running.ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))?;
        // Hung up on between crash and join, no connection waits out a slice.
        worker.initiate_crash();
        self.coordinator.mark_dead(site);
        worker.crash();
        self.crashed.lock().insert(site);
        drop(worker); // engine dropped: unflushed pages are gone
        Ok(())
    }

    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.crashed.lock().contains(&site)
    }

    /// Tears down workers that crashed *themselves* at an armed crash point
    /// (a fired [`CrashPoint`] only sets the worker's shutdown
    /// flag — the site's threads cannot reap their own handle). Returns the
    /// sites reaped. Harness code calls this after driving traffic.
    pub fn reap_scheduled_crashes(&self) -> Vec<SiteId> {
        let dead: Vec<SiteId> = self
            .workers
            .lock()
            .iter()
            .filter(|(_, w)| w.is_shutdown())
            .map(|(s, _)| *s)
            .collect();
        for site in &dead {
            let _ = self.crash_worker(*site);
        }
        dead
    }

    /// Starts the worker at `site` — built, restarted or joining, it is the
    /// same site: its engine opened under the cluster's directory, every
    /// table of the cluster created on it unless it is there, and a server
    /// on `listener` whose peers and coordinator are the catalog's.
    fn start_worker(
        &self,
        site: SiteId,
        listener: Box<dyn harbor_net::Listener>,
        transport: Arc<dyn Transport>,
    ) -> DbResult<()> {
        let cfg = &self.cfg;
        let opts = EngineOptions {
            site,
            storage: cfg.storage.clone(),
            logging: cfg.protocol.workers_log(),
            group_commit: cfg.group_commit,
            policy: PagePolicy::steal_no_force(),
            faults: self.cfg.faults.is_some().then(|| self.faults.clone()),
        };
        let engine = Engine::open(self.dir.join(site_name(site)), opts)?;
        for spec in &cfg.tables {
            if engine.table_def(&spec.name).is_none() {
                engine.create_table(&spec.name, spec.user_fields.clone())?;
            }
        }
        let (peers, coordinator) = self.placement.read(|catalog| {
            let members = catalog.member_sites().into_iter();
            let peers = members.filter_map(|s| Some((s, catalog.address(s).ok()?.to_string())));
            let coordinator = catalog.coordinator_addr().ok().map(str::to_string);
            (peers.collect(), coordinator)
        });
        let worker_cfg = WorkerConfig {
            site,
            addr: listener.local_addr(),
            protocol: cfg.protocol,
            checkpoint_every: cfg.checkpoint_every,
            peers,
            coordinator,
            auto_consensus: cfg.auto_consensus,
            faults: self.faults.clone(),
        };
        let worker = Worker::start_with_listener(engine, transport, worker_cfg, listener)?;
        self.workers.lock().insert(site, worker);
        Ok(())
    }

    /// Restarts a crashed worker's engine and server, at the address it
    /// had, without running any recovery (building block for both recovery
    /// paths).
    fn restart_worker(&self, site: SiteId) -> DbResult<()> {
        if !self.crashed.lock().contains(&site) {
            return Err(DbError::internal(format!("{site} is not crashed")));
        }
        let transport = self.transport_of(site);
        let listener = transport.listen(&self.placement.address(site)?)?;
        self.start_worker(site, listener, transport)
    }

    /// What a copy on `site` needs to catch up by querying its buddies —
    /// after a crash, to repair a page, as a new site or as a new replica:
    /// the site's running engine, the catalog as it stands, and the sites
    /// the harness knows to be down.
    fn recovery_context(&self, site: SiteId) -> DbResult<RecoveryContext> {
        let mut down = self.crashed.lock().clone();
        down.remove(&site);
        Ok(RecoveryContext {
            engine: self.engine(site)?,
            site,
            placement: self.placement.snapshot(),
            transport: self.transport_of(site),
            down,
            rpc_deadline: self.cfg.rpc_deadline,
            parallel_objects: self.cfg.parallel_recovery,
            faults: self.faults.clone(),
            died_at: Default::default(),
        })
    }

    /// Ends a recovery of `site`: a recovery point armed for it that the
    /// recovery did not reach is disarmed, so it cannot fire in a later one.
    fn end_recovery(&self, site: SiteId) {
        self.faults.disarm(site, CrashPoint::is_recovery_point);
    }

    /// Brings a crashed worker back online with HARBOR's three-phase
    /// replica-query recovery (the site serves forwarded updates while
    /// joining pending transactions). On error the site stays crashed — the
    /// worker server it briefly started is torn down so a later attempt can
    /// rebind.
    pub fn recover_worker_harbor(&self, site: SiteId) -> DbResult<RecoveryReport> {
        self.restart_worker(site)?;
        let result = self.recovery_context(site).and_then(|ctx| {
            // Under a fault plan, the pages that survived the crash may be
            // checksum-corrupt; Phase 1's local restore would trip over
            // them. Quarantine them first: the rewound objects are then
            // repaired by this one recovery.
            if self.cfg.faults.is_some() {
                quarantine_site(&ctx, &mut ScrubReport::default())?;
            }
            recover_site(&ctx)
        });
        self.end_recovery(site);
        match result {
            Ok(report) => {
                self.crashed.lock().remove(&site);
                // `RecComingOnline` already marked the site alive per object.
                Ok(report)
            }
            Err(e) => {
                // The recovering site "crashes" again: stop its server and
                // drop its engine so only durable state survives.
                if let Some(w) = self.workers.lock().remove(&site) {
                    w.crash();
                }
                self.coordinator.mark_dead(site);
                Err(e)
            }
        }
    }

    /// Scrubs a *live* worker's disk: checksums every data page, heals or
    /// quarantines the corrupt ones ([`quarantine_site`]), then repairs
    /// each rewound object with [`recover_object`], periodic checkpoints
    /// suspended. The site must be quiesced — the chaos harness scrubs after
    /// resolving pending transactions and before any crash-recovery attempt.
    /// A repair that fails after its rewind fail-stops the site, so a
    /// half-repaired object is never served; the next recovery finishes it.
    pub fn scrub_worker(&self, site: SiteId) -> DbResult<ScrubReport> {
        let ctx = self.recovery_context(site)?;
        let checkpointer = ctx.engine.checkpointer();
        checkpointer.set_suspended(true);
        let mut report = ScrubReport::default();
        let scrubbed = quarantine_site(&ctx, &mut report).and_then(|()| {
            for repair in &mut report.repairs {
                *repair = recover_object(&ctx, &repair.table)?;
            }
            Ok(())
        });
        checkpointer.set_suspended(false);
        if !report.repairs.is_empty() {
            self.end_recovery(site);
        }
        match scrubbed {
            Err(e) if !report.repairs.is_empty() => {
                self.crash_worker(site)?;
                Err(e)
            }
            scrubbed => scrubbed.map(|()| report),
        }
    }

    /// Brings a crashed worker back online with the ARIES baseline: local
    /// log replay only (the thesis recovery experiments quiesce update
    /// traffic, so no distributed catch-up is involved).
    pub fn recover_worker_aries(&self, site: SiteId) -> DbResult<AriesReport> {
        self.restart_worker(site)?;
        let report = self.engine(site)?.aries_restart()?;
        self.crashed.lock().remove(&site);
        self.coordinator.mark_alive(site);
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Online membership: join, decommission, re-replication
    // ------------------------------------------------------------------

    /// Joins a brand-new site into the cluster under live update traffic:
    /// allocates a full replica of every table in the placement catalog,
    /// bootstraps each object with the Phase-2 catch-up against live
    /// buddies, then runs the Phase-3 lock-and-drain handshake
    /// so the new copies go current and votable. On error the site is
    /// evicted again and the cluster is exactly as before.
    pub fn join_worker(&self, site: SiteId) -> DbResult<RecoveryReport> {
        if site == COORDINATOR_SITE {
            return Err(DbError::internal("site 0 is the coordinator"));
        }
        if self.workers.lock().contains_key(&site) || self.crashed.lock().contains(&site) {
            return Err(DbError::internal(format!(
                "{site} already exists; use recover_worker_harbor for crashed sites"
            )));
        }
        let wt = self.transport_of(site);
        let listener = bind(self.cfg.transport, wt.as_ref(), site)?;
        let addr = listener.local_addr();
        // Catalog first: `admit_site` registers the address, allocates a
        // joining full copy of every table, and marks the site dead so no
        // update routes to it before the per-object announcements. From
        // here on, any failure must evict to restore the old catalog.
        self.coordinator.admit_site(site, &addr)?;
        // A fresh engine's checkpoint is zero, so Phase 2 copies each
        // object's entire history — recovery *is* replica creation.
        let joined = self.start_worker(site, listener, wt).and_then(|()| {
            for w in self.workers.lock().values() {
                w.add_peer(site, &addr);
            }
            recover_site(&self.recovery_context(site)?)
        });
        self.end_recovery(site);
        if joined.is_err() {
            if let Some(w) = self.workers.lock().remove(&site) {
                w.crash();
            }
            let _ = self.coordinator.evict_site(site);
            for w in self.workers.lock().values() {
                w.remove_peer(site);
            }
        }
        joined
    }

    /// Gracefully removes a site: drains its role in in-flight commit
    /// epochs at the coordinator, re-homes its parts in the catalog (every
    /// table must retain at least one other full copy), stops its server,
    /// and removes it from every peer's address book. Returns the affected
    /// tables. A *crashed* site skips the drain — it holds no live role.
    pub fn decommission_worker(&self, site: SiteId) -> DbResult<Vec<String>> {
        let affected = if self.crashed.lock().contains(&site) {
            let affected = self.coordinator.evict_site(site)?;
            self.crashed.lock().remove(&site);
            affected
        } else {
            let affected = self.coordinator.decommission_site(site)?;
            if let Some(w) = self.workers.lock().remove(&site) {
                w.stop();
            }
            affected
        };
        for w in self.workers.lock().values() {
            w.remove_peer(site);
        }
        Ok(affected)
    }

    /// Re-creates one table's replica on live member `target` (which must
    /// not already hold the object): marks the copy joining in the catalog,
    /// bootstraps it with Phase-2/Phase-3 recovery against live buddies,
    /// and lets the `RecComingOnline` announcement complete the join. This
    /// is the supervisor's repair primitive for objects below their K
    /// floor. On error the joining copy is withdrawn from the catalog.
    pub fn replicate_table_to(&self, table: &str, target: SiteId) -> DbResult<()> {
        // The target is up, and the table is there: a worker is started
        // with every table of the cluster created on it, whichever of them
        // it holds a copy of.
        let engine = self.engine(target)?;
        self.coordinator.begin_bootstrap(target, table)?;
        // The context is taken with the joining copy in the catalog. Periodic
        // checkpoints stay off for the bootstrap (§5.2); the per-object
        // checkpoint recorded by recovery carries the new copy until the
        // next global checkpoint subsumes it.
        engine.checkpointer().set_suspended(true);
        let copied = self
            .recovery_context(target)
            .and_then(|ctx| recover_object(&ctx, table));
        engine.checkpointer().set_suspended(false);
        if copied.is_err() {
            self.coordinator.abandon_bootstrap(target, table);
        }
        copied.map(|_| ())
    }

    /// Stops everything (graceful end of an experiment). Every site is told
    /// to stop before any is waited for: that closes its listener and, the
    /// coordinator going first, hangs up the sessions the workers' threads
    /// are reading, so nothing here waits out a poll slice.
    pub fn shutdown(&self) {
        let workers: Vec<Arc<Worker>> = self.workers.lock().drain().map(|(_, w)| w).collect();
        self.coordinator.initiate_crash();
        for w in &workers {
            w.initiate_crash();
        }
        self.coordinator.crash();
        for w in &workers {
            w.stop();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
