//! The cluster facade: builds a coordinator plus N worker sites on one
//! transport, replicating tables across all workers (the thesis evaluation
//! topology: one coordinator, 2–3 workers, everything replicated).
//!
//! This is the crate's quickstart surface: build a cluster, run update
//! transactions, crash a worker, recover it with HARBOR or ARIES, and read
//! historically — all in a few lines (see `examples/quickstart.rs`).

use crate::recovery::{
    recover_object, recover_site, RecoveryConfig, RecoveryContext, RecoveryReport,
};
use harbor_common::{
    DbError, DbResult, FieldType, Metrics, SiteId, StorageConfig, Timestamp, Tuple, Value,
};
use harbor_dist::{
    Coordinator, CoordinatorConfig, CrashPoint, CrashSchedule, Placement, ProtocolKind,
    SharedPlacement, UpdateRequest, Worker, WorkerConfig,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{ChaosConfig, ChaosTransport, InMemNetwork, TcpTransport, Transport};
use harbor_storage::{DiskFaultConfig, DiskFaultPlan, PagePolicy};
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
    pub recovery: RecoveryConfig,
    /// Serve deletion recovery queries from the deletion log (§5.2
    /// footnote; ablation 4 compares on/off).
    pub use_deletion_log: bool,
    /// Deterministic fault injection: when set, every inter-site link goes
    /// through a seeded [`ChaosTransport`]. The chaos layer is built
    /// *disabled* so cluster bootstrap is fault-free; tests flip it on via
    /// [`Cluster::chaos`].
    pub chaos: Option<ChaosConfig>,
    /// Deterministic disk-fault injection: when set, every worker's heap
    /// files go through a per-site [`DiskFaultPlan`] derived from this
    /// master config (see [`DiskFaultConfig::for_site`]). Plans are built
    /// *disarmed* so bootstrap is fault-free; tests flip them on via
    /// [`Cluster::set_disk_faults_enabled`]. Plans survive worker restarts,
    /// so a seed replays one byte-identical fault trace per site.
    pub disk_faults: Option<DiskFaultConfig>,
    /// Cluster-wide crash schedule probed by the coordinator and workers at
    /// the [`CrashPoint`] protocol steps.
    pub crash_schedule: Arc<CrashSchedule>,
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
            recovery: RecoveryConfig::default(),
            use_deletion_log: true,
            chaos: None,
            disk_faults: None,
            crash_schedule: Arc::new(CrashSchedule::new()),
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

    /// The configuration of the worker at `site`: everything but its
    /// address book is this cluster's, whether the site is built, restarted
    /// or joins later.
    fn worker_config(
        &self,
        site: SiteId,
        addr: String,
        peers: HashMap<SiteId, String>,
        coordinator: Option<String>,
    ) -> WorkerConfig {
        WorkerConfig {
            site,
            addr,
            protocol: self.protocol,
            checkpoint_every: self.checkpoint_every,
            peers,
            coordinator,
            auto_consensus: self.auto_consensus,
            use_deletion_log: self.use_deletion_log,
            crash_schedule: self.crash_schedule.clone(),
        }
    }
}

struct WorkerHandle {
    worker: Arc<Worker>,
    engine: Arc<Engine>,
    metrics: Metrics,
}

/// A running cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    dir: PathBuf,
    transport: Arc<dyn Transport>,
    /// The shared fault-injection layer (None when chaos is off).
    chaos: Option<Arc<ChaosTransport>>,
    /// Per-site disk-fault plans (empty when disk faults are off). Built
    /// once at `build` and reused across worker restarts so ordinals and
    /// the fault trace accumulate site-wide.
    disk_plans: HashMap<SiteId, Arc<DiskFaultPlan>>,
    /// Counts every message/byte crossing the cluster's transport.
    net_metrics: Metrics,
    /// The live placement catalog, shared with the coordinator: membership
    /// mutations made through either handle are visible to both.
    placement: SharedPlacement,
    coordinator: Arc<Coordinator>,
    workers: Mutex<HashMap<SiteId, WorkerHandle>>,
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
        // keyed on logical site names, not transport addresses. Chaos
        // starts disabled: bootstrap is always fault-free.
        let chaos = cfg.chaos.clone().map(|c| {
            let ct = ChaosTransport::new(base.clone(), c, net_metrics.clone());
            ct.set_enabled(false);
            Arc::new(ct)
        });
        let site_transport = |name: &str| -> Arc<dyn Transport> {
            match &chaos {
                Some(ct) => Arc::new(ct.for_site(name)),
                None => base.clone(),
            }
        };
        let coord_transport = site_transport("coordinator");
        // Bind all listeners first so TCP port 0 resolves before the
        // address book is built.
        let coord_listener = match cfg.transport {
            TransportKind::Tcp => coord_transport.listen("127.0.0.1:0")?,
            _ => coord_transport.listen("coordinator")?,
        };
        let mut worker_listeners = Vec::new();
        for i in 1..=cfg.num_workers {
            let wt = site_transport(&format!("site-{i}"));
            let l = match cfg.transport {
                TransportKind::Tcp => wt.listen("127.0.0.1:0")?,
                _ => wt.listen(&format!("site-{i}"))?,
            };
            worker_listeners.push((SiteId(i as u16), l, wt));
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
        let peers: HashMap<SiteId, String> = worker_listeners
            .iter()
            .map(|(s, l, _)| (*s, l.local_addr()))
            .collect();
        // Per-site disk-fault plans, disarmed until a test flips them on.
        let disk_plans: HashMap<SiteId, Arc<DiskFaultPlan>> = match &cfg.disk_faults {
            Some(base) => (1..=cfg.num_workers)
                .map(|i| {
                    let site = SiteId(i as u16);
                    (site, DiskFaultPlan::new(base.for_site(site.0)))
                })
                .collect(),
            None => HashMap::new(),
        };
        // Workers.
        let mut workers = HashMap::new();
        for (site, listener, wt) in worker_listeners {
            let wdir = dir.join(format!("site-{}", site.0));
            let engine = Self::open_engine(&wdir, site, &cfg, disk_plans.get(&site).cloned())?;
            for spec in &cfg.tables {
                if engine.table_def(&spec.name).is_none() {
                    engine.create_table(&spec.name, spec.user_fields.clone())?;
                }
            }
            let metrics = engine.metrics().clone();
            let addr = listener.local_addr();
            let worker = Worker::start_with_listener(
                engine.clone(),
                wt,
                cfg.worker_config(
                    site,
                    addr.clone(),
                    peers.clone(),
                    Some(coord_listener.local_addr()),
                ),
                listener,
            )?;
            workers.insert(
                site,
                WorkerHandle {
                    worker,
                    engine,
                    metrics,
                },
            );
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
                log_dir: Some(dir.join("coordinator")),
                group_commit: cfg.group_commit,
                disk: cfg.storage.disk,
                rpc_deadline: cfg.rpc_deadline,
                crash_schedule: cfg.crash_schedule.clone(),
                epoch_commit: cfg.epoch_commit,
                degrade_read_only: cfg.degrade_read_only,
            },
            placement.clone(),
            coord_transport,
            Metrics::new(),
            coord_listener,
        )?;
        Ok(Cluster {
            cfg,
            dir,
            transport: base,
            chaos,
            disk_plans,
            net_metrics,
            placement,
            coordinator,
            workers: Mutex::new(workers),
            crashed: Mutex::new(HashSet::new()),
            txn_router: Mutex::new(None),
        })
    }

    fn open_engine(
        dir: &Path,
        site: SiteId,
        cfg: &ClusterConfig,
        disk_faults: Option<Arc<DiskFaultPlan>>,
    ) -> DbResult<Arc<Engine>> {
        let opts = EngineOptions {
            site,
            storage: cfg.storage.clone(),
            logging: cfg.protocol.workers_log(),
            group_commit: cfg.group_commit,
            policy: PagePolicy::steal_no_force(),
            disk_faults,
        };
        Engine::open(dir, opts)
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

    /// The fault-injection layer, when the cluster was built with
    /// [`ClusterConfig::chaos`]. Enable/partition/heal through this handle;
    /// the same seed replays the identical fault trace.
    pub fn chaos(&self) -> Option<&Arc<ChaosTransport>> {
        self.chaos.as_ref()
    }

    /// One site's disk-fault plan, when the cluster was built with
    /// [`ClusterConfig::disk_faults`].
    pub fn disk_fault_plan(&self, site: SiteId) -> Option<&Arc<DiskFaultPlan>> {
        self.disk_plans.get(&site)
    }

    /// Arms or disarms disk-fault injection on every site at once.
    /// Disarmed I/Os consume no ordinals, so the armed I/O sequence alone
    /// determines the fault trace.
    pub fn set_disk_faults_enabled(&self, on: bool) {
        for plan in self.disk_plans.values() {
            plan.set_enabled(on);
        }
    }

    /// Total disk faults injected across all sites.
    pub fn disk_faults_injected(&self) -> u64 {
        self.disk_plans.values().map(|p| p.injected()).sum()
    }

    /// The cluster-wide crash schedule (see [`CrashPoint`]).
    pub fn crash_schedule(&self) -> &Arc<CrashSchedule> {
        &self.cfg.crash_schedule
    }

    /// Arms a crash point for `site` on the shared schedule.
    pub fn arm_crash(&self, site: SiteId, point: CrashPoint) {
        self.cfg.crash_schedule.arm(site, point);
    }

    /// `site`'s identity-carrying view of the transport: chaos-wrapped when
    /// fault injection is on, the base transport otherwise.
    fn transport_as(&self, name: &str) -> Arc<dyn Transport> {
        match &self.chaos {
            Some(ct) => Arc::new(ct.for_site(name)),
            None => self.transport.clone(),
        }
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
        self.workers
            .lock()
            .get(&site)
            .map(|h| h.worker.clone())
            .ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))
    }

    /// The engine of a live worker.
    pub fn engine(&self, site: SiteId) -> DbResult<Arc<Engine>> {
        self.workers
            .lock()
            .get(&site)
            .map(|h| h.engine.clone())
            .ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))
    }

    /// Per-site metrics.
    pub fn worker_metrics(&self, site: SiteId) -> DbResult<Metrics> {
        self.workers
            .lock()
            .get(&site)
            .map(|h| h.metrics.clone())
            .ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))
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

    /// Latest-committed snapshot: historical read as of `now - 1`.
    pub fn read_latest(&self, table: &str) -> DbResult<Vec<Tuple>> {
        let now = self.coordinator.authority().now();
        self.read_historical(table, now.prev())
    }

    // ------------------------------------------------------------------
    // Failure and recovery
    // ------------------------------------------------------------------

    /// Fail-stop crash of one worker: all volatile state (buffer pool,
    /// locks, in-memory lists, unforced log tail) is dropped.
    pub fn crash_worker(&self, site: SiteId) -> DbResult<()> {
        let handle = self
            .workers
            .lock()
            .remove(&site)
            .ok_or_else(|| DbError::SiteDown(format!("{site} is not running")))?;
        // Hung up on between crash and join, no connection waits out a slice.
        handle.worker.initiate_crash();
        self.coordinator.mark_dead(site);
        handle.worker.crash();
        self.crashed.lock().insert(site);
        drop(handle); // engine dropped: unflushed pages are gone
        Ok(())
    }

    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.crashed.lock().contains(&site)
    }

    /// Tears down workers that crashed *themselves* through the crash
    /// schedule (a fired [`CrashPoint`] only sets the worker's shutdown
    /// flag — the site's threads cannot reap their own handle). Returns the
    /// sites reaped. Harness code calls this after driving traffic.
    pub fn reap_scheduled_crashes(&self) -> Vec<SiteId> {
        let dead: Vec<SiteId> = self
            .workers
            .lock()
            .iter()
            .filter(|(_, h)| h.worker.is_shutdown())
            .map(|(s, _)| *s)
            .collect();
        for site in &dead {
            let _ = self.crash_worker(*site);
        }
        dead
    }

    fn worker_addr(&self, site: SiteId) -> String {
        self.placement
            .address(site)
            .expect("address book covers all workers")
    }

    /// Restarts a crashed worker's engine and server without running any
    /// recovery (building block for both recovery paths).
    fn restart_worker(&self, site: SiteId) -> DbResult<Arc<Engine>> {
        if !self.crashed.lock().contains(&site) {
            return Err(DbError::internal(format!("{site} is not crashed")));
        }
        let wdir = self.dir.join(format!("site-{}", site.0));
        let engine =
            Self::open_engine(&wdir, site, &self.cfg, self.disk_plans.get(&site).cloned())?;
        let addr = self.worker_addr(site);
        let peers: HashMap<SiteId, String> = self
            .worker_sites_all()
            .into_iter()
            .map(|s| (s, self.worker_addr(s)))
            .collect();
        let worker = Worker::start(
            engine.clone(),
            self.transport_as(&format!("site-{}", site.0)),
            self.cfg.worker_config(
                site,
                addr.clone(),
                peers,
                self.placement.coordinator_addr().ok(),
            ),
        )?;
        let metrics = engine.metrics().clone();
        self.workers.insert_handle(
            site,
            WorkerHandle {
                worker,
                engine: engine.clone(),
                metrics,
            },
        );
        Ok(engine)
    }

    fn worker_sites_all(&self) -> Vec<SiteId> {
        // All placed worker sites, running or not.
        let mut v = Vec::new();
        for name in self.placement.table_names() {
            if let Ok(sites) = self.placement.sites_for(&name) {
                v.extend(sites);
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Brings a crashed worker back online with HARBOR's three-phase
    /// replica-query recovery (the site serves forwarded updates while
    /// joining pending transactions).
    pub fn recover_worker_harbor(&self, site: SiteId) -> DbResult<RecoveryReport> {
        self.recover_worker_harbor_with(site, self.cfg.recovery.clone())
    }

    /// As [`recover_worker_harbor`](Self::recover_worker_harbor) with an
    /// explicit recovery configuration (fault injection, serial objects,
    /// Phase 2 thresholds). On error the site stays crashed — the worker
    /// server it briefly started is torn down so a later attempt can rebind.
    pub fn recover_worker_harbor_with(
        &self,
        site: SiteId,
        config: crate::recovery::RecoveryConfig,
    ) -> DbResult<RecoveryReport> {
        let engine = self.restart_worker(site)?;
        let down: HashSet<SiteId> = self.crashed.lock().clone();
        let ctx = RecoveryContext {
            engine,
            site,
            placement: self.placement.snapshot(),
            transport: self.transport_as(&format!("site-{}", site.0)),
            down: down.into_iter().filter(|s| *s != site).collect(),
            rpc_deadline: self.cfg.rpc_deadline,
            config,
        };
        let result = (|| {
            // With a disk-fault plan armed, the pages that survived the
            // crash may be checksum-corrupt; Phase 1's local restore would
            // trip over them. Scrub first so recovery starts from a
            // verified disk image.
            if self.disk_plans.contains_key(&site) {
                crate::recovery::scrub_site(&ctx)?;
            }
            recover_site(&ctx)
        })();
        match result {
            Ok(report) => {
                self.crashed.lock().remove(&site);
                // `RecComingOnline` already marked the site alive per object.
                Ok(report)
            }
            Err(e) => {
                // The recovering site "crashes" again: stop its server and
                // drop its engine so only durable state survives.
                if let Some(h) = self.workers.lock().remove(&site) {
                    h.worker.crash();
                }
                self.coordinator.mark_dead(site);
                Err(e)
            }
        }
    }

    /// Scrubs a *live* worker's disk: checksums every data page and
    /// repairs corrupt ones from buddies (see
    /// [`crate::recovery::scrub_site`]). The site must be quiesced —
    /// the chaos harness scrubs after resolving pending transactions and
    /// before any crash-recovery attempt.
    pub fn scrub_worker(&self, site: SiteId) -> DbResult<crate::recovery::ScrubReport> {
        let engine = self.engine(site)?;
        let down: HashSet<SiteId> = self.crashed.lock().clone();
        let ctx = RecoveryContext {
            engine,
            site,
            placement: self.placement.snapshot(),
            transport: self.transport_as(&format!("site-{}", site.0)),
            down: down.into_iter().filter(|s| *s != site).collect(),
            rpc_deadline: self.cfg.rpc_deadline,
            config: self.cfg.recovery.clone(),
        };
        crate::recovery::scrub_site(&ctx)
    }

    /// Brings a crashed worker back online with the ARIES baseline: local
    /// log replay only (the thesis recovery experiments quiesce update
    /// traffic, so no distributed catch-up is involved).
    pub fn recover_worker_aries(&self, site: SiteId) -> DbResult<AriesReport> {
        let engine = self.restart_worker(site)?;
        let report = engine.aries_restart()?;
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
        let name = format!("site-{}", site.0);
        let wt = self.transport_as(&name);
        let listener = match self.cfg.transport {
            TransportKind::Tcp => wt.listen("127.0.0.1:0")?,
            _ => wt.listen(&name)?,
        };
        // Catalog first: `admit_site` registers the address, allocates a
        // joining full copy of every table, and marks the site dead so no
        // update routes to it before the per-object announcements. From
        // here on, any failure must evict to restore the old catalog.
        self.coordinator.admit_site(site, &listener.local_addr())?;
        match self.bootstrap_joined_site(site, &name, wt, listener) {
            Ok(report) => Ok(report),
            Err(e) => {
                if let Some(h) = self.workers.lock().remove(&site) {
                    h.worker.crash();
                }
                let _ = self.coordinator.evict_site(site);
                for h in self.workers.lock().values() {
                    h.worker.remove_peer(site);
                }
                Err(e)
            }
        }
    }

    /// The fallible tail of [`join_worker`](Self::join_worker): open the
    /// engine, start the worker server, and run the three-phase bootstrap.
    fn bootstrap_joined_site(
        &self,
        site: SiteId,
        name: &str,
        wt: Arc<dyn Transport>,
        listener: Box<dyn harbor_net::Listener>,
    ) -> DbResult<RecoveryReport> {
        let wdir = self.dir.join(name);
        let engine =
            Self::open_engine(&wdir, site, &self.cfg, self.disk_plans.get(&site).cloned())?;
        for spec in &self.cfg.tables {
            if engine.table_def(&spec.name).is_none() {
                engine.create_table(&spec.name, spec.user_fields.clone())?;
            }
        }
        let addr = listener.local_addr();
        let peers: HashMap<SiteId, String> = self
            .placement
            .member_sites()
            .into_iter()
            .filter_map(|s| self.placement.address(s).ok().map(|a| (s, a)))
            .collect();
        let worker = Worker::start_with_listener(
            engine.clone(),
            wt,
            self.cfg.worker_config(
                site,
                addr.clone(),
                peers,
                self.placement.coordinator_addr().ok(),
            ),
            listener,
        )?;
        let metrics = engine.metrics().clone();
        {
            let mut g = self.workers.lock();
            for h in g.values() {
                h.worker.add_peer(site, &addr);
            }
            g.insert(
                site,
                WorkerHandle {
                    worker,
                    engine: engine.clone(),
                    metrics,
                },
            );
        }
        let down: HashSet<SiteId> = self.crashed.lock().clone();
        let ctx = RecoveryContext {
            engine,
            site,
            placement: self.placement.snapshot(),
            transport: self.transport_as(name),
            down,
            rpc_deadline: self.cfg.rpc_deadline,
            config: self.cfg.recovery.clone(),
        };
        // A fresh engine's checkpoint is zero, so Phase 2 copies each
        // object's entire history — recovery *is* replica creation.
        recover_site(&ctx)
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
            if let Some(h) = self.workers.lock().remove(&site) {
                h.worker.stop();
            }
            affected
        };
        for h in self.workers.lock().values() {
            h.worker.remove_peer(site);
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
        let engine = self.engine(target)?;
        self.coordinator.begin_bootstrap(target, table)?;
        let result = (|| {
            if engine.table_def(table).is_none() {
                let spec = self
                    .cfg
                    .tables
                    .iter()
                    .find(|s| s.name == table)
                    .ok_or_else(|| DbError::Schema(format!("no spec for table {table:?}")))?;
                engine.create_table(table, spec.user_fields.clone())?;
            }
            let down: HashSet<SiteId> = self.crashed.lock().clone();
            let ctx = RecoveryContext {
                engine: engine.clone(),
                site: target,
                placement: self.placement.snapshot(),
                transport: self.transport_as(&format!("site-{}", target.0)),
                down,
                rpc_deadline: self.cfg.rpc_deadline,
                config: self.cfg.recovery.clone(),
            };
            // Periodic checkpoints stay off for the bootstrap (§5.2); the
            // per-object checkpoint recorded by recovery carries the new
            // copy until the next global checkpoint subsumes it.
            engine.checkpointer().set_suspended(true);
            let r = recover_object(&ctx, table);
            engine.checkpointer().set_suspended(false);
            r.map(|_| ())
        })();
        if let Err(e) = result {
            self.coordinator.abandon_bootstrap(target, table);
            return Err(e);
        }
        Ok(())
    }

    /// Stops everything (graceful end of an experiment). Every site is told
    /// to stop before any is waited for: that closes its listener and, the
    /// coordinator going first, hangs up the sessions the workers' threads
    /// are reading, so nothing here waits out a poll slice.
    pub fn shutdown(&self) {
        let workers: Vec<WorkerHandle> = {
            let mut g = self.workers.lock();
            g.drain().map(|(_, h)| h).collect()
        };
        self.coordinator.initiate_crash();
        for h in &workers {
            h.worker.initiate_crash();
        }
        self.coordinator.crash();
        for h in &workers {
            h.worker.stop();
        }
    }
}

/// Small extension so `restart_worker` can insert without a borrow dance.
trait InsertHandle {
    fn insert_handle(&self, site: SiteId, handle: WorkerHandle);
}

impl InsertHandle for Mutex<HashMap<SiteId, WorkerHandle>> {
    fn insert_handle(&self, site: SiteId, handle: WorkerHandle) {
        self.lock().insert(site, handle);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
