//! The coordinator site (thesis §4.1, §4.3): originates transactions,
//! queues their logical update requests, distributes them to every live
//! replica, runs the chosen commit protocol, and — for HARBOR recovery —
//! serves the timestamp authority and the join-pending protocol (Fig 5-4).

use crate::message::{RemoteScan, Request, Response, UpdateRequest, WireTxnState};
use crate::placement::SharedPlacement;
use crate::protocol::ProtocolKind;
use crate::{
    drain_scan_replies, next_frame, silent_peer, with_read_retries, CrashPoint,
    DEFAULT_READ_RETRIES, DEFAULT_RETRY_BACKOFF,
};
use crossbeam::channel::{bounded, Receiver, SendError, Sender};
use harbor_common::codec::Wire;
use harbor_common::fault::{Armed, Effect, Fault, FaultPlan};
use harbor_common::time::TimestampAuthority;
use harbor_common::{
    retry_with, DbError, DbResult, DiskProfile, Metrics, RetryPolicy, SiteId, Timestamp,
    TransactionId, Tuple,
};
use harbor_net::{recv_or_stop, serve_connections, Channel, Transport};
use harbor_wal::record::{LogPayload, LogRecord, TxnOutcome};
use harbor_wal::{GroupCommit, LogManager, Lsn};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One transaction's **session** to one site. A session is an open
/// connection to a worker, served there by one thread; sessions outlive
/// transactions — the coordinator leases one from the site's idle list for
/// a transaction, an epoch wave or a historical read and puts it back after
/// a clean terminal reply (`lease`, `release`). The mutex around this IS the
/// per-(transaction, site) serialization point: the client thread, the
/// commit protocol and the join-pending forwarder all talk to the site
/// through this one slot, so at most one session per pair ever exists.
#[derive(Default)]
struct TxnSession {
    /// The leased channel: `None` before first contact, and again once the
    /// session is poisoned (any failed or out-of-step exchange) — a late
    /// reply must never be read as the answer to a later request.
    chan: Option<Box<dyn Channel>>,
    /// First contact was attempted, so a missing channel means poisoned.
    begun: bool,
    /// The worker acknowledged the transaction's outcome (COMMIT/ABORT ack,
    /// or its tid in an epoch's vectored ack): nothing of it is left open
    /// on the session, which may go back to the idle list.
    settled: bool,
    /// Queue entries below this index reached the site through
    /// [`Coordinator::catch_up`]; `update` must not send them again.
    forwarded: usize,
}

type SharedSession = Arc<Mutex<TxnSession>>;

/// What an exchange on a poisoned session fails with.
fn session_dropped(site: SiteId) -> DbError {
    DbError::net(format!("session to {site} was dropped"))
}

/// Epoch group commit: the coordinator batches independent transactions
/// into *commit epochs* — one PREPARE wave carrying a vector of txn ids per
/// participating worker, per-txn vote vectors back, one forced log write
/// covering every decision record of the epoch, one COMMIT wave, vectored
/// acks. A NO vote or a dead worker aborts only the affected transactions,
/// never the epoch. Applies to the 2PC variants only (the 3PC variants keep
/// the paper-faithful per-transaction path: one round per phase for each
/// transaction); `None` disables batching everywhere.
#[derive(Clone, Copy, Debug)]
pub struct EpochCommitConfig {
    /// Maximum transactions per epoch.
    pub max_txns: usize,
    /// How long an open epoch waits to accumulate more transactions once it
    /// has its first.
    pub max_wait: Duration,
    /// Epochs allowed in flight at once: epoch N+1's PREPARE wave overlaps
    /// epoch N's commit wave.
    pub pipeline_depth: usize,
}

impl Default for EpochCommitConfig {
    fn default() -> Self {
        EpochCommitConfig {
            max_txns: 16,
            max_wait: Duration::from_micros(500),
            pipeline_depth: 2,
        }
    }
}

/// Construction options.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    pub site: SiteId,
    /// Address of the coordinator's own server (timestamp authority +
    /// recovery announcements).
    pub addr: String,
    pub protocol: ProtocolKind,
    /// Directory for the coordinator's log (2PC variants force a COMMIT /
    /// ABORT record; 3PC variants keep no log, §4.3.3).
    pub log_dir: Option<PathBuf>,
    pub group_commit: GroupCommit,
    pub disk: DiskProfile,
    /// Liveness deadline for one commit-protocol round trip: a participant
    /// that produces no reply for this long is treated as failed even if
    /// its socket never closes (partition detection, complementing §5.5.1's
    /// closed-connection detection).
    pub rpc_deadline: Duration,
    /// The cluster's fault plan, asked at the coordinator's
    /// [`CrashPoint`]s.
    pub faults: Arc<FaultPlan>,
    /// Batch commits into epochs (2PC variants only; `None` = the
    /// paper-faithful per-transaction path).
    pub epoch_commit: Option<EpochCommitConfig>,
    /// Refuse updates to any object down to its *last* live copy
    /// ([`DbError::Degraded`]) instead of committing with zero surviving
    /// replicas. Off by default: the paper's model keeps accepting updates
    /// below K (a single-copy commit is durable-but-fragile, §4.3.5), and
    /// several crash-recovery tests exercise exactly that; clusters running
    /// the replication supervisor opt in for the stronger floor.
    pub degrade_read_only: bool,
}

struct TxnInner {
    queue: Vec<UpdateRequest>,
    participants: BTreeSet<SiteId>,
    chans: HashMap<SiteId, SharedSession>,
    /// Set once the commit protocol has snapshotted participants; the
    /// join-pending forwarder skips such transactions.
    committing: bool,
    finished: bool,
    /// The PREPARE that rode the last statement, once that statement's
    /// exchange is over: the participant list it named, and who voted YES on
    /// it. `commit` counts the votes only if that is still the list.
    rode: Option<(Vec<SiteId>, Vec<SiteId>)>,
}

struct TxnCtx {
    inner: Mutex<TxnInner>,
}

/// Where a client thread parks while its transaction rides a commit epoch.
#[derive(Default)]
struct CommitWaiter {
    slot: Mutex<Option<DbResult<Timestamp>>>,
    cond: Condvar,
}

impl CommitWaiter {
    /// First resolution wins; later ones are ignored.
    fn resolve(&self, res: DbResult<Timestamp>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(res);
        }
        drop(slot);
        self.cond.notify_all();
    }
}

/// One transaction queued for the next epoch.
struct PendingCommit {
    tid: TransactionId,
    participants: Vec<SiteId>,
    waiter: Arc<CommitWaiter>,
}

/// Shared state between client threads and the epoch scheduler.
struct EpochState {
    cfg: EpochCommitConfig,
    pending: Mutex<Vec<PendingCommit>>,
    pending_cond: Condvar,
    epoch_seq: AtomicU64,
}

/// One closed epoch on its way from the scheduler to a runner thread.
type EpochJob = (u64, Vec<PendingCommit>);

/// A running coordinator.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    placement: SharedPlacement,
    transport: Arc<dyn Transport>,
    authority: Arc<TimestampAuthority>,
    wal: Option<Arc<LogManager>>,
    metrics: Metrics,
    txns: Mutex<HashMap<TransactionId, Arc<TxnCtx>>>,
    seq: AtomicU64,
    /// The routing gate: site → the objects placed on it that have not
    /// announced themselves online (Fig 5-4) since the site was last marked
    /// dead. A site with an entry is believed down (§4.1: "crashed sites can
    /// be ignored by update queries"); the announcement is per-`rec`, so the
    /// objects come back one by one and the entry goes with the last. The
    /// third copy state, *joining*, is the catalog's
    /// ([`Placement::is_copy_joining`](crate::Placement::is_copy_joining)).
    ///
    /// Every edit but `mark_dead` is one step toward usable — a copy leaves
    /// a set, the entry goes, the catalog forgets the join — and
    /// `handle_join` makes its steps before it looks at a transaction, so a
    /// statement routed after the forwarder's first `ctx` lock finds the
    /// announced copy usable: no reader order to obey.
    behind: Mutex<HashMap<SiteId, BTreeSet<String>>>,
    shutdown: Arc<AtomicBool>,
    /// The server's listener, until the crash closes it.
    listener: Mutex<Option<Arc<dyn harbor_net::Listener>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Idle sessions per site, newest last. Leases pop the newest (LIFO):
    /// a serial workload keeps using one session per site, so the chaos
    /// layer's `(link, ordinal, seq)` fault plan replays identically. The
    /// list is as long as the site's peak of concurrently open leases.
    idle: Mutex<HashMap<SiteId, Vec<Box<dyn Channel>>>>,
    /// Present iff epoch group commit is active (2PC variants with
    /// `epoch_commit` configured).
    epoch: Option<Arc<EpochState>>,
    /// Commit decisions this coordinator is the authority for: tid → commit
    /// time, recorded the moment the COMMIT record is durable (2PC) or the
    /// commit point passes (3PC), and rebuilt from the log on restart. A
    /// worker in doubt asks here first under every protocol (presumed abort
    /// for finished transactions it does not contain); the §4.3.3 election
    /// runs only while this coordinator is unreachable.
    decided_commits: Mutex<HashMap<TransactionId, Timestamp>>,
}

impl Coordinator {
    pub fn start(
        cfg: CoordinatorConfig,
        placement: impl Into<SharedPlacement>,
        transport: Arc<dyn Transport>,
        metrics: Metrics,
    ) -> DbResult<Arc<Coordinator>> {
        let listener = transport.listen(&cfg.addr)?;
        Self::start_with_listener(cfg, placement, transport, metrics, listener)
    }

    /// As [`start`](Self::start) on an already-bound listener (TCP port 0).
    /// `placement` may be a plain [`Placement`] (wrapped into its own
    /// [`SharedPlacement`]) or a handle shared with the cluster facade, so
    /// membership mutations are visible to both sides.
    pub fn start_with_listener(
        mut cfg: CoordinatorConfig,
        placement: impl Into<SharedPlacement>,
        transport: Arc<dyn Transport>,
        metrics: Metrics,
        listener: Box<dyn harbor_net::Listener>,
    ) -> DbResult<Arc<Coordinator>> {
        let placement = placement.into();
        cfg.addr = listener.local_addr();
        let listener: Arc<dyn harbor_net::Listener> = Arc::from(listener);
        let wal = match (&cfg.log_dir, cfg.protocol.coordinator_logs()) {
            (Some(dir), true) => {
                std::fs::create_dir_all(dir)?;
                Some(Arc::new(LogManager::open(
                    dir.join("coordinator.log"),
                    cfg.group_commit,
                    cfg.disk,
                    metrics.clone(),
                )?))
            }
            _ => None,
        };
        // Rebuild the decided-commit table from the surviving log: after a
        // coordinator restart, in-doubt 2PC workers re-ask for outcomes whose
        // COMMIT records were forced by the previous incarnation.
        let mut decided_commits = HashMap::new();
        if let Some(wal) = &wal {
            for (_, rec) in wal.scan(Lsn::ZERO)? {
                if let LogPayload::Commit { commit_time } = rec.payload {
                    decided_commits.insert(rec.tid, commit_time);
                }
            }
        }
        // Epoch batching applies only to the 2PC variants; the 3PC variants
        // keep the paper-faithful per-transaction path regardless of config.
        let epoch = match (cfg.epoch_commit, cfg.protocol.is_three_phase()) {
            (Some(ecfg), false) => Some(Arc::new(EpochState {
                cfg: ecfg,
                pending: Mutex::new(Vec::new()),
                pending_cond: Condvar::new(),
                epoch_seq: AtomicU64::new(0),
            })),
            _ => None,
        };
        let coordinator = Arc::new(Coordinator {
            authority: Arc::new(TimestampAuthority::default()),
            wal,
            metrics,
            txns: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(1),
            behind: Mutex::new(HashMap::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            listener: Mutex::new(Some(listener.clone())),
            handles: Mutex::new(Vec::new()),
            idle: Mutex::new(HashMap::new()),
            placement,
            transport,
            epoch,
            decided_commits: Mutex::new(decided_commits),
            cfg,
        });
        {
            let c = coordinator.clone();
            let h = std::thread::Builder::new()
                .name("coordinator-server".into())
                .spawn(move || {
                    serve_connections(listener.as_ref(), &c.shutdown, "coordinator-conn", |chan| {
                        c.serve_connection(chan)
                    })
                })
                .map_err(|e| DbError::internal(format!("spawn coordinator server: {e}")))?;
            coordinator.handles.lock().push(h);
        }
        if let Some(es) = coordinator.epoch.clone() {
            // The runners are started once and handed closed epochs over a
            // rendezvous channel: the scheduler holds the epoch it closed
            // until a runner is free to take it, so `pipeline_depth` epochs
            // run, no epoch costs a thread and nothing counts epochs.
            let depth = es.cfg.pipeline_depth.max(1);
            let (jobs, runner_jobs) = bounded::<EpochJob>(0);
            for i in 0..depth {
                let c = coordinator.clone();
                let rx = runner_jobs.clone();
                let h = std::thread::Builder::new()
                    .name(format!("epoch-runner-{i}"))
                    .spawn(move || c.epoch_runner(rx))
                    .map_err(|e| DbError::internal(format!("spawn epoch runner: {e}")))?;
                coordinator.handles.lock().push(h);
            }
            let c = coordinator.clone();
            let h = std::thread::Builder::new()
                .name("epoch-scheduler".into())
                .spawn(move || c.epoch_scheduler(es, jobs))
                .map_err(|e| DbError::internal(format!("spawn epoch scheduler: {e}")))?;
            coordinator.handles.lock().push(h);
        }
        Ok(coordinator)
    }

    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    /// Address of the coordinator's server (timestamp authority + recovery
    /// announcements).
    pub fn addr(&self) -> &str {
        &self.cfg.addr
    }

    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    pub fn authority(&self) -> &Arc<TimestampAuthority> {
        &self.authority
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn placement(&self) -> &SharedPlacement {
        &self.placement
    }

    /// Marks a site dead (failure detection normally does this on a
    /// dropped connection; tests may force it): every object on it is
    /// behind until it announces itself again.
    pub fn mark_dead(&self, site: SiteId) {
        let objects = self.placement.objects_on(site);
        let objects = objects.into_iter().map(|(table, _)| table).collect();
        self.behind.lock().insert(site, objects);
        self.purge_sessions(site);
    }

    /// Marks a site fully usable again (all its objects online).
    pub fn mark_alive(&self, site: SiteId) {
        self.behind.lock().remove(&site);
    }

    pub fn is_dead(&self, site: SiteId) -> bool {
        self.behind.lock().contains_key(&site)
    }

    /// The coordinator's authoritative answer for a transaction's outcome:
    /// committed iff its COMMIT record was forced here (2PC) or its commit
    /// point passed (3PC); still-running transactions report `Pending`;
    /// everything else is aborted by presumed abort. A worker in doubt asks
    /// this first under every protocol. A 3PC coordinator keeps no log, so
    /// its presumed-abort answer holds only for the incarnation that ran the
    /// transaction; nothing restarts a coordinator at the same address.
    pub fn txn_outcome(&self, tid: TransactionId) -> WireTxnState {
        if let Some(t) = self.decided_commits.lock().get(&tid) {
            return WireTxnState::Committed(*t);
        }
        if self.txns.lock().contains_key(&tid) {
            return WireTxnState::Pending;
        }
        WireTxnState::Aborted
    }

    /// May updates/reads of `table` be routed to `site`? True when the
    /// copy is online: neither behind (its site was marked dead and this
    /// object has not announced itself since, §5.4.2) nor joining (it is
    /// being created, by a site join or by re-replication: incomplete, and
    /// what commits meanwhile reaches it through the recovery catch-up).
    pub fn is_usable(&self, site: SiteId, table: &str) -> bool {
        let behind = self
            .behind
            .lock()
            .get(&site)
            .is_some_and(|tables| tables.contains(table));
        !behind && !self.placement.read(|p| p.is_copy_joining(table, site))
    }

    // ------------------------------------------------------------------
    // Membership: join, decommission, re-replication bookkeeping
    // ------------------------------------------------------------------

    /// In-flight transaction count — the supervisor's admission-throttle
    /// input: re-replication yields while the commit path is busy.
    pub fn inflight_txns(&self) -> usize {
        self.txns.lock().len()
    }

    /// Admits a brand-new site at `addr`: registers it in the address book
    /// and allocates a join-pending full copy of every table on it. The
    /// site starts *down* — it routes no traffic until it bootstraps each
    /// object through the ordinary recovery path and the Fig 5-4
    /// announcements flip it live, object by object.
    pub fn admit_site(&self, site: SiteId, addr: &str) -> DbResult<()> {
        self.placement.mutate(|p| {
            if p.is_member(site) {
                return Err(DbError::internal(format!("{site} is already a member")));
            }
            if !p.objects_on(site).is_empty() {
                return Err(DbError::internal(format!(
                    "stale catalog: non-member {site} already holds parts"
                )));
            }
            p.set_address(site, addr);
            for table in p.table_names() {
                p.add_full_copy(&table, site)?;
            }
            Ok(())
        })?;
        // Also drops whatever sessions a previous tenant of the id left.
        self.mark_dead(site);
        self.metrics.add_joins(1);
        Ok(())
    }

    /// Allocates a join-pending copy of one `table` on an *existing* member
    /// (supervisor re-replication onto a surviving site). Routing skips
    /// exactly this object on this site until its announcement lands; the
    /// rest of the site keeps serving.
    pub fn begin_bootstrap(&self, site: SiteId, table: &str) -> DbResult<()> {
        self.placement.mutate(|p| {
            if !p.is_member(site) {
                return Err(DbError::internal(format!("{site} is not a member")));
            }
            p.add_full_copy(table, site)
        })
    }

    /// Rolls back a failed single-table bootstrap: the half-built copy is
    /// dropped from the catalog. If its site was marked dead meanwhile the
    /// copy is behind as well, and nothing will ever announce it.
    pub fn abandon_bootstrap(&self, site: SiteId, table: &str) {
        if self.placement.mutate(|p| p.abort_copy_join(table, site)) {
            if let Some(tables) = self.behind.lock().get_mut(&site) {
                tables.remove(table);
            }
        }
    }

    /// Rolls back a failed whole-site join: every copy on `site` leaves the
    /// catalog along with its address-book entry. Returns the affected
    /// tables.
    pub fn evict_site(&self, site: SiteId) -> DbResult<Vec<String>> {
        let affected = self.placement.mutate(|p| p.remove_site(site))?;
        self.behind.lock().remove(&site);
        self.purge_sessions(site);
        Ok(affected)
    }

    /// Gracefully retires `site`: stops routing new work to it, drains
    /// every in-flight transaction (and thus every in-flight commit epoch)
    /// it participates in, then drops its copies from the catalog and its
    /// address-book entry. Refuses — leaving membership untouched — if a
    /// table would lose its last copy or the drain does not converge.
    /// Returns the tables whose replication factor shrank.
    pub fn decommission_site(&self, site: SiteId) -> DbResult<Vec<String>> {
        if !self.placement.is_member(site) {
            return Err(DbError::internal(format!("{site} is not a member")));
        }
        // Stop routing new transactions to the site; remember whether it
        // was live so a refused decommission can restore it.
        let newly_marked = !self.is_dead(site);
        if newly_marked {
            self.mark_dead(site);
        }
        // Drain: in-flight transactions (including those riding open commit
        // epochs) finish their protocol with the full participant set; only
        // a *quiet* site can leave without voting holes.
        let policy = RetryPolicy::new(
            400,
            Duration::from_millis(2),
            Duration::from_millis(25),
            0xDECA_0FF5,
        );
        let drained = retry_with(
            &policy,
            None,
            |_| true,
            |_| {
                // Snapshot the contexts first: holding the registry lock while
                // taking each per-txn lock would invert the txns → inner rank.
                let ctxs: Vec<Arc<TxnCtx>> = self.txns.lock().values().cloned().collect();
                let busy = ctxs.iter().any(|ctx| {
                    let g = ctx.inner.lock();
                    !g.finished && g.participants.contains(&site)
                });
                if busy {
                    return Err(DbError::internal(format!(
                        "decommission of {site} timed out draining in-flight transactions"
                    )));
                }
                Ok(())
            },
        );
        let evicted = drained.and_then(|()| self.evict_site(site));
        match &evicted {
            Ok(_) => self.metrics.add_decommissions(1),
            Err(_) if newly_marked => self.mark_alive(site),
            Err(_) => {}
        }
        evicted
    }

    /// Simulated coordinator crash: stop the server and sever every worker
    /// session, leased or idle.
    pub fn crash(&self) {
        self.initiate_crash();
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// The crash itself, without reaping threads. Epoch runner and scheduler
    /// threads fire crash points from inside threads tracked in `handles`,
    /// and a thread cannot join itself — they call this and unwind; the
    /// harness's eventual external [`crash`](Self::crash) joins them. A
    /// cluster shutting down calls it on every site before it joins any, so
    /// the sites' poll slices run out side by side.
    pub fn initiate_crash(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop ends now, not at its next tick.
        if let Some(listener) = self.listener.lock().take() {
            listener.close();
        }
        // Drop every session, leased or idle: workers see disconnects. (The
        // flag is up, so `release` pools nothing from here on.)
        let txns: Vec<Arc<TxnCtx>> = self.txns.lock().drain().map(|(_, c)| c).collect();
        for ctx in txns {
            let mut g = ctx.inner.lock();
            g.chans.clear();
            g.finished = true;
        }
        self.idle.lock().clear();
        // Wake parked epoch clients so they observe the shutdown flag.
        if let Some(es) = &self.epoch {
            let leftovers: Vec<PendingCommit> = es.pending.lock().drain(..).collect();
            Self::resolve_crashed(&leftovers);
            es.pending_cond.notify_all();
        }
    }

    // ------------------------------------------------------------------
    // Transaction API (one thread per in-flight transaction)
    // ------------------------------------------------------------------

    /// Starts a transaction; returns its id.
    pub fn begin(&self) -> DbResult<TransactionId> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(DbError::SiteDown("coordinator crashed".into()));
        }
        let tid = TransactionId::from_parts(self.cfg.site, self.seq.fetch_add(1, Ordering::SeqCst));
        let ctx = Arc::new(TxnCtx {
            inner: Mutex::new(TxnInner {
                queue: Vec::new(),
                participants: BTreeSet::new(),
                chans: HashMap::new(),
                committing: false,
                finished: false,
                rode: None,
            }),
        });
        self.txns.lock().insert(tid, ctx);
        Ok(tid)
    }

    fn ctx(&self, tid: TransactionId) -> DbResult<Arc<TxnCtx>> {
        self.txns
            .lock()
            .get(&tid)
            .cloned()
            .ok_or(DbError::UnknownTransaction(tid))
    }

    // ------------------------------------------------------------------
    // Sessions: long-lived coordinator → worker connections
    // ------------------------------------------------------------------

    /// Takes a session to `site` on lease — the newest idle one, else a new
    /// connection; this is the only place the coordinator connects to a
    /// worker — and sends the frame `first` encodes, the first of the
    /// lease's first exchange, on it.
    ///
    /// A stale idle session is not a dead site: a worker that restarted at
    /// the same address leaves dead sessions in the idle list. An idle
    /// session found closed — by asking the transport, which over TCP knows
    /// what a write would not reveal, or by that very first send failing —
    /// has carried nothing, so nothing can have been executed, and the
    /// frame, encoded again, goes out on a new connection before the
    /// failure counts against the site. A failure any later in the exchange
    /// is the holder's to classify and is never retried: a frame has left by
    /// then and may yet be executed, and commit-protocol messages are not
    /// retransmitted.
    fn lease(&self, site: SiteId, first: impl Fn() -> Vec<u8>) -> DbResult<Box<dyn Channel>> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(DbError::SiteDown("coordinator crashed".into()));
        }
        let pooled = self.idle.lock().get_mut(&site).and_then(Vec::pop);
        if let Some(mut chan) = pooled {
            self.metrics.add_sessions_reused(1);
            let sent = if chan.is_closed() {
                Err(DbError::net(format!("idle session to {site} was closed")))
            } else {
                chan.send(first())
            };
            match sent {
                Ok(()) => return Ok(chan),
                Err(e) => {
                    // Whatever else idles for the site is of the same
                    // vintage, or the site is gone: either way it goes.
                    self.purge_sessions(site);
                    if !e.is_disconnect() {
                        return Err(e);
                    }
                }
            }
        }
        let addr = self.placement.address(site)?;
        let mut chan = self.transport.connect(&addr)?;
        self.metrics.add_sessions_opened(1);
        chan.send(first())?;
        Ok(chan)
    }

    /// Ends a lease: the session goes back on top of its site's idle list.
    /// Only for a session whose last exchange ended with the expected
    /// terminal reply; anything else is dropped by its holder instead.
    fn release(&self, site: SiteId, chan: Box<dyn Channel>) {
        let mut idle = self.idle.lock();
        // Checked under the lock: `initiate_crash` raises the flag before it
        // clears the lists, so nothing is pooled behind its back.
        if !self.shutdown.load(Ordering::SeqCst) {
            idle.entry(site).or_default().push(chan);
        }
    }

    /// Closes every idle session to `site` (it was marked dead, left the
    /// cluster, or one of its sessions just failed).
    fn purge_sessions(&self, site: SiteId) {
        let purged = self.idle.lock().remove(&site);
        drop(purged);
    }

    /// Number of idle sessions to `site` (tests).
    pub fn idle_sessions(&self, site: SiteId) -> usize {
        self.idle.lock().get(&site).map_or(0, Vec::len)
    }

    /// First contact of `tid` with `site`: leases a session and sends the
    /// encoded request `first` there under the begin marker — one frame, and
    /// one reply for the caller to read. The site is a participant from the moment the
    /// frame is handed to the transport, so whatever becomes of the reply
    /// the ABORT or termination round reaches it — unless the transaction
    /// ended or entered commit meanwhile (only the join-pending forwarder can
    /// lose that race): then the session is dropped instead and the worker
    /// rolls the stray back on the disconnect. Never neither.
    fn first_contact(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        site: SiteId,
        s: &mut TxnSession,
        first: &[u8],
    ) -> DbResult<()> {
        s.begun = true;
        let chan = self.lease(site, || Request::mark_beginning(tid, first))?;
        let mut g = ctx.inner.lock();
        if g.finished || g.committing {
            return Err(DbError::TransactionAborted(tid));
        }
        g.participants.insert(site);
        drop(g);
        s.chan = Some(chan);
        Ok(())
    }

    /// The sending half of an exchange: hands `frame`, an encoded request,
    /// to `tid`'s session at `site` (first contact included). A session
    /// that fails here is poisoned.
    fn hand(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        site: SiteId,
        s: &mut TxnSession,
        frame: Vec<u8>,
    ) -> DbResult<()> {
        if !s.begun {
            return self.first_contact(tid, ctx, site, s, &frame);
        }
        let Some(chan) = s.chan.as_mut() else {
            return Err(if ctx.inner.lock().finished {
                // Another thread ended the transaction (and with it the
                // lease) under this caller: no fault of the site's.
                DbError::TransactionAborted(tid)
            } else {
                session_dropped(site)
            });
        };
        let sent = chan.send(frame);
        if sent.is_err() {
            s.chan = None;
        }
        sent
    }

    /// The receiving half: the reply to the `req` that [`hand`](Self::hand)
    /// gave `site`, awaited until `expires` — a participant that stays
    /// silent that long is treated as failed even though its socket never
    /// closed. Only a clean session survives it: a transport error, an
    /// expired deadline or a reply of the wrong kind poisons the session,
    /// and the acknowledgement of COMMIT or ABORT marks it settled — fit to
    /// be leased again.
    fn reply(
        &self,
        ctx: &TxnCtx,
        site: SiteId,
        s: &mut TxnSession,
        req: &Request,
        expires: Instant,
    ) -> DbResult<Response> {
        let Some(chan) = s.chan.as_mut() else {
            return Err(session_dropped(site));
        };
        // Never a zero wait: a reply that is already in must still be read
        // when an earlier site has used the round's deadline up.
        let left = expires
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        let resp = next_frame(chan.as_mut(), left, &self.metrics).and_then(|frame| {
            match Response::from_slice(&frame) {
                // Not a reply to `req`: the site never ran it.
                Ok(Response::Err(e @ DbError::BeginRefused { .. })) => Err(e),
                decoded => decoded,
            }
        });
        if let Err(e) = &resp {
            Self::forget_if_refused(ctx, site, e);
        }
        match (req, &resp) {
            (Request::Commit { .. } | Request::Abort { .. }, Ok(Response::Ack)) => s.settled = true,
            // A worker that could not execute the statement says so in step.
            (Request::Update { .. }, Ok(Response::Ok | Response::Err(_)))
            | (Request::LastUpdate { .. }, Ok(Response::Vote { .. } | Response::Err(_)))
            | (Request::Prepare { .. }, Ok(Response::Vote { .. }))
            | (Request::PrepareToCommit { .. }, Ok(Response::Ack)) => {}
            _ => s.chan = None,
        }
        resp
    }

    /// A worker that refused the begin marker has nothing of the transaction
    /// open: it stops being a participant, so no ABORT of this transaction
    /// can end whatever else holds the id there.
    fn forget_if_refused(ctx: &TxnCtx, site: SiteId, e: &DbError) {
        if matches!(e, DbError::BeginRefused { .. }) {
            ctx.inner.lock().participants.remove(&site);
        }
    }

    /// One exchange with one site: [`hand`](Self::hand), then
    /// [`reply`](Self::reply) under the liveness deadline.
    fn txn_rpc(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        site: SiteId,
        s: &mut TxnSession,
        req: &Request,
    ) -> DbResult<Response> {
        self.hand(tid, ctx, site, s, req.to_vec())?;
        self.reply(ctx, site, s, req, Instant::now() + self.cfg.rpc_deadline)
    }

    /// One protocol step as one scatter-gather round (§4.3, Figs 4-2…4-5:
    /// the coordinator sends to *all* workers, then collects): locks `tid`'s
    /// session at every one of `sites` in site order, hands `req` — encoded
    /// once — to each, and only then reads the replies, under one liveness
    /// deadline: the round lasts as long as its slowest worker, not the sum
    /// of them, and any number of silent ones cost one `rpc_deadline`. The
    /// caller acts on the replies afterwards, in site order, so a serial
    /// client still takes a deterministic sequence of decisions. `before`
    /// runs on each session ahead of its frame and may answer for the site,
    /// which is then sent nothing.
    fn round(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        sites: &[SiteId],
        req: &Request,
        before: impl Fn(SiteId, &mut TxnSession) -> Option<DbResult<Response>>,
    ) -> Vec<(SiteId, DbResult<Response>)> {
        debug_assert!(sites.windows(2).all(|w| w[0] < w[1]), "one lock order");
        let slots: Vec<SharedSession> = {
            let mut g = ctx.inner.lock();
            if g.finished {
                // Another thread ended the transaction: no slot of it is
                // left, and none may be made.
                let ended = |site: &SiteId| (*site, Err(DbError::TransactionAborted(tid)));
                return sites.iter().map(ended).collect();
            }
            let slot = |site: &SiteId| g.chans.entry(*site).or_default().clone();
            sites.iter().map(slot).collect()
        };
        // Held until the round is in: the session mutex is the
        // per-(transaction, site) serialization point. Site order is the one
        // lock order, and only the brief ctx lock is ever taken under it.
        let mut sessions: Vec<_> = slots.iter().map(|slot| slot.lock()).collect();
        // Encoded once for the round: each site but the last is handed a
        // copy, the last the frame itself.
        let mut frame = req.to_vec();
        let last = sites.len().saturating_sub(1);
        let handed: Vec<Option<DbResult<Response>>> = sites
            .iter()
            .zip(sessions.iter_mut())
            .enumerate()
            .map(|(i, (site, s))| {
                before(*site, s).or_else(|| {
                    let frame = if i == last {
                        std::mem::take(&mut frame)
                    } else {
                        frame.clone()
                    };
                    self.hand(tid, ctx, *site, s, frame).err().map(Err)
                })
            })
            .collect();
        let expires = Instant::now() + self.cfg.rpc_deadline;
        // The site handed its frame last is awaited first: by the time its
        // reply is in the others' usually are too, so the caller parks once
        // a round, not once a site — and on a busy CPU every park is a
        // chance to wait out another thread's time slice. What each reply
        // is does not depend on when it is read; the list is in site order.
        let mut replies: Vec<(SiteId, DbResult<Response>)> = sites
            .iter()
            .zip(sessions.iter_mut())
            .zip(handed)
            .rev()
            .map(|((site, s), answered)| {
                let resp = answered.unwrap_or_else(|| self.reply(ctx, *site, s, req, expires));
                (*site, resp)
            })
            .collect();
        replies.reverse();
        replies
    }

    /// The sites holding a part of `table` that `req` applies to: an insert
    /// goes only to the sites whose partition admits the row; predicate-based
    /// updates go to every site holding any part (the predicate filters
    /// locally).
    fn placed_for(&self, table: &str, req: &UpdateRequest) -> DbResult<Vec<SiteId>> {
        match req {
            UpdateRequest::Insert { values, .. } => self.placement.sites_for_insert(table, values),
            _ => self.placement.sites_for(table),
        }
    }

    /// Brings `site` up to date with what it has not seen of `tid` below
    /// queue index `upto`, in queue order: exactly the statements `update`
    /// would have sent it had its copy of `table` been usable all along —
    /// those on `table` that are placed on the site, and table-less CPU work
    /// queued once the site is in the transaction. That is the whole backlog
    /// when the object just came online (Fig 5-4), and nothing at all ahead
    /// of the statement in hand on an ordinary first contact: a statement
    /// placed on a usable site was sent there when it was queued. Runs under
    /// the session lock, so whichever of the join-pending forwarder and the
    /// client's next statement gets here first does all of it and the other
    /// finds nothing left; a statement queued behind `upto` was routed with
    /// the site already usable, and its own `update` sends it. Returns the
    /// first reply that is not `Ok`.
    fn catch_up(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        site: SiteId,
        s: &mut TxnSession,
        table: &str,
        upto: usize,
    ) -> DbResult<Response> {
        // Snapshot under the ctx lock, forward outside it (the queue empties
        // when the transaction finishes).
        let backlog: Vec<UpdateRequest> = {
            let g = ctx.inner.lock();
            g.queue.get(s.forwarded..upto).unwrap_or_default().to_vec()
        };
        for u in backlog {
            let due = match u.table() {
                Some(t) => t == table && self.placed_for(t, &u)?.contains(&site),
                None => s.begun,
            };
            if due {
                let req = Request::Update { tid, req: u };
                match self.txn_rpc(tid, ctx, site, s, &req)? {
                    Response::Ok => {}
                    other => return Ok(other),
                }
            }
        }
        s.forwarded = upto;
        Ok(Response::Ok)
    }

    /// Queues and distributes one update request to every live site
    /// holding the relevant data (§4.1).
    pub fn update(&self, tid: TransactionId, req: UpdateRequest) -> DbResult<()> {
        self.statement(tid, req, false)
    }

    /// [`update`](Self::update) for the statement the client's
    /// [`commit`](Self::commit) follows. The PREPARE then rides on it — one
    /// exchange with each site instead of two — where a worker's PREPARE
    /// forces nothing (a statement that takes locks visits its sites one at
    /// a time, so a force riding on it would be K forces in series) and
    /// commits are not batched into epochs. Elsewhere it is `update`.
    pub fn update_last(&self, tid: TransactionId, req: UpdateRequest) -> DbResult<()> {
        self.statement(tid, req, true)
    }

    fn statement(&self, tid: TransactionId, req: UpdateRequest, last: bool) -> DbResult<()> {
        let ctx = self.ctx(tid)?;
        let rides =
            last && !self.cfg.protocol.worker_prepare_logging().force && self.epoch.is_none();
        // Determine targets and append to the queue under the ctx lock so
        // the join-pending forwarder sees a consistent prefix.
        let (idx, targets, workers) = {
            let mut g = ctx.inner.lock();
            if g.rode.is_some() {
                // Its sites have voted: they execute nothing more.
                return Err(DbError::protocol(format!(
                    "{tid}: a statement after the one sent as its last"
                )));
            }
            let targets: Vec<SiteId> = match req.table() {
                Some(table) => {
                    let sites = self.placed_for(table, &req)?;
                    let placed = sites.len();
                    let live: Vec<SiteId> = sites
                        .into_iter()
                        .filter(|s| self.is_usable(*s, table))
                        .collect();
                    // Read-only degradation floor (opt-in): an object that
                    // was placed redundantly but is down to one live copy
                    // refuses updates — committing against a single replica
                    // leaves no survivor if it dies — until the supervisor
                    // re-replicates it back above the floor.
                    if self.cfg.degrade_read_only && placed >= 2 && live.len() <= 1 {
                        return Err(DbError::degraded(format!(
                            "{table:?} is down to {} of {placed} placed copies; \
                             updates refused until re-replication restores K",
                            live.len()
                        )));
                    }
                    live
                }
                // Table-less work (simulated CPU) goes to current
                // participants.
                None => g.participants.iter().copied().collect(),
            };
            if targets.is_empty() {
                return Err(DbError::Unrecoverable(
                    "no live replica available for update".into(),
                ));
            }
            // Queued only now that it has somewhere to go: a statement
            // refused above was sent to no site, and a site that joins the
            // transaction later must not be the only one to execute it.
            g.queue.push(req.clone());
            // The list the riding PREPARE names is the one `commit` will
            // find unless a site joins meanwhile.
            let mut workers = BTreeSet::new();
            if rides {
                workers.extend(g.participants.iter().chain(&targets).copied());
            }
            let workers: Vec<SiteId> = workers.into_iter().collect();
            (g.queue.len() - 1, targets, workers)
        };
        // A statement on a table takes page locks that are held until
        // commit — an insert X-locks the table's last non-full page — so it
        // visits its sites one at a time, in placement order, each after the
        // reply of the one before. Transactions that meet on a page then
        // queue at the first site they share, and one that is past it holds
        // there what the others need: taking the sites in one order is what
        // keeps lock waits from closing a cycle across replicas. Sent to
        // several replicas at once, one transaction wins a page here and
        // another there, and only the lock timeout parts them — and not
        // only at the first site: when a page fills, two loaders are past
        // it together, and the replicas' pages need not fill alike.
        // Table-less work takes no locks and goes out as one round.
        let update = if rides {
            Request::LastUpdate {
                tid,
                req,
                workers: workers.clone(),
                time_bound: self.authority.now(),
            }
        } else {
            Request::Update { tid, req }
        };
        let table = match &update {
            Request::Update { req, .. } | Request::LastUpdate { req, .. } => req.table(),
            _ => None,
        };
        let at_once = if table.is_some() { 1 } else { targets.len() };
        let mut voted_yes: Vec<SiteId> = Vec::new();
        for sites in targets.chunks(at_once) {
            let replies = self.round(tid, &ctx, sites, &update, |site, s| {
                if idx < s.forwarded {
                    // The join-pending forwarder got here first and took
                    // this statement along with the backlog.
                    return Some(Ok(Response::Ok));
                }
                // First contact: this statement, after whatever was due to
                // the site while its copy was not usable.
                let table = table.filter(|_| !s.begun)?;
                match self.catch_up(tid, &ctx, site, s, table, idx) {
                    Ok(Response::Ok) => None,
                    behind => Some(behind),
                }
            });
            for (site, resp) in replies {
                match resp {
                    // Executed; and not asked to vote, if the join-pending
                    // forwarder took the statement there with the backlog.
                    Ok(Response::Ok) => {}
                    Ok(Response::Vote { yes: true }) if rides => voted_yes.push(site),
                    Ok(Response::Vote { yes: false }) if rides => {
                        // The NO voter has rolled back; the rest must.
                        self.abort(tid)?;
                        return Err(DbError::TransactionAborted(tid));
                    }
                    Ok(Response::Err(e)) => {
                        // Worker could not execute (lock timeout,
                        // constraint): abort everywhere, and say which.
                        self.abort(tid)?;
                        return Err(e.at(site));
                    }
                    Ok(other) => return Err(other.into_error("UPDATE")),
                    Err(e) if e.is_disconnect() => {
                        // Worker died mid-transaction (closed connection or
                        // an expired liveness deadline): abort and mark it
                        // dead (Fig 6-7 behaviour). §4.3.5's
                        // commit-with-(K-1)-safety alternative applies only
                        // once commit processing has begun. Whoever else
                        // failed in the round is judged by the ABORT round.
                        self.mark_dead(site);
                        self.abort(tid)?;
                        return Err(DbError::TransactionAborted(tid));
                    }
                    // A refused begin or an undecodable reply: the session
                    // is already dropped.
                    Err(e) => {
                        self.abort(tid)?;
                        return Err(e);
                    }
                }
            }
        }
        if rides {
            // Only now, with the statement's exchange over: until `commit`
            // snapshots the participants the join-pending forwarder may
            // still add one (the statement may have waited out a Phase-3
            // table lock), and `commit` must see that the list has grown.
            ctx.inner.lock().rode = Some((workers, voted_yes));
        }
        Ok(())
    }

    /// Read-only historical scan against any single live replica (§3.1:
    /// reads go to one site).
    pub fn read_historical(
        &self,
        table: &str,
        as_of: Timestamp,
        scan: impl FnOnce(&mut RemoteScan),
    ) -> DbResult<Vec<Tuple>> {
        let sites = self.placement.sites_for(table)?;
        let mut s = RemoteScan::new(table, crate::message::WireReadMode::Historical(as_of));
        scan(&mut s);
        let request = Request::Scan(s).to_vec();
        let mut last_err = DbError::Unrecoverable("no live replica".into());
        for site in sites {
            if !self.is_usable(site, table) {
                continue;
            }
            // Historical reads are idempotent, so a silent replica or a
            // torn connection earns a bounded retry with backoff before
            // failing over to the next replica. The session is leased for
            // the one scan and pooled again after its status frame; one
            // that fails takes the site's idle list with it, so the retry
            // connects afresh.
            let result = with_read_retries(
                &self.metrics,
                DEFAULT_READ_RETRIES,
                DEFAULT_RETRY_BACKOFF,
                || {
                    let mut chan = self.lease(site, || request.clone())?;
                    match self.scan_rows(chan.as_mut()) {
                        Ok(tuples) => {
                            self.release(site, chan);
                            Ok(tuples)
                        }
                        Err(e) => {
                            self.purge_sessions(site);
                            Err(e)
                        }
                    }
                },
            );
            match result {
                Ok(tuples) => return Ok(tuples),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// A read *with transactional read locks* inside `tid` — the
    /// "read-only transactions that wish to read the most up-to-date data
    /// use conventional read locks" side of §3.1. Routed to one live
    /// replica that is already (or becomes) a participant, so the locks are
    /// released by the transaction's commit/abort.
    pub fn read_current(
        &self,
        tid: TransactionId,
        table: &str,
        scan: impl FnOnce(&mut RemoteScan),
    ) -> DbResult<Vec<Tuple>> {
        let ctx = self.ctx(tid)?;
        let site = self
            .placement
            .sites_for(table)?
            .into_iter()
            .find(|s| self.is_usable(*s, table))
            .ok_or_else(|| DbError::Unrecoverable("no live replica".into()))?;
        let mut rs = RemoteScan::new(table, crate::message::WireReadMode::Current(tid));
        scan(&mut rs);
        let slot = ctx.inner.lock().chans.entry(site).or_default().clone();
        let mut s = slot.lock();
        // Lock-taking read inside a transaction: single attempt (a retry
        // could double-wait on locks), but still under the liveness deadline.
        let result = self
            .hand(tid, &ctx, site, &mut s, Request::Scan(rs).to_vec())
            .and_then(|()| match s.chan.as_mut() {
                // harbor-lint: allow(lock-across-blocking) — read under the session mutex: it is the per-(transaction, site) serialization point
                Some(chan) => self.scan_rows(chan.as_mut()),
                None => Err(session_dropped(site)),
            });
        if let Err(e) = &result {
            s.chan = None;
            Self::forget_if_refused(&ctx, site, e);
        }
        result
    }

    /// All rows of a scan whose request is already on `chan`, each a range
    /// of the reply frame it arrived in: a frame is one allocation, however
    /// many rows it carries.
    fn scan_rows(&self, chan: &mut dyn Channel) -> DbResult<Vec<Tuple>> {
        let mut out = Vec::new();
        let deadline = self.cfg.rpc_deadline;
        drain_scan_replies(chan, deadline, &self.metrics, |rows, frame, wire| {
            out.reserve(rows);
            for _ in 0..rows {
                out.push(Tuple::read_shared(frame, wire)?);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Commits: runs the configured protocol, one round per phase — less the
    /// PREPARE round where every vote already rode in on the last statement
    /// ([`update_last`](Self::update_last)). The one function that decides a
    /// transaction, whichever way its statements came. Returns the commit
    /// time.
    pub fn commit(&self, tid: TransactionId) -> DbResult<Timestamp> {
        let ctx = self.ctx(tid)?;
        let (participants, rode): (Vec<SiteId>, _) = {
            let mut g = ctx.inner.lock();
            g.committing = true;
            (g.participants.iter().copied().collect(), g.rode.take())
        };
        if participants.is_empty() {
            // Read-only: nothing to agree on (§4.3: multi-phase protocols
            // apply only to update transactions).
            self.finish(tid);
            return Ok(self.authority.now().prev());
        }
        if let Some(es) = self.epoch.clone() {
            return self.commit_via_epoch(tid, participants, es);
        }
        // Phase 1: PREPARE, to every participant that has not voted yet. A
        // vote that rode in on the last statement counts only if it was
        // cast on this very list: the §4.3.3 consensus needs every
        // participant to know every other, and a duplicate PREPARE repeats
        // the vote and refreshes the list it is kept with.
        let mut voters_yes = match rode {
            Some((named, yes)) if named == participants => yes,
            _ => Vec::new(),
        };
        let unasked: Vec<SiteId> = participants
            .iter()
            .copied()
            .filter(|site| !voters_yes.contains(site))
            .collect();
        let prepare = Request::Prepare {
            tid,
            workers: participants.clone(),
            time_bound: self.authority.now(),
        };
        for (site, vote) in self.round(tid, &ctx, &unasked, &prepare, |_, _| None) {
            match vote {
                Ok(Response::Vote { yes: true }) => voters_yes.push(site),
                Ok(Response::Vote { yes: false }) => {}
                // No response = NO vote (§4.3.2), and so is a nonsensical
                // one: the participant is broken or the stream is
                // desynchronized, and treating it like a dead participant
                // beats leaving the transaction half-prepared everywhere
                // else.
                Ok(_) | Err(_) => self.mark_dead(site),
            }
        }
        voters_yes.sort_unstable();
        self.maybe_fail(CrashPoint::CoordAfterPrepare)?;
        if voters_yes.len() < participants.len() {
            self.abort_prepared(tid, &ctx, &voters_yes)?;
            self.finish(tid);
            return Err(DbError::TransactionAborted(tid));
        }
        // All YES: assign the commit time, unsettled until this function
        // is left — the COMMIT round is in, or the coordinator has crashed.
        let assigned = self.authority.assign();
        let commit_time = assigned.time();
        if self.cfg.protocol.is_three_phase() {
            // Phase 2: PREPARE-TO-COMMIT; all ACKs = commit point. No ack
            // (dead or deadline-expired) or a protocol-violating one: commit
            // with the remaining workers (K-1 safety, §4.3.5) — the site
            // will recover or be fenced. With no ack at all the commit point
            // has no holder to pass with: abort instead.
            let ptc = Request::PrepareToCommit { tid, commit_time };
            let holders = self.counted_round(
                tid,
                &ctx,
                &participants,
                &ptc,
                CrashPoint::CoordAfterPtcSent,
            )?;
            if holders.is_empty() {
                let delivered = self.abort_afresh(tid, &participants);
                self.finish(tid);
                delivered?;
                return Err(DbError::TransactionAborted(tid));
            }
        } else if let Some(wal) = &self.wal {
            // 2PC commit point: force-write the COMMIT record.
            wal.append_forced(&LogRecord::new(
                tid,
                Lsn::NONE,
                LogPayload::Commit { commit_time },
            ))?;
        }
        // The decision is durable (2PC) or the commit point has passed
        // (3PC): record it for in-doubt workers before telling anyone.
        self.decided_commits.lock().insert(tid, commit_time);
        // Final phase: COMMIT. A site that does not acknowledge will recover
        // the commit.
        let commit = Request::Commit { tid, commit_time };
        self.counted_round(
            tid,
            &ctx,
            &participants,
            &commit,
            CrashPoint::CoordAfterCommitSent,
        )?;
        if let Some(wal) = &self.wal {
            wal.append(&LogRecord::new(
                tid,
                Lsn::NONE,
                LogPayload::End {
                    outcome: TxnOutcome::Committed,
                },
            ));
        }
        self.metrics.add_commits(1);
        self.finish(tid);
        Ok(commit_time)
    }

    /// A round every participant is expected to acknowledge (PREPARE-TO-
    /// COMMIT, COMMIT); one that does not is marked dead. Returns the sites
    /// that acknowledged, in site order. `step` names the round's counting
    /// crash point (`CoordAfterPtcSent` / `CoordAfterCommitSent`): while one
    /// is armed the round is split at its `n`, so that when it fires exactly
    /// the first `n` participants have received *and processed* the frame
    /// and the rest were never sent it.
    fn counted_round(
        &self,
        tid: TransactionId,
        ctx: &TxnCtx,
        sites: &[SiteId],
        req: &Request,
        step: fn(usize) -> CrashPoint,
    ) -> DbResult<Vec<SiteId>> {
        let me = self.cfg.site;
        let split = (self.cfg.faults.armed().into_iter())
            .find_map(|(site, armed)| match armed {
                Armed::Crash(p) if site == me => p.count().filter(|n| step(*n) == p),
                _ => None,
            })
            .map_or(sites.len(), |n| n.max(1).min(sites.len()));
        let mut sent = 0;
        let mut acked = Vec::with_capacity(sites.len());
        for part in [&sites[..split], &sites[split..]] {
            if part.is_empty() {
                continue;
            }
            let acks = self.round(tid, ctx, part, req, |_, _| None);
            sent += part.len();
            self.maybe_fail(step(sent))?;
            for (site, ack) in acks {
                if matches!(ack, Ok(Response::Ack)) {
                    acked.push(site);
                } else {
                    self.mark_dead(site);
                }
            }
        }
        Ok(acked)
    }

    /// Aborts the transaction everywhere.
    pub fn abort(&self, tid: TransactionId) -> DbResult<()> {
        let ctx = match self.ctx(tid) {
            Ok(c) => c,
            Err(_) => return Ok(()), // already finished
        };
        let participants: Vec<SiteId> = ctx.inner.lock().participants.iter().copied().collect();
        self.abort_prepared(tid, &ctx, &participants)?;
        self.metrics.add_aborts(1);
        self.finish(tid);
        Ok(())
    }

    fn abort_prepared(&self, tid: TransactionId, ctx: &TxnCtx, sites: &[SiteId]) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            wal.append_forced(&LogRecord::new(tid, Lsn::NONE, LogPayload::Abort))?;
        }
        let abort = Request::Abort { tid };
        for (site, ack) in self.round(tid, ctx, sites, &abort, |_, _| None) {
            match ack {
                // A concurrent abort got there first.
                Ok(_) | Err(DbError::TransactionAborted(_)) => {}
                Err(_) => self.mark_dead(site),
            }
        }
        if let Some(wal) = &self.wal {
            wal.append(&LogRecord::new(
                tid,
                Lsn::NONE,
                LogPayload::End {
                    outcome: TxnOutcome::Aborted,
                },
            ));
        }
        Ok(())
    }

    /// ABORT after a PREPARE-TO-COMMIT round nobody acknowledged, which
    /// dropped every session of the transaction: each of `sites` gets it on
    /// a session leased for it, under one deadline. A site whose ack alone
    /// was lost holds prepared-to-commit, and were this coordinator to fail
    /// its election would commit; so the client may hear "aborted" only once
    /// every site has acknowledged. Otherwise the first failure is returned:
    /// the outcome is in doubt, as after a coordinator crash, and a worker
    /// that asks here is told aborted.
    fn abort_afresh(&self, tid: TransactionId, sites: &[SiteId]) -> DbResult<()> {
        let abort = || Request::Abort { tid }.to_vec();
        let leased: Vec<_> = sites.iter().map(|site| self.lease(*site, abort)).collect();
        let expires = Instant::now() + self.cfg.rpc_deadline;
        let mut delivered = Ok(());
        for chan in leased {
            let acked = chan.and_then(|mut chan| {
                let left = expires
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                match Response::from_slice(&next_frame(chan.as_mut(), left, &self.metrics)?)? {
                    Response::Ack => Ok(()),
                    other => Err(DbError::protocol(format!("ABORT answered {other:?}"))),
                }
            });
            if delivered.is_ok() {
                delivered = acked;
            }
        }
        delivered
    }

    /// Cleans up a finished transaction ("the coordinator can safely delete
    /// this queue when the transaction commits or aborts", §4.1). Also
    /// disarms any still-armed coordinator fail point: a point armed for a
    /// transaction that never reached it (e.g. `AfterPtcSentTo` on a
    /// transaction that aborted at PREPARE) must not survive to fire in a
    /// later, unrelated commit.
    ///
    /// This is where leases end: a session on which the worker acknowledged
    /// the outcome goes back to its site's idle list; every other one is
    /// closed here, which is also what tells its worker that the coordinator
    /// of exactly this transaction is done with it (§4.3.2).
    fn finish(&self, tid: TransactionId) {
        let removed = self.txns.lock().remove(&tid);
        let sessions = removed.map(|ctx| {
            let mut g = ctx.inner.lock();
            g.finished = true;
            g.queue.clear();
            std::mem::take(&mut g.chans)
        });
        for (site, slot) in sessions.into_iter().flatten() {
            let mut s = slot.lock();
            if let Some(chan) = s.chan.take() {
                if s.settled {
                    self.release(site, chan);
                }
            }
        }
        self.cfg
            .faults
            .disarm(self.cfg.site, CrashPoint::is_coordinator_point);
    }

    /// Crashes the coordinator if the plan fires an armed point of its own
    /// at `step`: the same point, or a counting one (`CoordAfterPtcSent(n)`
    /// / `CoordAfterCommitSent(n)`) whose count `step` has reached.
    fn maybe_fail(&self, step: CrashPoint) -> DbResult<()> {
        if self.crashes_at(step) {
            self.crash();
            return Err(DbError::SiteDown("coordinator crashed (fail point)".into()));
        }
        Ok(())
    }

    /// `true` if the plan fires an armed point of the coordinator's at
    /// `step`.
    fn crashes_at(&self, step: CrashPoint) -> bool {
        self.cfg.faults.decide(self.cfg.site, Effect::Step(step)) == Fault::Crash
    }

    // ------------------------------------------------------------------
    // Epoch group commit (DESIGN.md "Epoch group commit"): batched 2PC waves
    // ------------------------------------------------------------------

    /// Client side of epoch commit: enqueue the transaction for the next
    /// epoch and park until an epoch runner resolves it.
    fn commit_via_epoch(
        &self,
        tid: TransactionId,
        participants: Vec<SiteId>,
        es: Arc<EpochState>,
    ) -> DbResult<Timestamp> {
        let waiter = Arc::new(CommitWaiter::default());
        es.pending.lock().push(PendingCommit {
            tid,
            participants,
            waiter: waiter.clone(),
        });
        es.pending_cond.notify_all();
        let mut slot = waiter.slot.lock();
        loop {
            if let Some(res) = slot.take() {
                return res;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(DbError::SiteDown("coordinator crashed".into()));
            }
            waiter.cond.wait_for(&mut slot, Duration::from_millis(50));
        }
    }

    /// Scheduler thread: drains the pending queue into epochs of at most
    /// `max_txns`, holds a non-full epoch open for `max_wait` to accumulate
    /// stragglers, and hands each closed epoch to the runner threads. The
    /// hand-off blocks while every runner is busy, which is the
    /// `pipeline_depth` bound — epoch N+1's PREPARE wave may be on the wire
    /// while epoch N is still collecting acks, and no further.
    fn epoch_scheduler(self: &Arc<Self>, es: Arc<EpochState>, jobs: Sender<EpochJob>) {
        let max_txns = es.cfg.max_txns.max(1);
        loop {
            let mut batch: Vec<PendingCommit> = Vec::new();
            {
                let mut q = es.pending.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        let leftovers: Vec<PendingCommit> = q.drain(..).collect();
                        drop(q);
                        Self::resolve_crashed(&leftovers);
                        // Dropping `jobs` retires the runners once they
                        // have drained what is already queued.
                        return;
                    }
                    if !q.is_empty() {
                        let take = q.len().min(max_txns);
                        batch.extend(q.drain(..take));
                        break;
                    }
                    es.pending_cond.wait_for(&mut q, Duration::from_millis(50));
                }
            }
            // Accumulation window: a short wait after the first arrival lets
            // concurrent clients join the same epoch.
            let deadline = Instant::now() + es.cfg.max_wait;
            while batch.len() < max_txns && !self.shutdown.load(Ordering::SeqCst) {
                let mut q = es.pending.lock();
                if q.is_empty()
                    && es.pending_cond.wait_until(&mut q, deadline).timed_out()
                    && q.is_empty()
                {
                    break;
                }
                let take = (max_txns - batch.len()).min(q.len());
                batch.extend(q.drain(..take));
                drop(q);
                if Instant::now() >= deadline {
                    break;
                }
            }
            let epoch = es.epoch_seq.fetch_add(1, Ordering::SeqCst);
            if let Err(SendError((_, batch))) = jobs.send((epoch, batch)) {
                // Every runner is gone (none outlives a crash for long).
                Self::resolve_crashed(&batch);
            }
        }
    }

    /// Runner thread: executes closed epochs until the scheduler hangs up.
    fn epoch_runner(self: &Arc<Self>, jobs: Receiver<EpochJob>) {
        for (epoch, batch) in jobs.iter() {
            if self.shutdown.load(Ordering::SeqCst) {
                Self::resolve_crashed(&batch);
            } else {
                self.run_epoch(epoch, batch);
            }
        }
    }

    /// Unparks the clients of transactions a crashed coordinator will never
    /// decide.
    fn resolve_crashed(batch: &[PendingCommit]) {
        for p in batch {
            p.waiter
                .resolve(Err(DbError::SiteDown("coordinator crashed".into())));
        }
    }

    /// Runs one epoch end to end: batched PREPARE wave → per-txn vote
    /// vectors → one forced log write covering every decision record →
    /// batched COMMIT wave → vectored acks. Failures abort only the
    /// affected transactions; the epoch itself always completes.
    fn run_epoch(self: &Arc<Self>, epoch: u64, batch: Vec<PendingCommit>) {
        // Wave membership: the union of all participants.
        let mut workers: BTreeSet<SiteId> = BTreeSet::new();
        for p in &batch {
            workers.extend(p.participants.iter().copied());
        }
        let bound = self.authority.now();
        // PREPARE wave: one session per worker, leased for the epoch (the
        // transactions keep their own, so what a closed connection means to
        // a worker is unchanged), all sends first so the prepares overlap
        // across workers. A session that fails anywhere in the wave is
        // dropped with the map; only a fully acknowledged one is released.
        let mut wave: HashMap<SiteId, Box<dyn Channel>> = HashMap::new();
        for site in &workers {
            let txns: Vec<(TransactionId, Vec<SiteId>)> = batch
                .iter()
                .filter(|p| p.participants.contains(site))
                .map(|p| (p.tid, p.participants.clone()))
                .collect();
            let req = Request::PrepareBatch {
                epoch,
                txns,
                time_bound: bound,
            };
            match self.lease(*site, || req.to_vec()) {
                Ok(chan) => {
                    wave.insert(*site, chan);
                }
                // Unreachable = NO vote for every txn it participates in.
                Err(_) => self.mark_dead(*site),
            }
        }
        // Vote collection: per-txn vote vectors, one frame per worker.
        let mut votes: HashMap<(SiteId, TransactionId), bool> = HashMap::new();
        wave.retain(|site, chan| match self.wave_recv(chan.as_mut()) {
            Ok(Response::VoteBatch { votes: v }) => {
                for (tid, yes) in v {
                    votes.insert((*site, tid), yes);
                }
                true
            }
            // A missing or malformed vote vector is a NO for every txn
            // on this worker (§4.3.2 generalized to the batch).
            Ok(_) | Err(_) => {
                self.mark_dead(*site);
                false
            }
        });
        if self.fire_from_runner(CrashPoint::CoordAfterPrepare) {
            Self::resolve_crashed(&batch);
            return;
        }
        // Per-txn decisions: commit iff every participant voted YES. A NO
        // or a dead worker dooms only its own transactions. The times stay
        // unsettled until the acks are in, or this function is left early.
        let mut assigned = Vec::new();
        let mut commit_times: Vec<Option<Timestamp>> = Vec::with_capacity(batch.len());
        let mut records: Vec<LogRecord> = Vec::with_capacity(batch.len());
        for p in &batch {
            let all_yes = p
                .participants
                .iter()
                .all(|s| votes.get(&(*s, p.tid)).copied() == Some(true));
            if all_yes {
                let unsettled = self.authority.assign();
                let t = unsettled.time();
                assigned.push(unsettled);
                commit_times.push(Some(t));
                records.push(LogRecord::new(
                    p.tid,
                    Lsn::NONE,
                    LogPayload::Commit { commit_time: t },
                ));
            } else {
                commit_times.push(None);
                records.push(LogRecord::new(p.tid, Lsn::NONE, LogPayload::Abort));
            }
        }
        // 2PC commit point for the whole epoch: every decision record goes
        // into the log, then ONE force covers them all (max LSN).
        if let Some(wal) = &self.wal {
            if wal.append_all_forced(&records).is_err() {
                for p in &batch {
                    p.waiter
                        .resolve(Err(DbError::internal("epoch decision force failed")));
                }
                return;
            }
        }
        self.metrics.record_epoch(batch.len());
        // The epoch's decisions are durable: record the commits for
        // in-doubt workers before any COMMIT frame leaves.
        {
            let mut decided = self.decided_commits.lock();
            for (p, t) in batch.iter().zip(commit_times.iter()) {
                if let Some(t) = t {
                    decided.insert(p.tid, *t);
                }
            }
        }
        if self.fire_from_runner(CrashPoint::CoordAfterEpochForce) {
            Self::resolve_crashed(&batch);
            return;
        }
        // COMMIT wave: per-worker outcome vectors. Aborts go only to
        // workers that voted YES (a NO voter already rolled back locally).
        let mut waved: Vec<SiteId> = Vec::new();
        let mut sent = 0usize;
        for site in &workers {
            let commits: Vec<(TransactionId, Timestamp)> = batch
                .iter()
                .zip(commit_times.iter())
                .filter(|(p, _)| p.participants.contains(site))
                .filter_map(|(p, t)| t.map(|t| (p.tid, t)))
                .collect();
            let aborts: Vec<TransactionId> = batch
                .iter()
                .zip(commit_times.iter())
                .filter(|(_, t)| t.is_none())
                .filter(|(p, _)| votes.get(&(*site, p.tid)).copied() == Some(true))
                .map(|(p, _)| p.tid)
                .collect();
            if commits.is_empty() && aborts.is_empty() {
                continue;
            }
            let Some(chan) = wave.get_mut(site) else {
                // Dead since the PREPARE wave: it recovers the outcome from
                // its peers (§4.3.3 runs per transaction).
                continue;
            };
            let req = Request::CommitBatch {
                epoch,
                commits,
                aborts,
            };
            if chan.send(req.to_vec()).is_err() {
                wave.remove(site);
                self.mark_dead(*site);
                continue;
            }
            sent += 1;
            waved.push(*site);
            if self.fire_from_runner(CrashPoint::CoordAfterCommitSent(sent)) {
                Self::resolve_crashed(&batch);
                return;
            }
        }
        // Vectored acks: one frame per worker, covering its whole batch.
        // An acknowledged transaction has nothing left open at that worker,
        // so its own session there is settled too; the wave's session goes
        // back to the idle list.
        for site in waved {
            let Some(mut chan) = wave.remove(&site) else {
                continue;
            };
            match self.wave_recv(chan.as_mut()) {
                Ok(Response::AckBatch { acked }) => {
                    for tid in acked {
                        self.settle(tid, site);
                    }
                    self.release(site, chan);
                }
                // No ack: the worker recovers the committed outcome.
                Ok(_) | Err(_) => self.mark_dead(site),
            }
        }
        // A session with nothing to commit or abort was done after its vote
        // vector.
        for (site, chan) in wave {
            self.release(site, chan);
        }
        // Settled before any client hears of its commit.
        drop(assigned);
        // End records (unforced) and client wake-ups.
        if let Some(wal) = &self.wal {
            for (p, t) in batch.iter().zip(commit_times.iter()) {
                let outcome = if t.is_some() {
                    TxnOutcome::Committed
                } else {
                    TxnOutcome::Aborted
                };
                wal.append(&LogRecord::new(
                    p.tid,
                    Lsn::NONE,
                    LogPayload::End { outcome },
                ));
            }
        }
        for (p, t) in batch.iter().zip(commit_times.iter()) {
            match t {
                Some(t) => {
                    self.metrics.add_commits(1);
                    self.finish(p.tid);
                    p.waiter.resolve(Ok(*t));
                }
                None => {
                    self.finish(p.tid);
                    p.waiter.resolve(Err(DbError::TransactionAborted(p.tid)));
                }
            }
        }
    }

    /// Receives one frame of a wave under the liveness deadline, watching
    /// the shutdown flag between poll slices; a peer silent for the whole
    /// deadline gets [`next_frame`]'s verdict.
    fn wave_recv(&self, chan: &mut dyn Channel) -> DbResult<Response> {
        let expires = Instant::now() + self.cfg.rpc_deadline;
        loop {
            match chan.recv_timeout(Duration::from_millis(50))? {
                Some(frame) => return Response::from_slice(&frame),
                None => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Err(DbError::SiteDown("coordinator crashed".into()));
                    }
                    if Instant::now() >= expires {
                        let waited = self.cfg.rpc_deadline;
                        return Err(silent_peer(&self.metrics, &chan.peer(), waited));
                    }
                }
            }
        }
    }

    /// Marks `tid`'s own session to `site` settled: the worker acknowledged
    /// the transaction's outcome on an epoch's wave session.
    fn settle(&self, tid: TransactionId, site: SiteId) {
        let Ok(ctx) = self.ctx(tid) else {
            return;
        };
        let slot = ctx.inner.lock().chans.get(&site).cloned();
        if let Some(slot) = slot {
            slot.lock().settled = true;
        }
    }

    /// [`maybe_fail`](Self::maybe_fail) for epoch runner threads: initiates
    /// the crash but does not join (a tracked thread cannot join itself).
    fn fire_from_runner(&self, step: CrashPoint) -> bool {
        if self.crashes_at(step) {
            self.initiate_crash();
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Coordinator server: timestamp authority + join-pending (Fig 5-4)
    // ------------------------------------------------------------------

    fn serve_connection(self: &Arc<Self>, mut chan: Box<dyn Channel>) {
        while let Ok(Some(frame)) = recv_or_stop(chan.as_mut(), &self.shutdown) {
            let req = match Request::from_slice(&frame) {
                Ok(r) => r,
                Err(_) => return,
            };
            let resp = match req {
                Request::Ping => Response::Ok,
                // Not `now`: what asks is about to read a replica as of
                // the answer minus one.
                Request::GetTime => Response::Time {
                    now: self.authority.watermark(),
                },
                Request::RecComingOnline { site, table } => match self.handle_join(site, &table) {
                    Ok(()) => Response::AllDone,
                    Err(e) => Response::Err(e),
                },
                // A worker in doubt asks here first, under every protocol.
                Request::QueryTxnState { tid } => Response::TxnState {
                    state: self.txn_outcome(tid),
                },
                Request::JoinSite { site, addr } => match self.admit_site(site, &addr) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Err(e),
                },
                Request::DecommissionSite { site } => match self.decommission_site(site) {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Err(e),
                },
                _ => Response::Err(DbError::protocol("not a coordinator request")),
            };
            if chan.send(resp.to_vec()).is_err() {
                return;
            }
        }
    }

    /// Fig 5-4: `table` on `site` is coming online. Mark the site usable
    /// for new transactions, and for every pending transaction that
    /// already touched the table, forward its queued update requests so
    /// the recoverer joins it; the `AllDone` reply is sent by the caller
    /// once this returns.
    fn handle_join(self: &Arc<Self>, site: SiteId, table: &str) -> DbResult<()> {
        // If this object was a join-pending copy (site join or supervisor
        // re-replication), the announcement is what completes it: it is now
        // caught up, locked current, and a valid recovery buddy.
        self.placement.mutate(|p| p.finish_copy_join(table, site));
        // Only `table` starts receiving updates now; the site is alive
        // again once every object it was behind on has announced (§5.4.2 is
        // per-`rec`).
        {
            let mut behind = self.behind.lock();
            if let Some(tables) = behind.get_mut(&site) {
                tables.remove(table);
                if tables.is_empty() {
                    behind.remove(&site);
                }
            }
        }
        let pending: Vec<(TransactionId, Arc<TxnCtx>)> = self
            .txns
            .lock()
            .iter()
            .map(|(t, c)| (*t, c.clone()))
            .collect();
        let mut doomed: Vec<TransactionId> = Vec::new();
        for (tid, ctx) in pending {
            // The forwarder reaches the site through the transaction's own
            // session slot — the one `update` uses — so the two can never
            // each open the site for the same tid, and a forward that fails
            // leaves its session where `abort` finds it.
            let slot = {
                let mut g = ctx.inner.lock();
                let stale = g.finished || g.committing || g.participants.contains(&site);
                let relevant = g.queue.iter().any(|u| u.table() == Some(table));
                if stale || !relevant {
                    continue;
                }
                g.chans.entry(site).or_default().clone()
            };
            let forwarded = {
                let mut s = slot.lock();
                if s.begun {
                    // The client's next statement got here first and has
                    // caught the site up itself.
                    Ok(Response::Ok)
                } else {
                    let queued = ctx.inner.lock().queue.len();
                    self.catch_up(tid, &ctx, site, &mut s, table, queued)
                }
            };
            match forwarded {
                Ok(Response::Ok) => {}
                // The transaction finished or entered commit under the
                // forwarder; `first_contact` has dropped the session.
                Err(DbError::TransactionAborted(_)) => {}
                // The backlog would not replay — typically a lock timeout
                // against the recoverer's own Phase-3 locks, a deadlock the
                // victim cannot see (it is blocked in this very RPC). The
                // *transaction* is the loser (§5.4.1: deadlocks resolve by
                // timeout), not the join: abort it — the site is already a
                // participant, so the ABORT reaches it on this session and
                // its locks go now — and bring the site online.
                Ok(_) | Err(_) => doomed.push(tid),
            }
        }
        for tid in doomed {
            let _ = self.abort(tid);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use harbor_net::InMemNetwork;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The routing gate as ten lines: the sites held dead, each with the
    /// objects it has yet to announce. The third copy state, joining, is
    /// the catalog's and is read from it, not modelled.
    #[derive(Default)]
    struct Gate {
        behind: HashMap<SiteId, BTreeSet<String>>,
    }

    impl Gate {
        fn is_dead(&self, site: SiteId) -> bool {
            self.behind.contains_key(&site)
        }

        fn is_usable(&self, catalog: &SharedPlacement, site: SiteId, table: &str) -> bool {
            let behind = self.behind.get(&site).is_some_and(|t| t.contains(table));
            !behind && !catalog.read(|p| p.is_copy_joining(table, site))
        }

        fn mark_dead(&mut self, catalog: &SharedPlacement, site: SiteId) {
            let objects = catalog.objects_on(site).into_iter().map(|(t, _)| t);
            self.behind.insert(site, objects.collect());
        }

        fn announce(&mut self, site: SiteId, table: &str) {
            if let Some(tables) = self.behind.get_mut(&site) {
                tables.remove(table);
                if tables.is_empty() {
                    self.behind.remove(&site);
                }
            }
        }
    }

    const TABLES: [&str; 3] = ["a", "b", "c"];

    /// Sites 1–3 are members, 4 and 5 may join; `c` has one copy, so the
    /// site holding it cannot always leave.
    fn started(seed: u64) -> Arc<Coordinator> {
        let mut placement = Placement::new();
        for site in 1..=3 {
            placement.set_address(SiteId(site), &format!("gate-{seed}-site-{site}"));
        }
        placement.add_replicated_table("a", &[SiteId(1), SiteId(2), SiteId(3)]);
        placement.add_replicated_table("b", &[SiteId(1), SiteId(2)]);
        placement.add_replicated_table("c", &[SiteId(3)]);
        let cfg = CoordinatorConfig {
            site: SiteId(0),
            addr: format!("gate-{seed}-coordinator"),
            protocol: ProtocolKind::Opt3pc,
            log_dir: None,
            group_commit: GroupCommit::enabled(),
            disk: DiskProfile::fast(),
            rpc_deadline: crate::DEFAULT_RPC_DEADLINE,
            faults: Default::default(),
            epoch_commit: None,
            degrade_read_only: false,
        };
        let transport = Arc::new(InMemNetwork::new(Metrics::new()));
        Coordinator::start(cfg, placement, transport, Metrics::new()).unwrap()
    }

    /// Random walks over everything that edits the gate, checked after every
    /// step against [`Gate`]: `is_dead` of every site, `is_usable` of every
    /// placed copy (routing asks about no other). First run against the
    /// three sets this gate replaced, where it pinned their answers. Two
    /// steps are left out because the old answer was not worth pinning:
    /// `begin_bootstrap` onto a site held dead (the supervisor picks spares
    /// that are up; the old gate then kept the site dead until the new copy
    /// had announced too, though every object it went down with was back),
    /// and `mark_alive` of a site with a joining copy (the old gate routed to
    /// the incomplete copy; this one goes on refusing it).
    #[test]
    fn the_gate_answers_as_its_model_does() {
        for seed in 0..200u64 {
            let c = started(seed);
            let catalog = c.placement().clone();
            let mut model = Gate::default();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut trace: Vec<String> = Vec::new();
            for _ in 0..60 {
                let site = SiteId(rng.gen_range(1u16..6));
                let table = TABLES[rng.gen_range(0usize..TABLES.len())];
                let joining_here = catalog.joining_copies().iter().any(|(_, s)| *s == site);
                match rng.gen_range(0u8..7) {
                    0 => {
                        trace.push(format!("mark_dead({site})"));
                        c.mark_dead(site);
                        model.mark_dead(&catalog, site);
                    }
                    1 => {
                        trace.push(format!("announce({site}, {table})"));
                        c.handle_join(site, table).unwrap();
                        model.announce(site, table);
                    }
                    2 if !model.is_dead(site) => {
                        trace.push(format!("begin_bootstrap({site}, {table})"));
                        let _ = c.begin_bootstrap(site, table);
                    }
                    3 => {
                        trace.push(format!("abandon_bootstrap({site}, {table})"));
                        let dropped = catalog.read(|p| p.is_copy_joining(table, site));
                        c.abandon_bootstrap(site, table);
                        if let (true, Some(tables)) = (dropped, model.behind.get_mut(&site)) {
                            tables.remove(table);
                        }
                    }
                    4 => {
                        trace.push(format!("admit_site({site})"));
                        if c.admit_site(site, &format!("gate-{seed}-site-{}", site.0))
                            .is_ok()
                        {
                            model.mark_dead(&catalog, site);
                        }
                    }
                    5 => {
                        trace.push(format!("evict_site({site})"));
                        if c.evict_site(site).is_ok() {
                            model.behind.remove(&site);
                        }
                    }
                    6 if !joining_here => {
                        trace.push(format!("mark_alive({site})"));
                        c.mark_alive(site);
                        model.behind.remove(&site);
                    }
                    _ => continue,
                }
                for site in (1..6).map(SiteId) {
                    assert_eq!(
                        c.is_dead(site),
                        model.is_dead(site),
                        "is_dead({site}), seed {seed}: {trace:?}"
                    );
                }
                for table in TABLES {
                    for site in catalog.sites_for(table).unwrap() {
                        assert_eq!(
                            c.is_usable(site, table),
                            model.is_usable(&catalog, site, table),
                            "is_usable({site}, {table}), seed {seed}: {trace:?}"
                        );
                    }
                }
            }
            c.crash();
        }
    }
}
