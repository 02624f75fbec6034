//! The worker site: a thread-per-connection server executing update
//! requests, commit-protocol steps, remote scans, and recovery lock
//! requests against its local [`Engine`] (thesis §4.1, §6.1.6).
//!
//! Connections are long-lived: the coordinator keeps its sessions open
//! across transactions, one open transaction per session at a time, so a
//! connection thread serves many transactions in turn and "this connection
//! closed" still means "the coordinator of the transaction open on it is
//! gone" (§4.3.2, §5.5.1).

use crate::consensus;
use crate::message::{
    RemoteScan, Request, Response, TuplesFrameBuilder, UpdateRequest, WireReadMode, WireTxnState,
};
use crate::protocol::ProtocolKind;
use crate::CrashPoint;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use harbor_common::codec::Wire;
use harbor_common::config::SCAN_BATCH;
use harbor_common::fault::{Effect, Fault, FaultPlan};
use harbor_common::schema::NUM_VERSION_COLS;
use harbor_common::{DbError, DbResult, SiteId, Timestamp, TransactionId, Value};
use harbor_engine::Engine;
use harbor_exec::{
    key_stretches, run_update_by_key, scan_pages, visit_page, visit_stretch, visit_versions, CmpOp,
    Expr, ReadMode, ScanRow,
};
use harbor_net::{Channel, Transport};
use harbor_storage::{slots_per_page, LockKey, LockMode, ScanBounds};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker-local distributed-transaction bookkeeping (beyond the engine's
/// local state): the participant set from PREPARE and the commit time from
/// PREPARE-TO-COMMIT, which the consensus protocol needs (§4.3.3).
#[derive(Clone, Debug, Default)]
struct DistTxn {
    workers: Vec<SiteId>,
    voted: Option<bool>,
    ptc_time: Option<Timestamp>,
    /// `Some(true)` committed, `Some(false)` aborted.
    outcome: Option<bool>,
    commit_time: Option<Timestamp>,
}

/// Configuration for one worker.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    pub site: SiteId,
    pub addr: String,
    pub protocol: ProtocolKind,
    /// Run the periodic checkpoint thread at this interval (HARBOR
    /// checkpoint, plus an ARIES fuzzy log checkpoint when logging).
    pub checkpoint_every: Option<Duration>,
    /// Addresses of peer workers (consensus) — site id → address.
    pub peers: HashMap<SiteId, String>,
    /// Address of the coordinator's server, which a worker in doubt asks
    /// first under every protocol (§4.3.3); `None` leaves only the
    /// worker-side election, which is the coordinator-dead fallback.
    pub coordinator: Option<String>,
    /// Automatically run the consensus protocol when the coordinator's
    /// connection drops mid-commit (3PC only; 2PC blocks by design).
    pub auto_consensus: bool,
    /// The cluster's fault plan, asked at the worker's [`CrashPoint`]s
    /// (PREPARE vote, PTC ack, recovery scans, consensus resolution).
    pub faults: Arc<FaultPlan>,
}

/// A running worker site.
pub struct Worker {
    cfg: WorkerConfig,
    engine: Arc<Engine>,
    transport: Arc<dyn Transport>,
    dist_txns: Arc<Mutex<HashMap<TransactionId, DistTxn>>>,
    /// Live peer address book, seeded from `cfg.peers` and edited at
    /// runtime as sites join and leave the cluster (consensus must reach
    /// the *current* membership, not the birth roster).
    peers: Mutex<HashMap<SiteId, String>>,
    shutdown: Arc<AtomicBool>,
    /// Set by [`CrashPoint::WorkerAfterPtcAck`]: crash as soon as the reply
    /// currently being produced is on the wire.
    crash_after_reply: AtomicBool,
    /// The server's listener, until the crash closes it.
    listener: Mutex<Option<Arc<dyn harbor_net::Listener>>>,
    /// The line the checkpointer waits out its interval on, until the crash
    /// hangs it up. Nothing is ever sent.
    checkpointer: Mutex<Option<Sender<()>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Worker {
    /// Starts serving at `cfg.addr`.
    pub fn start(
        engine: Arc<Engine>,
        transport: Arc<dyn Transport>,
        cfg: WorkerConfig,
    ) -> DbResult<Arc<Worker>> {
        let listener = transport.listen(&cfg.addr)?;
        Self::start_with_listener(engine, transport, cfg, listener)
    }

    /// Starts serving on an already-bound listener (lets callers bind TCP
    /// port 0 and learn the real address before wiring the address book).
    pub fn start_with_listener(
        engine: Arc<Engine>,
        transport: Arc<dyn Transport>,
        mut cfg: WorkerConfig,
        listener: Box<dyn harbor_net::Listener>,
    ) -> DbResult<Arc<Worker>> {
        cfg.addr = listener.local_addr();
        let listener: Arc<dyn harbor_net::Listener> = Arc::from(listener);
        let peers = Mutex::new(cfg.peers.clone());
        let (line, hung_up) = bounded(0);
        let worker = Arc::new(Worker {
            cfg,
            engine,
            transport,
            dist_txns: Arc::new(Mutex::new(HashMap::new())),
            peers,
            shutdown: Arc::new(AtomicBool::new(false)),
            crash_after_reply: AtomicBool::new(false),
            listener: Mutex::new(Some(listener.clone())),
            checkpointer: Mutex::new(Some(line)),
            handles: Mutex::new(Vec::new()),
        });
        {
            let w = worker.clone();
            let h = std::thread::Builder::new()
                .name(format!("worker-{}-acceptor", w.cfg.site.0))
                .spawn(move || {
                    let conn_name = format!("worker-{}-conn", w.cfg.site.0);
                    harbor_net::serve_connections(
                        listener.as_ref(),
                        &w.shutdown,
                        &conn_name,
                        |chan| w.serve_connection(chan),
                    )
                })
                .map_err(|e| DbError::internal(format!("spawn acceptor: {e}")))?;
            worker.handles.lock().push(h);
        }
        if let Some(every) = worker.cfg.checkpoint_every {
            let w = worker.clone();
            let h = std::thread::Builder::new()
                .name(format!("worker-{}-checkpointer", w.cfg.site.0))
                .spawn(move || w.checkpoint_loop(every, hung_up))
                .map_err(|e| DbError::internal(format!("spawn checkpointer: {e}")))?;
            worker.handles.lock().push(h);
        }
        Ok(worker)
    }

    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    pub fn addr(&self) -> &str {
        &self.cfg.addr
    }

    /// Fail-stop crash: stop serving immediately and join the server
    /// threads. The engine's volatile state dies with the caller's `Arc`s;
    /// nothing is flushed.
    pub fn crash(&self) {
        self.initiate_crash();
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Graceful variant used by tests to end a run (same mechanics; the
    /// name documents intent).
    pub fn stop(&self) {
        self.crash();
    }

    /// Begins a fail-stop crash *from inside a serving thread* (a fired
    /// [`CrashPoint`]): flips the shutdown flag and closes the listener — the
    /// acceptor ends at once, the listener unbinds and the checkpointer
    /// wakes; connection threads observe the flag within their next poll
    /// slice (or when the peer hangs up). A thread cannot join itself, so
    /// the final [`crash`](Self::crash) join is left to the harness once
    /// [`is_shutdown`](Self::is_shutdown) reports true.
    pub fn initiate_crash(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(listener) = self.listener.lock().take() {
            listener.close();
        }
        self.checkpointer.lock().take();
    }

    /// `true` once the worker has crashed or begun crashing.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Asks the fault plan about `point`; on a crash, starts the fail-stop
    /// crash and reports `true` so the caller can vanish without replying.
    pub(crate) fn fire_crash(&self, point: CrashPoint) -> bool {
        if self.crashes_at(point) {
            self.initiate_crash();
            true
        } else {
            false
        }
    }

    /// `true` if the plan fires an armed point of this site's at `point`.
    fn crashes_at(&self, point: CrashPoint) -> bool {
        self.cfg.faults.decide(self.cfg.site, Effect::Step(point)) == Fault::Crash
    }

    fn checkpoint_loop(self: &Arc<Self>, every: Duration, hung_up: Receiver<()>) {
        // The interval runs out, or the crash ends the wait and the loop.
        while let Err(RecvTimeoutError::Timeout) = hung_up.recv_timeout(every) {
            let _ = self.engine.checkpoint();
            if self.engine.is_logging() {
                let _ = self.engine.log_checkpoint();
            }
        }
    }

    fn serve_connection(self: &Arc<Self>, mut chan: Box<dyn Channel>) {
        // Transactions begun on this connection and not known to be decided
        // (coordinator-failure detection), and recovery locks granted
        // through it (§5.5.1). Both stay O(1) however long the connection
        // lives: decided transactions leave at the next begin marker, locks
        // at their release.
        let mut conn_txns: Vec<TransactionId> = Vec::new();
        let mut conn_locks: Vec<(TransactionId, LockKey)> = Vec::new();
        loop {
            let frame = match harbor_net::recv_or_stop(chan.as_mut(), &self.shutdown) {
                Ok(Some(f)) => f,
                Ok(None) => return, // crash: vanish without cleanup
                Err(_) => {
                    // Likewise when the peer hangs up on a crashed site.
                    if !self.is_shutdown() {
                        self.on_disconnect(&conn_txns, &conn_locks);
                    }
                    return;
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // A crash point fired elsewhere in the worker: a crashed
                // site serves nothing, even requests already in flight —
                // otherwise a half-dead site could still grant locks or
                // votes after its fail-stop began.
                return;
            }
            let resp = match Request::from_slice(&frame) {
                Ok(req) => self.serve_request(req, &mut chan, &mut conn_txns, &mut conn_locks),
                Err(e) => Response::Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // A crash point fired while handling (e.g. during the
                // PREPARE vote, or mid-stream of a scan): a crashed site
                // sends nothing.
                return;
            }
            if chan.send(resp.to_vec()).is_err() {
                self.on_disconnect(&conn_txns, &conn_locks);
                return;
            }
            if self.crash_after_reply.swap(false, Ordering::SeqCst) {
                // WorkerAfterPtcAck: the ack is on the wire; die in the
                // prepared-to-commit state (Table 4.1).
                self.initiate_crash();
                return;
            }
        }
    }

    /// The reply to one request of a connection, with the connection's own
    /// bookkeeping: the begin marker opens the transaction and is served as
    /// the frame it rode in on, and a recovery lock granted through the
    /// connection lives with it until released.
    fn serve_request(
        self: &Arc<Self>,
        req: Request,
        chan: &mut Box<dyn Channel>,
        conn_txns: &mut Vec<TransactionId>,
        conn_locks: &mut Vec<(TransactionId, LockKey)>,
    ) -> Response {
        let req = match req {
            Request::Begin { tid, first } => match self.begin_txn(tid) {
                Ok(()) => {
                    // The session's previous transaction ended before the
                    // coordinator leased it out again.
                    conn_txns.retain(|t| self.is_undecided(*t));
                    conn_txns.push(tid);
                    *first
                }
                Err(e) => {
                    let why = e.to_string();
                    return Response::Err(DbError::BeginRefused { tid, why });
                }
            },
            unmarked => unmarked,
        };
        // Streaming requests send their batches through `chan` themselves.
        let resp = self.handle(&req, chan);
        match &req {
            Request::AcquireTableLock { tid, table } if matches!(resp, Response::Ok) => {
                if let Some(def) = self.engine.table_def(table) {
                    conn_locks.push((*tid, LockKey::Table(def.id)));
                }
            }
            Request::ReleaseTableLock { tid, table } => {
                if let Some(def) = self.engine.table_def(table) {
                    conn_locks.retain(|(t, k)| !(t == tid && *k == LockKey::Table(def.id)));
                }
            }
            _ => {}
        }
        resp
    }

    /// Coordinator (or recovering-site) connection died (§4.3.2, §5.5.1).
    fn on_disconnect(
        self: &Arc<Self>,
        conn_txns: &[TransactionId],
        conn_locks: &[(TransactionId, LockKey)],
    ) {
        // Override a dead recoverer's locks so transactions can progress.
        for (tid, _) in conn_locks {
            self.engine.locks().release_all(*tid);
        }
        for tid in conn_txns {
            let state = self.backup_state(*tid);
            match state {
                // Not yet prepared, or prepared-voted-NO: safe to abort
                // unilaterally under every protocol (§4.3.2).
                WireTxnState::Pending | WireTxnState::PreparedVotedNo => {
                    // A rollback that fails (a disk fault under the undo)
                    // stays undecided, so termination retries it instead of
                    // its tuples and locks staying behind at a site nobody
                    // presumes dead.
                    let _ = self.apply_abort(*tid);
                }
                WireTxnState::Committed(_) | WireTxnState::Aborted | WireTxnState::Unknown => {}
                // Prepared-YES or beyond: 2PC must block for the
                // coordinator; 3PC runs the termination protocol.
                _ => {
                    if self.cfg.protocol.is_three_phase() && self.cfg.auto_consensus {
                        let w = self.clone();
                        let tid = *tid;
                        std::thread::spawn(move || {
                            let _ = w.resolve_by_consensus(tid);
                        });
                    }
                }
            }
        }
    }

    /// Opens `tid` here for the frame that carries the begin marker. Never
    /// a second time: a duplicated first frame finds the transaction open
    /// and a late one finds it decided, and neither may open it again — what
    /// it then executed no transaction end would ever clean up.
    fn begin_txn(&self, tid: TransactionId) -> DbResult<()> {
        let dist = self.dist_txns.lock();
        let ended = dist.get(&tid).is_some_and(|info| info.outcome.is_some());
        drop(dist);
        if ended {
            return Err(DbError::protocol(format!("{tid} already ended here")));
        }
        self.engine.begin(tid)?;
        self.dist_txns.lock().insert(tid, DistTxn::default());
        Ok(())
    }

    /// `false` once this worker knows `tid` committed or aborted.
    fn is_undecided(&self, tid: TransactionId) -> bool {
        self.dist_txns
            .lock()
            .get(&tid)
            .is_some_and(|info| info.outcome.is_none())
    }

    /// Transactions this worker holds commit-protocol state for with no
    /// decided outcome — the set a backup-coordinator consensus round would
    /// have to terminate if the coordinator were lost (§4.3.3). A worker in
    /// this state may hold an *acknowledged* transaction as merely
    /// prepared-to-commit (its COMMIT frame was lost), so it must not serve
    /// as a recovery buddy until these are resolved.
    pub fn unresolved_dist_txns(&self) -> Vec<TransactionId> {
        let dist = self.dist_txns.lock();
        let mut out: Vec<TransactionId> = dist
            .iter()
            .filter(|(_, i)| i.outcome.is_none())
            .map(|(tid, _)| *tid)
            .collect();
        out.sort_unstable();
        out
    }

    /// The participant list of `tid` as the last PREPARE this worker saw
    /// named it, in rank order — who the election would ask (§4.3.3).
    /// Empty if no PREPARE has arrived.
    pub fn participants(&self, tid: TransactionId) -> Vec<SiteId> {
        let dist = self.dist_txns.lock();
        let mut ranked = dist
            .get(&tid)
            .map(|i| i.workers.clone())
            .unwrap_or_default();
        ranked.sort_unstable();
        ranked.dedup();
        ranked
    }

    /// This worker's state of `tid` (Fig 4-5, plus the vote), as Table 4.1
    /// and `QueryTxnState` read it. A transaction the engine does not know
    /// is aborted (presumed abort).
    pub fn backup_state(&self, tid: TransactionId) -> WireTxnState {
        let dist = self.dist_txns.lock();
        let info = dist.get(&tid);
        if let Some(info) = info {
            if let Some(outcome) = info.outcome {
                return if outcome {
                    let t = info
                        .commit_time
                        .or(info.ptc_time)
                        .unwrap_or(Timestamp::ZERO);
                    WireTxnState::Committed(t)
                } else {
                    WireTxnState::Aborted
                };
            }
            if let Some(t) = info.ptc_time {
                return WireTxnState::PreparedToCommit(t);
            }
            match info.voted {
                Some(true) => return WireTxnState::PreparedVotedYes,
                Some(false) => return WireTxnState::PreparedVotedNo,
                None => {}
            }
        }
        drop(dist);
        match self.engine.txn_status(tid) {
            Some(_) => WireTxnState::Pending,
            None => WireTxnState::Aborted,
        }
    }

    /// Terminates `tid`, which this worker holds in doubt (§4.3.3; the rule
    /// is in [`consensus`]): asks the coordinator, and only if it cannot be
    /// reached runs the election, in which the lowest-ranked live
    /// participant drives the outcome per Table 4.1 and the rest ask it.
    /// `Ok(false)` leaves the transaction blocked: the coordinator kept it
    /// in flight, or no backup reached an outcome, for the whole retry
    /// schedule.
    pub fn resolve_by_consensus(self: &Arc<Self>, tid: TransactionId) -> DbResult<bool> {
        let workers = self.participants(tid);
        if workers.is_empty() {
            // No PREPARE ever arrived: commit processing never began, so
            // the worker can safely abort unilaterally (§4.3.3: "if a
            // worker detects a coordinator failure before a transaction's
            // commit processing stage ... the worker can safely abort").
            self.apply_abort(tid)?;
            return Ok(true);
        }
        // One schedule paces every ask that brings no outcome, the
        // coordinator's and the backup's: the shared seeded backoff (the
        // per-site seed decorrelates concurrent elections).
        let policy = harbor_common::RetryPolicy::new(
            200,
            std::time::Duration::from_millis(25),
            std::time::Duration::from_millis(100),
            0x0BAC_C0FF ^ u64::from(self.cfg.site.0),
        );
        let mut waits = (0..policy.attempts).map(|attempt| policy.delay(attempt));
        // While the coordinator answers, its answer is the outcome. One that
        // still has the transaction in flight is asked again: it may have
        // dropped this worker's session, and with it the decision it would
        // have sent.
        if let Some(addr) = self.cfg.coordinator.as_deref() {
            while let Some(state) = consensus::ask_state(self, addr, tid) {
                if self.adopt(tid, state)? {
                    return Ok(true);
                }
                let Some(wait) = waits.next() else {
                    return Ok(false);
                };
                std::thread::sleep(wait);
            }
        }
        if consensus::resolve(self, tid, &workers)? {
            return Ok(true);
        }
        // A higher-ranked live site is the backup: poll its view of the
        // transaction and adopt the outcome it reaches.
        let me = self.site();
        loop {
            let backup = workers
                .iter()
                .take_while(|site| **site != me)
                .find_map(|site| consensus::ask_state(self, &self.peer_addr(*site)?, tid));
            if let Some(state) = backup {
                if self.adopt(tid, state)? {
                    return Ok(true);
                }
            }
            // Backup undecided (or we are next in line if it died): retry,
            // re-running the election each time.
            let Some(wait) = waits.next() else {
                return Ok(false);
            };
            std::thread::sleep(wait);
            if consensus::resolve(self, tid, &workers)? {
                return Ok(true);
            }
        }
    }

    /// Adopts the outcome another site holds for `tid` — the coordinator's
    /// or the backup's. `Ok(false)` while it holds none.
    fn adopt(&self, tid: TransactionId, state: WireTxnState) -> DbResult<bool> {
        match state {
            WireTxnState::Committed(t) => self.apply_commit(tid, t)?,
            WireTxnState::Aborted | WireTxnState::Unknown => self.apply_abort(tid)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// One peer's current address (owned — no guard escapes, so callers
    /// are free to block on the connection).
    pub(crate) fn peer_addr(&self, site: SiteId) -> Option<String> {
        self.peers.lock().get(&site).cloned()
    }

    /// Registers (or re-addresses) a peer that joined the cluster.
    pub fn add_peer(&self, site: SiteId, addr: &str) {
        self.peers.lock().insert(site, addr.to_string());
    }

    /// Forgets a decommissioned peer.
    pub fn remove_peer(&self, site: SiteId) {
        self.peers.lock().remove(&site);
    }

    pub(crate) fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Executes one request. Streaming responses (scans) write directly to
    /// `chan`; the returned response is the final frame.
    fn handle(self: &Arc<Self>, req: &Request, chan: &mut Box<dyn Channel>) -> Response {
        match self.handle_inner(req, chan) {
            Ok(resp) => resp,
            Err(e) => Response::Err(e),
        }
    }

    fn handle_inner(
        self: &Arc<Self>,
        req: &Request,
        chan: &mut Box<dyn Channel>,
    ) -> DbResult<Response> {
        match req {
            // `serve_request` opens the marker before it gets here.
            Request::Begin { .. } => Err(DbError::protocol("nested begin marker")),
            Request::Update { tid, req } => {
                self.apply_update(*tid, req)?;
                Ok(Response::Ok)
            }
            Request::LastUpdate {
                tid,
                req,
                workers,
                time_bound,
            } => {
                // A copy of the frame finds the vote cast: the statement is
                // not applied again, and the PREPARE repeats its vote as any
                // duplicate PREPARE does. A statement that fails is answered
                // as a failed statement, with nothing prepared.
                let dist = self.dist_txns.lock();
                let voted = dist.get(tid).is_some_and(|info| info.voted.is_some());
                drop(dist);
                if !voted {
                    self.apply_update(*tid, req)?;
                }
                self.answer_prepare(*tid, workers, *time_bound)
            }
            Request::Prepare {
                tid,
                workers,
                time_bound,
            } => self.answer_prepare(*tid, workers, *time_bound),
            Request::PrepareBatch {
                txns, time_bound, ..
            } => {
                // Either crash point kills the whole vote vector: the
                // coordinator sees a dead participant and must abort only
                // this worker's txns, not the epoch.
                if self.fire_crash(CrashPoint::WorkerDuringBatchPrepare)
                    || self.fire_crash(CrashPoint::WorkerDuringPrepareVote)
                {
                    return Err(DbError::SiteDown("worker crashed (fail point)".into()));
                }
                let mut votes = Vec::with_capacity(txns.len());
                for (tid, workers) in txns {
                    // A failed vote is a NO vote, not a dead worker: the
                    // rest of the epoch must still get its votes.
                    let yes = self
                        .vote_on_prepare(*tid, workers, *time_bound)
                        .unwrap_or(false);
                    votes.push((*tid, yes));
                }
                Ok(Response::VoteBatch { votes })
            }
            Request::PrepareToCommit { tid, commit_time } => {
                // Duplicate deliveries (consensus replay) are fine.
                if self.engine.txn_status(*tid).is_none() {
                    return Ok(Response::Ack);
                }
                self.engine.prepare_to_commit(
                    *tid,
                    *commit_time,
                    self.cfg.protocol.worker_ptc_logging(),
                )?;
                self.dist_txns.lock().entry(*tid).or_default().ptc_time = Some(*commit_time);
                if self.crashes_at(CrashPoint::WorkerAfterPtcAck) {
                    // The point is "after the ack is on the wire", so don't
                    // flip the shutdown flag yet (that would suppress the
                    // ack): the serving loop crashes right after the send.
                    self.crash_after_reply.store(true, Ordering::SeqCst);
                }
                Ok(Response::Ack)
            }
            Request::Commit { tid, commit_time } => {
                self.apply_commit(*tid, *commit_time)?;
                Ok(Response::Ack)
            }
            Request::Abort { tid } => {
                self.apply_abort(*tid)?;
                Ok(Response::Ack)
            }
            Request::CommitBatch {
                commits, aborts, ..
            } => {
                // Per-txn isolation: one failed apply must not block the
                // rest of the wave's acks (the coordinator re-resolves any
                // unacked txn through recovery, not the epoch).
                let mut acked = Vec::with_capacity(commits.len() + aborts.len());
                for (tid, commit_time) in commits {
                    if self.apply_commit(*tid, *commit_time).is_ok() {
                        acked.push(*tid);
                    }
                }
                for tid in aborts {
                    if self.apply_abort(*tid).is_ok() {
                        acked.push(*tid);
                    }
                }
                Ok(Response::AckBatch { acked })
            }
            Request::Scan(scan) => {
                self.stream_scan(scan, chan)?;
                Ok(Response::Ok)
            }
            Request::SegmentBounds { table } => {
                let def = table_def(&self.engine, table)?;
                let heap = self.engine.pool().table(def.id)?;
                let segments = heap
                    .segments()
                    .iter()
                    .map(|s| {
                        (
                            s.tmin_insert,
                            s.tmax_insert,
                            s.tmax_delete,
                            s.page_count as u64,
                        )
                    })
                    .collect();
                Ok(Response::SegmentBounds { segments })
            }
            Request::AcquireTableLock { tid, table } => {
                let def = table_def(&self.engine, table)?;
                self.engine
                    .locks()
                    .acquire(*tid, LockKey::Table(def.id), LockMode::Shared)?;
                Ok(Response::Ok)
            }
            Request::ReleaseTableLock { tid, table } => {
                let def = table_def(&self.engine, table)?;
                self.engine.locks().release(*tid, LockKey::Table(def.id));
                // The lock owner id is dedicated to this one recovery
                // object, so drop any stragglers it may hold too.
                self.engine.locks().release_all(*tid);
                Ok(Response::Ok)
            }
            Request::QueryTxnState { tid } => Ok(Response::TxnState {
                state: self.backup_state(*tid),
            }),
            Request::Ping => Ok(Response::Ok),
            Request::GetTime
            | Request::RecComingOnline { .. }
            | Request::JoinSite { .. }
            | Request::DecommissionSite { .. } => {
                Err(DbError::protocol("request must be sent to a coordinator"))
            }
        }
    }

    /// The reply to one transaction's PREPARE, whether it came as a frame
    /// of its own or riding the last statement.
    fn answer_prepare(
        &self,
        tid: TransactionId,
        workers: &[SiteId],
        time_bound: Timestamp,
    ) -> DbResult<Response> {
        if self.fire_crash(CrashPoint::WorkerDuringPrepareVote) {
            // Crash while producing the vote: the coordinator sees a
            // dead participant, not a vote (§4.3.2 treats that as NO).
            return Err(DbError::SiteDown("worker crashed (fail point)".into()));
        }
        let yes = self.vote_on_prepare(tid, workers, time_bound)?;
        Ok(Response::Vote { yes })
    }

    /// Votes on one PREPARE (§4.3.2) — shared by the serial and batched
    /// first phases, so both populate the same per-txn consensus state.
    fn vote_on_prepare(
        &self,
        tid: TransactionId,
        workers: &[SiteId],
        time_bound: Timestamp,
    ) -> DbResult<bool> {
        // A vote request for an unknown transaction gets NO
        // (§4.3.2: worker crashed and recovered in between).
        if self.engine.txn_status(tid).is_none() {
            return Ok(false);
        }
        {
            let mut dist = self.dist_txns.lock();
            let info = dist.entry(tid).or_default();
            info.workers = workers.to_vec();
        }
        // Duplicate PREPARE (a backup coordinator replaying the
        // first phase, §4.3.3): repeat the previous vote.
        match self.backup_state(tid) {
            WireTxnState::PreparedVotedYes | WireTxnState::PreparedToCommit(_) => return Ok(true),
            WireTxnState::PreparedVotedNo | WireTxnState::Aborted => {
                // The coordinator never sends a NO voter the outcome, so
                // nothing may stay open behind a NO (a no-op when the
                // earlier NO already rolled back).
                self.apply_abort(tid)?;
                return Ok(false);
            }
            _ => {}
        }
        match self
            .engine
            .prepare(tid, time_bound, self.cfg.protocol.worker_prepare_logging())
        {
            Ok(()) => {
                self.dist_txns.lock().entry(tid).or_default().voted = Some(true);
                Ok(true)
            }
            Err(_) => {
                // NO vote: roll back immediately (Figs 4-2/4-3).
                self.dist_txns.lock().entry(tid).or_default().voted = Some(false);
                self.apply_abort(tid)?;
                Ok(false)
            }
        }
    }

    /// Applies one COMMIT decision, whoever made it: the coordinator's
    /// second phase, serial or batched, its forced log, or a consensus
    /// backup (§4.3.3). Duplicate deliveries are fine (the engine no longer
    /// knows the txn); the applied clock always advances. With
    /// [`apply_abort`](Self::apply_abort), the only place a worker records a
    /// transaction's outcome.
    fn apply_commit(&self, tid: TransactionId, commit_time: Timestamp) -> DbResult<()> {
        if self.engine.txn_status(tid).is_some() {
            self.engine
                .commit(tid, commit_time, self.cfg.protocol.worker_commit_logging())?;
        }
        self.engine.advance_applied_clock(commit_time);
        let mut dist = self.dist_txns.lock();
        let info = dist.entry(tid).or_default();
        info.outcome = Some(true);
        info.commit_time = Some(commit_time);
        Ok(())
    }

    /// Applies one ABORT decision, whoever made it — the coordinator, a
    /// consensus backup, this worker's NO vote or its unilateral abort of a
    /// transaction whose coordinator is gone. The outcome is recorded only
    /// once the rollback went through.
    fn apply_abort(&self, tid: TransactionId) -> DbResult<()> {
        self.engine
            .abort(tid, self.cfg.protocol.worker_commit_logging())?;
        self.dist_txns.lock().entry(tid).or_default().outcome = Some(false);
        Ok(())
    }

    /// Executes one logical update request (§4.1).
    fn apply_update(&self, tid: TransactionId, req: &UpdateRequest) -> DbResult<()> {
        // A statement for a transaction this site does not have open (an
        // abort overtook it) must not take locks, or leave a tuple, that no
        // transaction end would ever clean up.
        if self.engine.txn_status(tid).is_none() {
            return Err(DbError::UnknownTransaction(tid));
        }
        match req {
            UpdateRequest::Insert { table, values } => {
                let def = table_def(&self.engine, table)?;
                self.engine.insert(tid, def.id, values.clone())?;
                Ok(())
            }
            UpdateRequest::InsertMany { table, rows } => {
                let def = table_def(&self.engine, table)?;
                for row in rows {
                    self.engine.insert(tid, def.id, row.clone())?;
                }
                Ok(())
            }
            UpdateRequest::DeleteWhere { table, pred } => {
                let def = table_def(&self.engine, table)?;
                harbor_exec::run_delete(&self.engine, tid, def.id, pred)?;
                Ok(())
            }
            UpdateRequest::UpdateByKey { table, key, set } => {
                let def = table_def(&self.engine, table)?;
                check_set(&def, set)?;
                run_update_by_key(&self.engine, tid, def.id, *key, |user| apply_set(user, set))?;
                Ok(())
            }
            UpdateRequest::UpdateWhere { table, pred, set } => {
                let def = table_def(&self.engine, table)?;
                check_set(&def, set)?;
                harbor_exec::run_update(&self.engine, tid, def.id, pred, |user| {
                    apply_set(user, set)
                })?;
                Ok(())
            }
            UpdateRequest::SimulateWork { cycles } => {
                simulate_cpu_work(*cycles);
                Ok(())
            }
        }
    }

    /// Streams a scan's result in batches.
    fn stream_scan(&self, scan: &RemoteScan, chan: &mut Box<dyn Channel>) -> DbResult<()> {
        let metrics = self.engine.metrics();
        let recovery = recovery_crash_point(scan).is_some();
        ship_scan(&self.engine, scan, |frame, done| {
            let rows = frame.rows() as u64;
            let frame = frame.finish(done);
            let payload = frame.len() as u64;
            if recovery {
                metrics.add_recovery_tuples_shipped(rows);
                metrics.add_recovery_bytes_shipped(payload);
            }
            metrics.add_scan_bytes_zero_copy(payload);
            chan.send(frame)?;
            // A scan is the one long CPU-bound request a connection thread
            // serves, and nothing above makes it wait (the in-memory
            // transport queues without bound). On a saturated core the
            // scheduler would let it run out its slice ahead of the short
            // protocol steps of concurrent transactions; giving the core up
            // between batches keeps their tail latency where it was when
            // scans blocked on a merge channel (EXPERIMENTS.md, "One page
            // visitor").
            std::thread::yield_now();
            if rows == 0 {
                return Ok(());
            }
            self.maybe_crash_serving_scan(scan)
        })
    }

    /// Probes the buddy-death crash points while serving a recovery scan:
    /// Phase-2 historical catch-up scans and Phase-3 locked scans die
    /// *mid-stream*, after a frame that carried rows is on the wire, so the
    /// recovering side must detect the severed stream and reassign (§5.5).
    /// An empty answer probes nothing, so it cannot use up a point meant for
    /// the stream that follows it.
    fn maybe_crash_serving_scan(&self, scan: &RemoteScan) -> DbResult<()> {
        let Some(point) = recovery_crash_point(scan) else {
            return Ok(());
        };
        if self.fire_crash(point) {
            return Err(DbError::SiteDown(
                "worker crashed serving recovery scan (fail point)".into(),
            ));
        }
        Ok(())
    }
}

/// The crash point a scan probes while it is served, if it is recovery
/// traffic: a Phase-2 historical catch-up scan or a Phase-3 locked one. Any
/// other scan (a coordinator's historical or current read) is not, and moves
/// no `recovery_*_shipped` counter.
fn recovery_crash_point(scan: &RemoteScan) -> Option<CrashPoint> {
    match scan.mode {
        WireReadMode::SeeDeletedHistorical(_) => Some(CrashPoint::WorkerServingPhase2Scan),
        WireReadMode::SeeDeletedLocked(_) => Some(CrashPoint::WorkerServingPhase3Scan),
        _ => None,
    }
}

/// The scan service. Walks `scan`'s rows through the page visitor from one
/// of three row sources, and transcodes each from page bytes into a
/// `Response::Tuples` frame:
///
/// * a pure deletion query (`(tuple_id, deletion_time)` pairs of rows
///   deleted after `del_after`, no insertion lower bound) visits the rows
///   the table's deletion log lists after that time, in deletion-time order
///   (the §5.2 footnote's deletion vector), and ships a row only while its
///   deletion time is still the one logged;
/// * a predicate that bounds the key column, through `AND`s, visits the
///   stretches of slots the tuple-id index's range lookup finds for those
///   keys on the segments pruning leaves ([`key_stretches`], bounds from
///   `key_interval`);
/// * anything else visits the pages segment pruning leaves.
///
/// Each visit is the one visibility rule ([`ReadMode::admit`] and the
/// bounds), so an unreadable page fails every source alike. `ship` gets the
/// frame, and whether it ends the stream, each time a page, a stretch or a
/// logged row leaves [`SCAN_BATCH`] rows in it, and once more at the end. No
/// page latch is held while `ship` runs. Plain reads, filtered reads and
/// every recovery query go out through this one loop; it is public so the
/// benches time it as it is.
pub fn ship_scan(
    engine: &Engine,
    scan: &RemoteScan,
    mut ship: impl FnMut(TuplesFrameBuilder, bool) -> DbResult<()>,
) -> DbResult<()> {
    let table = table_def(engine, &scan.table)?.id;
    let mode = read_mode(scan.mode);
    let bounds = ScanBounds {
        ins_at_or_before: scan.ins_at_or_before,
        ins_after: scan.ins_after,
        del_after: scan.del_after,
        uncommitted_from_segment: None,
    };
    let pool = engine.pool();
    let heap = pool.table(table)?;
    let pred = scan.predicate.as_ref();
    // The first frame has room for one row and doubles from there, so a
    // small answer (a point read's) takes one allocation or a few; it never
    // doubles past the most a frame can hold — a batch less one row, then a
    // whole page. A frame after a full one is sized for that much up front,
    // so it is one allocation, not a dozen doublings.
    let row_bytes = heap.desc().wire_capacity();
    let most_rows = SCAN_BATCH - 1 + slots_per_page(heap.tuple_size());
    let batch_bytes = most_rows * row_bytes;
    let put = |frame: &mut TuplesFrameBuilder, row: ScanRow<'_>| {
        let enc = frame.encoder();
        enc.reserve_up_to(row_bytes, batch_bytes);
        if row.ship(pred, scan.ids_and_deletions_only, enc)? {
            frame.note_row();
        }
        Ok(())
    };
    let mut frame = TuplesFrameBuilder::with_capacity(row_bytes);
    let mut ship_if_full = |frame: &mut TuplesFrameBuilder| -> DbResult<()> {
        if frame.rows() as usize >= SCAN_BATCH {
            let next = TuplesFrameBuilder::with_capacity(batch_bytes);
            ship(std::mem::replace(frame, next), false)?;
        }
        Ok(())
    };
    // A §5.3 deletion query asks for what the log lists: the rows deleted
    // after a time, whenever they were inserted.
    let deletions = scan
        .del_after
        .filter(|_| scan.ids_and_deletions_only && scan.ins_after.is_none());
    if let Some(after) = deletions {
        let logged = engine.deletion_log(table)?.deleted_after(pool, after)?;
        for (rid, del) in logged {
            // The log may lag the page: a row undeleted, re-deleted or
            // removed since it was noted is not this entry's row.
            visit_versions(engine, table, &[rid], mode, &bounds, |row| {
                if row.del != del {
                    return Ok(());
                }
                put(&mut frame, row)
            })?;
            ship_if_full(&mut frame)?;
        }
    } else if let Some(keys) = pred.and_then(|p| key_interval(p, NUM_VERSION_COLS)) {
        for stretch in key_stretches(engine, table, keys, &bounds)? {
            visit_stretch(pool, &heap, &stretch, mode, &bounds, |row| {
                put(&mut frame, row)
            })?;
            ship_if_full(&mut frame)?;
        }
    } else {
        for pid in scan_pages(&heap, &bounds) {
            visit_page(pool, &heap, pid, mode, &bounds, |row| put(&mut frame, row))?;
            ship_if_full(&mut frame)?;
        }
    }
    ship(frame, true)
}

/// The keys `pred` bounds the key column (stored column `key_col`) to, if it
/// bounds it at all: an equality, a closed range or a half-open one.
///
/// Only conjuncts reachable through `AND` count: a key constraint nested
/// under `OR`/`NOT` does not restrict the result set on its own. The full
/// predicate is always re-applied as a residual filter, so the interval
/// only needs to hold every qualifying key — contradictory bounds simply
/// yield an empty one.
fn key_interval(pred: &Expr, key_col: usize) -> Option<RangeInclusive<i64>> {
    fn gather(e: &Expr, key_col: usize, keys: &mut Option<(i64, i64)>) {
        match e {
            Expr::And(a, b) => {
                gather(a, key_col, keys);
                gather(b, key_col, keys);
            }
            Expr::Cmp(op, a, b) => {
                let (op, n) = match (&**a, &**b) {
                    (Expr::Col(c), Expr::Lit(Value::Int64(n))) if *c == key_col => (*op, *n),
                    (Expr::Lit(Value::Int64(n)), Expr::Col(c)) if *c == key_col => {
                        // Flip `lit OP col` into `col OP' lit`.
                        let flipped = match op {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                            other => *other,
                        };
                        (flipped, *n)
                    }
                    _ => return,
                };
                let (lo, hi) = match op {
                    CmpOp::Eq => (n, n),
                    CmpOp::Ge => (n, i64::MAX),
                    CmpOp::Le => (i64::MIN, n),
                    CmpOp::Gt => match n.checked_add(1) {
                        Some(n) => (n, i64::MAX),
                        None => return,
                    },
                    CmpOp::Lt => match n.checked_sub(1) {
                        Some(n) => (i64::MIN, n),
                        None => return,
                    },
                    CmpOp::Ne => return,
                };
                *keys = Some(keys.map_or((lo, hi), |(l, h)| (l.max(lo), h.min(hi))));
            }
            _ => {}
        }
    }
    let mut keys = None;
    gather(pred, key_col, &mut keys);
    keys.map(|(lo, hi)| lo..=hi)
}

fn table_def(engine: &Engine, name: &str) -> DbResult<Arc<harbor_engine::TableDef>> {
    engine
        .table_def(name)
        .ok_or_else(|| DbError::Schema(format!("no table {name:?}")))
}

/// Maps a wire-expressible read mode onto the engine's.
fn read_mode(mode: WireReadMode) -> ReadMode {
    match mode {
        WireReadMode::Historical(t) => ReadMode::Historical(t),
        WireReadMode::SeeDeletedHistorical(t) => ReadMode::SeeDeletedHistorical(t),
        // The recovering site already holds a table-granularity read
        // lock (Phase 3); per-page locks would be redundant and would
        // outlive the table lock's release. Latch-only access suffices.
        WireReadMode::SeeDeletedLocked(_) => ReadMode::SeeDeleted,
        WireReadMode::Current(tid) => ReadMode::Current(tid),
    }
}

/// Refuses a `set` list that names a user field the table does not have:
/// the list came off the wire.
fn check_set(def: &harbor_engine::TableDef, set: &[(u16, Value)]) -> DbResult<()> {
    let fields = def.user_fields.len();
    match set.iter().find(|(i, _)| *i as usize >= fields) {
        Some((i, _)) => Err(DbError::Schema(format!(
            "no user field {i} in {:?}, which has {fields}",
            def.name
        ))),
        None => Ok(()),
    }
}

/// Overwrites the listed user fields ([`check_set`] has seen the list).
fn apply_set(mut user: Vec<Value>, set: &[(u16, Value)]) -> Vec<Value> {
    for (i, v) in set {
        if let Some(field) = user.get_mut(*i as usize) {
            *field = v.clone();
        }
    }
    user
}

/// Spin loop modelling per-transaction CPU work (Fig 6-3).
pub fn simulate_cpu_work(cycles: u64) {
    let mut acc: u64 = 0x9e37_79b9;
    for i in 0..cycles {
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_interval_extraction() {
        let k = 0usize;
        // Equality, either orientation.
        let p = Expr::col(k).eq(Expr::lit(7i64));
        assert_eq!(key_interval(&p, k), Some(7..=7));
        let p = Expr::lit(7i64).eq(Expr::col(k));
        assert_eq!(key_interval(&p, k), Some(7..=7));
        // A closed range, including flipped comparisons and conjunction with
        // unrelated terms, however wide.
        let p = Expr::col(k)
            .ge(Expr::lit(3i64))
            .and(Expr::lit(5_000_000i64).ge(Expr::col(k)))
            .and(Expr::col(1).gt(Expr::lit(0i64)));
        assert_eq!(key_interval(&p, k), Some(3..=5_000_000));
        // Exclusive bounds narrow the range.
        let p = Expr::col(k)
            .gt(Expr::lit(3i64))
            .and(Expr::col(k).lt(Expr::lit(6i64)));
        assert_eq!(key_interval(&p, k), Some(4..=5));
        // Half-open either way.
        let p = Expr::col(k).ge(Expr::lit(3i64));
        assert_eq!(key_interval(&p, k), Some(3..=i64::MAX));
        let p = Expr::lit(3i64).gt(Expr::col(k));
        assert_eq!(key_interval(&p, k), Some(i64::MIN..=2));
        // Contradictory bounds: an empty interval, not a scan.
        let p = Expr::col(k)
            .ge(Expr::lit(9i64))
            .and(Expr::col(k).le(Expr::lit(2i64)));
        assert!(key_interval(&p, k).unwrap().is_empty());
        let p = Expr::col(k)
            .eq(Expr::lit(1i64))
            .and(Expr::col(k).gt(Expr::lit(1i64)));
        assert!(key_interval(&p, k).unwrap().is_empty());
        // OR-nested, NOT-nested, `<>` or another column: no index access.
        let p = Expr::col(k)
            .eq(Expr::lit(1i64))
            .or(Expr::col(1).eq(Expr::lit(2i64)));
        assert_eq!(key_interval(&p, k), None);
        assert_eq!(
            key_interval(&Expr::col(k).ge(Expr::lit(1i64)).not(), k),
            None
        );
        let p = Expr::Cmp(CmpOp::Ne, Box::new(Expr::col(k)), Box::new(Expr::lit(1i64)));
        assert_eq!(key_interval(&p, k), None);
        assert_eq!(key_interval(&Expr::col(2).eq(Expr::lit(1i64)), k), None);
    }
}
