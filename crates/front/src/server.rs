//! The front-door server: sharded acceptors, multiplexed session readers,
//! and a bounded execution pool, with graceful drain.
//!
//! Thread budget is **fixed** — `acceptor_shards + readers + workers`
//! threads regardless of connection count — replacing thread-per-connection
//! for the serving path. Sessions are plain blocking channels that *move*
//! between stages instead of owning a thread:
//!
//! ```text
//!  acceptor shards ──▶ idle-session deque ──▶ session readers
//!                           ▲                      │ parse + stamp deadline
//!                           │                      ▼
//!                       (after reply)      bounded work queue ──▶ workers
//!                           └──────────────────────────────────────┘
//! ```
//!
//! A reader polls one session at a time with a short `recv_timeout` quantum
//! (a real timed kernel block — std sockets offer no epoll); sessions with
//! a request in flight are returned to the *front* of the deque after their
//! reply, so closed-loop clients are re-polled immediately while idle
//! sessions rotate at the back. The cost of this design is rotation latency
//! for very large idle session counts (`idle_sessions / readers × quantum`
//! worst case to notice a cold session's first byte), which is the honest
//! std-only trade for a fixed thread count.
//!
//! Back-pressure is explicit at two points: session readers shed at
//! *enqueue* when the work queue is full (fail fast, never stack latency),
//! and workers shed at *dequeue* when a request sat past the age watermark
//! or no in-flight permit frees up — both as typed
//! [`Overloaded`](harbor_common::DbError::Overloaded) replies carrying a
//! backoff hint, never by stalling the socket.

use crate::admission::{AdmissionCheck, AdmissionPolicy, PermitGate};
use crate::wire::{FrontReply, FrontRequest};
use crate::FrontHandler;
use harbor_common::codec::Wire;
use harbor_common::config::{DEFAULT_REQUEST_DEADLINE, DEFAULT_RETRY_AFTER_MS};
use harbor_common::shimsan::RaceWitness;
use harbor_common::{DbResult, Metrics};
use harbor_net::{Channel, Listener};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer knobs. The defaults are sized for an in-process test
/// cluster; a real deployment scales `workers`/`permits` with cores and
/// `queue_depth` with target burst absorption.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// Acceptor shard threads pulling from one shared listener.
    pub acceptor_shards: usize,
    /// Session-reader threads multiplexing all connected sessions.
    pub readers: usize,
    /// Execution threads draining the work queue.
    pub workers: usize,
    /// Bound on queued-but-not-executing requests; above it readers shed.
    pub queue_depth: usize,
    /// Queue-age watermark; a request older than this at dequeue is shed.
    pub max_queue_age: Duration,
    /// In-flight permits bounding requests inside the engine.
    pub permits: usize,
    /// How long a dequeued request may wait for a permit before shedding.
    pub permit_budget: Duration,
    /// Deadline stamped on requests that arrive with `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Ceiling clamped onto client-supplied deadlines.
    pub max_deadline: Duration,
    /// Reader poll quantum per session (a timed kernel block, not a spin).
    pub poll_quantum: Duration,
    /// Backoff hint stamped into `Overloaded` sheds.
    pub retry_after_ms: u64,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            acceptor_shards: 2,
            readers: 4,
            workers: 4,
            queue_depth: 64,
            max_queue_age: Duration::from_millis(250),
            permits: 4,
            permit_budget: Duration::from_millis(100),
            default_deadline: DEFAULT_REQUEST_DEADLINE,
            max_deadline: Duration::from_secs(30),
            poll_quantum: Duration::from_millis(2),
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
        }
    }
}

impl FrontConfig {
    fn policy(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            max_queue_age: self.max_queue_age,
            permit_budget: self.permit_budget,
            retry_after_ms: self.retry_after_ms,
        }
    }
}

/// One connected client session. Owns its blocking channel; moves between
/// the idle deque, a reader, and (while a request executes) a worker.
struct Session {
    chan: Box<dyn Channel>,
}

/// A parsed request travelling to the worker pool with its session.
struct Work {
    session: Session,
    client: u64,
    req: u64,
    ops: Vec<harbor_dist::UpdateRequest>,
    enqueued_at: Instant,
    deadline: Instant,
}

struct Shared {
    cfg: FrontConfig,
    policy: AdmissionPolicy,
    handler: Box<dyn FrontHandler>,
    metrics: Metrics,
    gate: PermitGate,
    /// Sessions with no request in flight, awaiting a reader.
    idle: Mutex<VecDeque<Session>>,
    idle_cv: Condvar,
    /// Bounded queue of admitted-to-queue requests awaiting a worker.
    work: Mutex<VecDeque<Work>>,
    work_cv: Condvar,
    /// ShimSan witness on the reader→worker hand-off: every enqueue and
    /// dequeue records a write while the `work` mutex is held, so any
    /// future access that skips the lock panics in debug builds under the
    /// chaos soak. Zero-sized no-op in release.
    work_witness: RaceWitness,
    /// Set by `shutdown`: stop accepting and stop reading new requests.
    /// Workers keep draining until the work queue is empty.
    stop: AtomicBool,
    /// Set by `shutdown` *after* the readers are joined: no more requests
    /// can be enqueued, so workers may exit once the queue is empty. Two
    /// phases, or a worker could exit between a reader's dequeue-check and
    /// its enqueue, orphaning an admitted request.
    intake_closed: AtomicBool,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Best-effort reply; a send failure closes the session.
    fn reply(&self, session: &mut Session, reply: &FrontReply) -> bool {
        session.chan.send_framed(&reply.to_framed_vec()).is_ok()
    }

    fn close_session(&self, _session: Session) {
        self.metrics.add_sessions_closed(1);
    }

    /// Returns a session to the idle deque. `hot` sessions (just replied —
    /// a closed-loop client is about to send again) go to the front so
    /// readers re-poll them first; fresh/cold ones rotate at the back.
    fn park_session(&self, session: Session, hot: bool) {
        let mut idle = self.idle.lock();
        if hot {
            idle.push_front(session);
        } else {
            idle.push_back(session);
        }
        drop(idle);
        self.idle_cv.notify_one();
    }
}

/// Handle to a running front door. Dropping it drains gracefully.
pub struct FrontServer {
    shared: Arc<Shared>,
    local_addr: String,
    acceptors: Vec<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl FrontServer {
    /// Starts the serving pipeline on an already-bound listener.
    pub fn start(
        cfg: FrontConfig,
        listener: Box<dyn Listener>,
        handler: Box<dyn FrontHandler>,
        metrics: Metrics,
    ) -> DbResult<Self> {
        let local_addr = listener.local_addr();
        let shared = Arc::new(Shared {
            policy: cfg.policy(),
            gate: PermitGate::new(cfg.permits.max(1), metrics.clone()),
            handler,
            metrics,
            idle: Mutex::new(VecDeque::new()),
            idle_cv: Condvar::new(),
            work: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            work_witness: RaceWitness::new(),
            stop: AtomicBool::new(false),
            intake_closed: AtomicBool::new(false),
            cfg,
        });

        let listener: Arc<Box<dyn Listener>> = Arc::new(listener);
        let spawn = |name: String, f: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name)
                .spawn(f)
                .map_err(|e| harbor_common::DbError::internal(format!("spawn: {e}")))
        };

        let mut acceptors = Vec::new();
        for shard in 0..shared.cfg.acceptor_shards.max(1) {
            let sh = Arc::clone(&shared);
            let l = Arc::clone(&listener);
            acceptors.push(spawn(
                format!("front-accept-{shard}"),
                Box::new(move || accept_loop(&sh, &l)),
            )?);
        }
        let mut readers = Vec::new();
        for r in 0..shared.cfg.readers.max(1) {
            let sh = Arc::clone(&shared);
            readers.push(spawn(
                format!("front-read-{r}"),
                Box::new(move || read_loop(&sh)),
            )?);
        }
        let mut workers = Vec::new();
        for w in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(spawn(
                format!("front-work-{w}"),
                Box::new(move || work_loop(&sh)),
            )?);
        }

        Ok(FrontServer {
            shared,
            local_addr,
            acceptors,
            readers,
            workers,
        })
    }

    /// Address clients connect to.
    pub fn local_addr(&self) -> String {
        self.local_addr.clone()
    }

    /// Current work-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.work.lock().len()
    }

    /// Graceful drain: stop accepting and reading, finish every request
    /// already admitted to the work queue, then close all sessions.
    /// Returns the drain duration (also accumulated into `drain_micros`).
    pub fn shutdown(mut self) -> Duration {
        self.drain()
    }

    fn drain(&mut self) -> Duration {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return Duration::ZERO;
        }
        let t0 = Instant::now();
        self.shared.idle_cv.notify_all();
        self.shared.work_cv.notify_all();
        for h in self.acceptors.drain(..) {
            h.join().ok();
        }
        for h in self.readers.drain(..) {
            h.join().ok();
        }
        // With the readers joined, nothing can enqueue anymore; workers may
        // exit once the queue is drained, so every admitted request gets
        // executed and answered before close.
        self.shared.intake_closed.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            h.join().ok();
        }
        let mut idle = std::mem::take(&mut *self.shared.idle.lock());
        while let Some(s) = idle.pop_front() {
            self.shared.close_session(s);
        }
        let took = t0.elapsed();
        self.shared
            .metrics
            .add_drain_micros(took.as_micros().min(u64::MAX as u128) as u64);
        took
    }
}

impl Drop for FrontServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Accepts connections from the shared listener into the idle deque.
fn accept_loop(sh: &Shared, listener: &Arc<Box<dyn Listener>>) {
    while !sh.stopped() {
        match listener.accept_timeout(Duration::from_millis(50)) {
            Ok(Some(chan)) => {
                sh.metrics.add_sessions_accepted(1);
                sh.park_session(Session { chan }, false);
            }
            Ok(None) => {}
            // Listener gone (or broken): this shard is done; siblings and
            // the drain path handle the rest.
            Err(_) => return,
        }
    }
}

/// Multiplexes sessions: pop one, poll it for a quantum, route the result.
fn read_loop(sh: &Shared) {
    loop {
        let mut session = {
            let mut idle = sh.idle.lock();
            loop {
                if sh.stopped() {
                    return;
                }
                if let Some(s) = idle.pop_front() {
                    break s;
                }
                sh.idle_cv.wait_for(&mut idle, Duration::from_millis(50));
            }
        };
        match session.chan.recv_timeout(sh.cfg.poll_quantum) {
            Ok(None) => sh.park_session(session, false),
            Err(_) => sh.close_session(session),
            Ok(Some(frame)) => {
                let arrival = Instant::now();
                match FrontRequest::from_slice(&frame) {
                    Err(err) => {
                        // Framing is untrusted after a parse failure; answer
                        // best-effort and drop the session.
                        sh.reply(
                            &mut session,
                            &FrontReply::Err {
                                client: 0,
                                req: 0,
                                err,
                            },
                        );
                        sh.close_session(session);
                    }
                    Ok(FrontRequest::Ping) => {
                        if sh.reply(&mut session, &FrontReply::Pong) {
                            sh.park_session(session, true);
                        } else {
                            sh.close_session(session);
                        }
                    }
                    Ok(FrontRequest::Txn {
                        client,
                        req,
                        deadline_ms,
                        ops,
                    }) => {
                        let budget = if deadline_ms == 0 {
                            sh.cfg.default_deadline
                        } else {
                            Duration::from_millis(u64::from(deadline_ms)).min(sh.cfg.max_deadline)
                        };
                        let work = Work {
                            session,
                            client,
                            req,
                            ops,
                            enqueued_at: arrival,
                            deadline: arrival + budget,
                        };
                        enqueue_or_shed(sh, work);
                    }
                }
            }
        }
    }
}

/// Enqueue-time admission: a full queue sheds immediately (typed reply on
/// the session, which then goes back to the idle deque) instead of growing
/// an unbounded backlog.
fn enqueue_or_shed(sh: &Shared, work: Work) {
    let mut q = sh.work.lock();
    if q.len() >= sh.cfg.queue_depth {
        drop(q);
        let err = sh.policy.queue_full_shed(&sh.metrics);
        let Work {
            mut session,
            client,
            req,
            ..
        } = work;
        let ok = sh.reply(&mut session, &FrontReply::Err { client, req, err });
        if ok {
            sh.park_session(session, true);
        } else {
            sh.close_session(session);
        }
        return;
    }
    q.push_back(work);
    sh.work_witness.check_write("front work-queue");
    sh.metrics.note_queue_depth(q.len() as u64);
    drop(q);
    sh.work_cv.notify_one();
}

/// Executes queued requests under the admission gate and writes replies.
fn work_loop(sh: &Shared) {
    loop {
        let work = {
            let mut q = sh.work.lock();
            loop {
                if let Some(w) = q.pop_front() {
                    sh.work_witness.check_write("front work-queue");
                    break w;
                }
                // Drain semantics: exit only once intake is closed *and* the
                // queue is empty, so every admitted request is finished
                // before close.
                if sh.intake_closed.load(Ordering::Acquire) {
                    return;
                }
                sh.work_cv.wait_for(&mut q, Duration::from_millis(50));
            }
        };
        let Work {
            mut session,
            client,
            req,
            ops,
            enqueued_at,
            deadline,
        } = work;
        let check = AdmissionCheck {
            enqueued_at,
            deadline,
        };
        let outcome = match sh.policy.admit(&sh.gate, &check, &sh.metrics) {
            Ok(_permit) => sh.handler.execute(ops, deadline),
            Err(e) => Err(e),
        };
        let reply = match outcome {
            Ok(ts) => FrontReply::Committed { client, req, ts },
            Err(err) => FrontReply::Err { client, req, err },
        };
        if sh.reply(&mut session, &reply) {
            sh.park_session(session, true);
        } else {
            sh.close_session(session);
        }
    }
}
