//! The front-door server: thread-per-connection (§6.1.6), the model of the
//! coordinator's and the workers' servers and the same loop
//! ([`harbor_net::serve_connections`]). A session's thread reads a request,
//! passes admission, runs the [`FrontHandler`], writes the reply and reads
//! the next; a `Ping` is answered without admission.
//!
//! Back-pressure is explicit and in one place, the
//! [`PermitGate`](crate::admission::PermitGate): `permits` transactions
//! execute at once, at most `queue_depth` wait for a permit, each for at
//! most `permit_budget` or its own deadline. Everything beyond that is
//! answered at once with a typed
//! [`Overloaded`](harbor_common::DbError::Overloaded) carrying a backoff
//! hint — never by stalling the socket.
//!
//! Shutdown drains in one phase: the listener is closed and the stop flag
//! ends every session's *next* read, so a request already read off its
//! socket is answered (executed, if it gets its permit) before its session
//! closes.

use crate::admission::{AdmissionPolicy, PermitGate};
use crate::wire::{FrontReply, FrontRequest};
use crate::FrontHandler;
use harbor_common::codec::Wire;
use harbor_common::config::DEFAULT_REQUEST_DEADLINE;
use harbor_common::{DbError, DbResult, Metrics};
use harbor_net::{recv_or_stop, serve_connections, Channel, Listener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer knobs. The defaults are sized for an in-process test
/// cluster; a real deployment scales `permits` with cores and `queue_depth`
/// with target burst absorption.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// In-flight permits bounding requests inside the engine.
    pub permits: usize,
    /// Bound on requests waiting for a permit; above it they are shed.
    pub queue_depth: usize,
    /// How long a request may wait for a permit before shedding.
    pub permit_budget: Duration,
    /// Ceiling clamped onto client-supplied deadlines.
    pub max_deadline: Duration,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            permits: 4,
            queue_depth: 64,
            permit_budget: Duration::from_millis(100),
            max_deadline: Duration::from_secs(30),
        }
    }
}

struct Shared {
    policy: AdmissionPolicy,
    max_deadline: Duration,
    gate: PermitGate,
    handler: Box<dyn FrontHandler>,
    metrics: Metrics,
    /// Set by `shutdown`: stop accepting, and stop reading new requests.
    stop: AtomicBool,
}

/// Handle to a running front door. Dropping it drains gracefully.
pub struct FrontServer {
    shared: Arc<Shared>,
    listener: Arc<dyn Listener>,
    /// The accept loop, which joins the session threads it spawned.
    acceptor: Option<JoinHandle<()>>,
}

impl FrontServer {
    /// Starts serving on an already-bound listener.
    pub fn start(
        cfg: FrontConfig,
        listener: Box<dyn Listener>,
        handler: Box<dyn FrontHandler>,
        metrics: Metrics,
    ) -> DbResult<Self> {
        let listener: Arc<dyn Listener> = Arc::from(listener);
        let shared = Arc::new(Shared {
            policy: AdmissionPolicy {
                queue_depth: cfg.queue_depth,
                permit_budget: cfg.permit_budget,
            },
            max_deadline: cfg.max_deadline,
            gate: PermitGate::new(cfg.permits.max(1), metrics.clone()),
            handler,
            metrics,
            stop: AtomicBool::new(false),
        });
        let (sh, l) = (Arc::clone(&shared), Arc::clone(&listener));
        let acceptor = std::thread::Builder::new()
            .name("front-accept".into())
            .spawn(move || {
                serve_connections(l.as_ref(), &sh.stop, "front-session", |chan| {
                    sh.serve_session(chan)
                })
            })
            .map_err(|e| DbError::internal(format!("spawn: {e}")))?;
        Ok(FrontServer {
            shared,
            listener,
            acceptor: Some(acceptor),
        })
    }

    /// Address clients connect to.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Requests read off their sessions and waiting for a permit.
    pub fn queue_depth(&self) -> usize {
        self.shared.gate.waiting()
    }

    /// Graceful drain: stop accepting and reading, answer every request
    /// already read off its session, then close all sessions. Returns the
    /// drain duration (also accumulated into `drain_micros`).
    pub fn shutdown(mut self) -> Duration {
        self.drain()
    }

    fn drain(&mut self) -> Duration {
        let Some(acceptor) = self.acceptor.take() else {
            return Duration::ZERO;
        };
        let t0 = Instant::now();
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop ends now, not at its next tick.
        self.listener.close();
        acceptor.join().ok();
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

impl Shared {
    /// One session, on its own thread, from accept to close.
    fn serve_session(&self, mut chan: Box<dyn Channel>) {
        self.metrics.add_sessions_accepted(1);
        while let Ok(Some(frame)) = recv_or_stop(chan.as_mut(), &self.stop) {
            let arrival = Instant::now();
            let (reply, keep) = match FrontRequest::from_slice(&frame) {
                // Framing is untrusted after a parse failure; answer
                // best-effort and drop the session.
                Err(err) => (
                    FrontReply::Err {
                        client: 0,
                        req: 0,
                        err,
                    },
                    false,
                ),
                Ok(FrontRequest::Ping) => (FrontReply::Pong, true),
                Ok(FrontRequest::Txn {
                    client,
                    req,
                    deadline_ms,
                    ops,
                }) => {
                    let budget = if deadline_ms == 0 {
                        DEFAULT_REQUEST_DEADLINE
                    } else {
                        Duration::from_millis(u64::from(deadline_ms)).min(self.max_deadline)
                    };
                    let deadline = arrival + budget;
                    let outcome = self
                        .policy
                        .admit(&self.gate, deadline, &self.metrics)
                        .and_then(|_permit| self.handler.execute(ops, deadline));
                    let reply = match outcome {
                        Ok(ts) => FrontReply::Committed { client, req, ts },
                        Err(err) => FrontReply::Err { client, req, err },
                    };
                    (reply, true)
                }
            };
            if chan.send(reply.to_vec()).is_err() || !keep {
                break;
            }
        }
        self.metrics.add_sessions_closed(1);
    }
}
