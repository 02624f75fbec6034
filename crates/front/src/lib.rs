//! HARBOR's front door: the serving layer between real client connections
//! and the distributed engine.
//!
//! The paper's headline claim (§6) is that the warehouse keeps serving
//! updates *while* a site crashes and recovers. This crate is the serving
//! path that makes that measurable end-to-end: a daemon that accepts
//! connections over the [`harbor_net::Transport`] abstraction and serves
//! each session on a thread of its own, as the thesis' servers do (§6.1.6 —
//! see [`server`]), with per-request deadlines propagated into the engine,
//! an in-flight permit gate, typed
//! [`Overloaded`](harbor_common::DbError::Overloaded) load shedding with a
//! backoff hint (see [`admission`]), and graceful drain on shutdown.
//!
//! The crate is deliberately thin over one DB kernel (the moor-style
//! protocol-host split): [`FrontHandler`] is the whole downward interface,
//! and [`harbor_dist::Coordinator`] implements it directly.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod server;
pub mod wire;

use harbor_common::{DbResult, Timestamp};
use harbor_dist::{Coordinator, UpdateRequest};
use std::sync::Arc;
use std::time::Instant;

pub use server::{FrontConfig, FrontServer};
pub use wire::{FrontClient, FrontReply, FrontRequest};

/// The execution engine as the front door sees it: one transaction in, one
/// commit timestamp out, with an absolute deadline the implementation must
/// respect between steps.
pub trait FrontHandler: Send + Sync + 'static {
    /// Executes `ops` as a single transaction. `deadline` is absolute; the
    /// implementation checks it between engine steps and gives up (aborting
    /// anything in progress) once it has passed.
    fn execute(&self, ops: Vec<UpdateRequest>, deadline: Instant) -> DbResult<Timestamp>;
}

impl FrontHandler for Arc<Coordinator> {
    /// begin → update* → commit, with the deadline checked before every
    /// step. Expiry mid-transaction aborts the transaction — the engine is
    /// left clean and the client gets a typed timeout it may retry (the
    /// abort guarantees nothing half-committed). The whole transaction is
    /// in hand, so the last statement is sent as the last
    /// ([`Coordinator::update_last`]) and may carry the PREPARE.
    fn execute(&self, ops: Vec<UpdateRequest>, deadline: Instant) -> DbResult<Timestamp> {
        let check = |what: &str| -> DbResult<()> {
            if Instant::now() >= deadline {
                Err(admission::deadline_expired(what))
            } else {
                Ok(())
            }
        };
        check("begin")?;
        let tid = self.begin()?;
        let last = ops.len().saturating_sub(1);
        for (i, op) in ops.into_iter().enumerate() {
            let step = check("update").and_then(|()| {
                if i == last {
                    self.update_last(tid, op)
                } else {
                    self.update(tid, op)
                }
            });
            if let Err(e) = step {
                let _ = self.abort(tid);
                return Err(e);
            }
        }
        if let Err(e) = check("commit") {
            let _ = self.abort(tid);
            return Err(e);
        }
        self.commit(tid)
    }
}

/// A handler from any closure, for tests and custom kernels.
pub struct FnHandler<F>(pub F);

impl<F> FrontHandler for FnHandler<F>
where
    F: Fn(Vec<UpdateRequest>, Instant) -> DbResult<Timestamp> + Send + Sync + 'static,
{
    fn execute(&self, ops: Vec<UpdateRequest>, deadline: Instant) -> DbResult<Timestamp> {
        (self.0)(ops, deadline)
    }
}
