//! The distributed layer of the HARBOR reproduction: coordinators, workers,
//! the K-safety placement catalog, and the four commit protocols of thesis
//! Chapter 4 (traditional/optimized two-phase and canonical/optimized
//! three-phase commit), plus the termination protocol that makes the 3PC
//! variants non-blocking under coordinator failure.
//!
//! Every site-to-site reply is awaited through one function, [`next_frame`]:
//! a peer silent past the deadline is [`DbError::SiteUnavailable`], counted
//! once in the waiting site's `rpc_timeouts`. [`rpc`] (one request, one
//! reply) and [`scan_rpc`] (one scan, its rows streamed) are built on it,
//! and so are the coordinator's rounds and reads.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod consensus;
pub mod coordinator;
pub mod message;
pub mod placement;
pub mod protocol;
pub mod worker;

pub use consensus::{backup_action, BackupAction};
pub use coordinator::{Coordinator, CoordinatorConfig, EpochCommitConfig};
pub use harbor_common::fault::CrashPoint;
pub use message::{RemoteScan, Request, Response, UpdateRequest, WireReadMode, WireTxnState};
pub use placement::{Copy, Part, Placement, RecoveryObject, SharedPlacement, TablePlacement};
pub use protocol::ProtocolKind;
pub use worker::{ship_scan, simulate_cpu_work, Worker, WorkerConfig};

pub use harbor_common::config::{
    DEFAULT_READ_RETRIES, DEFAULT_RETRY_BACKOFF, DEFAULT_RPC_DEADLINE,
};

use harbor_common::codec::{Decoder, Wire};
use harbor_common::{retry_with, DbError, DbResult, Metrics, RetryPolicy};
use harbor_net::Channel;
use message::open_tuples_frame;
use std::sync::Arc;
use std::time::Duration;

/// The one wait for a peer: its next frame, within `deadline`. A peer that
/// stays silent that long is treated as failed even though its socket never
/// closed — how a partitioned site is detected when the closed-connection
/// detector of §5.5.1 cannot fire: the wait returns
/// [`DbError::SiteUnavailable`] (a disconnect) and counts one `rpc_timeouts`
/// on `metrics`, the waiting site's. A closed peer is the transport's
/// [`DbError::Net`].
pub fn next_frame(
    chan: &mut dyn Channel,
    deadline: Duration,
    metrics: &Metrics,
) -> DbResult<Vec<u8>> {
    match chan.recv_timeout(deadline)? {
        Some(frame) => Ok(frame),
        None => Err(silent_peer(metrics, &chan.peer(), deadline)),
    }
}

/// The verdict on a peer silent for `waited`, for [`next_frame`] and for
/// the one wait that slices its deadline to watch a shutdown flag between
/// slices (the coordinator's epoch waves).
pub(crate) fn silent_peer(metrics: &Metrics, peer: &str, waited: Duration) -> DbError {
    metrics.add_rpc_timeouts(1);
    DbError::unavailable(format!(
        "{peer}: no reply within {waited:?} (liveness deadline)"
    ))
}

/// One request/reply round trip: sends `req`, then awaits the reply with
/// [`next_frame`].
pub fn rpc(
    chan: &mut dyn Channel,
    req: &Request,
    deadline: Duration,
    metrics: &Metrics,
) -> DbResult<Response> {
    chan.send(req.to_vec())?;
    Response::from_slice(&next_frame(chan, deadline, metrics)?)
}

/// Runs `attempt` with up to `retries` bounded retries (seeded jittered
/// exponential backoff starting at `backoff`, via the shared
/// [`harbor_common::retry`] engine) after a disconnect — a closed
/// connection, a refused connect against a restarting site, or a silent
/// peer, which [`next_frame`] has already counted. Only for *idempotent*
/// operations — historical reads, clock reads, connection establishment.
/// Commit-protocol messages must never pass through here: a retransmitted
/// PREPARE/COMMIT could double-apply its effects. The terminal error is
/// returned verbatim.
pub fn with_read_retries<T>(
    metrics: &Metrics,
    retries: u32,
    backoff: Duration,
    mut attempt: impl FnMut() -> DbResult<T>,
) -> DbResult<T> {
    let policy = RetryPolicy::new(retries, backoff, backoff.saturating_mul(64), 0x5EED_2EAD);
    retry_with(
        &policy,
        Some(metrics),
        |e| {
            let transient = e.is_disconnect();
            if transient {
                metrics.add_rpc_retries(1);
            }
            transient
        },
        |_| attempt(),
    )
}

/// Issues a [`Request::Scan`] and visits its streamed rows where they
/// arrive: `visit(rows, wire)` gets each reply's row count and a decoder
/// standing at the first of that many wire tuples in the receive buffer,
/// and reads exactly those — into page slots (recovery), or into tuples
/// with [`Tuple::read_wire`](harbor_common::Tuple::read_wire). Every frame
/// is awaited with [`next_frame`] under `deadline`.
pub fn scan_rpc(
    chan: &mut dyn Channel,
    scan: &RemoteScan,
    deadline: Duration,
    metrics: &Metrics,
    mut visit: impl FnMut(usize, &mut Decoder<'_>) -> DbResult<()>,
) -> DbResult<()> {
    chan.send(Request::Scan(scan.clone()).to_vec())?;
    drain_scan_replies(chan, deadline, metrics, |rows, _, wire| visit(rows, wire))
}

/// Drains the replies of a scan whose request is already on the wire: the
/// worker streams tuple batches, the last marked `done`, then `Response::Ok`.
/// `visit(rows, frame, wire)` gets each batch's row count, the received
/// frame, and a decoder standing at the first row in it: rows read with
/// [`Tuple::read_shared`](harbor_common::Tuple::read_shared) keep the frame
/// instead of a copy each. A buddy that stops producing bytes for
/// `deadline` — the partitioned-peer case whose socket never closes — is a
/// disconnect, so Phase 2 re-deals the range exactly as for a buddy death
/// instead of hanging recovery.
pub(crate) fn drain_scan_replies(
    chan: &mut dyn Channel,
    deadline: Duration,
    metrics: &Metrics,
    mut visit: impl FnMut(usize, &Arc<Vec<u8>>, &mut Decoder<'_>) -> DbResult<()>,
) -> DbResult<()> {
    loop {
        let frame = Arc::new(next_frame(chan, deadline, metrics)?);
        let Some((done, rows, mut wire)) = open_tuples_frame(&frame)? else {
            // A buddy that read a corrupt page of its own says `Corrupt`
            // (site-local, repairable): the fetcher fails over.
            return Err(Response::from_slice(&frame)?.into_error("scan"));
        };
        visit(rows, &frame, &mut wire)?;
        wire.finish()?;
        if done {
            break;
        }
    }
    // Final status frame.
    match Response::from_slice(&next_frame(chan, deadline, metrics)?)? {
        Response::Ok => Ok(()),
        other => Err(other.into_error("scan status")),
    }
}
