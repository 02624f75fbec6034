//! The distributed layer of the HARBOR reproduction: coordinators, workers,
//! the K-safety placement catalog, and the four commit protocols of thesis
//! Chapter 4 (traditional/optimized two-phase and canonical/optimized
//! three-phase commit), plus the consensus-building protocol that makes the
//! 3PC variants non-blocking under coordinator failure.

pub mod consensus;
pub mod coordinator;
pub mod failpoint;
pub mod message;
pub mod placement;
pub mod protocol;
pub mod worker;

pub use consensus::{backup_action, BackupAction, BackupState};
pub use coordinator::{Coordinator, CoordinatorConfig, EpochCommitConfig};
pub use failpoint::{CrashPoint, CrashSchedule};
pub use message::{RemoteScan, Request, Response, UpdateRequest, WireReadMode, WireTxnState};
pub use placement::{Copy, Part, Placement, RecoveryObject, SharedPlacement, TablePlacement};
pub use protocol::ProtocolKind;
pub use worker::{ship_scan, simulate_cpu_work, Worker, WorkerConfig};

pub use harbor_common::config::{
    DEFAULT_READ_RETRIES, DEFAULT_RETRY_BACKOFF, DEFAULT_RPC_DEADLINE,
};

use harbor_common::codec::{Decoder, Wire};
use harbor_common::{retry_with, DbError, DbResult, Metrics, RetryPolicy, Timestamp, Tuple};
use harbor_net::Channel;
use message::open_tuples_frame;
use std::time::Duration;

/// One request/response round trip over a channel, blocking indefinitely for
/// the reply. Prefer [`rpc_deadline`] anywhere a partitioned peer is
/// possible: a blackholed link never closes this channel, so a blocking recv
/// would hang forever.
pub fn rpc(chan: &mut dyn Channel, req: &Request) -> DbResult<Response> {
    chan.send(&req.to_vec())?;
    let frame = chan.recv()?;
    Response::from_slice(&frame)
}

/// One round trip with a per-request deadline. Expiry returns the *transient*
/// [`DbError::Timeout`] — the peer is not presumed dead; callers choose
/// whether to retry (idempotent reads), fail the operation, or escalate.
pub fn rpc_deadline(
    chan: &mut dyn Channel,
    req: &Request,
    deadline: Duration,
) -> DbResult<Response> {
    chan.send(&req.to_vec())?;
    match chan.recv_timeout(deadline)? {
        Some(frame) => Response::from_slice(&frame),
        None => Err(DbError::timeout(format!(
            "{}: no reply within {:?}",
            chan.peer(),
            deadline
        ))),
    }
}

/// One round trip where `deadline` is a *liveness* deadline: expiry means
/// the peer is treated as failed ([`DbError::SiteUnavailable`], classified
/// as a disconnect) even though its socket never closed — how a partitioned
/// participant is detected when closed-connection detection (§5.5.1) cannot
/// fire. Used by the commit protocols, which never retransmit.
pub fn rpc_liveness(
    chan: &mut dyn Channel,
    req: &Request,
    deadline: Duration,
    metrics: Option<&Metrics>,
) -> DbResult<Response> {
    match rpc_deadline(chan, req, deadline) {
        Err(DbError::Timeout(m)) => {
            if let Some(m) = metrics {
                m.add_rpc_timeouts(1);
            }
            Err(DbError::unavailable(format!("liveness deadline: {m}")))
        }
        other => other,
    }
}

/// Classifies an expired *liveness* deadline for callers that slice their
/// own receive loop instead of blocking in [`rpc_liveness`] — the epoch
/// commit waves poll in short ticks so they can watch a shutdown flag
/// between slices. Same contract as [`rpc_liveness`]: the silent peer is
/// treated as failed ([`DbError::SiteUnavailable`], a disconnect), even
/// though its socket never closed.
pub fn liveness_expired(metrics: Option<&Metrics>, context: &str) -> DbError {
    if let Some(m) = metrics {
        m.add_rpc_timeouts(1);
    }
    DbError::unavailable(format!("liveness deadline: {context}"))
}

/// Runs `attempt` with up to `retries` bounded retries (seeded jittered
/// exponential backoff starting at `backoff`, via the shared
/// [`harbor_common::retry`] engine) after transient timeouts or
/// disconnects — the wider read-path classifier, since connection
/// establishment against a restarting site surfaces as a disconnect. Only
/// for *idempotent* operations — historical reads, clock reads, connection
/// establishment. Commit-protocol messages must never pass through here: a
/// retransmitted PREPARE/COMMIT could double-apply its effects. The
/// terminal error is returned verbatim.
pub fn with_read_retries<T>(
    metrics: Option<&Metrics>,
    retries: u32,
    backoff: Duration,
    mut attempt: impl FnMut() -> DbResult<T>,
) -> DbResult<T> {
    let policy = RetryPolicy::new(retries, backoff, backoff.saturating_mul(64), 0x5EED_2EAD);
    retry_with(
        &policy,
        metrics,
        |e| {
            let transient = e.is_timeout() || e.is_disconnect();
            if transient {
                if let Some(m) = metrics {
                    if e.is_timeout() {
                        m.add_rpc_timeouts(1);
                    }
                    m.add_rpc_retries(1);
                }
            }
            transient
        },
        |_| attempt(),
    )
}

/// Issues a [`Request::Scan`] and drains the streamed tuple batches,
/// returning all rows. The worker terminates the stream with a final
/// `done = true` batch followed by `Response::Ok`.
pub fn scan_rpc(chan: &mut dyn Channel, scan: &RemoteScan) -> DbResult<Vec<Tuple>> {
    scan_rpc_deadline(chan, scan, DEFAULT_RPC_DEADLINE)
}

/// As [`scan_rpc`] with an explicit per-frame liveness deadline.
pub fn scan_rpc_deadline(
    chan: &mut dyn Channel,
    scan: &RemoteScan,
    deadline: Duration,
) -> DbResult<Vec<Tuple>> {
    chan.send(&Request::Scan(scan.clone()).to_vec())?;
    collect_scan_replies(chan, deadline)
}

/// All rows of a scan whose request is already on the wire.
pub(crate) fn collect_scan_replies(
    chan: &mut dyn Channel,
    deadline: Duration,
) -> DbResult<Vec<Tuple>> {
    let mut out = Vec::new();
    drain_scan_replies(chan, deadline, |rows, wire| {
        for _ in 0..rows {
            out.push(Tuple::read_wire(wire)?);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Visits a streamed scan's rows where they arrive, under a per-frame
/// liveness deadline: `visit(rows, wire)` gets each reply's row count and a
/// decoder standing at the first of that many wire tuples in the receive
/// buffer, and reads exactly those — into page slots (recovery), or into
/// tuples with [`Tuple::read_wire`].
pub fn scan_rpc_streaming_deadline(
    chan: &mut dyn Channel,
    scan: &RemoteScan,
    deadline: Duration,
    visit: impl FnMut(usize, &mut Decoder<'_>) -> DbResult<()>,
) -> DbResult<()> {
    chan.send(&Request::Scan(scan.clone()).to_vec())?;
    drain_scan_replies(chan, deadline, visit)
}

/// Fetches a buddy's per-segment `(tmin_insert, tmax_insert, tmax_delete)`
/// directory bounds for `table`.
pub fn segment_bounds_rpc(
    chan: &mut dyn Channel,
    table: &str,
    deadline: Duration,
) -> DbResult<Vec<(Timestamp, Timestamp, Timestamp, u64)>> {
    let req = Request::SegmentBounds {
        table: table.to_string(),
    };
    match rpc_liveness(chan, &req, deadline, None)? {
        Response::SegmentBounds { segments } => Ok(segments),
        other => Err(other.into_error("segment-bounds")),
    }
}

/// Drains the replies of a scan whose request is already on the wire.
/// `deadline` is a per-frame *liveness* deadline: a buddy that stops
/// producing bytes for that long — the partitioned-peer case whose socket
/// never closes — surfaces as [`DbError::SiteUnavailable`] (a disconnect),
/// so Phase 2 re-deals the range exactly as for a buddy death instead of
/// hanging recovery forever.
fn drain_scan_replies(
    chan: &mut dyn Channel,
    deadline: Duration,
    mut visit: impl FnMut(usize, &mut Decoder<'_>) -> DbResult<()>,
) -> DbResult<()> {
    let recv_frame = |chan: &mut dyn Channel| -> DbResult<Vec<u8>> {
        match chan.recv_timeout(deadline)? {
            Some(frame) => Ok(frame),
            None => Err(DbError::unavailable(format!(
                "{}: scan stream stalled for {:?} (liveness deadline)",
                chan.peer(),
                deadline
            ))),
        }
    };
    loop {
        let frame = recv_frame(chan)?;
        let Some((done, rows, mut wire)) = open_tuples_frame(&frame)? else {
            // A buddy that read a corrupt page of its own says `Corrupt`
            // (site-local, repairable): the fetcher fails over.
            return Err(Response::from_slice(&frame)?.into_error("scan"));
        };
        visit(rows, &mut wire)?;
        wire.finish()?;
        if done {
            break;
        }
    }
    // Final status frame.
    let frame = recv_frame(chan)?;
    match Response::from_slice(&frame)? {
        Response::Ok => Ok(()),
        other => Err(other.into_error("scan status")),
    }
}
