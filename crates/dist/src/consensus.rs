//! Termination of a transaction a worker holds in doubt (thesis §4.3.3,
//! Table 4.1; originally Skeen 1981). One rule under every commit protocol:
//!
//! 1. Ask the coordinator ([`ask_state`]). It recorded the decision when it
//!    passed the commit point, so it answers committed, aborted (presumed
//!    abort) or still in flight — and a live coordinator may have
//!    acknowledged a commit no surviving worker has seen yet. Committed or
//!    aborted is adopted; in flight, the worker asks again later.
//! 2. Only when the coordinator cannot be reached — it has failed — is a
//!    backup coordinator chosen "by some arbitrarily pre-assigned ranking":
//!    here, the lowest-numbered live participant. Because 3PC state
//!    transitions proceed in lock-step, no site can be more than one state
//!    away from the backup, so the backup decides the global outcome from
//!    *its own* state alone, and the others ask it:
//!
//! | backup state            | action                          |
//! |-------------------------|---------------------------------|
//! | pending                 | abort                           |
//! | prepared, voted NO      | abort                           |
//! | prepared, voted YES     | prepare, then abort             |
//! | aborted (or unknown)    | abort                           |
//! | prepared-to-commit      | prepare-to-commit, then commit  |
//! | committed               | commit                          |
//!
//! Workers disregard duplicate messages, so replaying phases is safe. A
//! 2PC worker never starts termination by itself: without lock-step states
//! the election is no substitute for a coordinator that forced COMMIT.

use crate::message::{Request, Response, WireTxnState};
use crate::worker::Worker;
use crate::CrashPoint;
use crate::{rpc, with_read_retries};
use harbor_common::{DbError, DbResult, SiteId, Timestamp, TransactionId};
use std::sync::Arc;
use std::time::Duration;

/// Liveness deadline for consensus-protocol round trips. A partitioned peer
/// whose socket never closes must not hang resolution forever; past this,
/// it is treated as dead (§5.5.1 extended to blackholed links).
pub(crate) const CONSENSUS_DEADLINE: Duration = Duration::from_secs(2);

/// Bounded retries for an expired deadline during the election ping and the
/// idempotent state query. A site must not be declared dead — and its backup
/// role usurped — on a single slow reply; only a closed connection or
/// repeated deadline expiry counts as death.
pub(crate) const CONSENSUS_RETRIES: u32 = 2;

/// What the backup coordinator does (Table 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackupAction {
    Abort,
    PrepareThenAbort,
    PrepareToCommitThenCommit(Timestamp),
    Commit(Timestamp),
}

/// The pure decision function of Table 4.1.
pub fn backup_action(state: WireTxnState) -> BackupAction {
    match state {
        WireTxnState::Unknown
        | WireTxnState::Pending
        | WireTxnState::PreparedVotedNo
        | WireTxnState::Aborted => BackupAction::Abort,
        WireTxnState::PreparedVotedYes => BackupAction::PrepareThenAbort,
        WireTxnState::PreparedToCommit(t) => BackupAction::PrepareToCommitThenCommit(t),
        WireTxnState::Committed(t) => BackupAction::Commit(t),
    }
}

/// The election of step 2, from `worker`'s point of view, over the
/// participants in rank order. Returns `Ok(true)` if this site is the
/// backup and drove the transaction to an outcome, `Ok(false)` if another
/// live site outranks it (that site is the backup; this one asks it).
pub(crate) fn resolve(
    worker: &Arc<Worker>,
    tid: TransactionId,
    ranked: &[SiteId],
) -> DbResult<bool> {
    // Election: the lowest-ranked live participant is the backup.
    for site in ranked {
        if *site == worker.site() {
            break; // we are the highest-priority live site
        }
        if ping(worker, *site) {
            return Ok(false); // a live site outranks us; defer to it
        }
    }
    let my_state = worker.backup_state(tid);
    let action = backup_action(my_state);
    match action {
        BackupAction::Abort => {
            maybe_crash_mid_resolution(worker)?;
            broadcast(worker, ranked, &Request::Abort { tid })?;
        }
        BackupAction::PrepareThenAbort => {
            // Ask every site to reach the prepared state (no-ops where it
            // already is), then abort.
            broadcast(
                worker,
                ranked,
                &Request::Prepare {
                    tid,
                    workers: ranked.to_vec(),
                    time_bound: Timestamp::ZERO,
                },
            )?;
            maybe_crash_mid_resolution(worker)?;
            broadcast(worker, ranked, &Request::Abort { tid })?;
        }
        BackupAction::PrepareToCommitThenCommit(t) => {
            // Replay the last two phases, reusing the commit time received
            // from the old coordinator (§4.3.3).
            broadcast(
                worker,
                ranked,
                &Request::PrepareToCommit {
                    tid,
                    commit_time: t,
                },
            )?;
            maybe_crash_mid_resolution(worker)?;
            broadcast(
                worker,
                ranked,
                &Request::Commit {
                    tid,
                    commit_time: t,
                },
            )?;
        }
        BackupAction::Commit(t) => {
            maybe_crash_mid_resolution(worker)?;
            broadcast(
                worker,
                ranked,
                &Request::Commit {
                    tid,
                    commit_time: t,
                },
            )?;
        }
    }
    Ok(true)
}

/// Probes [`CrashPoint::WorkerDuringConsensusResolve`] between consensus
/// broadcasts. If this backup coordinator is scheduled to die mid-resolution,
/// the surviving participants re-run the election; Table 4.1 guarantees the
/// next-ranked site derives the same outcome from its own state, and workers
/// disregard duplicate phase messages, so the partial first broadcast is
/// harmless.
fn maybe_crash_mid_resolution(worker: &Arc<Worker>) -> DbResult<()> {
    if worker.fire_crash(CrashPoint::WorkerDuringConsensusResolve) {
        return Err(DbError::SiteDown(
            "backup coordinator crashed mid-resolution (fail point)".into(),
        ));
    }
    Ok(())
}

/// What the site at `addr` — the coordinator, or a backup that outranks
/// this worker — knows of `tid`: the one sender of
/// [`Request::QueryTxnState`]. The query is idempotent, so a silent or
/// closed peer gets bounded retries; `None` when it stays unreachable.
pub(crate) fn ask_state(worker: &Worker, addr: &str, tid: TransactionId) -> Option<WireTxnState> {
    let metrics = worker.engine().metrics();
    let reply = with_read_retries(
        metrics,
        CONSENSUS_RETRIES,
        Duration::from_millis(10),
        || {
            let mut chan = worker.transport().connect(addr)?;
            let req = Request::QueryTxnState { tid };
            rpc(chan.as_mut(), &req, CONSENSUS_DEADLINE, metrics)
        },
    );
    match reply {
        Ok(Response::TxnState { state }) => Some(state),
        _ => None,
    }
}

fn ping(worker: &Arc<Worker>, site: SiteId) -> bool {
    let Some(addr) = worker.peer_addr(site) else {
        return false;
    };
    // Only a closed connection or repeated deadline expiry declares the
    // site dead; a single silent deadline must not usurp its backup role.
    let metrics = worker.engine().metrics();
    for attempt in 0..=CONSENSUS_RETRIES {
        let Ok(mut chan) = worker.transport().connect(&addr) else {
            return false;
        };
        match rpc(chan.as_mut(), &Request::Ping, CONSENSUS_DEADLINE, metrics) {
            Ok(Response::Ok) => return true,
            Err(DbError::SiteUnavailable(_)) if attempt < CONSENSUS_RETRIES => continue,
            _ => return false,
        }
    }
    false
}

/// Sends `req` to every participant (including this site, through its own
/// server, for uniformity). Crashed participants are skipped — they will
/// learn the outcome through recovery.
fn broadcast(worker: &Arc<Worker>, participants: &[SiteId], req: &Request) -> DbResult<()> {
    let metrics = worker.engine().metrics();
    let mut reached = 0usize;
    for site in participants {
        let Some(addr) = worker.peer_addr(*site) else {
            continue;
        };
        let Ok(mut chan) = worker.transport().connect(&addr) else {
            continue; // crashed participant
        };
        // Liveness deadline: a partitioned participant whose socket never
        // closes is treated as died mid-step, not waited on forever. Phase
        // messages are never retransmitted here — the recovering site learns
        // the outcome through recovery instead.
        match rpc(chan.as_mut(), req, CONSENSUS_DEADLINE, metrics) {
            // The step was rejected, not lost: the participant says why.
            Ok(Response::Err(e)) => return Err(e.at(*site)),
            Ok(_) => reached += 1,
            Err(_) => {} // died mid-step; it will recover
        }
    }
    if reached == 0 {
        return Err(DbError::Unrecoverable(
            "consensus reached no participants".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4_1_actions() {
        use WireTxnState as S;
        for state in [S::Unknown, S::Pending, S::PreparedVotedNo, S::Aborted] {
            assert_eq!(backup_action(state), BackupAction::Abort, "{state:?}");
        }
        assert_eq!(
            backup_action(S::PreparedVotedYes),
            BackupAction::PrepareThenAbort
        );
        assert_eq!(
            backup_action(S::PreparedToCommit(Timestamp(7))),
            BackupAction::PrepareToCommitThenCommit(Timestamp(7))
        );
        assert_eq!(
            backup_action(S::Committed(Timestamp(9))),
            BackupAction::Commit(Timestamp(9))
        );
    }
}
