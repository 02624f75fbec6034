//! The consensus-building protocol for coordinator failures under 3PC
//! (thesis §4.3.3, Table 4.1; originally Skeen 1981).
//!
//! When workers detect a coordinator crash during commit processing, a
//! backup coordinator is chosen "by some arbitrarily pre-assigned ranking"
//! — here, the lowest-numbered live participant. Because 3PC state
//! transitions proceed in lock-step, no site can be more than one state
//! away from the backup, so the backup can decide the global outcome from
//! *its own* state alone:
//!
//! | backup state            | action                          |
//! |-------------------------|---------------------------------|
//! | pending                 | abort                           |
//! | prepared, voted NO      | abort                           |
//! | prepared, voted YES     | prepare, then abort             |
//! | aborted                 | abort                           |
//! | prepared-to-commit      | prepare-to-commit, then commit  |
//! | committed               | commit                          |
//!
//! Workers disregard duplicate messages, so replaying phases is safe.

use crate::failpoint::CrashPoint;
use crate::message::{Request, Response};
use crate::worker::Worker;
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

/// A participant's consensus-relevant state (Fig 4-5 states plus the vote).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackupState {
    Pending,
    PreparedYes,
    PreparedNo,
    PreparedToCommit(Timestamp),
    Committed(Timestamp),
    Aborted,
}

/// What the backup coordinator does (Table 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackupAction {
    Abort,
    PrepareThenAbort,
    PrepareToCommitThenCommit(Timestamp),
    Commit(Timestamp),
}

/// The pure decision function of Table 4.1.
pub fn backup_action(state: BackupState) -> BackupAction {
    match state {
        BackupState::Pending => BackupAction::Abort,
        BackupState::PreparedNo => BackupAction::Abort,
        BackupState::Aborted => BackupAction::Abort,
        BackupState::PreparedYes => BackupAction::PrepareThenAbort,
        BackupState::PreparedToCommit(t) => BackupAction::PrepareToCommitThenCommit(t),
        BackupState::Committed(t) => BackupAction::Commit(t),
    }
}

/// Runs the protocol from `worker`'s point of view. Returns `Ok(true)` if
/// this site acted as backup and drove the transaction to an outcome,
/// `Ok(false)` if another live site outranks it (that site is the backup;
/// this one waits to be told).
pub fn resolve(
    worker: &Arc<Worker>,
    tid: TransactionId,
    participants: &[SiteId],
) -> DbResult<bool> {
    let mut ranked: Vec<SiteId> = participants.to_vec();
    ranked.sort();
    ranked.dedup();
    // Election: the lowest-ranked live participant is the backup.
    for site in &ranked {
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
            broadcast(worker, &ranked, &Request::Abort { tid })?;
        }
        BackupAction::PrepareThenAbort => {
            // Ask every site to reach the prepared state (no-ops where it
            // already is), then abort.
            broadcast(
                worker,
                &ranked,
                &Request::Prepare {
                    tid,
                    workers: ranked.clone(),
                    time_bound: Timestamp::ZERO,
                },
            )?;
            maybe_crash_mid_resolution(worker)?;
            broadcast(worker, &ranked, &Request::Abort { tid })?;
        }
        BackupAction::PrepareToCommitThenCommit(t) => {
            // Replay the last two phases, reusing the commit time received
            // from the old coordinator (§4.3.3).
            broadcast(
                worker,
                &ranked,
                &Request::PrepareToCommit {
                    tid,
                    commit_time: t,
                },
            )?;
            maybe_crash_mid_resolution(worker)?;
            broadcast(
                worker,
                &ranked,
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
                &ranked,
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

/// Asks the highest-priority live participant (other than this site) for
/// its state of `tid`. `None` when unreachable or still undecided in a way
/// that maps to no [`BackupState`] progress.
pub fn query_backup_state(
    worker: &Arc<Worker>,
    tid: TransactionId,
    participants: &[SiteId],
) -> Option<BackupState> {
    let mut ranked: Vec<SiteId> = participants.to_vec();
    ranked.sort();
    ranked.dedup();
    for site in ranked {
        if site == worker.site() {
            return None; // we outrank the rest: we are the backup
        }
        let Some(addr) = worker.peer_addr(site) else {
            continue;
        };
        // The query is idempotent, so a silent or closed peer gets bounded
        // retries before the site is skipped as unreachable.
        let metrics = worker.engine().metrics();
        let reply = with_read_retries(
            metrics,
            CONSENSUS_RETRIES,
            Duration::from_millis(10),
            || {
                let mut chan = worker.transport().connect(&addr)?;
                let req = Request::QueryTxnState { tid };
                rpc(chan.as_mut(), &req, CONSENSUS_DEADLINE, metrics)
            },
        );
        match reply {
            Ok(Response::TxnState { state }) => {
                use crate::message::WireTxnState as W;
                return Some(match state {
                    W::Unknown | W::Aborted => BackupState::Aborted,
                    W::Pending => BackupState::Pending,
                    W::PreparedVotedYes => BackupState::PreparedYes,
                    W::PreparedVotedNo => BackupState::PreparedNo,
                    W::PreparedToCommit(t) => BackupState::PreparedToCommit(t),
                    W::Committed(t) => BackupState::Committed(t),
                });
            }
            _ => continue,
        }
    }
    None
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
        assert_eq!(backup_action(BackupState::Pending), BackupAction::Abort);
        assert_eq!(backup_action(BackupState::PreparedNo), BackupAction::Abort);
        assert_eq!(backup_action(BackupState::Aborted), BackupAction::Abort);
        assert_eq!(
            backup_action(BackupState::PreparedYes),
            BackupAction::PrepareThenAbort
        );
        assert_eq!(
            backup_action(BackupState::PreparedToCommit(Timestamp(7))),
            BackupAction::PrepareToCommitThenCommit(Timestamp(7))
        );
        assert_eq!(
            backup_action(BackupState::Committed(Timestamp(9))),
            BackupAction::Commit(Timestamp(9))
        );
    }
}
