//! Front-door wire protocol: one framed request, one framed reply.
//!
//! The serving protocol is deliberately tiny — a transaction is shipped
//! whole (its [`UpdateRequest`] ops reuse the inter-site codec), executed
//! under the server's admission gate, and answered with a commit timestamp
//! or the failure itself in [`DbError`]'s wire encoding (so an `Overloaded`
//! shed keeps its class *and* its backoff hint across the hop, exactly as
//! between sites).

use harbor_common::codec::Wire;
use harbor_common::config::DEFAULT_REQUEST_DEADLINE;
use harbor_common::{wire_enum, DbError, DbResult, Timestamp};
use harbor_dist::UpdateRequest;
use harbor_net::{Channel, Transport};
use std::time::Duration;

wire_enum! {
    /// A client request to the front door.
    #[derive(Debug, Clone, PartialEq)]
    pub enum FrontRequest {
        /// Liveness probe; answered immediately, never queued.
        0 => Ping,
        /// Execute `ops` as one transaction. `deadline_ms` is the client's total
        /// budget from arrival; `0` means "use the server default". `client` and
        /// `req` echo back in the reply so a driver can correlate pipelined
        /// sessions.
        1 => Txn { client: u64, req: u64, deadline_ms: u32, ops: Vec<UpdateRequest> },
    }
}

wire_enum! {
    /// The front door's answer.
    #[derive(Debug, Clone, PartialEq)]
    pub enum FrontReply {
        0 => Pong,
        /// The transaction committed at `ts`. This is the *ack*: once a client
        /// has seen it, the commit must survive any crash/recovery the chaos
        /// engine throws at the cluster.
        1 => Committed { client: u64, req: u64, ts: Timestamp },
        /// The request failed; `err` is the failure as the server saw it.
        2 => Err { client: u64, req: u64, err: DbError },
    }
}

/// Blocking single-session client for the front door: one request in flight
/// at a time, which is exactly what a closed-loop driver wants. Retry and
/// backoff live one layer up (the workload driver), so this stays an honest
/// one-round-trip primitive.
pub struct FrontClient {
    chan: Box<dyn Channel>,
    client_id: u64,
    next_req: u64,
    /// Set when a reply deadline expired with the reply still owed: the
    /// session's request/reply pairing is no longer trustworthy (a late
    /// reply would be matched against the *next* request), so every later
    /// call fails fast until the caller reconnects.
    desynced: bool,
}

/// Extra patience past the request's own budget before the client declares
/// a reply lost: covers queue wait, reply transit, and chaos-injected
/// delay, so a server-side deadline reject still arrives as a typed error
/// instead of tripping the client-side bound first.
const REPLY_SLACK: Duration = Duration::from_millis(250);

impl FrontClient {
    /// Connects a new session. `client_id` tags this session's requests in
    /// replies (purely diagnostic for a single-in-flight client).
    pub fn connect(transport: &dyn Transport, addr: &str, client_id: u64) -> DbResult<Self> {
        Ok(FrontClient {
            chan: transport.connect(addr)?,
            client_id,
            next_req: 0,
            desynced: false,
        })
    }

    /// Waits for one reply, bounded by `budget` (the request's deadline, or
    /// the server default when the caller passed `Duration::ZERO`) plus
    /// slack. A timeout poisons the session: with one request in flight,
    /// a reply that arrives *after* we gave up would desync every later
    /// request/reply pairing on this channel.
    fn recv_reply(&mut self, budget: Duration) -> DbResult<Vec<u8>> {
        if self.desynced {
            return Err(DbError::protocol(
                "front session desynced: an earlier reply timed out and may still be in \
                 flight — reconnect",
            ));
        }
        let effective = if budget.is_zero() {
            DEFAULT_REQUEST_DEADLINE
        } else {
            budget
        };
        let patience = effective.saturating_mul(2).saturating_add(REPLY_SLACK);
        match self.chan.recv_timeout(patience)? {
            Some(bytes) => Ok(bytes),
            None => {
                self.desynced = true;
                // harbor-lint: allow(error-taxonomy) — the client-side reply bound is a
                // classification boundary in the rpc_deadline sense: nothing downstream
                // of this point can classify the missing reply for us.
                Err(DbError::timeout(format!(
                    "no front-door reply within {patience:?} (budget {effective:?} + slack) — \
                     session desynced, reconnect before retrying"
                )))
            }
        }
    }

    /// Round-trips a liveness probe, bounded by the server's default
    /// request deadline plus slack.
    pub fn ping(&mut self) -> DbResult<()> {
        self.chan.send(FrontRequest::Ping.to_vec())?;
        match FrontReply::from_slice(&self.recv_reply(Duration::ZERO)?)? {
            FrontReply::Pong => Ok(()),
            other => Err(DbError::protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Executes `ops` as one transaction with the given deadline budget
    /// (`Duration::ZERO` = server default). Exactly one attempt: an
    /// `Overloaded` shed or a deadline reject comes back as the matching
    /// typed error for the caller's retry policy to act on, and the reply
    /// wait itself is bounded by the same budget (plus slack) so a
    /// partition mid-reply surfaces as `Timeout` instead of wedging the
    /// driver forever.
    pub fn txn(&mut self, ops: &[UpdateRequest], deadline: Duration) -> DbResult<Timestamp> {
        let req = self.next_req;
        self.next_req += 1;
        let msg = FrontRequest::Txn {
            client: self.client_id,
            req,
            deadline_ms: deadline.as_millis().min(u32::MAX as u128) as u32,
            ops: ops.to_vec(),
        };
        self.chan.send(msg.to_vec())?;
        match FrontReply::from_slice(&self.recv_reply(deadline)?)? {
            FrontReply::Committed { ts, .. } => Ok(ts),
            FrontReply::Err { err, .. } => Err(err),
            FrontReply::Pong => Err(DbError::protocol("unsolicited Pong")),
        }
    }

    pub fn client_id(&self) -> u64 {
        self.client_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::codec::Encoder;

    /// A tag neither type owns is `Corrupt`, as in every other decoder, and
    /// a hostile op count is refused by the one count guard, not allocated.
    #[test]
    fn bad_tags_and_inflated_counts_are_corrupt() {
        for err in [
            FrontRequest::from_slice(&[9]).unwrap_err(),
            FrontReply::from_slice(&[9]).unwrap_err(),
        ] {
            assert!(
                err.is_corrupt() && err.to_string().contains("tag 9"),
                "{err}"
            );
        }
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u64(0);
        enc.put_u64(0);
        enc.put_u32(0);
        enc.put_u32(u32::MAX);
        let err = FrontRequest::from_slice(enc.as_slice()).unwrap_err();
        assert!(
            err.is_corrupt() && err.to_string().contains("exceeds"),
            "{err}"
        );
    }
}
