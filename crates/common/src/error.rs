//! Unified error type for every subsystem.

use crate::codec::{Encoder, Wire};
use crate::ids::{PageId, RecordId, SiteId, TableId, TransactionId};
use std::fmt;
use std::io;

/// Result alias used across the workspace.
pub type DbResult<T> = Result<T, DbError>;

crate::wire_enum! {
    /// All error conditions surfaced by the database, and the one encoding
    /// of an error that crosses a wire (`Response::Err` between sites,
    /// `FrontReply::Err` to a client). Every variant crosses as itself with
    /// its fields, except the link class at the end. Decoding is total: an
    /// unknown tag, a short frame or a bad string is `Corrupt`.
    #[derive(Clone, PartialEq, Debug)]
    pub enum DbError {
        /// Page, heap file or log contents failed validation.
        0 => Corrupt(String),
        /// The page / segment / log buffer is full.
        1 => Full(String),
        /// A client's request outran its own budget at the front door (before
        /// or while it was served). Says nothing of any site: a peer that does
        /// not answer another site in time is [`DbError::SiteUnavailable`].
        2 => Timeout(String),
        /// Schema mismatch: wrong arity or field type.
        3 => Schema(String),
        /// Constraint violation detected at PREPARE (workers vote NO, §4.3.2).
        4 => Constraint(String),
        /// Protocol violation between sites (unexpected message, bad state).
        5 => Protocol(String),
        /// Recovery cannot proceed (e.g. more than K replicas of an object are
        /// down, §3.2).
        6 => Unrecoverable(String),
        /// The object is down to its last live copy and the cluster is
        /// configured to degrade to read-only rather than risk committing an
        /// update with no surviving replica. *Transient in the large*: the
        /// replication supervisor is (or should be) re-replicating; the write
        /// can be retried once the object is back above its K floor. Not a
        /// timeout and not a disconnect — the site answering is perfectly
        /// healthy, it is declining the write on policy.
        7 => Degraded(String),
        /// Catch-all invariant violation.
        8 => Internal(String),
        /// A lock could not be granted before the deadlock timeout expired
        /// (thesis §6.1.2 resolves deadlocks by timeout).
        9 => LockTimeout { what: String, txn: TransactionId },
        /// A worker would not begin `tid`: nothing of the transaction is open
        /// at that site, so the coordinator has nothing to abort there.
        10 => BeginRefused { why: String, tid: TransactionId },
        /// The transaction was aborted (locally or by the commit protocol).
        11 => TransactionAborted(TransactionId),
        /// Unknown transaction id presented to a worker. Workers answer vote
        /// requests for unknown transactions with NO (§4.3.2 failure handling).
        12 => UnknownTransaction(TransactionId),
        /// Unknown table.
        13 => NoSuchTable(TableId),
        /// Page outside the current extent of its heap file.
        14 => NoSuchPage(PageId),
        /// A record id pointed at an empty slot.
        15 => NoSuchRecord(RecordId),
        /// A heap page's checksum trailer did not match its contents on
        /// fault-in: the on-disk copy is damaged (torn write, bit rot, bad
        /// sector). *Site-local and repairable* — the page can be rebuilt from
        /// a live buddy's copy of the same key range, so it is not worth a
        /// retry (re-reading the same bytes cannot help) nor a reason to
        /// escalate to [`DbError::SiteUnavailable`] (the site is otherwise
        /// live).
        16 => CorruptPage { table: TableId, page: u32 },
        /// The serving layer declined to admit the request: its bounded queue
        /// was over its depth/age watermark or no in-flight permit was
        /// available within the admission budget. *Retryable by construction*
        /// — nothing was executed, so the client may safely resubmit after
        /// backing off at least `retry_after_ms`. Not a timeout (the deadline
        /// never started running against the engine) and not a disconnect
        /// (the front door answered promptly; it is shedding load on policy).
        17 => Overloaded { retry_after_ms: u64 },
    }
    // The link class describes the *sender's* links and files: a site that
    // is answering is not dead, so these cross as `Protocol` carrying their
    // text and a decoded reply is never a disconnect.
    by_hand [] {
        /// Underlying file-system failure: the `io::Error`'s kind and text.
        Io(io::ErrorKind, String),
        /// Networking failure; carries a human-readable cause. A closed
        /// connection doubles as failure detection (§5.5.1).
        Net(String),
        /// A liveness deadline expired (or bounded retries were exhausted): the
        /// peer is treated as failed even though its socket never closed — the
        /// partitioned-peer case the closed-connection detector of §5.5.1 cannot
        /// see. Classified as a disconnect.
        SiteUnavailable(String),
        /// The remote site has crashed or is unreachable.
        SiteDown(String),
    }
}

impl DbError {
    /// The link class, crossing as `Protocol`.
    fn encode_by_hand(&self, enc: &mut Encoder) {
        DbError::Protocol(self.to_string()).encode(enc);
    }

    /// Convenience constructor for corrupt-state errors.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        DbError::Corrupt(msg.into())
    }

    pub fn net(msg: impl Into<String>) -> Self {
        DbError::Net(msg.into())
    }

    pub fn protocol(msg: impl Into<String>) -> Self {
        DbError::Protocol(msg.into())
    }

    pub fn internal(msg: impl Into<String>) -> Self {
        DbError::Internal(msg.into())
    }

    pub fn timeout(msg: impl Into<String>) -> Self {
        DbError::Timeout(msg.into())
    }

    pub fn unavailable(msg: impl Into<String>) -> Self {
        DbError::SiteUnavailable(msg.into())
    }

    pub fn degraded(msg: impl Into<String>) -> Self {
        DbError::Degraded(msg.into())
    }

    pub fn overloaded(retry_after_ms: u64) -> Self {
        DbError::Overloaded { retry_after_ms }
    }

    /// `true` when the serving layer shed the request before execution.
    /// Always safe to retry after the embedded backoff hint; the request
    /// never reached the engine.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, DbError::Overloaded { .. })
    }

    /// The client-side backoff hint carried by an [`DbError::Overloaded`]
    /// shed, if this is one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            DbError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// `true` when a write was declined because the object is at its last
    /// live copy (read-only degradation policy). Retryable *after*
    /// re-replication, so clients should back off rather than hot-loop.
    pub fn is_degraded(&self) -> bool {
        matches!(self, DbError::Degraded(_))
    }

    /// `true` for a client's spent budget. Never implies a peer is dead; see
    /// [`DbError::is_disconnect`] for that.
    pub fn is_timeout(&self) -> bool {
        matches!(self, DbError::Timeout(_))
    }

    /// `true` for errors that indicate the remote party is gone, which the
    /// commit protocols treat as a worker/coordinator failure. A client's
    /// [`DbError::Timeout`] is deliberately *not* a disconnect — only a
    /// closed connection or an expired liveness deadline
    /// ([`DbError::SiteUnavailable`]) counts as site death.
    pub fn is_disconnect(&self) -> bool {
        matches!(
            self,
            DbError::Net(_) | DbError::SiteDown(_) | DbError::SiteUnavailable(_)
        ) || matches!(
            self,
            DbError::Io(
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof,
                _
            )
        )
    }

    /// `true` for corrupt-state errors: a checksum-failed page or any other
    /// failed content validation. Site-local — the *data* is damaged, not
    /// the site or the link — so callers must neither blindly retry the
    /// same read (it returns the same bytes) nor write the site off as
    /// dead. A corrupt read from a replica is answerable by a different
    /// replica of the same object.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, DbError::Corrupt(_) | DbError::CorruptPage { .. })
    }

    /// Names the site a remote failure came from, in the message field of
    /// the variants that have one. Class and other fields are untouched.
    pub fn at(mut self, site: SiteId) -> Self {
        use DbError::*;
        match &mut self {
            LockTimeout { what, .. } => *what = format!("{what} at {site}"),
            Io(_, m)
            | Corrupt(m)
            | Full(m)
            | Net(m)
            | Timeout(m)
            | SiteUnavailable(m)
            | Protocol(m)
            | SiteDown(m)
            | Schema(m)
            | Constraint(m)
            | Unrecoverable(m)
            | Degraded(m)
            | Internal(m)
            | BeginRefused { why: m, .. } => *m = format!("{site}: {m}"),
            TransactionAborted(_)
            | UnknownTransaction(_)
            | NoSuchTable(_)
            | NoSuchPage(_)
            | NoSuchRecord(_)
            | CorruptPage { .. }
            | Overloaded { .. } => {}
        }
        self
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(_, m) => write!(f, "io error: {m}"),
            DbError::LockTimeout { txn, what } => {
                write!(
                    f,
                    "{txn} timed out waiting for lock on {what} (possible deadlock)"
                )
            }
            DbError::TransactionAborted(t) => write!(f, "{t} aborted"),
            DbError::UnknownTransaction(t) => write!(f, "unknown transaction {t}"),
            DbError::NoSuchTable(t) => write!(f, "no such table {t}"),
            DbError::NoSuchPage(p) => write!(f, "no such page {p}"),
            DbError::NoSuchRecord(r) => write!(f, "no such record {r}"),
            DbError::Corrupt(m) => write!(f, "corrupt state: {m}"),
            DbError::CorruptPage { table, page } => {
                write!(f, "corrupt page {page} of table {table}: checksum mismatch")
            }
            DbError::Full(m) => write!(f, "full: {m}"),
            DbError::Net(m) => write!(f, "network error: {m}"),
            DbError::Timeout(m) => write!(f, "request timed out: {m}"),
            DbError::SiteUnavailable(m) => write!(f, "site unavailable: {m}"),
            DbError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DbError::SiteDown(m) => write!(f, "site down: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Constraint(m) => write!(f, "constraint violation: {m}"),
            DbError::Unrecoverable(m) => write!(f, "unrecoverable: {m}"),
            DbError::Degraded(m) => write!(f, "degraded to read-only: {m}"),
            DbError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
            DbError::BeginRefused { tid, why } => write!(f, "begin of {tid} refused: {why}"),
            DbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e.kind(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the far side of a wire makes of `e`.
    fn crossed(e: &DbError) -> DbError {
        DbError::from_slice(&e.to_vec()).expect("decode")
    }

    #[test]
    fn disconnect_classification() {
        assert!(DbError::net("peer gone").is_disconnect());
        let pipe = DbError::from(io::Error::new(io::ErrorKind::BrokenPipe, "x"));
        assert!(pipe.is_disconnect());
        assert!(!DbError::from(io::Error::new(io::ErrorKind::NotFound, "x")).is_disconnect());
        // The link class is the sender's: a site that answers is not dead.
        assert_eq!(crossed(&pipe), DbError::protocol("io error: x"));
        assert_eq!(
            crossed(&DbError::net("peer gone")),
            DbError::protocol("network error: peer gone")
        );
        let tid = TransactionId::from_parts(SiteId(0), 1);
        assert!(!DbError::TransactionAborted(tid).is_disconnect());
        // Liveness-deadline expiry is site death; a client's spent budget
        // is not (the conflation this distinction exists to prevent).
        assert!(DbError::unavailable("site-1: liveness deadline").is_disconnect());
        assert!(!DbError::timeout("client budget spent").is_disconnect());
        assert!(DbError::timeout("x").is_timeout());
        assert!(!DbError::unavailable("x").is_timeout());
        assert!(!DbError::net("x").is_timeout());
    }

    #[test]
    fn corrupt_classification() {
        let e = DbError::CorruptPage {
            table: TableId(3),
            page: 7,
        };
        // Site-local and repairable: neither transient nor site death.
        assert!(e.is_corrupt());
        assert!(!e.is_timeout());
        assert!(!e.is_disconnect());
        assert!(DbError::corrupt("bad frame").is_corrupt());
        assert!(!DbError::timeout("x").is_corrupt());
        assert!(!DbError::unavailable("x").is_corrupt());
        // Corruption crosses a wire as itself, and nothing else becomes it.
        assert_eq!(crossed(&e), e);
        assert_eq!(
            crossed(&DbError::NoSuchTable(TableId(9))),
            DbError::NoSuchTable(TableId(9))
        );
    }

    #[test]
    fn degraded_classification() {
        let e = DbError::degraded("\"sales\" is at its last live copy");
        // Policy refusal by a healthy site: none of the other classes.
        assert!(e.is_degraded());
        assert!(!e.is_timeout());
        assert!(!e.is_disconnect());
        assert!(!e.is_corrupt());
        assert_eq!(crossed(&e), e);
    }

    #[test]
    fn overloaded_classification() {
        let e = DbError::overloaded(40);
        // A shed is its own class: retryable by construction, but not a
        // timeout, not site death, not damage, not a policy degrade.
        assert!(e.is_overloaded());
        assert_eq!(e.retry_after_ms(), Some(40));
        assert!(!e.is_timeout());
        assert!(!e.is_disconnect());
        assert!(!e.is_corrupt());
        assert!(!e.is_degraded());
        assert!(!DbError::timeout("x").is_overloaded());
        assert_eq!(DbError::timeout("x").retry_after_ms(), None);
        // Class *and* backoff hint cross the wire; a mangled frame is an
        // error of its own, never a guessed hint.
        assert_eq!(crossed(&e), DbError::Overloaded { retry_after_ms: 40 });
        let frame = e.to_vec();
        assert!(DbError::from_slice(&frame[..frame.len() - 1])
            .unwrap_err()
            .is_corrupt());
    }

    #[test]
    fn display_is_informative() {
        let tid = TransactionId::from_parts(SiteId(1), 2);
        let e = DbError::LockTimeout {
            txn: tid,
            what: "T1.p0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("txn1:2") && s.contains("T1.p0"));
    }
}
