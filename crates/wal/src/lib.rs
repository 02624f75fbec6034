//! Write-ahead log and the ARIES baseline recovery algorithm.
//!
//! HARBOR's central claim is that a replicated warehouse does not need this
//! crate at runtime: optimized 2PC removes the workers' logs and optimized
//! 3PC removes the coordinator's too (thesis §4.3). The crate exists because
//! the evaluation compares HARBOR against the "gold standard" log-based
//! stack — traditional 2PC with forced writes plus ARIES restart recovery
//! (§2.1, §6.1.7) — so the baseline must be real, not mocked.
//!
//! Contents:
//! * [`record`] — undo/redo log records, including the timestamp-assignment
//!   records the versioned data model requires after PREPARE (§6.1.7);
//! * [`log`] — an append/force log manager with **group commit** (§6.2) and
//!   disk-profile-aware forced writes;
//! * [`aries`] — the three-pass analysis / redo / undo restart algorithm,
//!   generic over a [`aries::RecoveryStorage`] so it stays decoupled from the
//!   concrete heap-file implementation.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aries;
pub mod log;
pub mod record;

pub use log::{GroupCommit, LogManager};
pub use record::{LogPayload, LogRecord, RedoOp, TxnOutcome};

use std::fmt;

harbor_common::wire_struct! {
    /// Log sequence number: the byte offset of a record in the log file.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
    pub struct Lsn(pub u64);
}

impl Lsn {
    /// LSN zero: "before every record"; pages start here.
    pub const ZERO: Lsn = Lsn(0);
    /// Sentinel for "no previous record" in per-transaction chains.
    pub const NONE: Lsn = Lsn(u64::MAX);

    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "lsn<none>")
        } else {
            write!(f, "lsn{}", self.0)
        }
    }
}
