//! Log record types.
//!
//! Records carry enough information to redo and undo every physical change a
//! transaction makes. Because the data model is versioned (updates never
//! overwrite user fields, §4.1), the only page mutations are: writing a fresh
//! tuple (with an `UNCOMMITTED` insertion timestamp), physically removing a
//! tuple (rollback / recovery Phase 1), and overwriting one of the two
//! timestamp fields. Timestamp assignment happens at commit, *after* PREPARE,
//! so it produces its own log records (§6.1.7).

use crate::Lsn;
use harbor_common::{wire_enum, wire_struct, PageId, RecordId, SiteId, Timestamp, TransactionId};

wire_enum! {
    /// Which of the two reserved timestamp fields a [`RedoOp::SetTimestamp`]
    /// touches.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TsField {
        0 => Insertion,
        1 => Deletion,
    }
}

wire_enum! {
    /// A physical, idempotent page operation. Redo applies it; each op carries
    /// what undo needs alongside (physiological logging).
    #[derive(Clone, PartialEq, Debug)]
    pub enum RedoOp {
        /// Write `data` (a fixed-width encoded tuple) into `rid`'s slot.
        0 => InsertTuple { rid: RecordId, data: Vec<u8> },
        /// Clear `rid`'s slot. `data` preserves the old contents for undo.
        1 => RemoveTuple { rid: RecordId, data: Vec<u8> },
        /// Overwrite a timestamp field. `old` enables undo.
        2 => SetTimestamp {
            rid: RecordId,
            field: TsField,
            old: Timestamp,
            new: Timestamp,
        },
    }
}

impl RedoOp {
    /// The page this op touches (for the dirty page table).
    pub fn page(&self) -> PageId {
        match self {
            RedoOp::InsertTuple { rid, .. }
            | RedoOp::RemoveTuple { rid, .. }
            | RedoOp::SetTimestamp { rid, .. } => rid.page,
        }
    }

    /// The inverse operation, applied by the undo pass and rollbacks.
    pub fn inverse(&self) -> RedoOp {
        match self {
            RedoOp::InsertTuple { rid, data } => RedoOp::RemoveTuple {
                rid: *rid,
                data: data.clone(),
            },
            RedoOp::RemoveTuple { rid, data } => RedoOp::InsertTuple {
                rid: *rid,
                data: data.clone(),
            },
            RedoOp::SetTimestamp {
                rid,
                field,
                old,
                new,
            } => RedoOp::SetTimestamp {
                rid: *rid,
                field: *field,
                old: *new,
                new: *old,
            },
        }
    }
}

wire_enum! {
    /// Final state of a finished transaction, recorded by `End`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TxnOutcome {
        0 => Committed,
        1 => Aborted,
    }
}

wire_enum! {
    /// Transaction status snapshot stored in checkpoint records.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CkptTxnState {
        0 => Active,
        1 => Prepared,
        2 => Committing,
        3 => Aborting,
    }
}

wire_enum! {
    /// The body of a log record.
    #[derive(Clone, PartialEq, Debug)]
    pub enum LogPayload {
        /// Transaction start (implicit in ARIES; kept explicit for readability).
        0 => Begin,
        /// A physical change, with undo information embedded in the op.
        1 => Update(RedoOp),
        /// Compensation log record written while undoing. `undo_next` points at
        /// the next record of the transaction still to be undone.
        2 => Clr { redo: RedoOp, undo_next: Lsn },
        /// Worker vote record: the transaction is prepared (2PC first phase).
        3 => Prepare { coordinator: SiteId },
        /// Worker entered the prepared-to-commit state (canonical 3PC's middle
        /// phase; the optimized variant writes nothing here).
        8 => PrepareToCommit { commit_time: Timestamp },
        /// Commit point, carrying the commit timestamp assigned by the
        /// coordinator (the 2PC augmentation of §4.3.1).
        4 => Commit { commit_time: Timestamp },
        5 => Abort,
        /// Transaction fully finished; its state can be forgotten.
        6 => End { outcome: TxnOutcome },
        /// Fuzzy checkpoint: active-transaction table and dirty page table.
        7 => Checkpoint {
            att: Vec<(TransactionId, CkptTxnState, Lsn)>,
            dpt: Vec<(PageId, Lsn)>,
        },
    }
}

wire_struct! {
    /// A full log record: per-transaction backward chain plus payload.
    #[derive(Clone, PartialEq, Debug)]
    pub struct LogRecord {
        /// Transaction this record belongs to. Checkpoints use a reserved id.
        pub tid: TransactionId,
        /// Previous record of the same transaction ([`Lsn::NONE`] for the first).
        pub prev_lsn: Lsn,
        pub payload: LogPayload,
    }
}

impl LogRecord {
    pub fn new(tid: TransactionId, prev_lsn: Lsn, payload: LogPayload) -> Self {
        LogRecord {
            tid,
            prev_lsn,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::codec::Wire;
    use harbor_common::TableId;

    fn rid() -> RecordId {
        RecordId::new(PageId::new(TableId(3), 7), 2)
    }

    fn tid() -> TransactionId {
        TransactionId::from_parts(SiteId(1), 99)
    }

    #[test]
    fn redo_op_round_trips() {
        for op in [
            RedoOp::InsertTuple {
                rid: rid(),
                data: vec![1, 2, 3],
            },
            RedoOp::RemoveTuple {
                rid: rid(),
                data: vec![],
            },
            RedoOp::SetTimestamp {
                rid: rid(),
                field: TsField::Deletion,
                old: Timestamp::ZERO,
                new: Timestamp(42),
            },
        ] {
            let bytes = op.to_vec();
            assert_eq!(RedoOp::from_slice(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn inverse_of_inverse_is_identity() {
        let op = RedoOp::SetTimestamp {
            rid: rid(),
            field: TsField::Insertion,
            old: Timestamp::UNCOMMITTED,
            new: Timestamp(5),
        };
        assert_eq!(op.inverse().inverse(), op);
        let ins = RedoOp::InsertTuple {
            rid: rid(),
            data: vec![9],
        };
        assert_eq!(ins.inverse().inverse(), ins);
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let records = vec![
            LogRecord::new(tid(), Lsn::NONE, LogPayload::Begin),
            LogRecord::new(
                tid(),
                Lsn(10),
                LogPayload::Update(RedoOp::InsertTuple {
                    rid: rid(),
                    data: vec![4, 5],
                }),
            ),
            LogRecord::new(
                tid(),
                Lsn(20),
                LogPayload::Clr {
                    redo: RedoOp::RemoveTuple {
                        rid: rid(),
                        data: vec![4, 5],
                    },
                    undo_next: Lsn::NONE,
                },
            ),
            LogRecord::new(
                tid(),
                Lsn(30),
                LogPayload::Prepare {
                    coordinator: SiteId(0),
                },
            ),
            LogRecord::new(
                tid(),
                Lsn(40),
                LogPayload::Commit {
                    commit_time: Timestamp(77),
                },
            ),
            LogRecord::new(
                tid(),
                Lsn(45),
                LogPayload::PrepareToCommit {
                    commit_time: Timestamp(78),
                },
            ),
            LogRecord::new(tid(), Lsn(50), LogPayload::Abort),
            LogRecord::new(
                tid(),
                Lsn(60),
                LogPayload::End {
                    outcome: TxnOutcome::Committed,
                },
            ),
            LogRecord::new(
                tid(),
                Lsn(70),
                LogPayload::Checkpoint {
                    att: vec![(tid(), CkptTxnState::Prepared, Lsn(5))],
                    dpt: vec![(PageId::new(TableId(1), 2), Lsn(3))],
                },
            ),
        ];
        for r in records {
            let bytes = r.to_vec();
            assert_eq!(LogRecord::from_slice(&bytes).unwrap(), r);
        }
    }

    /// What a torn or bit-rotted log tail can hold: a checkpoint whose `att`
    /// count is inflated is refused by the count guard before anything is
    /// allocated for it, and an outcome byte that is neither variant's is
    /// refused rather than read as `Committed`.
    #[test]
    fn inflated_count_and_unknown_outcome_are_corrupt() {
        let ckpt = LogRecord::new(
            tid(),
            Lsn(70),
            LogPayload::Checkpoint {
                att: vec![(tid(), CkptTxnState::Active, Lsn(5))],
                dpt: vec![],
            },
        );
        // Layout: tid u64 | prev_lsn u64 | tag u8 | att count u32 | ...
        let mut bytes = ckpt.to_vec();
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = LogRecord::from_slice(&bytes).unwrap_err();
        assert!(
            err.is_corrupt() && err.to_string().contains("exceeds"),
            "{err}"
        );

        let end = LogPayload::End {
            outcome: TxnOutcome::Aborted,
        };
        let mut bytes = LogRecord::new(tid(), Lsn(60), end).to_vec();
        *bytes.last_mut().unwrap() = 2;
        let err = LogRecord::from_slice(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad TxnOutcome tag 2"), "{err}");
    }
}
