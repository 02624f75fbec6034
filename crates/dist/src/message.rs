//! Wire messages between coordinators, workers, and recovering sites.

use harbor_common::codec::{bad_tag, Decoder, Encoder, Wire};
use harbor_common::{
    wire_enum, wire_struct, DbError, DbResult, SiteId, Timestamp, TransactionId, Tuple, Value,
};
use harbor_exec::Expr;

wire_enum! {
    /// A logical update request — what the coordinator queues per transaction
    /// (§4.1: "represented simply by the update's SQL statement or a parsed
    /// version of that statement") and forwards to joining recoverers.
    #[derive(Clone, PartialEq, Debug)]
    pub enum UpdateRequest {
        /// Insert one row (user values; the key is the first value).
        0 => Insert { table: String, values: Vec<Value> },
        /// Insert many rows in one request (bulk-ish loads).
        1 => InsertMany { table: String, rows: Vec<Vec<Value>> },
        /// Delete currently-visible rows matching a predicate over the stored
        /// tuple (version columns at indices 0/1, user fields after).
        2 => DeleteWhere { table: String, pred: Expr },
        /// Update the live version of the row with the given key, overwriting
        /// the listed user fields ("indexed update queries").
        3 => UpdateByKey { table: String, key: i64, set: Vec<(u16, Value)> },
        /// Update all currently-visible rows matching a predicate.
        4 => UpdateWhere { table: String, pred: Expr, set: Vec<(u16, Value)> },
        /// Spin the worker CPU for `cycles` iterations (the simulated ETL work
        /// of §6.3.2).
        5 => SimulateWork { cycles: u64 },
    }
}

impl UpdateRequest {
    /// The table this request touches, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            UpdateRequest::Insert { table, .. }
            | UpdateRequest::InsertMany { table, .. }
            | UpdateRequest::DeleteWhere { table, .. }
            | UpdateRequest::UpdateByKey { table, .. }
            | UpdateRequest::UpdateWhere { table, .. } => Some(table),
            UpdateRequest::SimulateWork { .. } => None,
        }
    }
}

wire_enum! {
    /// Read modes expressible over the wire.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum WireReadMode {
        /// Historical snapshot at a time (lock-free).
        0 => Historical(Timestamp),
        /// `SEE DELETED HISTORICAL WITH TIME hwm` (recovery Phase 2).
        1 => SeeDeletedHistorical(Timestamp),
        /// `SEE DELETED` under an already-granted table lock (Phase 3).
        2 => SeeDeletedLocked(TransactionId),
        /// Latest committed data with transactional read locks.
        3 => Current(TransactionId),
    }
}

wire_struct! {
    /// A remote scan: the read queries of normal processing and all the remote
    /// halves of the recovery queries of Chapter 5.
    #[derive(Clone, PartialEq, Debug)]
    pub struct RemoteScan {
        pub table: String,
        pub mode: WireReadMode,
        /// Residual predicate over the stored tuple (None = all).
        pub predicate: Option<Expr>,
        /// Segment-pruning + residual bound: committed `insertion_time <= t`.
        pub ins_at_or_before: Option<Timestamp>,
        /// Bound: `insertion_time > t` (uncommitted excluded by the modes).
        pub ins_after: Option<Timestamp>,
        /// Bound: `deletion_time > t`.
        pub del_after: Option<Timestamp>,
        /// Project to `(tuple_id, deletion_time)` pairs instead of full tuples
        /// (the Phase 2/3 deletion queries).
        pub ids_and_deletions_only: bool,
    }
}

impl RemoteScan {
    pub fn new(table: &str, mode: WireReadMode) -> Self {
        RemoteScan {
            table: table.to_string(),
            mode,
            predicate: None,
            ins_at_or_before: None,
            ins_after: None,
            del_after: None,
            ids_and_deletions_only: false,
        }
    }
}

wire_enum! {
    /// Requests sent to a worker's server. Tag 14 carried the ranged recovery
    /// scan until a plain `Scan` with both insertion bounds replaced it: the
    /// number is retired, not reused.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Request {
        /// Execute one logical update request under `tid`.
        1 as UPDATE_TAG => Update { tid: TransactionId, req: UpdateRequest },
        /// First commit phase: vote request. Carries the participant set (3PC
        /// consensus needs it) and the coordinator clock lower bound.
        2 => Prepare { tid: TransactionId, workers: Vec<SiteId>, time_bound: Timestamp },
        /// 3PC second phase.
        3 => PrepareToCommit { tid: TransactionId, commit_time: Timestamp },
        /// Final commit with the assigned time.
        4 => Commit { tid: TransactionId, commit_time: Timestamp },
        5 => Abort { tid: TransactionId },
        /// Streamed scan; worker answers with `Response::Tuples` batches.
        6 => Scan(RemoteScan),
        /// Recovery Phase 3: acquire a table-granularity read lock on behalf of
        /// the recovering site's lock owner `tid`.
        7 => AcquireTableLock { tid: TransactionId, table: String },
        8 => ReleaseTableLock { tid: TransactionId, table: String },
        /// Peer-state query used by the consensus-building protocol (§4.3.3).
        9 => QueryTxnState { tid: TransactionId },
        /// Liveness probe.
        10 => Ping,
        /// Ask the timestamp authority's current time (recovering sites compute
        /// their HWM from this; served by coordinators).
        11 => GetTime,
        /// A recovering site announces "`table` on `site` is coming online"
        /// (Fig 5-4; served by coordinators).
        12 => RecComingOnline { site: SiteId, table: String },
        /// Ask a buddy for `table`'s segment directory bounds (§4.2), so a
        /// recovering site can partition Phase 2 into per-segment ranges.
        13 => SegmentBounds { table: String },
        /// Epoch group commit: one PREPARE wave carrying every transaction of
        /// the epoch this worker participates in. Each entry carries the txn's
        /// full participant set (as in [`Request::Prepare`], for §4.3.3
        /// consensus). The worker answers with [`Response::VoteBatch`].
        15 => PrepareBatch {
            epoch: u64,
            /// `(tid, participant set)` per transaction, coordinator order.
            txns: Vec<(TransactionId, Vec<SiteId>)>,
            time_bound: Timestamp,
        },
        /// Epoch group commit: one COMMIT wave carrying the per-txn outcomes of
        /// the epoch — commits with their assigned times plus the aborted txns
        /// this worker voted on. The worker answers with [`Response::AckBatch`].
        16 => CommitBatch {
            epoch: u64,
            commits: Vec<(TransactionId, Timestamp)>,
            aborts: Vec<TransactionId>,
        },
        /// Membership: admit a brand-new site at `addr` into the cluster
        /// (served by coordinators). The coordinator allocates replica copies
        /// in the placement catalog and marks the site down-and-joining; the
        /// site then bootstraps via the ordinary recovery path and goes votable
        /// through the Fig 5-4 [`Request::RecComingOnline`] handshake.
        17 => JoinSite { site: SiteId, addr: String },
        /// Membership: gracefully retire `site` (served by coordinators). The
        /// coordinator drains the site from in-flight commit epochs, drops its
        /// copies from the placement catalog (refusing if any object would lose
        /// its last copy), and removes it from the address book.
        18 => DecommissionSite { site: SiteId },
    }
    by_hand [0 as BEGIN_TAG, 19 as LAST_UPDATE_TAG] {
        /// The begin marker: `first` is the first frame this worker sees of
        /// `tid`. The worker begins the transaction, executes `first` and
        /// answers as it would have answered `first` alone — or with one
        /// [`Response::Err`] carrying [`DbError::BeginRefused`], `first` not
        /// executed, if it will not begin the transaction. `first` is never
        /// itself a `Begin`. The frame is the tag, `tid`, then `first`'s own
        /// frame.
        Begin {
            tid: TransactionId,
            first: Box<Request>,
        },
        /// A transaction's last statement with its PREPARE riding on it: the
        /// worker executes `req` as it would an [`Request::Update`] and, if that
        /// succeeded, votes as it would on a [`Request::Prepare`] naming
        /// `workers` and `time_bound`. One reply: the [`Response::Vote`], or the
        /// statement's [`Response::Err`] with nothing prepared. The frame is
        /// the tag, the frame of the statement as a [`Request::Update`], and
        /// the PREPARE's participant list and time bound as a trailer.
        LastUpdate {
            tid: TransactionId,
            req: UpdateRequest,
            workers: Vec<SiteId>,
            time_bound: Timestamp,
        },
    }
}

impl Request {
    /// The frame of `Request::Begin { tid, first }`, given the frame of
    /// `first`: the marker is a prefix, so a request encoded once for a
    /// whole round is marked for the sites that need it without being
    /// encoded again.
    pub fn mark_beginning(tid: TransactionId, first: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(9 + first.len());
        Self::put_marker(&mut enc, tid);
        enc.put_raw(first);
        enc.into_bytes()
    }

    fn put_marker(enc: &mut Encoder, tid: TransactionId) {
        enc.put_u8(Self::BEGIN_TAG);
        tid.encode(enc);
    }

    fn encode_by_hand(&self, enc: &mut Encoder) {
        match self {
            Request::Begin { tid, first } => {
                Self::put_marker(enc, *tid);
                first.encode(enc);
            }
            Request::LastUpdate {
                tid,
                req,
                workers,
                time_bound,
            } => {
                enc.put_u8(Self::LAST_UPDATE_TAG);
                enc.put_u8(Self::UPDATE_TAG);
                tid.encode(enc);
                req.encode(enc);
                workers.encode(enc);
                time_bound.encode(enc);
            }
            declared => unreachable!("{declared:?} encodes as declared"),
        }
    }

    fn decode_by_hand(tag: u8, dec: &mut Decoder<'_>) -> DbResult<Self> {
        match tag {
            Self::BEGIN_TAG => {
                // One marker, then a plain request: a frame cannot nest
                // markers, so decoding never recurses.
                let tid = TransactionId::decode(dec)?;
                let first = match dec.get_u8()? {
                    Self::BEGIN_TAG => return Err(DbError::corrupt("a marker inside a marker")),
                    plain => Self::decode_tagged(plain, dec)?,
                };
                Ok(Request::Begin {
                    tid,
                    first: Box::new(first),
                })
            }
            Self::LAST_UPDATE_TAG => {
                // The trailer rides on a statement and on nothing else: what
                // follows the tag is read as one, never decoded as a request.
                let riding_on = dec.get_u8()?;
                if riding_on != Self::UPDATE_TAG {
                    return Err(DbError::corrupt(format!(
                        "a PREPARE rides a statement, not request tag {riding_on}"
                    )));
                }
                Ok(Request::LastUpdate {
                    tid: Wire::decode(dec)?,
                    req: Wire::decode(dec)?,
                    workers: Wire::decode(dec)?,
                    time_bound: Wire::decode(dec)?,
                })
            }
            t => Err(bad_tag("Request", t)),
        }
    }
}

wire_enum! {
    /// Worker-visible transaction state, for consensus (§4.3.3 / Table 4.1).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum WireTxnState {
        0 => Unknown,
        1 => Pending,
        2 => PreparedVotedYes,
        3 => PreparedVotedNo,
        4 => PreparedToCommit(Timestamp),
        5 => Committed(Timestamp),
        6 => Aborted,
    }
}

wire_enum! {
    /// Responses from a worker/coordinator server.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Response {
        0 => Ok,
        1 => Ack,
        2 => Vote { yes: bool },
        3 => Time { now: Timestamp },
        4 => TxnState { state: WireTxnState },
        /// One batch of a streamed scan; `done` marks the last batch.
        5 as TUPLES_TAG => Tuples { done: bool, batch: Vec<Tuple> },
        /// Fig 5-4's "all done" from the coordinator to the recovering site.
        6 => AllDone,
        /// The sender's failure, as [`DbError`]'s own wire encoding carries it.
        7 => Err(DbError),
        /// Per-segment `(tmin_insert, tmax_insert, tmax_delete, pages)`
        /// directory bounds, oldest segment first. The page count lets the
        /// recovering site weight its ranged catch-up queries by data volume.
        8 => SegmentBounds { segments: Vec<(Timestamp, Timestamp, Timestamp, u64)> },
        /// Per-txn vote vector answering [`Request::PrepareBatch`], in the
        /// request's txn order. A NO vote aborts only that transaction.
        9 => VoteBatch { votes: Vec<(TransactionId, bool)> },
        /// Per-txn acks answering [`Request::CommitBatch`]: every txn this
        /// worker applied (committed or aborted) during the wave.
        10 => AckBatch { acked: Vec<TransactionId> },
    }
}

impl Response {
    /// What the caller of an RPC makes of a reply it did not ask for: the
    /// sender's own error if that is what came, a protocol violation
    /// naming the reply `asked` for otherwise.
    pub fn into_error(self, asked: &str) -> DbError {
        match self {
            Response::Err(e) => e,
            other => DbError::protocol(format!("unexpected {asked} reply {other:?}")),
        }
    }
}

/// Incrementally built `Response::Tuples` frame.
///
/// The scan service (`worker::ship_scan`) transcodes admitted rows from page
/// bytes straight into this buffer; `finish` patches the done flag and the
/// row count once the batch is complete. The output is byte-identical to
/// `Response::Tuples { batch, done }.to_vec()` (asserted by the wire tests),
/// so the receiving side needs no changes.
pub struct TuplesFrameBuilder {
    enc: Encoder,
    rows: u32,
}

// Byte offsets within the frame: [0] response tag, [1] done flag, [2..6]
// row count (`Vec<Tuple>`'s), [6..] wire tuples.
const TUPLES_DONE_OFFSET: usize = 1;
const TUPLES_COUNT_OFFSET: usize = 2;
const TUPLES_HEADER: usize = 6;

impl TuplesFrameBuilder {
    /// A builder with room for `row_bytes` of rows before its buffer grows.
    pub fn with_capacity(row_bytes: usize) -> Self {
        let mut enc = Encoder::with_capacity(TUPLES_HEADER + row_bytes);
        enc.put_u8(Response::TUPLES_TAG);
        enc.put_bool(false); // done flag, patched in finish()
        enc.put_u32(0); // row count, patched in finish()
        TuplesFrameBuilder { enc, rows: 0 }
    }

    /// The underlying encoder, positioned after the header: append one wire
    /// tuple per row, then call [`note_row`](Self::note_row).
    pub fn encoder(&mut self) -> &mut Encoder {
        &mut self.enc
    }

    pub fn note_row(&mut self) {
        self.rows += 1;
    }

    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Finalizes into a frame ready to be moved into `Channel::send`.
    pub fn finish(mut self, done: bool) -> Vec<u8> {
        self.enc.patch_u32(TUPLES_COUNT_OFFSET, self.rows);
        let mut bytes = self.enc.into_bytes();
        bytes[TUPLES_DONE_OFFSET] = done as u8;
        bytes
    }
}

/// The receiving twin of [`TuplesFrameBuilder`]: opens a `Response::Tuples`
/// frame without decoding its rows — `(done, rows, decoder standing at the
/// first of the `rows` wire tuples that are the rest of the frame)`. `None`:
/// another response, to be decoded whole.
pub fn open_tuples_frame(frame: &[u8]) -> DbResult<Option<(bool, usize, Decoder<'_>)>> {
    if frame.first() != Some(&Response::TUPLES_TAG) {
        return Ok(None);
    }
    let mut wire = Decoder::new(&frame[1..]);
    let done = wire.get_bool()?;
    let rows = wire.get_u32()? as usize;
    Ok(Some((done, rows, wire)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_frame_builder_matches_materialized_encoding() {
        let batch = vec![
            Tuple::new(vec![
                Value::Time(Timestamp(3)),
                Value::Time(Timestamp::ZERO),
                Value::Int64(7),
                Value::Int32(-2),
                Value::Str("hi".into()),
            ]),
            Tuple::new(vec![Value::Int64(1), Value::Time(Timestamp(9))]),
        ];
        for done in [false, true] {
            let mut b = TuplesFrameBuilder::with_capacity(0);
            for t in &batch {
                t.write_wire(b.encoder());
                b.note_row();
            }
            let built = b.finish(done);
            let reference = Response::Tuples {
                batch: batch.clone(),
                done,
            }
            .to_vec();
            assert_eq!(built, reference);
        }
        // Empty final frame (every stream ends with one).
        assert_eq!(
            TuplesFrameBuilder::with_capacity(0).finish(true),
            Response::Tuples {
                batch: vec![],
                done: true
            }
            .to_vec()
        );
    }

    /// Tag 14 carried the ranged recovery scan until a plain `Scan` with
    /// both insertion bounds replaced it. The number is retired, not
    /// reused: a frame from an old peer is refused, never misread.
    #[test]
    fn retired_request_tag_is_rejected() {
        let scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(10)));
        let mut enc = Encoder::new();
        enc.put_u8(14);
        scan.encode(&mut enc);
        enc.put_u64(4);
        enc.put_u64(10);
        let err = Request::from_slice(&enc.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, DbError::Corrupt(m) if m.contains("Request tag 14")),
            "{err}"
        );
    }
}
