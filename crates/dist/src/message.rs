//! Wire messages between coordinators, workers, and recovering sites.

use harbor_common::codec::{Decoder, Encoder, Wire};
use harbor_common::{DbError, DbResult, SiteId, Timestamp, TransactionId, Tuple, Value};
use harbor_exec::Expr;

/// A logical update request — what the coordinator queues per transaction
/// (§4.1: "represented simply by the update's SQL statement or a parsed
/// version of that statement") and forwards to joining recoverers.
#[derive(Clone, PartialEq, Debug)]
pub enum UpdateRequest {
    /// Insert one row (user values; the key is the first value).
    Insert { table: String, values: Vec<Value> },
    /// Insert many rows in one request (bulk-ish loads).
    InsertMany {
        table: String,
        rows: Vec<Vec<Value>>,
    },
    /// Delete currently-visible rows matching a predicate over the stored
    /// tuple (version columns at indices 0/1, user fields after).
    DeleteWhere { table: String, pred: Expr },
    /// Update the live version of the row with the given key, overwriting
    /// the listed user fields ("indexed update queries").
    UpdateByKey {
        table: String,
        key: i64,
        set: Vec<(u16, Value)>,
    },
    /// Update all currently-visible rows matching a predicate.
    UpdateWhere {
        table: String,
        pred: Expr,
        set: Vec<(u16, Value)>,
    },
    /// Spin the worker CPU for `cycles` iterations (the simulated ETL work
    /// of §6.3.2).
    SimulateWork { cycles: u64 },
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

fn put_values(enc: &mut Encoder, values: &[Value]) {
    enc.put_u32(values.len() as u32);
    for v in values {
        v.encode(enc);
    }
}

/// Validates a wire-declared element count before allocating for it: every
/// element encodes to at least one byte, so a count beyond the bytes still
/// in the buffer is provably corrupt. Without this check a mutated length
/// prefix (u32::MAX) would make `Vec::with_capacity` allocate gigabytes
/// before the first element decode ever fails.
fn checked_count(dec: &Decoder<'_>, n: usize) -> DbResult<usize> {
    if n > dec.remaining() {
        return Err(DbError::corrupt(format!(
            "wire count {n} exceeds {} remaining bytes",
            dec.remaining()
        )));
    }
    Ok(n)
}

fn get_values(dec: &mut Decoder<'_>) -> DbResult<Vec<Value>> {
    let n = dec.get_u32()? as usize;
    let n = checked_count(dec, n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Value::decode(dec)?);
    }
    Ok(out)
}

fn put_set(enc: &mut Encoder, set: &[(u16, Value)]) {
    enc.put_u32(set.len() as u32);
    for (i, v) in set {
        enc.put_u16(*i);
        v.encode(enc);
    }
}

fn get_set(dec: &mut Decoder<'_>) -> DbResult<Vec<(u16, Value)>> {
    let n = dec.get_u32()? as usize;
    let n = checked_count(dec, n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let i = dec.get_u16()?;
        out.push((i, Value::decode(dec)?));
    }
    Ok(out)
}

fn put_sites(enc: &mut Encoder, sites: &[SiteId]) {
    enc.put_u32(sites.len() as u32);
    for s in sites {
        enc.put_u16(s.0);
    }
}

fn get_sites(dec: &mut Decoder<'_>) -> DbResult<Vec<SiteId>> {
    let n = dec.get_u32()? as usize;
    let n = checked_count(dec, n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(SiteId(dec.get_u16()?));
    }
    Ok(out)
}

impl Wire for UpdateRequest {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            UpdateRequest::Insert { table, values } => {
                enc.put_u8(0);
                enc.put_str(table);
                put_values(enc, values);
            }
            UpdateRequest::InsertMany { table, rows } => {
                enc.put_u8(1);
                enc.put_str(table);
                enc.put_u32(rows.len() as u32);
                for r in rows {
                    put_values(enc, r);
                }
            }
            UpdateRequest::DeleteWhere { table, pred } => {
                enc.put_u8(2);
                enc.put_str(table);
                pred.encode(enc);
            }
            UpdateRequest::UpdateByKey { table, key, set } => {
                enc.put_u8(3);
                enc.put_str(table);
                enc.put_i64(*key);
                put_set(enc, set);
            }
            UpdateRequest::UpdateWhere { table, pred, set } => {
                enc.put_u8(4);
                enc.put_str(table);
                pred.encode(enc);
                put_set(enc, set);
            }
            UpdateRequest::SimulateWork { cycles } => {
                enc.put_u8(5);
                enc.put_u64(*cycles);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(match dec.get_u8()? {
            0 => UpdateRequest::Insert {
                table: dec.get_str()?,
                values: get_values(dec)?,
            },
            1 => {
                let table = dec.get_str()?;
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(get_values(dec)?);
                }
                UpdateRequest::InsertMany { table, rows }
            }
            2 => UpdateRequest::DeleteWhere {
                table: dec.get_str()?,
                pred: Expr::decode(dec)?,
            },
            3 => UpdateRequest::UpdateByKey {
                table: dec.get_str()?,
                key: dec.get_i64()?,
                set: get_set(dec)?,
            },
            4 => UpdateRequest::UpdateWhere {
                table: dec.get_str()?,
                pred: Expr::decode(dec)?,
                set: get_set(dec)?,
            },
            5 => UpdateRequest::SimulateWork {
                cycles: dec.get_u64()?,
            },
            t => return Err(DbError::corrupt(format!("bad update request tag {t}"))),
        })
    }
}

/// Read modes expressible over the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireReadMode {
    /// Historical snapshot at a time (lock-free).
    Historical(Timestamp),
    /// `SEE DELETED HISTORICAL WITH TIME hwm` (recovery Phase 2).
    SeeDeletedHistorical(Timestamp),
    /// `SEE DELETED` under an already-granted table lock (Phase 3).
    SeeDeletedLocked(TransactionId),
    /// Latest committed data with transactional read locks.
    Current(TransactionId),
}

impl Wire for WireReadMode {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WireReadMode::Historical(t) => {
                enc.put_u8(0);
                enc.put_u64(t.0);
            }
            WireReadMode::SeeDeletedHistorical(t) => {
                enc.put_u8(1);
                enc.put_u64(t.0);
            }
            WireReadMode::SeeDeletedLocked(tid) => {
                enc.put_u8(2);
                enc.put_u64(tid.0);
            }
            WireReadMode::Current(tid) => {
                enc.put_u8(3);
                enc.put_u64(tid.0);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(match dec.get_u8()? {
            0 => WireReadMode::Historical(Timestamp(dec.get_u64()?)),
            1 => WireReadMode::SeeDeletedHistorical(Timestamp(dec.get_u64()?)),
            2 => WireReadMode::SeeDeletedLocked(TransactionId(dec.get_u64()?)),
            3 => WireReadMode::Current(TransactionId(dec.get_u64()?)),
            t => return Err(DbError::corrupt(format!("bad read mode tag {t}"))),
        })
    }
}

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

impl Wire for RemoteScan {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.table);
        self.mode.encode(enc);
        match &self.predicate {
            Some(p) => {
                enc.put_bool(true);
                p.encode(enc);
            }
            None => enc.put_bool(false),
        }
        for bound in [self.ins_at_or_before, self.ins_after, self.del_after] {
            match bound {
                Some(t) => {
                    enc.put_bool(true);
                    enc.put_u64(t.0);
                }
                None => enc.put_bool(false),
            }
        }
        enc.put_bool(self.ids_and_deletions_only);
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        let table = dec.get_str()?;
        let mode = WireReadMode::decode(dec)?;
        let predicate = if dec.get_bool()? {
            Some(Expr::decode(dec)?)
        } else {
            None
        };
        let mut bounds = [None; 3];
        for b in &mut bounds {
            if dec.get_bool()? {
                *b = Some(Timestamp(dec.get_u64()?));
            }
        }
        let ids_and_deletions_only = dec.get_bool()?;
        Ok(RemoteScan {
            table,
            mode,
            predicate,
            ins_at_or_before: bounds[0],
            ins_after: bounds[1],
            del_after: bounds[2],
            ids_and_deletions_only,
        })
    }
}

/// Requests sent to a worker's server.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// The begin marker: `first` is the first frame this worker sees of
    /// `tid`. The worker begins the transaction, executes `first` and
    /// answers as it would have answered `first` alone — or with one
    /// [`Response::Err`] carrying [`DbError::BeginRefused`], `first` not
    /// executed, if it will not begin the transaction. `first` is never
    /// itself a `Begin`.
    Begin {
        tid: TransactionId,
        first: Box<Request>,
    },
    /// Execute one logical update request under `tid`.
    Update {
        tid: TransactionId,
        req: UpdateRequest,
    },
    /// A transaction's last statement with its PREPARE riding on it: the
    /// worker executes `req` as it would an [`Request::Update`] and, if that
    /// succeeded, votes as it would on a [`Request::Prepare`] naming
    /// `workers` and `time_bound`. One reply: the [`Response::Vote`], or the
    /// statement's [`Response::Err`] with nothing prepared.
    LastUpdate {
        tid: TransactionId,
        req: UpdateRequest,
        workers: Vec<SiteId>,
        time_bound: Timestamp,
    },
    /// First commit phase: vote request. Carries the participant set (3PC
    /// consensus needs it) and the coordinator clock lower bound.
    Prepare {
        tid: TransactionId,
        workers: Vec<SiteId>,
        time_bound: Timestamp,
    },
    /// 3PC second phase.
    PrepareToCommit {
        tid: TransactionId,
        commit_time: Timestamp,
    },
    /// Final commit with the assigned time.
    Commit {
        tid: TransactionId,
        commit_time: Timestamp,
    },
    Abort {
        tid: TransactionId,
    },
    /// Streamed scan; worker answers with `Response::Tuples` batches.
    Scan(RemoteScan),
    /// Recovery Phase 3: acquire a table-granularity read lock on behalf of
    /// the recovering site's lock owner `tid`.
    AcquireTableLock {
        tid: TransactionId,
        table: String,
    },
    ReleaseTableLock {
        tid: TransactionId,
        table: String,
    },
    /// Peer-state query used by the consensus-building protocol (§4.3.3).
    QueryTxnState {
        tid: TransactionId,
    },
    /// Liveness probe.
    Ping,
    /// Ask the timestamp authority's current time (recovering sites compute
    /// their HWM from this; served by coordinators).
    GetTime,
    /// A recovering site announces "`table` on `site` is coming online"
    /// (Fig 5-4; served by coordinators).
    RecComingOnline {
        site: SiteId,
        table: String,
    },
    /// Ask a buddy for `table`'s segment directory bounds (§4.2), so a
    /// recovering site can partition Phase 2 into per-segment ranges.
    SegmentBounds {
        table: String,
    },
    /// Epoch group commit: one PREPARE wave carrying every transaction of
    /// the epoch this worker participates in. Each entry carries the txn's
    /// full participant set (as in [`Request::Prepare`], for §4.3.3
    /// consensus). The worker answers with [`Response::VoteBatch`].
    PrepareBatch {
        epoch: u64,
        /// `(tid, participant set)` per transaction, coordinator order.
        txns: Vec<(TransactionId, Vec<SiteId>)>,
        time_bound: Timestamp,
    },
    /// Epoch group commit: one COMMIT wave carrying the per-txn outcomes of
    /// the epoch — commits with their assigned times plus the aborted txns
    /// this worker voted on. The worker answers with [`Response::AckBatch`].
    CommitBatch {
        epoch: u64,
        commits: Vec<(TransactionId, Timestamp)>,
        aborts: Vec<TransactionId>,
    },
    /// Membership: admit a brand-new site at `addr` into the cluster
    /// (served by coordinators). The coordinator allocates replica copies
    /// in the placement catalog and marks the site down-and-joining; the
    /// site then bootstraps via the ordinary recovery path and goes votable
    /// through the Fig 5-4 [`Request::RecComingOnline`] handshake.
    JoinSite {
        site: SiteId,
        addr: String,
    },
    /// Membership: gracefully retire `site` (served by coordinators). The
    /// coordinator drains the site from in-flight commit epochs, drops its
    /// copies from the placement catalog (refusing if any object would lose
    /// its last copy), and removes it from the address book.
    DecommissionSite {
        site: SiteId,
    },
}

/// Worker-visible transaction state, for consensus (§4.3.3 / Table 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireTxnState {
    Unknown,
    Pending,
    PreparedVotedYes,
    PreparedVotedNo,
    PreparedToCommit(Timestamp),
    Committed(Timestamp),
    Aborted,
}

/// Responses from a worker/coordinator server.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    Ok,
    Ack,
    Vote {
        yes: bool,
    },
    Time {
        now: Timestamp,
    },
    TxnState {
        state: WireTxnState,
    },
    /// One batch of a streamed scan; `done` marks the last batch.
    Tuples {
        batch: Vec<Tuple>,
        done: bool,
    },
    /// Fig 5-4's "all done" from the coordinator to the recovering site.
    AllDone,
    /// The sender's failure, as [`DbError`]'s own wire encoding carries it.
    Err(DbError),
    /// Per-segment `(tmin_insert, tmax_insert, tmax_delete, pages)`
    /// directory bounds, oldest segment first. The page count lets the
    /// recovering site weight its ranged catch-up queries by data volume.
    SegmentBounds {
        segments: Vec<(Timestamp, Timestamp, Timestamp, u64)>,
    },
    /// Per-txn vote vector answering [`Request::PrepareBatch`], in the
    /// request's txn order. A NO vote aborts only that transaction.
    VoteBatch {
        votes: Vec<(TransactionId, bool)>,
    },
    /// Per-txn acks answering [`Request::CommitBatch`]: every txn this
    /// worker applied (committed or aborted) during the wave.
    AckBatch {
        acked: Vec<TransactionId>,
    },
}

/// Wire tag of [`Request::Begin`].
const BEGIN_TAG: u8 = 0;
/// Wire tag of [`Request::Update`].
const UPDATE_TAG: u8 = 1;
/// Wire tag of [`Request::LastUpdate`]: the frame is this tag, the frame of
/// the statement as a [`Request::Update`], and the PREPARE's participant
/// list and time bound as a trailer.
const LAST_UPDATE_TAG: u8 = 19;

impl Request {
    /// The frame of `Request::Begin { tid, first }`, given the frame of
    /// `first`: the marker is a prefix, so a request encoded once for a
    /// whole round is marked for the sites that need it without being
    /// encoded again.
    pub fn mark_beginning(tid: TransactionId, first: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(9 + first.len());
        frame.push(BEGIN_TAG);
        frame.extend_from_slice(&tid.0.to_le_bytes());
        frame.extend_from_slice(first);
        frame
    }
}

impl Wire for Request {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Request::Begin { tid, first } => {
                enc.put_u8(BEGIN_TAG);
                enc.put_u64(tid.0);
                first.encode(enc);
            }
            Request::Update { tid, req } => {
                enc.put_u8(UPDATE_TAG);
                enc.put_u64(tid.0);
                req.encode(enc);
            }
            Request::LastUpdate {
                tid,
                req,
                workers,
                time_bound,
            } => {
                enc.put_u8(LAST_UPDATE_TAG);
                enc.put_u8(UPDATE_TAG);
                enc.put_u64(tid.0);
                req.encode(enc);
                put_sites(enc, workers);
                enc.put_u64(time_bound.0);
            }
            Request::Prepare {
                tid,
                workers,
                time_bound,
            } => {
                enc.put_u8(2);
                enc.put_u64(tid.0);
                put_sites(enc, workers);
                enc.put_u64(time_bound.0);
            }
            Request::PrepareToCommit { tid, commit_time } => {
                enc.put_u8(3);
                enc.put_u64(tid.0);
                enc.put_u64(commit_time.0);
            }
            Request::Commit { tid, commit_time } => {
                enc.put_u8(4);
                enc.put_u64(tid.0);
                enc.put_u64(commit_time.0);
            }
            Request::Abort { tid } => {
                enc.put_u8(5);
                enc.put_u64(tid.0);
            }
            Request::Scan(s) => {
                enc.put_u8(6);
                s.encode(enc);
            }
            Request::AcquireTableLock { tid, table } => {
                enc.put_u8(7);
                enc.put_u64(tid.0);
                enc.put_str(table);
            }
            Request::ReleaseTableLock { tid, table } => {
                enc.put_u8(8);
                enc.put_u64(tid.0);
                enc.put_str(table);
            }
            Request::QueryTxnState { tid } => {
                enc.put_u8(9);
                enc.put_u64(tid.0);
            }
            Request::Ping => enc.put_u8(10),
            Request::GetTime => enc.put_u8(11),
            Request::RecComingOnline { site, table } => {
                enc.put_u8(12);
                enc.put_u16(site.0);
                enc.put_str(table);
            }
            Request::SegmentBounds { table } => {
                enc.put_u8(13);
                enc.put_str(table);
            }
            Request::PrepareBatch {
                epoch,
                txns,
                time_bound,
            } => {
                enc.put_u8(15);
                enc.put_u64(*epoch);
                enc.put_u32(txns.len() as u32);
                for (tid, workers) in txns {
                    enc.put_u64(tid.0);
                    put_sites(enc, workers);
                }
                enc.put_u64(time_bound.0);
            }
            Request::CommitBatch {
                epoch,
                commits,
                aborts,
            } => {
                enc.put_u8(16);
                enc.put_u64(*epoch);
                enc.put_u32(commits.len() as u32);
                for (tid, commit_time) in commits {
                    enc.put_u64(tid.0);
                    enc.put_u64(commit_time.0);
                }
                enc.put_u32(aborts.len() as u32);
                for tid in aborts {
                    enc.put_u64(tid.0);
                }
            }
            Request::JoinSite { site, addr } => {
                enc.put_u8(17);
                enc.put_u16(site.0);
                enc.put_str(addr);
            }
            Request::DecommissionSite { site } => {
                enc.put_u8(18);
                enc.put_u16(site.0);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        let tag = dec.get_u8()?;
        if tag != BEGIN_TAG {
            return Self::decode_unmarked(tag, dec);
        }
        // One marker, then a plain request: a frame cannot nest markers, so
        // decoding never recurses.
        let tid = TransactionId(dec.get_u64()?);
        let first = Self::decode_unmarked(dec.get_u8()?, dec)?;
        Ok(Request::Begin {
            tid,
            first: Box::new(first),
        })
    }
}

impl Request {
    /// Decodes the body of any request but [`Request::Begin`].
    fn decode_unmarked(tag: u8, dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(match tag {
            UPDATE_TAG => Request::Update {
                tid: TransactionId(dec.get_u64()?),
                req: UpdateRequest::decode(dec)?,
            },
            LAST_UPDATE_TAG => {
                // The trailer rides on a statement and on nothing else: what
                // follows the tag is read as one, never decoded as a request.
                let riding_on = dec.get_u8()?;
                if riding_on != UPDATE_TAG {
                    return Err(DbError::corrupt(format!(
                        "a PREPARE rides a statement, not request tag {riding_on}"
                    )));
                }
                Request::LastUpdate {
                    tid: TransactionId(dec.get_u64()?),
                    req: UpdateRequest::decode(dec)?,
                    workers: get_sites(dec)?,
                    time_bound: Timestamp(dec.get_u64()?),
                }
            }
            2 => Request::Prepare {
                tid: TransactionId(dec.get_u64()?),
                workers: get_sites(dec)?,
                time_bound: Timestamp(dec.get_u64()?),
            },
            3 => Request::PrepareToCommit {
                tid: TransactionId(dec.get_u64()?),
                commit_time: Timestamp(dec.get_u64()?),
            },
            4 => Request::Commit {
                tid: TransactionId(dec.get_u64()?),
                commit_time: Timestamp(dec.get_u64()?),
            },
            5 => Request::Abort {
                tid: TransactionId(dec.get_u64()?),
            },
            6 => Request::Scan(RemoteScan::decode(dec)?),
            7 => Request::AcquireTableLock {
                tid: TransactionId(dec.get_u64()?),
                table: dec.get_str()?,
            },
            8 => Request::ReleaseTableLock {
                tid: TransactionId(dec.get_u64()?),
                table: dec.get_str()?,
            },
            9 => Request::QueryTxnState {
                tid: TransactionId(dec.get_u64()?),
            },
            10 => Request::Ping,
            11 => Request::GetTime,
            12 => Request::RecComingOnline {
                site: SiteId(dec.get_u16()?),
                table: dec.get_str()?,
            },
            13 => Request::SegmentBounds {
                table: dec.get_str()?,
            },
            15 => {
                let epoch = dec.get_u64()?;
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut txns = Vec::with_capacity(n);
                for _ in 0..n {
                    txns.push((TransactionId(dec.get_u64()?), get_sites(dec)?));
                }
                Request::PrepareBatch {
                    epoch,
                    txns,
                    time_bound: Timestamp(dec.get_u64()?),
                }
            }
            16 => {
                let epoch = dec.get_u64()?;
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut commits = Vec::with_capacity(n);
                for _ in 0..n {
                    commits.push((TransactionId(dec.get_u64()?), Timestamp(dec.get_u64()?)));
                }
                let m = dec.get_u32()? as usize;
                let m = checked_count(dec, m)?;
                let mut aborts = Vec::with_capacity(m);
                for _ in 0..m {
                    aborts.push(TransactionId(dec.get_u64()?));
                }
                Request::CommitBatch {
                    epoch,
                    commits,
                    aborts,
                }
            }
            17 => Request::JoinSite {
                site: SiteId(dec.get_u16()?),
                addr: dec.get_str()?,
            },
            18 => Request::DecommissionSite {
                site: SiteId(dec.get_u16()?),
            },
            t => return Err(DbError::corrupt(format!("bad request tag {t}"))),
        })
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

impl Wire for Response {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Response::Ok => enc.put_u8(0),
            Response::Ack => enc.put_u8(1),
            Response::Vote { yes } => {
                enc.put_u8(2);
                enc.put_bool(*yes);
            }
            Response::Time { now } => {
                enc.put_u8(3);
                enc.put_u64(now.0);
            }
            Response::TxnState { state } => {
                enc.put_u8(4);
                match state {
                    WireTxnState::Unknown => enc.put_u8(0),
                    WireTxnState::Pending => enc.put_u8(1),
                    WireTxnState::PreparedVotedYes => enc.put_u8(2),
                    WireTxnState::PreparedVotedNo => enc.put_u8(3),
                    WireTxnState::PreparedToCommit(t) => {
                        enc.put_u8(4);
                        enc.put_u64(t.0);
                    }
                    WireTxnState::Committed(t) => {
                        enc.put_u8(5);
                        enc.put_u64(t.0);
                    }
                    WireTxnState::Aborted => enc.put_u8(6),
                }
            }
            Response::Tuples { batch, done } => {
                enc.put_u8(5);
                enc.put_bool(*done);
                enc.put_u32(batch.len() as u32);
                for t in batch {
                    t.write_wire(enc);
                }
            }
            Response::AllDone => enc.put_u8(6),
            Response::Err(e) => {
                enc.put_u8(7);
                e.encode(enc);
            }
            Response::SegmentBounds { segments } => {
                enc.put_u8(8);
                enc.put_u32(segments.len() as u32);
                for (tmin_ins, tmax_ins, tmax_del, pages) in segments {
                    enc.put_u64(tmin_ins.0);
                    enc.put_u64(tmax_ins.0);
                    enc.put_u64(tmax_del.0);
                    enc.put_u64(*pages);
                }
            }
            Response::VoteBatch { votes } => {
                enc.put_u8(9);
                enc.put_u32(votes.len() as u32);
                for (tid, yes) in votes {
                    enc.put_u64(tid.0);
                    enc.put_bool(*yes);
                }
            }
            Response::AckBatch { acked } => {
                enc.put_u8(10);
                enc.put_u32(acked.len() as u32);
                for tid in acked {
                    enc.put_u64(tid.0);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(match dec.get_u8()? {
            0 => Response::Ok,
            1 => Response::Ack,
            2 => Response::Vote {
                yes: dec.get_bool()?,
            },
            3 => Response::Time {
                now: Timestamp(dec.get_u64()?),
            },
            4 => Response::TxnState {
                state: match dec.get_u8()? {
                    0 => WireTxnState::Unknown,
                    1 => WireTxnState::Pending,
                    2 => WireTxnState::PreparedVotedYes,
                    3 => WireTxnState::PreparedVotedNo,
                    4 => WireTxnState::PreparedToCommit(Timestamp(dec.get_u64()?)),
                    5 => WireTxnState::Committed(Timestamp(dec.get_u64()?)),
                    6 => WireTxnState::Aborted,
                    t => return Err(DbError::corrupt(format!("bad txn state tag {t}"))),
                },
            },
            5 => {
                let done = dec.get_bool()?;
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    batch.push(Tuple::read_wire(dec)?);
                }
                Response::Tuples { batch, done }
            }
            6 => Response::AllDone,
            7 => Response::Err(DbError::decode(dec)?),
            8 => {
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut segments = Vec::with_capacity(n);
                for _ in 0..n {
                    segments.push((
                        Timestamp(dec.get_u64()?),
                        Timestamp(dec.get_u64()?),
                        Timestamp(dec.get_u64()?),
                        dec.get_u64()?,
                    ));
                }
                Response::SegmentBounds { segments }
            }
            9 => {
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut votes = Vec::with_capacity(n);
                for _ in 0..n {
                    votes.push((TransactionId(dec.get_u64()?), dec.get_bool()?));
                }
                Response::VoteBatch { votes }
            }
            10 => {
                let n = dec.get_u32()? as usize;
                let n = checked_count(dec, n)?;
                let mut acked = Vec::with_capacity(n);
                for _ in 0..n {
                    acked.push(TransactionId(dec.get_u64()?));
                }
                Response::AckBatch { acked }
            }
            t => return Err(DbError::corrupt(format!("bad response tag {t}"))),
        })
    }
}

/// Incrementally built, pre-framed `Response::Tuples` message.
///
/// The scan service (`worker::ship_scan`) transcodes admitted rows from page
/// bytes straight into this buffer; `finish` patches the frame length, done
/// flag, and row count once the batch is complete. The output is byte-identical
/// to `Response::Tuples { batch, done }.to_framed_vec()` (asserted by the
/// wire tests), so the receiving side needs no changes.
pub struct TuplesFrameBuilder {
    enc: Encoder,
    rows: u32,
}

// Byte offsets within the frame: [0..4] length prefix, [4] response tag,
// [5] done flag, [6..10] row count, [10..] wire tuples.
const TUPLES_DONE_OFFSET: usize = 5;
const TUPLES_COUNT_OFFSET: usize = 6;

impl TuplesFrameBuilder {
    pub fn new() -> Self {
        let mut enc = Encoder::new();
        enc.put_u32(0); // frame length, patched in finish()
        enc.put_u8(5); // Response::Tuples tag
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

    /// Finalizes into a pre-framed buffer ready for `send_framed`.
    pub fn finish(mut self, done: bool) -> Vec<u8> {
        let len = (self.enc.len() - 4) as u32;
        self.enc.patch_u32(0, len);
        self.enc.patch_u32(TUPLES_COUNT_OFFSET, self.rows);
        let mut bytes = self.enc.into_bytes();
        bytes[TUPLES_DONE_OFFSET] = done as u8;
        bytes
    }
}

impl Default for TuplesFrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(r: Request) {
        let bytes = r.to_vec();
        assert_eq!(Request::from_slice(&bytes).unwrap(), r);
    }

    fn round_trip_resp(r: Response) {
        let bytes = r.to_vec();
        assert_eq!(Response::from_slice(&bytes).unwrap(), r);
    }

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
            let mut b = TuplesFrameBuilder::new();
            for t in &batch {
                t.write_wire(b.encoder());
                b.note_row();
            }
            let built = b.finish(done);
            let reference = Response::Tuples {
                batch: batch.clone(),
                done,
            }
            .to_framed_vec();
            assert_eq!(built, reference);
        }
        // Empty final frame (every stream ends with one).
        assert_eq!(
            TuplesFrameBuilder::new().finish(true),
            Response::Tuples {
                batch: vec![],
                done: true
            }
            .to_framed_vec()
        );
    }

    #[test]
    fn requests_round_trip() {
        let tid = TransactionId::from_parts(SiteId(1), 7);
        let insert = Request::Update {
            tid,
            req: UpdateRequest::Insert {
                table: "sales".into(),
                values: vec![Value::Int64(1), Value::Int32(2), Value::Str("x".into())],
            },
        };
        round_trip_req(insert.clone());
        let marked = Request::Begin {
            tid,
            first: Box::new(insert.clone()),
        };
        let frame = Request::mark_beginning(tid, &insert.to_vec());
        assert_eq!(marked.to_vec(), frame);
        round_trip_req(marked);
        // A marker inside a marker is not a frame.
        assert!(Request::from_slice(&Request::mark_beginning(tid, &frame)).is_err());
        let Request::Update { req, .. } = insert else {
            unreachable!()
        };
        let last = Request::LastUpdate {
            tid,
            req,
            workers: vec![SiteId(1), SiteId(2)],
            time_bound: Timestamp(99),
        };
        round_trip_req(last.clone());
        round_trip_req(Request::Begin {
            tid,
            first: Box::new(last),
        });
        round_trip_req(Request::Update {
            tid,
            req: UpdateRequest::UpdateByKey {
                table: "sales".into(),
                key: 42,
                set: vec![(1, Value::Int32(9))],
            },
        });
        round_trip_req(Request::Update {
            tid,
            req: UpdateRequest::DeleteWhere {
                table: "sales".into(),
                pred: Expr::col(2).eq(Expr::lit(5i64)),
            },
        });
        round_trip_req(Request::Prepare {
            tid,
            workers: vec![SiteId(1), SiteId(2), SiteId(3)],
            time_bound: Timestamp(99),
        });
        round_trip_req(Request::PrepareToCommit {
            tid,
            commit_time: Timestamp(100),
        });
        round_trip_req(Request::Commit {
            tid,
            commit_time: Timestamp(100),
        });
        round_trip_req(Request::Abort { tid });
        round_trip_req(Request::AcquireTableLock {
            tid,
            table: "sales".into(),
        });
        round_trip_req(Request::QueryTxnState { tid });
        round_trip_req(Request::Ping);
        round_trip_req(Request::GetTime);
        round_trip_req(Request::RecComingOnline {
            site: SiteId(3),
            table: "sales".into(),
        });
        round_trip_req(Request::SegmentBounds {
            table: "sales".into(),
        });
        let tid2 = TransactionId::from_parts(SiteId(1), 8);
        round_trip_req(Request::PrepareBatch {
            epoch: 3,
            txns: vec![(tid, vec![SiteId(1), SiteId(2)]), (tid2, vec![SiteId(2)])],
            time_bound: Timestamp(99),
        });
        round_trip_req(Request::PrepareBatch {
            epoch: 0,
            txns: vec![],
            time_bound: Timestamp::ZERO,
        });
        round_trip_req(Request::CommitBatch {
            epoch: 3,
            commits: vec![(tid, Timestamp(100)), (tid2, Timestamp(101))],
            aborts: vec![TransactionId::from_parts(SiteId(1), 9)],
        });
        round_trip_req(Request::CommitBatch {
            epoch: 4,
            commits: vec![],
            aborts: vec![],
        });
        round_trip_req(Request::JoinSite {
            site: SiteId(7),
            addr: "127.0.0.1:4077".into(),
        });
        round_trip_req(Request::DecommissionSite { site: SiteId(7) });
    }

    #[test]
    fn scans_round_trip() {
        let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(10)));
        scan.predicate = Some(Expr::col(2).lt(Expr::lit(5000i64)));
        scan.ins_after = Some(Timestamp(4));
        scan.ins_at_or_before = Some(Timestamp(10));
        scan.del_after = Some(Timestamp(4));
        scan.ids_and_deletions_only = true;
        round_trip_req(Request::Scan(scan));
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
            matches!(&err, DbError::Corrupt(m) if m.contains("request tag 14")),
            "{err}"
        );
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Ok);
        round_trip_resp(Response::Vote { yes: false });
        round_trip_resp(Response::Time {
            now: Timestamp(123),
        });
        round_trip_resp(Response::TxnState {
            state: WireTxnState::PreparedToCommit(Timestamp(9)),
        });
        round_trip_resp(Response::TxnState {
            state: WireTxnState::Committed(Timestamp(11)),
        });
        round_trip_resp(Response::Tuples {
            batch: vec![Tuple::new(vec![Value::Int64(1), Value::Time(Timestamp(2))])],
            done: true,
        });
        round_trip_resp(Response::AllDone);
        round_trip_resp(Response::Err(DbError::Constraint("boom".into())));
        round_trip_resp(Response::SegmentBounds { segments: vec![] });
        round_trip_resp(Response::SegmentBounds {
            segments: vec![
                (Timestamp(1), Timestamp(5), Timestamp(3), 16),
                (Timestamp(6), Timestamp(9), Timestamp(0), 4),
            ],
        });
        let tid = TransactionId::from_parts(SiteId(1), 7);
        let tid2 = TransactionId::from_parts(SiteId(1), 8);
        round_trip_resp(Response::VoteBatch {
            votes: vec![(tid, true), (tid2, false)],
        });
        round_trip_resp(Response::VoteBatch { votes: vec![] });
        round_trip_resp(Response::AckBatch {
            acked: vec![tid, tid2],
        });
        round_trip_resp(Response::AckBatch { acked: vec![] });
    }
}
