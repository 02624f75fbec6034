//! Golden frames: one value of every variant of every type that crosses a
//! wire or reaches a disk, compared byte for byte with a hex literal
//! captured from the commit before the layouts moved into one declaration
//! per type, and decoded back to the value. Round-trip tests hold encode
//! and decode to each other; only this holds both to the format.

use harbor::{quarantine_site, recover_object, recover_site, RecoveryContext, ScrubReport};
use harbor_common::codec::Wire;
use harbor_common::config::PAGE_SIZE;
use harbor_common::{
    DbError, DbResult, DiskProfile, FieldType, Metrics, PageId, RecordId, SiteId, StorageConfig,
    TableId, Timestamp, TransactionId, Tuple, Value,
};
use harbor_dist::{
    Coordinator, CoordinatorConfig, Placement, ProtocolKind, RemoteScan, Request, Response,
    UpdateRequest, WireReadMode, WireTxnState, Worker, WorkerConfig,
};
use harbor_engine::{Catalog, Engine, EngineOptions};
use harbor_exec::expr::{ArithOp, CmpOp, Expr};
use harbor_front::{FrontReply, FrontRequest};
use harbor_net::{Channel, InMemNetwork, Listener, Transport};
use harbor_storage::{CheckpointRecord, Directory, TableFile};
use harbor_wal::record::{CkptTxnState, LogPayload, LogRecord, RedoOp, TsField, TxnOutcome};
use harbor_wal::Lsn;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// `value` encodes to exactly `golden`, and `golden` decodes to `arrives`.
fn crosses_as<T: Wire + PartialEq + Debug>(value: &T, arrives: &T, golden: &str) {
    assert_eq!(hex(&value.to_vec()), golden, "encoding of {value:?}");
    assert_eq!(
        &T::from_slice(&unhex(golden)).expect("golden bytes decode"),
        arrives,
        "decoding of {golden}"
    );
}

fn golden<T: Wire + PartialEq + Debug>(value: T, golden: &str) {
    crosses_as(&value, &value, golden);
}

const TID: TransactionId = TransactionId(0x0001_0000_0000_002a);
const TID2: TransactionId = TransactionId(0x0001_0000_0000_002b);

fn pred() -> Expr {
    Expr::col(2).lt(Expr::lit(5000i64))
}

fn set() -> Vec<(u16, Value)> {
    vec![(1, Value::Int32(9)), (2, Value::Str("z".into()))]
}

fn insert() -> UpdateRequest {
    UpdateRequest::Insert {
        table: "sales".into(),
        values: vec![
            Value::Int64(7),
            Value::Int32(-1),
            Value::Time(Timestamp(3)),
            Value::Str("xé".into()),
        ],
    }
}

fn update_requests() -> Vec<(UpdateRequest, &'static str)> {
    vec![
        (
            insert(),
            "000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9",
        ),
        (
            UpdateRequest::InsertMany {
                table: "t".into(),
                rows: vec![vec![Value::Int64(1), Value::Int32(2)], vec![Value::Int64(3)]],
            },
            "0101000000740200000002000000010100000000000000000200000001000000010300000000000000",
        ),
        (
            UpdateRequest::DeleteWhere {
                table: "sales".into(),
                pred: pred(),
            },
            "020500000073616c65730202000200000001018813000000000000",
        ),
        (
            UpdateRequest::UpdateByKey {
                table: "sales".into(),
                key: -42,
                set: set(),
            },
            "030500000073616c6573d6ffffffffffffff0200000001000009000000020003010000007a",
        ),
        (
            UpdateRequest::UpdateWhere {
                table: "sales".into(),
                pred: pred(),
                set: set(),
            },
            "040500000073616c657302020002000000010188130000000000000200000001000009000000020003010000007a",
        ),
        (
            UpdateRequest::SimulateWork { cycles: 1 << 40 },
            "050000000000010000",
        ),
    ]
}

#[test]
fn update_requests_are_byte_identical() {
    for (req, bytes) in update_requests() {
        golden(req, bytes);
    }
}

#[test]
fn expressions_are_byte_identical() {
    let b = |e: Expr| Box::new(e);
    // Every node kind, every operator.
    golden(Expr::Col(70_000), "0070110100");
    golden(Expr::lit("s"), "01030100000073");
    for (op, bytes) in [
        (CmpOp::Eq, "02000000000000010001000000"),
        (CmpOp::Ne, "02010000000000010001000000"),
        (CmpOp::Lt, "02020000000000010001000000"),
        (CmpOp::Le, "02030000000000010001000000"),
        (CmpOp::Gt, "02040000000000010001000000"),
        (CmpOp::Ge, "02050000000000010001000000"),
    ] {
        golden(Expr::Cmp(op, b(Expr::col(0)), b(Expr::lit(1))), bytes);
    }
    for (op, bytes) in [
        (ArithOp::Add, "0300000300000001010200000000000000"),
        (ArithOp::Sub, "0301000300000001010200000000000000"),
        (ArithOp::Mul, "0302000300000001010200000000000000"),
        (ArithOp::Div, "0303000300000001010200000000000000"),
        (ArithOp::Mod, "0304000300000001010200000000000000"),
    ] {
        golden(Expr::Arith(op, b(Expr::col(3)), b(Expr::lit(2i64))), bytes);
    }
    golden(
        pred()
            .and(Expr::col(0).ge(Expr::time(Timestamp(4))))
            .or(pred().not()),
        "050402020002000000010188130000000000000205000000000001020400000000000000060202000200000001018813000000000000",
    );
}

fn scan() -> RemoteScan {
    let mut scan = RemoteScan::new("sales", WireReadMode::SeeDeletedHistorical(Timestamp(90)));
    scan.predicate = Some(pred());
    scan.ins_at_or_before = Some(Timestamp(90));
    scan.ins_after = Some(Timestamp(10));
    scan.ids_and_deletions_only = true;
    scan
}

fn requests() -> Vec<(Request, &'static str)> {
    let sites = || vec![SiteId(1), SiteId(2), SiteId(0x0103)];
    let update = Request::Update {
        tid: TID,
        req: insert(),
    };
    let last = Request::LastUpdate {
        tid: TID,
        req: insert(),
        workers: sites(),
        time_bound: Timestamp(41),
    };
    let mut bare_scan = RemoteScan::new("t", WireReadMode::Historical(Timestamp(5)));
    bare_scan.del_after = Some(Timestamp(2));
    vec![
        (
            Request::Begin {
                tid: TID,
                first: Box::new(update.clone()),
            },
            "002a00000000000100012a00000000000100000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9",
        ),
        (
            Request::Begin {
                tid: TID,
                first: Box::new(last.clone()),
            },
            "002a0000000000010013012a00000000000100000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9030000000100020003012900000000000000",
        ),
        (update, "012a00000000000100000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9"),
        (last, "13012a00000000000100000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9030000000100020003012900000000000000"),
        (
            Request::Prepare {
                tid: TID,
                workers: sites(),
                time_bound: Timestamp(41),
            },
            "022a00000000000100030000000100020003012900000000000000",
        ),
        (
            Request::PrepareToCommit {
                tid: TID,
                commit_time: Timestamp(42),
            },
            "032a000000000001002a00000000000000",
        ),
        (
            Request::Commit {
                tid: TID,
                commit_time: Timestamp(42),
            },
            "042a000000000001002a00000000000000",
        ),
        (Request::Abort { tid: TID }, "052a00000000000100"),
        (Request::Scan(scan()), "060500000073616c6573015a00000000000000010202000200000001018813000000000000015a00000000000000010a000000000000000001"),
        (Request::Scan(bare_scan), "06010000007400050000000000000000000001020000000000000000"),
        (
            Request::Scan(RemoteScan::new(
                "t",
                WireReadMode::SeeDeletedLocked(TID),
            )),
            "060100000074022a000000000001000000000000",
        ),
        (
            Request::Scan(RemoteScan::new("t", WireReadMode::Current(TID2))),
            "060100000074032b000000000001000000000000",
        ),
        (
            Request::AcquireTableLock {
                tid: TID,
                table: "sales".into(),
            },
            "072a000000000001000500000073616c6573",
        ),
        (
            Request::ReleaseTableLock {
                tid: TID,
                table: "sales".into(),
            },
            "082a000000000001000500000073616c6573",
        ),
        (Request::QueryTxnState { tid: TID }, "092a00000000000100"),
        (Request::Ping, "0a"),
        (Request::GetTime, "0b"),
        (
            Request::RecComingOnline {
                site: SiteId(2),
                table: "sales".into(),
            },
            "0c02000500000073616c6573",
        ),
        (
            Request::SegmentBounds {
                table: "sales".into(),
            },
            "0d0500000073616c6573",
        ),
        (
            Request::PrepareBatch {
                epoch: 12,
                txns: vec![(TID, sites()), (TID2, vec![SiteId(2)])],
                time_bound: Timestamp(41),
            },
            "0f0c00000000000000020000002a00000000000100030000000100020003012b000000000001000100000002002900000000000000",
        ),
        (
            Request::CommitBatch {
                epoch: 12,
                commits: vec![(TID, Timestamp(42))],
                aborts: vec![TID2],
            },
            "100c00000000000000010000002a000000000001002a00000000000000010000002b00000000000100",
        ),
        (
            Request::JoinSite {
                site: SiteId(7),
                addr: "127.0.0.1:4077".into(),
            },
            "1107000e0000003132372e302e302e313a34303737",
        ),
        (
            Request::DecommissionSite { site: SiteId(7) },
            "120700",
        ),
    ]
}

#[test]
fn requests_are_byte_identical() {
    for (req, bytes) in requests() {
        golden(req, bytes);
    }
    // The marker is a prefix of the marked request's own frame.
    let (update, frame) = &requests()[2];
    assert_eq!(
        hex(&Request::mark_beginning(TID, &update.to_vec())),
        requests()[0].1,
        "marking {frame}"
    );
}

/// One error of every variant (the shape of `codec_prop`'s `every_error`),
/// what arrives when it crosses, and its frame.
fn errors() -> Vec<(DbError, DbError, &'static str)> {
    let m = || "T3.p7 — nope".to_string();
    let page = PageId::new(TableId(3), 7);
    let link = |e: DbError, bytes| {
        let arrives = DbError::Protocol(e.to_string());
        (e, arrives, bytes)
    };
    let plain = |e: DbError, bytes| (e.clone(), e, bytes);
    vec![
        link(
            DbError::from(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, m())),
            "0518000000696f206572726f723a2054332e703720e28094206e6f7065",
        ),
        link(
            DbError::Net(m()),
            "051d0000006e6574776f726b206572726f723a2054332e703720e28094206e6f7065",
        ),
        link(
            DbError::SiteDown(m()),
            "05190000007369746520646f776e3a2054332e703720e28094206e6f7065",
        ),
        link(
            DbError::SiteUnavailable(m()),
            "05200000007369746520756e617661696c61626c653a2054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::LockTimeout {
                txn: TID,
                what: m(),
            },
            "090e00000054332e703720e28094206e6f70652a00000000000100",
        ),
        plain(DbError::TransactionAborted(TID), "0b2a00000000000100"),
        plain(DbError::UnknownTransaction(TID), "0c2a00000000000100"),
        plain(DbError::NoSuchTable(TableId(3)), "0d03000000"),
        plain(DbError::NoSuchPage(page), "0e0300000007000000"),
        plain(
            DbError::NoSuchRecord(RecordId::new(page, 0x0201)),
            "0f03000000070000000102",
        ),
        plain(
            DbError::Corrupt(m()),
            "000e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::CorruptPage {
                table: TableId(3),
                page: 7,
            },
            "100300000007000000",
        ),
        plain(DbError::Full(m()), "010e00000054332e703720e28094206e6f7065"),
        plain(
            DbError::Timeout(m()),
            "020e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Protocol(m()),
            "050e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Schema(m()),
            "030e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Constraint(m()),
            "040e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Unrecoverable(m()),
            "060e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Degraded(m()),
            "070e00000054332e703720e28094206e6f7065",
        ),
        plain(
            DbError::Overloaded { retry_after_ms: 40 },
            "112800000000000000",
        ),
        plain(
            DbError::BeginRefused { tid: TID, why: m() },
            "0a0e00000054332e703720e28094206e6f70652a00000000000100",
        ),
        plain(
            DbError::Internal(m()),
            "080e00000054332e703720e28094206e6f7065",
        ),
    ]
}

#[test]
fn errors_are_byte_identical() {
    for (e, arrives, bytes) in errors() {
        crosses_as(&e, &arrives, bytes);
    }
}

#[test]
fn responses_are_byte_identical() {
    golden(Response::Ok, "00");
    golden(Response::Ack, "01");
    golden(Response::Vote { yes: true }, "0201");
    golden(Response::Vote { yes: false }, "0200");
    golden(Response::Time { now: Timestamp(99) }, "036300000000000000");
    for (state, bytes) in [
        (WireTxnState::Unknown, "0400"),
        (WireTxnState::Pending, "0401"),
        (WireTxnState::PreparedVotedYes, "0402"),
        (WireTxnState::PreparedVotedNo, "0403"),
        (
            WireTxnState::PreparedToCommit(Timestamp(17)),
            "04041100000000000000",
        ),
        (
            WireTxnState::Committed(Timestamp(18)),
            "04051200000000000000",
        ),
        (WireTxnState::Aborted, "0406"),
    ] {
        golden(Response::TxnState { state }, bytes);
    }
    golden(
        Response::Tuples {
            batch: vec![
                Tuple::versioned(
                    Timestamp(3),
                    Timestamp::ZERO,
                    vec![Value::Int64(1), Value::Int32(5), Value::Str("ab".into())],
                ),
                Tuple::new(vec![Value::Int64(2), Value::Time(Timestamp(9))]),
            ],
            done: false,
        },
        "05000200000005000203000000000000000200000000000000000101000000000000000005000000030200000061620200010200000000000000020900000000000000",
    );
    golden(
        Response::Tuples {
            batch: vec![],
            done: true,
        },
        "050100000000",
    );
    golden(Response::AllDone, "06");
    golden(
        Response::Err(DbError::Constraint("boom".into())),
        "070404000000626f6f6d",
    );
    golden(
        Response::SegmentBounds {
            segments: vec![
                (Timestamp(1), Timestamp(8), Timestamp(6), 128),
                (Timestamp(9), Timestamp(12), Timestamp(0), 4),
            ],
        },
        "0802000000010000000000000008000000000000000600000000000000800000000000000009000000000000000c0000000000000000000000000000000400000000000000",
    );
    golden(
        Response::VoteBatch {
            votes: vec![(TID, true), (TID2, false)],
        },
        "09020000002a00000000000100012b0000000000010000",
    );
    golden(
        Response::AckBatch {
            acked: vec![TID, TID2],
        },
        "0a020000002a000000000001002b00000000000100",
    );
}

#[test]
fn front_door_frames_are_byte_identical() {
    golden(FrontRequest::Ping, "00");
    golden(
        FrontRequest::Txn {
            client: 3,
            req: 41,
            deadline_ms: 250,
            ops: vec![insert(), UpdateRequest::SimulateWork { cycles: 9 }],
        },
        "0103000000000000002900000000000000fa00000002000000000500000073616c65730400000001070000000000000000ffffffff020300000000000000030300000078c3a9050900000000000000",
    );
    golden(FrontReply::Pong, "00");
    golden(
        FrontReply::Committed {
            client: 3,
            req: 41,
            ts: Timestamp(99),
        },
        "01030000000000000029000000000000006300000000000000",
    );
    golden(
        FrontReply::Err {
            client: 3,
            req: 41,
            err: DbError::overloaded(40),
        },
        "0203000000000000002900000000000000112800000000000000",
    );
}

#[test]
fn log_records_are_byte_identical() {
    let rid = RecordId::new(PageId::new(TableId(3), 7), 2);
    let rec = |prev: Lsn, payload| LogRecord::new(TID, prev, payload);
    for (op, bytes) in [
        (
            RedoOp::InsertTuple {
                rid,
                data: vec![1, 2, 3],
            },
            "000300000007000000020003000000010203",
        ),
        (
            RedoOp::RemoveTuple { rid, data: vec![] },
            "010300000007000000020000000000",
        ),
        (
            RedoOp::SetTimestamp {
                rid,
                field: TsField::Insertion,
                old: Timestamp::UNCOMMITTED,
                new: Timestamp(42),
            },
            "020300000007000000020000ffffffffffffffff2a00000000000000",
        ),
        (
            RedoOp::SetTimestamp {
                rid,
                field: TsField::Deletion,
                old: Timestamp::ZERO,
                new: Timestamp(43),
            },
            "02030000000700000002000100000000000000002b00000000000000",
        ),
    ] {
        golden(op, bytes);
    }
    golden(
        rec(Lsn::NONE, LogPayload::Begin),
        "2a00000000000100ffffffffffffffff00",
    );
    golden(
        rec(
            Lsn(10),
            LogPayload::Update(RedoOp::InsertTuple {
                rid,
                data: vec![4, 5],
            }),
        ),
        "2a000000000001000a00000000000000010003000000070000000200020000000405",
    );
    golden(
        rec(
            Lsn(20),
            LogPayload::Clr {
                redo: RedoOp::RemoveTuple {
                    rid,
                    data: vec![4, 5],
                },
                undo_next: Lsn::NONE,
            },
        ),
        "2a000000000001001400000000000000020103000000070000000200020000000405ffffffffffffffff",
    );
    golden(
        rec(
            Lsn(30),
            LogPayload::Prepare {
                coordinator: SiteId(0x0102),
            },
        ),
        "2a000000000001001e00000000000000030201",
    );
    golden(
        rec(
            Lsn(40),
            LogPayload::PrepareToCommit {
                commit_time: Timestamp(78),
            },
        ),
        "2a000000000001002800000000000000084e00000000000000",
    );
    golden(
        rec(
            Lsn(45),
            LogPayload::Commit {
                commit_time: Timestamp(77),
            },
        ),
        "2a000000000001002d00000000000000044d00000000000000",
    );
    golden(
        rec(Lsn(50), LogPayload::Abort),
        "2a00000000000100320000000000000005",
    );
    golden(
        rec(
            Lsn(60),
            LogPayload::End {
                outcome: TxnOutcome::Committed,
            },
        ),
        "2a000000000001003c000000000000000600",
    );
    golden(
        rec(
            Lsn(61),
            LogPayload::End {
                outcome: TxnOutcome::Aborted,
            },
        ),
        "2a000000000001003d000000000000000601",
    );
    golden(
        rec(
            Lsn(70),
            LogPayload::Checkpoint {
                att: vec![
                    (TID, CkptTxnState::Active, Lsn(5)),
                    (TID2, CkptTxnState::Prepared, Lsn(6)),
                    (TransactionId(3), CkptTxnState::Committing, Lsn(7)),
                    (TransactionId(4), CkptTxnState::Aborting, Lsn::NONE),
                ],
                dpt: vec![(PageId::new(TableId(1), 2), Lsn(3))],
            },
        ),
        "2a00000000000100460000000000000007040000002a000000000001000005000000000000002b000000000001000106000000000000000300000000000000020700000000000000040000000000000003ffffffffffffffff0100000001000000020000000300000000000000",
    );
}

/// The file at `path` is exactly `golden`; leaves the golden bytes, not the
/// ones just written, there for the caller to read back.
fn file_is(path: &std::path::Path, golden: &str) {
    let bytes = std::fs::read(path).expect("read");
    assert_eq!(hex(&bytes), golden);
    std::fs::write(path, unhex(golden)).expect("write");
}

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("harbor-wire-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn catalog_file_is_byte_identical() {
    let path = temp("catalog");
    let cat = Catalog::open(&path, DiskProfile::fast()).expect("open");
    let sales = cat
        .add(
            "sales",
            vec![
                ("id".into(), FieldType::Int64),
                ("qty".into(), FieldType::Int32),
                ("at".into(), FieldType::Time),
                ("name".into(), FieldType::FixedStr(12)),
            ],
        )
        .expect("add");
    let returns = cat
        .add("returns", vec![("id".into(), FieldType::Int64)])
        .expect("add");
    drop(cat);
    file_is(&path, "4842435402000000010000000500000073616c65730400000002000000696401000003000000717479000000020000006174020000040000006e616d65030c00020000000700000072657475726e7301000000020000006964010000");
    assert_eq!(
        Catalog::open(&path, DiskProfile::fast())
            .expect("reopen")
            .all(),
        [sales, returns]
    );
    std::fs::remove_file(&path).expect("remove");
}

#[test]
fn checkpoint_record_is_byte_identical() {
    let path = temp("checkpoint");
    let mut rec = CheckpointRecord::default();
    rec.promote_global(Timestamp(40));
    rec.set_object(TableId(7), Timestamp(55));
    rec.set_object(TableId(9), Timestamp(41));
    rec.scan_start.insert(7, 3);
    rec.write(&path, DiskProfile::fast()).expect("write");
    file_is(&path, "4842434b280000000000000002000000070000003700000000000000090000002900000000000000010000000700000003000000");
    assert_eq!(CheckpointRecord::read(&path).expect("read"), rec);
    // A record that never checkpointed anything.
    CheckpointRecord::default()
        .write(&path, DiskProfile::fast())
        .expect("write");
    file_is(&path, "4842434b00000000000000000000000000000000");
    assert_eq!(
        CheckpointRecord::read(&path).expect("read"),
        CheckpointRecord::default()
    );
    std::fs::remove_file(&path).expect("remove");
}

/// A segment directory spilling onto a second header page: each header
/// page's header and first entry, its last entry, and its checksum trailer,
/// which covers every other byte of the page.
#[test]
fn directory_header_pages_are_byte_identical() {
    let path = temp("directory");
    let file = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).expect("create");
    let mut dir = Directory::create(&file, 76).expect("directory");
    // A header page holds 127 entries; the directory starts with one segment.
    for i in 0..134u64 {
        let page = dir.allocate_page().expect("allocate");
        dir.note_bounds(
            page,
            (Timestamp(i * 3 + 1), Timestamp(i * 5 + 2), Timestamp(i * 7)),
        );
        dir.create_segment(&file).expect("segment");
    }
    dir.persist(&file).expect("persist");
    for (page_no, entries, first, last, trailer) in [
        (
            0,
            127,
            "475342484c0000007f0080000000\
             0100000000000000020000000000000000000000000000000100000001000000",
            "7b01000000000000780200000000000072030000000000007f00000001000000",
            "5ccc96a5",
        ),
        (
            128,
            8,
            "475342484c000000080000000000\
             7e010000000000007d0200000000000079030000000000008100000001000000",
            "ffffffffffffffff000000000000000000000000000000008800000000000000",
            "03d73fa6",
        ),
    ] {
        let page = file.read_page(page_no).expect("read");
        let end = 14 + entries * 32;
        assert_eq!(hex(&page[..46]), first, "page {page_no}");
        assert_eq!(hex(&page[end - 32..end]), last, "page {page_no}");
        assert_eq!(hex(&page[PAGE_SIZE - 4..]), trailer, "page {page_no}");
    }
    let back = Directory::load(&file, 76).expect("load");
    assert_eq!(back.segments(), dir.segments());
    std::fs::remove_file(&path).expect("remove");
}

// ----------------------------------------------------------------------
// The scans recovery sends: §5.3's two queries as Phase 2 asks them
// (historical, one range each with one buddy), as Phase 3 asks them (under
// its table lock, from the HWM on), and again as the repair of a corrupt
// page asks them (from the rewound checkpoint), captured off the recovering
// site's connections.
// ----------------------------------------------------------------------

/// A transport that remembers every scan request sent on a connection it
/// opened.
struct ScanRecorder {
    inner: Arc<dyn Transport>,
    scans: Arc<Mutex<Vec<String>>>,
}

struct RecordedChannel {
    inner: Box<dyn Channel>,
    scans: Arc<Mutex<Vec<String>>>,
}

impl Transport for ScanRecorder {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        self.inner.listen(addr)
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        Ok(Box::new(RecordedChannel {
            inner: self.inner.connect(addr)?,
            scans: self.scans.clone(),
        }))
    }
}

impl Channel for RecordedChannel {
    fn send(&mut self, frame: &[u8]) -> DbResult<()> {
        if let Ok(Request::Scan(_)) = Request::from_slice(frame) {
            self.scans.lock().unwrap().push(hex(frame));
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: std::time::Duration) -> DbResult<Option<Vec<u8>>> {
        self.inner.recv_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

#[test]
fn recovery_scans_are_byte_identical() {
    let dir = temp("recovery-scans");
    let _ = std::fs::remove_dir_all(&dir);
    let net: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
    let sites = [SiteId(1), SiteId(2)];
    let addr = |site: SiteId| format!("golden-site-{}", site.0);
    let mut placement = Placement::new();
    placement.add_replicated_table("sales", &sites);
    placement.set_coordinator_addr("golden-coordinator");
    for site in sites {
        placement.set_address(site, &addr(site));
    }
    let start = |site: SiteId| {
        let engine = Engine::open(
            dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(site, StorageConfig::for_tests()),
        )
        .expect("open engine");
        if engine.table_def("sales").is_none() {
            let fields = vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
            ];
            engine.create_table("sales", fields).expect("create table");
        }
        let cfg = WorkerConfig {
            site,
            addr: addr(site),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: sites.iter().map(|s| (*s, addr(*s))).collect(),
            coordinator: None,
            auto_consensus: false,
            crash_schedule: Default::default(),
        };
        let worker = Worker::start(engine.clone(), net.clone(), cfg).expect("start worker");
        (worker, engine)
    };
    let (buddy, _buddy_engine) = start(SiteId(1));
    let (victim, victim_engine) = start(SiteId(2));
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: "golden-coordinator".into(),
            protocol: ProtocolKind::Opt3pc,
            log_dir: None,
            group_commit: harbor_wal::GroupCommit::enabled(),
            disk: DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            crash_schedule: Default::default(),
            epoch_commit: None,
            degrade_read_only: false,
        },
        placement.clone(),
        net.clone(),
        Metrics::new(),
    )
    .expect("start coordinator");
    let txn = |req: UpdateRequest| {
        let tid = coordinator.begin().expect("begin");
        coordinator.update(tid, req).expect("update");
        coordinator.commit(tid).expect("commit")
    };
    let insert = |id: i64| UpdateRequest::Insert {
        table: "sales".into(),
        values: vec![Value::Int64(id), Value::Int32(0)],
    };
    // Times 1–3 before the victim's checkpoint; an update of a row it has
    // checkpointed and two inserts, one of them while it is down, after.
    for id in 1..=3 {
        txn(insert(id));
    }
    victim_engine.checkpoint().expect("checkpoint");
    txn(UpdateRequest::UpdateByKey {
        table: "sales".into(),
        key: 1,
        set: vec![(1, Value::Int32(9))],
    });
    txn(insert(4));
    victim.crash();
    drop(victim_engine);
    coordinator.mark_dead(SiteId(2));
    txn(insert(5));

    let (victim, victim_engine) = start(SiteId(2));
    let scans = Arc::new(Mutex::new(Vec::new()));
    let ctx = RecoveryContext {
        engine: victim_engine.clone(),
        site: SiteId(2),
        placement,
        transport: Arc::new(ScanRecorder {
            inner: net.clone(),
            scans: scans.clone(),
        }),
        down: Default::default(),
        rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
        parallel_objects: true,
        crash_schedule: Default::default(),
        died_at: Default::default(),
    };
    recover_site(&ctx).expect("recover");
    // A page that is corrupt on disk and in no frame: scrub rewinds the
    // object to before its segment, and recovery repairs it from there.
    let def = victim_engine.table_def("sales").expect("table");
    let heap = victim_engine.pool().table(def.id).expect("heap");
    victim_engine.pool().flush_all().expect("flush");
    victim_engine.pool().deregister_table(def.id);
    victim_engine.pool().register_table(heap.clone());
    let page = heap
        .all_page_ids()
        .into_iter()
        .find(|pid| {
            let page = heap.read_page(pid.page_no).expect("read page");
            let occupied = page.occupied_slots().count();
            occupied > 0
        })
        .expect("an occupied page");
    let path = dir.join("site-2").join(format!("t{}.tbl", def.id.0));
    let mut image = std::fs::read(&path).expect("read table file");
    image[page.page_no as usize * PAGE_SIZE + 40] ^= 0x10;
    std::fs::write(&path, image).expect("write table file");
    let mut scrubbed = ScrubReport::default();
    quarantine_site(&ctx, &mut scrubbed).expect("quarantine");
    assert_eq!((scrubbed.corrupt_pages, scrubbed.repairs.len()), (1, 1));
    recover_object(&ctx, "sales").expect("repair");

    let golden = [
        (
            "Phase 2 deletions",
            "060500000073616c6573010600000000000000000103000000000000000001030000000000000001",
        ),
        (
            "Phase 2 inserts",
            "060500000073616c6573010600000000000000000106000000000000000103000000000000000000",
        ),
        (
            "Phase 3 deletions",
            "060500000073616c65730201000000c07e0200000106000000000000000001060000000000000001",
        ),
        (
            "Phase 3 inserts",
            "060500000073616c65730201000000c07e020000000106000000000000000000",
        ),
        (
            "repair: Phase 2 deletions, from the rewound checkpoint",
            "060500000073616c6573010600000000000000000100000000000000000001000000000000000001",
        ),
        (
            "repair: Phase 2 inserts, from the rewound checkpoint",
            "060500000073616c6573010600000000000000000106000000000000000100000000000000000000",
        ),
        (
            "repair: Phase 3 deletions",
            "060500000073616c65730201000000c07e0200000106000000000000000001060000000000000001",
        ),
        (
            "repair: Phase 3 inserts",
            "060500000073616c65730201000000c07e020000000106000000000000000000",
        ),
    ];
    let scans = scans.lock().unwrap().clone();
    assert_eq!(scans.len(), golden.len(), "{scans:#?}");
    for ((what, bytes), sent) in golden.iter().zip(&scans) {
        assert_eq!(sent, bytes, "{what}");
        assert!(matches!(
            Request::from_slice(&unhex(bytes)),
            Ok(Request::Scan(_))
        ));
    }
    coordinator.crash();
    buddy.crash();
    victim.crash();
    let _ = std::fs::remove_dir_all(&dir);
}
