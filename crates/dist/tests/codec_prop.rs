//! Adversarial property tests for the wire codec: any mutation of a valid
//! frame — truncation, byte corruption, or an inflated length prefix — must
//! decode to `Err`, never panic, and never allocate unboundedly. A chaos
//! transport (or a hostile peer) can hand the decoder arbitrary bytes; the
//! RPC layer relies on every such frame failing *cleanly*.

use harbor_common::codec::Wire;
use harbor_common::{
    DbError, PageId, RecordId, SiteId, TableId, Timestamp, TransactionId, Tuple, Value,
};
use harbor_dist::{RemoteScan, Request, Response, UpdateRequest, WireReadMode, WireTxnState};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sample_requests() -> Vec<Request> {
    let tid = TransactionId(0x0001_0000_0000_002a);
    let mut scan = RemoteScan::new("sales", WireReadMode::SeeDeletedHistorical(Timestamp(90)));
    scan.ins_after = Some(Timestamp(10));
    scan.del_after = Some(Timestamp(10));
    scan.ids_and_deletions_only = true;
    let plain = vec![
        Request::Update {
            tid,
            req: UpdateRequest::Insert {
                table: "sales".into(),
                values: vec![Value::Int64(7), Value::Int32(1), Value::Str("x".into())],
            },
        },
        Request::Update {
            tid,
            req: UpdateRequest::InsertMany {
                table: "sales".into(),
                rows: vec![
                    vec![Value::Int64(1), Value::Int32(2)],
                    vec![Value::Int64(3), Value::Int32(4)],
                ],
            },
        },
        Request::LastUpdate {
            tid,
            req: UpdateRequest::Insert {
                table: "sales".into(),
                values: vec![Value::Int64(8), Value::Int32(1), Value::Str("y".into())],
            },
            workers: vec![SiteId(1), SiteId(2), SiteId(3)],
            time_bound: Timestamp(41),
        },
        Request::Prepare {
            tid,
            workers: vec![SiteId(1), SiteId(2), SiteId(3)],
            time_bound: Timestamp(41),
        },
        Request::PrepareToCommit {
            tid,
            commit_time: Timestamp(42),
        },
        Request::Commit {
            tid,
            commit_time: Timestamp(42),
        },
        Request::Abort { tid },
        Request::Scan(scan),
        Request::AcquireTableLock {
            tid,
            table: "sales".into(),
        },
        Request::ReleaseTableLock {
            tid,
            table: "sales".into(),
        },
        Request::QueryTxnState { tid },
        Request::Ping,
        Request::GetTime,
        Request::RecComingOnline {
            site: SiteId(2),
            table: "sales".into(),
        },
        Request::SegmentBounds {
            table: "sales".into(),
        },
        Request::PrepareBatch {
            epoch: 12,
            txns: vec![
                (tid, vec![SiteId(1), SiteId(2)]),
                (TransactionId(0x0001_0000_0000_002b), vec![SiteId(2)]),
            ],
            time_bound: Timestamp(41),
        },
        Request::CommitBatch {
            epoch: 12,
            commits: vec![(tid, Timestamp(42))],
            aborts: vec![TransactionId(0x0001_0000_0000_002b)],
        },
        Request::JoinSite {
            site: SiteId(7),
            addr: "127.0.0.1:4077".into(),
        },
        Request::DecommissionSite { site: SiteId(7) },
    ];
    // The begin marker rides the first frame a worker sees of a
    // transaction: a statement (the last one, with its PREPARE trailer,
    // included), an in-transaction scan or a PREPARE.
    let marked: Vec<Request> = plain
        .iter()
        .filter(|r| {
            matches!(
                r,
                Request::Update { .. }
                    | Request::LastUpdate { .. }
                    | Request::Scan(_)
                    | Request::Prepare { .. }
            )
        })
        .map(|first| Request::Begin {
            tid,
            first: Box::new(first.clone()),
        })
        .collect();
    plain.into_iter().chain(marked).collect()
}

/// One error of every variant, its fields drawn from `text` and `n`.
fn every_error(text: &str, n: u64) -> Vec<DbError> {
    let m = || text.to_string();
    let tid = TransactionId(n);
    let page = PageId::new(TableId(n as u32), (n >> 32) as u32);
    vec![
        DbError::from(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            text.to_string(),
        )),
        DbError::LockTimeout {
            txn: tid,
            what: m(),
        },
        DbError::TransactionAborted(tid),
        DbError::UnknownTransaction(tid),
        DbError::NoSuchTable(page.table),
        DbError::NoSuchPage(page),
        DbError::NoSuchRecord(RecordId::new(page, n as u16)),
        DbError::Corrupt(m()),
        DbError::CorruptPage {
            table: page.table,
            page: page.page_no,
        },
        DbError::Full(m()),
        DbError::Net(m()),
        DbError::Timeout(m()),
        DbError::SiteUnavailable(m()),
        DbError::Protocol(m()),
        DbError::SiteDown(m()),
        DbError::Schema(m()),
        DbError::Constraint(m()),
        DbError::Unrecoverable(m()),
        DbError::Degraded(m()),
        DbError::Overloaded { retry_after_ms: n },
        DbError::BeginRefused { tid, why: m() },
        DbError::Internal(m()),
    ]
}

/// Whether `e` is of the link class — the sender's own links and files,
/// which arrive as `Protocol` carrying their text while everything else
/// arrives as itself.
fn is_link_class(e: &DbError) -> bool {
    use DbError::*;
    matches!(e, Io(..) | Net(_) | SiteDown(_) | SiteUnavailable(_))
}

fn sample_responses() -> Vec<Response> {
    let errors = every_error("T3.p7 — nope", 0x0001_0000_0000_002a);
    let mut out: Vec<Response> = errors.into_iter().map(Response::Err).collect();
    out.extend([
        Response::Ok,
        Response::Ack,
        Response::Vote { yes: true },
        Response::Time { now: Timestamp(99) },
        Response::TxnState {
            state: WireTxnState::PreparedToCommit(Timestamp(17)),
        },
        Response::Tuples {
            batch: vec![
                Tuple::versioned(
                    Timestamp(3),
                    Timestamp::ZERO,
                    vec![Value::Int64(1), Value::Int32(5)],
                ),
                Tuple::versioned(
                    Timestamp(4),
                    Timestamp(9),
                    vec![Value::Int64(2), Value::Int32(6)],
                ),
            ],
            done: false,
        },
        Response::AllDone,
        Response::SegmentBounds {
            segments: vec![(Timestamp(1), Timestamp(8), Timestamp(6), 128)],
        },
        Response::VoteBatch {
            votes: vec![
                (TransactionId(0x0001_0000_0000_002a), true),
                (TransactionId(0x0001_0000_0000_002b), false),
            ],
        },
        Response::AckBatch {
            acked: vec![TransactionId(0x0001_0000_0000_002a)],
        },
    ]);
    out
}

/// Decoding must be total: `Ok` (the mutation happened to stay decodable)
/// or `Err`, but never a panic. Run under `cargo test`; a panic aborts the
/// test with the failing byte vector printed by proptest.
fn decode_is_total(bytes: &[u8], as_request: bool) {
    if as_request {
        let _ = Request::from_slice(bytes);
    } else {
        let _ = Response::from_slice(bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_frames_never_panic(
        idx in 0usize..64,
        keep_pct in 0u32..100,
        as_request in any::<bool>(),
    ) {
        let samples = if as_request {
            sample_requests().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        } else {
            sample_responses().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        };
        let bytes = &samples[idx % samples.len()];
        let keep = (bytes.len() as u64 * keep_pct as u64 / 100) as usize;
        decode_is_total(&bytes[..keep], as_request);
    }

    #[test]
    fn corrupted_frames_never_panic(
        idx in 0usize..64,
        pos in 0usize..4096,
        mask in 1u8..=255,
        as_request in any::<bool>(),
    ) {
        let samples = if as_request {
            sample_requests().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        } else {
            sample_responses().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        };
        let mut bytes = samples[idx % samples.len()].clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        decode_is_total(&bytes, as_request);
    }

    #[test]
    fn inflated_length_prefixes_never_panic_or_overallocate(
        idx in 0usize..64,
        pos in 0usize..4096,
        as_request in any::<bool>(),
    ) {
        let samples = if as_request {
            sample_requests().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        } else {
            sample_responses().iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        };
        let mut bytes = samples[idx % samples.len()].clone();
        // Stamp 0xFFFFFFFF over four bytes anywhere: wherever it lands on a
        // length/count prefix, the decoder sees a ~4-billion-element claim
        // backed by a few dozen bytes. The codec's one count guard (and the
        // bounded byte-reads) must reject it before allocating for it — if this
        // over-allocated instead, the test would die on OOM, not an assert.
        let pos = pos % bytes.len();
        for i in pos..(pos + 4).min(bytes.len()) {
            bytes[i] = 0xff;
        }
        decode_is_total(&bytes, as_request);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every variant crosses as the rule prescribes, and the class
    /// predicates of what arrives are those of what the rule prescribes —
    /// in particular nothing that arrives is a disconnect.
    #[test]
    fn every_error_crosses_by_the_rule(text in "[ -~é]{0,40}", n in any::<u64>()) {
        for e in every_error(&text, n) {
            let link = is_link_class(&e);
            let want = if link {
                DbError::Protocol(e.to_string())
            } else {
                e.clone()
            };
            let got = DbError::from_slice(&e.to_vec()).expect("decode");
            prop_assert_eq!(&got, &want);
            prop_assert!(!got.is_disconnect());
            if !link {
                prop_assert_eq!(got.is_timeout(), e.is_timeout());
                prop_assert_eq!(got.is_corrupt(), e.is_corrupt());
                prop_assert_eq!(got.is_degraded(), e.is_degraded());
                prop_assert_eq!(got.is_overloaded(), e.is_overloaded());
                prop_assert_eq!(got.retry_after_ms(), e.retry_after_ms());
            } else {
                prop_assert!(e.is_disconnect());
                prop_assert!(!(got.is_timeout() || got.is_corrupt() || got.is_degraded()));
                prop_assert!(!got.is_overloaded() && got.retry_after_ms().is_none());
            }
            // The same bytes inside both reply kinds that carry one.
            let reply = Response::Err(e.clone()).to_vec();
            prop_assert_eq!(Response::from_slice(&reply).expect("decode"), Response::Err(want));
        }
    }

    /// A damaged error frame is `Corrupt` or some other error — never a
    /// panic, never an allocation the peer sized.
    #[test]
    fn damaged_error_frames_decode_to_an_error_or_an_error_value(
        idx in 0usize..64,
        keep_pct in 0u32..100,
        pos in 0usize..4096,
    ) {
        let errors = every_error("lock on T3.p7", 42);
        let frame = errors[idx % errors.len()].to_vec();
        let keep = (frame.len() as u64 * keep_pct as u64 / 100) as usize;
        prop_assert!(DbError::from_slice(&frame[..keep]).unwrap_err().is_corrupt());
        let mut stamped = frame.clone();
        let pos = pos % stamped.len();
        for b in stamped.iter_mut().skip(pos).take(4) {
            *b = 0xff;
        }
        if let Err(e) = DbError::from_slice(&stamped) {
            prop_assert!(e.is_corrupt(), "{}", e);
        }
    }
}

/// The samples the properties above mutate are total over the
/// declarations: every tag `TAGS` lists opens at least one sample's frame,
/// so a variant added to a declaration fails here until a sample exists.
#[test]
fn every_variant_is_generated() {
    fn opening_tags<T: Wire>(samples: &[T]) -> BTreeSet<u8> {
        samples.iter().map(|s| s.to_vec()[0]).collect()
    }
    let declared = |tags: &[u8]| tags.iter().copied().collect::<BTreeSet<u8>>();
    assert_eq!(opening_tags(&sample_requests()), declared(Request::TAGS));
    assert_eq!(opening_tags(&sample_responses()), declared(Response::TAGS));
    assert_eq!(opening_tags(&every_error("x", 1)), declared(DbError::TAGS));
    // A tag no variant owns is refused, in every declared type alike.
    assert!(DbError::from_slice(&[200]).unwrap_err().is_corrupt());
    assert!(Request::from_slice(&[200]).unwrap_err().is_corrupt());
    assert!(Response::from_slice(&[200]).unwrap_err().is_corrupt());
}

/// The begin marker is one encoding whatever it marks: a prefix of the
/// marked request's own frame, decoding back to both, and never nesting.
#[test]
fn begin_marker_round_trips_and_does_not_nest() {
    let tid = TransactionId(0x0001_0000_0000_002a);
    let mut seen = 0;
    for req in sample_requests() {
        let frame = req.to_vec();
        assert_eq!(Request::from_slice(&frame).unwrap(), req);
        let Request::Begin { tid: marked, first } = &req else {
            continue;
        };
        seen += 1;
        assert_eq!(*marked, tid);
        assert_eq!(Request::mark_beginning(tid, &first.to_vec()), frame);
        assert!(Request::from_slice(&Request::mark_beginning(tid, &frame)).is_err());
    }
    assert_eq!(seen, 5, "three statements, a scan and a PREPARE");
}

/// The PREPARE trailer rides a statement and nothing else. The frame is the
/// tag, the statement's own `Update` frame, the trailer — so what sits in
/// the statement's place is checked to be one and never decoded as a
/// request: no marker and no other request can be nested there.
#[test]
fn prepare_trailer_rides_only_a_statement() {
    let mut seen = 0;
    for req in sample_requests() {
        let Request::LastUpdate {
            tid,
            req: stmt,
            workers,
            time_bound,
        } = &req
        else {
            continue;
        };
        seen += 1;
        let frame = req.to_vec();
        let statement = Request::Update {
            tid: *tid,
            req: stmt.clone(),
        }
        .to_vec();
        assert_eq!(frame[1..1 + statement.len()], statement[..]);
        // The same trailer behind anything that is not a statement.
        let trailer = &frame[1 + statement.len()..];
        let riding_on = |inner: Vec<u8>| [&frame[..1], &inner[..], trailer].concat();
        assert_eq!(Request::from_slice(&riding_on(statement)).unwrap(), req);
        for inner in [
            Request::Prepare {
                tid: *tid,
                workers: workers.clone(),
                time_bound: *time_bound,
            },
            Request::Abort { tid: *tid },
            Request::Ping,
            req.clone(),
            Request::Begin {
                tid: *tid,
                first: Box::new(req.clone()),
            },
        ] {
            let err = Request::from_slice(&riding_on(inner.to_vec())).unwrap_err();
            assert!(err.to_string().contains("rides a statement"), "{err}");
        }
    }
    assert_eq!(seen, 1);
}

/// Deterministic regression for the count guard itself: a `Prepare` frame
/// whose worker-count field is patched to `u32::MAX` must fail with the
/// corrupt-count error, not allocate a 16 GiB `Vec<SiteId>`.
#[test]
fn huge_worker_count_is_rejected_up_front() {
    let frame = Request::Prepare {
        tid: TransactionId(1),
        workers: vec![SiteId(1), SiteId(2)],
        time_bound: Timestamp(0),
    }
    .to_vec();
    // Layout: tag u8 | tid u64 | count u32 | ...
    let mut mutated = frame.clone();
    mutated[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = Request::from_slice(&mutated).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exceeds"), "unexpected error: {msg}");
    // The original still round-trips.
    assert!(Request::from_slice(&frame).is_ok());
}
