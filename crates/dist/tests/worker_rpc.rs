//! Worker-server RPC integration: streamed scans, predicate updates over
//! the wire, failure detection, and the timestamp authority endpoint.

use harbor_common::codec::Wire;
use harbor_common::time::TimestampAuthority;
use harbor_common::{
    DbError, DbResult, FieldType, Metrics, SiteId, StorageConfig, Timestamp, TransactionId, Tuple,
    Value,
};
use harbor_dist::{
    next_frame, rpc, scan_rpc, ProtocolKind, RemoteScan, Request, Response, UpdateRequest,
    WireReadMode, Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_exec::Expr;
use harbor_net::{Channel, InMemNetwork, Transport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One round trip under the default deadline.
fn call(chan: &mut dyn Channel, req: &Request) -> DbResult<Response> {
    rpc(chan, req, DEFAULT_RPC_DEADLINE, &Metrics::new())
}

/// Every row a scan answers.
fn rows_of(chan: &mut dyn Channel, scan: &RemoteScan) -> DbResult<Vec<Tuple>> {
    let mut out = Vec::new();
    scan_rpc(
        chan,
        scan,
        DEFAULT_RPC_DEADLINE,
        &Metrics::new(),
        |rows, wire| {
            out.append(&mut Tuple::decode_n(wire, rows)?);
            Ok(())
        },
    )?;
    Ok(out)
}

/// The next reply on `chan`, of a request sent by hand.
fn answer(chan: &mut dyn Channel) -> Response {
    let frame = next_frame(chan, DEFAULT_RPC_DEADLINE, &Metrics::new()).unwrap();
    Response::from_slice(&frame).unwrap()
}

struct Fixture {
    dir: PathBuf,
    transport: Arc<dyn Transport>,
    worker: Arc<Worker>,
    engine: Arc<Engine>,
    authority: Arc<TimestampAuthority>,
}

fn build(name: &str) -> Fixture {
    let dir = std::env::temp_dir()
        .join("harbor-worker-rpc")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
    let engine = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(1), StorageConfig::for_tests()),
    )
    .unwrap();
    engine
        .create_table(
            "t",
            vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
            ],
        )
        .unwrap();
    let worker = Worker::start(
        engine.clone(),
        transport.clone(),
        WorkerConfig {
            site: SiteId(1),
            addr: format!("rpc-{name}"),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: HashMap::new(),
            coordinator: None,
            auto_consensus: false,
            faults: Default::default(),
        },
    )
    .unwrap();
    Fixture {
        dir,
        transport,
        worker,
        engine,
        authority: Arc::new(TimestampAuthority::default()),
    }
}

impl Fixture {
    fn connect(&self) -> Box<dyn harbor_net::Channel> {
        self.transport.connect(self.worker.addr()).unwrap()
    }

    /// Runs one update transaction through the wire protocol (single
    /// worker: prepare + ptc + commit).
    fn txn(&self, seq: u64, reqs: Vec<UpdateRequest>) -> Timestamp {
        let tid = TransactionId::from_parts(SiteId(0), seq);
        let mut chan = self.connect();
        for (i, req) in reqs.into_iter().enumerate() {
            // The first statement carries the begin marker.
            let mut update = Request::Update { tid, req };
            if i == 0 {
                update = begin(tid, update);
            }
            match call(chan.as_mut(), &update).unwrap() {
                Response::Ok => {}
                other => panic!("update failed: {other:?}"),
            }
        }
        let bound = self.authority.now();
        match call(
            chan.as_mut(),
            &Request::Prepare {
                tid,
                workers: vec![SiteId(1)],
                time_bound: bound,
            },
        )
        .unwrap()
        {
            Response::Vote { yes: true } => {}
            other => panic!("bad vote {other:?}"),
        }
        let t = self.authority.next_commit_time();
        call(
            chan.as_mut(),
            &Request::PrepareToCommit {
                tid,
                commit_time: t,
            },
        )
        .unwrap();
        call(
            chan.as_mut(),
            &Request::Commit {
                tid,
                commit_time: t,
            },
        )
        .unwrap();
        t
    }
}

/// `first` under the begin marker for `tid`.
fn begin(tid: TransactionId, first: Request) -> Request {
    Request::Begin {
        tid,
        first: Box::new(first),
    }
}

fn insert(tid: TransactionId, id: i64) -> Request {
    Request::Update {
        tid,
        req: UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(id), Value::Int32(id as i32)],
        },
    }
}

/// Every version of every row of `t`, committed or not.
fn all_rows(chan: &mut dyn harbor_net::Channel) -> usize {
    let scan = RemoteScan::new("t", WireReadMode::SeeDeletedLocked(TransactionId(0)));
    rows_of(chan, &scan).unwrap().len()
}

#[test]
fn streamed_scan_crosses_batch_boundaries() {
    let f = build("stream");
    // More rows than one 512-tuple batch.
    let rows: Vec<Vec<Value>> = (0..1300i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    let mut chan = f.connect();
    let scan = RemoteScan::new("t", WireReadMode::Historical(t));
    let tuples = rows_of(chan.as_mut(), &scan).unwrap();
    assert_eq!(tuples.len(), 1300);
    // Streaming visitor sees multiple batches, and the same rows in them.
    let (mut batches, mut streamed) = (0, Vec::new());
    scan_rpc(
        chan.as_mut(),
        &scan,
        DEFAULT_RPC_DEADLINE,
        &Metrics::new(),
        |rows, wire| {
            batches += (rows > 0) as usize;
            streamed.append(&mut Tuple::decode_n(wire, rows)?);
            Ok(())
        },
    )
    .unwrap();
    assert!(batches >= 3, "1300 rows should stream in >= 3 batches");
    assert_eq!(streamed, tuples);
    // A visitor that leaves rows of a reply unread is refused, not skipped.
    let lazy = scan_rpc(
        f.connect().as_mut(),
        &scan,
        DEFAULT_RPC_DEADLINE,
        &Metrics::new(),
        |_, _| Ok(()),
    );
    assert!(lazy.unwrap_err().is_corrupt());
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// Only recovery's scans count as recovery traffic: a coordinator's
/// historical read moves neither ship counter, a Phase-2 catch-up scan moves
/// both, and every scan counts its zero-copy bytes.
#[test]
fn only_recovery_scans_count_as_recovery_shipping() {
    let f = build("ship-counters");
    let rows: Vec<Vec<Value>> = (0..100i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    let shipped = || {
        let m = f.engine.metrics().snapshot();
        (
            m.recovery_tuples_shipped,
            m.recovery_bytes_shipped,
            m.scan_bytes_zero_copy,
        )
    };
    let mut chan = f.connect();
    let read = RemoteScan::new("t", WireReadMode::Historical(t));
    assert_eq!(rows_of(chan.as_mut(), &read).unwrap().len(), 100);
    let (tuples, bytes, zero_copy) = shipped();
    assert_eq!((tuples, bytes), (0, 0), "a read is not recovery traffic");
    assert!(zero_copy > 0);
    let catch_up = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t));
    assert_eq!(rows_of(chan.as_mut(), &catch_up).unwrap().len(), 100);
    let (tuples, bytes, after) = shipped();
    assert_eq!(tuples, 100);
    assert!(bytes > 0 && after > zero_copy);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A key-equality scan is answered from the tuple-id index (§5.3): the
/// right versions under each snapshot, without walking the table.
#[test]
fn key_scan_respects_visibility() {
    let f = build("key-scan");
    let rows: Vec<Vec<Value>> = (0..50i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t1 = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    // An update forks key 7 into two versions; a delete retires key 9.
    let t2 = f.txn(
        2,
        vec![
            UpdateRequest::UpdateByKey {
                table: "t".into(),
                key: 7,
                set: vec![(1, Value::Int32(700))],
            },
            UpdateRequest::DeleteWhere {
                table: "t".into(),
                pred: Expr::col(2).eq(Expr::lit(9i64)),
            },
        ],
    );
    let mut chan = f.connect();
    let point = |chan: &mut Box<dyn harbor_net::Channel>, key: i64, mode: WireReadMode| {
        let mut scan = RemoteScan::new("t", mode);
        scan.predicate = Some(Expr::col(2).eq(Expr::lit(key)));
        rows_of(chan.as_mut(), &scan).unwrap()
    };
    // Latest snapshot: the updated version only.
    let rows = point(&mut chan, 7, WireReadMode::Historical(t2));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(3), Value::Int32(700));
    // Before the update: the original version.
    let rows = point(&mut chan, 7, WireReadMode::Historical(t1));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(3), Value::Int32(7));
    // Deleted key: gone at t2, visible at t1.
    assert!(point(&mut chan, 9, WireReadMode::Historical(t2)).is_empty());
    assert_eq!(point(&mut chan, 9, WireReadMode::Historical(t1)).len(), 1);
    // Absent key.
    assert!(point(&mut chan, 5000, WireReadMode::Historical(t2)).is_empty());
    // Phase-2 form: both versions of key 7, with the rest of the predicate
    // and the bounds applied to the index hits.
    let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t2));
    scan.predicate = Some(
        Expr::col(2)
            .eq(Expr::lit(7i64))
            .and(Expr::col(3).lt(Expr::lit(100))),
    );
    assert_eq!(rows_of(chan.as_mut(), &scan).unwrap().len(), 1);
    scan.predicate = Some(Expr::col(2).eq(Expr::lit(7i64)));
    assert_eq!(rows_of(chan.as_mut(), &scan).unwrap().len(), 2);
    scan.ins_after = Some(t1);
    let rows = rows_of(chan.as_mut(), &scan).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(3), Value::Int32(700));
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// Rows a scan has looked at so far, admitted or not.
fn examined(f: &Fixture) -> u64 {
    let m = f.engine.metrics().snapshot();
    m.scan_rows_admitted + m.scan_rows_skipped_predecode
}

/// `scan`'s rows by key and insertion time, and the rows it examined.
fn sorted_rows(f: &Fixture, scan: &RemoteScan) -> (Vec<Tuple>, u64) {
    let before = examined(f);
    let mut rows = rows_of(f.connect().as_mut(), scan).unwrap();
    rows.sort_by_key(|row| (row.get(2).as_i64().unwrap(), row.get(0).as_time().unwrap()));
    (rows, examined(f) - before)
}

/// `scan` as the key index answers it and as the page walk does (the same
/// predicate, `OR`ed with itself, bounds no key through `AND`s): the same
/// rows, the index examining no more than the walk. Returns the rows and
/// what each source examined.
fn index_matches_walk(f: &Fixture, scan: &RemoteScan) -> (Vec<Tuple>, u64, u64) {
    let (rows, by_index) = sorted_rows(f, scan);
    let mut walk = scan.clone();
    let pred = scan.predicate.clone().unwrap();
    walk.predicate = Some(pred.clone().or(pred));
    let (walked, by_walk) = sorted_rows(f, &walk);
    assert_eq!(rows, walked, "{:?}", scan.predicate);
    assert!(
        by_index <= by_walk,
        "{by_index} > {by_walk}: {:?}",
        scan.predicate
    );
    (rows, by_index, by_walk)
}

/// `lo <= id < hi`.
fn keys_between(lo: i64, hi: i64) -> Expr {
    Expr::col(2)
        .ge(Expr::lit(lo))
        .and(Expr::col(2).lt(Expr::lit(hi)))
}

/// A key range reads the versions in range, not the table, however wide;
/// an unknown table is an error, not a crash.
#[test]
fn key_scan_examines_only_its_hits() {
    let f = build("key-scan-cost");
    let rows: Vec<Vec<Value>> = (0..5000i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    let mut chan = f.connect();
    let mut scan = RemoteScan::new("t", WireReadMode::Historical(t));
    // Ten keys, and 2 000 that start and end in the middle of a page.
    for (lo, hi) in [(100, 110), (1001, 3001)] {
        scan.predicate = Some(keys_between(lo, hi));
        let before = examined(&f);
        let got: Vec<i64> = rows_of(chan.as_mut(), &scan)
            .unwrap()
            .iter()
            .map(|row| row.get(2).as_i64().unwrap())
            .collect();
        assert_eq!(got, (lo..hi).collect::<Vec<_>>(), "{lo}..{hi}");
        assert_eq!(examined(&f) - before, (hi - lo) as u64, "{lo}..{hi}");
    }
    scan.table = "nope".into();
    match rows_of(chan.as_mut(), &scan) {
        Err(DbError::Schema(m)) => assert!(m.contains("nope"), "{m}"),
        other => panic!("an unknown table answered {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// Every key-bounded read answered from the key index returns the rows the
/// page walk returns: a half-open range, a range over keys an update moved
/// out of their runs (a first version, and a later one elsewhere), a range
/// over a cold index, and a Phase-2 partition read with an insertion bound
/// that pruning narrows to the segments the update wrote. A predicate that
/// bounds no key through `AND`s still walks the pages.
#[test]
fn key_range_reads_match_the_page_walk() {
    let f = build("key-range-walk");
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t1 = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    // Keys 3, 5, 7 of the first segment and 1500..1510 of the middle leave
    // their runs; key 1511 is deleted.
    let mut moves: Vec<UpdateRequest> = [3i64, 5, 7]
        .into_iter()
        .chain(1500..1510)
        .map(|key| UpdateRequest::UpdateByKey {
            table: "t".into(),
            key,
            set: vec![(1, Value::Int32(-1))],
        })
        .collect();
    moves.push(UpdateRequest::DeleteWhere {
        table: "t".into(),
        pred: Expr::col(2).eq(Expr::lit(1511i64)),
    });
    let t2 = f.txn(2, moves);
    let table = f.engine.table_def("t").unwrap().id;
    let stored = 3000 + 13;
    let at = |t: Timestamp, pred: Expr| {
        let mut scan = RemoteScan::new("t", WireReadMode::Historical(t));
        scan.predicate = Some(pred);
        scan
    };

    // Half-open, from the middle of a run to past the last key.
    let (rows, _, by_walk) = index_matches_walk(&f, &at(t2, Expr::col(2).ge(Expr::lit(2990i64))));
    assert_eq!(rows.len(), 10);
    assert_eq!(by_walk, stored, "the walk examines every stored row");
    let (rows, ..) = index_matches_walk(&f, &at(t2, Expr::lit(5i64).ge(Expr::col(2))));
    assert_eq!(rows.len(), 6);
    // The moved keys, before and after their update, and every version.
    for t in [t1, t2] {
        let (rows, ..) = index_matches_walk(&f, &at(t, keys_between(1498, 1512)));
        assert_eq!(rows.len(), if t == t1 { 14 } else { 13 });
    }
    let mut every = at(t2, keys_between(0, 10));
    every.mode = WireReadMode::SeeDeletedHistorical(t2);
    let (rows, by_index, _) = index_matches_walk(&f, &every);
    assert_eq!(
        (rows.len(), by_index),
        (13, 13),
        "three keys with two versions"
    );
    // An equality, and contradictory bounds.
    let (rows, ..) = index_matches_walk(&f, &at(t2, Expr::col(2).eq(Expr::lit(1505i64))));
    assert_eq!(rows.len(), 1);
    let none = keys_between(10, 20).and(Expr::col(2).lt(Expr::lit(5i64)));
    assert!(index_matches_walk(&f, &at(t2, none)).0.is_empty());

    // A cold index, as after a restart: the range read builds it first.
    let index = f.engine.index(table).unwrap();
    index.invalidate();
    let rebuilds = f.engine.metrics().snapshot().index_rebuilds;
    let (rows, _, _) = index_matches_walk(&f, &at(t2, keys_between(1000, 2000)));
    assert_eq!(rows.len(), 999);
    assert_eq!(f.engine.metrics().snapshot().index_rebuilds, rebuilds + 1);

    // Phase 2's partition read: every version inserted after the load, of
    // the keys in a partition. The load's segments are pruned, so the index
    // examines only the update's new versions.
    let mut partition = at(t2, keys_between(0, 1600));
    partition.mode = WireReadMode::SeeDeletedHistorical(t2);
    partition.ins_after = Some(t1);
    let (rows, by_index, _) = index_matches_walk(&f, &partition);
    assert_eq!(rows.len(), 13);
    assert_eq!(by_index, 13, "a stretch on a pruned segment was visited");

    // No key bound through `AND`s: the walk, whatever else bounds the key.
    for pred in [
        Expr::col(2)
            .eq(Expr::lit(5i64))
            .or(Expr::col(2).eq(Expr::lit(6i64))),
        Expr::col(2).lt(Expr::lit(5i64)).not(),
        Expr::col(3).lt(Expr::lit(10)),
    ] {
        let (_, by_source) = sorted_rows(&f, &at(t2, pred));
        assert_eq!(by_source, stored);
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn predicate_updates_and_deletes_over_the_wire() {
    let f = build("dml");
    let rows: Vec<Vec<Value>> = (0..20i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(1)])
        .collect();
    f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    f.txn(
        2,
        vec![UpdateRequest::UpdateWhere {
            table: "t".into(),
            pred: Expr::col(2).lt(Expr::lit(5i64)),
            set: vec![(1, Value::Int32(99))],
        }],
    );
    let t = f.txn(
        3,
        vec![UpdateRequest::DeleteWhere {
            table: "t".into(),
            pred: Expr::col(2).ge(Expr::lit(15i64)),
        }],
    );
    let mut chan = f.connect();
    let tuples = rows_of(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap();
    assert_eq!(tuples.len(), 15);
    let updated = tuples
        .iter()
        .filter(|t| t.get(3) == Value::Int32(99))
        .count();
    assert_eq!(updated, 5);
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn scan_bounds_filter_remotely() {
    let f = build("bounds");
    let t1 = f.txn(
        1,
        vec![UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(1), Value::Int32(1)],
        }],
    );
    let t2 = f.txn(
        2,
        vec![UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(2), Value::Int32(2)],
        }],
    );
    let mut chan = f.connect();
    let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t2));
    scan.ins_after = Some(t1);
    let rows = rows_of(chan.as_mut(), &scan).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(2), Value::Int64(2));
    // ids_and_deletions_only projects to two columns.
    let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t2));
    scan.ids_and_deletions_only = true;
    let rows = rows_of(chan.as_mut(), &scan).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].len(), 2);
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn unknown_transactions_vote_no_and_abort_acks() {
    let f = build("unknown");
    let tid = TransactionId::from_parts(SiteId(0), 999);
    let mut chan = f.connect();
    // Vote request for a transaction this worker never saw: NO (§4.3.2).
    match call(
        chan.as_mut(),
        &Request::Prepare {
            tid,
            workers: vec![SiteId(1)],
            time_bound: Timestamp(1),
        },
    )
    .unwrap()
    {
        Response::Vote { yes } => assert!(!yes),
        other => panic!("{other:?}"),
    }
    // Abort of an unknown transaction is acknowledged (idempotent).
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid }).unwrap(),
        Response::Ack
    ));
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A statement that arrives after its transaction ended (an abort overtook
/// it on the way) is refused before it touches the table: no tuple, no lock.
#[test]
fn a_statement_for_a_closed_transaction_takes_no_locks() {
    let f = build("straggler");
    let tid = TransactionId::from_parts(SiteId(0), 7);
    let insert = insert(tid, 1);
    let mut chan = f.connect();
    for (req, want_ack) in [
        (begin(tid, insert.clone()), false),
        (Request::Abort { tid }, true),
    ] {
        let reply = call(chan.as_mut(), &req).unwrap();
        assert!(
            matches!(
                (&reply, want_ack),
                (Response::Ok, false) | (Response::Ack, true)
            ),
            "{reply:?}"
        );
    }
    assert!(matches!(
        call(chan.as_mut(), &insert).unwrap(),
        Response::Err(DbError::UnknownTransaction(t)) if t == tid
    ));
    assert_eq!(f.engine.locks().held_count(), 0);
    let scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(1_000)));
    assert!(rows_of(chan.as_mut(), &scan).unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The begin marker: the first frame of a transaction opens it and is
/// executed, for one reply; a frame without the marker opens nothing.
#[test]
fn a_marked_first_frame_begins_and_executes_with_one_reply() {
    let f = build("marker");
    let tid = TransactionId::from_parts(SiteId(0), 11);
    let mut chan = f.connect();
    // Unmarked, for a transaction the worker has never seen: refused.
    match call(chan.as_mut(), &insert(tid, 1)).unwrap() {
        Response::Err(DbError::UnknownTransaction(t)) => assert_eq!(t, tid),
        other => panic!("{other:?}"),
    }
    assert_eq!(f.engine.locks().held_count(), 0);
    assert!(matches!(
        call(chan.as_mut(), &begin(tid, insert(tid, 1))).unwrap(),
        Response::Ok
    ));
    assert!(f.engine.txn_status(tid).is_some());
    // Exactly one reply: the next frame on the session is the answer to
    // the next request, and the transaction runs on without a marker.
    assert!(matches!(
        call(chan.as_mut(), &Request::Ping).unwrap(),
        Response::Ok
    ));
    assert!(matches!(
        call(chan.as_mut(), &insert(tid, 2)).unwrap(),
        Response::Ok
    ));
    assert_eq!(all_rows(chan.as_mut()), 2);
    // The marker is the same for a scan and a PREPARE: each opens its
    // transaction and answers as the request alone would have.
    let reader = TransactionId::from_parts(SiteId(0), 12);
    let scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(1_000)));
    let mut other = f.connect();
    other
        .send(begin(reader, Request::Scan(scan)).to_vec())
        .unwrap();
    let Response::Tuples { batch, done: true } = answer(other.as_mut()) else {
        panic!("scan stream");
    };
    assert!(batch.is_empty(), "nothing is committed yet");
    assert!(matches!(answer(other.as_mut()), Response::Ok));
    assert!(f.engine.txn_status(reader).is_some());
    let voter = TransactionId::from_parts(SiteId(0), 13);
    let prepare = Request::Prepare {
        tid: voter,
        workers: vec![SiteId(1)],
        time_bound: Timestamp(1),
    };
    assert!(matches!(
        call(other.as_mut(), &begin(voter, prepare)).unwrap(),
        Response::Vote { yes: true }
    ));
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The chaos layer can deliver a frame twice. The copy of a first frame
/// finds the transaction open and is refused whole: nothing is applied a
/// second time, and the refusal is one reply.
#[test]
fn a_duplicated_first_frame_does_not_apply_twice() {
    let f = build("marker-dup");
    let tid = TransactionId::from_parts(SiteId(0), 21);
    let first = begin(tid, insert(tid, 1)).to_vec();
    let mut chan = f.connect();
    chan.send(first.clone()).unwrap();
    chan.send(first).unwrap();
    assert!(matches!(answer(chan.as_mut()), Response::Ok));
    match answer(chan.as_mut()) {
        Response::Err(DbError::BeginRefused { tid: refused, .. }) => assert_eq!(refused, tid),
        other => panic!("{other:?}"),
    }
    assert_eq!(all_rows(chan.as_mut()), 1);
    // The transaction the original opened is untouched by the refusal.
    assert!(f.engine.txn_status(tid).is_some());
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid }).unwrap(),
        Response::Ack
    ));
    assert_eq!(all_rows(chan.as_mut()), 0);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// `insert(tid, id)` as the transaction's last statement, its PREPARE riding.
fn last_insert(tid: TransactionId, table: &str, id: i64) -> Request {
    Request::LastUpdate {
        tid,
        req: UpdateRequest::Insert {
            table: table.into(),
            values: vec![Value::Int64(id), Value::Int32(id as i32)],
        },
        workers: vec![SiteId(1)],
        time_bound: Timestamp(1),
    }
}

/// The last statement carries the PREPARE: one frame, one reply, and the
/// reply is the vote — the worker is prepared, with the participant list
/// the consensus protocol will need, and the rest of the protocol follows.
#[test]
fn a_last_statement_executes_then_votes_in_one_reply() {
    let f = build("last");
    let tid = TransactionId::from_parts(SiteId(0), 41);
    let mut chan = f.connect();
    assert!(matches!(
        call(chan.as_mut(), &begin(tid, last_insert(tid, "t", 1))).unwrap(),
        Response::Vote { yes: true }
    ));
    assert_eq!(
        f.worker.backup_state(tid),
        harbor_dist::WireTxnState::PreparedVotedYes
    );
    assert!(matches!(
        call(chan.as_mut(), &Request::Ping).unwrap(),
        Response::Ok
    ));
    let t = f.authority.next_commit_time();
    for req in [
        Request::PrepareToCommit {
            tid,
            commit_time: t,
        },
        Request::Commit {
            tid,
            commit_time: t,
        },
    ] {
        assert!(matches!(call(chan.as_mut(), &req).unwrap(), Response::Ack));
    }
    let scan = RemoteScan::new("t", WireReadMode::Historical(t));
    assert_eq!(rows_of(chan.as_mut(), &scan).unwrap().len(), 1);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A last statement that fails is answered as a failed statement: no vote
/// was cast, so the transaction is still pending here — the coordinator's
/// ABORT, or its disconnect, may end it unilaterally (§4.3.2).
#[test]
fn a_failed_last_statement_prepares_nothing() {
    let f = build("last-failed");
    let tid = TransactionId::from_parts(SiteId(0), 42);
    let mut chan = f.connect();
    assert!(matches!(
        call(chan.as_mut(), &begin(tid, insert(tid, 1))).unwrap(),
        Response::Ok
    ));
    match call(chan.as_mut(), &last_insert(tid, "nope", 2)).unwrap() {
        Response::Err(DbError::Schema(m)) => assert!(m.contains("nope"), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        f.worker.backup_state(tid),
        harbor_dist::WireTxnState::Pending
    );
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid }).unwrap(),
        Response::Ack
    ));
    assert_eq!(all_rows(chan.as_mut()), 0);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A NO vote riding a statement is a NO vote: the worker rolls back on the
/// spot (Figs 4-2/4-3), what the statement just wrote included.
#[test]
fn a_no_vote_on_a_last_statement_rolls_back_locally() {
    let f = build("last-no");
    let tid = TransactionId::from_parts(SiteId(0), 43);
    let mut chan = f.connect();
    assert!(matches!(
        call(chan.as_mut(), &begin(tid, insert(tid, 1))).unwrap(),
        Response::Ok
    ));
    f.engine.poison(tid);
    assert!(matches!(
        call(chan.as_mut(), &last_insert(tid, "t", 2)).unwrap(),
        Response::Vote { yes: false }
    ));
    assert_eq!(
        f.worker.backup_state(tid),
        harbor_dist::WireTxnState::Aborted
    );
    assert!(f.engine.txn_status(tid).is_none());
    assert_eq!(all_rows(chan.as_mut()), 0);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The chaos layer can deliver the last frame twice. The copy finds the
/// vote cast: it applies nothing and prepares nothing again, it repeats the
/// vote — as a duplicate PREPARE does.
#[test]
fn a_duplicated_last_frame_neither_applies_nor_votes_twice() {
    let f = build("last-dup");
    let tid = TransactionId::from_parts(SiteId(0), 44);
    let mut chan = f.connect();
    assert!(matches!(
        call(chan.as_mut(), &begin(tid, insert(tid, 1))).unwrap(),
        Response::Ok
    ));
    let last = last_insert(tid, "t", 2).to_vec();
    chan.send(last.clone()).unwrap();
    chan.send(last).unwrap();
    for _ in 0..2 {
        assert!(matches!(
            answer(chan.as_mut()),
            Response::Vote { yes: true }
        ));
    }
    assert_eq!(all_rows(chan.as_mut()), 2, "rows 1 and 2, once each");
    assert_eq!(
        f.worker.backup_state(tid),
        harbor_dist::WireTxnState::PreparedVotedYes
    );
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid }).unwrap(),
        Response::Ack
    ));
    assert_eq!(all_rows(chan.as_mut()), 0);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A first frame that arrives after its transaction ended here — committed
/// or aborted — must not open it again: no transaction end would ever come
/// for what it executed.
#[test]
fn a_late_first_frame_cannot_reopen_an_ended_transaction() {
    let f = build("marker-late");
    let committed = TransactionId::from_parts(SiteId(0), 1);
    f.txn(
        1,
        vec![UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(1), Value::Int32(1)],
        }],
    );
    let aborted = TransactionId::from_parts(SiteId(0), 2);
    let mut chan = f.connect();
    assert!(matches!(
        call(chan.as_mut(), &begin(aborted, insert(aborted, 2))).unwrap(),
        Response::Ok
    ));
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid: aborted }).unwrap(),
        Response::Ack
    ));
    // An ABORT that overtook its transaction's first frame ends it too.
    let overtaken = TransactionId::from_parts(SiteId(0), 3);
    assert!(matches!(
        call(chan.as_mut(), &Request::Abort { tid: overtaken }).unwrap(),
        Response::Ack
    ));
    for tid in [committed, aborted, overtaken] {
        match call(chan.as_mut(), &begin(tid, insert(tid, 9))).unwrap() {
            Response::Err(DbError::BeginRefused { tid: refused, .. }) => assert_eq!(refused, tid),
            other => panic!("{tid}: {other:?}"),
        }
        assert!(f.engine.txn_status(tid).is_none(), "{tid} reopened");
    }
    assert_eq!(f.engine.locks().held_count(), 0);
    assert_eq!(all_rows(chan.as_mut()), 1, "only the committed row");
    // What the worker knows of the outcomes is what it knew before.
    assert!(matches!(
        f.worker.backup_state(committed),
        harbor_dist::WireTxnState::Committed(_)
    ));
    assert_eq!(
        f.worker.backup_state(aborted),
        harbor_dist::WireTxnState::Aborted
    );
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A begin is refused while the id is still open from a predecessor whose
/// session was poisoned and has not been seen to close. The refusal is
/// exactly one `Err` — the frame under the marker is not executed and gets
/// no reply of its own — so the refused session stays in step, and the
/// predecessor is rolled back by its own disconnect, not by the newcomer.
#[test]
fn a_refused_begin_is_one_reply_and_leaves_the_session_in_step() {
    let f = build("marker-refused");
    let tid = TransactionId::from_parts(SiteId(0), 31);
    let mut poisoned = f.connect();
    assert!(matches!(
        call(poisoned.as_mut(), &begin(tid, insert(tid, 1))).unwrap(),
        Response::Ok
    ));
    let mut chan = f.connect();
    match call(chan.as_mut(), &begin(tid, insert(tid, 2))).unwrap() {
        Response::Err(DbError::BeginRefused { tid: refused, .. }) => assert_eq!(refused, tid),
        other => panic!("{other:?}"),
    }
    // In step: each later request gets its own answer, not a stale one.
    assert!(matches!(
        call(chan.as_mut(), &Request::Ping).unwrap(),
        Response::Ok
    ));
    match call(chan.as_mut(), &Request::QueryTxnState { tid }).unwrap() {
        Response::TxnState { state } => assert_eq!(state, harbor_dist::WireTxnState::Pending),
        other => panic!("{other:?}"),
    }
    assert_eq!(all_rows(chan.as_mut()), 1, "the refused insert did not run");
    // The refused session closing ends nothing; the poisoned one does.
    drop(chan);
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert!(f.engine.txn_status(tid).is_some());
    drop(poisoned);
    let mut probe = f.connect();
    for _ in 0..100 {
        if f.engine.txn_status(tid).is_none() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        f.engine.txn_status(tid).is_none(),
        "rolled back on disconnect"
    );
    assert_eq!(all_rows(probe.as_mut()), 0);
    assert_eq!(f.engine.locks().held_count(), 0);
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn disk_backed_worker_survives_restart_of_its_server() {
    let f = build("restart-server");
    let t = f.txn(
        1,
        vec![UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(7), Value::Int32(70)],
        }],
    );
    f.engine.checkpoint().unwrap();
    // Stop and restart only the server (same engine, new listener).
    f.worker.stop();
    let worker2 = Worker::start(
        f.engine.clone(),
        f.transport.clone(),
        WorkerConfig {
            site: SiteId(1),
            addr: "rpc-restart-server-2".into(),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: HashMap::new(),
            coordinator: None,
            auto_consensus: false,
            faults: Default::default(),
        },
    )
    .unwrap();
    let mut chan = f.transport.connect(worker2.addr()).unwrap();
    let rows = rows_of(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap();
    assert_eq!(rows.len(), 1);
    worker2.stop();
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A worker that trips over a checksum-corrupt page of its own must
/// surface `Corrupt` to the remote caller — the site-local, *repairable*
/// classification — not a timeout or disconnect (which would mark the
/// site dead and strike it from recovery plans) and not an opaque
/// protocol error (which recovery treats as fatal). A deletion query,
/// answered from the deletion log, fails the same way when a row the log
/// lists sits on the bad page: an answer without that row would lose the
/// deletion instead of moving the range to another buddy.
#[test]
fn corrupt_page_classifies_as_corrupt_over_the_wire() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let f = build("corrupt-wire");
    let rows: Vec<Vec<Value>> = (0..200i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t_load = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    // Row 0 sits on the table's first data page, the one flipped below.
    let t = f.txn(
        2,
        vec![UpdateRequest::DeleteWhere {
            table: "t".into(),
            pred: Expr::col(2).eq(Expr::lit(0i64)),
        }],
    );
    let mut deletions = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t));
    deletions.ids_and_deletions_only = true;
    deletions.del_after = Some(t_load);
    deletions.ins_at_or_before = Some(t_load);
    let pairs = rows_of(f.connect().as_mut(), &deletions).unwrap();
    assert_eq!(
        pairs,
        vec![Tuple::new(vec![Value::Int64(0), Value::Time(t)])]
    );
    // Push the pages to disk, drop every resident frame (so the scan must
    // fault the bad page back in), and flip one payload bit behind the
    // worker's back.
    let def = f.engine.table_def("t").unwrap();
    f.engine.pool().flush_all().unwrap();
    let heap = f.engine.pool().table(def.id).unwrap();
    f.engine.pool().deregister_table(def.id);
    f.engine.pool().register_table(heap);
    let path = f.dir.join(format!("t{}.tbl", def.id.0));
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let off = harbor_common::config::PAGE_SIZE as u64 + 40;
    file.seek(SeekFrom::Start(off)).unwrap();
    let mut b = [0u8; 1];
    file.read_exact(&mut b).unwrap();
    b[0] ^= 0x01;
    file.seek(SeekFrom::Start(off)).unwrap();
    file.write_all(&b).unwrap();
    file.sync_all().unwrap();

    let mut chan = f.connect();
    let err = rows_of(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap_err();
    assert!(err.is_corrupt(), "expected Corrupt classification: {err}");
    assert!(
        !err.is_timeout() && !err.is_disconnect(),
        "corruption is not a liveness failure: {err}"
    );
    let err = rows_of(f.connect().as_mut(), &deletions).unwrap_err();
    assert!(
        err.is_corrupt(),
        "a deletion query skipped a bad page: {err}"
    );
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// What a worker's failures are on the far side of the wire: damage keeps
/// its class and fields (site-local, repairable), and nothing else is
/// mistaken for it or for the worker's death.
#[test]
fn remote_errors_arrive_as_themselves() {
    use harbor_common::TableId;
    let crossed = |e: DbError| match Response::from_slice(&Response::Err(e).to_vec()).unwrap() {
        Response::Err(e) => e,
        other => panic!("{other:?}"),
    };
    // What a worker sends when a scan hits a bad checksum.
    let damaged = DbError::CorruptPage {
        table: TableId(1),
        page: 3,
    };
    let e = crossed(damaged.clone());
    assert_eq!(e, damaged);
    assert!(e.is_corrupt() && !e.is_timeout() && !e.is_disconnect());
    assert_eq!(
        crossed(DbError::corrupt("directory header")),
        DbError::Corrupt("directory header".into())
    );
    let e = crossed(DbError::protocol("unexpected frame"));
    assert_eq!(e, DbError::Protocol("unexpected frame".into()));
    assert!(!e.is_corrupt());
}

/// Phase 3's handshake (§5.4.1) retries a deadlock timeout and nothing
/// else, so the two must arrive apart: a held X lock is `LockTimeout`
/// naming the table, an unknown table is not.
#[test]
fn table_lock_replies_tell_a_timeout_from_a_missing_table() {
    let f = build("table-lock");
    let holder = TransactionId::from_parts(SiteId(0), 51);
    let recoverer = TransactionId::from_parts(SiteId(2), 0x7ec0);
    let table_id = f.engine.table_def("t").unwrap().id;
    f.engine.begin(holder).unwrap();
    f.engine
        .locks()
        .acquire(
            holder,
            harbor_storage::LockKey::Table(table_id),
            harbor_storage::LockMode::Exclusive,
        )
        .unwrap();
    let mut chan = f.connect();
    let lock = |table: &str| Request::AcquireTableLock {
        tid: recoverer,
        table: table.into(),
    };
    match call(chan.as_mut(), &lock("t")).unwrap() {
        Response::Err(DbError::LockTimeout { txn, what }) => {
            assert_eq!(txn, recoverer);
            assert!(what.contains(&table_id.to_string()), "{what}");
        }
        other => panic!("{other:?}"),
    }
    match call(chan.as_mut(), &lock("nope")).unwrap() {
        Response::Err(DbError::Schema(m)) => assert!(m.contains("nope"), "{m}"),
        other => panic!("{other:?}"),
    }
    f.engine.locks().release_all(holder);
    assert!(matches!(
        call(chan.as_mut(), &lock("t")).unwrap(),
        Response::Ok
    ));
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn workers_reject_coordinator_only_requests() {
    let f = build("coord-only");
    let mut chan = f.connect();
    match call(chan.as_mut(), &Request::GetTime).unwrap() {
        Response::Err(DbError::Protocol(m)) => assert!(m.contains("coordinator"), "{m}"),
        other => panic!("{other:?}"),
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The deletion-log fast path must return exactly what the segment scan
/// returns, for every recovery deletion-query shape. The segment scan is the
/// same query shipping whole rows, which the log cannot answer, projected to
/// the `(tuple_id, deletion_time)` pairs the deletion query ships.
#[test]
fn deletion_log_fast_path_matches_segment_scan() {
    let run_workload = |f: &Fixture| -> (Timestamp, Timestamp) {
        let rows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| vec![Value::Int64(i), Value::Int32(0)])
            .collect();
        let t_load = f.txn(
            1,
            vec![UpdateRequest::InsertMany {
                table: "t".into(),
                rows,
            }],
        );
        // Deletions at several distinct times, including an update (which
        // deletes the old version).
        f.txn(
            2,
            vec![UpdateRequest::DeleteWhere {
                table: "t".into(),
                pred: Expr::col(2).lt(Expr::lit(20i64)),
            }],
        );
        f.txn(
            3,
            vec![UpdateRequest::UpdateByKey {
                table: "t".into(),
                key: 50,
                set: vec![(1, Value::Int32(9))],
            }],
        );
        let t_end = f.txn(
            4,
            vec![UpdateRequest::DeleteWhere {
                table: "t".into(),
                pred: Expr::col(2).ge(Expr::lit(190i64)),
            }],
        );
        (t_load, t_end)
    };
    // `(key, deletion time)` of what a deletion query with these bounds
    // finds: from the log as a recovering site asks it, or from the
    // segments as the same scan shipping whole rows.
    let query = |f: &Fixture, after: Timestamp, hwm: Timestamp, ids_only: bool| {
        let mut chan = f.connect();
        let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(hwm));
        scan.ids_and_deletions_only = ids_only;
        scan.del_after = Some(after);
        scan.ins_at_or_before = Some(after);
        // A whole row's key follows its two version columns.
        let key = if ids_only { 0 } else { 2 };
        let mut out: Vec<(i64, u64)> = rows_of(chan.as_mut(), &scan)
            .unwrap()
            .iter()
            .map(|t| (t.get(key).as_i64().unwrap(), t.get(1).as_time().unwrap().0))
            .collect();
        out.sort();
        out
    };
    let f = build("dlog");
    let (t_load, t_end) = run_workload(&f);
    for (after, hwm) in [
        (t_load, t_end),                  // everything since the load
        (t_load, Timestamp(t_end.0 - 1)), // HWM masks the last deletion
        (Timestamp(t_load.0 + 1), t_end), // skip the first deletion wave
        (t_end, t_end),                   // nothing qualifies
        // Nothing comes after the last time (a peer may ask).
        (Timestamp::UNCOMMITTED, Timestamp::UNCOMMITTED),
    ] {
        let log = query(&f, after, hwm, true);
        let segments = query(&f, after, hwm, false);
        assert_eq!(
            log, segments,
            "log/segment divergence at after={after} hwm={hwm}"
        );
    }
    assert!(!query(&f, t_load, t_end, true).is_empty());
    let _ = std::fs::remove_dir_all(&f.dir);
}
