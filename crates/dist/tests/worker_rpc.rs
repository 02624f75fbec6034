//! Worker-server RPC integration: streamed scans, predicate updates over
//! the wire, failure detection, and the timestamp authority endpoint.

use harbor_common::time::TimestampAuthority;
use harbor_common::{FieldType, Metrics, SiteId, StorageConfig, Timestamp, TransactionId, Value};
use harbor_dist::{
    rpc, scan_rpc, scan_rpc_streaming, ProtocolKind, RemoteScan, Request, Response, UpdateRequest,
    WireReadMode, Worker, WorkerConfig,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_exec::Expr;
use harbor_net::{InMemNetwork, Transport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

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
            use_deletion_log: true,
            scan_batch: harbor_common::config::DEFAULT_SCAN_BATCH,
            crash_schedule: Default::default(),
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
        assert!(matches!(
            rpc(chan.as_mut(), &Request::Begin { tid }).unwrap(),
            Response::Ok
        ));
        for req in reqs {
            match rpc(chan.as_mut(), &Request::Update { tid, req }).unwrap() {
                Response::Ok => {}
                other => panic!("update failed: {other:?}"),
            }
        }
        let bound = self.authority.now();
        match rpc(
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
        rpc(
            chan.as_mut(),
            &Request::PrepareToCommit {
                tid,
                commit_time: t,
            },
        )
        .unwrap();
        rpc(
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
    let tuples = scan_rpc(chan.as_mut(), &scan).unwrap();
    assert_eq!(tuples.len(), 1300);
    // Streaming visitor sees multiple batches.
    let mut batches = 0;
    scan_rpc_streaming(chan.as_mut(), &scan, |b| {
        if !b.is_empty() {
            batches += 1;
        }
        Ok(())
    })
    .unwrap();
    assert!(batches >= 3, "1300 rows should stream in >= 3 batches");
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// A scan wide enough to cross the parallel fan-out threshold must return
/// exactly the serial path's row sequence: the merge drains partitions in
/// page order, so ids come back in insertion order however the worker
/// threads interleave.
#[test]
fn parallel_scan_preserves_serial_row_order() {
    let f = build("par-scan");
    const N: i64 = 2500; // ~18 pages at 28 bytes/tuple: >= 2 partitions
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
    );
    let def = f.engine.table_def("t").unwrap();
    let pages = f.engine.pool().table(def.id).unwrap().all_page_ids().len();
    assert!(
        pages >= 2 * harbor_common::config::PARALLEL_SCAN_MIN_PAGES,
        "fixture too small to trigger the fan-out ({pages} pages)"
    );
    let mut chan = f.connect();
    let tuples = scan_rpc(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap();
    assert_eq!(tuples.len(), N as usize);
    for (i, tup) in tuples.iter().enumerate() {
        assert_eq!(tup.get(2), &Value::Int64(i as i64), "row order diverged");
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn point_read_rpc_respects_visibility() {
    let f = build("point-read");
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
    let point = |chan: &mut Box<dyn harbor_net::Channel>, key: i64, mode: WireReadMode| match rpc(
        chan.as_mut(),
        &Request::PointRead {
            table: "t".into(),
            key,
            mode,
        },
    )
    .unwrap()
    {
        Response::Tuples { batch, done } => {
            assert!(done, "point reads are single-frame");
            batch
        }
        other => panic!("{other:?}"),
    };
    // Latest snapshot: the updated version only.
    let rows = point(&mut chan, 7, WireReadMode::Historical(t2));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(3), &Value::Int32(700));
    // Before the update: the original version.
    let rows = point(&mut chan, 7, WireReadMode::Historical(t1));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(3), &Value::Int32(7));
    // Deleted key: gone at t2, visible at t1.
    assert!(point(&mut chan, 9, WireReadMode::Historical(t2)).is_empty());
    assert_eq!(point(&mut chan, 9, WireReadMode::Historical(t1)).len(), 1);
    // Absent key.
    assert!(point(&mut chan, 5000, WireReadMode::Historical(t2)).is_empty());
    // Unknown table is an error, not a crash.
    match rpc(
        chan.as_mut(),
        &Request::PointRead {
            table: "nope".into(),
            key: 1,
            mode: WireReadMode::Historical(t2),
        },
    )
    .unwrap()
    {
        Response::Err { msg } => assert!(msg.contains("nope")),
        other => panic!("{other:?}"),
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
    let tuples = scan_rpc(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap();
    assert_eq!(tuples.len(), 15);
    let updated = tuples
        .iter()
        .filter(|t| t.get(3) == &Value::Int32(99))
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
    let rows = scan_rpc(chan.as_mut(), &scan).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(2), &Value::Int64(2));
    // ids_and_deletions_only projects to two columns.
    let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t2));
    scan.ids_and_deletions_only = true;
    let rows = scan_rpc(chan.as_mut(), &scan).unwrap();
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
    match rpc(
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
        rpc(chan.as_mut(), &Request::Abort { tid }).unwrap(),
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
    let insert = Request::Update {
        tid,
        req: UpdateRequest::Insert {
            table: "t".into(),
            values: vec![Value::Int64(1), Value::Int32(1)],
        },
    };
    let mut chan = f.connect();
    for (req, want_ack) in [
        (Request::Begin { tid }, false),
        (insert.clone(), false),
        (Request::Abort { tid }, true),
    ] {
        let reply = rpc(chan.as_mut(), &req).unwrap();
        assert!(
            matches!(
                (&reply, want_ack),
                (Response::Ok, false) | (Response::Ack, true)
            ),
            "{reply:?}"
        );
    }
    assert!(matches!(
        rpc(chan.as_mut(), &insert).unwrap(),
        Response::Err { .. }
    ));
    assert_eq!(f.engine.locks().held_count(), 0);
    let scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(1_000)));
    assert!(scan_rpc(chan.as_mut(), &scan).unwrap().is_empty());
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
            use_deletion_log: true,
            scan_batch: harbor_common::config::DEFAULT_SCAN_BATCH,
            crash_schedule: Default::default(),
        },
    )
    .unwrap();
    let mut chan = f.transport.connect(worker2.addr()).unwrap();
    let rows = scan_rpc(
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
/// protocol error (which recovery treats as fatal).
#[test]
fn corrupt_page_classifies_as_corrupt_over_the_wire() {
    use std::io::{Read, Seek, SeekFrom, Write};
    let f = build("corrupt-wire");
    let rows: Vec<Vec<Value>> = (0..200i64)
        .map(|i| vec![Value::Int64(i), Value::Int32(i as i32)])
        .collect();
    let t = f.txn(
        1,
        vec![UpdateRequest::InsertMany {
            table: "t".into(),
            rows,
        }],
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
    let err = scan_rpc(
        chan.as_mut(),
        &RemoteScan::new("t", WireReadMode::Historical(t)),
    )
    .unwrap_err();
    assert!(err.is_corrupt(), "expected Corrupt classification: {err}");
    assert!(
        !err.is_timeout() && !err.is_disconnect(),
        "corruption is not a liveness failure: {err}"
    );
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The wire re-classification rules in isolation: a remote error whose
/// message names corrupt state comes back as `Corrupt` (site-local,
/// repairable), everything else as a protocol violation. Exercises the
/// exact strings the `Display` impls put on the wire.
#[test]
fn remote_error_messages_reclassify() {
    use harbor_common::{DbError, TableId};
    // What a worker actually sends when a scan hits a bad checksum.
    let wire_msg = DbError::CorruptPage {
        table: TableId(1),
        page: 3,
    }
    .to_string();
    let e = DbError::from_remote_msg(wire_msg);
    assert!(e.is_corrupt());
    assert!(!e.is_timeout() && !e.is_disconnect());
    let e = DbError::from_remote_msg(DbError::Corrupt("directory header".into()).to_string());
    assert!(e.is_corrupt());
    let e = DbError::from_remote_msg("unexpected frame");
    assert!(!e.is_corrupt());
    assert!(matches!(e, DbError::Protocol(_)));
}

#[test]
fn workers_reject_coordinator_only_requests() {
    let f = build("coord-only");
    let mut chan = f.connect();
    match rpc(chan.as_mut(), &Request::GetTime).unwrap() {
        Response::Err { msg } => assert!(msg.contains("coordinator")),
        other => panic!("{other:?}"),
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// The deletion-log fast path must return exactly what the segment-scan
/// slow path returns, for every recovery deletion-query shape.
#[test]
fn deletion_log_fast_path_matches_segment_scan() {
    // Build two identical workers: one with the log, one without.
    let build_with = |name: &str, use_log: bool| -> Fixture {
        let mut f = build(name);
        if !use_log {
            // Rebuild the worker with the flag off.
            f.worker.stop();
            let worker = Worker::start(
                f.engine.clone(),
                f.transport.clone(),
                WorkerConfig {
                    site: SiteId(1),
                    addr: format!("rpc-{name}-2"),
                    protocol: ProtocolKind::Opt3pc,
                    checkpoint_every: None,
                    peers: HashMap::new(),
                    coordinator: None,
                    auto_consensus: false,
                    use_deletion_log: false,
                    scan_batch: harbor_common::config::DEFAULT_SCAN_BATCH,
                    crash_schedule: Default::default(),
                },
            )
            .unwrap();
            f.worker = worker;
        }
        f
    };
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
    let query = |f: &Fixture, after: Timestamp, hwm: Timestamp| -> Vec<(i64, u64)> {
        let mut chan = f.connect();
        let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(hwm));
        scan.ids_and_deletions_only = true;
        scan.del_after = Some(after);
        scan.ins_at_or_before = Some(after);
        let mut out: Vec<(i64, u64)> = scan_rpc(chan.as_mut(), &scan)
            .unwrap()
            .iter()
            .map(|t| (t.get(0).as_i64().unwrap(), t.get(1).as_time().unwrap().0))
            .collect();
        out.sort();
        out
    };
    let fast = build_with("dlog-fast", true);
    let slow = build_with("dlog-slow", false);
    let (t_load_f, t_end_f) = run_workload(&fast);
    let (t_load_s, t_end_s) = run_workload(&slow);
    assert_eq!(
        (t_load_f, t_end_f),
        (t_load_s, t_end_s),
        "same logical history"
    );
    for (after, hwm) in [
        (t_load_f, t_end_f),                  // everything since the load
        (t_load_f, Timestamp(t_end_f.0 - 1)), // HWM masks the last deletion
        (Timestamp(t_load_f.0 + 1), t_end_f), // skip the first deletion wave
        (t_end_f, t_end_f),                   // nothing qualifies
    ] {
        let a = query(&fast, after, hwm);
        let b = query(&slow, after, hwm);
        assert_eq!(a, b, "fast/slow divergence at after={after} hwm={hwm}");
    }
    assert!(!query(&fast, t_load_f, t_end_f).is_empty());
    let _ = std::fs::remove_dir_all(&fast.dir);
    let _ = std::fs::remove_dir_all(&slow.dir);
}
