//! Criterion microbenchmarks for the substrate: page operations, segment
//! pruning, the lock manager, WAL append/force (group commit on and off),
//! the wire codec, and the visibility check. These back the design notes in
//! DESIGN.md; the paper figures live in the dedicated `fig6_*`/`table4_*`
//! targets.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use harbor_bench::{BenchReport, Scale};
use harbor_common::codec::Wire;
use harbor_common::time::visible_at;
use harbor_common::{DiskProfile, Metrics, PageId, SiteId, TableId, Timestamp, TransactionId};
use harbor_storage::{page_crc, slots_per_page, LockKey, LockManager, LockMode, Page, ScanBounds};
use harbor_wal::record::{LogPayload, LogRecord};
use harbor_wal::{GroupCommit, LogManager, Lsn};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `HARBOR_BENCH_SMOKE=1` (the CI bench-smoke job) runs only the scan
/// section — enough to produce and validate `BENCH_scan.json` quickly.
fn smoke_only() -> bool {
    std::env::var_os("HARBOR_BENCH_SMOKE").is_some()
}

const TUPLE: usize = 72;

fn tuple_bytes(id: u64) -> Vec<u8> {
    let mut v = vec![0u8; TUPLE];
    v[..8].copy_from_slice(&u64::MAX.to_le_bytes());
    v[16..24].copy_from_slice(&id.to_le_bytes());
    v
}

fn bench_page(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("page");
    g.bench_function("insert_until_full", |b| {
        let cap = slots_per_page(TUPLE);
        let data = tuple_bytes(7);
        b.iter_batched(
            || Page::init(TUPLE),
            |mut p| {
                for _ in 0..cap {
                    p.insert(black_box(&data)).unwrap();
                }
                p
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("scan_occupied", |b| {
        let mut p = Page::init(TUPLE);
        let cap = slots_per_page(TUPLE);
        for i in 0..cap {
            p.insert(&tuple_bytes(i as u64)).unwrap();
        }
        b.iter(|| {
            let mut acc = 0u64;
            for s in p.occupied_slots() {
                acc = acc.wrapping_add(p.read(s).unwrap()[16] as u64);
            }
            black_box(acc)
        });
    });
    g.bench_function("set_timestamp_in_place", |b| {
        let mut p = Page::init(TUPLE);
        let slot = p.insert(&tuple_bytes(1)).unwrap();
        let mut t = 1u64;
        b.iter(|| {
            t += 1;
            p.set_timestamp(slot, harbor_wal::record::TsField::Deletion, Timestamp(t))
                .unwrap();
        });
    });
    g.finish();
}

fn bench_visibility_and_pruning(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("visibility");
    g.bench_function("visible_at", |b| {
        b.iter(|| {
            let mut n = 0;
            for i in 0..1000u64 {
                if visible_at(
                    black_box(Timestamp(i)),
                    black_box(Timestamp(if i % 3 == 0 { i + 5 } else { 0 })),
                    black_box(Timestamp(500)),
                ) {
                    n += 1;
                }
            }
            black_box(n)
        });
    });
    g.bench_function("segment_prune_decision", |b| {
        let meta = harbor_storage::SegmentMeta {
            tmin_insert: Timestamp(100),
            tmax_insert: Timestamp(200),
            tmax_delete: Timestamp(150),
            start_page: 1,
            page_count: 16,
        };
        let bounds = ScanBounds {
            ins_after: Some(Timestamp(180)),
            del_after: Some(Timestamp(149)),
            ..Default::default()
        };
        b.iter(|| black_box(bounds.segment_may_match(black_box(3), black_box(&meta))));
    });
    g.finish();
}

fn bench_lock_manager(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("lock_manager");
    let tid = TransactionId::from_parts(SiteId(0), 1);
    g.bench_function("acquire_release_x", |b| {
        let m = LockManager::new(Duration::from_millis(100), Metrics::new());
        let key = LockKey::Page(PageId::new(TableId(1), 0));
        b.iter(|| {
            m.acquire(tid, key, LockMode::Exclusive).unwrap();
            m.release_all(tid);
        });
    });
    g.bench_function("acquire_100_then_release_all", |b| {
        let m = LockManager::new(Duration::from_millis(100), Metrics::new());
        b.iter(|| {
            for i in 0..100 {
                m.acquire(
                    tid,
                    LockKey::Page(PageId::new(TableId(1), i)),
                    LockMode::Shared,
                )
                .unwrap();
            }
            m.release_all(tid);
        });
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("wal");
    let dir = std::env::temp_dir().join("harbor-micro-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let tid = TransactionId::from_parts(SiteId(0), 1);
    let rec = LogRecord::new(
        tid,
        Lsn::NONE,
        LogPayload::Commit {
            commit_time: Timestamp(1),
        },
    );
    g.bench_function("append", |b| {
        let path = dir.join(format!("append-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = LogManager::open(
            &path,
            GroupCommit::enabled(),
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap();
        b.iter(|| black_box(log.append(&rec)));
    });
    g.bench_function("append_forced_no_fsync", |b| {
        let path = dir.join(format!("forced-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = LogManager::open(
            &path,
            GroupCommit::enabled(),
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap();
        b.iter(|| log.append_forced(&rec).unwrap());
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("codec");
    let tid = TransactionId::from_parts(SiteId(1), 42);
    let rec = LogRecord::new(
        tid,
        Lsn(123),
        LogPayload::Update(harbor_wal::record::RedoOp::InsertTuple {
            rid: harbor_common::RecordId::new(PageId::new(TableId(3), 9), 4),
            data: tuple_bytes(9),
        }),
    );
    g.bench_function("log_record_encode", |b| {
        b.iter(|| black_box(rec.to_vec()));
    });
    let bytes = rec.to_vec();
    g.bench_function("log_record_decode", |b| {
        b.iter(|| black_box(LogRecord::from_slice(&bytes).unwrap()));
    });
    g.finish();
}

/// A scan-sized streaming response (what the recovery fast path ships).
fn tuples_response(rows: usize) -> harbor_dist::Response {
    let batch = (0..rows)
        .map(|i| {
            harbor_common::Tuple::versioned(
                Timestamp(10 + i as u64),
                Timestamp::ZERO,
                harbor_workload::paper_row(i as i64),
            )
        })
        .collect();
    harbor_dist::Response::Tuples { batch, done: false }
}

fn bench_transport(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut g = c.benchmark_group("transport");
    // Encoding a streamed batch: the frame that is moved into `send`.
    let resp = tuples_response(512);
    g.bench_function("frame_batch_encode", |b| {
        b.iter(|| black_box(resp.to_vec()));
    });
    // Shipping it over TCP loopback into a draining peer: the length prefix
    // and the payload in one vectored write. Each sample sends a frame of
    // its own, copied outside the timed section.
    use harbor_net::Transport;
    let transport = harbor_net::TcpTransport::new(Metrics::new());
    let listener = transport.listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let sink = std::thread::spawn(move || {
        let mut chan = listener
            .accept_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("a connection");
        // Drains until the sender hangs up; an idle second is no end.
        while chan.recv_timeout(Duration::from_secs(1)).is_ok() {}
    });
    let mut chan = transport.connect(&addr).unwrap();
    let frame = resp.to_vec();
    g.bench_function("tcp_send", |b| {
        b.iter_batched(
            || frame.clone(),
            |frame| chan.send(black_box(frame)).unwrap(),
            BatchSize::SmallInput,
        );
    });
    drop(chan);
    sink.join().unwrap();
    g.finish();
}

/// The read- and apply-hot-path microbenchmark behind `BENCH_scan.json`:
/// one hot (fully resident) table, timed with manual median-of-N wall
/// clocks so the JSON baseline carries exact nanosecond medians (and the
/// fastest and slowest sample) rather than the shim's mean. Every row runs
/// shipped code: the decode sink (`SeqScan`), an index probe, the worker's
/// scan service loop (`ship_scan`) with the frames dropped instead of sent,
/// and — the same rows going the other way — the recovering site's
/// `RecoveredInserter` fed tuples (`apply_rows`) and fed `ship_zero_copy`'s
/// own frames (`apply_wire`), each into a table of its own, and fed
/// `snapshot_reads`' load of history (`load_history`); and the key
/// index fed keys in no order (`index_random`), its worst case, and fed a
/// load of history (`index_history`), its common one.
fn bench_scan(_c: &mut Criterion) {
    use harbor_common::RecordId;
    use harbor_common::{FieldType, StorageConfig, Tuple, Value};
    use harbor_dist::message::open_tuples_frame;
    use harbor_dist::{ship_scan, RemoteScan, WireReadMode};
    use harbor_engine::{Engine, EngineOptions, KeyIndex, KEY_OFFSET};
    use harbor_exec::{collect, index_lookup, Expr, ReadMode, SeqScan};

    let scale = Scale::from_env();
    let rows: i64 = if smoke_only() {
        2_000
    } else {
        scale.pick(10_000, 50_000, 200_000)
    };
    let iters = if smoke_only() { 3 } else { 9 };

    let dir = std::env::temp_dir().join(format!("harbor-micro-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageConfig {
        buffer_pool_pages: 8192,
        ..StorageConfig::for_tests()
    };
    let e = Engine::open(&dir, EngineOptions::harbor(SiteId(0), storage)).unwrap();
    let def = e
        .create_table(
            "t",
            vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
                ("pad".into(), FieldType::FixedStr(16)),
            ],
        )
        .unwrap();
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            let del = if i % 2 == 0 {
                Timestamp::ZERO
            } else {
                Timestamp(20)
            };
            Tuple::versioned(
                Timestamp(10),
                del,
                vec![
                    Value::Int64(i),
                    Value::Int32((i % 1000) as i32),
                    Value::Str(format!("row-{i:08}")),
                ],
            )
        })
        .collect();
    let mut inserter = e.recovered_inserter(def.id).unwrap();
    for t in &tuples {
        inserter.insert(t).unwrap();
    }
    inserter.flush().unwrap();
    drop(inserter);
    // An empty copy of the table for every sample of an apply row (and its
    // warm-up), created before anything is timed.
    let empty_copies = |tag: &str| -> Vec<TableId> {
        (0..=iters)
            .map(|k| {
                e.create_table(&format!("{tag}{k}"), def.user_fields.clone())
                    .unwrap()
                    .id
            })
            .collect()
    };
    let (mut rows_targets, mut wire_targets) = (empty_copies("rows"), empty_copies("wire"));
    // Flush populates the per-page zone maps, so the scan exercises its
    // fully-visible fast path exactly as a warm production replica would.
    e.pool().flush_all().unwrap();
    let pool = e.pool().clone();

    let mut report = BenchReport::new("scan");
    report
        .config("scale", format!("{scale:?}"))
        .config("smoke", smoke_only())
        .config("rows", rows)
        .config("iters", iters)
        .config("deleted_fraction", "0.5")
        .config("pool_shards", pool.num_shards())
        .environment();

    // `units` is what one call of `f` is divided by: the table's rows for a
    // scan, 1 for a lookup.
    let mut measure = |name: &str, units: u64, mut f: Box<dyn FnMut() -> usize + '_>| {
        let expect = f(); // warm-up: pool resident, branch predictors primed
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let n = black_box(f());
            samples.push(t0.elapsed().as_nanos());
            assert_eq!(n, expect, "{name}: unstable cardinality");
        }
        samples.sort_unstable();
        let med = samples[iters / 2];
        println!(
            "scan/{name:<36} {:>10.1} ns/{}  ({} rows)",
            med as f64 / units as f64,
            if units == 1 { "lookup" } else { "row" },
            expect
        );
        let spread = [
            ("min_ns", samples[0].to_string()),
            ("max_ns", samples[iters - 1].to_string()),
        ];
        report.entry_with(name, med, units, &spread);
    };
    let ship = |scan: &RemoteScan| {
        let (mut shipped, mut bytes) = (0usize, 0usize);
        ship_scan(&e, scan, |frame, done| {
            shipped += frame.rows() as usize;
            bytes += frame.finish(done).len();
            Ok(())
        })
        .unwrap();
        black_box(bytes);
        shipped
    };

    measure(
        "seq_scan",
        rows as u64,
        Box::new(|| {
            let mut s =
                SeqScan::new(pool.clone(), def.id, ReadMode::Historical(Timestamp(15))).unwrap();
            collect(&mut s).unwrap().len()
        }),
    );
    // Point reads: one key per iteration — full-scan-and-filter against the
    // tuple-id index (thesis §5.3), each reported per lookup.
    let probe_key = rows / 2;
    measure(
        "point_read_scan",
        1,
        Box::new(|| {
            let mut s =
                SeqScan::new(pool.clone(), def.id, ReadMode::Historical(Timestamp(15))).unwrap();
            collect(&mut s)
                .unwrap()
                .iter()
                .filter(|t| t.get(2) == Value::Int64(probe_key))
                .count()
        }),
    );
    measure(
        "point_read_index",
        1,
        Box::new(|| {
            index_lookup(&e, def.id, probe_key, ReadMode::Historical(Timestamp(15)))
                .unwrap()
                .len()
        }),
    );
    measure(
        "recovery_range_scan",
        rows as u64,
        Box::new(|| {
            let mut s = SeqScan::new(
                pool.clone(),
                def.id,
                ReadMode::SeeDeletedHistorical(Timestamp(25)),
            )
            .unwrap();
            collect(&mut s).unwrap().len()
        }),
    );
    measure(
        "ship_zero_copy",
        rows as u64,
        Box::new(|| {
            ship(&RemoteScan::new(
                "t",
                WireReadMode::SeeDeletedHistorical(Timestamp(25)),
            ))
        }),
    );
    measure(
        "ship_filtered",
        rows as u64,
        Box::new(|| {
            let mut scan = RemoteScan::new("t", WireReadMode::Historical(Timestamp(15)));
            scan.predicate = Some(Expr::col(3).lt(Expr::lit(500)));
            ship(&scan)
        }),
    );

    measure(
        "apply_rows",
        rows as u64,
        Box::new(|| {
            let target = rows_targets.pop().expect("a table a sample");
            let mut inserter = e.recovered_inserter(target).unwrap();
            for t in &tuples {
                inserter.insert(black_box(t)).unwrap();
            }
            inserter.flush().unwrap();
            tuples.len()
        }),
    );
    let mut frames = Vec::new();
    ship_scan(
        &e,
        &RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(25))),
        |frame, done| {
            frames.push(frame.finish(done));
            Ok(())
        },
    )
    .unwrap();
    measure(
        "apply_wire",
        rows as u64,
        Box::new(|| {
            let target = wire_targets.pop().expect("a table a sample");
            let mut inserter = e.recovered_inserter(target).unwrap();
            let mut applied = 0;
            for frame in &frames {
                let (_, rows, mut wire) = open_tuples_frame(black_box(frame))
                    .unwrap()
                    .expect("a tuples frame");
                inserter.insert_wire(rows, &mut wire, |_| {}).unwrap();
                applied += rows;
            }
            applied
        }),
    );
    // `snapshot_reads`' load: paper rows (a key and thirteen `Int32`s) in
    // key order, every fourth key's superseded version beside its successor,
    // staged and placed a page at a time into an empty table of their own;
    // reported per row.
    let paper: Vec<(String, FieldType)> = std::iter::once(("id".into(), FieldType::Int64))
        .chain((0..13).map(|i| (format!("f{i}"), FieldType::Int32)))
        .collect();
    let history_rows: Vec<Tuple> = (0..rows)
        .flat_map(|id| {
            let at = 2 + (id as u64 / 4) % 1000;
            let fields = |v: i32| {
                std::iter::once(Value::Int64(id))
                    .chain((0..13).map(move |i| Value::Int32(v + i)))
                    .collect::<Vec<_>>()
            };
            let old =
                (id % 4 == 0).then(|| Tuple::versioned(Timestamp(1), Timestamp(at), fields(-1)));
            let new = match old {
                Some(_) => Tuple::versioned(Timestamp(at), Timestamp::ZERO, fields(id as i32)),
                None => Tuple::versioned(Timestamp(1), Timestamp::ZERO, fields(id as i32)),
            };
            old.into_iter().chain([new])
        })
        .collect();
    let mut history_targets: Vec<TableId> = (0..=iters)
        .map(|k| {
            e.create_table(&format!("hist{k}"), paper.clone())
                .unwrap()
                .id
        })
        .collect();
    measure(
        "load_history",
        history_rows.len() as u64,
        Box::new(|| {
            let target = history_targets.pop().expect("a table a sample");
            let mut inserter = e.recovered_inserter(target).unwrap();
            for t in &history_rows {
                inserter.insert(black_box(t)).unwrap();
            }
            inserter.flush().unwrap();
            history_rows.len()
        }),
    );
    // The key index's worst case: keys in no order, so no two form a run.
    // Each sample registers them in a fresh index, a page of slots at a
    // time, then looks every one up; reported per key.
    const KEYS: u64 = 100_000;
    let scattered: Vec<(i64, RecordId)> = (0..KEYS)
        .map(|i| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) as i64;
            let rid = RecordId::new(PageId::new(def.id, (i / 64) as u32), (i % 64) as u16);
            (key, rid)
        })
        .collect();
    measure(
        "index_random",
        KEYS,
        Box::new(|| {
            let index = KeyIndex::fresh(def.id, KEY_OFFSET);
            for chunk in scattered.chunks(64) {
                index.insert_run(black_box(chunk).iter().copied());
            }
            let found = scattered.iter().map(|(key, _)| {
                let versions = index.lookup(&pool, black_box(*key)).unwrap();
                versions.len()
            });
            found.sum()
        }),
    );
    // The index's common case, `snapshot_reads`' load: keys in order with
    // every fourth key's superseded version beside its successor, registered
    // a page of 53 slots at a time as the inserter places paper rows, then
    // every key looked up; reported per key.
    const PAPER_SLOTS: usize = 53;
    let history: Vec<(i64, RecordId)> = (0..KEYS as i64)
        .flat_map(|key| std::iter::repeat_n(key, if key % 4 == 0 { 2 } else { 1 }))
        .enumerate()
        .map(|(i, key)| {
            let page = PageId::new(def.id, (i / PAPER_SLOTS) as u32);
            (key, RecordId::new(page, (i % PAPER_SLOTS) as u16))
        })
        .collect();
    measure(
        "index_history",
        KEYS,
        Box::new(|| {
            let index = KeyIndex::fresh(def.id, KEY_OFFSET);
            for page in history.chunks(PAPER_SLOTS) {
                index.insert_run(black_box(page).iter().copied());
            }
            let found = (0..KEYS as i64).map(|key| {
                let versions = index.lookup(&pool, black_box(key)).unwrap();
                versions.len()
            });
            found.sum()
        }),
    );
    let image = pool
        .with_page(None, PageId::new(def.id, 1), |p| Ok(*p.as_bytes()))
        .unwrap();
    const PAGES: usize = 1000;
    measure(
        "page_checksum",
        PAGES as u64,
        Box::new(|| {
            let sum = (0..PAGES).fold(0u32, |acc, _| acc ^ page_crc(black_box(&image)));
            black_box(sum);
            PAGES
        }),
    );
    // A checkpoint of a freshly bulk-loaded copy of the table (the same rows,
    // recycled to a fixed count, so smoke and full runs write alike): the
    // write-back of every page the load dirtied, in runs, then the
    // directory, the sync and the record. Each copy is a site of its own,
    // loaded before the clock starts; reported per page written.
    const CKPT_ROWS: usize = 40_000;
    let copy_storage = StorageConfig {
        buffer_pool_pages: 8192,
        segment_pages: 64,
        ..StorageConfig::for_tests()
    };
    let (mut samples, mut pages) = (Vec::with_capacity(iters), 0);
    for k in 0..=iters {
        let site = Engine::open(
            dir.join(format!("ckpt{k}")),
            EngineOptions::harbor(SiteId(0), copy_storage.clone()),
        )
        .unwrap();
        let copy = site.create_table("t", def.user_fields.clone()).unwrap();
        let mut inserter = site.recovered_inserter(copy.id).unwrap();
        for t in tuples.iter().cycle().take(CKPT_ROWS) {
            inserter.insert(t).unwrap();
        }
        inserter.flush().unwrap();
        drop(inserter);
        pages = site.pool().dirty_pages().len();
        let t0 = Instant::now();
        site.checkpoint().unwrap();
        let elapsed = t0.elapsed().as_nanos();
        // The first copy warms the path up.
        if k > 0 {
            samples.push(elapsed);
        }
    }
    samples.sort_unstable();
    let med = samples[iters / 2];
    println!(
        "scan/{:<36} {:>10.1} ns/page  ({pages} pages)",
        "checkpoint_flush",
        med as f64 / pages as f64
    );
    let spread = [
        ("min_ns", samples[0].to_string()),
        ("max_ns", samples[iters - 1].to_string()),
    ];
    report.entry_with("checkpoint_flush", med, pages as u64, &spread);

    report.write().expect("write BENCH_scan.json");
    drop((e, pool));
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(30);
    targets = bench_page, bench_visibility_and_pruning, bench_lock_manager, bench_wal, bench_codec,
        bench_transport, bench_scan
}
criterion_main!(benches);
