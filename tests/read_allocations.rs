//! A historical read allocates per reply frame, not per row.
//!
//! A three-worker in-memory cluster is loaded directly, every site the same
//! rows plus an older version of every fourth key. Then the coordinator
//! reads the table at a fixed time three times: a full read; a filter on a
//! column that is not the key, which selects the rows of a 1 % key range,
//! so the worker walks every page and tests the predicate on every visible
//! row; and that key range itself, which the worker answers from the key
//! index. Each runs once to warm the sessions, zone maps and pool, then once
//! under `harbor_bench`'s counting allocator, which sees every thread of the
//! process: the worker that examines and ships the rows, the transport, and
//! the coordinator that reads them off the replies.
//!
//! * The full read may make at most three allocations for each frame the
//!   worker sends, and allocate less than twice the wire bytes of the rows
//!   it returns: the frames, once, and a handle a row. A reply row that
//!   copies its bytes out of the frame breaks both, and so does a frame
//!   copied on its way through the transport.
//! * The filter may make at most [`PER_FRAME`] allocations for each frame
//!   the worker sends, its closing status frame included: the read's own
//!   fixed cost (its request, the worker's decode of it, the page list, the
//!   session) fits in that. A predicate evaluated on a decoded row costs
//!   one for every row examined.
//! * The key range may make at most [`KEY_RANGE_PER_FRAME`] for each frame:
//!   its fixed cost and the one range lookup's stretches. Its frames are
//!   few and its keys many, so one allocation a key breaks it.
//!
//! The counters are process-wide, so this binary holds one test.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_bench::alloc_count::{Counting, Counts};
use harbor_common::codec::Encoder;
use harbor_common::config::SCAN_BATCH;
use harbor_common::{DiskProfile, StorageConfig, Timestamp, Tuple, Value};
use harbor_dist::ProtocolKind;
use harbor_exec::Expr;
use harbor_workload::paper_row;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TABLE: &str = "facts";
/// Keys visible at [`AS_OF`]; every fourth also has an older version.
const KEYS: i64 = 30_000;
/// The read time: every current version is committed by then.
const AS_OF: u64 = 101;
/// Allocations a filtered read may make for each frame it ships.
const PER_FRAME: u64 = 48;
/// Allocations a key-range read may make for each frame it ships.
const KEY_RANGE_PER_FRAME: u64 = 24;

/// The stored versions of key `id`: an older one replaced at a time in
/// `2..AS_OF` for every fourth key, then the current one.
fn versions(id: i64) -> Vec<Tuple> {
    let row = |f0: i32, ins: u64, del: u64| {
        let mut values = paper_row(id);
        values[1] = Value::Int32(f0);
        Tuple::versioned(Timestamp(ins), Timestamp(del), values)
    };
    match id % 4 {
        0 => {
            let at = 2 + (id as u64 / 4) % (AS_OF - 2);
            vec![row(-1, 1, at), row(id as i32, at, 0)]
        }
        _ => vec![row(id as i32, 1, 0)],
    }
}

fn dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("harbor-read-allocs-{}", std::process::id()))
}

fn loaded_cluster() -> Cluster {
    let dir = dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig {
        buffer_pool_pages: 4096,
        segment_pages: 64,
        disk: DiskProfile::fast(),
        lock_timeout: Duration::from_millis(500),
    };
    cfg.tables = vec![TableSpec::paper_table(TABLE)];
    let cluster = Cluster::build(&dir, cfg).unwrap();
    for site in cluster.worker_sites() {
        let engine = cluster.engine(site).unwrap();
        let table = engine.table_def(TABLE).unwrap().id;
        let mut inserter = engine.recovered_inserter(table).unwrap();
        for row in (0..KEYS).flat_map(versions) {
            inserter.insert(&row).unwrap();
        }
        inserter.flush().unwrap();
        drop(inserter);
        engine.advance_applied_clock(Timestamp(AS_OF));
    }
    let authority = cluster.coordinator().authority();
    authority.advance_to(Timestamp(AS_OF));
    cluster
}

/// The rows a read at [`AS_OF`] returns, and what the second of two runs
/// allocated.
fn counted_read(cluster: &Cluster, pred: Option<Expr>) -> (Vec<Tuple>, Counts) {
    let read = || {
        let pred = pred.clone();
        let coordinator = cluster.coordinator();
        coordinator.read_historical(TABLE, Timestamp(AS_OF), |s| s.predicate = pred)
    };
    let warm = read().unwrap();
    drop(warm);
    let before = Counts::now();
    let rows = read().unwrap();
    let counts = Counts::now().since(before);
    (rows, counts)
}

#[test]
fn a_historical_read_allocates_per_frame_not_per_row() {
    let cluster = loaded_cluster();

    let (rows, full) = counted_read(&cluster, None);
    assert_eq!(rows.len() as i64, KEYS);
    let full_frames = (rows.len() / SCAN_BATCH + 2) as u64;
    let mut wire = Encoder::new();
    rows.iter().for_each(|r| r.write_wire(&mut wire));
    let wire_bytes = wire.len();
    println!(
        "full read: {} rows ({wire_bytes} wire bytes) in at most {full_frames} frames, \
         {} allocations, {} bytes",
        rows.len(),
        full.allocations,
        full.bytes
    );
    drop(rows);

    let span = KEYS / 100;
    let (lo, hi) = (KEYS / 2, KEYS / 2 + span);
    // Stored column 3 is `f0`: the key for a current version, -1 for an
    // older one.
    let not_the_key = Expr::col(3)
        .ge(Expr::lit(lo as i32))
        .and(Expr::col(3).lt(Expr::lit(hi as i32)));
    let key_range = Expr::col(2)
        .ge(Expr::lit(lo))
        .and(Expr::col(2).lt(Expr::lit(hi)));
    let mut reads = Vec::new();
    for (what, pred) in [("filtered", not_the_key), ("key-range", key_range)] {
        let (rows, counts) = counted_read(&cluster, Some(pred));
        assert_eq!(rows.len() as i64, span, "{what}");
        assert!(
            rows.iter()
                .all(|r| (lo..hi).contains(&r.get(2).as_i64().unwrap())),
            "{what}"
        );
        // Every batch but the last holds at least `SCAN_BATCH` rows; then
        // the status frame.
        let frames = (rows.len() / SCAN_BATCH + 2) as u64;
        println!(
            "{what} read: {} of {} stored rows in at most {frames} frames, {} allocations, {} bytes",
            rows.len(),
            KEYS + KEYS / 4,
            counts.allocations,
            counts.bytes
        );
        reads.push((frames, counts));
    }
    let [(frames, filter), (key_frames, key_range)] = &reads[..] else {
        unreachable!()
    };

    assert!(
        full.allocations <= 3 * full_frames,
        "a full read shipping {full_frames} frames made {} allocations",
        full.allocations
    );
    assert!(
        full.bytes < 2 * wire_bytes as u64,
        "a full read of {wire_bytes} wire bytes allocated {} bytes",
        full.bytes
    );
    assert!(
        filter.allocations <= PER_FRAME * frames,
        "a filtered read shipping {frames} frames made {} allocations",
        filter.allocations
    );
    assert!(
        KEY_RANGE_PER_FRAME * key_frames < span as u64,
        "the key-range bound must not leave room for an allocation a key"
    );
    assert!(
        key_range.allocations <= KEY_RANGE_PER_FRAME * key_frames,
        "a key-range read shipping {key_frames} frames made {} allocations",
        key_range.allocations
    );
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(dir());
}
