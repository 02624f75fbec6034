//! Concurrent stress test for the sharded buffer pool: readers, appenders,
//! and a capacity small enough to force continuous clock evictions across
//! every shard, all at once. Run twice: with the appenders going through the
//! table's shared insert hint (the transactional path), and with each its
//! own [`harbor_storage::BulkAppender`] cursor holding a page pinned (the
//! apply path), placing rows in runs of one to seven.
//!
//! Invariants checked at quiesce:
//! * no lost pages — every tuple ever acknowledged by an appender reads
//!   back with its exact payload (evicted pages were flushed and reloaded
//!   faithfully);
//! * pin-count integrity — no frame is left pinned once all threads are
//!   done, so nothing leaked a pin under contention;
//! * the global capacity budget held (resident stays within capacity plus
//!   the transient overshoot one in-flight load per thread can add);
//! * the shard counters are consistent: every shard took traffic, and the
//!   per-shard resident counts sum to the pool's resident total.

use harbor_common::{DiskProfile, FieldType, Metrics, RecordId, TableId, TupleDesc};
use harbor_storage::{BufferPool, LockManager, PagePolicy, SegmentedHeapFile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CAPACITY: usize = 32;
const APPENDERS: usize = 4;
const READERS: usize = 4;
const ROWS_PER_APPENDER: usize = 400;

/// Wide tuples (~0.5 KB) so the appenders' working set spans far more
/// pages than the pool holds and evictions run continuously.
const PAD: usize = 504;

fn tuple_bytes(id: i64) -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&7u64.to_le_bytes()); // committed at t7
    v.extend_from_slice(&0u64.to_le_bytes()); // not deleted
    v.extend_from_slice(&id.to_le_bytes());
    v.resize(16 + 8 + PAD, (id % 251) as u8);
    v
}

#[test]
fn concurrent_readers_appenders_and_evictions() {
    stress(false);
}

#[test]
fn concurrent_readers_cursors_and_evictions() {
    stress(true);
}

fn stress(cursors: bool) {
    let dir = std::env::temp_dir().join(format!(
        "harbor-pool-stress-{}-{cursors}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = Metrics::new();
    let locks = Arc::new(LockManager::new(
        Duration::from_millis(500),
        metrics.clone(),
    ));
    let pool = Arc::new(BufferPool::new(
        CAPACITY,
        locks,
        PagePolicy::steal_no_force(),
        metrics.clone(),
    ));
    let desc = TupleDesc::with_version_columns(vec![
        ("id", FieldType::Int64),
        ("pad", FieldType::FixedStr(PAD as u16)),
    ]);
    let table = SegmentedHeapFile::create(
        dir.join("t.tbl"),
        TableId(1),
        desc,
        4,
        DiskProfile::fast(),
        metrics,
    )
    .unwrap();
    pool.register_table(Arc::new(table));
    assert!(pool.num_shards() > 1, "stress wants a sharded pool");

    // Acknowledged rows: (rid, id). Readers chase this; the final sweep
    // verifies every entry.
    let acked = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for a in 0..APPENDERS {
            let pool = pool.clone();
            let acked = acked.clone();
            s.spawn(move || {
                let ids = (a * ROWS_PER_APPENDER) as i64..((a + 1) * ROWS_PER_APPENDER) as i64;
                if !cursors {
                    for id in ids {
                        let rid = pool
                            .insert_tuple_bytes(None, TableId(1), &tuple_bytes(id))
                            .expect("append under pressure");
                        acked.lock().unwrap().push((rid, id));
                    }
                    return;
                }
                let mut cursor = pool.bulk_appender(TableId(1)).unwrap();
                let mut next = ids.start;
                while next < ids.end {
                    let rows = (1 + next % 7).min(ids.end - next);
                    let bytes: Vec<u8> = (next..next + rows).flat_map(tuple_bytes).collect();
                    let mut run = Vec::new();
                    cursor
                        .place(&bytes, |first, rows| {
                            let width = tuple_bytes(0).len();
                            for slot in first.slot..first.slot + (rows.len() / width) as u16 {
                                run.push((RecordId::new(first.page, slot), next));
                                next += 1;
                            }
                        })
                        .expect("append under pressure");
                    // Readable once the latch is dropped, i.e. now.
                    acked.lock().unwrap().append(&mut run);
                }
            });
        }
        for _ in 0..READERS {
            let pool = pool.clone();
            let acked = acked.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut at = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot: Vec<_> = {
                        let g = acked.lock().unwrap();
                        if g.is_empty() {
                            continue;
                        }
                        // Stride through what exists so far, wrapping.
                        let len = g.len();
                        (0..16).map(|i| g[(at + i * 7) % len]).collect()
                    };
                    at = at.wrapping_add(1);
                    for (rid, id) in snapshot {
                        let bytes = pool
                            .read_tuple_bytes(None, rid)
                            .expect("read under pressure");
                        assert_eq!(
                            &bytes[16..24],
                            &id.to_le_bytes(),
                            "lost or corrupted tuple {id} at {rid:?}"
                        );
                    }
                }
            });
        }
        // Scoped threads: appenders finish, then readers are told to stop.
        while acked.lock().unwrap().len() < APPENDERS * ROWS_PER_APPENDER {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // --- quiesce invariants -------------------------------------------
    assert_eq!(pool.pinned_frames(), 0, "a pin leaked under contention");
    let stats = pool.shard_stats();
    let resident_sum: usize = stats.iter().map(|s| s.resident).sum();
    assert_eq!(
        resident_sum,
        pool.resident(),
        "shard resident counts drifted"
    );
    assert!(
        pool.resident() <= CAPACITY + APPENDERS + READERS,
        "capacity budget blown: {} resident over {CAPACITY}",
        pool.resident()
    );
    let total_evictions: u64 = stats.iter().map(|s| s.evictions).sum();
    assert!(
        total_evictions > 0,
        "no evictions — the stress never pressured the pool"
    );
    let shards_hit = stats.iter().filter(|s| s.hits + s.misses > 0).count();
    assert_eq!(
        shards_hit,
        stats.len(),
        "some shards took no traffic: {stats:?}"
    );

    // No lost pages: everything acked reads back exactly, even after the
    // eviction churn (this also faults evicted pages back in).
    for (rid, id) in acked.lock().unwrap().iter() {
        let bytes = pool
            .read_tuple_bytes(None, *rid)
            .unwrap_or_else(|e| panic!("final readback of {rid:?} (id {id}): {e:?}"));
        assert_eq!(&bytes[16..24], &id.to_le_bytes(), "lost tuple {id}");
    }
    assert_eq!(pool.pinned_frames(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
