//! Standalone read-hot-path measurement: seq scan, recovery range scan, and
//! the worker's scan-and-ship loop over one hot (fully resident) table.
//!
//! Run before/after read-path changes to capture throughput deltas:
//! `cargo run --release -p harbor-bench --example scan_baseline [rows]`

use std::time::Instant;

use harbor_bench::median_ns;
use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp, Tuple, Value};
use harbor_dist::{ship_scan, RemoteScan, WireReadMode};
use harbor_engine::{Engine, EngineOptions};
use harbor_exec::{collect, ReadMode, SeqScan};

fn bench(name: &str, rows: usize, iters: usize, mut f: impl FnMut() -> usize) {
    // Warm-up pass populates the buffer pool and the branch predictors.
    let got = f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let n = f();
        samples.push(start.elapsed().as_nanos());
        assert_eq!(n, got, "{name}: unstable result cardinality");
    }
    let med = median_ns(samples);
    let per_row = med as f64 / rows as f64;
    let mrows = rows as f64 / (med as f64 / 1e9) / 1e6;
    println!(
        "{name:<28} rows={got:<7} median={med:>12} ns  {per_row:>8.1} ns/row  {mrows:>8.2} Mrows/s"
    );
}

fn main() {
    let rows: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let iters = 9;

    let dir = std::env::temp_dir().join(format!("harbor-scan-baseline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Pool large enough that the whole table stays hot.
    let storage = StorageConfig {
        buffer_pool_pages: 4096,
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
    let mut inserter = e.recovered_inserter(def.id).unwrap();
    for i in 0..rows {
        // Half the rows deleted at t20 so visibility filtering has work to do.
        let del = if i % 2 == 0 {
            Timestamp::ZERO
        } else {
            Timestamp(20)
        };
        let t = Tuple::versioned(
            Timestamp(10),
            del,
            vec![
                Value::Int64(i),
                Value::Int32((i % 1000) as i32),
                Value::Str(format!("row-{i:08}")),
            ],
        );
        inserter.insert(&t).unwrap();
    }
    inserter.flush().unwrap();
    let pool = e.pool().clone();

    bench("seq_scan_historical", rows as usize, iters, || {
        let mut s =
            SeqScan::new(pool.clone(), def.id, ReadMode::Historical(Timestamp(15))).unwrap();
        collect(&mut s).unwrap().len()
    });

    bench("recovery_range_scan", rows as usize, iters, || {
        let mut s = SeqScan::new(
            pool.clone(),
            def.id,
            ReadMode::SeeDeletedHistorical(Timestamp(25)),
        )
        .unwrap();
        collect(&mut s).unwrap().len()
    });

    // The worker's scan service loop as shipped: admitted rows transcode
    // from page bytes into pre-framed batches; the frames are dropped here
    // instead of sent.
    bench("scan_ship", rows as usize, iters, || {
        let scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(Timestamp(25)));
        let (mut shipped, mut total) = (0usize, 0usize);
        ship_scan(&e, &scan, |frame, done| {
            shipped += frame.rows() as usize;
            total += frame.finish(done).len();
            Ok(())
        })
        .unwrap();
        assert!(total > 0);
        shipped
    });

    drop((e, pool));
    let _ = std::fs::remove_dir_all(&dir);
}
