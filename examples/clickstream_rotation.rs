//! The clickthrough-warehouse scenario of §4.2: "massive clickthrough
//! warehouses ... only designed to store the most recent N days worth of
//! data". The time-partitioned segment architecture gives bulk load (append
//! a segment atomically) and bulk drop (retire the oldest segment) almost
//! for free.
//!
//! This example drives a single engine directly (the features are storage-
//! level): it loads "days" of click data as bulk segments, runs a rolling
//! report, and rotates old days out.
//!
//! Run with: `cargo run --release --example clickstream_rotation`

use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp, Tuple, Value};
use harbor_engine::{Engine, EngineOptions};
use harbor_exec::{collect, ReadMode, SeqScan};

const CLICKS_PER_DAY: i64 = 3_000;
const RETENTION_DAYS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("harbor-clicks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageConfig {
        segment_pages: 64, // one bulk-loaded day spans a few segments
        ..StorageConfig::default()
    };
    let engine = Engine::open(&dir, EngineOptions::harbor(SiteId(1), storage))?;
    let def = engine.create_table(
        "clicks",
        vec![
            ("id".into(), FieldType::Int64),
            ("page".into(), FieldType::Int32),
            ("dwell_ms".into(), FieldType::Int32),
        ],
    )?;
    let table = engine.pool().table(def.id)?;

    let mut next_id: i64 = 0;
    for day in 1..=6u64 {
        // ---- bulk load: one fresh segment per day, appended atomically.
        let seg = table.begin_bulk_segment()?;
        let day_ts = Timestamp(day);
        let mut inserter = engine.recovered_inserter(def.id)?;
        for _ in 0..CLICKS_PER_DAY {
            let tup = Tuple::versioned(
                day_ts,
                Timestamp::ZERO,
                vec![
                    Value::Int64(next_id),
                    Value::Int32((next_id % 40) as i32),
                    Value::Int32((100 + next_id % 5_000) as i32),
                ],
            );
            inserter.insert(&tup)?;
            next_id += 1;
        }
        inserter.flush()?; // the day's last rows are staged until here
        engine.advance_applied_clock(day_ts);
        engine.checkpoint()?; // make the day durable
        println!(
            "day {day}: loaded {CLICKS_PER_DAY} clicks into {seg} \
             ({} segments, {} data pages)",
            table.num_segments(),
            table.num_data_pages()
        );

        // ---- rolling report over the retained window (stored column 4 is
        // dwell_ms).
        let mut scan = SeqScan::new(engine.pool().clone(), def.id, ReadMode::Historical(day_ts))?;
        let clicks = collect(&mut scan)?;
        let dwell_ms: i64 = clicks
            .iter()
            .map(|c| c.get(4).as_i64())
            .sum::<Result<_, _>>()?;
        println!(
            "  retained clicks: {}, average dwell: {} ms",
            clicks.len(),
            dwell_ms / clicks.len() as i64
        );

        // ---- bulk drop: rotate out days beyond the retention window.
        while table.num_segments() as usize > RETENTION_DAYS {
            let dropped = table
                .drop_oldest_segment()?
                .expect("more than one segment retained");
            println!(
                "  rotated out segment [{} .. {}] ({} pages)",
                dropped.tmin_insert.0, dropped.tmax_insert.0, dropped.page_count
            );
        }
    }

    // After six days with a three-day retention, only the last three days
    // of clicks remain reachable.
    let mut scan = SeqScan::new(
        engine.pool().clone(),
        def.id,
        ReadMode::Historical(Timestamp(6)),
    )?;
    let remaining = collect(&mut scan)?;
    println!(
        "\nfinal reachable clicks: {} (= {} days x {CLICKS_PER_DAY})",
        remaining.len(),
        RETENTION_DAYS,
    );
    assert_eq!(
        remaining.len() as i64,
        RETENTION_DAYS as i64 * CLICKS_PER_DAY
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
