//! Storage-fault-plane measurements (DESIGN.md "Storage fault model"): scrub
//! throughput over a clean table, the full-object recovery baseline, and
//! the repair of one corrupt page in the oldest, the middle and the newest
//! segment. A repair is a recovery from a checkpoint rewound to just before
//! the page's segment, so its price grows with the segment's age.
//!
//! Run with: `cargo run --release --example scrub_bench`

use harbor::{Cluster, ClusterConfig};
use harbor_common::config::PAGE_SIZE;
use harbor_common::{SiteId, Value};
use harbor_dist::{ProtocolKind, UpdateRequest};
use std::io::{Read, Seek, SeekFrom, Write};
use std::time::Instant;

const ROWS: i64 = 100_000;

fn row(id: i64, v: i32) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(v)]
}

fn load(cluster: &Cluster, n: i64) {
    for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
        let ops = chunk
            .iter()
            .map(|i| UpdateRequest::Insert {
                table: "sales".into(),
                values: row(*i, *i as i32),
            })
            .collect();
        cluster.run_txn(ops).unwrap();
    }
}

/// Drops every resident frame of the table, as if the cache went cold.
fn evict_all(cluster: &Cluster, site: SiteId) {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    e.pool().flush_all().unwrap();
    let heap = e.pool().table(def.id).unwrap();
    e.pool().deregister_table(def.id);
    e.pool().register_table(heap);
}

/// Data pages of the table that currently hold tuples on disk.
fn occupied_pages(cluster: &Cluster, site: SiteId) -> Vec<u32> {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let heap = e.pool().table(def.id).unwrap();
    heap.all_page_ids()
        .iter()
        .filter(|pid| {
            heap.read_page(pid.page_no)
                .map(|p| p.occupied_slots().next().is_some())
                .unwrap_or(false)
        })
        .map(|pid| pid.page_no)
        .collect()
}

/// An occupied page of the oldest, middle or newest segment that holds
/// rows, by first insertion time; with its segment's rank and their count.
fn page_of_age(cluster: &Cluster, site: SiteId, age: &str) -> (u32, usize, usize) {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let mut segments = e.pool().table(def.id).unwrap().segments();
    segments.sort_by_key(|s| s.tmin_insert);
    let occupied = occupied_pages(cluster, site);
    let live: Vec<u32> = segments
        .iter()
        .filter_map(|s| occupied.iter().copied().find(|p| s.contains_page(*p)))
        .collect();
    let nth = match age {
        "oldest" => 0,
        "middle" => live.len() / 2,
        _ => live.len() - 1,
    };
    (live[nth], nth + 1, live.len())
}

/// Flips one payload bit of each listed page, behind the pool's back.
fn corrupt_pages(dir: &std::path::Path, cluster: &Cluster, site: SiteId, pages: &[u32]) {
    let def = cluster.engine(site).unwrap().table_def("sales").unwrap();
    let path = dir
        .join(format!("site-{}", site.0))
        .join(format!("t{}.tbl", def.id.0));
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    for page in pages {
        let off = *page as u64 * PAGE_SIZE as u64 + 64;
        f.seek(SeekFrom::Start(off)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        b[0] ^= 0x01;
        f.seek(SeekFrom::Start(off)).unwrap();
        f.write_all(&b).unwrap();
    }
    f.sync_all().unwrap();
}

fn main() {
    let dir = std::env::temp_dir()
        .join("harbor-scrub-bench")
        .join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, ROWS);
    let site = SiteId(1);
    evict_all(&cluster, site);
    let pages = occupied_pages(&cluster, site);
    println!(
        "table: {} rows over {} occupied data pages ({} KiB)",
        ROWS,
        pages.len(),
        pages.len() * PAGE_SIZE / 1024
    );

    // Scrub throughput over a clean table, cache cold.
    evict_all(&cluster, site);
    let t = Instant::now();
    let clean = cluster.scrub_worker(site).unwrap();
    let secs = t.elapsed().as_secs_f64();
    println!(
        "scrub clean: {} pages in {:.1} ms ({:.0} pages/s, {:.1} MiB/s), {} corrupt",
        clean.pages_scanned,
        secs * 1e3,
        clean.pages_scanned as f64 / secs,
        clean.pages_scanned as f64 * PAGE_SIZE as f64 / (1024.0 * 1024.0) / secs,
        clean.corrupt_pages
    );

    // Full-object recovery baseline: with no checkpoint taken, Phase 1
    // clears the local state and Phase 2 re-fetches the whole object from
    // the buddies. Its recovery leaves a checkpoint above the whole load.
    cluster.crash_worker(site).unwrap();
    let t = Instant::now();
    let report = cluster.recover_worker_harbor(site).unwrap();
    let full_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "full recover_object: {:.1} ms, {} tuples copied, {} ranges fetched",
        full_ms,
        report.tuples_copied(),
        report.ranges_fetched()
    );

    // One corrupt cold page in a segment of each age: the scrub rewinds
    // the object to just before that segment and recovers it from there.
    for age in ["oldest", "middle", "newest"] {
        evict_all(&cluster, site);
        let (page, nth, of) = page_of_age(&cluster, site, age);
        corrupt_pages(&dir, &cluster, site, &[page]);
        let t = Instant::now();
        let rep = cluster.scrub_worker(site).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let copied: u64 = rep.repairs.iter().map(|r| r.tuples_copied).sum();
        println!(
            "repair, page in the {age} segment ({nth} of {of}): {:.1} ms \
             ({:.2}x full), {} corrupt, {} tuples copied",
            ms,
            ms / full_ms,
            rep.corrupt_pages,
            copied
        );
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
