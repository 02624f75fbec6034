//! Disk-scrub and page-repair tests: a live site detects checksum-corrupt
//! pages, heals them from a resident frame when it can, and otherwise
//! rewinds the object's checkpoint to before the page's segment, zeroes the
//! page and recovers the object from there — ending logically identical to
//! a never-corrupted replica.

use harbor::{Cluster, ClusterConfig};
use harbor_common::config::PAGE_SIZE;
use harbor_common::fault::{Armed, FaultConfig, PageFault};
use harbor_common::{SiteId, TableId, Timestamp, Tuple, Value};
use harbor_dist::{CrashPoint, ProtocolKind, UpdateRequest};
use harbor_exec::{scan_rids, Expr, ReadMode};
use harbor_storage::ScanBounds;
use std::collections::HashSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-scrub-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(id: i64, v: i32) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(v)]
}

/// Inserts `n` rows in batches so the table spans several pages.
fn load(cluster: &Cluster, n: i64) {
    for chunk in (0..n).collect::<Vec<_>>().chunks(50) {
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

/// Flips one payload bit of an on-disk page, behind the pool's back.
fn flip_bit_on_disk(dir: &std::path::Path, site: SiteId, table_file: &str, page_no: u32) {
    let path = dir.join(format!("site-{}", site.0)).join(table_file);
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let off = page_no as u64 * PAGE_SIZE as u64 + 40;
    f.seek(SeekFrom::Start(off)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0x10;
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&b).unwrap();
    f.sync_all().unwrap();
}

/// The site's full version history (insertion/deletion timestamps and all
/// fields, deleted versions included), as a sorted logical multiset.
fn version_history(cluster: &Cluster, site: SiteId) -> Vec<String> {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let rows = scan_rids(
        e.pool(),
        def.id,
        ReadMode::SeeDeleted,
        ScanBounds::all(),
        |_| Ok(true),
    )
    .unwrap();
    let mut v: Vec<String> = rows.iter().map(|(_, t)| t.to_string()).collect();
    v.sort();
    v
}

/// Data pages of the site's table that currently hold tuples, checked
/// directly against the disk image.
fn occupied_disk_pages(cluster: &Cluster, site: SiteId) -> Vec<u32> {
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

fn table_file(cluster: &Cluster, site: SiteId) -> String {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    format!("t{}.tbl", def.id.0)
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

#[test]
fn scrub_self_heals_from_a_resident_frame() {
    let dir = temp_dir("self-heal");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, 120);
    let site = SiteId(1);
    cluster.engine(site).unwrap().pool().flush_all().unwrap();
    let pages = occupied_disk_pages(&cluster, site);
    flip_bit_on_disk(&dir, site, &table_file(&cluster, site), pages[0]);

    let report = cluster.scrub_worker(site).unwrap();
    assert_eq!(report.corrupt_pages, 1);
    assert_eq!(
        report.self_healed, 1,
        "frame is resident: no network repair"
    );
    assert!(report.repairs.is_empty());

    // The disk image verifies again and a re-scrub finds nothing.
    let clean = cluster.scrub_worker(site).unwrap();
    assert_eq!(clean.corrupt_pages, 0);
    assert_eq!(
        version_history(&cluster, SiteId(1)),
        version_history(&cluster, SiteId(2))
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_refetches_cold_corrupt_pages_from_a_buddy() {
    let dir = temp_dir("buddy-repair");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, 400);
    // The corrupt pages lie under the global checkpoint, and the deletions
    // of their rows come after it: the rewind goes below it.
    cluster.engine(SiteId(1)).unwrap().checkpoint().unwrap();
    // Mix in deletions so repaired pages must restore deletion times too.
    cluster
        .run_txn(vec![UpdateRequest::DeleteWhere {
            table: "sales".into(),
            pred: Expr::col(2).lt(Expr::lit(30i64)),
        }])
        .unwrap();
    let site = SiteId(1);
    let reference = version_history(&cluster, SiteId(2));
    assert_eq!(version_history(&cluster, site), reference);

    evict_all(&cluster, site);
    let pages = occupied_disk_pages(&cluster, site);
    assert!(pages.len() >= 2, "load must span several pages");
    let tbl = table_file(&cluster, site);
    flip_bit_on_disk(&dir, site, &tbl, pages[0]);
    flip_bit_on_disk(&dir, site, &tbl, pages[1]);

    let report = cluster.scrub_worker(site).unwrap();
    assert_eq!(report.corrupt_pages, 2);
    assert_eq!(report.self_healed, 0, "frames were evicted");
    assert_eq!(report.repairs.len(), 1, "one object rewound: {report:?}");
    assert!(report.repairs[0].tuples_copied > 0);

    // The repaired site is logically identical to the untouched replica —
    // including deleted versions and their timestamps.
    assert_eq!(version_history(&cluster, site), reference);
    // The invalidated index rebuilds and serves lookups.
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let hits = e.index(def.id).unwrap().lookup(e.pool(), 200).unwrap();
    assert_eq!(hits.len(), 1);
    // The cluster still takes updates afterwards.
    cluster.insert_one("sales", row(1000, 1)).unwrap();
    assert_eq!(
        version_history(&cluster, SiteId(1)),
        version_history(&cluster, SiteId(2))
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repair of two segments is Phase 2's walk from the rewound checkpoint:
/// with two buddies it is dealt across both, each range carrying rows of the
/// window — the segments past the window, which Phase 3 copies, weigh
/// nothing in the cut — and the repaired site still matches an untouched
/// replica.
#[test]
fn a_two_segment_repair_is_dealt_across_the_buddies() {
    let dir = temp_dir("two-buddies");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.num_workers = 3;
    let cluster = Cluster::build(&dir, cfg).unwrap();
    load(&cluster, 3000);
    // Rows a bulk load stamped past the time the repair reads as of, on
    // every replica alike: the table runs on past the repair's window, by
    // more pages than the window holds.
    let ahead = Timestamp(1_000_000);
    for site in cluster.worker_sites() {
        let e = cluster.engine(site).unwrap();
        let table = e.table_def("sales").unwrap().id;
        let mut inserter = e.recovered_inserter(table).unwrap();
        for id in 10_000..13_500 {
            let tuple = Tuple::versioned(ahead, Timestamp::ZERO, row(id, 0));
            inserter.insert(&tuple).unwrap();
        }
        inserter.flush().unwrap();
    }
    let site = SiteId(1);
    let reference = version_history(&cluster, SiteId(2));
    assert_eq!(version_history(&cluster, site), reference);

    evict_all(&cluster, site);
    let e = cluster.engine(site).unwrap();
    let heap = e.pool().table(e.table_def("sales").unwrap().id).unwrap();
    let segments = heap.segments();
    assert!(segments.len() >= 4, "the table must run on past the window");
    let occupied = occupied_disk_pages(&cluster, site);
    let tbl = table_file(&cluster, site);
    for seg in &segments[..2] {
        let page = occupied.iter().find(|p| seg.contains_page(**p));
        flip_bit_on_disk(&dir, site, &tbl, *page.expect("an occupied page"));
    }

    let report = cluster.scrub_worker(site).unwrap();
    assert_eq!(report.corrupt_pages, 2);
    assert_eq!(report.self_healed, 0, "frames were evicted");
    let [repair] = &report.repairs[..] else {
        panic!("one object rewound: {report:?}");
    };
    let carrying = repair.range_timings.iter().filter(|r| r.tuples > 0);
    let buddies: HashSet<SiteId> = carrying.map(|r| r.buddy).collect();
    assert_eq!(
        buddies.len(),
        2,
        "one walk, two buddies with rows: {repair:?}"
    );
    assert!(repair.tuples_copied > 0);
    assert_eq!(version_history(&cluster, site), reference);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the fault-during-recovery window: a bit flip lands on a
/// page *while Phase 2 is writing it*. The corrupted image must never be
/// served as repaired state — the next scrub detects it and re-fetches
/// the page from a buddy, and the recovered site converges to the same
/// version history as a never-corrupted replica.
#[test]
fn bit_flip_during_phase2_recovery_is_detected_and_refetched() {
    let dir = temp_dir("phase2-flip");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    // The first write of data page 1 while the plan is on lands with one
    // bit inverted — and the plan is on only around recovery.
    cfg.faults = Some(FaultConfig::quiet(7));
    let cluster = Cluster::build(&dir, cfg).unwrap();
    load(&cluster, 200);
    let site = SiteId(1);
    let (table, page, fault) = (TableId(1), 1, PageFault::BitFlip);
    (cluster.faults()).arm(
        site,
        Armed::Page {
            table,
            page,
            ordinal: 0,
            fault,
        },
    );
    {
        let def = cluster.engine(site).unwrap().table_def("sales").unwrap();
        assert_eq!(def.id, TableId(1), "targeted fault must name the table");
    }
    cluster.crash_worker(site).unwrap();
    // Commits the crashed site misses; Phase 2 re-fetches them.
    for i in 0..50 {
        cluster
            .insert_one("sales", row(1000 + i, i as i32))
            .unwrap();
    }
    cluster.faults().enable_only(site);
    cluster.recover_worker_harbor(site).unwrap();
    cluster.faults().set_enabled(false);
    assert_eq!(
        cluster.faults().page_faults_injected(),
        1,
        "the targeted flip must have fired during recovery"
    );

    // The flip sits latent on disk under a clean resident frame. Once the
    // cache goes cold the corruption is live — scrub must catch it and
    // restore the page over the network, not trust the disk image.
    evict_all(&cluster, site);
    let report = cluster.scrub_worker(site).unwrap();
    assert!(report.corrupt_pages >= 1, "flip not detected: {report:?}");
    assert_eq!(report.self_healed, 0, "cache was cold");
    assert!(!report.repairs.is_empty());
    assert_eq!(
        version_history(&cluster, site),
        version_history(&cluster, SiteId(2)),
        "repaired site must match a never-corrupted replica"
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the zone-map vs disk-fault plane: a torn write that
/// kills a page's checksum trailer must also invalidate the page's
/// zone-map entry, so admission fast paths never trust timestamp bounds
/// for a page whose disk image no longer verifies.
#[test]
fn torn_page_invalidates_its_zone_map_entry() {
    let dir = temp_dir("zone-invalidate");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, 400);
    let site = SiteId(1);
    // Flush stores zone entries under the frame latch, then the cache
    // goes cold so the next read must trust the disk image.
    evict_all(&cluster, site);
    let pages = occupied_disk_pages(&cluster, site);
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let heap = e.pool().table(def.id).unwrap();
    assert!(
        heap.zone_entry(pages[0]).is_some(),
        "flush must have built a zone entry for an occupied page"
    );

    flip_bit_on_disk(&dir, site, &table_file(&cluster, site), pages[0]);
    assert!(
        heap.read_page(pages[0]).is_err(),
        "flipped bit must fail checksum verification"
    );
    assert!(
        heap.zone_entry(pages[0]).is_none(),
        "corrupt page must drop its zone-map entry"
    );

    // Scrub restores the page from a buddy; the site converges and the
    // zone map repopulates lazily on the next flush of the healed frame.
    let report = cluster.scrub_worker(site).unwrap();
    assert_eq!(report.corrupt_pages, 1);
    assert_eq!(
        version_history(&cluster, site),
        version_history(&cluster, SiteId(2))
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_without_a_live_buddy_reports_unrecoverable() {
    let dir = temp_dir("no-buddy");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, 400);
    let site = SiteId(1);
    evict_all(&cluster, site);
    let pages = occupied_disk_pages(&cluster, site);
    flip_bit_on_disk(&dir, site, &table_file(&cluster, site), pages[0]);
    cluster.crash_worker(SiteId(2)).unwrap();
    let checkpoint = cluster.engine(site).unwrap().checkpointer().record();

    let err = cluster.scrub_worker(site).unwrap_err();
    assert!(
        !err.is_timeout() && !err.is_disconnect(),
        "a failed repair is not a liveness problem: {err}"
    );
    // Nothing was touched: the site serves on, its checkpoint where it was.
    assert!(!cluster.is_crashed(site));
    let e = cluster.engine(site).unwrap();
    assert_eq!(e.checkpointer().record(), checkpoint);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repair that dies after its rewind fail-stops the site rather than
/// serve a half-repaired object, and the next ordinary recovery — from the
/// persisted rewind — finishes it.
#[test]
fn a_repair_that_dies_after_its_rewind_is_finished_by_the_next_recovery() {
    let dir = temp_dir("dies-after-rewind");
    let cluster = Cluster::build(&dir, ClusterConfig::for_tests(ProtocolKind::Opt3pc)).unwrap();
    load(&cluster, 400);
    let site = SiteId(1);
    cluster.engine(site).unwrap().checkpoint().unwrap();
    cluster
        .run_txn(vec![UpdateRequest::DeleteWhere {
            table: "sales".into(),
            pred: Expr::col(2).lt(Expr::lit(30i64)),
        }])
        .unwrap();
    evict_all(&cluster, site);
    let pages = occupied_disk_pages(&cluster, site);
    flip_bit_on_disk(&dir, site, &table_file(&cluster, site), pages[1]);

    cluster.arm_crash(site, CrashPoint::RecoveryAfterPhase1);
    assert!(cluster.scrub_worker(site).is_err());
    assert!(cluster.is_crashed(site), "a rewound object is not served");
    cluster.recover_worker_harbor(site).unwrap();
    assert_eq!(
        version_history(&cluster, site),
        version_history(&cluster, SiteId(2))
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
