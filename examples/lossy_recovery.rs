//! Recovery under a lossy LAN (fig 6-6 style, chaos edition): the same
//! crash-and-catch-up experiment as `benches/fig6_6.rs`, but the recovery
//! traffic crosses a `ChaosTransport` in the `lossy_lan` profile — seeded
//! frame drops (each severing its link), delivery delays, and abrupt
//! disconnects. Phase 2 must detect every severed stream, fail the range
//! over to the surviving buddy, and still converge; the printed chaos and
//! RPC counters show how much abuse the run absorbed.
//!
//! Run with: `cargo run --release --example lossy_recovery [seed]`

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::fault::FaultConfig;
use harbor_common::{SiteId, StorageConfig, Value};
use harbor_dist::ProtocolKind;
use std::time::Duration;

const ROWS_BEFORE: i64 = 400;
const ROWS_MISSED: i64 = 2_000;

fn build(dir: &std::path::Path, faults: Option<FaultConfig>) -> Cluster {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.storage.segment_pages = 2; // several segments => several Phase-2 ranges
    cfg.tables = vec![TableSpec::small("sales")];
    cfg.faults = faults;
    cfg.rpc_deadline = Duration::from_secs(2);
    Cluster::build(dir, cfg).unwrap()
}

/// One crash-and-recover cycle; the fault plan (if any) is on only for the
/// recovery itself, so every run catches up the identical missed window.
fn run(label: &str, faults: Option<FaultConfig>) {
    let dir = std::env::temp_dir().join(format!(
        "harbor-lossy-recovery-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = build(&dir, faults);

    for id in 0..ROWS_BEFORE {
        cluster
            .insert_one("sales", vec![Value::Int64(id), Value::Int32(id as i32)])
            .unwrap();
    }
    for site in cluster.worker_sites() {
        cluster.engine(site).unwrap().checkpoint().unwrap();
    }
    let victim = SiteId(1);
    cluster.crash_worker(victim).unwrap();
    for id in ROWS_BEFORE..(ROWS_BEFORE + ROWS_MISSED) {
        cluster
            .insert_one("sales", vec![Value::Int64(id), Value::Int32(id as i32)])
            .unwrap();
    }

    cluster.faults().set_enabled(true);
    let report = cluster.recover_worker_harbor(victim).unwrap();
    cluster.faults().set_enabled(false);

    let m = cluster.net_metrics().snapshot();
    println!(
        "{label:>9}: recovered {} tuples in {:?} \
         (phase2 {:?}, ranges {} fetched / {} reassigned)",
        report.tuples_copied(),
        report.total,
        report.phase2_deletes() + report.phase2_inserts(),
        report.ranges_fetched(),
        report.ranges_reassigned(),
    );
    println!(
        "{:>9}  chaos: {} drops, {} delays, {} disconnects, \
         {} partition drops; rpc: {} timeouts, {} retries",
        "",
        m.chaos_drops,
        m.chaos_delays,
        m.chaos_disconnects,
        m.chaos_partition_drops,
        m.rpc_timeouts,
        m.rpc_retries,
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x6006);
    run("clean", None);
    run("lossy-lan", Some(FaultConfig::lossy_lan(seed)));
    // A much nastier link than the stock profile: 2.5% of frames lost (each
    // loss severing its stream) and 1% abrupt resets — recovery only
    // converges by failing ranges over to the surviving buddy.
    run(
        "flaky-lan",
        Some(FaultConfig {
            drop_per_mille: 25,
            disconnect_per_mille: 10,
            ..FaultConfig::lossy_lan(seed)
        }),
    );
}
