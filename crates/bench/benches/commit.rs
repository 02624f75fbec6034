//! Commit-throughput experiment: epoch group commit vs the serial,
//! paper-faithful 2PC path (DESIGN.md extension 14).
//!
//! N closed-loop client streams run an InsertStream/update-by-key mix
//! against a 2-worker Opt2pc cluster on the emulated paper LAN (~150 µs per
//! message) and paper disk (~5 ms per forced write). The epoch size is
//! swept over {1, 4, 16, 64}: size 1 is the serial path (no epoch config —
//! one forced COMMIT record and one PREPARE/COMMIT round per transaction),
//! larger sizes batch independent transactions into commit epochs with one
//! forced decision record per epoch and vectored PREPARE/COMMIT waves,
//! pipelined two epochs deep.
//!
//! Writes `BENCH_commit.json`: sustained txn/s plus p50/p99/p999 commit
//! latency per epoch size, and the coordinator's batched-sync counters.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_bench::{
    experiment_dir, paper_lan, print_table, throughput_storage, BenchReport, Scale,
};
use harbor_common::metrics::Group;
use harbor_dist::{EpochCommitConfig, ProtocolKind};
use harbor_wal::GroupCommit;
use harbor_workload::{insert_request, run_concurrent_streams, update_by_key_request};
use std::time::Duration;

/// One swept point: the configured epoch size (1 = serial).
struct Mode {
    epoch_size: usize,
}

impl Mode {
    fn label(&self) -> String {
        if self.epoch_size <= 1 {
            "serial".into()
        } else {
            format!("epoch{}", self.epoch_size)
        }
    }

    fn epoch_commit(&self) -> Option<EpochCommitConfig> {
        if self.epoch_size <= 1 {
            return None;
        }
        Some(EpochCommitConfig {
            max_txns: self.epoch_size,
            // Accumulation window on the order of one forced write: while
            // epoch N's 5 ms force is on the disk, epoch N+1 keeps filling,
            // so epochs approach max_txns instead of draining tiny batches.
            max_wait: Duration::from_millis(5),
            pipeline_depth: 2,
        })
    }
}

fn build_cluster(mode: &Mode, streams: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt2pc, 2);
    cfg.storage = throughput_storage();
    cfg.group_commit = GroupCommit::enabled();
    cfg.transport = paper_lan();
    cfg.checkpoint_every = Some(Duration::from_secs(1));
    // One table per stream: client streams never contend on page locks, so
    // the sweep measures the commit protocol, not lock waits.
    for s in 0..streams {
        cfg.tables.push(TableSpec::paper_table(&format!("t{s}")));
    }
    cfg.epoch_commit = mode.epoch_commit();
    Cluster::build(experiment_dir(&format!("commit-{}", mode.label())), cfg)
        .expect("build commit cluster")
}

fn main() {
    let scale = Scale::from_env();
    let streams = scale.pick(16, 32, 64);
    let txns_per_stream = scale.pick(30, 120, 400);
    println!("Commit throughput: epoch group commit vs serial 2PC");
    println!(
        "(scale={scale:?}, {streams} streams x {txns_per_stream} txns, \
         2 workers, paper LAN/disk profile)"
    );
    let mut report = BenchReport::new("commit");
    report
        .config("scale", format!("{scale:?}"))
        .config("streams", streams)
        .config("txns_per_stream", txns_per_stream)
        .config("workers", 2)
        .config("protocol", "Opt2pc")
        .config("profile", "paper LAN (150us/msg), paper disk (5ms/force)");

    let mut rows = Vec::new();
    let mut serial_tps = 0.0f64;
    let mut epoch16_tps = 0.0f64;
    for epoch_size in [1usize, 4, 16, 64] {
        let mode = Mode { epoch_size };
        let cluster = build_cluster(&mode, streams);
        let before = cluster.coordinator().metrics().snapshot();
        // The §6.3-style mix: every transaction inserts one fresh paper row
        // into its stream's table; every fourth also re-updates the row the
        // stream inserted three transactions ago.
        let sample =
            run_concurrent_streams(cluster.coordinator(), streams, txns_per_stream, |s, n| {
                let table = format!("t{s}");
                let mut ops = vec![insert_request(&table, n as i64)];
                if n % 4 == 3 {
                    ops.push(update_by_key_request(&table, n as i64 - 3, n as i32));
                }
                ops
            })
            .expect("commit streams");
        let snap = cluster.coordinator().metrics().snapshot().since(&before);
        let commit_path = snap.summary(Group::CommitPath);
        cluster.shutdown();

        let tps = sample.tps();
        if epoch_size == 1 {
            serial_tps = tps;
        }
        if epoch_size == 16 {
            epoch16_tps = tps;
        }
        let us = |d: Duration| d.as_micros().to_string();
        rows.push(vec![
            mode.label(),
            format!("{tps:.0}"),
            us(sample.p50_latency),
            us(sample.p99_latency),
            us(sample.p999_latency),
            sample.committed.to_string(),
            sample.aborted.to_string(),
            snap.batched_syncs_saved.to_string(),
            snap.epochs_committed.to_string(),
        ]);
        println!("  {}: {}", mode.label(), commit_path);
        report.entry_with(
            &mode.label(),
            sample.p50_latency.as_nanos().max(1),
            sample.committed.max(1),
            &[
                ("epoch_size", epoch_size.to_string()),
                ("txns_per_s", format!("{tps:.1}")),
                ("p50_us", sample.p50_latency.as_micros().to_string()),
                ("p99_us", sample.p99_latency.as_micros().to_string()),
                ("p999_us", sample.p999_latency.as_micros().to_string()),
                ("committed", sample.committed.to_string()),
                ("aborted", sample.aborted.to_string()),
                ("batched_syncs_saved", snap.batched_syncs_saved.to_string()),
                ("epochs", snap.epochs_committed.to_string()),
                ("epoch_txns", snap.epoch_txns.to_string()),
            ],
        );
    }
    print_table(
        "commit throughput vs epoch size",
        &[
            "mode",
            "txn/s",
            "p50 us",
            "p99 us",
            "p999 us",
            "committed",
            "aborted",
            "syncs saved",
            "epochs",
        ],
        &rows,
    );
    println!(
        "\nepoch16 vs serial: {:.0} vs {:.0} txn/s ({:.2}x)",
        epoch16_tps,
        serial_tps,
        epoch16_tps / serial_tps.max(1e-9)
    );
    report.write().expect("write BENCH_commit.json");
}
