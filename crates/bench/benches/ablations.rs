//! Design-choice ablations called out in the thesis but not given figures:
//!
//! 1. **Checkpoint frequency** (§6.3: "setting the checkpoint frequency
//!    between 1–10 s affected transaction throughput by no more than
//!    9.5%"): throughput of an insert stream while the workers checkpoint
//!    at different intervals, plus the recovery time each interval buys.
//! 2. **Group-commit delay timer** (§6.2: "various group delay timer
//!    values ranging from 1–5 ms only decreased group commit performance"):
//!    traditional-2PC throughput with delay timers of 0/1/2/5 ms.
//! 3. **Segment size**: HARBOR recovery time for the same update workload
//!    under coarser vs finer segments — the pruning-precision trade-off of
//!    §4.2 (fewer, larger segments = more data scanned per dirty segment).
//! 4. **Deletion log** on/off.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_bench::{
    experiment_dir, paper_lan, prefill, print_table, recovery_storage, rows_per_segment,
    throughput_storage, Scale,
};
use harbor_common::SiteId;
use harbor_dist::ProtocolKind;
use harbor_wal::GroupCommit;
use harbor_workload::{run_concurrent_streams, InsertStream};
use std::time::Duration;

fn checkpoint_frequency_sweep(scale: Scale) {
    let txns = scale.pick(150, 600, 3000);
    let streams = 5;
    let mut rows = Vec::new();
    let mut baseline_tps = None;
    for interval_ms in [0u64, 250, 1_000, 5_000] {
        let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
        cfg.storage = throughput_storage();
        cfg.transport = paper_lan();
        cfg.checkpoint_every = (interval_ms > 0).then(|| Duration::from_millis(interval_ms));
        for s in 0..streams {
            cfg.tables.push(TableSpec::paper_table(&format!("t{s}")));
        }
        let cluster = Cluster::build(experiment_dir(&format!("ablation-ckpt-{interval_ms}")), cfg)
            .expect("cluster");
        let sources: Vec<InsertStream> = (0..streams)
            .map(|s| InsertStream::new(&format!("t{s}"), 0))
            .collect();
        let sample = run_concurrent_streams(cluster.coordinator(), streams, txns, |s, _| {
            vec![sources[s].next()]
        })
        .expect("streams");
        // What the interval buys: crash + recovery time right after the run.
        let victim = SiteId(1);
        cluster.crash_worker(victim).expect("crash");
        let t0 = std::time::Instant::now();
        cluster.recover_worker_harbor(victim).expect("recover");
        let rec_ms = t0.elapsed().as_secs_f64() * 1e3;
        let tps = sample.tps();
        let base = *baseline_tps.get_or_insert(tps);
        rows.push(vec![
            if interval_ms == 0 {
                "none".into()
            } else {
                format!("{interval_ms} ms")
            },
            format!("{tps:.0}"),
            format!("{:+.1}%", (tps / base - 1.0) * 100.0),
            format!("{rec_ms:.1}"),
        ]);
        cluster.shutdown();
    }
    print_table(
        "ablation 1: checkpoint frequency (paper: 1-10 s intervals cost <= 9.5% tps)",
        &["checkpoint every", "tps", "vs none", "recovery (ms)"],
        &rows,
    );
}

fn group_delay_sweep(scale: Scale) {
    let txns = scale.pick(60, 300, 1500);
    let streams = 10;
    let mut rows = Vec::new();
    for delay_ms in [0u64, 1, 2, 5] {
        let gc = GroupCommit::Enabled {
            delay: (delay_ms > 0).then(|| Duration::from_millis(delay_ms)),
        };
        let cluster = harbor_bench::throughput_cluster(
            &format!("ablation-delay-{delay_ms}"),
            ProtocolKind::Trad2pc,
            2,
            streams,
            gc,
        )
        .expect("cluster");
        let sources: Vec<InsertStream> = (0..streams)
            .map(|s| InsertStream::new(&format!("t{s}"), 0))
            .collect();
        let sample = run_concurrent_streams(cluster.coordinator(), streams, txns, |s, _| {
            vec![sources[s].next()]
        })
        .expect("streams");
        rows.push(vec![
            format!("{delay_ms} ms"),
            format!("{:.0}", sample.tps()),
        ]);
        cluster.shutdown();
    }
    print_table(
        "ablation 2: group-commit delay timer, trad 2PC, 10 streams \
         (paper: 1-5 ms timers only decreased performance)",
        &["delay timer", "tps"],
        &rows,
    );
}

fn segment_size_sweep(scale: Scale) {
    let mut rows = Vec::new();
    for seg_pages in [4u32, 16, 64, 256] {
        let mut storage = recovery_storage(scale);
        storage.segment_pages = seg_pages;
        let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
        cfg.storage = storage.clone();
        cfg.tables = vec![TableSpec::paper_table("t0")];
        let cluster = Cluster::build(experiment_dir(&format!("ablation-seg-{seg_pages}")), cfg)
            .expect("cluster");
        let rps = rows_per_segment(&storage);
        // Fixed data volume; the segment count varies with the size.
        let total_rows = rows_per_segment(&recovery_storage(scale)) * scale.pick(16, 24, 101);
        prefill(&cluster, "t0", total_rows).expect("prefill");
        // The *same* historical rows are updated under every segmentation:
        // keys spread across the oldest quarter of the data. Finer segments
        // confine the recovery scan to fewer dirty bytes; coarser segments
        // drag whole large segments into Phase 2 (§4.2 trade-off).
        let updates = scale.pick(80usize, 160, 400);
        for k in 0..updates {
            let key = (k as i64) * (total_rows / 4) / updates as i64;
            cluster
                .run_txn(vec![harbor_workload::update_by_key_request(
                    "t0", key, k as i32,
                )])
                .expect("update");
        }
        let n_segments = (total_rows / rps).max(1);
        let victim = SiteId(1);
        cluster.crash_worker(victim).expect("crash");
        let t0 = std::time::Instant::now();
        let report = cluster.recover_worker_harbor(victim).expect("recover");
        rows.push(vec![
            format!("{} KB", seg_pages * 4),
            n_segments.to_string(),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
            report.tuples_copied().to_string(),
        ]);
        cluster.shutdown();
    }
    print_table(
        "ablation 3: segment size vs recovery time (fixed data + update volume)",
        &["segment size", "segments", "recovery (ms)", "tuples copied"],
        &rows,
    );
}

fn deletion_log_sweep(scale: Scale) {
    // Fig 6-5's single-table HARBOR scenario, the buddy answering Phase 2's
    // deletion queries from the §5.2-footnote deletion log: recovery should
    // stay flat as more historical segments are updated. (The segment-scan
    // arm is gone with the knob that chose it.)
    let rps = rows_per_segment(&recovery_storage(scale));
    let prefill_segments = scale.pick(20i64, 30, 101);
    let prefill_rows = rps * prefill_segments;
    let per_segment = scale.pick(20usize, 50, 100);
    let mut rows = Vec::new();
    for segs in [0usize, 4, 8, 12] {
        let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
        cfg.storage = recovery_storage(scale);
        cfg.tables = vec![TableSpec::paper_table("t0")];
        let cluster =
            Cluster::build(experiment_dir(&format!("ablation-dlog-{segs}")), cfg).expect("cluster");
        prefill(&cluster, "t0", prefill_rows).expect("prefill");
        for seg in 0..segs as i64 {
            for k in 0..per_segment {
                let key = seg * rps + (k as i64 % rps);
                cluster
                    .run_txn(vec![harbor_workload::update_by_key_request(
                        "t0", key, k as i32,
                    )])
                    .expect("update");
            }
        }
        let victim = SiteId(1);
        cluster.crash_worker(victim).expect("crash");
        let t0 = std::time::Instant::now();
        cluster.recover_worker_harbor(victim).expect("recover");
        rows.push(vec![
            segs.to_string(),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
        cluster.shutdown();
    }
    print_table(
        "ablation 4: deletion log (the §5.2-footnote deletion vector), recovery time (ms) vs historical segments updated",
        &["segments updated", "recovery (ms)"],
        &rows,
    );
}

fn main() {
    let scale = Scale::from_env();
    println!("Design ablations (scale={scale:?})");
    checkpoint_frequency_sweep(scale);
    group_delay_sweep(scale);
    segment_size_sweep(scale);
    deletion_log_sweep(scale);
}
