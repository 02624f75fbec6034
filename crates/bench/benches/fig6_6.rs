//! Figure 6-6 — decomposition of HARBOR recovery time by phase (§6.4.3).
//!
//! Re-runs the single-table scenario of Fig 6-5 and splits the recovery
//! wall time into its constituents: Phase 1 (local restore to the
//! checkpoint), Phase 2's SELECT+UPDATE (deletion copies — the part that
//! grows with updated historical segments), Phase 2's SELECT+INSERT (the
//! tuple copies — roughly constant for a fixed insert count), and Phase 3
//! (near zero when no transactions run during recovery).
//!
//! The heaviest point is then decomposed once more, per Phase-2 range:
//! fetch timers plus the recovery throughput counters (tuples/bytes
//! shipped, ranges fetched/reassigned).

use harbor::{Cluster, ClusterConfig, ReplicationSupervisor, TableSpec};
use harbor_bench::{
    experiment_dir, paper_lan, prefill, print_table, recovery_storage, rows_per_segment,
    run_historical_updates, run_insert_txns, run_recovery_scenario, BenchReport, RecoveryScenario,
    Scale,
};
use harbor_common::metrics::Group;
use harbor_common::SiteId;
use harbor_dist::ProtocolKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() {
    let scale = Scale::from_env();
    let seg_counts: Vec<usize> = match scale {
        Scale::Quick => vec![0, 2, 4, 8],
        _ => vec![0, 2, 4, 6, 8, 10, 12, 16],
    };
    let total_txns: usize = scale.pick(400, 2_000, 20_000);
    let updates_per_segment = scale.pick(20, 50, 100);
    let rps = rows_per_segment(&recovery_storage(scale));
    let prefill_segments = scale.pick(20, 30, 101) as i64;
    let prefill_rows = rps * prefill_segments;
    println!("Figure 6-6: decomposition of HARBOR recovery time by phase (ms)");
    println!("(scale={scale:?}, {total_txns} txns, single table)");
    let mut baseline = BenchReport::new("recovery");
    baseline
        .config("scale", format!("{scale:?}"))
        .config("total_txns", total_txns)
        .config("updates_per_segment", updates_per_segment)
        .config("prefill_rows", prefill_rows)
        .config("seg_counts", format!("{seg_counts:?}"));
    let mut rows = Vec::new();
    let mut heaviest = None;
    for &segs in &seg_counts {
        let run = run_recovery_scenario(
            &format!("fig6_6-{segs}"),
            RecoveryScenario::Harbor1Table,
            scale,
            prefill_rows,
            |cluster, tables| {
                let chosen: Vec<i64> = (0..segs as i64).collect();
                run_historical_updates(cluster, &tables[0], &chosen, updates_per_segment, rps)?;
                let inserts = total_txns.saturating_sub(segs * updates_per_segment);
                run_insert_txns(cluster, tables, inserts, prefill_rows + 1_000_000)
            },
        )
        .expect("scenario");
        let report = run.report.as_ref().expect("harbor report");
        baseline.entry(
            &format!("harbor_1table_recovery_segs{segs}"),
            run.elapsed.as_nanos(),
            report.tuples_copied() as u64,
        );
        let ms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
        rows.push(vec![
            segs.to_string(),
            ms(report.phase1()),
            ms(report.phase2_deletes()),
            ms(report.phase2_inserts()),
            ms(report.phase3()),
            ms(run.elapsed),
            report.tuples_copied().to_string(),
        ]);
        heaviest = Some((segs, run));
    }
    print_table(
        "per-phase recovery time",
        &[
            "segments updated",
            "phase 1",
            "phase 2 SEL+UPD",
            "phase 2 SEL+INS",
            "phase 3",
            "total",
            "tuples copied",
        ],
        &rows,
    );

    let (segs, run) = heaviest.expect("at least one point");
    let report = run.report.as_ref().expect("harbor report");
    let mut range_rows = Vec::new();
    for obj in &report.objects {
        for rt in &obj.range_timings {
            range_rows.push(vec![
                obj.table.clone(),
                format!("{}", rt.buddy),
                format!("({}, {}]", rt.lo.0, rt.hi.0),
                rt.tuples.to_string(),
                format!("{:.2}", rt.elapsed.as_secs_f64() * 1e3),
            ]);
        }
    }
    println!();
    println!(
        "Phase 2 at {segs} updated segments: total {:.1} ms, \
         {} ranges fetched, {} reassigned",
        run.elapsed.as_secs_f64() * 1e3,
        report.ranges_fetched(),
        report.ranges_reassigned(),
    );
    print_table(
        "per-range Phase-2 fetch timers",
        &[
            "table",
            "buddy",
            "insertion/deletion range",
            "tuples",
            "fetch ms",
        ],
        &range_rows,
    );
    if let Some(m) = &run.metrics {
        let secs = run.elapsed.as_secs_f64().max(1e-9);
        println!(
            "recovery throughput: {} tuples shipped ({:.0}/s), {:.2} MiB shipped \
             ({:.2} MiB/s), {} tuples applied ({:.0}/s)",
            m.recovery_tuples_shipped,
            m.recovery_tuples_shipped as f64 / secs,
            m.recovery_bytes_shipped as f64 / (1024.0 * 1024.0),
            m.recovery_bytes_shipped as f64 / (1024.0 * 1024.0) / secs,
            m.recovery_tuples_applied,
            m.recovery_tuples_applied as f64 / secs,
        );
        baseline.entry(
            "recovery_tuples_shipped",
            run.elapsed.as_nanos(),
            m.recovery_tuples_shipped,
        );
    }
    println!(
        "\nread hot path at quiesce (per site, per shard h/m/e/resident, storage fault plane):"
    );
    for line in &run.read_path {
        println!("  {line}");
    }
    println!("commit path at quiesce (coordinator): {}", run.commit_path);

    // Last: the membership extension's re-replication datapoint.
    // A host of the table is lost and evicted from the catalog; the
    // replication supervisor heals the K deficit by bootstrapping a
    // brand-new copy onto a spare member (Phase-2/3 against the surviving
    // buddy) while foreground inserts keep committing. Reports "time to
    // K" (kill acknowledged → replica count restored), foreground commit
    // latency during the repair window, and the coordinator's membership
    // counters.
    let (time_to_k, tuples_applied) = {
        let dir = experiment_dir("fig6_6-rereplicate");
        let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
        cfg.storage = recovery_storage(scale);
        cfg.transport = paper_lan();
        cfg.tables = vec![TableSpec::paper_table("sales")];
        let cluster = Arc::new(Cluster::build(dir.join("cluster"), cfg).expect("cluster"));
        // Place the table on sites 1 and 2 only: site 3 is the spare the
        // supervisor will re-replicate onto.
        cluster.placement().mutate(|p| {
            p.add_replicated_table("sales", &[SiteId(1), SiteId(2)]);
        });
        prefill(&cluster, "sales", prefill_rows).expect("prefill");
        let mut sup = ReplicationSupervisor::new(0x5EED, &cluster);
        // Kill one host and evict it: capacity is gone for good, so only
        // re-replication onto the spare can restore K.
        cluster.crash_worker(SiteId(2)).expect("crash");
        let t0 = Instant::now();
        cluster.decommission_worker(SiteId(2)).expect("evict");
        // Foreground load during the repair window.
        let stop = Arc::new(AtomicBool::new(false));
        let lat: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let load = {
            let (cluster, stop, lat) = (cluster.clone(), stop.clone(), lat.clone());
            std::thread::spawn(move || {
                let mut id = prefill_rows + 2_000_000;
                while !stop.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    if cluster
                        .insert_one("sales", harbor_workload::paper_row(id))
                        .is_ok()
                    {
                        lat.lock().unwrap().push(t.elapsed());
                    }
                    id += 1;
                }
            })
        };
        let mut tick_no = 0u64;
        while sup.tick(&cluster, tick_no).is_none() {
            tick_no += 1;
            assert!(tick_no < 10_000, "supervisor never completed the repair");
        }
        let time_to_k = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        load.join().expect("load thread");
        assert_eq!(
            cluster.placement().sites_for("sales").expect("placed"),
            vec![SiteId(1), SiteId(3)]
        );
        let mut lat = Arc::try_unwrap(lat)
            .expect("load stopped")
            .into_inner()
            .unwrap();
        lat.sort_unstable();
        let pct = |p: usize| -> Duration {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                lat[(lat.len() - 1) * p / 100]
            }
        };
        println!(
            "\nre-replication to K after a kill+evict ({prefill_rows} rows): \
             time-to-K {:.1} ms; foreground during repair: {} commits, \
             p50 {:.2} ms, p99 {:.2} ms",
            time_to_k.as_secs_f64() * 1e3,
            lat.len(),
            pct(50).as_secs_f64() * 1e3,
            pct(99).as_secs_f64() * 1e3,
        );
        println!(
            "membership counters (coordinator): {}",
            cluster
                .coordinator()
                .metrics()
                .snapshot()
                .summary(Group::Membership)
        );
        // Volume actually materialized on the spare: count its rows and
        // cross-check against the surviving buddy.
        let count_rows = |site: SiteId| -> u64 {
            let e = cluster.engine(site).expect("engine");
            let def = e.table_def("sales").expect("table");
            let mut scan = harbor_exec::SeqScan::new(
                e.pool().clone(),
                def.id,
                harbor_exec::ReadMode::SeeDeleted,
            )
            .expect("scan");
            harbor_exec::collect(&mut scan).expect("collect").len() as u64
        };
        let (spare_rows, buddy_rows) = (count_rows(SiteId(3)), count_rows(SiteId(1)));
        assert_eq!(
            spare_rows, buddy_rows,
            "re-replicated copy diverges from its buddy"
        );
        cluster.shutdown();
        (time_to_k, spare_rows)
    };
    baseline.entry(
        "rereplicate_time_to_k",
        time_to_k.as_nanos(),
        tuples_applied,
    );
    baseline.write().expect("write BENCH_recovery.json");
}
