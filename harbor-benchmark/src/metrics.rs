//! The names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` at the root of the repo says the same; a unit test
//! keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// ISSUE 12's bound, the share of A's median by which `compare` lets B
    /// be worse. `compare` can answer "unresolved" when a side's own spread
    /// is wider than this, so it can be strict.
    pub tight: f64,
    /// `BENCHMARK.json`'s bound, where the driver gates the metric. The
    /// driver has no verdict between "within" and "rejected", and refuses a
    /// benchmark whose own run-to-run spread crosses its bound, so this one
    /// has to clear the box's weather (README, "Steadiness").
    pub gate: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    tight: f64,
    gate: Option<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        tight,
        gate,
    }
}

use Better::{Higher, Lower};

/// What a user of the warehouse sees on every workload: the metrics the
/// driver gates.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.10, Some(0.25)),
    e2e("txn_per_s", "txn/s", Higher, 0.05, Some(0.20)),
    e2e("txn_p50_ms", "ms", Lower, 0.05, Some(0.25)),
    e2e("txn_p99_ms", "ms", Lower, 0.10, Some(0.25)),
    e2e("peak_rss_mb", "MB", Lower, 0.10, Some(0.25)),
];

/// End-to-end metrics that exist on one workload only. They are measured
/// like the five above (tracing off, reduced over rounds the same way) and
/// `compare` judges them, but `BENCHMARK.json` lists them with the
/// per-layer metrics: the driver wants every `end_to_end` metric from every
/// workload, never 0, and a scan time on a loading workload or a recovery
/// time where nothing crashed would be a number made up to fill the slot.
pub const ON_ONE_WORKLOAD: &[(&str, EndToEnd)] = &[
    (
        "snapshot_reads",
        e2e("scan_full_ms", "ms", Lower, 0.07, None),
    ),
    (
        "snapshot_reads",
        e2e("scan_filter_ms", "ms", Lower, 0.07, None),
    ),
    (
        "snapshot_reads",
        e2e("point_read_ms", "ms", Lower, 0.07, None),
    ),
    ("crash_recovery", e2e("recovery_s", "s", Lower, 0.10, None)),
];

/// Single-layer metrics, `module.metric`, read from outside in the traced
/// pass. The README says which end-to-end metric each should move. The
/// result line of a traced run carries `ON_ONE_WORKLOAD` and then these.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("front.overhead_us", "us", Lower),
    ("front.ping_us", "us", Lower),
    ("front.admitted", "count", Higher),
    ("front.shed", "count", Lower),
    ("front.deadline_rejects", "count", Lower),
    ("front.permit_waits", "count", Lower),
    ("front.queue_peak", "count", Lower),
    ("front.drain_ms", "ms", Lower),
    ("dist.begin_us", "us", Lower),
    ("dist.update_us", "us", Lower),
    ("dist.commit_us", "us", Lower),
    ("dist.epochs", "count", Lower),
    ("dist.epoch_mean_txns", "txn", Higher),
    ("dist.syncs_saved", "count", Higher),
    ("dist.aborts", "count", Lower),
    ("dist.rpc_timeouts", "count", Lower),
    ("dist.rpc_retries", "count", Lower),
    ("dist.read_ship_ns_per_row", "ns", Lower),
    ("net.msgs_per_txn", "1/txn", Lower),
    ("net.bytes_per_txn", "B/txn", Lower),
    ("wal.forces_per_txn", "1/txn", Lower),
    ("wal.syncs_per_txn", "1/txn", Lower),
    ("wal.log_writes_per_txn", "1/txn", Lower),
    ("wal.force_ms", "ms", Lower),
    ("engine.local_txn_us", "us", Lower),
    ("engine.checkpoint_ms", "ms", Lower),
    ("engine.lock_waits", "count", Lower),
    ("engine.lock_timeouts", "count", Lower),
    ("engine.index_hits", "count", Higher),
    ("engine.index_rebuilds", "count", Lower),
    ("exec.scan_ns_per_row", "ns", Lower),
    ("exec.filter_ns_per_row", "ns", Lower),
    ("exec.rows_admitted", "count", Lower),
    ("exec.rows_skipped_predecode", "count", Higher),
    ("exec.bytes_zero_copy", "B", Higher),
    ("exec.rows_examined_per_result.full", "1/row", Lower),
    ("exec.rows_examined_per_result.filter", "1/row", Lower),
    ("exec.rows_examined_per_result.point", "1/row", Lower),
    ("storage.pool_hit_rate", "%", Higher),
    ("storage.page_reads", "count", Lower),
    ("storage.page_writes", "count", Lower),
    ("storage.evictions", "count", Lower),
    ("storage.pin_ns_per_page", "ns", Lower),
    ("storage.bulk_append_ns_per_row", "ns", Lower),
    ("storage.disk_bytes_per_row", "B", Lower),
    ("core.recovery.phase1_ms", "ms", Lower),
    ("core.recovery.phase2_deletes_ms", "ms", Lower),
    ("core.recovery.phase2_inserts_ms", "ms", Lower),
    ("core.recovery.phase3_ms", "ms", Lower),
    ("core.recovery.unaccounted_ms", "ms", Lower),
    ("core.recovery.tuples_copied", "count", Lower),
    ("core.recovery.bytes_shipped", "B", Lower),
    ("core.recovery.tuples_per_s", "1/s", Higher),
    ("core.recovery.ranges_fetched", "count", Lower),
    ("core.recovery.rounds", "count", Lower),
    ("core.serve_through_retries", "count", Lower),
    ("core.failover_gap_ms", "ms", Lower),
    ("core.phase3_stall_ms", "ms", Lower),
    ("core.build_ms", "ms", Lower),
    ("core.shutdown_ms", "ms", Lower),
    ("common.tuple_codec_ns_per_row", "ns", Lower),
    ("proc.cpu_us_per_txn", "us", Lower),
    ("proc.maps_per_txn", "1/txn", Lower),
    ("proc.threads_peak", "count", Lower),
    ("proc.gen_late_us", "us", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("trace.accounted_pct", "%", Higher),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ingest_front",
        "2 sessions load through the front door into 3 workers with nothing sleeping: every write-path layer does CPU work, the log does nothing",
    ),
    (
        "commit_lan",
        "2 in-process streams commit over an injected LAN and a 5 ms forced write: latency is messages, forces and epoch linger; CPU savings should not show",
    ),
    (
        "snapshot_reads",
        "scans and key reads at a fixed snapshot of a 200k-row table that fits the pool, beside a paced writer on the same table: decode dominates",
    ),
    (
        "crash_recovery",
        "a worker misses a bulk load larger than its pool while 2 sessions load on without it, then rejoins by querying replicas; the recovery is timed with nothing else running",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_says_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = arr(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
            let gate = j.get("bound").and_then(Json::as_f64);
            assert_eq!(gate, m.gate, "{}", m.name);
            assert!(gate.is_some_and(|g| g > 0.0 && g <= 0.25 && m.tight <= g));
            assert!(m.tight <= 0.10, "the issue's ceiling");
        }
        assert!(e2e.iter().any(|j| s(j, "name") == "setup_s"));
        let layers = arr(&doc, "per_layer");
        let listed: Vec<(&str, &str, Better)> = ON_ONE_WORKLOAD
            .iter()
            .map(|(_, m)| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().copied())
            .collect();
        assert_eq!(layers.len(), listed.len());
        assert!(layers.len() <= 128);
        for (j, (name, unit, better)) in layers.iter().zip(listed) {
            assert_eq!(s(j, "name"), name);
            assert_eq!(s(j, "unit"), unit, "{name}");
            assert_eq!(s(j, "better"), better.as_str(), "{name}");
        }
        let workloads = arr(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(s(j, "name"), *name);
            assert_eq!(s(j, "why"), *why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(ON_ONE_WORKLOAD.iter().map(|(_, m)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        let units = END_TO_END
            .iter()
            .chain(ON_ONE_WORKLOAD.iter().map(|(_, m)| m))
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(u.len() <= 16, "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
    }
}
