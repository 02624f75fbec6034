//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! Every table and figure of the thesis evaluation (Ch. 6 plus Tables
//! 4.1/4.2) has a dedicated bench target under `benches/`; this library
//! holds the common plumbing: experiment cluster construction with the
//! scaled-down defaults of DESIGN.md §1, bulk prefill of replicated tables,
//! and plain-text table/series printers so `cargo bench` output reads like
//! the paper's figures.
//!
//! Scaling: set `HARBOR_BENCH_SCALE` to `quick` (CI default), `standard`,
//! or `paper` (closest to thesis parameters; minutes of runtime).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use harbor::{Cluster, ClusterConfig, TableSpec, TransportKind};
use harbor_common::metrics::Group;
use harbor_common::{DbResult, DiskProfile, StorageConfig, Timestamp, Tuple};
use harbor_dist::ProtocolKind;
use harbor_wal::GroupCommit;
use harbor_workload::paper_row;
use std::path::PathBuf;
use std::time::Duration;

/// Experiment scale selected via `HARBOR_BENCH_SCALE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Quick,
    Standard,
    Paper,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("HARBOR_BENCH_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            Ok("standard") => Scale::Standard,
            _ => Scale::Quick,
        }
    }

    /// Scales a `(quick, standard, paper)` triple.
    pub fn pick<T: Copy>(self, quick: T, standard: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Standard => standard,
            Scale::Paper => paper,
        }
    }
}

/// A fresh experiment directory under the target temp dir.
pub fn experiment_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-bench")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    #[expect(
        clippy::expect_used,
        reason = "a bench without its directory cannot run"
    )]
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    dir
}

/// The emulated 2006-era disk: ~5 ms per forced write (DESIGN.md §1). The
/// data still reaches the OS file so crash simulation stays exact.
pub fn paper_disk() -> DiskProfile {
    DiskProfile::emulated(Duration::from_millis(5))
}

/// The emulated LAN: ~150 µs per message plus 100 Mbps of link
/// bandwidth, restoring the paper's network-vs-disk cost ratio on
/// loopback. Bandwidth matters for recovery: catch-up scans ship whole
/// segments, so their wire time is proportional to bytes, not messages.
pub fn paper_lan() -> TransportKind {
    TransportKind::InMem {
        latency: Some(Duration::from_micros(150)),
        bandwidth: Some(100_000_000 / 8),
    }
}

/// Storage shape for the throughput experiments (Figs 6-2/6-3): small
/// tables, emulated forced-write latency.
pub fn throughput_storage() -> StorageConfig {
    StorageConfig {
        buffer_pool_pages: 2048,
        segment_pages: 64,
        disk: paper_disk(),
        lock_timeout: Duration::from_millis(500),
    }
}

/// Storage shape for the recovery experiments (Figs 6-4/6-5/6-6): fast
/// disk (recovery compares log replay against network copy, not fsync
/// cost), segments sized so the prefill spans ~tens of segments like the
/// paper's 101.
pub fn recovery_storage(scale: Scale) -> StorageConfig {
    StorageConfig {
        buffer_pool_pages: scale.pick(4096, 8192, 16384),
        segment_pages: 16, // 64 KB segments
        disk: DiskProfile::fast(),
        lock_timeout: Duration::from_millis(500),
    }
}

/// Builds a throughput-experiment cluster: `workers` workers (the paper
/// uses 2 for §6.3), given protocol, emulated disk and LAN, per-stream
/// tables created as `t0..t{streams-1}`.
pub fn throughput_cluster(
    name: &str,
    protocol: ProtocolKind,
    workers: usize,
    streams: usize,
    group_commit: GroupCommit,
) -> DbResult<Cluster> {
    let mut cfg = ClusterConfig::new(protocol, workers);
    cfg.storage = throughput_storage();
    cfg.group_commit = group_commit;
    cfg.transport = paper_lan();
    cfg.checkpoint_every = Some(Duration::from_secs(1));
    for s in 0..streams {
        cfg.tables.push(TableSpec::paper_table(&format!("t{s}")));
    }
    Cluster::build(experiment_dir(name), cfg)
}

/// Builds a recovery-experiment cluster (Figs 6-4/6-5): all four nodes of
/// the paper (coordinator + 3 workers), manual checkpoints.
pub fn recovery_cluster(
    name: &str,
    protocol: ProtocolKind,
    tables: &[&str],
    scale: Scale,
) -> DbResult<Cluster> {
    let mut cfg = ClusterConfig::new(protocol, 3);
    cfg.storage = recovery_storage(scale);
    cfg.transport = TransportKind::InMem {
        latency: None,
        bandwidth: None,
    };
    cfg.checkpoint_every = None;
    for t in tables {
        cfg.tables.push(TableSpec::paper_table(t));
    }
    Cluster::build(experiment_dir(name), cfg)
}

/// Bulk-loads `rows` committed rows (ids `0..rows`, commit time 1) into
/// `table` on every worker, then checkpoints — the experiment's "1 GB
/// table with a fresh checkpoint" starting state (§6.4).
pub fn prefill(cluster: &Cluster, table: &str, rows: i64) -> DbResult<()> {
    for site in cluster.worker_sites() {
        let engine = cluster.engine(site)?;
        #[expect(
            clippy::expect_used,
            reason = "a bench prefills only the tables it created"
        )]
        let def = engine.table_def(table).expect("prefill of existing table");
        let mut inserter = engine.recovered_inserter(def.id)?;
        for id in 0..rows {
            let tup = Tuple::versioned(Timestamp(1), Timestamp::ZERO, paper_row(id));
            inserter.insert(&tup)?;
        }
        inserter.flush()?;
        engine.advance_applied_clock(Timestamp(1));
        engine.checkpoint()?;
        if engine.is_logging() {
            engine.log_checkpoint()?;
        }
    }
    cluster.coordinator().authority().advance_to(Timestamp(1));
    Ok(())
}

/// Rows per segment for a config (prefill planning).
pub fn rows_per_segment(storage: &StorageConfig) -> i64 {
    let tuple = TableSpec::paper_table("x");
    let width: usize = 16
        + tuple
            .user_fields
            .iter()
            .map(|(_, t)| t.width())
            .sum::<usize>();
    let per_page = harbor_storage::slots_per_page(width) as i64;
    per_page * storage.segment_pages as i64
}

/// Restricts the calling thread, and every thread it starts from then on,
/// to one CPU it may run on (the highest-numbered), as `harbor-benchmark`
/// runs: on one CPU a hand-off between threads is a wake on the same core,
/// and there is one answer instead of one per placement. Returns the CPU,
/// or `None` where the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    let size = WORDS * std::mem::size_of::<u64>();
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes;
    // the kernel writes no more. Pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, only read; it
    // names a CPU the kernel has just said this thread may use.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Allocation counts for tests and benches. A binary that installs
/// [`Counting`] as its `#[global_allocator]` can read, around the path it
/// measures, how many allocations (`alloc`, `alloc_zeroed` and `realloc`
/// calls) and bytes every thread of the process asked for. The counts are
/// process-wide, so a test that reads them is the only one in its binary.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// The system allocator, counting.
    pub struct Counting;

    fn count(bytes: usize) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }

    // SAFETY: every call is forwarded to `System` with the caller's own
    // arguments; the counters are atomics and allocate nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller's contract for `alloc`, passed on.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            // SAFETY: the caller's contract for `realloc`, passed on.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract for `dealloc`, passed on.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations and bytes asked for so far, or between two reads.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Counts {
        pub allocations: u64,
        pub bytes: u64,
    }

    impl Counts {
        /// The counts now (all zero unless [`Counting`] is installed).
        pub fn now() -> Counts {
            Counts {
                allocations: ALLOCATIONS.load(Relaxed),
                bytes: BYTES.load(Relaxed),
            }
        }

        /// What was counted from `earlier` to `self`.
        pub fn since(self, earlier: Counts) -> Counts {
            Counts {
                allocations: self.allocations - earlier.allocations,
                bytes: self.bytes - earlier.bytes,
            }
        }
    }
}

// ----------------------------------------------------------------------
// Machine-readable baselines (BENCH_*.json)
// ----------------------------------------------------------------------

/// Directory for `BENCH_*.json` artifacts: `HARBOR_BENCH_OUT` if set, else
/// the current working directory (the workspace root under `cargo bench`).
pub fn bench_out_dir() -> PathBuf {
    std::env::var_os("HARBOR_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Median of raw nanosecond samples (sorted in place).
pub fn median_ns(mut samples: Vec<u128>) -> u128 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A machine-readable benchmark baseline, dumped as `BENCH_<name>.json` so
/// CI and follow-up PRs can diff read-path throughput without parsing the
/// human-oriented tables. Hand-rolled JSON: the container vendors no serde.
pub struct BenchReport {
    name: String,
    config: Vec<(String, String)>,
    entries: Vec<String>,
}

impl BenchReport {
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            config: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Records one `"key": "value"` config pair (scale, row count, …).
    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Stamps the machine the report was measured on: the CPU model, the
    /// CPUs the process may use, and the kernel.
    pub fn environment(&mut self) -> &mut Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpuinfo = read("/proc/cpuinfo");
        let model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, m)| m.trim());
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        self.config("cpu", model)
            .config("cpus", cpus)
            .config("kernel", read("/proc/sys/kernel/osrelease").trim())
    }

    /// Records one measurement: median wall nanoseconds over `rows` items,
    /// with derived ns/row and Mrows/s throughput.
    pub fn entry(&mut self, name: &str, median_ns: u128, rows: u64) -> &mut Self {
        self.entry_with(name, median_ns, rows, &[])
    }

    /// As [`BenchReport::entry`], with additional numeric fields appended to
    /// the entry object (`extras` values must already be valid JSON numbers
    /// — the commit bench uses this for txn/s and latency percentiles).
    pub fn entry_with(
        &mut self,
        name: &str,
        median_ns: u128,
        rows: u64,
        extras: &[(&str, String)],
    ) -> &mut Self {
        let per_row = median_ns as f64 / rows.max(1) as f64;
        let mrows = rows as f64 / (median_ns as f64 / 1e9).max(1e-12) / 1e6;
        let mut entry = format!(
            "{{\"name\": \"{}\", \"median_ns\": {median_ns}, \"rows\": {rows}, \
             \"ns_per_row\": {per_row:.2}, \"mrows_per_s\": {mrows:.3}",
            json_escape(name)
        );
        for (k, v) in extras {
            entry.push_str(&format!(", \"{}\": {v}", json_escape(k)));
        }
        entry.push('}');
        self.entries.push(entry);
        self
    }

    /// Serializes the report. Field order is fixed so diffs stay readable.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\n  \"report\": \"{}\",\n",
            json_escape(&self.name)
        ));
        s.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": \"{}\"",
                json_escape(k),
                json_escape(v)
            ));
        }
        s.push_str("\n  },\n  \"benches\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            s.push_str(e);
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Writes `BENCH_<name>.json` into [`bench_out_dir`] (created if
    /// missing), returning the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = bench_out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prints a plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints one figure series as `x  y` pairs.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("series: {name}");
    for (x, y) in points {
        println!("  {x:>12.2}  {y:>12.2}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn bench_report_emits_wellformed_json() {
        let mut r = BenchReport::new("unit");
        r.config("scale", "quick").config("rows", 10_000);
        r.entry("seq_scan", 2_000_000, 10_000);
        r.entry("with \"quotes\"\n", 1, 1);
        let json = r.to_json();
        // No serde in the container: check shape structurally.
        assert!(json.starts_with("{\n  \"report\": \"unit\""));
        assert!(json.contains("\"ns_per_row\": 200.00"));
        assert!(json.contains("\\\"quotes\\\"\\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn rows_per_segment_is_positive() {
        let n = rows_per_segment(&recovery_storage(Scale::Quick));
        assert!(n > 100, "paper tuples are small: {n}");
    }

    #[test]
    fn prefill_loads_every_worker() {
        let cluster =
            recovery_cluster("lib-prefill", ProtocolKind::Opt3pc, &["t"], Scale::Quick).unwrap();
        prefill(&cluster, "t", 500).unwrap();
        for site in cluster.worker_sites() {
            let e = cluster.engine(site).unwrap();
            let def = e.table_def("t").unwrap();
            let mut scan = harbor_exec::SeqScan::new(
                e.pool().clone(),
                def.id,
                harbor_exec::ReadMode::Historical(Timestamp(1)),
            )
            .unwrap();
            assert_eq!(harbor_exec::collect(&mut scan).unwrap().len(), 500);
            assert_eq!(e.checkpointer().global(), Timestamp(1));
        }
    }
}

// ----------------------------------------------------------------------
// Recovery experiment machinery (Figs 6-4 / 6-5 / 6-6)
// ----------------------------------------------------------------------

/// The recovery scenarios of §6.4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryScenario {
    /// One table, log-based recovery (the ARIES baseline).
    Aries1Table,
    /// One table, HARBOR query-based recovery.
    Harbor1Table,
    /// Two tables, HARBOR recovering them serially.
    HarborSerial2,
    /// Two tables, HARBOR recovering them in parallel.
    HarborParallel2,
}

impl RecoveryScenario {
    pub fn name(self) -> &'static str {
        match self {
            RecoveryScenario::Aries1Table => "ARIES, 1 table",
            RecoveryScenario::Harbor1Table => "HARBOR, 1 table",
            RecoveryScenario::HarborSerial2 => "HARBOR, serial, 2 tables",
            RecoveryScenario::HarborParallel2 => "HARBOR, parallel, 2 tables",
        }
    }

    pub fn tables(self) -> Vec<String> {
        match self {
            RecoveryScenario::Aries1Table | RecoveryScenario::Harbor1Table => vec!["t0".into()],
            _ => vec!["t0".into(), "t1".into()],
        }
    }

    pub fn is_aries(self) -> bool {
        matches!(self, RecoveryScenario::Aries1Table)
    }

    pub const ALL: [RecoveryScenario; 4] = [
        RecoveryScenario::Aries1Table,
        RecoveryScenario::Harbor1Table,
        RecoveryScenario::HarborSerial2,
        RecoveryScenario::HarborParallel2,
    ];
}

/// Outcome of one recovery measurement.
pub struct RecoveryRun {
    /// Wall time of the recovery itself.
    pub elapsed: Duration,
    /// HARBOR per-phase breakdown (query-based scenarios).
    pub report: Option<harbor::RecoveryReport>,
    /// The recovering site's counter deltas across the recovery window
    /// (tuples/bytes shipped to it, ranges fetched/reassigned).
    pub metrics: Option<harbor_common::MetricsSnapshot>,
    /// Per-site read-hot-path summaries at quiesce: aggregate pool
    /// hit/miss/eviction counters, scan admission counters, zero-copy
    /// bytes, the per-shard buffer-pool breakdown, and the storage
    /// fault-plane counters (faults injected, checksum failures, repairs).
    pub read_path: Vec<String>,
    /// Coordinator commit-path summary at quiesce: forced writes, physical
    /// syncs, batched syncs saved, and the epoch-size histogram.
    pub commit_path: String,
}

/// One worker's read-hot-path summary: the aggregate counters plus the
/// per-shard `hits/misses/evictions/resident` breakdown of its pool.
pub fn site_read_path_summary(
    site: harbor_common::SiteId,
    engine: &harbor_engine::Engine,
) -> String {
    let snap = engine.metrics().snapshot();
    let shards: Vec<String> = engine
        .pool()
        .shard_stats()
        .iter()
        .map(|s| format!("{}h/{}m/{}e/{}r", s.hits, s.misses, s.evictions, s.resident))
        .collect();
    format!(
        "{site}: {} shards[{}] {}",
        snap.summary(Group::ReadPath),
        shards.join(" "),
        snap.summary(Group::Scrub)
    )
}

/// Runs one §6.4-style experiment: build cluster → prefill → run the
/// workload → crash worker 1 → time its recovery → verify replica
/// equivalence. `workload` issues the post-checkpoint transactions.
pub fn run_recovery_scenario(
    name: &str,
    scenario: RecoveryScenario,
    scale: Scale,
    prefill_rows: i64,
    workload: impl FnOnce(&Cluster, &[String]) -> DbResult<()>,
) -> DbResult<RecoveryRun> {
    let tables = scenario.tables();
    let table_refs: Vec<&str> = tables.iter().map(|s| s.as_str()).collect();
    let protocol = if scenario.is_aries() {
        ProtocolKind::Trad2pc
    } else {
        ProtocolKind::Opt3pc
    };
    let mut cfg_cluster_dir = experiment_dir(name);
    cfg_cluster_dir.push("cluster");
    let mut cfg = ClusterConfig::new(protocol, 3);
    cfg.storage = recovery_storage(scale);
    // §6.4 ran on the same 100 Mbps LAN as the throughput experiments:
    // recovery queries pay per-message latency like everything else.
    cfg.transport = paper_lan();
    cfg.checkpoint_every = None;
    cfg.parallel_recovery = scenario != RecoveryScenario::HarborSerial2;
    for t in &table_refs {
        cfg.tables.push(TableSpec::paper_table(t));
    }
    let cluster = Cluster::build(cfg_cluster_dir, cfg)?;
    for t in &table_refs {
        prefill(&cluster, t, prefill_rows)?;
    }
    workload(&cluster, &tables)?;
    // "After ... any and all log writes have reached disk, I crash a
    // worker site" (§6.4): flush the victim's log tail first.
    let victim = harbor_common::SiteId(1);
    if scenario.is_aries() {
        let e = cluster.engine(victim)?;
        if let Some(wal) = e.wal() {
            wal.flush_all()?;
        }
    }
    cluster.crash_worker(victim)?;
    let t0 = std::time::Instant::now();
    let report = if scenario.is_aries() {
        cluster.recover_worker_aries(victim)?;
        None
    } else {
        Some(cluster.recover_worker_harbor(victim)?)
    };
    let elapsed = t0.elapsed();
    // Recovery-throughput counters: ranges fetched/reassigned and tuples
    // applied count on the recovering site; tuples/bytes shipped count on
    // the buddies that served the recovery queries.
    let metrics = if scenario.is_aries() {
        None
    } else {
        let mut snap = cluster.engine(victim)?.metrics().snapshot();
        for site in cluster.worker_sites() {
            if site == victim {
                continue;
            }
            if let Ok(e) = cluster.engine(site) {
                let s = e.metrics().snapshot();
                snap.recovery_tuples_shipped += s.recovery_tuples_shipped;
                snap.recovery_bytes_shipped += s.recovery_bytes_shipped;
            }
        }
        Some(snap)
    };
    // Verify: the recovered replica matches a survivor on every table.
    let now = cluster.coordinator().authority().now().prev();
    for t in &table_refs {
        let mut counts = Vec::new();
        for site in [victim, harbor_common::SiteId(2)] {
            let e = cluster.engine(site)?;
            #[expect(
                clippy::expect_used,
                reason = "the bench created every table it verifies"
            )]
            let def = e.table_def(t).expect("table exists");
            let mut scan = harbor_exec::SeqScan::new(
                e.pool().clone(),
                def.id,
                harbor_exec::ReadMode::Historical(now),
            )?;
            let mut n = 0u64;
            let mut sum = 0i64;
            harbor_exec::op::Operator::open(&mut scan)?;
            while let Some(tup) = harbor_exec::op::Operator::next(&mut scan)? {
                n += 1;
                sum = sum.wrapping_add(tup.get(2).as_i64()?);
                sum = sum.wrapping_add(tup.get(3).as_i64()?);
            }
            counts.push((n, sum));
        }
        assert_eq!(
            counts[0],
            counts[1],
            "{name}: replica divergence on {t} after {}",
            scenario.name()
        );
    }
    let mut read_path = Vec::new();
    for site in cluster.worker_sites() {
        if let Ok(e) = cluster.engine(site) {
            read_path.push(site_read_path_summary(site, &e));
        }
    }
    let commit_path = cluster
        .coordinator()
        .metrics()
        .snapshot()
        .summary(Group::CommitPath);
    cluster.shutdown();
    Ok(RecoveryRun {
        elapsed,
        report,
        metrics,
        read_path,
        commit_path,
    })
}

/// Round-robins `total` single-insert transactions over `tables`, ids
/// starting at `first_id`.
pub fn run_insert_txns(
    cluster: &Cluster,
    tables: &[String],
    total: usize,
    first_id: i64,
) -> DbResult<()> {
    for i in 0..total {
        let table = &tables[i % tables.len()];
        cluster.insert_one(table, paper_row(first_id + i as i64))?;
    }
    Ok(())
}

/// Issues `per_segment` indexed updates into each of the given historical
/// segments (ids are laid out sequentially by [`prefill`], so segment `s`
/// holds ids `s*rows_per_segment .. (s+1)*rows_per_segment`).
pub fn run_historical_updates(
    cluster: &Cluster,
    table: &str,
    segments: &[i64],
    per_segment: usize,
    rows_per_seg: i64,
) -> DbResult<()> {
    for &seg in segments {
        for k in 0..per_segment {
            let key = seg * rows_per_seg + (k as i64 % rows_per_seg);
            cluster.run_txn(vec![harbor_workload::update_by_key_request(
                table,
                key,
                0x5eed + k as i32,
            )])?;
        }
    }
    Ok(())
}
