//! The four workloads. Each is a sequence of rounds; a round builds a fresh
//! cluster, runs a fixed amount of work in timed windows, checks every
//! replica, and shuts down. Sizes are constants here and are repeated, with
//! the reasons, in the README.
//!
//! Every round has a write window (`txn_*`): that is what all four report.
//! `snapshot_reads` runs its report queries beside it (`scan_*`,
//! `point_read_ms`); `crash_recovery` crashes worker 1 before it and times
//! `recover_worker_harbor` after it (`recovery_s`).

use crate::gen::{
    correction_schedule, ingest_schedule, pacing_schedule, paper_f0, query_schedule, stored_row,
    Model, Query, Rng, TxnSpec,
};
use crate::procfs;
use crate::rig::*;
use crate::stats::{median, median_or_zero};
use crate::trace::{analyze, Analyzed, Name, Tracer};
use harbor::{Cluster, RecoveryReport};
use harbor_common::{DiskProfile, MetricsSnapshot, Timestamp};
use harbor_dist::{EpochCommitConfig, ProtocolKind};
use harbor_exec::{collect, Filter, ReadMode, SeqScan};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RoundCtx<'a> {
    pub seed: u64,
    pub round: usize,
    /// Scratch directory of this round; the caller removes it afterwards.
    pub dir: &'a Path,
    /// `Some` in a traced round: spans are recorded and the per-layer
    /// timings that cost time (local scans, page walks) are taken.
    pub tracer: Option<&'a Arc<Tracer>>,
}

impl RoundCtx<'_> {
    fn spans(&self) -> Option<&Tracer> {
        self.tracer.map(|t| &**t)
    }

    /// A generator stream for one purpose in this round. Rounds of one run
    /// get different inputs; the same seed and round get the same ones.
    fn rng(&self, purpose: u64) -> Rng {
        Rng::new(self.seed, (self.round as u64) << 8 | purpose)
    }
}

/// What one round measured. Latencies are kept per operation; the caller
/// reduces each round to one value per metric, and the rounds to one.
#[derive(Default)]
pub struct Round {
    /// Building, loading, checkpointing, connecting and shutting down:
    /// everything the system does outside the timed windows.
    pub setup_s: f64,
    pub txn_latency_ms: Vec<f64>,
    pub txn_window_s: f64,
    pub full_ms: Vec<f64>,
    pub filter_ms: Vec<f64>,
    pub point_ms: Vec<f64>,
    /// `crash_recovery` only; 0 elsewhere.
    pub recovery_s: f64,
    /// Peak resident set size during this round.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Transactions this round's cluster served in its whole life.
    pub cluster_txns: u64,
    pub layer: Vec<(&'static str, f64)>,
    /// Spans of a traced round, for `trace.jsonl`.
    pub spans: Vec<Analyzed>,
}

impl Round {
    fn put(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    fn fail(&mut self, n: u64, why: Option<String>) {
        self.failed += n;
        if self.first_error.is_none() {
            self.first_error = why;
        }
    }

    /// Counts a window's operations; `measured` windows feed `txn_*`.
    fn absorb(&mut self, lanes: &[Lane], measured: bool) {
        for lane in lanes {
            self.attempted += lane.attempted;
            self.cluster_txns += lane.attempted;
            self.fail(lane.failed, lane.first_error.clone());
            if measured {
                self.txn_latency_ms
                    .extend(lane.acks.iter().map(|a| a.latency_ns as f64 / 1e6));
            }
        }
    }

    fn absorb_queries(&mut self, q: QueryTimes) {
        self.attempted += q.attempted();
        self.fail(q.failed, q.first_error.clone());
        for (kind, name) in [
            "exec.rows_examined_per_result.full",
            "exec.rows_examined_per_result.filter",
            "exec.rows_examined_per_result.point",
        ]
        .into_iter()
        .enumerate()
        {
            self.put(
                name,
                ratio(q.examined[kind] as f64, q.returned[kind] as f64),
            );
        }
        self.full_ms.extend(q.full_ms);
        self.filter_ms.extend(q.filter_ms);
        self.point_ms.extend(q.point_ms);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ----------------------------------------------------------------------
// Per-layer numbers shared by the workloads
// ----------------------------------------------------------------------

/// Process-level readings around a write window.
struct ProcMark {
    cpu_s: f64,
    maps: usize,
}

impl ProcMark {
    fn read() -> Self {
        ProcMark {
            cpu_s: procfs::cpu_seconds(),
            maps: procfs::maps_lines(),
        }
    }
}

/// Counter growth across the measured write window, per acknowledged
/// transaction: messages, forces, epochs, CPU, mapped regions.
fn write_window_layers(
    r: &mut Round,
    before: &(Counters, ProcMark),
    after: &(Counters, ProcMark),
    acked: u64,
) {
    let n = acked as f64;
    let net = after.0.net.since(&before.0.net);
    let coord = after.0.coord.since(&before.0.coord);
    r.put("net.msgs_per_txn", ratio(net.messages_sent as f64, n));
    r.put("net.bytes_per_txn", ratio(net.bytes_sent as f64, n));
    let all =
        |f: fn(&MetricsSnapshot) -> u64| (f(&coord) + after.0.workers_since(&before.0, f)) as f64;
    r.put("wal.forces_per_txn", ratio(all(|m| m.forced_writes), n));
    r.put("wal.syncs_per_txn", ratio(all(|m| m.physical_syncs), n));
    r.put("wal.log_writes_per_txn", ratio(all(|m| m.log_writes), n));
    r.put("dist.epochs", coord.epochs_committed as f64);
    r.put(
        "dist.epoch_mean_txns",
        ratio(coord.epoch_txns as f64, coord.epochs_committed as f64),
    );
    r.put("dist.syncs_saved", coord.batched_syncs_saved as f64);
    r.put(
        "proc.cpu_us_per_txn",
        ratio((after.1.cpu_s - before.1.cpu_s) * 1e6, n),
    );
    r.put(
        "proc.maps_per_txn",
        ratio(after.1.maps.saturating_sub(before.1.maps) as f64, n),
    );
}

/// Rows the workers' scans have looked at so far, admitted or not.
fn rows_examined(cluster: &Cluster) -> u64 {
    Counters::read(cluster).workers.iter().fold(0, |n, (_, m)| {
        n + m.scan_rows_admitted + m.scan_rows_skipped_predecode
    })
}

/// Counter growth across the read window on the workers.
fn read_window_layers(r: &mut Round, before: &Counters, after: &Counters) {
    r.put(
        "exec.rows_admitted",
        after.workers_since(before, |m| m.scan_rows_admitted) as f64,
    );
    r.put(
        "exec.rows_skipped_predecode",
        after.workers_since(before, |m| m.scan_rows_skipped_predecode) as f64,
    );
}

/// Totals over the cluster's life, read just before shutdown. `crashed`
/// holds the last reading of a worker before each of its crashes: its
/// counters restart with it.
fn whole_round_layers(
    r: &mut Round,
    end: &Counters,
    crashed: &[MetricsSnapshot],
    threads_peak: u64,
) {
    let w = |f: fn(&MetricsSnapshot) -> u64| -> f64 {
        let live = end.workers.iter().map(|(_, m)| m);
        live.chain(crashed).map(f).sum::<u64>() as f64
    };
    r.put("dist.aborts", end.coord.aborts as f64);
    r.put(
        "dist.rpc_timeouts",
        end.coord.rpc_timeouts as f64 + w(|m| m.rpc_timeouts),
    );
    r.put(
        "dist.rpc_retries",
        end.coord.rpc_retries as f64 + w(|m| m.rpc_retries),
    );
    r.put("engine.lock_waits", w(|m| m.lock_waits));
    r.put("engine.lock_timeouts", w(|m| m.lock_timeouts));
    r.put("engine.index_hits", w(|m| m.index_hits));
    r.put("engine.index_rebuilds", w(|m| m.index_rebuilds));
    let (hits, misses) = (w(|m| m.pool_hits), w(|m| m.pool_misses));
    r.put("storage.pool_hit_rate", ratio(hits * 100.0, hits + misses));
    r.put("storage.page_reads", w(|m| m.page_reads));
    r.put("storage.page_writes", w(|m| m.page_writes));
    r.put("storage.evictions", w(|m| m.evictions));
    r.put("exec.bytes_zero_copy", w(|m| m.scan_bytes_zero_copy));
    r.put("proc.threads_peak", threads_peak as f64);
}

fn front_layers(r: &mut Round, front: Option<Front>) -> f64 {
    let Some(front) = front else {
        return 0.0;
    };
    let t = Instant::now();
    let drain = front.server.shutdown();
    let took = secs(t);
    let m = front.metrics.snapshot();
    r.put("front.admitted", m.requests_admitted as f64);
    r.put("front.shed", m.requests_shed as f64);
    r.put("front.deadline_rejects", m.deadline_rejects as f64);
    r.put("front.permit_waits", m.permit_waits as f64);
    r.put("front.queue_peak", m.queue_peak_depth as f64);
    r.put("front.drain_ms", drain.as_secs_f64() * 1e3);
    took
}

/// Fig 6-6's decomposition of one recovery, plus what the counters say was
/// shipped. `before` was read with the victim down.
fn recovery_layers(
    r: &mut Round,
    recovery_s: f64,
    report: &RecoveryReport,
    before: &Counters,
    after: &Counters,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let phases = [
        ("core.recovery.phase1_ms", ms(report.phase1())),
        (
            "core.recovery.phase2_deletes_ms",
            ms(report.phase2_deletes()),
        ),
        (
            "core.recovery.phase2_inserts_ms",
            ms(report.phase2_inserts()),
        ),
        ("core.recovery.phase3_ms", ms(report.phase3())),
    ];
    let mut accounted = 0.0;
    for (name, v) in phases {
        accounted += v;
        r.put(name, v);
    }
    // Objects recover in parallel, so the phases of several objects can add
    // up to more than the wall time; the remainder is then negative.
    r.put("core.recovery.unaccounted_ms", recovery_s * 1e3 - accounted);
    r.put("core.recovery.tuples_copied", report.tuples_copied() as f64);
    r.put(
        "core.recovery.bytes_shipped",
        after.workers_since(before, |m| m.recovery_bytes_shipped) as f64,
    );
    r.put(
        "core.recovery.tuples_per_s",
        ratio(report.tuples_copied() as f64, recovery_s),
    );
    r.put(
        "core.recovery.ranges_fetched",
        after.workers_since(before, |m| m.recovery_ranges_fetched) as f64,
    );
    let rounds = report
        .objects
        .iter()
        .map(|o| o.phase2_rounds)
        .max()
        .unwrap_or(0);
    r.put("core.recovery.rounds", rounds as f64);
}

/// The recovery window: `recover_worker_harbor` on this thread with nothing
/// else running, and its decomposition.
fn timed_recovery(r: &mut Round, cluster: &Cluster, ctx: &RoundCtx) -> Res<()> {
    let down = Counters::read(cluster);
    let (recovery_s, report) = recover(cluster, ctx.spans(), 0)?;
    r.recovery_s = recovery_s;
    r.attempted += 1;
    recovery_layers(r, recovery_s, &report, &down, &Counters::read(cluster));
    Ok(())
}

/// Medians of the spans of the measured write window, and how much of the
/// client-observed median they account for.
fn span_layers(r: &mut Round, spans: &Analyzed) {
    let med = |v: Vec<f64>| median_or_zero(&v);
    let overhead = med(spans.self_us(Name::ClientTxn));
    let begin = med(spans.durations_us(Name::DistBegin));
    let update = med(spans.durations_us(Name::DistUpdate));
    let commit = med(spans.durations_us(Name::DistCommit));
    let txns = spans.durations_us(Name::ClientTxn);
    let updates_per_txn = ratio(
        spans.durations_us(Name::DistUpdate).len() as f64,
        txns.len() as f64,
    );
    r.put("front.overhead_us", overhead);
    r.put("dist.begin_us", begin);
    r.put("dist.update_us", update);
    r.put("dist.commit_us", commit);
    let sum = overhead + begin + update * updates_per_txn + commit;
    r.put("trace.accounted_pct", ratio(sum * 100.0, med(txns)));
}

/// Timings taken in isolation, with nothing else running, on a table whose
/// keys start at 0: a full scan through the coordinator, then on worker 1
/// the same table through a local `SeqScan`, a local `Filter`, and a bare
/// page walk, so that the RPC's cost over the scan and the scan's cost
/// over the pool can be told apart.
fn isolate_reads(
    r: &mut Round,
    cluster: &Cluster,
    table: &str,
    as_of: Timestamp,
    model: &Model,
) -> Res<()> {
    const REPS: usize = 3;
    let engine = db(cluster.engine(VICTIM), "engine of worker 1")?;
    let def = engine.table_def(table).ok_or("no such table")?;
    let rows = model.len() as f64;
    let scan = || SeqScan::new(engine.pool().clone(), def.id, ReadMode::Historical(as_of));
    let mut rpc_ns = Vec::new();
    let mut full_ns = Vec::new();
    let mut filter_ns = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let shipped = cluster.coordinator().read_historical(table, as_of, |_| {});
        rpc_ns.push(secs(t) * 1e9);
        std::hint::black_box(db(shipped, "full scan through the coordinator")?);
        let mut op = db(scan(), "local scan")?;
        let t = Instant::now();
        let got = db(collect(&mut op), "local scan")?;
        full_ns.push(secs(t) * 1e9);
        if got.len() != model.len() {
            return Err(format!(
                "local scan of {table}: {} rows, want {}",
                got.len(),
                model.len()
            ));
        }
        let one_percent = Query::Filter {
            lo: 0,
            hi: (model.len() as i64 / 100).max(1),
        };
        let pred = predicate(&one_percent).ok_or("a filter has a predicate")?;
        let mut op = Filter::new(Box::new(db(scan(), "local scan")?), pred);
        let t = Instant::now();
        std::hint::black_box(db(collect(&mut op), "local filter")?);
        filter_ns.push(secs(t) * 1e9);
    }
    let local = median(&full_ns);
    r.put("exec.scan_ns_per_row", ratio(local, rows));
    r.put("exec.filter_ns_per_row", ratio(median(&filter_ns), rows));
    r.put(
        "dist.read_ship_ns_per_row",
        ratio(median(&rpc_ns) - local, rows),
    );

    let heap = db(engine.pool().table(def.id), "heap file")?;
    let pages = heap.all_page_ids();
    let mut walk_ns = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for pid in &pages {
            db(
                engine
                    .pool()
                    .with_page(None, *pid, |p| Ok(std::hint::black_box(p).used())),
                "pin",
            )?;
        }
        walk_ns.push(secs(t) * 1e9);
    }
    r.put(
        "storage.pin_ns_per_page",
        ratio(median(&walk_ns), pages.len() as f64),
    );
    r.put(
        "storage.disk_bytes_per_row",
        ratio(heap.data_bytes() as f64, rows),
    );
    Ok(())
}

/// The common end of a round: stop the front door, check every replica,
/// shut the cluster down, and fill in the whole-round numbers.
#[allow(clippy::too_many_arguments)]
fn finish(
    mut r: Round,
    cluster: Cluster,
    front: Option<Front>,
    tables: &[(&str, &Model)],
    crashed: &[MetricsSnapshot],
    threads_peak: u64,
    build_s: f64,
    mut setup_s: f64,
) -> Res<Round> {
    setup_s += front_layers(&mut r, front);
    check_replicas(&cluster, tables)?;
    procfs::check_maps(procfs::maps_lines())?;
    if r.cluster_txns > MAX_TXNS_PER_CLUSTER {
        return Err(format!("{} transactions on one cluster", r.cluster_txns));
    }
    whole_round_layers(&mut r, &Counters::read(&cluster), crashed, threads_peak);
    let t = Instant::now();
    cluster.shutdown();
    drop(cluster);
    let shutdown_s = secs(t);
    r.put("core.build_ms", build_s * 1e3);
    r.put("core.shutdown_ms", shutdown_s * 1e3);
    r.setup_s = setup_s + shutdown_s;
    Ok(r)
}

fn victim_metrics(c: &Counters) -> Res<MetricsSnapshot> {
    let victim = c.workers.iter().find(|(s, _)| *s == VICTIM);
    victim
        .map(|(_, m)| *m)
        .ok_or_else(|| format!("{VICTIM} is not running"))
}

// ----------------------------------------------------------------------
// ingest_front and commit_lan: the two loading workloads
// ----------------------------------------------------------------------

/// A loading workload: `CLIENTS` closed-loop sessions, one table each, run
/// the insert/overwrite mix. Nothing is read and nothing crashes.
pub struct Loading {
    pub shape: ClusterShape,
    /// Through loopback TCP and `harbor-front`, or straight into
    /// `Coordinator::{begin,update,commit}`.
    pub front_door: bool,
    /// Transactions per session.
    pub txns: usize,
}

const LOADING_TABLES: &[&str] = &["t0", "t1"];

pub const INGEST_FRONT: Loading = Loading {
    shape: ClusterShape {
        protocol: ProtocolKind::Opt3pc,
        workers: 3,
        pool_pages: 4096,
        segment_pages: 64,
        disk: DiskProfile::fast(),
        lan: None,
        epoch_commit: None,
        checkpoint_every: Some(Duration::from_secs(1)),
        tables: LOADING_TABLES,
    },
    front_door: true,
    txns: 2500,
};

pub fn commit_lan() -> Loading {
    Loading {
        shape: ClusterShape {
            protocol: ProtocolKind::Opt2pc,
            workers: 2,
            pool_pages: 2048,
            segment_pages: 64,
            disk: DiskProfile::emulated(Duration::from_millis(5)),
            lan: Some((Duration::from_micros(150), 100_000_000 / 8)),
            epoch_commit: Some(EpochCommitConfig::default()),
            checkpoint_every: Some(Duration::from_secs(1)),
            tables: LOADING_TABLES,
        },
        front_door: false,
        txns: 500,
    }
}

/// Applies a window's acknowledged transactions to the tables' models. A
/// closed loop acknowledges a prefix of its schedule unless something
/// failed, and a failure fails the run.
fn acknowledge(models: &mut [Model], window: &Window, specs: &[Vec<TxnSpec>]) {
    for ((lane, model), specs) in window.lanes.iter().zip(models).zip(specs) {
        for spec in &specs[..lane.acks.len()] {
            model.apply(spec);
        }
    }
}

/// Each session's schedule of `n` transactions of the loading mix, with
/// keys ascending from a seeded first key.
fn session_schedules(ctx: &RoundCtx, n: usize) -> Vec<Vec<TxnSpec>> {
    (0..CLIENTS)
        .map(|c| {
            let first = ((c as i64) << 32) + ctx.rng(c as u64).below(1 << 20) as i64;
            ingest_schedule(&mut ctx.rng(8 + c as u64), first, n)
        })
        .collect()
}

/// One connected session per table, each warmed by a ping.
fn sessions_through<'a>(
    front: &Front,
    tables: &[&str],
    ctx: &'a RoundCtx,
) -> Res<Vec<Session<'a>>> {
    let mut sessions = Vec::new();
    for (c, table) in tables.iter().enumerate() {
        let mut s = Session::through_front(front, c, table, ctx.spans())?;
        db(s.ping(), "first ping")?;
        sessions.push(s);
    }
    Ok(sessions)
}

/// The write window every workload has in some form: the sessions run
/// their schedules closed loop, side by side; the window's latencies,
/// counter growth and (traced) spans go into `r`, its acknowledged
/// transactions into `models`.
fn write_window(
    ctx: &RoundCtx,
    cluster: &Cluster,
    r: &mut Round,
    sessions: &mut [Session],
    schedules: &[Vec<TxnSpec>],
    models: &mut [Model],
) -> Res<()> {
    let before = (Counters::read(cluster), ProcMark::read());
    let window = run_window(sessions, schedules);
    let after = (Counters::read(cluster), ProcMark::read());
    procfs::check_maps(after.1.maps)?;
    r.txn_window_s = window.elapsed_s;
    r.absorb(&window.lanes, true);
    acknowledge(models, &window, schedules);
    write_window_layers(r, &before, &after, window.acked());
    if let Some(t) = ctx.spans() {
        let spans = analyze(t.take());
        span_layers(r, &spans);
        r.spans.push(spans);
    }
    Ok(())
}

pub fn loading_round(ctx: &RoundCtx, w: &Loading) -> Res<Round> {
    let mut r = Round::default();
    let t = Instant::now();
    let cluster = build_cluster(ctx.dir, &w.shape)?;
    let build_s = secs(t);
    let front = match w.front_door {
        true => Some(start_front(&cluster, LOADING_TABLES, ctx.tracer)?),
        false => None,
    };
    let mut sessions = match &front {
        Some(f) => sessions_through(f, LOADING_TABLES, ctx)?,
        None => (LOADING_TABLES.iter().enumerate())
            .map(|(c, table)| Session::direct(&cluster, c, table, ctx.spans()))
            .collect(),
    };
    let setup_s = secs(t);

    let schedules = session_schedules(ctx, w.txns);
    let mut models = vec![Model::default(); CLIENTS];
    write_window(
        ctx,
        &cluster,
        &mut r,
        &mut sessions,
        &schedules,
        &mut models,
    )?;
    let threads_peak = procfs::threads();
    // Gate: a protocol that keeps no log anywhere must not have forced one.
    let p = w.shape.protocol;
    let forces = r
        .layer
        .iter()
        .find(|(n, _)| *n == "wal.forces_per_txn")
        .map_or(0.0, |(_, v)| *v);
    if !p.coordinator_logs() && !p.workers_log() && forces != 0.0 {
        return Err(format!(
            "{} forced {forces} log writes per transaction",
            p.name()
        ));
    }
    if ctx.tracer.is_some() {
        // In isolation: what one checkpoint of what was just loaded costs.
        r.put("engine.checkpoint_ms", median(&checkpoint_all(&cluster)?));
    }

    drop(sessions);
    let tables: Vec<(&str, &Model)> = LOADING_TABLES.iter().copied().zip(&models).collect();
    finish(
        r,
        cluster,
        front,
        &tables,
        &[],
        threads_peak,
        build_s,
        setup_s,
    )
}

// ----------------------------------------------------------------------
// snapshot_reads
// ----------------------------------------------------------------------

const FACTS: &str = "facts";
/// Visible rows at the read snapshot; every 4th key also has an older
/// version, so 250k tuples are stored.
const FACT_ROWS: i64 = 200_000;
/// The load's history: every row is inserted at time 1; the older versions
/// are replaced at times `2..=SNAPSHOT`, fifty per tick. (All at one time
/// would cost seconds: the deletion log searches a tick's list linearly on
/// every insert — see the README.)
const SNAPSHOT: u64 = 1001;
/// When the current version of `id` was inserted.
fn fact_time(id: i64) -> u64 {
    match id % 4 {
        0 => 2 + (id as u64 / 4) % (SNAPSHOT - 1),
        _ => 1,
    }
}
const WRITER_RATE: u64 = 400;

const SNAPSHOT_SHAPE: ClusterShape = ClusterShape {
    protocol: ProtocolKind::Opt3pc,
    workers: 3,
    pool_pages: 8192,
    segment_pages: 64,
    disk: DiskProfile::fast(),
    lan: None,
    epoch_commit: None,
    checkpoint_every: None,
    tables: &[FACTS],
};

pub fn snapshot_reads_round(ctx: &RoundCtx) -> Res<Round> {
    const QUERIES: (usize, usize, usize) = (9, 27, 27);
    /// Four times what the read window consumes at the writer's rate in a
    /// quiet hour (were the box ever slower than that, the last reads would
    /// go unaccompanied), yet inside the cluster's transaction budget.
    const PACED: usize = 4000;

    let mut r = Round::default();
    let t = Instant::now();
    let cluster = build_cluster(ctx.dir, &SNAPSHOT_SHAPE)?;
    let build_s = secs(t);
    let load = Instant::now();
    let mut loaded = 0;
    for site in cluster.worker_sites() {
        let rows = (0..FACT_ROWS).flat_map(|id| {
            let at = fact_time(id);
            let old = (at > 1).then(|| stored_row(id, !paper_f0(id), 1, at));
            old.into_iter().chain([stored_row(id, paper_f0(id), at, 0)])
        });
        loaded += direct_load(&cluster, site, FACTS, rows, SNAPSHOT)?;
    }
    r.put(
        "storage.bulk_append_ns_per_row",
        ratio(secs(load) * 1e9, loaded as f64),
    );
    cluster
        .coordinator()
        .authority()
        .advance_to(Timestamp(SNAPSHOT));
    let ckpt_ms = checkpoint_all(&cluster)?;
    r.put("engine.checkpoint_ms", median(&ckpt_ms));
    let setup_s = secs(t);

    let at_snapshot = Model::prefilled(0, FACT_ROWS);
    let mut latest = at_snapshot.clone();
    let corrections = correction_schedule(&mut ctx.rng(1), FACT_ROWS, PACED);
    let due = pacing_schedule(&mut ctx.rng(2), WRITER_RATE, PACED);
    let (full, filter, point) = QUERIES;
    let queries = query_schedule(&mut ctx.rng(3), 0, FACT_ROWS, full, filter, point);

    // The one window: report queries at the fixed snapshot, with the paced
    // writer beside them on the same table. The writer is lane 0, the
    // reader lane 1.
    let mut writer = Session::direct(&cluster, 0, FACTS, ctx.spans());
    let examined = || rows_examined(&cluster);
    let before = (Counters::read(&cluster), ProcMark::read());
    let send = |i: usize| writer.txn(&corrections[i]);
    let (lane, times, window_s) = beside_writer(&due, send, |_| {
        run_queries(
            cluster.coordinator(),
            FACTS,
            Timestamp(SNAPSHOT),
            &queries,
            &at_snapshot,
            ctx.spans(),
            1,
            ctx.tracer.map(|_| &examined as &dyn Fn() -> u64),
        )
    });
    r.txn_window_s = window_s;
    let after = (Counters::read(&cluster), ProcMark::read());
    let threads_peak = procfs::threads();
    procfs::check_maps(after.1.maps)?;
    let paced = lane.acks.len();
    for spec in &corrections[..paced] {
        latest.apply(spec);
    }
    let late: Vec<f64> = lane.acks.iter().map(|a| a.late_ns as f64 / 1e3).collect();
    r.put("proc.gen_late_us", median_or_zero(&late));
    write_window_layers(&mut r, &before, &after, paced as u64);
    read_window_layers(&mut r, &before.0, &after.0);
    r.absorb(&[lane], true);
    r.absorb_queries(times);
    if let Some(t) = ctx.spans() {
        let spans = analyze(t.take());
        span_layers(&mut r, &spans);
        r.spans.push(spans);
        isolate_reads(&mut r, &cluster, FACTS, Timestamp(SNAPSHOT), &at_snapshot)?;
    }
    finish(
        r,
        cluster,
        None,
        &[(FACTS, &latest)],
        &[],
        threads_peak,
        build_s,
        setup_s,
    )
}

// ----------------------------------------------------------------------
// crash_recovery
// ----------------------------------------------------------------------

const BULK: &str = "bulk";
/// One table per loading session.
const LIVE: [&str; CLIENTS] = ["live0", "live1"];
/// Rows every replica holds, checkpointed, before the crash.
const BULK_BASE: i64 = 60_000;
/// Rows bulk-loaded on the survivors while worker 1 is down. Together
/// 300k rows, about 3.3k pages: 1.6 times the 2048-page pool.
const BULK_MISSED: i64 = 240_000;
/// Transactions each session loads while worker 1 is down.
const LIVE_TXNS: usize = 2000;
/// The most a traced round's serve-through episode may send: with the
/// sessions' load, still inside the cluster's transaction budget.
const SERVED_THROUGH: usize = 900;
const _: () = assert!((CLIENTS * LIVE_TXNS + SERVED_THROUGH) as u64 <= MAX_TXNS_PER_CLUSTER);

const CRASH_SHAPE: ClusterShape = ClusterShape {
    protocol: ProtocolKind::Opt3pc,
    workers: 3,
    pool_pages: 2048,
    segment_pages: 64,
    disk: DiskProfile::fast(),
    lan: None,
    epoch_commit: None,
    checkpoint_every: None,
    tables: &[BULK, LIVE[0], LIVE[1]],
};

/// Traced rounds only, after everything that is timed: one session keeps
/// inserting, open loop at the paced writer's rate, while worker 1 crashes
/// again, stays down for a moment and rejoins beside it — serving through
/// a failure, which `recovery_s` (taken with nothing else running, see the
/// README) does not show. What each event cost the client it stalled:
/// `core.failover_gap_ms`, `core.phase3_stall_ms`.
fn serve_through(
    ctx: &RoundCtx,
    cluster: &Cluster,
    r: &mut Round,
    session: &mut Session,
    specs: &[TxnSpec],
    model: &mut Model,
    crashed: &mut Vec<MetricsSnapshot>,
) -> Res<()> {
    const PAUSE: Duration = Duration::from_millis(200);
    /// A transaction in flight when a replica dies is aborted, everywhere;
    /// the loader sends it again, and what that cost it is the failover gap.
    const TRIES: usize = 3;
    let mut retries = 0;
    let send = |i: usize| {
        let mut reply = session.txn(&specs[i]);
        for _ in 1..TRIES {
            if reply.is_ok() {
                break;
            }
            retries += 1;
            reply = session.txn(&specs[i]);
        }
        reply
    };
    let due = pacing_schedule(&mut ctx.rng(32), WRITER_RATE, specs.len());
    let (lane, events, _) = beside_writer(&due, send, |now| {
        std::thread::sleep(PAUSE);
        crashed.extend(victim_metrics(&Counters::read(cluster)));
        let crash = (now(), cluster.crash_worker(VICTIM), now());
        std::thread::sleep(PAUSE);
        let rejoin = (now(), recover(cluster, ctx.spans(), 1), now());
        std::thread::sleep(PAUSE);
        (crash, rejoin)
    });
    let ((crash_from, crash, crash_to), (rejoin_from, rejoin, rejoin_to)) = events;
    db(crash, "crash worker beside a client")?;
    rejoin?;
    r.attempted += 1;
    for spec in &specs[..lane.acks.len()] {
        model.apply(spec);
    }
    // Where the box was so slow that the client ran out of schedule before
    // the episode ended, the episode measured nothing.
    if (lane.attempted as usize) < specs.len() {
        r.put("core.serve_through_retries", retries as f64);
        r.put("core.failover_gap_ms", lane.stall_ms(crash_from, crash_to));
        r.put(
            "core.phase3_stall_ms",
            lane.stall_ms(rejoin_from, rejoin_to),
        );
    }
    r.absorb(&[lane], false);
    Ok(())
}

pub fn crash_recovery_round(ctx: &RoundCtx) -> Res<Round> {
    let mut r = Round::default();
    let t = Instant::now();
    let cluster = build_cluster(ctx.dir, &CRASH_SHAPE)?;
    let build_s = secs(t);
    let load = Instant::now();
    let mut loaded = 0;
    for site in cluster.worker_sites() {
        let rows = (0..BULK_BASE).map(|id| stored_row(id, paper_f0(id), 1, 0));
        loaded += direct_load(&cluster, site, BULK, rows, 1)?;
    }
    let mut load_s = secs(load);
    cluster.coordinator().authority().advance_to(Timestamp(1));
    let ckpt_ms = checkpoint_all(&cluster)?;
    r.put("engine.checkpoint_ms", median(&ckpt_ms));

    // Worker 1 fails; the nightly bulk load goes on without it.
    let mut crashed = vec![victim_metrics(&Counters::read(&cluster))?];
    db(cluster.crash_worker(VICTIM), "crash worker")?;
    let reload = Instant::now();
    for site in cluster.worker_sites() {
        let rows =
            (BULK_BASE..BULK_BASE + BULK_MISSED).map(|id| stored_row(id, paper_f0(id), 2, 0));
        loaded += direct_load(&cluster, site, BULK, rows, 2)?;
    }
    load_s += secs(reload);
    r.put(
        "storage.bulk_append_ns_per_row",
        ratio(load_s * 1e9, loaded as f64),
    );
    cluster.coordinator().authority().advance_to(Timestamp(2));
    let bulk = Model::prefilled(0, BULK_BASE + BULK_MISSED);

    let front = start_front(&cluster, &LIVE, ctx.tracer)?;
    let mut sessions = sessions_through(&front, &LIVE, ctx)?;
    let setup_s = secs(t);

    // Write window: the sessions keep loading through the front door while
    // the cluster runs one worker short.
    let schedules = session_schedules(ctx, LIVE_TXNS + SERVED_THROUGH);
    let (loading, after): (Vec<_>, Vec<_>) = schedules
        .iter()
        .map(|s| (s[..LIVE_TXNS].to_vec(), &s[LIVE_TXNS..]))
        .unzip();
    let mut live = vec![Model::default(); CLIENTS];
    write_window(ctx, &cluster, &mut r, &mut sessions, &loading, &mut live)?;
    let threads_peak = procfs::threads();

    // Recovery, with nothing else running: worker 1 fetches the bulk volume
    // and the sessions' rows from the two survivors, whose pools the volume
    // does not fit.
    timed_recovery(&mut r, &cluster, ctx)?;
    if ctx.tracer.is_some() {
        serve_through(
            ctx,
            &cluster,
            &mut r,
            &mut sessions[0],
            after[0],
            &mut live[0],
            &mut crashed,
        )?;
    }
    if let Some(t) = ctx.spans() {
        r.spans.push(analyze(t.take()));
        let as_of = cluster.coordinator().authority().now().prev();
        isolate_reads(&mut r, &cluster, BULK, as_of, &bulk)?;
    }

    drop(sessions);
    let tables = [(BULK, &bulk), (LIVE[0], &live[0]), (LIVE[1], &live[1])];
    finish(
        r,
        cluster,
        Some(front),
        &tables,
        &crashed,
        threads_peak,
        build_s,
        setup_s,
    )
}

/// The disk a workload's forced writes go to (for `wal.force_ms`).
pub fn disk_profile(workload: &str) -> DiskProfile {
    match workload {
        "commit_lan" => commit_lan().shape.disk,
        _ => DiskProfile::fast(),
    }
}

/// Measured rounds of one run, after the warm-up round: sized so that a
/// run takes the 30 s that `BENCHMARK.json` gives it on the box this was
/// written on. The count is fixed so that the parent's run and the
/// change's reduce the same number of rounds to their medians.
pub fn measured_rounds(workload: &str) -> usize {
    match workload {
        "ingest_front" => 14,
        "commit_lan" => 4,
        "snapshot_reads" => 5,
        "crash_recovery" => 9,
        _ => 1,
    }
}

/// One round of the named workload.
pub fn run_round(workload: &str, ctx: &RoundCtx) -> Res<Round> {
    procfs::reset_peak_rss();
    let mut round = match workload {
        "ingest_front" => loading_round(ctx, &INGEST_FRONT),
        "commit_lan" => loading_round(ctx, &commit_lan()),
        "snapshot_reads" => snapshot_reads_round(ctx),
        "crash_recovery" => crash_recovery_round(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    round.peak_rss_mb = procfs::peak_rss_mb();
    Ok(round)
}
