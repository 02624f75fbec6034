//! HARBOR's three-phase, replica-query recovery algorithm (thesis Ch. 5).
//!
//! For each database object `rec` on the failed site:
//!
//! * **Phase 1** (local, §5.2): delete every tuple inserted after the last
//!   checkpoint or left uncommitted on disk, and undelete every tuple whose
//!   deletion timestamp postdates the checkpoint. After this, `rec` reflects
//!   exactly the transactions committed at or before `T_checkpoint`.
//! * **Phase 2** (remote, lock-free, §5.3): pick a high water mark
//!   `HWM = now - 1` and run *historical* queries against the recovery
//!   buddies to copy (a) deletion times applied to pre-checkpoint tuples in
//!   `(T_checkpoint, HWM]` and (b) whole tuples inserted in that window.
//!   Because historical queries take no locks, the system is never
//!   quiesced. Each pass records a per-object checkpoint; another pass
//!   runs while commits keep arriving and each pass copies less than half
//!   of what the one before it did ([`repeat_phase2`]).
//! * **Phase 3** (remote, locked, §5.4): take table-granularity read locks
//!   on every recovery object, catch up from the HWM to the current time
//!   with ordinary `SEE DELETED` queries, announce "`rec` coming online" to
//!   the coordinator (which forwards queued updates of pending transactions
//!   so the site joins them, Fig 5-4), and finally release the locks.
//!
//! All remote reads stream in batches; the local halves are batch scans so
//! recovery time never depends on a (possibly cold) primary-key index.
//!
//! Scrub repairs a corrupt page with the same three phases, from a
//! checkpoint its quarantine step ([`quarantine_site`]) rewound.

use harbor_common::{
    retry_with, DbError, DbResult, Metrics, PageId, RecordId, RetryPolicy, SiteId, TableId,
    Timestamp, TransactionId, Tuple,
};
use harbor_dist::{
    rpc, scan_rpc, with_read_retries, CrashPoint, CrashSchedule, Placement, RecoveryObject,
    RemoteScan, Request, Response, WireReadMode, DEFAULT_READ_RETRIES, DEFAULT_RETRY_BACKOFF,
};
use harbor_engine::Engine;
use harbor_exec::{scan_pages, visit_page, ReadMode, ScanRow};
use harbor_net::{Channel, Transport};
use harbor_storage::{Page, ScanBounds, SegmentedHeapFile};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long Phase 3 keeps retrying its table-lock acquisition (deadlocks
/// resolve by timeout and retry, §5.4.1).
const LOCK_RETRY_FOR: Duration = Duration::from_secs(30);

/// One ranged Phase-2 fetch: which buddy served `(lo, hi]`, how much it
/// shipped, and how long the fetch took (Fig 6-6's per-range breakdown).
#[derive(Clone, Debug)]
pub struct RangeTiming {
    pub buddy: SiteId,
    pub lo: Timestamp,
    pub hi: Timestamp,
    pub tuples: u64,
    pub elapsed: Duration,
}

/// Timing/volume breakdown for one recovered object (Fig 6-6's
/// decomposition).
#[derive(Clone, Debug, Default)]
pub struct ObjectReport {
    pub table: String,
    pub phase1: Duration,
    /// Phase 2 remote SELECT + local UPDATE of deletion times.
    pub phase2_deletes: Duration,
    /// Phase 2 remote SELECT + local INSERT of new tuples.
    pub phase2_inserts: Duration,
    pub phase3: Duration,
    pub deletions_copied: u64,
    pub tuples_copied: u64,
    pub phase2_rounds: u32,
    pub checkpoint: Timestamp,
    /// One entry per Phase-2 range fetched, deletions and inserts alike.
    pub range_timings: Vec<RangeTiming>,
    /// How often a range was handed to another buddy because the one it
    /// was dealt to died or answered corrupt mid-stream (§5.5.2).
    pub ranges_reassigned: u64,
}

impl ObjectReport {
    /// Books one Phase-2 walk here and in the site's counters; returns the
    /// rows it fetched.
    fn book(&mut self, (timings, reassigned): Walk, metrics: &Metrics) -> u64 {
        metrics.add_recovery_ranges_fetched(timings.len() as u64);
        metrics.add_recovery_ranges_reassigned(reassigned);
        self.ranges_reassigned += reassigned;
        let fetched = timings.iter().map(|t| t.tuples).sum();
        self.range_timings.extend(timings);
        fetched
    }
}

/// Whole-site recovery summary.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    pub objects: Vec<ObjectReport>,
    pub total: Duration,
}

impl RecoveryReport {
    pub fn phase1(&self) -> Duration {
        self.objects.iter().map(|o| o.phase1).sum()
    }

    pub fn phase2_deletes(&self) -> Duration {
        self.objects.iter().map(|o| o.phase2_deletes).sum()
    }

    pub fn phase2_inserts(&self) -> Duration {
        self.objects.iter().map(|o| o.phase2_inserts).sum()
    }

    pub fn phase3(&self) -> Duration {
        self.objects.iter().map(|o| o.phase3).sum()
    }

    pub fn tuples_copied(&self) -> u64 {
        self.objects.iter().map(|o| o.tuples_copied).sum()
    }

    pub fn ranges_fetched(&self) -> u64 {
        self.objects
            .iter()
            .map(|o| o.range_timings.len() as u64)
            .sum()
    }

    pub fn ranges_reassigned(&self) -> u64 {
        self.objects.iter().map(|o| o.ranges_reassigned).sum()
    }
}

/// Everything the recovering site needs to reach the rest of the cluster.
pub struct RecoveryContext {
    pub engine: Arc<Engine>,
    pub site: SiteId,
    pub placement: Placement,
    pub transport: Arc<dyn Transport>,
    /// Sites currently known to be down (excluded from buddy selection).
    pub down: HashSet<SiteId>,
    /// The cluster's liveness deadline, here per frame of every exchange
    /// with a buddy: one that stops producing bytes for this long —
    /// including a partitioned peer whose socket never closes — is treated
    /// as dead ([`harbor_common::DbError::SiteUnavailable`]), which triggers
    /// the same range-reassignment path as a closed connection.
    pub rpc_deadline: Duration,
    /// Recover the site's objects in parallel (§5.1) or one at a time — the
    /// comparison of Figs 6-4/6-5.
    pub parallel_objects: bool,
    /// The cluster's crash schedule, probed at the `Recovery*` points.
    pub crash_schedule: Arc<CrashSchedule>,
    /// The recovery point that fired in this recovery, if one did. The
    /// site died there, so every object recovered in parallel stops at that
    /// step too (§5.5), not only the one that reached it first.
    pub died_at: Mutex<Option<CrashPoint>>,
}

impl RecoveryContext {
    /// Fails the recovery as if the site died here, if `point` is armed or
    /// has already fired in this recovery.
    fn crash_at(&self, point: CrashPoint) -> DbResult<()> {
        let mut died_at = self.died_at.lock();
        if *died_at == Some(point) || self.crash_schedule.fire(self.site, point) {
            *died_at = Some(point);
            return Err(DbError::SiteDown(format!("injected crash at {point:?}")));
        }
        Ok(())
    }

    fn connect(&self, site: SiteId) -> DbResult<Box<dyn Channel>> {
        let addr = self.placement.address(site)?;
        self.transport.connect(addr)
    }

    fn connect_coordinator(&self) -> DbResult<Box<dyn Channel>> {
        self.transport.connect(self.placement.coordinator_addr()?)
    }

    /// One round trip with a buddy or the coordinator, under the liveness
    /// deadline; an expiry is counted on this site.
    fn ask(&self, chan: &mut dyn Channel, req: &Request) -> DbResult<Response> {
        rpc(chan, req, self.rpc_deadline, self.engine.metrics())
    }

    /// The objects this site holds: the tables the catalog places here that
    /// the engine has.
    fn local_objects(&self) -> Vec<String> {
        let placed = self.placement.objects_on(self.site);
        let names = placed.into_iter().map(|(name, _)| name);
        names
            .filter(|name| self.engine.table_def(name).is_some())
            .collect()
    }
}

/// The one place a high-water mark is read (§5.3's `HWM = now - 1`): just
/// below the commit watermark `GetTime` answers — the oldest commit time
/// whose COMMIT round is still out, else the current time — so every
/// transaction with a commit time at or below it is committed on every live
/// replica's pages and a historical query as of it misses none of them.
/// Idempotent, so a silent peer or a dropped connection gets bounded
/// retries.
fn stable_hwm(ctx: &RecoveryContext) -> DbResult<Timestamp> {
    let metrics = ctx.engine.metrics();
    let reply = with_read_retries(metrics, DEFAULT_READ_RETRIES, DEFAULT_RETRY_BACKOFF, || {
        let mut chan = ctx.connect_coordinator()?;
        ctx.ask(chan.as_mut(), &Request::GetTime)
    })?;
    match reply {
        Response::Time { now } => Ok(now.prev()),
        other => Err(other.into_error("GetTime")),
    }
}

/// Recovers every object on the site; returns the per-object breakdown.
/// The engine must already be open (Phase 0 = reopening heap files); the
/// site's worker server should be serving so it can receive forwarded
/// updates while joining pending transactions.
pub fn recover_site(ctx: &RecoveryContext) -> DbResult<RecoveryReport> {
    let start = Instant::now();
    // §5.2: periodically scheduled checkpoints are disabled during recovery.
    ctx.engine.checkpointer().set_suspended(true);
    let tables = ctx.local_objects();
    let objects: Vec<ObjectReport> = if ctx.parallel_objects {
        // Each object proceeds through its three phases at its own pace
        // (§5.1: "multiple rec objects ... recovered in parallel").
        let outcomes = fan_out(&tables, |_, t| recover_object(ctx, t));
        outcomes.into_iter().collect::<DbResult<_>>()?
    } else {
        let outcomes = tables.iter().map(|t| recover_object(ctx, t));
        outcomes.collect::<DbResult<_>>()?
    };
    // All objects done: promote the global checkpoint to the weakest
    // per-object time and resume normal checkpointing (§5.3).
    let min_ckpt = objects
        .iter()
        .map(|o| o.checkpoint)
        .min()
        .unwrap_or(Timestamp::ZERO);
    ctx.engine.checkpointer().finish_recovery(min_ckpt)?;
    // Advance the local clock so post-recovery checkpoints cover what was
    // copied.
    ctx.engine.advance_applied_clock(min_ckpt);
    Ok(RecoveryReport {
        objects,
        total: start.elapsed(),
    })
}

/// Recovers one database object through all three phases.
pub fn recover_object(ctx: &RecoveryContext, table_name: &str) -> DbResult<ObjectReport> {
    let def = ctx
        .engine
        .table_def(table_name)
        .ok_or_else(|| DbError::Schema(format!("unknown table {table_name:?}")))?;
    let mut report = ObjectReport {
        table: table_name.to_string(),
        ..Default::default()
    };
    let t_ckpt = ctx.engine.checkpointer().for_table(def.id);
    report.checkpoint = t_ckpt;

    // ---------------- Phase 1: restore to the last checkpoint ----------
    let t0 = Instant::now();
    phase1(ctx, def.id, t_ckpt)?;
    report.phase1 = t0.elapsed();
    ctx.crash_at(CrashPoint::RecoveryAfterPhase1)?;

    // ---------------- Phase 2: historical catch-up, pass by pass -------
    let plan = ctx
        .placement
        .recovery_plan(ctx.site, table_name, &ctx.down)?;
    let (mut ckpt, mut hwm, mut before) = (t_ckpt, stable_hwm(ctx)?, u64::MAX);
    loop {
        report.phase2_rounds += 1;
        let t0 = Instant::now();
        let deletions = phase2_deletions(ctx, def.id, &plan, ckpt, hwm, &mut report)?;
        report.phase2_deletes += t0.elapsed();
        report.deletions_copied += deletions;
        let t0 = Instant::now();
        let tuples = phase2_inserts(ctx, def.id, &plan, ckpt, hwm, &mut report)?;
        report.phase2_inserts += t0.elapsed();
        report.tuples_copied += tuples;
        // Object-specific checkpoint: rec is consistent up to the HWM —
        // once what the pass copied is on disk (Fig 3-2's order: flush,
        // then record).
        ctx.engine.pool().flush_all()?;
        ctx.engine.checkpointer().checkpoint_object(def.id, hwm)?;
        ctx.crash_at(CrashPoint::RecoveryAfterObjectCheckpoint)?;
        ckpt = hwm;
        let (next, copied) = (stable_hwm(ctx)?, deletions + tuples);
        if !repeat_phase2(hwm, next, copied, before) {
            break;
        }
        (hwm, before) = (next, copied);
    }
    ctx.crash_at(CrashPoint::RecoveryAfterPhase2)?;

    // ---------------- Phase 3: locked catch-up + join pending ----------
    let t0 = Instant::now();
    let final_time = phase3(ctx, def.id, table_name, &plan, hwm, &mut report)?;
    report.phase3 = t0.elapsed();
    report.checkpoint = final_time;
    ctx.engine
        .checkpointer()
        .checkpoint_object(def.id, final_time)?;
    Ok(report)
}

/// §5.3's repeat rule, clocked by the passes themselves. A pass read as of
/// `hwm` copied `copied` rows (deletion times plus tuples) and the pass
/// before it `before` (`u64::MAX` for the first). Another pass runs only if
/// a commit has settled since, so the fresh high-water mark `next` is above
/// `hwm`; the pass copied anything; and it copied less than half of what the
/// one before did. The counts at least halve from repeat to repeat, so
/// Phase 2 ends within 2 + log₂ c₁ passes with no cap; Phase 3 takes
/// whatever arrived during the last one.
fn repeat_phase2(hwm: Timestamp, next: Timestamp, copied: u64, before: u64) -> bool {
    next > hwm && copied > 0 && copied.saturating_mul(2) < before
}

/// Runs `job(i, item)` on every item at once — item 0 on the calling
/// thread, each further item on a scoped thread of its own — and returns
/// the outcomes in item order. A job that panics on a thread of its own
/// comes back as an internal error.
fn fan_out<I: Sync, T: Send>(
    items: &[I],
    job: impl Fn(usize, &I) -> DbResult<T> + Sync,
) -> Vec<DbResult<T>> {
    let Some((first, rest)) = items.split_first() else {
        return Vec::new();
    };
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..)
            .zip(rest)
            .map(|(i, item)| scope.spawn(move || job(i, item)))
            .collect();
        let mut outcomes = vec![job(0, first)];
        outcomes.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(DbError::internal("recovery thread panicked")))
        }));
        outcomes
    })
}

/// Phase 1 (§5.2): two local queries against the object.
fn phase1(ctx: &RecoveryContext, table: TableId, t_ckpt: Timestamp) -> DbResult<()> {
    let engine = &ctx.engine;
    let scan_start = engine.checkpointer().scan_start(table);
    // DELETE LOCALLY FROM rec SEE DELETED
    //   WHERE insertion_time > T_checkpoint OR insertion_time = uncommitted
    let bounds = ScanBounds {
        ins_after: Some(t_ckpt),
        uncommitted_from_segment: Some(scan_start),
        ..Default::default()
    };
    for rid in local_rows(engine, table, &bounds, |row| Some(row.rid))? {
        engine.remove_physical(rid)?;
    }
    // UPDATE LOCALLY rec SET deletion_time = 0 SEE DELETED
    //   WHERE deletion_time > T_checkpoint
    let bounds = ScanBounds::deleted_after(t_ckpt);
    for rid in local_rows(engine, table, &bounds, |row| Some(row.rid))? {
        engine.set_deletion(rid, Timestamp::ZERO)?;
    }
    Ok(())
}

/// The rows a local `SEE DELETED` statement with `bounds` reaches: what
/// `pick` takes from each row the page visitor admits (its place, and what
/// it read off the row's bytes), collected before the statement changes any.
fn local_rows<T>(
    engine: &Engine,
    table: TableId,
    bounds: &ScanBounds,
    mut pick: impl FnMut(&ScanRow<'_>) -> Option<T>,
) -> DbResult<Vec<T>> {
    let (pool, mut rows) = (engine.pool(), Vec::new());
    let heap = pool.table(table)?;
    for pid in scan_pages(&heap, bounds) {
        visit_page(pool, &heap, pid, ReadMode::SeeDeleted, bounds, |row| {
            rows.extend(pick(&row));
            Ok(())
        })?;
    }
    Ok(rows)
}

// ====================================================================
// Phase 2 (§5.3): one walker over `(lo, hi]` ranges serves both halves.
// ====================================================================

/// A buddy that died, stalled past the liveness deadline, or answered from
/// a corrupt page of its own loses the request to the next replica (§5.5).
/// Corruption is site-local and repairable, so neither fails the recovery.
fn buddy_lost(e: &DbError) -> bool {
    e.is_disconnect() || e.is_corrupt()
}

fn no_live_buddy(obj: &RecoveryObject) -> DbError {
    DbError::SiteDown(format!("no live buddy for {}", obj.table))
}

/// Runs `attempt` at each candidate in order until one is not
/// [`buddy_lost`]; that outcome — success or a real error — is the result.
/// When the list runs out the result is the last buddy's error, or
/// `none_live` if there was no buddy to ask.
fn first_live<T>(
    candidates: impl IntoIterator<Item = SiteId>,
    none_live: DbError,
    mut attempt: impl FnMut(SiteId) -> DbResult<T>,
) -> DbResult<T> {
    let mut last_err = none_live;
    for buddy in candidates {
        match attempt(buddy) {
            Err(e) if buddy_lost(&e) => last_err = e,
            outcome => return outcome,
        }
    }
    Err(last_err)
}

// --------------------------------------------------------------------
// §5.3's two remote queries and what is done with their rows. Phase 2 asks
// them historically, range by range; Phase 3 under its table locks, from the
// HWM on.
// --------------------------------------------------------------------

/// The deletions a copy is missing, as `mode` reads `obj`:
///   SELECT REMOTELY tuple_id, deletion_time FROM recovery_object
///     SEE DELETED WHERE recovery_predicate
///       AND insertion_time <= ins_at_or_before AND deletion_time > del_after
fn deletions_query(
    obj: &RecoveryObject,
    mode: WireReadMode,
    ins_at_or_before: Timestamp,
    del_after: Timestamp,
) -> RemoteScan {
    RemoteScan {
        predicate: obj.predicate.clone(),
        ins_at_or_before: Some(ins_at_or_before),
        del_after: Some(del_after),
        ids_and_deletions_only: true,
        ..RemoteScan::new(&obj.table, mode)
    }
}

/// The tuples a copy is missing, as `mode` reads `obj`:
///   SELECT REMOTELY * FROM recovery_object SEE DELETED
///     WHERE recovery_predicate AND insertion_time > ins_after
///       AND insertion_time != uncommitted
///       [AND insertion_time <= ins_at_or_before]
/// (the buddy's residual check on `ins_after` is what excludes the
/// uncommitted).
fn inserts_query(
    obj: &RecoveryObject,
    mode: WireReadMode,
    ins_after: Timestamp,
    ins_at_or_before: Option<Timestamp>,
) -> RemoteScan {
    RemoteScan {
        predicate: obj.predicate.clone(),
        ins_after: Some(ins_after),
        ins_at_or_before,
        ..RemoteScan::new(&obj.table, mode)
    }
}

/// Runs a [`deletions_query`] on `chan`; returns its `(tuple_id,
/// deletion_time)` pairs — one a row, since the versions of a tuple do not
/// overlap in time and the query asks for the one alive at its insertion
/// bound. The pairs are the same at every replica, so a query cut short by
/// its buddy's death has nothing to undo: whoever serves it next ships a
/// superset of the same pairs.
fn fetch_deletions(
    ctx: &RecoveryContext,
    chan: &mut dyn Channel,
    scan: &RemoteScan,
) -> DbResult<HashMap<i64, Timestamp>> {
    let mut pairs = HashMap::new();
    let metrics = ctx.engine.metrics();
    scan_rpc(chan, scan, ctx.rpc_deadline, metrics, |rows, wire| {
        for _ in 0..rows {
            let pair = Tuple::read_wire(wire)?;
            pairs.insert(pair.try_get(0)?.as_i64()?, pair.try_get(1)?.as_time()?);
        }
        Ok(())
    })?;
    Ok(pairs)
}

/// Runs an [`inserts_query`] on `chan`, reply by reply into an inserter of
/// its own (a private page, so concurrent fetchers share no latch), every
/// row going from the receive buffer to its page slot. Inserts are not
/// idempotent, so it remembers where the rows went — the `RecordId`, 12
/// bytes, not the row — and when the buddy is lost mid-stream drops what
/// the query copied with Phase 1's own `remove_physical` (§5.5.2) before
/// another replica is asked. Returns the rows copied.
fn fetch_inserts(
    ctx: &RecoveryContext,
    table: TableId,
    chan: &mut dyn Channel,
    scan: &RemoteScan,
) -> DbResult<u64> {
    let engine = &ctx.engine;
    let mut inserter = engine.recovered_inserter(table)?;
    let mut placed: Vec<RecordId> = Vec::new();
    let streamed = scan_rpc(
        chan,
        scan,
        ctx.rpc_deadline,
        engine.metrics(),
        |rows, wire| inserter.insert_wire(rows, wire, |rid| placed.push(rid)),
    );
    match streamed {
        Ok(()) => Ok(placed.len() as u64),
        Err(e) => {
            if buddy_lost(&e) {
                for rid in placed {
                    engine.remove_physical(rid)?;
                }
            }
            Err(e)
        }
    }
}

/// Cuts `(lo, hi]` into at most `shares` ranges of as equal a buddy-side
/// page volume as whole segments allow, at segment-directory bounds falling
/// strictly inside it.
/// `cuts` is one `(bound, pages)` per segment on the axis being walked.
/// Tuples timestamped in different ranges live in (mostly) disjoint
/// segments, so the ranged scans prune to disjoint page runs. A window
/// with no interior bound — every row of a bulk load carries one time —
/// is one range.
fn derive_ranges(
    cuts: &[(Timestamp, u64)],
    lo: Timestamp,
    hi: Timestamp,
    shares: usize,
) -> Vec<(Timestamp, Timestamp)> {
    if hi <= lo {
        return Vec::new();
    }
    // Segments bounded at or below `lo` hold nothing of the window;
    // segments bounded at or above `hi` fall to the last range.
    let mut segs: Vec<(Timestamp, u64)> = cuts.iter().copied().filter(|(t, _)| *t > lo).collect();
    segs.sort_unstable();
    let shares = shares.max(1) as u64;
    let total: u64 = segs.iter().map(|(_, pages)| (*pages).max(1)).sum();
    let mut ranges = Vec::new();
    let (mut prev, mut acc) = (lo, 0u64);
    for (i, (t, pages)) in segs.iter().enumerate() {
        acc += (*pages).max(1);
        // Close the k-th range at the bound nearest k/shares of the volume:
        // after this segment unless the mark lies nearer the end of the
        // next one. The last share takes whatever remains.
        let next = segs.get(i + 1).map_or(0, |(_, pages)| (*pages).max(1));
        let k = ranges.len() as u64 + 1;
        if *t < hi && *t > prev && k < shares && (2 * acc + next) * shares >= 2 * total * k {
            ranges.push((prev, *t));
            prev = *t;
        }
    }
    ranges.push((prev, hi));
    ranges
}

/// Which time a walk cuts its window by, at which of a segment's §4.2
/// directory bounds.
#[derive(Clone, Copy)]
enum Axis {
    /// Insertion time, at `tmax_insert`. Only the segments that can hold a
    /// row of the window (`tmin_insert <= hi`) weigh in, so a window in the
    /// middle of a table is not weighed by the table's whole tail.
    Insertion,
    /// Deletion time, at `tmax_delete`.
    Deletion,
}

impl Axis {
    /// The `(bound, pages)` cut list [`derive_ranges`] splits a window
    /// ending at `hi` by, from a buddy's segment directory.
    fn cuts(self, bounds: &[SegmentBound], hi: Timestamp) -> Vec<(Timestamp, u64)> {
        let cut = |&(tmin_insert, tmax_insert, tmax_delete, pages): &SegmentBound| match self {
            Axis::Insertion => (tmin_insert <= hi).then_some((tmax_insert, pages)),
            Axis::Deletion => Some((tmax_delete, pages)),
        };
        bounds.iter().filter_map(cut).collect()
    }
}

/// One segment as `Request::SegmentBounds` answers it: `tmin_insert`,
/// `tmax_insert`, `tmax_delete`, page count.
type SegmentBound = (Timestamp, Timestamp, Timestamp, u64);

/// `obj`'s segment directory, from the first of its buddies that answers.
fn segment_bounds(ctx: &RecoveryContext, obj: &RecoveryObject) -> DbResult<Vec<SegmentBound>> {
    first_live(obj.buddies.iter().copied(), no_live_buddy(obj), |buddy| {
        let mut chan = ctx.connect(buddy)?;
        let req = Request::SegmentBounds {
            table: obj.table.clone(),
        };
        match ctx.ask(chan.as_mut(), &req)? {
            Response::SegmentBounds { segments } => Ok(segments),
            other => Err(other.into_error("segment-bounds")),
        }
    })
}

/// What one walk fetched, for its caller to book: a timing a range, and how
/// often a range was handed to another buddy because its own was lost.
type Walk = (Vec<RangeTiming>, u64);

/// The one walker, under both halves of Phase 2. Cuts `(lo, hi]` on `axis`
/// at the buddy's directory bounds into one share per live full-copy buddy,
/// deals range *i* to buddy *i* in catalog order ([`fan_out`]) and lets
/// `fetch` stream each range into local state. Both the fan-out (what the
/// K-safety catalog offers) and the split (what the directory offers) are
/// computed, so which buddy serves which range is the same on every run.
///
/// §5.5.2 at range granularity: `fetch` must leave nothing behind when it
/// fails with [`buddy_lost`]; the range is then re-dealt, once every share
/// is in, to the next buddy in catalog order that has not failed. A walk
/// fails only when every buddy is gone with a range outstanding, or on an
/// error that is not the buddy's death.
fn walk_ranges(
    ctx: &RecoveryContext,
    obj: &RecoveryObject,
    axis: Axis,
    (lo, hi): (Timestamp, Timestamp),
    fetch: impl Fn(&mut dyn Channel, Timestamp, Timestamp) -> DbResult<u64> + Sync,
) -> DbResult<Walk> {
    let buddies = &obj.buddies;
    let bounds = segment_bounds(ctx, obj)?;
    let ranges = derive_ranges(&axis.cuts(&bounds, hi), lo, hi, buddies.len());
    let attempt = |buddy: SiteId, (lo, hi): (Timestamp, Timestamp)| -> DbResult<RangeTiming> {
        let t0 = Instant::now();
        let mut chan = ctx.connect(buddy)?;
        let tuples = fetch(chan.as_mut(), lo, hi)?;
        Ok(RangeTiming {
            buddy,
            lo,
            hi,
            tuples,
            elapsed: t0.elapsed(),
        })
    };
    let (mut timings, mut reassigned) = (Vec::new(), 0);
    let mut lost: HashSet<SiteId> = HashSet::new();
    let mut orphans: Vec<(usize, DbError)> = Vec::new();
    let dealt = fan_out(&ranges, |i, range| attempt(buddies[i], *range));
    for (i, outcome) in dealt.into_iter().enumerate() {
        match outcome {
            Ok(timing) => timings.push(timing),
            Err(e) if buddy_lost(&e) => {
                lost.insert(buddies[i]);
                orphans.push((i, e));
            }
            Err(e) => return Err(e),
        }
    }
    for (i, why) in orphans {
        let next: Vec<SiteId> = (1..buddies.len())
            .map(|k| buddies[(i + k) % buddies.len()])
            .filter(|b| !lost.contains(b))
            .collect();
        timings.push(first_live(next, why, |buddy| {
            reassigned += 1;
            attempt(buddy, ranges[i]).inspect_err(|e| {
                if buddy_lost(e) {
                    lost.insert(buddy);
                }
            })
        })?);
    }
    Ok((timings, reassigned))
}

/// Phase 2, first half (§5.3): copy deletion times applied after the
/// checkpoint to tuples inserted at or before it. Returns how many.
///
/// The window is walked by *deletion* time, cut at the directory's
/// `tmax_delete` bounds:
///   SELECT REMOTELY tuple_id, deletion_time FROM recovery_object
///     SEE DELETED HISTORICAL WITH TIME hi
///     WHERE recovery_predicate AND insertion_time <= T_checkpoint
///       AND deletion_time > lo
/// Historical visibility hides deletions after `hi`, so the ranges ship
/// disjoint `del ∈ (lo, hi]` slices, each answered from the buddy's
/// deletion log (an insertion lower bound would send it to the pages).
fn phase2_deletions(
    ctx: &RecoveryContext,
    table: TableId,
    plan: &[RecoveryObject],
    ckpt: Timestamp,
    hwm: Timestamp,
    report: &mut ObjectReport,
) -> DbResult<u64> {
    let pairs: Mutex<HashMap<i64, Timestamp>> = Mutex::new(HashMap::new());
    for obj in plan {
        let walk = walk_ranges(ctx, obj, Axis::Deletion, (ckpt, hwm), |chan, lo, hi| {
            let scan = deletions_query(obj, WireReadMode::SeeDeletedHistorical(hi), ckpt, lo);
            let range = fetch_deletions(ctx, chan, &scan)?;
            let shipped = range.len() as u64;
            pairs.lock().extend(range);
            Ok(shipped)
        })?;
        report.book(walk, ctx.engine.metrics());
    }
    apply_deletion_pairs(ctx, table, &pairs.into_inner())
}

/// For each `(tuple_id, del_time)` pair, updates the live local version:
///   UPDATE LOCALLY rec SET deletion_time = del_time SEE DELETED
///     WHERE tuple_id = tup_id AND deletion_time = 0
/// Implemented as one batch scan (an index lookup per pair in the thesis;
/// batching keeps recovery independent of index warmth) that reads each
/// row's deletion time and key off its page bytes.
fn apply_deletion_pairs(
    ctx: &RecoveryContext,
    table: TableId,
    pairs: &HashMap<i64, Timestamp>,
) -> DbResult<u64> {
    if pairs.is_empty() {
        return Ok(0);
    }
    let engine = &ctx.engine;
    let index = engine.index(table)?;
    let victims = local_rows(engine, table, &ScanBounds::all(), |row| {
        let del = pairs.get(&index.key_from_bytes(row.bytes))?;
        // "AND deletion_time = 0": the newest version.
        (row.del == Timestamp::ZERO).then_some((row.rid, *del))
    })?;
    for &(rid, del) in &victims {
        engine.set_deletion(rid, del)?;
    }
    Ok(victims.len() as u64)
}

/// Phase 2, second half (§5.3): copy whole tuples inserted in
/// `(T_checkpoint, HWM]`, walked by *insertion* time and cut at the
/// directory's `tmax_insert` bounds. Returns how many.
///   INSERT LOCALLY INTO rec (SELECT REMOTELY * FROM recovery_object
///     SEE DELETED HISTORICAL WITH TIME hwm
///     WHERE recovery_predicate AND insertion_time > lo
///       AND insertion_time <= hi)
fn phase2_inserts(
    ctx: &RecoveryContext,
    table: TableId,
    plan: &[RecoveryObject],
    ckpt: Timestamp,
    hwm: Timestamp,
    report: &mut ObjectReport,
) -> DbResult<u64> {
    let metrics = ctx.engine.metrics();
    let mut copied = 0u64;
    for obj in plan {
        let walk = walk_ranges(ctx, obj, Axis::Insertion, (ckpt, hwm), |chan, lo, hi| {
            let mode = WireReadMode::SeeDeletedHistorical(hwm);
            let scan = inserts_query(obj, mode, lo, Some(hi));
            let copied = fetch_inserts(ctx, table, chan, &scan)?;
            metrics.add_recovery_tuples_applied(copied);
            Ok(copied)
        })?;
        copied += report.book(walk, metrics);
    }
    Ok(copied)
}

/// Phase 3 (§5.4): locked catch-up, join pending transactions, come online.
/// Returns the time the object is consistent up to.
fn phase3(
    ctx: &RecoveryContext,
    table: TableId,
    table_name: &str,
    plan: &[RecoveryObject],
    hwm: Timestamp,
    report: &mut ObjectReport,
) -> DbResult<Timestamp> {
    let engine = &ctx.engine;
    // A dedicated lock-owner transaction id for this recovery run.
    let lock_tid = TransactionId::from_parts(ctx.site, 0x0000_7ec0_0000_0000 | table.0 as u64);
    // 1) ACQUIRE REMOTELY READ LOCK ON recovery_object ON SITE buddy —
    //    retried until granted (§5.4.1). One persistent channel per buddy:
    //    the lock lives as long as the connection (a dead recoverer's locks
    //    are released by the buddy's failure detection, §5.5.1).
    let mut lock_chans: Vec<Box<dyn Channel>> = Vec::new();
    for obj in plan {
        // The plan's primary buddy may have died during Phase 2 (its
        // ranges were re-dealt, §5.5); Phase 3 fails over to the same
        // full-copy alternates rather than aborting the whole recovery.
        // Failover covers the *whole* lock handshake, not just connect():
        // a freshly crashed buddy may still accept a connection for one
        // scheduler slice and then sever it, and that disconnect means
        // "buddy dead", not "recovery failed".
        let chan = first_live(obj.buddies.iter().copied(), no_live_buddy(obj), |buddy| {
            let mut chan = ctx.connect(buddy)?;
            // Deadlock timeouts at the buddy retry under a seeded, capped
            // schedule (§5.4.1) sized to the lock-retry budget; the jitter
            // decorrelates two recoveries contending for the same table
            // while a pinned seed still replays the same pacing.
            let policy = RetryPolicy::new(
                (LOCK_RETRY_FOR.as_millis() / 8) as u32,
                Duration::from_millis(10),
                Duration::from_millis(10),
                0x10CC_AB1E ^ u64::from(ctx.site.0),
            );
            retry_with(
                &policy,
                Some(ctx.engine.metrics()),
                |e| matches!(e, DbError::LockTimeout { .. }),
                |_| {
                    let req = Request::AcquireTableLock {
                        tid: lock_tid,
                        table: obj.table.clone(),
                    };
                    match ctx.ask(chan.as_mut(), &req)? {
                        Response::Ok => Ok(()),
                        other => Err(other.into_error("table-lock").at(buddy)),
                    }
                },
            )?;
            Ok(chan)
        })?;
        lock_chans.push(chan);
    }
    // 2) Missing deletions after the HWM: of tuples inserted at or before
    //    it, deleted after it.
    let locked = WireReadMode::SeeDeletedLocked(lock_tid);
    let mut pairs: HashMap<i64, Timestamp> = HashMap::new();
    for (obj, chan) in plan.iter().zip(&mut lock_chans) {
        let scan = deletions_query(obj, locked, hwm, hwm);
        pairs.extend(fetch_deletions(ctx, chan.as_mut(), &scan)?);
    }
    report.deletions_copied += apply_deletion_pairs(ctx, table, &pairs)?;
    // 3) Missing insertions after the HWM, with no upper bound: what is
    //    committed at the buddy under the lock is everything.
    for (obj, chan) in plan.iter().zip(&mut lock_chans) {
        let scan = inserts_query(obj, locked, hwm, None);
        report.tuples_copied += fetch_inserts(ctx, table, chan.as_mut(), &scan)?;
    }
    // A death here drops `lock_chans` unreleased; the buddies' failure
    // detection must override the orphaned locks (§5.5.1).
    ctx.crash_at(CrashPoint::RecoveryHoldingLocks)?;
    // rec now holds all committed data; checkpoint at current time - 1
    // ("the current time has not expired", §5.4.1).
    let consistent_up_to = stable_hwm(ctx)?;
    engine.pool().flush_all()?;
    // 4) Join pending transactions (Fig 5-4): announce to the coordinator
    //    and wait for "all done".
    let mut coord = ctx.connect_coordinator()?;
    let online = Request::RecComingOnline {
        site: ctx.site,
        table: table_name.to_string(),
    };
    match ctx.ask(coord.as_mut(), &online)? {
        Response::AllDone => {}
        other => return Err(other.into_error("RecComingOnline")),
    }
    // 5) RELEASE REMOTELY LOCK — rec is fully online, and the coordinator
    //    already routes updates to it, so nothing here may fail the
    //    recovery: a buddy that does not hear the release frees the lock
    //    when its lock connection closes (§5.5.1), as `lock_chans` drops.
    for (obj, chan) in plan.iter().zip(&mut lock_chans) {
        let release = Request::ReleaseTableLock {
            tid: lock_tid,
            table: obj.table.clone(),
        };
        let _ = ctx.ask(chan.as_mut(), &release);
    }
    Ok(consistent_up_to)
}

// ====================================================================
// Disk scrub: a corrupt segment is a copy behind from its first insertion.
// ====================================================================

/// What one scrub over a site found, and the recoveries that repaired it.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// On-disk pages whose checksums were verified.
    pub pages_scanned: u64,
    /// Pages that failed verification (or were unreadable).
    pub corrupt_pages: u64,
    /// Corrupt pages healed by rewriting a still-resident buffer frame.
    pub self_healed: u64,
    /// One entry per object rewound for repair: only its `table` once
    /// [`quarantine_site`] returns, [`recover_object`]'s report once repaired.
    pub repairs: Vec<ObjectReport>,
}

/// Scrub's quarantine step. Verifies every on-disk data page of every object
/// on the site; a corrupt page is rewritten from its resident frame, or else
/// its object's checkpoint is rewound to just before the page's segment —
/// durably, before any page is zeroed — and the page is zeroed. Every row it
/// held came after the rewind, so the repair is the ordinary
/// [`recover_object`], which the caller runs for each entry of
/// `report.repairs` with periodic checkpoints suspended; a crash after the
/// rewind is an ordinary recovery from it. Fails before it rewinds anything
/// when a resident frame will not verify or a rewound object would have no
/// live buddy. After a failure, an entry in `report.repairs` is an object
/// that must not be served until recovered.
pub fn quarantine_site(ctx: &RecoveryContext, report: &mut ScrubReport) -> DbResult<()> {
    let engine = &ctx.engine;
    let (mut quarantined, mut rewinds) = (Vec::new(), Vec::new());
    for name in ctx.local_objects() {
        let def = engine
            .table_def(&name)
            .ok_or_else(|| DbError::Schema(format!("unknown table {name:?}")))?;
        let heap = engine.pool().table(def.id)?;
        let pages = unhealed_pages(ctx, &name, &heap, report)?;
        if pages.is_empty() {
            continue;
        }
        if let Some(t) = rewind_point(ctx, &heap, &pages) {
            // A repair that could not run is not started.
            for obj in ctx.placement.recovery_plan(ctx.site, &name, &ctx.down)? {
                segment_bounds(ctx, &obj)?;
            }
            rewinds.push((def.id, t, name));
        }
        quarantined.push((heap, pages));
    }
    if !rewinds.is_empty() {
        let points = rewinds.iter().map(|(table, t, _)| (*table, *t));
        engine.checkpointer().rewind_objects(points)?;
    }
    for (_, _, table) in rewinds {
        let repair = ObjectReport::default();
        report.repairs.push(ObjectReport { table, ..repair });
    }
    for (heap, pages) in quarantined {
        for pid in &pages {
            zero_page(&heap, pid.page_no)?;
        }
        // The zeroed pages invalidated any record ids the index or
        // deletion log cached; both rebuild lazily from a clean scan.
        engine.index(heap.id())?.invalidate();
        engine.deletion_log(heap.id())?.invalidate();
        engine.metrics().add_pages_repaired(pages.len() as u64);
    }
    Ok(())
}

/// Reads one on-disk page, retrying injected transient read errors.
/// `Ok(true)` = page verifies, `Ok(false)` = corrupt or unreadable.
fn disk_page_ok(heap: &SegmentedHeapFile, page_no: u32) -> DbResult<bool> {
    let result = retry_with(
        &RetryPolicy::immediate(3),
        None,
        |e| matches!(e, DbError::Io(..)),
        |_| heap.read_page(page_no).map(|_| ()),
    );
    match result {
        Ok(()) => Ok(true),
        // A page that stays unreadable is repaired like a corrupt one.
        Err(e) if e.is_corrupt() || matches!(e, DbError::Io(..)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Checksums every data page of one table directly against the disk (the
/// buffer pool would mask a bad disk image with a resident frame) and heals
/// the corrupt ones whose frame is still resident. Returns the corrupt
/// pages no frame healed.
fn unhealed_pages(
    ctx: &RecoveryContext,
    table_name: &str,
    heap: &SegmentedHeapFile,
    report: &mut ScrubReport,
) -> DbResult<Vec<PageId>> {
    let engine = &ctx.engine;
    let mut corrupt: Vec<PageId> = Vec::new();
    for pid in heap.all_page_ids() {
        report.pages_scanned += 1;
        engine.metrics().add_scrub_pages_scanned(1);
        if !disk_page_ok(heap, pid.page_no)? {
            corrupt.push(pid);
        }
    }
    report.corrupt_pages += corrupt.len() as u64;
    let mut unhealed: Vec<PageId> = Vec::new();
    for pid in corrupt {
        // A write fault corrupts the disk image under an intact (often
        // clean) frame; rewriting the frame restamps the page. The rewrite
        // races the fault plan, so only the disk is trusted.
        let mut rewrites = 0;
        let healed = loop {
            if !engine.pool().force_rewrite(pid)? {
                break false;
            }
            if disk_page_ok(heap, pid.page_no)? {
                break true;
            }
            rewrites += 1;
            if rewrites == 4 {
                // The frame holds the only good copy of the page; zeroing
                // the disk image under it would lose the data the moment
                // the frame is evicted clean. Fail this pass instead.
                return Err(DbError::from(std::io::Error::other(format!(
                    "scrub: page {} of table {table_name} stays corrupt under rewrite",
                    pid.page_no
                ))));
            }
        };
        if healed {
            report.self_healed += 1;
            engine.metrics().add_pages_repaired(1);
        } else {
            unhealed.push(pid);
        }
    }
    Ok(unhealed)
}

/// The checkpoint quarantined `pages` rewind their table to: just before the
/// first insertion of the earliest of their segments, or its current one if
/// the directory no longer maps a page (such a page held no committed data).
/// `None` when no page needs one: a segment whose `tmax_insert` is zero
/// never committed anything, so zeroing its pages *is* the repair.
fn rewind_point(
    ctx: &RecoveryContext,
    heap: &SegmentedHeapFile,
    pages: &[PageId],
) -> Option<Timestamp> {
    let segments = heap.segments();
    let rewind_of = |pid: &PageId| match heap.segment_of_page(pid.page_no) {
        Some(seg) => {
            let meta = segments[seg.0 as usize];
            (meta.tmax_insert > Timestamp::ZERO).then(|| meta.tmin_insert.prev())
        }
        None => Some(ctx.engine.checkpointer().for_table(heap.id())),
    };
    pages.iter().filter_map(rewind_of).min()
}

/// Zeroes a quarantined page. The zeroing write may itself draw a fault:
/// rewrite until the disk verifies, three attempts, then leave the
/// best-effort image for the next scrub to find.
fn zero_page(heap: &SegmentedHeapFile, page_no: u32) -> DbResult<()> {
    let mut empty = Page::init(heap.tuple_size());
    for _ in 0..3 {
        match heap.write_page(page_no, &mut empty) {
            Ok(()) if disk_page_ok(heap, page_no)? => break,
            Ok(()) | Err(DbError::Io(..)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Timestamp {
        Timestamp(v)
    }

    /// Directory bounds with one page of weight each.
    fn c(cuts: &[u64]) -> Vec<(Timestamp, u64)> {
        cuts.iter().map(|v| (t(*v), 1)).collect()
    }

    fn assert_tiles(ranges: &[(Timestamp, Timestamp)], lo: u64, hi: u64) {
        assert_eq!(ranges.first().unwrap().0, t(lo));
        assert_eq!(ranges.last().unwrap().1, t(hi));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must tile: {ranges:?}");
        }
        assert!(ranges.iter().all(|(lo, hi)| lo < hi), "{ranges:?}");
    }

    #[test]
    fn derive_ranges_cuts_at_interior_bounds_and_tiles() {
        let ranges = derive_ranges(&c(&[5, 20, 10, 30]), t(5), t(40), 3);
        assert_eq!(ranges, vec![(t(5), t(10)), (t(10), t(20)), (t(20), t(40))]);
        assert_tiles(&ranges, 5, 40);
        // `(lo, hi]` is half-open: a row stamped `lo` belongs to the window
        // before and a row stamped `hi` to the last range, so bounds at 5
        // and at or above 40 are not interior.
        assert_eq!(
            derive_ranges(&c(&[5, 40, 99]), t(5), t(40), 3),
            vec![(t(5), t(40))]
        );
    }

    #[test]
    fn derive_ranges_degenerates_to_one_range() {
        // No interior bound: one range covering the whole window.
        assert_eq!(derive_ranges(&[], t(3), t(9), 3), vec![(t(3), t(9))]);
        assert_eq!(
            derive_ranges(&c(&[1, 3, 9, 12]), t(3), t(9), 3),
            vec![(t(3), t(9))]
        );
        // Every row of a bulk load carries one time: nothing can split it.
        assert_eq!(
            derive_ranges(&c(&[2, 2, 2, 2]), t(1), t(2), 3),
            vec![(t(1), t(2))]
        );
        // One buddy: one share, whatever the directory offers.
        assert_eq!(
            derive_ranges(&c(&[4, 5, 6]), t(3), t(9), 1),
            vec![(t(3), t(9))]
        );
        // Empty or inverted window: nothing to fetch.
        assert!(derive_ranges(&c(&[5]), t(9), t(9), 3).is_empty());
        assert!(derive_ranges(&c(&[5]), t(9), t(3), 3).is_empty());
    }

    #[test]
    fn derive_ranges_never_exceeds_the_buddies_and_balances_volume() {
        let cuts = c(&(1..100).collect::<Vec<_>>());
        for shares in 1..=4 {
            let ranges = derive_ranges(&cuts, t(0), t(100), shares);
            assert_eq!(ranges.len(), shares);
            assert_tiles(&ranges, 0, 100);
        }
        // Shares follow page volume, not segment count: one 12-page
        // segment weighs as much as the twelve one-page segments after it.
        let mut cuts = vec![(t(10), 12)];
        cuts.extend((11..=22).map(|v| (t(v), 1)));
        assert_eq!(
            derive_ranges(&cuts, t(0), t(30), 2),
            vec![(t(0), t(10)), (t(10), t(30))]
        );
        // The cut is the bound nearest the mark, not the first one past it:
        // two full segments and a stub split one against two.
        let cuts = vec![(t(10), 8), (t(20), 8), (t(30), 2)];
        assert_eq!(
            derive_ranges(&cuts, t(0), t(40), 2),
            vec![(t(0), t(10)), (t(10), t(40))]
        );
        // Segments sharing one bound cut once, however much they weigh.
        let cuts = vec![(t(2), 40), (t(2), 40), (t(2), 40), (t(7), 1)];
        assert_eq!(
            derive_ranges(&cuts, t(1), t(9), 2),
            vec![(t(1), t(2)), (t(2), t(9))]
        );
    }

    #[test]
    fn a_mid_table_window_is_cut_by_its_own_segments() {
        // Six four-page segments inserted at 1–10, 11–20, …; a window
        // over the first two, walked by two buddies.
        let bounds: Vec<SegmentBound> = (0..6)
            .map(|s| (t(10 * s + 1), t(10 * s + 10), t(0), 4))
            .collect();
        let cuts = Axis::Insertion.cuts(&bounds, t(20));
        assert_eq!(
            cuts,
            vec![(t(10), 4), (t(20), 4)],
            "the tail weighs nothing"
        );
        assert_eq!(
            derive_ranges(&cuts, t(0), t(20), 2),
            vec![(t(0), t(10)), (t(10), t(20))]
        );
        // Weighed by the whole table, the mark falls past the window.
        let all: Vec<_> = bounds.iter().map(|b| (b.1, b.3)).collect();
        assert_eq!(derive_ranges(&all, t(0), t(20), 2), vec![(t(0), t(20))]);
        // The deletion axis keeps every segment.
        assert_eq!(Axis::Deletion.cuts(&bounds, t(20)).len(), 6);
    }

    #[test]
    fn phase2_repeats_only_on_a_moving_clock_and_shrinking_passes() {
        let first = u64::MAX;
        // (hwm, next, copied, before) → another pass?
        let table = [
            ((7, 7, 500, first), false, "clock not moved"),
            ((7, 9, 0, first), false, "the pass copied nothing"),
            ((7, 9, 500, first), true, "first pass, commits arrived"),
            ((7, 9, 40, 100), true, "shrinking: under half"),
            ((7, 9, 50, 100), false, "not shrinking: exactly half"),
            ((7, 9, 90, 100), false, "not shrinking"),
        ];
        for ((hwm, next, copied, before), want, why) in table {
            assert_eq!(
                repeat_phase2(t(hwm), t(next), copied, before),
                want,
                "{why}"
            );
        }
    }
}
