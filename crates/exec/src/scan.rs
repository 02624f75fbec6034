//! Table scans with the three read modes of the thesis.
//!
//! * [`ReadMode::Current`] — sees the latest committed data; takes
//!   transactional page read locks (strict 2PL side of §3.1's concurrency
//!   model).
//! * [`ReadMode::Historical`] — sees the database as of a past time `T`;
//!   **takes no locks at all** (§3.3), which is what lets recovery Phase 2
//!   read replicas without quiescing the system.
//! * [`ReadMode::SeeDeleted`] — the recovery special mode (§3.4, §5.1):
//!   delete filtering is off and both timestamps are exposed as ordinary
//!   fields; available unlocked (Phases 1/2) or with a transaction id whose
//!   locks have already been taken at table granularity (Phase 3).
//!
//! Scans prune whole segments via the [`ScanBounds`] annotations before
//! touching any page (§4.2).
//!
//! Every read walks pages through **one visitor** ([`visit_page`], and
//! [`visit_stretch`] / [`visit_versions`] for the slots a key-range lookup
//! or a deletion log names): it takes the page lock or latch, skips
//! or fast-paths whole pages from their zone-map summary, admits rows on
//! their raw timestamp words ([`ReadMode::admit`]), re-applies the bounds
//! per row, and hands each admitted row to a sink as a [`ScanRow`] —
//! raw bytes borrowed under the pin. Rows the visibility check rejects are
//! never materialized. [`SeqScan`] (decode), [`scan_rids`] (decode, keep
//! the record id), [`index_lookup`] and the worker's scan service
//! ([`ScanRow::ship`]) are its sinks. A decode is a transcode: the slot's
//! bytes into the row's wire bytes ([`Tuple::from_fixed`]), one allocation
//! a row. The ship sink decodes nothing: a predicate reads its columns off
//! the slot ([`ScanRow`] is [`Columns`]), and only a row that passes is
//! transcoded, straight into the reply frame.

use crate::expr::{Columns, Expr};
use crate::op::Operator;
use harbor_common::codec::Encoder;
use harbor_common::schema::{COL_DELETION_TS, NUM_VERSION_COLS};
use harbor_common::time::visible_at;
use harbor_common::tuple::{fixed_field, transcode_fixed_cols_to_wire, transcode_fixed_to_wire};
use harbor_common::{
    DbResult, PageId, RecordId, TableId, Timestamp, TransactionId, Tuple, TupleDesc, Value,
};
use harbor_engine::Stretch;
use harbor_storage::table::ts_word;
use harbor_storage::{BufferPool, ScanBounds, SegmentedHeapFile, ZoneEntry};
use std::collections::VecDeque;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Visibility/locking mode for reads.
#[derive(Clone, Copy, Debug)]
pub enum ReadMode {
    /// Latest committed data, with transactional read locks.
    Current(TransactionId),
    /// Snapshot as of the given time; lock-free.
    Historical(Timestamp),
    /// All tuples (including deleted and uncommitted), timestamps exposed;
    /// lock-free.
    SeeDeleted,
    /// As [`SeeDeleted`](ReadMode::SeeDeleted), but attributed to a
    /// transaction for lock accounting (recovery Phase 3 runs with table
    /// read locks already held).
    SeeDeletedLocked(TransactionId),
    /// Historical + see-deleted: the recovery Phase 2 queries
    /// (`SEE DELETED HISTORICAL WITH TIME hwm`): deleted tuples appear, but
    /// tuples inserted after the HWM do not, and deletions after the HWM
    /// read as "not deleted" (§5.3).
    SeeDeletedHistorical(Timestamp),
}

impl ReadMode {
    /// Transaction to charge page locks to, if any.
    pub fn lock_tid(&self) -> Option<TransactionId> {
        match self {
            ReadMode::Current(t) | ReadMode::SeeDeletedLocked(t) => Some(*t),
            _ => None,
        }
    }

    /// Visibility decision for a raw (insertion, deletion) pair. Returns
    /// the possibly-rewritten deletion time (historical modes mask
    /// deletions after their time). The visitor applies it to the raw
    /// timestamp words before anything is decoded; the equivalence
    /// proptests rebuild every sink's output from it alone.
    pub fn admit(&self, ins: Timestamp, del: Timestamp) -> Option<Timestamp> {
        match self {
            ReadMode::Current(_) => {
                (!ins.is_uncommitted() && del == Timestamp::ZERO).then_some(del)
            }
            ReadMode::Historical(t) => visible_at(ins, del, *t).then_some(del),
            ReadMode::SeeDeleted | ReadMode::SeeDeletedLocked(_) => Some(del),
            ReadMode::SeeDeletedHistorical(t) => {
                if ins.is_uncommitted() || ins > *t {
                    return None; // inserted after the HWM: not visible
                }
                // Deletions after the HWM appear undone (§5.3).
                Some(if del > *t { Timestamp::ZERO } else { del })
            }
        }
    }
}

/// Whole-page visibility classification from a zone-map summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ZoneClass {
    /// Every occupied slot is visible with no timestamp rewriting: hand rows
    /// out straight from the occupancy words, no per-row admission.
    AllVisible,
    /// No occupied slot is visible: skip the page entirely.
    NoneVisible,
    /// Per-row admission required.
    Mixed,
}

/// Classifies a page for a lock-free historical read at `t`.
fn zone_class(t: Timestamp, z: &ZoneEntry) -> ZoneClass {
    if z.rows == 0 || (z.min_del > Timestamp::ZERO && z.max_del <= t) {
        // Empty, or every row carries a deletion at or before t.
        ZoneClass::NoneVisible
    } else if !z.any_uncommitted && z.ins_max <= t && z.min_nonzero_del > t {
        ZoneClass::AllVisible
    } else {
        ZoneClass::Mixed
    }
}

/// One admitted row, handed to a sink while its page is pinned. The bytes
/// are borrowed from the frame: a sink may decode, transcode or copy them,
/// but nothing borrowed outlives the call — in particular no `ScanRow`
/// ever crosses a channel send.
pub struct ScanRow<'a> {
    pub rid: RecordId,
    /// The table's row layout, which `bytes` is in.
    pub desc: &'a TupleDesc,
    /// The row's fixed-width stored encoding.
    pub bytes: &'a [u8],
    /// Deletion time as the mode sees it (§5.3: a deletion after the
    /// historical time reads as "not deleted"), which may differ from the
    /// stored one in `bytes`.
    pub del: Timestamp,
}

impl ScanRow<'_> {
    /// Materializes the row, with the masked deletion time in place.
    #[inline]
    pub fn decode(&self) -> DbResult<Tuple> {
        Tuple::from_fixed(self.desc, self.bytes, self.del)
    }

    /// The wire sink: appends the row to `enc` in the self-describing wire
    /// layout — the full row, or the `(tuple_id, deletion_time)` projection
    /// of the §5.3 deletion queries — transcoding from the page bytes.
    /// `pred`, if any, is tested first, on the slot: its columns are read
    /// where they are stored, nothing is decoded or allocated for a number,
    /// and a row that fails it is never transcoded. Returns whether the row
    /// was written.
    #[inline]
    pub fn ship(
        &self,
        pred: Option<&Expr>,
        ids_and_deletions_only: bool,
        enc: &mut Encoder,
    ) -> DbResult<bool> {
        if let Some(p) = pred {
            if !p.eval_bool(self)? {
                return Ok(false);
            }
        }
        if ids_and_deletions_only {
            // The key is the first user field.
            let cols = [NUM_VERSION_COLS, COL_DELETION_TS];
            transcode_fixed_cols_to_wire(self.desc, self.bytes, &cols, self.del, enc)?;
        } else {
            transcode_fixed_to_wire(self.desc, self.bytes, self.del, enc)?;
        }
        Ok(true)
    }
}

/// A slot's column reads as the decoded row's would: the masked deletion
/// time for the deletion column, every other field off its stored bytes.
impl Columns for ScanRow<'_> {
    #[inline]
    fn column(&self, i: usize) -> DbResult<Value> {
        fixed_field(self.desc, self.bytes, i, self.del)
    }
}

/// The §5.4.1 residual range checks: the segment-pruning bounds re-applied
/// to one row. Insertion checks see the stored time, the deletion check the
/// masked one. An uncommitted insertion satisfies `ins_after` only under
/// the `uncommitted_from_segment` disjunct (recovery Phase 1).
#[inline]
fn in_bounds(b: &ScanBounds, ins: u64, del: u64) -> bool {
    b.ins_at_or_before.is_none_or(|t| ins <= t.0)
        && b.ins_after
            .is_none_or(|t| ins > t.0 && (ins != u64::MAX || b.uncommitted_from_segment.is_some()))
        && b.del_after.is_none_or(|t| del > t.0)
}

/// The bits of occupancy word `chunk` that stand for slots in `slots`, a
/// range that chunk overlaps.
#[inline]
fn chunk_bits(slots: &Range<u16>, chunk: usize) -> u64 {
    let base = chunk * 64;
    let (from, end) = (slots.start as usize, slots.end as usize);
    (u64::MAX << from.saturating_sub(base)) & (u64::MAX >> (64 - (end - base).min(64)))
}

/// Pages a scan with `bounds` has to visit, in scan order (§4.2 pruning).
pub fn scan_pages(heap: &SegmentedHeapFile, bounds: &ScanBounds) -> Vec<PageId> {
    let mut pages = Vec::new();
    for (seg, _) in heap.prune(bounds) {
        pages.extend(heap.segment_page_ids(seg));
    }
    pages
}

/// The page visitor: the one place a read pins a page and decides which of
/// its rows a read at `mode` with `bounds` sees. Every admitted row goes to
/// `sink` in slot order, under the pin.
///
/// * **Lock and latch.** A mode with a [`ReadMode::lock_tid`] takes the
///   page's shared lock first, then the read latch; the latch is released
///   before this returns. Lock acquisitions happen on the calling thread,
///   which is the thread that owns the transaction.
/// * **Zone map** (lock-free [`ReadMode::Historical`] only): a page whose
///   summary says nothing is visible is skipped without being faulted in; a
///   fully visible page hands out rows straight off the occupancy words; a
///   whole-page visit of a page without a summary computes one here under
///   the read latch (safe: mutators invalidate under the frame *write*
///   latch, so the store is latch-serialized).
/// * **Per-row visibility.** Otherwise each occupied slot's two leading
///   timestamp words go through [`ReadMode::admit`], then the bounds.
///
/// `slots` narrows the visit to a stretch of the page (a key-range lookup's,
/// or one logged row); empty or out-of-range slots admit nothing. Row counts
/// go to the pool's `scan_rows_*` metrics.
fn visit(
    pool: &BufferPool,
    heap: &SegmentedHeapFile,
    pid: PageId,
    slots: Option<Range<u16>>,
    mode: ReadMode,
    bounds: &ScanBounds,
    sink: &mut impl FnMut(ScanRow<'_>) -> DbResult<()>,
) -> DbResult<()> {
    let metrics = pool.metrics();
    let zone_t = match mode {
        ReadMode::Historical(t) => Some(t),
        _ => None,
    };
    // A page skipped whole skips at most the visit's slots of its rows.
    let skipped_of = |rows: u64| slots.as_ref().map_or(rows, |s| rows.min(s.len() as u64));
    if let Some(t) = zone_t {
        if let Some(z) = heap.zone_entry(pid.page_no) {
            if zone_class(t, &z) == ZoneClass::NoneVisible {
                metrics.add_scan_rows_skipped_predecode(skipped_of(z.rows as u64));
                return Ok(());
            }
        }
    }
    let unbounded = bounds.is_unbounded();
    let mut admitted = 0u64;
    let mut skipped = 0u64;
    let result = pool.with_page(mode.lock_tid(), pid, |page| {
        let class = zone_t.map_or(ZoneClass::Mixed, |t| {
            let z = heap.zone_entry(pid.page_no).or_else(|| {
                let z = slots.is_none().then(|| ZoneEntry::compute(page))?;
                heap.store_zone(pid.page_no, z);
                Some(z)
            });
            z.map_or(ZoneClass::Mixed, |z| zone_class(t, &z))
        });
        if class == ZoneClass::NoneVisible {
            skipped += skipped_of(page.used() as u64);
            return Ok(());
        }
        // Every occupied slot is in, as stored: no per-row decision.
        let all = class == ZoneClass::AllVisible && unbounded;
        let tsize = page.tuple_size();
        let data = page.slot_data();
        let desc = heap.desc();
        let chunks = match &slots {
            Some(s) => s.start as usize / 64..(s.end as usize).div_ceil(64),
            None => 0..page.slot_count().div_ceil(64),
        };
        for chunk in chunks {
            let mut occ = page.occupancy_word(chunk);
            if let Some(s) = &slots {
                occ &= chunk_bits(s, chunk);
            }
            while occ != 0 {
                let slot = chunk * 64 + occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let bytes = &data[slot * tsize..(slot + 1) * tsize];
                let (ins, stored) = (ts_word(bytes, 0), ts_word(bytes, 8));
                let del = if all {
                    stored
                } else {
                    match mode.admit(Timestamp(ins), Timestamp(stored)) {
                        Some(del) if unbounded || in_bounds(bounds, ins, del.0) => del.0,
                        _ => {
                            skipped += 1;
                            continue;
                        }
                    }
                };
                sink(ScanRow {
                    rid: RecordId::new(pid, slot as u16),
                    desc,
                    bytes,
                    del: Timestamp(del),
                })?;
                admitted += 1;
            }
        }
        Ok(())
    });
    metrics.add_scan_rows_admitted(admitted);
    metrics.add_scan_rows_skipped_predecode(skipped);
    result
}

/// Visits every row of page `pid` that a read at `mode` with `bounds` sees
/// (see [`visit`] for the contract a sink works under).
pub fn visit_page(
    pool: &BufferPool,
    heap: &SegmentedHeapFile,
    pid: PageId,
    mode: ReadMode,
    bounds: &ScanBounds,
    mut sink: impl FnMut(ScanRow<'_>) -> DbResult<()>,
) -> DbResult<()> {
    visit(pool, heap, pid, None, mode, bounds, &mut sink)
}

/// The stretches of slots that hold the versions of the keys in `keys`, in
/// scan order, for a scan with `bounds`: the tuple-id index's range lookup
/// (§5.3), less the stretches on segments that §4.2 pruning skips. Visiting
/// each ([`visit_stretch`]) sees exactly the rows of those keys that a walk
/// of [`scan_pages`] sees, and no page that walk would not visit.
pub fn key_stretches(
    engine: &harbor_engine::Engine,
    table: TableId,
    keys: RangeInclusive<i64>,
    bounds: &ScanBounds,
) -> DbResult<Vec<Stretch>> {
    let mut stretches = engine.index(table)?.range(engine.pool(), keys)?;
    if !bounds.is_unbounded() {
        // Both lists are in page order.
        let kept = engine.pool().table(table)?.prune(bounds);
        let mut segments = kept.iter().map(|(_, m)| m.pages()).peekable();
        stretches.retain(|s| {
            while segments
                .next_if(|pages| pages.end <= s.page.page_no)
                .is_some()
            {}
            segments
                .peek()
                .is_some_and(|pages| pages.contains(&s.page.page_no))
        });
    }
    Ok(stretches)
}

/// Visits the rows of `stretch` that a read at `mode` with `bounds` sees:
/// one pin of its page, so a stretch locks before it reads, a version
/// removed since it was indexed admits nothing, and a damaged page surfaces
/// as the typed error it is.
pub fn visit_stretch(
    pool: &BufferPool,
    heap: &SegmentedHeapFile,
    stretch: &Stretch,
    mode: ReadMode,
    bounds: &ScanBounds,
    mut sink: impl FnMut(ScanRow<'_>) -> DbResult<()>,
) -> DbResult<()> {
    let slots = Some(stretch.slots.clone());
    visit(pool, heap, stretch.page, slots, mode, bounds, &mut sink)
}

/// Visits the rows at `versions` that a read at `mode` with `bounds` sees,
/// one single-slot page visit each: the versions a probe of the index found,
/// or the rows a deletion log lists.
pub fn visit_versions(
    engine: &harbor_engine::Engine,
    table: TableId,
    versions: &[RecordId],
    mode: ReadMode,
    bounds: &ScanBounds,
    mut sink: impl FnMut(ScanRow<'_>) -> DbResult<()>,
) -> DbResult<()> {
    let pool = engine.pool();
    let heap = pool.table(table)?;
    for rid in versions {
        let slot = Some(rid.slot..rid.slot + 1);
        visit(pool, &heap, rid.page, slot, mode, bounds, &mut sink)?;
    }
    Ok(())
}

/// Scans one table's pruned segments, applying the mode's visibility rule
/// and the bounds. The decode sink of the page visitor: the page latch is
/// never held across `next()`/`next_batch()` calls.
pub struct SeqScan {
    pool: Arc<BufferPool>,
    heap: Arc<SegmentedHeapFile>,
    mode: ReadMode,
    bounds: ScanBounds,
    pages: Vec<PageId>,
    page_idx: usize,
    /// Rows buffered for the tuple-at-a-time `next()` shim, drained
    /// front-to-back without cloning.
    buffer: VecDeque<Tuple>,
}

impl SeqScan {
    pub fn new(pool: Arc<BufferPool>, table: TableId, mode: ReadMode) -> DbResult<Self> {
        Self::with_bounds(pool, table, mode, ScanBounds::all())
    }

    /// Scan with segment pruning bounds (the recovery queries set these).
    pub fn with_bounds(
        pool: Arc<BufferPool>,
        table: TableId,
        mode: ReadMode,
        bounds: ScanBounds,
    ) -> DbResult<Self> {
        let heap = pool.table(table)?;
        Ok(SeqScan {
            pool,
            heap,
            mode,
            bounds,
            pages: Vec::new(),
            page_idx: 0,
            buffer: VecDeque::new(),
        })
    }

    fn load_pages(&mut self) {
        self.pages = scan_pages(&self.heap, &self.bounds);
        self.page_idx = 0;
        self.buffer.clear();
    }

    /// Scans forward, appending admitted tuples to `out`, until at least
    /// `min_rows` have been appended or the pages run out. Returns `false`
    /// when the scan is exhausted.
    fn fill_into(&mut self, min_rows: usize, out: &mut Vec<Tuple>) -> DbResult<bool> {
        let start = out.len();
        while self.page_idx < self.pages.len() && out.len() - start < min_rows {
            let pid = self.pages[self.page_idx];
            self.page_idx += 1;
            visit_page(
                &self.pool,
                &self.heap,
                pid,
                self.mode,
                &self.bounds,
                |row| {
                    out.push(row.decode()?);
                    Ok(())
                },
            )?;
        }
        Ok(self.page_idx < self.pages.len())
    }
}

impl Operator for SeqScan {
    fn open(&mut self) -> DbResult<()> {
        self.load_pages();
        Ok(())
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.buffer.pop_front() {
                return Ok(Some(t));
            }
            let mut batch = Vec::new();
            let more = self.fill_into(1, &mut batch)?;
            if batch.is_empty() && !more {
                return Ok(None);
            }
            self.buffer.extend(batch);
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> DbResult<bool> {
        // Drain anything an earlier next() call left buffered.
        let mut budget = max;
        while budget > 0 {
            match self.buffer.pop_front() {
                Some(t) => {
                    out.push(t);
                    budget -= 1;
                }
                None => break,
            }
        }
        if budget == 0 {
            return Ok(!self.buffer.is_empty() || self.page_idx < self.pages.len());
        }
        self.fill_into(budget, out)
    }

    fn close(&mut self) {}
}

/// Materializing scan that also yields physical record ids — the form the
/// DML executors need.
pub fn scan_rids(
    pool: &Arc<BufferPool>,
    table: TableId,
    mode: ReadMode,
    bounds: ScanBounds,
    mut pred: impl FnMut(&Tuple) -> DbResult<bool>,
) -> DbResult<Vec<(RecordId, Tuple)>> {
    let heap = pool.table(table)?;
    let mut out = Vec::new();
    // Per-page scratch, reused across pages; the predicate runs outside the
    // page latch (it may reach back into the engine).
    let mut page_buf: Vec<(RecordId, Tuple)> = Vec::new();
    for pid in scan_pages(&heap, &bounds) {
        visit_page(pool, &heap, pid, mode, &bounds, |row| {
            page_buf.push((row.rid, row.decode()?));
            Ok(())
        })?;
        for (rid, tup) in page_buf.drain(..) {
            if pred(&tup)? {
                out.push((rid, tup));
            }
        }
    }
    Ok(out)
}

/// Primary-key lookup through the engine's index with mode visibility, in
/// page order.
pub fn index_lookup(
    engine: &harbor_engine::Engine,
    table: TableId,
    key: i64,
    mode: ReadMode,
) -> DbResult<Vec<(RecordId, Tuple)>> {
    let (heap, bounds) = (engine.pool().table(table)?, ScanBounds::all());
    let mut out = Vec::new();
    for stretch in key_stretches(engine, table, key..=key, &bounds)? {
        visit_stretch(engine.pool(), &heap, &stretch, mode, &bounds, |row| {
            out.push((row.rid, row.decode()?));
            Ok(())
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use harbor_common::{FieldType, SiteId, StorageConfig, Value};
    use harbor_engine::{Engine, EngineOptions, StepLogging};
    use std::path::PathBuf;

    fn setup(name: &str) -> (Arc<Engine>, TableId, PathBuf) {
        let dir = std::env::temp_dir()
            .join("harbor-scan-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = Engine::open(
            &dir,
            EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
        )
        .unwrap();
        let def = e
            .create_table(
                "t",
                vec![
                    ("id".into(), FieldType::Int64),
                    ("v".into(), FieldType::Int32),
                ],
            )
            .unwrap();
        (e, def.id, dir)
    }

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    /// Builds the Figure 3-1-like history: insert 1,2 at t1; insert 3 at
    /// t2; delete 2 at t3; insert 4 at t4; update 4 at t6.
    fn build_history(e: &Engine, table: TableId) {
        let t = tid(1);
        e.begin(t).unwrap();
        e.insert(t, table, vec![Value::Int64(1), Value::Int32(0)])
            .unwrap();
        let r2 = e
            .insert(t, table, vec![Value::Int64(2), Value::Int32(0)])
            .unwrap();
        e.commit(t, Timestamp(1), StepLogging::OFF).unwrap();
        let t = tid(2);
        e.begin(t).unwrap();
        e.insert(t, table, vec![Value::Int64(3), Value::Int32(0)])
            .unwrap();
        e.commit(t, Timestamp(2), StepLogging::OFF).unwrap();
        let t = tid(3);
        e.begin(t).unwrap();
        e.delete(t, r2).unwrap();
        e.commit(t, Timestamp(3), StepLogging::OFF).unwrap();
        let t = tid(4);
        e.begin(t).unwrap();
        let r4 = e
            .insert(t, table, vec![Value::Int64(4), Value::Int32(20)])
            .unwrap();
        e.commit(t, Timestamp(4), StepLogging::OFF).unwrap();
        let t = tid(6);
        e.begin(t).unwrap();
        e.update(t, r4, vec![Value::Int64(4), Value::Int32(21)])
            .unwrap();
        e.commit(t, Timestamp(6), StepLogging::OFF).unwrap();
    }

    fn ids(rows: &[Tuple]) -> Vec<i64> {
        let mut v: Vec<i64> = rows.iter().map(|t| t.get(2).as_i64().unwrap()).collect();
        v.sort();
        v
    }

    #[test]
    fn historical_scans_match_figure_3_1() {
        let (e, table, dir) = setup("hist");
        build_history(&e, table);
        let at = |t: u64| -> Vec<i64> {
            let mut scan =
                SeqScan::new(e.pool().clone(), table, ReadMode::Historical(Timestamp(t))).unwrap();
            ids(&collect(&mut scan).unwrap())
        };
        assert_eq!(at(1), vec![1, 2]);
        assert_eq!(at(2), vec![1, 2, 3]);
        assert_eq!(at(3), vec![1, 3]);
        assert_eq!(at(5), vec![1, 3, 4]);
        assert_eq!(at(6), vec![1, 3, 4]); // updated version visible
                                          // No locks were taken by any historical scan.
        assert_eq!(e.locks().held_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn current_scan_hides_deleted_and_uncommitted() {
        let (e, table, dir) = setup("current");
        build_history(&e, table);
        // An uncommitted insert from a live transaction.
        let t = tid(9);
        e.begin(t).unwrap();
        e.insert(t, table, vec![Value::Int64(99), Value::Int32(0)])
            .unwrap();
        let reader = tid(10);
        e.begin(reader).unwrap();
        // Scan in Current mode would block on the X-locked page; scan
        // historical to verify invisibility rules instead, then commit the
        // writer and scan current.
        e.commit(t, Timestamp(7), StepLogging::OFF).unwrap();
        let mut scan = SeqScan::new(e.pool().clone(), table, ReadMode::Current(reader)).unwrap();
        let rows = collect(&mut scan).unwrap();
        assert_eq!(ids(&rows), vec![1, 3, 4, 99]);
        e.abort(reader, StepLogging::OFF).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn see_deleted_exposes_everything() {
        let (e, table, dir) = setup("seedel");
        build_history(&e, table);
        let mut scan = SeqScan::new(e.pool().clone(), table, ReadMode::SeeDeleted).unwrap();
        let rows = collect(&mut scan).unwrap();
        // 1, 2(deleted), 3, 4-old(deleted), 4-new = 5 rows.
        assert_eq!(rows.len(), 5);
        let deleted: Vec<i64> = rows
            .iter()
            .filter(|t| t.deletion_ts().unwrap() != Timestamp::ZERO)
            .map(|t| t.get(2).as_i64().unwrap())
            .collect();
        assert_eq!(deleted.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn see_deleted_historical_masks_future_deletions() {
        let (e, table, dir) = setup("sdh");
        build_history(&e, table);
        // As of HWM=5: tuple 4-old (deleted at 6) must appear UNdeleted;
        // 4-new (inserted at 6) must not appear.
        let mut scan = SeqScan::new(
            e.pool().clone(),
            table,
            ReadMode::SeeDeletedHistorical(Timestamp(5)),
        )
        .unwrap();
        let rows = collect(&mut scan).unwrap();
        assert_eq!(rows.len(), 4); // 1, 2(deleted@3), 3, 4-old
        let four: Vec<&Tuple> = rows
            .iter()
            .filter(|t| t.get(2).as_i64().unwrap() == 4)
            .collect();
        assert_eq!(four.len(), 1);
        assert_eq!(four[0].deletion_ts().unwrap(), Timestamp::ZERO);
        // Tuple 2 was deleted at 3 <= HWM: deletion remains visible.
        let two: Vec<&Tuple> = rows
            .iter()
            .filter(|t| t.get(2).as_i64().unwrap() == 2)
            .collect();
        assert_eq!(two[0].deletion_ts().unwrap(), Timestamp(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_rids_returns_physical_addresses() {
        let (e, table, dir) = setup("rids");
        build_history(&e, table);
        let hits = scan_rids(
            e.pool(),
            table,
            ReadMode::SeeDeleted,
            ScanBounds::all(),
            |t| Ok(t.get(2).as_i64()? == 4),
        )
        .unwrap();
        assert_eq!(hits.len(), 2, "both versions of tuple 4");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A probe that lands on a damaged page reports the damage; it must
    /// not read as "no such row", or scrub repair and replica failover
    /// never hear of it.
    #[test]
    fn index_lookup_surfaces_a_corrupt_page() {
        use harbor_common::fault::{Armed, FaultConfig, FaultPlan, PageFault};
        let dir = std::env::temp_dir()
            .join("harbor-scan-tests")
            .join(format!("idx-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The first write of the table's first data page lands with a bit
        // flipped: the next fault-in fails its checksum.
        let plan = std::sync::Arc::new(FaultPlan::new(FaultConfig::quiet(7)));
        let (table, page, fault) = (TableId(1), 1, PageFault::BitFlip);
        plan.arm(
            SiteId(0),
            Armed::Page {
                table,
                page,
                ordinal: 0,
                fault,
            },
        );
        let opts = EngineOptions::harbor(SiteId(0), StorageConfig::for_tests());
        let e = Engine::open(&dir, opts.with_faults(plan.clone())).unwrap();
        let fields = vec![
            ("id".into(), FieldType::Int64),
            ("v".into(), FieldType::Int32),
        ];
        let table = e.create_table("t", fields).unwrap().id;
        build_history(&e, table);
        let hit = index_lookup(&e, table, 1, ReadMode::SeeDeleted).unwrap();
        assert_eq!(
            (hit[0].0.page.table, hit[0].0.page.page_no),
            (TableId(1), 1)
        );
        plan.set_enabled(true);
        e.pool().flush_all().unwrap();
        plan.set_enabled(false);
        assert_eq!(plan.page_faults_injected(), 1);
        // Drop the resident frames so the probe has to fault the page in.
        let heap = e.pool().table(table).unwrap();
        e.pool().deregister_table(table);
        e.pool().register_table(heap);
        let err = index_lookup(&e, table, 1, ReadMode::Historical(Timestamp(7))).unwrap_err();
        assert!(err.is_corrupt(), "expected a corruption error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_lookup_respects_visibility() {
        let (e, table, dir) = setup("idx");
        build_history(&e, table);
        let current = index_lookup(&e, table, 4, ReadMode::Historical(Timestamp(7))).unwrap();
        assert_eq!(current.len(), 1);
        assert_eq!(current[0].1.get(3), Value::Int32(21));
        let all = index_lookup(&e, table, 4, ReadMode::SeeDeleted).unwrap();
        assert_eq!(all.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
