//! A table's on-disk representation: a segmented heap file (§4.2, §6.1.1).
//!
//! One file per table. Page 0 (plus chained pages as the table grows) holds
//! the segment directory; the remaining pages are slotted heap pages of one
//! fixed tuple width. Inserts always target the *last* segment; when it
//! reaches its page budget a new segment is created. Dense packing: freed
//! slots in the last segment are reused before new pages are appended,
//! tracked by an insert hint.
//!
//! This type owns only durable state and in-memory metadata; page contents
//! in flight live in the buffer pool, which calls back into
//! [`SegmentedHeapFile::write_page`] (enforcing the directory durability
//! invariant) and [`SegmentedHeapFile::read_page`].

use crate::directory::{Directory, ScanBounds, SegmentMeta};
use crate::file::TableFile;
use crate::page::Page;
use harbor_common::config::PAGE_SIZE;
use harbor_common::{
    DbResult, DiskProfile, Metrics, PageId, SegmentNo, TableId, Timestamp, TupleDesc,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;

/// Per-page timestamp summary (zone map): min/max bounds over the raw
/// insertion/deletion timestamps of a page's occupied slots, computed from
/// fixed offsets without decoding tuples. Scans consult it to classify a
/// whole page as fully visible (skip per-row admission) or fully dead (skip
/// the page read entirely) for a given read mode.
///
/// **Validity protocol.** An entry always describes the page's *current
/// frame content*: the buffer pool stores entries only while holding the
/// page's frame latch (on flush, or lazily from a scan under the read
/// latch), and invalidates under the frame write latch immediately after
/// every mutation. A page whose disk image fails its checksum also loses
/// its entry ([`SegmentedHeapFile::read_page`]) so a stale summary can
/// never mask a corrupt page from the read path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneEntry {
    /// Occupied slots at summary time.
    pub rows: u32,
    /// Any slot with an uncommitted insertion timestamp.
    pub any_uncommitted: bool,
    /// Max committed insertion timestamp (ZERO if none committed).
    pub ins_max: Timestamp,
    /// Raw minimum deletion timestamp; ZERO counts, so `min_del > ZERO`
    /// means every occupied slot has a deletion set.
    pub min_del: Timestamp,
    /// Raw maximum deletion timestamp.
    pub max_del: Timestamp,
    /// Minimum *nonzero* deletion timestamp (`u64::MAX` if none).
    pub min_nonzero_del: Timestamp,
}

/// Little-endian timestamp word at `off` of stored rows (a row's insertion
/// time is its first word, its deletion time the second).
#[inline]
pub fn ts_word(data: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[off..off + 8]);
    u64::from_le_bytes(b)
}

impl ZoneEntry {
    /// Summarizes a page by walking occupancy words over the raw timestamp
    /// columns at their fixed slot offsets (no tuple decode).
    pub fn compute(page: &Page) -> ZoneEntry {
        let tsize = page.tuple_size();
        let data = page.slot_data();
        let mut z = ZoneEntry {
            rows: 0,
            any_uncommitted: false,
            ins_max: Timestamp::ZERO,
            min_del: Timestamp(u64::MAX),
            max_del: Timestamp::ZERO,
            min_nonzero_del: Timestamp(u64::MAX),
        };
        for chunk in 0..page.slot_count().div_ceil(64) {
            let mut occ = page.occupancy_word(chunk);
            while occ != 0 {
                let slot = chunk * 64 + occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let off = slot * tsize;
                let ins = ts_word(data, off);
                let del = ts_word(data, off + 8);
                z.rows += 1;
                if ins == u64::MAX {
                    z.any_uncommitted = true;
                } else {
                    z.ins_max = z.ins_max.max(Timestamp(ins));
                }
                z.min_del = z.min_del.min(Timestamp(del));
                z.max_del = z.max_del.max(Timestamp(del));
                if del != 0 {
                    z.min_nonzero_del = z.min_nonzero_del.min(Timestamp(del));
                }
            }
        }
        if z.rows == 0 {
            z.min_del = Timestamp::ZERO;
        }
        z
    }
}

/// One table's segmented heap file plus its in-memory metadata.
pub struct SegmentedHeapFile {
    id: TableId,
    /// Stored schema (includes the two reserved version columns).
    desc: TupleDesc,
    file: TableFile,
    dir: Mutex<Directory>,
    /// Page budget per segment.
    segment_pages: u32,
    /// Lowest page of the last segment that may have a free slot.
    insert_hint: Mutex<Option<u32>>,
    /// Per-page timestamp summaries (see [`ZoneEntry`]). A leaf lock:
    /// nothing is acquired while it is held.
    zones: Mutex<HashMap<u32, ZoneEntry>>,
}

impl SegmentedHeapFile {
    /// Creates a fresh table file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        id: TableId,
        desc: TupleDesc,
        segment_pages: u32,
        disk: DiskProfile,
        metrics: Metrics,
    ) -> DbResult<Self> {
        assert!(
            desc.has_version_columns(),
            "stored schemas carry version columns"
        );
        assert!(segment_pages >= 1);
        let file = TableFile::create(path, disk, metrics)?;
        file.set_table(id);
        let dir = Directory::create(&file, desc.byte_width() as u32)?;
        Ok(SegmentedHeapFile {
            id,
            desc,
            file,
            dir: Mutex::new(dir),
            segment_pages,
            insert_hint: Mutex::new(None),
            zones: Mutex::new(HashMap::new()),
        })
    }

    /// Opens an existing table file, validating the schema width.
    pub fn open(
        path: impl AsRef<Path>,
        id: TableId,
        desc: TupleDesc,
        segment_pages: u32,
        disk: DiskProfile,
        metrics: Metrics,
    ) -> DbResult<Self> {
        assert!(
            desc.has_version_columns(),
            "stored schemas carry version columns"
        );
        let file = TableFile::open(path, disk, metrics)?;
        file.set_table(id);
        let dir = Directory::load(&file, desc.byte_width() as u32)?;
        Ok(SegmentedHeapFile {
            id,
            desc,
            file,
            dir: Mutex::new(dir),
            segment_pages,
            insert_hint: Mutex::new(None),
            zones: Mutex::new(HashMap::new()),
        })
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    /// Attaches a site-wide disk-fault plan to this table's page I/O
    /// (chaos runs only; see [`crate::fault`]).
    pub fn arm_disk_faults(&self, plan: std::sync::Arc<crate::fault::DiskFaultPlan>) {
        self.file.arm_faults(plan);
    }

    /// Stored schema (with version columns).
    pub fn desc(&self) -> &TupleDesc {
        &self.desc
    }

    pub fn tuple_size(&self) -> usize {
        self.desc.byte_width()
    }

    /// Snapshot of all segment metadata.
    pub fn segments(&self) -> Vec<SegmentMeta> {
        self.dir.lock().segments().to_vec()
    }

    pub fn num_segments(&self) -> u32 {
        self.dir.lock().num_segments()
    }

    /// Index of the current (last) segment.
    pub fn last_segment(&self) -> SegmentNo {
        SegmentNo(self.dir.lock().last_index())
    }

    /// Segments surviving timestamp pruning (§4.2).
    pub fn prune(&self, bounds: &ScanBounds) -> Vec<(SegmentNo, SegmentMeta)> {
        self.dir.lock().prune(bounds)
    }

    /// The segment owning `page_no`.
    pub fn segment_of_page(&self, page_no: u32) -> Option<SegmentNo> {
        self.dir.lock().segment_of_page(page_no)
    }

    /// Reads a data page from disk. A page past EOF or an all-zero hole is a
    /// page that existed in memory but was never flushed before a crash —
    /// it reads as a fresh, empty page.
    pub fn read_page(&self, page_no: u32) -> DbResult<Page> {
        match self.file.read_page(page_no) {
            Ok(bytes) => {
                if bytes.iter().all(|&b| b == 0) {
                    Ok(Page::init(self.tuple_size()))
                } else {
                    Page::from_bytes(bytes, self.tuple_size())
                }
            }
            Err(harbor_common::DbError::NoSuchPage(_)) => Ok(Page::init(self.tuple_size())),
            Err(e) => {
                // A page we can no longer read (torn write, bit flip, I/O
                // fault) has an untrustworthy summary: drop it so no stale
                // min/max masks the corrupt page out of the read/scrub path.
                self.invalidate_zone(page_no);
                Err(e)
            }
        }
    }

    /// The current zone-map entry for `page_no`, if one is valid.
    pub fn zone_entry(&self, page_no: u32) -> Option<ZoneEntry> {
        self.zones.lock().get(&page_no).copied()
    }

    /// Stores a freshly computed summary for `page_no`. Callers must hold
    /// the page's frame latch (read or write) so the store serializes with
    /// [`SegmentedHeapFile::invalidate_zone`], which mutators call under the
    /// frame write latch.
    pub fn store_zone(&self, page_no: u32, entry: ZoneEntry) {
        self.zones.lock().insert(page_no, entry);
    }

    /// Drops the summary for `page_no` (page mutated or found corrupt).
    pub fn invalidate_zone(&self, page_no: u32) {
        self.zones.lock().remove(&page_no);
    }

    /// Writes a data page, first persisting the segment directory if its
    /// annotations for this page's segment have advanced since the last
    /// persist. This ordering keeps the on-disk directory conservative with
    /// respect to on-disk data (see `directory` module docs).
    pub fn write_page(&self, page_no: u32, page: &mut Page) -> DbResult<()> {
        self.write_run(page_no, &mut page.as_bytes_mut()[..])
    }

    /// Writes the page images laid end to end in `run` as data pages
    /// `first`, `first + 1`, … with one positional write
    /// ([`TableFile::write_run`]), persisting the directory first if it is
    /// stale for *any* of them — the rule of [`Self::write_page`], kept for
    /// every page of the run.
    pub fn write_run(&self, first: u32, run: &mut [u8]) -> DbResult<()> {
        {
            let mut dir = self.dir.lock();
            let pages = first..first + (run.len() / PAGE_SIZE) as u32;
            if pages.into_iter().any(|p| dir.is_stale(p)) {
                dir.persist(&self.file)?;
            }
        }
        self.file.write_run(first, run)
    }

    /// Durability barrier for checkpoints.
    pub fn sync(&self) -> DbResult<()> {
        self.file.sync()
    }

    /// Persists the directory unconditionally (checkpoint end).
    pub fn persist_directory(&self) -> DbResult<()> {
        self.dir.lock().persist(&self.file)
    }

    /// What one hold of `page_no`'s write latch added to the page — `rows`,
    /// laid end to end — said before the latch drops, so a flush, which
    /// takes the same latch, never writes rows the zone map and the
    /// directory have not heard of: the page's summary goes, its segment
    /// widens to the rows' committed times ([`Directory::note_bounds`]).
    pub fn note_appended(&self, page_no: u32, rows: &[u8]) {
        let mut seen = (Timestamp::UNCOMMITTED, Timestamp::ZERO, Timestamp::ZERO);
        for row in rows.chunks_exact(self.tuple_size()) {
            let (ins, del) = (Timestamp(ts_word(row, 0)), Timestamp(ts_word(row, 8)));
            if ins.is_valid_commit_time() {
                seen = (seen.0.min(ins), seen.1.max(ins), seen.2);
            }
            if del.is_valid_commit_time() {
                seen.2 = seen.2.max(del);
            }
        }
        self.invalidate_zone(page_no);
        self.dir.lock().note_bounds(page_no, seen);
    }

    /// Records a committed insertion (commit-time timestamp assignment).
    pub fn note_insert_commit(&self, page_no: u32, ts: Timestamp) {
        self.dir.lock().note_insert_commit(page_no, ts);
    }

    /// Records a deletion/update of a tuple on `page_no` at `ts`.
    pub fn note_delete(&self, page_no: u32, ts: Timestamp) {
        self.dir.lock().note_delete(page_no, ts);
    }

    /// Pages of one segment, oldest first.
    pub fn segment_page_ids(&self, seg: SegmentNo) -> Vec<PageId> {
        let dir = self.dir.lock();
        match dir.segment(seg) {
            Some(m) => m.pages().map(|p| PageId::new(self.id, p)).collect(),
            None => Vec::new(),
        }
    }

    /// All data pages, oldest segment first.
    pub fn all_page_ids(&self) -> Vec<PageId> {
        let dir = self.dir.lock();
        dir.segments()
            .iter()
            .flat_map(|m| m.pages())
            .map(|p| PageId::new(self.id, p))
            .collect()
    }

    /// Candidate pages for an insert: from the insert hint to the end of
    /// the last segment. Empty if the last segment has no pages yet (or
    /// the directory has none at all — `grow` then reports the corruption).
    pub fn insert_candidates(&self) -> Vec<u32> {
        let dir = self.dir.lock();
        let Some(last) = dir.segments().last() else {
            return Vec::new();
        };
        let hint = self.insert_hint.lock().unwrap_or(last.start_page);
        let from = hint.clamp(last.start_page, last.start_page + last.page_count);
        (from..last.start_page + last.page_count).collect()
    }

    /// Notes that `page_no` is full so inserts stop trying it first.
    pub fn note_page_full(&self, page_no: u32) {
        let mut hint = self.insert_hint.lock();
        if hint.map(|h| h == page_no).unwrap_or(true) {
            *hint = Some(page_no + 1);
        }
    }

    /// Notes that a slot on `page_no` was freed (dense packing: reuse before
    /// appending).
    pub fn note_slot_freed(&self, page_no: u32) {
        // Only relevant if the page belongs to the last segment.
        let dir = self.dir.lock();
        let Some(last) = dir.segments().last() else {
            return;
        };
        if !last.contains_page(page_no) {
            return;
        }
        drop(dir);
        let mut hint = self.insert_hint.lock();
        if hint.map(|h| h > page_no).unwrap_or(false) {
            *hint = Some(page_no);
        }
    }

    /// Allocates a new page for inserts, creating a new segment first if the
    /// last one has reached its budget (§4.2). Returns the new page id; the
    /// caller materializes the page in the buffer pool.
    pub fn grow(&self) -> DbResult<PageId> {
        self.grow_with(Ok)
    }

    /// [`grow`](Self::grow), with `birth` run on the new page before the
    /// directory lock drops. Every list of pages — [`Self::insert_candidates`],
    /// a scan's, a write-back's directory check — takes that lock, so no
    /// other thread can name the page until `birth` has returned.
    pub fn grow_with<R>(&self, birth: impl FnOnce(PageId) -> DbResult<R>) -> DbResult<R> {
        let mut dir = self.dir.lock();
        if dir.last_segment_full(self.segment_pages) {
            let seg = dir.create_segment(&self.file)?;
            // New segment: reset the insert hint to its start.
            let start = dir
                .segment(seg)
                .ok_or_else(|| {
                    harbor_common::DbError::corrupt("created segment missing from directory")
                })?
                .start_page;
            *self.insert_hint.lock() = Some(start);
        }
        let page_no = dir.allocate_page()?;
        birth(PageId::new(self.id, page_no))
    }

    /// Extends the segment map so that `page_no` is covered, replaying the
    /// same sequential allocation policy. Used by ARIES redo when the
    /// directory on disk lags pages referenced by the log (the allocation
    /// happened in memory before the crash and was never persisted).
    pub fn ensure_page_allocated(&self, page_no: u32) -> DbResult<()> {
        let mut dir = self.dir.lock();
        while dir.segment_of_page(page_no).is_none() {
            if dir.next_free_page() > page_no {
                // The page exists but belongs to no segment: it is a header
                // page, which is never the target of a redo op.
                return Err(harbor_common::DbError::corrupt(format!(
                    "page {page_no} is not a data page"
                )));
            }
            if dir.last_segment_full(self.segment_pages) {
                dir.create_segment(&self.file)?;
            } else {
                dir.allocate_page()?;
            }
        }
        Ok(())
    }

    /// Appends a pre-built segment ("bulk load", §4.2): creates a fresh
    /// segment and returns its index; the loader then fills its pages
    /// through the buffer pool and commits the load atomically by
    /// persisting the directory.
    pub fn begin_bulk_segment(&self) -> DbResult<SegmentNo> {
        let mut dir = self.dir.lock();
        let seg = dir.create_segment(&self.file)?;
        let start = dir
            .segment(seg)
            .ok_or_else(|| {
                harbor_common::DbError::corrupt("created segment missing from directory")
            })?
            .start_page;
        *self.insert_hint.lock() = Some(start);
        Ok(seg)
    }

    /// Drops the oldest segment ("bulk drop", §4.2).
    pub fn drop_oldest_segment(&self) -> DbResult<Option<SegmentMeta>> {
        let dropped = self.dir.lock().drop_oldest(&self.file)?;
        if let Some(m) = &dropped {
            let mut zones = self.zones.lock();
            for p in m.pages() {
                zones.remove(&p);
            }
        }
        Ok(dropped)
    }

    /// Total data pages across segments.
    pub fn num_data_pages(&self) -> u32 {
        self.dir
            .lock()
            .segments()
            .iter()
            .map(|m| m.page_count)
            .sum()
    }

    /// Rough size in bytes (data pages only).
    pub fn data_bytes(&self) -> u64 {
        self.num_data_pages() as u64 * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::FieldType;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-table-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.tbl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn desc() -> TupleDesc {
        TupleDesc::with_version_columns(vec![("id", FieldType::Int64), ("v", FieldType::Int32)])
    }

    fn make(path: &PathBuf) -> SegmentedHeapFile {
        SegmentedHeapFile::create(
            path,
            TableId(1),
            desc(),
            2, // tiny segments: 2 pages each
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap()
    }

    #[test]
    fn grow_rolls_over_into_new_segments() {
        let path = temp("grow");
        let t = make(&path);
        let p1 = t.grow().unwrap();
        let p2 = t.grow().unwrap();
        assert_eq!(t.num_segments(), 1);
        let p3 = t.grow().unwrap(); // budget of 2 reached -> new segment
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segment_of_page(p1.page_no), Some(SegmentNo(0)));
        assert_eq!(t.segment_of_page(p2.page_no), Some(SegmentNo(0)));
        assert_eq!(t.segment_of_page(p3.page_no), Some(SegmentNo(1)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pages_round_trip_and_holes_read_fresh() {
        let path = temp("pages");
        let t = make(&path);
        let pid = t.grow().unwrap();
        let mut page = Page::init(t.tuple_size());
        let mut data = vec![0u8; t.tuple_size()];
        data[16] = 9;
        page.insert(&data).unwrap();
        t.write_page(pid.page_no, &mut page).unwrap();
        let back = t.read_page(pid.page_no).unwrap();
        assert_eq!(back.used(), 1);
        // A page that was allocated but never flushed reads as empty.
        let pid2 = t.grow().unwrap();
        let fresh = t.read_page(pid2.page_no).unwrap();
        assert_eq!(fresh.used(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_directory() {
        let path = temp("reopen");
        {
            let t = make(&path);
            let pid = t.grow().unwrap();
            t.note_insert_commit(pid.page_no, Timestamp(5));
            t.persist_directory().unwrap();
        }
        let t = SegmentedHeapFile::open(
            &path,
            TableId(1),
            desc(),
            2,
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap();
        assert_eq!(t.segments()[0].tmin_insert, Timestamp(5));
        assert_eq!(t.segments()[0].page_count, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_hint_tracks_free_space() {
        let path = temp("hint");
        let t = make(&path);
        let p1 = t.grow().unwrap();
        assert_eq!(t.insert_candidates(), vec![p1.page_no]);
        t.note_page_full(p1.page_no);
        assert!(t.insert_candidates().is_empty());
        t.note_slot_freed(p1.page_no);
        assert_eq!(t.insert_candidates(), vec![p1.page_no]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_page_persists_stale_directory_first() {
        let path = temp("invariant");
        let t = make(&path);
        let pid = t.grow().unwrap();
        t.note_delete(pid.page_no, Timestamp(9));
        let mut page = Page::init(t.tuple_size());
        t.write_page(pid.page_no, &mut page).unwrap();
        // Reopen reads the directory as persisted by write_page.
        drop(t);
        let t = SegmentedHeapFile::open(
            &path,
            TableId(1),
            desc(),
            2,
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap();
        assert_eq!(t.segments()[0].tmax_delete, Timestamp(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bulk_segment_lifecycle() {
        let path = temp("bulk");
        let t = make(&path);
        t.grow().unwrap();
        let seg = t.begin_bulk_segment().unwrap();
        assert_eq!(seg, SegmentNo(1));
        assert_eq!(t.num_segments(), 2);
        let dropped = t.drop_oldest_segment().unwrap().unwrap();
        assert_eq!(dropped.page_count, 1);
        assert_eq!(t.num_segments(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
