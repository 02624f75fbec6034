//! Segment metadata: the `<Tmin-insertion, Tmax-deletion, start-page>`
//! directory of thesis §4.2/§6.1.1, extended with a max-insertion bound.
//!
//! Every database object is partitioned by insertion time into *segments* —
//! contiguous page ranges of its heap file. Each segment is annotated with:
//!
//! * `tmin_insert` — smallest committed insertion timestamp in the segment
//!   (unset until the first insert commits);
//! * `tmax_insert` — largest committed insertion timestamp. The thesis
//!   derives an upper bound from the *next* segment's `Tmin`, but with
//!   commit-time timestamp assignment a transaction that inserted into
//!   segment *i* can commit after segment *i+1* has already received
//!   commits, so the derived bound is not sound; tracking the maximum
//!   explicitly is, and costs 8 bytes per segment.
//! * `tmax_delete` — most recent time a tuple in the segment was deleted or
//!   updated (zero if never).
//!
//! These annotations let the three recovery range predicates
//! (`insertion-time <= T`, `insertion-time > T`, `deletion-time > T`) prune
//! whole segments (§4.2).
//!
//! The directory is persisted in a chain of header pages at the front of the
//! heap file. **Durability invariant**: the on-disk directory is rewritten
//! before any data page whose segment annotations have advanced is flushed,
//! so that after a crash the on-disk annotations are never *behind* the
//! on-disk data — stale-small `tmax_delete`/`tmax_insert` would make Phase 1
//! and Phase 2 skip segments that still need scanning. The buffer pool calls
//! [`Directory::is_stale`] / persist hooks to enforce this.

use crate::file::TableFile;
use harbor_common::codec::{Decoder, Encoder, Wire};
use harbor_common::config::PAGE_SIZE;
use harbor_common::{wire_struct, DbError, DbResult, SegmentNo, Timestamp};

wire_struct! {
    /// Annotations and extent of one segment: a header page's entry is
    /// these fields in this order, [`ENTRY_LEN`] bytes.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct SegmentMeta {
        /// Smallest committed insertion timestamp ([`Timestamp::UNCOMMITTED`]
        /// until the first commit touches the segment).
        pub tmin_insert: Timestamp,
        /// Largest committed insertion timestamp ([`Timestamp::ZERO`] until the
        /// first commit).
        pub tmax_insert: Timestamp,
        /// Most recent deletion/update time ([`Timestamp::ZERO`] if none).
        pub tmax_delete: Timestamp,
        /// First data page of the segment.
        pub start_page: u32,
        /// Data pages currently allocated to the segment.
        pub page_count: u32,
    }
}

impl SegmentMeta {
    fn new(start_page: u32) -> Self {
        SegmentMeta {
            tmin_insert: Timestamp::UNCOMMITTED,
            tmax_insert: Timestamp::ZERO,
            tmax_delete: Timestamp::ZERO,
            start_page,
            page_count: 0,
        }
    }

    /// Page numbers covered by this segment.
    pub fn pages(&self) -> std::ops::Range<u32> {
        self.start_page..self.start_page + self.page_count
    }

    pub fn contains_page(&self, page_no: u32) -> bool {
        self.pages().contains(&page_no)
    }
}

/// Segment-prunable range predicates on the two timestamp columns (§4.2).
/// `None` bounds are unconstrained. All present bounds must hold
/// simultaneously for a segment to survive pruning.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanBounds {
    /// Keep segments that may contain committed tuples with
    /// `insertion_time <= t`.
    pub ins_at_or_before: Option<Timestamp>,
    /// Keep segments that may contain committed tuples with
    /// `insertion_time > t`.
    pub ins_after: Option<Timestamp>,
    /// Keep segments that may contain tuples with `deletion_time > t`.
    pub del_after: Option<Timestamp>,
    /// Also keep segments that may hold uncommitted tuples (recovery
    /// Phase 1's `insertion_time = uncommitted` disjunct). Expressed as the
    /// lowest segment index that can contain them, recorded at checkpoint
    /// time; `None` disables the disjunct.
    pub uncommitted_from_segment: Option<u32>,
}

impl ScanBounds {
    /// Unbounded: scan everything.
    pub fn all() -> Self {
        ScanBounds::default()
    }

    pub fn inserted_at_or_before(t: Timestamp) -> Self {
        ScanBounds {
            ins_at_or_before: Some(t),
            ..Default::default()
        }
    }

    pub fn inserted_after(t: Timestamp) -> Self {
        ScanBounds {
            ins_after: Some(t),
            ..Default::default()
        }
    }

    pub fn deleted_after(t: Timestamp) -> Self {
        ScanBounds {
            del_after: Some(t),
            ..Default::default()
        }
    }

    /// Whether no time bound is set: every segment and every row is in.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.ins_at_or_before.is_none() && self.ins_after.is_none() && self.del_after.is_none()
    }

    /// Does segment `idx` with metadata `m` possibly match?
    pub fn segment_may_match(&self, idx: u32, m: &SegmentMeta) -> bool {
        if let Some(from) = self.uncommitted_from_segment {
            if idx >= from {
                return true; // may hold uncommitted tuples: always scanned
            }
        }
        if let Some(t) = self.ins_at_or_before {
            // No committed tuple at or before t: tmin unset or > t.
            if m.tmin_insert > t {
                return false;
            }
        }
        if let Some(t) = self.ins_after {
            if m.tmax_insert <= t {
                return false;
            }
        }
        if let Some(t) = self.del_after {
            if m.tmax_delete <= t {
                return false;
            }
        }
        true
    }
}

/// A header page opens with the magic, the tuple size (`u32`), its entry
/// count (`u16`) and the next header page's number (`u32`, 0 = none); its
/// entries follow.
const MAGIC: u32 = 0x4842_5347; // "HBSG"
const HDR_LEN: usize = 14;
const ENTRY_LEN: usize = 32;
const ENTRIES_PER_PAGE: usize = (PAGE_SIZE - HDR_LEN) / ENTRY_LEN;

/// In-memory segment directory plus its persistence state.
#[derive(Debug)]
pub struct Directory {
    tuple_size: u32,
    segments: Vec<SegmentMeta>,
    /// Page numbers of the header-page chain; `[0]` is always page 0.
    header_pages: Vec<u32>,
    /// Copy of `segments` as last persisted, for staleness checks.
    persisted: Vec<SegmentMeta>,
}

impl Directory {
    /// Fresh directory with one empty segment. Writes the initial header
    /// page so the file is immediately reopenable.
    pub fn create(file: &TableFile, tuple_size: u32) -> DbResult<Self> {
        let mut dir = Directory {
            tuple_size,
            segments: vec![SegmentMeta::new(1)], // page 0 is the header
            header_pages: vec![0],
            persisted: Vec::new(),
        };
        dir.persist(file)?;
        Ok(dir)
    }

    /// Loads the directory from the header-page chain.
    pub fn load(file: &TableFile, expect_tuple_size: u32) -> DbResult<Self> {
        let mut segments = Vec::new();
        let mut header_pages = Vec::new();
        let mut page_no = 0u32;
        loop {
            header_pages.push(page_no);
            let page = file.read_page(page_no)?;
            let mut dec = Decoder::new(&page[..]);
            if dec.get_u32()? != MAGIC {
                return Err(DbError::corrupt(format!(
                    "bad segment directory magic on page {page_no}"
                )));
            }
            let ts = dec.get_u32()?;
            if ts != expect_tuple_size {
                return Err(DbError::corrupt(format!(
                    "directory tuple size {ts} does not match schema width {expect_tuple_size}"
                )));
            }
            let n = dec.get_u16()? as usize;
            if n > ENTRIES_PER_PAGE {
                return Err(DbError::corrupt("directory entry count out of range"));
            }
            let next = dec.get_u32()?;
            for _ in 0..n {
                segments.push(SegmentMeta::decode(&mut dec)?);
            }
            if next == 0 {
                break;
            }
            page_no = next;
        }
        if segments.is_empty() {
            return Err(DbError::corrupt("directory has no segments"));
        }
        let persisted = segments.clone();
        Ok(Directory {
            tuple_size: expect_tuple_size,
            segments,
            header_pages,
            persisted,
        })
    }

    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    pub fn num_segments(&self) -> u32 {
        self.segments.len() as u32
    }

    pub fn segment(&self, no: SegmentNo) -> Option<&SegmentMeta> {
        self.segments.get(no.0 as usize)
    }

    pub fn last_index(&self) -> u32 {
        self.segments.len() as u32 - 1
    }

    /// The segment owning `page_no`, if any.
    pub fn segment_of_page(&self, page_no: u32) -> Option<SegmentNo> {
        // Segments are ordered by start page; binary search.
        let idx = self
            .segments
            .partition_point(|m| m.start_page <= page_no)
            .checked_sub(1)?;
        let m = &self.segments[idx];
        m.contains_page(page_no).then_some(SegmentNo(idx as u32))
    }

    /// First page number not yet used by any segment or header page.
    pub fn next_free_page(&self) -> u32 {
        let seg_end = self
            .segments
            .last()
            .map(|m| m.start_page + m.page_count)
            .unwrap_or(1);
        let hdr_end = self.header_pages.iter().map(|&p| p + 1).max().unwrap_or(1);
        seg_end.max(hdr_end)
    }

    /// Allocates one more data page to the *last* segment, returning its
    /// page number. Caller must have checked the segment has room. A
    /// directory with no segments is corrupt (bootstrap always creates
    /// one), reported as a typed error rather than a panic so a worker
    /// thread serving a deadline-bounded request can answer instead of
    /// dying.
    pub fn allocate_page(&mut self) -> DbResult<u32> {
        let page = self.next_free_page();
        let last = self
            .segments
            .last_mut()
            .ok_or_else(|| DbError::corrupt("directory has no segments to allocate into"))?;
        debug_assert_eq!(page, last.start_page + last.page_count);
        last.page_count += 1;
        Ok(page)
    }

    /// `true` once the last segment has reached the per-segment page budget
    /// and a new segment is needed for further inserts (§4.2: "when a
    /// segment becomes full, the executor creates a new segment").
    pub fn last_segment_full(&self, segment_pages: u32) -> bool {
        self.segments
            .last()
            .map(|m| m.page_count >= segment_pages)
            .unwrap_or(true)
    }

    /// Creates a new (empty) last segment. Allocates another header page
    /// first when the chain is out of entry room, keeping segment page
    /// ranges contiguous. Writes any new header page through immediately.
    pub fn create_segment(&mut self, file: &TableFile) -> DbResult<SegmentNo> {
        let capacity = self.header_pages.len() * ENTRIES_PER_PAGE;
        let mut start = self.next_free_page();
        if self.segments.len() + 1 > capacity {
            // Chain a new header page at `start`; the data segment begins
            // one page later.
            self.header_pages.push(start);
            start += 1;
        }
        self.segments.push(SegmentMeta::new(start));
        self.persist(file)?;
        Ok(SegmentNo(self.segments.len() as u32 - 1))
    }

    /// Drops the oldest segment (the "bulk drop" feature of §4.2). The pages
    /// are left in place on disk but are no longer reachable; their space is
    /// reclaimed when the file is rewritten offline. Returns its metadata.
    pub fn drop_oldest(&mut self, file: &TableFile) -> DbResult<Option<SegmentMeta>> {
        if self.segments.len() <= 1 {
            return Ok(None); // never drop the active insert segment
        }
        let dropped = self.segments.remove(0);
        self.persist(file)?;
        Ok(Some(dropped))
    }

    /// Widens the segment owning `page_no` to cover `(earliest committed
    /// insertion, latest, latest deletion)`. A fresh segment's own values —
    /// `(UNCOMMITTED, ZERO, ZERO)` — say "nothing of that kind".
    pub fn note_bounds(&mut self, page_no: u32, seen: (Timestamp, Timestamp, Timestamp)) {
        if let Some(SegmentNo(idx)) = self.segment_of_page(page_no) {
            let m = &mut self.segments[idx as usize];
            m.tmin_insert = m.tmin_insert.min(seen.0);
            m.tmax_insert = m.tmax_insert.max(seen.1);
            m.tmax_delete = m.tmax_delete.max(seen.2);
        }
    }

    /// Records a committed insertion at `ts` into the segment owning
    /// `page_no`.
    pub fn note_insert_commit(&mut self, page_no: u32, ts: Timestamp) {
        self.note_bounds(page_no, (ts, ts, Timestamp::ZERO));
    }

    /// Records a deletion/update at `ts` of a tuple in the segment owning
    /// `page_no`.
    pub fn note_delete(&mut self, page_no: u32, ts: Timestamp) {
        self.note_bounds(page_no, (Timestamp::UNCOMMITTED, Timestamp::ZERO, ts));
    }

    /// Segments (index, meta) that survive pruning under `bounds`.
    pub fn prune(&self, bounds: &ScanBounds) -> Vec<(SegmentNo, SegmentMeta)> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(i, m)| bounds.segment_may_match(*i as u32, m))
            .map(|(i, m)| (SegmentNo(i as u32), *m))
            .collect()
    }

    /// `true` when the on-disk directory lags the in-memory one for the
    /// segment owning `page_no` — flushing that data page first would break
    /// the durability invariant.
    pub fn is_stale(&self, page_no: u32) -> bool {
        match self.segment_of_page(page_no) {
            Some(SegmentNo(idx)) => match self.persisted.get(idx as usize) {
                Some(p) => p != &self.segments[idx as usize],
                None => true,
            },
            // Page not in any segment (a header page): never stale.
            None => false,
        }
    }

    /// Rewrites the header-page chain.
    pub fn persist(&mut self, file: &TableFile) -> DbResult<()> {
        for (chunk_idx, chunk) in self
            .segments
            .chunks(ENTRIES_PER_PAGE)
            .chain(self.segments.is_empty().then_some([].as_slice()))
            .enumerate()
        {
            let page_no = *self.header_pages.get(chunk_idx).ok_or_else(|| {
                DbError::internal("directory grew past its header chain without allocation")
            })?;
            let next = self.header_pages.get(chunk_idx + 1).copied().unwrap_or(0);
            let mut enc = Encoder::with_capacity(HDR_LEN + chunk.len() * ENTRY_LEN);
            enc.put_u32(MAGIC);
            enc.put_u32(self.tuple_size);
            enc.put_u16(chunk.len() as u16);
            enc.put_u32(next);
            SegmentMeta::encode_all(chunk, &mut enc);
            let mut page = [0u8; PAGE_SIZE];
            page[..enc.len()].copy_from_slice(enc.as_slice());
            file.write_page(page_no, &mut page)?;
        }
        self.persisted = self.segments.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::{DiskProfile, Metrics};
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-dir-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.tbl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn file(path: &PathBuf) -> TableFile {
        TableFile::create(path, DiskProfile::fast(), Metrics::new()).unwrap()
    }

    #[test]
    fn create_persist_load_round_trip() {
        let path = temp("round");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        let p0 = d.allocate_page().unwrap();
        assert_eq!(p0, 1);
        d.note_insert_commit(p0, Timestamp(10));
        d.note_delete(p0, Timestamp(12));
        d.persist(&f).unwrap();
        let d2 = Directory::load(&f, 64).unwrap();
        assert_eq!(d2.segments(), d.segments());
        assert_eq!(d2.segments()[0].tmin_insert, Timestamp(10));
        assert_eq!(d2.segments()[0].tmax_delete, Timestamp(12));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_wrong_tuple_size() {
        let path = temp("wrongsize");
        let f = file(&path);
        Directory::create(&f, 64).unwrap();
        assert!(Directory::load(&f, 72).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segment_growth_and_page_mapping() {
        let path = temp("grow");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        for _ in 0..3 {
            d.allocate_page().unwrap();
        }
        let s1 = d.create_segment(&f).unwrap();
        assert_eq!(s1, SegmentNo(1));
        let p = d.allocate_page().unwrap();
        assert_eq!(d.segment_of_page(p), Some(SegmentNo(1)));
        assert_eq!(d.segment_of_page(1), Some(SegmentNo(0)));
        assert_eq!(
            d.segment_of_page(0),
            None,
            "header page belongs to no segment"
        );
        assert_eq!(d.segment_of_page(999), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_chain_extends_past_one_page() {
        let path = temp("chain");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        // Force more segments than one header page can hold.
        for _ in 0..ENTRIES_PER_PAGE + 5 {
            d.allocate_page().unwrap();
            d.create_segment(&f).unwrap();
        }
        assert!(d.header_pages.len() >= 2);
        let d2 = Directory::load(&f, 64).unwrap();
        assert_eq!(d2.num_segments(), d.num_segments());
        // Segment ranges stay disjoint and avoid the header pages.
        for (i, m) in d2.segments().iter().enumerate() {
            for h in &d2.header_pages {
                assert!(!m.contains_page(*h), "segment {i} overlaps header page {h}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pruning_implements_the_three_range_predicates() {
        let path = temp("prune");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        // Segment 0: insertions committed in [1, 5], deletion at 7.
        let p = d.allocate_page().unwrap();
        d.note_insert_commit(p, Timestamp(1));
        d.note_insert_commit(p, Timestamp(5));
        d.note_delete(p, Timestamp(7));
        // Segment 1: insertions in [6, 9], no deletions.
        d.create_segment(&f).unwrap();
        let p = d.allocate_page().unwrap();
        d.note_insert_commit(p, Timestamp(6));
        d.note_insert_commit(p, Timestamp(9));
        // Segment 2: brand new, nothing committed.
        d.create_segment(&f).unwrap();
        d.allocate_page().unwrap();

        let hits =
            |b: ScanBounds| -> Vec<u32> { d.prune(&b).into_iter().map(|(s, _)| s.0).collect() };
        assert_eq!(
            hits(ScanBounds::inserted_at_or_before(Timestamp(5))),
            vec![0]
        );
        assert_eq!(
            hits(ScanBounds::inserted_at_or_before(Timestamp(8))),
            vec![0, 1]
        );
        assert_eq!(hits(ScanBounds::inserted_after(Timestamp(5))), vec![1]);
        assert_eq!(hits(ScanBounds::inserted_after(Timestamp(0))), vec![0, 1]);
        assert_eq!(hits(ScanBounds::deleted_after(Timestamp(6))), vec![0]);
        assert_eq!(
            hits(ScanBounds::deleted_after(Timestamp(7))),
            Vec::<u32>::new()
        );
        // Phase 1 style: inserted after 5 OR possibly-uncommitted from seg 2.
        let b = ScanBounds {
            ins_after: Some(Timestamp(5)),
            uncommitted_from_segment: Some(2),
            ..Default::default()
        };
        assert_eq!(hits(b), vec![1, 2]);
        assert_eq!(hits(ScanBounds::all()), vec![0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn staleness_tracks_unpersisted_annotation_changes() {
        let path = temp("stale");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        let p = d.allocate_page().unwrap();
        assert!(d.is_stale(p), "page allocation changed the meta");
        d.persist(&f).unwrap();
        assert!(!d.is_stale(p));
        d.note_delete(p, Timestamp(3));
        assert!(d.is_stale(p));
        d.persist(&f).unwrap();
        assert!(!d.is_stale(p));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bulk_drop_removes_oldest_segment_only() {
        let path = temp("drop");
        let f = file(&path);
        let mut d = Directory::create(&f, 64).unwrap();
        let p0 = d.allocate_page().unwrap();
        d.note_insert_commit(p0, Timestamp(1));
        d.create_segment(&f).unwrap();
        d.allocate_page().unwrap();
        let dropped = d.drop_oldest(&f).unwrap().unwrap();
        assert_eq!(dropped.tmin_insert, Timestamp(1));
        assert_eq!(d.num_segments(), 1);
        // The lone remaining segment is never dropped.
        assert!(d.drop_oldest(&f).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
