//! The 4 KB slotted heap page (thesis §6.1.1).
//!
//! Pages hold fixed-width tuples for one table. Layout:
//!
//! ```text
//! [page_lsn: u64][tuple_size: u16][slot_count: u16][used: u16][free_hint: u16]
//! [occupancy bitmap: ceil(slot_count / 8) bytes]
//! [slot 0][slot 1]…[slot slot_count-1]
//! ```
//!
//! * `page_lsn` supports the write-ahead-logging rule and ARIES redo (only
//!   meaningful when the site runs the log-based baseline; HARBOR leaves it
//!   at zero).
//! * `free_hint` is the index of the lowest possibly-free slot, maintained so
//!   inserts do not rescan the bitmap from zero — the thesis' "pointers to
//!   the first empty slot" optimization.
//! * Tuples within a slot are the fixed-width encoding of
//!   [`harbor_common::Tuple`]; the first 16 bytes of every tuple are the
//!   insertion and deletion timestamps, which [`Page::set_timestamp`] can
//!   overwrite in place (commit-time assignment, recovery updates).

use harbor_common::config::{PAGE_PAYLOAD, PAGE_SIZE};
use harbor_common::{DbError, DbResult, Timestamp};
use harbor_wal::record::TsField;
use harbor_wal::Lsn;

const OFF_LSN: usize = 0;
const OFF_TUPLE_SIZE: usize = 8;
const OFF_SLOT_COUNT: usize = 10;
const OFF_USED: usize = 12;
const OFF_FREE_HINT: usize = 14;
const HEADER: usize = 16;

/// Number of slots a page can hold for a given tuple width: solves
/// `HEADER + ceil(n/8) + n * size <= PAGE_PAYLOAD`. The page's last
/// [`harbor_common::config::PAGE_CRC_LEN`] bytes are the checksum trailer
/// stamped by the file layer on every write — slots never reach into it.
pub fn slots_per_page(tuple_size: usize) -> usize {
    assert!(tuple_size > 0, "zero-width tuples are not storable");
    let bits = (PAGE_PAYLOAD - HEADER) * 8;
    let n = bits / (tuple_size * 8 + 1);
    n.min(u16::MAX as usize)
}

/// An owned page buffer with typed accessors.
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed, uninitialized buffer (for reading raw bytes into).
    pub fn blank() -> Self {
        Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        }
    }

    /// Initializes an empty heap page for tuples of `tuple_size` bytes.
    pub fn init(tuple_size: usize) -> Self {
        let mut p = Page::blank();
        let slots = slots_per_page(tuple_size);
        p.buf[OFF_TUPLE_SIZE..OFF_TUPLE_SIZE + 2]
            .copy_from_slice(&(tuple_size as u16).to_le_bytes());
        p.buf[OFF_SLOT_COUNT..OFF_SLOT_COUNT + 2].copy_from_slice(&(slots as u16).to_le_bytes());
        p
    }

    /// Wraps raw bytes read from disk, validating the header.
    pub fn from_bytes(bytes: Box<[u8; PAGE_SIZE]>, expect_tuple_size: usize) -> DbResult<Self> {
        let p = Page { buf: bytes };
        let ts = p.tuple_size();
        if ts != expect_tuple_size {
            return Err(DbError::corrupt(format!(
                "page tuple size {ts} does not match schema width {expect_tuple_size}"
            )));
        }
        if p.slot_count() != slots_per_page(ts) {
            return Err(DbError::corrupt("page slot count inconsistent"));
        }
        Ok(p)
    }

    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// The whole image, for the file layer to stamp its trailer into.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap())
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn page_lsn(&self) -> Lsn {
        Lsn(u64::from_le_bytes(
            self.buf[OFF_LSN..OFF_LSN + 8].try_into().unwrap(),
        ))
    }

    pub fn set_page_lsn(&mut self, lsn: Lsn) {
        self.buf[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.0.to_le_bytes());
    }

    pub fn tuple_size(&self) -> usize {
        self.u16_at(OFF_TUPLE_SIZE) as usize
    }

    pub fn slot_count(&self) -> usize {
        self.u16_at(OFF_SLOT_COUNT) as usize
    }

    /// Number of occupied slots.
    pub fn used(&self) -> usize {
        self.u16_at(OFF_USED) as usize
    }

    pub fn is_full(&self) -> bool {
        self.used() == self.slot_count()
    }

    fn bitmap_len(&self) -> usize {
        self.slot_count().div_ceil(8)
    }

    fn slot_offset(&self, slot: usize) -> usize {
        HEADER + self.bitmap_len() + slot * self.tuple_size()
    }

    pub fn is_occupied(&self, slot: usize) -> bool {
        debug_assert!(slot < self.slot_count());
        let byte = self.buf[HEADER + slot / 8];
        byte & (1 << (slot % 8)) != 0
    }

    fn set_occupied(&mut self, slot: usize, occupied: bool) {
        let idx = HEADER + slot / 8;
        if occupied {
            self.buf[idx] |= 1 << (slot % 8);
        } else {
            self.buf[idx] &= !(1 << (slot % 8));
        }
    }

    /// Inserts tuple bytes into the lowest free slot, returning the slot.
    pub fn insert(&mut self, data: &[u8]) -> DbResult<u16> {
        if data.len() != self.tuple_size() {
            return Err(DbError::corrupt("tuple width mismatch"));
        }
        self.insert_with(|_, slot| {
            slot.copy_from_slice(data);
            Ok(())
        })?
        .ok_or_else(|| DbError::Full("page".into()))
    }

    /// Claims the lowest free slot and lets `fill` write the row into it —
    /// `fill` gets the slot's number and its `tuple_size` bytes, which may
    /// hold a removed row's, so it writes all of them. The slot counts as
    /// occupied only once `fill` returns `Ok`. `Ok(None)`: the page is full.
    fn insert_with(
        &mut self,
        fill: impl FnOnce(u16, &mut [u8]) -> DbResult<()>,
    ) -> DbResult<Option<u16>> {
        let count = self.slot_count();
        let hint = self.u16_at(OFF_FREE_HINT) as usize;
        let Some(slot) = (hint..count).find(|&s| !self.is_occupied(s)) else {
            return Ok(None);
        };
        let off = self.slot_offset(slot);
        let size = self.tuple_size();
        fill(slot as u16, &mut self.buf[off..off + size])?;
        self.set_occupied(slot, true);
        self.set_u16_at(OFF_USED, self.used() as u16 + 1);
        // Nothing below `slot` was free: the hint moves to the next free one.
        let next = (slot + 1..count).find(|&s| !self.is_occupied(s));
        self.set_u16_at(OFF_FREE_HINT, next.unwrap_or(count) as u16);
        Ok(Some(slot as u16))
    }

    /// Copies the rows laid end to end in `rows` (whole rows of
    /// `tuple_size` bytes) into the lowest free slots, as many as there is
    /// room for, and returns how many it placed. The free slots are found a
    /// 64-slot occupancy word at a time; each run of consecutive free slots
    /// takes its rows with one copy and is said to `placed` as its first slot
    /// and its row count. The used count and the free hint are written once:
    /// the page ends as [`Page::insert`] of each row in turn leaves it.
    pub fn fill(&mut self, rows: &[u8], mut placed: impl FnMut(u16, usize)) -> usize {
        let size = self.tuple_size();
        let want = rows.len() / size;
        let (mut done, mut last) = (0, 0);
        let hint = self.u16_at(OFF_FREE_HINT) as usize;
        let mut chunk = hint / 64;
        // The run being gathered, `(first slot, rows)`: it is copied once it
        // can grow no more, so a run across two words is one copy.
        let mut run: Option<(usize, usize)> = None;
        let mut copy = |page: &mut Page, (slot, n): (usize, usize), from: usize| {
            let off = page.slot_offset(slot);
            page.buf[off..off + n * size].copy_from_slice(&rows[from * size..(from + n) * size]);
            placed(slot as u16, n);
        };
        while done < want && chunk * 64 < self.slot_count() {
            let mut free = self.free_word_from(chunk, hint);
            let mut claimed = 0;
            while free != 0 && done < want {
                let start = free.trailing_zeros() as usize;
                let len = ((free >> start).trailing_ones() as usize).min(want - done);
                let bits = (u64::MAX >> (64 - len)) << start;
                (claimed, free) = (claimed | bits, free & !bits);
                let slot = chunk * 64 + start;
                run = match run {
                    Some((first, n)) if first + n == slot => Some((first, n + len)),
                    Some(gathered) => {
                        copy(self, gathered, done - gathered.1);
                        Some((slot, len))
                    }
                    None => Some((slot, len)),
                };
                done += len;
                last = slot + len - 1;
            }
            if claimed != 0 {
                self.claim_word(chunk, claimed);
            }
            chunk += 1;
        }
        let Some(gathered) = run else {
            return 0;
        };
        copy(self, gathered, done - gathered.1);
        self.set_u16_at(OFF_USED, (self.used() + done) as u16);
        // Every free slot up to `last` was taken: the hint moves to the next.
        let from = last + 1;
        let next = (from / 64..self.slot_count().div_ceil(64)).find_map(|chunk| {
            let free = self.free_word_from(chunk, from);
            (free != 0).then(|| chunk * 64 + free.trailing_zeros() as usize)
        });
        self.set_u16_at(OFF_FREE_HINT, next.unwrap_or(self.slot_count()) as u16);
        done
    }

    /// The free slots of one occupancy word at or above slot `from`, as set
    /// bits.
    fn free_word_from(&self, chunk: usize, from: usize) -> u64 {
        let valid = self.slot_count() - chunk * 64;
        let mut free = !self.occupancy_word(chunk);
        if valid < 64 {
            free &= (1 << valid) - 1;
        }
        if from / 64 == chunk {
            free &= u64::MAX << (from % 64);
        }
        free
    }

    /// Sets the occupancy bits `bits` of one word.
    fn claim_word(&mut self, chunk: usize, bits: u64) {
        let byte = HEADER + chunk * 8;
        let n = (self.bitmap_len() - chunk * 8).min(8);
        let mut raw = [0u8; 8];
        raw[..n].copy_from_slice(&self.buf[byte..byte + n]);
        let word = u64::from_le_bytes(raw) | bits;
        self.buf[byte..byte + n].copy_from_slice(&word.to_le_bytes()[..n]);
    }

    /// Inserts into a specific slot (used by redo, which must be exact).
    pub fn insert_at(&mut self, slot: u16, data: &[u8]) -> DbResult<()> {
        let slot = slot as usize;
        if slot >= self.slot_count() {
            return Err(DbError::corrupt(format!("slot {slot} out of range")));
        }
        if data.len() != self.tuple_size() {
            return Err(DbError::corrupt("tuple width mismatch"));
        }
        if self.is_occupied(slot) {
            return Err(DbError::corrupt(format!("slot {slot} already occupied")));
        }
        let off = self.slot_offset(slot);
        let size = self.tuple_size();
        self.buf[off..off + size].copy_from_slice(data);
        self.set_occupied(slot, true);
        let used = self.used() + 1;
        self.set_u16_at(OFF_USED, used as u16);
        // Advance the free hint past contiguous occupied slots.
        let hint = self.u16_at(OFF_FREE_HINT) as usize;
        if slot == hint {
            let mut h = hint + 1;
            while h < self.slot_count() && self.is_occupied(h) {
                h += 1;
            }
            self.set_u16_at(OFF_FREE_HINT, h as u16);
        }
        Ok(())
    }

    /// Physically removes the tuple in `slot`, returning its bytes (undo
    /// information for the log-based mode; recovery Phase 1 discards it).
    pub fn remove(&mut self, slot: u16) -> DbResult<Vec<u8>> {
        let slot = slot as usize;
        if slot >= self.slot_count() || !self.is_occupied(slot) {
            return Err(DbError::corrupt(format!("remove of empty slot {slot}")));
        }
        let off = self.slot_offset(slot);
        let size = self.tuple_size();
        let data = self.buf[off..off + size].to_vec();
        self.set_occupied(slot, false);
        let used = self.used() - 1;
        self.set_u16_at(OFF_USED, used as u16);
        if (slot as u16) < self.u16_at(OFF_FREE_HINT) {
            self.set_u16_at(OFF_FREE_HINT, slot as u16);
        }
        Ok(data)
    }

    /// Raw bytes of the tuple in `slot`.
    pub fn read(&self, slot: u16) -> DbResult<&[u8]> {
        let slot = slot as usize;
        if slot >= self.slot_count() || !self.is_occupied(slot) {
            return Err(DbError::corrupt(format!("read of empty slot {slot}")));
        }
        let off = self.slot_offset(slot);
        Ok(&self.buf[off..off + self.tuple_size()])
    }

    /// Overwrites the tuple in `slot` (in-place recovery updates).
    pub fn write(&mut self, slot: u16, data: &[u8]) -> DbResult<()> {
        let slot = slot as usize;
        if slot >= self.slot_count() || !self.is_occupied(slot) {
            return Err(DbError::corrupt(format!("write to empty slot {slot}")));
        }
        if data.len() != self.tuple_size() {
            return Err(DbError::corrupt("tuple width mismatch"));
        }
        let off = self.slot_offset(slot);
        self.buf[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads one of the two reserved timestamp fields of the tuple in `slot`.
    pub fn timestamp(&self, slot: u16, field: TsField) -> DbResult<Timestamp> {
        let base = {
            let slot = slot as usize;
            if slot >= self.slot_count() || !self.is_occupied(slot) {
                return Err(DbError::corrupt(format!(
                    "timestamp read of empty slot {slot}"
                )));
            }
            self.slot_offset(slot)
        };
        let off = base
            + match field {
                TsField::Insertion => 0,
                TsField::Deletion => 8,
            };
        Ok(Timestamp(u64::from_le_bytes(
            self.buf[off..off + 8].try_into().unwrap(),
        )))
    }

    /// Overwrites one of the two reserved timestamp fields in place —
    /// commit-time assignment (§4.1) and recovery's deletion-time copies
    /// (§5.2–§5.4) both go through here.
    pub fn set_timestamp(&mut self, slot: u16, field: TsField, ts: Timestamp) -> DbResult<()> {
        let base = {
            let slot = slot as usize;
            if slot >= self.slot_count() || !self.is_occupied(slot) {
                return Err(DbError::corrupt(format!(
                    "timestamp write to empty slot {slot}"
                )));
            }
            self.slot_offset(slot)
        };
        let off = base
            + match field {
                TsField::Insertion => 0,
                TsField::Deletion => 8,
            };
        self.buf[off..off + 8].copy_from_slice(&ts.0.to_le_bytes());
        Ok(())
    }

    /// Iterator over occupied slot numbers.
    pub fn occupied_slots(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.slot_count() as u16).filter(move |&s| self.is_occupied(s as usize))
    }

    /// Occupancy bits for slots `chunk*64 .. chunk*64+64` as one little-endian
    /// word (bit `i` = slot `chunk*64 + i`), with bits at or past `slot_count`
    /// cleared. Feeds the chunked admission kernel: one load replaces 64
    /// per-slot bitmap probes.
    pub fn occupancy_word(&self, chunk: usize) -> u64 {
        let count = self.slot_count();
        let first = chunk * 64;
        if first >= count {
            return 0;
        }
        let byte = HEADER + first / 8;
        let avail = self.bitmap_len() - first / 8;
        let mut raw = [0u8; 8];
        let n = avail.min(8);
        raw[..n].copy_from_slice(&self.buf[byte..byte + n]);
        let mut word = u64::from_le_bytes(raw);
        let valid = count - first;
        if valid < 64 {
            word &= (1u64 << valid) - 1;
        }
        word
    }

    /// The contiguous slot region: slot `i`'s bytes are
    /// `slot_data()[i * tuple_size .. (i + 1) * tuple_size]`. Callers are
    /// responsible for consulting occupancy (via [`Page::occupancy_word`] or
    /// [`Page::is_occupied`]) before treating a slot's bytes as live.
    pub fn slot_data(&self) -> &[u8] {
        &self.buf[HEADER + self.bitmap_len()..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: usize = 24; // 16 bytes of timestamps + 8 byte payload

    fn tuple(ins: u64, del: u64, tail: u8) -> Vec<u8> {
        let mut v = Vec::with_capacity(TS);
        v.extend_from_slice(&ins.to_le_bytes());
        v.extend_from_slice(&del.to_le_bytes());
        v.extend_from_slice(&[tail; 8]);
        v
    }

    #[test]
    fn capacity_formula_fits_in_page() {
        for size in [8usize, 24, 64, 72, 200, 4000] {
            let n = slots_per_page(size);
            assert!(n >= 1 || size > PAGE_PAYLOAD - HEADER - 1);
            // Slots stay clear of the checksum trailer…
            assert!(
                HEADER + n.div_ceil(8) + n * size <= PAGE_PAYLOAD,
                "size={size}"
            );
            // …and one more slot must not fit.
            assert!(HEADER + (n + 1).div_ceil(8) + (n + 1) * size > PAGE_PAYLOAD);
        }
    }

    #[test]
    fn insert_read_remove_round_trip() {
        let mut p = Page::init(TS);
        let s0 = p.insert(&tuple(1, 0, 0xaa)).unwrap();
        let s1 = p.insert(&tuple(2, 0, 0xbb)).unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.used(), 2);
        assert_eq!(p.read(s1).unwrap()[16], 0xbb);
        let removed = p.remove(s0).unwrap();
        assert_eq!(removed[16], 0xaa);
        assert!(!p.is_occupied(0));
        // Freed slot is reused first (dense packing).
        let s2 = p.insert(&tuple(3, 0, 0xcc)).unwrap();
        assert_eq!(s2, 0);
    }

    #[test]
    fn fill_page_to_capacity() {
        let mut p = Page::init(TS);
        let cap = p.slot_count();
        for i in 0..cap {
            p.insert(&tuple(i as u64, 0, 1)).unwrap();
        }
        assert!(p.is_full());
        assert!(matches!(p.insert(&tuple(0, 0, 0)), Err(DbError::Full(_))));
        // Free one in the middle, insert again lands there.
        p.remove((cap / 2) as u16).unwrap();
        assert_eq!(p.insert(&tuple(9, 0, 2)).unwrap() as usize, cap / 2);
    }

    #[test]
    fn timestamps_update_in_place() {
        let mut p = Page::init(TS);
        let s = p.insert(&tuple(u64::MAX, 0, 7)).unwrap();
        assert_eq!(
            p.timestamp(s, TsField::Insertion).unwrap(),
            Timestamp::UNCOMMITTED
        );
        p.set_timestamp(s, TsField::Insertion, Timestamp(41))
            .unwrap();
        p.set_timestamp(s, TsField::Deletion, Timestamp(99))
            .unwrap();
        assert_eq!(p.timestamp(s, TsField::Insertion).unwrap(), Timestamp(41));
        assert_eq!(p.timestamp(s, TsField::Deletion).unwrap(), Timestamp(99));
        // The payload is untouched.
        assert_eq!(p.read(s).unwrap()[16], 7);
    }

    #[test]
    fn page_round_trips_through_bytes() {
        let mut p = Page::init(TS);
        p.insert(&tuple(5, 0, 3)).unwrap();
        p.set_page_lsn(Lsn(777));
        let bytes: Box<[u8; PAGE_SIZE]> = Box::new(*p.as_bytes());
        let q = Page::from_bytes(bytes, TS).unwrap();
        assert_eq!(q.used(), 1);
        assert_eq!(q.page_lsn(), Lsn(777));
        assert_eq!(q.read(0).unwrap(), p.read(0).unwrap());
    }

    #[test]
    fn from_bytes_rejects_schema_mismatch() {
        let p = Page::init(TS);
        let bytes: Box<[u8; PAGE_SIZE]> = Box::new(*p.as_bytes());
        assert!(Page::from_bytes(bytes, TS + 8).is_err());
    }

    #[test]
    fn insert_at_is_exact_and_rejects_collisions() {
        let mut p = Page::init(TS);
        p.insert_at(5, &tuple(1, 0, 1)).unwrap();
        assert!(p.is_occupied(5));
        assert!(p.insert_at(5, &tuple(1, 0, 1)).is_err());
        // Hint-based insert still fills slot 0 first.
        assert_eq!(p.insert(&tuple(2, 0, 2)).unwrap(), 0);
    }

    #[test]
    fn occupancy_word_and_slot_data_match_scalar_accessors() {
        let mut p = Page::init(TS);
        for s in [0usize, 1, 7, 63, 64, 70, 100] {
            p.insert_at(s as u16, &tuple(s as u64, 0, s as u8)).unwrap();
        }
        let chunks = p.slot_count().div_ceil(64);
        for chunk in 0..chunks {
            let w = p.occupancy_word(chunk);
            for bit in 0..64 {
                let slot = chunk * 64 + bit;
                let expect = slot < p.slot_count() && p.is_occupied(slot);
                assert_eq!(w >> bit & 1 == 1, expect, "chunk {chunk} bit {bit}");
            }
        }
        assert_eq!(p.occupancy_word(chunks), 0);
        assert_eq!(&p.slot_data()[63 * TS..64 * TS], p.read(63).unwrap());
    }

    /// `fill` leaves the image a row-at-a-time `insert` leaves, on pages with
    /// holes anywhere (within a word, across words, the last slot), from an
    /// empty batch to more rows than fit, at widths below and above 64 slots
    /// a page; and it says each run of slots once, in order.
    #[test]
    fn fill_matches_insert_a_row_at_a_time() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for width in [TS, 40, 200] {
            let cap = Page::init(width).slot_count();
            for case in 0..300 {
                let (mut by_row, mut by_fill) = (Page::init(width), Page::init(width));
                let row = |i: usize| {
                    let mut v = tuple(i as u64, 0, i as u8);
                    v.resize(width, i as u8);
                    v
                };
                // Fill some, then punch holes, on both pages alike.
                let before = next() as usize % (cap + 1);
                for i in 0..before {
                    by_row.insert(&row(i)).unwrap();
                    by_fill.insert(&row(i)).unwrap();
                }
                for _ in 0..next() % 12 {
                    let slot = (next() as usize % cap) as u16;
                    if by_row.is_occupied(slot as usize) {
                        by_row.remove(slot).unwrap();
                        by_fill.remove(slot).unwrap();
                    }
                }
                let n = next() as usize % (cap + 3);
                let rows: Vec<u8> = (0..n).flat_map(|i| row(1000 + i)).collect();
                let want: Vec<u16> = (0..n)
                    .map_while(|i| by_row.insert(&row(1000 + i)).ok())
                    .collect();
                let mut runs = Vec::new();
                let placed = by_fill.fill(&rows, |slot, k| runs.push((slot, k)));
                assert_eq!(placed, want.len(), "width {width} case {case}");
                assert_eq!(
                    by_fill.as_bytes()[..],
                    by_row.as_bytes()[..],
                    "width {width} case {case}"
                );
                let said: Vec<u16> = runs.iter().flat_map(|&(s, k)| s..s + k as u16).collect();
                assert_eq!(said, want);
                // Runs are maximal: no run starts where the one before ends.
                assert!(runs.windows(2).all(|w| w[0].0 + w[0].1 as u16 != w[1].0));
            }
        }
    }

    #[test]
    fn occupied_slots_iterates_in_order() {
        let mut p = Page::init(TS);
        p.insert_at(3, &tuple(1, 0, 1)).unwrap();
        p.insert_at(1, &tuple(2, 0, 2)).unwrap();
        let slots: Vec<u16> = p.occupied_slots().collect();
        assert_eq!(slots, vec![1, 3]);
    }
}
