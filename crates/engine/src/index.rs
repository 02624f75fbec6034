//! In-memory primary-key index: tuple id → record ids of all versions.
//!
//! The thesis assumes "an index exists on tuple id, which is usually the
//! primary key" (§5.3) and recovers indices "as a side effect of adding or
//! deleting tuples from the object during recovery" (§5.1). We keep the
//! index in memory, maintained by the engine's mutation paths, and rebuild
//! it lazily by a single sequential scan after a restart — the recovering
//! site never consults it (its statements are batch scans); a buddy does
//! only for a recovery predicate that bounds the key, a partition's.
//!
//! A key maps to *all* versions of the tuple (an update creates a second
//! tuple with the same id); readers filter by visibility. A range of keys is
//! one lookup ([`KeyIndex::range`]): the runs that overlap it and the hashed
//! keys in it, as stretches of slots in page order.
//!
//! Tuple ids are the warehouse's surrogate keys: a load or a recovery
//! places them in key order into consecutive slots of a page, and a key
//! whose history is loaded too brings its versions side by side, oldest
//! first. Keys that arrived that way are held as a **run** — a start key, a
//! length, the first key's place and a mask of the slots that repeat the key
//! before them, 32 bytes for a page of keys — and every other key in a hash
//! bucket of its own. A version placed anywhere else, or a removal, takes
//! the key out with all of its versions, splitting the run. Which form a
//! key takes follows from how it arrived, so random keys cost what a plain
//! hash costs.

use harbor_common::{DbResult, PageId, RecordId, TableId};
use harbor_storage::table::ts_word;
use harbor_storage::BufferPool;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Range, RangeInclusive};

/// A multiplicative (Fibonacci) hash of the one `i64` a key is. Tuple ids are
/// the warehouse's own surrogate keys, mostly consecutive; a loader that
/// chose them to collide would slow its own probes.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_i64(*b as i64));
    }

    fn write_i64(&mut self, key: i64) {
        let h = (self.0 ^ key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The map takes its bucket from the low bits: fold the high in.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A version's place as one word: page number and slot (the table is the
/// holder's own).
pub(crate) fn pack(rid: RecordId) -> u64 {
    (rid.page.page_no as u64) << 16 | rid.slot as u64
}

pub(crate) fn unpack(table: TableId, at: u64) -> RecordId {
    RecordId::new(PageId::new(table, (at >> 16) as u32), at as u16)
}

/// Whether two places are on one page.
fn same_page(a: u64, b: u64) -> bool {
    a >> 16 == b >> 16
}

/// Set in a key's first-version word while `more` holds later versions of
/// the key (a packed place never reaches bit 48): a key with one version is
/// looked up without a tree search.
const HAS_MORE: u64 = 1 << 63;

/// `key`'s entries in [`Inner::more`], oldest registration first.
fn later(key: i64) -> RangeInclusive<(i64, u64)> {
    (key, 0)..=(key, u64::MAX)
}

/// The position of the `n`-th (from 0) clear bit of `mask`, whose bits from
/// 64 up count as clear.
fn nth_clear(mask: u64, n: u64) -> u64 {
    let clear = !mask;
    if n >= clear.count_ones() as u64 {
        return n + mask.count_ones() as u64;
    }
    // Halve the window that holds it: skip the low half whenever it has
    // no more clear bits than are left to skip.
    let (mut word, mut left, mut pos) = (clear, n, 0);
    for width in [32u64, 16, 8, 4, 2, 1] {
        let low = (word & ((1 << width) - 1)).count_ones() as u64;
        if left >= low {
            left -= low;
            word >>= width;
            pos += width;
        }
    }
    pos
}

/// `len` consecutive keys from a start key, in consecutive slots of one page
/// from `at`, each key's versions side by side in the order they came. Bit
/// `i` of `rep` is set when slot `at + i` holds another version of the key
/// in the slot before it; the mask covers the run's first 64 slots.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Run {
    len: u32,
    at: u64,
    rep: u64,
}

impl Run {
    /// The slots the run covers.
    fn slots(self) -> u64 {
        self.len as u64 + self.rep.count_ones() as u64
    }

    /// `key`'s offset among the run's keys, if the run that starts at
    /// `start` holds it. (The offset wraps below `start` to more than any
    /// length: a run never reaches past `i64::MAX`.)
    fn offset(self, start: i64, key: i64) -> Option<u64> {
        let off = key.wrapping_sub(start) as u64;
        (off < self.len as u64).then_some(off)
    }

    /// The slots, counted from `at`, that hold the versions of the `off`-th
    /// key: its first slot and the repeats after it.
    fn versions(self, off: u64) -> Range<u64> {
        if self.rep == 0 {
            return off..off + 1;
        }
        let first = nth_clear(self.rep, off);
        let repeats = self.rep.checked_shr(first as u32 + 1).unwrap_or(0);
        first..first + 1 + repeats.trailing_ones() as u64
    }

    /// Whether `at` is the slot after the run's last, on its page.
    fn followed_at(self, at: u64) -> bool {
        at == self.at + self.slots() && same_page(at, self.at)
    }

    /// Whether `key` at `at` is the next key in the next slot of the page.
    fn extended_by(self, start: i64, key: i64, at: u64) -> bool {
        start.checked_add(self.len as i64) == Some(key) && self.followed_at(at)
    }
}

/// The key → versions map. A key is in exactly one of three places: a run
/// in `runs`, the `open` run, or `first`.
///
/// `runs` holds the closed runs by start key; `hi` is at least the last key
/// of every one of them, so a key above it — the next key of a load — skips
/// the tree. `open` is the newest run, kept out of the tree so that the
/// next key extends it with `len += 1` (and an update of its last key
/// shortens it with `len -= 1`, down to one key). The last key of a run,
/// placed again in the run's next slot, sets a bit of the run's mask.
///
/// `first` holds every other key's first version, packed: nothing is
/// allocated per key, a bucket is 17 bytes, and the index is freed as one
/// block. A key that extends nothing goes there and is remembered in
/// `last`; the next key — or the same key again — in the next slot takes it
/// out again, if it still has that one version and no other, and the two
/// are the open run. Keys in no order therefore cost one hash insert each,
/// as in a plain hash.
/// The versions after the first of a key that an update gave more than one
/// live in `more`, one ordered map for the whole table keyed by `(key,
/// registration number)`: a key's later versions are one range in the order
/// they came, and a second version costs a slot in a B-tree node, not a map
/// entry and a `Vec` of its own.
#[derive(Default, Debug, PartialEq)]
struct Inner {
    built: bool,
    runs: BTreeMap<i64, Run>,
    open: Option<(i64, Run)>,
    hi: Option<i64>,
    first: HashMap<i64, u64, BuildHasherDefault<KeyHasher>>,
    /// At least every key `first` has held: a key above it is in no bucket.
    first_max: Option<i64>,
    /// The key last put in `first` on its own, and its place (a hint: what
    /// `first` holds for it now is checked before a run is started from it).
    last: Option<(i64, u64)>,
    more: BTreeMap<(i64, u64), u64>,
    /// The last registration number handed out.
    registered: u64,
}

impl Inner {
    /// The run that holds `key`: its start, the run, and the key's offset.
    fn run_of(&self, key: i64) -> Option<(i64, Run, u64)> {
        let holds = |(start, run): (i64, Run)| Some((start, run, run.offset(start, key)?));
        if let Some(found) = self.open.and_then(holds) {
            return Some(found);
        }
        if self.hi.is_none_or(|hi| key > hi) {
            return None;
        }
        let (&start, &run) = self.runs.range(..=key).next_back()?;
        holds((start, run))
    }

    fn versions(&self, table: TableId, key: i64) -> Vec<RecordId> {
        let Some(&word) = self.first.get(&key) else {
            let run = self.run_of(key);
            return run.map_or_else(Vec::new, |(_, run, off)| {
                let slots = run.versions(off);
                slots.map(|slot| unpack(table, run.at + slot)).collect()
            });
        };
        let mut versions = vec![unpack(table, word & !HAS_MORE)];
        if word & HAS_MORE != 0 {
            let more = self.more.range(later(key));
            versions.extend(more.map(|(_, at)| unpack(table, *at)));
        }
        versions
    }

    fn insert(&mut self, key: i64, rid: RecordId) {
        let at = pack(rid);
        if let Some((start, mut run, off)) = self.run_of(key) {
            let slots = run.versions(off);
            if slots.contains(&at.wrapping_sub(run.at)) {
                return;
            }
            let next = run.slots();
            if off + 1 == run.len as u64 && next < 64 && run.followed_at(at) {
                // The last key again, side by side.
                run.rep |= 1 << next;
                self.put(start, run);
            } else {
                // A version elsewhere: the key leaves its run.
                self.cut(start, run, off);
                self.file(key, slots.map(|slot| run.at + slot).chain([at]));
            }
            return;
        }
        if let Some((start, run)) = &mut self.open {
            if run.extended_by(*start, key, at) && !self.first.contains_key(&key) {
                run.len += 1;
                return;
            }
        }
        // The key before, or this key, came on its own into the slot before
        // and is still just that: the two are the open run now.
        let joins = self.last.filter(|&(prev, place)| {
            let next_key = prev.checked_add(1) == Some(key) && !self.first.contains_key(&key);
            at == place + 1
                && same_page(at, place)
                && (next_key || key == prev)
                && self.first.get(&prev) == Some(&place)
        });
        if let Some((prev, place)) = joins {
            self.first.remove(&prev);
            let (len, rep) = if key == prev { (1, 0b10) } else { (2, 0) };
            let run = Run {
                len,
                at: place,
                rep,
            };
            if let Some((start, run)) = self.open.replace((prev, run)) {
                self.close(start, run);
            }
            return;
        }
        match self.first.entry(key) {
            Entry::Occupied(first) => {
                let word = *first.get();
                let said = word & !HAS_MORE == at
                    || (word & HAS_MORE != 0 && self.more.range(later(key)).any(|(_, v)| *v == at));
                if !said {
                    self.add_later(key, word, at);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(at);
                self.first_max = self.first_max.max(Some(key));
                self.last = Some((key, at));
            }
        }
    }

    /// Puts `key`'s first-version word in `first`.
    fn hash(&mut self, key: i64, word: u64) {
        self.first.insert(key, word);
        self.first_max = self.first_max.max(Some(key));
    }

    /// Registers the versions of a run in order, leaving what one
    /// [`insert`](Self::insert) of each would leave. A version that extends
    /// the open run — the next key, or the run's last key again, in the run's
    /// next slot — grows it in place with no search: a next key above `hi`
    /// and `first_max` is in no closed run and no bucket, so `insert` would do
    /// just that. Any other version takes `insert`.
    fn insert_run(&mut self, run: impl Iterator<Item = (i64, RecordId)>) {
        // The open run's last key and slot count, and the key every next
        // key must be above, while only this loop has grown the run.
        let mut tail = None;
        for (key, rid) in run {
            let at = pack(rid);
            if let Some((start, open)) = &mut self.open {
                let (last, slots, floor) = *tail.get_or_insert_with(|| {
                    let last = *start + (open.len as i64 - 1);
                    (last, open.slots(), self.hi.max(self.first_max))
                });
                if at == open.at + slots && same_page(at, open.at) {
                    if key == last && slots < 64 {
                        open.rep |= 1 << slots;
                        tail = Some((last, slots + 1, floor));
                        continue;
                    }
                    if Some(key) == last.checked_add(1) && floor.is_none_or(|f| key > f) {
                        open.len += 1;
                        tail = Some((key, slots + 1, floor));
                        continue;
                    }
                }
            }
            tail = None;
            self.insert(key, rid);
        }
    }

    /// Puts back `run`, which starts at `start`, where it was found.
    fn put(&mut self, start: i64, run: Run) {
        match &mut self.open {
            Some((s, open)) if *s == start => *open = run,
            _ => {
                self.runs.insert(start, run);
            }
        }
    }

    /// Files a run that no key will extend: a run of one slot is a hashed
    /// key.
    fn close(&mut self, start: i64, run: Run) {
        match run.slots() {
            0 => {}
            1 => self.hash(start, run.at),
            _ => {
                let last = start + (run.len - 1) as i64;
                self.hi = Some(self.hi.map_or(last, |hi| hi.max(last)));
                self.runs.insert(start, run);
            }
        }
    }

    /// Takes the `off`-th key, with all of its versions, out of `run`, which
    /// starts at `start`. The keys before and after it stay runs of their
    /// own (a key on its own in one slot is hashed); of the open run, the
    /// piece with its tail stays open.
    fn cut(&mut self, start: i64, run: Run, off: u64) {
        let open = self.open.is_some_and(|(s, _)| s == start);
        if open {
            self.open = None;
        } else {
            self.runs.remove(&start);
        }
        let gone = run.versions(off);
        let before = Run {
            len: off as u32,
            at: run.at,
            rep: run.rep & !u64::MAX.checked_shl(gone.start as u32).unwrap_or(0),
        };
        let after = Run {
            len: run.len - off as u32 - 1,
            at: run.at + gone.end,
            rep: run.rep.checked_shr(gone.end as u32).unwrap_or(0),
        };
        // The cut key is not the last key there is while `after` holds one.
        let after_start = start.wrapping_add(off as i64 + 1);
        match (open, after.len) {
            (true, 0) => self.open = (before.len > 0).then_some((start, before)),
            (true, _) => {
                self.close(start, before);
                self.open = Some((after_start, after));
            }
            (false, _) => {
                self.close(start, before);
                self.close(after_start, after);
            }
        }
    }

    /// Files the versions of `key`, which is in no run and not in `first`,
    /// oldest first.
    fn file(&mut self, key: i64, mut versions: impl Iterator<Item = u64>) {
        if let Some(first) = versions.next() {
            self.hash(key, first);
            versions.for_each(|at| self.add_later(key, first, at));
        }
    }

    /// Registers `at` as a later version of `key`, whose first is `first`.
    fn add_later(&mut self, key: i64, first: u64, at: u64) {
        self.hash(key, first | HAS_MORE);
        self.registered += 1;
        self.more.insert((key, self.registered), at);
    }

    fn remove(&mut self, key: i64, rid: RecordId) {
        let at = pack(rid);
        let Some(&word) = self.first.get(&key) else {
            if let Some((start, run, off)) = self.run_of(key) {
                let slots = run.versions(off);
                if slots.contains(&at.wrapping_sub(run.at)) {
                    self.cut(start, run, off);
                    let left = slots.map(|slot| run.at + slot).filter(|v| *v != at);
                    self.file(key, left);
                }
            }
            return;
        };
        let mut later_versions = self.more.range(later(key)).map(|(k, v)| (*k, *v));
        let (goes, first) = if word & !HAS_MORE == at {
            // The oldest of the later versions takes its place.
            match later_versions.next() {
                Some((k, next)) => (k, next),
                None => {
                    self.first.remove(&key);
                    return;
                }
            }
        } else {
            match later_versions.find(|(_, v)| *v == at) {
                Some((k, _)) => (k, word & !HAS_MORE),
                None => return,
            }
        };
        self.more.remove(&goes);
        let still_more = self.more.range(later(key)).next().is_some();
        self.first
            .insert(key, if still_more { first | HAS_MORE } else { first });
    }

    /// The versions of every key in `lo..=hi`, as `(first, end)` place
    /// spans: the keys of each run that overlaps the range — the closed runs
    /// from the one that holds `lo`, and the open run — as one span of its
    /// slots, then each hashed key in the range and its later versions, one
    /// place each. The hashed keys are found by probing every key of the
    /// range or by scanning `first`, whichever is fewer operations.
    fn range(&self, lo: i64, hi: i64, out: &mut Vec<(u64, u64)>) {
        if lo > hi {
            return;
        }
        let mut span = |start: i64, run: Run| {
            let last = start + (run.len as i64 - 1);
            let (from, to) = (lo.max(start), hi.min(last));
            if from <= to {
                let first = run.versions((from - start) as u64).start;
                let end = run.versions((to - start) as u64).end;
                out.push((run.at + first, run.at + end));
            }
        };
        let below = self.runs.range(..=lo).next_back().map_or(lo, |(s, _)| *s);
        for (&start, &run) in self.runs.range(below..=hi) {
            span(start, run);
        }
        if let Some((start, run)) = self.open {
            span(start, run);
        }
        let Some(top) = self
            .first_max
            .map(|max| max.min(hi))
            .filter(|top| lo <= *top)
        else {
            return;
        };
        let mut hashed = |key: i64, word: u64| {
            let first = word & !HAS_MORE;
            out.push((first, first + 1));
            if word & HAS_MORE != 0 {
                let more = self.more.range(later(key));
                out.extend(more.map(|(_, at)| (*at, *at + 1)));
            }
        };
        if top.abs_diff(lo) < self.first.len() as u64 {
            for key in lo..=top {
                if let Some(&word) = self.first.get(&key) {
                    hashed(key, word);
                }
            }
        } else {
            let keys = lo..=top;
            for (&key, &word) in self.first.iter().filter(|(key, _)| keys.contains(key)) {
                hashed(key, word);
            }
        }
    }

    /// Every run, the open one included.
    fn all_runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.runs
            .values()
            .copied()
            .chain(self.open.map(|(_, run)| run))
    }
}

/// Consecutive slots of one page, which a range lookup found versions in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stretch {
    pub page: PageId,
    pub slots: Range<u16>,
}

/// Primary-key index for one table.
pub struct KeyIndex {
    table: TableId,
    /// Byte offset of the key field within the fixed-width tuple encoding
    /// (after the two 8-byte timestamps).
    key_offset: usize,
    inner: Mutex<Inner>,
}

impl KeyIndex {
    /// A fresh (empty, built) index for a new table.
    pub fn fresh(table: TableId, key_offset: usize) -> Self {
        let index = Self::cold(table, key_offset);
        index.inner.lock().built = true;
        index
    }

    /// A cold index for a reopened table; built on first lookup.
    pub fn cold(table: TableId, key_offset: usize) -> Self {
        KeyIndex {
            table,
            key_offset,
            inner: Mutex::default(),
        }
    }

    pub fn is_built(&self) -> bool {
        self.inner.lock().built
    }

    /// Extracts the key from encoded tuple bytes.
    pub fn key_from_bytes(&self, bytes: &[u8]) -> i64 {
        ts_word(bytes, self.key_offset) as i64
    }

    /// Registers a version (once, however often it is said). No-op while
    /// cold (the eventual build scan will see the tuple on its page).
    pub fn insert(&self, key: i64, rid: RecordId) {
        self.insert_run([(key, rid)]);
    }

    /// [`insert`](Self::insert) for each `(key, version)` of a run, in order,
    /// under one lock: a placed run of rows is one index call, and its keys
    /// that extend the open run, as a load's do, cost no lookup.
    pub fn insert_run(&self, run: impl IntoIterator<Item = (i64, RecordId)>) {
        let mut g = self.inner.lock();
        if g.built {
            g.insert_run(run.into_iter());
        }
    }

    /// Unregisters a version (physical removal).
    pub fn remove(&self, key: i64, rid: RecordId) {
        let mut g = self.inner.lock();
        if g.built {
            g.remove(key, rid);
        }
    }

    /// All versions of `key`, oldest registration first, building the index
    /// first if cold.
    pub fn lookup(&self, pool: &BufferPool, key: i64) -> DbResult<Vec<RecordId>> {
        let mut g = self.inner.lock();
        if !g.built {
            self.build_locked(pool, &mut g)?;
        }
        let rids = g.versions(self.table, key);
        if rids.is_empty() {
            pool.metrics().add_index_misses(1);
        } else {
            pool.metrics().add_index_hits(1);
        }
        Ok(rids)
    }

    /// Every version of every key in `keys`, building the index first if
    /// cold, as stretches of consecutive slots in page and slot order: one
    /// range lookup under one lock, whatever the width of the range.
    pub fn range(&self, pool: &BufferPool, keys: RangeInclusive<i64>) -> DbResult<Vec<Stretch>> {
        let mut spans = Vec::new();
        {
            let mut g = self.inner.lock();
            if !g.built {
                self.build_locked(pool, &mut g)?;
            }
            g.range(*keys.start(), *keys.end(), &mut spans);
        }
        if spans.is_empty() {
            pool.metrics().add_index_misses(1);
        } else {
            pool.metrics().add_index_hits(1);
        }
        spans.sort_unstable();
        // Spans that meet on one page are one stretch.
        spans.dedup_by(|next, prev| {
            let meets = next.0 == prev.1 && same_page(next.0, prev.0);
            if meets {
                prev.1 = next.1;
            }
            meets
        });
        let stretch = |(at, end): (u64, u64)| Stretch {
            page: unpack(self.table, at).page,
            slots: at as u16..end as u16,
        };
        Ok(spans.into_iter().map(stretch).collect())
    }

    /// Forces a (re)build by sequential scan.
    pub fn rebuild(&self, pool: &BufferPool) -> DbResult<()> {
        let mut g = self.inner.lock();
        *g = Inner::default();
        self.build_locked(pool, &mut g)
    }

    /// Drops the contents and marks the index cold (crash simulation /
    /// before recovery).
    pub fn invalidate(&self) {
        *self.inner.lock() = Inner::default();
    }

    /// Builds by walking occupancy words over the raw slot region — the
    /// batched path: one bitmap load per 64 slots and a direct key read at
    /// the fixed offset, instead of a per-row `page.read` with its
    /// occupancy/bounds re-checks. Pages and slots are walked in order, so
    /// keys that were loaded in order, history and all, come back as runs.
    fn build_locked(&self, pool: &BufferPool, g: &mut Inner) -> DbResult<()> {
        let table = pool.table(self.table)?;
        let mut built = Inner::default();
        for pid in table.all_page_ids() {
            pool.with_page(None, pid, |page| {
                let tsize = page.tuple_size();
                let data = page.slot_data();
                for chunk in 0..page.slot_count().div_ceil(64) {
                    let mut occ = page.occupancy_word(chunk);
                    while occ != 0 {
                        let slot = chunk * 64 + occ.trailing_zeros() as usize;
                        occ &= occ - 1;
                        let key = self.key_from_bytes(&data[slot * tsize..(slot + 1) * tsize]);
                        built.insert(key, RecordId::new(pid, slot as u16));
                    }
                }
                Ok(())
            })?;
        }
        built.built = true;
        *g = built;
        pool.metrics().add_index_rebuilds(1);
        Ok(())
    }

    /// Number of distinct keys (tests).
    pub fn len(&self) -> usize {
        let g = self.inner.lock();
        g.first.len() + g.all_runs().map(|run| run.len as usize).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the keys are held (tests): the runs of two slots or more, and
    /// the keys held on their own.
    pub fn shape(&self) -> (usize, usize) {
        let g = self.inner.lock();
        let runs = g.all_runs().filter(|run| run.slots() > 1).count();
        (runs, g.first.len() + g.all_runs().count() - runs)
    }
}

#[cfg(test)]
mod tests {
    use super::{nth_clear, Inner};
    use harbor_common::{PageId, RecordId, TableId};

    /// A placed page heard as a run builds the very `Inner` — runs, open
    /// run, buckets, later versions, hints — that one `insert` a version
    /// builds: for loads in key order with history side by side, pages begun
    /// mid-way, keys out of order, keys again in a later page, a run past the
    /// mask's 64 slots, and removals in between.
    #[test]
    fn a_run_builds_what_per_key_inserts_build() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for case in 0..400 {
            let (mut per_key, mut by_run) = (Inner::default(), Inner::default());
            let (mut key, mut page, mut slot) = (next(50) as i64, 1u32, 0u16);
            let mut said: Vec<(i64, RecordId)> = Vec::new();
            // Half the cases load in order, so runs reach the mask's end.
            let (per_page, jumps) = (2 + next(120) as u16, case % 2 == 0);
            for _ in 0..next(40) + 1 {
                let mut run = Vec::new();
                for _ in 0..next(per_page as u64) + 1 {
                    key += match next(16) {
                        0..=10 => 1,
                        11..=13 => 0,
                        14 if jumps => -(next(30) as i64),
                        15 if jumps => next(1000) as i64,
                        _ => 1,
                    };
                    if slot == per_page || next(40) == 0 {
                        (page, slot) = (page + 1, next(3) as u16);
                    }
                    let rid = RecordId::new(PageId::new(TableId(1), page), slot);
                    slot += 1;
                    run.push((key, rid));
                }
                run.iter().for_each(|&(k, rid)| per_key.insert(k, rid));
                by_run.insert_run(run.iter().copied());
                said.extend(run);
                if next(4) == 0 {
                    let (k, rid) = said[next(said.len() as u64) as usize];
                    per_key.remove(k, rid);
                    by_run.remove(k, rid);
                }
                assert_eq!(by_run, per_key, "case {case}");
            }
        }
    }

    #[test]
    fn nth_clear_counts_clear_bits_from_the_bottom() {
        for mask in [
            0u64,
            0b10,
            0b1010_0110,
            u64::MAX << 1,
            0x5555_5555_5555_5554,
            1 << 63,
        ] {
            let clear: Vec<u64> = (0..128)
                .filter(|&i| i >= 64 || mask >> i & 1 == 0)
                .collect();
            for (n, want) in clear.iter().enumerate() {
                assert_eq!(nth_clear(mask, n as u64), *want, "mask {mask:#x} n {n}");
            }
        }
    }
}
