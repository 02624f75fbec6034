//! In-memory primary-key index: tuple id → record ids of all versions.
//!
//! The thesis assumes "an index exists on tuple id, which is usually the
//! primary key" (§5.3) and recovers indices "as a side effect of adding or
//! deleting tuples from the object during recovery" (§5.1). We keep the
//! index in memory, maintained by the engine's mutation paths, and rebuild
//! it lazily by a single sequential scan after a restart — recovery itself
//! never consults it (the recovery queries are written as batch scans), so
//! the rebuild cost never pollutes the recovery-time measurements.
//!
//! A key maps to *all* versions of the tuple (an update creates a second
//! tuple with the same id); readers filter by visibility.
//!
//! Tuple ids are the warehouse's surrogate keys: a load or a recovery
//! places them in key order into consecutive slots of a page. Keys that
//! arrived that way are held as a **run** — a start key, a length and the
//! first key's place, 24 bytes for a page of keys — and every other key in
//! a hash bucket of its own. A key in a run has exactly one version; a
//! second version or a removal takes it out, splitting the run. Which form
//! a key takes follows from how it arrived, so random keys cost what a
//! plain hash costs.

use harbor_common::{DbResult, PageId, RecordId, TableId};
use harbor_storage::table::ts_word;
use harbor_storage::BufferPool;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;

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
/// index's own).
fn pack(rid: RecordId) -> u64 {
    (rid.page.page_no as u64) << 16 | rid.slot as u64
}

fn unpack(table: TableId, at: u64) -> RecordId {
    RecordId::new(PageId::new(table, (at >> 16) as u32), at as u16)
}

/// Set in a key's first-version word while `more` holds later versions of
/// the key (a packed place never reaches bit 48): a key with one version is
/// looked up without a tree search.
const HAS_MORE: u64 = 1 << 63;

/// `key`'s entries in [`Inner::more`], oldest registration first.
fn later(key: i64) -> RangeInclusive<(i64, u64)> {
    (key, 0)..=(key, u64::MAX)
}

/// `len` consecutive keys from a start key, each with one version, in
/// consecutive slots of one page from `at`.
#[derive(Clone, Copy)]
struct Run {
    len: u32,
    at: u64,
}

impl Run {
    /// `key`'s place, if the run that starts at `start` holds it. (The
    /// offset wraps below `start` to more than any length: a run never
    /// reaches past `i64::MAX`.)
    fn place(self, start: i64, key: i64) -> Option<u64> {
        let off = key.wrapping_sub(start) as u64;
        (off < self.len as u64).then(|| self.at + off)
    }

    /// Whether `key` at `at` is the next key in the next slot of the page.
    fn extended_by(self, start: i64, key: i64, at: u64) -> bool {
        let next = self.at + self.len as u64;
        start.checked_add(self.len as i64) == Some(key) && at == next && at >> 16 == self.at >> 16
    }
}

/// The key → versions map. A key is in exactly one of three places: a run
/// in `runs`, the `open` run, or `first`.
///
/// `runs` holds the closed runs by start key; `hi` is at least the last key
/// of every one of them, so a key above it — the next key of a load — skips
/// the tree. `open` is the newest run, kept out of the tree so that the
/// next key extends it with `len += 1` (and an update of its last key
/// shortens it with `len -= 1`, down to one key).
///
/// `first` holds every other key's first version, packed: nothing is
/// allocated per key, a bucket is 17 bytes, and the index is freed as one
/// block. A key that extends nothing goes there and is remembered in
/// `last`; the next key in the next slot takes it out again — if it still
/// has that one version and no other — and the two are the open run. Keys
/// in no order therefore cost one hash insert each, as in a plain hash.
/// The versions after the first of a key that an update gave more than one
/// live in `more`, one ordered map for the whole table keyed by `(key,
/// registration number)`: a key's later versions are one range in the order
/// they came, and a second version costs a slot in a B-tree node, not a map
/// entry and a `Vec` of its own.
#[derive(Default)]
struct Inner {
    built: bool,
    runs: BTreeMap<i64, Run>,
    open: Option<(i64, Run)>,
    hi: Option<i64>,
    first: HashMap<i64, u64, BuildHasherDefault<KeyHasher>>,
    /// The key last put in `first` on its own, and its place (a hint: what
    /// `first` holds for it now is checked before a run is started from it).
    last: Option<(i64, u64)>,
    more: BTreeMap<(i64, u64), u64>,
    /// The last registration number handed out.
    registered: u64,
}

impl Inner {
    /// The run that holds `key`: its start, the run, and the key's place.
    fn run_of(&self, key: i64) -> Option<(i64, Run, u64)> {
        let holds = |(start, run): (i64, Run)| Some((start, run, run.place(start, key)?));
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
            return run.map_or_else(Vec::new, |(.., place)| vec![unpack(table, place)]);
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
        if let Some((start, run, place)) = self.run_of(key) {
            if place != at {
                // A second version: the key leaves its run.
                self.cut(start, run, key);
                self.add_later(key, place, at);
            }
            return;
        }
        if let Some((start, run)) = &mut self.open {
            if run.extended_by(*start, key, at) && !self.first.contains_key(&key) {
                run.len += 1;
                return;
            }
        }
        // The key before came on its own into the slot before, and is still
        // just that: the two are the open run now.
        let joins = self.last.filter(|&(prev, place)| {
            (Run { len: 1, at: place }).extended_by(prev, key, at)
                && self.first.get(&prev) == Some(&place)
        });
        match self.first.entry(key) {
            Entry::Occupied(first) => {
                let word = *first.get();
                let said = word & !HAS_MORE == at
                    || (word & HAS_MORE != 0 && self.more.range(later(key)).any(|(_, v)| *v == at));
                if !said {
                    self.add_later(key, word, at);
                }
            }
            Entry::Vacant(slot) => match joins {
                Some((prev, place)) => {
                    self.first.remove(&prev);
                    if let Some((start, run)) = self.open.replace((prev, Run { len: 2, at: place }))
                    {
                        self.close(start, run);
                    }
                }
                None => {
                    slot.insert(at);
                    self.last = Some((key, at));
                }
            },
        }
    }

    /// Files a run that no key will extend: a run of one is a hashed key.
    fn close(&mut self, start: i64, run: Run) {
        match run.len {
            0 => {}
            1 => {
                self.first.insert(start, run.at);
            }
            len => {
                let last = start + (len - 1) as i64;
                self.hi = Some(self.hi.map_or(last, |hi| hi.max(last)));
                self.runs.insert(start, run);
            }
        }
    }

    /// Takes `key` out of `run`, which starts at `start`. The keys before
    /// and after it stay runs of their own (a key on its own is hashed);
    /// of the open run, the piece with its tail stays open.
    fn cut(&mut self, start: i64, run: Run, key: i64) {
        let open = self.open.is_some_and(|(s, _)| s == start);
        if open {
            self.open = None;
        } else {
            self.runs.remove(&start);
        }
        let off = key.wrapping_sub(start) as u32;
        let before = Run {
            len: off,
            at: run.at,
        };
        let after = Run {
            len: run.len - off - 1,
            at: run.at + off as u64 + 1,
        };
        // `key` is not the last key there is while `after` holds one.
        let after_start = key.wrapping_add(1);
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

    /// Registers `at` as a later version of `key`, whose first is `first`.
    fn add_later(&mut self, key: i64, first: u64, at: u64) {
        self.first.insert(key, first | HAS_MORE);
        self.registered += 1;
        self.more.insert((key, self.registered), at);
    }

    fn remove(&mut self, key: i64, rid: RecordId) {
        let at = pack(rid);
        let Some(&word) = self.first.get(&key) else {
            if let Some((start, run, place)) = self.run_of(key) {
                if place == at {
                    self.cut(start, run, key);
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

    /// Every run, the open one included.
    fn all_runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.runs
            .values()
            .copied()
            .chain(self.open.map(|(_, run)| run))
    }
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
    /// under one lock: a placed page of rows is one index call.
    pub fn insert_run(&self, run: impl IntoIterator<Item = (i64, RecordId)>) {
        let mut g = self.inner.lock();
        if g.built {
            run.into_iter().for_each(|(key, rid)| g.insert(key, rid));
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
    /// keys that were loaded in order come back as runs.
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

    /// How the keys are held (tests): the runs of two keys or more, and the
    /// keys held on their own.
    pub fn shape(&self) -> (usize, usize) {
        let g = self.inner.lock();
        let runs = g.all_runs().filter(|run| run.len > 1).count();
        (runs, g.first.len() + g.all_runs().count() - runs)
    }
}
