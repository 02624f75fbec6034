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

use harbor_common::{DbResult, PageId, RecordId, TableId};
use harbor_storage::table::ts_word;
use harbor_storage::BufferPool;
use parking_lot::Mutex;
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

/// The key → versions map. Nearly every key has one version, and that one
/// lives in the map itself, packed: nothing is allocated per key, a bucket is
/// 17 bytes, and the index is freed as one block. The versions after the
/// first of a key that an update gave more than one live in `more`, one
/// ordered map for the whole table keyed by `(key, registration number)`: a
/// key's later versions are one range in the order they came, and a second
/// version costs a slot in a B-tree node, not a map entry and a `Vec` of its
/// own.
#[derive(Default)]
struct Inner {
    built: bool,
    first: HashMap<i64, u64, BuildHasherDefault<KeyHasher>>,
    more: BTreeMap<(i64, u64), u64>,
    /// The last registration number handed out.
    registered: u64,
}

impl Inner {
    fn versions(&self, table: TableId, key: i64) -> Vec<RecordId> {
        let Some(&word) = self.first.get(&key) else {
            return Vec::new();
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
        let word = self.first.entry(key).or_insert(at);
        let said = *word & !HAS_MORE == at
            || (*word & HAS_MORE != 0 && self.more.range(later(key)).any(|(_, v)| *v == at));
        if !said {
            *word |= HAS_MORE;
            self.registered += 1;
            self.more.insert((key, self.registered), at);
        }
    }

    fn remove(&mut self, key: i64, rid: RecordId) {
        let Some(&word) = self.first.get(&key) else {
            return;
        };
        let at = pack(rid);
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
    /// occupancy/bounds re-checks.
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
        self.inner.lock().first.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
