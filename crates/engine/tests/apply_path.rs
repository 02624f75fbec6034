//! The apply path against its specifications.
//!
//! * **Page at a time ≡ row at a time.** Whatever the
//!   [`RecoveredInserter`](harbor_engine::RecoveredInserter) does with runs
//!   of rows under one latch hold — tuples staged a page at a time or wire
//!   bytes, a flush, a cursor dropped mid-page with rows still staged, rows
//!   removed from the page the cursor still has pinned, a pool smaller than
//!   the table — ends in the state a reference written here from
//!   `Page::insert`, one row and one latch hold at a time, ends in: the same
//!   page images, segment bounds, index and deletion log.
//! * **`KeyIndex` ≡ a `BTreeMap<i64, Vec<RecordId>>`** under inserts,
//!   repeated inserts, removals and an invalidate-and-rebuild, with one to
//!   four versions a key; and `insert_run` ≡ one `insert` per version. The
//!   same map again when keys arrive in key and slot order, as runs, with
//!   a key's versions side by side, and leave them; and a load in key
//!   order, history and all, holds a run a page and nothing per key.
//! * **Holes.** A page that rows were removed from is filled around the rows
//!   still on it exactly as row at a time fills it, for plain and history
//!   loads, and a load heard a page at a time as index runs leaves the shape
//!   and the versions a per-key rebuild finds.

use harbor_common::codec::{Decoder, Encoder};
use harbor_common::config::PAGE_PAYLOAD;
use harbor_common::{
    DbError, FieldType, PageId, RecordId, SiteId, StorageConfig, TableId, Timestamp, Tuple, Value,
};
use harbor_engine::{Engine, EngineOptions, KeyIndex, KEY_OFFSET};
use harbor_storage::{slots_per_page, SegmentMeta};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wide rows, 17 to a page: a few hundred of them outgrow the pool.
const PAD: u16 = 200;
const POOL_PAGES: usize = 4;

fn engine(tag: &str) -> (Arc<Engine>, TableId, std::path::PathBuf) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("harbor-apply-path").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageConfig {
        buffer_pool_pages: POOL_PAGES,
        ..StorageConfig::for_tests()
    };
    let e = Engine::open(&dir, EngineOptions::harbor(SiteId(0), storage)).unwrap();
    let fields = vec![
        ("id".into(), FieldType::Int64),
        ("v".into(), FieldType::Int32),
        ("pad".into(), FieldType::FixedStr(PAD)),
    ];
    let table = e.create_table("t", fields).unwrap().id;
    (e, table, dir)
}

/// `(key, insertion time, deletion time or 0, payload)`.
type Row = (i64, u64, u64, i32);

fn tuple((key, ins, del, v): Row) -> Tuple {
    let user = vec![
        Value::Int64(key),
        Value::Int32(v),
        Value::Str(format!("{v:x}")),
    ];
    Tuple::versioned(Timestamp(ins), Timestamp(del), user)
}

#[derive(Clone, Debug)]
enum Op {
    /// A run of rows in hand: as tuples, one call each, or as one scan
    /// reply's wire bytes.
    Rows { rows: Vec<Row>, wire: bool },
    /// The staged tuples are placed.
    Flush,
    /// The cursor goes, wherever on its page it stands and whatever it has
    /// staged.
    DropCursor,
    /// `remove_physical` of the `n`-th version (modulo) of `key`: the
    /// buddy-lost undo, often on the page the cursor holds. By key, because
    /// a staged row has no record id until it is placed.
    Remove { key: i64, n: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Runs are as likely as everything else together.
    let rows = || {
        let row = (0i64..8, 1u64..=6, 0u64..=6, any::<i32>());
        (proptest::collection::vec(row, 1..60), any::<bool>())
            .prop_map(|(rows, wire)| Op::Rows { rows, wire })
    };
    let remove = || (0i64..8, 0usize..1000).prop_map(|(key, n)| Op::Remove { key, n });
    let op = prop_oneof![
        rows(),
        rows(),
        rows(),
        rows(),
        Just(Op::Flush),
        Just(Op::DropCursor),
        remove(),
        remove()
    ];
    proptest::collection::vec(op, 1..14)
}

/// The reference cursor: the parent commit's row-at-a-time path, spelled out
/// over the pool's public per-page calls. Tuples wait in `staged` and are
/// written when the inserter's stage is placed: a page's worth at a time, on
/// a flush, before wire rows and when the cursor goes.
struct RowAtATime {
    current: Option<harbor_common::PageId>,
    staged: Vec<Row>,
    page_of_rows: usize,
}

impl RowAtATime {
    fn new(e: &Engine, table: TableId) -> Self {
        let width = e.pool().table(table).unwrap().tuple_size();
        RowAtATime {
            current: None,
            staged: Vec::new(),
            page_of_rows: slots_per_page(width),
        }
    }

    fn stage(&mut self, e: &Engine, table: TableId, row: Row) {
        self.staged.push(row);
        if self.staged.len() == self.page_of_rows {
            self.flush(e, table);
        }
    }

    fn flush(&mut self, e: &Engine, table: TableId) {
        for row in std::mem::take(&mut self.staged) {
            self.insert(e, table, row);
        }
    }

    fn insert(&mut self, e: &Engine, table: TableId, row: Row) -> RecordId {
        let heap = e.pool().table(table).unwrap();
        let mut bytes = vec![0u8; heap.tuple_size()];
        tuple(row).write_fixed(heap.desc(), &mut bytes).unwrap();
        let rid = loop {
            if let Some(pid) = self.current {
                match e.pool().with_page_mut(None, pid, |p| p.insert(&bytes)) {
                    Ok(slot) => break RecordId::new(pid, slot),
                    Err(DbError::Full(_)) => heap.note_page_full(pid.page_no),
                    Err(e) => panic!("{e}"),
                }
            }
            let pid = heap.grow().unwrap();
            e.pool().create_page(pid).unwrap();
            self.current = Some(pid);
        };
        let (_, ins, del, _) = row;
        heap.note_insert_commit(rid.page.page_no, Timestamp(ins));
        if del != 0 {
            heap.note_delete(rid.page.page_no, Timestamp(del));
            e.deletion_log(table).unwrap().note(rid, Timestamp(del));
        }
        e.index(table).unwrap().insert(row.0, rid);
        rid
    }
}

/// Everything the two engines must agree on.
#[derive(Debug, PartialEq)]
struct State {
    pages: Vec<(u32, Vec<u8>)>,
    segments: Vec<SegmentMeta>,
    index: Vec<Vec<RecordId>>,
    deletions: Vec<(RecordId, Timestamp)>,
}

fn state(e: &Engine, table: TableId, keys: std::ops::Range<i64>) -> State {
    let heap = e.pool().table(table).unwrap();
    let pages = heap
        .all_page_ids()
        .into_iter()
        .map(|pid| {
            // The trailer is the file layer's: stamped when a frame is
            // flushed, which the two pools do at different moments.
            let image = |p: &harbor_storage::Page| Ok(p.as_bytes()[..PAGE_PAYLOAD].to_vec());
            (pid.page_no, e.pool().with_page(None, pid, image).unwrap())
        })
        .collect();
    let index = e.index(table).unwrap();
    let dlog = e.deletion_log(table).unwrap();
    State {
        pages,
        segments: heap.segments(),
        index: keys
            .map(|key| index.lookup(e.pool(), key).unwrap())
            .collect(),
        deletions: dlog.deleted_after(e.pool(), Timestamp::ZERO).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn page_at_a_time_matches_row_at_a_time(ops in ops()) {
        let (new, table, new_dir) = engine("new");
        let (old, old_table, old_dir) = engine("old");
        prop_assert_eq!(table, old_table);
        let mut cursor = None;
        let mut reference = RowAtATime::new(&old, table);
        let versions = |e: &Engine| -> Vec<Vec<RecordId>> {
            let index = e.index(table).unwrap();
            (0..8).map(|key| index.lookup(e.pool(), key).unwrap()).collect()
        };
        for op in ops {
            match op {
                Op::Rows { rows, wire } => {
                    let cursor = cursor.get_or_insert_with(|| new.recovered_inserter(table).unwrap());
                    if wire {
                        let mut enc = Encoder::new();
                        rows.iter().for_each(|r| tuple(*r).write_wire(&mut enc));
                        let mut reply = Decoder::new(enc.as_slice());
                        let mut placed = Vec::new();
                        cursor.insert_wire(rows.len(), &mut reply, |rid| placed.push(rid)).unwrap();
                        reply.finish().unwrap();
                        reference.flush(&old, table);
                        let want: Vec<RecordId> =
                            rows.iter().map(|r| reference.insert(&old, table, *r)).collect();
                        prop_assert_eq!(placed, want);
                    } else {
                        for row in rows {
                            cursor.insert(&tuple(row)).unwrap();
                            reference.stage(&old, table, row);
                        }
                    }
                    // One page is pinned at most, however full the pool.
                    prop_assert!(new.pool().pinned_frames() <= 1);
                }
                Op::Flush => {
                    if let Some(cursor) = &mut cursor {
                        cursor.flush().unwrap();
                    }
                    reference.flush(&old, table);
                }
                Op::DropCursor => {
                    cursor = None;
                    reference.flush(&old, table);
                    reference.current = None;
                    prop_assert_eq!(new.pool().pinned_frames(), 0);
                }
                Op::Remove { key, n } => {
                    let index = new.index(table).unwrap();
                    let placed = index.lookup(new.pool(), key).unwrap();
                    if !placed.is_empty() {
                        let rid = placed[n % placed.len()];
                        new.remove_physical(rid).unwrap();
                        old.remove_physical(rid).unwrap();
                    }
                }
            }
            // What is placed, and where, agrees at every step.
            prop_assert_eq!(versions(&new), versions(&old));
        }
        drop(cursor);
        reference.flush(&old, table);
        prop_assert_eq!(new.pool().pinned_frames(), 0);
        prop_assert_eq!(state(&new, table, -1..9), state(&old, table, -1..9));
        // And what reached the disk is what is in memory: a cold index
        // rebuilt from the pages finds the same versions.
        new.pool().flush_all().unwrap();
        let index = new.index(table).unwrap();
        let warm: Vec<_> = (0..8).map(|k| index.lookup(new.pool(), k).unwrap()).collect();
        index.rebuild(new.pool()).unwrap();
        for (key, mut was) in (0..8).zip(warm) {
            was.sort();
            prop_assert_eq!(index.lookup(new.pool(), key).unwrap(), was);
        }
        drop((new, old));
        let _ = std::fs::remove_dir_all(new_dir);
        let _ = std::fs::remove_dir_all(old_dir);
    }

    /// `KeyIndex` against the map it replaced, version order included; a
    /// rebuild finds the same versions in page order.
    #[test]
    fn key_index_matches_a_map_of_vecs(
        steps in proptest::collection::vec((0u8..8, 0i64..40, any::<u16>()), 1..400),
    ) {
        let (e, table, dir) = engine("index");
        let heap = e.pool().table(table).unwrap();
        let index = e.index(table).unwrap();
        let mut model: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
        for (what, key, pick) in steps {
            let versions = model.get(&key).map_or(0, Vec::len);
            match what {
                // A new version, while the key has fewer than four.
                0..=3 if versions < 4 => {
                    let mut bytes = vec![0u8; heap.tuple_size()];
                    tuple((key, 1, 0, pick as i32)).write_fixed(heap.desc(), &mut bytes).unwrap();
                    let rid = e.pool().insert_tuple_bytes(None, table, &bytes).unwrap();
                    index.insert(key, rid);
                    model.entry(key).or_default().push(rid);
                }
                // A version said twice is one version.
                4 if versions > 0 => index.insert(key, model[&key][pick as usize % versions]),
                5 | 6 if versions > 0 => {
                    let rid = model.get_mut(&key).unwrap().remove(pick as usize % versions);
                    e.pool().remove_tuple(None, rid).unwrap();
                    index.remove(key, rid);
                    // Nor does removing what is not there remove anything.
                    index.remove(key, rid);
                    if versions == 1 {
                        model.remove(&key);
                    }
                }
                7 => {
                    index.invalidate();
                    prop_assert!(!index.is_built());
                    index.rebuild(e.pool()).unwrap();
                    model.values_mut().for_each(|v| v.sort());
                }
                _ => {}
            }
            prop_assert_eq!(index.len(), model.len());
            for key in -1..41 {
                let want = model.get(&key).cloned().unwrap_or_default();
                prop_assert_eq!(index.lookup(e.pool(), key).unwrap(), want, "key {}", key);
            }
        }
        drop((e, heap, index));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `insert_run` is `insert` a version at a time under one lock: the same
    /// registrations, repeats included, cut into runs anywhere, leave the
    /// same versions in the same order.
    #[test]
    fn insert_run_matches_insert_per_version(
        regs in proptest::collection::vec((0i64..12, 1u32..5, 0u16..6), 1..200),
        cuts in proptest::collection::vec(1usize..16, 1..40),
    ) {
        let (e, table, dir) = engine("run");
        let regs: Vec<(i64, RecordId)> = regs
            .into_iter()
            .map(|(key, page, slot)| (key, RecordId::new(PageId::new(table, page), slot)))
            .collect();
        let (per_version, by_runs) = (KeyIndex::fresh(table, KEY_OFFSET), KeyIndex::fresh(table, KEY_OFFSET));
        regs.iter().for_each(|&(key, rid)| per_version.insert(key, rid));
        let mut rest = &regs[..];
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (run, after) = rest.split_at((*cut).min(rest.len()));
            by_runs.insert_run(run.iter().copied());
            rest = after;
        }
        prop_assert_eq!(by_runs.len(), per_version.len());
        for key in 0..12 {
            let want = per_version.lookup(e.pool(), key).unwrap();
            prop_assert_eq!(by_runs.lookup(e.pool(), key).unwrap(), want, "key {}", key);
        }
        drop(e);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What a loader does next, as the key index sees it.
#[derive(Clone, Debug)]
enum Load {
    /// Rows for the next `n` keys after the last one, as one run.
    Next(usize),
    /// A row for the key `back` below the last one: a second version while
    /// the index holds that key, a jump back when it does not.
    Back(i64),
    /// A row for the last key again, into the next slot: its history side by
    /// side (at the open run's tail), or a version elsewhere after a page
    /// turn.
    Again,
    /// A row for a key far from the others: the next key skips a slot.
    Stranger,
    /// A new cursor: the next row starts a page.
    TurnPage,
    /// A version said again: the `n`-th (modulo) of all registrations.
    Repeat(usize),
    /// `remove_physical` of version `n` (modulo) of key `pick` (modulo).
    Remove {
        pick: usize,
        n: usize,
    },
    Rebuild,
}

fn loads() -> impl Strategy<Value = Vec<Load>> {
    // Mostly the next key in the next slot.
    let next = || (1usize..=8).prop_map(Load::Next);
    let load = prop_oneof![
        next(),
        next(),
        next(),
        next(),
        next(),
        next(),
        (1i64..20).prop_map(Load::Back),
        (1i64..3).prop_map(Load::Back),
        Just(Load::Again),
        Just(Load::Again),
        Just(Load::Stranger),
        Just(Load::TurnPage),
        any::<usize>().prop_map(Load::Repeat),
        (any::<usize>(), any::<usize>()).prop_map(|(pick, n)| Load::Remove { pick, n }),
        (any::<usize>(), any::<usize>()).prop_map(|(pick, n)| Load::Remove { pick, n }),
        Just(Load::Rebuild),
    ];
    proptest::collection::vec(load, 1..120)
}

/// Places `keys` as one wire run through `cursor`, returning where each went.
fn place(cursor: &mut harbor_engine::RecoveredInserter, keys: &[i64]) -> Vec<RecordId> {
    let mut enc = Encoder::new();
    keys.iter()
        .for_each(|&key| tuple((key, 1, 0, key as i32)).write_wire(&mut enc));
    let mut reply = Decoder::new(enc.as_slice());
    let mut placed = Vec::new();
    cursor
        .insert_wire(keys.len(), &mut reply, |rid| placed.push(rid))
        .unwrap();
    placed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `KeyIndex` against a map of vecs when keys arrive the way a load
    /// brings them — in key and slot order, so that they form runs — and
    /// then leave them: versions side by side at the open run's tail, second
    /// versions elsewhere and in the middle of a closed run (a key leaving
    /// with all of its run versions), removals of either version of a run
    /// key and of first versions with later ones behind them, repeats, page
    /// turns, skipped slots, jumps back and rebuilds.
    #[test]
    fn key_index_with_runs_matches_a_map_of_vecs(loads in loads()) {
        let (e, table, dir) = engine("runs");
        let index = e.index(table).unwrap();
        let mut cursor = e.recovered_inserter(table).unwrap();
        let mut model: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
        let (mut last, mut strangers) = (0i64, 0i64);
        for load in loads {
            let keys: Vec<i64> = match load {
                Load::Next(n) => {
                    last += n as i64;
                    (last + 1 - n as i64..=last).collect()
                }
                Load::Back(back) => vec![last - back],
                Load::Again => vec![last],
                Load::Stranger => {
                    strangers += 1;
                    vec![1_000_000 * strangers]
                }
                Load::TurnPage => {
                    cursor = e.recovered_inserter(table).unwrap();
                    vec![]
                }
                Load::Repeat(n) => {
                    let said: Vec<(i64, RecordId)> = model
                        .iter()
                        .flat_map(|(k, v)| v.iter().map(move |rid| (*k, *rid)))
                        .collect();
                    if !said.is_empty() {
                        let (key, rid) = said[n % said.len()];
                        index.insert(key, rid);
                    }
                    vec![]
                }
                Load::Remove { pick, n } => {
                    if !model.is_empty() {
                        let key = *model.keys().nth(pick % model.len()).unwrap();
                        let versions = model.get_mut(&key).unwrap();
                        let rid = versions.remove(n % versions.len());
                        if versions.is_empty() {
                            model.remove(&key);
                        }
                        e.remove_physical(rid).unwrap();
                        // Removing what is not there removes nothing.
                        index.remove(key, rid);
                    }
                    vec![]
                }
                Load::Rebuild => {
                    index.invalidate();
                    index.rebuild(e.pool()).unwrap();
                    model.values_mut().for_each(|v| v.sort());
                    vec![]
                }
            };
            for (key, rid) in keys.iter().zip(place(&mut cursor, &keys)) {
                model.entry(*key).or_default().push(rid);
            }
            prop_assert_eq!(index.len(), model.len());
            let probes = model.keys().copied().chain([-1, last + 1, last + 2]);
            for key in probes {
                let want = model.get(&key).cloned().unwrap_or_default();
                prop_assert_eq!(index.lookup(e.pool(), key).unwrap(), want, "key {}", key);
            }
        }
        drop((cursor, index, e));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The same map when the test chooses every place, so the next key may
    /// land in a slot the index has seen before — which a load's cursor
    /// never does and a transactional insert into a freed slot may: keys in
    /// order into the next slots, the last key again side by side, keys at
    /// or below the last one, the cursor stepping back, page turns, repeats
    /// and removals.
    #[test]
    fn key_index_with_runs_at_any_place_matches_a_map_of_vecs(
        steps in proptest::collection::vec((0u8..12, 0u8..8, any::<usize>()), 1..300),
    ) {
        let (e, table, dir) = engine("places");
        let index = KeyIndex::fresh(table, KEY_OFFSET);
        let mut model: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
        let (mut last, mut page, mut slot) = (0i64, 0u32, 0u16);
        for (what, n, pick) in steps {
            let mut said = Vec::new();
            let mut next_place = || {
                slot += 1;
                RecordId::new(PageId::new(table, page), slot - 1)
            };
            match what {
                // The next keys into the next slots, as one run.
                0..=3 => {
                    for _ in 0..=n {
                        last += 1;
                        said.push((last, next_place()));
                    }
                    index.insert_run(said.iter().copied());
                }
                // A key at or below the last one into the next slot.
                4 | 5 => {
                    said.push((last - n as i64, next_place()));
                    index.insert(said[0].0, said[0].1);
                }
                // The last key again, `n` times, side by side.
                10 | 11 => {
                    for _ in 0..=n {
                        said.push((last, next_place()));
                    }
                    index.insert_run(said.iter().copied());
                }
                6 => slot = slot.saturating_sub(n as u16 + 1),
                7 => (page, slot) = (page + 1, 0),
                // A version said again, or removed.
                8 | 9 => {
                    let versions: Vec<(i64, RecordId)> = model
                        .iter()
                        .flat_map(|(k, v)| v.iter().map(move |rid| (*k, *rid)))
                        .collect();
                    if !versions.is_empty() {
                        let (key, rid) = versions[pick % versions.len()];
                        if what == 8 {
                            index.insert(key, rid);
                        } else {
                            index.remove(key, rid);
                            let left = model.get_mut(&key).unwrap();
                            left.retain(|v| *v != rid);
                            if left.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                }
                _ => unreachable!(),
            }
            for (key, rid) in said {
                let versions = model.entry(key).or_default();
                if !versions.contains(&rid) {
                    versions.push(rid);
                }
            }
            prop_assert_eq!(index.len(), model.len());
            for key in model.keys().copied().chain([last + 1]) {
                let want = model.get(&key).cloned().unwrap_or_default();
                prop_assert_eq!(index.lookup(e.pool(), key).unwrap(), want, "key {}", key);
            }
        }
        drop((index, e));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Loads `keys` in order through a cursor, as a bulk load does, into a
/// table of their own; returns the engine and the table.
fn loaded(
    tag: &str,
    keys: impl Iterator<Item = i64>,
) -> (Arc<Engine>, TableId, std::path::PathBuf) {
    let (e, table, dir) = engine(tag);
    let mut cursor = e.recovered_inserter(table).unwrap();
    for key in keys {
        cursor.insert(&tuple((key, 1, 0, key as i32))).unwrap();
    }
    cursor.flush().unwrap();
    (e, table, dir)
}

/// Keys loaded in order are a run a page and nothing per key; an update
/// takes exactly one key out of its run, in the middle of a page or at the
/// tail of the last; keys loaded out of order form no run at all.
#[test]
fn a_load_in_key_order_is_a_run_a_page() {
    const KEYS: i64 = 10_000;
    let (e, table, dir) = loaded("footprint", 0..KEYS);
    let per_page = slots_per_page(e.pool().table(table).unwrap().tuple_size());
    // The last page holds more than one key: it is a run too.
    assert!(KEYS as usize % per_page != 1);
    let pages = (KEYS as usize).div_ceil(per_page);
    let index = e.index(table).unwrap();
    assert_eq!(index.shape(), (pages, 0));
    assert_eq!(index.len(), KEYS as usize);
    let heap_pages = e.pool().table(table).unwrap().all_page_ids();
    let rid = |key: i64| {
        let (page, slot) = (key as usize / per_page, key as usize % per_page);
        RecordId::new(heap_pages[page], slot as u16)
    };

    // A second version of a key in the middle of a page's run.
    let key = (KEYS / 2 / per_page as i64) * per_page as i64 + per_page as i64 / 2;
    let mut cursor = e.recovered_inserter(table).unwrap();
    cursor.insert(&tuple((key, 2, 0, 0))).unwrap();
    cursor.flush().unwrap();
    assert_eq!(index.shape(), (pages + 1, 1));
    assert_eq!(index.len(), KEYS as usize);
    let versions = index.lookup(e.pool(), key).unwrap();
    assert_eq!(versions.len(), 2);
    assert_eq!(versions[0], rid(key));
    // And of the last key loaded, the tail of the run still open.
    let tail = KEYS - 1;
    cursor.insert(&tuple((tail, 2, 0, 0))).unwrap();
    cursor.flush().unwrap();
    drop(cursor);
    assert_eq!(index.shape(), (pages + 1, 2));
    let tail_versions = index.lookup(e.pool(), tail).unwrap();
    assert_eq!(tail_versions.len(), 2);
    assert_eq!(tail_versions[0], rid(tail));
    // Every other key keeps its place.
    for k in (0..KEYS).filter(|k| ![key, tail].contains(k)) {
        assert_eq!(index.lookup(e.pool(), k).unwrap(), vec![rid(k)], "key {k}");
    }
    // A rebuild walks the pages in order: the same runs and the same keys.
    index.rebuild(e.pool()).unwrap();
    assert_eq!(index.shape(), (pages + 1, 2));
    assert_eq!(index.lookup(e.pool(), key).unwrap(), versions);
    assert_eq!(index.lookup(e.pool(), tail).unwrap(), tail_versions);
    drop((index, e));
    let _ = std::fs::remove_dir_all(dir);

    // A permutation that never puts key k + 1 right after key k.
    let (e, table, dir) = loaded("scattered", (0..KEYS).map(|i| i * 7_919 % 10_007));
    let index = e.index(table).unwrap();
    assert_eq!(index.shape(), (0, KEYS as usize));
    assert_eq!(index.len(), KEYS as usize);
    drop((index, e));
    let _ = std::fs::remove_dir_all(dir);
}

/// A load of history — every fourth key's superseded version beside its
/// successor — is a run a page too, a key on its own only where a pair
/// straddles two pages; every key's versions come back in slot order; an
/// update takes exactly one key out; a rebuild finds the same shape.
#[test]
fn a_history_load_is_a_run_a_page() {
    const KEYS: i64 = 10_000;
    let history = (0..KEYS).flat_map(|k| std::iter::repeat_n(k, if k % 4 == 0 { 2 } else { 1 }));
    let slots: Vec<i64> = history.clone().collect();
    let (e, table, dir) = loaded("history", history);
    let per_page = slots_per_page(e.pool().table(table).unwrap().tuple_size());
    let heap_pages = e.pool().table(table).unwrap().all_page_ids();
    let pages = slots.len().div_ceil(per_page);
    assert_eq!(heap_pages.len(), pages);
    let rid = |i: usize| RecordId::new(heap_pages[i / per_page], (i % per_page) as u16);
    let mut want: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
    for (i, key) in slots.iter().enumerate() {
        want.entry(*key).or_default().push(rid(i));
    }
    let straddles = (1..slots.len())
        .filter(|&i| i % per_page == 0 && slots[i] == slots[i - 1])
        .count();
    assert!(straddles > 0);
    let index = e.index(table).unwrap();
    let all_in_place = |index: &KeyIndex, want: &BTreeMap<i64, Vec<RecordId>>| {
        for (key, versions) in want {
            assert_eq!(
                &index.lookup(e.pool(), *key).unwrap(),
                versions,
                "key {key}"
            );
        }
        assert_eq!(index.len(), KEYS as usize);
    };
    assert_eq!(index.shape(), (pages, straddles));
    all_in_place(&index, &want);

    // A third version of a pair in the middle of a page's run.
    let i = (pages / 2) * per_page + per_page / 2;
    let i = (i..)
        .find(|&i| slots[i] % 4 == 0 && slots[i + 1] == slots[i])
        .unwrap();
    assert!(i % per_page + 2 < per_page);
    let key = slots[i];
    let mut cursor = e.recovered_inserter(table).unwrap();
    cursor.insert(&tuple((key, 2, 0, 0))).unwrap();
    cursor.flush().unwrap();
    drop(cursor);
    let moved = index.lookup(e.pool(), key).unwrap();
    assert_eq!(moved.len(), 3);
    assert_eq!(moved[..2], [rid(i), rid(i + 1)]);
    assert!(!heap_pages.contains(&moved[2].page));
    *want.get_mut(&key).unwrap() = moved;
    assert_eq!(index.shape(), (pages + 1, straddles + 1));
    all_in_place(&index, &want);
    // A rebuild walks the pages in order: the same runs and the same keys.
    index.rebuild(e.pool()).unwrap();
    assert_eq!(index.shape(), (pages + 1, straddles + 1));
    all_in_place(&index, &want);
    drop((index, e));
    let _ = std::fs::remove_dir_all(dir);
}

/// A run's repeat mask covers its first 64 slots. On a table of more than
/// 64 slots a page: a key again at slot 63 stays in its run, a key again at
/// slot 64 leaves it with both of its versions, a key on its own and then
/// again starts a run, and new keys extend a run past slot 64.
#[test]
fn a_repeat_past_the_masks_64_slots_takes_the_key_out() {
    let (e, _, dir) = engine("narrow");
    let table = e
        .create_table("narrow", vec![("id".into(), FieldType::Int64)])
        .unwrap()
        .id;
    assert!(slots_per_page(e.pool().table(table).unwrap().tuple_size()) > 70);
    let load = |keys: &[i64]| {
        // A cursor of its own: a page of its own.
        let mut cursor = e.recovered_inserter(table).unwrap();
        for key in keys {
            let row = Tuple::versioned(Timestamp(1), Timestamp::ZERO, vec![Value::Int64(*key)]);
            cursor.insert(&row).unwrap();
        }
        cursor.flush().unwrap();
    };
    // Keys 0..=30 twice fill slots 0..=61 (30's again at 61); 31 at 62; 32
    // at 63 and again at 64; 33 at 65 and again at 66.
    let pairs: Vec<i64> = (0..31).flat_map(|k| [k, k]).collect();
    load(&[&pairs[..], &[31, 32, 32, 33, 33]].concat());
    // Keys 100..170 on one page: 70 slots.
    load(&(100..170).collect::<Vec<_>>());
    let pages = e.pool().table(table).unwrap().all_page_ids();
    let at = |page: usize, slots: &[u16]| -> Vec<RecordId> {
        slots
            .iter()
            .map(|s| RecordId::new(pages[page], *s))
            .collect()
    };
    let mut want: Vec<(i64, Vec<RecordId>)> = (0..31)
        .map(|k| (k, at(0, &[2 * k as u16, 2 * k as u16 + 1])))
        .collect();
    want.extend([
        (31, at(0, &[62])),
        (32, at(0, &[63, 64])),
        (33, at(0, &[65, 66])),
    ]);
    want.extend((100..170).map(|k| (k, at(1, &[k as u16 - 100]))));
    let index = e.index(table).unwrap();
    for built in [false, true] {
        if built {
            index.rebuild(e.pool()).unwrap();
        }
        // The runs of keys 0..=31, of 33's pair and of 100..170; 32 on its
        // own.
        assert_eq!(index.shape(), (3, 1), "rebuilt: {built}");
        assert_eq!(index.len(), want.len());
        for (key, versions) in &want {
            assert_eq!(
                &index.lookup(e.pool(), *key).unwrap(),
                versions,
                "key {key}"
            );
        }
    }
    drop((index, e));
    let _ = std::fs::remove_dir_all(dir);
}

/// A key that came on its own starts a run with the next key in the next
/// slot only while it still has that one version: not once an update gave
/// it a second, nor once its version was removed.
#[test]
fn a_key_that_changed_since_it_came_starts_no_run() {
    let (e, table, dir) = engine("changed");
    let index = KeyIndex::fresh(table, KEY_OFFSET);
    let rid = |slot| RecordId::new(PageId::new(table, 1), slot);
    index.insert(10, rid(0));
    index.insert(10, rid(5));
    index.insert(11, rid(1));
    assert_eq!(index.lookup(e.pool(), 10).unwrap(), vec![rid(0), rid(5)]);
    assert_eq!(index.lookup(e.pool(), 11).unwrap(), vec![rid(1)]);
    index.insert(20, rid(8));
    index.remove(20, rid(8));
    index.insert(21, rid(9));
    assert!(index.lookup(e.pool(), 20).unwrap().is_empty());
    assert_eq!(index.lookup(e.pool(), 21).unwrap(), vec![rid(9)]);
    assert_eq!(index.shape(), (0, 3));
    // And one that did not change does.
    index.insert(22, rid(10));
    assert_eq!(index.shape(), (1, 2));
    assert_eq!(index.lookup(e.pool(), 22).unwrap(), vec![rid(10)]);
    drop((index, e));
    let _ = std::fs::remove_dir_all(dir);
}

/// A row that may not be recovered — no committed insertion time — ends a
/// run where it stands: the rows before it are placed, indexed and reported,
/// its own slot stays free, and nothing after it is read.
#[test]
fn a_refused_row_ends_the_run_with_the_rows_before_it_in_place() {
    let (e, table, dir) = engine("refused");
    let rows = [
        (1, 3, 0, 10),
        (2, 3, 5, 20),
        (3, u64::MAX, 0, 30),
        (4, 3, 0, 40),
    ];
    let mut enc = Encoder::new();
    rows.iter().for_each(|r| tuple(*r).write_wire(&mut enc));
    let mut reply = Decoder::new(enc.as_slice());
    let mut placed = Vec::new();
    let mut cursor = e.recovered_inserter(table).unwrap();
    let refused = cursor.insert_wire(rows.len(), &mut reply, |rid| placed.push(rid));
    assert!(refused.is_err());
    assert_eq!(placed.len(), 2);
    let index = e.index(table).unwrap();
    for (key, want) in [
        (1, vec![placed[0]]),
        (2, vec![placed[1]]),
        (3, vec![]),
        (4, vec![]),
    ] {
        assert_eq!(index.lookup(e.pool(), key).unwrap(), want);
    }
    let used = |p: &harbor_storage::Page| Ok(p.used());
    assert_eq!(e.pool().with_page(None, placed[0].page, used).unwrap(), 2);
    assert_eq!(e.deletion_log(table).unwrap().len(), 1);
    // The next row takes the slot the refused one did not.
    cursor.insert(&tuple((4, 3, 0, 40))).unwrap();
    cursor.flush().unwrap();
    let next = RecordId::new(placed[0].page, 2);
    assert_eq!(index.lookup(e.pool(), 4).unwrap(), vec![next]);
    drop((cursor, index, e));
    let _ = std::fs::remove_dir_all(dir);
}

/// Rows for keys `keys`, every fourth key's superseded version (deleted at
/// the successor's insertion) side by side before it when `history`.
fn load_rows(keys: std::ops::Range<i64>, history: bool) -> Vec<Row> {
    keys.flat_map(|key| {
        let old = (history && key % 4 == 0).then_some((key, 2, 5 + key as u64 % 7, -1));
        old.into_iter().chain([(key, 3, 0, key as i32)])
    })
    .collect()
}

/// Rows removed by `remove_physical` from the page the cursor holds and
/// from the one before it leave holes; the next rows, as tuples and as wire
/// bytes, fill them around the rows still there, then run on into new pages
/// — in the very state row at a time reaches: page images, segment bounds,
/// index and deletion log. For a plain load and a load of history.
#[test]
fn a_page_with_holes_is_filled_like_row_at_a_time() {
    for history in [false, true] {
        let (new, table, new_dir) = engine("holes-new");
        let (old, _, old_dir) = engine("holes-old");
        let per_page = slots_per_page(new.pool().table(table).unwrap().tuple_size());
        let mut cursor = new.recovered_inserter(table).unwrap();
        let mut reference = RowAtATime::new(&old, table);
        let first = load_rows(0..(per_page * 3 / 2) as i64, history);
        for row in &first {
            cursor.insert(&tuple(*row)).unwrap();
            reference.stage(&old, table, *row);
        }
        cursor.flush().unwrap();
        reference.flush(&old, table);
        // Holes: one alone, two side by side, the page's last row, and on
        // the page before.
        let pages = new.pool().table(table).unwrap().all_page_ids();
        let holes = [(1, 1), (1, 4), (1, 5), (0, 0), (0, per_page - 1), (0, 7)];
        for (page, slot) in holes {
            let rid = RecordId::new(pages[page], slot as u16);
            if new.pool().read_tuple_bytes(None, rid).is_ok() {
                new.remove_physical(rid).unwrap();
                old.remove_physical(rid).unwrap();
            }
        }
        let next = first.last().unwrap().0 + 1;
        let staged = load_rows(next..next + 5, history);
        for row in &staged {
            cursor.insert(&tuple(*row)).unwrap();
            reference.stage(&old, table, *row);
        }
        let wired = load_rows(next + 5..next + 5 + per_page as i64, history);
        let mut enc = Encoder::new();
        wired.iter().for_each(|r| tuple(*r).write_wire(&mut enc));
        let mut reply = Decoder::new(enc.as_slice());
        let mut placed = Vec::new();
        cursor
            .insert_wire(wired.len(), &mut reply, |rid| placed.push(rid))
            .unwrap();
        reference.flush(&old, table);
        let want: Vec<RecordId> = wired
            .iter()
            .map(|r| reference.insert(&old, table, *r))
            .collect();
        assert_eq!(placed, want, "history: {history}");
        // The holes on the cursor's page took the first staged rows.
        let page_one = |rid: &RecordId| rid.page == pages[1];
        assert!(new
            .index(table)
            .unwrap()
            .lookup(new.pool(), next)
            .unwrap()
            .iter()
            .all(page_one));
        drop(cursor);
        let keys = -1..next + 5 + per_page as i64 + 1;
        assert_eq!(
            state(&new, table, keys.clone()),
            state(&old, table, keys),
            "history: {history}"
        );
        drop((new, old));
        let _ = std::fs::remove_dir_all(new_dir);
        let _ = std::fs::remove_dir_all(old_dir);
    }
}

/// A load heard a run at a time — wire replies of odd sizes, so a page's
/// keys arrive in pieces that extend the open run, and tuples a stage at a
/// time — leaves the index the shape and the versions that registering one
/// version at a time gives: the rebuild walks the same slots in the same
/// order, a version at a time.
#[test]
fn a_run_of_keys_indexes_as_per_key_insertion_does() {
    for history in [false, true] {
        let (e, table, dir) = engine("runs-vs-keys");
        let rows = load_rows(0..3_000, history);
        let mut cursor = e.recovered_inserter(table).unwrap();
        let (tuples, wired) = rows.split_at(rows.len() / 2);
        tuples
            .iter()
            .for_each(|r| cursor.insert(&tuple(*r)).unwrap());
        let mut rest = wired;
        for size in [1usize, 2, 3, 5, 8, 13, 21, 34].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (reply, after) = rest.split_at((*size).min(rest.len()));
            let mut enc = Encoder::new();
            reply.iter().for_each(|r| tuple(*r).write_wire(&mut enc));
            cursor
                .insert_wire(reply.len(), &mut Decoder::new(enc.as_slice()), |_| {})
                .unwrap();
            rest = after;
        }
        drop(cursor);
        let index = e.index(table).unwrap();
        let versions = |index: &KeyIndex| -> Vec<Vec<RecordId>> {
            (-1..3_001)
                .map(|k| index.lookup(e.pool(), k).unwrap())
                .collect()
        };
        let (shape, found) = (index.shape(), versions(&index));
        assert_eq!(index.len(), 3_000);
        index.rebuild(e.pool()).unwrap();
        assert_eq!(index.shape(), shape, "history: {history}");
        assert_eq!(versions(&index), found, "history: {history}");
        drop((index, e));
        let _ = std::fs::remove_dir_all(dir);
    }
}
