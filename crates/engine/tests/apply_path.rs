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
//!   four versions a key; and `insert_run` ≡ one `insert` per version.

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

fn state(e: &Engine, table: TableId) -> State {
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
        index: (-1..9)
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
        prop_assert_eq!(state(&new, table), state(&old, table));
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
