//! `KeyIndex::range` ≡ the union of `KeyIndex::lookup` over its keys.
//!
//! Keys arrive through a load cursor, as a load and a recovery bring them:
//! in key order into consecutive slots, some with their versions side by
//! side, so they form runs. Then they leave them: a version of an older key
//! placed in the next slot cuts that key out of its run and hashes it with
//! a later version, a version is removed, a version is said again, the
//! cursor turns a page, and the index goes cold. After every step ranges
//! that start inside a closed run, inside the open run and across the
//! hashed keys are asked of the range lookup first (so a cold index is
//! built by it), and its stretches must hold exactly the versions that one
//! `lookup` a key finds, and that the model holds.

use harbor_common::codec::{Decoder, Encoder};
use harbor_common::{FieldType, RecordId, SiteId, StorageConfig, TableId, Timestamp, Tuple, Value};
use harbor_engine::{Engine, EngineOptions, KeyIndex, RecoveredInserter, Stretch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn engine(tag: &str) -> (Arc<Engine>, TableId, std::path::PathBuf) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("harbor-key-range").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let fields = vec![
        ("id".into(), FieldType::Int64),
        ("v".into(), FieldType::Int32),
    ];
    let table = e.create_table("t", fields).unwrap().id;
    (e, table, dir)
}

/// Places `keys` as one wire run through `cursor`, returning where each went.
fn place(cursor: &mut RecoveredInserter, keys: &[i64]) -> Vec<RecordId> {
    let mut enc = Encoder::new();
    for &key in keys {
        let user = vec![Value::Int64(key), Value::Int32(key as i32)];
        Tuple::versioned(Timestamp(1), Timestamp::ZERO, user).write_wire(&mut enc);
    }
    let mut reply = Decoder::new(enc.as_slice());
    let mut placed = Vec::new();
    cursor
        .insert_wire(keys.len(), &mut reply, |rid| placed.push(rid))
        .unwrap();
    placed
}

/// Every version a stretch covers, checking that stretches are non-empty,
/// in page and slot order, and apart.
fn expand(stretches: &[Stretch]) -> Vec<RecordId> {
    let mut out: Vec<RecordId> = Vec::new();
    for s in stretches {
        assert!(!s.slots.is_empty(), "an empty stretch: {stretches:?}");
        let first = RecordId::new(s.page, s.slots.start);
        assert!(out.last() < Some(&first), "out of order: {stretches:?}");
        out.extend(s.slots.clone().map(|slot| RecordId::new(s.page, slot)));
    }
    out
}

/// Asks `lo..=hi` of the range lookup, then of `lookup` key by key and of
/// the model; all three must agree. Every key ever placed is in `known`, so
/// the keys outside it are not looked up one by one.
fn agrees(
    e: &Engine,
    index: &KeyIndex,
    model: &BTreeMap<i64, Vec<RecordId>>,
    known: (i64, i64),
    (lo, hi): (i64, i64),
) -> Result<(), String> {
    let got = expand(&index.range(e.pool(), lo..=hi).unwrap());
    let mut union: Vec<RecordId> = (lo.max(known.0)..=hi.min(known.1))
        .flat_map(|key| index.lookup(e.pool(), key).unwrap())
        .collect();
    union.sort();
    prop_assert_eq!(&got, &union, "{}..={}", lo, hi);
    let mut want: Vec<RecordId> = model.range(lo..=hi).flat_map(|(_, v)| v.clone()).collect();
    want.sort();
    prop_assert_eq!(&got, &want, "{}..={} against the model", lo, hi);
    Ok(())
}

#[derive(Clone, Debug)]
enum Step {
    /// The next `n` keys in order; bit `i` of `twice` gives the `i`-th two
    /// versions side by side.
    Run { n: u8, twice: u8 },
    /// A version of the key `back` below the last into the next slot.
    Back(i64),
    /// The `n`-th (modulo) of all versions said again.
    Again(usize),
    /// Version `n` (modulo) of key `pick` (modulo) removed.
    Remove { pick: usize, n: usize },
    /// A new cursor: the next row starts a page.
    TurnPage,
    /// The index goes cold; the next range lookup builds it.
    Cold,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let run = || (1u8..=12, any::<u8>()).prop_map(|(n, twice)| Step::Run { n, twice });
    let step = prop_oneof![
        run(),
        run(),
        run(),
        run(),
        (1i64..40).prop_map(Step::Back),
        (0i64..3).prop_map(Step::Back),
        any::<usize>().prop_map(Step::Again),
        (any::<usize>(), any::<usize>()).prop_map(|(pick, n)| Step::Remove { pick, n }),
        Just(Step::TurnPage),
        Just(Step::Cold),
    ];
    proptest::collection::vec(step, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_range_is_the_union_of_its_lookups(
        steps in steps(),
        picks in proptest::collection::vec((0i64..200, 0i64..60), 40),
    ) {
        let (e, table, dir) = engine("union");
        let index = e.index(table).unwrap();
        let mut cursor = e.recovered_inserter(table).unwrap();
        let mut model: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
        let (mut last, mut known) = (0i64, (0i64, 0i64));
        for (step, (from, width)) in steps.into_iter().zip(picks) {
            let keys: Vec<i64> = match step {
                Step::Run { n, twice } => (0..n)
                    .flat_map(|i| {
                        let key = last + 1 + i as i64;
                        std::iter::repeat_n(key, 1 + (twice >> (i % 8) & 1) as usize)
                    })
                    .collect(),
                Step::Back(back) => vec![last - back],
                Step::Again(n) => {
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
                Step::Remove { pick, n } => {
                    if !model.is_empty() {
                        let key = *model.keys().nth(pick % model.len()).unwrap();
                        let versions = model.get_mut(&key).unwrap();
                        let rid = versions.remove(n % versions.len());
                        if versions.is_empty() {
                            model.remove(&key);
                        }
                        e.remove_physical(rid).unwrap();
                    }
                    vec![]
                }
                Step::TurnPage => {
                    cursor = e.recovered_inserter(table).unwrap();
                    vec![]
                }
                Step::Cold => {
                    index.invalidate();
                    vec![]
                }
            };
            last = keys.iter().copied().fold(last, i64::max);
            known = keys.iter().fold(known, |(l, h), &k| (l.min(k), h.max(k)));
            for (key, rid) in keys.iter().zip(place(&mut cursor, &keys)) {
                model.entry(*key).or_default().push(rid);
            }
            // Anywhere in the keys (from inside a closed run, mostly), from
            // inside the open run at the tail, and everything.
            let lo = from.min(last);
            for range in [(lo, lo + width), (last - width % 4, last + 1), (-1, last + 2)] {
                agrees(&e, &index, &model, known, range)?;
            }
        }
        drop((cursor, index, e));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The three places a range meets keys, each built on purpose: a range that
/// starts inside a closed run (its run starts below `lo`), one that starts
/// inside the open run, and one across keys hashed with a later version
/// elsewhere — found by probing a narrow range key by key, and by scanning
/// the hashed keys for a wide one.
#[test]
fn a_range_starts_inside_runs_and_spans_hashed_keys() {
    let (e, table, dir) = engine("places");
    let index = e.index(table).unwrap();
    let mut cursor = e.recovered_inserter(table).unwrap();
    let mut model: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
    // 400 keys, every fourth with two versions side by side.
    let keys: Vec<i64> = (0..400)
        .flat_map(|k| std::iter::repeat_n(k, if k % 4 == 0 { 2 } else { 1 }))
        .collect();
    for (key, rid) in keys.iter().zip(place(&mut cursor, &keys)) {
        model.entry(*key).or_default().push(rid);
    }
    let (runs, alone) = index.shape();
    assert!(runs > 2, "a load of several pages: {runs} runs");
    // Later versions of keys 40, 41 and 42 elsewhere: each leaves its run,
    // hashed, its later version beside it.
    drop(cursor);
    let mut cursor = e.recovered_inserter(table).unwrap();
    let moved = [40, 41, 42];
    for (key, rid) in moved.iter().zip(place(&mut cursor, &moved)) {
        model.entry(*key).or_default().push(rid);
    }
    assert_eq!(index.shape().1, alone + 3, "three keys hashed");
    for key in moved {
        assert_eq!(
            index.lookup(e.pool(), key).unwrap().len(),
            1 + (key % 4 == 0) as usize + 1
        );
    }
    let agree = |lo: i64, hi: i64| agrees(&e, &index, &model, (0, 399), (lo, hi)).unwrap();
    // Inside the first closed run, across the moved keys; one moved key,
    // probed.
    agree(37, 45);
    agree(41, 41);
    // From inside a closed run to the open run's middle, and inside the
    // open run alone.
    agree(123, 398);
    agree(397, 399);
    agree(399, i64::MAX);
    // Everything, the hashed keys scanned.
    agree(i64::MIN, i64::MAX);
    agree(-5, -1);
    // Cold: the range lookup builds the index first.
    index.invalidate();
    assert!(!index.is_built());
    agree(30, 50);
    assert!(index.is_built());
    drop((cursor, index, e));
    let _ = std::fs::remove_dir_all(dir);
}
