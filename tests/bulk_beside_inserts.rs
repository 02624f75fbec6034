//! A bulk cursor and a transactional inserter on one table, at once, through
//! a pool small enough to evict all the time.
//!
//! The cursor's pages are born in the pool: a page's frame is installed in
//! the same step that allocates the page, under the directory lock
//! (`BufferPool::born_page`). A transactional insert probes every page of
//! the last segment from the insert hint on, the cursor's included, and
//! takes a free slot wherever it finds one. Were the frame installed after
//! the page could be named, a prober could fault the page in and fill a slot
//! first, and the blank frame put over it would lose that row.
//!
//! After a checkpoint and a reopen, every row is on disk exactly once, the
//! rebuilt index finds every key where it is, and no slot was handed out
//! twice.

use harbor_common::codec::{Decoder, Encoder};
use harbor_common::{
    FieldType, RecordId, SiteId, StorageConfig, TableId, Timestamp, TransactionId, Tuple, Value,
};
use harbor_engine::{Engine, EngineOptions, StepLogging, KEY_OFFSET};
use harbor_storage::table::ts_word;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;

const BULK_ROWS: i64 = 2_000;
/// Rows of one scan reply: a page of 17 takes a few replies to fill, so the
/// cursor's page stands half full between its holds most of the time.
const REPLY: i64 = 6;
const TXNS: i64 = 300;
/// Keys of the transactional inserts start here.
const TXN_KEYS: i64 = 1_000_000;
const ROUNDS: usize = 3;

fn open(dir: &Path) -> Arc<Engine> {
    let storage = StorageConfig {
        buffer_pool_pages: 8,
        ..StorageConfig::for_tests()
    };
    Engine::open(dir, EngineOptions::harbor(SiteId(0), storage)).unwrap()
}

fn values(key: i64) -> Vec<Value> {
    vec![Value::Int64(key), Value::Str(format!("row {key}"))]
}

/// The bulk side: `BULK_ROWS` committed rows as scan replies. Returns where
/// each went.
fn bulk(e: &Engine, table: TableId) -> Vec<(i64, RecordId)> {
    let mut cursor = e.recovered_inserter(table).unwrap();
    let mut placed = Vec::new();
    for first in (0..BULK_ROWS).step_by(REPLY as usize) {
        let keys: Vec<i64> = (first..(first + REPLY).min(BULK_ROWS)).collect();
        let mut enc = Encoder::new();
        for key in &keys {
            Tuple::versioned(Timestamp(1), Timestamp::ZERO, values(*key)).write_wire(&mut enc);
        }
        let mut at = keys.iter();
        cursor
            .insert_wire(keys.len(), &mut Decoder::new(enc.as_slice()), |rid| {
                placed.push((*at.next().unwrap(), rid))
            })
            .unwrap();
    }
    placed
}

/// The transactional side: `TXNS` transactions of one insert each.
fn transactional(e: &Engine, table: TableId) -> Vec<(i64, RecordId)> {
    (0..TXNS)
        .map(|i| {
            let tid = TransactionId::from_parts(SiteId(9), i as u64 + 1);
            e.begin(tid).unwrap();
            let rid = e.insert(tid, table, values(TXN_KEYS + i)).unwrap();
            e.commit(tid, Timestamp(10 + i as u64), StepLogging::OFF)
                .unwrap();
            (TXN_KEYS + i, rid)
        })
        .collect()
}

#[test]
fn a_bulk_cursor_beside_transactional_inserts_loses_and_doubles_nothing() {
    for round in 0..ROUNDS {
        let dir = std::env::temp_dir().join(format!(
            "harbor-bulk-beside-inserts-{}-{round}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let e = open(&dir);
        let fields = vec![
            ("id".into(), FieldType::Int64),
            ("pad".into(), FieldType::FixedStr(200)),
        ];
        let table = e.create_table("t", fields).unwrap().id;
        let (loaded, inserted) = std::thread::scope(|s| {
            let loader = s.spawn(|| bulk(&e, table));
            let inserter = s.spawn(|| transactional(&e, table));
            (loader.join().unwrap(), inserter.join().unwrap())
        });
        let all: Vec<(i64, RecordId)> = loaded.into_iter().chain(inserted).collect();
        assert_eq!(all.len() as i64, BULK_ROWS + TXNS);
        let slots: HashSet<RecordId> = all.iter().map(|(_, rid)| *rid).collect();
        assert_eq!(
            slots.len(),
            all.len(),
            "round {round}: a slot handed out twice"
        );
        // How often the two writers met on a page, for a failure's message.
        let bulk_pages: HashSet<_> = all[..BULK_ROWS as usize]
            .iter()
            .map(|(_, r)| r.page)
            .collect();
        let shared = all[BULK_ROWS as usize..]
            .iter()
            .filter(|(_, rid)| bulk_pages.contains(&rid.page))
            .count();
        e.checkpoint().unwrap();
        drop(e);

        let e = open(&dir);
        let table = e.table_def("t").unwrap().id;
        let mut on_disk: BTreeMap<i64, Vec<RecordId>> = BTreeMap::new();
        for pid in e.pool().table(table).unwrap().all_page_ids() {
            e.pool()
                .with_page(None, pid, |page| {
                    for slot in page.occupied_slots() {
                        let key = ts_word(page.read(slot)?, KEY_OFFSET) as i64;
                        on_disk
                            .entry(key)
                            .or_default()
                            .push(RecordId::new(pid, slot));
                    }
                    Ok(())
                })
                .unwrap();
        }
        let index = e.index(table).unwrap();
        for (key, rid) in &all {
            assert_eq!(
                on_disk.get(key),
                Some(&vec![*rid]),
                "round {round}: key {key} ({shared} inserts on bulk pages)"
            );
            assert_eq!(index.lookup(e.pool(), *key).unwrap(), vec![*rid]);
        }
        assert_eq!(on_disk.len(), all.len(), "round {round}: rows nobody wrote");
        drop((index, e));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
