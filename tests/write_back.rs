//! Page-ordered write-back (`BufferPool::write_back`): a checkpoint writes
//! each run of adjacent dirty pages with one positional write, and changes
//! nothing else — the same pages, the same bytes, the same fault decisions —
//! while a frame is marked clean only once its bytes are in the file.

use harbor_common::config::PAGE_SIZE;
use harbor_common::fault::{FaultConfig, FaultPlan};
use harbor_common::{
    DiskProfile, FieldType, Metrics, RecordId, SiteId, StorageConfig, TableId, Timestamp,
    TransactionId, Tuple, TupleDesc, Value,
};
use harbor_engine::{Engine, EngineOptions, StepLogging};
use harbor_storage::{
    slots_per_page, BufferPool, Checkpointer, LockManager, Page, PagePolicy, SegmentedHeapFile,
    RUN_PAGES,
};
use harbor_wal::record::TsField;
use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

const TABLE: TableId = TableId(1);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-write-back-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn desc() -> TupleDesc {
    TupleDesc::with_version_columns(vec![("id", FieldType::Int64)])
}

/// A stored row: insertion time, deletion time, id.
fn row(id: u64, inserted: u64) -> Vec<u8> {
    [inserted, 0, id]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

fn row_id(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[16..24].try_into().unwrap())
}

/// One table in a pool of `capacity` frames, with its checkpoint record.
struct Site {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    ckpt: Checkpointer,
    metrics: Metrics,
    segment_pages: u32,
}

impl Site {
    fn new(
        dir: &Path,
        capacity: usize,
        segment_pages: u32,
        faults: Option<&Arc<FaultPlan>>,
    ) -> Self {
        let metrics = Metrics::new();
        let locks = Arc::new(LockManager::new(
            Duration::from_millis(100),
            metrics.clone(),
        ));
        let pool = BufferPool::new(
            capacity,
            locks,
            PagePolicy::steal_no_force(),
            metrics.clone(),
        );
        let heap = SegmentedHeapFile::create(
            dir.join("t.tbl"),
            TABLE,
            desc(),
            segment_pages,
            DiskProfile::fast(),
            metrics.clone(),
        )
        .unwrap();
        let heap = match faults {
            Some(plan) => heap.with_faults(plan.clone(), SiteId(1)),
            None => heap,
        };
        pool.register_table(Arc::new(heap));
        Site {
            dir: dir.to_path_buf(),
            pool: Arc::new(pool),
            ckpt: Checkpointer::open(dir.join("checkpoint"), DiskProfile::fast()).unwrap(),
            metrics,
            segment_pages,
        }
    }

    /// Bulk-loads `pages` full pages of rows, inserted at time 1.
    fn load(&self, pages: usize) {
        let rows = pages * slots_per_page(desc().byte_width());
        let mut app = self.pool.bulk_appender(TABLE).unwrap();
        let bytes: Vec<u8> = (0..rows as u64).flat_map(|id| row(id, 1)).collect();
        app.place(&bytes, |_, _| {}).unwrap();
        drop(app);
        assert_eq!(
            self.pool.table(TABLE).unwrap().num_data_pages() as usize,
            pages
        );
    }

    /// Fig 3-2 over the pool's dirty pages.
    fn checkpoint(&self, t: u64) {
        let snapshot = self.pool.dirty_pages();
        self.ckpt
            .checkpoint(&self.pool, Timestamp(t), snapshot, vec![(TABLE, 0)])
            .unwrap();
    }

    /// The reference: every dirty page on its own, in the pool's hash
    /// order — how a checkpoint wrote pages before runs.
    fn flush_page_at_a_time(&self) {
        for pid in self.pool.dirty_pages() {
            self.pool.write_back(vec![pid]).unwrap();
        }
    }

    /// `(page writes, write calls)` so far.
    fn writes(&self) -> (u64, u64) {
        (self.metrics.page_writes(), self.metrics.page_write_calls())
    }

    fn file(&self) -> Vec<u8> {
        std::fs::read(self.dir.join("t.tbl")).unwrap()
    }

    /// Every row on disk after a crash: the table reopened from its file.
    fn rows_on_disk(dir: &Path, segment_pages: u32) -> HashMap<u64, (Timestamp, usize)> {
        let heap = SegmentedHeapFile::open(
            dir.join("t.tbl"),
            TABLE,
            desc(),
            segment_pages,
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap();
        let mut rows: HashMap<u64, (Timestamp, usize)> = HashMap::new();
        for pid in heap.all_page_ids() {
            let page = heap.read_page(pid.page_no).unwrap();
            for slot in page.occupied_slots() {
                let deleted = page.timestamp(slot, TsField::Deletion).unwrap();
                let seen = rows.entry(row_id(page.read(slot).unwrap())).or_default();
                *seen = (deleted, seen.1 + 1);
            }
        }
        rows
    }
}

/// A checkpoint of a bulk-loaded table is ⌈pages / 64⌉ writes of data plus
/// the directory's two (before the first run, whose segment it had not
/// heard of, and at the end): the same pages as page-at-a-time write-back,
/// and the same file, byte for byte.
#[test]
fn a_checkpoint_writes_a_run_of_pages_with_one_call() {
    const PAGES: usize = 300;
    let dir = temp_dir("runs");
    let (runs, pages) = (dir.join("runs"), dir.join("pages"));
    std::fs::create_dir_all(&runs).unwrap();
    std::fs::create_dir_all(&pages).unwrap();
    let by_runs = Site::new(&runs, 1024, 64, None);
    let by_pages = Site::new(&pages, 1024, 64, None);
    by_runs.load(PAGES);
    by_pages.load(PAGES);

    let before = by_runs.writes();
    by_runs.checkpoint(1);
    let (writes, calls) = by_runs.writes();
    let (writes, calls) = (writes - before.0, calls - before.1);
    assert_eq!(writes, PAGES as u64 + 2);
    assert_eq!(calls, PAGES.div_ceil(RUN_PAGES) as u64 + 2);
    assert!(by_runs.pool.dirty_pages().is_empty());

    let before = by_pages.writes();
    by_pages.flush_page_at_a_time();
    by_pages.checkpoint(1);
    let (ref_writes, ref_calls) = by_pages.writes();
    assert_eq!(ref_writes - before.0, writes, "the same pages");
    assert_eq!(ref_calls - before.1, writes, "a call a page");
    assert!(by_runs.file() == by_pages.file(), "the same bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault plan draws per page, in page order within a run: a page that
/// draws a fault is written on its own and the run goes on around it, so
/// the same seed fires the same `(table, page, ordinal)` faults, and leaves
/// the same file, as page-at-a-time writes in any order.
#[test]
fn page_order_write_back_draws_the_same_faults_as_page_at_a_time() {
    const PAGES: usize = 200;
    const SEED: u64 = 0x5EED;
    let dir = temp_dir("faults");
    let (runs, pages) = (dir.join("runs"), dir.join("pages"));
    std::fs::create_dir_all(&runs).unwrap();
    std::fs::create_dir_all(&pages).unwrap();
    let plans = [0, 1].map(|_| Arc::new(FaultPlan::new(FaultConfig::soak(SEED))));
    let by_runs = Site::new(&runs, 1024, 16, Some(&plans[0]));
    let by_pages = Site::new(&pages, 1024, 16, Some(&plans[1]));
    for site in [&by_runs, &by_pages] {
        site.load(PAGES);
    }
    for plan in &plans {
        plan.set_enabled(true);
    }
    let per_page = slots_per_page(desc().byte_width());
    for round in 0..4u64 {
        by_runs.pool.write_back(by_runs.pool.dirty_pages()).unwrap();
        by_pages.flush_page_at_a_time();
        assert!(
            by_runs.file() == by_pages.file(),
            "round {round}: the same bytes"
        );
        // Every third page changes again, and its segment's bounds with it.
        for site in [&by_runs, &by_pages] {
            let pages = site.pool.table(TABLE).unwrap().all_page_ids();
            for pid in pages.into_iter().step_by(3) {
                let rid = RecordId::new(pid, (round as usize % per_page) as u16);
                site.pool
                    .set_timestamp(None, rid, TsField::Deletion, Timestamp(10 + round))
                    .unwrap();
            }
        }
    }
    let traces = plans.each_ref().map(|p| p.trace_canonical());
    assert!(plans[0].page_faults_injected() > 0, "the seed fires faults");
    assert_eq!(traces[0], traces[1]);
    assert!(
        by_runs.writes().1 < by_pages.writes().1,
        "runs take fewer calls"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer inserts rows and stamps deletions on older pages of a pool of
/// eight frames — so eviction writes pages back beside the checkpoints —
/// while checkpoints run one after another. After a crash, everything done
/// before a checkpoint began is in the file.
#[test]
fn a_writer_beside_repeated_checkpoints_loses_no_acknowledged_row() {
    let dir = temp_dir("writer");
    let site = Site::new(&dir, 8, 4, None);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut acked = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rids = Vec::new();
            // Op `i` inserts row `i`; an even op also deletes row `i / 2`,
            // on a page the pool has most likely let go of by then.
            while !stop.load(SeqCst) {
                let i = rids.len();
                let rid = site
                    .pool
                    .insert_tuple_bytes(None, TABLE, &row(i as u64, 1))
                    .unwrap();
                rids.push(rid);
                if i % 2 == 0 {
                    let ts = Timestamp(i as u64 + 2);
                    site.pool
                        .set_timestamp(None, rids[i / 2], TsField::Deletion, ts)
                        .unwrap();
                }
                done.store(i + 1, SeqCst);
            }
        });
        // Forty checkpoints at least, and on until the rows fill a few
        // times the pool.
        let mut t = 0;
        while t < 40 || acked < 5_000 {
            t += 1;
            let before = done.load(SeqCst);
            site.checkpoint(t);
            acked = before;
        }
        stop.store(true, SeqCst);
    });
    assert!(acked > 100, "the writer kept up: {acked} ops");
    assert!(
        site.metrics.evictions() > 0,
        "eviction wrote pages back too"
    );
    let segment_pages = site.segment_pages;
    drop(site); // a crash: whatever is not in the file is gone
    let rows = Site::rows_on_disk(&dir, segment_pages);
    for i in 0..acked as u64 {
        let (deleted, copies) = rows.get(&i).copied().unwrap_or_default();
        assert_eq!(copies, 1, "row {i} of {acked} acknowledged");
        if 2 * i < acked as u64 {
            assert_eq!(deleted, Timestamp(2 * i + 2), "row {i}'s deletion");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under FORCE, a commit writes its pages back before it returns — and a
/// checkpoint writing the same pages must not let it return early. The
/// checkpoint keeps a frame dirty until its bytes are in the file, so a
/// commit that finds its page clean knows they are there; a checkpoint that
/// marked frames clean as it copied them and wrote them later would send a
/// commit back with its page still on its way. Each commit deletes a row on
/// the first page of the run the checkpoints write, then one on each page of
/// a run they leave alone, so that the run's copy and write have time to
/// fall between the commit's change to that first page and its write-back.
#[test]
fn a_force_commit_beside_a_checkpoint_returns_with_its_page_in_the_file() {
    let dir = temp_dir("force");
    let storage = StorageConfig {
        buffer_pool_pages: 1024,
        segment_pages: 64,
        ..StorageConfig::for_tests()
    };
    let opts = EngineOptions {
        policy: PagePolicy::no_steal_force(),
        ..EngineOptions::harbor(SiteId(0), storage)
    };
    let e = Engine::open(&dir, opts).unwrap();
    let def = e
        .create_table("t", vec![("id".into(), FieldType::Int64)])
        .unwrap();
    let per_page = slots_per_page(desc().byte_width());
    let mut loader = e.recovered_inserter(def.id).unwrap();
    for id in 0..(2 * RUN_PAGES * per_page) as i64 {
        let t = Tuple::versioned(Timestamp(1), Timestamp::ZERO, vec![Value::Int64(id)]);
        loader.insert(&t).unwrap();
    }
    loader.flush().unwrap();
    drop(loader);
    e.checkpoint().unwrap();
    let pages = e.pool().table(def.id).unwrap().all_page_ids();
    assert!(pages.windows(2).all(|w| w[1].page_no == w[0].page_no + 1));
    let (checkpointed, others) = pages.split_at(RUN_PAGES);
    let file = std::fs::File::open(dir.join(format!("t{}.tbl", def.id.0))).unwrap();
    let in_file = |rid: RecordId| -> Option<Timestamp> {
        let mut bytes = Box::new([0u8; PAGE_SIZE]);
        let at = rid.page.page_no as u64 * PAGE_SIZE as u64;
        file.read_exact_at(&mut bytes[..], at).ok()?;
        let page = Page::from_bytes(bytes, desc().byte_width()).ok()?;
        page.timestamp(rid.slot, TsField::Deletion).ok()
    };
    let committed = AtomicBool::new(false);
    let mut late = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for slot in 0..per_page as u16 {
                let k = slot as u64 + 1;
                let (tid, at) = (TransactionId::from_parts(SiteId(0), k), Timestamp(10 + k));
                let first = RecordId::new(checkpointed[0], slot);
                e.begin(tid).unwrap();
                e.delete(tid, first).unwrap();
                for &pid in others {
                    e.delete(tid, RecordId::new(pid, slot)).unwrap();
                }
                e.commit(tid, at, StepLogging::OFF).unwrap();
                if in_file(first) != Some(at) {
                    late.push(slot);
                }
            }
            committed.store(true, SeqCst);
        });
        // Checkpoints of the first run, for as long as the commits go on.
        while !committed.load(SeqCst) {
            for pid in checkpointed {
                e.pool().with_page_mut(None, *pid, |_| Ok(())).unwrap();
            }
            e.checkpoint().unwrap();
        }
    });
    assert!(
        late.is_empty(),
        "{} commits returned before their page was in the file: {late:?}",
        late.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
