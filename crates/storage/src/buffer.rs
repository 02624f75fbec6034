//! The buffer pool (thesis §6.1.3).
//!
//! Manages in-memory frames for heap pages, enforcing:
//!
//! * **STEAL / NO-FORCE** by default (other policies are supported via
//!   [`PagePolicy`]): dirty pages may be written back before commit, and
//!   commit does not flush;
//! * the **write-ahead-logging rule** when a log manager is attached: the
//!   log is forced up to a page's LSN before the page is written back;
//! * the **directory durability invariant** via
//!   [`SegmentedHeapFile::write_page`];
//! * transactional access control: page reads/writes go through the lock
//!   manager with intention locks on the table (`getPage` of §6.1.3), while
//!   historical queries use latch-only access and never touch the lock
//!   manager.
//!
//! The frame table is split into power-of-two **shards** keyed by a `PageId`
//! hash, each behind its own mutex, so concurrent scanners and appenders
//! don't serialize on one global map lock. Eviction is **clock /
//! second-chance** per shard (the thesis used random eviction; clock keeps
//! the hot working set resident while remaining O(1) per victim): every
//! frame carries a referenced bit that page accesses set and the sweeping
//! hand clears, and a frame is evicted only when it is unpinned, its bit is
//! clear, and — under NO-STEAL — it is clean. Capacity stays a *global*
//! budget: a shared resident counter drives the sweep across shards, so a
//! skewed workload can fill the whole pool from one shard's key range.

use crate::lock::{LockKey, LockManager, LockMode};
use crate::page::Page;
use crate::table::SegmentedHeapFile;
use harbor_common::config::PAGE_SIZE;
use harbor_common::lockrank::{self, Rank};
use harbor_common::{
    DbError, DbResult, Metrics, PageId, RecordId, TableId, Timestamp, TransactionId,
};
use harbor_wal::record::{RedoOp, TsField};
use harbor_wal::{LogManager, Lsn};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The most pages one positional write of [`BufferPool::write_back`]
/// carries: one segment at the default segment size.
pub const RUN_PAGES: usize = 64;

/// Buffer management policy. The thesis default is STEAL/NO-FORCE; the other
/// combinations are implemented for completeness ("though other paging
/// policies have also been implemented", §6.1.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagePolicy {
    /// Dirty pages of uncommitted transactions may be written back.
    pub steal: bool,
    /// Commit flushes the transaction's dirty pages (enforced by the engine;
    /// recorded here so all policy knobs live together).
    pub force: bool,
}

impl PagePolicy {
    pub const fn steal_no_force() -> Self {
        PagePolicy {
            steal: true,
            force: false,
        }
    }

    pub const fn no_steal_force() -> Self {
        PagePolicy {
            steal: false,
            force: true,
        }
    }
}

impl Default for PagePolicy {
    fn default() -> Self {
        Self::steal_no_force()
    }
}

struct Frame {
    page: RwLock<Page>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    /// Second-chance bit: set on every access, cleared by the clock hand.
    referenced: AtomicBool,
    /// First LSN that dirtied the page since its last flush (`u64::MAX` =
    /// none). Feeds the dirty page table of ARIES fuzzy checkpoints.
    rec_lsn: AtomicU64,
}

impl Frame {
    fn fresh(page: Page, dirty: bool) -> Self {
        Frame {
            page: RwLock::new(page),
            dirty: AtomicBool::new(dirty),
            pins: AtomicUsize::new(0),
            referenced: AtomicBool::new(true),
            rec_lsn: AtomicU64::new(u64::MAX),
        }
    }

    fn note_dirtying_lsn(&self, lsn: Lsn) {
        self.rec_lsn.fetch_min(lsn.0, Ordering::SeqCst);
    }
}

/// One shard of the frame table: its slice of the page map, the clock ring
/// the eviction hand walks, and locality counters.
struct Shard {
    frames: Mutex<ShardFrames>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Default)]
struct ShardFrames {
    map: HashMap<PageId, Arc<Frame>>,
    /// Clock ring over this shard's resident pages. Kept in sync with
    /// `map` (entries are removed on eviction/deregistration), so the hand
    /// only ever sees live frames; the stale-entry check in the sweep is
    /// defensive.
    ring: Vec<PageId>,
    hand: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            frames: Mutex::new(ShardFrames::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl ShardFrames {
    fn insert(&mut self, pid: PageId, frame: Arc<Frame>) -> Option<Arc<Frame>> {
        let prev = self.map.insert(pid, frame);
        if prev.is_none() {
            self.ring.push(pid);
        }
        prev
    }

    fn remove(&mut self, pid: PageId) -> Option<Arc<Frame>> {
        let prev = self.map.remove(&pid);
        if prev.is_some() {
            if let Some(i) = self.ring.iter().position(|p| *p == pid) {
                self.ring.swap_remove(i);
            }
        }
        prev
    }
}

/// Point-in-time statistics for one buffer-pool shard.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident: usize,
}

/// The per-site buffer pool.
pub struct BufferPool {
    capacity: usize,
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: usize,
    /// Global resident-frame count (capacity is a pool-wide budget, not a
    /// per-shard one).
    resident: AtomicUsize,
    /// Rotor distributing eviction sweeps across shards.
    next_shard: AtomicUsize,
    tables: RwLock<HashMap<TableId, Arc<SegmentedHeapFile>>>,
    locks: Arc<LockManager>,
    wal: RwLock<Option<Arc<LogManager>>>,
    policy: PagePolicy,
    metrics: Metrics,
}

/// Shards scale with capacity (≈8 frames per shard) up to 16: tiny test
/// pools stay observable through one shard, big pools spread contention.
fn shard_count_for(capacity: usize) -> usize {
    (capacity / 8).next_power_of_two().clamp(1, 16)
}

impl BufferPool {
    pub fn new(
        capacity: usize,
        locks: Arc<LockManager>,
        policy: PagePolicy,
        metrics: Metrics,
    ) -> Self {
        let capacity = capacity.max(2);
        let n = shard_count_for(capacity);
        BufferPool {
            capacity,
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_mask: n - 1,
            resident: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
            tables: RwLock::new(HashMap::new()),
            locks,
            wal: RwLock::new(None),
            policy,
            metrics,
        }
    }

    #[inline]
    fn shard(&self, pid: PageId) -> &Shard {
        // Fibonacci hash over (table, page_no); the high bits are the
        // best-mixed, so index from the top.
        let key = ((pid.table.0 as u64) << 32) | pid.page_no as u64;
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 48) as usize & self.shard_mask]
    }

    /// Number of frame-table shards (power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard hit/miss/eviction counters plus resident frame counts.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                resident: {
                    let _rank = lockrank::acquire(Rank::PoolShard);
                    s.frames.lock().map.len()
                },
            })
            .collect()
    }

    /// Number of frames currently pinned (tests / introspection).
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _rank = lockrank::acquire(Rank::PoolShard);
                s.frames
                    .lock()
                    .map
                    .values()
                    .filter(|f| f.pins.load(Ordering::SeqCst) > 0)
                    .count()
            })
            .sum()
    }

    /// Attaches a log manager: the pool starts honouring the WAL rule on
    /// write-back (log-based baseline mode).
    pub fn attach_wal(&self, wal: Arc<LogManager>) {
        let _rank = lockrank::acquire(Rank::Wal);
        *self.wal.write() = Some(wal);
    }

    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.locks
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn register_table(&self, table: Arc<SegmentedHeapFile>) {
        let _rank = lockrank::acquire(Rank::TableMap);
        self.tables.write().insert(table.id(), table);
    }

    pub fn deregister_table(&self, id: TableId) {
        let _rank = lockrank::acquire(Rank::TableMap);
        self.tables.write().remove(&id);
        let mut dropped = 0usize;
        for shard in self.shards.iter() {
            let _rank = lockrank::acquire(Rank::PoolShard);
            let mut g = shard.frames.lock();
            let before = g.map.len();
            g.map.retain(|pid, _| pid.table != id);
            g.ring.retain(|pid| pid.table != id);
            g.hand = 0;
            dropped += before - g.map.len();
        }
        self.resident.fetch_sub(dropped, Ordering::SeqCst);
    }

    pub fn table(&self, id: TableId) -> DbResult<Arc<SegmentedHeapFile>> {
        let _rank = lockrank::acquire(Rank::TableMap);
        self.tables
            .read()
            .get(&id)
            .cloned()
            .ok_or(DbError::NoSuchTable(id))
    }

    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = {
            let _rank = lockrank::acquire(Rank::TableMap);
            self.tables.read().keys().copied().collect()
        };
        ids.sort();
        ids
    }

    /// Acquires a transactional lock on a page plus the matching intention
    /// lock on its table (multi-granularity protocol).
    pub fn lock_page(&self, tid: TransactionId, pid: PageId, mode: LockMode) -> DbResult<()> {
        let intent = match mode {
            LockMode::Shared | LockMode::IntentionShared => LockMode::IntentionShared,
            _ => LockMode::IntentionExclusive,
        };
        self.locks.acquire(tid, LockKey::Table(pid.table), intent)?;
        self.locks.acquire(tid, LockKey::Page(pid), mode)
    }

    /// Fetches (or loads) the frame for `pid`, evicting if over capacity.
    fn frame(&self, pid: PageId) -> DbResult<Arc<Frame>> {
        let shard = self.shard(pid);
        // harbor-lint: allow(deadline-propagation) — deliberate optimistic retry: the
        // loop re-runs only when the eviction epoch moved during our off-lock disk
        // read, each iteration does one bounded page read, and the caller re-checks
        // its budget between engine steps; a deadline check here would add a clock
        // read to the hot page-hit path for a retry that is already progress-bounded.
        loop {
            // Snapshot the shard's eviction count together with the miss:
            // it is the epoch that tells us below whether a flush+evict of
            // this page could have happened while we read the disk.
            let epoch = {
                let _rank = lockrank::acquire(Rank::PoolShard);
                let g = shard.frames.lock();
                if let Some(f) = g.map.get(&pid) {
                    f.pins.fetch_add(1, Ordering::SeqCst);
                    f.referenced.store(true, Ordering::Relaxed);
                    let f = f.clone();
                    drop(g);
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    self.metrics.add_pool_hits(1);
                    return Ok(f);
                }
                shard.evictions.load(Ordering::SeqCst)
            };
            // Load outside the shard lock, then insert. Two loaders racing
            // is harmless (first writer wins, both read the same bytes) —
            // but a load racing an *eviction* is not: another thread may
            // insert a frame, take writes, and have it flushed + evicted
            // all between our disk read and our map insert, making our
            // copy stale. The eviction epoch detects that window.
            let table = self.table(pid.table)?;
            let page = table.read_page(pid.page_no)?;
            let frame = Arc::new(Frame::fresh(page, false));
            frame.pins.fetch_add(1, Ordering::SeqCst);
            let _rank = lockrank::acquire(Rank::PoolShard);
            let mut g = shard.frames.lock();
            if let Some(existing) = g.map.get(&pid) {
                existing.pins.fetch_add(1, Ordering::SeqCst);
                existing.referenced.store(true, Ordering::Relaxed);
                let existing = existing.clone();
                drop(g);
                shard.misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.add_pool_misses(1);
                return Ok(existing);
            }
            if shard.evictions.load(Ordering::SeqCst) != epoch {
                // An eviction ran in this shard while we were off the lock;
                // our disk read may predate the evicted frame's flush.
                // Retry with a fresh read.
                drop(g);
                continue;
            }
            g.insert(pid, frame.clone());
            drop(g);
            // Release the shard rank with the guard: eviction below
            // re-enters the table map (rank 2) via flush_frame.
            drop(_rank);
            shard.misses.fetch_add(1, Ordering::Relaxed);
            self.metrics.add_pool_misses(1);
            self.resident.fetch_add(1, Ordering::SeqCst);
            self.evict_to_capacity()?;
            return Ok(frame);
        }
    }

    /// Materializes a brand-new page (just allocated by the table) in the
    /// pool. This must go through the normal faulting path, not install a
    /// fresh empty frame: between the allocation and this call, a
    /// concurrent inserter can probe the page through `insert_candidates`,
    /// fault it in (`read_page` hands never-flushed pages back as
    /// initialized empty pages), fill slots, and have the frame flushed
    /// *and evicted* again — fabricating an empty frame here would
    /// resurrect the page as blank and wipe those rows on its next
    /// write-back. The miss path reads whatever is durable (an empty page
    /// for a truly fresh allocation) under the eviction-epoch protocol.
    pub fn create_page(&self, pid: PageId) -> DbResult<()> {
        let frame = self.frame(pid)?;
        frame.pins.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }

    /// Allocates a page at the end of `table` and installs its blank frame,
    /// pinned, as one step: the frame goes in under the directory lock
    /// ([`SegmentedHeapFile::grow_with`]), so no prober can fault the page
    /// in before it exists, [`Self::create_page`]'s race cannot arise, and
    /// the page costs no read. Eviction waits until that lock is released:
    /// a write-back takes it.
    fn born_page(&self, table: &SegmentedHeapFile) -> DbResult<(PageId, Arc<Frame>)> {
        let born = table.grow_with(|pid| {
            let frame = Arc::new(Frame::fresh(Page::init(table.tuple_size()), false));
            frame.pins.fetch_add(1, Ordering::SeqCst);
            let _rank = lockrank::acquire(Rank::PoolShard);
            let mut frames = self.shard(pid).frames.lock();
            if frames.map.contains_key(&pid) {
                return Err(DbError::internal(format!(
                    "page {pid} is resident before its birth"
                )));
            }
            frames.insert(pid, frame.clone());
            Ok((pid, frame))
        })?;
        self.resident.fetch_add(1, Ordering::SeqCst);
        self.evict_to_capacity()?;
        Ok(born)
    }

    fn evict_to_capacity(&self) -> DbResult<()> {
        while self.resident.load(Ordering::SeqCst) > self.capacity {
            let Some(victim) = self.find_victim() else {
                // Everything pinned or unstealable: run over capacity
                // rather than fail mid-transaction.
                return Ok(());
            };
            if self.try_evict(victim)? {
                self.metrics.add_evictions(1);
            }
        }
        Ok(())
    }

    /// Picks an eviction victim by sweeping the clock hands, starting from
    /// a rotating shard so sweeps spread across the pool.
    fn find_victim(&self) -> Option<PageId> {
        let n = self.shards.len();
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed);
        (0..n).find_map(|i| self.clock_victim(&self.shards[(start + i) % n]))
    }

    /// One clock sweep over a shard: skip pinned (and, under NO-STEAL,
    /// dirty) frames, give referenced frames a second chance by clearing
    /// their bit, and return the first frame that is evictable with a clear
    /// bit. Two passes bound the sweep: the first clears bits, the second
    /// catches the frames it cleared.
    fn clock_victim(&self, shard: &Shard) -> Option<PageId> {
        let _rank = lockrank::acquire(Rank::PoolShard);
        let mut g = shard.frames.lock();
        let mut remaining = g.ring.len() * 2;
        while remaining > 0 && !g.ring.is_empty() {
            if g.hand >= g.ring.len() {
                g.hand = 0;
            }
            let hand = g.hand;
            let pid = g.ring[hand];
            let Some(f) = g.map.get(&pid) else {
                g.ring.swap_remove(hand);
                remaining = remaining.saturating_sub(1);
                continue;
            };
            let evictable = f.pins.load(Ordering::SeqCst) == 0
                && (self.policy.steal || !f.dirty.load(Ordering::SeqCst));
            if evictable && !f.referenced.swap(false, Ordering::Relaxed) {
                g.hand += 1;
                return Some(pid);
            }
            g.hand += 1;
            remaining -= 1;
        }
        None
    }

    fn try_evict(&self, pid: PageId) -> DbResult<bool> {
        // Flush first if dirty (STEAL), then remove if still unpinned.
        let shard = self.shard(pid);
        let frame = {
            let _rank = lockrank::acquire(Rank::PoolShard);
            let g = shard.frames.lock();
            match g.map.get(&pid) {
                Some(f) if f.pins.load(Ordering::SeqCst) == 0 => f.clone(),
                _ => return Ok(false),
            }
        };
        if frame.dirty.load(Ordering::SeqCst) {
            if !self.policy.steal {
                // NO-STEAL: a page dirtied since victim selection must stay.
                return Ok(false);
            }
            self.flush_frame(pid, &frame, false)?;
        }
        let _rank = lockrank::acquire(Rank::PoolShard);
        let mut g = shard.frames.lock();
        if let Some(f) = g.map.get(&pid) {
            if f.pins.load(Ordering::SeqCst) == 0 && !f.dirty.load(Ordering::SeqCst) {
                g.remove(pid);
                // Bump the eviction epoch before the removal becomes
                // visible (i.e. while still holding the shard lock):
                // `frame`'s miss path uses it to detect that a disk read
                // it started may predate this frame's flush.
                shard.evictions.fetch_add(1, Ordering::SeqCst);
                drop(g);
                self.resident.fetch_sub(1, Ordering::SeqCst);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Writes one frame back (eviction, [`Self::force_rewrite`]): a run of
    /// one. `clean_too` writes it even if it is clean.
    fn flush_frame(&self, pid: PageId, frame: &Arc<Frame>, clean_too: bool) -> DbResult<()> {
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        self.write_run(&[(pid, frame.clone())], &mut buf, clean_too)
    }

    /// Writes one run of adjacent frames of one table with one positional
    /// write, through `buf`. Each frame's latch is taken *shared*, in
    /// ascending page order — no other path holds two frame latches, so the
    /// order cannot deadlock: readers go on, and no writer changes a page
    /// between its copy into `buf` and the write. The checksum is stamped in
    /// the copy, not the frame. A frame is marked clean only once its bytes
    /// are in the file, so a concurrent write-back that finds it clean knows
    /// they have landed. A frame found clean under its latch (another
    /// write-back got there first) is left out unless `clean_too`, and the
    /// run is written as the stretches around it.
    fn write_run(
        &self,
        run: &[(PageId, Arc<Frame>)],
        buf: &mut Vec<u8>,
        clean_too: bool,
    ) -> DbResult<()> {
        let Some((first, _)) = run.first() else {
            return Ok(());
        };
        // Before any latch: the table map ranks below `frame`.
        let table = self.table(first.table)?;
        let latched: Vec<_> = run
            .iter()
            .map(|(pid, frame)| {
                let rank = lockrank::acquire(Rank::Frame);
                let page = frame.page.read();
                // Read once: another write-back may clean it from here on.
                let wanted = clean_too || frame.dirty.load(Ordering::SeqCst);
                (*pid, frame, page, rank, wanted)
            })
            .collect();
        let stretches = latched.chunk_by(|a, b| a.4 == b.4);
        for stretch in stretches.filter(|s| s[0].4) {
            // WAL rule: log records describing these pages must be durable
            // first.
            let lsn = stretch.iter().map(|(_, _, page, ..)| page.page_lsn()).max();
            {
                let _wal_rank = lockrank::acquire(Rank::Wal);
                if let (Some(wal), Some(lsn)) = (self.wal.read().as_ref(), lsn) {
                    if lsn > Lsn::ZERO {
                        wal.force(lsn)?;
                    }
                }
            }
            buf.clear();
            for (_, _, page, ..) in stretch {
                buf.extend_from_slice(page.as_bytes());
            }
            // harbor-lint: allow(lock-across-blocking) — the frame latches must pin the page images across WAL force + write-back; flush-under-latch IS the WAL protocol
            table.write_run(stretch[0].0.page_no, buf)?;
            for (pid, frame, page, ..) in stretch {
                // Summarize the flushed image while the latch still pins it:
                // invalidations run under the write latch, so the store is
                // ordered against every mutation.
                table.store_zone(pid.page_no, crate::table::ZoneEntry::compute(page));
                frame.dirty.store(false, Ordering::SeqCst);
                frame.rec_lsn.store(u64::MAX, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Read access to a page under a shared latch. `tid` adds transactional
    /// S-locking (with table IS); `None` is latch-only access, used by
    /// historical queries (lock-free by design, §3.3) and recovery.
    pub fn with_page<R>(
        &self,
        tid: Option<TransactionId>,
        pid: PageId,
        f: impl FnOnce(&Page) -> DbResult<R>,
    ) -> DbResult<R> {
        if let Some(tid) = tid {
            self.lock_page(tid, pid, LockMode::Shared)?;
        }
        let frame = self.frame(pid)?;
        let result = {
            let _rank = lockrank::acquire(Rank::Frame);
            let page = frame.page.read();
            f(&page)
        };
        frame.pins.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Write access to a page under an exclusive latch; marks it dirty.
    pub fn with_page_mut<R>(
        &self,
        tid: Option<TransactionId>,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> DbResult<R>,
    ) -> DbResult<R> {
        if let Some(tid) = tid {
            self.lock_page(tid, pid, LockMode::Exclusive)?;
        }
        self.mutate_frame(pid, |page, _| f(page))
    }

    /// Inserts encoded tuple bytes into the table's last segment, reusing
    /// free slots before growing (`insertTuple` of §6.1.3, including the
    /// shared-then-exclusive lock dance that closes the last-slot race).
    pub fn insert_tuple_bytes(
        &self,
        tid: Option<TransactionId>,
        table_id: TableId,
        bytes: &[u8],
    ) -> DbResult<RecordId> {
        self.insert_tuple_bytes_logged(tid, table_id, bytes, None)
    }

    /// As [`insert_tuple_bytes`](Self::insert_tuple_bytes) but, under the
    /// log-based baseline, invokes `logger` with the redo op *inside* the
    /// page latch and stamps the returned LSN on the page, so no flush can
    /// slip between the page change and its log record.
    pub fn insert_tuple_bytes_logged(
        &self,
        tid: Option<TransactionId>,
        table_id: TableId,
        bytes: &[u8],
        mut logger: Option<&mut dyn FnMut(&RedoOp) -> Lsn>,
    ) -> DbResult<RecordId> {
        let table = self.table(table_id)?;
        if bytes.len() != table.tuple_size() {
            return Err(DbError::Schema(format!(
                "tuple is {} bytes, table rows are {}",
                bytes.len(),
                table.tuple_size()
            )));
        }
        loop {
            for page_no in table.insert_candidates() {
                let pid = PageId::new(table_id, page_no);
                // Probe fullness under the latch only — taking the §6.1.3
                // shared lock here would park every inserter behind a full
                // page exclusively locked by a long transaction. The probe
                // may be stale in either direction; the exclusive lock plus
                // the in-latch `insert` recheck below close the
                // fill-the-last-slot race the thesis' S→X upgrade targets.
                let full = self.with_page(None, pid, |p| Ok(p.is_full()))?;
                if full {
                    table.note_page_full(page_no);
                    continue;
                }
                if let Some(tid) = tid {
                    self.lock_page(tid, pid, LockMode::Exclusive)?;
                }
                match self.mutate_frame(pid, |p, frame| {
                    let slot = p.insert(bytes)?;
                    if let Some(lg) = logger.as_deref_mut() {
                        let op = RedoOp::InsertTuple {
                            rid: RecordId::new(pid, slot),
                            data: bytes.to_vec(),
                        };
                        let lsn = lg(&op);
                        p.set_page_lsn(lsn);
                        frame.note_dirtying_lsn(lsn);
                    }
                    Ok(slot)
                }) {
                    Ok(slot) => return Ok(RecordId::new(pid, slot)),
                    Err(DbError::Full(_)) => {
                        table.note_page_full(page_no);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // Last segment exhausted: allocate a page (rolling into a new
            // segment when the budget is reached).
            let pid = table.grow()?;
            if let Some(tid) = tid {
                self.lock_page(tid, pid, LockMode::Exclusive)?;
            }
            self.create_page(pid)?;
        }
    }

    /// A bulk append cursor for `table_id`: each cursor fills pages it
    /// allocated itself, so several cursors (e.g. parallel recovery
    /// fetchers) append concurrently without fighting over the shared
    /// insert hint or each other's page latches. Free slots elsewhere in
    /// the table are *not* reused — bulk append is for catch-up loads where
    /// the table is growing anyway.
    pub fn bulk_appender(self: &Arc<Self>, table_id: TableId) -> DbResult<BulkAppender> {
        let table = self.table(table_id)?;
        Ok(BulkAppender {
            pool: self.clone(),
            table,
            current: None,
            runs: Vec::new(),
        })
    }

    /// Exclusive-latch access to page and frame together (internal: lets
    /// mutators stamp LSNs / recLSNs atomically with the change).
    fn mutate_frame<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut Page, &Frame) -> DbResult<R>,
    ) -> DbResult<R> {
        let frame = self.frame(pid)?;
        let table = self.table(pid.table).ok();
        let result = {
            let _rank = lockrank::acquire(Rank::Frame);
            let mut page = frame.page.write();
            let r = f(&mut page, &frame);
            if r.is_ok() {
                frame.dirty.store(true, Ordering::SeqCst);
                if let Some(t) = &table {
                    t.invalidate_zone(pid.page_no);
                }
            }
            r
        };
        frame.pins.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Physically removes the tuple at `rid`, returning its bytes
    /// (transaction rollback and recovery Phase 1).
    pub fn remove_tuple(&self, tid: Option<TransactionId>, rid: RecordId) -> DbResult<Vec<u8>> {
        self.remove_tuple_logged(tid, rid, None)
    }

    /// Logged variant of [`remove_tuple`](Self::remove_tuple).
    pub fn remove_tuple_logged(
        &self,
        tid: Option<TransactionId>,
        rid: RecordId,
        mut logger: Option<&mut dyn FnMut(&RedoOp) -> Lsn>,
    ) -> DbResult<Vec<u8>> {
        if let Some(tid) = tid {
            self.lock_page(tid, rid.page, LockMode::Exclusive)?;
        }
        let data = self.mutate_frame(rid.page, |p, frame| {
            let data = p.remove(rid.slot)?;
            if let Some(lg) = logger.take() {
                let op = RedoOp::RemoveTuple {
                    rid,
                    data: data.clone(),
                };
                let lsn = lg(&op);
                p.set_page_lsn(lsn);
                frame.note_dirtying_lsn(lsn);
            }
            Ok(data)
        })?;
        if let Ok(table) = self.table(rid.page.table) {
            table.note_slot_freed(rid.page.page_no);
        }
        Ok(data)
    }

    /// Reads the raw bytes of the tuple at `rid`.
    pub fn read_tuple_bytes(&self, tid: Option<TransactionId>, rid: RecordId) -> DbResult<Vec<u8>> {
        self.with_page(tid, rid.page, |p| Ok(p.read(rid.slot)?.to_vec()))
    }

    /// Reads one reserved timestamp field of the tuple at `rid`.
    pub fn read_timestamp(&self, rid: RecordId, field: TsField) -> DbResult<Timestamp> {
        self.with_page(None, rid.page, |p| p.timestamp(rid.slot, field))
    }

    /// Overwrites one reserved timestamp field in place (commit-time
    /// assignment; recovery's deletion-time copies). Updates the segment
    /// annotations.
    pub fn set_timestamp(
        &self,
        tid: Option<TransactionId>,
        rid: RecordId,
        field: TsField,
        ts: Timestamp,
    ) -> DbResult<()> {
        self.set_timestamp_logged(tid, rid, field, ts, None)
    }

    /// Logged variant of [`set_timestamp`](Self::set_timestamp); the log
    /// record carries the old value for undo.
    pub fn set_timestamp_logged(
        &self,
        tid: Option<TransactionId>,
        rid: RecordId,
        field: TsField,
        ts: Timestamp,
        mut logger: Option<&mut dyn FnMut(&RedoOp) -> Lsn>,
    ) -> DbResult<()> {
        if let Some(tid) = tid {
            self.lock_page(tid, rid.page, LockMode::Exclusive)?;
        }
        self.mutate_frame(rid.page, |p, frame| {
            let old = p.timestamp(rid.slot, field)?;
            p.set_timestamp(rid.slot, field, ts)?;
            if let Some(lg) = logger.take() {
                let op = RedoOp::SetTimestamp {
                    rid,
                    field,
                    old,
                    new: ts,
                };
                let lsn = lg(&op);
                p.set_page_lsn(lsn);
                frame.note_dirtying_lsn(lsn);
            }
            Ok(())
        })?;
        if ts.is_valid_commit_time() {
            let table = self.table(rid.page.table)?;
            match field {
                TsField::Insertion => table.note_insert_commit(rid.page.page_no, ts),
                TsField::Deletion => table.note_delete(rid.page.page_no, ts),
            }
        }
        Ok(())
    }

    /// Page ids of all dirty frames — the dirty pages table snapshot the
    /// checkpoint procedure takes (Fig 3-2).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.shards
            .iter()
            .flat_map(|s| {
                let _rank = lockrank::acquire(Rank::PoolShard);
                s.frames
                    .lock()
                    .map
                    .iter()
                    .filter(|(_, f)| f.dirty.load(Ordering::SeqCst))
                    .map(|(pid, _)| *pid)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Dirty pages with their recLSNs — the DPT snapshot that goes into an
    /// ARIES fuzzy checkpoint record. Pages dirtied by unlogged mutations
    /// report recLSN zero (maximally conservative: redo starts earlier).
    pub fn dirty_pages_with_reclsn(&self) -> Vec<(PageId, Lsn)> {
        self.shards
            .iter()
            .flat_map(|s| {
                let _rank = lockrank::acquire(Rank::PoolShard);
                s.frames
                    .lock()
                    .map
                    .iter()
                    .filter(|(_, f)| f.dirty.load(Ordering::SeqCst))
                    .map(|(pid, f)| {
                        let r = f.rec_lsn.load(Ordering::SeqCst);
                        (*pid, if r == u64::MAX { Lsn::ZERO } else { Lsn(r) })
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The resident frame of `pid`, if any.
    fn resident_frame(&self, pid: PageId) -> Option<Arc<Frame>> {
        let _rank = lockrank::acquire(Rank::PoolShard);
        self.shard(pid).frames.lock().map.get(&pid).cloned()
    }

    /// Writes back the frames of `pids` that are resident and dirty: the one
    /// write-back path for a list of pages (a checkpoint's dirty-page
    /// snapshot, [`Self::flush_all`], a FORCE commit's pages). The pages are
    /// sorted, and each run of up to [`RUN_PAGES`] adjacent pages of one
    /// table is one positional write ([`SegmentedHeapFile::write_run`]): the
    /// bytes and the page count are those of page-at-a-time writes; only the
    /// number of syscalls and their order differ.
    pub fn write_back(&self, mut pids: Vec<PageId>) -> DbResult<()> {
        pids.sort_unstable();
        pids.dedup();
        // Before any latch: the shard maps rank below `frame`.
        let dirty: Vec<(PageId, Arc<Frame>)> = pids
            .into_iter()
            .filter_map(|pid| Some((pid, self.resident_frame(pid)?)))
            .filter(|(_, frame)| frame.dirty.load(Ordering::SeqCst))
            .collect();
        let mut buf = Vec::with_capacity(dirty.len().min(RUN_PAGES) * PAGE_SIZE);
        let mut rest = &dirty[..];
        while let Some((first, _)) = rest.first() {
            let adjacent = |(i, (pid, _)): &(u32, &(PageId, Arc<Frame>))| {
                pid.table == first.table && pid.page_no.wrapping_sub(first.page_no) == *i
            };
            let len = (0..).zip(rest).take(RUN_PAGES).take_while(adjacent).count();
            let (run, tail) = rest.split_at(len);
            self.write_run(run, &mut buf, false)?;
            rest = tail;
        }
        Ok(())
    }

    /// Writes a resident frame back to disk even if it is clean, restamping
    /// the on-disk page (and its checksum) from the in-memory copy. Returns
    /// whether a frame was present. This is the scrubber's self-heal fast
    /// path: a write fault can corrupt the disk image while the frame stays
    /// intact, and [`BufferPool::write_back`] would skip the clean frame.
    pub fn force_rewrite(&self, pid: PageId) -> DbResult<bool> {
        let Some(frame) = self.resident_frame(pid) else {
            return Ok(false);
        };
        self.flush_frame(pid, &frame, true)?;
        Ok(true)
    }

    /// Flushes every dirty page (checkpoint body).
    pub fn flush_all(&self) -> DbResult<()> {
        self.write_back(self.dirty_pages())
    }

    /// Number of resident frames (tests / introspection).
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _rank = lockrank::acquire(Rank::PoolShard);
                s.frames.lock().map.len()
            })
            .sum()
    }

    /// The page LSN of `pid` as seen through the pool (loads if needed).
    pub fn page_lsn(&self, pid: PageId) -> DbResult<Lsn> {
        self.with_page(None, pid, |p| Ok(p.page_lsn()))
    }

    /// Applies a redo/undo operation, stamping `lsn` on the page and
    /// maintaining segment annotations — the ARIES glue.
    pub fn apply_redo(&self, op: &RedoOp, lsn: Lsn) -> DbResult<()> {
        let pid = op.page();
        let table = self.table(pid.table)?;
        table.ensure_page_allocated(pid.page_no)?;
        self.with_page_mut(None, pid, |p| {
            match op {
                RedoOp::InsertTuple { rid, data } => p.insert_at(rid.slot, data)?,
                RedoOp::RemoveTuple { rid, .. } => {
                    p.remove(rid.slot)?;
                }
                RedoOp::SetTimestamp {
                    rid, field, new, ..
                } => p.set_timestamp(rid.slot, *field, *new)?,
            }
            p.set_page_lsn(lsn);
            Ok(())
        })?;
        match op {
            RedoOp::RemoveTuple { .. } => table.note_slot_freed(pid.page_no),
            RedoOp::SetTimestamp { field, new, .. } if new.is_valid_commit_time() => match field {
                TsField::Insertion => table.note_insert_commit(pid.page_no, *new),
                TsField::Deletion => table.note_delete(pid.page_no, *new),
            },
            _ => {}
        }
        Ok(())
    }
}

/// A per-thread append cursor created by [`BufferPool::bulk_appender`]: the
/// write-side twin of the page visitor a scan reads through.
///
/// The cursor fills pages it allocated itself, each born in the pool
/// ([`BufferPool::born_page`]), so N cursors converge to N disjoint hot pages
/// instead of all probing the shared insert hint, and keeps its page's frame
/// **pinned** until it turns the page or is dropped: a row costs no pool
/// lookup and the page is never the clock's victim. The pin is not a latch —
/// between two [`place`](Self::place)s anyone may read, flush or mutate the
/// page, and a transactional insert may take one of its free slots. Pages it
/// abandons as full join the table's normal free-slot accounting.
pub struct BulkAppender {
    pool: Arc<BufferPool>,
    table: Arc<SegmentedHeapFile>,
    current: Option<(PageId, Arc<Frame>)>,
    /// The runs of slots of the page hold in progress, `(first slot, rows)`.
    runs: Vec<(u16, usize)>,
}

impl BulkAppender {
    /// Places the rows laid end to end in `rows`, each in its stored
    /// encoding, latch-only (recovery Phase 2 is lock-free at both sides,
    /// §5.4): into the free slots of the cursor's page, then of pages it
    /// allocates. A page is one write-latch hold — one [`Page::fill`], and
    /// what the rows did to the page said once, before the latch drops
    /// ([`SegmentedHeapFile::note_appended`]). Once it drops, `placed` hears
    /// each run of consecutive slots, in order: its first record id and its
    /// rows. On an error the rows before stay placed, and were heard.
    pub fn place(
        &mut self,
        mut rows: &[u8],
        mut placed: impl FnMut(RecordId, &[u8]),
    ) -> DbResult<()> {
        let width = self.table.tuple_size();
        if !rows.len().is_multiple_of(width) {
            return Err(DbError::internal("bulk rows are not whole rows"));
        }
        while !rows.is_empty() {
            let Some((pid, frame)) = &self.current else {
                self.current = Some(self.pool.born_page(&self.table)?);
                continue;
            };
            let pid = *pid;
            let filled = {
                let _rank = lockrank::acquire(Rank::Frame);
                let mut page = frame.page.write();
                let runs = &mut self.runs;
                let filled = page.fill(rows, |slot, n| runs.push((slot, n))) * width;
                if filled > 0 {
                    frame.dirty.store(true, Ordering::SeqCst);
                    self.table.note_appended(pid.page_no, &rows[..filled]);
                }
                filled
            };
            let (mine, rest) = rows.split_at(filled);
            let mut at = 0;
            for (slot, n) in self.runs.drain(..) {
                placed(RecordId::new(pid, slot), &mine[at..at + n * width]);
                at += n * width;
            }
            rows = rest;
            if !rows.is_empty() {
                // Full: by this cursor, or by an inserter probing candidates.
                self.table.note_page_full(pid.page_no);
                self.turn_page();
            }
        }
        Ok(())
    }

    /// Lets go of the current page.
    fn turn_page(&mut self) {
        if let Some((_, frame)) = self.current.take() {
            frame.pins.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for BulkAppender {
    fn drop(&mut self) {
        self.turn_page();
    }
}

/// Adapter implementing the WAL crate's [`harbor_wal::aries::RecoveryStorage`]
/// over the pool.
pub struct PoolRecovery<'a>(pub &'a BufferPool);

impl harbor_wal::aries::RecoveryStorage for PoolRecovery<'_> {
    fn page_lsn(&mut self, pid: PageId) -> DbResult<Lsn> {
        // A page belonging to an unknown table cannot exist on this site.
        if self.0.table(pid.table).is_err() {
            return Err(DbError::NoSuchTable(pid.table));
        }
        self.0
            .table(pid.table)?
            .ensure_page_allocated(pid.page_no)?;
        self.0.page_lsn(pid)
    }

    fn apply(&mut self, op: &RedoOp, lsn: Lsn) -> DbResult<()> {
        self.0.apply_redo(op, lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SegmentedHeapFile;
    use harbor_common::ids::SiteId;
    use harbor_common::{DiskProfile, FieldType, TupleDesc};
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.tbl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn desc() -> TupleDesc {
        TupleDesc::with_version_columns(vec![("id", FieldType::Int64)])
    }

    fn tuple_bytes(id: i64) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&u64::MAX.to_le_bytes()); // uncommitted
        v.extend_from_slice(&0u64.to_le_bytes());
        v.extend_from_slice(&id.to_le_bytes());
        v
    }

    fn setup(name: &str, capacity: usize) -> (BufferPool, PathBuf) {
        let path = temp(name);
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
        let table =
            SegmentedHeapFile::create(&path, TableId(1), desc(), 2, DiskProfile::fast(), metrics)
                .unwrap();
        pool.register_table(Arc::new(table));
        (pool, path)
    }

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    #[test]
    fn insert_and_read_back() {
        let (pool, path) = setup("insert", 16);
        let rid = pool
            .insert_tuple_bytes(Some(tid(1)), TableId(1), &tuple_bytes(42))
            .unwrap();
        let bytes = pool.read_tuple_bytes(Some(tid(1)), rid).unwrap();
        assert_eq!(&bytes[16..24], &42i64.to_le_bytes());
        assert_eq!(
            pool.read_timestamp(rid, TsField::Insertion).unwrap(),
            Timestamp::UNCOMMITTED
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inserts_roll_into_new_segments() {
        let (pool, path) = setup("segments", 64);
        let table = pool.table(TableId(1)).unwrap();
        let per_page = crate::page::slots_per_page(table.tuple_size());
        // Fill 2 pages (one segment) and one more tuple.
        let n = per_page * 2 + 1;
        for i in 0..n {
            pool.insert_tuple_bytes(None, TableId(1), &tuple_bytes(i as i64))
                .unwrap();
        }
        assert_eq!(table.num_segments(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freed_slots_are_reused_before_growth() {
        let (pool, path) = setup("reuse", 16);
        let rid = pool
            .insert_tuple_bytes(None, TableId(1), &tuple_bytes(1))
            .unwrap();
        pool.remove_tuple(None, rid).unwrap();
        let rid2 = pool
            .insert_tuple_bytes(None, TableId(1), &tuple_bytes(2))
            .unwrap();
        assert_eq!(rid, rid2, "dense packing reuses the freed slot");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eviction_respects_capacity_and_persists_data() {
        let (pool, path) = setup("evict", 4);
        let table = pool.table(TableId(1)).unwrap();
        let per_page = crate::page::slots_per_page(table.tuple_size());
        let n = per_page * 8; // 8 pages >> capacity 4
        for i in 0..n {
            pool.insert_tuple_bytes(None, TableId(1), &tuple_bytes(i as i64))
                .unwrap();
        }
        assert!(pool.resident() <= 5, "resident={}", pool.resident());
        assert!(pool.metrics().evictions() > 0);
        // Every tuple is still readable (reloaded from disk as needed).
        let mut seen = 0;
        for pid in table.all_page_ids() {
            seen += pool.with_page(None, pid, |p| Ok(p.used())).unwrap();
        }
        assert_eq!(seen, n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_page_snapshot_and_flush() {
        let (pool, path) = setup("dirty", 16);
        pool.insert_tuple_bytes(None, TableId(1), &tuple_bytes(1))
            .unwrap();
        assert_eq!(pool.dirty_pages().len(), 1);
        pool.flush_all().unwrap();
        assert!(pool.dirty_pages().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn set_timestamp_updates_segment_annotations() {
        let (pool, path) = setup("annot", 16);
        let rid = pool
            .insert_tuple_bytes(None, TableId(1), &tuple_bytes(5))
            .unwrap();
        pool.set_timestamp(None, rid, TsField::Insertion, Timestamp(30))
            .unwrap();
        pool.set_timestamp(None, rid, TsField::Deletion, Timestamp(35))
            .unwrap();
        let table = pool.table(TableId(1)).unwrap();
        let seg = table.segments()[0];
        assert_eq!(seg.tmin_insert, Timestamp(30));
        assert_eq!(seg.tmax_insert, Timestamp(30));
        assert_eq!(seg.tmax_delete, Timestamp(35));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transactional_writes_block_conflicting_writers() {
        let (pool, path) = setup("conflict", 16);
        let rid = pool
            .insert_tuple_bytes(Some(tid(1)), TableId(1), &tuple_bytes(1))
            .unwrap();
        // tid(1) holds X on the page; tid(2)'s write times out.
        let err = pool
            .with_page_mut(Some(tid(2)), rid.page, |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        // Lock-free (historical) read still proceeds.
        pool.with_page(None, rid.page, |p| {
            assert_eq!(p.used(), 1);
            Ok(())
        })
        .unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bulk_appenders_fill_disjoint_pages_concurrently() {
        let path = temp("bulk");
        let metrics = Metrics::new();
        let locks = Arc::new(LockManager::new(
            Duration::from_millis(100),
            metrics.clone(),
        ));
        let pool = Arc::new(BufferPool::new(
            256,
            locks,
            PagePolicy::steal_no_force(),
            metrics.clone(),
        ));
        let table =
            SegmentedHeapFile::create(&path, TableId(1), desc(), 4, DiskProfile::fast(), metrics)
                .unwrap();
        pool.register_table(Arc::new(table));
        let per_thread = 500;
        let rids: Vec<RecordId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let pool = pool.clone();
                    s.spawn(move || {
                        let mut app = pool.bulk_appender(TableId(1)).unwrap();
                        let mut rids = Vec::new();
                        // One run of all the rows: it spans several pages.
                        let ids = (t * per_thread) as i64..((t + 1) * per_thread) as i64;
                        let bytes: Vec<u8> = ids.flat_map(tuple_bytes).collect();
                        let width = tuple_bytes(0).len();
                        app.place(&bytes, |first, rows| {
                            let slots = first.slot..first.slot + (rows.len() / width) as u16;
                            rids.extend(slots.map(|slot| RecordId::new(first.page, slot)));
                        })
                        .unwrap();
                        rids
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        // Every append landed in a distinct slot.
        let mut unique = rids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4 * per_thread);
        // And every tuple is readable through the pool.
        let table = pool.table(TableId(1)).unwrap();
        let mut seen = 0;
        for pid in table.all_page_ids() {
            seen += pool.with_page(None, pid, |p| Ok(p.used())).unwrap();
        }
        assert_eq!(seen, 4 * per_thread);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zone_map_tracks_flush_and_invalidation() {
        let (pool, path) = setup("zones", 16);
        let table = pool.table(TableId(1)).unwrap();
        let rid = pool
            .insert_tuple_bytes(None, TableId(1), &tuple_bytes(1))
            .unwrap();
        assert!(
            table.zone_entry(rid.page.page_no).is_none(),
            "unflushed mutations leave no summary"
        );
        pool.flush_all().unwrap();
        let z = table
            .zone_entry(rid.page.page_no)
            .expect("flush stores a summary");
        assert_eq!(z.rows, 1);
        assert!(z.any_uncommitted);
        pool.set_timestamp(None, rid, TsField::Insertion, Timestamp(30))
            .unwrap();
        assert!(
            table.zone_entry(rid.page.page_no).is_none(),
            "mutation invalidates the summary"
        );
        pool.flush_all().unwrap();
        let z = table.zone_entry(rid.page.page_no).unwrap();
        assert!(!z.any_uncommitted);
        assert_eq!(z.ins_max, Timestamp(30));
        assert_eq!(z.max_del, Timestamp::ZERO);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_loses_unflushed_pages() {
        let path = temp("crash");
        let metrics = Metrics::new();
        {
            let locks = Arc::new(LockManager::new(Duration::from_millis(50), metrics.clone()));
            let pool = BufferPool::new(16, locks, PagePolicy::steal_no_force(), metrics.clone());
            let table = SegmentedHeapFile::create(
                &path,
                TableId(1),
                desc(),
                2,
                DiskProfile::fast(),
                metrics.clone(),
            )
            .unwrap();
            pool.register_table(Arc::new(table));
            let rid = pool
                .insert_tuple_bytes(None, TableId(1), &tuple_bytes(7))
                .unwrap();
            pool.flush_all().unwrap();
            // A second insert after the flush is never written back.
            pool.insert_tuple_bytes(None, TableId(1), &tuple_bytes(8))
                .unwrap();
            assert_eq!(rid.page.page_no, 1);
            // `pool` dropped here without flushing = crash.
        }
        let table =
            SegmentedHeapFile::open(&path, TableId(1), desc(), 2, DiskProfile::fast(), metrics)
                .unwrap();
        let page = table.read_page(1).unwrap();
        assert_eq!(page.used(), 1, "only the flushed tuple survives");
        std::fs::remove_file(&path).unwrap();
    }
}
