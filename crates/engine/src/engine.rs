//! The versioned transaction engine for one site (thesis §6.1.4).
//!
//! Wraps the buffer pool with the timestamp/versioning layer:
//!
//! * `insert` writes the tuple immediately with an `UNCOMMITTED` insertion
//!   timestamp and records it in the transaction's insertion list;
//! * `delete` takes the exclusive page lock and records the tuple in the
//!   deletion list — *no page change happens until commit*, because the
//!   deletion timestamp is unknown before then (§4.1);
//! * `commit` assigns the coordinator-supplied commit time to every listed
//!   tuple in place, then releases locks;
//! * `abort` physically removes the inserted tuples (from the insertion
//!   list when logless; by walking the undo chain with CLRs when the
//!   log-based baseline is active).
//!
//! The engine is recovery-mechanism-agnostic at this level: with
//! `logging = true` it maintains a full ARIES write-ahead log (the
//! baseline); with `logging = false` it maintains no log at all and relies
//! on HARBOR's checkpoint + replica-query recovery, driven by the `harbor`
//! crate through the recovery primitives at the bottom of this file.

use crate::catalog::{Catalog, TableDef};
use crate::deletion_log::DeletionLog;
use crate::index::KeyIndex;
use crate::txn::{LocalTxnStatus, TxnState};
use harbor_common::codec::Decoder;
use harbor_common::fault::FaultPlan;
use harbor_common::tuple::transcode_wire_to_fixed;
use harbor_common::{
    DbError, DbResult, FieldType, Metrics, RecordId, SiteId, StorageConfig, TableId, Timestamp,
    TransactionId, Tuple, TupleDesc, Value,
};
use harbor_storage::table::ts_word;
use harbor_storage::{
    slots_per_page, BufferPool, Checkpointer, LockManager, LockMode, PagePolicy, PoolRecovery,
    SegmentedHeapFile,
};
use harbor_wal::aries::{self, AriesReport};
use harbor_wal::record::{CkptTxnState, LogPayload, LogRecord, RedoOp, TsField};
use harbor_wal::{GroupCommit, LogManager, Lsn};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Byte offset of the primary key within an encoded tuple (after the two
/// 8-byte version timestamps).
pub const KEY_OFFSET: usize = 16;

/// Logging behaviour for one commit-protocol step at this site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepLogging {
    /// Append a log record for this step.
    pub write: bool,
    /// Force the log through the record before returning (the "FW" of the
    /// protocol figures).
    pub force: bool,
}

impl StepLogging {
    /// No log activity (the optimized protocols).
    pub const OFF: StepLogging = StepLogging {
        write: false,
        force: false,
    };
    /// Plain (unforced) write.
    pub const WRITE: StepLogging = StepLogging {
        write: true,
        force: false,
    };
    /// Forced write.
    pub const FORCE: StepLogging = StepLogging {
        write: true,
        force: true,
    };
}

/// Construction options for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineOptions {
    pub site: SiteId,
    pub storage: StorageConfig,
    /// `true` = maintain the ARIES write-ahead log (baseline mode).
    pub logging: bool,
    pub group_commit: GroupCommit,
    pub policy: PagePolicy,
    /// The cluster's fault plan, which decides every heap-file page I/O of
    /// the site. `None` = pristine disks.
    pub faults: Option<Arc<FaultPlan>>,
}

impl EngineOptions {
    pub fn harbor(site: SiteId, storage: StorageConfig) -> Self {
        EngineOptions {
            site,
            storage,
            logging: false,
            group_commit: GroupCommit::enabled(),
            policy: PagePolicy::steal_no_force(),
            faults: None,
        }
    }

    pub fn aries(site: SiteId, storage: StorageConfig) -> Self {
        EngineOptions {
            site,
            storage,
            logging: true,
            group_commit: GroupCommit::enabled(),
            policy: PagePolicy::steal_no_force(),
            faults: None,
        }
    }

    /// Puts every heap file of the site under `plan`.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// The per-site storage + transaction engine.
pub struct Engine {
    site: SiteId,
    dir: PathBuf,
    opts: EngineOptions,
    metrics: Metrics,
    locks: Arc<LockManager>,
    pool: Arc<BufferPool>,
    wal: Option<Arc<LogManager>>,
    checkpointer: Arc<Checkpointer>,
    catalog: Catalog,
    txns: Mutex<HashMap<TransactionId, TxnState>>,
    /// Commits apply timestamps under a read guard; checkpoints take the
    /// write guard while choosing `T` and snapshotting dirty pages, so the
    /// set of included commits is well-defined.
    commit_gate: RwLock<()>,
    /// Largest commit time fully applied at this site.
    applied_clock: AtomicU64,
    indexes: Mutex<HashMap<TableId, Arc<KeyIndex>>>,
    /// Per-table deletion logs (the §5.2-footnote deletion vector).
    deletion_logs: Mutex<HashMap<TableId, Arc<DeletionLog>>>,
    /// Each live [`RecoveredInserter`]'s smallest staged insertion time
    /// (`u64::MAX`: nothing staged): rows a checkpoint must not claim yet.
    staged: Mutex<Vec<Weak<AtomicU64>>>,
    /// Transactions poisoned to vote NO at prepare (fault injection).
    poisoned: Mutex<HashSet<TransactionId>>,
}

impl Engine {
    /// Opens (or initializes) a site's engine rooted at `dir`. Does not run
    /// restart recovery — call [`Engine::aries_restart`] (baseline) or drive
    /// HARBOR recovery from the `harbor` crate.
    pub fn open(dir: impl AsRef<Path>, opts: EngineOptions) -> DbResult<Arc<Engine>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let metrics = Metrics::new();
        let locks = Arc::new(LockManager::new(opts.storage.lock_timeout, metrics.clone()));
        let pool = Arc::new(BufferPool::new(
            opts.storage.buffer_pool_pages,
            locks.clone(),
            opts.policy,
            metrics.clone(),
        ));
        let wal = if opts.logging {
            let wal = Arc::new(LogManager::open(
                dir.join("wal.log"),
                opts.group_commit,
                opts.storage.disk,
                metrics.clone(),
            )?);
            pool.attach_wal(wal.clone());
            Some(wal)
        } else {
            None
        };
        let checkpointer = Arc::new(Checkpointer::open(
            dir.join("checkpoint"),
            opts.storage.disk,
        )?);
        let catalog = Catalog::open(dir.join("catalog"), opts.storage.disk)?;
        let engine = Engine {
            site: opts.site,
            dir: dir.clone(),
            metrics,
            locks,
            pool,
            wal,
            applied_clock: AtomicU64::new(checkpointer.global().0),
            checkpointer,
            catalog,
            txns: Mutex::new(HashMap::new()),
            commit_gate: RwLock::new(()),
            indexes: Mutex::new(HashMap::new()),
            deletion_logs: Mutex::new(HashMap::new()),
            staged: Mutex::new(Vec::new()),
            poisoned: Mutex::new(HashSet::new()),
            opts,
        };
        for def in engine.catalog.all() {
            engine.open_heap(&def, /*cold_index=*/ true)?;
        }
        Ok(Arc::new(engine))
    }

    fn table_path(&self, id: TableId) -> PathBuf {
        self.dir.join(format!("t{}.tbl", id.0))
    }

    fn open_heap(&self, def: &TableDef, cold_index: bool) -> DbResult<()> {
        let path = self.table_path(def.id);
        let heap = if path.exists() {
            SegmentedHeapFile::open(
                &path,
                def.id,
                def.stored_desc(),
                self.opts.storage.segment_pages,
                self.opts.storage.disk,
                self.metrics.clone(),
            )?
        } else {
            SegmentedHeapFile::create(
                &path,
                def.id,
                def.stored_desc(),
                self.opts.storage.segment_pages,
                self.opts.storage.disk,
                self.metrics.clone(),
            )?
        };
        let heap = match &self.opts.faults {
            Some(plan) => heap.with_faults(plan.clone(), self.site),
            None => heap,
        };
        self.pool.register_table(Arc::new(heap));
        let idx = if cold_index {
            KeyIndex::cold(def.id, KEY_OFFSET)
        } else {
            KeyIndex::fresh(def.id, KEY_OFFSET)
        };
        self.indexes.lock().insert(def.id, Arc::new(idx));
        let dlog = if cold_index {
            DeletionLog::cold(def.id)
        } else {
            DeletionLog::fresh(def.id)
        };
        self.deletion_logs.lock().insert(def.id, Arc::new(dlog));
        Ok(())
    }

    /// Creates a table. The first user field must be the `Int64` tuple id.
    pub fn create_table(
        &self,
        name: &str,
        user_fields: Vec<(String, FieldType)>,
    ) -> DbResult<Arc<TableDef>> {
        let def = self.catalog.add(name, user_fields)?;
        self.open_heap(&def, /*cold_index=*/ false)?;
        Ok(def)
    }

    /// The definition of table `name`, shared with the catalog.
    pub fn table_def(&self, name: &str) -> Option<Arc<TableDef>> {
        self.catalog.by_name(name)
    }

    pub fn tables(&self) -> Vec<Arc<TableDef>> {
        self.catalog.all()
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    pub fn wal(&self) -> Option<&Arc<LogManager>> {
        self.wal.as_ref()
    }

    pub fn is_logging(&self) -> bool {
        self.wal.is_some()
    }

    pub fn checkpointer(&self) -> &Arc<Checkpointer> {
        &self.checkpointer
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The table's deletion log (§5.2-footnote deletion vector).
    pub fn deletion_log(&self, table: TableId) -> DbResult<Arc<DeletionLog>> {
        self.deletion_logs
            .lock()
            .get(&table)
            .cloned()
            .ok_or(DbError::NoSuchTable(table))
    }

    pub fn index(&self, table: TableId) -> DbResult<Arc<KeyIndex>> {
        self.indexes
            .lock()
            .get(&table)
            .cloned()
            .ok_or(DbError::NoSuchTable(table))
    }

    /// This site's view of "now": one past the largest applied commit time.
    pub fn local_now(&self) -> Timestamp {
        Timestamp(self.applied_clock.load(Ordering::SeqCst) + 1)
    }

    /// Advances the applied clock (workers learn times from coordinators).
    pub fn advance_applied_clock(&self, t: Timestamp) {
        self.applied_clock.fetch_max(t.0, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Registers a new transaction.
    pub fn begin(&self, tid: TransactionId) -> DbResult<()> {
        let mut txns = self.txns.lock();
        if txns.contains_key(&tid) {
            return Err(DbError::protocol(format!("{tid} already begun")));
        }
        let mut st = TxnState::new();
        if let Some(wal) = &self.wal {
            st.last_lsn = wal.append(&LogRecord::new(tid, Lsn::NONE, LogPayload::Begin));
        }
        txns.insert(tid, st);
        Ok(())
    }

    pub fn txn_status(&self, tid: TransactionId) -> Option<LocalTxnStatus> {
        self.txns.lock().get(&tid).map(|s| s.status)
    }

    pub fn active_txns(&self) -> Vec<TransactionId> {
        self.txns.lock().keys().copied().collect()
    }

    /// Marks `tid` to vote NO at its next prepare (fault injection for the
    /// abort paths of the commit protocols).
    pub fn poison(&self, tid: TransactionId) {
        self.poisoned.lock().insert(tid);
    }

    /// Appends an `Update` log record for `tid`, maintaining its chain.
    #[expect(
        clippy::expect_used,
        reason = "callers log only on a logging engine, for a transaction it began"
    )]
    fn log_update(&self, tid: TransactionId, op: &RedoOp) -> Lsn {
        let wal = self.wal.as_ref().expect("log_update requires logging");
        let mut txns = self.txns.lock();
        let st = txns.get_mut(&tid).expect("logged op for unknown txn");
        let lsn = wal.append(&LogRecord::new(
            tid,
            st.last_lsn,
            LogPayload::Update(op.clone()),
        ));
        st.last_lsn = lsn;
        lsn
    }

    /// Inserts a tuple for `tid` with an `UNCOMMITTED` insertion timestamp.
    pub fn insert(
        &self,
        tid: TransactionId,
        table_id: TableId,
        user_values: Vec<Value>,
    ) -> DbResult<RecordId> {
        let table = self.pool.table(table_id)?;
        let key = user_values
            .first()
            .ok_or_else(|| DbError::Schema("empty tuple".into()))?
            .as_i64()?;
        let tuple = Tuple::versioned(Timestamp::UNCOMMITTED, Timestamp::ZERO, user_values);
        let mut bytes = vec![0u8; table.tuple_size()];
        tuple.write_fixed(table.desc(), &mut bytes)?;
        let rid = if self.wal.is_some() {
            let mut logger = |op: &RedoOp| self.log_update(tid, op);
            self.pool
                .insert_tuple_bytes_logged(Some(tid), table_id, &bytes, Some(&mut logger))?
        } else {
            self.pool.insert_tuple_bytes(Some(tid), table_id, &bytes)?
        };
        self.index(table_id)?.insert(key, rid);
        let seg = table
            .segment_of_page(rid.page.page_no)
            .map(|s| s.0)
            .unwrap_or(0);
        let mut txns = self.txns.lock();
        let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
        st.note_insert(rid, key, seg);
        Ok(rid)
    }

    /// Registers a deletion: exclusive page lock now, deletion timestamp at
    /// commit (§4.1 — "there is no reason for the database to write
    /// uncommitted deletions").
    pub fn delete(&self, tid: TransactionId, rid: RecordId) -> DbResult<()> {
        self.pool.lock_page(tid, rid.page, LockMode::Exclusive)?;
        // Validate under the lock: tuple exists and is not already deleted.
        let (ins, del) = self.pool.with_page(None, rid.page, |p| {
            Ok((
                p.timestamp(rid.slot, TsField::Insertion)?,
                p.timestamp(rid.slot, TsField::Deletion)?,
            ))
        })?;
        if del != Timestamp::ZERO {
            return Err(DbError::Constraint(format!("{rid} is already deleted")));
        }
        let mut txns = self.txns.lock();
        let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
        if ins.is_uncommitted() && !st.insertions.iter().any(|(r, _)| *r == rid) {
            return Err(DbError::Internal(format!(
                "{rid} is uncommitted and not owned by {tid}"
            )));
        }
        if st.deletions.contains(&rid) {
            return Err(DbError::Constraint(format!("{rid} deleted twice by {tid}")));
        }
        st.note_delete(rid);
        Ok(())
    }

    /// Updates a tuple: a deletion of the old version plus an insertion of
    /// the new one (§3.3).
    pub fn update(
        &self,
        tid: TransactionId,
        rid: RecordId,
        new_user_values: Vec<Value>,
    ) -> DbResult<RecordId> {
        self.delete(tid, rid)?;
        self.insert(tid, rid.page.table, new_user_values)
    }

    /// Reads the stored tuple at `rid` (lock-free; callers needing
    /// transactional isolation lock the page first).
    pub fn read_tuple(&self, rid: RecordId) -> DbResult<Tuple> {
        let table = self.pool.table(rid.page.table)?;
        let bytes = self.pool.read_tuple_bytes(None, rid)?;
        Tuple::from_fixed(table.desc(), &bytes, Timestamp(ts_word(&bytes, 8)))
    }

    // ------------------------------------------------------------------
    // Commit processing (driven by the distributed protocols)
    // ------------------------------------------------------------------

    /// First-phase vote. `commit_bound` is the coordinator's clock when it
    /// sent PREPARE — the eventual commit time cannot be below it, which
    /// checkpoints rely on. An `Err` is a NO vote; the caller then aborts.
    pub fn prepare(
        &self,
        tid: TransactionId,
        commit_bound: Timestamp,
        log: StepLogging,
    ) -> DbResult<()> {
        if self.poisoned.lock().remove(&tid) {
            return Err(DbError::Constraint(format!(
                "{tid} failed constraint check"
            )));
        }
        let mut txns = self.txns.lock();
        let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
        if st.status != LocalTxnStatus::Pending {
            return Err(DbError::protocol(format!(
                "prepare in state {:?}",
                st.status
            )));
        }
        st.status = LocalTxnStatus::Prepared;
        st.bound_commit_time(commit_bound);
        if let (Some(wal), true) = (&self.wal, log.write) {
            let rec = LogRecord::new(
                tid,
                st.last_lsn,
                LogPayload::Prepare {
                    coordinator: tid.coordinator(),
                },
            );
            st.last_lsn = wal.append(&rec);
            let lsn = st.last_lsn;
            drop(txns);
            if log.force {
                wal.force(lsn)?;
            }
        }
        Ok(())
    }

    /// Enters the prepared-to-commit state with the assigned commit time
    /// (3PC second phase).
    pub fn prepare_to_commit(
        &self,
        tid: TransactionId,
        commit_time: Timestamp,
        log: StepLogging,
    ) -> DbResult<()> {
        let mut txns = self.txns.lock();
        let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
        match st.status {
            LocalTxnStatus::Prepared | LocalTxnStatus::PreparedToCommit(_) => {}
            s => {
                return Err(DbError::protocol(format!(
                    "prepare-to-commit in state {s:?}"
                )))
            }
        }
        st.status = LocalTxnStatus::PreparedToCommit(commit_time);
        st.bound_commit_time(commit_time);
        if let (Some(wal), true) = (&self.wal, log.write) {
            let rec = LogRecord::new(
                tid,
                st.last_lsn,
                LogPayload::PrepareToCommit { commit_time },
            );
            st.last_lsn = wal.append(&rec);
            let lsn = st.last_lsn;
            drop(txns);
            if log.force {
                wal.force(lsn)?;
            }
        }
        Ok(())
    }

    /// Commits: assigns `commit_time` to every tuple in the insertion and
    /// deletion lists, writes the commit record per `log`, honours a FORCE
    /// paging policy, releases locks and forgets the transaction.
    pub fn commit(
        &self,
        tid: TransactionId,
        commit_time: Timestamp,
        log: StepLogging,
    ) -> DbResult<()> {
        let (insertions, deletions) = {
            let mut txns = self.txns.lock();
            let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
            st.status = LocalTxnStatus::Committing(commit_time);
            st.bound_commit_time(commit_time);
            (st.insertions.clone(), st.deletions.clone())
        };
        {
            let _gate = self.commit_gate.read();
            for (rid, _) in &insertions {
                self.set_ts_logged(tid, *rid, TsField::Insertion, commit_time)?;
            }
            for rid in &deletions {
                self.set_ts_logged(tid, *rid, TsField::Deletion, commit_time)?;
                if let Ok(dlog) = self.deletion_log(rid.page.table) {
                    dlog.note(*rid, commit_time);
                }
            }
            self.applied_clock
                .fetch_max(commit_time.0, Ordering::SeqCst);
        }
        if let (Some(wal), true) = (&self.wal, log.write) {
            let last = self
                .txns
                .lock()
                .get(&tid)
                .map(|s| s.last_lsn)
                .unwrap_or(Lsn::NONE);
            let lsn = wal.append(&LogRecord::new(
                tid,
                last,
                LogPayload::Commit { commit_time },
            ));
            if let Some(st) = self.txns.lock().get_mut(&tid) {
                st.last_lsn = lsn;
            }
            if log.force {
                wal.force(lsn)?;
            }
        }
        if self.pool.policy().force {
            let pages = insertions.iter().map(|(r, _)| r.page);
            let pages = pages.chain(deletions.iter().map(|r| r.page)).collect();
            self.pool.write_back(pages)?;
        }
        if let Some(wal) = &self.wal {
            let last = self
                .txns
                .lock()
                .get(&tid)
                .map(|s| s.last_lsn)
                .unwrap_or(Lsn::NONE);
            wal.append(&LogRecord::new(
                tid,
                last,
                LogPayload::End {
                    outcome: harbor_wal::TxnOutcome::Committed,
                },
            ));
        }
        self.txns.lock().remove(&tid);
        self.locks.release_all(tid);
        self.metrics.add_commits(1);
        Ok(())
    }

    fn set_ts_logged(
        &self,
        tid: TransactionId,
        rid: RecordId,
        field: TsField,
        ts: Timestamp,
    ) -> DbResult<()> {
        if self.wal.is_some() {
            let mut logger = |op: &RedoOp| self.log_update(tid, op);
            self.pool
                .set_timestamp_logged(Some(tid), rid, field, ts, Some(&mut logger))
        } else {
            self.pool.set_timestamp(Some(tid), rid, field, ts)
        }
    }

    /// Aborts: rolls back the transaction's changes, releases locks and
    /// forgets it. Logless rollback uses the insertion list; the log-based
    /// baseline walks the undo chain writing CLRs.
    pub fn abort(&self, tid: TransactionId, log: StepLogging) -> DbResult<()> {
        let (insertions, deletions_empty, last_lsn) = {
            let mut txns = self.txns.lock();
            let Some(st) = txns.get_mut(&tid) else {
                // Unknown transaction: nothing to roll back (workers that
                // crashed and recovered answer "abort" for unknown txns).
                return Ok(());
            };
            st.status = LocalTxnStatus::Aborting;
            (st.insertions.clone(), st.deletions.is_empty(), st.last_lsn)
        };
        if insertions.is_empty() && deletions_empty {
            // Read-only: "the coordinator merely needs to notify the
            // workers to release any system resources and locks" (§4.3) —
            // no log records, no rollback work.
            self.txns.lock().remove(&tid);
            self.locks.release_all(tid);
            self.metrics.add_aborts(1);
            return Ok(());
        }
        if let Some(wal) = &self.wal {
            if log.write {
                let lsn = wal.append(&LogRecord::new(tid, last_lsn, LogPayload::Abort));
                if log.force {
                    wal.force(lsn)?;
                }
            }
            self.undo_chain(tid, last_lsn)?;
            for (rid, key) in &insertions {
                self.unindex(*rid, *key);
            }
        } else {
            // Logless rollback: remove newly inserted tuples; deletions need
            // no undo because their timestamps were never written (§4.1).
            // Each tuple is forgotten as it goes: a rollback that a disk
            // fault stops part-way is retried (by the connection's close,
            // by termination), and must resume, not remove a tuple twice.
            for (rid, key) in insertions.iter().rev() {
                self.pool.remove_tuple(Some(tid), *rid)?;
                self.unindex(*rid, *key);
                if let Some(st) = self.txns.lock().get_mut(&tid) {
                    st.insertions.pop();
                }
            }
        }
        if let Some(wal) = &self.wal {
            let last = self
                .txns
                .lock()
                .get(&tid)
                .map(|s| s.last_lsn)
                .unwrap_or(last_lsn);
            wal.append(&LogRecord::new(
                tid,
                last,
                LogPayload::End {
                    outcome: harbor_wal::TxnOutcome::Aborted,
                },
            ));
        }
        self.txns.lock().remove(&tid);
        self.locks.release_all(tid);
        self.metrics.add_aborts(1);
        Ok(())
    }

    /// Drops the key-index entry of a tuple that a rollback removed.
    fn unindex(&self, rid: RecordId, key: i64) {
        if let Ok(idx) = self.index(rid.page.table) {
            idx.remove(key, rid);
        }
    }

    /// Walks one transaction's log chain backwards, applying inverses and
    /// writing CLRs (normal-processing rollback under the baseline).
    fn undo_chain(&self, tid: TransactionId, from: Lsn) -> DbResult<()> {
        #[expect(
            clippy::expect_used,
            reason = "only a logging engine rolls back by its log"
        )]
        let wal = self.wal.as_ref().expect("undo requires logging");
        let mut cursor = from;
        while !cursor.is_none() {
            let (rec, _) = wal.read_record(cursor)?;
            match rec.payload {
                LogPayload::Update(op) => {
                    let inverse = op.inverse();
                    let clr_lsn = {
                        let mut txns = self.txns.lock();
                        let st = txns.get_mut(&tid).ok_or(DbError::UnknownTransaction(tid))?;
                        let lsn = wal.append(&LogRecord::new(
                            tid,
                            st.last_lsn,
                            LogPayload::Clr {
                                redo: inverse.clone(),
                                undo_next: rec.prev_lsn,
                            },
                        ));
                        st.last_lsn = lsn;
                        lsn
                    };
                    self.pool.apply_redo(&inverse, clr_lsn)?;
                    cursor = rec.prev_lsn;
                }
                LogPayload::Clr { undo_next, .. } => cursor = undo_next,
                _ => cursor = rec.prev_lsn,
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Runs one HARBOR checkpoint (Fig 3-2). Picks the largest safe `T`:
    /// the applied clock, clamped below every in-flight commit bound and
    /// every row a [`RecoveredInserter`] holds staged. Also
    /// records, per table, the lowest segment that may hold uncommitted
    /// tuples (Phase 1's scan start). Returns the checkpoint time.
    pub fn checkpoint(&self) -> DbResult<Timestamp> {
        if self.checkpointer.is_suspended() {
            return Ok(self.checkpointer.global());
        }
        let (t, snapshot, scan_start) = {
            let _gate = self.commit_gate.write();
            let mut t = self.local_now().prev();
            // harbor-lint: allow(lock-across-blocking) — the checkpoint must freeze commits (gate) while snapshotting txn state; gate→txns is the only nesting order anywhere
            let txns = self.txns.lock();
            let mut min_seg: HashMap<TableId, u32> = HashMap::new();
            for st in txns.values() {
                if let Some(b) = st.commit_bound {
                    t = t.min(b.prev());
                }
                for (table, seg) in &st.min_insert_segment {
                    min_seg
                        .entry(*table)
                        .and_modify(|s| *s = (*s).min(*seg))
                        .or_insert(*seg);
                }
            }
            drop(txns);
            // Read before the dirty pages are: a stage placed before this
            // read is in the snapshot, one still staged bounds `t`.
            for floor in self.staged.lock().iter().filter_map(Weak::upgrade) {
                t = t.min(Timestamp(floor.load(Ordering::SeqCst)).prev());
            }
            let snapshot = self.pool.dirty_pages();
            let mut scan_start = Vec::new();
            for id in self.pool.table_ids() {
                let table = self.pool.table(id)?;
                let last = table.last_segment().0;
                let s = min_seg.get(&id).copied().unwrap_or(last).min(last);
                scan_start.push((id, s));
            }
            (t, snapshot, scan_start)
        };
        // Note: the flush must happen even when `t` has not advanced past
        // the recorded checkpoint — dirty pages can carry data with *old*
        // commit timestamps (bulk loads, recovery copies), and the existing
        // checkpoint's durability contract covers them.
        self.checkpointer.checkpoint(
            &self.pool,
            t.max(self.checkpointer.global()),
            snapshot,
            scan_start,
        )
    }

    /// Appends an ARIES fuzzy checkpoint record and updates the master
    /// record (baseline mode).
    pub fn log_checkpoint(&self) -> DbResult<()> {
        let Some(wal) = &self.wal else {
            return Err(DbError::internal("log_checkpoint requires logging"));
        };
        let att = {
            let txns = self.txns.lock();
            txns.iter()
                .map(|(tid, st)| {
                    let state = match st.status {
                        LocalTxnStatus::Pending => CkptTxnState::Active,
                        LocalTxnStatus::Prepared | LocalTxnStatus::PreparedToCommit(_) => {
                            CkptTxnState::Prepared
                        }
                        LocalTxnStatus::Committing(_) => CkptTxnState::Committing,
                        LocalTxnStatus::Aborting => CkptTxnState::Aborting,
                    };
                    (*tid, state, st.last_lsn)
                })
                .collect()
        };
        let dpt = self.pool.dirty_pages_with_reclsn();
        let ckpt_tid = TransactionId::from_parts(self.site, 0);
        let lsn = wal.append(&LogRecord::new(
            ckpt_tid,
            Lsn::NONE,
            LogPayload::Checkpoint { att, dpt },
        ));
        wal.force(lsn)?;
        wal.write_master(lsn)?;
        Ok(())
    }

    /// Runs ARIES restart recovery over the local log (baseline mode),
    /// registering in-doubt transactions and invalidating indexes.
    pub fn aries_restart(&self) -> DbResult<AriesReport> {
        let Some(wal) = &self.wal else {
            return Err(DbError::internal("aries_restart requires logging"));
        };
        let mut storage = PoolRecovery(&self.pool);
        let report = aries::recover(wal, &mut storage)?;
        let mut txns = self.txns.lock();
        for tid in &report.in_doubt {
            let mut st = TxnState::new();
            st.status = LocalTxnStatus::Prepared;
            txns.insert(*tid, st);
        }
        drop(txns);
        for idx in self.indexes.lock().values() {
            idx.invalidate();
        }
        for dlog in self.deletion_logs.lock().values() {
            dlog.invalidate();
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Recovery primitives (used by HARBOR's three-phase algorithm)
    // ------------------------------------------------------------------

    /// A per-thread inserter of already-committed tuples into `table_id`
    /// (recovery Phases 2/3: `INSERT LOCALLY` copies replica data without
    /// timestamp reassignment; scrub's repair and a bulk load are the same
    /// copy) through a private [`harbor_storage::BulkAppender`] page cursor:
    /// concurrent fetchers share neither the insert hint nor a page latch.
    pub fn recovered_inserter(&self, table_id: TableId) -> DbResult<RecoveredInserter> {
        let table = self.pool.table(table_id)?;
        let width = table.desc().byte_width();
        let floor = Arc::new(AtomicU64::new(u64::MAX));
        {
            let mut staged = self.staged.lock();
            staged.retain(|s| s.strong_count() > 0);
            staged.push(Arc::downgrade(&floor));
        }
        Ok(RecoveredInserter {
            appender: self.pool.bulk_appender(table_id)?,
            index: self.index(table_id)?,
            dlog: self.deletion_log(table_id)?,
            stage: vec![0; slots_per_page(width).max(1) * width],
            staged: 0,
            floor,
            metrics: self.metrics.clone(),
            table,
        })
    }

    /// Physically removes a tuple (recovery Phase 1's `DELETE LOCALLY`).
    pub fn remove_physical(&self, rid: RecordId) -> DbResult<()> {
        let old_del = self.pool.read_timestamp(rid, TsField::Deletion)?;
        let bytes = self.pool.remove_tuple(None, rid)?;
        if let Ok(idx) = self.index(rid.page.table) {
            let key = idx.key_from_bytes(&bytes);
            idx.remove(key, rid);
        }
        if let Ok(dlog) = self.deletion_log(rid.page.table) {
            dlog.unnote(rid, old_del);
        }
        Ok(())
    }

    /// Overwrites a deletion timestamp in place (Phase 1's undelete writes
    /// zero; Phases 2/3 copy the buddy's deletion times).
    pub fn set_deletion(&self, rid: RecordId, ts: Timestamp) -> DbResult<()> {
        let old = self.pool.read_timestamp(rid, TsField::Deletion)?;
        self.pool.set_timestamp(None, rid, TsField::Deletion, ts)?;
        if let Ok(dlog) = self.deletion_log(rid.page.table) {
            dlog.unnote(rid, old);
            dlog.note(rid, ts);
        }
        Ok(())
    }
}

/// See [`Engine::recovered_inserter`].
///
/// Every row is *staged* first: encoded into a private buffer of one page's
/// worth of rows, outside any latch — a tuple by [`Tuple::write_fixed`], a
/// scan reply's row by [`transcode_wire_to_fixed`] — and the stage is placed
/// whole by one [`BulkAppender::place`](harbor_storage::BulkAppender::place):
/// when it is full, on [`flush`](Self::flush), at the end of each
/// [`insert_wire`](Self::insert_wire) (which places what was staged before it
/// first, so rows land in the order they were handed over) and on drop. A
/// staged row is not visible to any reader until it is placed (PostgreSQL's
/// `COPY` buffers rows the same way), and bounds [`Engine::checkpoint`] until
/// then. Drop places what is left like `BufWriter` does: its error is
/// counted (`inserter_drop_failures`), not returned — call `flush` to see it.
pub struct RecoveredInserter {
    table: Arc<SegmentedHeapFile>,
    appender: harbor_storage::BulkAppender,
    index: Arc<KeyIndex>,
    dlog: Arc<DeletionLog>,
    /// Room for one page of rows in their stored encoding; the first
    /// `staged` rows are waiting to be placed.
    stage: Vec<u8>,
    staged: usize,
    /// The smallest insertion time staged, `u64::MAX` when nothing is; the
    /// engine's checkpoint reads it.
    floor: Arc<AtomicU64>,
    metrics: Metrics,
}

impl RecoveredInserter {
    /// Stages one already-committed tuple in its stored encoding. A row
    /// that does not fit the table's schema or carries no committed
    /// insertion time is refused here, at its own call, and leaves the rows
    /// staged before it staged. Filling the stage places it; an error doing
    /// so is this call's, and the stage's rows not yet placed are dropped.
    pub fn insert(&mut self, tuple: &Tuple) -> DbResult<()> {
        if self.stage_row(|desc, row| tuple.write_fixed(desc, row))? {
            self.flush()?;
        }
        Ok(())
    }

    /// Places the staged rows. On an error the rows before the failing one
    /// stay placed and the rest are dropped.
    pub fn flush(&mut self) -> DbResult<()> {
        self.place(|_| {})
    }

    /// Stages the next `rows` rows of a scan reply still in its receive
    /// buffer, each transcoded from its wire layout, after the staged ones,
    /// and places them a stage at a time. `placed` hears where each went; on
    /// an error the rows before stay, and nothing after the failing row is
    /// read.
    pub fn insert_wire(
        &mut self,
        rows: usize,
        wire: &mut Decoder<'_>,
        mut placed: impl FnMut(RecordId),
    ) -> DbResult<()> {
        self.flush()?;
        for _ in 0..rows {
            match self.stage_row(|desc, row| transcode_wire_to_fixed(desc, wire, row)) {
                Ok(false) => {}
                Ok(true) => self.place(&mut placed)?,
                Err(e) => {
                    self.place(&mut placed)?;
                    return Err(e);
                }
            }
        }
        self.place(placed)
    }

    /// Writes the next row into the stage with `encode` and checks that it
    /// carries a committed insertion time. Returns whether the stage is full.
    fn stage_row(
        &mut self,
        encode: impl FnOnce(&TupleDesc, &mut [u8]) -> DbResult<()>,
    ) -> DbResult<bool> {
        let desc = self.table.desc();
        let width = desc.byte_width();
        let row = &mut self.stage[self.staged * width..][..width];
        encode(desc, row)?;
        let inserted = committed_insertion(row)?;
        if inserted.0 < self.floor.load(Ordering::Relaxed) {
            self.floor.store(inserted.0, Ordering::SeqCst);
        }
        self.staged += 1;
        Ok(self.staged * width == self.stage.len())
    }

    /// Places the stage with one cursor call and empties it. The deletion
    /// log, the index and `placed` hear each run of slots it went to once
    /// its page latch is dropped (elsewhere both are locked *before*
    /// latches), read from the stage: one lock each a run. On an error the
    /// rows before stay placed and the rest are dropped.
    fn place(&mut self, mut placed: impl FnMut(RecordId)) -> DbResult<()> {
        let width = self.table.tuple_size();
        let rows = &self.stage[..std::mem::take(&mut self.staged) * width];
        let (index, dlog) = (&self.index, &self.dlog);
        let result = self.appender.place(rows, |first, rows| {
            let rids = (first.slot..).map(|slot| RecordId::new(first.page, slot));
            let run = || rows.chunks_exact(width).zip(rids.clone());
            dlog.note_run(run().map(|(row, rid)| (rid, Timestamp(ts_word(row, 8)))));
            index.insert_run(run().map(|(row, rid)| (index.key_from_bytes(row), rid)));
            run().for_each(|(_, rid)| placed(rid));
        });
        // Only now: until its rows are in their pages, the stage bounds a
        // checkpoint.
        self.floor.store(u64::MAX, Ordering::SeqCst);
        result
    }
}

impl Drop for RecoveredInserter {
    fn drop(&mut self) {
        if self.flush().is_err() {
            self.metrics.add_inserter_drop_failures(1);
        }
    }
}

/// The insertion time of a stored row, which a recovered row must have been
/// committed at.
fn committed_insertion(row: &[u8]) -> DbResult<Timestamp> {
    let inserted = Timestamp(ts_word(row, 0));
    if !inserted.is_valid_commit_time() {
        return Err(DbError::internal(
            "a recovered row requires a committed insertion timestamp",
        ));
    }
    Ok(inserted)
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("site", &self.site)
            .field("dir", &self.dir)
            .field("logging", &self.is_logging())
            .finish()
    }
}
