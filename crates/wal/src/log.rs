//! The log manager: an append-only, force-on-demand on-disk log.
//!
//! Semantics follow the thesis exactly:
//!
//! * `append` buffers a record in memory and returns its LSN; nothing is
//!   durable yet (a crash loses the buffered tail, which is what makes
//!   forced writes at commit points necessary in the first place).
//! * `force(lsn)` synchronously makes every record up to and including `lsn`
//!   durable. With [`GroupCommit`] enabled, concurrent forces share a single
//!   physical sync ("batch together the log records for multiple
//!   transactions and write the records to disk using a single disk I/O",
//!   §4.3.2); disabled, each force performs its own serialized sync, which
//!   is the "2PC without group commit" configuration of Figure 6-2.
//! * Every logical force and every physical sync is counted in [`Metrics`]
//!   so the evaluation measures Table 4.2 rather than asserting it.
//!
//! On-disk frame: `[len: u32][fnv1a-checksum: u32][record bytes]`. The LSN of
//! a record is the byte offset of its frame; a torn or half-written tail
//! fails the checksum and is truncated at open, exactly the behaviour a
//! forced write protects against.

use crate::record::LogRecord;
use crate::Lsn;
use harbor_common::codec::{Decoder, Encoder, Wire};
use harbor_common::{DbError, DbResult, DiskProfile, Metrics};
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Group commit configuration (§6.2: the evaluation uses group commit with
/// no delay timer; 1–5 ms timers only hurt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupCommit {
    /// Concurrent forces batch into one physical sync, with an optional
    /// delay timer that holds the flusher back to accumulate more records.
    Enabled { delay: Option<Duration> },
    /// Every force performs its own physical sync (serialized).
    Disabled,
}

impl GroupCommit {
    pub fn enabled() -> Self {
        GroupCommit::Enabled { delay: None }
    }
}

const FRAME_HEADER: u64 = 8;

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

struct Inner {
    file: File,
    /// Bytes appended but not yet written+synced. Starts at `buf_start`.
    buf: Vec<u8>,
    /// LSN of the first byte in `buf`.
    buf_start: u64,
    /// LSN one past the last appended byte.
    end_lsn: u64,
    /// LSN one past the last durable byte (always a frame boundary).
    durable_end: u64,
    /// A group-commit flusher is in flight.
    flushing: bool,
}

/// The write-ahead log for one site.
pub struct LogManager {
    path: PathBuf,
    inner: Mutex<Inner>,
    cond: Condvar,
    group_commit: GroupCommit,
    disk: DiskProfile,
    metrics: Metrics,
}

impl LogManager {
    /// Opens (or creates) the log at `path`, validating existing frames and
    /// truncating any torn tail left by a crash.
    pub fn open(
        path: impl AsRef<Path>,
        group_commit: GroupCommit,
        disk: DiskProfile,
        metrics: Metrics,
    ) -> DbResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let valid_end = scan_valid_end(&file)?;
        file.set_len(valid_end)?;
        Ok(LogManager {
            path,
            inner: Mutex::new(Inner {
                file,
                buf: Vec::new(),
                buf_start: valid_end,
                end_lsn: valid_end,
                durable_end: valid_end,
                flushing: false,
            }),
            cond: Condvar::new(),
            group_commit,
            disk,
            metrics,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a record to the in-memory tail and returns its LSN.
    pub fn append(&self, record: &LogRecord) -> Lsn {
        let body = record.to_vec();
        let mut frame = Encoder::with_capacity(body.len() + FRAME_HEADER as usize);
        frame.put_u32(body.len() as u32);
        frame.put_u32(fnv1a(&body));
        frame.put_raw(&body);
        let mut g = self.inner.lock();
        let lsn = Lsn(g.end_lsn);
        g.end_lsn += frame.len() as u64;
        g.buf.extend_from_slice(frame.as_slice());
        drop(g);
        self.metrics.add_log_writes(1);
        lsn
    }

    /// Appends and immediately forces — the "force-write" (FW) of the
    /// protocol figures.
    pub fn append_forced(&self, record: &LogRecord) -> DbResult<Lsn> {
        let lsn = self.append(record);
        self.force(lsn)?;
        Ok(lsn)
    }

    /// Appends all `records` and forces once, to the LSN of the last one —
    /// the epoch group-commit write: one physical force covers the whole
    /// batch of per-txn decision records, and the `n - 1` syncs a serial
    /// commit loop would have issued are counted in `batched_syncs_saved`.
    /// Returns the LSN of the last record (`None` for an empty batch).
    pub fn append_all_forced(&self, records: &[LogRecord]) -> DbResult<Option<Lsn>> {
        let mut last = None;
        for r in records {
            last = Some(self.append(r));
        }
        match last {
            Some(lsn) => {
                self.force(lsn)?;
                self.metrics
                    .add_batched_syncs_saved(records.len() as u64 - 1);
                Ok(Some(lsn))
            }
            None => Ok(None),
        }
    }

    /// LSN one past the last durable byte.
    pub fn durable_end(&self) -> Lsn {
        Lsn(self.inner.lock().durable_end)
    }

    /// LSN one past the last appended byte.
    pub fn end(&self) -> Lsn {
        Lsn(self.inner.lock().end_lsn)
    }

    /// `true` if the record starting at `lsn` has reached stable storage.
    pub fn is_durable(&self, lsn: Lsn) -> bool {
        self.inner.lock().durable_end > lsn.0
    }

    /// Synchronously makes every record up to and including `lsn` durable.
    pub fn force(&self, lsn: Lsn) -> DbResult<()> {
        self.metrics.add_forced_writes(1);
        match self.group_commit {
            GroupCommit::Enabled { delay } => self.force_grouped(lsn, delay),
            GroupCommit::Disabled => self.force_solo(lsn),
        }
    }

    /// Flushes everything appended so far (used by WAL-before-page-write and
    /// by "periodically flush the log" in the recovery experiments, §6.4).
    pub fn flush_all(&self) -> DbResult<()> {
        let end = self.end();
        if end.0 == 0 {
            return Ok(());
        }
        self.force(Lsn(end.0 - 1))
    }

    fn force_grouped(&self, lsn: Lsn, delay: Option<Duration>) -> DbResult<()> {
        loop {
            let mut g = self.inner.lock();
            if g.durable_end > lsn.0 {
                return Ok(());
            }
            if g.flushing {
                // Another force is syncing; it will cover our records if it
                // took the buffer after our append — re-check when it ends.
                self.cond.wait(&mut g);
                continue;
            }
            g.flushing = true;
            drop(g);
            if let Some(d) = delay {
                // Group delay timer: hold back to accumulate more records.
                std::thread::sleep(d);
            }
            self.flush_claimed()?;
        }
    }

    fn force_solo(&self, lsn: Lsn) -> DbResult<()> {
        // Without group commit, "the synchronous log I/Os of different
        // transactions cannot be overlapped" (§6.3.1): a force whose
        // records were not yet durable when it was issued performs its own
        // serialized physical sync, even if a concurrent flush happened to
        // carry its bytes to the file in the meantime.
        let mut g = self.inner.lock();
        if g.durable_end > lsn.0 {
            return Ok(()); // already durable before the call: no I/O
        }
        while g.flushing {
            self.cond.wait(&mut g);
        }
        g.flushing = true;
        drop(g);
        self.flush_claimed()
    }

    /// Flushes as the one flusher (the caller set `flushing`), then lets the
    /// waiting forces go.
    fn flush_claimed(&self) -> DbResult<()> {
        let res = self.do_flush();
        self.inner.lock().flushing = false;
        self.cond.notify_all();
        res
    }

    /// Writes the current buffer to the file and syncs per the disk
    /// profile. The sync happens even when the buffer is empty: a solo
    /// (non-grouped) force models one dedicated disk operation. The
    /// emulated latency is charged after the lock is dropped, so records
    /// appended meanwhile join the next group.
    fn do_flush(&self) -> DbResult<()> {
        let mut g = self.inner.lock();
        let data = std::mem::take(&mut g.buf);
        let target_end = g.end_lsn;
        let write_at = std::mem::replace(&mut g.buf_start, target_end);
        g.file.write_all_at(&data, write_at)?;
        self.disk.sync(&g.file)?;
        drop(g);
        self.disk.charge();
        self.metrics.add_physical_syncs(1);
        let mut g = self.inner.lock();
        g.durable_end = g.durable_end.max(target_end);
        Ok(())
    }

    /// Reads the record at `lsn`, whether it is still buffered or on disk.
    /// Used by rollback and by the undo pass following `prev_lsn` chains.
    pub fn read_record(&self, lsn: Lsn) -> DbResult<(LogRecord, Lsn)> {
        let g = self.inner.lock();
        let (rec, len) = match lsn.0.checked_sub(g.buf_start) {
            Some(off) => decode_frame(g.buf.get(off as usize..).unwrap_or_default())?,
            None => read_frame(&g.file, lsn.0, g.buf_start)?,
        };
        Ok((rec, Lsn(lsn.0 + len)))
    }

    /// Iterates `(lsn, record)` pairs from `from` to the current end,
    /// including the buffered tail. Restart recovery scans only durable
    /// records because after a crash the buffer is empty by construction.
    pub fn scan(&self, from: Lsn) -> DbResult<Vec<(Lsn, LogRecord)>> {
        let end = self.end();
        let mut out = Vec::new();
        let mut at = from;
        while at < end {
            let (rec, next) = self.read_record(at)?;
            out.push((at, rec));
            at = next;
        }
        Ok(out)
    }

    /// Persists the LSN of the most recent checkpoint record to the master
    /// file next to the log (ARIES master record), replacing it atomically.
    pub fn write_master(&self, ckpt: Lsn) -> DbResult<()> {
        self.disk.replace(&self.master_path(), &ckpt.to_vec())
    }

    /// Reads the master record, if any checkpoint has been taken.
    pub fn read_master(&self) -> DbResult<Option<Lsn>> {
        match std::fs::read(self.master_path()) {
            Ok(bytes) => Lsn::from_slice(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn master_path(&self) -> PathBuf {
        let mut path = self.path.clone().into_os_string();
        path.push(".master");
        path.into()
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// The record framed at the start of `bytes`, and the frame's length.
fn decode_frame(bytes: &[u8]) -> DbResult<(LogRecord, u64)> {
    let mut dec = Decoder::new(bytes);
    let len = dec.get_u32()?;
    let sum = dec.get_u32()?;
    let body = dec.take(len as usize)?;
    if fnv1a(body) != sum {
        return Err(DbError::corrupt("log record checksum mismatch"));
    }
    Ok((LogRecord::from_slice(body)?, FRAME_HEADER + len as u64))
}

/// The record framed at `at` in a log file whose first `end` bytes are
/// frames, and the frame's length.
fn read_frame(file: &File, at: u64, end: u64) -> DbResult<(LogRecord, u64)> {
    let mut header = [0u8; FRAME_HEADER as usize];
    file.read_exact_at(&mut header, at)?;
    let len = FRAME_HEADER + Decoder::new(&header).get_u32()? as u64;
    if at + len > end {
        return Err(DbError::corrupt("log frame runs past the end"));
    }
    let mut frame = vec![0u8; len as usize];
    file.read_exact_at(&mut frame, at)?;
    decode_frame(&frame)
}

/// Scans frames from the start of the file, returning the offset after the
/// last valid frame.
fn scan_valid_end(file: &File) -> DbResult<u64> {
    let len = file.metadata()?.len();
    let mut at = 0;
    while let Ok((_, frame)) = read_frame(file, at, len) {
        at += frame;
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, LogRecord};
    use harbor_common::ids::{SiteId, TransactionId};
    use harbor_common::Timestamp;
    use std::io::Write;

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    fn rec(n: u64) -> LogRecord {
        LogRecord::new(
            tid(n),
            Lsn::NONE,
            LogPayload::Commit {
                commit_time: Timestamp(n),
            },
        )
    }

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    fn open(path: &Path) -> LogManager {
        LogManager::open(
            path,
            GroupCommit::enabled(),
            DiskProfile::fast(),
            Metrics::new(),
        )
        .unwrap()
    }

    #[test]
    fn append_force_scan_round_trip() {
        let path = temp_log("round-trip");
        let _ = std::fs::remove_file(&path);
        let log = open(&path);
        let l0 = log.append(&rec(0));
        let l1 = log.append(&rec(1));
        assert!(!log.is_durable(l1));
        log.force(l1).unwrap();
        assert!(log.is_durable(l0) && log.is_durable(l1));
        let all = log.scan(Lsn::ZERO).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, rec(0));
        assert_eq!(all[1].1, rec(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unforced_tail_is_lost_on_crash() {
        let path = temp_log("crash-tail");
        let _ = std::fs::remove_file(&path);
        let log = open(&path);
        let l0 = log.append(&rec(0));
        log.force(l0).unwrap();
        let _l1 = log.append(&rec(1)); // never forced
        drop(log); // crash: buffered tail vanishes
        let log = open(&path);
        let all = log.scan(Lsn::ZERO).unwrap();
        assert_eq!(all.len(), 1, "only the forced record survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_open() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        let log = open(&path);
        let l0 = log.append(&rec(0));
        log.force(l0).unwrap();
        drop(log);
        // Simulate a torn write: append garbage to the file.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        }
        let log = open(&path);
        assert_eq!(log.scan(Lsn::ZERO).unwrap().len(), 1);
        // The log remains appendable after truncation.
        let l1 = log.append(&rec(7));
        log.force(l1).unwrap();
        assert_eq!(log.scan(Lsn::ZERO).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_record_reaches_buffered_and_durable_records() {
        let path = temp_log("read-mixed");
        let _ = std::fs::remove_file(&path);
        let log = open(&path);
        let l0 = log.append(&rec(0));
        log.force(l0).unwrap();
        let l1 = log.append(&rec(1)); // still buffered
        let (r0, _) = log.read_record(l0).unwrap();
        let (r1, _) = log.read_record(l1).unwrap();
        assert_eq!(r0, rec(0));
        assert_eq!(r1, rec(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_physical_syncs() {
        let path = temp_log("group");
        let _ = std::fs::remove_file(&path);
        let metrics = Metrics::new();
        let log = std::sync::Arc::new(
            LogManager::open(
                &path,
                GroupCommit::Enabled {
                    delay: Some(Duration::from_millis(5)),
                },
                DiskProfile::fast(),
                metrics.clone(),
            )
            .unwrap(),
        );
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let log = log.clone();
                std::thread::spawn(move || {
                    let l = log.append(&rec(i));
                    log.force(l).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(metrics.forced_writes(), 8);
        assert!(
            metrics.physical_syncs() < 8,
            "expected batching, got {} syncs",
            metrics.physical_syncs()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_all_forced_syncs_once_per_batch() {
        let path = temp_log("epoch-batch");
        let _ = std::fs::remove_file(&path);
        let metrics = Metrics::new();
        let log = LogManager::open(
            &path,
            GroupCommit::Disabled,
            DiskProfile::fast(),
            metrics.clone(),
        )
        .unwrap();
        assert_eq!(log.append_all_forced(&[]).unwrap(), None);
        assert_eq!(metrics.physical_syncs(), 0);
        let batch: Vec<LogRecord> = (0..4).map(rec).collect();
        let last = log.append_all_forced(&batch).unwrap().unwrap();
        assert!(log.is_durable(last));
        assert_eq!(metrics.log_writes(), 4);
        assert_eq!(metrics.forced_writes(), 1);
        assert_eq!(metrics.physical_syncs(), 1);
        assert_eq!(metrics.batched_syncs_saved(), 3);
        assert_eq!(log.scan(Lsn::ZERO).unwrap().len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forced_write_counters_accumulate() {
        let path = temp_log("counters");
        let _ = std::fs::remove_file(&path);
        let metrics = Metrics::new();
        let log = LogManager::open(
            &path,
            GroupCommit::Disabled,
            DiskProfile::fast(),
            metrics.clone(),
        )
        .unwrap();
        let l = log.append_forced(&rec(0)).unwrap();
        assert!(log.is_durable(l));
        assert_eq!(metrics.log_writes(), 1);
        assert_eq!(metrics.forced_writes(), 1);
        assert_eq!(metrics.physical_syncs(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
