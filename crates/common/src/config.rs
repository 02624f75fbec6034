//! Runtime configuration knobs shared by the storage and transaction layers.

use crate::DbResult;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Page size used by the heap files and buffer pool. The thesis uses 4 KB
/// pages (§6.1.1).
pub const PAGE_SIZE: usize = 4096;

/// Bytes of every on-disk page reserved for its checksum trailer (the
/// page's last [`PAGE_CRC_LEN`] bytes, covering bytes
/// `0..PAGE_SIZE - PAGE_CRC_LEN`: eight FNV-1a lanes over the payload's
/// words, folded into one). Stamped on every page write and verified on
/// every fault-in, as the WAL checks its frames. The
/// slotted-page layout and the segment directory both size themselves
/// against [`PAGE_PAYLOAD`] so neither ever writes into the trailer.
pub const PAGE_CRC_LEN: usize = 4;

/// Usable page bytes — everything before the checksum trailer.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_CRC_LEN;

/// Tuples per `Response::Tuples` batch when a worker streams a scan back to
/// a peer. Large enough to amortise framing, small enough that a recovering
/// site can start applying before the stream finishes.
pub const SCAN_BATCH: usize = 512;

/// Hard ceiling on a single wire frame's payload. The transports read a
/// 4-byte length prefix and then allocate that many bytes; without a cap a
/// corrupt or hostile prefix allocates up to 4 GiB before the first payload
/// byte arrives. Anything legitimate (scan batches, recovery streams,
/// epoch-commit waves) stays far below this; a frame above it is treated as
/// corrupt framing, not as a request. Must stay above the 1 MiB frames the
/// transport conformance tests exercise.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Backoff hint stamped into [`crate::DbError::Overloaded`] sheds when the
/// shedding site has nothing smarter to say (and the fallback when a
/// remote shed's hint fails to parse back off the wire). Long enough to
/// let a queue of default depth drain at typical commit latency, short
/// enough that a shed burst costs a retrying client only a few tens of
/// milliseconds.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 25;

/// Default per-request deadline the front door stamps on requests that
/// arrive without one. Far below [`DEFAULT_RPC_DEADLINE`]: a serving-path
/// request that cannot start within a second is better shed (the client
/// retries against a drained queue) than queued into uselessness.
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(1);

/// Default liveness deadline for a single RPC round trip (and for each frame
/// of a streamed scan). A peer that produces no bytes for this long is
/// treated as failed even if its socket never closes — the partitioned-peer
/// case closed-connection detection (§5.5.1) cannot see. Generous by default
/// so ordinary deployments never trip it; chaos/soak runs shrink it.
pub const DEFAULT_RPC_DEADLINE: Duration = Duration::from_secs(30);

/// Default number of *extra* attempts for idempotent read RPCs (historical
/// queries, clock reads) after a transient failure. Commit-protocol messages
/// are never retried — a retransmitted PREPARE/COMMIT could double-apply.
pub const DEFAULT_READ_RETRIES: u32 = 2;

/// Base backoff between idempotent-read retry attempts (doubles per retry).
pub const DEFAULT_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Models the latency of stable storage.
///
/// The thesis machines force log records to 2006-era disks where a forced
/// write costs milliseconds; on modern NVMe (or a RAM-backed CI filesystem) a
/// real `fsync` can be ~10 µs, which would flatten Figures 6-2/6-3. The
/// profile decides, per forced write, whether to issue a real `fsync` and/or
/// sleep an emulated latency; every force is counted either way so Table 4.2
/// is measured from real executions. Its methods are the only code that
/// issues a durability syscall: [`Self::sync`] and [`Self::charge`] for a
/// forced write, [`Self::replace`] for a file rewritten whole. See
/// DESIGN.md §1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskProfile {
    /// Issue a real `File::sync_data` on force.
    pub real_fsync: bool,
    /// Additional emulated latency applied to every forced write.
    pub emulated_force_latency: Option<Duration>,
}

impl DiskProfile {
    /// Real fsync, no emulation — what a production deployment would run.
    pub const fn real() -> Self {
        DiskProfile {
            real_fsync: true,
            emulated_force_latency: None,
        }
    }

    /// No fsync, no emulation — fastest; used by unit tests that don't
    /// measure durability costs.
    pub const fn fast() -> Self {
        DiskProfile {
            real_fsync: false,
            emulated_force_latency: None,
        }
    }

    /// Emulates a 2006-era dedicated log disk: no real fsync (the data still
    /// reaches the OS file, so crash *simulation* remains exact) plus a fixed
    /// per-force latency.
    pub fn emulated(latency: Duration) -> Self {
        DiskProfile {
            real_fsync: false,
            emulated_force_latency: Some(latency),
        }
    }

    /// Makes what was written to `file` durable: a real `sync_data` iff
    /// `real_fsync`. [`Self::charge`] is apart, so a caller can sync under a
    /// lock and wait after dropping it.
    pub fn sync(&self, file: &File) -> DbResult<()> {
        if self.real_fsync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Sleeps the emulated force latency, if the profile has one.
    pub fn charge(&self) {
        if let Some(lat) = self.emulated_force_latency {
            std::thread::sleep(lat);
        }
    }

    /// Replaces the file at `path` with `bytes`: write `<path>.tmp`, sync
    /// it, rename it over `path`, then sync the directory so the rename is
    /// durable. A crash leaves the old file or the new one, never neither
    /// and never a torn one. The syncs follow the profile; the emulated
    /// latency is the caller's to [`Self::charge`].
    pub fn replace(&self, path: &Path, bytes: &[u8]) -> DbResult<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            self.sync(&f)?;
        }
        crash_point(ReplaceStep::TempWritten)?;
        std::fs::rename(&tmp, path)?;
        crash_point(ReplaceStep::Renamed)?;
        if self.real_fsync {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                File::open(parent)?.sync_all()?;
            }
        }
        Ok(())
    }
}

/// A step of [`DiskProfile::replace`] a crash test stops it after: armed in
/// [`CRASH_AFTER`], the thread's next `replace` returns `SiteDown` there, its
/// files as a crash would leave them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplaceStep {
    /// The temp file is written and synced; `path` is untouched.
    TempWritten,
    /// The temp file is renamed over `path`; the directory is not synced.
    Renamed,
}

thread_local! {
    /// The step this thread's next [`DiskProfile::replace`] crashes after.
    pub static CRASH_AFTER: std::cell::Cell<Option<ReplaceStep>> = const { std::cell::Cell::new(None) };
}

fn crash_point(step: ReplaceStep) -> DbResult<()> {
    if CRASH_AFTER.get() != Some(step) {
        return Ok(());
    }
    CRASH_AFTER.set(None);
    Err(crate::DbError::SiteDown(format!("crashed after {step:?}")))
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile::real()
    }
}

/// Storage-layer configuration.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// Buffer pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// Maximum data pages per segment (thesis: 10 MB segments = 2560 pages;
    /// tests and scaled benches use smaller values).
    pub segment_pages: u32,
    /// Disk latency model for forced writes.
    pub disk: DiskProfile,
    /// Lock wait before declaring a deadlock by timeout (§6.1.2).
    pub lock_timeout: Duration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            buffer_pool_pages: 4096, // 16 MB
            segment_pages: 256,      // 1 MB segments by default
            disk: DiskProfile::real(),
            lock_timeout: Duration::from_millis(500),
        }
    }
}

impl StorageConfig {
    /// A small configuration for unit tests: tiny segments so segment
    /// boundaries are exercised with few tuples, and no fsync.
    pub fn for_tests() -> Self {
        StorageConfig {
            buffer_pool_pages: 128,
            segment_pages: 4,
            disk: DiskProfile::fast(),
            lock_timeout: Duration::from_millis(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles() {
        assert!(DiskProfile::real().real_fsync);
        assert!(!DiskProfile::fast().real_fsync);
        let e = DiskProfile::emulated(Duration::from_millis(5));
        assert_eq!(e.emulated_force_latency, Some(Duration::from_millis(5)));
    }

    #[test]
    fn test_config_is_small() {
        let c = StorageConfig::for_tests();
        assert!(c.segment_pages <= 8);
        assert_eq!(c.disk, DiskProfile::fast());
    }
}
