//! Raw page-granular file I/O and the on-disk checkpoint record.

use harbor_common::codec;
use harbor_common::config::{PAGE_PAYLOAD, PAGE_SIZE};
use harbor_common::fault::{Effect, Fault, FaultPlan};
use harbor_common::{
    wire_struct, DbError, DbResult, DiskProfile, Metrics, SiteId, TableId, Timestamp,
};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Lanes of [`page_crc`]: independent multiply chains, which a core overlaps.
const CRC_LANES: usize = 8;
const _: () = assert!(PAGE_PAYLOAD.is_multiple_of(4));

/// The page checksum: [`CRC_LANES`] 32-bit FNV-1a states over the payload's
/// little-endian words — word `i` is absorbed by lane `i % CRC_LANES` —
/// folded by XOR with lane `l` rotated left `4 l` bits.
///
/// A single-bit (or single-word) difference reaches one lane. That lane's
/// step `h → (h ^ w) * prime` is a bijection of `h` for a given `w` and of `w`
/// for a given `h` (the prime is odd), so that lane ends different, the
/// others as they were, and the fold — a rotation is a bijection — differs.
pub fn page_crc(bytes: &[u8; PAGE_SIZE]) -> u32 {
    let mut lanes = [0x811c_9dc5u32; CRC_LANES];
    let absorb = |lanes: &mut [u32; CRC_LANES], group: &[u8]| {
        for (lane, w) in lanes.iter_mut().zip(group.chunks_exact(4)) {
            let w = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            *lane = (*lane ^ w).wrapping_mul(0x0100_0193);
        }
    };
    // The short last group apart: the loop over whole ones is what unrolls.
    let groups = bytes[..PAGE_PAYLOAD].chunks_exact(4 * CRC_LANES);
    let last = groups.remainder();
    for group in groups {
        absorb(&mut lanes, group);
    }
    absorb(&mut lanes, last);
    (0u32..)
        .zip(lanes)
        .fold(0, |acc, (l, h)| acc ^ h.rotate_left(4 * l))
}

/// Page-granular file: the backing store of one table's heap.
///
/// Reads and writes are positional (the buffer pool above ensures a page is
/// read or written by at most one frame at a time), and the file's length is
/// tracked here — it only grows, and only through [`TableFile::write_page`].
///
/// Every page carries a checksum trailer ([`page_crc`]) in its last
/// [`harbor_common::config::PAGE_CRC_LEN`] bytes: [`TableFile::write_page`]
/// stamps it over the outgoing image (data and directory pages alike) and
/// [`TableFile::read_page`] verifies it on every fault-in, failing with
/// [`DbError::CorruptPage`] on mismatch. An all-zero page is exempt: holes
/// from out-of-order flushes legitimately read back as zeroes ("never
/// flushed"), and a zero page cannot carry a zero trailer any other way —
/// `page_crc` of zeroes is nonzero.
pub struct TableFile {
    file: File,
    /// Bytes in the file.
    len: AtomicU64,
    disk: DiskProfile,
    metrics: Metrics,
    /// The owning table, stamped by `SegmentedHeapFile` right after
    /// construction so corrupt-page errors carry a real coordinate.
    table: AtomicU32,
    /// The cluster's fault plan and this file's site, given once the file
    /// is open (`SegmentedHeapFile::with_faults`); `None` outside fault
    /// runs.
    pub(crate) faults: Option<(Arc<FaultPlan>, SiteId)>,
}

impl TableFile {
    pub fn create(path: impl AsRef<Path>, disk: DiskProfile, metrics: Metrics) -> DbResult<Self> {
        let mut options = OpenOptions::new();
        options.create(true).truncate(true);
        Self::open_with(path, &mut options, disk, metrics)
    }

    pub fn open(path: impl AsRef<Path>, disk: DiskProfile, metrics: Metrics) -> DbResult<Self> {
        Self::open_with(path, &mut OpenOptions::new(), disk, metrics)
    }

    fn open_with(
        path: impl AsRef<Path>,
        options: &mut OpenOptions,
        disk: DiskProfile,
        metrics: Metrics,
    ) -> DbResult<Self> {
        let file = options.read(true).write(true).open(path)?;
        Ok(TableFile {
            len: AtomicU64::new(file.metadata()?.len()),
            file,
            disk,
            metrics,
            table: AtomicU32::new(u32::MAX),
            faults: None,
        })
    }

    /// Records which table this file backs (for error coordinates and
    /// fault-plan addressing).
    pub fn set_table(&self, id: TableId) {
        self.table.store(id.0, Ordering::SeqCst);
    }

    fn table_id(&self) -> TableId {
        TableId(self.table.load(Ordering::SeqCst))
    }

    /// The plan's decision on the next read (`write` false) or write of
    /// page `page`.
    fn decide(&self, page: u32, write: bool) -> Fault {
        let Some((plan, site)) = &self.faults else {
            return Fault::None;
        };
        let table = self.table_id();
        plan.decide(
            *site,
            match write {
                false => Effect::PageRead { table, page },
                true => Effect::PageWrite { table, page },
            },
        )
    }

    /// Reads page `page_no` into a fresh buffer, verifying its checksum
    /// trailer. A mismatch is [`DbError::CorruptPage`] — site-local,
    /// repairable from a buddy, and deliberately *not* garbage handed to
    /// the buffer pool.
    pub fn read_page(&self, page_no: u32) -> DbResult<Box<[u8; PAGE_SIZE]>> {
        if self.decide(page_no, false) == Fault::ReadError {
            self.metrics.add_disk_faults_injected(1);
            return Err(DbError::from(std::io::Error::other(format!(
                "injected disk read error (table {}, page {page_no})",
                self.table_id()
            ))));
        }
        let off = page_no as u64 * PAGE_SIZE as u64;
        if off + PAGE_SIZE as u64 > self.len.load(Ordering::SeqCst) {
            return Err(DbError::NoSuchPage(harbor_common::PageId::new(
                TableId(u32::MAX),
                page_no,
            )));
        }
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        self.file.read_exact_at(&mut buf[..], off)?;
        self.metrics.add_page_reads(1);
        if buf.iter().all(|&b| b == 0) {
            // Hole from an out-of-order flush: never written, reads fresh.
            return Ok(buf);
        }
        let t = &buf[PAGE_PAYLOAD..];
        if u32::from_le_bytes([t[0], t[1], t[2], t[3]]) != page_crc(&buf) {
            self.metrics.add_checksum_failures(1);
            return Err(DbError::CorruptPage {
                table: self.table_id(),
                page: page_no,
            });
        }
        Ok(buf)
    }

    /// Writes page `page_no`: a run of one ([`TableFile::write_run`]).
    pub fn write_page(&self, page_no: u32, data: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        self.write_run(page_no, &mut data[..])
    }

    /// Writes the page images laid end to end in `run` as pages `first`,
    /// `first + 1`, …, extending the file if needed, with one positional
    /// write. Each page's checksum trailer is stamped into `run` — the
    /// caller's own copy — and each page draws its own fault decision, in
    /// page order, so a run consumes the fault plan's ordinals exactly as
    /// page-at-a-time writes would; a page that draws a fault is composed in
    /// a private copy and written on its own, between the stretches before
    /// and after it. Writes may land beyond the current end (pages are
    /// allocated in memory and can be flushed out of order); the
    /// intervening hole reads back as zeroes, which the buffer pool
    /// interprets as "never flushed" — exactly the state such pages are in
    /// after a crash.
    pub fn write_run(&self, first: u32, run: &mut [u8]) -> DbResult<()> {
        debug_assert!(run.len().is_multiple_of(PAGE_SIZE));
        // Pages `first + from ..` are stamped but not yet written.
        let mut from = 0;
        for (i, page_no) in (0..run.len() / PAGE_SIZE).zip(first..) {
            let page = <&mut [u8; PAGE_SIZE]>::try_from(&mut run[i * PAGE_SIZE..][..PAGE_SIZE])
                .map_err(|_| DbError::internal("a run is whole pages"))?;
            let crc = page_crc(page);
            page[PAGE_PAYLOAD..].copy_from_slice(&crc.to_le_bytes());
            let fault = self.decide(page_no, true);
            if fault != Fault::None {
                let image = Box::new(*page);
                self.write_stretch(first + from as u32, &run[from * PAGE_SIZE..i * PAGE_SIZE])?;
                self.write_faulted(page_no, image, fault)?;
                from = i + 1;
            }
        }
        self.write_stretch(first + from as u32, &run[from * PAGE_SIZE..])
    }

    /// One positional write of whole, stamped pages starting at `first`.
    fn write_stretch(&self, first: u32, pages: &[u8]) -> DbResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let off = first as u64 * PAGE_SIZE as u64;
        self.file.write_all_at(pages, off)?;
        self.len
            .fetch_max(off + pages.len() as u64, Ordering::SeqCst);
        self.metrics
            .add_page_writes((pages.len() / PAGE_SIZE) as u64);
        self.metrics.add_page_write_calls(1);
        Ok(())
    }

    /// Writes one stamped page as an injected `fault` leaves it.
    fn write_faulted(
        &self,
        page_no: u32,
        mut image: Box<[u8; PAGE_SIZE]>,
        fault: Fault,
    ) -> DbResult<()> {
        self.metrics.add_disk_faults_injected(1);
        match fault {
            Fault::FlipBit { bit } => image[bit / 8] ^= 1 << (bit % 8),
            Fault::Torn { keep } => {
                // Only a sector-aligned prefix of the new image reached the
                // platter; the tail keeps its previous contents except the
                // final sector, which was mid-write at the tear and reads
                // back as garbage (modeled as zeroes). The checksum trailer
                // lives there, so a torn page always fails verification.
                let old = self.read_page_raw(page_no)?;
                image[keep..].copy_from_slice(&old[keep..]);
                image[PAGE_SIZE - 512..].fill(0);
            }
            // A write is decided as a tear, a flip or nothing.
            _ => {}
        }
        self.write_stretch(page_no, &image[..])
    }

    /// The current on-disk bytes of `page_no` with no checksum verification
    /// and no fault injection (zeroes past EOF) — torn-write composition.
    fn read_page_raw(&self, page_no: u32) -> DbResult<Box<[u8; PAGE_SIZE]>> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let len = self.len.load(Ordering::SeqCst);
        let off = page_no as u64 * PAGE_SIZE as u64;
        if off < len {
            let avail = ((len - off) as usize).min(PAGE_SIZE);
            self.file.read_exact_at(&mut buf[..avail], off)?;
        }
        Ok(buf)
    }

    /// Durability barrier per the disk profile (checkpoints use this).
    pub fn sync(&self) -> DbResult<()> {
        self.disk.sync(&self.file)?;
        self.disk.charge();
        self.metrics.add_physical_syncs(1);
        Ok(())
    }
}

wire_struct! {
    /// The on-disk checkpoint record of Fig 3-2, extended with the per-object
    /// checkpoints recovery needs (§5.3: "S adopts a finer-granularity approach
    /// to checkpointing during recovery and maintains a separate checkpoint per
    /// object").
    ///
    /// Stored at a well-known location (one small file per site) and replaced
    /// atomically via write-to-temp + rename, so a crash mid-checkpoint leaves
    /// the previous record intact.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct CheckpointRecord {
        /// All updates at or before this time are on disk (global checkpoint).
        pub global: Timestamp,
        /// Per-object overrides; an object's effective checkpoint is its
        /// override when it has one, else `global`. One above `global` was
        /// recorded by recovery and goes when a promotion passes it. One at or
        /// below `global` is a *rewind* (a scrub's quarantined segment):
        /// promotions keep it until recovery raises it.
        pub per_object: BTreeMap<u32, Timestamp>,
        /// Per-table: the lowest segment index that can contain tuples inserted
        /// by transactions not yet finished at checkpoint time. Phase 1's
        /// `insertion_time = uncommitted` disjunct scans from here; recording it
        /// makes the disjunct sound even when a long transaction's inserts
        /// straddle a segment boundary.
        pub scan_start: BTreeMap<u32, u32>,
    }
}

/// What a checkpoint file opens with; the record follows.
const CHECKPOINT_MAGIC: &[u8; 4] = b"HBCK";

impl CheckpointRecord {
    /// Effective checkpoint for one table.
    pub fn for_table(&self, table: TableId) -> Timestamp {
        self.per_object
            .get(&table.0)
            .copied()
            .unwrap_or(self.global)
    }

    /// Promotes the global checkpoint and clears the per-object overrides it
    /// passes (§5.3: "the site resumes using the single, global checkpoint
    /// once recovery for all objects completes"). Rewinds stay.
    pub fn promote_global(&mut self, t: Timestamp) {
        let before = self.global;
        self.global = before.max(t);
        let global = self.global;
        self.per_object
            .retain(|_, ts| *ts <= before || *ts > global);
    }

    /// Raises one object's checkpoint to `t`; never lowers it.
    pub fn set_object(&mut self, table: TableId, t: Timestamp) {
        if t > self.for_table(table) {
            self.per_object.insert(table.0, t);
        }
    }

    /// Lowers one object's checkpoint to `t`; never raises it. Promotions
    /// keep it only at or below `global` ([`crate::Checkpointer::rewind_objects`]
    /// puts it there); above, it is subsumed like a recovered checkpoint.
    pub fn rewind(&mut self, table: TableId, t: Timestamp) {
        let t = t.min(self.for_table(table));
        self.per_object.insert(table.0, t);
    }

    /// Atomically persists the record at `path` ([`DiskProfile::replace`]),
    /// then charges the emulated force latency. The record the Phase-1
    /// restore point is read from is never overwritten in place.
    pub fn write(&self, path: impl AsRef<Path>, disk: DiskProfile) -> DbResult<()> {
        disk.replace(path.as_ref(), &codec::to_file(CHECKPOINT_MAGIC, self))?;
        disk.charge();
        Ok(())
    }

    /// Loads the record; a missing file means "never checkpointed" and reads
    /// as all-zero (time zero predates every transaction).
    pub fn read(path: impl AsRef<Path>) -> DbResult<Self> {
        match std::fs::read(path) {
            Ok(bytes) => codec::from_file(CHECKPOINT_MAGIC, &bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-storage-file-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn page_io_round_trips_and_grows() {
        let path = temp("pages.tbl");
        let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xab;
        f.write_page(0, &mut page).unwrap();
        page[0] = 0xcd;
        f.write_page(1, &mut page).unwrap();
        assert_eq!(f.read_page(0).unwrap()[0], 0xab);
        assert_eq!(f.read_page(1).unwrap()[0], 0xcd);
        assert!(f.read_page(2).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sparse_writes_leave_zero_holes() {
        let path = temp("holes.tbl");
        let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[9] = 0x11;
        f.write_page(3, &mut page).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4 * PAGE_SIZE as u64
        );
        assert!(f.read_page(1).unwrap().iter().all(|&b| b == 0));
        assert_eq!(f.read_page(3).unwrap()[9], 0x11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_record_round_trips() {
        let path = temp("ckpt");
        let mut rec = CheckpointRecord::default();
        rec.promote_global(Timestamp(40));
        rec.set_object(TableId(7), Timestamp(55));
        rec.scan_start.insert(7, 3);
        rec.write(&path, DiskProfile::fast()).unwrap();
        let back = CheckpointRecord::read(&path).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.for_table(TableId(7)), Timestamp(55));
        assert_eq!(back.for_table(TableId(1)), Timestamp(40));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_checkpoint_reads_as_time_zero() {
        let rec = CheckpointRecord::read(temp("nonexistent-ckpt")).unwrap();
        assert_eq!(rec.global, Timestamp::ZERO);
        assert_eq!(rec.for_table(TableId(1)), Timestamp::ZERO);
    }

    #[test]
    fn promote_global_subsumes_object_checkpoints() {
        let mut rec = CheckpointRecord::default();
        rec.set_object(TableId(1), Timestamp(10));
        rec.set_object(TableId(2), Timestamp(30));
        rec.promote_global(Timestamp(20));
        assert_eq!(rec.for_table(TableId(1)), Timestamp(20));
        assert_eq!(rec.for_table(TableId(2)), Timestamp(30));
        assert_eq!(rec.per_object.len(), 1);
    }

    #[test]
    fn set_object_never_regresses() {
        let mut rec = CheckpointRecord::default();
        rec.set_object(TableId(1), Timestamp(10));
        rec.set_object(TableId(1), Timestamp(5));
        assert_eq!(rec.for_table(TableId(1)), Timestamp(10));
        // A rewind never raises either.
        rec.rewind(TableId(1), Timestamp(12));
        assert_eq!(rec.for_table(TableId(1)), Timestamp(10));
    }

    #[test]
    fn checksum_detects_external_bit_flip() {
        let path = temp("flip.tbl");
        let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        f.set_table(TableId(9));
        let mut page = [0u8; PAGE_SIZE];
        page[100] = 0x55;
        f.write_page(0, &mut page).unwrap();
        assert!(f.read_page(0).is_ok());
        // Flip one bit behind the file's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[100] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();
        match f.read_page(0) {
            Err(DbError::CorruptPage { table, page }) => {
                assert_eq!((table, page), (TableId(9), 0));
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_write_faults_are_detected_on_read() {
        use harbor_common::fault::{Armed, FaultConfig, PageFault};
        let path = temp("faulty.tbl");
        let mut f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        f.set_table(TableId(4));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(11)));
        for (page, ordinal, fault) in [
            (1, 0, PageFault::BitFlip),
            (2, 1, PageFault::TornWrite),
            (0, 1, PageFault::ReadError),
        ] {
            let table = TableId(4);
            plan.arm(
                SiteId(1),
                Armed::Page {
                    table,
                    page,
                    ordinal,
                    fault,
                },
            );
        }
        f.faults = Some((plan.clone(), SiteId(1)));
        plan.set_enabled(true);
        let mut page = [0u8; PAGE_SIZE];
        page[50] = 0xee;
        // Bit flip on the first write of page 1.
        f.write_page(1, &mut page).unwrap();
        assert!(matches!(
            f.read_page(1),
            Err(DbError::CorruptPage { page: 1, .. })
        ));
        // Torn write on the *second* write of page 2: first lands clean.
        f.write_page(2, &mut page).unwrap();
        assert!(f.read_page(2).is_ok());
        page[PAGE_PAYLOAD - 1] = 0x77; // change the tail so the tear matters
        f.write_page(2, &mut page).unwrap();
        assert!(matches!(
            f.read_page(2),
            Err(DbError::CorruptPage { page: 2, .. })
        ));
        // Read error on the second read of page 0.
        f.write_page(0, &mut page).unwrap();
        assert!(f.read_page(0).is_ok());
        assert!(matches!(f.read_page(0), Err(DbError::Io(..))));
        assert!(f.read_page(0).is_ok());
        assert_eq!(plan.page_faults_injected(), 3);
        // Repair by rewriting: a clean write restamps the trailer.
        f.write_page(1, &mut page).unwrap();
        assert!(f.read_page(1).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
