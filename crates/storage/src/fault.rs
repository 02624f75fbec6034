//! Seeded disk-fault injection for [`crate::file::TableFile`].
//!
//! Mirrors the determinism discipline of `harbor_net::chaos`: every
//! injection decision is a pure function of `(seed, table, page, ordinal)`,
//! where the ordinal is a per-`(table, page, direction)` I/O counter. The
//! same seed over the same I/O sequence therefore replays a byte-identical
//! fault trace, which is what turns a failing chaos seed into a reproducer.
//!
//! Three fault kinds model the classic disk failure modes a checksummed
//! page format must catch:
//!
//! * **read error** — the read fails with an I/O error (bad sector, medium
//!   error). Transient at the call site: the next attempt draws a fresh
//!   ordinal.
//! * **torn write** — only a sector-aligned prefix of the page reaches the
//!   platter; the tail keeps its previous contents. Always detectable:
//!   the checksum trailer lives in the page's last bytes, so a torn page
//!   carries a stale (or zero) trailer over new contents.
//! * **bit flip** — one bit of the written page is inverted (bit rot,
//!   firmware bug). Detectable anywhere in the page, trailer included:
//!   the flipped word's checksum lane absorbs it through a bijection
//!   ([`crate::page_crc`]).
//!
//! Probabilistic rates are per-mille, like `ChaosConfig`; exact
//! `(table, page, ordinal, kind)` coordinates can be targeted on top for
//! regression tests. A plan is created disarmed and enabled by the chaos
//! harness once the cluster is built, so file opens and directory loads
//! never fault.

use harbor_common::config::PAGE_SIZE;
use harbor_common::{splitmix64, TableId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The injectable disk-fault kinds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DiskFaultKind {
    ReadError,
    TornWrite,
    BitFlip,
}

impl fmt::Display for DiskFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskFaultKind::ReadError => write!(f, "read-error"),
            DiskFaultKind::TornWrite => write!(f, "torn-write"),
            DiskFaultKind::BitFlip => write!(f, "bit-flip"),
        }
    }
}

/// An exact fault coordinate: the `ordinal`-th read (for
/// [`DiskFaultKind::ReadError`]) or write (torn write / bit flip) of
/// `page` in `table` fails. Ordinals count from zero per
/// `(table, page, direction)` while the plan is enabled.
#[derive(Clone, Copy, Debug)]
pub struct TargetedFault {
    pub table: TableId,
    pub page: u32,
    pub ordinal: u64,
    pub kind: DiskFaultKind,
}

/// Seed + rates + targeted coordinates for one site's disk. Page 0 — the
/// directory header root — is spared from the probabilistic rates: a
/// damaged directory root only manifests at reopen and is full-rebuild
/// territory, not page repair; targeted faults still reach it.
#[derive(Clone, Debug, Default)]
pub struct DiskFaultConfig {
    pub seed: u64,
    /// ‰ of page reads that fail with an injected I/O error.
    pub read_error_per_mille: u16,
    /// ‰ of page writes that persist only a sector-aligned prefix.
    pub torn_write_per_mille: u16,
    /// ‰ of page writes that land with one bit inverted.
    pub bit_flip_per_mille: u16,
    /// Exact faults injected regardless of the rates.
    pub targeted: Vec<TargetedFault>,
}

impl DiskFaultConfig {
    /// The soak profile. The rates look high for per-mille, but a chaos
    /// workload is almost entirely pool-resident — a 100-odd-op run issues
    /// only a few dozen real page I/Os (checkpoints, restarts, recovery
    /// scans), so per-cent-scale rates are what it takes for every fault
    /// kind to actually fire without drowning the run in injected errors.
    pub fn soak(seed: u64) -> Self {
        DiskFaultConfig {
            seed,
            read_error_per_mille: 60,
            torn_write_per_mille: 90,
            bit_flip_per_mille: 90,
            targeted: Vec::new(),
        }
    }

    /// A plan that injects nothing probabilistically — targeted faults
    /// only.
    pub fn targeted_only(seed: u64, targeted: Vec<TargetedFault>) -> Self {
        DiskFaultConfig {
            seed,
            targeted,
            ..DiskFaultConfig::default()
        }
    }

    /// Derives the config for one cluster site: same knobs, the master
    /// seed mixed with the site id so sites draw independent fault
    /// streams while the whole cluster replays from one seed.
    pub fn for_site(&self, site: u16) -> Self {
        let mut cfg = self.clone();
        cfg.seed = splitmix64(self.seed ^ ((site as u64) << 1 | 1));
        cfg
    }
}

/// What to do to the buffer of an upcoming page write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteFault {
    /// Persist only the first `keep` bytes; the on-disk tail survives.
    Torn { keep: usize },
    /// Invert bit `bit` (0-based over the whole page) of the written image.
    FlipBit { bit: usize },
}

/// One injected fault, for the canonical trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DiskFaultRecord {
    table: u32,
    page: u32,
    ordinal: u64,
    kind: DiskFaultKind,
    /// Kept bytes for a torn write, flipped bit for a bit flip, 0 for a
    /// read error.
    detail: u64,
}

impl fmt::Display for DiskFaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} T{} p{} ordinal {} ({})",
            self.kind, self.table, self.page, self.ordinal, self.detail
        )
    }
}

/// One site's disk-fault plan: decides, per page I/O, whether and how to
/// corrupt it. Shared by every [`crate::file::TableFile`] of the site so
/// the trace and counters are site-wide.
pub struct DiskFaultPlan {
    cfg: DiskFaultConfig,
    enabled: AtomicBool,
    read_ordinals: Mutex<HashMap<(u32, u32), u64>>,
    write_ordinals: Mutex<HashMap<(u32, u32), u64>>,
    trace: Mutex<Vec<DiskFaultRecord>>,
    injected: AtomicU64,
}

impl fmt::Debug for DiskFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskFaultPlan")
            .field("cfg", &self.cfg)
            .field("enabled", &self.is_enabled())
            .field("injected", &self.injected())
            .finish()
    }
}

/// Pure draw for decision slot `k` of I/O `(table, page, ordinal)`.
fn draw(seed: u64, table: u32, page: u32, ordinal: u64, k: u64) -> u64 {
    let coord = ((table as u64) << 32 | page as u64).rotate_left(17)
        ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (k << 56);
    splitmix64(seed ^ coord)
}

impl DiskFaultPlan {
    /// Builds a disarmed plan.
    pub fn new(cfg: DiskFaultConfig) -> Arc<Self> {
        Arc::new(DiskFaultPlan {
            cfg,
            enabled: AtomicBool::new(false),
            read_ordinals: Mutex::new(HashMap::new()),
            write_ordinals: Mutex::new(HashMap::new()),
            trace: Mutex::new(Vec::new()),
            injected: AtomicU64::new(0),
        })
    }

    /// Arms or disarms injection. Disabled I/Os consume no ordinals, so
    /// the decision stream is a function of the enabled I/O sequence only.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn record(&self, rec: DiskFaultRecord) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        self.trace.lock().push(rec);
    }

    fn targeted(
        &self,
        table: TableId,
        page: u32,
        ordinal: u64,
        write: bool,
    ) -> Option<DiskFaultKind> {
        self.cfg
            .targeted
            .iter()
            .find(|t| {
                t.table == table
                    && t.page == page
                    && t.ordinal == ordinal
                    && (t.kind != DiskFaultKind::ReadError) == write
            })
            .map(|t| t.kind)
    }

    /// Decides the fate of the upcoming read of `(table, page)`. `Some`
    /// means the read must fail with an injected I/O error.
    pub fn on_read(&self, table: TableId, page: u32) -> Option<DiskFaultKind> {
        if !self.is_enabled() {
            return None;
        }
        let ordinal = {
            let mut ords = self.read_ordinals.lock();
            let o = ords.entry((table.0, page)).or_insert(0);
            let cur = *o;
            *o += 1;
            cur
        };
        let hit = self.targeted(table, page, ordinal, false).is_some()
            || (page != 0
                && self.cfg.read_error_per_mille > 0
                && draw(self.cfg.seed, table.0, page, ordinal, 0) % 1000
                    < self.cfg.read_error_per_mille as u64);
        if hit {
            self.record(DiskFaultRecord {
                table: table.0,
                page,
                ordinal,
                kind: DiskFaultKind::ReadError,
                detail: 0,
            });
            return Some(DiskFaultKind::ReadError);
        }
        None
    }

    /// Decides the fate of the upcoming write of `(table, page)`.
    pub fn on_write(&self, table: TableId, page: u32) -> Option<WriteFault> {
        if !self.is_enabled() {
            return None;
        }
        let ordinal = {
            let mut ords = self.write_ordinals.lock();
            let o = ords.entry((table.0, page)).or_insert(0);
            let cur = *o;
            *o += 1;
            cur
        };
        let kind = match self.targeted(table, page, ordinal, true) {
            Some(k) => Some(k),
            None if page == 0 => None,
            None => {
                let d = draw(self.cfg.seed, table.0, page, ordinal, 1) % 1000;
                if d < self.cfg.torn_write_per_mille as u64 {
                    Some(DiskFaultKind::TornWrite)
                } else if d < (self.cfg.torn_write_per_mille + self.cfg.bit_flip_per_mille) as u64 {
                    Some(DiskFaultKind::BitFlip)
                } else {
                    None
                }
            }
        };
        let fault = match kind? {
            // Keep a sector-aligned prefix: 0..=7 sectors of 512 bytes,
            // never the whole page (that would not be torn).
            DiskFaultKind::TornWrite => WriteFault::Torn {
                keep: 512 * (draw(self.cfg.seed, table.0, page, ordinal, 2) % 8) as usize,
            },
            DiskFaultKind::BitFlip => WriteFault::FlipBit {
                bit: (draw(self.cfg.seed, table.0, page, ordinal, 3) % (PAGE_SIZE as u64 * 8))
                    as usize,
            },
            DiskFaultKind::ReadError => unreachable!("read faults never target writes"),
        };
        self.record(DiskFaultRecord {
            table: table.0,
            page,
            ordinal,
            kind: match fault {
                WriteFault::Torn { .. } => DiskFaultKind::TornWrite,
                WriteFault::FlipBit { .. } => DiskFaultKind::BitFlip,
            },
            detail: match fault {
                WriteFault::Torn { keep } => keep as u64,
                WriteFault::FlipBit { bit } => bit as u64,
            },
        });
        Some(fault)
    }

    /// The canonical fault trace: every injected fault, sorted by
    /// coordinate so concurrent I/O interleavings don't affect the
    /// rendering. Two runs of the same seed over the same I/O sequence
    /// produce byte-identical traces.
    pub fn trace_canonical(&self) -> String {
        let mut recs = self.trace.lock().clone();
        recs.sort();
        let mut out = String::new();
        for r in recs {
            out.push_str(&format!("  {r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_injects_nothing() {
        let plan = DiskFaultPlan::new(DiskFaultConfig::soak(42));
        for p in 0..100 {
            assert!(plan.on_read(TableId(1), p).is_none());
            assert!(plan.on_write(TableId(1), p).is_none());
        }
        assert_eq!(plan.injected(), 0);
        assert!(plan.trace_canonical().is_empty());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            let plan = DiskFaultPlan::new(DiskFaultConfig::soak(0xDEAD));
            plan.set_enabled(true);
            let mut decisions = Vec::new();
            for page in 1..50 {
                for _ in 0..4 {
                    decisions.push((
                        plan.on_read(TableId(2), page),
                        plan.on_write(TableId(2), page),
                    ));
                }
            }
            (decisions, plan.trace_canonical())
        };
        let (d1, t1) = mk();
        let (d2, t2) = mk();
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
        assert!(d1.iter().any(|(r, w)| r.is_some() || w.is_some()));
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let plan = DiskFaultPlan::new(DiskFaultConfig::soak(seed));
            plan.set_enabled(true);
            for page in 1..200 {
                plan.on_read(TableId(1), page);
                plan.on_write(TableId(1), page);
            }
            plan.trace_canonical()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn targeted_faults_fire_exactly_once() {
        let plan = DiskFaultPlan::new(DiskFaultConfig::targeted_only(
            7,
            vec![
                TargetedFault {
                    table: TableId(1),
                    page: 3,
                    ordinal: 1,
                    kind: DiskFaultKind::BitFlip,
                },
                TargetedFault {
                    table: TableId(1),
                    page: 3,
                    ordinal: 0,
                    kind: DiskFaultKind::ReadError,
                },
            ],
        ));
        plan.set_enabled(true);
        // Write ordinal 0 clean, ordinal 1 flipped, ordinal 2 clean.
        assert!(plan.on_write(TableId(1), 3).is_none());
        assert!(matches!(
            plan.on_write(TableId(1), 3),
            Some(WriteFault::FlipBit { .. })
        ));
        assert!(plan.on_write(TableId(1), 3).is_none());
        // Read ordinal 0 errors, ordinal 1 clean.
        assert_eq!(plan.on_read(TableId(1), 3), Some(DiskFaultKind::ReadError));
        assert!(plan.on_read(TableId(1), 3).is_none());
        // Other coordinates untouched.
        assert!(plan.on_write(TableId(2), 3).is_none());
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn page_zero_is_spared_probabilistically() {
        let plan = DiskFaultPlan::new(DiskFaultConfig {
            read_error_per_mille: 1000,
            torn_write_per_mille: 500,
            bit_flip_per_mille: 500,
            ..DiskFaultConfig::soak(5)
        });
        plan.set_enabled(true);
        for _ in 0..64 {
            assert!(plan.on_read(TableId(1), 0).is_none());
            assert!(plan.on_write(TableId(1), 0).is_none());
            assert!(plan.on_read(TableId(1), 1).is_some());
            assert!(plan.on_write(TableId(1), 1).is_some());
        }
    }
}
