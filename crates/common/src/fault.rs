//! The fault plane (DESIGN.md "Fault plane"): one seeded [`FaultPlan`] a
//! cluster decides every injected fault with — a send lost, delayed or cut
//! off, a page read that fails, a page write torn or with a bit flipped,
//! and a site that crashes at a named protocol step.
//!
//! A drawn decision is a pure function of the seed and the effect's
//! coordinates — a send's `(link, seq)`, a page I/O's `(site, table, page,
//! direction, ordinal)` — never of wall-clock time, so the same seed over
//! the same effects replays one canonical trace and a failing soak seed is
//! a reproducer. The plan is built off. While it is off for a site, none of
//! the site's sends or page I/Os is decided or advances a counter, so a
//! cluster boots fault-free and only what a run does keys the trace.
//!
//! Armed faults — a [`CrashPoint`] or a targeted page fault — are one-shot:
//! the first effect that reaches one fires it and consumes it. A crash point
//! fires whether the plan is on or not; a targeted page fault counts its
//! ordinal among the I/Os decided while the plan is on.
//!
//! Page 0 of a table file, the directory root, is spared by the rates: its
//! damage only shows at reopen, which is a rebuild rather than a page
//! repair. Targeted faults still reach it.

use crate::config::PAGE_SIZE;
use crate::{splitmix64, SiteId, TableId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The seed and the rates of a [`FaultPlan`]. Rates are per mille: of a
/// channel's sends for the network's, of a site's page I/Os for the disk's.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    pub seed: u64,
    /// A frame is lost and its link severed silently.
    pub drop_per_mille: u16,
    /// A frame is delivered late, by `1..=max_delay` (seed-derived).
    pub delay_per_mille: u16,
    pub max_delay: Duration,
    /// A link is severed at a send, which fails.
    pub disconnect_per_mille: u16,
    /// A page read fails with an I/O error.
    pub read_error_per_mille: u16,
    /// A page write persists only a sector-aligned prefix.
    pub torn_write_per_mille: u16,
    /// A page write lands with one bit inverted.
    pub bit_flip_per_mille: u16,
}

impl FaultConfig {
    /// No drawn faults: partitions and armed faults only.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            max_delay: Duration::from_millis(2),
            ..FaultConfig::default()
        }
    }

    /// A lossy LAN: occasional loss and resets, frequent small delays.
    pub fn lossy_lan(seed: u64) -> Self {
        FaultConfig {
            drop_per_mille: 5,
            delay_per_mille: 100,
            disconnect_per_mille: 2,
            ..FaultConfig::quiet(seed)
        }
    }

    /// The soak profile: the lossy LAN and a failing disk. The disk rates
    /// look high, but a soak is almost all pool-resident — a run of 120
    /// operations issues a few dozen real page I/Os (checkpoints, restarts,
    /// recovery scans) — so per-cent rates are what it takes for every kind
    /// to fire without drowning the run in errors.
    pub fn soak(seed: u64) -> Self {
        FaultConfig {
            read_error_per_mille: 60,
            torn_write_per_mille: 90,
            bit_flip_per_mille: 90,
            ..FaultConfig::lossy_lan(seed)
        }
    }
}

/// A protocol step at which a site can be armed to crash.
///
/// Worker points make the thesis' cascading failures reachable from tests:
/// Table 4.1's backup-coordinator rows need workers dying between PREPARE
/// and PTC, and §5.5's buddy deaths a site dying *while serving* a Phase-2
/// or Phase-3 recovery scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Coordinator: after collecting PREPARE votes, before acting on them.
    CoordAfterPrepare,
    /// Coordinator: after sending PREPARE-TO-COMMIT to `n` workers (3PC).
    CoordAfterPtcSent(usize),
    /// Coordinator: after sending COMMIT to `n` workers.
    CoordAfterCommitSent(usize),
    /// Coordinator: in epoch mode, after the epoch's decision records are
    /// forced but before the COMMIT wave goes out — every decided txn is
    /// durable at the coordinator yet no worker has heard the outcome, so
    /// recovery/consensus must resolve each txn individually.
    CoordAfterEpochForce,
    /// Worker: while handling a PREPARE request, before the vote is sent —
    /// the coordinator sees a dead participant instead of a vote.
    WorkerDuringPrepareVote,
    /// Worker: after receiving a batched PREPARE wave but before voting on
    /// any transaction in it — the whole vote vector is lost and the
    /// coordinator must abort only that worker's txns, not the epoch.
    WorkerDuringBatchPrepare,
    /// Worker: immediately *after* its PREPARE-TO-COMMIT ack is on the wire —
    /// the worker dies in the prepared-to-commit state (Table 4.1 rows where
    /// some participant reached PTC).
    WorkerAfterPtcAck,
    /// Worker: mid-stream while serving a Phase-2 historical recovery scan
    /// to a recovering buddy (§5.5 buddy death → range reassignment).
    WorkerServingPhase2Scan,
    /// Worker: mid-stream while serving a Phase-3 locked catch-up scan.
    WorkerServingPhase3Scan,
    /// Worker: mid-resolution while acting as the elected backup
    /// coordinator — between its consensus broadcasts, so the next-ranked
    /// live participant must take over with the Table 4.1 outcome unchanged.
    WorkerDuringConsensusResolve,
    /// Recovering site: after Phase 1 (local state at the checkpoint).
    RecoveryAfterPhase1,
    /// Recovering site: after a Phase-2 pass records its object checkpoint.
    RecoveryAfterObjectCheckpoint,
    /// Recovering site: after Phase 2 (a restart resumes from its checkpoint).
    RecoveryAfterPhase2,
    /// Recovering site: in Phase 3, dropping the buddies' table locks
    /// unreleased — their failure detection must override them (§5.5.1).
    RecoveryHoldingLocks,
}

impl CrashPoint {
    /// `true` for points probed by the coordinator role.
    pub fn is_coordinator_point(&self) -> bool {
        matches!(
            self,
            CrashPoint::CoordAfterPrepare
                | CrashPoint::CoordAfterPtcSent(_)
                | CrashPoint::CoordAfterCommitSent(_)
                | CrashPoint::CoordAfterEpochForce
        )
    }

    /// `true` for points probed by a recovering site.
    pub fn is_recovery_point(&self) -> bool {
        matches!(
            self,
            CrashPoint::RecoveryAfterPhase1
                | CrashPoint::RecoveryAfterObjectCheckpoint
                | CrashPoint::RecoveryAfterPhase2
                | CrashPoint::RecoveryHoldingLocks
        )
    }

    /// The `n` of a counting point (`CoordAfterPtcSent(n)`,
    /// `CoordAfterCommitSent(n)`).
    pub fn count(&self) -> Option<usize> {
        match self {
            CrashPoint::CoordAfterPtcSent(n) | CrashPoint::CoordAfterCommitSent(n) => Some(*n),
            _ => None,
        }
    }

    /// `true` if reaching `step` fires this armed point: the same point, or
    /// a counting point of the same kind whose count `step` has reached.
    fn fired_by(&self, step: &CrashPoint) -> bool {
        match (self, step) {
            (CrashPoint::CoordAfterPtcSent(n), CrashPoint::CoordAfterPtcSent(k))
            | (CrashPoint::CoordAfterCommitSent(n), CrashPoint::CoordAfterCommitSent(k)) => k >= n,
            _ => self == step,
        }
    }
}

/// The kinds of page fault.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PageFault {
    ReadError,
    TornWrite,
    BitFlip,
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageFault::ReadError => "read-error",
            PageFault::TornWrite => "torn-write",
            PageFault::BitFlip => "bit-flip",
        })
    }
}

/// A one-shot fault armed at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Armed {
    /// The site crashes when it reaches the step.
    Crash(CrashPoint),
    /// The `ordinal`-th read (a [`PageFault::ReadError`]) or write (a tear
    /// or a flip) of `page` in `table` decided while the plan is on,
    /// counted from 0, fails so.
    Page {
        table: TableId,
        page: u32,
        ordinal: u64,
        fault: PageFault,
    },
}

/// What a site is about to do, for the plan to decide.
#[derive(Debug)]
pub enum Effect<'a> {
    /// The next send on the channel `link` (`"src->dst#ordinal"`). `seq`
    /// is the channel's send counter, which the plan advances only while it
    /// is on; `blocked` says a partition cuts the link.
    Send {
        link: &'a str,
        seq: &'a mut u64,
        blocked: bool,
    },
    PageRead {
        table: TableId,
        page: u32,
    },
    PageWrite {
        table: TableId,
        page: u32,
    },
    /// A named protocol step.
    Step(CrashPoint),
}

/// The plan's decision on one effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The frame vanishes and the link stays open (a partition).
    Blackhole,
    /// The frame is lost and the link severed silently.
    Drop,
    /// The link is severed at the send, which fails.
    Disconnect,
    /// The frame is delivered this much later.
    Delay(Duration),
    /// The read fails with an I/O error.
    ReadError,
    /// Only the first `keep` bytes of the page image reach the disk.
    Torn {
        keep: usize,
    },
    /// Bit `bit` (over the whole page) of the written image is inverted.
    FlipBit {
        bit: usize,
    },
    /// The site crashes here.
    Crash,
}

/// Where the plan decides sends and page I/O.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum On {
    #[default]
    Nowhere,
    Everywhere,
    At(SiteId),
}

/// One injected page fault, for the canonical trace. The field order is the
/// trace's: by site, then coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PageRecord {
    site: SiteId,
    table: u32,
    page: u32,
    ordinal: u64,
    fault: PageFault,
    /// Kept bytes of a torn write, flipped bit of a bit flip, 0 for a read.
    detail: u64,
}

#[derive(Debug, Default)]
struct Trace {
    sends: Vec<(String, u64, Fault)>,
    pages: Vec<PageRecord>,
}

/// A cluster's one source of faults (see the module docs). Shared by every
/// site through an `Arc`; every method takes `&self`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    on: Mutex<On>,
    /// Page I/Os decided so far per `(site, table, page, is_write)`.
    ordinals: Mutex<HashMap<(SiteId, TableId, u32, bool), u64>>,
    armed: Mutex<Vec<(SiteId, Armed)>>,
    trace: Mutex<Trace>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Draw `k` of event `n` at coordinate `key`: pure, so a decision depends
/// on nothing but these.
fn draw(seed: u64, key: u64, n: u64, k: u64) -> u64 {
    splitmix64(seed ^ key.rotate_left(17) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k << 56))
}

impl FaultPlan {
    /// A plan that is off and has nothing armed.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            ..FaultPlan::default()
        }
    }

    /// The seed every decision (and a chaos run's schedule) is drawn from.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Turns the plan on or off at every site.
    pub fn set_enabled(&self, on: bool) {
        *lock(&self.on) = if on { On::Everywhere } else { On::Nowhere };
    }

    /// Turns the plan on at `site` alone.
    pub fn enable_only(&self, site: SiteId) {
        *lock(&self.on) = On::At(site);
    }

    fn is_on(&self, site: SiteId) -> bool {
        match *lock(&self.on) {
            On::Nowhere => false,
            On::Everywhere => true,
            On::At(s) => s == site,
        }
    }

    /// Arms a one-shot fault at `site`. Several may be armed per site.
    pub fn arm(&self, site: SiteId, fault: Armed) {
        lock(&self.armed).push((site, fault));
    }

    /// Disarms `site`'s crash points that match `pred`, without firing them.
    pub fn disarm(&self, site: SiteId, pred: impl Fn(&CrashPoint) -> bool) {
        lock(&self.armed).retain(|(s, a)| *s != site || !matches!(a, Armed::Crash(p) if pred(p)));
    }

    /// The faults still armed.
    pub fn armed(&self) -> Vec<(SiteId, Armed)> {
        lock(&self.armed).clone()
    }

    /// Consumes `site`'s first armed fault that `pred` matches.
    fn take(&self, site: SiteId, pred: impl Fn(&Armed) -> bool) -> Option<Armed> {
        let mut armed = lock(&self.armed);
        let at = armed.iter().position(|(s, a)| *s == site && pred(a))?;
        Some(armed.remove(at).1)
    }

    /// Decides `effect` at `site`.
    pub fn decide(&self, site: SiteId, effect: Effect<'_>) -> Fault {
        match effect {
            Effect::Step(step) => {
                match self.take(site, |a| matches!(a, Armed::Crash(p) if p.fired_by(&step))) {
                    Some(_) => Fault::Crash,
                    None => Fault::None,
                }
            }
            _ if !self.is_on(site) => Fault::None,
            Effect::Send { link, seq, blocked } => self.send(link, seq, blocked),
            Effect::PageRead { table, page } => self.page(site, table, page, false),
            Effect::PageWrite { table, page } => self.page(site, table, page, true),
        }
    }

    fn send(&self, link: &str, seq: &mut u64, blocked: bool) -> Fault {
        let (n, cfg) = (*seq, &self.cfg);
        *seq += 1;
        let key = fnv1a(link);
        let hit = |k, per_mille: u16| draw(cfg.seed, key, n, k) % 1000 < u64::from(per_mille);
        let fault = if blocked {
            Fault::Blackhole
        } else if hit(0, cfg.disconnect_per_mille) {
            Fault::Disconnect
        } else if hit(1, cfg.drop_per_mille) {
            Fault::Drop
        } else if hit(2, cfg.delay_per_mille) {
            let span = (cfg.max_delay.as_micros() as u64).max(1);
            Fault::Delay(Duration::from_micros(draw(cfg.seed, key, n, 3) % span + 1))
        } else {
            return Fault::None;
        };
        lock(&self.trace).sends.push((link.to_string(), n, fault));
        fault
    }

    fn page(&self, site: SiteId, table: TableId, page: u32, write: bool) -> Fault {
        let ordinal = {
            let mut ordinals = lock(&self.ordinals);
            let next = ordinals.entry((site, table, page, write)).or_insert(0);
            *next += 1;
            *next - 1
        };
        let targeted = self.take(site, |a| {
            matches!(a, Armed::Page { table: t, page: p, ordinal: o, fault }
                if (*t, *p, *o) == (table, page, ordinal)
                    && (*fault != PageFault::ReadError) == write)
        });
        // Each site draws its own stream from the one seed.
        let seed = splitmix64(self.cfg.seed ^ (u64::from(site.0) << 1 | 1));
        let key = u64::from(table.0) << 32 | u64::from(page);
        let d = |k| draw(seed, key, ordinal, k);
        let cfg = &self.cfg;
        let kind = match targeted {
            Some(Armed::Page { fault, .. }) => fault,
            _ if page == 0 => return Fault::None,
            _ if !write && d(0) % 1000 < u64::from(cfg.read_error_per_mille) => {
                PageFault::ReadError
            }
            _ if !write => return Fault::None,
            _ => match d(1) % 1000 {
                x if x < u64::from(cfg.torn_write_per_mille) => PageFault::TornWrite,
                x if x < u64::from(cfg.torn_write_per_mille + cfg.bit_flip_per_mille) => {
                    PageFault::BitFlip
                }
                _ => return Fault::None,
            },
        };
        let (fault, detail) = match kind {
            PageFault::ReadError => (Fault::ReadError, 0),
            // A sector-aligned prefix of 0..=7 sectors, never the whole
            // page (that would not be torn).
            PageFault::TornWrite => {
                let keep = 512 * (d(2) % 8) as usize;
                (Fault::Torn { keep }, keep as u64)
            }
            PageFault::BitFlip => {
                let bit = (d(3) % (PAGE_SIZE as u64 * 8)) as usize;
                (Fault::FlipBit { bit }, bit as u64)
            }
        };
        lock(&self.trace).pages.push(PageRecord {
            site,
            table: table.0,
            page,
            ordinal,
            fault: kind,
            detail,
        });
        fault
    }

    /// Page faults injected so far, at every site.
    pub fn page_faults_injected(&self) -> u64 {
        lock(&self.trace).pages.len() as u64
    }

    /// Forgets the trace so far (ordinals and armed faults stay).
    pub fn clear_trace(&self) {
        *lock(&self.trace) = Trace::default();
    }

    /// The canonical trace: one line per faulted send, sorted by `(link,
    /// seq)`, then a `[disk S<n>]` block per site that took a page fault,
    /// its lines sorted by coordinate — so neither the interleaving of
    /// channels nor that of concurrent I/O moves a byte. Two runs of one
    /// seed over the same effects render the same text.
    pub fn trace_canonical(&self) -> String {
        let (mut sends, mut pages) = {
            let trace = lock(&self.trace);
            (trace.sends.clone(), trace.pages.clone())
        };
        sends.sort_by(|x, y| (&x.0, x.1).cmp(&(&y.0, y.1)));
        pages.sort();
        let mut out = String::new();
        for (link, seq, fault) in &sends {
            let what = match fault {
                Fault::Delay(d) => format!("delay({}us)", d.as_micros()),
                Fault::Drop => "drop".into(),
                Fault::Disconnect => "disconnect".into(),
                _ => "blackhole".into(),
            };
            out.push_str(&format!("{what} {link} #{seq}\n"));
        }
        let mut site = None;
        for r in &pages {
            if site != Some(r.site) {
                site = Some(r.site);
                out.push_str(&format!("[disk {}]\n", r.site));
            }
            out.push_str(&format!(
                "  {} T{} p{} ordinal {} ({})\n",
                r.fault, r.table, r.page, r.ordinal, r.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    fn disk(plan: &FaultPlan, site: SiteId, page: u32) -> (Fault, Fault) {
        (
            plan.decide(site, Effect::PageRead { table: T, page }),
            plan.decide(site, Effect::PageWrite { table: T, page }),
        )
    }

    fn step(plan: &FaultPlan, site: SiteId, point: CrashPoint) -> bool {
        plan.decide(site, Effect::Step(point)) == Fault::Crash
    }

    #[test]
    fn a_plan_that_is_off_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::soak(42));
        let mut seq = 0;
        for p in 0..100 {
            assert_eq!(disk(&plan, SiteId(1), p), (Fault::None, Fault::None));
            let send = Effect::Send {
                link: "a->b#0",
                seq: &mut seq,
                blocked: true,
            };
            assert_eq!(plan.decide(SiteId(1), send), Fault::None);
        }
        assert_eq!(seq, 0, "a send decided while off advances nothing");
        assert!(plan.trace_canonical().is_empty());
    }

    #[test]
    fn the_same_seed_makes_the_same_decisions() {
        let run = |seed| {
            let plan = FaultPlan::new(FaultConfig::soak(seed));
            plan.set_enabled(true);
            let mut decisions = Vec::new();
            for page in 1..50 {
                for _ in 0..4 {
                    decisions.push(disk(&plan, SiteId(1), page));
                }
            }
            let mut seq = 0;
            for _ in 0..500 {
                let (link, seq, blocked) = ("a->b#0", &mut seq, false);
                let send = plan.decide(SiteId(1), Effect::Send { link, seq, blocked });
                decisions.push((send, Fault::None));
            }
            (decisions, plan.trace_canonical())
        };
        let (d1, t1) = run(0xDEAD);
        assert_eq!((d1.clone(), t1.clone()), run(0xDEAD));
        assert!(t1.contains("[disk S1]") && t1.contains("a->b#0"), "{t1}");
        assert_ne!(t1, run(0xBEEF).1, "different seeds should differ");
    }

    #[test]
    fn two_sites_draw_their_own_disk_streams() {
        let plan = FaultPlan::new(FaultConfig::soak(7));
        plan.set_enabled(true);
        let at = |site| (1..200).map(|p| disk(&plan, site, p)).collect::<Vec<_>>();
        assert_ne!(at(SiteId(1)), at(SiteId(2)));
    }

    #[test]
    fn page_zero_is_spared_by_the_rates() {
        let plan = FaultPlan::new(FaultConfig {
            read_error_per_mille: 1000,
            torn_write_per_mille: 500,
            bit_flip_per_mille: 500,
            ..FaultConfig::quiet(5)
        });
        plan.set_enabled(true);
        for _ in 0..64 {
            assert_eq!(disk(&plan, SiteId(1), 0), (Fault::None, Fault::None));
            let (read, write) = disk(&plan, SiteId(1), 1);
            assert_eq!(read, Fault::ReadError);
            assert_ne!(write, Fault::None);
        }
    }

    #[test]
    fn a_targeted_page_fault_fires_once_where_it_is_armed() {
        let plan = FaultPlan::new(FaultConfig::quiet(7));
        let (page, site) = (3, SiteId(1));
        let armed = |ordinal, fault| Armed::Page {
            table: T,
            page,
            ordinal,
            fault,
        };
        plan.arm(site, armed(1, PageFault::BitFlip));
        plan.arm(site, armed(0, PageFault::ReadError));
        assert_eq!(disk(&plan, site, page), (Fault::None, Fault::None), "off");
        plan.enable_only(site);
        let write = |s| plan.decide(s, Effect::PageWrite { table: T, page });
        let read = |s| plan.decide(s, Effect::PageRead { table: T, page });
        // Write ordinal 0 clean, 1 flipped, 2 clean; read 0 fails, 1 clean.
        assert_eq!(write(site), Fault::None);
        assert!(matches!(write(site), Fault::FlipBit { .. }));
        assert_eq!(write(site), Fault::None);
        assert_eq!(read(site), Fault::ReadError);
        assert_eq!(read(site), Fault::None);
        assert_eq!(plan.page_faults_injected(), 2);
        assert!(plan.armed().is_empty(), "a fired fault is consumed");
        // Another site is off, and nothing is armed there.
        assert_eq!(write(SiteId(2)), Fault::None);
    }

    #[test]
    fn a_crash_point_fires_exactly_once_at_its_site() {
        let plan = FaultPlan::default();
        plan.arm(SiteId(1), Armed::Crash(CrashPoint::WorkerDuringPrepareVote));
        assert!(!step(&plan, SiteId(2), CrashPoint::WorkerDuringPrepareVote));
        assert!(!step(&plan, SiteId(1), CrashPoint::WorkerAfterPtcAck));
        assert!(step(&plan, SiteId(1), CrashPoint::WorkerDuringPrepareVote));
        assert!(
            !step(&plan, SiteId(1), CrashPoint::WorkerDuringPrepareVote),
            "a fired point must not fire again"
        );
        assert!(plan.armed().is_empty());
    }

    #[test]
    fn a_counting_point_fires_once_its_count_is_reached() {
        let plan = FaultPlan::default();
        plan.arm(SiteId(0), Armed::Crash(CrashPoint::CoordAfterPtcSent(2)));
        plan.arm(SiteId(0), Armed::Crash(CrashPoint::CoordAfterCommitSent(0)));
        assert!(!step(&plan, SiteId(0), CrashPoint::CoordAfterPtcSent(1)));
        assert!(step(&plan, SiteId(0), CrashPoint::CoordAfterPtcSent(2)));
        assert!(step(&plan, SiteId(0), CrashPoint::CoordAfterCommitSent(1)));
        assert!(plan.armed().is_empty());
    }

    #[test]
    fn disarm_clears_without_firing() {
        let plan = FaultPlan::default();
        plan.arm(SiteId(0), Armed::Crash(CrashPoint::CoordAfterPrepare));
        plan.arm(SiteId(0), Armed::Crash(CrashPoint::WorkerAfterPtcAck));
        plan.disarm(SiteId(0), CrashPoint::is_coordinator_point);
        assert_eq!(
            plan.armed(),
            vec![(SiteId(0), Armed::Crash(CrashPoint::WorkerAfterPtcAck))]
        );
    }
}
