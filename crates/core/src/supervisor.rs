//! The replication supervisor: watches for site deaths and automatically
//! re-creates lost replicas so every object returns to its K floor without
//! an operator in the loop.
//!
//! The repair primitive *is* the recovery machinery — a crashed member is
//! brought back with the three-phase protocol
//! ([`Cluster::recover_worker_harbor`]); an object whose host left the
//! membership entirely is re-replicated onto a surviving spare
//! ([`Cluster::replicate_table_to`], Phase-2/3 bootstrap against live
//! buddies). Failed repairs retry under seeded jittered exponential
//! backoff (the same [`RetryPolicy`] schedule the RPC layer uses), so a
//! chaos run with a pinned seed replays the identical repair trace.
//! Admission throttling keeps repair I/O from starving the commit path:
//! while the coordinator has more in-flight transactions than
//! `MAX_INFLIGHT`, the supervisor yields its tick.

use crate::cluster::Cluster;
use harbor_common::{RetryPolicy, SiteId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cadence of the background loop, and the unit a backoff delay is
/// converted into for the synchronous, tick-driven chaos harness.
const TICK: Duration = Duration::from_millis(20);

/// Admission throttle: while the coordinator holds more in-flight
/// transactions than this, the supervisor skips its tick, so
/// re-replication never starves the commit path.
const MAX_INFLIGHT: usize = 8;

/// One repair the supervisor decided to run.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Repair {
    /// A placed member crashed: bring every object on it back with
    /// three-phase recovery.
    RecoverSite(SiteId),
    /// An object is below its floor and a surviving member has room:
    /// bootstrap a brand-new replica there.
    Replicate { table: String, target: SiteId },
}

/// Shared live counters (the background thread owns the supervisor; these
/// are the observable surface).
#[derive(Default, Debug)]
pub struct SupervisorStats {
    pub ticks: AtomicU64,
    pub throttled: AtomicU64,
    pub repairs: AtomicU64,
    pub failures: AtomicU64,
}

struct BackoffState {
    attempt: u32,
    due_tick: u64,
}

/// Tick-driven repair loop state. Drive it synchronously with
/// [`tick`](Self::tick) (the chaos harness does, for determinism) or in a
/// background thread via [`Cluster::start_supervisor`].
pub struct ReplicationSupervisor {
    /// The seeded retry schedule for failed repairs of one target. Attempts
    /// past its last keep retrying at the capped delay: the supervisor never
    /// gives up on a deficit, it only slows down.
    retry: RetryPolicy,
    /// Per-table live-copy floor, captured from the placement catalog when
    /// the supervisor attached: the replica count it defends.
    floors: BTreeMap<String, usize>,
    /// Per-target retry state; removed on success or when the deficit
    /// disappears.
    backoff: BTreeMap<Repair, BackoffState>,
    stats: Arc<SupervisorStats>,
}

impl ReplicationSupervisor {
    /// Captures each table's current placed-copy count as its floor;
    /// `seed` seeds the backoff jitter.
    pub fn new(seed: u64, cluster: &Cluster) -> Self {
        let snap = cluster.placement().snapshot();
        let mut floors = BTreeMap::new();
        for table in snap.table_names() {
            if let Ok(sites) = snap.sites_for(&table) {
                floors.insert(table, sites.len());
            }
        }
        ReplicationSupervisor {
            retry: RetryPolicy::new(
                6,
                Duration::from_millis(20),
                Duration::from_millis(500),
                seed,
            ),
            floors,
            backoff: BTreeMap::new(),
            stats: Arc::new(SupervisorStats::default()),
        }
    }

    pub fn stats(&self) -> &Arc<SupervisorStats> {
        &self.stats
    }

    /// One supervision step at logical time `tick_no`: scan for deficits,
    /// run at most one repair (bounding interference with foreground
    /// traffic), honour per-target backoff. Returns the repair that
    /// *succeeded* this tick, if any.
    pub fn tick(&mut self, cluster: &Cluster, tick_no: u64) -> Option<Repair> {
        self.stats.ticks.fetch_add(1, Ordering::Relaxed);
        if cluster.coordinator().inflight_txns() > MAX_INFLIGHT {
            self.stats.throttled.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let repair = self.plan(cluster)?;
        if let Some(b) = self.backoff.get(&repair) {
            if tick_no < b.due_tick {
                return None; // not due yet
            }
        }
        let result = match &repair {
            Repair::RecoverSite(site) => cluster.recover_worker_harbor(*site).map(|_| ()),
            Repair::Replicate { table, target } => cluster.replicate_table_to(table, *target),
        };
        match result {
            Ok(()) => {
                self.backoff.remove(&repair);
                self.stats.repairs.fetch_add(1, Ordering::Relaxed);
                cluster.coordinator().metrics().add_auto_repairs(1);
                Some(repair)
            }
            Err(_) => {
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                // Past the schedule's last attempt the delay stays capped:
                // the supervisor slows down but never abandons a deficit.
                let attempt = self
                    .backoff
                    .get(&repair)
                    .map(|b| b.attempt.min(self.retry.attempts))
                    .unwrap_or(0);
                let due_tick = tick_no + self.delay_ticks(attempt);
                self.backoff.insert(
                    repair,
                    BackoffState {
                        attempt: attempt.saturating_add(1),
                        due_tick,
                    },
                );
                None
            }
        }
    }

    /// Converts a backoff delay into whole ticks (at least one).
    fn delay_ticks(&self, attempt: u32) -> u64 {
        let delay = self.retry.delay(attempt);
        let unit = TICK.as_nanos();
        delay.as_nanos().div_ceil(unit).max(1) as u64
    }

    /// Picks the most urgent deficit, deterministically (sorted tables,
    /// lowest-numbered sites). Preference order per the self-healing
    /// contract: re-create lost replicas on surviving spares first, fall
    /// back to recovering the crashed host when no spare exists (the
    /// common fully-replicated case).
    fn plan(&self, cluster: &Cluster) -> Option<Repair> {
        let snap = cluster.placement().snapshot();
        let mut tables = snap.table_names();
        tables.sort();
        let members = snap.member_sites(); // sorted
        let joining = snap.joining_copies();
        for table in tables {
            let floor = match self.floors.get(&table) {
                Some(f) => *f,
                None => continue, // created after attach: not defended
            };
            let hosts = match snap.sites_for(&table) {
                Ok(h) => h,
                Err(_) => continue,
            };
            let live_current = hosts
                .iter()
                .filter(|s| {
                    !cluster.is_crashed(**s)
                        && cluster.worker(**s).is_ok()
                        && !joining.contains(&(table.clone(), **s))
                })
                .count();
            if live_current >= floor {
                continue;
            }
            // A surviving member with room gets a fresh replica.
            if let Some(spare) = members.iter().find(|s| {
                !hosts.contains(*s) && !cluster.is_crashed(**s) && cluster.worker(**s).is_ok()
            }) {
                return Some(Repair::Replicate {
                    table,
                    target: *spare,
                });
            }
            // No spare: recover the lowest crashed host in place.
            if let Some(dead) = hosts.iter().find(|s| cluster.is_crashed(**s)) {
                return Some(Repair::RecoverSite(*dead));
            }
            // Deficit but nothing actionable (e.g. hosts gone from the
            // membership and no spare): leave it flagged degraded.
        }
        None
    }
}

/// Handle to a background supervisor thread; stops and joins on drop.
pub struct SupervisorHandle {
    stop: Arc<AtomicBool>,
    stats: Arc<SupervisorStats>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SupervisorHandle {
    pub fn stats(&self) -> &Arc<SupervisorStats> {
        &self.stats
    }

    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SupervisorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Cluster {
    /// Spawns the replication supervisor in a background thread: every
    /// tick it scans for under-replicated objects and repairs at most one,
    /// with backoff seeded by `seed` on failure. The returned handle stops
    /// and joins the thread on drop.
    pub fn start_supervisor(
        self: &Arc<Self>,
        seed: u64,
    ) -> harbor_common::DbResult<SupervisorHandle> {
        let mut sup = ReplicationSupervisor::new(seed, self);
        let stats = sup.stats().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let cluster = self.clone();
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("harbor-repl-supervisor".into())
            .spawn(move || {
                let mut tick_no = 0u64;
                while !stop2.load(Ordering::SeqCst) {
                    let _ = sup.tick(&cluster, tick_no);
                    tick_no += 1;
                    std::thread::sleep(TICK);
                }
            })
            .map_err(|e| {
                harbor_common::DbError::internal(format!("spawn supervisor thread: {e}"))
            })?;
        Ok(SupervisorHandle {
            stop,
            stats,
            thread: Some(thread),
        })
    }
}
