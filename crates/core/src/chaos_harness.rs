//! Deterministic chaos soak harness: a seeded mixed workload driven through
//! a cluster whose links run over a [`harbor_net::ChaosTransport`] and whose
//! sites crash on a [`harbor_dist::CrashSchedule`], with cluster invariants
//! checked after every run.
//!
//! The harness is deliberately *serial*: one seeded RNG decides the whole
//! run — each operation, each crash, each partition, each recovery — so the
//! same seed replays the identical event schedule, and (because the chaos
//! layer's per-frame decisions are themselves seed-derived) the identical
//! fault trace. A failing seed is a reproducer, not an anecdote.
//!
//! Invariants checked at quiesce (`ChaosRunReport::violations` empty):
//!
//! 1. every *acknowledged* commit is present, with the acknowledged value,
//!    on every live replica (a commit the client saw must survive);
//! 2. all replicas are version-history equal (same `(id, v, ins, del)`
//!    version sets — the strictest equivalence short of page layout);
//! 3. no phantom rows: everything a replica holds traces back to an issued
//!    operation (a transaction that was aborted somewhere can never have
//!    committed elsewhere);
//! 4. K-safety is tracked: the minimum number of live replicas seen during
//!    the run is reported, and losing the last replica fails the run.

use crate::cluster::Cluster;
use crate::recovery::ScrubReport;
use crate::supervisor::ReplicationSupervisor;
use harbor_common::metrics::Group;
use harbor_common::{DbResult, SiteId, Value};
use harbor_dist::{CrashPoint, UpdateRequest};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;

/// One run's knobs. All probabilities are per-mille per operation.
#[derive(Clone, Debug)]
pub struct ChaosRunConfig {
    /// Master seed: drives the workload RNG; callers normally also build
    /// the cluster's [`harbor_net::ChaosConfig`] from it.
    pub seed: u64,
    /// Operations in the workload (inserts/updates/reads).
    pub ops: usize,
    /// Probability (‰) that an operation is preceded by a worker crash
    /// (fail-stop or an armed [`CrashPoint`], chosen by the RNG).
    pub crash_per_mille: u16,
    /// Probability (‰) that an operation is preceded by a partition.
    pub partition_per_mille: u16,
    /// Probability (‰) that an operation is preceded by a recovery attempt
    /// of one crashed site.
    pub recover_per_mille: u16,
    /// Heal an active partition after this many operations.
    pub partition_ops: usize,
    /// Never crash below this many live workers.
    pub min_live: usize,
    /// Client concurrency: each write slot of the schedule runs a *burst*
    /// of this many transactions on concurrent threads (1 = the classic
    /// serial harness). Every random draw a burst needs is taken from the
    /// run RNG *before* any thread starts, so the event schedule stays
    /// seed-deterministic; only commit interleaving varies. Bursts > 1 are
    /// what drives multiple transactions into one commit epoch.
    pub concurrent_streams: usize,
    /// Probability (‰) that an operation is preceded by a brand-new site
    /// joining under load (capped by `max_joins`). Membership draws are
    /// taken only when either membership probability is non-zero, so the
    /// classic profiles replay their historical schedules unchanged.
    pub join_per_mille: u16,
    /// Probability (‰) that an operation is preceded by a graceful
    /// decommission of a live site (guarded so every table keeps at least
    /// two other live copies and the cluster stays above `min_live`).
    pub decommission_per_mille: u16,
    /// Upper bound on sites joined during one run.
    pub max_joins: usize,
    /// Run a [`ReplicationSupervisor`] ticked synchronously after every
    /// operation (deterministic: no background thread), so kill-below-K
    /// deficits heal without the harness's own recovery events.
    pub supervisor: bool,
}

impl ChaosRunConfig {
    /// The CI soak profile: short, bounded, but with every fault class
    /// reachable.
    pub fn soak(seed: u64) -> Self {
        ChaosRunConfig {
            seed,
            ops: 120,
            crash_per_mille: 40,
            partition_per_mille: 25,
            recover_per_mille: 60,
            partition_ops: 3,
            min_live: 2,
            concurrent_streams: 1,
            join_per_mille: 0,
            decommission_per_mille: 0,
            max_joins: 0,
            supervisor: false,
        }
    }

    /// The batched-commit soak profile: the same fault classes, but write
    /// slots run 4-wide bursts so epochs form at the coordinator (pair with
    /// a 2PC cluster built with `epoch_commit` set).
    pub fn soak_batched(seed: u64) -> Self {
        ChaosRunConfig {
            concurrent_streams: 4,
            ..Self::soak(seed)
        }
    }

    /// The grow/shrink soak profile: the classic fault classes plus
    /// membership churn — sites join mid-burst, live sites decommission
    /// mid-recovery — with the replication supervisor healing
    /// kill-below-K deficits.
    pub fn soak_membership(seed: u64) -> Self {
        ChaosRunConfig {
            join_per_mille: 35,
            decommission_per_mille: 25,
            max_joins: 2,
            supervisor: true,
            ..Self::soak(seed)
        }
    }
}

/// What one chaos run did and found.
#[derive(Clone, Debug, Default)]
pub struct ChaosRunReport {
    pub committed: usize,
    pub aborted: usize,
    pub reads: usize,
    pub read_errors: usize,
    pub crashes: usize,
    pub partitions: usize,
    pub recoveries: usize,
    pub failed_recoveries: usize,
    /// Minimum live-replica count observed (K-safety floor).
    pub min_live_seen: usize,
    /// The deterministic event schedule ("op 12: crash site-2 fail-stop").
    pub schedule: Vec<String>,
    /// The chaos layer's canonical fault trace (empty when chaos is off),
    /// followed by each site's canonical disk-fault trace when the cluster
    /// was built with a [`harbor_storage::DiskFaultConfig`].
    pub fault_trace: String,
    /// Disk faults injected across all sites (0 without a fault plan).
    pub disk_faults_injected: u64,
    /// Pages checksum-scanned by the quiesce scrub.
    pub scrub_pages_scanned: u64,
    /// Corrupt pages the quiesce scrub found (and repaired).
    pub scrub_corrupt_pages: u64,
    /// Tuples the scrub's repairs copied from buddies.
    pub scrub_tuples_copied: u64,
    /// Invariant violations; an empty vector is a passing run.
    pub violations: Vec<String>,
    /// Per-site read-hot-path summaries at quiesce: aggregate buffer-pool
    /// hit/miss/eviction counters, scan admission counters, zero-copy bytes
    /// shipped, and the per-shard pool breakdown (`hits/misses/evictions/
    /// resident` per shard).
    pub read_path: Vec<String>,
    /// Coordinator commit-path summary at quiesce: forced writes, physical
    /// syncs, batched syncs saved, and the epoch-size histogram.
    pub commit_path: String,
    /// Sites joined / joins rolled back during the run.
    pub joins: usize,
    pub failed_joins: usize,
    /// Sites gracefully decommissioned / refused decommissions.
    pub decommissions: usize,
    pub failed_decommissions: usize,
    /// Repairs the replication supervisor completed (0 without one).
    pub auto_repairs: u64,
    /// Supervisor ticks run / ticks skipped by the admission throttle.
    pub supervisor_ticks: u64,
    pub supervisor_throttled: u64,
    /// Coordinator membership counters at quiesce
    /// (`joins=.. decommissions=.. auto_repairs=.. backoff_retries=..`).
    pub membership: String,
}

impl ChaosRunReport {
    /// Books one scrub that came through clean.
    fn add_scrub(&mut self, scrub: &ScrubReport) {
        self.scrub_pages_scanned += scrub.pages_scanned;
        self.scrub_corrupt_pages += scrub.corrupt_pages;
        let copied: u64 = scrub.repairs.iter().map(|r| r.tuples_copied).sum();
        self.scrub_tuples_copied += copied;
    }
}

/// Deterministic splitmix64 stream for the event schedule (the chaos layer
/// draws its own, keyed per link; this one is per run).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let z = harbor_common::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        z
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Last client-visible knowledge about one key of the workload table.
#[derive(Clone, Debug, Default)]
struct KeyState {
    /// Value of the last *acknowledged* write, if any write was acked.
    acked: Option<i64>,
    /// Whether the row's insert was acknowledged (row must exist).
    insert_acked: bool,
    /// Whether any write to the key was ever attempted (row may exist).
    attempted: bool,
    /// Values of writes whose outcome is unknown (commit returned an error
    /// after the insert was acked — the value may or may not have stuck).
    maybe: Vec<i64>,
}

impl Cluster {
    /// Runs a seeded chaos workload against this cluster and checks the
    /// invariants at quiesce. The cluster should be built with
    /// [`crate::ClusterConfig::chaos`] set (the harness also works without
    /// chaos — then only crash-schedule faults fire) and one or more
    /// `(id Int64, v Int32)` tables, which the workload targets. With
    /// `concurrent_streams > 1` each burst lane is pinned round-robin to a
    /// table, so a cluster with as many tables as lanes gives every lane a
    /// contention-free stream (page locks otherwise serialize the burst).
    pub fn run_chaos(&self, cfg: &ChaosRunConfig) -> DbResult<ChaosRunReport> {
        let table = self.config().tables[0].name.clone();
        let burst = cfg.concurrent_streams.max(1);
        let lane_tables: Vec<String> = (0..burst)
            .map(|lane| {
                let tables = &self.config().tables;
                tables[lane % tables.len()].name.clone()
            })
            .collect();
        let mut rng = Rng(cfg.seed ^ 0xC0FFEE);
        let mut report = ChaosRunReport::default();
        let mut keys: BTreeMap<String, BTreeMap<i64, KeyState>> = BTreeMap::new();
        let all_sites = self.worker_sites();
        report.min_live_seen = all_sites.len();
        let mut partition_left = 0usize;
        // Membership churn state: joined sites take fresh, monotonically
        // increasing ids so a decommissioned id is never reused.
        let mut next_new_site: u16 = self
            .placement()
            .member_sites()
            .iter()
            .map(|s| s.0)
            .max()
            .unwrap_or(0)
            + 1;
        let mut joins_done = 0usize;
        // Ticked synchronously after each op — deterministic, unlike the
        // background thread of `Cluster::start_supervisor`.
        let mut supervisor = cfg
            .supervisor
            .then(|| ReplicationSupervisor::new(cfg.seed, self));
        if let Some(chaos) = self.chaos() {
            chaos.clear_trace();
            chaos.set_enabled(true);
        }
        // Disk faults are independent of network chaos: arm them for the
        // whole run (a no-op when the cluster has no fault plan).
        self.set_disk_faults_enabled(true);

        for op in 0..cfg.ops {
            // --- scheduled events -------------------------------------
            let draw = rng.below(1000) as u16;
            if draw < cfg.crash_per_mille {
                self.chaos_crash_event(op, &mut rng, cfg, &mut report);
            } else if draw < cfg.crash_per_mille + cfg.partition_per_mille {
                if partition_left == 0 && self.chaos().is_some() {
                    let live = self.live_sites();
                    if live.len() > cfg.min_live {
                        let victim = live[rng.below(live.len() as u64) as usize];
                        let name = format!("site-{}", victim.0);
                        self.chaos()
                            .unwrap()
                            .partition(&[&name], &["coordinator"], true);
                        partition_left = cfg.partition_ops;
                        report.partitions += 1;
                        report
                            .schedule
                            .push(format!("op {op}: partition {name} | coordinator"));
                    }
                }
            } else if draw < cfg.crash_per_mille + cfg.partition_per_mille + cfg.recover_per_mille {
                // Recover one crashed site (only once the net is whole —
                // recovery through an active partition is retried at
                // quiesce anyway).
                if partition_left == 0 {
                    let crashed: Vec<SiteId> = self
                        .placement()
                        .member_sites()
                        .into_iter()
                        .filter(|s| self.is_crashed(*s))
                        .collect();
                    if !crashed.is_empty() {
                        let site = crashed[rng.below(crashed.len() as u64) as usize];
                        self.try_chaos_recover(&format!("op {op}"), site, &mut report);
                    }
                }
            }
            // --- membership events (grow/shrink) -----------------------
            // Gated on non-zero probabilities so the classic profiles take
            // the exact historical draw sequence from the run RNG.
            if cfg.join_per_mille > 0 || cfg.decommission_per_mille > 0 {
                let mdraw = rng.below(1000) as u16;
                if mdraw < cfg.join_per_mille {
                    // Join a brand-new site under load. Like recovery, the
                    // bootstrap needs a clean commit state — a buddy stuck
                    // prepared-to-commit would serve catch-up scans that
                    // miss an acked commit.
                    if joins_done < cfg.max_joins
                        && partition_left == 0
                        && self.resolve_pending_txns(&format!("op {op}"), &mut report)
                    {
                        let site = SiteId(next_new_site);
                        match self.join_worker(site) {
                            Ok(_) => {
                                joins_done += 1;
                                next_new_site += 1;
                                report.joins += 1;
                                report.schedule.push(format!("op {op}: join {site} ok"));
                            }
                            Err(e) => {
                                report.failed_joins += 1;
                                report
                                    .schedule
                                    .push(format!("op {op}: join {site} failed: {e}"));
                            }
                        }
                    }
                } else if mdraw < cfg.join_per_mille + cfg.decommission_per_mille
                    && partition_left == 0
                {
                    // Gracefully decommission a live site, but only one
                    // whose removal leaves every table it hosts with at
                    // least two other live copies (so later crashes still
                    // find a recovery buddy) and the cluster above its
                    // min-live floor.
                    let live = self.live_sites();
                    if live.len() > cfg.min_live {
                        let snap = self.placement().snapshot();
                        let candidates: Vec<SiteId> = live
                            .iter()
                            .copied()
                            .filter(|s| {
                                snap.objects_on(*s).iter().all(|(t, _)| {
                                    snap.sites_for(t)
                                        .map(|hosts| {
                                            hosts
                                                .iter()
                                                .filter(|h| live.contains(h) && **h != *s)
                                                .count()
                                                >= 2
                                        })
                                        .unwrap_or(false)
                                })
                            })
                            .collect();
                        if !candidates.is_empty()
                            && self.resolve_pending_txns(&format!("op {op}"), &mut report)
                        {
                            let victim = candidates[rng.below(candidates.len() as u64) as usize];
                            match self.decommission_worker(victim) {
                                Ok(_) => {
                                    report.decommissions += 1;
                                    report
                                        .schedule
                                        .push(format!("op {op}: decommission {victim} ok"));
                                }
                                Err(e) => {
                                    report.failed_decommissions += 1;
                                    report.schedule.push(format!(
                                        "op {op}: decommission {victim} failed: {e}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }

            if partition_left > 0 {
                partition_left -= 1;
                if partition_left == 0 {
                    if let Some(chaos) = self.chaos() {
                        chaos.heal();
                    }
                    report.schedule.push(format!("op {op}: heal"));
                }
            }

            // An armed crash point on the sole remaining replica would take
            // the cluster to zero live copies when it fires, and with every
            // copy down no site can ever recover (recovery needs a live
            // buddy) — disarm it instead.
            let live = self.live_sites();
            if live.len() == 1 {
                let last = live[0];
                if self
                    .crash_schedule()
                    .armed()
                    .iter()
                    .any(|(s, _)| *s == last)
                {
                    self.crash_schedule().disarm_if(last, |_| true);
                    report
                        .schedule
                        .push(format!("op {op}: disarm {last} (last live replica)"));
                }
            }

            // --- one workload operation -------------------------------
            // With `concurrent_streams > 1` a write slot becomes a burst:
            // every random draw the burst needs happens here, on the run
            // RNG, before any client thread starts — so the seed still
            // determines the full event schedule and only the commit
            // interleaving (which is what feeds epochs) is concurrent.
            let kind = rng.below(10);
            if kind < 4 {
                // Insert fresh keys (one per burst lane; lanes never share
                // a key, so outcomes can be applied lane-by-lane).
                let writes: Vec<(usize, i64, i64)> = (0..burst)
                    .map(|lane| {
                        (
                            lane,
                            (op * burst + lane) as i64,
                            rng.below(1_000_000) as i64,
                        )
                    })
                    .collect();
                for (lane, id, _) in &writes {
                    keys.entry(lane_tables[*lane].clone())
                        .or_default()
                        .entry(*id)
                        .or_default()
                        .attempted = true;
                }
                let txns: Vec<Vec<UpdateRequest>> = writes
                    .iter()
                    .map(|(lane, id, v)| {
                        vec![UpdateRequest::Insert {
                            table: lane_tables[*lane].clone(),
                            values: vec![Value::Int64(*id), Value::Int32(*v as i32)],
                        }]
                    })
                    .collect();
                for ((lane, id, v), ok) in writes.iter().zip(self.run_chaos_burst(txns)) {
                    let st = keys
                        .entry(lane_tables[*lane].clone())
                        .or_default()
                        .entry(*id)
                        .or_default();
                    if ok {
                        st.insert_acked = true;
                        st.acked = Some(*v);
                        st.maybe.clear();
                        report.committed += 1;
                    } else {
                        st.maybe.push(*v);
                        report.aborted += 1;
                    }
                }
            } else if kind < 7 {
                // Update previously inserted keys, if any. Burst lanes must
                // target *distinct* keys: two concurrent updates of one key
                // would leave "which one is visible" up to commit order,
                // which the lane-ordered bookkeeping below cannot model.
                let known: Vec<(String, i64)> = keys
                    .iter()
                    .flat_map(|(t, m)| {
                        m.iter()
                            .filter(|(_, s)| s.insert_acked)
                            .map(move |(k, _)| (t.clone(), *k))
                    })
                    .collect();
                let mut picked: Vec<(String, i64, i64)> = Vec::new();
                for _ in 0..burst {
                    if let Some((t, id)) = known.get(rng.below(known.len().max(1) as u64) as usize)
                    {
                        let v = rng.below(1_000_000) as i64;
                        if !picked.iter().any(|(pt, pk, _)| pt == t && pk == id) {
                            picked.push((t.clone(), *id, v));
                        }
                    }
                }
                let txns: Vec<Vec<UpdateRequest>> = picked
                    .iter()
                    .map(|(t, id, v)| {
                        vec![UpdateRequest::UpdateByKey {
                            table: t.clone(),
                            key: *id,
                            set: vec![(1, Value::Int32(*v as i32))],
                        }]
                    })
                    .collect();
                for ((t, id, v), ok) in picked.iter().zip(self.run_chaos_burst(txns)) {
                    if let Some(st) = keys.get_mut(t).and_then(|m| m.get_mut(id)) {
                        if ok {
                            st.acked = Some(*v);
                            st.maybe.clear();
                            report.committed += 1;
                        } else {
                            st.maybe.push(*v);
                            report.aborted += 1;
                        }
                    }
                }
            } else {
                // Historical read through the coordinator (exercises the
                // bounded-retry degradation path).
                report.reads += 1;
                let now = self.coordinator().authority().now().prev();
                if self
                    .coordinator()
                    .read_historical(&table, now, |_| {})
                    .is_err()
                {
                    report.read_errors += 1;
                }
            }

            // Reap sites that crashed themselves via the schedule, and
            // fail-stop workers the coordinator presumed dead (a severed or
            // partitioned link, §5.5.1): they may have missed commits and
            // must rejoin through recovery, not keep serving stale state.
            // Two guards keep the cluster recoverable: the last live replica
            // is never fail-stopped (with every copy down no site could ever
            // recover), and a swept site is re-synced in place so failures
            // do not accumulate until no complete copy remains.
            for site in self.reap_scheduled_crashes() {
                report.schedule.push(format!("op {op}: reaped {site}"));
            }
            for site in self.placement().member_sites() {
                if self.is_crashed(site) || !self.coordinator().is_dead(site) {
                    continue;
                }
                if self.live_sites().len() <= 1 {
                    report.schedule.push(format!(
                        "op {op}: defer fail-stop of presumed-dead {site} (last live replica)"
                    ));
                    continue;
                }
                if self.crash_worker(site).is_ok() {
                    report
                        .schedule
                        .push(format!("op {op}: fail-stop presumed-dead {site}"));
                    self.try_chaos_recover(&format!("op {op}"), site, &mut report);
                }
            }
            // The supervisor heals under the same clean-commit-state guard
            // the harness's own recoveries use.
            if let Some(sup) = supervisor.as_mut() {
                if self.resolve_pending_txns(&format!("op {op}"), &mut report) {
                    if let Some(repair) = sup.tick(self, op as u64) {
                        report
                            .schedule
                            .push(format!("op {op}: supervisor repaired {repair:?}"));
                    }
                }
            }
            report.min_live_seen = report.min_live_seen.min(self.live_sites().len());
        }

        // --- quiesce ----------------------------------------------------
        if let Some(chaos) = self.chaos() {
            chaos.heal();
            chaos.set_enabled(false);
        }
        self.set_disk_faults_enabled(false);
        // Membership may have churned mid-run: quiesce against the
        // catalog's *current* roster (joined sites included, decommissioned
        // sites gone), not the boot-time one.
        let all_sites: Vec<SiteId> = {
            let mut v = self.placement().member_sites();
            v.sort();
            v
        };
        for site in &all_sites {
            self.crash_schedule().disarm_if(*site, |_| true);
        }
        for site in self.reap_scheduled_crashes() {
            report.schedule.push(format!("quiesce: reaped {site}"));
        }
        // Quiesce can need several rounds: when every replica was presumed
        // dead, one was kept up (deferred fail-stop) to serve as the
        // recovery buddy, and can only be fail-stopped and re-synced itself
        // once a peer has rejoined.
        let mut scrubbed: HashSet<SiteId> = HashSet::new();
        for round in 0..=all_sites.len() {
            let tag = format!("quiesce[{round}]");
            let txns_clear = self.resolve_pending_txns(&tag, &mut report);
            // Scrub every live site before any recovery attempt: a corrupt
            // buddy page must be repaired before it serves catch-up scans.
            // Deferred while commit state is in doubt — the repair's
            // Phase 1 would drop an insert still prepared locally but
            // already committed at the buddy.
            if txns_clear {
                for site in self.live_sites() {
                    if self.disk_fault_plan(site).is_none() || scrubbed.contains(&site) {
                        continue;
                    }
                    match self.scrub_worker(site) {
                        Ok(r) => {
                            scrubbed.insert(site);
                            report.add_scrub(&r);
                            if r.corrupt_pages > 0 {
                                report.schedule.push(format!(
                                    "{tag}: scrub {site}: {} corrupt ({} healed, \
                                     {} objects recovered)",
                                    r.corrupt_pages,
                                    r.self_healed,
                                    r.repairs.len()
                                ));
                            }
                        }
                        // Retried next round — a buddy may still be down.
                        Err(e) => report
                            .schedule
                            .push(format!("{tag}: scrub {site} failed: {e}")),
                    }
                }
            }
            for site in all_sites.iter().copied() {
                if !self.is_crashed(site)
                    && self.coordinator().is_dead(site)
                    && self.live_sites().len() > 1
                    && self.crash_worker(site).is_ok()
                {
                    report
                        .schedule
                        .push(format!("{tag}: fail-stop presumed-dead {site}"));
                }
            }
            let crashed: Vec<SiteId> = all_sites
                .iter()
                .copied()
                .filter(|s| self.is_crashed(*s))
                .collect();
            let stale = self
                .live_sites()
                .into_iter()
                .any(|s| self.coordinator().is_dead(s));
            if crashed.is_empty() && !stale {
                break;
            }
            for site in crashed {
                for _attempt in 0..3 {
                    if self.try_chaos_recover(&tag, site, &mut report) {
                        break;
                    }
                }
            }
        }
        for site in &all_sites {
            if self.is_crashed(*site) {
                report
                    .violations
                    .push(format!("{site} unrecoverable at quiesce"));
            } else if self.coordinator().is_dead(*site) {
                report
                    .violations
                    .push(format!("{site} still presumed dead at quiesce"));
            } else if self.disk_fault_plan(*site).is_some() && !scrubbed.contains(site) {
                // A site recovered in the final round was already scrubbed
                // inside recovery; every other live site must have come
                // through `scrub_worker` clean.
                match self.scrub_worker(*site) {
                    Ok(r) => report.add_scrub(&r),
                    Err(e) => report
                        .violations
                        .push(format!("{site} never scrubbed clean: {e}")),
                }
            }
        }
        if let Some(chaos) = self.chaos() {
            report.fault_trace = chaos.trace_canonical();
        }
        report.disk_faults_injected = self.disk_faults_injected();
        for site in &all_sites {
            if let Some(plan) = self.disk_fault_plan(*site) {
                let t = plan.trace_canonical();
                if !t.is_empty() {
                    report.fault_trace.push_str(&format!("[disk {site}]\n{t}"));
                }
            }
        }

        // --- membership convergence -------------------------------------
        // No copy may still be mid-join at quiesce, and every member must
        // have come back live (the liveness half is covered by the crashed/
        // presumed-dead checks above, which already run over the current
        // roster). Version-history equality across each table's hosts is
        // re-checked by invariant (2) below, now including joined sites.
        for (t, site) in self.placement().joining_copies() {
            report
                .violations
                .push(format!("copy of {t:?} on {site} still joining at quiesce"));
        }
        let coord_metrics = self.coordinator().metrics().snapshot();
        report.membership = coord_metrics.summary(Group::Membership);
        report.auto_repairs = coord_metrics.auto_repairs;
        if let Some(sup) = supervisor.as_ref() {
            report.supervisor_ticks = sup.stats().ticks.load(Ordering::Relaxed);
            report.supervisor_throttled = sup.stats().throttled.load(Ordering::Relaxed);
        }

        // --- invariants -------------------------------------------------
        for (t, table_keys) in &keys {
            self.check_invariants(t, table_keys, &mut report)?;
        }
        for site in &all_sites {
            if let Ok(e) = self.engine(*site) {
                let snap = e.metrics().snapshot();
                let shards: Vec<String> = e
                    .pool()
                    .shard_stats()
                    .iter()
                    .map(|s| format!("{}h/{}m/{}e/{}r", s.hits, s.misses, s.evictions, s.resident))
                    .collect();
                report.read_path.push(format!(
                    "{site}: {} shards[{}] {}",
                    snap.summary(Group::ReadPath),
                    shards.join(" "),
                    snap.summary(Group::Scrub)
                ));
            }
        }
        report.commit_path = self
            .coordinator()
            .metrics()
            .snapshot()
            .summary(Group::CommitPath);
        Ok(report)
    }

    /// Runs one burst of transactions: inline when it is a single
    /// transaction (the classic serial harness — byte-for-byte the same
    /// schedule as before bursts existed), on scoped threads otherwise.
    /// Returns per-lane commit outcomes in lane order.
    fn run_chaos_burst(&self, txns: Vec<Vec<UpdateRequest>>) -> Vec<bool> {
        if txns.len() <= 1 {
            return txns
                .into_iter()
                .map(|ops| self.run_txn(ops).is_ok())
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = txns
                .into_iter()
                .map(|ops| scope.spawn(move || self.run_txn(ops).is_ok()))
                .collect();
            handles
                .into_iter()
                .map(|h| matches!(h.join(), Ok(true)))
                .collect()
        })
    }

    fn chaos_crash_event(
        &self,
        op: usize,
        rng: &mut Rng,
        cfg: &ChaosRunConfig,
        report: &mut ChaosRunReport,
    ) {
        let live = self.live_sites();
        if live.len() <= cfg.min_live {
            return;
        }
        let victim = live[rng.below(live.len() as u64) as usize];
        report.crashes += 1;
        match rng.below(3) {
            0 => {
                if self.crash_worker(victim).is_ok() {
                    report
                        .schedule
                        .push(format!("op {op}: crash {victim} fail-stop"));
                }
            }
            1 => {
                self.arm_crash(victim, CrashPoint::WorkerDuringPrepareVote);
                report
                    .schedule
                    .push(format!("op {op}: arm {victim} during-prepare-vote"));
            }
            _ => {
                self.arm_crash(victim, CrashPoint::WorkerAfterPtcAck);
                report
                    .schedule
                    .push(format!("op {op}: arm {victim} after-ptc-ack"));
            }
        }
    }

    /// Terminates every undecided distributed transaction held by a live
    /// worker (§4.3.3), visiting sites in rank order. Returns `true` when no
    /// undecided state remains. Background auto-consensus stays off in the
    /// harness (its resolutions would race the workload's channel creation
    /// and perturb the deterministic fault trace), so this is the failure
    /// detector's stand-in, run at deterministic points: before any
    /// recovery, join, scrub or repair, because a buddy holding an acked
    /// commit merely prepared would serve catch-up scans that miss it.
    ///
    /// Why a presumed-dead last replica may then serve as a buddy: a worker
    /// in doubt asks the coordinator first, and in a chaos run the
    /// coordinator never fails, so each transaction ends as the coordinator
    /// decided — as its client was told — not as a Table 4.1 election among
    /// the survivors would have it. That holds only while the ask gets
    /// through, so behind a partition nothing is terminated and the caller
    /// defers (a blackholed ask would fall back to the election). An ask
    /// lost to drops on every retry falls back to it too; an acked commit
    /// that election loses is what the final invariant check reports.
    fn resolve_pending_txns(&self, tag: &str, report: &mut ChaosRunReport) -> bool {
        let partitioned = self.chaos().is_some_and(|chaos| chaos.is_partitioned());
        let mut all_clear = true;
        for site in self.live_sites() {
            let Ok(worker) = self.worker(site) else {
                continue;
            };
            for tid in worker.unresolved_dist_txns() {
                // No PREPARE came, so the worker aborts alone (§4.3.2) once it
                // sees its coordinator's session close, perhaps already: this
                // abort needs no peer and writes no line, so that race cannot
                // fork the schedule.
                if worker.participants(tid).is_empty() {
                    all_clear &= worker.resolve_by_consensus(tid).is_ok();
                    continue;
                }
                if partitioned {
                    all_clear = false;
                    report.schedule.push(format!(
                        "{tag}: {site} holds txn {} behind a partition",
                        tid.0
                    ));
                    continue;
                }
                match worker.resolve_by_consensus(tid) {
                    Ok(true) => report
                        .schedule
                        .push(format!("{tag}: {site} resolved txn {}", tid.0)),
                    Ok(false) => {
                        all_clear = false;
                        report
                            .schedule
                            .push(format!("{tag}: {site} could not resolve txn {}", tid.0));
                    }
                    Err(e) => {
                        all_clear = false;
                        report
                            .schedule
                            .push(format!("{tag}: {site} resolving txn {} failed: {e}", tid.0));
                    }
                }
            }
        }
        all_clear
    }

    /// One guarded recovery attempt. Undecided commit-protocol state is
    /// terminated first, and the recovery is deferred (to a later event or
    /// to quiesce) while any remains — see [`Self::resolve_pending_txns`].
    fn try_chaos_recover(&self, tag: &str, site: SiteId, report: &mut ChaosRunReport) -> bool {
        if !self.resolve_pending_txns(tag, report) {
            report.schedule.push(format!(
                "{tag}: defer recover {site}: unresolved transactions"
            ));
            return false;
        }
        match self.recover_worker_harbor(site) {
            Ok(_) => {
                report.recoveries += 1;
                report.schedule.push(format!("{tag}: recover {site} ok"));
                true
            }
            Err(e) => {
                report.failed_recoveries += 1;
                report
                    .schedule
                    .push(format!("{tag}: recover {site} failed: {e}"));
                false
            }
        }
    }

    fn live_sites(&self) -> Vec<SiteId> {
        self.worker_sites()
            .into_iter()
            .filter(|s| !self.is_crashed(*s))
            .collect()
    }

    /// The invariant battery run at quiesce; failures are appended to
    /// `report.violations` (not returned as `Err` — an invariant violation
    /// is a *finding*, an `Err` is the harness itself breaking).
    fn check_invariants(
        &self,
        table: &str,
        keys: &BTreeMap<i64, KeyState>,
        report: &mut ChaosRunReport,
    ) -> DbResult<()> {
        let live = self.live_sites();
        if live.is_empty() {
            report.violations.push("no live replicas at quiesce".into());
            return Ok(());
        }
        // (2) replicas version-history equal.
        let reference: Vec<(i64, i64, u64, u64)> = self.version_history(table, live[0])?;
        for site in live.iter().skip(1) {
            let other = self.version_history(table, *site)?;
            if other != reference {
                report.violations.push(format!(
                    "version histories diverge: {} has {} versions, {} has {}",
                    live[0],
                    reference.len(),
                    site,
                    other.len()
                ));
            }
        }
        // (1) + (3) acked commits present with acked values; no phantoms.
        // Current visible state = versions with no deletion.
        let mut state: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for (id, v, _ins, del) in &reference {
            if *del == 0 {
                state.entry(*id).or_default().push(*v);
            }
        }
        for (id, versions) in &state {
            if versions.len() > 1 {
                report
                    .violations
                    .push(format!("key {id} visible {} times", versions.len()));
            }
        }
        for (id, st) in keys {
            let visible = state.get(id).and_then(|v| v.first().copied());
            match (st.insert_acked, visible) {
                (true, None) => report
                    .violations
                    .push(format!("acked key {id} missing from replicas")),
                (true, Some(v)) => {
                    let ok = st.acked == Some(v) || st.maybe.contains(&v);
                    if !ok {
                        report.violations.push(format!(
                            "key {id} holds {v}, client acked {:?} (maybe {:?})",
                            st.acked, st.maybe
                        ));
                    }
                }
                (false, Some(v)) => {
                    // Insert never acked: the value may only come from the
                    // indeterminate attempts.
                    if !st.maybe.contains(&v) {
                        report
                            .violations
                            .push(format!("unacked key {id} holds unexplained value {v}"));
                    }
                }
                (false, None) => {}
            }
        }
        for id in state.keys() {
            if !keys.get(id).map(|s| s.attempted).unwrap_or(false) {
                report.violations.push(format!("phantom key {id}"));
            }
        }
        // (4) K-safety floor.
        if report.min_live_seen == 0 {
            report.violations.push("all replicas lost mid-run".into());
        }
        Ok(())
    }

    /// Every version a site holds, committed or deleted, as
    /// `(id, v, ins, del)` sorted.
    pub fn version_history(
        &self,
        table: &str,
        site: SiteId,
    ) -> DbResult<Vec<(i64, i64, u64, u64)>> {
        let e = self.engine(site)?;
        let def = e
            .table_def(table)
            .ok_or_else(|| harbor_common::DbError::internal(format!("no table {table}")))?;
        let mut scan =
            harbor_exec::SeqScan::new(e.pool().clone(), def.id, harbor_exec::ReadMode::SeeDeleted)?;
        let mut out: Vec<(i64, i64, u64, u64)> = harbor_exec::collect(&mut scan)?
            .iter()
            .map(|t| {
                Ok((
                    t.get(2).as_i64()?,
                    t.get(3).as_i64()?,
                    t.get(0).as_time()?.0,
                    t.get(1).as_time()?.0,
                ))
            })
            .collect::<DbResult<_>>()?;
        out.sort_unstable();
        Ok(out)
    }
}
