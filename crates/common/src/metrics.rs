//! Lock-free event counters.
//!
//! Every site owns a [`Metrics`] instance; the storage, WAL and networking
//! layers increment it as they work. The evaluation harness reads these to
//! *measure* the costs tabulated in the paper's Table 4.2 (messages per
//! worker, forced writes per coordinator/worker) instead of asserting them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, cheaply cloneable counter bundle.
#[derive(Clone, Default, Debug)]
pub struct Metrics {
    inner: Arc<Counters>,
}

#[derive(Default, Debug)]
struct Counters {
    /// Log records appended (forced or not).
    log_writes: AtomicU64,
    /// Synchronous forces of the log to stable storage. Group commit may
    /// satisfy several commits with one physical force; both are counted.
    forced_writes: AtomicU64,
    /// Physical disk syncs actually issued (group commit batches collapse
    /// many logical forces into fewer physical syncs).
    physical_syncs: AtomicU64,
    /// Data pages written to disk.
    page_writes: AtomicU64,
    /// Data pages read from disk.
    page_reads: AtomicU64,
    /// Messages sent over the transport.
    messages_sent: AtomicU64,
    /// Bytes sent over the transport.
    bytes_sent: AtomicU64,
    /// Transactions committed.
    commits: AtomicU64,
    /// Transactions aborted.
    aborts: AtomicU64,
    /// Lock acquisitions that had to wait.
    lock_waits: AtomicU64,
    /// Deadlock timeouts.
    lock_timeouts: AtomicU64,
    /// Buffer pool evictions.
    evictions: AtomicU64,
    /// Buffer pool accesses satisfied by a resident frame.
    pool_hits: AtomicU64,
    /// Buffer pool accesses that had to load the page from disk.
    pool_misses: AtomicU64,
    /// Scan rows admitted by the visibility check and materialized.
    scan_rows_admitted: AtomicU64,
    /// Scan rows rejected on raw timestamps, before any tuple decode.
    scan_rows_skipped_predecode: AtomicU64,
    /// Bytes encoded onto the wire straight from page bytes (no
    /// intermediate `Tuple` materialization).
    scan_bytes_zero_copy: AtomicU64,
    /// Tuples shipped to a recovering site by recovery queries.
    recovery_tuples_shipped: AtomicU64,
    /// Bytes of tuple payload shipped to a recovering site.
    recovery_bytes_shipped: AtomicU64,
    /// Tuples the recovering site applied locally during Phase 2.
    recovery_tuples_applied: AtomicU64,
    /// Phase-2 segment ranges fetched from buddies.
    recovery_ranges_fetched: AtomicU64,
    /// Phase-2 segment ranges reassigned after a buddy failed mid-stream.
    recovery_ranges_reassigned: AtomicU64,
    /// Frames the chaos layer dropped (and severed the link for).
    chaos_drops: AtomicU64,
    /// Frames the chaos layer delivered twice.
    chaos_dups: AtomicU64,
    /// Frames the chaos layer delayed before delivery.
    chaos_delays: AtomicU64,
    /// Links the chaos layer severed abruptly mid-stream.
    chaos_disconnects: AtomicU64,
    /// Frames silently blackholed because a partition blocked the link.
    chaos_partition_drops: AtomicU64,
    /// RPC requests that expired a per-request or liveness deadline.
    rpc_timeouts: AtomicU64,
    /// Idempotent-read RPC attempts retried after a transient failure.
    rpc_retries: AtomicU64,
    /// Disk faults injected by the seeded fault plan (read errors, torn
    /// writes, bit flips).
    disk_faults_injected: AtomicU64,
    /// Page reads whose checksum trailer failed verification.
    checksum_failures: AtomicU64,
    /// Pages whose checksum the scrubber verified.
    scrub_pages_scanned: AtomicU64,
    /// Corrupt pages rebuilt (from a resident frame or a buddy query).
    pages_repaired: AtomicU64,
    /// Segment ranges re-fetched from a buddy to repair corrupt pages.
    repair_ranges_fetched: AtomicU64,
    /// Bytes of tuple payload shipped from buddies for page repair.
    repair_bytes_shipped: AtomicU64,
    /// Log syncs avoided by batching several forced records into one force
    /// (epoch group commit: `epoch size - 1` per epoch decision record).
    batched_syncs_saved: AtomicU64,
    /// Commit epochs decided by the coordinator.
    epochs_committed: AtomicU64,
    /// Transactions carried by those epochs (mean epoch size =
    /// `epoch_txns / epochs_committed`).
    epoch_txns: AtomicU64,
    /// Epoch-size histogram buckets.
    epoch_size_1: AtomicU64,
    epoch_size_2_4: AtomicU64,
    epoch_size_5_16: AtomicU64,
    epoch_size_17_64: AtomicU64,
    epoch_size_gt_64: AtomicU64,
    /// Coordinator→worker sessions opened (one connection and one worker
    /// thread each).
    sessions_opened: AtomicU64,
    /// Session leases served from a site's idle list instead.
    sessions_reused: AtomicU64,
    /// Sites joined to the cluster at runtime.
    joins: AtomicU64,
    /// Sites gracefully decommissioned at runtime.
    decommissions: AtomicU64,
    /// Replicas the supervisor re-created after an object dropped below
    /// its K floor (no manual recovery call).
    auto_repairs: AtomicU64,
    /// Attempts re-run by the shared seeded-backoff retry helper.
    backoff_retries: AtomicU64,
    /// Key-index rebuilds (cold build after restart or post-invalidation).
    index_rebuilds: AtomicU64,
    /// Key-index probes that found at least one record id.
    index_hits: AtomicU64,
    /// Key-index probes that found no record id.
    index_misses: AtomicU64,
    /// Client sessions the front door accepted.
    sessions_accepted: AtomicU64,
    /// Client sessions the front door closed (hangup, error, or drain).
    sessions_closed: AtomicU64,
    /// Requests admitted past the front door's permit gate into the engine.
    requests_admitted: AtomicU64,
    /// Requests shed with `Overloaded` (queue full, over the age watermark,
    /// or no permit within the admission budget).
    requests_shed: AtomicU64,
    /// Requests rejected because their deadline expired before execution.
    deadline_rejects: AtomicU64,
    /// Admissions that had to wait for an in-flight permit (contended gate).
    permit_waits: AtomicU64,
    /// High-water mark of the front door's bounded request queue (maximum,
    /// not a sum).
    queue_peak_depth: AtomicU64,
    /// Microseconds graceful drain spent finishing admitted requests.
    drain_micros: AtomicU64,
}

macro_rules! counter {
    ($inc:ident, $get:ident, $field:ident) => {
        #[doc = concat!("Increments `", stringify!($field), "`.")]
        pub fn $inc(&self, n: u64) {
            self.inner.$field.fetch_add(n, Ordering::Relaxed);
        }

        #[doc = concat!("Current value of `", stringify!($field), "`.")]
        pub fn $get(&self) -> u64 {
            self.inner.$field.load(Ordering::Relaxed)
        }
    };
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    counter!(add_log_writes, log_writes, log_writes);
    counter!(add_forced_writes, forced_writes, forced_writes);
    counter!(add_physical_syncs, physical_syncs, physical_syncs);
    counter!(add_page_writes, page_writes, page_writes);
    counter!(add_page_reads, page_reads, page_reads);
    counter!(add_messages_sent, messages_sent, messages_sent);
    counter!(add_bytes_sent, bytes_sent, bytes_sent);
    counter!(add_commits, commits, commits);
    counter!(add_aborts, aborts, aborts);
    counter!(add_lock_waits, lock_waits, lock_waits);
    counter!(add_lock_timeouts, lock_timeouts, lock_timeouts);
    counter!(add_evictions, evictions, evictions);
    counter!(add_pool_hits, pool_hits, pool_hits);
    counter!(add_pool_misses, pool_misses, pool_misses);
    counter!(
        add_scan_rows_admitted,
        scan_rows_admitted,
        scan_rows_admitted
    );
    counter!(
        add_scan_rows_skipped_predecode,
        scan_rows_skipped_predecode,
        scan_rows_skipped_predecode
    );
    counter!(
        add_scan_bytes_zero_copy,
        scan_bytes_zero_copy,
        scan_bytes_zero_copy
    );
    counter!(
        add_recovery_tuples_shipped,
        recovery_tuples_shipped,
        recovery_tuples_shipped
    );
    counter!(
        add_recovery_bytes_shipped,
        recovery_bytes_shipped,
        recovery_bytes_shipped
    );
    counter!(
        add_recovery_tuples_applied,
        recovery_tuples_applied,
        recovery_tuples_applied
    );
    counter!(
        add_recovery_ranges_fetched,
        recovery_ranges_fetched,
        recovery_ranges_fetched
    );
    counter!(
        add_recovery_ranges_reassigned,
        recovery_ranges_reassigned,
        recovery_ranges_reassigned
    );
    counter!(add_chaos_drops, chaos_drops, chaos_drops);
    counter!(add_chaos_dups, chaos_dups, chaos_dups);
    counter!(add_chaos_delays, chaos_delays, chaos_delays);
    counter!(add_chaos_disconnects, chaos_disconnects, chaos_disconnects);
    counter!(
        add_chaos_partition_drops,
        chaos_partition_drops,
        chaos_partition_drops
    );
    counter!(add_rpc_timeouts, rpc_timeouts, rpc_timeouts);
    counter!(add_rpc_retries, rpc_retries, rpc_retries);
    counter!(
        add_disk_faults_injected,
        disk_faults_injected,
        disk_faults_injected
    );
    counter!(add_checksum_failures, checksum_failures, checksum_failures);
    counter!(
        add_scrub_pages_scanned,
        scrub_pages_scanned,
        scrub_pages_scanned
    );
    counter!(add_pages_repaired, pages_repaired, pages_repaired);
    counter!(
        add_repair_ranges_fetched,
        repair_ranges_fetched,
        repair_ranges_fetched
    );
    counter!(
        add_repair_bytes_shipped,
        repair_bytes_shipped,
        repair_bytes_shipped
    );
    counter!(
        add_batched_syncs_saved,
        batched_syncs_saved,
        batched_syncs_saved
    );
    counter!(add_epochs_committed, epochs_committed, epochs_committed);
    counter!(add_epoch_txns, epoch_txns, epoch_txns);
    counter!(add_epoch_size_1, epoch_size_1, epoch_size_1);
    counter!(add_epoch_size_2_4, epoch_size_2_4, epoch_size_2_4);
    counter!(add_epoch_size_5_16, epoch_size_5_16, epoch_size_5_16);
    counter!(add_epoch_size_17_64, epoch_size_17_64, epoch_size_17_64);
    counter!(add_epoch_size_gt_64, epoch_size_gt_64, epoch_size_gt_64);
    counter!(add_sessions_opened, sessions_opened, sessions_opened);
    counter!(add_sessions_reused, sessions_reused, sessions_reused);
    counter!(add_joins, joins, joins);
    counter!(add_decommissions, decommissions, decommissions);
    counter!(add_auto_repairs, auto_repairs, auto_repairs);
    counter!(add_backoff_retries, backoff_retries, backoff_retries);
    counter!(add_index_rebuilds, index_rebuilds, index_rebuilds);
    counter!(add_index_hits, index_hits, index_hits);
    counter!(add_index_misses, index_misses, index_misses);
    counter!(add_sessions_accepted, sessions_accepted, sessions_accepted);
    counter!(add_sessions_closed, sessions_closed, sessions_closed);
    counter!(add_requests_admitted, requests_admitted, requests_admitted);
    counter!(add_requests_shed, requests_shed, requests_shed);
    counter!(add_deadline_rejects, deadline_rejects, deadline_rejects);
    counter!(add_permit_waits, permit_waits, permit_waits);
    counter!(add_drain_micros, drain_micros, drain_micros);

    /// Raises the queue high-water mark to `depth` if it is the new peak.
    pub fn note_queue_depth(&self, depth: u64) {
        self.inner
            .queue_peak_depth
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Current value of `queue_peak_depth` (a maximum, not a sum).
    pub fn queue_peak_depth(&self) -> u64 {
        self.inner.queue_peak_depth.load(Ordering::Relaxed)
    }

    /// Records one decided commit epoch of `n` transactions: bumps the
    /// epoch counters and the matching size-histogram bucket.
    pub fn record_epoch(&self, n: usize) {
        self.add_epochs_committed(1);
        self.add_epoch_txns(n as u64);
        match n {
            0..=1 => self.add_epoch_size_1(1),
            2..=4 => self.add_epoch_size_2_4(1),
            5..=16 => self.add_epoch_size_5_16(1),
            17..=64 => self.add_epoch_size_17_64(1),
            _ => self.add_epoch_size_gt_64(1),
        }
    }

    /// Snapshot of all counters, for diffing across an experiment.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            log_writes: self.log_writes(),
            forced_writes: self.forced_writes(),
            physical_syncs: self.physical_syncs(),
            page_writes: self.page_writes(),
            page_reads: self.page_reads(),
            messages_sent: self.messages_sent(),
            bytes_sent: self.bytes_sent(),
            commits: self.commits(),
            aborts: self.aborts(),
            lock_waits: self.lock_waits(),
            lock_timeouts: self.lock_timeouts(),
            evictions: self.evictions(),
            pool_hits: self.pool_hits(),
            pool_misses: self.pool_misses(),
            scan_rows_admitted: self.scan_rows_admitted(),
            scan_rows_skipped_predecode: self.scan_rows_skipped_predecode(),
            scan_bytes_zero_copy: self.scan_bytes_zero_copy(),
            recovery_tuples_shipped: self.recovery_tuples_shipped(),
            recovery_bytes_shipped: self.recovery_bytes_shipped(),
            recovery_tuples_applied: self.recovery_tuples_applied(),
            recovery_ranges_fetched: self.recovery_ranges_fetched(),
            recovery_ranges_reassigned: self.recovery_ranges_reassigned(),
            chaos_drops: self.chaos_drops(),
            chaos_dups: self.chaos_dups(),
            chaos_delays: self.chaos_delays(),
            chaos_disconnects: self.chaos_disconnects(),
            chaos_partition_drops: self.chaos_partition_drops(),
            rpc_timeouts: self.rpc_timeouts(),
            rpc_retries: self.rpc_retries(),
            disk_faults_injected: self.disk_faults_injected(),
            checksum_failures: self.checksum_failures(),
            scrub_pages_scanned: self.scrub_pages_scanned(),
            pages_repaired: self.pages_repaired(),
            repair_ranges_fetched: self.repair_ranges_fetched(),
            repair_bytes_shipped: self.repair_bytes_shipped(),
            batched_syncs_saved: self.batched_syncs_saved(),
            epochs_committed: self.epochs_committed(),
            epoch_txns: self.epoch_txns(),
            epoch_size_1: self.epoch_size_1(),
            epoch_size_2_4: self.epoch_size_2_4(),
            epoch_size_5_16: self.epoch_size_5_16(),
            epoch_size_17_64: self.epoch_size_17_64(),
            epoch_size_gt_64: self.epoch_size_gt_64(),
            sessions_opened: self.sessions_opened(),
            sessions_reused: self.sessions_reused(),
            joins: self.joins(),
            decommissions: self.decommissions(),
            auto_repairs: self.auto_repairs(),
            backoff_retries: self.backoff_retries(),
            index_rebuilds: self.index_rebuilds(),
            index_hits: self.index_hits(),
            index_misses: self.index_misses(),
            sessions_accepted: self.sessions_accepted(),
            sessions_closed: self.sessions_closed(),
            requests_admitted: self.requests_admitted(),
            requests_shed: self.requests_shed(),
            deadline_rejects: self.deadline_rejects(),
            permit_waits: self.permit_waits(),
            queue_peak_depth: self.queue_peak_depth(),
            drain_micros: self.drain_micros(),
        }
    }
}

/// Point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub log_writes: u64,
    pub forced_writes: u64,
    pub physical_syncs: u64,
    pub page_writes: u64,
    pub page_reads: u64,
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub commits: u64,
    pub aborts: u64,
    pub lock_waits: u64,
    pub lock_timeouts: u64,
    pub evictions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub scan_rows_admitted: u64,
    pub scan_rows_skipped_predecode: u64,
    pub scan_bytes_zero_copy: u64,
    pub recovery_tuples_shipped: u64,
    pub recovery_bytes_shipped: u64,
    pub recovery_tuples_applied: u64,
    pub recovery_ranges_fetched: u64,
    pub recovery_ranges_reassigned: u64,
    pub chaos_drops: u64,
    pub chaos_dups: u64,
    pub chaos_delays: u64,
    pub chaos_disconnects: u64,
    pub chaos_partition_drops: u64,
    pub rpc_timeouts: u64,
    pub rpc_retries: u64,
    pub disk_faults_injected: u64,
    pub checksum_failures: u64,
    pub scrub_pages_scanned: u64,
    pub pages_repaired: u64,
    pub repair_ranges_fetched: u64,
    pub repair_bytes_shipped: u64,
    pub batched_syncs_saved: u64,
    pub epochs_committed: u64,
    pub epoch_txns: u64,
    pub epoch_size_1: u64,
    pub epoch_size_2_4: u64,
    pub epoch_size_5_16: u64,
    pub epoch_size_17_64: u64,
    pub epoch_size_gt_64: u64,
    pub sessions_opened: u64,
    pub sessions_reused: u64,
    pub joins: u64,
    pub decommissions: u64,
    pub auto_repairs: u64,
    pub backoff_retries: u64,
    pub index_rebuilds: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub sessions_accepted: u64,
    pub sessions_closed: u64,
    pub requests_admitted: u64,
    pub requests_shed: u64,
    pub deadline_rejects: u64,
    pub permit_waits: u64,
    /// High-water mark, not a sum; `since` keeps the later snapshot's peak.
    pub queue_peak_depth: u64,
    pub drain_micros: u64,
}

impl MetricsSnapshot {
    /// Per-field difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            log_writes: self.log_writes.saturating_sub(earlier.log_writes),
            forced_writes: self.forced_writes.saturating_sub(earlier.forced_writes),
            physical_syncs: self.physical_syncs.saturating_sub(earlier.physical_syncs),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            lock_waits: self.lock_waits.saturating_sub(earlier.lock_waits),
            lock_timeouts: self.lock_timeouts.saturating_sub(earlier.lock_timeouts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            scan_rows_admitted: self
                .scan_rows_admitted
                .saturating_sub(earlier.scan_rows_admitted),
            scan_rows_skipped_predecode: self
                .scan_rows_skipped_predecode
                .saturating_sub(earlier.scan_rows_skipped_predecode),
            scan_bytes_zero_copy: self
                .scan_bytes_zero_copy
                .saturating_sub(earlier.scan_bytes_zero_copy),
            recovery_tuples_shipped: self
                .recovery_tuples_shipped
                .saturating_sub(earlier.recovery_tuples_shipped),
            recovery_bytes_shipped: self
                .recovery_bytes_shipped
                .saturating_sub(earlier.recovery_bytes_shipped),
            recovery_tuples_applied: self
                .recovery_tuples_applied
                .saturating_sub(earlier.recovery_tuples_applied),
            recovery_ranges_fetched: self
                .recovery_ranges_fetched
                .saturating_sub(earlier.recovery_ranges_fetched),
            recovery_ranges_reassigned: self
                .recovery_ranges_reassigned
                .saturating_sub(earlier.recovery_ranges_reassigned),
            chaos_drops: self.chaos_drops.saturating_sub(earlier.chaos_drops),
            chaos_dups: self.chaos_dups.saturating_sub(earlier.chaos_dups),
            chaos_delays: self.chaos_delays.saturating_sub(earlier.chaos_delays),
            chaos_disconnects: self
                .chaos_disconnects
                .saturating_sub(earlier.chaos_disconnects),
            chaos_partition_drops: self
                .chaos_partition_drops
                .saturating_sub(earlier.chaos_partition_drops),
            rpc_timeouts: self.rpc_timeouts.saturating_sub(earlier.rpc_timeouts),
            rpc_retries: self.rpc_retries.saturating_sub(earlier.rpc_retries),
            disk_faults_injected: self
                .disk_faults_injected
                .saturating_sub(earlier.disk_faults_injected),
            checksum_failures: self
                .checksum_failures
                .saturating_sub(earlier.checksum_failures),
            scrub_pages_scanned: self
                .scrub_pages_scanned
                .saturating_sub(earlier.scrub_pages_scanned),
            pages_repaired: self.pages_repaired.saturating_sub(earlier.pages_repaired),
            repair_ranges_fetched: self
                .repair_ranges_fetched
                .saturating_sub(earlier.repair_ranges_fetched),
            repair_bytes_shipped: self
                .repair_bytes_shipped
                .saturating_sub(earlier.repair_bytes_shipped),
            batched_syncs_saved: self
                .batched_syncs_saved
                .saturating_sub(earlier.batched_syncs_saved),
            epochs_committed: self
                .epochs_committed
                .saturating_sub(earlier.epochs_committed),
            epoch_txns: self.epoch_txns.saturating_sub(earlier.epoch_txns),
            epoch_size_1: self.epoch_size_1.saturating_sub(earlier.epoch_size_1),
            epoch_size_2_4: self.epoch_size_2_4.saturating_sub(earlier.epoch_size_2_4),
            epoch_size_5_16: self.epoch_size_5_16.saturating_sub(earlier.epoch_size_5_16),
            epoch_size_17_64: self
                .epoch_size_17_64
                .saturating_sub(earlier.epoch_size_17_64),
            epoch_size_gt_64: self
                .epoch_size_gt_64
                .saturating_sub(earlier.epoch_size_gt_64),
            sessions_opened: self.sessions_opened.saturating_sub(earlier.sessions_opened),
            sessions_reused: self.sessions_reused.saturating_sub(earlier.sessions_reused),
            joins: self.joins.saturating_sub(earlier.joins),
            decommissions: self.decommissions.saturating_sub(earlier.decommissions),
            auto_repairs: self.auto_repairs.saturating_sub(earlier.auto_repairs),
            backoff_retries: self.backoff_retries.saturating_sub(earlier.backoff_retries),
            index_rebuilds: self.index_rebuilds.saturating_sub(earlier.index_rebuilds),
            index_hits: self.index_hits.saturating_sub(earlier.index_hits),
            index_misses: self.index_misses.saturating_sub(earlier.index_misses),
            sessions_accepted: self
                .sessions_accepted
                .saturating_sub(earlier.sessions_accepted),
            sessions_closed: self.sessions_closed.saturating_sub(earlier.sessions_closed),
            requests_admitted: self
                .requests_admitted
                .saturating_sub(earlier.requests_admitted),
            requests_shed: self.requests_shed.saturating_sub(earlier.requests_shed),
            deadline_rejects: self
                .deadline_rejects
                .saturating_sub(earlier.deadline_rejects),
            permit_waits: self.permit_waits.saturating_sub(earlier.permit_waits),
            // A high-water mark does not difference; the later peak stands.
            queue_peak_depth: self.queue_peak_depth,
            drain_micros: self.drain_micros.saturating_sub(earlier.drain_micros),
        }
    }

    /// Human-readable summary of the read-hot-path counters (buffer pool
    /// locality, late-materialization selectivity, zero-copy shipping), for
    /// the fig6_6 and chaos-soak printouts.
    pub fn read_path_summary(&self) -> String {
        let accesses = self.pool_hits + self.pool_misses;
        let hit_pct = if accesses == 0 {
            100.0
        } else {
            100.0 * self.pool_hits as f64 / accesses as f64
        };
        format!(
            "pool_hits={} pool_misses={} ({hit_pct:.1}% hit) evictions={} \
             rows_admitted={} rows_skipped_predecode={} bytes_zero_copy={} \
             index_rebuilds={} index_hits={} index_misses={}",
            self.pool_hits,
            self.pool_misses,
            self.evictions,
            self.scan_rows_admitted,
            self.scan_rows_skipped_predecode,
            self.scan_bytes_zero_copy,
            self.index_rebuilds,
            self.index_hits,
            self.index_misses,
        )
    }

    /// Human-readable summary of the commit-path counters: how well group
    /// commit and epoch batching are coalescing log forces, and how many
    /// worker sessions were opened against how many leases reused one, for
    /// the fig6_6 and chaos-soak printouts alongside `forced_writes`.
    pub fn commit_path_summary(&self) -> String {
        let mean = if self.epochs_committed == 0 {
            0.0
        } else {
            self.epoch_txns as f64 / self.epochs_committed as f64
        };
        format!(
            "forced_writes={} physical_syncs={} batched_syncs_saved={} \
             epochs={} epoch_txns={} (mean size {mean:.1}) \
             epoch_sizes[1|2-4|5-16|17-64|>64]={}|{}|{}|{}|{} \
             sessions_opened={} sessions_reused={}",
            self.forced_writes,
            self.physical_syncs,
            self.batched_syncs_saved,
            self.epochs_committed,
            self.epoch_txns,
            self.epoch_size_1,
            self.epoch_size_2_4,
            self.epoch_size_5_16,
            self.epoch_size_17_64,
            self.epoch_size_gt_64,
            self.sessions_opened,
            self.sessions_reused,
        )
    }

    /// Human-readable summary of the chaos-layer and retry counters, for the
    /// soak report and the lossy-LAN experiment printouts.
    pub fn chaos_summary(&self) -> String {
        format!(
            "drops={} dups={} delays={} disconnects={} partition_drops={} rpc_timeouts={} rpc_retries={}",
            self.chaos_drops,
            self.chaos_dups,
            self.chaos_delays,
            self.chaos_disconnects,
            self.chaos_partition_drops,
            self.rpc_timeouts,
            self.rpc_retries,
        )
    }

    /// Human-readable summary of the membership and self-healing counters
    /// (runtime joins/decommissions, supervisor auto-repairs, seeded-backoff
    /// retries), for the fig6_6 and chaos-soak printouts.
    pub fn membership_summary(&self) -> String {
        format!(
            "joins={} decommissions={} auto_repairs={} backoff_retries={}",
            self.joins, self.decommissions, self.auto_repairs, self.backoff_retries,
        )
    }

    /// Human-readable summary of the front-door serving counters (session
    /// churn, admission/shed split, queue high-water mark, drain cost), for
    /// the fig6_6 and chaos-soak printouts.
    pub fn serve_summary(&self) -> String {
        let active = self.sessions_accepted.saturating_sub(self.sessions_closed);
        format!(
            "sessions_accepted={} sessions_closed={} sessions_active={active} \
             requests_admitted={} requests_shed={} deadline_rejects={} \
             permit_waits={} queue_peak_depth={} drain_micros={}",
            self.sessions_accepted,
            self.sessions_closed,
            self.requests_admitted,
            self.requests_shed,
            self.deadline_rejects,
            self.permit_waits,
            self.queue_peak_depth,
            self.drain_micros,
        )
    }

    /// Human-readable summary of the storage-fault-plane counters (scrub
    /// coverage, detections, repairs), for the fig6_6 and chaos-soak
    /// printouts next to the buffer-pool shard stats.
    pub fn scrub_summary(&self) -> String {
        format!(
            "disk_faults={} checksum_failures={} scrubbed={} repaired={} \
             repair_ranges={} repair_bytes={}",
            self.disk_faults_injected,
            self.checksum_failures,
            self.scrub_pages_scanned,
            self.pages_repaired,
            self.repair_ranges_fetched,
            self.repair_bytes_shipped,
        )
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log_writes={} forced={} syncs={} pg_w={} pg_r={} msgs={} bytes={} commits={} aborts={}",
            self.log_writes,
            self.forced_writes,
            self.physical_syncs,
            self.page_writes,
            self.page_reads,
            self.messages_sent,
            self.bytes_sent,
            self.commits,
            self.aborts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let m = Metrics::new();
        m.add_forced_writes(2);
        m.add_messages_sent(5);
        let a = m.snapshot();
        m.add_forced_writes(1);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.forced_writes, 1);
        assert_eq!(d.messages_sent, 0);
        assert_eq!(b.forced_writes, 3);
    }

    #[test]
    fn record_epoch_buckets_by_size() {
        let m = Metrics::new();
        for n in [1, 3, 16, 17, 200] {
            m.record_epoch(n);
        }
        let s = m.snapshot();
        assert_eq!(s.epochs_committed, 5);
        assert_eq!(s.epoch_txns, 1 + 3 + 16 + 17 + 200);
        assert_eq!(s.epoch_size_1, 1);
        assert_eq!(s.epoch_size_2_4, 1);
        assert_eq!(s.epoch_size_5_16, 1);
        assert_eq!(s.epoch_size_17_64, 1);
        assert_eq!(s.epoch_size_gt_64, 1);
        assert!(s.commit_path_summary().contains("mean size 47.4"));
    }

    #[test]
    fn queue_peak_is_a_maximum() {
        let m = Metrics::new();
        m.note_queue_depth(3);
        m.note_queue_depth(9);
        m.note_queue_depth(5);
        assert_eq!(m.queue_peak_depth(), 9);
        let a = m.snapshot();
        m.add_requests_shed(2);
        let d = m.snapshot().since(&a);
        // The peak is carried through `since`, not differenced to zero.
        assert_eq!(d.queue_peak_depth, 9);
        assert_eq!(d.requests_shed, 2);
        assert!(m.snapshot().serve_summary().contains("queue_peak_depth=9"));
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.add_commits(4);
        assert_eq!(m.commits(), 4);
    }
}
