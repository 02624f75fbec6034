//! Lock-free event counters.
//!
//! Every site owns a [`Metrics`] instance; the storage, WAL and networking
//! layers increment it as they work. The evaluation harness reads these to
//! *measure* the costs tabulated in the paper's Table 4.2 (messages per
//! worker, forced writes per coordinator/worker) instead of asserting them.
//!
//! Every counter is one row of the [`counters!`] table at the bottom of this
//! file: the row is the only place its name, kind, group and doc are written.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, cheaply cloneable counter bundle.
#[derive(Clone, Default, Debug)]
pub struct Metrics {
    inner: Arc<Counters>,
}

/// The printout a counter belongs to; [`MetricsSnapshot::summary`] renders
/// one group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// Log, page, message and transaction totals (Table 4.2's columns).
    Base,
    /// Buffer-pool locality, late materialization, key index.
    ReadPath,
    /// How well group commit and epochs coalesce forces; session reuse.
    CommitPath,
    /// Phase-2 shipping and applying.
    Recovery,
    /// Chaos-layer faults and the RPC retries they cause.
    Chaos,
    /// Storage fault plane: detections, scrub coverage, repairs.
    Scrub,
    /// Runtime joins, decommissions and supervisor repairs.
    Membership,
    /// Front-door sessions, admission and drain.
    Serve,
}

/// Declares every counter once. A row is `name: kind mutator, Group;` under
/// its doc line. `sum` rows count events: the mutator adds, and
/// [`MetricsSnapshot::since`] subtracts. `max` rows are high-water marks:
/// the mutator raises, and `since` keeps the later snapshot's value.
macro_rules! counters {
    (@bump sum $name:ident $bump:ident) => {
        #[doc = concat!("Adds `n` to `", stringify!($name), "`.")]
        pub fn $bump(&self, n: u64) {
            self.inner.$name.fetch_add(n, Ordering::Relaxed);
        }
    };
    (@bump max $name:ident $bump:ident) => {
        #[doc = concat!("Raises `", stringify!($name), "` to `v` if that is a new peak.")]
        pub fn $bump(&self, v: u64) {
            self.inner.$name.fetch_max(v, Ordering::Relaxed);
        }
    };
    (@since sum $later:expr, $earlier:expr) => {
        $later.saturating_sub($earlier)
    };
    (@since max $later:expr, $earlier:expr) => {
        $later
    };
    ($($(#[$doc:meta])+ $name:ident: $kind:ident $bump:ident, $group:ident;)+) => {
        #[derive(Default, Debug)]
        struct Counters {
            $($name: AtomicU64,)+
        }

        impl Metrics {
            $(
                counters!(@bump $kind $name $bump);

                $(#[$doc])+
                pub fn $name(&self) -> u64 {
                    self.inner.$name.load(Ordering::Relaxed)
                }
            )+

            /// Snapshot of all counters, for diffing across an experiment.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name(),)+
                }
            }
        }

        /// Point-in-time copy of every counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl MetricsSnapshot {
            /// What happened between `earlier` and `self`: the saturating
            /// difference of each sum, the later value of each maximum.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: counters!(@since $kind self.$name, earlier.$name),)+
                }
            }

            /// `name=value` for each counter of `group`, in table order,
            /// then the group's derived figure if it has one.
            pub fn summary(&self, group: Group) -> String {
                let mut out: Vec<String> = Vec::new();
                $(
                    if group == Group::$group {
                        out.push(format!(concat!(stringify!($name), "={}"), self.$name));
                    }
                )+
                let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
                match group {
                    // An untouched pool has missed nothing.
                    Group::ReadPath => out.push(format!(
                        "pool_hit_pct={:.1}",
                        100.0 - 100.0 * ratio(self.pool_misses, self.pool_hits + self.pool_misses)
                    )),
                    Group::CommitPath => out.push(format!(
                        "epoch_mean_txns={:.1}",
                        ratio(self.epoch_txns, self.epochs_committed)
                    )),
                    Group::Serve => out.push(format!(
                        "sessions_active={}",
                        self.sessions_accepted.saturating_sub(self.sessions_closed)
                    )),
                    _ => {}
                }
                out.join(" ")
            }
        }
    };
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
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
}

counters! {
    /// Log records appended (forced or not).
    log_writes: sum add_log_writes, Base;
    /// Synchronous forces of the log to stable storage. Group commit may
    /// satisfy several commits with one physical force; both are counted.
    forced_writes: sum add_forced_writes, CommitPath;
    /// Physical disk syncs actually issued (group commit batches collapse
    /// many logical forces into fewer physical syncs).
    physical_syncs: sum add_physical_syncs, CommitPath;
    /// Data pages written to disk.
    page_writes: sum add_page_writes, Base;
    /// Positional writes those pages took: a run of adjacent pages is one.
    page_write_calls: sum add_page_write_calls, Base;
    /// Data pages read from disk.
    page_reads: sum add_page_reads, Base;
    /// Messages sent over the transport.
    messages_sent: sum add_messages_sent, Base;
    /// Bytes sent over the transport.
    bytes_sent: sum add_bytes_sent, Base;
    /// Receive syscalls the TCP transport made (reads and peeks): what
    /// taking a frame off a socket costs.
    socket_reads: sum add_socket_reads, Base;
    /// Transactions committed.
    commits: sum add_commits, Base;
    /// Transactions aborted.
    aborts: sum add_aborts, Base;
    /// Lock acquisitions that had to wait.
    lock_waits: sum add_lock_waits, Base;
    /// Deadlock timeouts.
    lock_timeouts: sum add_lock_timeouts, Base;
    /// Buffer pool evictions.
    evictions: sum add_evictions, ReadPath;
    /// Buffer pool accesses satisfied by a resident frame.
    pool_hits: sum add_pool_hits, ReadPath;
    /// Buffer pool accesses that had to load the page from disk.
    pool_misses: sum add_pool_misses, ReadPath;
    /// Scan rows admitted by the visibility check and materialized.
    scan_rows_admitted: sum add_scan_rows_admitted, ReadPath;
    /// Scan rows rejected on raw timestamps, before any tuple decode.
    scan_rows_skipped_predecode: sum add_scan_rows_skipped_predecode, ReadPath;
    /// Bytes encoded onto the wire straight from page bytes (no
    /// intermediate `Tuple` materialization).
    scan_bytes_zero_copy: sum add_scan_bytes_zero_copy, ReadPath;
    /// Tuples shipped to a recovering site by recovery queries.
    recovery_tuples_shipped: sum add_recovery_tuples_shipped, Recovery;
    /// Bytes of tuple payload shipped to a recovering site.
    recovery_bytes_shipped: sum add_recovery_bytes_shipped, Recovery;
    /// Tuples the recovering site applied locally during Phase 2.
    recovery_tuples_applied: sum add_recovery_tuples_applied, Recovery;
    /// Phase-2 segment ranges fetched from buddies.
    recovery_ranges_fetched: sum add_recovery_ranges_fetched, Recovery;
    /// Phase-2 segment ranges reassigned after a buddy failed mid-stream.
    recovery_ranges_reassigned: sum add_recovery_ranges_reassigned, Recovery;
    /// Bulk inserters whose drop failed to place their staged rows (a drop
    /// cannot return the error; a loader that calls `flush` sees it).
    inserter_drop_failures: sum add_inserter_drop_failures, Recovery;
    /// Frames the chaos layer dropped (and severed the link for).
    chaos_drops: sum add_chaos_drops, Chaos;
    /// Frames the chaos layer delayed before delivery.
    chaos_delays: sum add_chaos_delays, Chaos;
    /// Links the chaos layer severed abruptly mid-stream.
    chaos_disconnects: sum add_chaos_disconnects, Chaos;
    /// Frames silently blackholed because a partition blocked the link.
    chaos_partition_drops: sum add_chaos_partition_drops, Chaos;
    /// RPC requests that expired a per-request or liveness deadline.
    rpc_timeouts: sum add_rpc_timeouts, Chaos;
    /// Idempotent-read RPC attempts retried after a transient failure.
    rpc_retries: sum add_rpc_retries, Chaos;
    /// Disk faults injected by the seeded fault plan (read errors, torn
    /// writes, bit flips).
    disk_faults_injected: sum add_disk_faults_injected, Scrub;
    /// Page reads whose checksum trailer failed verification.
    checksum_failures: sum add_checksum_failures, Scrub;
    /// Pages whose checksum the scrubber verified.
    scrub_pages_scanned: sum add_scrub_pages_scanned, Scrub;
    /// Corrupt pages healed from a resident frame, or zeroed for a
    /// recovery from a rewound checkpoint to refill.
    pages_repaired: sum add_pages_repaired, Scrub;
    /// Log syncs avoided by batching several forced records into one force
    /// (epoch group commit: `epoch size - 1` per epoch decision record).
    batched_syncs_saved: sum add_batched_syncs_saved, CommitPath;
    /// Commit epochs decided by the coordinator.
    epochs_committed: sum add_epochs_committed, CommitPath;
    /// Transactions carried by those epochs (mean epoch size =
    /// `epoch_txns / epochs_committed`).
    epoch_txns: sum add_epoch_txns, CommitPath;
    /// Epochs of exactly 1 transaction (size histogram).
    epoch_size_1: sum add_epoch_size_1, CommitPath;
    /// Epochs of 2–4 transactions (size histogram).
    epoch_size_2_4: sum add_epoch_size_2_4, CommitPath;
    /// Epochs of 5–16 transactions (size histogram).
    epoch_size_5_16: sum add_epoch_size_5_16, CommitPath;
    /// Epochs of 17–64 transactions (size histogram).
    epoch_size_17_64: sum add_epoch_size_17_64, CommitPath;
    /// Epochs of more than 64 transactions (size histogram).
    epoch_size_gt_64: sum add_epoch_size_gt_64, CommitPath;
    /// Coordinator→worker sessions opened (one connection and one worker
    /// thread each).
    sessions_opened: sum add_sessions_opened, CommitPath;
    /// Session leases served from a site's idle list instead.
    sessions_reused: sum add_sessions_reused, CommitPath;
    /// Sites joined to the cluster at runtime.
    joins: sum add_joins, Membership;
    /// Sites gracefully decommissioned at runtime.
    decommissions: sum add_decommissions, Membership;
    /// Replicas the supervisor re-created after an object dropped below
    /// its K floor (no manual recovery call).
    auto_repairs: sum add_auto_repairs, Membership;
    /// Attempts re-run by the shared seeded-backoff retry helper.
    backoff_retries: sum add_backoff_retries, Membership;
    /// Key-index rebuilds (cold build after restart or post-invalidation).
    index_rebuilds: sum add_index_rebuilds, ReadPath;
    /// Key-index lookups (a key or a range) that found at least one record id.
    index_hits: sum add_index_hits, ReadPath;
    /// Key-index lookups (a key or a range) that found no record id.
    index_misses: sum add_index_misses, ReadPath;
    /// Client sessions the front door accepted.
    sessions_accepted: sum add_sessions_accepted, Serve;
    /// Client sessions the front door closed (hangup, error, or drain).
    sessions_closed: sum add_sessions_closed, Serve;
    /// Requests admitted past the front door's permit gate into the engine.
    requests_admitted: sum add_requests_admitted, Serve;
    /// Requests shed with `Overloaded` (queue full, over the age watermark,
    /// or no permit within the admission budget).
    requests_shed: sum add_requests_shed, Serve;
    /// Requests rejected because their deadline expired before execution.
    deadline_rejects: sum add_deadline_rejects, Serve;
    /// Admissions that had to wait for an in-flight permit (contended gate).
    permit_waits: sum add_permit_waits, Serve;
    /// High-water mark of the front door's bounded request queue.
    queue_peak_depth: max note_queue_depth, Serve;
    /// Microseconds graceful drain spent finishing admitted requests.
    drain_micros: sum add_drain_micros, Serve;
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
        assert!(s
            .summary(Group::CommitPath)
            .contains("epoch_mean_txns=47.4"));
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
    }

    #[test]
    fn summary_prints_one_group_and_its_derived_figure() {
        let m = Metrics::new();
        m.add_pool_hits(3);
        m.add_pool_misses(1);
        m.add_sessions_accepted(5);
        m.add_sessions_closed(2);
        m.note_queue_depth(9);
        let s = m.snapshot();
        let read = s.summary(Group::ReadPath);
        assert!(read.contains("pool_hits=3 pool_misses=1"), "{read}");
        assert!(read.ends_with("pool_hit_pct=75.0"), "{read}");
        assert!(!read.contains("sessions_accepted"), "{read}");
        let serve = s.summary(Group::Serve);
        assert!(serve.contains("queue_peak_depth=9"), "{serve}");
        assert!(serve.ends_with("sessions_active=3"), "{serve}");
        assert_eq!(s.summary(Group::Membership).split(' ').count(), 4);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.add_commits(4);
        assert_eq!(m.commits(), 4);
    }
}
