//! Chaos soak: N pinned seeds of mixed insert/update/read traffic under a
//! lossy, partitioning, crashing network *and* seeded disk faults (read I/O
//! errors, torn writes, bit flips) — after quiesce and a checksum scrub,
//! every acknowledged commit must be on every live replica, all replicas
//! version-history equal, no transaction half-committed, and K-safety loss
//! explicitly reported. One seed is run twice to assert the combined
//! network + disk fault trace replays byte-identically.
//!
//! On a violation the failing seed, its event schedule, and the canonical
//! fault trace are printed — re-running that seed reproduces the run.

use harbor::{ChaosRunConfig, Cluster, ClusterConfig, TableSpec};
use harbor_common::metrics::Group;
use harbor_common::StorageConfig;
use harbor_dist::ProtocolKind;
use harbor_net::ChaosConfig;
use harbor_storage::DiskFaultConfig;
use std::path::PathBuf;
use std::time::Duration;

/// The CI seed set. Adding a seed here adds a soak run.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B0, 0x5EED_0003];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-chaos-soak")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three workers over an in-memory transport wrapped in the lossy-LAN chaos
/// profile. Deadlines are far above the engine's 200 ms lock timeout (slow
/// replies from lock waits are normal, not liveness failures) but small
/// enough that a blackholed link resolves in bounded wall-clock. Objects
/// recover one at a time, and Phase 2 deals its ranges to the buddies in
/// catalog order, so which link carries which query replays with the seed.
fn chaos_cluster(dir: &PathBuf, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("sales")];
    cfg.chaos = Some(ChaosConfig::lossy_lan(seed));
    cfg.disk_faults = Some(DiskFaultConfig::soak(seed));
    cfg.rpc_deadline = Duration::from_secs(2);
    cfg.parallel_recovery = false;
    Cluster::build(dir, cfg).unwrap()
}

/// `tag` keeps the directories of tests that run the same seed at the same
/// time apart.
fn run_seed(tag: &str, seed: u64) -> harbor::ChaosRunReport {
    let dir = temp_dir(&format!("{tag}-{seed:x}"));
    let cluster = chaos_cluster(&dir, seed);
    let report = cluster.run_chaos(&ChaosRunConfig::soak(seed)).unwrap();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// All pinned seeds run in one test, serially: chaos runs are wall-clock
/// heavy and share machine resources badly, and a failure must print which
/// seed broke plus everything needed to replay it.
#[test]
fn pinned_seeds_hold_invariants() {
    // Debug test builds run with the lock-rank witness armed, so the soak
    // doubles as its steady-state regression: any cross-function rank
    // inversion on the catalog/lock-manager/pool paths panics the run.
    assert_eq!(
        harbor_common::lockrank::is_armed(),
        cfg!(debug_assertions),
        "lockrank witness arming must track debug_assertions"
    );
    for seed in SEEDS {
        let report = run_seed("pinned", seed);
        assert!(
            report.committed > 0,
            "seed {seed:#x}: workload made no progress\nschedule:\n  {}",
            report.schedule.join("\n  ")
        );
        assert!(
            report.violations.is_empty(),
            "seed {seed:#x} violated invariants: {:?}\nschedule:\n  {}\nfault trace:\n{}",
            report.violations,
            report.schedule.join("\n  "),
            report.fault_trace
        );
        println!(
            "seed {seed:#x}: {} committed, {} aborted, {} reads ({} errors), \
             {} crashes, {} partitions, {} recoveries ({} failed), min live {}, \
             {} disk faults, scrub {} pages / {} corrupt / {} tuples copied",
            report.committed,
            report.aborted,
            report.reads,
            report.read_errors,
            report.crashes,
            report.partitions,
            report.recoveries,
            report.failed_recoveries,
            report.min_live_seen,
            report.disk_faults_injected,
            report.scrub_pages_scanned,
            report.scrub_corrupt_pages,
            report.scrub_tuples_copied
        );
        for line in &report.read_path {
            println!("  read path {line}");
        }
        println!("  commit path {}", report.commit_path);
    }
}

/// Pulls one `key=value` counter out of a metrics summary line.
fn summary_field(summary: &str, key: &str) -> u64 {
    summary
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Batched-commit soak: a 2PC cluster with epoch group commit enabled runs
/// the same fault battery, but write slots are 4-wide client bursts so real
/// multi-transaction epochs form at the coordinator. The invariant battery
/// is unchanged — in particular, a worker lost mid-epoch must abort only its
/// own transactions, and quiesce's per-transaction §4.3.3 consensus pass
/// must leave zero in-doubt transactions (`resolve_pending_txns` adds a
/// violation otherwise). This seed is deliberately *not* in the fault-trace
/// replay test: concurrent lanes make frame interleaving, and hence the
/// lossy-link trace, timing-dependent; the event schedule itself stays
/// seed-deterministic because all draws happen before lanes spawn.
#[test]
fn batched_commit_seed_holds_invariants() {
    let seed: u64 = 0xEB0C_0001;
    let dir = temp_dir(&format!("batched-{seed:x}"));
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt2pc, 3);
    cfg.storage = StorageConfig::for_tests();
    // One table per burst lane: lanes never contend on page locks, so the
    // four commits of a burst genuinely overlap and batch into epochs.
    cfg.tables = (0..4)
        .map(|i| TableSpec::small(&format!("sales{i}")))
        .collect();
    cfg.chaos = Some(ChaosConfig::lossy_lan(seed));
    cfg.disk_faults = Some(DiskFaultConfig::soak(seed));
    cfg.rpc_deadline = Duration::from_secs(2);
    cfg.parallel_recovery = false;
    cfg.epoch_commit = Some(harbor_dist::EpochCommitConfig {
        max_txns: 8,
        // Generous accumulation window: the soak asserts correctness, not
        // throughput, and on a loaded CI machine burst lanes can be
        // scheduling-delayed past a tight window, leaving every epoch at
        // size 1 (which would trip the batching assertion below).
        max_wait: Duration::from_millis(25),
        pipeline_depth: 2,
    });
    let cluster = Cluster::build(&dir, cfg).unwrap();
    let report = cluster
        .run_chaos(&ChaosRunConfig::soak_batched(seed))
        .unwrap();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        report.committed > 0,
        "seed {seed:#x}: workload made no progress\nschedule:\n  {}",
        report.schedule.join("\n  ")
    );
    assert!(
        report.violations.is_empty(),
        "seed {seed:#x} violated invariants: {:?}\nschedule:\n  {}\nfault trace:\n{}",
        report.violations,
        report.schedule.join("\n  "),
        report.fault_trace
    );
    // The epoch path must actually have carried the commits: every acked
    // transaction went through an epoch, and with 4-wide bursts at least one
    // epoch must have batched more than one transaction.
    let epochs = summary_field(&report.commit_path, "epochs_committed=");
    let epoch_txns = summary_field(&report.commit_path, "epoch_txns=");
    assert!(
        epochs >= 1,
        "no epochs formed; commit path: {}",
        report.commit_path
    );
    assert!(
        epoch_txns >= report.committed as u64,
        "committed txns bypassed the epoch path: {} epoch txns < {} commits; {}",
        epoch_txns,
        report.committed,
        report.commit_path
    );
    assert!(
        epoch_txns > epochs,
        "bursts never shared an epoch; commit path: {}",
        report.commit_path
    );
    println!(
        "seed {seed:#x}: {} committed, {} aborted over {} epochs",
        report.committed, report.aborted, epochs
    );
    println!("  commit path {}", report.commit_path);
}

/// Membership soak: the classic fault battery plus grow/shrink churn —
/// brand-new sites join mid-run, live sites gracefully decommission — with
/// the replication supervisor ticked synchronously after every operation,
/// healing kill-below-K deficits without the harness's own recovery
/// events. The invariant battery gains membership convergence: at quiesce
/// no copy may still be join-pending, and the roster checked for
/// version-history equality is the catalog's *current* membership (joined
/// sites included, decommissioned sites gone).
#[test]
fn membership_seed_holds_invariants() {
    let seed: u64 = 0x5EED_0005;
    let run = |seed| {
        let dir = temp_dir(&format!("membership-{seed:x}"));
        let cluster = chaos_cluster(&dir, seed);
        let report = cluster
            .run_chaos(&ChaosRunConfig::soak_membership(seed))
            .unwrap();
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let report = run(seed);
    assert!(
        report.committed > 0,
        "seed {seed:#x}: workload made no progress\nschedule:\n  {}",
        report.schedule.join("\n  ")
    );
    assert!(
        report.violations.is_empty(),
        "seed {seed:#x} violated invariants: {:?}\nschedule:\n  {}\nfault trace:\n{}",
        report.violations,
        report.schedule.join("\n  "),
        report.fault_trace
    );
    // The seed is pinned because it actually exercises the churn: at least
    // one site joined under load and one was gracefully decommissioned.
    assert!(
        report.joins >= 1,
        "seed {seed:#x} never joined a site\nschedule:\n  {}",
        report.schedule.join("\n  ")
    );
    assert!(
        report.decommissions >= 1,
        "seed {seed:#x} never decommissioned a site\nschedule:\n  {}",
        report.schedule.join("\n  ")
    );
    assert!(report.supervisor_ticks > 0, "supervisor never ticked");
    println!(
        "seed {seed:#x}: {} committed, {} aborted, {} crashes, \
         {} joins ({} failed), {} decommissions ({} refused), \
         {} auto-repairs over {} supervisor ticks ({} throttled)",
        report.committed,
        report.aborted,
        report.crashes,
        report.joins,
        report.failed_joins,
        report.decommissions,
        report.failed_decommissions,
        report.auto_repairs,
        report.supervisor_ticks,
        report.supervisor_throttled,
    );
    println!("  membership {}", report.membership);
    // Grow/shrink events replay deterministically like every other fault:
    // a second run of the seed produces the byte-identical schedule.
    let again = run(seed);
    assert_eq!(
        report.schedule, again.schedule,
        "membership event schedule diverged across identical-seed runs"
    );
    assert_eq!(
        report.fault_trace, again.fault_trace,
        "fault trace diverged across identical-seed runs"
    );
}

/// Front-door soak: the classic serial fault battery, but every write
/// transaction enters the system the way a real client's would — encoded
/// onto a loopback TCP socket, through the `harbor-front` admission
/// gate, and into the coordinator via the serving layer's deadline-
/// checked handler. Routing is installed with [`Cluster::set_txn_router`],
/// which draws no randomness, so the seed's schedule and fault trace must
/// replay byte-identically (asserted below by running it twice). The soak
/// is serial, so the front door must admit everything: zero sheds, zero
/// deadline rejects, and a clean drain at shutdown.
#[test]
fn front_door_seed_holds_invariants() {
    use harbor_front::{FrontClient, FrontConfig, FrontServer};
    use harbor_net::Transport;

    let seed: u64 = 0xF00D_0006;
    let run = |seed: u64| {
        let dir = temp_dir(&format!("front-{seed:x}"));
        let cluster = chaos_cluster(&dir, seed);
        // The client↔front link is plain TCP, outside the chaos layer:
        // faults belong on the inter-site links, where the seeds put them.
        let transport = harbor_net::TcpTransport::new(harbor_common::Metrics::new());
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let front_metrics = harbor_common::Metrics::new();
        let server = FrontServer::start(
            FrontConfig::default(),
            listener,
            Box::new(cluster.coordinator().clone()),
            front_metrics.clone(),
        )
        .unwrap();
        let client = std::sync::Mutex::new(
            FrontClient::connect(&transport, &server.local_addr(), 0).unwrap(),
        );
        // Generous client deadline: chaos stalls are bounded by the 2 s RPC
        // deadlines, and the soak asserts admission behavior, not SLOs.
        cluster.set_txn_router(Some(std::sync::Arc::new(move |ops| {
            client.lock().unwrap().txn(&ops, Duration::from_secs(30))
        })));
        let report = cluster.run_chaos(&ChaosRunConfig::soak(seed)).unwrap();
        cluster.set_txn_router(None);
        server.shutdown();
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        (report, front_metrics)
    };
    let (report, front) = run(seed);
    assert!(
        report.committed > 0,
        "seed {seed:#x}: workload made no progress\nschedule:\n  {}",
        report.schedule.join("\n  ")
    );
    assert!(
        report.violations.is_empty(),
        "seed {seed:#x} violated invariants: {:?}\nschedule:\n  {}\nfault trace:\n{}",
        report.violations,
        report.schedule.join("\n  "),
        report.fault_trace
    );
    // Every write really crossed the front door, and the serial profile
    // never tripped admission control.
    assert!(
        front.requests_admitted() >= report.committed as u64,
        "commits bypassed the front door: {} admitted < {} committed",
        front.requests_admitted(),
        report.committed
    );
    assert_eq!(front.requests_shed(), 0, "serial soak must never shed");
    assert_eq!(front.deadline_rejects(), 0);
    assert_eq!(front.sessions_accepted(), 1);
    assert!(front.drain_micros() > 0, "shutdown never drained");
    println!(
        "seed {seed:#x}: {} committed, {} aborted through the front door \
         ({} admitted, queue peak {})",
        report.committed,
        report.aborted,
        front.requests_admitted(),
        front.queue_peak_depth()
    );
    println!("  serving {}", front.snapshot().summary(Group::Serve));
    // Routed runs replay like direct ones: byte-identical schedule and
    // fault trace for the same seed.
    let (again, _) = run(seed);
    assert_eq!(
        report.schedule, again.schedule,
        "front-door event schedule diverged across identical-seed runs"
    );
    assert_eq!(
        report.fault_trace, again.fault_trace,
        "fault trace diverged across identical-seed runs"
    );
}

/// Determinism: the same seed must replay the byte-identical event schedule
/// and canonical fault trace — the property that makes a failing seed above
/// a reproducer instead of an anecdote. `0xB0B0` forked on which thread won
/// a reply link's ordinal until the link was keyed by its session.
#[test]
fn same_seed_replays_identical_fault_trace() {
    for seed in [SEEDS[0], SEEDS[1]] {
        let a = run_seed("replay", seed);
        let b = run_seed("replay", seed);
        assert_eq!(
            a.schedule, b.schedule,
            "seed {seed:#x}: event schedule diverged across identical-seed runs"
        );
        assert_eq!(
            a.fault_trace, b.fault_trace,
            "seed {seed:#x}: fault trace diverged across identical-seed runs"
        );
    }
}
