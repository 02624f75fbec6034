//! Online membership: joining a brand-new site under live update traffic,
//! graceful decommission, supervisor-driven self-healing back to the K
//! floor, and the opt-in read-only degradation gate at the last live copy.
//!
//! The load-bearing assertion throughout is *version-history byte
//! identity*: after any membership change quiesces, every live replica of
//! a table must hold the identical multiset of versions — insertion and
//! deletion timestamps included — because a joined copy is built by the
//! same Phase-2/Phase-3 machinery that rebuilds a crashed one.

use harbor::{Cluster, ClusterConfig, Repair, ReplicationSupervisor, COORDINATOR_SITE};
use harbor_common::{DbError, SiteId, Value};
use harbor_dist::ProtocolKind;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-membership-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(id: i64, v: i32) -> Vec<Value> {
    vec![Value::Int64(id), Value::Int32(v)]
}

fn cluster(dir: &PathBuf, workers: usize) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.num_workers = workers;
    Arc::new(Cluster::build(dir, cfg).unwrap())
}

/// Every version a site holds — visible or deleted — as
/// `(id, v, ins, del)`, sorted: the byte-identity fingerprint of a replica.
fn version_history(cluster: &Cluster, site: SiteId) -> Vec<(i64, i64, u64, u64)> {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("sales").unwrap();
    let mut scan =
        harbor_exec::SeqScan::new(e.pool().clone(), def.id, harbor_exec::ReadMode::SeeDeleted)
            .unwrap();
    let mut out: Vec<(i64, i64, u64, u64)> = harbor_exec::collect(&mut scan)
        .unwrap()
        .iter()
        .map(|t| {
            (
                t.get(2).as_i64().unwrap(),
                t.get(3).as_i64().unwrap(),
                t.get(0).as_time().unwrap().0,
                t.get(1).as_time().unwrap().0,
            )
        })
        .collect();
    out.sort_unstable();
    out
}

fn assert_live_replicas_identical(cluster: &Cluster, context: &str) {
    let live: Vec<SiteId> = cluster
        .worker_sites()
        .into_iter()
        .filter(|s| !cluster.is_crashed(*s) && cluster.worker(*s).is_ok())
        .collect();
    assert!(!live.is_empty(), "{context}: no live replicas");
    let reference = version_history(cluster, live[0]);
    for site in live.iter().skip(1) {
        let other = version_history(cluster, *site);
        assert_eq!(
            reference,
            other,
            "{context}: version histories diverge between {} ({} versions) and {} ({} versions)",
            live[0],
            reference.len(),
            site,
            other.len()
        );
    }
}

/// Background insert load against `table` until `stop` flips; transient
/// errors (lock waits during the Phase-3 drain, aborts) are expected — the
/// invariant is that whatever *was* acked is identical everywhere.
fn spawn_load(cluster: Arc<Cluster>, start_id: i64, stop: Arc<AtomicBool>) -> LoadHandle {
    let acked = Arc::new(AtomicUsize::new(0));
    let acked2 = acked.clone();
    let thread = std::thread::spawn(move || {
        let mut id = start_id;
        while !stop.load(Ordering::SeqCst) {
            if cluster
                .insert_one("sales", row(id, (id % 1000) as i32))
                .is_ok()
            {
                acked2.fetch_add(1, Ordering::SeqCst);
            }
            id += 1;
        }
    });
    LoadHandle { thread, acked }
}

struct LoadHandle {
    thread: std::thread::JoinHandle<()>,
    acked: Arc<AtomicUsize>,
}

impl LoadHandle {
    fn stop(self, stop: &AtomicBool) -> usize {
        stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap();
        self.acked.load(Ordering::SeqCst)
    }
}

/// A brand-new site joined under live insert traffic ends byte-identical
/// to the seasoned replicas, is a full member, and participates in
/// subsequent commits.
#[test]
fn join_under_load_yields_byte_identical_replica() {
    let dir = temp_dir("join-under-load");
    let cluster = cluster(&dir, 2);
    for i in 0..40 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(cluster.clone(), 10_000, stop.clone());
    // Let the load get going so the join genuinely races live commits.
    std::thread::sleep(Duration::from_millis(30));
    let new_site = SiteId(3);
    let report = cluster.join_worker(new_site).unwrap();
    let acked = load.stop(&stop);
    assert!(acked > 0, "load thread never acked an insert");
    assert!(
        report.objects.iter().map(|o| o.tuples_copied).sum::<u64>() > 0,
        "bootstrap copied nothing: {report:?}"
    );
    // Catalog: full member, no copy left half-joined.
    assert!(cluster.placement().is_member(new_site));
    assert_eq!(
        cluster.placement().member_sites(),
        vec![SiteId(1), SiteId(2), new_site]
    );
    assert!(
        cluster.placement().joining_copies().is_empty(),
        "copies still joining after join_worker returned"
    );
    // The new copy is votable: a post-join commit lands on all three.
    let before = version_history(&cluster, new_site).len();
    cluster.insert_one("sales", row(99_999, 7)).unwrap();
    assert_eq!(version_history(&cluster, new_site).len(), before + 1);
    assert_live_replicas_identical(&cluster, "after join under load");
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Joining an existing or reserved site id is refused and leaves the
/// catalog untouched.
#[test]
fn join_rejects_existing_and_coordinator_sites() {
    let dir = temp_dir("join-rejects");
    let cluster = cluster(&dir, 2);
    let v = cluster.placement().version();
    assert!(cluster.join_worker(COORDINATOR_SITE).is_err());
    assert!(cluster.join_worker(SiteId(1)).is_err());
    assert_eq!(
        cluster.placement().version(),
        v,
        "refused joins must not mutate the catalog"
    );
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful decommission under live traffic: the departing site's role in
/// in-flight transactions drains, its parts are re-homed, the survivors
/// keep committing, and the address book forgets it everywhere.
#[test]
fn decommission_under_load_keeps_survivors_available() {
    let dir = temp_dir("decommission-under-load");
    let cluster = cluster(&dir, 3);
    for i in 0..25 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(cluster.clone(), 20_000, stop.clone());
    std::thread::sleep(Duration::from_millis(30));
    let affected = cluster.decommission_worker(SiteId(3)).unwrap();
    let acked = load.stop(&stop);
    assert!(acked > 0, "load thread never acked an insert");
    assert_eq!(affected, vec!["sales".to_string()]);
    assert!(!cluster.placement().is_member(SiteId(3)));
    assert_eq!(
        cluster.placement().member_sites(),
        vec![SiteId(1), SiteId(2)]
    );
    assert!(cluster.worker(SiteId(3)).is_err(), "worker still running");
    // Survivors are a functioning 2-replica cluster.
    cluster.insert_one("sales", row(50_000, 1)).unwrap();
    assert_live_replicas_identical(&cluster, "after decommission under load");
    // Decommissioning down to the last copy is refused.
    cluster.decommission_worker(SiteId(2)).unwrap();
    let err = cluster.decommission_worker(SiteId(1)).unwrap_err();
    assert!(
        matches!(err, DbError::Unrecoverable(_)),
        "dropping the last copy must be unrecoverable, got {err:?}"
    );
    assert!(cluster.placement().is_member(SiteId(1)));
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-criterion scenario: a site killed below K is brought
/// back by the background replication supervisor with NO manual
/// `recover_worker_harbor` call anywhere in the test.
#[test]
fn supervisor_auto_recovers_killed_site() {
    let dir = temp_dir("supervisor-auto-recover");
    let cluster = cluster(&dir, 2);
    for i in 0..30 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    cluster.crash_worker(SiteId(2)).unwrap();
    // More acked commits while the replica is down — the repair must
    // replay them, not just restore the pre-crash image.
    for i in 30..45 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    let mut handle = cluster.start_supervisor(0xD0C).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.is_crashed(SiteId(2)) {
        assert!(
            Instant::now() < deadline,
            "supervisor never repaired the crashed site; stats: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
    assert!(handle.stats().repairs.load(Ordering::Relaxed) >= 1);
    assert!(
        cluster.coordinator().metrics().snapshot().auto_repairs >= 1,
        "auto-repair must be visible in the coordinator's counters"
    );
    // The healed replica carries the full history and takes new commits.
    assert_live_replicas_identical(&cluster, "after supervisor repair");
    cluster.insert_one("sales", row(60_000, 2)).unwrap();
    assert_live_replicas_identical(&cluster, "after post-repair commit");
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor's spare-first policy: when a table drops below its floor
/// and a live member *not* hosting it exists, the deficit is healed by
/// re-replicating onto the spare (`replicate_table_to`), not by waiting
/// for the departed host.
#[test]
fn supervisor_replicates_onto_spare_member() {
    let dir = temp_dir("supervisor-spare");
    let cluster = cluster(&dir, 3);
    // Re-place "sales" on sites 1 and 2 only: site 3 stays a member with
    // no copy — a spare. (Data inserted after this routes to 1 and 2.)
    cluster.placement().mutate(|p| {
        p.add_replicated_table("sales", &[SiteId(1), SiteId(2)]);
    });
    for i in 0..20 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    assert!(version_history(&cluster, SiteId(3)).is_empty());
    // Floor captured at attach: 2 copies.
    let mut sup = ReplicationSupervisor::new(0x5A5A, &cluster);
    // Losing site 2 leaves one live copy — below the floor, spare on hand.
    let affected = cluster.decommission_worker(SiteId(2)).unwrap();
    assert_eq!(affected, vec!["sales".to_string()]);
    let repair = sup.tick(&cluster, 0);
    assert_eq!(
        repair,
        Some(Repair::Replicate {
            table: "sales".into(),
            target: SiteId(3),
        })
    );
    assert_eq!(
        cluster.placement().sites_for("sales").unwrap(),
        vec![SiteId(1), SiteId(3)]
    );
    assert!(cluster.placement().joining_copies().is_empty());
    assert_live_replicas_identical(&cluster, "after spare re-replication");
    // Back at the floor: the next tick finds nothing to repair.
    assert_eq!(sup.tick(&cluster, 1), None);
    cluster.insert_one("sales", row(70_000, 3)).unwrap();
    assert_live_replicas_identical(&cluster, "after post-replication commit");
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opt-in graceful degradation: an object placed redundantly but down to
/// its last live copy refuses updates with [`DbError::Degraded`], keeps
/// serving reads, and lifts the gate the moment redundancy is restored.
#[test]
fn degrade_read_only_gates_updates_at_last_copy() {
    let dir = temp_dir("degrade-read-only");
    let mut cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
    cfg.degrade_read_only = true;
    let cluster = Arc::new(Cluster::build(&dir, cfg).unwrap());
    for i in 0..10 {
        cluster.insert_one("sales", row(i, i as i32)).unwrap();
    }
    cluster.crash_worker(SiteId(2)).unwrap();
    let err = cluster.insert_one("sales", row(100, 1)).unwrap_err();
    assert!(
        matches!(err, DbError::Degraded(_)),
        "update at last copy must degrade, got {err:?}"
    );
    // Reads still serve from the survivor.
    assert_eq!(cluster.read_latest("sales").unwrap().len(), 10);
    // The supervisor restores K; the gate lifts without intervention.
    let mut sup = ReplicationSupervisor::new(0xDE6, &cluster);
    assert_eq!(sup.tick(&cluster, 0), Some(Repair::RecoverSite(SiteId(2))));
    cluster.insert_one("sales", row(100, 1)).unwrap();
    assert_live_replicas_identical(&cluster, "after degradation lifted");
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Property: any join/decommission/crash/recover sequence converges
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum MemberOp {
    Join,
    Decommission(usize),
    Crash(usize),
    Recover(usize),
}

fn member_op_strategy() -> impl Strategy<Value = MemberOp> {
    prop_oneof![
        Just(MemberOp::Join),
        (0usize..8).prop_map(MemberOp::Decommission),
        (0usize..8).prop_map(MemberOp::Crash),
        (0usize..8).prop_map(MemberOp::Recover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 16,
        .. ProptestConfig::default()
    })]

    /// Random interleavings of membership churn and acked inserts: at
    /// quiesce, every member is live with the table at its floor of K
    /// live replicas (or the run explicitly shrank the floor), all live
    /// replicas are version-history identical, and every acked insert is
    /// present.
    #[test]
    fn membership_churn_converges(
        ops in proptest::collection::vec(member_op_strategy(), 1..7),
        seed in 0u64..1_000,
    ) {
        let dir = std::env::temp_dir()
            .join("harbor-membership-prop")
            .join(format!("churn-{}-{seed}-{}", std::process::id(), rand_suffix()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = cluster(&dir, 3);
        let mut next_site = 4u16;
        let mut acked: Vec<i64> = Vec::new();
        let mut id = 0i64;
        for op in &ops {
            // A couple of acked writes between membership events.
            for _ in 0..2 {
                if cluster.insert_one("sales", row(id, id as i32)).is_ok() {
                    acked.push(id);
                }
                id += 1;
            }
            let members = cluster.placement().member_sites();
            let live: Vec<SiteId> = members
                .iter()
                .copied()
                .filter(|s| !cluster.is_crashed(*s))
                .collect();
            match op {
                MemberOp::Join => {
                    if members.len() < 5 {
                        cluster.join_worker(SiteId(next_site)).unwrap();
                        next_site += 1;
                    }
                }
                MemberOp::Decommission(i) => {
                    // Keep at least two live copies so traffic continues.
                    if live.len() >= 3 {
                        let victim = live[i % live.len()];
                        cluster.decommission_worker(victim).unwrap();
                    }
                }
                MemberOp::Crash(i) => {
                    // Never crash the last live replica.
                    if live.len() >= 2 {
                        let victim = live[i % live.len()];
                        cluster.crash_worker(victim).unwrap();
                    }
                }
                MemberOp::Recover(i) => {
                    let crashed: Vec<SiteId> = members
                        .iter()
                        .copied()
                        .filter(|s| cluster.is_crashed(*s))
                        .collect();
                    if !crashed.is_empty() {
                        cluster.recover_worker_harbor(crashed[i % crashed.len()]).unwrap();
                    }
                }
            }
        }
        // Quiesce: heal every crashed member, then check convergence.
        for site in cluster.placement().member_sites() {
            if cluster.is_crashed(site) {
                cluster.recover_worker_harbor(site).unwrap();
            }
        }
        let members = cluster.placement().member_sites();
        prop_assert!(!members.is_empty());
        prop_assert_eq!(
            cluster.placement().sites_for("sales").unwrap(),
            members.clone(),
            "every member holds a full copy after quiesce"
        );
        prop_assert!(cluster.placement().joining_copies().is_empty());
        let reference = version_history(&cluster, members[0]);
        for site in members.iter().skip(1) {
            prop_assert_eq!(&reference, &version_history(&cluster, *site));
        }
        let visible: std::collections::BTreeSet<i64> = reference
            .iter()
            .filter(|(_, _, _, del)| *del == 0)
            .map(|(id, _, _, _)| *id)
            .collect();
        for id in &acked {
            prop_assert!(visible.contains(id), "acked key {} missing", id);
        }
        cluster.shutdown();
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn rand_suffix() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
}
