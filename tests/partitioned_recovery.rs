//! The EMP example of thesis §5.1: copies of a table need not be stored
//! identically — one site holds a full copy while another copy is split
//! into horizontal partitions across two sites. Recovery of the full copy
//! uses *two* recovery buddies (one per partition), each with its own
//! recovery predicate; recovery of a partition uses the full copy with the
//! partition's predicate.

use harbor::{recover_site, RecoveryContext};
use harbor_common::{FieldType, Metrics, SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{
    rpc, Coordinator, CoordinatorConfig, Copy, Part, Placement, ProtocolKind, Request, Response,
    UpdateRequest, Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_exec::{collect, Expr, ReadMode, SeqScan};
use harbor_net::{InMemNetwork, Transport};
use harbor_wal::GroupCommit;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

const KEY_COL: usize = 2; // stored column of the id field

struct Fixture {
    dir: PathBuf,
    /// The network's own counters (messages sent, by either side).
    net: Metrics,
    transport: Arc<dyn Transport>,
    placement: Placement,
    coordinator: Arc<Coordinator>,
    workers: HashMap<SiteId, Arc<Worker>>,
    engines: HashMap<SiteId, Arc<Engine>>,
    peers: HashMap<SiteId, String>,
}

fn fields() -> Vec<(String, FieldType)> {
    vec![
        ("id".into(), FieldType::Int64),
        ("salary".into(), FieldType::Int32),
    ]
}

fn open_engine(dir: &std::path::Path, site: SiteId) -> Arc<Engine> {
    let e = Engine::open(
        dir.join(format!("site-{}", site.0)),
        EngineOptions::harbor(site, StorageConfig::for_tests()),
    )
    .unwrap();
    if e.table_def("employees").is_none() {
        e.create_table("employees", fields()).unwrap();
    }
    e
}

fn build(name: &str) -> Fixture {
    let dir = std::env::temp_dir()
        .join("harbor-partitioned-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let net = Metrics::new();
    let transport: Arc<dyn Transport> = Arc::new(InMemNetwork::new(net.clone()));
    let sites = [SiteId(1), SiteId(2), SiteId(3)];
    let mut placement = Placement::new();
    // Copy 1: full replica on S1. Copy 2: S2 holds id < 1000, S3 the rest.
    placement.add_table(
        "employees",
        vec![
            Copy {
                parts: vec![Part::full(SiteId(1))],
            },
            Copy {
                parts: vec![
                    Part::partition(SiteId(2), Expr::col(KEY_COL).lt(Expr::lit(1000i64))),
                    Part::partition(SiteId(3), Expr::col(KEY_COL).ge(Expr::lit(1000i64))),
                ],
            },
        ],
    );
    let mut peers = HashMap::new();
    for s in sites {
        let addr = format!("emp-site-{}", s.0);
        placement.set_address(s, &addr);
        peers.insert(s, addr);
    }
    placement.set_coordinator_addr("emp-coordinator");
    let mut workers = HashMap::new();
    let mut engines = HashMap::new();
    for s in sites {
        let engine = open_engine(&dir, s);
        let worker = Worker::start(
            engine.clone(),
            transport.clone(),
            WorkerConfig {
                site: s,
                addr: peers[&s].clone(),
                protocol: ProtocolKind::Opt3pc,
                checkpoint_every: None,
                peers: peers.clone(),
                coordinator: None,
                auto_consensus: false,
                faults: Default::default(),
            },
        )
        .unwrap();
        workers.insert(s, worker);
        engines.insert(s, engine);
    }
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: "emp-coordinator".into(),
            protocol: ProtocolKind::Opt3pc,
            log_dir: None,
            group_commit: GroupCommit::enabled(),
            disk: harbor_common::DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            faults: Default::default(),
            epoch_commit: None,
            degrade_read_only: false,
        },
        placement.clone(),
        transport.clone(),
        Metrics::new(),
    )
    .unwrap();
    Fixture {
        dir,
        net,
        transport,
        placement,
        coordinator,
        workers,
        engines,
        peers,
    }
}

fn employee(id: i64, salary: i32) -> UpdateRequest {
    UpdateRequest::Insert {
        table: "employees".into(),
        values: vec![Value::Int64(id), Value::Int32(salary)],
    }
}

fn insert(f: &Fixture, id: i64, salary: i32) {
    let tid = f.coordinator.begin().unwrap();
    f.coordinator.update(tid, employee(id, salary)).unwrap();
    f.coordinator.commit(tid).unwrap();
}

/// Messages sent on the network since `before`, once the `expected` ones
/// are all counted (a sender counts a frame after handing it over, so the
/// last reply of a connection may be read before it is counted).
fn messages_since(f: &Fixture, before: &harbor_common::MetricsSnapshot, expected: u64) -> u64 {
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let sent = f.net.snapshot().since(before).messages_sent;
        if sent >= expected || std::time::Instant::now() > patience {
            return sent;
        }
        std::thread::yield_now();
    }
}

fn ids_at(f: &Fixture, site: SiteId) -> Vec<i64> {
    let e = &f.engines[&site];
    let def = e.table_def("employees").unwrap();
    let now = f.coordinator.authority().now().prev();
    let mut scan = SeqScan::new(e.pool().clone(), def.id, ReadMode::Historical(now)).unwrap();
    let mut v: Vec<i64> = collect(&mut scan)
        .unwrap()
        .iter()
        .map(|t| t.get(KEY_COL).as_i64().unwrap())
        .collect();
    v.sort();
    v
}

fn crash(f: &mut Fixture, site: SiteId) {
    f.workers.remove(&site).unwrap().crash();
    f.engines.remove(&site);
    f.coordinator.mark_dead(site);
}

fn recover(f: &mut Fixture, site: SiteId) {
    let engine = open_engine(&f.dir, site);
    let worker = Worker::start(
        engine.clone(),
        f.transport.clone(),
        WorkerConfig {
            site,
            addr: f.peers[&site].clone(),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: f.peers.clone(),
            coordinator: None,
            auto_consensus: false,
            faults: Default::default(),
        },
    )
    .unwrap();
    let ctx = RecoveryContext {
        engine: engine.clone(),
        site,
        placement: f.placement.clone(),
        transport: f.transport.clone(),
        down: HashSet::new(),
        rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
        parallel_objects: true,
        faults: Default::default(),
        died_at: Default::default(),
    };
    let report = recover_site(&ctx).unwrap();
    assert!(!report.objects.is_empty());
    f.workers.insert(site, worker);
    f.engines.insert(site, engine);
}

#[test]
fn partitioned_copies_route_and_recover() {
    let mut f = build("emp");
    // Load employees on both sides of the partition boundary.
    for id in 0..40i64 {
        insert(&f, id, (id * 10) as i32);
    }
    for id in 1000..1030i64 {
        insert(&f, id, 9_000 + id as i32);
    }
    // Routing: S1 holds everything; S2 only ids < 1000; S3 only >= 1000.
    assert_eq!(ids_at(&f, SiteId(1)).len(), 70);
    let s2 = ids_at(&f, SiteId(2));
    assert_eq!(s2.len(), 40);
    assert!(s2.iter().all(|&id| id < 1000));
    let s3 = ids_at(&f, SiteId(3));
    assert_eq!(s3.len(), 30);
    assert!(s3.iter().all(|&id| id >= 1000));

    // Recovery plan shapes (§5.1): the full copy recovers from two
    // partition buddies; a partition recovers from the full copy.
    let plan = f
        .placement
        .recovery_plan(SiteId(1), "employees", &HashSet::new())
        .unwrap();
    assert_eq!(plan.len(), 2);
    let plan = f
        .placement
        .recovery_plan(SiteId(2), "employees", &HashSet::new())
        .unwrap();
    assert_eq!(plan.len(), 1);
    assert_eq!(plan[0].buddies[0], SiteId(1));
    assert!(plan[0].predicate.is_some());

    // Crash the full copy; keep loading (rows land on the partitions).
    crash(&mut f, SiteId(1));
    for id in 40..60i64 {
        insert(&f, id, 1);
    }
    for id in 1030..1040i64 {
        insert(&f, id, 1);
    }
    // Recover S1 from both partition buddies.
    recover(&mut f, SiteId(1));
    let s1 = ids_at(&f, SiteId(1));
    assert_eq!(s1.len(), 100, "full copy reassembled from two partitions");
    assert!(s1.contains(&59) && s1.contains(&1039));

    // Now crash a partition and recover it from the full copy: only its
    // slice must come back.
    crash(&mut f, SiteId(2));
    for id in 60..70i64 {
        insert(&f, id, 2);
    }
    recover(&mut f, SiteId(2));
    let s2 = ids_at(&f, SiteId(2));
    assert_eq!(s2.len(), 70, "partition recovered exactly its slice");
    assert!(s2.iter().all(|&id| id < 1000));
    // And S1 sees everything inserted during S2's downtime.
    assert_eq!(ids_at(&f, SiteId(1)).len(), 110);

    // Shut down.
    f.coordinator.crash();
    for (_, w) in f.workers.drain() {
        w.stop();
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

/// One transaction writes on both sides of the partition boundary, with CPU
/// work in between. A site joins a transaction at the first statement that
/// is placed on it and is sent that statement, not the ones queued before
/// it: each row lands in its own partition only, and work done before a
/// site joined is not done again there. The same holds when the site joins
/// late because its object only then came online (Fig 5-4): the forwarded
/// backlog is what the site would have been sent had it been up.
#[test]
fn a_transaction_spanning_partitions_keeps_each_row_in_its_own() {
    let f = build("span");
    let c = &f.coordinator;
    let work = UpdateRequest::SimulateWork { cycles: 10 };

    let before = f.net.snapshot();
    let tid = c.begin().unwrap();
    c.update(tid, employee(5, 1)).unwrap(); // S1, S2: the begin marker rides the UPDATE
    c.update(tid, work.clone()).unwrap(); // S1, S2
    c.update(tid, employee(1005, 1)).unwrap(); // S1; S3: marked UPDATE
    let sent = messages_since(&f, &before, 2 * (2 + 2 + 2));
    assert_eq!(sent, 2 * (2 + 2 + 2), "requests and their replies");
    c.commit(tid).unwrap();
    assert_eq!(ids_at(&f, SiteId(1)), vec![5, 1005]);
    assert_eq!(ids_at(&f, SiteId(2)), vec![5]);
    assert_eq!(ids_at(&f, SiteId(3)), vec![1005]);

    // S3 is out (it misses nothing that commits) while the next
    // transaction writes both partitions, and comes online before it ends.
    c.mark_dead(SiteId(3));
    let tid = c.begin().unwrap();
    c.update(tid, employee(6, 1)).unwrap();
    c.update(tid, work).unwrap();
    c.update(tid, employee(1006, 1)).unwrap();
    let mut chan = f.transport.connect(c.addr()).unwrap();
    let online = Request::RecComingOnline {
        site: SiteId(3),
        table: "employees".into(),
    };
    assert!(matches!(
        rpc(
            chan.as_mut(),
            &online,
            DEFAULT_RPC_DEADLINE,
            &Metrics::new()
        )
        .unwrap(),
        Response::AllDone
    ));
    c.update(tid, employee(1007, 1)).unwrap();
    c.commit(tid).unwrap();
    assert_eq!(ids_at(&f, SiteId(1)), vec![5, 6, 1005, 1006, 1007]);
    assert_eq!(ids_at(&f, SiteId(2)), vec![5, 6]);
    assert_eq!(ids_at(&f, SiteId(3)), vec![1005, 1006, 1007]);

    c.crash();
    for w in f.workers.values() {
        w.stop();
    }
    let _ = std::fs::remove_dir_all(&f.dir);
}

#[test]
fn more_than_k_failures_is_unrecoverable() {
    let placement = {
        let mut p = Placement::new();
        // Recovery planning filters buddies against the address book
        // (live membership), so register both sites as members.
        p.set_address(SiteId(1), "site-1");
        p.set_address(SiteId(2), "site-2");
        p.add_replicated_table("r", &[SiteId(1), SiteId(2)]);
        p
    };
    let down: HashSet<SiteId> = [SiteId(2)].into_iter().collect();
    let err = placement.recovery_plan(SiteId(1), "r", &down).unwrap_err();
    assert!(matches!(err, harbor_common::DbError::Unrecoverable(_)));
    // Time-travel sanity on the error contract: with the buddy alive the
    // same plan succeeds.
    let plan = placement
        .recovery_plan(SiteId(1), "r", &HashSet::new())
        .unwrap();
    assert_eq!(plan[0].buddies[0], SiteId(2));
    let _ = Timestamp::ZERO;
}
