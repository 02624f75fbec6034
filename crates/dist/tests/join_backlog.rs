//! The join backlog (§4.1, Fig 5-4) is what a transaction *sent* somewhere:
//! a statement the coordinator refused before any frame left — unknown
//! table, `Degraded`, no live replica — reached no site, so a site that
//! joins the transaction later must not be the only one to execute it.

use harbor_common::{DbError, FieldType, Metrics, SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{
    rpc, Coordinator, CoordinatorConfig, Placement, ProtocolKind, Request, Response, UpdateRequest,
    Worker, WorkerConfig, DEFAULT_RPC_DEADLINE,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{InMemNetwork, Transport};
use std::collections::HashMap;
use std::sync::Arc;

fn insert(table: &str, id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: table.into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

/// The committed ids of `table` at one replica, sorted.
fn ids_at(engine: &Arc<Engine>, table: &str) -> Vec<i64> {
    let def = engine.table_def(table).unwrap();
    let mut scan = harbor_exec::SeqScan::new(
        engine.pool().clone(),
        def.id,
        harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
    )
    .unwrap();
    let mut ids: Vec<i64> = harbor_exec::collect(&mut scan)
        .unwrap()
        .iter()
        .map(|t| t.get(2).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn a_refused_statement_is_not_replayed_to_a_site_that_joins_later() {
    let dir = std::env::temp_dir()
        .join("harbor-join-backlog")
        .join(format!("refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
    // `t` on all three sites, `u` on site 1 alone.
    let sites: Vec<SiteId> = (1..=3).map(SiteId).collect();
    let mut placement = Placement::new();
    let mut workers = Vec::new();
    for site in &sites {
        let engine = Engine::open(
            dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(*site, StorageConfig::for_tests()),
        )
        .unwrap();
        for table in ["t", "u"] {
            let fields = vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
            ];
            engine.create_table(table, fields).unwrap();
        }
        let cfg = WorkerConfig {
            site: *site,
            addr: format!("backlog-site-{}", site.0),
            protocol: ProtocolKind::Opt3pc,
            checkpoint_every: None,
            peers: HashMap::new(),
            coordinator: None,
            auto_consensus: false,
            faults: Default::default(),
        };
        let worker = Worker::start(engine.clone(), transport.clone(), cfg).unwrap();
        placement.set_address(*site, worker.addr());
        workers.push((worker, engine));
    }
    placement.add_replicated_table("t", &sites);
    placement.add_replicated_table("u", &sites[..1]);
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: "backlog-coordinator".into(),
            protocol: ProtocolKind::Opt3pc,
            log_dir: None,
            group_commit: harbor_wal::GroupCommit::enabled(),
            disk: harbor_common::DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            faults: Default::default(),
            epoch_commit: None,
            degrade_read_only: true,
        },
        placement,
        transport.clone(),
        Metrics::new(),
    )
    .unwrap();

    // Sites 2 and 3 are out: `t` is down to one of its three copies.
    coordinator.mark_dead(SiteId(2));
    coordinator.mark_dead(SiteId(3));
    let tid = coordinator.begin().unwrap();
    coordinator.update(tid, insert("u", 1)).unwrap();
    let refused = coordinator.update(tid, insert("t", 7)).unwrap_err();
    assert!(matches!(refused, DbError::Degraded(_)), "{refused}");
    // The client carries on, and meanwhile site 3's copy of `t` comes
    // online (Fig 5-4): the forwarder brings it up to date with what the
    // open transaction has done to `t` — nothing.
    let mut chan = transport.connect(coordinator.addr()).unwrap();
    let online = Request::RecComingOnline {
        site: SiteId(3),
        table: "t".into(),
    };
    assert_eq!(
        rpc(
            chan.as_mut(),
            &online,
            DEFAULT_RPC_DEADLINE,
            &Metrics::new()
        )
        .unwrap(),
        Response::AllDone
    );
    coordinator.update(tid, insert("u", 2)).unwrap();
    coordinator.commit(tid).unwrap();

    let (_, first) = &workers[0];
    let (_, joined) = &workers[2];
    assert_eq!(ids_at(first, "u"), vec![1, 2]);
    assert_eq!(
        ids_at(joined, "t"),
        ids_at(first, "t"),
        "the joined replica executed a statement nobody else did"
    );
    assert!(joined.active_txns().is_empty());
    assert_eq!(joined.locks().held_count(), 0);
    coordinator.crash();
    for (worker, _) in &workers {
        worker.crash();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
