//! Property: epoch group commit is *equivalent* to the serial 2PC path.
//! The same multi-stream plan run through a batched-epoch coordinator and
//! a serial coordinator must (a) ack the same transaction set, (b) leave
//! the same visible rows in both modes, and (c) leave byte-identical
//! version histories across the batched cluster's replicas.

use harbor_common::{FieldType, Metrics, SiteId, StorageConfig, Timestamp, Value};
use harbor_dist::{
    Coordinator, CoordinatorConfig, EpochCommitConfig, Placement, ProtocolKind, UpdateRequest,
    Worker, WorkerConfig,
};
use harbor_engine::{Engine, EngineOptions};
use harbor_net::{InMemNetwork, Transport};
use harbor_wal::GroupCommit;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One client stream: a disjoint key range, each txn inserting one fresh
/// key and optionally re-updating the previous one.
#[derive(Clone, Debug)]
struct StreamPlan {
    txns: Vec<TxnPlan>,
}

#[derive(Clone, Debug)]
struct TxnPlan {
    key: i64,
    update_prev: bool,
    new_value: i32,
}

fn plan_strategy() -> impl Strategy<Value = Vec<StreamPlan>> {
    // 2–4 streams × 1–4 txns; keys are made disjoint by stream index.
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0i32..1000), 1..=4),
        2..=4,
    )
    .prop_map(|streams| {
        streams
            .into_iter()
            .enumerate()
            .map(|(s, txns)| StreamPlan {
                txns: txns
                    .into_iter()
                    .enumerate()
                    .map(|(i, (update_prev, new_value))| TxnPlan {
                        key: (s as i64) * 1000 + i as i64,
                        update_prev,
                        new_value,
                    })
                    .collect(),
            })
            .collect()
    })
}

struct Mode {
    dir: PathBuf,
    coordinator: Arc<Coordinator>,
    engines: HashMap<SiteId, Arc<Engine>>,
    workers: Vec<Arc<Worker>>,
}

fn build_mode(name: &str, case: u64, epoch: Option<EpochCommitConfig>, streams: usize) -> Mode {
    let dir = std::env::temp_dir()
        .join("harbor-epoch-equiv")
        .join(format!("{name}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
    let sites = [SiteId(1), SiteId(2)];
    let peers: HashMap<SiteId, String> = sites
        .iter()
        .map(|s| (*s, format!("equiv-{name}-{case}-site-{}", s.0)))
        .collect();
    let mut placement = Placement::new();
    placement.set_coordinator_addr(&format!("equiv-{name}-{case}-coordinator"));
    for (site, addr) in &peers {
        placement.set_address(*site, addr);
    }
    // One table per stream: streams never conflict on locks, so the full
    // plan always commits and the acked sets are comparable.
    let site_list: Vec<SiteId> = sites.to_vec();
    for s in 0..streams {
        placement.add_replicated_table(&format!("t{s}"), &site_list);
    }
    let mut engines = HashMap::new();
    let mut workers = Vec::new();
    for site in sites {
        let engine = Engine::open(
            dir.join(format!("site-{}", site.0)),
            EngineOptions::harbor(site, StorageConfig::for_tests()),
        )
        .unwrap();
        for s in 0..streams {
            engine
                .create_table(
                    &format!("t{s}"),
                    vec![
                        ("id".into(), FieldType::Int64),
                        ("v".into(), FieldType::Int32),
                    ],
                )
                .unwrap();
        }
        let worker = Worker::start(
            engine.clone(),
            transport.clone(),
            WorkerConfig {
                site,
                addr: peers[&site].clone(),
                protocol: ProtocolKind::Opt2pc,
                checkpoint_every: None,
                peers: peers.clone(),
                coordinator: None,
                auto_consensus: false,
                faults: Default::default(),
            },
        )
        .unwrap();
        engines.insert(site, engine);
        workers.push(worker);
    }
    let coordinator = Coordinator::start(
        CoordinatorConfig {
            site: SiteId(0),
            addr: format!("equiv-{name}-{case}-coordinator"),
            protocol: ProtocolKind::Opt2pc,
            log_dir: Some(dir.join("coordinator")),
            group_commit: GroupCommit::enabled(),
            disk: harbor_common::DiskProfile::fast(),
            rpc_deadline: harbor_dist::DEFAULT_RPC_DEADLINE,
            faults: Default::default(),
            epoch_commit: epoch,
            degrade_read_only: false,
        },
        placement,
        transport,
        Metrics::new(),
    )
    .unwrap();
    Mode {
        dir,
        coordinator,
        engines,
        workers,
    }
}

impl Mode {
    /// Runs every stream on its own thread; returns the set of acked
    /// (stream, txn-index) pairs.
    fn run(&self, plan: &[StreamPlan]) -> BTreeSet<(usize, usize)> {
        let acked = parking_lot::Mutex::new(BTreeSet::new());
        std::thread::scope(|scope| {
            for (s, stream) in plan.iter().enumerate() {
                let c = self.coordinator.clone();
                let acked = &acked;
                scope.spawn(move || {
                    for (i, txn) in stream.txns.iter().enumerate() {
                        let run = || -> Result<Timestamp, harbor_common::DbError> {
                            let tid = c.begin()?;
                            c.update(
                                tid,
                                UpdateRequest::Insert {
                                    table: format!("t{s}"),
                                    values: vec![
                                        Value::Int64(txn.key),
                                        Value::Int32(txn.new_value),
                                    ],
                                },
                            )?;
                            if txn.update_prev && i > 0 {
                                c.update(
                                    tid,
                                    UpdateRequest::UpdateByKey {
                                        table: format!("t{s}"),
                                        key: stream.txns[i - 1].key,
                                        set: vec![(1, Value::Int32(txn.new_value + 1))],
                                    },
                                )?;
                            }
                            c.commit(tid)
                        };
                        if run().is_ok() {
                            acked.lock().insert((s, i));
                        }
                    }
                });
            }
        });
        acked.into_inner()
    }

    /// Visible (table, id, v) rows at one replica, timestamps ignored.
    fn visible_rows(&self, site: SiteId, streams: usize) -> BTreeSet<(usize, i64, i32)> {
        let engine = &self.engines[&site];
        let mut out = BTreeSet::new();
        for s in 0..streams {
            let def = engine.table_def(&format!("t{s}")).unwrap();
            let mut scan = harbor_exec::SeqScan::new(
                engine.pool().clone(),
                def.id,
                harbor_exec::ReadMode::Historical(Timestamp(1_000_000)),
            )
            .unwrap();
            for row in harbor_exec::collect(&mut scan).unwrap() {
                // Stored layout: version columns at 0/1, user fields after.
                let id = match row.values()[2] {
                    Value::Int64(v) => v,
                    ref other => panic!("bad id {other:?}"),
                };
                let v = match row.values()[3] {
                    Value::Int32(v) => v,
                    ref other => panic!("bad v {other:?}"),
                };
                out.insert((s, id, v));
            }
        }
        out
    }

    /// Full version history at one replica — every tuple including deleted
    /// shadows, timestamps exposed — for replica-equality checks.
    fn version_history(&self, site: SiteId, streams: usize) -> Vec<String> {
        let engine = &self.engines[&site];
        let mut out = Vec::new();
        for s in 0..streams {
            let def = engine.table_def(&format!("t{s}")).unwrap();
            let mut scan = harbor_exec::SeqScan::new(
                engine.pool().clone(),
                def.id,
                harbor_exec::ReadMode::SeeDeleted,
            )
            .unwrap();
            for row in harbor_exec::collect(&mut scan).unwrap() {
                out.push(format!("t{s}:{:?}", row));
            }
        }
        out.sort();
        out
    }

    fn teardown(self) {
        self.coordinator.crash();
        for w in &self.workers {
            w.crash();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn batched_epoch_commit_equals_serial(plan in plan_strategy(), case in any::<u64>()) {
        let streams = plan.len();
        let serial = build_mode("serial", case, None, streams);
        let batched = build_mode(
            "batched",
            case,
            Some(EpochCommitConfig {
                max_txns: 4,
                max_wait: Duration::from_millis(5),
                pipeline_depth: 2,
            }),
            streams,
        );

        let acked_serial = serial.run(&plan);
        let acked_batched = batched.run(&plan);
        // (a) Same acked-transaction set (disjoint tables: everything acks).
        prop_assert_eq!(&acked_serial, &acked_batched);
        let expected: BTreeSet<(usize, usize)> = plan
            .iter()
            .enumerate()
            .flat_map(|(s, st)| (0..st.txns.len()).map(move |i| (s, i)))
            .collect();
        prop_assert_eq!(&acked_batched, &expected);

        // (b) Same visible rows in both modes (timestamps aside).
        let rows_serial = serial.visible_rows(SiteId(1), streams);
        let rows_batched = batched.visible_rows(SiteId(1), streams);
        prop_assert_eq!(rows_serial, rows_batched);

        // (c) Byte-identical version histories across the batched cluster's
        // replicas (same commit times applied everywhere), and visible-row
        // agreement across replicas in both modes.
        prop_assert_eq!(
            batched.version_history(SiteId(1), streams),
            batched.version_history(SiteId(2), streams)
        );
        prop_assert_eq!(
            batched.visible_rows(SiteId(1), streams),
            batched.visible_rows(SiteId(2), streams)
        );
        prop_assert_eq!(
            serial.visible_rows(SiteId(1), streams),
            serial.visible_rows(SiteId(2), streams)
        );

        serial.teardown();
        batched.teardown();
    }
}
