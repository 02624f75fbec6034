//! A failure keeps its kind across both wires. What a worker could not do
//! reaches the caller of `Coordinator::update` as the worker's own error —
//! a deadlock timeout (retry) told apart from a constraint violation (do
//! not) — with the transaction aborted everywhere; what the front door or
//! the engine behind it refused reaches a client over loopback TCP with its
//! class and its fields.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::codec::{Wire, MAX_DEPTH};
use harbor_common::config::DEFAULT_RETRY_AFTER_MS;
use harbor_common::{DbError, Metrics, StorageConfig, Timestamp, Value};
use harbor_dist::{ProtocolKind, UpdateRequest};
use harbor_exec::{Expr, ReadMode};
use harbor_front::{FrontClient, FrontConfig, FrontRequest, FrontServer};
use harbor_net::tcp::TcpTransport;
use harbor_net::Transport;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-remote-errors")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn three_workers(name: &str) -> Cluster {
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    Cluster::build(temp_dir(name), cfg).unwrap()
}

fn insert(table: &str, id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: table.into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

/// Deletes the row whose key is `id`; twice in one transaction, the second
/// finds the version the first already deleted.
fn delete(id: i64) -> UpdateRequest {
    UpdateRequest::DeleteWhere {
        table: "t".into(),
        pred: Expr::col(2).eq(Expr::lit(id)),
    }
}

/// Nothing of any transaction is left anywhere: none in flight at the
/// coordinator, none open and no lock held at any worker.
fn assert_aborted_everywhere(cluster: &Cluster) {
    assert_eq!(cluster.coordinator().inflight_txns(), 0);
    for site in cluster.worker_sites() {
        let engine = cluster.engine(site).unwrap();
        assert_eq!(engine.locks().held_count(), 0, "{site} still holds locks");
        assert!(engine.active_txns().is_empty(), "{site} has a txn open");
    }
}

#[test]
fn a_workers_failure_reaches_the_coordinators_caller_as_itself() {
    let cluster = three_workers("coordinator");
    let c = cluster.coordinator();
    cluster.run_txn(vec![insert("t", 1)]).unwrap();

    // A constraint violation: not worth retrying, and it says so.
    let tid = c.begin().unwrap();
    c.update(tid, delete(1)).unwrap();
    match c.update(tid, delete(1)).unwrap_err() {
        DbError::Constraint(m) => assert!(m.starts_with("S1: "), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_aborted_everywhere(&cluster);

    // A deadlock timeout: the holder's insert X-locks the table's last page
    // until it commits; the waiter gives up at the first site they share.
    let holder = c.begin().unwrap();
    c.update(holder, insert("t", 2)).unwrap();
    let waiter = c.begin().unwrap();
    match c.update(waiter, insert("t", 3)).unwrap_err() {
        DbError::LockTimeout { txn, what } => {
            assert_eq!(txn, waiter);
            assert!(what.ends_with(" at S1"), "{what}");
        }
        other => panic!("{other:?}"),
    }
    c.commit(holder).unwrap();
    assert_aborted_everywhere(&cluster);

    // A table the catalog places on every worker and no worker has.
    let sites = cluster.worker_sites();
    cluster
        .placement()
        .mutate(|p| p.add_replicated_table("ghost", &sites));
    let tid = c.begin().unwrap();
    c.update(tid, insert("t", 4)).unwrap();
    match c.update(tid, insert("ghost", 1)).unwrap_err() {
        DbError::Schema(m) => assert!(m.starts_with("S1: ") && m.contains("ghost"), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_aborted_everywhere(&cluster);

    // Only what committed is there: keys 1 and 2.
    assert_eq!(cluster.read_latest("t").unwrap().len(), 2);
    cluster.shutdown();
}

/// No worker was lost: every site still takes reads and writes.
fn assert_no_site_lost(cluster: &Cluster) {
    for site in cluster.worker_sites() {
        assert!(!cluster.coordinator().is_dead(site), "{site} was lost");
    }
}

/// A column number crosses the wire inside the request that names it. One
/// the table does not have, in a read's predicate or a delete's, is the
/// caller's `Schema` error; it costs no replica, and the next read is
/// answered in full.
#[test]
fn a_predicate_column_the_table_lacks_is_refused_without_losing_a_replica() {
    let cluster = three_workers("predicate-column");
    let c = cluster.coordinator();
    cluster.run_txn(vec![insert("t", 1)]).unwrap();
    let missing = || Expr::col(99).eq(Expr::lit(1));

    let as_of = c.authority().watermark().prev();
    match c
        .read_historical("t", as_of, |s| s.predicate = Some(missing()))
        .unwrap_err()
    {
        DbError::Schema(m) => assert!(m.contains("column 99"), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_no_site_lost(&cluster);

    let tid = c.begin().unwrap();
    let delete = UpdateRequest::DeleteWhere {
        table: "t".into(),
        pred: missing(),
    };
    match c.update(tid, delete).unwrap_err() {
        DbError::Schema(m) => assert!(m.starts_with("S1: ") && m.contains("column 99"), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_aborted_everywhere(&cluster);
    assert_no_site_lost(&cluster);
    assert_eq!(cluster.read_latest("t").unwrap().len(), 1);
    cluster.shutdown();
}

/// An update's `set` list naming a field the table does not have is refused
/// as `Schema` — by key or by predicate — and changes nothing: it is not
/// dropped while the row is rewritten as it was.
#[test]
fn a_set_column_the_table_lacks_is_refused_not_ignored() {
    let cluster = three_workers("set-column");
    let c = cluster.coordinator();
    cluster.run_txn(vec![insert("t", 1)]).unwrap();
    let set = vec![(99, Value::Int32(5))];
    for update in [
        UpdateRequest::UpdateByKey {
            table: "t".into(),
            key: 1,
            set: set.clone(),
        },
        UpdateRequest::UpdateWhere {
            table: "t".into(),
            pred: Expr::col(2).eq(Expr::lit(1i64)),
            set: set.clone(),
        },
    ] {
        let tid = c.begin().unwrap();
        match c.update(tid, update).unwrap_err() {
            DbError::Schema(m) => assert!(m.starts_with("S1: ") && m.contains("99"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert_aborted_everywhere(&cluster);
    }
    assert_no_site_lost(&cluster);
    // Key 1 is one version, never deleted, as inserted.
    for site in cluster.worker_sites() {
        let engine = cluster.engine(site).unwrap();
        let def = engine.table_def("t").unwrap();
        let versions = harbor_exec::index_lookup(&engine, def.id, 1, ReadMode::SeeDeleted).unwrap();
        assert_eq!(versions.len(), 1, "{site}");
        let (_, row) = &versions[0];
        assert_eq!(row.deletion_ts().unwrap(), Timestamp::ZERO, "{site}");
        assert_eq!(row.get(3).as_i64().unwrap(), 1, "{site}");
    }
    cluster.shutdown();
}

/// A front door on loopback TCP in front of `cluster`'s coordinator.
fn front_door(cluster: &Cluster, cfg: FrontConfig) -> (TcpTransport, FrontServer) {
    let transport = TcpTransport::new(Metrics::new());
    let listener = transport.listen("127.0.0.1:0").unwrap();
    let handler = Box::new(cluster.coordinator().clone());
    let server = FrontServer::start(cfg, listener, handler, Metrics::new()).unwrap();
    (transport, server)
}

#[test]
fn a_front_door_client_sees_sheds_deadlines_and_engine_errors_as_themselves() {
    let cluster = three_workers("front");
    cluster.run_txn(vec![insert("t", 1)]).unwrap();
    let budget = Duration::from_secs(5);

    // The engine's own refusal, through coordinator and front door.
    let (transport, server) = front_door(&cluster, FrontConfig::default());
    let mut client = FrontClient::connect(&transport, &server.local_addr(), 1).unwrap();
    match client.txn(&[delete(1), delete(1)], budget).unwrap_err() {
        DbError::Constraint(m) => assert!(m.starts_with("S1: "), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_aborted_everywhere(&cluster);
    client.txn(&[insert("t", 2)], budget).unwrap();
    server.shutdown();

    // A queue with no room sheds every request, hint included.
    let shedding = FrontConfig {
        queue_depth: 0,
        ..FrontConfig::default()
    };
    let (transport, server) = front_door(&cluster, shedding);
    let mut client = FrontClient::connect(&transport, &server.local_addr(), 2).unwrap();
    assert_eq!(
        client.txn(&[insert("t", 3)], budget).unwrap_err(),
        DbError::Overloaded {
            retry_after_ms: DEFAULT_RETRY_AFTER_MS
        }
    );
    server.shutdown();

    // A budget clamped to nothing has run out before execution.
    let impatient = FrontConfig {
        max_deadline: Duration::ZERO,
        ..FrontConfig::default()
    };
    let (transport, server) = front_door(&cluster, impatient);
    let mut client = FrontClient::connect(&transport, &server.local_addr(), 3).unwrap();
    let err = client.txn(&[insert("t", 4)], budget).unwrap_err();
    assert!(matches!(err, DbError::Timeout(_)), "{err:?}");
    assert!(!err.is_disconnect() && !err.is_overloaded());
    server.shutdown();

    // Neither refusal executed anything.
    assert_eq!(cluster.read_latest("t").unwrap().len(), 2);
    assert_aborted_everywhere(&cluster);
    cluster.shutdown();
}

/// A frame nested past the decoder's depth bound is `Corrupt`, not a stack
/// overflow: a `FrontRequest::Txn` whose `DeleteWhere` predicate is 100 000
/// `NOT`s (~100 KB, far under the frame cap), decoded on a thread with the
/// default stack as a connection thread would, ends in an error instead of
/// aborting the process. `MAX_DEPTH` of them decode; one more does not.
#[test]
fn a_predicate_nested_past_the_bound_is_corrupt_not_a_stack_overflow() {
    let frame = |pred: Expr| {
        FrontRequest::Txn {
            client: 1,
            req: 1,
            deadline_ms: 0,
            ops: vec![UpdateRequest::DeleteWhere {
                table: "t".into(),
                pred,
            }],
        }
        .to_vec()
    };
    // `nots` times the bytes one `NOT` adds, spliced in where it sits.
    let leaf = frame(Expr::col(2));
    let one = frame(Expr::col(2).not());
    let at = leaf.iter().zip(&one).take_while(|(a, b)| a == b).count();
    let not = &one[at..at + one.len() - leaf.len()];
    let nested = |nots: usize| [&leaf[..at], &not.repeat(nots), &leaf[at..]].concat();
    let decode = |bytes: Vec<u8>| {
        std::thread::spawn(move || FrontRequest::from_slice(&bytes).map(drop))
            .join()
            .expect("the decoding thread panicked")
    };
    decode(nested(MAX_DEPTH)).unwrap();
    for nots in [MAX_DEPTH + 1, 100_000] {
        let err = decode(nested(nots)).unwrap_err();
        assert!(err.is_corrupt(), "{nots} NOTs: {err:?}");
    }
}
