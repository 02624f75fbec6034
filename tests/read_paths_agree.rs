//! Every way of reading a table at a fixed time T gives the same answer.
//!
//! A worker's scan service answers a plain read by walking pages, a filtered
//! read by walking pages with the predicate applied under the pin, a
//! key-equality (or tight key-range) read from the tuple-id index, and a
//! recovery range (`SEE DELETED HISTORICAL`, §5.3) with the insertion and
//! deletion bounds applied per row. Whatever the route, and whichever
//! replica serves it, the rows must be exactly those a local `SeqScan` +
//! `Filter` at T yields on that replica — while a writer keeps committing
//! inserts, key updates and deletes to the same table.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::codec::Wire;
use harbor_common::{DbResult, Metrics, SiteId, StorageConfig, Timestamp, Tuple, Value};
use harbor_dist::{
    scan_rpc, ProtocolKind, RemoteScan, UpdateRequest, WireReadMode, DEFAULT_RPC_DEADLINE,
};
use harbor_exec::{collect, Expr, Filter, ReadMode, SeqScan};
use harbor_net::Channel;
use std::sync::atomic::{AtomicBool, Ordering};

const ROWS: i64 = 600;

/// Every row a worker's scan service answers.
fn rows_of(chan: &mut dyn Channel, scan: &RemoteScan) -> DbResult<Vec<Tuple>> {
    let mut out = Vec::new();
    scan_rpc(
        chan,
        scan,
        DEFAULT_RPC_DEADLINE,
        &Metrics::new(),
        |rows, wire| {
            out.append(&mut Tuple::decode_n(wire, rows)?);
            Ok(())
        },
    )?;
    Ok(out)
}

fn insert(id: i64) -> UpdateRequest {
    UpdateRequest::Insert {
        table: "t".into(),
        values: vec![Value::Int64(id), Value::Int32(id as i32)],
    }
}

fn update(key: i64, v: i32) -> UpdateRequest {
    UpdateRequest::UpdateByKey {
        table: "t".into(),
        key,
        set: vec![(1, Value::Int32(v))],
    }
}

fn delete(key: i64) -> UpdateRequest {
    UpdateRequest::DeleteWhere {
        table: "t".into(),
        pred: Expr::col(2).eq(Expr::lit(key)),
    }
}

/// Stops the writer when the reading side is done — or panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Rows as a sorted multiset: replicas lay the same versions out in
/// different physical orders, and an index probe returns key order. A plain
/// historical read shows a row deleted after T with whatever deletion time
/// it has by now — which the writer is changing — so `with_del` leaves that
/// column out; `SEE DELETED HISTORICAL` masks it (§5.3) and keeps it.
fn sorted(rows: Vec<Tuple>, with_del: bool) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|t| {
            let del = if with_del {
                t.get(1).to_string()
            } else {
                String::new()
            };
            format!("{} {del} {:?}", t.get(0), t.user_values())
        })
        .collect();
    v.sort();
    v
}

/// `got == want`, reported without printing a thousand rows.
fn assert_same(got: &[String], want: &[String], what: &str) {
    if got != want {
        let missing: Vec<_> = want.iter().filter(|r| !got.contains(r)).take(5).collect();
        let extra: Vec<_> = got.iter().filter(|r| !want.contains(r)).take(5).collect();
        panic!(
            "{what}: {} rows, want {}; missing {missing:?}, extra {extra:?}",
            got.len(),
            want.len()
        );
    }
}

/// The reference: a local scan of `site`'s copy, filtered by `pred`.
fn local(cluster: &Cluster, site: SiteId, mode: ReadMode, pred: Option<&Expr>) -> Vec<String> {
    let e = cluster.engine(site).unwrap();
    let def = e.table_def("t").unwrap();
    let scan = SeqScan::new(e.pool().clone(), def.id, mode).unwrap();
    let rows = match pred {
        Some(p) => collect(&mut Filter::new(Box::new(scan), p.clone())),
        None => collect(&mut { scan }),
    };
    sorted(rows.unwrap(), !matches!(mode, ReadMode::Historical(_)))
}

#[test]
fn every_replica_answers_every_read_path_like_a_local_scan() {
    let dir = std::env::temp_dir()
        .join("harbor-read-paths")
        .join(format!("agree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    cfg.tables = vec![TableSpec::small("t")];
    let cluster = Cluster::build(&dir, cfg).unwrap();

    // History before T: a load over several segments, key updates (two
    // versions of a key) and deletes. After T: more of each, so T's answer
    // has deletions to mask and insertions to hide.
    let mut t_first = Timestamp::ZERO;
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(100) {
        let at = cluster
            .run_txn(chunk.iter().map(|i| insert(*i)).collect())
            .unwrap();
        if t_first == Timestamp::ZERO {
            t_first = at;
        }
    }
    let mut t_lo = Timestamp::ZERO;
    let mut t = Timestamp::ZERO;
    for k in 0..40i64 {
        let at = cluster
            .run_txn(vec![update(k * 7, 1000 + k as i32), delete(300 + k)])
            .unwrap();
        match k {
            9 => t_lo = at,
            19 => t = at,
            _ => {}
        }
    }
    assert!(t_first < t_lo && t_lo < t);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut n = 0i64;
            while !stop.load(Ordering::SeqCst) {
                let ops = vec![
                    insert(10_000 + n),
                    update(n % ROWS, -(n as i32)),
                    delete(400 + n % 100),
                ];
                cluster.run_txn(ops).unwrap();
                n += 1;
            }
            n
        });
        let stop_writer = StopOnDrop(&stop);

        let range = Expr::col(2)
            .ge(Expr::lit(50i64))
            .and(Expr::col(2).lt(Expr::lit(450i64)));
        let tight = Expr::col(2)
            .ge(Expr::lit(60i64))
            .and(Expr::col(2).le(Expr::lit(70i64)))
            .and(Expr::col(3).ge(Expr::lit(1000)));
        let updated_key = Expr::col(2).eq(Expr::lit(63i64));
        let deleted_key = Expr::col(2).eq(Expr::lit(305i64));
        let absent_key = Expr::col(2).eq(Expr::lit(-5i64));
        let historical = [
            None,
            Some(&range),
            Some(&tight),
            Some(&updated_key),
            Some(&deleted_key),
            Some(&absent_key),
        ];
        let snapshot = local(&cluster, SiteId(1), ReadMode::Historical(t), None);
        assert_eq!(snapshot.len() as i64, ROWS - 20);
        for _round in 0..3 {
            for site in cluster.worker_sites() {
                let mut chan = cluster
                    .transport()
                    .connect(cluster.worker(site).unwrap().addr())
                    .unwrap();
                for pred in historical {
                    let want = local(&cluster, site, ReadMode::Historical(t), pred);
                    let mut scan = RemoteScan::new("t", WireReadMode::Historical(t));
                    scan.predicate = pred.cloned();
                    let got = sorted(rows_of(chan.as_mut(), &scan).unwrap(), false);
                    assert_same(&got, &want, &format!("site {site:?}, predicate {pred:?}"));
                    // Through the coordinator (whichever replica it picks):
                    // replicas agree on the logical content at T.
                    let got = cluster
                        .coordinator()
                        .read_historical("t", t, |s| s.predicate = pred.cloned())
                        .unwrap();
                    let what = format!("coordinator, predicate {pred:?}");
                    assert_same(&sorted(got, false), &want, &what);
                }
                let again = local(&cluster, site, ReadMode::Historical(t), None);
                assert_same(&again, &snapshot, "T's snapshot moved");

                // A Phase-2 range with all three bounds: versions inserted in
                // (t_first, t_lo] whose deletion falls in (t_lo, T] — later
                // deletions read as "not deleted" (§5.3) and drop out.
                let bounds = Expr::col(0)
                    .gt(Expr::time(t_first))
                    .and(Expr::col(0).le(Expr::time(t_lo)))
                    .and(Expr::col(1).gt(Expr::time(t_lo)));
                let want = local(
                    &cluster,
                    site,
                    ReadMode::SeeDeletedHistorical(t),
                    Some(&range.clone().and(bounds)),
                );
                let mut scan = RemoteScan::new("t", WireReadMode::SeeDeletedHistorical(t));
                scan.predicate = Some(range.clone());
                scan.ins_after = Some(t_first);
                scan.ins_at_or_before = Some(t_lo);
                scan.del_after = Some(t_lo);
                let got = rows_of(chan.as_mut(), &scan).unwrap();
                assert_same(
                    &sorted(got, true),
                    &want,
                    &format!("site {site:?}, recovery range"),
                );
                assert!(!want.is_empty(), "the recovery range is not vacuous");
            }
        }
        drop(stop_writer);
        assert!(writer.join().unwrap() > 0, "the writer never committed");
    });
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
