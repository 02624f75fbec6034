//! An updatable-warehouse scenario (thesis Ch. 1): continuous fine-grained
//! loads, analytical reporting over consistent snapshots, and time travel
//! to audit corrections — the Wells-Fargo-style "compare the report before
//! and after a set of changes".
//!
//! Demonstrates: historical queries never block the load stream (they take
//! no locks), snapshot-consistent reports read from one replica through the
//! coordinator, and the versioned delete/update representation.
//!
//! Run with: `cargo run --release --example warehouse_reports`

use harbor::{Cluster, ClusterConfig, TableSpec, TransportKind};
use harbor_common::{FieldType, StorageConfig, Timestamp, Value};
use harbor_dist::{ProtocolKind, UpdateRequest};
use harbor_exec::Expr;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("harbor-warehouse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 2);
    cfg.storage = StorageConfig::default();
    cfg.transport = TransportKind::InMem {
        latency: None,
        bandwidth: None,
    };
    cfg.tables = vec![TableSpec {
        name: "orders".into(),
        user_fields: vec![
            ("id".into(), FieldType::Int64),
            ("region".into(), FieldType::Int32),
            ("units".into(), FieldType::Int32),
            ("unit_price".into(), FieldType::Int32),
        ],
    }];
    let cluster = Cluster::build(&dir, cfg)?;

    // Nightly ETL: load a day of orders.
    println!("loading day 1 ...");
    for id in 0..2_000i64 {
        cluster.insert_one(
            "orders",
            vec![
                Value::Int64(id),
                Value::Int32((id % 4) as i32),
                Value::Int32((1 + id % 9) as i32),
                Value::Int32((10 + id % 25) as i32),
            ],
        )?;
    }
    let day1_close = cluster.coordinator().authority().now().prev();

    // The morning report: revenue per region as of last night's close. A
    // historical read goes to a single live replica (§3.1) and takes no
    // locks; the rows are folded here. Stored columns: 2=id, 3=region,
    // 4=units, 5=unit_price.
    let report =
        |as_of: Timestamp, label: &str| -> Result<Vec<(i64, i64)>, harbor_common::DbError> {
            let mut revenue = BTreeMap::new();
            for row in cluster.read_historical("orders", as_of)? {
                let units = row.get(4).as_i64()?;
                let unit_price = row.get(5).as_i64()?;
                *revenue.entry(row.get(3).as_i64()?).or_insert(0) += units * unit_price;
            }
            println!("{label}");
            for (region, revenue) in &revenue {
                println!("  region {region}: revenue {revenue}");
            }
            Ok(revenue.into_iter().collect())
        };
    let before = report(day1_close, "report as of day-1 close:")?;

    // Intraday corrections: region 2's unit prices were overstated; a few
    // cancelled orders are deleted. These run as ordinary transactions
    // while reporting continues.
    println!("\napplying corrections ...");
    cluster.run_txn(vec![UpdateRequest::UpdateWhere {
        table: "orders".into(),
        pred: Expr::col(3).eq(Expr::lit(2)),
        set: vec![(3, Value::Int32(10))],
    }])?;
    cluster.run_txn(vec![UpdateRequest::DeleteWhere {
        table: "orders".into(),
        pred: Expr::col(2).lt(Expr::lit(50i64)),
    }])?;

    // Audit: the same report before and after the corrections. The "before"
    // numbers are still reproducible — time travel (§3.3).
    let before_again = report(
        day1_close,
        "\nreport as of day-1 close (re-run after corrections):",
    )?;
    assert_eq!(before, before_again, "historical reports must be stable");
    let now = cluster.coordinator().authority().now().prev();
    let after = report(now, "\nreport as of now (corrections applied):")?;
    assert_ne!(before, after);

    // A filtered drill-down: region 0 orders of at least 8 units. The
    // predicate ships with the read and is applied at the replica.
    let big_orders = cluster
        .coordinator()
        .read_historical("orders", now, |scan| {
            scan.predicate = Some(
                Expr::col(3)
                    .eq(Expr::lit(0))
                    .and(Expr::col(4).ge(Expr::lit(8))),
            )
        })?;
    println!("\nregion 0 orders with >= 8 units: {}", big_orders.len());

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
