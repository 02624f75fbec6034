//! Front-door daemon: put the `harbor-front` serving layer in front of a
//! cluster on a real loopback TCP socket, drive it with the closed-loop
//! multi-client workload driver (seeded retry/backoff on typed sheds),
//! crash and recover a worker mid-run, and print the client-observed
//! latency percentiles plus the serving metrics.
//!
//! Run with: `cargo run --release --example front_daemon`

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_common::metrics::Group;
use harbor_common::{Metrics, SiteId, StorageConfig};
use harbor_dist::ProtocolKind;
use harbor_front::{FrontConfig, FrontServer};
use harbor_net::{TcpTransport, Transport};
use harbor_workload::{insert_request, run_front_clients, DriverConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("harbor-front-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Three replicated workers: commits keep flowing while one is down.
    let clients = 4usize;
    let mut cfg = ClusterConfig::new(ProtocolKind::Opt3pc, 3);
    cfg.storage = StorageConfig::for_tests();
    for c in 0..clients {
        cfg.tables.push(TableSpec::paper_table(&format!("t{c}")));
    }
    let cluster = Cluster::build(&dir, cfg)?;

    // The front door: a thread per session behind one admission gate, on an
    // OS-assigned TCP port.
    // The cluster's coordinator is the handler; per-request deadlines are
    // checked before every begin/update/commit step.
    let front_metrics = Metrics::new();
    let transport = TcpTransport::new(Metrics::new());
    let listener = transport.listen("127.0.0.1:0")?;
    let server = FrontServer::start(
        FrontConfig::default(),
        listener,
        Box::new(cluster.coordinator().clone()),
        front_metrics.clone(),
    )?;
    let addr = server.local_addr();
    println!("harbor-front listening on {addr}");

    // Closed-loop clients over real sockets. The driver retries only typed
    // `Overloaded` sheds (the request never executed, so a resubmit can
    // never double-commit), honoring the server's retry_after hint.
    let driver_cfg = DriverConfig {
        clients,
        txns_per_client: 200,
        deadline: Duration::from_secs(5),
        ..DriverConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            run_front_clients(&transport, &addr, &driver_cfg, |c, n| {
                let id = (c as i64) << 32 | n as i64;
                (id, vec![insert_request(&format!("t{c}"), id)])
            })
        });
        // Meanwhile: fail-stop a worker and bring it back with HARBOR's
        // three recovery phases, all while the clients keep committing.
        std::thread::sleep(Duration::from_millis(100));
        cluster.crash_worker(SiteId(2)).expect("crash");
        println!("site-2 crashed (fail-stop); serving continues on 2 replicas");
        std::thread::sleep(Duration::from_millis(200));
        let rec = cluster.recover_worker_harbor(SiteId(2)).expect("recover");
        println!(
            "site-2 recovered: {} objects in {:?} (phase1 {:?}, phase3 {:?})",
            rec.objects.len(),
            rec.total,
            rec.phase1(),
            rec.phase3()
        );
        driver.join().expect("driver thread")
    })?;

    let s = &report.sample;
    println!(
        "\n{} committed, {} failed, {} sheds ({} retries)",
        s.committed, report.failed, report.sheds_observed, report.retries
    );
    println!(
        "client-observed latency: p50 {:?}  p99 {:?}  p999 {:?}",
        s.p50_latency, s.p99_latency, s.p999_latency
    );

    // Graceful drain: stop accepting, finish everything admitted, close.
    let drain = server.shutdown();
    println!("drained in {drain:?}");
    println!("serving {}", front_metrics.snapshot().summary(Group::Serve));

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
