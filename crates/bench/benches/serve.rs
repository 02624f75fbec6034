//! Front-door serving experiment: client-observed latency through the
//! `harbor-front` daemon over real loopback TCP (DESIGN.md "Front-door
//! serving layer").
//!
//! Three scenarios, each measured with the closed-loop multi-client driver
//! (`harbor_workload::run_front_clients`, seeded retry/backoff on typed
//! `Overloaded` sheds):
//!
//! - `steady_tcp` — N clients against a healthy cluster: the baseline SLO.
//! - `crash_recovery` — the same workload while a worker site fail-stop
//!   crashes an eighth of the way into the run and, from half way, is
//!   brought back with HARBOR's three recovery phases: the paper's headline
//!   claim, quoted as a p99 instead of a throughput dip.
//! - `overload_burst` — 4x the clients against a deliberately tiny front
//!   door (few permits, shallow queue): admission control must shed with
//!   `retry_after` hints instead of stalling sockets, and the p99 of
//!   *admitted* work must stay bounded.
//!
//! Two more rows price the hand-off under all of it, with nothing else
//! running: `handoff_inmem` and `handoff_tcp` time request/reply round
//! trips over one connection, one thread a side, pinned to one CPU as
//! `harbor-benchmark` is (`ns_per_row` is a round trip), and `handoff_tcp`
//! counts the receive syscalls a frame costs (`socket_reads_per_frame`).
//!
//! Writes `BENCH_serve.json`: p50/p99/p999 client-observed latency per
//! scenario plus sheds/retries/admissions and the drain time, the two
//! hand-off rows, and the machine it ran on.

use harbor::{Cluster, ClusterConfig, TableSpec};
use harbor_bench::{
    experiment_dir, pin_to_one_cpu, print_table, throughput_storage, BenchReport, Scale,
};
use harbor_common::metrics::Group;
use harbor_common::{Metrics, RetryPolicy, SiteId};
use harbor_dist::ProtocolKind;
use harbor_front::{FrontConfig, FrontServer};
use harbor_net::{recv_or_stop, InMemNetwork, TcpTransport, Transport};
use harbor_workload::{insert_request, run_front_clients, DriverConfig, DriverReport};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Round trips a hand-off row times, after as many again to warm up.
const ROUND_TRIPS: u64 = 10_000;

/// A hand-off row: the nanoseconds `ROUND_TRIPS` request/reply round trips
/// took, and the receive syscalls made meanwhile.
struct Handoff {
    ns: u128,
    socket_reads: u64,
}

/// Times round trips of a 128-byte frame over one connection of
/// `transport` (whose counters are `metrics`), one thread a side, on one
/// CPU. The serving side reads as every server's connection threads do
/// (`recv_or_stop`), the requesting side with a fixed patience as
/// `FrontClient` does.
fn handoff(transport: Box<dyn Transport>, metrics: Metrics, addr: &str) -> Handoff {
    let addr = addr.to_string();
    let pinned = std::thread::spawn(move || {
        pin_to_one_cpu();
        let listener = transport.listen(&addr).expect("bind hand-off");
        let bound = listener.local_addr();
        let server = std::thread::spawn(move || {
            let mut chan = listener
                .accept_timeout(Duration::from_secs(10))
                .expect("accept hand-off")
                .expect("a hand-off connection");
            let stop = AtomicBool::new(false);
            while let Ok(Some(request)) = recv_or_stop(chan.as_mut(), &stop) {
                chan.send(request).expect("reply");
            }
        });
        let mut chan = transport.connect(&bound).expect("connect hand-off");
        // Each reply is sent back as the next request.
        let mut frame = vec![7u8; 128];
        let mut round_trip = || {
            chan.send(std::mem::take(&mut frame)).expect("request");
            let reply = chan.recv_timeout(Duration::from_secs(5)).expect("reply");
            frame = reply.expect("hand-off reply");
            assert_eq!(frame, [7u8; 128], "hand-off reply");
        };
        for _ in 0..ROUND_TRIPS {
            round_trip();
        }
        let reads = metrics.socket_reads();
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            round_trip();
        }
        let ns = t.elapsed().as_nanos();
        let socket_reads = metrics.socket_reads() - reads;
        drop(chan);
        server.join().expect("hand-off server");
        Handoff { ns, socket_reads }
    });
    pinned.join().expect("hand-off thread")
}

fn build_cluster(name: &str, protocol: ProtocolKind, workers: usize, clients: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(protocol, workers);
    cfg.storage = throughput_storage();
    cfg.checkpoint_every = Some(Duration::from_secs(1));
    // Every scenario carries a fault plan (built off); the crash scenario
    // switches it on so the crash+recovery window runs with seeded
    // inter-site delay jitter. Drops/disconnects stay off: a severed link
    // marks a *second* site dead, which turns the experiment into a
    // cascading-failure story instead of the paper's single-crash claim.
    cfg.faults = Some(harbor_common::fault::FaultConfig {
        delay_per_mille: 150,
        ..harbor_common::fault::FaultConfig::quiet(0xF00D_5EED)
    });
    cfg.rpc_deadline = Duration::from_secs(2);
    // One table per client session: the experiment measures the serving
    // layer and the commit path, not page-lock contention.
    for c in 0..clients {
        cfg.tables.push(TableSpec::paper_table(&format!("t{c}")));
    }
    Cluster::build(experiment_dir(&format!("serve-{name}")), cfg).expect("build serve cluster")
}

struct ScenarioResult {
    report: DriverReport,
    admitted: u64,
    shed: u64,
    queue_peak: u64,
    drain: Duration,
    serving: String,
}

/// Runs one scenario: a front door over loopback TCP in front of
/// `cluster`'s coordinator, the driver hammering it, and an optional
/// mid-run fault callback on the main thread.
fn run_scenario(
    cluster: &Cluster,
    front_cfg: FrontConfig,
    driver_cfg: &DriverConfig,
    fault: impl FnOnce(&Cluster),
) -> ScenarioResult {
    let front_metrics = Metrics::new();
    let transport = TcpTransport::new(Metrics::new());
    let listener = transport.listen("127.0.0.1:0").expect("bind front");
    let server = FrontServer::start(
        front_cfg,
        listener,
        Box::new(cluster.coordinator().clone()),
        front_metrics.clone(),
    )
    .expect("start front");
    let addr = server.local_addr();

    let report = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            run_front_clients(&transport, &addr, driver_cfg, |c, n| {
                let id = (c as i64) << 32 | n as i64;
                (id, vec![insert_request(&format!("t{c}"), id)])
            })
            .expect("driver run")
        });
        fault(cluster);
        driver.join().expect("driver thread")
    });
    let drain = server.shutdown();
    ScenarioResult {
        report,
        admitted: front_metrics.requests_admitted(),
        shed: front_metrics.requests_shed(),
        queue_peak: front_metrics.queue_peak_depth(),
        drain,
        serving: front_metrics.snapshot().summary(Group::Serve),
    }
}

fn main() {
    let scale = Scale::from_env();
    let clients = scale.pick(4, 8, 16);
    let txns_per_client = scale.pick(40, 150, 400);
    println!("Front-door serving: client-observed latency over loopback TCP");
    println!("(scale={scale:?}, {clients} clients x {txns_per_client} txns each)");
    let mut report = BenchReport::new("serve");
    report
        .config("scale", format!("{scale:?}"))
        .config("clients", clients)
        .config("txns_per_client", txns_per_client)
        .config(
            "transport",
            "front door on loopback TCP, cluster in-process",
        )
        .environment();

    let mut rows = Vec::new();
    let record =
        |report: &mut BenchReport, rows: &mut Vec<Vec<String>>, name: &str, r: &ScenarioResult| {
            let s = &r.report.sample;
            let us = |d: Duration| d.as_micros().to_string();
            rows.push(vec![
                name.to_string(),
                format!("{:.0}", s.tps()),
                us(s.p50_latency),
                us(s.p99_latency),
                us(s.p999_latency),
                s.committed.to_string(),
                r.report.failed.to_string(),
                r.shed.to_string(),
                r.report.retries.to_string(),
                r.drain.as_micros().to_string(),
            ]);
            report.entry_with(
                name,
                s.p50_latency.as_nanos().max(1),
                s.committed.max(1),
                &[
                    ("txns_per_s", format!("{:.1}", s.tps())),
                    ("p50_us", us(s.p50_latency)),
                    ("p99_us", us(s.p99_latency)),
                    ("p999_us", us(s.p999_latency)),
                    ("committed", s.committed.to_string()),
                    ("failed", r.report.failed.to_string()),
                    ("admitted", r.admitted.to_string()),
                    ("shed", r.shed.to_string()),
                    ("retries", r.report.retries.to_string()),
                    ("queue_peak", r.queue_peak.to_string()),
                    ("drain_us", r.drain.as_micros().to_string()),
                ],
            );
            println!("  {name} serving {}", r.serving);
        };

    // --- steady state ---------------------------------------------------
    let driver_cfg = DriverConfig {
        clients,
        txns_per_client,
        deadline: Duration::from_secs(10),
        ..DriverConfig::default()
    };
    let cluster = build_cluster("steady", ProtocolKind::Opt3pc, 3, clients);
    let steady = run_scenario(&cluster, FrontConfig::default(), &driver_cfg, |_| {});
    cluster.shutdown();
    record(&mut report, &mut rows, "steady_tcp", &steady);

    // --- crash + 3-phase recovery window --------------------------------
    // Three replicas so commits stay servable while one site is down; the
    // fault thread crashes a worker once the run is warm, lets the degraded
    // window accumulate latency samples, then runs HARBOR recovery
    // (Phase 1 historical catch-up, Phase 2 deltas, Phase 3 locked
    // handoff) while the workload keeps going. The schedule is in commits,
    // not milliseconds: the whole run is shorter than the sleeps it used to
    // be timed by, and a crash after the last client has left measures
    // nothing.
    let cluster = build_cluster("crash", ProtocolKind::Opt3pc, 3, clients);
    let crash = run_scenario(&cluster, FrontConfig::default(), &driver_cfg, |cluster| {
        let total = (clients * txns_per_client) as u64;
        let patience = Instant::now() + Duration::from_secs(10);
        let until_committed = |n: u64| {
            let commits = || cluster.coordinator().metrics().snapshot().commits;
            while commits() < n && Instant::now() < patience {
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        until_committed(total / 8);
        cluster.faults().set_enabled(true);
        let victim = SiteId(2);
        cluster.crash_worker(victim).expect("crash worker");
        until_committed(total / 2);
        let rec = cluster
            .recover_worker_harbor(victim)
            .expect("harbor recovery");
        cluster.faults().set_enabled(false);
        println!(
            "  crash_recovery: site-2 recovered {} objects in {:?}",
            rec.objects.len(),
            rec.total
        );
    });
    cluster.shutdown();
    record(&mut report, &mut rows, "crash_recovery", &crash);

    // --- overload burst -------------------------------------------------
    // 4x the clients against a deliberately tiny front door. The assertion
    // worth quoting: sheds happen (admission control engaged), every
    // client's requests resolve (no hangs — the driver would block
    // forever), and admitted work keeps a bounded p99.
    let burst_clients = clients * 4;
    let cluster = build_cluster("burst", ProtocolKind::Opt3pc, 3, burst_clients);
    let burst_front = FrontConfig {
        permits: 2,
        queue_depth: burst_clients / 2,
        permit_budget: Duration::from_millis(10),
        ..FrontConfig::default()
    };
    let burst_driver = DriverConfig {
        clients: burst_clients,
        txns_per_client: txns_per_client / 4,
        deadline: Duration::from_secs(10),
        retry: RetryPolicy::new(
            16,
            Duration::from_millis(2),
            Duration::from_millis(100),
            0x5EED_F007,
        ),
    };
    let burst = run_scenario(&cluster, burst_front, &burst_driver, |_| {});
    cluster.shutdown();
    record(&mut report, &mut rows, "overload_burst", &burst);

    // --- the hand-off under it all ------------------------------------
    let metrics = Metrics::new();
    let inmem = handoff(
        Box::new(InMemNetwork::new(metrics.clone())),
        metrics,
        "handoff",
    );
    let metrics = Metrics::new();
    let tcp = handoff(
        Box::new(TcpTransport::new(metrics.clone())),
        metrics,
        "127.0.0.1:0",
    );
    let frames = 2 * ROUND_TRIPS;
    let reads_per_frame = tcp.socket_reads as f64 / frames as f64;
    report.entry("handoff_inmem", inmem.ns, ROUND_TRIPS);
    report.entry_with(
        "handoff_tcp",
        tcp.ns,
        ROUND_TRIPS,
        &[("socket_reads_per_frame", format!("{reads_per_frame:.3}"))],
    );
    println!(
        "\nhand-off round trip, one CPU: in-memory {:.2} us, loopback TCP {:.2} us \
         ({reads_per_frame:.3} socket reads a frame)",
        inmem.ns as f64 / ROUND_TRIPS as f64 / 1e3,
        tcp.ns as f64 / ROUND_TRIPS as f64 / 1e3,
    );

    print_table(
        "front-door serving: client-observed latency",
        &[
            "scenario",
            "txn/s",
            "p50 us",
            "p99 us",
            "p999 us",
            "committed",
            "failed",
            "shed",
            "retries",
            "drain us",
        ],
        &rows,
    );
    println!(
        "\noverload burst: {} sheds over {} retries, p99 {} us for admitted work",
        burst.shed,
        burst.report.retries,
        burst.report.sample.p99_latency.as_micros()
    );
    assert!(
        burst.shed > 0,
        "overload burst never engaged admission control"
    );
    report.write().expect("write BENCH_serve.json");
}
