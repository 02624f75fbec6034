//! End-to-end serving-path tests: steady state over real TCP, a cold session
//! among idle ones, shed under burst (typed `Overloaded`, never a hang),
//! deadline rejection before execution, graceful drain, and a property test
//! that shed-only retry commits every acked id exactly once.

use harbor_common::codec::Wire;
use harbor_common::config::DEFAULT_RETRY_AFTER_MS;
use harbor_common::{DbError, DbResult, Metrics, Timestamp};
use harbor_dist::UpdateRequest;
use harbor_front::{FnHandler, FrontClient, FrontConfig, FrontReply, FrontServer};
use harbor_net::tcp::TcpTransport;
use harbor_net::Transport;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn insert_op(id: i64) -> Vec<UpdateRequest> {
    vec![UpdateRequest::Insert {
        table: "t".into(),
        values: vec![harbor_common::Value::Int64(id)],
    }]
}

fn op_id(ops: &[UpdateRequest]) -> i64 {
    match &ops[0] {
        UpdateRequest::Insert { values, .. } => match values[0] {
            harbor_common::Value::Int64(id) => id,
            _ => panic!("unexpected value"),
        },
        _ => panic!("unexpected op"),
    }
}

/// A fake engine: sleeps `work` per transaction, records executed ids.
struct SlowEngine {
    work: Duration,
    executed: Mutex<Vec<i64>>,
    seq: AtomicU64,
}

impl SlowEngine {
    fn new(work: Duration) -> Arc<Self> {
        Arc::new(SlowEngine {
            work,
            executed: Mutex::new(Vec::new()),
            seq: AtomicU64::new(1),
        })
    }

    fn handler(self: &Arc<Self>) -> Box<dyn harbor_front::FrontHandler> {
        let me = Arc::clone(self);
        Box::new(FnHandler(move |ops: Vec<UpdateRequest>, _deadline| {
            if !me.work.is_zero() {
                std::thread::sleep(me.work);
            }
            me.executed.lock().push(op_id(&ops));
            Ok(Timestamp(me.seq.fetch_add(1, Ordering::Relaxed)))
        }))
    }
}

fn start_tcp(
    cfg: FrontConfig,
    engine: &Arc<SlowEngine>,
) -> (TcpTransport, FrontServer, String, Metrics) {
    let metrics = Metrics::new();
    let transport = TcpTransport::new(metrics.clone());
    let listener = transport.listen("127.0.0.1:0").expect("bind");
    let server =
        FrontServer::start(cfg, listener, engine.handler(), metrics.clone()).expect("start");
    let addr = server.local_addr();
    (transport, server, addr, metrics)
}

#[test]
fn steady_state_commits_over_tcp() {
    let engine = SlowEngine::new(Duration::ZERO);
    let (transport, server, addr, metrics) = start_tcp(FrontConfig::default(), &engine);
    let mut client = FrontClient::connect(&transport, &addr, 1).expect("connect");
    client.ping().expect("ping");
    for id in 0..20 {
        client
            .txn(&insert_op(id), Duration::from_secs(5))
            .expect("commit");
    }
    assert_eq!(engine.executed.lock().len(), 20);
    assert_eq!(metrics.requests_admitted(), 20);
    assert_eq!(metrics.requests_shed(), 0);
    assert_eq!(metrics.sessions_accepted(), 1);
    server.shutdown();
    assert_eq!(metrics.sessions_closed(), 1);
}

/// A frame whose tag no request owns is answered best-effort with the
/// decoder's own `Corrupt` — as every other decoder's bad tag is — and the
/// session is dropped: framing is untrusted after a parse failure.
#[test]
fn unknown_request_tag_is_answered_corrupt_and_the_session_dropped() {
    let engine = SlowEngine::new(Duration::ZERO);
    let (transport, server, addr, metrics) = start_tcp(FrontConfig::default(), &engine);
    let mut chan = transport.connect(&addr).expect("connect");
    chan.send(vec![9]).expect("send");
    let reply = chan
        .recv_timeout(Duration::from_secs(5))
        .expect("recv")
        .expect("a reply before the close");
    match FrontReply::from_slice(&reply).expect("decode") {
        FrontReply::Err { err, .. } => {
            assert!(err.is_corrupt(), "{err}");
            assert!(err.to_string().contains("bad FrontRequest tag 9"), "{err}");
        }
        other => panic!("expected the decode failure, got {other:?}"),
    }
    // The server closed its end: nothing more arrives on this session.
    assert!(!matches!(
        chan.recv_timeout(Duration::from_secs(5)),
        Ok(Some(_))
    ));
    assert!(engine.executed.lock().is_empty());
    server.shutdown();
    assert_eq!(metrics.sessions_closed(), 1);
}

/// Every session has its own thread blocked on its own socket, so a request
/// is noticed when it arrives however many other sessions sit idle: none of
/// them stands between a cold session and a reader.
#[test]
fn a_cold_session_is_answered_at_once_among_idle_ones() {
    let engine = SlowEngine::new(Duration::ZERO);
    let (transport, server, addr, metrics) = start_tcp(FrontConfig::default(), &engine);
    let idle: Vec<FrontClient> = (0..64)
        .map(|c| FrontClient::connect(&transport, &addr, c).expect("connect"))
        .collect();
    let mut cold = FrontClient::connect(&transport, &addr, 64).expect("connect");
    let t0 = Instant::now();
    while metrics.sessions_accepted() < 65 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "sessions never accepted"
        );
        std::thread::yield_now();
    }
    let mut pongs: Vec<Duration> = (0..20)
        .map(|_| {
            // Long enough for the session to have gone cold: a server that
            // polls its sessions in turn has moved on to the others.
            std::thread::sleep(Duration::from_millis(20));
            let t = Instant::now();
            cold.ping().expect("ping");
            t.elapsed()
        })
        .collect();
    pongs.sort_unstable();
    let median = pongs[pongs.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "a cold session waited {median:?} (median of {pongs:?})"
    );
    drop((idle, cold));
    server.shutdown();
    assert_eq!(metrics.sessions_closed(), 65);
}

#[test]
fn burst_sheds_typed_overloaded_and_never_hangs() {
    // One permit, a 2-deep queue, and a tight permit budget: a 12-client
    // burst must drown the gate.
    let engine = SlowEngine::new(Duration::from_millis(30));
    let cfg = FrontConfig {
        permits: 1,
        queue_depth: 2,
        permit_budget: Duration::from_millis(10),
        ..FrontConfig::default()
    };
    let (transport, server, addr, metrics) = start_tcp(cfg, &engine);
    let t0 = Instant::now();
    let outcomes: Vec<DbResult<Timestamp>> = std::thread::scope(|scope| {
        let transport = &transport;
        let addr = &addr;
        (0..12)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = FrontClient::connect(transport, addr, c).expect("connect");
                    client.txn(&insert_op(c as i64), Duration::from_secs(10))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Liveness: every client got an answer promptly — shed or committed —
    // never a stalled socket.
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "burst took {:?}",
        t0.elapsed()
    );
    let committed = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(e) if e.is_overloaded()))
        .count();
    assert_eq!(
        committed + shed,
        12,
        "unexpected outcome class: {outcomes:?}"
    );
    assert!(shed > 0, "burst never shed: {outcomes:?}");
    assert!(committed >= 1);
    // The typed shed carries its hint through the wire hop.
    let hint = outcomes.iter().find_map(|r| match r {
        Err(e) if e.is_overloaded() => e.retry_after_ms(),
        _ => None,
    });
    assert_eq!(hint, Some(DEFAULT_RETRY_AFTER_MS));
    assert!(metrics.requests_shed() as usize >= shed);
    server.shutdown();
}

#[test]
fn expired_deadline_rejects_before_execution() {
    // The one permit is out for 80 ms; a request with a 15 ms budget waiting
    // behind it must be rejected as a timeout without ever executing.
    let engine = SlowEngine::new(Duration::from_millis(80));
    let cfg = FrontConfig {
        permits: 1,
        queue_depth: 16,
        permit_budget: Duration::from_secs(10),
        ..FrontConfig::default()
    };
    let (transport, server, addr, metrics) = start_tcp(cfg, &engine);
    let slow = std::thread::spawn({
        let transport = TcpTransport::new(Metrics::new());
        let addr = addr.clone();
        move || {
            let mut c = FrontClient::connect(&transport, &addr, 0).expect("connect");
            c.txn(&insert_op(100), Duration::from_secs(10))
        }
    });
    std::thread::sleep(Duration::from_millis(20)); // let the slow txn take the permit
    let mut c = FrontClient::connect(&transport, &addr, 1).expect("connect");
    let err = c
        .txn(&insert_op(200), Duration::from_millis(15))
        .expect_err("must reject");
    assert!(err.is_timeout(), "got {err}");
    assert!(slow.join().expect("slow client").is_ok());
    assert_eq!(metrics.deadline_rejects(), 1);
    assert_eq!(
        engine.executed.lock().as_slice(),
        &[100],
        "rejected request must never execute"
    );
    server.shutdown();
}

#[test]
fn graceful_drain_completes_admitted_requests() {
    let engine = SlowEngine::new(Duration::from_millis(40));
    let cfg = FrontConfig {
        permits: 2,
        queue_depth: 16,
        permit_budget: Duration::from_secs(10),
        ..FrontConfig::default()
    };
    let (_transport, server, addr, metrics) = start_tcp(cfg, &engine);
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn({
                let transport = TcpTransport::new(Metrics::new());
                let addr = addr.clone();
                move || {
                    let mut cl = FrontClient::connect(&transport, &addr, c).expect("connect");
                    cl.txn(&insert_op(c as i64), Duration::from_secs(10))
                }
            })
        })
        .collect();
    // Wait until all four requests are off their sockets (waiting for a
    // permit or executing), then pull the plug.
    let t0 = Instant::now();
    while (metrics.requests_admitted() + server.queue_depth() as u64) < 4 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "requests never arrived"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let took = server.shutdown();
    for c in clients {
        let res = c.join().expect("client thread");
        assert!(res.is_ok(), "admitted request dropped by drain: {res:?}");
    }
    assert_eq!(engine.executed.lock().len(), 4);
    assert!(metrics.drain_micros() > 0);
    assert!(took > Duration::ZERO);
    assert_eq!(metrics.sessions_accepted(), 4);
    assert_eq!(metrics.sessions_closed(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shed-only retry with seeded backoff commits every acked id exactly
    /// once, across arbitrary shed/retry interleavings induced by tiny
    /// capacities — and an acked id is always present in the engine.
    #[test]
    fn retry_commits_every_acked_id(
        clients in 1usize..4,
        txns in 1usize..6,
        queue_depth in 1usize..4,
        permits in 1usize..3,
        work_ms in 0u64..4,
    ) {
        let engine = SlowEngine::new(Duration::from_millis(work_ms));
        let cfg = FrontConfig {
            permits,
            queue_depth,
            permit_budget: Duration::from_millis(5),
            ..FrontConfig::default()
        };
        let metrics = Metrics::new();
        let net = harbor_net::inmem::InMemNetwork::new(metrics.clone());
        let listener = net.listen("front").expect("bind");
        let server = FrontServer::start(cfg, listener, engine.handler(), metrics)
            .expect("start");
        let driver_cfg = harbor_workload::DriverConfig {
            clients,
            txns_per_client: txns,
            deadline: Duration::from_secs(5),
            retry: harbor_common::RetryPolicy::new(
                12,
                Duration::from_millis(1),
                Duration::from_millis(20),
                0xF007 ^ (clients as u64) << 8 ^ txns as u64,
            ),
        };
        let report = harbor_workload::run_front_clients(
            &net,
            "front",
            &driver_cfg,
            |c, n| {
                let id = (c as i64) * 1000 + n as i64;
                (id, insert_op(id))
            },
        ).expect("driver");
        server.shutdown();
        let executed = engine.executed.lock();
        // Exactly-once: shed-only retry may never double-execute.
        let mut uniq = executed.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), executed.len(), "double execution: {:?}", &*executed);
        // Acked ⇒ present.
        for id in &report.acked {
            prop_assert!(executed.contains(id), "acked id {} missing", id);
        }
        prop_assert_eq!(report.acked.len() as u64, report.sample.committed);
    }
}

// Keep DbError in scope for the typed-shed assertions even if rustc decides
// the direct uses above are enough.
#[allow(dead_code)]
fn _taxonomy_witness(e: &DbError) -> bool {
    e.is_overloaded()
}
