//! Transport stress: many concurrent connections, per-connection frame
//! ordering, mixed frame sizes, and injected-latency behaviour.

use harbor_common::{DbError, DbResult, Metrics};
use harbor_net::{Channel, InMemNetwork, Listener, TcpTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The next frame within ten seconds, or the error of a closed peer. A frame
/// that never comes is an error too, so a lost echo fails the test instead
/// of hanging it.
fn next(chan: &mut dyn Channel) -> DbResult<Vec<u8>> {
    chan.recv_timeout(Duration::from_secs(10))?
        .ok_or_else(|| DbError::internal("no frame within 10 s"))
}

/// The next connection within ten seconds.
fn accept(listener: &dyn Listener) -> Box<dyn Channel> {
    listener
        .accept_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("no connection within 10 s")
}

fn stress(transport: Arc<dyn Transport>, addr: &str) {
    let listener = transport.listen(addr).unwrap();
    let real_addr = listener.local_addr();
    // Echo server: one thread per connection.
    let server = std::thread::spawn(move || {
        let mut conns = Vec::new();
        for _ in 0..4 {
            let chan = accept(listener.as_ref());
            conns.push(std::thread::spawn(move || {
                let mut chan = chan;
                while let Ok(frame) = next(chan.as_mut()) {
                    if chan.send(frame).is_err() {
                        break;
                    }
                }
            }));
        }
        for c in conns {
            let _ = c.join();
        }
    });
    let clients: Vec<_> = (0..4u8)
        .map(|c| {
            let transport = transport.clone();
            let addr = real_addr.clone();
            std::thread::spawn(move || {
                let mut chan = transport.connect(&addr).unwrap();
                for i in 0..100u32 {
                    // Mixed sizes: small to ~64 KB (always room for the
                    // 4-byte sequence number).
                    let len = 4 + ((i as usize * 769) % 65_536);
                    let mut frame = vec![c; len];
                    frame[..4].copy_from_slice(&i.to_le_bytes());
                    chan.send(frame).unwrap();
                    let echo = next(chan.as_mut()).unwrap();
                    // Per-connection ordering and integrity.
                    assert_eq!(echo.len(), len);
                    assert_eq!(u32::from_le_bytes(echo[..4].try_into().unwrap()), i);
                    assert!(echo[4..].iter().all(|&b| b == c));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    server.join().unwrap();
}

#[test]
fn tcp_concurrent_echo_stress() {
    stress(Arc::new(TcpTransport::new(Metrics::new())), "127.0.0.1:0");
}

#[test]
fn inmem_concurrent_echo_stress() {
    stress(Arc::new(InMemNetwork::new(Metrics::new())), "stress");
}

#[test]
fn injected_latency_slows_sends_measurably() {
    let lat = Duration::from_millis(2);
    let t: Arc<dyn Transport> = Arc::new(InMemNetwork::with_latency(Metrics::new(), lat));
    let listener = t.listen("latency").unwrap();
    let server = std::thread::spawn(move || {
        let mut chan = accept(listener.as_ref());
        while let Ok(f) = next(chan.as_mut()) {
            if chan.send(f).is_err() {
                break;
            }
        }
    });
    let mut chan = t.connect("latency").unwrap();
    let n = 10;
    let t0 = Instant::now();
    for _ in 0..n {
        chan.send(b"x".to_vec()).unwrap();
        next(chan.as_mut()).unwrap();
    }
    let elapsed = t0.elapsed();
    // Each round trip pays the latency twice (request + reply).
    assert!(
        elapsed >= lat * (2 * n),
        "latency not applied: {elapsed:?} for {n} round trips"
    );
    drop(chan);
    server.join().unwrap();
}
