//! A server keeps no thread of a connection that has ended: run on for many
//! short connections, `serve_connections` joins each finished connection
//! thread while it runs, so what the process has mapped stays flat. A
//! finished thread that is never joined keeps its stack mapped until the
//! server stops.
//!
//! A binary of its own, so no other test's threads come and go beside the
//! count.

use harbor_common::Metrics;
use harbor_net::{recv_or_stop, serve_connections, InMemNetwork, Transport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mappings of this process (a thread's stack is one, its guard another).
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// Connects, has one frame echoed, hangs up, and waits until the server's
/// thread for the connection has returned.
fn cycle(net: &InMemNetwork, served: &AtomicUsize) {
    let before = served.load(Ordering::SeqCst);
    let mut chan = net.connect("srv").unwrap();
    chan.send(b"ping".to_vec()).unwrap();
    let echo = chan.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(echo.as_deref(), Some(&b"ping"[..]));
    drop(chan);
    let deadline = Instant::now() + Duration::from_secs(10);
    while served.load(Ordering::SeqCst) == before {
        assert!(
            Instant::now() < deadline,
            "the connection thread never ended"
        );
        std::thread::yield_now();
    }
}

#[test]
fn finished_connection_threads_are_joined_while_the_server_runs() {
    let net = InMemNetwork::new(Metrics::new());
    let listener = net.listen("srv").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let server = std::thread::spawn({
        let (stop, served) = (stop.clone(), served.clone());
        move || {
            serve_connections(listener.as_ref(), &stop, "echo", |mut chan| {
                while let Ok(Some(frame)) = recv_or_stop(chan.as_mut(), &stop) {
                    chan.send(frame).unwrap();
                }
                served.fetch_add(1, Ordering::SeqCst);
            })
        }
    });
    // Warm up: the first connections map what later ones reuse.
    for _ in 0..8 {
        cycle(&net, &served);
    }
    let settle = || std::thread::sleep(Duration::from_millis(200));
    settle();
    let before = mappings();
    for _ in 0..64 {
        cycle(&net, &served);
    }
    // The last threads are joined at the loop's next tick.
    settle();
    let after = mappings();
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap();
    assert!(
        after <= before + 16,
        "64 ended connections left {} mappings behind ({before} → {after})",
        after.saturating_sub(before)
    );
}
