//! The one server loop (§6.1.6: thread-per-connection client/server). The
//! coordinator, the workers and the front door all serve this way: one
//! thread accepts, every connection gets a thread of its own that reads a
//! request, answers it and reads the next until the peer hangs up or the
//! server's stop flag goes up.

use crate::{Channel, Listener};
use harbor_common::DbResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long an accept or a receive blocks before it looks at the stop flag
/// again; a stopping server is gone within one tick.
const TICK: Duration = Duration::from_millis(50);

/// Accepts connections until `stop` is raised or the listener breaks (or is
/// closed), and runs `serve` on each in a thread named `thread_name`.
/// Returns once every connection thread has been joined: joining the thread
/// that runs this loop is joining the whole server.
pub fn serve_connections(
    listener: &dyn Listener,
    stop: &AtomicBool,
    thread_name: &str,
    serve: impl Fn(Box<dyn Channel>) + Sync,
) {
    let serve = &serve;
    std::thread::scope(|scope| {
        let mut conns = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept_timeout(TICK) {
                Ok(Some(chan)) => {
                    let spawned = std::thread::Builder::new()
                        .name(thread_name.to_string())
                        .spawn_scoped(scope, move || serve(chan));
                    // Thread exhaustion must not end the server: dropping
                    // the un-spawned closure closes the connection, and the
                    // peer retries or times out against a server that is
                    // still up.
                    if let Ok(h) = spawned {
                        conns.push(h);
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
            // Threads follow connections: one whose peer has hung up is
            // joined now, not kept until the server stops.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].is_finished() {
                    let _ = conns.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        // Joined by hand: the scope would pass a connection's panic on.
        for h in conns {
            let _ = h.join();
        }
    })
}

/// The next frame on a served connection: `Ok(None)` once `stop` is up
/// (looked at before every tick of waiting, never after a frame has been
/// read — a frame taken off the connection is the caller's to answer),
/// `Err` when the peer has gone.
pub fn recv_or_stop(chan: &mut dyn Channel, stop: &AtomicBool) -> DbResult<Option<Vec<u8>>> {
    while !stop.load(Ordering::SeqCst) {
        if let Some(frame) = chan.recv_timeout(TICK)? {
            return Ok(Some(frame));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::RecvWithin;
    use crate::{InMemNetwork, Transport};
    use harbor_common::Metrics;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn every_connection_is_served_and_joined_at_stop() {
        let net = InMemNetwork::new(Metrics::new());
        let listener = net.listen("srv").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let left = Arc::new(AtomicUsize::new(0));
        let server = std::thread::spawn({
            let (stop, left) = (stop.clone(), left.clone());
            move || {
                serve_connections(listener.as_ref(), &stop, "echo", |mut chan| {
                    while let Ok(Some(frame)) = recv_or_stop(chan.as_mut(), &stop) {
                        chan.send(frame).unwrap();
                    }
                    left.fetch_add(1, Ordering::SeqCst);
                })
            }
        });
        let mut gone = net.connect("srv").unwrap();
        let mut kept = net.connect("srv").unwrap();
        for chan in [&mut gone, &mut kept] {
            chan.send(b"hi".to_vec()).unwrap();
            assert_eq!(chan.recv_within().unwrap(), b"hi");
        }
        // A peer that hangs up ends its thread while the server runs on.
        drop(gone);
        while left.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        kept.send(b"still".to_vec()).unwrap();
        assert_eq!(kept.recv_within().unwrap(), b"still");
        // Stop: the silent connection's thread is joined with the loop.
        stop.store(true, Ordering::SeqCst);
        server.join().unwrap();
        assert_eq!(left.load(Ordering::SeqCst), 2);
        assert!(net.connect("srv").is_err(), "listener still bound");
    }

    #[test]
    fn closing_the_listener_ends_the_loop_without_waiting_for_a_tick() {
        let net = InMemNetwork::new(Metrics::new());
        let listener: Arc<dyn Listener> = Arc::from(net.listen("srv").unwrap());
        let server = std::thread::spawn({
            let listener = listener.clone();
            move || serve_connections(listener.as_ref(), &AtomicBool::new(false), "idle", |_| {})
        });
        listener.close();
        server.join().unwrap();
        assert!(net.connect("srv").is_err());
    }
}
