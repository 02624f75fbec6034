//! Networking for the HARBOR reproduction.
//!
//! The thesis implementation is a thread-per-connection client/server over
//! TCP sockets (§6.1.6); this crate reproduces that model behind a
//! [`Transport`] abstraction with two interchangeable implementations:
//!
//! * [`tcp::TcpTransport`] — real `std::net` sockets (loopback in tests,
//!   any LAN in principle);
//! * [`inmem::InMemNetwork`] — crossbeam-channel pipes with optional
//!   injected per-message latency, for deterministic tests and for figure
//!   harnesses that model the paper's 85 Mb/s LAN.
//!
//! A connection is long-lived: the accepting side gives it a thread
//! ([`serve_connections`], the one server loop), which serves request after
//! request until the peer hangs up, and the connecting
//! side keeps it for as long as it has use for the peer (the coordinator
//! leases its worker connections to one transaction at a time and pools
//! them in between). Nothing here opens or closes a connection per message
//! or per transaction.
//!
//! Failure detection is "the detection of an abruptly closed TCP socket
//! connection as a signal for failure" (§5.5.1): both transports surface a
//! closed peer as [`DbError::Net`], and [`DbError::is_disconnect`] is true
//! for it. A connection that is merely silent — a partition — never closes;
//! callers bound every receive with a deadline instead. A pooled connection
//! whose peer went away while it idled is found out *before* it carries the
//! next frame ([`Channel::is_closed`]): over TCP the write would succeed
//! and the loss show only at the read, too late to send that frame again.

pub mod chaos;
pub mod inmem;
pub mod serve;
pub mod tcp;

pub use chaos::{ChaosConfig, ChaosTransport, FaultKind, FaultRecord};
pub use inmem::InMemNetwork;
pub use serve::{recv_or_stop, serve_connections};
pub use tcp::TcpTransport;

use harbor_common::{DbError, DbResult};
use std::time::Duration;

/// One bidirectional, framed, ordered byte channel (a "connection").
pub trait Channel: Send {
    /// Sends one frame. Blocks until handed to the transport.
    fn send(&mut self, frame: &[u8]) -> DbResult<()>;

    /// Sends one pre-framed message: `frame` starts with the 4-byte
    /// little-endian length prefix already in place (see
    /// `Wire::to_framed_vec`). Transports that put the prefix on the wire
    /// verbatim can override this to skip re-framing; the default strips the
    /// prefix and forwards to [`send`](Self::send).
    fn send_framed(&mut self, frame: &[u8]) -> DbResult<()> {
        debug_assert!(frame.len() >= 4, "framed message missing its prefix");
        self.send(&frame[4..])
    }

    /// Receives the next frame, blocking until one arrives or the peer
    /// closes (then `Err` with `is_disconnect() == true`).
    fn recv(&mut self) -> DbResult<Vec<u8>>;

    /// As [`recv`](Self::recv) with a timeout; `Ok(None)` on timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>>;

    /// Human-readable peer address (diagnostics).
    fn peer(&self) -> String;

    /// Whether a connection *with no exchange in progress* is known to be
    /// unusable: the peer has closed it, or bytes nobody asked for are
    /// waiting on it. Never blocks and consumes nothing. `false` means only
    /// "not known" — a transport whose `send` already fails on a closed peer
    /// needs no override. Holders of idle connections ask this before
    /// handing over a frame that must not be sent twice: over TCP a write to
    /// a peer that has gone succeeds, and the loss shows only at the read.
    fn is_closed(&self) -> bool {
        false
    }
}

/// Accepts inbound connections at one address.
pub trait Listener: Send + Sync {
    /// Blocks for the next inbound connection.
    fn accept(&self) -> DbResult<Box<dyn Channel>>;

    /// As [`accept`](Self::accept) with a timeout; `Ok(None)` on timeout.
    fn accept_timeout(&self, timeout: Duration) -> DbResult<Option<Box<dyn Channel>>>;

    fn local_addr(&self) -> String;

    /// Stops listening: an accept that is blocked, and every later one, fails
    /// once the connections already queued are handed out. A server that
    /// holds its listener calls this to end its accept loop at once; one that
    /// does not waits out the loop's tick, which is all the default costs.
    fn close(&self) {}
}

/// A network: bind listeners, open connections.
pub trait Transport: Send + Sync {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>>;
    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>>;
}

/// Shared error for a peer that went away.
pub(crate) fn closed(peer: &str) -> DbError {
    DbError::net(format!("connection to {peer} closed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::Metrics;
    use std::sync::Arc;

    /// Exercises one transport implementation through the trait object
    /// surface (both impls must pass identically).
    fn exercise(transport: Arc<dyn Transport>, addr: &str) {
        let listener = transport.listen(addr).unwrap();
        let addr_owned = listener.local_addr();
        let t2 = transport.clone();
        let server = std::thread::spawn(move || {
            let mut chan = listener.accept().unwrap();
            loop {
                match chan.recv() {
                    Ok(frame) => {
                        let mut reply = frame.clone();
                        reply.reverse();
                        chan.send(&reply).unwrap();
                    }
                    Err(e) => {
                        assert!(e.is_disconnect());
                        break;
                    }
                }
            }
        });
        {
            let mut client = t2.connect(&addr_owned).unwrap();
            client.send(b"hello").unwrap();
            assert_eq!(client.recv().unwrap(), b"olleh");
            // Large frame crosses any internal buffer boundaries.
            let big = vec![7u8; 1_000_000];
            client.send(&big).unwrap();
            assert_eq!(client.recv().unwrap().len(), big.len());
            // A pre-framed message (length prefix in place) arrives the same
            // as a plain send.
            let mut framed = 5u32.to_le_bytes().to_vec();
            framed.extend_from_slice(b"world");
            client.send_framed(&framed).unwrap();
            assert_eq!(client.recv().unwrap(), b"dlrow");
            // recv_timeout with no pending data returns None.
            assert!(client
                .recv_timeout(Duration::from_millis(30))
                .unwrap()
                .is_none());
            // A zero timeout is a poll: with nothing pending it returns
            // `None` at once. Run beside a watchdog, so that a transport
            // that waits for the next frame instead fails, not hangs.
            let (polled, watchdog) = std::sync::mpsc::channel();
            let poller = std::thread::spawn(move || {
                let got = client.recv_timeout(Duration::ZERO).map(|f| f.is_none());
                polled.send(()).ok();
                (client, got)
            });
            watchdog
                .recv_timeout(Duration::from_secs(5))
                .expect("a zero-timeout receive waited for a frame");
            let (mut client, got) = poller.join().unwrap();
            assert!(got.unwrap(), "nothing was pending");
            // A frame that is pending is polled off whole, and a receive
            // after a poll waits again.
            client.send(b"poll").unwrap();
            let until = std::time::Instant::now() + Duration::from_secs(5);
            let reply = loop {
                if let Some(reply) = client.recv_timeout(Duration::ZERO).unwrap() {
                    break reply;
                }
                assert!(std::time::Instant::now() < until, "the reply never came");
                std::thread::yield_now();
            };
            assert_eq!(reply, b"llop");
            client.send(b"wait").unwrap();
            assert_eq!(client.recv().unwrap(), b"tiaw");
        } // client drops: server sees a disconnect
        server.join().unwrap();
    }

    #[test]
    fn tcp_round_trip_and_disconnect() {
        let t: Arc<dyn Transport> = Arc::new(TcpTransport::new(Metrics::new()));
        exercise(t, "127.0.0.1:0");
    }

    #[test]
    fn inmem_round_trip_and_disconnect() {
        let t: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
        exercise(t, "site-a");
    }

    #[test]
    fn connect_to_missing_listener_fails() {
        let t = InMemNetwork::new(Metrics::new());
        assert!(t.connect("nobody-home").is_err());
    }

    #[test]
    fn message_metrics_are_counted() {
        let metrics = Metrics::new();
        let t: Arc<dyn Transport> = Arc::new(InMemNetwork::new(metrics.clone()));
        let listener = t.listen("m").unwrap();
        let mut c = t.connect("m").unwrap();
        let mut s = listener.accept().unwrap();
        c.send(b"abc").unwrap();
        assert_eq!(s.recv().unwrap(), b"abc");
        assert_eq!(metrics.messages_sent(), 1);
        assert_eq!(metrics.bytes_sent(), 7, "3 payload bytes + 4 framing");
    }
}
