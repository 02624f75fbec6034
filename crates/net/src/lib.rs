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
//! for it. A connection that is merely silent — a partition — never closes,
//! so there is no untimed receive: [`Channel::recv_timeout`] is the only
//! one, and a site waiting for a peer's reply does so through
//! `harbor_dist::next_frame`, which treats silence past its deadline as a
//! failed peer. A pooled connection
//! whose peer went away while it idled is found out *before* it carries the
//! next frame ([`Channel::is_closed`]): over TCP the write would succeed
//! and the loss show only at the read, too late to send that frame again.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod inmem;
pub mod serve;
pub mod tcp;

pub use chaos::ChaosTransport;
pub use inmem::InMemNetwork;
pub use serve::{recv_or_stop, serve_connections};
pub use tcp::TcpTransport;

use harbor_common::{DbError, DbResult};
use std::time::Duration;

/// One bidirectional, framed, ordered byte channel (a "connection").
pub trait Channel: Send {
    /// Sends one frame, its payload without the length prefix. Blocks until
    /// handed to the transport. The frame is moved, never copied: the
    /// in-memory transport queues this very buffer, and TCP writes the
    /// prefix and the payload with one vectored write.
    fn send(&mut self, frame: Vec<u8>) -> DbResult<()>;

    /// Receives the next frame, waiting at most `timeout` for it to begin:
    /// `Ok(None)` when none has, `Err` with `is_disconnect() == true` when
    /// the peer has closed. A zero timeout is a poll. There is no untimed
    /// receive: a partitioned peer never closes its socket, so every wait is
    /// bounded, and a wait for a peer's reply is `harbor_dist::next_frame`.
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

/// Accepts inbound connections at one address. As with receiving, there is
/// no untimed wait.
pub trait Listener: Send + Sync {
    /// The next inbound connection, waiting at most `timeout` for it:
    /// `Ok(None)` when none came.
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
pub(crate) mod tests {
    use super::*;
    use harbor_common::Metrics;
    use std::sync::Arc;

    /// A test's receive: the next frame within ten seconds, or the error of
    /// a closed peer. A frame that never comes is an error that is no
    /// disconnect, so it fails the test instead of hanging it.
    pub(crate) trait RecvWithin {
        fn recv_within(&mut self) -> DbResult<Vec<u8>>;
    }

    impl<C: Channel + ?Sized> RecvWithin for C {
        fn recv_within(&mut self) -> DbResult<Vec<u8>> {
            self.recv_timeout(Duration::from_secs(10))?
                .ok_or_else(|| DbError::internal("no frame within 10 s"))
        }
    }

    /// A test's accept: the next connection within ten seconds, or a panic.
    pub(crate) fn accept_within(listener: &(impl Listener + ?Sized)) -> Box<dyn Channel> {
        listener
            .accept_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("no connection within 10 s")
    }

    /// Exercises one transport implementation through the trait object
    /// surface (both impls must pass identically).
    fn exercise(transport: Arc<dyn Transport>, addr: &str) {
        let listener = transport.listen(addr).unwrap();
        let addr_owned = listener.local_addr();
        let t2 = transport.clone();
        let server = std::thread::spawn(move || {
            let mut chan = accept_within(listener.as_ref());
            loop {
                match chan.recv_within() {
                    Ok(mut reply) => {
                        reply.reverse();
                        chan.send(reply).unwrap();
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
            client.send(b"hello".to_vec()).unwrap();
            assert_eq!(client.recv_within().unwrap(), b"olleh");
            // Large frame crosses any internal buffer boundaries.
            client.send(vec![7u8; 1_000_000]).unwrap();
            assert_eq!(client.recv_within().unwrap().len(), 1_000_000);
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
            client.send(b"poll".to_vec()).unwrap();
            let until = std::time::Instant::now() + Duration::from_secs(5);
            let reply = loop {
                if let Some(reply) = client.recv_timeout(Duration::ZERO).unwrap() {
                    break reply;
                }
                assert!(std::time::Instant::now() < until, "the reply never came");
                std::thread::yield_now();
            };
            assert_eq!(reply, b"llop");
            client.send(b"wait".to_vec()).unwrap();
            assert_eq!(client.recv_within().unwrap(), b"tiaw");
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

    /// A frame is moved through the transport, never copied: it arrives as
    /// the allocation that was sent, on the in-memory transport and through
    /// a chaos layer whose plan is off.
    #[test]
    fn a_sent_frame_arrives_as_the_same_allocation() {
        use harbor_common::fault::{FaultConfig, FaultPlan};
        let inmem: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(1)));
        let chaos: Arc<dyn Transport> =
            Arc::new(ChaosTransport::new(inmem.clone(), plan, Metrics::new()));
        for (t, addr) in [(inmem, "plain"), (chaos, "chaos")] {
            let listener = t.listen(addr).unwrap();
            let mut client = t.connect(addr).unwrap();
            let mut server = accept_within(listener.as_ref());
            // Spare capacity, so that a copy differs in it as well.
            let mut frame = Vec::with_capacity(512);
            frame.extend_from_slice(&[5u8; 300]);
            let sent = (frame.as_ptr(), frame.capacity());
            client.send(frame).unwrap();
            let got = server.recv_within().unwrap();
            assert_eq!((got.as_ptr(), got.capacity()), sent, "{addr}: copied");
        }
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
        let mut s = accept_within(listener.as_ref());
        c.send(b"abc".to_vec()).unwrap();
        assert_eq!(s.recv_within().unwrap(), b"abc");
        assert_eq!(metrics.messages_sent(), 1);
        assert_eq!(metrics.bytes_sent(), 7, "3 payload bytes + 4 framing");
    }
}
