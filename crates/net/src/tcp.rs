//! TCP transport: length-prefixed frames over `std::net` sockets,
//! thread-per-connection, exactly the shape of the thesis implementation
//! (§6.1.6).

use crate::{closed, Channel, Listener, Transport};
use harbor_common::config::{MAX_FRAME_BYTES, PAGE_SIZE};
use harbor_common::{DbError, DbResult, Metrics};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Real-socket transport. Addresses are `host:port`; binding to port 0
/// picks a free port (read it back via [`Listener::local_addr`]).
pub struct TcpTransport {
    metrics: Metrics,
}

impl TcpTransport {
    pub fn new(metrics: Metrics) -> Self {
        TcpTransport { metrics }
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        let listener =
            TcpListener::bind(addr).map_err(|e| DbError::net(format!("bind {addr}: {e}")))?;
        Ok(Box::new(TcpListenerWrap::new(
            listener,
            self.metrics.clone(),
        )?))
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        let stream =
            TcpStream::connect(addr).map_err(|e| DbError::net(format!("connect {addr}: {e}")))?;
        Ok(Box::new(TcpChannel::new(
            stream,
            addr.to_string(),
            self.metrics.clone(),
        )))
    }
}

/// Connections handed from the acceptor thread to `accept`/`accept_timeout`
/// callers, plus the stop latch for shutdown.
struct AcceptState {
    ready: VecDeque<std::io::Result<(TcpStream, SocketAddr)>>,
    stopped: bool,
}

struct AcceptQueue {
    state: Mutex<AcceptState>,
    cv: Condvar,
}

/// A TCP listener with a dedicated blocking acceptor thread.
///
/// The thread sits in a *blocking* `accept` and hands connections over a
/// condvar-signalled queue, so `accept_timeout` is a single timed wait —
/// truly idle between connections — not a nonblocking sleep-poll, which
/// burns a core per idle listener.
struct TcpListenerWrap {
    local_addr: SocketAddr,
    queue: Arc<AcceptQueue>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    metrics: Metrics,
}

impl TcpListenerWrap {
    fn new(listener: TcpListener, metrics: Metrics) -> DbResult<Self> {
        let local_addr = listener
            .local_addr()
            .map_err(|e| DbError::net(format!("local_addr: {e}")))?;
        let queue = Arc::new(AcceptQueue {
            state: Mutex::new(AcceptState {
                ready: VecDeque::new(),
                stopped: false,
            }),
            cv: Condvar::new(),
        });
        let q = Arc::clone(&queue);
        let acceptor = std::thread::Builder::new()
            .name("tcp-acceptor".into())
            .spawn(move || loop {
                let got = listener.accept();
                let mut st = q.state.lock().unwrap_or_else(|p| p.into_inner());
                if st.stopped {
                    // Shutdown wake-up (or a late connection during drop):
                    // discard and exit; the listener closes with this thread.
                    return;
                }
                let fatal = got.is_err();
                if fatal {
                    // Surface the error to one consumer, close the listener
                    // for the rest; a broken listener must not spin this
                    // loop hot.
                    st.stopped = true;
                }
                st.ready.push_back(got);
                drop(st);
                q.cv.notify_all();
                if fatal {
                    return;
                }
            })
            .map_err(|e| DbError::net(format!("spawn acceptor: {e}")))?;
        Ok(TcpListenerWrap {
            local_addr,
            queue,
            acceptor: Some(acceptor),
            metrics,
        })
    }

    fn wrap(&self, stream: TcpStream, peer: SocketAddr) -> Box<dyn Channel> {
        Box::new(TcpChannel::new(
            stream,
            peer.to_string(),
            self.metrics.clone(),
        ))
    }

    fn take_ready(
        &self,
        got: std::io::Result<(TcpStream, SocketAddr)>,
    ) -> DbResult<Box<dyn Channel>> {
        match got {
            Ok((stream, peer)) => Ok(self.wrap(stream, peer)),
            Err(e) => Err(DbError::net(format!("accept: {e}"))),
        }
    }
}

impl Listener for TcpListenerWrap {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        let mut st = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(got) = st.ready.pop_front() {
                drop(st);
                return self.take_ready(got);
            }
            if st.stopped {
                return Err(DbError::net("accept: listener closed"));
            }
            st = self.queue.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn accept_timeout(&self, timeout: Duration) -> DbResult<Option<Box<dyn Channel>>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(got) = st.ready.pop_front() {
                drop(st);
                return self.take_ready(got).map(Some);
            }
            if st.stopped {
                return Err(DbError::net("accept: listener closed"));
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Ok(None);
            };
            let (guard, _timed_out) = self
                .queue
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    fn local_addr(&self) -> String {
        self.local_addr.to_string()
    }

    fn close(&self) {
        let mut st = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        st.stopped = true;
        drop(st);
        self.queue.cv.notify_all();
    }
}

impl Drop for TcpListenerWrap {
    fn drop(&mut self) {
        self.close();
        // The acceptor thread is parked in a blocking `accept`; a self-connect
        // is the portable way to wake it so it can observe `stopped` and exit.
        let mut target = self.local_addr;
        if target.ip().is_unspecified() {
            target.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let woke = TcpStream::connect_timeout(&target, Duration::from_millis(250)).is_ok();
        if let Some(h) = self.acceptor.take() {
            if woke {
                h.join().ok();
            }
            // If the wake-up connect failed (firewalled loopback, exhausted
            // fds) the thread is left parked rather than hanging this drop;
            // it exits on the next connection or at process end.
        }
    }
}

/// One end of a TCP connection: the socket and the receive mode it is in.
struct Socket {
    stream: TcpStream,
    peer: String,
    metrics: Metrics,
    /// The receive timeout as last set (`None`: reads block).
    timeout: Option<Duration>,
    /// Whether a zero-timeout poll left the socket non-blocking.
    nonblocking: bool,
}

/// A read that ran out of time, or found nothing to take without blocking.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl Socket {
    /// Puts the socket in the mode a wait for a frame's first byte wants:
    /// `None` blocks, zero polls, anything else times out. A mode costs a
    /// syscall only when it is not the one the socket is already in.
    fn wait_for(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let poll = timeout == Some(Duration::ZERO);
        if self.nonblocking != poll {
            self.stream.set_nonblocking(poll)?;
            self.nonblocking = poll;
        }
        if !poll && self.timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// One `recv`, counted (and made again if a signal interrupts it).
    fn recv(&self, into: &mut [u8]) -> std::io::Result<usize> {
        loop {
            self.metrics.add_socket_reads(1);
            match (&self.stream).read(into) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                got => return got,
            }
        }
    }

    /// Bytes of a frame already begun. The peer wrote the frame whole, so a
    /// read that times out, or finds nothing after a poll, waits on; the
    /// end of the stream or any error here is a connection gone mid-frame.
    fn recv_owed(&mut self, into: &mut [u8]) -> DbResult<usize> {
        loop {
            match self.recv(into) {
                Ok(0) => return Err(closed(&self.peer)),
                Ok(n) => return Ok(n),
                Err(e) if timed_out(&e) => {
                    if self.nonblocking {
                        self.wait_for(None).map_err(|_| closed(&self.peer))?;
                    }
                }
                Err(_) => return Err(closed(&self.peer)),
            }
        }
    }
}

struct TcpChannel {
    sock: Socket,
    /// Read-ahead: `buf[at..end]` came off the socket and is not handed out
    /// yet. A page, so that a frame of the common size arrives with its
    /// prefix in one `recv`; a larger frame is read into a buffer of its
    /// own size.
    buf: Box<[u8]>,
    at: usize,
    end: usize,
}

impl TcpChannel {
    fn new(stream: TcpStream, peer: String, metrics: Metrics) -> Self {
        stream.set_nodelay(true).ok();
        TcpChannel {
            sock: Socket {
                stream,
                peer,
                metrics,
                timeout: None,
                nonblocking: false,
            },
            buf: vec![0; PAGE_SIZE].into_boxed_slice(),
            at: 0,
            end: 0,
        }
    }

    /// The next frame. `timeout` bounds only the wait for its first byte
    /// (`None`: unbounded; zero: a poll). Once any of a frame has arrived
    /// the rest is waited for, so a timeout never leaves the stream
    /// mid-frame.
    fn read_frame(&mut self, timeout: Option<Duration>) -> DbResult<Option<Vec<u8>>> {
        if self.at == self.end {
            self.sock.wait_for(timeout)?;
            match self.sock.recv(&mut self.buf) {
                Ok(0) => return Err(closed(&self.sock.peer)),
                Ok(n) => (self.at, self.end) = (0, n),
                Err(e) if timed_out(&e) => return Ok(None),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::BrokenPipe
                    ) =>
                {
                    return Err(closed(&self.sock.peer));
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.buffer(4)?;
        let mut prefix = [0; 4];
        prefix.copy_from_slice(&self.buf[self.at..self.at + 4]);
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            // A hostile or corrupt 4-byte prefix must not size an allocation
            // (it can claim up to 4 GiB). The stream is desynced once the
            // prefix is untrusted, so this connection is done: corrupt
            // framing, not a timeout and not site death.
            return Err(DbError::corrupt(format!(
                "frame length {len} from {} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})",
                self.sock.peer
            )));
        }
        self.at += 4;
        if len <= self.buf.len() {
            self.buffer(len)?;
            let frame = self.buf[self.at..self.at + len].to_vec();
            self.at += len;
            return Ok(Some(frame));
        }
        let mut frame = vec![0; len];
        let mut filled = self.end - self.at;
        frame[..filled].copy_from_slice(&self.buf[self.at..self.end]);
        self.at = self.end;
        while filled < len {
            filled += self.sock.recv_owed(&mut frame[filled..])?;
        }
        Ok(Some(frame))
    }

    /// Reads until the read-ahead holds `n` bytes (no more than its size),
    /// moving what is left of it to the front first.
    fn buffer(&mut self, n: usize) -> DbResult<()> {
        if self.end - self.at >= n {
            return Ok(());
        }
        self.buf.copy_within(self.at..self.end, 0);
        (self.at, self.end) = (0, self.end - self.at);
        while self.end < n {
            self.end += self.sock.recv_owed(&mut self.buf[self.end..])?;
        }
        Ok(())
    }

    fn map_write_err(&self, e: std::io::Error) -> DbError {
        if matches!(
            e.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ) {
            closed(&self.sock.peer)
        } else {
            e.into()
        }
    }

    /// Writes header and payload with vectored I/O: the common case is one
    /// syscall for the whole frame instead of two `write_all` calls (which
    /// also defeats Nagle-off by emitting a 4-byte packet per message).
    fn write_frame_parts(&mut self, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
        let mut slices = [IoSlice::new(header), IoSlice::new(payload)];
        let mut bufs: &mut [IoSlice<'_>] = &mut slices;
        let mut remaining = header.len() + payload.len();
        while remaining > 0 {
            let n = match self.sock.stream.write_vectored(bufs) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            remaining -= n;
            if remaining > 0 {
                IoSlice::advance_slices(&mut bufs, n);
            }
        }
        Ok(())
    }
}

impl Channel for TcpChannel {
    fn send(&mut self, frame: &[u8]) -> DbResult<()> {
        let len = (frame.len() as u32).to_le_bytes();
        match self.write_frame_parts(&len, frame) {
            Ok(()) => {
                self.sock.metrics.add_messages_sent(1);
                self.sock.metrics.add_bytes_sent(frame.len() as u64 + 4);
                Ok(())
            }
            Err(e) => Err(self.map_write_err(e)),
        }
    }

    fn send_framed(&mut self, frame: &[u8]) -> DbResult<()> {
        debug_assert!(frame.len() >= 4, "framed message missing its prefix");
        match self.sock.stream.write_all(frame) {
            Ok(()) => {
                self.sock.metrics.add_messages_sent(1);
                self.sock.metrics.add_bytes_sent(frame.len() as u64);
                Ok(())
            }
            Err(e) => Err(self.map_write_err(e)),
        }
    }

    fn recv(&mut self) -> DbResult<Vec<u8>> {
        loop {
            if let Some(frame) = self.read_frame(None)? {
                return Ok(frame);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>> {
        self.read_frame(Some(timeout))
    }

    fn peer(&self) -> String {
        self.sock.peer.clone()
    }

    fn is_closed(&self) -> bool {
        // Bytes read ahead that nobody asked for yet, or a non-blocking
        // peek that finds end-of-stream, a reset or such bytes: the
        // connection must not carry another exchange. An idle connection
        // that is open has nothing to read (`WouldBlock`).
        if self.at < self.end {
            return true;
        }
        let sock = &self.sock;
        if !sock.nonblocking && sock.stream.set_nonblocking(true).is_err() {
            return true;
        }
        sock.metrics.add_socket_reads(1);
        let idle = matches!(
            sock.stream.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == ErrorKind::WouldBlock
        );
        !(idle && (sock.nonblocking || sock.stream.set_nonblocking(false).is_ok()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind() -> (TcpTransport, Box<dyn Listener>, String) {
        let t = TcpTransport::new(Metrics::new());
        let l = t.listen("127.0.0.1:0").unwrap();
        let addr = l.local_addr();
        (t, l, addr)
    }

    #[test]
    fn hostile_length_prefix_never_allocates() {
        let (_t, l, addr) = bind();
        // A raw socket that claims a 4 GiB frame: the receiver must reject
        // the prefix as corrupt framing instead of sizing a buffer with it.
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let mut server = l.accept().unwrap();
        let err = server.recv().expect_err("oversized frame must be refused");
        assert!(err.is_corrupt(), "got {err}");
        assert!(err.to_string().contains("MAX_FRAME_BYTES"));
        // A frame just over the cap is refused too; at the cap it would be
        // allowed (the conformance tests push 1 MiB frames through).
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&((MAX_FRAME_BYTES as u32 + 1).to_le_bytes()))
            .unwrap();
        let mut server = l.accept().unwrap();
        assert!(server.recv().unwrap_err().is_corrupt());
    }

    #[test]
    fn is_closed_sees_what_a_write_would_not() {
        let (t, l, addr) = bind();
        let mut client = t.connect(&addr).unwrap();
        let mut server = l.accept().unwrap();
        assert!(!client.is_closed(), "open and idle");
        client.send(b"ping").unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
        server.send(b"pong").unwrap();
        // The check left the socket blocking: the timed read waits.
        assert_eq!(
            client
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap(),
            b"pong"
        );
        assert!(!client.is_closed());
        drop(server);
        // The FIN crosses loopback asynchronously.
        let seen = std::time::Instant::now() + Duration::from_secs(5);
        while !client.is_closed() {
            assert!(std::time::Instant::now() < seen, "close never seen");
            std::thread::yield_now();
        }
        // The very write that would have carried a frame still succeeds.
        assert!(client.send(b"lost").is_ok());
    }

    /// A frame of the common size costs one `recv` and, once the socket is
    /// in the wanted mode, no `setsockopt`; frames written back to back
    /// are read ahead, and a read-ahead frame costs nothing.
    #[test]
    fn a_frame_is_one_read() {
        let server_metrics = Metrics::new();
        let l = TcpTransport::new(server_metrics.clone())
            .listen("127.0.0.1:0")
            .unwrap();
        let mut client = TcpTransport::new(Metrics::new())
            .connect(&l.local_addr())
            .unwrap();
        let mut server = l.accept().unwrap();
        for i in 0..100u8 {
            client.send(&[i; 300]).unwrap();
            let frame = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.unwrap(), [i; 300]);
        }
        assert_eq!(server_metrics.socket_reads(), 100);
        let mut raw = TcpStream::connect(l.local_addr()).unwrap();
        let mut server = l.accept().unwrap();
        let two = [&3u32.to_le_bytes()[..], b"one", &3u32.to_le_bytes(), b"two"].concat();
        raw.write_all(&two).unwrap();
        let before = server_metrics.socket_reads();
        assert_eq!(server.recv().unwrap(), b"one");
        // The second frame came with the first: nobody has asked for it,
        // so the connection must not carry another exchange.
        assert!(server.is_closed());
        assert_eq!(server.recv().unwrap(), b"two");
        assert_eq!(server_metrics.socket_reads() - before, 1);
    }

    /// A timeout bounds only the wait for a frame's first byte: a frame that
    /// arrives in pieces slower than the timeout is still read whole, and
    /// a frame larger than the read-ahead gets a buffer of its own.
    #[test]
    fn a_timeout_never_splits_a_frame() {
        let (_t, l, addr) = bind();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let mut server = l.accept().unwrap();
        for len in [10usize, PAGE_SIZE - 4, PAGE_SIZE + 1, 3 * PAGE_SIZE] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frame = [&(len as u32).to_le_bytes()[..], &payload].concat();
            raw.write_all(&frame[..2]).unwrap();
            let writer = {
                let mut raw = raw.try_clone().unwrap();
                std::thread::spawn(move || {
                    for piece in [&frame[2..7], &frame[7..]] {
                        std::thread::sleep(Duration::from_millis(30));
                        raw.write_all(piece).unwrap();
                    }
                })
            };
            let got = server.recv_timeout(Duration::from_millis(5)).unwrap();
            assert_eq!(
                got.expect("a frame begun is waited for"),
                payload,
                "len {len}"
            );
            writer.join().unwrap();
        }
        assert!(server
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        drop(raw);
        assert!(server.recv().unwrap_err().is_disconnect());
    }

    #[test]
    fn accept_timeout_is_a_timed_wait_not_a_poll() {
        let (_t, l, addr) = bind();
        // Idle listener: returns None after the timeout.
        assert!(l
            .accept_timeout(Duration::from_millis(20))
            .unwrap()
            .is_none());
        // Pending connection: surfaced through the acceptor queue.
        let client = TcpStream::connect(&addr).unwrap();
        let got = l.accept_timeout(Duration::from_secs(5)).unwrap();
        assert!(got.is_some());
        drop(client);
    }

    #[test]
    fn dropping_listener_stops_acceptor_thread() {
        let (_t, l, addr) = bind();
        assert!(l
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        drop(l);
        // The port is released once the acceptor thread exits.
        assert!(
            TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(250)).is_err()
        );
    }
}
