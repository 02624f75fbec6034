//! In-memory transport: crossbeam-channel pipes with the same semantics as
//! the TCP transport (framing, blocking, close-as-failure), plus optional
//! injected per-message latency to model the paper's LAN in deterministic
//! benchmarks.

use crate::{closed, Channel, Listener, Transport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use harbor_common::{DbError, DbResult, Metrics};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

type Frame = Vec<u8>;

struct Registry {
    listeners: HashMap<String, Sender<InMemChannel>>,
}

/// A process-local "network" of named endpoints.
pub struct InMemNetwork {
    registry: Arc<Mutex<Registry>>,
    metrics: Metrics,
    /// Injected one-way latency per message (None = instantaneous).
    latency: Option<Duration>,
    /// Emulated link bandwidth in bytes/second: every `send` additionally
    /// sleeps `len / bandwidth`, charging wire time proportional to frame
    /// size (None = infinite bandwidth).
    bandwidth: Option<u64>,
}

impl InMemNetwork {
    pub fn new(metrics: Metrics) -> Self {
        InMemNetwork {
            registry: Arc::new(Mutex::new(Registry {
                listeners: HashMap::new(),
            })),
            metrics,
            latency: None,
            bandwidth: None,
        }
    }

    /// A network where every `send` sleeps `latency` first, modelling link
    /// delay (the figure harnesses use this to restore the paper's
    /// network/disk cost ratio).
    pub fn with_latency(metrics: Metrics, latency: Duration) -> Self {
        InMemNetwork {
            latency: Some(latency),
            ..InMemNetwork::new(metrics)
        }
    }

    /// A network with both link delay and finite bandwidth: each `send`
    /// sleeps `latency + frame_len / bytes_per_sec`, so bulk transfers
    /// (e.g. recovery catch-up scans) pay wire time proportional to the
    /// bytes shipped — each channel pair models its own full-duplex link,
    /// as on the paper's switched LAN.
    pub fn with_link(metrics: Metrics, latency: Duration, bytes_per_sec: u64) -> Self {
        InMemNetwork {
            latency: Some(latency),
            bandwidth: Some(bytes_per_sec.max(1)),
            ..InMemNetwork::new(metrics)
        }
    }
}

impl Transport for InMemNetwork {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        let (tx, rx) = unbounded();
        let mut reg = self.registry.lock();
        if reg.listeners.contains_key(addr) {
            return Err(DbError::net(format!("address {addr} already bound")));
        }
        reg.listeners.insert(addr.to_string(), tx);
        Ok(Box::new(InMemListener {
            addr: addr.to_string(),
            inbound: rx,
            registry: self.registry.clone(),
        }))
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        let tx = {
            let reg = self.registry.lock();
            reg.listeners
                .get(addr)
                .cloned()
                .ok_or_else(|| DbError::net(format!("no listener at {addr}")))?
        };
        let (a_tx, a_rx) = unbounded::<Frame>();
        let (b_tx, b_rx) = unbounded::<Frame>();
        let server_side = InMemChannel {
            peer: "client".to_string(),
            tx: b_tx,
            rx: a_rx,
            metrics: self.metrics.clone(),
            latency: self.latency,
            bandwidth: self.bandwidth,
        };
        let client_side = InMemChannel {
            peer: addr.to_string(),
            tx: a_tx,
            rx: b_rx,
            metrics: self.metrics.clone(),
            latency: self.latency,
            bandwidth: self.bandwidth,
        };
        tx.send(server_side)
            .map_err(|_| DbError::net(format!("listener at {addr} is gone")))?;
        Ok(Box::new(client_side))
    }
}

struct InMemListener {
    addr: String,
    inbound: Receiver<InMemChannel>,
    registry: Arc<Mutex<Registry>>,
}

impl Listener for InMemListener {
    fn accept_timeout(&self, timeout: Duration) -> DbResult<Option<Box<dyn Channel>>> {
        match self.inbound.recv_timeout(timeout) {
            Ok(c) => Ok(Some(Box::new(c))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(DbError::net("listener closed")),
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    /// Unbinds: with the registry's sender gone, the inbound queue reports
    /// `Disconnected` as soon as it is empty.
    fn close(&self) {
        self.registry.lock().listeners.remove(&self.addr);
    }
}

impl Drop for InMemListener {
    fn drop(&mut self) {
        self.close();
    }
}

struct InMemChannel {
    peer: String,
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    metrics: Metrics,
    latency: Option<Duration>,
    bandwidth: Option<u64>,
}

impl Channel for InMemChannel {
    fn send(&mut self, frame: Vec<u8>) -> DbResult<()> {
        let bytes = frame.len() as u64 + 4;
        let mut wire = self.latency.unwrap_or(Duration::ZERO);
        if let Some(bps) = self.bandwidth {
            wire += Duration::from_secs_f64(bytes as f64 / bps as f64);
        }
        if wire > Duration::ZERO {
            std::thread::sleep(wire);
        }
        self.tx.send(frame).map_err(|_| closed(&self.peer))?;
        self.metrics.add_messages_sent(1);
        self.metrics.add_bytes_sent(bytes);
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(f) => Ok(Some(f)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(closed(&self.peer)),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}
