//! Deterministic fault injection for any [`Transport`].
//!
//! [`ChaosTransport`] decorates an inner transport (InMem or TCP) and
//! perturbs every frame a wrapped channel *sends* according to a seeded
//! fault plan: message drop, duplicate delivery, extra delay, abrupt
//! mid-stream disconnect, and symmetric/asymmetric partitions between site
//! groups. Every decision is a pure function of `(seed, link, ordinal,
//! seq)` where `ordinal` numbers the channels dialed on a directed link in
//! creation order (a session's reply direction, `#rN`, takes its dialer's)
//! and `seq` is a per-channel logical event counter — never of wall-clock
//! time — so the same seed replays the identical fault trace (sorted by
//! `(link, seq)`, a total order), and a failing soak seed reproduces from
//! the log. The coordinator
//! keeps its sessions to a worker open across transactions, so `seq` runs
//! on through many of them and a long run samples deep into one channel's
//! plan. The ordinal is for the channel that comes *after* a fault: a
//! session severed by a drop, a disconnect or an expired deadline is never
//! reused, and its replacement must draw a fresh slice of the link's plan,
//! not replay from `seq` 0 the very prefix that has just cut the link —
//! which, the plan being a pure function, it would do for ever. (The same
//! goes for the short-lived channels recovery and consensus open.) Which
//! session carries which transaction is therefore part of the replayed
//! schedule: the coordinator leases sessions newest-first, which a serial
//! workload turns into one session per link.
//!
//! Fault semantics on an ordered stream (the transports model TCP, §6.1.6):
//!
//! * **partition** — the frame is silently blackholed and the channel stays
//!   open. The socket never closes, so only a liveness deadline
//!   ([`DbError::SiteUnavailable`]) can detect it — exactly the failure mode
//!   closed-connection detection (§5.5.1) is blind to.
//! * **drop** — the frame is lost *and the link is severed silently*: on a
//!   reliable ordered stream a gap without a reset is unrepresentable (TCP
//!   would retransmit), and letting a scan stream lose a middle batch would
//!   silently corrupt recovery. Drop therefore models "reset with in-flight
//!   loss": the sender learns at its next operation, the receiver sees a
//!   closed peer.
//! * **disconnect** — the link is severed immediately; the send itself
//!   returns a disconnect error. Models "reset without loss".
//! * **delay** — the frame is delivered after an extra seed-derived delay
//!   (≤ `max_delay`).
//! * **duplicate** — the frame is delivered twice. The RPC layer above
//!   assumes TCP's exactly-once framing, so soak profiles keep this off and
//!   it is exercised at this layer's unit tests; the sanctioned source of
//!   duplicates in the system is the idempotent-read retry path.
//!
//! Identity: partitions are expressed between *site groups*, so the chaos
//! layer must know which site each channel belongs to. Cluster code obtains
//! a per-site view via [`ChaosTransport::for_site`]; on `connect` the
//! wrapper sends one control-plane identity frame (exempt from faults) so
//! the accepting side learns the remote's name and the session's ordinal.

use crate::{closed, Channel, Listener, Transport};
use harbor_common::{splitmix64, DbResult, Metrics};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Magic prefix of the control-plane identity frame sent on connect.
const ID_MAGIC: &[u8] = b"HARBOR-CHAOS-ID\x02";

/// How long an accepting side waits for the identity frame before treating
/// the peer as anonymous.
const ID_WAIT: Duration = Duration::from_secs(2);

/// Seeded fault plan. All rates are per-mille (0..=1000) per sent frame.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Probability (‰) that a frame is lost and the link silently severed.
    pub drop_per_mille: u16,
    /// Probability (‰) that a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (‰) that a frame is delayed before delivery.
    pub delay_per_mille: u16,
    /// Upper bound on the injected delay (the actual delay is seed-derived
    /// in `1..=max_delay`).
    pub max_delay: Duration,
    /// Probability (‰) that the link is severed abruptly at a send.
    pub disconnect_per_mille: u16,
}

impl ChaosConfig {
    /// No per-frame faults; partitions and the identity plane still work.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay: Duration::from_millis(2),
            disconnect_per_mille: 0,
        }
    }

    /// A lossy-LAN profile: occasional loss/resets, frequent small delays.
    pub fn lossy_lan(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 5,
            dup_per_mille: 0,
            delay_per_mille: 100,
            max_delay: Duration::from_millis(2),
            disconnect_per_mille: 2,
        }
    }
}

/// What the chaos layer did to one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    Drop,
    Duplicate,
    Delay(Duration),
    Disconnect,
    PartitionBlocked,
}

/// One entry of the replayable fault trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Directed link, `"src->dst"`.
    pub link: String,
    /// Logical event counter of the faulted frame on its channel.
    pub seq: u64,
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FaultKind::Drop => write!(f, "drop {} #{}", self.link, self.seq),
            FaultKind::Duplicate => write!(f, "dup {} #{}", self.link, self.seq),
            FaultKind::Delay(d) => {
                write!(f, "delay({}us) {} #{}", d.as_micros(), self.link, self.seq)
            }
            FaultKind::Disconnect => write!(f, "disconnect {} #{}", self.link, self.seq),
            FaultKind::PartitionBlocked => write!(f, "blackhole {} #{}", self.link, self.seq),
        }
    }
}

/// A directed partition between two site groups; `symmetric` blocks both
/// directions.
#[derive(Clone, Debug)]
struct Partition {
    a: BTreeSet<String>,
    b: BTreeSet<String>,
    symmetric: bool,
}

impl Partition {
    fn blocks(&self, src: &str, dst: &str) -> bool {
        if src.is_empty() || dst.is_empty() {
            return false;
        }
        (self.a.contains(src) && self.b.contains(dst))
            || (self.symmetric && self.b.contains(src) && self.a.contains(dst))
    }
}

struct ChaosState {
    cfg: ChaosConfig,
    enabled: AtomicBool,
    partitions: Mutex<Vec<Partition>>,
    trace: Mutex<Vec<FaultRecord>>,
    metrics: Metrics,
    /// Next channel ordinal per directed link (see the module docs).
    link_ordinals: Mutex<HashMap<String, u64>>,
}

impl ChaosState {
    fn blocked(&self, src: &str, dst: &str) -> bool {
        self.partitions.lock().iter().any(|p| p.blocks(src, dst))
    }

    fn next_ordinal(&self, link: &str) -> u64 {
        let mut g = self.link_ordinals.lock();
        let n = g.entry(link.to_string()).or_insert(0);
        let ord = *n;
        *n += 1;
        ord
    }

    fn record(&self, link: &str, seq: u64, kind: FaultKind) {
        self.trace.lock().push(FaultRecord {
            link: link.to_string(),
            seq,
            kind,
        });
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-mille draw for fault stream `k` of event `(seed, link, seq)`: pure,
/// so fault decisions depend only on those coordinates.
fn draw(seed: u64, link_hash: u64, seq: u64, k: u64) -> u64 {
    splitmix64(seed ^ link_hash.rotate_left(17) ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ (k << 56))
}

/// Fault-injecting decorator around any [`Transport`]. Cheap to clone via
/// [`ChaosTransport::for_site`]; all clones share the fault plan, partition
/// set and trace, and double as the control handle (partition/heal/trace).
#[derive(Clone)]
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    state: Arc<ChaosState>,
    /// Site name stamped on outbound connections; empty = anonymous.
    identity: String,
}

impl ChaosTransport {
    pub fn new(inner: Arc<dyn Transport>, cfg: ChaosConfig, metrics: Metrics) -> Self {
        ChaosTransport {
            inner,
            state: Arc::new(ChaosState {
                cfg,
                enabled: AtomicBool::new(true),
                partitions: Mutex::new(Vec::new()),
                trace: Mutex::new(Vec::new()),
                metrics,
                link_ordinals: Mutex::new(HashMap::new()),
            }),
            identity: String::new(),
        }
    }

    /// A view of the same chaos network whose outbound connections identify
    /// themselves as `site` (so partitions involving `site` apply to them).
    pub fn for_site(&self, site: &str) -> ChaosTransport {
        ChaosTransport {
            inner: self.inner.clone(),
            state: self.state.clone(),
            identity: site.to_string(),
        }
    }

    /// Globally enables/disables fault injection (identity plumbing stays
    /// active). Disabled sends do not advance event counters.
    pub fn set_enabled(&self, on: bool) {
        self.state.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.state.enabled.load(Ordering::SeqCst)
    }

    /// Installs a partition between site groups `a` and `b`. Asymmetric
    /// partitions block only `a → b`; symmetric ones block both directions.
    /// Frames crossing a blocked link are silently blackholed — the channel
    /// never closes, so only liveness deadlines detect the peer.
    pub fn partition(&self, a: &[&str], b: &[&str], symmetric: bool) {
        self.state.partitions.lock().push(Partition {
            a: a.iter().map(|s| s.to_string()).collect(),
            b: b.iter().map(|s| s.to_string()).collect(),
            symmetric,
        });
    }

    /// `true` while any partition is installed.
    pub fn is_partitioned(&self) -> bool {
        !self.state.partitions.lock().is_empty()
    }

    /// Removes every installed partition.
    pub fn heal(&self) {
        self.state.partitions.lock().clear();
    }

    /// Copy of the fault trace so far.
    pub fn trace(&self) -> Vec<FaultRecord> {
        self.state.trace.lock().clone()
    }

    /// Canonical rendering of the fault trace: one line per fault, sorted by
    /// `(link, seq)` so the rendering is independent of benign cross-channel
    /// interleaving. Two runs of the same seed must produce byte-identical
    /// output.
    pub fn trace_canonical(&self) -> String {
        let mut t = self.trace();
        t.sort_by(|x, y| (&x.link, x.seq).cmp(&(&y.link, y.seq)));
        let mut out = String::new();
        for r in &t {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    pub fn clear_trace(&self) {
        self.state.trace.lock().clear();
    }

    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }
}

impl Transport for ChaosTransport {
    fn listen(&self, addr: &str) -> DbResult<Box<dyn Listener>> {
        let inner = self.inner.listen(addr)?;
        Ok(Box::new(ChaosListener {
            inner,
            state: self.state.clone(),
        }))
    }

    fn connect(&self, addr: &str) -> DbResult<Box<dyn Channel>> {
        let mut chan = self.inner.connect(addr)?;
        // Control-plane identity frame: exempt from faults so the fault plan
        // perturbs the protocol, not the instrumentation. A partitioned pair
        // can still connect — real SYNs may predate the partition; the
        // blackhole applies to every data frame that follows.
        let ordinal = self
            .state
            .next_ordinal(&format!("{}->{addr}", self.identity));
        let mut frame = ID_MAGIC.to_vec();
        frame.extend_from_slice(format!("{}#{ordinal}", self.identity).as_bytes());
        chan.send(&frame)?;
        Ok(Box::new(ChaosChannel::new(
            chan,
            self.state.clone(),
            self.identity.clone(),
            addr.to_string(),
            ordinal.to_string(),
            None,
        )))
    }
}

struct ChaosListener {
    inner: Box<dyn Listener>,
    state: Arc<ChaosState>,
}

impl ChaosListener {
    fn wrap(&self, mut chan: Box<dyn Channel>) -> DbResult<Box<dyn Channel>> {
        // Learn the remote identity and the dialer's ordinal from the
        // preamble, so no ordinal is drawn here to race the site's own
        // outbound channels. A peer that isn't chaos-wrapped sends data
        // immediately; hand that frame back untouched, the peer anonymous.
        let local = self.inner.local_addr();
        let (remote, ordinal, pending) = match chan.recv_timeout(ID_WAIT)? {
            Some(frame) if frame.starts_with(ID_MAGIC) => {
                let id = String::from_utf8_lossy(&frame[ID_MAGIC.len()..]).into_owned();
                let (remote, ordinal) = id.rsplit_once('#').unwrap_or((&id, ""));
                (remote.to_string(), format!("r{ordinal}"), None)
            }
            pending => {
                let ordinal = self.state.next_ordinal(&format!("{local}->"));
                (String::new(), ordinal.to_string(), pending)
            }
        };
        Ok(Box::new(ChaosChannel::new(
            chan,
            self.state.clone(),
            local,
            remote,
            ordinal,
            pending,
        )))
    }
}

impl Listener for ChaosListener {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        let chan = self.inner.accept()?;
        self.wrap(chan)
    }

    fn accept_timeout(&self, timeout: Duration) -> DbResult<Option<Box<dyn Channel>>> {
        match self.inner.accept_timeout(timeout)? {
            Some(chan) => Ok(Some(self.wrap(chan)?)),
            None => Ok(None),
        }
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }

    fn close(&self) {
        self.inner.close()
    }
}

/// What to do with one outbound frame.
enum SendAction {
    /// Forward to the inner channel (`dup` = deliver twice).
    Deliver { dup: bool },
    /// Pretend success without delivering (partition blackhole, or a drop
    /// that also severed the link).
    Swallow,
}

struct ChaosChannel {
    /// `None` once the chaos layer severed the link.
    inner: Option<Box<dyn Channel>>,
    state: Arc<ChaosState>,
    /// Directed link label, `"local->remote"` (empty names = anonymous).
    local: String,
    remote: String,
    link: String,
    link_hash: u64,
    /// Logical event counter; advances once per fault-eligible send.
    seq: u64,
    /// First frame from a non-chaos peer, captured while looking for the
    /// identity preamble.
    pending: Option<Vec<u8>>,
}

impl ChaosChannel {
    fn new(
        inner: Box<dyn Channel>,
        state: Arc<ChaosState>,
        local: String,
        remote: String,
        ordinal: String,
        pending: Option<Vec<u8>>,
    ) -> Self {
        // The ordinal keys this channel's slice of the fault plan.
        let link = format!("{local}->{remote}#{ordinal}");
        let link_hash = fnv1a(&link);
        ChaosChannel {
            inner: Some(inner),
            state,
            local,
            remote,
            link,
            link_hash,
            seq: 0,
            pending,
        }
    }

    fn peer_label(&self) -> String {
        if self.remote.is_empty() {
            match &self.inner {
                Some(c) => c.peer(),
                None => "unknown".to_string(),
            }
        } else {
            self.remote.clone()
        }
    }

    /// Applies the fault plan to one outbound frame: decides its fate,
    /// records the trace/metrics, sleeps injected delays, severs the link on
    /// drop/disconnect.
    fn decide_send(&mut self) -> DbResult<SendAction> {
        if !self.state.enabled.load(Ordering::SeqCst) {
            return Ok(SendAction::Deliver { dup: false });
        }
        let seq = self.seq;
        self.seq += 1;
        if self.state.blocked(&self.local, &self.remote) {
            self.state
                .record(&self.link, seq, FaultKind::PartitionBlocked);
            self.state.metrics.add_chaos_partition_drops(1);
            return Ok(SendAction::Swallow);
        }
        let cfg = &self.state.cfg;
        let hit = |k: u64, per_mille: u16| {
            draw(cfg.seed, self.link_hash, seq, k) % 1000 < per_mille as u64
        };
        if hit(0, cfg.disconnect_per_mille) {
            self.state.record(&self.link, seq, FaultKind::Disconnect);
            self.state.metrics.add_chaos_disconnects(1);
            self.inner = None;
            return Err(closed(&self.peer_label()));
        }
        if hit(1, cfg.drop_per_mille) {
            self.state.record(&self.link, seq, FaultKind::Drop);
            self.state.metrics.add_chaos_drops(1);
            self.inner = None; // loss on an ordered stream ⇒ reset (see module docs)
            return Ok(SendAction::Swallow);
        }
        if hit(2, cfg.delay_per_mille) {
            let span = cfg.max_delay.as_micros().max(1) as u64;
            let micros = draw(cfg.seed, self.link_hash, seq, 3) % span + 1;
            let d = Duration::from_micros(micros);
            self.state.record(&self.link, seq, FaultKind::Delay(d));
            self.state.metrics.add_chaos_delays(1);
            std::thread::sleep(d);
        }
        let dup = hit(4, cfg.dup_per_mille);
        if dup {
            self.state.record(&self.link, seq, FaultKind::Duplicate);
            self.state.metrics.add_chaos_dups(1);
        }
        Ok(SendAction::Deliver { dup })
    }
}

impl Channel for ChaosChannel {
    fn send(&mut self, frame: &[u8]) -> DbResult<()> {
        if self.inner.is_none() {
            return Err(closed(&self.peer_label()));
        }
        match self.decide_send()? {
            SendAction::Swallow => Ok(()),
            SendAction::Deliver { dup } => {
                let inner = self.inner.as_mut().expect("checked above");
                inner.send(frame)?;
                if dup {
                    inner.send(frame)?;
                }
                Ok(())
            }
        }
    }

    fn send_framed(&mut self, frame: &[u8]) -> DbResult<()> {
        if self.inner.is_none() {
            return Err(closed(&self.peer_label()));
        }
        match self.decide_send()? {
            SendAction::Swallow => Ok(()),
            SendAction::Deliver { dup } => {
                let inner = self.inner.as_mut().expect("checked above");
                inner.send_framed(frame)?;
                if dup {
                    inner.send_framed(frame)?;
                }
                Ok(())
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> DbResult<Option<Vec<u8>>> {
        if let Some(frame) = self.pending.take() {
            return Ok(Some(frame));
        }
        match &mut self.inner {
            Some(c) => c.recv_timeout(timeout),
            None => Err(closed(&self.peer_label())),
        }
    }

    fn peer(&self) -> String {
        self.peer_label()
    }

    fn is_closed(&self) -> bool {
        self.inner.as_ref().is_none_or(|c| c.is_closed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::RecvWithin;
    use crate::InMemNetwork;

    type ChaosPair = (
        ChaosTransport,
        Box<dyn Listener>,
        Box<dyn Channel>,
        Box<dyn Channel>,
    );

    fn chaos_pair(cfg: ChaosConfig) -> ChaosPair {
        let base: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
        let chaos = ChaosTransport::new(base, cfg, Metrics::new());
        let listener = chaos.listen("site-b").unwrap();
        let client = chaos.for_site("site-a").connect("site-b").unwrap();
        let server = listener.accept().unwrap();
        (chaos, listener, client, server)
    }

    #[test]
    fn identity_preamble_names_the_link() {
        let (_chaos, _l, mut client, mut server) = chaos_pair(ChaosConfig::quiet(1));
        assert_eq!(server.peer(), "site-a");
        client.send(b"ping").unwrap();
        assert_eq!(server.recv_within().unwrap(), b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(client.recv_within().unwrap(), b"pong");
        // The accepted side of a session is keyed by its dialer's ordinal,
        // whichever of two sessions is accepted first and whatever the
        // acceptor's site dials meanwhile.
        for reversed in [false, true] {
            let mut cfg = ChaosConfig::quiet(1);
            (cfg.delay_per_mille, cfg.max_delay) = (1000, Duration::ZERO); // every send traced
            let base: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
            let chaos = ChaosTransport::new(base.clone(), cfg, Metrics::new());
            let (inner, state) = (base.listen("site-b").unwrap(), chaos.state.clone());
            let (listener, _a) = (ChaosListener { inner, state }, chaos.listen("site-a"));
            let _dialed = [0, 1].map(|_| chaos.for_site("site-a").connect("site-b").unwrap());
            let mut accepted = [0, 1].map(|_| listener.inner.accept().unwrap());
            if reversed {
                accepted.reverse();
            }
            let mut own = chaos.for_site("site-b").connect("site-a").unwrap();
            for chan in accepted {
                listener.wrap(chan).unwrap().send(b"reply").unwrap();
            }
            own.send(b"own").unwrap();
            let links: Vec<String> = chaos.trace().into_iter().map(|r| r.link).collect();
            let order = [["r0", "r1", "0"], ["r1", "r0", "0"]][usize::from(reversed)];
            assert_eq!(links, order.map(|n| format!("site-b->site-a#{n}")));
        }
    }

    #[test]
    fn partitions_blackhole_without_closing() {
        let (chaos, _l, mut client, mut server) = chaos_pair(ChaosConfig::quiet(2));
        chaos.partition(&["site-a"], &["site-b"], false);
        // a → b blocked: the send "succeeds" but nothing arrives — the
        // liveness-deadline case.
        client.send(b"lost").unwrap();
        assert!(server
            .recv_timeout(Duration::from_millis(30))
            .unwrap()
            .is_none());
        // Asymmetric: b → a still flows.
        server.send(b"back").unwrap();
        assert_eq!(client.recv_within().unwrap(), b"back");
        // Symmetric blocks both directions.
        chaos.heal();
        chaos.partition(&["site-a"], &["site-b"], true);
        server.send(b"lost2").unwrap();
        assert!(client
            .recv_timeout(Duration::from_millis(30))
            .unwrap()
            .is_none());
        // Healing restores the link without reconnecting.
        chaos.heal();
        client.send(b"alive").unwrap();
        assert_eq!(server.recv_within().unwrap(), b"alive");
        assert!(chaos.metrics().chaos_partition_drops() >= 2);
        assert!(chaos
            .trace()
            .iter()
            .any(|r| r.kind == FaultKind::PartitionBlocked));
    }

    #[test]
    fn drop_loses_frame_and_severs_link() {
        let mut cfg = ChaosConfig::quiet(3);
        cfg.drop_per_mille = 1000;
        let (chaos, _l, mut client, mut server) = chaos_pair(cfg);
        // The sender is not told at the faulted send itself...
        client.send(b"gone").unwrap();
        // ...but the receiver sees a reset instead of a silent gap, and the
        // sender learns at its next operation.
        assert!(server.recv_within().unwrap_err().is_disconnect());
        assert!(client.send(b"next").unwrap_err().is_disconnect());
        assert_eq!(chaos.metrics().chaos_drops(), 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut cfg = ChaosConfig::quiet(4);
        cfg.dup_per_mille = 1000;
        let (chaos, _l, mut client, mut server) = chaos_pair(cfg);
        client.send(b"twice").unwrap();
        assert_eq!(server.recv_within().unwrap(), b"twice");
        assert_eq!(server.recv_within().unwrap(), b"twice");
        assert_eq!(chaos.metrics().chaos_dups(), 1);
    }

    #[test]
    fn disconnect_fails_the_send_itself() {
        let mut cfg = ChaosConfig::quiet(5);
        cfg.disconnect_per_mille = 1000;
        let (chaos, _l, mut client, mut server) = chaos_pair(cfg);
        assert!(client.send(b"x").unwrap_err().is_disconnect());
        assert!(server.recv_within().unwrap_err().is_disconnect());
        assert_eq!(chaos.metrics().chaos_disconnects(), 1);
    }

    #[test]
    fn delays_deliver_late_but_intact() {
        let mut cfg = ChaosConfig::quiet(6);
        cfg.delay_per_mille = 1000;
        cfg.max_delay = Duration::from_micros(500);
        let (chaos, _l, mut client, mut server) = chaos_pair(cfg);
        for i in 0..10u8 {
            client.send(&[i]).unwrap();
            assert_eq!(server.recv_within().unwrap(), vec![i]);
        }
        assert_eq!(chaos.metrics().chaos_delays(), 10);
    }

    #[test]
    fn disabled_chaos_is_a_clean_passthrough() {
        let mut cfg = ChaosConfig::quiet(7);
        cfg.drop_per_mille = 1000;
        cfg.disconnect_per_mille = 1000;
        let (chaos, _l, mut client, mut server) = chaos_pair(cfg);
        chaos.set_enabled(false);
        for i in 0..20u8 {
            client.send(&[i]).unwrap();
            assert_eq!(server.recv_within().unwrap(), vec![i]);
        }
        assert!(chaos.trace().is_empty());
    }

    /// The determinism contract: the same seed over the same logical message
    /// sequence yields a byte-identical canonical fault trace, regardless of
    /// timing.
    #[test]
    fn same_seed_replays_identical_fault_trace() {
        fn run(seed: u64) -> String {
            let base: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
            let mut cfg = ChaosConfig::lossy_lan(seed);
            cfg.dup_per_mille = 50;
            cfg.max_delay = Duration::from_micros(100);
            let chaos = ChaosTransport::new(base, cfg, Metrics::new());
            let listener = chaos.listen("site-b").unwrap();
            let sink = std::thread::spawn(move || {
                while let Ok(Some(mut chan)) = listener.accept_timeout(Duration::from_millis(200)) {
                    while chan.recv_within().is_ok() {}
                }
            });
            for conn in 0..20 {
                let mut c = chaos.for_site("site-a").connect("site-b").unwrap();
                for msg in 0..10 {
                    if c.send(format!("m{}-{}", conn, msg).as_bytes()).is_err() {
                        break; // severed by a fault; next connection continues
                    }
                }
            }
            sink.join().unwrap();
            chaos.trace_canonical()
        }
        let a = run(1234);
        let b = run(1234);
        assert!(!a.is_empty(), "lossy profile should fault something");
        assert_eq!(a, b, "fault trace must replay byte-identically");
        let c = run(99);
        assert_ne!(a, c, "different seeds should differ");
    }
}
