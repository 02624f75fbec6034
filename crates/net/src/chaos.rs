//! Fault injection for any [`Transport`], decided by the cluster's
//! [`FaultPlan`].
//!
//! [`ChaosTransport`] decorates an inner transport (InMem or TCP) and asks
//! the plan about every frame a wrapped channel *sends*: it may be dropped,
//! delayed or cut off with its link, or blackholed by a partition between
//! site groups. What belongs to the network stays here: the identity
//! preamble, the link names, each channel's send counter `seq`, and the
//! partitions. A decision is a pure function of `(seed, link, seq)`, where
//! the link name carries an `ordinal` that numbers the channels dialed on a
//! directed link in creation order (a session's reply direction, `#rN`,
//! takes its dialer's) — never of wall-clock time — so the same seed replays
//! the identical fault trace (sorted by `(link, seq)`, a total order), and a
//! failing soak seed reproduces from the log. The coordinator
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
//! Fault semantics on an ordered stream (the transports model TCP, §6.1.6,
//! and the RPC layer above assumes its exactly-once framing):
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
//!
//! Identity: partitions are expressed between *site groups*, so the chaos
//! layer must know which site each channel belongs to. Cluster code obtains
//! a per-site view via [`ChaosTransport::for_site`]; on `connect` the
//! wrapper sends one control-plane identity frame (exempt from faults) so
//! the accepting side learns the remote's name and the session's ordinal.

use crate::{closed, Channel, Listener, Transport};
use harbor_common::fault::{Effect, Fault, FaultPlan};
use harbor_common::{DbResult, Metrics, SiteId};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Magic prefix of the control-plane identity frame sent on connect.
const ID_MAGIC: &[u8] = b"HARBOR-CHAOS-ID\x02";

/// How long an accepting side waits for the identity frame before treating
/// the peer as anonymous.
const ID_WAIT: Duration = Duration::from_secs(2);

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
    plan: Arc<FaultPlan>,
    partitions: Mutex<Vec<Partition>>,
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
}

/// Fault-injecting decorator around any [`Transport`]. Cheap to clone via
/// [`ChaosTransport::for_site`]; all clones share the plan, the partition
/// set and the link ordinals, and double as the control handle
/// (partition/heal).
#[derive(Clone)]
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    state: Arc<ChaosState>,
    /// The site whose sends this view's channels are; the plan's switch is
    /// per site.
    site: SiteId,
    /// Site name stamped on outbound connections; empty = anonymous.
    identity: String,
}

impl ChaosTransport {
    /// The control handle of a chaos network over `inner`, deciding by
    /// `plan`. Its own channels are anonymous, as site 0's.
    pub fn new(inner: Arc<dyn Transport>, plan: Arc<FaultPlan>, metrics: Metrics) -> Self {
        ChaosTransport {
            inner,
            state: Arc::new(ChaosState {
                plan,
                partitions: Mutex::new(Vec::new()),
                metrics,
                link_ordinals: Mutex::new(HashMap::new()),
            }),
            site: SiteId(0),
            identity: String::new(),
        }
    }

    /// A view of the same chaos network whose outbound connections identify
    /// themselves as `name` (so partitions involving `name` apply to them)
    /// and whose sends are `site`'s.
    pub fn for_site(&self, site: SiteId, name: &str) -> ChaosTransport {
        ChaosTransport {
            inner: self.inner.clone(),
            state: self.state.clone(),
            site,
            identity: name.to_string(),
        }
    }

    /// Installs a partition between site groups `a` and `b`. Asymmetric
    /// partitions block only `a → b`; symmetric ones block both directions.
    /// Frames crossing a blocked link are silently blackholed — the channel
    /// never closes, so only liveness deadlines detect the peer. A partition
    /// holds only while the plan is on.
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
            site: self.site,
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
        chan.send(frame)?;
        Ok(Box::new(ChaosChannel::new(
            chan,
            self.state.clone(),
            self.site,
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
    site: SiteId,
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
            self.site,
            local,
            remote,
            ordinal,
            pending,
        )))
    }
}

impl Listener for ChaosListener {
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

struct ChaosChannel {
    /// `None` once the chaos layer severed the link.
    inner: Option<Box<dyn Channel>>,
    state: Arc<ChaosState>,
    site: SiteId,
    /// Directed link label, `"local->remote"` (empty names = anonymous).
    local: String,
    remote: String,
    link: String,
    /// Sends decided on this channel so far (the plan advances it).
    seq: u64,
    /// First frame from a non-chaos peer, captured while looking for the
    /// identity preamble.
    pending: Option<Vec<u8>>,
}

impl ChaosChannel {
    fn new(
        inner: Box<dyn Channel>,
        state: Arc<ChaosState>,
        site: SiteId,
        local: String,
        remote: String,
        ordinal: String,
        pending: Option<Vec<u8>>,
    ) -> Self {
        // The ordinal keys this channel's slice of the fault plan.
        let link = format!("{local}->{remote}#{ordinal}");
        ChaosChannel {
            inner: Some(inner),
            state,
            site,
            local,
            remote,
            link,
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

    /// Asks the plan about one outbound frame, counts and applies its
    /// decision — sleeps a delay, severs the link on a drop or a
    /// disconnect — and returns the channel to deliver it on, or `None` to
    /// swallow it.
    fn admit(&mut self) -> DbResult<Option<&mut Box<dyn Channel>>> {
        if self.inner.is_none() {
            return Err(closed(&self.peer_label()));
        }
        let send = Effect::Send {
            link: &self.link,
            seq: &mut self.seq,
            blocked: self.state.blocked(&self.local, &self.remote),
        };
        let metrics = &self.state.metrics;
        match self.state.plan.decide(self.site, send) {
            Fault::Blackhole => {
                metrics.add_chaos_partition_drops(1);
                return Ok(None);
            }
            Fault::Disconnect => {
                metrics.add_chaos_disconnects(1);
                self.inner = None;
                return Err(closed(&self.peer_label()));
            }
            Fault::Drop => {
                metrics.add_chaos_drops(1);
                self.inner = None; // loss on an ordered stream ⇒ reset (see module docs)
            }
            Fault::Delay(d) => {
                metrics.add_chaos_delays(1);
                std::thread::sleep(d);
            }
            _ => {}
        }
        Ok(self.inner.as_mut())
    }
}

impl Channel for ChaosChannel {
    fn send(&mut self, frame: Vec<u8>) -> DbResult<()> {
        match self.admit()? {
            Some(inner) => inner.send(frame),
            None => Ok(()),
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
    use crate::tests::{accept_within, RecvWithin};
    use crate::InMemNetwork;
    use harbor_common::fault::FaultConfig;

    type ChaosPair = (
        ChaosTransport,
        Arc<FaultPlan>,
        Box<dyn Listener>,
        Box<dyn Channel>,
        Box<dyn Channel>,
    );

    /// A chaos network deciding by `cfg`, switched on, and one session
    /// from `site-a` to `site-b`.
    fn chaos_pair(cfg: FaultConfig) -> ChaosPair {
        let base: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
        let plan = Arc::new(FaultPlan::new(cfg));
        plan.set_enabled(true);
        let chaos = ChaosTransport::new(base, plan.clone(), Metrics::new());
        let listener = chaos
            .for_site(SiteId(2), "site-b")
            .listen("site-b")
            .unwrap();
        let client = chaos
            .for_site(SiteId(1), "site-a")
            .connect("site-b")
            .unwrap();
        let server = accept_within(listener.as_ref());
        (chaos, plan, listener, client, server)
    }

    #[test]
    fn identity_preamble_names_the_link() {
        let (_chaos, _plan, _l, mut client, mut server) = chaos_pair(FaultConfig::quiet(1));
        assert_eq!(server.peer(), "site-a");
        client.send(b"ping".to_vec()).unwrap();
        assert_eq!(server.recv_within().unwrap(), b"ping");
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(client.recv_within().unwrap(), b"pong");
        // The accepted side of a session is keyed by its dialer's ordinal,
        // whichever of two sessions is accepted first and whatever the
        // acceptor's site dials meanwhile.
        for reversed in [false, true] {
            let mut cfg = FaultConfig::quiet(1);
            (cfg.delay_per_mille, cfg.max_delay) = (1000, Duration::ZERO); // every send traced
            let (base, plan): (Arc<dyn Transport>, _) = (
                Arc::new(InMemNetwork::new(Metrics::new())),
                Arc::new(FaultPlan::new(cfg)),
            );
            plan.set_enabled(true);
            let chaos = ChaosTransport::new(base.clone(), plan.clone(), Metrics::new());
            let (a, b) = (
                chaos.for_site(SiteId(1), "site-a"),
                chaos.for_site(SiteId(2), "site-b"),
            );
            let (inner, state) = (base.listen("site-b").unwrap(), chaos.state.clone());
            let listener = ChaosListener {
                inner,
                state,
                site: SiteId(2),
            };
            let _a = a.listen("site-a");
            let _dialed = [0, 1].map(|_| a.connect("site-b").unwrap());
            let mut accepted = [0, 1].map(|_| accept_within(listener.inner.as_ref()));
            if reversed {
                accepted.reverse();
            }
            let mut own = b.connect("site-a").unwrap();
            let order = [["r0", "r1"], ["r1", "r0"]][usize::from(reversed)];
            for (chan, n) in accepted.into_iter().zip(order) {
                listener
                    .wrap(chan)
                    .unwrap()
                    .send(b"reply".to_vec())
                    .unwrap();
                let trace = plan.trace_canonical();
                assert!(trace.contains(&format!("site-b->site-a#{n} #0")), "{trace}");
                plan.clear_trace();
            }
            own.send(b"own".to_vec()).unwrap();
            assert_eq!(plan.trace_canonical(), "delay(1us) site-b->site-a#0 #0\n");
        }
    }

    #[test]
    fn partitions_blackhole_without_closing() {
        let (chaos, plan, _l, mut client, mut server) = chaos_pair(FaultConfig::quiet(2));
        chaos.partition(&["site-a"], &["site-b"], false);
        // a → b blocked: the send "succeeds" but nothing arrives — the
        // liveness-deadline case.
        client.send(b"lost".to_vec()).unwrap();
        assert!(server
            .recv_timeout(Duration::from_millis(30))
            .unwrap()
            .is_none());
        // Asymmetric: b → a still flows.
        server.send(b"back".to_vec()).unwrap();
        assert_eq!(client.recv_within().unwrap(), b"back");
        // Symmetric blocks both directions.
        chaos.heal();
        chaos.partition(&["site-a"], &["site-b"], true);
        server.send(b"lost2".to_vec()).unwrap();
        assert!(client
            .recv_timeout(Duration::from_millis(30))
            .unwrap()
            .is_none());
        // Healing restores the link without reconnecting.
        chaos.heal();
        client.send(b"alive".to_vec()).unwrap();
        assert_eq!(server.recv_within().unwrap(), b"alive");
        assert!(chaos.metrics().chaos_partition_drops() >= 2);
        assert!(plan.trace_canonical().starts_with("blackhole "));
    }

    #[test]
    fn drop_loses_frame_and_severs_link() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.drop_per_mille = 1000;
        let (chaos, _plan, _l, mut client, mut server) = chaos_pair(cfg);
        // The sender is not told at the faulted send itself...
        client.send(b"gone".to_vec()).unwrap();
        // ...but the receiver sees a reset instead of a silent gap, and the
        // sender learns at its next operation.
        assert!(server.recv_within().unwrap_err().is_disconnect());
        assert!(client.send(b"next".to_vec()).unwrap_err().is_disconnect());
        assert_eq!(chaos.metrics().chaos_drops(), 1);
    }

    #[test]
    fn disconnect_fails_the_send_itself() {
        let mut cfg = FaultConfig::quiet(5);
        cfg.disconnect_per_mille = 1000;
        let (chaos, _plan, _l, mut client, mut server) = chaos_pair(cfg);
        assert!(client.send(b"x".to_vec()).unwrap_err().is_disconnect());
        assert!(server.recv_within().unwrap_err().is_disconnect());
        assert_eq!(chaos.metrics().chaos_disconnects(), 1);
    }

    #[test]
    fn delays_deliver_late_but_intact() {
        let mut cfg = FaultConfig::quiet(6);
        cfg.delay_per_mille = 1000;
        cfg.max_delay = Duration::from_micros(500);
        let (chaos, _plan, _l, mut client, mut server) = chaos_pair(cfg);
        for i in 0..10u8 {
            client.send(vec![i]).unwrap();
            assert_eq!(server.recv_within().unwrap(), vec![i]);
        }
        assert_eq!(chaos.metrics().chaos_delays(), 10);
    }

    #[test]
    fn disabled_chaos_is_a_clean_passthrough() {
        let mut cfg = FaultConfig::quiet(7);
        cfg.drop_per_mille = 1000;
        cfg.disconnect_per_mille = 1000;
        let (chaos, plan, _l, mut client, mut server) = chaos_pair(cfg);
        plan.set_enabled(false);
        chaos.partition(&["site-a"], &["site-b"], true);
        for i in 0..20u8 {
            client.send(vec![i]).unwrap();
            assert_eq!(server.recv_within().unwrap(), vec![i]);
        }
        assert!(plan.trace_canonical().is_empty());
    }

    /// The determinism contract: the same seed over the same logical message
    /// sequence yields a byte-identical canonical fault trace, regardless of
    /// timing.
    #[test]
    fn same_seed_replays_identical_fault_trace() {
        fn run(seed: u64) -> String {
            let base: Arc<dyn Transport> = Arc::new(InMemNetwork::new(Metrics::new()));
            let mut cfg = FaultConfig::lossy_lan(seed);
            cfg.max_delay = Duration::from_micros(100);
            let plan = Arc::new(FaultPlan::new(cfg));
            plan.set_enabled(true);
            let chaos = ChaosTransport::new(base, plan.clone(), Metrics::new());
            let listener = chaos
                .for_site(SiteId(2), "site-b")
                .listen("site-b")
                .unwrap();
            let sink = std::thread::spawn(move || {
                while let Ok(Some(mut chan)) = listener.accept_timeout(Duration::from_millis(200)) {
                    while chan.recv_within().is_ok() {}
                }
            });
            for conn in 0..20 {
                let mut c = chaos
                    .for_site(SiteId(1), "site-a")
                    .connect("site-b")
                    .unwrap();
                for msg in 0..10 {
                    if c.send(format!("m{conn}-{msg}").into_bytes()).is_err() {
                        break; // severed by a fault; next connection continues
                    }
                }
            }
            sink.join().unwrap();
            plan.trace_canonical()
        }
        let a = run(1234);
        let b = run(1234);
        assert!(!a.is_empty(), "lossy profile should fault something");
        assert_eq!(a, b, "fault trace must replay byte-identically");
        let c = run(99);
        assert_ne!(a, c, "different seeds should differ");
    }
}
