//! What the four workloads share: building a cluster, the client sessions
//! and their timed windows, report queries checked against the model, the
//! crash-and-recover step, and the replica check that ends every round.
//!
//! Everything goes through the public API of the crates under test; every
//! timer is an `Instant` read by this file.

use crate::gen::{Digest, Model, Query, TxnSpec};
use crate::trace::{spanned, Name, Tracer};
use harbor::{Cluster, ClusterConfig, RecoveryReport, TableSpec, TransportKind};
use harbor_common::{
    DbError, DbResult, DiskProfile, Metrics, MetricsSnapshot, SiteId, StorageConfig, Timestamp,
    Tuple,
};
use harbor_dist::{Coordinator, EpochCommitConfig, ProtocolKind, UpdateRequest};
use harbor_exec::{Expr, Operator, ReadMode, SeqScan};
use harbor_front::{FrontClient, FrontConfig, FrontHandler, FrontServer};
use harbor_net::{TcpTransport, Transport};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Load-generator threads and connections. The box has two cores; this is
/// a constant stamped into every result, not read from the machine, so a
/// result from another machine is comparable in shape.
pub const CLIENTS: usize = 2;

/// No cluster lives longer than this many transactions: the workers keep
/// the stack of every per-transaction connection thread mapped until they
/// stop (about six mappings per transaction with three workers), and the
/// process dies near ten thousand.
pub const MAX_TXNS_PER_CLUSTER: u64 = 5000;

/// Deadline budget sent with every front-door request. Far above any
/// latency seen, so a deadline reject is a failure, not a tuning effect.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A session stops after this many failed transactions. The workloads are
/// built so that none fails; if the cluster is wedged (every later
/// transaction timing out on a lock, say), the run must fail within
/// seconds, not hold its client for the rest of the schedule.
const GIVE_UP_AFTER: u64 = 8;

/// The worker that crashes in every round.
pub const VICTIM: SiteId = SiteId(1);

pub type Res<T> = Result<T, String>;

pub fn db<T>(r: DbResult<T>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

// ----------------------------------------------------------------------
// Cluster construction
// ----------------------------------------------------------------------

/// The sizes that define a workload's cluster; stamped into the README.
pub struct ClusterShape {
    pub protocol: ProtocolKind,
    pub workers: usize,
    pub pool_pages: usize,
    pub segment_pages: u32,
    pub disk: DiskProfile,
    /// Injected per-message latency and link bandwidth in bytes/second.
    pub lan: Option<(Duration, u64)>,
    pub epoch_commit: Option<EpochCommitConfig>,
    pub checkpoint_every: Option<Duration>,
    pub tables: &'static [&'static str],
}

pub fn build_cluster(dir: &Path, shape: &ClusterShape) -> Res<Cluster> {
    let mut cfg = ClusterConfig::new(shape.protocol, shape.workers);
    cfg.storage = StorageConfig {
        buffer_pool_pages: shape.pool_pages,
        segment_pages: shape.segment_pages,
        disk: shape.disk,
        lock_timeout: Duration::from_millis(500),
    };
    cfg.transport = TransportKind::InMem {
        latency: shape.lan.map(|(l, _)| l),
        bandwidth: shape.lan.map(|(_, b)| b),
    };
    cfg.epoch_commit = shape.epoch_commit;
    cfg.checkpoint_every = shape.checkpoint_every;
    for t in shape.tables {
        cfg.tables.push(TableSpec::paper_table(t));
    }
    db(Cluster::build(dir, cfg), "build cluster")
}

/// Appends already-committed versions to `table` on one site, bypassing
/// the commit protocol (the warehouse's bulk load). Returns rows loaded.
pub fn direct_load(
    cluster: &Cluster,
    site: SiteId,
    table: &str,
    rows: impl Iterator<Item = Tuple>,
    clock: u64,
) -> Res<u64> {
    let engine = db(cluster.engine(site), "engine of live site")?;
    let def = engine
        .table_def(table)
        .ok_or_else(|| format!("no table {table}"))?;
    let mut inserter = db(engine.recovered_inserter(def.id), "recovered_inserter")?;
    let mut n = 0;
    for row in rows {
        db(inserter.insert(&row), "direct load")?;
        n += 1;
    }
    drop(inserter);
    engine.advance_applied_clock(Timestamp(clock));
    Ok(n)
}

/// Checkpoints every live worker; returns each site's time in ms.
pub fn checkpoint_all(cluster: &Cluster) -> Res<Vec<f64>> {
    let mut ms = Vec::new();
    for site in cluster.worker_sites() {
        let engine = db(cluster.engine(site), "engine of live site")?;
        let t = Instant::now();
        db(engine.checkpoint(), "checkpoint")?;
        ms.push(secs(t) * 1e3);
    }
    Ok(ms)
}

// ----------------------------------------------------------------------
// Sessions: one closed-loop client each
// ----------------------------------------------------------------------

/// begin → update* → commit on the coordinator, each call in a span when
/// tracing. With a deadline this is the front door's handler contract:
/// checked before every step, expiry aborts.
fn coordinator_txn(
    coord: &Coordinator,
    ops: Vec<UpdateRequest>,
    deadline: Option<Instant>,
    tracer: Option<&Tracer>,
    client: usize,
    seq: u32,
) -> DbResult<Timestamp> {
    let check = |what: &str| match deadline {
        Some(d) if Instant::now() >= d => Err(harbor_front::admission::deadline_expired(what)),
        _ => Ok(()),
    };
    check("begin")?;
    let tid = spanned(tracer, Name::DistBegin, client, seq, || coord.begin())?;
    for op in ops {
        let r = check("update").and_then(|()| {
            spanned(tracer, Name::DistUpdate, client, seq, || {
                coord.update(tid, op)
            })
        });
        if let Err(e) = r {
            let _ = coord.abort(tid);
            return Err(e);
        }
    }
    if let Err(e) = check("commit") {
        let _ = coord.abort(tid);
        return Err(e);
    }
    spanned(tracer, Name::DistCommit, client, seq, || coord.commit(tid))
}

/// The benchmark's `FrontHandler` for traced rounds: the same steps as the
/// library's `Arc<Coordinator>` handler, each inside a span. Sessions own
/// one table each, which is how a request is matched to its client; a
/// closed-loop session has one request in flight, so counting per client
/// reproduces the client's own sequence numbers.
struct TracedHandler {
    coord: Arc<Coordinator>,
    tracer: Arc<Tracer>,
    client_of_table: HashMap<String, usize>,
    next_seq: Vec<AtomicU32>,
}

impl FrontHandler for TracedHandler {
    fn execute(&self, ops: Vec<UpdateRequest>, deadline: Instant) -> DbResult<Timestamp> {
        let client = ops
            .first()
            .and_then(|op| op.table())
            .and_then(|t| self.client_of_table.get(t))
            .copied()
            .ok_or_else(|| DbError::internal("request for a table no session owns"))?;
        let seq = self.next_seq[client].fetch_add(1, Ordering::Relaxed);
        let tracer = Some(&*self.tracer);
        spanned(tracer, Name::FrontExecute, client, seq, || {
            coordinator_txn(&self.coord, ops, Some(deadline), tracer, client, seq)
        })
    }
}

/// A front door on loopback TCP in front of the cluster's coordinator.
pub struct Front {
    pub server: FrontServer,
    pub transport: TcpTransport,
    pub addr: String,
    pub metrics: Metrics,
}

/// `session_tables[c]` is the table client `c` writes. Untraced rounds get
/// the library's own handler, so end-to-end numbers never pass through
/// benchmark code on the server side.
pub fn start_front(
    cluster: &Cluster,
    session_tables: &[&str],
    tracer: Option<&Arc<Tracer>>,
) -> Res<Front> {
    let metrics = Metrics::new();
    let transport = TcpTransport::new(Metrics::new());
    let listener = db(transport.listen("127.0.0.1:0"), "bind front door")?;
    let coord = cluster.coordinator().clone();
    let handler: Box<dyn FrontHandler> = match tracer {
        None => Box::new(coord),
        Some(t) => Box::new(TracedHandler {
            coord,
            tracer: t.clone(),
            client_of_table: session_tables
                .iter()
                .enumerate()
                .map(|(c, t)| (t.to_string(), c))
                .collect(),
            next_seq: session_tables.iter().map(|_| AtomicU32::new(0)).collect(),
        }),
    };
    let server = db(
        FrontServer::start(FrontConfig::default(), listener, handler, metrics.clone()),
        "start front door",
    )?;
    let addr = server.local_addr();
    Ok(Front {
        server,
        transport,
        addr,
        metrics,
    })
}

enum Conn {
    Front(FrontClient),
    Direct(Arc<Coordinator>),
}

pub struct Session<'a> {
    client: usize,
    table: String,
    seq: u32,
    conn: Conn,
    tracer: Option<&'a Tracer>,
}

impl<'a> Session<'a> {
    pub fn through_front(
        front: &Front,
        client: usize,
        table: &str,
        tracer: Option<&'a Tracer>,
    ) -> Res<Self> {
        let conn = db(
            FrontClient::connect(&front.transport, &front.addr, client as u64),
            "connect to front door",
        )?;
        Ok(Session {
            client,
            table: table.to_string(),
            seq: 0,
            conn: Conn::Front(conn),
            tracer,
        })
    }

    /// Calls the coordinator in-process: the front door is bypassed.
    pub fn direct(
        cluster: &Cluster,
        client: usize,
        table: &str,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        Session {
            client,
            table: table.to_string(),
            seq: 0,
            conn: Conn::Direct(cluster.coordinator().clone()),
            tracer,
        }
    }

    pub fn txn(&mut self, spec: &TxnSpec) -> DbResult<Timestamp> {
        let ops = spec.requests(&self.table);
        let (client, seq, tracer) = (self.client, self.seq, self.tracer);
        self.seq += 1;
        spanned(tracer, Name::ClientTxn, client, seq, || {
            match &mut self.conn {
                Conn::Front(c) => c.txn(&ops, REQUEST_DEADLINE),
                Conn::Direct(coord) => coordinator_txn(coord, ops, None, tracer, client, seq),
            }
        })
    }

    pub fn ping(&mut self) -> DbResult<()> {
        match &mut self.conn {
            Conn::Front(c) => c.ping(),
            Conn::Direct(_) => Ok(()),
        }
    }
}

/// One acknowledged transaction: how long the client waited for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    pub latency_ns: u64,
    /// Open loop only: when the request was due, on the window's clock, and
    /// how long after that it was sent.
    pub due_ns: u64,
    pub late_ns: u64,
}

/// What one session saw in one window.
#[derive(Default)]
pub struct Lane {
    pub acks: Vec<Ack>,
    /// Requests sent, acknowledged or not.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Lane {
    fn note(&mut self, r: DbResult<Timestamp>, ack: Ack) {
        self.attempted += 1;
        match r {
            Ok(_) => self.acks.push(ack),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// Open loop: the longest a request waited, from its due time, among
    /// those due or in flight at some moment of `from_ns..=to_ns` — what an
    /// event of that span cost the client it stalled.
    pub fn stall_ms(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.acks
            .iter()
            .filter(|a| a.due_ns <= to_ns && a.due_ns + a.latency_ns >= from_ns)
            .map(|a| a.latency_ns as f64 / 1e6)
            .fold(0.0, f64::max)
    }
}

/// Closed loop: the next transaction is sent when the reply to the
/// previous one has arrived. Runs `schedule` in order.
pub fn closed_loop(session: &mut Session, schedule: &[TxnSpec]) -> Lane {
    let mut lane = Lane::default();
    for spec in schedule {
        if lane.failed >= GIVE_UP_AFTER {
            break;
        }
        let t0 = Instant::now();
        let r = session.txn(spec);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        lane.note(
            r,
            Ack {
                latency_ns,
                due_ns: 0,
                late_ns: 0,
            },
        );
    }
    lane
}

/// A window of closed-loop sessions on their own threads, started together.
pub struct Window {
    pub lanes: Vec<Lane>,
    pub elapsed_s: f64,
}

impl Window {
    pub fn acked(&self) -> u64 {
        self.lanes.iter().map(|l| l.acks.len() as u64).sum()
    }
}

/// Every session runs its whole schedule, closed loop, in parallel.
pub fn run_window(sessions: &mut [Session], schedules: &[Vec<TxnSpec>]) -> Window {
    let barrier = Barrier::new(sessions.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(schedules)
            .map(|(session, schedule)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    closed_loop(session, schedule)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let lanes = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        Window {
            lanes,
            elapsed_s: secs(t0),
        }
    })
}

/// Open loop: request `i` is due at `due_ns[i]` whatever happened to the
/// ones before it. Latency counts from the due time, so the wait a stall
/// imposes on later requests is charged to them; `late_ns` is how far
/// behind its schedule the sender ran. `now` and `wait_until` are the
/// clock (ns since the window opened); `op(i)` performs request `i` and
/// `go()` is asked before each one.
pub fn open_loop(
    due_ns: &[u64],
    now: impl Fn() -> u64,
    wait_until: impl Fn(u64),
    mut op: impl FnMut(usize) -> DbResult<Timestamp>,
    go: impl Fn() -> bool,
) -> Lane {
    let mut lane = Lane::default();
    for (i, &due) in due_ns.iter().enumerate() {
        wait_until(due);
        if !go() {
            break;
        }
        let sent = now();
        let r = op(i);
        let done = now();
        lane.note(
            r,
            Ack {
                latency_ns: done.saturating_sub(due),
                due_ns: due,
                late_ns: sent.saturating_sub(due),
            },
        );
    }
    lane
}

/// Runs `work` on the calling thread while a writer on a thread of its own
/// performs request `i` (`send(i)`) open loop at `due[i]`; the writer stops
/// when `work` returns, or when its schedule ends: size that for a box
/// several times slower than usual. `work` is handed the window's clock (ns
/// since it opened), the one the due times are on. Returns the writer's
/// lane, what `work` returned, and how long the window was open.
pub fn beside_writer<T>(
    due: &[u64],
    send: impl FnMut(usize) -> DbResult<Timestamp> + Send,
    work: impl FnOnce(&dyn Fn() -> u64) -> T,
) -> (Lane, T, f64) {
    let working = AtomicBool::new(true);
    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    let (lane, out) = std::thread::scope(|scope| {
        let paced = scope.spawn(|| {
            open_loop(
                due,
                now,
                |t| std::thread::sleep(Duration::from_nanos(t.saturating_sub(now()))),
                send,
                || working.load(Ordering::Acquire),
            )
        });
        let out = work(&now);
        working.store(false, Ordering::Release);
        let lane = paced
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        (lane, out)
    });
    (lane, out, secs(clock))
}

// ----------------------------------------------------------------------
// Report queries
// ----------------------------------------------------------------------

fn digest_of(tuples: &[Tuple]) -> DbResult<Digest> {
    let mut d = Digest::default();
    for t in tuples {
        // Stored layout: insertion time, deletion time, then user fields.
        d.add(t.get(2).as_i64()?, t.get(3).as_i64()? as i32);
    }
    Ok(d)
}

/// Stored column 2 is the key.
pub fn predicate(q: &Query) -> Option<Expr> {
    match *q {
        Query::Full => None,
        Query::Filter { lo, hi } => Some(
            Expr::col(2)
                .ge(Expr::lit(lo))
                .and(Expr::col(2).lt(Expr::lit(hi))),
        ),
        Query::Point { key } => Some(Expr::col(2).eq(Expr::lit(key))),
    }
}

#[derive(Default)]
pub struct QueryTimes {
    pub full_ms: Vec<f64>,
    pub filter_ms: Vec<f64>,
    pub point_ms: Vec<f64>,
    /// Rows the workers looked at and rows returned, per query kind (full,
    /// filter, point); filled only when `examined` is given.
    pub examined: [u64; 3],
    pub returned: [u64; 3],
    pub failed: u64,
    pub first_error: Option<String>,
}

impl QueryTimes {
    pub fn attempted(&self) -> u64 {
        (self.full_ms.len() + self.filter_ms.len() + self.point_ms.len()) as u64 + self.failed
    }
}

/// Runs `queries` one after another through `Coordinator::read_historical`
/// at `as_of` and checks every answer against the model: a wrong answer is
/// a failed operation. Only the call is timed. `examined` reads the
/// workers' running count of rows looked at, around each call.
#[allow(clippy::too_many_arguments)]
pub fn run_queries(
    coord: &Coordinator,
    table: &str,
    as_of: Timestamp,
    queries: &[Query],
    model: &Model,
    tracer: Option<&Tracer>,
    lane: usize,
    examined: Option<&dyn Fn() -> u64>,
) -> QueryTimes {
    let expected: Vec<Digest> = queries.iter().map(|q| model.answer(q)).collect();
    let mut out = QueryTimes::default();
    for (i, q) in queries.iter().enumerate() {
        let pred = predicate(q);
        let kind = match q {
            Query::Full => 0,
            Query::Filter { .. } => 1,
            Query::Point { .. } => 2,
        };
        let before = examined.map_or(0, |f| f());
        let t0 = Instant::now();
        let result = spanned(tracer, Name::DistRead, lane, i as u32, || {
            coord.read_historical(table, as_of, |s| s.predicate = pred)
        });
        let ms = secs(t0) * 1e3;
        out.examined[kind] += examined.map_or(0, |f| f().saturating_sub(before));
        out.returned[kind] += expected[i].rows;
        let verdict = result
            .and_then(|tuples| digest_of(&tuples))
            .map_err(|e| e.to_string())
            .and_then(|got| {
                (got == expected[i])
                    .then_some(())
                    .ok_or_else(|| format!("{q:?} at {as_of}: got {got:?}, want {:?}", expected[i]))
            });
        match (verdict, q) {
            (Ok(()), Query::Full) => out.full_ms.push(ms),
            (Ok(()), Query::Filter { .. }) => out.filter_ms.push(ms),
            (Ok(()), Query::Point { .. }) => out.point_ms.push(ms),
            (Err(e), _) => {
                out.failed += 1;
                out.first_error.get_or_insert(e);
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Crash, recovery, and the replica check
// ----------------------------------------------------------------------

/// Times `Cluster::recover_worker_harbor` on the calling thread.
pub fn recover(
    cluster: &Cluster,
    tracer: Option<&Tracer>,
    lane: usize,
) -> Res<(f64, RecoveryReport)> {
    let t0 = Instant::now();
    let report = spanned(tracer, Name::CoreRecover, lane, 0, || {
        cluster.recover_worker_harbor(VICTIM)
    });
    let s = secs(t0);
    Ok((s, db(report, "recover_worker_harbor")?))
}

/// What one site holds of `table` at `as_of`, by a local scan.
pub fn site_digest(cluster: &Cluster, site: SiteId, table: &str, as_of: Timestamp) -> Res<Digest> {
    let engine = db(cluster.engine(site), "engine of live site")?;
    let def = engine
        .table_def(table)
        .ok_or_else(|| format!("no table {table}"))?;
    let scan = SeqScan::new(engine.pool().clone(), def.id, ReadMode::Historical(as_of));
    let mut scan = db(scan, "open scan")?;
    let mut d = Digest::default();
    db(scan.open(), "open scan")?;
    while let Some(t) = db(scan.next(), "scan")? {
        d.add(
            db(t.get(2).as_i64(), "key column")?,
            db(t.get(3).as_i64(), "payload column")? as i32,
        );
    }
    Ok(d)
}

/// The gate that ends every round: after quiesce, every replica of every
/// table — the recovered victim included — holds exactly the acknowledged
/// rows at `now - 1`: each key once, with its last acknowledged payload.
pub fn check_replicas(cluster: &Cluster, tables: &[(&str, &Model)]) -> Res<()> {
    let as_of = cluster.coordinator().authority().now().prev();
    let sites = cluster.worker_sites();
    for (table, model) in tables {
        let want = model.answer(&Query::Full);
        let mut held = Vec::new();
        for site in &sites {
            held.push((*site, site_digest(cluster, *site, table, as_of)?));
        }
        if held.iter().any(|(_, got)| *got != want) {
            return Err(format!(
                "replica check: {table} at {as_of}: acknowledged {want:?}, the replicas hold {held:?}"
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Counters, read from outside
// ----------------------------------------------------------------------

/// The program's own counters at one instant.
pub struct Counters {
    pub coord: MetricsSnapshot,
    pub net: MetricsSnapshot,
    pub workers: Vec<(SiteId, MetricsSnapshot)>,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Self {
        Counters {
            coord: cluster.coordinator().metrics().snapshot(),
            net: cluster.net_metrics().snapshot(),
            workers: cluster
                .worker_sites()
                .into_iter()
                .filter_map(|s| Some((s, cluster.worker_metrics(s).ok()?.snapshot())))
                .collect(),
        }
    }

    /// Growth of one worker counter since `earlier`, summed over the sites
    /// live at both instants. A site restarted in between starts from zero
    /// and contributes its whole count.
    pub fn workers_since(&self, earlier: &Counters, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.workers
            .iter()
            .map(|(site, now)| {
                let before = earlier
                    .workers
                    .iter()
                    .find(|(s, _)| s == site)
                    .map_or(0, |(_, m)| f(m));
                let now = f(now);
                if now >= before {
                    now - before
                } else {
                    now
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // Due every 10; the second request stalls for 35, so the third and
        // fourth are sent late and their latency counts from their due time.
        let due = [0, 10, 20, 30, 40];
        let service = [2, 35, 2, 2, 2];
        let clock = Cell::new(0u64);
        let lane = open_loop(
            &due,
            || clock.get(),
            |t| clock.set(clock.get().max(t)),
            |i| {
                clock.set(clock.get() + service[i]);
                Ok(Timestamp(1))
            },
            || true,
        );
        let got: Vec<(u64, u64)> = lane
            .acks
            .iter()
            .map(|a| (a.latency_ns, a.late_ns))
            .collect();
        assert!(lane.acks.iter().map(|a| a.due_ns).eq(due));
        // 1: sent 0, done 2. 2: sent 10, done 45. 3: due 20, sent 45, done
        // 47 → 27 (25 late). 4: due 30, sent 47, done 49 → 19 (17 late).
        // 5: due 40, sent 49, done 51 → 11 (9 late).
        assert_eq!(got, vec![(2, 0), (35, 0), (27, 25), (19, 17), (11, 9)]);
        assert_eq!((lane.attempted, lane.failed), (5, 0));
        // A closed loop would have reported 2 for each of the last three.
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_held_up() {
        let ack = |due_ns, latency_ns| Ack {
            latency_ns,
            due_ns,
            late_ns: 0,
        };
        let lane = Lane {
            // Due every 10 ms; an event from 25 to 40 ms holds up the
            // third request, and the fourth queues behind it.
            acks: vec![
                ack(0, 2_000_000),
                ack(10_000_000, 2_000_000),
                ack(20_000_000, 21_000_000),
                ack(30_000_000, 12_000_000),
                ack(50_000_000, 90_000_000),
            ],
            ..Lane::default()
        };
        assert_eq!(lane.stall_ms(25_000_000, 40_000_000), 21.0);
        // In flight when the span opens counts; done before it does not.
        assert_eq!(lane.stall_ms(12_500_000, 13_000_000), 0.0);
        assert_eq!(lane.stall_ms(11_000_000, 12_000_000), 2.0);
        assert_eq!(lane.stall_ms(200_000_000, 300_000_000), 0.0);
    }

    #[test]
    fn open_loop_counts_failures_and_stops_when_told() {
        let sent = Cell::new(0);
        let lane = open_loop(
            &[0, 1, 2, 3],
            || 0,
            |_| {},
            |i| {
                sent.set(sent.get() + 1);
                if i == 1 {
                    Err(DbError::internal("boom"))
                } else {
                    Ok(Timestamp(1))
                }
            },
            || sent.get() < 3,
        );
        assert_eq!((lane.attempted, lane.failed, lane.acks.len()), (3, 1, 2));
        assert!(lane.first_error.unwrap().contains("boom"));
    }

    #[test]
    fn worker_counter_growth_survives_a_restart() {
        let snap = |commits: u64| {
            let m = Metrics::new();
            m.add_commits(commits);
            m.snapshot()
        };
        let counters = |w: Vec<(u16, u64)>| Counters {
            coord: snap(0),
            net: snap(0),
            workers: w.into_iter().map(|(s, c)| (SiteId(s), snap(c))).collect(),
        };
        let before = counters(vec![(1, 100), (2, 100)]);
        // Site 1 restarted (fresh counters: 7), site 2 grew by 20, site 3 is new.
        let after = counters(vec![(1, 7), (2, 120), (3, 5)]);
        assert_eq!(after.workers_since(&before, |m| m.commits), 7 + 20 + 5);
    }
}
