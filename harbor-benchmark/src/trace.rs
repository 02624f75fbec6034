//! Benchmark-side spans: one around each client call, the benchmark's
//! `FrontHandler` wrapper, and each `Coordinator` call. Spans inside the
//! program are a later issue; these sit at the layer boundaries the
//! benchmark can reach from outside.
//!
//! Spans are kept in memory, one vector per client so recording never
//! contends, and written out when the run ends. A span's parent is the
//! narrowest span of the same request that encloses it in time; all
//! threads read one monotonic clock, so enclosure follows causality.

use std::io::Write;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `FrontClient::txn`, or the whole begin..commit of a direct stream.
    ClientTxn,
    /// The benchmark's `FrontHandler::execute` wrapper.
    FrontExecute,
    DistBegin,
    DistUpdate,
    DistCommit,
    /// `Coordinator::read_historical`.
    DistRead,
    /// `Cluster::recover_worker_harbor`.
    CoreRecover,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientTxn => "client.txn",
            Name::FrontExecute => "front.execute",
            Name::DistBegin => "dist.begin",
            Name::DistUpdate => "dist.update",
            Name::DistCommit => "dist.commit",
            Name::DistRead => "dist.read",
            Name::CoreRecover => "core.recover",
        }
    }
}

/// `(client, seq)` identifies the request every span of it shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub client: u16,
    pub seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// One lane per client id `0..lanes`.
    pub fn new(lanes: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            lanes: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, name: Name, client: usize, seq: u32, start_ns: u64) {
        let end_ns = self.now_ns();
        // A lane is only ever pushed to, so a panic elsewhere cannot leave it
        // invalid: a poisoned lock is still good.
        self.lanes[client]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                name,
                client: client as u16,
                seq,
                start_ns,
                end_ns,
            });
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.lock().unwrap_or_else(PoisonError::into_inner));
        }
        all
    }
}

/// Runs `f` inside a span when tracing is on, bare when it is off.
pub fn spanned<R>(
    tracer: Option<&Tracer>,
    name: Name,
    client: usize,
    seq: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let start = t.now_ns();
            let r = f();
            t.record(name, client, seq, start);
            r
        }
    }
}

/// Spans ordered by request, each with its parent and its self time: its
/// duration minus the part its children cover.
pub struct Analyzed {
    pub spans: Vec<Span>,
    pub parent: Vec<Option<usize>>,
    pub self_ns: Vec<u64>,
}

pub fn analyze(mut spans: Vec<Span>) -> Analyzed {
    // Within a request: outer spans before the spans they enclose.
    spans.sort_by_key(|s| (s.client, s.seq, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut parent = vec![None; spans.len()];
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let s = spans[i];
        while let Some(&top) = open.last() {
            let t = spans[top];
            let encloses = (t.client, t.seq) == (s.client, s.seq)
                && t.start_ns <= s.start_ns
                && s.end_ns <= t.end_ns;
            if encloses {
                break;
            }
            open.pop();
        }
        if let Some(&top) = open.last() {
            parent[i] = Some(top);
            self_ns[top] = self_ns[top].saturating_sub(s.end_ns - s.start_ns);
        }
        open.push(i);
    }
    Analyzed {
        spans,
        parent,
        self_ns,
    }
}

impl Analyzed {
    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: Name) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times of every span called `name`, in microseconds.
    pub fn self_us(&self, name: Name) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns[i] as f64 / 1e3)
            .collect()
    }

    /// Appends one JSON line per span. Ids are unique within `round`.
    pub fn write_jsonl(&self, out: &mut impl Write, round: usize) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = self.parent[i].map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"round\": {round}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"client\": {}, \"seq\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name.as_str(),
                s.client,
                s.seq,
                s.start_ns,
                s.end_ns,
                self.self_ns[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, client: u16, seq: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            client,
            seq,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // One request through the front door, recorded out of order, plus a
        // second request of another client overlapping it in time.
        let a = analyze(vec![
            span(Name::DistCommit, 0, 7, 60, 90),
            span(Name::DistBegin, 0, 7, 20, 30),
            span(Name::ClientTxn, 0, 7, 0, 100),
            span(Name::FrontExecute, 0, 7, 10, 95),
            span(Name::DistUpdate, 0, 7, 30, 55),
            span(Name::ClientTxn, 1, 7, 5, 50),
        ]);
        let at = |n: Name, c: u16| {
            (0..a.spans.len())
                .find(|&i| a.spans[i].name == n && a.spans[i].client == c)
                .unwrap()
        };
        let (txn, exec) = (at(Name::ClientTxn, 0), at(Name::FrontExecute, 0));
        assert_eq!(a.parent[txn], None);
        assert_eq!(a.parent[exec], Some(txn));
        for n in [Name::DistBegin, Name::DistUpdate, Name::DistCommit] {
            assert_eq!(a.parent[at(n, 0)], Some(exec), "{n:?}");
        }
        // client.txn: 100 - 85 of front.execute; front.execute: 85 - 10 - 25 - 30.
        assert_eq!(a.self_ns[txn], 15);
        assert_eq!(a.self_ns[exec], 20);
        assert_eq!(a.self_ns[at(Name::DistCommit, 0)], 30);
        // The other client's request is a root of its own.
        assert_eq!(a.parent[at(Name::ClientTxn, 1)], None);
        assert_eq!(a.self_ns[at(Name::ClientTxn, 1)], 45);
        assert_eq!(a.self_us(Name::ClientTxn), vec![0.015, 0.045]);
        assert_eq!(a.durations_us(Name::FrontExecute), vec![0.085]);
    }

    #[test]
    fn siblings_and_later_requests_do_not_nest() {
        let a = analyze(vec![
            span(Name::ClientTxn, 0, 1, 0, 10),
            span(Name::ClientTxn, 0, 2, 10, 20),
            span(Name::DistRead, 0, 3, 12, 18),
        ]);
        assert_eq!(a.parent, vec![None, None, None]);
        assert_eq!(a.self_ns, vec![10, 10, 6]);
    }

    #[test]
    fn tracer_records_and_writes_wellformed_lines() {
        let t = Tracer::new(2);
        let got = spanned(Some(&t), Name::ClientTxn, 1, 0, || {
            spanned(Some(&t), Name::DistCommit, 1, 0, || 42)
        });
        assert_eq!(got, 42);
        assert_eq!(
            spanned(None, Name::ClientTxn, 9, 0, || 1),
            1,
            "off: no lane needed"
        );
        let a = analyze(t.take());
        assert!(t.take().is_empty());
        assert_eq!(a.spans.len(), 2);
        let mut buf = Vec::new();
        a.write_jsonl(&mut buf, 3).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("round").and_then(|r| r.as_f64()), Some(3.0));
            assert!(v.get("self_ns").is_some() && v.get("parent").is_some());
        }
        assert!(text.contains("\"name\": \"dist.commit\""));
    }
}
