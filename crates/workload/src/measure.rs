//! Throughput and latency measurement.
//!
//! Reproduces the paper's methodology: N concurrent client streams, each
//! running closed-loop transactions against the coordinator; steady-state
//! throughput is committed transactions over wall time, and the
//! no-concurrency case doubles as the latency measurement (§6.3.1).

use harbor_common::DbResult;
use harbor_dist::{Coordinator, UpdateRequest};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputSample {
    pub committed: u64,
    pub aborted: u64,
    pub elapsed: Duration,
    /// Mean latency per committed transaction.
    pub mean_latency: Duration,
    /// Commit-latency percentiles over every committed transaction across
    /// all streams (zero when nothing committed).
    pub p50_latency: Duration,
    pub p99_latency: Duration,
    pub p999_latency: Duration,
}

impl ThroughputSample {
    pub fn tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

/// The nearest-rank percentile (`q` in [0, 1]) of a **sorted** latency
/// vector; zero for an empty one.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-stream outcome from [`run_concurrent_streams`].
#[derive(Clone, Debug)]
pub struct StreamReport {
    pub committed: u64,
    pub aborted: u64,
    pub total_latency: Duration,
    /// Per-commit latencies, in completion order.
    pub latencies: Vec<Duration>,
}

/// Runs `streams` concurrent closed-loop clients against `coordinator`.
/// Each stream invokes its generator for every transaction: the generator
/// returns the update requests of that transaction (the paper's insert
/// streams return one insert, optionally followed by simulated CPU work).
/// Each stream runs `txns_per_stream` transactions.
pub fn run_concurrent_streams(
    coordinator: &Arc<Coordinator>,
    streams: usize,
    txns_per_stream: usize,
    make_ops: impl Fn(usize, usize) -> Vec<UpdateRequest> + Send + Sync,
) -> DbResult<ThroughputSample> {
    let start = Instant::now();
    let make_ops = &make_ops;
    #[expect(
        clippy::expect_used,
        reason = "a stream that panicked fails the measurement"
    )]
    let reports: Vec<StreamReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|s| {
                let coordinator = coordinator.clone();
                scope.spawn(move || {
                    let mut committed = 0u64;
                    let mut aborted = 0u64;
                    let mut total_latency = Duration::ZERO;
                    let mut latencies = Vec::with_capacity(txns_per_stream);
                    for n in 0..txns_per_stream {
                        let ops = make_ops(s, n);
                        let t0 = Instant::now();
                        match run_one(&coordinator, ops) {
                            Ok(()) => {
                                let lat = t0.elapsed();
                                committed += 1;
                                total_latency += lat;
                                latencies.push(lat);
                            }
                            Err(_) => aborted += 1,
                        }
                    }
                    StreamReport {
                        committed,
                        aborted,
                        total_latency,
                        latencies,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream"))
            .collect()
    });
    let elapsed = start.elapsed();
    let committed: u64 = reports.iter().map(|r| r.committed).sum();
    let aborted: u64 = reports.iter().map(|r| r.aborted).sum();
    let total_latency: Duration = reports.iter().map(|r| r.total_latency).sum();
    let mean_latency = if committed > 0 {
        total_latency / committed as u32
    } else {
        Duration::ZERO
    };
    let mut all: Vec<Duration> = reports.iter().flat_map(|r| r.latencies.clone()).collect();
    all.sort();
    Ok(ThroughputSample {
        committed,
        aborted,
        elapsed,
        mean_latency,
        p50_latency: percentile(&all, 0.50),
        p99_latency: percentile(&all, 0.99),
        p999_latency: percentile(&all, 0.999),
    })
}

fn run_one(coordinator: &Arc<Coordinator>, ops: Vec<UpdateRequest>) -> DbResult<()> {
    let tid = coordinator.begin()?;
    for op in ops {
        coordinator.update(tid, op)?;
    }
    coordinator.commit(tid)?;
    Ok(())
}

/// Bucketed commit counter for the Fig 6-7 timeline.
#[derive(Debug)]
pub struct Timeline {
    start: Instant,
    bucket: Duration,
    counts: Mutex<Vec<u64>>,
}

/// One timeline bucket: seconds since start and transactions per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineBucket {
    pub at_secs: f64,
    pub tps: f64,
}

impl Timeline {
    pub fn new(bucket: Duration) -> Self {
        Timeline {
            start: Instant::now(),
            bucket,
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Records one committed transaction at "now".
    pub fn record(&self) {
        let idx = (self.start.elapsed().as_secs_f64() / self.bucket.as_secs_f64()) as usize;
        let mut counts = self.counts.lock();
        if counts.len() <= idx {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += 1;
    }

    /// Seconds since the timeline started.
    pub fn now_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The buckets as `(time, tps)` points.
    pub fn buckets(&self) -> Vec<TimelineBucket> {
        let counts = self.counts.lock();
        let w = self.bucket.as_secs_f64();
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| TimelineBucket {
                at_secs: i as f64 * w,
                tps: c as f64 / w,
            })
            .collect()
    }
}

/// Spawns an open-ended background insert stream (Fig 6-7's continuous
/// load); call the returned handle's `stop()` to end it and collect counts.
pub struct BackgroundLoad {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<(u64, u64)>>,
}

impl BackgroundLoad {
    /// Runs single-insert transactions until stopped, recording commits on
    /// `timeline`.
    pub fn start(
        coordinator: Arc<Coordinator>,
        table: String,
        first_id: i64,
        timeline: Arc<Timeline>,
    ) -> BackgroundLoad {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let stream = crate::gen::InsertStream::new(&table, first_id);
            let mut committed = 0u64;
            let mut aborted = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                match run_one(&coordinator, vec![stream.next()]) {
                    Ok(()) => {
                        committed += 1;
                        timeline.record();
                    }
                    Err(_) => aborted += 1,
                }
            }
            (committed, aborted)
        });
        BackgroundLoad {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the load; returns `(committed, aborted)`.
    #[expect(
        clippy::expect_used,
        reason = "`stop` takes `self`, and a load that panicked fails the measurement"
    )]
    pub fn stop(mut self) -> (u64, u64) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .expect("background load thread")
    }
}

impl Drop for BackgroundLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_accumulate() {
        let t = Timeline::new(Duration::from_millis(10));
        t.record();
        t.record();
        std::thread::sleep(Duration::from_millis(25));
        t.record();
        let buckets = t.buckets();
        assert!(buckets.len() >= 2);
        let total: f64 = buckets.iter().map(|b| b.tps * 0.01).sum();
        assert!((total - 3.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_sample_math() {
        let s = ThroughputSample {
            committed: 100,
            aborted: 0,
            elapsed: Duration::from_secs(2),
            mean_latency: Duration::from_millis(5),
            p50_latency: Duration::from_millis(4),
            p99_latency: Duration::from_millis(9),
            p999_latency: Duration::from_millis(12),
        };
        assert!((s.tps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile(&one, 0.5), one[0]);
        assert_eq!(percentile(&one, 0.999), one[0]);
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 0.999), Duration::from_millis(100));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
    }
}
