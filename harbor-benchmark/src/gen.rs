//! The benchmark's own load generator: everything a run feeds the system is
//! a pure function of `--seed`. The program under test sees only the
//! generated inputs, never the seed.

use harbor_common::{Timestamp, Tuple, Value};
use harbor_dist::UpdateRequest;

/// SplitMix64: small, seedable, and ours (not the vendored `rand` shim, so
/// a change to the shim cannot change the inputs).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `salt` separates the streams of one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First payload field of the evaluation row with key `id`.
pub fn paper_f0(id: i64) -> i32 {
    (id as i32).wrapping_mul(31)
}

/// One row of the evaluation schema (`TableSpec::paper_table`): an `i64` id
/// plus 13 deterministic `i32` payload fields. Copied from
/// `harbor_workload::paper_row` on purpose: the instrument owns its
/// request constructors.
pub fn paper_row(id: i64) -> Vec<Value> {
    let mut v = Vec::with_capacity(14);
    v.push(Value::Int64(id));
    for i in 0..13 {
        v.push(Value::Int32(paper_f0(id).wrapping_add(i)));
    }
    v
}

/// A committed stored version of `paper_row(id)` whose first payload field
/// is `f0`, for direct loads.
pub fn stored_row(id: i64, f0: i32, ins: u64, del: u64) -> Tuple {
    let mut row = paper_row(id);
    row[1] = Value::Int32(f0);
    Tuple::versioned(Timestamp(ins), Timestamp(del), row)
}

/// One generated transaction: insert `id`, and optionally overwrite the
/// first payload field of an earlier row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnSpec {
    pub insert: Option<i64>,
    pub update: Option<(i64, i32)>,
}

impl TxnSpec {
    pub fn requests(&self, table: &str) -> Vec<UpdateRequest> {
        let mut ops = Vec::with_capacity(2);
        if let Some(id) = self.insert {
            ops.push(UpdateRequest::Insert {
                table: table.to_string(),
                values: paper_row(id),
            });
        }
        if let Some((key, f0)) = self.update {
            ops.push(UpdateRequest::UpdateByKey {
                table: table.to_string(),
                key,
                set: vec![(1, Value::Int32(f0))],
            });
        }
        ops
    }
}

/// The write mix of the loading workloads: `n` single-row inserts with
/// ascending keys from `first_id`; every 4th transaction also overwrites
/// the row inserted three transactions earlier with a seeded value.
pub fn ingest_schedule(rng: &mut Rng, first_id: i64, n: usize) -> Vec<TxnSpec> {
    (0..n as i64)
        .map(|i| TxnSpec {
            insert: Some(first_id + i),
            update: (i % 4 == 3).then(|| (first_id + i - 3, rng.next_u64() as i32)),
        })
        .collect()
}

/// `n` overwrites of seeded keys in `0..rows` (the trickle of corrections
/// to historical data beside the report queries).
pub fn correction_schedule(rng: &mut Rng, rows: i64, n: usize) -> Vec<TxnSpec> {
    (0..n)
        .map(|_| TxnSpec {
            insert: None,
            update: Some((rng.below(rows as u64) as i64, rng.next_u64() as i32)),
        })
        .collect()
}

/// Due times in nanoseconds from the window's start for an open-loop
/// sender at `rate` per second: evenly spaced slots, each jittered by a
/// seeded ±25% of the interval so arrivals do not lock step with timers.
pub fn pacing_schedule(rng: &mut Rng, rate: u64, n: usize) -> Vec<u64> {
    let interval = 1_000_000_000 / rate;
    (0..n as u64)
        .map(|i| i * interval + interval / 4 + rng.below(interval / 2))
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Every visible row.
    Full,
    /// `lo <= id < hi`.
    Filter { lo: i64, hi: i64 },
    /// `id == key`.
    Point { key: i64 },
}

/// A seeded shuffle of report queries over keys `first..first + rows`.
/// Filters select `rows / 100` consecutive keys.
pub fn query_schedule(
    rng: &mut Rng,
    first: i64,
    rows: i64,
    full: usize,
    filter: usize,
    point: usize,
) -> Vec<Query> {
    let width = (rows / 100).max(1);
    let mut q = vec![Query::Full; full];
    for _ in 0..filter {
        let lo = first + rng.below((rows - width + 1) as u64) as i64;
        q.push(Query::Filter { lo, hi: lo + width });
    }
    for _ in 0..point {
        q.push(Query::Point {
            key: first + rng.below(rows as u64) as i64,
        });
    }
    rng.shuffle(&mut q);
    q
}

/// Order-independent digest of a set of `(id, f0)` rows: a row count and a
/// wrapping sum of a strong mix of each row. A missing, duplicated or stale
/// row changes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, id: i64, f0: i32) {
        self.rows += 1;
        self.sum = self
            .sum
            .wrapping_add(mix64(mix64(id as u64) ^ f0 as u32 as u64));
    }
}

/// What the benchmark expects one table to hold at the read snapshot:
/// `(id, f0)` ascending by id.
#[derive(Clone, Debug, Default)]
pub struct Model {
    rows: Vec<(i64, i32)>,
}

impl Model {
    /// Keys `first..first + n`, untouched.
    pub fn prefilled(first: i64, n: i64) -> Self {
        Model {
            rows: (first..first + n).map(|id| (id, paper_f0(id))).collect(),
        }
    }

    /// Applies an acknowledged transaction. Inserts must arrive in
    /// ascending key order (they do: one closed-loop session per table).
    pub fn apply(&mut self, t: &TxnSpec) {
        if let Some(id) = t.insert {
            debug_assert!(self.rows.last().is_none_or(|(last, _)| *last < id));
            self.rows.push((id, paper_f0(id)));
        }
        if let Some((key, f0)) = t.update {
            // As in the system, overwriting a key that is not there changes
            // nothing (the generator never asks for it).
            if let Ok(at) = self.rows.binary_search_by_key(&key, |(id, _)| *id) {
                self.rows[at].1 = f0;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The expected answer to `q`.
    pub fn answer(&self, q: &Query) -> Digest {
        let (lo, hi) = match *q {
            Query::Full => (i64::MIN, i64::MAX),
            Query::Filter { lo, hi } => (lo, hi),
            Query::Point { key } => (key, key + 1),
        };
        let from = self.rows.partition_point(|(id, _)| *id < lo);
        let to = self.rows.partition_point(|(id, _)| *id < hi);
        let mut d = Digest::default();
        for (id, f0) in &self.rows[from..to] {
            d.add(*id, *f0);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let make = |seed: u64| {
            let mut r = Rng::new(seed, 1);
            (
                ingest_schedule(&mut r, 1000, 64),
                correction_schedule(&mut r, 5000, 64),
                pacing_schedule(&mut r, 400, 64),
                query_schedule(&mut r, 0, 5000, 3, 10, 10),
            )
        };
        assert_eq!(make(7), make(7));
        let (a, b) = (make(7), make(8));
        assert_eq!(a.0.len(), b.0.len(), "a seed changes keys, not volume");
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
        // Streams of one seed are independent of each other.
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn ingest_mix_updates_every_fourth_txn() {
        let s = ingest_schedule(&mut Rng::new(1, 0), 100, 8);
        assert_eq!(s.iter().filter(|t| t.update.is_some()).count(), 2);
        assert_eq!(s[3].insert, Some(103));
        assert_eq!(s[3].update.unwrap().0, 100);
        assert_eq!(s[3].requests("t").len(), 2);
        assert_eq!(s[0].requests("t").len(), 1);
    }

    #[test]
    fn pacing_is_monotone_and_holds_the_rate() {
        let due = pacing_schedule(&mut Rng::new(3, 0), 400, 400);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        let last = *due.last().unwrap();
        assert!((990_000_000..1_000_000_000).contains(&last), "{last}");
    }

    #[test]
    fn model_answers_queries() {
        let mut m = Model::prefilled(10, 5); // ids 10..15
        m.apply(&TxnSpec {
            insert: Some(20),
            update: Some((12, -7)),
        });
        assert_eq!(m.len(), 6);
        assert_eq!(m.answer(&Query::Full).rows, 6);
        assert_eq!(m.answer(&Query::Filter { lo: 11, hi: 14 }).rows, 3);
        assert_eq!(m.answer(&Query::Point { key: 20 }).rows, 1);
        assert_eq!(m.answer(&Query::Point { key: 16 }), Digest::default());
        let mut want = Digest::default();
        want.add(12, -7);
        assert_eq!(m.answer(&Query::Point { key: 12 }), want);
        let mut stale = Digest::default();
        stale.add(12, paper_f0(12));
        assert_ne!(want, stale, "the digest sees a stale payload");
    }

    #[test]
    fn query_schedule_has_the_asked_mix_inside_the_key_range() {
        let q = query_schedule(&mut Rng::new(5, 0), 100, 1000, 2, 7, 9);
        assert_eq!(q.iter().filter(|q| **q == Query::Full).count(), 2);
        for x in &q {
            match *x {
                Query::Full => {}
                Query::Filter { lo, hi } => assert!(lo >= 100 && hi <= 1100 && hi - lo == 10),
                Query::Point { key } => assert!((100..1100).contains(&key)),
            }
        }
        assert_eq!(q.len(), 18);
    }
}
