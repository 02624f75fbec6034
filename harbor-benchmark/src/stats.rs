//! The benchmark's own order statistics. Nothing here calls into
//! `harbor-workload::measure`, so a PR to that crate cannot move a number.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle element, or the mean of the two middle ones. Used
/// for the median over rounds, where there are few samples and the mean of
/// the middle pair is steadier than either.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median, or 0 where nothing was measured (a layer a workload bypasses).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses for
/// the run-to-run spread, extrapolation below three samples included. One
/// sample has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |k: usize| {
        // Position k*(n+1)/4, 1-based; the interval is clamped into the
        // sample, the weight is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// What is reported for every metric: one value standing for the samples,
/// the distance between their quartiles, and how many there were.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
}

/// Which sample stands for them all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    Median,
    /// The least disturbed round of a time or a size. Rounds of a run are
    /// replicas — the same work on a fresh cluster — and on a shared box
    /// what differs between them is the neighbours, who only ever slow a
    /// round down, for tens of seconds at a time: a spell can cover seven
    /// rounds of nine, which moves their median by half and their fastest
    /// round not at all (README, "Steadiness").
    Lowest,
    /// The same, for a rate.
    Highest,
}

/// `None` when there are no samples.
pub fn summarize(values: &[f64], pick: Pick) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = quartiles(values);
    let value = match pick {
        Pick::Median => median(values),
        Pick::Lowest => values.iter().copied().fold(f64::INFINITY, f64::min),
        Pick::Highest => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    Some(Summary {
        value,
        iqr: q3 - q1,
        n: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // Five samples: p50 is the 3rd, p99 the 5th.
        let w = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&w, 0.5), 30.0);
        assert_eq!(percentile(&w, 0.99), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        let s = summarize(&[2.0, 2.0, 2.0, 2.0], Pick::Median).unwrap();
        assert_eq!((s.value, s.iqr, s.n), (2.0, 0.0, 4));
        assert!(summarize(&[], Pick::Median).is_none());
    }

    #[test]
    fn a_spell_moves_the_median_of_rounds_but_not_the_least_disturbed() {
        // txn_p50_ms of the nine rounds of one run of crash_recovery, seven
        // of them inside a neighbour's spell; the runs around it read 0.31.
        let rounds = [
            0.297, 0.297, 0.491, 0.464, 0.505, 0.485, 0.449, 0.517, 0.462,
        ];
        assert_eq!(summarize(&rounds, Pick::Median).unwrap().value, 0.464);
        let s = summarize(&rounds, Pick::Lowest).unwrap();
        assert_eq!(s.value, 0.297);
        assert!(s.iqr > 0.1, "and the spread beside it says what happened");
        let rates = [5900.0, 6100.0, 3700.0, 6000.0];
        assert_eq!(summarize(&rates, Pick::Highest).unwrap().value, 6100.0);
    }
}
