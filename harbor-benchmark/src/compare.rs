//! `harbor-benchmark compare A.jsonl B.jsonl`: the two-sets-of-runs check.
//! Each file holds the `--out` lines of one set of runs (any workloads, any
//! seeds). For every workload and end-to-end metric it prints both medians,
//! B's ratio to A, the issue's bound, the bound the driver gates the metric
//! at (if it does), and a verdict against the issue's bound:
//!
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `unresolved`: either side's own spread is wider than the bound, so
//!   the comparison cannot tell;
//! - `within` otherwise.
//!
//! Exits non-zero when anything is `worse`.

use crate::json::{parse, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END, ON_ONE_WORKLOAD, WORKLOADS};
use crate::stats::{median, quartiles};
use std::path::Path;
use std::process::ExitCode;

/// One side's runs of one metric on one workload.
#[derive(Debug, PartialEq)]
struct Side {
    median: f64,
    /// Distance between the quartiles as a share of the median: between
    /// runs when there are several, between the rounds of the one run
    /// otherwise.
    spread: f64,
    runs: usize,
}

/// `(value, iqr over rounds)` of every untraced run of `workload` in `doc`.
fn samples(lines: &[Json], workload: &str, metric: &str) -> Vec<(f64, f64)> {
    lines
        .iter()
        .filter(|l| l.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|l| l.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|l| {
            let m = l.get("metrics")?.get(metric)?;
            Some((m.get("value")?.as_f64()?, m.get("iqr")?.as_f64()?))
        })
        .collect()
}

fn side(samples: &[(f64, f64)]) -> Option<Side> {
    if samples.is_empty() {
        return None;
    }
    let values: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let m = median(&values);
    if m == 0.0 {
        return None;
    }
    let iqr = match samples {
        [(_, rounds_iqr)] => *rounds_iqr,
        _ => {
            let (q1, q3) = quartiles(&values);
            q3 - q1
        }
    };
    Some(Side {
        median: m,
        spread: iqr / m.abs(),
        runs: values.len(),
    })
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Within,
    Worse,
    Unresolved,
}

fn judge(a: &Side, b: &Side, m: &EndToEnd) -> Verdict {
    let worse_by = match m.better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    if a.spread > m.tight || b.spread > m.tight {
        Verdict::Unresolved
    } else if worse_by > m.tight {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn read_lines(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (la, lb) = match (read_lines(a), read_lines(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>8} {:>6} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "gate", "A sprd", "B sprd"
    );
    let (mut compared, mut worse) = (0, 0);
    for (workload, _) in WORKLOADS {
        let own = ON_ONE_WORKLOAD
            .iter()
            .filter(|(w, _)| w == workload)
            .map(|(_, m)| m);
        for m in END_TO_END.iter().chain(own) {
            let sides = (
                side(&samples(&la, workload, m.name)),
                side(&samples(&lb, workload, m.name)),
            );
            let (Some(sa), Some(sb)) = sides else {
                continue;
            };
            let verdict = judge(&sa, &sb, m);
            compared += 1;
            worse += (verdict == Verdict::Worse) as usize;
            println!(
                "{workload:<15} {:<15} {:>12.4} {:>12.4} {:>8.4} {:>6.2} {:>6} {:>7.3} {:>7.3}  {} (A {} runs, B {} runs, {} is better)",
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.tight,
                m.gate.map_or("-".to_string(), |g| format!("{g:.2}")),
                sa.spread,
                sb.spread,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                sa.runs,
                sb.runs,
                m.better.as_str(),
            );
        }
    }
    if compared == 0 {
        eprintln!("compare: the two files share no workload with untraced runs");
        return ExitCode::from(2);
    }
    if worse > 0 {
        eprintln!("compare: {worse} of {compared} pairings are worse than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "x_ms",
        unit: "ms",
        better: Better::Lower,
        tight: 0.10,
        gate: None,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "x_per_s",
        unit: "1/s",
        better: Better::Higher,
        tight: 0.10,
        gate: Some(0.25),
    };

    fn steady(median: f64) -> Side {
        Side {
            median,
            spread: 0.01,
            runs: 10,
        }
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            judge(&steady(100.0), &steady(109.0), &LOWER),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady(100.0), &steady(111.0), &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(50.0), &LOWER),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady(100.0), &steady(89.0), &HIGHER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(120.0), &HIGHER),
            Verdict::Within
        );
        let noisy = Side {
            median: 100.0,
            spread: 0.2,
            runs: 10,
        };
        assert_eq!(judge(&noisy, &steady(150.0), &LOWER), Verdict::Unresolved);
        assert_eq!(judge(&steady(100.0), &noisy, &LOWER), Verdict::Unresolved);
    }

    #[test]
    fn sides_from_report_lines() {
        let line = |workload: &str, trace: bool, value: f64, iqr: f64| {
            Json::obj(vec![
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(trace)),
                (
                    "metrics",
                    Json::obj(vec![(
                        "x_ms",
                        Json::obj(vec![("value", Json::Num(value)), ("iqr", Json::Num(iqr))]),
                    )]),
                ),
            ])
        };
        let lines = vec![
            line("w", false, 10.0, 1.0),
            line("w", false, 12.0, 9.0),
            line("w", false, 11.0, 9.0),
            line("w", true, 99.0, 0.0),
            line("other", false, 50.0, 5.0),
        ];
        let s = side(&samples(&lines, "w", "x_ms")).unwrap();
        // Three runs: quartiles 10 and 12 around the median 11.
        assert_eq!((s.median, s.runs), (11.0, 3));
        assert!((s.spread - 2.0 / 11.0).abs() < 1e-12);
        // One run: the spread between its rounds stands in.
        let s = side(&samples(&lines, "other", "x_ms")).unwrap();
        assert_eq!(
            s,
            Side {
                median: 50.0,
                spread: 0.1,
                runs: 1
            }
        );
        assert!(side(&samples(&lines, "w", "missing")).is_none());
        assert!(side(&samples(&lines, "nobody", "x_ms")).is_none());
    }
}
