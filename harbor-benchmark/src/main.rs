//! `harbor-benchmark`: the repo's benchmark. One workload per process:
//!
//! ```text
//! harbor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! harbor-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is the result the driver reads; see
//! README.md for everything else.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod pin;
mod procfs;
mod rig;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Better, EndToEnd, END_TO_END, ON_ONE_WORKLOAD, PER_LAYER, WORKLOADS};
use stats::{median_or_zero, percentile, sorted, summarize, Pick, Summary};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Round, RoundCtx};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: harbor-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--out FILE]\n       harbor-benchmark compare A.jsonl B.jsonl";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Scratch space inside the checkout: beside the build, which is already
/// ignored by git. Cargo puts the executable at `<target>/<profile>/`; a
/// copy of it that sits anywhere else keeps its data beside itself, so
/// that nothing is ever written above the directory it was put in.
fn data_root() -> PathBuf {
    let exe = std::env::current_exe().ok();
    data_root_of(exe.as_deref()).join("harbor-benchmark-data")
}

fn data_root_of(exe: Option<&Path>) -> PathBuf {
    let dir = exe.and_then(Path::parent);
    let profile = dir.and_then(|d| d.file_name()).and_then(|n| n.to_str());
    match (dir, profile) {
        (Some(dir), Some("release" | "debug")) => dir.parent().unwrap_or(dir).to_path_buf(),
        (Some(dir), _) => dir.to_path_buf(),
        (None, _) => PathBuf::from(".bench_build"),
    }
}

/// The commit of the checkout this was run from, when it is a git clone.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        _ => "unknown".into(),
    }
}

/// One value per end-to-end metric for one round of `workload`: the five
/// every workload has, then the ones that exist on this workload only.
fn end_to_end_of(r: &Round, workload: &str) -> Vec<(&'static str, f64)> {
    let lat = sorted(&r.txn_latency_ms);
    let pct = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, p)
        }
    };
    let mut values = vec![
        ("setup_s", r.setup_s),
        ("txn_per_s", lat.len() as f64 / r.txn_window_s.max(1e-9)),
        ("txn_p50_ms", pct(0.50)),
        ("txn_p99_ms", pct(0.99)),
        ("peak_rss_mb", r.peak_rss_mb),
    ];
    let own = [
        ("scan_full_ms", median_or_zero(&r.full_ms)),
        ("scan_filter_ms", median_or_zero(&r.filter_ms)),
        ("point_read_ms", median_or_zero(&r.point_ms)),
        ("recovery_s", r.recovery_s),
    ];
    let here = |name: &str| {
        ON_ONE_WORKLOAD
            .iter()
            .any(|(w, m)| *w == workload && m.name == name)
    };
    values.extend(own.into_iter().filter(|(name, _)| here(name)));
    values
}

/// One named per-round value, reduced over rounds.
fn over_rounds(per_round: &[Vec<(&'static str, f64)>], name: &str, pick: Pick) -> Option<Summary> {
    let values: Vec<f64> = per_round
        .iter()
        .filter_map(|round| round.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
        .collect();
    summarize(&values, pick)
}

/// Which round stands for a run's rounds of an end-to-end metric: the least
/// disturbed one (see `stats::Pick`). Set-up is the exception the driver's
/// contract words: "set up several times in a run and report the median".
fn pick_for(m: &EndToEnd) -> Pick {
    match (m.name, m.better) {
        ("setup_s", _) => Pick::Median,
        (_, Better::Lower) => Pick::Lowest,
        (_, Better::Higher) => Pick::Highest,
    }
}

/// One reported metric: its value over rounds, with their spread.
struct Reported {
    name: &'static str,
    unit: &'static str,
    over_rounds: Summary,
}

impl Reported {
    /// As in the `--out` file: value, unit, IQR over rounds, rounds.
    fn full(&self) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.over_rounds.value)),
            ("unit", Json::str(self.unit)),
            ("iqr", Json::Num(self.over_rounds.iqr)),
            ("n", Json::Num(self.over_rounds.n as f64)),
        ])
    }

    /// As in the result line the driver reads: value and unit only.
    fn brief(&self) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.over_rounds.value)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

type PerRound = Vec<Vec<(&'static str, f64)>>;

/// The measured rounds of one run.
struct Rounds {
    untraced: Vec<Round>,
    traced: Vec<Round>,
}

impl Rounds {
    fn all(&self) -> impl Iterator<Item = &Round> {
        self.untraced.iter().chain(&self.traced)
    }
}

/// Runs the workload's fixed number of rounds, or as many of them as fit in
/// `--seconds`. Round 0 warms up and is discarded. A traced run alternates
/// traced and untraced rounds, so the overhead of tracing is measured
/// within one process, between neighbours in time.
fn measure(args: &Args, root: &Path, started: Instant) -> Result<Rounds, String> {
    let tracer = Arc::new(trace::Tracer::new(rig::CLIENTS));
    let mut rounds = Rounds {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let planned = workloads::measured_rounds(&args.workload);
    let mut longest = 0.0f64;
    for n in 0..=planned {
        let enough = !rounds.untraced.is_empty() && (!args.trace || !rounds.traced.is_empty());
        if enough && started.elapsed().as_secs_f64() + longest > args.seconds {
            break;
        }
        let with_trace = args.trace && n % 2 == 1;
        let dir = root.join(format!("round-{n}"));
        let ctx = RoundCtx {
            seed: args.seed,
            round: n,
            dir: &dir,
            tracer: with_trace.then_some(&tracer),
        };
        let t = Instant::now();
        let round = workloads::run_round(&args.workload, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
        let round = round.map_err(|e| format!("round {n}: {e}"))?;
        let took = t.elapsed().as_secs_f64();
        longest = longest.max(took);
        let kind = match (n, with_trace) {
            (0, _) => " (warm-up)",
            (_, true) => " (traced)",
            _ => "",
        };
        eprintln!(
            "round {n}{kind}: {took:.2} s, {} attempted, {} failed",
            round.attempted, round.failed
        );
        match (n, with_trace) {
            (0, _) => {}
            (_, true) => rounds.traced.push(round),
            _ => rounds.untraced.push(round),
        }
    }
    Ok(rounds)
}

/// The end-to-end metrics of this workload, from the untraced rounds.
fn end_to_end(workload: &str, plain: &PerRound) -> Result<Vec<Reported>, String> {
    let own = ON_ONE_WORKLOAD
        .iter()
        .filter(|(w, _)| *w == workload)
        .map(|(_, m)| m);
    (END_TO_END.iter().chain(own))
        .map(|m| {
            Ok(Reported {
                name: m.name,
                unit: m.unit,
                over_rounds: over_rounds(plain, m.name, pick_for(m)).ok_or("no measured round")?,
            })
        })
        .collect()
}

/// What a traced run reports: the end-to-end metrics that exist on one
/// workload only (from the untraced rounds, 0 on the other workloads), then
/// the per-layer metrics — the traced rounds' readings, the isolation
/// timings that need no cluster, and the cost of tracing itself.
fn per_layer(
    args: &Args,
    root: &Path,
    rounds: &Rounds,
    plain: &PerRound,
) -> Result<Vec<Reported>, String> {
    let disk = workloads::disk_profile(&args.workload);
    let scratch = root.join("isolation");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let with_spans: PerRound = (rounds.traced.iter())
        .map(|r| end_to_end_of(r, &args.workload))
        .collect();
    // Each traced round against the untraced round that followed it.
    let p50 =
        |round: &Vec<(&str, f64)>| round.iter().find(|(n, _)| *n == "txn_p50_ms").map(|v| v.1);
    let dearer: Vec<f64> = (with_spans.iter().zip(plain))
        .filter_map(|(traced, untraced)| Some((p50(traced)? / p50(untraced)? - 1.0) * 100.0))
        .collect();
    let mut layers: PerRound = rounds.traced.iter().map(|r| r.layer.clone()).collect();
    layers.push(vec![
        ("wal.force_ms", layers::wal_force_ms(&scratch, disk)?),
        (
            "engine.local_txn_us",
            layers::engine_local_txn_us(&scratch, args.seed)?,
        ),
        (
            "common.tuple_codec_ns_per_row",
            layers::tuple_codec_ns_per_row()?,
        ),
        ("front.ping_us", layers::front_ping_us()?),
        ("trace.overhead_pct", median_or_zero(&dearer)),
    ]);
    let _ = std::fs::remove_dir_all(&scratch);
    // A layer the workload bypasses reports nothing, which reads 0.
    let nothing = Summary {
        value: 0.0,
        iqr: 0.0,
        n: 0,
    };
    let own = ON_ONE_WORKLOAD.iter().map(|(_, m)| Reported {
        name: m.name,
        unit: m.unit,
        over_rounds: over_rounds(plain, m.name, pick_for(m)).unwrap_or(nothing),
    });
    let layered = PER_LAYER.iter().map(|(name, unit, _)| Reported {
        name,
        unit,
        over_rounds: over_rounds(&layers, name, Pick::Median).unwrap_or(nothing),
    });
    Ok(own.chain(layered).collect())
}

fn write_spans(root: &Path, traced: &[Round]) -> Result<(), String> {
    let path = root.join("trace.jsonl");
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, round) in traced.iter().enumerate() {
        for part in &round.spans {
            part.write_jsonl(&mut out, 2 * i + 1)
                .map_err(|e| e.to_string())?;
        }
    }
    out.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn run(args: &Args, pinned_cpu: Option<usize>) -> Result<bool, String> {
    let root = data_root().join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;

    let started = Instant::now();
    let rounds = measure(args, &root, started)?;
    let attempted: u64 = rounds.all().map(|r| r.attempted).sum();
    let failed: u64 = rounds.all().map(|r| r.failed).sum();
    if let Some(e) = rounds.all().find_map(|r| r.first_error.as_ref()) {
        eprintln!("first failed operation: {e}");
    }
    let plain: PerRound = (rounds.untraced.iter())
        .map(|r| end_to_end_of(r, &args.workload))
        .collect();
    let reported = if args.trace {
        write_spans(&root, &rounds.traced)?;
        per_layer(args, &root, &rounds, &plain)?
    } else {
        end_to_end(&args.workload, &plain)?
    };

    // Everything a reader needs to judge the numbers, beside them.
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut stamp = vec![
        ("workload", Json::str(&*args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::Num(procfs::nproc() as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("profile", Json::str(profile)),
        ("client_threads", Json::Num(rig::CLIENTS as f64)),
        ("rounds_measured", Json::Num(rounds.untraced.len() as f64)),
        ("rounds_traced", Json::Num(rounds.traced.len() as f64)),
        ("warmup_rounds", Json::Num(1.0)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("ops_attempted", Json::Num(attempted as f64)),
        ("ops_failed", Json::Num(failed as f64)),
    ];
    println!("stamp {}", Json::obj(stamp.clone()).render());
    for m in &reported {
        let s = m.over_rounds;
        println!(
            "{:<40} {:>16.4} {:<6} iqr {:<12.4} n={}",
            m.name, s.value, m.unit, s.iqr, s.n
        );
    }
    if let Some(path) = &args.out {
        let named = |f: fn(&Reported) -> Json| {
            Json::Obj(
                reported
                    .iter()
                    .map(|m| (m.name.to_string(), f(m)))
                    .collect(),
            )
        };
        // The per-round values behind each end-to-end median, in round order.
        let per_round = |name: &str| {
            let of = |round: &Vec<(&str, f64)>| {
                round
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| Json::Num(*v))
            };
            Json::Arr(plain.iter().filter_map(of).collect())
        };
        stamp.push(("metrics", named(Reported::full)));
        stamp.push((
            "rounds",
            Json::Obj(
                (END_TO_END.iter())
                    .chain(ON_ONE_WORKLOAD.iter().map(|(_, m)| m))
                    .map(|m| (m.name.to_string(), per_round(m.name)))
                    .collect(),
            ),
        ));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", Json::obj(stamp).render()).map_err(|e| e.to_string())?;
    }

    // The line the driver reads: exactly these keys.
    let correct = failed == 0;
    // The driver wants the same metrics from every workload: untraced, the
    // five every workload has (the rest is in the lines above and in
    // `--out`); traced, everything `BENCHMARK.json` lists as `per_layer`.
    let metrics = reported
        .iter()
        .filter(|m| args.trace || END_TO_END.iter().any(|e| e.name == m.name))
        .map(|m| (m.name.to_string(), m.brief()))
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    // Leaves the directory only where a traced run put its spans in it.
    let _ = std::fs::remove_dir(&root);
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = pin::to_one_cpu();
    pin::allocator(&argv);
    match run(&args, cpu) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("operations failed: the result is not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            // A correctness gate or the system itself failed: no result line.
            eprintln!("harbor-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "--workload commit_lan --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("commit_lan", 7, 15.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload commit_lan --seed x",
            "--workload commit_lan --trace 2",
            "--workload commit_lan --seconds 0",
            "--workload commit_lan --seconds nan",
            "--workload commit_lan --seed",
            "--bogus 1",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn scratch_data_never_lands_above_the_executable() {
        let at = |p: &str| data_root_of(Some(Path::new(p)));
        assert_eq!(
            at("/co/.bench_build/release/harbor-benchmark"),
            Path::new("/co/.bench_build")
        );
        assert_eq!(at("/co/t/debug/harbor-benchmark"), Path::new("/co/t"));
        // A copy outside a cargo profile directory stays where it was put.
        assert_eq!(at("/root/scratch/copy"), Path::new("/root/scratch"));
        assert_eq!(data_root_of(None), Path::new(".bench_build"));
    }

    #[test]
    fn a_round_reduces_to_one_value_per_metric() {
        let r = Round {
            setup_s: 0.5,
            txn_latency_ms: (1..=200).map(f64::from).collect(),
            txn_window_s: 2.0,
            full_ms: vec![3.0, 1.0, 2.0],
            filter_ms: vec![4.0],
            point_ms: vec![],
            recovery_s: 0.25,
            peak_rss_mb: 64.0,
            ..Round::default()
        };
        let e = end_to_end_of(&r, "snapshot_reads");
        let get = |n: &str| e.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("txn_per_s"), 100.0);
        assert_eq!(get("txn_p50_ms"), 100.0);
        assert_eq!(get("txn_p99_ms"), 198.0);
        assert_eq!(get("scan_full_ms"), 2.0);
        assert_eq!(get("point_read_ms"), 0.0);
        // Only where it exists: no recovery here, no scans elsewhere.
        let names =
            |w: &str| -> Vec<&str> { end_to_end_of(&r, w).iter().map(|(n, _)| *n).collect() };
        assert!(!names("snapshot_reads").contains(&"recovery_s"));
        assert_eq!(names("crash_recovery").len(), END_TO_END.len() + 1);
        assert_eq!(names("ingest_front").len(), END_TO_END.len());
        // Median over rounds, with the spread beside it.
        let rounds = vec![
            vec![("x", 1.0)],
            vec![("x", 5.0)],
            vec![("x", 2.0)],
            vec![("y", 9.0)],
        ];
        let s = over_rounds(&rounds, "x", Pick::Median).unwrap();
        assert_eq!((s.value, s.n), (2.0, 3));
        assert_eq!(over_rounds(&rounds, "x", Pick::Lowest).unwrap().value, 1.0);
        assert!(over_rounds(&rounds, "z", Pick::Median).is_none());
        let of = |name: &str| pick_for(END_TO_END.iter().find(|m| m.name == name).unwrap());
        assert_eq!(of("setup_s"), Pick::Median);
        assert_eq!(of("txn_p99_ms"), Pick::Lowest);
        assert_eq!(of("txn_per_s"), Pick::Highest);
    }

    #[test]
    fn result_line_is_wellformed_json_with_every_digit() {
        let m = Reported {
            name: "x_ms",
            unit: "ms",
            over_rounds: Summary {
                value: 1.20345678912,
                iqr: 0.001,
                n: 5,
            },
        }
        .full();
        let text = m.render();
        assert!(text.contains("1.20345678912"), "{text}");
        assert_eq!(json::parse(&text).unwrap(), m);
    }
}
