//! harbor-lint CLI. See `crates/lint/src/lib.rs` for the rule families.
//!
//! Usage:
//!   harbor-lint --check [--root PATH]       # lint + ratchets; exit 1 on findings
//!   harbor-lint --check --json              # machine-readable report on stdout
//!   harbor-lint --update [--root]           # rewrite lint-baseline.toml
//!   harbor-lint --list-rules

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut update = false;
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--update" => update = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("harbor-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                println!(
                    "lock-across-blocking no guard held across send/recv/page-IO/RPC/spawn/nested lock"
                );
                println!("error-taxonomy       Timeout/SiteUnavailable/CorruptPage minted only at classification boundaries");
                println!("panic-ratchet        unwrap/expect counts pinned in lint-baseline.toml, only shrink");
                println!("deadline-propagation paths in the bare-name call graph from front-door deadline entries must thread the deadline (no untimed recv, unbounded retry, budget-blind page I/O)");
                println!("lint-allow           every allow(<rule>) must carry a reason; graph-rule allows ratchet in lint-baseline.toml");
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: harbor-lint [--check] [--json] [--update] [--root PATH] [--list-rules]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("harbor-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !update {
        check = true; // bare invocation behaves like --check
    }

    let start = root_arg
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = find_root(start.clone()) else {
        eprintln!(
            "harbor-lint: no workspace Cargo.toml found above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    let report = match harbor_lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harbor-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let measured = report.baseline();
    let total: usize = report.unwraps.values().sum();
    let suppressed: usize = report
        .allowed_findings
        .values()
        .flat_map(|m| m.values())
        .sum();
    let baseline_path = root.join(harbor_lint::BASELINE_FILE);
    if update {
        let text = harbor_lint::render_baseline(&measured);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("harbor-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "harbor-lint: ratchet updated — {total} unwrap/expect calls across {} crates, \
             {suppressed} reasoned graph-finding allow(s)",
            report.unwraps.len()
        );
        if !check {
            return ExitCode::SUCCESS;
        }
    }

    let mut violations = report.violations.clone();
    let committed = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => harbor_lint::parse_baseline(&t),
        Err(_) => {
            eprintln!(
                "harbor-lint: {} missing — run --update once and commit it",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    violations.extend(harbor_lint::check_ratchet(&measured, &committed));

    if json {
        print!("{}", harbor_lint::render_json(&report, &violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if violations.is_empty() {
        println!(
            "harbor-lint: clean — {} files scanned, {} non-test unwrap/expect calls (ratchet holds), {} reasoned graph-finding allow(s)",
            report.files_scanned, total, suppressed
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("harbor-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
