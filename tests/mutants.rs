//! The mutant catalogue (`tests/mutants.txt`) still applies to the tree:
//! every entry's `old` text occurs exactly once in its file and differs
//! from its `new` text. A mutant whose text has drifted is stale, like an
//! allow that waives nothing, and must be rewritten against the code or
//! retired with a line in CHANGES.md. That check runs no mutant; it keeps
//! the catalogue runnable.
//!
//! `every_mutant_is_killed` (ignored: a build of the tree per mutant) runs
//! them: `cargo test --test mutants -- --ignored`. It copies the tree once
//! under the temp directory (`TMPDIR`), with a target directory of its own,
//! checks that every entry's `kills` pass there unmutated, and then for
//! each entry applies `new`, requires `cargo test --no-run` to build,
//! requires the entry's `kills` to fail and restores `old`.

use std::collections::HashSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One catalogue entry.
#[derive(Debug, Default)]
struct Mutant {
    name: String,
    file: String,
    kills: String,
    old: Vec<String>,
    new: Vec<String>,
}

impl Mutant {
    fn old_text(&self) -> String {
        self.old.join("\n")
    }

    fn new_text(&self) -> String {
        self.new.join("\n")
    }
}

/// Parses the catalogue's format: `key: value` lines, then `old:` and
/// `new:` each followed by `|`-prefixed text lines, then `end`. Blank lines
/// and `#` comments separate entries.
fn parse(text: &str) -> Vec<Mutant> {
    #[derive(PartialEq)]
    enum In {
        Fields,
        Old,
        New,
    }
    let mut entries = Vec::new();
    let mut cur: Option<Mutant> = None;
    let mut state = In::Fields;
    for (no, line) in text.lines().enumerate() {
        let at = || format!("tests/mutants.txt:{}", no + 1);
        if let Some(body) = line.strip_prefix('|') {
            let m = cur
                .as_mut()
                .unwrap_or_else(|| panic!("{}: text outside an entry", at()));
            match state {
                In::Old => m.old.push(body.to_string()),
                In::New => m.new.push(body.to_string()),
                In::Fields => panic!("{}: text before `old:` or `new:`", at()),
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            assert!(cur.is_none(), "{}: entry not closed by `end`", at());
            continue;
        }
        match line {
            "old:" => state = In::Old,
            "new:" => {
                assert!(state == In::Old, "{}: `new:` before `old:`", at());
                state = In::New;
            }
            "end" => {
                assert!(state == In::New, "{}: `end` before `new:`", at());
                entries.push(
                    cur.take()
                        .unwrap_or_else(|| panic!("{}: stray `end`", at())),
                );
                state = In::Fields;
            }
            _ => {
                let (key, value) = line
                    .split_once(": ")
                    .unwrap_or_else(|| panic!("{}: not `key: value`: {line}", at()));
                let m = cur.get_or_insert_with(Mutant::default);
                match key {
                    "name" => m.name = value.to_string(),
                    "file" => m.file = value.to_string(),
                    "kills" => m.kills = value.to_string(),
                    "what" | "seen" => {}
                    _ => panic!("{}: unknown key `{key}`", at()),
                }
            }
        }
    }
    assert!(
        cur.is_none(),
        "tests/mutants.txt: last entry not closed by `end`"
    );
    entries
}

fn catalogue(root: &Path) -> Vec<Mutant> {
    let text = fs::read_to_string(root.join("tests/mutants.txt")).expect("read the catalogue");
    parse(&text)
}

#[test]
fn every_mutant_applies_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = catalogue(root);
    assert!(!entries.is_empty(), "the catalogue is empty");
    let mut names = HashSet::new();
    for m in &entries {
        assert!(!m.name.is_empty(), "an entry without a name: {m:?}");
        assert!(names.insert(m.name.as_str()), "{}: name used twice", m.name);
        assert!(
            !m.kills.is_empty(),
            "{}: names no test that kills it",
            m.name
        );
        let (old, new) = (m.old_text(), m.new_text());
        assert!(!old.is_empty(), "{}: empty `old`", m.name);
        assert_ne!(old, new, "{}: `new` is `old`", m.name);
        let source = fs::read_to_string(root.join(&m.file))
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", m.name, m.file));
        let found = source.match_indices(&old).count();
        assert_eq!(
            found, 1,
            "{}: `old` occurs {found} times in {}; rewrite the mutant against the code or retire it",
            m.name, m.file
        );
    }
}

/// Copies the tree under `from` to `to`, leaving out build output and
/// dot-directories (`.git`, the CI files).
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy");
    for entry in fs::read_dir(from).expect("read the tree") {
        let entry = entry.expect("read a directory entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let kind = entry.file_type().expect("a file type");
        if kind.is_dir() {
            copy_tree(&entry.path(), &to.join(&*name));
        } else if kind.is_file() {
            fs::copy(entry.path(), to.join(&*name)).expect("copy a file");
        }
    }
}

/// How long one cargo command may take before it counts as hung (a test
/// that hangs under a mutant has caught it).
const COMMAND_LIMIT: Duration = Duration::from_secs(15 * 60);

/// Runs `cargo <args>` in `dir`, output to `log`; `true` if it succeeded.
fn cargo(dir: &Path, args: &[&str], log: &Path) -> bool {
    let out = fs::File::create(log).expect("create the log");
    let err = out.try_clone().expect("clone the log");
    let mut child = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("start cargo");
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait for cargo") {
            return status.success();
        }
        if start.elapsed() > COMMAND_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return false;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

#[test]
#[ignore = "builds the tree once per mutant; CI's mutants job runs it"]
fn every_mutant_is_killed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = catalogue(root);
    assert!(!entries.is_empty(), "the catalogue is empty");
    let copy = std::env::temp_dir().join(format!("harbor-mutants-{}", std::process::id()));
    let _ = fs::remove_dir_all(&copy);
    copy_tree(root, &copy);
    let log = copy.join("mutant.log");
    // A kill counts only against tests that pass on the tree as it is.
    let mut baseline: Vec<&str> = entries.iter().map(|m| m.kills.as_str()).collect();
    baseline.sort_unstable();
    baseline.dedup();
    for kills in baseline {
        let run = [
            &["test", "--offline"][..],
            &kills.split_whitespace().collect::<Vec<_>>(),
        ]
        .concat();
        assert!(
            cargo(&copy, &run, &log),
            "`cargo {}` fails without a mutant; see {}",
            run.join(" "),
            log.display()
        );
    }
    let mut survivors = Vec::new();
    for m in &entries {
        let start = Instant::now();
        let path = copy.join(&m.file);
        let source = fs::read_to_string(&path).expect("read the mutated file");
        assert_eq!(
            source.matches(&m.old_text()).count(),
            1,
            "{}: stale",
            m.name
        );
        fs::write(&path, source.replacen(&m.old_text(), &m.new_text(), 1)).expect("apply");
        let kills: Vec<&str> = m.kills.split_whitespace().collect();
        let build = [&["test", "--offline", "--no-run"][..], &kills].concat();
        let run = [&["test", "--offline"][..], &kills].concat();
        let verdict = if !cargo(&copy, &["test", "--offline", "--no-run"], &log)
            || !cargo(&copy, &build, &log)
        {
            Some("does not build, so it kills nothing")
        } else if cargo(&copy, &run, &log) {
            Some("survives: its `kills` pass")
        } else {
            None
        };
        fs::write(&path, source).expect("restore");
        let line = format!(
            "{} {} in {} s",
            m.name,
            verdict.unwrap_or("killed"),
            start.elapsed().as_secs()
        );
        println!("{line}");
        if let Some(why) = verdict {
            let tail = fs::read_to_string(&log).unwrap_or_default();
            let tail: Vec<&str> = tail.lines().rev().take(20).collect();
            survivors.push(format!(
                "{} {why}; last lines of its log, newest first:\n  {}",
                m.name,
                tail.join("\n  ")
            ));
        }
    }
    assert!(
        survivors.is_empty(),
        "{} of {} mutants not killed (the copy stays at {}):\n{}",
        survivors.len(),
        entries.len(),
        copy.display(),
        survivors.join("\n")
    );
    let _ = fs::remove_dir_all(&copy);
}
