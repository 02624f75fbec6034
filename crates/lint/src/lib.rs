//! harbor-lint: a repo-specific static analyzer for HARBOR's hand-enforced
//! invariants. Zero external dependencies (the container is offline), built
//! on a small hand-rolled lexer ([`lexer`]) plus a brace/scope tracker.
//!
//! Three per-file rule families (see DESIGN.md "Enforced invariants"):
//!
//! * **`lock-across-blocking`** — a `MutexGuard`/`RwLock` guard must not
//!   span a blocking call (channel send/recv, page I/O, RPC helpers, a
//!   thread spawn, a nested lock acquisition): PR 3's lost-write race was
//!   born exactly in this class of lock-scope subtlety.
//! * **`error-taxonomy`** — `DbError::Timeout` / `SiteUnavailable` /
//!   `CorruptPage` may only be *constructed* at classification boundaries
//!   (the RPC deadline helpers, checksum verification, admission control,
//!   and the one wire decoder in `error.rs`): recovery failover and scrub
//!   repair dispatch on these classes, so ad-hoc construction elsewhere
//!   corrupts failure handling.
//! * **`panic-ratchet`** — `.unwrap()` / `.expect()` counts per crate are
//!   pinned in `lint-baseline.toml` and may only shrink (test code exempt).
//!
//! One workspace-graph rule runs over a cross-file index ([`index`]) rather
//! than one file at a time:
//!
//! * **`deadline-propagation`** ([`taint`]) — dataflow from `crates/front`'s
//!   deadline-carrying entry points along a call graph resolved by bare
//!   name: a path in that graph must not `recv()` untimed, retry
//!   unboundedly, or do page I/O without consulting the budget.
//!
//! Suppressed graph findings ratchet in `lint-baseline.toml` beside the
//! panic ratchet, and like it exact-match: new findings and stale entries
//! both fail.
//!
//! What other witnesses already prove is not re-checked here: rustc and
//! `#![forbid(unsafe_code)]` rule out data races, the runtime
//! `harbor_common::lockrank` witness holds the lock order, and the
//! same-seed replay tests hold the fault plane's determinism.
//!
//! Escape hatch: `// harbor-lint: allow(<rule>) — <reason>` on the
//! offending line (or the line above). The reason is mandatory.

#![forbid(unsafe_code)]

pub mod index;
pub mod lexer;
pub mod taint;

use lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub const RULE_LOCK_BLOCKING: &str = "lock-across-blocking";
pub const RULE_TAXONOMY: &str = "error-taxonomy";
pub const RULE_RATCHET: &str = "panic-ratchet";
pub const RULE_ALLOW: &str = "lint-allow";
pub const RULE_DEADLINE: &str = "deadline-propagation";

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// ---------------------------------------------------------------------------
// Repo-specific rule configuration
// ---------------------------------------------------------------------------

/// Files allowed to construct the classified error variants: the taxonomy
/// definition itself plus the classification boundaries (RPC deadline
/// helpers, page-checksum verification, serving-path admission control).
pub const TAXONOMY_BOUNDARIES: [&str; 4] = [
    "common/src/error.rs",    // the taxonomy, its constructors, its wire decoder
    "dist/src/lib.rs",        // next_frame: a silent peer is SiteUnavailable
    "storage/src/file.rs",    // checksum verification: the only CorruptPage source
    "front/src/admission.rs", // load shedding: the only Overloaded source
];

/// The error variants whose construction is confined to the boundaries.
const CLASSIFIED_VARIANTS: [&str; 7] = [
    "Timeout",
    "SiteUnavailable",
    "CorruptPage",
    "Overloaded",
    "timeout",     // DbError::timeout(..) convenience constructor
    "unavailable", // DbError::unavailable(..)
    "overloaded",  // DbError::overloaded(..)
];

/// Method names (after a `.`) that block: channel traffic, page I/O,
/// connection setup. Holding a lock guard across any of these is rule
/// `lock-across-blocking`.
pub(crate) const BLOCKING_METHODS: [&str; 8] = [
    "send",
    "recv",
    "recv_timeout",
    "connect",
    "accept",
    "accept_timeout",
    "read_page",
    "write_page",
];

/// Free-function / repo helper names that block internally (the waits for
/// a peer and what is built on them, retry loops). Matched as `name(`; each
/// is a `fn` defined under `crates/*/src`.
pub(crate) const BLOCKING_HELPERS: [&str; 9] = [
    "next_frame",
    "rpc",
    "scan_rpc",
    "drain_scan_replies",
    "scan_rows",
    "recv_or_stop",
    "ask",
    "with_read_retries",
    "retry_with",
];

/// Guard-producing zero-arg methods (`m.lock()`, `rw.read()`, `rw.write()`).
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// Report for one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    /// Non-test `.unwrap()` / `.expect(` count (panic ratchet input).
    pub unwraps: usize,
}

/// `true` for files whose entire contents are test/bench/example code.
pub fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
}

fn tok_is(t: &Token, text: &str) -> bool {
    t.text == text
}

fn match_seq(tokens: &[Token], at: usize, pat: &[&str]) -> bool {
    pat.len() <= tokens.len() - at
        && pat
            .iter()
            .enumerate()
            .all(|(k, p)| tok_is(&tokens[at + k], p))
}

/// A live lock guard bound by a `let`.
#[derive(Debug)]
struct Guard {
    name: String,
    /// Brace depth at the binding; the guard dies when depth drops below.
    depth: usize,
    line: u32,
}

/// Token ranges (by index) lying inside `#[cfg(test)] mod … { … }` bodies
/// or `#[test] fn … { … }` bodies.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let is_cfg_test = match_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_test_attr = match_seq(tokens, i, &["#", "[", "test", "]"]);
        if !(is_cfg_test || is_test_attr) {
            i += 1;
            continue;
        }
        // Skip this attribute and any further attributes, then expect
        // `mod name {` (cfg) or `fn name ( … ) … {` (test attr).
        let mut j = i;
        while j < tokens.len() && tok_is(&tokens[j], "#") {
            // Skip `#[ … ]` with bracket nesting.
            j += 1;
            if j < tokens.len() && tok_is(&tokens[j], "[") {
                let mut brackets = 1;
                j += 1;
                while j < tokens.len() && brackets > 0 {
                    if tok_is(&tokens[j], "[") {
                        brackets += 1;
                    } else if tok_is(&tokens[j], "]") {
                        brackets -= 1;
                    }
                    j += 1;
                }
            }
        }
        let is_item = j < tokens.len()
            && (tok_is(&tokens[j], "mod") || tok_is(&tokens[j], "fn") || tok_is(&tokens[j], "pub"));
        if !is_item {
            i += 1;
            continue;
        }
        // Find the body's opening brace: the first `{` outside parens.
        let mut parens = 0i32;
        let mut body_open = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" => parens += 1,
                ")" => parens -= 1,
                ";" if parens == 0 => break, // `mod name;` — no body here
                "{" if parens == 0 => {
                    body_open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        // Mark until the matching close brace.
        let mut braces = 1;
        let mut k = open + 1;
        while k < tokens.len() && braces > 0 {
            if tok_is(&tokens[k], "{") {
                braces += 1;
            } else if tok_is(&tokens[k], "}") {
                braces -= 1;
            }
            in_test[k] = true;
            k += 1;
        }
        for slot in in_test.iter_mut().take(k).skip(i) {
            *slot = true;
        }
        i = k;
    }
    in_test
}

/// Statement end: index of the `;` terminating the statement starting at
/// `start`, honouring (), [], {} nesting. Returns `None` when the file ends
/// first (malformed input; the caller just skips tracking).
fn statement_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut parens = 0i32;
    let mut brackets = 0i32;
    let mut braces = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(start) {
        match t.text.as_str() {
            "(" => parens += 1,
            ")" => parens -= 1,
            "[" => brackets += 1,
            "]" => brackets -= 1,
            "{" => braces += 1,
            "}" => braces -= 1,
            ";" if parens == 0 && brackets == 0 && braces == 0 => return Some(k),
            _ => {}
        }
        if braces < 0 {
            return None; // ran off the enclosing block
        }
    }
    None
}

/// Does `rhs` (the tokens after `=` up to `;`) end in a guard acquisition —
/// `….lock()`, `….read()`, `….write()`, optionally wrapped in a trailing
/// `.unwrap()` / `.expect(…)` or `?`?
fn rhs_is_guard_acquisition(rhs: &[Token]) -> bool {
    let mut end = rhs.len();
    // Strip a trailing `?`.
    while end > 0 && tok_is(&rhs[end - 1], "?") {
        end -= 1;
    }
    // Strip a trailing `.unwrap()` / `.expect(…)`.
    if end >= 4 && tok_is(&rhs[end - 1], ")") {
        // Find the `(` matching the final `)`.
        let mut depth = 0i32;
        let mut open = None;
        for k in (0..end).rev() {
            match rhs[k].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(open) = open {
            if open >= 2
                && tok_is(&rhs[open - 2], ".")
                && (tok_is(&rhs[open - 1], "unwrap") || tok_is(&rhs[open - 1], "expect"))
            {
                end = open - 2;
            }
        }
    }
    end >= 4
        && tok_is(&rhs[end - 1], ")")
        && tok_is(&rhs[end - 2], "(")
        && GUARD_METHODS.contains(&rhs[end - 3].text.as_str())
        && tok_is(&rhs[end - 4], ".")
}

/// Analyzes one file. `rel` is the path relative to the repo root, used for
/// rule targeting and reporting.
pub fn analyze_source(rel: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let mut report = FileReport::default();

    let allowed = |rule: &str, line: u32| -> bool {
        lexed
            .allows
            .iter()
            .any(|a| a.rule == rule && a.line == line)
    };
    for (rule, line) in &lexed.bare_allows {
        report.violations.push(Violation {
            file: rel.to_string(),
            line: *line,
            rule: RULE_ALLOW,
            msg: format!("allow({rule}) without a reason — explain why the rule is waived"),
        });
    }

    let whole_file_test = is_test_path(rel);
    let in_test = if whole_file_test {
        vec![true; tokens.len()]
    } else {
        test_regions(tokens)
    };

    let taxonomy_boundary = TAXONOMY_BOUNDARIES.iter().any(|m| rel.ends_with(m));
    let mut depth = 0usize;
    let mut paren_depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    // `matches!( … )` regions (paren depth at entry); constructions inside
    // are patterns, not expressions.
    let mut matches_regions: Vec<i32> = Vec::new();
    // Guards scheduled to activate once their binding statement ends.
    let mut pending_guards: Vec<(usize, Guard)> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let line = t.line;
        let tested = in_test[i];

        // Activate guards whose binding statement has completed.
        let mut k = 0;
        while k < pending_guards.len() {
            if pending_guards[k].0 <= i {
                let (_, g) = pending_guards.remove(k);
                guards.push(g);
            } else {
                k += 1;
            }
        }

        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            "(" => paren_depth += 1,
            ")" => {
                paren_depth -= 1;
                matches_regions.retain(|d| *d < paren_depth);
            }
            _ => {}
        }

        if t.kind == TokenKind::Ident {
            // matches!( … ) region entry.
            if tok_is(t, "matches")
                && i + 2 < tokens.len()
                && tok_is(&tokens[i + 1], "!")
                && tok_is(&tokens[i + 2], "(")
            {
                matches_regions.push(paren_depth);
            }

            // drop(name) kills a guard early.
            if tok_is(t, "drop")
                && i + 3 < tokens.len()
                && tok_is(&tokens[i + 1], "(")
                && tokens[i + 2].kind == TokenKind::Ident
                && tok_is(&tokens[i + 3], ")")
            {
                let name = &tokens[i + 2].text;
                guards.retain(|g| g.name != *name);
            }

            // let-bound guard acquisition.
            if tok_is(t, "let")
                && !(i > 0 && (tok_is(&tokens[i - 1], "if") || tok_is(&tokens[i - 1], "while")))
            {
                if let Some(end) = statement_end(tokens, i) {
                    // lhs: `let [mut] name = …` (single-ident patterns only).
                    let mut j = i + 1;
                    if j < end && tok_is(&tokens[j], "mut") {
                        j += 1;
                    }
                    if j + 1 < end
                        && tokens[j].kind == TokenKind::Ident
                        && tok_is(&tokens[j + 1], "=")
                    {
                        let rhs = &tokens[j + 2..end];
                        if rhs_is_guard_acquisition(rhs) {
                            if !tested && !allowed(RULE_LOCK_BLOCKING, line) {
                                for g in &guards {
                                    report.violations.push(Violation {
                                        file: rel.to_string(),
                                        line,
                                        rule: RULE_LOCK_BLOCKING,
                                        msg: format!(
                                            "guard `{}` (line {}) is still held while acquiring guard `{}` — \
                                             scope the first guard tighter or drop() it first",
                                            g.name, g.line, tokens[j].text
                                        ),
                                    });
                                }
                            }
                            pending_guards.push((
                                end,
                                Guard {
                                    name: tokens[j].text.clone(),
                                    depth,
                                    line,
                                },
                            ));
                        }
                    }
                }
            }
        }

        // Blocking call under a live guard.
        if !guards.is_empty() && !tested {
            let blocking: Option<&str> = if i + 2 < tokens.len()
                && tok_is(t, ".")
                && BLOCKING_METHODS.contains(&tokens[i + 1].text.as_str())
                && tok_is(&tokens[i + 2], "(")
            {
                Some(tokens[i + 1].text.as_str())
            } else if t.kind == TokenKind::Ident
                && BLOCKING_HELPERS.contains(&t.text.as_str())
                && i + 1 < tokens.len()
                && tok_is(&tokens[i + 1], "(")
                && !(i > 0 && tok_is(&tokens[i - 1], "fn"))
            {
                Some(t.text.as_str())
            } else if match_seq(tokens, i, &["thread", ":", ":", "sleep"]) {
                Some("thread::sleep")
            } else if match_seq(tokens, i, &["thread", ":", ":", "spawn", "("]) {
                // A guard across a spawn: the child runs concurrently
                // against a held lock.
                Some("thread::spawn")
            } else if match_seq(tokens, i, &[".", "spawn", "("]) {
                Some("spawn")
            } else {
                None
            };
            if let Some(call) = blocking {
                if !allowed(RULE_LOCK_BLOCKING, line) {
                    // One violation per guard would be noise; report against
                    // the outermost live guard.
                    if let Some(g) = guards.first() {
                        report.violations.push(Violation {
                            file: rel.to_string(),
                            line,
                            rule: RULE_LOCK_BLOCKING,
                            msg: format!(
                                "blocking call `{call}` while guard `{}` (line {}) is held — \
                                 release the guard first (PR 3's lost-write race lived here)",
                                g.name, g.line
                            ),
                        });
                    }
                }
            }
        }

        // Error-taxonomy: classified variants constructed outside the
        // classification boundaries.
        if !taxonomy_boundary
            && !tested
            && tok_is(t, "DbError")
            && match_seq(tokens, i + 1, &[":", ":"])
            && i + 3 < tokens.len()
            && CLASSIFIED_VARIANTS.contains(&tokens[i + 3].text.as_str())
            && !allowed(RULE_TAXONOMY, tokens[i + 3].line)
        {
            let variant = tokens[i + 3].text.clone();
            if is_construction(tokens, i + 3, &matches_regions, paren_depth) {
                report.violations.push(Violation {
                    file: rel.to_string(),
                    line: tokens[i + 3].line,
                    rule: RULE_TAXONOMY,
                    msg: format!(
                        "`DbError::{variant}` constructed outside a classification boundary — \
                         only {} may mint Timeout/SiteUnavailable/CorruptPage/Overloaded \
                         (recovery failover, scrub repair, and client retry dispatch on these \
                         classes)",
                        TAXONOMY_BOUNDARIES.join(", ")
                    ),
                });
            }
        }

        // Panic ratchet: non-test `.unwrap()` / `.expect(`.
        if !tested
            && i > 0
            && tok_is(&tokens[i - 1], ".")
            && (tok_is(t, "unwrap") || tok_is(t, "expect"))
            && i + 1 < tokens.len()
            && tok_is(&tokens[i + 1], "(")
        {
            report.unwraps += 1;
        }

        i += 1;
    }

    report
}

/// Decides whether `DbError::<Variant>` at token index `vi` is an
/// expression (construction) rather than a match/if-let pattern.
fn is_construction(
    tokens: &[Token],
    vi: usize,
    matches_regions: &[i32],
    _paren_depth: i32,
) -> bool {
    if !matches_regions.is_empty() {
        return false; // inside matches!(…): always a pattern
    }
    let next = match tokens.get(vi + 1) {
        Some(n) => n,
        None => return false,
    };
    let close = match next.text.as_str() {
        "(" => matching_close(tokens, vi + 1, "(", ")"),
        "{" => {
            // `{ .. }` (rest pattern) is a pattern.
            if let Some(close) = matching_close(tokens, vi + 1, "{", "}") {
                if tokens[vi + 1..close]
                    .windows(2)
                    .any(|w| tok_is(&w[0], ".") && tok_is(&w[1], "."))
                {
                    return false;
                }
                Some(close)
            } else {
                None
            }
        }
        // Bare path (`map_err(DbError::timeout)`): expression use.
        _ => return true,
    };
    let Some(mut k) = close else { return true };
    // `(_)` is a pattern.
    if tok_is(&tokens[vi + 1], "(") && k == vi + 3 && tok_is(&tokens[vi + 2], "_") {
        return false;
    }
    // Skip closing parens of enclosing `Err( … )` wrappers, then look for
    // the `=` of a match arm (`=>`) or `if let`/`while let` (`= scrutinee`).
    k += 1;
    while k < tokens.len() && tok_is(&tokens[k], ")") {
        k += 1;
    }
    if k < tokens.len() && tok_is(&tokens[k], "=") {
        return false; // `… => arm` or `if let … = scrutinee`
    }
    // `Timeout(_) | Timeout(m)` alternation in a pattern.
    if k < tokens.len() && tok_is(&tokens[k], "|") {
        return false;
    }
    true
}

fn matching_close(tokens: &[Token], open: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if tok_is(t, o) {
            depth += 1;
        } else if tok_is(t, c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Tree walking + the panic-ratchet baseline
// ---------------------------------------------------------------------------

/// Directories never descended into.
const SKIP_DIRS: [&str; 6] = [
    "target",
    "shims",
    ".git",
    "fixtures",
    "node_modules",
    ".github",
];

/// Collects the workspace `.rs` files under `root`, sorted for stable output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Crate-directory key for the ratchet (`crates/<name>` or the top-level
/// `src`/`tests`/… component).
pub fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(c) => format!("crates/{c}"),
            None => "crates".to_string(),
        },
        Some(first) => first.to_string(),
        None => rel.to_string(),
    }
}

/// The ratchet file, `lint-baseline.toml`: section → key → count. `[unwraps]`
/// pins the non-test `.unwrap()`/`.expect()` count of each crate;
/// `[allows.<rule>]` pins, per crate, the workspace-graph findings of `<rule>`
/// that a reasoned `// harbor-lint: allow(...)` suppresses.
pub type Baseline = BTreeMap<String, BTreeMap<String, usize>>;

pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Parses the ratchet file: `[section]` headers over `"key" = count` lines.
pub fn parse_baseline(text: &str) -> Baseline {
    let mut map = Baseline::new();
    let mut section: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = Some(name.to_string());
            continue;
        }
        let Some(section) = &section else { continue };
        if let Some((k, v)) = line.split_once('=') {
            let key = k.trim().trim_matches('"').to_string();
            if let Ok(n) = v.trim().parse::<usize>() {
                map.entry(section.clone()).or_default().insert(key, n);
            }
        }
    }
    map
}

/// Renders the ratchet file; a section with nothing to pin is left out.
pub fn render_baseline(map: &Baseline) -> String {
    let mut out = String::from(
        "# harbor-lint ratchet. [unwraps]: .unwrap()/.expect() counts per crate in\n\
         # non-test code. [allows.<rule>]: findings of the workspace-graph rule\n\
         # (deadline-propagation) suppressed by a reasoned\n\
         # `// harbor-lint: allow(...)`, per crate. Every count must match exactly:\n\
         # a higher one is a regression, a lower or vanished one means this file\n\
         # is stale. After removing unwraps or adding/removing an allow on\n\
         # purpose, regenerate in the same change:\n\
         # cargo run -p harbor-lint -- --update\n",
    );
    for (section, counts) in map.iter().filter(|(_, counts)| !counts.is_empty()) {
        out.push_str(&format!("\n[{section}]\n"));
        for (k, v) in counts {
            out.push_str(&format!("\"{k}\" = {v}\n"));
        }
    }
    out
}

/// Compares the measured counts against the committed file, section by
/// section. The counts must match exactly: higher is a regression, lower (or
/// an entry with nothing left to pin) means the ratchet can tighten —
/// regenerate the file in the same change.
pub fn check_ratchet(current: &Baseline, committed: &Baseline) -> Vec<Violation> {
    let violation = |msg: String| Violation {
        file: BASELINE_FILE.into(),
        line: 0,
        rule: RULE_RATCHET,
        msg,
    };
    let update = "`cargo run -p harbor-lint -- --update`";
    let empty = BTreeMap::new();
    let sections: BTreeSet<&String> = current.keys().chain(committed.keys()).collect();
    let mut out = Vec::new();
    for section in sections {
        let cur = current.get(section).unwrap_or(&empty);
        let base = committed.get(section).unwrap_or(&empty);
        for (k, n) in cur {
            match base.get(k) {
                None => out.push(violation(format!(
                    "[{section}] {k} counts {n} but has no entry — run {update}"
                ))),
                Some(b) if n > b => out.push(violation(format!(
                    "[{section}] {k} grew {b} → {n}; the ratchet only shrinks — propagate \
                     a DbError or fix the finding (a deliberate new allow is recorded with {update})"
                ))),
                Some(b) if n < b => out.push(violation(format!(
                    "[{section}] {k} shrank {b} → {n}; tighten the ratchet with {update}"
                ))),
                _ => {}
            }
        }
        for k in base.keys().filter(|k| !cur.contains_key(*k)) {
            out.push(violation(format!(
                "[{section}] {k} has nothing left to pin — tighten the ratchet with {update}"
            )));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace-graph analysis (the index, then the taint pass)
// ---------------------------------------------------------------------------

/// Aggregate result of the full analysis: per-file rules plus the
/// workspace-graph pass, and the allow-suppressed graph findings that
/// the ratchet pins beside the unwrap counts.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub violations: Vec<Violation>,
    /// Non-test unwrap/expect counts keyed by crate directory.
    pub unwraps: BTreeMap<String, usize>,
    pub files_scanned: usize,
    /// rule → crate → count of findings suppressed by a reasoned allow.
    pub allowed_findings: BTreeMap<&'static str, BTreeMap<String, usize>>,
}

impl WorkspaceReport {
    /// The measured counts, in the shape of the committed ratchet file.
    pub fn baseline(&self) -> Baseline {
        let allows = self
            .allowed_findings
            .iter()
            .map(|(rule, counts)| (format!("allows.{rule}"), counts.clone()));
        std::iter::once(("unwraps".to_string(), self.unwraps.clone()))
            .chain(allows)
            .collect()
    }
}

/// Runs everything over in-memory `(rel_path, source)` pairs — the same
/// entry the fixture corpus tests use, so tests and production share one
/// code path.
pub fn analyze_sources(sources: &[(String, String)]) -> WorkspaceReport {
    let mut report = WorkspaceReport::default();
    for (rel, src) in sources {
        let fr = analyze_source(rel, src);
        report.violations.extend(fr.violations);
        if fr.unwraps > 0 {
            *report.unwraps.entry(crate_key(rel)).or_insert(0) += fr.unwraps;
        }
        report.files_scanned += 1;
    }
    let idx = index::build(sources);
    let (taint_viols, taint_allowed) = taint::check(&idx);
    report.violations.extend(taint_viols);
    if !taint_allowed.is_empty() {
        report.allowed_findings.insert(RULE_DEADLINE, taint_allowed);
    }
    report
}

/// Analyzes the workspace under `root` with all rule families.
pub fn analyze_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut sources = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(analyze_sources(&sources))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report for `--json`: violations (including any ratchet
/// violations the caller appends first), unwrap counts, suppressed-finding
/// counts. Hand-rolled: the container is offline, no serde.
pub fn render_json(report: &WorkspaceReport, violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"violations\": [\n");
    for (i, v) in violations.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\"}}{}\n",
            json_escape(&v.file),
            v.line,
            json_escape(v.rule),
            json_escape(&v.msg),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"unwraps\": {");
    let mut first = true;
    for (k, n) in &report.unwraps {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {}", json_escape(k), n));
    }
    out.push_str("},\n");
    out.push_str("  \"allowed_findings\": {");
    let mut first_rule = true;
    for (rule, counts) in &report.allowed_findings {
        if !first_rule {
            out.push_str(", ");
        }
        first_rule = false;
        out.push_str(&format!("\"{}\": {{", json_escape(rule)));
        let mut first_k = true;
        for (k, n) in counts {
            if !first_k {
                out.push_str(", ");
            }
            first_k = false;
            out.push_str(&format!("\"{}\": {}", json_escape(k), n));
        }
        out.push('}');
    }
    out.push_str("}\n}\n");
    out
}
