//! harbor-lint: a repo-specific static analyzer for the HARBOR invariants
//! that neither rustc nor clippy can see. Zero external dependencies (the
//! container is offline), built on a small hand-rolled lexer ([`lexer`])
//! plus a brace/scope tracker. `tests/workspace.rs` runs it over the
//! repository.
//!
//! Two per-file rule families (see DESIGN.md "Enforced invariants"):
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
//!
//! One workspace-graph rule runs over the fns of every file ([`index`])
//! rather than one file at a time:
//!
//! * **`deadline-propagation`** ([`taint`]) — dataflow from `crates/front`'s
//!   deadline-carrying entry points along a call graph resolved by bare
//!   name: a path in that graph must not `recv()` untimed, retry
//!   unboundedly, or do page I/O without consulting the budget.
//!
//! What other witnesses already prove is not re-checked here: clippy's
//! `unwrap_used`/`expect_used`, denied in every crate root, holds the
//! panics; rustc and `#![forbid(unsafe_code)]` rule out data races, the
//! runtime `harbor_common::lockrank` witness holds the lock order, and the
//! same-seed replay tests hold the fault plane's determinism.
//!
//! Escape hatch: `// harbor-lint: allow(<rule>) — <reason>` on the
//! offending line (or the line above). The reason is mandatory, and an
//! allow that waives no finding is itself a `lint-allow` violation.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod index;
pub mod lexer;
pub mod taint;

use lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

pub const RULE_LOCK_BLOCKING: &str = "lock-across-blocking";
pub const RULE_TAXONOMY: &str = "error-taxonomy";
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

/// Page I/O method names: blocking under a guard (`lock-across-blocking`)
/// and, on a tainted path, budget-blind unless the fn consults the deadline
/// (`deadline-propagation`). `write_run` is the pool's one durable write.
pub(crate) const PAGE_IO: [&str; 3] = ["read_page", "write_page", "write_run"];

/// Method names (after a `.`) that block besides [`PAGE_IO`]: channel
/// traffic and connection setup. Holding a lock guard across any of these
/// is rule `lock-across-blocking`.
const BLOCKING_METHODS: [&str; 6] = [
    "send",
    "recv",
    "recv_timeout",
    "connect",
    "accept",
    "accept_timeout",
];

/// Does a call of `name` block on a channel, a connection or the disk?
pub(crate) fn blocks(name: &str) -> bool {
    BLOCKING_METHODS.contains(&name) || PAGE_IO.contains(&name)
}

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

/// The index of the delimiter closing the `(`, `[` or `{` at `open`.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
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

/// The `{` opening the body of the item whose tokens start at `from`: the
/// first brace outside parens, or `None` when a `;` ends the item first.
pub(crate) fn body_open(tokens: &[Token], from: usize) -> Option<usize> {
    let mut parens = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" => parens += 1,
            ")" => parens -= 1,
            ";" if parens == 0 => return None,
            "{" if parens == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// A live lock guard bound by a `let`.
#[derive(Clone, Debug, PartialEq)]
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
        while j + 1 < tokens.len() && tok_is(&tokens[j], "#") && tok_is(&tokens[j + 1], "[") {
            j = matching_close(tokens, j + 1).map_or(tokens.len(), |c| c + 1);
        }
        let is_item = j < tokens.len()
            && (tok_is(&tokens[j], "mod") || tok_is(&tokens[j], "fn") || tok_is(&tokens[j], "pub"));
        let Some(open) = body_open(tokens, j).filter(|_| is_item) else {
            i += 1;
            continue;
        };
        // Mark until the matching close brace.
        let close = matching_close(tokens, open).unwrap_or(tokens.len() - 1);
        in_test[i..=close].fill(true);
        i = close + 1;
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

/// The first token of the tail expression of the block closed at `close`.
fn tail_start(tokens: &[Token], close: usize) -> usize {
    let mut depth = 0i32;
    for k in (0..close).rev() {
        match tokens[k].text.as_str() {
            "}" | ")" | "]" => depth += 1,
            "{" | "(" | "[" if depth > 0 => depth -= 1,
            "{" | "(" | "[" | ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    0
}

/// Does a block's tail expression hand the guard `name` out whole, alone or
/// as an element (`(pid, page)`, `Some(g)`)? Then whatever binds the block's
/// value holds the guard.
fn yields(tail: &[Token], name: &str) -> bool {
    (0..tail.len()).any(|k| {
        tok_is(&tail[k], name)
            && (k == 0 || ["(", ",", "["].contains(&tail[k - 1].text.as_str()))
            && tail
                .get(k + 1)
                .is_none_or(|n| [")", ",", "]"].contains(&n.text.as_str()))
    })
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

/// The per-file rules over one lexed file. `rel` is the path relative to
/// the repo root, used for rule targeting and reporting; `in_test` marks the
/// tokens of test code, which no rule checks.
fn check_file(rel: &str, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    let mut report = |line, rule, msg| {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule,
            msg,
        })
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
    // Open `let name = …;` statements, by end: a block inside one that
    // yields a guard makes the binding a guard.
    let mut lets: Vec<(usize, Guard)> = Vec::new();

    for i in 0..tokens.len() {
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
                lets.retain(|(end, _)| *end > i);
                let tail = &tokens[tail_start(tokens, i)..i];
                let yielded = guards
                    .iter()
                    .any(|g| g.depth == depth && yields(tail, &g.name));
                if let Some(binding) = lets.iter().rev().find(|(_, l)| l.depth < depth) {
                    if yielded && !pending_guards.contains(binding) {
                        pending_guards.push(binding.clone());
                    }
                }
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

            // `let [mut] name [: Type] = …;` (single-ident patterns only).
            if tok_is(t, "let")
                && !(i > 0 && (tok_is(&tokens[i - 1], "if") || tok_is(&tokens[i - 1], "while")))
            {
                if let Some(end) = statement_end(tokens, i) {
                    let mut j = i + 1;
                    if j < end && tok_is(&tokens[j], "mut") {
                        j += 1;
                    }
                    let eq = (j + 1..end).find(|&k| tok_is(&tokens[k], "="));
                    let eq = eq.filter(|&eq| {
                        tokens[j].kind == TokenKind::Ident
                            && (eq == j + 1 || tok_is(&tokens[j + 1], ":"))
                    });
                    if let Some(eq) = eq {
                        let binding = Guard {
                            name: tokens[j].text.clone(),
                            depth,
                            line,
                        };
                        if rhs_is_guard_acquisition(&tokens[eq + 1..end]) {
                            if !tested {
                                for g in &guards {
                                    report(
                                        line,
                                        RULE_LOCK_BLOCKING,
                                        format!(
                                            "guard `{}` (line {}) is still held while acquiring guard `{}` — \
                                             scope the first guard tighter or drop() it first",
                                            g.name, g.line, binding.name
                                        ),
                                    );
                                }
                            }
                            pending_guards.push((end, binding.clone()));
                        }
                        lets.push((end, binding));
                    }
                }
            }
        }

        // Blocking call under a live guard.
        if !guards.is_empty() && !tested {
            let blocking: Option<&str> = if i + 2 < tokens.len()
                && tok_is(t, ".")
                && blocks(&tokens[i + 1].text)
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
            // One violation per guard would be noise; report against the
            // outermost live guard.
            if let (Some(call), Some(g)) = (blocking, guards.first()) {
                report(
                    line,
                    RULE_LOCK_BLOCKING,
                    format!(
                        "blocking call `{call}` while guard `{}` (line {}) is held — \
                         release the guard first (a lost write was born of this shape)",
                        g.name, g.line
                    ),
                );
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
            && matches_regions.is_empty()
            && is_construction(tokens, i + 3)
        {
            report(
                tokens[i + 3].line,
                RULE_TAXONOMY,
                format!(
                    "`DbError::{}` constructed outside a classification boundary — \
                     only {} may mint Timeout/SiteUnavailable/CorruptPage/Overloaded \
                     (recovery failover, scrub repair, and client retry dispatch on these \
                     classes)",
                    tokens[i + 3].text,
                    TAXONOMY_BOUNDARIES.join(", ")
                ),
            );
        }
    }
}

/// Decides whether `DbError::<Variant>` at token index `vi` is an
/// expression (construction) rather than a match/if-let pattern. Inside
/// `matches!(…)` it is always a pattern; the caller checks that.
fn is_construction(tokens: &[Token], vi: usize) -> bool {
    let next = match tokens.get(vi + 1) {
        Some(n) => n,
        None => return false,
    };
    let close = match next.text.as_str() {
        "(" => matching_close(tokens, vi + 1),
        "{" => {
            // `{ .. }` (rest pattern) is a pattern.
            if let Some(close) = matching_close(tokens, vi + 1) {
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

// ---------------------------------------------------------------------------
// The workspace: one source set, each file lexed once
// ---------------------------------------------------------------------------

/// Directories never descended into: build output, the vendored shims, and
/// test, bench and example code, which no rule checks.
const SKIP_DIRS: [&str; 5] = ["target", "shims", "tests", "benches", "examples"];

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

/// Runs every rule over in-memory `(rel_path, source)` pairs — the same
/// entry the fixture tests use, so tests and the workspace share one code
/// path. A finding on a line that a reasoned allow of its rule covers is
/// waived; an allow that waives nothing is itself a violation, like a bare
/// one.
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let mut found = Vec::new();
    let mut fns = Vec::new();
    let mut allows = Vec::new();
    let mut out = Vec::new();
    for (rel, src) in sources {
        let lexed = lex(src);
        let in_test = test_regions(&lexed.tokens);
        check_file(rel, &lexed.tokens, &in_test, &mut found);
        index::collect_fns(rel, &lexed.tokens, &in_test, &mut fns);
        for (rule, line) in lexed.bare_allows {
            out.push(Violation {
                file: rel.clone(),
                line,
                rule: RULE_ALLOW,
                msg: format!("allow({rule}) without a reason — explain why the rule is waived"),
            });
        }
        allows.extend(lexed.allows.into_iter().map(|a| (rel, a, false)));
    }
    found.extend(taint::check(&fns));
    for v in found {
        let mut waived = false;
        for (file, a, used) in &mut allows {
            if **file == v.file && a.rule == v.rule && a.line == v.line {
                *used = true;
                waived = true;
            }
        }
        if !waived {
            out.push(v);
        }
    }
    for (file, a, _) in allows.into_iter().filter(|(.., used)| !used) {
        out.push(Violation {
            file: file.clone(),
            line: a.line,
            rule: RULE_ALLOW,
            msg: format!(
                "allow({}) waives no finding on this line — delete it",
                a.rule
            ),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Analyzes the workspace under `root` with all rule families.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
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
