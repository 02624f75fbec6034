//! Pass 1 of the workspace-graph analyzer: the fns of every workspace `.rs`
//! file, with the facts that only exist across files.
//!
//! The per-file rules in `lib.rs` see one token stream at a time; the
//! [`taint`](crate::taint) rule needs to know which functions call which,
//! and which carry or consult a deadline. This module reads them off the
//! same token stream — no type information, so everything is name-based
//! and deliberately conservative (see the imprecision note on [`FnDef`]).
//! Test code (`#[test]` and `#[cfg(test)]` fns) gets no node: a test helper
//! that shares a name with a callee must not link a front-door fn to code
//! only tests reach.

use crate::lexer::{Token, TokenKind};
use crate::{blocks, body_open, matching_close, BLOCKING_HELPERS, PAGE_IO};

/// Idents whose presence in a fn body counts as "consults the deadline":
/// the obvious budget vocabulary, plus [`DEADLINE_HELPERS`].
pub const DEADLINE_TOKENS: [&str; 8] = [
    "deadline",
    "rpc_deadline",
    "deadline_ms",
    "budget",
    "remaining",
    "elapsed",
    "wait_for",
    "wait_until",
];

/// The repo's deadline-carrying helpers: each is a `fn` defined under
/// `crates/*/src` that is given a deadline or classifies one's expiry.
pub const DEADLINE_HELPERS: [&str; 7] = [
    "recv_timeout",
    "accept_timeout",
    "next_frame",
    "rpc",
    "scan_rpc",
    "silent_peer",
    "deadline_expired",
];

fn consults_deadline(ident: &str) -> bool {
    DEADLINE_TOKENS.contains(&ident) || DEADLINE_HELPERS.contains(&ident)
}

/// Loop-bounding vocabulary: a retry loop naming one of these is treating
/// attempts as finite even if we can't prove it.
const BOUND_TOKENS: [&str; 6] = [
    "attempt",
    "attempts",
    "retries",
    "max_retries",
    "tries",
    "backoff",
];

const KEYWORDS: [&str; 26] = [
    "if", "while", "for", "match", "loop", "return", "let", "as", "in", "move", "fn", "impl",
    "struct", "enum", "mod", "use", "pub", "where", "unsafe", "ref", "mut", "else", "break",
    "continue", "crate", "super",
];

/// An (often intentionally) infinite `loop` containing blocking work.
#[derive(Clone, Debug)]
pub struct LoopSite {
    pub line: u32,
    pub has_blocking: bool,
    /// `continue` inside the loop: the retry signature.
    pub has_continue: bool,
    /// Names a deadline/budget/attempt token: treated as bounded.
    pub consults_deadline: bool,
}

/// One non-test fn.
///
/// Imprecision, by design (token-level, no types): a call is recorded by
/// its bare name, and pass 2 resolves it to every fn of that name. A
/// stoplist of ubiquitous names keeps this sane, but the graph still
/// over-approximates what can really run.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    pub file: String,
    /// A param named `deadline`/`budget` or typed `Instant`.
    pub has_deadline_param: bool,
    /// Body names any [`DEADLINE_TOKENS`] or [`DEADLINE_HELPERS`] ident.
    pub mentions_deadline: bool,
    /// Callee names, method or free.
    pub calls: Vec<String>,
    /// Untimed `.recv()` sites.
    pub recv_sites: Vec<u32>,
    pub loops: Vec<LoopSite>,
    /// [`PAGE_IO`] call sites.
    pub page_io: Vec<(String, u32)>,
}

fn tok_is(t: &Token, s: &str) -> bool {
    t.text == s
}

fn walk_fn_body(def: &mut FnDef, tokens: &[Token], open: usize, close: usize) {
    let mut i = open;
    while i < close {
        let t = &tokens[i];

        if t.kind == TokenKind::Ident {
            // Nested `fn` items get their own FnDef; skip their bodies here.
            if tok_is(t, "fn")
                && i > open
                && i + 1 < close
                && tokens[i + 1].kind == TokenKind::Ident
            {
                i = body_open(tokens, i)
                    .and_then(|o| matching_close(tokens, o))
                    .map_or(i + 1, |c| c + 1);
                continue;
            }

            // `loop { … }` sites.
            if tok_is(t, "loop") && i + 1 < close && tok_is(&tokens[i + 1], "{") {
                let end = matching_close(tokens, i + 1).unwrap_or(tokens.len());
                let body = &tokens[i + 1..end.min(close)];
                let mut has_blocking = false;
                let mut has_continue = false;
                let mut consults = false;
                for (k, bt) in body.iter().enumerate() {
                    if bt.kind != TokenKind::Ident {
                        continue;
                    }
                    let s = bt.text.as_str();
                    if s == "continue" {
                        has_continue = true;
                    }
                    if consults_deadline(s) || BOUND_TOKENS.contains(&s) {
                        consults = true;
                    }
                    let called = k + 1 < body.len() && tok_is(&body[k + 1], "(");
                    if called
                        && (blocks(s) || BLOCKING_HELPERS.contains(&s))
                        && !(k >= 1 && tok_is(&body[k - 1], "fn"))
                    {
                        has_blocking = true;
                    }
                }
                def.loops.push(LoopSite {
                    line: t.line,
                    has_blocking,
                    has_continue,
                    consults_deadline: consults,
                });
            }

            // Deadline vocabulary anywhere in the body.
            if consults_deadline(&t.text) {
                def.mentions_deadline = true;
            }

            // Call sites: `name (` — method (`.name(`) or free/path call.
            if i + 1 < close
                && tok_is(&tokens[i + 1], "(")
                && !KEYWORDS.contains(&t.text.as_str())
                && !(i >= 1 && tok_is(&tokens[i - 1], "fn"))
            {
                def.calls.push(t.text.clone());
                let method = i >= 1 && tok_is(&tokens[i - 1], ".");
                // Untimed `.recv()` — empty argument list.
                if method && tok_is(t, "recv") && i + 2 < close && tok_is(&tokens[i + 2], ")") {
                    def.recv_sites.push(t.line);
                }
                if method && PAGE_IO.contains(&t.text.as_str()) {
                    def.page_io.push((t.text.clone(), t.line));
                }
            }
        }

        i += 1;
    }
}

/// Appends the non-test fns of one lexed file to `out`.
pub(crate) fn collect_fns(rel: &str, tokens: &[Token], in_test: &[bool], out: &mut Vec<FnDef>) {
    for i in 0..tokens.len().saturating_sub(1) {
        if in_test[i]
            || !(tokens[i].kind == TokenKind::Ident
                && tok_is(&tokens[i], "fn")
                && tokens[i + 1].kind == TokenKind::Ident)
        {
            continue;
        }
        // Params: the `(`…`)` after the name (skipping generics).
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "(" if angle == 0 => break,
                "{" | ";" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() || !tok_is(&tokens[j], "(") {
            continue;
        }
        let params_close = matching_close(tokens, j).unwrap_or(tokens.len() - 1);
        // Body `{` (none for a signature-only decl).
        let Some(open) = body_open(tokens, params_close + 1) else {
            continue;
        };
        let close = matching_close(tokens, open).unwrap_or(tokens.len());
        let has_deadline_param = tokens[j..=params_close].iter().any(|p| {
            p.kind == TokenKind::Ident
                && matches!(p.text.as_str(), "deadline" | "budget" | "Instant")
        });

        let mut def = FnDef {
            name: tokens[i + 1].text.clone(),
            file: rel.to_string(),
            has_deadline_param,
            mentions_deadline: false,
            calls: Vec::new(),
            recv_sites: Vec::new(),
            loops: Vec::new(),
            page_io: Vec::new(),
        };
        walk_fn_body(&mut def, tokens, open, close);
        out.push(def);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::test_regions;
    use std::collections::BTreeSet;

    fn fns_of(rel: &str, src: &str) -> Vec<FnDef> {
        let lexed = lex(src);
        let mut fns = Vec::new();
        collect_fns(rel, &lexed.tokens, &test_regions(&lexed.tokens), &mut fns);
        fns
    }

    /// Every helper the rules name is a `fn` under `crates/*/src`: a name
    /// that is not matches nothing, and a guard held across the helper it
    /// was meant to be goes unflagged.
    #[test]
    fn every_listed_helper_is_a_workspace_fn() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut fns = Vec::new();
        for path in crate::collect_files(&crates).unwrap() {
            let src = std::fs::read_to_string(&path).unwrap();
            fns.extend(fns_of(&path.to_string_lossy(), &src));
        }
        let defined: BTreeSet<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        let listed = BLOCKING_HELPERS.iter().chain(&DEADLINE_HELPERS);
        let missing: Vec<&str> = listed.copied().filter(|n| !defined.contains(n)).collect();
        assert!(missing.is_empty(), "listed but never defined: {missing:?}");
    }

    #[test]
    fn fn_index_records_calls_recv_and_deadline() {
        let fns = fns_of(
            "crates/x/src/lib.rs",
            r#"
            impl S {
                fn fetch(&self, deadline: Instant) -> u32 {
                    let v = self.chan.recv();
                    helper(deadline);
                    v
                }
            }
            fn helper(deadline: Instant) {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
            "#,
        );
        let fetch = fns.iter().find(|f| f.name == "fetch").unwrap();
        assert!(fetch.has_deadline_param);
        assert!(fetch.mentions_deadline);
        assert_eq!(fetch.recv_sites.len(), 1);
        assert!(fetch.calls.iter().any(|c| c == "helper"));
        assert_eq!(fns.iter().filter(|f| f.name == "helper").count(), 1);
    }

    #[test]
    fn loop_sites_classify_retry_shape() {
        let src = r#"
        fn retry_forever(chan: &C) -> u32 {
            loop {
                match chan.recv_blocking() { _ => continue }
            }
        }
        fn bounded(chan: &C, deadline: Instant) -> u32 {
            loop {
                if deadline_expired(deadline) { break 0; }
                match chan.send(1) { _ => continue }
            }
        }
        "#;
        let fns = fns_of("crates/x/src/lib.rs", src);
        let f = fns.iter().find(|f| f.name == "retry_forever").unwrap();
        assert!(f.loops[0].has_continue && !f.loops[0].consults_deadline);
        let g = fns.iter().find(|f| f.name == "bounded").unwrap();
        assert!(g.loops[0].consults_deadline && g.loops[0].has_blocking);
    }
}
