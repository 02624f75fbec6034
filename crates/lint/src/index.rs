//! Pass 1 of the workspace-graph analyzer: a cross-file index over every
//! workspace `.rs` file.
//!
//! The per-file rules in `lib.rs` see one token stream at a time; the
//! [`taint`](crate::taint) rule needs facts that only exist across files:
//! which functions call which, and which carry or consult a deadline. This
//! module extracts them from the same hand-rolled lexer — no type
//! information, so everything is name-based and deliberately conservative
//! (see the imprecision notes on [`WorkspaceIndex`]).

use crate::lexer::{lex, Allow, Token, TokenKind};
use crate::{is_test_path, test_regions, BLOCKING_HELPERS, BLOCKING_METHODS};
use std::collections::BTreeMap;

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

/// One call site inside a fn body (method or free call, name-based).
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: String,
    pub line: u32,
}

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

#[derive(Clone, Debug)]
pub struct FnDef {
    pub id: usize,
    pub name: String,
    pub file: String,
    pub line: u32,
    pub crate_key: String,
    pub is_test: bool,
    /// A param named `deadline`/`budget` or typed `Instant`.
    pub has_deadline_param: bool,
    /// Body names any [`DEADLINE_TOKENS`] or [`DEADLINE_HELPERS`] ident.
    pub mentions_deadline: bool,
    pub calls: Vec<CallSite>,
    /// Untimed `.recv()` sites.
    pub recv_sites: Vec<u32>,
    pub loops: Vec<LoopSite>,
    /// `.read_page(` / `.write_page(` sites.
    pub page_io: Vec<(String, u32)>,
}

/// The whole-workspace index: pass 1's output, pass 2's input.
///
/// Imprecision, by design (token-level, no types):
/// * Call edges are resolved by bare name — a call to `commit` is an edge
///   to every fn named `commit`. A stoplist of ubiquitous names keeps this
///   sane, but the graph still over-approximates what can really run.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    pub fns: Vec<FnDef>,
    /// Per-file resolved allow directives, for finding suppression.
    pub allows: BTreeMap<String, Vec<Allow>>,
}

impl WorkspaceIndex {
    /// `true` when an `allow(<rule>)` directive covers `file:line`.
    pub fn allowed(&self, file: &str, rule: &str, line: u32) -> bool {
        self.allows
            .get(file)
            .map(|a| a.iter().any(|x| x.rule == rule && x.line == line))
            .unwrap_or(false)
    }
}

fn tok_is(t: &Token, s: &str) -> bool {
    t.text == s
}

fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

fn walk_fn_body(def: &mut FnDef, tokens: &[Token], body_open: usize, body_close: usize) {
    let mut i = body_open;
    while i < body_close {
        let t = &tokens[i];

        if t.kind == TokenKind::Ident {
            // Nested `fn` items get their own FnDef; skip their bodies here.
            if tok_is(t, "fn")
                && i > body_open
                && i + 1 < body_close
                && tokens[i + 1].kind == TokenKind::Ident
            {
                let mut j = i + 1;
                let mut parens = 0i32;
                while j < body_close {
                    match tokens[j].text.as_str() {
                        "(" => parens += 1,
                        ")" => parens -= 1,
                        ";" if parens == 0 => break,
                        "{" if parens == 0 => {
                            j = matching_brace(tokens, j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }

            // `loop { … }` sites.
            if tok_is(t, "loop") && i + 1 < body_close && tok_is(&tokens[i + 1], "{") {
                let close = matching_brace(tokens, i + 1);
                let body = &tokens[i + 1..close.min(body_close)];
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
                        && (BLOCKING_METHODS.contains(&s) || BLOCKING_HELPERS.contains(&s))
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
            if i + 1 < body_close
                && tok_is(&tokens[i + 1], "(")
                && !KEYWORDS.contains(&t.text.as_str())
                && !(i >= 1 && tok_is(&tokens[i - 1], "fn"))
            {
                def.calls.push(CallSite {
                    callee: t.text.clone(),
                    line: t.line,
                });
                // Untimed `.recv()` — empty argument list.
                if tok_is(t, "recv")
                    && i >= 1
                    && tok_is(&tokens[i - 1], ".")
                    && i + 2 < body_close
                    && tok_is(&tokens[i + 2], ")")
                {
                    def.recv_sites.push(t.line);
                }
                if (tok_is(t, "read_page") || tok_is(t, "write_page"))
                    && i >= 1
                    && tok_is(&tokens[i - 1], ".")
                {
                    def.page_io.push((t.text.clone(), t.line));
                }
            }
        }

        i += 1;
    }
}

fn collect_fns(
    rel: &str,
    tokens: &[Token],
    in_test: &[bool],
    next_id: &mut usize,
    out: &mut Vec<FnDef>,
) {
    let file_is_test = is_test_path(rel);
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].kind == TokenKind::Ident
            && tok_is(&tokens[i], "fn")
            && tokens[i + 1].kind == TokenKind::Ident)
        {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        let line = tokens[i + 1].line;

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
            i += 1;
            continue;
        }
        let params_open = j;
        let mut parens = 0i32;
        let mut params_close = j;
        while params_close < tokens.len() {
            match tokens[params_close].text.as_str() {
                "(" => parens += 1,
                ")" => {
                    parens -= 1;
                    if parens == 0 {
                        break;
                    }
                }
                _ => {}
            }
            params_close += 1;
        }

        // Body `{` (or `;` for a signature-only decl).
        let mut k = params_close + 1;
        let mut body = None;
        let mut kparens = 0i32;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" => kparens += 1,
                ")" => kparens -= 1,
                ";" if kparens == 0 => break,
                "{" if kparens == 0 => {
                    body = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(body_open) = body else {
            i = k.max(i + 1);
            continue;
        };
        let body_close = matching_brace(tokens, body_open);

        let params = &tokens[params_open..=params_close.min(tokens.len() - 1)];
        let has_deadline_param = params.iter().any(|p| {
            p.kind == TokenKind::Ident
                && matches!(p.text.as_str(), "deadline" | "budget" | "Instant")
        });

        let mut def = FnDef {
            id: *next_id,
            name,
            file: rel.to_string(),
            line,
            crate_key: crate::crate_key(rel),
            is_test: file_is_test || in_test.get(i).copied().unwrap_or(false),
            has_deadline_param,
            mentions_deadline: false,
            calls: Vec::new(),
            recv_sites: Vec::new(),
            loops: Vec::new(),
            page_io: Vec::new(),
        };
        *next_id += 1;
        walk_fn_body(&mut def, tokens, body_open, body_close);
        out.push(def);

        i = body_open + 1; // descend: nested fns found by the scan itself
    }
}

/// Builds the index over `(rel_path, source)` pairs.
pub fn build(sources: &[(String, String)]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    let mut next_id = 0usize;
    for (rel, src) in sources {
        let lx = lex(src);
        let in_test = test_regions(&lx.tokens);
        if !lx.allows.is_empty() {
            idx.allows.insert(rel.clone(), lx.allows.clone());
        }
        collect_fns(rel, &lx.tokens, &in_test, &mut next_id, &mut idx.fns);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn build_one(rel: &str, src: &str) -> WorkspaceIndex {
        build(&[(rel.to_string(), src.to_string())])
    }

    /// Every helper the rules name is a `fn` under `crates/*/src`: a name
    /// that is not matches nothing, and a guard held across the helper it
    /// was meant to be goes unflagged.
    #[test]
    fn every_listed_helper_is_a_workspace_fn() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut sources = Vec::new();
        for path in crate::collect_files(&root.join("crates")).unwrap() {
            let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
            let rel = rel.replace('\\', "/");
            if rel.split('/').nth(2) == Some("src") {
                sources.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
        let idx = build(&sources);
        let defined: BTreeSet<&str> = idx
            .fns
            .iter()
            .filter(|f| !f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        let listed = BLOCKING_HELPERS.iter().chain(&DEADLINE_HELPERS);
        let missing: Vec<&str> = listed.copied().filter(|n| !defined.contains(n)).collect();
        assert!(missing.is_empty(), "listed but never defined: {missing:?}");
    }

    #[test]
    fn fn_index_records_calls_recv_and_deadline() {
        let idx = build_one(
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
            "#,
        );
        let fetch = idx.fns.iter().find(|f| f.name == "fetch").unwrap();
        assert!(fetch.has_deadline_param);
        assert!(fetch.mentions_deadline);
        assert_eq!(fetch.recv_sites.len(), 1);
        assert!(fetch.calls.iter().any(|c| c.callee == "helper"));
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
        let idx = build_one("crates/x/src/lib.rs", src);
        let f = idx.fns.iter().find(|f| f.name == "retry_forever").unwrap();
        assert!(f.loops[0].has_continue && !f.loops[0].consults_deadline);
        let g = idx.fns.iter().find(|f| f.name == "bounded").unwrap();
        assert!(g.loops[0].consults_deadline && g.loops[0].has_blocking);
    }
}
