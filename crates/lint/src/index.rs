//! Pass 1 of the workspace-graph analyzer: a cross-file index over every
//! workspace `.rs` file.
//!
//! The per-file rules in `lib.rs` see one token stream at a time; the two
//! graph rules ([`lockset`](crate::lockset), [`taint`](crate::taint)) need
//! facts that only exist across files: which structs are *shared-intent*
//! (carry a `Mutex`/`RwLock` field), which fields of those structs are
//! plain data, which guards are held at each access site, which functions
//! call which, where threads are spawned and what guards leak into them,
//! and which functions carry or consult a deadline. This module extracts
//! all of that from the same hand-rolled lexer — no type information, so
//! everything is name-based and deliberately conservative (see the
//! imprecision notes on [`WorkspaceIndex`]).

use crate::lexer::{lex, Allow, Token, TokenKind};
use crate::{is_test_path, statement_end, test_regions, BLOCKING_HELPERS, BLOCKING_METHODS};
use std::collections::{BTreeMap, BTreeSet};

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

/// Mutating container methods: `x.field.push(…)` writes `field`.
const MUTATING_METHODS: [&str; 18] = [
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "clear",
    "extend",
    "take",
    "replace",
    "drain",
    "append",
    "retain",
    "sort",
    "swap",
    "truncate",
];

const KEYWORDS: [&str; 26] = [
    "if", "while", "for", "match", "loop", "return", "let", "as", "in", "move", "fn", "impl",
    "struct", "enum", "mod", "use", "pub", "where", "unsafe", "ref", "mut", "else", "break",
    "continue", "crate", "super",
];

/// How a struct field's declared type classifies for the lockset rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// `Mutex<_>` / `RwLock<_>` (possibly `Arc`-wrapped): a guard source.
    Lock,
    /// `Atomic*`: self-synchronizing, exempt.
    Atomic,
    /// Channel endpoints / condvars: synchronization plumbing, exempt.
    Sync,
    /// Everything else: plain data whose accesses need a consistent lockset.
    Plain,
}

#[derive(Clone, Debug)]
pub struct FieldDef {
    pub name: String,
    pub line: u32,
    pub kind: FieldKind,
}

#[derive(Clone, Debug)]
pub struct StructDef {
    pub name: String,
    pub file: String,
    pub line: u32,
    pub fields: Vec<FieldDef>,
    /// At least one `Lock` field: the struct is built to be shared across
    /// threads, so its plain fields are in scope for the lockset rule.
    pub shared_intent: bool,
    pub in_test: bool,
}

/// One call site inside a fn body (method or free call, name-based).
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: String,
    pub line: u32,
}

/// One access to a tracked shared field.
#[derive(Clone, Debug)]
pub struct FieldAccess {
    pub field: String,
    pub line: u32,
    pub write: bool,
    /// Lock names (`let g = self.<lock>.lock()` binds lock name `<lock>`)
    /// held at this access. Guards from outside a spawned closure do NOT
    /// carry in: the closure runs on another thread.
    pub lockset: Vec<String>,
    pub in_spawn: bool,
}

/// A `thread::spawn`/`.spawn(` site and the guards still live around it.
#[derive(Clone, Debug)]
pub struct SpawnSite {
    pub line: u32,
    /// `(guard variable, lock name)` pairs held when the spawn executes.
    pub guards_held: Vec<(String, String)>,
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
    /// Enclosing `impl` type, when inside one.
    pub qual: Option<String>,
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
    pub spawns: Vec<SpawnSite>,
    pub accesses: Vec<FieldAccess>,
}

/// The whole-workspace index: pass 1's output, pass 2's input.
///
/// Imprecision, by design (token-level, no types):
/// * Call edges are resolved by bare name — a call to `commit` taints every
///   fn named `commit`. A stoplist of ubiquitous names keeps this sane.
/// * Field accesses are attributed by field name; the lockset rule only
///   tracks names declared by exactly one struct workspace-wide.
/// * A lockset is the set of `let`-bound guards in scope, keyed by the name
///   of the locked field (`let g = self.roster.lock()` → holds `roster`).
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
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

    /// Plain fields of shared-intent structs whose name is declared by
    /// exactly one struct in the workspace (unambiguous attribution).
    pub fn tracked_fields(&self) -> BTreeMap<String, (String, String)> {
        let mut decl_count: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.structs {
            for f in &s.fields {
                *decl_count.entry(f.name.as_str()).or_insert(0) += 1;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.structs {
            if !s.shared_intent || s.in_test {
                continue;
            }
            for f in &s.fields {
                if f.kind == FieldKind::Plain && decl_count[f.name.as_str()] == 1 {
                    out.insert(f.name.clone(), (s.name.clone(), s.file.clone()));
                }
            }
        }
        out
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

/// `impl` header ranges: `(body_start, body_end, type_name)`.
fn impl_ranges(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Ident && tok_is(&tokens[i], "impl") {
            // Header runs to the body `{` (or an aborting `;`).
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut header: Vec<&Token> = Vec::new();
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "{" if angle == 0 => break,
                    ";" if angle == 0 => break,
                    _ => {}
                }
                if angle == 0 {
                    header.push(&tokens[j]);
                }
                j += 1;
            }
            if j < tokens.len() && tok_is(&tokens[j], "{") {
                // `impl Trait for Type` → Type; `impl Type` → first ident.
                let name = header
                    .iter()
                    .position(|t| tok_is(t, "for"))
                    .and_then(|p| header.get(p + 1))
                    .or_else(|| header.iter().find(|t| t.kind == TokenKind::Ident))
                    .map(|t| t.text.clone());
                let close = matching_brace(tokens, j);
                if let Some(name) = name {
                    out.push((j, close, name));
                }
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

fn classify_field_type(ty: &[&Token]) -> FieldKind {
    let mut kind = FieldKind::Plain;
    for t in ty {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Mutex" | "RwLock" => return FieldKind::Lock,
            "Condvar" | "Sender" | "Receiver" | "SyncSender" | "Barrier" | "Once" => {
                kind = FieldKind::Sync;
            }
            s if s.starts_with("Atomic") => kind = FieldKind::Atomic,
            _ => {}
        }
    }
    kind
}

fn collect_structs(rel: &str, tokens: &[Token], in_test: &[bool], out: &mut Vec<StructDef>) {
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].kind == TokenKind::Ident
            && tok_is(&tokens[i], "struct")
            && tokens[i + 1].kind == TokenKind::Ident)
        {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        let line = tokens[i + 1].line;
        // Find the field-block `{`; bail on tuple structs / unit structs.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut body = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "(" | ";" if angle == 0 => break,
                "{" if angle == 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j.max(i + 1);
            continue;
        };
        let close = matching_brace(tokens, open);
        let mut fields = Vec::new();
        let mut k = open + 1;
        let mut depth = 0i32; // nesting *inside* the field block
        while k < close {
            match tokens[k].text.as_str() {
                "{" | "(" | "[" | "<" => depth += 1,
                "}" | ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            // A field: `name :` at block top level, not `::`.
            if depth == 0
                && tokens[k].kind == TokenKind::Ident
                && !tok_is(&tokens[k], "pub")
                && k + 1 < close
                && tok_is(&tokens[k + 1], ":")
                && !(k + 2 < close && tok_is(&tokens[k + 2], ":"))
                && !(k >= 1 && tok_is(&tokens[k - 1], ":"))
            {
                // Type runs to the `,` at depth 0 (or the block close).
                let mut t = k + 2;
                let mut tdepth = 0i32;
                let mut ty: Vec<&Token> = Vec::new();
                while t < close {
                    match tokens[t].text.as_str() {
                        "{" | "(" | "[" | "<" => tdepth += 1,
                        "}" | ")" | "]" | ">" => tdepth -= 1,
                        "," if tdepth <= 0 => break,
                        _ => {}
                    }
                    ty.push(&tokens[t]);
                    t += 1;
                }
                fields.push(FieldDef {
                    name: tokens[k].text.clone(),
                    line: tokens[k].line,
                    kind: classify_field_type(&ty),
                });
                k = t;
                continue;
            }
            k += 1;
        }
        let shared_intent = fields.iter().any(|f| f.kind == FieldKind::Lock);
        out.push(StructDef {
            name,
            file: rel.to_string(),
            line,
            fields,
            shared_intent,
            in_test: is_test_path(rel) || in_test.get(i).copied().unwrap_or(false),
        });
        i = open;
    }
}

/// A live guard inside a fn body walk.
struct LiveGuard {
    var: String,
    lock: String,
    depth: usize,
}

struct SpawnRegion {
    end: usize,
    /// Guards below this index in the stack belong to the spawning thread.
    guard_floor: usize,
}

/// Extracts the lock name from a guard-acquisition rhs: the last ident
/// before the final `.lock()`/`.read()`/`.write()` chain head.
fn rhs_lock_name(rhs: &[Token]) -> String {
    // Walk back from the end past `?`/`.unwrap()`/`.expect(…)` to the guard
    // method, then take the ident before its `.`.
    let mut k = rhs.len();
    while k > 0 {
        if rhs[k - 1].kind == TokenKind::Ident
            && matches!(rhs[k - 1].text.as_str(), "lock" | "read" | "write")
            && k >= 2
            && tok_is(&rhs[k - 2], ".")
        {
            if k >= 3 && rhs[k - 3].kind == TokenKind::Ident {
                return rhs[k - 3].text.clone();
            }
            return rhs[k - 1].text.clone();
        }
        k -= 1;
    }
    "?".to_string()
}

/// Finds the closure body `{ … }` of a spawn call whose argument list opens
/// at `open` (index of `(`). Returns the body's `(open, close)` brace span.
fn spawn_closure_body(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = open;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "{" if depth >= 1 => {
                return Some((k, matching_brace(tokens, k)));
            }
            _ => {}
        }
        k += 1;
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn walk_fn_body(
    def: &mut FnDef,
    tokens: &[Token],
    body_open: usize,
    body_close: usize,
    tracked_hint: &BTreeSet<String>,
) {
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut spawn_regions: Vec<SpawnRegion> = Vec::new();
    let mut depth = 0usize;
    let mut i = body_open;
    while i < body_close {
        let t = &tokens[i];

        // Leaving spawned-closure regions.
        spawn_regions.retain(|r| i < r.end);

        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            _ => {}
        }

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

            // `drop(name)` kills a guard early.
            if tok_is(t, "drop")
                && i + 3 < body_close
                && tok_is(&tokens[i + 1], "(")
                && tokens[i + 2].kind == TokenKind::Ident
                && tok_is(&tokens[i + 3], ")")
            {
                let name = &tokens[i + 2].text;
                guards.retain(|g| g.var != *name);
            }

            // `let [mut] name = <rhs ending in .lock()/.read()/.write()>;`
            if tok_is(t, "let")
                && !(i > 0 && (tok_is(&tokens[i - 1], "if") || tok_is(&tokens[i - 1], "while")))
            {
                if let Some(end) = statement_end(tokens, i) {
                    let mut j = i + 1;
                    if j < end && tok_is(&tokens[j], "mut") {
                        j += 1;
                    }
                    if j + 1 < end
                        && tokens[j].kind == TokenKind::Ident
                        && tok_is(&tokens[j + 1], "=")
                    {
                        let rhs = &tokens[j + 2..end];
                        if crate::rhs_is_guard_acquisition(rhs) {
                            guards.push(LiveGuard {
                                var: tokens[j].text.clone(),
                                lock: rhs_lock_name(rhs),
                                depth,
                            });
                        }
                    }
                }
            }

            // Spawn sites: `thread::spawn(`, `s.spawn(`, `Builder…spawn(`.
            let is_spawn = tok_is(t, "spawn")
                && i + 1 < body_close
                && tok_is(&tokens[i + 1], "(")
                && i >= 1
                && (tok_is(&tokens[i - 1], ".") || tok_is(&tokens[i - 1], ":"));
            if is_spawn {
                let held: Vec<(String, String)> = guards
                    .iter()
                    .map(|g| (g.var.clone(), g.lock.clone()))
                    .collect();
                def.spawns.push(SpawnSite {
                    line: t.line,
                    guards_held: held,
                });
                if let Some((_, close)) = spawn_closure_body(tokens, i + 1) {
                    spawn_regions.push(SpawnRegion {
                        end: close,
                        guard_floor: guards.len(),
                    });
                }
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

            // Tracked-field accesses: `. field` not followed by `(`.
            if i >= 1
                && tok_is(&tokens[i - 1], ".")
                && tracked_hint.contains(&t.text)
                && !(i + 1 < body_close && tok_is(&tokens[i + 1], "("))
            {
                let next = tokens.get(i + 1).map(|x| x.text.as_str()).unwrap_or("");
                let next2 = tokens.get(i + 2).map(|x| x.text.as_str()).unwrap_or("");
                let assign = next == "=" && next2 != "=" && next2 != ">";
                let compound =
                    matches!(next, "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") && next2 == "=";
                let mutated = next == "."
                    && tokens
                        .get(i + 2)
                        .map(|m| MUTATING_METHODS.contains(&m.text.as_str()))
                        .unwrap_or(false)
                    && tokens.get(i + 3).map(|p| tok_is(p, "(")).unwrap_or(false);
                let in_spawn = !spawn_regions.is_empty();
                let floor = spawn_regions
                    .iter()
                    .map(|r| r.guard_floor)
                    .max()
                    .unwrap_or(0);
                let lockset: Vec<String> = guards
                    .iter()
                    .skip(if in_spawn { floor } else { 0 })
                    .map(|g| g.lock.clone())
                    .collect();
                def.accesses.push(FieldAccess {
                    field: t.text.clone(),
                    line: t.line,
                    write: assign || compound || mutated,
                    lockset,
                    in_spawn,
                });
            }
        }

        i += 1;
    }
}

fn collect_fns(
    rel: &str,
    tokens: &[Token],
    in_test: &[bool],
    impls: &[(usize, usize, String)],
    tracked_hint: &BTreeSet<String>,
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

        let qual = impls
            .iter()
            .find(|(s, e, _)| *s < i && i < *e)
            .map(|(_, _, n)| n.clone());

        let mut def = FnDef {
            id: *next_id,
            name,
            qual,
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
            spawns: Vec::new(),
            accesses: Vec::new(),
        };
        *next_id += 1;
        walk_fn_body(&mut def, tokens, body_open, body_close, tracked_hint);
        out.push(def);

        i = body_open + 1; // descend: nested fns found by the scan itself
    }
}

/// Builds the index over `(rel_path, source)` pairs. Two passes: structs
/// first (every file), then fn bodies with the full shared-field set known.
pub fn build(sources: &[(String, String)]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    let mut lexed = Vec::with_capacity(sources.len());
    for (rel, src) in sources {
        let lx = lex(src);
        let in_test = test_regions(&lx.tokens);
        collect_structs(rel, &lx.tokens, &in_test, &mut idx.structs);
        if !lx.allows.is_empty() {
            idx.allows.insert(rel.clone(), lx.allows.clone());
        }
        lexed.push((rel, lx, in_test));
    }
    // The hint set for access scanning: every plain field of a shared
    // struct (uniqueness is re-checked by the lockset rule).
    let tracked_hint: BTreeSet<String> = idx
        .structs
        .iter()
        .filter(|s| s.shared_intent)
        .flat_map(|s| s.fields.iter())
        .filter(|f| f.kind == FieldKind::Plain)
        .map(|f| f.name.clone())
        .collect();
    let mut next_id = 0usize;
    for (rel, lx, in_test) in &lexed {
        let impls = impl_ranges(&lx.tokens);
        collect_fns(
            rel,
            &lx.tokens,
            in_test,
            &impls,
            &tracked_hint,
            &mut next_id,
            &mut idx.fns,
        );
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn structs_classify_fields() {
        let idx = build_one(
            "crates/x/src/lib.rs",
            "pub struct S { roster: Mutex<Vec<u32>>, hint: u64, n: AtomicUsize, tx: Sender<u8> }",
        );
        let s = &idx.structs[0];
        assert!(s.shared_intent);
        let kinds: Vec<_> = s.fields.iter().map(|f| (f.name.as_str(), f.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("roster", FieldKind::Lock),
                ("hint", FieldKind::Plain),
                ("n", FieldKind::Atomic),
                ("tx", FieldKind::Sync),
            ]
        );
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
        assert_eq!(fetch.qual.as_deref(), Some("S"));
        assert!(fetch.has_deadline_param);
        assert!(fetch.mentions_deadline);
        assert_eq!(fetch.recv_sites.len(), 1);
        assert!(fetch.calls.iter().any(|c| c.callee == "helper"));
    }

    #[test]
    fn locksets_reset_inside_spawn_closures() {
        let src = r#"
        struct S { roster: Mutex<u32>, hint: u64 }
        impl S {
            fn outside(&self) {
                let g = self.roster.lock();
                self.hint = 1;
                std::thread::spawn(move || {
                    self.hint = 2;
                });
            }
        }
        "#;
        let idx = build_one("crates/x/src/lib.rs", src);
        let f = idx.fns.iter().find(|f| f.name == "outside").unwrap();
        assert_eq!(f.accesses.len(), 2);
        assert_eq!(f.accesses[0].lockset, vec!["roster".to_string()]);
        assert!(!f.accesses[0].in_spawn);
        assert!(f.accesses[1].lockset.is_empty(), "{:?}", f.accesses[1]);
        assert!(f.accesses[1].in_spawn);
        assert_eq!(f.spawns.len(), 1);
        assert_eq!(f.spawns[0].guards_held.len(), 1);
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
