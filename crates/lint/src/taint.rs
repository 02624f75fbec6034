//! Pass 2: the deadline-propagation taint rule.
//!
//! The front door (PR 9) promises a per-request deadline: admission rejects
//! stale work, and `FrontHandler::execute` re-checks the budget between
//! engine steps. That promise only holds if the code a request runs keeps
//! consulting the deadline — one untimed `recv()` or unbounded retry loop
//! deep in `dist`/`core` and the worker pool wedges a slot until the wire
//! goes away, which is exactly the tail-latency bug class BENCH_serve's
//! p99-under-chaos exists to pin.
//!
//! The rule: seed taint at every fn in `crates/front` that takes a
//! deadline-shaped parameter, propagate along the call graph (a stoplist
//! of ubiquitous/leaf names bounds the blast radius), and flag on tainted
//! fns:
//!
//! * **untimed `recv()`** — waits forever on a path that promised a bound;
//! * **unbounded retry loops** — a `loop` with blocking work and a
//!   `continue` that never names a deadline/budget/attempt token;
//! * **page I/O that never consults the deadline** — only in the
//!   orchestration crates (`front`/`dist`/`core`), where a fn doing page
//!   I/O without receiving *or* mentioning a deadline has dropped the
//!   budget on the floor (engine/storage leaf I/O is one bounded step of a
//!   caller that re-checks between steps).
//!
//! The call graph has no types: a call edge goes to every fn of the called
//! bare name, so the graph over-approximates. A finding is a path in that
//! graph (the diagnostic prints up to six hops of it), not a proof that the
//! flagged code is reachable from a front-door entry point; read the chain
//! before fixing.
//!
//! Findings honour `// harbor-lint: allow(deadline-propagation) — reason`
//! like every other rule's.

use crate::index::FnDef;
use crate::{Violation, RULE_DEADLINE};
use std::collections::{HashMap, HashSet};

/// Callee names never followed when propagating taint: ubiquitous std/
/// container vocabulary plus the wire-leaf primitives whose *timed*
/// variants are the deadline consult.
const STOPLIST: [&str; 57] = [
    // std / container ubiquity
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "set",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "from",
    "into",
    "to_vec",
    "to_string",
    "as_slice",
    "as_ref",
    "as_mut",
    "as_bytes",
    "unwrap",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "collect",
    "extend",
    "contains",
    "contains_key",
    "with_capacity",
    "split",
    "join",
    "min",
    "max",
    "take",
    "store",
    "load",
    "swap",
    "write",
    "read",
    "lock", // guard methods, not calls to follow
    // wire-leaf primitives: their internals are the transport's concern
    "send",
    "recv",
    "recv_timeout",
];

/// Crates where page I/O on a tainted path must consult the deadline.
const ORCHESTRATION_CRATES: [&str; 3] = ["crates/front/", "crates/dist/", "crates/core/"];

/// Renders the taint chain `entry → … → fn` for a diagnostic.
fn chain(fns: &[FnDef], pred: &HashMap<usize, usize>, mut id: usize) -> String {
    let mut names = vec![fns[id].name.clone()];
    let mut hops = 0;
    while let Some(&p) = pred.get(&id) {
        names.push(fns[p].name.clone());
        id = p;
        hops += 1;
        if hops >= 6 {
            names.push("…".into());
            break;
        }
    }
    names.reverse();
    names.join(" → ")
}

/// Runs the taint pass over the fns of the workspace; an fn's id is its
/// index in `fns`.
pub fn check(fns: &[FnDef]) -> Vec<Violation> {
    let mut out = Vec::new();

    // Name → fn ids (bare-name resolution).
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(id);
    }

    // Seed: deadline-carrying entry points in crates/front.
    let mut queue: Vec<usize> = (0..fns.len())
        .filter(|&id| fns[id].file.starts_with("crates/front/") && fns[id].has_deadline_param)
        .collect();
    let mut tainted: HashSet<usize> = queue.iter().copied().collect();
    let mut pred: HashMap<usize, usize> = HashMap::new();

    // BFS along name-resolved call edges.
    let mut qi = 0usize;
    while qi < queue.len() {
        let id = queue[qi];
        qi += 1;
        for call in &fns[id].calls {
            if STOPLIST.contains(&call.as_str()) {
                continue;
            }
            if let Some(targets) = by_name.get(call.as_str()) {
                for &t in targets {
                    if tainted.insert(t) {
                        pred.insert(t, id);
                        queue.push(t);
                    }
                }
            }
        }
    }

    // Findings on tainted fns.
    let mut ids: Vec<usize> = tainted.into_iter().collect();
    ids.sort();
    for id in ids {
        let f = &fns[id];
        for &line in &f.recv_sites {
            out.push(Violation {
                file: f.file.clone(),
                line,
                rule: RULE_DEADLINE,
                msg: format!(
                    "untimed `recv()` in `{}` on a deadline-tainted path ({}) — a partition \
                     here wedges the caller past its promised deadline; use recv_timeout \
                     bounded by the remaining budget",
                    f.name,
                    chain(fns, &pred, id),
                ),
            });
        }

        for lp in &f.loops {
            if !(lp.has_blocking && lp.has_continue && !lp.consults_deadline) {
                continue;
            }
            out.push(Violation {
                file: f.file.clone(),
                line: lp.line,
                rule: RULE_DEADLINE,
                msg: format!(
                    "unbounded retry loop in `{}` on a deadline-tainted path ({}) — the loop \
                     blocks and retries without ever consulting a deadline/budget/attempt \
                     bound; thread the deadline through and break when it expires",
                    f.name,
                    chain(fns, &pred, id),
                ),
            });
        }

        let orchestration = ORCHESTRATION_CRATES.iter().any(|c| f.file.starts_with(c));
        if orchestration && !f.has_deadline_param && !f.mentions_deadline {
            for (method, line) in &f.page_io {
                out.push(Violation {
                    file: f.file.clone(),
                    line: *line,
                    rule: RULE_DEADLINE,
                    msg: format!(
                        "`{}` does page I/O (`{method}`) on a deadline-tainted path ({}) but \
                         neither receives nor consults a deadline — thread the budget into \
                         this fn so slow disks can't blow the front-door promise",
                        f.name,
                        chain(fns, &pred, id),
                    ),
                });
            }
        }
    }

    out
}
