//! Pass 2a: the RacerD-style lockset race detector.
//!
//! Over the [`WorkspaceIndex`], for every *tracked* field (a plain-data
//! field of a shared-intent struct, with a workspace-unique name so
//! token-level attribution is unambiguous) the rule compares the locksets
//! inferred at every access site across all files:
//!
//! * **Inconsistent lockset** — the field is accessed under a guard
//!   somewhere, but written with an *empty* lockset somewhere else: the
//!   locked sites say "this field is lock-protected", the unlocked write
//!   says "no it isn't", and one of them is wrong. This is the static
//!   shape of the PR 3 lost-write race.
//! * **Unguarded write in a spawned closure** — a write with an empty
//!   lockset inside a `spawn` closure while the field is also touched
//!   elsewhere: the closure runs on another thread, so the access needs a
//!   guard taken *inside* the closure (guards from the spawning scope do
//!   not carry across the thread boundary).
//! * **Guard across spawn** — a `spawn` call while a `let`-bound guard is
//!   still live: the child thread runs concurrently against a held lock;
//!   at best a latent deadlock, at worst the guard is being (wrongly)
//!   treated as protecting the child's work.
//!
//! Every finding honours `// harbor-lint: allow(lockset-race) — reason`,
//! and suppressed findings are counted into `lint-baseline.toml`'s
//! `[allows.lockset-race]` section.

use crate::index::WorkspaceIndex;
use crate::{Violation, RULE_LOCKSET};
use std::collections::BTreeMap;

/// Runs the lockset pass. Returns findings plus, per crate, the count of
/// findings suppressed by a reasoned allow (the findings-ratchet input).
pub fn check(idx: &WorkspaceIndex) -> (Vec<Violation>, BTreeMap<String, usize>) {
    let mut out = Vec::new();
    let mut allowed_counts: BTreeMap<String, usize> = BTreeMap::new();
    let tracked = idx.tracked_fields();

    // Collect per-field access info across all non-test fns.
    struct FieldSummary<'a> {
        locked_lines: Vec<(&'a str, u32, &'a [String])>,
        sites: usize,
    }
    let mut summaries: BTreeMap<&str, FieldSummary<'_>> = BTreeMap::new();
    for f in idx.fns.iter().filter(|f| !f.is_test) {
        for a in &f.accesses {
            let Some(_) = tracked.get(&a.field) else {
                continue;
            };
            let s = summaries.entry(a.field.as_str()).or_insert(FieldSummary {
                locked_lines: Vec::new(),
                sites: 0,
            });
            s.sites += 1;
            if !a.lockset.is_empty() {
                s.locked_lines.push((&f.file, a.line, &a.lockset));
            }
        }
    }

    for f in idx.fns.iter().filter(|f| !f.is_test) {
        for a in &f.accesses {
            let Some((owner, owner_file)) = tracked.get(&a.field) else {
                continue;
            };
            if !a.write || !a.lockset.is_empty() {
                continue;
            }
            let Some(sum) = summaries.get(a.field.as_str()) else {
                continue;
            };
            let inconsistent = !sum.locked_lines.is_empty();
            let spawned_unguarded = a.in_spawn && sum.sites > 1;
            if !(inconsistent || spawned_unguarded) {
                continue;
            }
            if idx.allowed(&f.file, RULE_LOCKSET, a.line) {
                *allowed_counts.entry(f.crate_key.clone()).or_insert(0) += 1;
                continue;
            }
            let msg = if inconsistent {
                let (lf, ll, locks) = &sum.locked_lines[0];
                format!(
                    "field `{}` of shared struct `{owner}` ({owner_file}) written with an \
                     empty lockset in `{}`, but accessed under lock {{{}}} at {lf}:{ll} — \
                     inconsistent locksets mean one site is racing; take the same guard or \
                     move the field out of the shared struct",
                    a.field,
                    f.name,
                    locks.join(", "),
                )
            } else {
                format!(
                    "field `{}` of shared struct `{owner}` ({owner_file}) written inside a \
                     spawned closure in `{}` with no guard — the closure runs on another \
                     thread; guards from the spawning scope do not protect it",
                    a.field, f.name,
                )
            };
            out.push(Violation {
                file: f.file.clone(),
                line: a.line,
                rule: RULE_LOCKSET,
                msg,
            });
        }

        for sp in &f.spawns {
            if sp.guards_held.is_empty() {
                continue;
            }
            if idx.allowed(&f.file, RULE_LOCKSET, sp.line) {
                *allowed_counts.entry(f.crate_key.clone()).or_insert(0) += 1;
                continue;
            }
            let held: Vec<String> = sp
                .guards_held
                .iter()
                .map(|(var, lock)| format!("`{var}` (lock `{lock}`)"))
                .collect();
            out.push(Violation {
                file: f.file.clone(),
                line: sp.line,
                rule: RULE_LOCKSET,
                msg: format!(
                    "`{}` spawns a thread while guard {} is still held — the child runs \
                     concurrently against a held lock; drop() the guard or move the spawn \
                     outside the critical section",
                    f.name,
                    held.join(", "),
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (out, allowed_counts)
}
