//! Fixture-corpus tests for harbor-lint: every rule family must flag its
//! `bad/` case and stay silent on the `good/` mirror.

use harbor_lint::{
    analyze_sources, collect_files, Violation, RULE_ALLOW, RULE_DEADLINE, RULE_LOCK_BLOCKING,
    RULE_TAXONOMY,
};
use std::path::Path;

fn fixtures(sub: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

fn read(tree: &str, rel: &str) -> String {
    std::fs::read_to_string(fixtures(tree).join(rel)).expect("read fixture")
}

/// Runs the full analysis (per-file rules and the graph pass) over one
/// fixture tree, each file under its tree-relative path.
fn analyze_fixture_tree(tree: &str) -> (Vec<String>, Vec<Violation>) {
    let root = fixtures(tree);
    let files = collect_files(&root).expect("walk fixture tree");
    assert!(!files.is_empty(), "no fixtures under {}", root.display());
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(&root)
                .expect("fixture under root")
                .to_string_lossy()
                .replace('\\', "/");
            let src = read(tree, &rel);
            (rel, src)
        })
        .collect();
    let rels = sources.iter().map(|(rel, _)| rel.clone()).collect();
    (rels, analyze_sources(&sources))
}

/// The full analysis of `src` as the one file `rel`.
fn analyze(rel: &str, src: &str) -> Vec<Violation> {
    analyze_sources(&[(rel.to_string(), src.to_string())])
}

/// The full analysis of one fixture under its tree-relative path.
fn analyze_fixture(tree: &str, rel: &str) -> Vec<Violation> {
    analyze(rel, &read(tree, rel))
}

fn of_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn bad_tree_trips_every_rule_family() {
    let (files, violations) = analyze_fixture_tree("bad");
    for rule in [RULE_LOCK_BLOCKING, RULE_TAXONOMY, RULE_DEADLINE, RULE_ALLOW] {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "bad fixtures produced no `{rule}` violation; got: {violations:#?}"
        );
    }
    for file in &files {
        assert!(
            violations.iter().any(|v| &v.file == file),
            "bad fixture {file} produced no violation"
        );
    }
}

#[test]
fn guard_across_spawn_is_lock_across_blocking() {
    let violations = analyze_fixture("bad", "crates/dist/src/worker.rs");
    let spawns: Vec<_> = of_rule(&violations, RULE_LOCK_BLOCKING)
        .into_iter()
        .filter(|v| v.msg.contains("spawn`"))
        .collect();
    assert!(
        spawns.iter().any(|v| v.msg.contains("`thread::spawn`")),
        "guard across thread::spawn not caught: {spawns:#?}"
    );
    assert!(
        spawns.iter().any(|v| v.msg.contains("`spawn`")),
        "guard across a builder's .spawn( not caught: {spawns:#?}"
    );
}

/// The pool's one durable page write is page I/O, also when the latches are
/// collected out of a closure rather than bound by a `let`.
#[test]
fn guard_across_write_run_is_lock_across_blocking() {
    let rel = "crates/storage/src/buffer.rs";
    let bad = read("bad", rel);
    let violations = analyze(rel, &bad);
    let runs = of_rule(&violations, RULE_LOCK_BLOCKING);
    let line_of = |text: &str, nth: usize| {
        bad.lines()
            .enumerate()
            .filter(|(_, l)| l.contains(text))
            .nth(nth)
            .map(|(k, _)| k as u32 + 1)
            .unwrap()
    };
    for (nth, guard) in [(0, "`page`"), (1, "`latched`")] {
        let line = line_of("table.write_run(", nth);
        assert!(
            runs.iter()
                .any(|v| v.line == line && v.msg.contains("`write_run`") && v.msg.contains(guard)),
            "guard {guard} across write_run on line {line} not caught: {runs:#?}"
        );
    }
    assert!(analyze_fixture("good", rel).is_empty());
}

#[test]
fn bare_allow_is_reported_and_suppresses_nothing() {
    let violations = analyze_fixture("bad", "crates/core/src/recovery.rs");
    let allow = violations
        .iter()
        .find(|v| v.rule == RULE_ALLOW)
        .expect("bare allow reported");
    assert!(
        violations
            .iter()
            .any(|v| v.rule == RULE_TAXONOMY && v.line == allow.line + 1),
        "a bare allow must not suppress the construction under it: {violations:#?}"
    );
}

#[test]
fn an_allow_that_waives_nothing_is_a_violation() {
    let rel = "crates/dist/src/worker.rs";
    let src = read("good", rel).replace(
        "        chan.recv_timeout(deadline)",
        "        // harbor-lint: allow(lock-across-blocking) — the guard is dropped above\n        chan.recv_timeout(deadline)",
    );
    let violations = analyze(rel, &src);
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert_eq!(violations[0].rule, RULE_ALLOW);
    assert!(violations[0].msg.contains("waives no finding"));
}

#[test]
fn scan_pool_holds_no_guard_across_merge_channel_send() {
    let rel = "crates/dist/src/scan_pool.rs";
    let bad = read("bad", rel);
    let violations = analyze(rel, &bad);
    let sends = of_rule(&violations, RULE_LOCK_BLOCKING);
    // Both violations are `send`s: name each by its line.
    let flagged = |call: &str| {
        let line = bad.lines().position(|l| l.contains(call)).unwrap() as u32 + 1;
        sends
            .iter()
            .any(|v| v.line == line && v.msg.contains("`send`"))
    };
    assert!(
        flagged("tx.send(Ok(framed))"),
        "frame latch across merge-channel send not caught: {sends:#?}"
    );
    assert!(
        flagged("chan.send(framed)"),
        "merger guard across downstream ship not caught: {sends:#?}"
    );

    let violations = analyze_fixture("good", rel);
    assert!(
        violations.is_empty(),
        "latch-scoped transcode + post-drop send must be clean: {violations:#?}"
    );
}

#[test]
fn overloaded_is_confined_to_the_admission_boundary() {
    // Minting a shed outside front/src/admission.rs is a violation — both
    // the struct literal and the convenience constructor.
    let violations = analyze_fixture("bad", "crates/front/src/server.rs");
    let taxonomy = of_rule(&violations, RULE_TAXONOMY);
    assert!(
        taxonomy
            .iter()
            .any(|v| v.msg.contains("`DbError::Overloaded`")),
        "struct-literal shed outside the boundary not caught: {taxonomy:#?}"
    );
    assert!(
        taxonomy
            .iter()
            .any(|v| v.msg.contains("`DbError::overloaded`")),
        "convenience-constructor shed outside the boundary not caught: {taxonomy:#?}"
    );

    // Matching on the variant (to forward it) is legal anywhere, and the
    // admission boundary itself may mint it.
    for rel in [
        "crates/front/src/server.rs",
        "crates/front/src/admission.rs",
    ] {
        let violations = analyze_fixture("good", rel);
        assert!(violations.is_empty(), "{rel}: {violations:#?}");
    }
}

#[test]
fn good_tree_is_clean() {
    let (_, violations) = analyze_fixture_tree("good");
    assert!(
        violations.is_empty(),
        "good fixtures should be clean, got: {violations:#?}"
    );
}

/// Test, bench and example code is never collected, so no rule reads it.
#[test]
fn only_non_test_sources_are_collected() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = collect_files(root).expect("walk the lint crate");
    assert!(!files.is_empty());
    assert!(
        files.iter().all(|f| f.starts_with(root.join("src"))),
        "{files:#?}"
    );
}

// ---------------------------------------------------------------------------
// Workspace-graph rule corpus (deadline-propagation)
// ---------------------------------------------------------------------------

#[test]
fn deadline_bad_corpus_is_fully_flagged() {
    let violations = analyze_fixture("bad", "crates/front/src/fixture_entry.rs");
    let v = of_rule(&violations, RULE_DEADLINE);
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(
        v.iter()
            .any(|x| x.msg.contains("untimed `recv()`") && x.msg.contains("`fixture_wait`")),
        "{v:#?}"
    );
    assert!(
        v.iter()
            .any(|x| x.msg.contains("unbounded retry loop") && x.msg.contains("`fixture_retry`")),
        "{v:#?}"
    );
    assert!(
        v.iter()
            .any(|x| x.msg.contains("page I/O") && x.msg.contains("`fixture_flush`")),
        "{v:#?}"
    );
    // Every diagnostic names its taint chain back to the entry point.
    assert!(
        v.iter().all(|x| x.msg.contains("fixture_handle →")),
        "{v:#?}"
    );
}

#[test]
fn reasoned_allow_suppresses_its_finding() {
    let rel = "crates/front/src/fixture_entry.rs";
    let src = read("bad", rel).replace(
        "let reply = fixture_chan().recv();",
        "let reply = fixture_chan().recv(); // harbor-lint: allow(deadline-propagation) — fixture hold",
    );
    let violations = analyze(rel, &src);
    let v = of_rule(&violations, RULE_DEADLINE);
    assert_eq!(v.len(), 2, "recv finding should be suppressed: {v:#?}");
    assert!(v.iter().all(|x| !x.msg.contains("`fixture_wait`")));
    assert!(
        of_rule(&violations, RULE_ALLOW).is_empty(),
        "{violations:#?}"
    );
}

#[test]
fn bare_allow_on_graph_rule_is_itself_a_violation() {
    let rel = "crates/front/src/fixture_entry.rs";
    let src = read("bad", rel).replace(
        "let reply = fixture_chan().recv();",
        "let reply = fixture_chan().recv(); // harbor-lint: allow(deadline-propagation)",
    );
    let violations = analyze(rel, &src);
    // The reason-less directive does not suppress, and is flagged itself.
    assert_eq!(of_rule(&violations, RULE_DEADLINE).len(), 3);
    assert!(
        !of_rule(&violations, RULE_ALLOW).is_empty(),
        "{violations:#?}"
    );
}

/// A `#[cfg(test)]` helper that shares a callee's name is no node of the
/// call graph: without the attribute the same helper links the front-door
/// entry to budget-blind page I/O.
#[test]
fn test_fns_are_not_in_the_call_graph() {
    let entry = "crates/front/src/session.rs";
    let helper = "crates/core/src/scrub.rs";
    let run = |helper_src: String| {
        analyze_sources(&[
            (entry.to_string(), read("good", entry)),
            (helper.to_string(), helper_src),
        ])
    };
    assert!(run(read("good", helper)).is_empty());
    let untested = run(read("good", helper).replace("#[cfg(test)]", ""));
    let v = of_rule(&untested, RULE_DEADLINE);
    assert!(
        v.iter().any(|x| x.file == helper
            && x.msg
                .contains("fixture_serve → fixture_validate → fixture_rewrite")),
        "{untested:#?}"
    );
}
