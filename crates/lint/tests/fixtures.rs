//! Fixture-corpus tests for harbor-lint: every rule family must flag its
//! `bad/` case and stay silent on the `good/` mirror.

use harbor_lint::{
    analyze_source, analyze_sources, check_ratchet, collect_files, parse_baseline, render_baseline,
    Baseline, Violation, WorkspaceReport, RULE_ALLOW, RULE_DEADLINE, RULE_LOCK_BLOCKING,
    RULE_TAXONOMY,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Runs the full analysis (per-file rules and the graph pass) over one
/// fixture tree, each file under its tree-relative path.
fn analyze_fixture_tree(root: &Path) -> (Vec<String>, WorkspaceReport) {
    let files = collect_files(root).expect("walk fixture tree");
    assert!(!files.is_empty(), "no fixtures under {}", root.display());
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("fixture under root")
                .to_string_lossy()
                .replace('\\', "/");
            (rel, std::fs::read_to_string(path).expect("read fixture"))
        })
        .collect();
    let rels = sources.iter().map(|(rel, _)| rel.clone()).collect();
    (rels, analyze_sources(&sources))
}

fn fixtures(sub: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

#[test]
fn bad_tree_trips_every_rule_family() {
    let (files, report) = analyze_fixture_tree(&fixtures("bad"));
    let violations = &report.violations;
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
    let src = std::fs::read_to_string(fixtures("bad/crates/dist/src/worker.rs")).unwrap();
    let report = analyze_source("crates/dist/src/worker.rs", &src);
    let spawns: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_LOCK_BLOCKING && v.msg.contains("spawn`"))
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

#[test]
fn bare_allow_is_reported_and_suppresses_nothing() {
    let src = std::fs::read_to_string(fixtures("bad/crates/core/src/recovery.rs")).unwrap();
    let report = analyze_source("crates/core/src/recovery.rs", &src);
    let allow = report
        .violations
        .iter()
        .find(|v| v.rule == RULE_ALLOW)
        .expect("bare allow reported");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == RULE_TAXONOMY && v.line == allow.line + 1),
        "a bare allow must not suppress the construction under it: {:#?}",
        report.violations
    );
}

#[test]
fn scan_pool_holds_no_guard_across_merge_channel_send() {
    let bad = std::fs::read_to_string(fixtures("bad/crates/dist/src/scan_pool.rs")).unwrap();
    let report = analyze_source("crates/dist/src/scan_pool.rs", &bad);
    let sends: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_LOCK_BLOCKING)
        .collect();
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

    let good = std::fs::read_to_string(fixtures("good/crates/dist/src/scan_pool.rs")).unwrap();
    let report = analyze_source("crates/dist/src/scan_pool.rs", &good);
    assert!(
        report.violations.is_empty(),
        "latch-scoped transcode + post-drop send must be clean: {:#?}",
        report.violations
    );
}

#[test]
fn overloaded_is_confined_to_the_admission_boundary() {
    // Minting a shed outside front/src/admission.rs is a violation — both
    // the struct literal and the convenience constructor.
    let bad = std::fs::read_to_string(fixtures("bad/crates/front/src/server.rs")).unwrap();
    let report = analyze_source("crates/front/src/server.rs", &bad);
    let taxonomy: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_TAXONOMY)
        .collect();
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

    // Matching on the variant (to forward it) is legal anywhere.
    let good = std::fs::read_to_string(fixtures("good/crates/front/src/server.rs")).unwrap();
    let report = analyze_source("crates/front/src/server.rs", &good);
    assert!(
        report.violations.is_empty(),
        "propagating a shed must be clean: {:#?}",
        report.violations
    );

    // And the admission boundary itself may mint it.
    let boundary = std::fs::read_to_string(fixtures("good/crates/front/src/admission.rs")).unwrap();
    let report = analyze_source("crates/front/src/admission.rs", &boundary);
    assert!(
        report.violations.is_empty(),
        "the admission boundary must be allowed to shed: {:#?}",
        report.violations
    );
}

#[test]
fn good_tree_is_clean() {
    let (_, report) = analyze_fixture_tree(&fixtures("good"));
    assert!(
        report.violations.is_empty(),
        "good fixtures should be clean, got: {:#?}",
        report.violations
    );
}

#[test]
fn test_files_are_exempt() {
    let src = std::fs::read_to_string(fixtures("bad/crates/dist/src/worker.rs")).unwrap();
    let report = analyze_source("crates/dist/tests/worker.rs", &src);
    assert!(
        report.violations.is_empty(),
        "test paths must be exempt from lock rules: {:#?}",
        report.violations
    );
    assert_eq!(report.unwraps, 0, "test paths never feed the ratchet");
}

#[test]
fn ratchet_counts_only_non_test_unwraps() {
    let src = r#"
        fn hot() { x.unwrap(); y.expect("boom"); z.unwrap_or(3); }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { a.unwrap(); b.expect("fine in tests"); }
        }
    "#;
    let report = analyze_source("crates/core/src/hot.rs", src);
    assert_eq!(
        report.unwraps, 2,
        "unwrap_or and test-mod calls must not count"
    );
}

#[test]
fn ratchet_flags_growth_and_stale_shrink() {
    let unwraps = |counts: &[(&str, usize)]| -> Baseline {
        let counts = counts.iter().map(|(k, n)| (k.to_string(), *n)).collect();
        BTreeMap::from([("unwraps".to_string(), counts)])
    };
    let baseline = unwraps(&[("crates/core", 5), ("crates/dist", 2)]);

    // Growth is a violation.
    let grown = unwraps(&[("crates/core", 6), ("crates/dist", 2)]);
    assert_eq!(check_ratchet(&grown, &baseline).len(), 1);

    // A shrink must tighten the committed baseline (stale file = violation).
    let shrunk = unwraps(&[("crates/core", 3), ("crates/dist", 2)]);
    assert_eq!(check_ratchet(&shrunk, &baseline).len(), 1);

    // Exact match is clean.
    assert!(check_ratchet(&baseline, &baseline).is_empty());

    // A new crate with unwraps needs a baseline entry, and so does a new
    // section: a first suppressed graph finding.
    let extra = unwraps(&[("crates/core", 5), ("crates/dist", 2), ("crates/new", 1)]);
    assert_eq!(check_ratchet(&extra, &baseline).len(), 1);
    let mut allowed = baseline.clone();
    let counts = BTreeMap::from([("crates/storage".to_string(), 1)]);
    allowed.insert("allows.deadline-propagation".to_string(), counts);
    assert_eq!(check_ratchet(&allowed, &baseline).len(), 1);
    // And an entry with nothing left to pin is stale, whatever its section.
    assert_eq!(check_ratchet(&baseline, &allowed).len(), 1);
}

// ---------------------------------------------------------------------------
// Workspace-graph rule corpus (deadline-propagation)
// ---------------------------------------------------------------------------

/// Reads one fixture by tree-relative path and runs the *full* analysis
/// (per-file rules + both graph passes) over it under that same path.
fn analyze_graph_fixture(tree: &str, rel: &str) -> WorkspaceReport {
    let src = std::fs::read_to_string(fixtures(tree).join(rel)).expect("read fixture");
    analyze_sources(&[(rel.to_string(), src)])
}

fn rule_violations<'a>(report: &'a WorkspaceReport, rule: &str) -> Vec<&'a Violation> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .collect()
}

#[test]
fn deadline_bad_corpus_is_fully_flagged() {
    let report = analyze_graph_fixture("bad", "crates/front/src/fixture_entry.rs");
    let v = rule_violations(&report, RULE_DEADLINE);
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
fn reasoned_allow_suppresses_and_counts_into_findings_ratchet() {
    let rel = "crates/front/src/fixture_entry.rs";
    let src = std::fs::read_to_string(fixtures("bad").join(rel))
        .expect("read fixture")
        .replace(
            "let reply = fixture_chan().recv();",
            "let reply = fixture_chan().recv(); // harbor-lint: allow(deadline-propagation) — fixture hold",
        );
    let report = analyze_sources(&[(rel.to_string(), src)]);
    let v = rule_violations(&report, RULE_DEADLINE);
    assert_eq!(v.len(), 2, "recv finding should be suppressed: {v:#?}");
    assert!(v.iter().all(|x| !x.msg.contains("`fixture_wait`")));
    let counts = report
        .allowed_findings
        .get(RULE_DEADLINE)
        .expect("suppressed finding recorded for the ratchet");
    assert_eq!(counts.get("crates/front"), Some(&1));
}

#[test]
fn bare_allow_on_graph_rule_is_itself_a_violation() {
    let rel = "crates/front/src/fixture_entry.rs";
    let src = std::fs::read_to_string(fixtures("bad").join(rel))
        .expect("read fixture")
        .replace(
            "let reply = fixture_chan().recv();",
            "let reply = fixture_chan().recv(); // harbor-lint: allow(deadline-propagation)",
        );
    let report = analyze_sources(&[(rel.to_string(), src)]);
    // The reason-less directive does not suppress, and is flagged itself.
    assert_eq!(rule_violations(&report, RULE_DEADLINE).len(), 3);
    assert!(
        report.violations.iter().any(|v| v.rule == RULE_ALLOW),
        "{:#?}",
        report.violations
    );
}

#[test]
fn baseline_round_trips() {
    let unwraps = BTreeMap::from([
        ("crates/storage".to_string(), 29),
        ("crates/core".to_string(), 4),
    ]);
    let allows = BTreeMap::from([("crates/storage".to_string(), 1)]);
    let map: Baseline = BTreeMap::from([
        ("unwraps".to_string(), unwraps),
        ("allows.deadline-propagation".to_string(), allows),
    ]);
    let text = render_baseline(&map);
    assert_eq!(parse_baseline(&text), map);
}
