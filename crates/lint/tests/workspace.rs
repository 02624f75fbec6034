//! The lint over the repository itself: every finding is mended, or waived
//! by a reasoned allow beside the code it waives.

use std::path::Path;

#[test]
fn the_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = harbor_lint::analyze_workspace(&root).expect("read the workspace");
    let listed: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        violations.is_empty(),
        "{} violation(s):\n{}",
        violations.len(),
        listed.join("\n")
    );
}
