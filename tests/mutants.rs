//! The mutant catalogue (`tests/mutants.txt`) still applies to the tree:
//! every entry's `old` text occurs exactly once in its file and differs
//! from its `new` text. A mutant whose text has drifted is stale, like a
//! stale ratchet, and must be rewritten against the code or retired with a
//! line in CHANGES.md. This check runs no mutant; it keeps the catalogue
//! runnable.

use std::collections::HashSet;
use std::path::Path;

/// One catalogue entry.
#[derive(Debug, Default)]
struct Mutant {
    name: String,
    file: String,
    kills: String,
    old: Vec<String>,
    new: Vec<String>,
}

impl Mutant {
    fn old_text(&self) -> String {
        self.old.join("\n")
    }

    fn new_text(&self) -> String {
        self.new.join("\n")
    }
}

/// Parses the catalogue's format: `key: value` lines, then `old:` and
/// `new:` each followed by `|`-prefixed text lines, then `end`. Blank lines
/// and `#` comments separate entries.
fn parse(text: &str) -> Vec<Mutant> {
    #[derive(PartialEq)]
    enum In {
        Fields,
        Old,
        New,
    }
    let mut entries = Vec::new();
    let mut cur: Option<Mutant> = None;
    let mut state = In::Fields;
    for (no, line) in text.lines().enumerate() {
        let at = || format!("tests/mutants.txt:{}", no + 1);
        if let Some(body) = line.strip_prefix('|') {
            let m = cur
                .as_mut()
                .unwrap_or_else(|| panic!("{}: text outside an entry", at()));
            match state {
                In::Old => m.old.push(body.to_string()),
                In::New => m.new.push(body.to_string()),
                In::Fields => panic!("{}: text before `old:` or `new:`", at()),
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            assert!(cur.is_none(), "{}: entry not closed by `end`", at());
            continue;
        }
        match line {
            "old:" => state = In::Old,
            "new:" => {
                assert!(state == In::Old, "{}: `new:` before `old:`", at());
                state = In::New;
            }
            "end" => {
                assert!(state == In::New, "{}: `end` before `new:`", at());
                entries.push(
                    cur.take()
                        .unwrap_or_else(|| panic!("{}: stray `end`", at())),
                );
                state = In::Fields;
            }
            _ => {
                let (key, value) = line
                    .split_once(": ")
                    .unwrap_or_else(|| panic!("{}: not `key: value`: {line}", at()));
                let m = cur.get_or_insert_with(Mutant::default);
                match key {
                    "name" => m.name = value.to_string(),
                    "file" => m.file = value.to_string(),
                    "kills" => m.kills = value.to_string(),
                    "what" | "seen" => {}
                    _ => panic!("{}: unknown key `{key}`", at()),
                }
            }
        }
    }
    assert!(
        cur.is_none(),
        "tests/mutants.txt: last entry not closed by `end`"
    );
    entries
}

#[test]
fn every_mutant_applies_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("tests/mutants.txt")).expect("read the catalogue");
    let entries = parse(&text);
    assert!(!entries.is_empty(), "the catalogue is empty");
    let mut names = HashSet::new();
    for m in &entries {
        assert!(!m.name.is_empty(), "an entry without a name: {m:?}");
        assert!(names.insert(m.name.as_str()), "{}: name used twice", m.name);
        assert!(
            !m.kills.is_empty(),
            "{}: names no test that kills it",
            m.name
        );
        let (old, new) = (m.old_text(), m.new_text());
        assert!(!old.is_empty(), "{}: empty `old`", m.name);
        assert_ne!(old, new, "{}: `new` is `old`", m.name);
        let source = std::fs::read_to_string(root.join(&m.file))
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", m.name, m.file));
        let found = source.match_indices(&old).count();
        assert_eq!(
            found, 1,
            "{}: `old` occurs {found} times in {}; rewrite the mutant against the code or retire it",
            m.name, m.file
        );
    }
}
