//! A hand-rolled Rust token lexer — just enough syntax awareness for
//! harbor-lint's rules, with zero external dependencies (the build
//! container is offline, so `syn`/`proc-macro2` are not an option).
//!
//! The lexer produces a flat token stream with line numbers, skipping
//! comments and correctly crossing string/char/lifetime literals (a naive
//! substring grep would misfire on `"Instant::now"` inside an error
//! message, or treat `// .lock()` in prose as an acquisition). Line
//! comments other than doc comments are additionally scanned for
//! `harbor-lint: allow(<rule>)` escape-hatch directives, which are attached
//! to the line of code they govern: the directive's own line for a trailing
//! comment, the next line bearing a token for a standalone comment line.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`let`, `drop`, `unwrap`, …).
    Ident,
    /// Integer / float literal (value is irrelevant to every rule).
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Single punctuation character (`.`, `:`, `;`, `&`, `=` …) or a
    /// delimiter (`{}()[]`). Multi-char operators arrive as separate
    /// tokens; the rules only ever match single characters.
    Punct,
}

/// A `// harbor-lint: allow(<rule>) — <reason>` directive that gives a
/// reason, resolved to the source line it suppresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    /// The line of code this allow applies to.
    pub line: u32,
}

/// Lexer output: the token stream plus resolved allow directives.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    /// Allow directives with an empty reason — reported as violations by
    /// the driver (an unexplained escape hatch defeats the point).
    pub bare_allows: Vec<(String, u32)>,
}

const ALLOW_PREFIX: &str = "harbor-lint:";

pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    // Rules of allows on standalone comment lines, waiting for the next
    // code line to attach to.
    let mut pending: Vec<String> = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Lines that carried at least one token; used to classify a comment as
    // trailing (code before it on its line) or standalone.
    let mut line_has_token = false;

    macro_rules! flush_pending_to {
        ($line:expr) => {
            for rule in pending.drain(..) {
                out.allows.push(Allow { rule, line: $line });
            }
        };
    }

    while i < bytes.len() {
        // Non-ASCII (multi-byte UTF-8) never starts a token in this repo;
        // skip the whole char so slices below stay on char boundaries.
        if bytes[i] >= 0x80 {
            i += 1;
            while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                i += 1;
            }
            continue;
        }
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                line_has_token = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment: scan for allow directives, then skip. A doc
                // comment only describes them.
                let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                let body = &src[i + 2..end];
                let doc = body.starts_with(['/', '!']);
                if let Some((rule, reason)) = parse_allow(body).filter(|_| !doc) {
                    if reason.is_empty() {
                        out.bare_allows.push((rule, line));
                    } else if line_has_token {
                        out.allows.push(Allow { rule, line });
                    } else {
                        pending.push(rule);
                    }
                }
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, nestable.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                            line_has_token = false;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                i = skip_string(src, i, &mut line);
                if !line_has_token {
                    flush_pending_to!(start_line);
                }
                line_has_token = true;
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                let start_line = line;
                i = skip_raw_or_byte_string(src, i, &mut line);
                if !line_has_token {
                    flush_pending_to!(start_line);
                }
                line_has_token = true;
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime vs char literal. `'ident` not followed by a
                // closing quote is a lifetime; everything else is a char.
                let is_lifetime = match bytes.get(i + 1) {
                    Some(&c1) if c1.is_ascii_alphabetic() || c1 == b'_' => {
                        // Find the end of the ident run; a lifetime has no
                        // closing quote right after it.
                        let mut j = i + 1;
                        while j < bytes.len()
                            && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                        {
                            j += 1;
                        }
                        bytes.get(j) != Some(&b'\'')
                    }
                    _ => false,
                };
                if !line_has_token {
                    flush_pending_to!(line);
                }
                line_has_token = true;
                if is_lifetime {
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    // Char literal: 'x' or '\..' (escapes).
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'\\') {
                        j += 2; // the escape introducer and its payload head
                                // \u{...} spans to the closing brace.
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                    } else if j < bytes.len() {
                        // Possibly multi-byte UTF-8: advance to the quote.
                        j += 1;
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: String::new(),
                        line,
                    });
                    i = (j + 1).min(bytes.len());
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if !line_has_token {
                    flush_pending_to!(line);
                }
                line_has_token = true;
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // `1.method()` — don't eat a `.` followed by an alpha.
                    if bytes[i] == b'.'
                        && bytes
                            .get(i + 1)
                            .map(|&b| b.is_ascii_alphabetic() || b == b'_')
                            .unwrap_or(true)
                    {
                        break;
                    }
                    i += 1;
                }
                if !line_has_token {
                    flush_pending_to!(line);
                }
                line_has_token = true;
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                if !line_has_token {
                    flush_pending_to!(line);
                }
                line_has_token = true;
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += c.len_utf8();
            }
        }
    }
    // Trailing standalone allows with no code after them: attach to their
    // own (dead) line so they at least show up as resolvable.
    flush_pending_to!(line);
    out
}

/// Parses `harbor-lint: allow(<rule>) <sep> <reason>` out of a comment
/// body. Returns `(rule, reason)`; the reason may be empty (flagged by the
/// caller). The separator between the closing paren and the reason is
/// free-form (`—`, `--`, `-`, `:` or just whitespace).
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let at = comment.find(ALLOW_PREFIX)?;
    let rest = comment[at + ALLOW_PREFIX.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim()
        .to_string();
    Some((rule, reason))
}

fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'b' => matches!(bytes.get(i + 1), Some(&b'"')) || starts_raw(bytes, i + 1),
        b'r' => starts_raw(bytes, i),
        _ => false,
    }
}

fn starts_raw(bytes: &[u8], i: usize) -> bool {
    if bytes.get(i) != Some(&b'r') {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Skips a plain `"…"` (or the body of a `b"…"` whose `b` the caller ate),
/// honouring escapes; returns the index just past the closing quote.
fn skip_string(src: &str, start: usize, line: &mut u32) -> usize {
    let bytes = src.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // An escaped newline continues the string on the next line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#` from the prefix character.
fn skip_raw_or_byte_string(src: &str, start: usize, line: &mut u32) -> usize {
    let bytes = src.as_bytes();
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        return skip_string(src, i, line);
    }
    // Raw string: count the hashes.
    debug_assert_eq!(bytes.get(i), Some(&b'r'));
    i += 1;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i; // not actually a raw string; resync conservatively
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // Instant::now() in prose must not tokenize
            let msg = "Instant::now() inside a string";
            let raw = r#"thread_rng "quoted" body"#;
            /* block Instant::now comment */
            let real = Instant::now();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "Instant").count(), 1, "{ids:?}");
        assert!(!ids.contains(&"thread_rng".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn trailing_allow_attaches_to_its_own_line() {
        let src = "let a = 1;\nlet g = m.lock(); // harbor-lint: allow(lock-across-blocking) — serialized RPC\nsend();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 2);
        assert_eq!(lexed.allows[0].rule, "lock-across-blocking");
    }

    #[test]
    fn standalone_allow_attaches_to_next_code_line() {
        let src = "// harbor-lint: allow(determinism) — seeded by the harness\n// another comment\nlet t = Instant::now();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "// harbor-lint: allow(determinism)\nlet t = 1;\n";
        let lexed = lex(src);
        assert!(lexed.allows.is_empty());
        assert_eq!(lexed.bare_allows.len(), 1);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line one\nline two \\\n continued\";\nlet x = y;";
        let lexed = lex(src);
        let x = lexed
            .tokens
            .iter()
            .find(|t| t.text == "x")
            .expect("x token");
        assert_eq!(x.line, 4);
    }
}
