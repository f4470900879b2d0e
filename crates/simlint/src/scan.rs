//! Source model: a lossy-but-line-exact view of one Rust file.
//!
//! The linter does not parse Rust (the build is offline; no `syn`). Instead
//! a small state machine walks the raw text once and produces, per line:
//!
//! * a **code view** — the line with comments, string/char literals and
//!   doc-text blanked out (replaced by spaces), so token searches cannot
//!   match inside prose or literals;
//! * the set of rules **allowed** on that line (`// simlint: allow(R, …)`
//!   trailing a line applies to that line; on a line of its own it applies
//!   to the next line);
//! * whether the line is inside a `// simlint: hotpath(begin)` …
//!   `// simlint: hotpath(end)` fence;
//! * whether the line is inside a `#[cfg(test)]`-guarded item (brace
//!   tracked on the code view, so braces in strings cannot confuse it).
//!
//! The state machine understands line comments, nested block comments,
//! string literals with escapes, raw strings (`r"…"`, `r#"…"#`, any number
//! of hashes), char literals, and leaves lifetimes (`'a`) alone.

/// The per-line model of one source file.
#[derive(Debug, Default)]
pub struct SourceModel {
    /// Code view, one entry per line, comments/literals blanked.
    pub code: Vec<String>,
    /// Rules explicitly allowed per line (resolved: trailing + previous-line
    /// standalone directives).
    pub allows: Vec<Vec<String>>,
    /// Line is inside a hotpath fence.
    pub hotpath: Vec<bool>,
    /// Line is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceModel {
    /// Whether `rule` is allowed on 0-indexed `line`.
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .get(line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Builds the [`SourceModel`] for `source`.
pub fn model(source: &str) -> SourceModel {
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();

    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\r' && next == Some('\n') {
            // CRLF: the `\r` is part of the line terminator, not the line.
            // Dropping it (in every state) keeps the code view aligned
            // char-for-char with `str::lines`, which strips it too — so
            // reported columns and the raw-line mapping cannot drift.
            i += 1;
            continue;
        }
        if c == '\n' {
            // Line comments end at the newline; everything else carries over.
            if state == State::LineComment {
                state = State::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::Block(1);
                    code.push_str("  ");
                    i += 2;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"…" or r#"…"# (any # count).
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            code.push(' ');
                        }
                        i = j + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '"' => {
                    state = State::Str;
                    code.push(' ');
                    i += 1;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with ' within
                    // a few chars ('x', '\n', '\u{1F600}'); a lifetime never
                    // closes. Look ahead conservatively.
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'\\') {
                        // Escape: skip to the closing quote (bounded scan).
                        j += 1;
                        let mut steps = 0;
                        while j < chars.len() && chars[j] != '\'' && steps < 10 {
                            j += 1;
                            steps += 1;
                        }
                        if chars.get(j) == Some(&'\'') {
                            for _ in i..=j {
                                code.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                    } else if chars.get(j).is_some() && chars.get(j + 1) == Some(&'\'') {
                        // 'x'
                        code.push_str("   ");
                        i = j + 2;
                        continue;
                    }
                    // Lifetime (or malformed): keep as code.
                    code.push(c);
                    i += 1;
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::Block(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    if next == Some('\n') {
                        // Line-continuation escape: keep the newline so line
                        // numbers stay exact.
                        code.push(' ');
                        i += 1;
                    } else {
                        code.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    state = State::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    // Closing needs `"` followed by `hashes` #s.
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes as usize {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);

    let n = code_lines.len();
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut hotpath = vec![false; n];

    // Directives from line comments.
    let mut fence_open = false;
    for (idx, comment) in comment_lines.iter().enumerate() {
        let Some(pos) = comment.find("simlint:") else {
            if fence_open {
                hotpath[idx] = true;
            }
            continue;
        };
        let directive = comment[pos + "simlint:".len()..].trim();
        if let Some(rest) = directive.strip_prefix("allow(") {
            if let Some(end) = rest.find(')') {
                let rules: Vec<String> = rest[..end]
                    .split(',')
                    .map(|r| r.trim().to_owned())
                    .filter(|r| !r.is_empty())
                    .collect();
                let standalone = code_lines[idx].trim().is_empty();
                let target = if standalone { idx + 1 } else { idx };
                if let Some(slot) = allows.get_mut(target) {
                    slot.extend(rules);
                }
            }
        } else if directive.starts_with("hotpath(begin)") {
            fence_open = true;
        } else if directive.starts_with("hotpath(end)") {
            fence_open = false;
        }
        if fence_open {
            hotpath[idx] = true;
        }
    }

    // `#[cfg(test)]` regions, brace-tracked on the code view.
    let mut in_test = vec![false; n];
    let mut pending = false; // saw the attribute, waiting for the item's `{`
    let mut depth: i32 = 0;
    for (idx, line) in code_lines.iter().enumerate() {
        if !pending && depth == 0 && line.contains("#[cfg(test)]") {
            pending = true;
        }
        if pending || depth > 0 {
            in_test[idx] = true;
        }
        if pending || depth > 0 {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        pending = false;
                    }
                    '}' => {
                        depth -= 1;
                        if depth <= 0 && !pending {
                            depth = 0;
                        }
                    }
                    _ => {}
                }
            }
            if depth == 0 && !pending {
                // Region closed on this line; later lines are code again.
            }
        }
    }

    SourceModel {
        code: code_lines,
        allows,
        hotpath,
        in_test,
    }
}

/// Finds `needle` in `line` at a token boundary: the characters immediately
/// before and after the match must not be identifier characters. Returns the
/// byte offset of the first such match.
pub fn find_token(line: &str, needle: &str) -> Option<usize> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + needle.len()..].chars().next().unwrap_or(' ');
        if before_ok && !ident(after) {
            return Some(at);
        }
        from = at + needle.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let m = model("let x = \"HashMap\"; // HashMap here\nlet y = 1;");
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.code[1].contains("let y"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let m = model("let s = r#\"Instant::now()\"#; let c = 'I'; let l: &'static str = \"x\";");
        assert!(!m.code[0].contains("Instant"));
        assert!(m.code[0].contains("static"), "lifetimes survive");
    }

    #[test]
    fn nested_block_comments() {
        let m = model("/* outer /* inner */ still comment */ let z = 3;");
        assert!(m.code[0].contains("let z"));
        assert!(!m.code[0].contains("outer"));
    }

    #[test]
    fn nested_block_comments_keep_line_numbers_exact() {
        // A nested comment spanning lines must not swallow or duplicate
        // lines: code after the close lands on the right 0-indexed line.
        let src = "/* one\n/* two\nstill */\nalso */ let a = 1;\nlet b = 2;";
        let m = model(src);
        assert_eq!(m.code.len(), 5);
        assert!(!m.code[2].contains("still"));
        assert!(
            m.code[3].contains("let a"),
            "code resumes on line 4: {:?}",
            m.code
        );
        assert!(m.code[4].contains("let b"));
    }

    #[test]
    fn crlf_lines_do_not_drift_or_leak() {
        let src = "let a = \"HashMap\";\r\n// simlint: allow(D1)\r\nlet b = HashMap::new();\r\nlet c = 3;\r\n";
        let m = model(src);
        assert!(!m.code[0].contains("HashMap"), "string blanked under CRLF");
        assert!(
            m.is_allowed(2, "D1"),
            "standalone directive applies to the next line"
        );
        assert!(
            m.code[2].contains("HashMap"),
            "code survives on the right line"
        );
        // The `\r` must not leak into the code view: every line stays
        // char-aligned with `str::lines()` of the raw source.
        for (line, raw) in m.code.iter().zip(src.lines()) {
            assert!(!line.contains('\r'));
            assert_eq!(
                line.chars().count(),
                raw.chars().count(),
                "1:1 char mapping"
            );
        }
    }

    #[test]
    fn byte_strings_are_blanked_without_drift() {
        let src = "let a = b\"Instant::now()\";\nlet b = br#\"SystemTime\"#;\nlet c = b'\\xff';\nlet d = 4;";
        let m = model(src);
        assert!(
            !m.code[0].contains("Instant"),
            "byte string blanked: {:?}",
            m.code[0]
        );
        assert!(
            !m.code[1].contains("SystemTime"),
            "raw byte string blanked: {:?}",
            m.code[1]
        );
        assert!(
            !m.code[2].contains("xff"),
            "byte char blanked: {:?}",
            m.code[2]
        );
        assert!(m.code[3].contains("let d"), "line numbers exact");
        for (line, raw) in m.code.iter().zip(src.lines()) {
            assert_eq!(
                line.chars().count(),
                raw.chars().count(),
                "1:1 char mapping"
            );
        }
    }

    #[test]
    fn multiline_string_lines_stay_aligned() {
        let src = "let s = \"first\nHashMap inside\nlast\"; let t = HashMap::new();";
        let m = model(src);
        assert_eq!(m.code.len(), 3);
        assert!(!m.code[1].contains("HashMap"), "string interior blanked");
        assert!(
            m.code[2].contains("HashMap::new"),
            "code after the close survives"
        );
    }

    #[test]
    fn allow_trailing_and_standalone() {
        let src = "let a = 1; // simlint: allow(D1)\n// simlint: allow(D2) — next line\nlet b = 2;\nlet c = 3;";
        let m = model(src);
        assert!(m.is_allowed(0, "D1"));
        assert!(m.is_allowed(2, "D2"));
        assert!(!m.is_allowed(3, "D2"));
    }

    #[test]
    fn hotpath_fences() {
        let src =
            "fn a() {}\n// simlint: hotpath(begin)\nfn b() {}\n// simlint: hotpath(end)\nfn c() {}";
        let m = model(src);
        assert!(!m.hotpath[0]);
        assert!(m.hotpath[2]);
        assert!(!m.hotpath[4]);
    }

    #[test]
    fn cfg_test_regions_brace_tracked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let s = \"}\"; }\n}\nfn after() {}";
        let m = model(src);
        assert!(!m.in_test[0]);
        assert!(m.in_test[3], "inside the test mod");
        assert!(!m.in_test[5], "after the closing brace");
    }

    #[test]
    fn token_boundaries() {
        assert!(find_token("DetHashMap<u64, u32>", "HashMap").is_none());
        assert!(find_token("HashMap::new()", "HashMap").is_some());
        assert!(find_token(
            "std::collections::HashMap<K, V>",
            "std::collections::HashMap"
        )
        .is_some());
    }
}
