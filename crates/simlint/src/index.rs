//! Pass 1: the repo-wide symbol index.
//!
//! The per-file rules (D1–D6, H1–H2) only need one file's [`SourceModel`];
//! the interprocedural rules (H3 call-graph hot-path allocation, D7 RNG
//! label registry) need facts that span files. This module extracts those
//! facts from every scanned file's code view in one extra pass and exposes
//! them as a queryable [`RepoIndex`]:
//!
//! * **`impl` blocks and `fn` definitions** — each function records its
//!   owning `impl` type (if any), its signature line, its body line range,
//!   the calls its body makes (with the `Type::` qualifier when present),
//!   and the allocation-prone lines inside its body;
//! * **RNG stream derivations** — every `.stream(…)`/`.substream(…)` call
//!   site with its label when the argument is a string literal (read from
//!   the *raw* source, since the code view blanks literals).
//!
//! The index is built from the same lossy-but-line-exact code view the
//! per-line rules use: it is not a Rust parser, it is a bracket-matching
//! state machine. That is deliberate — the build is offline (no `syn`) and
//! every fact the rules need survives the approximation. Where the
//! approximation could produce a *false positive*, the extractors err on
//! the permissive side instead.

use crate::scan::SourceModel;

/// One scanned file: the inputs both passes share.
pub struct SourceFile {
    /// Repo-relative path, `/` separators.
    pub rel: String,
    /// Raw source lines (string literals intact — the code view blanks
    /// them, and D7 needs the label text).
    pub raw: Vec<String>,
    /// The per-line model (code view, allow directives, fences, test map).
    pub model: SourceModel,
    /// Whole file is test context (under `tests/`, `benches/`, `examples/`).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Builds the model + raw-line view for one source string.
    pub fn new(rel: &str, source: &str, is_test_file: bool) -> SourceFile {
        SourceFile {
            rel: rel.to_owned(),
            raw: source.lines().map(str::to_owned).collect(),
            model: crate::scan::model(source),
            is_test_file,
        }
    }

    /// Whether 0-indexed `line` is test context.
    pub fn line_is_test(&self, line: usize) -> bool {
        self.is_test_file || self.model.in_test.get(line).copied().unwrap_or(false)
    }
}

/// What a call's callee is invoked *on* — the resolution key.
///
/// The scanner has no type information, so resolution trades recall for
/// precision: `self.f()` resolves through the calling fn's `impl` owner
/// (exact), `f()` to free functions, `path::f()` to the named impl or the
/// same-named module file, and `recv.f()` on any other receiver is **not**
/// resolved at all — method names like `push`/`len`/`map` collide with half
/// the ecosystem, and a wrong edge turns every fence into noise.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// `callee(…)` — a free function.
    Bare,
    /// `self.callee(…)` — a method on the calling fn's own type.
    SelfDot,
    /// `seg::callee(…)` — an associated fn (`Type::new`) or a module
    /// function (`par::map`); the segment is recorded.
    Path(String),
    /// `recv.callee(…)` on any other receiver — unresolvable by name.
    Other,
}

/// One call made inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (`pick`, `snap_save`, …).
    pub callee: String,
    /// What the callee is invoked on (see [`Recv`]).
    pub recv: Recv,
    /// 0-indexed call-site line.
    pub line: usize,
}

/// An allocation-prone line inside a function body (H1's needle list),
/// excluding lines already inside a hotpath fence (H1's own territory) and
/// lines waived with `allow(H1)`/`allow(H3)`.
#[derive(Debug)]
pub struct AllocSite {
    /// Which needle matched (`.clone(`, `Vec::new`, …).
    pub needle: &'static str,
    /// 0-indexed line.
    pub line: usize,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `impl` type the definition sits in, generics stripped
    /// (`impl Snap for Foo` records `Foo`). `None` for free functions.
    pub owner: Option<String>,
    /// Index into the scanned-file list.
    pub file: usize,
    /// 0-indexed signature line.
    pub line: usize,
    /// 0-indexed first body line (the line holding the opening `{`).
    pub body_start: usize,
    /// 0-indexed last body line (the line holding the closing `}`).
    pub body_end: usize,
    /// Definition sits in test context.
    pub in_test: bool,
    /// Calls the body makes.
    pub calls: Vec<CallSite>,
    /// Allocation-prone lines in the body (see [`AllocSite`]).
    pub allocs: Vec<AllocSite>,
}

/// One `.stream(…)`/`.substream(…)` call site.
#[derive(Debug)]
pub struct RngSite {
    /// Index into the scanned-file list.
    pub file: usize,
    /// 0-indexed call-site line.
    pub line: usize,
    /// `"stream"` or `"substream"`.
    pub method: &'static str,
    /// The label when the first argument is a string literal; `None` when
    /// it is any other expression (a D7 finding).
    pub label: Option<String>,
    /// Call site sits in test context.
    pub in_test: bool,
}

/// The repo-wide symbol index (pass 1's output).
#[derive(Debug, Default)]
pub struct RepoIndex {
    /// Every function definition, in (file, line) order.
    pub fns: Vec<FnDef>,
    /// Every RNG stream derivation, in (file, line) order.
    pub rng: Vec<RngSite>,
}

/// Allocation-prone call needles — the one list H1 (direct, fenced) and H3
/// (transitive, through the call graph) share.
pub const ALLOC_NEEDLES: &[&str] = &[
    "Vec::new",
    "vec!",
    "String::new",
    "String::from",
    "format!",
    "Box::new",
    "HashMap::new",
    "BTreeMap::new",
    ".to_string(",
    ".to_owned(",
    ".to_vec(",
    ".clone(",
    ".collect(",
];

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "else", "unsafe",
    "let", "mut", "ref", "impl", "pub", "where", "use", "crate", "box", "dyn", "Some", "Ok", "Err",
    "None",
];

impl RepoIndex {
    /// Builds the index over every scanned file.
    pub fn build(files: &[SourceFile]) -> RepoIndex {
        let mut index = RepoIndex::default();
        for (file_idx, file) in files.iter().enumerate() {
            index_file(file, file_idx, &mut index);
        }
        index
    }

    /// Functions named `name` owned by `impl owner` blocks.
    pub fn fns_of(&self, owner: &str, name: &str) -> Vec<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.name == name && f.owner.as_deref() == Some(owner))
            .collect()
    }

    /// Free functions (no `impl` owner) named `name`.
    pub fn free_fns(&self, name: &str) -> Vec<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.name == name && f.owner.is_none())
            .collect()
    }

    /// Free functions named `name` defined in a file that *is* module
    /// `module` (`…/par.rs` or `…/par/mod.rs`) — how `par::map(…)` calls
    /// resolve when no `impl par` exists.
    pub fn free_fns_in_module<'a>(
        &'a self,
        files: &[SourceFile],
        module: &str,
        name: &str,
    ) -> Vec<&'a FnDef> {
        self.fns
            .iter()
            .filter(|f| f.name == name && f.owner.is_none())
            .filter(|f| {
                let rel = &files[f.file].rel;
                rel.ends_with(&format!("/{module}.rs"))
                    || rel.ends_with(&format!("/{module}/mod.rs"))
            })
            .collect()
    }

    /// Functions named `name`, any owner.
    pub fn fns_named(&self, name: &str) -> Vec<&FnDef> {
        self.fns.iter().filter(|f| f.name == name).collect()
    }
}

// ---------------------------------------------------------------- extraction

/// Character cursor over one file's code view, tracking (line, col).
struct Cursor<'a> {
    lines: &'a [String],
    line: usize,
    chars: Vec<char>, // current line's chars
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(lines: &'a [String]) -> Cursor<'a> {
        let chars = lines
            .first()
            .map(|l| l.chars().collect())
            .unwrap_or_default();
        Cursor {
            lines,
            line: 0,
            chars,
            col: 0,
        }
    }

    fn done(&self) -> bool {
        self.line >= self.lines.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.col).copied()
    }

    fn bump(&mut self) {
        self.col += 1;
        while !self.done() && self.col >= self.chars.len() {
            self.line += 1;
            self.col = 0;
            self.chars = self
                .lines
                .get(self.line)
                .map(|l| l.chars().collect())
                .unwrap_or_default();
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// Reads the identifier starting at the cursor (empty if none).
    fn read_ident(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }

    /// Skips a balanced `<…>` group (cursor on `<`). `->` inside (fn-pointer
    /// return types) is skipped so its `>` cannot close the group early.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev = ' ';
        while let Some(c) = self.peek() {
            match c {
                '<' => depth += 1,
                '>' if prev == '-' => {} // `->` in a type position
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            prev = c;
            self.bump();
        }
    }

    /// Skips a balanced bracket group of any kind (cursor on the opener).
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(c) = self.peek() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }
}

/// Indexes one file: impl blocks + fns, RNG stream sites.
fn index_file(file: &SourceFile, file_idx: usize, index: &mut RepoIndex) {
    let code = &file.model.code;
    let mut cur = Cursor::new(code);
    // (brace depth at which the impl body opened, owner type name)
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;

    while !cur.done() {
        cur.skip_ws();
        let Some(c) = cur.peek() else { break };
        if c.is_ascii_alphabetic() || c == '_' {
            let word = cur.read_ident();
            match word.as_str() {
                "struct" => skip_struct_body(&mut cur),
                "impl" => {
                    if let Some(owner) = parse_impl_header(&mut cur) {
                        // The header parse stops on the body `{`.
                        if cur.peek() == Some('{') {
                            depth += 1;
                            impl_stack.push((depth, owner));
                            cur.bump();
                        }
                    }
                }
                "fn" => {
                    let owner = impl_stack.last().map(|(_, o)| o.clone());
                    parse_fn(&mut cur, file, file_idx, owner, index);
                }
                _ => {}
            }
        } else {
            match c {
                '{' => {
                    depth += 1;
                    cur.bump();
                }
                '}' => {
                    depth -= 1;
                    while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                        impl_stack.pop();
                    }
                    cur.bump();
                }
                _ => cur.bump(),
            }
        }
    }

    index_rng_sites(file, file_idx, index);
}

/// Skips `struct Name … { … }` with the cursor just past `struct`, so a
/// field type such as `fn(u32) -> u32` is never read as a fn definition.
/// Tuple (`(…);`) and unit (`;`) structs stop at their first `(` or `;`.
fn skip_struct_body(cur: &mut Cursor) {
    loop {
        match cur.peek() {
            Some('<') => cur.skip_angles(),
            Some('(') | Some(';') | None => return,
            Some('{') => return cur.skip_balanced('{', '}'),
            Some(_) => cur.bump(),
        }
    }
}

/// Parses the `impl … {` header with the cursor just past `impl`, returning
/// the implemented type's base name (`impl Snap for Foo<T>` → `Foo`).
/// Leaves the cursor on the body `{`.
fn parse_impl_header(cur: &mut Cursor) -> Option<String> {
    cur.skip_ws();
    if cur.peek() == Some('<') {
        cur.skip_angles();
    }
    let first = parse_type_path(cur)?;
    cur.skip_ws();
    // `impl Trait for Type` — the type is what we want. (When the next
    // word is not `for` — e.g. `where` — consuming it is harmless: the
    // skip-to-`{` loop below swallows the rest of the header anyway.)
    let mut owner = first;
    if cur.read_ident() == "for" {
        cur.skip_ws();
        owner = parse_type_path(cur)?;
    }
    // Skip `where` clauses and anything else up to the body opener.
    loop {
        match cur.peek() {
            None | Some('{') => break,
            Some('<') => cur.skip_angles(),
            Some(_) => cur.bump(),
        }
    }
    Some(owner)
}

/// Parses a type path (`a::b::Name<G>`), returning the base name of the
/// last segment. Leaves the cursor after the path.
fn parse_type_path(cur: &mut Cursor) -> Option<String> {
    let mut last = String::new();
    loop {
        cur.skip_ws();
        match cur.peek() {
            Some('&') => {
                cur.bump(); // reference prefix
                continue;
            }
            Some('\'') => {
                cur.bump();
                cur.read_ident(); // lifetime name, not a type segment
                continue;
            }
            _ => {}
        }
        let seg = cur.read_ident();
        if seg.is_empty() {
            break;
        }
        if seg == "mut" || seg == "dyn" {
            continue; // prefix keywords, not segments
        }
        last = seg;
        cur.skip_ws();
        if cur.peek() == Some('<') {
            cur.skip_angles();
            cur.skip_ws();
        }
        if cur.peek() == Some(':') {
            cur.bump();
            if cur.peek() == Some(':') {
                cur.bump();
                continue;
            }
            break;
        }
        break;
    }
    if last.is_empty() {
        None
    } else {
        Some(last)
    }
}

/// Parses `fn name …` with the cursor just past `fn`. Brace-matches the
/// body, records the definition, and leaves the cursor after the closing
/// `}` (or after `;` for body-less trait declarations).
fn parse_fn(
    cur: &mut Cursor,
    file: &SourceFile,
    file_idx: usize,
    owner: Option<String>,
    index: &mut RepoIndex,
) {
    cur.skip_ws();
    let sig_line = cur.line;
    let name = cur.read_ident();
    if name.is_empty() {
        return; // `fn(u32) -> u32` in type position
    }
    // Scan to the body `{` or a `;` (trait declaration, no body).
    loop {
        match cur.peek() {
            None => return,
            Some(';') => {
                cur.bump();
                return;
            }
            Some('<') => cur.skip_angles(),
            Some('(') => cur.skip_balanced('(', ')'),
            Some('{') => break,
            Some(_) => cur.bump(),
        }
    }
    let body_start = cur.line;
    // Brace-match the body.
    let mut body_depth = 0i32;
    while let Some(c) = cur.peek() {
        if c == '{' {
            body_depth += 1;
        } else if c == '}' {
            body_depth -= 1;
            if body_depth == 0 {
                break;
            }
        }
        cur.bump();
    }
    let body_end = cur.line;
    cur.bump(); // past the closing `}`
    let in_test = file.line_is_test(sig_line);

    let mut def = FnDef {
        name,
        owner,
        file: file_idx,
        line: sig_line,
        body_start,
        body_end,
        in_test,
        calls: Vec::new(),
        allocs: Vec::new(),
    };
    collect_body_facts(file, &mut def);
    index.fns.push(def);
}

/// Scans a function's body lines for calls and allocation-prone needles.
fn collect_body_facts(file: &SourceFile, def: &mut FnDef) {
    let code = &file.model.code;
    let body = code
        .iter()
        .enumerate()
        .take(def.body_end.saturating_add(1))
        .skip(def.body_start);
    for (idx, line) in body {
        collect_calls(line, idx, &mut def.calls);
        // Allocation needles: H1 owns fenced lines; `allow(H1)` marks a
        // line as sanctioned (cold-start growth), `allow(H3)` waives it
        // from transitive reach specifically.
        if file.model.hotpath.get(idx).copied().unwrap_or(false)
            || file.model.is_allowed(idx, "H1")
            || file.model.is_allowed(idx, "H3")
        {
            continue;
        }
        for needle in ALLOC_NEEDLES {
            let hit = if needle.starts_with('.') {
                line.contains(needle)
            } else {
                crate::scan::find_token(line, needle).is_some()
            };
            if hit {
                def.allocs.push(AllocSite { needle, line: idx });
                break; // one alloc record per line is enough for the chain
            }
        }
    }
}

/// Finds `ident(`-shaped calls in one code-view line.
fn collect_calls(line: &str, line_idx: usize, out: &mut Vec<CallSite>) {
    let chars: Vec<char> = line.chars().collect();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        if !is_ident(chars[i]) || (i > 0 && is_ident(chars[i - 1])) {
            i += 1;
            continue;
        }
        // Identifier starts at i.
        let start = i;
        while i < chars.len() && is_ident(chars[i]) {
            i += 1;
        }
        let ident: String = chars[start..i].iter().collect();
        // Macro? `ident!(…)` is not a function call.
        let mut j = i;
        if chars.get(j) == Some(&'!') {
            continue;
        }
        while chars.get(j).is_some_and(|c| c.is_whitespace()) {
            j += 1;
        }
        if chars.get(j) != Some(&'(') {
            continue;
        }
        if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&ident.as_str()) {
            continue;
        }
        // Definition, not a call?
        let before: String = chars[..start].iter().collect();
        let btrim = before.trim_end();
        if btrim.ends_with("fn") {
            continue;
        }
        let recv = if let Some(head) = btrim.strip_suffix("::") {
            // `seg::ident(` — keep the segment when it is an identifier.
            let q = trailing_ident(head);
            if q.is_empty() || q.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                Recv::Other // `<T as Trait>::f(`, `]::f(` … — give up
            } else {
                Recv::Path(q)
            }
        } else if let Some(head) = btrim.strip_suffix('.') {
            if trailing_ident(head) == "self" && !head.trim_end_matches("self").ends_with('.') {
                Recv::SelfDot
            } else {
                Recv::Other
            }
        } else {
            Recv::Bare
        };
        out.push(CallSite {
            callee: ident,
            recv,
            line: line_idx,
        });
    }
}

/// The identifier ending `head`, or `""`.
fn trailing_ident(head: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    head.chars()
        .rev()
        .take_while(|&c| is_ident(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

/// Indexes `.stream(…)`/`.substream(…)` call sites, reading the label from
/// the raw source (the code view blanks string literals).
fn index_rng_sites(file: &SourceFile, file_idx: usize, index: &mut RepoIndex) {
    for (idx, line) in file.model.code.iter().enumerate() {
        for method in ["substream", "stream"] {
            let Some(at) = crate::scan::find_token(line, method) else {
                continue;
            };
            // Must be a call: `(` after the token (ws tolerated).
            let after = line[at + method.len()..].trim_start();
            if !after.starts_with('(') {
                continue;
            }
            // Skip definitions (`fn stream(…)`) and non-method uses: the
            // call form is `recv.stream(` or `factory.substream(`.
            if !line[..at].trim_end().ends_with('.') {
                continue;
            }
            let open_col = at + (line[at + method.len()..].len() - after.len()) + method.len();
            let label = literal_label(&file.raw, idx, open_col);
            index.rng.push(RngSite {
                file: file_idx,
                line: idx,
                method,
                label,
                in_test: file.line_is_test(idx),
            });
            break; // `substream` already matched; don't re-match `stream`
        }
    }
}

/// Reads the string literal opening the argument list at `(` on
/// `raw[line]` char-offset `open_col`. Looks ahead a couple of lines for
/// multi-line calls. Returns `None` when the first argument is not a
/// string literal.
fn literal_label(raw: &[String], line: usize, open_col: usize) -> Option<String> {
    // The code view maps 1:1 to raw by *char* index (every blanked char
    // becomes one space), so char offsets line up even past multi-byte
    // characters in comments.
    let mut cur_line = line;
    let mut chars: Vec<char> = raw.get(cur_line)?.chars().collect();
    let mut i = open_col + 1; // past the `(`
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i < chars.len() {
            break;
        }
        // Argument on a later line (multi-line call); look a couple ahead.
        cur_line += 1;
        if cur_line > line + 2 {
            return None;
        }
        chars = raw.get(cur_line)?.chars().collect();
        i = 0;
    }
    if chars.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    let mut label = String::new();
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // Escapes keep their following char verbatim — labels in
                // this repo are plain ASCII, this is just for robustness.
                if let Some(&c) = chars.get(i + 1) {
                    label.push(c);
                    i += 2;
                } else {
                    return None;
                }
            }
            '"' => return Some(label),
            c => {
                label.push(c);
                i += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs", src, false)
    }

    #[test]
    fn struct_bodies_are_not_indexed_as_fns() {
        let src = "pub struct Foo<T: Clone> {\n    c: fn(u32) -> u32,\n    d: DetHashMap<u32, Vec<f64>>,\n}\nstruct Tup(u32);\nimpl Foo {\n    fn go(&self) {}\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["go"]);
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Foo"));
    }

    #[test]
    fn indexes_fns_with_owners_and_calls() {
        let src = "impl Snap for Foo {\n    fn save(&self, w: &mut W) {\n        w.u64(self.a);\n        helper(self.b);\n    }\n}\nfn helper(x: u64) {\n    let v = Vec::new();\n    other::thing(x);\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        let save = idx
            .fns_of("Foo", "save")
            .into_iter()
            .next()
            .expect("save indexed");
        assert_eq!(save.line, 1);
        assert!(save.calls.iter().any(|c| c.callee == "helper"));
        assert!(save.calls.iter().any(|c| c.callee == "u64"));
        let helper = idx
            .fns_named("helper")
            .into_iter()
            .find(|f| f.owner.is_none())
            .unwrap();
        assert_eq!(helper.allocs.len(), 1);
        assert_eq!(helper.allocs[0].needle, "Vec::new");
        let thing = helper.calls.iter().find(|c| c.callee == "thing").unwrap();
        assert_eq!(thing.recv, Recv::Path("other".to_owned()));
    }

    #[test]
    fn call_receivers_are_classified() {
        let src = "impl Foo {\n    fn go(&mut self) {\n        self.step();\n        helper();\n        Bar::make();\n        self.queue.push(1);\n        par::map(x);\n    }\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        let go = idx.fns_of("Foo", "go").into_iter().next().unwrap();
        let recv_of = |name: &str| {
            go.calls
                .iter()
                .find(|c| c.callee == name)
                .map(|c| c.recv.clone())
        };
        assert_eq!(recv_of("step"), Some(Recv::SelfDot));
        assert_eq!(recv_of("helper"), Some(Recv::Bare));
        assert_eq!(recv_of("make"), Some(Recv::Path("Bar".to_owned())));
        assert_eq!(
            recv_of("push"),
            Some(Recv::Other),
            "`self.queue.push` is not a self-call"
        );
        assert_eq!(recv_of("map"), Some(Recv::Path("par".to_owned())));
    }

    #[test]
    fn fenced_and_allowed_alloc_lines_are_not_recorded() {
        let src = "// simlint: hotpath(begin)\nfn fenced() {\n    let v = Vec::new();\n}\n// simlint: hotpath(end)\nfn cold() {\n    let v = Vec::new(); // simlint: allow(H3) — cold start\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        assert!(idx
            .fns_named("fenced")
            .into_iter()
            .next()
            .unwrap()
            .allocs
            .is_empty());
        assert!(idx
            .fns_named("cold")
            .into_iter()
            .next()
            .unwrap()
            .allocs
            .is_empty());
    }

    #[test]
    fn indexes_rng_labels_from_raw_source() {
        let src = "fn setup(f: &RngFactory) {\n    let a = f.stream(\"arrivals\");\n    let b = f.substream(\"chaos.plan\", 3);\n    let c = f.stream(label);\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        assert_eq!(idx.rng.len(), 3);
        assert_eq!(idx.rng[0].label.as_deref(), Some("arrivals"));
        assert_eq!(idx.rng[0].method, "stream");
        assert_eq!(idx.rng[1].label.as_deref(), Some("chaos.plan"));
        assert_eq!(idx.rng[1].method, "substream");
        assert_eq!(idx.rng[2].label, None, "non-literal label");
    }

    #[test]
    fn rng_definition_lines_are_skipped() {
        let src = "pub fn stream(&self, label: &str) -> Rng {\n    self.derive(label)\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        assert!(idx.rng.is_empty(), "definitions are not call sites");
    }

    #[test]
    fn impl_for_reference_target() {
        let src =
            "impl<'a> Snap for &'a mut Foo {\n    fn save(&self, w: &mut W) { w.u64(1); }\n}\n";
        let idx = RepoIndex::build(&[file(src)]);
        assert!(idx.fns_of("Foo", "save").into_iter().next().is_some());
    }
}
