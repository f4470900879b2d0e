//! simlint — in-repo determinism & invariant linter.
//!
//! The simulator's headline numbers rest on bit-exact replay across seeds,
//! `--jobs` fan-out, and refactors. The golden-hash tests enforce that
//! *dynamically*, after a sweep has already run; simlint enforces the
//! underlying discipline *statically*, at review time:
//!
//! * **D1–D7** — determinism hazards (std hash maps in sim state, wall-clock
//!   reads, unlabeled RNG streams, order-sensitive parallel accumulation,
//!   sim state held outside the snapshot registry, racy shard-worker
//!   captures, RNG stream-label collisions);
//! * **H1–H3** — hot-path invariants (no allocation inside slab fences, no
//!   truncating casts in simulated-time arithmetic, no allocation reachable
//!   through calls leaving a fence).
//!
//! Snapshot completeness is left to the compiler: every codec names every
//! field of its type (`simcore::snap_fields!`, or an exhaustive
//! `let Self { … } = self;`), and the workspace denies unused variables.
//!
//! Linting runs in two passes: pass 1 applies the per-file rules to each
//! [`scan::SourceModel`]; pass 2 builds a repo-wide [`index::RepoIndex`]
//! (fns, calls, RNG sites) and runs the interprocedural rules (H3, D7)
//! against it.
//!
//! Three front ends share this library: the `simlint` binary, the
//! `repro lint` subcommand, and the tier-1 integration test
//! (`tests/simlint.rs`) that gates the tree at zero non-baselined findings.

pub mod callgraph;
pub mod config;
pub mod index;
pub mod rules;
pub mod scan;

use config::Config;
use index::{RepoIndex, SourceFile};
use rules::{FileCtx, RngStreamEntry};
use std::fs;
use std::path::{Path, PathBuf};

/// One finding: a rule firing at a specific file:line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D1` … `H2`).
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Repo-relative path, `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// What fired.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// Tolerated by the `simlint.toml` baseline (reported, not gating).
    pub baselined: bool,
}

/// Finding severity. Every current rule denies; the enum leaves room for
/// advisory rules later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Gating: fails the binary / test / CI when not baselined.
    Deny,
    /// Advisory only.
    Warn,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// A baseline entry that no longer matches any finding.
#[derive(Debug, Clone)]
pub struct StaleBaseline {
    /// The entry text, `"RULE:repo/relative/path.rs"`.
    pub entry: String,
    /// 1-indexed line of the entry in `simlint.toml`, when locatable.
    pub toml_line: Option<usize>,
}

/// The result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// The RNG stream-label registry D7 collected (literal labels and every
    /// site deriving them), in first-derivation order.
    pub rng_streams: Vec<RngStreamEntry>,
    /// Baseline entries that matched no finding — the debt was paid; the
    /// entry must be deleted so it cannot mask a future regression.
    pub stale_baseline: Vec<StaleBaseline>,
}

impl Report {
    /// Findings not tolerated by the baseline — the gating set.
    pub fn gating(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.baselined)
    }

    /// Count of gating findings.
    pub fn gating_count(&self) -> usize {
        self.gating().count()
    }
}

/// Walks up from `start` looking for `simlint.toml`; that directory is the
/// workspace root. Falls back to `start` itself.
pub fn find_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("simlint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

/// Loads `simlint.toml` from `root` (builtin defaults if absent).
pub fn load_config(root: &Path) -> Config {
    match fs::read_to_string(root.join("simlint.toml")) {
        Ok(text) => Config::from_toml(&text),
        Err(_) => Config::builtin(),
    }
}

/// Directories never scanned, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "results", "fixtures"];

/// Collects every `.rs` file under `root` worth linting, sorted for
/// deterministic report order. Scans `crates/*` and the root `src/`/`tests/`
/// trees; skips build output, vendored deps, results, and the linter's own
/// rule fixtures (which are known-bad on purpose).
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "benches", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out);
        }
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Repo-relative path with `/` separators (for findings and baseline keys).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Whether the file as a whole is test context (outside a crate's `src/`).
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|seg| {
        seg == "tests" || seg == "benches" || seg == "examples" || seg.starts_with("bench")
    }) && !rel.contains("/src/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Lints one source string as if it lived at `rel` under the repo root,
/// with the **per-file** rules only. This is the seam the original fixture
/// tests use; the interprocedural rules need [`lint_sources`].
pub fn lint_source(rel: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let model = scan::model(source);
    let ctx = FileCtx {
        rel_path: rel,
        model: &model,
        file_is_test: is_test_path(rel),
    };
    let mut out = Vec::new();
    rules::run_all(&ctx, cfg, &mut out);
    for f in &mut out {
        f.baselined = cfg.is_baselined(f.rule, &f.file);
    }
    out
}

/// Lints a set of in-memory sources as one tree: both passes, full report.
/// This is the seam the interprocedural fixture tests use (D7's collision
/// fixture needs two modules linted together).
pub fn lint_sources(sources: &[(&str, &str)], cfg: &Config) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::new(rel, src, is_test_path(rel)))
        .collect();
    lint_files(files, cfg, None)
}

/// Lints the whole workspace under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let cfg = load_config(root);
    let toml = fs::read_to_string(root.join("simlint.toml")).ok();
    let mut files = Vec::new();
    for path in collect_sources(root) {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = rel_path(root, &path);
        let is_test = is_test_path(&rel);
        files.push(SourceFile::new(&rel, &source, is_test));
    }
    lint_files(files, &cfg, toml.as_deref())
}

/// The two-pass core shared by [`lint_sources`] and [`lint_workspace`].
fn lint_files(files: Vec<SourceFile>, cfg: &Config, toml: Option<&str>) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    // Pass 1: per-file rules over each source model.
    for file in &files {
        let ctx = FileCtx {
            rel_path: &file.rel,
            model: &file.model,
            file_is_test: file.is_test_file,
        };
        rules::run_all(&ctx, cfg, &mut report.findings);
    }
    // Pass 2: repo-wide index, interprocedural rules.
    let idx = RepoIndex::build(&files);
    report.rng_streams = rules::run_index_rules(&files, &idx, cfg, &mut report.findings);
    for f in &mut report.findings {
        f.baselined = cfg.is_baselined(f.rule, &f.file);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.stale_baseline = stale_baseline_entries(cfg, &report.findings, toml);
    report
}

/// Baseline entries that matched no finding, each located in the config
/// text when available. Stale entries gate: an entry whose finding was
/// fixed must be deleted, or it would silently tolerate a *new* finding of
/// the same rule in the same file.
fn stale_baseline_entries(
    cfg: &Config,
    findings: &[Finding],
    toml: Option<&str>,
) -> Vec<StaleBaseline> {
    cfg.baseline
        .iter()
        .filter(|entry| {
            !findings
                .iter()
                .any(|f| format!("{}:{}", f.rule, f.file) == **entry)
        })
        .map(|entry| StaleBaseline {
            entry: entry.clone(),
            toml_line: toml.and_then(|text| {
                text.lines()
                    .position(|line| line.contains(entry.as_str()))
                    .map(|i| i + 1)
            }),
        })
        .collect()
}

/// Renders the report as human-readable text.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let tag = if f.baselined { " (baselined)" } else { "" };
        out.push_str(&format!(
            "{}: [{}/{}] {}:{} — {}{}\n    hint: {}\n",
            f.severity.label(),
            f.rule,
            f.severity.label(),
            f.file,
            f.line,
            f.message,
            tag,
            f.hint
        ));
    }
    for stale in &report.stale_baseline {
        let at = match stale.toml_line {
            Some(line) => format!("simlint.toml:{line}"),
            None => "simlint.toml".to_owned(),
        };
        out.push_str(&format!(
            "stale baseline: `{}` ({at}) matches no finding — delete the entry\n",
            stale.entry
        ));
    }
    out.push_str(&format!(
        "simlint: {} file(s) scanned, {} finding(s), {} gating, {} stale baseline entr{}\n",
        report.files_scanned,
        report.findings.len(),
        report.gating_count(),
        report.stale_baseline.len(),
        if report.stale_baseline.len() == 1 {
            "y"
        } else {
            "ies"
        }
    ));
    out
}

/// Renders the report as GitHub Actions workflow commands, one annotation
/// per gating finding (`::error file=…,line=…::…`), so findings surface
/// inline on the PR diff. Baselined findings become `::warning`; stale
/// baseline entries annotate `simlint.toml` itself.
pub fn render_github(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let kind = if f.baselined { "warning" } else { "error" };
        out.push_str(&format!(
            "::{kind} file={},line={},title=simlint {}::{}{}\n",
            f.file,
            f.line,
            f.rule,
            github_escape_data(&f.message),
            if f.hint.is_empty() {
                String::new()
            } else {
                format!(" (hint: {})", github_escape_data(f.hint))
            },
        ));
    }
    for stale in &report.stale_baseline {
        out.push_str(&format!(
            "::error file=simlint.toml{},title=simlint stale baseline::baseline entry `{}` matches no finding — delete it\n",
            match stale.toml_line {
                Some(line) => format!(",line={line}"),
                None => String::new(),
            },
            github_escape_data(&stale.entry),
        ));
    }
    out
}

/// Escapes the data part of a GitHub workflow command (`%`, CR, LF).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as JSON (hand-rolled; the crate is dependency-free).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\", \"baselined\": {}}}",
            f.rule,
            f.severity.label(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            json_escape(f.hint),
            f.baselined
        ));
    }
    out.push_str("\n  ],\n  \"rng_streams\": [");
    for (i, entry) in report.rng_streams.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"sites\": [",
            json_escape(&entry.label)
        ));
        for (j, (file, line)) in entry.sites.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": \"{}\", \"line\": {}}}",
                json_escape(file),
                line
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"stale_baseline\": [");
    for (i, stale) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"entry\": \"{}\", \"toml_line\": {}}}",
            json_escape(&stale.entry),
            match stale.toml_line {
                Some(line) => line.to_string(),
                None => "null".to_owned(),
            }
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"total\": {},\n  \"gating\": {}\n}}\n",
        report.files_scanned,
        report.findings.len(),
        report.gating_count()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_flags_and_allows_d1() {
        let cfg = Config::builtin();
        let bad = "use std::collections::HashMap;\nfn f() { let m: std::collections::HashMap<u32, u32> = Default::default(); let _ = m; }\n";
        let findings = lint_source("crates/x/src/lib.rs", bad, &cfg);
        assert_eq!(findings.iter().filter(|f| f.rule == "D1").count(), 2);
        assert_eq!(findings[0].line, 1);

        let ok = "use std::collections::HashMap; // simlint: allow(D1)\n";
        let findings = lint_source("crates/x/src/lib.rs", ok, &cfg);
        assert!(findings.is_empty());
    }

    #[test]
    fn baseline_marks_but_does_not_gate() {
        let cfg = Config::from_toml("[baseline]\nentries = [\"D1:crates/x/src/lib.rs\"]\n");
        let findings = lint_source(
            "crates/x/src/lib.rs",
            "use std::collections::HashMap;\n",
            &cfg,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].baselined);
        let report = Report {
            findings,
            files_scanned: 1,
            ..Report::default()
        };
        assert_eq!(report.gating_count(), 0);
    }

    #[test]
    fn json_escapes_quotes() {
        let report = Report {
            findings: vec![Finding {
                rule: "D2",
                severity: Severity::Deny,
                file: "a\"b.rs".to_owned(),
                line: 3,
                message: "x".to_owned(),
                hint: "",
                baselined: false,
            }],
            files_scanned: 1,
            ..Report::default()
        };
        let json = render_json(&report);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("\"gating\": 1"));
        assert!(json.contains("\"rng_streams\": ["));
        assert!(json.contains("\"stale_baseline\": ["));
    }

    #[test]
    fn github_format_annotates_findings_and_stale_entries() {
        let report = Report {
            findings: vec![Finding {
                rule: "H1",
                severity: Severity::Deny,
                file: "crates/x/src/lib.rs".to_owned(),
                line: 7,
                message: "100% bad".to_owned(),
                hint: "fix it",
                baselined: false,
            }],
            files_scanned: 1,
            stale_baseline: vec![StaleBaseline {
                entry: "D4:crates/y/src/lib.rs".to_owned(),
                toml_line: Some(12),
            }],
            ..Report::default()
        };
        let gh = render_github(&report);
        assert!(
            gh.contains("::error file=crates/x/src/lib.rs,line=7,title=simlint H1::100%25 bad"),
            "workflow command with %-escaped message: {gh}"
        );
        assert!(
            gh.contains("::error file=simlint.toml,line=12,title=simlint stale baseline::baseline entry `D4:crates/y/src/lib.rs`"),
            "stale entry annotated at its toml line: {gh}"
        );
    }

    #[test]
    fn stale_baseline_entries_are_located_in_toml() {
        let toml = "[baseline]\nentries = [\n  \"D4:crates/live/src/a.rs\",\n  \"D4:crates/gone/src/b.rs\",\n]\n";
        let cfg = Config::from_toml(toml);
        let findings = vec![Finding {
            rule: "D4",
            severity: Severity::Deny,
            file: "crates/live/src/a.rs".to_owned(),
            line: 1,
            message: String::new(),
            hint: "",
            baselined: true,
        }];
        let stale = stale_baseline_entries(&cfg, &findings, Some(toml));
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].entry, "D4:crates/gone/src/b.rs");
        assert_eq!(stale[0].toml_line, Some(4));
    }

    #[test]
    fn lint_sources_runs_interprocedural_pass() {
        let cfg = Config::builtin();
        let src = "fn setup(f: &RngFactory, label: &str) {\n    let a = f.stream(label);\n}\n";
        let report = lint_sources(&[("crates/x/src/lib.rs", src)], &cfg);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "D7" && f.line == 2),
            "non-literal stream label: {:?}",
            report.findings
        );
    }
}
