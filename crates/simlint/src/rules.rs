//! The rule catalog.
//!
//! | rule | class | what it catches |
//! |------|-------|-----------------|
//! | D1 | determinism | `std::collections::HashMap`/`HashSet` in sim state: SipHash's per-instance seeds make iteration order *and capacity* (hence reported footprints) vary run to run |
//! | D2 | determinism | wall-clock reads (`Instant::now`, `SystemTime`) outside the perf-calibration allowlist: simulations must only read `SimTime` |
//! | D3 | determinism | ad-hoc RNG construction (`Rng::seed_from`) or positional forking (`rng.fork()`) bypassing the labeled-stream API (`RngFactory::stream`/`substream`): unlabeled streams shift when a new consumer appears |
//! | D4 | determinism | compound float accumulation (`+=` on a captured binding) inside a `par::map` closure: cross-worker accumulation order is nondeterministic |
//! | D5 | determinism | sim-state type (`Rng`, `Calendar`, running statistics) held in a sim-crate file with no snapshot plumbing: checkpoint/resume silently loses that state |
//! | D6 | determinism | compound mutation of a captured binding inside a `spawn(…)` closure: shard workers must exchange state through the mailbox/merge API, never by racing on shared captures |
//! | D7 | determinism | RNG stream labels that are not string literals, or the same literal label derived from two modules: shared labels silently correlate streams that look independent |
//! | H1 | hot path | allocation-prone calls (`Vec::new`, `clone`, `format!`, …) inside a `// simlint: hotpath(begin/end)` fence: the slab request path must not allocate in steady state |
//! | H2 | hot path | `as` integer casts in `simcore::time` arithmetic: truncation silently wraps simulated nanoseconds; use checked/asserted conversions |
//! | H3 | hot path | calls from inside an H1 fence whose callee (transitively, bounded depth) contains allocation-prone lines: the fence is only as good as what it calls |
//!
//! D1–D6, H1–H2 are per-file rules over one [`SourceModel`]; D7 and H3 are
//! **interprocedural** — they run in a second pass against the repo-wide
//! [`crate::index::RepoIndex`] built over every scanned file.
//!
//! Snapshot *completeness* — every field of a snapshotting type written by
//! its save and read by its restore — is not a lint: the compiler checks
//! it. Each codec names every field of its type, either through
//! `simcore::snap_fields!` or through a `let Self { … } = self;` pattern
//! with no `..` (see `simcore::snap`), and the workspace denies unused
//! variables, so a forgotten field fails `cargo build`.
//!
//! Every rule is suppressible per line with `// simlint: allow(<rule>)` and
//! per file via `simlint.toml` (`allow_paths`, or a `[baseline]` entry —
//! D-rules are unbaselineable by tier-1 policy).

use crate::config::RuleCfg;
use crate::scan::{find_token, SourceModel};
use crate::{Finding, Severity};

/// Static description of one rule, for `--explain`-style output and docs.
pub struct RuleInfo {
    /// Rule id (`D1` … `H2`).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The fix hint attached to findings.
    pub hint: &'static str,
}

/// The catalog, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "std HashMap/HashSet in simulation state (iteration order and capacity are per-run random)",
        hint: "use simcore::detmap::{DetHashMap, DetHashSet}, a BTreeMap, or sorted iteration",
    },
    RuleInfo {
        id: "D2",
        summary: "wall-clock read outside the perf-calibration allowlist",
        hint: "simulations read SimTime only; host timing belongs in crates/bench (see simlint.toml allow_paths)",
    },
    RuleInfo {
        id: "D3",
        summary: "RNG constructed or forked outside the labeled-stream API",
        hint: "derive generators via RngFactory::stream(label) / substream(label, i) so streams stay partitionable",
    },
    RuleInfo {
        id: "D4",
        summary: "order-sensitive accumulation inside a par::map closure",
        hint: "return per-item values and reduce the ordered result vector on the caller's thread",
    },
    RuleInfo {
        id: "D5",
        summary: "sim-state type held in a file with no snapshot plumbing (checkpoint/resume would lose it)",
        hint: "give the owning struct snap_save/snap_restore and wire it into its parent's snapshot (see DESIGN.md \"Snapshot & branch\"), or waive derived state with simlint: allow(D5)",
    },
    RuleInfo {
        id: "D6",
        summary: "shared mutable state reached from a spawn closure (bypasses the shard mailbox/merge API)",
        hint: "send cross-shard effects as mailbox messages or return per-worker values and merge them in (time, shard, seq) order on the driver thread",
    },
    RuleInfo {
        id: "D7",
        summary: "RNG stream label is not a unique string literal (shared labels silently correlate \"independent\" streams)",
        hint: "label every stream with a distinct string literal; derive families with substream(label, index)",
    },
    RuleInfo {
        id: "H1",
        summary: "allocation-prone call inside a hotpath fence",
        hint: "preallocate, reuse a scratch buffer/slab slot, or move the allocation out of the fence",
    },
    RuleInfo {
        id: "H2",
        summary: "`as` integer cast in simulated-time arithmetic",
        hint: "use checked_*/try_into, or assert the range and annotate with simlint: allow(H2)",
    },
    RuleInfo {
        id: "H3",
        summary: "call from a hotpath fence reaches an allocation-prone line in an unfenced callee",
        hint: "fence the callee (H1 then checks it line by line), remove the allocation, or waive the call site with simlint: allow(H3)",
    },
];

/// Looks up the hint for `rule`.
pub fn hint_for(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.hint)
        .unwrap_or("")
}

/// Context for linting one file.
pub struct FileCtx<'a> {
    /// Repo-relative path with `/` separators.
    pub rel_path: &'a str,
    /// The per-line source model.
    pub model: &'a SourceModel,
    /// Whole file is test context (under `tests/`, `benches/`, `examples/`).
    pub file_is_test: bool,
}

impl FileCtx<'_> {
    fn line_is_test(&self, idx: usize) -> bool {
        self.file_is_test || self.model.in_test.get(idx).copied().unwrap_or(false)
    }
}

fn path_matches(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// True when `rule` applies to this file at all (paths/allow_paths scoping).
fn rule_in_scope(cfg: &RuleCfg, path: &str) -> bool {
    if !cfg.paths.is_empty() && !path_matches(path, &cfg.paths) {
        return false;
    }
    !path_matches(path, &cfg.allow_paths)
}

fn push(
    out: &mut Vec<Finding>,
    ctx: &FileCtx,
    rule: &'static str,
    line_idx: usize,
    message: String,
) {
    out.push(Finding {
        rule,
        severity: Severity::Deny,
        file: ctx.rel_path.to_owned(),
        line: line_idx + 1,
        message,
        hint: hint_for(rule),
        baselined: false,
    });
}

/// Runs one rule: iterates lines in scope, skipping allowed/test lines as
/// configured, and calls `check` to produce a message for flagged lines.
fn per_line_rule(
    ctx: &FileCtx,
    cfg: &RuleCfg,
    rule: &'static str,
    out: &mut Vec<Finding>,
    mut check: impl FnMut(&str) -> Option<String>,
) {
    if !rule_in_scope(cfg, ctx.rel_path) {
        return;
    }
    for (idx, line) in ctx.model.code.iter().enumerate() {
        if !cfg.include_tests && ctx.line_is_test(idx) {
            continue;
        }
        if ctx.model.is_allowed(idx, rule) {
            continue;
        }
        if let Some(message) = check(line) {
            push(out, ctx, rule, idx, message);
        }
    }
}

/// D1: std `HashMap`/`HashSet` (fully-qualified uses and `use` imports).
pub fn d1_std_hashmap(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    per_line_rule(ctx, cfg, "D1", out, |line| {
        for name in ["HashMap", "HashSet"] {
            let qualified = format!("std::collections::{name}");
            if find_token(line, &qualified).is_some() {
                return Some(format!("{qualified} in simulation code"));
            }
            // `use std::collections::{BTreeMap, HashMap};` style imports.
            let trimmed = line.trim_start();
            if (trimmed.starts_with("use std::collections::")
                || trimmed.starts_with("pub use std::collections::"))
                && find_token(line, name).is_some()
            {
                return Some(format!("std::collections::{name} imported here"));
            }
        }
        None
    });
}

/// D2: wall-clock reads.
pub fn d2_wall_clock(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    per_line_rule(ctx, cfg, "D2", out, |line| {
        for needle in [
            "Instant::now",
            "SystemTime::now",
            "std::time::Instant",
            "std::time::SystemTime",
        ] {
            if find_token(line, needle).is_some() {
                return Some(format!("wall-clock read `{needle}`"));
            }
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("use std::time::")
            && (find_token(line, "Instant").is_some() || find_token(line, "SystemTime").is_some())
        {
            return Some("wall-clock type imported here".to_owned());
        }
        None
    });
}

/// D3: direct RNG seeding — or unlabeled forking — outside the
/// labeled-stream API.
pub fn d3_unlabeled_rng(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    per_line_rule(ctx, cfg, "D3", out, |line| {
        if let Some(at) = find_token(line, "seed_from") {
            let rest = line[at + "seed_from".len()..].trim_start();
            // A call or a definition; definitions live in the allowlisted
            // rng.rs, so anything reaching here is a bypass.
            if rest.starts_with('(') {
                return Some("RNG seeded directly (bypasses labeled streams)".to_owned());
            }
        }
        // `rng.fork()` derives a child whose identity is positional: insert
        // one more fork upstream and every later child shifts. Generative
        // samplers (the chaos plan space) must use substream(label, index)
        // so each draw is replayable from its coordinates alone.
        if let Some(at) = find_token(line, "fork") {
            let rest = line[at + "fork".len()..].trim_start();
            if rest.starts_with('(') && line[..at].ends_with('.') {
                return Some(
                    "RNG forked positionally (unlabeled child stream; use substream(label, index))"
                        .to_owned(),
                );
            }
        }
        None
    });
}

/// D4: compound accumulation into a captured binding inside `par::map`.
///
/// The scanner brace-matches each `par::map(…)` call (multi-line), collects
/// every identifier bound *inside* the call region (`let` patterns, closure
/// parameters, `for` loops), then flags compound assignments whose base
/// identifier is not one of them — i.e. accumulation into state captured
/// from outside the parallel boundary, where completion order is
/// nondeterministic.
pub fn d4_parallel_accumulation(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    captured_accumulation(
        ctx,
        cfg,
        "D4",
        out,
        |line| find_token(line, "par::map"),
        |base, op| {
            format!(
                "`{base} {op} …` accumulates into a binding captured across the par::map boundary"
            )
        },
    );
}

/// D6: compound mutation of a captured binding inside a `spawn(…)` closure.
///
/// The cross-shard analog of D4. Shard workers run cells concurrently; the
/// only sanctioned channels between them are the per-window mailboxes
/// (messages merged in `(time, shard, seq)` order at the barrier) and the
/// driver-thread reduction after `join`. A worker closure that compound-
/// assigns into state captured from outside the `spawn(…)` region is shared
/// mutable state on a racy path — the merge order, and hence the run hash,
/// would depend on thread scheduling.
pub fn d6_shard_worker_capture(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    captured_accumulation(
        ctx,
        cfg,
        "D6",
        out,
        |line| {
            let at = find_token(line, "spawn")?;
            let rest = line[at + "spawn".len()..].trim_start();
            rest.starts_with('(').then_some(at)
        },
        |base, op| {
            format!(
                "`{base} {op} …` mutates shared state from a spawn closure (bypasses the shard mailbox/merge API)"
            )
        },
    );
}

/// Shared scanner behind D4/D6: brace-matches the call region starting at
/// the token located by `trigger`, collects bindings made inside it, and
/// flags compound assignments to anything captured from outside.
fn captured_accumulation(
    ctx: &FileCtx,
    cfg: &RuleCfg,
    rule: &'static str,
    out: &mut Vec<Finding>,
    trigger: impl Fn(&str) -> Option<usize>,
    describe: impl Fn(&str, &str) -> String,
) {
    if !rule_in_scope(cfg, ctx.rel_path) {
        return;
    }
    let code = &ctx.model.code;
    for start in 0..code.len() {
        let Some(call_at) = trigger(&code[start]) else {
            continue;
        };
        // Find the opening paren after `par::map` and brace-match to its close.
        let open = match code[start][call_at..].find('(') {
            Some(rel) => call_at + rel,
            None => continue,
        };
        let mut depth = 0i32;
        let mut region: Vec<(usize, String)> = Vec::new(); // (line idx, code)
        let mut done = false;
        for (idx, line) in code.iter().enumerate().skip(start) {
            let slice: &str = if idx == start { &line[open..] } else { line };
            let mut cut = slice.len();
            for (pos, c) in slice.char_indices() {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = pos;
                            done = true;
                        }
                    }
                    _ => {}
                }
                if done {
                    break;
                }
            }
            region.push((idx, slice[..cut].to_owned()));
            if done {
                break;
            }
        }
        // Identifiers bound inside the region.
        let mut bound: Vec<String> = Vec::new();
        for (_, line) in &region {
            collect_bindings(line, &mut bound);
        }
        for (idx, line) in &region {
            if !cfg.include_tests && ctx.line_is_test(*idx) {
                continue;
            }
            if ctx.model.is_allowed(*idx, rule) {
                continue;
            }
            for op in ["+=", "-=", "*=", "/="] {
                let mut from = 0;
                while let Some(rel) = line[from..].find(op) {
                    let at = from + rel;
                    from = at + op.len();
                    // `x += 1` vs `x <= 1`/`=>`: the char before must not be
                    // part of another operator.
                    if at > 0 && matches!(&line[at - 1..at], "<" | ">" | "=" | "!" | "+" | "-") {
                        continue;
                    }
                    if let Some(base) = assign_base(&line[..at]) {
                        if !bound.iter().any(|b| b == &base) {
                            push(out, ctx, rule, *idx, describe(&base, op));
                        }
                    }
                }
            }
        }
    }
}

/// Collects identifiers bound by `let` patterns, closure params, and `for`.
fn collect_bindings(line: &str, out: &mut Vec<String>) {
    let idents = |s: &str, out: &mut Vec<String>| {
        let mut cur = String::new();
        for c in s.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.push(c);
            } else if !cur.is_empty() {
                if !cur.chars().next().unwrap_or('0').is_ascii_digit() {
                    out.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
        }
        if !cur.is_empty() && !cur.chars().next().unwrap_or('0').is_ascii_digit() {
            out.push(cur);
        }
    };
    // `let <pattern> =`: everything between `let` and `=` (or `in` for
    // `for`-loops) binds identifiers; over-collecting (types in annotations)
    // only makes the rule more permissive, never noisier.
    let mut from = 0;
    while let Some(rel) = line[from..].find("let ") {
        let at = from + rel;
        from = at + 4;
        let rest = &line[at + 4..];
        let end = rest.find('=').unwrap_or(rest.len());
        idents(&rest[..end], out);
    }
    let mut from = 0;
    while let Some(rel) = line[from..].find("for ") {
        let at = from + rel;
        from = at + 4;
        let rest = &line[at + 4..];
        let end = rest.find(" in ").unwrap_or(rest.len().min(40));
        idents(&rest[..end], out);
    }
    // Closure parameter lists: `|a, (i, b)|` — between the first unescaped
    // pair of pipes if the line contains a closure intro.
    if let Some(p1) = line.find('|') {
        if let Some(p2) = line[p1 + 1..].find('|') {
            idents(&line[p1 + 1..p1 + 1 + p2], out);
        }
    }
}

/// The base identifier of the assignment target ending at `prefix`'s end:
/// `stats.rows += 1` → `stats`; `totals[i] += x` → `totals`.
fn assign_base(prefix: &str) -> Option<String> {
    let trimmed = prefix.trim_end();
    // Walk back over one postfix chain: ident(.ident | [..])*
    let bytes = trimmed.as_bytes();
    let mut i = trimmed.len();
    let mut bracket = 0i32;
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c == ']' {
            bracket += 1;
            i -= 1;
        } else if c == '[' {
            bracket -= 1;
            if bracket < 0 {
                return None;
            }
            i -= 1;
        } else if bracket > 0 || c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            i -= 1;
        } else {
            break;
        }
    }
    let chain = &trimmed[i..];
    let base: String = chain
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if base.is_empty() || base.chars().next().unwrap_or('0').is_ascii_digit() {
        None
    } else {
        Some(base)
    }
}

/// D5: sim-state types held in a file with no snapshot plumbing.
///
/// The checkpoint layer (`simcore::snap`) can only restore state that some
/// `snap_save`/`snap_restore` pair covers. A file that *owns* live sim state
/// — an RNG stream, the calendar, a running statistic — but never touches
/// the snapshot registry is state a checkpoint silently loses. Heuristic:
/// if any code line mentions `SnapWriter`/`SnapReader`, `snap_save` or a
/// `snap_fields!` codec, the file participates in the registry, the
/// compiler checks that its codecs name every field, and the differential
/// battery (`tests/snapshot.rs`) proves the values round-trip; otherwise
/// every field of a known stateful type is flagged.
pub fn d5_unsnapshotted_state(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    const STATE_TYPES: &[&str] = &[
        "Rng",
        "Calendar",
        "TimeSeries",
        "TimeWeighted",
        "RateMeter",
        "Welford",
        "LogHistogram",
    ];
    if !rule_in_scope(cfg, ctx.rel_path) {
        return;
    }
    let participates = ctx.model.code.iter().any(|line| {
        find_token(line, "SnapWriter").is_some()
            || find_token(line, "SnapReader").is_some()
            || find_token(line, "snap_save").is_some()
            || find_token(line, "snap_fields").is_some()
    });
    if participates {
        return;
    }
    per_line_rule(ctx, cfg, "D5", out, |line| {
        if line.contains("fn ") || line.contains("->") {
            return None; // signatures borrow state; only fields *hold* it
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            return None; // imports name the type without holding it
        }
        for ty in STATE_TYPES {
            let Some(at) = find_token(line, ty) else {
                continue;
            };
            if line[at + ty.len()..].starts_with("::") {
                continue; // path expression (e.g. a constructor), not a type
            }
            let before = line[..at].trim_end();
            if before.ends_with(':') || before.ends_with('<') {
                return Some(format!(
                    "sim-state `{ty}` held in a file with no snapshot plumbing"
                ));
            }
        }
        None
    });
}

/// H1: allocation-prone calls inside hotpath fences.
pub fn h1_hotpath_alloc(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    if !rule_in_scope(cfg, ctx.rel_path) {
        return;
    }
    const ALLOC: &[&str] = &[
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
    for (idx, line) in ctx.model.code.iter().enumerate() {
        if !ctx.model.hotpath.get(idx).copied().unwrap_or(false) {
            continue;
        }
        if !cfg.include_tests && ctx.line_is_test(idx) {
            continue;
        }
        if ctx.model.is_allowed(idx, "H1") {
            continue;
        }
        for needle in ALLOC {
            let hit = if needle.starts_with('.') {
                line.contains(needle)
            } else {
                find_token(line, needle).is_some()
            };
            if hit {
                push(
                    out,
                    ctx,
                    "H1",
                    idx,
                    format!("allocation-prone `{needle}` inside a hotpath fence"),
                );
                break; // one finding per line is enough
            }
        }
    }
}

/// H2: `as <integer>` casts in scoped files (simulated-time arithmetic).
pub fn h2_time_casts(ctx: &FileCtx, cfg: &RuleCfg, out: &mut Vec<Finding>) {
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    per_line_rule(ctx, cfg, "H2", out, |line| {
        let mut from = 0;
        while let Some(rel) = line[from..].find(" as ") {
            let at = from + rel;
            from = at + 4;
            let rest = line[at + 4..].trim_start();
            for ty in INT_TYPES {
                if let Some(tail) = rest.strip_prefix(ty) {
                    let after = tail.chars().next().unwrap_or(' ');
                    if !(after.is_ascii_alphanumeric() || after == '_') {
                        return Some(format!(
                            "`as {ty}` cast in simulated-time arithmetic (silent truncation)"
                        ));
                    }
                }
            }
        }
        None
    });
}

/// Runs every per-file rule over one file.
pub fn run_all(ctx: &FileCtx, cfg: &crate::config::Config, out: &mut Vec<Finding>) {
    d1_std_hashmap(ctx, &cfg.rule("D1"), out);
    d2_wall_clock(ctx, &cfg.rule("D2"), out);
    d3_unlabeled_rng(ctx, &cfg.rule("D3"), out);
    d4_parallel_accumulation(ctx, &cfg.rule("D4"), out);
    d5_unsnapshotted_state(ctx, &cfg.rule("D5"), out);
    d6_shard_worker_capture(ctx, &cfg.rule("D6"), out);
    h1_hotpath_alloc(ctx, &cfg.rule("H1"), out);
    h2_time_casts(ctx, &cfg.rule("H2"), out);
}

// ===================================================== interprocedural pass

use crate::callgraph;
use crate::index::{RepoIndex, SourceFile};

/// Emits a finding located in an arbitrary indexed file.
fn push_at(
    out: &mut Vec<Finding>,
    rule: &'static str,
    file: &SourceFile,
    line_idx: usize,
    message: String,
) {
    out.push(Finding {
        rule,
        severity: Severity::Deny,
        file: file.rel.clone(),
        line: line_idx + 1,
        message,
        hint: hint_for(rule),
        baselined: false,
    });
}

/// H3: a call made on a hotpath-fenced line must not reach an
/// allocation-prone line through the call graph (bounded depth).
///
/// H1 checks the fenced lines themselves; H3 follows every call out of the
/// fence through [`callgraph::find_alloc_chain`] and flags the call site
/// with the full chain and the offending line, so "the fence is clean but
/// its helper allocates" is caught without fencing the world.
pub fn h3_hotpath_call_alloc(
    files: &[SourceFile],
    index: &RepoIndex,
    cfg: &RuleCfg,
    out: &mut Vec<Finding>,
) {
    for f in &index.fns {
        let file = &files[f.file];
        if !rule_in_scope(cfg, &file.rel) {
            continue;
        }
        let mut flagged: Vec<(usize, &str)> = Vec::new(); // (line, callee) dedup
        for call in &f.calls {
            if !file.model.hotpath.get(call.line).copied().unwrap_or(false) {
                continue;
            }
            if file.model.is_allowed(call.line, "H3") {
                continue;
            }
            if !cfg.include_tests && file.line_is_test(call.line) {
                continue;
            }
            if flagged
                .iter()
                .any(|&(l, c)| l == call.line && c == call.callee)
            {
                continue;
            }
            let Some(chain) = callgraph::find_alloc_chain(index, files, call, f.owner.as_deref())
            else {
                continue;
            };
            flagged.push((call.line, &call.callee));
            push_at(
                out,
                "H3",
                file,
                call.line,
                format!(
                    "fenced call into `{}` reaches allocation-prone `{}` at {}:{} (chain: {})",
                    call.callee,
                    chain.needle,
                    chain.file,
                    chain.line,
                    chain.render()
                ),
            );
        }
    }
}

/// One label's call sites, for the registry printed under `--format json`.
#[derive(Debug, Clone)]
pub struct RngStreamEntry {
    /// The literal label.
    pub label: String,
    /// `(repo-relative file, 1-indexed line)` of every derivation site.
    pub sites: Vec<(String, usize)>,
}

/// D7: RNG stream labels must be string literals, and one label must not be
/// derived from two different modules.
///
/// `RngFactory::stream(label)` keys the stream by the label's *text*: two
/// subsystems that happen to pick the same label silently share — and
/// correlate — what they each believe is an independent stream. A
/// non-literal label defeats the registry entirely (the text is unknowable
/// statically), so it is flagged outright. Returns the registry of literal
/// labels for the JSON report.
pub fn d7_rng_label_registry(
    files: &[SourceFile],
    index: &RepoIndex,
    cfg: &RuleCfg,
    out: &mut Vec<Finding>,
) -> Vec<RngStreamEntry> {
    // In-scope, non-test, non-allowed sites, in deterministic index order.
    let sites: Vec<_> = index
        .rng
        .iter()
        .filter(|s| rule_in_scope(cfg, &files[s.file].rel))
        .filter(|s| cfg.include_tests || !s.in_test)
        .collect();
    let mut registry: Vec<RngStreamEntry> = Vec::new();
    for site in &sites {
        let file = &files[site.file];
        match &site.label {
            None => {
                if !file.model.is_allowed(site.line, "D7") {
                    push_at(
                        out,
                        "D7",
                        file,
                        site.line,
                        format!(
                            "`{}` label is not a string literal — the stream registry cannot prove it collision-free",
                            site.method
                        ),
                    );
                }
            }
            Some(label) => {
                match registry.iter_mut().find(|e| &e.label == label) {
                    Some(entry) => {
                        let (first_file, first_line) = entry.sites[0].clone();
                        entry.sites.push((file.rel.clone(), site.line + 1));
                        // Same module re-deriving its own stream is fine
                        // (it reproduces the same sequence by design); the
                        // hazard is two *different* modules colliding.
                        if first_file != file.rel && !file.model.is_allowed(site.line, "D7") {
                            push_at(
                                out,
                                "D7",
                                file,
                                site.line,
                                format!(
                                    "RNG stream label \"{label}\" is already derived at {first_file}:{first_line} — two modules sharing one label silently correlate their streams"
                                ),
                            );
                        }
                    }
                    None => registry.push(RngStreamEntry {
                        label: label.clone(),
                        sites: vec![(file.rel.clone(), site.line + 1)],
                    }),
                }
            }
        }
    }
    registry
}

/// Runs the interprocedural rules (pass 2) over the indexed tree. Returns
/// the RNG label registry for the JSON report.
pub fn run_index_rules(
    files: &[SourceFile],
    index: &RepoIndex,
    cfg: &crate::config::Config,
    out: &mut Vec<Finding>,
) -> Vec<RngStreamEntry> {
    h3_hotpath_call_alloc(files, index, &cfg.rule("H3"), out);
    d7_rng_label_registry(files, index, &cfg.rule("D7"), out)
}
