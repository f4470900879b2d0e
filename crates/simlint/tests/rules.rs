//! Fixture tests: every rule must fire on its known-bad sample (exact rule
//! id and line numbers, asserted against the JSON output) and stay silent
//! on the allowlisted twin.

use simlint::config::Config;
use simlint::{lint_source, lint_sources, render_json, Finding, Report};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints `name` as if it lived at `rel` and returns (findings, JSON).
/// Per-file rules only; the interprocedural rules need [`lint_fixture_tree`].
fn lint_fixture(name: &str, rel: &str) -> (Vec<Finding>, String) {
    let cfg = Config::builtin();
    let findings = lint_source(rel, &fixture(name), &cfg);
    let json = render_json(&Report {
        findings: findings.clone(),
        files_scanned: 1,
        ..Report::default()
    });
    (findings, json)
}

/// Lints fixture files together as one tree — both passes, so the
/// interprocedural rules (H3, D7) run too.
fn lint_fixture_tree(pairs: &[(&str, &str)]) -> (Report, String) {
    let cfg = Config::builtin();
    let sources: Vec<(&str, String)> = pairs
        .iter()
        .map(|&(name, rel)| (rel, fixture(name)))
        .collect();
    let refs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (*r, s.as_str())).collect();
    let report = lint_sources(&refs, &cfg);
    let json = render_json(&report);
    (report, json)
}

/// Asserts the JSON report carries `rule` at exactly `lines` in `rel`.
fn assert_json_lines(json: &str, rule: &str, rel: &str, lines: &[usize]) {
    for &line in lines {
        let needle = format!(
            "{{\"rule\": \"{rule}\", \"severity\": \"deny\", \"file\": \"{rel}\", \"line\": {line},"
        );
        assert!(
            json.contains(&needle),
            "JSON must contain {needle}\ngot:\n{json}"
        );
    }
    let occurrences = json.matches(&format!("\"rule\": \"{rule}\"")).count();
    assert_eq!(
        occurrences,
        lines.len(),
        "expected exactly {} {rule} finding(s)\ngot:\n{json}",
        lines.len()
    );
}

#[test]
fn d1_fires_on_std_maps() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("d1_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D1"));
    assert_json_lines(&json, "D1", rel, &[3, 4, 7]);
}

#[test]
fn d1_respects_allow() {
    let (findings, _) = lint_fixture("d1_allowed.rs", "crates/x/src/lib.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn d2_fires_on_wall_clock() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("d2_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D2"));
    assert_json_lines(&json, "D2", rel, &[3, 6]);
}

#[test]
fn d2_respects_allow() {
    let (findings, _) = lint_fixture("d2_allowed.rs", "crates/x/src/lib.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn d2_respects_allow_paths() {
    // Path-level allowlisting (the simlint.toml escape hatch for bench).
    let cfg = Config::from_toml("[rules.D2]\nallow_paths = [\"crates/bench/\"]\n");
    let findings = lint_source("crates/bench/src/perf.rs", &fixture("d2_bad.rs"), &cfg);
    assert!(findings.is_empty(), "bench is allowlisted: {findings:?}");
}

#[test]
fn d3_fires_on_direct_seeding() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("d3_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D3"));
    assert_json_lines(&json, "D3", rel, &[4]);
}

#[test]
fn d3_respects_allow() {
    let (findings, _) = lint_fixture("d3_allowed.rs", "crates/x/src/lib.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn d3_fires_on_positional_forking() {
    // The chaos-sampler path: plans must come from substream(label, index),
    // never from fork-order identity.
    let rel = "crates/microsvc/src/chaos.rs";
    let (findings, json) = lint_fixture("d3_fork_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D3"));
    assert_json_lines(&json, "D3", rel, &[9]);
}

#[test]
fn d3_forking_respects_labels_and_allow() {
    let (findings, _) = lint_fixture("d3_fork_allowed.rs", "crates/microsvc/src/chaos.rs");
    assert!(findings.is_empty(), "labeled / allowlisted: {findings:?}");
}

#[test]
fn d4_fires_on_captured_accumulation() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("d4_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D4"));
    assert_json_lines(&json, "D4", rel, &[6]);
}

#[test]
fn d4_silent_on_ordered_reduce_and_allow() {
    let (findings, _) = lint_fixture("d4_allowed.rs", "crates/x/src/lib.rs");
    assert!(
        findings.is_empty(),
        "ordered reduce / allowlisted: {findings:?}"
    );
}

#[test]
fn d5_fires_on_unsnapshotted_state_in_sim_crates_only() {
    // D5 is scoped to the simulation crates; the same source in bench or
    // tooling code is silent.
    let rel = "crates/simcore/src/widget.rs";
    let (findings, json) = lint_fixture("d5_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D5"));
    assert_json_lines(&json, "D5", rel, &[4, 5, 9]);

    let (elsewhere, _) = lint_fixture("d5_bad.rs", "crates/bench/src/lib.rs");
    assert!(elsewhere.is_empty(), "D5 out of scope: {elsewhere:?}");
}

#[test]
fn d5_respects_allow() {
    let (findings, _) = lint_fixture("d5_allowed.rs", "crates/simcore/src/widget.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn d5_skips_files_that_participate_in_the_snapshot_registry() {
    // A file carrying any snapshot plumbing is covered dynamically by the
    // differential battery (tests/snapshot.rs), not flagged statically.
    let cfg = Config::builtin();
    let source = format!(
        "{}\nimpl Widget {{\n    pub fn snap_save(&self) {{}}\n}}\n",
        fixture("d5_bad.rs")
    );
    let findings = lint_source("crates/simcore/src/widget.rs", &source, &cfg);
    assert!(findings.is_empty(), "registered file: {findings:?}");
}

#[test]
fn d5_counts_a_derived_codec_as_participation() {
    // A file whose only codec is a `snap_fields!` invocation participates
    // too: the compiler checks that the list names every field.
    let cfg = Config::builtin();
    let source = format!(
        "{}\nsimcore::snap_fields!(Meter {{ rate }});\n",
        fixture("d5_bad.rs")
    );
    let findings = lint_source("crates/simcore/src/widget.rs", &source, &cfg);
    assert!(findings.is_empty(), "registered file: {findings:?}");
}

#[test]
fn d6_fires_on_spawn_closure_mutating_captured_state() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("d6_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "D6"), "{findings:?}");
    assert_json_lines(&json, "D6", rel, &[9]);
}

#[test]
fn d6_silent_on_mailbox_sends_join_reduce_and_allow() {
    let (findings, _) = lint_fixture("d6_allowed.rs", "crates/x/src/lib.rs");
    assert!(
        findings.is_empty(),
        "mailbox/reduce/allowlisted: {findings:?}"
    );
}

#[test]
fn h1_fires_inside_fence_only() {
    let rel = "crates/x/src/lib.rs";
    let (findings, json) = lint_fixture("h1_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "H1"));
    // Line 12 allocates too, but outside the fence — must not fire.
    assert_json_lines(&json, "H1", rel, &[5]);
}

#[test]
fn h1_respects_allow() {
    let (findings, _) = lint_fixture("h1_allowed.rs", "crates/x/src/lib.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn h1_fires_on_speculation_replay_allocations() {
    // The micro-snapshot/rollback-replay shape: every allocation needle
    // inside the fence fires, one finding per line; the cold path outside
    // the fence (line 19) stays silent.
    let rel = "crates/microsvc/src/shard.rs";
    let (findings, json) = lint_fixture("h1_spec_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "H1"), "{findings:?}");
    assert_json_lines(&json, "H1", rel, &[6, 8, 12, 14]);
}

#[test]
fn h1_silent_on_reuse_first_replay() {
    // Same shape written pay-as-you-go: clear + extend_from_slice,
    // partition_point prefix cuts, mem::take buffer swaps, and one
    // explicitly allowlisted cold-start growth.
    let (findings, _) = lint_fixture("h1_spec_allowed.rs", "crates/microsvc/src/shard.rs");
    assert!(findings.is_empty(), "pay-as-you-go replay: {findings:?}");
}

#[test]
fn h2_fires_in_scoped_path_only() {
    // H2 is scoped to simcore's time arithmetic; the same source elsewhere
    // is silent.
    let rel = "crates/simcore/src/time.rs";
    let (findings, json) = lint_fixture("h2_bad.rs", rel);
    assert!(findings.iter().all(|f| f.rule == "H2"));
    assert_json_lines(&json, "H2", rel, &[4]);

    let (elsewhere, _) = lint_fixture("h2_bad.rs", "crates/x/src/lib.rs");
    assert!(elsewhere.is_empty(), "H2 out of scope: {elsewhere:?}");
}

#[test]
fn h2_respects_allow() {
    let (findings, _) = lint_fixture("h2_allowed.rs", "crates/simcore/src/time.rs");
    assert!(findings.is_empty(), "allowlisted: {findings:?}");
}

#[test]
fn baseline_demotes_findings_without_hiding_them() {
    let cfg = Config::from_toml("[baseline]\nentries = [\"D3:crates/x/src/lib.rs\"]\n");
    let findings = lint_source("crates/x/src/lib.rs", &fixture("d3_bad.rs"), &cfg);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].baselined, "reported but tolerated");
    let report = Report {
        findings,
        files_scanned: 1,
        ..Report::default()
    };
    assert_eq!(report.gating_count(), 0);
    assert!(render_json(&report).contains("\"baselined\": true"));
}

// ================================================ interprocedural (pass 2)

#[test]
fn h3_fires_on_transitive_alloc_with_chain_named() {
    let rel = "crates/x/src/lib.rs";
    let (report, json) = lint_fixture_tree(&[("h3_bad.rs", rel)]);
    assert!(report.findings.iter().all(|f| f.rule == "H3"));
    // The fenced call `route(n)` sits on line 7; `shape` allocates two
    // hops down on line 16.
    assert_json_lines(&json, "H3", rel, &[7]);
    let f = &report.findings[0];
    assert!(
        f.message.contains("chain: route → shape"),
        "chain named in the diagnostic: {}",
        f.message
    );
    assert!(
        f.message.contains("Vec::new") && f.message.contains("crates/x/src/lib.rs:16"),
        "offending needle and line named: {}",
        f.message
    );
}

#[test]
fn h3_respects_allow_at_call_site() {
    let (report, _) = lint_fixture_tree(&[("h3_allowed.rs", "crates/x/src/lib.rs")]);
    assert!(
        report.findings.is_empty(),
        "allowlisted: {:?}",
        report.findings
    );
}

#[test]
fn d7_fires_on_cross_module_label_collision() {
    let rel_a = "crates/x/src/a.rs";
    let rel_b = "crates/x/src/b.rs";
    let (report, json) = lint_fixture_tree(&[("d7_dup_a.rs", rel_a), ("d7_dup_b.rs", rel_b)]);
    assert!(report.findings.iter().all(|f| f.rule == "D7"));
    // The collision is reported at the *second* site (module B, line 5),
    // referencing the canonical first derivation (module A, line 5).
    assert_json_lines(&json, "D7", rel_b, &[5]);
    let f = &report.findings[0];
    assert!(
        f.message.contains("\"arrivals\"") && f.message.contains("crates/x/src/a.rs:5"),
        "collision references the canonical site: {}",
        f.message
    );
    // The registry carries both sites under one label.
    let entry = report
        .rng_streams
        .iter()
        .find(|e| e.label == "arrivals")
        .expect("registry entry");
    assert_eq!(
        entry.sites,
        vec![(rel_a.to_owned(), 5), (rel_b.to_owned(), 5)]
    );
    assert!(
        json.contains("\"label\": \"arrivals\""),
        "registry rendered under --format json:\n{json}"
    );
}

#[test]
fn d7_fires_on_non_literal_label() {
    let rel = "crates/x/src/lib.rs";
    let (report, json) = lint_fixture_tree(&[("d7_bad.rs", rel)]);
    assert!(report.findings.iter().all(|f| f.rule == "D7"));
    assert_json_lines(&json, "D7", rel, &[5]);
    assert!(report.findings[0].message.contains("not a string literal"));
}

#[test]
fn d7_respects_allow_and_registers_literals() {
    let (report, _) = lint_fixture_tree(&[("d7_allowed.rs", "crates/x/src/lib.rs")]);
    assert!(
        report.findings.is_empty(),
        "allowlisted: {:?}",
        report.findings
    );
    assert_eq!(report.rng_streams.len(), 1);
    assert_eq!(report.rng_streams[0].label, "arrivals");
}

#[test]
fn same_module_relabeling_is_not_a_collision() {
    // One module deriving its own label twice reproduces the same stream
    // by design; only a *different* module colliding is a hazard.
    let rel = "crates/x/src/a.rs";
    let (report, _) = lint_fixture_tree(&[("d7_dup_a.rs", rel), ("d7_dup_a.rs", rel)]);
    // (Same file listed twice: both sites carry the same rel path.)
    assert!(
        report.findings.is_empty(),
        "same-module re-derivation: {:?}",
        report.findings
    );
}
