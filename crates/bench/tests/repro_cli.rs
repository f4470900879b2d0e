//! The `repro` command line: exit codes, error paths and the generated
//! catalog and usage text.

use scaleup_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run the repro binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    let out = repro(&["--quick", "e999"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("usage: repro"), "{}", stderr(&out));
}

#[test]
fn gate_without_perf_exits_2() {
    let out = repro(&["--quick", "--gate", "baseline.json", "e1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--gate only applies to the `perf` experiment"));
}

/// A path below a regular file: it can never be created.
fn unwritable(name: &str) -> String {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&file, "not a directory").expect("write the blocker file");
    file.join("out").to_str().expect("utf-8 path").to_owned()
}

fn assert_one_line_failure(out: &Output) {
    assert_eq!(out.status.code(), Some(1), "{}", stderr(out));
    assert!(!stderr(out).contains("panicked"), "{}", stderr(out));
    assert_eq!(stderr(out).lines().count(), 1, "{}", stderr(out));
}

#[test]
fn unwritable_csv_dir_exits_1_without_a_panic() {
    assert_one_line_failure(&repro(&[
        "--quick",
        "--csv",
        &unwritable("csv_blocker"),
        "e1",
    ]));
}

#[test]
fn unwritable_html_file_exits_1_without_a_panic() {
    assert_one_line_failure(&repro(&[
        "--quick",
        "--html",
        &unwritable("html_blocker"),
        "e1",
    ]));
}

#[test]
fn list_json_ids_are_the_registry_in_order() {
    let out = repro(&["list", "--json"]);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf-8 catalog");
    let ids: Vec<&str> = json
        .split("\"id\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, registry);
}

#[test]
fn usage_names_every_experiment() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr(&out);
    for e in EXPERIMENTS {
        assert!(
            usage
                .lines()
                .any(|l| l.split_whitespace().next() == Some(e.id)),
            "usage text does not list {}:\n{usage}",
            e.id
        );
    }
    assert!(usage.lines().any(|l| l.starts_with("perf ")), "{usage}");
}
