//! The `labctl` command line: input the engine would panic on, or silently
//! clamp, is rejected up front with one line and exit code 2.

use std::process::Command;

fn assert_rejected(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_labctl"))
        .args(args)
        .output()
        .expect("run the labctl binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(message), "want {message:?} in {stderr}");
}

#[test]
fn zero_users_exits_2_without_a_panic() {
    assert_rejected(&["--users", "0"], "--users must be at least 1");
}

#[test]
fn cpus_beyond_the_machine_exit_2_without_a_panic() {
    assert_rejected(&["--cpus", "999"], "--cpus 999 exceeds the machine's CPUs");
}

#[test]
fn zero_shards_exits_2_instead_of_running_one_shard() {
    assert_rejected(&["--shards", "0"], "--shards must be at least 1");
}

#[test]
fn empty_cpu_list_exits_2_without_a_panic() {
    assert_rejected(&["--cpus", ""], "--cpus selects no CPU");
}
