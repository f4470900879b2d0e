//! Golden-output battery over the experiment registry.
//!
//! Every entry of `scaleup_bench::experiments::EXPERIMENTS` runs on the
//! quick configuration (seed 42) at `--jobs 1` and at `--jobs 8`. The two
//! runs must produce the same fingerprint, and it must hash to the value
//! recorded in [`GOLDEN`]. A hash catches any change to the simulation's
//! arithmetic or event ordering; the jobs check catches nondeterminism in
//! the work-stealing sweep pool, which may only change *when* a point runs.
//!
//! A fingerprint is the experiment's text table, except where the table
//! embeds host measurements: E24, E27 and E28 pin their simulated columns
//! instead. `lint` is the one unpinned entry, since it reports on
//! the source tree rather than a simulation.
//!
//! Every (entry, leg) run is cached, so the per-family tests kept from
//! before the registry share runs with the full loop instead of repeating
//! them. Adding an experiment means one registry row plus one line here.
//! When a hash moves on purpose, the failure message prints the new value
//! and the fingerprint it came from; re-record it with the reason in the
//! commit.

use scaleup_bench::experiments::{find, EXPERIMENTS};
use scaleup_bench::Config;
use std::sync::OnceLock;

/// `(registry id, FNV-1a of its quick-config fingerprint)`, in registry
/// order. E3, E8, E18–E24, E27 and E29 keep the values recorded when their
/// layers landed; the rest were recorded when every entry got one.
const GOLDEN: &[(&str, u64)] = &[
    ("e1", 0x0ec9_7891_7bec_3986),
    ("e2", 0xdf83_5379_b4a3_b02d),
    ("e3", 0xb1ff_8356_b91c_cc85),
    ("e4", 0xcd2c_0b0b_7cfd_ece1),
    ("e5", 0x4790_1c2a_8551_926a),
    ("e6", 0xf5c7_e77a_c830_b2e6),
    ("e7", 0xbee1_2887_80de_623c),
    ("e8", 0x623d_25c1_8fc8_4803),
    ("e9", 0xcc90_7421_173c_7f15),
    ("e10", 0x4374_a4bb_3667_1ade),
    ("e11", 0x1501_9b05_73aa_54dd),
    ("e12", 0x59ba_b5bc_f306_6d15),
    ("e13", 0xa951_49d7_c587_679b),
    ("e14", 0x4bb9_eb03_5a24_5fdf),
    ("e15", 0xca3a_b7bc_8eb6_9388),
    ("e16", 0x2451_7cae_4a12_898e),
    ("e17", 0x0fce_669c_0ed4_fe31),
    ("e18", 0x6abd_466c_8432_14c5),
    ("e19", 0x6dfe_8d00_0099_bf2a),
    ("e20", 0x1c11_6acc_3d76_c5a7),
    ("e21", 0x21a6_7f22_ffd7_14b2),
    ("e22", 0xe9d7_52fe_b2b9_97d3),
    ("e23", 0x20c7_735a_8ca3_4ed1),
    ("e24", 0xb765_efe9_12ad_6e63),
    ("e25", 0x1e0a_24fa_5a80_e943),
    ("e26", 0x7f3e_9f38_8cf8_0945),
    ("e27", 0x6d4b_c8f4_dd5d_30a9),
    ("e28", 0x2541_f7c8_add9_b88d),
    ("e29", 0x674d_2227_498a_d819),
    ("snap", 0x8d0b_2a1a_4a90_05e3),
    ("chaos", 0xb78d_ea27_7ad2_39e7),
    ("a1", 0x9959_43d2_c0ed_d43b),
    ("a2", 0xfe71_b08c_eee7_0907),
    ("a3", 0x727a_eb13_d04c_907e),
    ("a4", 0xdba5_5da7_5fa7_238b),
];

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of `id` on the quick config with the sweep pool pinned
/// to `jobs` (1 or 8) workers. Each (entry, leg) runs once per process and
/// is shared by every test that checks it.
fn fingerprint(id: &str, jobs: usize) -> &'static str {
    static CACHE: OnceLock<Vec<[OnceLock<String>; 2]>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| GOLDEN.iter().map(|_| Default::default()).collect());
    let row = GOLDEN
        .iter()
        .position(|(g, _)| *g == id)
        .unwrap_or_else(|| panic!("{id} has no golden hash"));
    let leg = match jobs {
        1 => 0,
        8 => 1,
        _ => panic!("only the --jobs 1 and --jobs 8 legs are cached"),
    };
    cache[row][leg].get_or_init(|| {
        scaleup::par::with_jobs(jobs, || {
            let e = find(id).unwrap_or_else(|| panic!("{id} is not in the registry"));
            (e.run)(&Config::quick(42))
                .fingerprint
                .unwrap_or_else(|| panic!("{id} has no fingerprint"))
        })
    })
}

/// Runs `ids` at `--jobs 1` and `--jobs 8`, asserts the legs agree and
/// that each fingerprint hashes to its [`GOLDEN`] value.
fn check(ids: &[&str]) {
    // The legs run side by side; each pins its own worker count.
    let (seq, par) = std::thread::scope(|s| {
        let seq = s.spawn(|| ids.iter().map(|id| fingerprint(id, 1)).collect::<Vec<_>>());
        let par: Vec<_> = ids.iter().map(|id| fingerprint(id, 8)).collect();
        (seq.join().expect("the --jobs 1 leg panicked"), par)
    });
    let mut drifted = Vec::new();
    for ((id, seq), par) in ids.iter().zip(&seq).zip(&par) {
        assert_eq!(seq, par, "{id} differs between --jobs 1 and --jobs 8");
        let golden = GOLDEN.iter().find(|(g, _)| g == id).map(|(_, h)| *h);
        let hash = fnv1a(seq);
        if Some(hash) != golden {
            drifted.push(format!(
                "(\"{id}\", {hash:#018x}), was {golden:#018x?}:\n{seq}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "fingerprints drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn every_experiment_matches_its_golden_hash_at_jobs_1_and_8() {
    let ids: Vec<&str> = GOLDEN.iter().map(|(id, _)| *id).collect();
    check(&ids);
}

// The families below had tests of their own before the registry existed;
// they keep their names and check the same entries through the cache.

#[test]
fn e3_e8_quick_tables_match_golden_hashes() {
    check(&["e3", "e8"]);
}

#[test]
fn sweeps_are_byte_identical_at_any_worker_count() {
    check(&["e3", "e8"]);
}

#[test]
fn enumeration_orders_are_byte_identical_at_any_worker_count() {
    check(&["e17"]);
}

#[test]
fn e18_e19_quick_tables_match_golden_hashes() {
    check(&["e18", "e19"]);
}

#[test]
fn e20_e21_quick_tables_match_golden_hashes() {
    check(&["e20", "e21"]);
}

#[test]
fn overload_experiments_are_byte_identical_at_any_worker_count() {
    check(&["e20", "e21"]);
}

#[test]
fn e22_e23_quick_tables_match_golden_hashes() {
    check(&["e22", "e23"]);
}

#[test]
fn e24_quick_rows_match_golden_hash() {
    check(&["e24"]);
}

#[test]
fn mega_experiments_are_deterministic_at_any_worker_count() {
    check(&["e24", "e25", "e26"]);
}

#[test]
fn e27_e29_quick_outputs_match_golden_hashes() {
    check(&["e27", "e29"]);
}

#[test]
fn warm_start_and_chaos_are_deterministic_at_any_worker_count() {
    check(&["e27", "e29"]);
}

#[test]
fn goldens_cover_the_registry_and_only_lint_is_unpinned() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|(id, _)| *id).collect();
    let registry: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.id)
        .filter(|&id| id != "lint")
        .collect();
    assert_eq!(
        pinned, registry,
        "every registry entry but lint needs a golden hash"
    );
    let lint = find("lint").expect("lint is registered");
    assert!(
        (lint.run)(&Config::quick(42)).fingerprint.is_none(),
        "lint output depends on the source tree and must stay unpinned"
    );
}
