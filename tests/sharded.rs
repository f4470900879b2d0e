//! Battery for the sharded parallel-in-run engine (`microsvc::shard`).
//!
//! The determinism contract (see DESIGN.md "Sharded execution"):
//!
//! 1. `--shards 1` routes through the untouched serial engine — byte-identical
//!    to every recorded golden, trivially.
//! 2. For `N > 1` the results are a deterministic function of the *shard
//!    count* (cells partition users and carry per-cell RNG streams), but are
//!    invariant across worker-thread counts, reruns, and snapshot
//!    round-trips. Per-shard-count golden hashes pin E3/E8/E18/E22 below.
//! 3. A mid-run snapshot taken at a window barrier resumes into the same
//!    trajectory bit-for-bit.

use microsvc::WindowPolicy;
use scaleup_bench::{experiments as exp, Config};
use simcore::SimDuration;
use std::sync::Mutex;

/// Serializes tests that touch the global `scaleup::par` worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The quick config with the lab sharded `shards` ways (0 workers = one per
/// host core; the results must not depend on it).
fn sharded_config(shards: u32, workers: usize) -> Config {
    let mut config = Config::quick(42);
    config.lab.shards = shards;
    config.lab.shard_workers = workers;
    config
}

fn assert_golden(name: &str, shards: u32, table: &str, want: u64) {
    assert_eq!(
        fnv1a(table),
        want,
        "{name} at {shards} shards drifted; new hash {:#018x}, table:\n{table}",
        fnv1a(table)
    );
}

#[test]
fn shards_1_is_the_legacy_engine_byte_for_byte() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `--shards 1` must not merely hash the same — it must be the very same
    // code path, so the tables match the untouched config byte for byte
    // (the recorded serial goldens in tests/golden.rs then pin both).
    let legacy = Config::quick(42);
    let one = sharded_config(1, 1);
    assert_eq!(exp::e3(&legacy).table, exp::e3(&one).table);
    assert_eq!(exp::e22(&legacy).table, exp::e22(&one).table);
}

/// Recorded per-shard-count golden hashes for the E3/E8/E18/E19/E22
/// battery, quick config, seed 42: `(shards, e3, e8, e18, e19, e22)`. Each
/// row was verified stable across reruns and worker counts before
/// recording. E19 (crash & recovery) completes the resilience pair: its
/// runs route through the same sharded cells, so the crash/restart events
/// must land identically at every shard count.
const SHARDED_GOLDENS: &[(u32, u64, u64, u64, u64, u64)] = &[
    (
        2,
        0xc8bc_4dc2_44ab_c544,
        0xfe6a_cb2e_8c29_1809,
        0x4c65_0bd7_8e92_0c2c,
        0xde07_0902_30d6_7508,
        0x8aa8_f4bf_1580_ca88,
    ),
    (
        4,
        0x4d32_7a4f_873c_486a,
        0x465c_1968_a117_89e8,
        0x7280_de87_3bf0_84c1,
        0x82cb_bf32_193d_703d,
        0x5e5f_a7aa_8e28_9d82,
    ),
    (
        8,
        0xd077_51e7_b919_ee0d,
        0x49b8_3055_293c_4425,
        0xae74_cadf_7bce_e756,
        0xe673_5a30_996a_b3aa,
        0x6a3d_9a32_5f1b_62ff,
    ),
];

fn battery(shards: u32, e3: u64, e8: u64, e18: u64, e19: u64, e22: u64) {
    let config = sharded_config(shards, 0);
    assert_golden("E3", shards, &exp::e3(&config).table, e3);
    assert_golden("E8", shards, &exp::e8(&config).table, e8);
    assert_golden("E18", shards, &exp::e18(&config).table, e18);
    assert_golden("E19", shards, &exp::e19(&config).table, e19);
    assert_golden("E22", shards, &exp::e22(&config).table, e22);
}

#[test]
fn sharded_battery_matches_goldens_at_2_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[0];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_battery_matches_goldens_at_4_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[1];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_battery_matches_goldens_at_8_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[2];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_tables_are_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The worker count only changes *which thread* advances a cell, never
    // the merge order (messages sort by (arrival, src, seq) at the
    // barrier). Three cells also exercise the user-remainder split.
    for shards in [2u32, 3] {
        let serial = sharded_config(shards, 1);
        let wide = sharded_config(shards, 4);
        assert_eq!(
            exp::e3(&serial).table,
            exp::e3(&wide).table,
            "E3 at {shards} shards differs between 1 and 4 workers"
        );
        assert_eq!(
            exp::e22(&serial).table,
            exp::e22(&wide).table,
            "E22 at {shards} shards differs between 1 and 4 workers"
        );
    }
}

/// Two reports agree bit for bit.
fn assert_identical(what: &str, straight: &microsvc::RunReport, resumed: &microsvc::RunReport) {
    assert_eq!(straight.completed, resumed.completed);
    assert_eq!(straight.events_processed, resumed.events_processed);
    assert_eq!(straight.mean_latency, resumed.mean_latency);
    assert_eq!(straight.latency_p99, resumed.latency_p99);
    assert_eq!(
        straight.throughput_rps.to_bits(),
        resumed.throughput_rps.to_bits(),
        "{what} checkpoint round-trip diverged: {} vs {}",
        straight.throughput_rps,
        resumed.throughput_rps
    );
    assert_eq!(straight.summary(), resumed.summary());
}

#[test]
fn sharded_checkpoint_roundtrip_is_invisible() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The checkpoint detour saves the whole sharded run at the end-of-warmup
    // barrier, rebuilds every cell from scratch, restores, and resumes. The
    // report must match the straight run bit for bit, closed and open loop.
    let config = sharded_config(2, 0);
    let app = config.store.app();
    let replicas = config.baseline_replicas();
    let placed = || scaleup::placement::Policy::Unpinned.deploy(app, &config.lab.topo, &replicas);
    let lab = |checkpoint| {
        let mut lab = config.lab.clone();
        lab.checkpoint = checkpoint;
        lab
    };
    let closed = |checkpoint| {
        let placed = placed();
        lab(checkpoint).run_app(app, placed.deployment, placed.lb)
    };
    let straight = closed(false);
    assert_identical("sharded closed-loop", &straight, &closed(true));
    // The open loop runs at 70% of the closed loop's throughput.
    let rate = 0.7 * straight.throughput_rps;
    let open = |checkpoint| {
        let placed = placed();
        lab(checkpoint).run_app_open(app, placed.deployment, placed.lb, rate)
    };
    let straight = open(false);
    assert!(straight.completed > 0, "the open-loop run did real work");
    assert_identical("sharded open-loop", &straight, &open(true));
}

#[test]
fn adaptive_battery_matches_conservative_goldens() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Adaptive widening (geometric growth, snap-back on traffic) must be
    // equally invisible; one shard count keeps the suite's runtime sane —
    // the policy proptests below cover the rest of the space.
    let (shards, e3, _, _, _, e22) = SHARDED_GOLDENS[1];
    let mut config = sharded_config(shards, 0);
    config.lab.shard_policy = WindowPolicy::Adaptive { cap: 32 };
    assert_golden("E3 adaptive", shards, &exp::e3(&config).table, e3);
    assert_golden("E22 adaptive", shards, &exp::e22(&config).table, e22);
}

mod lookahead_props {
    use super::*;
    use microsvc::Deployment;
    use proptest::prelude::*;
    use scaleup::Lab;

    /// One tiny sharded run with arbitrary lookahead/cross-traffic knobs.
    /// The returned footprint includes the float *bits* of every headline
    /// metric, so "equal" means byte-identical, not approximately equal.
    fn run(
        latency_us: u64,
        cross: u32,
        shards: u32,
        users: u64,
        workers: usize,
        seed: u64,
        policy: WindowPolicy,
    ) -> String {
        let store = teastore::TeaStore::with_demand_scale(0.25);
        let mut lab = Lab::small(seed).with_users(users).with_shards(shards);
        lab.shard_cross_permille = cross;
        lab.shard_latency = SimDuration::from_micros(latency_us);
        lab.shard_workers = workers;
        lab.shard_policy = policy;
        lab.warmup = SimDuration::from_millis(100);
        lab.measure = SimDuration::from_millis(300);
        let app = store.app();
        let deployment = Deployment::uniform(app, &lab.topo, 2, 4);
        let report = lab.run_app(app, deployment, microsvc::LbPolicy::RoundRobin);
        format!(
            "{} completed={} ev={} mean={} p99={} thr={:016x}",
            report.summary(),
            report.completed,
            report.events_processed,
            report.mean_latency,
            report.latency_p99,
            report.throughput_rps.to_bits()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any lookahead grain (window = cross-cell latency), any cross-cell
        /// intensity, any cell count: the run must complete without tripping
        /// the engine's causality assertion (`inject_timer_at` panics on an
        /// arrival before the cell's clock — per-shard time-ordering), and
        /// the result must be a pure function of the knobs, not the worker
        /// interleaving.
        #[test]
        fn random_lookahead_grains_preserve_causality_and_determinism(
            latency_us in 100u64..5_000,
            cross in 0u32..300,
            shards in 1u32..5,
            users in 8u64..40,
            seed in 0u64..1_000,
        ) {
            let a = run(latency_us, cross, shards, users, 1, seed, WindowPolicy::Conservative);
            let b = run(latency_us, cross, shards, users, 4, seed, WindowPolicy::Conservative);
            prop_assert_eq!(a, b);
        }

        /// Window policy is pure overhead accounting: for any cross-traffic
        /// rate and round-width cap, the adaptive run matches the
        /// conservative run byte for byte — float bits included — and stays
        /// invariant between 1 and 8 workers.
        #[test]
        fn window_policies_are_byte_identical(
            latency_us in 100u64..5_000,
            cross in 0u32..300,
            shards in 2u32..5,
            users in 8u64..40,
            seed in 0u64..1_000,
            cap in 2u32..48,
        ) {
            let conservative =
                run(latency_us, cross, shards, users, 1, seed, WindowPolicy::Conservative);
            let adaptive =
                run(latency_us, cross, shards, users, 8, seed, WindowPolicy::Adaptive { cap });
            prop_assert_eq!(&conservative, &adaptive);
        }
    }
}

mod rollback {
    use super::*;
    use loadgen::ClosedLoop;
    use microsvc::{mix_seed, Deployment, Engine, EngineParams, ShardSpec, ShardedRun, SyncStats};
    use simcore::snap::fnv64;
    use simcore::{SimTime, SnapError, SnapReader, SnapWriter};
    use std::sync::Arc;

    /// The end of every run below; the closed loops stop at 200 ms.
    const UNTIL: SimDuration = SimDuration::from_millis(800);

    /// A dense little sharded run built directly (the `Lab` wrapper hides
    /// [`ShardedRun::sync_stats`]): 4 cells, heavy cross-traffic, fine
    /// window — a rollback pressure-cooker.
    fn build(policy: WindowPolicy) -> ShardedRun<ClosedLoop> {
        build_with(policy, 300)
    }

    /// [`build`] at another cross-traffic rate.
    fn build_with(policy: WindowPolicy, cross_permille: u32) -> ShardedRun<ClosedLoop> {
        let store = teastore::TeaStore::with_demand_scale(0.25);
        let app = store.app();
        let topo = Arc::new(cputopo::Topology::desktop_8c());
        let spec = ShardSpec {
            cells: 4,
            cross_permille,
            latency: SimDuration::from_micros(250),
        };
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let cells = (0..spec.cells)
            .map(|c| {
                let engine = Engine::new(
                    topo.clone(),
                    EngineParams::default(),
                    app.clone(),
                    Deployment::uniform(app, &topo, 2, 4),
                    mix_seed(42, c),
                );
                let load = ClosedLoop::new(6)
                    .think_time(SimDuration::from_millis(2))
                    .mix(&mix)
                    .warmup(SimDuration::from_millis(50))
                    .measure(SimDuration::from_millis(150));
                (engine, load)
            })
            .collect();
        ShardedRun::new(cells, spec).with_policy(policy)
    }

    /// The run's merged report, float bits included.
    fn footprint(run: &ShardedRun<ClosedLoop>) -> String {
        let report = run.report();
        format!(
            "{} completed={} ev={} mean={} p99={} thr={:016x}",
            report.summary(),
            report.completed,
            report.events_processed,
            report.mean_latency,
            report.latency_p99,
            report.throughput_rps.to_bits()
        )
    }

    fn direct(policy: WindowPolicy, workers: usize) -> (String, SyncStats) {
        let mut run = build(policy);
        run.run(SimTime::ZERO + UNTIL, workers);
        (footprint(&run), run.sync_stats())
    }

    #[test]
    fn speculation_actually_rolls_back_and_still_matches() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Guard against a vacuous differential: under 300‰ cross-traffic
        // adaptive rounds of up to 16 windows *must* take rollbacks — if
        // they don't, the policy tests above silently test the
        // no-speculation path.
        let (base, base_stats) = direct(WindowPolicy::Conservative, 2);
        let (spec, spec_stats) = direct(WindowPolicy::Adaptive { cap: 16 }, 2);
        assert_eq!(base, spec, "adaptive run diverged from conservative");
        assert!(
            spec_stats.rollbacks > 0,
            "no rollbacks under heavy cross-traffic — speculation never engaged: {spec_stats:?}"
        );
        assert!(
            spec_stats.replayed_events > 0,
            "rollbacks discarded no events"
        );
        assert_eq!(
            base_stats.rollbacks, 0,
            "conservative path must never roll back"
        );
        assert!(
            spec_stats.barriers < base_stats.barriers,
            "speculation must elide barriers even while rolling back: {} vs {}",
            spec_stats.barriers,
            base_stats.barriers
        );
        // The stats themselves are deterministic: same run, same counters.
        let (_, again) = direct(WindowPolicy::Adaptive { cap: 16 }, 8);
        assert_eq!(spec_stats, again, "sync stats depend on the worker count");
    }

    #[test]
    fn speculative_checkpoint_roundtrip_is_invisible() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Snapshot at a barrier mid-run under adaptive rounds, restore into
        // fresh cells, resume: same bytes as the straight run. The resumed
        // half must itself roll back, or the restore never fed a replay.
        let policy = WindowPolicy::Adaptive { cap: 8 };
        let (straight, straight_stats) = direct(policy, 2);
        assert!(straight_stats.rollbacks > 0, "{straight_stats:?}");
        let mut first = build(policy);
        first.run(SimTime::ZERO + SimDuration::from_millis(100), 2);
        let mut w = SnapWriter::new();
        first.snap_save(&mut w);
        let bytes = w.finish();
        let mut resumed = build(policy);
        resumed
            .snap_restore(&mut SnapReader::new(&bytes).expect("valid envelope"))
            .expect("restores into identically built cells");
        resumed.run(SimTime::ZERO + UNTIL, 2);
        assert_eq!(
            straight,
            footprint(&resumed),
            "checkpoint round-trip diverged"
        );
        let stats = resumed.sync_stats();
        assert!(
            stats.rollbacks > 0,
            "the resumed half never rolled back: {stats:?}"
        );
        assert!(stats.replayed_events > 0, "{stats:?}");
    }

    #[test]
    fn adaptive_runs_cut_mid_round_resume_on_the_window_grid() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // `run(until)` may stop inside a wide round. The next call must
        // resume at the barrier closing the window that holds `until`, not
        // at the round's end: skipping the round's remaining barriers would
        // inject later messages past their conservative instants. Sparse
        // traffic keeps the rounds wide; the cuts fall off the round grid.
        for cross in [5, 30] {
            let mut straight = build_with(WindowPolicy::Conservative, cross);
            straight.run(SimTime::ZERO + UNTIL, 2);
            let want = footprint(&straight);
            for k in 0..8 {
                let cut = SimTime::ZERO + SimDuration::from_micros(20_000 + k * 3_917);
                let mut run = build_with(WindowPolicy::Adaptive { cap: 32 }, cross);
                run.run(cut, 2);
                run.run(SimTime::ZERO + UNTIL, 2);
                assert_eq!(want, footprint(&run), "cross {cross}‰, cut at {cut}");
            }
        }
    }

    /// Byte offset and source cell of the first pending message of the
    /// first `shard-state` section whose first pending message is a call.
    fn first_pending_call(bytes: &[u8]) -> Option<(usize, u32)> {
        let tag = b"shard-state";
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut from = 0;
        loop {
            let at = from + bytes[from..].windows(tag.len()).position(|w| w == tag)?;
            // Three sequence counters, then the pending count.
            let count_at = at + tag.len() + 24;
            let msg_at = count_at + 8;
            // arrival (8), src (4), dst (4), seq (8), then the kind byte.
            if u64_at(count_at) > 0 && bytes[msg_at + 24] == 0 {
                let src = u32::from_le_bytes(bytes[msg_at + 8..msg_at + 12].try_into().unwrap());
                return Some((msg_at, src));
            }
            from = at + tag.len();
        }
    }

    #[test]
    fn restore_rejects_impossible_pending_messages() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Patch a real barrier snapshot, reseal its checksum, and restore:
        // a pending message that no cell could have merged into this one
        // must be `Corrupt`, not a panic at a later barrier (or a reply
        // that goes nowhere and parks a request forever).
        let mut run = build(WindowPolicy::Conservative);
        let mut now = SimTime::ZERO + SimDuration::from_millis(60);
        let (bytes, msg_at, src) = loop {
            run.run(now, 2);
            let mut w = SnapWriter::new();
            run.snap_save(&mut w);
            let bytes = w.finish();
            if let Some((msg_at, src)) = first_pending_call(&bytes) {
                break (bytes, msg_at, src);
            }
            assert!(
                now < SimTime::ZERO + UNTIL,
                "no barrier held a pending call"
            );
            now += run.spec().latency;
        };
        let restore = |at: usize, patch: &[u8]| {
            let mut patched = bytes.clone();
            patched[at..at + patch.len()].copy_from_slice(patch);
            let trailer_at = patched.len() - 8;
            let checksum = fnv64(&patched[..trailer_at]);
            patched[trailer_at..].copy_from_slice(&checksum.to_le_bytes());
            let mut fresh = build(WindowPolicy::Conservative);
            fresh.snap_restore(&mut SnapReader::new(&patched).expect("resealed"))
        };
        assert_eq!(
            restore(0, &[]),
            Ok(()),
            "the unpatched snapshot must restore"
        );
        // Message layout: arrival (8), src (4), dst (4), seq (8), kind (1),
        // then a call's client (8).
        let dst = bytes[msg_at + 12..msg_at + 16].to_vec();
        let cases: [(&str, usize, Vec<u8>); 4] = [
            (
                "source cell out of range",
                msg_at + 8,
                4u32.to_le_bytes().to_vec(),
            ),
            (
                "addressed to another cell",
                msg_at + 12,
                src.to_le_bytes().to_vec(),
            ),
            ("sent by the restoring cell", msg_at + 8, dst),
            (
                "client id wider than 32 bits",
                msg_at + 25,
                (1u64 << 32).to_le_bytes().to_vec(),
            ),
        ];
        for (what, at, patch) in &cases {
            let got = restore(*at, patch);
            assert!(
                matches!(&got, Err(SnapError::Corrupt(msg)) if msg.contains("impossible pending")),
                "{what}: {got:?}"
            );
        }
    }
}
