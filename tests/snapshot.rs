//! Differential battery for the checkpoint/branch layer (`simcore::snap` +
//! engine wiring): a resumed simulation must be indistinguishable from one
//! that never stopped, forks must be deterministic, and damaged snapshots
//! must be rejected — never silently mis-resumed.
//!
//! Three layers of proof:
//! 1. Golden-hash identity — the quick-config experiment tables, re-run
//!    with `Lab::checkpoint` (snapshot at warm-up end + resume into a fresh
//!    engine), hash to the *same* recorded values as the straight runs in
//!    tests/golden.rs. Any serialization gap in any subsystem trips these.
//! 2. Branch determinism — the same fork salt replays the same trajectory;
//!    different salts diverge; the jobs-1-vs-8 sweep invariant survives the
//!    checkpoint dance.
//! 3. Envelope robustness — proptest round-trips (save → load → save is
//!    byte-stable at arbitrary checkpoint instants) and rejection of
//!    truncated, corrupted, and version-bumped files with a diagnostic.

use loadgen::ClosedLoop;
use microsvc::{
    Deployment, Engine, EngineParams, FaultPlan, InstanceId, LimiterPolicy, OverloadParams,
    ResilienceParams, RetryBudgetPolicy, RunReport,
};
use proptest::prelude::*;
use scaleup::{placement::Policy, tuner, BranchOverrides, Lab};
use scaleup_bench::{experiments as exp, Config};
use simcore::snap::{fnv64, SNAP_VERSION};
use simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use std::sync::{Arc, Mutex};
use teastore::TeaStore;

/// Serializes tests that touch the global `scaleup::par` worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a over a rendered table (same constants as tests/golden.rs).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------ 1. golden-hash identity

#[test]
fn checkpointed_e3_e8_match_the_straight_run_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = Config::quick(42);
    config.lab.checkpoint = true;
    let e3 = exp::e3(&config).table;
    let e8 = exp::e8(&config).table;
    // The straight-run values recorded in tests/golden.rs: a checkpointed
    // run that differs in any byte has lost state across the snapshot.
    assert_eq!(
        fnv1a(&e3),
        0xb1ff_8356_b91c_cc85,
        "checkpointed E3 diverged from the straight run; hash {:#018x}, table:\n{e3}",
        fnv1a(&e3)
    );
    assert_eq!(
        fnv1a(&e8),
        0x623d_25c1_8fc8_4803,
        "checkpointed E8 diverged from the straight run; hash {:#018x}, table:\n{e8}",
        fnv1a(&e8)
    );
}

#[test]
fn checkpointed_fault_experiments_match_the_straight_run_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = Config::quick(42);
    config.lab.checkpoint = true;
    // E18/E19 carry fault plans (crashes, slowdowns, reply drops) and the
    // resilience layer — the snapshot must capture breaker state, fault
    // RNG streams, and in-flight timeout timers to replay them.
    let e18 = exp::e18(&config).table;
    let e19 = exp::e19(&config).table;
    assert_eq!(
        fnv1a(&e18),
        0x6abd_466c_8432_14c5,
        "checkpointed E18 diverged from the straight run; hash {:#018x}, table:\n{e18}",
        fnv1a(&e18)
    );
    assert_eq!(
        fnv1a(&e19),
        0x6dfe_8d00_0099_bf2a,
        "checkpointed E19 diverged from the straight run; hash {:#018x}, table:\n{e19}",
        fnv1a(&e19)
    );
}

#[test]
fn checkpointed_overload_experiments_match_the_straight_run_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = Config::quick(42);
    config.lab.checkpoint = true;
    // E22/E23 run open-loop under overload control: AIMD limiters, retry
    // budgets, priority shedding, and the arrival stream all cross the
    // snapshot here.
    let e22 = exp::e22(&config).table;
    let e23 = exp::e23(&config).table;
    assert_eq!(
        fnv1a(&e22),
        0xe9d7_52fe_b2b9_97d3,
        "checkpointed E22 diverged from the straight run; hash {:#018x}, table:\n{e22}",
        fnv1a(&e22)
    );
    assert_eq!(
        fnv1a(&e23),
        0x20c7_735a_8ca3_4ed1,
        "checkpointed E23 diverged from the straight run; hash {:#018x}, table:\n{e23}",
        fnv1a(&e23)
    );
}

// ------------------------------------------------- 2. branch determinism

/// The quick TeaStore cell every Lab-level test here shares.
fn cell() -> (Lab, TeaStore, Vec<usize>) {
    let lab = Lab::small(42).with_users(64);
    let store = TeaStore::with_demand_scale(0.25);
    let replicas = tuner::proportional_replicas(store.app(), 12);
    (lab, store, replicas)
}

fn report_key(r: &RunReport) -> (u64, u64, u64, u64, u64) {
    (
        r.completed,
        r.events_processed,
        r.mean_latency.as_nanos(),
        r.latency_p99.as_nanos(),
        r.throughput_rps.to_bits(),
    )
}

#[test]
fn same_branch_salt_forks_identically_different_salts_diverge() {
    let (lab, store, replicas) = cell();
    let placed = Policy::Unpinned.deploy(store.app(), &lab.topo, &replicas);
    let bytes = lab.snapshot_app(
        store.app(),
        placed.deployment.clone(),
        placed.lb,
        SimTime::ZERO + lab.warmup,
    );
    let fork = |salt: u64| {
        lab.branch_app(
            store.app(),
            placed.deployment.clone(),
            placed.lb,
            &bytes,
            &BranchOverrides {
                reseed: Some(salt),
                demand_scale: None,
                faults: None,
            },
        )
        .expect("fork from an in-process snapshot")
    };
    let a1 = fork(7);
    let a2 = fork(7);
    let b = fork(8);
    assert_eq!(
        report_key(&a1),
        report_key(&a2),
        "the same fork salt must replay the same trajectory"
    );
    assert_ne!(
        report_key(&a1),
        report_key(&b),
        "different fork salts must diverge"
    );
    assert!(a1.completed > 0 && b.completed > 0);
}

#[test]
fn checkpointed_sweep_is_byte_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = Config::quick(42);
    config.lab.checkpoint = true;
    // The jobs-1-vs-8 invariant of tests/golden.rs, with every run routed
    // through snapshot + resume: worker scheduling must not perturb the
    // checkpoint dance either.
    scaleup::par::set_jobs(1);
    let seq = exp::e3(&config).table;
    scaleup::par::set_jobs(8);
    let par = exp::e3(&config).table;
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(
        seq, par,
        "checkpointed E3 differs between --jobs 1 and --jobs 8"
    );
}

// --------------------------------------------- 3. envelope & round-trips

/// Tracing, resilience, overload control and faults all on, so a snapshot
/// carries spans, breakers, limiters and budgets.
fn full_feature_params() -> EngineParams {
    let ms = SimDuration::from_millis;
    EngineParams {
        trace_sample_every: Some(3),
        resilience: Some(ResilienceParams::default().with_timeout(ms(2))),
        faults: FaultPlan::none()
            .crash(InstanceId(3), SimTime::ZERO + ms(60), ms(80))
            .slowdown(InstanceId(0), SimTime::ZERO, SimTime::MAX, 6.0)
            .reply_fault(InstanceId(5), SimTime::ZERO, SimTime::MAX, 0.1, ms(1)),
        overload: Some(
            OverloadParams::default()
                .with_queue_deadline(ms(5))
                .with_retry_budget(RetryBudgetPolicy {
                    cap: 20.0,
                    initial: 5.0,
                    ..RetryBudgetPolicy::default()
                })
                .with_limiter(LimiterPolicy::default()),
        ),
        ..EngineParams::default()
    }
}

/// One desktop-scale engine + driver cell for direct snapshot plumbing;
/// `full` turns on every optional engine feature ([`full_feature_params`]).
fn build_cell(users: u64, coalesce_us: u64, full: bool) -> (Engine, ClosedLoop) {
    let topo = Arc::new(cputopo::Topology::desktop_8c());
    let store = TeaStore::with_demand_scale(0.25);
    let mix = store.mix();
    let app = store.into_app();
    let deployment = Deployment::uniform(&app, &topo, 2, 4);
    let params = if full {
        full_feature_params()
    } else {
        EngineParams::default()
    };
    let engine = Engine::new(topo, params, app, deployment, 11);
    let mut load = ClosedLoop::new(users)
        .think_time(SimDuration::from_millis(5))
        .mix(&mix)
        .warmup(SimDuration::from_millis(100));
    if coalesce_us > 0 {
        load = load.coalesce(SimDuration::from_micros(coalesce_us));
    }
    (engine, load)
}

/// Runs a fresh cell to `t_us` and serializes engine + driver.
fn snapshot_at(users: u64, coalesce_us: u64, t_us: u64, full: bool) -> Vec<u8> {
    let (mut engine, mut load) = build_cell(users, coalesce_us, full);
    engine.run(&mut load, SimTime::ZERO + SimDuration::from_micros(t_us));
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    load.snap_save(&mut w);
    w.finish()
}

/// Restores `bytes` into a fresh cell and serializes it again untouched.
fn resave(bytes: &[u8], users: u64, coalesce_us: u64, full: bool) -> Vec<u8> {
    let (mut engine, mut load) = build_cell(users, coalesce_us, full);
    let mut r = SnapReader::new(bytes).expect("well-formed snapshot");
    engine.snap_restore(&mut r).expect("same engine config");
    load.snap_restore(&mut r).expect("same driver config");
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    load.snap_save(&mut w);
    w.finish()
}

#[test]
fn coalesced_driver_snapshot_resumes_identically() {
    // The 1 ms wake-coalescing path batches users into shared timers; its
    // bucket state and pending wakeups must survive the checkpoint.
    let horizon = SimTime::ZERO + SimDuration::from_millis(600);
    let (mut straight_engine, mut straight_load) = build_cell(48, 1_000, false);
    straight_engine.run(&mut straight_load, horizon);
    let straight = straight_engine.report();

    let bytes = snapshot_at(48, 1_000, 250_000, false);
    let (mut engine, mut load) = build_cell(48, 1_000, false);
    let mut r = SnapReader::new(&bytes).expect("well-formed snapshot");
    engine.snap_restore(&mut r).expect("same engine config");
    load.snap_restore(&mut r).expect("same driver config");
    engine.run_resumed(&mut load, horizon);
    let resumed = engine.report();

    assert_eq!(report_key(&straight), report_key(&resumed));
    assert!(straight.completed > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_load_snapshot_is_byte_stable(
        users in 4u64..48,
        grain_ms in 0u64..2,
        t_us in 1_000u64..400_000,
        full in any::<bool>(),
    ) {
        // A snapshot restored and immediately re-saved must reproduce the
        // original file byte for byte — the load path may not normalize,
        // reorder, or lose anything at any checkpoint instant.
        let grain = grain_ms * 1_000;
        let bytes = snapshot_at(users, grain, t_us, full);
        let resaved = resave(&bytes, users, grain, full);
        prop_assert_eq!(bytes, resaved);
    }

    #[test]
    fn truncated_snapshots_are_rejected(
        t_us in 1_000u64..100_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = snapshot_at(8, 0, t_us, false);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        // Every proper prefix must fail the envelope check; none may
        // silently restore.
        prop_assert!(SnapReader::new(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_snapshots_are_rejected(
        t_us in 1_000u64..100_000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = snapshot_at(8, 0, t_us, false);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // A single flipped byte anywhere must be caught by the magic,
        // version, trailer, or checksum validation.
        prop_assert!(SnapReader::new(&bytes).is_err());
    }
}

/// A cell 300 ms into a run on the paper's 2-socket machine: every
/// instance pinned to its own 4-CPU window with 16 workers, so runqueues
/// hold waiting tasks, and a coalesced closed loop with users parked
/// across many wake buckets.
fn zen2_cell_mid_run() -> (Engine, ClosedLoop) {
    let topo = Arc::new(cputopo::Topology::zen2_2p_128c());
    let store = TeaStore::browse();
    let mix = store.mix();
    let app = store.into_app();
    let mut deployment = Deployment::empty(&app);
    let mut next_cpu = 0u32;
    for svc in 0..app.services().len() {
        for _ in 0..2 {
            let affinity = (next_cpu..next_cpu + 4).map(cputopo::CpuId).collect();
            next_cpu = (next_cpu + 4) % topo.num_cpus() as u32;
            deployment.add_instance(
                microsvc::ServiceId(svc as u32),
                microsvc::InstanceConfig {
                    affinity,
                    threads: 16,
                    mem_node: None,
                },
            );
        }
    }
    let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 5);
    let mut load = ClosedLoop::new(900)
        .think_time(SimDuration::from_millis(200))
        .mix(&mix)
        .warmup(SimDuration::from_millis(50))
        .coalesce(SimDuration::from_millis(1));
    engine.run(&mut load, SimTime::ZERO + SimDuration::from_millis(300));
    (engine, load)
}

#[test]
fn codec_bytes_match_the_pinned_layout() {
    // The snapshot layout is a contract: a codec may get faster, but it
    // must keep writing exactly these bytes. Pinned as the FNV-64 of each
    // full enveloped snapshot. The bare micro-snapshot the wide adaptive
    // rounds take must be exactly the enveloped body. Pins re-recorded for
    // a layout change come with a version bump, checked here with them.
    assert_eq!(SNAP_VERSION, 2, "a layout change bumps SNAP_VERSION");
    let (engine, load) = zen2_cell_mid_run();
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    let engine_bytes = w.finish();
    let mut w = SnapWriter::new();
    load.snap_save(&mut w);
    let load_bytes = w.finish();
    assert!(load.parked_users() > 450, "most users must be parked");
    let mut bare = SnapWriter::bare(Vec::new());
    engine.snap_save(&mut bare);
    assert_eq!(bare.into_bare(), engine_bytes[8..engine_bytes.len() - 12]);
    assert_eq!(
        (engine_bytes.len(), fnv64(&engine_bytes)),
        (91_060, 0x1f69_daa1_a6da_b205),
        "engine snapshot bytes moved"
    );
    assert_eq!(
        (load_bytes.len(), fnv64(&load_bytes)),
        (16_342, 0x7504_a042_d4da_6a70),
        "closed-loop snapshot bytes moved"
    );

    // The default engine writes no spans, breakers, limiters or budgets;
    // a desktop cell with every feature on pins those codecs too.
    let (mut engine, mut load) = build_cell(24, 0, true);
    engine.run(&mut load, SimTime::ZERO + SimDuration::from_millis(300));
    let report = engine.report();
    assert!(report.requests_timed_out > 0 && report.overload.any());
    assert!(!engine.traces().is_empty());
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    let full_bytes = w.finish();
    assert_eq!(
        (full_bytes.len(), fnv64(&full_bytes)),
        (62_174, 0xcdee_7cd1_8e79_7557),
        "full-feature engine snapshot bytes moved"
    );
}

#[test]
fn version_bumped_snapshots_are_rejected_with_a_diagnostic() {
    let mut bytes = snapshot_at(8, 0, 50_000, false);
    // Bump the format version and re-seal the checksum, simulating a file
    // written by a future incompatible build: the reader must refuse it
    // (bump-and-reject policy — no silent migration).
    let next = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) + 1;
    bytes[4..8].copy_from_slice(&next.to_le_bytes());
    let trailer_at = bytes.len() - 8;
    let reseal = fnv64(&bytes[..trailer_at]);
    bytes[trailer_at..].copy_from_slice(&reseal.to_le_bytes());
    match SnapReader::new(&bytes) {
        Err(SnapError::BadVersion { found, expected }) => {
            assert_eq!(found, next);
            assert_eq!(expected, next - 1);
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn resume_into_a_different_population_is_rejected_not_mis_resumed() {
    let (lab, store, replicas) = cell();
    let placed = Policy::Unpinned.deploy(store.app(), &lab.topo, &replicas);
    let bytes = lab.snapshot_app(
        store.app(),
        placed.deployment.clone(),
        placed.lb,
        SimTime::ZERO + lab.warmup,
    );
    // Same machine and app, different user population: the driver
    // fingerprint must catch it.
    let other = lab.clone().with_users(32);
    let err = other
        .resume_app(store.app(), placed.deployment, placed.lb, &bytes)
        .expect_err("a 64-user snapshot must not resume into a 32-user driver");
    assert!(
        matches!(err, SnapError::Corrupt(_)),
        "expected a config-mismatch diagnostic, got {err:?}"
    );
}

/// Re-seals the FNV-64 trailer of a tampered snapshot, so the envelope
/// validates and only the decoder's own checks stand in the way.
fn reseal(bytes: &mut [u8]) {
    let trailer_at = bytes.len() - 8;
    let checksum = fnv64(&bytes[..trailer_at]);
    bytes[trailer_at..].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn a_resealed_absurd_spare_count_is_rejected_not_allocated() {
    // The spare count sits 24 bytes before the trailer (then high water and
    // parked). Reserving 2^40 empty vectors would abort the process.
    let (_engine, load) = zen2_cell_mid_run();
    let mut w = SnapWriter::new();
    load.snap_save(&mut w);
    let mut bytes = w.finish();
    let spare_at = bytes.len() - 12 - 24;
    bytes[spare_at..spare_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    reseal(&mut bytes);
    let mut fresh = ClosedLoop::new(load.users()).coalesce(SimDuration::from_millis(1));
    let got = fresh.snap_restore(&mut SnapReader::new(&bytes).expect("resealed"));
    assert!(
        matches!(&got, Err(SnapError::Corrupt(msg)) if msg.contains("spare")),
        "{got:?}"
    );
}

#[test]
fn flipped_and_truncated_engine_snapshots_fail_cleanly() {
    // Past the checksum, the decoders stand alone: a resealed snapshot with
    // one flipped byte or a cut body must restore or be rejected, never
    // panic or abort on a corrupt length.
    let (mut engine, mut load) = build_cell(24, 0, true);
    engine.run(&mut load, SimTime::ZERO + SimDuration::from_millis(200));
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    let bytes = w.finish();
    let end = bytes.len() - 12;
    let restore = |what: &str, bytes: &[u8]| {
        let (mut fresh, _) = build_cell(24, 0, true);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fresh.snap_restore(&mut SnapReader::new(bytes).expect("resealed"))
        }));
        assert!(got.is_ok(), "{what} panicked");
    };
    // The engine's own tables come first and the metrics' histograms
    // follow: every fourth byte of the first 12 KiB, which reaches a high
    // byte of each length there, then a sparse sample.
    let dense = (8..12 * 1024).step_by(4).map(|at| (at, 0xff));
    let sparse = (12 * 1024..end)
        .step_by(997)
        .flat_map(|at| [0x01, 0x80, 0xff].map(|mask| (at, mask)));
    for (at, mask) in dense.chain(sparse) {
        let mut bad = bytes.clone();
        bad[at] ^= mask;
        reseal(&mut bad);
        restore(&format!("byte {at} ^ {mask:#04x}"), &bad);
    }
    for cut in (8..end).step_by(4_999) {
        let mut bad = bytes[..cut].to_vec();
        bad.extend_from_slice(&bytes[bytes.len() - 12..]);
        reseal(&mut bad);
        restore(&format!("body cut at {cut}"), &bad);
    }
}

/// A durable snapshot of a 4-user coalesced loop whose user table is
/// written field by field in the pinned layout.
fn closed_loop_with_table(
    deadlines: &[u64],
    buckets: &[(u64, &[u32])],
    [spare, high_water, parked]: [u64; 3],
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.section("closed-loop");
    w.u64(4);
    w.bool(true);
    w.u64(0);
    w.u64(0);
    w.u64(0);
    w.bool(false);
    w.u64s(deadlines);
    w.usize(buckets.len());
    for &(key, ids) in buckets {
        w.u64(key);
        w.u32s(ids);
    }
    w.u64(spare);
    w.u64(high_water);
    w.u64(parked);
    w.finish()
}

#[test]
fn inconsistent_closed_loop_tables_are_corrupt() {
    let restore = |bytes: Vec<u8>| {
        let mut load = ClosedLoop::new(4).coalesce(SimDuration::from_millis(1));
        load.snap_restore(&mut SnapReader::new(&bytes).expect("well-formed envelope"))
    };
    // Grain 1 ms: bucket `key` holds deadlines in ((key − 1) ms, key ms].
    let deadlines = [10, 2_500_000, 30, 40];
    let ok = closed_loop_with_table(&deadlines, &[(1, &[0, 2]), (3, &[1])], [1, 4, 3]);
    assert_eq!(restore(ok), Ok(()), "the hand-written layout must decode");
    assert_eq!(restore(closed_loop_with_table(&[], &[], [0, 0, 0])), Ok(()));
    let cases: [(&str, Vec<u8>); 11] = [
        (
            "deadline table neither empty nor one slot per user",
            closed_loop_with_table(&[10, 20, 30], &[], [0, 0, 0]),
        ),
        (
            "bucket id past the population",
            closed_loop_with_table(&deadlines, &[(1, &[0, 4])], [0, 2, 2]),
        ),
        (
            "parked user before start",
            closed_loop_with_table(&[], &[(1, &[0])], [0, 1, 1]),
        ),
        (
            "parked is not the users in buckets",
            closed_loop_with_table(&deadlines, &[(1, &[0, 2]), (3, &[1])], [0, 4, 2]),
        ),
        (
            "duplicate bucket key",
            closed_loop_with_table(&deadlines, &[(1, &[0]), (1, &[1])], [0, 2, 2]),
        ),
        (
            "high water above the population",
            closed_loop_with_table(&deadlines, &[], [0, 5, 0]),
        ),
        (
            "more spare vectors than ever held a user",
            closed_loop_with_table(&deadlines, &[(1, &[0])], [3, 2, 1]),
        ),
        (
            "a user parked twice in one bucket",
            closed_loop_with_table(&deadlines, &[(1, &[0, 0])], [0, 2, 2]),
        ),
        (
            "a user parked in two buckets",
            closed_loop_with_table(&deadlines, &[(1, &[0]), (3, &[0])], [0, 2, 2]),
        ),
        (
            "a deadline outside its bucket's window",
            closed_loop_with_table(&deadlines, &[(1, &[0, 1])], [0, 2, 2]),
        ),
        (
            "an empty bucket",
            closed_loop_with_table(&deadlines, &[(1, &[])], [0, 0, 0]),
        ),
    ];
    for (what, bytes) in cases {
        let got = restore(bytes);
        assert!(matches!(got, Err(SnapError::Corrupt(_))), "{what}: {got:?}");
    }
}
