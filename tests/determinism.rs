//! Reproducibility: identical seeds give identical simulations across the
//! whole stack; different seeds differ.

use scaleup::{placement::Policy, tuner, Lab};
use simcore::SimDuration;
use teastore::TeaStore;

fn run(seed: u64) -> (u64, u64, u64, u64) {
    let mut lab = Lab::paper_machine(seed).with_users(512);
    lab.warmup = SimDuration::from_millis(300);
    lab.measure = SimDuration::from_millis(600);
    let store = TeaStore::browse();
    let replicas = tuner::proportional_replicas(store.app(), 32);
    let report = lab.run_policy(&store, Policy::Unpinned, &replicas);
    (
        report.completed,
        report.mean_latency.as_nanos(),
        report.sched.context_switches,
        report.services[0].counters.instructions,
    )
}

#[test]
fn same_seed_bitwise_identical() {
    assert_eq!(run(1234), run(1234));
}

#[test]
fn different_seed_differs() {
    assert_ne!(run(1), run(2));
}

#[test]
fn experiment_harness_is_deterministic() {
    use scaleup_bench::experiments;
    use scaleup_bench::Config;
    let a = experiments::e8(&Config::quick(5));
    let b = experiments::e8(&Config::quick(5));
    assert_eq!(a.table, b.table);
    assert_eq!(a.uplift_pct, b.uplift_pct);
}

/// Negative path: determinism tests only prove something if a *perturbed*
/// run actually changes the outcome. Branch a run at the warm-up point with
/// a perturbed RNG stream and assert the golden hash of the report changes —
/// if it didn't, the positive tests above would be vacuous.
mod perturbation {
    use scaleup::{placement::Policy, tuner, BranchOverrides, Lab};
    use simcore::SimTime;
    use teastore::TeaStore;

    /// FNV-1a golden hash of the deterministic report fields.
    fn golden_hash(r: &microsvc::RunReport) -> u64 {
        let rendered = format!(
            "{} {} {} {} {}",
            r.completed,
            r.events_processed,
            r.mean_latency.as_nanos(),
            r.latency_p99.as_nanos(),
            r.throughput_rps.to_bits(),
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in rendered.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn perturbing_one_rng_stream_mid_run_changes_the_golden_hash() {
        let lab = Lab::small(42).with_users(64);
        let store = TeaStore::with_demand_scale(0.25);
        let replicas = tuner::proportional_replicas(store.app(), 12);
        let placed = Policy::Unpinned.deploy(store.app(), &lab.topo, &replicas);
        let bytes = lab.snapshot_app(
            store.app(),
            placed.deployment.clone(),
            placed.lb,
            SimTime::ZERO + lab.warmup,
        );
        // Control arm: an unperturbed resume replays the straight run.
        let straight = lab.run_app(store.app(), placed.deployment.clone(), placed.lb);
        let resumed = lab
            .resume_app(store.app(), placed.deployment.clone(), placed.lb, &bytes)
            .expect("resume from an in-process snapshot");
        assert_eq!(
            golden_hash(&straight),
            golden_hash(&resumed),
            "unperturbed resume must match the straight run"
        );
        // Perturbed arm: one salted reseed of the engine's RNG streams at
        // the fork point must change the trajectory, and thus the hash.
        let perturbed = lab
            .branch_app(
                store.app(),
                placed.deployment,
                placed.lb,
                &bytes,
                &BranchOverrides {
                    reseed: Some(1),
                    demand_scale: None,
                    faults: None,
                },
            )
            .expect("branch from an in-process snapshot");
        assert_ne!(
            golden_hash(&straight),
            golden_hash(&perturbed),
            "a perturbed RNG stream must change the golden hash — \
             otherwise the determinism tests prove nothing"
        );
        assert!(perturbed.completed > 0, "perturbed run must still work");
    }
}

#[test]
fn faulted_run_same_seed_bitwise_identical() {
    use microsvc::{FaultPlan, InstanceId, ResilienceParams};
    use simcore::SimTime;

    // The fault plan and resilience layer draw from their own seeded RNG
    // streams; a crash, a slowdown, and probabilistic reply drops must all
    // replay bit-for-bit under the same seed.
    let run = |seed: u64| {
        let mut lab = Lab::small(seed).with_users(64);
        lab.warmup = SimDuration::from_millis(200);
        lab.measure = SimDuration::from_millis(600);
        lab.engine_params.faults = FaultPlan::none()
            .crash(
                InstanceId(0),
                SimTime::from_nanos(300_000_000),
                SimDuration::from_millis(100),
            )
            .slowdown(
                InstanceId(1),
                SimTime::from_nanos(400_000_000),
                SimTime::from_nanos(600_000_000),
                8.0,
            )
            .reply_fault(
                InstanceId(2),
                SimTime::from_nanos(200_000_000),
                SimTime::from_nanos(700_000_000),
                0.3,
                SimDuration::from_micros(200),
            );
        lab.engine_params.resilience =
            Some(ResilienceParams::default().with_timeout(SimDuration::from_millis(10)));
        let store = TeaStore::with_demand_scale(0.25);
        let replicas = tuner::proportional_replicas(store.app(), 12);
        let report = lab.run_policy(&store, Policy::Unpinned, &replicas);
        let per_service: Vec<(u64, u64, u64, u64)> = report
            .services
            .iter()
            .map(|s| (s.timeouts, s.retries, s.fallbacks, s.breaker_opened))
            .collect();
        (
            report.completed,
            report.requests_timed_out,
            report.requests_shed,
            report.late_replies,
            report.replies_dropped,
            report.rejected_arrivals,
            report.mean_latency.as_nanos(),
            per_service,
        )
    };
    let a = run(77);
    assert_eq!(a, run(77));
    assert!(a.0 > 0, "faulted run must still complete requests");
    // The plan must actually have bitten, or this test proves nothing.
    assert!(
        a.4 + a.5 > 0 || a.7.iter().any(|&(t, ..)| t > 0),
        "fault plan never fired: {a:?}"
    );
    assert_ne!(a, run(78), "different seeds must differ");
}
