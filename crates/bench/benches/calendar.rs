//! Calendar microbenchmarks: schedule/pop/cancel cost of the timer wheel
//! at small, medium, and huge pending-event populations, the engine's
//! re-rate churn (arm, cancel, re-arm), plus one steady-state engine second
//! as the macro reference point.
//!
//! The population sizes bracket the regimes the wheel has to be good at:
//! 1e3 (a quick-config sweep point), 1e5 (the paper configuration), and
//! 1e7 (stress — most events live in the overflow heap and migrate down).

use criterion::{criterion_group, criterion_main, Criterion};
use loadgen::ClosedLoop;
use microsvc::{Deployment, Engine, EngineParams};
use simcore::{Calendar, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use teastore::TeaStore;

/// A calendar holding `n` pending events spread over one simulated hour,
/// advanced past warm-up so the wheel cursors are in steady state.
fn prefilled(n: u64) -> Calendar<u64> {
    let mut cal = Calendar::new();
    // Deterministic low-discrepancy spread: i * golden-ratio step mod 1h.
    let hour_us: u64 = 3_600_000_000;
    for i in 0..n {
        let at = (i.wrapping_mul(2_654_435_769)) % hour_us;
        cal.schedule(SimTime::from_micros(at + 1), i);
    }
    // Retire a small prefix so `now` sits mid-wheel, not at zero.
    for _ in 0..n.min(128) {
        cal.pop();
    }
    cal
}

fn bench_calendar(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar");
    group.sample_size(20);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(4));

    for &n in &[1_000u64, 100_000, 10_000_000] {
        let name = format!("push_pop_{n}");
        group.bench_function(&name, |b| {
            let mut cal = prefilled(n);
            b.iter(|| {
                // 64 near-future schedules then 64 pops: steady population,
                // so every iteration sees the same wheel occupancy.
                let now = cal.now();
                for i in 0..64u64 {
                    cal.schedule(now + SimDuration::from_micros(1 + i * 7), i);
                }
                for _ in 0..64 {
                    black_box(cal.pop());
                }
            })
        });

        let name = format!("cancel_{n}");
        group.bench_function(&name, |b| {
            let mut cal = prefilled(n);
            b.iter(|| {
                // Schedule 64, cancel half by token, pop the rest — the mix
                // the engine produces (timeout timers mostly cancelled, a
                // tail actually firing), so cancellation is on the measured
                // path.
                let now = cal.now();
                let tokens: Vec<_> = (0..64u64)
                    .map(|i| cal.schedule(now + SimDuration::from_micros(1 + i * 7), i))
                    .collect();
                for t in tokens.iter().skip(32) {
                    black_box(cal.cancel(*t));
                }
                for _ in 0..32 {
                    black_box(cal.pop());
                }
            })
        });

        let name = format!("reschedule_churn_{n}");
        group.bench_function(&name, |b| {
            let mut cal = prefilled(n);
            b.iter(|| {
                // The engine's re-rate pattern: per pop, a task is armed with
                // a near-term completion and a 3 ms quantum tick, and half
                // the time a neighbour's re-rate cancels both at once.
                for i in 0..64u64 {
                    let now = cal.now();
                    let done = cal.schedule(now + SimDuration::from_micros(1 + i % 8 * 5), i);
                    let tick = cal.schedule(now + SimDuration::from_millis(3), i);
                    if i % 2 == 0 {
                        black_box(cal.cancel(done));
                        black_box(cal.cancel(tick));
                    }
                    black_box(cal.pop());
                }
            })
        });
    }

    group.finish();
}

/// One simulated steady-state second of the full TeaStore engine on the
/// desktop topology — the macro number the micro-ops above must explain.
fn bench_engine_second(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar_macro");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(2));
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("engine_steady_second", |b| {
        let topo = Arc::new(cputopo::Topology::desktop_8c());
        b.iter(|| {
            let store = TeaStore::browse();
            let mix = store.mix();
            let app = store.into_app();
            let deployment = Deployment::uniform(&app, &topo, 4, 12);
            let mut engine = Engine::new(topo.clone(), EngineParams::default(), app, deployment, 1);
            let mut load = ClosedLoop::new(64)
                .think_time(SimDuration::from_millis(10))
                .mix(&mix)
                .warmup(SimDuration::from_millis(200))
                .measure(SimDuration::from_millis(1000));
            engine.run(&mut load, SimTime::from_secs(60));
            black_box(engine.report().completed)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_calendar, bench_engine_second);
criterion_main!(benches);
