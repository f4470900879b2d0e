//! Engine micro/macro benchmarks: how fast the simulator itself runs.
//!
//! These measure simulator wall-clock cost (events processed per wall
//! second), not simulated-system performance — useful for keeping sweeps
//! affordable as the engine evolves. One scheduler microbenchmark isolates
//! the wake-time idle search on the paper's machine.

use criterion::{criterion_group, criterion_main, Criterion};
use loadgen::ClosedLoop;
use microsvc::{Deployment, Engine, EngineParams};
use simcore::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use teastore::TeaStore;

fn run_teastore(topo: Arc<cputopo::Topology>, users: u64, measure_ms: u64, seed: u64) -> u64 {
    let store = TeaStore::browse();
    let mix = store.mix();
    let app = store.into_app();
    let deployment = Deployment::uniform(&app, &topo, 4, 12);
    let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, seed);
    let mut load = ClosedLoop::new(users)
        .think_time(SimDuration::from_millis(10))
        .mix(&mix)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(measure_ms));
    engine.run(&mut load, SimTime::from_secs(60));
    engine.report().completed
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(2));
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("teastore_desktop_64u_300ms", |b| {
        let topo = Arc::new(cputopo::Topology::desktop_8c());
        b.iter(|| black_box(run_teastore(topo.clone(), 64, 300, 1)))
    });

    group.bench_function("teastore_2p256_512u_300ms", |b| {
        let topo = Arc::new(cputopo::Topology::zen2_2p_128c());
        b.iter(|| black_box(run_teastore(topo.clone(), 512, 300, 1)))
    });

    group.finish();
}

/// Wakes and blocks on the paper's 256-CPU machine with one thread of
/// every core busy: the woken task's last CPU sits on a busy core, so each
/// wake searches every domain for an idle core before settling for an
/// idle sibling — the longest idle search the scheduler makes.
fn bench_sched_wake(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched");
    group.sample_size(20);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(4));

    group.bench_function("wake_block_zen2_half_busy", |b| {
        let topo = Arc::new(cputopo::Topology::zen2_2p_128c());
        let mut sched = oskernel::Scheduler::new(topo.clone(), oskernel::SchedParams::default());
        for core in 0..topo.num_cores() as u32 {
            let cpu = cputopo::CpuId(core); // thread 0 of every core
            let hog = sched.spawn([cpu].into_iter().collect());
            assert_eq!(sched.wake(hog, SimTime::ZERO).map(|p| p.cpu), Some(cpu));
        }
        let task = sched.spawn(topo.all_cpus().clone());
        b.iter(|| {
            // 1024 pairs per iteration keep the per-iteration time well
            // above the timer's resolution.
            for _ in 0..1024 {
                let placed = sched
                    .wake(task, SimTime::ZERO)
                    .expect("idle siblings remain");
                black_box(placed.cpu);
                black_box(sched.block(task));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_engine, bench_sched_wake);
criterion_main!(benches);
