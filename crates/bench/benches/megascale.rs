//! Mega-scale microbenchmarks: the per-user cost of the load generator's
//! arrival/think cycle at 1e4, 1e5, and 1e6 users, and `LogHistogram`
//! record/quantile throughput at 1e7 samples.
//!
//! The closed-loop benches drive `ClosedLoop` against a mock engine context
//! (a bare timer wheel plus the driver RNG) so the measured path is exactly
//! the generator's own work — RNG draws, class mix sampling, wake-bucket
//! park/release — with no service-model noise. Exact mode is benched at
//! 1e4; the coalesced SoA mode carries the 1e5 and 1e6 populations, which
//! is how `repro perf`'s mega scenario runs them.

use criterion::{criterion_group, criterion_main, Criterion};
use loadgen::ClosedLoop;
use microsvc::{ClientId, Driver, EngineCtx, Outcome, RequestClassId, RequestId, ResponseInfo};
use simcore::stats::LogHistogram;
use simcore::{Calendar, Rng, RngFactory, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Duration;

/// A minimal engine context: a real timer wheel, a real driver RNG, and a
/// submit that just queues the client id for an immediate response.
struct MockCtx {
    cal: Calendar<u64>,
    rng: Rng,
    pending: Vec<u64>,
    submitted: u64,
}

impl MockCtx {
    fn new(seed: u64) -> Self {
        MockCtx {
            cal: Calendar::new(),
            rng: RngFactory::new(seed).stream("driver"),
            pending: Vec::new(),
            submitted: 0,
        }
    }
}

impl EngineCtx for MockCtx {
    fn now(&self) -> SimTime {
        self.cal.now()
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.cal.schedule(self.cal.now() + after, token);
    }

    fn submit(&mut self, _class: u32, client: u64) -> RequestId {
        self.pending.push(client);
        self.submitted += 1;
        RequestId(self.submitted)
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    fn reset_metrics(&mut self) {}

    fn request_stop(&mut self) {}

    fn completed_requests(&self) -> u64 {
        self.submitted
    }
}

/// Runs `cycles` timer firings of the think loop: every submitted request
/// is answered instantly, so each cycle is submit → response → think-park.
fn drive_cycles(load: &mut ClosedLoop, ctx: &mut MockCtx, cycles: u64) -> u64 {
    let mut fired = 0;
    while fired < cycles {
        let Some((_, token)) = ctx.cal.pop() else {
            break;
        };
        load.on_timer(token, ctx);
        fired += 1;
        while let Some(client) = ctx.pending.pop() {
            let resp = ResponseInfo {
                request: RequestId(ctx.submitted),
                client: ClientId(client),
                class: RequestClassId(0),
                latency: SimDuration::from_micros(500),
                outcome: Outcome::Ok,
            };
            load.on_response(resp, ctx);
        }
    }
    load.issued()
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("megascale_closed_loop");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));

    for &(users, coalesce_ms) in &[(10_000u64, 0u64), (100_000, 5), (1_000_000, 5)] {
        let mode = if coalesce_ms > 0 {
            "coalesced"
        } else {
            "exact"
        };
        let name = format!("think_cycle_{users}u_{mode}");
        group.bench_function(&name, |b| {
            b.iter(|| {
                let mut ctx = MockCtx::new(42);
                let mut load = ClosedLoop::new(users)
                    .think_time(SimDuration::from_millis(1000))
                    .warmup(SimDuration::from_secs(3600));
                if coalesce_ms > 0 {
                    load = load.coalesce(SimDuration::from_millis(coalesce_ms));
                }
                load.start(&mut ctx);
                // One stagger wave plus one full think cycle per user.
                black_box(drive_cycles(&mut load, &mut ctx, users * 2))
            })
        });
    }

    group.finish();
}

fn bench_log_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("megascale_histogram");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));

    const SAMPLES: u64 = 10_000_000;

    group.bench_function("record_1e7", |b| {
        b.iter(|| {
            let mut h = LogHistogram::new();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for _ in 0..SAMPLES {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                h.record(x >> 40);
            }
            black_box(h.count())
        })
    });

    group.bench_function("quantile_after_1e7", |b| {
        let mut h = LogHistogram::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..SAMPLES {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(x >> 40);
        }
        b.iter(|| {
            for &q in &[0.5, 0.9, 0.95, 0.99, 0.999] {
                black_box(h.quantile(q));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_closed_loop, bench_log_histogram);
criterion_main!(benches);
