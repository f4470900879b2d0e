//! Deterministic fault-space exploration: a generative plan space, a
//! declarative SLO oracle, and a delta-debugging shrinker.
//!
//! The hand-written fault studies (E18–E23) each probe one scenario an
//! author thought of. This module turns the fault space itself into data so
//! it can be *searched*: a [`PlanSpace`] samples randomized [`ChaosPlan`]s —
//! crash windows, slow-replica multipliers, reply drop/delay, plus the
//! correlated modes hand-written plans never exercise (simultaneous
//! multi-instance crashes, gray/partial degradation) — from a labeled RNG
//! stream, so every explored plan is replayable from `(seed, index)` alone.
//! An [`SloPolicy`] turns a [`RunReport`](crate::RunReport) into a
//! [`Verdict`] (p99 ceiling, goodput floor, recovery-within-T, and a
//! no-metastability predicate), and [`shrink`] reduces a violating plan to a
//! minimal reproducer by dropping events, narrowing windows, and weakening
//! severities — accepting a step only if the shrunk plan still violates the
//! same invariant.
//!
//! Everything here is pure data and pure functions: the only randomness is
//! the labeled substream inside [`PlanSpace::sample`], and the shrinker is a
//! deterministic function of the plan and the (deterministic) probe results.
//! Executing a plan against the simulator — forking a warm snapshot at the
//! trigger instant — lives in the `scaleup` crate, which owns the `Lab`.
//!
//! # Quantization
//!
//! Every sampled quantity lives on a coarse exact grid: times on a 1 ms
//! grain, demand factors in quarter steps (`1 + q/4`), drop probabilities in
//! 1/64 steps (`d/64`). All grid values are exactly representable, so
//! shrink steps (integer halvings on the grid) terminate, never accumulate
//! float error, and produce byte-identical plans across platforms.

use crate::fault::FaultPlan;
use crate::ids::InstanceId;
use crate::metrics::RunReport;
use simcore::snap::fnv64;
use simcore::{RngFactory, SimDuration, SimTime};
use std::fmt::Write as _;

/// Shortest window any sampled or shrunk fault may occupy: shorter windows
/// stop interacting with queue dynamics and only add shrink-probe noise.
const MIN_WINDOW: SimDuration = SimDuration::from_millis(50);

/// One generative fault event. `Crash` carries *several* instances — the
/// correlated "whole replica set reboots at once" mode a per-instance
/// [`FaultPlan`] can express but no hand-written plan tries; `Gray` is
/// partial degradation (modest demand multiplier *and* lossy, delayed
/// replies in one window — the half-dead node that keeps accepting work).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Simultaneous crash of every listed instance (sorted, deduplicated),
    /// all restarting `restart_after` later.
    Crash {
        /// The instances that go down together.
        instances: Vec<InstanceId>,
        /// The shared crash instant.
        at: SimTime,
        /// The shared downtime.
        restart_after: SimDuration,
    },
    /// A hard slowdown of one instance (GC storm, noisy neighbor).
    Slow {
        /// The affected instance.
        instance: InstanceId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// CPU-demand multiplier, `1 + q/4` for integer `q ≥ 1`.
        factor: f64,
    },
    /// Gray degradation: mildly slower *and* flaky at the same time.
    Gray {
        /// The affected instance.
        instance: InstanceId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// CPU-demand multiplier, `1 + q/4` for integer `q ≥ 0`.
        factor: f64,
        /// Reply drop probability, `d/64` for integer `d ≥ 0`.
        drop: f64,
        /// Extra delay on surviving replies (whole milliseconds).
        delay: SimDuration,
    },
    /// Reply drop/delay only (flaky NIC, overloaded sidecar).
    Flaky {
        /// The affected instance.
        instance: InstanceId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Reply drop probability, `d/64` for integer `d ≥ 1`.
        drop: f64,
        /// Extra delay on surviving replies (whole milliseconds).
        delay: SimDuration,
    },
}

/// Millisecond count of a duration (all chaos quantities are ms-aligned).
fn ms(d: SimDuration) -> u64 {
    d.as_nanos() / 1_000_000
}

/// Millisecond count of an absolute time.
fn ms_at(t: SimTime) -> u64 {
    t.saturating_since(SimTime::ZERO).as_nanos() / 1_000_000
}

/// Demand factor → quarter-step quanta (`factor = 1 + q/4`).
fn factor_quanta(factor: f64) -> u64 {
    ((factor - 1.0) * 4.0).round() as u64
}

/// Drop probability → 1/64 quanta (`drop = d/64`).
fn drop_quanta(drop: f64) -> u64 {
    (drop * 64.0).round() as u64
}

impl FaultEvent {
    /// The instant fault activity begins.
    pub fn start(&self) -> SimTime {
        match *self {
            FaultEvent::Crash { at, .. } => at,
            FaultEvent::Slow { from, .. }
            | FaultEvent::Gray { from, .. }
            | FaultEvent::Flaky { from, .. } => from,
        }
    }

    /// The instant fault activity is fully over.
    pub fn end(&self) -> SimTime {
        match *self {
            FaultEvent::Crash {
                at, restart_after, ..
            } => at + restart_after,
            FaultEvent::Slow { until, .. }
            | FaultEvent::Gray { until, .. }
            | FaultEvent::Flaky { until, .. } => until,
        }
    }

    /// How many [`FaultPlan`] primitives the event lowers to — the size
    /// measure the "minimal reproducer ≤ 25% of the original" criterion
    /// uses, so a 4-instance correlated crash honestly counts as 4.
    pub fn weight(&self) -> usize {
        match self {
            FaultEvent::Crash { instances, .. } => instances.len(),
            FaultEvent::Slow { .. } | FaultEvent::Flaky { .. } => 1,
            FaultEvent::Gray { .. } => 2,
        }
    }

    /// Canonical one-line rendering (ms-unit integers, exact grid floats).
    fn describe(&self, out: &mut String) {
        match self {
            FaultEvent::Crash {
                instances,
                at,
                restart_after,
            } => {
                let ids: Vec<String> = instances.iter().map(|i| i.0.to_string()).collect();
                let _ = write!(
                    out,
                    "crash[{}] at={}ms down={}ms",
                    ids.join(","),
                    ms_at(*at),
                    ms(*restart_after)
                );
            }
            FaultEvent::Slow {
                instance,
                from,
                until,
                factor,
            } => {
                let _ = write!(
                    out,
                    "slow[{}] [{}ms,{}ms) x{}",
                    instance.0,
                    ms_at(*from),
                    ms_at(*until),
                    factor
                );
            }
            FaultEvent::Gray {
                instance,
                from,
                until,
                factor,
                drop,
                delay,
            } => {
                let _ = write!(
                    out,
                    "gray[{}] [{}ms,{}ms) x{} drop={}/64 delay={}ms",
                    instance.0,
                    ms_at(*from),
                    ms_at(*until),
                    factor,
                    drop_quanta(*drop),
                    ms(*delay)
                );
            }
            FaultEvent::Flaky {
                instance,
                from,
                until,
                drop,
                delay,
            } => {
                let _ = write!(
                    out,
                    "flaky[{}] [{}ms,{}ms) drop={}/64 delay={}ms",
                    instance.0,
                    ms_at(*from),
                    ms_at(*until),
                    drop_quanta(*drop),
                    ms(*delay)
                );
            }
        }
    }

    /// `true` if `self` is the same kind of event as `orig`, on (a subset
    /// of) the same instances, with a window contained in `orig`'s and
    /// severities no larger — i.e. reachable from `orig` by shrink steps.
    pub fn weakened_from(&self, orig: &FaultEvent) -> bool {
        match (self, orig) {
            (
                FaultEvent::Crash {
                    instances: i1,
                    at: a1,
                    restart_after: r1,
                },
                FaultEvent::Crash {
                    instances: i0,
                    at: a0,
                    restart_after: r0,
                },
            ) => {
                !i1.is_empty()
                    && *r1 > SimDuration::ZERO
                    && is_subsequence(i1, i0)
                    && *a1 >= *a0
                    && *a1 + *r1 <= *a0 + *r0
            }
            (
                FaultEvent::Slow {
                    instance: s1,
                    from: f1,
                    until: u1,
                    factor: x1,
                },
                FaultEvent::Slow {
                    instance: s0,
                    from: f0,
                    until: u0,
                    factor: x0,
                },
            ) => s1 == s0 && f1 >= f0 && u1 <= u0 && f1 < u1 && *x1 > 1.0 && x1 <= x0,
            (
                FaultEvent::Gray {
                    instance: s1,
                    from: f1,
                    until: u1,
                    factor: x1,
                    drop: d1,
                    delay: y1,
                },
                FaultEvent::Gray {
                    instance: s0,
                    from: f0,
                    until: u0,
                    factor: x0,
                    drop: d0,
                    delay: y0,
                },
            ) => {
                s1 == s0
                    && f1 >= f0
                    && u1 <= u0
                    && f1 < u1
                    && x1 <= x0
                    && d1 <= d0
                    && y1 <= y0
                    && (*x1 > 1.0 || *d1 > 0.0 || *y1 > SimDuration::ZERO)
            }
            (
                FaultEvent::Flaky {
                    instance: s1,
                    from: f1,
                    until: u1,
                    drop: d1,
                    delay: y1,
                },
                FaultEvent::Flaky {
                    instance: s0,
                    from: f0,
                    until: u0,
                    drop: d0,
                    delay: y0,
                },
            ) => {
                s1 == s0
                    && f1 >= f0
                    && u1 <= u0
                    && f1 < u1
                    && d1 <= d0
                    && y1 <= y0
                    && (*d1 > 0.0 || *y1 > SimDuration::ZERO)
            }
            _ => false,
        }
    }
}

/// `true` if `needle` is an order-preserving subsequence of `haystack`.
fn is_subsequence(needle: &[InstanceId], haystack: &[InstanceId]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// A sampled point of the fault space: an ordered list of [`FaultEvent`]s.
///
/// Execution lowers the plan to a [`FaultPlan`] ([`ChaosPlan::lower`]); the
/// shrinker and the determinism contract work on this richer form, where a
/// correlated crash is one event and gray degradation keeps its coupled
/// window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// The fault events, in sampling order.
    pub events: Vec<FaultEvent>,
}

impl ChaosPlan {
    /// Total plan size in lowered [`FaultPlan`] primitives.
    pub fn size(&self) -> usize {
        self.events.iter().map(FaultEvent::weight).sum()
    }

    /// The earliest fault activity, or `None` for the empty plan.
    pub fn earliest(&self) -> Option<SimTime> {
        self.events.iter().map(FaultEvent::start).min()
    }

    /// The instant all fault activity is over, or `None` for the empty plan.
    pub fn latest_end(&self) -> Option<SimTime> {
        self.events.iter().map(FaultEvent::end).max()
    }

    /// Lowers to the executable per-instance [`FaultPlan`].
    pub fn lower(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for ev in &self.events {
            match ev {
                FaultEvent::Crash {
                    instances,
                    at,
                    restart_after,
                } => {
                    for &i in instances {
                        plan = plan.crash(i, *at, *restart_after);
                    }
                }
                FaultEvent::Slow {
                    instance,
                    from,
                    until,
                    factor,
                } => {
                    plan = plan.slowdown(*instance, *from, *until, *factor);
                }
                FaultEvent::Gray {
                    instance,
                    from,
                    until,
                    factor,
                    drop,
                    delay,
                } => {
                    if *factor > 1.0 {
                        plan = plan.slowdown(*instance, *from, *until, *factor);
                    }
                    plan = plan.reply_fault(*instance, *from, *until, *drop, *delay);
                }
                FaultEvent::Flaky {
                    instance,
                    from,
                    until,
                    drop,
                    delay,
                } => {
                    plan = plan.reply_fault(*instance, *from, *until, *drop, *delay);
                }
            }
        }
        plan
    }

    /// Canonical multi-line rendering; [`ChaosPlan::hash`] is the FNV-1a of
    /// this string, and the determinism tests pin it byte-for-byte.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str("  ");
            ev.describe(&mut out);
            out.push('\n');
        }
        out
    }

    /// FNV-1a hash of the canonical rendering.
    pub fn hash(&self) -> u64 {
        fnv64(self.describe().as_bytes())
    }

    /// `true` if `self` can be produced from `original` by shrink steps:
    /// its events are an order-preserving subsequence of `original`'s, each
    /// weakened in place (see [`FaultEvent::weakened_from`]).
    pub fn is_weakening_of(&self, original: &ChaosPlan) -> bool {
        let mut next = 0usize;
        'outer: for ev in &self.events {
            while next < original.events.len() {
                let candidate = &original.events[next];
                next += 1;
                if ev.weakened_from(candidate) {
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }
}

/// The generative fault-plan space: how many instances exist, the time
/// window fault activity must fit in, and how many events a plan carries.
///
/// [`PlanSpace::sample`] is a pure function of `(space, seed, index)`; the
/// RNG is the labeled substream `("chaos.plan", index)` of `seed`, so a
/// violating plan found by a long search is replayable from two integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpace {
    /// Number of instances in the deployment under test.
    pub instances: u32,
    /// No fault activity starts before this (the fork-at-trigger instant).
    pub from: SimTime,
    /// All fault activity ends at or before this.
    pub until: SimTime,
    /// Fewest events a sampled plan carries.
    pub events_min: u32,
    /// Most events a sampled plan carries.
    pub events_max: u32,
}

impl PlanSpace {
    /// Samples the `index`-th plan of the space under `seed`.
    ///
    /// Guarantees by construction: every window lies in `[from, until]`, is
    /// at least [`MIN_WINDOW`] long and ms-aligned; severities sit on the
    /// exact quantization grid; and each instance crashes at most once per
    /// plan, so the lowered [`FaultPlan`] always passes validation (no
    /// same-instance crash overlap, no zero-length windows).
    ///
    /// # Panics
    ///
    /// Panics if the space has no instances, an event range of zero, or a
    /// window shorter than [`MIN_WINDOW`].
    pub fn sample(&self, seed: u64, index: u64) -> ChaosPlan {
        assert!(self.instances > 0, "plan space needs instances");
        assert!(
            self.events_min >= 1 && self.events_min <= self.events_max,
            "plan space needs a non-empty event range"
        );
        let span = self.until.saturating_since(self.from);
        assert!(
            ms(span) >= ms(MIN_WINDOW),
            "plan space window shorter than {}",
            MIN_WINDOW
        );
        let mut rng = RngFactory::new(seed).substream("chaos.plan", index);
        let n = rng.next_range(u64::from(self.events_min), u64::from(self.events_max));
        let mut crashed = vec![false; self.instances as usize];
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            // Sample the window first so every mode consumes the same draws.
            let span_ms = ms(span);
            let start_ms = rng.next_range(0, span_ms - ms(MIN_WINDOW));
            let len_ms = rng.next_range(ms(MIN_WINDOW), span_ms - start_ms);
            let from = self.from + SimDuration::from_millis(start_ms);
            let until = from + SimDuration::from_millis(len_ms);
            let mode = rng.next_below(100);
            let alive: Vec<InstanceId> = (0..self.instances)
                .filter(|&i| !crashed[i as usize])
                .map(InstanceId)
                .collect();
            let any = InstanceId(rng.next_below(u64::from(self.instances)) as u32);
            if mode < 30 && !alive.is_empty() {
                // Crash — correlated (several instances at once) half the
                // time there is more than one instance left to take down.
                let k = if alive.len() > 1 && rng.chance(0.5) {
                    rng.next_range(2, alive.len() as u64) as usize
                } else {
                    1
                };
                let mut pool = alive;
                rng.shuffle(&mut pool);
                let mut instances: Vec<InstanceId> = pool.into_iter().take(k).collect();
                instances.sort_unstable_by_key(|i| i.0);
                for i in &instances {
                    crashed[i.index()] = true;
                }
                events.push(FaultEvent::Crash {
                    instances,
                    at: from,
                    restart_after: until.saturating_since(from),
                });
            } else if mode < 55 {
                // Hard slowdown: ×4 … ×41 in quarter steps.
                let factor = 1.0 + rng.next_range(12, 160) as f64 / 4.0;
                events.push(FaultEvent::Slow {
                    instance: any,
                    from,
                    until,
                    factor,
                });
            } else if mode < 80 {
                // Gray degradation: ×1.25 … ×3 plus 3–25% drops and a
                // small delay — individually survivable, jointly not.
                let factor = 1.0 + rng.next_range(1, 8) as f64 / 4.0;
                let drop = rng.next_range(2, 16) as f64 / 64.0;
                let delay = SimDuration::from_millis(rng.next_range(0, 20));
                events.push(FaultEvent::Gray {
                    instance: any,
                    from,
                    until,
                    factor,
                    drop,
                    delay,
                });
            } else {
                // Flaky replies: 25–100% drops, up to 50 ms extra delay.
                let drop = rng.next_range(16, 64) as f64 / 64.0;
                let delay = SimDuration::from_millis(rng.next_range(0, 50));
                events.push(FaultEvent::Flaky {
                    instance: any,
                    from,
                    until,
                    drop,
                    delay,
                });
            }
        }
        ChaosPlan { events }
    }
}

/// The SLO invariants a run is checked against. All thresholds are
/// *relative* to a fault-free baseline of the same configuration, so one
/// policy works across `--quick` and paper scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Hard ceiling on end-to-end p99 latency over the measurement window.
    pub p99_ceiling: SimDuration,
    /// Whole-window goodput must stay at or above this fraction of the
    /// baseline's throughput.
    pub goodput_floor: f64,
    /// Recovered means: a throughput bucket sustains at least this fraction
    /// of baseline...
    pub recovery_frac: f64,
    /// ...within this long after the last fault clears.
    pub recovery_within: SimDuration,
    /// No-metastability: mean goodput over the tail that starts
    /// `recovery_within` after the last fault clears must be at least this
    /// fraction of baseline (a system that "recovered" for one bucket and
    /// sank back is metastable, not recovered).
    pub metastable_frac: f64,
}

/// The four SLO invariants, in fixed severity order (the shrink target is
/// the first violated one, and verdict renderings list them in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slo {
    /// p99 latency exceeded the ceiling.
    P99Ceiling,
    /// Whole-window goodput fell below the floor.
    GoodputFloor,
    /// Goodput did not return to `recovery_frac` within `recovery_within`
    /// of the last fault clearing.
    Recovery,
    /// Goodput stayed pinned below `metastable_frac` after the recovery
    /// grace period — the metastable signature.
    Metastable,
}

impl std::fmt::Display for Slo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slo::P99Ceiling => f.write_str("p99-ceiling"),
            Slo::GoodputFloor => f.write_str("goodput-floor"),
            Slo::Recovery => f.write_str("recovery"),
            Slo::Metastable => f.write_str("metastable"),
        }
    }
}

/// Everything the oracle needs besides the report: the baseline rate, the
/// measurement window (absolute sim times), and when the plan's last fault
/// clears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleCtx {
    /// Fault-free throughput of the same configuration (req/s).
    pub baseline_rps: f64,
    /// Measurement window start (end of warm-up), absolute.
    pub window_start: SimTime,
    /// Measurement window end, absolute.
    pub window_end: SimTime,
    /// When the plan's last fault activity is over, absolute.
    pub fault_end: SimTime,
}

/// The oracle's output for one run: which invariants were violated, plus
/// the measured values backing the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Violated invariants in [`Slo`] order; empty means the run held.
    pub violated: Vec<Slo>,
    /// Measured p99 (µs) over the window.
    pub p99_us: f64,
    /// Whole-window goodput as a fraction of baseline.
    pub goodput_frac: f64,
    /// Seconds from fault-end to sustained recovery, if it happened.
    pub recovery_secs: Option<f64>,
    /// Tail-mean goodput (after the recovery grace period) as a fraction
    /// of baseline.
    pub tail_frac: f64,
}

impl Verdict {
    /// `true` if any invariant was violated.
    pub fn is_violation(&self) -> bool {
        !self.violated.is_empty()
    }

    /// The most severe violated invariant (the shrink target), if any.
    pub fn primary(&self) -> Option<Slo> {
        self.violated.first().copied()
    }

    /// Canonical one-line rendering for trajectory hashing: violations and
    /// quantized measurements (3 decimal places — coarse enough to be
    /// platform-stable, fine enough to pin behaviour).
    pub fn describe(&self) -> String {
        let names: Vec<String> = self.violated.iter().map(|s| s.to_string()).collect();
        format!(
            "[{}] p99={:.3}ms goodput={:.3} recovery={} tail={:.3}",
            names.join(","),
            self.p99_us / 1000.0,
            self.goodput_frac,
            match self.recovery_secs {
                Some(s) => format!("{s:.3}s"),
                None => "never".to_owned(),
            },
            self.tail_frac,
        )
    }
}

impl SloPolicy {
    /// Checks `report` against the policy. Series timestamps in the report
    /// are absolute seconds since run start (warm-up included), matching
    /// [`OracleCtx`]'s absolute times.
    pub fn check(&self, ctx: &OracleCtx, report: &RunReport) -> Verdict {
        let base = ctx.baseline_rps.max(f64::MIN_POSITIVE);
        let series = &report.throughput_series;
        let t_end = ctx.fault_end.saturating_since(SimTime::ZERO).as_secs_f64();
        let window_end = ctx.window_end.saturating_since(SimTime::ZERO).as_secs_f64();

        let p99_us = report.latency_p99.as_micros_f64();
        let goodput_frac = report.throughput_rps / base;

        // Recovery: first of two consecutive whole buckets at or above the
        // recovery threshold, at or after the last fault clears. A single
        // bucket can be one lucky drain; two in a row is a trend.
        let threshold = self.recovery_frac * base;
        let whole = &series[..series.len().saturating_sub(1)];
        let mut recovery_secs = None;
        let mut streak_start: Option<f64> = None;
        for &(t, v) in whole.iter().filter(|&&(t, _)| t >= t_end) {
            if v >= threshold {
                match streak_start {
                    Some(start) => {
                        recovery_secs = Some((start - t_end).max(0.0));
                        break;
                    }
                    None => streak_start = Some(t),
                }
            } else {
                streak_start = None;
            }
        }

        // Metastability: mean goodput over the tail after the grace period.
        // The series is sparse (empty buckets are absent), so divide by the
        // expected bucket count — a silent system is pinned at zero, not
        // excused from the average.
        let tail_start = t_end + self.recovery_within.as_secs_f64();
        let tail_buckets = ((window_end - tail_start) / 0.1).floor();
        let tail_frac = if tail_buckets >= 1.0 {
            let sum: f64 = whole
                .iter()
                .filter(|&&(t, _)| t >= tail_start && t < window_end)
                .map(|&(_, v)| v)
                .sum();
            sum / tail_buckets / base
        } else {
            // No tail to judge — count it as healthy.
            1.0
        };

        let mut violated = Vec::new();
        if report.latency_p99 > self.p99_ceiling {
            violated.push(Slo::P99Ceiling);
        }
        if goodput_frac < self.goodput_floor {
            violated.push(Slo::GoodputFloor);
        }
        let recovered_in_time =
            matches!(recovery_secs, Some(s) if s <= self.recovery_within.as_secs_f64());
        if !recovered_in_time {
            violated.push(Slo::Recovery);
        }
        if tail_frac < self.metastable_frac {
            violated.push(Slo::Metastable);
        }
        Verdict {
            violated,
            p99_us,
            goodput_frac,
            recovery_secs,
            tail_frac,
        }
    }
}

/// The result of shrinking one violating plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkOutcome {
    /// The minimal reproducer: no single shrink step preserves the
    /// violation.
    pub minimal: ChaosPlan,
    /// Simulation probes spent.
    pub probes: u32,
    /// Accepted steps, in order — part of the search trajectory the
    /// determinism tests hash.
    pub steps: Vec<String>,
}

/// Safety valve: no realistic shrink needs this many probes; a runaway
/// candidate generator would.
const MAX_PROBES: u32 = 2_000;

/// Delta-debugs `plan` down to a minimal reproducer: repeatedly tries to
/// drop whole events, narrow windows, and weaken severities, keeping a step
/// only if `violates` still holds (the caller closes over the invariant —
/// "still violates the *same* invariant" — and the execution harness).
///
/// Deterministic: candidates are generated in a fixed order from the plan
/// alone, so the probe sequence — and therefore the minimal reproducer — is
/// a pure function of `plan` and the probe results. Terminates: every
/// accepted step strictly shrinks an integer measure (event count, window
/// milliseconds, severity quanta); a full round with no accepted step is a
/// fixed point, which also makes shrinking idempotent.
///
/// The caller must only pass plans for which `violates(plan)` holds; the
/// shrinker does not re-probe the input.
pub fn shrink<F>(plan: &ChaosPlan, mut violates: F) -> ShrinkOutcome
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let mut current = plan.clone();
    let mut probes = 0u32;
    let mut steps = Vec::new();
    loop {
        let mut accepted_this_round = false;

        // Drop pass: remove whole events, last first (index stability).
        let mut i = current.events.len();
        while i > 0 {
            i -= 1;
            if current.events.len() == 1 {
                break; // an empty plan cannot violate; don't probe it
            }
            if probes >= MAX_PROBES {
                return ShrinkOutcome {
                    minimal: current,
                    probes,
                    steps,
                };
            }
            let mut candidate = current.clone();
            candidate.events.remove(i);
            probes += 1;
            if violates(&candidate) {
                steps.push(format!("drop[{i}]"));
                current = candidate;
                accepted_this_round = true;
            }
        }

        // Weaken pass: per event, keep applying the first still-violating
        // weakening until none applies, then move on.
        let mut i = 0;
        while i < current.events.len() {
            loop {
                let candidates = weaken_candidates(&current.events[i]);
                let mut advanced = false;
                for (label, ev) in candidates {
                    if probes >= MAX_PROBES {
                        return ShrinkOutcome {
                            minimal: current,
                            probes,
                            steps,
                        };
                    }
                    let mut candidate = current.clone();
                    candidate.events[i] = ev;
                    probes += 1;
                    if violates(&candidate) {
                        steps.push(format!("{label}[{i}]"));
                        current = candidate;
                        accepted_this_round = true;
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    break;
                }
            }
            i += 1;
        }

        if !accepted_this_round {
            return ShrinkOutcome {
                minimal: current,
                probes,
                steps,
            };
        }
    }
}

/// Halves a ms-aligned duration on the ms grid.
fn half_ms(d: SimDuration) -> SimDuration {
    SimDuration::from_millis(ms(d) / 2)
}

/// The ordered one-step weakenings of `ev`. Every candidate is strictly
/// smaller in the integer measure and stays on the quantization grid; an
/// event with no candidates is atomically minimal.
fn weaken_candidates(ev: &FaultEvent) -> Vec<(&'static str, FaultEvent)> {
    let mut out = Vec::new();
    match ev {
        FaultEvent::Crash {
            instances,
            at,
            restart_after,
        } => {
            if instances.len() > 1 {
                out.push((
                    "uncorrelate",
                    FaultEvent::Crash {
                        instances: instances[..instances.len() - 1].to_vec(),
                        at: *at,
                        restart_after: *restart_after,
                    },
                ));
            }
            let shorter = half_ms(*restart_after);
            if ms(shorter) >= ms(MIN_WINDOW) {
                out.push((
                    "shorten",
                    FaultEvent::Crash {
                        instances: instances.clone(),
                        at: *at,
                        restart_after: shorter,
                    },
                ));
                out.push((
                    "delay",
                    FaultEvent::Crash {
                        instances: instances.clone(),
                        at: *at + (*restart_after - shorter),
                        restart_after: shorter,
                    },
                ));
            }
        }
        FaultEvent::Slow {
            instance,
            from,
            until,
            factor,
        } => {
            let len = until.saturating_since(*from);
            let shorter = half_ms(len);
            if ms(shorter) >= ms(MIN_WINDOW) {
                out.push((
                    "narrow-left",
                    FaultEvent::Slow {
                        instance: *instance,
                        from: *until - shorter,
                        until: *until,
                        factor: *factor,
                    },
                ));
                out.push((
                    "narrow-right",
                    FaultEvent::Slow {
                        instance: *instance,
                        from: *from,
                        until: *from + shorter,
                        factor: *factor,
                    },
                ));
            }
            let q = factor_quanta(*factor) / 2;
            if q >= 1 {
                out.push((
                    "weaken",
                    FaultEvent::Slow {
                        instance: *instance,
                        from: *from,
                        until: *until,
                        factor: 1.0 + q as f64 / 4.0,
                    },
                ));
            }
        }
        FaultEvent::Gray {
            instance,
            from,
            until,
            factor,
            drop,
            delay,
        } => {
            let len = until.saturating_since(*from);
            let shorter = half_ms(len);
            let clone = |from, until, factor, drop, delay| FaultEvent::Gray {
                instance: *instance,
                from,
                until,
                factor,
                drop,
                delay,
            };
            if ms(shorter) >= ms(MIN_WINDOW) {
                out.push((
                    "narrow-left",
                    clone(*until - shorter, *until, *factor, *drop, *delay),
                ));
                out.push((
                    "narrow-right",
                    clone(*from, *from + shorter, *factor, *drop, *delay),
                ));
            }
            let q = factor_quanta(*factor) / 2;
            let weaker = 1.0 + q as f64 / 4.0;
            if weaker < *factor && (q >= 1 || *drop > 0.0 || *delay > SimDuration::ZERO) {
                out.push(("weaken", clone(*from, *until, weaker, *drop, *delay)));
            }
            let d = drop_quanta(*drop) / 2;
            let dryer = d as f64 / 64.0;
            if dryer < *drop && (*factor > 1.0 || d >= 1 || *delay > SimDuration::ZERO) {
                out.push(("undrop", clone(*from, *until, *factor, dryer, *delay)));
            }
            let faster = half_ms(*delay);
            if faster < *delay && (*factor > 1.0 || *drop > 0.0 || ms(faster) >= 1) {
                out.push(("undelay", clone(*from, *until, *factor, *drop, faster)));
            }
        }
        FaultEvent::Flaky {
            instance,
            from,
            until,
            drop,
            delay,
        } => {
            let len = until.saturating_since(*from);
            let shorter = half_ms(len);
            let clone = |from, until, drop, delay| FaultEvent::Flaky {
                instance: *instance,
                from,
                until,
                drop,
                delay,
            };
            if ms(shorter) >= ms(MIN_WINDOW) {
                out.push((
                    "narrow-left",
                    clone(*until - shorter, *until, *drop, *delay),
                ));
                out.push(("narrow-right", clone(*from, *from + shorter, *drop, *delay)));
            }
            let d = drop_quanta(*drop) / 2;
            let dryer = d as f64 / 64.0;
            if dryer < *drop && (d >= 1 || *delay > SimDuration::ZERO) {
                out.push(("undrop", clone(*from, *until, dryer, *delay)));
            }
            let faster = half_ms(*delay);
            if faster < *delay && (*drop > 0.0 || ms(faster) >= 1) {
                out.push(("undelay", clone(*from, *until, *drop, faster)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PlanSpace {
        PlanSpace {
            instances: 4,
            from: SimTime::from_millis(1_000),
            until: SimTime::from_millis(3_000),
            events_min: 4,
            events_max: 8,
        }
    }

    #[test]
    fn sampling_is_replayable_from_seed_and_index() {
        let s = space();
        for index in 0..16 {
            assert_eq!(s.sample(7, index), s.sample(7, index));
        }
        assert_ne!(s.sample(7, 0), s.sample(7, 1));
        assert_ne!(s.sample(7, 0), s.sample(8, 0));
    }

    #[test]
    fn sampled_plans_lower_to_valid_fault_plans() {
        let s = space();
        for index in 0..64 {
            let plan = s.sample(42, index);
            assert!(!plan.events.is_empty());
            assert!(plan.earliest().expect("non-empty") >= s.from);
            assert!(plan.latest_end().expect("non-empty") <= s.until);
            // validate() panics on overlap / zero-length / bad instance.
            plan.lower().validate(s.instances as usize);
        }
    }

    #[test]
    fn correlated_crashes_and_gray_modes_appear() {
        let s = space();
        let mut correlated = 0;
        let mut gray = 0;
        for index in 0..64 {
            for ev in &s.sample(42, index).events {
                match ev {
                    FaultEvent::Crash { instances, .. } if instances.len() > 1 => correlated += 1,
                    FaultEvent::Gray { .. } => gray += 1,
                    _ => {}
                }
            }
        }
        assert!(correlated > 0, "no correlated crashes sampled");
        assert!(gray > 0, "no gray degradation sampled");
    }

    #[test]
    fn describe_and_hash_are_stable_under_clone() {
        let plan = space().sample(1, 3);
        let copy = plan.clone();
        assert_eq!(plan.describe(), copy.describe());
        assert_eq!(plan.hash(), copy.hash());
    }

    #[test]
    fn shrink_with_synthetic_oracle_reaches_the_atom() {
        // The "invariant": the plan crashes instance 0. Minimal reproducer
        // must be a single crash event on instance 0 alone, shrunk to the
        // minimum window.
        let s = space();
        let violates = |p: &ChaosPlan| {
            p.events.iter().any(|e| {
                    matches!(e, FaultEvent::Crash { instances, .. } if instances.contains(&InstanceId(0)))
                })
        };
        for index in 0..64 {
            let plan = s.sample(9, index);
            if !violates(&plan) {
                continue;
            }
            let out = shrink(&plan, violates);
            assert!(violates(&out.minimal), "shrunk away the violation");
            assert!(out.minimal.is_weakening_of(&plan), "not a weakening");
            assert_eq!(out.minimal.events.len(), 1);
            match &out.minimal.events[0] {
                FaultEvent::Crash {
                    instances,
                    restart_after,
                    ..
                } => {
                    assert_eq!(instances.as_slice(), &[InstanceId(0)]);
                    assert!(ms(*restart_after) < 2 * ms(MIN_WINDOW));
                }
                other => panic!("expected a crash, got {other:?}"),
            }
            // Idempotence: shrinking the minimal plan is a no-op.
            let again = shrink(&out.minimal, violates);
            assert_eq!(again.minimal, out.minimal);
            assert!(again.steps.is_empty());
        }
    }

    #[test]
    fn weakening_relation_accepts_shrink_steps_and_rejects_growth() {
        let base = FaultEvent::Slow {
            instance: InstanceId(1),
            from: SimTime::from_millis(1_000),
            until: SimTime::from_millis(2_000),
            factor: 9.0,
        };
        for (_, cand) in weaken_candidates(&base) {
            assert!(cand.weakened_from(&base), "{cand:?}");
            assert!(!base.weakened_from(&cand), "{cand:?}");
        }
        let plan = ChaosPlan {
            events: vec![base.clone()],
        };
        assert!(plan.is_weakening_of(&plan));
        assert!(ChaosPlan::default().is_weakening_of(&plan));
        assert!(!plan.is_weakening_of(&ChaosPlan::default()));
    }
}
