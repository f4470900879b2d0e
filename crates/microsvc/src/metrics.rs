//! Measurement state and end-of-run reports.

use crate::app::AppSpec;
use cputopo::Topology;
use oskernel::SchedStats;
use serde::{Deserialize, Serialize};
use simcore::series::{Agg, TimeSeries};
use simcore::stats::{LogHistogram, TimeWeighted};
use simcore::{SimDuration, SimTime};
use uarch::{DerivedMetrics, PerfCounters};

/// Window width for the completion time series used by throughput-over-time
/// plots (crash dips, recovery ramps).
pub(crate) const THROUGHPUT_BUCKET: SimDuration = SimDuration::from_millis(100);

/// Bucket cap for every metrics time series: past this many windows the
/// series coarsens (window doubles, adjacent buckets merge) instead of
/// growing, so series memory is O(1) in run length. 4096 × 100 ms ≈ 410 s
/// of simulated time at full resolution — no existing experiment comes
/// within an order of magnitude of it, so their output is unchanged.
pub(crate) const MAX_SERIES_BUCKETS: usize = 4096;

/// A fixed-memory per-class goodput/throughput series at the standard
/// bucket width.
fn streaming_series(agg: Agg) -> TimeSeries {
    TimeSeries::bounded(THROUGHPUT_BUCKET, agg, MAX_SERIES_BUCKETS)
}

/// Machine-wide overload-control counters: how much work the policies in
/// [`crate::overload`] refused, deferred, or denied, by mechanism. All zero
/// unless overload control is configured — the summary only prints them when
/// nonzero, so legacy output is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadTotals {
    /// Jobs shed because the pending queue was at its admission bound.
    pub shed_queue_full: u64,
    /// Jobs shed at dequeue because they outwaited the queue deadline.
    pub shed_queue_deadline: u64,
    /// Jobs shed by the adaptive concurrency limiter.
    pub shed_concurrency: u64,
    /// Jobs shed by priority admission (queue too deep for their class).
    pub shed_priority: u64,
    /// Arrivals the limiter parked in the queue instead of starting.
    pub deferred: u64,
    /// Retries suppressed because the service's retry budget was empty.
    pub budget_denied: u64,
    /// Root requests that failed with a policy shed (client saw a fast 503).
    pub requests_shed_policy: u64,
}

impl OverloadTotals {
    /// Jobs shed by any policy.
    pub fn total_sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_queue_deadline + self.shed_concurrency + self.shed_priority
    }

    /// True when any counter is nonzero.
    pub fn any(&self) -> bool {
        self.total_sheds() + self.deferred + self.budget_denied + self.requests_shed_policy > 0
    }

    /// Bump the shed counter for `reason`.
    pub(crate) fn note_shed(&mut self, reason: crate::overload::ShedReason) {
        use crate::overload::ShedReason;
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::QueueDeadline => self.shed_queue_deadline += 1,
            ShedReason::Concurrency => self.shed_concurrency += 1,
            ShedReason::Priority => self.shed_priority += 1,
        }
    }
}

/// Live measurement state, owned by the engine.
#[derive(Debug, Clone)]
pub(crate) struct Metrics {
    pub(crate) window_start: SimTime,
    pub(crate) completed: u64,
    pub(crate) latency: LogHistogram,
    pub(crate) latency_per_class: Vec<LogHistogram>,
    pub(crate) per_service: Vec<ServiceMetrics>,
    /// Busy logical CPUs machine-wide (time-weighted).
    pub(crate) busy_cpus: TimeWeighted,
    /// Completions bucketed over time, for throughput-dip plots.
    pub(crate) completed_series: TimeSeries,
    /// Requests whose retry budget ran out: the client saw an error.
    pub(crate) requests_timed_out: u64,
    /// Requests refused at the entry (no instance accepting work).
    pub(crate) requests_shed: u64,
    /// Replies that arrived after their call had been abandoned.
    pub(crate) late_replies: u64,
    /// Replies lost to crashes or injected reply faults.
    pub(crate) replies_dropped: u64,
    /// Jobs refused or discarded because the target instance was down.
    pub(crate) rejected_arrivals: u64,
    /// Overload-policy counters (all zero unless overload control is on).
    pub(crate) overload: OverloadTotals,
    /// Requests submitted per class since the last reset.
    pub(crate) submitted_per_class: Vec<u64>,
    /// Requests that failed (any cause) per class since the last reset.
    pub(crate) failed_per_class: Vec<u64>,
    /// Completions bucketed over time, per class — the per-class goodput
    /// series the brownout experiments plot.
    pub(crate) completed_per_class_series: Vec<TimeSeries>,
    /// Jobs currently sitting in pending queues, machine-wide. A live gauge:
    /// it survives metric resets because the jobs are still queued.
    pub(crate) queued_jobs: u64,
    /// Peak queued jobs per 100ms bucket. Only fed when overload control is
    /// configured, so legacy runs carry an empty series.
    pub(crate) queue_depth_series: TimeSeries,
}

#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    /// Busy CPUs running this service (time-weighted).
    pub(crate) busy: TimeWeighted,
    pub(crate) counters: PerfCounters,
    pub(crate) jobs_completed: u64,
    /// Time jobs spent waiting for a worker thread, ns.
    pub(crate) queue_wait: LogHistogram,
    /// Calls into this service whose caller-side deadline fired.
    pub(crate) timeouts: u64,
    /// Retry attempts dispatched to this service.
    pub(crate) retries: u64,
    /// Exhausted-budget child calls answered with a degraded fallback.
    pub(crate) fallbacks: u64,
    /// Circuit-breaker trips on this service's instances.
    pub(crate) breaker_opened: u64,
    /// Breaker recoveries (half-open probe succeeded).
    pub(crate) breaker_closed: u64,
    /// Jobs an overload policy shed at this service's instances.
    pub(crate) policy_sheds: u64,
    /// Arrivals the concurrency limiter deferred to the queue.
    pub(crate) deferred: u64,
    /// Retries to this service suppressed by an empty retry budget.
    pub(crate) budget_denied: u64,
}

impl Metrics {
    pub(crate) fn new(app: &AppSpec, now: SimTime) -> Self {
        Metrics {
            window_start: now,
            completed: 0,
            latency: LogHistogram::new(),
            latency_per_class: vec![LogHistogram::new(); app.classes().len()],
            per_service: app
                .services()
                .iter()
                .map(|_| ServiceMetrics {
                    busy: TimeWeighted::new(now, 0.0),
                    counters: PerfCounters::new(),
                    jobs_completed: 0,
                    queue_wait: LogHistogram::new(),
                    timeouts: 0,
                    retries: 0,
                    fallbacks: 0,
                    breaker_opened: 0,
                    breaker_closed: 0,
                    policy_sheds: 0,
                    deferred: 0,
                    budget_denied: 0,
                })
                .collect(),
            busy_cpus: TimeWeighted::new(now, 0.0),
            completed_series: streaming_series(Agg::Sum),
            requests_timed_out: 0,
            requests_shed: 0,
            late_replies: 0,
            replies_dropped: 0,
            rejected_arrivals: 0,
            overload: OverloadTotals::default(),
            submitted_per_class: vec![0; app.classes().len()],
            failed_per_class: vec![0; app.classes().len()],
            completed_per_class_series: vec![streaming_series(Agg::Sum); app.classes().len()],
            queued_jobs: 0,
            queue_depth_series: streaming_series(Agg::Max),
        }
    }

    /// A job entered a pending queue (only called when overload control is
    /// configured, so legacy runs never touch the gauge or the series).
    pub(crate) fn queue_push(&mut self, now: SimTime) {
        self.queued_jobs += 1;
        self.queue_depth_series.record(now, self.queued_jobs as f64);
    }

    /// A job left a pending queue (started or was shed).
    pub(crate) fn queue_pop(&mut self, now: SimTime) {
        debug_assert!(self.queued_jobs > 0, "queue gauge underflow");
        self.queued_jobs -= 1;
        self.queue_depth_series.record(now, self.queued_jobs as f64);
    }

    pub(crate) fn reset(&mut self, now: SimTime) {
        self.window_start = now;
        self.completed = 0;
        self.latency.reset();
        for h in &mut self.latency_per_class {
            h.reset();
        }
        for s in &mut self.per_service {
            // Zero the level before restarting integration: the engine
            // re-establishes current occupancy right after the reset.
            s.busy.set(now, 0.0);
            s.busy.reset(now);
            s.counters = PerfCounters::new();
            s.jobs_completed = 0;
            s.queue_wait.reset();
            s.timeouts = 0;
            s.retries = 0;
            s.fallbacks = 0;
            s.breaker_opened = 0;
            s.breaker_closed = 0;
            s.policy_sheds = 0;
            s.deferred = 0;
            s.budget_denied = 0;
        }
        self.busy_cpus.set(now, 0.0);
        self.busy_cpus.reset(now);
        self.completed_series = streaming_series(Agg::Sum);
        self.requests_timed_out = 0;
        self.requests_shed = 0;
        self.late_replies = 0;
        self.replies_dropped = 0;
        self.rejected_arrivals = 0;
        self.overload = OverloadTotals::default();
        for c in &mut self.submitted_per_class {
            *c = 0;
        }
        for c in &mut self.failed_per_class {
            *c = 0;
        }
        for s in &mut self.completed_per_class_series {
            *s = streaming_series(Agg::Sum);
        }
        // `queued_jobs` is a level, not a counter: the jobs are still queued
        // across the reset, so carry the gauge and re-seed the fresh series
        // with the current depth (zero depth — including every run without
        // overload control configured — seeds nothing).
        self.queue_depth_series = streaming_series(Agg::Max);
        if self.queued_jobs > 0 {
            self.queue_depth_series.record(now, self.queued_jobs as f64);
        }
    }

    /// Heap bytes of the latency and queue-wait histograms' rows.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let histograms = std::iter::once(&self.latency)
            .chain(&self.latency_per_class)
            .chain(self.per_service.iter().map(|s| &s.queue_wait));
        histograms.map(LogHistogram::footprint_bytes).sum()
    }

    /// Folds another cell's measurement window into this one at `now`.
    ///
    /// Shard cells simulate disjoint copies of the machine over the same
    /// wall of simulated time, so counts, histograms and series add
    /// exactly. Time-weighted signals merge in parallel: averages add;
    /// the merged peak is the sum of per-cell peaks (an upper bound on
    /// the true coincident peak). Queue-depth buckets take the max across
    /// cells, i.e. the deepest single-cell queue per bucket. Deterministic:
    /// pure arithmetic over `Vec`s, no unordered iteration.
    pub(crate) fn merge(&mut self, other: &Metrics, now: SimTime) {
        assert_eq!(
            self.latency_per_class.len(),
            other.latency_per_class.len(),
            "merging metrics from different applications"
        );
        assert_eq!(self.per_service.len(), other.per_service.len());
        self.window_start = self.window_start.min(other.window_start);
        self.completed += other.completed;
        self.latency.merge(&other.latency);
        for (a, b) in self
            .latency_per_class
            .iter_mut()
            .zip(&other.latency_per_class)
        {
            a.merge(b);
        }
        for (a, b) in self.per_service.iter_mut().zip(&other.per_service) {
            a.busy.merge_parallel(&b.busy, now);
            a.counters.merge(&b.counters);
            a.jobs_completed += b.jobs_completed;
            a.queue_wait.merge(&b.queue_wait);
            a.timeouts += b.timeouts;
            a.retries += b.retries;
            a.fallbacks += b.fallbacks;
            a.breaker_opened += b.breaker_opened;
            a.breaker_closed += b.breaker_closed;
            a.policy_sheds += b.policy_sheds;
            a.deferred += b.deferred;
            a.budget_denied += b.budget_denied;
        }
        self.busy_cpus.merge_parallel(&other.busy_cpus, now);
        self.completed_series.merge(&other.completed_series);
        self.requests_timed_out += other.requests_timed_out;
        self.requests_shed += other.requests_shed;
        self.late_replies += other.late_replies;
        self.replies_dropped += other.replies_dropped;
        self.rejected_arrivals += other.rejected_arrivals;
        self.overload.shed_queue_full += other.overload.shed_queue_full;
        self.overload.shed_queue_deadline += other.overload.shed_queue_deadline;
        self.overload.shed_concurrency += other.overload.shed_concurrency;
        self.overload.shed_priority += other.overload.shed_priority;
        self.overload.deferred += other.overload.deferred;
        self.overload.budget_denied += other.overload.budget_denied;
        self.overload.requests_shed_policy += other.overload.requests_shed_policy;
        for (a, b) in self
            .submitted_per_class
            .iter_mut()
            .zip(&other.submitted_per_class)
        {
            *a += b;
        }
        for (a, b) in self
            .failed_per_class
            .iter_mut()
            .zip(&other.failed_per_class)
        {
            *a += b;
        }
        for (a, b) in self
            .completed_per_class_series
            .iter_mut()
            .zip(&other.completed_per_class_series)
        {
            a.merge(b);
        }
        self.queued_jobs += other.queued_jobs;
        self.queue_depth_series.merge(&other.queue_depth_series);
    }
}

simcore::snap_fields!(ServiceMetrics {
    busy,
    counters,
    jobs_completed,
    queue_wait,
    timeouts,
    retries,
    fallbacks,
    breaker_opened,
    breaker_closed,
    policy_sheds,
    deferred,
    budget_denied,
});
simcore::snap_fields!(OverloadTotals {
    shed_queue_full,
    shed_queue_deadline,
    shed_concurrency,
    shed_priority,
    deferred,
    budget_denied,
    requests_shed_policy,
});

impl Metrics {
    pub(crate) fn snap_save(&self, w: &mut simcore::SnapWriter) {
        use simcore::Snap;
        let Self {
            window_start,
            completed,
            latency,
            latency_per_class,
            per_service,
            busy_cpus,
            completed_series,
            requests_timed_out,
            requests_shed,
            late_replies,
            replies_dropped,
            rejected_arrivals,
            overload,
            submitted_per_class,
            failed_per_class,
            completed_per_class_series,
            queued_jobs,
            queue_depth_series,
        } = self;
        w.section("metrics");
        window_start.save(w);
        completed.save(w);
        latency.save(w);
        latency_per_class.save(w);
        per_service.save(w);
        busy_cpus.save(w);
        completed_series.save(w);
        requests_timed_out.save(w);
        requests_shed.save(w);
        late_replies.save(w);
        replies_dropped.save(w);
        rejected_arrivals.save(w);
        overload.save(w);
        submitted_per_class.save(w);
        failed_per_class.save(w);
        completed_per_class_series.save(w);
        queued_jobs.save(w);
        queue_depth_series.save(w);
    }

    /// Restores [`Metrics::snap_save`] into metrics built for the same app,
    /// rejecting a snapshot with another service count.
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut simcore::SnapReader<'_>,
    ) -> Result<(), simcore::SnapError> {
        use simcore::{Snap, SnapError};
        r.section("metrics")?;
        let window_start = Snap::load(r)?;
        let completed = Snap::load(r)?;
        let latency = Snap::load(r)?;
        let latency_per_class = Snap::load(r)?;
        let per_service: Vec<ServiceMetrics> = Snap::load(r)?;
        if per_service.len() != self.per_service.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {} services, app has {}",
                per_service.len(),
                self.per_service.len()
            )));
        }
        *self = Metrics {
            window_start,
            completed,
            latency,
            latency_per_class,
            per_service,
            busy_cpus: Snap::load(r)?,
            completed_series: Snap::load(r)?,
            requests_timed_out: Snap::load(r)?,
            requests_shed: Snap::load(r)?,
            late_replies: Snap::load(r)?,
            replies_dropped: Snap::load(r)?,
            rejected_arrivals: Snap::load(r)?,
            overload: Snap::load(r)?,
            submitted_per_class: Snap::load(r)?,
            failed_per_class: Snap::load(r)?,
            completed_per_class_series: Snap::load(r)?,
            queued_jobs: Snap::load(r)?,
            queue_depth_series: Snap::load(r)?,
        };
        Ok(())
    }
}

/// Per-service results in a [`RunReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Service name.
    pub name: String,
    /// Average busy logical CPUs over the window.
    pub avg_busy_cpus: f64,
    /// Peak busy logical CPUs.
    pub peak_busy_cpus: f64,
    /// Jobs (service invocations) completed.
    pub jobs_completed: u64,
    /// Mean wait for a worker thread.
    pub mean_queue_wait: SimDuration,
    /// p99 wait for a worker thread.
    pub p99_queue_wait: SimDuration,
    /// Synthesized counter-derived metrics.
    pub metrics: DerivedMetrics,
    /// Raw counters (for custom analysis).
    pub counters: PerfCounters,
    /// Calls into this service whose caller-side deadline fired.
    pub timeouts: u64,
    /// Retry attempts dispatched to this service.
    pub retries: u64,
    /// Exhausted-budget child calls answered with a degraded fallback.
    pub fallbacks: u64,
    /// Circuit-breaker trips on this service's instances.
    pub breaker_opened: u64,
    /// Breaker recoveries (half-open probe succeeded).
    pub breaker_closed: u64,
    /// Jobs an overload policy shed at this service's instances.
    pub policy_sheds: u64,
    /// Arrivals the concurrency limiter deferred to the queue.
    pub deferred: u64,
    /// Retries to this service suppressed by an empty retry budget.
    pub budget_denied: u64,
}

/// End-of-run measurement summary returned by the engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Length of the measurement window.
    pub window: SimDuration,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests per second of simulated time.
    pub throughput_rps: f64,
    /// Mean end-to-end latency.
    pub mean_latency: SimDuration,
    /// Latency percentiles: p50, p90, p95, p99.
    pub latency_p50: SimDuration,
    /// 90th percentile latency.
    pub latency_p90: SimDuration,
    /// 95th percentile latency.
    pub latency_p95: SimDuration,
    /// 99th percentile latency.
    pub latency_p99: SimDuration,
    /// Per-class mean latency and completion counts, in class order.
    pub per_class: Vec<(String, u64, SimDuration)>,
    /// Per-service results.
    pub services: Vec<ServiceReport>,
    /// Average busy logical CPUs machine-wide.
    pub avg_busy_cpus: f64,
    /// Machine-wide CPU utilization in `[0, 1]`.
    pub cpu_utilization: f64,
    /// Scheduler event counts over the window.
    pub sched: SchedStats,
    /// Machine-wide counter-derived metrics.
    pub machine_metrics: DerivedMetrics,
    /// Requests that failed with a client-visible timeout.
    pub requests_timed_out: u64,
    /// Requests refused at the entry (no instance accepting work).
    pub requests_shed: u64,
    /// Replies that arrived after their call had been abandoned.
    pub late_replies: u64,
    /// Replies lost to crashes or injected reply faults.
    pub replies_dropped: u64,
    /// Jobs refused or discarded because the target instance was down.
    pub rejected_arrivals: u64,
    /// Completed-request throughput over time: `(seconds since run start,
    /// requests per second)` per 100ms bucket. Used by the crash-dip plots.
    pub throughput_series: Vec<(f64, f64)>,
    /// Overload-policy counters (all zero unless overload control is on).
    pub overload: OverloadTotals,
    /// Requests submitted per class, in class order.
    pub per_class_submitted: Vec<u64>,
    /// Requests that failed (any cause) per class, in class order.
    pub per_class_failed: Vec<u64>,
    /// Per-class goodput over time: `(class name, [(seconds, req/s)])` per
    /// 100ms bucket. Drives the brownout per-class goodput plots.
    pub per_class_series: Vec<(String, Vec<(f64, f64)>)>,
    /// Peak pending-queue depth machine-wide per 100ms bucket. Empty unless
    /// overload control is configured.
    pub queue_depth_series: Vec<(f64, f64)>,
    /// Calendar events handled since engine construction (never reset —
    /// the denominator for events/s self-benchmarks). Filled by
    /// [`Engine::report`](crate::Engine::report); 0 in reports built
    /// without an engine.
    pub events_processed: u64,
    /// Peak simultaneous pending calendar events over the whole run.
    pub calendar_high_water: u64,
    /// Heap bytes held by the engine's core structures (calendar wheel,
    /// job/request slabs, tracer) at report time — capacity, not length,
    /// so it reflects the true high-water allocation.
    pub engine_footprint_bytes: u64,
    /// Heap bytes held by the measurement histograms (overall, per-class
    /// latency and per-service queue wait) at report time, capacity not
    /// length. Summed over cells, not taken from the merged copy.
    pub metrics_footprint_bytes: u64,
    /// Request traces retained by the tracer at report time.
    pub traces_retained: u64,
}

impl RunReport {
    pub(crate) fn build(
        metrics: &Metrics,
        app: &AppSpec,
        topo: &Topology,
        sched: SchedStats,
        now: SimTime,
    ) -> Self {
        let window = now.saturating_since(metrics.window_start);
        let secs = window.as_secs_f64();
        let mut machine_counters = PerfCounters::new();
        let services: Vec<ServiceReport> = metrics
            .per_service
            .iter()
            .zip(app.services())
            .map(|(m, spec)| {
                machine_counters.merge(&m.counters);
                ServiceReport {
                    name: spec.name.clone(),
                    avg_busy_cpus: m.busy.average(now),
                    peak_busy_cpus: m.busy.peak(),
                    jobs_completed: m.jobs_completed,
                    mean_queue_wait: m.queue_wait.mean_duration(),
                    p99_queue_wait: m.queue_wait.quantile_duration(0.99),
                    metrics: m.counters.derive(),
                    counters: m.counters,
                    timeouts: m.timeouts,
                    retries: m.retries,
                    fallbacks: m.fallbacks,
                    breaker_opened: m.breaker_opened,
                    breaker_closed: m.breaker_closed,
                    policy_sheds: m.policy_sheds,
                    deferred: m.deferred,
                    budget_denied: m.budget_denied,
                }
            })
            .collect();
        let avg_busy = metrics.busy_cpus.average(now);
        RunReport {
            window,
            completed: metrics.completed,
            throughput_rps: if secs > 0.0 {
                metrics.completed as f64 / secs
            } else {
                0.0
            },
            mean_latency: metrics.latency.mean_duration(),
            latency_p50: metrics.latency.quantile_duration(0.50),
            latency_p90: metrics.latency.quantile_duration(0.90),
            latency_p95: metrics.latency.quantile_duration(0.95),
            latency_p99: metrics.latency.quantile_duration(0.99),
            per_class: metrics
                .latency_per_class
                .iter()
                .zip(app.classes())
                .map(|(h, c)| (c.name.clone(), h.count(), h.mean_duration()))
                .collect(),
            services,
            avg_busy_cpus: avg_busy,
            cpu_utilization: avg_busy / topo.num_cpus() as f64,
            sched,
            machine_metrics: machine_counters.derive(),
            requests_timed_out: metrics.requests_timed_out,
            requests_shed: metrics.requests_shed,
            late_replies: metrics.late_replies,
            replies_dropped: metrics.replies_dropped,
            rejected_arrivals: metrics.rejected_arrivals,
            throughput_series: {
                let bucket_secs = metrics.completed_series.window().as_secs_f64();
                metrics
                    .completed_series
                    .points()
                    .into_iter()
                    .map(|(t, count)| (t.as_secs_f64(), count / bucket_secs))
                    .collect()
            },
            overload: metrics.overload,
            per_class_submitted: metrics.submitted_per_class.clone(),
            per_class_failed: metrics.failed_per_class.clone(),
            per_class_series: metrics
                .completed_per_class_series
                .iter()
                .zip(app.classes())
                .map(|(series, class)| {
                    let bucket_secs = series.window().as_secs_f64();
                    (
                        class.name.clone(),
                        series
                            .points()
                            .into_iter()
                            .map(|(t, count)| (t.as_secs_f64(), count / bucket_secs))
                            .collect(),
                    )
                })
                .collect(),
            queue_depth_series: metrics
                .queue_depth_series
                .points()
                .into_iter()
                .map(|(t, depth)| (t.as_secs_f64(), depth))
                .collect(),
            events_processed: 0,
            calendar_high_water: 0,
            engine_footprint_bytes: 0,
            metrics_footprint_bytes: 0,
            traces_retained: 0,
        }
    }

    /// A compact multi-line textual summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "window {:.2}s | {} req | {:.0} req/s | lat mean {} p50 {} p95 {} p99 {} | {:.1} busy CPUs ({:.0}% util)\n",
            self.window.as_secs_f64(),
            self.completed,
            self.throughput_rps,
            self.mean_latency,
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            self.avg_busy_cpus,
            self.cpu_utilization * 100.0,
        );
        // Only mention resilience when something actually happened, so
        // fault-free summaries stay byte-identical to the legacy format.
        if self.requests_timed_out + self.requests_shed > 0
            || self.late_replies + self.replies_dropped + self.rejected_arrivals > 0
            || self.services.iter().any(|s| s.timeouts + s.retries > 0)
        {
            out.push_str(&format!(
                "  faults: {} timed out, {} shed, {} late replies, {} dropped replies, {} rejected arrivals\n",
                self.requests_timed_out,
                self.requests_shed,
                self.late_replies,
                self.replies_dropped,
                self.rejected_arrivals,
            ));
        }
        // Same deal for overload control: silent unless a policy acted.
        if self.overload.any() {
            let o = &self.overload;
            out.push_str(&format!(
                "  overload: {} shed (queue-full {}, deadline {}, concurrency {}, priority {}) | {} deferred | {} retries budget-denied\n",
                o.total_sheds(),
                o.shed_queue_full,
                o.shed_queue_deadline,
                o.shed_concurrency,
                o.shed_priority,
                o.deferred,
                o.budget_denied,
            ));
        }
        for s in &self.services {
            out.push_str(&format!(
                "  {:<14} busy {:>6.2} cpus | {:>8} jobs | IPC {:.2} | qwait {} (p99 {})\n",
                s.name,
                s.avg_busy_cpus,
                s.jobs_completed,
                s.metrics.ipc,
                s.mean_queue_wait,
                s.p99_queue_wait,
            ));
            if s.timeouts + s.retries + s.fallbacks + s.breaker_opened > 0 {
                out.push_str(&format!(
                    "  {:<14} {} timeouts | {} retries | {} fallbacks | breaker {}×open {}×close\n",
                    "", s.timeouts, s.retries, s.fallbacks, s.breaker_opened, s.breaker_closed,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallNode, Demand, ServiceSpec};
    use uarch::ServiceProfile;

    fn app() -> AppSpec {
        let mut app = AppSpec::new();
        let a = app.add_service(ServiceSpec::new("a", ServiceProfile::light_rpc("a")));
        app.add_service(ServiceSpec::new("b", ServiceProfile::data_tier("b")));
        app.add_class("c", 1.0, CallNode::leaf(a, Demand::fixed_us(10.0)));
        app
    }

    #[test]
    fn fresh_metrics_build_an_empty_report() {
        let app = app();
        let topo = Topology::desktop_8c();
        let metrics = Metrics::new(&app, SimTime::ZERO);
        let report = RunReport::build(
            &metrics,
            &app,
            &topo,
            SchedStats::default(),
            SimTime::from_secs(1),
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.throughput_rps, 0.0);
        assert_eq!(report.services.len(), 2);
        assert_eq!(report.per_class.len(), 1);
        assert_eq!(report.cpu_utilization, 0.0);
        assert_eq!(report.mean_latency, SimDuration::ZERO);
    }

    #[test]
    fn report_computes_throughput_and_quantiles() {
        let app = app();
        let topo = Topology::desktop_8c();
        let mut metrics = Metrics::new(&app, SimTime::ZERO);
        for i in 1..=100u64 {
            metrics.completed += 1;
            metrics
                .latency
                .record_duration(SimDuration::from_micros(i * 10));
            metrics.latency_per_class[0].record_duration(SimDuration::from_micros(i * 10));
        }
        metrics.busy_cpus.add(SimTime::ZERO, 8.0);
        let now = SimTime::from_secs(2);
        let report = RunReport::build(&metrics, &app, &topo, SchedStats::default(), now);
        assert!((report.throughput_rps - 50.0).abs() < 1e-9);
        assert!(report.latency_p50 <= report.latency_p99);
        assert!((report.avg_busy_cpus - 8.0).abs() < 1e-9);
        assert!((report.cpu_utilization - 0.5).abs() < 1e-9);
        assert_eq!(report.per_class[0].1, 100);
        let summary = report.summary();
        assert!(summary.contains("req/s"));
        assert!(summary.contains("100 req"));
    }

    #[test]
    fn reset_zeroes_everything_including_busy_levels() {
        let app = app();
        let mut metrics = Metrics::new(&app, SimTime::ZERO);
        metrics.completed = 5;
        metrics.latency.record(100);
        metrics.busy_cpus.add(SimTime::ZERO, 4.0);
        metrics.per_service[0].busy.add(SimTime::ZERO, 2.0);
        metrics.per_service[0].jobs_completed = 9;
        let at = SimTime::from_secs(1);
        metrics.reset(at);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.latency.count(), 0);
        assert_eq!(metrics.per_service[0].jobs_completed, 0);
        // Levels were zeroed, so the post-reset average is 0 until the
        // engine re-establishes occupancy.
        assert_eq!(metrics.busy_cpus.average(SimTime::from_secs(2)), 0.0);
        assert_eq!(
            metrics.per_service[0].busy.average(SimTime::from_secs(2)),
            0.0
        );
    }
}
