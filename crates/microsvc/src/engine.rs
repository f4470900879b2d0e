//! The discrete-event engine: executes an application on a simulated machine.
//!
//! # Execution model
//!
//! Worker threads are synchronous (thread-per-request): a worker runs a job's
//! CPU phases and *blocks* while downstream calls are in flight. CPU work is
//! tracked in *reference cycles*; the retirement rate of the task running on
//! a CPU is `nominal_frequency × speed_factor`, where the speed factor comes
//! from the µarch model and depends on SMT sibling activity, CCX cache
//! pressure and NUMA locality. Whenever the occupancy of any CPU in an L3
//! domain changes, every running task in that domain is *re-rated*: its
//! progress is flushed, a new rate computed, and its completion event
//! rescheduled.
//!
//! # RPC model
//!
//! A call from a worker on CPU `c` to an instance whose representative CPU is
//! `r` pays `rpc_cost(proximity(c, r))`: wire latency before the job arrives,
//! send cycles at the caller (executed before blocking), receive cycles at
//! the callee (prepended to the callee job's work). Replies pay the wire
//! latency again. Client traffic additionally pays a fixed client network
//! latency each way.
//!
//! An instance's *representative CPU* is the CPU one of its workers last ran
//! on — exact for pinned instances, a moving estimate for unpinned ones.

use crate::app::{AppSpec, DemandSampler};
use crate::deploy::Deployment;
use crate::driver::{Driver, EngineCtx, Outcome, ResponseInfo};
use crate::fault::{FaultCause, FaultPlan};
use crate::ids::{ClientId, InstanceId, RequestClassId, RequestId, ServiceId};
use crate::lb::{Balancer, Candidate, LbPolicy};
use crate::metrics::{Metrics, RunReport};
use crate::overload::{
    AdmissionPolicy, AimdLimiter, LimitAction, OverloadParams, PriorityPolicy, RetryBudget,
    ShedReason,
};
use crate::resilience::{backoff_delay, CircuitBreaker, ResilienceParams, Transition};
use crate::trace::{RequestTrace, Tracer};
use cputopo::{CpuId, NumaId, Proximity, Topology};
use oskernel::{Placement, SchedParams, SchedStats, Scheduler, Switch, TaskId, WakeOutcome};
use simcore::{Calendar, EventToken, Rng, RngFactory, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use uarch::{ExecContext, UarchParams};

/// Engine-level tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineParams {
    /// Microarchitectural model constants.
    pub uarch: UarchParams,
    /// Scheduler tunables.
    pub sched: SchedParams,
    /// Load-balancing policy applied to every service.
    pub lb: LbPolicy,
    /// One-way network latency between clients and the entry service. The
    /// paper drives TeaStore from a separate load-generator machine.
    pub client_net_latency: SimDuration,
    /// Sample every n-th request into a [`RequestTrace`]
    /// (`None` = tracing off). See [`crate::trace`].
    pub trace_sample_every: Option<u64>,
    /// Keep a uniform reservoir sample of this many [`RequestTrace`]s over
    /// the whole run (Algorithm R) instead of every-nth sampling. Trace
    /// memory is O(capacity), not O(requests) — the mode for million-user
    /// populations. Takes precedence over `trace_sample_every`; uses a
    /// dedicated `"trace"` RNG stream, so enabling it never perturbs
    /// simulation randomness.
    pub trace_reservoir: Option<usize>,
    /// Client-side resilience (timeouts, retries, circuit breaking).
    /// `None` (the default) reproduces the legacy engine exactly: calls
    /// wait forever and no instance is ever ejected.
    pub resilience: Option<ResilienceParams>,
    /// Deterministic fault schedule. [`FaultPlan::none`] (the default)
    /// injects nothing and leaves runs bit-identical to a fault-free
    /// engine.
    pub faults: FaultPlan,
    /// Overload control (admission bounds, retry budgets, concurrency
    /// limits, priority shedding). `None` — and `Some` of the inert
    /// [`OverloadParams::default`] — leave runs bit-identical to the legacy
    /// engine: no extra events, no extra randomness.
    pub overload: Option<OverloadParams>,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            uarch: UarchParams::default(),
            sched: SchedParams::default(),
            lb: LbPolicy::RoundRobin,
            client_net_latency: SimDuration::from_micros(120),
            trace_sample_every: None,
            trace_reservoir: None,
            resilience: None,
            faults: FaultPlan::none(),
            overload: None,
        }
    }
}

// ---------------------------------------------------------------- internals

#[derive(Debug, Clone)]
struct FlatNode {
    service: usize,
    pre: DemandSampler,
    post: DemandSampler,
    /// Depth in the call tree (root = 0), recorded on trace spans.
    depth: u8,
    /// Stages of child node indices (into the class's `nodes`).
    stages: Vec<Vec<usize>>,
}

#[derive(Debug, Clone)]
struct FlatClass {
    nodes: Vec<FlatNode>,
}

fn flatten_class(root: &crate::app::CallNode) -> FlatClass {
    let mut nodes = Vec::with_capacity(root.node_count());
    fn visit(node: &crate::app::CallNode, depth: u8, nodes: &mut Vec<FlatNode>) -> usize {
        let idx = nodes.len();
        nodes.push(FlatNode {
            service: node.service.index(),
            pre: node.pre.sampler(),
            post: node.post.sampler(),
            depth,
            stages: Vec::new(),
        });
        let mut stages = Vec::with_capacity(node.stages.len());
        for stage in &node.stages {
            assert!(
                !stage.parallel.is_empty(),
                "call stages must contain at least one call"
            );
            let children: Vec<usize> = stage
                .parallel
                .iter()
                .map(|c| visit(c, depth.saturating_add(1), nodes))
                .collect();
            stages.push(children);
        }
        nodes[idx].stages = stages;
        idx
    }
    visit(root, 0, &mut nodes);
    FlatClass { nodes }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Running the node's `pre` demand plus RPC receive work.
    Pre,
    /// Running the send work of stage `s`.
    StageSend(u8),
    /// Blocked awaiting the replies of stage `s`.
    WaitStage(u8),
    /// Running the node's `post` demand.
    Post,
    /// Finished.
    Done,
}

/// `Job::flags` bit: the caller's deadline fired; any produced reply is
/// discarded.
const JOB_ABANDONED: u8 = 1 << 0;

/// Jobs live in a slab (`Engine::jobs`) with a free list: a slot is recycled
/// once the job is `Done` and no scheduled event still names it (`refs`).
///
/// The record is deliberately compact — slab slot indices and spec indices
/// are `u32`, stage/attempt counters are bytes, and the booleans are bit
/// flags — because at mega-scale populations hundreds of thousands of jobs
/// can be queued at once and the slab never shrinks: resident memory is
/// `peak jobs × size_of::<Job>()`.
#[derive(Debug, Clone)]
struct Job {
    /// Owning request *slot* (index into `Engine::requests`).
    request: u32,
    class: u32,
    node: u32,
    instance: u32,
    /// Parent job slot; `None` for root jobs.
    parent: Option<u32>,
    phase: Phase,
    /// Child replies still outstanding in the current wait stage.
    pending: u16,
    /// Delivery attempt of the call this job serves (0 = first try).
    attempt: u8,
    /// Bit flags ([`JOB_ABANDONED`]).
    flags: u8,
    /// Scheduled events (arrive / reply / timeout) that still name this job.
    /// The slot is recycled only when this hits zero after `Done`.
    refs: u8,
    remaining_cycles: f64,
    enqueued_at: SimTime,
    /// Trace span index when the owning request is sampled.
    span: Option<u32>,
    /// Pending caller-side timeout, cancelled when the reply arrives.
    timeout_token: Option<EventToken>,
    /// The worker currently holding this job, for O(1) reply delivery.
    worker: Option<u32>,
}

impl Job {
    #[inline]
    fn abandoned(&self) -> bool {
        self.flags & JOB_ABANDONED != 0
    }
    #[inline]
    fn set_abandoned(&mut self) {
        self.flags |= JOB_ABANDONED;
    }
}

/// `RequestInfo::flags` bit: the client has received a response or an error;
/// late replies for the request are discarded.
const REQ_RESOLVED: u8 = 1 << 0;

/// Request slots live in a slab (`Engine::requests`) with a free list; a
/// slot is recycled when the request is resolved and no job or scheduled
/// event references it. The externally visible [`RequestId`] is the
/// monotonic `id`, not the slot index, so recycling is invisible to
/// drivers and traces. Compact for the same reason as [`Job`].
#[derive(Debug, Clone)]
struct RequestInfo {
    /// External request identity (monotonic submission ordinal).
    id: u64,
    client: u64,
    submitted_at: SimTime,
    class: u32,
    /// Live jobs plus scheduled `ClientFail` events naming this slot.
    refs: u32,
    /// Bit flags ([`REQ_RESOLVED`]).
    flags: u8,
}

impl RequestInfo {
    #[inline]
    fn resolved(&self) -> bool {
        self.flags & REQ_RESOLVED != 0
    }
    #[inline]
    fn set_resolved(&mut self) {
        self.flags |= REQ_RESOLVED;
    }
}

#[derive(Debug)]
struct Instance {
    service: usize,
    /// The service's working set in bytes, as `f64` for the L3-pressure sum.
    working_set: f64,
    mem_node: NumaId,
    rep_cpu: CpuId,
    idle_workers: Vec<usize>,
    pending: VecDeque<u64>,
    outstanding: usize,
    /// `false` while crashed: arrivals are refused, replies are lost.
    up: bool,
    /// CPU-demand multiplier from an active slow-replica fault window.
    demand_factor: f64,
}

#[derive(Debug)]
struct Worker {
    task: TaskId,
    instance: usize,
    job: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct CpuExec {
    worker: usize,
    /// Effective retirement rate, reference cycles per nanosecond.
    rate: f64,
    /// Wall clock rate (boosted frequency), cycles per nanosecond.
    wall_rate: f64,
    /// The context the rate was computed from (reused for counter synthesis).
    ctx: ExecContext,
    since: SimTime,
    gen: u64,
    done_token: EventToken,
    /// The quantum tick of this generation, or [`EventToken::NONE`] when
    /// the slice ends no later than the quantum (`WorkDone` would cancel the
    /// tick before it fires; see [`Engine::arm_quantum`]). Cancelled with
    /// `done_token` on teardown and re-rate.
    quantum_token: EventToken,
}

/// `Engine::cpu_instance` entry of a CPU that executes nothing.
const IDLE_CPU: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Timer(u64),
    WorkDone { cpu: u32, gen: u64 },
    Quantum { cpu: u32, gen: u64 },
    JobArrive { job: u64 },
    /// A child job's reply reached its parent (carries the child so late
    /// replies of abandoned calls can be recognized and discarded).
    ReplyArrive { child: u64 },
    /// A root job's reply reached the client.
    ClientReply { job: u64 },
    /// The caller-side deadline of a call elapsed.
    CallTimeout { job: u64 },
    /// The client is informed that its request failed.
    ClientFail { request: u64, cause: FaultCause },
    /// An overload policy refused the call; the rejection reaches the caller
    /// after one return-wire latency (a fast 503, not a timeout).
    CallRejected { job: u64, reason: ShedReason },
    /// Scheduled fault: an instance goes down.
    CrashStart { instance: u32 },
    /// Scheduled fault: a crashed instance accepts work again.
    CrashEnd { instance: u32 },
    /// Scheduled fault: a slow-replica window opens (`slowdown` indexes
    /// `EngineParams::faults.slowdowns`; the factor itself is `f64` and
    /// cannot live in an `Eq` event payload).
    SlowStart { instance: u32, slowdown: u32 },
    /// Scheduled fault: a slow-replica window closes.
    SlowEnd { instance: u32 },
}

/// Runtime state for the overload-control policies in [`crate::overload`].
/// Present only when [`EngineParams::overload`] is set.
#[derive(Debug)]
struct OverloadState {
    admission: AdmissionPolicy,
    queue_deadline: Option<SimDuration>,
    /// Per-instance AIMD limiters; empty when the limiter is disabled.
    limiters: Vec<AimdLimiter>,
    limit_action: LimitAction,
    /// Per-service retry budgets; empty when budgets are disabled.
    budgets: Vec<RetryBudget>,
    priority: Option<PriorityPolicy>,
    /// Worker-thread count per instance (to derive running = threads − idle).
    threads: Vec<u32>,
}

/// What the overload policies decided about an arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Start it on an idle worker (the legacy fast path).
    Start,
    /// Park it in the pending queue; `deferred` marks a limiter deferral.
    Queue { deferred: bool },
    /// Queue it, but first shed the oldest queued job to make room.
    DropOldest,
    /// Refuse it.
    Shed(ShedReason),
}

/// The simulation engine. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct Engine {
    topo: Arc<Topology>, // simlint: allow(S1) — config, shared and immutable
    params: EngineParams, // simlint: allow(S1) — config, fixed at construction
    app: AppSpec, // simlint: allow(S1) — config, fixed at construction
    classes: Vec<FlatClass>, // simlint: allow(S1) — derived from app at construction
    cal: Calendar<Event>,
    sched: Scheduler,
    instances: Vec<Instance>,
    per_service_instances: Vec<Vec<usize>>, // simlint: allow(S1) — derived from topo at construction
    balancers: Vec<Balancer>,
    workers: Vec<Worker>,
    jobs: Vec<Job>,
    free_jobs: Vec<u32>,
    requests: Vec<RequestInfo>,
    free_requests: Vec<u32>,
    /// Total requests ever submitted (the external id space); drives the
    /// ingress rotation and trace sampling cadence exactly like the
    /// pre-slab `requests.len()` did.
    submitted_total: u64,
    exec: Vec<Option<CpuExec>>,
    /// Per CPU, the instance whose worker `exec` runs there, or
    /// [`IDLE_CPU`]: the dense occupancy the contention scans read.
    cpu_instance: Vec<u32>, // simlint: allow(S1) — derived from `exec`, rebuilt in snap_restore
    next_gen: u64,
    metrics: Metrics,
    sched_stats_baseline: SchedStats,
    demand_rng: Rng,
    driver_rng: Rng,
    /// Random stream for injected-fault decisions (reply drops). Never
    /// drawn from unless a fault window is active.
    fault_rng: Rng,
    /// Random stream for resilience decisions (backoff jitter). Never
    /// drawn from unless a retry is dispatched.
    resil_rng: Rng,
    /// One circuit breaker per instance; empty when breaking is disabled
    /// (every breaker helper is then a no-op).
    breakers: Vec<CircuitBreaker>,
    /// Per-service call timeout; empty when resilience is disabled.
    timeouts: Vec<SimDuration>, // simlint: allow(S1) — config, fixed at construction
    /// Faults, resilience, or overload control are configured: load
    /// balancing must consult instance availability. `false` keeps the
    /// legacy fast paths.
    fault_aware: bool, // simlint: allow(S1) — derived from config at construction
    /// Overload-control state; `None` when the feature is off.
    overload: Option<OverloadState>,
    cycles_per_us: f64, // simlint: allow(S1) — config, fixed at construction
    stop_requested: bool,
    tracer: Tracer,
    /// Quantized machine-occupancy bucket driving the boost multiplier.
    boost_bucket: u32,
    /// Memoized µarch speed factors per (service, contention-context) key.
    speed_memo: uarch::SpeedMemo, // simlint: allow(S1) — memo, rebuilt on demand
    /// Reusable buffer for load-balancer candidate lists.
    cand_scratch: Vec<Candidate>, // simlint: allow(S1) — scratch, always drained
    /// Events handled by [`run`](Self::run) so far (self-benchmark metric).
    events_processed: u64,
}

impl Engine {
    /// Builds an engine for `app` deployed as `deployment` on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the deployment is invalid for the application/machine (see
    /// [`Deployment::validate`]) or a call stage is empty.
    pub fn new(
        topo: Arc<Topology>,
        params: EngineParams,
        app: AppSpec,
        deployment: Deployment,
        seed: u64,
    ) -> Self {
        deployment.validate(&app, &topo);
        let classes: Vec<FlatClass> = app
            .classes()
            .iter()
            .map(|c| flatten_class(&c.root))
            .collect();
        let mut sched = Scheduler::new(topo.clone(), params.sched.clone());
        let mut instances = Vec::new();
        let mut per_service_instances = vec![Vec::new(); app.services().len()];
        let mut workers = Vec::new();
        for (service, config) in deployment.iter() {
            let inst_idx = instances.len();
            per_service_instances[service.index()].push(inst_idx);
            let mut worker_ids = Vec::with_capacity(config.threads);
            for _ in 0..config.threads {
                let task = sched.spawn(config.affinity.clone());
                let worker_idx = workers.len();
                assert_eq!(
                    task.index(),
                    worker_idx,
                    "tasks and workers are parallel arrays"
                );
                workers.push(Worker {
                    task,
                    instance: inst_idx,
                    job: None,
                });
                worker_ids.push(worker_idx);
            }
            instances.push(Instance {
                service: service.index(),
                working_set: app.services()[service.index()].profile.working_set_bytes as f64,
                mem_node: config.effective_mem_node(&topo),
                rep_cpu: config.affinity.first().expect("validated non-empty"),
                idle_workers: worker_ids,
                pending: VecDeque::new(),
                outstanding: 0,
                up: true,
                demand_factor: 1.0,
            });
        }
        params.faults.validate(instances.len());
        // Pre-schedule the deterministic fault timeline (crashes first, then
        // slowdowns, in plan order) so fault events need no further state.
        let mut cal = Calendar::new();
        for c in &params.faults.crashes {
            let instance = c.instance.0;
            cal.schedule(c.at, Event::CrashStart { instance });
            cal.schedule(c.at + c.restart_after, Event::CrashEnd { instance });
        }
        for (idx, s) in params.faults.slowdowns.iter().enumerate() {
            let instance = s.instance.0;
            cal.schedule(
                s.from,
                Event::SlowStart {
                    instance,
                    slowdown: idx as u32,
                },
            );
            cal.schedule(s.until, Event::SlowEnd { instance });
        }
        let breakers = match params.resilience.as_ref().and_then(|r| r.breaker) {
            Some(policy) => vec![CircuitBreaker::new(policy); instances.len()],
            None => Vec::new(),
        };
        let timeouts: Vec<SimDuration> = match params.resilience.as_ref() {
            Some(res) => (0..app.services().len())
                .map(|s| res.timeout_for(ServiceId(s as u32)))
                .collect(),
            None => Vec::new(),
        };
        let fault_aware =
            params.resilience.is_some() || !params.faults.is_empty() || params.overload.is_some();
        let overload = params.overload.as_ref().map(|ov| OverloadState {
            admission: ov.admission,
            queue_deadline: ov.queue_deadline,
            limiters: match &ov.limiter {
                Some(policy) => vec![AimdLimiter::new(*policy); instances.len()],
                None => Vec::new(),
            },
            limit_action: ov.limiter.map(|l| l.action).unwrap_or_default(),
            budgets: match &ov.retry_budget {
                Some(policy) => vec![RetryBudget::new(*policy); app.services().len()],
                None => Vec::new(),
            },
            priority: ov.priority.clone(),
            threads: {
                let mut threads = vec![0u32; instances.len()];
                for w in &workers {
                    threads[w.instance] += 1;
                }
                threads
            },
        });
        let factory = RngFactory::new(seed);
        let metrics = Metrics::new(&app, SimTime::ZERO);
        let balancers = (0..app.services().len())
            .map(|_| Balancer::new(params.lb))
            .collect();
        let cycles_per_us = topo.freq_hz() / 1e6 / 1e3 * 1e3; // GHz × 1000 cycles/µs
        let ncpus = topo.num_cpus();
        let tracer = match params.trace_reservoir {
            Some(capacity) => Tracer::reservoir(capacity, factory.stream("trace")),
            None => Tracer::new(params.trace_sample_every),
        };
        Engine {
            topo,
            params,
            app,
            classes,
            cal,
            sched,
            instances,
            per_service_instances,
            balancers,
            workers,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            requests: Vec::new(),
            free_requests: Vec::new(),
            submitted_total: 0,
            exec: vec![None; ncpus],
            cpu_instance: vec![IDLE_CPU; ncpus],
            next_gen: 0,
            metrics,
            sched_stats_baseline: SchedStats::default(),
            demand_rng: factory.stream("demand"),
            driver_rng: factory.stream("driver"),
            fault_rng: factory.stream("fault"),
            resil_rng: factory.stream("resilience"),
            breakers,
            timeouts,
            fault_aware,
            overload,
            cycles_per_us,
            stop_requested: false,
            tracer,
            boost_bucket: 0,
            speed_memo: uarch::SpeedMemo::new(),
            cand_scratch: Vec::new(),
            events_processed: 0,
        }
    }

    /// The machine this engine simulates.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The application being executed.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// Sampled request traces collected so far (see
    /// [`EngineParams::trace_sample_every`]).
    pub fn traces(&self) -> &[RequestTrace] {
        self.tracer.traces()
    }

    /// Number of calendar events handled so far. The canonical denominator
    /// for simulator-throughput (events/sec) self-benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs the simulation until `until` (simulated), the event calendar
    /// drains, or the driver requests a stop.
    ///
    /// `driver.start` is invoked at the beginning of every `run` call, so an
    /// engine should be driven by one `run` per driver.
    pub fn run(&mut self, driver: &mut dyn Driver, until: SimTime) {
        driver.start(self);
        self.run_resumed(driver, until);
    }

    /// Continues a run *without* invoking `driver.start`: the event loop
    /// alone. This is the entry point after [`Engine::snap_restore`], where
    /// the driver's timers are already armed inside the restored calendar —
    /// re-arming them would double every warmup/stop event.
    pub fn run_resumed(&mut self, driver: &mut dyn Driver, until: SimTime) {
        while !self.stop_requested {
            match self.cal.peek_time() {
                Some(t) if t <= until => {}
                _ => break,
            }
            let (_, event) = self.cal.pop().expect("peeked event exists");
            self.events_processed += 1;
            self.handle(event, driver);
        }
    }

    /// Builds the measurement report for the window since the last
    /// [`EngineCtx::reset_metrics`] (or the start of the run).
    pub fn report(&self) -> RunReport {
        let mut sched = self.sched.stats();
        let base = self.sched_stats_baseline;
        sched.wakeups -= base.wakeups;
        sched.context_switches -= base.context_switches;
        sched.migrations -= base.migrations;
        sched.steals -= base.steals;
        let mut report = RunReport::build(&self.metrics, &self.app, &self.topo, sched, self.now());
        report.events_processed = self.events_processed;
        report.calendar_high_water = self.cal.high_water() as u64;
        report.engine_footprint_bytes = self.footprint_bytes() as u64;
        report.traces_retained = self.tracer.traces().len() as u64;
        report
    }

    /// Earliest pending calendar event, if any — the sharded runner's idle
    /// probe at a window barrier.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.cal.peek_time()
    }

    /// Whether the driver has requested a stop ([`EngineCtx::request_stop`]).
    /// Sharded runners use this to retire a finished cell from the barrier
    /// loop while its peers keep advancing.
    pub fn is_stopped(&self) -> bool {
        self.stop_requested
    }

    /// Schedules a driver timer at an *absolute* simulated time, for use by
    /// sharded runners injecting cross-shard messages at a window barrier.
    /// The token is delivered through [`Driver::on_timer`] exactly like a
    /// timer armed via [`EngineCtx::set_timer`].
    ///
    /// Panics if `at` is in this engine's past: conservative lookahead
    /// guarantees message arrivals land at or after the receiver's clock,
    /// so a violation here is a windowing bug, not recoverable load.
    pub fn inject_timer_at(&mut self, at: SimTime, token: u64) {
        assert!(
            at >= self.now(),
            "inject_timer_at would violate causality: at={at:?} < now={:?}",
            self.now()
        );
        self.cal.schedule(at, Event::Timer(token));
    }

    /// Builds one machine-wide report across shard cells. Counts, histograms
    /// and series merge exactly; time-weighted signals merge in parallel
    /// (averages add across cells; merged peaks are the sum of per-cell
    /// peaks, an upper bound on the true coincident peak). Each cell
    /// simulates one copy of the machine, so `cpu_utilization` is normalized
    /// by the cell count.
    pub fn merged_report(cells: &[&Engine]) -> RunReport {
        assert!(!cells.is_empty(), "merged_report needs at least one cell");
        let now = cells.iter().map(|e| e.now()).max().expect("non-empty");
        let mut metrics = cells[0].metrics.clone();
        for cell in &cells[1..] {
            metrics.merge(&cell.metrics, now);
        }
        let mut sched = SchedStats::default();
        for cell in cells {
            let s = cell.sched.stats();
            let base = cell.sched_stats_baseline;
            sched.wakeups += s.wakeups - base.wakeups;
            sched.context_switches += s.context_switches - base.context_switches;
            sched.migrations += s.migrations - base.migrations;
            sched.steals += s.steals - base.steals;
        }
        let mut report = RunReport::build(&metrics, &cells[0].app, &cells[0].topo, sched, now);
        report.cpu_utilization /= cells.len() as f64;
        report.events_processed = cells.iter().map(|e| e.events_processed).sum();
        report.calendar_high_water = cells.iter().map(|e| e.cal.high_water() as u64).sum();
        report.engine_footprint_bytes = cells.iter().map(|e| e.footprint_bytes() as u64).sum();
        report.traces_retained = cells.iter().map(|e| e.tracer.traces().len() as u64).sum();
        report
    }

    /// Heap bytes held by the engine's hot-path structures: calendar wheel
    /// and overflow, job/request slabs with their free lists, and the
    /// tracer. Capacities, not lengths, so this tracks true allocation.
    pub fn footprint_bytes(&self) -> usize {
        self.cal.footprint_bytes()
            + self.jobs.capacity() * std::mem::size_of::<Job>()
            + self.free_jobs.capacity() * std::mem::size_of::<u32>()
            + self.requests.capacity() * std::mem::size_of::<RequestInfo>()
            + self.free_requests.capacity() * std::mem::size_of::<u32>()
            + self.tracer.footprint_bytes()
    }

    // ------------------------------------------------------- slab lifecycle
    // simlint: hotpath(begin) — slab alloc/free: every request traverses
    // these on every hop; steady-state must not allocate.

    /// Allocates a job slot (recycling the free list), holding a reference
    /// on the owning request slot for the job's lifetime.
    #[allow(clippy::too_many_arguments)]
    fn alloc_job(
        &mut self,
        request: u64,
        class: usize,
        node: usize,
        instance: usize,
        parent: Option<u64>,
        remaining_cycles: f64,
        attempt: u8,
    ) -> u64 {
        self.requests[request as usize].refs += 1;
        let job = Job {
            request: request as u32,
            class: class as u32,
            node: node as u32,
            instance: instance as u32,
            parent: parent.map(|p| p as u32),
            phase: Phase::Pre,
            pending: 0,
            remaining_cycles,
            enqueued_at: self.now(),
            span: None,
            attempt,
            flags: 0,
            timeout_token: None,
            refs: 0,
            worker: None,
        };
        match self.free_jobs.pop() {
            Some(idx) => {
                self.jobs[idx as usize] = job;
                idx as u64
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u64
            }
        }
    }

    /// Recycles `job_id` if it is finished and no scheduled event still
    /// names it, releasing its reference on the owning request. Call sites
    /// are the points where a reference is dropped (event handled, token
    /// cancelled) or the job reaches `Done`.
    fn maybe_free_job(&mut self, job_id: u64) {
        let j = &self.jobs[job_id as usize];
        if j.refs != 0 || j.phase != Phase::Done {
            return;
        }
        debug_assert!(j.worker.is_none(), "finished job still held by a worker");
        debug_assert!(j.timeout_token.is_none(), "freeing job with armed timeout");
        let request = j.request;
        self.free_jobs.push(job_id as u32);
        let r = &mut self.requests[request as usize];
        r.refs -= 1;
        if r.refs == 0 && r.resolved() {
            self.free_requests.push(request);
        }
    }

    /// Recycles a request slot once it is resolved and unreferenced.
    fn maybe_free_request(&mut self, slot: u64) {
        let r = &self.requests[slot as usize];
        if r.refs == 0 && r.resolved() {
            self.free_requests.push(slot as u32);
        }
    }
    // simlint: hotpath(end)

    /// The external id of the request in `slot`.
    #[inline]
    fn rid(&self, slot: u64) -> RequestId {
        RequestId(self.requests[slot as usize].id)
    }

    // -------------------------------------------------------- event handling

    fn handle(&mut self, event: Event, driver: &mut dyn Driver) {
        match event {
            Event::Timer(token) => driver.on_timer(token, self),
            Event::WorkDone { cpu, gen } => self.on_work_done(CpuId(cpu), gen),
            Event::Quantum { cpu, gen } => self.on_quantum(CpuId(cpu), gen),
            Event::JobArrive { job } => self.on_job_arrive(job),
            Event::ReplyArrive { child } => self.on_reply_arrive(child),
            Event::ClientReply { job } => self.on_client_reply(job, driver),
            Event::CallTimeout { job } => self.on_call_timeout(job),
            Event::ClientFail { request, cause } => self.on_client_fail(request, cause, driver),
            Event::CallRejected { job, reason } => self.on_call_rejected(job, reason),
            Event::CrashStart { instance } => self.on_crash_start(instance as usize),
            Event::CrashEnd { instance } => self.instances[instance as usize].up = true,
            Event::SlowStart { instance, slowdown } => {
                let factor = self.params.faults.slowdowns[slowdown as usize].demand_factor;
                self.instances[instance as usize].demand_factor = factor;
            }
            Event::SlowEnd { instance } => self.instances[instance as usize].demand_factor = 1.0,
        }
    }

    fn on_client_reply(&mut self, job_id: u64, driver: &mut dyn Driver) {
        self.jobs[job_id as usize].refs -= 1;
        let request = u64::from(self.jobs[job_id as usize].request);
        if self.jobs[job_id as usize].abandoned() || self.requests[request as usize].resolved() {
            // The client already timed out (and possibly retried): the
            // response raced its own deadline and lost.
            self.metrics.late_replies += 1;
            self.maybe_free_job(job_id);
            return;
        }
        if let Some(token) = self.jobs[job_id as usize].timeout_token.take() {
            if self.cal.cancel(token) {
                self.jobs[job_id as usize].refs -= 1;
            }
        }
        let instance = self.jobs[job_id as usize].instance as usize;
        self.breaker_success(instance);
        self.budget_deposit(instance);
        self.requests[request as usize].set_resolved();
        let now = self.now();
        let rid = self.rid(request);
        self.tracer.complete(rid, now);
        let info = &self.requests[request as usize];
        let latency = self.now() - info.submitted_at;
        let class = info.class as usize;
        let client = info.client;
        self.metrics.completed += 1;
        self.metrics.completed_series.record(now, 1.0);
        self.metrics.completed_per_class_series[class].record(now, 1.0);
        self.metrics.latency.record_duration(latency);
        self.metrics.latency_per_class[class].record_duration(latency);
        driver.on_response(
            ResponseInfo {
                request: rid,
                client: ClientId(client),
                class: RequestClassId(class as u32),
                latency,
                outcome: Outcome::Ok,
            },
            self,
        );
        self.maybe_free_job(job_id);
    }

    /// Delivers a failure (timeout or shed) to the client.
    fn on_client_fail(&mut self, request: u64, cause: FaultCause, driver: &mut dyn Driver) {
        self.requests[request as usize].refs -= 1;
        let info = &self.requests[request as usize];
        let rid = RequestId(info.id);
        let latency = self.now() - info.submitted_at;
        let class = info.class as usize;
        let client = info.client;
        let outcome = match cause {
            FaultCause::Shed => Outcome::Shed,
            FaultCause::PolicyShed(reason) => Outcome::ShedByPolicy(reason),
            _ => Outcome::TimedOut,
        };
        self.metrics.failed_per_class[class] += 1;
        // Failed requests are deliberately absent from the latency
        // histograms: their "latency" is the timeout setting, not a
        // service-time observation.
        driver.on_response(
            ResponseInfo {
                request: rid,
                client: ClientId(client),
                class: RequestClassId(class as u32),
                latency,
                outcome,
            },
            self,
        );
        self.maybe_free_request(request);
    }

    /// Scheduled crash: take the instance down and lose its queue — the
    /// requests waiting for a worker die with the process. Jobs already
    /// being executed keep their workers busy, but their replies are
    /// dropped at completion (see [`finish_job`](Self::finish_job)).
    fn on_crash_start(&mut self, inst: usize) {
        self.instances[inst].up = false;
        while let Some(job_id) = self.instances[inst].pending.pop_front() {
            if self.overload.is_some() {
                let now = self.now();
                self.metrics.queue_pop(now);
            }
            self.metrics.rejected_arrivals += 1;
            let (request, span) = {
                let j = &mut self.jobs[job_id as usize];
                j.phase = Phase::Done;
                (u64::from(j.request), j.span)
            };
            if let Some(span) = span {
                let rid = self.rid(request);
                self.tracer.span_fault(rid, span, FaultCause::Crashed);
            }
            self.instances[inst].outstanding -= 1;
            self.maybe_free_job(job_id);
        }
    }

    // simlint: hotpath(begin) — arrival/admission: runs per call hop under
    // peak load; queue moves must reuse the per-instance deques.
    fn on_job_arrive(&mut self, job_id: u64) {
        self.jobs[job_id as usize].refs -= 1;
        let inst_idx = self.jobs[job_id as usize].instance as usize;
        if !self.instances[inst_idx].up {
            // Connection refused: the instance crashed while the call was
            // on the wire. The caller's timeout (if any) recovers.
            self.metrics.rejected_arrivals += 1;
            self.jobs[job_id as usize].phase = Phase::Done;
            self.instances[inst_idx].outstanding -= 1;
            self.maybe_free_job(job_id);
            return;
        }
        self.jobs[job_id as usize].enqueued_at = self.now();
        if self.tracer.enabled() {
            let (request, class, node, attempt) = {
                let j = &self.jobs[job_id as usize];
                (u64::from(j.request), j.class as usize, j.node as usize, j.attempt)
            };
            let rid = self.rid(request);
            let (service, depth) = {
                let flat = &self.classes[class].nodes[node];
                (flat.service, flat.depth)
            };
            let now = self.now();
            let span = self.tracer.open_span(
                rid,
                ServiceId(service as u32),
                InstanceId(inst_idx as u32),
                depth,
                attempt,
                now,
            );
            self.jobs[job_id as usize].span = span;
        }
        // Slow-replica fault: the instance serves this job's CPU phases at
        // a degraded rate, modeled as inflated demand.
        let factor = self.instances[inst_idx].demand_factor;
        if factor != 1.0 {
            self.jobs[job_id as usize].remaining_cycles *= factor;
        }
        // Overload policies get the arrival before the worker pool does.
        if self.overload.is_some() {
            match self.admission_decision(job_id, inst_idx) {
                Admit::Start => {}
                Admit::Queue { deferred } => {
                    if deferred {
                        let service = self.instances[inst_idx].service;
                        self.metrics.per_service[service].deferred += 1;
                        self.metrics.overload.deferred += 1;
                    }
                    self.instances[inst_idx].pending.push_back(job_id);
                    let now = self.now();
                    self.metrics.queue_push(now);
                    return;
                }
                Admit::DropOldest => {
                    let victim = self.instances[inst_idx]
                        .pending
                        .pop_front()
                        .expect("DropOldest implies a non-empty queue");
                    let now = self.now();
                    self.metrics.queue_pop(now);
                    self.shed_job(victim, ShedReason::QueueFull);
                    self.instances[inst_idx].pending.push_back(job_id);
                    self.metrics.queue_push(now);
                    return;
                }
                Admit::Shed(reason) => {
                    self.shed_job(job_id, reason);
                    return;
                }
            }
        }
        if let Some(worker) = self.instances[inst_idx].idle_workers.pop() {
            self.assign_job(worker, job_id);
            let task = self.workers[worker].task;
            match self.sched.wake_outcome(task) {
                Some(WakeOutcome::Started(p)) => self.on_placement(p),
                Some(WakeOutcome::Queued(_)) => {}
                None => unreachable!("idle workers are blocked"),
            }
        } else {
            if self.overload.is_some() {
                let now = self.now();
                self.metrics.queue_push(now);
            }
            self.instances[inst_idx].pending.push_back(job_id);
        }
    }

    /// Runs an arrival through the overload policies, in order: concurrency
    /// limiter (sheds or forces a deferral), then — if the job must queue —
    /// priority admission and the queue bound. Only called when overload
    /// control is configured.
    fn admission_decision(&mut self, job_id: u64, inst: usize) -> Admit {
        let ov = self.overload.as_ref().expect("checked by caller");
        let queue_len = self.instances[inst].pending.len();
        let idle = self.instances[inst].idle_workers.len();
        let mut deferred = false;
        if !ov.limiters.is_empty() {
            let running = ov.threads[inst] as usize - idle;
            if !ov.limiters[inst].admits(running + queue_len) {
                match ov.limit_action {
                    LimitAction::Shed => return Admit::Shed(ShedReason::Concurrency),
                    LimitAction::Defer => deferred = true,
                }
            }
        }
        // The fast path: an idle worker, an empty queue, and no deferral is
        // exactly the legacy start-immediately case.
        if idle > 0 && queue_len == 0 && !deferred {
            return Admit::Start;
        }
        // The job will queue: priority admission first (a class may be
        // refused at a shallower depth than the hard bound) …
        if let Some(priority) = &ov.priority {
            let class = self.jobs[job_id as usize].class as usize;
            if queue_len >= priority.depth_limit(priority.priority_of(class)) {
                return Admit::Shed(ShedReason::Priority);
            }
        }
        // … then the queue bound.
        match ov.admission {
            AdmissionPolicy::Unbounded => {}
            AdmissionPolicy::RejectNew { bound } => {
                if queue_len >= bound {
                    return Admit::Shed(ShedReason::QueueFull);
                }
            }
            AdmissionPolicy::DropOldest { bound } => {
                if queue_len >= bound {
                    return Admit::DropOldest;
                }
            }
        }
        Admit::Queue { deferred }
    }
    // simlint: hotpath(end)

    /// Refuses `job_id` on behalf of an overload policy: the job never runs,
    /// and the caller learns after one return-wire latency (a fast 503 —
    /// unlike a timeout, the caller does not burn its deadline waiting).
    fn shed_job(&mut self, job_id: u64, reason: ShedReason) {
        let (instance, parent, request, span) = {
            let j = &mut self.jobs[job_id as usize];
            debug_assert!(j.phase != Phase::Done, "shedding a finished job");
            j.phase = Phase::Done;
            (j.instance as usize, j.parent, u64::from(j.request), j.span)
        };
        let service = self.instances[instance].service;
        self.metrics.per_service[service].policy_sheds += 1;
        self.metrics.overload.note_shed(reason);
        if let Some(span) = span {
            let rid = self.rid(request);
            self.tracer
                .span_fault(rid, span, FaultCause::PolicyShed(reason));
        }
        self.instances[instance].outstanding -= 1;
        // The rejection travels back to the caller like a reply would: the
        // client wire for root calls, the RPC wire for downstream calls.
        let latency = match parent {
            None => self.params.client_net_latency,
            Some(parent_id) => {
                let parent_inst = self.jobs[parent_id as usize].instance as usize;
                let proximity = self.topo.proximity(
                    self.instances[instance].rep_cpu,
                    self.instances[parent_inst].rep_cpu,
                );
                self.params.uarch.rpc_cost(proximity).latency
            }
        };
        self.jobs[job_id as usize].refs += 1;
        self.cal.schedule(
            self.now() + latency,
            Event::CallRejected {
                job: job_id,
                reason,
            },
        );
        self.maybe_free_job(job_id);
    }

    /// A policy rejection reached the caller: cancel the pending timeout and
    /// retry (subject to the retry budget) or fail the call.
    fn on_call_rejected(&mut self, job_id: u64, reason: ShedReason) {
        self.jobs[job_id as usize].refs -= 1;
        if self.jobs[job_id as usize].abandoned() {
            // The caller's own deadline fired while the rejection was on the
            // wire; the timeout path already handled retry-or-fail.
            self.maybe_free_job(job_id);
            return;
        }
        let (instance, attempt, parent, request) = {
            let j = &mut self.jobs[job_id as usize];
            j.set_abandoned();
            (j.instance as usize, j.attempt, j.parent, u64::from(j.request))
        };
        if let Some(token) = self.jobs[job_id as usize].timeout_token.take() {
            if self.cal.cancel(token) {
                self.jobs[job_id as usize].refs -= 1;
            }
        }
        let service = self.instances[instance].service;
        // A fast rejection is caller-visible backpressure, not a fault: the
        // breaker is not penalized (penalizing it would eject exactly the
        // instances that are protecting themselves).
        let can_retry = match self.params.resilience.as_ref() {
            Some(res) => attempt < res.retry.max_retries,
            None => false,
        };
        if can_retry && self.budget_allows_retry(service) {
            let retry = self.params.resilience.as_ref().expect("checked").retry;
            let delay = backoff_delay(&retry, attempt as u32 + 1, &mut self.resil_rng);
            self.metrics.per_service[service].retries += 1;
            match parent {
                None => self.dispatch_root_attempt(request, delay, attempt + 1),
                Some(parent_id) => self.dispatch_retry_call(u64::from(parent_id), job_id, delay),
            }
        } else {
            match parent {
                None => self.fail_request(request, FaultCause::PolicyShed(reason)),
                Some(parent_id) => {
                    self.metrics.per_service[service].fallbacks += 1;
                    self.reply_to_parent(u64::from(parent_id));
                }
            }
        }
        self.maybe_free_job(job_id);
    }

    fn assign_job(&mut self, worker: usize, job_id: u64) {
        debug_assert!(self.workers[worker].job.is_none());
        let job = &self.jobs[job_id as usize];
        let wait = self.now().saturating_since(job.enqueued_at);
        let service = self.instances[job.instance as usize].service;
        self.metrics.per_service[service]
            .queue_wait
            .record_duration(wait);
        if let Some(span) = job.span {
            let (request, now) = (u64::from(job.request), self.now());
            let rid = self.rid(request);
            self.tracer.span_started(rid, span, now);
        }
        self.workers[worker].job = Some(job_id);
        self.jobs[job_id as usize].worker = Some(worker as u32);
    }

    fn on_reply_arrive(&mut self, child_id: u64) {
        self.jobs[child_id as usize].refs -= 1;
        let (abandoned, parent, token, instance) = {
            let j = &mut self.jobs[child_id as usize];
            (
                j.abandoned(),
                j.parent,
                j.timeout_token.take(),
                j.instance as usize,
            )
        };
        if abandoned {
            // The caller gave up on this call before the reply landed.
            self.metrics.late_replies += 1;
            self.maybe_free_job(child_id);
            return;
        }
        if let Some(token) = token {
            if self.cal.cancel(token) {
                self.jobs[child_id as usize].refs -= 1;
            }
        }
        self.breaker_success(instance);
        self.budget_deposit(instance);
        let parent_id = u64::from(parent.expect("child jobs have parents"));
        self.reply_to_parent(parent_id);
        self.maybe_free_job(child_id);
    }

    /// One of the parent's outstanding stage calls has been answered
    /// (by a real reply or by a retries-exhausted fallback).
    fn reply_to_parent(&mut self, parent_id: u64) {
        let job = &mut self.jobs[parent_id as usize];
        debug_assert!(matches!(job.phase, Phase::WaitStage(_)));
        debug_assert!(job.pending > 0);
        job.pending -= 1;
        if job.pending > 0 {
            return;
        }
        let stage = match job.phase {
            Phase::WaitStage(s) => s,
            _ => unreachable!(),
        };
        // All replies in: run the next send stage or the closing work.
        let class = job.class as usize;
        let node = job.node as usize;
        let instance = job.instance as usize;
        let next_stage = stage as usize + 1;
        let has_more = next_stage < self.classes[class].nodes[node].stages.len();
        if has_more {
            let n_calls = self.classes[class].nodes[node].stages[next_stage].len();
            let cycles = self
                .scale_demand(instance, (n_calls as u64 * self.params.uarch.rpc_endpoint_cycles) as f64);
            let job = &mut self.jobs[parent_id as usize];
            job.phase = Phase::StageSend(next_stage as u8);
            job.remaining_cycles = cycles;
        } else {
            let post = self.classes[class].nodes[node].post;
            let raw = post.sample_us(&mut self.demand_rng) * self.cycles_per_us;
            let cycles = self.scale_demand(instance, raw);
            let job = &mut self.jobs[parent_id as usize];
            job.phase = Phase::Post;
            job.remaining_cycles = cycles;
        }
        // Wake the worker holding this job.
        let worker = self.jobs[parent_id as usize]
            .worker
            .expect("a waiting job is held by a worker") as usize;
        debug_assert_eq!(self.workers[worker].job, Some(parent_id));
        let task = self.workers[worker].task;
        match self.sched.wake_outcome(task) {
            Some(WakeOutcome::Started(p)) => self.on_placement(p),
            Some(WakeOutcome::Queued(_)) => {}
            None => unreachable!("waiting workers are blocked"),
        }
    }

    /// Applies the instance's slow-replica demand multiplier. The 1.0 fast
    /// path keeps fault-free arithmetic bit-identical.
    fn scale_demand(&self, instance: usize, cycles: f64) -> f64 {
        let factor = self.instances[instance].demand_factor;
        if factor == 1.0 {
            cycles
        } else {
            cycles * factor
        }
    }

    /// The caller-side deadline of `job_id`'s call elapsed: abandon the
    /// call, penalize the instance's breaker, and retry (with backoff) or
    /// give up.
    fn on_call_timeout(&mut self, job_id: u64) {
        let (instance, attempt, parent, request, span) = {
            let j = &mut self.jobs[job_id as usize];
            debug_assert!(!j.abandoned(), "timeout token outlived abandonment");
            j.refs -= 1;
            j.set_abandoned();
            j.timeout_token = None;
            (
                j.instance as usize,
                j.attempt,
                j.parent,
                u64::from(j.request),
                j.span,
            )
        };
        let service = self.instances[instance].service;
        self.metrics.per_service[service].timeouts += 1;
        if let Some(span) = span {
            let rid = self.rid(request);
            self.tracer.span_fault(rid, span, FaultCause::TimedOut);
        }
        self.breaker_failure(instance);
        let retry = self
            .params
            .resilience
            .as_ref()
            .expect("timeouts are only armed when resilience is on")
            .retry;
        // The retry budget is consulted *after* the attempt check: only a
        // retry the policy would actually dispatch spends a token, so budget
        // accounting never perturbs budget-free runs.
        if attempt < retry.max_retries && self.budget_allows_retry(service) {
            let delay = backoff_delay(&retry, attempt as u32 + 1, &mut self.resil_rng);
            self.metrics.per_service[service].retries += 1;
            match parent {
                None => self.dispatch_root_attempt(request, delay, attempt + 1),
                Some(parent_id) => self.dispatch_retry_call(u64::from(parent_id), job_id, delay),
            }
        } else {
            match parent {
                // The client's entry call is out of retries: surface the
                // failure.
                None => self.fail_request(request, FaultCause::TimedOut),
                // A downstream call is out of retries: serve a degraded
                // fallback so the enclosing request can still complete
                // (the resilience-library default of failing soft).
                Some(parent_id) => {
                    self.metrics.per_service[service].fallbacks += 1;
                    self.reply_to_parent(u64::from(parent_id));
                }
            }
        }
        self.maybe_free_job(job_id);
    }

    /// Fails `request` towards the client: a shed is bounced straight off
    /// the entry (one network round trip), a timeout is detected by the
    /// client's own clock (no extra wire time).
    fn fail_request(&mut self, request_id: u64, cause: FaultCause) {
        let now = self.now();
        self.requests[request_id as usize].set_resolved();
        let rid = self.rid(request_id);
        self.tracer.fail(rid, cause, now);
        let delivery = match cause {
            FaultCause::Shed => {
                self.metrics.requests_shed += 1;
                now + self.params.client_net_latency.mul_f64(2.0)
            }
            // A policy shed already paid its return-wire latency on the
            // CallRejected event; the client learns immediately.
            FaultCause::PolicyShed(_) => {
                self.metrics.overload.requests_shed_policy += 1;
                now
            }
            _ => {
                self.metrics.requests_timed_out += 1;
                now
            }
        };
        self.requests[request_id as usize].refs += 1;
        self.cal.schedule(
            delivery,
            Event::ClientFail {
                request: request_id,
                cause,
            },
        );
    }

    fn on_work_done(&mut self, cpu: CpuId, gen: u64) {
        let Some(exec) = self.exec[cpu.index()] else {
            return; // stale (exec torn down since scheduling)
        };
        if exec.gen != gen {
            return; // stale (re-rated since scheduling)
        }
        self.flush_progress(cpu);
        let exec = self.exec[cpu.index()].take().expect("checked above");
        self.cpu_instance[cpu.index()] = IDLE_CPU;
        self.cal.cancel(exec.quantum_token);
        let worker = exec.worker;
        let job_id = self.workers[worker]
            .job
            .expect("running worker holds a job");
        debug_assert!(self.jobs[job_id as usize].remaining_cycles <= 1.0);
        self.jobs[job_id as usize].remaining_cycles = 0.0;
        self.continue_worker(worker, cpu);
    }

    fn on_quantum(&mut self, cpu: CpuId, gen: u64) {
        let Some(exec) = self.exec[cpu.index()] else {
            return;
        };
        if exec.gen != gen {
            return;
        }
        if self.sched.runqueue_len(cpu) == 0 {
            // Nothing to round-robin with; keep ticking.
            let quantum = self.params.sched.quantum;
            let token = self
                .cal
                .schedule(self.now() + quantum, Event::Quantum { cpu: cpu.0, gen });
            if let Some(e) = self.exec[cpu.index()].as_mut() {
                e.quantum_token = token;
            }
            return;
        }
        // Preempt: flush, tear down exec, let the scheduler rotate.
        let worker = exec.worker;
        self.release_exec(cpu);
        self.busy_delta(worker, -1.0);
        let switch = self
            .sched
            .quantum_expired(cpu)
            .expect("runqueue non-empty implies preemption");
        self.handle_switch(switch);
    }

    // ---------------------------------------------------------- job engine

    /// Drives `worker` (already running on `cpu`) forward: starts its job's
    /// current phase if work remains, otherwise advances the phase machine,
    /// which may issue RPCs and block, finish the job, or pick up the next
    /// queued job.
    fn continue_worker(&mut self, worker: usize, cpu: CpuId) {
        loop {
            let job_id = self.workers[worker].job.expect("worker has a job");
            if self.jobs[job_id as usize].remaining_cycles > 0.5 {
                self.start_exec(cpu, worker);
                return;
            }
            match self.jobs[job_id as usize].phase {
                Phase::Pre => {
                    let (class, node, instance) = {
                        let j = &self.jobs[job_id as usize];
                        (j.class as usize, j.node as usize, j.instance as usize)
                    };
                    if self.classes[class].nodes[node].stages.is_empty() {
                        let post = self.classes[class].nodes[node].post;
                        let raw = post.sample_us(&mut self.demand_rng) * self.cycles_per_us;
                        let cycles = self.scale_demand(instance, raw);
                        let j = &mut self.jobs[job_id as usize];
                        j.phase = Phase::Post;
                        j.remaining_cycles = cycles;
                    } else {
                        let n_calls = self.classes[class].nodes[node].stages[0].len();
                        let cycles = self.scale_demand(
                            instance,
                            (n_calls as u64 * self.params.uarch.rpc_endpoint_cycles) as f64,
                        );
                        let j = &mut self.jobs[job_id as usize];
                        j.phase = Phase::StageSend(0);
                        j.remaining_cycles = cycles;
                    }
                }
                Phase::StageSend(stage) => {
                    // Send work done: dispatch the stage's calls and block.
                    self.issue_stage(job_id, stage as usize, cpu);
                    let j = &mut self.jobs[job_id as usize];
                    j.phase = Phase::WaitStage(stage);
                    self.block_worker(worker, cpu);
                    return;
                }
                Phase::Post => {
                    if self.finish_job(worker, job_id, cpu) {
                        continue; // picked up a queued job; keep running
                    }
                    return; // worker went idle
                }
                Phase::WaitStage(_) | Phase::Done => {
                    unreachable!("non-executable phase on CPU")
                }
            }
        }
    }

    /// Issues all calls of `stage`, charging RPC costs by distance from
    /// `caller_cpu`. Sets the job's pending-reply count.
    fn issue_stage(&mut self, job_id: u64, stage: usize, caller_cpu: CpuId) {
        let (class, node, request) = {
            let j = &self.jobs[job_id as usize];
            (j.class as usize, j.node as usize, j.request)
        };
        let n_children = self.classes[class].nodes[node].stages[stage].len();
        self.jobs[job_id as usize].pending = n_children as u16;
        for ci in 0..n_children {
            let child_node = self.classes[class].nodes[node].stages[stage][ci];
            let service = self.classes[class].nodes[child_node].service;
            let instance = self.pick_instance(service, caller_cpu);
            let proximity = self
                .topo
                .proximity(caller_cpu, self.instances[instance].rep_cpu);
            let cost = self.params.uarch.rpc_cost(proximity);
            let pre = self.classes[class].nodes[child_node].pre;
            let cycles = pre.sample_us(&mut self.demand_rng) * self.cycles_per_us
                + cost.callee_cycles as f64;
            let child_id = self.alloc_job(
                u64::from(request),
                class,
                child_node,
                instance,
                Some(job_id),
                cycles,
                0,
            );
            self.instances[instance].outstanding += 1;
            self.jobs[child_id as usize].refs += 1;
            self.cal.schedule(
                self.now() + cost.latency,
                Event::JobArrive { job: child_id },
            );
            self.arm_call_timeout(child_id, service, SimDuration::ZERO);
        }
    }

    /// Arms the caller-side deadline for a freshly dispatched call job and
    /// registers the dispatch with the target instance's breaker. A no-op
    /// unless resilience is configured.
    fn arm_call_timeout(&mut self, job_id: u64, service: usize, extra: SimDuration) {
        if self.timeouts.is_empty() {
            return;
        }
        let deadline = self.now() + extra + self.timeouts[service];
        let token = self.cal.schedule(deadline, Event::CallTimeout { job: job_id });
        let instance = self.jobs[job_id as usize].instance as usize;
        self.jobs[job_id as usize].timeout_token = Some(token);
        self.jobs[job_id as usize].refs += 1;
        self.breaker_dispatch(instance);
    }

    /// Completes `job_id` on `worker`: sends the reply and either picks up
    /// the instance's next queued job (returns `true`, worker keeps the CPU)
    /// or idles the worker (returns `false`, CPU released).
    fn finish_job(&mut self, worker: usize, job_id: u64, cpu: CpuId) -> bool {
        let (instance, parent, request, abandoned, span, enqueued_at) = {
            let j = &mut self.jobs[job_id as usize];
            j.phase = Phase::Done;
            (
                j.instance as usize,
                j.parent,
                u64::from(j.request),
                j.abandoned(),
                j.span,
                j.enqueued_at,
            )
        };
        // Feed the concurrency limiter its control signal: the job's sojourn
        // (arrival at the instance → completion), which inflates with queue
        // depth exactly like the latency a gradient limiter measures.
        if let Some(ov) = self.overload.as_mut() {
            if !ov.limiters.is_empty() {
                let sojourn = self.cal.now().saturating_since(enqueued_at);
                ov.limiters[instance].observe(sojourn);
            }
        }
        let rid = self.rid(request);
        if let Some(span) = span {
            let now = self.now();
            self.tracer.span_finished(rid, span, now);
        }
        let service = self.instances[instance].service;
        self.metrics.per_service[service].jobs_completed += 1;
        self.instances[instance].outstanding -= 1;

        // Reply gating: an abandoned call's reply is wasted work; a crashed
        // instance loses its in-flight replies; a reply-fault window may drop
        // or delay the reply on the wire.
        let mut send_reply = true;
        let mut extra = SimDuration::ZERO;
        if abandoned {
            self.metrics.late_replies += 1;
            send_reply = false;
        } else if !self.instances[instance].up {
            self.metrics.replies_dropped += 1;
            if let Some(span) = span {
                self.tracer.span_fault(rid, span, FaultCause::Crashed);
            }
            send_reply = false;
        } else if self.fault_aware {
            let now = self.now();
            let fault = self
                .params
                .faults
                .reply_faults
                .iter()
                .find(|f| f.instance.index() == instance && f.from <= now && now < f.until)
                .copied();
            if let Some(fault) = fault {
                if self.fault_rng.chance(fault.drop_probability) {
                    self.metrics.replies_dropped += 1;
                    if let Some(span) = span {
                        self.tracer.span_fault(rid, span, FaultCause::ReplyDropped);
                    }
                    send_reply = false;
                } else {
                    extra = fault.extra_delay;
                }
            }
        }

        if send_reply {
            self.jobs[job_id as usize].refs += 1;
            match parent {
                Some(parent_id) => {
                    let parent_inst = self.jobs[parent_id as usize].instance as usize;
                    let proximity = self
                        .topo
                        .proximity(cpu, self.instances[parent_inst].rep_cpu);
                    let latency = self.params.uarch.rpc_cost(proximity).latency;
                    self.cal.schedule(
                        self.now() + latency + extra,
                        Event::ReplyArrive { child: job_id },
                    );
                }
                None => {
                    self.cal.schedule(
                        self.now() + self.params.client_net_latency + extra,
                        Event::ClientReply { job: job_id },
                    );
                }
            }
        }

        self.workers[worker].job = None;
        self.jobs[job_id as usize].worker = None;
        self.maybe_free_job(job_id);
        if let Some(next_job) = self.next_queued_job(instance) {
            self.assign_job(worker, next_job);
            true
        } else {
            self.instances[instance].idle_workers.push(worker);
            self.block_worker(worker, cpu);
            false
        }
    }

    /// Pops the instance's next runnable queued job. With overload control
    /// on, this is where CoDel-style deadline shedding happens: jobs that
    /// already outwaited [`OverloadParams::queue_deadline`] are shed (cheaply,
    /// in a burst) until a fresh one is found — a standing stale queue drains
    /// in rejections instead of being served to clients that left.
    fn next_queued_job(&mut self, instance: usize) -> Option<u64> {
        if self.overload.is_none() {
            return self.instances[instance].pending.pop_front();
        }
        let deadline = self.overload.as_ref().expect("checked").queue_deadline;
        loop {
            let job_id = self.instances[instance].pending.pop_front()?;
            let now = self.cal.now();
            self.metrics.queue_pop(now);
            if let Some(deadline) = deadline {
                let waited = now.saturating_since(self.jobs[job_id as usize].enqueued_at);
                if waited > deadline {
                    self.shed_job(job_id, ShedReason::QueueDeadline);
                    continue;
                }
            }
            return Some(job_id);
        }
    }

    /// Consults the per-service retry budget before a retry is dispatched.
    /// Returns `true` (without touching anything) when budgets are off.
    fn budget_allows_retry(&mut self, service: usize) -> bool {
        let denied = match self.overload.as_mut() {
            Some(ov) if !ov.budgets.is_empty() => !ov.budgets[service].try_spend(),
            _ => false,
        };
        if denied {
            self.metrics.per_service[service].budget_denied += 1;
            self.metrics.overload.budget_denied += 1;
        }
        !denied
    }

    /// A successful reply from `instance` refills its service's retry
    /// budget. No-op when budgets are off.
    fn budget_deposit(&mut self, instance: usize) {
        let service = self.instances[instance].service;
        if let Some(ov) = self.overload.as_mut() {
            if let Some(budget) = ov.budgets.get_mut(service) {
                budget.on_success();
            }
        }
    }

    /// Whether `instance` would currently admit another job per its AIMD
    /// limit. `true` when the limiter is off. Used by load balancing so
    /// callers prefer replicas with limit headroom.
    fn instance_within_limit(&self, instance: usize) -> bool {
        match &self.overload {
            Some(ov) if !ov.limiters.is_empty() => {
                let idle = self.instances[instance].idle_workers.len();
                let running = ov.threads[instance] as usize - idle;
                ov.limiters[instance].admits(running + self.instances[instance].pending.len())
            }
            _ => true,
        }
    }

    /// Ingress balancing for client requests: least outstanding, ties by
    /// instance order rotated via the request counter for fairness. Returns
    /// `None` when every instance is breaker-ejected — the entry tier
    /// refuses (sheds) the request rather than panic-routing, matching an
    /// edge proxy returning 503.
    ///
    /// Liveness is deliberately invisible here: the balancer has no health
    /// checks, so a crashed replica keeps receiving its share (its refused
    /// arrivals keep `outstanding` low, making it *more* attractive — the
    /// classic dead-backend black hole). Only the circuit breaker, fed by
    /// call timeouts, ejects it.
    // simlint: hotpath(begin) — balancer pick + dispatch: per call hop;
    // candidate lists must go through cand_scratch, never fresh Vecs.
    fn pick_entry_instance(&mut self, service: usize) -> Option<usize> {
        let n = self.per_service_instances[service].len();
        let start = (self.submitted_total % n as u64) as usize;
        if !self.fault_aware {
            // Fast path: identical arithmetic (and zero breaker state probes)
            // to the pre-fault engine.
            let candidates = &self.per_service_instances[service];
            return Some(
                (0..n)
                    .map(|i| candidates[(start + i) % candidates.len()])
                    .min_by_key(|&i| self.instances[i].outstanding)
                    .expect("deployed services have instances"),
            );
        }
        let now = self.now();
        let mut best: Option<usize> = None;
        for k in 0..n {
            let i = self.per_service_instances[service][(start + k) % n];
            if !self.breaker_allows(i, now) {
                continue;
            }
            // Strict `<` keeps the first minimal candidate in rotation order,
            // matching min_by_key's tie-break.
            if best.is_none_or(|b| self.instances[i].outstanding < self.instances[b].outstanding) {
                best = Some(i);
            }
        }
        best
    }

    fn pick_instance(&mut self, service: usize, caller_cpu: CpuId) -> usize {
        let now = self.now();
        let fault_aware = self.fault_aware;
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        candidates.clear();
        for idx in 0..self.per_service_instances[service].len() {
            let i = self.per_service_instances[service][idx];
            let mut c = Candidate::new(
                InstanceId(i as u32),
                self.instances[i].outstanding,
                self.instances[i].rep_cpu,
            );
            if fault_aware {
                // Same as ingress: breaker state only, no liveness oracle.
                // The AIMD limit also marks saturated replicas unavailable so
                // callers with a choice route around them (the balancer still
                // panic-routes when every replica is over limit; the arrival
                // gate then sheds with its proper reason).
                c.available = self.breaker_allows(i, now) && self.instance_within_limit(i);
            }
            candidates.push(c);
        }
        let picked = self.balancers[service]
            .pick(&candidates, caller_cpu, &self.topo)
            .index();
        self.cand_scratch = candidates;
        picked
    }

    // ---------------------------------------------------- retry dispatching

    /// Dispatches (or re-dispatches) the client's entry call for `request_id`
    /// after `delay` (zero on first submit, a backoff on retries).
    fn dispatch_root_attempt(&mut self, request_id: u64, delay: SimDuration, attempt: u8) {
        let class = self.requests[request_id as usize].class as usize;
        let root_service = self.classes[class].nodes[0].service;
        let Some(instance) = self.pick_entry_instance(root_service) else {
            self.fail_request(request_id, FaultCause::Shed);
            return;
        };
        let proximity = Proximity::SameCcx; // ingress terminates near the instance
        let cost = self.params.uarch.rpc_cost(proximity);
        let pre = self.classes[class].nodes[0].pre;
        let cycles =
            pre.sample_us(&mut self.demand_rng) * self.cycles_per_us + cost.callee_cycles as f64;
        let job_id = self.alloc_job(request_id, class, 0, instance, None, cycles, attempt);
        self.instances[instance].outstanding += 1;
        self.jobs[job_id as usize].refs += 1;
        self.cal.schedule(
            self.now() + delay + self.params.client_net_latency,
            Event::JobArrive { job: job_id },
        );
        self.arm_call_timeout(job_id, root_service, delay);
    }

    /// Re-dispatches one timed-out downstream call of `parent_id`, cloned
    /// from the abandoned attempt `old_job`, after `delay`.
    fn dispatch_retry_call(&mut self, parent_id: u64, old_job: u64, delay: SimDuration) {
        let (class, request, node, attempt) = {
            let j = &self.jobs[old_job as usize];
            (j.class as usize, u64::from(j.request), j.node as usize, j.attempt)
        };
        let caller_cpu =
            self.instances[self.jobs[parent_id as usize].instance as usize].rep_cpu;
        let service = self.classes[class].nodes[node].service;
        let instance = self.pick_instance(service, caller_cpu);
        let proximity = self
            .topo
            .proximity(caller_cpu, self.instances[instance].rep_cpu);
        let cost = self.params.uarch.rpc_cost(proximity);
        let pre = self.classes[class].nodes[node].pre;
        let cycles =
            pre.sample_us(&mut self.demand_rng) * self.cycles_per_us + cost.callee_cycles as f64;
        let child_id = self.alloc_job(
            request,
            class,
            node,
            instance,
            Some(parent_id),
            cycles,
            attempt + 1,
        );
        self.instances[instance].outstanding += 1;
        self.jobs[child_id as usize].refs += 1;
        self.cal.schedule(
            self.now() + delay + cost.latency,
            Event::JobArrive { job: child_id },
        );
        self.arm_call_timeout(child_id, service, delay);
    }
    // simlint: hotpath(end)

    // ------------------------------------------------------ breaker plumbing

    /// Whether `instance`'s breaker admits a call right now. `true` when
    /// breakers are disabled.
    fn breaker_allows(&mut self, instance: usize, now: SimTime) -> bool {
        match self.breakers.get_mut(instance) {
            Some(b) => b.allows(now),
            None => true,
        }
    }

    fn breaker_dispatch(&mut self, instance: usize) {
        let now = self.now();
        if let Some(b) = self.breakers.get_mut(instance) {
            b.on_dispatch(now);
        }
    }

    fn breaker_success(&mut self, instance: usize) {
        let now = self.now();
        if let Some(b) = self.breakers.get_mut(instance) {
            if b.on_success(now) == Transition::Closed {
                let service = self.instances[instance].service;
                self.metrics.per_service[service].breaker_closed += 1;
            }
        }
    }

    fn breaker_failure(&mut self, instance: usize) {
        let now = self.now();
        if let Some(b) = self.breakers.get_mut(instance) {
            if b.on_failure(now) == Transition::Opened {
                let service = self.instances[instance].service;
                self.metrics.per_service[service].breaker_opened += 1;
            }
        }
    }

    // ----------------------------------------------------- CPU / exec state

    /// The contention context of the task running on `cpu` right now;
    /// `cpu_instance` must already show it there.
    fn exec_context(&self, cpu: CpuId) -> ExecContext {
        let instance = self.cpu_instance[cpu.index()] as usize;
        ExecContext {
            smt_sibling_busy: self.smt_sibling_busy(cpu),
            ccx_pressure: self.ccx_pressure(self.topo.ccx_of(cpu)),
            numa_local: self.instances[instance].mem_node == self.topo.numa_of(cpu),
        }
    }

    fn smt_sibling_busy(&self, cpu: CpuId) -> bool {
        self.topo
            .smt_sibling(cpu)
            .is_some_and(|sib| self.cpu_instance[sib.index()] != IDLE_CPU)
    }

    /// Current boosted wall-clock rate, cycles per nanosecond.
    fn wall_rate(&self) -> f64 {
        let mult = self
            .params
            .uarch
            .boost
            .multiplier_for_bucket(self.boost_bucket);
        self.topo.freq_hz() / 1e9 * mult
    }

    fn rate_for(&mut self, worker: usize, ctx: &ExecContext) -> f64 {
        let instance = self.workers[worker].instance;
        let service = self.instances[instance].service;
        let profile = &self.app.services()[service].profile;
        let factor = self
            .speed_memo
            .factor(service as u32, profile, ctx, &self.params.uarch);
        // Reference cycles retired per nanosecond (at the boosted clock).
        self.wall_rate() * factor
    }

    /// Puts `worker` into execution on `cpu` and schedules its completion.
    fn start_exec(&mut self, cpu: CpuId, worker: usize) {
        debug_assert!(self.exec[cpu.index()].is_none());
        self.cpu_instance[cpu.index()] = self.workers[worker].instance as u32;
        let ctx = self.exec_context(cpu);
        let rate = self.rate_for(worker, &ctx);
        let job_id = self.workers[worker].job.expect("exec requires a job");
        let remaining = self.jobs[job_id as usize].remaining_cycles;
        let gen = self.next_gen;
        self.next_gen += 1;
        let eta = SimDuration::from_nanos((remaining / rate).ceil() as u64);
        let done_token = self
            .cal
            .schedule(self.now() + eta, Event::WorkDone { cpu: cpu.0, gen });
        let quantum_token = self.arm_quantum(cpu, gen, eta);
        self.exec[cpu.index()] = Some(CpuExec {
            worker,
            rate,
            wall_rate: self.wall_rate(),
            ctx,
            since: self.now(),
            gen,
            done_token,
            quantum_token,
        });
        self.instances[self.workers[worker].instance].rep_cpu = cpu;
        // `ctx` already counted this worker as running, so its pressure is
        // exactly what the neighbors now see.
        self.rerate_neighbors(cpu, Some(ctx.ccx_pressure));
    }

    /// Arms the quantum tick of generation `gen` on `cpu`, whose `WorkDone`
    /// was just scheduled `eta` from now, if the tick can ever be handled.
    ///
    /// The tick always gets the sequence number right after its `WorkDone`
    /// and is cancelled together with it, so it reaches `on_quantum` with a
    /// current generation only by popping first. When `eta <= quantum` the
    /// `WorkDone` pops first (at equal instants its lower sequence number
    /// wins) and cancels the tick: arming it would change nothing but the
    /// calendar's bookkeeping, so it is not armed. Skipped sequence numbers
    /// leave the order of every other event as it was.
    fn arm_quantum(&mut self, cpu: CpuId, gen: u64, eta: SimDuration) -> EventToken {
        let quantum = self.params.sched.quantum;
        if quantum < eta {
            self.cal
                .schedule(self.now() + quantum, Event::Quantum { cpu: cpu.0, gen })
        } else {
            EventToken::NONE
        }
    }

    /// Tears down execution on `cpu` (after flushing progress) and re-rates
    /// the neighborhood that just lost a co-runner.
    fn release_exec(&mut self, cpu: CpuId) {
        self.flush_progress(cpu);
        let exec = self.exec[cpu.index()]
            .take()
            .expect("release_exec on idle cpu");
        self.cpu_instance[cpu.index()] = IDLE_CPU;
        self.cal.cancel(exec.done_token);
        self.cal.cancel(exec.quantum_token);
        self.rerate_neighbors(cpu, None);
    }

    /// Adjusts the busy-CPU utilization clocks for `worker`'s service, and
    /// re-rates the whole machine if the occupancy crossed into a new
    /// frequency-boost bucket.
    fn busy_delta(&mut self, worker: usize, delta: f64) {
        let service = self.instances[self.workers[worker].instance].service;
        let now = self.now();
        self.metrics.per_service[service].busy.add(now, delta);
        self.metrics.busy_cpus.add(now, delta);
        if self.params.uarch.boost != uarch::BoostModel::Flat {
            // Hysteresis: occupancy naturally flutters around a working
            // point; only re-clock the machine when the active fraction has
            // moved at least 1.5 bucket widths from the current bucket's
            // center, otherwise every wake/block would trigger a machine-
            // wide re-rate.
            let fraction =
                (self.metrics.busy_cpus.level() / self.topo.num_cpus() as f64).clamp(0.0, 1.0);
            let center = (self.boost_bucket as f64 + 0.5) / 20.0;
            if (fraction - center).abs() > 0.075 {
                self.boost_bucket = uarch::BoostModel::bucket(fraction);
                // Re-rating changes no CPU's occupancy.
                for c in 0..self.cpu_instance.len() {
                    if self.cpu_instance[c] != IDLE_CPU {
                        self.rerate(CpuId(c as u32));
                    }
                }
            }
        }
    }

    /// Integrates progress on `cpu` since the last update: retires cycles,
    /// records counters, charges vruntime.
    fn flush_progress(&mut self, cpu: CpuId) {
        let Some(exec) = self.exec[cpu.index()] else {
            return;
        };
        let elapsed = self.now() - exec.since;
        if elapsed.is_zero() {
            return;
        }
        let elapsed_ns = elapsed.as_nanos() as f64;
        let ref_cycles = exec.rate * elapsed_ns;
        let actual_cycles = exec.wall_rate * elapsed_ns;
        let worker = exec.worker;
        let job_id = self.workers[worker]
            .job
            .expect("running worker holds a job");
        let job = &mut self.jobs[job_id as usize];
        job.remaining_cycles = (job.remaining_cycles - ref_cycles).max(0.0);
        let (span, request) = (job.span, u64::from(job.request));
        if let Some(span) = span {
            let rid = self.rid(request);
            self.tracer.span_cpu(rid, span, elapsed);
        }
        let service = self.instances[self.workers[worker].instance].service;
        let profile = &self.app.services()[service].profile;
        self.metrics.per_service[service].counters.record_slice(
            ref_cycles as u64,
            actual_cycles as u64,
            profile,
            &exec.ctx,
            &self.params.uarch,
        );
        self.sched.account(self.workers[worker].task, elapsed);
        let now = self.now();
        if let Some(e) = self.exec[cpu.index()].as_mut() {
            e.since = now;
        }
    }

    /// Re-rates every other running task in `cpu`'s L3 domain (their SMT /
    /// cache-pressure context may have changed). `pressure` is the CCX's
    /// current [`Engine::ccx_pressure`] when the caller already has it.
    fn rerate_neighbors(&mut self, cpu: CpuId, pressure: Option<f64>) {
        let ccx = self.topo.ccx_of(cpu);
        let mut pressure = pressure;
        // Re-rating changes no CPU's occupancy, so every neighbor sees the
        // same CCX pressure, computed at most once.
        for i in 0..self.topo.ccx_cpus(ccx).len() {
            let c = self.topo.ccx_cpus(ccx)[i];
            if c == cpu || self.cpu_instance[c.index()] == IDLE_CPU {
                continue;
            }
            let ccx_pressure = *pressure.get_or_insert_with(|| self.ccx_pressure(ccx));
            self.flush_progress(c);
            let exec = self.exec[c.index()].expect("cpu_instance mirrors exec");
            let ctx = ExecContext {
                smt_sibling_busy: self.smt_sibling_busy(c),
                ccx_pressure,
                // The same instance on the same CPU: locality is unchanged.
                numa_local: exec.ctx.numa_local,
            };
            self.rerate_with_ctx(c, exec, ctx);
        }
    }

    /// The shared-L3 working-set pressure of `ccx`'s running tasks.
    ///
    /// CCX pressure counts each *instance's* working set once — worker
    /// threads of one instance share its heap — plus 15% per additional
    /// concurrently-running thread of that instance (private stacks,
    /// connection buffers), capped at 2× the base footprint. Instances are
    /// summed in the order their first CPU appears in the CCX.
    fn ccx_pressure(&self, ccx: cputopo::CcxId) -> f64 {
        let l3 = self.topo.caches().l3_bytes as f64;
        // (instance, running thread count); at most one entry per CPU.
        let mut running: [(u32, u32); 16] = [(IDLE_CPU, 0); 16];
        let mut n_entries = 0;
        for c in self.topo.ccx_cpus(ccx) {
            let inst = self.cpu_instance[c.index()];
            if inst == IDLE_CPU {
                continue;
            }
            if let Some(entry) = running[..n_entries].iter_mut().find(|e| e.0 == inst) {
                entry.1 += 1;
            } else if n_entries < running.len() {
                running[n_entries] = (inst, 1);
                n_entries += 1;
            }
        }
        let mut ws_sum = 0.0;
        for &(inst, k) in &running[..n_entries] {
            let base = self.instances[inst as usize].working_set;
            ws_sum += base * (1.0 + 0.15 * (k.saturating_sub(1)) as f64).min(2.0);
        }
        ws_sum / l3
    }

    fn rerate(&mut self, cpu: CpuId) {
        self.flush_progress(cpu);
        let Some(exec) = self.exec[cpu.index()] else {
            return;
        };
        let ctx = self.exec_context(cpu);
        self.rerate_with_ctx(cpu, exec, ctx);
    }

    fn rerate_with_ctx(&mut self, cpu: CpuId, exec: CpuExec, ctx: ExecContext) {
        // `exec.rate` is the memoized factor of `exec.ctx` times
        // `exec.wall_rate`, so identical inputs reproduce it bit for bit.
        if ctx.smt_sibling_busy == exec.ctx.smt_sibling_busy
            && ctx.numa_local == exec.ctx.numa_local
            && ctx.ccx_pressure.to_bits() == exec.ctx.ccx_pressure.to_bits()
            && self.wall_rate().to_bits() == exec.wall_rate.to_bits()
        {
            return;
        }
        let rate = self.rate_for(exec.worker, &ctx);
        if (rate - exec.rate).abs() < 1e-12 {
            return;
        }
        let job_id = self.workers[exec.worker]
            .job
            .expect("running worker holds a job");
        let remaining = self.jobs[job_id as usize].remaining_cycles;
        let gen = self.next_gen;
        self.next_gen += 1;
        let eta = SimDuration::from_nanos((remaining / rate).ceil().max(1.0) as u64);
        self.cal.cancel(exec.quantum_token);
        let done_token = self.cal.reschedule(
            exec.done_token,
            self.now() + eta,
            Event::WorkDone { cpu: cpu.0, gen },
        );
        let quantum_token = self.arm_quantum(cpu, gen, eta);
        self.exec[cpu.index()] = Some(CpuExec {
            worker: exec.worker,
            rate,
            wall_rate: self.wall_rate(),
            ctx,
            since: self.now(),
            gen,
            done_token,
            quantum_token,
        });
    }

    // ------------------------------------------------------ sched plumbing

    fn on_placement(&mut self, placement: Placement) {
        let worker = placement.task.index();
        debug_assert_eq!(self.workers[worker].task, placement.task);
        self.busy_delta(worker, 1.0);
        let job_id = self.workers[worker].job.expect("placed workers hold jobs");
        // Context-switch direct cost: charged as extra work to the incoming
        // task (its time passes on the CPU) and counted per service.
        let service = self.instances[self.workers[worker].instance].service;
        self.metrics.per_service[service].counters.context_switches += 1;
        let mut extra = self.params.uarch.context_switch_cycles as f64;
        if let Some(from) = placement.migrated_from {
            let proximity = self.topo.proximity(from, placement.cpu);
            extra += self.params.uarch.migration_cost(proximity) as f64;
            self.metrics.per_service[service]
                .counters
                .record_migration();
        }
        self.jobs[job_id as usize].remaining_cycles += extra;
        self.continue_worker(worker, placement.cpu);
    }

    fn handle_switch(&mut self, switch: Switch) {
        match switch.next {
            Some(p) => self.on_placement(p),
            None => self.try_steal(switch.cpu),
        }
    }

    fn block_worker(&mut self, worker: usize, cpu: CpuId) {
        if self.exec[cpu.index()].map(|e| e.worker) == Some(worker) {
            self.release_exec(cpu);
        }
        self.busy_delta(worker, -1.0);
        let switch = self.sched.block(self.workers[worker].task);
        self.handle_switch(switch);
    }

    fn try_steal(&mut self, cpu: CpuId) {
        if let Some(p) = self.sched.steal(cpu) {
            self.on_placement(p);
        }
    }

    // ---------------------------------------------------------- snapshotting

    /// A fingerprint of the configuration this engine was built from.
    ///
    /// Snapshots capture *mutable* state only; everything derived from the
    /// topology, application, and parameters is rebuilt by [`Engine::new`].
    /// Restoring into an engine built from a different configuration would
    /// silently misinterpret slab indices, so the fingerprint is written
    /// first and checked first.
    ///
    /// Hashed as it is formatted: every micro-snapshot writes it, and
    /// building the string would allocate.
    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::default();
        write!(
            h,
            "{:?}|cpus={}|services={}|classes={}|instances={}|workers={}",
            self.params,
            self.topo.num_cpus(),
            self.app.services().len(),
            self.classes.len(),
            self.instances.len(),
            self.workers.len()
        )
        .expect("hashing never fails");
        h.finish()
    }

    /// Serializes the engine's complete mutable state: calendar, scheduler,
    /// instance queues, job/request slabs, RNG positions, metrics, breakers,
    /// overload state, and the tracer.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.section("engine");
        w.u64(self.config_fingerprint());
        self.cal.save(w);
        self.sched.snap_save(w);
        w.usize(self.instances.len());
        for inst in &self.instances {
            w.u32(inst.rep_cpu.0);
            inst.idle_workers.save(w);
            w.usize(inst.pending.len());
            for &job in &inst.pending {
                w.u64(job);
            }
            w.usize(inst.outstanding);
            w.bool(inst.up);
            w.f64(inst.demand_factor);
        }
        w.usize(self.balancers.len());
        for b in &self.balancers {
            b.snap_save(w);
        }
        w.usize(self.workers.len());
        for wk in &self.workers {
            wk.job.save(w);
        }
        self.jobs.save(w);
        self.free_jobs.save(w);
        self.requests.save(w);
        self.free_requests.save(w);
        w.u64(self.submitted_total);
        self.exec.save(w);
        w.u64(self.next_gen);
        self.metrics.snap_save(w);
        let base = self.sched_stats_baseline;
        w.u64(base.wakeups);
        w.u64(base.context_switches);
        w.u64(base.migrations);
        w.u64(base.steals);
        self.demand_rng.save(w);
        self.driver_rng.save(w);
        self.fault_rng.save(w);
        self.resil_rng.save(w);
        w.usize(self.breakers.len());
        for brk in &self.breakers {
            brk.snap_save(w);
        }
        match &self.overload {
            None => w.u8(0),
            Some(ov) => {
                w.u8(1);
                w.usize(ov.limiters.len());
                for lim in &ov.limiters {
                    lim.snap_save(w);
                }
                w.usize(ov.budgets.len());
                for budget in &ov.budgets {
                    budget.snap_save(w);
                }
            }
        }
        w.bool(self.stop_requested);
        self.tracer.snap_save(w);
        w.u32(self.boost_bucket);
        w.u64(self.events_processed);
    }

    /// Restores state captured by [`Engine::snap_save`] into an engine built
    /// from the *same* configuration (topology, application, deployment, and
    /// parameters). On success the engine continues the snapshotted run via
    /// [`Engine::run_resumed`]; on error the engine is in an unspecified
    /// state and must be discarded.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("engine")?;
        let fingerprint = r.u64()?;
        let own = self.config_fingerprint();
        if fingerprint != own {
            return Err(SnapError::Corrupt(format!(
                "snapshot was taken from engine config {fingerprint:#018x}, \
                 this engine is built from {own:#018x}"
            )));
        }
        let cal = Calendar::<Event>::load(r)?;
        self.sched.snap_restore(r)?;

        struct InstState {
            rep_cpu: u32,
            idle_workers: Vec<usize>,
            pending: VecDeque<u64>,
            outstanding: usize,
            up: bool,
            demand_factor: f64,
        }
        let n_inst = r.usize()?;
        if n_inst != self.instances.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n_inst} instances, engine has {}",
                self.instances.len()
            )));
        }
        let num_cpus = self.topo.num_cpus();
        let mut inst_states = Vec::with_capacity(n_inst);
        for idx in 0..n_inst {
            let rep_cpu = r.u32()?;
            if rep_cpu as usize >= num_cpus {
                return Err(SnapError::Corrupt(format!(
                    "instance {idx} sits on cpu {rep_cpu}, machine has {num_cpus}"
                )));
            }
            let idle_workers = Vec::<usize>::load(r)?;
            let n_pending = r.usize()?;
            let mut pending = VecDeque::with_capacity(n_pending);
            for _ in 0..n_pending {
                pending.push_back(r.u64()?);
            }
            inst_states.push(InstState {
                rep_cpu,
                idle_workers,
                pending,
                outstanding: r.usize()?,
                up: r.bool()?,
                demand_factor: r.f64()?,
            });
        }
        let n_bal = r.usize()?;
        if n_bal != self.balancers.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n_bal} balancers, engine has {}",
                self.balancers.len()
            )));
        }
        for b in &mut self.balancers {
            b.snap_restore(r)?;
        }
        let n_workers = r.usize()?;
        if n_workers != self.workers.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n_workers} workers, engine has {}",
                self.workers.len()
            )));
        }
        let mut worker_jobs = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            worker_jobs.push(Option::<u64>::load(r)?);
        }
        // The hot slabs reload *in place* so their allocations survive the
        // restore: the speculative-rollback path (`microsvc::shard`) restores
        // the same engine once per rollback, and replacing these vectors
        // would churn the allocator on every one. On error the engine is
        // discarded (see the method contract), so committing them before the
        // shape checks below is safe.
        simcore::snap::load_vec_into(&mut self.jobs, r)?;
        simcore::snap::load_vec_into(&mut self.free_jobs, r)?;
        simcore::snap::load_vec_into(&mut self.requests, r)?;
        simcore::snap::load_vec_into(&mut self.free_requests, r)?;
        let submitted_total = r.u64()?;
        let exec = Vec::<Option<CpuExec>>::load(r)?;
        let next_gen = r.u64()?;
        self.metrics.snap_restore(r)?;
        let baseline = SchedStats {
            wakeups: r.u64()?,
            context_switches: r.u64()?,
            migrations: r.u64()?,
            steals: r.u64()?,
        };
        let demand_rng = Rng::load(r)?;
        let driver_rng = Rng::load(r)?;
        let fault_rng = Rng::load(r)?;
        let resil_rng = Rng::load(r)?;
        let n_brk = r.usize()?;
        if n_brk != self.breakers.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n_brk} circuit breakers, engine has {}",
                self.breakers.len()
            )));
        }
        for brk in &mut self.breakers {
            brk.snap_restore(r)?;
        }
        match (r.u8()?, self.overload.as_mut()) {
            (0, None) => {}
            (1, Some(ov)) => {
                let n_lim = r.usize()?;
                if n_lim != ov.limiters.len() {
                    return Err(SnapError::Corrupt(format!(
                        "snapshot has {n_lim} AIMD limiters, engine has {}",
                        ov.limiters.len()
                    )));
                }
                for lim in &mut ov.limiters {
                    lim.snap_restore(r)?;
                }
                let n_bud = r.usize()?;
                if n_bud != ov.budgets.len() {
                    return Err(SnapError::Corrupt(format!(
                        "snapshot has {n_bud} retry budgets, engine has {}",
                        ov.budgets.len()
                    )));
                }
                for budget in &mut ov.budgets {
                    budget.snap_restore(r)?;
                }
            }
            (0, Some(_)) => {
                return Err(SnapError::Corrupt(
                    "snapshot has no overload state, but the engine enables overload control"
                        .into(),
                ))
            }
            (1, None) => {
                return Err(SnapError::Corrupt(
                    "snapshot carries overload state, but the engine disables overload control"
                        .into(),
                ))
            }
            (tag, _) => {
                return Err(SnapError::Corrupt(format!(
                    "unknown overload-state tag {tag}"
                )))
            }
        }
        let stop_requested = r.bool()?;
        self.tracer.snap_restore(r)?;
        let boost_bucket = r.u32()?;
        let events_processed = r.u64()?;

        // Cheap shape checks: every slab cross-reference must stay in range.
        for (idx, st) in inst_states.iter().enumerate() {
            if let Some(&bad) = st.idle_workers.iter().find(|&&wk| wk >= n_workers) {
                return Err(SnapError::Corrupt(format!(
                    "instance {idx} lists idle worker {bad}, engine has {n_workers}"
                )));
            }
            if let Some(&bad) = st.pending.iter().find(|&&j| j as usize >= self.jobs.len()) {
                return Err(SnapError::Corrupt(format!(
                    "instance {idx} queues job {bad}, slab holds {}",
                    self.jobs.len()
                )));
            }
        }
        if let Some(bad) = worker_jobs
            .iter()
            .flatten()
            .find(|&&j| j as usize >= self.jobs.len())
        {
            return Err(SnapError::Corrupt(format!(
                "a worker holds job {bad}, slab holds {}",
                self.jobs.len()
            )));
        }
        if exec.len() != num_cpus {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {} execution slots, machine has {num_cpus} cpus",
                exec.len()
            )));
        }
        let mut executing = vec![false; n_workers];
        for (cpu, e) in exec
            .iter()
            .enumerate()
            .filter_map(|(c, e)| e.map(|e| (c, e)))
        {
            if e.worker >= n_workers {
                return Err(SnapError::Corrupt(format!(
                    "cpu {cpu} executes worker {}, engine has {n_workers}",
                    e.worker
                )));
            }
            if worker_jobs[e.worker].is_none() {
                return Err(SnapError::Corrupt(format!(
                    "cpu {cpu} executes worker {}, which holds no job",
                    e.worker
                )));
            }
            if std::mem::replace(&mut executing[e.worker], true) {
                return Err(SnapError::Corrupt(format!(
                    "worker {} executes on two cpus",
                    e.worker
                )));
            }
            if self.sched.running_on(CpuId(cpu as u32)) != Some(self.workers[e.worker].task) {
                return Err(SnapError::Corrupt(format!(
                    "cpu {cpu} executes worker {}, but the scheduler does not run its task there",
                    e.worker
                )));
            }
            if e.since > cal.now() {
                return Err(SnapError::Corrupt(format!(
                    "cpu {cpu} has run since {}, after the clock at {}",
                    e.since,
                    cal.now()
                )));
            }
        }

        self.cal = cal;
        for (inst, st) in self.instances.iter_mut().zip(inst_states) {
            inst.rep_cpu = CpuId(st.rep_cpu);
            inst.idle_workers = st.idle_workers;
            inst.pending = st.pending;
            inst.outstanding = st.outstanding;
            inst.up = st.up;
            inst.demand_factor = st.demand_factor;
        }
        for (wk, job) in self.workers.iter_mut().zip(worker_jobs) {
            wk.job = job;
        }
        self.submitted_total = submitted_total;
        for (slot, e) in self.cpu_instance.iter_mut().zip(&exec) {
            *slot = e.map_or(IDLE_CPU, |e| self.workers[e.worker].instance as u32);
        }
        self.exec = exec;
        self.next_gen = next_gen;
        self.sched_stats_baseline = baseline;
        self.demand_rng = demand_rng;
        self.driver_rng = driver_rng;
        self.fault_rng = fault_rng;
        self.resil_rng = resil_rng;
        self.stop_requested = stop_requested;
        self.boost_bucket = boost_bucket;
        self.events_processed = events_processed;
        Ok(())
    }

    /// Deterministically perturbs all four random streams with `salt`,
    /// branching a restored snapshot onto a different random trajectory
    /// while keeping everything else (queues, clocks, in-flight work)
    /// byte-identical to the checkpoint.
    pub fn perturb_rngs(&mut self, salt: u64) {
        self.demand_rng.perturb(salt);
        self.driver_rng.perturb(salt);
        self.fault_rng.perturb(salt);
        self.resil_rng.perturb(salt);
    }

    /// Installs a fault plan into a running (typically just-restored) engine
    /// whose own plan is empty, scheduling the plan's crash/slowdown events
    /// into the live calendar. This is the fork-at-the-trigger primitive of
    /// the chaos search: one warm fault-free snapshot taken at the trigger
    /// instant is branched into many engines, each continuing under a
    /// different candidate plan. Because the engine's configuration
    /// fingerprint covers the fault plan, a snapshot can only be restored
    /// into an engine with the *same* (empty) plan — the divergent plan is
    /// applied here, after the restore, exactly like the other branch
    /// overrides.
    ///
    /// # Panics
    ///
    /// Panics if the engine already has a fault plan (the slowdown events in
    /// the calendar index it by position, so merging would be ambiguous), if
    /// the plan fails [`FaultPlan`] validation against this deployment, or if
    /// any fault activity starts before the current simulation time (the
    /// shared history must be fault-free for the fork to be meaningful).
    pub fn install_fault_plan(&mut self, faults: FaultPlan) {
        assert!(
            self.params.faults.is_empty(),
            "install_fault_plan requires an engine with an empty fault plan"
        );
        faults.validate(self.instances.len());
        let now = self.now();
        let starts_late = |at: SimTime, what: &str| {
            assert!(
                at >= now,
                "fault plan {what} starts at {at}, before the branch point {now}"
            );
        };
        for c in &faults.crashes {
            starts_late(c.at, "crash");
            let instance = c.instance.0;
            self.cal.schedule(c.at, Event::CrashStart { instance });
            self.cal
                .schedule(c.at + c.restart_after, Event::CrashEnd { instance });
        }
        for (idx, s) in faults.slowdowns.iter().enumerate() {
            starts_late(s.from, "slowdown");
            let instance = s.instance.0;
            self.cal.schedule(
                s.from,
                Event::SlowStart {
                    instance,
                    slowdown: idx as u32,
                },
            );
            self.cal.schedule(s.until, Event::SlowEnd { instance });
        }
        for r in &faults.reply_faults {
            starts_late(r.from, "reply fault");
        }
        self.fault_aware = self.fault_aware || !faults.is_empty();
        self.params.faults = faults;
    }

    /// Multiplies every instance's CPU-demand factor by `factor`: a what-if
    /// override for branched runs ("same history, x% more expensive requests
    /// from here on").
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn apply_demand_scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "demand scale must be positive and finite, got {factor}"
        );
        if factor == 1.0 {
            return;
        }
        for inst in &mut self.instances {
            inst.demand_factor *= factor;
        }
    }
}

use simcore::snap::{Fnv64, Snap, SnapError, SnapReader, SnapWriter};
use std::fmt::Write as _;

impl Snap for Event {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Event::Timer(token) => {
                w.u8(0);
                w.u64(token);
            }
            Event::WorkDone { cpu, gen } => {
                w.u8(1);
                w.u32(cpu);
                w.u64(gen);
            }
            Event::Quantum { cpu, gen } => {
                w.u8(2);
                w.u32(cpu);
                w.u64(gen);
            }
            Event::JobArrive { job } => {
                w.u8(3);
                w.u64(job);
            }
            Event::ReplyArrive { child } => {
                w.u8(4);
                w.u64(child);
            }
            Event::ClientReply { job } => {
                w.u8(5);
                w.u64(job);
            }
            Event::CallTimeout { job } => {
                w.u8(6);
                w.u64(job);
            }
            Event::ClientFail { request, cause } => {
                w.u8(7);
                w.u64(request);
                cause.save(w);
            }
            Event::CallRejected { job, reason } => {
                w.u8(8);
                w.u64(job);
                reason.save(w);
            }
            Event::CrashStart { instance } => {
                w.u8(9);
                w.u32(instance);
            }
            Event::CrashEnd { instance } => {
                w.u8(10);
                w.u32(instance);
            }
            Event::SlowStart { instance, slowdown } => {
                w.u8(11);
                w.u32(instance);
                w.u32(slowdown);
            }
            Event::SlowEnd { instance } => {
                w.u8(12);
                w.u32(instance);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Event::Timer(r.u64()?),
            1 => Event::WorkDone {
                cpu: r.u32()?,
                gen: r.u64()?,
            },
            2 => Event::Quantum {
                cpu: r.u32()?,
                gen: r.u64()?,
            },
            3 => Event::JobArrive { job: r.u64()? },
            4 => Event::ReplyArrive { child: r.u64()? },
            5 => Event::ClientReply { job: r.u64()? },
            6 => Event::CallTimeout { job: r.u64()? },
            7 => Event::ClientFail {
                request: r.u64()?,
                cause: FaultCause::load(r)?,
            },
            8 => Event::CallRejected {
                job: r.u64()?,
                reason: ShedReason::load(r)?,
            },
            9 => Event::CrashStart { instance: r.u32()? },
            10 => Event::CrashEnd { instance: r.u32()? },
            11 => Event::SlowStart {
                instance: r.u32()?,
                slowdown: r.u32()?,
            },
            12 => Event::SlowEnd { instance: r.u32()? },
            other => return Err(SnapError::Corrupt(format!("unknown Event tag {other}"))),
        })
    }
}

impl Snap for Phase {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Phase::Pre => w.u8(0),
            Phase::StageSend(s) => {
                w.u8(1);
                w.u8(s);
            }
            Phase::WaitStage(s) => {
                w.u8(2);
                w.u8(s);
            }
            Phase::Post => w.u8(3),
            Phase::Done => w.u8(4),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Phase::Pre,
            1 => Phase::StageSend(r.u8()?),
            2 => Phase::WaitStage(r.u8()?),
            3 => Phase::Post,
            4 => Phase::Done,
            other => return Err(SnapError::Corrupt(format!("unknown Phase tag {other}"))),
        })
    }
}

impl Snap for Job {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.request);
        w.u32(self.class);
        w.u32(self.node);
        w.u32(self.instance);
        self.parent.save(w);
        self.phase.save(w);
        self.pending.save(w);
        w.u8(self.attempt);
        w.u8(self.flags);
        w.u8(self.refs);
        w.f64(self.remaining_cycles);
        self.enqueued_at.save(w);
        self.span.save(w);
        self.timeout_token.save(w);
        self.worker.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Job {
            request: r.u32()?,
            class: r.u32()?,
            node: r.u32()?,
            instance: r.u32()?,
            parent: Option::<u32>::load(r)?,
            phase: Phase::load(r)?,
            pending: u16::load(r)?,
            attempt: r.u8()?,
            flags: r.u8()?,
            refs: r.u8()?,
            remaining_cycles: r.f64()?,
            enqueued_at: SimTime::load(r)?,
            span: Option::<u32>::load(r)?,
            timeout_token: Option::<EventToken>::load(r)?,
            worker: Option::<u32>::load(r)?,
        })
    }
}

impl Snap for RequestInfo {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.id);
        w.u64(self.client);
        self.submitted_at.save(w);
        w.u32(self.class);
        w.u32(self.refs);
        w.u8(self.flags);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RequestInfo {
            id: r.u64()?,
            client: r.u64()?,
            submitted_at: SimTime::load(r)?,
            class: r.u32()?,
            refs: r.u32()?,
            flags: r.u8()?,
        })
    }
}

impl Snap for CpuExec {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.worker);
        w.f64(self.rate);
        w.f64(self.wall_rate);
        w.bool(self.ctx.smt_sibling_busy);
        w.f64(self.ctx.ccx_pressure);
        w.bool(self.ctx.numa_local);
        self.since.save(w);
        w.u64(self.gen);
        self.done_token.save(w);
        self.quantum_token.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CpuExec {
            worker: r.usize()?,
            rate: r.f64()?,
            wall_rate: r.f64()?,
            ctx: ExecContext {
                smt_sibling_busy: r.bool()?,
                ccx_pressure: r.f64()?,
                numa_local: r.bool()?,
            },
            since: SimTime::load(r)?,
            gen: r.u64()?,
            done_token: EventToken::load(r)?,
            quantum_token: EventToken::load(r)?,
        })
    }
}

// EngineCtx is how drivers see the engine.
impl EngineCtx for Engine {
    fn now(&self) -> SimTime {
        self.cal.now()
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.cal.schedule(self.now() + after, Event::Timer(token));
    }

    fn submit(&mut self, class: u32, client: u64) -> RequestId {
        let class = class as usize;
        assert!(class < self.classes.len(), "unknown request class {class}");
        // The externally visible id is the submission ordinal — stable under
        // slot recycling, so traces and reports match the pre-slab engine.
        let ordinal = self.submitted_total;
        self.submitted_total += 1;
        self.metrics.submitted_per_class[class] += 1;
        let info = RequestInfo {
            id: ordinal,
            class: class as u32,
            client,
            submitted_at: self.now(),
            flags: 0,
            refs: 0,
        };
        let request_id = match self.free_requests.pop() {
            Some(slot) => {
                self.requests[slot as usize] = info;
                slot as u64
            }
            None => {
                self.requests.push(info);
                (self.requests.len() - 1) as u64
            }
        };
        let now = self.now();
        self.tracer.maybe_open(
            ordinal,
            RequestId(ordinal),
            RequestClassId(class as u32),
            now,
        );
        // Entry job at the class's root service. Clients are remote, so
        // locality-aware balancing is meaningless for them: ingress always
        // picks the least-loaded entry instance (what a front-end proxy
        // does), regardless of the inter-service LB policy.
        self.dispatch_root_attempt(request_id, SimDuration::ZERO, 0);
        RequestId(ordinal)
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.driver_rng
    }

    fn reset_metrics(&mut self) {
        let now = self.now();
        // Flush all in-progress slices so pre-reset work lands in the old
        // window, then zero the accumulators.
        let busy: Vec<CpuId> = self
            .topo
            .all_cpus()
            .iter()
            .filter(|c| self.exec[c.index()].is_some())
            .collect();
        for cpu in busy.iter() {
            self.flush_progress(*cpu);
        }
        self.metrics.reset(now);
        self.sched_stats_baseline = self.sched.stats();
        // Re-establish current busy levels in the fresh time-weighted clocks.
        for cpu in busy {
            let worker = self.exec[cpu.index()].expect("still busy").worker;
            let service = self.instances[self.workers[worker].instance].service;
            self.metrics.per_service[service].busy.add(now, 1.0);
            self.metrics.busy_cpus.add(now, 1.0);
        }
    }

    fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    fn completed_requests(&self) -> u64 {
        self.metrics.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallNode, CallStage, Demand, ServiceSpec};
    use crate::ids::ServiceId;
    use uarch::ServiceProfile;

    fn one_service_app(demand_us: f64) -> (AppSpec, ServiceId) {
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class(
            "ping",
            1.0,
            CallNode::leaf(svc, Demand::fixed_us(demand_us)),
        );
        (app, svc)
    }

    struct CountingDriver {
        submit_n: u32,
        done: u32,
        latencies: Vec<SimDuration>,
        outcomes: Vec<Outcome>,
    }

    impl CountingDriver {
        fn new(n: u32) -> Self {
            CountingDriver {
                submit_n: n,
                done: 0,
                latencies: Vec::new(),
                outcomes: Vec::new(),
            }
        }
    }

    impl Driver for CountingDriver {
        fn start(&mut self, ctx: &mut dyn EngineCtx) {
            for client in 0..self.submit_n {
                ctx.submit(0, client as u64);
            }
        }
        fn on_response(&mut self, resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
            self.done += 1;
            self.latencies.push(resp.latency);
            self.outcomes.push(resp.outcome);
        }
    }

    fn run_simple(
        n: u32,
        demand_us: f64,
        instances: usize,
        threads: usize,
    ) -> (CountingDriver, RunReport) {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(demand_us);
        let deployment = Deployment::uniform(&app, &topo, instances, threads);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 7);
        let mut driver = CountingDriver::new(n);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        (driver, report)
    }

    #[test]
    fn single_request_completes_with_sane_latency() {
        let (driver, report) = run_simple(1, 500.0, 1, 1);
        assert_eq!(driver.done, 1);
        assert_eq!(report.completed, 1);
        let lat = driver.latencies[0];
        // Floor: 2× client latency (120µs each way) + 500µs of work.
        assert!(lat >= SimDuration::from_micros(740), "latency {lat}");
        // And it should not be wildly above that on an idle machine.
        assert!(lat <= SimDuration::from_micros(760), "latency {lat}");
    }

    #[test]
    fn all_requests_complete() {
        let (driver, report) = run_simple(64, 300.0, 2, 4);
        assert_eq!(driver.done, 64);
        assert_eq!(report.completed, 64);
        assert_eq!(report.services[0].jobs_completed, 64);
    }

    #[test]
    fn thread_pool_limits_concurrency() {
        // 1 instance × 1 thread: strictly serial service times.
        let (driver, _) = run_simple(8, 1000.0, 1, 1);
        let max = driver.latencies.iter().max().expect("has latencies");
        // The 8th request waits for 7 × 1ms of service ahead of it.
        assert!(
            *max >= SimDuration::from_micros(8 * 1000),
            "serialized tail should exceed 8ms, got {max}"
        );
        // 8 threads: near-parallel.
        let (driver2, _) = run_simple(8, 1000.0, 1, 8);
        let max2 = driver2.latencies.iter().max().expect("has latencies");
        assert!(
            *max2 < SimDuration::from_micros(3500),
            "parallel tail should be small, got {max2}"
        );
    }

    #[test]
    fn queue_wait_is_measured() {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(1000.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 7);
        let mut driver = CountingDriver::new(4);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        assert!(
            report.services[0].mean_queue_wait > SimDuration::from_micros(100),
            "queued requests must record waiting time, got {}",
            report.services[0].mean_queue_wait
        );
    }

    #[test]
    fn fan_out_calls_run_in_parallel() {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let front = app.add_service(ServiceSpec::new(
            "front",
            ServiceProfile::light_rpc("front"),
        ));
        let back = app.add_service(ServiceSpec::new("back", ServiceProfile::light_rpc("back")));
        let fan = CallNode::new(
            front,
            Demand::fixed_us(50.0),
            vec![CallStage {
                parallel: (0..4)
                    .map(|_| CallNode::leaf(back, Demand::fixed_us(500.0)))
                    .collect(),
            }],
            Demand::fixed_us(50.0),
        );
        app.add_class("fanout", 1.0, fan);
        let deployment = Deployment::uniform(&app, &topo, 2, 8);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 11);
        let mut driver = CountingDriver::new(1);
        engine.run(&mut driver, SimTime::from_secs(5));
        assert_eq!(driver.done, 1);
        let lat = driver.latencies[0];
        // Parallel: ~client RTT + front work + one back leg (+RPC overheads),
        // far below the ~2.3ms a serial execution of 4×500µs would take.
        assert!(
            lat < SimDuration::from_micros(1600),
            "fan-out should overlap backend work, got {lat}"
        );
        let report = engine.report();
        assert_eq!(report.services[back.index()].jobs_completed, 4);
    }

    #[test]
    fn sequential_stages_serialize() {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let front = app.add_service(ServiceSpec::new(
            "front",
            ServiceProfile::light_rpc("front"),
        ));
        let back = app.add_service(ServiceSpec::new("back", ServiceProfile::light_rpc("back")));
        let two_stages = CallNode::new(
            front,
            Demand::fixed_us(50.0),
            vec![
                CallStage {
                    parallel: vec![CallNode::leaf(back, Demand::fixed_us(500.0))],
                },
                CallStage {
                    parallel: vec![CallNode::leaf(back, Demand::fixed_us(500.0))],
                },
            ],
            Demand::ZERO,
        );
        app.add_class("seq", 1.0, two_stages);
        let deployment = Deployment::uniform(&app, &topo, 2, 8);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 11);
        let mut driver = CountingDriver::new(1);
        engine.run(&mut driver, SimTime::from_secs(5));
        let lat = driver.latencies[0];
        assert!(
            lat > SimDuration::from_micros(1200),
            "two sequential 500µs stages cannot finish in {lat}"
        );
    }

    #[test]
    fn throughput_reflects_parallelism() {
        // Closed burst of 400 × 200µs requests on 16 logical CPUs.
        let (_, report) = run_simple(400, 200.0, 4, 8);
        assert_eq!(report.completed, 400);
        assert!(report.avg_busy_cpus > 1.0, "work should overlap");
        assert!(
            report.throughput_rps > 1000.0,
            "rps {}",
            report.throughput_rps
        );
    }

    #[test]
    fn utilization_and_counters_populate() {
        let (_, report) = run_simple(200, 400.0, 2, 8);
        let svc = &report.services[0];
        assert!(svc.avg_busy_cpus > 0.0);
        assert!(svc.counters.instructions > 0);
        assert!(svc.metrics.ipc > 0.5 && svc.metrics.ipc < 1.5);
        assert!(report.machine_metrics.kernel_frac > 0.0);
        assert!(report.cpu_utilization > 0.0 && report.cpu_utilization <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (d1, r1) = run_simple(100, 300.0, 2, 4);
        let (d2, r2) = run_simple(100, 300.0, 2, 4);
        assert_eq!(d1.latencies, d2.latencies);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.sched.context_switches, r2.sched.context_switches);
        assert_eq!(
            r1.services[0].counters.instructions,
            r2.services[0].counters.instructions
        );
    }

    #[test]
    fn different_seeds_differ() {
        let topo = Arc::new(Topology::desktop_8c());
        let mut lats = Vec::new();
        for seed in [1u64, 2] {
            let mut app = AppSpec::new();
            let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
            app.add_class(
                "ping",
                1.0,
                CallNode::leaf(svc, Demand::lognormal_us(300.0, 0.5)),
            );
            let deployment = Deployment::uniform(&app, &topo, 1, 4);
            let mut engine =
                Engine::new(topo.clone(), EngineParams::default(), app, deployment, seed);
            let mut driver = CountingDriver::new(50);
            engine.run(&mut driver, SimTime::from_secs(5));
            lats.push(std::mem::take(&mut driver.latencies));
        }
        assert_ne!(lats[0], lats[1]);
    }

    #[test]
    fn reset_metrics_opens_fresh_window() {
        struct TwoPhase {
            phase2: bool,
        }
        impl Driver for TwoPhase {
            fn start(&mut self, ctx: &mut dyn EngineCtx) {
                for c in 0..20 {
                    ctx.submit(0, c);
                }
                ctx.set_timer(SimDuration::from_millis(50), 1);
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut dyn EngineCtx) {
                self.phase2 = true;
                ctx.reset_metrics();
                for c in 0..5 {
                    ctx.submit(0, c);
                }
            }
        }
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(200.0);
        let deployment = Deployment::uniform(&app, &topo, 2, 8);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 3);
        let mut driver = TwoPhase { phase2: false };
        engine.run(&mut driver, SimTime::from_secs(2));
        assert!(driver.phase2);
        let report = engine.report();
        assert_eq!(report.completed, 5, "only post-reset completions count");
    }

    #[test]
    fn driver_timers_fire_in_order() {
        struct TimerDriver {
            fired: Vec<u64>,
        }
        impl Driver for TimerDriver {
            fn start(&mut self, ctx: &mut dyn EngineCtx) {
                ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(3), 3);
            }
            fn on_timer(&mut self, token: u64, _ctx: &mut dyn EngineCtx) {
                self.fired.push(token);
            }
        }
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(100.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 3);
        let mut driver = TimerDriver { fired: Vec::new() };
        engine.run(&mut driver, SimTime::from_secs(1));
        assert_eq!(driver.fired, vec![1, 2, 3]);
    }

    #[test]
    fn request_stop_halts_engine() {
        struct Stopper;
        impl Driver for Stopper {
            fn start(&mut self, ctx: &mut dyn EngineCtx) {
                ctx.submit(0, 0);
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut dyn EngineCtx) {
                ctx.request_stop();
            }
        }
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(100.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 3);
        let mut driver = Stopper;
        engine.run(&mut driver, SimTime::from_secs(1));
        assert_eq!(engine.report().completed, 0, "stopped before completion");
        assert!(engine.now() < SimTime::from_millis(1));
    }

    #[test]
    fn pinned_deployment_stays_on_its_cpus() {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, svc) = one_service_app(500.0);
        let ccx0 = topo.cpus_in_ccx(cputopo::CcxId(0)).clone();
        let mut deployment = Deployment::empty(&app);
        deployment.add_instance(
            svc,
            crate::deploy::InstanceConfig {
                affinity: ccx0,
                threads: 8,
                mem_node: None,
            },
        );
        let mut engine = Engine::new(topo.clone(), EngineParams::default(), app, deployment, 9);
        let mut driver = CountingDriver::new(100);
        engine.run(&mut driver, SimTime::from_secs(10));
        assert_eq!(driver.done, 100);
        // No CPU outside CCX 0 may ever have executed: utilization says ≤ 8.
        let report = engine.report();
        assert!(report.services[0].peak_busy_cpus <= 8.0 + 1e-9);
    }

    #[test]
    fn frequency_boost_speeds_up_an_idle_machine() {
        let run = |boost: uarch::BoostModel| {
            let topo = Arc::new(Topology::desktop_8c());
            let (app, _) = one_service_app(2_000.0);
            let deployment = Deployment::uniform(&app, &topo, 1, 2);
            let mut params = EngineParams::default();
            params.uarch.boost = boost;
            let mut engine = Engine::new(topo, params, app, deployment, 3);
            let mut driver = CountingDriver::new(1);
            engine.run(&mut driver, SimTime::from_secs(5));
            driver.latencies[0]
        };
        let flat = run(uarch::BoostModel::Flat);
        let boosted = run(uarch::BoostModel::zen2_like());
        // One task on an otherwise idle machine runs in the full-boost
        // bucket: its 2 ms of work shrinks by ~1/1.25.
        assert!(
            boosted < flat,
            "boost must shorten idle-machine latency: {boosted} vs {flat}"
        );
        let ratio = flat.as_nanos() as f64 / boosted.as_nanos() as f64;
        assert!(ratio > 1.1 && ratio < 1.3, "boost ratio {ratio}");
    }

    #[test]
    fn cross_socket_calls_cost_more_than_local_ones() {
        // front → back, both pinned; back either on the same CCX or on the
        // other socket of a 2P machine.
        let topo = Arc::new(Topology::zen2_2p_128c());
        let run = |back_cpu_base: u32| {
            let mut app = AppSpec::new();
            let front = app.add_service(ServiceSpec::new(
                "front",
                ServiceProfile::light_rpc("front"),
            ));
            let back = app.add_service(ServiceSpec::new("back", ServiceProfile::light_rpc("back")));
            app.add_class(
                "call",
                1.0,
                CallNode::new(
                    front,
                    Demand::fixed_us(100.0),
                    vec![CallStage {
                        parallel: vec![CallNode::leaf(back, Demand::fixed_us(100.0))],
                    }],
                    Demand::ZERO,
                ),
            );
            let mut deployment = Deployment::empty(&app);
            deployment.add_instance(
                front,
                crate::deploy::InstanceConfig {
                    affinity: topo.cpus_in_ccx(cputopo::CcxId(0)).clone(),
                    threads: 4,
                    mem_node: None,
                },
            );
            deployment.add_instance(
                back,
                crate::deploy::InstanceConfig {
                    affinity: topo.cpus_in_ccx(topo.ccx_of(CpuId(back_cpu_base))).clone(),
                    threads: 4,
                    mem_node: None,
                },
            );
            let mut engine = Engine::new(topo.clone(), EngineParams::default(), app, deployment, 5);
            let mut driver = CountingDriver::new(1);
            engine.run(&mut driver, SimTime::from_secs(5));
            driver.latencies[0]
        };
        let local = run(1); // ccx 0 (same as front)
        let remote = run(64); // first core of socket 1
                              // Two extra cross-socket legs plus heavier endpoint work.
        assert!(
            remote > local + SimDuration::from_micros(25),
            "cross-socket call must be visibly slower: {local} vs {remote}"
        );
    }

    #[test]
    fn self_call_trees_deadlock_like_real_containers() {
        // A service that synchronously calls itself with an exhausted pool
        // deadlocks: the root job holds the only worker while its child
        // waits for one. Servlet containers behave identically; the engine
        // reproduces it rather than papering over it.
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let svc = app.add_service(
            ServiceSpec::new("reentrant", ServiceProfile::light_rpc("reentrant")).with_threads(1),
        );
        let self_call = CallNode::new(
            svc,
            Demand::fixed_us(50.0),
            vec![CallStage {
                parallel: vec![CallNode::leaf(svc, Demand::fixed_us(50.0))],
            }],
            Demand::ZERO,
        );
        app.add_class("self", 1.0, self_call);
        let mut deployment = Deployment::empty(&app);
        deployment.add_instance(
            svc,
            crate::deploy::InstanceConfig {
                affinity: topo.all_cpus().clone(),
                threads: 1,
                mem_node: None,
            },
        );
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 1);
        let mut driver = CountingDriver::new(1);
        engine.run(&mut driver, SimTime::from_secs(2));
        assert_eq!(
            driver.done, 0,
            "self-call with a 1-thread pool must deadlock"
        );
        // With two threads the same tree completes.
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let svc = app.add_service(
            ServiceSpec::new("reentrant", ServiceProfile::light_rpc("reentrant")).with_threads(2),
        );
        let self_call = CallNode::new(
            svc,
            Demand::fixed_us(50.0),
            vec![CallStage {
                parallel: vec![CallNode::leaf(svc, Demand::fixed_us(50.0))],
            }],
            Demand::ZERO,
        );
        app.add_class("self", 1.0, self_call);
        let deployment = Deployment::uniform(&app, &topo, 1, 2);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 1);
        let mut driver = CountingDriver::new(1);
        engine.run(&mut driver, SimTime::from_secs(2));
        assert_eq!(driver.done, 1, "two threads break the cycle");
    }

    #[test]
    fn smt_contention_stretches_latency() {
        // Two tasks pinned to the two hyperthreads of one core run slower
        // than two tasks on two different cores.
        let topo = Arc::new(Topology::desktop_8c());
        let run = |cpu_a: u32, cpu_b: u32| -> SimDuration {
            let mut app = AppSpec::new();
            let svc = app.add_service(
                ServiceSpec::new("api", ServiceProfile::light_rpc("api")).with_threads(1),
            );
            app.add_class("ping", 1.0, CallNode::leaf(svc, Demand::fixed_us(2000.0)));
            let mut deployment = Deployment::empty(&app);
            for cpu in [cpu_a, cpu_b] {
                deployment.add_instance(
                    svc,
                    crate::deploy::InstanceConfig {
                        affinity: [CpuId(cpu)].into_iter().collect(),
                        threads: 1,
                        mem_node: None,
                    },
                );
            }
            let mut engine = Engine::new(topo.clone(), EngineParams::default(), app, deployment, 5);
            let mut driver = CountingDriver::new(2);
            engine.run(&mut driver, SimTime::from_secs(5));
            *driver.latencies.iter().max().expect("ran")
        };
        let separate = run(0, 1); // two cores of ccx0
        let siblings = run(0, 8); // hyperthreads of core 0
        assert!(
            siblings > separate.mul_f64(1.3),
            "SMT co-run {siblings} should be ≫ separate cores {separate}"
        );
    }

    // ------------------------------------------------ faults and resilience

    use crate::fault::FaultPlan;
    use crate::resilience::{BreakerPolicy, ResilienceParams, RetryPolicy};

    fn run_with_params(
        params: EngineParams,
        n: u32,
        demand_us: f64,
        instances: usize,
        threads: usize,
        seed: u64,
    ) -> (CountingDriver, RunReport) {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(demand_us);
        let deployment = Deployment::uniform(&app, &topo, instances, threads);
        let mut engine = Engine::new(topo, params, app, deployment, seed);
        let mut driver = CountingDriver::new(n);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        (driver, report)
    }

    #[test]
    fn inert_fault_plan_is_byte_identical() {
        // A fault plan whose only event fires after the horizon turns the
        // fault-aware code paths on without ever perturbing the run: every
        // latency and the full report must match the plain engine exactly.
        let (base_driver, base_report) = run_simple(64, 300.0, 2, 4);
        let params = EngineParams {
            faults: FaultPlan::none().crash(
                InstanceId(0),
                SimTime::from_secs(3600),
                SimDuration::from_secs(1),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 64, 300.0, 2, 4, 7);
        assert_eq!(driver.latencies, base_driver.latencies);
        assert_eq!(report.summary(), base_report.summary());
    }

    #[test]
    fn unexercised_resilience_is_byte_identical() {
        // Resilience with a timeout no request can hit arms (and cancels)
        // extra calendar events but must not change any observable result:
        // no retry RNG draw, no breaker ejection, identical latencies.
        let (base_driver, base_report) = run_simple(64, 300.0, 2, 4);
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default().with_timeout(SimDuration::from_secs(3600)),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 64, 300.0, 2, 4, 7);
        assert_eq!(driver.latencies, base_driver.latencies);
        assert_eq!(report.summary(), base_report.summary());
    }

    #[test]
    fn timeouts_exhaust_retries_and_fail_the_request() {
        // 50ms of demand against a 5ms timeout: every attempt times out and
        // the client sees a TimedOut outcome after the full retry budget.
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default()
                    .with_timeout(SimDuration::from_millis(5))
                    .with_retry(RetryPolicy {
                        max_retries: 2,
                        ..RetryPolicy::default()
                    })
                    .with_breaker(None),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 4, 50_000.0, 1, 1, 7);
        assert_eq!(driver.done, 4, "failed requests still get a response");
        assert!(driver.outcomes.iter().all(|o| *o == Outcome::TimedOut));
        assert_eq!(report.requests_timed_out, 4);
        assert_eq!(report.completed, 0);
        // 3 attempts per request (1 + 2 retries), each timing out.
        assert_eq!(report.services[0].timeouts, 12);
        assert_eq!(report.services[0].retries, 8);
        assert_eq!(
            report.completed + report.requests_timed_out + report.requests_shed,
            4,
            "every request resolves exactly once"
        );
    }

    #[test]
    fn open_breaker_sheds_at_ingress() {
        // A single overwhelmed instance: the breaker trips after 5
        // consecutive timeouts and subsequent dispatches are refused.
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default()
                    .with_timeout(SimDuration::from_millis(5))
                    .with_breaker(Some(BreakerPolicy::default())),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 32, 50_000.0, 1, 1, 7);
        assert_eq!(driver.done, 32);
        assert!(
            report.services[0].breaker_opened >= 1,
            "breaker must trip: {}",
            report.summary()
        );
        assert!(
            driver.outcomes.contains(&Outcome::Shed),
            "dispatches against an open breaker must shed"
        );
        assert_eq!(
            report.completed + report.requests_timed_out + report.requests_shed,
            32
        );
    }

    #[test]
    fn exhausted_downstream_call_falls_back() {
        // front → back where back's demand dwarfs the timeout: the back call
        // times out, retries are disabled, and front serves a degraded reply
        // instead of hanging — the client still sees Ok.
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let front = app.add_service(ServiceSpec::new(
            "front",
            ServiceProfile::light_rpc("front"),
        ));
        let back = app.add_service(ServiceSpec::new("back", ServiceProfile::light_rpc("back")));
        let tree = CallNode::new(
            front,
            Demand::fixed_us(50.0),
            vec![CallStage {
                parallel: vec![CallNode::leaf(back, Demand::fixed_us(50_000.0))],
            }],
            Demand::fixed_us(50.0),
        );
        app.add_class("page", 1.0, tree);
        let deployment = Deployment::uniform(&app, &topo, 1, 2);
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default()
                    // The entry call gets a generous deadline; only the back
                    // call is tight — exercising per-service overrides.
                    .with_timeout(SimDuration::from_secs(1))
                    .with_service_timeout(back, SimDuration::from_millis(5))
                    .with_retry(RetryPolicy {
                        max_retries: 0,
                        ..RetryPolicy::default()
                    })
                    .with_breaker(None),
            ),
            ..EngineParams::default()
        };
        let mut engine = Engine::new(topo, params, app, deployment, 7);
        let mut driver = CountingDriver::new(2);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        assert_eq!(driver.done, 2);
        assert!(driver.outcomes.iter().all(|o| *o == Outcome::Ok));
        // Timeouts, retries, and fallbacks are all attributed to the callee
        // service — the one whose calls misbehaved.
        assert_eq!(report.services[back.index()].timeouts, 2);
        assert_eq!(report.services[back.index()].fallbacks, 2);
        assert_eq!(report.services[front.index()].fallbacks, 0);
        // The fallback answers right at the deadline, so the end-to-end
        // latency sits just above the 5ms timeout, far below back's 50ms.
        for lat in &driver.latencies {
            assert!(
                *lat >= SimDuration::from_millis(5) && *lat < SimDuration::from_millis(10),
                "fallback latency should hug the timeout, got {lat}"
            );
        }
    }

    #[test]
    fn slow_replica_stretches_its_share_of_requests() {
        let slow = EngineParams {
            faults: FaultPlan::none().slowdown(
                InstanceId(0),
                SimTime::ZERO,
                SimTime::from_secs(3600),
                8.0,
            ),
            ..EngineParams::default()
        };
        let (slow_driver, _) = run_with_params(slow, 32, 1000.0, 2, 2, 7);
        let (base_driver, _) = run_simple(32, 1000.0, 2, 2);
        let slow_max = slow_driver.latencies.iter().max().expect("ran");
        let base_max = base_driver.latencies.iter().max().expect("ran");
        assert!(
            *slow_max > base_max.mul_f64(3.0),
            "an 8× slowdown must stretch the tail: slow {slow_max} vs base {base_max}"
        );
        assert_eq!(slow_driver.done, 32, "slow is not down: everything finishes");
    }

    #[test]
    fn crash_loses_work_and_resilience_recovers_it() {
        // Two instances; one crashes mid-run and restarts. Without
        // resilience its in-flight work is lost for good; with timeouts and
        // retries every request still resolves.
        let faults = FaultPlan::none().crash(
            InstanceId(0),
            SimTime::from_millis(20),
            SimDuration::from_millis(50),
        );
        let params = EngineParams {
            faults: faults.clone(),
            resilience: Some(
                ResilienceParams::default()
                    .with_timeout(SimDuration::from_millis(100))
                    .with_retry(RetryPolicy {
                        max_retries: 3,
                        ..RetryPolicy::default()
                    })
                    .with_breaker(None),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 200, 2000.0, 2, 2, 7);
        assert_eq!(driver.done, 200, "every request resolves: {}", report.summary());
        assert!(
            report.rejected_arrivals + report.replies_dropped > 0,
            "the crash must actually lose work: {}",
            report.summary()
        );
        assert_eq!(
            report.completed + report.requests_timed_out + report.requests_shed,
            200
        );
        assert!(
            report.services[0].retries >= 1,
            "lost calls must be retried: {}",
            report.summary()
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let params = || EngineParams {
            faults: FaultPlan::none()
                .crash(
                    InstanceId(1),
                    SimTime::from_millis(10),
                    SimDuration::from_millis(30),
                )
                .slowdown(
                    InstanceId(0),
                    SimTime::from_millis(5),
                    SimTime::from_millis(60),
                    4.0,
                )
                .reply_fault(
                    InstanceId(0),
                    SimTime::ZERO,
                    SimTime::from_secs(1),
                    0.2,
                    SimDuration::from_micros(200),
                ),
            resilience: Some(
                ResilienceParams::default().with_timeout(SimDuration::from_millis(10)),
            ),
            ..EngineParams::default()
        };
        let (d1, r1) = run_with_params(params(), 64, 1000.0, 2, 2, 99);
        let (d2, r2) = run_with_params(params(), 64, 1000.0, 2, 2, 99);
        assert_eq!(d1.latencies, d2.latencies);
        assert_eq!(d1.outcomes, d2.outcomes);
        assert_eq!(r1.summary(), r2.summary());
    }

    // ------------------------------------------------------ overload control

    use crate::overload::{
        AdmissionPolicy, LimitAction, LimiterPolicy, OverloadParams, PriorityPolicy,
        RetryBudgetPolicy, ShedReason,
    };

    fn overload_params(ov: OverloadParams) -> EngineParams {
        EngineParams {
            overload: Some(ov),
            ..EngineParams::default()
        }
    }

    #[test]
    fn inert_overload_params_are_byte_identical() {
        // Enabling the overload machinery with every policy off switches the
        // engine onto the fault-aware paths but must not change a single
        // observable: same latencies, same summary, byte for byte.
        let (base_driver, base_report) = run_simple(64, 300.0, 2, 4);
        let params = overload_params(OverloadParams::default());
        let (driver, report) = run_with_params(params, 64, 300.0, 2, 4, 7);
        assert_eq!(driver.latencies, base_driver.latencies);
        assert_eq!(report.summary(), base_report.summary());
        assert!(!report.overload.any());
        // Queue-depth observability rides along with the overload machinery
        // even when every policy is off — it changes no behaviour, only adds
        // a report series the legacy run doesn't have.
        assert!(!report.queue_depth_series.is_empty());
        assert!(base_report.queue_depth_series.is_empty());
    }

    /// Driver recording `(request ordinal, outcome)` so shedding tests can
    /// see *which* requests were refused, not just how many.
    struct IdDriver {
        submit_n: u32,
        results: Vec<(u64, Outcome)>,
    }

    impl Driver for IdDriver {
        fn start(&mut self, ctx: &mut dyn EngineCtx) {
            for client in 0..self.submit_n {
                ctx.submit(0, client as u64);
            }
        }
        fn on_response(&mut self, resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
            self.results.push((resp.request.0, resp.outcome));
        }
    }

    fn run_ids(params: EngineParams, n: u32, demand_us: f64) -> (IdDriver, RunReport) {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(demand_us);
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo, params, app, deployment, 7);
        let mut driver = IdDriver {
            submit_n: n,
            results: Vec::new(),
        };
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        (driver, report)
    }

    #[test]
    fn reject_new_sheds_arrivals_beyond_the_bound() {
        // 1 worker, bound 2: of 8 simultaneous arrivals one runs, two queue,
        // five bounce — and it is the *last* five that bounce.
        let params = overload_params(
            OverloadParams::default()
                .with_admission(AdmissionPolicy::RejectNew { bound: 2 }),
        );
        let (driver, report) = run_ids(params, 8, 1000.0);
        assert_eq!(report.completed, 3);
        assert_eq!(report.overload.shed_queue_full, 5);
        assert_eq!(report.overload.requests_shed_policy, 5);
        assert_eq!(report.requests_shed, 0, "policy sheds must not pollute the fault counter");
        let ok: Vec<u64> = driver
            .results
            .iter()
            .filter(|(_, o)| *o == Outcome::Ok)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ok, vec![0, 1, 2], "reject-new keeps the earliest arrivals");
        assert!(driver
            .results
            .iter()
            .filter(|(_, o)| *o != Outcome::Ok)
            .all(|(_, o)| *o == Outcome::ShedByPolicy(ShedReason::QueueFull)));
    }

    #[test]
    fn drop_oldest_sheds_the_head_of_the_queue() {
        // Same load, DropOldest: later arrivals evict earlier queued ones,
        // so the survivors are the first (already running) and the last two.
        let params = overload_params(
            OverloadParams::default()
                .with_admission(AdmissionPolicy::DropOldest { bound: 2 }),
        );
        let (driver, report) = run_ids(params, 8, 1000.0);
        assert_eq!(report.completed, 3);
        assert_eq!(report.overload.shed_queue_full, 5);
        let ok: Vec<u64> = driver
            .results
            .iter()
            .filter(|(_, o)| *o == Outcome::Ok)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ok, vec![0, 6, 7], "drop-oldest keeps the freshest arrivals");
    }

    #[test]
    fn queue_deadline_sheds_stale_jobs_at_dequeue() {
        // 1ms of service, 500µs deadline: everything queued behind the first
        // job outwaits the deadline and is shed in one burst at dequeue.
        let params = overload_params(
            OverloadParams::default().with_queue_deadline(SimDuration::from_micros(500)),
        );
        let (driver, report) = run_ids(params, 6, 1000.0);
        assert_eq!(report.completed, 1);
        assert_eq!(report.overload.shed_queue_deadline, 5);
        assert!(driver
            .results
            .iter()
            .filter(|(_, o)| *o != Outcome::Ok)
            .all(|(_, o)| *o == Outcome::ShedByPolicy(ShedReason::QueueDeadline)));
    }

    #[test]
    fn empty_retry_budget_suppresses_retries() {
        // Same setup as timeouts_exhaust_retries_and_fail_the_request, plus
        // a bone-dry retry budget: every timeout that would have retried is
        // denied, so the storm of 8 retries never happens.
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default()
                    .with_timeout(SimDuration::from_millis(5))
                    .with_retry(RetryPolicy {
                        max_retries: 2,
                        ..RetryPolicy::default()
                    })
                    .with_breaker(None),
            ),
            overload: Some(OverloadParams::default().with_retry_budget(RetryBudgetPolicy {
                refill_per_success: 0.1,
                cap: 10.0,
                initial: 0.0,
            })),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 4, 50_000.0, 1, 1, 7);
        assert_eq!(driver.done, 4);
        assert_eq!(report.requests_timed_out, 4);
        assert_eq!(report.services[0].timeouts, 4, "one attempt each, no storm");
        assert_eq!(report.services[0].retries, 0);
        assert_eq!(report.overload.budget_denied, 4);
        assert_eq!(report.services[0].budget_denied, 4);
    }

    #[test]
    fn concurrency_limiter_sheds_above_the_limit() {
        // Limit pinned at 1 on a 4-thread instance: one request runs, the
        // other five are refused even though workers sit idle.
        let params = EngineParams {
            overload: Some(OverloadParams::default().with_limiter(LimiterPolicy {
                initial: 1.0,
                min: 1.0,
                max: 1.0,
                ..LimiterPolicy::default()
            })),
            ..EngineParams::default()
        };
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(1000.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 4);
        let mut engine = Engine::new(topo, params, app, deployment, 7);
        let mut driver = CountingDriver::new(6);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        assert_eq!(report.completed, 1);
        assert_eq!(report.overload.shed_concurrency, 5);
        assert!(driver
            .outcomes
            .iter()
            .filter(|o| **o != Outcome::Ok)
            .all(|o| *o == Outcome::ShedByPolicy(ShedReason::Concurrency)));
    }

    #[test]
    fn limiter_defer_serializes_without_shedding() {
        // Same pinned limit of 1, but Defer: arrivals park in the queue, so
        // all six finish — strictly one at a time — and nothing is lost.
        let params = EngineParams {
            overload: Some(OverloadParams::default().with_limiter(LimiterPolicy {
                initial: 1.0,
                min: 1.0,
                max: 1.0,
                action: LimitAction::Defer,
                ..LimiterPolicy::default()
            })),
            ..EngineParams::default()
        };
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(1000.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 4);
        let mut engine = Engine::new(topo, params, app, deployment, 7);
        let mut driver = CountingDriver::new(6);
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        assert_eq!(report.completed, 6, "defer loses nothing");
        assert_eq!(report.overload.deferred, 5);
        assert_eq!(report.overload.total_sheds(), 0);
        let max = driver.latencies.iter().max().expect("has latencies");
        assert!(
            *max >= SimDuration::from_micros(6 * 1000),
            "deferred work runs serially despite 4 idle threads, tail {max}"
        );
        assert!(
            !report.queue_depth_series.is_empty(),
            "queued work must show up in the depth series"
        );
    }

    #[test]
    fn priority_shedding_saves_the_important_class() {
        // Two classes on one 1-thread service: "checkout" is priority 0 with
        // queue room, "browse" is priority 1 with none. Under a burst the
        // browse class is refused while every checkout completes.
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class("checkout", 0.5, CallNode::leaf(svc, Demand::fixed_us(1000.0)));
        app.add_class("browse", 0.5, CallNode::leaf(svc, Demand::fixed_us(1000.0)));
        let params = overload_params(OverloadParams::default().with_priority(
            PriorityPolicy::new(vec![0, 1], vec![8, 0]),
        ));
        let topo = Arc::new(Topology::desktop_8c());
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo, params, app, deployment, 7);

        struct MixDriver;
        impl Driver for MixDriver {
            fn start(&mut self, ctx: &mut dyn EngineCtx) {
                // One checkout to occupy the worker, then an interleaved burst.
                ctx.submit(0, 0);
                for c in 0..3 {
                    ctx.submit(1, c + 1);
                    ctx.submit(0, c + 4);
                }
            }
        }
        let mut driver = MixDriver;
        engine.run(&mut driver, SimTime::from_secs(10));
        let report = engine.report();
        assert_eq!(report.overload.shed_priority, 3, "all browse sheds");
        assert_eq!(report.per_class[0].1, 4, "every checkout completed");
        assert_eq!(report.per_class[1].1, 0);
        assert_eq!(report.per_class_submitted, vec![4, 3]);
        assert_eq!(report.per_class_failed, vec![0, 3]);
    }

    #[test]
    fn rejected_calls_retry_and_then_fail_with_policy_shed() {
        // Queue bound 0 with retries on: the second request is bounced,
        // retried (spending wire time, not its timeout), bounced again, and
        // finally surfaces as a policy shed — never as a timeout.
        let params = EngineParams {
            resilience: Some(
                ResilienceParams::default()
                    .with_timeout(SimDuration::from_millis(50))
                    .with_retry(RetryPolicy {
                        max_retries: 2,
                        ..RetryPolicy::default()
                    })
                    .with_breaker(None),
            ),
            overload: Some(
                OverloadParams::default().with_admission(AdmissionPolicy::RejectNew { bound: 0 }),
            ),
            ..EngineParams::default()
        };
        let (driver, report) = run_with_params(params, 2, 20_000.0, 1, 1, 7);
        assert_eq!(driver.done, 2);
        assert_eq!(report.completed, 1);
        assert_eq!(report.overload.requests_shed_policy, 1);
        assert_eq!(report.requests_timed_out, 0);
        assert_eq!(
            report.services[0].retries, 2,
            "the bounced request used its full retry allowance"
        );
        assert!(driver
            .outcomes
            .contains(&Outcome::ShedByPolicy(ShedReason::QueueFull)));
    }

    /// A closed-loop driver whose behavior is a pure function of the
    /// engine's responses: a fresh copy paired with a restored engine acts
    /// exactly like the original driver would have.
    struct ResubmitDriver {
        clients: u32,
    }

    impl Driver for ResubmitDriver {
        fn start(&mut self, ctx: &mut dyn EngineCtx) {
            for client in 0..self.clients {
                ctx.submit(0, client as u64);
            }
        }
        fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
            ctx.submit(0, resp.client.0);
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_to_straight_run() {
        let build = || {
            let topo = Arc::new(Topology::desktop_8c());
            let (app, _) = one_service_app(400.0);
            let deployment = Deployment::uniform(&app, &topo, 2, 2);
            Engine::new(topo, EngineParams::default(), app, deployment, 7)
        };
        let t_snap = SimTime::from_millis(5);
        let t_end = SimTime::from_millis(10);

        let mut straight = build();
        straight.run(&mut ResubmitDriver { clients: 16 }, t_end);

        // Run to the checkpoint, snapshot (with jobs in flight and events
        // pending), restore into a fresh engine, and continue.
        let mut first = build();
        first.run(&mut ResubmitDriver { clients: 16 }, t_snap);
        let mut w = SnapWriter::new();
        first.snap_save(&mut w);
        let bytes = w.finish();

        let mut resumed = build();
        let mut r = SnapReader::new(&bytes).expect("valid envelope");
        resumed.snap_restore(&mut r).expect("restores");
        resumed.run_resumed(&mut ResubmitDriver { clients: 16 }, t_end);

        let mut w_a = SnapWriter::new();
        straight.snap_save(&mut w_a);
        let mut w_b = SnapWriter::new();
        resumed.snap_save(&mut w_b);
        assert_eq!(
            w_a.finish(),
            w_b.finish(),
            "resumed run diverged from the straight run"
        );
        assert!(straight.report().completed > 0, "the run did real work");
    }

    #[test]
    fn snapshot_rejects_a_different_configuration() {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = one_service_app(400.0);
        let deployment = Deployment::uniform(&app, &topo, 1, 1);
        let mut engine = Engine::new(topo.clone(), EngineParams::default(), app, deployment, 7);
        engine.run(&mut ResubmitDriver { clients: 4 }, SimTime::from_millis(2));
        let mut w = SnapWriter::new();
        engine.snap_save(&mut w);
        let bytes = w.finish();

        // Same app shape, different instance count: the slab indices in the
        // snapshot would be meaningless, so the restore must refuse.
        let (app2, _) = one_service_app(400.0);
        let deployment2 = Deployment::uniform(&app2, &topo, 2, 1);
        let mut other = Engine::new(topo, EngineParams::default(), app2, deployment2, 7);
        let mut r = SnapReader::new(&bytes).expect("valid envelope");
        match other.snap_restore(&mut r) {
            Err(SnapError::Corrupt(msg)) => {
                assert!(msg.contains("engine config"), "diagnostic: {msg}")
            }
            other => panic!("expected a config-fingerprint rejection, got {other:?}"),
        }
    }

    /// Two CPU-bound workers of one instance pinned to CPU 0: both requests
    /// arrive together, one worker runs and the other waits on CPU 0's
    /// runqueue, so only the quantum can interleave them.
    fn one_cpu_engine(quantum: SimDuration, demand_us: f64) -> Engine {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, svc) = one_service_app(demand_us);
        let mut deployment = Deployment::empty(&app);
        deployment.add_instance(
            svc,
            crate::deploy::InstanceConfig {
                affinity: [CpuId(0)].into_iter().collect(),
                threads: 2,
                mem_node: None,
            },
        );
        let mut params = EngineParams::default();
        params.sched.quantum = quantum;
        Engine::new(topo, params, app, deployment, 3)
    }

    /// The `WorkDone` instant of the slice running on CPU 0.
    fn slice_end(engine: &Engine) -> SimTime {
        let exec = engine.exec[0].expect("cpu 0 runs a slice");
        let job = engine.workers[exec.worker]
            .job
            .expect("running worker holds a job");
        let remaining = engine.jobs[job as usize].remaining_cycles;
        exec.since + SimDuration::from_nanos((remaining / exec.rate).ceil() as u64)
    }

    #[test]
    fn a_slice_longer_than_the_quantum_is_preempted_at_the_quantum() {
        let mut engine = one_cpu_engine(SimDuration::from_millis(3), 10_000.0);
        let mut driver = CountingDriver::new(2);
        engine.run(&mut driver, SimTime::from_millis(1));
        let exec = engine.exec[0].expect("the first worker runs");
        assert_ne!(
            exec.quantum_token,
            EventToken::NONE,
            "a 10 ms slice arms its tick"
        );
        let first = exec.worker;
        engine.run_resumed(&mut driver, exec.since + SimDuration::from_millis(3));
        let exec = engine.exec[0].expect("the second worker runs");
        assert_ne!(exec.worker, first, "preempted exactly at the quantum");
        engine.run_resumed(&mut driver, SimTime::from_secs(1));
        assert_eq!(driver.done, 2);
        // 10 ms each in 3 ms turns: six preemptions (A B A B A B, then A
        // and B each finish in a last short turn) and two completions.
        assert_eq!(engine.report().sched.context_switches, 8);
    }

    #[test]
    fn a_slice_ending_exactly_at_the_quantum_is_not_preempted() {
        let mut probe = one_cpu_engine(SimDuration::from_millis(3), 1_000.0);
        probe.run(&mut CountingDriver::new(2), SimTime::from_millis(1));
        let eta = slice_end(&probe) - probe.exec[0].expect("running").since;
        let run = |quantum: SimDuration| {
            let mut engine = one_cpu_engine(quantum, 1_000.0);
            let mut driver = CountingDriver::new(2);
            engine.run(&mut driver, SimTime::from_millis(1));
            let armed = engine.exec[0].expect("running").quantum_token != EventToken::NONE;
            engine.run_resumed(&mut driver, SimTime::from_secs(1));
            assert_eq!(driver.done, 2);
            (
                armed,
                engine.report().sched.context_switches,
                driver.latencies,
            )
        };
        let one_ns = SimDuration::from_nanos(1);
        let (armed_at, switches_at, latencies_at) = run(eta);
        let (armed_after, switches_after, latencies_after) = run(eta + one_ns);
        let (armed_before, switches_before, _) = run(eta - one_ns);
        // The tick is armed only when it can fire before `WorkDone`.
        assert!(!armed_at && !armed_after && armed_before);
        // At the tie `WorkDone` wins: no preemption, just as with a longer
        // quantum. One nanosecond less and both slices are cut: A B A (done)
        // B (done).
        assert_eq!(switches_at, 2);
        assert_eq!(
            (switches_after, &latencies_after),
            (switches_at, &latencies_at)
        );
        assert_eq!(switches_before, 4);
    }

    #[test]
    fn an_exec_restored_without_a_quantum_tick_runs_to_completion() {
        let mut probe = one_cpu_engine(SimDuration::from_millis(3), 1_000.0);
        probe.run(&mut CountingDriver::new(2), SimTime::from_millis(1));
        let since = probe.exec[0].expect("running").since;
        let eta = slice_end(&probe) - since;
        let mid = since + SimDuration::from_nanos(eta.as_nanos() / 2);
        let end = SimTime::from_secs(1);

        let mut straight = one_cpu_engine(eta, 1_000.0);
        straight.run(&mut CountingDriver::new(2), end);

        let mut first = one_cpu_engine(eta, 1_000.0);
        first.run(&mut CountingDriver::new(2), mid);
        let mut w = SnapWriter::new();
        first.snap_save(&mut w);
        let bytes = w.finish();
        let mut resumed = one_cpu_engine(eta, 1_000.0);
        resumed
            .snap_restore(&mut SnapReader::new(&bytes).expect("valid envelope"))
            .expect("restores");
        assert_eq!(
            resumed.exec[0].expect("running").quantum_token,
            EventToken::NONE
        );
        // The driver's two requests are already in flight.
        resumed.run_resumed(&mut CountingDriver::new(0), end);
        assert_eq!(resumed.report().completed, 2);
        let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
        straight.snap_save(&mut a);
        resumed.snap_save(&mut b);
        assert_eq!(
            a.finish(),
            b.finish(),
            "resumed run diverged from the straight run"
        );
    }

    #[test]
    fn restore_rejects_an_inconsistent_exec_table() {
        // A mid-slice engine: CPU 0 executes one worker, the other waits.
        let build = || one_cpu_engine(SimDuration::from_millis(3), 1_000.0);
        type Corrupt = fn(&mut Engine);
        let corruptions: [(&str, Corrupt); 4] = [
            ("holds no job", |e| {
                let w = e.exec[0].expect("running").worker;
                e.workers[w].job = None;
            }),
            ("two cpus", |e| e.exec[1] = e.exec[0]),
            ("does not run its task", |e| e.exec[1] = e.exec[0].take()),
            ("after the clock", |e| {
                let now = e.now();
                e.exec[0].as_mut().expect("running").since = now + SimDuration::from_nanos(1);
            }),
        ];
        for (want, corrupt) in corruptions {
            let mut engine = build();
            engine.run(&mut CountingDriver::new(2), SimTime::from_millis(1));
            corrupt(&mut engine);
            let mut w = SnapWriter::new();
            engine.snap_save(&mut w);
            let bytes = w.finish();
            match build().snap_restore(&mut SnapReader::new(&bytes).expect("valid envelope")) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: expected Corrupt, got {other:?}"),
            }
        }
    }


}
