//! The scheduler proper: placement, preemption, stealing.

use crate::runqueue::RunQueue;
use crate::task::{Task, TaskId, TaskState};
use cputopo::{CpuId, CpuSet, Topology};
use serde::{Deserialize, Serialize};
use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};
use simcore::{SimDuration, SimTime};
use std::sync::Arc;

/// Tunables of the scheduler, mirroring the knobs the paper turns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedParams {
    /// Preemption quantum: a running task is preempted after this long if
    /// its CPU's runqueue is non-empty. Linux CFS targets a few ms of
    /// scheduling latency; 3 ms is representative under load.
    pub quantum: SimDuration,
    /// Wake-time placement prefers a CPU whose *whole core* is idle over the
    /// free sibling of a busy core (Linux's `select_idle_core` behaviour).
    pub prefer_idle_cores: bool,
    /// Idle CPUs steal queued work from other runqueues.
    pub steal_enabled: bool,
    /// How far idle stealing may reach, as a topology level: 0 = within the
    /// core, 1 = CCX, 2 = CCD, 3 = NUMA node, 4 = socket, 5 = whole machine.
    pub steal_max_level: u8,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            quantum: SimDuration::from_millis(3),
            prefer_idle_cores: true,
            steal_enabled: true,
            steal_max_level: 5,
        }
    }
}

/// Result of placing a woken or stolen task onto a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The task that started running.
    pub task: TaskId,
    /// Where it runs.
    pub cpu: CpuId,
    /// The CPU it previously ran on, when this placement is a migration.
    pub migrated_from: Option<CpuId>,
}

/// Outcome of a wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeOutcome {
    /// The task started running immediately.
    Started(Placement),
    /// All eligible CPUs were busy; the task was queued on this CPU.
    Queued(CpuId),
}

/// Result of a deschedule (block / preemption / termination): what now runs
/// on the affected CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Switch {
    /// The CPU whose occupancy changed.
    pub cpu: CpuId,
    /// The task now running there, if the runqueue was non-empty.
    pub next: Option<Placement>,
}

/// Event counters, matching what `/proc` and `perf sched` would report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchedStats {
    /// Wakeups processed.
    pub wakeups: u64,
    /// Context switches (every deschedule of a running task).
    pub context_switches: u64,
    /// Task placements on a different CPU than the task last ran on.
    pub migrations: u64,
    /// Successful idle steals (a subset of migrations).
    pub steals: u64,
}

/// Word-parallel views of the running table, for the wake-time idle
/// search: one bit per CPU, 64 CPUs per word (the [`CpuSet`] layout).
#[derive(Debug, Clone)]
struct BusyMasks {
    /// CPUs that run a task.
    cpus: Vec<u64>,
    /// CPUs whose core runs a task on any of its threads.
    cores: Vec<u64>,
}

impl BusyMasks {
    fn idle(ncpus: usize) -> Self {
        let words = ncpus.div_ceil(64);
        BusyMasks {
            cpus: vec![0; words],
            cores: vec![0; words],
        }
    }

    #[inline]
    fn bit(mask: &[u64], cpu: CpuId) -> bool {
        mask[cpu.index() / 64] & (1 << (cpu.index() % 64)) != 0
    }

    /// Marks `cpu` busy (`true`) or idle, keeping the core mask in step.
    fn set(&mut self, topo: &Topology, cpu: CpuId, busy: bool) {
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        if busy {
            self.cpus[w] |= 1 << b;
        } else {
            self.cpus[w] &= !(1 << b);
        }
        let core = topo.cpus_in_core(topo.core_of(cpu));
        let core_busy = busy || core.iter().any(|c| Self::bit(&self.cpus, c));
        if core_busy == Self::bit(&self.cores, cpu) {
            return; // every CPU of the core already carries this bit
        }
        for c in core.iter() {
            let (w, b) = (c.index() / 64, c.index() % 64);
            if core_busy {
                self.cores[w] |= 1 << b;
            } else {
                self.cores[w] &= !(1 << b);
            }
        }
    }

    /// The lowest CPU in `domain ∩ affinity` that is idle and, when
    /// `whole_core`, sits on an idle core.
    #[inline]
    fn first_idle(&self, domain: &CpuSet, affinity: &CpuSet, whole_core: bool) -> Option<CpuId> {
        let core_mask = if whole_core { u64::MAX } else { 0 };
        domain
            .words()
            .iter()
            .zip(affinity.words())
            .enumerate()
            .find_map(|(w, (&d, &a))| {
                let free = d & a & !self.cpus[w] & !(self.cores[w] & core_mask);
                (free != 0).then(|| CpuId((w * 64) as u32 + free.trailing_zeros()))
            })
    }
}

/// The CPU scheduler for one simulated machine.
///
/// See the [crate docs](crate) for the driving contract.
#[derive(Debug, Clone)]
pub struct Scheduler {
    topo: Arc<Topology>,
    params: SchedParams,
    tasks: Vec<Task>,
    runqueues: Vec<RunQueue>,
    running: Vec<Option<TaskId>>,
    busy: BusyMasks,
    /// Runnable-but-queued tasks across all runqueues, kept in sync with
    /// every push/pop/remove so idle paths (notably steals) can bail out in
    /// O(1) on an unqueued machine.
    queued_total: usize,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler for `topo` with the given parameters.
    pub fn new(topo: Arc<Topology>, params: SchedParams) -> Self {
        let ncpus = topo.num_cpus();
        Scheduler {
            topo,
            params,
            tasks: Vec::new(),
            runqueues: (0..ncpus).map(|_| RunQueue::new()).collect(),
            running: vec![None; ncpus],
            busy: BusyMasks::idle(ncpus),
            queued_total: 0,
            stats: SchedStats::default(),
        }
    }

    /// The machine this scheduler runs on.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The scheduler's tunables.
    pub fn params(&self) -> &SchedParams {
        &self.params
    }

    /// Event counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Creates a new task in the `Blocked` state with the given affinity.
    ///
    /// # Panics
    ///
    /// Panics if `affinity` is empty or names CPUs outside the machine.
    pub fn spawn(&mut self, affinity: CpuSet) -> TaskId {
        assert!(
            !affinity.is_empty(),
            "task affinity must allow at least one CPU"
        );
        assert!(
            affinity.is_subset(self.topo.all_cpus()),
            "affinity {affinity} names CPUs outside the machine"
        );
        let id = TaskId(self.tasks.len() as u64);
        self.tasks.push(Task::new(affinity));
        id
    }

    /// Current state of a task.
    pub fn state(&self, task: TaskId) -> TaskState {
        self.tasks[task.index()].state
    }

    /// The task currently running on `cpu`, if any.
    pub fn running_on(&self, cpu: CpuId) -> Option<TaskId> {
        self.running[cpu.index()]
    }

    /// `true` if `cpu` is executing a task.
    pub fn is_busy(&self, cpu: CpuId) -> bool {
        self.running[cpu.index()].is_some()
    }

    /// The CPU a running task occupies.
    pub fn cpu_of(&self, task: TaskId) -> Option<CpuId> {
        self.tasks[task.index()].cpu
    }

    /// The CPU a task last ran on (its cache footprint's home).
    pub fn last_cpu_of(&self, task: TaskId) -> Option<CpuId> {
        self.tasks[task.index()].last_cpu
    }

    /// Queue length of a CPU's runqueue (excluding the running task).
    pub fn runqueue_len(&self, cpu: CpuId) -> usize {
        self.runqueues[cpu.index()].len()
    }

    /// Number of busy CPUs in a set.
    pub fn busy_count_in(&self, set: &CpuSet) -> usize {
        set.iter().filter(|&c| self.is_busy(c)).count()
    }

    /// Total runnable-but-waiting tasks across a set of CPUs.
    pub fn queued_count_in(&self, set: &CpuSet) -> usize {
        set.iter().map(|c| self.runqueue_len(c)).sum()
    }

    /// Adds CPU time to a task's fair-queueing clock. The engine calls this
    /// with actual occupancy time whenever a task stops running or is
    /// re-rated.
    pub fn account(&mut self, task: TaskId, ran: SimDuration) {
        self.tasks[task.index()].vruntime += ran;
    }

    /// A task's affinity, fixed when it was spawned.
    pub fn affinity_of(&self, task: TaskId) -> &CpuSet {
        &self.tasks[task.index()].affinity
    }

    /// Wakes a blocked task: places it on an idle CPU if one is allowed and
    /// available, otherwise queues it on the least-loaded allowed CPU.
    ///
    /// Returns `None` only if the task is not in the `Blocked` state.
    pub fn wake(&mut self, task: TaskId, _now: SimTime) -> Option<Placement> {
        match self.wake_outcome(task) {
            Some(WakeOutcome::Started(p)) => Some(p),
            _ => None,
        }
    }

    /// Like [`Scheduler::wake`], but reports queuing explicitly.
    pub fn wake_outcome(&mut self, task: TaskId) -> Option<WakeOutcome> {
        if self.tasks[task.index()].state != TaskState::Blocked {
            return None;
        }
        self.stats.wakeups += 1;
        let t = &self.tasks[task.index()];
        let anchor = t.last_cpu.or_else(|| t.affinity.first());

        if let Some(cpu) = self.find_idle_cpu(anchor, &self.tasks[task.index()].affinity) {
            Some(WakeOutcome::Started(self.start_on(task, cpu)))
        } else {
            let cpu = self.least_loaded(&self.tasks[task.index()].affinity);
            self.tasks[task.index()].state = TaskState::Runnable;
            let vruntime = self.tasks[task.index()].vruntime;
            self.runqueues[cpu.index()].push(task, vruntime);
            self.queued_total += 1;
            Some(WakeOutcome::Queued(cpu))
        }
    }

    /// Blocks the running task (it sleeps on I/O / an RPC / a timer) and
    /// promotes the fairest queued task on that CPU, if any.
    ///
    /// # Panics
    ///
    /// Panics if the task is not currently running.
    pub fn block(&mut self, task: TaskId) -> Switch {
        let cpu = self.deschedule(task, TaskState::Blocked);
        self.promote_next(cpu)
    }

    /// Terminates a task in any non-terminated state.
    ///
    /// Returns the switch if it was running (its CPU may promote a queued
    /// task), `None` otherwise.
    pub fn terminate(&mut self, task: TaskId) -> Option<Switch> {
        match self.tasks[task.index()].state {
            TaskState::Running => {
                let cpu = self.deschedule(task, TaskState::Terminated);
                Some(self.promote_next(cpu))
            }
            TaskState::Runnable => {
                for rq in &mut self.runqueues {
                    if rq.remove(task) {
                        self.queued_total -= 1;
                        break;
                    }
                }
                self.tasks[task.index()].state = TaskState::Terminated;
                None
            }
            TaskState::Blocked => {
                self.tasks[task.index()].state = TaskState::Terminated;
                None
            }
            TaskState::Terminated => None,
        }
    }

    /// Fires the preemption quantum on `cpu`: if a task is running there and
    /// other tasks wait on its runqueue, round-robin to the fairest waiter.
    ///
    /// Returns the switch if a preemption happened.
    pub fn quantum_expired(&mut self, cpu: CpuId) -> Option<Switch> {
        let current = self.running[cpu.index()]?;
        if self.runqueues[cpu.index()].is_empty() {
            return None;
        }
        self.deschedule(current, TaskState::Runnable);
        let vruntime = self.tasks[current.index()].vruntime;
        self.runqueues[cpu.index()].push(current, vruntime);
        self.queued_total += 1;
        Some(self.promote_next(cpu))
    }

    /// Attempts to steal queued work for an idle `cpu`, searching outward
    /// through the topology up to `steal_max_level`.
    ///
    /// Returns the placement if a task was stolen and started.
    pub fn steal(&mut self, cpu: CpuId) -> Option<Placement> {
        if !self.params.steal_enabled || self.queued_total == 0 || self.is_busy(cpu) {
            return None;
        }
        let domains = self.topo.domains_of(cpu);
        let max_level = (self.params.steal_max_level as usize).min(domains.len() - 1);
        let mut victim: Option<(usize, CpuId, TaskId)> = None;
        for (level, domain) in domains.iter().enumerate().take(max_level + 1) {
            // Busiest runqueue in this domain holding a stealable task.
            for candidate_cpu in domain.iter() {
                if candidate_cpu == cpu {
                    continue;
                }
                let qlen = self.runqueue_len(candidate_cpu);
                if qlen == 0 {
                    continue;
                }
                let stealable = self.runqueues[candidate_cpu.index()]
                    .iter()
                    .find(|&t| self.tasks[t.index()].affinity.contains(cpu));
                if let Some(task) = stealable {
                    if victim
                        .map(|(l, vc, _)| (level, qlen) > (l, self.runqueue_len(vc)))
                        .unwrap_or(true)
                    {
                        // Prefer the closest level; within it, the longest queue.
                        if victim.is_none() || victim.map(|(l, _, _)| l) == Some(level) {
                            victim = Some((level, candidate_cpu, task));
                        }
                    }
                }
            }
            if victim.is_some() {
                break; // closest level wins; don't search farther
            }
        }
        let (_, victim_cpu, task) = victim?;
        self.runqueues[victim_cpu.index()].remove(task);
        self.queued_total -= 1;
        self.tasks[task.index()].state = TaskState::Blocked; // transitional
        let placement = self.start_on(task, cpu);
        self.stats.steals += 1;
        Some(placement)
    }

    // ---- internals ----

    fn start_on(&mut self, task: TaskId, cpu: CpuId) -> Placement {
        debug_assert!(
            self.running[cpu.index()].is_none(),
            "cpu {cpu} already busy"
        );
        let migrated_from = match self.tasks[task.index()].last_cpu {
            Some(last) if last != cpu => {
                self.stats.migrations += 1;
                Some(last)
            }
            _ => None,
        };
        let t = &mut self.tasks[task.index()];
        t.state = TaskState::Running;
        t.cpu = Some(cpu);
        t.last_cpu = Some(cpu);
        self.running[cpu.index()] = Some(task);
        self.busy.set(&self.topo, cpu, true);
        Placement {
            task,
            cpu,
            migrated_from,
        }
    }

    fn deschedule(&mut self, task: TaskId, into: TaskState) -> CpuId {
        let cpu = self.tasks[task.index()]
            .cpu
            .unwrap_or_else(|| panic!("{task} is not running"));
        assert_eq!(
            self.running[cpu.index()],
            Some(task),
            "running table corrupt"
        );
        self.running[cpu.index()] = None;
        self.busy.set(&self.topo, cpu, false);
        let t = &mut self.tasks[task.index()];
        t.cpu = None;
        t.state = into;
        self.stats.context_switches += 1;
        cpu
    }

    fn promote_next(&mut self, cpu: CpuId) -> Switch {
        let next = self.runqueues[cpu.index()].pop();
        if next.is_some() {
            self.queued_total -= 1;
        }
        let next = next.map(|task| {
            self.tasks[task.index()].state = TaskState::Blocked; // transitional
            self.start_on(task, cpu)
        });
        Switch { cpu, next }
    }

    /// Finds an idle CPU in `affinity`, searching outward from `anchor`:
    /// within each domain the lowest eligible CPU wins, 64 CPUs per step.
    fn find_idle_cpu(&self, anchor: Option<CpuId>, affinity: &CpuSet) -> Option<CpuId> {
        // Fast path: the task's previous CPU.
        if let Some(last) = anchor {
            if affinity.contains(last)
                && !self.is_busy(last)
                && (!self.params.prefer_idle_cores || self.core_is_idle(last))
            {
                return Some(last);
            }
        }
        let anchor = anchor.or_else(|| affinity.first())?;
        let domains = self.topo.domains_of(anchor);
        // Pass 1 (optional): fully idle cores.
        if self.params.prefer_idle_cores {
            if let Some(cpu) = domains
                .iter()
                .find_map(|d| self.busy.first_idle(d, affinity, true))
            {
                return Some(cpu);
            }
        }
        // Pass 2: any idle CPU. The last domain is the whole machine, so
        // this also covers an affinity that excludes the anchor.
        domains
            .iter()
            .find_map(|d| self.busy.first_idle(d, affinity, false))
    }

    fn core_is_idle(&self, cpu: CpuId) -> bool {
        !BusyMasks::bit(&self.busy.cores, cpu)
    }

    fn least_loaded(&self, affinity: &CpuSet) -> CpuId {
        affinity
            .iter()
            .min_by_key(|&c| {
                let load = self.runqueue_len(c) + usize::from(self.is_busy(c));
                (load, c.0)
            })
            .expect("affinity validated non-empty")
    }

    // ---- snapshot ----

    /// Serializes the scheduler's mutable state: per task its state, CPU,
    /// last CPU and vruntime, then the runqueues, the running table, and
    /// counters. The topology, params and task affinities are *not*
    /// captured: affinity is fixed at spawn, so a restored scheduler must
    /// be constructed over the same machine and spawn the same tasks first.
    ///
    /// Everything streams straight into the writer with no intermediate
    /// collections — wide adaptive shard rounds take this snapshot once
    /// per round per cell. The layout is that of the equivalent
    /// `Vec<(SimDuration, u64, u64)>` (runqueue) and `Vec<Option<u64>>`
    /// (running table) saves.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            topo: _,   // config, shared and immutable
            params: _, // config, fixed at construction
            tasks,
            runqueues,
            running,
            busy: _, // derived from `running`, rebuilt in snap_restore
            queued_total,
            stats,
        } = self;
        w.section("scheduler");
        w.usize(tasks.len());
        for t in tasks {
            let Task {
                state,
                affinity: _, // config, fixed at spawn
                cpu,
                last_cpu,
                vruntime,
            } = t;
            w.u8(match state {
                TaskState::Runnable => 0,
                TaskState::Running => 1,
                TaskState::Blocked => 2,
                TaskState::Terminated => 3,
            });
            cpu.map(|c| c.0).save(w);
            last_cpu.map(|c| c.0).save(w);
            vruntime.save(w);
        }
        w.usize(runqueues.len());
        for rq in runqueues {
            let RunQueue {
                queue,
                next_arrival,
            } = rq;
            w.usize(queue.len());
            for &(vruntime, seq, task) in queue {
                vruntime.save(w);
                w.u64(seq);
                w.u64(task.0);
            }
            w.u64(*next_arrival);
        }
        w.usize(running.len());
        for t in running {
            t.map(|t| t.0).save(w);
        }
        w.usize(*queued_total);
        stats.save(w);
    }

    /// Restores state captured by [`Scheduler::snap_save`] into a scheduler
    /// built over the same topology and params that has spawned the same
    /// tasks: each task keeps the affinity its `spawn` set. A snapshot of a
    /// different number of tasks is [`SnapError::Corrupt`]. On error the
    /// scheduler is in an unspecified state and must be discarded.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Self {
            topo,
            params: _, // config, fixed at construction
            tasks,
            runqueues,
            running,
            busy,
            queued_total,
            stats,
        } = self;
        r.section("scheduler")?;
        let ncpus = runqueues.len();
        let ntasks = r.usize()?;
        if ntasks != tasks.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {ntasks} tasks, scheduler spawned {}",
                tasks.len()
            )));
        }
        for t in tasks.iter_mut() {
            let Task {
                state,
                affinity: _, // config, fixed at spawn
                cpu,
                last_cpu,
                vruntime,
            } = t;
            *state = match r.u8()? {
                0 => TaskState::Runnable,
                1 => TaskState::Running,
                2 => TaskState::Blocked,
                3 => TaskState::Terminated,
                other => {
                    return Err(SnapError::Corrupt(format!("unknown task state {other}")));
                }
            };
            *cpu = Option::<u32>::load(r)?.map(CpuId);
            *last_cpu = Option::<u32>::load(r)?.map(CpuId);
            *vruntime = SimDuration::load(r)?;
        }
        let nqueues = r.usize()?;
        if nqueues != ncpus {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {nqueues} runqueues, machine has {ncpus} CPUs"
            )));
        }
        let mut new_queues = Vec::with_capacity(ncpus);
        for _ in 0..ncpus {
            let mut queue = std::collections::BTreeSet::new();
            for _ in 0..r.usize()? {
                queue.insert((SimDuration::load(r)?, r.u64()?, TaskId(r.u64()?)));
            }
            new_queues.push(RunQueue {
                queue,
                next_arrival: r.u64()?,
            });
        }
        let nrunning = r.usize()?;
        if nrunning != ncpus {
            return Err(SnapError::Corrupt(format!(
                "snapshot running table covers {nrunning} CPUs, machine has {ncpus}"
            )));
        }
        let new_running = (0..ncpus)
            .map(|_| Ok(Option::<u64>::load(r)?.map(TaskId)))
            .collect::<Result<Vec<_>, SnapError>>()?;
        for t in new_running.iter().flatten() {
            if t.index() >= ntasks {
                return Err(SnapError::Corrupt(format!(
                    "running table names {t} beyond the task table"
                )));
            }
        }
        *runqueues = new_queues;
        *busy = BusyMasks::idle(ncpus);
        for (i, t) in new_running.iter().enumerate() {
            if t.is_some() {
                busy.set(topo, CpuId(i as u32), true);
            }
        }
        *running = new_running;
        *queued_total = r.usize()?;
        *stats = SchedStats::load(r)?;
        Ok(())
    }
}

simcore::snap_fields!(SchedStats {
    wakeups,
    context_switches,
    migrations,
    steals,
});

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Proximity;

    fn small() -> (Arc<Topology>, Scheduler) {
        let topo = Arc::new(Topology::desktop_8c()); // 8 cores, 16 cpus
        let sched = Scheduler::new(topo.clone(), SchedParams::default());
        (topo, sched)
    }

    #[test]
    fn wake_places_on_idle_machine() {
        let (topo, mut sched) = small();
        let t = sched.spawn(topo.all_cpus().clone());
        let p = sched.wake(t, SimTime::ZERO).expect("idle machine");
        assert_eq!(sched.state(t), TaskState::Running);
        assert_eq!(sched.running_on(p.cpu), Some(t));
        assert_eq!(p.migrated_from, None, "first run is not a migration");
        assert_eq!(sched.stats().wakeups, 1);
    }

    #[test]
    fn wake_respects_affinity() {
        let (_, mut sched) = small();
        let only3: CpuSet = [CpuId(3)].into_iter().collect();
        let t = sched.spawn(only3);
        let p = sched.wake(t, SimTime::ZERO).expect("cpu 3 idle");
        assert_eq!(p.cpu, CpuId(3));
    }

    #[test]
    fn wake_prefers_idle_core_over_busy_sibling() {
        let (topo, mut sched) = small();
        // Occupy cpu 0 (core 0 thread 0).
        let hog = sched.spawn(topo.all_cpus().clone());
        let p0 = sched.wake(hog, SimTime::ZERO).expect("idle");
        assert_eq!(p0.cpu, CpuId(0));
        // Next task's anchor is nothing; it must avoid cpu 8 (0's sibling)
        // while whole-idle cores exist.
        let t = sched.spawn(topo.all_cpus().clone());
        let p = sched.wake(t, SimTime::ZERO).expect("idle");
        assert_ne!(topo.core_of(p.cpu), topo.core_of(CpuId(0)));
    }

    #[test]
    fn wake_queues_when_affinity_saturated() {
        let (_, mut sched) = small();
        let mask: CpuSet = [CpuId(2)].into_iter().collect();
        let a = sched.spawn(mask.clone());
        let b = sched.spawn(mask.clone());
        sched.wake(a, SimTime::ZERO).expect("idle");
        assert!(sched.wake(b, SimTime::ZERO).is_none(), "b must queue");
        assert_eq!(sched.state(b), TaskState::Runnable);
        assert_eq!(sched.runqueue_len(CpuId(2)), 1);
    }

    #[test]
    fn block_promotes_queued_task() {
        let (_, mut sched) = small();
        let mask: CpuSet = [CpuId(2)].into_iter().collect();
        let a = sched.spawn(mask.clone());
        let b = sched.spawn(mask.clone());
        sched.wake(a, SimTime::ZERO);
        sched.wake(b, SimTime::ZERO);
        let sw = sched.block(a);
        assert_eq!(sw.cpu, CpuId(2));
        let next = sw.next.expect("b runs");
        assert_eq!(next.task, b);
        assert_eq!(sched.state(a), TaskState::Blocked);
        assert_eq!(sched.state(b), TaskState::Running);
        assert_eq!(sched.stats().context_switches, 1);
    }

    #[test]
    fn quantum_round_robins() {
        let (_, mut sched) = small();
        let mask: CpuSet = [CpuId(1)].into_iter().collect();
        let a = sched.spawn(mask.clone());
        let b = sched.spawn(mask.clone());
        sched.wake(a, SimTime::ZERO);
        sched.wake(b, SimTime::ZERO);
        // a has consumed CPU; b has not. Preemption must pick b.
        sched.account(a, SimDuration::from_millis(3));
        let sw = sched.quantum_expired(CpuId(1)).expect("preempt");
        assert_eq!(sw.next.expect("b").task, b);
        assert_eq!(sched.state(a), TaskState::Runnable);
        // With an empty queue, quantum is a no-op.
        let c = sched.spawn([CpuId(5)].into_iter().collect());
        sched.wake(c, SimTime::ZERO);
        assert!(sched.quantum_expired(CpuId(5)).is_none());
    }

    #[test]
    fn fairness_lowest_vruntime_runs_first() {
        let (_, mut sched) = small();
        let mask: CpuSet = [CpuId(0)].into_iter().collect();
        let hog = sched.spawn(mask.clone());
        let fresh = sched.spawn(mask.clone());
        let starved = sched.spawn(mask.clone());
        sched.wake(hog, SimTime::ZERO);
        sched.account(fresh, SimDuration::from_millis(10));
        sched.wake(fresh, SimTime::ZERO);
        sched.wake(starved, SimTime::ZERO);
        let sw = sched.block(hog);
        assert_eq!(sw.next.expect("next").task, starved, "lower vruntime wins");
    }

    /// Queues `b` on cpu0 behind `a`, which must run there: while hogs
    /// pinned to every other CPU of `b`'s mask run, all of them are equally
    /// loaded and the lowest, cpu0, takes `b`. The hogs then block, so
    /// those CPUs are idle when the caller steals.
    fn queue_on_cpu0(sched: &mut Scheduler, a: TaskId, b: TaskId) {
        assert_eq!(sched.wake(a, SimTime::ZERO).expect("idle").cpu, CpuId(0));
        let others: Vec<CpuId> = sched
            .affinity_of(b)
            .iter()
            .filter(|&c| c != CpuId(0))
            .collect();
        let hogs: Vec<TaskId> = others
            .into_iter()
            .map(|c| {
                let h = sched.spawn([c].into_iter().collect());
                sched.wake(h, SimTime::ZERO).expect("idle");
                h
            })
            .collect();
        assert_eq!(sched.wake_outcome(b), Some(WakeOutcome::Queued(CpuId(0))));
        for h in hogs {
            sched.block(h);
        }
    }

    #[test]
    fn steal_pulls_from_loaded_cpu() {
        let (topo, mut sched) = small();
        let mask: CpuSet = [CpuId(0)].into_iter().collect();
        let a = sched.spawn(mask);
        let b = sched.spawn(topo.all_cpus().clone());
        queue_on_cpu0(&mut sched, a, b);
        assert_eq!(sched.runqueue_len(CpuId(0)), 1);
        // b's mask allows cpu1, so cpu1 can steal it.
        let p = sched.steal(CpuId(1)).expect("steal succeeds");
        assert_eq!(p.task, b);
        assert_eq!(p.cpu, CpuId(1));
        assert_eq!(sched.stats().steals, 1);
        assert_eq!(sched.runqueue_len(CpuId(0)), 0);
    }

    #[test]
    fn steal_respects_scope() {
        let (topo, mut sched) = {
            let topo = Arc::new(Topology::desktop_8c());
            let sched = Scheduler::new(
                topo.clone(),
                SchedParams {
                    steal_max_level: 1, // CCX only
                    ..SchedParams::default()
                },
            );
            (topo, sched)
        };
        // Queue work on cpu 0 (ccx 0). An idle cpu in ccx 1 must NOT steal it.
        let mask0: CpuSet = [CpuId(0)].into_iter().collect();
        let a = sched.spawn(mask0);
        let b = sched.spawn(topo.all_cpus().clone());
        queue_on_cpu0(&mut sched, a, b);
        let far_cpu = topo.cpus_in_ccx(cputopo::CcxId(1)).first().expect("ccx1");
        assert_eq!(topo.proximity(CpuId(0), far_cpu), Proximity::SameCcd);
        assert!(
            sched.steal(far_cpu).is_none(),
            "out-of-scope steal must fail"
        );
        // A cpu in the same CCX can.
        assert!(sched.steal(CpuId(1)).is_some());
    }

    #[test]
    fn steal_disabled() {
        let topo = Arc::new(Topology::desktop_8c());
        let mut sched = Scheduler::new(
            topo.clone(),
            SchedParams {
                steal_enabled: false,
                ..SchedParams::default()
            },
        );
        let mask: CpuSet = [CpuId(0)].into_iter().collect();
        let a = sched.spawn(mask);
        let b = sched.spawn(topo.all_cpus().clone());
        queue_on_cpu0(&mut sched, a, b);
        assert!(sched.steal(CpuId(1)).is_none());
    }

    #[test]
    fn migration_is_counted_and_reported() {
        let (topo, mut sched) = small();
        let t = sched.spawn(topo.all_cpus().clone());
        let p1 = sched.wake(t, SimTime::ZERO).expect("idle");
        sched.block(t);
        // Occupy its old cpu and its whole core so it must move.
        let core = topo.cpus_in_core(topo.core_of(p1.cpu)).clone();
        let hogs: Vec<TaskId> = core
            .iter()
            .map(|c| {
                let h = sched.spawn([c].into_iter().collect());
                sched.wake(h, SimTime::ZERO).expect("idle");
                h
            })
            .collect();
        assert_eq!(hogs.len(), 2);
        let p2 = sched.wake(t, SimTime::ZERO).expect("elsewhere idle");
        assert_ne!(p2.cpu, p1.cpu);
        assert_eq!(p2.migrated_from, Some(p1.cpu));
        assert_eq!(sched.stats().migrations, 1);
    }

    #[test]
    fn terminate_in_each_state() {
        let (topo, mut sched) = small();
        let running = sched.spawn(topo.all_cpus().clone());
        sched.wake(running, SimTime::ZERO);
        assert!(sched.terminate(running).is_some());
        assert_eq!(sched.state(running), TaskState::Terminated);

        let mask: CpuSet = [CpuId(0)].into_iter().collect();
        let a = sched.spawn(mask.clone());
        let queued = sched.spawn(mask.clone());
        sched.wake(a, SimTime::ZERO);
        sched.wake(queued, SimTime::ZERO);
        assert!(sched.terminate(queued).is_none());
        assert_eq!(sched.state(queued), TaskState::Terminated);
        assert_eq!(sched.runqueue_len(CpuId(0)), 0);

        let blocked = sched.spawn(mask);
        assert!(sched.terminate(blocked).is_none());
        assert_eq!(sched.state(blocked), TaskState::Terminated);
        assert!(sched.terminate(blocked).is_none(), "idempotent");
    }

    #[test]
    #[should_panic(expected = "must allow at least one CPU")]
    fn empty_affinity_rejected() {
        let (_, mut sched) = small();
        sched.spawn(CpuSet::empty());
    }

    #[test]
    #[should_panic(expected = "outside the machine")]
    fn oob_affinity_rejected() {
        let (_, mut sched) = small();
        sched.spawn([CpuId(999)].into_iter().collect());
    }

    #[test]
    fn snapshot_round_trip_restores_placement_and_fairness() {
        let (topo, mut sched) = small();
        let mask: CpuSet = [CpuId(0), CpuId(1)].into_iter().collect();
        let tasks: Vec<TaskId> = (0..6)
            .map(|i| {
                let t = sched.spawn(if i < 4 {
                    mask.clone()
                } else {
                    topo.all_cpus().clone()
                });
                sched.account(t, SimDuration::from_micros(100 * i));
                sched.wake(t, SimTime::ZERO);
                t
            })
            .collect();
        sched.block(tasks[0]);
        sched.terminate(tasks[5]);

        let mut w = SnapWriter::new();
        sched.snap_save(&mut w);
        let bytes = w.finish();
        // The restored scheduler spawns the same tasks, which sets their
        // affinities; the snapshot carries none.
        let mut restored = Scheduler::new(topo.clone(), SchedParams::default());
        for &t in &tasks {
            restored.spawn(sched.affinity_of(t).clone());
        }
        let mut r = SnapReader::new(&bytes).unwrap();
        restored.snap_restore(&mut r).expect("restores");

        assert_eq!(restored.stats(), sched.stats());
        for &t in &tasks {
            assert_eq!(restored.state(t), sched.state(t));
            assert_eq!(restored.cpu_of(t), sched.cpu_of(t));
            assert_eq!(restored.last_cpu_of(t), sched.last_cpu_of(t));
            assert_eq!(restored.affinity_of(t), sched.affinity_of(t));
        }
        // The restored scheduler makes the same decisions from here on.
        let a = sched.block(tasks[1]);
        let b = restored.block(tasks[1]);
        assert_eq!(a, b, "post-restore promotion must match");
        assert_eq!(
            sched.wake_outcome(tasks[0]),
            restored.wake_outcome(tasks[0])
        );
        // Re-snapshotting the restored scheduler is byte-stable.
        let mut w2 = SnapWriter::new();
        restored.snap_save(&mut w2);
        let mut w3 = SnapWriter::new();
        sched.snap_save(&mut w3);
        assert_eq!(w2.finish(), w3.finish());
    }

    #[test]
    fn snapshot_rejects_wrong_machine() {
        let (_, sched) = small();
        let mut w = SnapWriter::new();
        sched.snap_save(&mut w);
        let bytes = w.finish();
        let tiny = Arc::new(Topology::desktop_8c());
        // Same topology type but pretend a different CPU count by truncating
        // the runqueue section: load into a scheduler with fewer CPUs.
        let mut other = Scheduler::new(tiny, SchedParams::default());
        other.runqueues.truncate(4);
        other.running.truncate(4);
        let mut r = SnapReader::new(&bytes).unwrap();
        match other.snap_restore(&mut r) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("runqueues"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_a_different_task_count() {
        let (topo, mut sched) = small();
        for _ in 0..3 {
            sched.spawn(topo.all_cpus().clone());
        }
        let mut w = SnapWriter::new();
        sched.snap_save(&mut w);
        let bytes = w.finish();
        for spawned in [2, 4] {
            let mut other = Scheduler::new(topo.clone(), SchedParams::default());
            for _ in 0..spawned {
                other.spawn(topo.all_cpus().clone());
            }
            match other.snap_restore(&mut SnapReader::new(&bytes).unwrap()) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains("3 tasks"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    /// The per-CPU idle search the bitmaps replaced, kept as the oracle.
    fn find_idle_cpu_scan(
        s: &Scheduler,
        anchor: Option<CpuId>,
        affinity: &CpuSet,
    ) -> Option<CpuId> {
        let core_is_idle = |cpu: CpuId| {
            s.topo
                .cpus_in_core(s.topo.core_of(cpu))
                .iter()
                .all(|c| !s.is_busy(c))
        };
        if let Some(last) = anchor {
            if affinity.contains(last)
                && !s.is_busy(last)
                && (!s.params.prefer_idle_cores || core_is_idle(last))
            {
                return Some(last);
            }
        }
        let anchor = anchor.or_else(|| affinity.first())?;
        let domains = s.topo.domains_of(anchor);
        if s.params.prefer_idle_cores {
            for domain in &domains {
                for cpu in domain.iter() {
                    if affinity.contains(cpu) && !s.is_busy(cpu) && core_is_idle(cpu) {
                        return Some(cpu);
                    }
                }
            }
        }
        for domain in &domains {
            for cpu in domain.iter() {
                if affinity.contains(cpu) && !s.is_busy(cpu) {
                    return Some(cpu);
                }
            }
        }
        affinity.iter().find(|&c| !s.is_busy(c))
    }

    /// Both bitmaps equal their definitions over the running table.
    fn assert_masks_match_running(s: &Scheduler) {
        for cpu in s.topo.all_cpus().iter() {
            let core_busy = s
                .topo
                .cpus_in_core(s.topo.core_of(cpu))
                .iter()
                .any(|c| s.is_busy(c));
            assert_eq!(BusyMasks::bit(&s.busy.cpus, cpu), s.is_busy(cpu), "{cpu}");
            assert_eq!(
                BusyMasks::bit(&s.busy.cores, cpu),
                core_busy,
                "core of {cpu}"
            );
        }
    }

    /// A CPU set over `topo` from random words; `density` 0–3 thins or
    /// thickens it so nearly-idle and nearly-full machines both occur.
    fn random_set(topo: &Topology, words: &[u64], mix: &[u64], density: u8) -> CpuSet {
        topo.all_cpus()
            .iter()
            .filter(|c| {
                let (w, b) = (c.index() / 64 % words.len(), c.index() % 64);
                let x = match density {
                    0 => words[w] & mix[w],
                    1 => words[w],
                    2 => words[w] | mix[w],
                    _ => !(words[w] & mix[w]),
                };
                x & (1 << b) != 0
            })
            .collect()
    }

    fn machine(big: bool) -> Arc<Topology> {
        Arc::new(if big {
            Topology::zen2_2p_128c()
        } else {
            Topology::desktop_8c()
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_parallel_idle_search_matches_the_per_cpu_scan(
            big in any::<bool>(),
            prefer in any::<bool>(),
            busy in (proptest::collection::vec(any::<u64>(), 4), proptest::collection::vec(any::<u64>(), 4), 0u8..4),
            aff in (proptest::collection::vec(any::<u64>(), 4), proptest::collection::vec(any::<u64>(), 4), 0u8..5),
            anchor in (any::<bool>(), any::<u32>()),
        ) {
            let topo = machine(big);
            let params = SchedParams { prefer_idle_cores: prefer, ..SchedParams::default() };
            let mut sched = Scheduler::new(topo.clone(), params);
            for cpu in random_set(&topo, &busy.0, &busy.1, busy.2).iter() {
                let t = sched.spawn(topo.all_cpus().clone());
                sched.start_on(t, cpu);
            }
            assert_masks_match_running(&sched);
            let affinity = match aff.2 {
                // A whole CCX: the pinned-deployment shape.
                4 => topo.cpus_in_ccx(cputopo::CcxId(aff.0[0] as u32 % topo.num_ccxs() as u32)).clone(),
                d => random_set(&topo, &aff.0, &aff.1, d),
            };
            prop_assume_nonempty(&affinity)?;
            let anchor = anchor.0.then(|| CpuId(anchor.1 % topo.num_cpus() as u32));
            prop_assert_eq!(
                sched.find_idle_cpu(anchor, &affinity),
                find_idle_cpu_scan(&sched, anchor, &affinity)
            );
        }

        #[test]
        fn busy_bitmaps_track_the_running_table(
            big in any::<bool>(),
            ops in proptest::collection::vec((0u8..7, any::<u32>()), 1..300),
        ) {
            let topo = machine(big);
            let mut sched = Scheduler::new(topo.clone(), SchedParams::default());
            let ncpus = topo.num_cpus() as u32;
            // Tasks pinned to one CCX crowd it, so runqueues fill and steals,
            // preemptions and promotions all happen.
            let tasks: Vec<TaskId> = (0..48u32)
                .map(|i| match i % 3 {
                    0 => sched.spawn(topo.all_cpus().clone()),
                    1 => sched.spawn(topo.cpus_in_ccx(cputopo::CcxId(0)).clone()),
                    _ => sched.spawn([CpuId(i % ncpus)].into_iter().collect()),
                })
                .collect();
            let mut saved = {
                let mut w = SnapWriter::new();
                sched.snap_save(&mut w);
                w.finish()
            };
            for (op, x) in ops {
                let task = tasks[x as usize % tasks.len()];
                let cpu = CpuId(x % ncpus);
                match op {
                    0 | 1 => {
                        sched.wake_outcome(task);
                    }
                    2 => {
                        if sched.state(task) == TaskState::Running {
                            sched.block(task);
                        }
                    }
                    3 => {
                        sched.quantum_expired(cpu);
                    }
                    4 => {
                        sched.steal(cpu);
                    }
                    5 => {
                        let mut w = SnapWriter::new();
                        sched.snap_save(&mut w);
                        saved = w.finish();
                    }
                    _ => {
                        // Roll the live scheduler back to the last save (or
                        // to its idle start), as an engine restore does.
                        sched
                            .snap_restore(&mut SnapReader::new(&saved).expect("envelope"))
                            .expect("restores");
                    }
                }
                assert_masks_match_running(&sched);
            }
        }
    }

    /// Skips a case whose random affinity came out empty.
    fn prop_assume_nonempty(set: &CpuSet) -> Result<(), TestCaseError> {
        if set.is_empty() {
            Err(TestCaseError::reject("empty affinity"))
        } else {
            Ok(())
        }
    }

    #[test]
    fn busy_and_queued_counts() {
        let (topo, mut sched) = small();
        let mask: CpuSet = [CpuId(0), CpuId(1)].into_iter().collect();
        for _ in 0..3 {
            let t = sched.spawn(mask.clone());
            sched.wake(t, SimTime::ZERO);
        }
        assert_eq!(sched.busy_count_in(&mask), 2);
        assert_eq!(sched.queued_count_in(&mask), 1);
        assert_eq!(sched.busy_count_in(topo.all_cpus()), 2);
    }
}
