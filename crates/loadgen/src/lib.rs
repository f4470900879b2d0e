//! Workload generators for the microservice engine.
//!
//! Two canonical load shapes:
//!
//! * [`ClosedLoop`] — a fixed population of users, each cycling
//!   request → response → think time → request. This is how the paper's HTTP
//!   load driver exercises TeaStore: offered load is controlled by the user
//!   count, and the system saturates gracefully.
//! * [`OpenLoop`] — Poisson arrivals at a fixed rate, independent of
//!   completions. Used for latency-under-load experiments where offered load
//!   must not depend on the system's speed.
//!
//! Both handle **warm-up**: at a configurable instant they reset the
//! engine's measurement window so JIT-equivalent cold-start effects (cold
//! caches, empty pools) do not pollute steady-state numbers, and stop the
//! run when the measurement window closes.
//!
//! # Example
//!
//! ```
//! use loadgen::ClosedLoop;
//! use microsvc::{AppSpec, CallNode, Demand, Deployment, Engine, EngineParams, ServiceSpec};
//! use simcore::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(cputopo::Topology::desktop_8c());
//! let mut app = AppSpec::new();
//! let svc = app.add_service(ServiceSpec::new("api", uarch::ServiceProfile::light_rpc("api")));
//! app.add_class("ping", 1.0, CallNode::leaf(svc, Demand::fixed_us(300.0)));
//! let deployment = Deployment::uniform(&app, &topo, 2, 8);
//! let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 1);
//!
//! let mut load = ClosedLoop::new(32)
//!     .think_time(SimDuration::from_millis(5))
//!     .warmup(SimDuration::from_millis(200))
//!     .measure(SimDuration::from_secs(1));
//! engine.run(&mut load, SimTime::from_secs(10));
//! let report = engine.report();
//! assert!(report.throughput_rps > 100.0);
//! ```

pub mod patterns;
pub mod replay;

pub use patterns::{BurstyLoop, RampLoad};
pub use replay::{Arrival, ReplayLoad, Schedule};

use microsvc::{Driver, EngineCtx, ResponseInfo};
use simcore::dist::{Distribution, Exp, WeightedIndex};
use simcore::snap::{SnapError, SnapReader, SnapWriter};
use simcore::{DetHashMap, SimDuration};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

const TOKEN_WARMUP: u64 = u64::MAX;
const TOKEN_STOP: u64 = u64::MAX - 1;
const TOKEN_ARRIVAL: u64 = u64::MAX - 2;
/// Tag bit for coalesced wake-bucket timers; the low bits carry the bucket
/// key. Distinct from the reserved tokens above (which also have bit 62 set
/// but sit in the top three values, checked first) and from per-user tokens
/// (user ids are bounded by the u32 population limit).
const TOKEN_BUCKET_BIT: u64 = 1 << 62;

/// Source of rollback-point stamps. One counter for the process, so a
/// stamp names one point of one loop and a stale or foreign bare buffer
/// can never match. Stamps are only compared for equality; they never
/// reach simulated state.
static NEXT_POINT: AtomicU64 = AtomicU64::new(1);

/// Wake-up bookkeeping for a coalesced closed loop: a structure-of-arrays
/// user table plus the pending wake buckets.
///
/// Instead of one live calendar timer per sleeping user (1M users = 1M
/// pending timers), users are parked here: `deadline_ns[user]` packs each
/// user's exact think-deadline, and `buckets` groups users by quantized
/// wake instant, with **one** engine timer per non-empty bucket. When a
/// bucket fires its users are released in deadline order, so the intent
/// ordering of the un-coalesced loop is preserved within a grain.
#[derive(Debug, Clone, Default)]
struct UserTable {
    /// Packed think-deadline (absolute ns) per user id; index is the id.
    deadline_ns: Vec<u64>,
    /// Quantized wake instant (`fire_ns / grain_ns`) → sleeping user ids.
    /// Deterministically hashed so the capacity — and with it the reported
    /// footprint — is identical on every run.
    buckets: DetHashMap<u64, Vec<u32>>,
    /// Drained bucket vectors kept for reuse, so steady state allocates
    /// nothing on the wake path.
    spare: Vec<Vec<u32>>,
    /// Most users ever parked in buckets at once.
    high_water: usize,
    parked: usize,
    /// The latest rollback point and the undo entries since. Written by a
    /// bare `snap_save`, which takes `&self`, hence the `RefCell`.
    journal: RefCell<Journal>, // simlint: allow(S1) — rollback-point scratch: a durable snapshot carries the state it would restore, and a durable restore retires the point
}

/// The latest rollback point of a [`UserTable`] and how to get back to it.
///
/// On a started table the point is an undo journal: from the mark on,
/// every `park`, `release` and `recycle` pushes one [`Undo`] entry, so a
/// point costs O(1) to take and O(changes since) to restore, however large
/// the population. On an unstarted table (before `start` parks everyone)
/// the point is a copy of the table, which is then nearly empty, so
/// restoring it resets the table without journaling each user. A journal
/// that outgrows the table (one-window shard rounds take no point, so the
/// changes of several rounds can pile up) is folded into a copy too, which
/// bounds it by the smaller of the work since the point and the population.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// Stamp of the live point; 0 = none.
    point: u64,
    /// Whether changes are being journaled; otherwise `copy` is the point.
    recording: bool,
    /// `UserTable::parked` at the point, when recording.
    parked: usize,
    /// `UserTable::high_water` at the point, when recording.
    high_water: usize,
    /// Undo entries, oldest first.
    undo: Vec<Undo>,
    /// Users of the buckets released since the point, in bucket order.
    arena: Vec<u32>,
    /// Empty vectors outside the spare pool (whose length is state):
    /// bucket vectors handed back by undoing, reused before allocating.
    limbo: Vec<Vec<u32>>,
    /// The table at the point in the full codec, when not recording.
    copy: Vec<u8>,
}

/// One journaled [`UserTable`] change, with what undoing it needs.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// `park` pushed `user` onto bucket `key` over its old `deadline_ns`.
    Park {
        user: u32,
        deadline_ns: u64,
        key: u64,
        opened: Opened,
    },
    /// `release` removed bucket `key`; its users are the arena from `at` on.
    Release { key: u64, at: usize },
    /// `recycle` pushed a drained vector onto the spare pool.
    Recycle,
}

/// Whether `park` opened the bucket, and with which vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opened {
    /// The bucket was already open.
    No,
    /// Opened with a vector from the spare pool.
    Spare,
    /// Opened with a vector from limbo or a new one.
    Fresh,
}

impl UserTable {
    /// Parks `user` until `deadline_ns`, returning `Some(fire_ns)` when the
    /// caller must arm a new bucket timer for that instant.
    fn park(&mut self, user: u32, deadline_ns: u64, grain_ns: u64) -> Option<u64> {
        // Only a recording point needs the old deadline. `start` fills a
        // freshly zeroed table, where a read before each write would fault
        // every page in twice.
        let old = if self.journal.get_mut().recording {
            self.deadline_ns[user as usize]
        } else {
            0
        };
        self.deadline_ns[user as usize] = deadline_ns;
        self.parked += 1;
        if self.parked > self.high_water {
            self.high_water = self.parked;
        }
        let key = deadline_ns.div_ceil(grain_ns);
        let limbo = &mut self.journal.get_mut().limbo;
        let (fire_ns, opened) = match self.buckets.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                e.into_mut().push(user);
                (None, Opened::No)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let (mut vec, opened) = match self.spare.pop() {
                    Some(vec) => (vec, Opened::Spare),
                    None => (limbo.pop().unwrap_or_default(), Opened::Fresh),
                };
                vec.push(user);
                v.insert(vec);
                (Some(key * grain_ns), opened)
            }
        };
        self.record(Undo::Park {
            user,
            deadline_ns: old,
            key,
            opened,
        });
        fire_ns
    }

    /// Releases the bucket with `key`, returning its users sorted by
    /// (packed deadline, id) — the order the un-coalesced loop would have
    /// woken them. Hand the vector back with [`UserTable::recycle`].
    fn release(&mut self, key: u64) -> Vec<u32> {
        let Some(mut users) = self.buckets.remove(&key) else {
            return Vec::new();
        };
        self.parked -= users.len();
        let journal = self.journal.get_mut();
        let at = journal.arena.len();
        if journal.recording {
            journal.arena.extend_from_slice(&users);
        }
        self.record(Undo::Release { key, at });
        let deadlines = &self.deadline_ns;
        users.sort_unstable_by_key(|&u| (deadlines[u as usize], u));
        users
    }

    /// Returns a released bucket's vector to the spare pool.
    fn recycle(&mut self, mut users: Vec<u32>) {
        users.clear();
        self.spare.push(users);
        self.record(Undo::Recycle);
    }

    /// Journals `entry` if a point is recording. A journal longer than the
    /// population costs more than a copy of the table, so it is folded
    /// into one.
    #[inline]
    fn record(&mut self, entry: Undo) {
        let journal = self.journal.get_mut();
        if journal.recording {
            journal.undo.push(entry);
            if journal.undo.len() + journal.arena.len() > self.deadline_ns.len() {
                self.fold_into_copy();
            }
        }
    }

    /// Takes a rollback point, retiring the previous one and trimming its
    /// journal, and writes the point's stamp.
    fn mark(&self, w: &mut SnapWriter) {
        let mut journal = self.journal.borrow_mut();
        journal.point = NEXT_POINT.fetch_add(1, Ordering::Relaxed);
        journal.undo.clear();
        journal.arena.clear();
        journal.recording = !self.deadline_ns.is_empty();
        if journal.recording {
            journal.parked = self.parked;
            journal.high_water = self.high_water;
        } else {
            let mut copy = SnapWriter::bare(std::mem::take(&mut journal.copy));
            self.snap_save(&mut copy);
            journal.copy = copy.into_bare();
        }
        w.u64(journal.point);
    }

    /// Returns the table to the rollback point stamped `point`, which stays
    /// live. A stale or foreign stamp is `Corrupt` and changes nothing.
    fn rollback(&mut self, point: u64, users: u64) -> Result<(), SnapError> {
        let journal = self.journal.get_mut();
        if point == 0 || point != journal.point {
            return Err(SnapError::Corrupt(format!(
                "rollback point {point} is stale or another loop's (this loop's latest is {})",
                journal.point
            )));
        }
        if journal.recording {
            let mut journal = std::mem::take(journal);
            self.undo(&mut journal);
            *self.journal.get_mut() = journal;
        } else {
            let mut table = UserTable::snap_load(&mut SnapReader::bare(&journal.copy), users)?;
            table.journal = std::mem::take(&mut self.journal);
            *self = table;
        }
        Ok(())
    }

    /// Undoes `journal`'s entries, newest first, leaving the table at the
    /// point and the journal empty.
    fn undo(&mut self, journal: &mut Journal) {
        while let Some(entry) = journal.undo.pop() {
            match entry {
                Undo::Park {
                    user,
                    deadline_ns,
                    key,
                    opened,
                } => {
                    self.deadline_ns[user as usize] = deadline_ns;
                    if opened == Opened::No {
                        self.buckets.get_mut(&key).expect("journaled bucket").pop();
                    } else {
                        let mut vec = self.buckets.remove(&key).expect("journaled bucket");
                        vec.clear();
                        match opened {
                            Opened::Spare => self.spare.push(vec),
                            _ => journal.limbo.push(vec),
                        }
                    }
                }
                Undo::Release { key, at } => {
                    let mut users = journal.limbo.pop().unwrap_or_default();
                    users.extend_from_slice(&journal.arena[at..]);
                    journal.arena.truncate(at);
                    self.buckets.insert(key, users);
                }
                Undo::Recycle => journal
                    .limbo
                    .push(self.spare.pop().expect("journaled spare vector")),
            }
        }
        self.parked = journal.parked;
        self.high_water = journal.high_water;
    }

    /// Turns the recording point into a copy: undoes the journal on a clone
    /// of the table and encodes the result. O(population), so it runs only
    /// once a journal has outgrown the table.
    #[cold]
    #[inline(never)]
    fn fold_into_copy(&mut self) {
        let mut journal = std::mem::take(self.journal.get_mut());
        let mut at_point = self.clone();
        at_point.undo(&mut journal);
        let mut copy = SnapWriter::bare(std::mem::take(&mut journal.copy));
        at_point.snap_save(&mut copy);
        journal.copy = copy.into_bare();
        journal.recording = false;
        *self.journal.get_mut() = journal;
    }

    /// Serializes the table with buckets in sorted-key order; the spare pool
    /// is captured as a count (its vectors are always empty — only their
    /// allocations are reused). The deadline table and every bucket go
    /// through the bulk slice codecs: the same bytes as `Vec::save`, at
    /// memory speed.
    fn snap_save(&self, w: &mut SnapWriter) {
        w.u64s(&self.deadline_ns);
        let mut buckets: Vec<(u64, &Vec<u32>)> = self
            .buckets
            .iter()
            .map(|(&key, users)| (key, users))
            .collect();
        buckets.sort_unstable_by_key(|&(key, _)| key);
        w.usize(buckets.len());
        for (key, users) in buckets {
            w.u64(key);
            w.u32s(users);
        }
        w.usize(self.spare.len());
        w.usize(self.high_water);
        w.usize(self.parked);
    }

    /// Rebuilds the table of a `users`-user loop from
    /// [`UserTable::snap_save`], checking it first: the deadline table is
    /// empty (unstarted) or has one slot per user, bucket keys ascend,
    /// every parked id indexes the deadline table, `parked` is the users in
    /// buckets, and `spare <= high_water <= users`, `parked <= high_water`
    /// (each bucket vector once held a parked user). A violation is
    /// `Corrupt`, found before the spare pool is allocated.
    fn snap_load(r: &mut SnapReader<'_>, users: u64) -> Result<Self, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("closed-loop table: {what}")));
        let deadline_ns = r.u64s()?;
        if !deadline_ns.is_empty() && deadline_ns.len() as u64 != users {
            return corrupt(format!(
                "{} deadline slots for {users} users",
                deadline_ns.len()
            ));
        }
        let nbuckets = r.usize()?;
        let mut buckets = DetHashMap::default();
        let mut in_buckets = 0usize;
        let mut last_key = None;
        for _ in 0..nbuckets {
            let key = r.u64()?;
            if last_key.is_some_and(|last| key <= last) {
                return corrupt(format!("bucket key {key} out of order"));
            }
            last_key = Some(key);
            let ids = r.u32s()?;
            if let Some(&id) = ids.iter().find(|&&id| id as usize >= deadline_ns.len()) {
                return corrupt(format!(
                    "user {id} parked in bucket {key}, {} deadline slots",
                    deadline_ns.len()
                ));
            }
            in_buckets += ids.len();
            buckets.insert(key, ids);
        }
        let spare = r.usize()?;
        let high_water = r.usize()?;
        let parked = r.usize()?;
        if parked != in_buckets {
            return corrupt(format!("{parked} parked, {in_buckets} in buckets"));
        }
        if high_water as u64 > users || parked > high_water || spare > high_water {
            return corrupt(format!(
                "{spare} spare, {parked} parked, high water {high_water}, {users} users"
            ));
        }
        Ok(UserTable {
            deadline_ns,
            buckets,
            spare: vec![Vec::new(); spare],
            high_water,
            parked,
            journal: RefCell::default(),
        })
    }

    /// Approximate heap bytes held by the table (capacities, not lengths),
    /// rollback journal included.
    fn footprint_bytes(&self) -> usize {
        let journal = self.journal.borrow();
        let ids: usize = self
            .buckets
            .values()
            .chain(self.spare.iter())
            .chain(journal.limbo.iter())
            .map(|v| v.capacity())
            .sum::<usize>()
            + journal.arena.capacity();
        self.deadline_ns.capacity() * std::mem::size_of::<u64>()
            + self.buckets.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>())
            + ids * std::mem::size_of::<u32>()
            + journal.undo.capacity() * std::mem::size_of::<Undo>()
            + journal.copy.capacity()
    }
}

/// A fixed population of users with exponential think times.
///
/// Build with [`ClosedLoop::new`] and the chainable configuration methods,
/// then pass to [`Engine::run`](microsvc::Engine::run).
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    users: u64,
    think_mean: SimDuration, // simlint: allow(S1) — config, fixed at construction
    warmup: SimDuration, // simlint: allow(S1) — config, fixed at construction
    measure: Option<SimDuration>, // simlint: allow(S1) — config, fixed at construction
    mix: Vec<f64>, // simlint: allow(S1) — config, fixed at construction
    issued: u64,
    completed: u64,
    errors: u64,
    measuring: bool,
    /// Think-wakeup coalescing grain; `None` = one exact timer per user.
    coalesce: Option<SimDuration>,
    table: UserTable,
}

impl ClosedLoop {
    /// Creates a closed loop of `users` users with zero think time, a
    /// single-class mix, 500 ms warm-up and an unbounded measurement window.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn new(users: u64) -> Self {
        assert!(users > 0, "a closed loop needs at least one user");
        ClosedLoop {
            users,
            think_mean: SimDuration::ZERO,
            warmup: SimDuration::from_millis(500),
            measure: None,
            mix: vec![1.0],
            issued: 0,
            completed: 0,
            errors: 0,
            measuring: false,
            coalesce: None,
            table: UserTable::default(),
        }
    }

    /// Sets the mean exponential think time (zero = resubmit immediately).
    pub fn think_time(mut self, mean: SimDuration) -> Self {
        self.think_mean = mean;
        self
    }

    /// Sets the warm-up length; metrics reset when it elapses.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measurement window; the run stops `warmup + measure` in.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Sets the request-class mix weights (defaults to 100% class 0).
    ///
    /// # Panics
    ///
    /// Panics if `mix` is empty.
    pub fn mix(mut self, mix: &[f64]) -> Self {
        assert!(!mix.is_empty(), "mix must name at least one class");
        self.mix = mix.to_vec();
        self
    }

    /// Coalesces think-time wakeups into buckets of width `grain`.
    ///
    /// In coalesced mode the loop keeps a compact structure-of-arrays user
    /// table (u32 ids, packed think-deadlines) and arms **one** calendar
    /// timer per non-empty wake bucket instead of one per sleeping user, so
    /// a million-user population does not mean a million live timers. Each
    /// wakeup is deferred to the end of its grain bucket (users inside a
    /// bucket fire in deadline order), trading up to `grain` of think-time
    /// fidelity for O(active buckets) timer memory. The exact per-user mode
    /// (`grain = None`, the default) is unchanged and bit-identical to
    /// previous releases.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero or the population exceeds `u32::MAX`.
    pub fn coalesce(mut self, grain: SimDuration) -> Self {
        assert!(!grain.is_zero(), "coalescing grain must be positive");
        assert!(
            self.users <= u64::from(u32::MAX),
            "coalesced mode packs user ids into u32"
        );
        self.coalesce = Some(grain);
        self
    }

    /// Number of users.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Requests issued over the whole run (including warm-up).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Responses received over the whole run (including warm-up).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Error responses (timeouts, sheds) over the whole run. Users carry on
    /// after an error — a browser showing an error page still lets the
    /// shopper retry — so the closed-loop population never leaks.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Users currently parked in wake buckets (coalesced mode only).
    pub fn parked_users(&self) -> usize {
        self.table.parked
    }

    /// Most users ever parked at once (coalesced mode only).
    pub fn parked_high_water(&self) -> usize {
        self.table.high_water
    }

    /// Approximate heap bytes of the generator's per-user state: the packed
    /// deadline table plus wake-bucket storage. Zero in exact mode, where
    /// the per-user state lives in the engine calendar instead.
    pub fn footprint_bytes(&self) -> usize {
        self.table.footprint_bytes()
    }

    fn submit_for(&mut self, user: u64, ctx: &mut dyn EngineCtx) {
        let mix = WeightedIndex::new(&self.mix);
        let class = mix.sample_index(ctx.rng()) as u32;
        self.issued += 1;
        ctx.submit(class, user);
    }

    /// Serializes the loop's run-time state (counters, measuring flag, the
    /// user table). The configuration is captured only as a fingerprint: a
    /// restored loop must be rebuilt with the same builder calls first.
    ///
    /// Into a [`SnapWriter::bare`] writer the user table is not copied: the
    /// loop takes a rollback point instead and writes its stamp, then
    /// journals every change to the table until the next point. The save
    /// costs O(1) and the matching restore O(changes since), not
    /// O(population); the buffer obeys the rollback-point contract on
    /// [`SnapWriter::bare`].
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.section("closed-loop");
        w.u64(self.users);
        w.bool(self.coalesce.is_some());
        w.u64(self.issued);
        w.u64(self.completed);
        w.u64(self.errors);
        w.bool(self.measuring);
        if w.is_bare() {
            self.table.mark(w);
        } else {
            self.table.snap_save(w);
        }
    }

    /// Restores state captured by [`ClosedLoop::snap_save`] into an
    /// identically configured loop. A bare buffer rolls the table back to
    /// its point; a stale point or another loop's is `Corrupt`. On any
    /// error the loop is left unchanged.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("closed-loop")?;
        let users = r.u64()?;
        let coalesced = r.bool()?;
        if users != self.users || coalesced != self.coalesce.is_some() {
            return Err(SnapError::Corrupt(format!(
                "snapshot is of a {users}-user {} loop, this loop has {} users ({})",
                if coalesced { "coalesced" } else { "exact" },
                self.users,
                if self.coalesce.is_some() {
                    "coalesced"
                } else {
                    "exact"
                },
            )));
        }
        let (issued, completed, errors, measuring) = (r.u64()?, r.u64()?, r.u64()?, r.bool()?);
        if r.is_bare() {
            self.table.rollback(r.u64()?, users)?;
        } else {
            self.table = UserTable::snap_load(r, users)?;
        }
        self.issued = issued;
        self.completed = completed;
        self.errors = errors;
        self.measuring = measuring;
        Ok(())
    }

    /// Parks `user` until `delay` from now — through the wake-bucket table
    /// in coalesced mode, or a dedicated timer otherwise.
    fn sleep_user(&mut self, user: u64, delay: SimDuration, ctx: &mut dyn EngineCtx) {
        match self.coalesce {
            Some(grain) => {
                let now = ctx.now().as_nanos();
                let deadline = now + delay.as_nanos();
                if let Some(fire_ns) =
                    self.table
                        .park(user as u32, deadline, grain.as_nanos())
                {
                    ctx.set_timer(
                        SimDuration::from_nanos(fire_ns - now),
                        TOKEN_BUCKET_BIT | (fire_ns / grain.as_nanos()),
                    );
                }
            }
            None => ctx.set_timer(delay, user),
        }
    }
}

impl Driver for ClosedLoop {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        ctx.set_timer(self.warmup, TOKEN_WARMUP);
        if let Some(measure) = self.measure {
            ctx.set_timer(self.warmup + measure, TOKEN_STOP);
        }
        if self.coalesce.is_some() {
            self.table.deadline_ns = vec![0; self.users as usize];
        }
        // Stagger initial arrivals over half the think time (or 50 ms) so the
        // population does not arrive as one synchronized burst.
        let stagger_ns = (self.think_mean.as_nanos() / 2).max(50_000_000);
        for user in 0..self.users {
            let offset = SimDuration::from_nanos(ctx.rng().next_below(stagger_ns));
            self.sleep_user(user, offset, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        match token {
            TOKEN_WARMUP => {
                ctx.reset_metrics();
                self.measuring = true;
            }
            TOKEN_STOP => ctx.request_stop(),
            bucket if bucket & TOKEN_BUCKET_BIT != 0 && self.coalesce.is_some() => {
                let users = self.table.release(bucket & !TOKEN_BUCKET_BIT);
                for &user in &users {
                    self.submit_for(u64::from(user), ctx);
                }
                self.table.recycle(users);
            }
            user => self.submit_for(user, ctx),
        }
    }

    fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
        self.completed += 1;
        if resp.outcome != microsvc::Outcome::Ok {
            self.errors += 1;
        }
        let user = resp.client.0;
        if self.think_mean.is_zero() {
            self.submit_for(user, ctx);
        } else {
            let think = Exp::from_mean_duration(self.think_mean).sample_duration(ctx.rng());
            self.sleep_user(user, think, ctx);
        }
    }
}

impl microsvc::SnapDriver for ClosedLoop {
    fn driver_snap_save(&self, w: &mut SnapWriter) {
        self.snap_save(w);
    }

    fn driver_snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap_restore(r)
    }
}

/// Poisson arrivals at a fixed rate, independent of completions.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rate_rps: f64, // simlint: allow(S1) — config, fixed at construction
    warmup: SimDuration, // simlint: allow(S1) — config, fixed at construction
    measure: Option<SimDuration>, // simlint: allow(S1) — config, fixed at construction
    mix: Vec<f64>, // simlint: allow(S1) — config, fixed at construction
    next_client: u64,
    completed: u64,
}

impl OpenLoop {
    /// Creates an open loop at `rate_rps` requests per second with a
    /// single-class mix, 500 ms warm-up and an unbounded window.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not strictly positive.
    pub fn new(rate_rps: f64) -> Self {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        OpenLoop {
            rate_rps,
            warmup: SimDuration::from_millis(500),
            measure: None,
            mix: vec![1.0],
            next_client: 0,
            completed: 0,
        }
    }

    /// Sets the warm-up length; metrics reset when it elapses.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measurement window; the run stops `warmup + measure` in.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Sets the request-class mix weights.
    ///
    /// # Panics
    ///
    /// Panics if `mix` is empty.
    pub fn mix(mut self, mix: &[f64]) -> Self {
        assert!(!mix.is_empty(), "mix must name at least one class");
        self.mix = mix.to_vec();
        self
    }

    /// Responses received over the whole run.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Serializes the loop's run-time state; see [`ClosedLoop::snap_save`].
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.section("open-loop");
        w.u64(self.next_client);
        w.u64(self.completed);
    }

    /// Restores state captured by [`OpenLoop::snap_save`] into an
    /// identically configured loop.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("open-loop")?;
        self.next_client = r.u64()?;
        self.completed = r.u64()?;
        Ok(())
    }

    fn schedule_next_arrival(&self, ctx: &mut dyn EngineCtx) {
        let mean_ns = 1e9 / self.rate_rps;
        let gap = Exp::from_mean(mean_ns).sample_duration(ctx.rng());
        ctx.set_timer(gap, TOKEN_ARRIVAL);
    }
}

impl Driver for OpenLoop {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        ctx.set_timer(self.warmup, TOKEN_WARMUP);
        if let Some(measure) = self.measure {
            ctx.set_timer(self.warmup + measure, TOKEN_STOP);
        }
        self.schedule_next_arrival(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        match token {
            TOKEN_WARMUP => ctx.reset_metrics(),
            TOKEN_STOP => ctx.request_stop(),
            TOKEN_ARRIVAL => {
                let mix = WeightedIndex::new(&self.mix);
                let class = mix.sample_index(ctx.rng()) as u32;
                let client = self.next_client;
                self.next_client += 1;
                ctx.submit(class, client);
                self.schedule_next_arrival(ctx);
            }
            other => unreachable!("open loop received unknown timer {other}"),
        }
    }

    fn on_response(&mut self, _resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
        self.completed += 1;
    }
}

impl microsvc::SnapDriver for OpenLoop {
    fn driver_snap_save(&self, w: &mut SnapWriter) {
        self.snap_save(w);
    }

    fn driver_snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap_restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Topology;
    use microsvc::{AppSpec, CallNode, Demand, Deployment, Engine, EngineParams, ServiceSpec};
    use simcore::SimTime;
    use std::sync::Arc;
    use uarch::ServiceProfile;

    fn engine(demand_us: f64, instances: usize, threads: usize, seed: u64) -> Engine {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class("a", 1.0, CallNode::leaf(svc, Demand::fixed_us(demand_us)));
        app.add_class(
            "b",
            1.0,
            CallNode::leaf(svc, Demand::fixed_us(demand_us * 2.0)),
        );
        let deployment = Deployment::uniform(&app, &topo, instances, threads);
        Engine::new(topo, EngineParams::default(), app, deployment, seed)
    }

    #[test]
    fn closed_loop_sustains_population() {
        let mut eng = engine(300.0, 2, 8, 1);
        let mut load = ClosedLoop::new(16)
            .think_time(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_secs(1));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        assert!(report.completed > 500, "completed {}", report.completed);
        assert!(load.issued() >= load.completed());
        // Sanity: interactive law N = X(R + Z) within slack.
        let n = 16.0;
        let x = report.throughput_rps;
        let r = report.mean_latency.as_secs_f64();
        let z = 0.002;
        assert!(
            (x * (r + z) - n).abs() / n < 0.25,
            "interactive law violated: X(R+Z) = {}",
            x * (r + z)
        );
    }

    #[test]
    fn zero_think_time_saturates() {
        let mut eng = engine(500.0, 1, 2, 2);
        let mut load = ClosedLoop::new(8)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(500));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        // 2 worker threads × ~2000 rps/thread at 500µs.
        assert!(
            report.throughput_rps > 2500.0,
            "rps {}",
            report.throughput_rps
        );
        assert!(
            report.services[0].avg_busy_cpus > 1.5,
            "busy {}",
            report.services[0].avg_busy_cpus
        );
    }

    #[test]
    fn closed_loop_uses_the_mix() {
        let mut eng = engine(100.0, 2, 8, 3);
        let mut load = ClosedLoop::new(8)
            .mix(&[1.0, 3.0])
            .warmup(SimDuration::from_millis(50))
            .measure(SimDuration::from_secs(1));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        let a = report.per_class[0].1 as f64;
        let b = report.per_class[1].1 as f64;
        assert!(b > 2.0 * a, "class b ({b}) should be ~3× class a ({a})");
    }

    #[test]
    fn open_loop_hits_target_rate() {
        let mut eng = engine(200.0, 2, 8, 4);
        let mut load = OpenLoop::new(2_000.0)
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_secs(2));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        assert!(
            (report.throughput_rps - 2_000.0).abs() / 2_000.0 < 0.1,
            "rps {}",
            report.throughput_rps
        );
    }

    #[test]
    fn warmup_resets_the_window() {
        let mut eng = engine(200.0, 2, 8, 5);
        let mut load = ClosedLoop::new(4)
            .think_time(SimDuration::from_millis(1))
            .warmup(SimDuration::from_secs(1))
            .measure(SimDuration::from_secs(1));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        // The window must be the measurement second, not the whole run.
        assert!(
            (report.window.as_secs_f64() - 1.0).abs() < 0.05,
            "window {}",
            report.window
        );
        assert!(
            load.completed() > report.completed,
            "warm-up requests excluded"
        );
    }

    #[test]
    fn measurement_stop_is_respected() {
        let mut eng = engine(200.0, 1, 4, 6);
        let mut load = ClosedLoop::new(2)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(300));
        eng.run(&mut load, SimTime::from_secs(30));
        assert!(
            eng.now() <= SimTime::from_millis(450),
            "run must stop at warmup+measure, stopped at {}",
            eng.now()
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut eng = engine(300.0, 2, 4, 9);
            let mut load = ClosedLoop::new(8)
                .think_time(SimDuration::from_millis(1))
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_secs(1));
            eng.run(&mut load, SimTime::from_secs(30));
            (load.issued(), load.completed(), eng.report().completed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn coalesced_loop_matches_exact_loop_statistically() {
        let run = |coalesce: bool| {
            let mut eng = engine(300.0, 2, 8, 7);
            let mut load = ClosedLoop::new(64)
                .think_time(SimDuration::from_millis(5))
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_secs(1));
            if coalesce {
                load = load.coalesce(SimDuration::from_millis(1));
            }
            eng.run(&mut load, SimTime::from_secs(30));
            (eng.report().throughput_rps, load.issued(), load.completed())
        };
        let (exact_rps, ..) = run(false);
        let (coal_rps, issued, completed) = run(true);
        assert!(issued >= completed);
        // A 1 ms grain against a 5 ms think time defers each wakeup by at
        // most one grain; throughput must stay within a few percent.
        assert!(
            (coal_rps - exact_rps).abs() / exact_rps < 0.10,
            "coalesced {coal_rps} vs exact {exact_rps} rps"
        );
    }

    #[test]
    fn coalesced_loop_is_deterministic_and_drains_buckets() {
        let run = || {
            let mut eng = engine(300.0, 2, 4, 11);
            let mut load = ClosedLoop::new(512)
                .think_time(SimDuration::from_millis(10))
                .coalesce(SimDuration::from_millis(2))
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_millis(500));
            eng.run(&mut load, SimTime::from_secs(30));
            (
                load.issued(),
                load.completed(),
                load.parked_high_water(),
                eng.report().completed,
            )
        };
        let a = run();
        assert_eq!(a, run(), "coalesced runs must be bit-reproducible");
        assert!(
            a.2 > 0 && a.2 <= 512,
            "high water {} must reflect parked users",
            a.2
        );
    }

    #[test]
    fn coalesced_table_is_compact() {
        let mut eng = engine(300.0, 2, 8, 13);
        let mut load = ClosedLoop::new(10_000)
            .think_time(SimDuration::from_millis(50))
            .coalesce(SimDuration::from_millis(5))
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400));
        eng.run(&mut load, SimTime::from_secs(30));
        let per_user = load.footprint_bytes() as f64 / 10_000.0;
        // 8 bytes of packed deadline plus bucket-id slots; far from the
        // ~100+ bytes a per-user calendar entry costs.
        assert!(
            per_user < 64.0,
            "driver footprint {per_user:.1} B/user too fat"
        );
    }

    #[test]
    fn closed_loop_snapshot_round_trip() {
        use simcore::snap::{SnapReader, SnapWriter};
        let mut eng = engine(300.0, 2, 4, 17);
        let mut load = ClosedLoop::new(256)
            .think_time(SimDuration::from_millis(10))
            .coalesce(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(100));
        eng.run(&mut load, SimTime::from_millis(250));
        let mut w = SnapWriter::new();
        load.snap_save(&mut w);
        let bytes = w.finish();
        let mut restored = ClosedLoop::new(256)
            .think_time(SimDuration::from_millis(10))
            .coalesce(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(100));
        let mut r = SnapReader::new(&bytes).unwrap();
        restored.snap_restore(&mut r).expect("restores");
        assert_eq!(restored.issued(), load.issued());
        assert_eq!(restored.completed(), load.completed());
        assert_eq!(restored.parked_users(), load.parked_users());
        assert_eq!(restored.parked_high_water(), load.parked_high_water());
        let mut w2 = SnapWriter::new();
        restored.snap_save(&mut w2);
        assert_eq!(w2.finish(), bytes, "snapshot→restore→snapshot stable");
    }

    #[test]
    fn closed_loop_snapshot_rejects_mismatched_population() {
        use simcore::snap::{SnapError, SnapReader, SnapWriter};
        let load = ClosedLoop::new(8);
        let mut w = SnapWriter::new();
        load.snap_save(&mut w);
        let bytes = w.finish();
        let mut other = ClosedLoop::new(16);
        let mut r = SnapReader::new(&bytes).unwrap();
        match other.snap_restore(&mut r) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("8-user"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A hand-driven stand-in for the engine: pending timers and users
    /// waiting on a response are plain lists, so a test can save and
    /// restore them together with the loop, as a shard cell does with its
    /// engine.
    #[derive(Clone)]
    struct HandCtx {
        now_ns: u64,
        timers: Vec<(u64, u64)>,
        waiting: Vec<u64>,
        rng: simcore::Rng,
    }

    impl EngineCtx for HandCtx {
        fn now(&self) -> SimTime {
            SimTime::from_nanos(self.now_ns)
        }
        fn set_timer(&mut self, after: SimDuration, token: u64) {
            self.timers.push((self.now_ns + after.as_nanos(), token));
        }
        fn submit(&mut self, _class: u32, client: u64) -> microsvc::RequestId {
            self.waiting.push(client);
            microsvc::RequestId(client)
        }
        fn rng(&mut self) -> &mut simcore::Rng {
            &mut self.rng
        }
        fn reset_metrics(&mut self) {}
        fn request_stop(&mut self) {}
        fn completed_requests(&self) -> u64 {
            0
        }
    }

    impl HandCtx {
        fn new(seed: u64) -> Self {
            HandCtx {
                now_ns: 0,
                timers: Vec::new(),
                waiting: Vec::new(),
                rng: simcore::Rng::seed_from(seed),
            }
        }

        /// Fires the earliest pending timer, if any.
        fn fire_next(&mut self, load: &mut ClosedLoop) {
            let next = (0..self.timers.len()).min_by_key(|&i| self.timers[i]);
            if let Some(i) = next {
                let (at, token) = self.timers.swap_remove(i);
                self.now_ns = self.now_ns.max(at);
                load.on_timer(token, self);
            }
        }

        /// Answers one waiting user, who then thinks for `think_ns`.
        fn respond(&mut self, load: &mut ClosedLoop, pick: usize, think_ns: u64) {
            if !self.waiting.is_empty() {
                let user = self.waiting.swap_remove(pick % self.waiting.len());
                load.sleep_user(user, SimDuration::from_nanos(think_ns), self);
            }
        }
    }

    fn durable_bytes(load: &ClosedLoop) -> Vec<u8> {
        let mut w = SnapWriter::new();
        load.snap_save(&mut w);
        w.finish()
    }

    fn rollback_point(load: &ClosedLoop) -> Vec<u8> {
        let mut w = SnapWriter::bare(Vec::new());
        load.snap_save(&mut w);
        w.into_bare()
    }

    fn roll_back(load: &mut ClosedLoop, point: &[u8]) -> Result<(), SnapError> {
        load.snap_restore(&mut SnapReader::bare(point))
    }

    fn journal_len(load: &ClosedLoop) -> usize {
        let journal = load.table.journal.borrow();
        journal.undo.len() + journal.arena.len()
    }

    /// The latest rollback point of a test loop: its bare buffer, the
    /// durable bytes at it, the engine stand-in at it, and whether the loop
    /// had started.
    struct Point {
        bare: Vec<u8>,
        durable: Vec<u8>,
        ctx: HandCtx,
        started: bool,
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn rollback_points_restore_the_exact_table(
            users in 1u64..40,
            coalesced in proptest::prelude::any::<bool>(),
            point_before_start in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..8, proptest::prelude::any::<u32>(), 0u64..12_000_000),
                0..250,
            ),
        ) {
            let build = || {
                let load = ClosedLoop::new(users)
                    .think_time(SimDuration::from_millis(5))
                    .warmup(SimDuration::from_millis(3));
                if coalesced {
                    load.coalesce(SimDuration::from_millis(1))
                } else {
                    load
                }
            };
            let mut load = build();
            let mut ctx = HandCtx::new(users);
            let mut latest = None;
            let mut retired = Vec::new();
            if point_before_start {
                latest = Some(Point {
                    bare: rollback_point(&load),
                    durable: durable_bytes(&load),
                    ctx: ctx.clone(),
                    started: false,
                });
            }
            load.start(&mut ctx);
            proptest::prop_assert_eq!(
                journal_len(&load),
                0,
                "start must not journal the population"
            );
            for (op, pick, think_ns) in ops {
                match op {
                    0..=2 => ctx.fire_next(&mut load),
                    3 | 4 => ctx.respond(&mut load, pick as usize, think_ns),
                    5 => {
                        retired.extend(latest.take().map(|p: Point| p.bare));
                        latest = Some(Point {
                            bare: rollback_point(&load),
                            durable: durable_bytes(&load),
                            ctx: ctx.clone(),
                            started: true,
                        });
                        proptest::prop_assert_eq!(journal_len(&load), 0, "a new point trims");
                    }
                    6 => {
                        let Some(p) = &latest else { continue };
                        // An odd pick restores twice with nothing in between.
                        for _ in 0..=(pick & 1) {
                            roll_back(&mut load, &p.bare).expect("the latest point restores");
                            proptest::prop_assert_eq!(&durable_bytes(&load), &p.durable);
                            proptest::prop_assert_eq!(journal_len(&load), 0);
                        }
                        ctx = p.ctx.clone();
                        if !p.started {
                            load.start(&mut ctx);
                            proptest::prop_assert_eq!(journal_len(&load), 0);
                        }
                    }
                    _ => {
                        let Some(stale) = retired.get(pick as usize % retired.len().max(1)) else {
                            continue;
                        };
                        let before = durable_bytes(&load);
                        let got = roll_back(&mut load, stale);
                        proptest::prop_assert!(matches!(got, Err(SnapError::Corrupt(_))), "{:?}", got);
                        proptest::prop_assert_eq!(durable_bytes(&load), before);
                    }
                }
            }
            // Another loop's point, even of an identical configuration.
            let foreign = rollback_point(&build());
            let before = durable_bytes(&load);
            let got = roll_back(&mut load, &foreign);
            proptest::prop_assert!(matches!(got, Err(SnapError::Corrupt(_))), "{:?}", got);
            proptest::prop_assert_eq!(durable_bytes(&load), before);
        }
    }

    #[test]
    fn a_journal_that_outgrows_the_table_becomes_a_copy() {
        let mut load = ClosedLoop::new(4)
            .think_time(SimDuration::from_millis(5))
            .coalesce(SimDuration::from_millis(1));
        let mut ctx = HandCtx::new(1);
        load.start(&mut ctx);
        let bare = rollback_point(&load);
        let at = durable_bytes(&load);
        let env = ctx.clone();
        assert!(load.table.journal.borrow().recording);
        for i in 0..200 {
            ctx.fire_next(&mut load);
            ctx.respond(&mut load, i, 1_500_000);
            let len = journal_len(&load);
            assert!(len <= 4, "journal of {len} entries for 4 users");
        }
        assert!(!load.table.journal.borrow().recording, "folded into a copy");
        roll_back(&mut load, &bare).expect("restores from the copy");
        assert_eq!(durable_bytes(&load), at);
        ctx = env;
        ctx.fire_next(&mut load);
        roll_back(&mut load, &bare).expect("and again");
        assert_eq!(durable_bytes(&load), at);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        ClosedLoop::new(0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        OpenLoop::new(0.0);
    }
}
