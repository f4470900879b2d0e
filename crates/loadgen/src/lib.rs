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

/// End of a bucket's user list in [`UserTable::next`]. User ids stay below
/// it: a coalesced loop has at most `u32::MAX` users.
const NIL: u32 = u32::MAX;

/// Offset of `deadline_ns` inside its wake bucket
/// `key = ⌈deadline_ns / grain_ns⌉`, in `1..=grain_ns`: the bucket covers
/// `((key − 1)·grain, key·grain]`, and bucket 0 holds deadline 0 alone.
fn offset_in_bucket(deadline_ns: u64, key: u64, grain_ns: u64) -> u32 {
    match key {
        0 => grain_ns as u32,
        _ => (deadline_ns - (key - 1) * grain_ns) as u32,
    }
}

/// Source of rollback-point stamps. One counter for the process, so a
/// stamp names one point of one loop and a stale or foreign bare buffer
/// can never match. Stamps are only compared for equality; they never
/// reach simulated state.
static NEXT_POINT: AtomicU64 = AtomicU64::new(1);

/// Wake-up bookkeeping for a coalesced closed loop: two dense per-user
/// columns plus one small map from wake bucket to list head.
///
/// Instead of one live calendar timer per sleeping user (1M users = 1M
/// pending timers), users are parked here, grouped by quantized wake
/// instant, with **one** engine timer per non-empty bucket. Bucket `key`
/// covers the deadlines in `((key − 1)·grain, key·grain]`; its users form
/// an intrusive list through `next`, and `pos` holds each user's offset
/// inside the bucket, so a user costs 8 bytes and parking one allocates
/// nothing. When a bucket fires its users are released in (deadline, id)
/// order, so the intent ordering of the un-coalesced loop is preserved
/// within a grain.
#[derive(Debug, Clone, Default)]
struct UserTable {
    /// Bucket width in ns; 0 = exact mode, where the table stays empty.
    grain_ns: u64,
    /// Offset of a parked user's deadline inside its bucket,
    /// `deadline − (key − 1)·grain` in `1..=grain`; index is the id.
    /// Stale for a user that is not parked.
    pos: Vec<u32>,
    /// The next user of the same bucket, or [`NIL`]; index is the id.
    next: Vec<u32>,
    /// Bucket key (`fire_ns / grain_ns`) → first user of its list.
    /// Deterministically hashed so the capacity — and with it the reported
    /// footprint — is identical on every run.
    heads: DetHashMap<u64, u32>,
    /// Most users ever parked in buckets at once.
    high_water: usize,
    parked: usize,
    /// The latest rollback point and the undo entries since. Written by a
    /// bare `snap_save`, which takes `&self`, hence the `RefCell`.
    journal: RefCell<Journal>,
}

/// The latest rollback point of a [`UserTable`] and how to get back to it.
///
/// On a started table the point is an undo journal: from the mark on,
/// every `park` and `release` pushes one [`Undo`] entry, so a point costs
/// O(1) to take and O(changes since) to restore, however large the
/// population. On an unstarted table (before `start` parks everyone) the
/// point is a copy of the table, which is then empty, so restoring it
/// resets the table without journaling each user. A journal that outgrows
/// the table (one-window shard rounds take no point, so the changes of
/// several rounds can pile up) is folded into a copy too, which bounds it
/// by the smaller of the work since the point and the population.
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
    /// Users of the buckets released since the point, each bucket in list
    /// order.
    arena: Vec<u32>,
    /// The table at the point in the full codec, when not recording.
    copy: Vec<u8>,
}

/// One journaled [`UserTable`] change, with what undoing it needs.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// `park` linked `user` at the head of bucket `key` over its old `pos`.
    Park { user: u32, key: u64, old_pos: u32 },
    /// `release` unlinked bucket `key`; its users are the arena from `at` on.
    Release { key: u64, at: usize },
}

impl UserTable {
    /// Empties the table for a run of `users` users. A recording rollback
    /// point is folded into a copy first, so it still restores the table
    /// it was taken on.
    fn restart(&mut self, users: usize) {
        if self.journal.get_mut().recording {
            self.fold_into_copy();
        }
        // Zeroed columns come straight from the allocator, untouched:
        // `park` writes both slots of every user before reading them.
        self.pos = vec![0; users];
        self.next = vec![0; users];
        self.heads.clear();
        self.parked = 0;
        self.high_water = 0;
    }

    /// Parks `user` until `deadline_ns`, returning `Some(fire_ns)` when the
    /// caller must arm a new bucket timer for that instant.
    fn park(&mut self, user: u32, deadline_ns: u64) -> Option<u64> {
        let grain_ns = self.grain_ns;
        let key = deadline_ns.div_ceil(grain_ns);
        let u = user as usize;
        // Only a recording point needs the old offset. `start` fills
        // freshly zeroed columns, where a read before each write would
        // fault every page in twice.
        let old_pos = if self.journal.get_mut().recording {
            self.pos[u]
        } else {
            0
        };
        self.pos[u] = offset_in_bucket(deadline_ns, key, grain_ns);
        self.parked += 1;
        if self.parked > self.high_water {
            self.high_water = self.parked;
        }
        let (next, fire_ns) = match self.heads.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                (std::mem::replace(e.get_mut(), user), None)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(user);
                (NIL, Some(key * grain_ns))
            }
        };
        self.next[u] = next;
        self.record(Undo::Park { user, key, old_pos });
        fire_ns
    }

    /// Releases the bucket with `key`, returning its users as
    /// `(pos << 32) | id` keys in ascending order: by (deadline, id), the
    /// order the un-coalesced loop would have woken them. The buffer is
    /// the caller's, so the table holds no memory for waking between
    /// releases.
    fn release(&mut self, key: u64) -> Vec<u64> {
        let mut woken = Vec::new();
        let Some(head) = self.heads.remove(&key) else {
            return woken;
        };
        self.wake_keys(head, &mut woken);
        self.parked -= woken.len();
        let journal = self.journal.get_mut();
        let at = journal.arena.len();
        if journal.recording {
            journal.arena.extend(woken.iter().map(|&k| k as u32));
        }
        self.record(Undo::Release { key, at });
        woken.sort_unstable();
        woken
    }

    /// Appends the `(pos << 32) | id` key of every user on the list from
    /// `head`, in list order.
    fn wake_keys(&self, head: u32, out: &mut Vec<u64>) {
        let mut user = head;
        while user != NIL {
            out.push(u64::from(self.pos[user as usize]) << 32 | u64::from(user));
            user = self.next[user as usize];
        }
    }

    /// Journals `entry` if a point is recording. A journal longer than the
    /// population costs more than a copy of the table, so it is folded
    /// into one.
    #[inline]
    fn record(&mut self, entry: Undo) {
        let journal = self.journal.get_mut();
        if journal.recording {
            journal.undo.push(entry);
            if journal.undo.len() + journal.arena.len() > self.pos.len() {
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
        journal.recording = !self.pos.is_empty();
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
            let mut table =
                UserTable::snap_load(&mut SnapReader::bare(&journal.copy), users, self.grain_ns)?;
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
                Undo::Park { user, key, old_pos } => {
                    let u = user as usize;
                    match self.next[u] {
                        NIL => self.heads.remove(&key),
                        next => self.heads.insert(key, next),
                    };
                    self.pos[u] = old_pos;
                }
                Undo::Release { key, at } => {
                    let users = &journal.arena[at..];
                    for pair in users.windows(2) {
                        self.next[pair[0] as usize] = pair[1];
                    }
                    self.next[users[users.len() - 1] as usize] = NIL;
                    self.heads.insert(key, users[0]);
                    journal.arena.truncate(at);
                }
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

    /// Serializes the table in its pinned layout, unchanged since
    /// `SNAP_VERSION` 1: one u64 deadline per user (0 for a user that is
    /// not parked), the buckets in key order, each with its users in wake
    /// order, then the spare count of the earlier vector-pool table
    /// (always 0), high water and parked.
    /// The deadline column and every bucket go through the bulk slice
    /// codecs.
    fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            grain_ns,
            pos,
            next: _, // saved as the buckets' id lists, walked by `wake_keys`
            heads,
            high_water,
            parked,
            // Rollback-point scratch: a durable snapshot carries the state
            // it would restore, and a durable restore retires the point.
            journal: _,
        } = self;
        let mut buckets: Vec<(u64, u32)> = heads.iter().map(|(&k, &h)| (k, h)).collect();
        buckets.sort_unstable();
        let mut deadlines = vec![0; pos.len()];
        let mut woken = Vec::new();
        for &(key, head) in &buckets {
            woken.clear();
            self.wake_keys(head, &mut woken);
            for &k in &woken {
                deadlines[k as u32 as usize] = match key {
                    0 => 0,
                    _ => (key - 1) * grain_ns + (k >> 32),
                };
            }
        }
        w.u64s(&deadlines);
        w.usize(buckets.len());
        for (key, head) in buckets {
            woken.clear();
            self.wake_keys(head, &mut woken);
            woken.sort_unstable();
            w.u64(key);
            w.u32s_iter(woken.len(), woken.iter().map(|&k| k as u32));
        }
        w.usize(0);
        w.usize(*high_water);
        w.usize(*parked);
    }

    /// Rebuilds the table of a `users`-user loop with bucket width
    /// `grain_ns` (0 = exact) from [`UserTable::snap_save`], checking
    /// everything before linking any list: the grain fits a `u32` offset,
    /// the deadline column is empty (unstarted) or has one slot per user,
    /// bucket keys ascend, every bucket holds users, every parked id
    /// indexes the column and is parked once, its deadline lies in its
    /// bucket's window `((key − 1)·grain, key·grain]`, `parked` is the users
    /// in buckets, and `spare <= high_water <= users`, `parked <=
    /// high_water`. A violation is `Corrupt`. The deadlines of users that
    /// are not parked are ignored.
    fn snap_load(r: &mut SnapReader<'_>, users: u64, grain_ns: u64) -> Result<Self, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("closed-loop table: {what}")));
        if grain_ns > u64::from(u32::MAX) {
            return corrupt(format!("grain {grain_ns} ns does not fit a u32 offset"));
        }
        let deadline_ns = r.u64s()?;
        if !deadline_ns.is_empty() && deadline_ns.len() as u64 != users {
            return corrupt(format!(
                "{} deadline slots for {users} users",
                deadline_ns.len()
            ));
        }
        let n = deadline_ns.len();
        let mut pos = vec![0u32; n];
        let nbuckets = r.usize()?;
        let mut buckets = Vec::new();
        let mut in_buckets = 0usize;
        for _ in 0..nbuckets {
            let key = r.u64()?;
            if buckets.last().is_some_and(|&(last, _)| key <= last) {
                return corrupt(format!("bucket key {key} out of order"));
            }
            let ids = r.u32s_iter()?;
            if ids.len() == 0 {
                return corrupt(format!("bucket {key} is empty"));
            }
            for id in ids.clone() {
                let Some(&deadline) = deadline_ns.get(id as usize) else {
                    return corrupt(format!(
                        "user {id} parked in bucket {key}, {n} deadline slots"
                    ));
                };
                if pos[id as usize] != 0 {
                    return corrupt(format!("user {id} parked twice"));
                }
                if grain_ns == 0 || deadline.div_ceil(grain_ns) != key {
                    return corrupt(format!(
                        "user {id}'s deadline {deadline} ns lies outside bucket {key} of grain {grain_ns} ns"
                    ));
                }
                pos[id as usize] = offset_in_bucket(deadline, key, grain_ns);
            }
            in_buckets += ids.len();
            buckets.push((key, ids));
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
        let mut next = vec![0u32; n];
        let mut heads = DetHashMap::default();
        for (key, ids) in buckets {
            let head = ids.fold(NIL, |head, id| {
                next[id as usize] = head;
                id
            });
            heads.insert(key, head);
        }
        Ok(UserTable {
            grain_ns,
            pos,
            next,
            heads,
            high_water,
            parked,
            journal: RefCell::default(),
        })
    }

    /// Approximate heap bytes held by the table (capacities, not lengths),
    /// rollback journal included.
    fn footprint_bytes(&self) -> usize {
        let journal = self.journal.borrow();
        (self.pos.capacity() + self.next.capacity() + journal.arena.capacity())
            * std::mem::size_of::<u32>()
            + self.heads.capacity() * std::mem::size_of::<(u64, u32)>()
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
    think_mean: SimDuration,
    warmup: SimDuration,
    measure: Option<SimDuration>,
    mix: Vec<f64>,
    issued: u64,
    completed: u64,
    errors: u64,
    measuring: bool,
    /// Parked users of a coalesced loop; its grain is 0 in exact mode.
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
    /// In coalesced mode the loop keeps a compact user table — two `u32`
    /// columns, 8 bytes per user: each parked user's offset inside its
    /// bucket and a link to the next user of the same bucket — and arms
    /// **one** calendar timer per non-empty wake bucket instead of one per
    /// sleeping user, so a million-user population does not mean a million
    /// live timers. Each wakeup is deferred to the end of its grain bucket
    /// (users inside a bucket fire in deadline order), trading up to
    /// `grain` of think-time fidelity for O(active buckets) timer memory.
    /// The exact per-user mode (the default) is unchanged and bit-identical
    /// to previous releases.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero or 2^32 ns (about 4.29 s) or more, because
    /// a user's offset inside its bucket is a `u32`, or if the population
    /// exceeds `u32::MAX`.
    pub fn coalesce(mut self, grain: SimDuration) -> Self {
        assert!(!grain.is_zero(), "coalescing grain must be positive");
        assert!(
            grain.as_nanos() <= u64::from(u32::MAX),
            "coalescing grain must be below 2^32 ns: offsets in a bucket are u32"
        );
        assert!(
            self.users <= u64::from(u32::MAX),
            "coalesced mode packs user ids into u32"
        );
        self.table.grain_ns = grain.as_nanos();
        self
    }

    /// Whether think wakeups go through the wake-bucket table.
    fn coalesced(&self) -> bool {
        self.table.grain_ns != 0
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

    /// Most users parked at once since the run started (coalesced mode only).
    pub fn parked_high_water(&self) -> usize {
        self.table.high_water
    }

    /// Approximate heap bytes of the generator's per-user state: the two
    /// per-user columns (8 bytes a user), the bucket-head map, the release
    /// buffer and the rollback journal. Zero in exact mode, where the
    /// per-user state lives in the engine calendar instead.
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
        let Self {
            users,
            think_mean: _, // config, fixed at construction
            warmup: _,     // config, fixed at construction
            measure: _,    // config, fixed at construction
            mix: _,        // config, fixed at construction
            issued,
            completed,
            errors,
            measuring,
            table,
        } = self;
        w.section("closed-loop");
        w.u64(*users);
        w.bool(self.coalesced());
        w.u64(*issued);
        w.u64(*completed);
        w.u64(*errors);
        w.bool(*measuring);
        if w.is_bare() {
            table.mark(w);
        } else {
            table.snap_save(w);
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
        if users != self.users || coalesced != self.coalesced() {
            return Err(SnapError::Corrupt(format!(
                "snapshot is of a {users}-user {} loop, this loop has {} users ({})",
                if coalesced { "coalesced" } else { "exact" },
                self.users,
                if self.coalesced() {
                    "coalesced"
                } else {
                    "exact"
                },
            )));
        }
        let counts = (r.u64()?, r.u64()?, r.u64()?, r.bool()?);
        let Self {
            users: _, // checked above
            think_mean: _,
            warmup: _,
            measure: _,
            mix: _,
            issued,
            completed,
            errors,
            measuring,
            table,
        } = self;
        if r.is_bare() {
            table.rollback(r.u64()?, users)?;
        } else {
            *table = UserTable::snap_load(r, users, table.grain_ns)?;
        }
        (*issued, *completed, *errors, *measuring) = counts;
        Ok(())
    }

    /// Parks `user` until `delay` from now — through the wake-bucket table
    /// in coalesced mode, or a dedicated timer otherwise.
    fn sleep_user(&mut self, user: u64, delay: SimDuration, ctx: &mut dyn EngineCtx) {
        if !self.coalesced() {
            return ctx.set_timer(delay, user);
        }
        let now = ctx.now().as_nanos();
        if let Some(fire_ns) = self.table.park(user as u32, now + delay.as_nanos()) {
            ctx.set_timer(
                SimDuration::from_nanos(fire_ns - now),
                TOKEN_BUCKET_BIT | (fire_ns / self.table.grain_ns),
            );
        }
    }
}

impl Driver for ClosedLoop {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        // A reused loop counts each run from zero, and warms up again.
        (self.issued, self.completed, self.errors) = (0, 0, 0);
        self.measuring = false;
        ctx.set_timer(self.warmup, TOKEN_WARMUP);
        if let Some(measure) = self.measure {
            ctx.set_timer(self.warmup + measure, TOKEN_STOP);
        }
        if self.coalesced() {
            self.table.restart(self.users as usize);
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
            bucket if bucket & TOKEN_BUCKET_BIT != 0 && self.coalesced() => {
                for key in self.table.release(bucket & !TOKEN_BUCKET_BIT) {
                    self.submit_for(u64::from(key as u32), ctx);
                }
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
    rate_rps: f64,
    warmup: SimDuration,
    measure: Option<SimDuration>,
    mix: Vec<f64>,
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
        let Self {
            rate_rps: _, // config, fixed at construction
            warmup: _,   // config, fixed at construction
            measure: _,  // config, fixed at construction
            mix: _,      // config, fixed at construction
            next_client,
            completed,
        } = self;
        w.section("open-loop");
        w.u64(*next_client);
        w.u64(*completed);
    }

    /// Restores state captured by [`OpenLoop::snap_save`] into an
    /// identically configured loop.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Self {
            rate_rps: _,
            warmup: _,
            measure: _,
            mix: _,
            next_client,
            completed,
        } = self;
        r.section("open-loop")?;
        *next_client = r.u64()?;
        *completed = r.u64()?;
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
        // A reused loop counts each run, and numbers its clients, from zero.
        (self.next_client, self.completed) = (0, 0);
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
        // 8 bytes of per-user columns plus the bucket-head map; far from
        // the ~100+ bytes a per-user calendar entry costs.
        assert!(
            per_user < 9.0,
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
    fn a_reused_coalesced_loop_parks_each_user_once() {
        let users = 100;
        let fresh = || {
            ClosedLoop::new(users)
                .think_time(SimDuration::from_millis(20))
                .coalesce(SimDuration::from_millis(1))
                .warmup(SimDuration::from_millis(50))
                .measure(SimDuration::from_millis(150))
        };
        let counts = |l: &ClosedLoop| (l.issued(), l.completed(), l.errors());
        let mut load = fresh();
        for seed in [21, 22] {
            let mut eng = engine(300.0, 2, 8, seed);
            eng.run(&mut load, SimTime::from_secs(30));
            let in_flight = load.issued() - load.completed();
            let parked = load.parked_users() as u64;
            assert!(parked <= users, "{parked} of {users} users parked");
            // Every user is parked or has exactly one request in flight.
            assert_eq!(parked + in_flight, users, "seed {seed}");
            // Each run counts from zero, exactly as a fresh loop's does.
            let mut once = fresh();
            engine(300.0, 2, 8, seed).run(&mut once, SimTime::from_secs(30));
            assert_eq!(counts(&load), counts(&once), "seed {seed}");
        }
    }

    #[test]
    fn a_reused_open_loop_counts_like_a_fresh_one() {
        let fresh = || {
            OpenLoop::new(2_000.0)
                .warmup(SimDuration::from_millis(50))
                .measure(SimDuration::from_millis(150))
        };
        let mut load = fresh();
        for seed in [21, 22] {
            engine(300.0, 2, 8, seed).run(&mut load, SimTime::from_secs(30));
            let mut once = fresh();
            engine(300.0, 2, 8, seed).run(&mut once, SimTime::from_secs(30));
            assert_eq!(
                (load.completed(), load.next_client),
                (once.completed(), once.next_client),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below 2^32 ns")]
    fn a_grain_past_a_u32_offset_is_rejected() {
        ClosedLoop::new(1).coalesce(SimDuration::from_nanos(1 << 32));
    }

    #[test]
    fn restore_rejects_a_grain_past_a_u32_offset() {
        let mut w = SnapWriter::bare(Vec::new());
        UserTable::default().snap_save(&mut w);
        let bytes = w.into_bare();
        let got = UserTable::snap_load(&mut SnapReader::bare(&bytes), 1, 1 << 32);
        assert!(
            matches!(&got, Err(SnapError::Corrupt(msg)) if msg.contains("grain")),
            "{got:?}"
        );
    }

    /// The user table before the linked columns: a u64 deadline per user
    /// and one id vector per bucket.
    #[derive(Debug, Clone, Default)]
    struct VecTable {
        deadline_ns: Vec<u64>,
        buckets: std::collections::BTreeMap<u64, Vec<u32>>,
        high_water: usize,
        parked: usize,
    }

    impl VecTable {
        fn park(&mut self, user: u32, deadline_ns: u64, grain_ns: u64) -> Option<u64> {
            self.deadline_ns[user as usize] = deadline_ns;
            self.parked += 1;
            self.high_water = self.high_water.max(self.parked);
            let key = deadline_ns.div_ceil(grain_ns);
            let bucket = self.buckets.entry(key).or_default();
            bucket.push(user);
            (bucket.len() == 1).then_some(key * grain_ns)
        }

        fn release(&mut self, key: u64) -> Vec<u32> {
            let mut users = self.buckets.remove(&key).unwrap_or_default();
            self.parked -= users.len();
            users.sort_unstable_by_key(|&u| (self.deadline_ns[u as usize], u));
            users
        }

        /// The pinned table layout (unchanged since `SNAP_VERSION` 1): the
        /// deadlines of users that are not parked read 0, and each bucket
        /// lists its users in wake order.
        fn snap_bytes(&self) -> Vec<u8> {
            let mut deadlines = vec![0; self.deadline_ns.len()];
            for &u in self.buckets.values().flatten() {
                deadlines[u as usize] = self.deadline_ns[u as usize];
            }
            let mut w = SnapWriter::bare(Vec::new());
            w.u64s(&deadlines);
            w.usize(self.buckets.len());
            for (&key, users) in &self.buckets {
                let mut users = users.clone();
                users.sort_unstable_by_key(|&u| (self.deadline_ns[u as usize], u));
                w.u64(key);
                w.u32s(&users);
            }
            w.usize(0);
            w.usize(self.high_water);
            w.usize(self.parked);
            w.into_bare()
        }
    }

    /// Releases bucket `key` of `table` and collects its users in wake
    /// order.
    fn released(table: &mut UserTable, key: u64) -> Vec<u32> {
        table.release(key).iter().map(|&k| k as u32).collect()
    }

    fn table_bytes(table: &UserTable) -> Vec<u8> {
        let mut w = SnapWriter::bare(Vec::new());
        table.snap_save(&mut w);
        w.into_bare()
    }

    /// Seals `body` into an envelope behind `head` (magic and version).
    fn sealed(head: &[u8], body: &[u8]) -> Vec<u8> {
        let mut bytes = [head, body, b"ENDS"].concat();
        let checksum = simcore::snap::fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn linked_table_matches_the_vec_table(
            users in 1u32..40,
            grain_ns in 1u64..4_000,
            ops in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u32>(), 0u64..16_000),
                0..300,
            ),
        ) {
            let mut table = UserTable { grain_ns, ..UserTable::default() };
            table.restart(users as usize);
            let mut model = VecTable { deadline_ns: vec![0; users as usize], ..VecTable::default() };
            let mut awake: Vec<u32> = (0..users).collect();
            let mut now = 0;
            let mut point = None;
            for (op, pick, delay) in ops {
                match op {
                    0..=3 if !awake.is_empty() => {
                        let user = awake.swap_remove(pick as usize % awake.len());
                        let fire = table.park(user, now + delay);
                        proptest::prop_assert_eq!(fire, model.park(user, now + delay, grain_ns));
                    }
                    0..=5 => {
                        // Fire the earliest bucket, or any key near now.
                        let key = match model.buckets.keys().next() {
                            Some(&first) if op != 5 => first,
                            _ => now / grain_ns + u64::from(pick % 8),
                        };
                        now = now.max(key * grain_ns);
                        let ids = released(&mut table, key);
                        let want = model.release(key);
                        proptest::prop_assert_eq!(&ids, &want);
                        awake.extend(want);
                    }
                    6 => {
                        table.mark(&mut SnapWriter::bare(Vec::new()));
                        let stamp = table.journal.borrow().point;
                        point = Some((stamp, model.clone(), awake.clone(), now));
                    }
                    7 => {
                        let Some((stamp, at, awake_at, now_at)) = &point else { continue };
                        table.rollback(*stamp, u64::from(users)).expect("the latest point");
                        (model, awake, now) = (at.clone(), awake_at.clone(), *now_at);
                    }
                    _ => {
                        let bytes = table_bytes(&table);
                        proptest::prop_assert_eq!(&bytes, &model.snap_bytes());
                        let loaded = UserTable::snap_load(
                            &mut SnapReader::bare(&bytes),
                            u64::from(users),
                            grain_ns,
                        )
                        .expect("a saved table loads");
                        proptest::prop_assert_eq!(table_bytes(&loaded), bytes);
                    }
                }
                proptest::prop_assert_eq!(table.parked, model.parked);
                proptest::prop_assert_eq!(table.high_water, model.high_water);
            }
            proptest::prop_assert_eq!(table_bytes(&table), model.snap_bytes());
        }

        #[test]
        fn damaged_closed_loop_snapshots_restore_or_fail_cleanly(
            users in 1u64..24,
            steps in 0usize..80,
            damage in 0u8..3,
            at_frac in 0.0f64..1.0,
            flip in 1u8..=255,
            word in proptest::prelude::any::<u64>(),
        ) {
            let build = || {
                ClosedLoop::new(users)
                    .think_time(SimDuration::from_millis(5))
                    .coalesce(SimDuration::from_millis(1))
            };
            let mut load = build();
            let mut ctx = HandCtx::new(users);
            load.start(&mut ctx);
            for i in 0..steps {
                ctx.fire_next(&mut load);
                ctx.respond(&mut load, i, 1_000_000 + 7_919 * i as u64);
            }
            let bytes = durable_bytes(&load);
            let (head, mut body) = (&bytes[..8], bytes[8..bytes.len() - 12].to_vec());
            let at = ((body.len() - 1) as f64 * at_frac) as usize;
            match damage {
                0 => body.truncate(at),
                1 => body[at] ^= flip,
                _ => {
                    let end = (at + 8).min(body.len());
                    body[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                }
            }
            let mut fresh = build();
            let damaged = sealed(head, &body);
            let mut reader = SnapReader::new(&damaged).expect("resealed");
            let restored = fresh.snap_restore(&mut reader);
            if restored.is_ok() {
                // What decodes must be a table every bucket of which wakes.
                let saved = durable_bytes(&fresh);
                proptest::prop_assert!(SnapReader::new(&saved).is_ok());
                let keys: Vec<u64> = fresh.table.heads.keys().copied().collect();
                let mut woken = 0;
                for key in keys {
                    woken += released(&mut fresh.table, key).len();
                }
                proptest::prop_assert!(woken as u64 <= users);
                proptest::prop_assert_eq!(fresh.parked_users(), 0);
            }
        }
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
