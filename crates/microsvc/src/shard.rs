//! Sharded parallel-in-run execution: conservative-lookahead cells with a
//! deterministic cross-cell merge.
//!
//! A sharded run partitions the simulated estate into `C` **cells**. Each
//! cell is an ordinary serial [`Engine`] — its own timer-wheel calendar,
//! request/job slabs and labeled RNG streams seeded from
//! [`mix_seed`]`(seed, cell)` — driving one copy of the machine with its own
//! slice of the client population. Cells advance independently inside a
//! conservative-lookahead window `W` equal to the cross-cell forwarding
//! latency `L`: a message sent at time `t` arrives no earlier than `t + L`,
//! so events inside the current window can never be invalidated by a peer.
//!
//! At each window barrier the cells' outboxes are drained and every cell's
//! inbound messages are merged in `(arrival, src_cell, seq)` order — a total
//! order, because `seq` is a per-source counter — then injected as absolute
//! timers ([`Engine::inject_timer_at`]). The merge is pure sorting over
//! value types, so the result is byte-identical regardless of how many
//! worker threads carried the cells or how their phase-A writes interleaved.
//!
//! Every run advances in **rounds** of one loop ([`ShardedRun::run`]); the
//! [`WindowPolicy`] only picks each round's width. A conservative round is
//! exactly one base window: run to the barrier, merge, inject. The adaptive
//! policy widens rounds geometrically across message-free rounds (snapping
//! back to one window on the first cross-cell send). A round wider than one
//! window executes *optimistically* past the intermediate barriers: if a
//! message lands inside it, the receiving cell rolls back to a cheap in-RAM
//! micro-snapshot (the bare-mode fast path of `simcore::snap`) and replays,
//! injecting each message at exactly the barrier instant a one-window round
//! would have used — so the merged result is byte-identical under both
//! policies.
//!
//! Determinism contract: for a fixed `(seed, spec, workload)` the run is
//! byte-reproducible across reruns, worker-thread counts, window policies,
//! and snapshot/resume at any barrier. The *cell count* is part of the
//! workload's identity — `C` cells draw from `C` independent RNG streams —
//! so golden hashes are recorded per shard count; `--shards 1` runs the
//! untouched serial engine and reproduces the historical goldens by
//! construction. See DESIGN.md § "Sharded execution".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use simcore::snap::{SnapError, SnapReader, SnapWriter};
use simcore::{DetHashMap, SimDuration, SimTime};

use crate::driver::{Driver, EngineCtx, Outcome, ResponseInfo};
use crate::engine::Engine;
use crate::ids::{ClientId, RequestClassId, RequestId};
use crate::metrics::RunReport;
use crate::overload::ShedReason;

/// Timer token reserved for barrier-injected cross-cell messages. Bit 61
/// alone: disjoint from per-user tokens (< 2^32), coalesced wake buckets
/// (bit 62) and the loadgen sentinel tokens (top three values of `u64`).
pub const SHARD_TOKEN: u64 = 1 << 61;

/// Client-id bit marking a request forwarded from another cell; bits 32..61
/// carry the home cell, bits 0..32 the home-local client id.
const FOREIGN_BIT: u64 = 1 << 63;

/// Synthetic [`RequestId`] namespace returned for crossed submits (the real
/// id is assigned by the destination cell's engine).
const SYNTH_REQ_BASE: u64 = 1 << 63;

/// Derives the RNG seed for `cell` from the run seed. Cell 0 keeps the run
/// seed itself, so a one-cell sharded run samples the caller's stream;
/// higher cells get splitmix-scrambled, statistically independent seeds.
pub fn mix_seed(seed: u64, cell: u32) -> u64 {
    if cell == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(cell));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the routing tuple. Routing must not consume engine RNG — a
/// crossed submit would otherwise shift every later draw in the cell — so
/// cross-cell decisions hash `(cell, client, per-cell submit ordinal)`.
fn route_hash(cell: u32, client: u64, ordinal: u64) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    for chunk in [u64::from(cell), client, ordinal] {
        for byte in chunk.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// What a cross-cell message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A request crossing to another cell: execute it there.
    Call {
        /// Home-local client id (fits in 32 bits).
        client: u64,
        /// Request class index.
        class: u32,
    },
    /// The completion of a crossed request, returning home.
    Reply {
        /// Home-local client id.
        client: u64,
        /// Request class index.
        class: u32,
        /// How the request ended at the executing cell.
        outcome: Outcome,
    },
}

/// A timestamped inter-cell message. `(arrival, src, seq)` is the merge
/// key; `seq` is a per-source counter, making the key a total order.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Simulated arrival instant at the destination cell.
    pub arrival: SimTime,
    /// Sending cell.
    pub src: u32,
    /// Destination cell.
    pub dst: u32,
    /// Per-source message ordinal.
    pub seq: u64,
    /// The message body.
    pub payload: Payload,
}

impl Msg {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.arrival, self.src, self.seq)
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Msg {}
impl PartialOrd for Msg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Msg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of cells (1 = serial semantics, still windowed).
    pub cells: u32,
    /// Probability, in permille, that a root submit is forwarded to a
    /// remote cell — the cross-shard RPC rate.
    pub cross_permille: u32,
    /// Cross-cell forwarding latency; doubles as the lookahead window.
    pub latency: SimDuration,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            cells: 1,
            cross_permille: 50,
            latency: SimDuration::from_millis(1),
        }
    }
}

/// Default round-width cap, in base windows, for the adaptive policy (the
/// `--lookahead-cap` default).
pub const DEFAULT_LOOKAHEAD_CAP: u32 = 32;

/// Window-synchronization policy of a sharded run. Both policies produce
/// byte-identical simulation results; they differ only in how many barrier
/// crossings — and, for wide rounds, rollbacks — they spend getting there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// One round per base window: two barriers per window, no snapshot,
    /// no rollback.
    #[default]
    Conservative,
    /// Pay-as-you-go: rounds widen geometrically (×2 per message-free
    /// round, up to `cap` base windows) and snap back to a single window
    /// on the first cross-cell send. Quiet stretches cross one barrier
    /// instead of many; rounds wider than one window run speculatively
    /// and micro-rollback if a message lands inside them.
    Adaptive {
        /// Maximum round width, in base windows.
        cap: u32,
    },
}

/// Synchronization counters of a sharded run, accumulated across
/// [`ShardedRun::run`] calls. Deterministic: a pure function of
/// (seed, spec, workload, policy), independent of the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Barrier rounds executed (== base windows under the conservative
    /// policy).
    pub rounds: u64,
    /// Lockstep barrier crossings per worker (every worker crosses the
    /// same sequence, so this is policy cost, not thread count × cost).
    pub barriers: u64,
    /// Micro-rollbacks: a speculated region was invalidated by a late
    /// cross-cell message and re-executed from its round-start snapshot.
    pub rollbacks: u64,
    /// Events discarded by those rollbacks (optimistic work thrown away
    /// and re-done during replay).
    pub replayed_events: u64,
}

/// A crossed request awaiting its [`Payload::Reply`] at the home cell.
#[derive(Debug, Clone, Copy)]
struct Parked {
    class: u32,
    submitted_at: SimTime,
}

/// Per-cell shard bookkeeping, owned by the cell's [`ShardDriver`].
#[derive(Debug)]
pub struct ShardState {
    cell: u32,
    cells: u32,
    cross_permille: u32,
    latency: SimDuration,
    /// Root submits seen, crossed or not — the routing-hash ordinal.
    submit_seq: u64,
    /// Messages emitted by this cell — the `(arrival, src, seq)` seq.
    msg_seq: u64,
    /// Synthetic request ids handed to the inner driver for crossed submits.
    synth_seq: u64,
    /// Messages produced during the current window, drained at the barrier.
    outbox: Vec<Msg>,
    /// Injected messages awaiting their [`SHARD_TOKEN`] timer, min-first.
    pending: BinaryHeap<Reverse<Msg>>,
    /// Crossed requests in flight, keyed by home-local client id.
    parked: DetHashMap<u64, Parked>,
    /// True while the cell executes a speculative replay whose injected
    /// message set is still provisional. A fixpoint iteration may inject a
    /// reply whose call a concurrent peer replay withdraws in the same
    /// scan; such a *stale* reply finds no parked request and is dropped
    /// (deterministically) instead of panicking — the trajectory that
    /// commits has field-identical inputs to the conservative schedule, so
    /// no drop ever survives convergence. Transient: never snapshotted.
    optimistic: bool,
}

impl ShardState {
    fn new(cell: u32, spec: &ShardSpec) -> Self {
        ShardState {
            cell,
            cells: spec.cells,
            cross_permille: spec.cross_permille,
            latency: spec.latency,
            submit_seq: 0,
            msg_seq: 0,
            synth_seq: 0,
            outbox: Vec::new(),
            pending: BinaryHeap::new(),
            parked: DetHashMap::default(),
            optimistic: false,
        }
    }
}

/// The engine surface handed to the inner driver: everything passes through
/// to the cell's engine except `submit`, which may park the request and
/// forward it as a cross-cell [`Payload::Call`] instead.
struct CellCtx<'a> {
    ctx: &'a mut dyn EngineCtx,
    st: &'a mut ShardState,
}

impl EngineCtx for CellCtx<'_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) {
        debug_assert!(
            token >> 61 != 1,
            "driver timer token {token:#x} collides with the shard-token namespace"
        );
        self.ctx.set_timer(after, token);
    }

    fn submit(&mut self, class: u32, client: u64) -> RequestId {
        let st = &mut *self.st;
        if st.cells > 1 && st.cross_permille > 0 {
            let h = route_hash(st.cell, client, st.submit_seq);
            st.submit_seq += 1;
            if h % 1000 < u64::from(st.cross_permille) {
                assert!(
                    client < 1 << 32,
                    "crossable client ids must fit in 32 bits, got {client}"
                );
                let now = self.ctx.now();
                let dst = {
                    // Spread over the other cells; a second hash round keeps
                    // the destination independent of the crossing decision.
                    let pick = (h >> 10) % u64::from(st.cells - 1);
                    let dst = pick as u32;
                    if dst >= st.cell {
                        dst + 1
                    } else {
                        dst
                    }
                };
                let prev = st.parked.insert(
                    client,
                    Parked {
                        class,
                        submitted_at: now,
                    },
                );
                assert!(
                    prev.is_none(),
                    "client {client} already has a crossed request in flight"
                );
                st.outbox.push(Msg {
                    arrival: now + st.latency,
                    src: st.cell,
                    dst,
                    seq: st.msg_seq,
                    payload: Payload::Call { client, class },
                });
                st.msg_seq += 1;
                st.synth_seq += 1;
                return RequestId(SYNTH_REQ_BASE | (st.synth_seq - 1));
            }
        }
        self.ctx.submit(class, client)
    }

    fn rng(&mut self) -> &mut simcore::Rng {
        self.ctx.rng()
    }

    fn reset_metrics(&mut self) {
        self.ctx.reset_metrics();
    }

    fn request_stop(&mut self) {
        self.ctx.request_stop();
    }

    fn completed_requests(&self) -> u64 {
        self.ctx.completed_requests()
    }
}

/// Wraps a cell's workload driver, intercepting shard-token timers (message
/// delivery), crossed submits, and foreign-request completions.
#[derive(Debug)]
pub struct ShardDriver<D> {
    inner: D,
    st: ShardState,
}

impl<D: Driver> ShardDriver<D> {
    /// Wraps `inner` as the driver for `cell` of a [`ShardSpec`] run.
    pub fn new(inner: D, cell: u32, spec: &ShardSpec) -> Self {
        ShardDriver {
            inner,
            st: ShardState::new(cell, spec),
        }
    }

    /// The wrapped workload driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Crossed requests currently awaiting a reply from a remote cell.
    pub fn crossed_in_flight(&self) -> usize {
        self.st.parked.len()
    }

    /// Messages this cell has emitted over the whole run.
    pub fn messages_sent(&self) -> u64 {
        self.st.msg_seq
    }
}

impl<D: Driver> Driver for ShardDriver<D> {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        let ShardDriver { inner, st } = self;
        inner.start(&mut CellCtx { ctx, st });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        if token == SHARD_TOKEN {
            let Reverse(msg) = self
                .st
                .pending
                .pop()
                .expect("shard timer fired with no pending message");
            debug_assert_eq!(
                msg.arrival,
                ctx.now(),
                "pending-queue head out of step with its timer"
            );
            match msg.payload {
                Payload::Call { client, class } => {
                    // Execute the forwarded request here, tagged with its
                    // provenance so the completion is routed home.
                    let foreign = FOREIGN_BIT | (u64::from(msg.src) << 32) | client;
                    ctx.submit(class, foreign);
                }
                Payload::Reply {
                    client,
                    class,
                    outcome,
                } => {
                    // A reply is *stale* when no matching request is parked:
                    // only possible inside a speculative replay, where the
                    // call it answers was withdrawn by a peer's concurrent
                    // replay. Drop it — the fixpoint re-runs this cell until
                    // its injected set is final, and final sets never
                    // contain orphans.
                    let stale = !matches!(
                        self.st.parked.get(&client),
                        Some(p) if p.class == class
                    );
                    if stale {
                        assert!(
                            self.st.optimistic,
                            "reply for a request that was never crossed"
                        );
                        return;
                    }
                    let parked = self
                        .st
                        .parked
                        .remove(&client)
                        .expect("presence checked above");
                    let resp = ResponseInfo {
                        request: RequestId(SYNTH_REQ_BASE),
                        client: ClientId(client),
                        class: RequestClassId(class),
                        latency: ctx.now().saturating_since(parked.submitted_at),
                        outcome,
                    };
                    let ShardDriver { inner, st } = self;
                    inner.on_response(resp, &mut CellCtx { ctx, st });
                }
            }
        } else {
            let ShardDriver { inner, st } = self;
            inner.on_timer(token, &mut CellCtx { ctx, st });
        }
    }

    fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
        if resp.client.0 & FOREIGN_BIT != 0 {
            let home = ((resp.client.0 >> 32) & 0x1fff_ffff) as u32;
            let client = resp.client.0 & 0xffff_ffff;
            let st = &mut self.st;
            st.outbox.push(Msg {
                arrival: ctx.now() + st.latency,
                src: st.cell,
                dst: home,
                seq: st.msg_seq,
                payload: Payload::Reply {
                    client,
                    class: resp.class.0,
                    outcome: resp.outcome,
                },
            });
            st.msg_seq += 1;
        } else {
            let ShardDriver { inner, st } = self;
            inner.on_response(resp, &mut CellCtx { ctx, st });
        }
    }
}

/// A [`Driver`] whose run-time state can be serialized into a snapshot —
/// what a [`ShardedRun`] needs from its workload to checkpoint at a
/// barrier. Implemented by the `loadgen` generators.
pub trait SnapDriver: Driver {
    /// Serializes the driver's run-time state.
    fn driver_snap_save(&self, w: &mut SnapWriter);
    /// Restores state captured by [`SnapDriver::driver_snap_save`] into an
    /// identically configured driver.
    fn driver_snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// One cell: a serial engine plus its wrapped driver, and the reusable
/// speculation scratch (micro-snapshot buffer, replay bookkeeping). The
/// scratch buffers are warm after the first wide round. From then on a
/// micro-snapshot allocates nothing in the engine, the shard state or a
/// `loadgen::ClosedLoop` driver (tests/snap_alloc.rs checks the engine and
/// the loop). Into the bare buffer the loop writes a rollback point, not
/// its user table: it journals each later park and release, and a restore
/// undoes them, so it costs O(the round's changes), not O(population). The
/// buffer therefore obeys the rollback-point contract of
/// `simcore::snap::SnapWriter::bare`: it restores only into this cell, and
/// only until the next micro-snapshot. A rollback's engine restore does
/// allocate: the calendar and the scheduler's task table are rebuilt in
/// fresh allocations.
struct Cell<D> {
    engine: Engine,
    driver: ShardDriver<D>,
    /// Round-start micro-snapshot (bare envelope; see `simcore::snap`).
    snap_buf: Vec<u8>,
    /// `events_processed` at the last micro-snapshot.
    ev_at_snap: u64,
    /// Early messages applied by this cell's latest replay of the round.
    last_early: Vec<Msg>,
    /// Gather/sort buffer for this cell's inbound messages.
    scratch: Vec<Msg>,
    /// Sort buffer for the pending heap inside micro-snapshots.
    pending_scratch: Vec<Msg>,
    /// Sort buffer for parked client ids inside micro-snapshots.
    client_scratch: Vec<u64>,
    /// Cumulative micro-rollbacks of this cell.
    rollbacks: u64,
    /// Cumulative events discarded by this cell's rollbacks.
    replayed_events: u64,
}

impl<D: SnapDriver> Cell<D> {
    // simlint: hotpath(begin) — micro-snapshot save/restore and rollback
    // replay run once (or more, under contention) per wide round per cell.
    // Bare-mode snapshots reuse `snap_buf` and the sort scratches; see the
    // `Cell` docs for what still allocates.
    /// Captures the cell into its reusable bare buffer — the speculation
    /// checkpoint taken at the start of every wide round.
    fn micro_save(&mut self) {
        self.ev_at_snap = self.engine.events_processed();
        let mut w = SnapWriter::bare(std::mem::take(&mut self.snap_buf));
        self.engine.snap_save(&mut w);
        self.driver.inner.driver_snap_save(&mut w);
        save_shard_state(
            &self.driver.st,
            &mut w,
            &mut self.pending_scratch,
            &mut self.client_scratch,
        );
        self.snap_buf = w.into_bare();
    }

    /// Rolls the cell back to its last [`Cell::micro_save`], as often as
    /// the fixpoint needs. Bare snapshots restore into the engine and
    /// driver that wrote them moments ago, so a decode error (a retired
    /// rollback point included) is a bug, not an I/O condition.
    fn micro_restore(&mut self) {
        self.rollbacks += 1;
        self.replayed_events += self.engine.events_processed() - self.ev_at_snap;
        let buf = std::mem::take(&mut self.snap_buf);
        let mut r = SnapReader::bare(&buf);
        self.engine
            .snap_restore(&mut r)
            .expect("micro-snapshot restores into its own engine");
        self.driver
            .inner
            .driver_snap_restore(&mut r)
            .expect("micro-snapshot restores into its own driver");
        restore_shard_state(&mut self.driver.st, &mut r)
            .expect("micro-snapshot restores its own shard state");
        self.snap_buf = buf;
    }

    /// Rolls the cell back to its round-start micro-snapshot and replays
    /// the round, injecting **all** of `scratch` (its gathered early
    /// inbound messages in merge order) at exactly the barrier instants
    /// one-window rounds would have used: run to the group's barrier,
    /// inject the group, continue. The injected set is optimistic — a
    /// peer's concurrent replay may withdraw some of it — so the driver
    /// runs in stale-tolerant mode ([`ShardState::optimistic`]) and the
    /// fixpoint re-replays this cell until the set it applied is
    /// field-identical to the final one. `round_first` re-runs
    /// [`Driver::start`] when the discarded attempt had performed it.
    fn rollback_replay(&mut self, window: SimDuration, target: SimTime, round_first: bool) {
        self.micro_restore();
        self.driver.st.optimistic = true;
        let cut = self.scratch.len();
        let mut need_start = round_first;
        let mut i = 0;
        loop {
            let seg_end = if i == cut {
                target
            } else {
                inject_barrier(&self.scratch[i], window, target)
            };
            if !self.engine.is_stopped() {
                if need_start {
                    self.engine.run(&mut self.driver, seg_end);
                    need_start = false;
                } else {
                    self.engine.run_resumed(&mut self.driver, seg_end);
                }
            }
            if i == cut {
                break;
            }
            while i < cut && inject_barrier(&self.scratch[i], window, target) == seg_end {
                let msg = self.scratch[i];
                self.engine.inject_timer_at(msg.arrival, SHARD_TOKEN);
                self.driver.st.pending.push(Reverse(msg));
                i += 1;
            }
        }
        self.driver.st.optimistic = false;
        self.last_early.clear();
        self.last_early.extend_from_slice(&self.scratch);
    }
    // simlint: hotpath(end)
}

/// The barrier instant at which one-window rounds would inject `msg`
/// into its destination: the end of the base window containing the send
/// instant (`arrival - latency`; the latency doubles as the window),
/// clamped to the round target — an `until` cut injects at the cut,
/// exactly like a one-window round's short final window. Messages sent
/// at time zero take the *first* barrier (`window`), matching a loop that
/// starts at `window_end = ZERO + window`.
fn inject_barrier(msg: &Msg, window: SimDuration, target: SimTime) -> SimTime {
    let w = window.as_nanos();
    let sent = msg.arrival.as_nanos().saturating_sub(w);
    let beta = sent.div_ceil(w).max(1).saturating_mul(w);
    target.min(SimTime::from_nanos(beta))
}

/// Round width for the adaptive policy after `quiet` message-free rounds.
fn adaptive_width(quiet: u32, cap: u32) -> u32 {
    1u32.checked_shl(quiet).map_or(cap, |g| g.min(cap))
}

/// First barrier instant at which a cell's gathered early-message set
/// differs from the set its current trajectory already reflects, or
/// `None` when they are field-identical. `Msg`'s `PartialEq` compares
/// only the merge key, but the fixpoint must also notice a changed
/// payload or destination — a re-executed source cell can reach a
/// different outcome for the same `(arrival, src, seq)` key. Both slices
/// are sorted by merge key and [`inject_barrier`] is monotone in it, so
/// the first positional mismatch carries the smallest differing barrier.
fn first_divergence(
    gathered: &[Msg],
    applied: &[Msg],
    window: SimDuration,
    target: SimTime,
) -> Option<SimTime> {
    let n = gathered.len().min(applied.len());
    for (g, a) in gathered[..n].iter().zip(&applied[..n]) {
        let same = g.arrival == a.arrival
            && g.src == a.src
            && g.dst == a.dst
            && g.seq == a.seq
            && g.payload == a.payload;
        if !same {
            let bg = inject_barrier(g, window, target);
            let ba = inject_barrier(a, window, target);
            return Some(bg.min(ba));
        }
    }
    let extra = match gathered.len().cmp(&applied.len()) {
        std::cmp::Ordering::Less => &applied[n],
        std::cmp::Ordering::Greater => &gathered[n],
        std::cmp::Ordering::Equal => return None,
    };
    Some(inject_barrier(extra, window, target))
}

/// A sharded run: `C` cells advanced in lockstep lookahead windows by up to
/// `workers` OS threads, with deterministic cross-cell message merge at
/// every barrier.
pub struct ShardedRun<D> {
    cells: Vec<Cell<D>>,
    spec: ShardSpec,
    /// Next barrier instant (the exclusive end of the current window).
    window_end: SimTime,
    started: bool,
    /// Window-synchronization policy; not part of the run's identity (any
    /// policy yields byte-identical results), so not snapshotted.
    policy: WindowPolicy,
    stats: SyncStats,
}

impl<D: Driver + Send> ShardedRun<D> {
    /// Builds a run from per-cell `(engine, driver)` pairs. The engines must
    /// be freshly constructed with seeds [`mix_seed`]`(seed, cell)`; drivers
    /// are the per-cell workload slices (e.g. `users / C` closed-loop users
    /// each).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match `spec.cells`, is zero, or
    /// exceeds the 2^16 cell-id space; or if `spec.latency` is zero (a zero
    /// lookahead window cannot make progress).
    pub fn new(cells: Vec<(Engine, D)>, spec: ShardSpec) -> Self {
        assert!(!cells.is_empty(), "a sharded run needs at least one cell");
        assert_eq!(cells.len(), spec.cells as usize, "cell count != spec.cells");
        assert!(spec.cells <= 1 << 16, "cell-id space is 16 bits");
        assert!(
            !spec.latency.is_zero(),
            "cross-cell latency is the lookahead window and must be positive"
        );
        let cells = cells
            .into_iter()
            .enumerate()
            .map(|(i, (engine, inner))| Cell {
                engine,
                driver: ShardDriver::new(inner, i as u32, &spec),
                snap_buf: Vec::new(),
                ev_at_snap: 0,
                last_early: Vec::new(),
                scratch: Vec::new(),
                pending_scratch: Vec::new(),
                client_scratch: Vec::new(),
                rollbacks: 0,
                replayed_events: 0,
            })
            .collect();
        ShardedRun {
            cells,
            spec,
            window_end: SimTime::ZERO + spec.latency,
            started: false,
            policy: WindowPolicy::default(),
            stats: SyncStats::default(),
        }
    }

    /// Sets the window-synchronization policy (default conservative).
    /// Both policies yield byte-identical simulation results; only the
    /// synchronization cost (and [`SyncStats`]) changes.
    #[must_use]
    pub fn with_policy(mut self, policy: WindowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Synchronization counters accumulated so far.
    pub fn sync_stats(&self) -> SyncStats {
        self.stats
    }

    /// The run's configuration.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Per-cell engines, in cell order.
    pub fn engines(&self) -> impl Iterator<Item = &Engine> {
        self.cells.iter().map(|c| &c.engine)
    }

    /// Per-cell wrapped drivers, in cell order.
    pub fn drivers(&self) -> impl Iterator<Item = &ShardDriver<D>> {
        self.cells.iter().map(|c| &c.driver)
    }

    /// Latest cell clock — the run's notion of "now".
    pub fn now(&self) -> SimTime {
        self.cells
            .iter()
            .map(|c| c.engine.now())
            .max()
            .expect("non-empty")
    }

    /// Total calendar events handled across all cells.
    pub fn events_processed(&self) -> u64 {
        self.cells.iter().map(|c| c.engine.events_processed()).sum()
    }

    /// The machine-wide merged measurement report (see
    /// [`Engine::merged_report`]).
    pub fn report(&self) -> RunReport {
        let engines: Vec<&Engine> = self.cells.iter().map(|c| &c.engine).collect();
        Engine::merged_report(&engines)
    }
}

impl<D: SnapDriver + Send> ShardedRun<D> {
    /// Advances the run until `until`, every cell stops, or the whole
    /// system goes idle — whichever comes first — using up to `workers`
    /// threads under the configured [`WindowPolicy`]. The result is
    /// byte-identical for any `workers >= 1` and either policy (see
    /// DESIGN.md § "Sharded execution" for the argument).
    ///
    /// The run advances in **rounds** of `g` consecutive base windows:
    /// always one under the conservative policy, per [`adaptive_width`]
    /// under the adaptive one. A one-window round runs every cell to the
    /// barrier, merges and injects — two barriers, no snapshot, no
    /// fixpoint. A wider round runs optimistically from a micro-snapshot;
    /// messages that land *inside* it trigger micro-rollback of the
    /// receiving cells and a replay that injects each message at exactly
    /// the barrier instant a one-window round would have used
    /// ([`inject_barrier`]).
    ///
    /// May be called repeatedly (the run resumes at the next window
    /// barrier), including after [`ShardedRun::snap_restore`].
    pub fn run(&mut self, until: SimTime, workers: usize) {
        let cap = match self.policy {
            WindowPolicy::Conservative => 1,
            WindowPolicy::Adaptive { cap } => cap.max(1),
        };
        let n = self.cells.len();
        let workers = workers.clamp(1, n);
        let window = self.spec.latency;
        let start_t = self.window_end;
        let started = self.started;
        // Outboxes are indexed by *source* cell and owner-written, so a
        // replay can withdraw messages by republishing its slot wholesale.
        let round_out: Vec<Mutex<Vec<Msg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        // Per-cell first-divergence barrier (nanos; `u64::MAX` = clean),
        // owner-written every scan, read by all workers after the barrier.
        let dirty_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let idle: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let final_t = AtomicU64::new(start_t.as_nanos());
        let sync_rounds = AtomicU64::new(0);
        let sync_barriers = AtomicU64::new(0);
        let chunk_len = n.div_ceil(workers);
        // `chunks_mut` can yield fewer chunks than `workers` when the cell
        // count doesn't divide evenly; size the barrier by actual chunks.
        let barrier = Barrier::new(n.div_ceil(chunk_len));

        std::thread::scope(|s| {
            for (wi, chunk) in self.cells.chunks_mut(chunk_len).enumerate() {
                let base = wi * chunk_len;
                let round_out = &round_out;
                let dirty_at = &dirty_at;
                let idle = &idle;
                let barrier = &barrier;
                let final_t = &final_t;
                let sync_rounds = &sync_rounds;
                let sync_barriers = &sync_barriers;
                s.spawn(move || {
                    // simlint: hotpath(begin) — window-advance and merge
                    // regions: per-round work over pre-sized shared slots
                    // and per-cell scratch buffers.
                    // `t` is the end of the round's first base window;
                    // every barrier a one-window round would cross lies
                    // on the grid {k·window, k ≥ 1} and rounds start on it.
                    let mut t = start_t;
                    let mut first = !started;
                    // Message-free round streak. Derived from the merged
                    // message counts every worker observes identically, so
                    // the round width is a pure function of (spec, message
                    // history) — never of thread scheduling.
                    let mut quiet: u32 = 0;
                    let (mut rounds, mut barriers) = (0u64, 0u64);
                    loop {
                        let g = adaptive_width(quiet, cap);
                        let round_end = t + window * u64::from(g - 1);
                        let target = round_end.min(until);
                        let round_first = first;
                        // Phase A: micro-snapshot (wide rounds only — even
                        // stopped cells, so repeated replays never see a
                        // stale injection), run optimistically to the round
                        // target, publish the outbox under this cell's own
                        // source slot.
                        for (ci, cell) in chunk.iter_mut().enumerate() {
                            if g > 1 {
                                cell.micro_save();
                            }
                            cell.last_early.clear();
                            if !cell.engine.is_stopped() {
                                if first {
                                    cell.engine.run(&mut cell.driver, target);
                                } else {
                                    cell.engine.run_resumed(&mut cell.driver, target);
                                }
                            }
                            let mut out = round_out[base + ci].lock().expect("round outbox");
                            out.clear();
                            out.extend(cell.driver.st.outbox.drain(..));
                        }
                        first = false;
                        barriers += 1;
                        barrier.wait();
                        // Speculation fixpoint (wide rounds only): find
                        // messages landing *inside* the round, roll the
                        // receiving cells back and replay them with those
                        // messages injected at their conservative barrier
                        // instants. Injection is *optimistic*: a replay
                        // applies the full gathered set even though later
                        // entries may still be withdrawn by a peer's
                        // concurrent replay (the driver drops the resulting
                        // stale replies; see [`ShardState::optimistic`]).
                        // Convergence is by window-prefix induction: after
                        // scan k every message injected at the first k base
                        // barriers is final — wrong later injections cannot
                        // perturb a trajectory before their own instant —
                        // so a g-window round fixpoints within g+1 read
                        // scans. In practice it converges in ~the depth of
                        // the round's cross-cell causal chains (a call and
                        // its reply: two), independent of g, which is what
                        // makes wide rounds pay off under dense traffic.
                        if g > 1 {
                            let mut scans = 0u32;
                            loop {
                                scans += 1;
                                assert!(
                                    scans <= g + 1,
                                    "speculation fixpoint failed to converge in a {g}-window round"
                                );
                                // Read sub-phase: gather each owned cell's
                                // early inbound messages in merge order and
                                // publish where (if anywhere) they diverge
                                // from the applied set.
                                for (ci, cell) in chunk.iter_mut().enumerate() {
                                    let me = (base + ci) as u32;
                                    cell.scratch.clear();
                                    for out in round_out {
                                        let out = out.lock().expect("round outbox");
                                        for msg in out.iter() {
                                            if msg.dst == me
                                                && inject_barrier(msg, window, target) < target
                                            {
                                                cell.scratch.push(*msg);
                                            }
                                        }
                                    }
                                    cell.scratch.sort_unstable();
                                    let div = first_divergence(
                                        &cell.scratch,
                                        &cell.last_early,
                                        window,
                                        target,
                                    )
                                    .map_or(u64::MAX, |b| b.as_nanos());
                                    dirty_at[base + ci].store(div, Ordering::Release);
                                }
                                barriers += 1;
                                barrier.wait();
                                // Every worker reads the same slots, so the
                                // replay selection cannot depend on the
                                // worker count.
                                if dirty_at
                                    .iter()
                                    .all(|d| d.load(Ordering::Acquire) == u64::MAX)
                                {
                                    break;
                                }
                                // Write sub-phase: owners replay every cell
                                // whose gathered set diverged and republish
                                // its source slot wholesale — a replayed
                                // cell may *withdraw* messages its discarded
                                // speculation sent.
                                for (ci, cell) in chunk.iter_mut().enumerate() {
                                    if dirty_at[base + ci].load(Ordering::Acquire) != u64::MAX {
                                        cell.rollback_replay(window, target, round_first);
                                        let mut out =
                                            round_out[base + ci].lock().expect("round outbox");
                                        out.clear();
                                        out.extend(cell.driver.st.outbox.drain(..));
                                    }
                                }
                                barriers += 1;
                                barrier.wait();
                            }
                        }
                        // End of round: count the round's merged traffic
                        // (drives the adaptive width; the slots are frozen
                        // until the barrier below, so every worker counts
                        // the same value), inject the on-barrier messages
                        // in merge order, and probe for idleness.
                        let mut round_msgs = 0usize;
                        for (ci, cell) in chunk.iter_mut().enumerate() {
                            let me = (base + ci) as u32;
                            cell.scratch.clear();
                            for out in round_out {
                                let out = out.lock().expect("round outbox");
                                if ci == 0 {
                                    round_msgs += out.len();
                                }
                                for msg in out.iter() {
                                    if msg.dst == me
                                        && inject_barrier(msg, window, target) >= target
                                    {
                                        cell.scratch.push(*msg);
                                    }
                                }
                            }
                            cell.scratch.sort_unstable();
                            let Cell {
                                engine,
                                driver,
                                scratch,
                                ..
                            } = cell;
                            for msg in scratch.iter() {
                                engine.inject_timer_at(msg.arrival, SHARD_TOKEN);
                                driver.st.pending.push(Reverse(*msg));
                            }
                            let cell_idle =
                                cell.engine.is_stopped() || cell.engine.next_event_time().is_none();
                            idle[base + ci].store(cell_idle, Ordering::Release);
                        }
                        barriers += 1;
                        barrier.wait();
                        rounds += 1;
                        // Every worker sees identical flags and counted the
                        // same round traffic, so neither the stop decision
                        // nor the next round's width can depend on the
                        // worker count.
                        if target >= until || idle.iter().all(|f| f.load(Ordering::Acquire)) {
                            if base == 0 {
                                // Resume at the barrier closing the window
                                // that holds `target`, not at `round_end`:
                                // an `until` cut mid-round must not skip the
                                // round's remaining barriers.
                                let w = window.as_nanos();
                                let resume = target.as_nanos().div_ceil(w).saturating_mul(w);
                                final_t.store(resume.max(t.as_nanos()), Ordering::Release);
                                sync_rounds.store(rounds, Ordering::Release);
                                sync_barriers.store(barriers, Ordering::Release);
                            }
                            break;
                        }
                        quiet = if round_msgs == 0 {
                            quiet.saturating_add(1)
                        } else {
                            0
                        };
                        t = round_end + window;
                    }
                    // simlint: hotpath(end)
                });
            }
        });

        self.window_end = SimTime::from_nanos(final_t.load(Ordering::Acquire));
        self.started = true;
        self.stats.rounds += sync_rounds.load(Ordering::Acquire);
        self.stats.barriers += sync_barriers.load(Ordering::Acquire);
        self.stats.rollbacks = self.cells.iter().map(|c| c.rollbacks).sum();
        self.stats.replayed_events = self.cells.iter().map(|c| c.replayed_events).sum();
    }

    /// Serializes the whole sharded run at a window barrier: spec
    /// fingerprint, windowing cursor, then per cell the engine snapshot,
    /// the inner driver's state and the shard bookkeeping (pending
    /// messages in `(arrival, src, seq)` order, parked requests in client
    /// order).
    ///
    /// Must be called between [`ShardedRun::run`] calls — outboxes are
    /// drained at every barrier, which the snapshot asserts.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            cells,
            spec,
            window_end,
            started,
            policy: _, // not run identity, see above
            stats: _,  // observability counters, not run identity
        } = self;
        w.section("sharded-run");
        w.u32(spec.cells);
        w.u32(spec.cross_permille);
        w.u64(spec.latency.as_nanos());
        w.u64(window_end.as_nanos());
        w.bool(*started);
        let mut pending_scratch = Vec::new();
        let mut client_scratch = Vec::new();
        for cell in cells {
            cell.engine.snap_save(w);
            cell.driver.inner.driver_snap_save(w);
            save_shard_state(
                &cell.driver.st,
                w,
                &mut pending_scratch,
                &mut client_scratch,
            );
        }
    }

    /// Restores a run captured by [`ShardedRun::snap_save`] into an
    /// identically constructed `ShardedRun` (same spec, same engine and
    /// driver builders).
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Self {
            cells,
            spec,
            window_end,
            started,
            policy: _, // not run identity, see above
            stats: _,  // observability counters, not run identity
        } = self;
        r.section("sharded-run")?;
        let n_cells = r.u32()?;
        let cross = r.u32()?;
        let latency = SimDuration::from_nanos(r.u64()?);
        if n_cells != spec.cells || cross != spec.cross_permille || latency != spec.latency {
            return Err(SnapError::Corrupt(format!(
                "snapshot is of a {n_cells}-cell run (cross {cross}‰, window {latency}), \
                 this run has {} cells (cross {}‰, window {})",
                spec.cells, spec.cross_permille, spec.latency
            )));
        }
        *window_end = SimTime::from_nanos(r.u64()?);
        *started = r.bool()?;
        for cell in cells.iter_mut() {
            cell.engine.snap_restore(r)?;
            cell.driver.inner.driver_snap_restore(r)?;
            restore_shard_state(&mut cell.driver.st, r)?;
        }
        Ok(())
    }
}

/// Serializes one cell's shard bookkeeping. Shared by the durable snapshot
/// ([`ShardedRun::snap_save`]) and the per-round micro-snapshot;
/// `pending_scratch`/`client_scratch` are reusable sort buffers so the
/// micro-snapshot path stays allocation-free after warm-up. The byte
/// layout is identical on both paths.
fn save_shard_state(
    st: &ShardState,
    w: &mut SnapWriter,
    pending_scratch: &mut Vec<Msg>,
    client_scratch: &mut Vec<u64>,
) {
    assert!(
        st.outbox.is_empty(),
        "snapshot must be taken at a barrier (outbox drained)"
    );
    w.section("shard-state");
    w.u64(st.submit_seq);
    w.u64(st.msg_seq);
    w.u64(st.synth_seq);
    pending_scratch.clear();
    pending_scratch.extend(st.pending.iter().map(|r| r.0));
    pending_scratch.sort_unstable();
    w.usize(pending_scratch.len());
    for msg in pending_scratch.iter() {
        w.u64(msg.arrival.as_nanos());
        w.u32(msg.src);
        w.u32(msg.dst);
        w.u64(msg.seq);
        match msg.payload {
            Payload::Call { client, class } => {
                w.u8(0);
                w.u64(client);
                w.u32(class);
            }
            Payload::Reply {
                client,
                class,
                outcome,
            } => {
                w.u8(1);
                w.u64(client);
                w.u32(class);
                w.u8(encode_outcome(outcome));
            }
        }
    }
    client_scratch.clear();
    client_scratch.extend(st.parked.keys().copied());
    client_scratch.sort_unstable();
    w.usize(client_scratch.len());
    for &client in client_scratch.iter() {
        let p = st.parked[&client];
        w.u64(client);
        w.u32(p.class);
        w.u64(p.submitted_at.as_nanos());
    }
}

/// Restores state written by [`save_shard_state`], clearing (but keeping
/// the capacity of) the live collections.
fn restore_shard_state(st: &mut ShardState, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    r.section("shard-state")?;
    st.submit_seq = r.u64()?;
    st.msg_seq = r.u64()?;
    st.synth_seq = r.u64()?;
    st.outbox.clear();
    st.pending.clear();
    for _ in 0..r.usize()? {
        let arrival = SimTime::from_nanos(r.u64()?);
        let src = r.u32()?;
        let dst = r.u32()?;
        let seq = r.u64()?;
        let kind = r.u8()?;
        let payload = match kind {
            0 => Some(Payload::Call {
                client: r.u64()?,
                class: r.u32()?,
            }),
            1 => Some(Payload::Reply {
                client: r.u64()?,
                class: r.u32()?,
                outcome: decode_outcome(r.u8()?)?,
            }),
            _ => None,
        };
        // A pending message was merged into this cell from another one; its
        // reply goes back to `src`, and a call's client id must leave the
        // `src` bits of the foreign id `FOREIGN_BIT | src << 32 | client`
        // intact.
        let possible = |payload: &Payload| {
            let narrow = match *payload {
                Payload::Call { client, .. } => client <= u64::from(u32::MAX),
                Payload::Reply { .. } => true,
            };
            narrow && dst == st.cell && src < st.cells && src != st.cell
        };
        let Some(payload) = payload.filter(possible) else {
            // simlint: allow(H3) — error path; a corrupt snapshot aborts the run
            return Err(SnapError::Corrupt(format!(
                "cell {} of {} holds an impossible pending message: kind {kind}, {src} -> {dst}",
                st.cell, st.cells
            )));
        };
        st.pending.push(Reverse(Msg {
            arrival,
            src,
            dst,
            seq,
            payload,
        }));
    }
    st.parked.clear();
    for _ in 0..r.usize()? {
        let client = r.u64()?;
        let class = r.u32()?;
        let submitted_at = SimTime::from_nanos(r.u64()?);
        st.parked.insert(
            client,
            Parked {
                class,
                submitted_at,
            },
        );
    }
    Ok(())
}

fn encode_outcome(o: Outcome) -> u8 {
    match o {
        Outcome::Ok => 0,
        Outcome::TimedOut => 1,
        Outcome::Shed => 2,
        Outcome::ShedByPolicy(ShedReason::QueueFull) => 3,
        Outcome::ShedByPolicy(ShedReason::QueueDeadline) => 4,
        Outcome::ShedByPolicy(ShedReason::Concurrency) => 5,
        Outcome::ShedByPolicy(ShedReason::Priority) => 6,
    }
}

fn decode_outcome(v: u8) -> Result<Outcome, SnapError> {
    Ok(match v {
        0 => Outcome::Ok,
        1 => Outcome::TimedOut,
        2 => Outcome::Shed,
        3 => Outcome::ShedByPolicy(ShedReason::QueueFull),
        4 => Outcome::ShedByPolicy(ShedReason::QueueDeadline),
        5 => Outcome::ShedByPolicy(ShedReason::Concurrency),
        6 => Outcome::ShedByPolicy(ShedReason::Priority),
        // simlint: allow(H3) — error path; a corrupt snapshot aborts the run
        k => return Err(SnapError::Corrupt(format!("unknown outcome code {k}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_identity_and_spread() {
        assert_eq!(mix_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..8).map(|c| mix_seed(42, c)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "cells {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn route_hash_is_stable() {
        assert_eq!(route_hash(1, 7, 0), route_hash(1, 7, 0));
        assert_ne!(route_hash(1, 7, 0), route_hash(1, 7, 1));
        assert_ne!(route_hash(0, 7, 0), route_hash(1, 7, 0));
    }

    #[test]
    fn msg_order_is_total_on_key() {
        let m = |ns: u64, src: u32, seq: u64| Msg {
            arrival: SimTime::from_nanos(ns),
            src,
            dst: 0,
            seq,
            payload: Payload::Call {
                client: 0,
                class: 0,
            },
        };
        let mut v = [m(5, 1, 0), m(5, 0, 9), m(3, 2, 2), m(5, 0, 1)];
        v.sort_unstable();
        let keys: Vec<(u64, u32, u64)> = v
            .iter()
            .map(|m| (m.arrival.as_nanos(), m.src, m.seq))
            .collect();
        assert_eq!(keys, vec![(3, 2, 2), (5, 0, 1), (5, 0, 9), (5, 1, 0)]);
    }

    #[test]
    fn outcome_codec_round_trips() {
        for code in 0..=6u8 {
            assert_eq!(encode_outcome(decode_outcome(code).unwrap()), code);
        }
        assert!(decode_outcome(7).is_err());
    }

    #[test]
    fn inject_barrier_matches_conservative_windows() {
        let w = SimDuration::from_millis(1);
        let far = SimTime::from_nanos(u64::MAX);
        let m = |sent_ns: u64| Msg {
            arrival: SimTime::from_nanos(sent_ns) + w,
            src: 0,
            dst: 1,
            seq: 0,
            payload: Payload::Call {
                client: 0,
                class: 0,
            },
        };
        // Sent mid-window → the end of that window.
        assert_eq!(
            inject_barrier(&m(1), w, far),
            SimTime::from_nanos(1_000_000)
        );
        assert_eq!(
            inject_barrier(&m(999_999), w, far),
            SimTime::from_nanos(1_000_000)
        );
        // Sent exactly on a barrier → that barrier (windows are
        // half-open below, closed above, matching `Engine::run(until)`).
        assert_eq!(
            inject_barrier(&m(1_000_000), w, far),
            SimTime::from_nanos(1_000_000)
        );
        assert_eq!(
            inject_barrier(&m(1_000_001), w, far),
            SimTime::from_nanos(2_000_000)
        );
        // Sent at time zero (before the first barrier) → the first barrier.
        assert_eq!(
            inject_barrier(&m(0), w, far),
            SimTime::from_nanos(1_000_000)
        );
        // An `until` cut clamps to the cut, like the final short window.
        let cut = SimTime::from_nanos(1_500_000);
        assert_eq!(inject_barrier(&m(1_200_000), w, cut), cut);
    }

    #[test]
    fn adaptive_width_doubles_and_caps() {
        let widths: Vec<u32> = (0..8).map(|q| adaptive_width(q, 32)).collect();
        assert_eq!(widths, vec![1, 2, 4, 8, 16, 32, 32, 32]);
        // Shift overflow saturates at the cap rather than wrapping.
        assert_eq!(adaptive_width(40, 32), 32);
        assert_eq!(adaptive_width(2, 1), 1);
    }

    #[test]
    fn first_divergence_compares_every_field() {
        let w = SimDuration::from_millis(1);
        let far = SimTime::from_nanos(u64::MAX);
        let m = Msg {
            arrival: SimTime::from_nanos(5) + w,
            src: 1,
            dst: 2,
            seq: 3,
            payload: Payload::Call {
                client: 7,
                class: 0,
            },
        };
        let mut other = m;
        other.payload = Payload::Reply {
            client: 7,
            class: 0,
            outcome: Outcome::Ok,
        };
        // Same merge key — `PartialEq` can't tell them apart...
        assert_eq!(m, other);
        // ...but the fixpoint must.
        assert_eq!(first_divergence(&[m], &[m], w, far), None);
        assert_eq!(
            first_divergence(&[m], &[other], w, far),
            Some(inject_barrier(&m, w, far))
        );
        // A missing or extra trailing message diverges at its own barrier.
        assert_eq!(
            first_divergence(&[m], &[], w, far),
            Some(inject_barrier(&m, w, far))
        );
        assert_eq!(
            first_divergence(&[], &[m], w, far),
            Some(inject_barrier(&m, w, far))
        );
        // With a common prefix, the divergence is the first mismatch —
        // and the smaller-keyed candidate's barrier wins, so the reported
        // instant never overshoots the true first difference.
        let mut late = m;
        late.arrival = SimTime::from_nanos(3_000_000) + w;
        late.seq = 9;
        let mut later = late;
        later.arrival = SimTime::from_nanos(7_000_000) + w;
        assert_eq!(
            first_divergence(&[m, late], &[m, later], w, far),
            Some(inject_barrier(&late, w, far))
        );
        assert_eq!(
            first_divergence(&[m, late], &[m], w, far),
            Some(inject_barrier(&late, w, far))
        );
    }

    #[test]
    fn token_namespaces_are_disjoint() {
        assert_eq!(SHARD_TOKEN >> 61, 1);
        // Per-user tokens.
        assert_eq!((u64::from(u32::MAX)) >> 61, 0);
        // Coalesced wake-bucket tokens (bit 62).
        assert_eq!((1u64 << 62) >> 61, 2);
        // Loadgen sentinel tokens live in the top three values.
        assert_eq!(u64::MAX >> 61, 7);
    }
}
