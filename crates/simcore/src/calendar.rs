//! The event calendar: a cancellable, deterministic priority queue of
//! timestamped events.
//!
//! [`Calendar`] is the single ordering authority of a simulation. Events
//! scheduled for the same instant pop in FIFO order (stable tie-breaking by
//! insertion sequence), which makes runs bit-reproducible regardless of queue
//! internals.
//!
//! # Implementation
//!
//! Internally this is a hierarchical timer wheel ([`LEVELS`] levels of
//! [`SLOTS`] slots each; level 0 buckets events into 2^[`GRAIN_BITS`]-ns
//! slots) backed by a slab of entries with a free list, plus an overflow
//! binary heap for events in a later top-level block than the wheel's
//! current base (~73 minutes per block). Each wheel slot is an unordered
//! vector of slab indices. Scheduling and cancellation are O(1); popping
//! drains one level-0 slot at a time into a sorted `ready` batch, so the
//! per-event cost is the amortized cost of one small sort — no hashing, no
//! global heap rebalance.
//!
//! Cancellation is supported through [`EventToken`]s. Every slab entry
//! records the wheel slot and the position within it that hold it, so
//! cancelling an entry in the wheel `swap_remove`s it from its slot and
//! recycles its slab index on the spot: the wheel never holds a dead entry,
//! and cascading a slot only re-buckets live ones. An entry already moved to
//! `ready` or parked in the overflow heap leaves a tombstone there instead,
//! reclaimed when it reaches the front. Tokens are generation-tagged, so a
//! stale token (for an event that already fired or was cancelled) is
//! harmless.
//!
//! Slab indices are recycled only by `cancel`, by `pop`, and by tombstones
//! leaving `ready` or the overflow heap in (time, seq) order;
//! `reschedule` of a wheel entry keeps its index, exactly as the cancel and
//! schedule it stands for would. None of these depends on the order of
//! entries within a wheel slot, so a calendar rebuilt from a snapshot
//! reuses exactly the slab indices the live one would.
//!
//! # Ordering invariant
//!
//! All pending events strictly earlier than the wheel base live in the
//! sorted `ready` batch; the wheel holds events at or after the base in the
//! base's top-level block, and the overflow heap holds the events of later
//! blocks. An event is placed at the *lowest* level whose block (256-slot
//! page) contains both the event time and the base — this rule means a
//! forward slot scan never skips an event that wrapped into the next block,
//! and cascading a higher-level slot always lands its entries at strictly
//! lower levels. When the base enters a new top-level block, that block's
//! overflow entries move into the wheel, so every entry's container is a
//! pure function of its time and the base.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width in nanoseconds (1024 ns).
const GRAIN_BITS: u32 = 10;
/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; events beyond the top level's horizon overflow
/// into a binary heap.
const LEVELS: usize = 4;
/// Words in each level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Low bits of a timestamp within one level-0 slot.
const GRAIN_MASK: u64 = (1 << GRAIN_BITS) - 1;

/// Smallest overflow-heap capacity worth releasing once the heap drains
/// empty (see `pull_overflow`): below this the allocation is noise, above
/// it a dead heap visibly distorts `footprint_bytes`.
const OVERFLOW_SHRINK_MIN: usize = 1024;

#[inline]
fn level_shift(level: usize) -> u32 {
    GRAIN_BITS + SLOT_BITS * level as u32
}

/// Slot index of `ns` within its block at `level`.
#[inline]
fn slot_of(ns: u64, level: usize) -> usize {
    ((ns >> level_shift(level)) & (SLOTS as u64 - 1)) as usize
}

/// Block (256-slot page) number of `ns` at `level`.
#[inline]
fn block_of(ns: u64, level: usize) -> u64 {
    ns >> (level_shift(level) + SLOT_BITS)
}

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// Tokens pack a slab index with a generation counter; the generation is
/// bumped every time a slab entry is recycled, so a stale token (for an
/// event that already fired or was cancelled) is harmless — cancelling it is
/// a no-op that returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

impl EventToken {
    /// A token that names no event: cancelling or rescheduling it behaves
    /// as for a token whose event already fired. Holders of an optional
    /// event store it instead of arming one that can never be handled.
    pub const NONE: EventToken = EventToken(u64::MAX);

    #[inline]
    fn pack(idx: u32, gen: u32) -> Self {
        EventToken(((gen as u64) << 32) | idx as u64)
    }
    #[inline]
    fn idx(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }
    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// `Entry::slot` of an entry that sits in no wheel slot: it is in `ready`,
/// in the overflow heap, or on the free list.
const NO_SLOT: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    gen: u32,
    /// The wheel slot holding this entry, as `level * SLOTS + slot`, or
    /// [`NO_SLOT`].
    slot: u32,
    /// This entry's index within its wheel slot (meaningless at `NO_SLOT`).
    pos: u32,
    /// A tombstone in `ready` or the overflow heap (never in the wheel).
    cancelled: bool,
    payload: Option<E>,
}

#[derive(Debug)]
struct Level {
    slots: Vec<Vec<u32>>,
    occ: [u64; WORDS],
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
        }
    }
    #[inline]
    fn occupied(&self, slot: usize) -> bool {
        self.occ[slot / 64] & (1 << (slot % 64)) != 0
    }
    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1 << (slot % 64);
    }
    #[inline]
    fn unmark(&mut self, slot: usize) {
        self.occ[slot / 64] &= !(1 << (slot % 64));
    }
    /// First occupied slot at or after `from`, if any.
    fn scan(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= WORDS {
            return None;
        }
        let mut word = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }
}

/// A deterministic, cancellable event queue keyed by [`SimTime`].
///
/// # Example
///
/// ```
/// use simcore::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_nanos(20), "second");
/// let tok = cal.schedule(SimTime::from_nanos(10), "first");
/// cal.schedule(SimTime::from_nanos(10), "also-first-but-later");
/// assert!(cal.cancel(tok));
/// assert_eq!(cal.pop(), Some((SimTime::from_nanos(10), "also-first-but-later")));
/// assert_eq!(cal.pop(), Some((SimTime::from_nanos(20), "second")));
/// assert_eq!(cal.pop(), None);
/// ```
#[derive(Debug)]
pub struct Calendar<E> {
    slab: Vec<Entry<E>>,
    free: Vec<u32>,
    levels: Vec<Level>,
    /// Events beyond the wheel horizon, min-ordered by (time, seq).
    overflow: BinaryHeap<(Reverse<(u64, u64)>, u32)>,
    /// Entry indices with `at < base`, sorted descending by (at, seq) so the
    /// earliest event pops from the back.
    ready: Vec<u32>,
    /// Everything strictly before `base` is in `ready` (or already popped);
    /// the wheel and overflow only hold events at or after `base`.
    base: u64,
    next_seq: u64,
    live: usize,
    /// Most live events ever pending at once (memory high-water mark).
    high_water: usize,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Calendar {
            slab: Vec::new(),
            free: Vec::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            base: 0,
            next_seq: 0,
            live: 0,
            high_water: 0,
            now: SimTime::ZERO,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The most live events that were ever pending at once.
    ///
    /// Slab capacity (and therefore calendar memory) is bounded by this
    /// number, so it is the figure of merit for timer coalescing: a closed
    /// loop with per-user timers pushes it to the population size, a
    /// coalesced loop keeps it near the bucket count.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Approximate heap bytes held by the calendar's internal structures.
    ///
    /// Counts capacities (what the allocator handed out), not lengths, since
    /// the slab and the hot slot vectors never shrink. Payload-owned heap
    /// memory is not visible from here and is excluded.
    pub fn footprint_bytes(&self) -> usize {
        let slab = self.slab.capacity() * std::mem::size_of::<Entry<E>>();
        let idx = std::mem::size_of::<u32>();
        let slots: usize = self
            .levels
            .iter()
            .flat_map(|l| l.slots.iter())
            .map(|s| s.capacity() * idx)
            .sum();
        let heap = self.overflow.capacity() * std::mem::size_of::<(Reverse<(u64, u64)>, u32)>();
        slab + slots + heap + (self.free.capacity() + self.ready.capacity()) * idx
    }

    /// Schedules `payload` to fire at `at`, returning a token that can cancel it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the calendar's current time: scheduling
    /// into the past would break causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let ns = at.as_nanos();
        let (idx, gen) = self.alloc(ns, payload);
        if ns < self.base {
            // Already inside the drained window: merge into the sorted
            // ready batch (descending, so the earliest stays at the back).
            self.merge_ready(idx);
        } else {
            self.insert_wheel(idx, ns);
        }
        EventToken::pack(idx, gen)
    }

    /// Schedules every payload in `batch` for the same instant `at`,
    /// returning how many were scheduled.
    ///
    /// This is the bulk-insertion path for coalesced timer buckets: the
    /// wheel placement (level, slot) is computed once and the whole batch is
    /// appended to that slot, instead of re-deriving it per event. Payloads
    /// fire in iteration order (they get consecutive sequence numbers), and
    /// interleave with individually scheduled events exactly as if each had
    /// been passed to [`Calendar::schedule`] in turn. Batch entries cannot
    /// be cancelled individually — coalesced wakeups are fire-and-forget.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the calendar's current time.
    pub fn schedule_batch<I>(&mut self, at: SimTime, batch: I) -> usize
    where
        I: IntoIterator<Item = E>,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let ns = at.as_nanos();
        // Resolve the destination once; every entry of the batch shares it.
        enum Dest {
            Ready,
            Wheel(usize, usize),
            Overflow,
        }
        let dest = if ns < self.base {
            Dest::Ready
        } else {
            (0..LEVELS)
                .find(|&level| block_of(ns, level) == block_of(self.base, level))
                .map_or(Dest::Overflow, |level| {
                    Dest::Wheel(level, slot_of(ns, level))
                })
        };
        let mut n = 0;
        for payload in batch {
            let (idx, _gen) = self.alloc(ns, payload);
            match dest {
                Dest::Ready => self.merge_ready(idx),
                Dest::Wheel(level, s) => self.push_slot(idx, level, s),
                Dest::Overflow => {
                    let seq = self.slab[idx as usize].seq;
                    self.overflow.push((Reverse((ns, seq)), idx));
                }
            }
            n += 1;
        }
        n
    }

    /// Allocates a slab entry for an event at `ns`, assigning the next
    /// sequence number and updating the live count and high-water mark.
    #[inline]
    fn alloc(&mut self, ns: u64, payload: E) -> (u32, u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let out = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.slab[idx as usize];
                e.at = ns;
                e.seq = seq;
                e.cancelled = false;
                e.payload = Some(payload);
                (idx, e.gen)
            }
            None => {
                let idx = self.slab.len() as u32;
                self.slab.push(Entry {
                    at: ns,
                    seq,
                    gen: 0,
                    slot: NO_SLOT,
                    pos: 0,
                    cancelled: false,
                    payload: Some(payload),
                });
                (idx, 0)
            }
        };
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        out
    }

    /// Inserts an already-allocated entry into the sorted ready batch
    /// (descending by (at, seq), so the earliest stays at the back).
    #[inline]
    fn merge_ready(&mut self, idx: u32) {
        let slab = &self.slab;
        let e = &slab[idx as usize];
        let key = (e.at, e.seq);
        let pos = self
            .ready
            .partition_point(|&i| (slab[i as usize].at, slab[i as usize].seq) > key);
        self.ready.insert(pos, idx);
    }

    /// Cancels a pending event.
    ///
    /// Returns `true` if the event was still pending (it will now never
    /// fire), `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let idx = token.idx();
        let e = match self.slab.get_mut(idx) {
            Some(e) if e.gen == token.gen() && !e.cancelled && e.payload.is_some() => e,
            _ => return false,
        };
        e.payload = None;
        self.live -= 1;
        if e.slot == NO_SLOT {
            // In `ready` or the overflow heap: reclaimed at the front.
            e.cancelled = true;
            return true;
        }
        self.unlink(idx);
        self.recycle(idx as u32);
        true
    }

    /// Moves a pending event to `at` with a new payload, returning its new
    /// token.
    ///
    /// Exactly [`Calendar::cancel`] followed by [`Calendar::schedule`]: the
    /// event gets a fresh sequence number, the old token goes stale, and
    /// the slab index, generation, `len` and `high_water` come out as that
    /// pair would leave them. An event sitting in a wheel slot is moved in
    /// place, without a trip through the free list; any other token (fired,
    /// cancelled, [`EventToken::NONE`], or an event already drained to the
    /// ready batch or parked in the overflow heap) takes the two calls.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the calendar's current time.
    pub fn reschedule(&mut self, token: EventToken, at: SimTime, payload: E) -> EventToken {
        let idx = token.idx();
        let in_wheel = matches!(
            self.slab.get(idx),
            Some(e) if e.gen == token.gen() && e.payload.is_some() && e.slot != NO_SLOT
        );
        if !in_wheel {
            self.cancel(token);
            return self.schedule(at, payload);
        }
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        self.unlink(idx);
        let ns = at.as_nanos();
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = &mut self.slab[idx];
        e.gen = e.gen.wrapping_add(1);
        e.at = ns;
        e.seq = seq;
        e.slot = NO_SLOT;
        e.payload = Some(payload);
        let gen = e.gen;
        if ns < self.base {
            self.merge_ready(idx as u32);
        } else {
            self.insert_wheel(idx as u32, ns);
        }
        EventToken::pack(idx as u32, gen)
    }

    /// Removes a wheel entry from its slot, fixing the position of the
    /// entry moved into its place.
    #[inline]
    fn unlink(&mut self, idx: usize) {
        let e = &self.slab[idx];
        let (level, s, pos) = (
            e.slot as usize / SLOTS,
            e.slot as usize % SLOTS,
            e.pos as usize,
        );
        let lvl = &mut self.levels[level];
        let v = &mut lvl.slots[s];
        v.swap_remove(pos);
        if let Some(&moved) = v.get(pos) {
            self.slab[moved as usize].pos = pos as u32;
        }
        if v.is_empty() {
            lvl.unmark(s);
        }
    }

    /// Pops the earliest live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.ensure_ready() {
            return None;
        }
        let idx = self.ready.pop().expect("ensure_ready lied") as usize;
        let e = &mut self.slab[idx];
        let at = SimTime::from_nanos(e.at);
        let payload = e.payload.take().expect("live ready entry without payload");
        self.now = at;
        self.live -= 1;
        self.recycle(idx as u32);
        Some((at, payload))
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ensure_ready() {
            let idx = *self.ready.last().expect("ensure_ready lied") as usize;
            Some(SimTime::from_nanos(self.slab[idx].at))
        } else {
            None
        }
    }

    /// Returns a slab entry to the free list, bumping its generation so any
    /// outstanding token for it goes stale.
    #[inline]
    fn recycle(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.slot = NO_SLOT;
        e.cancelled = false;
        e.payload = None;
        self.free.push(idx);
    }

    /// Places an entry (with `at >= base`) into the wheel or overflow heap.
    fn insert_wheel(&mut self, idx: u32, ns: u64) {
        match (0..LEVELS).find(|&level| block_of(ns, level) == block_of(self.base, level)) {
            Some(level) => self.push_slot(idx, level, slot_of(ns, level)),
            None => {
                let seq = self.slab[idx as usize].seq;
                self.overflow.push((Reverse((ns, seq)), idx));
            }
        }
    }

    /// Appends an entry to wheel slot `s` of `level`, recording where it sits
    /// so `cancel` can unlink it.
    #[inline]
    fn push_slot(&mut self, idx: u32, level: usize, s: usize) {
        let lvl = &mut self.levels[level];
        let e = &mut self.slab[idx as usize];
        e.slot = (level * SLOTS + s) as u32;
        e.pos = lvl.slots[s].len() as u32;
        lvl.slots[s].push(idx);
        lvl.mark(s);
    }

    /// Guarantees the back of `ready` is a live entry, refilling from the
    /// wheel/overflow as needed. Returns `false` when no live events remain.
    fn ensure_ready(&mut self) -> bool {
        loop {
            while let Some(&idx) = self.ready.last() {
                if self.slab[idx as usize].cancelled {
                    self.ready.pop();
                    self.recycle(idx);
                } else {
                    return true;
                }
            }
            if !self.refill() {
                return false;
            }
        }
    }

    /// Drains the next non-empty time window into `ready` (sorted).
    /// Returns `false` if the wheel and overflow are exhausted.
    fn refill(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            // Expand any higher-level slot whose range covers the base, so
            // level 0 sees every event in the current block. By the
            // placement rule these cascade to strictly lower levels.
            for level in (1..LEVELS).rev() {
                let s = slot_of(self.base, level);
                if self.levels[level].occupied(s) {
                    self.cascade(level, s);
                }
            }
            // Drain the next occupied level-0 slot in the current block. An
            // occupied slot holds only live entries, so the batch is never
            // empty.
            if let Some(s) = self.levels[0].scan(slot_of(self.base, 0)) {
                let start = (block_of(self.base, 0) << (GRAIN_BITS + SLOT_BITS))
                    | ((s as u64) << GRAIN_BITS);
                let slot = &mut self.levels[0].slots[s];
                for &idx in slot.iter() {
                    self.slab[idx as usize].slot = NO_SLOT;
                }
                self.ready.extend_from_slice(slot);
                slot.clear();
                self.levels[0].unmark(s);
                self.base = (start | GRAIN_MASK).saturating_add(1);
                self.pull_overflow();
                self.sort_ready();
                return true;
            }
            // Current block exhausted: jump to the next occupied slot at the
            // lowest non-empty level and expand it. (Base's own slot at each
            // level >= 1 is empty after the expansion pass above.)
            let mut jumped = false;
            for level in 1..LEVELS {
                let from = slot_of(self.base, level) + 1;
                if from >= SLOTS {
                    continue;
                }
                if let Some(t) = self.levels[level].scan(from) {
                    let shift = level_shift(level);
                    self.base =
                        (block_of(self.base, level) << (shift + SLOT_BITS)) | ((t as u64) << shift);
                    self.cascade(level, t);
                    jumped = true;
                    break;
                }
            }
            if jumped {
                continue;
            }
            // Wheel empty: move the base to the start of the earliest
            // overflow entry's top-level block and pull that block in.
            if let Some(&(Reverse((at, _)), _)) = self.overflow.peek() {
                let shift = level_shift(LEVELS - 1) + SLOT_BITS;
                self.base = (at >> shift) << shift;
                self.pull_overflow();
                continue;
            }
            return false;
        }
    }

    /// Re-distributes one slot's entries into lower levels relative to the
    /// current base. The slot holds no tombstones, and the order entries
    /// land in their new slots is unobservable, so no sort is needed.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut entries = std::mem::take(&mut self.levels[level].slots[slot]);
        self.levels[level].unmark(slot);
        for &idx in &entries {
            let e = &self.slab[idx as usize];
            debug_assert!(!e.cancelled && e.at >= self.base);
            self.insert_wheel(idx, e.at);
        }
        // A level-1 slot turns over every 262 µs of simulated time, so it
        // keeps its buffer. Higher slots turn over at most once per 67 ms;
        // dropping theirs keeps a far-future burst that passed through from
        // pinning its peak size in hundreds of idle slots.
        if level == 1 {
            entries.clear();
            self.levels[level].slots[slot] = entries;
        }
    }

    /// Moves the overflow entries of the base's top-level block into the
    /// wheel, reclaiming their tombstones in (time, seq) order.
    fn pull_overflow(&mut self) {
        let top = LEVELS - 1;
        while let Some(&(Reverse((at, _)), idx)) = self.overflow.peek() {
            if block_of(at, top) != block_of(self.base, top) {
                break;
            }
            self.overflow.pop();
            if self.slab[idx as usize].cancelled {
                self.recycle(idx);
            } else {
                self.insert_wheel(idx, at);
            }
        }
        // Once every parked entry has migrated out, the heap's retained
        // capacity is dead weight: the entries now live in the slab/wheel
        // accounting, and keeping the old allocation around made
        // `footprint_bytes` charge them twice (their live storage plus the
        // ghost heap capacity). A one-shot far-future burst — the bucket-merge
        // pattern — would otherwise pin peak heap bytes forever. Only a large
        // empty heap is released, so steady alternation near the horizon does
        // not thrash the allocator.
        if self.overflow.is_empty() && self.overflow.capacity() >= OVERFLOW_SHRINK_MIN {
            self.overflow.shrink_to(0);
        }
    }

    fn sort_ready(&mut self) {
        let slab = &self.slab;
        self.ready.sort_unstable_by(|&a, &b| {
            let ka = (slab[a as usize].at, slab[a as usize].seq);
            let kb = (slab[b as usize].at, slab[b as usize].seq);
            kb.cmp(&ka)
        });
    }
}

// ------------------------------------------------------------- snapshotting

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

crate::snap_fields!(EventToken { 0 });

/// The calendar serializes its slab *exactly* — entry order, generations,
/// free list, and the sorted `ready` batch — so outstanding [`EventToken`]s
/// held elsewhere in a snapshot stay valid after restore. Only the wheel
/// levels and the overflow heap are rebuilt: given the restored `base`, an
/// entry's (level, slot) placement is a pure function of its timestamp
/// (`insert_wheel`), and pop order within a slot is recovered by the sorted
/// refill, so the rebuilt calendar replays the exact event sequence. Slot
/// and position bookkeeping is not written; `insert_wheel` re-derives it.
impl<E: Snap> Snap for Calendar<E> {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            slab,
            free,
            levels: _,   // rebuilt from the slab on load
            overflow: _, // rebuilt from the slab on load
            ready,
            base,
            next_seq,
            live,
            high_water,
            now,
        } = self;
        w.section("calendar");
        w.u64(now.as_nanos());
        w.u64(*base);
        w.u64(*next_seq);
        w.usize(*live);
        w.usize(*high_water);
        w.usize(slab.len());
        for e in slab {
            let Entry {
                at,
                seq,
                gen,
                slot: _, // re-derived by `insert_wheel`
                pos: _,  // re-derived by `insert_wheel`
                cancelled,
                payload,
            } = e;
            w.u64(*at);
            w.u64(*seq);
            w.u32(*gen);
            w.bool(*cancelled);
            payload.save(w);
        }
        w.u32s(free);
        w.u32s(ready);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.section("calendar")?;
        let now = SimTime::from_nanos(r.u64()?);
        let base = r.u64()?;
        let next_seq = r.u64()?;
        let live = r.usize()?;
        let high_water = r.usize()?;
        let n = r.checked_len()?;
        let mut slab = Vec::with_capacity(n);
        for _ in 0..n {
            slab.push(Entry {
                at: r.u64()?,
                seq: r.u64()?,
                gen: r.u32()?,
                slot: NO_SLOT,
                pos: 0,
                cancelled: r.bool()?,
                payload: Option::<E>::load(r)?,
            });
        }
        let mut cal = Calendar {
            slab,
            free: r.u32s()?,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            ready: r.u32s()?,
            base,
            next_seq,
            live,
            high_water,
            now,
        };
        let mut in_wheel = vec![true; n];
        for &idx in cal.free.iter().chain(cal.ready.iter()) {
            let slot = in_wheel
                .get_mut(idx as usize)
                .ok_or_else(|| SnapError::Corrupt(format!("calendar index {idx} out of range")))?;
            *slot = false;
        }
        for (idx, pending) in in_wheel.into_iter().enumerate() {
            if !pending {
                continue;
            }
            let e = &cal.slab[idx];
            let at = e.at;
            if at < cal.base {
                return Err(SnapError::Corrupt(format!(
                    "calendar entry {idx} is before the wheel base but not in ready"
                )));
            }
            if !e.cancelled {
                if e.payload.is_none() {
                    return Err(SnapError::Corrupt(format!(
                        "calendar entry {idx} is pending without a payload"
                    )));
                }
                cal.insert_wheel(idx as u32, at);
            } else if block_of(at, LEVELS - 1) != block_of(cal.base, LEVELS - 1) {
                // A tombstone of a later block waits in the overflow heap,
                // exactly where the saved calendar kept it.
                cal.overflow.push((Reverse((at, e.seq)), idx as u32));
            } else {
                // Only snapshots of older builds, which left tombstones in
                // wheel slots, reach here: reclaim them now.
                cal.recycle(idx as u32);
            }
        }
        Ok(cal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(30), 3);
        cal.schedule(SimTime::from_nanos(10), 1);
        cal.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_micros(7), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_micros(10), ());
        cal.pop();
        cal.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(SimTime::from_nanos(1), "dead");
        cal.schedule(SimTime::from_nanos(2), "alive");
        assert!(cal.cancel(tok));
        assert!(!cal.cancel(tok), "double cancel must report false");
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(2), "alive")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(SimTime::from_nanos(1), ());
        cal.pop();
        assert!(!cal.cancel(tok));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        let a = cal.schedule(SimTime::from_nanos(1), ());
        let _b = cal.schedule(SimTime::from_nanos(2), ());
        assert_eq!(cal.len(), 2);
        cal.cancel(a);
        assert_eq!(cal.len(), 1);
        cal.pop();
        assert!(cal.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(SimTime::from_nanos(1), 1);
        cal.schedule(SimTime::from_nanos(5), 2);
        cal.cancel(tok);
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(5), 2)));
    }

    #[test]
    fn interleaved_schedule_pop_respects_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(10), 'a');
        let (t, e) = cal.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(10), 'a'));
        cal.schedule(t + SimDuration::from_nanos(5), 'b');
        cal.schedule(t + SimDuration::from_nanos(1), 'c');
        assert_eq!(cal.pop().unwrap().1, 'c');
        assert_eq!(cal.pop().unwrap().1, 'b');
    }

    #[test]
    fn cancel_after_fire_with_others_pending_is_noop() {
        // Regression: cancelling an already-fired token while another event
        // is still pending must not disturb the pending event.
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_nanos(1), 'a');
        cal.schedule(SimTime::from_nanos(2), 'b');
        cal.pop();
        assert!(!cal.cancel(a));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(2), 'b')));
    }

    #[test]
    fn stale_token_from_future_is_rejected() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventToken(99)));
    }

    #[test]
    fn recycled_slot_invalidates_old_token() {
        // A token must not cancel an unrelated event that reuses its slab slot.
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_nanos(1), 'a');
        cal.pop();
        let _b = cal.schedule(SimTime::from_nanos(2), 'b');
        assert!(!cal.cancel(a), "stale token must not hit the recycled slot");
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(2), 'b')));
    }

    #[test]
    fn spans_level_boundaries_in_order() {
        // One event per wheel level plus one past the horizon (overflow).
        let mut cal = Calendar::new();
        let times = [
            1u64 << GRAIN_BITS,                      // level 0
            1 << (GRAIN_BITS + SLOT_BITS),           // level 1
            1 << (GRAIN_BITS + 2 * SLOT_BITS),       // level 2
            1 << (GRAIN_BITS + 3 * SLOT_BITS),       // level 3
            1 << (GRAIN_BITS + 4 * SLOT_BITS),       // overflow
            (1 << (GRAIN_BITS + 4 * SLOT_BITS)) + 1, // overflow, FIFO after
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            cal.schedule(SimTime::from_nanos(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn block_crossing_does_not_skip_parked_events() {
        // An event parked at level 1 (next level-0 block relative to the
        // initial base) must still fire before a later one, even after the
        // wheel advances into its block.
        let mut cal = Calendar::new();
        let block = 1u64 << (GRAIN_BITS + SLOT_BITS);
        cal.schedule(SimTime::from_nanos(block + 5), 'b');
        cal.schedule(SimTime::from_nanos(3), 'a');
        cal.schedule(SimTime::from_nanos(2 * block + 7), 'c');
        assert_eq!(cal.pop().unwrap().1, 'a');
        assert_eq!(cal.pop().unwrap().1, 'b');
        assert_eq!(cal.pop().unwrap().1, 'c');
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn batch_fires_in_iteration_order_and_interleaves() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(50), 100);
        cal.schedule_batch(SimTime::from_nanos(50), [101, 102, 103]);
        cal.schedule(SimTime::from_nanos(50), 104);
        cal.schedule(SimTime::from_nanos(40), 0);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 100, 101, 102, 103, 104]);
    }

    #[test]
    fn batch_matches_singles_everywhere_it_can_land() {
        // Same payloads via schedule() and schedule_batch() must pop
        // identically whether the batch lands in ready, a wheel slot, or
        // the overflow heap.
        let targets = [
            SimTime::from_nanos(3),    // ready (after the first pop below)
            SimTime::from_micros(900), // wheel, higher level
            SimTime::from_secs(7200),  // overflow
        ];
        for &at in &targets {
            let run = |batched: bool| {
                let mut cal = Calendar::new();
                cal.schedule(SimTime::from_nanos(1), 0);
                cal.pop(); // advance base so nanos(3) is inside the drained window
                if batched {
                    cal.schedule_batch(at, [1, 2, 3]);
                } else {
                    for p in [1, 2, 3] {
                        cal.schedule(at, p);
                    }
                }
                cal.schedule(at + SimDuration::from_nanos(1), 9);
                std::iter::from_fn(|| cal.pop()).collect::<Vec<_>>()
            };
            assert_eq!(run(true), run(false), "divergence at {at}");
        }
    }

    #[test]
    fn high_water_tracks_peak_pending() {
        let mut cal = Calendar::new();
        assert_eq!(cal.high_water(), 0);
        cal.schedule(SimTime::from_nanos(1), ());
        cal.schedule(SimTime::from_nanos(2), ());
        cal.pop();
        cal.pop();
        cal.schedule(SimTime::from_nanos(9), ());
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.high_water(), 2, "peak was two pending, not current one");
        cal.schedule_batch(SimTime::from_nanos(10), [(), (), ()]);
        assert_eq!(cal.high_water(), 4);
    }

    #[test]
    fn footprint_counts_slab_growth() {
        let mut cal = Calendar::new();
        let empty = cal.footprint_bytes();
        for i in 0..1000u64 {
            cal.schedule(SimTime::from_nanos(1 + i), i);
        }
        assert!(
            cal.footprint_bytes() >= empty + 1000 * std::mem::size_of::<Entry<u64>>(),
            "footprint {} must reflect 1000 slab entries",
            cal.footprint_bytes()
        );
    }

    /// Live entries accounted by walking every container: wheel slots, the
    /// overflow heap, and the ready batch. Must always equal `len()` — an
    /// entry double-counted (or lost) during migration shows up here.
    ///
    /// Also checks the wheel's bookkeeping: every wheel entry is live and
    /// records its own slot and position, a slot is marked occupied exactly
    /// when it is non-empty, and the overflow heap holds only later blocks.
    fn accounted_live(cal: &Calendar<u64>) -> usize {
        let is_live = |idx: u32| {
            let e = &cal.slab[idx as usize];
            !e.cancelled && e.payload.is_some()
        };
        let mut wheel = 0;
        for (level, lvl) in cal.levels.iter().enumerate() {
            for (s, slot) in lvl.slots.iter().enumerate() {
                assert_eq!(
                    lvl.occupied(s),
                    !slot.is_empty(),
                    "occupancy of {level}/{s}"
                );
                for (pos, &idx) in slot.iter().enumerate() {
                    let e = &cal.slab[idx as usize];
                    assert!(is_live(idx), "dead entry {idx} in wheel slot {level}/{s}");
                    assert_eq!((e.slot, e.pos), ((level * SLOTS + s) as u32, pos as u32));
                    wheel += 1;
                }
            }
        }
        let top = LEVELS - 1;
        assert!(cal
            .overflow
            .iter()
            .all(|&(Reverse((at, _)), _)| block_of(at, top) > block_of(cal.base, top)));
        let heap = cal.overflow.iter().filter(|&&(_, i)| is_live(i)).count();
        let ready = cal.ready.iter().filter(|&&i| is_live(i)).count();
        wheel + heap + ready
    }

    #[test]
    fn live_count_matches_container_breakdown_through_migration() {
        // Drive entries through every container transition — schedule into
        // ready/wheel/overflow, cancel tombstones, pop across window and
        // block boundaries — asserting after each step that the live count
        // equals the per-container breakdown (no event counted twice as it
        // migrates between the heap, the wheel, and the ready batch).
        let mut cal = Calendar::new();
        let mut model_live = 0usize;
        let mut model_peak = 0usize;
        let mut tokens = Vec::new();
        let mut state = 0x9e37_79b9_97f4_a7c5u64; // deterministic LCG
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..400u64 {
            let r = next();
            match r % 5 {
                // near future: wheel level 0/1
                0 | 1 => {
                    let at = cal.now() + SimDuration::from_nanos(1 + next() % 500_000);
                    tokens.push(cal.schedule(at, round));
                    model_live += 1;
                }
                // far future: overflow heap
                2 => {
                    let at = cal.now() + SimDuration::from_secs(7200 + next() % 100);
                    tokens.push(cal.schedule(at, round));
                    model_live += 1;
                }
                // cancel a random outstanding token
                3 if !tokens.is_empty() => {
                    let tok = tokens.swap_remove((next() as usize) % tokens.len());
                    if cal.cancel(tok) {
                        model_live -= 1;
                    }
                }
                _ => {
                    if cal.pop().is_some() {
                        model_live -= 1;
                    }
                }
            }
            model_peak = model_peak.max(model_live);
            assert_eq!(cal.len(), model_live, "live drifted at round {round}");
            assert_eq!(
                accounted_live(&cal),
                model_live,
                "container breakdown drifted at round {round}"
            );
            assert_eq!(cal.high_water(), model_peak, "high water at round {round}");
        }
        while cal.pop().is_some() {}
        assert_eq!(cal.len(), 0);
        assert_eq!(accounted_live(&cal), 0);
        assert_eq!(cal.high_water(), model_peak);
    }

    #[test]
    fn reschedule_moves_entries_from_every_container() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(1), 0);
        cal.pop(); // base now past nanos(1..1024): later schedules there land in ready
        let ready = cal.schedule(SimTime::from_nanos(5), 1);
        let wheel = cal.schedule(SimTime::from_micros(300), 2);
        let over = cal.schedule(SimTime::from_secs(7200), 3);
        let none = EventToken::NONE;
        assert!(!cal.cancel(none), "NONE names no event");
        let slot_of_entry = |cal: &Calendar<u64>, t: EventToken| cal.slab[t.idx()].slot;
        assert_eq!(slot_of_entry(&cal, ready), NO_SLOT);
        assert_ne!(slot_of_entry(&cal, wheel), NO_SLOT);
        assert_eq!(slot_of_entry(&cal, over), NO_SLOT);

        // A wheel entry moves in place: same index, next generation.
        let moved = cal.reschedule(wheel, SimTime::from_nanos(7), 20);
        assert_eq!(moved.idx(), wheel.idx());
        assert_eq!(moved.gen(), wheel.gen().wrapping_add(1));
        assert!(!cal.cancel(wheel), "the old token went stale");
        // Ready and overflow entries leave a tombstone and re-allocate.
        let from_ready = cal.reschedule(ready, SimTime::from_micros(900), 10);
        let from_over = cal.reschedule(over, SimTime::from_nanos(6), 30);
        let from_none = cal.reschedule(none, SimTime::from_secs(7300), 40);
        assert!(!cal.cancel(ready) && !cal.cancel(over));
        assert_eq!(cal.len(), 4);
        assert_eq!(accounted_live(&cal), 4);
        assert_eq!(
            cal.high_water(),
            4,
            "a reschedule never adds a pending event"
        );
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![30, 20, 10, 40]);
        assert!(!cal.cancel(from_ready) && !cal.cancel(from_over) && !cal.cancel(from_none));
    }

    #[test]
    fn dead_overflow_capacity_is_released_after_migration() {
        // Regression: a one-shot far-future burst parks thousands of entries
        // in the overflow heap; as the wheel advances they migrate out, but
        // the heap's peak capacity used to be charged by `footprint_bytes`
        // forever — double-counting the migrated entries (their live storage
        // plus the dead heap allocation).
        let mut cal = Calendar::new();
        for i in 0..5000u64 {
            cal.schedule(SimTime::from_secs(7200 + i), i);
        }
        let parked = cal.footprint_bytes();
        while cal.pop().is_some() {}
        assert_eq!(cal.len(), 0);
        assert_eq!(accounted_live(&cal), 0);
        let heap_share = 5000 * std::mem::size_of::<(Reverse<(u64, u64)>, u32)>();
        let after = cal.footprint_bytes();
        assert!(
            after + heap_share <= parked,
            "footprint {after} still charges the drained overflow heap (peak {parked})"
        );
    }

    #[test]
    fn far_future_then_near_schedules_interleave() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3600), 'z'); // overflow horizon
        cal.schedule(SimTime::from_nanos(50), 'a');
        assert_eq!(cal.pop().unwrap().1, 'a');
        // After popping, schedule inside the already-drained window.
        cal.schedule(SimTime::from_nanos(60), 'b');
        assert_eq!(cal.pop().unwrap().1, 'b');
        assert_eq!(cal.pop().unwrap().1, 'z');
        assert_eq!(cal.pop(), None);
    }

    /// A calendar mid-simulation: events in ready, wheel slots at several
    /// levels, the overflow heap, plus tombstones and recycled slots.
    fn busy_calendar() -> (Calendar<u64>, Vec<EventToken>) {
        let mut cal = Calendar::new();
        let mut tokens = Vec::new();
        cal.schedule(SimTime::from_nanos(1), 0);
        cal.pop(); // advance base so late schedules land in ready
        for i in 0..200u64 {
            let at = SimTime::from_nanos(3 + i * 7919); // spans several slots
            tokens.push(cal.schedule(at, i));
        }
        cal.schedule(SimTime::from_micros(800), 900); // higher wheel level
        cal.schedule(SimTime::from_secs(7200), 901); // overflow heap
        cal.schedule(SimTime::from_nanos(2), 902); // ready (before base)
        for i in (0..200).step_by(3) {
            assert!(cal.cancel(tokens[i]), "tombstone setup");
        }
        for _ in 0..25 {
            cal.pop(); // recycle some slots, bump generations
        }
        (cal, tokens)
    }

    #[test]
    fn snapshot_round_trip_replays_identical_event_sequence() {
        let (cal, _) = busy_calendar();
        let (mut original, _) = busy_calendar();
        let mut w = crate::snap::SnapWriter::new();
        cal.save(&mut w);
        let bytes = w.finish();
        let mut r = crate::snap::SnapReader::new(&bytes).expect("valid snapshot");
        let mut restored = Calendar::<u64>::load(&mut r).expect("loads");
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.high_water(), original.high_water());
        let a: Vec<_> = std::iter::from_fn(|| original.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b, "restored calendar must replay the exact sequence");
    }

    #[test]
    fn snapshot_keeps_outstanding_tokens_valid() {
        let (cal, tokens) = busy_calendar();
        let (mut original, orig_tokens) = busy_calendar();
        let mut w = crate::snap::SnapWriter::new();
        cal.save(&mut w);
        let bytes = w.finish();
        let mut r = crate::snap::SnapReader::new(&bytes).expect("valid snapshot");
        let mut restored = Calendar::<u64>::load(&mut r).expect("loads");
        // Cancel the same token set on both sides; results must agree (some
        // are live, some already fired or were cancelled before snapshot).
        for (t, o) in tokens.iter().zip(orig_tokens.iter()) {
            assert_eq!(restored.cancel(*t), original.cancel(*o));
        }
        let a: Vec<_> = std::iter::from_fn(|| original.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_of_restored_calendar_is_byte_identical() {
        let (cal, _) = busy_calendar();
        let mut w = crate::snap::SnapWriter::new();
        cal.save(&mut w);
        let first = w.finish();
        let mut r = crate::snap::SnapReader::new(&first).expect("valid");
        let restored = Calendar::<u64>::load(&mut r).expect("loads");
        let mut w2 = crate::snap::SnapWriter::new();
        restored.save(&mut w2);
        assert_eq!(w2.finish(), first, "snapshot→load→snapshot must be stable");
    }

    #[test]
    fn corrupt_ready_index_is_rejected() {
        let (cal, _) = busy_calendar();
        let mut w = crate::snap::SnapWriter::new();
        cal.save(&mut w);
        // Append a bogus trailing ready index by re-writing with a bad list:
        // simplest corruption that passes the checksum is a hand-built
        // buffer, so write one directly.
        let mut w = crate::snap::SnapWriter::new();
        w.section("calendar");
        w.u64(0); // now
        w.u64(0); // base
        w.u64(1); // next_seq
        w.usize(1); // live
        w.usize(1); // high_water
        w.usize(0); // empty slab …
        Vec::<u32>::new().save(&mut w);
        vec![7u32].save(&mut w); // … but ready names entry 7
        let bytes = w.finish();
        let mut r = crate::snap::SnapReader::new(&bytes).expect("envelope ok");
        match Calendar::<u64>::load(&mut r) {
            Err(crate::snap::SnapError::Corrupt(msg)) => {
                assert!(msg.contains("out of range"), "got: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
