//! Property tests: the timer-wheel `Calendar` against a naive reference
//! model (a sorted list popped from the front).
//!
//! Whatever interleaving of schedule / cancel / reschedule / pop runs, the
//! wheel must produce exactly the model's pop order — including
//! same-instant FIFO tie-breaking and cancel semantics — and agree on
//! `len`, `high_water` and `peek_time`. `reschedule` must behave exactly
//! like `cancel` followed by `schedule`, down to the snapshot bytes. A
//! calendar restored from a snapshot mid-sequence must stay byte-identical
//! to the live one through any further operations.

use proptest::prelude::*;
use proptest::strategy::Just;
use simcore::{Calendar, EventToken, SimDuration, SimTime, Snap, SnapReader, SnapWriter};

/// Reference model: (at, seq, payload) triples, popped in (at, seq) order.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u32)>,
    next_seq: u64,
    now: u64,
    high_water: usize,
}

impl Model {
    fn schedule(&mut self, at: u64, payload: u32) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
        self.high_water = self.high_water.max(self.pending.len());
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.pending.remove(i);
        self.now = at;
        Some((at, payload))
    }
    fn peek(&self) -> Option<u64> {
        self.pending.iter().map(|&(at, ..)| at).min()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule `delta` ns after the current clock (spans all wheel levels
    /// and the overflow heap).
    Schedule {
        delta: u64,
    },
    /// Cancel the `nth` still-remembered token (may already have fired).
    Cancel {
        nth: usize,
    },
    /// Move the `nth` remembered token's event to `delta` ns after the
    /// clock (a plain schedule if it already fired or was cancelled).
    Reschedule {
        nth: usize,
        delta: u64,
    },
    Pop,
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Long deltas span all wheel levels and the overflow heap.
        (0u64..=1 << 44).prop_map(|delta| Op::Schedule { delta }),
        // Near-future deltas (repeated to bias the mix) make FIFO ties and
        // slot collisions actually happen.
        (0u64..=1 << 14).prop_map(|delta| Op::Schedule { delta }),
        (0u64..=1 << 14).prop_map(|delta| Op::Schedule { delta }),
        any::<usize>().prop_map(|nth| Op::Cancel { nth }),
        // Near-future reschedules keep entries in `ready` and the low
        // wheel levels; long ones move them to and from the overflow heap.
        (any::<usize>(), 0u64..=1 << 14).prop_map(|(nth, delta)| Op::Reschedule { nth, delta }),
        (any::<usize>(), 0u64..=1 << 44).prop_map(|(nth, delta)| Op::Reschedule { nth, delta }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut cal: Calendar<u32> = Calendar::new();
        let mut model = Model::default();
        let mut tokens: Vec<(EventToken, u64)> = Vec::new();
        let mut payload = 0u32;

        for op in ops {
            match op {
                Op::Schedule { delta } => {
                    let at = model.now.saturating_add(delta);
                    payload += 1;
                    let tok = cal.schedule(SimTime::from_nanos(at), payload);
                    let seq = model.schedule(at, payload);
                    tokens.push((tok, seq));
                }
                Op::Cancel { nth } => {
                    if !tokens.is_empty() {
                        let (tok, seq) = tokens[nth % tokens.len()];
                        prop_assert_eq!(cal.cancel(tok), model.cancel(seq));
                    }
                }
                Op::Reschedule { nth, delta } => {
                    if !tokens.is_empty() {
                        let i = nth % tokens.len();
                        let (tok, seq) = tokens[i];
                        let at = model.now.saturating_add(delta);
                        payload += 1;
                        model.cancel(seq);
                        let seq = model.schedule(at, payload);
                        tokens[i] = (cal.reschedule(tok, SimTime::from_nanos(at), payload), seq);
                    }
                }
                Op::Pop => {
                    let got = cal.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, model.pop());
                }
                Op::Peek => {
                    prop_assert_eq!(cal.peek_time().map(SimTime::as_nanos), model.peek());
                }
            }
            prop_assert_eq!(cal.len(), model.pending.len());
            prop_assert_eq!(cal.high_water(), model.high_water);
        }

        // Drain: the full remaining order must match.
        loop {
            let got = cal.pop().map(|(t, p)| (t.as_nanos(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reschedule_is_cancel_then_schedule(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // The same ops on two calendars, one rescheduling in place and one
        // spelling each reschedule out as cancel + schedule: they must
        // agree on every observation, on `len` and `high_water`, on the
        // returned tokens, and on the snapshot bytes after every step.
        let mut fast: Calendar<u32> = Calendar::new();
        let mut slow: Calendar<u32> = Calendar::new();
        let (mut fast_tokens, mut slow_tokens) = (Vec::new(), Vec::new());
        let (mut fast_payload, mut slow_payload) = (0u32, 0u32);
        for op in &ops {
            let got = apply(&mut fast, &mut fast_tokens, &mut fast_payload, op);
            let want = match *op {
                Op::Reschedule { nth, delta } if !slow_tokens.is_empty() => {
                    slow_payload += 1;
                    let at = slow.now().as_nanos().saturating_add(delta);
                    let i = nth % slow_tokens.len();
                    slow.cancel(slow_tokens[i]);
                    slow_tokens[i] = slow.schedule(SimTime::from_nanos(at), slow_payload);
                    None
                }
                _ => apply(&mut slow, &mut slow_tokens, &mut slow_payload, op),
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(&fast_tokens, &slow_tokens);
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.high_water(), slow.high_water());
            prop_assert_eq!(snapshot(&fast), snapshot(&slow));
        }
        let a: Vec<_> = std::iter::from_fn(|| fast.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| slow.pop()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn same_instant_bursts_pop_fifo(
        bursts in proptest::collection::vec((0u64..1 << 20, 1usize..20), 1..30)
    ) {
        // Many events at each of a handful of instants: pops must come back
        // grouped by time, FIFO within each group.
        let mut cal: Calendar<u32> = Calendar::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut payload = 0u32;
        for (at, count) in bursts {
            for _ in 0..count {
                payload += 1;
                cal.schedule(SimTime::from_nanos(at), payload);
                expected.push((at, payload));
            }
        }
        expected.sort_by_key(|&(at, p)| (at, p)); // payload order == insertion order
        let drained: Vec<(u64, u32)> =
            std::iter::from_fn(|| cal.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn restored_calendar_stays_byte_identical_to_the_live_one(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        split in any::<usize>(),
    ) {
        // Snapshot at a random point, then drive the live calendar and the
        // restored one through the same remaining ops. Slab reuse must not
        // depend on anything the snapshot drops (such as the order of
        // entries within a wheel slot), so every later snapshot matches.
        let split = split % (ops.len() + 1);
        let mut live: Calendar<u32> = Calendar::new();
        let mut tokens: Vec<EventToken> = Vec::new();
        let mut payload = 0u32;
        for op in &ops[..split] {
            apply(&mut live, &mut tokens, &mut payload, op);
        }
        let mut restored = Calendar::<u32>::load(
            &mut SnapReader::new(&snapshot(&live)).expect("valid envelope"),
        )
        .expect("loads");
        for op in &ops[split..] {
            let mut twin_tokens = tokens.clone();
            let mut twin_payload = payload;
            let got = apply(&mut restored, &mut twin_tokens, &mut twin_payload, op);
            let want = apply(&mut live, &mut tokens, &mut payload, op);
            prop_assert_eq!(got, want);
            prop_assert_eq!(&twin_tokens, &tokens);
        }
        prop_assert_eq!(snapshot(&restored), snapshot(&live));
    }
}

/// Applies `op` to `cal`, returning what it observed (a pop, a peek or a
/// cancel result) so two calendars can be compared op by op.
fn apply(
    cal: &mut Calendar<u32>,
    tokens: &mut Vec<EventToken>,
    payload: &mut u32,
    op: &Op,
) -> Option<(u64, u32)> {
    match *op {
        Op::Schedule { delta } => {
            *payload += 1;
            let at = cal.now().as_nanos().saturating_add(delta);
            tokens.push(cal.schedule(SimTime::from_nanos(at), *payload));
            None
        }
        Op::Cancel { nth } if !tokens.is_empty() => {
            let tok = tokens[nth % tokens.len()];
            Some((u64::from(cal.cancel(tok)), 0))
        }
        Op::Cancel { .. } => None,
        Op::Reschedule { nth, delta } if !tokens.is_empty() => {
            *payload += 1;
            let at = cal.now().as_nanos().saturating_add(delta);
            let i = nth % tokens.len();
            tokens[i] = cal.reschedule(tokens[i], SimTime::from_nanos(at), *payload);
            None
        }
        Op::Reschedule { .. } => None,
        Op::Pop => cal.pop().map(|(t, p)| (t.as_nanos(), p)),
        Op::Peek => cal.peek_time().map(|t| (t.as_nanos(), 0)),
    }
}

fn snapshot(cal: &Calendar<u32>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cal.save(&mut w);
    w.finish()
}

#[test]
fn reschedule_churn_keeps_the_snapshot_flat() {
    // The engine's re-rate pattern at constant live count: every round
    // schedules a near event and a far one, cancels the far one and pops
    // the near one. Cancelled entries must not pile up anywhere, so the
    // snapshot (slab, free list and ready batch) stops growing once the
    // slab has reached its peak.
    let mut cal: Calendar<u32> = Calendar::new();
    for i in 0..16 {
        cal.schedule(SimTime::from_secs(3600 + i), i as u32); // ballast, never popped
    }
    cal.schedule(SimTime::from_micros(2), 0);
    let mut flat = None;
    for round in 0..100_000u32 {
        let now = cal.now();
        cal.schedule(now + SimDuration::from_micros(2), round);
        let far = cal.schedule(now + SimDuration::from_secs(10), round);
        assert!(cal.cancel(far));
        assert!(cal.pop().is_some());
        assert_eq!(cal.len(), 17);
        if round % 1000 == 999 {
            let len = snapshot(&cal).len();
            assert_eq!(
                *flat.get_or_insert(len),
                len,
                "snapshot grew by round {round}"
            );
        }
    }
}

#[test]
fn older_snapshot_with_a_wheel_tombstone_loads_and_pops_the_live_events() {
    // Builds that left cancelled entries in wheel slots wrote them as
    // pending entries with `cancelled` set. Such a snapshot must still load
    // (the tombstone stays out of the wheel) and pop exactly its live
    // events, here around a wheel tombstone and an overflow tombstone.
    let far = 1u64 << 43; // beyond the first top-level wheel block
    let slab: [(u64, bool, Option<u32>); 5] = [
        (100, false, Some(10)),
        (50, true, None), // wheel tombstone
        (200, false, Some(20)),
        (far, true, None), // overflow tombstone
        (far + 1, false, Some(40)),
    ];
    let mut w = SnapWriter::new();
    w.section("calendar");
    w.u64(0); // now
    w.u64(0); // base
    w.u64(slab.len() as u64); // next_seq
    w.usize(3); // live
    w.usize(slab.len()); // high_water
    w.usize(slab.len());
    for (seq, &(at, cancelled, payload)) in slab.iter().enumerate() {
        w.u64(at);
        w.u64(seq as u64);
        w.u32(0); // gen
        w.bool(cancelled);
        payload.save(&mut w);
    }
    w.u32s(&[]); // free
    w.u32s(&[]); // ready
    let bytes = w.finish();
    let mut cal = Calendar::<u32>::load(&mut SnapReader::new(&bytes).expect("valid envelope"))
        .expect("an older snapshot with a wheel tombstone loads");
    assert_eq!(cal.len(), 3);
    // The reloaded calendar round-trips, and both pop the same live events.
    let mut again =
        Calendar::<u32>::load(&mut SnapReader::new(&snapshot(&cal)).expect("valid envelope"))
            .expect("reloads");
    let want = vec![(100, 10), (200, 20), (far + 1, 40)];
    for c in [&mut cal, &mut again] {
        let got: Vec<(u64, u32)> =
            std::iter::from_fn(|| c.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        assert_eq!(got, want);
    }
}
