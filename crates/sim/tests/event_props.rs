//! Property tests for the event queue's determinism contract:
//! equal-timestamp entries pop in insertion order, whether they were
//! scheduled one by one, in batches, or in FIFO lanes; and the engine's
//! handle reports each event's key and each push's seq.

use proptest::prelude::*;

use uasn_sim::engine::{Engine, Schedule, World};
use uasn_sim::event::{pack_key, EventQueue};
use uasn_sim::time::{SimDuration, SimTime};

proptest! {
    /// FIFO tie-break: popping replays a stable sort by (time, insertion).
    #[test]
    fn equal_time_entries_pop_in_insertion_order(
        times in proptest::collection::vec(0u64..6, 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        // A stable sort by time alone is exactly the queue's contract:
        // time-ordered, insertion-ordered within a time.
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_micros(), i));
        }
        prop_assert_eq!(popped, expected);
    }

    /// `schedule_all` is semantically repeated `schedule` calls: a batch
    /// interleaved with singleton pushes preserves equal-time FIFO order
    /// exactly as if every event had been scheduled one by one.
    #[test]
    fn batch_push_preserves_equal_time_fifo(
        prefix in proptest::collection::vec(0u64..6, 0..30),
        batch in proptest::collection::vec(0u64..6, 0..60),
        suffix in proptest::collection::vec(0u64..6, 0..30),
    ) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for &t in &prefix {
            q.schedule(SimTime::from_micros(t), idx);
            expected.push((t, idx));
            idx += 1;
        }
        let batch_events: Vec<(SimTime, usize)> = batch
            .iter()
            .map(|&t| {
                let e = (SimTime::from_micros(t), idx);
                expected.push((t, idx));
                idx += 1;
                e
            })
            .collect();
        q.schedule_all(batch_events);
        for &t in &suffix {
            q.schedule(SimTime::from_micros(t), idx);
            expected.push((t, idx));
            idx += 1;
        }
        prop_assert_eq!(q.len(), expected.len());
        // Stable sort by time = the queue's contract: time-ordered,
        // insertion-ordered within a time — batch boundaries invisible.
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_micros(), i));
        }
        prop_assert_eq!(popped, expected);
    }
}

/// Lanes the differential property spreads its lane schedules over.
const LANES: usize = 4;

proptest! {
    /// FIFO lanes are invisible in the pop order: a queue that takes some
    /// schedules in lanes (each lane's times non-decreasing) pops the same
    /// `(time, payload)` sequence, stops at the same horizons, and reports
    /// the same `len` and `is_empty` after every call, as a heap-only queue
    /// fed the same calls through `schedule`.
    #[test]
    fn lanes_match_a_heap_only_queue(
        ops in proptest::collection::vec((0u8..8, 0..LANES, 0u64..4), 1..200),
    ) {
        let mut laned = EventQueue::new();
        let mut reference = EventQueue::new();
        let mut lane_last = [SimTime::ZERO; LANES];
        for (payload, &(kind, lane, delta)) in ops.iter().enumerate() {
            match kind {
                // Heap schedule, anywhere at or after the watermark.
                0..=2 => {
                    let t = SimTime::from_micros(laned.watermark().as_micros() + delta);
                    laned.schedule(t, payload);
                    reference.schedule(t, payload);
                }
                // Lane schedule, at or after both the lane's last time and
                // the watermark.
                3..=5 => {
                    let floor = lane_last[lane].max(laned.watermark());
                    let t = SimTime::from_micros(floor.as_micros() + delta);
                    lane_last[lane] = t;
                    laned.schedule_in_lane(lane, t, payload);
                    reference.schedule(t, payload);
                }
                // Pop before a horizon at most a few µs past the watermark.
                _ => {
                    let horizon = SimTime::from_micros(laned.watermark().as_micros() + delta);
                    prop_assert_eq!(laned.pop_before(horizon), reference.pop_before(horizon));
                }
            }
            prop_assert_eq!(laned.len(), reference.len());
            prop_assert_eq!(laned.is_empty(), reference.is_empty());
        }
        while let Some(next) = reference.pop() {
            prop_assert_eq!(laned.pop(), Some(next));
            prop_assert_eq!(laned.len(), reference.len());
        }
        prop_assert!(laned.is_empty());
        prop_assert_eq!(laned.pop(), None);
        prop_assert_eq!(laned.scheduled_count(), reference.scheduled_count());
    }

    /// `pop_before` is peek-then-pop in one call: against a brute-force
    /// queue that peeks the earliest (time, insertion) entry and pops it
    /// only when it lies before the horizon, a queue with lanes in use pops
    /// the same `(time, payload)` sequence, stops at the same point, and
    /// keeps what it did not pop.
    #[test]
    fn pop_before_matches_peek_then_pop(
        ops in proptest::collection::vec((0u8..8, 0..LANES, 0u64..6), 1..200),
    ) {
        let mut queue = EventQueue::new();
        // Every queued `(time µs, payload)`, in schedule order.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut lane_last = [SimTime::ZERO; LANES];
        for (payload, &(kind, lane, delta)) in ops.iter().enumerate() {
            let watermark = queue.watermark().as_micros();
            match kind {
                0..=2 => {
                    queue.schedule(SimTime::from_micros(watermark + delta), payload);
                    model.push((watermark + delta, payload));
                }
                3..=5 => {
                    let t = lane_last[lane].as_micros().max(watermark) + delta;
                    lane_last[lane] = SimTime::from_micros(t);
                    queue.schedule_in_lane(lane, lane_last[lane], payload);
                    model.push((t, payload));
                }
                _ => {
                    let horizon = watermark + delta;
                    // Peek: the earliest time, first scheduled among equals.
                    let peeked = (0..model.len()).min_by_key(|&i| (model[i].0, i));
                    let expected = match peeked {
                        Some(i) if model[i].0 < horizon => {
                            let (t, p) = model.remove(i);
                            Some((SimTime::from_micros(t), p))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(queue.pop_before(SimTime::from_micros(horizon)), expected);
                    if expected.is_none() {
                        // The stop point: empty, or the next event is due
                        // at or past the horizon, and nothing moved.
                        prop_assert_eq!(queue.is_empty(), model.is_empty());
                        prop_assert_eq!(queue.watermark().as_micros(), watermark);
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
    }
}

/// A lane only takes non-decreasing times; going backwards is a bug in the
/// caller and must fail loudly in release builds too.
#[test]
#[should_panic(expected = "precedes the lane's last event")]
fn lane_time_going_backwards_panics() {
    let mut q = EventQueue::new();
    q.schedule_in_lane(2, SimTime::from_micros(10), 0);
    // Another lane and the heap may hold earlier times…
    q.schedule_in_lane(1, SimTime::from_micros(3), 1);
    q.schedule(SimTime::from_micros(1), 2);
    // …but lane 2 may not.
    q.schedule_in_lane(2, SimTime::from_micros(9), 3);
}

/// One scripted push: `(kind, lane, delay µs, batch length)`.
type Push = (u8, usize, u64, usize);

/// A world that, for every event it handles, checks the handle's key
/// against what the pushes announced, then makes the script's next two
/// pushes (heap, lane or batch), each announcing the seq it expects.
struct Scripted {
    script: Vec<Push>,
    next: usize,
    lane_last: [SimTime; LANES],
    /// The seq announced for each payload, indexed by payload.
    announced: Vec<u64>,
    last_key: Option<u128>,
    mismatches: Vec<String>,
}

impl World for Scripted {
    type Event = usize;

    fn handle(&mut self, now: SimTime, id: usize, sched: &mut Schedule<'_, usize>) {
        let key = sched.key();
        if self.last_key.is_some_and(|last| key <= last) {
            self.mismatches
                .push(format!("key {key:#x} after {:?}", self.last_key));
        }
        self.last_key = Some(key);
        if key != pack_key(now, self.announced[id]) {
            let seq = self.announced[id];
            self.mismatches
                .push(format!("{id}: key {key:#x}, announced ({now}, {seq})"));
        }
        for _ in 0..2 {
            let Some(&(kind, lane, delay, len)) = self.script.get(self.next) else {
                return;
            };
            self.next += 1;
            let at = now + SimDuration::from_micros(delay);
            match kind {
                0 => {
                    self.announced.push(sched.next_seq());
                    sched.at(at, self.announced.len() - 1);
                }
                1 => {
                    let at = at.max(self.lane_last[lane]);
                    self.lane_last[lane] = at;
                    self.announced.push(sched.next_seq());
                    sched.at_lane(lane, at, self.announced.len() - 1);
                }
                _ => {
                    let base = sched.next_seq();
                    let first = self.announced.len();
                    self.announced.extend((0..len as u64).map(|i| base + i));
                    let batch =
                        (0..len).map(|i| (at + SimDuration::from_micros(i as u64 % 3), first + i));
                    sched.at_batch(batch);
                }
            }
        }
    }
}

proptest! {
    /// The engine's key accessors, with lanes and batches in use: handled
    /// keys strictly increase in pop order, and each event pops with the
    /// seq `Schedule::next_seq` announced before its push (for a batch,
    /// before the batch, plus the item's index).
    #[test]
    fn schedule_keys_match_announced_seqs(
        script in proptest::collection::vec((0u8..3, 0..LANES, 0u64..4, 0usize..4), 1..120),
    ) {
        let mut world = Scripted {
            script,
            next: 0,
            lane_last: [SimTime::ZERO; LANES],
            announced: vec![0],
            last_key: None,
            mismatches: Vec::new(),
        };
        let mut engine = Engine::new();
        engine.seed_event(SimTime::ZERO, 0);
        engine.run(&mut world, SimTime::MAX);
        prop_assert!(world.mismatches.is_empty(), "{:?}", world.mismatches);
        prop_assert_eq!(Some(engine.last_key()), world.last_key);
        prop_assert_eq!(engine.processed() as usize, world.announced.len());
    }
}
