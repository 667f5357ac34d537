//! Property tests for the event queue's determinism contract:
//! equal-timestamp entries pop in insertion order, whether they were
//! scheduled one by one, in batches, or in FIFO lanes.

use proptest::prelude::*;

use uasn_sim::event::EventQueue;
use uasn_sim::time::SimTime;

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
    /// `(time, payload)` sequence, and reports the same `len`, `peek_time`
    /// and `is_empty` after every call, as a heap-only queue fed the same
    /// calls through `schedule`.
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
                _ => prop_assert_eq!(laned.pop(), reference.pop()),
            }
            prop_assert_eq!(laned.len(), reference.len());
            prop_assert_eq!(laned.peek_time(), reference.peek_time());
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
