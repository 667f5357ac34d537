//! Property tests for the event queue's determinism contract:
//! equal-timestamp entries pop in insertion order, whether they were
//! scheduled one by one or in batches.

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
