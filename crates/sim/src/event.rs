//! Event queue for the discrete-event kernel.
//!
//! The queue is a binary min-heap keyed on `(time, sequence)`. The sequence
//! number is a monotonically increasing tiebreaker so that events scheduled
//! at the same instant pop in **insertion order** — the property that makes
//! whole-network runs bit-for-bit reproducible across platforms regardless of
//! `BinaryHeap`'s internal (unstable) ordering of equal keys. Both components
//! are packed into one `u128` (`time << 64 | sequence`), so heap sift
//! comparisons are a single integer compare instead of two chained ones.
//!
//! Every scheduled event fires: the queue has no cancellation. A caller that
//! needs to take an event back (the network layer's MAC timers) tags it and
//! ignores it when it pops stale.
//!
//! Besides the heap the queue keeps numbered **FIFO lanes**
//! ([`EventQueue::schedule_in_lane`]): plain `VecDeque`s of the same packed
//! keys, for event streams whose times never decrease — a fixed delay added
//! to a non-decreasing clock, such as the transport's per-attempt timeouts.
//! A lane push and pop are O(1) where the heap's are O(log n), and the
//! events in lanes do not deepen the heap. Lanes draw their sequence numbers
//! from the heap's counter and a pop takes the smallest key over the heap
//! top and every lane front, so the popped `(time, seq)` sequence is exactly
//! the one a heap-only queue fed the same calls would produce.
//!
//! The run loop pops through [`EventQueue::pop_before`], which finds the
//! next key once and pops it only if it lies before the horizon: one scan
//! of the lane fronts per event instead of a peek followed by a pop.
//!
//! The queue remembers the key it popped last ([`EventQueue::last_key`]),
//! and [`EventQueue::scheduled_count`] is the sequence number the next
//! schedule takes. Together they let a caller place a moment it never
//! queued among the events: one that would have been pushed at time `t`
//! just before the event that took sequence number `s` pops before exactly
//! the keys at or above [`pack_key`]`(t, s)`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Packs `(time, seq)` into the queue's one-compare ordering key:
/// `time` in microseconds in the high 64 bits, `seq` in the low.
pub fn pack_key(time: SimTime, seq: u64) -> u128 {
    (time.as_micros() as u128) << 64 | seq as u128
}

/// Heap entry: the packed ordering key plus the payload.
#[derive(Debug)]
struct Entry<E> {
    /// `time.as_micros() << 64 | seq` — min-heap order in one compare.
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_micros((self.key >> 64) as u64)
    }
}

// Min-heap ordering: BinaryHeap is a max-heap, so reverse the comparison.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

/// A deterministic future-event list.
///
/// `E` is the caller's event payload type. Events at equal times are
/// delivered in the order they were scheduled.
///
/// # Examples
///
/// ```
/// use uasn_sim::event::EventQueue;
/// use uasn_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c");
///
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// FIFO lanes, indexed by lane number; each holds non-decreasing keys.
    lanes: Vec<VecDeque<Entry<E>>>,
    /// Events queued across all lanes.
    in_lanes: usize,
    next_seq: u64,
    /// Key of the most recently popped event (0 before the first pop); its
    /// time is the watermark, which schedules may never precede.
    last_key: u128,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the watermark at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` simultaneously
    /// pending events, so steady-state push/pop never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lanes: Vec::new(),
            in_lanes: 0,
            next_seq: 0,
            last_key: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the time of the last event popped — the
    /// simulation cannot schedule into its own past.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// Schedules `payload` at `time` in FIFO lane `lane` (lanes are created
    /// on first use). Pops see no difference from
    /// [`schedule`](Self::schedule): the event takes the next sequence number
    /// and fires in `(time, seq)` order among all queued events.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the watermark, or precedes the time of the
    /// last event scheduled in the same lane.
    pub fn schedule_in_lane(&mut self, lane: usize, time: SimTime, payload: E) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let entry = self.entry(time, payload);
        let fifo = &mut self.lanes[lane];
        if let Some(last) = fifo.back() {
            assert!(
                time >= last.time(),
                "lane {lane}: event at {time} precedes the lane's last event at {}",
                last.time()
            );
        }
        fifo.push_back(entry);
        self.in_lanes += 1;
    }

    /// Checks `time` against the watermark and packs it with the next
    /// sequence number.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        assert!(
            time >= self.watermark(),
            "cannot schedule event at {time} before current time {}",
            self.watermark()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry {
            key: pack_key(time, seq),
            payload,
        }
    }

    /// Schedules every `(time, payload)` pair in iteration order.
    ///
    /// Semantically identical to calling [`schedule`](Self::schedule) once
    /// per pair — sequence numbers are handed out in iteration order, so
    /// equal-time events pop in exactly the order the batch listed them —
    /// but reserves heap space up front from the iterator's size hint.
    ///
    /// # Panics
    ///
    /// Panics if any pair's time precedes the watermark.
    pub fn schedule_all<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let events = events.into_iter();
        self.heap.reserve(events.size_hint().0);
        for (time, payload) in events {
            self.schedule(time, payload);
        }
    }

    /// Removes and returns the next event as `(time, payload)`.
    ///
    /// Returns `None` when the queue is empty. Advances the watermark to the
    /// popped event's time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_below(u128::MAX)
    }

    /// Removes and returns the next event if it fires strictly before
    /// `horizon`; `None` when the queue is empty or its next event lies at
    /// or beyond `horizon`, which then stays queued. Tell the two apart
    /// with [`is_empty`](Self::is_empty). Advances the watermark to the
    /// popped event's time.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.pop_below(pack_key(horizon, 0))
    }

    /// Pops the smallest key if it is below `limit`.
    fn pop_below(&mut self, limit: u128) -> Option<(SimTime, E)> {
        let (key, lane) = self.next_key()?;
        if key >= limit {
            return None;
        }
        let entry = match lane {
            Some(lane) => {
                self.in_lanes -= 1;
                self.lanes[lane].pop_front()
            }
            None => self.heap.pop(),
        }
        .expect("the smallest key is queued");
        self.last_key = key;
        Some((entry.time(), entry.payload))
    }

    /// The smallest queued key and the lane holding it (`None`: the heap
    /// top); `None` when nothing is queued.
    fn next_key(&self) -> Option<(u128, Option<usize>)> {
        let mut best = self.heap.peek().map(|e| (e.key, None));
        for (i, fifo) in self.lanes.iter().enumerate() {
            if let Some(front) = fifo.front() {
                if best.is_none_or(|(key, _)| front.key < key) {
                    best = Some((front.key, Some(i)));
                }
            }
        }
        best
    }

    /// Number of events still queued, lanes included, counting any the
    /// caller will find stale when they pop.
    pub fn len(&self) -> usize {
        self.heap.len() + self.in_lanes
    }

    /// Whether no events remain, in the heap or any lane.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.in_lanes == 0
    }

    /// The time of the most recently popped event.
    pub fn watermark(&self) -> SimTime {
        SimTime::from_micros((self.last_key >> 64) as u64)
    }

    /// The packed [`pack_key`] of the most recently popped event; 0 before
    /// the first pop. Popped keys strictly increase.
    pub fn last_key(&self) -> u128 {
        self.last_key
    }

    /// Total events ever scheduled (pending and fired): also the sequence
    /// number the next schedule takes.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    fn scheduling_at_current_time_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.pop();
        // Zero-delay follow-up events are a normal DES idiom.
        q.schedule(SimTime::from_secs(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)));
    }

    #[test]
    fn watermark_tracks_progress() {
        let mut q = EventQueue::new();
        assert_eq!(q.watermark(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(9), ());
        q.pop();
        assert_eq!(q.watermark(), SimTime::from_secs(9));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        // Simulates event handlers scheduling follow-ups; ordering must stay
        // reproducible.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let mut fired = Vec::new();
        while let Some((t, e)) = q.pop() {
            fired.push(e);
            if e < 5 {
                q.schedule(t + crate::time::SimDuration::from_secs(1), e + 1);
                q.schedule(t + crate::time::SimDuration::from_secs(1), e + 100);
            }
        }
        assert_eq!(fired, [1, 2, 101, 3, 102, 4, 103, 5, 104]);
    }
}
