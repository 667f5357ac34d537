//! The quiet schedule: when a sensor must hold its tongue.
//!
//! Figure 3's "Quiet" state: a sensor that overhears a neighbour negotiation
//! refrains from starting its own (slot-boundary) transmissions until the
//! negotiated exchange is over. The schedule is a set of merged half-open
//! intervals `[from, until)` over simulation time. Extra-communication
//! packets deliberately bypass it — they are the sanctioned use of exactly
//! these windows. Shared by every slotted protocol in the workspace.

use uasn_sim::time::SimTime;

/// A set of merged quiet intervals.
///
/// # Examples
///
/// ```
/// use uasn_net::quiet::QuietSchedule;
/// use uasn_sim::time::SimTime;
///
/// let mut q = QuietSchedule::new();
/// q.add(SimTime::from_secs(2), SimTime::from_secs(5));
/// assert!(!q.is_quiet(SimTime::from_secs(1)));
/// assert!(q.is_quiet(SimTime::from_secs(3)));
/// assert!(!q.is_quiet(SimTime::from_secs(5))); // half-open
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuietSchedule {
    /// Sorted, non-overlapping `[from, until)` intervals.
    intervals: Vec<(SimTime, SimTime)>,
}

impl QuietSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        QuietSchedule::default()
    }

    /// Adds a quiet interval `[from, until)`, merging overlapping and
    /// touching intervals, in place.
    ///
    /// Empty or inverted intervals are ignored.
    pub fn add(&mut self, from: SimTime, until: SimTime) {
        if until <= from {
            return;
        }
        // Stored intervals never touch, so both their starts and their
        // ends ascend, and the ones `[from, until)` meets are a contiguous
        // run: from the first that ends at or after `from` to the last
        // that starts at or before `until`.
        let lo = self.intervals.partition_point(|&(_, e)| e < from);
        let hi = self.intervals.partition_point(|&(s, _)| s <= until);
        if lo == hi {
            self.intervals.insert(lo, (from, until));
            return;
        }
        let merged = (
            from.min(self.intervals[lo].0),
            until.max(self.intervals[hi - 1].1),
        );
        self.intervals[lo] = merged;
        self.intervals.drain(lo + 1..hi);
    }

    /// Whether `t` falls in a quiet interval.
    pub fn is_quiet(&self, t: SimTime) -> bool {
        self.intervals.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// Whether any part of `[from, until)` is quiet.
    pub fn overlaps(&self, from: SimTime, until: SimTime) -> bool {
        if until <= from {
            return false;
        }
        self.intervals.iter().any(|&(s, e)| s < until && from < e)
    }

    /// The end of the quiet period covering `t`, if any.
    pub fn quiet_until(&self, t: SimTime) -> Option<SimTime> {
        self.intervals
            .iter()
            .find(|&&(s, e)| s <= t && t < e)
            .map(|&(_, e)| e)
    }

    /// Drops intervals that ended at or before `now`; returns how many were
    /// pruned.
    pub fn prune(&mut self, now: SimTime) -> usize {
        let before = self.intervals.len();
        self.intervals.retain(|&(_, e)| e > now);
        before - self.intervals.len()
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether no quiet intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_schedule_is_never_quiet() {
        let q = QuietSchedule::new();
        assert!(!q.is_quiet(t(0)));
        assert!(!q.overlaps(t(0), t(100)));
        assert!(q.is_empty());
    }

    #[test]
    fn single_interval_half_open() {
        let mut q = QuietSchedule::new();
        q.add(t(2), t(5));
        assert!(q.is_quiet(t(2)));
        assert!(q.is_quiet(t(4)));
        assert!(!q.is_quiet(t(5)));
        assert_eq!(q.quiet_until(t(3)), Some(t(5)));
        assert_eq!(q.quiet_until(t(5)), None);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut q = QuietSchedule::new();
        q.add(t(2), t(5));
        q.add(t(4), t(8));
        q.add(t(8), t(9)); // touching merges too
        assert_eq!(q.len(), 1);
        assert_eq!(q.quiet_until(t(2)), Some(t(9)));
    }

    #[test]
    fn disjoint_intervals_stay_separate() {
        let mut q = QuietSchedule::new();
        q.add(t(1), t(2));
        q.add(t(5), t(6));
        assert_eq!(q.len(), 2);
        assert!(!q.is_quiet(t(3)));
        assert!(q.overlaps(t(0), t(10)));
        assert!(!q.overlaps(t(2), t(5)));
        assert!(q.overlaps(t(1), t(2)));
    }

    #[test]
    fn inverted_and_empty_intervals_ignored() {
        let mut q = QuietSchedule::new();
        q.add(t(5), t(5));
        q.add(t(7), t(3));
        assert!(q.is_empty());
        assert!(!q.overlaps(t(5), t(5)));
    }

    #[test]
    fn prune_drops_finished_intervals() {
        let mut q = QuietSchedule::new();
        q.add(t(1), t(2));
        q.add(t(3), t(4));
        q.add(t(5), t(10));
        assert_eq!(q.prune(t(4)), 2);
        assert_eq!(q.len(), 1);
        assert!(q.is_quiet(t(6)));
    }

    #[test]
    fn merge_across_many() {
        let mut q = QuietSchedule::new();
        for s in (0..10).step_by(2) {
            q.add(t(s), t(s + 1));
        }
        assert_eq!(q.len(), 5);
        q.add(t(0), t(10));
        assert_eq!(q.len(), 1);
    }
}
