//! Property tests for the quiet schedule's in-place merge: any sequence of
//! `add` calls (touching, nested, overlapping, inverted and empty
//! intervals) with `prune` calls interleaved reads back the same as the
//! same sequence applied to the rebuild-and-sort merge it replaced, through
//! `is_quiet`, `overlaps`, `quiet_until` and `len`.

use proptest::prelude::*;

use uasn_net::quiet::QuietSchedule;
use uasn_sim::time::SimTime;

/// The reference: every `add` rebuilds the interval list, folding each
/// interval that overlaps or touches the new one into it, then sorts.
#[derive(Debug, Default)]
struct Rebuilt {
    intervals: Vec<(u64, u64)>,
}

impl Rebuilt {
    fn add(&mut self, from: u64, until: u64) {
        if until <= from {
            return;
        }
        let mut merged = (from, until);
        let mut out = Vec::with_capacity(self.intervals.len() + 1);
        for &(s, e) in &self.intervals {
            if e < merged.0 || s > merged.1 {
                out.push((s, e));
            } else {
                merged.0 = merged.0.min(s);
                merged.1 = merged.1.max(e);
            }
        }
        out.push(merged);
        out.sort();
        self.intervals = out;
    }

    fn prune(&mut self, now: u64) -> usize {
        let before = self.intervals.len();
        self.intervals.retain(|&(_, e)| e > now);
        before - self.intervals.len()
    }

    fn is_quiet(&self, t: u64) -> bool {
        self.intervals.iter().any(|&(s, e)| s <= t && t < e)
    }

    fn overlaps(&self, from: u64, until: u64) -> bool {
        from < until && self.intervals.iter().any(|&(s, e)| s < until && from < e)
    }

    fn quiet_until(&self, t: u64) -> Option<u64> {
        self.intervals
            .iter()
            .find(|&&(s, e)| s <= t && t < e)
            .map(|&(_, e)| e)
    }
}

fn at(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

proptest! {
    /// `op` 0–5 adds `[start, start + len)` (an empty one when `len` is
    /// 0), 6 adds the inverted `[start + len, start)`, 7 prunes at
    /// `start`. Short lengths over a narrow range make touching, nested
    /// and chained overlaps common. After every step the two schedules
    /// agree on `len` and on every probe of the three queries.
    #[test]
    fn in_place_add_matches_the_rebuild(
        ops in proptest::collection::vec((0u8..8, 0u64..120, 0u64..25), 1..80),
        probes in proptest::collection::vec((0u64..160, 0u64..30), 1..24),
    ) {
        let mut schedule = QuietSchedule::new();
        let mut reference = Rebuilt::default();
        for &(op, start, len) in &ops {
            match op {
                0..=5 => {
                    schedule.add(at(start), at(start + len));
                    reference.add(start, start + len);
                }
                6 => {
                    schedule.add(at(start + len), at(start));
                    reference.add(start + len, start);
                }
                _ => prop_assert_eq!(schedule.prune(at(start)), reference.prune(start)),
            }
            prop_assert_eq!(schedule.len(), reference.intervals.len());
            prop_assert_eq!(schedule.is_empty(), reference.intervals.is_empty());
            for &(t, width) in &probes {
                prop_assert_eq!(schedule.is_quiet(at(t)), reference.is_quiet(t));
                prop_assert_eq!(
                    schedule.overlaps(at(t), at(t + width)),
                    reference.overlaps(t, t + width)
                );
                prop_assert_eq!(
                    schedule.quiet_until(at(t)),
                    reference.quiet_until(t).map(at)
                );
            }
        }
    }
}
