//! Property-based tests for the simulation kernel: total ordering of time,
//! FIFO stability of the event queue, and statistical identities.

use proptest::prelude::*;

use uasn_sim::event::EventQueue;
use uasn_sim::hist::LogHistogram;
use uasn_sim::rng::SeedFactory;
use uasn_sim::stats::{Accumulator, Histogram, TimeWeighted};
use uasn_sim::time::{SimDuration, SimTime};

proptest! {
    #[test]
    fn time_addition_is_associative_and_monotone(
        base in 0u64..1_000_000_000,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let t = SimTime::from_micros(base);
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!((t + da) + db, (t + db) + da);
        prop_assert!(t + da >= t);
        prop_assert_eq!((t + da) - da, t);
        prop_assert_eq!((t + da).duration_since(t), da);
    }

    #[test]
    fn div_rem_reconstructs_duration(
        total in 1u64..10_000_000_000,
        slot in 1u64..2_000_000,
    ) {
        let d = SimDuration::from_micros(total);
        let s = SimDuration::from_micros(slot);
        let (q, r) = d.div_rem(s);
        prop_assert_eq!(s.saturating_mul(q) + r, d);
        prop_assert!(r < s);
        // div_ceil is div_rem's quotient rounded up.
        let ceil = d.div_ceil(s);
        prop_assert_eq!(ceil, if r.is_zero() { q } else { q + 1 });
    }

    #[test]
    fn event_queue_pops_sorted_and_fifo_within_ties(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_micros(t));
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn accumulator_merge_equals_sequential(
        left in proptest::collection::vec(-1e6f64..1e6, 0..50),
        right in proptest::collection::vec(-1e6f64..1e6, 0..50),
    ) {
        let mut whole = Accumulator::new();
        for &x in left.iter().chain(right.iter()) {
            whole.add(x);
        }
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &left { a.add(x); }
        for &x in &right { b.add(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((a.variance() - whole.variance()).abs() < 1e-3);
        }
    }

    #[test]
    fn histogram_total_conserved(samples in proptest::collection::vec(-10.0f64..20.0, 0..300)) {
        let mut h = Histogram::new(0.0, 10.0, 13);
        for &x in &samples {
            h.add(x);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let sum_bins: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(sum_bins, samples.len() as u64);
    }

    #[test]
    fn time_weighted_average_is_bounded_by_extremes(
        values in proptest::collection::vec(0.0f64..100.0, 1..30),
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, values[0]);
        let mut t = SimTime::ZERO;
        for (i, &v) in values.iter().enumerate().skip(1) {
            t = SimTime::from_secs(i as u64);
            tw.set(t, v);
        }
        let end = t + SimDuration::from_secs(1);
        let avg = tw.average(end);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");
    }

    #[test]
    fn log_histogram_merge_of_splits_equals_whole(
        values in proptest::collection::vec(0u64..100_000_000, 0..300),
        split in proptest::collection::vec(proptest::bool::ANY, 0..300),
    ) {
        let mut whole = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if *split.get(i).unwrap_or(&false) {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(left.count(), values.len() as u64);
        let bucket_total: u64 = whole.iter_nonzero().map(|(_, _, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
    }

    #[test]
    fn log_histogram_percentiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = h.quantile(0, 100).unwrap();
        for num in 1..=100u64 {
            let q = h.quantile(num, 100).unwrap();
            prop_assert!(q >= prev, "quantile not monotone at {num}%: {q} < {prev}");
            prev = q;
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(h.min(), Some(lo));
        prop_assert_eq!(h.max(), Some(hi));
        prop_assert!(h.p50().unwrap() >= lo && h.p99().unwrap() <= hi);
        // The p100 estimate is the midpoint of max's bucket, whose width is
        // at most max/32, so it lands within ~3% below the exact max.
        let p100 = h.quantile(100, 100).unwrap();
        prop_assert!(p100 <= hi && p100 + hi / 32 + 1 >= hi, "p100 {p100} vs max {hi}");
    }

    #[test]
    fn seed_factory_is_injective_in_practice(
        master in proptest::num::u64::ANY,
        idx_a in 0u64..1_000,
        idx_b in 0u64..1_000,
    ) {
        prop_assume!(idx_a != idx_b);
        let f = SeedFactory::new(master);
        prop_assert_ne!(f.derive("stream", idx_a), f.derive("stream", idx_b));
    }
}
