//! Property-based tests for the acoustic PHY: metric symmetry and
//! monotonicity, PER sanity, and the modem's collision ledger checked
//! against a brute-force interval-overlap oracle.

use proptest::prelude::*;

use uasn_phy::channel::AcousticChannel;
use uasn_phy::geometry::{Point, Region};
use uasn_phy::mobility::MobilityModel;
use uasn_phy::modem::Modem;
use uasn_phy::per::{Modulation, PerModel};
use uasn_phy::sound::SoundSpeedProfile;
use uasn_sim::time::SimTime;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..10_000.0, 0.0f64..10_000.0, 0.0f64..5_000.0).prop_map(|(x, y, z)| Point::new(x, y, z))
}

proptest! {
    #[test]
    fn distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(a) < 1e-12);
        // triangle inequality
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    #[test]
    fn propagation_delay_is_symmetric_and_positive(a in arb_point(), b in arb_point()) {
        let ch = AcousticChannel::paper_default();
        prop_assert_eq!(ch.propagation_delay(a, b), ch.propagation_delay(b, a));
        if a.distance(b) > 1.0 {
            prop_assert!(!ch.propagation_delay(a, b).is_zero());
        }
        // Never exceeds τmax within the nominal range.
        if a.distance(b) <= ch.max_range_m() {
            prop_assert!(ch.propagation_delay(a, b) <= ch.max_propagation_delay());
        }
    }

    #[test]
    fn audibility_matches_range_cutoff(a in arb_point(), b in arb_point()) {
        let ch = AcousticChannel::paper_default();
        prop_assert_eq!(ch.is_audible(a, b), a.distance(b) <= 1_500.0);
        prop_assert_eq!(ch.is_audible(a, b), ch.is_audible(b, a));
    }

    #[test]
    fn snr_never_increases_with_distance(
        d1 in 1.0f64..20_000.0,
        d2 in 1.0f64..20_000.0,
    ) {
        let ch = AcousticChannel::paper_default();
        let a = Point::new(0.0, 0.0, 100.0);
        let near = Point::new(d1.min(d2), 0.0, 100.0);
        let far = Point::new(d1.max(d2), 0.0, 100.0);
        prop_assert!(ch.snr_db(a, near) >= ch.snr_db(a, far) - 1e-9);
    }

    #[test]
    fn per_is_a_probability_and_monotone_in_size(
        snr in -30.0f64..40.0,
        bits_small in 1u32..2_000,
        extra in 1u32..2_000,
    ) {
        let m = PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        };
        let p_small = m.loss_probability(snr, bits_small);
        let p_big = m.loss_probability(snr, bits_small + extra);
        prop_assert!((0.0..=1.0).contains(&p_small));
        prop_assert!((0.0..=1.0).contains(&p_big));
        prop_assert!(p_big >= p_small - 1e-12, "PER must grow with packet size");
    }

    #[test]
    fn ber_is_monotone_in_snr_for_all_schemes(
        lo in 0.0f64..50.0,
        delta in 0.01f64..50.0,
    ) {
        for scheme in [Modulation::Bpsk, Modulation::NcFsk, Modulation::Dpsk] {
            prop_assert!(scheme.ber(lo + delta) <= scheme.ber(lo) + 1e-15);
        }
    }

    /// The modem ledger must agree with a brute-force pairwise interval
    /// overlap oracle: a reception survives iff no other reception (and no
    /// own transmission) overlaps it in time.
    #[test]
    fn modem_ledger_matches_overlap_oracle(
        intervals in proptest::collection::vec((0u64..10_000, 1u64..2_000), 1..20),
    ) {
        let spans: Vec<(u64, u64)> = intervals.iter().map(|&(s, d)| (s, s + d)).collect();

        // Drive the ledger the way the simulator does: begin/end events in
        // chronological order, ends before begins at equal instants
        // (receptions are half-open intervals).
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Kind {
            End,
            Begin,
        }
        let mut events: Vec<(u64, Kind, usize)> = Vec::new();
        for (i, &(s, e)) in spans.iter().enumerate() {
            events.push((s, Kind::Begin, i));
            events.push((e, Kind::End, i));
        }
        events.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));

        let mut m = Modem::new();
        let mut ids = vec![None; spans.len()];
        let mut survived = vec![false; spans.len()];
        for (t, kind, i) in events {
            match kind {
                Kind::Begin => {
                    ids[i] = Some(m.begin_reception(
                        SimTime::from_micros(t),
                        SimTime::from_micros(spans[i].1),
                    ));
                }
                Kind::End => {
                    survived[i] =
                        m.end_reception(SimTime::from_micros(t), ids[i].expect("began"));
                }
            }
        }

        for i in 0..spans.len() {
            let overlaps_any = (0..spans.len()).any(|j| {
                j != i && spans[i].0 < spans[j].1 && spans[j].0 < spans[i].1
            });
            prop_assert_eq!(
                survived[i],
                !overlaps_any,
                "span {} {:?} oracle mismatch", i, spans[i]
            );
        }
    }

    #[test]
    fn mobility_never_escapes_the_region(
        start in arb_point(),
        speed in 0.0f64..10.0,
        heading in 0.0f64..std::f64::consts::TAU,
        dt in 0.0f64..10_000.0,
    ) {
        let region = Region::new(10_000.0, 10_000.0, 5_000.0);
        let start = region.clamp(start);
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        for model in [
            MobilityModel::Static,
            MobilityModel::Horizontal { speed_ms: speed, heading_rad: heading },
            MobilityModel::Vertical { speed_ms: speed },
        ] {
            let moved = model.step(&mut rng, start, &region, dt);
            prop_assert!(region.contains(moved), "{model:?} escaped to {moved}");
        }
    }

    #[test]
    fn mean_speed_lies_between_endpoint_speeds(
        d1 in 0.0f64..5_000.0,
        d2 in 0.0f64..5_000.0,
    ) {
        let ssp = SoundSpeedProfile::Mackenzie {
            temperature_c: 8.0,
            salinity_ppt: 35.0,
        };
        let (a, b) = (ssp.speed_at(d1), ssp.speed_at(d2));
        let mean = ssp.mean_speed(d1, d2);
        prop_assert!(mean >= a.min(b) - 1e-9 && mean <= a.max(b) + 1e-9);
    }
}
