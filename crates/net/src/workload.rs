//! Test support for the recurring workloads: the per-sensor arrival
//! streams that [`TrafficPattern::next_arrival`] draws for `Poisson`,
//! `BurstyOnOff` and `Convergecast`, checked shape by shape over long
//! runs, plus the checks [`SimConfig::validate`] puts on their
//! parameters. Compiled only for tests.
//!
//! [`SimConfig::validate`]: crate::config::SimConfig::validate

use uasn_sim::rng::SeedFactory;
use uasn_sim::time::SimTime;

use crate::traffic::TrafficPattern;

/// `n` successive arrivals of `p` at one sensor carrying the whole load
/// in 2048-bit packets.
pub(crate) fn arrivals(p: TrafficPattern, seed: u64, n: usize) -> Vec<SimTime> {
    let mut rng = SeedFactory::new(seed).stream("traffic", 0);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|_| {
            t = p.next_arrival(&mut rng, t, 2_048, 1).expect("recurring");
            t
        })
        .collect()
}

/// The offered load that gives one 2048-bit sensor `rate_hz` arrivals per
/// second.
pub(crate) fn kbps(rate_hz: f64) -> f64 {
    rate_hz * 2.048
}

mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::error::BuildNetworkError;
    use crate::traffic::{on_time_elapsed, wall_from_on_time};
    use uasn_sim::time::SimDuration;

    /// Arrivals per second over the run that ends at `times`' last entry.
    fn long_run_rate(times: &[SimTime]) -> f64 {
        times.len() as f64 / times[times.len() - 1].as_secs_f64()
    }

    #[test]
    fn on_time_maps_round_trip() {
        // on=2, off=8: wall 0..2 is on, 2..10 off, 10..12 on, ...
        assert_eq!(on_time_elapsed(0.0, 2.0, 8.0), 0.0);
        assert_eq!(on_time_elapsed(1.5, 2.0, 8.0), 1.5);
        assert_eq!(on_time_elapsed(5.0, 2.0, 8.0), 2.0);
        assert_eq!(on_time_elapsed(11.0, 2.0, 8.0), 3.0);
        for u in [0.1, 1.9, 2.0, 3.7, 10.0] {
            let wall = wall_from_on_time(u, 2.0, 8.0);
            assert!(
                (on_time_elapsed(wall, 2.0, 8.0) - u).abs() < 1e-9,
                "u={u} wall={wall}"
            );
        }
    }

    #[test]
    fn bursty_arrivals_land_inside_on_windows() {
        // 1 arrival/s on average is 5/s inside the 2 s bursts of a 10 s cycle.
        let p = TrafficPattern::BurstyOnOff {
            offered_load_kbps: kbps(1.0),
            on_s: 2.0,
            off_s: 8.0,
        };
        for t in arrivals(p, 11, 500) {
            let phase = t.as_secs_f64() % 10.0;
            assert!(
                phase <= 2.0 + 1e-9,
                "arrival at {t:?} (phase {phase}) is off-window"
            );
        }
    }

    #[test]
    fn bursty_long_run_rate_matches_duty_cycle() {
        // 3/s on average at a 30% duty cycle: 10/s inside the bursts.
        let (rate_hz, on_s, off_s) = (3.0, 3.0, 7.0);
        let p = TrafficPattern::BurstyOnOff {
            offered_load_kbps: kbps(rate_hz),
            on_s,
            off_s,
        };
        let times = arrivals(p, 5, 20_000);
        let rate = long_run_rate(&times);
        assert!(
            (rate - rate_hz).abs() / rate_hz < 0.05,
            "rate {rate}, expected {rate_hz}"
        );
        let last = times[times.len() - 1].as_secs_f64();
        let burst_rate = times.len() as f64 / on_time_elapsed(last, on_s, off_s);
        let expect = rate_hz * (on_s + off_s) / on_s;
        assert!(
            (burst_rate - expect).abs() / expect < 0.05,
            "burst rate {burst_rate}, expected {expect}"
        );
    }

    #[test]
    fn convergecast_fires_once_per_round_within_jitter() {
        let p = TrafficPattern::Convergecast {
            period_s: 30.0,
            jitter_s: 5.0,
        };
        for (k, t) in arrivals(p, 7, 50).into_iter().enumerate() {
            let (at, base) = (t.as_secs_f64(), (k + 1) as f64 * 30.0);
            assert!(
                at >= base && at < base + 5.0,
                "round {} fired at {at}, expected [{base}, {})",
                k + 1,
                base + 5.0
            );
        }
    }

    #[test]
    fn convergecast_zero_jitter_is_exact_and_deterministic() {
        let p = TrafficPattern::Convergecast {
            period_s: 10.0,
            jitter_s: 0.0,
        };
        let times = arrivals(p, 1, 5);
        for (k, t) in times.iter().enumerate() {
            assert!((t.as_secs_f64() - (k + 1) as f64 * 10.0).abs() < 1e-9);
        }
        assert_eq!(arrivals(p, 2, 5), times, "zero jitter draws nothing");
    }

    #[test]
    fn arrivals_strictly_increase_for_every_shape() {
        let shapes = [
            TrafficPattern::Poisson {
                offered_load_kbps: kbps(1_000.0),
            },
            TrafficPattern::BurstyOnOff {
                offered_load_kbps: kbps(500.0),
                on_s: 0.5,
                off_s: 0.5,
            },
            TrafficPattern::Convergecast {
                period_s: 0.01,
                jitter_s: 0.005,
            },
        ];
        for (i, p) in shapes.into_iter().enumerate() {
            let mut t = SimTime::ZERO;
            for next in arrivals(p, 20 + i as u64, 1_000) {
                assert!(next > t, "{p:?} stalled at {t:?}");
                t = next;
            }
        }
    }

    #[test]
    fn mean_rates() {
        // (shape, long-run arrivals per second at one sensor).
        let shapes = [
            (
                TrafficPattern::Poisson {
                    offered_load_kbps: kbps(2.0),
                },
                2.0,
            ),
            (
                TrafficPattern::BurstyOnOff {
                    offered_load_kbps: kbps(2.0),
                    on_s: 1.0,
                    off_s: 4.0,
                },
                2.0,
            ),
            (
                TrafficPattern::Convergecast {
                    period_s: 4.0,
                    jitter_s: 0.0,
                },
                0.25,
            ),
        ];
        for (i, (p, expect)) in shapes.into_iter().enumerate() {
            let rate = long_run_rate(&arrivals(p, 30 + i as u64, 20_000));
            assert!(
                (rate - expect).abs() / expect < 0.05,
                "{p:?}: rate {rate}, expected {expect}"
            );
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        let poisson = |offered_load_kbps| TrafficPattern::Poisson { offered_load_kbps };
        let bursty = |offered_load_kbps, on_s, off_s| TrafficPattern::BurstyOnOff {
            offered_load_kbps,
            on_s,
            off_s,
        };
        let rounds = |period_s, jitter_s| TrafficPattern::Convergecast { period_s, jitter_s };
        let with = |traffic| SimConfig {
            traffic,
            ..SimConfig::paper_default()
        };
        for good in [poisson(0.5), bursty(0.8, 10.0, 30.0), rounds(60.0, 0.0)] {
            with(good).validate().expect("valid traffic");
        }
        // (bad pattern, the parameter the reason must name).
        let bad = [
            (poisson(0.0), "offered load"),
            (poisson(f64::NAN), "offered load"),
            (poisson(f64::INFINITY), "offered load"),
            (bursty(-0.8, 10.0, 30.0), "offered load"),
            (bursty(0.8, 0.0, 30.0), "on-time"),
            (bursty(0.8, f64::INFINITY, 30.0), "on-time"),
            (bursty(0.8, 10.0, -1.0), "off-time"),
            (bursty(0.8, 10.0, f64::NAN), "off-time"),
            (rounds(0.0, 0.0), "period"),
            (rounds(f64::NAN, 0.0), "period"),
            (rounds(60.0, -1.0), "jitter"),
            (rounds(60.0, 60.0), "jitter"),
            (rounds(60.0, f64::INFINITY), "jitter"),
            (
                TrafficPattern::Batch {
                    total_packets: 0,
                    window: SimDuration::from_secs(300),
                },
                "packet",
            ),
        ];
        for (traffic, names) in bad {
            match with(traffic).validate() {
                Err(BuildNetworkError::InvalidConfig { field, reason }) => {
                    assert_eq!(field, "traffic", "{traffic:?}");
                    assert!(reason.contains(names), "{traffic:?}: {reason}");
                }
                other => panic!("{traffic:?} validated: {other:?}"),
            }
        }
    }
}
