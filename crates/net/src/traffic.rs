//! Traffic generation: the one description of every arrival process.
//!
//! Two modes match the two x-axes of the paper's figures:
//!
//! * [`TrafficPattern::Poisson`] — each sensor generates fixed-size SDUs as
//!   a Poisson process; the aggregate network generation rate is the
//!   "offered load (kbps)" axis of Figures 6, 9a, 10b and 11.
//! * [`TrafficPattern::Batch`] — a fixed number of SDUs arrive over a
//!   window and the run continues until all are delivered; the completion
//!   time is Figure 8's "execution time". The paper's conversion ("20
//!   packets per 300 s ≈ 0.136 kbps offered load") is
//!   [`TrafficPattern::batch_for_load`].
//!
//! Two more drive the multi-hop routing sweeps:
//!
//! * [`TrafficPattern::BurstyOnOff`] — Poisson arrivals gated by an on/off
//!   duty cycle; the same mean offered load as `Poisson` but delivered in
//!   bursts that stress MAC queues and the transport's retry budget.
//! * [`TrafficPattern::Convergecast`] — every sensor injects one reading
//!   per round toward the sinks, the classic many-to-one UASN workload.
//!
//! Every pattern but `Batch` draws each sensor's arrivals one at a time
//! through [`TrafficPattern::next_arrival`]. Parameters are checked once,
//! by [`SimConfig::validate`](crate::config::SimConfig::validate).

use rand::{Rng, RngCore};

use uasn_sim::rng::exponential;
use uasn_sim::time::{SimDuration, SimTime};

/// Minimum inter-arrival gap, seconds — keeps arrivals strictly
/// increasing even at absurd rates.
const MIN_GAP_S: f64 = 1e-6;

/// What the sources inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Poisson arrivals at every sensor, sized so the whole network
    /// generates `offered_load_kbps` kilobits of new data per second.
    Poisson {
        /// Aggregate generation rate, kbps.
        offered_load_kbps: f64,
    },
    /// Exactly `total_packets` SDUs arrive, Poisson-spread over
    /// `window`, split round-robin over sensors. No further traffic.
    Batch {
        /// Total SDUs.
        total_packets: u32,
        /// Arrival window.
        window: SimDuration,
    },
    /// Poisson arrivals gated by an on/off duty cycle at every sensor:
    /// the network still generates `offered_load_kbps` of new data per
    /// second on average, but compressed into `on_s`-long bursts
    /// separated by `off_s` of silence.
    BurstyOnOff {
        /// Mean aggregate generation rate, kbps.
        offered_load_kbps: f64,
        /// Burst length, seconds.
        on_s: f64,
        /// Silence length, seconds.
        off_s: f64,
    },
    /// Convergecast rounds: every sensor injects exactly one SDU per
    /// `period_s`-long round, jittered uniformly over `[0, jitter_s)`
    /// within the round.
    Convergecast {
        /// Round period, seconds.
        period_s: f64,
        /// Per-arrival uniform jitter inside the round, seconds
        /// (must be `< period_s`; `0` fires all sensors together).
        jitter_s: f64,
    },
}

impl TrafficPattern {
    /// The batch equivalent of an offered load, using the paper's own
    /// conversion: `N = load_kbps × window / packet_bits` (so 0.136 kbps,
    /// 300 s, 2 048 bits → 20 packets).
    ///
    /// # Panics
    ///
    /// Panics if arguments are non-positive.
    pub fn batch_for_load(load_kbps: f64, window: SimDuration, packet_bits: u32) -> Self {
        assert!(
            load_kbps.is_finite() && load_kbps > 0.0,
            "load must be positive, got {load_kbps}"
        );
        assert!(packet_bits > 0, "packet size must be positive");
        let n = (load_kbps * 1_000.0 * window.as_secs_f64() / packet_bits as f64).round();
        TrafficPattern::Batch {
            total_packets: (n as u32).max(1),
            window,
        }
    }

    /// Whether this pattern stops injecting after its window.
    pub fn is_batch(&self) -> bool {
        matches!(self, TrafficPattern::Batch { .. })
    }

    /// Draws one sensor's next arrival instant strictly after `after`;
    /// `None` only for `Batch`, whose arrivals are all drawn when the run
    /// is built. The next arrival is a pure function of `after` and the
    /// seeded `rng`, so replays and worker-count changes cannot reorder
    /// arrivals. A Poisson gap is added to `after` in [`SimTime`]; the
    /// duty-cycle and round shapes do their arithmetic in absolute f64
    /// seconds and convert the result once.
    ///
    /// # Examples
    ///
    /// ```
    /// use uasn_net::traffic::TrafficPattern;
    /// use uasn_sim::rng::SeedFactory;
    /// use uasn_sim::time::SimTime;
    ///
    /// let mut rng = SeedFactory::new(1).stream("traffic", 0);
    /// // 0.5 kbps of 2048-bit packets over 60 sensors
    /// let p = TrafficPattern::Poisson { offered_load_kbps: 0.5 };
    /// let t1 = p.next_arrival(&mut rng, SimTime::ZERO, 2_048, 60).expect("recurring");
    /// let t2 = p.next_arrival(&mut rng, t1, 2_048, 60).expect("recurring");
    /// assert!(t2 > t1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on parameters [`SimConfig::validate`] would reject (zero
    /// rates, `jitter_s >= period_s`, …).
    ///
    /// [`SimConfig::validate`]: crate::config::SimConfig::validate
    pub fn next_arrival<R: RngCore>(
        &self,
        rng: &mut R,
        after: SimTime,
        packet_bits: u32,
        sensors: u32,
    ) -> Option<SimTime> {
        let after_s = after.as_secs_f64();
        let next_s = match *self {
            TrafficPattern::Batch { .. } => return None,
            TrafficPattern::Poisson { offered_load_kbps } => {
                let rate_hz = per_sensor_rate(offered_load_kbps, packet_bits, sensors);
                let gap = exponential(rng, 1.0 / rate_hz).max(MIN_GAP_S);
                return Some(after + SimDuration::from_secs_f64(gap));
            }
            TrafficPattern::BurstyOnOff {
                offered_load_kbps,
                on_s,
                off_s,
            } => {
                // The burst rate compensates for the silent fraction so the
                // long-run mean matches the offered load. The gap is drawn
                // in "on-time" (the clock that only runs inside bursts),
                // then mapped back to wall time.
                let duty = on_s / (on_s + off_s);
                let rate_hz = per_sensor_rate(offered_load_kbps, packet_bits, sensors) / duty;
                let gap = exponential(rng, 1.0 / rate_hz).max(MIN_GAP_S);
                wall_from_on_time(on_time_elapsed(after_s, on_s, off_s) + gap, on_s, off_s)
            }
            TrafficPattern::Convergecast { period_s, jitter_s } => {
                // Because jitter < period, the arrival of round k is
                // always earlier than round k+1's boundary, so "the round
                // after the boundary containing `after_s`" fires each
                // round exactly once.
                let round = (after_s / period_s).floor() + 1.0;
                let jitter = if jitter_s > 0.0 {
                    rng.gen::<f64>() * jitter_s
                } else {
                    0.0
                };
                round * period_s + jitter
            }
        };
        Some(SimTime::ZERO + SimDuration::from_secs_f64(next_s.max(after_s + MIN_GAP_S)))
    }
}

/// Seconds of "on" time elapsed by wall instant `t` under the duty
/// cycle `on`/`off`.
pub(crate) fn on_time_elapsed(t: f64, on_s: f64, off_s: f64) -> f64 {
    let cycle = on_s + off_s;
    let full = (t / cycle).floor();
    let rem = t - full * cycle;
    full * on_s + rem.min(on_s)
}

/// Inverse of [`on_time_elapsed`]: the wall instant at which `u`
/// seconds of "on" time have elapsed.
pub(crate) fn wall_from_on_time(u: f64, on_s: f64, off_s: f64) -> f64 {
    let cycle = on_s + off_s;
    let full = (u / on_s).floor();
    let rem = u - full * on_s;
    full * cycle + rem
}

/// Converts an aggregate offered load into the per-sensor packet arrival
/// rate: `load_kbps × 1000 / packet_bits / sensors` packets per second.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn per_sensor_rate(offered_load_kbps: f64, packet_bits: u32, sensors: u32) -> f64 {
    assert!(
        offered_load_kbps.is_finite() && offered_load_kbps > 0.0,
        "offered load must be positive, got {offered_load_kbps}"
    );
    assert!(packet_bits > 0, "packet size must be positive");
    assert!(sensors > 0, "need at least one sensor");
    offered_load_kbps * 1_000.0 / packet_bits as f64 / sensors as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{arrivals, kbps};
    use uasn_sim::rng::SeedFactory;

    #[test]
    fn paper_batch_conversion() {
        // §5: "20 per 300 s, i.e. offer load of approximately 0.136".
        let p = TrafficPattern::batch_for_load(0.136, SimDuration::from_secs(300), 2_048);
        match p {
            TrafficPattern::Batch { total_packets, .. } => assert_eq!(total_packets, 20),
            _ => unreachable!(),
        }
        assert!(p.is_batch());
    }

    #[test]
    fn batch_is_at_least_one_packet() {
        let p = TrafficPattern::batch_for_load(1e-6, SimDuration::from_secs(1), 2_048);
        match p {
            TrafficPattern::Batch { total_packets, .. } => assert_eq!(total_packets, 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn per_sensor_rate_partitions_load() {
        // 0.8 kbps over 60 sensors at 2048 bits:
        // 800/2048/60 ≈ 0.00651 pkt/s each.
        let r = per_sensor_rate(0.8, 2_048, 60);
        assert!((r - 0.8 * 1_000.0 / 2_048.0 / 60.0).abs() < 1e-12);
        // Aggregate recovers the offered load.
        let aggregate_kbps = r * 60.0 * 2_048.0 / 1_000.0;
        assert!((aggregate_kbps - 0.8).abs() < 1e-12);
    }

    #[test]
    fn poisson_stream_mean_rate() {
        let p = TrafficPattern::Poisson {
            offered_load_kbps: kbps(2.0),
        };
        let n = 10_000;
        let end = arrivals(p, 3, n)[n - 1];
        let rate = n as f64 / end.as_secs_f64();
        assert!((rate - 2.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let p = TrafficPattern::Poisson {
            offered_load_kbps: kbps(1_000.0),
        };
        let mut t = SimTime::ZERO;
        for next in arrivals(p, 4, 1_000) {
            assert!(next > t, "stalled at {t:?}");
            t = next;
        }
    }

    #[test]
    fn only_batch_has_no_workload_stream() {
        let mut rng = SeedFactory::new(1).stream("traffic", 0);
        let b = TrafficPattern::batch_for_load(0.136, SimDuration::from_secs(300), 2_048);
        assert_eq!(b.next_arrival(&mut rng, SimTime::ZERO, 2_048, 60), None);
        let p = TrafficPattern::Poisson {
            offered_load_kbps: 0.5,
        };
        assert!(p.next_arrival(&mut rng, SimTime::ZERO, 2_048, 60).is_some());
    }

    #[test]
    fn bursty_workload_preserves_the_mean_rate() {
        // The burst rate compensates for the silent fraction: each of 60
        // sensors still averages its share of 0.8 kbps.
        let p = TrafficPattern::BurstyOnOff {
            offered_load_kbps: 0.8,
            on_s: 10.0,
            off_s: 30.0,
        };
        let mut rng = SeedFactory::new(6).stream("traffic", 0);
        let (n, mut t) = (20_000, SimTime::ZERO);
        for _ in 0..n {
            t = p.next_arrival(&mut rng, t, 2_048, 60).expect("recurring");
        }
        let rate = n as f64 / t.as_secs_f64();
        let expect = per_sensor_rate(0.8, 2_048, 60);
        assert!(
            (rate - expect).abs() / expect < 0.05,
            "duty-cycle compensation: {rate} vs {expect}"
        );
    }

    #[test]
    fn convergecast_workload_is_one_per_round() {
        let (period_s, jitter_s) = (60.0, 5.0);
        let p = TrafficPattern::Convergecast { period_s, jitter_s };
        assert!(!p.is_batch());
        for (k, t) in arrivals(p, 8, 50).into_iter().enumerate() {
            let round = (t.as_secs_f64() / period_s).floor() as usize;
            assert_eq!(round, k + 1, "{t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = arrivals(
            TrafficPattern::Poisson {
                offered_load_kbps: 0.0,
            },
            0,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_sensors_panics() {
        let _ = per_sensor_rate(0.5, 2_048, 0);
    }
}
