//! Traffic generation.
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
//! Every pattern but `Batch` runs on one per-sensor arrival stream,
//! [`TrafficPattern::workload`]'s [`uasn_route::WorkloadStream`].

use uasn_route::{Workload, WorkloadStream};
use uasn_sim::time::SimDuration;

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

    /// The per-sensor arrival stream behind this pattern; `None` only for
    /// `Batch`, whose arrivals are all drawn when the run is built.
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
    /// let stream = p.workload(2_048, 60).expect("recurring pattern");
    /// let t1 = stream.next_arrival(&mut rng, SimTime::ZERO);
    /// let t2 = stream.next_arrival(&mut rng, t1);
    /// assert!(t2 > t1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on parameters [`SimConfig::validate`] would reject (zero
    /// rates, `jitter_s >= period_s`, …).
    ///
    /// [`SimConfig::validate`]: crate::config::SimConfig::validate
    pub fn workload(&self, packet_bits: u32, sensors: u32) -> Option<WorkloadStream> {
        let workload = match *self {
            TrafficPattern::Poisson { offered_load_kbps } => Workload::Poisson {
                rate_hz: per_sensor_rate(offered_load_kbps, packet_bits, sensors),
            },
            TrafficPattern::Batch { .. } => return None,
            TrafficPattern::BurstyOnOff {
                offered_load_kbps,
                on_s,
                off_s,
            } => {
                let mean = per_sensor_rate(offered_load_kbps, packet_bits, sensors);
                // The burst rate compensates for the silent fraction so the
                // long-run mean matches the offered load.
                let duty = on_s / (on_s + off_s);
                Workload::BurstyOnOff {
                    rate_hz: mean / duty,
                    on_s,
                    off_s,
                }
            }
            TrafficPattern::Convergecast { period_s, jitter_s } => {
                Workload::ConvergecastRounds { period_s, jitter_s }
            }
        };
        Some(WorkloadStream::new(workload))
    }
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
    use uasn_sim::rng::SeedFactory;
    use uasn_sim::time::SimTime;

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

    /// The Poisson stream of one sensor carrying the whole `kbps` load
    /// in 2048-bit packets.
    fn poisson(kbps: f64) -> WorkloadStream {
        let p = TrafficPattern::Poisson {
            offered_load_kbps: kbps,
        };
        p.workload(2_048, 1).expect("poisson stream")
    }

    #[test]
    fn poisson_stream_mean_rate() {
        let mut rng = SeedFactory::new(3).stream("traffic", 9);
        let stream = poisson(4.096); // 2 arrivals per second
        let mut t = SimTime::ZERO;
        let n = 10_000;
        for _ in 0..n {
            t = stream.next_arrival(&mut rng, t);
        }
        let rate = n as f64 / t.as_secs_f64();
        assert!((rate - 2.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut rng = SeedFactory::new(4).stream("traffic", 0);
        let stream = poisson(2_048.0); // 1000 arrivals per second
        let mut t = SimTime::ZERO;
        for _ in 0..1_000 {
            let next = stream.next_arrival(&mut rng, t);
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    fn only_batch_has_no_workload_stream() {
        let p = TrafficPattern::Poisson {
            offered_load_kbps: 0.5,
        };
        let stream = p.workload(2_048, 60).expect("poisson stream");
        assert_eq!(
            stream.workload(),
            Workload::Poisson {
                rate_hz: per_sensor_rate(0.5, 2_048, 60)
            }
        );
        let b = TrafficPattern::batch_for_load(0.136, SimDuration::from_secs(300), 2_048);
        assert!(b.workload(2_048, 60).is_none());
    }

    #[test]
    fn bursty_workload_preserves_the_mean_rate() {
        let p = TrafficPattern::BurstyOnOff {
            offered_load_kbps: 0.8,
            on_s: 10.0,
            off_s: 30.0,
        };
        let stream = p.workload(2_048, 60).expect("bursty workload");
        let mean = stream.workload().mean_rate_hz();
        let expect = per_sensor_rate(0.8, 2_048, 60);
        assert!(
            (mean - expect).abs() < 1e-12,
            "duty-cycle compensation: {mean} vs {expect}"
        );
    }

    #[test]
    fn convergecast_workload_is_one_per_round() {
        let p = TrafficPattern::Convergecast {
            period_s: 60.0,
            jitter_s: 5.0,
        };
        let stream = p.workload(2_048, 60).expect("convergecast workload");
        assert!((stream.workload().mean_rate_hz() - 1.0 / 60.0).abs() < 1e-12);
        assert!(!p.is_batch());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_sensors_panics() {
        let _ = per_sensor_rate(0.5, 2_048, 0);
    }
}
