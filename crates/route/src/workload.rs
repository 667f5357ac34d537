//! Seeded per-sensor arrival processes: the one arrival stream type every
//! recurring traffic pattern of the simulator runs on.
//!
//! Three shapes:
//!
//! * [`Workload::Poisson`] — memoryless arrivals, the paper's own
//!   offered-load axis.
//! * [`Workload::BurstyOnOff`] — a Poisson process gated by a
//!   deterministic on/off duty cycle: arrivals cluster inside "on"
//!   windows and the channel goes silent in between, the classic
//!   heavy-burst stressor for MAC queues.
//! * [`Workload::ConvergecastRounds`] — every sensor fires once per
//!   round (period + per-arrival uniform jitter), modelling synchronized
//!   sense-and-report toward the sink; the whole column funnels traffic
//!   at once, which is where routing contention peaks.
//!
//! Streams are plain `Copy` values with no hidden state: the next
//! arrival is a pure function of the previous arrival time and the
//! seeded RNG stream, so replays and worker-count changes cannot
//! reorder them. A Poisson gap is added to the previous instant in
//! [`SimTime`]; the duty-cycle and round shapes do their arithmetic in
//! absolute f64 seconds and convert the result once.

use rand::{Rng, RngCore};

use uasn_sim::rng::exponential;
use uasn_sim::time::{SimDuration, SimTime};

/// Minimum inter-arrival gap, seconds — keeps arrivals strictly
/// increasing even at absurd rates.
const MIN_GAP_S: f64 = 1e-6;

/// A per-sensor arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Memoryless arrivals at `rate_hz` per second.
    Poisson {
        /// Mean arrivals per second.
        rate_hz: f64,
    },
    /// Poisson arrivals at `rate_hz` gated by a repeating duty cycle:
    /// `on_s` seconds of traffic, then `off_s` seconds of silence.
    /// The *conditional* rate inside a burst is `rate_hz`; the long-run
    /// mean rate is `rate_hz · on / (on + off)`.
    BurstyOnOff {
        /// Arrival rate inside an "on" window, per second.
        rate_hz: f64,
        /// Burst length, seconds.
        on_s: f64,
        /// Silence length, seconds.
        off_s: f64,
    },
    /// One arrival per round: round `k` fires at `k · period_s` plus a
    /// uniform jitter in `[0, jitter_s)`. Requires `jitter_s <
    /// period_s` so every round fires exactly once and arrivals stay
    /// strictly increasing.
    ConvergecastRounds {
        /// Round length, seconds.
        period_s: f64,
        /// Per-arrival uniform jitter bound, seconds.
        jitter_s: f64,
    },
}

impl Workload {
    /// Stable label for traces and manifests.
    pub fn as_str(&self) -> &'static str {
        match self {
            Workload::Poisson { .. } => "poisson",
            Workload::BurstyOnOff { .. } => "bursty-on-off",
            Workload::ConvergecastRounds { .. } => "convergecast",
        }
    }

    /// Long-run mean arrival rate, per second.
    pub fn mean_rate_hz(&self) -> f64 {
        match *self {
            Workload::Poisson { rate_hz } => rate_hz,
            Workload::BurstyOnOff {
                rate_hz,
                on_s,
                off_s,
            } => rate_hz * on_s / (on_s + off_s),
            Workload::ConvergecastRounds { period_s, .. } => 1.0 / period_s,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a `(field, reason)` pair naming the first offending field.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        fn positive(field: &'static str, v: f64) -> Result<(), (&'static str, String)> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err((field, format!("must be finite and positive, got {v}")))
            }
        }
        match *self {
            Workload::Poisson { rate_hz } => positive("workload.rate_hz", rate_hz),
            Workload::BurstyOnOff {
                rate_hz,
                on_s,
                off_s,
            } => {
                positive("workload.rate_hz", rate_hz)?;
                positive("workload.on_s", on_s)?;
                positive("workload.off_s", off_s)
            }
            Workload::ConvergecastRounds { period_s, jitter_s } => {
                positive("workload.period_s", period_s)?;
                if !(jitter_s.is_finite() && jitter_s >= 0.0) {
                    return Err((
                        "workload.jitter_s",
                        format!("must be finite and non-negative, got {jitter_s}"),
                    ));
                }
                if jitter_s >= period_s {
                    return Err((
                        "workload.jitter_s",
                        "jitter must be smaller than the round period".to_string(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A workload bound to one sensor's seeded RNG stream.
///
/// # Examples
///
/// ```
/// use uasn_route::{Workload, WorkloadStream};
/// use uasn_sim::rng::SeedFactory;
/// use uasn_sim::time::SimTime;
///
/// let mut rng = SeedFactory::new(1).stream("route-traffic", 0);
/// let stream = WorkloadStream::new(Workload::BurstyOnOff {
///     rate_hz: 5.0,
///     on_s: 2.0,
///     off_s: 8.0,
/// });
/// let t1 = stream.next_arrival(&mut rng, SimTime::ZERO);
/// let t2 = stream.next_arrival(&mut rng, t1);
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStream {
    workload: Workload,
}

impl WorkloadStream {
    /// Wraps a validated workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not validate.
    pub fn new(workload: Workload) -> WorkloadStream {
        if let Err((field, reason)) = workload.validate() {
            panic!("invalid workload: {field}: {reason}");
        }
        WorkloadStream { workload }
    }

    /// The underlying workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Draws the next arrival instant strictly after `after`.
    pub fn next_arrival<R: RngCore>(&self, rng: &mut R, after: SimTime) -> SimTime {
        let after_s = after.as_secs_f64();
        let next_s = match self.workload {
            Workload::Poisson { rate_hz } => {
                let gap = exponential(rng, 1.0 / rate_hz).max(MIN_GAP_S);
                return after + SimDuration::from_secs_f64(gap);
            }
            Workload::BurstyOnOff {
                rate_hz,
                on_s,
                off_s,
            } => {
                // Draw the gap in "on-time" (the clock that only runs
                // inside bursts), then map back to wall time.
                let gap = exponential(rng, 1.0 / rate_hz).max(MIN_GAP_S);
                wall_from_on_time(on_time_elapsed(after_s, on_s, off_s) + gap, on_s, off_s)
            }
            Workload::ConvergecastRounds { period_s, jitter_s } => {
                // Because jitter < period, the arrival of round k is
                // always earlier than round k+1's boundary, so "the
                // round after the boundary containing `after_s`" fires
                // each round exactly once.
                let round = (after_s / period_s).floor() + 1.0;
                let jitter = if jitter_s > 0.0 {
                    rng.gen::<f64>() * jitter_s
                } else {
                    0.0
                };
                round * period_s + jitter
            }
        };
        SimTime::ZERO + SimDuration::from_secs_f64(next_s.max(after_s + MIN_GAP_S))
    }
}

/// Seconds of "on" time elapsed by wall instant `t` under the duty
/// cycle `on`/`off`.
fn on_time_elapsed(t: f64, on_s: f64, off_s: f64) -> f64 {
    let cycle = on_s + off_s;
    let full = (t / cycle).floor();
    let rem = t - full * cycle;
    full * on_s + rem.min(on_s)
}

/// Inverse of [`on_time_elapsed`]: the wall instant at which `u`
/// seconds of "on" time have elapsed.
fn wall_from_on_time(u: f64, on_s: f64, off_s: f64) -> f64 {
    let cycle = on_s + off_s;
    let full = (u / on_s).floor();
    let rem = u - full * on_s;
    full * cycle + rem
}

#[cfg(test)]
mod tests {
    use super::*;
    use uasn_sim::rng::SeedFactory;

    fn rng(seed: u64) -> impl RngCore {
        SeedFactory::new(seed).stream("route-traffic", 0)
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
        let stream = WorkloadStream::new(Workload::BurstyOnOff {
            rate_hz: 5.0,
            on_s: 2.0,
            off_s: 8.0,
        });
        let mut r = rng(11);
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            t = stream.next_arrival(&mut r, t);
            let phase = t.as_secs_f64() % 10.0;
            assert!(
                phase <= 2.0 + 1e-9,
                "arrival at {t:?} (phase {phase}) is off-window"
            );
        }
    }

    #[test]
    fn bursty_long_run_rate_matches_duty_cycle() {
        let stream = WorkloadStream::new(Workload::BurstyOnOff {
            rate_hz: 10.0,
            on_s: 3.0,
            off_s: 7.0,
        });
        let mut r = rng(5);
        let mut t = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            t = stream.next_arrival(&mut r, t);
        }
        let rate = n as f64 / t.as_secs_f64();
        let expect = stream.workload().mean_rate_hz();
        assert!(
            (rate - expect).abs() / expect < 0.05,
            "rate {rate}, expected {expect}"
        );
    }

    #[test]
    fn convergecast_fires_once_per_round_within_jitter() {
        let stream = WorkloadStream::new(Workload::ConvergecastRounds {
            period_s: 30.0,
            jitter_s: 5.0,
        });
        let mut r = rng(7);
        let mut t = SimTime::ZERO;
        for round in 1..=50u32 {
            t = stream.next_arrival(&mut r, t);
            let (at, base) = (t.as_secs_f64(), round as f64 * 30.0);
            assert!(
                at >= base && at < base + 5.0,
                "round {round} fired at {at}, expected [{base}, {})",
                base + 5.0
            );
        }
    }

    #[test]
    fn convergecast_zero_jitter_is_exact_and_deterministic() {
        let stream = WorkloadStream::new(Workload::ConvergecastRounds {
            period_s: 10.0,
            jitter_s: 0.0,
        });
        let mut r = rng(1);
        let mut t = SimTime::ZERO;
        for round in 1..=5u32 {
            t = stream.next_arrival(&mut r, t);
            assert!((t.as_secs_f64() - round as f64 * 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_strictly_increase_for_every_shape() {
        let shapes = [
            Workload::Poisson { rate_hz: 1_000.0 },
            Workload::BurstyOnOff {
                rate_hz: 1_000.0,
                on_s: 0.5,
                off_s: 0.5,
            },
            Workload::ConvergecastRounds {
                period_s: 0.01,
                jitter_s: 0.005,
            },
        ];
        for (i, w) in shapes.iter().enumerate() {
            let stream = WorkloadStream::new(*w);
            let mut r = rng(20 + i as u64);
            let mut t = SimTime::ZERO;
            for _ in 0..1_000 {
                let next = stream.next_arrival(&mut r, t);
                assert!(next > t, "{} stalled at {t:?}", w.as_str());
                t = next;
            }
        }
    }

    #[test]
    fn mean_rates() {
        assert_eq!(Workload::Poisson { rate_hz: 2.0 }.mean_rate_hz(), 2.0);
        let bursty = Workload::BurstyOnOff {
            rate_hz: 10.0,
            on_s: 1.0,
            off_s: 4.0,
        };
        assert!((bursty.mean_rate_hz() - 2.0).abs() < 1e-12);
        let cc = Workload::ConvergecastRounds {
            period_s: 4.0,
            jitter_s: 0.0,
        };
        assert!((cc.mean_rate_hz() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let bad = |w: Workload, field: &str| {
            assert_eq!(w.validate().unwrap_err().0, field, "{w:?}");
        };
        bad(Workload::Poisson { rate_hz: 0.0 }, "workload.rate_hz");
        bad(
            Workload::BurstyOnOff {
                rate_hz: 1.0,
                on_s: 0.0,
                off_s: 1.0,
            },
            "workload.on_s",
        );
        bad(
            Workload::ConvergecastRounds {
                period_s: 10.0,
                jitter_s: 10.0,
            },
            "workload.jitter_s",
        );
        assert!(Workload::Poisson { rate_hz: 1.0 }.validate().is_ok());
    }
}
