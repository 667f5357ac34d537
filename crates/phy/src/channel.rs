//! The assembled acoustic channel.
//!
//! [`AcousticChannel`] is the single object the network simulator queries:
//! given two positions it answers *when* a frame arrives (sound-speed
//! profile), and *whether* it can be heard (PER model over the link budget).
//!
//! `max_range_m` is the channel's one horizon. Every direct or echo path
//! longer than it is lost, whatever the PER model says about its SNR; the
//! PER model decides only inside it. The same range sizes τmax
//! ([`AcousticChannel::max_propagation_delay`]) and so the slot, bounds
//! the fan-out cull and the spatial index, and limits routing candidates,
//! so every pair that can hear each other is at most τmax apart. To model
//! a longer reach, raise `max_range_m`, and all of them follow.
//!
//! Collisions are **not** decided here — overlap detection lives in the
//! per-node [`Modem`](crate::modem::Modem) ledger, because whether two
//! frames overlap depends on the receiver's full arrival history.

use rand::Rng;

use uasn_sim::time::SimDuration;

use crate::geometry::Point;
use crate::noise::AmbientNoise;
use crate::per::PerModel;
use crate::propagation::{LinkBudget, Spreading, TransmissionLoss};
use crate::sound::SoundSpeedProfile;

/// Two-ray multipath: every transmission also reaches receivers via a
/// surface bounce — the image-source path — delayed by the longer geometry
/// and attenuated by the reflection. The echo carries no usable data; it
/// occupies the receiver and interferes with *other* frames (inter-symbol
/// style reverberation), which is the dominant MAC-visible effect of
/// shallow-water multipath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoRayMultipath {
    /// Extra loss of the surface bounce, dB (scattering at the air-water
    /// interface; 3–10 dB typical for moderate sea states).
    pub surface_loss_db: f64,
}

/// Immutable channel configuration shared by the whole network.
///
/// # Examples
///
/// ```
/// use uasn_phy::channel::AcousticChannel;
/// use uasn_phy::geometry::Point;
///
/// let ch = AcousticChannel::paper_default();
/// let a = Point::new(0.0, 0.0, 1_000.0);
/// let b = Point::new(1_500.0, 0.0, 1_000.0);
/// // 1.5 km at 1.5 km/s -> 1 s
/// assert_eq!(ch.propagation_delay(a, b).as_micros(), 1_000_000);
/// assert!(ch.is_audible(a, b));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcousticChannel {
    sound: SoundSpeedProfile,
    budget: LinkBudget,
    per: PerModel,
    max_range_m: f64,
    multipath: Option<TwoRayMultipath>,
}

impl AcousticChannel {
    /// Creates a channel.
    ///
    /// `max_range_m` is the horizon (Table 2: 1 500 m): no path longer
    /// than it is ever heard, and it sizes τmax, neighbour discovery and
    /// routing.
    ///
    /// # Panics
    ///
    /// Panics if `max_range_m` is not finite and positive.
    pub fn new(
        sound: SoundSpeedProfile,
        budget: LinkBudget,
        per: PerModel,
        max_range_m: f64,
    ) -> Self {
        assert!(
            max_range_m.is_finite() && max_range_m > 0.0,
            "max range must be finite and positive, got {max_range_m}"
        );
        AcousticChannel {
            sound,
            budget,
            per,
            max_range_m,
            multipath: None,
        }
    }

    /// Enables two-ray surface-bounce multipath with the given reflection
    /// loss.
    pub fn with_two_ray(mut self, surface_loss_db: f64) -> Self {
        assert!(
            surface_loss_db.is_finite() && surface_loss_db >= 0.0,
            "surface loss must be finite and non-negative, got {surface_loss_db}"
        );
        self.multipath = Some(TwoRayMultipath { surface_loss_db });
        self
    }

    /// The configured multipath model, if any.
    pub fn multipath(&self) -> Option<TwoRayMultipath> {
        self.multipath
    }

    /// Length of the surface-bounce path between two points (image-source
    /// construction: reflect the source across the surface).
    pub fn echo_path_m(&self, from: Point, to: Point) -> f64 {
        // Image source: reflect the transmitter across the surface (z = 0).
        let dx = from.x - to.x;
        let dy = from.y - to.y;
        let dz = -from.z - to.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Propagation delay of the surface echo.
    pub fn echo_delay(&self, from: Point, to: Point) -> SimDuration {
        let secs = self
            .sound
            .propagation_delay_secs(self.echo_path_m(from, to), 0.0, to.depth());
        SimDuration::from_secs_f64(secs)
    }

    /// Whether the surface echo of a transmission is strong enough to
    /// occupy the receiver (audible after the bounce loss, inside the
    /// horizon).
    pub fn echo_audible(&self, from: Point, to: Point) -> bool {
        let Some(mp) = self.multipath else {
            return false;
        };
        let path = self.echo_path_m(from, to);
        match self.per {
            // Emulate the bounce loss as extra effective distance: every
            // 6 dB of loss ≈ a range factor of 2 under practical
            // spreading; keep it simple and require the echo path plus a
            // loss-scaled margin inside the horizon.
            PerModel::Lossless => path * (1.0 + mp.surface_loss_db / 20.0) <= self.max_range_m,
            _ => {
                let snr = self.budget.snr_db(path) - mp.surface_loss_db;
                self.loss_probability_at(path, snr, 1) < 1.0
            }
        }
    }

    /// The channel used for the paper's headline experiments: constant
    /// 1.5 km/s sound speed, practical spreading at 10 kHz, moderate Wenz
    /// noise over a 12 kHz band, and the lossless PER inside the 1.5 km
    /// horizon (the NS-3 "default PER" analogue).
    pub fn paper_default() -> Self {
        AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                170.0,
                TransmissionLoss::new(Spreading::Practical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Lossless,
            1_500.0,
        )
    }

    /// The horizon, metres: the longest path any frame or echo is heard
    /// over.
    pub fn max_range_m(&self) -> f64 {
        self.max_range_m
    }

    /// The sound-speed profile.
    pub fn sound(&self) -> &SoundSpeedProfile {
        &self.sound
    }

    /// The packet-error model.
    pub fn per_model(&self) -> &PerModel {
        &self.per
    }

    /// Worst-case one-hop propagation delay (τmax): the horizon traversed at the slowest surface-to-max-depth mean speed.
    pub fn max_propagation_delay(&self) -> SimDuration {
        // Conservative: evaluate the mean speed at the surface where typical
        // profiles are slowest; for the constant profile this is exact.
        let secs = self
            .sound
            .propagation_delay_secs(self.max_range_m, 0.0, 0.0);
        SimDuration::from_secs_f64(secs)
    }

    /// One-way propagation delay between two positions.
    pub fn propagation_delay(&self, from: Point, to: Point) -> SimDuration {
        let secs = self
            .sound
            .propagation_delay_secs(from.distance(to), from.depth(), to.depth());
        SimDuration::from_secs_f64(secs)
    }

    /// SNR of a transmission from `from` heard at `to`, in dB.
    pub fn snr_db(&self, from: Point, to: Point) -> f64 {
        self.budget.snr_db(from.distance(to))
    }

    /// The link budget (source level, loss model, noise, bandwidth).
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }

    /// Probability that a `bits`-bit frame from `from` is lost at `to`
    /// (before considering collisions).
    pub fn loss_probability(&self, from: Point, to: Point, bits: u32) -> f64 {
        let d = from.distance(to);
        self.loss_probability_at(d, self.budget.snr_db(d), bits)
    }

    /// [`loss_probability`](Self::loss_probability) for a pre-computed
    /// distance and SNR — the entry point used by the
    /// [`LinkBudgetCache`](crate::cache::LinkBudgetCache) fast path. Feeding
    /// back the exact `(distance, snr)` pair this channel computed for a
    /// link yields a bit-identical probability. Beyond the horizon the
    /// loss is certain and `snr_db` is not read.
    pub fn loss_probability_at(&self, distance_m: f64, snr_db: f64, bits: u32) -> f64 {
        if distance_m > self.max_range_m {
            1.0
        } else {
            self.per.loss_probability(snr_db, bits)
        }
    }

    /// Whether `to` can hear transmissions from `from` at all.
    pub fn is_audible(&self, from: Point, to: Point) -> bool {
        self.loss_probability(from, to, 1) < 1.0
    }

    /// Draws whether a specific frame survives the channel (PER only; the
    /// receiver's modem ledger decides collisions separately).
    pub fn draw_delivery<R: Rng>(&self, rng: &mut R, from: Point, to: Point, bits: u32) -> bool {
        let d = from.distance(to);
        self.draw_delivery_at(rng, d, self.budget.snr_db(d), bits)
    }

    /// [`draw_delivery`](Self::draw_delivery) for a pre-computed distance
    /// and SNR. Consumes RNG draws exactly when the position-based form
    /// would (only for probabilities strictly inside (0, 1)), which is what
    /// keeps cached and uncached runs on the same random stream.
    pub fn draw_delivery_at<R: Rng>(
        &self,
        rng: &mut R,
        distance_m: f64,
        snr_db: f64,
        bits: u32,
    ) -> bool {
        let p_loss = self.loss_probability_at(distance_m, snr_db, bits);
        if p_loss <= 0.0 {
            true
        } else if p_loss >= 1.0 {
            false
        } else {
            rng.gen_range(0.0..1.0) >= p_loss
        }
    }

    /// Cell edge for a uniform spatial index over this channel, metres.
    ///
    /// The edge is the horizon padded by [`crate::cache::CULL_MARGIN`]
    /// twice: the first factor is the margin the squared-distance cull
    /// itself applies, the second keeps the 27-cell neighbourhood boundary
    /// a full 5% beyond the cull radius so binning arithmetic (a floored
    /// division) can never skip a node the cull's multiply-compare would
    /// have kept. Always `Some`: every PER model is bounded by the horizon.
    pub fn index_cell_m(&self) -> Option<f64> {
        let margin = crate::cache::CULL_MARGIN;
        Some(self.max_range_m * margin * margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per::Modulation;
    use rand::SeedableRng;

    #[test]
    fn paper_default_delay_numbers() {
        let ch = AcousticChannel::paper_default();
        assert_eq!(ch.max_propagation_delay(), SimDuration::from_secs(1));
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(750.0, 0.0, 0.0);
        assert_eq!(ch.propagation_delay(a, b), SimDuration::from_millis(500));
    }

    #[test]
    fn delay_is_symmetric() {
        let ch = AcousticChannel::paper_default();
        let a = Point::new(10.0, 20.0, 500.0);
        let b = Point::new(900.0, 40.0, 1_200.0);
        assert_eq!(ch.propagation_delay(a, b), ch.propagation_delay(b, a));
    }

    #[test]
    fn audibility_obeys_range_cutoff() {
        let ch = AcousticChannel::paper_default();
        let a = Point::new(0.0, 0.0, 100.0);
        assert!(ch.is_audible(a, Point::new(1_499.0, 0.0, 100.0)));
        assert!(!ch.is_audible(a, Point::new(1_501.0, 0.0, 100.0)));
    }

    #[test]
    fn range_cutoff_delivery_is_deterministic() {
        let ch = AcousticChannel::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Point::new(0.0, 0.0, 0.0);
        let near = Point::new(1_000.0, 0.0, 0.0);
        let far = Point::new(5_000.0, 0.0, 0.0);
        for _ in 0..32 {
            assert!(ch.draw_delivery(&mut rng, a, near, 2_048));
            assert!(!ch.draw_delivery(&mut rng, a, far, 2_048));
        }
    }

    #[test]
    fn modulation_channel_is_probabilistic_mid_range() {
        let ch = AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                140.0, // weak source so mid-range sits in the lossy regime
                TransmissionLoss::new(Spreading::Spherical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
            1_500.0,
        );
        let a = Point::new(0.0, 0.0, 0.0);
        // Find some distance with a genuinely mixed outcome.
        let mut found_mixed = false;
        // The NC-FSK PER knee is only a few dB wide, so scan finely.
        for d in (50..3_000).step_by(5) {
            let b = Point::new(d as f64, 0.0, 0.0);
            let p = ch.loss_probability(a, b, 512);
            if (0.05..0.95).contains(&p) {
                found_mixed = true;
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let deliveries = (0..400)
                    .filter(|_| ch.draw_delivery(&mut rng, a, b, 512))
                    .count();
                assert!(
                    deliveries > 0 && deliveries < 400,
                    "expected mixed outcomes at {d} m (p_loss={p}), got {deliveries}/400"
                );
                break;
            }
        }
        assert!(
            found_mixed,
            "no mid-PER distance found — budget misconfigured"
        );
    }

    #[test]
    fn loss_probability_grows_with_packet_size_on_lossy_channel() {
        let ch = AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                140.0,
                TransmissionLoss::new(Spreading::Spherical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
            1_500.0,
        );
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(1_200.0, 0.0, 0.0);
        assert!(ch.loss_probability(a, b, 4_096) >= ch.loss_probability(a, b, 64));
    }

    #[test]
    fn echo_geometry_is_longer_than_direct() {
        let ch = AcousticChannel::paper_default().with_two_ray(6.0);
        let a = Point::new(0.0, 0.0, 800.0);
        let b = Point::new(500.0, 0.0, 600.0);
        assert!(ch.echo_path_m(a, b) > a.distance(b));
        assert!(ch.echo_delay(a, b) > ch.propagation_delay(a, b));
    }

    #[test]
    fn shallow_nodes_have_audible_echoes_deep_ones_do_not() {
        let ch = AcousticChannel::paper_default().with_two_ray(6.0);
        let a = Point::new(0.0, 0.0, 100.0);
        let b = Point::new(300.0, 0.0, 150.0);
        assert!(ch.echo_audible(a, b), "short bounce path stays in range");
        let deep_a = Point::new(0.0, 0.0, 2_000.0);
        let deep_b = Point::new(300.0, 0.0, 2_100.0);
        assert!(
            !ch.echo_audible(deep_a, deep_b),
            "a 4 km bounce exceeds the 1.5 km range"
        );
    }

    #[test]
    fn no_multipath_means_no_echo() {
        let ch = AcousticChannel::paper_default();
        let a = Point::new(0.0, 0.0, 100.0);
        let b = Point::new(200.0, 0.0, 120.0);
        assert!(ch.multipath().is_none());
        assert!(!ch.echo_audible(a, b));
    }

    #[test]
    fn index_cell_exceeds_the_cull_radius_or_is_absent() {
        use crate::cache::CULL_MARGIN;
        // Modulation PER has no range of its own, but the horizon bounds
        // it as it bounds the lossless model: both get a cell.
        let lossy = AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                140.0,
                TransmissionLoss::new(Spreading::Spherical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
            1_500.0,
        );
        for ch in [AcousticChannel::paper_default(), lossy] {
            let cell = ch.index_cell_m().expect("the horizon bounds every model");
            let cull = ch.max_range_m() * CULL_MARGIN;
            assert!(
                cell > cull,
                "cell edge {cell} must clear the cull radius {cull}"
            );
        }
    }

    #[test]
    fn no_path_is_heard_past_the_horizon() {
        // A 170 dB source closes an NC-FSK link far past 1.5 km; the
        // horizon still ends it there, for the direct path and the echo.
        let ch = AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                170.0,
                TransmissionLoss::new(Spreading::Practical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
            1_500.0,
        )
        .with_two_ray(0.0);
        let a = Point::new(0.0, 0.0, 10.0);
        let far = Point::new(1_600.0, 0.0, 10.0);
        assert!(ch.per_model().loss_probability(ch.snr_db(a, far), 1) < 1.0);
        assert!(!ch.is_audible(a, far));
        assert_eq!(ch.loss_probability(a, far, 1), 1.0);
        assert!(!ch.echo_audible(a, far));
        let near = Point::new(1_499.0, 0.0, 10.0);
        assert!(ch.is_audible(a, near));
        assert!(ch.echo_audible(a, near), "the bounce stays inside 1.5 km");
        let edge = Point::new(1_500.0, 0.0, 10.0);
        assert!(
            !ch.echo_audible(a, edge),
            "the bounce is longer than 1.5 km"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_panics() {
        let _ = AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                170.0,
                TransmissionLoss::new(Spreading::Practical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::default(),
            0.0,
        );
    }
}
