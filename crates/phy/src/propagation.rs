//! Acoustic transmission loss and link budget.
//!
//! Substitution note (DESIGN.md): the paper used NS-3's Bellhop-based UAN
//! channel. At the ranges and band in play (≤1.5 km, ~10 kHz) the MAC-level
//! behaviour depends on delay geometry and on whether a link closes, which
//! the standard analytic loss `TL = k·10 log r + a(f)·r` captures. We expose
//! the spreading exponent so both spherical (k = 2) and the practical
//! (k = 1.5) regimes are available.

use crate::absorption::thorp_db_per_km;
use crate::noise::{linear_to_db, AmbientNoise};

/// Geometric spreading law for transmission loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Spreading {
    /// Cylindrical spreading (k = 1), shallow-water ducted propagation.
    Cylindrical,
    /// The common in-between "practical" spreading (k = 1.5).
    #[default]
    Practical,
    /// Spherical spreading (k = 2), deep open water.
    Spherical,
}

impl Spreading {
    /// The spreading exponent `k`.
    pub fn exponent(self) -> f64 {
        match self {
            Spreading::Cylindrical => 1.0,
            Spreading::Practical => 1.5,
            Spreading::Spherical => 2.0,
        }
    }
}

/// Analytic transmission-loss model: spreading + Thorp absorption.
///
/// # Examples
///
/// ```
/// use uasn_phy::propagation::{Spreading, TransmissionLoss};
///
/// let tl = TransmissionLoss::new(Spreading::Practical, 10.0);
/// let near = tl.loss_db(100.0);
/// let far = tl.loss_db(1_500.0);
/// assert!(far > near);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionLoss {
    spreading: Spreading,
    frequency_khz: f64,
    absorption_db_per_km: f64,
}

impl TransmissionLoss {
    /// Creates a loss model at the given centre frequency in kHz.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_khz` is not finite and positive.
    pub fn new(spreading: Spreading, frequency_khz: f64) -> Self {
        TransmissionLoss {
            spreading,
            frequency_khz,
            absorption_db_per_km: thorp_db_per_km(frequency_khz),
        }
    }

    /// The configured centre frequency in kHz.
    pub fn frequency_khz(&self) -> f64 {
        self.frequency_khz
    }

    /// One-way transmission loss in dB over `distance_m` metres.
    ///
    /// Distances below 1 m are clamped to 1 m (the reference distance of the
    /// source-level convention), so the loss is never negative.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative or not finite.
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        assert!(
            distance_m.is_finite() && distance_m >= 0.0,
            "distance must be finite and non-negative, got {distance_m}"
        );
        let r = distance_m.max(1.0);
        self.spreading.exponent() * 10.0 * r.log10() + self.absorption_db_per_km * r / 1_000.0
    }
}

/// A transmit source level plus the loss/noise environment: everything
/// needed to compute receiver SNR.
///
/// The ambient noise enters only through its level over the receiver band,
/// which depends on nothing but the constructor inputs, so it is evaluated
/// once here rather than on every [`snr_db`](Self::snr_db) call.
///
/// # Examples
///
/// ```
/// use uasn_phy::noise::AmbientNoise;
/// use uasn_phy::propagation::{LinkBudget, Spreading, TransmissionLoss};
///
/// let budget = LinkBudget::new(
///     170.0, // source level, dB re µPa @ 1 m
///     TransmissionLoss::new(Spreading::Practical, 10.0),
///     AmbientNoise::default(),
///     10_000.0, // receiver bandwidth, Hz
/// );
/// let snr_near = budget.snr_db(200.0);
/// let snr_far = budget.snr_db(1_500.0);
/// assert!(snr_near > snr_far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    source_level_db: f64,
    loss: TransmissionLoss,
    /// `noise.band_level_db(fc, bandwidth_hz)`, dB re µPa.
    noise_db: f64,
    bandwidth_hz: f64,
}

impl LinkBudget {
    /// Creates a link budget.
    ///
    /// `source_level_db` is in dB re µPa at 1 m; typical acoustic modems emit
    /// 165–190 dB.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz` is not finite and positive or
    /// `source_level_db` is not finite.
    pub fn new(
        source_level_db: f64,
        loss: TransmissionLoss,
        noise: AmbientNoise,
        bandwidth_hz: f64,
    ) -> Self {
        assert!(
            source_level_db.is_finite(),
            "source level must be finite, got {source_level_db}"
        );
        assert!(
            bandwidth_hz.is_finite() && bandwidth_hz > 0.0,
            "bandwidth must be finite and positive, got {bandwidth_hz}"
        );
        LinkBudget {
            source_level_db,
            loss,
            noise_db: noise.band_level_db(loss.frequency_khz(), bandwidth_hz),
            bandwidth_hz,
        }
    }

    /// Received signal level at `distance_m`, dB re µPa.
    pub fn received_level_db(&self, distance_m: f64) -> f64 {
        self.source_level_db - self.loss.loss_db(distance_m)
    }

    /// Signal-to-noise ratio at `distance_m`, in dB:
    /// `SL − TL(r) − (NSD(fc) + 10 log BW)`.
    pub fn snr_db(&self, distance_m: f64) -> f64 {
        self.received_level_db(distance_m) - self.noise_db
    }

    /// Converts an SNR in dB into the per-bit `Eb/N0` ratio (linear) for a
    /// link at `bitrate_bps`: `Eb/N0 = SNR · BW / R`.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate_bps` is not finite and positive.
    pub fn eb_n0_linear(&self, snr_db: f64, bitrate_bps: f64) -> f64 {
        assert!(
            bitrate_bps.is_finite() && bitrate_bps > 0.0,
            "bitrate must be finite and positive, got {bitrate_bps}"
        );
        crate::noise::db_to_linear(snr_db) * self.bandwidth_hz / bitrate_bps
    }

    /// Linear SNR back to dB (convenience re-export for callers building
    /// custom PER models).
    pub fn linear_to_db(linear: f64) -> f64 {
        linear_to_db(linear)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{Shipping, WindSpeed};

    fn budget() -> LinkBudget {
        LinkBudget::new(
            170.0,
            TransmissionLoss::new(Spreading::Practical, 10.0),
            AmbientNoise::new(Shipping::moderate(), WindSpeed::new(5.0)),
            10_000.0,
        )
    }

    #[test]
    fn loss_monotone_in_distance() {
        let tl = TransmissionLoss::new(Spreading::Spherical, 10.0);
        let mut prev = -1.0;
        for r in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
            let l = tl.loss_db(r);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn loss_at_reference_distance_is_zero() {
        let tl = TransmissionLoss::new(Spreading::Spherical, 10.0);
        assert!(tl.loss_db(1.0).abs() < 0.01);
        // sub-metre clamps to the reference distance
        assert_eq!(tl.loss_db(0.0), tl.loss_db(1.0));
    }

    #[test]
    fn spreading_exponents_order_losses() {
        let r = 1_000.0;
        let cyl = TransmissionLoss::new(Spreading::Cylindrical, 10.0).loss_db(r);
        let pra = TransmissionLoss::new(Spreading::Practical, 10.0).loss_db(r);
        let sph = TransmissionLoss::new(Spreading::Spherical, 10.0).loss_db(r);
        assert!(cyl < pra && pra < sph);
    }

    #[test]
    fn spherical_loss_hand_value() {
        // 1 km spherical at 10 kHz: 20 log 1000 = 60 dB + ~1.1 dB absorption.
        let tl = TransmissionLoss::new(Spreading::Spherical, 10.0).loss_db(1_000.0);
        assert!((60.0..62.5).contains(&tl), "got {tl}");
    }

    #[test]
    fn snr_declines_with_range() {
        let b = budget();
        assert!(b.snr_db(100.0) > b.snr_db(500.0));
        assert!(b.snr_db(500.0) > b.snr_db(1_500.0));
    }

    #[test]
    fn modem_class_budget_closes_at_paper_range() {
        // A 170 dB source should comfortably close a 1.5 km link at 10 kHz
        // (the paper's communication range).
        let b = budget();
        assert!(
            b.snr_db(1_500.0) > 10.0,
            "SNR at 1.5 km = {}",
            b.snr_db(1_500.0)
        );
    }

    #[test]
    fn eb_n0_scales_with_bitrate() {
        let b = budget();
        let low_rate = b.eb_n0_linear(10.0, 1_000.0);
        let high_rate = b.eb_n0_linear(10.0, 10_000.0);
        assert!((low_rate / high_rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn snr_is_bit_identical_to_the_per_call_noise_formula() {
        let settings = [
            (AmbientNoise::default(), 12_000.0, 10.0),
            (
                AmbientNoise::new(Shipping::moderate(), WindSpeed::new(12.0)),
                4_000.0,
                25.0,
            ),
        ];
        for spreading in [
            Spreading::Cylindrical,
            Spreading::Practical,
            Spreading::Spherical,
        ] {
            for &(noise, bw, fc) in &settings {
                let tl = TransmissionLoss::new(spreading, fc);
                let b = LinkBudget::new(170.0, tl, noise, bw);
                let formula = |d: f64| 170.0 - tl.loss_db(d) - noise.band_level_db(fc, bw);
                for k in 0..=2_000 {
                    let d = k as f64 * 50.0 + (k % 7) as f64 * 0.137;
                    assert_eq!(
                        b.snr_db(d).to_bits(),
                        formula(d).to_bits(),
                        "{spreading:?} at {d} m"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_panics() {
        let _ = TransmissionLoss::new(Spreading::Practical, 10.0).loss_db(-5.0);
    }
}
