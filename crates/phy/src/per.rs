//! Packet-error models.
//!
//! NS-3's UAN PHY offers a "default PER" (deterministic threshold on SINR)
//! and modulation-based error models. We mirror that split:
//!
//! * [`PerModel::Lossless`] — the Default-PER-style deterministic model
//!   the headline figures use: a packet survives unless it collides.
//! * [`PerModel::SnrThreshold`] — deterministic on a dB threshold.
//! * [`PerModel::Modulation`] — probabilistic: SNR → Eb/N0 → BER (per
//!   modulation) → PER over the packet length. Used by the failure-injection
//!   tests and the lossy-channel extension experiments.
//!
//! A model decides on the SNR alone. Range is not its business: the
//! channel's horizon,
//! [`AcousticChannel::max_range_m`](crate::channel::AcousticChannel::max_range_m),
//! loses every path beyond it before a model is asked, so under every
//! model a frame is heard only inside the range τmax is sized for.

use crate::noise::db_to_linear;

/// Modulation schemes with closed-form AWGN bit-error rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modulation {
    /// Coherent binary phase-shift keying: `BER = Q(sqrt(2 Eb/N0))`.
    #[default]
    Bpsk,
    /// Non-coherent binary frequency-shift keying:
    /// `BER = 0.5 exp(−Eb/N0 / 2)` — the robust classic for acoustic modems.
    NcFsk,
    /// Differentially-coherent PSK: `BER = 0.5 exp(−Eb/N0)`.
    Dpsk,
}

impl Modulation {
    /// Bit-error rate at the given linear `Eb/N0`.
    ///
    /// # Panics
    ///
    /// Panics if `eb_n0` is negative or not finite.
    pub fn ber(self, eb_n0: f64) -> f64 {
        assert!(
            eb_n0.is_finite() && eb_n0 >= 0.0,
            "Eb/N0 must be finite and non-negative, got {eb_n0}"
        );
        match self {
            Modulation::Bpsk => q_function((2.0 * eb_n0).sqrt()),
            Modulation::NcFsk => 0.5 * (-eb_n0 / 2.0).exp(),
            Modulation::Dpsk => 0.5 * (-eb_n0).exp(),
        }
    }
}

/// The Gaussian tail function Q(x) via the complementary error function.
fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function, Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| ≤ 1.5e-7 — far below anything that matters for a
/// PER model).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let result = poly * (-x_abs * x_abs).exp();
    if sign_negative {
        2.0 - result
    } else {
        result
    }
}

/// A packet-error model: maps link conditions to a loss probability.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PerModel {
    /// Deterministic: every packet inside the channel's horizon is
    /// received. This is the model behind the paper's headline figures.
    #[default]
    Lossless,
    /// Deterministic: received iff SNR ≥ `threshold_db`.
    SnrThreshold {
        /// Minimum workable SNR in dB.
        threshold_db: f64,
    },
    /// Probabilistic via modulation BER over the packet length.
    Modulation {
        /// Modulation scheme.
        scheme: Modulation,
        /// Processing gain BW/R applied to convert SNR to Eb/N0 (linear).
        bandwidth_over_bitrate: f64,
    },
}

impl PerModel {
    /// Probability that a `bits`-bit packet inside the channel's horizon
    /// is **lost**, given the link SNR.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn loss_probability(&self, snr_db: f64, bits: u32) -> f64 {
        assert!(bits > 0, "packet must contain at least one bit");
        match *self {
            PerModel::Lossless => 0.0,
            PerModel::SnrThreshold { threshold_db } => {
                if snr_db >= threshold_db {
                    0.0
                } else {
                    1.0
                }
            }
            PerModel::Modulation {
                scheme,
                bandwidth_over_bitrate,
            } => {
                let eb_n0 = db_to_linear(snr_db) * bandwidth_over_bitrate;
                let ber = scheme.ber(eb_n0);
                1.0 - (1.0 - ber).powi(bits as i32)
            }
        }
    }

    /// Whether [`loss_probability`](Self::loss_probability) reads its
    /// `snr_db` argument: every model but [`PerModel::Lossless`]. A caller
    /// that would compute the SNR only to hand it over can skip it when
    /// this is false.
    pub fn reads_snr(&self) -> bool {
        !matches!(self, PerModel::Lossless)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn bpsk_reference_ber() {
        // Classic checkpoint: BPSK at Eb/N0 = 9.6 dB -> BER ~1e-5.
        let eb_n0 = db_to_linear(9.6);
        let ber = Modulation::Bpsk.ber(eb_n0);
        assert!((ber - 1e-5).abs() / 1e-5 < 0.2, "got {ber}");
    }

    #[test]
    fn ncfsk_reference_ber() {
        // NC-FSK: BER = 0.5 exp(-Eb/N0/2); at Eb/N0 = 10 (10 dB): 0.5 e^-5.
        let ber = Modulation::NcFsk.ber(10.0);
        assert!((ber - 0.5 * (-5.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn ber_decreases_with_snr_for_all_schemes() {
        for scheme in [Modulation::Bpsk, Modulation::NcFsk, Modulation::Dpsk] {
            let mut prev = 1.0;
            for snr in [0.1, 1.0, 4.0, 10.0, 30.0] {
                let ber = scheme.ber(snr);
                assert!(ber < prev, "{scheme:?} not monotone at {snr}");
                assert!((0.0..=0.5).contains(&ber));
                prev = ber;
            }
        }
    }

    #[test]
    fn range_cutoff_is_binary() {
        // The lossless model ignores the SNR; the channel's horizon makes
        // the cutoff.
        let m = PerModel::Lossless;
        assert_eq!(m.loss_probability(-100.0, 2048), 0.0);
        assert_eq!(m.loss_probability(f64::NAN, 2048), 0.0);
        assert!(!m.reads_snr());
        let ch = crate::channel::AcousticChannel::paper_default();
        assert_eq!(ch.loss_probability_at(1_500.0, f64::NAN, 2048), 0.0);
        assert_eq!(ch.loss_probability_at(1_500.1, 100.0, 2048), 1.0);
    }

    #[test]
    fn snr_threshold_is_binary() {
        let m = PerModel::SnrThreshold { threshold_db: 10.0 };
        assert_eq!(m.loss_probability(10.0, 64), 0.0);
        assert_eq!(m.loss_probability(9.99, 64), 1.0);
    }

    #[test]
    fn modulation_per_grows_with_packet_size() {
        let m = PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        };
        let short = m.loss_probability(10.0, 64);
        let long = m.loss_probability(10.0, 4_096);
        assert!(long > short);
        assert!((0.0..=1.0).contains(&short) && (0.0..=1.0).contains(&long));
    }

    #[test]
    fn modulation_per_limits() {
        let m = PerModel::Modulation {
            scheme: Modulation::Bpsk,
            bandwidth_over_bitrate: 1.0,
        };
        // Very high SNR -> essentially lossless.
        assert!(m.loss_probability(40.0, 2_048) < 1e-9);
        // Very low SNR -> essentially certain loss for long packets.
        assert!(m.loss_probability(-20.0, 2_048) > 0.999);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        PerModel::default().loss_probability(0.0, 0);
    }
}
