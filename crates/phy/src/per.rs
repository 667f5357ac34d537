//! Packet-error models.
//!
//! NS-3's UAN PHY offers a "default PER" (deterministic threshold on SINR)
//! and modulation-based error models. We mirror that split:
//!
//! * [`PerModel::RangeCutoff`] — the Default-PER-style deterministic model
//!   the headline figures use: inside the communication range a packet
//!   survives unless it collides; outside it is never heard.
//! * [`PerModel::SnrThreshold`] — deterministic on a dB threshold.
//! * [`PerModel::Modulation`] — probabilistic: SNR → Eb/N0 → BER (per
//!   modulation) → PER over the packet length. Used by the failure-injection
//!   tests and the lossy-channel extension experiments.

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerModel {
    /// Deterministic: packets are always received inside `range_m`, never
    /// outside. This is the model behind the paper's headline figures.
    RangeCutoff {
        /// The communication range in metres (1 500 m in Table 2).
        range_m: f64,
    },
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

impl Default for PerModel {
    fn default() -> Self {
        PerModel::RangeCutoff { range_m: 1_500.0 }
    }
}

impl PerModel {
    /// Probability that a `bits`-bit packet is **lost**, given the link
    /// distance and SNR.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative/not finite or `bits` is zero.
    pub fn loss_probability(&self, distance_m: f64, snr_db: f64, bits: u32) -> f64 {
        assert!(
            distance_m.is_finite() && distance_m >= 0.0,
            "distance must be finite and non-negative, got {distance_m}"
        );
        assert!(bits > 0, "packet must contain at least one bit");
        match *self {
            PerModel::RangeCutoff { range_m } => {
                if distance_m <= range_m {
                    0.0
                } else {
                    1.0
                }
            }
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
    /// `snr_db` argument: every model but the range cutoff, which decides
    /// on `distance_m <= range_m` alone. A caller that would compute the
    /// SNR only to hand it over can skip it when this is false.
    pub fn reads_snr(&self) -> bool {
        !matches!(self, PerModel::RangeCutoff { .. })
    }

    /// Whether any packet can ever be heard at this distance/SNR (loss
    /// probability strictly below 1 for a 1-bit packet).
    pub fn is_audible(&self, distance_m: f64, snr_db: f64) -> bool {
        self.loss_probability(distance_m, snr_db, 1) < 1.0
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
        let m = PerModel::RangeCutoff { range_m: 1_500.0 };
        assert_eq!(m.loss_probability(1_500.0, 0.0, 2048), 0.0);
        assert_eq!(m.loss_probability(1_500.1, 100.0, 2048), 1.0);
        assert!(m.is_audible(1_000.0, -100.0));
        assert!(!m.is_audible(2_000.0, 100.0));
    }

    #[test]
    fn snr_threshold_is_binary() {
        let m = PerModel::SnrThreshold { threshold_db: 10.0 };
        assert_eq!(m.loss_probability(1.0, 10.0, 64), 0.0);
        assert_eq!(m.loss_probability(1.0, 9.99, 64), 1.0);
    }

    #[test]
    fn modulation_per_grows_with_packet_size() {
        let m = PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        };
        let short = m.loss_probability(100.0, 10.0, 64);
        let long = m.loss_probability(100.0, 10.0, 4_096);
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
        assert!(m.loss_probability(100.0, 40.0, 2_048) < 1e-9);
        // Very low SNR -> essentially certain loss for long packets.
        assert!(m.loss_probability(100.0, -20.0, 2_048) > 0.999);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        PerModel::default().loss_probability(1.0, 0.0, 0);
    }
}
