//! # uasn-phy — underwater acoustic physical-layer substrate
//!
//! Everything below the MAC in the EW-MAC reproduction:
//!
//! * [`geometry`] — 3-D points (z = depth, positive down) and deployment
//!   regions.
//! * [`sound`] — sound-speed profiles (constant, linear, Mackenzie) and
//!   propagation delays.
//! * [`absorption`] — Thorp and Fisher–Simmons frequency-dependent
//!   absorption.
//! * [`band`] — AN-product operating-band optimisation (Stojanovic 2007).
//! * [`noise`] — Wenz four-component ambient noise.
//! * [`propagation`] — spreading + absorption transmission loss and the
//!   receiver link budget.
//! * [`per`] — packet-error models inside the channel's horizon: lossless
//!   (the paper's regime), SNR threshold, and modulation-based BER/PER.
//! * [`cache`] — per-pair link-budget memoization for the fan-out hot path.
//! * [`grid`] — uniform spatial index bounding each fan-out to neighbour
//!   cells.
//! * [`soa`] — struct-of-arrays position storage for the hot path.
//! * [`modem`] — the half-duplex modem with an overlap (collision) ledger.
//! * [`timestamp`] — §4.3 frame stamping and arrival back-dating arithmetic.
//! * [`energy`] — power-state energy metering in the paper's mW units.
//! * [`mobility`] — the paper's static/horizontal/vertical location models.
//! * [`channel`] — the assembled channel the network simulator queries.
//!
//! The substitution rationale for this analytic stack standing in for the
//! authors' NS-3/Bellhop setup is recorded in `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use uasn_phy::channel::AcousticChannel;
//! use uasn_phy::geometry::Point;
//!
//! let ch = AcousticChannel::paper_default();
//! let deep = Point::new(0.0, 0.0, 2_000.0);
//! let shallow = Point::new(400.0, 300.0, 1_000.0);
//! assert!(ch.is_audible(deep, shallow));
//! let tau = ch.propagation_delay(deep, shallow);
//! assert!(tau < ch.max_propagation_delay());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorption;
pub mod band;
pub mod cache;
pub mod channel;
pub mod energy;
pub mod geometry;
pub mod grid;
pub mod mobility;
pub mod modem;
pub mod noise;
pub mod per;
pub mod propagation;
pub mod soa;
pub mod sound;
pub mod timestamp;

pub use cache::{CacheStats, CachedLink, LinkBudgetCache};
pub use channel::AcousticChannel;
pub use energy::{EnergyMeter, PowerProfile};
pub use geometry::{Point, Region};
pub use grid::SpatialGrid;
pub use mobility::MobilityModel;
pub use modem::{Modem, ModemSpec, ModemState};
pub use per::{Modulation, PerModel};
pub use soa::{PositionSource, PositionTable};
pub use sound::SoundSpeedProfile;
