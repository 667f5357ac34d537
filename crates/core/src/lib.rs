//! # uasn-ewmac — the paper's primary contribution
//!
//! EW-MAC ("Exploit Waiting resources MAC") from Hung & Luo, *A Protocol
//! for Efficient Transmissions in UASNs* (ICDCSW 2013) / *Protocol to
//! Exploit Waiting Resources for UASNs* (Sensors 2016): a slotted,
//! synchronized four-way-handshake MAC for underwater acoustic sensor
//! networks that lets contention losers reuse the precisely-predictable
//! idle windows of already-negotiated neighbours for interference-free
//! **extra communications**.
//!
//! EW-MAC runs on the slotted handshake core of `uasn-net`
//! ([`uasn_net::slotted`]), which already carries the `rp` priority and
//! aggregation; this crate adds the extra communications.
//!
//! * [`config`] — protocol parameters, including the `enable_extra`
//!   ablation switch.
//! * [`extra`] — the §4.2 timing algebra: EXR windows, Eq 6 EXData timing,
//!   grant timeouts.
//! * [`protocol`] — the [`EwMac`] state machine implementing
//!   [`MacProtocol`](uasn_net::mac::MacProtocol).
//!
//! # Examples
//!
//! ```
//! use uasn_ewmac::{EwMac, EwMacConfig};
//! use uasn_net::config::SimConfig;
//! use uasn_net::node::NodeId;
//! use uasn_net::world::Simulation;
//!
//! let cfg = SimConfig::paper_default()
//!     .with_sensors(10)
//!     .with_sim_time(uasn_sim::time::SimDuration::from_secs(30));
//! let factory = |id: NodeId| -> Box<dyn uasn_net::mac::MacProtocol> {
//!     Box::new(EwMac::new(id, EwMacConfig::default()))
//! };
//! let report = Simulation::new(cfg, &factory).expect("valid").run();
//! assert_eq!(report.protocol, "EW-MAC");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod extra;
pub mod protocol;

pub use config::EwMacConfig;
pub use extra::ObservedNegotiation;
pub use protocol::EwMac;
