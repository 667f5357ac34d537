//! # uasn-baselines — the comparison protocols of the EW-MAC evaluation
//!
//! Clean-room implementations of the MAC protocols §5 of the paper compares
//! EW-MAC against, each as characterised there (full citations in
//! DESIGN.md):
//!
//! * [`SFama`] — Slotted FAMA: the plain `ω + τmax` handshake, maximal
//!   reservation, no reuse, no neighbour state. The baseline for the
//!   overhead ratio and efficiency index.
//! * [`Ropa`] — Reverse Opportunistic Packet Appending: sender-side reuse
//!   via RTA requests during the RTS→CTS wait; two-hop maintenance.
//! * [`CsMac`] — Channel Stealing MAC: direct, unnegotiated data into
//!   computed gaps; cheapest reuse at low load, interference-prone at high
//!   load; heavy two-hop piggyback.
//! * [`Aloha`] — unslotted send-and-pray sanity floor (not in the paper).
//!
//! All four plug into `uasn-net`'s [`MacProtocol`](uasn_net::mac::MacProtocol).
//! S-FAMA, ROPA and CS-MAC wrap the slotted handshake engine
//! [`SlottedCore`](uasn_net::slotted::SlottedCore) (EW-MAC wraps the same
//! one); ALOHA is unslotted and runs its own send-and-retry loop.
//!
//! # Examples
//!
//! ```
//! use uasn_baselines::SFama;
//! use uasn_net::config::SimConfig;
//! use uasn_net::node::NodeId;
//! use uasn_net::world::Simulation;
//!
//! let cfg = SimConfig::paper_default()
//!     .with_sensors(10)
//!     .with_sim_time(uasn_sim::time::SimDuration::from_secs(30));
//! let factory = |id: NodeId| -> Box<dyn uasn_net::mac::MacProtocol> {
//!     Box::new(SFama::new(id))
//! };
//! let report = Simulation::new(cfg, &factory).expect("valid").run();
//! assert_eq!(report.protocol, "S-FAMA");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod csmac;
pub mod ropa;
pub mod sfama;

pub use aloha::Aloha;
pub use csmac::CsMac;
pub use ropa::Ropa;
pub use sfama::SFama;
