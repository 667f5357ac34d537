//! # uasn-net — network substrate for the EW-MAC reproduction
//!
//! Sits between the physical layer (`uasn-phy`) and the MAC protocols
//! (`uasn-ewmac`, `uasn-baselines`):
//!
//! * [`node`], [`packet`] — identities, frames (Table 1 kinds), SDUs.
//! * [`slots`] — the synchronized `ω + τmax` slot clock and Eq 5 Ack-slot
//!   arithmetic.
//! * [`topology`] — Figure-1-style layered-column deployment (connectivity
//!   guaranteed) plus the Table-2-literal uniform box.
//! * [`traffic`] — every arrival process: Poisson offered load, Figure 8's
//!   batch mode, bursty on/off and convergecast rounds.
//! * [`routing`] — greedy depth routing toward surface sinks.
//! * [`neighbor`] — one-hop (EW-MAC) and two-hop (ROPA/CS-MAC) delay tables.
//! * [`mac`] — the [`mac::MacProtocol`] trait, context, and
//!   maintenance-cost profiles.
//! * [`slotted`] — the slotted RTS/CTS/Data/Ack handshake every slotted
//!   MAC shares, with [`quiet`] windows and the [`priority`] (`rp`) rule.
//! * [`world`] — the event-driven network simulator
//!   ([`world::Simulation`]).
//! * [`metrics`] — the paper's measurement axes (Eq 2–4, §5.2–§5.3).
//! * [`sdu`] — the per-SDU table the world keeps, indexed by SDU id.
//! * [`sampling`] — the periodic time-series sampler behind
//!   [`config::SimConfig::sample_interval`].
//! * [`config`] — Table 2 as a validated builder.
//! * [`analysis`] — static topology diagnostics (hidden terminals, delay
//!   distributions, exploitable waiting windows).
//!
//! # Examples
//!
//! Build and run a network once a protocol crate supplies a factory:
//!
//! ```no_run
//! use uasn_net::config::SimConfig;
//! use uasn_net::world::Simulation;
//! # fn factory(_: uasn_net::node::NodeId) -> Box<dyn uasn_net::mac::MacProtocol> { unimplemented!() }
//!
//! let report = Simulation::new(SimConfig::paper_default(), &factory)
//!     .expect("valid configuration")
//!     .run();
//! println!("{:.3} kbps, {:.1} mW", report.throughput_kbps, report.avg_power_mw);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod error;
pub mod mac;
pub mod metrics;
pub mod neighbor;
pub mod node;
pub mod packet;
pub mod priority;
pub mod quiet;
pub mod record;
pub mod routing;
pub mod sampling;
pub mod sdu;
pub mod slots;
pub mod slotted;
pub mod topology;
pub mod traffic;
#[cfg(test)]
mod workload;
pub mod world;

pub use config::SimConfig;
pub use error::BuildNetworkError;
pub use mac::{
    DropReason, MacContext, MacProtocol, MaintenanceProfile, NeighborInfoScope, Reception,
    TimerToken,
};
pub use metrics::{DeliveryMetrics, DropVerdict, MetricsReport, NodeCounters, VerdictHistogram};
pub use node::{NodeId, NodeInfo, NodeRole};
pub use packet::{Frame, FrameKind, Sdu};
pub use quiet::QuietSchedule;
pub use sampling::{NodeSample, Snapshot, TimeSeries};
pub use slots::{SlotClock, SlotIndex};
pub use world::{RunOutput, Simulation};
