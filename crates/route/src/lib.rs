//! Depth-based multi-hop routing and end-to-end transport.
//!
//! The paper's layered-column deployment (Figure 1) is inherently
//! multi-hop: *"sensors at greater depths transmit packets to sensors
//! closer to the surface"*. This crate supplies the network layer that
//! sits between SDU generation and the MAC protocols:
//!
//! - [`policy`] — depth-based ("pressure") next-hop selection: the
//!   forwarder picks among strictly-shallower in-range candidates by a
//!   configurable policy, with deterministic seeded tie-breaking. The
//!   survey literature makes this the canonical UASN network layer for
//!   exactly this topology; it needs no global route state, only local
//!   depth knowledge.
//! - [`transport`] — a minimal end-to-end reliability layer: the origin
//!   keeps a copy of every SDU it injects, arms a timeout, and
//!   retransmits with exponential backoff until a sink ack arrives or a
//!   bounded retry budget is exhausted.
//!
//! The crate is deliberately independent of `uasn-net`: it operates on
//! caller-supplied candidate lists and plain integer node ids, so the
//! policy and transport state machines are directly unit- and
//! property-testable without building a network. `uasn-net::world` owns
//! the integration (candidate gathering, trace emission, verdict
//! accounting).
//!
//! Arrival processes are not here: `uasn-net`'s `TrafficPattern` is the
//! one description of every traffic shape and draws its own arrivals.
//!
//! Everything here is allocation-conscious on the hot path: candidate
//! selection never allocates and the transport table reuses its map
//! storage.

pub mod policy;
pub mod transport;

pub use policy::{select_next_hop, Candidate, ForwardPolicy, RouteConfig, DEFAULT_TTL};
pub use transport::{PendingSdu, TimeoutVerdict, TransportConfig, TransportTable};
