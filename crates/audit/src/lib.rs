//! Trace-driven protocol audit layer.
//!
//! Consumes `uasn-trace` v1 streams (live from a [`uasn_sim::trace::Tracer`]
//! capture or offline from JSONL via [`uasn_sim::trace::parse_jsonl`]) and
//! produces three artifacts:
//!
//! - **Packet journeys** ([`journey`]): per-SDU causal timelines — enqueue,
//!   handshake first contact, data transmission, propagation, sink arrival —
//!   with per-phase durations, for every protocol in the workspace.
//! - **Phase-latency histograms** ([`journey::PhaseHistograms`]):
//!   log-bucketed, exactly mergeable, CSV/JSON-exportable latency
//!   distributions per phase and end-to-end.
//! - **Invariant checking** ([`monitor`], [`invariant`]): the promises of
//!   the simulator and the paper — serial decoded receptions, half-duplex
//!   modems, slot-boundary alignment, EW-MAC's extra-window
//!   non-interference guarantee (§4.3), propagation consistency, and
//!   routing-loop freedom — as one set of incremental state machines
//!   behind a [`uasn_sim::trace::TraceSink`], catching violations *during*
//!   the run with bounded state (no full-trace capture), plus a
//!   fixed-capacity flight recorder that snapshots the records around each
//!   finding. Every finding points at the offending trace record. The
//!   post-hoc [`check`] replays a captured trace through the same
//!   [`MonitorSet::observe`] call, so both paths agree by construction.
//!
//! [`read_trace`] is the one loader from a JSONL file. The library has no
//! binary of its own: `uasn-bench`'s `obs_report` fronts it over a trace
//! or a run manifest (`check`, `journeys`, `latency`, `paths`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod copies;
pub mod invariant;
pub mod journey;
pub mod model;
pub mod monitor;

pub use invariant::{check, Violation, ViolationKind};
pub use journey::{
    reconstruct, reconstruct_paths, slowest, Journey, PathStats, PhaseHistograms, SduPath,
};
pub use model::{read_trace, TraceModel};
pub use monitor::{FlightRecorder, MonitorReport, MonitorSet, StreamingMonitor};
