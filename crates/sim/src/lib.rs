//! # uasn-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the EW-MAC reproduction: a small, allocation-light
//! discrete-event core with the determinism guarantees a protocol study
//! needs.
//!
//! * [`time`] — integer-microsecond [`time::SimTime`] /
//!   [`time::SimDuration`] newtypes with exact slot arithmetic.
//! * [`event`] — a future-event list with stable FIFO ordering of
//!   simultaneous events, plus O(1) FIFO lanes for monotone event streams.
//! * [`engine`] — the generic run loop ([`engine::Engine`] drives any
//!   [`engine::World`]).
//! * [`rng`] — labelled, independently derived random streams so adding a
//!   draw in one component never perturbs another.
//! * [`stats`] — streaming accumulators, time-weighted integrals, histograms,
//!   and cross-seed replication summaries.
//! * [`hash`] — a std-only Fx-style hasher ([`hash::FxHashMap`]) for the
//!   per-event maps keyed by simulator-minted integers.
//! * [`hist`] — mergeable log-bucketed integer histograms ([`hist::LogHistogram`])
//!   for latency percentiles with no floats in the bucket math.
//! * [`profile`] — zero-overhead-when-off performance observability:
//!   metrics registry (counters, gauges, log-bucketed timing histograms),
//!   scoped stopwatches, and the mergeable [`profile::ProfileReport`]
//!   exported by instrumented runs.
//! * [`trace`] — level-gated structured tracing with pluggable sinks
//!   (bounded capture, ring buffer, streaming JSONL) used by the test suite
//!   to assert protocol-level invariants and by the observability layer to
//!   export runs.
//! * [`json`] — dependency-free JSON writer/parser backing JSONL traces and
//!   run manifests.
//!
//! # Examples
//!
//! A two-event world:
//!
//! ```
//! use uasn_sim::engine::{Engine, Schedule, World};
//! use uasn_sim::time::{SimDuration, SimTime};
//!
//! struct Ping(u32);
//! impl World for Ping {
//!     type Event = &'static str;
//!     fn handle(&mut self, _t: SimTime, ev: &'static str, sched: &mut Schedule<'_, &'static str>) {
//!         self.0 += 1;
//!         if ev == "ping" {
//!             sched.after(SimDuration::from_millis(750), "pong");
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.seed_event(SimTime::ZERO, "ping");
//! let mut world = Ping(0);
//! engine.run(&mut world, SimTime::from_secs(10));
//! assert_eq!(world.0, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod hash;
pub mod hist;
pub mod json;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, EventLabel, RunStats, Schedule, StopReason, World};
pub use event::EventQueue;
pub use hash::{FxHashMap, FxHashSet};
pub use hist::LogHistogram;
pub use profile::{
    EngineCost, KindCost, MetricsRegistry, MetricsSnapshot, ProfileReport, Stopwatch,
};
pub use rng::SeedFactory;
pub use time::{SimDuration, SimTime};
