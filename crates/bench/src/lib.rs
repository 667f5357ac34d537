//! # uasn-bench — the evaluation harness
//!
//! Reproduces every table and figure of the paper's §5 (the experiment
//! index lives in DESIGN.md; measured-vs-paper comparisons in
//! EXPERIMENTS.md). The library provides the protocol roster, the
//! replicated runner, and figure/table formatting; the `src/bin` targets
//! regenerate individual artifacts. Performance is measured by the
//! standalone `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cli;
pub mod experiments;
pub mod figures;
pub mod grid;
pub mod manifest;
pub mod paths;
pub mod protocols;
pub mod report;
pub mod runner;

pub use cell::CellOutput;
pub use experiments::ExperimentRun;
pub use figures::FigureSpec;
pub use grid::{SweepOptions, SweepOutcome};
pub use manifest::{RunManifest, StatsAggregate};
pub use protocols::Protocol;
pub use report::{FigureResult, Series};
pub use runner::{run_once, run_once_full, run_replicated, Summary, DEFAULT_SEEDS};
