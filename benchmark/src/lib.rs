//! The repository benchmark: four seeded workloads measured end to end
//! through the product path, an outside-in traced pass that splits the
//! time by layer, output digests, and a bound-applying comparison. See
//! `README.md` beside this crate for the workloads, metrics and method.

pub mod digest;
pub mod probe;
pub mod run;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workload;
