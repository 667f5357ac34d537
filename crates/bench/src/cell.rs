//! The unit of parallel work: one seeded replication of one figure cell.
//!
//! A sweep cell `(figure, point, protocol)` is replicated over several
//! seeds; [`run_cell`] executes exactly one of those replications and
//! captures everything the aggregation layer folds — the twelve metric
//! scalars, the engine's [`RunStats`], the trace health, and both latency
//! histograms — as a [`CellOutput`].
//!
//! The JSON encoding is an **exact** round trip: floats serialise as
//! shortest-round-trip lexemes, histograms reconstruct bit-identically,
//! and the run-loop wall clock is carried at nanosecond precision. That
//! exactness is what makes checkpoint/resume invisible in the results: a
//! [`Summary`] folded from journaled cells equals one folded from live
//! cells, and [`crate::runner::run_replicated`] is *defined* as
//! [`fold_cells`] over [`run_cell`], so the sequential replication path
//! and the parallel grid ([`crate::grid::run_sweep`]) share the same
//! arithmetic by construction.

use std::time::Duration;

use uasn_net::config::SimConfig;
use uasn_sim::engine::RunStats;
use uasn_sim::hist::LogHistogram;
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::stats::Replications;
use uasn_sim::time::SimTime;
use uasn_sim::trace::TraceHealth;

use crate::manifest::{MonitorTotals, StatsAggregate};
use crate::protocols::Protocol;
use crate::runner::{master_seed, run_once_monitored, Summary};

/// Everything one seeded replication produces, in aggregation-ready form.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// Eq-3 throughput, kbps.
    pub throughput_kbps: f64,
    /// Mean node power, mW.
    pub power_mw: f64,
    /// §5.3 overhead bits.
    pub overhead_bits: f64,
    /// Eq-4 raw efficiency (throughput per mW).
    pub efficiency_raw: f64,
    /// Joules per delivered kbit.
    pub energy_per_kbit: f64,
    /// Batch completion time, seconds (max time when never completed).
    pub execution_time_s: f64,
    /// Collisions in the run.
    pub collisions: f64,
    /// MAC delivery latency, seconds.
    pub latency_s: f64,
    /// Extra-communication bits received (EW-MAC only; 0 elsewhere).
    pub extra_bits: f64,
    /// Delivered / generated SDUs.
    pub delivery_ratio: f64,
    /// Jain's fairness index over per-origin deliveries.
    pub fairness: f64,
    /// Mean channel (bandwidth) utilization.
    pub utilization: f64,
    /// Sink goodput: first-delivery payload bits per second, kbps.
    pub sink_throughput_kbps: f64,
    /// End-to-end delivery ratio (first sink arrivals / generated SDUs).
    pub e2e_delivery_ratio: f64,
    /// 90th-percentile end-to-end latency, seconds (0 when nothing
    /// delivered).
    pub e2e_latency_p90_s: f64,
    /// Engine profiling for the run.
    pub stats: RunStats,
    /// Trace-sink health for the run.
    pub trace: TraceHealth,
    /// Performance profile; `Some` iff the cell ran with
    /// `SimConfig::with_profiling(true)`.
    pub profile: Option<ProfileReport>,
    /// Online-monitoring totals (invariant findings + drop verdicts);
    /// `Some` iff the cell ran with `SimConfig::with_monitoring(true)`.
    pub monitor: Option<MonitorTotals>,
    /// Log-bucketed MAC delivery latency.
    pub delivery_hist: LogHistogram,
    /// Log-bucketed end-to-end (generation to sink) latency.
    pub e2e_hist: LogHistogram,
    /// Log-bucketed delivered-path hop counts (routed runs; empty — and
    /// absent from the journal encoding — in single-hop cells).
    pub path_hops: LogHistogram,
}

/// The metric keys, in the order both [`CellOutput::to_json`] and the
/// [`Summary`] fold consume them.
const METRIC_KEYS: [&str; 15] = [
    "throughput_kbps",
    "power_mw",
    "overhead_bits",
    "efficiency_raw",
    "energy_per_kbit",
    "execution_time_s",
    "collisions",
    "latency_s",
    "extra_bits",
    "delivery_ratio",
    "fairness",
    "utilization",
    "sink_throughput_kbps",
    "e2e_delivery_ratio",
    "e2e_latency_p90_s",
];

impl CellOutput {
    fn metrics(&self) -> [f64; 15] {
        [
            self.throughput_kbps,
            self.power_mw,
            self.overhead_bits,
            self.efficiency_raw,
            self.energy_per_kbit,
            self.execution_time_s,
            self.collisions,
            self.latency_s,
            self.extra_bits,
            self.delivery_ratio,
            self.fairness,
            self.utilization,
            self.sink_throughput_kbps,
            self.e2e_delivery_ratio,
            self.e2e_latency_p90_s,
        ]
    }

    /// Serialises into the journal payload object.
    pub fn to_json(&self) -> JsonValue {
        let metrics = METRIC_KEYS
            .iter()
            .zip(self.metrics())
            .map(|(k, v)| (k.to_string(), JsonValue::from_f64(v)))
            .collect();
        let mut fields = vec![
            ("metrics".to_string(), JsonValue::Object(metrics)),
            ("stats".to_string(), self.stats.to_json()),
            // RunStats::to_json truncates wall to microseconds (the
            // manifest precision); carry the exact nanoseconds alongside
            // so the round trip is lossless.
            (
                "stats_wall_ns".to_string(),
                JsonValue::from_u64(self.stats.wall.as_nanos() as u64),
            ),
            ("trace".to_string(), self.trace.to_json()),
            ("delivery_us".to_string(), self.delivery_hist.to_json()),
            ("e2e_us".to_string(), self.e2e_hist.to_json()),
        ];
        // Absent key = single-hop cell (and every pre-routing journal).
        if self.path_hops.count() > 0 {
            fields.push(("path_hops".to_string(), self.path_hops.to_json()));
        }
        if let Some(profile) = &self.profile {
            fields.push(("profile".to_string(), profile.to_json()));
        }
        if let Some(monitor) = &self.monitor {
            fields.push(("monitor".to_string(), monitor.to_json()));
        }
        JsonValue::Object(fields)
    }

    /// Reconstructs a cell from its [`CellOutput::to_json`] form — exact:
    /// the result folds identically to the original.
    pub fn from_json(doc: &JsonValue) -> Option<CellOutput> {
        let metrics = doc.get("metrics")?;
        let mut values = [0.0f64; 15];
        for (slot, key) in values.iter_mut().zip(METRIC_KEYS) {
            *slot = metrics.get(key)?.as_f64()?;
        }
        let mut stats = RunStats::from_json(doc.get("stats")?)?;
        stats.wall = Duration::from_nanos(doc.get("stats_wall_ns")?.as_u64()?);
        // Absent key = unprofiled cell (also every pre-profile journal);
        // a *present but malformed* profile fails the whole decode.
        let profile = match doc.get("profile") {
            Some(p) => Some(ProfileReport::from_json(p)?),
            None => None,
        };
        // Same absent-key convention for the monitor block.
        let monitor = match doc.get("monitor") {
            Some(m) => Some(MonitorTotals::from_json(m)?),
            None => None,
        };
        Some(CellOutput {
            throughput_kbps: values[0],
            power_mw: values[1],
            overhead_bits: values[2],
            efficiency_raw: values[3],
            energy_per_kbit: values[4],
            execution_time_s: values[5],
            collisions: values[6],
            latency_s: values[7],
            extra_bits: values[8],
            delivery_ratio: values[9],
            fairness: values[10],
            utilization: values[11],
            sink_throughput_kbps: values[12],
            e2e_delivery_ratio: values[13],
            e2e_latency_p90_s: values[14],
            stats,
            trace: TraceHealth::from_json(doc.get("trace")?)?,
            profile,
            monitor,
            delivery_hist: LogHistogram::from_json(doc.get("delivery_us")?)?,
            e2e_hist: LogHistogram::from_json(doc.get("e2e_us")?)?,
            path_hops: match doc.get("path_hops") {
                Some(h) => LogHistogram::from_json(h)?,
                None => LogHistogram::new(),
            },
        })
    }
}

/// Runs one seeded replication of `(cfg, protocol)`.
///
/// # Panics
///
/// Panics if the configuration is invalid or the topology cannot be built
/// (a programming error in the experiment definitions, not an input
/// error). Under the `uasn-lab` pool, such a panic is caught and journaled
/// as a failed cell rather than killing the sweep.
pub fn run_cell(cfg: &SimConfig, protocol: Protocol, seed: u64) -> CellOutput {
    let cfg = cfg.clone().with_seed(master_seed(seed));
    let (out, monitor_report) = run_once_monitored(&cfg, protocol);
    let monitor = monitor_report.map(|rep| MonitorTotals::from_run(&rep, out.verdicts.as_ref()));
    let trace = out.tracer.health();
    let stats = out.stats;
    let report = out.report;
    let execution_time_s = report
        .completion_time
        .unwrap_or(SimTime::ZERO + cfg.max_time)
        .as_secs_f64();
    CellOutput {
        throughput_kbps: report.throughput_kbps,
        power_mw: report.avg_power_mw,
        overhead_bits: report.overhead_bits as f64,
        efficiency_raw: report.efficiency_raw(),
        energy_per_kbit: report.energy_per_kbit_j(),
        execution_time_s,
        collisions: report.collisions as f64,
        latency_s: report.mean_latency_s,
        extra_bits: report.extra_bits_received as f64,
        delivery_ratio: report.delivery_ratio(),
        fairness: report.fairness_index,
        utilization: report.channel_utilization,
        sink_throughput_kbps: report.sink_throughput_kbps(),
        e2e_delivery_ratio: report.e2e_delivery_ratio(),
        e2e_latency_p90_s: report.e2e_latency_us.p90().unwrap_or(0) as f64 / 1e6,
        stats,
        trace,
        profile: out.profile,
        monitor,
        delivery_hist: report.delivery_latency_us,
        e2e_hist: report.e2e_latency_us,
        path_hops: report.path_hops,
    }
}

/// Folds per-seed cells into a [`Summary`], **in iteration order**.
///
/// Callers must pass cells in seed order: `Replications` accumulates with
/// Welford's algorithm, whose floating-point result depends on insertion
/// order. The canonical order (ascending seed) is what both
/// [`crate::runner::run_replicated`] and the parallel grid use, so every
/// path produces bit-identical summaries.
pub fn fold_cells<'a>(
    protocol: Protocol,
    cells: impl IntoIterator<Item = &'a CellOutput>,
) -> Summary {
    let mut summary = Summary {
        protocol,
        throughput_kbps: Replications::new(),
        power_mw: Replications::new(),
        overhead_bits: Replications::new(),
        efficiency_raw: Replications::new(),
        energy_per_kbit: Replications::new(),
        execution_time_s: Replications::new(),
        collisions: Replications::new(),
        latency_s: Replications::new(),
        extra_bits: Replications::new(),
        delivery_ratio: Replications::new(),
        fairness: Replications::new(),
        utilization: Replications::new(),
        sink_throughput_kbps: Replications::new(),
        e2e_delivery_ratio: Replications::new(),
        e2e_latency_p90_s: Replications::new(),
        stats: StatsAggregate::default(),
        delivery_hist: LogHistogram::new(),
        e2e_hist: LogHistogram::new(),
        path_hops: LogHistogram::new(),
    };
    for cell in cells {
        summary.stats.absorb(
            &cell.stats,
            &cell.trace,
            cell.profile.as_ref(),
            cell.monitor.as_ref(),
        );
        summary.delivery_hist.merge(&cell.delivery_hist);
        summary.e2e_hist.merge(&cell.e2e_hist);
        summary.path_hops.merge(&cell.path_hops);
        summary.throughput_kbps.add(cell.throughput_kbps);
        summary.power_mw.add(cell.power_mw);
        summary.overhead_bits.add(cell.overhead_bits);
        summary.efficiency_raw.add(cell.efficiency_raw);
        summary.energy_per_kbit.add(cell.energy_per_kbit);
        summary.execution_time_s.add(cell.execution_time_s);
        summary.collisions.add(cell.collisions);
        summary.latency_s.add(cell.latency_s);
        summary.extra_bits.add(cell.extra_bits);
        summary.delivery_ratio.add(cell.delivery_ratio);
        summary.fairness.add(cell.fairness);
        summary.utilization.add(cell.utilization);
        summary.sink_throughput_kbps.add(cell.sink_throughput_kbps);
        summary.e2e_delivery_ratio.add(cell.e2e_delivery_ratio);
        summary.e2e_latency_p90_s.add(cell.e2e_latency_p90_s);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use uasn_sim::time::SimDuration;

    fn tiny_cfg() -> SimConfig {
        SimConfig::paper_default()
            .with_sensors(8)
            .with_offered_load_kbps(0.3)
            .with_sim_time(SimDuration::from_secs(30))
    }

    #[test]
    fn cell_json_round_trip_is_exact() {
        let cell = run_cell(&tiny_cfg(), Protocol::EwMac, 0);
        assert!(cell.profile.is_none(), "profiling is off by default");
        let back = CellOutput::from_json(&cell.to_json()).expect("decode");
        assert_eq!(back, cell, "every field survives, bit for bit");
    }

    #[test]
    fn profiled_cell_round_trips_and_folds_into_the_summary() {
        let cfg = tiny_cfg().with_profiling(true);
        let cell = run_cell(&cfg, Protocol::EwMac, 0);
        let profile = cell.profile.as_ref().expect("profiled cell");
        assert_eq!(profile.runs, 1);
        let back = CellOutput::from_json(&cell.to_json()).expect("decode");
        assert_eq!(back, cell, "profile included in the exact round trip");
        // Metrics are unchanged by profiling: same seed, same numbers.
        let plain = run_cell(&tiny_cfg(), Protocol::EwMac, 0);
        assert_eq!(plain.throughput_kbps, cell.throughput_kbps);
        assert_eq!(plain.collisions, cell.collisions);
        // Folding two profiled cells merges their profiles.
        let other = run_cell(&cfg, Protocol::EwMac, 1);
        let summary = fold_cells(Protocol::EwMac, [&cell, &other]);
        let merged = summary.stats.profile.as_ref().expect("aggregate profile");
        assert_eq!(merged.runs, 2);
        assert_eq!(
            merged.engine.sampled_events,
            cell.profile.as_ref().unwrap().engine.sampled_events
                + other.profile.as_ref().unwrap().engine.sampled_events
        );
    }

    #[test]
    fn folding_round_tripped_cells_equals_folding_originals() {
        let cells: Vec<CellOutput> = (0..2)
            .map(|seed| run_cell(&tiny_cfg(), Protocol::SFama, seed))
            .collect();
        let round_tripped: Vec<CellOutput> = cells
            .iter()
            .map(|c| CellOutput::from_json(&c.to_json()).expect("decode"))
            .collect();
        let a = fold_cells(Protocol::SFama, &cells);
        let b = fold_cells(Protocol::SFama, &round_tripped);
        assert_eq!(a, b, "journal round trip is invisible to aggregation");
        assert_eq!(a.throughput_kbps.count(), 2);
    }

    #[test]
    fn seeds_produce_distinct_cells() {
        let a = run_cell(&tiny_cfg(), Protocol::SFama, 0);
        let b = run_cell(&tiny_cfg(), Protocol::SFama, 1);
        assert_ne!(
            (a.throughput_kbps, a.collisions, a.latency_s),
            (b.throughput_kbps, b.collisions, b.latency_s),
            "different seeds draw different randomness"
        );
    }
}
