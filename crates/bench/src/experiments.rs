//! The experiment plumbing behind every table and figure of §5 plus the
//! extensions (DESIGN.md experiment index).
//!
//! Each experiment is *declared* in [`crate::figures::REGISTRY`] and run
//! by the `uasn-lab` grid ([`crate::grid::run_sweep`], `lab run --figures
//! <id>`) cell by cell on a worker pool. Aggregation lives in the private
//! `assemble`, which walks the figure's grid in canonical order — so a
//! figure regenerated on any number of workers, across any kill/resume
//! split, is byte-identical.
//!
//! All §5 experiments run with the paper's location models enabled (each
//! node randomly static / horizontal drift / vertical drift, ≤1 m/s —
//! §5: "the location models include non-moved, moved horizontal, or moved
//! vertical"). Axis note (EXPERIMENTS.md): this reproduction's absolute
//! kbps axes are roughly 2× the paper's because Eq 2–3 count every MAC-hop
//! delivery in a forwarding column; shapes and orderings are the
//! reproduction targets.

use std::io;
use std::path::Path;

use uasn_net::config::SimConfig;

use crate::figures::FigureSpec;
use crate::manifest::{RunManifest, StatsAggregate};
use crate::protocols::Protocol;
use crate::report::{FigureResult, Series};
use crate::runner::Summary;

/// One regenerated artifact: the figure plus its run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRun {
    /// The reproduced figure/table data.
    pub figure: FigureResult,
    /// The machine-readable record of how it was produced.
    pub manifest: RunManifest,
}

impl ExperimentRun {
    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.manifest.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        self.figure.write_csv(dir)?;
        self.manifest.write(dir).map(|_| ())
    }

    /// The aligned console table ([`FigureResult::to_table`]).
    pub fn to_table(&self) -> String {
        self.figure.to_table()
    }
}

/// Mobility cap for the headline experiments, m/s.
pub const PAPER_DRIFT_MS: f64 = 1.0;

/// The base configuration every §5 experiment starts from: Table 2 plus
/// the paper's location models.
pub fn paper_base() -> SimConfig {
    SimConfig::paper_default().with_mobility(PAPER_DRIFT_MS)
}

/// Assembles an [`ExperimentRun`] from per-cell summaries, walking the
/// spec's grid in canonical `(point, protocol)` order.
///
/// `summarise(point_index, protocol)` supplies each cell's [`Summary`],
/// which the grid re-folds from its decoded cells. Everything downstream
/// of the summaries (series extraction, stat merging, histogram merging,
/// normalisation, manifest layout) happens *here*, once.
pub(crate) fn assemble(
    spec: &FigureSpec,
    seeds: u64,
    mut summarise: impl FnMut(usize, Protocol) -> Summary,
) -> ExperimentRun {
    let mut series: Vec<Series> = spec
        .protocols
        .iter()
        .map(|p| Series {
            label: p.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    let mut stats = StatsAggregate::default();
    let mut delivery_hist = uasn_sim::hist::LogHistogram::new();
    let mut e2e_hist = uasn_sim::hist::LogHistogram::new();
    for (x_idx, &x) in spec.xs.iter().enumerate() {
        for (p_idx, &p) in spec.protocols.iter().enumerate() {
            let summary = summarise(x_idx, p);
            let (mean, ci) = spec.metric.extract(&summary);
            series[p_idx].points.push((x, mean, ci));
            stats.merge(&summary.stats);
            delivery_hist.merge(&summary.delivery_hist);
            e2e_hist.merge(&summary.e2e_hist);
        }
    }
    let manifest = RunManifest::new(
        spec.id,
        spec.title,
        seeds,
        spec.protocols
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        &(spec.configure)(spec.xs[0]),
        stats,
    )
    .with_latency(delivery_hist, e2e_hist);
    let mut figure = FigureResult {
        id: spec.id,
        title: spec.title,
        x_label: spec.x_label,
        y_label: spec.y_label,
        series,
    };
    if spec.normalized {
        figure = normalized_against_sfama(figure);
    }
    ExperimentRun { figure, manifest }
}

/// The offered-load x-axis used by Figures 6 and 11 (extended past the
/// paper's 1.0 because this reproduction's saturation point sits higher).
pub const LOAD_AXIS: [f64; 9] = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0];

/// Divides every series by the S-FAMA series pointwise (the paper's ratio
/// presentations, Figs 10 and 11).
fn normalized_against_sfama(mut fig: FigureResult) -> FigureResult {
    let base: Vec<f64> = match fig.series_named("S-FAMA") {
        Some(s) => s.points.iter().map(|p| p.1).collect(),
        None => return fig,
    };
    for s in &mut fig.series {
        for (i, p) in s.points.iter_mut().enumerate() {
            let b = base.get(i).copied().unwrap_or(0.0);
            if b > 0.0 {
                p.1 /= b;
                p.2 /= b;
            }
        }
    }
    fig
}

/// Table 2 echo: the validated headline configuration, as a figure-shaped
/// parameter listing for the record.
pub fn table2() -> Vec<(&'static str, String)> {
    let cfg = paper_base();
    let clock_omega = 64.0 / cfg.bitrate_bps;
    vec![
        ("Number of sensors", cfg.sensors.to_string()),
        ("Surface sinks", cfg.sinks.to_string()),
        (
            "Deployment",
            "layered column 2.5 km x 2.5 km x 6 km (Fig. 1; see DESIGN.md)".to_string(),
        ),
        ("Bandwidth", format!("{} kbps", cfg.bitrate_bps / 1_000.0)),
        (
            "Communication range",
            format!("{} km", cfg.channel.max_range_m() / 1_000.0),
        ),
        ("Acoustic speed", "1.5 km/s".to_string()),
        (
            "Simulation time",
            format!("{} s", cfg.sim_time.as_secs_f64()),
        ),
        ("Control packet size", format!("{} bits", cfg.control_bits)),
        ("Data packet size", format!("{} bits", cfg.data_bits)),
        (
            "Slot length",
            format!(
                "{:.6} s (omega {:.6} s + tau_max 1 s)",
                1.0 + clock_omega,
                clock_omega
            ),
        ),
        (
            "Location models",
            format!("static / horizontal / vertical drift, <= {PAPER_DRIFT_MS} m/s"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Metric;
    use crate::grid::{run_sweep, SweepOptions};
    use uasn_sim::time::SimDuration;

    #[test]
    fn paper_base_is_valid() {
        paper_base().validate().expect("valid");
        assert!(paper_base().mobility.enabled);
    }

    #[test]
    fn table2_lists_the_paper_parameters() {
        let rows = table2();
        let text: String = rows.iter().map(|(k, v)| format!("{k}={v};")).collect();
        assert!(text.contains("Number of sensors=60"));
        assert!(text.contains("12 kbps"));
        assert!(text.contains("1.5 km"));
        assert!(text.contains("64 bits"));
        assert!(text.contains("2048 bits"));
        assert!(text.contains("300 s"));
    }

    #[test]
    fn normalization_sets_sfama_to_one() {
        let fig = FigureResult {
            id: "T",
            title: "t",
            x_label: "x",
            y_label: "y",
            series: vec![
                Series {
                    label: "S-FAMA".into(),
                    points: vec![(1.0, 2.0, 0.1)],
                },
                Series {
                    label: "EW-MAC".into(),
                    points: vec![(1.0, 5.0, 0.2)],
                },
            ],
        };
        let n = normalized_against_sfama(fig);
        assert_eq!(n.series_named("S-FAMA").unwrap().points[0].1, 1.0);
        assert_eq!(n.series_named("EW-MAC").unwrap().points[0].1, 2.5);
    }

    fn tiny_configure(load: f64) -> SimConfig {
        SimConfig::paper_default()
            .with_sensors(8)
            .with_offered_load_kbps(load)
            .with_sim_time(SimDuration::from_secs(30))
    }

    const TINY_PROTOCOLS: [Protocol; 2] = [Protocol::SFama, Protocol::EwMac];

    #[test]
    fn tiny_spec_run_produces_all_series() {
        // 2 protocols x 1 point x 1 seed: fast smoke of the sweep plumbing.
        static SPEC: FigureSpec = FigureSpec {
            id: "T",
            title: "tiny",
            x_label: "x",
            y_label: "y",
            xs: &[0.3],
            protocols: &TINY_PROTOCOLS,
            configure: tiny_configure,
            metric: Metric::ThroughputKbps,
            normalized: false,
        };
        let outcome = run_sweep(
            &[&SPEC],
            &SweepOptions {
                seeds: 1,
                workers: 1,
                journal: None,
                ..SweepOptions::default()
            },
        )
        .expect("sweep runs");
        let [run] = outcome.runs.as_slice() else {
            panic!("one figure requested, {} assembled", outcome.runs.len());
        };
        assert_eq!(run.figure.series.len(), 2);
        assert_eq!(run.figure.series[0].points.len(), 1);
        // The manifest records the roster, the seeds, and every run's stats.
        assert_eq!(run.manifest.id, "T");
        assert_eq!(run.manifest.seeds, 1);
        assert_eq!(run.manifest.protocols, vec!["S-FAMA", "EW-MAC"]);
        assert_eq!(run.manifest.stats.runs, 2);
        assert!(run.manifest.stats.events_processed > 0);
        // Every sweep manifest carries the merged latency histograms.
        let e2e = run.manifest.e2e_latency_us.as_ref().expect("e2e latency");
        assert!(e2e.count() > 0, "sink arrivals measured");
        assert!(e2e.p50().is_some() && e2e.p99().is_some());
    }
}
