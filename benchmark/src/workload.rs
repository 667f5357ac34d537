//! The four workloads, their inputs, and the untraced product path.
//!
//! Every simulation goes through the product's default entry points —
//! `Simulation::new` then `run_full`, with the tracer attached only when the
//! workload monitors — and never touches a configuration knob that exists
//! for comparison (`fastpath`, `spatial_index`, `profile`). The traced pass
//! in [`crate::traced`] reuses [`execute`] with its own factory, config and
//! sink wrapper, so the two passes cannot drift apart.
//!
//! Inputs derive from the run seed `S` alone: simulation `k` of a run uses
//! replication `S * 1000 + k`, mapped to a master seed by the product's
//! `master_seed`, so the same seed always builds the same networks.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uasn_audit::monitor::{MonitorReport, StreamingMonitor};
use uasn_bench::cell::{fold_cells, CellOutput};
use uasn_bench::figures::{by_id, FigureSpec};
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::{master_seed, Summary};
use uasn_lab::journal::JournalWriter;
use uasn_lab::pool::{self, Outcome, PoolReport};
use uasn_lab::spec::{JobKey, SweepSpec};
use uasn_net::config::SimConfig;
use uasn_net::metrics::MetricsReport;
use uasn_net::node::NodeId;
use uasn_net::topology::Deployment;
use uasn_net::world::{MacFactory, RunOutput, Simulation};
use uasn_sim::time::{SimDuration, SimTime};
use uasn_sim::trace::{TraceLevel, TraceSink, Tracer};

use crate::digest::report_digest;

/// Replications per run seed: simulation `k` of seed `S` is replication
/// `S * REPLICATIONS_PER_SEED + k`.
pub const REPLICATIONS_PER_SEED: u64 = 1_000;

/// Worker threads of the paper sweep: fixed, so the workload is the same
/// on any host (the reference host has two cores).
pub const SWEEP_WORKERS: usize = 2;

/// Replications of every (load, protocol) cell in one paper-sweep round.
pub const SWEEP_REPLICATIONS: u64 = 2;

/// Observation window of the route-monitored workload, simulated seconds.
pub const MONITORED_HORIZON_S: u64 = 600;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 6 sweep through the lab pool, journal and fold.
    PaperSweep,
    /// 10k mobile nodes over 10 s: construction dominates.
    SwarmBuild,
    /// Routed overload with reliable transport over 3,000 s.
    RouteOverload,
    /// The routed config under the online monitors.
    RouteMonitored,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::SwarmBuild,
        Workload::RouteOverload,
        Workload::RouteMonitored,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::SwarmBuild => "swarm-build",
            Workload::RouteOverload => "route-overload",
            Workload::RouteMonitored => "route-monitored",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Round 0's output digest at seed 0, recorded when the benchmark was
    /// defined. A different digest means the simulator's outputs changed:
    /// legal for a model change, never for a performance change.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::PaperSweep => 0xa64f_ee7e_ed26_3560,
            Workload::SwarmBuild => 0x32f6_8563_da1e_05d1,
            Workload::RouteOverload => 0x6695_af59_07fe_81a1,
            Workload::RouteMonitored => 0x9e67_066b_43ad_2611,
        }
    }

    /// The simulation run `round` of a single-simulation workload
    /// executes; for the paper sweep, the first cell of that round (the
    /// warm-up stand-in).
    pub fn sim(self, seed: u64, round: u64) -> SimSpec {
        let replication = seed * REPLICATIONS_PER_SEED + round;
        match self {
            Workload::PaperSweep => {
                let shape = SweepShape::paper();
                let mut cells = shape.cells(seed, round);
                cells.swap_remove(0).spec
            }
            Workload::SwarmBuild => SimSpec::new(swarm_config(), Protocol::EwMac, replication),
            Workload::RouteOverload => SimSpec::new(
                route_config(SimDuration::from_secs(3_000)),
                Protocol::EwMac,
                replication,
            ),
            Workload::RouteMonitored => {
                let cfg =
                    route_config(SimDuration::from_secs(MONITORED_HORIZON_S)).with_monitoring(true);
                SimSpec::new(cfg, Protocol::EwMac, replication)
            }
        }
    }
}

/// The swarm10k config: a wide ten-layer mobile column at the swarm
/// goldens' per-layer density, heavy Poisson load, and a 1 s mobility
/// epoch that invalidates the link cache every simulated second.
fn swarm_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(10_000)
        .with_sim_time(SimDuration::from_secs(10))
        .with_offered_load_kbps(60.0)
        .with_mobility(0.5);
    cfg.mobility.update_interval = SimDuration::from_secs(1);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 20_000.0,
        layers: 10,
        layer_spacing_m: 450.0,
    };
    cfg
}

/// The route-ewmac config: 40 sensors in a four-layer column, 80 kbps of
/// Poisson load (~39 SDUs/s) with depth routing and reliable transport.
fn route_config(horizon: SimDuration) -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(40)
        .with_sim_time(horizon)
        .with_offered_load_kbps(80.0)
        .with_reliable_route();
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 4,
        layer_spacing_m: 1_200.0,
    };
    cfg
}

/// One simulation's inputs.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// The seeded configuration.
    pub cfg: SimConfig,
    /// The MAC every node runs.
    pub protocol: Protocol,
}

impl SimSpec {
    /// `cfg` seeded for `replication`.
    pub fn new(cfg: SimConfig, protocol: Protocol, replication: u64) -> SimSpec {
        SimSpec {
            cfg: cfg.with_seed(master_seed(replication)),
            protocol,
        }
    }
}

/// What one simulation produced through [`execute`], with the instants that
/// bound its build and its event loop.
pub struct Executed {
    /// Everything `run_full` returned.
    pub out: RunOutput,
    /// The monitor's report, for monitored runs.
    pub monitor: Option<MonitorReport>,
    /// Before `Simulation::new`.
    pub started: Instant,
    /// After `Simulation::new`, before `run_full`.
    pub built: Instant,
    /// After `run_full`.
    pub ended: Instant,
}

impl Executed {
    /// Host time of `Simulation::new`.
    pub fn setup(&self) -> Duration {
        self.built - self.started
    }

    /// Host time of build plus event loop.
    pub fn total(&self) -> Duration {
        self.ended - self.started
    }
}

/// Runs one simulation through the product path. `cfg` is the spec's
/// config, possibly instrumented by the caller; monitored configs stream a
/// Debug trace into the online monitors through `wrap_sink`.
///
/// # Errors
///
/// Returns the build error when `Simulation::new` rejects the config.
pub fn execute(
    cfg: SimConfig,
    factory: &MacFactory<'_>,
    wrap_sink: impl FnOnce(Box<dyn TraceSink + Send>) -> Box<dyn TraceSink + Send>,
    mut on_built: impl FnMut(&Simulation),
) -> Result<Executed, String> {
    let monitored = cfg.monitor;
    let started = Instant::now();
    let sim = Simulation::new(cfg, factory).map_err(|e| format!("config rejected: {e}"))?;
    let built = Instant::now();
    on_built(&sim);
    let monitor = monitored.then(StreamingMonitor::new);
    let sim = match &monitor {
        Some(m) => sim.with_tracer(Tracer::new(TraceLevel::Debug).with_sink(wrap_sink(m.sink()))),
        None => sim,
    };
    let out = sim.run_full();
    let ended = Instant::now();
    Ok(Executed {
        out,
        monitor: monitor.map(|m| m.report()),
        started,
        built,
        ended,
    })
}

/// How one simulation went, measured from outside the program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRecord {
    /// Host time of `Simulation::new`.
    pub setup: Duration,
    /// Host time of build plus event loop.
    pub total: Duration,
    /// Digest of the run's report (0 when the run failed).
    pub digest: u64,
    /// Why the run failed: a panic, a rejected build, or a failed output
    /// check. `None` for a good run.
    pub problem: Option<String>,
}

impl SimRecord {
    fn failed(problem: String) -> SimRecord {
        SimRecord {
            setup: Duration::ZERO,
            total: Duration::ZERO,
            digest: 0,
            problem: Some(problem),
        }
    }

    /// Records a finished run, checking its outputs.
    pub fn of(spec: &SimSpec, run: &Executed) -> SimRecord {
        SimRecord {
            setup: run.setup(),
            total: run.total(),
            digest: report_digest(&run.out.report),
            problem: check_outputs(spec, &run.out.report, run.monitor.as_ref()).err(),
        }
    }
}

/// Runs `body`, turning a panic into a failed [`SimRecord`].
pub fn guarded(body: impl FnOnce() -> Result<SimRecord, String>) -> SimRecord {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(record)) => record,
        Ok(Err(problem)) => SimRecord::failed(problem),
        Err(panic) => SimRecord::failed(format!("panicked: {}", panic_text(panic.as_ref()))),
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one simulation untraced.
pub fn run_untraced(spec: &SimSpec) -> SimRecord {
    guarded(|| {
        let protocol = spec.protocol;
        let factory = move |id: NodeId| protocol.build(id);
        let run = execute(spec.cfg.clone(), &factory, |sink| sink, |_| {})?;
        Ok(SimRecord::of(spec, &run))
    })
}

/// The output check: invariants every correct report satisfies, whatever
/// the seed. (Bit-exact comparisons — traced against untraced, repeat
/// against repeat — are made on digests by the callers.)
///
/// # Errors
///
/// Names the first invariant the report breaks.
pub fn check_outputs(
    spec: &SimSpec,
    r: &MetricsReport,
    monitor: Option<&MonitorReport>,
) -> Result<(), String> {
    let cfg = &spec.cfg;
    let within = |v: f64, lo: f64, hi: f64| v.is_finite() && v >= lo && v <= hi + 1e-9;
    let checks: [(bool, &str); 14] = [
        (r.protocol == spec.protocol.name(), "protocol name"),
        (r.nodes == (cfg.sensors + cfg.sinks) as usize, "node count"),
        (
            SimTime::ZERO + r.duration == cfg.horizon(),
            "ran to the horizon",
        ),
        (r.sdus_generated > 0, "traffic generated"),
        (r.sdus_received > 0, "traffic delivered"),
        (r.e2e_delivered <= r.sdus_generated, "e2e <= generated"),
        (
            r.sink_bits_received <= r.data_bits_received,
            "sink bits <= received bits",
        ),
        (
            r.extra_bits_received <= r.data_bits_received,
            "extra bits <= received bits",
        ),
        (
            r.overhead_bits == r.control_bits_sent + r.maintenance_bits + r.retx_bits,
            "overhead = control + maintenance + retx",
        ),
        (within(r.throughput_kbps, 0.0, f64::MAX), "throughput"),
        (within(r.avg_power_mw, f64::MIN_POSITIVE, f64::MAX), "power"),
        (within(r.channel_utilization, 0.0, 1.0), "utilization"),
        (within(r.fairness_index, 0.0, 1.0), "fairness"),
        (
            cfg.route.is_none() || r.e2e_delivered > 0,
            "routed traffic reached a sink",
        ),
    ];
    if let Some((_, what)) = checks.iter().find(|(ok, _)| !ok) {
        return Err(format!("output check failed: {what}"));
    }
    match (cfg.monitor, monitor) {
        (true, Some(m)) if m.records_seen == 0 => Err("monitor saw no records".to_string()),
        (true, None) => Err("monitored run has no monitor report".to_string()),
        _ => Ok(()),
    }
}

/// The paper sweep's grid: the first `points` loads of Fig. 6 × the
/// paper's four protocols × `replications` per cell.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    /// The figure swept.
    pub figure: &'static FigureSpec,
    /// Leading x-axis points used.
    pub points: usize,
    /// Replications per (point, protocol) cell in one round.
    pub replications: u64,
}

/// One cell of a sweep round.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The journal id (`F6/p00/s-fama/s000` shape).
    pub id: String,
    /// The simulation.
    pub spec: SimSpec,
}

impl SweepShape {
    /// The full Fig. 6 grid.
    pub fn paper() -> SweepShape {
        let figure = by_id("F6").expect("F6 is registered");
        SweepShape {
            figure,
            points: figure.xs.len(),
            replications: SWEEP_REPLICATIONS,
        }
    }

    /// Round `round`'s cells in canonical table order: point, protocol,
    /// then replication (fastest).
    pub fn cells(&self, seed: u64, round: u64) -> Vec<SweepCell> {
        let base = seed * REPLICATIONS_PER_SEED + round * self.replications;
        let mut cells = Vec::new();
        for point in 0..self.points {
            for &protocol in self.figure.protocols {
                for k in 0..self.replications {
                    let key = JobKey {
                        figure: self.figure.id.to_string(),
                        point,
                        protocol: protocol.name().to_string(),
                        seed: base + k,
                    };
                    let cfg = (self.figure.configure)(self.figure.xs[point]);
                    cells.push(SweepCell {
                        id: key.id(),
                        spec: SimSpec::new(cfg, protocol, base + k),
                    });
                }
            }
        }
        cells
    }
}

/// A journaled, folded sweep round.
#[derive(Debug)]
pub struct SweepRound {
    /// Host time of the whole round: pool, journal, decode and fold.
    pub wall: Duration,
    /// Per-cell records, in table order.
    pub sims: Vec<SimRecord>,
    /// The pool's own accounting.
    pub pool: PoolReport,
    /// Host time inside `JournalWriter::record_done`.
    pub journal: Duration,
    /// Journal size after the round, bytes.
    pub journal_bytes: u64,
    /// Host time of the `fold_cells` pass.
    pub fold: Duration,
    /// One summary per (point, protocol), in table order.
    pub summaries: Vec<Summary>,
}

/// The product's cell conversion (`uasn_bench::cell::run_cell`) for an
/// unmonitored run, applied to a run made here so its build can be timed.
pub fn cell_output(cfg: &SimConfig, out: RunOutput) -> CellOutput {
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
        stats: out.stats,
        trace: out.tracer.health(),
        profile: out.profile,
        monitor: None,
        delivery_hist: report.delivery_latency_us,
        e2e_hist: report.e2e_latency_us,
        path_hops: report.path_hops,
    }
}

/// Runs one sweep round the way `uasn_bench::grid::run_sweep` does: every
/// cell through `uasn_lab::pool::execute`, each result journaled with
/// `record_done` and decoded on the coordinator, then `fold_cells` per
/// (point, protocol) in table order. `run_cell` runs one cell and returns
/// its journal payload plus its record.
///
/// # Errors
///
/// Fails on journal I/O errors.
pub fn sweep_round(
    shape: &SweepShape,
    seed: u64,
    round: u64,
    journal: &Path,
    run_cell: &(dyn Fn(&SweepCell) -> (Option<CellOutput>, SimRecord) + Sync),
) -> std::io::Result<SweepRound> {
    let started = Instant::now();
    let cells = shape.cells(seed, round);
    let header = SweepSpec {
        figures: vec![shape.figure.id.to_string()],
        seeds: shape.replications,
    };
    let mut writer = JournalWriter::create(journal, &header.to_json()).map_err(io_error)?;
    let records: Mutex<Vec<Option<SimRecord>>> = Mutex::new(vec![None; cells.len()]);
    let mut decoded: Vec<Option<CellOutput>> = vec![None; cells.len()];
    let mut journal_time = Duration::ZERO;
    let mut journal_err = None;
    let pending: Vec<usize> = (0..cells.len()).collect();
    let run = |index: usize| {
        let (cell, record) = run_cell(&cells[index]);
        records.lock().expect("a cell panicked while recording")[index] = Some(record);
        cell.map_or(uasn_sim::json::JsonValue::Null, |c| c.to_json())
    };
    let pool = pool::execute(&pending, SWEEP_WORKERS, run, |result| {
        if let Outcome::Done(payload) = result.outcome {
            let t = Instant::now();
            let written = writer.record_done(
                &cells[result.index].id,
                result.worker,
                result.wall.as_micros() as u64,
                &payload,
            );
            journal_time += t.elapsed();
            if let Err(e) = written {
                journal_err = Some(e);
                return ControlFlow::Break(());
            }
            decoded[result.index] = CellOutput::from_json(&payload);
        }
        ControlFlow::Continue(())
    });
    if let Some(e) = journal_err {
        return Err(io_error(e));
    }
    let journal_bytes = std::fs::metadata(journal)?.len();

    let fold_started = Instant::now();
    let per_cell = shape.replications as usize;
    let summaries: Vec<Summary> = decoded
        .chunks(per_cell)
        .zip(cells.chunks(per_cell))
        .map(|(chunk, cells)| {
            let done: Vec<CellOutput> = chunk.iter().flatten().cloned().collect();
            fold_cells(cells[0].spec.protocol, &done)
        })
        .collect();
    let fold = fold_started.elapsed();

    let mut sims: Vec<SimRecord> = records
        .into_inner()
        .expect("a cell panicked while recording")
        .into_iter()
        .map(|r| r.unwrap_or_else(|| SimRecord::failed("cell never reported".to_string())))
        .collect();
    for (sim, cell) in sims.iter_mut().zip(&decoded) {
        if sim.problem.is_none() && cell.is_none() {
            sim.problem = Some("journaled payload did not decode".to_string());
        }
    }
    for (i, summary) in summaries.iter().enumerate() {
        let whole = summary.throughput_kbps.count() == shape.replications
            && summary.throughput_kbps.mean().is_finite();
        if !whole {
            let first = i * per_cell;
            for sim in &mut sims[first..first + per_cell] {
                sim.problem
                    .get_or_insert_with(|| "fold is missing cells".to_string());
            }
        }
    }
    Ok(SweepRound {
        wall: started.elapsed(),
        sims,
        pool,
        journal: journal_time,
        journal_bytes,
        fold,
        summaries,
    })
}

/// The untraced paper-sweep cell: build and run timed, then the product's
/// cell conversion.
pub fn untraced_cell(cell: &SweepCell) -> (Option<CellOutput>, SimRecord) {
    let mut output = None;
    let record = guarded(|| {
        let protocol = cell.spec.protocol;
        let factory = move |id: NodeId| protocol.build(id);
        let run = execute(cell.spec.cfg.clone(), &factory, |sink| sink, |_| {})?;
        let record = SimRecord::of(&cell.spec, &run);
        output = Some(cell_output(&cell.spec.cfg, run.out));
        Ok(record)
    });
    (output, record)
}

fn io_error(e: uasn_lab::journal::JournalError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}
