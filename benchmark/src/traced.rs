//! The traced pass: the same simulations as the untraced pass, run through
//! the outside-in instruments of [`crate::probe`] plus the engine's own
//! profile (`with_profiling`, used here and nowhere else), folded into the
//! per-layer metrics.
//!
//! Build-phase pieces the program does not expose separately — topology
//! generation, the audibility oracle, the link cache's grid and row builds
//! — are *replayed* after each traced round on the same config and the
//! same initial positions, and whatever part of the build span they leave
//! unexplained is reported as a residual rather than hidden.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uasn_audit::monitor::MonitorReport;
use uasn_bench::cell::CellOutput;
use uasn_net::mac::{MacProtocol, NeighborInfoScope};
use uasn_net::metrics::MetricsReport;
use uasn_net::node::NodeId;
use uasn_net::topology::stranded_sensors;
use uasn_net::world::RunOutput;
use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::geometry::Point;
use uasn_phy::grid::SpatialGrid;
use uasn_phy::soa::PositionTable;
use uasn_sim::engine::{RunStats, PROFILE_SAMPLE_STRIDE};
use uasn_sim::hist::LogHistogram;
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::rng::SeedFactory;
use uasn_sim::time::SimDuration;

use crate::probe::{CallTally, Callback, MacTally, SpanLog, TimedMac, TimedSink};
use crate::workload::{cell_output, execute, guarded, SimRecord, SimSpec, SweepCell};

/// One traced simulation, as the instruments saw it.
#[derive(Debug)]
pub struct SimProbe {
    /// The simulation's inputs (kept for the replays).
    pub spec: SimSpec,
    /// Initial node positions, captured right after the build.
    pub positions: PositionTable,
    /// The `sim` span's id.
    pub span: u64,
    /// Host time of `Simulation::new`.
    pub build: Duration,
    /// Host time inside the MAC factory during the build.
    pub mac_new: Duration,
    /// Host time of `run_full`.
    pub run_loop: Duration,
    /// What the MAC decorators recorded.
    pub mac: MacTally,
    /// What the sink decorator recorded (empty when unmonitored).
    pub sink: CallTally,
    /// The engine's run statistics.
    pub stats: RunStats,
    /// The engine's profile.
    pub profile: Option<ProfileReport>,
    /// The run's report.
    pub report: MetricsReport,
    /// The monitor's report, when monitored.
    pub monitor: Option<MonitorReport>,
}

/// Runs one simulation through the instruments, recording `sim`, `build`
/// and `loop` spans under `parent` (the sim span is named `name`).
/// The run's output comes back too, for callers that convert it further.
pub fn traced_sim(
    spec: &SimSpec,
    log: &SpanLog,
    parent: u64,
    name: &'static str,
) -> (SimRecord, Option<(SimProbe, RunOutput)>) {
    let mut probe = None;
    let record = guarded(|| {
        let tally = Rc::new(RefCell::new(MacTally::default()));
        let mac_new = Cell::new(Duration::ZERO);
        let protocol = spec.protocol;
        let factory = |id: NodeId| -> Box<dyn MacProtocol> {
            let started = Instant::now();
            let inner = protocol.build(id);
            mac_new.set(mac_new.get() + started.elapsed());
            Box::new(TimedMac::new(inner, Rc::clone(&tally)))
        };
        let sink = Arc::new(Mutex::new(CallTally::default()));
        let mut positions = PositionTable::new();
        let cfg = spec.cfg.clone().with_profiling(true);
        let mut run = execute(
            cfg,
            &factory,
            |inner| Box::new(TimedSink::new(inner, Arc::clone(&sink))),
            |sim| positions = sim.positions().clone(),
        )?;
        // Dropping the tracer drops the sink decorator, which publishes.
        drop(std::mem::take(&mut run.out.tracer));
        let record = SimRecord::of(spec, &run);

        let span = log.id();
        log.push(span, parent, name, run.started, run.ended);
        log.push(log.id(), span, "build", run.started, run.built);
        log.push(log.id(), span, "loop", run.built, run.ended);
        let sink = sink.lock().expect("sink tally poisoned").clone();
        let mac = tally.borrow().clone();
        let probed = SimProbe {
            spec: spec.clone(),
            positions,
            span,
            build: run.setup(),
            mac_new: mac_new.get(),
            run_loop: run.ended - run.built,
            mac,
            sink,
            stats: run.out.stats.clone(),
            profile: run.out.profile.clone(),
            report: run.out.report.clone(),
            monitor: run.monitor.take(),
        };
        probe = Some((probed, run.out));
        Ok(record)
    });
    (record, probe)
}

/// The traced paper-sweep cell: a `cell` span around the traced sim and
/// the product's cell conversion.
pub fn traced_cell(
    cell: &SweepCell,
    log: &SpanLog,
    sweep_span: u64,
    probes: &Mutex<Vec<SimProbe>>,
) -> (Option<CellOutput>, SimRecord) {
    let started = Instant::now();
    let cell_span = log.id();
    let (record, probe) = traced_sim(&cell.spec, log, cell_span, "sim");
    // The profile rides in the journal payload, as in a profiled `lab run`.
    let output = probe.map(|(p, out)| {
        probes.lock().expect("probe list poisoned").push(p);
        cell_output(&cell.spec.cfg, out)
    });
    log.push(cell_span, sweep_span, "cell", started, Instant::now());
    (output, record)
}

/// Timings of the build pieces replayed outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `Deployment::generate` + `stranded_sensors`.
    pub topology: Duration,
    /// `SpatialGrid::build` + `candidates_into` + `is_audible` per table,
    /// one table per node (plus one per neighbour for two-hop MACs).
    pub oracle: Duration,
    /// The link cache's `SpatialGrid::build` alone.
    pub grid: Duration,
    /// `LinkBudgetCache::with_index` + `ensure_row` for every node.
    pub rows: Duration,
    /// Rows built.
    pub row_count: u64,
}

/// Replays the build pieces of one simulation on its config and initial
/// positions.
pub fn replay(spec: &SimSpec, positions: &PositionTable) -> Replay {
    let cfg = &spec.cfg;
    let channel = &cfg.channel;
    let range = channel.max_range_m();

    let started = Instant::now();
    let mut rng = SeedFactory::new(cfg.seed).stream("topology", 0);
    if let Ok(nodes) = cfg
        .deployment
        .generate(&mut rng, cfg.sensors, cfg.sinks, range)
    {
        black_box(stranded_sensors(&nodes, range));
    }
    let topology = started.elapsed();

    // The oracle neighbour tables, as `Simulation::new` builds them: one
    // table per node, and for two-hop MACs (ROPA, CS-MAC) each neighbour's
    // table again, once per node that lists it.
    let two_hop =
        spec.protocol.build(NodeId::new(0)).maintenance().scope == NeighborInfoScope::TwoHop;
    let points: Vec<Point> = positions.iter().collect();
    let n = points.len();
    let started = Instant::now();
    let grid = channel
        .index_cell_m()
        .map(|cell| SpatialGrid::build(cell, points.as_slice()));
    let mut candidates = Vec::new();
    let mut table = |i: usize| -> Vec<(usize, SimDuration)> {
        candidates.clear();
        match &grid {
            Some(grid) => grid.candidates_into(points[i], &mut candidates),
            None => candidates.extend(0..n as u32),
        }
        candidates
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| j != i && channel.is_audible(points[i], points[j]))
            .map(|j| (j, channel.propagation_delay(points[i], points[j])))
            .collect()
    };
    for i in 0..n {
        let neighbours = table(i);
        if two_hop {
            for &(j, _) in &neighbours {
                black_box(table(j));
            }
        }
        black_box(neighbours);
    }
    let oracle = started.elapsed();

    let started = Instant::now();
    black_box(
        channel
            .index_cell_m()
            .map(|cell| SpatialGrid::build(cell, positions)),
    );
    let grid = started.elapsed();

    let started = Instant::now();
    let mut cache = LinkBudgetCache::with_index(channel, positions);
    for tx in 0..n {
        cache.ensure_row(channel, positions, tx);
    }
    black_box(&cache);
    let rows = started.elapsed();

    Replay {
        topology,
        oracle,
        grid,
        rows,
        row_count: n as u64,
    }
}

/// The per-layer accumulator over every traced simulation of a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced rounds (the divisor of every per-round figure).
    pub rounds: u64,
    /// Sum of traced round walls.
    pub traced_wall: Duration,
    /// Sum of the paired untraced round walls.
    pub untraced_wall: Duration,
    build: Duration,
    mac_new: Duration,
    run_loop: Duration,
    mac: MacTally,
    /// Per protocol: MAC busy nanoseconds and the loop time of its runs.
    protocol_busy: Vec<(&'static str, u64, Duration)>,
    sink: CallTally,
    replay: Replay,
    events: u64,
    peak_queue_depth: usize,
    queue_depth_sum: f64,
    pop_ns: u64,
    timeout_handler_ns: u64,
    cache: [u64; 4],
    fanout: LogHistogram,
    queue_depth: LogHistogram,
    collisions: u64,
    generated: u64,
    received: u64,
    e2e_delivered: u64,
    retry_dropped: u64,
    ttl_dropped: u64,
    route_timeouts: u64,
    peak_tracked: usize,
    findings: u64,
    twin_loop: Duration,
    lab: LabTotals,
    sims: Vec<JsonValue>,
}

/// Lab-orchestration totals over the traced sweep rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabTotals {
    /// Summed per-job wall (the pool's busy time).
    pub busy: Duration,
    /// Worker capacity: elapsed × workers.
    pub capacity: Duration,
    /// Time inside `record_done`.
    pub journal: Duration,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Time in `fold_cells`.
    pub fold: Duration,
}

impl LabTotals {
    /// Adds another round's totals.
    pub fn add(&mut self, other: LabTotals) {
        self.busy += other.busy;
        self.capacity += other.capacity;
        self.journal += other.journal;
        self.journal_bytes += other.journal_bytes;
        self.fold += other.fold;
    }
}

const CACHE_COUNTERS: [&str; 4] = [
    "phy.cache.hits",
    "phy.cache.misses",
    "phy.cache.invalidations",
    "phy.cache.audibility_rejects",
];

impl Layers {
    /// Folds one traced simulation in, replaying its build pieces.
    pub fn absorb(&mut self, p: &SimProbe) {
        let replay = replay(&p.spec, &p.positions);
        self.replay.topology += replay.topology;
        self.replay.oracle += replay.oracle;
        self.replay.grid += replay.grid;
        self.replay.rows += replay.rows;
        self.replay.row_count += replay.row_count;

        self.build += p.build;
        self.mac_new += p.mac_new;
        self.run_loop += p.run_loop;
        self.mac.merge(&p.mac);
        let busy = p.mac.total_busy_ns();
        match self
            .protocol_busy
            .iter_mut()
            .find(|(name, ..)| *name == p.report.protocol)
        {
            Some((_, ns, run_loop)) => {
                *ns += busy;
                *run_loop += p.run_loop;
            }
            None => self
                .protocol_busy
                .push((p.report.protocol, busy, p.run_loop)),
        }
        self.sink.merge(&p.sink);

        self.events += p.stats.events_processed;
        self.peak_queue_depth = self.peak_queue_depth.max(p.stats.peak_queue_depth);
        self.queue_depth_sum += p.stats.mean_queue_depth * p.stats.events_processed as f64;
        self.route_timeouts += p
            .stats
            .kind_counts
            .iter()
            .find(|(kind, _)| *kind == "route-timeout")
            .map_or(0, |&(_, n)| n);
        if let Some(profile) = &p.profile {
            self.pop_ns += profile.engine.pop_ns * PROFILE_SAMPLE_STRIDE;
            self.timeout_handler_ns += profile
                .engine
                .handler
                .iter()
                .find(|(kind, _)| *kind == "route-timeout")
                .map_or(0, |(_, cost)| cost.total_ns * PROFILE_SAMPLE_STRIDE);
            for (slot, name) in self.cache.iter_mut().zip(CACHE_COUNTERS) {
                *slot += profile.metrics.counter(name);
            }
            if let Some(h) = profile.metrics.hist("net.fanout") {
                self.fanout.merge(h);
            }
            if let Some(h) = profile.metrics.hist("net.queue_depth") {
                self.queue_depth.merge(h);
            }
        }

        let r = &p.report;
        self.collisions += r.collisions;
        self.generated += r.sdus_generated;
        self.received += r.sdus_received;
        self.e2e_delivered += r.e2e_delivered;
        self.retry_dropped += r.retry_dropped;
        self.ttl_dropped += r.ttl_dropped;
        if let Some(m) = &p.monitor {
            self.peak_tracked = self.peak_tracked.max(m.peak_tracked);
            self.findings += m.findings.len() as u64;
        }

        let mut callbacks: Vec<(String, JsonValue)> = Callback::ALL
            .iter()
            .zip(&p.mac.calls)
            .map(|(cb, tally)| (cb.name().to_string(), tally.to_json()))
            .collect();
        callbacks.push(("sink".to_string(), p.sink.to_json()));
        self.sims.push(JsonValue::Object(vec![
            ("span".to_string(), JsonValue::from_u64(p.span)),
            ("protocol".to_string(), JsonValue::from_string(r.protocol)),
            ("seed".to_string(), JsonValue::from_u64(p.spec.cfg.seed)),
            (
                "events".to_string(),
                JsonValue::from_u64(p.stats.events_processed),
            ),
            ("calls".to_string(), JsonValue::Object(callbacks)),
        ]));
    }

    /// Adds an unmonitored twin's loop time (the emit-cost baseline).
    pub fn absorb_twin(&mut self, twin: &SimProbe) {
        self.twin_loop += twin.run_loop;
    }

    /// Adds a traced sweep round's orchestration totals.
    pub fn absorb_lab(&mut self, lab: LabTotals) {
        self.lab.add(lab);
    }

    /// Per-simulation call summaries for the trace document.
    pub fn sim_summaries(&self) -> JsonValue {
        JsonValue::Array(self.sims.clone())
    }

    /// Every per-layer metric, by name. Times and counts are per traced
    /// round (one round = one simulation, or one sweep of the grid);
    /// ratios and peaks span the whole run.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let rounds = self.rounds.max(1) as f64;
        let per = |v: f64| v / rounds;
        let secs = |d: Duration| per(d.as_secs_f64());
        let ns_s = |ns: u64| per(ns as f64 / 1e9);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mean = |h: &LogHistogram| ratio(h.sum() as f64, h.count() as f64);
        let p99 = |h: &LogHistogram| h.p99().unwrap_or(0) as f64;
        let signed = |d: Duration| d.as_secs_f64();

        let mac_busy_ns = self.mac.total_busy_ns();
        let mac_calls = self.mac.total_calls();
        let build_pieces = self.mac_new.as_secs_f64()
            + self.mac.install_ns as f64 / 1e9
            + signed(self.replay.topology)
            + signed(self.replay.oracle)
            + signed(self.replay.grid);
        let loop_children = (mac_busy_ns + self.sink.busy_ns) as f64 / 1e9;
        let [hits, misses, invalidations, audibility_rejects] = self.cache;

        let mut m: Vec<(String, f64)> = vec![
            ("net.build.s".into(), secs(self.build)),
            ("net.build.mac_new_s".into(), secs(self.mac_new)),
            ("net.build.mac_install_s".into(), ns_s(self.mac.install_ns)),
            ("net.build.topology_s".into(), secs(self.replay.topology)),
            ("net.build.oracle_s".into(), secs(self.replay.oracle)),
            (
                "net.build.residual_s".into(),
                per(signed(self.build) - build_pieces),
            ),
            ("net.loop.s".into(), secs(self.run_loop)),
            (
                "net.loop.self_s".into(),
                per(signed(self.run_loop) - loop_children),
            ),
            ("sim.engine.events".into(), per(self.events as f64)),
            (
                "sim.engine.peak_queue_depth".into(),
                self.peak_queue_depth as f64,
            ),
            (
                "sim.engine.mean_queue_depth".into(),
                ratio(self.queue_depth_sum, self.events as f64),
            ),
            (
                "sim.engine.ns_per_event".into(),
                ratio(self.run_loop.as_nanos() as f64, self.events as f64),
            ),
            ("sim.engine.pop_s".into(), ns_s(self.pop_ns)),
            ("phy.cache.hits".into(), per(hits as f64)),
            ("phy.cache.misses".into(), per(misses as f64)),
            ("phy.cache.invalidations".into(), per(invalidations as f64)),
            (
                "phy.cache.hit_rate".into(),
                ratio(hits as f64, (hits + misses) as f64),
            ),
            (
                "phy.cache.audibility_rejects".into(),
                per(audibility_rejects as f64),
            ),
            ("phy.fanout.mean".into(), mean(&self.fanout)),
            ("phy.fanout.p99".into(), p99(&self.fanout)),
            ("phy.grid_build_s".into(), secs(self.replay.grid)),
            (
                "phy.row_build_ns".into(),
                ratio(
                    self.replay.rows.as_nanos() as f64,
                    self.replay.row_count as f64,
                ),
            ),
            ("mac.calls".into(), per(mac_calls as f64)),
            ("mac.busy_s".into(), ns_s(mac_busy_ns)),
            (
                "mac.ns_per_call".into(),
                ratio(mac_busy_ns as f64, mac_calls as f64),
            ),
        ];
        for (cb, tally) in Callback::ALL.iter().zip(&self.mac.calls) {
            if *cb == Callback::Start {
                continue; // once per node: in the totals, not worth a row
            }
            m.push((format!("mac.{}.calls", cb.name()), per(tally.calls as f64)));
            m.push((format!("mac.{}.busy_s", cb.name()), ns_s(tally.busy_ns)));
        }
        m.push(("mac.peak_queue_len".into(), self.mac.peak_queue as f64));
        // Layers a workload may not exercise at all (one protocol among
        // four, routing, the monitor, the lab pool) report shares, not
        // seconds: a share reads 0 where the layer is absent, while every
        // metric in seconds measures work each workload does.
        for slug in ["ewmac", "sfama", "ropa", "csmac"] {
            let (ns, run_loop) = self
                .protocol_busy
                .iter()
                .filter(|(name, ..)| protocol_slug(name) == slug)
                .fold((0, Duration::ZERO), |(ns, l), (_, n, r)| (ns + n, l + *r));
            m.push((
                format!("mac.{slug}.loop_frac"),
                ratio(ns as f64 / 1e9, signed(run_loop)),
            ));
        }
        let generated = self.generated as f64;
        let loop_s = signed(self.run_loop);
        let sink_s = self.sink.busy_ns as f64 / 1e9;
        m.extend([
            ("mac.collisions".into(), per(self.collisions as f64)),
            (
                "mac.delivery_ratio".into(),
                ratio(self.received as f64, generated),
            ),
            ("route.timeouts".into(), per(self.route_timeouts as f64)),
            (
                "route.timeouts_per_sdu".into(),
                ratio(self.route_timeouts as f64, generated),
            ),
            (
                "route.timeout_handler_frac".into(),
                ratio(self.timeout_handler_ns as f64 / 1e9, loop_s),
            ),
            (
                "route.e2e_delivery_ratio".into(),
                ratio(self.e2e_delivered as f64, generated),
            ),
            ("route.retry_dropped".into(), per(self.retry_dropped as f64)),
            ("route.ttl_dropped".into(), per(self.ttl_dropped as f64)),
            ("net.queue_depth.mean".into(), mean(&self.queue_depth)),
            ("net.queue_depth.p99".into(), p99(&self.queue_depth)),
            ("audit.records".into(), per(self.sink.calls as f64)),
            ("audit.sink_frac".into(), ratio(sink_s, loop_s)),
            ("audit.peak_tracked".into(), self.peak_tracked as f64),
            ("audit.findings".into(), per(self.findings as f64)),
            (
                "audit.emit_frac".into(),
                if self.twin_loop.is_zero() {
                    0.0
                } else {
                    ratio(loop_s - sink_s - signed(self.twin_loop), loop_s)
                },
            ),
            (
                "lab.utilization".into(),
                ratio(signed(self.lab.busy), signed(self.lab.capacity)),
            ),
            (
                "lab.journal_frac".into(),
                ratio(signed(self.lab.journal), signed(self.traced_wall)),
            ),
            (
                "lab.fold_frac".into(),
                ratio(signed(self.lab.fold), signed(self.traced_wall)),
            ),
            (
                "lab.journal_bytes".into(),
                per(self.lab.journal_bytes as f64),
            ),
            (
                "bench.trace_overhead_frac".into(),
                ratio(signed(self.traced_wall), signed(self.untraced_wall)) - 1.0,
            ),
        ]);
        m
    }
}

/// `"EW-MAC"` → `"ewmac"`: the protocol's segment in metric names.
pub fn protocol_slug(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .collect::<String>()
        .to_ascii_lowercase()
}
