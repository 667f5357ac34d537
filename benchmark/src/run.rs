//! One measured run of one workload: a discarded warm-up simulation, then
//! rounds of fixed work until the time budget is spent (at least
//! [`MIN_ROUNDS`]), each followed by a timing of the reference kernel
//! ([`crate::speed`]). The untraced run reports the end-to-end metrics, its
//! timings at reference speed; the traced run pairs every untraced round
//! with a traced twin of the same inputs and reports the per-layer metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use uasn_sim::json::JsonValue;

use crate::digest::combine;
use crate::probe::SpanLog;
use crate::speed::HostSpeed;
use crate::stats::{median, percentile, tail_percentile};
use crate::traced::{traced_cell, traced_sim, LabTotals, Layers, SimProbe};
use crate::workload::{
    run_untraced, sweep_round, untraced_cell, SimRecord, SimSpec, SweepRound, SweepShape, Workload,
    SWEEP_WORKERS,
};

/// Fewest rounds a run makes, however long they take.
pub const MIN_ROUNDS: u64 = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, host seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Where journals and trace documents go.
    pub results: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulations attempted (the warm-up included).
    pub attempted: u64,
    /// Simulations that panicked, were rejected, failed the output check,
    /// or disagreed with a repeat of the same inputs.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metrics by name: end-to-end untraced, per-layer traced.
    pub metrics: Vec<(String, f64)>,
    /// Digest of round 0's outputs, in table order.
    pub digest: u64,
    /// Simulations timed (the sample behind the per-simulation medians).
    pub samples: usize,
    /// Median round wall as measured and median reference-kernel time,
    /// seconds (untraced runs only).
    pub host: Option<(f64, f64)>,
    /// The highest percentile of per-simulation host time that leaves at
    /// least ten samples above it, with its value in seconds (untraced
    /// runs with enough samples only).
    pub sim_tail: Option<(u32, f64)>,
    /// Rounds measured.
    pub rounds: u64,
    /// The trace document, for traced runs.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    /// Whether every simulation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn tally(&mut self, record: &SimRecord) {
        self.attempted += 1;
        if let Some(problem) = &record.problem {
            self.failed += 1;
            self.problems.push(problem.clone());
        }
    }

    fn mismatch(&mut self, what: &str, expected: &SimRecord, got: &SimRecord) {
        if got.problem.is_none() && expected.problem.is_none() && got.digest != expected.digest {
            self.failed += 1;
            self.problems.push(format!(
                "{what}: output digest {:016x} != {:016x} for the same inputs",
                got.digest, expected.digest
            ));
        }
    }
}

/// One round's timing and records.
struct Round {
    wall: Duration,
    sims: Vec<SimRecord>,
    lab: Option<LabTotals>,
}

impl Round {
    fn single(started: Instant, sims: Vec<SimRecord>) -> Round {
        Round {
            wall: started.elapsed(),
            sims,
            lab: None,
        }
    }

    fn sweep(s: SweepRound) -> Round {
        let lab = LabTotals {
            busy: s.pool.busy,
            capacity: s.pool.elapsed * s.pool.workers as u32,
            journal: s.journal,
            journal_bytes: s.journal_bytes,
            fold: s.fold,
        };
        debug_assert_eq!(s.pool.workers, SWEEP_WORKERS);
        Round {
            wall: s.wall,
            sims: s.sims,
            lab: Some(lab),
        }
    }
}

fn untraced_round(w: Workload, seed: u64, round: u64, journal: &Path) -> io::Result<Round> {
    if w == Workload::PaperSweep {
        let shape = SweepShape::paper();
        return sweep_round(&shape, seed, round, journal, &untraced_cell).map(Round::sweep);
    }
    let started = Instant::now();
    let record = run_untraced(&w.sim(seed, round));
    Ok(Round::single(started, vec![record]))
}

/// Traced twin of [`untraced_round`]. Monitored workloads also run an
/// unmonitored traced twin (after the round's wall is taken), the baseline
/// `audit.emit_frac` subtracts.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    w: Workload,
    seed: u64,
    round: u64,
    journal: &Path,
    log: &SpanLog,
    run_span: u64,
    probes: &Mutex<Vec<SimProbe>>,
    layers: &mut Layers,
) -> io::Result<Round> {
    if w == Workload::PaperSweep {
        let shape = SweepShape::paper();
        let sweep_span = log.id();
        let started = Instant::now();
        let cell = |c: &_| traced_cell(c, log, sweep_span, probes);
        let s = sweep_round(&shape, seed, round, journal, &cell)?;
        log.push(sweep_span, run_span, "sweep", started, Instant::now());
        return Ok(Round::sweep(s));
    }
    let spec = w.sim(seed, round);
    let started = Instant::now();
    let (record, probe) = traced_sim(&spec, log, run_span, "sim");
    let mut round = Round::single(started, vec![record]);
    if let Some((p, _)) = probe {
        probes.lock().expect("probe list poisoned").push(p);
    }
    if spec.cfg.monitor {
        let twin = SimSpec {
            cfg: spec.cfg.clone().with_monitoring(false),
            ..spec
        };
        let (record, probe) = traced_sim(&twin, log, run_span, "twin");
        round.sims.push(record);
        if let Some((p, _)) = probe {
            layers.absorb_twin(&p);
        }
    }
    Ok(round)
}

/// Runs one workload for the configured budget.
///
/// # Errors
///
/// Fails on I/O errors writing the journal or the trace document, or when
/// the peak resident set cannot be read.
pub fn run(opts: &RunOptions) -> io::Result<RunResult> {
    let w = opts.workload;
    std::fs::create_dir_all(&opts.results)?;
    let run_id = run_id(w, opts.seed);
    let journal = opts.results.join(format!("{run_id}.journal.jsonl"));
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        digest: 0,
        samples: 0,
        host: None,
        sim_tail: None,
        rounds: 0,
        trace_file: None,
    };

    // Set-up: one discarded simulation — round 0's first — pages the binary
    // in and warms the allocator, and later doubles as a repeat check.
    let warm_up = run_untraced(&w.sim(opts.seed, 0));
    result.tally(&warm_up);

    let log = SpanLog::new(w.name());
    let run_span = log.id();
    let mut probes = Mutex::new(Vec::new());
    let mut layers = Layers::default();
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut sims = Vec::new();
    let mut peak_rss = 0.0;
    // The reference kernel's thread count, chosen by measurement on the
    // reference host (README, "Host speed"): paper-sweep runs two workers,
    // and route-overload tracks the host's speed on both vCPUs more closely
    // than on one.
    let threads = match w {
        Workload::PaperSweep | Workload::RouteOverload => SWEEP_WORKERS,
        Workload::SwarmBuild | Workload::RouteMonitored => 1,
    };
    let mut speed = HostSpeed::start(threads);
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < budget {
        let plain = untraced_round(w, opts.seed, round, &journal)?;
        let scale = speed.scale();
        for sim in &plain.sims {
            result.tally(sim);
        }
        if round == 0 {
            result.digest = combine(plain.sims.iter().map(|s| s.digest));
            result.mismatch("repeat of the warm-up", &warm_up, &plain.sims[0]);
        }
        if opts.trace {
            let traced = traced_round(
                w,
                opts.seed,
                round,
                &journal,
                &log,
                run_span,
                &probes,
                &mut layers,
            )?;
            for (i, sim) in traced.sims.iter().enumerate() {
                result.tally(sim);
                let reference = &plain.sims[i.min(plain.sims.len() - 1)];
                result.mismatch("traced run", reference, sim);
            }
            layers.rounds += 1;
            layers.traced_wall += traced.wall;
            layers.untraced_wall += plain.wall;
            if let Some(lab) = traced.lab {
                layers.absorb_lab(lab);
            }
            // Folding a probe replays its build pieces; doing it right after
            // the round keeps replay and measurement under the same host
            // conditions.
            for p in probes.get_mut().expect("probe list poisoned").drain(..) {
                layers.absorb(&p);
            }
        }
        raw_walls.push(plain.wall.as_secs_f64());
        walls.push(plain.wall.as_secs_f64() * scale);
        let good = || plain.sims.iter().filter(|s| s.problem.is_none());
        setups.push(good().map(|s| s.setup.as_secs_f64()).sum::<f64>() * scale);
        sims.extend(good().map(|s| s.total.as_secs_f64() * scale));
        round += 1;
        // The peak after a fixed amount of work, not after however many
        // rounds the budget allowed: later rounds only add allocator
        // fragmentation, which would make the figure depend on host speed.
        if round == MIN_ROUNDS {
            peak_rss = peak_rss_mb()?;
        }
    }
    let measured = started.elapsed();
    log.push(run_span, 0, "run", log.origin(), Instant::now());
    let _ = std::fs::remove_file(&journal);
    result.rounds = round;
    result.samples = sims.len();

    if opts.trace {
        result.metrics = layers.metrics();
        let path = opts.results.join(format!("{run_id}.trace.json"));
        let doc = JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::from_string("uasn-benchmark-trace"),
            ),
            ("version".to_string(), JsonValue::from_u64(1)),
            ("workload".to_string(), JsonValue::from_string(w.name())),
            ("seed".to_string(), JsonValue::from_u64(opts.seed)),
            ("rounds".to_string(), JsonValue::from_u64(round)),
            (
                "measured_s".to_string(),
                JsonValue::from_f64(measured.as_secs_f64()),
            ),
            ("spans".to_string(), log.to_json()),
            ("sims".to_string(), layers.sim_summaries()),
            ("metrics".to_string(), metrics_json(&result.metrics)),
        ]);
        std::fs::write(&path, doc.to_json())?;
        result.trace_file = Some(path);
    } else {
        // Per round: its wall and its summed `Simulation::new` time; per
        // simulation: build + loop. Each at reference speed, reported as
        // the median.
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        result.metrics = vec![
            ("wall_s".to_string(), med(&walls)),
            ("setup_s".to_string(), med(&setups)),
            ("sim_p50_s".to_string(), med(&sims)),
            ("peak_rss_mb".to_string(), peak_rss),
        ];
        result.host = Some((med(&raw_walls), speed.median_kernel_s()));
        result.sim_tail =
            tail_percentile(sims.len()).and_then(|p| Some((p, percentile(&sims, p)?)));
    }
    Ok(result)
}

/// `{name: value}` in the given order.
pub fn metrics_json(metrics: &[(String, f64)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|(name, v)| (name.clone(), JsonValue::from_f64(*v)))
            .collect(),
    )
}

/// A run id unique per process and instant: `<workload>-s<seed>-<ms>-<pid>`.
fn run_id(w: Workload, seed: u64) -> String {
    let ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    format!("{}-s{seed}-{ms}-{}", w.name(), std::process::id())
}

/// This process's peak resident set (`VmHWM`), MB (10^6 bytes).
///
/// # Errors
///
/// Fails where `/proc/self/status` has no `VmHWM` line (non-Linux hosts).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
