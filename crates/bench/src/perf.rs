//! Seeded hot-path performance scenarios (the `perf` bin's engine room).
//!
//! Each scenario runs one fixed `(protocol, grid, seed)` cell twice per
//! round: a plain timed pass and a *profiled* pass
//! ([`SimConfig::with_profiling`]). Profiling is contractually invisible,
//! so both passes must produce the same metrics report; the timed pass's
//! events/sec is the figure the `BENCH_perf.json` trajectory tracks and the
//! regression gate checks, and `overhead_pct` (profiled median against the
//! timed median) measures the observability tax. The scenario's
//! [`ProfileReport`] rides along in the document for `obs_report profile`.
//!
//! ## Noise discipline (schema v2)
//!
//! Wall-clock numbers from a single run are hostage to whatever else the
//! machine was doing. Version 2 of the harness therefore discards *warmup
//! rounds* (they page in the binary, warm the allocator, and settle CPU
//! frequency), then times *N repeat rounds* and reports the **median**
//! per pass. Within every round the two passes run back to back, so slow
//! drift in machine speed lands on both equally instead of skewing
//! whichever happened to run last. The raw repeat list is kept in the JSON
//! so a reviewer can judge the spread. The committed `BENCH_perf.json` also
//! carries a bounded `history` of prior summaries, giving the
//! perf-regression gate a trajectory rather than a single point.

use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_sim::engine::RunStats;
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::time::SimDuration;

use crate::protocols::Protocol;
use crate::runner::{master_seed, run_once_full};

/// Default number of discarded warmup runs per path.
pub const DEFAULT_WARMUP: u32 = 1;
/// Default number of timed repeats per path (the median is reported).
pub const DEFAULT_REPEATS: u32 = 3;
/// Events/sec drop (fractional) the regression gate tolerates before
/// failing. 25% is deliberately loose: it must swallow CI-runner noise
/// that survives the median while still catching an accidental
/// de-optimisation of the hot path.
pub const REGRESSION_TOLERANCE: f64 = 0.25;
/// How many prior summaries the committed document retains.
pub const HISTORY_LIMIT: usize = 20;

/// One fixed perf cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfScenario {
    /// Stable scenario id, e.g. `"medium-ewmac"`.
    pub name: &'static str,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Sensor count (sinks stay at the paper's 3).
    pub sensors: u32,
    /// Observation window, seconds.
    pub sim_time_s: u64,
    /// Multi-hop variant: heavy Poisson traffic over a four-layer column
    /// with depth routing and reliable transport, so relay and
    /// retransmission cost lands inside the regression gate.
    pub routed: bool,
    /// Swarm variant: a wide mobile column at the swarm goldens' per-layer
    /// density, where link-row rebuilds through the spatial index dominate.
    pub swarm: bool,
}

impl PerfScenario {
    /// The scenario's full simulation config (seeded, deterministic).
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default()
            .with_sensors(self.sensors)
            .with_sim_time(SimDuration::from_secs(self.sim_time_s))
            .with_seed(master_seed(0));
        if self.routed {
            // Aggregate Poisson load sized so the window generates well
            // over 100k SDUs (80 kbps / 2048-bit SDUs ≈ 39 SDUs/s): the
            // relay queues, transport table, and retry timers all run hot.
            cfg = cfg.with_offered_load_kbps(80.0).with_reliable_route();
            cfg.deployment = Deployment::LayeredColumn {
                extent_m: 2_000.0,
                layers: 4,
                layer_spacing_m: 1_200.0,
            };
        }
        if self.swarm {
            // Wide ten-layer column at constant per-layer density (the 10k
            // cell matches the swarm smoke test's geometry). Heavy Poisson
            // load spreads transmissions over many distinct nodes and slow
            // drift with a 1 s epoch invalidates the link cache every
            // simulated second, so rows rebuild all window long — the
            // workload the spatial index exists for.
            cfg = cfg.with_offered_load_kbps(60.0).with_mobility(0.5);
            cfg.mobility.update_interval = SimDuration::from_secs(1);
            cfg.deployment = Deployment::LayeredColumn {
                extent_m: 20_000.0 * (self.sensors as f64 / 10_000.0).sqrt(),
                layers: 10,
                layer_spacing_m: 450.0,
            };
        }
        cfg
    }
}

/// The fixed scenario roster: EW-MAC and S-FAMA on small / medium / large
/// grids. "Medium" is the paper's Table 2 shape (60 sensors, 300 s) — the
/// cell the ≥2x acceptance gate is measured on.
pub const SCENARIOS: &[PerfScenario] = &[
    PerfScenario {
        name: "small-ewmac",
        protocol: Protocol::EwMac,
        sensors: 20,
        sim_time_s: 60,
        routed: false,
        swarm: false,
    },
    PerfScenario {
        name: "small-sfama",
        protocol: Protocol::SFama,
        sensors: 20,
        sim_time_s: 60,
        routed: false,
        swarm: false,
    },
    PerfScenario {
        name: "medium-ewmac",
        protocol: Protocol::EwMac,
        sensors: 60,
        sim_time_s: 300,
        routed: false,
        swarm: false,
    },
    PerfScenario {
        name: "medium-sfama",
        protocol: Protocol::SFama,
        sensors: 60,
        sim_time_s: 300,
        routed: false,
        swarm: false,
    },
    PerfScenario {
        name: "large-ewmac",
        protocol: Protocol::EwMac,
        sensors: 120,
        sim_time_s: 120,
        routed: false,
        swarm: false,
    },
    PerfScenario {
        name: "large-sfama",
        protocol: Protocol::SFama,
        sensors: 120,
        sim_time_s: 120,
        routed: false,
        swarm: false,
    },
    // Multi-hop heavy traffic: ~117k generated SDUs (80 kbps aggregate
    // Poisson over 3000 s) relayed down a four-layer column with reliable
    // transport, so routing-path cost shows up in the regression gate.
    PerfScenario {
        name: "route-ewmac",
        protocol: Protocol::EwMac,
        sensors: 40,
        sim_time_s: 3_000,
        routed: true,
        swarm: false,
    },
    // Swarm fan-out: wide mobile columns where every transmission's
    // candidate scan is the dominant cost, pinning the grid-indexed row
    // builds at 1k and 10k nodes in the `BENCH_perf.json` trajectory.
    PerfScenario {
        name: "swarm1k-ewmac",
        protocol: Protocol::EwMac,
        sensors: 1_000,
        sim_time_s: 20,
        routed: false,
        swarm: true,
    },
    PerfScenario {
        name: "swarm10k-ewmac",
        protocol: Protocol::EwMac,
        sensors: 10_000,
        sim_time_s: 10,
        routed: false,
        swarm: true,
    },
];

/// Scenarios whose name starts with `prefix` (`"small"`, `"medium"`,
/// `"large"`), or all of them for `"all"`.
pub fn scenarios_matching(prefix: &str) -> Vec<PerfScenario> {
    SCENARIOS
        .iter()
        .copied()
        .filter(|s| prefix == "all" || s.name.starts_with(prefix))
        .collect()
}

/// Median of a sample of microsecond timings (mean of the middle two for
/// even counts; 0 for an empty slice).
pub fn median_us(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// One pass's timing: the deterministic engine statistics (identical
/// across repeats) plus every timed repeat's wall clock.
///
/// The timed wall covers the **full run** — world construction (topology
/// build, link rows, neighbour tables) plus the event loop — not just the
/// engine's own `RunStats::wall`. At swarm node counts construction is a
/// large share of the run, and a metric that ignored it would miss
/// exactly the regressions the swarm cells exist to catch.
#[derive(Debug, Clone)]
pub struct PathTiming {
    /// Engine statistics from the last timed repeat. All fields except
    /// `wall` are deterministic, so any repeat would do.
    pub stats: RunStats,
    /// Full-run wall time (construction + event loop) of each timed
    /// repeat, microseconds, in run order.
    pub runs_us: Vec<u64>,
}

impl PathTiming {
    /// Median wall time across the timed repeats, microseconds.
    pub fn median_wall_us(&self) -> u64 {
        median_us(&self.runs_us)
    }

    /// Events per wall-clock second at the median repeat.
    pub fn events_per_sec(&self) -> f64 {
        let us = self.median_wall_us();
        if us == 0 {
            0.0
        } else {
            self.stats.events_processed as f64 / (us as f64 / 1e6)
        }
    }
}

/// All measured runs of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: PerfScenario,
    /// Timing of the plain (unprofiled) runs.
    pub timed: PathTiming,
    /// Timing of the profiled runs (`None` when the profiled pass was
    /// skipped).
    pub profiled: Option<PathTiming>,
    /// The profile from the profiled pass.
    pub profile: Option<ProfileReport>,
    /// SDUs generated per run (deterministic across passes and repeats) —
    /// the traffic-volume witness for the heavy-load scenarios.
    pub sdus_generated: u64,
    /// Whether every run produced the same metrics report (they must;
    /// `false` here means profiling changed behaviour).
    pub reports_equal: bool,
}

impl ScenarioResult {
    /// Profiling tax: profiled median wall over unprofiled, as a
    /// percentage (`Some(4.2)` = profiling costs 4.2%).
    pub fn overhead_pct(&self) -> Option<f64> {
        let profiled = self.profiled.as_ref()?.median_wall_us() as f64;
        let plain = self.timed.median_wall_us() as f64;
        (plain > 0.0).then(|| (profiled / plain - 1.0) * 100.0)
    }

    /// One JSON object for the `BENCH_perf.json` trajectory.
    pub fn to_json(&self) -> JsonValue {
        let path = |t: &PathTiming| {
            JsonValue::Object(vec![
                (
                    "events".to_string(),
                    JsonValue::from_u64(t.stats.events_processed),
                ),
                (
                    "runs_us".to_string(),
                    JsonValue::Array(t.runs_us.iter().map(|&u| JsonValue::from_u64(u)).collect()),
                ),
                (
                    "median_wall_us".to_string(),
                    JsonValue::from_u64(t.median_wall_us()),
                ),
                (
                    "events_per_sec".to_string(),
                    JsonValue::from_f64(t.events_per_sec()),
                ),
            ])
        };
        let mut fields = vec![
            (
                "name".to_string(),
                JsonValue::from_string(self.scenario.name),
            ),
            (
                "protocol".to_string(),
                JsonValue::from_string(self.scenario.protocol.name()),
            ),
            (
                "sensors".to_string(),
                JsonValue::from_u64(self.scenario.sensors as u64),
            ),
            (
                "sim_time_s".to_string(),
                JsonValue::from_u64(self.scenario.sim_time_s),
            ),
            (
                "sdus_generated".to_string(),
                JsonValue::from_u64(self.sdus_generated),
            ),
            // The timed pass keeps its historical key so committed documents
            // written when a reference pass ran beside it stay valid
            // `--check` baselines: the gate reads `fastpath.events_per_sec`.
            ("fastpath".to_string(), path(&self.timed)),
            (
                "reports_equal".to_string(),
                JsonValue::Bool(self.reports_equal),
            ),
        ];
        if let (Some(profiled), Some(pct)) = (self.profiled.as_ref(), self.overhead_pct()) {
            fields.push((
                "profiled".to_string(),
                JsonValue::Object(vec![
                    (
                        "median_wall_us".to_string(),
                        JsonValue::from_u64(profiled.median_wall_us()),
                    ),
                    ("overhead_pct".to_string(), JsonValue::from_f64(pct)),
                ]),
            ));
        }
        if let Some(profile) = &self.profile {
            fields.push(("profile".to_string(), profile.to_json()));
        }
        JsonValue::Object(fields)
    }
}

/// Runs one configuration once, checks its report against `expect`
/// (populating it from the first call), and returns the full run output
/// plus the full-run wall time (construction + event loop), microseconds.
fn checked_run(
    cfg: &SimConfig,
    protocol: Protocol,
    expect: &mut Option<uasn_net::metrics::MetricsReport>,
    reports_equal: &mut bool,
) -> (uasn_net::world::RunOutput, u64) {
    let start = std::time::Instant::now();
    let out = run_once_full(cfg, protocol);
    let wall_us = start.elapsed().as_micros() as u64;
    match expect {
        Some(r) => *reports_equal &= *r == out.report,
        None => *expect = Some(out.report.clone()),
    }
    (out, wall_us)
}

/// Accumulates one pass's timed repeats into a [`PathTiming`].
#[derive(Default)]
struct PathAccum {
    runs_us: Vec<u64>,
    stats: Option<RunStats>,
}

impl PathAccum {
    fn push(&mut self, (out, wall_us): (uasn_net::world::RunOutput, u64)) {
        self.runs_us.push(wall_us);
        self.stats = Some(out.stats);
    }

    fn finish(self) -> PathTiming {
        PathTiming {
            stats: self.stats.expect("at least one timed repeat"),
            runs_us: self.runs_us,
        }
    }
}

/// Runs one scenario's timed and profiled passes.
///
/// Each warmup round runs both configurations once, discarded; then each
/// of the `repeats` (min 1) timed rounds runs both **back to back**.
/// Interleaving matters: machine speed drifts on multi-second timescales
/// (frequency scaling, noisy neighbours), and timing each pass as its own
/// block would hand the two passes different machines. With round-robin
/// rounds both sample the same drift, so the per-pass medians — and the
/// overhead ratio built from them — stay comparable.
pub fn run_scenario_with(scenario: PerfScenario, warmup: u32, repeats: u32) -> ScenarioResult {
    let cfg = scenario.config();
    // Profiled pass: registry + instrumented engine loop. The report must
    // *still* match — profiling is contractually invisible.
    let profiled_cfg = cfg.clone().with_profiling(true);
    let mut expect = None;
    let mut equal = true;
    for _ in 0..warmup {
        checked_run(&cfg, scenario.protocol, &mut expect, &mut equal);
        checked_run(&profiled_cfg, scenario.protocol, &mut expect, &mut equal);
    }
    let mut timed = PathAccum::default();
    let mut profiled = PathAccum::default();
    let mut profile = None;
    for _ in 0..repeats.max(1) {
        timed.push(checked_run(
            &cfg,
            scenario.protocol,
            &mut expect,
            &mut equal,
        ));
        let (out, wall_us) = checked_run(&profiled_cfg, scenario.protocol, &mut expect, &mut equal);
        profile = out.profile.clone();
        profiled.push((out, wall_us));
    }
    ScenarioResult {
        scenario,
        timed: timed.finish(),
        profiled: Some(profiled.finish()),
        profile,
        sdus_generated: expect.as_ref().map_or(0, |r| r.sdus_generated),
        reports_equal: equal,
    }
}

/// Single-shot scenario run (no warmup, one repeat) — the cheap form used
/// by tests.
pub fn run_scenario(scenario: PerfScenario) -> ScenarioResult {
    run_scenario_with(scenario, 0, 1)
}

/// Assembles the full `BENCH_perf.json` document (schema v2).
///
/// `previous` is the prior committed document, if any: its summary (and
/// any history it already carried) is folded into this document's
/// `history` array, bounded to [`HISTORY_LIMIT`] entries, newest first.
pub fn perf_doc(
    results: &[ScenarioResult],
    warmup: u32,
    repeats: u32,
    previous: Option<&JsonValue>,
) -> JsonValue {
    let mut history: Vec<JsonValue> = Vec::new();
    if let Some(prev) = previous {
        if let Some(summary) = summarize_doc(prev) {
            history.push(summary);
        }
        if let Some(prior) = prev.get("history").and_then(JsonValue::as_array) {
            history.extend(prior.iter().cloned());
        }
        history.truncate(HISTORY_LIMIT);
    }
    JsonValue::Object(vec![
        (
            "schema".to_string(),
            JsonValue::from_string("uasn-bench-perf"),
        ),
        ("version".to_string(), JsonValue::from_u64(2)),
        ("warmup".to_string(), JsonValue::from_u64(warmup as u64)),
        ("repeats".to_string(), JsonValue::from_u64(repeats as u64)),
        (
            "scenarios".to_string(),
            JsonValue::Array(results.iter().map(ScenarioResult::to_json).collect()),
        ),
        ("history".to_string(), JsonValue::Array(history)),
    ])
}

/// Timed-pass events/sec for one scenario object, reading either the v2
/// (`events_per_sec` at the median) or v1 (`events_per_wall_sec`) shape.
fn scenario_events_per_sec(scenario: &JsonValue) -> Option<f64> {
    let fast = scenario.get("fastpath")?;
    fast.get("events_per_sec")
        .or_else(|| fast.get("events_per_wall_sec"))
        .and_then(JsonValue::as_f64)
}

/// Compresses a full document into one history entry: per-scenario
/// events/sec, without raw run lists or profiles.
fn summarize_doc(doc: &JsonValue) -> Option<JsonValue> {
    let scenarios = doc.get("scenarios")?.as_array()?;
    let entries: Vec<JsonValue> = scenarios
        .iter()
        .filter_map(|s| {
            let name = s.get("name")?.as_str()?;
            let mut fields = vec![("name".to_string(), JsonValue::from_string(name))];
            if let Some(eps) = scenario_events_per_sec(s) {
                fields.push(("events_per_sec".to_string(), JsonValue::from_f64(eps)));
            }
            Some(JsonValue::Object(fields))
        })
        .collect();
    let version = doc.get("version").and_then(JsonValue::as_u64).unwrap_or(1);
    Some(JsonValue::Object(vec![
        ("version".to_string(), JsonValue::from_u64(version)),
        ("scenarios".to_string(), JsonValue::Array(entries)),
    ]))
}

/// Compares a fresh document against a committed baseline.
///
/// A scenario regresses when its timed-pass events/sec falls below
/// `(1 - tolerance)` of the baseline's figure for the same name.
/// Scenarios present on only one side are ignored (rosters may grow).
/// Returns human-readable regression lines; empty = gate passes.
pub fn regression_failures(
    current: &JsonValue,
    baseline: &JsonValue,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let empty = Vec::new();
    let current_scenarios = current
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let baseline_scenarios = baseline
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    for cur in current_scenarios {
        let Some(name) = cur.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(cur_eps) = scenario_events_per_sec(cur) else {
            continue;
        };
        let Some(base_eps) = baseline_scenarios
            .iter()
            .find(|b| b.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(scenario_events_per_sec)
        else {
            continue;
        };
        let floor = base_eps * (1.0 - tolerance);
        if cur_eps < floor {
            failures.push(format!(
                "{name}: {cur_eps:.0} events/sec < floor {floor:.0} \
                 (baseline {base_eps:.0}, tolerance {:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_both_protocols_at_three_sizes() {
        assert_eq!(SCENARIOS.len(), 9);
        assert_eq!(scenarios_matching("small").len(), 2);
        assert_eq!(scenarios_matching("medium").len(), 2);
        assert_eq!(scenarios_matching("large").len(), 2);
        assert_eq!(scenarios_matching("route").len(), 1);
        assert_eq!(scenarios_matching("swarm").len(), 2);
        assert_eq!(scenarios_matching("swarm10k").len(), 1);
        assert_eq!(scenarios_matching("all").len(), 9);
        assert!(scenarios_matching("nonsense").is_empty());
        for s in SCENARIOS {
            s.config().validate().expect("scenario config is valid");
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median_us(&[]), 0);
        assert_eq!(median_us(&[7]), 7);
        assert_eq!(median_us(&[9, 1, 5]), 5);
        assert_eq!(median_us(&[4, 2, 8, 6]), 5);
        // Unsorted input, extreme outlier: the median shrugs it off.
        assert_eq!(median_us(&[1_000_000, 10, 12]), 12);
    }

    #[test]
    fn small_scenario_runs_and_serialises() {
        // A miniature cell keeps this test cheap while exercising the full
        // timed + profiled + JSON pipeline the bin uses, including two timed
        // repeats so medians are real.
        let tiny = PerfScenario {
            name: "tiny-ewmac",
            protocol: Protocol::EwMac,
            sensors: 8,
            sim_time_s: 30,
            routed: false,
            swarm: false,
        };
        let result = run_scenario_with(tiny, 0, 2);
        assert!(result.reports_equal, "profiling diverged");
        assert_eq!(
            result.timed.stats.events_processed,
            result.profiled.as_ref().unwrap().stats.events_processed
        );
        assert_eq!(result.timed.runs_us.len(), 2);
        let profile = result.profile.as_ref().expect("profiled pass ran");
        assert!(profile.engine.sampled_events > 0);
        assert!(result.overhead_pct().is_some());

        let doc = perf_doc(&[result], 0, 2, None);
        let text = doc.to_json();
        let back = JsonValue::parse(&text).expect("round trip");
        assert_eq!(
            back.get("schema").and_then(JsonValue::as_str),
            Some("uasn-bench-perf")
        );
        assert_eq!(back.get("version").and_then(JsonValue::as_u64), Some(2));
        let scenarios = back.get("scenarios").and_then(JsonValue::as_array).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0]
                .get("reports_equal")
                .and_then(JsonValue::as_bool),
            Some(true)
        );
        assert!(scenarios[0].get("profile").is_some());
        // The embedded profile is itself round-trippable.
        let profile = ProfileReport::from_json(scenarios[0].get("profile").unwrap())
            .expect("profile decodes");
        assert_eq!(profile.runs, 1);
    }

    fn fake_doc(entries: &[(&str, f64)]) -> JsonValue {
        JsonValue::Object(vec![
            ("version".to_string(), JsonValue::from_u64(2)),
            (
                "scenarios".to_string(),
                JsonValue::Array(
                    entries
                        .iter()
                        .map(|&(name, eps)| {
                            JsonValue::Object(vec![
                                ("name".to_string(), JsonValue::from_string(name)),
                                (
                                    "fastpath".to_string(),
                                    JsonValue::Object(vec![(
                                        "events_per_sec".to_string(),
                                        JsonValue::from_f64(eps),
                                    )]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn regression_gate_trips_only_past_the_tolerance() {
        let baseline = fake_doc(&[("a", 1000.0), ("b", 1000.0), ("c", 1000.0)]);
        // a: fine; b: -20% (within 25%); c: -30% (regression).
        let current = fake_doc(&[("a", 1100.0), ("b", 800.0), ("c", 700.0)]);
        let failures = regression_failures(&current, &baseline, REGRESSION_TOLERANCE);
        assert_eq!(failures.len(), 1, "failures: {failures:?}");
        assert!(failures[0].starts_with("c:"), "{}", failures[0]);
        // Unknown scenarios on either side are not regressions.
        let grown = fake_doc(&[("a", 1100.0), ("d", 1.0)]);
        assert!(regression_failures(&grown, &baseline, REGRESSION_TOLERANCE).is_empty());
    }

    #[test]
    fn regression_gate_reads_v1_baselines() {
        let v1 = JsonValue::Object(vec![
            ("version".to_string(), JsonValue::from_u64(1)),
            (
                "scenarios".to_string(),
                JsonValue::Array(vec![JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::from_string("a")),
                    (
                        "fastpath".to_string(),
                        JsonValue::Object(vec![(
                            "events_per_wall_sec".to_string(),
                            JsonValue::from_f64(1000.0),
                        )]),
                    ),
                ])]),
            ),
        ]);
        let current = fake_doc(&[("a", 500.0)]);
        let failures = regression_failures(&current, &v1, REGRESSION_TOLERANCE);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn history_folds_previous_summaries_newest_first() {
        let tiny = PerfScenario {
            name: "tiny-ewmac",
            protocol: Protocol::EwMac,
            sensors: 8,
            sim_time_s: 30,
            routed: false,
            swarm: false,
        };
        let result = run_scenario_with(tiny, 0, 1);
        let first = perf_doc(std::slice::from_ref(&result), 0, 1, None);
        assert!(first
            .get("history")
            .and_then(JsonValue::as_array)
            .is_some_and(|h| h.is_empty()));
        let second = perf_doc(std::slice::from_ref(&result), 0, 1, Some(&first));
        let history = second.get("history").and_then(JsonValue::as_array).unwrap();
        assert_eq!(history.len(), 1);
        let entry = &history[0];
        assert_eq!(entry.get("version").and_then(JsonValue::as_u64), Some(2));
        let names: Vec<&str> = entry
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(names, ["tiny-ewmac"]);
        // Folding again stacks the newest summary on top and keeps priors.
        let third = perf_doc(std::slice::from_ref(&result), 0, 1, Some(&second));
        let history = third.get("history").and_then(JsonValue::as_array).unwrap();
        assert_eq!(history.len(), 2);
    }
}
