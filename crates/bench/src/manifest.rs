//! Run manifests: a machine-readable record of what produced each results
//! file, written as `<id>.manifest.json` next to the CSVs.
//!
//! A manifest captures the experiment identity, the crate version, the seed
//! scheme and replication count, the protocol roster, a flattened snapshot
//! of the base [`SimConfig`], and the engine's aggregated profiling
//! statistics ([`StatsAggregate`]). Everything except wall-clock-derived
//! numbers is deterministic for a given seed set. The `obs_report` binary
//! pretty-prints manifests back.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use uasn_audit::MonitorReport;
use uasn_net::config::SimConfig;
use uasn_net::metrics::{DropVerdict, VerdictHistogram};
use uasn_net::traffic::TrafficPattern;
use uasn_sim::engine::{intern_label, RunStats};
use uasn_sim::hist::LogHistogram;
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::trace::TraceHealth;

/// Manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "uasn-manifest";
/// Bump when the manifest layout changes incompatibly.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;
/// How the harness derives per-replication master seeds.
pub const SEED_SCHEME: &str = "0xEA5E + replication * 7919";

/// Engine profiling statistics summed over every run behind one artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsAggregate {
    /// Simulation runs absorbed.
    pub runs: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Total wall-clock spent in run loops.
    pub wall: Duration,
    /// Highest queue depth any run reached.
    pub peak_queue_depth: usize,
    /// Per-kind event totals, in first-seen order.
    pub kind_counts: Vec<(&'static str, u64)>,
    /// How each run stopped, in first-seen order.
    pub stop_reasons: Vec<(&'static str, u64)>,
    /// Trace-sink health summed over every run (all zeros when runs were
    /// untraced): audits refuse or warn when this is lossy.
    pub trace: TraceHealth,
    /// Merged performance profile; `None` when no absorbed run carried
    /// one (profiling off, the default).
    pub profile: Option<ProfileReport>,
    /// Merged online-monitoring totals; `None` when no absorbed run
    /// carried them (monitoring off, the default).
    pub monitor: Option<MonitorTotals>,
}

impl StatsAggregate {
    /// Folds one run in: its engine statistics, its trace-sink health
    /// (capture drops, ring evictions, JSONL I/O errors), and its
    /// performance profile and online-monitoring totals when it carried
    /// them.
    pub fn absorb(
        &mut self,
        stats: &RunStats,
        trace: &TraceHealth,
        profile: Option<&ProfileReport>,
        monitor: Option<&MonitorTotals>,
    ) {
        self.runs += 1;
        self.events_processed += stats.events_processed;
        self.wall += stats.wall;
        self.peak_queue_depth = self.peak_queue_depth.max(stats.peak_queue_depth);
        add_counts(&mut self.kind_counts, &stats.kind_counts);
        add_counts(&mut self.stop_reasons, &[(stats.stop_reason.as_str(), 1)]);
        self.absorb_observations(trace, profile, monitor);
    }

    /// Merges another aggregate (e.g. per-cell into per-figure).
    pub fn merge(&mut self, other: &StatsAggregate) {
        self.runs += other.runs;
        self.events_processed += other.events_processed;
        self.wall += other.wall;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        add_counts(&mut self.kind_counts, &other.kind_counts);
        add_counts(&mut self.stop_reasons, &other.stop_reasons);
        self.absorb_observations(&other.trace, other.profile.as_ref(), other.monitor.as_ref());
    }

    fn absorb_observations(
        &mut self,
        trace: &TraceHealth,
        profile: Option<&ProfileReport>,
        monitor: Option<&MonitorTotals>,
    ) {
        self.trace.merge(trace);
        if let Some(profile) = profile {
            match &mut self.profile {
                Some(mine) => mine.merge(profile),
                None => self.profile = Some(profile.clone()),
            }
        }
        if let Some(monitor) = monitor {
            match &mut self.monitor {
                Some(mine) => mine.merge(monitor),
                None => self.monitor = Some(monitor.clone()),
            }
        }
    }

    /// Events processed per wall-clock second over all runs.
    pub fn events_per_wall_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Serialises into a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let pairs = |v: &[(&'static str, u64)]| {
            JsonValue::Array(
                v.iter()
                    .map(|&(k, c)| {
                        JsonValue::Array(vec![JsonValue::from_string(k), JsonValue::from_u64(c)])
                    })
                    .collect(),
            )
        };
        // The trace codec's object plus the manifest's `lossless` verdict.
        let mut trace = self.trace.to_json();
        if let JsonValue::Object(pairs) = &mut trace {
            pairs.push((
                "lossless".to_string(),
                JsonValue::Bool(self.trace.is_lossless()),
            ));
        }
        let mut fields = vec![
            ("runs".to_string(), JsonValue::from_u64(self.runs)),
            (
                "events_processed".to_string(),
                JsonValue::from_u64(self.events_processed),
            ),
            (
                "wall_us".to_string(),
                JsonValue::from_u64(self.wall.as_micros() as u64),
            ),
            (
                "peak_queue_depth".to_string(),
                JsonValue::from_u64(self.peak_queue_depth as u64),
            ),
            (
                "events_per_wall_sec".to_string(),
                JsonValue::from_f64(self.events_per_wall_sec()),
            ),
            ("kind_counts".to_string(), pairs(&self.kind_counts)),
            ("stop_reasons".to_string(), pairs(&self.stop_reasons)),
            ("trace".to_string(), trace),
        ];
        if let Some(profile) = &self.profile {
            fields.push(("profile".to_string(), profile.to_json()));
        }
        if let Some(monitor) = &self.monitor {
            fields.push(("monitor".to_string(), monitor.to_json()));
        }
        JsonValue::Object(fields)
    }

    /// Reconstructs an aggregate from its [`StatsAggregate::to_json`]
    /// form. Wall time comes back at the microseconds it is stored at;
    /// the derived `events_per_wall_sec` and `trace.lossless` are
    /// recomputed rather than read. Labels are interned with the table
    /// [`RunStats::from_json`] uses.
    ///
    /// Returns `None` on a missing or malformed field, including a
    /// present but undecodable profile or monitor block.
    pub fn from_json(doc: &JsonValue) -> Option<StatsAggregate> {
        let counts = |key: &str| {
            doc.get(key)?
                .as_array()?
                .iter()
                .map(|pair| {
                    let [label, count] = pair.as_array()? else {
                        return None;
                    };
                    Some((intern_label(label.as_str()?), count.as_u64()?))
                })
                .collect::<Option<Vec<_>>>()
        };
        // Absent key = the block was off for every run; a present but
        // malformed block fails the whole decode.
        let profile = match doc.get("profile") {
            Some(p) => Some(ProfileReport::from_json(p)?),
            None => None,
        };
        let monitor = match doc.get("monitor") {
            Some(m) => Some(MonitorTotals::from_json(m)?),
            None => None,
        };
        Some(StatsAggregate {
            runs: doc.get("runs")?.as_u64()?,
            events_processed: doc.get("events_processed")?.as_u64()?,
            wall: Duration::from_micros(doc.get("wall_us")?.as_u64()?),
            peak_queue_depth: doc.get("peak_queue_depth")?.as_u64()? as usize,
            kind_counts: counts("kind_counts")?,
            stop_reasons: counts("stop_reasons")?,
            trace: TraceHealth::from_json(doc.get("trace")?)?,
            profile,
            monitor,
        })
    }
}

/// Adds `counts` into `table` label by label, appending labels it has not
/// seen yet (so the table keeps first-seen order).
fn add_counts<L: PartialEq + Clone>(table: &mut Vec<(L, u64)>, counts: &[(L, u64)]) {
    for (label, count) in counts {
        match table.iter_mut().find(|(l, _)| l == label) {
            Some((_, c)) => *c += count,
            None => table.push((label.clone(), *count)),
        }
    }
}

/// Online-monitoring totals summed over every run behind one artifact:
/// streaming invariant findings by kind, and the causal drop-verdict
/// histogram. Rides next to the profile in cell journals, sweep
/// summaries, and manifests, with the same absent-key-when-off encoding;
/// merging is exact (plain counter addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorTotals {
    /// Monitored runs absorbed.
    pub runs: u64,
    /// Streaming-monitor findings by kind label, in first-seen order.
    pub findings: Vec<(String, u64)>,
    /// Causal drop verdicts summed over the runs.
    pub verdicts: VerdictHistogram,
}

impl MonitorTotals {
    /// The totals of one monitored run: a count for every streamed finding
    /// kind (zero counts included, so merged blocks always list the full
    /// taxonomy) plus the run's loss ledger (`MetricsReport::drops`).
    pub fn from_run(report: &MonitorReport, drops: &VerdictHistogram) -> MonitorTotals {
        MonitorTotals {
            runs: 1,
            findings: report
                .counts_by_kind()
                .into_iter()
                .map(|(kind, count)| (kind.to_string(), count as u64))
                .collect(),
            verdicts: *drops,
        }
    }

    /// Total invariant findings across every kind.
    pub fn total_findings(&self) -> u64 {
        self.findings.iter().map(|(_, c)| c).sum()
    }

    /// Merges another totals block in (e.g. per-cell into per-figure).
    pub fn merge(&mut self, other: &MonitorTotals) {
        self.runs += other.runs;
        add_counts(&mut self.findings, &other.findings);
        self.verdicts.merge(&other.verdicts);
    }

    /// Serialises into a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let findings = JsonValue::Array(
            self.findings
                .iter()
                .map(|(k, c)| {
                    JsonValue::Array(vec![JsonValue::from_string(k), JsonValue::from_u64(*c)])
                })
                .collect(),
        );
        let verdicts = JsonValue::Object(
            self.verdicts
                .iter()
                .map(|(v, c)| (v.as_str().to_string(), JsonValue::from_u64(c)))
                .collect(),
        );
        JsonValue::Object(vec![
            ("runs".to_string(), JsonValue::from_u64(self.runs)),
            ("findings".to_string(), findings),
            ("verdicts".to_string(), verdicts),
        ])
    }

    /// Reconstructs from the [`MonitorTotals::to_json`] form — exact: the
    /// result merges identically to the original.
    pub fn from_json(doc: &JsonValue) -> Option<MonitorTotals> {
        let mut findings = Vec::new();
        match doc.get("findings")? {
            JsonValue::Array(entries) => {
                for entry in entries {
                    let pair = match entry {
                        JsonValue::Array(pair) if pair.len() == 2 => pair,
                        _ => return None,
                    };
                    findings.push((pair[0].as_str()?.to_string(), pair[1].as_u64()?));
                }
            }
            _ => return None,
        }
        let mut verdicts = VerdictHistogram::new();
        for verdict in DropVerdict::ALL {
            if let Some(count) = doc.get("verdicts")?.get(verdict.as_str()) {
                verdicts.add(verdict, count.as_u64()?);
            }
        }
        Some(MonitorTotals {
            runs: doc.get("runs")?.as_u64()?,
            findings,
            verdicts,
        })
    }
}

/// Flattens the interesting [`SimConfig`] knobs into `(key, value)` strings
/// for the manifest's `config` object.
pub fn config_summary(cfg: &SimConfig) -> Vec<(String, String)> {
    let mut rows = vec![
        ("sensors".to_string(), cfg.sensors.to_string()),
        ("sinks".to_string(), cfg.sinks.to_string()),
        ("bitrate_bps".to_string(), format!("{}", cfg.bitrate_bps)),
        ("control_bits".to_string(), cfg.control_bits.to_string()),
        ("data_bits".to_string(), cfg.data_bits.to_string()),
        (
            "traffic".to_string(),
            match cfg.traffic {
                TrafficPattern::Poisson { offered_load_kbps } => {
                    format!("poisson {offered_load_kbps} kbps")
                }
                TrafficPattern::Batch {
                    total_packets,
                    window,
                } => format!("batch {total_packets} pkts in {} s", window.as_secs_f64()),
                TrafficPattern::BurstyOnOff {
                    offered_load_kbps,
                    on_s,
                    off_s,
                } => format!("bursty {offered_load_kbps} kbps ({on_s} s on / {off_s} s off)"),
                TrafficPattern::Convergecast { period_s, jitter_s } => {
                    format!("convergecast every {period_s} s (jitter {jitter_s} s)")
                }
            },
        ),
        (
            "sim_time_s".to_string(),
            format!("{}", cfg.sim_time.as_secs_f64()),
        ),
        (
            "max_time_s".to_string(),
            format!("{}", cfg.max_time.as_secs_f64()),
        ),
        ("base_seed".to_string(), cfg.seed.to_string()),
        (
            "mobility".to_string(),
            if cfg.mobility.enabled {
                format!("<= {} m/s", cfg.mobility.max_speed_ms)
            } else {
                "off".to_string()
            },
        ),
        ("hello_init".to_string(), cfg.hello_init.to_string()),
    ];
    if let Some((min, max)) = cfg.data_bits_range {
        rows.push(("data_bits_range".to_string(), format!("{min}..={max}")));
    }
    if let Some(interval) = cfg.sample_interval {
        rows.push((
            "sample_interval_s".to_string(),
            format!("{}", interval.as_secs_f64()),
        ));
    }
    if let Some(route) = &cfg.route {
        let transport = match route.transport {
            Some(t) => format!(
                " + transport (budget {}, base {} s)",
                t.retry_budget,
                t.base_timeout_us as f64 / 1e6
            ),
            None => String::new(),
        };
        rows.push((
            "route".to_string(),
            format!("{} ttl {}{}", route.policy.as_str(), route.ttl, transport),
        ));
    }
    rows
}

/// The manifest written next to one results artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Experiment id ("F6", "X1", "LAT", …) — names the output files.
    pub id: String,
    /// Human title.
    pub title: String,
    /// `uasn-bench` version that produced the artifact.
    pub crate_version: &'static str,
    /// Replications per figure cell.
    pub seeds: u64,
    /// How per-replication seeds derive ([`SEED_SCHEME`]).
    pub seed_scheme: &'static str,
    /// Protocol legend labels.
    pub protocols: Vec<String>,
    /// Flattened base configuration ([`config_summary`]).
    pub config: Vec<(String, String)>,
    /// Aggregated engine profiling over every run.
    pub stats: StatsAggregate,
    /// Log-bucketed MAC delivery latency merged over every run, when the
    /// producing harness collected it.
    pub delivery_latency_us: Option<LogHistogram>,
    /// Log-bucketed end-to-end (generation to sink) latency merged over
    /// every run, when collected.
    pub e2e_latency_us: Option<LogHistogram>,
    /// Path of the JSONL trace behind this artifact, when one was streamed
    /// (relative paths are relative to the manifest's directory).
    pub trace_file: Option<String>,
}

impl RunManifest {
    /// Builds a manifest for an artifact produced from `cfg`-based runs.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        seeds: u64,
        protocols: Vec<String>,
        cfg: &SimConfig,
        stats: StatsAggregate,
    ) -> Self {
        RunManifest {
            id: id.into(),
            title: title.into(),
            crate_version: env!("CARGO_PKG_VERSION"),
            seeds,
            seed_scheme: SEED_SCHEME,
            protocols,
            config: config_summary(cfg),
            stats,
            delivery_latency_us: None,
            e2e_latency_us: None,
            trace_file: None,
        }
    }

    /// Attaches merged latency histograms; their p50/p90/p99/max summaries
    /// land in the manifest's `latency` object.
    pub fn with_latency(mut self, delivery_us: LogHistogram, e2e_us: LogHistogram) -> Self {
        self.delivery_latency_us = Some(delivery_us);
        self.e2e_latency_us = Some(e2e_us);
        self
    }

    /// Records the JSONL trace file behind this artifact so `obs_report`'s
    /// trace verbs (`check`, `journeys`, `latency`, `paths`) can find it.
    pub fn with_trace_file(mut self, path: impl Into<String>) -> Self {
        self.trace_file = Some(path.into());
        self
    }

    /// Serialises into the manifest JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut latency = Vec::new();
        if let Some(h) = &self.delivery_latency_us {
            latency.push(("delivery_us".to_string(), h.to_json()));
        }
        if let Some(h) = &self.e2e_latency_us {
            latency.push(("end_to_end_us".to_string(), h.to_json()));
        }
        let mut pairs = vec![
            (
                "schema".to_string(),
                JsonValue::from_string(MANIFEST_SCHEMA),
            ),
            (
                "version".to_string(),
                JsonValue::from_u64(MANIFEST_SCHEMA_VERSION),
            ),
            ("id".to_string(), JsonValue::from_string(&self.id)),
            ("title".to_string(), JsonValue::from_string(&self.title)),
            (
                "crate_version".to_string(),
                JsonValue::from_string(self.crate_version),
            ),
            ("seeds".to_string(), JsonValue::from_u64(self.seeds)),
            (
                "seed_scheme".to_string(),
                JsonValue::from_string(self.seed_scheme),
            ),
            (
                "protocols".to_string(),
                JsonValue::Array(self.protocols.iter().map(JsonValue::from_string).collect()),
            ),
            (
                "config".to_string(),
                JsonValue::Object(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from_string(v)))
                        .collect(),
                ),
            ),
            ("stats".to_string(), self.stats.to_json()),
        ];
        if !latency.is_empty() {
            pairs.push(("latency".to_string(), JsonValue::Object(latency)));
        }
        if let Some(trace_file) = &self.trace_file {
            pairs.push(("trace_file".to_string(), JsonValue::from_string(trace_file)));
        }
        JsonValue::Object(pairs)
    }

    /// The file name the manifest writes under: `<id>.manifest.json`.
    pub fn file_name(&self) -> String {
        format!("{}.manifest.json", self.id)
    }

    /// Writes the pretty-printed manifest into `dir`, returning its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let mut text = self.to_json().to_json_pretty();
        text.push('\n');
        fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uasn_sim::engine::StopReason;
    use uasn_sim::time::SimTime;

    fn stats(events: u64) -> RunStats {
        RunStats {
            stop_reason: StopReason::HorizonReached,
            events_processed: events,
            sim_end: SimTime::from_secs(300),
            wall: Duration::from_millis(5),
            peak_queue_depth: 40,
            mean_queue_depth: 11.5,
            kind_counts: vec![("tx-start", events / 2), ("tx-end", events / 2)],
        }
    }

    #[test]
    fn aggregate_sums_runs() {
        let mut agg = StatsAggregate::default();
        agg.absorb(&stats(100), &TraceHealth::default(), None, None);
        agg.absorb(&stats(50), &TraceHealth::default(), None, None);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.events_processed, 150);
        assert_eq!(agg.peak_queue_depth, 40);
        assert_eq!(agg.kind_counts, vec![("tx-start", 75), ("tx-end", 75)]);
        assert_eq!(agg.stop_reasons, vec![("horizon-reached", 2)]);
    }

    #[test]
    fn merge_combines_aggregates() {
        let mut a = StatsAggregate::default();
        a.absorb(&stats(10), &TraceHealth::default(), None, None);
        let mut b = StatsAggregate::default();
        b.absorb(&stats(20), &TraceHealth::default(), None, None);
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.events_processed, 30);
    }

    #[test]
    fn manifest_json_parses_back() {
        let mut agg = StatsAggregate::default();
        agg.absorb(&stats(100), &TraceHealth::default(), None, None);
        let m = RunManifest::new(
            "F6",
            "Throughput vs load",
            8,
            vec!["S-FAMA".to_string(), "EW-MAC".to_string()],
            &SimConfig::paper_default(),
            agg,
        );
        let text = m.to_json().to_json_pretty();
        let back = JsonValue::parse(&text).expect("valid json");
        assert_eq!(
            back.get("schema").and_then(JsonValue::as_str),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(back.get("id").and_then(JsonValue::as_str), Some("F6"));
        assert_eq!(back.get("seeds").and_then(JsonValue::as_u64), Some(8));
        let config = back.get("config").expect("config object");
        assert_eq!(
            config.get("sensors").and_then(JsonValue::as_str),
            Some("60")
        );
        let stats = back.get("stats").expect("stats object");
        assert_eq!(
            stats.get("events_processed").and_then(JsonValue::as_u64),
            Some(100)
        );
    }

    #[test]
    fn latency_and_trace_file_round_trip_through_json() {
        let mut delivery = LogHistogram::new();
        let mut e2e = LogHistogram::new();
        for v in [10_000u64, 20_000, 400_000] {
            delivery.record(v);
            e2e.record(v * 2);
        }
        let m = RunManifest::new(
            "TRC",
            "traced run",
            1,
            vec!["EW-MAC".to_string()],
            &SimConfig::paper_default(),
            StatsAggregate::default(),
        )
        .with_latency(delivery, e2e.clone())
        .with_trace_file("TRC.trace.jsonl");
        let text = m.to_json().to_json_pretty();
        let back = JsonValue::parse(&text).expect("valid json");
        assert_eq!(
            back.get("trace_file").and_then(JsonValue::as_str),
            Some("TRC.trace.jsonl")
        );
        let latency = back.get("latency").expect("latency object");
        let e2e_json = latency.get("end_to_end_us").expect("e2e summary");
        assert_eq!(e2e_json.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            e2e_json.get("p99").and_then(JsonValue::as_u64),
            e2e.p99(),
            "manifest carries the histogram's own quantiles"
        );
        // Trace health is always present under stats, lossless by default.
        let trace = back
            .get("stats")
            .and_then(|s| s.get("trace"))
            .expect("trace health object");
        assert_eq!(trace.get("lossless"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn lossy_trace_health_serialises_as_not_lossless() {
        let mut agg = StatsAggregate::default();
        agg.absorb(
            &stats(10),
            &TraceHealth {
                capture_dropped: 5,
                first_io_error: Some("disk full".to_string()),
                io_errors: 1,
                ..TraceHealth::default()
            },
            None,
            None,
        );
        let mut other = StatsAggregate::default();
        other.absorb(
            &stats(10),
            &TraceHealth {
                ring_evicted: 2,
                ..TraceHealth::default()
            },
            None,
            None,
        );
        agg.merge(&other);
        assert_eq!(agg.trace.capture_dropped, 5);
        assert_eq!(agg.trace.ring_evicted, 2);
        assert!(!agg.trace.is_lossless());
        let json = agg.to_json();
        let trace = json.get("trace").expect("trace object");
        assert_eq!(trace.get("lossless"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            trace.get("first_io_error").and_then(JsonValue::as_str),
            Some("disk full")
        );
    }

    #[test]
    fn aggregate_json_round_trips_with_profile_monitor_and_lossy_trace() {
        use uasn_sim::profile::{EngineCost, KindCost, MetricsSnapshot};

        let mut fanout = LogHistogram::new();
        for v in [3u64, 5, 40] {
            fanout.record(v);
        }
        let profile = ProfileReport {
            runs: 1,
            engine: EngineCost {
                handler: vec![(
                    "tx-start",
                    KindCost {
                        sampled: 4,
                        total_ns: 9_000,
                        max_ns: 4_000,
                    },
                )],
                pop_ns: 700,
                sampled_events: 4,
                events_scheduled: 50,
            },
            metrics: MetricsSnapshot {
                counters: vec![("phy.cache.hits", 12)],
                gauges: vec![("net.queue_depth", 2.5)],
                hists: vec![("phy.fanout", fanout)],
            },
        };
        let mut verdicts = VerdictHistogram::new();
        verdicts.add(DropVerdict::MacDrop, 3);
        let monitor = MonitorTotals {
            runs: 1,
            findings: vec![("overlap".to_string(), 1)],
            verdicts,
        };
        let lossy = TraceHealth {
            ring_evicted: 2,
            io_errors: 1,
            first_io_error: Some("disk full".to_string()),
            jsonl_lines: 40,
            ..TraceHealth::default()
        };
        let mut agg = StatsAggregate::default();
        agg.absorb(&stats(100), &lossy, Some(&profile), Some(&monitor));
        let mut quiet = stats(60);
        quiet.stop_reason = StopReason::QueueExhausted;
        agg.absorb(&quiet, &TraceHealth::default(), None, None);
        // The manifest stores wall time in microseconds.
        agg.wall = Duration::from_micros(agg.wall.as_micros() as u64);

        let text = agg.to_json().to_json_pretty();
        let back = StatsAggregate::from_json(&JsonValue::parse(&text).expect("valid json"))
            .expect("decodes");
        assert_eq!(back, agg, "every field survives the manifest codec");
        assert!(!back.trace.is_lossless());
        assert_eq!(back.stop_reasons.len(), 2);

        // Sub-microsecond wall time is read back at the stored precision.
        let mut fine = agg.clone();
        fine.wall += Duration::from_nanos(999);
        assert_eq!(StatsAggregate::from_json(&fine.to_json()), Some(agg));
        // A present but malformed block fails the decode.
        let mut doc = StatsAggregate::default().to_json();
        if let JsonValue::Object(pairs) = &mut doc {
            pairs.push(("monitor".to_string(), JsonValue::Bool(true)));
        }
        assert_eq!(StatsAggregate::from_json(&doc), None);
    }

    #[test]
    fn write_creates_manifest_file() {
        let dir = std::env::temp_dir().join("uasn-bench-test-manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let m = RunManifest::new(
            "T",
            "test",
            1,
            vec![],
            &SimConfig::paper_default(),
            StatsAggregate::default(),
        );
        let path = m.write(&dir).expect("write");
        assert!(path.ends_with("T.manifest.json"));
        let content = std::fs::read_to_string(&path).expect("read");
        JsonValue::parse(&content).expect("valid json on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
