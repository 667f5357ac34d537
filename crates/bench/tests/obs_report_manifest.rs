//! `obs_report`'s manifest views, pinned byte for byte: the manifest
//! printout, `profile <manifest>`, `forensics <manifest>` and the
//! no-argument listing, over a manifest built from fixed values (engine
//! totals, a profile, monitor totals, latency histograms, a trace file).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::Duration;

use uasn_bench::manifest::MonitorTotals;
use uasn_bench::{RunManifest, StatsAggregate};
use uasn_net::config::SimConfig;
use uasn_net::metrics::{DropVerdict, VerdictHistogram};
use uasn_sim::hist::LogHistogram;
use uasn_sim::profile::{EngineCost, KindCost, MetricsSnapshot, ProfileReport};
use uasn_sim::trace::TraceHealth;

fn histogram(values: &[u64]) -> LogHistogram {
    let mut hist = LogHistogram::new();
    for &v in values {
        hist.record(v);
    }
    hist
}

fn fixed_stats() -> StatsAggregate {
    let mut verdicts = VerdictHistogram::new();
    verdicts.add(DropVerdict::QueueOverflow, 3);
    verdicts.add(DropVerdict::PerLoss, 1);
    StatsAggregate {
        runs: 3,
        events_processed: 12_345,
        wall: Duration::from_nanos(2_500_000_900),
        peak_queue_depth: 77,
        kind_counts: vec![("tx-start", 6_000), ("tx-end", 6_345)],
        stop_reasons: vec![("horizon-reached", 2), ("queue-empty", 1)],
        trace: TraceHealth {
            jsonl_lines: 900,
            ..TraceHealth::default()
        },
        profile: Some(ProfileReport {
            runs: 3,
            engine: EngineCost {
                handler: vec![
                    (
                        "tx-start",
                        KindCost {
                            sampled: 10,
                            total_ns: 50_000,
                            max_ns: 9_000,
                        },
                    ),
                    (
                        "tx-end",
                        KindCost {
                            sampled: 12,
                            total_ns: 30_000,
                            max_ns: 4_000,
                        },
                    ),
                ],
                pop_ns: 4_400,
                sampled_events: 22,
                events_scheduled: 1_200,
            },
            metrics: MetricsSnapshot {
                counters: vec![
                    ("phy.cache.hits", 90),
                    ("phy.cache.misses", 10),
                    ("phy.cache.invalidations", 2),
                    ("mac.collisions", 4),
                ],
                gauges: vec![("net.queue_depth", 5.0)],
                hists: vec![("phy.fanout", histogram(&[3, 5, 8, 40]))],
            },
        }),
        monitor: Some(MonitorTotals {
            runs: 3,
            findings: vec![("overlap".to_string(), 2), ("late-extra".to_string(), 0)],
            verdicts,
        }),
    }
}

/// The fixed manifest, written once under the test's scratch directory.
fn manifest() -> &'static Path {
    static MANIFEST: OnceLock<PathBuf> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-report-manifest");
        let _ = fs::remove_dir_all(&dir);
        RunManifest::new(
            "LOCK",
            "fixed-value manifest",
            3,
            vec!["S-FAMA".to_string(), "EW-MAC".to_string()],
            &SimConfig::paper_default(),
            fixed_stats(),
        )
        .with_latency(
            histogram(&[10_000, 20_000, 400_000]),
            histogram(&[30_000, 90_000, 800_000]),
        )
        .with_trace_file("LOCK.trace.jsonl")
        .write(&dir)
        .expect("write manifest")
    })
}

fn obs_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("run obs_report")
}

/// Runs `obs_report args`, asserts exit 0, and returns stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = obs_report(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

#[test]
fn manifest_printout_is_pinned() {
    let expected = format!(
        "\
[LOCK] fixed-value manifest (manifest v1, uasn-bench {version})
  seeds: 3 (0xEA5E + replication * 7919)
  protocols: S-FAMA, EW-MAC
  config:
    sensors              60
    sinks                3
    bitrate_bps          12000
    control_bits         64
    data_bits            2048
    traffic              poisson 0.5 kbps
    sim_time_s           300
    max_time_s           3000
    base_seed            1
    mobility             off
    hello_init           false
  engine:
    runs                 3
    events processed     12345
    wall                 2.500 s
    events/wall-sec      4938
    peak queue depth     77
    events by kind:
      tx-start           6000
      tx-end             6345
    stop reasons: horizon-reached x2, queue-empty x1
  trace health: lossless (900 lines, 0 dropped, 0 evicted, 0 io errors)
  monitoring: 3 run(s), 2 finding(s), 4 attributed loss(es) (try: obs_report forensics <manifest>)
  latency (us):
    delivery_us      n=3 p50=20224 p90=397312 p99=397312 max=400000
    end_to_end_us    n=3 p50=89088 p90=794624 p99=794624 max=800000
  trace file: LOCK.trace.jsonl (try: obs_report check <manifest>)
",
        version = env!("CARGO_PKG_VERSION")
    );
    assert_eq!(stdout_of(&[path_str(manifest())]), expected);
}

#[test]
fn profile_view_of_the_manifest_is_pinned() {
    let path = path_str(manifest());
    let expected = format!(
        "\
[LOCK] profile from manifest {path}
  engine: 3 run(s), 1200 events scheduled, 22 sampled for timing
    pop cost             4400 ns total over sampled pops
  handler time (sampled):
    kind                 sampled    total_us   mean_ns    max_ns   share
    tx-start                  10          50      5000      9000   62.5%
    tx-end                    12          30      2500      4000   37.5%
  link-budget cache: 90.0% hit (90 hits, 10 misses, 2 invalidations)
    rejected at build: 0 culled, 0 inaudible
  distributions:
    metric                   n     p50     p90     p99     max
    phy.fanout               4       5      40      40      40
  counters:
    mac.collisions           4
  gauges (max):
    net.queue_depth          5
"
    );
    assert_eq!(stdout_of(&["profile", path]), expected);
}

#[test]
fn forensics_view_of_the_manifest_is_pinned() {
    let path = path_str(manifest());
    let expected = format!(
        "\
[LOCK] drop forensics from {path}
  monitored runs: 3
  invariant findings: 2 total
    overlap                    2
    late-extra                 0
  drop verdicts: 4 loss(es) attributed
    queue-overflow                    3   75.0%
    per-loss                          1   25.0%
"
    );
    assert_eq!(stdout_of(&["forensics", path]), expected);
}

#[test]
fn listing_is_pinned() {
    let dir = manifest().parent().expect("manifest dir");
    let bad = dir.join("BAD.manifest.json");
    fs::write(&bad, "not json").expect("write unparsable manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .env("UASN_RESULTS_DIR", dir)
        .output()
        .expect("run obs_report");
    assert!(out.status.success(), "{out:?}");
    let expected = format!(
        "\
2 manifest(s) under {dir}:
  BAD.manifest.json            (cannot read {bad}: JSON error at byte 0: expected `null`)
  LOCK.manifest.json              3 runs  fixed-value manifest
",
        dir = dir.display(),
        bad = bad.display()
    );
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8"), expected);
}
