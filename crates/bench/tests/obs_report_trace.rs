//! `obs_report`'s trace verbs end to end: `check`, `journeys`, `latency`
//! and `paths` read a JSONL trace or the run manifest that points at it,
//! flag an injected violation with its record, refuse a manifest that
//! records a lossy trace or has no decodable `stats` account, and fail
//! cleanly on bad input.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use uasn_bench::{Protocol, RunManifest, StatsAggregate};
use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_net::world::Simulation;
use uasn_sim::json::JsonValue;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{export_jsonl, parse_jsonl, TraceLevel, Tracer};

/// One seeded, Debug-traced, routed EW-MAC run streamed to
/// `TRC.trace.jsonl` through a JSONL sink, with a manifest beside it.
struct Fixture {
    dir: PathBuf,
    trace: PathBuf,
    manifest: PathBuf,
    cfg: SimConfig,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-report-trace");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        let mut cfg = SimConfig::paper_default()
            .with_sensors(20)
            .with_offered_load_kbps(0.5)
            .with_convergecast(30.0, 10.0)
            .with_reliable_route()
            .with_sim_time(SimDuration::from_secs(240))
            .with_seed(7);
        cfg.deployment = Deployment::LayeredColumn {
            extent_m: 2_000.0,
            layers: 3,
            layer_spacing_m: 1_200.0,
        };
        let trace = dir.join("TRC.trace.jsonl");
        let file = File::create(&trace).expect("create trace");
        let factory = move |id: uasn_net::node::NodeId| Protocol::EwMac.build(id);
        let out = Simulation::new(cfg.clone(), &factory)
            .expect("valid config")
            .with_tracer(Tracer::new(TraceLevel::Debug).with_jsonl(Box::new(BufWriter::new(file))))
            .run_full();
        let mut stats = StatsAggregate::default();
        stats.absorb(&out.stats, &out.tracer.health(), None, None);
        // Dropping the tracer flushes the JSONL stream.
        drop(out.tracer);
        let manifest = write_manifest(&dir, "TRC", &cfg, stats);
        Fixture {
            dir,
            trace,
            manifest,
            cfg,
        }
    })
}

fn write_manifest(dir: &Path, id: &str, cfg: &SimConfig, stats: StatsAggregate) -> PathBuf {
    RunManifest::new(
        id,
        "traced routed run",
        1,
        vec![Protocol::EwMac.name().to_string()],
        cfg,
        stats,
    )
    .with_trace_file("TRC.trace.jsonl")
    .write(dir)
    .expect("write manifest")
}

fn obs_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("run obs_report")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_passes_on_the_trace_and_on_its_manifest() {
    let f = fixture();
    for input in [&f.trace, &f.manifest] {
        let out = obs_report(&["check", path_str(input)]);
        assert!(out.status.success(), "{}: {out:?}", input.display());
        assert!(
            stdout(&out).contains("OK: all invariant checks passed"),
            "{out:?}"
        );
    }
    let text = stdout(&obs_report(&["check", path_str(&f.manifest)]));
    assert!(text.contains("[TRC] manifest"), "{text}");
    assert!(text.contains("TRC.trace.jsonl"), "{text}");
}

#[test]
fn check_fails_on_an_injected_overlapping_reception_and_cites_it() {
    let f = fixture();
    let text = fs::read_to_string(&f.trace).expect("read trace");
    let mut records = parse_jsonl(&text).expect("trace parses");
    // A second decoded copy of one reception, right after the original:
    // two decoded `rx` intervals at one node that overlap.
    let original = records
        .iter()
        .position(|r| r.tag == "rx")
        .expect("the run decoded a frame");
    records.insert(original + 1, records[original].clone());
    let mut bytes = Vec::new();
    export_jsonl(&records, &mut bytes).expect("in-memory export");
    let damaged = f.dir.join("overlap.trace.jsonl");
    fs::write(&damaged, bytes).expect("write damaged trace");

    let out = obs_report(&["check", path_str(&damaged)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let cited = format!("[overlapping-receptions] record #{}", original + 1);
    assert!(stdout(&out).contains(&cited), "{cited}: {out:?}");
    assert!(stderr(&out).contains("violation"), "{out:?}");
}

#[test]
fn a_manifest_recording_a_lossy_trace_is_refused() {
    let f = fixture();
    let dir = f.dir.join("lossy");
    fs::create_dir_all(&dir).expect("create lossy dir");
    fs::copy(&f.trace, dir.join("TRC.trace.jsonl")).expect("copy trace");
    let mut stats = StatsAggregate::default();
    stats.trace.capture_dropped = 1;
    let manifest = write_manifest(&dir, "LOSSY", &f.cfg, stats);
    let doc = JsonValue::parse(&fs::read_to_string(&manifest).expect("read manifest"))
        .expect("manifest parses");
    let lossless = doc
        .get("stats")
        .and_then(|s| s.get("trace"))
        .and_then(|t| t.get("lossless"))
        .and_then(JsonValue::as_bool);
    assert_eq!(lossless, Some(false));

    for verb in ["check", "journeys", "latency", "paths"] {
        let out = obs_report(&[verb, path_str(&manifest)]);
        assert_eq!(out.status.code(), Some(1), "{verb}: {out:?}");
        assert!(stderr(&out).contains("lossy trace"), "{verb}: {out:?}");
    }
}

#[test]
fn a_manifest_without_a_decodable_account_is_refused() {
    let f = fixture();
    let dir = f.dir.join("damaged");
    fs::create_dir_all(&dir).expect("create damaged dir");
    fs::copy(&f.trace, dir.join("TRC.trace.jsonl")).expect("copy trace");
    let JsonValue::Object(fields) =
        JsonValue::parse(&fs::read_to_string(&f.manifest).expect("read manifest"))
            .expect("manifest parses")
    else {
        panic!("a manifest is a JSON object");
    };
    // One copy loses its whole `stats` account, the other only the trace
    // health inside it.
    let without = |fields: &[(String, JsonValue)], key: &str| -> Vec<(String, JsonValue)> {
        fields.iter().filter(|(k, _)| k != key).cloned().collect()
    };
    let no_trace = fields
        .iter()
        .map(|(k, v)| match v {
            JsonValue::Object(stats) if k == "stats" => {
                (k.clone(), JsonValue::Object(without(stats, "trace")))
            }
            _ => (k.clone(), v.clone()),
        })
        .collect();
    for (name, damaged) in [
        ("NOSTATS", without(&fields, "stats")),
        ("NOTRACE", no_trace),
    ] {
        let manifest = dir.join(format!("{name}.manifest.json"));
        fs::write(&manifest, JsonValue::Object(damaged).to_json_pretty())
            .expect("write damaged manifest");
        let path = path_str(&manifest);
        for args in [
            vec!["check", path],
            vec!["journeys", path],
            vec![path],
            vec!["profile", path],
            vec!["forensics", path],
        ] {
            let out = obs_report(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            let err = stderr(&out);
            assert!(
                err.starts_with("obs_report: ") && err.contains(path),
                "{args:?}: {err}"
            );
        }
    }
    // The listing still shows every file, with an error line per damaged one.
    let out = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .env("UASN_RESULTS_DIR", &dir)
        .output()
        .expect("run obs_report");
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    for name in ["NOSTATS", "NOTRACE"] {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("{name}.manifest.json")))
            .unwrap_or_else(|| panic!("no listing line for {name}: {text}"));
        assert!(line.contains("(refusing"), "{line}");
    }
}

#[test]
fn journeys_latency_and_paths_render_and_export_json() {
    let f = fixture();
    let out = obs_report(&["journeys", path_str(&f.trace), "--top", "3"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("slowest 3 by end-to-end latency:"));

    let latency = f.dir.join("latency.json");
    let out = obs_report(&[
        "latency",
        path_str(&f.manifest),
        "--json",
        path_str(&latency),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("end_to_end"), "{out:?}");
    let doc = JsonValue::parse(&fs::read_to_string(&latency).expect("latency json written"))
        .expect("latency json parses");
    assert!(doc.get("end_to_end").is_some(), "{doc:?}");

    let paths = f.dir.join("paths.json");
    let out = obs_report(&["paths", path_str(&f.trace), "--json", path_str(&paths)]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("copies: "), "{text}");
    assert!(text.contains("hop-count distribution"), "{text}");
    let doc = JsonValue::parse(&fs::read_to_string(&paths).expect("paths json written"))
        .expect("paths json parses");
    let attempted = doc.get("attempted").and_then(JsonValue::as_u64);
    let delivered = doc.get("delivered").and_then(JsonValue::as_u64);
    assert!(attempted.is_some_and(|n| n > 0), "{doc:?}");
    assert!(delivered.is_some_and(|n| n > 0), "routed copies delivered");
}

#[test]
fn unknown_verbs_and_missing_files_fail_with_a_message() {
    let f = fixture();
    let out = obs_report(&["audit", path_str(&f.manifest), "--top", "3"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr(&out).contains("usage:"), "{out:?}");

    let out = obs_report(&["frobnicate", path_str(&f.trace)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("neither a command nor a manifest"),
        "{out:?}"
    );

    let missing = f.dir.join("missing.trace.jsonl");
    for verb in ["check", "journeys", "latency", "paths"] {
        let out = obs_report(&[verb, path_str(&missing)]);
        assert_eq!(out.status.code(), Some(1), "{verb}: {out:?}");
        assert!(stderr(&out).contains("cannot read"), "{verb}: {out:?}");
    }
}
