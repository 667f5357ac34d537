//! `obs_report profile` end to end: the binary renders a profile from a
//! run manifest's `stats.profile` and from a bare `ProfileReport`
//! document, and refuses any other shape with a clean message and exit 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use uasn_bench::cell::{fold_cells, run_cell};
use uasn_bench::{Protocol, RunManifest};
use uasn_net::config::SimConfig;
use uasn_sim::json::JsonValue;
use uasn_sim::time::SimDuration;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uasn-obs-report-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn profile(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg("profile")
        .arg(path)
        .output()
        .expect("run obs_report")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn profile_command_reads_manifests_and_bare_reports_only() {
    let dir = scratch_dir();
    let cfg = SimConfig::paper_default()
        .with_sensors(8)
        .with_offered_load_kbps(0.4)
        .with_sim_time(SimDuration::from_secs(30))
        .with_profiling(true);
    let cell = run_cell(&cfg, Protocol::EwMac, 0);
    let summary = fold_cells(Protocol::EwMac, [&cell]);
    let report = summary.stats.profile.clone().expect("profiled cell");
    assert!(
        !report.engine.handler.is_empty(),
        "the tiny cell sampled no handler time"
    );

    // A manifest whose `stats.profile` carries the folded report.
    let manifest = RunManifest::new(
        "PROF",
        "profiled tiny cell",
        1,
        vec![Protocol::EwMac.name().to_string()],
        &cfg,
        summary.stats,
    )
    .write(&dir)
    .expect("write manifest");
    let out = profile(&manifest);
    assert!(out.status.success(), "manifest: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("[PROF] profile from manifest"), "{text}");
    assert!(text.contains("handler time (sampled):"), "{text}");
    let (kind, _) = &report.engine.handler[0];
    assert!(text.contains(kind), "per-kind row for {kind}: {text}");

    // The same report as a bare document.
    let bare = dir.join("bare-profile.json");
    std::fs::write(&bare, report.to_json().to_json()).expect("write bare");
    let out = profile(&bare);
    assert!(out.status.success(), "bare report: {out:?}");
    assert!(stdout(&out).contains("handler time (sampled):"));

    // A per-scenario document is not a profile this command reads.
    let scenarios = JsonValue::Object(vec![(
        "scenarios".to_string(),
        JsonValue::Array(vec![JsonValue::Object(vec![
            ("name".to_string(), JsonValue::from_string("small")),
            ("protocol".to_string(), JsonValue::from_string("ew-mac")),
            ("profile".to_string(), report.to_json()),
        ])]),
    )]);
    let doc = dir.join("scenarios.json");
    std::fs::write(&doc, scenarios.to_json()).expect("write scenarios");
    let out = profile(&doc);
    assert_eq!(out.status.code(), Some(1), "scenarios doc: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no profile found"),
        "{out:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
