//! Hot-path perf harness: times the fixed EW-MAC / S-FAMA scenarios in a
//! plain pass and a profiled pass, then writes the `BENCH_perf.json`
//! trajectory file.
//!
//! Usage:
//!
//! ```text
//! perf [--scenario small|medium|large|route|swarm|all] [--out FILE]
//!      [--warmup N] [--repeats N] [--check BASELINE]
//! ```
//!
//! Each scenario runs `--warmup` discarded rounds plus `--repeats` timed
//! rounds; a round runs the plain and profiled configurations back to
//! back, and each pass reports its median round (see `uasn_bench::perf`
//! for the noise rationale). The process exits nonzero if the two passes'
//! metrics reports differ. With `--check BASELINE` the fresh numbers are
//! additionally compared against a committed baseline document and the
//! process exits nonzero if any scenario's events/sec regressed by more
//! than the gate tolerance (25%).
//!
//! The default output path is `<workspace root>/BENCH_perf.json`, so CI and
//! local runs update the same committed trajectory. An existing document at
//! the output path is folded into the new document's `history`.

use std::path::PathBuf;
use std::process::ExitCode;

use uasn_bench::perf::{
    perf_doc, regression_failures, run_scenario_with, scenarios_matching, DEFAULT_REPEATS,
    DEFAULT_WARMUP, REGRESSION_TOLERANCE,
};
use uasn_sim::json::JsonValue;

fn default_out() -> PathBuf {
    uasn_bench::paths::bench_perf_path()
}

fn parse_count(flag: &str, value: Option<String>) -> Result<u32, String> {
    let Some(v) = value else {
        return Err(format!("perf: {flag} needs a value"));
    };
    v.parse::<u32>()
        .map_err(|_| format!("perf: {flag} expects a non-negative integer, got {v:?}"))
}

fn read_doc(path: &PathBuf) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path).ok()?;
    JsonValue::parse(&text).ok()
}

fn main() -> ExitCode {
    let mut scenario = "all".to_string();
    let mut out = default_out();
    let mut warmup = DEFAULT_WARMUP;
    let mut repeats = DEFAULT_REPEATS;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => match args.next() {
                Some(v) => scenario = v,
                None => {
                    eprintln!("perf: --scenario needs a value");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => {
                    eprintln!("perf: --out needs a value");
                    return ExitCode::from(2);
                }
            },
            "--warmup" => match parse_count("--warmup", args.next()) {
                Ok(v) => warmup = v,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--repeats" => match parse_count("--repeats", args.next()) {
                Ok(v) => repeats = v.max(1),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--check" => match args.next() {
                Some(v) => check = Some(PathBuf::from(v)),
                None => {
                    eprintln!("perf: --check needs a baseline file");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "perf: unexpected argument {other:?} \
                     (expected [--scenario small|medium|large|route|swarm|all] [--out FILE] \
                     [--warmup N] [--repeats N] [--check BASELINE])"
                );
                return ExitCode::from(2);
            }
        }
    }
    let scenarios = scenarios_matching(&scenario);
    if scenarios.is_empty() {
        eprintln!("perf: no scenarios match {scenario:?}");
        return ExitCode::from(2);
    }

    let mut results = Vec::with_capacity(scenarios.len());
    let mut all_equal = true;
    for s in scenarios {
        eprintln!(
            "perf: {} ({} sensors, {} s, {warmup} warmup + {repeats} repeats) ...",
            s.name, s.sensors, s.sim_time_s
        );
        let result = run_scenario_with(s, warmup, repeats);
        println!(
            "{:<14} {:>12.0} ev/s  profiled +{:>4.1}%  {}",
            result.scenario.name,
            result.timed.events_per_sec(),
            result.overhead_pct().unwrap_or(0.0),
            if result.reports_equal {
                "reports equal"
            } else {
                "REPORTS DIVERGED"
            },
        );
        all_equal &= result.reports_equal;
        results.push(result);
    }

    let previous = read_doc(&out);
    let doc = perf_doc(&results, warmup, repeats, previous.as_ref());
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("perf: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut text = doc.to_json_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("perf: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("perf: wrote {}", out.display());

    if !all_equal {
        eprintln!("perf: FAILURE — plain and profiled runs disagreed");
        return ExitCode::FAILURE;
    }

    if let Some(baseline_path) = check {
        let Some(baseline) = read_doc(&baseline_path) else {
            eprintln!(
                "perf: cannot read baseline {} for --check",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        };
        let failures = regression_failures(&doc, &baseline, REGRESSION_TOLERANCE);
        if failures.is_empty() {
            eprintln!(
                "perf: regression gate passed against {}",
                baseline_path.display()
            );
        } else {
            eprintln!("perf: FAILURE — events/sec regression past the gate:");
            for line in failures {
                eprintln!("perf:   {line}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
