//! The `uasn-lab` experiment orchestrator CLI.
//!
//! ```text
//! lab run    [--figures LIST] [--seeds N] [--jobs N] [--journal PATH]
//!            [--out DIR] [--max-cells N] [--quiet] [--profile] [--monitor]
//! lab resume <journal> [--jobs N] [--out DIR] [--max-cells N] [--quiet]
//!            [--profile] [--monitor]
//! lab status <journal> [--json]
//! lab table2
//! ```
//!
//! `run` expands the requested figures (default `all`) into a flat
//! `figure × point × protocol × seed` job table and executes it on a
//! worker pool, checkpointing every finished cell to the `--journal`
//! JSONL file. `resume` reconstructs the sweep from the journal header
//! alone, skips every journaled cell, and retries failed ones. `status`
//! summarises a journal without running anything. Results are
//! byte-identical for any `--jobs` value and any interrupt/resume split.
//! `table2` echoes the validated Table 2 configuration (experiment T2).

use std::path::PathBuf;
use std::process::ExitCode;

use uasn_bench::figures::parse_figures;
use uasn_bench::grid::{self, SweepOptions, SweepOutcome};
use uasn_bench::paths::results_dir;

const USAGE: &str = "usage:
  lab run    [--figures LIST] [--seeds N] [--jobs N] [--journal PATH]
             [--out DIR] [--max-cells N] [--quiet] [--profile] [--monitor]
  lab resume <journal> [--jobs N] [--out DIR] [--max-cells N] [--quiet]
             [--profile] [--monitor]
  lab status <journal> [--json]
  lab table2

LIST is comma-separated figure IDs (fig6, F9a, X2, ablation, ...) or \"all\".
--profile runs every cell with performance profiling on (results are
bit-identical; cells additionally journal a profile payload).
--monitor runs every cell with the online invariant monitors and drop
forensics on (results are bit-identical; cells additionally journal a
monitor payload with finding counts and verdict totals).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("table2") if args.len() == 1 => cmd_table2(),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by `run` and `resume`.
#[derive(Default)]
struct LabArgs {
    figures: Option<String>,
    seeds: Option<u64>,
    jobs: Option<usize>,
    journal: Option<PathBuf>,
    out: Option<PathBuf>,
    max_cells: Option<usize>,
    quiet: bool,
    profile: bool,
    monitor: bool,
}

fn parse_lab_args(tokens: &[String], allow_figures: bool) -> Result<LabArgs, String> {
    let mut parsed = LabArgs::default();
    let mut tokens = tokens.iter();
    while let Some(arg) = tokens.next() {
        let mut value = |flag: &str| {
            tokens
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--figures" if allow_figures => parsed.figures = Some(value("--figures")?),
            "--seeds" => {
                let v = value("--seeds")?;
                parsed.seeds = Some(v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?);
            }
            "--jobs" => {
                let v = value("--jobs")?;
                parsed.jobs = Some(v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?);
            }
            "--journal" => parsed.journal = Some(PathBuf::from(value("--journal")?)),
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--max-cells" => {
                let v = value("--max-cells")?;
                parsed.max_cells = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-cells value {v:?}"))?,
                );
            }
            "--quiet" => parsed.quiet = true,
            "--profile" => parsed.profile = true,
            "--monitor" => parsed.monitor = true,
            other => return Err(format!("unexpected argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn cmd_run(tokens: &[String]) -> Result<ExitCode, String> {
    let args = parse_lab_args(tokens, true)?;
    let specs = parse_figures(args.figures.as_deref().unwrap_or("all"))?;
    let opts = SweepOptions {
        seeds: args.seeds.unwrap_or(uasn_bench::DEFAULT_SEEDS),
        workers: uasn_lab::pool::resolve_workers(args.jobs),
        journal: args.journal,
        max_cells: args.max_cells,
        quiet: args.quiet,
        profile: args.profile,
        monitor: args.monitor,
        cancel: None,
    };
    Ok(finish(
        grid::run_sweep(&specs, &opts).map_err(|e| format!("sweep failed: {e}"))?,
        args.out,
    ))
}

fn cmd_resume(tokens: &[String]) -> Result<ExitCode, String> {
    let Some((journal, rest)) = tokens.split_first() else {
        return Err(format!("resume needs a journal path\n\n{USAGE}"));
    };
    let journal = PathBuf::from(journal);
    let args = parse_lab_args(rest, false)?;
    let (specs, seeds) =
        grid::specs_from_journal(&journal).map_err(|e| format!("cannot resume: {e}"))?;
    let opts = SweepOptions {
        seeds,
        workers: uasn_lab::pool::resolve_workers(args.jobs),
        journal: Some(journal),
        max_cells: args.max_cells,
        quiet: args.quiet,
        profile: args.profile,
        monitor: args.monitor,
        cancel: None,
    };
    Ok(finish(
        grid::run_sweep(&specs, &opts).map_err(|e| format!("sweep failed: {e}"))?,
        args.out,
    ))
}

fn cmd_status(tokens: &[String]) -> Result<ExitCode, String> {
    let (journal, json) = match tokens {
        [journal] => (journal, false),
        [journal, flag] if flag == "--json" => (journal, true),
        [flag, journal] if flag == "--json" => (journal, true),
        _ => return Err(format!("status needs a journal path [--json]\n\n{USAGE}")),
    };
    let status =
        grid::status(&PathBuf::from(journal)).map_err(|e| format!("cannot read journal: {e}"))?;
    if json {
        println!("{}", status.to_json().to_json());
    } else {
        print!("{}", status.render());
    }
    Ok(if status.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_table2() -> Result<ExitCode, String> {
    println!("[T2] Simulation parameters (paper Table 2)");
    for (k, v) in uasn_bench::experiments::table2() {
        println!("{k:>24}: {v}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints tables, writes artifacts, and maps the outcome to an exit code:
/// failed cells → 1; a planned `--max-cells` stop → 0 (the journal has the
/// partial progress, which is the point).
fn finish(outcome: SweepOutcome, out: Option<PathBuf>) -> ExitCode {
    let dir = out.unwrap_or_else(results_dir);
    for run in &outcome.runs {
        print!("{}", run.to_table());
        if let Err(e) = run.write(&dir) {
            eprintln!("warning: could not write results CSV/manifest: {e}");
        }
    }
    for (job, error) in &outcome.failed {
        eprintln!("failed: {job}: {error}");
    }
    eprintln!("{}", outcome.summary);
    let stats = &outcome.stats;
    if !stats.trace.is_lossless() {
        eprintln!(
            "warning: trace loss across the sweep — {} capture drops, {} ring evictions, \
             {} JSONL I/O errors",
            stats.trace.capture_dropped, stats.trace.ring_evicted, stats.trace.io_errors
        );
    }
    if let Some(profile) = &stats.profile {
        eprintln!(
            "profiled {} runs: {} events sampled",
            profile.runs, profile.engine.sampled_events
        );
    }
    if let Some(monitor) = &stats.monitor {
        eprintln!(
            "monitored {} runs: {} invariant finding(s), {} attributed loss(es)",
            monitor.runs,
            monitor.total_findings(),
            monitor.verdicts.total()
        );
        if monitor.total_findings() > 0 {
            for (label, count) in &monitor.findings {
                if *count > 0 {
                    eprintln!("  finding: {label} x{count}");
                }
            }
        }
    }
    if !outcome.failed.is_empty() {
        eprintln!(
            "{} cells failed; resume the journal to retry them",
            outcome.failed.len()
        );
        return ExitCode::FAILURE;
    }
    if !outcome.complete {
        eprintln!(
            "stopped after {} fresh cells ({}/{} journaled); resume to continue",
            outcome.completed,
            outcome.resumed + outcome.completed,
            outcome.total,
        );
    }
    ExitCode::SUCCESS
}
