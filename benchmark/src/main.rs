//! Command line.
//!
//! ```text
//! uasn-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! uasn-benchmark run [--seed N] [--runs N] [--traced]
//! uasn-benchmark compare BASE.json CANDIDATE.json
//! ```
//!
//! The first form measures one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). `run` repeats that in fresh child
//! processes for every workload and writes a result document under
//! `results/benchmark/`; `compare` applies each metric's bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uasn_benchmark::run::{run, RunOptions};
use uasn_benchmark::spec::BenchSpec;
use uasn_benchmark::speed::REFERENCE_KERNEL_S;
use uasn_benchmark::suite::{compare, run_suite, SuiteOptions};
use uasn_benchmark::workload::Workload;
use uasn_sim::json::JsonValue;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/benchmark")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  uasn-benchmark --workload NAME --seed N --seconds S --trace 0|1\n  \
         uasn-benchmark run [--seed N] [--runs N] [--traced]\n  \
         uasn-benchmark compare BASE.json CANDIDATE.json\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--flag`s.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite(&Flags(args[1..].to_vec())),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2]))
            .map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            })
            .map_err(|e| e.to_string()),
        Some(flag) if flag.starts_with("--") => single(&Flags(args)),
        _ => return usage(),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("uasn-benchmark: {e}");
        ExitCode::FAILURE
    })
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The per-workload interface: one run, result JSON on the last line.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let opts = RunOptions {
        workload: workload(name)?,
        seed: flags.parse("--seed", 0)?,
        seconds: flags.parse("--seconds", BenchSpec::get().run_seconds)?,
        trace,
        results: results_dir(),
    };
    let result = run(&opts).map_err(|e| e.to_string())?;
    let w = opts.workload;

    eprintln!(
        "{} seed {}: {} rounds, {} simulations timed, {}/{} failed{}",
        w.name(),
        opts.seed,
        result.rounds,
        result.samples,
        result.failed,
        result.attempted,
        if opts.trace { " (traced)" } else { "" }
    );
    if let Some((wall, kernel)) = result.host {
        eprintln!(
            "  as measured: round wall p50 {wall:.6} s; reference kernel p50 {kernel:.6} s \
             (usual {REFERENCE_KERNEL_S} s; the timings below are at the usual speed)"
        );
    }
    if let Some((p, secs)) = result.sim_tail {
        eprintln!(
            "  per-simulation p{p} at reference speed: {secs:.6} s over {} simulations",
            result.samples
        );
    }
    for problem in result.problems.iter().take(10) {
        eprintln!("  FAILED: {problem}");
    }
    println!("digest {:016x}", result.digest);
    if opts.seed == 0 && result.digest != w.recorded_digest() {
        eprintln!(
            "  outputs_changed: round-0 digest {:016x}, recorded {:016x} \
             (legal for a model change, never for a performance change)",
            result.digest,
            w.recorded_digest()
        );
        println!("outputs_changed {:016x}", w.recorded_digest());
    }
    if let Some(path) = &result.trace_file {
        println!("trace {}", path.display());
    }

    let mut metrics = Vec::new();
    for m in BenchSpec::get().metrics(opts.trace) {
        let value = result
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        eprintln!("  {:<30} {:>16.6} {}", m.name, value, m.unit);
        metrics.push((
            m.name.clone(),
            JsonValue::Object(vec![
                ("value".to_string(), JsonValue::from_f64(value)),
                ("unit".to_string(), JsonValue::from_string(&m.unit)),
            ]),
        ));
    }
    let line = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(result.correct())),
        (
            "attempted".to_string(),
            JsonValue::from_u64(result.attempted),
        ),
        ("failed".to_string(), JsonValue::from_u64(result.failed)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let opts = SuiteOptions {
        seed: flags.parse("--seed", 0)?,
        runs: flags.parse("--runs", 5)?,
        traced: flags.has("--traced"),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (ok, path) = run_suite(&opts, &exe, &results_dir()).map_err(|e| e.to_string())?;
    println!("result document: {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
