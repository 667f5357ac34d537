//! The multi-run front end: `run` measures every workload in fresh child
//! processes and writes a result document; `compare` applies the bounds of
//! `BENCHMARK.json` to two such documents.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use uasn_sim::json::JsonValue;

use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::Workload;

/// Result-document schema name.
pub const RESULT_SCHEMA: &str = "uasn-benchmark-result";

/// What `run` measures.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Input seed of every run.
    pub seed: u64,
    /// Untraced runs per workload.
    pub runs: u32,
    /// Also make one traced run per workload.
    pub traced: bool,
}

/// One child run's parsed output.
#[derive(Debug, Clone, Default)]
struct ChildRun {
    ok: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: Option<String>,
    outputs_changed: bool,
    trace_file: Option<String>,
}

fn child_run(exe: &Path, w: Workload, opts: &SuiteOptions, trace: bool) -> io::Result<ChildRun> {
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        ok: output.status.success(),
        ..ChildRun::default()
    };
    for line in stdout.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "digest" => run.digest = Some(rest.to_string()),
            "outputs_changed" => run.outputs_changed = true,
            "trace" => run.trace_file = Some(rest.to_string()),
            _ => {}
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = JsonValue::parse(last)
        .map_err(|e| io::Error::other(format!("{}: unreadable result line: {e}", w.name())))?;
    run.ok &= doc.get("correct").and_then(JsonValue::as_bool) == Some(true);
    run.attempted = doc
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    run.failed = doc.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
    for (name, entry) in doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap_or_default()
    {
        if let Some(v) = entry.get("value").and_then(JsonValue::as_f64) {
            run.metrics.push((name.clone(), v));
        }
    }
    Ok(run)
}

fn values(runs: &[ChildRun], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

fn summary_json(spec: &MetricSpec, values: &[f64]) -> JsonValue {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    let num = |v: f64| {
        if v.is_finite() {
            JsonValue::from_f64(v)
        } else {
            JsonValue::Null
        }
    };
    JsonValue::Object(vec![
        ("unit".to_string(), JsonValue::from_string(&spec.unit)),
        (
            "median".to_string(),
            num(median(values).unwrap_or(f64::NAN)),
        ),
        ("q1".to_string(), num(q1)),
        ("q3".to_string(), num(q3)),
        ("n".to_string(), JsonValue::from_u64(values.len() as u64)),
    ])
}

/// Runs the suite, prints every metric, and writes the result document.
/// Returns whether every run succeeded, checked correct, and produced the
/// same output digest as its repeats.
///
/// # Errors
///
/// Fails when a child cannot be started or prints no result line, or the
/// document cannot be written.
pub fn run_suite(opts: &SuiteOptions, exe: &Path, results: &Path) -> io::Result<(bool, PathBuf)> {
    let spec = BenchSpec::get();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut runs = Vec::new();
        for i in 0..opts.runs {
            eprintln!("[{}] untraced run {}/{}", w.name(), i + 1, opts.runs);
            runs.push(child_run(exe, w, opts, false)?);
        }
        let digests: Vec<&str> = runs.iter().filter_map(|r| r.digest.as_deref()).collect();
        let repeatable = digests.len() == runs.len() && digests.windows(2).all(|p| p[0] == p[1]);
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let ok = runs.iter().all(|r| r.ok) && repeatable;
        all_ok &= ok;
        println!(
            "{}: {} runs, seed {}, digest {}{}, failed {failed}/{attempted} simulations{}",
            w.name(),
            runs.len(),
            opts.seed,
            digests.first().copied().unwrap_or("-"),
            if runs.iter().any(|r| r.outputs_changed) {
                " (outputs_changed)"
            } else {
                ""
            },
            if repeatable {
                ""
            } else {
                " — DIGESTS DIFFER ACROSS REPEATS"
            },
        );
        let mut summary = Vec::new();
        for m in &spec.end_to_end {
            let v = values(&runs, &m.name);
            let (q1, q3) = quartiles(&v).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "  {:<12} {:<4} median {:>12.6}  q1 {:>12.6}  q3 {:>12.6}  n {}",
                m.name,
                m.unit,
                median(&v).unwrap_or(f64::NAN),
                q1,
                q3,
                v.len()
            );
            summary.push((m.name.clone(), summary_json(m, &v)));
        }
        let mut traced = JsonValue::Null;
        let mut trace_file = JsonValue::Null;
        if opts.traced {
            eprintln!("[{}] traced run", w.name());
            let t = child_run(exe, w, opts, true)?;
            all_ok &= t.ok;
            println!("  traced ({} per-layer metrics):", t.metrics.len());
            for m in &spec.per_layer {
                if let Some((_, v)) = t.metrics.iter().find(|(n, _)| *n == m.name) {
                    println!("    {:<30} {:>16.6} {}", m.name, v, m.unit);
                }
            }
            if let Some(path) = &t.trace_file {
                println!("    trace: {path}");
                trace_file = JsonValue::from_string(path);
            }
            traced = crate::run::metrics_json(&t.metrics);
        }
        let run_docs = runs
            .iter()
            .map(|r| crate::run::metrics_json(&r.metrics))
            .collect();
        workloads.push(JsonValue::Object(vec![
            ("name".to_string(), JsonValue::from_string(w.name())),
            (
                "digest".to_string(),
                digests
                    .first()
                    .map_or(JsonValue::Null, |d| JsonValue::from_string(*d)),
            ),
            ("repeatable".to_string(), JsonValue::Bool(repeatable)),
            ("attempted".to_string(), JsonValue::from_u64(attempted)),
            ("failed".to_string(), JsonValue::from_u64(failed)),
            ("runs".to_string(), JsonValue::Array(run_docs)),
            ("summary".to_string(), JsonValue::Object(summary)),
            ("traced".to_string(), traced),
            ("trace_file".to_string(), trace_file),
        ]));
    }
    let doc = JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::from_string(RESULT_SCHEMA)),
        ("version".to_string(), JsonValue::from_u64(1)),
        ("meta".to_string(), metadata(opts)),
        ("workloads".to_string(), JsonValue::Array(workloads)),
    ]);
    std::fs::create_dir_all(results)?;
    let path = results.join(format!("{}-{}.json", utc_stamp(), std::process::id()));
    std::fs::write(&path, doc.to_json_pretty())?;
    Ok((all_ok, path))
}

/// The provenance every result document carries.
fn metadata(opts: &SuiteOptions) -> JsonValue {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::Object(vec![
        (
            "commit".to_string(),
            JsonValue::from_string(command("git", &["rev-parse", "HEAD"])),
        ),
        ("date".to_string(), JsonValue::from_string(utc_date_time())),
        ("host".to_string(), JsonValue::from_string(host)),
        ("nproc".to_string(), JsonValue::from_u64(nproc as u64)),
        (
            "rustc".to_string(),
            JsonValue::from_string(command("rustc", &["--version"])),
        ),
        ("seed".to_string(), JsonValue::from_u64(opts.seed)),
        (
            "runs".to_string(),
            JsonValue::from_u64(u64::from(opts.runs)),
        ),
        (
            "seconds".to_string(),
            JsonValue::from_f64(BenchSpec::get().run_seconds),
        ),
        ("warmup_sims".to_string(), JsonValue::from_u64(1)),
    ])
}

/// Seconds since the Unix epoch, split into UTC `(y, m, d, hh, mm, ss)`.
fn utc_now() -> (i64, u32, u32, u64, u64, u64) {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (proleptic Gregorian), H. Hinnant's algorithm.
    let days = (secs / 86_400) as i64 + 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    let tod = secs % 86_400;
    (year, month, day, tod / 3_600, tod / 60 % 60, tod % 60)
}

fn utc_date_time() -> String {
    let (y, mo, d, h, mi, s) = utc_now();
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
}

fn utc_stamp() -> String {
    let (y, mo, d, h, mi, s) = utc_now();
    format!("{y:04}{mo:02}{d:02}T{h:02}{mi:02}{s:02}Z")
}

/// One metric's comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound and no clean separation.
    Unresolved,
}

impl Verdict {
    /// The label printed in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies `spec`'s bound to baseline runs `a` and candidate runs `b`.
/// Returns the verdict and the median change (positive = worse).
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(Verdict, f64)> {
    let bound = spec.bound?;
    let change = spec.worsening(median(a)?, median(b)?);
    let spread = relative_spread(a)
        .unwrap_or(0.0)
        .max(relative_spread(b).unwrap_or(0.0));
    let separated = b
        .iter()
        .all(|&y| a.iter().all(|&x| spec.worsening(x, y) < 0.0));
    let verdict = if spread > bound {
        if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((verdict, change))
}

fn run_values(workload: &JsonValue, name: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get(name).and_then(JsonValue::as_f64))
        .collect()
}

/// Compares two result documents, one row per workload. Returns whether no
/// metric regressed.
///
/// # Errors
///
/// Fails when either document cannot be read or is not a result document.
pub fn compare(a_path: &Path, b_path: &Path) -> io::Result<bool> {
    let load = |p: &Path| -> io::Result<JsonValue> {
        let doc = JsonValue::parse(&std::fs::read_to_string(p)?)
            .map_err(|e| io::Error::other(format!("{}: {e}", p.display())))?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(RESULT_SCHEMA) {
            return Err(io::Error::other(format!(
                "{}: not a {RESULT_SCHEMA} document",
                p.display()
            )));
        }
        Ok(doc)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |d: &JsonValue| -> Vec<JsonValue> {
        d.get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .to_vec()
    };
    let spec = BenchSpec::get();
    let mut clean = true;
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            continue;
        };
        let mut row = format!("{name:<16}");
        for m in &spec.end_to_end {
            let Some((verdict, change)) =
                judge(m, &run_values(&wa, &m.name), &run_values(&wb, &m.name))
            else {
                row.push_str(&format!(" | {} n/a", m.name));
                continue;
            };
            clean &= verdict != Verdict::Regressed;
            row.push_str(&format!(
                " | {} {:+.1}% {}",
                m.name,
                change * 100.0,
                verdict.label()
            ));
        }
        if wa.get("digest") != wb.get("digest") {
            row.push_str(" | outputs_changed");
        }
        println!("{row}");
    }
    Ok(clean)
}
