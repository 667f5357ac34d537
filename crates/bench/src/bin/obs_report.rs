//! The one inspector for run manifests and JSONL traces.
//!
//! Usage:
//!   obs_report                          list results/*.manifest.json
//!   obs_report <manifest.json>          pretty-print one manifest
//!   obs_report <manifest.json> <trace.jsonl>   + summarise a trace
//!   obs_report --trace <trace.jsonl>    summarise a trace alone
//!   obs_report check <input>            replay the invariant checks
//!   obs_report journeys <input> [--top N]
//!                                       slowest packet journeys (default 10)
//!   obs_report latency <input> [--csv P] [--json P]
//!                                       phase-latency histograms
//!   obs_report paths <input> [--json P] routed source→sink paths: copy
//!                                       fates, hop-count distribution, e2e
//!                                       percentiles, per-reason loss shares
//!   obs_report profile <file.json>      render a performance profile:
//!                                       accepts a manifest with a
//!                                       `stats.profile` or a bare
//!                                       ProfileReport document
//!   obs_report forensics <file.json>    render drop forensics: invariant
//!                                       findings and the causal verdict
//!                                       histogram from a manifest with a
//!                                       `stats.monitor` or a bare
//!                                       MonitorTotals document
//!
//! `<input>` is a JSONL trace or a run manifest, told apart by the file
//! itself (the trace's `uasn-trace` header line against the manifest's
//! `uasn-manifest` schema). A manifest stands for the trace its
//! `trace_file` names, relative to the manifest's directory, and is refused
//! when it records a lossy trace.
//!
//! Exit codes: 0 on success, 1 on any failure: a violation found by
//! `check`, a usage error, or an unreadable, unparsable or lossy input.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uasn_audit::journey::{reconstruct, reconstruct_paths, slowest, PathStats, PhaseHistograms};
use uasn_audit::model::TraceModel;
use uasn_audit::read_trace;
use uasn_bench::manifest::{MonitorTotals, MANIFEST_SCHEMA};
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::trace::TRACE_SCHEMA;

const USAGE: &str = "usage: obs_report [manifest.json] [trace.jsonl]
       obs_report --trace <trace.jsonl>
       obs_report check <input>
       obs_report journeys <input> [--top N]
       obs_report latency <input> [--csv PATH] [--json PATH]
       obs_report paths <input> [--json PATH]
       obs_report profile <file.json>
       obs_report forensics <file.json>
<input> is a JSONL trace or a run manifest with a `trace_file`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [] => list_manifests(&uasn_bench::paths::results_dir()),
        [verb, input, opts @ ..] if Verb::NAMES.contains(&verb.as_str()) => {
            Verb::parse(verb, opts).and_then(|verb| inspect(&verb, Path::new(input)))
        }
        [flag, trace] if flag == "--trace" => summarize_trace(Path::new(trace)),
        [cmd, file] if cmd == "profile" => profile_command(Path::new(file)),
        [cmd, file] if cmd == "forensics" => forensics_command(Path::new(file)),
        [cmd]
            if Verb::NAMES.contains(&cmd.as_str())
                || ["--trace", "profile", "forensics"].contains(&cmd.as_str()) =>
        {
            Err(format!("`{cmd}` needs an input file\n\n{USAGE}"))
        }
        [first, rest @ ..] if rest.len() <= 1 && !Path::new(first).is_file() => Err(format!(
            "`{first}` is neither a command nor a manifest file\n\n{USAGE}"
        )),
        [manifest] => print_manifest(Path::new(manifest)),
        [manifest, trace] => {
            let shown = print_manifest(Path::new(manifest));
            println!();
            match (shown, summarize_trace(Path::new(trace))) {
                (Err(a), Err(b)) => Err(format!("{a}\n{b}")),
                (shown, summary) => shown.and(summary),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obs_report: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One question asked of a trace, with its options.
enum Verb {
    /// Replay the invariant checks.
    Check,
    /// The slowest packet journeys.
    Journeys { top: usize },
    /// Phase-latency histograms, optionally exported.
    Latency {
        csv: Option<PathBuf>,
        json: Option<PathBuf>,
    },
    /// Routed source→sink path statistics, optionally exported.
    Paths { json: Option<PathBuf> },
}

impl Verb {
    const NAMES: [&'static str; 4] = ["check", "journeys", "latency", "paths"];

    /// Parses `name` and its `--option value` pairs; each verb accepts
    /// only its own options.
    fn parse(name: &str, tokens: &[String]) -> Result<Verb, String> {
        let allowed: &[&str] = match name {
            "journeys" => &["--top"],
            "latency" => &["--csv", "--json"],
            "paths" => &["--json"],
            _ => &[],
        };
        let (mut top, mut csv, mut json) = (10, None, None);
        let mut tokens = tokens.iter();
        while let Some(option) = tokens.next() {
            if !allowed.contains(&option.as_str()) {
                return Err(format!("`{name}` takes no option {option:?}\n\n{USAGE}"));
            }
            let value = tokens
                .next()
                .ok_or_else(|| format!("{option} needs a value\n\n{USAGE}"))?;
            match option.as_str() {
                "--top" => {
                    top = value
                        .parse()
                        .map_err(|_| format!("bad --top value {value:?}"))?;
                }
                "--csv" => csv = Some(PathBuf::from(value)),
                _ => json = Some(PathBuf::from(value)),
            }
        }
        Ok(match name {
            "check" => Verb::Check,
            "journeys" => Verb::Journeys { top },
            "latency" => Verb::Latency { csv, json },
            _ => Verb::Paths { json },
        })
    }
}

/// Loads the trace behind `input` (a trace or a manifest), prints what
/// was loaded, and answers `verb` over it.
fn inspect(verb: &Verb, input: &Path) -> Result<(), String> {
    let trace_path = trace_of(input)?;
    let (records, model) = read_trace(&trace_path)?;
    println!(
        "trace {}: {} records ({} audit events skipped for missing fields)",
        trace_path.display(),
        records.len(),
        model.skipped
    );
    if let Some(run) = &model.run_info {
        println!(
            "run: {} | {} nodes ({} sinks) | slot {} us | mobility {} | forwarding {}",
            run.protocol, run.nodes, run.sinks, run.slot_us, run.mobility, run.forwarding
        );
    } else {
        println!("run: no run-info record; geometry-dependent checks are skipped");
    }
    if !model.has_frame_detail() {
        println!("note: no per-frame events — trace the run at Debug level for a full audit");
    }
    match verb {
        Verb::Check => check(&model),
        Verb::Journeys { top } => journeys(&model, *top),
        Verb::Latency { csv, json } => latency(&model, csv.as_deref(), json.as_deref()),
        Verb::Paths { json } => paths(&model, json.as_deref()),
    }
}

/// The trace file `input` stands for: `input` itself when its first line
/// is a `uasn-trace` header, else the `trace_file` of the run manifest
/// `input` is, resolved against the manifest's directory.
fn trace_of(input: &Path) -> Result<PathBuf, String> {
    let file = File::open(input).map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let header = BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .find(|line| !line.trim().is_empty());
    let is_trace = header
        .and_then(|line| JsonValue::parse(&line).ok())
        .is_some_and(|h| h.get("schema").and_then(JsonValue::as_str) == Some(TRACE_SCHEMA));
    if is_trace {
        return Ok(input.to_path_buf());
    }
    let doc = load_json(input)
        .ok()
        .filter(|doc| doc.get("schema").and_then(JsonValue::as_str) == Some(MANIFEST_SCHEMA))
        .ok_or_else(|| {
            format!(
                "{} is neither a {TRACE_SCHEMA} JSONL trace nor a {MANIFEST_SCHEMA} document",
                input.display()
            )
        })?;
    let Some(trace_file) = doc.get("trace_file").and_then(JsonValue::as_str) else {
        return Err(format!(
            "{} has no `trace_file`; re-run the experiment with tracing \
             (e.g. the trace_run bin) to produce an inspectable manifest",
            input.display()
        ));
    };
    let lossless = doc
        .get("stats")
        .and_then(|s| s.get("trace"))
        .and_then(|t| t.get("lossless"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(true);
    if !lossless {
        return Err(format!(
            "refusing {}: the manifest records a lossy trace \
             (dropped/evicted/unwritten records), so conclusions would be unsound",
            input.display()
        ));
    }
    let trace_path = input.parent().unwrap_or(Path::new(".")).join(trace_file);
    println!(
        "[{}] manifest {}",
        doc.get("id").and_then(JsonValue::as_str).unwrap_or("?"),
        input.display()
    );
    if let Some(route) = doc
        .get("config")
        .and_then(|c| c.get("route"))
        .and_then(JsonValue::as_str)
    {
        println!("route: {route}");
    }
    Ok(trace_path)
}

fn check(model: &TraceModel) -> Result<(), String> {
    let violations = uasn_audit::check(model);
    if violations.is_empty() {
        println!("OK: all invariant checks passed");
        return Ok(());
    }
    println!("FAIL: {} violation(s)", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    Err(format!("{} invariant violation(s)", violations.len()))
}

fn journeys(model: &TraceModel, top: usize) -> Result<(), String> {
    let journeys = reconstruct(model);
    let delivered = journeys.iter().filter(|j| j.delivered()).count();
    let dropped = journeys.iter().filter(|j| j.dropped.is_some()).count();
    println!(
        "{} journeys: {} delivered, {} dropped, {} in flight",
        journeys.len(),
        delivered,
        dropped,
        journeys.len() - delivered - dropped
    );
    println!("slowest {top} by end-to-end latency:");
    for j in slowest(&journeys, top) {
        print!("{}", j.describe());
    }
    Ok(())
}

fn latency(model: &TraceModel, csv: Option<&Path>, json: Option<&Path>) -> Result<(), String> {
    let hists = PhaseHistograms::from_journeys(&reconstruct(model));
    println!("phase          count        p50        p90        p99        max (us)");
    for (name, hist) in hists.phases() {
        println!(
            "{name:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
            hist.count(),
            opt(hist.p50()),
            opt(hist.p90()),
            opt(hist.p99()),
            opt(hist.max()),
        );
    }
    if let Some(path) = csv {
        write_file(path, hists.to_csv())?;
    }
    if let Some(path) = json {
        write_file(path, hists.to_json().to_json() + "\n")?;
    }
    Ok(())
}

fn paths(model: &TraceModel, json: Option<&Path>) -> Result<(), String> {
    let paths = reconstruct_paths(model);
    if paths.is_empty() {
        println!("no routed paths: the trace carries no route/relay records");
        return Ok(());
    }
    let stats = PathStats::from_paths(&paths);
    let lost = stats.attempted - stats.delivered;
    println!(
        "copies: {} injected, {} delivered ({:.1}%), {} lost",
        stats.attempted,
        stats.delivered,
        stats.delivered as f64 / stats.attempted as f64 * 100.0,
        lost
    );
    println!("hop-count distribution (delivered paths):");
    for (lo, hi, count) in stats.hop_counts.iter_nonzero() {
        let label = if hi == lo + 1 {
            format!("{lo}")
        } else {
            format!("{lo}-{}", hi - 1)
        };
        println!(
            "  {label:<8} {count:>8}  {:>5.1}%",
            count as f64 / stats.hop_counts.count() as f64 * 100.0
        );
    }
    println!(
        "e2e latency (us): n={} p50={} p90={} p99={} max={}",
        stats.e2e_us.count(),
        opt(stats.e2e_us.p50()),
        opt(stats.e2e_us.p90()),
        opt(stats.e2e_us.p99()),
        opt(stats.e2e_us.max()),
    );
    let dropped: u64 = stats.drop_reasons.iter().map(|(_, n)| n).sum();
    let in_flight = lost - dropped;
    if lost == 0 {
        println!("losses: none");
    } else {
        println!("losses ({lost} total):");
        let share = |n: u64| n as f64 / lost as f64 * 100.0;
        for (reason, count) in &stats.drop_reasons {
            println!("  {reason:<26} {count:>8}  {:>5.1}%", share(*count));
        }
        if in_flight > 0 {
            println!(
                "  {:<26} {in_flight:>8}  {:>5.1}%",
                "in-flight at end",
                share(in_flight)
            );
        }
    }
    if let Some(path) = json {
        write_file(path, stats.to_json().to_json() + "\n")?;
    }
    Ok(())
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn write_file(path: &Path, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn list_manifests(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|_| format!("no {} directory; run a figure sweep first", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".manifest.json"))
        .collect();
    names.sort();
    if names.is_empty() {
        println!("no manifests under {}", dir.display());
        return Ok(());
    }
    println!("{} manifest(s) under {}:", names.len(), dir.display());
    for name in names {
        let path = dir.join(&name);
        match load_json(&path) {
            Ok(doc) => {
                let title = doc.get("title").and_then(JsonValue::as_str).unwrap_or("?");
                let runs = doc
                    .get("stats")
                    .and_then(|s| s.get("runs"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                println!("  {name:<28} {runs:>4} runs  {title}");
            }
            Err(e) => println!("  {name:<28} ({e})"),
        }
    }
    Ok(())
}

fn load_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn print_manifest(path: &Path) -> Result<(), String> {
    let doc = load_json(path)?;
    let str_of = |key: &str| doc.get(key).and_then(JsonValue::as_str).unwrap_or("?");
    let schema = str_of("schema");
    if schema != MANIFEST_SCHEMA {
        eprintln!(
            "warning: unexpected schema `{schema}` in {}",
            path.display()
        );
    }
    println!(
        "[{}] {} (manifest v{}, uasn-bench {})",
        str_of("id"),
        str_of("title"),
        doc.get("version").and_then(JsonValue::as_u64).unwrap_or(0),
        str_of("crate_version"),
    );
    let seeds = doc.get("seeds").and_then(JsonValue::as_u64).unwrap_or(0);
    println!("  seeds: {seeds} ({})", str_of("seed_scheme"));
    if let Some(protocols) = doc.get("protocols").and_then(JsonValue::as_array) {
        let names: Vec<&str> = protocols.iter().filter_map(JsonValue::as_str).collect();
        println!("  protocols: {}", names.join(", "));
    }
    if let Some(JsonValue::Object(config)) = doc.get("config") {
        println!("  config:");
        for (k, v) in config {
            println!("    {k:<20} {}", v.as_str().unwrap_or("?"));
        }
    }
    if let Some(stats) = doc.get("stats") {
        let num = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        println!("  engine:");
        println!("    runs                 {}", num("runs"));
        println!("    events processed     {}", num("events_processed"));
        println!(
            "    wall                 {:.3} s",
            num("wall_us") as f64 / 1e6
        );
        println!(
            "    events/wall-sec      {:.0}",
            stats
                .get("events_per_wall_sec")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        );
        println!("    peak queue depth     {}", num("peak_queue_depth"));
        if let Some(kinds) = stats.get("kind_counts").and_then(JsonValue::as_array) {
            println!("    events by kind:");
            for pair in kinds {
                if let Some(pair) = pair.as_array() {
                    if let (Some(label), Some(count)) = (pair[0].as_str(), pair[1].as_u64()) {
                        println!("      {label:<18} {count}");
                    }
                }
            }
        }
        if let Some(reasons) = stats.get("stop_reasons").and_then(JsonValue::as_array) {
            let text: Vec<String> = reasons
                .iter()
                .filter_map(|p| p.as_array())
                .filter_map(|p| Some(format!("{} x{}", p[0].as_str()?, p[1].as_u64()?)))
                .collect();
            println!("    stop reasons: {}", text.join(", "));
        }
        if let Some(trace) = stats.get("trace") {
            let num = |key: &str| trace.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let lossless = trace
                .get("lossless")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true);
            println!(
                "  trace health: {} ({} lines, {} dropped, {} evicted, {} io errors)",
                if lossless { "lossless" } else { "LOSSY" },
                num("jsonl_lines"),
                num("capture_dropped"),
                num("ring_evicted"),
                num("io_errors"),
            );
        }
        if let Some(totals) = stats.get("monitor").and_then(MonitorTotals::from_json) {
            println!(
                "  monitoring: {} run(s), {} finding(s), {} attributed loss(es) \
                 (try: obs_report forensics <manifest>)",
                totals.runs,
                totals.total_findings(),
                totals.verdicts.total(),
            );
        }
    }
    if let Some(latency) = doc.get("latency") {
        println!("  latency (us):");
        for key in ["delivery_us", "end_to_end_us"] {
            let Some(hist) = latency.get(key) else {
                continue;
            };
            let num = |k: &str| hist.get(k).and_then(JsonValue::as_u64);
            println!(
                "    {key:<16} n={} p50={} p90={} p99={} max={}",
                num("count").unwrap_or(0),
                num("p50").unwrap_or(0),
                num("p90").unwrap_or(0),
                num("p99").unwrap_or(0),
                num("max").unwrap_or(0),
            );
        }
    }
    if let Some(trace_file) = doc.get("trace_file").and_then(JsonValue::as_str) {
        println!("  trace file: {trace_file} (try: obs_report check <manifest>)");
    }
    Ok(())
}

fn summarize_trace(path: &Path) -> Result<(), String> {
    let (records, _) = read_trace(path)?;
    println!("trace {}: {} record(s)", path.display(), records.len());
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Ok(());
    };
    println!(
        "  span: {:.3} s .. {:.3} s",
        first.time.as_secs_f64(),
        last.time.as_secs_f64()
    );
    // Per-level and per-tag counts, in first-seen order.
    let mut levels: Vec<(&str, u64)> = Vec::new();
    let mut tags: Vec<(&str, u64)> = Vec::new();
    for r in &records {
        bump_count(&mut levels, r.level.as_str());
        bump_count(&mut tags, &r.tag);
    }
    println!("  by level:");
    for (level, count) in &levels {
        println!("    {level:<8} {count}");
    }
    tags.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("  by tag (top {}):", tags.len().min(12));
    for (tag, count) in tags.iter().take(12) {
        println!("    {tag:<12} {count}");
    }
    Ok(())
}

fn bump_count<'a>(table: &mut Vec<(&'a str, u64)>, key: &'a str) {
    match table.iter_mut().find(|(k, _)| *k == key) {
        Some((_, c)) => *c += 1,
        None => table.push((key, 1)),
    }
}

/// Renders the drop forensics found in `path`. Two document shapes are
/// accepted: a run manifest whose `stats.monitor` carries monitoring
/// totals, and a bare `MonitorTotals` JSON (`runs`/`findings`/`verdicts`).
fn forensics_command(path: &Path) -> Result<(), String> {
    let doc = load_json(path)?;
    let block = doc.get("stats").and_then(|s| s.get("monitor")).or_else(|| {
        (doc.get("findings").is_some() && doc.get("verdicts").is_some()).then_some(&doc)
    });
    let Some(totals) = block.and_then(MonitorTotals::from_json) else {
        return Err(format!(
            "{}: no monitoring totals found — re-run the experiment with \
             monitoring (SimConfig::with_monitoring / --monitor) to attribute \
             losses",
            path.display()
        ));
    };
    if let Some(id) = doc.get("id").and_then(JsonValue::as_str) {
        println!("[{id}] drop forensics from {}", path.display());
    } else {
        println!("drop forensics from {}", path.display());
    }
    render_forensics(&totals);
    Ok(())
}

/// Pretty-prints one decoded `MonitorTotals`: invariant findings by kind,
/// then the causal verdict histogram with per-cause shares.
fn render_forensics(totals: &MonitorTotals) {
    println!("  monitored runs: {}", totals.runs);
    let findings = totals.total_findings();
    if totals.findings.is_empty() {
        println!("  invariant findings: none recorded");
    } else {
        println!("  invariant findings: {findings} total");
        for (kind, count) in &totals.findings {
            println!("    {kind:<26} {count}");
        }
    }
    let attributed = totals.verdicts.total();
    if attributed == 0 {
        println!("  drop verdicts: no losses attributed");
        return;
    }
    println!("  drop verdicts: {attributed} loss(es) attributed");
    for (verdict, count) in totals.verdicts.iter() {
        if count == 0 {
            continue;
        }
        println!(
            "    {:<26} {count:>8}  {:>5.1}%",
            verdict.as_str(),
            count as f64 / attributed as f64 * 100.0
        );
    }
}

/// Renders the performance profile found in `path`. Two document shapes
/// are accepted: a bare `ProfileReport` JSON and a run manifest whose
/// `stats.profile` carries one.
fn profile_command(path: &Path) -> Result<(), String> {
    let doc = load_json(path)?;
    // A bare report has `handler` + `metrics` at the top level.
    if doc.get("handler").is_some() && doc.get("metrics").is_some() {
        let report = ProfileReport::from_json(&doc).ok_or_else(|| {
            format!(
                "{} looks like a profile but does not decode",
                path.display()
            )
        })?;
        println!("profile {}", path.display());
        render_profile(&report);
        return Ok(());
    }
    if let Some(profile) = doc.get("stats").and_then(|s| s.get("profile")) {
        let report = ProfileReport::from_json(profile)
            .ok_or_else(|| format!("{}: stats.profile does not decode", path.display()))?;
        println!(
            "[{}] profile from manifest {}",
            doc.get("id").and_then(JsonValue::as_str).unwrap_or("?"),
            path.display()
        );
        render_profile(&report);
        return Ok(());
    }
    Err(format!(
        "{}: no profile found — expected a ProfileReport or a manifest \
         with `stats.profile`",
        path.display()
    ))
}

/// Pretty-prints one decoded `ProfileReport`: per-event-kind attribution,
/// engine internals, link-budget-cache rates, and registry distributions.
fn render_profile(report: &ProfileReport) {
    let engine = &report.engine;
    println!(
        "  engine: {} run(s), {} events scheduled, {} sampled for timing",
        report.runs, engine.events_scheduled, engine.sampled_events
    );
    println!(
        "    pop cost             {} ns total over sampled pops",
        engine.pop_ns
    );
    println!(
        "    slab                 {} slots, {} reuses ({:.0}% reuse)",
        engine.slab_slots,
        engine.slab_reuses,
        engine.slab_reuse_rate() * 100.0
    );
    let handlers = report.top_handlers();
    let grand_total: u64 = handlers.iter().map(|(_, c)| c.total_ns).sum();
    if !handlers.is_empty() {
        println!("  handler time (sampled):");
        println!(
            "    {:<18}{:>10}{:>12}{:>10}{:>10}{:>8}",
            "kind", "sampled", "total_us", "mean_ns", "max_ns", "share"
        );
        for (kind, cost) in &handlers {
            let share = if grand_total == 0 {
                0.0
            } else {
                cost.total_ns as f64 / grand_total as f64 * 100.0
            };
            println!(
                "    {kind:<18}{:>10}{:>12}{:>10}{:>10}{:>7.1}%",
                cost.sampled,
                cost.total_ns / 1_000,
                cost.mean_ns(),
                cost.max_ns,
                share
            );
        }
    }
    let metrics = &report.metrics;
    let hits = metrics.counter("phy.cache.hits");
    let misses = metrics.counter("phy.cache.misses");
    if hits + misses > 0 {
        let culls = metrics.counter("phy.cache.cull_rejects");
        let audib = metrics.counter("phy.cache.audibility_rejects");
        println!(
            "  link-budget cache: {:.1}% hit ({hits} hits, {misses} misses, {} invalidations)",
            hits as f64 / (hits + misses) as f64 * 100.0,
            metrics.counter("phy.cache.invalidations"),
        );
        println!("    rejected at build: {culls} culled, {audib} inaudible");
    }
    let mut shown_header = false;
    for (name, hist) in &metrics.hists {
        if hist.count() == 0 {
            continue;
        }
        if !shown_header {
            println!("  distributions:");
            println!(
                "    {:<18}{:>8}{:>8}{:>8}{:>8}{:>8}",
                "metric", "n", "p50", "p90", "p99", "max"
            );
            shown_header = true;
        }
        println!(
            "    {name:<18}{:>8}{:>8}{:>8}{:>8}{:>8}",
            hist.count(),
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0),
            hist.max().unwrap_or(0),
        );
    }
    let extra_counters: Vec<(&str, u64)> = metrics
        .counters
        .iter()
        .filter(|(n, _)| !n.starts_with("phy.cache."))
        .map(|&(n, v)| (n, v))
        .collect();
    if !extra_counters.is_empty() {
        println!("  counters:");
        for (name, value) in extra_counters {
            println!("    {name:<24} {value}");
        }
    }
    if !metrics.gauges.is_empty() {
        println!("  gauges (max):");
        for (name, value) in &metrics.gauges {
            println!("    {name:<24} {value}");
        }
    }
}
