//! Pretty-prints run manifests, summarises JSONL traces, and audits a
//! manifest's trace.
//!
//! Usage:
//!   obs_report                          list results/*.manifest.json
//!   obs_report <manifest.json>          pretty-print one manifest
//!   obs_report <manifest.json> <trace.jsonl>   + summarise a trace
//!   obs_report --trace <trace.jsonl>    summarise a trace alone
//!   obs_report audit <manifest.json>    invariant-check the manifest's
//!                                       trace file + slowest journeys
//!   obs_report profile <file.json>      render a performance profile:
//!                                       accepts a manifest with a
//!                                       `stats.profile` or a bare
//!                                       ProfileReport document
//!   obs_report forensics <file.json>    render drop forensics: invariant
//!                                       findings and the causal verdict
//!                                       histogram from a manifest with a
//!                                       `stats.monitor` or a bare
//!                                       MonitorTotals document
//!   obs_report e2e <manifest.json>      render source→sink path stats from
//!                                       the manifest's trace: hop-count
//!                                       distribution, e2e latency
//!                                       percentiles, per-reason loss shares

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uasn_audit::journey::{reconstruct, reconstruct_paths, slowest, PathStats, PhaseHistograms};
use uasn_audit::model::TraceModel;
use uasn_bench::manifest::MonitorTotals;
use uasn_sim::json::JsonValue;
use uasn_sim::profile::ProfileReport;
use uasn_sim::trace::parse_jsonl;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => list_manifests(&uasn_bench::cli::results_dir()),
        [flag, trace] if flag == "--trace" => summarize_trace(Path::new(trace)),
        [cmd, manifest] if cmd == "audit" => audit_manifest(Path::new(manifest)),
        [cmd, file] if cmd == "profile" => profile_command(Path::new(file)),
        [cmd, file] if cmd == "forensics" => forensics_command(Path::new(file)),
        [cmd, manifest] if cmd == "e2e" => e2e_command(Path::new(manifest)),
        [manifest] => print_manifest(Path::new(manifest)),
        [manifest, trace] => {
            let a = print_manifest(Path::new(manifest));
            println!();
            let b = summarize_trace(Path::new(trace));
            if a == ExitCode::SUCCESS && b == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: obs_report [manifest.json] [trace.jsonl] \
                 | --trace <trace.jsonl> | audit <manifest.json> \
                 | profile <file.json> | forensics <file.json> \
                 | e2e <manifest.json>"
            );
            ExitCode::FAILURE
        }
    }
}

fn list_manifests(dir: &Path) -> ExitCode {
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("no {} directory; run a figure binary first", dir.display());
        return ExitCode::FAILURE;
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".manifest.json"))
        .collect();
    names.sort();
    if names.is_empty() {
        println!("no manifests under {}", dir.display());
        return ExitCode::SUCCESS;
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
            Err(e) => println!("  {name:<28} (unreadable: {e})"),
        }
    }
    ExitCode::SUCCESS
}

fn load_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    JsonValue::parse(&text).map_err(|e| e.to_string())
}

fn print_manifest(path: &Path) -> ExitCode {
    let doc = match load_json(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let str_of = |key: &str| doc.get(key).and_then(JsonValue::as_str).unwrap_or("?");
    let schema = str_of("schema");
    if schema != uasn_bench::manifest::MANIFEST_SCHEMA {
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
        println!("  trace file: {trace_file} (try: obs_report audit <manifest>)");
    }
    ExitCode::SUCCESS
}

/// Audits the trace a manifest points at: replays the invariant checks,
/// then prints the slowest journeys and the phase-latency table.
fn audit_manifest(path: &Path) -> ExitCode {
    let doc = match load_json(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(trace_file) = doc.get("trace_file").and_then(JsonValue::as_str) else {
        eprintln!(
            "{} has no `trace_file`; re-run the experiment with tracing \
             (e.g. the trace_run bin) to produce an auditable manifest",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    let lossless = doc
        .get("stats")
        .and_then(|s| s.get("trace"))
        .and_then(|t| t.get("lossless"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(true);
    if !lossless {
        eprintln!(
            "refusing to audit {}: manifest records a lossy trace \
             (dropped/evicted/unwritten records) — conclusions would be unsound",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    // Relative trace paths are relative to the manifest's directory.
    let trace_path = {
        let p = Path::new(trace_file);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            path.parent().unwrap_or(Path::new(".")).join(p)
        }
    };
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} is not a valid trace: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "[{}] auditing {} ({} records)",
        doc.get("id").and_then(JsonValue::as_str).unwrap_or("?"),
        trace_path.display(),
        records.len()
    );
    let model = TraceModel::from_records(&records);
    if model.skipped > 0 {
        println!(
            "  note: {} record(s) had unusable fields and were skipped",
            model.skipped
        );
    }

    let violations = uasn_audit::check(&model);
    if violations.is_empty() {
        println!("  invariants: all checks passed");
    } else {
        println!("  invariants: {} VIOLATION(S)", violations.len());
        for v in &violations {
            println!("    {v}");
        }
    }

    let journeys = reconstruct(&model);
    let delivered = journeys.iter().filter(|j| j.delivered()).count();
    println!(
        "  journeys: {} reconstructed, {} delivered",
        journeys.len(),
        delivered
    );
    let top = slowest(&journeys, 5);
    if !top.is_empty() {
        println!("  slowest end-to-end:");
        for j in top {
            println!("    {}", j.describe());
        }
    }
    let hists = PhaseHistograms::from_journeys(&journeys);
    println!("  phase latency (us):");
    println!(
        "    {:<14}{:>8}{:>12}{:>12}{:>12}{:>12}",
        "phase", "n", "p50", "p90", "p99", "max"
    );
    for (name, hist) in hists.phases() {
        println!(
            "    {name:<14}{:>8}{:>12}{:>12}{:>12}{:>12}",
            hist.count(),
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0),
            hist.max().unwrap_or(0),
        );
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders routed source→sink path statistics from a manifest's trace:
/// per-attempt copy fates, the hop-count distribution, end-to-end latency
/// percentiles, and per-reason loss shares.
fn e2e_command(path: &Path) -> ExitCode {
    let doc = match load_json(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(trace_file) = doc.get("trace_file").and_then(JsonValue::as_str) else {
        eprintln!(
            "{} has no `trace_file`; re-run with tracing (e.g. \
             trace_run --route) to produce path statistics",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    // Relative trace paths are relative to the manifest's directory.
    let trace_path: PathBuf = {
        let p = Path::new(trace_file);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            path.parent().unwrap_or(Path::new(".")).join(p)
        }
    };
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} is not a valid trace: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let model = TraceModel::from_records(&records);
    let paths = reconstruct_paths(&model);
    println!(
        "[{}] e2e paths from {} ({} records)",
        doc.get("id").and_then(JsonValue::as_str).unwrap_or("?"),
        trace_path.display(),
        records.len()
    );
    if let Some(route) = doc
        .get("config")
        .and_then(|c| c.get("route"))
        .and_then(JsonValue::as_str)
    {
        println!("  route: {route}");
    }
    if paths.is_empty() {
        eprintln!(
            "  no route/relay records — run a routed configuration \
             (SimConfig::with_routing) with tracing enabled"
        );
        return ExitCode::FAILURE;
    }
    let stats = PathStats::from_paths(&paths);
    let lost = stats.attempted - stats.delivered;
    println!(
        "  copies: {} injected, {} delivered ({:.1}%), {} lost",
        stats.attempted,
        stats.delivered,
        stats.delivered as f64 / stats.attempted as f64 * 100.0,
        lost
    );
    println!("  hop-count distribution (delivered paths):");
    for (lo, hi, count) in stats.hop_counts.iter_nonzero() {
        let label = if hi == lo + 1 {
            format!("{lo}")
        } else {
            format!("{lo}-{}", hi - 1)
        };
        println!(
            "    {label:<8} {count:>8}  {:>5.1}%",
            count as f64 / stats.hop_counts.count() as f64 * 100.0
        );
    }
    println!(
        "  e2e latency (us): n={} p50={} p90={} p99={} max={}",
        stats.e2e_us.count(),
        stats.e2e_us.p50().unwrap_or(0),
        stats.e2e_us.p90().unwrap_or(0),
        stats.e2e_us.p99().unwrap_or(0),
        stats.e2e_us.max().unwrap_or(0),
    );
    let dropped: u64 = stats.drop_reasons.iter().map(|(_, n)| n).sum();
    let in_flight = lost - dropped;
    if lost == 0 {
        println!("  losses: none");
    } else {
        println!("  losses ({lost} total):");
        for (reason, count) in &stats.drop_reasons {
            println!(
                "    {reason:<26} {count:>8}  {:>5.1}%",
                *count as f64 / lost as f64 * 100.0
            );
        }
        if in_flight > 0 {
            println!(
                "    {:<26} {in_flight:>8}  {:>5.1}%",
                "in-flight at end",
                in_flight as f64 / lost as f64 * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}

fn summarize_trace(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} is not a valid trace: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!("trace {}: {} record(s)", path.display(), records.len());
    let Some(first) = records.first() else {
        return ExitCode::SUCCESS;
    };
    let last = records.last().expect("non-empty");
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
    ExitCode::SUCCESS
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
fn forensics_command(path: &Path) -> ExitCode {
    let doc = match load_json(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let block = doc.get("stats").and_then(|s| s.get("monitor")).or_else(|| {
        (doc.get("findings").is_some() && doc.get("verdicts").is_some()).then_some(&doc)
    });
    let Some(totals) = block.and_then(MonitorTotals::from_json) else {
        eprintln!(
            "{}: no monitoring totals found — re-run the experiment with \
             monitoring (SimConfig::with_monitoring / --monitor) to attribute \
             losses",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    if let Some(id) = doc.get("id").and_then(JsonValue::as_str) {
        println!("[{id}] drop forensics from {}", path.display());
    } else {
        println!("drop forensics from {}", path.display());
    }
    render_forensics(&totals);
    ExitCode::SUCCESS
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
fn profile_command(path: &Path) -> ExitCode {
    let doc = match load_json(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // A bare report has `handler` + `metrics` at the top level.
    if doc.get("handler").is_some() && doc.get("metrics").is_some() {
        return match ProfileReport::from_json(&doc) {
            Some(report) => {
                println!("profile {}", path.display());
                render_profile(&report);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "{} looks like a profile but does not decode",
                    path.display()
                );
                ExitCode::FAILURE
            }
        };
    }
    if let Some(profile) = doc.get("stats").and_then(|s| s.get("profile")) {
        let Some(report) = ProfileReport::from_json(profile) else {
            eprintln!("{}: stats.profile does not decode", path.display());
            return ExitCode::FAILURE;
        };
        println!(
            "[{}] profile from manifest {}",
            doc.get("id").and_then(JsonValue::as_str).unwrap_or("?"),
            path.display()
        );
        render_profile(&report);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{}: no profile found — expected a ProfileReport or a manifest \
         with `stats.profile`",
        path.display()
    );
    ExitCode::FAILURE
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
