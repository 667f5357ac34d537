//! Traced reference run + inline audit: streams one seeded EW-MAC run's
//! Debug-level trace to `results/TRC.trace.jsonl` — simultaneously through
//! the online streaming monitors (with an anomaly flight recorder dumping
//! into `results/TRC.flight/`) — replays the invariant checks over the
//! file it just wrote, cross-checks that the online findings equal the
//! post-hoc ones, and records a manifest pointing at the trace (with
//! latency summaries, trace health, and monitoring totals).
//!
//! Exits nonzero on any invariant violation, any online/post-hoc finding
//! disagreement, any trace loss (dropped, evicted, or unwritten records),
//! or a malformed trace — this is the CI gate for the audit layer.
//!
//! Usage: `trace_run [--route] [seed] [out_dir]`
//!
//! With `--route`, the reference run is instead a seeded convergecast over
//! a three-layer column with depth routing and reliable transport — the
//! multi-hop twin of the single-hop gate, additionally cross-checking the
//! streamed routing-loop monitor and printing source→sink path statistics.

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use uasn_audit::journey::{reconstruct, reconstruct_paths, PathStats, PhaseHistograms};
use uasn_audit::monitor::{StreamingMonitor, DEFAULT_FLIGHT_CAPACITY};
use uasn_audit::read_trace;
use uasn_bench::manifest::MonitorTotals;
use uasn_bench::{Protocol, RunManifest, StatsAggregate};
use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_net::world::Simulation;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, Tracer};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let routed = args.iter().any(|a| a == "--route");
    args.retain(|a| a != "--route");
    let mut args = args.into_iter();
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0xEA5E);
    let out_dir: PathBuf = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(uasn_bench::paths::results_dir);
    let out_dir = out_dir.as_path();
    let tag = if routed { "TRC-ROUTE" } else { "TRC" };
    let trace_name = format!("{tag}.trace.jsonl");
    let flight_name = format!("{tag}.flight");

    // Static 20-sensor column, 120 s: enough traffic for every frame kind
    // (including extras) while the Debug trace stays small. The routed
    // variant stacks the same sensors three layers deep and runs
    // convergecast rounds, so relays and sink acks appear in the trace.
    let mut cfg = SimConfig::paper_default()
        .with_sensors(20)
        .with_offered_load_kbps(0.5)
        .with_sim_time(SimDuration::from_secs(120))
        .with_monitoring(true)
        .with_seed(seed);
    if routed {
        cfg = cfg
            .with_convergecast(30.0, 10.0)
            .with_reliable_route()
            .with_sim_time(SimDuration::from_secs(240));
        cfg.deployment = Deployment::LayeredColumn {
            extent_m: 2_000.0,
            layers: 3,
            layer_spacing_m: 1_200.0,
        };
    }

    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("trace_run: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let trace_path = out_dir.join(&trace_name);
    let file = match fs::File::create(&trace_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_run: cannot create {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
    };
    // A fresh flight directory per run, so stale snapshots cannot mask a
    // clean pass (or pad a failing one).
    let flight_dir = out_dir.join(&flight_name);
    let _ = fs::remove_dir_all(&flight_dir);
    let monitor =
        StreamingMonitor::new().with_flight_recorder(&flight_dir, DEFAULT_FLIGHT_CAPACITY);
    let tracer = Tracer::new(TraceLevel::Debug)
        .with_jsonl(Box::new(BufWriter::new(file)))
        .with_sink(monitor.sink());

    println!(
        "[{tag}] EW-MAC seed {seed:#x}, {} sensors, {} s, Debug trace -> {}",
        cfg.sensors,
        cfg.sim_time.as_secs_f64(),
        trace_path.display()
    );
    let factory = move |id: uasn_net::node::NodeId| Protocol::EwMac.build(id);
    let out = Simulation::new(cfg.clone(), &factory)
        .expect("paper-default config is valid")
        .with_tracer(tracer)
        .run_full();

    let health = out.tracer.health();
    // Drop the tracer so the buffered JSONL stream is flushed to disk
    // before the audit reads it back.
    drop(out.tracer);

    let online = monitor.report();
    let totals = MonitorTotals::from_run(&online, out.verdicts.as_ref());
    let mut stats = StatsAggregate::default();
    stats.absorb(&out.stats, &health, out.profile.as_ref(), Some(&totals));

    let report = out.report;
    println!(
        "run: {} SDUs generated, {} delivered, throughput {:.3} kbps",
        report.sdus_generated, report.sdus_received, report.throughput_kbps
    );
    println!(
        "trace: {} JSONL lines, lossless = {}",
        health.jsonl_lines,
        health.is_lossless()
    );
    println!(
        "monitors: {} records streamed, {} finding(s), working set peaked at {}",
        online.records_seen,
        online.findings.len(),
        online.peak_tracked
    );
    println!(
        "forensics: {} loss(es) attributed, {} flight snapshot(s) in {}",
        totals.verdicts.total(),
        online.flight_dumps,
        flight_dir.display()
    );

    let description = if routed {
        "Traced routed convergecast reference run with inline audit"
    } else {
        "Traced EW-MAC reference run with inline audit"
    };
    let manifest = RunManifest::new(
        tag,
        description,
        1,
        vec![Protocol::EwMac.name().to_string()],
        &cfg,
        stats,
    )
    .with_latency(
        report.delivery_latency_us.clone(),
        report.e2e_latency_us.clone(),
    )
    .with_trace_file(&trace_name);
    match manifest.write(out_dir) {
        Ok(path) => println!("manifest: {}", path.display()),
        Err(e) => {
            eprintln!("trace_run: cannot write manifest: {e}");
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    if !health.is_lossless() {
        eprintln!("FAIL: trace is lossy: {health:?}");
        failed = true;
    }

    // Audit the file on disk — the same artifact `obs_report check` sees.
    let (records, model) = match read_trace(&trace_path) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::from(1);
        }
    };
    let violations = uasn_audit::check(&model);
    if violations.is_empty() {
        println!(
            "audit: all invariant checks passed over {} records",
            records.len()
        );
    } else {
        eprintln!("FAIL: {} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        failed = true;
    }

    // Online/post-hoc parity: the streaming monitors must have found
    // exactly what the offline replay found — same violations, citing the
    // same records.
    if online.findings == violations {
        println!(
            "parity: online findings match the post-hoc checker ({} each)",
            violations.len()
        );
    } else {
        eprintln!(
            "FAIL: online monitors found {} finding(s), post-hoc checker {}:",
            online.findings.len(),
            violations.len()
        );
        for v in &online.findings {
            eprintln!("  online:   {v}");
        }
        for v in &violations {
            eprintln!("  post-hoc: {v}");
        }
        failed = true;
    }
    if online.flight_io_errors > 0 {
        eprintln!(
            "FAIL: flight recorder hit {} I/O error(s): {}",
            online.flight_io_errors,
            online.flight_error.as_deref().unwrap_or("?")
        );
        failed = true;
    }

    let journeys = reconstruct(&model);
    let hists = PhaseHistograms::from_journeys(&journeys);
    println!(
        "journeys: {} reconstructed, e2e p50/p99 = {}/{} us",
        journeys.len(),
        hists.end_to_end.p50().unwrap_or(0),
        hists.end_to_end.p99().unwrap_or(0)
    );

    if routed {
        // The routed gate is only meaningful if routed traffic actually
        // flowed: an empty path set means the config silently degenerated
        // to single-hop and the loop monitor never saw work.
        let paths = reconstruct_paths(&model);
        let stats = PathStats::from_paths(&paths);
        println!(
            "paths: {} copies, {} delivered, hop p50/max = {}/{}",
            stats.attempted,
            stats.delivered,
            stats.hop_counts.p50().unwrap_or(0),
            stats.hop_counts.max().unwrap_or(0)
        );
        if stats.attempted == 0 || stats.delivered == 0 {
            eprintln!("FAIL: routed run produced no delivered source->sink paths");
            failed = true;
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
