//! End-to-end tests for the multi-hop routing + transport subsystem: the
//! lab determinism contract over a routed convergecast sweep (worker count
//! and kill/resume invisible in the results), loop-freedom of delivered
//! paths, online/post-hoc agreement of the routing-loop monitor over a
//! real simulation trace, and exact reconciliation of transport
//! retry-exhaustion with the end-to-end drop records.

use std::collections::HashSet;
use std::path::PathBuf;

use uasn_audit::invariant::ViolationKind;
use uasn_audit::journey::reconstruct_paths;
use uasn_audit::model::{ParsedRecord, RelayEvent, RouteEvent, TraceModel};
use uasn_audit::monitor::StreamingMonitor;
use uasn_bench::figures::{FigureSpec, Metric};
use uasn_bench::grid::{run_sweep, SweepOptions};
use uasn_bench::{ExperimentRun, Protocol};
use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_net::world::Simulation;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, Tracer, DEFAULT_CAPTURE_CAPACITY};

/// All five paper MACs carry routed traffic in the sweep slice.
static ROUTE_PROTOCOLS: [Protocol; 2] = [Protocol::SFama, Protocol::EwMac];

/// A miniature load x depth slice of the routed sweeps: convergecast
/// rounds over a layered column with reliable transport, axis = layers.
fn route_configure(layers: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(8)
        .with_convergecast(20.0, 5.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(60));
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 1_000.0,
        layers: layers as u32,
        layer_spacing_m: 1_200.0,
    };
    cfg
}

static ROUTE_TINY: FigureSpec = FigureSpec {
    id: "ROUTE-TINY",
    title: "tiny routed convergecast sweep",
    x_label: "sensor layers",
    y_label: "e2e delivery ratio",
    xs: &[2.0, 3.0],
    protocols: &ROUTE_PROTOCOLS,
    configure: route_configure,
    metric: Metric::E2eDeliveryRatio,
    normalized: false,
};

const SEEDS: u64 = 2;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "uasn-route-e2e-{name}-{}.jsonl",
        std::process::id()
    ))
}

fn sweep(opts: SweepOptions) -> Vec<ExperimentRun> {
    let outcome = run_sweep(&[&ROUTE_TINY], &opts).expect("sweep runs");
    assert!(outcome.complete, "sweep completed: {}", outcome.summary);
    assert!(outcome.failed.is_empty());
    outcome.runs
}

fn assert_identical(a: &ExperimentRun, b: &ExperimentRun) {
    assert_eq!(a.figure, b.figure, "figure data diverged");
    assert_eq!(a.figure.to_csv(), b.figure.to_csv(), "CSV bytes diverged");
    assert_eq!(
        a.manifest.e2e_latency_us, b.manifest.e2e_latency_us,
        "merged e2e histograms diverged"
    );
    assert_eq!(a.manifest.stats.runs, b.manifest.stats.runs);
    assert_eq!(
        a.manifest.stats.events_processed,
        b.manifest.stats.events_processed
    );
    assert_eq!(a.manifest.stats.kind_counts, b.manifest.stats.kind_counts);
}

#[test]
fn routed_sweep_is_identical_for_any_worker_count() {
    let serial = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 1,
        ..SweepOptions::default()
    });
    let parallel = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 8,
        ..SweepOptions::default()
    });
    assert_identical(&serial[0], &parallel[0]);
    // The routed metrics are live, not zero-filled: traffic reached sinks.
    let csv = serial[0].figure.to_csv();
    assert!(
        serial[0]
            .figure
            .series
            .iter()
            .flat_map(|s| &s.points)
            .any(|&(_, y, _)| y > 0.0),
        "some cell delivered end-to-end:\n{csv}"
    );
}

#[test]
fn routed_sweep_kill_and_resume_is_invisible() {
    let journal = tmp("resume");
    let _ = std::fs::remove_file(&journal);

    let first = run_sweep(
        &[&ROUTE_TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 2,
            journal: Some(journal.clone()),
            max_cells: Some(3),
            ..SweepOptions::default()
        },
    )
    .expect("interrupted sweep");
    assert!(first.hit_max_cells);
    assert!(!first.complete);
    assert_eq!(first.completed, 3);

    let second = run_sweep(
        &[&ROUTE_TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 2,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(second.complete);
    assert_eq!(
        second.resumed, first.completed,
        "resume skipped the journal"
    );
    assert_eq!(second.resumed + second.completed, ROUTE_TINY.cells(SEEDS));

    let reference = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 1,
        ..SweepOptions::default()
    });
    assert_identical(&reference[0], &second.runs[0]);
    let _ = std::fs::remove_file(&journal);
}

/// One seeded routed run, traced at Debug with the streaming monitors on
/// the same record stream.
fn traced_routed_run(
    cfg: &SimConfig,
) -> (
    uasn_net::world::RunOutput,
    uasn_audit::monitor::MonitorReport,
) {
    let monitor = StreamingMonitor::new();
    let tracer = Tracer::new(TraceLevel::Debug)
        .with_capture(DEFAULT_CAPTURE_CAPACITY)
        .with_sink(monitor.sink());
    let factory = move |id: uasn_net::node::NodeId| Protocol::EwMac.build(id);
    let out = Simulation::new(cfg.clone(), &factory)
        .expect("routed config is valid")
        .with_tracer(tracer)
        .run_full();
    let report = monitor.report();
    (out, report)
}

#[test]
fn streaming_loop_monitor_agrees_with_post_hoc_checker() {
    let cfg = route_configure(3.0).with_seed(0xEA5E);
    let (out, online) = traced_routed_run(&cfg);
    let records = out.tracer.records();
    assert!(!records.is_empty(), "trace captured");
    let model = TraceModel::from_records(records);
    assert!(
        model
            .events
            .iter()
            .any(|e| matches!(e, ParsedRecord::Route(_))),
        "route records captured"
    );

    // Every delivered path is loop-free and TTL-bounded.
    let paths = reconstruct_paths(&model);
    let delivered: Vec<_> = paths.iter().filter(|p| p.delivered.is_some()).collect();
    assert!(!delivered.is_empty(), "traffic reached the sinks");
    let ttl = model
        .run_info
        .as_ref()
        .and_then(|r| r.route_ttl)
        .expect("ttl advertised");
    for path in &delivered {
        let unique: HashSet<_> = path.nodes.iter().collect();
        assert_eq!(
            unique.len(),
            path.nodes.len(),
            "no node revisited on a delivered path: {:?}",
            path.nodes
        );
        assert!(path.hops() <= ttl, "TTL bounds path length");
    }

    // The streaming monitors found exactly what the offline replay found
    // — every invariant, the routing-loop check included.
    assert_eq!(
        online.findings,
        uasn_audit::check(&model),
        "online/post-hoc parity"
    );
    assert_eq!(online.skipped, 0, "no route record lacked fields");
}

#[test]
fn all_five_macs_carry_routed_traffic_loop_free() {
    // Every paper MAC (plus the ALOHA floor) must move multi-hop routed
    // traffic end to end with a clean routing-loop monitor.
    let all = [
        Protocol::EwMac,
        Protocol::SFama,
        Protocol::Ropa,
        Protocol::CsMac,
        Protocol::Aloha,
    ];
    for protocol in all {
        let monitor = StreamingMonitor::new();
        let tracer = Tracer::new(TraceLevel::Info)
            .with_capture(DEFAULT_CAPTURE_CAPACITY)
            .with_sink(monitor.sink());
        let factory = move |id: uasn_net::node::NodeId| protocol.build(id);
        let cfg = route_configure(3.0).with_seed(0xEA5E);
        let out = Simulation::new(cfg, &factory)
            .expect("routed config is valid")
            .with_tracer(tracer)
            .run_full();
        assert!(
            out.report.e2e_delivered > 0,
            "{protocol:?} delivered routed traffic end to end"
        );
        let report = monitor.report();
        assert!(
            report
                .findings
                .iter()
                .all(|v| v.kind != ViolationKind::RoutingLoop),
            "{protocol:?} routed loop-free: {:?}",
            report.findings
        );
    }
}

#[test]
fn retry_exhaustion_reconciles_with_e2e_drop_records() {
    // A TTL too small for the column plus a one-retry transport budget
    // forces both loss classes; every counted loss must have a matching
    // terminal trace record with the right causal reason.
    let mut rc = uasn_route::RouteConfig::greedy().with_ttl(2);
    rc.transport = Some(uasn_route::TransportConfig {
        retry_budget: 1,
        base_timeout_us: 5_000_000,
    });
    let mut cfg = SimConfig::paper_default()
        .with_sensors(10)
        .with_convergecast(20.0, 5.0)
        .with_route(rc)
        .with_sim_time(SimDuration::from_secs(120))
        .with_seed(0xEA5E);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 1_000.0,
        layers: 4,
        layer_spacing_m: 1_200.0,
    };
    let (out, online) = traced_routed_run(&cfg);
    let model = TraceModel::from_records(out.tracer.records());

    let reason_count = |reason: &str, terminal_only: bool| -> u64 {
        model
            .events
            .iter()
            .filter(|e| {
                matches!(e, ParsedRecord::RouteDrop(d)
                    if d.reason == reason && (!terminal_only || d.terminal))
            })
            .count() as u64
    };
    assert!(out.report.retry_dropped > 0, "budget 1 exhausts");
    assert_eq!(
        reason_count("retry-exhausted", true),
        out.report.retry_dropped,
        "every retry-exhausted SDU has exactly one terminal e2e-drop record"
    );
    assert!(out.report.ttl_dropped > 0, "ttl 2 truncates deep paths");
    assert_eq!(
        reason_count("ttl-exhausted", false),
        out.report.ttl_dropped,
        "every TTL loss is traced (relay-drop while retries pend, e2e-drop when final)"
    );
    // The deliberately hostile config still must not create routing loops.
    assert!(
        online
            .findings
            .iter()
            .all(|v| v.kind != ViolationKind::RoutingLoop),
        "depth-monotone forwarding cannot loop: {:?}",
        online.findings
    );
}

/// Terminal `e2e-drop` records that retire two or more open copies of
/// their SDU, replaying the copy lifecycle in record order: a `route`
/// opens a copy, a relay of an unopened copy opens it too, a delivery or
/// copy-level drop closes one, and a terminal drop closes them all.
fn multi_copy_terminal_drops(model: &TraceModel) -> usize {
    let mut open: HashSet<(u64, u64)> = HashSet::new();
    let mut multi = 0;
    for event in &model.events {
        match event {
            ParsedRecord::Route(RouteEvent { sdu, attempt, .. })
            | ParsedRecord::Relay(RelayEvent { sdu, attempt, .. }) => {
                open.insert((*sdu, *attempt));
            }
            ParsedRecord::E2eDeliver(e) => {
                open.remove(&(e.sdu, e.attempt));
            }
            ParsedRecord::RouteDrop(e) if e.terminal => {
                let before = open.len();
                open.retain(|&(id, _)| id != e.sdu);
                multi += usize::from(before - open.len() >= 2);
            }
            ParsedRecord::RouteDrop(e) => {
                if let Some(a) = e.attempt {
                    open.remove(&(e.sdu, a));
                }
            }
            _ => {}
        }
    }
    multi
}

/// Overload with reliable transport: deep MAC queues outlast a short
/// transport timeout, so retries put several copies of an SDU in flight
/// and terminal drops retire more than one of them.
fn overloaded_routed_cfg() -> SimConfig {
    let mut rc = uasn_route::RouteConfig::reliable();
    rc.transport = Some(uasn_route::TransportConfig {
        retry_budget: 2,
        base_timeout_us: 5_000_000,
    });
    let mut cfg = SimConfig::paper_default()
        .with_sensors(20)
        .with_offered_load_kbps(10.0)
        .with_route(rc)
        .with_sim_time(SimDuration::from_secs(300))
        .with_seed(0xEA5E);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 4,
        layer_spacing_m: 1_200.0,
    };
    cfg
}

#[test]
fn overloaded_routed_run_keeps_online_post_hoc_parity() {
    let (out, online) = traced_routed_run(&overloaded_routed_cfg());
    assert!(
        out.tracer.health().is_lossless(),
        "capture kept every record"
    );
    let model = TraceModel::from_records(out.tracer.records());

    let multi = multi_copy_terminal_drops(&model);
    assert!(multi > 0, "some e2e-drop retires two or more open copies");

    let loops = |findings: Vec<uasn_audit::Violation>| -> Vec<_> {
        findings
            .into_iter()
            .filter(|v| v.kind == ViolationKind::RoutingLoop)
            .collect()
    };
    assert_eq!(
        loops(online.findings.clone()),
        loops(uasn_audit::check(&model)),
        "online/post-hoc routing-loop parity"
    );

    let paths = reconstruct_paths(&model);
    let routes: Vec<&RouteEvent> = model
        .events
        .iter()
        .filter_map(|e| match e {
            ParsedRecord::Route(route) => Some(route),
            _ => None,
        })
        .collect();
    assert_eq!(paths.len(), routes.len(), "one path per route record");
    for (path, route) in paths.iter().zip(routes) {
        assert_eq!((path.sdu, path.attempt), (route.sdu, route.attempt));
    }
}

/// SDUs whose trace shows both end-to-end fates, by the order they come
/// in: `(delivered after a terminal drop, terminally dropped after the
/// delivery)`. `e2e-deliver` marks only an SDU's first sink arrival, so
/// each SDU counts once, under the order of its first two fates.
fn double_fates(model: &TraceModel) -> (usize, usize) {
    let mut dropped: HashSet<u64> = HashSet::new();
    let mut delivered: HashSet<u64> = HashSet::new();
    let (mut after_drop, mut after_delivery) = (0, 0);
    for event in &model.events {
        match event {
            ParsedRecord::RouteDrop(e) if e.terminal => {
                let first = dropped.insert(e.sdu);
                after_delivery += usize::from(first && delivered.contains(&e.sdu));
            }
            ParsedRecord::E2eDeliver(e) => {
                delivered.insert(e.sdu);
                after_drop += usize::from(dropped.contains(&e.sdu));
            }
            _ => {}
        }
    }
    (after_drop, after_delivery)
}

/// The routed double fate, read from the product: copies still queued
/// when the transport gives an SDU up reach a sink after its terminal
/// `e2e-drop`, and copies lost after an SDU's first sink arrival close it
/// with a terminal `e2e-drop` too. The SDU table counts each SDU with both
/// fates once, whichever came first (24 + 1 on the overloaded config; the
/// light trace_run `--route` config shows none at seeds 0-39). This pins
/// today's defect: once exhaustion retires every copy of its SDU and a
/// delivered SDU's copies stop dropping end to end, the count is 0 and
/// this test must flip with it.
#[test]
fn routed_double_fates_match_the_sdu_table_count() {
    let (out, _) = traced_routed_run(&overloaded_routed_cfg());
    assert!(
        out.tracer.health().is_lossless(),
        "capture kept every record"
    );
    let model = TraceModel::from_records(out.tracer.records());
    let (after_drop, after_delivery) = double_fates(&model);
    assert_eq!(out.second_fates, (after_drop + after_delivery) as u64);
    assert!(
        after_drop > 0,
        "delivery after the drop shows on this config"
    );
    assert!(
        after_delivery > 0,
        "a drop after the delivery shows on this config"
    );
}

#[test]
fn overloaded_routed_run_pins_engine_counts() {
    // The engine's account of one small overloaded routed run, with every
    // transport attempt timing out (lanes 0–2 of the event queue all
    // fire). The figures were recorded while every event still waited in
    // the heap; where an event waits must not move how many events pop,
    // how deep the queue runs, or which kinds pop. Receptions lost their
    // start event since: 100,237 events fell by exactly the 13,406 that
    // were `rx-start`, every other kind's count stayed, and the two queue
    // depths were read again.
    let mut cfg = SimConfig::paper_default()
        .with_sensors(16)
        .with_offered_load_kbps(80.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(600))
        .with_seed(0x0E4E);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 4,
        layer_spacing_m: 1_200.0,
    };
    let factory = |id: uasn_net::node::NodeId| Protocol::EwMac.build(id);
    let out = Simulation::new(cfg, &factory)
        .expect("routed config is valid")
        .run_full();
    let stats = &out.stats;
    assert_eq!(stats.events_processed, 86_831);
    assert_eq!(stats.peak_queue_depth, 16_655);
    assert_eq!(stats.mean_queue_depth, 11_862.332864990614);
    assert_eq!(
        stats.kind_counts,
        [
            ("start", 1),
            ("slot-start", 597),
            ("traffic", 23_465),
            ("tx-start", 2_187),
            ("tx-end", 2_187),
            ("rx-end", 13_405),
            ("timer", 687),
            ("route-ack", 87),
            ("route-timeout", 44_215),
        ]
    );
    assert_eq!(out.report.retry_dropped, 6_852, "third attempts time out");
}
