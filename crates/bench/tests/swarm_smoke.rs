//! Swarm-scale smoke: a 10 000-node routed simulation must build, run to
//! completion in bounded wall time, keep its Debug trace capture lossless,
//! and stay clean under both the online invariant monitors and the
//! post-hoc audit replay of the exported records.
//!
//! This is the sim-level witness for the spatial-index work: at this node
//! count the O(N) brute-force fan-out scan makes every transmission visit
//! 10 000 candidate receivers, while the grid visits a 27-cell
//! neighbourhood of a few dozen. The CI variant keeps the horizon short so
//! the test stays a smoke check; the `#[ignore]`d variant runs a longer
//! horizon for manual soak runs.

use std::time::Duration;

use uasn_audit::invariant::ViolationKind;
use uasn_audit::model::TraceModel;
use uasn_audit::monitor::{MonitorReport, StreamingMonitor};
use uasn_audit::STREAMED_KINDS;
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::master_seed;
use uasn_net::config::SimConfig;
use uasn_net::node::NodeId;
use uasn_net::topology::Deployment;
use uasn_net::world::{RunOutput, Simulation};
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, Tracer, DEFAULT_CAPTURE_CAPACITY};

/// 10 000 sensors in a wide ten-layer column (≈1 000 nodes per layer at
/// the same per-layer density as the 1k swarm golden), carrying reliable
/// routed Poisson traffic. The layer count is kept low so shallow-origin
/// SDUs can reach the surface sinks within the short horizon.
fn swarm10k_cfg(sim_time_s: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(10_000)
        .with_offered_load_kbps(40.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(sim_time_s))
        .with_seed(master_seed(0));
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 20_000.0,
        layers: 10,
        layer_spacing_m: 450.0,
    };
    cfg
}

/// One traced, monitored run of the swarm cell under EW-MAC.
fn run_monitored(cfg: &SimConfig) -> (RunOutput, MonitorReport) {
    let monitor = StreamingMonitor::new();
    let tracer = Tracer::new(TraceLevel::Debug)
        .with_capture(DEFAULT_CAPTURE_CAPACITY)
        .with_sink(monitor.sink());
    let factory = move |id: NodeId| Protocol::EwMac.build(id);
    let out = Simulation::new(cfg.clone(), &factory)
        .expect("swarm config is valid")
        .with_tracer(tracer)
        .run_full();
    (out, monitor.report())
}

fn assert_swarm_invariants(out: &RunOutput, online: &MonitorReport) {
    assert!(
        out.tracer.health().is_lossless(),
        "swarm trace capture dropped records"
    );
    assert!(out.report.sdus_generated > 0, "traffic was offered");
    assert!(
        out.report.e2e_delivered > 0,
        "routed traffic reached the surface sinks"
    );

    // Online/post-hoc parity: the streaming monitors saw the same record
    // stream the capture retained, so replaying the capture through the
    // offline checker must reproduce their findings exactly.
    let model = TraceModel::from_records(out.tracer.records());
    assert!(!model.route.is_empty(), "route records captured");
    let post_hoc: Vec<_> = uasn_audit::check(&model)
        .into_iter()
        .filter(|v| STREAMED_KINDS.contains(&v.kind))
        .collect();
    assert_eq!(
        online.findings, post_hoc,
        "online monitor findings disagree with the post-hoc checker"
    );
    assert_eq!(online.skipped, 0, "no route record lacked fields");
    assert!(
        online
            .findings
            .iter()
            .all(|v| v.kind != ViolationKind::RoutingLoop),
        "depth-monotone forwarding cannot loop: {:?}",
        online.findings
    );
}

#[test]
fn ten_thousand_node_routed_swarm_completes_and_audits_clean() {
    let cfg = swarm10k_cfg(5);
    let (out, online) = run_monitored(&cfg);
    assert_swarm_invariants(&out, &online);
    // Bounded wall-time smoke: the budget is deliberately generous (debug
    // CI runners are slow) — the test exists to catch the O(N²) regression
    // class, where a 10k-node run stops terminating at all.
    assert!(
        out.stats.wall < Duration::from_secs(600),
        "10k-node smoke blew its wall-time budget: {:?}",
        out.stats.wall
    );
}

#[test]
#[ignore = "soak variant: multi-minute debug runtime; run manually with --ignored"]
fn ten_thousand_node_swarm_soak_long_horizon() {
    let cfg = swarm10k_cfg(10);
    let (out, online) = run_monitored(&cfg);
    assert_swarm_invariants(&out, &online);
}
