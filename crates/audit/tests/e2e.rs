//! End-to-end audit: a real seeded EW-MAC run exported to JSONL must pass
//! every invariant check, and hand-built traces with injected violations
//! must be flagged with the right trace-record pointers.

use std::borrow::Cow;
use std::collections::BTreeMap;

use uasn_audit::journey::{reconstruct, PhaseHistograms};
use uasn_audit::model::{parse_record, ParsedRecord, TraceModel};
use uasn_audit::monitor::{MonitorReport, StreamingMonitor};
use uasn_audit::ViolationKind;
use uasn_baselines::Aloha;
use uasn_ewmac::{EwMac, EwMacConfig};
use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_net::world::{MacFactory, Simulation};
use uasn_net::MetricsReport;
use uasn_sim::time::{SimDuration, SimTime};
use uasn_sim::trace::{
    export_jsonl, field, parse_jsonl, Field, TraceLevel, TraceRecord, TraceSink, Tracer,
};

fn ewmac_jsonl(seed: u64) -> String {
    let cfg = SimConfig {
        sensors: 10,
        sinks: 2,
        seed,
        ..SimConfig::paper_default()
    }
    .with_offered_load_kbps(0.3)
    .with_sim_time(SimDuration::from_secs(120));
    let sim = Simulation::new(cfg, &|id| Box::new(EwMac::new(id, EwMacConfig::default())))
        .expect("valid config")
        .with_tracer(Tracer::capturing(TraceLevel::Debug));
    let (report, tracer) = sim.run_traced();
    assert!(report.sdus_generated > 0, "traffic flowed");
    let health = tracer.health();
    assert!(health.is_lossless(), "capture dropped records: {health:?}");
    let mut out = Vec::new();
    export_jsonl(tracer.records(), &mut out).expect("in-memory export");
    String::from_utf8(out).expect("traces are UTF-8")
}

#[test]
fn seeded_ewmac_run_passes_every_invariant_check() {
    let jsonl = ewmac_jsonl(0xEA5E);
    let records = parse_jsonl(&jsonl).expect("round-trips");
    let model = TraceModel::from_records(&records);

    let run = model.run_info.as_ref().expect("run-info record present");
    assert_eq!(run.protocol, "EW-MAC");
    assert!(run.is_slot_aligned());
    assert!(!run.mobility);
    assert_eq!(model.skipped, 0, "every audit event carries its fields");
    assert!(model.has_frame_detail());

    let violations = uasn_audit::check(&model);
    assert!(
        violations.is_empty(),
        "EW-MAC run must satisfy all invariants, got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

#[test]
fn seeded_ewmac_journeys_reconstruct_with_latency_phases() {
    let jsonl = ewmac_jsonl(0xEA5E);
    let records = parse_jsonl(&jsonl).expect("round-trips");
    let model = TraceModel::from_records(&records);

    let journeys = reconstruct(&model);
    assert!(!journeys.is_empty(), "SDUs were generated");
    let delivered: Vec<_> = journeys.iter().filter(|j| j.delivered()).collect();
    assert!(!delivered.is_empty(), "some SDUs reached a sink");
    for j in &delivered {
        assert!(j.e2e_us.is_some(), "delivered journeys have e2e latency");
        assert!(j.generated_us.is_some());
    }
    // Every delivered journey's sink count is mirrored by the trace.
    let sinks = model
        .events
        .iter()
        .filter(|e| matches!(e, ParsedRecord::Sink(_)))
        .count();
    assert_eq!(delivered.len(), sinks);

    let hists = PhaseHistograms::from_journeys(&journeys);
    assert_eq!(hists.end_to_end.count(), delivered.len() as u64);
    assert!(hists.hop_total.count() > 0, "completed hops measured");
    assert!(
        hists.handshake.count() > 0,
        "EW-MAC hops include an RTS handshake"
    );
    // EW-MAC's negotiated data waits at least one slot boundary after the
    // RTS, so handshake latency is bounded below by a slot.
    let run = model.run_info.as_ref().unwrap();
    assert!(hists.handshake.max().unwrap() >= run.slot_us);
    // Propagation can never beat the channel.
    assert!(hists.propagation.max().unwrap() <= run.tau_max_us);
}

/// The record index and trace tag an event was classified from.
fn index_and_tag(event: &ParsedRecord) -> (usize, &'static str) {
    match event {
        ParsedRecord::Tx(e) => (e.record, "tx"),
        ParsedRecord::Rx(e) => (e.record, "rx"),
        ParsedRecord::RxLost(e) => (e.record, "rx-lost"),
        ParsedRecord::Enq(e) => (e.record, "enq"),
        ParsedRecord::Sink(e) => (e.record, "sink"),
        ParsedRecord::Drop(e) => (e.record, "sdu-drop"),
        ParsedRecord::Route(e) => (e.record, "route"),
        ParsedRecord::Relay(e) => (e.record, "relay"),
        ParsedRecord::RouteDrop(e) if e.terminal => (e.record, "e2e-drop"),
        ParsedRecord::RouteDrop(e) => (e.record, "relay-drop"),
        ParsedRecord::E2eDeliver(e) => (e.record, "e2e-deliver"),
        other => panic!("the event list holds only frame, queue and routing events: {other:?}"),
    }
}

#[test]
fn routed_trace_model_keeps_every_event_once_in_record_order() {
    // The `trace_run --route` reference: a seeded convergecast over a
    // three-layer column with end-to-end transport, traced at Debug.
    let mut cfg = SimConfig::paper_default()
        .with_sensors(20)
        .with_offered_load_kbps(0.5)
        .with_convergecast(30.0, 10.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(240))
        .with_seed(0xEA5E);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 3,
        layer_spacing_m: 1_200.0,
    };
    let sim = Simulation::new(cfg, &|id| Box::new(EwMac::new(id, EwMacConfig::default())))
        .expect("valid config")
        .with_tracer(Tracer::capturing(TraceLevel::Debug));
    let (_, tracer) = sim.run_traced();
    assert!(tracer.health().is_lossless());
    let records = tracer.records();
    let model = TraceModel::from_records(records);
    assert_eq!(model.skipped, 0);
    assert!(model.run_info.is_some());

    // Every classified frame, queue and routing record is stored, once.
    let classified: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|&(i, r)| {
            !matches!(
                parse_record(i, r),
                ParsedRecord::RunInfo(_) | ParsedRecord::Skipped | ParsedRecord::Other
            )
        })
        .map(|(i, _)| i)
        .collect();
    let stored: Vec<usize> = model.events.iter().map(|e| index_and_tag(e).0).collect();
    assert_eq!(stored, classified);
    assert!(
        stored.windows(2).all(|w| w[0] < w[1]),
        "record indices strictly increase"
    );

    // Per tag, the list holds as many events as the trace has records.
    let mut in_trace: BTreeMap<&str, usize> = BTreeMap::new();
    for &i in &classified {
        *in_trace.entry(records[i].tag.as_ref()).or_default() += 1;
    }
    let mut in_model: BTreeMap<&str, usize> = BTreeMap::new();
    for event in &model.events {
        *in_model.entry(index_and_tag(event).1).or_default() += 1;
    }
    assert_eq!(in_model, in_trace);
    for tag in ["tx", "rx", "enq", "sink", "route", "relay", "e2e-deliver"] {
        assert!(in_model.contains_key(tag), "routed trace carries {tag}");
    }
}

#[test]
fn identical_seeds_export_byte_identical_traces() {
    assert_eq!(ewmac_jsonl(0xEA5E), ewmac_jsonl(0xEA5E));
    assert_ne!(ewmac_jsonl(0xEA5E), ewmac_jsonl(0xEA5E + 7919));
}

fn record(time_us: u64, node: Option<usize>, tag: &'static str, fields: Vec<Field>) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_micros(time_us),
        level: TraceLevel::Debug,
        node,
        tag: Cow::Borrowed(tag),
        message: String::new(),
        fields,
    }
}

fn ewmac_run_info() -> TraceRecord {
    record(
        0,
        None,
        "run-info",
        vec![
            field("protocol", "EW-MAC"),
            field("nodes", 4u64),
            field("sinks", 1u64),
            field("bitrate_bps", 12_000.0f64),
            field("omega_us", 5_333u64),
            field("tau_max_us", 1_000_000u64),
            field("slot_us", 1_005_333u64),
            field("mobility", false),
            field("forwarding", true),
        ],
    )
}

fn check_jsonl(records: &[TraceRecord]) -> Vec<uasn_audit::Violation> {
    let mut out = Vec::new();
    export_jsonl(records.iter(), &mut out).expect("in-memory export");
    let jsonl = String::from_utf8(out).expect("UTF-8");
    let parsed = parse_jsonl(&jsonl).expect("round-trips");
    assert_eq!(parsed.len(), records.len());
    uasn_audit::check(&TraceModel::from_records(&parsed))
}

#[test]
fn injected_overlap_and_misalignment_are_flagged_through_jsonl() {
    let rx = |end_us: u64, src: u64, start_us: u64| {
        record(
            end_us,
            Some(1),
            "rx",
            vec![
                field("kind", "Data"),
                field("src", src),
                field("dst", 1u64),
                field("bits", 2_048u64),
                field("start_us", start_us),
                field("prop_us", 100_000u64),
                field("addressed", true),
            ],
        )
    };
    let records = vec![
        ewmac_run_info(),
        // Two decoded receptions at n1 sharing [250ms, 300ms]: the modem
        // should have recorded a collision instead.
        rx(300_000, 2, 100_000),
        rx(400_000, 3, 250_000),
        // An RTS 7 us past the second slot boundary.
        record(
            2 * 1_005_333 + 7,
            Some(2),
            "tx",
            vec![
                field("kind", "RTS"),
                field("dst", 3u64),
                field("bits", 64u64),
                field("dur_us", 5_333u64),
            ],
        ),
    ];
    let violations = check_jsonl(&records);
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::OverlappingReceptions);
    assert_eq!(violations[0].record_index, 2);
    assert!(violations[0].detail.contains("record #1"));
    assert_eq!(violations[1].kind, ViolationKind::SlotMisalignment);
    assert_eq!(violations[1].record_index, 3);
}

#[test]
fn injected_extra_window_intrusion_is_flagged_through_jsonl() {
    // n0's CTS to n1 in slot 0 reserves n0's data reception over
    // [slot1 + pair_delay, + data_dur]; an EXR decoded inside it breaks the
    // paper's non-interference guarantee.
    let pair_delay = 600_000u64;
    let data_dur = 170_667u64;
    let slot = 1_005_333u64;
    let intruder_start = slot + pair_delay + 50_000;
    let records = vec![
        ewmac_run_info(),
        record(
            0,
            Some(0),
            "tx",
            vec![
                field("kind", "CTS"),
                field("dst", 1u64),
                field("bits", 64u64),
                field("dur_us", 5_333u64),
                field("pair_delay_us", pair_delay),
                field("data_dur_us", data_dur),
            ],
        ),
        record(
            intruder_start + 5_333,
            Some(0),
            "rx",
            vec![
                field("kind", "EXR"),
                field("src", 3u64),
                field("dst", 0u64),
                field("bits", 64u64),
                field("start_us", intruder_start),
                field("prop_us", 400_000u64),
                field("addressed", true),
            ],
        ),
    ];
    let violations = check_jsonl(&records);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::ExtraWindowIntrusion);
    assert_eq!(violations[0].record_index, 2);
    assert!(violations[0].detail.contains("record #1"));
    assert!(violations[0].detail.contains("data reception"));
}

/// Hands the wrapped sink only rendered records, as a text-only wrapper
/// sink does: the monitor behind it decodes each one with `parse_record`.
struct TextOnly(Box<dyn TraceSink + Send>);

impl TraceSink for TextOnly {
    fn accept(&mut self, record: &TraceRecord) {
        self.0.accept(record);
    }
}

/// Runs `cfg` with two monitors attached: one fed the world's typed
/// records, one fed their rendered text.
fn typed_and_text_reports(
    cfg: &SimConfig,
    factory: &MacFactory<'_>,
) -> (MetricsReport, MonitorReport, MonitorReport) {
    let typed = StreamingMonitor::new();
    let text = StreamingMonitor::new();
    let tracer = Tracer::new(TraceLevel::Debug)
        .with_sink(typed.sink())
        .with_sink(Box::new(TextOnly(text.sink())));
    let report = Simulation::new(cfg.clone(), factory)
        .expect("valid config")
        .with_tracer(tracer)
        .run();
    (report, typed.report(), text.report())
}

#[test]
fn typed_records_and_their_text_reach_the_monitors_alike() {
    // Mobile cells drift away from the delay estimates EW-MAC schedules
    // extras by, so this run raises extra-window findings; ALOHA adds
    // modem-busy drops, the one record outside the audit schema.
    let cfg = SimConfig::paper_default()
        .with_sensors(30)
        .with_offered_load_kbps(1.5)
        .with_mobility(1.0)
        .with_sim_time(SimDuration::from_secs(300))
        .with_seed(11);
    let (_, typed, text) =
        typed_and_text_reports(&cfg, &|id| Box::new(EwMac::new(id, EwMacConfig::default())));
    assert!(
        !typed.findings.is_empty(),
        "no findings: the comparison would be vacuous"
    );
    assert_eq!(typed, text, "EW-MAC: the typed and the text path disagree");

    let (report, typed, text) = typed_and_text_reports(&cfg, &|id| Box::new(Aloha::new(id)));
    assert!(
        report.tx_dropped > 0,
        "ALOHA: no modem-busy drop was traced"
    );
    assert_eq!(typed, text, "ALOHA: the typed and the text path disagree");
}
