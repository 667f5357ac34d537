//! The traced pass measures the program it claims to: the outside-in
//! instruments change nothing they wrap. On every protocol of the
//! golden-trace roster, a monitored run through `TimedMac` and `TimedSink`
//! exports the same Debug trace bytes (whose hash is the committed sparse
//! golden), the same report and the same monitor findings as a plain run,
//! and the benchmark's traced simulation digests equal to its untraced one.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use uasn_audit::monitor::{MonitorReport, StreamingMonitor};
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::master_seed;
use uasn_benchmark::digest::{report_digest, Fnv};
use uasn_benchmark::probe::{CallTally, MacTally, SpanLog, TimedMac, TimedSink};
use uasn_benchmark::traced::traced_sim;
use uasn_benchmark::workload::{run_untraced, SimSpec};
use uasn_net::config::SimConfig;
use uasn_net::mac::MacProtocol;
use uasn_net::node::NodeId;
use uasn_net::world::Simulation;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, Tracer, DEFAULT_CAPTURE_CAPACITY};

/// The golden-trace roster: the paper protocol plus every baseline.
const ROSTER: [(Protocol, &str); 5] = [
    (Protocol::SFama, "sfama"),
    (Protocol::Ropa, "ropa"),
    (Protocol::CsMac, "csmac"),
    (Protocol::EwMac, "ewmac"),
    (Protocol::Aloha, "aloha"),
];

/// The sparse golden cell of `uasn-bench`'s golden-trace suite.
fn small_cfg() -> SimConfig {
    SimConfig::paper_default()
        .with_sensors(10)
        .with_offered_load_kbps(0.5)
        .with_sim_time(SimDuration::from_secs(40))
        .with_seed(master_seed(0))
}

fn sparse_golden(slug: &str) -> u64 {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/bench/tests/goldens/trace_hashes_sparse.txt");
    let text = std::fs::read_to_string(&path).expect("sparse goldens are committed");
    let name = format!("{slug}-sparse");
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, h)| u64::from_str_radix(h.trim(), 16).expect("golden hash is hex"))
        .unwrap_or_else(|| panic!("no golden for {name}"))
}

struct Observed {
    trace: Vec<u8>,
    report: u64,
    monitor: MonitorReport,
}

/// One monitored run, plain or through both decorators.
fn observe(protocol: Protocol, decorated: bool) -> (Observed, MacTally, CallTally) {
    let tally = Rc::new(RefCell::new(MacTally::default()));
    let published = Arc::new(Mutex::new(CallTally::default()));
    let factory = |id: NodeId| -> Box<dyn MacProtocol> {
        let mac = protocol.build(id);
        if decorated {
            Box::new(TimedMac::new(mac, Rc::clone(&tally)))
        } else {
            mac
        }
    };
    let monitor = StreamingMonitor::new();
    let sink = if decorated {
        Box::new(TimedSink::new(monitor.sink(), Arc::clone(&published)))
    } else {
        monitor.sink()
    };
    let out = Simulation::new(small_cfg().with_monitoring(true), &factory)
        .expect("the golden cell builds")
        .with_tracer(
            Tracer::new(TraceLevel::Debug)
                .with_capture(DEFAULT_CAPTURE_CAPACITY)
                .with_sink(sink),
        )
        .run_full();
    assert!(out.tracer.health().is_lossless());
    let mut trace = Vec::new();
    out.tracer
        .export_jsonl(&mut trace)
        .expect("in-memory export");
    let report = report_digest(&out.report);
    drop(out); // drops the sink decorator, which publishes its tally
    let observed = Observed {
        trace,
        report,
        monitor: monitor.report(),
    };
    let sink_tally = published.lock().expect("tally lock").clone();
    let mac_tally = tally.borrow().clone();
    (observed, mac_tally, sink_tally)
}

#[test]
fn decorators_leave_traces_reports_and_findings_identical() {
    for (protocol, slug) in ROSTER {
        let (plain, ..) = observe(protocol, false);
        let (timed, mac, sink) = observe(protocol, true);
        assert!(
            plain.trace == timed.trace,
            "{slug}: decorated trace differs"
        );
        let mut hash = Fnv::default();
        hash.bytes(&timed.trace);
        assert_eq!(hash.finish(), sparse_golden(slug), "{slug}: golden hash");
        assert_eq!(plain.report, timed.report, "{slug}: report digest");
        assert_eq!(plain.monitor, timed.monitor, "{slug}: monitor report");
        assert!(mac.total_calls() > 0, "{slug}: TimedMac saw no calls");
        assert_eq!(
            sink.calls, timed.monitor.records_seen,
            "{slug}: TimedSink forwards every record"
        );
    }
}

#[test]
fn traced_simulation_digests_like_the_untraced_one() {
    for (protocol, slug) in ROSTER {
        for monitored in [false, true] {
            let spec = SimSpec::new(small_cfg().with_monitoring(monitored), protocol, 0);
            let plain = run_untraced(&spec);
            let log = SpanLog::new("test");
            let (traced, probe) = traced_sim(&spec, &log, 0, "sim");
            assert_eq!(plain.problem, None, "{slug}: untraced run failed");
            assert_eq!(traced.problem, None, "{slug}: traced run failed");
            assert_eq!(plain.digest, traced.digest, "{slug}: digests differ");
            let (probe, _) = probe.expect("a good traced run yields a probe");
            assert_eq!(probe.sink.calls > 0, monitored, "{slug}: sink calls");
            let names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
            assert_eq!(names, ["sim", "build", "loop"], "{slug}: span levels");
        }
    }
}
