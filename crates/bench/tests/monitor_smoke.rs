//! Monitor smoke suite: every protocol in the roster runs one seeded
//! medium-density cell with the online invariant monitors on, and the
//! suite asserts the observability layer's two core promises end to end:
//!
//! 1. **Clean runs are clean** — the streaming monitors report zero
//!    invariant findings on a healthy simulation, with bounded working
//!    state.
//! 2. **Every run keeps its loss ledger** — the report's
//!    [`drops`](uasn_net::metrics::MetricsReport::drops) histogram is
//!    filled whether or not monitors are attached, identically, and the
//!    report's five loss counts are views of it: `modem-busy ==
//!    tx_dropped`, `no-audible-receiver == unroutable`, and the MAC-layer
//!    verdicts sum to `sdus_dropped`.

use uasn_bench::runner::{master_seed, run_once_monitored};
use uasn_bench::Protocol;
use uasn_net::config::SimConfig;
use uasn_net::metrics::DropVerdict;
use uasn_sim::time::SimDuration;

const ROSTER: [Protocol; 5] = [
    Protocol::SFama,
    Protocol::Ropa,
    Protocol::CsMac,
    Protocol::EwMac,
    Protocol::Aloha,
];

fn smoke_cfg() -> SimConfig {
    SimConfig::paper_default()
        .with_sensors(15)
        .with_offered_load_kbps(0.5)
        .with_sim_time(SimDuration::from_secs(60))
        .with_monitoring(true)
        .with_seed(master_seed(0))
}

#[test]
fn monitored_roster_is_clean_and_verdicts_reconcile() {
    for protocol in ROSTER {
        let (out, monitor) = run_once_monitored(&smoke_cfg(), protocol);
        let monitor = monitor.expect("monitoring was requested");
        let name = protocol.name();

        assert!(
            monitor.findings.is_empty(),
            "{name}: streaming monitors flagged a healthy run: {:?}",
            monitor.findings
        );
        assert!(
            monitor.records_seen > 0,
            "{name}: monitors saw no trace records — the sink is not attached"
        );
        assert_eq!(monitor.skipped, 0, "{name}: monitors skipped records");

        let report = &out.report;
        let drops = report.drops;
        assert_eq!(
            drops.count(DropVerdict::ModemBusy),
            report.tx_dropped,
            "{name}: modem-busy verdicts must equal the tx_dropped count"
        );
        assert_eq!(
            drops.count(DropVerdict::NoAudibleReceiver),
            report.unroutable,
            "{name}: no-audible-receiver verdicts must equal the unroutable count"
        );
        assert_eq!(
            drops.count(DropVerdict::MacDrop)
                + drops.count(DropVerdict::HandshakeTimeout)
                + drops.count(DropVerdict::QueueOverflow),
            report.sdus_dropped,
            "{name}: MAC-layer verdicts must sum to the sdus_dropped count"
        );
    }
}

#[test]
fn unmonitored_runs_keep_the_same_loss_ledger() {
    let mut attributed = 0;
    for protocol in ROSTER {
        let name = protocol.name();
        let (monitored, _) = run_once_monitored(&smoke_cfg(), protocol);
        let (plain, monitor) = run_once_monitored(&smoke_cfg().with_monitoring(false), protocol);
        assert!(
            monitor.is_none(),
            "{name}: monitoring off must not attach monitors"
        );
        assert_eq!(
            plain.report.drops, monitored.report.drops,
            "{name}: the loss ledger must not depend on the monitors"
        );
        attributed += plain.report.drops.total();
    }
    assert!(
        attributed > 0,
        "no roster run attributed a single loss — the ledger is not kept"
    );
}
