//! Monitor smoke suite: every protocol in the roster runs two seeded
//! cells with the online invariant monitors on — a light cell on the
//! paper's range-cutoff channel and a lossy one, with heavier load over a
//! modulation PER channel, where frames die to channel errors, handshakes
//! time out and MAC retries run out — and the suite asserts the
//! observability layer's core promises end to end:
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
//! 3. **Every MAC loss site is exercised** — across the roster, the lossy
//!    cell attributes MAC drops, handshake timeouts and PER losses.
//! 4. **Nothing is heard past the horizon** — on a channel whose link
//!    budget closes far beyond the 1.5 km range τmax is sized for, no
//!    reception's delay exceeds τmax.

use uasn_audit::invariant::ViolationKind;
use uasn_audit::monitor::MonitorReport;
use uasn_bench::runner::{master_seed, run_once_monitored};
use uasn_bench::Protocol;
use uasn_net::config::SimConfig;
use uasn_net::metrics::{DropVerdict, VerdictHistogram};
use uasn_net::RunOutput;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::noise::AmbientNoise;
use uasn_phy::per::{Modulation, PerModel};
use uasn_phy::propagation::{LinkBudget, Spreading, TransmissionLoss};
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

/// Four times the smoke cell's load over a channel whose frames fail by
/// SNR: a 140 dB source with NC-FSK bit errors leaves most links inside
/// the 1.5 km range lossy, so PER draws take frames, RTS/CTS exchanges
/// time out and ALOHA's retries run out.
fn lossy_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(15)
        .with_offered_load_kbps(2.0)
        .with_sim_time(SimDuration::from_secs(200))
        .with_monitoring(true)
        .with_seed(master_seed(0));
    cfg.channel = AcousticChannel::new(
        *cfg.channel.sound(),
        LinkBudget::new(
            140.0,
            TransmissionLoss::new(Spreading::Practical, 10.0),
            AmbientNoise::default(),
            12_000.0,
        ),
        PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        },
        1_500.0,
    );
    cfg
}

/// The horizon cell: a 150 dB source with NC-FSK bit errors closes links
/// well past the 1.5 km horizon that sizes τmax and the slot, so only the
/// horizon keeps frames from decoding beyond it.
fn horizon_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(15)
        .with_offered_load_kbps(2.0)
        .with_sim_time(SimDuration::from_secs(120))
        .with_monitoring(true)
        .with_seed(master_seed(0));
    cfg.channel = AcousticChannel::new(
        *cfg.channel.sound(),
        LinkBudget::new(
            150.0,
            TransmissionLoss::new(Spreading::Practical, 10.0),
            AmbientNoise::default(),
            12_000.0,
        ),
        PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        },
        1_500.0,
    );
    cfg
}

#[test]
fn no_reception_outlasts_tau_max_on_a_long_reach_channel() {
    let cfg = horizon_cfg();
    for protocol in [Protocol::EwMac, Protocol::SFama] {
        let (out, monitor) = run_once_monitored(&cfg, protocol);
        let monitor = monitor.expect("monitoring was requested");
        assert!(
            out.report.data_bits_received > 0,
            "{}: nothing was delivered",
            protocol.name()
        );
        let past_tau_max = monitor
            .findings
            .iter()
            .filter(|v| v.kind == ViolationKind::PropagationInconsistency)
            .count();
        assert_eq!(
            past_tau_max,
            0,
            "{}: receptions decoded past the horizon",
            protocol.name()
        );
    }
}

/// The suite's cells, by name.
fn cells() -> [(&'static str, SimConfig); 2] {
    [("smoke", smoke_cfg()), ("lossy", lossy_cfg())]
}

#[test]
fn monitored_roster_is_clean_and_verdicts_reconcile() {
    for (cell, cfg) in cells() {
        let mut roster_drops = VerdictHistogram::new();
        for protocol in ROSTER {
            let (out, monitor) = run_once_monitored(&cfg, protocol);
            let name = format!("{cell}/{}", protocol.name());
            check_clean_and_reconciled(&name, &out, &monitor.expect("monitoring was requested"));
            roster_drops.merge(&out.report.drops);
        }
        if cell == "lossy" {
            for verdict in [
                DropVerdict::MacDrop,
                DropVerdict::HandshakeTimeout,
                DropVerdict::PerLoss,
            ] {
                assert!(
                    roster_drops.count(verdict) > 0,
                    "the lossy cell attributed no {} loss across the roster",
                    verdict.as_str()
                );
            }
        }
    }
}

/// A monitored run's two promises: no findings, and the report's loss
/// counts read from its ledger.
fn check_clean_and_reconciled(name: &str, out: &RunOutput, monitor: &MonitorReport) {
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

#[test]
fn unmonitored_runs_keep_the_same_loss_ledger() {
    for (cell, cfg) in cells() {
        let mut attributed = 0;
        for protocol in ROSTER {
            let name = format!("{cell}/{}", protocol.name());
            let (monitored, _) = run_once_monitored(&cfg, protocol);
            let (plain, monitor) =
                run_once_monitored(&cfg.clone().with_monitoring(false), protocol);
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
            "{cell}: no roster run attributed a single loss — the ledger is not kept"
        );
    }
}
