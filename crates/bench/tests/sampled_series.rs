//! Sampled runs pinned bit for bit, one per roster protocol.
//!
//! The sampler reads every modem at each tick: its busy fraction counts
//! the modems not idle, and its collision column sums the modems' ledgers.
//! So a sampled series pins the modem state at instants between events,
//! not just the end-of-run totals. Each cell runs with a short sample
//! interval and pins the FNV-1a hash of the series' JSON, the decoded
//! receptions (the Debug trace's `rx` records), both loss counters and the
//! energy total's bits.
//!
//! To re-record after an intentional behaviour change, run with
//! `--nocapture` and copy the printed values.

use uasn_bench::protocols::Protocol;
use uasn_bench::runner::master_seed;
use uasn_net::config::SimConfig;
use uasn_net::node::NodeId;
use uasn_net::world::Simulation;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::TraceLevel;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one sampled cell pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    series_hash: u64,
    survivals: usize,
    collisions: u64,
    half_duplex_losses: u64,
    energy_bits: u64,
}

fn sampled(protocol: Protocol) -> Pinned {
    let cfg = SimConfig::paper_default()
        .with_sensors(20)
        .with_offered_load_kbps(3.0)
        .with_sim_time(SimDuration::from_secs(40))
        .with_sample_interval(SimDuration::from_millis(100))
        .with_seed(master_seed(0));
    let factory = move |id: NodeId| protocol.build(id);
    let out = Simulation::new(cfg, &factory)
        .expect("builds")
        .with_tracing(TraceLevel::Debug)
        .run_full();
    assert!(out.tracer.health().is_lossless());
    let series = out.series.expect("sampling enabled");
    assert_eq!(series.len(), 400);
    Pinned {
        series_hash: fnv1a64(series.to_json().to_json().as_bytes()),
        survivals: out.tracer.with_tag("rx").count(),
        collisions: out.report.collisions,
        half_duplex_losses: out.report.half_duplex_losses,
        energy_bits: out.report.total_energy_j.to_bits(),
    }
}

#[test]
fn sampled_series_are_pinned_for_every_protocol() {
    let expected = [
        (
            Protocol::SFama,
            0xc955737e4960a4a7,
            479,
            6,
            1,
            0x40572806b88ba237,
        ),
        (
            Protocol::Ropa,
            0x8c349348d299a2d5,
            535,
            2,
            1,
            0x405a1c5b5c06bc08,
        ),
        (
            Protocol::CsMac,
            0xa812e0e62e148974,
            526,
            8,
            1,
            0x405a44624cf1754f,
        ),
        (
            Protocol::EwMac,
            0xe1b767eba7b7e355,
            652,
            13,
            4,
            0x4059ff9c419f5cab,
        ),
        (
            Protocol::Aloha,
            0x8bffb30ab5494766,
            792,
            128,
            28,
            0x40664f42589a75e6,
        ),
    ];
    let mut drifted = Vec::new();
    for (protocol, series_hash, survivals, collisions, half_duplex_losses, energy_bits) in expected
    {
        let got = sampled(protocol);
        println!(
            "(Protocol::{protocol:?}, {:#018x}, {}, {}, {}, {:#018x}),",
            got.series_hash, got.survivals, got.collisions, got.half_duplex_losses, got.energy_bits
        );
        let want = Pinned {
            series_hash,
            survivals,
            collisions,
            half_duplex_losses,
            energy_bits,
        };
        if got != want {
            drifted.push(protocol.name());
        }
    }
    assert!(drifted.is_empty(), "sampled runs drifted: {drifted:?}");
}
