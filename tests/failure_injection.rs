//! Failure injection: degrade the channel and the delay knowledge and
//! check every protocol degrades gracefully — delivers less, never wedges,
//! never panics.

use uasn::bench::{run_once, Protocol};
use uasn::net::config::SimConfig;
use uasn::phy::channel::AcousticChannel;
use uasn::phy::noise::AmbientNoise;
use uasn::phy::per::{Modulation, PerModel};
use uasn::phy::propagation::{LinkBudget, Spreading, TransmissionLoss};
use uasn::phy::sound::SoundSpeedProfile;
use uasn::sim::time::SimDuration;

fn all_protocols() -> Vec<Protocol> {
    vec![
        Protocol::EwMac,
        Protocol::SFama,
        Protocol::Ropa,
        Protocol::CsMac,
        Protocol::Aloha,
    ]
}

/// A physically lossy channel: weak source + probabilistic NC-FSK PER, so
/// even in-range control packets die at random.
fn lossy_channel() -> AcousticChannel {
    AcousticChannel::new(
        SoundSpeedProfile::default(),
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
    )
}

#[test]
fn lossy_channel_degrades_but_does_not_wedge() {
    for p in all_protocols() {
        let clean = SimConfig::paper_default()
            .with_sensors(16)
            .with_offered_load_kbps(0.4)
            .with_sim_time(SimDuration::from_secs(120));
        let mut lossy = clean.clone();
        lossy.channel = lossy_channel();

        let clean_report = run_once(&clean, p);
        let lossy_report = run_once(&lossy, p);
        assert!(
            lossy_report.data_bits_received <= clean_report.data_bits_received,
            "{}: loss helped?!",
            p.name()
        );
        // The run still terminates and accounts coherently.
        assert!(lossy_report.total_energy_j > 0.0);
    }
}

#[test]
fn fast_drift_stales_delay_tables_without_deadlock() {
    for p in all_protocols() {
        let cfg = SimConfig::paper_default()
            .with_sensors(16)
            .with_offered_load_kbps(0.4)
            .with_sim_time(SimDuration::from_secs(120))
            .with_mobility(5.0);
        let report = run_once(&cfg, p);
        assert!(
            report.sdus_generated > 0,
            "{}: traffic source died",
            p.name()
        );
        // Stale τ estimates may cost deliveries but must not wedge the MAC:
        // at this light load something always gets through.
        assert!(
            report.data_bits_received > 0,
            "{}: delivered nothing under drift",
            p.name()
        );
    }
}

#[test]
fn saturating_load_is_survivable() {
    // 10x the saturation point: queues overflow into drops, not hangs.
    for p in all_protocols() {
        let cfg = SimConfig::paper_default()
            .with_sensors(16)
            .with_offered_load_kbps(10.0)
            .with_sim_time(SimDuration::from_secs(90));
        let report = run_once(&cfg, p);
        assert!(report.data_bits_received > 0, "{}: collapsed", p.name());
        assert!(
            report.collisions > 0 || report.tx_dropped > 0 || report.sdus_dropped > 0,
            "{}: saturation left no trace",
            p.name()
        );
    }
}

#[test]
fn single_sensor_network_still_works() {
    // Degenerate topology: one sensor, one sink.
    let cfg = SimConfig {
        sensors: 1,
        sinks: 1,
        ..SimConfig::paper_default()
    }
    .with_offered_load_kbps(0.2)
    .with_sim_time(SimDuration::from_secs(120));
    for p in all_protocols() {
        let report = run_once(&cfg, p);
        assert!(
            report.sink_bits_received > 0,
            "{}: even a two-node network failed",
            p.name()
        );
        assert_eq!(
            report.collisions,
            0,
            "{}: collision with one sender?",
            p.name()
        );
    }
}

#[test]
fn surface_multipath_degrades_but_does_not_wedge() {
    // Two-ray reverberation: echoes occupy receivers and corrupt other
    // frames. Throughput must suffer, protocols must keep running, and the
    // accounting must stay coherent.
    for p in all_protocols() {
        let mut clean = SimConfig::paper_default()
            .with_sensors(16)
            .with_offered_load_kbps(0.6)
            .with_sim_time(SimDuration::from_secs(120));
        // Shallow water: deep columns put the bounce path beyond the range
        // and the echoes (correctly) never arrive.
        clean.deployment = uasn::net::topology::Deployment::LayeredColumn {
            extent_m: 2_000.0,
            layers: 3,
            layer_spacing_m: 150.0,
        };
        let mut reverberant = clean.clone();
        reverberant.channel = AcousticChannel::paper_default().with_two_ray(6.0);

        // Average over seeds: single runs are noisy and an echo-perturbed
        // trajectory can get lucky.
        let mut clean_bits = 0u64;
        let mut echo_bits = 0u64;
        for seed in 0..4 {
            clean_bits += run_once(&clean.clone().with_seed(seed), p).data_bits_received;
            let echo_report = run_once(&reverberant.clone().with_seed(seed), p);
            assert!(
                echo_report.data_bits_received > 0,
                "{}: reverberation silenced the network",
                p.name()
            );
            echo_bits += echo_report.data_bits_received;
        }
        assert!(
            echo_bits as f64 <= clean_bits as f64 * 1.15,
            "{}: echoes helped beyond noise: {} vs {}",
            p.name(),
            echo_bits,
            clean_bits
        );
    }
}

#[test]
fn a_threshold_that_closes_inside_the_horizon_is_rejected_as_disconnected() {
    use uasn::net::error::BuildNetworkError;
    use uasn::net::world::Simulation;

    // The paper's link budget under a 37 dB SNR threshold hears less than
    // 1 km, well inside the 1.5 km horizon the geometry is placed for: most
    // sensors hear no shallower node, so no SDU could be routed.
    let mut cfg = SimConfig::paper_default()
        .with_sensors(30)
        .with_offered_load_kbps(0.5)
        .with_sim_time(SimDuration::from_secs(200));
    let paper = AcousticChannel::paper_default();
    cfg.channel = AcousticChannel::new(
        SoundSpeedProfile::default(),
        *paper.budget(),
        PerModel::SnrThreshold { threshold_db: 37.0 },
        paper.max_range_m(),
    );
    let factory = |id| Protocol::EwMac.build(id);
    match Simulation::new(cfg, &factory) {
        Err(BuildNetworkError::Disconnected { stranded }) => assert!(stranded > 0),
        Err(other) => panic!("rejected for the wrong reason: {other}"),
        Ok(_) => panic!("a network whose sensors hear no shallower node was built"),
    }
}
