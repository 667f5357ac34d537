//! Simulation configuration (Table 2 and friends).

use uasn_clock::ClockModelConfig;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::energy::PowerProfile;
use uasn_sim::time::{SimDuration, SimTime};

use crate::error::BuildNetworkError;
use crate::topology::Deployment;
use crate::traffic::TrafficPattern;

/// Mobility settings for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// Whether nodes drift at all (the paper randomly assigns each node one
    /// of static / horizontal / vertical when enabled).
    pub enabled: bool,
    /// Maximum drift speed, m/s.
    pub max_speed_ms: f64,
    /// How often positions are advanced.
    pub update_interval: SimDuration,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            enabled: false,
            max_speed_ms: 0.5,
            update_interval: SimDuration::from_secs(10),
        }
    }
}

/// Full configuration of one simulation run.
///
/// [`SimConfig::paper_default`] reproduces Table 2; builder-style `with_*`
/// methods override individual fields for the sweeps.
///
/// # Examples
///
/// ```
/// use uasn_net::config::SimConfig;
///
/// let cfg = SimConfig::paper_default()
///     .with_sensors(80)
///     .with_offered_load_kbps(0.8)
///     .with_seed(3);
/// assert_eq!(cfg.sensors, 80);
/// cfg.validate().expect("paper defaults are valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of sensor nodes (Table 2: 60).
    pub sensors: u32,
    /// Number of surface sinks.
    pub sinks: u32,
    /// Node placement strategy.
    pub deployment: Deployment,
    /// The acoustic channel.
    pub channel: AcousticChannel,
    /// Link bitrate, bits/s (Table 2: 12 kbps).
    pub bitrate_bps: f64,
    /// Control packet size, bits (Table 2: 64).
    pub control_bits: u32,
    /// Data packet size, bits (Table 2: 2048, swept 1024–4096).
    pub data_bits: u32,
    /// Traffic injection.
    pub traffic: TrafficPattern,
    /// Observation window (Table 2: 300 s).
    pub sim_time: SimDuration,
    /// Hard cap for batch runs that never complete.
    pub max_time: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Mobility settings.
    pub mobility: MobilityConfig,
    /// Modem power profile.
    pub power: PowerProfile,
    /// When `true`, neighbour tables start empty and nodes learn delays
    /// from an in-simulation Hello phase (§4.3) — staggered beacons in the
    /// opening slots — instead of the oracle installation. Two-hop views
    /// are then never oracle-perfect, which notably disarms CS-MAC's
    /// stealing (it requires cross-delay knowledge).
    pub hello_init: bool,
    /// When set, each generated SDU draws its payload uniformly from
    /// `[min, max]` bits instead of the fixed `data_bits` (§4.3: "data
    /// packets are not bound by a fixed data size").
    pub data_bits_range: Option<(u32, u32)>,
    /// When set, the world schedules a periodic sampler that snapshots
    /// per-node queue depth, MAC state, channel occupancy, and the
    /// cumulative metric counters every `sample_interval`, exposing the
    /// series through [`crate::world::RunOutput`]. `None` (the default)
    /// adds no events, so the seed event stream — and therefore every
    /// seeded run — is byte-for-byte unchanged.
    pub sample_interval: Option<SimDuration>,
    /// Per-node clock model. [`ClockModelConfig::ideal`] (the default)
    /// reproduces the paper's perfect-synchronization assumption: no RNG
    /// streams are drawn, no events added, and every seeded run is
    /// byte-for-byte identical to a build without the clock subsystem.
    pub clock: ClockModelConfig,
    /// Guard band appended to every slot (|ts| = ω + τmax + guard) to
    /// absorb clock error at slot boundaries. Zero (the default) is the
    /// paper's slot length.
    pub slot_guard: SimDuration,
    /// When `true`, the run is instrumented for performance observability:
    /// the engine attributes wall time to each event kind's handler, the
    /// world records fan-out/queue-depth distributions and link-cache
    /// counters, and [`crate::world::RunOutput::profile`] carries the
    /// resulting report. `false` (the default) records nothing and
    /// allocates nothing. The instrumentation reads only the wall clock —
    /// never RNG streams or the event queue — so seeded runs are
    /// byte-for-byte identical with it on or off.
    pub profile: bool,
    /// Multi-hop routing + end-to-end transport. Every run forwards each
    /// SDU hop by hop toward the surface (Figure 1), choosing among the
    /// uphill candidates of [`crate::routing::uphill_candidates`].
    /// `None` (the default) chooses greedily
    /// ([`uasn_route::ForwardPolicy::Greedy`]) with no hop counting, no
    /// extra events, no extra RNG draws and no routing trace records —
    /// every seeded run is byte-for-byte identical to a build without the
    /// routing subsystem. `Some` chooses by the configured
    /// [`uasn_route::ForwardPolicy`] with a hop-count TTL, emits the
    /// `route`/`relay`/`e2e-deliver`/`e2e-drop` trace records, and (when
    /// [`uasn_route::RouteConfig::transport`] is set) arms origin-side
    /// retransmission against sink acks.
    pub route: Option<uasn_route::RouteConfig>,
    /// When `true`, the run is instrumented for online observability: the
    /// world attributes a causal [`crate::metrics::DropVerdict`] to every
    /// lost SDU and [`crate::world::RunOutput::verdicts`] carries the
    /// mergeable per-verdict histogram (harnesses additionally attach
    /// streaming invariant monitors to the tracer). `false` (the default)
    /// records nothing and allocates nothing on the hot path. Attribution
    /// only observes drops the simulation already decided — never RNG
    /// streams or the event queue — so seeded runs are byte-for-byte
    /// identical with it on or off.
    pub monitor: bool,
}

impl SimConfig {
    /// Table 2 defaults: 60 sensors + 3 sinks in the layered column,
    /// 12 kbps, 1.5 km range/1.5 km/s (via [`AcousticChannel::paper_default`]),
    /// 64-bit control, 2048-bit data, 300 s, offered load 0.5 kbps.
    pub fn paper_default() -> Self {
        SimConfig {
            sensors: 60,
            sinks: 3,
            deployment: Deployment::paper_column(),
            channel: AcousticChannel::paper_default(),
            bitrate_bps: 12_000.0,
            control_bits: 64,
            data_bits: 2_048,
            traffic: TrafficPattern::Poisson {
                offered_load_kbps: 0.5,
            },
            sim_time: SimDuration::from_secs(300),
            max_time: SimDuration::from_secs(3_000),
            seed: 1,
            mobility: MobilityConfig::default(),
            power: PowerProfile::default(),
            hello_init: false,
            data_bits_range: None,
            sample_interval: None,
            clock: ClockModelConfig::ideal(),
            slot_guard: SimDuration::ZERO,
            route: None,
            profile: false,
            monitor: false,
        }
    }

    /// Sets the sensor count.
    pub fn with_sensors(mut self, sensors: u32) -> Self {
        self.sensors = sensors;
        self
    }

    /// Sets the Poisson offered load (kbps network-wide).
    pub fn with_offered_load_kbps(mut self, load: f64) -> Self {
        self.traffic = TrafficPattern::Poisson {
            offered_load_kbps: load,
        };
        self
    }

    /// Switches to batch traffic equivalent to `load` kbps (Figure 8): the
    /// packet count follows the paper's conversion over the full
    /// observation window, but the arrivals burst into the first ~20 s so
    /// the completion time measures how fast the protocol drains the work,
    /// not the arrival process.
    pub fn with_batch_load_kbps(mut self, load: f64) -> Self {
        let TrafficPattern::Batch { total_packets, .. } =
            TrafficPattern::batch_for_load(load, self.sim_time, self.data_bits)
        else {
            unreachable!("batch_for_load builds a batch");
        };
        self.traffic = TrafficPattern::Batch {
            total_packets,
            window: SimDuration::from_secs(20).min(self.sim_time),
        };
        self
    }

    /// Sets the data packet size in bits.
    pub fn with_data_bits(mut self, bits: u32) -> Self {
        self.data_bits = bits;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the paper's random per-node mobility at up to
    /// `max_speed_ms`.
    pub fn with_mobility(mut self, max_speed_ms: f64) -> Self {
        self.mobility = MobilityConfig {
            enabled: true,
            max_speed_ms,
            ..self.mobility
        };
        self
    }

    /// Sets the observation window.
    pub fn with_sim_time(mut self, t: SimDuration) -> Self {
        self.sim_time = t;
        self
    }

    /// Replaces the oracle neighbour installation with an in-simulation
    /// Hello phase (§4.3).
    pub fn with_hello_init(mut self) -> Self {
        self.hello_init = true;
        self
    }

    /// Draws each SDU's size uniformly from `[min, max]` bits.
    pub fn with_data_bits_range(mut self, min: u32, max: u32) -> Self {
        self.data_bits_range = Some((min, max));
        self
    }

    /// Enables the periodic time-series sampler at `interval`.
    pub fn with_sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// Enables (or disables) performance-observability instrumentation for
    /// the run; see [`SimConfig::profile`].
    pub fn with_profiling(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Enables (or disables) online observability — per-SDU drop
    /// forensics — for the run; see [`SimConfig::monitor`].
    pub fn with_monitoring(mut self, monitor: bool) -> Self {
        self.monitor = monitor;
        self
    }

    /// Installs a full per-node clock model (offset, skew, jitter,
    /// measurement noise, optional resync).
    pub fn with_clock_model(mut self, clock: ClockModelConfig) -> Self {
        self.clock = clock;
        self
    }

    /// Shorthand for the sensitivity sweeps: the representative
    /// [`ClockModelConfig::drifting`] model at `skew_ppm`.
    pub fn with_clock_drift(mut self, skew_ppm: f64) -> Self {
        self.clock = ClockModelConfig::drifting(skew_ppm);
        self
    }

    /// Appends `guard` to every slot (|ts| = ω + τmax + guard).
    pub fn with_slot_guard(mut self, guard: SimDuration) -> Self {
        self.slot_guard = guard;
        self
    }

    /// Installs a full routing + transport configuration; see
    /// [`SimConfig::route`].
    pub fn with_route(mut self, route: uasn_route::RouteConfig) -> Self {
        self.route = Some(route);
        self
    }

    /// Shorthand: greedy depth routing at the default TTL, no transport —
    /// the same per-hop choices as a run without routing, plus hop
    /// counting and the routing trace records.
    pub fn with_routing(self) -> Self {
        self.with_route(uasn_route::RouteConfig::greedy())
    }

    /// Shorthand: greedy depth routing with the default end-to-end
    /// transport (sink acks, retry budget).
    pub fn with_reliable_route(self) -> Self {
        self.with_route(uasn_route::RouteConfig::reliable())
    }

    /// Switches to bursty on/off traffic at `load` kbps mean offered load;
    /// see [`crate::traffic::TrafficPattern::BurstyOnOff`].
    pub fn with_bursty_load_kbps(mut self, load: f64, on_s: f64, off_s: f64) -> Self {
        self.traffic = TrafficPattern::BurstyOnOff {
            offered_load_kbps: load,
            on_s,
            off_s,
        };
        self
    }

    /// Switches to convergecast rounds: one SDU per sensor per `period_s`,
    /// jittered over `[0, jitter_s)`; see
    /// [`crate::traffic::TrafficPattern::Convergecast`].
    pub fn with_convergecast(mut self, period_s: f64, jitter_s: f64) -> Self {
        self.traffic = TrafficPattern::Convergecast { period_s, jitter_s };
        self
    }

    /// The worst-case per-node |local − global| clock error this
    /// configuration can produce over its own observation window. Zero for
    /// the ideal model.
    pub fn clock_error_bound(&self) -> SimDuration {
        self.clock.worst_case_error(self.sim_time)
    }

    /// The simulation horizon as an instant.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.sim_time
    }

    /// Total node count.
    pub fn total_nodes(&self) -> u32 {
        self.sensors + self.sinks
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError::InvalidConfig`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), BuildNetworkError> {
        fn bad(field: &'static str, reason: impl Into<String>) -> BuildNetworkError {
            BuildNetworkError::InvalidConfig {
                field,
                reason: reason.into(),
            }
        }
        if self.sensors == 0 {
            return Err(bad("sensors", "must be at least 1"));
        }
        if self.sinks == 0 {
            return Err(bad("sinks", "must be at least 1"));
        }
        if !(self.bitrate_bps.is_finite() && self.bitrate_bps > 0.0) {
            return Err(bad("bitrate_bps", "must be finite and positive"));
        }
        if self.control_bits == 0 {
            return Err(bad("control_bits", "must be positive"));
        }
        if self.data_bits == 0 {
            return Err(bad("data_bits", "must be positive"));
        }
        if self.data_bits < self.control_bits {
            return Err(bad(
                "data_bits",
                "data packets must be at least control-packet sized",
            ));
        }
        if self.sim_time.is_zero() {
            return Err(bad("sim_time", "must be positive"));
        }
        if self.max_time < self.sim_time {
            return Err(bad("max_time", "must be at least sim_time"));
        }
        match self.traffic {
            TrafficPattern::Poisson { offered_load_kbps } => {
                if !(offered_load_kbps.is_finite() && offered_load_kbps > 0.0) {
                    return Err(bad("traffic", "offered load must be finite and positive"));
                }
            }
            TrafficPattern::Batch {
                total_packets,
                window,
            } => {
                if total_packets == 0 {
                    return Err(bad("traffic", "batch must contain at least one packet"));
                }
                if window > self.max_time {
                    return Err(bad("traffic", "batch window exceeds max_time"));
                }
            }
            TrafficPattern::BurstyOnOff {
                offered_load_kbps,
                on_s,
                off_s,
            } => {
                if !(offered_load_kbps.is_finite() && offered_load_kbps > 0.0) {
                    return Err(bad("traffic", "offered load must be finite and positive"));
                }
                if !(on_s.is_finite() && on_s > 0.0) {
                    return Err(bad("traffic", "burst on-time must be finite and positive"));
                }
                if !(off_s.is_finite() && off_s > 0.0) {
                    return Err(bad("traffic", "burst off-time must be finite and positive"));
                }
            }
            TrafficPattern::Convergecast { period_s, jitter_s } => {
                if !(period_s.is_finite() && period_s > 0.0) {
                    return Err(bad("traffic", "round period must be finite and positive"));
                }
                if !(jitter_s.is_finite() && jitter_s >= 0.0 && jitter_s < period_s) {
                    return Err(bad("traffic", "round jitter must lie in [0, period)"));
                }
            }
        }
        if let Some(route) = &self.route {
            route
                .validate()
                .map_err(|(field, reason)| bad(field, reason))?;
        }
        if let Some((min, max)) = self.data_bits_range {
            if min == 0 || max < min {
                return Err(bad("data_bits_range", "need 0 < min <= max"));
            }
            if min < self.control_bits {
                return Err(bad(
                    "data_bits_range",
                    "data packets must be at least control-packet sized",
                ));
            }
        }
        if let Some(interval) = self.sample_interval {
            if interval.is_zero() {
                return Err(bad("sample_interval", "must be positive when set"));
            }
        }
        if self.mobility.enabled {
            if !(self.mobility.max_speed_ms.is_finite() && self.mobility.max_speed_ms > 0.0) {
                return Err(bad("mobility", "max speed must be finite and positive"));
            }
            if self.mobility.update_interval.is_zero() {
                return Err(bad("mobility", "update interval must be positive"));
            }
        }
        self.clock
            .validate()
            .map_err(|reason| bad("clock", reason))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_table2() {
        let cfg = SimConfig::paper_default();
        cfg.validate().expect("valid");
        assert_eq!(cfg.sensors, 60);
        assert_eq!(cfg.bitrate_bps, 12_000.0);
        assert_eq!(cfg.control_bits, 64);
        assert_eq!(cfg.data_bits, 2_048);
        assert_eq!(cfg.sim_time, SimDuration::from_secs(300));
        assert_eq!(cfg.channel.max_range_m(), 1_500.0);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = SimConfig::paper_default()
            .with_sensors(140)
            .with_offered_load_kbps(0.8)
            .with_data_bits(4_096)
            .with_seed(9)
            .with_mobility(0.5);
        assert_eq!(cfg.sensors, 140);
        assert_eq!(cfg.data_bits, 4_096);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.mobility.enabled);
        match cfg.traffic {
            TrafficPattern::Poisson { offered_load_kbps } => {
                assert_eq!(offered_load_kbps, 0.8)
            }
            _ => unreachable!(),
        }
        cfg.validate().expect("valid");
    }

    #[test]
    fn batch_builder_uses_paper_conversion() {
        let cfg = SimConfig::paper_default().with_batch_load_kbps(0.136);
        match cfg.traffic {
            TrafficPattern::Batch { total_packets, .. } => assert_eq!(total_packets, 20),
            _ => unreachable!(),
        }
        cfg.validate().expect("valid");
    }

    #[test]
    fn invalid_fields_are_named() {
        let assert_field = |cfg: SimConfig, field: &str| {
            match cfg.validate() {
                Err(BuildNetworkError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field)
                }
                other => panic!("expected invalid `{field}`, got {other:?}"),
            };
        };
        assert_field(SimConfig::paper_default().with_sensors(0), "sensors");
        assert_field(
            SimConfig {
                sinks: 0,
                ..SimConfig::paper_default()
            },
            "sinks",
        );
        assert_field(
            SimConfig {
                bitrate_bps: 0.0,
                ..SimConfig::paper_default()
            },
            "bitrate_bps",
        );
        assert_field(SimConfig::paper_default().with_data_bits(0), "data_bits");
        assert_field(
            SimConfig::paper_default().with_offered_load_kbps(-1.0),
            "traffic",
        );
        assert_field(
            SimConfig {
                max_time: SimDuration::from_secs(1),
                ..SimConfig::paper_default()
            },
            "max_time",
        );
        assert_field(SimConfig::paper_default().with_data_bits(32), "data_bits");
    }

    #[test]
    fn clock_defaults_are_ideal_and_invalid_models_are_named() {
        let cfg = SimConfig::paper_default();
        assert!(cfg.clock.is_ideal());
        assert!(cfg.slot_guard.is_zero());
        assert!(cfg.clock_error_bound().is_zero());

        let drifting = SimConfig::paper_default()
            .with_clock_drift(100.0)
            .with_slot_guard(SimDuration::from_millis(20));
        drifting.validate().expect("valid");
        assert!(!drifting.clock.is_ideal());
        assert!(!drifting.clock_error_bound().is_zero());

        let mut bad_clock = SimConfig::paper_default().with_clock_drift(50.0);
        bad_clock.clock.skew_ppm = f64::NAN;
        match bad_clock.validate() {
            Err(BuildNetworkError::InvalidConfig { field, .. }) => assert_eq!(field, "clock"),
            other => panic!("expected invalid clock, got {other:?}"),
        }
    }

    #[test]
    fn route_defaults_off_and_builders_install_it() {
        let cfg = SimConfig::paper_default();
        assert!(cfg.route.is_none(), "routing must default off");

        let routed = SimConfig::paper_default().with_routing();
        let route = routed.route.expect("routing installed");
        assert_eq!(route.policy, uasn_route::ForwardPolicy::Greedy);
        assert_eq!(route.ttl, uasn_route::DEFAULT_TTL);
        assert!(route.transport.is_none());
        routed.validate().expect("valid");

        let reliable = SimConfig::paper_default().with_reliable_route();
        assert!(reliable.route.expect("installed").transport.is_some());

        let mut bad = SimConfig::paper_default()
            .with_routing()
            .route
            .expect("installed");
        bad.ttl = 0;
        let cfg = SimConfig::paper_default().with_route(bad);
        match cfg.validate() {
            Err(BuildNetworkError::InvalidConfig { field, .. }) => {
                assert_eq!(field, "route.ttl")
            }
            other => panic!("expected invalid route.ttl, got {other:?}"),
        }
    }

    #[test]
    fn heavy_traffic_patterns_validate() {
        let bursty = SimConfig::paper_default().with_bursty_load_kbps(0.8, 10.0, 30.0);
        bursty.validate().expect("valid bursty");
        let cc = SimConfig::paper_default().with_convergecast(60.0, 5.0);
        cc.validate().expect("valid convergecast");

        let assert_traffic_invalid = |cfg: SimConfig| match cfg.validate() {
            Err(BuildNetworkError::InvalidConfig { field, .. }) => assert_eq!(field, "traffic"),
            other => panic!("expected invalid traffic, got {other:?}"),
        };
        assert_traffic_invalid(SimConfig::paper_default().with_bursty_load_kbps(0.0, 10.0, 30.0));
        assert_traffic_invalid(SimConfig::paper_default().with_bursty_load_kbps(0.8, 0.0, 30.0));
        assert_traffic_invalid(SimConfig::paper_default().with_bursty_load_kbps(0.8, 10.0, -1.0));
        assert_traffic_invalid(SimConfig::paper_default().with_convergecast(0.0, 0.0));
        assert_traffic_invalid(SimConfig::paper_default().with_convergecast(60.0, 60.0));
    }

    #[test]
    fn horizon_and_totals() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.horizon(), SimTime::from_secs(300));
        assert_eq!(cfg.total_nodes(), 63);
    }
}
