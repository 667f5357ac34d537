//! The MAC protocol interface.
//!
//! Protocols (EW-MAC and the baselines) are event-driven state machines
//! plugged into the network simulator through [`MacProtocol`]. The simulator
//! calls them back on slot boundaries, frame receptions/completions, timer
//! expiry, and traffic arrival; protocols respond by queueing
//! [`MacCommand`]s through the [`MacContext`] handle (send a frame at an
//! instant, arm or cancel a timer, charge maintenance cost).
//!
//! The split keeps protocols pure state machines — trivially unit-testable
//! with a scripted context — while the simulator owns physics, collisions,
//! energy, and metrics.

use std::fmt;

use rand::rngs::StdRng;

use uasn_phy::modem::ModemSpec;
use uasn_sim::time::{SimDuration, SimTime};

use crate::node::NodeId;
use crate::packet::{Frame, Sdu};
use crate::slots::{SlotClock, SlotIndex};

/// MAC-chosen identifier for a timer (unique per node, per protocol's own
/// numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// What a protocol asks the simulator to do.
#[derive(Debug, Clone, PartialEq)]
pub enum MacCommand {
    /// Transmit `frame`, starting at `at` (≥ now). The simulator stamps the
    /// frame timestamp and handles propagation/collisions. If the node's
    /// modem is still busy at `at`, the frame is dropped and counted.
    SendFrame {
        /// The frame to send.
        frame: Frame,
        /// Transmit start instant.
        at: SimTime,
    },
    /// Arm a timer that fires [`MacProtocol::on_timer`] at `at`.
    /// Re-arming an armed token replaces its earlier expiry.
    SetTimer {
        /// Expiry instant.
        at: SimTime,
        /// Token handed back on expiry.
        token: TimerToken,
    },
    /// Cancel a previously armed timer (no-op if already fired).
    CancelTimer {
        /// Token of the timer to cancel.
        token: TimerToken,
    },
    /// Report that the protocol gave up on an SDU; the simulator uses this
    /// for loss accounting and batch termination.
    SduDropped {
        /// The dropped SDU's id.
        id: u64,
        /// Why the protocol gave up.
        reason: DropReason,
    },
}

/// Why a MAC protocol terminally gave up on an SDU — the causal
/// classification behind the `sdu-drop` trace event and the drop-forensics
/// verdict histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The retry budget ran out with the last failure in the data/ack
    /// phase: the handshake succeeded but the data never got acknowledged.
    RetryExhausted,
    /// The retry budget ran out with the last failure in the handshake
    /// phase: the peer never answered (no CTS / lost contention).
    HandshakeTimeout,
    /// The SDU was refused at queue admission (bounded-queue protocols).
    QueueOverflow,
}

impl DropReason {
    /// Stable label used in trace `reason` fields.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::RetryExhausted => "retry-exhausted",
            DropReason::HandshakeTimeout => "handshake-timeout",
            DropReason::QueueOverflow => "queue-overflow",
        }
    }
}

/// How much neighbour state a protocol maintains — drives the paper's §5.3
/// overhead/energy accounting, charged by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceProfile {
    /// Neighbour-information scope: what the protocol maintains, and so
    /// what its table upkeep costs.
    pub scope: NeighborInfoScope,
    /// Whether the protocol reads the two-hop tables the oracle install
    /// hands it ([`MacProtocol::install_two_hop`]). A two-hop scope pays
    /// for two-hop upkeep either way; only a reader is given the tables.
    pub reads_two_hop: bool,
    /// Extra bits piggybacked on every transmitted frame (timestamps,
    /// delay announcements — §4.3 "added to all packets").
    pub piggyback_bits: u64,
    /// Period of table re-broadcast, if the protocol refreshes its tables
    /// proactively (ROPA/CS-MAC two-hop refresh). `None` = reactive only.
    pub periodic_refresh: Option<SimDuration>,
    /// Active-listening surcharge, milliwatts per audible neighbour: the
    /// continuous cost of monitoring other nodes' exchanges for
    /// opportunistic windows (§5.2's "power for waiting"). Protocols that
    /// track every neighbour's schedule (two-hop designs) pay much more
    /// than ones that only react to their own failed contentions.
    pub listen_mw_per_neighbor: f64,
}

/// Scope of maintained neighbour information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborInfoScope {
    /// No tables at all (S-FAMA).
    None,
    /// One-hop delays only (EW-MAC).
    OneHop,
    /// One-hop plus each neighbour's neighbourhood (ROPA, CS-MAC).
    TwoHop,
}

impl MaintenanceProfile {
    /// The free profile (S-FAMA: "does not require additional computation
    /// or storage").
    pub fn none() -> Self {
        MaintenanceProfile {
            scope: NeighborInfoScope::None,
            reads_two_hop: false,
            piggyback_bits: 0,
            periodic_refresh: None,
            listen_mw_per_neighbor: 0.0,
        }
    }
}

/// A successfully decoded reception, as presented to the protocol.
///
/// Overheard frames (addressed to someone else) are delivered too — the
/// protocols' core mechanisms depend on overhearing.
#[derive(Debug, Clone, PartialEq)]
pub struct Reception<'a> {
    /// The decoded frame.
    pub frame: &'a Frame,
    /// When the first bit arrived.
    pub arrival_start: SimTime,
    /// Measured propagation delay (`arrival_start − frame.timestamp`) — the
    /// paper's §4.3 delay-learning input.
    pub prop_delay: SimDuration,
}

impl Reception<'_> {
    /// Whether the frame was addressed to `me`.
    pub fn addressed_to(&self, me: NodeId) -> bool {
        self.frame.dst == me
    }
}

/// The per-callback handle protocols use to act on the world.
#[derive(Debug)]
pub struct MacContext<'a> {
    now: SimTime,
    node: NodeId,
    clock: SlotClock,
    spec: ModemSpec,
    control_bits: u32,
    rng: &'a mut StdRng,
    commands: &'a mut Vec<MacCommand>,
}

impl<'a> MacContext<'a> {
    /// Creates a context (called by the simulator, and by protocol unit
    /// tests scripting a node directly).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: SimTime,
        node: NodeId,
        clock: SlotClock,
        spec: ModemSpec,
        control_bits: u32,
        rng: &'a mut StdRng,
        commands: &'a mut Vec<MacCommand>,
    ) -> Self {
        MacContext {
            now,
            node,
            clock,
            spec,
            control_bits,
            rng,
            commands,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The shared slot clock.
    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// The slot containing `now`.
    pub fn current_slot(&self) -> SlotIndex {
        self.clock.slot_of(self.now)
    }

    /// Size of a control packet, bits (Table 2: 64).
    pub fn control_bits(&self) -> u32 {
        self.control_bits
    }

    /// Transmit duration of a `bits`-bit frame on this modem.
    pub fn tx_duration(&self, bits: u32) -> SimDuration {
        self.spec.tx_duration(bits)
    }

    /// The control-packet transmit duration ω.
    pub fn omega(&self) -> SimDuration {
        self.spec.tx_duration(self.control_bits)
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a frame for transmission starting now.
    pub fn send_frame_now(&mut self, frame: Frame) {
        let at = self.now;
        self.commands.push(MacCommand::SendFrame { frame, at });
    }

    /// Queues a frame for transmission starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_frame_at(&mut self, frame: Frame, at: SimTime) {
        assert!(at >= self.now, "cannot transmit in the past");
        self.commands.push(MacCommand::SendFrame { frame, at });
    }

    /// Arms a timer at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime, token: TimerToken) {
        assert!(at >= self.now, "cannot arm a timer in the past");
        self.commands.push(MacCommand::SetTimer { at, token });
    }

    /// Arms a timer `delay` from now.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: TimerToken) {
        let at = self.now + delay;
        self.commands.push(MacCommand::SetTimer { at, token });
    }

    /// Cancels a timer.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.commands.push(MacCommand::CancelTimer { token });
    }

    /// Reports a terminally dropped SDU whose last failure was in the
    /// data/ack phase (the common retry-exhaustion case).
    pub fn report_drop(&mut self, id: u64) {
        self.report_drop_with(id, DropReason::RetryExhausted);
    }

    /// Reports a terminally dropped SDU with an explicit causal reason.
    pub fn report_drop_with(&mut self, id: u64, reason: DropReason) {
        self.commands.push(MacCommand::SduDropped { id, reason });
    }
}

/// A MAC protocol instance bound to one node.
///
/// All methods receive a [`MacContext`]; implementations must be
/// deterministic given the context's RNG stream.
pub trait MacProtocol: fmt::Debug {
    /// Short protocol name for reports ("EW-MAC", "S-FAMA", …).
    fn name(&self) -> &'static str;

    /// The protocol's neighbour-maintenance cost profile (§5.3 accounting).
    fn maintenance(&self) -> MaintenanceProfile;

    /// Called once before the first event.
    fn on_start(&mut self, _ctx: &mut MacContext<'_>) {}

    /// Oracle initialisation standing in for the Hello phase (§4.3): the
    /// true one-hop propagation delays at deployment time. Protocols with
    /// [`NeighborInfoScope::None`] may ignore it.
    fn install_neighbors(&mut self, _neighbors: &[(NodeId, SimDuration)]) {}

    /// Two-hop oracle initialisation (CS-MAC), given only to protocols
    /// whose [`MaintenanceProfile::reads_two_hop`] is set: for each one-hop
    /// neighbour, that neighbour's own delay list.
    fn install_two_hop(&mut self, _tables: &[(NodeId, Vec<(NodeId, SimDuration)>)]) {}

    /// Announces the worst-case timing-error bound of this run (clock error
    /// at both endpoints plus delay-measurement noise). Called once before
    /// the first event when the configured clock model is non-ideal, never
    /// under ideal clocks. Protocols whose safety arguments assume exact
    /// timing (EW-MAC's extra windows) shrink their windows by this bound;
    /// the default ignores it.
    fn install_clock_error(&mut self, _bound: SimDuration) {}

    /// A new slot begins (synchronized network — every node sees the same
    /// boundary).
    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex);

    /// The traffic layer hands the MAC one SDU for `sdu.next_hop`.
    fn on_enqueue(&mut self, ctx: &mut MacContext<'_>, sdu: Sdu);

    /// A frame was successfully decoded (addressed to this node **or**
    /// overheard).
    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>);

    /// This node finished transmitting `frame`.
    fn on_frame_sent(&mut self, _ctx: &mut MacContext<'_>, _frame: &Frame) {}

    /// A timer armed via the context fired.
    fn on_timer(&mut self, _ctx: &mut MacContext<'_>, _token: TimerToken) {}

    /// SDUs accepted but not yet acknowledged-delivered (diagnostics and
    /// batch-mode progress).
    fn queue_len(&self) -> usize;

    /// A short static label for the protocol's current control state
    /// ("idle", "contending", …), consumed by the time-series sampler.
    /// The default suits stateless MACs.
    fn state_label(&self) -> &'static str {
        "-"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn clock() -> SlotClock {
        SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1))
    }

    fn with_ctx<F: FnOnce(&mut MacContext<'_>)>(now: SimTime, f: F) -> Vec<MacCommand> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut commands = Vec::new();
        let mut ctx = MacContext::new(
            now,
            NodeId::new(4),
            clock(),
            ModemSpec::new(12_000.0),
            64,
            &mut rng,
            &mut commands,
        );
        f(&mut ctx);
        commands
    }

    #[test]
    fn context_exposes_clock_and_spec() {
        with_ctx(SimTime::from_secs(3), |ctx| {
            assert_eq!(ctx.node_id(), NodeId::new(4));
            assert_eq!(ctx.current_slot(), 2); // slot len 1.005333 s
            assert_eq!(ctx.omega().as_micros(), 5_333);
            assert_eq!(ctx.tx_duration(2_048).as_micros(), 170_667);
            assert_eq!(ctx.control_bits(), 64);
        });
    }

    #[test]
    fn send_commands_are_queued_in_order() {
        let now = SimTime::from_secs(1);
        let f1 = Frame::control(
            crate::packet::FrameKind::Rts,
            NodeId::new(4),
            NodeId::new(5),
            64,
        );
        let f2 = f1.clone();
        let cmds = with_ctx(now, |ctx| {
            ctx.send_frame_now(f1.clone());
            ctx.send_frame_at(f2.clone(), now + SimDuration::from_secs(1));
        });
        assert_eq!(cmds.len(), 2);
        assert!(matches!(&cmds[0], MacCommand::SendFrame { at, .. } if *at == now));
        assert!(
            matches!(&cmds[1], MacCommand::SendFrame { at, .. } if *at == now + SimDuration::from_secs(1))
        );
    }

    #[test]
    fn timer_commands() {
        let now = SimTime::from_secs(2);
        let cmds = with_ctx(now, |ctx| {
            ctx.set_timer_after(SimDuration::from_millis(500), TimerToken(7));
            ctx.cancel_timer(TimerToken(7));
        });
        assert_eq!(
            cmds,
            vec![
                MacCommand::SetTimer {
                    at: now + SimDuration::from_millis(500),
                    token: TimerToken(7)
                },
                MacCommand::CancelTimer {
                    token: TimerToken(7)
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn sending_in_the_past_panics() {
        let now = SimTime::from_secs(5);
        let f = Frame::control(
            crate::packet::FrameKind::Rts,
            NodeId::new(0),
            NodeId::new(1),
            64,
        );
        with_ctx(now, |ctx| {
            ctx.send_frame_at(f.clone(), SimTime::from_secs(4));
        });
    }

    #[test]
    fn reception_addressing() {
        let f = Frame::control(
            crate::packet::FrameKind::Cts,
            NodeId::new(1),
            NodeId::new(2),
            64,
        );
        let rx = Reception {
            frame: &f,
            arrival_start: SimTime::from_secs(1),
            prop_delay: SimDuration::from_millis(400),
        };
        assert!(rx.addressed_to(NodeId::new(2)));
        assert!(!rx.addressed_to(NodeId::new(3)));
    }

    #[test]
    fn maintenance_profile_none_is_free() {
        let p = MaintenanceProfile::none();
        assert_eq!(p.scope, NeighborInfoScope::None);
        assert_eq!(p.piggyback_bits, 0);
        assert_eq!(p.periodic_refresh, None);
        assert_eq!(p.listen_mw_per_neighbor, 0.0);
    }
}
