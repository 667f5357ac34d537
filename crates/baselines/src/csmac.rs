//! CS-MAC — the Channel Stealing MAC (Chen et al., OCEANS 2011), as
//! characterised in §5 of the paper: *"a neighbor forces utilization of the
//! waiting resources by directly sending data packets when it knows the
//! wait time is sufficient"* — no extra negotiation, just a computed gap
//! and a direct data transmission, validated only against the overheard
//! pair (never against the receiver's other neighbours). That omission is
//! CS-MAC's defining trade-off: cheapest reuse at low load, growing
//! interference (and collapsing throughput) past ~0.8 kbps offered load
//! (Fig 6). CS-MAC carries two-hop neighbour information in its control
//! packets, which the paper charges heavily in §5.3.

use std::sync::Arc;

use uasn_net::mac::{
    DropReason, MacContext, MacProtocol, MaintenanceProfile, NeighborInfoScope, Reception,
    TimerToken,
};
use uasn_net::neighbor::{snapshot_of, TwoHopTable};
use uasn_net::node::NodeId;
use uasn_net::packet::{Frame, FrameKind, Sdu};
use uasn_net::slots::SlotIndex;
use uasn_net::slotted::{CoreConfig, CoreEvent, CoreRole, OverheardInfo, SlottedCore};
use uasn_sim::time::{SimDuration, SimTime};

/// The Ack for a stolen transmission never arrived.
const TIMER_STEAL_ACK: TimerToken = TimerToken(20);

/// The CS-MAC instance bound to one node.
///
/// # Examples
///
/// ```
/// use uasn_baselines::CsMac;
/// use uasn_net::mac::MacProtocol;
/// use uasn_net::node::NodeId;
///
/// let mac = CsMac::new(NodeId::new(0));
/// assert_eq!(mac.name(), "CS-MAC");
/// ```
#[derive(Debug)]
pub struct CsMac {
    core: SlottedCore,
    two_hop: TwoHopTable,
    /// A stolen transmission is in flight, awaiting its Ack.
    stealing: bool,
    guard: SimDuration,
    steals_attempted: u64,
    steals_succeeded: u64,
}

impl CsMac {
    /// Creates a CS-MAC instance for node `id`.
    pub fn new(id: NodeId) -> Self {
        CsMac {
            core: SlottedCore::new(
                id,
                CoreConfig {
                    announce_delays: true,
                    announce_table: true,
                    ..CoreConfig::default()
                },
            ),
            two_hop: TwoHopTable::new(),
            stealing: false,
            guard: SimDuration::from_millis(2),
            steals_attempted: 0,
            steals_succeeded: 0,
        }
    }

    fn id(&self) -> NodeId {
        self.core.id
    }

    /// Steal attempts so far (diagnostics).
    pub fn steals_attempted(&self) -> u64 {
        self.steals_attempted
    }

    /// Steals acknowledged so far (diagnostics).
    pub fn steals_succeeded(&self) -> u64 {
        self.steals_succeeded
    }

    /// Decide whether to steal the channel on an overheard negotiation.
    ///
    /// The check is deliberately exactly as shallow as the paper describes:
    /// the stolen data must finish arriving at *our* receiver before the
    /// negotiated data could reach it **from the negotiating sender** — if
    /// we know that delay from our two-hop table. Our receiver's *other*
    /// neighbours are never consulted ("without assessing how transmission
    /// will interfere with other neighbors", §5.1).
    fn maybe_steal(&mut self, ctx: &mut MacContext<'_>, info: OverheardInfo) {
        if self.stealing || self.core.hold || self.core.role != CoreRole::Idle {
            return;
        }
        let Some(head) = self.core.queue.front() else {
            return;
        };
        let target = head.sdu.next_hop;
        // The negotiating pair itself is off-limits: both are busy.
        if target == info.src || target == info.dst {
            return;
        }
        let Some(tau_target) = self.core.neighbors.delay_of(target) else {
            return;
        };
        let clock = ctx.clock();
        let now = ctx.now();
        let td = ctx.tx_duration(head.sdu.bits);
        // The published CS-MAC operating assumption (§2 of the paper):
        // "the data packet transmission time is less than the propagation
        // time between two packets such as an RTS/CTS pair". Short pair
        // delays — dense deployments — leave no stealable gap, which is
        // exactly the paper's Figure-7 density argument.
        let Some(pair_delay) = info.pair_delay else {
            return;
        };
        if td + self.guard > pair_delay {
            return;
        }
        // The stolen data must clear the air before the pair's *next*
        // packet goes out at the following slot boundary: CS-MAC squeezes
        // into the inter-packet gap, not into the multi-slot future.
        let gap_close = clock.start_of(info.control_slot + 1);
        if now + tau_target + td + self.guard > gap_close {
            return;
        }
        let data_slot = if info.kind == FrameKind::Cts {
            info.control_slot + 1
        } else {
            info.control_slot + 2
        };
        // Who will transmit the negotiated data: the CTS's addressee, or
        // the RTS's sender (speculatively — the RTS may never be granted,
        // which is part of CS-MAC's recklessness).
        let data_sender = if info.kind == FrameKind::Cts {
            info.dst
        } else {
            info.src
        };
        // The steal is computed from two-hop knowledge: our data must be
        // fully received at our receiver before the negotiated transmission
        // reaches it. No knowledge, no steal — but the check still consults
        // only the overheard pair, never the receiver's other neighbours.
        let Some(tau_cross) = self.two_hop.delay_between(target, data_sender) else {
            return;
        };
        let negotiated_arrival = clock.start_of(data_slot) + tau_cross;
        if now + tau_target + td + self.guard > negotiated_arrival {
            return;
        }
        // Pair protection: the steal must also be fully received at the
        // negotiated *receiver* before its Data starts arriving, else the
        // steal destroys the exchange it is drafting behind. (Other
        // neighbours are still never consulted — the §5.1 blind spot.)
        let pair_receiver = if info.kind == FrameKind::Cts {
            info.src
        } else {
            info.dst
        };
        if let Some(tau_jr) = self.core.neighbors.delay_of(pair_receiver) {
            let pair_data_arrival = clock.start_of(data_slot) + pair_delay;
            if now + tau_jr + td + self.guard > pair_data_arrival {
                return;
            }
        }
        // Also don't steal into our own past: data must at least fit before
        // the exchange's conservative end (else we gain nothing).
        let mut sdu = head.sdu;
        sdu.next_hop = target;
        let mut frame = Frame::data(FrameKind::Data, self.id(), sdu);
        if head.retries > 0 {
            frame = frame.as_retransmission();
        }
        ctx.send_frame_now(frame);
        self.stealing = true;
        self.steals_attempted += 1;
        self.core.hold = true;
        let timeout = now + td + clock.slot_len() + tau_target + tau_target + ctx.omega() * 4;
        ctx.set_timer_at(timeout, TIMER_STEAL_ACK);
    }
}

impl MacProtocol for CsMac {
    fn name(&self) -> &'static str {
        "CS-MAC"
    }

    fn maintenance(&self) -> MaintenanceProfile {
        // §5.3: "CS-MAC control packets include two-hop neighbor
        // information; its overhead is much greater than that of EW-MAC".
        MaintenanceProfile {
            scope: NeighborInfoScope::TwoHop,
            // The cross-delay check reads the two-hop table.
            reads_two_hop: true,
            piggyback_bits: 24,
            periodic_refresh: Some(SimDuration::from_secs(120)),
            // Gap tracking for stealing monitors neighbours continuously,
            // though the steal itself is fire-and-forget.
            listen_mw_per_neighbor: 2.2,
        }
    }

    fn install_neighbors(&mut self, neighbors: &[(NodeId, SimDuration)]) {
        self.core.neighbors.observe_all(neighbors, SimTime::ZERO);
    }

    fn install_two_hop(&mut self, tables: &[(NodeId, Vec<(NodeId, SimDuration)>)]) {
        for (neighbor, list) in tables {
            self.two_hop.install(*neighbor, snapshot_of(list));
        }
    }

    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        let _ = self.core.on_slot_start(ctx, slot);
    }

    fn on_enqueue(&mut self, _ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.core.on_enqueue(sdu);
    }

    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        let frame = rx.frame;
        let to_me = rx.addressed_to(self.id());

        // Assemble the two-hop view from piggybacked announcements: the
        // sender's snapshot is the frame's own shared slice.
        if let Some(announced) = &frame.announced {
            self.two_hop.install(frame.src, Arc::clone(announced));
        }

        // A stolen transmission's Ack arrives outside any core exchange.
        if frame.kind == FrameKind::Ack && to_me && self.stealing {
            self.core
                .neighbors
                .observe(frame.src, rx.prop_delay, ctx.now());
            ctx.cancel_timer(TIMER_STEAL_ACK);
            self.stealing = false;
            self.core.hold = false;
            self.core.succeed(1);
            self.steals_succeeded += 1;
            return;
        }

        let ev = self.core.on_frame_received(ctx, rx);
        match self.core.default_lost_contention(ctx, ev) {
            CoreEvent::Overheard(info) => self.maybe_steal(ctx, info),
            CoreEvent::UnexpectedData
                // Someone stole the channel to reach us. A receiver mid-way
                // through its own exchange (or its own steal) discards the
                // unsolicited packet — the stealer had no way to know, which
                // is exactly the §5.1 recklessness: "CS-MAC exploits the
                // wait time of sensors without assessing how transmission
                // will interfere". An idle receiver acks at the next slot
                // boundary (it is still a slotted node).
                if to_me
                    && self.core.role == CoreRole::Idle
                    && !self.stealing
                    && !self.core.hold
                => {
                    let ack =
                        Frame::control(FrameKind::Ack, self.id(), frame.src, ctx.control_bits());
                    let at = ctx.clock().next_boundary(ctx.now());
                    ctx.send_frame_at(ack, at);
                }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
        if token == TIMER_STEAL_ACK && self.stealing {
            self.stealing = false;
            self.core.hold = false;
            self.core.attempt_failed(ctx, DropReason::RetryExhausted);
        }
    }

    fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    fn state_label(&self) -> &'static str {
        if self.stealing {
            "stealing"
        } else {
            self.core.role.label()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uasn_net::mac::MacCommand;
    use uasn_net::slots::SlotClock;
    use uasn_phy::modem::ModemSpec;

    struct H {
        mac: CsMac,
        rng: StdRng,
        clock: SlotClock,
        spec: ModemSpec,
        commands: Vec<MacCommand>,
    }

    impl H {
        fn new(id: u32) -> Self {
            H {
                mac: CsMac::new(NodeId::new(id)),
                rng: StdRng::seed_from_u64(11),
                clock: SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1)),
                spec: ModemSpec::new(12_000.0),
                commands: Vec::new(),
            }
        }

        fn recv(&mut self, frame: Frame, delay: SimDuration) {
            let arrival = frame.timestamp + delay;
            let now = arrival + self.spec.tx_duration(frame.bits);
            let mut ctx = MacContext::new(
                now,
                self.mac.id(),
                self.clock,
                self.spec,
                64,
                &mut self.rng,
                &mut self.commands,
            );
            let rx = Reception {
                frame: &frame,
                arrival_start: arrival,
                prop_delay: delay,
            };
            self.mac.on_frame_received(&mut ctx, &rx);
        }

        fn sent(&mut self) -> Vec<Frame> {
            std::mem::take(&mut self.commands)
                .into_iter()
                .filter_map(|c| match c {
                    MacCommand::SendFrame { frame, .. } => Some(frame),
                    _ => None,
                })
                .collect()
        }
    }

    fn stamp(mut f: Frame, clock: &SlotClock, slot: SlotIndex) -> Frame {
        f.timestamp = clock.start_of(slot);
        f
    }

    fn sdu(next: u32) -> Sdu {
        Sdu {
            id: 1,
            origin: NodeId::new(0),
            next_hop: NodeId::new(next),
            bits: 2_048,
            created: SimTime::ZERO,
            attempt: 0,
        }
    }

    /// Overhear CTS(4 -> 7) in slot 1 with a wide gap.
    fn wide_gap_cts(clock: &SlotClock) -> Frame {
        stamp(
            Frame::control(FrameKind::Cts, NodeId::new(4), NodeId::new(7), 64)
                .with_pair_delay(SimDuration::from_millis(900))
                .with_data_duration(SimDuration::from_micros(170_667)),
            clock,
            1,
        )
    }

    #[test]
    fn steals_when_gap_is_wide_and_receiver_unconstrained() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        // Receiver 5 hears negotiated sender 7 with a *large* delay: our
        // stolen data comfortably beats the negotiated transmission.
        h.mac.install_two_hop(&[(
            NodeId::new(5),
            vec![(NodeId::new(7), SimDuration::from_millis(950))],
        )]);
        h.mac.core.on_enqueue(sdu(5));
        h.recv(wide_gap_cts(&clock), SimDuration::from_millis(300));
        let sent = h.sent();
        assert_eq!(sent.len(), 1, "stolen data expected: {sent:?}");
        assert_eq!(sent[0].kind, FrameKind::Data);
        assert_eq!(sent[0].dst, NodeId::new(5));
        assert!(h.mac.stealing);
        assert_eq!(h.mac.steals_attempted(), 1);
    }

    #[test]
    fn respects_cross_delay_constraint() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(800))]);
        // Receiver 5 hears negotiated sender 7 with a *small* delay: the
        // negotiated data reaches 5 quickly, so the steal cannot fit.
        h.mac.install_two_hop(&[(
            NodeId::new(5),
            vec![(NodeId::new(7), SimDuration::from_millis(50))],
        )]);
        h.mac.core.on_enqueue(sdu(5));
        h.recv(wide_gap_cts(&clock), SimDuration::from_millis(300));
        assert!(h.sent().is_empty(), "steal must be suppressed");
        assert_eq!(h.mac.steals_attempted(), 0);
    }

    #[test]
    fn does_not_steal_toward_the_negotiating_pair() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(4), SimDuration::from_millis(200))]);
        h.mac.core.on_enqueue(sdu(4)); // next hop IS the negotiating receiver
        h.recv(wide_gap_cts(&clock), SimDuration::from_millis(300));
        assert!(h.sent().is_empty());
    }

    #[test]
    fn ack_completes_the_steal() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        h.mac.install_two_hop(&[(
            NodeId::new(5),
            vec![(NodeId::new(7), SimDuration::from_millis(950))],
        )]);
        h.mac.core.on_enqueue(sdu(5));
        h.recv(wide_gap_cts(&clock), SimDuration::from_millis(300));
        h.sent();
        let mut ack = Frame::control(FrameKind::Ack, NodeId::new(5), NodeId::new(0), 64);
        ack.timestamp = clock.start_of(2);
        h.recv(ack, SimDuration::from_millis(200));
        assert!(!h.mac.stealing);
        assert_eq!(h.mac.queue_len(), 0);
        assert_eq!(h.mac.steals_succeeded(), 1);
        assert!(!h.mac.core.hold);
    }

    #[test]
    fn steal_receiver_acks_unsolicited_data() {
        let mut h = H::new(5);
        let clock = h.clock;
        let data = stamp(
            Frame::data(FrameKind::Data, NodeId::new(0), sdu(5)),
            &clock,
            2,
        );
        h.recv(data, SimDuration::from_millis(200));
        let sent = h.sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].kind, FrameKind::Ack);
        assert_eq!(sent[0].dst, NodeId::new(0));
    }

    #[test]
    fn steal_timeout_counts_a_retry() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        h.mac.install_two_hop(&[(
            NodeId::new(5),
            vec![(NodeId::new(7), SimDuration::from_millis(950))],
        )]);
        h.mac.core.on_enqueue(sdu(5));
        h.recv(wide_gap_cts(&clock), SimDuration::from_millis(300));
        h.sent();
        let mut cmds = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ctx = MacContext::new(
            clock.start_of(4),
            h.mac.id(),
            clock,
            h.spec,
            64,
            &mut rng,
            &mut cmds,
        );
        h.mac.on_timer(&mut ctx, TIMER_STEAL_ACK);
        assert!(!h.mac.stealing);
        assert_eq!(h.mac.queue_len(), 1);
        assert_eq!(h.mac.core.queue.front().unwrap().retries, 1);
    }

    #[test]
    fn announced_rts_installs_and_replaces_the_senders_snapshot() {
        let mut h = H::new(0);
        let clock = h.clock;
        let from_4 = |entries: &[(u32, u64)]| {
            let list: Vec<(NodeId, SimDuration)> = entries
                .iter()
                .map(|&(id, ms)| (NodeId::new(id), SimDuration::from_millis(ms)))
                .collect();
            let rts = Frame::control(FrameKind::Rts, NodeId::new(4), NodeId::new(9), 64)
                .with_announced(Some(snapshot_of(&list)));
            stamp(rts, &clock, 1)
        };
        let first = from_4(&[(2, 300), (7, 950)]);
        let shared = Arc::clone(first.announced.as_ref().unwrap());
        h.recv(first, SimDuration::from_millis(300));
        let installed = h.mac.two_hop.snapshot(NodeId::new(4)).unwrap();
        assert!(Arc::ptr_eq(installed, &shared), "installed by pointer");
        assert_eq!(
            h.mac.two_hop.delay_between(NodeId::new(4), NodeId::new(7)),
            Some(SimDuration::from_millis(950))
        );
        // A later announcement replaces the whole snapshot.
        h.recv(from_4(&[(8, 120)]), SimDuration::from_millis(300));
        assert_eq!(h.mac.two_hop.len(), 1);
        assert_eq!(
            h.mac.two_hop.delay_between(NodeId::new(4), NodeId::new(7)),
            None
        );
        assert_eq!(
            h.mac.two_hop.delay_between(NodeId::new(4), NodeId::new(8)),
            Some(SimDuration::from_millis(120))
        );
        // A frame without an announcement leaves the snapshot alone.
        let bare = stamp(
            Frame::control(FrameKind::Rts, NodeId::new(4), NodeId::new(9), 64),
            &clock,
            3,
        );
        h.recv(bare, SimDuration::from_millis(300));
        assert_eq!(
            h.mac.two_hop.snapshot(NodeId::new(4)).map(|s| s.len()),
            Some(1)
        );
    }

    #[test]
    fn maintenance_is_heavy_two_hop() {
        let p = CsMac::new(NodeId::new(0)).maintenance();
        assert_eq!(p.scope, NeighborInfoScope::TwoHop);
        assert_eq!(p.piggyback_bits, 24);
        assert!(p.periodic_refresh.is_some());
    }
}
