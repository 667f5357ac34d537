//! ROPA — Reverse Opportunistic Packet Appending (Ng, Soh & Motani, 2013),
//! as characterised in §5 of the paper: *"each sender sends the RTS packet
//! including the propagation delay time between the sender and receiver. If
//! a neighbor of the sender intends to communicate with the sender, then
//! the neighbor can send an RTA packet (i.e., extra RTS) during the wait
//! time of the sender if the RTA packet does not interfere with the arrival
//! of the CTS packet."* The appended neighbour's uplink data is collected
//! by the sender right after its own exchange — sender-side reuse only,
//! which is why ROPA lands between S-FAMA and the receiver-aware protocols
//! in throughput, and why the paper charges it two-hop neighbour
//! maintenance.

use uasn_net::mac::{
    DropReason, MacContext, MacProtocol, MaintenanceProfile, NeighborInfoScope, Reception,
    TimerToken,
};
use uasn_net::node::NodeId;
use uasn_net::packet::{Frame, FrameKind, Sdu};
use uasn_net::slots::SlotIndex;
use uasn_net::slotted::{CoreConfig, CoreEvent, CoreRole, OverheardInfo, SlottedCore};
use uasn_sim::time::{SimDuration, SimTime};

/// Waiting too long for the append poll.
const TIMER_POLL: TimerToken = TimerToken(10);
/// (Collector side) the appended data never arrived.
const TIMER_APPEND_DATA: TimerToken = TimerToken(11);
/// (Appender side) the Ack for our appended data never arrived.
const TIMER_APPEND_ACK: TimerToken = TimerToken(12);

/// Appender-side progress.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AppendSide {
    /// RTA sent to `target`; waiting to be polled.
    WaitingPoll { target: NodeId },
    /// Polled; our data goes out at `data_slot`.
    SendingAppended {
        target: NodeId,
        data_slot: SlotIndex,
    },
    /// Data sent; waiting for the Ack.
    WaitingAck { target: NodeId },
}

/// Collector-side (the original sender) progress.
#[derive(Debug, Clone)]
struct CollectState {
    /// Appenders to poll, in arrival order: `(node, data duration, τ)`.
    pending: Vec<(NodeId, SimDuration, SimDuration)>,
    /// The appender currently being served.
    current: Option<(NodeId, SimDuration, SimDuration)>,
    /// Eq-5 Ack slot for the current appended data.
    ack_slot: Option<SlotIndex>,
    /// Whether the current appended data arrived.
    data_received: bool,
}

/// The ROPA instance bound to one node.
///
/// # Examples
///
/// ```
/// use uasn_baselines::Ropa;
/// use uasn_net::mac::MacProtocol;
/// use uasn_net::node::NodeId;
///
/// let mac = Ropa::new(NodeId::new(0));
/// assert_eq!(mac.name(), "ROPA");
/// ```
#[derive(Debug)]
pub struct Ropa {
    core: SlottedCore,
    append: Option<AppendSide>,
    collect: Option<CollectState>,
    guard: SimDuration,
}

impl Ropa {
    /// Creates a ROPA instance for node `id`.
    pub fn new(id: NodeId) -> Self {
        Ropa {
            core: SlottedCore::new(
                id,
                CoreConfig {
                    announce_delays: true,
                    ..CoreConfig::default()
                },
            ),
            append: None,
            collect: None,
            guard: SimDuration::from_millis(2),
        }
    }

    fn id(&self) -> NodeId {
        self.core.id
    }

    /// After our own exchange ends, freeze the core so queued appenders can
    /// be served at the next slot boundary. A *failed* exchange drops its
    /// appenders instead: the reservation their transfer was riding on no
    /// longer exists.
    fn after_core_event(&mut self, ev: CoreEvent) {
        match ev {
            CoreEvent::SendSucceeded { .. }
                if self
                    .collect
                    .as_ref()
                    .is_some_and(|c| c.current.is_some() || !c.pending.is_empty()) =>
            {
                self.core.hold = true;
            }
            CoreEvent::SendFailed { .. }
                if self.collect.as_ref().is_some_and(|c| c.current.is_none()) =>
            {
                self.collect = None;
                if self.append.is_none() {
                    self.core.hold = false;
                }
            }
            _ => {}
        }
    }

    fn release_append(&mut self, ctx: &mut MacContext<'_>, failed: bool) {
        self.append = None;
        self.core.hold = self.collect.is_some();
        if failed {
            self.core.attempt_failed(ctx, DropReason::RetryExhausted);
        }
    }

    /// Appender side: react to an overheard RTS from our intended next hop.
    fn maybe_append(&mut self, ctx: &mut MacContext<'_>, info: OverheardInfo) {
        if self.append.is_some()
            || self.collect.is_some()
            || self.core.hold
            || self.core.role != CoreRole::Idle
        {
            return;
        }
        if info.kind != FrameKind::Rts {
            return; // ROPA appends only during a *sender's* RTS→CTS wait
        }
        let Some(head) = self.core.queue.front() else {
            return;
        };
        if head.sdu.next_hop != info.src {
            return; // we only append data destined for that sender
        }
        let Some(pair_delay) = info.pair_delay else {
            return;
        };
        let Some(tau) = self.core.neighbors.delay_of(info.src) else {
            return;
        };
        // The RTA must be fully received at the sender before the CTS
        // starts arriving (the paper's non-interference condition).
        let clock = ctx.clock();
        let now = ctx.now();
        let cts_arrival = clock.start_of(info.control_slot + 1) + pair_delay;
        if now + tau + ctx.omega() + self.guard > cts_arrival {
            return;
        }
        let td = ctx.tx_duration(head.sdu.bits);
        let rta = Frame::control(FrameKind::Rta, self.id(), info.src, ctx.control_bits())
            .with_data_duration(td)
            .with_pair_delay(tau);
        ctx.send_frame_now(rta);
        self.append = Some(AppendSide::WaitingPoll { target: info.src });
        self.core.hold = true;
        // The poll comes after the sender's whole exchange; allow a
        // generous window before giving up (about 8 slots at τmax).
        ctx.set_timer_after(clock.slot_len() * 8, TIMER_POLL);
    }

    /// Collector side: begin serving the next appender (called at a slot
    /// boundary once our own exchange completed).
    fn poll_next(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        if self.core.role != CoreRole::Idle {
            return; // our own exchange still running
        }
        let Some(collect) = &mut self.collect else {
            return;
        };
        if collect.current.is_some() {
            return;
        }
        if collect.pending.is_empty() {
            self.collect = None;
            self.core.hold = false;
            return;
        }
        let (peer, td, tau) = collect.pending.remove(0);
        let my_id = self.core.id;
        let collect = self.collect.as_mut().expect("checked above");
        let poll = Frame::control(FrameKind::Cts, my_id, peer, ctx.control_bits())
            .with_pair_delay(tau)
            .with_data_duration(td);
        ctx.send_frame_now(poll);
        self.core.boundary_taken = true;
        let clock = ctx.clock();
        // Appended data arrives in the next slot; Ack per Eq 5.
        let ack_slot = clock.ack_slot(slot + 1, td, tau);
        collect.current = Some((peer, td, tau));
        collect.ack_slot = Some(ack_slot);
        collect.data_received = false;
        ctx.set_timer_at(clock.start_of(ack_slot + 1), TIMER_APPEND_DATA);
    }
}

impl MacProtocol for Ropa {
    fn name(&self) -> &'static str {
        "ROPA"
    }

    fn maintenance(&self) -> MaintenanceProfile {
        // §5.3: ROPA keeps two-hop info but communicates comparatively
        // rarely — overhead ≈ 1.5× S-FAMA.
        MaintenanceProfile {
            scope: NeighborInfoScope::TwoHop,
            // Appending decisions use one-hop delays only.
            reads_two_hop: false,
            piggyback_bits: 8,
            periodic_refresh: Some(SimDuration::from_secs(120)),
            // Appending requires watching *every* neighbour's RTS→CTS wait
            // (§5.2: ROPA's waiting energy is the highest of the group).
            listen_mw_per_neighbor: 3.0,
        }
    }

    fn install_neighbors(&mut self, neighbors: &[(NodeId, SimDuration)]) {
        self.core.neighbors.observe_all(neighbors, SimTime::ZERO);
    }

    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        // Collector duties first: ack appended data at its Eq-5 slot.
        let mut finished_current = false;
        if let Some(collect) = &mut self.collect {
            if let (Some((peer, _, _)), Some(ack_slot)) = (collect.current, collect.ack_slot) {
                if slot == ack_slot && collect.data_received {
                    let ack = Frame::control(FrameKind::Ack, self.id(), peer, ctx.control_bits());
                    ctx.send_frame_now(ack);
                    finished_current = true;
                    self.core.boundary_taken = true;
                }
            }
        }
        if finished_current {
            if let Some(collect) = &mut self.collect {
                collect.current = None;
                collect.ack_slot = None;
            }
            ctx.cancel_timer(TIMER_APPEND_DATA);
        } else {
            // The Ack (if any) owns this boundary; polling waits a slot.
            self.poll_next(ctx, slot);
        }

        // Appender duties: transmit granted appended data at its slot.
        if let Some(AppendSide::SendingAppended { target, data_slot }) = self.append {
            if slot == data_slot {
                if let Some(head) = self.core.queue.front() {
                    let mut sdu = head.sdu;
                    sdu.next_hop = target;
                    let mut frame = Frame::data(FrameKind::Data, self.id(), sdu);
                    if head.retries > 0 {
                        frame = frame.as_retransmission();
                    }
                    ctx.send_frame_now(frame);
                    self.core.boundary_taken = true;
                    self.append = Some(AppendSide::WaitingAck { target });
                    ctx.set_timer_after(ctx.clock().slot_len() * 4, TIMER_APPEND_ACK);
                } else {
                    self.release_append(ctx, false);
                }
            }
        }

        let ev = self.core.on_slot_start(ctx, slot);
        self.after_core_event(ev);
    }

    fn on_enqueue(&mut self, _ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.core.on_enqueue(sdu);
    }

    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        let frame = rx.frame;
        let to_me = rx.addressed_to(self.id());

        // Protocol-specific paths first.
        match frame.kind {
            FrameKind::Rta if to_me => {
                self.core
                    .neighbors
                    .observe(frame.src, rx.prop_delay, ctx.now());
                // Accept an append only during the actual RTS→CTS wait —
                // the window ROPA exploits ("the period between sending
                // RTSs and receiving CTSs").
                let sender_busy = matches!(self.core.role, CoreRole::Contending { .. });
                if sender_busy {
                    let td = frame
                        .data_duration
                        .unwrap_or_else(|| ctx.tx_duration(2_048));
                    let collect = self.collect.get_or_insert(CollectState {
                        pending: Vec::new(),
                        current: None,
                        ack_slot: None,
                        data_received: false,
                    });
                    // One appended packet per exchange: the reuse window is
                    // the sender's own wait, not an open-ended poll train.
                    if collect.pending.is_empty() && collect.current.is_none() {
                        collect.pending.push((frame.src, td, rx.prop_delay));
                    }
                }
                return;
            }
            FrameKind::Cts if to_me && self.append.is_some() => {
                // The append poll (we are not contending, so the core would
                // ignore this CTS).
                if let Some(AppendSide::WaitingPoll { target }) = self.append {
                    if frame.src == target {
                        self.core
                            .neighbors
                            .observe(frame.src, rx.prop_delay, ctx.now());
                        ctx.cancel_timer(TIMER_POLL);
                        let data_slot = ctx.clock().slot_of(frame.timestamp) + 1;
                        self.append = Some(AppendSide::SendingAppended { target, data_slot });
                        return;
                    }
                }
            }
            FrameKind::Ack if to_me => {
                if let Some(AppendSide::WaitingAck { target }) = self.append {
                    if frame.src == target {
                        self.core
                            .neighbors
                            .observe(frame.src, rx.prop_delay, ctx.now());
                        ctx.cancel_timer(TIMER_APPEND_ACK);
                        self.core.succeed(1);
                        self.release_append(ctx, false);
                        return;
                    }
                }
            }
            _ => {}
        }

        let ev = self.core.on_frame_received(ctx, rx);
        // The retry charge can drop the head SDU, so the RTA path must see
        // a lost contention only after it.
        let ev = self.core.default_lost_contention(ctx, ev);
        self.after_core_event(ev);
        match ev {
            CoreEvent::Overheard(info) => self.maybe_append(ctx, info),
            CoreEvent::UnexpectedData => {
                // Appended data reaching us as the collector.
                if let Some(collect) = &mut self.collect {
                    if let Some((peer, _, _)) = collect.current {
                        if frame.src == peer && to_me {
                            collect.data_received = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
        match token {
            TIMER_POLL => {
                if matches!(self.append, Some(AppendSide::WaitingPoll { .. })) {
                    // Never polled: fall back to normal contention.
                    self.release_append(ctx, false);
                    self.core.backoff(ctx);
                }
            }
            TIMER_APPEND_ACK => {
                if matches!(self.append, Some(AppendSide::WaitingAck { .. })) {
                    self.release_append(ctx, true);
                }
            }
            TIMER_APPEND_DATA => {
                if let Some(collect) = &mut self.collect {
                    if collect.current.is_some() && !collect.data_received {
                        collect.current = None;
                        collect.ack_slot = None;
                    }
                }
            }
            _ => {}
        }
    }

    fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    fn state_label(&self) -> &'static str {
        if self.append.is_some() {
            "appending"
        } else if self.collect.is_some() {
            "collecting"
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
        mac: Ropa,
        rng: StdRng,
        clock: SlotClock,
        spec: ModemSpec,
        commands: Vec<MacCommand>,
    }

    impl H {
        fn new(id: u32) -> Self {
            H {
                mac: Ropa::new(NodeId::new(id)),
                rng: StdRng::seed_from_u64(5),
                clock: SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1)),
                spec: ModemSpec::new(12_000.0),
                commands: Vec::new(),
            }
        }

        fn slot(&mut self, slot: SlotIndex) {
            let now = self.clock.start_of(slot);
            let mut ctx = MacContext::new(
                now,
                self.mac.id(),
                self.clock,
                self.spec,
                64,
                &mut self.rng,
                &mut self.commands,
            );
            self.mac.on_slot_start(&mut ctx, slot);
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

    #[test]
    fn appender_sends_rta_when_target_is_a_sender() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        h.mac.core.on_enqueue(sdu(5));

        // Overhear RTS(5 -> 9) with a far receiver (τ = 900 ms).
        let rts = stamp(
            Frame::control(FrameKind::Rts, NodeId::new(5), NodeId::new(9), 64)
                .with_pair_delay(SimDuration::from_millis(900))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(200));
        let sent = h.sent();
        assert_eq!(sent.len(), 1, "RTA expected, got {sent:?}");
        assert_eq!(sent[0].kind, FrameKind::Rta);
        assert_eq!(sent[0].dst, NodeId::new(5));
        assert!(h.mac.core.hold);
    }

    #[test]
    fn appender_skips_when_rta_cannot_beat_cts() {
        let mut h = H::new(0);
        let clock = h.clock;
        // Very close pair: CTS returns almost immediately after slot 1.
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(950))]);
        h.mac.core.on_enqueue(sdu(5));
        let rts = stamp(
            Frame::control(FrameKind::Rts, NodeId::new(5), NodeId::new(9), 64)
                .with_pair_delay(SimDuration::from_millis(10))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(950));
        assert!(h.sent().is_empty(), "no RTA when the window is too tight");
        assert!(h.mac.append.is_none());
    }

    #[test]
    fn collector_polls_appender_after_its_own_exchange() {
        let mut h = H::new(5);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(9), SimDuration::from_millis(900))]);
        h.mac.core.on_enqueue(sdu(9));
        h.slot(0); // RTS(5->9)
        assert_eq!(h.sent().len(), 1);

        // RTA from node 2 arrives during the wait.
        let mut rta = Frame::control(FrameKind::Rta, NodeId::new(2), NodeId::new(5), 64)
            .with_data_duration(SimDuration::from_micros(170_667))
            .with_pair_delay(SimDuration::from_millis(300));
        rta.timestamp = clock.start_of(0) + SimDuration::from_millis(400);
        h.recv(rta, SimDuration::from_millis(300));
        assert!(h.mac.collect.is_some());

        // CTS back, data out, ack in: the normal exchange completes.
        let cts = stamp(
            Frame::control(FrameKind::Cts, NodeId::new(9), NodeId::new(5), 64)
                .with_pair_delay(SimDuration::from_millis(900))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(900));
        h.slot(2);
        let kinds: Vec<FrameKind> = h.sent().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FrameKind::Data]);
        // Ack (TD+τ = 1.07 s -> ack slot 4).
        let ack = stamp(
            Frame::control(FrameKind::Ack, NodeId::new(9), NodeId::new(5), 64),
            &clock,
            4,
        );
        h.recv(ack, SimDuration::from_millis(900));
        assert_eq!(h.mac.queue_len(), 0);

        // Next slot: the poll goes out to node 2.
        h.slot(5);
        let sent = h.sent();
        let poll = sent
            .iter()
            .find(|f| f.kind == FrameKind::Cts)
            .expect("poll");
        assert_eq!(poll.dst, NodeId::new(2));
    }

    #[test]
    fn polled_appender_sends_data_and_finishes_on_ack() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        h.mac.core.on_enqueue(sdu(5));
        let rts = stamp(
            Frame::control(FrameKind::Rts, NodeId::new(5), NodeId::new(9), 64)
                .with_pair_delay(SimDuration::from_millis(900))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(200));
        h.sent();

        // The poll arrives (slot 5).
        let poll = stamp(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                .with_pair_delay(SimDuration::from_millis(200))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            5,
        );
        h.recv(poll, SimDuration::from_millis(200));
        assert!(matches!(
            h.mac.append,
            Some(AppendSide::SendingAppended { data_slot: 6, .. })
        ));
        h.slot(6);
        let kinds: Vec<FrameKind> = h.sent().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FrameKind::Data]);

        let ack = stamp(
            Frame::control(FrameKind::Ack, NodeId::new(5), NodeId::new(0), 64),
            &clock,
            7,
        );
        h.recv(ack, SimDuration::from_millis(200));
        assert_eq!(h.mac.queue_len(), 0);
        assert!(h.mac.append.is_none());
        assert!(!h.mac.core.hold);
    }

    #[test]
    fn poll_timeout_falls_back_to_contention() {
        let mut h = H::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(200))]);
        h.mac.core.on_enqueue(sdu(5));
        let rts = stamp(
            Frame::control(FrameKind::Rts, NodeId::new(5), NodeId::new(9), 64)
                .with_pair_delay(SimDuration::from_millis(900))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(200));
        h.sent();
        // Fire the poll timeout.
        let now = clock.start_of(9);
        let mut ctx_cmds = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = MacContext::new(now, h.mac.id(), clock, h.spec, 64, &mut rng, &mut ctx_cmds);
        h.mac.on_timer(&mut ctx, TIMER_POLL);
        assert!(h.mac.append.is_none());
        assert!(!h.mac.core.hold);
        assert_eq!(h.mac.queue_len(), 1, "SDU kept for normal contention");
    }

    #[test]
    fn maintenance_is_two_hop_periodic() {
        let p = Ropa::new(NodeId::new(0)).maintenance();
        assert_eq!(p.scope, NeighborInfoScope::TwoHop);
        assert!(p.periodic_refresh.is_some());
        assert!(p.piggyback_bits > 0);
    }
}
