//! The EW-MAC protocol state machine (paper §4, Figure 3).
//!
//! EW-MAC is the slotted handshake of [`uasn_net::slotted`] — an idle
//! sensor with traffic contends with an RTS at a slot boundary, a receiver
//! answers the highest-`rp` RTS with a CTS, Data goes out two slots after
//! the RTS and the Ack slot follows Eq 5 — plus one mechanism. A sensor
//! that *loses* contention — it sent `RTS(i,j)` but overhears `RTS(j,k)` or
//! `CTS(j,k)` — enters the "Asking Extra Commu" path (§4.2): EXR into the
//! peer's provably idle window, EXC back, EXData timed by Eq 6 to land
//! right after the negotiated Ack, EXAck to finish. This module holds only
//! that path: the two extra roles, the granting side, and their timers;
//! all extra-timing arithmetic lives in [`crate::extra`].

use uasn_net::mac::{
    DropReason, MacContext, MacProtocol, MaintenanceProfile, NeighborInfoScope, Reception,
    TimerToken,
};
use uasn_net::neighbor::OneHopTable;
use uasn_net::node::NodeId;
use uasn_net::packet::{Frame, FrameKind, Sdu};
use uasn_net::slots::SlotIndex;
use uasn_net::slotted::{CoreEvent, CoreRole, OverheardInfo, SlottedCore};
use uasn_sim::time::{SimDuration, SimTime};

use crate::config::EwMacConfig;
use crate::extra::{
    exc_reply_ok, exdata_grant_timeout, exdata_send_time, exr_send_time, ObservedNegotiation,
};

/// Timer: no EXC arrived for our EXR.
const TIMER_EXC: TimerToken = TimerToken(1);
/// Timer: no EXAck arrived for our EXData.
const TIMER_EXACK: TimerToken = TimerToken(2);
/// Timer: a granted EXData never arrived.
const TIMER_GRANT: TimerToken = TimerToken(3);

/// The requesting side of an extra communication (Figure 3's "Asking
/// Extra Commu"), exploiting the overheard negotiation `obs`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExtraRole {
    /// Sent an EXR; waiting for the EXC.
    Requesting(ObservedNegotiation),
    /// EXC granted; EXData scheduled; waiting for the EXAck.
    Sending(ObservedNegotiation),
}

/// The EW-MAC instance bound to one node.
///
/// # Examples
///
/// ```
/// use uasn_ewmac::{EwMac, EwMacConfig};
/// use uasn_net::mac::MacProtocol;
/// use uasn_net::node::NodeId;
///
/// let mac = EwMac::new(NodeId::new(0), EwMacConfig::default());
/// assert_eq!(mac.name(), "EW-MAC");
/// assert_eq!(mac.queue_len(), 0);
/// ```
#[derive(Debug)]
pub struct EwMac {
    core: SlottedCore,
    /// Whether the extra-communication machinery is active.
    enable_extra: bool,
    /// Numerical guard on extra-packet arrival targets.
    extra_guard: SimDuration,
    /// Clock-error margin added to `extra_guard`: zero (the paper's
    /// perfectly synchronized nodes) until the world announces a bound
    /// through `install_clock_error`.
    sync_margin: SimDuration,
    /// Our own extra exchange, if one is running; holds the core.
    extra: Option<ExtraRole>,
    /// The requester we promised an extra window; holds the core.
    grant: Option<NodeId>,
    /// Lifetime statistics: extra exchanges completed (for diagnostics and
    /// the ablation study).
    extra_successes: u64,
    /// Extra exchanges attempted (EXR sent).
    extra_attempts: u64,
}

impl EwMac {
    /// Creates an EW-MAC instance for node `id`.
    pub fn new(id: NodeId, cfg: EwMacConfig) -> Self {
        let cfg = cfg.validated();
        EwMac {
            core: SlottedCore::new(id, cfg.core),
            enable_extra: cfg.enable_extra,
            extra_guard: cfg.extra_guard,
            sync_margin: SimDuration::ZERO,
            extra: None,
            grant: None,
            extra_successes: 0,
            extra_attempts: 0,
        }
    }

    /// The effective guard on extra-window arithmetic: numerical safety
    /// plus the run's clock-error margin.
    fn guard(&self) -> SimDuration {
        self.extra_guard + self.sync_margin
    }

    /// Completed extra (EXData) exchanges initiated by this node.
    pub fn extra_successes(&self) -> u64 {
        self.extra_successes
    }

    /// EXR requests this node has sent.
    pub fn extra_attempts(&self) -> u64 {
        self.extra_attempts
    }

    /// The current one-hop neighbour table (tests/diagnostics).
    pub fn neighbor_table(&self) -> &OneHopTable {
        &self.core.neighbors
    }

    /// While an extra exchange or a grant is active, the core neither
    /// contends nor answers RTSs.
    fn set_extra(&mut self, extra: Option<ExtraRole>) {
        self.extra = extra;
        self.core.hold = self.extra.is_some() || self.grant.is_some();
    }

    fn set_grant(&mut self, grant: Option<NodeId>) {
        self.grant = grant;
        self.core.hold = self.extra.is_some() || self.grant.is_some();
    }

    /// Fig 3's transition into "Asking Extra Commu": my contention target
    /// was overheard negotiating with someone else. Try an extra
    /// communication in its waiting window before counting the failure.
    fn on_lost_contention(&mut self, ctx: &mut MacContext<'_>, info: OverheardInfo) {
        let Some(pair_delay) = info.pair_delay else {
            // No announced pair delay, no window to predict: back off
            // without charging a retry.
            self.core.backoff(ctx);
            return;
        };
        let obs = ObservedNegotiation {
            peer: info.src,
            other: info.dst,
            peer_is_receiver: info.kind == FrameKind::Cts,
            control_slot: info.control_slot,
            pair_delay,
            data_duration: info.data_duration.unwrap_or_else(|| ctx.tx_duration(2_048)),
        };
        if !self.try_extra(ctx, obs) {
            self.core.attempt_failed(ctx, DropReason::HandshakeTimeout);
        }
    }

    /// Sends an EXR into `obs.peer`'s idle window if it provably fits.
    fn try_extra(&mut self, ctx: &mut MacContext<'_>, obs: ObservedNegotiation) -> bool {
        // The paper protects only the exchange being exploited and accepts
        // residual RTS/extra collision risk ("we do not assure that there is
        // no collision"); actual overlaps are caught by the modem ledger.
        if !self.enable_extra || self.grant.is_some() {
            return false;
        }
        let (Some(head), Some(tau_ij)) = (
            self.core.queue.front(),
            self.core.neighbors.delay_of(obs.peer),
        ) else {
            return false;
        };
        let guard = self.guard();
        let Some(send_at) = exr_send_time(&ctx.clock(), &obs, ctx.now(), tau_ij, guard) else {
            return false;
        };
        let exr = Frame::control(FrameKind::ExRts, self.core.id, obs.peer, ctx.control_bits())
            .with_data_duration(ctx.tx_duration(head.sdu.bits))
            .with_pair_delay(tau_ij);
        ctx.send_frame_at(exr, send_at);
        self.extra_attempts += 1;
        // EXC should be back within a round trip plus decode.
        ctx.set_timer_at(send_at + tau_ij + tau_ij + ctx.omega() * 4, TIMER_EXC);
        self.set_extra(Some(ExtraRole::Requesting(obs)));
        true
    }

    /// Handles an EXR addressed to me: I'm sensor *j*, being asked to share
    /// my waiting window.
    fn on_extra_request(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        if !self.enable_extra || self.grant.is_some() {
            return;
        }
        let requested = rx.frame.data_duration;
        // Restate my own negotiation as an ObservedNegotiation so the
        // shared timing checks apply.
        let (other, peer_is_receiver, control_slot, data_duration) = match self.core.role {
            // Receiving was entered at the CTS slot = data_slot - 1.
            CoreRole::Receiving {
                peer, data_slot, ..
            } => (
                peer,
                true,
                data_slot.saturating_sub(1),
                requested.unwrap_or(SimDuration::ZERO),
            ),
            CoreRole::Contending {
                peer, rts_slot, td, ..
            } => (peer, false, rts_slot, td),
            // The CTS already arrived, so the requester's EXR was cut fine
            // — but the shareable window (until our Ack returns) still
            // exists; treat it as the sender case anchored at the original
            // RTS slot.
            CoreRole::SendingData {
                peer, data_slot, ..
            } => {
                let Some(head) = self.core.queue.front() else {
                    return;
                };
                (
                    peer,
                    false,
                    data_slot.saturating_sub(2),
                    ctx.tx_duration(head.sdu.bits),
                )
            }
            CoreRole::Idle => return, // no shareable window
        };
        let Some(pair_delay) = self.core.neighbors.delay_of(other) else {
            return;
        };
        let my_obs = ObservedNegotiation {
            peer: self.core.id,
            other,
            peer_is_receiver,
            control_slot,
            pair_delay,
            data_duration,
        };
        let now = ctx.now();
        let clock = ctx.clock();
        let guard = self.guard();
        if !exc_reply_ok(&clock, &my_obs, now, guard) {
            return;
        }
        let requester = rx.frame.src;
        let exc = Frame::control(
            FrameKind::ExCts,
            self.core.id,
            requester,
            ctx.control_bits(),
        )
        .with_pair_delay(rx.prop_delay)
        .with_data_duration(requested.unwrap_or(SimDuration::ZERO));
        ctx.send_frame_now(exc);
        self.set_grant(Some(requester));
        let exdata_duration = requested.unwrap_or(clock.slot_len());
        let timeout = exdata_grant_timeout(&clock, &my_obs, exdata_duration, guard);
        ctx.set_timer_at(timeout.max(now), TIMER_GRANT);
    }

    /// Handles the EXC answering my EXR: schedule the EXData per Eq 6.
    fn on_extra_clear(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        let Some(ExtraRole::Requesting(obs)) = self.extra else {
            return;
        };
        if rx.frame.src != obs.peer {
            return;
        }
        ctx.cancel_timer(TIMER_EXC);
        self.set_extra(None);
        let Some(tau_ij) = self.core.neighbors.delay_of(obs.peer) else {
            self.core.backoff(ctx);
            return;
        };
        let Some(head) = self.core.queue.front() else {
            return;
        };
        let send_at = exdata_send_time(&ctx.clock(), &obs, tau_ij, self.guard());
        if send_at <= ctx.now() {
            // The window has already passed (long EXC turnaround).
            self.core.backoff(ctx);
            return;
        }
        let mut sdu = head.sdu;
        sdu.next_hop = obs.peer;
        let mut frame = Frame::data(FrameKind::ExData, self.core.id, sdu);
        if head.retries > 0 {
            frame = frame.as_retransmission();
        }
        let duration = ctx.tx_duration(frame.bits);
        ctx.send_frame_at(frame, send_at);
        let timeout = send_at + duration + tau_ij + tau_ij + ctx.omega() * 4;
        ctx.set_timer_at(timeout, TIMER_EXACK);
        self.set_extra(Some(ExtraRole::Sending(obs)));
    }
}

impl MacProtocol for EwMac {
    fn name(&self) -> &'static str {
        "EW-MAC"
    }

    fn maintenance(&self) -> MaintenanceProfile {
        // §4.3/§5.3: one-hop tables, refreshed reactively from timestamps
        // piggybacked on every packet — no periodic re-broadcast.
        MaintenanceProfile {
            scope: NeighborInfoScope::OneHop,
            reads_two_hop: false,
            piggyback_bits: uasn_net::neighbor::ENTRY_BITS,
            periodic_refresh: None,
            // Extra windows are computed from the node's own failed
            // contentions; barely any standing monitoring is needed.
            listen_mw_per_neighbor: 0.2,
        }
    }

    fn install_neighbors(&mut self, neighbors: &[(NodeId, SimDuration)]) {
        self.core.neighbors.observe_all(neighbors, SimTime::ZERO);
    }

    fn install_clock_error(&mut self, bound: SimDuration) {
        // Under drifting clocks, every extra window must shrink by the
        // worst-case timing error or EXData transmissions would spill into
        // reserved slot phases. Keep the largest bound announced.
        self.sync_margin = self.sync_margin.max(bound);
    }

    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        let _ = self.core.on_slot_start(ctx, slot);
    }

    fn on_enqueue(&mut self, _ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.core.on_enqueue(sdu);
    }

    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        if let CoreEvent::LostContention(info) = self.core.on_frame_received(ctx, rx) {
            self.on_lost_contention(ctx, info);
            return;
        }
        let frame = rx.frame;
        match (frame.kind, rx.addressed_to(self.core.id)) {
            (FrameKind::ExRts, true) => self.on_extra_request(ctx, rx),
            (FrameKind::ExCts, true) => self.on_extra_clear(ctx, rx),
            (FrameKind::ExRts | FrameKind::ExCts, false) => {
                // §4.2 tail note: hearing someone else's extra control
                // packet imposes quiet after our own exchange.
                let now = ctx.now();
                self.core.quiet.add(now, now + ctx.clock().slot_len() * 2);
            }
            (FrameKind::ExData, true) if self.grant == Some(frame.src) => {
                let exack = Frame::control(
                    FrameKind::ExAck,
                    self.core.id,
                    frame.src,
                    ctx.control_bits(),
                );
                ctx.send_frame_now(exack);
                ctx.cancel_timer(TIMER_GRANT);
                self.set_grant(None);
            }
            (FrameKind::ExAck, true) => {
                if let Some(ExtraRole::Sending(obs)) = self.extra {
                    if frame.src == obs.peer {
                        ctx.cancel_timer(TIMER_EXACK);
                        self.extra_successes += 1;
                        // Extras stay unaggregated: the waiting window is
                        // sized for one SDU.
                        self.core.succeed(1);
                        self.set_extra(None);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
        match (token, self.extra) {
            (TIMER_EXC, Some(ExtraRole::Requesting(_))) => {
                // No EXC: give up the extra chance, stay quiet (the quiet
                // window from the overheard negotiation is already in
                // place), count the failed attempt.
                self.set_extra(None);
                self.core.attempt_failed(ctx, DropReason::HandshakeTimeout);
            }
            (TIMER_EXACK, Some(ExtraRole::Sending(_))) => {
                self.core.attempt_failed(ctx, DropReason::RetryExhausted);
                self.set_extra(None);
            }
            (TIMER_GRANT, _) => self.set_grant(None),
            _ => {}
        }
    }

    fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    fn state_label(&self) -> &'static str {
        match self.extra {
            Some(ExtraRole::Requesting(_)) => "extra-requesting",
            Some(ExtraRole::Sending(_)) => "extra-sending",
            None => self.core.role.label(),
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

    /// Scripted single-node harness: drives an `EwMac` with hand-built
    /// receptions and slot boundaries and inspects the commands it emits.
    struct Harness {
        mac: EwMac,
        rng: StdRng,
        clock: SlotClock,
        spec: ModemSpec,
        commands: Vec<MacCommand>,
    }

    impl Harness {
        fn new(id: u32) -> Self {
            Harness::with_cfg(id, EwMacConfig::default())
        }

        fn with_cfg(id: u32, cfg: EwMacConfig) -> Self {
            Harness {
                mac: EwMac::new(NodeId::new(id), cfg),
                rng: StdRng::seed_from_u64(7),
                clock: SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1)),
                spec: ModemSpec::new(12_000.0),
                commands: Vec::new(),
            }
        }

        fn ctx_at<F: FnOnce(&mut EwMac, &mut MacContext<'_>)>(&mut self, now: SimTime, f: F) {
            let mut ctx = MacContext::new(
                now,
                self.mac.core.id,
                self.clock,
                self.spec,
                64,
                &mut self.rng,
                &mut self.commands,
            );
            f(&mut self.mac, &mut ctx);
        }

        fn slot(&mut self, slot: SlotIndex) {
            let now = self.clock.start_of(slot);
            self.ctx_at(now, |mac, ctx| mac.on_slot_start(ctx, slot));
        }

        fn enqueue(&mut self, sdu: Sdu) {
            self.ctx_at(SimTime::ZERO, |mac, ctx| mac.on_enqueue(ctx, sdu));
        }

        /// Delivers `frame` (with `timestamp` already set) as decoded at
        /// `timestamp + delay + tx_duration`.
        fn recv(&mut self, frame: Frame, delay: SimDuration) {
            let arrival_start = frame.timestamp + delay;
            let decode_end = arrival_start + self.spec.tx_duration(frame.bits);
            self.ctx_at(decode_end, |mac, ctx| {
                let rx = Reception {
                    frame: &frame,
                    arrival_start,
                    prop_delay: delay,
                };
                mac.on_frame_received(ctx, &rx);
            });
        }

        fn timer(&mut self, now: SimTime, token: TimerToken) {
            self.ctx_at(now, |mac, ctx| mac.on_timer(ctx, token));
        }

        fn drain(&mut self) -> Vec<MacCommand> {
            std::mem::take(&mut self.commands)
        }

        fn sent_kinds(&mut self) -> Vec<FrameKind> {
            self.drain()
                .into_iter()
                .filter_map(|c| match c {
                    MacCommand::SendFrame { frame, .. } => Some(frame.kind),
                    _ => None,
                })
                .collect()
        }
    }

    fn sdu_to(next_hop: u32) -> Sdu {
        Sdu {
            id: 1,
            origin: NodeId::new(0),
            next_hop: NodeId::new(next_hop),
            bits: 2_048,
            created: SimTime::ZERO,
            attempt: 0,
        }
    }

    fn stamped(mut frame: Frame, clock: &SlotClock, slot: SlotIndex) -> Frame {
        frame.timestamp = clock.start_of(slot);
        frame
    }

    #[test]
    fn idle_node_with_traffic_sends_rts_at_slot_start() {
        let mut h = Harness::new(0);
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(400))]);
        h.enqueue(sdu_to(5));
        h.slot(0);
        let cmds = h.drain();
        let rts = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, at } => Some((frame.clone(), *at)),
                _ => None,
            })
            .expect("an RTS is sent");
        assert_eq!(rts.0.kind, FrameKind::Rts);
        assert_eq!(rts.0.dst, NodeId::new(5));
        assert_eq!(rts.1, SimTime::ZERO, "at the slot boundary");
        assert_eq!(rts.0.pair_delay, Some(SimDuration::from_millis(400)));
        assert!(rts.0.data_duration.is_some());
    }

    #[test]
    fn full_sender_handshake_happy_path() {
        let mut h = Harness::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(400))]);
        h.enqueue(sdu_to(5));
        h.slot(0); // RTS out
        assert_eq!(h.sent_kinds(), [FrameKind::Rts]);

        // CTS back in slot 1.
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                .with_pair_delay(SimDuration::from_millis(400))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(400));
        assert!(h.drain().is_empty(), "no command until the data slot");

        h.slot(2); // Data out
        let kinds = h.sent_kinds();
        assert_eq!(kinds, [FrameKind::Data]);

        // Ack in the Eq-5 slot: TD+τ = 170.667+400 ms < |ts| -> slot 3.
        let ack = stamped(
            Frame::control(FrameKind::Ack, NodeId::new(5), NodeId::new(0), 64),
            &clock,
            3,
        );
        h.recv(ack, SimDuration::from_millis(400));
        assert_eq!(h.mac.queue_len(), 0, "SDU delivered");
        assert_eq!(h.mac.state_label(), "idle");
    }

    #[test]
    fn receiver_full_path_rts_cts_data_ack() {
        let mut h = Harness::new(5);
        let clock = h.clock;
        // RTS from node 0 in slot 0.
        let rts = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(0), NodeId::new(5), 64)
                .with_rp(10)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(400));
        h.slot(1);
        let cmds = h.drain();
        let cts = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .expect("CTS sent");
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, NodeId::new(0));
        assert_eq!(cts.pair_delay, Some(SimDuration::from_millis(400)));

        // Data arrives in slot 2.
        let data = stamped(
            Frame::data(FrameKind::Data, NodeId::new(0), sdu_to(5)),
            &clock,
            2,
        );
        h.recv(data, SimDuration::from_millis(400));
        // Eq 5: ack at slot 3.
        h.slot(3);
        assert_eq!(h.sent_kinds(), [FrameKind::Ack]);
        assert_eq!(h.mac.state_label(), "idle");
    }

    #[test]
    fn receiver_picks_highest_rp() {
        let mut h = Harness::new(5);
        let clock = h.clock;
        for (src, rp) in [(0u32, 10u32), (1, 99), (2, 50)] {
            let rts = stamped(
                Frame::control(FrameKind::Rts, NodeId::new(src), NodeId::new(5), 64)
                    .with_rp(rp)
                    .with_data_duration(SimDuration::from_micros(170_667)),
                &clock,
                0,
            );
            h.recv(rts, SimDuration::from_millis(300));
        }
        h.slot(1);
        let cmds = h.drain();
        let cts_dst = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, .. } if frame.kind == FrameKind::Cts => {
                    Some(frame.dst)
                }
                _ => None,
            })
            .expect("CTS sent");
        assert_eq!(cts_dst, NodeId::new(1), "highest rp wins");
    }

    #[test]
    fn overhearing_negotiation_imposes_quiet() {
        let mut h = Harness::new(9);
        let clock = h.clock;
        // Overhear CTS(1 -> 2) in slot 0 with pair info.
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(1), NodeId::new(2), 64)
                .with_pair_delay(SimDuration::from_millis(600))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(cts, SimDuration::from_millis(500));
        h.drain();
        // Now enqueue traffic: the node must hold its RTS during the quiet.
        h.enqueue(sdu_to(1));
        h.slot(1);
        assert_eq!(h.sent_kinds(), Vec::<FrameKind>::new(), "quiet: no RTS");
        // The exchange (ack slot 2) ends early in slot 3; by slot 4 the
        // quiet has expired.
        h.slot(4);
        assert_eq!(h.sent_kinds(), [FrameKind::Rts]);
    }

    #[test]
    fn contention_loser_asks_for_extra_communication() {
        let mut h = Harness::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(300))]);
        h.enqueue(sdu_to(5));
        h.slot(0); // RTS(0->5)
        h.drain();

        // Node 5 answers node 7 instead: CTS(5->7) in slot 1.
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(7), 64)
                .with_pair_delay(SimDuration::from_millis(700))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(300));
        let cmds = h.drain();
        let exr = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, at } if frame.kind == FrameKind::ExRts => {
                    Some((frame.clone(), *at))
                }
                _ => None,
            })
            .expect("EXR sent after losing contention");
        assert_eq!(exr.0.dst, NodeId::new(5));
        assert_eq!(h.mac.extra_attempts(), 1);
        assert_eq!(h.mac.state_label(), "extra-requesting");

        // EXC comes back quickly.
        let mut exc = Frame::control(FrameKind::ExCts, NodeId::new(5), NodeId::new(0), 64)
            .with_pair_delay(SimDuration::from_millis(300));
        exc.timestamp = exr.1 + SimDuration::from_millis(320);
        h.recv(exc, SimDuration::from_millis(300));
        let cmds = h.drain();
        let (exdata, at) = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, at } if frame.kind == FrameKind::ExData => {
                    Some((frame.clone(), *at))
                }
                _ => None,
            })
            .expect("EXData scheduled");
        // Eq 6: arrival = ack-slot start + ω + guard; ack slot for the
        // (5,7) pair: data slot 2, TD+τ < |ts| -> slot 3.
        let expected_arrival =
            clock.start_of(3) + clock.omega() + EwMacConfig::default().extra_guard;
        assert_eq!(at + SimDuration::from_millis(300), expected_arrival);
        assert_eq!(exdata.dst, NodeId::new(5));

        // EXAck closes the exchange.
        let mut exack = Frame::control(FrameKind::ExAck, NodeId::new(5), NodeId::new(0), 64);
        exack.timestamp = at + SimDuration::from_secs(1);
        h.recv(exack, SimDuration::from_millis(300));
        assert_eq!(h.mac.queue_len(), 0);
        assert_eq!(h.mac.extra_successes(), 1);
        assert_eq!(h.mac.state_label(), "idle");
    }

    /// When node 0, having lost contention at node 5 to node 7, schedules
    /// its EXData, after the world announced `clock_error` (if any).
    fn exdata_send_instant(clock_error: Option<SimDuration>) -> SimTime {
        let mut h = Harness::new(0);
        let clock = h.clock;
        if let Some(bound) = clock_error {
            h.mac.install_clock_error(bound);
        }
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(300))]);
        h.enqueue(sdu_to(5));
        h.slot(0);
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(7), 64)
                .with_pair_delay(SimDuration::from_millis(700))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(300));
        let sent_at = |cmds: Vec<MacCommand>, kind: FrameKind| {
            cmds.into_iter()
                .find_map(|c| match c {
                    MacCommand::SendFrame { frame, at } if frame.kind == kind => Some(at),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{kind:?} sent"))
        };
        let exr_at = sent_at(h.drain(), FrameKind::ExRts);
        let mut exc = Frame::control(FrameKind::ExCts, NodeId::new(5), NodeId::new(0), 64)
            .with_pair_delay(SimDuration::from_millis(300));
        exc.timestamp = exr_at + SimDuration::from_millis(320);
        h.recv(exc, SimDuration::from_millis(300));
        sent_at(h.drain(), FrameKind::ExData)
    }

    #[test]
    fn installed_clock_error_delays_the_exdata_by_exactly_the_bound() {
        let bound = SimDuration::from_millis(3);
        let synced = exdata_send_instant(None);
        assert_eq!(exdata_send_instant(Some(bound)), synced + bound);
        // The margin keeps the largest bound announced.
        let mut h = Harness::new(0);
        h.mac.install_clock_error(bound);
        h.mac.install_clock_error(SimDuration::from_millis(1));
        assert_eq!(h.mac.guard(), EwMacConfig::default().extra_guard + bound);
    }

    #[test]
    fn extra_disabled_falls_back_to_plain_failure() {
        let mut h = Harness::with_cfg(0, EwMacConfig::default().without_extra());
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(300))]);
        h.enqueue(sdu_to(5));
        h.slot(0);
        h.drain();
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(7), 64)
                .with_pair_delay(SimDuration::from_millis(700))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(300));
        let kinds: Vec<FrameKind> = h.sent_kinds();
        assert!(kinds.is_empty(), "no EXR with extra disabled: {kinds:?}");
        assert_eq!(h.mac.state_label(), "idle");
        assert_eq!(h.mac.extra_attempts(), 0);
    }

    #[test]
    fn granting_side_answers_exr_and_acks_exdata() {
        let mut h = Harness::new(5);
        let clock = h.clock;
        // Node 5 becomes a receiver for node 7 first.
        let rts = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(7), NodeId::new(5), 64)
                .with_rp(50)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(700));
        h.slot(1); // CTS(5->7)
        assert_eq!(h.sent_kinds(), [FrameKind::Cts]);

        // Node 0's EXR arrives shortly after (well before Data(7,5)).
        let mut exr = Frame::control(FrameKind::ExRts, NodeId::new(0), NodeId::new(5), 64)
            .with_data_duration(SimDuration::from_micros(170_667));
        exr.timestamp = clock.start_of(1) + SimDuration::from_millis(320);
        h.recv(exr, SimDuration::from_millis(300));
        let kinds = h.sent_kinds();
        assert_eq!(kinds, [FrameKind::ExCts], "grant issued");
        assert!(h.mac.core.hold, "the grant holds the core");

        // Data from 7 arrives in slot 2; node 5 acks at slot 3.
        let data = stamped(
            Frame::data(
                FrameKind::Data,
                NodeId::new(7),
                Sdu {
                    id: 9,
                    origin: NodeId::new(7),
                    next_hop: NodeId::new(5),
                    bits: 2_048,
                    created: SimTime::ZERO,
                    attempt: 0,
                },
            ),
            &clock,
            2,
        );
        h.recv(data, SimDuration::from_millis(700));
        h.slot(3);
        assert_eq!(h.sent_kinds(), [FrameKind::Ack]);

        // EXData from node 0 lands after the Ack; node 5 EXAcks it.
        let mut exdata = Frame::data(
            FrameKind::ExData,
            NodeId::new(0),
            Sdu {
                id: 11,
                origin: NodeId::new(0),
                next_hop: NodeId::new(5),
                bits: 2_048,
                created: SimTime::ZERO,
                attempt: 0,
            },
        );
        exdata.timestamp = clock.start_of(3) + SimDuration::from_millis(100);
        h.recv(exdata, SimDuration::from_millis(300));
        assert_eq!(h.sent_kinds(), [FrameKind::ExAck]);
        assert!(!h.mac.core.hold, "the grant is released");
    }

    #[test]
    fn busy_receiver_ignores_new_rts() {
        let mut h = Harness::new(5);
        let clock = h.clock;
        let rts1 = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(7), NodeId::new(5), 64)
                .with_rp(50)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts1, SimDuration::from_millis(700));
        h.slot(1);
        assert_eq!(h.sent_kinds(), [FrameKind::Cts]);
        // A second RTS in slot 1 must be ignored at slot 2 (role Receiving).
        let rts2 = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(8), NodeId::new(5), 64)
                .with_rp(90)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(rts2, SimDuration::from_millis(200));
        h.slot(2);
        assert_eq!(h.sent_kinds(), Vec::<FrameKind>::new());
    }

    #[test]
    fn missing_ack_triggers_retransmission_with_backoff() {
        let mut h = Harness::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(400))]);
        h.enqueue(sdu_to(5));
        h.slot(0);
        h.drain();
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                .with_pair_delay(SimDuration::from_millis(400))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(400));
        h.slot(2);
        assert_eq!(h.sent_kinds(), [FrameKind::Data]);
        // No Ack in slot 3; at slot 4 the sender gives up this attempt.
        h.slot(3);
        h.slot(4);
        assert_eq!(h.mac.state_label(), "idle");
        assert_eq!(h.mac.queue_len(), 1, "SDU kept for retry");
        assert_eq!(h.mac.core.queue.front().unwrap().retries, 1);
        // Eventually it re-contends, and the Data goes out flagged retx.
        let mut sent_retx = false;
        for slot in 5..40 {
            h.slot(slot);
            for cmd in h.drain() {
                if let MacCommand::SendFrame { frame, .. } = cmd {
                    if frame.kind == FrameKind::Rts {
                        // Answer it immediately.
                        let cts = stamped(
                            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                                .with_pair_delay(SimDuration::from_millis(400))
                                .with_data_duration(SimDuration::from_micros(170_667)),
                            &clock,
                            slot + 1,
                        );
                        h.recv(cts, SimDuration::from_millis(400));
                    }
                    if frame.kind == FrameKind::Data {
                        assert!(frame.retx, "retransmitted data must be flagged");
                        sent_retx = true;
                    }
                }
            }
            if sent_retx {
                break;
            }
        }
        assert!(sent_retx, "retransmission never happened");
    }

    #[test]
    fn sdu_dropped_after_max_retries() {
        let mut cfg = EwMacConfig::default();
        cfg.core.max_retries = 1;
        let mut h = Harness::with_cfg(0, cfg);
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(400))]);
        h.enqueue(sdu_to(5));
        // Drive many slots; never answer anything. Contention failures do
        // not consume retries (only failed data attempts do), so force two
        // data rounds by answering CTS but never Ack.
        let clock = h.clock;
        let mut drops = 0;
        for slot in 0..200 {
            h.slot(slot);
            for cmd in h.drain() {
                if let MacCommand::SendFrame { frame, .. } = cmd {
                    if frame.kind == FrameKind::Rts {
                        let cts = stamped(
                            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                                .with_pair_delay(SimDuration::from_millis(400))
                                .with_data_duration(SimDuration::from_micros(170_667)),
                            &clock,
                            slot + 1,
                        );
                        h.recv(cts, SimDuration::from_millis(400));
                    }
                }
            }
            if h.mac.queue_len() == 0 {
                drops += 1;
                break;
            }
        }
        assert_eq!(drops, 1, "SDU dropped after exhausting retries");
    }

    #[test]
    fn exc_timeout_returns_to_idle() {
        let mut h = Harness::new(0);
        let clock = h.clock;
        h.mac
            .install_neighbors(&[(NodeId::new(5), SimDuration::from_millis(300))]);
        h.enqueue(sdu_to(5));
        h.slot(0);
        h.drain();
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(7), 64)
                .with_pair_delay(SimDuration::from_millis(700))
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(300));
        assert_eq!(h.mac.state_label(), "extra-requesting");
        h.timer(clock.start_of(3), TIMER_EXC);
        assert_eq!(h.mac.state_label(), "idle");
        assert_eq!(h.mac.queue_len(), 1, "SDU survives for normal retry");
    }

    #[test]
    fn neighbor_table_learns_from_every_packet() {
        let mut h = Harness::new(0);
        let clock = h.clock;
        assert!(h.mac.neighbor_table().is_empty());
        let beacon = stamped(
            Frame::control(FrameKind::Beacon, NodeId::new(3), NodeId::new(0), 64),
            &clock,
            0,
        );
        h.recv(beacon, SimDuration::from_millis(123));
        assert_eq!(
            h.mac.neighbor_table().delay_of(NodeId::new(3)),
            Some(SimDuration::from_millis(123))
        );
    }

    #[test]
    fn maintenance_profile_is_one_hop_reactive() {
        let mac = EwMac::new(NodeId::new(0), EwMacConfig::default());
        let p = mac.maintenance();
        assert_eq!(p.scope, NeighborInfoScope::OneHop);
        assert!(p.periodic_refresh.is_none());
        assert!(p.piggyback_bits > 0);
    }
}
