//! The slotted four-way-handshake core.
//!
//! S-FAMA, ROPA, CS-MAC and EW-MAC all run the same skeleton the paper
//! describes in §4.1 and §5 — RTS at slot *t*, CTS at *t+1*, Data at *t+2*,
//! Ack per Eq 5 — and differ in what they *add* (sender-side appending,
//! channel stealing, extra communications) and in how much neighbour state
//! they carry. [`SlottedCore`] implements the skeleton once and surfaces
//! [`CoreEvent`]s so the wrapper protocols can bolt on their mechanisms.
//! Two handshake features are protocol parameters of the core rather than
//! wrapper code: the §3.1 `rp` priority ([`CoreConfig::priority`]) and
//! collect-then-transmit aggregation ([`CoreConfig::aggregate_max_bits`]).

use std::collections::VecDeque;

use rand::Rng;
use uasn_sim::time::{SimDuration, SimTime};

use crate::mac::{DropReason, MacContext, Reception};
use crate::neighbor::{DelaySnapshot, OneHopTable};
use crate::node::NodeId;
use crate::packet::{Frame, FrameKind, Sdu};
use crate::priority::{pick_winner, priority_value, PriorityRule};
use crate::quiet::QuietSchedule;
use crate::slots::SlotIndex;

/// Core protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Initial contention window, slots. After a failed attempt the next
    /// one is delayed by `1 + uniform(0..cw)` slots.
    pub base_cw: u32,
    /// Contention window cap for the binary exponential backoff.
    pub max_cw: u32,
    /// Retransmission attempts before an SDU is dropped.
    pub max_retries: u32,
    /// Whether frames piggyback pair delays / data durations for
    /// overhearers (S-FAMA does not; its overhearers reserve τmax).
    pub announce_delays: bool,
    /// Whether RTS/CTS frames also carry the sender's one-hop table so
    /// neighbours can assemble two-hop views (§5.3; CS-MAC, the one
    /// reader of [`Frame::announced`]). ROPA's §5.3 table cost is charged
    /// through its maintenance profile instead.
    pub announce_table: bool,
    /// The §3.1 RTS priority: with a rule, every RTS carries an `rp` and a
    /// receiver answers the highest (ties to the lowest sender index);
    /// without one, the first decoded RTS wins.
    pub priority: Option<PriorityRule>,
    /// When set, a negotiated data frame aggregates consecutive queued SDUs
    /// for the same next hop up to this many payload bits (§2: "data should
    /// be collected and then transmitted when the amount of data is
    /// sufficient"). `None` sends one SDU per exchange.
    pub aggregate_max_bits: Option<u32>,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            base_cw: 2,
            max_cw: 16,
            max_retries: 20,
            announce_delays: false,
            announce_table: false,
            priority: None,
            aggregate_max_bits: None,
        }
    }
}

/// One queued SDU with its retry state.
#[derive(Debug, Clone, Copy)]
pub struct PendingSdu {
    /// The SDU.
    pub sdu: Sdu,
    /// Failed delivery attempts so far.
    pub retries: u32,
    /// Slot of the first RTS sent for it (the `rp` wait term), once sent.
    pub first_attempt_slot: Option<SlotIndex>,
}

/// What the core is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreRole {
    /// Nothing in flight.
    Idle,
    /// RTS sent at `rts_slot`, waiting for CTS.
    Contending {
        /// Intended receiver.
        peer: NodeId,
        /// Slot the RTS went out in.
        rts_slot: SlotIndex,
        /// Announced data duration.
        td: SimDuration,
        /// How many queued SDUs the announced duration covers.
        bundle: usize,
    },
    /// CTS received; Data at `data_slot`, Ack expected in `ack_slot`.
    SendingData {
        /// The receiver.
        peer: NodeId,
        /// Data transmit slot.
        data_slot: SlotIndex,
        /// Eq-5 Ack slot.
        ack_slot: SlotIndex,
        /// How many queued SDUs ride the data frame.
        bundle: usize,
    },
    /// CTS sent; waiting for Data at `data_slot`, Ack due at `ack_slot`.
    Receiving {
        /// The sender.
        peer: NodeId,
        /// Slot the sender transmits the Data in.
        data_slot: SlotIndex,
        /// Eq-5 Ack slot.
        ack_slot: SlotIndex,
        /// Whether the Data arrived intact.
        data_received: bool,
    },
}

impl CoreRole {
    /// Short static label for the sampler's MAC-state column.
    pub fn label(&self) -> &'static str {
        match self {
            CoreRole::Idle => "idle",
            CoreRole::Contending { .. } => "contending",
            CoreRole::SendingData { .. } => "sending-data",
            CoreRole::Receiving { .. } => "receiving",
        }
    }
}

/// Information about an overheard negotiation packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheardInfo {
    /// RTS or CTS.
    pub kind: FrameKind,
    /// Who transmitted it.
    pub src: NodeId,
    /// Who it addressed.
    pub dst: NodeId,
    /// The slot it was sent in.
    pub control_slot: SlotIndex,
    /// Pair propagation delay, when announced.
    pub pair_delay: Option<SimDuration>,
    /// Announced data duration, when present.
    pub data_duration: Option<SimDuration>,
}

/// What a core callback observed — hooks for the wrapper protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreEvent {
    /// Nothing of note.
    None,
    /// A negotiation between two other nodes was overheard (quiet has been
    /// applied already).
    Overheard(OverheardInfo),
    /// My contention target was overheard negotiating with someone else:
    /// the contention is lost. Quiet has been applied and the role is back
    /// to idle, but no retry is charged yet — the wrapper decides, or hands
    /// the event to [`SlottedCore::default_lost_contention`].
    LostContention(OverheardInfo),
    /// Data addressed to me arrived outside any negotiated exchange
    /// (CS-MAC steals produce these).
    UnexpectedData,
    /// The head SDU (or bundle) was acknowledged and popped.
    SendSucceeded {
        /// The receiver that acknowledged.
        peer: NodeId,
    },
    /// A delivery attempt failed (retry counted, backoff applied).
    SendFailed {
        /// The intended receiver.
        peer: NodeId,
    },
    /// As a receiver, the negotiated Data arrived and the Ack was sent.
    ReceiveCompleted {
        /// The data sender.
        peer: NodeId,
    },
}

/// One decoded RTS waiting for the next slot boundary's winner pick.
#[derive(Debug, Clone, Copy)]
struct RtsCandidate {
    src: NodeId,
    rp: u32,
    td: SimDuration,
    sent_slot: SlotIndex,
    measured_delay: SimDuration,
}

/// The reusable slotted handshake engine.
#[derive(Debug)]
pub struct SlottedCore {
    /// This node.
    pub id: NodeId,
    /// Protocol parameters.
    pub cfg: CoreConfig,
    /// Pending SDUs (head is in flight).
    pub queue: VecDeque<PendingSdu>,
    /// One-hop delay table (unused for scheduling when
    /// `announce_delays = false`, still fed by receptions).
    pub neighbors: OneHopTable,
    /// Quiet windows from overheard negotiations.
    pub quiet: QuietSchedule,
    /// Current role.
    pub role: CoreRole,
    /// When `true`, the wrapper is running its own exchange and the core
    /// must not start contention or answer RTSs.
    pub hold: bool,
    /// Set by a wrapper that transmits a slot-aligned frame of its own in
    /// the current `on_slot_start` call; the core then treats the boundary
    /// as spent (one transmission per boundary per modem). Consumed by the
    /// next `on_slot_start`.
    pub boundary_taken: bool,
    /// Contention window.
    pub cw: u32,
    /// Earliest slot for the next contention attempt.
    pub next_attempt_slot: SlotIndex,
    rts_inbox: Vec<RtsCandidate>,
    /// The last [`table_announcement`](Self::table_announcement) built,
    /// handed out again while the table's announced pairs still equal it.
    announcement: Option<DelaySnapshot>,
}

impl SlottedCore {
    /// Creates a core for node `id`.
    pub fn new(id: NodeId, cfg: CoreConfig) -> Self {
        SlottedCore {
            id,
            cfg,
            queue: VecDeque::new(),
            neighbors: OneHopTable::new(),
            quiet: QuietSchedule::new(),
            role: CoreRole::Idle,
            hold: false,
            boundary_taken: false,
            cw: cfg.base_cw,
            next_attempt_slot: 0,
            rts_inbox: Vec::new(),
            announcement: None,
        }
    }

    /// Applies random backoff after a failure.
    pub fn backoff(&mut self, ctx: &mut MacContext<'_>) {
        let slot = ctx.current_slot();
        let jitter = ctx.rng().gen_range(0..self.cw.max(1)) as u64;
        self.next_attempt_slot = slot + 1 + jitter;
        self.cw = (self.cw * 2).min(self.cfg.max_cw);
    }

    /// Pops the `count` head SDUs as delivered.
    pub fn succeed(&mut self, count: usize) {
        self.queue.drain(..count.min(self.queue.len()));
        self.cw = self.cfg.base_cw;
    }

    /// Counts a failed attempt for the head SDU; drops it past the retry
    /// budget; backs off. `reason` labels the phase of *this* failure and
    /// is reported if the drop happens now.
    pub fn attempt_failed(&mut self, ctx: &mut MacContext<'_>, reason: DropReason) {
        if let Some(head) = self.queue.front_mut() {
            head.retries += 1;
            if head.retries > self.cfg.max_retries {
                let dropped = self.queue.pop_front().expect("head exists");
                ctx.report_drop_with(dropped.sdu.id, reason);
                self.cw = self.cfg.base_cw;
            }
        }
        self.backoff(ctx);
    }

    /// The plain answer to [`CoreEvent::LostContention`]: charge the retry
    /// (contention failures consume the budget too, so a next hop that
    /// drifted out of range is not re-contended forever), back off, and
    /// report the negotiation as merely overheard. Other events pass
    /// through unchanged.
    pub fn default_lost_contention(
        &mut self,
        ctx: &mut MacContext<'_>,
        event: CoreEvent,
    ) -> CoreEvent {
        match event {
            CoreEvent::LostContention(info) => {
                self.attempt_failed(ctx, DropReason::HandshakeTimeout);
                CoreEvent::Overheard(info)
            }
            other => other,
        }
    }

    /// Quiet horizon of an overheard exchange: Data at `control_slot + 1`
    /// (CTS) or `+ 2` (RTS), the Eq-5 Ack slot, plus ω and the pair delay
    /// for the Ack to arrive — τmax in both places when the pair delay is
    /// not announced (what S-FAMA overhearers must assume).
    fn conservative_end(&self, ctx: &MacContext<'_>, info: &OverheardInfo) -> SimTime {
        let clock = ctx.clock();
        let data_slot = if info.kind == FrameKind::Cts {
            info.control_slot + 1
        } else {
            info.control_slot + 2
        };
        let tau = info.pair_delay.unwrap_or_else(|| clock.tau_max());
        let td = info.data_duration.unwrap_or_else(|| ctx.tx_duration(2_048));
        let ack_slot = clock.ack_slot(data_slot, td, tau);
        clock.start_of(ack_slot) + clock.omega() + tau
    }

    /// The one-hop entries this node piggybacks when `announce_table` is
    /// set, capped so control packets stay bounded; `None` while the table
    /// is empty. Shared by all of a frame's receivers, and by later frames
    /// too: the snapshot is rebuilt only when an observation has changed
    /// the announced `(id, delay)` pairs since the last one (a refresh
    /// that only re-dates an entry keeps it).
    pub fn table_announcement(&mut self) -> Option<DelaySnapshot> {
        const MAX_ENTRIES: usize = 16;
        if self.neighbors.is_empty() {
            return None;
        }
        let announced = || {
            self.neighbors
                .iter()
                .take(MAX_ENTRIES)
                .map(|(id, e)| (id, e.delay))
        };
        match &self.announcement {
            Some(cached) if cached.iter().copied().eq(announced()) => {}
            _ => self.announcement = Some(announced().collect()),
        }
        self.announcement.clone()
    }

    /// How many consecutive head SDUs (same next hop) one data frame will
    /// carry, and their total transmit duration.
    fn bundle_plan(&self, ctx: &MacContext<'_>) -> (SimDuration, usize) {
        let head = self.queue.front().expect("a plan needs a queued SDU");
        let Some(max_bits) = self.cfg.aggregate_max_bits else {
            return (ctx.tx_duration(head.sdu.bits), 1);
        };
        let mut total_bits = 0u64;
        let mut count = 0usize;
        for p in &self.queue {
            if p.sdu.next_hop != head.sdu.next_hop {
                break;
            }
            if count > 0 && total_bits + p.sdu.bits as u64 > max_bits as u64 {
                break;
            }
            total_bits += p.sdu.bits as u64;
            count += 1;
        }
        (
            ctx.tx_duration(total_bits.min(u32::MAX as u64) as u32),
            count,
        )
    }

    /// Enqueues an SDU.
    pub fn on_enqueue(&mut self, sdu: Sdu) {
        self.queue.push_back(PendingSdu {
            sdu,
            retries: 0,
            first_attempt_slot: None,
        });
    }

    /// Slot-boundary duties. Returns at most one notable event.
    pub fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) -> CoreEvent {
        let now = ctx.now();
        self.quiet.prune(now);
        let mut event = CoreEvent::None;
        let mut transmitted = std::mem::take(&mut self.boundary_taken);

        match self.role {
            CoreRole::Receiving {
                peer,
                ack_slot,
                data_received,
                ..
            } => {
                if slot >= ack_slot {
                    if data_received && slot == ack_slot {
                        let ack = Frame::control(FrameKind::Ack, self.id, peer, ctx.control_bits());
                        ctx.send_frame_now(ack);
                        event = CoreEvent::ReceiveCompleted { peer };
                        transmitted = true;
                    }
                    self.role = CoreRole::Idle;
                }
            }
            CoreRole::SendingData {
                peer,
                data_slot,
                ack_slot,
                bundle,
            } => {
                if slot == data_slot {
                    let head = self.queue.front().expect("SendingData with empty queue");
                    let mut sdu = head.sdu;
                    sdu.next_hop = peer;
                    let mut frame = Frame::data(FrameKind::Data, self.id, sdu);
                    if bundle > 1 {
                        let rest = self.queue.iter().take(bundle).skip(1);
                        frame = frame.with_bundle(
                            rest.map(|p| Sdu {
                                next_hop: peer,
                                ..p.sdu
                            })
                            .collect(),
                        );
                    }
                    if head.retries > 0 {
                        frame = frame.as_retransmission();
                    }
                    ctx.send_frame_now(frame);
                } else if slot > ack_slot {
                    self.attempt_failed(ctx, DropReason::RetryExhausted);
                    self.role = CoreRole::Idle;
                    event = CoreEvent::SendFailed { peer };
                }
            }
            CoreRole::Contending { peer, rts_slot, .. } => {
                if slot >= rts_slot + 2 {
                    // Contention failures consume the retry budget too —
                    // a next hop that drifted out of range must not be
                    // re-contended forever.
                    self.role = CoreRole::Idle;
                    self.attempt_failed(ctx, DropReason::HandshakeTimeout);
                    event = CoreEvent::SendFailed { peer };
                }
            }
            CoreRole::Idle => {}
        }

        if transmitted {
            // This boundary's transmit opportunity is taken by the Ack.
            self.rts_inbox.retain(|c| c.sent_slot + 1 != slot);
        } else {
            self.answer_rts_inbox(ctx, slot);
            self.maybe_contend(ctx, slot);
        }
        event
    }

    fn answer_rts_inbox(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        let clock = ctx.clock();
        // Only RTSs sent in the previous slot can be answered now; the
        // inbox empties at every answering boundary.
        self.rts_inbox.retain(|c| c.sent_slot + 1 == slot);
        let winner = self.rts_winner(ctx.now(), clock.start_of(slot + 2));
        self.rts_inbox.clear();
        let Some(winner) = winner else {
            return;
        };
        let mut cts = Frame::control(FrameKind::Cts, self.id, winner.src, ctx.control_bits())
            .with_data_duration(winner.td);
        if self.cfg.announce_delays {
            cts = cts.with_pair_delay(winner.measured_delay);
        }
        if self.cfg.announce_table {
            cts = cts.with_announced(self.table_announcement());
        }
        ctx.send_frame_now(cts);
        let tau = if self.cfg.announce_delays {
            winner.measured_delay
        } else {
            clock.tau_max()
        };
        let data_slot = slot + 1;
        self.role = CoreRole::Receiving {
            peer: winner.src,
            data_slot,
            ack_slot: clock.ack_slot(data_slot, winner.td, tau),
            data_received: false,
        };
    }

    /// The RTS to answer among the due ones left in the inbox, if this
    /// node may answer one in an exchange running from `now` to
    /// `exchange_end`.
    fn rts_winner(&self, now: SimTime, exchange_end: SimTime) -> Option<RtsCandidate> {
        if self.rts_inbox.is_empty() || self.role != CoreRole::Idle || self.hold {
            return None;
        }
        // Fig 3 "Checking Scheduling": the whole exchange must fit outside
        // known quiet windows.
        if self.quiet.overlaps(now, exchange_end) {
            return None;
        }
        let at = match self.cfg.priority {
            None => 0,
            Some(_) => {
                let keyed = self.rts_inbox.iter().map(|c| (c.src.index() as u32, c.rp));
                pick_winner(keyed).expect("candidates are non-empty")
            }
        };
        Some(self.rts_inbox[at])
    }

    fn maybe_contend(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        if self.role != CoreRole::Idle
            || self.hold
            || self.queue.is_empty()
            || slot < self.next_attempt_slot
            || self.quiet.is_quiet(ctx.now())
        {
            return;
        }
        let (td, bundle) = self.bundle_plan(ctx);
        let head = self.queue.front_mut().expect("checked non-empty");
        let peer = head.sdu.next_hop;
        let mut rts = Frame::control(FrameKind::Rts, self.id, peer, ctx.control_bits())
            .with_data_duration(td);
        if let Some(rule) = self.cfg.priority {
            let waited = slot.saturating_sub(*head.first_attempt_slot.get_or_insert(slot));
            rts = rts.with_rp(priority_value(ctx.rng(), &rule, waited));
        }
        if self.cfg.announce_delays {
            if let Some(tau) = self.neighbors.delay_of(peer) {
                rts = rts.with_pair_delay(tau);
            }
        }
        if self.cfg.announce_table {
            rts = rts.with_announced(self.table_announcement());
        }
        ctx.send_frame_now(rts);
        self.role = CoreRole::Contending {
            peer,
            rts_slot: slot,
            td,
            bundle,
        };
    }

    /// Reception handling. Returns the event the wrapper may react to.
    pub fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) -> CoreEvent {
        // §4.3: every reception refreshes the one-hop delay table.
        self.neighbors
            .observe(rx.frame.src, rx.prop_delay, ctx.now());
        let frame = rx.frame;
        let to_me = rx.addressed_to(self.id);
        let clock = ctx.clock();
        match frame.kind {
            FrameKind::Rts => {
                if to_me {
                    self.rts_inbox.push(RtsCandidate {
                        src: frame.src,
                        rp: frame.rp,
                        td: frame
                            .data_duration
                            .unwrap_or_else(|| ctx.tx_duration(2_048)),
                        sent_slot: clock.slot_of(frame.timestamp),
                        measured_delay: rx.prop_delay,
                    });
                    CoreEvent::None
                } else {
                    self.overheard(ctx, frame)
                }
            }
            FrameKind::Cts => {
                if to_me {
                    if let CoreRole::Contending {
                        peer,
                        rts_slot,
                        td,
                        bundle,
                    } = self.role
                    {
                        if frame.src == peer {
                            let data_slot = rts_slot + 2;
                            let tau = if self.cfg.announce_delays {
                                rx.prop_delay
                            } else {
                                clock.tau_max()
                            };
                            self.role = CoreRole::SendingData {
                                peer,
                                data_slot,
                                ack_slot: clock.ack_slot(data_slot, td, tau),
                                bundle,
                            };
                        }
                    }
                    CoreEvent::None
                } else {
                    self.overheard(ctx, frame)
                }
            }
            FrameKind::Data => {
                if to_me {
                    if let CoreRole::Receiving {
                        peer,
                        data_received,
                        ..
                    } = &mut self.role
                    {
                        if frame.src == *peer && !*data_received {
                            *data_received = true;
                            return CoreEvent::None;
                        }
                    }
                    CoreEvent::UnexpectedData
                } else {
                    CoreEvent::None
                }
            }
            FrameKind::Ack => {
                if to_me {
                    if let CoreRole::SendingData { peer, bundle, .. } = self.role {
                        if frame.src == peer {
                            self.succeed(bundle);
                            self.role = CoreRole::Idle;
                            return CoreEvent::SendSucceeded { peer };
                        }
                    }
                }
                CoreEvent::None
            }
            _ => CoreEvent::None,
        }
    }

    fn overheard(&mut self, ctx: &mut MacContext<'_>, frame: &Frame) -> CoreEvent {
        let info = OverheardInfo {
            kind: frame.kind,
            src: frame.src,
            dst: frame.dst,
            control_slot: ctx.clock().slot_of(frame.timestamp),
            pair_delay: frame.pair_delay,
            data_duration: frame.data_duration,
        };
        let end = self.conservative_end(ctx, &info);
        self.quiet.add(ctx.now(), end);
        if let CoreRole::Contending { peer, .. } = self.role {
            if frame.src == peer {
                self.role = CoreRole::Idle;
                return CoreEvent::LostContention(info);
            }
        }
        CoreEvent::Overheard(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uasn_phy::modem::ModemSpec;

    use crate::mac::MacCommand;
    use crate::slots::SlotClock;

    struct CoreHarness {
        core: SlottedCore,
        rng: StdRng,
        clock: SlotClock,
        spec: ModemSpec,
        commands: Vec<MacCommand>,
    }

    impl CoreHarness {
        fn new(id: u32, cfg: CoreConfig) -> Self {
            CoreHarness {
                core: SlottedCore::new(NodeId::new(id), cfg),
                rng: StdRng::seed_from_u64(3),
                clock: SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1)),
                spec: ModemSpec::new(12_000.0),
                commands: Vec::new(),
            }
        }

        fn ctx_at<R>(
            &mut self,
            now: SimTime,
            f: impl FnOnce(&mut SlottedCore, &mut MacContext<'_>) -> R,
        ) -> R {
            let mut ctx = MacContext::new(
                now,
                self.core.id,
                self.clock,
                self.spec,
                64,
                &mut self.rng,
                &mut self.commands,
            );
            f(&mut self.core, &mut ctx)
        }

        fn slot(&mut self, slot: SlotIndex) -> CoreEvent {
            let now = self.clock.start_of(slot);
            self.ctx_at(now, |core, ctx| core.on_slot_start(ctx, slot))
        }

        /// Delivers `frame` decoded at `timestamp + delay + tx_duration`
        /// and returns the decode instant with the core's event.
        fn recv_at(&mut self, frame: Frame, delay: SimDuration) -> (SimTime, CoreEvent) {
            let arrival_start = frame.timestamp + delay;
            let now = arrival_start + self.spec.tx_duration(frame.bits);
            let rx = Reception {
                frame: &frame,
                arrival_start,
                prop_delay: delay,
            };
            (
                now,
                self.ctx_at(now, |core, ctx| core.on_frame_received(ctx, &rx)),
            )
        }

        fn recv(&mut self, frame: Frame, delay: SimDuration) -> CoreEvent {
            self.recv_at(frame, delay).1
        }

        fn sent_kinds(&mut self) -> Vec<FrameKind> {
            std::mem::take(&mut self.commands)
                .into_iter()
                .filter_map(|c| match c {
                    MacCommand::SendFrame { frame, .. } => Some(frame.kind),
                    _ => None,
                })
                .collect()
        }
    }

    fn sdu_to(next: u32) -> Sdu {
        Sdu {
            id: 1,
            origin: NodeId::new(0),
            next_hop: NodeId::new(next),
            bits: 2_048,
            created: SimTime::ZERO,
            attempt: 0,
        }
    }

    fn stamped(mut f: Frame, clock: &SlotClock, slot: SlotIndex) -> Frame {
        f.timestamp = clock.start_of(slot);
        f
    }

    #[test]
    fn core_runs_the_four_way_handshake() {
        let mut h = CoreHarness::new(0, CoreConfig::default());
        let clock = h.clock;
        h.core.on_enqueue(sdu_to(5));
        h.slot(0);
        assert_eq!(h.sent_kinds(), [FrameKind::Rts]);
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(400));
        h.slot(2);
        assert_eq!(h.sent_kinds(), [FrameKind::Data]);
        // Conservative τmax scheduling: TD + τmax = 1.17 s -> ack 2 slots on.
        let ack = stamped(
            Frame::control(FrameKind::Ack, NodeId::new(5), NodeId::new(0), 64),
            &clock,
            4,
        );
        let ev = h.recv(ack, SimDuration::from_millis(400));
        assert_eq!(
            ev,
            CoreEvent::SendSucceeded {
                peer: NodeId::new(5)
            }
        );
        assert!(h.core.queue.is_empty());
    }

    #[test]
    fn core_receiver_answers_first_rts_without_priority() {
        let mut h = CoreHarness::new(5, CoreConfig::default());
        let clock = h.clock;
        for src in [3u32, 1] {
            let rts = stamped(
                Frame::control(FrameKind::Rts, NodeId::new(src), NodeId::new(5), 64)
                    .with_data_duration(SimDuration::from_micros(170_667))
                    .with_rp(src), // ignored by the baselines
                &clock,
                0,
            );
            h.recv(rts, SimDuration::from_millis(100 * (src as u64 + 1)));
        }
        h.slot(1);
        let cmds = std::mem::take(&mut h.commands);
        let cts_dst = cmds
            .iter()
            .find_map(|c| match c {
                MacCommand::SendFrame { frame, .. } if frame.kind == FrameKind::Cts => {
                    Some(frame.dst)
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(cts_dst, NodeId::new(3), "first decoded wins");
    }

    #[test]
    fn overhearing_applies_conservative_quiet() {
        let mut h = CoreHarness::new(9, CoreConfig::default());
        let clock = h.clock;
        let rts = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(1), NodeId::new(2), 64)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        let ev = h.recv(rts, SimDuration::from_millis(500));
        assert!(matches!(ev, CoreEvent::Overheard(_)));
        h.core.on_enqueue(sdu_to(1));
        // Exchange with τmax reservation: data slot 2, ack slot 2+ceil(1.17)=4;
        // quiet runs to slot-4 start + ω + τmax = exactly the slot-5 start.
        for s in 1..=4 {
            h.slot(s);
            assert_eq!(h.sent_kinds(), Vec::<FrameKind>::new(), "slot {s} quiet");
        }
        h.slot(5);
        assert_eq!(h.sent_kinds(), [FrameKind::Rts]);
    }

    #[test]
    fn hold_suppresses_contention_and_cts() {
        let mut h = CoreHarness::new(0, CoreConfig::default());
        let clock = h.clock;
        h.core.hold = true;
        h.core.on_enqueue(sdu_to(5));
        h.slot(0);
        assert_eq!(h.sent_kinds(), Vec::<FrameKind>::new());
        let rts = stamped(
            Frame::control(FrameKind::Rts, NodeId::new(3), NodeId::new(0), 64)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            0,
        );
        h.recv(rts, SimDuration::from_millis(100));
        h.slot(1);
        assert_eq!(h.sent_kinds(), Vec::<FrameKind>::new());
        h.core.hold = false;
        h.slot(2);
        assert_eq!(h.sent_kinds(), [FrameKind::Rts]);
    }

    #[test]
    fn unexpected_data_surfaces_event() {
        let mut h = CoreHarness::new(5, CoreConfig::default());
        let clock = h.clock;
        let data = stamped(
            Frame::data(FrameKind::Data, NodeId::new(0), sdu_to(5)),
            &clock,
            0,
        );
        let ev = h.recv(data, SimDuration::from_millis(300));
        assert_eq!(ev, CoreEvent::UnexpectedData);
    }

    #[test]
    fn contention_loss_backs_off() {
        let mut h = CoreHarness::new(0, CoreConfig::default());
        let clock = h.clock;
        h.core.on_enqueue(sdu_to(5));
        h.slot(0);
        h.sent_kinds();
        // Peer answers someone else.
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(7), 64)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        let (now, ev) = h.recv_at(cts, SimDuration::from_millis(300));
        assert!(matches!(ev, CoreEvent::LostContention(_)), "{ev:?}");
        assert_eq!(h.core.role, CoreRole::Idle);
        assert_eq!(h.core.next_attempt_slot, 0, "the wrapper decides first");
        let ev = h.ctx_at(now, |core, ctx| core.default_lost_contention(ctx, ev));
        assert!(matches!(ev, CoreEvent::Overheard(_)), "{ev:?}");
        assert_eq!(h.core.queue.front().unwrap().retries, 1);
        assert!(h.core.next_attempt_slot >= 2);
        assert!(h.core.cw > CoreConfig::default().base_cw);
    }

    #[test]
    fn retry_budget_drops_sdu() {
        let cfg = CoreConfig {
            max_retries: 0,
            ..CoreConfig::default()
        };
        let mut h = CoreHarness::new(0, cfg);
        let clock = h.clock;
        h.core.on_enqueue(sdu_to(5));
        h.slot(0);
        h.sent_kinds();
        let cts = stamped(
            Frame::control(FrameKind::Cts, NodeId::new(5), NodeId::new(0), 64)
                .with_data_duration(SimDuration::from_micros(170_667)),
            &clock,
            1,
        );
        h.recv(cts, SimDuration::from_millis(400));
        h.slot(2); // data out
        h.sent_kinds();
        // Never ack: at ack_slot+1 the attempt fails and the SDU is dropped
        // (max_retries = 0).
        let ev5 = h.slot(5);
        assert_eq!(
            ev5,
            CoreEvent::SendFailed {
                peer: NodeId::new(5)
            }
        );
        assert!(h.core.queue.is_empty());
    }
}
