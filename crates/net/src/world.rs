//! The network simulator: nodes + channel + MAC protocols + measurement.
//!
//! [`Simulation`] builds a deployed network from a [`SimConfig`] and a MAC
//! factory, drives it on the `uasn-sim` engine, and returns a
//! [`MetricsReport`]. Physics lives here — propagation delays and PER from
//! `uasn-phy`, collision overlap in each node's modem ledger, energy
//! integration — while protocols only see the [`MacProtocol`] callbacks.
//!
//! Event flow for one transmission: a MAC queues `SendFrame`, and the
//! world files the frame as one shared `Rc<Frame>` → `TxStart` stamps the
//! timestamp while the frame is still unshared, seizes the modem and fans
//! out `RxStart`/`RxEnd` pairs to every audible node at its propagation
//! delay, each pending reception (surface echoes too) holding a pointer
//! to that one frame → `RxEnd` consults the receiver's modem ledger
//! (overlap ⇒ collision, own-tx ⇒ half-duplex loss) and the channel's PER
//! draw, then lends the decoded frame to the receiving MAC (addressed or
//! overheard) → `TxEnd` lends it to the sender's MAC and drops the in-air
//! entry.
//!
//! The per-event maps keyed by simulator-minted integers (frame tokens,
//! reception ids, SDU ids: `tx_frames`, `pending_rx`,
//! `delivered`, the route runtime's `hops`) use the Fx hasher from
//! `uasn_sim::hash`. They are only probed, never iterated, so the hash
//! function cannot reach any output. Transport timeouts go to the event
//! queue's per-attempt FIFO lanes (`uasn_route::timeout_lane`).

use std::rc::Rc;

use rand::rngs::StdRng;

use uasn_clock::{DelayEstimator, VirtualClock};
use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::energy::EnergyMeter;
use uasn_phy::geometry::Point;
use uasn_phy::mobility::MobilityModel;
use uasn_phy::modem::{Modem, ModemSpec, ModemState, ReceptionId};
use uasn_phy::soa::PositionTable;
use uasn_route::{
    select_next_hop, timeout_lane, Candidate, ForwardPolicy, TimeoutVerdict, TransportTable,
};
use uasn_sim::engine::{Engine, EventLabel, RunStats, Schedule, StopReason};
use uasn_sim::hash::{FxHashMap, FxHashSet};
use uasn_sim::profile::{MetricsRegistry, ProfileReport};
use uasn_sim::rng::SeedFactory;
use uasn_sim::time::{SimDuration, SimTime};
use uasn_sim::trace::{field, Field, TraceLevel, Tracer};

use crate::config::SimConfig;
use crate::error::BuildNetworkError;
use crate::mac::{
    DropReason, MacCommand, MacContext, MacProtocol, MaintenanceProfile, NeighborInfoScope,
    Reception, TimerToken,
};
use crate::metrics::{DeliveryMetrics, DropVerdict, MetricsReport};
use crate::neighbor::ANNOUNCE_BITS_PER_ENTRY;
use crate::node::{NodeId, NodeInfo, NodeRole};
use crate::packet::{Frame, Sdu};
use crate::routing::uphill_candidates;
use crate::sampling::{NodeSample, Snapshot, TimeSeries};
use crate::slots::{SlotClock, SlotIndex};
use crate::topology::stranded_sensors;
use crate::traffic::TrafficPattern;

/// Builds one MAC instance per node.
pub type MacFactory<'f> = dyn Fn(NodeId) -> Box<dyn MacProtocol> + 'f;

/// Simulator events.
#[derive(Debug, Clone, PartialEq)]
enum NetEvent {
    /// Dispatch `on_start` to every MAC (fires once at t = 0).
    Start,
    /// A slot boundary.
    SlotStart(SlotIndex),
    /// Traffic source fires at `node`; recurring patterns reschedule.
    TrafficArrival { node: u32 },
    /// A queued frame's transmit time arrived.
    TxStart { node: u32, token: u64 },
    /// A transmission finished.
    TxEnd { node: u32, token: u64 },
    /// A frame's first bit reaches a receiver.
    RxStart { token: u64 },
    /// A frame's last bit reaches a receiver.
    RxEnd { token: u64 },
    /// A MAC timer arm fires; stale unless `arm` is still the tag of one of
    /// the node's armed tokens (see `NetworkWorld::timers`).
    Timer { node: u32, arm: u32 },
    /// Advance drifting nodes.
    MobilityTick,
    /// Charge periodic neighbour-maintenance costs.
    MaintenanceTick,
    /// Record a time-series snapshot and reschedule.
    SampleTick,
    /// One node's *perceived* slot boundary (non-ideal clocks only: the
    /// shared `SlotStart` broadcast splits into per-node events at each
    /// node's local reading of the boundary).
    NodeSlotStart { node: u32, slot: SlotIndex },
    /// Periodic clock-resynchronization round (non-ideal clocks with a
    /// resync model only).
    ResyncTick,
    /// An origin-side transport timeout fires for `sdu` (routed runs with
    /// transport only). Stale fires — the SDU was already acked or
    /// exhausted — are no-ops.
    RouteTimeout { sdu: u64 },
    /// The sink's end-to-end ack for `sdu` reaches its origin (routed
    /// runs with transport only).
    RouteAck { sdu: u64 },
}

// The heap moves events by value on every sift; keep them two words.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 16);

impl EventLabel for NetEvent {
    fn label(&self) -> &'static str {
        match self {
            NetEvent::Start => "start",
            NetEvent::SlotStart(_) => "slot-start",
            NetEvent::TrafficArrival { .. } => "traffic",
            NetEvent::TxStart { .. } => "tx-start",
            NetEvent::TxEnd { .. } => "tx-end",
            NetEvent::RxStart { .. } => "rx-start",
            NetEvent::RxEnd { .. } => "rx-end",
            NetEvent::Timer { .. } => "timer",
            NetEvent::MobilityTick => "mobility",
            NetEvent::MaintenanceTick => "maintenance",
            NetEvent::SampleTick => "sample",
            NetEvent::NodeSlotStart { .. } => "node-slot-start",
            NetEvent::ResyncTick => "resync",
            NetEvent::RouteTimeout { .. } => "route-timeout",
            NetEvent::RouteAck { .. } => "route-ack",
        }
    }
}

/// Aggregate sync-error observations over one run (non-ideal clocks only).
///
/// Per-node |local − global| is sampled at every resync round and once more
/// at the end of the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Number of per-node error samples taken.
    pub samples: u64,
    /// Sum of sampled |local − global|, µs.
    pub sum_abs_error_us: u64,
    /// Largest sampled |local − global|, µs.
    pub max_abs_error_us: u64,
    /// Completed resynchronization rounds.
    pub resyncs: u64,
}

impl ClockStats {
    fn record(&mut self, err: SimDuration) {
        self.samples += 1;
        self.sum_abs_error_us += err.as_micros();
        self.max_abs_error_us = self.max_abs_error_us.max(err.as_micros());
    }

    /// Mean sampled |local − global|, µs.
    pub fn mean_abs_error_us(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_abs_error_us as f64 / self.samples as f64
        }
    }
}

#[derive(Debug, Clone)]
struct PendingRx {
    node: u32,
    /// The transmission's one frame, shared with its other receptions.
    frame: Rc<Frame>,
    arrival_start: SimTime,
    /// Global send instant — the true-propagation reference. The frame's
    /// own `timestamp` is the *sender-local* reading and drifts with it.
    sent_at: SimTime,
    pre_lost: bool,
    /// Path copies of one transmission share a group: a surface echo never
    /// collides with its own direct arrival.
    group: u64,
    /// Surface echoes occupy the receiver but never decode.
    is_echo: bool,
    rid: Option<ReceptionId>,
}

/// Live state of the routing + transport subsystem; `Some` iff
/// [`SimConfig::route`] was set. Every run picks its next hops through the
/// same candidate scan and policy; what routed runs add is this state:
/// hop counting against the TTL, the `route`/`relay`/`e2e-*` trace
/// records and the transport. Absent, the world schedules no route events
/// and emits no route trace records, and the greedy policy never draws
/// the route stream, so `route: None` runs are byte-identical to
/// pre-routing builds.
#[derive(Debug)]
struct RouteRuntime {
    /// MAC hops traversed so far by each in-flight SDU copy, keyed by
    /// `(sdu id, attempt)` — the attempt is the routing header stamped on
    /// the copy, so a stale frame from an earlier transport attempt keeps
    /// its own counter instead of corrupting the retry's. Entries are
    /// removed only at points that also emit a path-closing trace record
    /// (or physically end the copy), keeping the world's hop accounting
    /// and the audit monitors' path state in lock-step.
    hops: FxHashMap<(u64, u32), u32>,
    /// Origin-side retransmission state; `Some` iff
    /// [`uasn_route::RouteConfig::transport`] was set.
    transport: Option<TransportTable>,
}

struct NetworkWorld {
    cfg: SimConfig,
    clock: SlotClock,
    spec: ModemSpec,
    channel: AcousticChannel,
    /// Memoized per-transmitter fan-out rows, the one source of audibility
    /// and one-hop delays (invalidated by mobility ticks).
    link_cache: LinkBudgetCache,
    now: SimTime,

    roles: Vec<NodeRole>,
    /// Hot per-node position state in struct-of-arrays layout: the fan-out,
    /// culling, and mobility loops stream one coordinate array at a time
    /// instead of striding over `Point` structs.
    positions: PositionTable,
    mobility_models: Vec<MobilityModel>,
    modems: Vec<Modem>,
    meters: Vec<EnergyMeter>,
    macs: Vec<Option<Box<dyn MacProtocol>>>,
    mac_rngs: Vec<StdRng>,
    maintenance: Vec<MaintenanceProfile>,

    channel_rng: StdRng,
    mobility_rng: StdRng,
    traffic_rng: StdRng,
    /// Forwarding-policy stream (`"route"`); only randomized policies ever
    /// draw it, so deriving it in every run perturbs nothing.
    route_rng: StdRng,
    /// Scratch candidate list, reused across next-hop selections so the
    /// forwarding hot path does not allocate.
    cand_buf: Vec<Candidate>,
    /// Each node's greedy next hop (`Some(None)`: stranded), memoized on
    /// first use and forgotten by every mobility tick. Greedy selection is
    /// a pure function of the positions and draws no randomness, so the
    /// memo replays the scan's answer exactly.
    greedy_hops: Vec<Option<Option<NodeId>>>,
    /// Routing + transport runtime; `Some` iff `cfg.route`.
    route: Option<RouteRuntime>,

    metrics: DeliveryMetrics,
    /// First-copy gate per `(sdu, node, copy)` triple. The copy component
    /// is 0 in legacy runs — the historical `(sdu, node)` key — and the
    /// SDU's enqueue timestamp in routed runs, so a transport retry (a
    /// genuinely new copy) can traverse nodes its lost predecessor
    /// visited while MAC-level duplicates of one copy still dedup.
    delivered: FxHashSet<(u64, u32, u64)>,
    cmd_buf: Vec<MacCommand>,
    /// Frames by token from `SendFrame` to `TxEnd`: queued until
    /// `TxStart` stamps them, then in the air. Each transmission has one
    /// allocation, which its receptions share.
    tx_frames: FxHashMap<u64, Rc<Frame>>,
    pending_rx: FxHashMap<u64, PendingRx>,
    /// Armed MAC timers per node: each token with the tag of its latest
    /// arm. Re-arming or cancelling a token only rewrites or drops its
    /// entry; the superseded `Timer` event still pops and, its tag no
    /// longer listed, is ignored — so the MAC sees exactly one `on_timer`
    /// per token, at its last arm.
    timers: Vec<Vec<(TimerToken, u32)>>,
    /// Tag for the next timer arm. Wraps; a stale event could only be
    /// mistaken for a live one after 2³² further arms while it is pending.
    next_arm: u32,
    /// Scratch for the fan-out's batched event pushes: `book_reception`
    /// stages each reception's `RxStart`/`RxEnd` pair here and
    /// `handle_tx_start` flushes them through `Schedule::at_batch` in one
    /// reserve-then-push pass. Push order equals the old per-call `sched.at`
    /// order, so event sequence numbers — and therefore equal-time FIFO
    /// ordering — are bit-identical to the unbatched path.
    event_buf: Vec<(SimTime, NetEvent)>,
    next_token: u64,
    next_sdu_id: u64,
    tracer: Tracer,
    series: Option<TimeSeries>,

    /// Per-node drifting clocks; `None` under the (default) ideal model, in
    /// which case no clock RNG stream is ever drawn, no extra events exist,
    /// and traces stay byte-identical to pre-clock builds.
    clocks: Option<Vec<VirtualClock>>,
    /// Timestamp-difference delay estimation (noise + staleness model).
    estimator: DelayEstimator,
    /// Detection-noise stream; advanced only on non-ideal decodes.
    meas_rng: StdRng,
    /// Cached worst-case per-node clock error for the run-info record.
    clock_error: SimDuration,
    clock_stats: ClockStats,
    /// Performance-observability registry (fan-out degrees, queue depths,
    /// cache counters). Disabled unless `cfg.profile`; a disabled registry
    /// records nothing and allocates nothing, and an enabled one only ever
    /// *observes* — it is never read back by protocol logic, so runs are
    /// byte-identical with profiling on or off.
    registry: MetricsRegistry,
}

impl std::fmt::Debug for NetworkWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkWorld")
            .field("nodes", &self.positions.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl NetworkWorld {
    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn sync_energy(&mut self, node: usize) {
        let state = self.modems[node].state();
        self.meters[node].set_state(self.now, state);
    }

    fn trace_fields(
        &mut self,
        level: TraceLevel,
        node: usize,
        tag: &'static str,
        detail: impl FnOnce() -> (String, Vec<Field>),
    ) {
        if self.tracer.enabled(level) {
            let (msg, fields) = detail();
            self.tracer
                .record_fields(self.now, level, Some(node), tag, msg, fields);
        }
    }

    /// Emits the run-description record every audit needs: which protocol,
    /// network shape, and the slot geometry the invariant checker replays
    /// against.
    fn trace_run_info(&mut self) {
        if !self.tracer.enabled(TraceLevel::Info) {
            return;
        }
        let protocol = self.macs[0].as_ref().map(|m| m.name()).unwrap_or("unknown");
        let sinks = self.roles.iter().filter(|r| **r == NodeRole::Sink).count();
        let mut fields = vec![
            field("protocol", protocol),
            field("nodes", self.node_count()),
            field("sinks", sinks),
            field("bitrate_bps", self.cfg.bitrate_bps),
            field("omega_us", self.clock.omega().as_micros()),
            field("tau_max_us", self.clock.tau_max().as_micros()),
            field("slot_us", self.clock.slot_len().as_micros()),
            field("mobility", self.cfg.mobility.enabled),
            // Relays always forward; the field stays for the trace layout.
            field("forwarding", true),
        ];
        // Emitted only when the run departs from the ideal-sync paper model,
        // so ideal-mode traces keep their historical byte layout.
        if !(self.cfg.slot_guard.is_zero() && self.cfg.clock.is_ideal()) {
            fields.push(field("guard_us", self.clock.guard().as_micros()));
            fields.push(field("clock_error_us", self.clock_error.as_micros()));
        }
        // Same pattern for routing: only routed runs carry the fields, so
        // `route: None` traces keep their historical byte layout.
        if let Some(route) = &self.cfg.route {
            fields.push(field("route_policy", route.policy.as_str()));
            fields.push(field("route_ttl", route.ttl));
            fields.push(field("transport", route.transport.is_some()));
        }
        self.tracer.record_fields(
            self.now,
            TraceLevel::Info,
            None,
            "run-info",
            String::new(),
            fields,
        );
    }

    /// Node-local reading of `self.now` (identity under ideal clocks).
    fn local_now(&mut self, node: usize) -> SimTime {
        match self.clocks.as_mut() {
            Some(clocks) => clocks[node].local_time(self.now),
            None => self.now,
        }
    }

    /// Converts a node-local instant back to global time. Clamped to the
    /// present for drifting clocks — the affine inverse can land a few µs
    /// either side of the true global instant, and the scheduler must never
    /// receive a time in the past.
    fn to_global(&self, node: usize, local: SimTime) -> SimTime {
        match self.clocks.as_ref() {
            Some(clocks) => clocks[node].global_for_local(local).max(self.now),
            None => local,
        }
    }

    /// Runs `f` against node `node`'s MAC and then applies the commands it
    /// queued. The MAC sees its **own** clock's reading of now; commands it
    /// schedules are converted back to global time in `apply_command`.
    fn with_mac<F>(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize, f: F)
    where
        F: FnOnce(&mut dyn MacProtocol, &mut MacContext<'_>),
    {
        debug_assert!(self.cmd_buf.is_empty());
        let local_now = self.local_now(node);
        let mut mac = self.macs[node].take().expect("MAC missing during dispatch");
        {
            let mut ctx = MacContext::new(
                local_now,
                NodeId::new(node as u32),
                self.clock,
                self.spec,
                self.cfg.control_bits,
                &mut self.mac_rngs[node],
                &mut self.cmd_buf,
            );
            f(mac.as_mut(), &mut ctx);
        }
        self.macs[node] = Some(mac);
        // Apply from the taken buffer and hand it back, so no callback
        // allocates; a nested dispatch would start from an empty buffer.
        let mut commands = std::mem::take(&mut self.cmd_buf);
        for cmd in commands.drain(..) {
            self.apply_command(sched, node, cmd);
        }
        self.cmd_buf = commands;
    }

    fn apply_command(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize, cmd: MacCommand) {
        match cmd {
            MacCommand::SendFrame { frame, at } => {
                let at = self.to_global(node, at);
                let token = self.next_token;
                self.next_token += 1;
                self.tx_frames.insert(token, Rc::new(frame));
                sched.at(
                    at,
                    NetEvent::TxStart {
                        node: node as u32,
                        token,
                    },
                );
            }
            MacCommand::SetTimer { at, token } => {
                let at = self.to_global(node, at);
                let arm = self.next_arm;
                self.next_arm = arm.wrapping_add(1);
                let armed = &mut self.timers[node];
                match armed.iter_mut().find(|(t, _)| *t == token) {
                    Some(entry) => entry.1 = arm,
                    None => armed.push((token, arm)),
                }
                sched.at(
                    at,
                    NetEvent::Timer {
                        node: node as u32,
                        arm,
                    },
                );
            }
            MacCommand::CancelTimer { token } => {
                self.timers[node].retain(|&(t, _)| t != token);
            }
            MacCommand::SduDropped { id, reason } => {
                self.metrics.record_mac_drop(self.now, id);
                self.metrics.record_drop(match reason {
                    DropReason::RetryExhausted => DropVerdict::MacDrop,
                    DropReason::HandshakeTimeout => DropVerdict::HandshakeTimeout,
                    DropReason::QueueOverflow => DropVerdict::QueueOverflow,
                });
                self.trace_fields(TraceLevel::Debug, node, "sdu-drop", || {
                    (
                        format!("sdu {id} dropped by MAC ({})", reason.as_str()),
                        vec![field("sdu", id), field("reason", reason.as_str())],
                    )
                });
            }
        }
    }

    fn handle_tx_start(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize, token: u64) {
        let Some(mut frame) = self.tx_frames.remove(&token) else {
            return;
        };
        if self.modems[node].is_transmitting() {
            self.metrics.record_drop(DropVerdict::ModemBusy);
            self.trace_fields(TraceLevel::Debug, node, "tx-drop", || {
                (
                    format!("{frame} dropped: modem busy"),
                    vec![
                        field("reason", "modem-busy"),
                        field("kind", frame.kind.label()),
                        field("src", frame.src.index()),
                        field("dst", frame.dst.index()),
                        field("bits", frame.bits),
                    ],
                )
            });
            return;
        }
        // §4.3: the frame carries the *sender's* clock reading, which is
        // what receivers difference against. Identical to `self.now` under
        // ideal clocks.
        Rc::get_mut(&mut frame)
            .expect("a frame is unshared until it starts")
            .timestamp = self.local_now(node);
        let duration = self.spec.tx_duration(frame.bits);
        self.modems[node].begin_transmit(self.now, self.now + duration);
        self.sync_energy(node);
        self.metrics.transmission_started(self.now);

        let counters = &mut self.metrics.per_node[node];
        if frame.kind.is_data() {
            counters.data_bits_sent += frame.bits as u64;
            if frame.retx {
                counters.retx_bits += frame.bits as u64;
            }
        } else {
            counters.control_bits_sent += frame.bits as u64;
        }
        let piggyback = self.maintenance[node].piggyback_bits;
        if piggyback > 0 {
            self.metrics.per_node[node].maintenance_bits += piggyback;
            self.meters[node].charge_maintenance_bits(piggyback);
        }
        self.trace_fields(TraceLevel::Debug, node, "tx", || {
            let mut fields = vec![
                field("kind", frame.kind.label()),
                field("dst", frame.dst.index()),
                field("bits", frame.bits),
                field("dur_us", duration.as_micros()),
            ];
            if let Some(tau) = frame.pair_delay {
                fields.push(field("pair_delay_us", tau.as_micros()));
            }
            if let Some(td) = frame.data_duration {
                fields.push(field("data_dur_us", td.as_micros()));
            }
            if let Some(sdu) = &frame.sdu {
                fields.push(field("sdu", sdu.id));
                fields.push(field("origin", sdu.origin.index()));
                if frame.retx {
                    fields.push(field("retx", true));
                }
            }
            if !frame.bundle.is_empty() {
                fields.push(field("bundle", frame.bundle.len()));
            }
            (frame.to_string(), fields)
        });

        // Fan out arrivals to every audible node, in ascending receiver
        // order from the memoized row: the channel RNG is drawn once per
        // receiver in that order, so the row's order is part of the run.
        debug_assert!(self.event_buf.is_empty());
        self.link_cache
            .ensure_row(&self.channel, &self.positions, node);
        let fanout = self.link_cache.row_len(node);
        for k in 0..fanout {
            let link = self.link_cache.link_at(node, k);
            let pre_lost = !self.channel.draw_delivery_at(
                &mut self.channel_rng,
                link.distance_m,
                link.snr_db,
                frame.bits,
            );
            let arrival = PendingRx {
                node: link.rx,
                frame: Rc::clone(&frame),
                arrival_start: self.now + link.delay,
                sent_at: self.now,
                pre_lost,
                group: token,
                is_echo: false,
                rid: None,
            };
            // Surface-bounce echo (when the channel models multipath): a
            // delayed, data-less copy that occupies the receiver.
            let echo = link.echo_delay.map(|echo_delay| PendingRx {
                arrival_start: self.now + echo_delay,
                pre_lost: true,
                is_echo: true,
                ..arrival.clone()
            });
            self.book_reception(arrival, duration);
            if let Some(echo) = echo {
                self.book_reception(echo, duration);
            }
        }
        // One reserve + push pass for the whole fan-out instead of 2(+2)
        // heap pushes per receiver. The drain preserves push order, so the
        // queue assigns the same sequence numbers the per-call path would.
        let mut buf = std::mem::take(&mut self.event_buf);
        sched.at_batch(buf.drain(..));
        self.event_buf = buf;
        self.registry.observe("net.fanout", fanout as u64);

        self.tx_frames.insert(token, frame);
        sched.at(
            self.now + duration,
            NetEvent::TxEnd {
                node: node as u32,
                token,
            },
        );
    }

    /// Books one reception — a direct arrival or a surface echo: mints
    /// its token, files it as pending and stages its `RxStart`/`RxEnd`
    /// pair into [`Self::event_buf`] (the caller flushes the whole fan-out
    /// in one batch). Token allocation order is part of the determinism
    /// contract the golden traces pin.
    fn book_reception(&mut self, rx: PendingRx, duration: SimDuration) {
        let token = self.next_token;
        self.next_token += 1;
        let start = rx.arrival_start;
        self.pending_rx.insert(token, rx);
        self.event_buf.push((start, NetEvent::RxStart { token }));
        self.event_buf
            .push((start + duration, NetEvent::RxEnd { token }));
    }

    fn handle_tx_end(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize, token: u64) {
        let frame = self
            .tx_frames
            .remove(&token)
            .expect("TxEnd without inflight frame");
        self.modems[node].end_transmit(self.now);
        self.sync_energy(node);
        self.metrics.transmission_ended(self.now);
        self.with_mac(sched, node, |mac, ctx| mac.on_frame_sent(ctx, &frame));
    }

    fn handle_rx_start(&mut self, token: u64) {
        let entry = self
            .pending_rx
            .get_mut(&token)
            .expect("RxStart without pending reception");
        let node = entry.node as usize;
        let duration = self.spec.tx_duration(entry.frame.bits);
        let rid =
            self.modems[node].begin_reception_grouped(self.now, self.now + duration, entry.group);
        entry.rid = Some(rid);
        self.sync_energy(node);
    }

    fn handle_rx_end(&mut self, sched: &mut Schedule<'_, NetEvent>, token: u64) {
        let entry = self
            .pending_rx
            .remove(&token)
            .expect("RxEnd without pending reception");
        let node = entry.node as usize;
        let rid = entry.rid.expect("reception never started");
        let survived = self.modems[node].end_reception(self.now, rid);
        self.sync_energy(node);
        if entry.is_echo {
            // Echoes only occupy the channel; nothing to decode.
            return;
        }
        if !survived || entry.pre_lost {
            let reason = if survived { "channel" } else { "collision" };
            if survived {
                // A PER draw took the frame; collisions and half-duplex
                // losses are already counted by the modem ledger and are
                // outside the drop-verdict taxonomy.
                self.metrics.record_drop(DropVerdict::PerLoss);
            }
            self.trace_fields(TraceLevel::Debug, node, "rx-lost", || {
                (
                    format!("{} ({reason})", entry.frame),
                    vec![
                        field("reason", reason),
                        field("kind", entry.frame.kind.label()),
                        field("src", entry.frame.src.index()),
                        field("dst", entry.frame.dst.index()),
                        field("bits", entry.frame.bits),
                        field("start_us", entry.arrival_start.as_micros()),
                    ],
                )
            });
            return;
        }
        let frame = entry.frame;
        // True propagation for the trace: global send → global first-bit
        // arrival. (Equals `arrival − frame.timestamp` under ideal clocks.)
        let prop_delay = entry.arrival_start.duration_since(entry.sent_at);
        // What the receiver *measures* (§4.3): the sender-local timestamp
        // differenced against its own local arrival reading — it knows the
        // frame duration exactly, so it back-dates from the decode instant —
        // plus one detection-noise draw. Both endpoints' clock errors leak
        // into this value; under ideal clocks it is exactly `prop_delay` and
        // the noise stream is never touched.
        let drifting = self.clocks.is_some();
        let (arrival_seen, measured) = if drifting {
            let local_arrival =
                uasn_phy::timestamp::rx_arrival(self.local_now(node), self.spec, frame.bits);
            let raw = self.estimator.estimate(frame.timestamp, local_arrival);
            (local_arrival, self.estimator.noisy(raw, &mut self.meas_rng))
        } else {
            (entry.arrival_start, prop_delay)
        };

        // Deliver to the MAC first (it may answer with an Ack schedule)…
        let reception = Reception {
            frame: &frame,
            arrival_start: arrival_seen,
            prop_delay: measured,
        };
        let me = NodeId::new(entry.node);
        let addressed = reception.addressed_to(me);
        self.trace_fields(TraceLevel::Debug, node, "rx", || {
            let mut fields = vec![
                field("kind", frame.kind.label()),
                field("src", frame.src.index()),
                field("dst", frame.dst.index()),
                field("bits", frame.bits),
                field("start_us", entry.arrival_start.as_micros()),
                field("prop_us", prop_delay.as_micros()),
                field("addressed", addressed),
            ];
            if drifting {
                fields.push(field("meas_us", measured.as_micros()));
            }
            if let Some(sdu) = &frame.sdu {
                fields.push(field("sdu", sdu.id));
                fields.push(field("origin", sdu.origin.index()));
            }
            (frame.to_string(), fields)
        });
        self.with_mac(sched, node, |mac, ctx| {
            mac.on_frame_received(ctx, &reception)
        });

        // …then account data deliveries (every SDU riding the frame) and
        // forward toward the surface.
        if addressed && frame.kind.is_data() {
            for &sdu in frame.sdus() {
                let copy = if self.route.is_some() {
                    sdu.created.as_micros()
                } else {
                    0
                };
                let first_copy = self.delivered.insert((sdu.id, entry.node, copy));
                if !first_copy {
                    continue;
                }
                self.metrics.per_node[sdu.origin.index()].origin_bits_delivered += sdu.bits as u64;
                let counters = &mut self.metrics.per_node[node];
                counters.data_bits_received += sdu.bits as u64;
                counters.sdus_received += 1;
                if frame.kind == crate::packet::FrameKind::ExData {
                    counters.extra_bits_received += sdu.bits as u64;
                }
                self.metrics
                    .record_delivery_latency(self.now.duration_since(sdu.created));
                self.metrics.record_mac_delivery(self.now, sdu.id);
                if self.roles[node] == NodeRole::Sink {
                    let e2e = self.metrics.record_sink_arrival(self.now, sdu.id, sdu.bits);
                    self.trace_fields(TraceLevel::Info, node, "sink", || {
                        let mut fields = vec![
                            field("sdu", sdu.id),
                            field("origin", sdu.origin.index()),
                            field("bits", sdu.bits),
                        ];
                        if let Some(e2e) = e2e {
                            fields.push(field("e2e_us", e2e.as_micros()));
                        }
                        (
                            format!("sdu {} from {} reached sink", sdu.id, sdu.origin),
                            fields,
                        )
                    });
                    if self.route.is_some() {
                        self.route_sink_arrival(sched, node, &sdu, e2e);
                    }
                } else {
                    self.relay(sched, node, sdu);
                }
            }
        }
    }

    /// `node`'s next hop: the one uphill candidate scan, then the routing
    /// policy's choice among the candidates — greedy when the run has no
    /// routing configuration. Greedy never draws the route stream.
    fn next_hop(&mut self, node: usize) -> Option<NodeId> {
        let policy = self.cfg.route.map_or(ForwardPolicy::Greedy, |r| r.policy);
        let greedy = policy == ForwardPolicy::Greedy;
        if greedy {
            if let Some(hop) = self.greedy_hops[node] {
                return hop;
            }
        }
        uphill_candidates(
            &self.positions,
            node,
            self.channel.max_range_m(),
            &mut self.cand_buf,
        );
        let hop = select_next_hop(policy, &self.cand_buf, &mut self.route_rng).map(NodeId::new);
        if greedy {
            self.greedy_hops[node] = Some(hop);
        }
        hop
    }

    /// Sends `sdu` one hop on from `node`: the one step by which every SDU
    /// leaves a node — fresh injection, relay or transport retry. With a
    /// next hop, the copy is stamped with it and the enqueue time, `stage`
    /// records the caller's own bookkeeping for it, and the MAC takes it.
    /// Without one the SDU is counted unroutable and, in routed runs, its
    /// drop record is emitted at `hops` traversed. Returns whether the
    /// copy was enqueued.
    fn send_hop(
        &mut self,
        sched: &mut Schedule<'_, NetEvent>,
        node: usize,
        sdu: Sdu,
        hops: u32,
        stage: impl FnOnce(&mut Self, &mut Schedule<'_, NetEvent>, &Sdu),
    ) -> bool {
        let Some(next) = self.next_hop(node) else {
            self.metrics.record_drop(DropVerdict::NoAudibleReceiver);
            if self.route.is_some() {
                self.trace_route_drop(node, &sdu, hops, "unroutable");
            }
            return false;
        };
        let sdu = Sdu {
            next_hop: next,
            created: self.now,
            ..sdu
        };
        stage(self, sched, &sdu);
        self.with_mac(sched, node, |mac, ctx| mac.on_enqueue(ctx, sdu));
        self.observe_queue_depth(node);
        true
    }

    /// The `enq` record of an SDU entering `node`'s MAC queue: freshly
    /// generated (`fwd` false) or, in legacy runs, relayed.
    fn trace_enq(&mut self, node: usize, sdu: &Sdu, fwd: bool) {
        let (id, origin, next, bits) = (sdu.id, sdu.origin, sdu.next_hop, sdu.bits);
        self.trace_fields(TraceLevel::Debug, node, "enq", || {
            let msg = if fwd {
                format!("sdu {id} forwarded toward {next}")
            } else {
                format!("sdu {id} enqueued for {next}")
            };
            (
                msg,
                vec![
                    field("sdu", id),
                    field("origin", origin.index()),
                    field("next_hop", next.index()),
                    field("bits", bits),
                    field("fwd", fwd),
                ],
            )
        });
    }

    /// Whether the transport still holds an in-flight entry for `sdu` —
    /// i.e. a copy-level loss now is *not* the SDU's terminal fate.
    fn route_retry_pending(&self, sdu: u64) -> bool {
        self.route
            .as_ref()
            .and_then(|r| r.transport.as_ref())
            .is_some_and(|t| t.pending(sdu).is_some())
    }

    /// Emits the copy-level or terminal drop record for a routed loss:
    /// `relay-drop` while a transport retry can still rescue the SDU,
    /// `e2e-drop` when this loss is final.
    fn trace_route_drop(&mut self, node: usize, sdu: &Sdu, hops: u32, reason: &'static str) {
        let tag = if self.route_retry_pending(sdu.id) {
            "relay-drop"
        } else {
            "e2e-drop"
        };
        let (id, origin, attempt) = (sdu.id, sdu.origin, sdu.attempt);
        self.trace_fields(TraceLevel::Info, node, tag, || {
            (
                format!("sdu {id} lost at hop {hops} ({reason})"),
                vec![
                    field("sdu", id),
                    field("origin", origin.index()),
                    field("attempt", attempt),
                    field("hops", hops),
                    field("reason", reason),
                ],
            )
        });
    }

    /// Origin-side routing bookkeeping for a freshly injected (or
    /// retried) SDU copy that found a next hop: the `route` trace record,
    /// the hop counter, and — on first injection with transport — the
    /// pending-table entry plus its armed timeout.
    fn route_register_origin(
        &mut self,
        sched: &mut Schedule<'_, NetEvent>,
        node: usize,
        sdu: &Sdu,
    ) {
        let (id, next, bits, attempt) = (sdu.id, sdu.next_hop, sdu.bits, sdu.attempt);
        self.trace_fields(TraceLevel::Info, node, "route", || {
            (
                format!("sdu {id} routed toward {next} (attempt {attempt})"),
                vec![
                    field("sdu", id),
                    field("origin", node),
                    field("next_hop", next.index()),
                    field("attempt", attempt),
                ],
            )
        });
        let now_us = self.now.as_micros();
        let route = self.route.as_mut().expect("routed run");
        route.hops.insert((id, attempt), 0);
        if attempt == 0 {
            if let Some(table) = route.transport.as_mut() {
                let deadline_us = table.register(id, node as u32, bits, now_us);
                sched.at_lane(
                    timeout_lane(0),
                    SimTime::from_micros(deadline_us),
                    NetEvent::RouteTimeout { sdu: id },
                );
            }
        }
    }

    /// Forwards an SDU copy that reached the non-sink `node`. Legacy runs
    /// re-enqueue it toward the surface; routed runs first charge the hop
    /// against the TTL. A routed copy lost here (TTL spent or no next hop)
    /// is non-terminal under a pending transport entry (`relay-drop`) and
    /// the SDU's end-to-end fate without one (`e2e-drop`).
    fn relay(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize, sdu: Sdu) {
        let (Some(route), Some(rc)) = (self.route.as_mut(), self.cfg.route) else {
            self.send_hop(sched, node, sdu, 0, |w, _, fwd| {
                w.trace_enq(node, fwd, true)
            });
            return;
        };
        let ttl = rc.ttl;
        let copy = (sdu.id, sdu.attempt);
        let traversed = route.hops.get(&copy).copied().unwrap_or(0) + 1;
        route.hops.insert(copy, traversed);
        let sent = if traversed >= ttl {
            self.metrics.record_drop(DropVerdict::TtlExhausted);
            self.trace_route_drop(node, &sdu, traversed, "ttl-exhausted");
            false
        } else {
            self.send_hop(sched, node, sdu, traversed, |w, _, fwd| {
                let (id, origin, next, attempt, bits) =
                    (fwd.id, fwd.origin, fwd.next_hop, fwd.attempt, fwd.bits);
                w.trace_fields(TraceLevel::Info, node, "relay", || {
                    (
                        format!("sdu {id} relayed toward {next} (hop {traversed})"),
                        vec![
                            field("sdu", id),
                            field("origin", origin.index()),
                            field("next_hop", next.index()),
                            field("attempt", attempt),
                            field("hops", traversed),
                            field("bits", bits),
                        ],
                    )
                });
            })
        };
        if !sent {
            // The drop record closed this copy's audit path; its hop
            // counter goes with it (other copies keep theirs).
            self.route.as_mut().expect("routed run").hops.remove(&copy);
        }
    }

    /// Completes a routed SDU's journey at a sink: record the path
    /// length, emit `e2e-deliver`, and (with transport) launch the ack
    /// back toward the origin at one direct propagation delay — the
    /// abstract out-of-band ack channel of the minimal transport.
    fn route_sink_arrival(
        &mut self,
        sched: &mut Schedule<'_, NetEvent>,
        node: usize,
        sdu: &Sdu,
        e2e: Option<SimDuration>,
    ) {
        let route = self.route.as_mut().expect("routed run");
        // The copy physically ends at the sink either way; its hop
        // counter is done (a sink never relays).
        let counted = route.hops.remove(&(sdu.id, sdu.attempt));
        // Duplicate copy or late attempt: the SDU already completed.
        let Some(e2e) = e2e else { return };
        let hops = counted.unwrap_or(0) + 1;
        self.metrics.path_hops.record(u64::from(hops));
        let (id, origin, attempt) = (sdu.id, sdu.origin, sdu.attempt);
        self.trace_fields(TraceLevel::Info, node, "e2e-deliver", || {
            (
                format!("sdu {id} delivered end-to-end in {hops} hops"),
                vec![
                    field("sdu", id),
                    field("origin", origin.index()),
                    field("sink", node),
                    field("attempt", attempt),
                    field("hops", hops),
                    field("e2e_us", e2e.as_micros()),
                ],
            )
        });
        let has_transport = self.route.as_ref().expect("routed run").transport.is_some();
        if has_transport {
            let delay = self
                .channel
                .propagation_delay(self.positions.get(node), self.positions.get(origin.index()));
            sched.at(self.now + delay, NetEvent::RouteAck { sdu: id });
        }
    }

    /// An armed transport timeout fired. Stale fires (already acked or
    /// exhausted) are no-ops; live ones either re-inject the SDU at its
    /// origin with the backoff-doubled deadline, or retire it as a
    /// terminal retry-budget loss.
    fn handle_route_timeout(&mut self, sched: &mut Schedule<'_, NetEvent>, sdu: u64) {
        let now_us = self.now.as_micros();
        let outcome = {
            let Some(route) = self.route.as_mut() else {
                return;
            };
            let Some(table) = route.transport.as_mut() else {
                return;
            };
            let Some(outcome) = table.on_timeout(sdu, now_us) else {
                return;
            };
            outcome
        };
        let (entry, verdict) = outcome;
        let origin = entry.origin as usize;
        match verdict {
            TimeoutVerdict::Retry { deadline_us } => {
                sched.at_lane(
                    timeout_lane(entry.attempts),
                    SimTime::from_micros(deadline_us),
                    NetEvent::RouteTimeout { sdu },
                );
                let me = NodeId::new(entry.origin);
                let retry = Sdu {
                    id: sdu,
                    origin: me,
                    next_hop: me,
                    bits: entry.bits,
                    created: self.now,
                    attempt: entry.attempts,
                };
                // Without a next hop this attempt is burnt; later timeouts
                // may still retry (mobility can restore a neighbour).
                self.send_hop(sched, origin, retry, 0, |w, sched, fwd| {
                    w.route_register_origin(sched, origin, fwd);
                });
            }
            TimeoutVerdict::Exhausted => {
                self.metrics.record_drop(DropVerdict::RetryBudgetExhausted);
                let attempts = entry.attempts;
                // The terminal e2e-drop record below closes every audit
                // path of this SDU, so all copies' hop counters go too.
                let route = self.route.as_mut().expect("routed run");
                for a in 0..=attempts {
                    route.hops.remove(&(sdu, a));
                }
                self.trace_fields(TraceLevel::Info, origin, "e2e-drop", || {
                    (
                        format!("sdu {sdu} lost end-to-end (retry budget exhausted)"),
                        vec![
                            field("sdu", sdu),
                            field("origin", origin),
                            field("attempts", attempts),
                            field("reason", "retry-exhausted"),
                        ],
                    )
                });
            }
        }
    }

    /// The sink's end-to-end ack reached the origin: retire the pending
    /// transport entry (duplicates and post-exhaustion acks are no-ops).
    fn handle_route_ack(&mut self, sdu: u64) {
        if let Some(table) = self.route.as_mut().and_then(|r| r.transport.as_mut()) {
            table.ack(sdu);
        }
    }

    /// Records the node's post-enqueue MAC queue depth into the
    /// performance registry. Gated on the registry being enabled so the
    /// unprofiled hot path never pays the virtual `queue_len` call.
    fn observe_queue_depth(&mut self, node: usize) {
        if self.registry.is_enabled() {
            let depth = self.macs[node]
                .as_ref()
                .map(|mac| mac.queue_len() as u64)
                .unwrap_or(0);
            self.registry.observe("net.queue_depth", depth);
        }
    }

    fn handle_traffic(&mut self, sched: &mut Schedule<'_, NetEvent>, node: usize) {
        let sdu_id = self.next_sdu_id;
        self.next_sdu_id += 1;
        self.metrics.per_node[node].sdus_generated += 1;
        let bits = match self.cfg.data_bits_range {
            Some((min, max)) => {
                use rand::Rng;
                self.traffic_rng.gen_range(min..=max)
            }
            None => self.cfg.data_bits,
        };
        let me = NodeId::new(node as u32);
        let sdu = Sdu {
            id: sdu_id,
            origin: me,
            next_hop: me,
            bits,
            created: self.now,
            attempt: 0,
        };
        // An SDU unroutable at its origin is terminal even with transport:
        // it was never registered, so there is nothing to retransmit.
        let sent = self.send_hop(sched, node, sdu, 0, |w, sched, sdu| {
            w.metrics.record_sdu_generated(w.now, sdu.id);
            if w.cfg.traffic.is_batch() {
                w.metrics.register_batch_sdu(Some(sdu.id));
            }
            w.trace_enq(node, sdu, false);
            if w.route.is_some() {
                w.route_register_origin(sched, node, sdu);
            }
        });
        if !sent && self.cfg.traffic.is_batch() {
            // An unroutable batch SDU would deadlock completion; count the
            // arrival as (vacuously) done.
            self.metrics.register_batch_sdu(None);
        }
        if let Some(next) = self.next_arrival(self.now) {
            sched.at(next, NetEvent::TrafficArrival { node: node as u32 });
        }
    }

    /// One sensor's next arrival after `after`, if it falls inside the
    /// horizon; always `None` for batch traffic, which is seeded up front.
    fn next_arrival(&mut self, after: SimTime) -> Option<SimTime> {
        let (bits, sensors) = (self.cfg.data_bits, self.cfg.sensors);
        self.cfg
            .traffic
            .next_arrival(&mut self.traffic_rng, after, bits, sensors)
            .filter(|&t| t < self.cfg.horizon())
    }

    fn handle_mobility_tick(&mut self, sched: &mut Schedule<'_, NetEvent>) {
        let dt = self.cfg.mobility.update_interval;
        let region = self.cfg.deployment.region();
        for i in 0..self.node_count() {
            let model = self.mobility_models[i];
            if model.is_mobile() {
                let next = model.step(
                    &mut self.mobility_rng,
                    self.positions.get(i),
                    &region,
                    dt.as_secs_f64(),
                );
                self.positions.set(i, next);
                // Incremental index update: O(moved) instead of a rebuild.
                self.link_cache.note_move(i as u32, next);
            }
        }
        // Positions changed: every cached fan-out row and next hop is now
        // a lie.
        self.link_cache.invalidate();
        self.greedy_hops.fill(None);
        sched.after(dt, NetEvent::MobilityTick);
    }

    fn handle_maintenance_tick(&mut self, sched: &mut Schedule<'_, NetEvent>) {
        let mut interval = None;
        for node in 0..self.node_count() {
            let profile = self.maintenance[node];
            let Some(period) = profile.periodic_refresh else {
                continue;
            };
            interval = Some(period);
            let bits = self.maintenance_refresh_bits(node, profile.scope);
            if bits > 0 {
                self.metrics.per_node[node].maintenance_bits += bits;
                self.meters[node].charge_maintenance_bits(bits);
            }
        }
        if let Some(period) = interval {
            sched.after(period, NetEvent::MaintenanceTick);
        }
    }

    /// Bits one table refresh costs `node` right now. A refreshing node
    /// re-broadcasts only its **own** one-hop table (neighbours assemble
    /// two-hop views by listening), so the cost is one entry per audible
    /// neighbour regardless of scope; the scope decides whether refreshes
    /// happen at all and how often (the protocol's `periodic_refresh`).
    fn maintenance_refresh_bits(&mut self, node: usize, scope: NeighborInfoScope) -> u64 {
        if scope == NeighborInfoScope::None {
            return 0;
        }
        self.audible_degree(node) as u64 * ANNOUNCE_BITS_PER_ENTRY
    }

    /// How many nodes can hear `node` right now (its one-hop degree).
    fn audible_degree(&mut self, node: usize) -> usize {
        self.link_cache
            .ensure_row(&self.channel, &self.positions, node);
        self.link_cache.row_len(node)
    }

    /// One resynchronization round: sample every node's sync error into the
    /// run statistics, then pull its clock back to within the configured
    /// residual of true time.
    fn handle_resync_tick(&mut self, sched: &mut Schedule<'_, NetEvent>) {
        let Some(resync) = self.cfg.clock.resync else {
            return;
        };
        let now = self.now;
        if let Some(clocks) = self.clocks.as_mut() {
            for clock in clocks.iter_mut() {
                let err = clock.error_at(now);
                self.clock_stats.record(err);
                clock.resync(resync.residual, now);
            }
            self.clock_stats.resyncs += 1;
            sched.after(resync.period, NetEvent::ResyncTick);
        }
    }

    fn handle_sample_tick(&mut self, sched: &mut Schedule<'_, NetEvent>) {
        let Some(series) = self.series.as_mut() else {
            return;
        };
        let interval = series.interval;
        let n = self.node_count();
        let busy = self
            .modems
            .iter()
            .filter(|m| m.state() != ModemState::Idle)
            .count();
        let totals = |f: &dyn Fn(&crate::metrics::NodeCounters) -> u64| -> u64 {
            self.metrics.per_node.iter().map(f).sum()
        };
        let snapshot = Snapshot {
            time: self.now,
            channel_busy_fraction: busy as f64 / n as f64,
            sdus_generated: totals(&|c| c.sdus_generated),
            sdus_received: totals(&|c| c.sdus_received),
            data_bits_received: totals(&|c| c.data_bits_received),
            control_bits_sent: totals(&|c| c.control_bits_sent),
            // Per-node counters only learn collisions at finalize; read the
            // live ledgers instead.
            collisions: self.modems.iter().map(|m| m.collisions()).sum(),
            nodes: (0..n)
                .map(|i| {
                    let mac = self.macs[i].as_ref().expect("MAC present between events");
                    NodeSample {
                        queue_len: mac.queue_len() as u32,
                        mac_state: mac.state_label(),
                    }
                })
                .collect(),
        };
        self.series.as_mut().expect("checked above").push(snapshot);
        sched.after(interval, NetEvent::SampleTick);
    }

    fn finalize(&mut self, end: SimTime) -> MetricsReport {
        let duration_s = end.duration_since(SimTime::ZERO).as_secs_f64();
        for node in 0..self.node_count() {
            let counters = &mut self.metrics.per_node[node];
            counters.collisions = self.modems[node].collisions();
            counters.half_duplex_losses = self.modems[node].half_duplex_losses();
            // Active-listening surcharge (§5.2 "power for waiting"): scales
            // with how many neighbours the protocol must monitor.
            let mw = self.maintenance[node].listen_mw_per_neighbor;
            if mw > 0.0 {
                // Only the count is needed: no row is built this late.
                let degree = self.link_cache.degree(&self.channel, &self.positions, node) as f64;
                self.meters[node].charge_joules(mw / 1_000.0 * degree * duration_s);
            }
        }
        let duration = end.duration_since(SimTime::ZERO);
        let drops = self.metrics.drops;
        let totals = |f: &dyn Fn(&crate::metrics::NodeCounters) -> u64| -> u64 {
            self.metrics.per_node.iter().map(f).sum()
        };
        let data_bits_received = totals(&|c| c.data_bits_received);
        let total_energy_j: f64 = self.meters.iter().map(|m| m.total_joules(end)).sum();
        let avg_power_mw = self
            .meters
            .iter()
            .map(|m| m.average_power_mw(SimTime::ZERO, end))
            .sum::<f64>()
            / self.node_count() as f64;
        let channel_utilization = if duration.is_zero() {
            0.0
        } else {
            self.meters
                .iter()
                .map(|m| {
                    let (tx, rx, _) = m.dwell_times();
                    (tx + rx).as_secs_f64() / duration.as_secs_f64()
                })
                .sum::<f64>()
                / self.node_count() as f64
        };
        MetricsReport {
            protocol: self.macs[0].as_ref().map(|m| m.name()).unwrap_or("unknown"),
            nodes: self.node_count(),
            duration,
            throughput_kbps: uasn_sim::stats::kbps(data_bits_received, duration),
            data_bits_received,
            extra_bits_received: totals(&|c| c.extra_bits_received),
            sdus_received: totals(&|c| c.sdus_received),
            sdus_generated: totals(&|c| c.sdus_generated),
            sink_bits_received: self.metrics.sink_bits,
            avg_power_mw,
            channel_utilization,
            total_energy_j,
            overhead_bits: totals(&|c| c.overhead_bits()),
            control_bits_sent: totals(&|c| c.control_bits_sent),
            maintenance_bits: totals(&|c| c.maintenance_bits),
            retx_bits: totals(&|c| c.retx_bits),
            collisions: totals(&|c| c.collisions),
            half_duplex_losses: totals(&|c| c.half_duplex_losses),
            drops,
            tx_dropped: drops.count(DropVerdict::ModemBusy),
            unroutable: drops.count(DropVerdict::NoAudibleReceiver),
            ttl_dropped: drops.count(DropVerdict::TtlExhausted),
            retry_dropped: drops.count(DropVerdict::RetryBudgetExhausted),
            sdus_dropped: drops.count(DropVerdict::MacDrop)
                + drops.count(DropVerdict::HandshakeTimeout)
                + drops.count(DropVerdict::QueueOverflow),
            e2e_delivered: self.metrics.e2e_hist.count(),
            mean_latency_s: self.metrics.latency.mean(),
            latency_p95_s: self.metrics.latency_hist.quantile(0.95),
            mean_concurrent_tx: self.metrics.concurrency.average(end),
            fairness_index: {
                let allocations: Vec<f64> = self
                    .metrics
                    .per_node
                    .iter()
                    .filter(|c| c.sdus_generated > 0)
                    .map(|c| c.origin_bits_delivered as f64)
                    .collect();
                uasn_sim::stats::jain_fairness(&allocations)
            },
            completion_time: self.metrics.completion_time,
            delivery_latency_us: self.metrics.delivery_hist.clone(),
            e2e_latency_us: self.metrics.e2e_hist.clone(),
            path_hops: self.metrics.path_hops.clone(),
        }
    }
}

impl uasn_sim::engine::World for NetworkWorld {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, sched: &mut Schedule<'_, NetEvent>) {
        self.now = now;
        match event {
            NetEvent::Start => {
                self.trace_run_info();
                for node in 0..self.node_count() {
                    self.with_mac(sched, node, |mac, ctx| mac.on_start(ctx));
                }
            }
            NetEvent::SlotStart(slot) => {
                for node in 0..self.node_count() {
                    self.with_mac(sched, node, |mac, ctx| mac.on_slot_start(ctx, slot));
                }
                sched.at(self.clock.start_of(slot + 1), NetEvent::SlotStart(slot + 1));
            }
            NetEvent::TrafficArrival { node } => self.handle_traffic(sched, node as usize),
            NetEvent::TxStart { node, token } => {
                self.handle_tx_start(sched, node as usize, token);
            }
            NetEvent::TxEnd { node, token } => {
                self.handle_tx_end(sched, node as usize, token);
            }
            NetEvent::RxStart { token } => self.handle_rx_start(token),
            NetEvent::RxEnd { token } => self.handle_rx_end(sched, token),
            NetEvent::Timer { node, arm } => {
                let armed = &mut self.timers[node as usize];
                // No entry carries this tag: the arm was superseded.
                if let Some(i) = armed.iter().position(|&(_, a)| a == arm) {
                    let (token, _) = armed.swap_remove(i);
                    self.with_mac(sched, node as usize, |mac, ctx| mac.on_timer(ctx, token));
                }
            }
            NetEvent::MobilityTick => self.handle_mobility_tick(sched),
            NetEvent::MaintenanceTick => self.handle_maintenance_tick(sched),
            NetEvent::SampleTick => self.handle_sample_tick(sched),
            NetEvent::NodeSlotStart { node, slot } => {
                self.with_mac(sched, node as usize, |mac, ctx| {
                    mac.on_slot_start(ctx, slot)
                });
                // Each node chases *its own* perception of the next
                // boundary; `to_global` clamps to the present, and the slot
                // index advances every firing, so progress is guaranteed.
                let next = self.to_global(node as usize, self.clock.start_of(slot + 1));
                sched.at(
                    next,
                    NetEvent::NodeSlotStart {
                        node,
                        slot: slot + 1,
                    },
                );
            }
            NetEvent::ResyncTick => self.handle_resync_tick(sched),
            NetEvent::RouteTimeout { sdu } => self.handle_route_timeout(sched, sdu),
            NetEvent::RouteAck { sdu } => self.handle_route_ack(sdu),
        }
    }

    fn should_stop(&self) -> bool {
        self.metrics.batch_complete()
    }
}

/// A fully built, runnable simulation.
///
/// # Examples
///
/// Running S-FAMA-shaped dummy MACs is exercised in the crate tests; real
/// protocols live in `uasn-ewmac` and `uasn-baselines`. Typical use:
///
/// ```no_run
/// use uasn_net::config::SimConfig;
/// use uasn_net::world::Simulation;
/// # fn factory(_: uasn_net::node::NodeId) -> Box<dyn uasn_net::mac::MacProtocol> { unimplemented!() }
///
/// let cfg = SimConfig::paper_default();
/// let sim = Simulation::new(cfg, &factory).expect("valid config");
/// let report = sim.run();
/// println!("throughput: {:.3} kbps", report.throughput_kbps);
/// ```
pub struct Simulation {
    engine: Engine<NetEvent>,
    world: NetworkWorld,
    horizon: SimTime,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("world", &self.world)
            .field("horizon", &self.horizon)
            .finish()
    }
}

impl Simulation {
    /// Builds the network: validates the config, places nodes, instantiates
    /// one MAC per node, installs oracle neighbour tables (standing in for
    /// the Hello phase — §4.3), charges initialisation costs, and seeds the
    /// event queue.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] for invalid configs or topologies where
    /// some sensor has no uphill neighbour.
    pub fn new(cfg: SimConfig, factory: &MacFactory<'_>) -> Result<Self, BuildNetworkError> {
        cfg.validate()?;
        let seeds = SeedFactory::new(cfg.seed);
        let mut topo_rng = seeds.stream("topology", 0);
        let nodes: Vec<NodeInfo> = cfg.deployment.generate(
            &mut topo_rng,
            cfg.sensors,
            cfg.sinks,
            cfg.channel.max_range_m(),
        )?;
        let stranded = stranded_sensors(&nodes, cfg.channel.max_range_m());
        if !stranded.is_empty() {
            return Err(BuildNetworkError::Disconnected {
                stranded: stranded.len(),
            });
        }

        let n = nodes.len();
        let clock = SlotClock::with_guard(
            ModemSpec::new(cfg.bitrate_bps).tx_duration(cfg.control_bits),
            cfg.channel.max_propagation_delay(),
            cfg.slot_guard,
        );
        let spec = ModemSpec::new(cfg.bitrate_bps);

        let mut mobility_assign = seeds.stream("mobility-assign", 0);
        let mobility_models: Vec<MobilityModel> = nodes
            .iter()
            .map(|info| {
                if cfg.mobility.enabled && !info.is_sink() {
                    MobilityModel::random_paper_model(
                        &mut mobility_assign,
                        cfg.mobility.max_speed_ms,
                    )
                } else {
                    MobilityModel::Static
                }
            })
            .collect();

        let points: Vec<Point> = nodes.iter().map(|i| i.position).collect();
        let positions = PositionTable::from_points(&points);
        let roles: Vec<NodeRole> = nodes.iter().map(|i| i.role).collect();
        let mut macs: Vec<Option<Box<dyn MacProtocol>>> = (0..n)
            .map(|i| Some(factory(NodeId::new(i as u32))))
            .collect();

        // Oracle neighbour installation (standing in for the Hello phase,
        // §4.3): every table is read off the node's fan-out row as `(rx,
        // delay)`, so the MACs schedule against exactly the audible set and
        // delays the channel will apply — the audibility decision lives in
        // the cache. Under `hello_init` the tables start empty and the MACs
        // learn them from on-air beacons; the init charge is the same.
        let channel = cfg.channel.clone();
        let mut link_cache = LinkBudgetCache::with_index(&channel, &positions);
        let mut delay_table = |i: usize| -> Vec<(NodeId, SimDuration)> {
            link_cache.ensure_row(&channel, &positions, i);
            link_cache
                .row(i)
                .iter()
                .map(|link| (NodeId::new(link.rx), link.delay))
                .collect()
        };
        let mut maintenance = Vec::with_capacity(n);
        let mut metrics = DeliveryMetrics::new(n);
        let mut meters: Vec<EnergyMeter> = (0..n)
            .map(|_| EnergyMeter::new(cfg.power, SimTime::ZERO))
            .collect();
        for i in 0..n {
            let mac = macs[i].as_mut().expect("just built");
            let profile = mac.maintenance();
            maintenance.push(profile);
            if profile.scope == NeighborInfoScope::None {
                continue;
            }
            let one_hop = delay_table(i);
            if !cfg.hello_init {
                mac.install_neighbors(&one_hop);
                if profile.scope == NeighborInfoScope::TwoHop {
                    let two_hop: Vec<(NodeId, Vec<(NodeId, SimDuration)>)> = one_hop
                        .iter()
                        .map(|&(j, _)| (j, delay_table(j.index())))
                        .collect();
                    mac.install_two_hop(&two_hop);
                }
            }
            // The node transmits one hello plus its own table; a two-hop
            // view is assembled from neighbours' announcements.
            let init_bits =
                cfg.control_bits as u64 + one_hop.len() as u64 * ANNOUNCE_BITS_PER_ENTRY;
            metrics.per_node[i].maintenance_bits += init_bits;
            meters[i].charge_maintenance_bits(init_bits);
        }

        // Clock-model wiring. Under the (default) ideal model nothing here
        // draws RNG state, schedules events, or tells MACs anything, which
        // keeps golden traces byte-identical. Otherwise every node gets its
        // own drifting clock (independent "clock" streams, so enabling them
        // never perturbs topology/traffic/channel draws) and every MAC
        // learns the worst-case timing-error bound of the run: clock error
        // at both endpoints plus one delay-measurement noise half-width.
        let drifting = !cfg.clock.is_ideal();
        let clocks: Option<Vec<VirtualClock>> = drifting.then(|| {
            (0..n)
                .map(|i| VirtualClock::from_model(&cfg.clock, seeds.stream("clock", i as u64)))
                .collect()
        });
        if drifting {
            let bound = cfg.clock_error_bound() + cfg.clock_error_bound() + cfg.clock.meas_noise;
            for mac in macs.iter_mut() {
                mac.as_mut().expect("just built").install_clock_error(bound);
            }
        }
        let max_speed = if cfg.mobility.enabled {
            cfg.mobility.max_speed_ms
        } else {
            0.0
        };
        let sound_speed =
            cfg.channel.max_range_m() / cfg.channel.max_propagation_delay().as_secs_f64();
        let estimator = DelayEstimator::new(cfg.clock.meas_noise, max_speed, sound_speed);

        let route = cfg.route.map(|rc| RouteRuntime {
            hops: FxHashMap::default(),
            transport: rc.transport.map(TransportTable::new),
        });

        let mut world = NetworkWorld {
            clock,
            spec,
            channel,
            link_cache,
            now: SimTime::ZERO,
            roles,
            positions,
            mobility_models,
            modems: (0..n).map(|_| Modem::new()).collect(),
            meters,
            macs,
            mac_rngs: (0..n).map(|i| seeds.stream("mac", i as u64)).collect(),
            maintenance,
            channel_rng: seeds.stream("channel", 0),
            mobility_rng: seeds.stream("mobility", 0),
            traffic_rng: seeds.stream("traffic", 0),
            route_rng: seeds.stream("route", 0),
            cand_buf: Vec::new(),
            greedy_hops: vec![None; n],
            route,
            metrics,
            delivered: FxHashSet::default(),
            cmd_buf: Vec::new(),
            tx_frames: FxHashMap::default(),
            pending_rx: FxHashMap::default(),
            timers: vec![Vec::new(); n],
            next_arm: 0,
            event_buf: Vec::new(),
            next_token: 0,
            next_sdu_id: 0,
            tracer: Tracer::disabled(),
            series: cfg.sample_interval.map(TimeSeries::new),
            clocks,
            estimator,
            meas_rng: seeds.stream("delay-meas", 0),
            clock_error: cfg.clock_error_bound(),
            clock_stats: ClockStats::default(),
            registry: MetricsRegistry::new(cfg.profile),
            cfg,
        };

        // Seed the event queue, pre-sized for the steady state: each
        // in-flight transmission pends ~2 events per audible receiver, plus
        // the periodic ticks and hello beacons.
        let mut engine = Engine::new().with_queue_capacity(128 + 16 * n);
        engine.seed_event(SimTime::ZERO, NetEvent::Start);
        if world.clocks.is_some() {
            // Drifting clocks: the shared boundary broadcast splits into
            // per-node events at each node's local reading of slot 0.
            for i in 0..n {
                let at = world.to_global(i, world.clock.start_of(0));
                engine.seed_event(
                    at,
                    NetEvent::NodeSlotStart {
                        node: i as u32,
                        slot: 0,
                    },
                );
            }
        } else {
            engine.seed_event(SimTime::ZERO, NetEvent::SlotStart(0));
        }
        if world.series.is_some() {
            // Seeded after Start/SlotStart(0) so the t = 0 snapshot sees the
            // state after the opening dispatches (FIFO at equal times).
            engine.seed_event(SimTime::ZERO, NetEvent::SampleTick);
        }
        if world.cfg.hello_init {
            // §4.3 Hello phase: staggered beacons in the opening slots so
            // every node measures its neighbours' delays from real packets.
            for i in 0..n {
                let token = world.next_token;
                world.next_token += 1;
                let me = NodeId::new(i as u32);
                let beacon = Frame::control(
                    crate::packet::FrameKind::Beacon,
                    me,
                    me,
                    world.cfg.control_bits,
                );
                world.tx_frames.insert(token, Rc::new(beacon));
                let at = SimTime::ZERO + SimDuration::from_micros(17_000 * i as u64 + 1_000);
                engine.seed_event(
                    at,
                    NetEvent::TxStart {
                        node: i as u32,
                        token,
                    },
                );
            }
        }
        for i in 0..n {
            if world.roles[i] == NodeRole::Sensor {
                if let Some(first) = world.next_arrival(SimTime::ZERO) {
                    engine.seed_event(first, NetEvent::TrafficArrival { node: i as u32 });
                }
            }
        }
        if let TrafficPattern::Batch {
            total_packets,
            window,
        } = world.cfg.traffic
        {
            world.metrics.expect_batch(total_packets);
            let sensor_ids: Vec<u32> = (0..n)
                .filter(|&i| world.roles[i] == NodeRole::Sensor)
                .map(|i| i as u32)
                .collect();
            use rand::Rng;
            for k in 0..total_packets {
                let node = sensor_ids[k as usize % sensor_ids.len()];
                let at = SimTime::ZERO
                    + SimDuration::from_secs_f64(
                        world
                            .traffic_rng
                            .gen_range(0.0..window.as_secs_f64().max(1e-6)),
                    );
                engine.seed_event(at, NetEvent::TrafficArrival { node });
            }
        }
        if world.cfg.mobility.enabled {
            engine.seed_event(
                SimTime::ZERO + world.cfg.mobility.update_interval,
                NetEvent::MobilityTick,
            );
        }
        if world
            .maintenance
            .iter()
            .any(|p| p.periodic_refresh.is_some())
        {
            let period = world
                .maintenance
                .iter()
                .filter_map(|p| p.periodic_refresh)
                .min()
                .expect("checked above");
            engine.seed_event(SimTime::ZERO + period, NetEvent::MaintenanceTick);
        }
        if world.clocks.is_some() {
            if let Some(resync) = world.cfg.clock.resync {
                engine.seed_event(SimTime::ZERO + resync.period, NetEvent::ResyncTick);
            }
        }

        let horizon = if world.cfg.traffic.is_batch() {
            SimTime::ZERO + world.cfg.max_time
        } else {
            world.cfg.horizon()
        };
        Ok(Simulation {
            engine,
            world,
            horizon,
        })
    }

    /// Enables in-memory tracing at `level` (for tests and debugging).
    pub fn with_tracing(mut self, level: TraceLevel) -> Self {
        self.world.tracer = Tracer::capturing(level);
        self
    }

    /// Installs a fully configured tracer (e.g. one streaming JSONL to a
    /// file for offline auditing).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.world.tracer = tracer;
        self
    }

    /// The slot clock the run will use.
    pub fn slot_clock(&self) -> SlotClock {
        self.world.clock
    }

    /// Initial node positions (index = node id), in the world's
    /// struct-of-arrays layout.
    pub fn positions(&self) -> &PositionTable {
        &self.world.positions
    }

    /// Node roles (index = node id).
    pub fn roles(&self) -> &[NodeRole] {
        &self.world.roles
    }

    /// Runs to completion and reports.
    pub fn run(self) -> MetricsReport {
        self.run_full().report
    }

    /// Runs to completion, returning the report plus the captured trace.
    pub fn run_traced(self) -> (MetricsReport, Tracer) {
        let out = self.run_full();
        (out.report, out.tracer)
    }

    /// Runs to completion and returns everything the run produced: the
    /// metrics report, the tracer (and whatever its sinks captured), the
    /// time series when sampling was enabled, and the engine's profiling
    /// statistics.
    pub fn run_full(mut self) -> RunOutput {
        let (stats, engine_cost) = if self.world.cfg.profile {
            let (stats, cost) = self.engine.run_instrumented(&mut self.world, self.horizon);
            (stats, Some(cost))
        } else {
            (
                self.engine.run_profiled(&mut self.world, self.horizon),
                None,
            )
        };
        let end = match stats.stop_reason {
            StopReason::StoppedByWorld => self.engine.now(),
            _ => self.horizon.min(self.engine.now()),
        };
        let report = self.world.finalize(end);
        // Close out the sync-error record with one final per-node sample, so
        // even runs too short for a resync round report nonzero statistics.
        if let Some(clocks) = self.world.clocks.as_mut() {
            for clock in clocks.iter_mut() {
                let err = clock.error_at(end);
                self.world.clock_stats.record(err);
            }
        }
        let clock = self
            .world
            .clocks
            .is_some()
            .then(|| std::mem::take(&mut self.world.clock_stats));
        // Harvest the phy cache counters into the registry *after* the run
        // so the report carries the whole-run totals, then fold everything
        // into the profile. All of this is read-only with respect to the
        // simulation state, so it cannot perturb a subsequent run.
        let profile = engine_cost.map(|cost| {
            let cs = self.world.link_cache.stats();
            let reg = &mut self.world.registry;
            reg.add("phy.cache.hits", cs.hits);
            reg.add("phy.cache.misses", cs.misses);
            reg.add("phy.cache.invalidations", cs.invalidations);
            reg.add("phy.cache.cull_rejects", cs.cull_rejects);
            reg.add("phy.cache.audibility_rejects", cs.audibility_rejects);
            ProfileReport::single(cost, reg.take())
        });
        RunOutput {
            report,
            tracer: std::mem::take(&mut self.world.tracer),
            series: self.world.series.take(),
            stats,
            clock,
            profile,
        }
    }
}

/// Everything one [`Simulation::run_full`] call produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The paper's measurement axes for the run, and its loss ledger
    /// ([`MetricsReport::drops`]), kept whether or not monitors ran.
    pub report: MetricsReport,
    /// The tracer (drained of the world; query its capture sinks).
    pub tracer: Tracer,
    /// The sampled time series, when
    /// [`SimConfig::sample_interval`](crate::config::SimConfig::sample_interval)
    /// was set.
    pub series: Option<TimeSeries>,
    /// Engine profiling: event counts per kind, queue depths, wall-clock.
    pub stats: RunStats,
    /// Sync-error statistics; `Some` iff the run used a non-ideal clock
    /// model.
    pub clock: Option<ClockStats>,
    /// Performance profile (per-event-kind wall-time attribution, cache
    /// hit rates, fan-out/queue-depth distributions); `Some` iff
    /// [`SimConfig::profile`](crate::config::SimConfig::profile) was set.
    pub profile: Option<ProfileReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FrameKind;

    /// A deliberately primitive MAC used to exercise the world plumbing:
    /// transmits the head-of-queue SDU directly at each slot start with
    /// probability 1, no handshake, no Ack.
    #[derive(Debug, Default)]
    struct BlastMac {
        queue: std::collections::VecDeque<Sdu>,
    }

    impl MacProtocol for BlastMac {
        fn name(&self) -> &'static str {
            "BLAST"
        }
        fn maintenance(&self) -> MaintenanceProfile {
            MaintenanceProfile::none()
        }
        fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, _slot: SlotIndex) {
            if let Some(sdu) = self.queue.pop_front() {
                let frame = Frame::data(FrameKind::Data, ctx.node_id(), sdu);
                ctx.send_frame_now(frame);
            }
        }
        fn on_enqueue(&mut self, _ctx: &mut MacContext<'_>, sdu: Sdu) {
            self.queue.push_back(sdu);
        }
        fn on_frame_received(&mut self, _ctx: &mut MacContext<'_>, _rx: &Reception<'_>) {}
        fn queue_len(&self) -> usize {
            self.queue.len()
        }
    }

    fn blast_factory(_: NodeId) -> Box<dyn MacProtocol> {
        Box::new(BlastMac::default())
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_offered_load_kbps(0.3)
        .with_sim_time(SimDuration::from_secs(60))
    }

    #[test]
    fn builds_and_runs_with_dummy_mac() {
        let sim = Simulation::new(small_cfg(), &blast_factory).expect("builds");
        let report = sim.run();
        assert_eq!(report.protocol, "BLAST");
        assert_eq!(report.nodes, 12);
        assert!(report.sdus_generated > 0, "traffic flowed");
        // With no handshake some data should still land (sparse contention).
        assert!(report.data_bits_received > 0, "some deliveries");
        assert!(report.avg_power_mw > 0.0);
        assert_eq!(report.duration, SimDuration::from_secs(60));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Simulation::new(small_cfg().with_seed(7), &blast_factory)
            .unwrap()
            .run();
        let b = Simulation::new(small_cfg().with_seed(7), &blast_factory)
            .unwrap()
            .run();
        assert_eq!(a, b);
        let c = Simulation::new(small_cfg().with_seed(8), &blast_factory)
            .unwrap()
            .run();
        assert_ne!(a.sdus_generated, 0);
        // Different seed -> different topology/traffic; reports almost surely
        // differ in some counter.
        assert_ne!(a, c);
    }

    #[test]
    fn delivered_bits_never_exceed_sent_bits() {
        // Relays re-send what they receive, so hop deliveries are bounded
        // by the data bits put on the air, and sink arrivals by the bits
        // generated (each SDU reaches at most one sink).
        let mut sim = Simulation::new(small_cfg(), &blast_factory).unwrap();
        sim.engine.run_profiled(&mut sim.world, sim.horizon);
        let counters = &sim.world.metrics.per_node;
        let sent: u64 = counters.iter().map(|c| c.data_bits_sent).sum();
        let received: u64 = counters.iter().map(|c| c.data_bits_received).sum();
        assert!(received > 0 && received <= sent, "{received} > {sent}");
        let report = sim.world.finalize(sim.horizon);
        assert!(report.sink_bits_received <= report.sdus_generated * 2_048);
    }

    #[test]
    fn batch_mode_completes_or_times_out() {
        let cfg = SimConfig {
            sensors: 6,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_batch_load_kbps(0.05);
        let sim = Simulation::new(cfg, &blast_factory).expect("builds");
        let report = sim.run();
        // Blast MAC has no retransmission: collisions may strand SDUs, so
        // completion is not guaranteed — but the run must terminate and the
        // completion time, if any, must lie within the cap.
        if let Some(t) = report.completion_time {
            assert!(t <= SimTime::ZERO + SimDuration::from_secs(3_000));
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = small_cfg().with_sensors(0);
        assert!(Simulation::new(cfg, &blast_factory).is_err());
    }

    #[test]
    fn tracing_captures_transmissions() {
        let sim = Simulation::new(small_cfg(), &blast_factory)
            .unwrap()
            .with_tracing(TraceLevel::Debug);
        let (_report, tracer) = sim.run_traced();
        assert!(tracer.with_tag("tx").count() > 0);
    }

    #[test]
    fn forwarding_moves_bits_toward_sinks() {
        let cfg = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_offered_load_kbps(0.2)
        .with_sim_time(SimDuration::from_secs(120));
        let report = Simulation::new(cfg, &blast_factory).unwrap().run();
        // some SDUs should reach the surface even with the dumb MAC
        assert!(report.sink_bits_received > 0);
    }

    #[test]
    fn hello_init_transmits_beacons_and_learns() {
        let cfg = SimConfig {
            sensors: 8,
            sinks: 2,
            hello_init: true,
            ..SimConfig::paper_default()
        }
        .with_offered_load_kbps(0.3)
        .with_sim_time(SimDuration::from_secs(60));
        let sim = Simulation::new(cfg, &blast_factory)
            .unwrap()
            .with_tracing(TraceLevel::Debug);
        let (report, tracer) = sim.run_traced();
        // One beacon per node went on the air within the opening second.
        let beacons: Vec<_> = tracer
            .with_tag("tx")
            .filter(|r| r.message.starts_with("Beacon"))
            .collect();
        assert_eq!(beacons.len(), 10, "one hello per node");
        assert!(beacons.iter().all(|r| r.time < SimTime::from_secs(2)));
        // Beacon bits are charged as control traffic.
        assert!(report.control_bits_sent >= 10 * 64);
    }

    #[test]
    fn oracle_and_hello_runs_charge_the_same_init_maintenance() {
        // The init charge models the hello broadcast either way; only the
        // on-air beacons differ.
        let base = SimConfig {
            sensors: 8,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_offered_load_kbps(0.3)
        .with_sim_time(SimDuration::from_secs(30));
        let with_hello = SimConfig {
            hello_init: true,
            ..base.clone()
        };
        let a = Simulation::new(base, &blast_factory).unwrap().run();
        let b = Simulation::new(with_hello, &blast_factory).unwrap().run();
        // Blast MAC has a None maintenance scope: zero charge either way.
        assert_eq!(a.maintenance_bits, 0);
        assert_eq!(b.maintenance_bits, 0);
    }

    #[test]
    fn one_transmission_shares_one_frame() {
        // Hello beacons over a lossless two-ray channel: node 0's beacon
        // goes out at 1 ms, and a microsecond later its direct arrivals and
        // surface echoes are all still pending.
        let base = small_cfg();
        let cfg = SimConfig {
            hello_init: true,
            channel: base.channel.clone().with_two_ray(0.0),
            ..base
        };
        let mut sim = Simulation::new(cfg, &blast_factory).unwrap();
        sim.engine.run(
            &mut sim.world,
            SimTime::ZERO + SimDuration::from_micros(1_001),
        );
        let world = &sim.world;
        let (&token, in_air) = world
            .tx_frames
            .iter()
            .find(|(_, f)| f.src == NodeId::new(0))
            .expect("node 0's beacon is in the air");
        assert_ne!(in_air.timestamp, SimTime::ZERO, "stamped at TxStart");
        let receptions: Vec<&PendingRx> = world
            .pending_rx
            .values()
            .filter(|rx| rx.group == token)
            .collect();
        let echoes = receptions.iter().filter(|rx| rx.is_echo).count();
        assert!(echoes > 0 && echoes < receptions.len(), "{echoes} echoes");
        for rx in &receptions {
            assert!(Rc::ptr_eq(&rx.frame, in_air), "one allocation");
        }
        assert_eq!(Rc::strong_count(in_air), 1 + receptions.len());
    }

    /// A MAC of a given neighbour scope that counts the oracle table
    /// installs it receives and does nothing else.
    #[derive(Debug)]
    struct InstallProbe {
        scope: NeighborInfoScope,
        installs: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl MacProtocol for InstallProbe {
        fn name(&self) -> &'static str {
            "PROBE"
        }
        fn maintenance(&self) -> MaintenanceProfile {
            MaintenanceProfile {
                scope: self.scope,
                ..MaintenanceProfile::none()
            }
        }
        fn install_neighbors(&mut self, _: &[(NodeId, SimDuration)]) {
            self.installs.set(self.installs.get() + 1);
        }
        fn install_two_hop(&mut self, _: &[(NodeId, Vec<(NodeId, SimDuration)>)]) {
            self.installs.set(self.installs.get() + 1);
        }
        fn on_slot_start(&mut self, _: &mut MacContext<'_>, _: SlotIndex) {}
        fn on_enqueue(&mut self, _: &mut MacContext<'_>, _: Sdu) {}
        fn on_frame_received(&mut self, _: &mut MacContext<'_>, _: &Reception<'_>) {}
        fn queue_len(&self) -> usize {
            0
        }
    }

    #[test]
    fn hello_init_installs_no_oracle_tables() {
        // (scope, installs per node under the oracle): tables start empty
        // under hello_init, and the init maintenance charge is the same.
        for (scope, per_node) in [
            (NeighborInfoScope::OneHop, 1),
            (NeighborInfoScope::TwoHop, 2),
        ] {
            let run = |hello_init: bool| {
                let installs = std::rc::Rc::new(std::cell::Cell::new(0));
                let factory = |_: NodeId| -> Box<dyn MacProtocol> {
                    Box::new(InstallProbe {
                        scope,
                        installs: installs.clone(),
                    })
                };
                let cfg = SimConfig {
                    sensors: 8,
                    sinks: 2,
                    hello_init,
                    ..SimConfig::paper_default()
                }
                .with_sim_time(SimDuration::from_secs(5));
                let report = Simulation::new(cfg, &factory).unwrap().run();
                (installs.get(), report.maintenance_bits)
            };
            let (oracle, oracle_bits) = run(false);
            let (hello, hello_bits) = run(true);
            assert_eq!(oracle, 10 * per_node, "{scope:?} oracle installs");
            assert_eq!(hello, 0, "{scope:?} hello run got an oracle install");
            assert!(oracle_bits > 0);
            assert_eq!(oracle_bits, hello_bits, "{scope:?} init charge");
        }
    }

    /// A MAC that, at start-up, arms token A, re-arms A for a later
    /// instant, arms token B and cancels it, then records every
    /// `on_timer` call it gets.
    #[derive(Debug)]
    struct TimerProbe {
        fires: std::rc::Rc<std::cell::RefCell<Vec<(NodeId, SimTime, TimerToken)>>>,
    }

    const PROBE_A: TimerToken = TimerToken(1);
    const PROBE_B: TimerToken = TimerToken(2);

    impl MacProtocol for TimerProbe {
        fn name(&self) -> &'static str {
            "TIMER-PROBE"
        }
        fn maintenance(&self) -> MaintenanceProfile {
            MaintenanceProfile::none()
        }
        fn on_start(&mut self, ctx: &mut MacContext<'_>) {
            ctx.set_timer_after(SimDuration::from_secs(1), PROBE_A);
            ctx.set_timer_after(SimDuration::from_secs(3), PROBE_A);
            ctx.set_timer_after(SimDuration::from_secs(2), PROBE_B);
            ctx.cancel_timer(PROBE_B);
        }
        fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
            self.fires
                .borrow_mut()
                .push((ctx.node_id(), ctx.now(), token));
        }
        fn on_slot_start(&mut self, _: &mut MacContext<'_>, _: SlotIndex) {}
        fn on_enqueue(&mut self, _: &mut MacContext<'_>, _: Sdu) {}
        fn on_frame_received(&mut self, _: &mut MacContext<'_>, _: &Reception<'_>) {}
        fn queue_len(&self) -> usize {
            0
        }
    }

    #[test]
    fn rearmed_and_cancelled_timers_fire_only_at_their_last_arm() {
        let fires = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let factory = |_: NodeId| -> Box<dyn MacProtocol> {
            Box::new(TimerProbe {
                fires: fires.clone(),
            })
        };
        let cfg = small_cfg().with_sim_time(SimDuration::from_secs(10));
        Simulation::new(cfg, &factory).unwrap().run();
        let expected: Vec<_> = (0..12)
            .map(|i| (NodeId::new(i), SimTime::from_secs(3), PROBE_A))
            .collect();
        assert_eq!(*fires.borrow(), expected);
    }

    #[test]
    fn sampler_emits_exactly_horizon_over_interval_snapshots() {
        let cfg = small_cfg().with_sample_interval(SimDuration::from_secs(5));
        let sim = Simulation::new(cfg, &blast_factory).expect("builds");
        let out = sim.run_full();
        let series = out.series.expect("sampling enabled");
        // 60 s horizon, 5 s interval, horizon-exclusive: 12 snapshots.
        assert_eq!(series.len(), 12);
        assert_eq!(series.snapshots[0].time, SimTime::ZERO);
        assert_eq!(series.snapshots[11].time, SimTime::from_secs(55));
        assert_eq!(series.snapshots[0].nodes.len(), 12);
        // The dummy MAC never overrides state_label.
        assert!(series
            .snapshots
            .iter()
            .all(|s| s.nodes.iter().all(|n| n.mac_state == "-")));
        // Counters are cumulative, so they never decrease.
        assert!(series
            .snapshots
            .windows(2)
            .all(|w| w[0].sdus_generated <= w[1].sdus_generated));
        assert!(out
            .stats
            .kind_counts
            .iter()
            .any(|&(k, c)| k == "sample" && c == 12));
    }

    #[test]
    fn sampling_does_not_perturb_the_run() {
        let plain = Simulation::new(small_cfg(), &blast_factory).unwrap().run();
        let sampled = Simulation::new(
            small_cfg().with_sample_interval(SimDuration::from_secs(1)),
            &blast_factory,
        )
        .unwrap()
        .run();
        assert_eq!(plain, sampled);
    }

    #[test]
    fn run_full_reports_engine_profile() {
        let sim = Simulation::new(small_cfg(), &blast_factory).unwrap();
        let out = sim.run_full();
        assert_eq!(out.stats.stop_reason, StopReason::HorizonReached);
        assert!(out.stats.events_processed > 0);
        assert!(out.stats.peak_queue_depth > 0);
        let count = |label: &str| {
            out.stats
                .kind_counts
                .iter()
                .find(|&&(k, _)| k == label)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert_eq!(count("start"), 1);
        assert!(count("slot-start") > 0);
        assert_eq!(count("tx-start"), count("tx-end"));
        // Profiling is off by default: no report, nothing recorded.
        assert!(out.profile.is_none());
    }

    #[test]
    fn profiling_does_not_perturb_the_run() {
        // The observability contract in one assertion: with profiling on,
        // the trace stream, the report, and every deterministic engine
        // statistic are byte-for-byte what the unprofiled run produces.
        let cfg = small_cfg();
        let run = |profile: bool| {
            Simulation::new(cfg.clone().with_profiling(profile), &blast_factory)
                .unwrap()
                .with_tracing(TraceLevel::Debug)
                .run_full()
        };
        let plain = run(false);
        let profiled = run(true);
        assert_eq!(plain.report, profiled.report);
        assert_eq!(
            plain.stats.events_processed,
            profiled.stats.events_processed
        );
        assert_eq!(plain.stats.sim_end, profiled.stats.sim_end);
        assert_eq!(plain.stats.stop_reason, profiled.stats.stop_reason);
        assert_eq!(
            plain.stats.peak_queue_depth,
            profiled.stats.peak_queue_depth
        );
        assert_eq!(plain.stats.kind_counts, profiled.stats.kind_counts);
        let jsonl = |out: &RunOutput| {
            out.tracer
                .records()
                .iter()
                .map(|r| r.to_json_line())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(jsonl(&plain), jsonl(&profiled));
        assert!(plain.profile.is_none());
        assert!(profiled.profile.is_some());
    }

    #[test]
    fn profiled_run_attributes_costs_and_cache_traffic() {
        // Long enough that every sensor transmits more than once, so the
        // link cache sees row *re*-use (hits), not just the initial builds.
        let cfg = small_cfg()
            .with_sim_time(SimDuration::from_secs(300))
            .with_profiling(true);
        let out = Simulation::new(cfg, &blast_factory).unwrap().run_full();
        let profile = out.profile.expect("profiling enabled");
        assert_eq!(profile.runs, 1);
        // Engine attribution: sampled handler costs cover the hot kinds.
        assert!(profile.engine.sampled_events > 0);
        let sampled: u64 = profile.engine.handler.iter().map(|k| k.1.sampled).sum();
        assert_eq!(sampled, profile.engine.sampled_events);
        assert!(profile
            .engine
            .handler
            .iter()
            .any(|&(k, _)| k == "slot-start"));
        // Registry content: fan-out distribution and cache counters.
        let snap = &profile.metrics;
        let fanout = snap
            .hists
            .iter()
            .find(|&&(n, _)| n == "net.fanout")
            .map(|(_, h)| h)
            .expect("fan-out histogram");
        assert!(fanout.count() > 0);
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        // Every tx after a node's first hits the cached row, and the static
        // topology never invalidates.
        assert!(counter("phy.cache.misses") > 0);
        assert!(counter("phy.cache.hits") > 0);
        assert_eq!(counter("phy.cache.invalidations"), 0);
        // Queue depths were observed on every enqueue.
        assert!(snap.hists.iter().any(|&(n, _)| n == "net.queue_depth"));
        // And the report survives its own JSON encoding.
        let round = ProfileReport::from_json(&profile.to_json()).expect("round trip");
        assert_eq!(round.to_json().to_json(), profile.to_json().to_json());
    }

    #[test]
    fn slot_clock_matches_paper() {
        let sim = Simulation::new(small_cfg(), &blast_factory).unwrap();
        let clock = sim.slot_clock();
        assert_eq!(clock.tau_max(), SimDuration::from_secs(1));
        assert_eq!(clock.omega().as_micros(), 5_333);
    }

    #[test]
    fn ideal_clock_does_not_perturb_the_run() {
        use uasn_clock::ClockModelConfig;
        let plain = Simulation::new(small_cfg(), &blast_factory).unwrap().run();
        let explicit = Simulation::new(
            small_cfg()
                .with_clock_model(ClockModelConfig::ideal())
                .with_slot_guard(SimDuration::ZERO),
            &blast_factory,
        )
        .unwrap()
        .run();
        assert_eq!(plain, explicit);
        // Ideal runs carry no sync statistics and no clock events.
        let out = Simulation::new(small_cfg(), &blast_factory)
            .unwrap()
            .run_full();
        assert!(out.clock.is_none());
        assert!(!out
            .stats
            .kind_counts
            .iter()
            .any(|&(k, _)| k == "node-slot-start" || k == "resync"));
    }

    #[test]
    fn slot_guard_lengthens_the_slots() {
        let sim = Simulation::new(
            small_cfg().with_slot_guard(SimDuration::from_millis(50)),
            &blast_factory,
        )
        .unwrap();
        let clock = sim.slot_clock();
        assert_eq!(clock.guard(), SimDuration::from_millis(50));
        assert_eq!(clock.slot_len().as_micros(), 5_333 + 1_000_000 + 50_000);
    }

    #[test]
    fn drifting_clocks_run_deterministically_and_report_sync_stats() {
        let cfg = small_cfg()
            .with_clock_drift(100.0)
            .with_slot_guard(SimDuration::from_millis(25));
        let a = Simulation::new(cfg.clone(), &blast_factory)
            .unwrap()
            .run_full();
        let b = Simulation::new(cfg, &blast_factory).unwrap().run_full();
        assert_eq!(a.report, b.report);
        let stats = a.clock.expect("drifting run reports sync stats");
        // 12 nodes sampled at least once (the end-of-run sample).
        assert!(stats.samples >= 12, "samples = {}", stats.samples);
        assert!(stats.max_abs_error_us > 0);
        assert!(stats.mean_abs_error_us() > 0.0);
        // The boundary broadcast split into per-node slot events.
        let count = |label: &str| {
            a.stats
                .kind_counts
                .iter()
                .find(|&&(k, _)| k == label)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert_eq!(count("slot-start"), 0);
        assert!(count("node-slot-start") > 0);
        // Traffic still flows end to end under drift + guard.
        assert!(a.report.sdus_generated > 0);
        assert!(a.report.data_bits_received > 0);
    }

    #[test]
    fn greedy_routing_twins_legacy_forwarding() {
        // The byte-identity contract's dynamic half: a greedy routed run
        // makes exactly the per-hop decisions of a run without routing
        // (the same candidate scan and policy, no RNG draws), so every
        // delivery counter matches; only the path-length histogram —
        // which runs without routing never record — differs.
        let base = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_offered_load_kbps(0.2)
        .with_sim_time(SimDuration::from_secs(120));
        let legacy = Simulation::new(base.clone(), &blast_factory).unwrap().run();
        let routed = Simulation::new(base.with_routing(), &blast_factory)
            .unwrap()
            .run();
        assert_eq!(legacy.sdus_generated, routed.sdus_generated);
        assert_eq!(legacy.sdus_received, routed.sdus_received);
        assert_eq!(legacy.sink_bits_received, routed.sink_bits_received);
        assert_eq!(legacy.e2e_delivered, routed.e2e_delivered);
        assert_eq!(legacy.throughput_kbps, routed.throughput_kbps);
        assert_eq!(legacy.unroutable, routed.unroutable);
        assert!(routed.e2e_delivered > 0, "traffic reached the sinks");
        assert_eq!(legacy.path_hops.count(), 0);
        assert_eq!(routed.path_hops.count(), routed.e2e_delivered);
        assert_eq!(legacy.ttl_dropped, 0);
        assert_eq!(routed.ttl_dropped, 0, "DEFAULT_TTL dwarfs real paths");
    }

    #[test]
    fn routed_runs_are_deterministic_and_traced() {
        let cfg = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_convergecast(30.0, 10.0)
        .with_route(
            uasn_route::RouteConfig::reliable()
                .with_policy(uasn_route::ForwardPolicy::RandomShallowest { k: 2 }),
        )
        .with_sim_time(SimDuration::from_secs(120));
        let run = || {
            Simulation::new(cfg.clone(), &blast_factory)
                .unwrap()
                .with_tracing(TraceLevel::Info)
                .run_traced()
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        let jsonl = |t: &Tracer| {
            t.records()
                .iter()
                .map(|r| r.to_json_line())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(jsonl(&ta), jsonl(&tb), "trace bytes are seed-determined");
        // The run-info record advertises the routing configuration…
        let info = ta.with_tag("run-info").next().expect("run-info");
        let get = |key: &str| {
            info.fields
                .iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| v.to_string())
        };
        assert_eq!(get("route_policy").as_deref(), Some("random-shallowest"));
        assert!(get("route_ttl").is_some());
        assert_eq!(get("transport").as_deref(), Some("true"));
        // …and the new record kinds appear.
        assert!(ta.with_tag("route").count() > 0, "origin selections traced");
        assert!(ta.with_tag("e2e-deliver").count() > 0, "deliveries traced");
        assert!(ra.e2e_delivered > 0);
        assert!(ra.e2e_delivery_ratio() > 0.0 && ra.e2e_delivery_ratio() <= 1.0);
    }

    #[test]
    fn saturated_transport_deadlines_end_cleanly() {
        // `u64::MAX` passes validation; the first deadline must saturate
        // (never fire) rather than overflow the clock arithmetic.
        let mut rc = uasn_route::RouteConfig::greedy();
        rc.transport = Some(uasn_route::TransportConfig {
            retry_budget: 2,
            base_timeout_us: u64::MAX,
        });
        assert!(rc.validate().is_ok());
        let cfg = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_convergecast(20.0, 10.0)
        .with_route(rc)
        .with_sim_time(SimDuration::from_secs(60));
        let out = Simulation::new(cfg, &blast_factory).unwrap().run_full();
        assert_eq!(out.stats.stop_reason, StopReason::HorizonReached);
        assert!(out.report.sdus_generated > 0);
        assert_eq!(out.report.retry_dropped, 0, "no timeout ever fires");
    }

    #[test]
    fn routed_losses_respect_the_ttl_and_retry_budget() {
        // A TTL too small for the column plus a tight transport budget
        // forces both routed loss classes, and the path-length histogram
        // must respect the TTL.
        let mut rc = uasn_route::RouteConfig::greedy().with_ttl(2);
        rc.transport = Some(uasn_route::TransportConfig {
            retry_budget: 1,
            base_timeout_us: 5_000_000,
        });
        let cfg = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_convergecast(20.0, 10.0)
        .with_route(rc)
        .with_sim_time(SimDuration::from_secs(120));
        let out = Simulation::new(cfg, &blast_factory).unwrap().run_full();
        assert!(out.report.ttl_dropped > 0, "ttl 2 truncates deep paths");
        assert!(out.report.retry_dropped > 0, "budget 1 exhausts");
        if let Some(max) = out.report.path_hops.max() {
            assert!(max <= 2, "no delivered path exceeds the TTL, got {max}");
        }
        // Transport events actually fired.
        let count = |label: &str| {
            out.stats
                .kind_counts
                .iter()
                .find(|&&(k, _)| k == label)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert!(count("route-timeout") > 0);
        assert!(count("route-ack") > 0);
    }

    #[test]
    fn bursty_traffic_flows_and_is_deterministic() {
        let cfg = SimConfig {
            sensors: 10,
            sinks: 2,
            ..SimConfig::paper_default()
        }
        .with_bursty_load_kbps(0.3, 5.0, 15.0)
        .with_sim_time(SimDuration::from_secs(60));
        let a = Simulation::new(cfg.clone(), &blast_factory).unwrap().run();
        let b = Simulation::new(cfg, &blast_factory).unwrap().run();
        assert_eq!(a, b);
        assert!(a.sdus_generated > 0, "bursts inject traffic");
        assert!(a.data_bits_received > 0);
    }

    #[test]
    fn drifted_run_info_advertises_the_timing_budget() {
        let sim = Simulation::new(small_cfg().with_clock_drift(50.0), &blast_factory)
            .unwrap()
            .with_tracing(TraceLevel::Info);
        let (_report, tracer) = sim.run_traced();
        let info = tracer.with_tag("run-info").next().expect("run-info record");
        let get = |key: &str| {
            info.fields
                .iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| v.to_string())
        };
        assert_eq!(get("guard_us").as_deref(), Some("0"));
        let err: u64 = get("clock_error_us").expect("present").parse().unwrap();
        assert!(err > 0, "nonzero drift must advertise a nonzero error");
        // Ideal runs keep the historical record layout.
        let sim = Simulation::new(small_cfg(), &blast_factory)
            .unwrap()
            .with_tracing(TraceLevel::Info);
        let (_report, tracer) = sim.run_traced();
        let info = tracer.with_tag("run-info").next().expect("run-info record");
        assert!(!info
            .fields
            .iter()
            .any(|(k, _)| k.as_ref() == "clock_error_us"));
    }
}
