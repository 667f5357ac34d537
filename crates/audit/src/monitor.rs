//! Online streaming invariant monitors and the anomaly flight recorder.
//!
//! This module is the one implementation of every invariant check —
//! serial decoded receptions, half-duplex decode, slot alignment within
//! tolerance, extra-window non-interference, propagation consistency and
//! routing-loop freedom. Each runs **incrementally**, as [`TraceRecord`]s
//! stream out of the tracer, so a monitored run needs no full-trace
//! capture; the post-hoc [`crate::check`] replays a captured trace through
//! the same machine:
//!
//! - [`MonitorSet`] is the pure state machine: feed it classified
//!   records in record order through [`MonitorSet::observe`] — the one
//!   mapping from a [`ParsedRecord`] to the monitors — and it accumulates
//!   [`Violation`]s. The post-hoc checker replays the
//!   [`crate::model::TraceModel`]'s event list through the same call, so
//!   the online and offline paths agree **by construction** — there is
//!   exactly one implementation of each invariant and one dispatch to it.
//! - [`MonitorSink`] adapts the machine to the tracer's
//!   [`TraceSink`] interface and pairs it with an optional
//!   [`FlightRecorder`]. The world's records arrive typed
//!   ([`TraceSink::accept_event`]): the sink downcasts each to its
//!   [`ParsedRecord`], stamps the record index and observes it, with no
//!   text built or parsed. A rendered record that reaches
//!   [`TraceSink::accept`] — from a wrapping sink that only forwards text —
//!   is decoded by [`parse_record`] into the same schema.
//! - [`StreamingMonitor`] is the shared handle a harness keeps: it hands a
//!   boxed sink to `Tracer::with_sink` and harvests the
//!   [`MonitorReport`] after the run.
//! - [`FlightRecorder`] keeps a fixed-capacity ring of the most recent
//!   records and, on every finding, snapshots the ring to
//!   `<dir>/<seq>-<kind>.jsonl` — the last moments before the anomaly,
//!   debuggable without any full-trace capture. It holds typed records as
//!   they arrive and renders text only for the window it dumps.
//!
//! # Why record-order streaming is exact
//!
//! Trace record times are non-decreasing, a transmission's record is
//! emitted at its start, and a reception's record at its end. Every frame
//! in flight therefore already has its `tx` record (which carries
//! `dur_us`) in the stream, so the largest transmit duration seen so far
//! bounds how far back any future arrival can reach — state older than
//! that horizon can never produce a finding and is pruned.
//!
//! Decoded receptions arrive in end-time order, so one earlier reception
//! at a node overlaps the current one exactly when the latest end seen
//! there lies after the current start: the serial-reception check keeps
//! only that latest reception per node. The static-pair delay check keeps
//! the first delay measured on each `(src, rx)` link. Both tables are
//! sized by the deployment (nodes, audible links), not by trace length.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use uasn_ewmac::ObservedNegotiation;
use uasn_net::packet::FrameKind;
use uasn_net::record::TxDropEvent;
use uasn_net::slots::SlotClock;
use uasn_net::NodeId;
use uasn_sim::hash::FxHashMap;
use uasn_sim::time::{SimDuration, SimTime};
use uasn_sim::trace::{export_jsonl, TraceEvent, TraceLevel, TraceRecord, TraceSink};

use crate::copies::{CopyIndex, PathSlab};
use crate::invariant::{overlaps, Violation, ViolationKind};
use crate::model::{
    parse_record, E2eDeliverEvent, ParsedRecord, RelayEvent, RouteDropEvent, RouteEvent, RunInfo,
    RxEvent, RxLostEvent, TxEvent,
};

/// Default flight-recorder depth: enough context to see the negotiation
/// that preceded an anomaly without holding a meaningful trace.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One of a node's own transmissions still inside the pruning horizon.
#[derive(Debug, Clone)]
struct OwnTx {
    time_us: u64,
    end_us: u64,
    kind: FrameKind,
    record: usize,
}

/// An RTS whose grant (a CTS back from the addressee) has not been seen
/// yet; it reserves nothing until it is granted, and expires two slots
/// after transmission.
#[derive(Debug, Clone)]
struct PendingRts {
    record: usize,
    time_us: u64,
    node: usize,
    dst: usize,
    pair_delay_us: u64,
    data_dur_us: u64,
}

/// A busy interval reserved by a negotiated exchange at one pair node.
#[derive(Debug, Clone)]
struct Reservation {
    node: usize,
    start_us: u64,
    end_us: u64,
    what: &'static str,
    neg_record: usize,
}

/// The run geometry the slot and extra-window monitors replay against.
#[derive(Debug, Clone)]
struct Geometry {
    run: RunInfo,
    clock: SlotClock,
    tolerance_us: u64,
}

/// Incremental state machines for every invariant: serial decoded
/// receptions, half-duplex decode, slot alignment, extra-window
/// non-interference, propagation consistency, and routing-loop freedom.
///
/// Feed classified records in trace-record order via
/// [`MonitorSet::observe`]; harvest accumulated findings with
/// [`MonitorSet::into_findings`]. The post-hoc checker
/// ([`crate::invariant::check`]) is nothing but a replay of its model
/// through this same machine and call, so streaming and replay findings
/// are identical by construction.
#[derive(Debug, Default)]
pub struct MonitorSet {
    geometry: Option<Geometry>,
    /// High-water mark of record times seen, microseconds.
    now_us: u64,
    /// Largest frame airtime seen so far: the pruning horizon.
    max_frame_us: u64,
    own_tx: HashMap<usize, VecDeque<OwnTx>>,
    live_tx: usize,
    pending_rts: Vec<PendingRts>,
    reserved: Vec<Reservation>,
    /// Per node, the latest-ending decoded reception: one entry per
    /// receiving node, never pruned.
    last_rx: FxHashMap<usize, RxEvent>,
    /// First propagation delay (and its record) measured on each static
    /// `(src, rx)` pair; filled only when the run has no mobility, so
    /// it is bounded by the audible links.
    pair_delay: FxHashMap<(usize, usize), (u64, usize)>,
    /// Nodes visited so far by each in-flight routed SDU copy, origin
    /// first. One path per copy, `(sdu id, attempt)`, not per SDU, so a
    /// stale frame from an earlier transport attempt extends its own
    /// path instead of tripping the revisit check against the retry's.
    /// Each `route` record seeds its copy's path (a retry is a fresh
    /// copy, free to re-traverse the earlier copy's nodes). A path goes
    /// on that copy's delivery or loss, so the working set is bounded by
    /// the in-flight copy population. Copies are indexed by SDU, so a
    /// terminal drop retires its SDU's copies without visiting any
    /// other. Each copy holds the last entry of its path in `paths`.
    route_paths: CopyIndex<Option<usize>>,
    /// The open copies' paths, chained in one slab that reuses closed
    /// paths' entries, so routed copies cost no allocation of their own.
    paths: PathSlab,
    findings: Vec<Violation>,
    peak_tracked: usize,
}

impl MonitorSet {
    /// A fresh monitor set with no run geometry: the serial-reception,
    /// half-duplex and routing-loop revisit checks run from the first
    /// record; slot alignment, extra-window, propagation and TTL checks
    /// wait for a `run-info` record to supply one.
    pub fn new() -> MonitorSet {
        MonitorSet::default()
    }

    /// Consumes one classified record: the only way records reach the
    /// monitors, online and post-hoc alike. Queue, sink and MAC-drop
    /// records carry nothing the monitors check; skipped and unknown
    /// records carry nothing at all.
    pub fn observe(&mut self, record: &ParsedRecord) {
        match record {
            ParsedRecord::RunInfo(run) => self.observe_run_info(run),
            ParsedRecord::Tx(ev) => self.observe_tx(ev),
            ParsedRecord::Rx(ev) => self.observe_rx(ev),
            ParsedRecord::RxLost(ev) => self.observe_rx_lost(ev),
            ParsedRecord::Route(ev) => self.observe_route(ev),
            ParsedRecord::Relay(ev) => self.observe_relay(ev),
            ParsedRecord::RouteDrop(ev) => self.observe_route_drop(ev),
            ParsedRecord::E2eDeliver(ev) => self.observe_e2e_deliver(ev),
            ParsedRecord::Enq(_)
            | ParsedRecord::Sink(_)
            | ParsedRecord::Drop(_)
            | ParsedRecord::Skipped
            | ParsedRecord::Other => {}
        }
    }

    /// Installs the run geometry (from the `run-info` record), enabling
    /// the slot-alignment, extra-window, propagation and TTL monitors.
    fn observe_run_info(&mut self, run: &RunInfo) {
        let clock = SlotClock::with_guard(
            SimDuration::from_micros(run.omega_us),
            SimDuration::from_micros(run.tau_max_us),
            SimDuration::from_micros(run.guard_us),
        );
        self.geometry = Some(Geometry {
            tolerance_us: run.tolerance_us(),
            run: run.clone(),
            clock,
        });
    }

    /// Consumes a transmission start.
    fn observe_tx(&mut self, tx: &TxEvent) {
        self.advance(tx.time_us);
        self.max_frame_us = self.max_frame_us.max(tx.dur_us);
        self.check_slot_alignment(tx);
        self.track_own_tx(tx);
        self.track_negotiation(tx);
        self.update_peak();
    }

    /// Consumes a decoded reception.
    fn observe_rx(&mut self, rx: &RxEvent) {
        self.advance(rx.end_us);
        self.max_frame_us = self.max_frame_us.max(rx.end_us.saturating_sub(rx.start_us));
        // Same-record findings come out in one fixed order: overlap,
        // half-duplex, extra-window, then propagation.
        self.check_serial_reception(rx);
        self.check_half_duplex(rx);
        self.apply_grants(rx);
        self.check_decoded_intrusion(rx);
        self.check_propagation(rx);
        self.update_peak();
    }

    /// Consumes a lost reception.
    fn observe_rx_lost(&mut self, lost: &RxLostEvent) {
        self.advance(lost.end_us);
        self.check_lost_intrusion(lost);
        self.update_peak();
    }

    /// Consumes an origin injection (`route`): starts a fresh path for the
    /// SDU copy. A transport retry is a distinct copy with its own path —
    /// it may legitimately re-traverse nodes an earlier copy visited, and
    /// an earlier copy still in flight keeps extending its own path.
    fn observe_route(&mut self, ev: &RouteEvent) {
        self.advance(ev.time_us);
        let path = self.paths.push(None, ev.node);
        if let Some(reseeded) = self.route_paths.insert(ev.sdu, ev.attempt, Some(path)) {
            self.paths.release(reseeded);
        }
        self.update_peak();
    }

    /// Consumes a relay decision: the relaying node joins the copy's path.
    /// Fires [`ViolationKind::RoutingLoop`] if the node was already on it
    /// (depth-monotone forwarding can never revisit) or if the traversed
    /// hop count escaped the run's TTL (the world must have dropped the
    /// copy instead of relaying it).
    fn observe_relay(&mut self, ev: &RelayEvent) {
        self.advance(ev.time_us);
        self.check_route_step(
            ev.record,
            ev.time_us,
            (ev.sdu, ev.attempt),
            ev.node,
            ev.hops,
            "relayed",
        );
        self.update_peak();
    }

    /// Consumes a routed loss. A copy-level loss releases that copy's
    /// path (a pending retry re-seeds via its own `route` record); a
    /// terminal loss retires the SDU outright, so every copy's path goes
    /// — including stale earlier attempts still in flight. Either costs
    /// O(open copies of this SDU), whatever else is in flight.
    fn observe_route_drop(&mut self, ev: &RouteDropEvent) {
        self.advance(ev.time_us);
        if ev.terminal {
            let paths = &mut self.paths;
            self.route_paths
                .retire(ev.sdu, |_, tail| paths.release(tail));
        } else if let Some(attempt) = ev.attempt {
            self.close_path(ev.sdu, attempt);
        }
        self.update_peak();
    }

    /// Consumes a first end-to-end delivery: the sink is the path's last
    /// node, subject to the same revisit and TTL bounds as a relay.
    fn observe_e2e_deliver(&mut self, ev: &E2eDeliverEvent) {
        self.advance(ev.time_us);
        self.check_route_step(
            ev.record,
            ev.time_us,
            (ev.sdu, ev.attempt),
            ev.node,
            ev.hops,
            "delivered",
        );
        self.close_path(ev.sdu, ev.attempt);
        self.update_peak();
    }

    /// Closes one copy's path.
    fn close_path(&mut self, sdu: u64, attempt: u64) {
        if let Some(tail) = self.route_paths.remove(sdu, attempt) {
            self.paths.release(tail);
        }
    }

    /// The shared relay/delivery path step: revisit and TTL-bound checks,
    /// then the node joins the copy's path. `hops` is the MAC hop count
    /// the trace claims the copy traversed to reach `node`.
    fn check_route_step(
        &mut self,
        record: usize,
        time_us: u64,
        copy: (u64, u64),
        node: usize,
        hops: u64,
        verb: &str,
    ) {
        let (sdu, attempt) = copy;
        let tail = self.route_paths.get_or_default(sdu, attempt);
        if self.paths.contains(*tail, node) {
            let path = self.paths.nodes(*tail);
            self.findings.push(Violation {
                kind: ViolationKind::RoutingLoop,
                record_index: record,
                time_us,
                node: Some(node),
                detail: format!(
                    "sdu {sdu} (copy {attempt}) {verb} at n{node}, already on its path \
                     {path:?}: depth-monotone forwarding revisited a node"
                ),
                observed_us: None,
                allowed_us: None,
            });
        }
        *tail = Some(self.paths.push(*tail, node));
        if let Some(ttl) = self.geometry.as_ref().and_then(|g| g.run.route_ttl) {
            // A relay happens strictly before the TTL bites (`hops < ttl`);
            // a delivery consumes one more hop and may reach it exactly.
            let bound_exceeded = if verb == "delivered" {
                hops > ttl
            } else {
                hops >= ttl
            };
            if bound_exceeded {
                self.findings.push(Violation {
                    kind: ViolationKind::RoutingLoop,
                    record_index: record,
                    time_us,
                    node: Some(node),
                    detail: format!(
                        "sdu {sdu} (copy {attempt}) {verb} at n{node} after {hops} hops, \
                         escaping the route TTL of {ttl}"
                    ),
                    observed_us: Some(hops),
                    allowed_us: Some(ttl),
                });
            }
        }
    }

    /// Findings accumulated so far, in generation order.
    pub fn findings(&self) -> &[Violation] {
        &self.findings
    }

    /// Consumes the set, returning its findings in generation order.
    pub fn into_findings(self) -> Vec<Violation> {
        self.findings
    }

    /// Live tracked entries (own transmissions + pending RTS grants +
    /// reserved intervals + in-flight routed paths): the monitor's
    /// working-set size. The per-node latest reception and the static-pair
    /// delay table are left out: they are sized by the deployment, not by
    /// how much traffic is in flight.
    pub fn tracked(&self) -> usize {
        self.live_tx + self.pending_rts.len() + self.reserved.len() + self.route_paths.len()
    }

    /// The largest working set the monitors ever held — evidence that
    /// memory stays bounded regardless of trace length.
    pub fn peak_tracked(&self) -> usize {
        self.peak_tracked
    }

    fn update_peak(&mut self) {
        self.peak_tracked = self.peak_tracked.max(self.tracked());
    }

    /// Advances the time high-water mark and prunes state that can no
    /// longer produce a finding: any future arrival starts at or after
    /// `now - max_frame_us` (its transmission record, carrying its
    /// duration, has already been seen), so nothing ending before that
    /// horizon can still overlap anything.
    fn advance(&mut self, time_us: u64) {
        if time_us > self.now_us {
            self.now_us = time_us;
        }
        let horizon = self.now_us.saturating_sub(self.max_frame_us);
        self.reserved.retain(|r| r.end_us > horizon);
        if let Some(geo) = &self.geometry {
            let window = 2 * geo.run.slot_us;
            let now = self.now_us;
            self.pending_rts
                .retain(|p| now <= p.time_us.saturating_add(window));
        }
    }

    fn track_own_tx(&mut self, tx: &TxEvent) {
        let horizon = self.now_us.saturating_sub(self.max_frame_us);
        let deque = self.own_tx.entry(tx.node).or_default();
        while deque.front().is_some_and(|t| t.end_us <= horizon) {
            deque.pop_front();
            self.live_tx -= 1;
        }
        deque.push_back(OwnTx {
            time_us: tx.time_us,
            end_us: tx.time_us + tx.dur_us,
            kind: tx.kind,
            record: tx.record,
        });
        self.live_tx += 1;
    }

    /// Decoded receptions at one node must be serial: the modem records
    /// every overlapping arrival as a collision loss, so two decoded `rx`
    /// intervals sharing time mean the collision model was bypassed.
    /// Records arrive in end order, so an earlier reception overlaps this
    /// one exactly when the latest end seen at the node lies after this
    /// start; the finding cites that latest-ending reception.
    fn check_serial_reception(&mut self, rx: &RxEvent) {
        if let Some(p) = self.last_rx.get(&rx.node) {
            if rx.start_us < p.end_us {
                self.findings.push(Violation {
                    kind: ViolationKind::OverlappingReceptions,
                    record_index: rx.record,
                    time_us: rx.start_us,
                    node: Some(rx.node),
                    detail: format!(
                        "{} from n{} decoded over [{}, {}] us while {} from n{} \
                         (record #{}) still occupied [{}, {}] us",
                        rx.kind,
                        rx.src,
                        rx.start_us,
                        rx.end_us,
                        p.kind,
                        p.src,
                        p.record,
                        p.start_us,
                        p.end_us
                    ),
                    observed_us: Some(p.end_us - rx.start_us),
                    allowed_us: Some(0),
                });
            }
            if p.end_us > rx.end_us {
                return;
            }
        }
        self.last_rx.insert(rx.node, rx.clone());
    }

    /// Propagation must respect the channel: never beyond τmax, and
    /// constant for a fixed pair of nodes when mobility is off.
    fn check_propagation(&mut self, rx: &RxEvent) {
        let Some(geo) = &self.geometry else {
            return;
        };
        let tau_max_us = geo.run.tau_max_us;
        if rx.prop_us > tau_max_us {
            self.findings.push(Violation {
                kind: ViolationKind::PropagationInconsistency,
                record_index: rx.record,
                time_us: rx.start_us,
                node: Some(rx.node),
                detail: format!(
                    "{} from n{} propagated {} us, beyond tau_max = {} us",
                    rx.kind, rx.src, rx.prop_us, tau_max_us
                ),
                observed_us: Some(rx.prop_us),
                allowed_us: Some(tau_max_us),
            });
        }
        if geo.run.mobility {
            return;
        }
        let &mut (prop, first_record) = self
            .pair_delay
            .entry((rx.src, rx.node))
            .or_insert((rx.prop_us, rx.record));
        if prop != rx.prop_us {
            self.findings.push(Violation {
                kind: ViolationKind::PropagationInconsistency,
                record_index: rx.record,
                time_us: rx.start_us,
                node: Some(rx.node),
                detail: format!(
                    "{} from n{} propagated {} us but the static pair measured \
                     {} us at record #{}",
                    rx.kind, rx.src, rx.prop_us, prop, first_record
                ),
                observed_us: Some(rx.prop_us.abs_diff(prop)),
                allowed_us: Some(0),
            });
        }
    }

    /// A half-duplex modem cannot decode while transmitting; a decoded
    /// `rx` overlapping an own `tx` interval is impossible in a faithful
    /// trace. The candidate is the earliest own transmission still in the
    /// air at the arrival start — own transmissions are serial, so at most
    /// one can overlap.
    fn check_half_duplex(&mut self, rx: &RxEvent) {
        let horizon = self.now_us.saturating_sub(self.max_frame_us);
        let Some(deque) = self.own_tx.get_mut(&rx.node) else {
            return;
        };
        while deque.front().is_some_and(|t| t.end_us <= horizon) {
            deque.pop_front();
            self.live_tx -= 1;
        }
        let Some(tx) = deque.iter().find(|t| t.end_us > rx.start_us) else {
            return;
        };
        if overlaps(tx.time_us, tx.end_us, rx.start_us, rx.end_us) {
            self.findings.push(Violation {
                kind: ViolationKind::HalfDuplexDecode,
                record_index: rx.record,
                time_us: rx.start_us,
                node: Some(rx.node),
                detail: format!(
                    "{} from n{} decoded over [{}, {}] us while own {} tx \
                     (record #{}) occupied [{}, {}] us",
                    rx.kind,
                    rx.src,
                    rx.start_us,
                    rx.end_us,
                    tx.kind,
                    tx.record,
                    tx.time_us,
                    tx.end_us
                ),
                observed_us: Some(
                    tx.end_us
                        .min(rx.end_us)
                        .saturating_sub(tx.time_us.max(rx.start_us)),
                ),
                allowed_us: Some(0),
            });
        }
    }

    /// Slotted protocols (EW-MAC variants, S-FAMA) send every negotiated
    /// control and data frame on a slot boundary, within the run's timing
    /// tolerance. Beacons, RTAs, and EW-MAC's extra frames are
    /// deliberately mid-slot and exempt.
    fn check_slot_alignment(&mut self, tx: &TxEvent) {
        let Some(geo) = &self.geometry else {
            return;
        };
        let run = &geo.run;
        if !run.is_slot_aligned() || run.slot_us == 0 {
            return;
        }
        let slotted = matches!(
            tx.kind,
            FrameKind::Rts | FrameKind::Cts | FrameKind::Data | FrameKind::Ack
        );
        if !slotted {
            return;
        }
        let offset = tx.time_us % run.slot_us;
        // Distance to the *nearest* boundary: a fast clock fires a hair
        // before the slot starts, which the modulus reads as almost a full
        // slot late.
        let misalign = offset.min(run.slot_us - offset);
        if misalign > geo.tolerance_us {
            self.findings.push(Violation {
                kind: ViolationKind::SlotMisalignment,
                record_index: tx.record,
                time_us: tx.time_us,
                node: Some(tx.node),
                detail: format!(
                    "{} to n{} transmitted {} us from the slot boundary (slot = {} us)",
                    tx.kind, tx.dst, misalign, run.slot_us
                ),
                observed_us: Some(misalign),
                allowed_us: Some(geo.tolerance_us),
            });
        }
    }

    /// Tracks RTS/CTS transmissions that announce pair delay and data
    /// duration. A CTS *is* the grant and reserves its four busy intervals
    /// immediately; an RTS alone reserves nothing — the receiver may deny
    /// it (or answer with an EXC instead) — so it is held pending until a
    /// CTS from its addressee reaches the sender within two slots.
    fn track_negotiation(&mut self, tx: &TxEvent) {
        if self.geometry.is_none() {
            return;
        }
        let (Some(pair_delay_us), Some(data_dur_us)) = (tx.pair_delay_us, tx.data_dur_us) else {
            return;
        };
        match tx.kind {
            FrameKind::Cts => {
                self.materialize(
                    PendingRts {
                        record: tx.record,
                        time_us: tx.time_us,
                        node: tx.node,
                        dst: tx.dst,
                        pair_delay_us,
                        data_dur_us,
                    },
                    true,
                );
            }
            FrameKind::Rts => {
                self.pending_rts.push(PendingRts {
                    record: tx.record,
                    time_us: tx.time_us,
                    node: tx.node,
                    dst: tx.dst,
                    pair_delay_us,
                    data_dur_us,
                });
            }
            _ => {}
        }
    }

    /// Materializes the four reserved busy intervals of one negotiation,
    /// keeping the reservation list ordered by negotiation record so that
    /// findings against multiple reservations replay in the post-hoc
    /// checker's order.
    fn materialize(&mut self, neg_tx: PendingRts, peer_is_receiver: bool) {
        let PendingRts {
            record,
            time_us,
            node,
            dst,
            pair_delay_us,
            data_dur_us,
        } = neg_tx;
        let Some(geo) = &self.geometry else {
            return;
        };
        let clock = &geo.clock;
        // Snap to the *nearest* boundary: a fast clock transmits a hair
        // before its slot starts, and flooring would file the negotiation
        // one slot early.
        let half_slot = SimDuration::from_micros(clock.slot_len().as_micros() / 2);
        let neg = ObservedNegotiation {
            peer: NodeId::new(node as u32),
            other: NodeId::new(dst as u32),
            peer_is_receiver,
            control_slot: clock.slot_of(SimTime::from_micros(time_us) + half_slot),
            pair_delay: SimDuration::from_micros(pair_delay_us),
            data_duration: SimDuration::from_micros(data_dur_us),
        };
        let (receiver, sender) = if neg.peer_is_receiver {
            (neg.peer, neg.other)
        } else {
            (neg.other, neg.peer)
        };
        let data_rx_start = neg.data_arrival_at_receiver(clock).as_micros();
        let data_tx_start = clock.start_of(neg.data_slot()).as_micros();
        let ack_start = clock.start_of(neg.ack_slot(clock)).as_micros();
        let omega_us = geo.run.omega_us;
        let intervals = [
            Reservation {
                node: receiver.index(),
                start_us: data_rx_start,
                end_us: data_rx_start + data_dur_us,
                what: "data reception",
                neg_record: record,
            },
            Reservation {
                node: receiver.index(),
                start_us: ack_start,
                end_us: ack_start + omega_us,
                what: "ack transmission",
                neg_record: record,
            },
            Reservation {
                node: sender.index(),
                start_us: data_tx_start,
                end_us: data_tx_start + data_dur_us,
                what: "data transmission",
                neg_record: record,
            },
            Reservation {
                node: sender.index(),
                start_us: ack_start + pair_delay_us,
                end_us: ack_start + pair_delay_us + omega_us,
                what: "ack reception",
                neg_record: record,
            },
        ];
        // An RTS granted late may materialize after a CTS that was
        // transmitted between the RTS and its grant: insert at the
        // record-sorted position, not the end.
        let pos = self.reserved.partition_point(|r| r.neg_record <= record);
        for (i, interval) in intervals.into_iter().enumerate() {
            self.reserved.insert(pos + i, interval);
        }
    }

    /// Materializes every pending RTS this decoded CTS grants: the CTS
    /// must come from the RTS addressee, reach the RTS sender, and land
    /// within two slots (a later CTS belongs to a later retry).
    fn apply_grants(&mut self, rx: &RxEvent) {
        let Some(geo) = &self.geometry else {
            return;
        };
        if rx.kind != FrameKind::Cts || !rx.addressed {
            return;
        }
        let window = 2 * geo.run.slot_us;
        let mut i = 0;
        while i < self.pending_rts.len() {
            let p = &self.pending_rts[i];
            if rx.node == p.node
                && rx.src == p.dst
                && rx.end_us > p.time_us
                && rx.end_us <= p.time_us + window
            {
                let p = self.pending_rts.remove(i);
                self.materialize(p, false);
            } else {
                i += 1;
            }
        }
    }

    /// Decoded EX arrivals addressed to a pair node: the whole arrival
    /// window must stay clear of that node's reserved intervals, shrunk
    /// by the timing tolerance on each side.
    fn check_decoded_intrusion(&mut self, rx: &RxEvent) {
        let Some(geo) = &self.geometry else {
            return;
        };
        let tolerance = geo.tolerance_us;
        if !rx.kind.is_extra() || !rx.addressed {
            return;
        }
        for res in self.reserved.iter().filter(|r| r.node == rx.node) {
            let core_start = res.start_us + tolerance;
            let core_end = res.end_us.saturating_sub(tolerance);
            if core_start >= core_end {
                // The tolerance swallows the whole interval: the schedule
                // cannot distinguish an intruder from clock error here.
                continue;
            }
            if overlaps(rx.start_us, rx.end_us, core_start, core_end) {
                let depth = rx
                    .end_us
                    .min(res.end_us)
                    .saturating_sub(rx.start_us.max(res.start_us));
                self.findings.push(Violation {
                    kind: ViolationKind::ExtraWindowIntrusion,
                    record_index: rx.record,
                    time_us: rx.start_us,
                    node: Some(rx.node),
                    detail: format!(
                        "{} from n{} arrived over [{}, {}] us inside reserved {} \
                         [{}, {}] us of the negotiation at record #{}",
                        rx.kind,
                        rx.src,
                        rx.start_us,
                        rx.end_us,
                        res.what,
                        res.start_us,
                        res.end_us,
                        res.neg_record
                    ),
                    observed_us: Some(depth),
                    allowed_us: Some(tolerance),
                });
            }
        }
    }

    /// Lost EX arrivals addressed to a pair node: a loss whose start lands
    /// inside a reserved interval (beyond the timing tolerance) means the
    /// extra frame was the intruder that corrupted the negotiated
    /// exchange.
    fn check_lost_intrusion(&mut self, lost: &RxLostEvent) {
        let Some(geo) = &self.geometry else {
            return;
        };
        let tolerance = geo.tolerance_us;
        if !lost.kind.is_extra() || lost.dst != lost.node {
            return;
        }
        for res in self.reserved.iter().filter(|r| r.node == lost.node) {
            if lost.start_us <= res.start_us || lost.start_us >= res.end_us {
                continue;
            }
            // Distance from the start to the nearest interval boundary:
            // how far inside the reservation the loss begins.
            let depth = (lost.start_us - res.start_us).min(res.end_us - lost.start_us);
            if depth > tolerance {
                self.findings.push(Violation {
                    kind: ViolationKind::ExtraWindowIntrusion,
                    record_index: lost.record,
                    time_us: lost.start_us,
                    node: Some(lost.node),
                    detail: format!(
                        "{} from n{} lost ({}) at {} us inside reserved {} [{}, {}] us \
                         of the negotiation at record #{}",
                        lost.kind,
                        lost.src,
                        lost.reason,
                        lost.start_us,
                        res.what,
                        res.start_us,
                        res.end_us,
                        res.neg_record
                    ),
                    observed_us: Some(depth),
                    allowed_us: Some(tolerance),
                });
            }
        }
    }
}

/// One record a [`FlightRecorder`] holds: as the world typed it, with
/// its header, or as text.
#[derive(Debug)]
enum Held {
    Typed(SimTime, TraceLevel, Option<usize>, &'static str, Typed),
    Text(TraceRecord),
}

/// The world's typed records: its audit schema, and the modem-busy drop.
#[derive(Debug, Clone)]
enum Typed {
    Record(ParsedRecord),
    TxDrop(TxDropEvent),
}

impl Held {
    fn render(&self) -> TraceRecord {
        let (time, level, node, tag, event): (_, _, _, _, &dyn TraceEvent) = match self {
            Held::Text(record) => return record.clone(),
            Held::Typed(time, level, node, tag, Typed::Record(e)) => (time, level, node, tag, e),
            Held::Typed(time, level, node, tag, Typed::TxDrop(e)) => (time, level, node, tag, e),
        };
        TraceRecord::from_event(*time, *level, *node, tag, event)
    }
}

/// Fixed-capacity flight recorder: retains the most recent records and
/// snapshots them to `<dir>/<seq>-<kind>.jsonl` whenever a monitor
/// finding fires, so anomalies in untraced swarm-scale runs still come
/// with their surrounding evidence. Typed records stay typed until a
/// dump renders the window.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<Held>,
    capacity: usize,
    dir: PathBuf,
    dumps: u64,
    io_errors: u64,
    first_error: Option<String>,
}

impl FlightRecorder {
    /// A recorder dumping into `dir` (created on first finding), keeping
    /// the last `capacity` records.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dir: dir.into(),
            dumps: 0,
            io_errors: 0,
            first_error: None,
        }
    }

    fn observe(&mut self, held: Held) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(held);
    }

    /// Snapshot files written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    fn dump(&mut self, finding: &Violation) {
        let name = format!("{:03}-{}.jsonl", self.dumps, finding.kind);
        self.dumps += 1;
        let path = self.dir.join(name);
        let result = (|| -> io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            let window: Vec<TraceRecord> = self.ring.iter().map(Held::render).collect();
            let mut buf = Vec::new();
            export_jsonl(&window, &mut buf)?;
            std::fs::write(&path, buf)
        })();
        if let Err(e) = result {
            self.io_errors += 1;
            if self.first_error.is_none() {
                self.first_error = Some(format!("{}: {e}", path.display()));
            }
        }
    }
}

/// Everything a harness wants to know after a monitored run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// All findings, sorted by (record index, time) like the post-hoc
    /// checker's output.
    pub findings: Vec<Violation>,
    /// Records the sink consumed.
    pub records_seen: u64,
    /// Records of a known tag that lacked the structured fields the
    /// monitors need and were skipped.
    pub skipped: u64,
    /// Largest live working set the monitors held (own transmissions +
    /// pending grants + reservations + in-flight routed copy paths, as
    /// [`MonitorSet::tracked`] counts it): bounded-memory evidence.
    pub peak_tracked: usize,
    /// Flight-recorder snapshot files written.
    pub flight_dumps: u64,
    /// Flight-recorder dump failures (first error in
    /// [`MonitorReport::flight_error`]).
    pub flight_io_errors: u64,
    /// Description of the first flight-recorder I/O error, if any.
    pub flight_error: Option<String>,
}

impl MonitorReport {
    /// Finding counts per violation kind, every kind listed, in display
    /// order.
    pub fn counts_by_kind(&self) -> Vec<(ViolationKind, usize)> {
        ViolationKind::ALL
            .iter()
            .map(|&k| (k, self.findings.iter().filter(|v| v.kind == k).count()))
            .collect()
    }
}

#[derive(Debug)]
struct MonitorInner {
    monitors: MonitorSet,
    flight: Option<FlightRecorder>,
    records_seen: u64,
    skipped: u64,
    next_record: usize,
}

impl MonitorInner {
    /// Numbers the next record (the index its findings cite).
    fn next_index(&mut self) -> usize {
        let index = self.next_record;
        self.next_record += 1;
        self.records_seen += 1;
        index
    }

    /// Feeds one typed record to the monitors and snapshots the flight
    /// recorder for every finding it raises.
    fn observe(&mut self, parsed: &ParsedRecord) {
        if matches!(parsed, ParsedRecord::Skipped) {
            self.skipped += 1;
        }
        let before = self.monitors.findings().len();
        self.monitors.observe(parsed);
        if let Some(flight) = self.flight.as_mut() {
            for finding in &self.monitors.findings()[before..] {
                flight.dump(finding);
            }
        }
    }
}

/// The handle a harness keeps on a streaming monitor: hand
/// [`StreamingMonitor::sink`] to `Tracer::with_sink` before the run, call
/// [`StreamingMonitor::report`] after it.
#[derive(Debug, Clone)]
pub struct StreamingMonitor {
    inner: Arc<Mutex<MonitorInner>>,
}

impl Default for StreamingMonitor {
    fn default() -> Self {
        StreamingMonitor::new()
    }
}

impl StreamingMonitor {
    /// A monitor with no flight recorder.
    pub fn new() -> StreamingMonitor {
        StreamingMonitor {
            inner: Arc::new(Mutex::new(MonitorInner {
                monitors: MonitorSet::new(),
                flight: None,
                records_seen: 0,
                skipped: 0,
                next_record: 0,
            })),
        }
    }

    /// Attaches a flight recorder dumping the last `capacity` records into
    /// `dir` on every finding.
    pub fn with_flight_recorder(self, dir: impl Into<PathBuf>, capacity: usize) -> Self {
        self.inner.lock().expect("monitor lock").flight = Some(FlightRecorder::new(dir, capacity));
        self
    }

    /// A boxed [`TraceSink`] feeding this monitor; attach it with
    /// `Tracer::with_sink`. Record indices count the records this sink
    /// sees, matching the body-line numbering of a lossless JSONL export
    /// at the same trace level.
    pub fn sink(&self) -> Box<dyn TraceSink + Send> {
        Box::new(MonitorSink {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Harvests the report: findings sorted exactly like the post-hoc
    /// checker's output.
    pub fn report(&self) -> MonitorReport {
        let inner = self.inner.lock().expect("monitor lock");
        let mut findings = inner.monitors.findings().to_vec();
        findings.sort_by_key(|v| (v.record_index, v.time_us));
        MonitorReport {
            findings,
            records_seen: inner.records_seen,
            skipped: inner.skipped,
            peak_tracked: inner.monitors.peak_tracked(),
            flight_dumps: inner.flight.as_ref().map_or(0, |f| f.dumps),
            flight_io_errors: inner.flight.as_ref().map_or(0, |f| f.io_errors),
            flight_error: inner.flight.as_ref().and_then(|f| f.first_error.clone()),
        }
    }
}

/// The [`TraceSink`] adapter: feeds each record to the [`MonitorSet`] —
/// the world's typed records as they are, rendered records through the
/// same decoder as the post-hoc model — teeing every record into the
/// flight recorder first so a finding's snapshot includes the record that
/// exposed it.
pub struct MonitorSink {
    inner: Arc<Mutex<MonitorInner>>,
}

impl TraceSink for MonitorSink {
    fn accept(&mut self, record: &TraceRecord) {
        let mut inner = self.inner.lock().expect("monitor lock");
        let index = inner.next_index();
        if let Some(flight) = inner.flight.as_mut() {
            flight.observe(Held::Text(record.clone()));
        }
        inner.observe(&parse_record(index, record));
    }

    fn accept_event(
        &mut self,
        time: SimTime,
        level: TraceLevel,
        node: Option<usize>,
        tag: &'static str,
        event: &dyn TraceEvent,
    ) {
        let any: &dyn Any = event;
        let mut typed = match (
            any.downcast_ref::<ParsedRecord>(),
            any.downcast_ref::<TxDropEvent>(),
        ) {
            (Some(record), _) => Typed::Record(record.clone()),
            (_, Some(drop)) => Typed::TxDrop(drop.clone()),
            // Not a record of the world's schema: read its text, as any
            // rendered record is read.
            _ => return self.accept(&TraceRecord::from_event(time, level, node, tag, event)),
        };
        let mut inner = self.inner.lock().expect("monitor lock");
        let index = inner.next_index();
        if let Typed::Record(parsed) = &mut typed {
            parsed.set_record(index);
        }
        if let Some(flight) = inner.flight.as_mut() {
            flight.observe(Held::Typed(time, level, node, tag, typed.clone()));
        }
        // A modem-busy drop carries nothing the monitors check.
        if let Typed::Record(parsed) = &typed {
            inner.observe(parsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceModel;
    use std::borrow::Cow;
    use uasn_sim::trace::{field, Field, TraceLevel};

    fn record(time_us: u64, node: usize, tag: &'static str, fields: Vec<Field>) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(time_us),
            level: TraceLevel::Debug,
            node: Some(node),
            tag: Cow::Borrowed(tag),
            message: String::new(),
            fields,
        }
    }

    fn tx_record(time_us: u64, node: usize, kind: &str, dst: u64, dur_us: u64) -> TraceRecord {
        record(
            time_us,
            node,
            "tx",
            vec![
                field("kind", kind),
                field("dst", dst),
                field("bits", 64u64),
                field("dur_us", dur_us),
            ],
        )
    }

    fn rx_record(end_us: u64, node: usize, kind: &str, src: u64, start_us: u64) -> TraceRecord {
        record(
            end_us,
            node,
            "rx",
            vec![
                field("kind", kind),
                field("src", src),
                field("dst", node as u64),
                field("bits", 64u64),
                field("start_us", start_us),
                field("prop_us", 100u64),
                field("addressed", true),
            ],
        )
    }

    fn run_info_record() -> TraceRecord {
        record(
            0,
            0,
            "run-info",
            vec![
                field("protocol", "EW-MAC"),
                field("nodes", 4u64),
                field("sinks", 1u64),
                field("bitrate_bps", 12_000.0f64),
                field("omega_us", 5_333u64),
                field("tau_max_us", 1_000_000u64),
                field("slot_us", 1_005_333u64),
                field("mobility", false),
                field("forwarding", true),
            ],
        )
    }

    /// A stream with one violation of each streamable kind.
    fn violating_stream() -> Vec<TraceRecord> {
        let slot = 1_005_333u64;
        vec![
            run_info_record(),
            // Slot misalignment: CTS 40 us off the slot-1 boundary. It
            // also announces a negotiation reserving windows at n1/n2.
            record(
                slot + 40,
                1,
                "tx",
                vec![
                    field("kind", "CTS"),
                    field("dst", 2u64),
                    field("bits", 64u64),
                    field("dur_us", 5_333u64),
                    field("pair_delay_us", 600_000u64),
                    field("data_dur_us", 170_667u64),
                ],
            ),
            // Half-duplex: n3 decodes while its own tx is in the air.
            // (A beacon: mid-slot by design, so it is exempt from the
            // slot-alignment check and plants no second violation.)
            tx_record(2_000_000, 3, "Beacon", 1, 5_333),
            rx_record(2_004_000, 3, "Data", 2, 2_001_000),
            // Extra-window intrusion: an EXR decoded at n1 inside its
            // reserved data reception [slot*2 + 600_000, + 170_667].
            rx_record(2 * slot + 640_000, 1, "EXR", 3, 2 * slot + 620_000),
        ]
    }

    #[test]
    fn streaming_findings_match_the_post_hoc_checker() {
        let records = violating_stream();
        let monitor = StreamingMonitor::new();
        {
            let mut sink = monitor.sink();
            for r in &records {
                sink.accept(r);
            }
        }
        let online = monitor.report();
        let offline = crate::invariant::check(&TraceModel::from_records(&records));
        assert_eq!(online.findings.len(), 3, "one finding per planted anomaly");
        assert_eq!(online.findings, offline, "online and post-hoc must agree");
        assert_eq!(online.records_seen, records.len() as u64);
        assert_eq!(online.skipped, 0);
    }

    fn routed_run_info_record(ttl: u64) -> TraceRecord {
        let mut r = run_info_record();
        r.fields.push(field("route_policy", "greedy"));
        r.fields.push(field("route_ttl", ttl));
        r.fields.push(field("transport", true));
        r
    }

    fn route_record(time_us: u64, node: usize, sdu: u64, next_hop: u64) -> TraceRecord {
        record(
            time_us,
            node,
            "route",
            vec![
                field("sdu", sdu),
                field("origin", node as u64),
                field("next_hop", next_hop),
                field("attempt", 0u64),
            ],
        )
    }

    fn relay_record(time_us: u64, node: usize, sdu: u64, hops: u64) -> TraceRecord {
        record(
            time_us,
            node,
            "relay",
            vec![
                field("sdu", sdu),
                field("origin", 3u64),
                field("next_hop", 0u64),
                field("attempt", 0u64),
                field("hops", hops),
                field("bits", 2_048u64),
            ],
        )
    }

    #[test]
    fn routing_loop_findings_match_the_post_hoc_checker() {
        // sdu 7: n3 -> n2 -> n3 revisits its origin (impossible under
        // depth-monotone forwarding). sdu 8 relays at hop 4 >= ttl 3: the
        // world should have dropped it instead.
        let records = vec![
            routed_run_info_record(3),
            route_record(1_000, 3, 7, 2),
            relay_record(2_000, 2, 7, 1),
            relay_record(3_000, 3, 7, 2),
            route_record(4_000, 5, 8, 4),
            relay_record(5_000, 4, 8, 4),
        ];
        let monitor = StreamingMonitor::new();
        {
            let mut sink = monitor.sink();
            for r in &records {
                sink.accept(r);
            }
        }
        let online = monitor.report();
        assert_eq!(online.findings.len(), 2, "{:#?}", online.findings);
        assert!(online
            .findings
            .iter()
            .all(|v| v.kind == ViolationKind::RoutingLoop));
        assert!(online.findings[0].detail.contains("revisited"));
        assert_eq!(online.findings[1].observed_us, Some(4));
        assert_eq!(online.findings[1].allowed_us, Some(3));
        let loops = online
            .counts_by_kind()
            .into_iter()
            .find(|(k, _)| *k == ViolationKind::RoutingLoop)
            .expect("routing-loop kind listed");
        assert_eq!(loops.1, 2);

        let offline = crate::invariant::check(&TraceModel::from_records(&records));
        assert_eq!(online.findings, offline, "online and post-hoc must agree");
    }

    #[test]
    fn overlap_and_propagation_findings_stream_online() {
        // n1 decodes a frame from n2 over [1_000, 6_000] us and then one
        // from n3 over [4_000, 9_000] us: the second starts while the
        // first still occupies the modem. n2 then reaches n0 with a
        // propagation delay beyond tau_max.
        let mut far = rx_record(1_520_000, 0, "Data", 2, 1_510_000);
        far.fields.retain(|f| f.0 != "prop_us");
        far.fields.push(field("prop_us", 1_500_000u64));
        let records = vec![
            run_info_record(),
            rx_record(6_000, 1, "Data", 2, 1_000),
            rx_record(9_000, 1, "Data", 3, 4_000),
            far,
        ];
        let monitor = StreamingMonitor::new();
        {
            let mut sink = monitor.sink();
            for r in &records {
                sink.accept(r);
            }
        }
        let online = monitor.report();
        let kinds: Vec<ViolationKind> = online.findings.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            [
                ViolationKind::OverlappingReceptions,
                ViolationKind::PropagationInconsistency
            ],
            "{:#?}",
            online.findings
        );
        assert_eq!(online.findings[0].record_index, 2);
        assert!(online.findings[0].detail.contains("record #1"));
        assert_eq!(online.findings[0].observed_us, Some(2_000));
        assert_eq!(online.findings[1].allowed_us, Some(1_000_000));
        let offline = crate::invariant::check(&TraceModel::from_records(&records));
        assert_eq!(online.findings, offline, "online and post-hoc must agree");
    }

    #[test]
    fn retries_and_deliveries_release_path_state() {
        let deliver = record(
            9_000,
            0,
            "e2e-deliver",
            vec![
                field("sdu", 7u64),
                field("origin", 3u64),
                field("sink", 0u64),
                field("attempt", 0u64),
                field("hops", 2u64),
                field("e2e_us", 8_000u64),
            ],
        );
        let drop = record(
            9_500,
            5,
            "e2e-drop",
            vec![
                field("sdu", 8u64),
                field("origin", 5u64),
                field("attempt", 0u64),
                field("hops", 1u64),
                field("reason", "unroutable"),
            ],
        );
        let mut monitors = MonitorSet::new();
        // sdu 7 delivered through n3 -> n2 -> n0; sdu 8 lost at n5.
        monitors.observe(&parse_record(0, &route_record(1_000, 3, 7, 2)));
        monitors.observe(&parse_record(0, &relay_record(2_000, 2, 7, 1)));
        monitors.observe(&parse_record(0, &route_record(1_500, 5, 8, 4)));
        assert_eq!(monitors.tracked(), 2, "two in-flight paths");
        monitors.observe(&parse_record(0, &deliver));
        monitors.observe(&parse_record(0, &drop));
        assert_eq!(monitors.tracked(), 0, "terminal events prune the paths");
        // A transport retry re-seeds sdu 8's path; re-traversing n5 (its
        // own origin) and n4 is legal on the fresh copy.
        monitors.observe(&parse_record(0, &route_record(10_000, 5, 8, 4)));
        monitors.observe(&parse_record(0, &relay_record(11_000, 4, 8, 1)));
        assert!(
            monitors.into_findings().is_empty(),
            "no false loop findings across retries"
        );
    }

    #[test]
    fn monitor_working_set_stays_bounded() {
        // A long serial stream: every frame well clear of the previous
        // one, so pruning must keep the working set at a handful of
        // entries no matter how many records flow through.
        let mut monitors = MonitorSet::new();
        for i in 0..10_000u64 {
            let t = i * 1_000_000;
            monitors.observe(&ParsedRecord::Tx(TxEvent {
                record: i as usize,
                time_us: t,
                node: (i % 7) as usize,
                kind: FrameKind::Beacon,
                dst: ((i + 1) % 7) as usize,
                bits: 64,
                dur_us: 5_333,
                pair_delay_us: None,
                data_dur_us: None,
                sdu: None,
                origin: None,
                retx: false,
                bundle: 0,
                stamp_us: 0,
            }));
        }
        assert!(
            monitors.peak_tracked() <= 8,
            "10k serial transmissions must not accumulate: peak {}",
            monitors.peak_tracked()
        );
        assert!(monitors.into_findings().is_empty());
    }

    #[test]
    fn flight_recorder_dumps_are_deterministic() {
        let base = std::env::temp_dir().join(format!("uasn-flight-test-{}", std::process::id()));
        let dirs = [base.join("a"), base.join("b")];
        let records = violating_stream();
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
            let monitor = StreamingMonitor::new().with_flight_recorder(dir, 4);
            let mut sink = monitor.sink();
            for r in &records {
                sink.accept(r);
            }
            let report = monitor.report();
            assert_eq!(report.flight_dumps, 3);
            assert_eq!(report.flight_io_errors, 0, "{:?}", report.flight_error);
        }
        let list = |dir: &PathBuf| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .expect("flight dir exists")
                .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
                .collect();
            names.sort();
            names
        };
        let names = list(&dirs[0]);
        assert_eq!(names, list(&dirs[1]));
        assert_eq!(names.len(), 3);
        assert!(
            names.iter().any(|n| n.contains("slot-misalignment")),
            "dump names carry the finding kind: {names:?}"
        );
        for name in &names {
            let a = std::fs::read(dirs[0].join(name)).expect("dump a");
            let b = std::fs::read(dirs[1].join(name)).expect("dump b");
            assert_eq!(a, b, "{name}: same stream must dump identical bytes");
            // The snapshot is itself a parseable trace capped at the ring
            // capacity.
            let parsed = uasn_sim::trace::parse_jsonl(std::str::from_utf8(&a).expect("utf8"))
                .expect("dump parses as a trace");
            assert!(parsed.len() <= 4, "ring capacity bounds the snapshot");
        }

        // A seeded run with findings: the recorder keeps the world's
        // records typed, and its dumps equal byte for byte those of a
        // recorder fed the same run as rendered text.
        struct TextOnly(Box<dyn TraceSink + Send>);
        impl TraceSink for TextOnly {
            fn accept(&mut self, record: &TraceRecord) {
                self.0.accept(record);
            }
        }
        // Mobile nodes drift away from the delay estimates EW-MAC schedules
        // extras by, so this run raises extra-window findings.
        let cfg = uasn_net::SimConfig::paper_default()
            .with_sensors(30)
            .with_offered_load_kbps(1.5)
            .with_mobility(1.0)
            .with_sim_time(SimDuration::from_secs(300))
            .with_seed(11);
        let mut runs = Vec::new();
        for (dir, typed) in [(base.join("typed"), true), (base.join("text"), false)] {
            let _ = std::fs::remove_dir_all(&dir);
            let monitor = StreamingMonitor::new().with_flight_recorder(&dir, 16);
            let sink = monitor.sink();
            let sink: Box<dyn TraceSink + Send> = if typed {
                sink
            } else {
                Box::new(TextOnly(sink))
            };
            let factory = |id| -> Box<dyn uasn_net::mac::MacProtocol> {
                Box::new(uasn_ewmac::EwMac::new(
                    id,
                    uasn_ewmac::EwMacConfig::default(),
                ))
            };
            uasn_net::Simulation::new(cfg.clone(), &factory)
                .expect("valid config")
                .with_tracer(uasn_sim::trace::Tracer::new(TraceLevel::Debug).with_sink(sink))
                .run();
            let report = monitor.report();
            assert_eq!(report.flight_io_errors, 0, "{:?}", report.flight_error);
            runs.push((dir, report.flight_dumps));
        }
        let (typed_dir, dumps) = &runs[0];
        assert!(*dumps > 0, "the seeded run raised findings");
        assert_eq!(*dumps, runs[1].1);
        let names = list(typed_dir);
        assert_eq!(names, list(&runs[1].0));
        for name in &names {
            let typed = std::fs::read(typed_dir.join(name)).expect("typed dump");
            let text = std::fs::read(runs[1].0.join(name)).expect("text dump");
            assert_eq!(
                typed, text,
                "{name}: typed and rendered rings dump the same bytes"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
