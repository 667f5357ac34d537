//! The typed schema of the world's trace records.
//!
//! Every record the world traces is built once, as a [`ParsedRecord`] (or
//! a [`TxDropEvent`], the one record outside the audit schema), and handed
//! to the tracer through [`Tracer::record_event`]. A sink that reads the
//! type — the audit's streaming monitors — downcasts the event and never
//! sees text. The text form exists only for text sinks: [`TraceEvent::render`]
//! gives each record's message and structured fields, byte for byte the
//! layout of the `uasn-trace` v1 JSONL stream. The audit layer's
//! `parse_record` is the one decoder of that text back into this schema,
//! so the online path (typed) and the post-hoc path (text) read one schema.
//!
//! A few fields exist only so that the text renders exactly: the frame
//! timestamp and a lost frame's size appear in the message, and the
//! bundle count, the measured delay and the run's timing-budget flag
//! decide whether a field is written at all.
//!
//! [`Tracer::record_event`]: uasn_sim::trace::Tracer::record_event

use std::borrow::Cow;

use uasn_sim::time::SimTime;
use uasn_sim::trace::{field, Field, TraceEvent};

use crate::packet::FrameKind;

/// The run-description record (`run-info` tag) the world emits at t = 0:
/// protocol identity, network shape, and the slot geometry the invariant
/// checker replays against.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Protocol display name (e.g. `"EW-MAC"`, `"S-FAMA"`).
    pub protocol: String,
    /// Total node count (sensors + sinks).
    pub nodes: usize,
    /// Surface sink count.
    pub sinks: usize,
    /// Modem bitrate, bits per second.
    pub bitrate_bps: f64,
    /// Control-packet airtime ω, microseconds.
    pub omega_us: u64,
    /// Maximum propagation delay τmax, microseconds.
    pub tau_max_us: u64,
    /// Slot length |ts| = 2·τmax + ω (paper §4.1), microseconds.
    pub slot_us: u64,
    /// Whether nodes drift (disables time-invariant propagation checks).
    pub mobility: bool,
    /// Whether multi-hop forwarding toward sinks is on.
    pub forwarding: bool,
    /// Whether the record carries `guard_us` and `clock_error_us`: runs
    /// off the ideal-sync paper model write them, ideal ones omit both.
    pub timing_budget: bool,
    /// Guard band appended to every slot, microseconds. Zero for traces
    /// from ideal-sync runs (which omit the field entirely).
    pub guard_us: u64,
    /// Worst-case per-node clock error the run was configured for,
    /// microseconds. Zero under the ideal clock model.
    pub clock_error_us: u64,
    /// Forwarding policy name of a routed run (`"greedy"`,
    /// `"random-shallowest"`). Absent from non-routed traces.
    pub route_policy: Option<String>,
    /// Hop-count TTL of a routed run; the loop monitor's path-length
    /// bound. Absent from non-routed traces.
    pub route_ttl: Option<u64>,
    /// Whether the routed run ran the end-to-end transport (origin-side
    /// retransmission with sink acks).
    pub transport: bool,
}

impl RunInfo {
    /// Whether this protocol transmits its negotiated control/data packets
    /// on slot boundaries (EW-MAC variants and S-FAMA; CS-MAC steals
    /// mid-slot, ROPA and ALOHA are unslotted).
    pub fn is_slot_aligned(&self) -> bool {
        self.protocol.starts_with("EW-MAC") || self.protocol == "S-FAMA"
    }

    /// The timing tolerance every boundary-sensitive check must allow: two
    /// drifting clocks can disagree by twice the per-node error, and the
    /// guard band is slack the protocol *intends* events to use.
    pub fn tolerance_us(&self) -> u64 {
        self.guard_us + 2 * self.clock_error_us
    }
}

/// A transmission start (`tx` tag).
#[derive(Debug, Clone, PartialEq)]
pub struct TxEvent {
    /// Index of the source record in the parsed trace (the violation
    /// pointer).
    pub record: usize,
    /// Transmit start, microseconds.
    pub time_us: u64,
    /// Transmitting node; also the frame's source in the message.
    pub node: usize,
    /// Frame kind.
    pub kind: FrameKind,
    /// Addressed node.
    pub dst: usize,
    /// Frame length, bits.
    pub bits: u32,
    /// Airtime, microseconds.
    pub dur_us: u64,
    /// Announced pair propagation delay τ (CTS/EXC), microseconds.
    pub pair_delay_us: Option<u64>,
    /// Announced data duration TD (RTS/CTS), microseconds.
    pub data_dur_us: Option<u64>,
    /// Primary SDU riding a data frame.
    pub sdu: Option<u64>,
    /// Origin node of that SDU.
    pub origin: Option<usize>,
    /// Whether this data frame is a retransmission (written only for
    /// frames that carry an SDU).
    pub retx: bool,
    /// SDUs aggregated beyond the primary one (0: the field is absent).
    pub bundle: u16,
    /// The frame's timestamp — the sender's clock reading at the start,
    /// microseconds. Appears only in the message; it equals `time_us`
    /// under ideal clocks.
    pub stamp_us: u64,
}

/// A decoded reception (`rx` tag); the record time is the arrival **end**.
#[derive(Debug, Clone, PartialEq)]
pub struct RxEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Arrival end (last bit decoded), microseconds.
    pub end_us: u64,
    /// Receiving node.
    pub node: usize,
    /// Frame kind.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: usize,
    /// Addressed node.
    pub dst: usize,
    /// Frame length, bits.
    pub bits: u32,
    /// Arrival start (first bit), microseconds.
    pub start_us: u64,
    /// Propagation delay this copy experienced, microseconds.
    pub prop_us: u64,
    /// Whether the frame was addressed to the receiving node.
    pub addressed: bool,
    /// The delay the receiver measured from the frame's timestamp,
    /// microseconds: written only under drifting clocks, where it differs
    /// from `prop_us`.
    pub meas_us: Option<u64>,
    /// Primary SDU riding a data frame.
    pub sdu: Option<u64>,
    /// Origin node of that SDU.
    pub origin: Option<usize>,
    /// The frame's timestamp (the sender's clock at transmit start),
    /// microseconds. Appears only in the message.
    pub stamp_us: u64,
}

/// A lost reception (`rx-lost` tag): collision, half-duplex, or channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RxLostEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Arrival end, microseconds.
    pub end_us: u64,
    /// Receiving node.
    pub node: usize,
    /// Frame kind.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: usize,
    /// Addressed node.
    pub dst: usize,
    /// Frame length, bits.
    pub bits: u32,
    /// Arrival start, microseconds.
    pub start_us: u64,
    /// Loss reason (`"collision"` or `"channel"`).
    pub reason: Cow<'static, str>,
    /// The frame's timestamp (the sender's clock at transmit start),
    /// microseconds. Appears only in the message.
    pub stamp_us: u64,
}

/// An SDU entering a MAC queue (`enq` tag): generation or forwarding hop.
#[derive(Debug, Clone, PartialEq)]
pub struct EnqEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Enqueue time, microseconds.
    pub time_us: u64,
    /// Enqueueing node.
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Next-hop destination.
    pub next_hop: usize,
    /// Payload bits.
    pub bits: u64,
    /// `true` for a forwarding hop, `false` for fresh generation.
    pub fwd: bool,
}

/// An SDU reaching a surface sink (`sink` tag).
#[derive(Debug, Clone, PartialEq)]
pub struct SinkEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Arrival time, microseconds.
    pub time_us: u64,
    /// Sink node.
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Payload bits.
    pub bits: u64,
    /// End-to-end latency measured by the simulator (first arrival only).
    pub e2e_us: Option<u64>,
}

/// A terminal MAC drop (`sdu-drop` tag).
#[derive(Debug, Clone, PartialEq)]
pub struct DropEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Drop time, microseconds.
    pub time_us: u64,
    /// Dropping node.
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Causal drop reason (e.g. `"retry-exhausted"`), when the trace
    /// carries one. Absent from pre-forensics traces.
    pub reason: Option<Cow<'static, str>>,
}

/// An SDU copy injected (or re-injected by a transport retry) at its
/// origin (`route` tag). Each `route` event starts a fresh source→sink
/// path for that SDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Injection time, microseconds.
    pub time_us: u64,
    /// Origin node (also written as the record's `origin` field).
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Chosen next hop.
    pub next_hop: usize,
    /// Transport attempt (0 = first injection).
    pub attempt: u64,
}

/// A relay decision at an intermediate node (`relay` tag): the SDU copy
/// arrived here and was re-enqueued toward a strictly shallower next hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Relay time, microseconds.
    pub time_us: u64,
    /// Relaying node.
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Chosen next hop.
    pub next_hop: usize,
    /// Transport attempt (copy number) this relay belongs to.
    pub attempt: u64,
    /// MAC hops the copy has traversed to reach this node.
    pub hops: u64,
    /// Payload bits.
    pub bits: u64,
}

/// A routed loss (`relay-drop` / `e2e-drop` tags). `terminal` is `false`
/// for a copy-level loss a pending transport retry can still rescue and
/// `true` when this loss is the SDU's final fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDropEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Drop time, microseconds.
    pub time_us: u64,
    /// Dropping node.
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Transport attempt (copy number) of the lost copy (absent from
    /// retry-exhaustion drops, which retire the whole SDU rather than
    /// one copy).
    pub attempt: Option<u64>,
    /// MAC hops the lost copy had traversed (absent from
    /// retry-exhaustion drops, which happen at the origin between
    /// copies).
    pub hops: Option<u64>,
    /// Transport attempts consumed (retry-exhaustion drops only).
    pub attempts: Option<u64>,
    /// Causal reason (`"unroutable"`, `"ttl-exhausted"`,
    /// `"retry-exhausted"`).
    pub reason: Cow<'static, str>,
    /// Whether the loss is terminal (`e2e-drop`) rather than copy-level
    /// (`relay-drop`).
    pub terminal: bool,
}

/// A first end-to-end delivery (`e2e-deliver` tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2eDeliverEvent {
    /// Index of the source record in the parsed trace.
    pub record: usize,
    /// Delivery time, microseconds.
    pub time_us: u64,
    /// Sink node (also written as the record's `sink` field).
    pub node: usize,
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Transport attempt (copy number) that completed the delivery.
    pub attempt: u64,
    /// MAC hops on the delivered path (origin → sink).
    pub hops: u64,
    /// End-to-end latency, microseconds.
    pub e2e_us: u64,
}

/// One trace record in the audit's typed event space: what the world
/// emits and what the audit's decoder gives back from text.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedRecord {
    /// The run-description record (boxed: it is the largest variant and
    /// appears once per trace).
    RunInfo(Box<RunInfo>),
    /// A transmission start.
    Tx(TxEvent),
    /// A decoded reception.
    Rx(RxEvent),
    /// A lost reception.
    RxLost(RxLostEvent),
    /// An SDU entering a MAC queue.
    Enq(EnqEvent),
    /// An SDU reaching a surface sink.
    Sink(SinkEvent),
    /// A terminal MAC drop.
    Drop(DropEvent),
    /// A routed SDU copy injected at its origin.
    Route(RouteEvent),
    /// A relay decision at an intermediate node.
    Relay(RelayEvent),
    /// A routed loss (copy-level or terminal).
    RouteDrop(RouteDropEvent),
    /// A first end-to-end delivery.
    E2eDeliver(E2eDeliverEvent),
    /// A known tag that lacked the structured fields the audit needs
    /// (message-only traces).
    Skipped,
    /// An unknown tag, ignored for schema growth.
    Other,
}

// A trace model holds one of these per frame record; with the run
// description boxed, the enum stays at its per-frame variants' size.
const _: () = assert!(std::mem::size_of::<ParsedRecord>() <= 128);

impl ParsedRecord {
    /// The header this record is traced under: time, node and tag. The
    /// run description sits at t = 0 on no node; `Skipped` and `Other`
    /// carry no data and have none.
    pub fn head(&self) -> Option<(SimTime, Option<usize>, &'static str)> {
        let at = |us: u64, node: usize, tag| Some((SimTime::from_micros(us), Some(node), tag));
        match self {
            ParsedRecord::RunInfo(_) => Some((SimTime::ZERO, None, "run-info")),
            ParsedRecord::Tx(e) => at(e.time_us, e.node, "tx"),
            ParsedRecord::Rx(e) => at(e.end_us, e.node, "rx"),
            ParsedRecord::RxLost(e) => at(e.end_us, e.node, "rx-lost"),
            ParsedRecord::Enq(e) => at(e.time_us, e.node, "enq"),
            ParsedRecord::Sink(e) => at(e.time_us, e.node, "sink"),
            ParsedRecord::Drop(e) => at(e.time_us, e.node, "sdu-drop"),
            ParsedRecord::Route(e) => at(e.time_us, e.node, "route"),
            ParsedRecord::Relay(e) => at(e.time_us, e.node, "relay"),
            ParsedRecord::RouteDrop(e) => {
                let tag = if e.terminal { "e2e-drop" } else { "relay-drop" };
                at(e.time_us, e.node, tag)
            }
            ParsedRecord::E2eDeliver(e) => at(e.time_us, e.node, "e2e-deliver"),
            ParsedRecord::Skipped | ParsedRecord::Other => None,
        }
    }

    /// Points the event at trace record `record` (the index a finding
    /// cites). The run description carries no index.
    pub fn set_record(&mut self, record: usize) {
        match self {
            ParsedRecord::Tx(e) => e.record = record,
            ParsedRecord::Rx(e) => e.record = record,
            ParsedRecord::RxLost(e) => e.record = record,
            ParsedRecord::Enq(e) => e.record = record,
            ParsedRecord::Sink(e) => e.record = record,
            ParsedRecord::Drop(e) => e.record = record,
            ParsedRecord::Route(e) => e.record = record,
            ParsedRecord::Relay(e) => e.record = record,
            ParsedRecord::RouteDrop(e) => e.record = record,
            ParsedRecord::E2eDeliver(e) => e.record = record,
            ParsedRecord::RunInfo(_) | ParsedRecord::Skipped | ParsedRecord::Other => {}
        }
    }
}

/// A frame's message label, as `Frame`'s `Display` writes it:
/// `KIND[nSRC->nDST BITSb @STAMP]`.
fn frame_label(kind: FrameKind, src: usize, dst: usize, bits: u32, stamp_us: u64) -> String {
    format!(
        "{kind}[n{src}->n{dst} {bits}b @{}]",
        SimTime::from_micros(stamp_us)
    )
}

impl TraceEvent for ParsedRecord {
    fn render(&self) -> (String, Vec<Field>) {
        match self {
            ParsedRecord::RunInfo(run) => (String::new(), render_run_info(run)),
            ParsedRecord::Tx(e) => {
                let mut fields = vec![
                    field("kind", e.kind.label()),
                    field("dst", e.dst),
                    field("bits", e.bits),
                    field("dur_us", e.dur_us),
                ];
                if let Some(tau) = e.pair_delay_us {
                    fields.push(field("pair_delay_us", tau));
                }
                if let Some(td) = e.data_dur_us {
                    fields.push(field("data_dur_us", td));
                }
                if let Some(sdu) = e.sdu {
                    fields.push(field("sdu", sdu));
                }
                if let Some(origin) = e.origin {
                    fields.push(field("origin", origin));
                }
                if e.retx {
                    fields.push(field("retx", true));
                }
                if e.bundle > 0 {
                    fields.push(field("bundle", e.bundle));
                }
                let label = frame_label(e.kind, e.node, e.dst, e.bits, e.stamp_us);
                (label, fields)
            }
            ParsedRecord::Rx(e) => {
                let mut fields = vec![
                    field("kind", e.kind.label()),
                    field("src", e.src),
                    field("dst", e.dst),
                    field("bits", e.bits),
                    field("start_us", e.start_us),
                    field("prop_us", e.prop_us),
                    field("addressed", e.addressed),
                ];
                if let Some(meas) = e.meas_us {
                    fields.push(field("meas_us", meas));
                }
                if let Some(sdu) = e.sdu {
                    fields.push(field("sdu", sdu));
                }
                if let Some(origin) = e.origin {
                    fields.push(field("origin", origin));
                }
                let label = frame_label(e.kind, e.src, e.dst, e.bits, e.stamp_us);
                (label, fields)
            }
            ParsedRecord::RxLost(e) => {
                let label = frame_label(e.kind, e.src, e.dst, e.bits, e.stamp_us);
                (
                    format!("{label} ({})", e.reason),
                    vec![
                        field("reason", &*e.reason),
                        field("kind", e.kind.label()),
                        field("src", e.src),
                        field("dst", e.dst),
                        field("bits", e.bits),
                        field("start_us", e.start_us),
                    ],
                )
            }
            ParsedRecord::Enq(e) => {
                let message = if e.fwd {
                    format!("sdu {} forwarded toward n{}", e.sdu, e.next_hop)
                } else {
                    format!("sdu {} enqueued for n{}", e.sdu, e.next_hop)
                };
                (
                    message,
                    vec![
                        field("sdu", e.sdu),
                        field("origin", e.origin),
                        field("next_hop", e.next_hop),
                        field("bits", e.bits),
                        field("fwd", e.fwd),
                    ],
                )
            }
            ParsedRecord::Sink(e) => {
                let mut fields = vec![
                    field("sdu", e.sdu),
                    field("origin", e.origin),
                    field("bits", e.bits),
                ];
                if let Some(e2e) = e.e2e_us {
                    fields.push(field("e2e_us", e2e));
                }
                (
                    format!("sdu {} from n{} reached sink", e.sdu, e.origin),
                    fields,
                )
            }
            ParsedRecord::Drop(e) => match &e.reason {
                Some(reason) => (
                    format!("sdu {} dropped by MAC ({reason})", e.sdu),
                    vec![field("sdu", e.sdu), field("reason", &**reason)],
                ),
                None => (
                    format!("sdu {} dropped by MAC", e.sdu),
                    vec![field("sdu", e.sdu)],
                ),
            },
            ParsedRecord::Route(e) => (
                format!(
                    "sdu {} routed toward n{} (attempt {})",
                    e.sdu, e.next_hop, e.attempt
                ),
                vec![
                    field("sdu", e.sdu),
                    field("origin", e.node),
                    field("next_hop", e.next_hop),
                    field("attempt", e.attempt),
                ],
            ),
            ParsedRecord::Relay(e) => (
                format!(
                    "sdu {} relayed toward n{} (hop {})",
                    e.sdu, e.next_hop, e.hops
                ),
                vec![
                    field("sdu", e.sdu),
                    field("origin", e.origin),
                    field("next_hop", e.next_hop),
                    field("attempt", e.attempt),
                    field("hops", e.hops),
                    field("bits", e.bits),
                ],
            ),
            ParsedRecord::RouteDrop(e) => {
                let message = match e.hops {
                    Some(hops) => format!("sdu {} lost at hop {hops} ({})", e.sdu, e.reason),
                    None => format!("sdu {} lost end-to-end (retry budget exhausted)", e.sdu),
                };
                let mut fields = vec![field("sdu", e.sdu), field("origin", e.origin)];
                if let Some(attempt) = e.attempt {
                    fields.push(field("attempt", attempt));
                }
                if let Some(hops) = e.hops {
                    fields.push(field("hops", hops));
                }
                if let Some(attempts) = e.attempts {
                    fields.push(field("attempts", attempts));
                }
                fields.push(field("reason", &*e.reason));
                (message, fields)
            }
            ParsedRecord::E2eDeliver(e) => (
                format!("sdu {} delivered end-to-end in {} hops", e.sdu, e.hops),
                vec![
                    field("sdu", e.sdu),
                    field("origin", e.origin),
                    field("sink", e.node),
                    field("attempt", e.attempt),
                    field("hops", e.hops),
                    field("e2e_us", e.e2e_us),
                ],
            ),
            ParsedRecord::Skipped | ParsedRecord::Other => (String::new(), Vec::new()),
        }
    }
}

fn render_run_info(run: &RunInfo) -> Vec<Field> {
    let mut fields = vec![
        field("protocol", run.protocol.as_str()),
        field("nodes", run.nodes),
        field("sinks", run.sinks),
        field("bitrate_bps", run.bitrate_bps),
        field("omega_us", run.omega_us),
        field("tau_max_us", run.tau_max_us),
        field("slot_us", run.slot_us),
        field("mobility", run.mobility),
        field("forwarding", run.forwarding),
    ];
    if run.timing_budget {
        fields.push(field("guard_us", run.guard_us));
        fields.push(field("clock_error_us", run.clock_error_us));
    }
    if let Some(policy) = &run.route_policy {
        fields.push(field("route_policy", policy.as_str()));
        if let Some(ttl) = run.route_ttl {
            fields.push(field("route_ttl", ttl));
        }
        fields.push(field("transport", run.transport));
    }
    fields
}

/// A transmission the modem refused because it was already sending
/// (`tx-drop` tag). Outside the audit schema: the decoder classifies it
/// as [`ParsedRecord::Other`].
#[derive(Debug, Clone, PartialEq)]
pub struct TxDropEvent {
    /// Frame kind.
    pub kind: FrameKind,
    /// Frame source.
    pub src: usize,
    /// Addressed node.
    pub dst: usize,
    /// Frame length, bits.
    pub bits: u32,
    /// The frame's timestamp as the MAC left it, microseconds (the world
    /// stamps only frames that start).
    pub stamp_us: u64,
}

impl TraceEvent for TxDropEvent {
    fn render(&self) -> (String, Vec<Field>) {
        let label = frame_label(self.kind, self.src, self.dst, self.bits, self.stamp_us);
        (
            format!("{label} dropped: modem busy"),
            vec![
                field("reason", "modem-busy"),
                field("kind", self.kind.label()),
                field("src", self.src),
                field("dst", self.dst),
                field("bits", self.bits),
            ],
        )
    }
}

/// The loss reasons the world writes: MAC drop reasons, reception losses
/// and routed losses.
const REASONS: [&str; 7] = [
    "retry-exhausted",
    "handshake-timeout",
    "queue-overflow",
    "collision",
    "channel",
    "unroutable",
    "ttl-exhausted",
];

/// A decoded loss reason: the static label when it is one the world
/// writes, so decoding a known reason allocates nothing; any other text
/// is kept as is.
pub fn reason_label(reason: &str) -> Cow<'static, str> {
    match REASONS.iter().find(|&&known| known == reason) {
        Some(&known) => Cow::Borrowed(known),
        None => Cow::Owned(reason.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::packet::{Frame, Sdu};

    #[test]
    fn frame_labels_match_the_frame_display() {
        let sdu = Sdu {
            id: 4,
            origin: NodeId::new(9),
            next_hop: NodeId::new(2),
            bits: 2_048,
            created: SimTime::ZERO,
            attempt: 0,
        };
        let mut frame = Frame::data(FrameKind::ExData, NodeId::new(9), sdu);
        frame.timestamp = SimTime::from_micros(12_345_678_901);
        let label = frame_label(frame.kind, 9, frame.dst.index(), frame.bits, 12_345_678_901);
        assert_eq!(label, frame.to_string());
    }

    #[test]
    fn known_reasons_decode_without_allocating() {
        for reason in REASONS {
            assert!(matches!(reason_label(reason), Cow::Borrowed(r) if r == reason));
        }
        assert!(matches!(reason_label("meteor"), Cow::Owned(r) if r == "meteor"));
    }
}
