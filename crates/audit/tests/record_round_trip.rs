//! Round-trip properties of the trace schema: the world emits typed
//! records and the streaming monitors read them as they are, while
//! post-hoc tools read the same records back from text. For arbitrary
//! typed records, rendering and decoding with `parse_record` — directly,
//! and through a JSONL line — must give back the very record, so the online
//! and post-hoc paths read one schema.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;

use uasn_audit::model::{
    parse_record, DropEvent, E2eDeliverEvent, EnqEvent, ParsedRecord, RelayEvent, RouteDropEvent,
    RouteEvent, RunInfo, RxEvent, RxLostEvent, SinkEvent, TxEvent,
};
use uasn_net::packet::FrameKind;
use uasn_net::record::TxDropEvent;
use uasn_sim::time::SimTime;
use uasn_sim::trace::{jsonl_header, parse_jsonl, TraceLevel, TraceRecord};

const KINDS: [FrameKind; 10] = [
    FrameKind::Rts,
    FrameKind::Cts,
    FrameKind::Data,
    FrameKind::Ack,
    FrameKind::ExRts,
    FrameKind::ExCts,
    FrameKind::ExData,
    FrameKind::ExAck,
    FrameKind::Beacon,
    FrameKind::Rta,
];

fn maybe<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| f(rng))
}

/// A time or duration in microseconds, at any scale up to ~30 years of
/// simulated time (where the message's `{:.6}s` timestamp stays exact).
fn micros(rng: &mut TestRng) -> u64 {
    let digits = rng.gen_range(1..=15u32);
    rng.gen_range(0..10u64.pow(digits))
}

fn node(rng: &mut TestRng) -> usize {
    rng.gen_range(0..100_000)
}

fn kind(rng: &mut TestRng) -> FrameKind {
    KINDS[rng.gen_range(0..KINDS.len())]
}

/// Text with the characters JSON must escape, to exercise the JSONL path.
fn text(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &['a', 'z', '-', ' ', '"', '\\', '\n', 'µ', '[', ']', '@'];
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A loss reason: mostly one the world writes, sometimes any text.
fn reason(rng: &mut TestRng) -> std::borrow::Cow<'static, str> {
    const KNOWN: [&str; 7] = [
        "retry-exhausted",
        "handshake-timeout",
        "queue-overflow",
        "collision",
        "channel",
        "unroutable",
        "ttl-exhausted",
    ];
    if rng.gen_bool(0.8) {
        KNOWN[rng.gen_range(0..KNOWN.len())].into()
    } else {
        text(rng).into()
    }
}

fn run_info(rng: &mut TestRng) -> RunInfo {
    let timing_budget = rng.gen_bool(0.5);
    let routed = rng.gen_bool(0.5);
    RunInfo {
        protocol: text(rng),
        nodes: node(rng),
        sinks: node(rng),
        bitrate_bps: rng.gen_range(1.0..1e7),
        omega_us: micros(rng),
        tau_max_us: micros(rng),
        slot_us: micros(rng),
        mobility: rng.gen(),
        forwarding: rng.gen(),
        timing_budget,
        // Ideal-sync records omit both, which reads back as zero.
        guard_us: if timing_budget { micros(rng) } else { 0 },
        clock_error_us: if timing_budget { micros(rng) } else { 0 },
        // Only routed records carry the route fields.
        route_policy: routed.then(|| text(rng)),
        route_ttl: if routed {
            maybe(rng, |r| r.gen())
        } else {
            None
        },
        transport: routed && rng.gen(),
    }
}

/// Any typed record the schema can hold, its record index at 0.
struct AnyRecord;

impl Strategy for AnyRecord {
    type Value = ParsedRecord;

    fn generate(&self, rng: &mut TestRng) -> ParsedRecord {
        let (record, time_us, node_at) = (0, micros(rng), node(rng));
        match rng.gen_range(0..11) {
            0 => ParsedRecord::RunInfo(Box::new(run_info(rng))),
            1 => ParsedRecord::Tx(TxEvent {
                record,
                time_us,
                node: node_at,
                kind: kind(rng),
                dst: node(rng),
                bits: rng.gen(),
                dur_us: micros(rng),
                pair_delay_us: maybe(rng, micros),
                data_dur_us: maybe(rng, micros),
                sdu: maybe(rng, |r| r.gen()),
                origin: maybe(rng, node),
                retx: rng.gen(),
                bundle: if rng.gen() {
                    rng.gen_range(1..=u16::MAX)
                } else {
                    0
                },
                stamp_us: micros(rng),
            }),
            2 => ParsedRecord::Rx(RxEvent {
                record,
                end_us: time_us,
                node: node_at,
                kind: kind(rng),
                src: node(rng),
                dst: node(rng),
                bits: rng.gen(),
                start_us: micros(rng),
                prop_us: micros(rng),
                addressed: rng.gen(),
                meas_us: maybe(rng, micros),
                sdu: maybe(rng, |r| r.gen()),
                origin: maybe(rng, node),
                stamp_us: micros(rng),
            }),
            3 => ParsedRecord::RxLost(RxLostEvent {
                record,
                end_us: time_us,
                node: node_at,
                kind: kind(rng),
                src: node(rng),
                dst: node(rng),
                bits: rng.gen(),
                start_us: micros(rng),
                reason: reason(rng),
                stamp_us: micros(rng),
            }),
            4 => ParsedRecord::Enq(EnqEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                origin: node(rng),
                next_hop: node(rng),
                bits: rng.gen(),
                fwd: rng.gen(),
            }),
            5 => ParsedRecord::Sink(SinkEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                origin: node(rng),
                bits: rng.gen(),
                e2e_us: maybe(rng, micros),
            }),
            6 => ParsedRecord::Drop(DropEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                reason: maybe(rng, reason),
            }),
            7 => ParsedRecord::Route(RouteEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                next_hop: node(rng),
                attempt: rng.gen(),
            }),
            8 => ParsedRecord::Relay(RelayEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                origin: node(rng),
                next_hop: node(rng),
                attempt: rng.gen(),
                hops: rng.gen(),
                bits: rng.gen(),
            }),
            9 => ParsedRecord::RouteDrop(RouteDropEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                origin: node(rng),
                attempt: maybe(rng, |r| r.gen()),
                hops: maybe(rng, |r| r.gen()),
                attempts: maybe(rng, |r| r.gen()),
                reason: reason(rng),
                terminal: rng.gen(),
            }),
            _ => ParsedRecord::E2eDeliver(E2eDeliverEvent {
                record,
                time_us,
                node: node_at,
                sdu: rng.gen(),
                origin: node(rng),
                attempt: rng.gen(),
                hops: rng.gen(),
                e2e_us: micros(rng),
            }),
        }
    }
}

/// The text record a tracer's sinks store for `event`.
fn rendered(event: &ParsedRecord) -> TraceRecord {
    let (time, node, tag) = event.head().expect("a data record has a header");
    TraceRecord::from_event(time, TraceLevel::Debug, node, tag, event)
}

proptest! {
    #[test]
    fn rendered_records_decode_to_themselves(event in AnyRecord, index in 0..1_000_000usize) {
        let mut event = event;
        event.set_record(index);
        let text = rendered(&event);
        let decoded = parse_record(index, &text);
        prop_assert_eq!(&decoded, &event, "record {}", text.to_json_line());
        prop_assert_eq!(decoded.head(), event.head());
    }

    #[test]
    fn jsonl_lines_decode_to_themselves(event in AnyRecord, index in 0..1_000_000usize) {
        let mut event = event;
        event.set_record(index);
        let text = rendered(&event);
        let line = text.to_json_line();
        let read = parse_jsonl(&format!("{}\n{line}\n", jsonl_header())).expect("a valid line");
        prop_assert_eq!(read.len(), 1);
        prop_assert_eq!(&read[0], &text);
        prop_assert_eq!(parse_record(index, &read[0]), event, "line {}", line);
    }
}

#[test]
fn modem_busy_drops_stay_outside_the_schema() {
    let event = TxDropEvent {
        kind: FrameKind::Data,
        src: 4,
        dst: 1,
        bits: 2_048,
        stamp_us: 0,
    };
    let text = TraceRecord::from_event(
        SimTime::from_micros(9),
        TraceLevel::Debug,
        Some(4),
        "tx-drop",
        &event,
    );
    assert_eq!(
        text.message,
        "Data[n4->n1 2048b @0.000000s] dropped: modem busy"
    );
    assert_eq!(parse_record(0, &text), ParsedRecord::Other);
}
