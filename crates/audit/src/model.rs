//! Typed view over a raw trace: the audit-relevant events, decoded from
//! [`TraceRecord`]s by tag and structured field.
//!
//! The schema itself — [`ParsedRecord`] and its event structs — lives in
//! `uasn_net::record`, because the world builds those records and the
//! monitors read them online without any text. [`parse_record`] is the
//! one decoder of the *text* form back into that schema: post-hoc reads of
//! a captured or JSONL trace, and sinks that still hand the streaming
//! [`crate::monitor::MonitorSink`] rendered records. The model keeps the
//! run description apart and every other classified record in one list,
//! [`TraceModel::events`], in trace record order — the order the monitors
//! see online — so a post-hoc pass replays it as is and each consumer
//! filters it for the kinds it reads.
//!
//! The extractor is deliberately tolerant: records with unknown tags are
//! ignored (future schema growth), and records of a known tag that lack the
//! structured fields the audit needs (e.g. message-only traces from before
//! the field layer, or Info-level runs without per-frame detail) are counted
//! in [`TraceModel::skipped`] rather than failing the whole parse — the
//! checks that need them simply see fewer events, and callers can warn.

use std::path::Path;

use uasn_net::packet::FrameKind;
use uasn_net::record::reason_label;
use uasn_sim::trace::{parse_jsonl, FieldValue, TraceRecord};

pub use uasn_net::record::{
    DropEvent, E2eDeliverEvent, EnqEvent, ParsedRecord, RelayEvent, RouteDropEvent, RouteEvent,
    RunInfo, RxEvent, RxLostEvent, SinkEvent, TxEvent,
};

/// The audit's typed view of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceModel {
    /// The run description, when the trace carries one (Info level+).
    pub run_info: Option<RunInfo>,
    /// Every classified frame, queue and routing record, once each, in
    /// trace record order: the stream the monitors replay. Consumers that
    /// need one kind filter it.
    pub events: Vec<ParsedRecord>,
    /// Records of a known tag that lacked the structured fields the audit
    /// needs (message-only traces) and were skipped.
    pub skipped: usize,
}

fn get<'a>(r: &'a TraceRecord, name: &str) -> Option<&'a FieldValue> {
    r.fields
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| v)
}

fn get_u64(r: &TraceRecord, name: &str) -> Option<u64> {
    match get(r, name)? {
        FieldValue::U64(v) => Some(*v),
        FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn get_usize(r: &TraceRecord, name: &str) -> Option<usize> {
    get_u64(r, name).map(|v| v as usize)
}

fn get_f64(r: &TraceRecord, name: &str) -> Option<f64> {
    match get(r, name)? {
        FieldValue::F64(v) => Some(*v),
        FieldValue::U64(v) => Some(*v as f64),
        _ => None,
    }
}

fn get_bool(r: &TraceRecord, name: &str) -> Option<bool> {
    match get(r, name)? {
        FieldValue::Bool(v) => Some(*v),
        _ => None,
    }
}

fn get_str<'a>(r: &'a TraceRecord, name: &str) -> Option<&'a str> {
    match get(r, name)? {
        FieldValue::Str(v) => Some(v.as_str()),
        _ => None,
    }
}

fn get_kind(r: &TraceRecord) -> Option<FrameKind> {
    FrameKind::from_label(get_str(r, "kind")?)
}

fn get_u32(r: &TraceRecord, name: &str) -> Option<u32> {
    get_u64(r, name)?.try_into().ok()
}

/// The frame timestamp, in microseconds, that a frame record's message
/// carries in its label, `KIND[nSRC->nDST BITSb @SECS.MICROSs]`; the
/// record time for a record without one (message-only fixtures).
fn stamp_us(r: &TraceRecord) -> u64 {
    let stamp = || {
        let (_, rest) = r.message.split_once(" @")?;
        let (secs, _) = rest.split_once("s]")?;
        let (whole, micros) = secs.split_once('.')?;
        if micros.len() != 6 {
            return None;
        }
        whole
            .parse::<u64>()
            .ok()?
            .checked_mul(1_000_000)?
            .checked_add(micros.parse().ok()?)
    };
    stamp().unwrap_or(r.time.as_micros())
}

/// Decodes one text trace record into the typed schema. `record` is the
/// index the event will cite back (the JSONL body line number for an
/// exported trace). Known loss reasons decode to their static labels, so
/// decoding allocates only for a run description or an unknown reason.
pub fn parse_record(record: usize, r: &TraceRecord) -> ParsedRecord {
    let time_us = r.time.as_micros();
    let node = r.node.unwrap_or(usize::MAX);
    match r.tag.as_ref() {
        "run-info" => (|| {
            Some(RunInfo {
                protocol: get_str(r, "protocol")?.to_string(),
                nodes: get_usize(r, "nodes")?,
                sinks: get_usize(r, "sinks")?,
                bitrate_bps: get_f64(r, "bitrate_bps")?,
                omega_us: get_u64(r, "omega_us")?,
                tau_max_us: get_u64(r, "tau_max_us")?,
                slot_us: get_u64(r, "slot_us")?,
                mobility: get_bool(r, "mobility")?,
                forwarding: get_bool(r, "forwarding")?,
                timing_budget: get(r, "guard_us").is_some(),
                // Absent from ideal-sync traces (including all pre-clock
                // ones): zero tolerance.
                guard_us: get_u64(r, "guard_us").unwrap_or(0),
                clock_error_us: get_u64(r, "clock_error_us").unwrap_or(0),
                // Absent from non-routed traces.
                route_policy: get_str(r, "route_policy").map(str::to_string),
                route_ttl: get_u64(r, "route_ttl"),
                transport: get_bool(r, "transport").unwrap_or(false),
            })
        })()
        .map_or(ParsedRecord::Skipped, |info| {
            ParsedRecord::RunInfo(Box::new(info))
        }),
        "tx" => (|| {
            Some(TxEvent {
                record,
                time_us,
                node,
                kind: get_kind(r)?,
                dst: get_usize(r, "dst")?,
                bits: get_u32(r, "bits")?,
                dur_us: get_u64(r, "dur_us")?,
                pair_delay_us: get_u64(r, "pair_delay_us"),
                data_dur_us: get_u64(r, "data_dur_us"),
                sdu: get_u64(r, "sdu"),
                origin: get_usize(r, "origin"),
                retx: get_bool(r, "retx").unwrap_or(false),
                bundle: get_u64(r, "bundle").map_or(Some(0), |n| n.try_into().ok())?,
                stamp_us: stamp_us(r),
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Tx),
        "rx" => (|| {
            Some(RxEvent {
                record,
                end_us: time_us,
                node,
                kind: get_kind(r)?,
                src: get_usize(r, "src")?,
                dst: get_usize(r, "dst")?,
                bits: get_u32(r, "bits")?,
                start_us: get_u64(r, "start_us")?,
                prop_us: get_u64(r, "prop_us")?,
                addressed: get_bool(r, "addressed")?,
                meas_us: get_u64(r, "meas_us"),
                sdu: get_u64(r, "sdu"),
                origin: get_usize(r, "origin"),
                stamp_us: stamp_us(r),
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Rx),
        "rx-lost" => (|| {
            Some(RxLostEvent {
                record,
                end_us: time_us,
                node,
                kind: get_kind(r)?,
                src: get_usize(r, "src")?,
                dst: get_usize(r, "dst")?,
                // Read only to re-render the message; the checks never
                // needed it, so a record without it is not skipped.
                bits: get_u32(r, "bits").unwrap_or(0),
                start_us: get_u64(r, "start_us")?,
                reason: reason_label(get_str(r, "reason")?),
                stamp_us: stamp_us(r),
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::RxLost),
        "enq" => (|| {
            Some(EnqEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                origin: get_usize(r, "origin")?,
                next_hop: get_usize(r, "next_hop")?,
                bits: get_u64(r, "bits")?,
                fwd: get_bool(r, "fwd")?,
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Enq),
        "sink" => (|| {
            Some(SinkEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                origin: get_usize(r, "origin")?,
                bits: get_u64(r, "bits")?,
                e2e_us: get_u64(r, "e2e_us"),
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Sink),
        "sdu-drop" => (|| {
            Some(DropEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                reason: get_str(r, "reason").map(reason_label),
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Drop),
        "route" => (|| {
            Some(RouteEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                next_hop: get_usize(r, "next_hop")?,
                attempt: get_u64(r, "attempt")?,
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Route),
        "relay" => (|| {
            Some(RelayEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                origin: get_usize(r, "origin")?,
                next_hop: get_usize(r, "next_hop")?,
                attempt: get_u64(r, "attempt")?,
                hops: get_u64(r, "hops")?,
                bits: get_u64(r, "bits")?,
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::Relay),
        tag @ ("relay-drop" | "e2e-drop") => (|| {
            Some(RouteDropEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                origin: get_usize(r, "origin")?,
                attempt: get_u64(r, "attempt"),
                hops: get_u64(r, "hops"),
                attempts: get_u64(r, "attempts"),
                reason: reason_label(get_str(r, "reason")?),
                terminal: tag == "e2e-drop",
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::RouteDrop),
        "e2e-deliver" => (|| {
            Some(E2eDeliverEvent {
                record,
                time_us,
                node,
                sdu: get_u64(r, "sdu")?,
                origin: get_usize(r, "origin")?,
                attempt: get_u64(r, "attempt")?,
                hops: get_u64(r, "hops")?,
                e2e_us: get_u64(r, "e2e_us")?,
            })
        })()
        .map_or(ParsedRecord::Skipped, ParsedRecord::E2eDeliver),
        _ => ParsedRecord::Other,
    }
}

impl TraceModel {
    /// Extracts the audit-relevant events from parsed trace records.
    /// Record indices in the returned events point back into `records`.
    pub fn from_records(records: &[TraceRecord]) -> TraceModel {
        let mut model = TraceModel::default();
        for (record, r) in records.iter().enumerate() {
            match parse_record(record, r) {
                ParsedRecord::RunInfo(info) => model.run_info = Some(*info),
                ParsedRecord::Skipped => model.skipped += 1,
                ParsedRecord::Other => {}
                event => model.events.push(event),
            }
        }
        model
    }

    /// Whether the trace carries the per-frame detail the invariant checks
    /// and journey reconstruction need (Debug-level tracing).
    pub fn has_frame_detail(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, ParsedRecord::Tx(_) | ParsedRecord::Rx(_)))
    }
}

/// Reads a JSONL trace file into its records and their [`TraceModel`]:
/// the one way the tools load a trace from disk.
///
/// # Errors
///
/// A message naming the file when it cannot be read or does not parse as
/// a `uasn-trace` stream.
pub fn read_trace(path: &Path) -> Result<(Vec<TraceRecord>, TraceModel), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let records =
        parse_jsonl(&text).map_err(|e| format!("{} is not a valid trace: {e}", path.display()))?;
    let model = TraceModel::from_records(&records);
    Ok((records, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use uasn_sim::time::SimTime;
    use uasn_sim::trace::{field, TraceLevel};

    fn record(tag: &'static str, fields: Vec<uasn_sim::trace::Field>) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(1_000),
            level: TraceLevel::Debug,
            node: Some(3),
            tag: Cow::Borrowed(tag),
            message: String::new(),
            fields,
        }
    }

    #[test]
    fn extracts_tx_with_optional_fields() {
        let records = vec![record(
            "tx",
            vec![
                field("kind", "CTS"),
                field("dst", 5u64),
                field("bits", 64u64),
                field("dur_us", 5_333u64),
                field("pair_delay_us", 600_000u64),
                field("data_dur_us", 170_667u64),
            ],
        )];
        let model = TraceModel::from_records(&records);
        let [ParsedRecord::Tx(tx)] = &model.events[..] else {
            panic!("one tx event: {:?}", model.events);
        };
        assert_eq!(tx.kind, FrameKind::Cts);
        assert_eq!(tx.node, 3);
        assert_eq!(tx.dst, 5);
        assert_eq!(tx.pair_delay_us, Some(600_000));
        assert_eq!(tx.sdu, None);
        assert!(!tx.retx);
        assert_eq!(model.skipped, 0);
    }

    #[test]
    fn message_only_records_are_skipped_not_fatal() {
        let records = vec![
            record("tx", vec![]),
            record("rx", vec![field("kind", "Data")]),
            record("unknown-tag", vec![]),
        ];
        let model = TraceModel::from_records(&records);
        assert!(model.events.is_empty());
        assert_eq!(model.skipped, 2);
        assert!(!model.has_frame_detail());
    }

    #[test]
    fn run_info_round_trips() {
        let records = vec![record(
            "run-info",
            vec![
                field("protocol", "EW-MAC"),
                field("nodes", 12u64),
                field("sinks", 2u64),
                field("bitrate_bps", 12_000.0f64),
                field("omega_us", 5_333u64),
                field("tau_max_us", 1_000_000u64),
                field("slot_us", 1_005_333u64),
                field("mobility", false),
                field("forwarding", true),
            ],
        )];
        let model = TraceModel::from_records(&records);
        let info = model.run_info.expect("run info parsed");
        assert_eq!(info.protocol, "EW-MAC");
        assert!(info.is_slot_aligned());
        assert_eq!(info.slot_us, 1_005_333);
        // Pre-clock trace: no guard/clock fields -> zero tolerance.
        assert_eq!(info.guard_us, 0);
        assert_eq!(info.clock_error_us, 0);
        assert_eq!(info.tolerance_us(), 0);
        let ropa = RunInfo {
            protocol: "ROPA".into(),
            ..info
        };
        assert!(!ropa.is_slot_aligned());
    }

    #[test]
    fn route_records_parse_into_path_events() {
        let records = vec![
            record(
                "route",
                vec![
                    field("sdu", 7u64),
                    field("origin", 3u64),
                    field("next_hop", 5u64),
                    field("attempt", 1u64),
                ],
            ),
            record(
                "relay",
                vec![
                    field("sdu", 7u64),
                    field("origin", 3u64),
                    field("next_hop", 0u64),
                    field("attempt", 1u64),
                    field("hops", 1u64),
                    field("bits", 2_048u64),
                ],
            ),
            record(
                "relay-drop",
                vec![
                    field("sdu", 7u64),
                    field("origin", 3u64),
                    field("attempt", 1u64),
                    field("hops", 2u64),
                    field("reason", "ttl-exhausted"),
                ],
            ),
            record(
                "e2e-drop",
                vec![
                    field("sdu", 7u64),
                    field("origin", 3u64),
                    field("attempts", 3u64),
                    field("reason", "retry-exhausted"),
                ],
            ),
            record(
                "e2e-deliver",
                vec![
                    field("sdu", 8u64),
                    field("origin", 3u64),
                    field("sink", 0u64),
                    field("attempt", 0u64),
                    field("hops", 2u64),
                    field("e2e_us", 120_000u64),
                ],
            ),
        ];
        let model = TraceModel::from_records(&records);
        assert_eq!(model.skipped, 0);
        let [ParsedRecord::Route(route), ParsedRecord::Relay(relay), ParsedRecord::RouteDrop(copy_loss), ParsedRecord::RouteDrop(final_loss), ParsedRecord::E2eDeliver(deliver)] =
            &model.events[..]
        else {
            panic!("one event per record, in record order: {:?}", model.events);
        };
        assert_eq!(route.attempt, 1);
        assert_eq!(relay.hops, 1);
        assert_eq!(relay.attempt, 1);
        assert!(!copy_loss.terminal);
        assert_eq!(copy_loss.hops, Some(2));
        assert_eq!(copy_loss.attempt, Some(1));
        assert!(final_loss.terminal);
        assert_eq!(final_loss.attempts, Some(3));
        assert_eq!(final_loss.hops, None);
        assert_eq!(final_loss.attempt, None);
        assert_eq!(deliver.e2e_us, 120_000);
    }

    #[test]
    fn routed_run_info_carries_the_policy_and_ttl() {
        let records = vec![record(
            "run-info",
            vec![
                field("protocol", "EW-MAC"),
                field("nodes", 12u64),
                field("sinks", 2u64),
                field("bitrate_bps", 12_000.0f64),
                field("omega_us", 5_333u64),
                field("tau_max_us", 1_000_000u64),
                field("slot_us", 1_005_333u64),
                field("mobility", false),
                field("forwarding", true),
                field("route_policy", "greedy"),
                field("route_ttl", 32u64),
                field("transport", true),
            ],
        )];
        let info = TraceModel::from_records(&records)
            .run_info
            .expect("run info parsed");
        assert_eq!(info.route_policy.as_deref(), Some("greedy"));
        assert_eq!(info.route_ttl, Some(32));
        assert!(info.transport);
    }

    #[test]
    fn drifted_run_info_parses_the_timing_budget() {
        let records = vec![record(
            "run-info",
            vec![
                field("protocol", "EW-MAC"),
                field("nodes", 12u64),
                field("sinks", 2u64),
                field("bitrate_bps", 12_000.0f64),
                field("omega_us", 5_333u64),
                field("tau_max_us", 1_000_000u64),
                field("slot_us", 1_030_333u64),
                field("mobility", false),
                field("forwarding", true),
                field("guard_us", 25_000u64),
                field("clock_error_us", 11_500u64),
            ],
        )];
        let info = TraceModel::from_records(&records)
            .run_info
            .expect("run info parsed");
        assert_eq!(info.guard_us, 25_000);
        assert_eq!(info.clock_error_us, 11_500);
        assert_eq!(info.tolerance_us(), 25_000 + 2 * 11_500);
    }
}
