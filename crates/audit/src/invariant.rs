//! The protocol invariants the simulator (and the paper) promise: the
//! [`Violation`] vocabulary, and [`check`], the post-hoc replay of a
//! captured trace.
//!
//! Every finding carries the index of the offending trace record, so it
//! can be traced back to the exact JSONL line that produced it.
//!
//! The headline check is the paper's non-interference guarantee (§4.3):
//! EW-MAC's extra communications (EXR/EXC/EXData/EXAck) must fit inside the
//! waiting windows of a negotiated exchange and never overlap the reserved
//! busy intervals — the receiver's data reception and Ack transmission, the
//! sender's data transmission and Ack reception. The reserved intervals are
//! recomputed from first principles with the same schedule arithmetic the
//! protocol uses (`ObservedNegotiation`), so the checker and the
//! implementation can only agree by both matching the paper's equations.
//!
//! Every check lives in [`crate::monitor`] as an incremental state
//! machine; [`check`] keeps no state of its own and only replays the
//! model's run description and one event list through
//! [`MonitorSet::observe`], the same call the streaming sink makes, which
//! is what guarantees the streaming and post-hoc paths can never disagree.

use std::fmt;

use crate::model::{ParsedRecord, TraceModel};
use crate::monitor::MonitorSet;

/// What kind of promise a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two decoded receptions at one node overlap in time: the modem should
    /// have recorded a collision (`rx-lost`) instead of decoding both.
    OverlappingReceptions,
    /// A decoded reception overlaps the same node's own transmission:
    /// half-duplex acoustic modems cannot do that.
    HalfDuplexDecode,
    /// A slotted protocol transmitted a negotiated control or data frame
    /// away from a slot boundary.
    SlotMisalignment,
    /// An extra-communication frame's arrival window at a negotiated pair
    /// node intersects a reserved interval of that negotiation — the
    /// paper's non-interference guarantee is broken.
    ExtraWindowIntrusion,
    /// A reception's propagation delay exceeds τmax, or varies between a
    /// static pair of nodes.
    PropagationInconsistency,
    /// A routed SDU copy revisited a node already on its path, or its
    /// path length escaped the hop-count TTL: depth-monotone forwarding
    /// promises both never happen.
    RoutingLoop,
}

impl ViolationKind {
    /// Every kind, in display order.
    pub const ALL: [ViolationKind; 6] = [
        ViolationKind::OverlappingReceptions,
        ViolationKind::HalfDuplexDecode,
        ViolationKind::SlotMisalignment,
        ViolationKind::ExtraWindowIntrusion,
        ViolationKind::PropagationInconsistency,
        ViolationKind::RoutingLoop,
    ];
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ViolationKind::OverlappingReceptions => "overlapping-receptions",
            ViolationKind::HalfDuplexDecode => "half-duplex-decode",
            ViolationKind::SlotMisalignment => "slot-misalignment",
            ViolationKind::ExtraWindowIntrusion => "extra-window-intrusion",
            ViolationKind::PropagationInconsistency => "propagation-inconsistency",
            ViolationKind::RoutingLoop => "routing-loop",
        };
        f.write_str(name)
    }
}

/// One broken invariant, pointing at the trace record that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which promise broke.
    pub kind: ViolationKind,
    /// Index of the offending record in the parsed trace (the line number
    /// of the JSONL body, after the header).
    pub record_index: usize,
    /// Simulation time of the offending record, microseconds.
    pub time_us: u64,
    /// The node the violation happened at, if tied to one.
    pub node: Option<usize>,
    /// Human-readable description citing the evidence.
    pub detail: String,
    /// The measured error the check compared (e.g. distance from the slot
    /// boundary, overlap depth into a reserved interval), microseconds.
    pub observed_us: Option<u64>,
    /// The bound the run's configuration allowed for that error
    /// (guard band + clock-error tolerance), microseconds.
    pub allowed_us: Option<u64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] record #{}", self.kind, self.record_index)?;
        if let Some(node) = self.node {
            write!(f, " n{node}")?;
        }
        write!(f, " @ {} us: {}", self.time_us, self.detail)?;
        if let (Some(observed), Some(allowed)) = (self.observed_us, self.allowed_us) {
            write!(f, " (observed {observed} us, allowed {allowed} us)")?;
        }
        Ok(())
    }
}

/// Half-open-ish strict overlap: the intervals share more than a boundary
/// point. Touching endpoints (`a_end == b_start`) is legal everywhere in
/// the schedule, so it never counts.
pub(crate) fn overlaps(a_start: u64, a_end: u64, b_start: u64, b_end: u64) -> bool {
    a_start < b_end && b_start < a_end
}

/// Runs every applicable check over the model and returns all violations,
/// ordered by the trace record they point at.
///
/// This is a replay: the run description and then the model's events, in
/// record order, go through [`MonitorSet::observe`] — the call a
/// streaming sink makes during the run — so the online and post-hoc
/// paths agree by construction.
///
/// Checks that need the run geometry (slot alignment, extra-window
/// non-interference, propagation bounds) are skipped when the trace has no
/// `run-info` record; callers should surface that as a warning.
pub fn check(model: &TraceModel) -> Vec<Violation> {
    let mut monitors = MonitorSet::new();
    if let Some(run) = &model.run_info {
        monitors.observe(&ParsedRecord::RunInfo(Box::new(run.clone())));
    }
    for event in &model.events {
        monitors.observe(event);
    }
    let mut out = monitors.into_findings();
    out.sort_by_key(|v| (v.record_index, v.time_us));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RunInfo, RxEvent, TxEvent};
    use uasn_ewmac::ObservedNegotiation;
    use uasn_net::packet::FrameKind;
    use uasn_net::slots::SlotClock;
    use uasn_net::NodeId;
    use uasn_sim::time::SimDuration;

    fn rx(record: usize, node: usize, src: usize, start_us: u64, end_us: u64) -> RxEvent {
        RxEvent {
            record,
            end_us,
            node,
            kind: FrameKind::Data,
            src,
            dst: node,
            bits: 1_000,
            start_us,
            prop_us: 100,
            addressed: true,
            sdu: None,
            origin: None,
            meas_us: None,
            stamp_us: 0,
        }
    }

    #[test]
    fn serial_receptions_pass_and_overlap_fails() {
        let mut model = TraceModel {
            events: vec![
                ParsedRecord::Rx(rx(0, 1, 2, 0, 100)),
                ParsedRecord::Rx(rx(1, 1, 3, 100, 200)),
            ],
            ..TraceModel::default()
        };
        assert!(check(&model).is_empty(), "boundary touch is legal");
        model.events.push(ParsedRecord::Rx(rx(2, 1, 4, 150, 250)));
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::OverlappingReceptions);
        assert_eq!(violations[0].record_index, 2);
        assert!(violations[0].detail.contains("record #1"));
    }

    #[test]
    fn decode_during_own_transmission_fails() {
        let model = TraceModel {
            events: vec![
                ParsedRecord::Tx(TxEvent {
                    record: 0,
                    time_us: 50,
                    node: 1,
                    kind: FrameKind::Rts,
                    dst: 2,
                    bits: 64,
                    dur_us: 100,
                    pair_delay_us: None,
                    data_dur_us: None,
                    sdu: None,
                    origin: None,
                    retx: false,
                    bundle: 0,
                    stamp_us: 0,
                }),
                ParsedRecord::Rx(rx(1, 1, 3, 120, 220)),
            ],
            ..TraceModel::default()
        };
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::HalfDuplexDecode);
        assert_eq!(violations[0].record_index, 1);
    }

    fn ewmac_run_info() -> RunInfo {
        RunInfo {
            protocol: "EW-MAC".into(),
            nodes: 4,
            sinks: 1,
            bitrate_bps: 12_000.0,
            omega_us: 5_333,
            tau_max_us: 1_000_000,
            slot_us: 1_005_333,
            mobility: false,
            forwarding: true,
            guard_us: 0,
            clock_error_us: 0,
            route_policy: None,
            route_ttl: None,
            transport: false,
            timing_budget: false,
        }
    }

    #[test]
    fn misaligned_slotted_frame_fails_only_for_slotted_protocols() {
        let tx = TxEvent {
            record: 3,
            time_us: 1_005_333 + 7,
            node: 0,
            kind: FrameKind::Cts,
            dst: 1,
            bits: 64,
            dur_us: 5_333,
            pair_delay_us: None,
            data_dur_us: None,
            sdu: None,
            origin: None,
            retx: false,
            bundle: 0,
            stamp_us: 0,
        };
        let mut model = TraceModel {
            run_info: Some(ewmac_run_info()),
            events: vec![ParsedRecord::Tx(tx)],
            ..TraceModel::default()
        };
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::SlotMisalignment);
        assert_eq!(violations[0].record_index, 3);
        assert_eq!(violations[0].observed_us, Some(7));
        assert_eq!(violations[0].allowed_us, Some(0));

        // The same trace from an unslotted protocol is clean.
        model.run_info.as_mut().unwrap().protocol = "ALOHA".into();
        assert!(check(&model).is_empty());
    }

    #[test]
    fn slot_misalignment_within_the_timing_tolerance_passes() {
        let mut run = ewmac_run_info();
        run.guard_us = 2;
        run.clock_error_us = 3; // tolerance = 2 + 2 * 3 = 8 us
        let tx = |record: usize, time_us: u64| TxEvent {
            record,
            time_us,
            node: 0,
            kind: FrameKind::Cts,
            dst: 1,
            bits: 64,
            dur_us: 5_333,
            pair_delay_us: None,
            data_dur_us: None,
            sdu: None,
            origin: None,
            retx: false,
            bundle: 0,
            stamp_us: 0,
        };
        let model = TraceModel {
            run_info: Some(run.clone()),
            events: vec![
                // 7 us late and 5 us early: both inside the 8 us budget.
                ParsedRecord::Tx(tx(0, run.slot_us + 7)),
                ParsedRecord::Tx(tx(1, 2 * run.slot_us - 5)),
                // 9 us late: past the budget.
                ParsedRecord::Tx(tx(2, 3 * run.slot_us + 9)),
            ],
            ..TraceModel::default()
        };
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].record_index, 2);
        assert_eq!(violations[0].observed_us, Some(9));
        assert_eq!(violations[0].allowed_us, Some(8));
        assert!(
            violations[0]
                .to_string()
                .contains("observed 9 us, allowed 8 us"),
            "display cites the budget: {}",
            violations[0]
        );
    }

    #[test]
    fn extra_frame_inside_reserved_window_fails() {
        let run = ewmac_run_info();
        let clock = SlotClock::new(
            SimDuration::from_micros(run.omega_us),
            SimDuration::from_micros(run.tau_max_us),
        );
        // n0 sends CTS to n1 in slot 0: n0 receives data in slot 1 over
        // [slot1 + pair_delay, + data_dur].
        let pair_delay = 600_000u64;
        let data_dur = 170_667u64;
        let cts = TxEvent {
            record: 0,
            time_us: 0,
            node: 0,
            kind: FrameKind::Cts,
            dst: 1,
            bits: 64,
            dur_us: run.omega_us,
            pair_delay_us: Some(pair_delay),
            data_dur_us: Some(data_dur),
            sdu: None,
            origin: None,
            retx: false,
            bundle: 0,
            stamp_us: 0,
        };
        let data_rx_start = clock.start_of(1).as_micros() + pair_delay;
        let intruder = RxEvent {
            record: 5,
            end_us: data_rx_start + 10_000 + run.omega_us,
            node: 0,
            kind: FrameKind::ExRts,
            src: 3,
            dst: 0,
            bits: 64,
            start_us: data_rx_start + 10_000,
            prop_us: 400_000,
            addressed: true,
            sdu: None,
            origin: None,
            meas_us: None,
            stamp_us: 0,
        };
        let model = TraceModel {
            run_info: Some(run),
            events: vec![ParsedRecord::Tx(cts), ParsedRecord::Rx(intruder)],
            ..TraceModel::default()
        };
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::ExtraWindowIntrusion);
        assert_eq!(violations[0].record_index, 5);
        assert!(violations[0].detail.contains("data reception"));
        assert!(violations[0].detail.contains("record #0"));
        assert_eq!(violations[0].observed_us, Some(5_333));
        assert_eq!(violations[0].allowed_us, Some(0));
    }

    #[test]
    fn shallow_window_intrusions_within_the_tolerance_pass() {
        // Same geometry as extra_frame_inside_reserved_window_fails: the
        // intruder occupies [data_rx_start + 10_000, + omega] inside the
        // data reception reserved over [data_rx_start, + 170_667].
        let mut run = ewmac_run_info();
        let clock = SlotClock::new(
            SimDuration::from_micros(run.omega_us),
            SimDuration::from_micros(run.tau_max_us),
        );
        let pair_delay = 600_000u64;
        let data_dur = 170_667u64;
        let cts = TxEvent {
            record: 0,
            time_us: 0,
            node: 0,
            kind: FrameKind::Cts,
            dst: 1,
            bits: 64,
            dur_us: run.omega_us,
            pair_delay_us: Some(pair_delay),
            data_dur_us: Some(data_dur),
            sdu: None,
            origin: None,
            retx: false,
            bundle: 0,
            stamp_us: 0,
        };
        let data_rx_start = clock.start_of(1).as_micros() + pair_delay;
        let intruder = RxEvent {
            record: 5,
            end_us: data_rx_start + 10_000 + run.omega_us,
            node: 0,
            kind: FrameKind::ExRts,
            src: 3,
            dst: 0,
            bits: 64,
            start_us: data_rx_start + 10_000,
            prop_us: 400_000,
            addressed: true,
            sdu: None,
            origin: None,
            meas_us: None,
            stamp_us: 0,
        };
        // 20 ms of clock error swallows the 15.3 ms the intruder reaches
        // into the reservation.
        run.clock_error_us = 10_000;
        let mut model = TraceModel {
            run_info: Some(run),
            events: vec![ParsedRecord::Tx(cts), ParsedRecord::Rx(intruder)],
            ..TraceModel::default()
        };
        assert!(
            check(&model).is_empty(),
            "an edge graze inside the tolerance is clock error, not intrusion"
        );

        // A 4 ms budget does not: the same graze becomes a violation that
        // cites both numbers.
        model.run_info.as_mut().unwrap().clock_error_us = 2_000;
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::ExtraWindowIntrusion);
        assert_eq!(violations[0].observed_us, Some(5_333));
        assert_eq!(violations[0].allowed_us, Some(4_000));
    }

    #[test]
    fn ungranted_rts_reserves_nothing_until_its_cts_arrives() {
        let run = ewmac_run_info();
        let clock = SlotClock::new(
            SimDuration::from_micros(run.omega_us),
            SimDuration::from_micros(run.tau_max_us),
        );
        // n0 sends RTS to n1 in slot 0. Absent a CTS back from n1, the
        // would-be sender data window (slot 2 for this geometry) is free —
        // n1 may instead grant n0 an extra exchange landing inside it.
        let pair_delay = 600_000u64;
        let data_dur = 170_667u64;
        let rts = TxEvent {
            record: 0,
            time_us: 0,
            node: 0,
            kind: FrameKind::Rts,
            dst: 1,
            bits: 64,
            dur_us: run.omega_us,
            pair_delay_us: Some(pair_delay),
            data_dur_us: Some(data_dur),
            sdu: None,
            origin: None,
            retx: false,
            bundle: 0,
            stamp_us: 0,
        };
        let data_tx_start = clock
            .start_of(
                ObservedNegotiation {
                    peer: NodeId::new(0),
                    other: NodeId::new(1),
                    peer_is_receiver: false,
                    control_slot: 0,
                    pair_delay: SimDuration::from_micros(pair_delay),
                    data_duration: SimDuration::from_micros(data_dur),
                }
                .data_slot(),
            )
            .as_micros();
        let exc = RxEvent {
            record: 4,
            end_us: data_tx_start + 10_000 + run.omega_us,
            node: 0,
            kind: FrameKind::ExCts,
            src: 1,
            dst: 0,
            bits: 64,
            start_us: data_tx_start + 10_000,
            prop_us: pair_delay,
            addressed: true,
            sdu: None,
            origin: None,
            meas_us: None,
            stamp_us: 0,
        };
        let mut model = TraceModel {
            run_info: Some(run.clone()),
            events: vec![ParsedRecord::Tx(rts), ParsedRecord::Rx(exc)],
            ..TraceModel::default()
        };
        assert!(
            check(&model).is_empty(),
            "an RTS the receiver never granted reserves no windows"
        );

        // Once the granting CTS reaches n0, the same EXC is an intrusion.
        let cts_end = clock.start_of(1).as_micros() + pair_delay;
        model.events.insert(
            1,
            ParsedRecord::Rx(RxEvent {
                record: 2,
                end_us: cts_end,
                node: 0,
                kind: FrameKind::Cts,
                src: 1,
                dst: 0,
                bits: 64,
                start_us: cts_end - run.omega_us,
                prop_us: pair_delay,
                addressed: true,
                sdu: None,
                origin: None,
                meas_us: None,
                stamp_us: 0,
            }),
        );
        let violations = check(&model);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::ExtraWindowIntrusion);
        assert_eq!(violations[0].record_index, 4);
        assert!(violations[0].detail.contains("data transmission"));
    }

    #[test]
    fn propagation_beyond_tau_max_or_drifting_static_pair_fails() {
        let mut bad_prop = rx(0, 1, 2, 0, 100);
        bad_prop.prop_us = 2_000_000;
        let first = rx(1, 1, 3, 200, 300);
        let mut drift = rx(2, 1, 3, 400, 500);
        drift.prop_us = 150;
        let model = TraceModel {
            run_info: Some(ewmac_run_info()),
            events: vec![
                ParsedRecord::Rx(bad_prop),
                ParsedRecord::Rx(first),
                ParsedRecord::Rx(drift),
            ],
            ..TraceModel::default()
        };
        let violations = check(&model);
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .all(|v| v.kind == ViolationKind::PropagationInconsistency));
        assert_eq!(violations[0].record_index, 0);
        assert_eq!(violations[1].record_index, 2);
        assert!(violations[1].detail.contains("record #1"));
    }
}
