//! Differential properties for the streamed serial-reception and
//! propagation checks: over random decoded-reception streams in end-time
//! order, the single-pass monitors flag exactly what a brute-force
//! pairwise scan and a whole-trace reference walk find.

use std::collections::HashMap;

use proptest::prelude::*;

use uasn_audit::model::{ParsedRecord, RunInfo, RxEvent, TraceModel};
use uasn_audit::{check, ViolationKind};
use uasn_net::packet::FrameKind;

const TAU_MAX_US: u64 = 50_000;

/// An unslotted run, so only the reception-level checks can fire.
fn run_info(mobility: bool) -> RunInfo {
    RunInfo {
        protocol: "ALOHA".into(),
        nodes: 6,
        sinks: 1,
        bitrate_bps: 12_000.0,
        omega_us: 5_333,
        tau_max_us: TAU_MAX_US,
        slot_us: 0,
        mobility,
        forwarding: false,
        guard_us: 0,
        clock_error_us: 0,
        route_policy: None,
        route_ttl: None,
        transport: false,
        timing_budget: false,
    }
}

/// Decoded receptions `(node, src, start, airtime, delay)` emitted the way
/// a trace emits them: at their end, so sorted by end time, with record
/// indices in that order.
fn stream(raw: &[(usize, usize, u64, u64, u64)]) -> Vec<RxEvent> {
    let mut rxs: Vec<RxEvent> = raw
        .iter()
        .map(|&(node, src, start_us, airtime_us, prop_us)| RxEvent {
            record: 0,
            end_us: start_us + airtime_us,
            node,
            kind: FrameKind::Data,
            src,
            dst: node,
            bits: 64,
            start_us,
            prop_us,
            addressed: true,
            sdu: None,
            origin: None,
            meas_us: None,
            stamp_us: 0,
        })
        .collect();
    rxs.sort_by_key(|rx| rx.end_us);
    for (i, rx) in rxs.iter_mut().enumerate() {
        rx.record = i;
    }
    rxs
}

fn overlaps(a: &RxEvent, b: &RxEvent) -> bool {
    a.start_us < b.end_us && b.start_us < a.end_us
}

/// The reference propagation walk: every delay beyond τmax, and, without
/// mobility, every delay differing from the first one measured on its
/// `(src, rx)` pair, as `(record, observed, allowed)`.
fn propagation_reference(rxs: &[RxEvent], mobility: bool) -> Vec<(usize, u64, u64)> {
    let mut first: HashMap<(usize, usize), u64> = HashMap::new();
    let mut out = Vec::new();
    for rx in rxs {
        if rx.prop_us > TAU_MAX_US {
            out.push((rx.record, rx.prop_us, TAU_MAX_US));
        }
        if !mobility {
            let prop = *first.entry((rx.src, rx.node)).or_insert(rx.prop_us);
            if prop != rx.prop_us {
                out.push((rx.record, rx.prop_us.abs_diff(prop), 0));
            }
        }
    }
    out
}

proptest! {
    /// A node has an overlap finding exactly when two of its decoded
    /// intervals overlap, each flagged record overlaps an earlier one
    /// (and the record it cites), and the propagation findings equal the
    /// reference walk.
    #[test]
    fn streamed_checks_match_the_pairwise_reference(
        raw in proptest::collection::vec(
            (0usize..4, 0usize..5, 0u64..400, 1u64..30, 0u64..4),
            0..48,
        ),
        mobility in proptest::bool::ANY,
    ) {
        // Times on a 1 ms grid, so intervals that merely touch are
        // common; few distinct delays, one beyond τmax, so drifting pairs
        // and τmax breaches are common too.
        let delays = [100, 250, 900, TAU_MAX_US + 1];
        let raw: Vec<_> = raw
            .into_iter()
            .map(|(node, src, start, airtime, d)| {
                (node, src, start * 1_000, airtime * 1_000, delays[d as usize])
            })
            .collect();
        let rxs = stream(&raw);
        let model = TraceModel {
            run_info: Some(run_info(mobility)),
            events: rxs.iter().cloned().map(ParsedRecord::Rx).collect(),
            skipped: 0,
        };
        let findings = check(&model);

        let overlap: Vec<_> = findings
            .iter()
            .filter(|v| v.kind == ViolationKind::OverlappingReceptions)
            .collect();
        for node in 0..4 {
            let at_node: Vec<&RxEvent> = rxs.iter().filter(|rx| rx.node == node).collect();
            let pair = at_node
                .iter()
                .enumerate()
                .any(|(i, a)| at_node[i + 1..].iter().any(|b| overlaps(a, b)));
            let flagged = overlap.iter().any(|v| v.node == Some(node));
            prop_assert_eq!(flagged, pair, "node {}", node);
        }
        let expected: Vec<usize> = rxs
            .iter()
            .filter(|rx| rxs[..rx.record].iter().any(|q| q.node == rx.node && overlaps(q, rx)))
            .map(|rx| rx.record)
            .collect();
        let got: Vec<usize> = overlap.iter().map(|v| v.record_index).collect();
        prop_assert_eq!(got, expected);
        for v in &overlap {
            let rx = &rxs[v.record_index];
            let cited = rxs[..rx.record]
                .iter()
                .find(|q| v.detail.contains(&format!("(record #{})", q.record)))
                .expect("the finding cites an earlier record");
            prop_assert!(cited.node == rx.node && overlaps(cited, rx), "{}", v);
        }

        let propagation: Vec<(usize, u64, u64)> = findings
            .iter()
            .filter(|v| v.kind == ViolationKind::PropagationInconsistency)
            .map(|v| (v.record_index, v.observed_us.unwrap(), v.allowed_us.unwrap()))
            .collect();
        prop_assert_eq!(propagation, propagation_reference(&rxs, mobility));
        prop_assert_eq!(
            findings.len(),
            overlap.len() + propagation_reference(&rxs, mobility).len(),
            "no other kind fires on a reception-only stream"
        );
    }
}
