//! Differential test of the routed copy-path state: random streams of
//! `route` / `relay` / `relay-drop` / `e2e-drop` / `e2e-deliver` records
//! are fed to the streaming [`MonitorSet`] and to [`reconstruct_paths`],
//! and both must match a reference that keeps one entry per copy in a
//! plain `(sdu, attempt)`-keyed map — the straightforward reading of the
//! per-copy semantics, where a terminal drop scans every open copy.

use std::borrow::Cow;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uasn_audit::journey::{reconstruct_paths, SduPath};
use uasn_audit::model::{parse_record, ParsedRecord, TraceModel};
use uasn_audit::{MonitorSet, Violation, ViolationKind};
use uasn_sim::time::SimTime;
use uasn_sim::trace::{field, Field, TraceLevel, TraceRecord};

const TTL: u64 = 4;
const SDUS: u64 = 3;
const ATTEMPTS: u64 = 3;
const NODES: usize = 7;

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

fn run_info() -> TraceRecord {
    record(
        0,
        0,
        "run-info",
        vec![
            field("protocol", "EW-MAC"),
            field("nodes", NODES as u64),
            field("sinks", 1u64),
            field("bitrate_bps", 12_000.0f64),
            field("omega_us", 5_333u64),
            field("tau_max_us", 1_000_000u64),
            field("slot_us", 1_005_333u64),
            field("mobility", false),
            field("forwarding", true),
            field("route_policy", "greedy"),
            field("route_ttl", TTL),
            field("transport", true),
        ],
    )
}

/// One random routed stream over a few SDUs with several attempts each.
/// Nodes come from a small set, so paths revisit nodes often; hop counts
/// straddle the TTL so both sides of each bound occur.
fn random_stream(rng: &mut StdRng, len: usize) -> Vec<TraceRecord> {
    let mut records = vec![run_info()];
    for i in 0..len {
        let time_us = 1_000 * (i as u64 + 1);
        let sdu = rng.gen_range(0..SDUS);
        let attempt = rng.gen_range(0..ATTEMPTS);
        let node = rng.gen_range(0..NODES);
        let hops = rng.gen_range(0..=TTL + 1);
        let origin = field("origin", 0u64);
        let r = match rng.gen_range(0..20) {
            0..=4 => record(
                time_us,
                node,
                "route",
                vec![
                    field("sdu", sdu),
                    origin,
                    field("next_hop", 1u64),
                    field("attempt", attempt),
                ],
            ),
            5..=11 => record(
                time_us,
                node,
                "relay",
                vec![
                    field("sdu", sdu),
                    origin,
                    field("next_hop", 1u64),
                    field("attempt", attempt),
                    field("hops", hops),
                    field("bits", 2_048u64),
                ],
            ),
            12..=13 => record(
                time_us,
                node,
                "relay-drop",
                vec![
                    field("sdu", sdu),
                    origin,
                    field("attempt", attempt),
                    field("hops", hops),
                    field("reason", "unroutable"),
                ],
            ),
            14..=15 => {
                // Terminal loss: of one named copy, or (retry exhaustion)
                // of the SDU with no attempt named.
                let mut fields = vec![field("sdu", sdu), origin];
                if rng.gen_bool(0.5) {
                    fields.push(field("attempt", attempt));
                    fields.push(field("hops", hops));
                    fields.push(field("reason", "ttl-exhausted"));
                } else {
                    fields.push(field("attempts", ATTEMPTS));
                    fields.push(field("reason", "retry-exhausted"));
                }
                record(time_us, node, "e2e-drop", fields)
            }
            _ => record(
                time_us,
                node,
                "e2e-deliver",
                vec![
                    field("sdu", sdu),
                    origin,
                    field("sink", node as u64),
                    field("attempt", attempt),
                    field("hops", hops),
                    field("e2e_us", time_us),
                ],
            ),
        };
        records.push(r);
    }
    records
}

/// Which edge cases a stream exercised.
#[derive(Debug, Default)]
struct Coverage {
    stale_extends: u64,
    terminal_multi_copy: u64,
    reseeded: u64,
    unseeded_relay: u64,
    relay_at_ttl_bound: [u64; 2],
    deliver_at_ttl_bound: [u64; 2],
}

/// The monitor's routed-path semantics over a `(sdu, attempt)`-keyed map.
#[derive(Default)]
struct ReferenceMonitor {
    paths: HashMap<(u64, u64), Vec<usize>>,
    findings: Vec<Violation>,
    coverage: Coverage,
}

impl ReferenceMonitor {
    fn observe(&mut self, parsed: &ParsedRecord) {
        match parsed {
            ParsedRecord::Route(e) => {
                if self.paths.contains_key(&(e.sdu, e.attempt)) {
                    self.coverage.reseeded += 1;
                }
                self.paths.insert((e.sdu, e.attempt), vec![e.node]);
            }
            ParsedRecord::Relay(e) => {
                match self.paths.get(&(e.sdu, e.attempt)) {
                    None => self.coverage.unseeded_relay += 1,
                    Some(_) => {
                        let newer = self
                            .paths
                            .keys()
                            .any(|&(sdu, a)| sdu == e.sdu && a > e.attempt);
                        self.coverage.stale_extends += u64::from(newer);
                    }
                }
                if let Some(side) = [TTL - 1, TTL].iter().position(|&h| h == e.hops) {
                    self.coverage.relay_at_ttl_bound[side] += 1;
                }
                self.step(e.record, e.time_us, e.sdu, e.attempt, e.node, e.hops, false);
            }
            ParsedRecord::RouteDrop(e) => {
                if e.terminal {
                    let copies = self.paths.keys().filter(|&&(sdu, _)| sdu == e.sdu).count();
                    self.coverage.terminal_multi_copy += u64::from(copies >= 2);
                    self.paths.retain(|&(sdu, _), _| sdu != e.sdu);
                } else if let Some(a) = e.attempt {
                    self.paths.remove(&(e.sdu, a));
                }
            }
            ParsedRecord::E2eDeliver(e) => {
                if let Some(side) = [TTL, TTL + 1].iter().position(|&h| h == e.hops) {
                    self.coverage.deliver_at_ttl_bound[side] += 1;
                }
                self.step(e.record, e.time_us, e.sdu, e.attempt, e.node, e.hops, true);
                self.paths.remove(&(e.sdu, e.attempt));
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        record: usize,
        time_us: u64,
        sdu: u64,
        attempt: u64,
        node: usize,
        hops: u64,
        delivered: bool,
    ) {
        let verb = if delivered { "delivered" } else { "relayed" };
        let path = self.paths.entry((sdu, attempt)).or_default();
        if path.contains(&node) {
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
        path.push(node);
        let exceeded = if delivered { hops > TTL } else { hops >= TTL };
        if exceeded {
            self.findings.push(Violation {
                kind: ViolationKind::RoutingLoop,
                record_index: record,
                time_us,
                node: Some(node),
                detail: format!(
                    "sdu {sdu} (copy {attempt}) {verb} at n{node} after {hops} hops, \
                     escaping the route TTL of {TTL}"
                ),
                observed_us: Some(hops),
                allowed_us: Some(TTL),
            });
        }
    }
}

/// `reconstruct_paths`' semantics over a `(sdu, attempt)`-keyed map.
fn reference_paths(records: &[TraceRecord]) -> Vec<SduPath> {
    let mut open: HashMap<(u64, u64), usize> = HashMap::new();
    let mut paths: Vec<SduPath> = Vec::new();
    for (index, r) in records.iter().enumerate() {
        match parse_record(index, r) {
            ParsedRecord::Route(e) => {
                open.insert((e.sdu, e.attempt), paths.len());
                paths.push(SduPath {
                    sdu: e.sdu,
                    origin: e.node,
                    attempt: e.attempt,
                    nodes: vec![e.node],
                    delivered: None,
                    dropped: None,
                });
            }
            ParsedRecord::Relay(e) => {
                if let Some(&i) = open.get(&(e.sdu, e.attempt)) {
                    paths[i].nodes.push(e.node);
                }
            }
            ParsedRecord::RouteDrop(e) if e.terminal => {
                let mut closed = Vec::new();
                open.retain(|&(sdu, _), &mut i| {
                    let hit = sdu == e.sdu;
                    if hit {
                        closed.push(i);
                    }
                    !hit
                });
                let fated = match e.attempt {
                    Some(a) => closed.into_iter().find(|&i| paths[i].attempt == a),
                    None => closed.into_iter().max(),
                };
                if let Some(i) = fated {
                    paths[i].dropped = Some((e.node, e.reason.to_string()));
                }
            }
            ParsedRecord::RouteDrop(e) => {
                if let Some(i) = e.attempt.and_then(|a| open.remove(&(e.sdu, a))) {
                    paths[i].dropped = Some((e.node, e.reason.to_string()));
                }
            }
            ParsedRecord::E2eDeliver(e) => {
                if let Some(i) = open.remove(&(e.sdu, e.attempt)) {
                    paths[i].nodes.push(e.node);
                    paths[i].delivered = Some((e.node, e.e2e_us));
                }
            }
            _ => {}
        }
    }
    paths
}

#[test]
fn copy_paths_match_the_per_copy_reference() {
    let mut rng = StdRng::seed_from_u64(0x0C0F_FEE5);
    let mut total = Coverage::default();
    let mut loop_findings = 0;
    for stream in 0..300 {
        let records = random_stream(&mut rng, 60);
        let mut monitors = MonitorSet::new();
        let mut reference = ReferenceMonitor::default();
        for (index, r) in records.iter().enumerate() {
            let parsed = parse_record(index, r);
            assert!(
                matches!(
                    parsed,
                    ParsedRecord::RunInfo(_)
                        | ParsedRecord::Route(_)
                        | ParsedRecord::Relay(_)
                        | ParsedRecord::RouteDrop(_)
                        | ParsedRecord::E2eDeliver(_)
                ),
                "stream {stream}: unexpected record {parsed:?}"
            );
            monitors.observe(&parsed);
            reference.observe(&parsed);
            assert_eq!(
                monitors.tracked(),
                reference.paths.len(),
                "stream {stream}, record {index}: live copy count"
            );
        }
        assert_eq!(
            monitors.findings(),
            &reference.findings[..],
            "stream {stream}"
        );
        loop_findings += reference.findings.len();

        let model = TraceModel::from_records(&records);
        assert_eq!(
            reconstruct_paths(&model),
            reference_paths(&records),
            "stream {stream}"
        );

        let c = reference.coverage;
        total.stale_extends += c.stale_extends;
        total.terminal_multi_copy += c.terminal_multi_copy;
        total.reseeded += c.reseeded;
        total.unseeded_relay += c.unseeded_relay;
        for side in 0..2 {
            total.relay_at_ttl_bound[side] += c.relay_at_ttl_bound[side];
            total.deliver_at_ttl_bound[side] += c.deliver_at_ttl_bound[side];
        }
    }
    assert!(
        loop_findings > 0,
        "streams must produce findings to compare"
    );
    assert!(total.stale_extends > 0, "{total:?}");
    assert!(total.terminal_multi_copy > 0, "{total:?}");
    assert!(total.reseeded > 0, "{total:?}");
    assert!(total.unseeded_relay > 0, "{total:?}");
    assert!(total.relay_at_ttl_bound.iter().all(|&n| n > 0), "{total:?}");
    assert!(
        total.deliver_at_ttl_bound.iter().all(|&n| n > 0),
        "{total:?}"
    );
}
