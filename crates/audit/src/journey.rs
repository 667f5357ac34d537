//! Per-SDU packet journeys and phase-latency histograms.
//!
//! A journey is the causal timeline of one SDU: generation, per-hop
//! queueing, handshake (RTS/EXR first contact), data transmission,
//! propagation, and the final sink arrival. Journeys are reconstructed
//! purely from the trace's structured events, so they work for every
//! protocol — handshake-free MACs (ALOHA, CS-MAC data-steals) simply have
//! an empty handshake phase.
//!
//! Phase durations aggregate into [`LogHistogram`]s, which merge exactly
//! across runs and export to CSV or JSON for plotting.

use std::collections::HashMap;

use uasn_net::packet::FrameKind;
use uasn_sim::hist::LogHistogram;
use uasn_sim::json::JsonValue;

use crate::copies::CopyIndex;
use crate::model::{DropEvent, EnqEvent, ParsedRecord, RxEvent, SinkEvent, TraceModel, TxEvent};

/// One hop of an SDU's journey: from MAC enqueue at `from` to decoded data
/// arrival at `to` (when the hop completed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Node that queued the SDU for this hop.
    pub from: usize,
    /// Intended next hop.
    pub to: usize,
    /// Whether this hop is a forwarding relay (vs. fresh generation).
    pub fwd: bool,
    /// Enqueue time, microseconds.
    pub enq_us: u64,
    /// Trace record of the enqueue.
    pub enq_record: usize,
    /// First RTS/EXR transmitted from `from` to `to` at or after the
    /// enqueue (handshake start); `None` for handshake-free deliveries.
    pub first_contact_us: Option<u64>,
    /// Start of the data transmission that completed the hop, microseconds.
    pub tx_start_us: Option<u64>,
    /// Airtime of that transmission, microseconds.
    pub tx_dur_us: Option<u64>,
    /// Propagation delay of the delivering copy, microseconds.
    pub prop_us: Option<u64>,
    /// Decoded arrival end at `to`, microseconds.
    pub delivered_us: Option<u64>,
    /// Data transmissions from `from` carrying this SDU during the hop
    /// (1 = first try succeeded).
    pub attempts: usize,
}

impl HopRecord {
    /// Whether the hop completed (data decoded at the next hop).
    pub fn completed(&self) -> bool {
        self.delivered_us.is_some()
    }

    /// Queueing time: enqueue until the handshake starts (or until the data
    /// transmission itself when there is no handshake).
    pub fn queueing_us(&self) -> Option<u64> {
        let until = self.first_contact_us.or(self.tx_start_us)?;
        Some(until.saturating_sub(self.enq_us))
    }

    /// Handshake time: first contact until the data transmission starts.
    /// Zero-length for handshake-free protocols.
    pub fn handshake_us(&self) -> Option<u64> {
        match (self.first_contact_us, self.tx_start_us) {
            (Some(contact), Some(tx)) => Some(tx.saturating_sub(contact)),
            (None, Some(_)) => Some(0),
            _ => None,
        }
    }

    /// Total hop latency: enqueue to decoded arrival.
    pub fn total_us(&self) -> Option<u64> {
        Some(self.delivered_us?.saturating_sub(self.enq_us))
    }
}

/// The full causal timeline of one SDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Generation time (first non-forwarding enqueue), microseconds.
    pub generated_us: Option<u64>,
    /// Hops in chronological order.
    pub hops: Vec<HopRecord>,
    /// Sink arrival: (sink node, arrival time µs), when delivered.
    pub sink: Option<(usize, u64)>,
    /// End-to-end latency, microseconds (simulator-measured when the trace
    /// carries it, otherwise sink arrival minus generation).
    pub e2e_us: Option<u64>,
    /// Terminal MAC drop: (node, time µs, trace record), when abandoned.
    pub dropped: Option<(usize, u64, usize)>,
}

impl Journey {
    /// Whether the SDU reached a sink.
    pub fn delivered(&self) -> bool {
        self.sink.is_some()
    }

    /// Total data-transmission attempts across all hops.
    pub fn attempts(&self) -> usize {
        self.hops.iter().map(|h| h.attempts).sum()
    }

    /// A multi-line human-readable timeline for reports.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "sdu {} from n{}", self.sdu, self.origin);
        if let Some(t) = self.generated_us {
            let _ = write!(out, " generated @ {t} us");
        }
        match (self.e2e_us, self.sink) {
            (Some(e2e), Some((node, _))) => {
                let _ = write!(out, " -> sink n{node} (e2e {e2e} us)");
            }
            (None, Some((node, t))) => {
                let _ = write!(out, " -> sink n{node} @ {t} us");
            }
            _ => {}
        }
        if let Some((node, t, record)) = self.dropped {
            let _ = write!(out, " -> dropped at n{node} @ {t} us (record #{record})");
        }
        let _ = writeln!(out);
        for hop in &self.hops {
            let _ = write!(
                out,
                "  n{} -> n{} ({}) enq @ {} us",
                hop.from,
                hop.to,
                if hop.fwd { "fwd" } else { "gen" },
                hop.enq_us
            );
            match (
                hop.queueing_us(),
                hop.handshake_us(),
                hop.tx_dur_us,
                hop.prop_us,
            ) {
                (Some(q), Some(h), Some(tx), Some(p)) => {
                    let _ = write!(
                        out,
                        ": queue {q} us, handshake {h} us, tx {tx} us, prop {p} us, \
                         {} attempt(s)",
                        hop.attempts
                    );
                }
                _ => {
                    let _ = write!(out, ": incomplete ({} attempt(s))", hop.attempts);
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Reconstructs all SDU journeys from a trace model.
///
/// Events are already in emission (chronological) order in the model; the
/// reconstruction pairs each enqueue with the first matching addressed data
/// arrival at the intended next hop.
pub fn reconstruct(model: &TraceModel) -> Vec<Journey> {
    // Index per-SDU event streams once; each stream stays chronological.
    let mut enq_by_sdu: HashMap<u64, Vec<&EnqEvent>> = HashMap::new();
    let mut data_tx_by_sdu: HashMap<u64, Vec<&TxEvent>> = HashMap::new();
    let mut contact_tx: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut data_rx_by_sdu: HashMap<u64, Vec<&RxEvent>> = HashMap::new();
    let mut sink_by_sdu: HashMap<u64, &SinkEvent> = HashMap::new();
    let mut drop_by_sdu: HashMap<u64, &DropEvent> = HashMap::new();
    for event in &model.events {
        match event {
            ParsedRecord::Enq(e) => enq_by_sdu.entry(e.sdu).or_default().push(e),
            ParsedRecord::Tx(t) if t.kind.is_data() => {
                if let Some(sdu) = t.sdu {
                    data_tx_by_sdu.entry(sdu).or_default().push(t);
                }
            }
            ParsedRecord::Tx(t) if matches!(t.kind, FrameKind::Rts | FrameKind::ExRts) => {
                contact_tx
                    .entry((t.node, t.dst))
                    .or_default()
                    .push(t.time_us);
            }
            ParsedRecord::Rx(r) if r.kind.is_data() && r.addressed => {
                if let Some(sdu) = r.sdu {
                    data_rx_by_sdu.entry(sdu).or_default().push(r);
                }
            }
            // Keyed by SDU: a later record replaces an earlier one.
            ParsedRecord::Sink(s) => {
                sink_by_sdu.insert(s.sdu, s);
            }
            ParsedRecord::Drop(d) => {
                drop_by_sdu.insert(d.sdu, d);
            }
            _ => {}
        }
    }

    let mut sdus: Vec<u64> = enq_by_sdu.keys().copied().collect();
    sdus.sort_unstable();

    let mut journeys = Vec::with_capacity(sdus.len());
    for sdu in sdus {
        let enqs = &enq_by_sdu[&sdu];
        let origin = enqs[0].origin;
        let generated_us = enqs.iter().find(|e| !e.fwd).map(|e| e.time_us);

        let mut hops = Vec::with_capacity(enqs.len());
        for enq in enqs {
            // The delivery that completes this hop: the first addressed
            // data arrival of this SDU at the intended next hop, decoded
            // at or after the enqueue.
            let delivery = data_rx_by_sdu.get(&sdu).and_then(|rxs| {
                rxs.iter().copied().find(|r| {
                    r.node == enq.next_hop && r.src == enq.node && r.end_us >= enq.time_us
                })
            });
            let tx_start_us = delivery.map(|r| r.start_us.saturating_sub(r.prop_us));
            // Attempts: data transmissions of this SDU from this node in
            // the hop's window (enqueue to the delivering transmission).
            let attempts = data_tx_by_sdu
                .get(&sdu)
                .map(|txs| {
                    txs.iter()
                        .filter(|t| {
                            t.node == enq.node
                                && t.time_us >= enq.time_us
                                && tx_start_us.is_none_or(|s| t.time_us <= s)
                        })
                        .count()
                })
                .unwrap_or(0);
            // Handshake start: first RTS/EXR toward the next hop in the
            // same window.
            let first_contact_us = contact_tx.get(&(enq.node, enq.next_hop)).and_then(|ts| {
                ts.iter()
                    .copied()
                    .find(|&t| t >= enq.time_us && tx_start_us.is_none_or(|s| t <= s))
            });
            hops.push(HopRecord {
                from: enq.node,
                to: enq.next_hop,
                fwd: enq.fwd,
                enq_us: enq.time_us,
                enq_record: enq.record,
                first_contact_us,
                tx_start_us,
                tx_dur_us: delivery.map(|r| r.end_us.saturating_sub(r.start_us)),
                prop_us: delivery.map(|r| r.prop_us),
                delivered_us: delivery.map(|r| r.end_us),
                attempts,
            });
        }

        let sink_ev = sink_by_sdu.get(&sdu);
        let sink = sink_ev.map(|s| (s.node, s.time_us));
        let e2e_us = sink_ev.and_then(|s| {
            s.e2e_us
                .or_else(|| Some(s.time_us.saturating_sub(generated_us?)))
        });
        journeys.push(Journey {
            sdu,
            origin,
            generated_us,
            hops,
            sink,
            e2e_us,
            dropped: drop_by_sdu.get(&sdu).map(|d| (d.node, d.time_us, d.record)),
        });
    }
    journeys
}

/// The `n` slowest delivered journeys, by end-to-end latency, slowest first.
pub fn slowest(journeys: &[Journey], n: usize) -> Vec<&Journey> {
    let mut delivered: Vec<&Journey> = journeys.iter().filter(|j| j.e2e_us.is_some()).collect();
    delivered.sort_by_key(|j| (std::cmp::Reverse(j.e2e_us), j.sdu));
    delivered.truncate(n);
    delivered
}

/// Log-bucketed latency histograms for every journey phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseHistograms {
    /// Enqueue until handshake start (or data tx when handshake-free).
    pub queueing: LogHistogram,
    /// Handshake start until data transmission start.
    pub handshake: LogHistogram,
    /// Data airtime.
    pub transmission: LogHistogram,
    /// Propagation delay of delivering copies.
    pub propagation: LogHistogram,
    /// Whole hop: enqueue to decoded arrival.
    pub hop_total: LogHistogram,
    /// Generation to sink arrival.
    pub end_to_end: LogHistogram,
}

impl PhaseHistograms {
    /// Aggregates the completed hops and deliveries of `journeys`.
    pub fn from_journeys(journeys: &[Journey]) -> PhaseHistograms {
        let mut h = PhaseHistograms::default();
        for j in journeys {
            for hop in j.hops.iter().filter(|hop| hop.completed()) {
                if let Some(v) = hop.queueing_us() {
                    h.queueing.record(v);
                }
                if let Some(v) = hop.handshake_us() {
                    h.handshake.record(v);
                }
                if let Some(v) = hop.tx_dur_us {
                    h.transmission.record(v);
                }
                if let Some(v) = hop.prop_us {
                    h.propagation.record(v);
                }
                if let Some(v) = hop.total_us() {
                    h.hop_total.record(v);
                }
            }
            if let Some(v) = j.e2e_us {
                h.end_to_end.record(v);
            }
        }
        h
    }

    /// Merges another set of phase histograms into this one (exact).
    pub fn merge(&mut self, other: &PhaseHistograms) {
        self.queueing.merge(&other.queueing);
        self.handshake.merge(&other.handshake);
        self.transmission.merge(&other.transmission);
        self.propagation.merge(&other.propagation);
        self.hop_total.merge(&other.hop_total);
        self.end_to_end.merge(&other.end_to_end);
    }

    /// The phases in presentation order with their stable names.
    pub fn phases(&self) -> [(&'static str, &LogHistogram); 6] {
        [
            ("queueing", &self.queueing),
            ("handshake", &self.handshake),
            ("transmission", &self.transmission),
            ("propagation", &self.propagation),
            ("hop_total", &self.hop_total),
            ("end_to_end", &self.end_to_end),
        ]
    }

    /// CSV export: `phase,lo_us,hi_us,count` per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("phase,lo_us,hi_us,count\n");
        for (name, hist) in self.phases() {
            for (lo, hi, count) in hist.iter_nonzero() {
                use std::fmt::Write as _;
                let _ = writeln!(out, "{name},{lo},{hi},{count}");
            }
        }
        out
    }

    /// JSON export: `{ phase: histogram }` with full summary stats.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.phases()
                .into_iter()
                .map(|(name, hist)| (name.to_string(), hist.to_json()))
                .collect(),
        )
    }
}

/// One source→sink path of a routed SDU copy: the node sequence from the
/// origin injection (`route`) through every relay to its terminal fate.
/// Transport retries produce one path per attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SduPath {
    /// SDU id.
    pub sdu: u64,
    /// Origin node.
    pub origin: usize,
    /// Transport attempt this path belongs to (0 = first injection).
    pub attempt: u64,
    /// Nodes visited in order, origin first; ends with the sink when
    /// delivered.
    pub nodes: Vec<usize>,
    /// Sink node and end-to-end latency (µs) when this copy delivered.
    pub delivered: Option<(usize, u64)>,
    /// Losing node and causal reason when this copy was lost.
    pub dropped: Option<(usize, String)>,
}

impl SduPath {
    /// MAC hops this path traversed: edges of the node sequence.
    pub fn hops(&self) -> u64 {
        self.nodes.len().saturating_sub(1) as u64
    }

    /// Whether this copy is the one that reached a sink.
    pub fn completed(&self) -> bool {
        self.delivered.is_some()
    }
}

/// Reconstructs the source→sink paths of a routed trace from its `route`
/// / `relay` / `e2e-deliver` / drop records, in injection order. Empty for
/// non-routed traces (which emit none of those tags).
pub fn reconstruct_paths(model: &TraceModel) -> Vec<SduPath> {
    // Index of each open copy's path, one per `(sdu, attempt)` and grouped
    // by SDU like the streaming monitor's: a stale copy from an earlier
    // transport attempt extends its own path, never the retry's.
    let mut open: CopyIndex<usize> = CopyIndex::default();
    let mut paths: Vec<SduPath> = Vec::new();

    // Walk in trace record order, the order the streaming monitor saw
    // these events in.
    for event in &model.events {
        match event {
            ParsedRecord::Route(e) => {
                open.insert(e.sdu, e.attempt, paths.len());
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
                if let Some(&i) = open.get(e.sdu, e.attempt) {
                    paths[i].nodes.push(e.node);
                }
            }
            ParsedRecord::RouteDrop(e) => {
                if e.terminal {
                    // A terminal drop retires the whole SDU: the named
                    // copy (or, for retry exhaustion, the latest open
                    // one) records the fate; any other copies still in
                    // flight close without one.
                    let mut fated = None;
                    open.retire(e.sdu, |attempt, i| match e.attempt {
                        Some(a) if attempt == a => fated = Some(i),
                        Some(_) => {}
                        None => fated = fated.max(Some(i)),
                    });
                    if let Some(i) = fated {
                        paths[i].dropped = Some((e.node, e.reason.to_string()));
                    }
                } else if let Some(a) = e.attempt {
                    if let Some(i) = open.remove(e.sdu, a) {
                        paths[i].dropped = Some((e.node, e.reason.to_string()));
                    }
                }
            }
            ParsedRecord::E2eDeliver(e) => {
                if let Some(i) = open.remove(e.sdu, e.attempt) {
                    paths[i].nodes.push(e.node);
                    paths[i].delivered = Some((e.node, e.e2e_us));
                }
            }
            _ => {}
        }
    }
    paths
}

/// Aggregate statistics over a trace's source→sink paths: the multi-hop
/// counterpart of [`PhaseHistograms`], exactly mergeable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathStats {
    /// MAC hop counts of delivered paths.
    pub hop_counts: LogHistogram,
    /// End-to-end latencies of delivered paths, microseconds.
    pub e2e_us: LogHistogram,
    /// Paths reconstructed (one per injected copy).
    pub attempted: u64,
    /// Paths that reached a sink.
    pub delivered: u64,
    /// Terminal losses per causal reason, sorted by reason.
    pub drop_reasons: Vec<(String, u64)>,
}

impl PathStats {
    /// Aggregates `paths` (from [`reconstruct_paths`]).
    pub fn from_paths(paths: &[SduPath]) -> PathStats {
        let mut stats = PathStats {
            attempted: paths.len() as u64,
            ..PathStats::default()
        };
        let mut reasons: HashMap<&str, u64> = HashMap::new();
        for p in paths {
            if let Some((_, e2e)) = p.delivered {
                stats.delivered += 1;
                stats.hop_counts.record(p.hops());
                stats.e2e_us.record(e2e);
            } else if let Some((_, reason)) = &p.dropped {
                *reasons.entry(reason.as_str()).or_default() += 1;
            }
        }
        stats.drop_reasons = reasons
            .into_iter()
            .map(|(r, n)| (r.to_string(), n))
            .collect();
        stats.drop_reasons.sort();
        stats
    }

    /// Merges another run's path statistics into this one (exact).
    pub fn merge(&mut self, other: &PathStats) {
        self.hop_counts.merge(&other.hop_counts);
        self.e2e_us.merge(&other.e2e_us);
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        for (reason, n) in &other.drop_reasons {
            match self.drop_reasons.iter_mut().find(|(r, _)| r == reason) {
                Some((_, count)) => *count += n,
                None => self.drop_reasons.push((reason.clone(), *n)),
            }
        }
        self.drop_reasons.sort();
    }

    /// JSON export with full histogram summaries, for report tooling.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("attempted".to_string(), JsonValue::from_u64(self.attempted)),
            ("delivered".to_string(), JsonValue::from_u64(self.delivered)),
            ("hop_counts".to_string(), self.hop_counts.to_json()),
            ("e2e_us".to_string(), self.e2e_us.to_json()),
            (
                "drop_reasons".to_string(),
                JsonValue::Object(
                    self.drop_reasons
                        .iter()
                        .map(|(r, n)| (r.clone(), JsonValue::from_u64(*n)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{E2eDeliverEvent, RelayEvent, RouteDropEvent, RouteEvent};

    fn enq(
        record: usize,
        time_us: u64,
        node: usize,
        sdu: u64,
        next_hop: usize,
        fwd: bool,
    ) -> EnqEvent {
        EnqEvent {
            record,
            time_us,
            node,
            sdu,
            origin: if fwd { 9 } else { node },
            next_hop,
            bits: 2_048,
            fwd,
        }
    }

    fn model_one_hop() -> TraceModel {
        TraceModel {
            events: vec![
                ParsedRecord::Enq(enq(0, 1_000, 2, 7, 0, false)),
                ParsedRecord::Tx(TxEvent {
                    record: 1,
                    time_us: 5_000,
                    node: 2,
                    kind: FrameKind::Rts,
                    dst: 0,
                    bits: 64,
                    dur_us: 5_333,
                    pair_delay_us: None,
                    data_dur_us: Some(170_667),
                    sdu: None,
                    origin: None,
                    retx: false,
                    bundle: 0,
                    stamp_us: 0,
                }),
                ParsedRecord::Tx(TxEvent {
                    record: 2,
                    time_us: 20_000,
                    node: 2,
                    kind: FrameKind::Data,
                    dst: 0,
                    bits: 2_048,
                    dur_us: 170_667,
                    pair_delay_us: None,
                    data_dur_us: None,
                    sdu: Some(7),
                    origin: Some(2),
                    retx: false,
                    bundle: 0,
                    stamp_us: 0,
                }),
                ParsedRecord::Rx(RxEvent {
                    record: 3,
                    end_us: 20_000 + 3_000 + 170_667,
                    node: 0,
                    kind: FrameKind::Data,
                    src: 2,
                    dst: 0,
                    bits: 2_048,
                    start_us: 23_000,
                    prop_us: 3_000,
                    addressed: true,
                    sdu: Some(7),
                    origin: Some(2),
                    meas_us: None,
                    stamp_us: 0,
                }),
                ParsedRecord::Sink(SinkEvent {
                    record: 4,
                    time_us: 193_667,
                    node: 0,
                    sdu: 7,
                    origin: 2,
                    bits: 2_048,
                    e2e_us: Some(192_667),
                }),
            ],
            ..TraceModel::default()
        }
    }

    #[test]
    fn one_hop_journey_reconstructs_all_phases() {
        let journeys = reconstruct(&model_one_hop());
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert_eq!(j.sdu, 7);
        assert_eq!(j.origin, 2);
        assert_eq!(j.generated_us, Some(1_000));
        assert_eq!(j.e2e_us, Some(192_667));
        assert!(j.delivered());
        assert_eq!(j.hops.len(), 1);
        let hop = &j.hops[0];
        assert!(hop.completed());
        assert_eq!(hop.first_contact_us, Some(5_000));
        assert_eq!(hop.queueing_us(), Some(4_000));
        assert_eq!(hop.handshake_us(), Some(15_000));
        assert_eq!(hop.tx_start_us, Some(20_000));
        assert_eq!(hop.tx_dur_us, Some(170_667));
        assert_eq!(hop.prop_us, Some(3_000));
        assert_eq!(hop.attempts, 1);
        let text = j.describe();
        assert!(text.contains("sdu 7"), "describe() names the SDU: {text}");
        assert!(text.contains("handshake 15000 us"), "{text}");
    }

    #[test]
    fn phase_histograms_aggregate_and_export() {
        let journeys = reconstruct(&model_one_hop());
        let hists = PhaseHistograms::from_journeys(&journeys);
        assert_eq!(hists.end_to_end.count(), 1);
        assert_eq!(hists.hop_total.count(), 1);
        assert_eq!(hists.propagation.min(), Some(3_000));
        let csv = hists.to_csv();
        assert!(csv.starts_with("phase,lo_us,hi_us,count\n"));
        assert!(csv.contains("propagation,"), "{csv}");
        let mut json = String::new();
        hists.to_json().write(&mut json);
        assert!(json.contains("\"end_to_end\""), "{json}");

        let mut merged = PhaseHistograms::from_journeys(&journeys);
        merged.merge(&hists);
        assert_eq!(merged.end_to_end.count(), 2);
    }

    #[test]
    fn incomplete_hop_yields_no_phase_samples() {
        let mut model = model_one_hop();
        model
            .events
            .retain(|e| !matches!(e, ParsedRecord::Rx(_) | ParsedRecord::Sink(_)));
        let journeys = reconstruct(&model);
        assert_eq!(journeys.len(), 1);
        assert!(!journeys[0].delivered());
        assert!(!journeys[0].hops[0].completed());
        // The queued-but-undelivered attempt still counts.
        assert_eq!(journeys[0].hops[0].attempts, 1);
        let hists = PhaseHistograms::from_journeys(&journeys);
        assert_eq!(hists.end_to_end.count(), 0);
        assert_eq!(hists.hop_total.count(), 0);
    }

    fn routed_model() -> TraceModel {
        TraceModel {
            events: vec![
                ParsedRecord::Route(RouteEvent {
                    record: 0,
                    time_us: 1_000,
                    node: 5,
                    sdu: 7,
                    next_hop: 3,
                    attempt: 0,
                }),
                ParsedRecord::Route(RouteEvent {
                    record: 1,
                    time_us: 1_500,
                    node: 6,
                    sdu: 8,
                    next_hop: 3,
                    attempt: 0,
                }),
                ParsedRecord::Relay(RelayEvent {
                    record: 2,
                    time_us: 10_000,
                    node: 3,
                    sdu: 7,
                    origin: 5,
                    next_hop: 0,
                    attempt: 0,
                    hops: 1,
                    bits: 2_048,
                }),
                ParsedRecord::E2eDeliver(E2eDeliverEvent {
                    record: 3,
                    time_us: 40_000,
                    node: 0,
                    sdu: 7,
                    origin: 5,
                    attempt: 0,
                    hops: 2,
                    e2e_us: 39_000,
                }),
                ParsedRecord::RouteDrop(RouteDropEvent {
                    record: 4,
                    time_us: 50_000,
                    node: 3,
                    sdu: 8,
                    origin: 6,
                    attempt: Some(0),
                    hops: Some(1),
                    attempts: None,
                    reason: "ttl-exhausted".into(),
                    terminal: false,
                }),
                // sdu 8's transport retry after the copy-level loss above.
                ParsedRecord::Route(RouteEvent {
                    record: 5,
                    time_us: 60_000,
                    node: 6,
                    sdu: 8,
                    next_hop: 3,
                    attempt: 1,
                }),
                ParsedRecord::RouteDrop(RouteDropEvent {
                    record: 6,
                    time_us: 120_000,
                    node: 6,
                    sdu: 8,
                    origin: 6,
                    attempt: None,
                    hops: None,
                    attempts: Some(2),
                    reason: "retry-exhausted".into(),
                    terminal: true,
                }),
            ],
            ..TraceModel::default()
        }
    }

    #[test]
    fn paths_reconstruct_per_attempt_with_terminal_fates() {
        let paths = reconstruct_paths(&routed_model());
        assert_eq!(paths.len(), 3, "one path per injected copy");
        let p7 = &paths[0];
        assert_eq!(p7.sdu, 7);
        assert_eq!(p7.nodes, vec![5, 3, 0], "origin -> relay -> sink");
        assert_eq!(p7.hops(), 2);
        assert_eq!(p7.delivered, Some((0, 39_000)));
        assert!(p7.completed());
        let first_try = &paths[1];
        assert_eq!(first_try.attempt, 0);
        assert_eq!(
            first_try.dropped,
            Some((3, "ttl-exhausted".to_string())),
            "copy-level loss closes the attempt's path"
        );
        let retry = &paths[2];
        assert_eq!(retry.attempt, 1);
        assert_eq!(retry.dropped, Some((6, "retry-exhausted".to_string())));
        assert!(!retry.completed());
    }

    #[test]
    fn path_stats_aggregate_and_merge() {
        let paths = reconstruct_paths(&routed_model());
        let stats = PathStats::from_paths(&paths);
        assert_eq!(stats.attempted, 3);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.hop_counts.count(), 1);
        assert_eq!(stats.hop_counts.max(), Some(2));
        assert_eq!(stats.e2e_us.count(), 1);
        assert_eq!(
            stats.drop_reasons,
            vec![
                ("retry-exhausted".to_string(), 1),
                ("ttl-exhausted".to_string(), 1)
            ]
        );
        let mut merged = stats.clone();
        merged.merge(&stats);
        assert_eq!(merged.attempted, 6);
        assert_eq!(merged.delivered, 2);
        assert_eq!(
            merged
                .drop_reasons
                .iter()
                .find(|(r, _)| r == "ttl-exhausted")
                .map(|(_, n)| *n),
            Some(2)
        );
        let mut json = String::new();
        stats.to_json().write(&mut json);
        assert!(json.contains("\"hop_counts\""), "{json}");
        assert!(json.contains("\"retry-exhausted\""), "{json}");
    }

    #[test]
    fn non_routed_traces_have_no_paths() {
        assert!(reconstruct_paths(&model_one_hop()).is_empty());
    }

    #[test]
    fn slowest_sorts_by_e2e_descending() {
        let mut a = reconstruct(&model_one_hop()).remove(0);
        let mut b = a.clone();
        a.sdu = 1;
        a.e2e_us = Some(10);
        b.sdu = 2;
        b.e2e_us = Some(20);
        let list = vec![a, b];
        let top = slowest(&list, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].sdu, 2);
    }
}
