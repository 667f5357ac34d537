//! Measurement: the quantities the paper's figures plot.
//!
//! Per-node counters and one loss ledger ([`VerdictHistogram`]) are
//! maintained by the simulator; [`MetricsReport`] aggregates them at the
//! end of a run into exactly the paper's axes: throughput (Eq 2–3, kbps),
//! average power (mW, §5.2), the overhead value (§5.3: transmission +
//! maintenance + retransmission cost), execution time (Fig 8), and the
//! ingredients of the efficiency index (Eq 4 — the harness normalises
//! against S-FAMA).

use std::fmt;

use uasn_sim::hist::LogHistogram;
use uasn_sim::stats::{Accumulator, Histogram, TimeWeighted};
use uasn_sim::time::{SimDuration, SimTime};

use crate::sdu::SduTable;

/// The causal verdict for one lost SDU (or the frame carrying it),
/// attributed online at the site of the loss — the loss-diagnosis axis
/// (collision vs channel vs queue) the UASN survey frames as the key
/// observable for protocol comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropVerdict {
    /// The MAC queue was full when the SDU arrived.
    QueueOverflow,
    /// The MAC exhausted its retry budget for the SDU.
    MacDrop,
    /// The frame was discarded because the modem was mid-transmission.
    ModemBusy,
    /// The channel's packet-error model destroyed the frame in flight.
    PerLoss,
    /// A handshake (RTS/CTS negotiation) timed out terminally.
    HandshakeTimeout,
    /// No audible next hop existed: the SDU could not be routed at all.
    NoAudibleReceiver,
    /// A relayed SDU exceeded the routing hop-count TTL and was discarded
    /// instead of being forwarded again.
    TtlExhausted,
    /// The end-to-end transport at the origin spent its whole retry
    /// budget without seeing a sink ack.
    RetryBudgetExhausted,
}

impl DropVerdict {
    /// Every verdict, in histogram order.
    pub const ALL: [DropVerdict; 8] = [
        DropVerdict::QueueOverflow,
        DropVerdict::MacDrop,
        DropVerdict::ModemBusy,
        DropVerdict::PerLoss,
        DropVerdict::HandshakeTimeout,
        DropVerdict::NoAudibleReceiver,
        DropVerdict::TtlExhausted,
        DropVerdict::RetryBudgetExhausted,
    ];

    /// The verdict's stable label used in traces, JSON, and reports;
    /// [`DropVerdict::from_label`] inverts it.
    pub fn as_str(self) -> &'static str {
        match self {
            DropVerdict::QueueOverflow => "queue-overflow",
            DropVerdict::MacDrop => "mac-drop",
            DropVerdict::ModemBusy => "modem-busy",
            DropVerdict::PerLoss => "per-loss",
            DropVerdict::HandshakeTimeout => "handshake-timeout",
            DropVerdict::NoAudibleReceiver => "no-audible-receiver",
            DropVerdict::TtlExhausted => "ttl-exhausted",
            DropVerdict::RetryBudgetExhausted => "retry-exhausted",
        }
    }

    /// Parses a label produced by [`DropVerdict::as_str`].
    pub fn from_label(label: &str) -> Option<DropVerdict> {
        DropVerdict::ALL.into_iter().find(|v| v.as_str() == label)
    }
}

impl fmt::Display for DropVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A mergeable per-verdict loss histogram: eight fixed counters, so
/// recording is a single array increment and folding sweep cells is
/// element-wise addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictHistogram {
    counts: [u64; 8],
}

impl VerdictHistogram {
    /// An empty histogram.
    pub fn new() -> VerdictHistogram {
        VerdictHistogram::default()
    }

    /// Counts one loss under `verdict`.
    pub fn record(&mut self, verdict: DropVerdict) {
        self.counts[verdict as usize] += 1;
    }

    /// Adds `count` occurrences of `verdict` (journal reconstruction).
    pub fn add(&mut self, verdict: DropVerdict, count: u64) {
        self.counts[verdict as usize] += count;
    }

    /// Losses attributed to `verdict`.
    pub fn count(&self, verdict: DropVerdict) -> u64 {
        self.counts[verdict as usize]
    }

    /// Total losses across all verdicts.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another histogram in (element-wise addition).
    pub fn merge(&mut self, other: &VerdictHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }

    /// (verdict, count) pairs in [`DropVerdict::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (DropVerdict, u64)> + '_ {
        DropVerdict::ALL
            .into_iter()
            .zip(self.counts.iter().copied())
    }
}

/// Per-node running counters, updated by the simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeCounters {
    /// Data bits successfully received and addressed to this node (Eq 2).
    pub data_bits_received: u64,
    /// Data bits delivered anywhere in the network that *originated* at
    /// this node — the per-source allocation behind the fairness index.
    pub origin_bits_delivered: u64,
    /// Of which, bits that arrived via EW-MAC extra communications.
    pub extra_bits_received: u64,
    /// SDUs received (addressed data frames decoded).
    pub sdus_received: u64,
    /// Data bits transmitted.
    pub data_bits_sent: u64,
    /// Control bits transmitted (all non-data kinds).
    pub control_bits_sent: u64,
    /// Neighbour-maintenance bits charged (piggyback + refresh + init).
    pub maintenance_bits: u64,
    /// Bits of data frames flagged as retransmissions.
    pub retx_bits: u64,
    /// SDUs generated by the traffic source at this node.
    pub sdus_generated: u64,
}

impl NodeCounters {
    /// Total overhead bits in the paper's §5.3 sense: control traffic plus
    /// neighbour maintenance plus retransmitted payload.
    pub fn overhead_bits(&self) -> u64 {
        self.control_bits_sent + self.maintenance_bits + self.retx_bits
    }
}

/// Whole-run aggregate handed to the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Protocol under test.
    pub protocol: &'static str,
    /// Nodes in the network (sensors + sinks).
    pub nodes: usize,
    /// Observation window (Eq 3's `T`).
    pub duration: SimDuration,
    /// Eq 3: Σ data bits received / T, in kbps.
    pub throughput_kbps: f64,
    /// Data bits received network-wide.
    pub data_bits_received: u64,
    /// Bits received through extra communications only.
    pub extra_bits_received: u64,
    /// SDUs received network-wide.
    pub sdus_received: u64,
    /// SDUs generated network-wide.
    pub sdus_generated: u64,
    /// Bits delivered to surface sinks (end-to-end goodput numerator).
    pub sink_bits_received: u64,
    /// Mean node power over the run, mW (Figure 9's axis).
    pub avg_power_mw: f64,
    /// Mean channel utilization: the fraction of the observation window a
    /// node's modem spends transmitting or receiving decodable signal —
    /// the paper's "bandwidth utilization" (title, abstract, §5).
    pub channel_utilization: f64,
    /// Total energy, joules.
    pub total_energy_j: f64,
    /// §5.3 overhead bits, network-wide.
    pub overhead_bits: u64,
    /// Total control bits sent.
    pub control_bits_sent: u64,
    /// Total maintenance bits charged.
    pub maintenance_bits: u64,
    /// Total retransmitted data bits.
    pub retx_bits: u64,
    /// Collisions observed across all modems.
    pub collisions: u64,
    /// Half-duplex losses across all modems.
    pub half_duplex_losses: u64,
    /// Every loss the run decided, by causal verdict — the run's one loss
    /// ledger. The five loss counts below are views of it.
    pub drops: VerdictHistogram,
    /// Frames dropped at busy modems (`drops`' modem-busy count).
    pub tx_dropped: u64,
    /// Unroutable SDUs (`drops`' no-audible-receiver count).
    pub unroutable: u64,
    /// Relayed SDUs discarded at the routing TTL (`drops`' ttl-exhausted
    /// count).
    pub ttl_dropped: u64,
    /// SDUs whose end-to-end transport retry budget was exhausted
    /// (`drops`' retry-exhausted count).
    pub retry_dropped: u64,
    /// SDUs terminally dropped by MACs: `drops`' mac-drop,
    /// handshake-timeout and queue-overflow counts together.
    pub sdus_dropped: u64,
    /// Distinct SDUs that reached a surface sink (first arrivals only) —
    /// the end-to-end delivery numerator.
    pub e2e_delivered: u64,
    /// Mean MAC delivery latency (SDU creation → reception), seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile MAC delivery latency, seconds (bin-midpoint
    /// estimate; `None` when nothing was delivered).
    pub latency_p95_s: Option<f64>,
    /// Time-average number of simultaneously active transmissions — the
    /// conclusions' "parallel transmissions with limited bandwidth".
    pub mean_concurrent_tx: f64,
    /// Jain's fairness index over per-origin delivered bits (sensors that
    /// generated traffic only) — §3.1's rp mechanism exists "to balance
    /// fairness".
    pub fairness_index: f64,
    /// Batch mode: when the last batch SDU reached a sink (Figure 8's
    /// execution time); `None` when not in batch mode or not completed.
    pub completion_time: Option<SimTime>,
    /// Per-hop MAC delivery latency (SDU creation → first reception) in
    /// microseconds — the log-bucketed companion to
    /// [`mean_latency_s`](Self::mean_latency_s) with exact percentile math.
    pub delivery_latency_us: LogHistogram,
    /// End-to-end latency (SDU generation → first sink arrival) in
    /// microseconds.
    pub e2e_latency_us: LogHistogram,
    /// Hops travelled by each SDU that reached a sink (first arrivals
    /// only; 1 = direct source→sink delivery).
    pub path_hops: LogHistogram,
}

impl MetricsReport {
    /// Eq 4 numerator/denominator: throughput per milliwatt. The harness
    /// divides by S-FAMA's value to get the plotted efficiency index.
    pub fn efficiency_raw(&self) -> f64 {
        if self.avg_power_mw <= 0.0 {
            0.0
        } else {
            self.throughput_kbps / self.avg_power_mw
        }
    }

    /// §5.2's comparison basis: energy spent per kilobit of information
    /// successfully moved ("power consumption … when they transmit varied
    /// amounts of information"). Joules per kbit; 0 when nothing was
    /// delivered.
    pub fn energy_per_kbit_j(&self) -> f64 {
        if self.data_bits_received == 0 {
            0.0
        } else {
            self.total_energy_j / (self.data_bits_received as f64 / 1_000.0)
        }
    }

    /// Delivery ratio: received / generated SDUs (per-hop MAC deliveries can
    /// exceed generation under forwarding, so this can exceed 1).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sdus_generated == 0 {
            0.0
        } else {
            self.sdus_received as f64 / self.sdus_generated as f64
        }
    }

    /// End-to-end delivery ratio: distinct SDUs that reached a sink over
    /// SDUs generated. Unlike [`MetricsReport::delivery_ratio`] this
    /// never exceeds 1 — duplicates and intermediate hops don't count.
    pub fn e2e_delivery_ratio(&self) -> f64 {
        if self.sdus_generated == 0 {
            0.0
        } else {
            self.e2e_delivered as f64 / self.sdus_generated as f64
        }
    }

    /// Sink-goodput throughput: bits landed on sinks over the window,
    /// kbps — the multi-hop companion to
    /// [`MetricsReport::throughput_kbps`].
    pub fn sink_throughput_kbps(&self) -> f64 {
        uasn_sim::stats::kbps(self.sink_bits_received, self.duration)
    }
}

/// Run-wide mutable **delivery** measurement state owned by the simulator:
/// the paper's protocol-behaviour axes (latency, throughput, energy,
/// batch completion). Not to be confused with the *performance*
/// observability surface — [`uasn_sim::profile::MetricsRegistry`] — which
/// measures simulator cost (wall time per event kind, cache efficiency),
/// never protocol behaviour.
#[derive(Debug)]
pub struct DeliveryMetrics {
    /// Per-node counters (indexed by node id).
    pub per_node: Vec<NodeCounters>,
    /// Latency accumulator (seconds).
    pub latency: Accumulator,
    /// Latency distribution, 1-second bins over [0, 300) s.
    pub latency_hist: Histogram,
    /// Number of simultaneously active transmissions, integrated over time
    /// (the conclusions' "parallel transmissions" — spatial reuse).
    pub concurrency: TimeWeighted,
    /// Live transmission count backing [`DeliveryMetrics::concurrency`].
    pub active_transmissions: u32,
    /// Bits landed on sink nodes.
    pub sink_bits: u64,
    /// Per-hop MAC delivery latencies, microseconds.
    pub delivery_hist: LogHistogram,
    /// End-to-end (generation → sink) latencies, microseconds.
    pub e2e_hist: LogHistogram,
    /// Hops travelled per sink-delivered SDU (routed runs only; empty
    /// otherwise).
    pub path_hops: LogHistogram,
    /// The loss ledger: one verdict per loss, recorded at its site.
    pub drops: VerdictHistogram,
    /// Per-SDU state by id: generation time until the first sink
    /// arrival, batch membership, and the routed copies' transport slots
    /// and hop counters.
    pub sdus: SduTable,
    /// Batch arrivals still to be injected by the traffic process.
    pub batch_expected: u32,
    /// Whether batch tracking is active.
    pub batch_mode: bool,
    /// When the batch drained.
    pub completion_time: Option<SimTime>,
}

impl Default for DeliveryMetrics {
    fn default() -> Self {
        DeliveryMetrics {
            per_node: Vec::new(),
            latency: Accumulator::new(),
            latency_hist: Histogram::new(0.0, 300.0, 300),
            concurrency: TimeWeighted::new(SimTime::ZERO, 0.0),
            active_transmissions: 0,
            sink_bits: 0,
            delivery_hist: LogHistogram::new(),
            e2e_hist: LogHistogram::new(),
            path_hops: LogHistogram::new(),
            drops: VerdictHistogram::new(),
            sdus: SduTable::default(),
            batch_expected: 0,
            batch_mode: false,
            completion_time: None,
        }
    }
}

impl DeliveryMetrics {
    /// Creates metrics for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        DeliveryMetrics {
            per_node: vec![NodeCounters::default(); nodes],
            ..DeliveryMetrics::default()
        }
    }

    /// Records one delivery latency in seconds.
    pub fn record_latency(&mut self, secs: f64) {
        self.latency.add(secs);
        self.latency_hist.add(secs);
    }

    /// Records one per-hop MAC delivery latency (SDU creation → first
    /// reception), feeding both the float accumulators and the exact
    /// log-bucketed histogram.
    pub fn record_delivery_latency(&mut self, latency: SimDuration) {
        self.record_latency(latency.as_secs_f64());
        self.delivery_hist.record(latency.as_micros());
    }

    /// Remembers when the traffic source generated `sdu_id`, anchoring the
    /// end-to-end latency measured at the sink. Forwarding hops must not
    /// call this — the anchor is the original generation time.
    pub fn record_sdu_generated(&mut self, now: SimTime, sdu_id: u64) {
        self.sdus.generate(sdu_id, now);
    }

    /// A transmission started at `now`.
    pub fn transmission_started(&mut self, now: SimTime) {
        self.active_transmissions += 1;
        self.concurrency.set(now, self.active_transmissions as f64);
    }

    /// A transmission ended at `now`.
    pub fn transmission_ended(&mut self, now: SimTime) {
        self.active_transmissions = self.active_transmissions.saturating_sub(1);
        self.concurrency.set(now, self.active_transmissions as f64);
    }

    /// Declares how many batch arrivals the traffic process will inject.
    pub fn expect_batch(&mut self, total: u32) {
        self.batch_mode = true;
        self.batch_expected = total;
    }

    /// Registers a batch SDU id to await (counts down the expected
    /// arrivals; pass `None` for an arrival that could not be routed).
    pub fn register_batch_sdu(&mut self, id: Option<u64>) {
        self.batch_mode = true;
        self.batch_expected = self.batch_expected.saturating_sub(1);
        if let Some(id) = id {
            self.sdus.join_batch(id);
        }
    }

    /// Records an SDU landing on a sink: end-to-end goodput accounting plus
    /// the generation→sink latency for this SDU's first arrival (duplicates
    /// from rebroadcast paths don't re-measure). Returns the measured
    /// end-to-end latency when this was the first arrival.
    pub fn record_sink_arrival(
        &mut self,
        now: SimTime,
        sdu_id: u64,
        bits: u32,
    ) -> Option<SimDuration> {
        self.sink_bits += bits as u64;
        let generated = self.sdus.take_generated(sdu_id)?;
        let e2e = now.duration_since(generated);
        self.e2e_hist.record(e2e.as_micros());
        Some(e2e)
    }

    /// Attributes one loss to the ledger.
    pub fn record_drop(&mut self, verdict: DropVerdict) {
        self.drops.record(verdict);
    }

    /// Records a terminal MAC drop: the SDU will never be delivered, so a
    /// pending batch must not wait for it.
    pub fn record_mac_drop(&mut self, now: SimTime, sdu_id: u64) {
        // Identical bookkeeping: the id stops being outstanding.
        self.record_mac_delivery(now, sdu_id);
    }

    /// Records the first successful MAC delivery of an SDU anywhere in the
    /// network. Figure 8's "execution time" is when the last batch SDU has
    /// completed its transmission — the batch drains on first-hop MAC
    /// delivery, not on reaching a sink.
    pub fn record_mac_delivery(&mut self, now: SimTime, sdu_id: u64) {
        if self.batch_mode
            && self.sdus.leave_batch(sdu_id)
            && self.batch_expected == 0
            && self.sdus.batch_remaining() == 0
        {
            self.completion_time.get_or_insert(now);
        }
    }

    /// Whether every batch SDU has been injected and MAC-delivered.
    pub fn batch_complete(&self) -> bool {
        self.batch_mode && self.batch_expected == 0 && self.sdus.batch_remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_integrates_overlapping_transmissions() {
        let mut m = DeliveryMetrics::new(1);
        m.transmission_started(SimTime::ZERO);
        m.transmission_started(SimTime::from_secs(5)); // two in flight
        m.transmission_ended(SimTime::from_secs(10));
        m.transmission_ended(SimTime::from_secs(10));
        // 5 s at 1 + 5 s at 2 = 15 unit-seconds over 20 s = 0.75.
        let avg = m.concurrency.average(SimTime::from_secs(20));
        assert!((avg - 0.75).abs() < 1e-9, "got {avg}");
    }

    #[test]
    fn batch_waits_for_all_arrivals() {
        // Delivering the first SDU before the second is even injected must
        // not complete the batch.
        let mut m = DeliveryMetrics::new(1);
        m.expect_batch(2);
        m.register_batch_sdu(Some(1));
        m.record_mac_delivery(SimTime::from_secs(3), 1);
        assert!(!m.batch_complete(), "one arrival still expected");
        m.register_batch_sdu(Some(2));
        m.record_mac_delivery(SimTime::from_secs(8), 2);
        assert!(m.batch_complete());
        assert_eq!(m.completion_time, Some(SimTime::from_secs(8)));
    }

    #[test]
    fn unroutable_batch_arrival_counts_down() {
        let mut m = DeliveryMetrics::new(1);
        m.expect_batch(2);
        m.register_batch_sdu(Some(1));
        m.register_batch_sdu(None); // generated but unroutable
        m.record_mac_delivery(SimTime::from_secs(4), 1);
        assert!(m.batch_complete());
    }
    use uasn_sim::stats::kbps;

    #[test]
    fn overhead_bits_sums_components() {
        let c = NodeCounters {
            control_bits_sent: 100,
            maintenance_bits: 50,
            retx_bits: 25,
            ..NodeCounters::default()
        };
        assert_eq!(c.overhead_bits(), 175);
    }

    #[test]
    fn batch_completion_tracks_last_sdu() {
        let mut m = DeliveryMetrics::new(3);
        m.expect_batch(2);
        m.register_batch_sdu(Some(1));
        m.register_batch_sdu(Some(2));
        assert!(!m.batch_complete());
        m.record_mac_delivery(SimTime::from_secs(10), 1);
        assert!(!m.batch_complete());
        assert_eq!(m.completion_time, None);
        m.record_mac_delivery(SimTime::from_secs(20), 2);
        assert!(m.batch_complete());
        assert_eq!(m.completion_time, Some(SimTime::from_secs(20)));
        m.record_sink_arrival(SimTime::from_secs(21), 1, 2_048);
        assert_eq!(m.sink_bits, 2_048);
    }

    #[test]
    fn sink_arrival_measures_end_to_end_latency_once() {
        let mut m = DeliveryMetrics::new(2);
        m.record_sdu_generated(SimTime::from_secs(2), 7);
        // The anchor is the generation time — later re-registration (e.g. a
        // forwarding hop misusing the API) must not move it.
        m.record_sdu_generated(SimTime::from_secs(5), 7);
        let e2e = m.record_sink_arrival(SimTime::from_secs(12), 7, 1_024);
        assert_eq!(e2e, Some(SimDuration::from_secs(10)));
        assert_eq!(m.e2e_hist.count(), 1);
        assert_eq!(m.e2e_hist.max(), Some(10_000_000));
        // A duplicate arrival still counts bits but not latency.
        assert_eq!(
            m.record_sink_arrival(SimTime::from_secs(13), 7, 1_024),
            None
        );
        assert_eq!(m.sink_bits, 2_048);
        assert_eq!(m.e2e_hist.count(), 1);
        // An SDU never registered (unknown id) measures nothing.
        assert_eq!(m.record_sink_arrival(SimTime::from_secs(14), 99, 8), None);
    }

    #[test]
    fn delivery_latency_feeds_both_representations() {
        let mut m = DeliveryMetrics::new(1);
        m.record_delivery_latency(SimDuration::from_millis(2_500));
        assert_eq!(m.latency.count(), 1);
        assert_eq!(m.delivery_hist.count(), 1);
        assert_eq!(m.delivery_hist.max(), Some(2_500_000));
        assert!((m.latency.mean() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn duplicate_delivery_does_not_complete_twice() {
        let mut m = DeliveryMetrics::new(1);
        m.expect_batch(1);
        m.register_batch_sdu(Some(1));
        m.record_mac_delivery(SimTime::from_secs(5), 1);
        m.record_mac_delivery(SimTime::from_secs(9), 1);
        assert_eq!(m.completion_time, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn non_batch_mode_never_completes() {
        let mut m = DeliveryMetrics::new(1);
        m.record_mac_delivery(SimTime::from_secs(5), 77);
        assert!(!m.batch_complete());
        assert_eq!(m.completion_time, None);
    }

    #[test]
    fn efficiency_and_delivery_ratio() {
        let r = MetricsReport {
            protocol: "X",
            nodes: 10,
            duration: SimDuration::from_secs(300),
            throughput_kbps: 0.3,
            data_bits_received: 90_000,
            extra_bits_received: 0,
            sdus_received: 44,
            sdus_generated: 50,
            sink_bits_received: 0,
            avg_power_mw: 150.0,
            channel_utilization: 0.2,
            total_energy_j: 45.0,
            overhead_bits: 10_000,
            control_bits_sent: 8_000,
            maintenance_bits: 1_000,
            retx_bits: 1_000,
            collisions: 3,
            half_duplex_losses: 0,
            drops: VerdictHistogram::new(),
            tx_dropped: 0,
            unroutable: 0,
            ttl_dropped: 0,
            retry_dropped: 0,
            sdus_dropped: 0,
            e2e_delivered: 40,
            mean_latency_s: 4.5,
            latency_p95_s: Some(9.5),
            mean_concurrent_tx: 0.4,
            fairness_index: 0.9,
            completion_time: None,
            delivery_latency_us: LogHistogram::new(),
            e2e_latency_us: LogHistogram::new(),
            path_hops: LogHistogram::new(),
        };
        assert!((r.efficiency_raw() - 0.002).abs() < 1e-12);
        assert!((r.delivery_ratio() - 0.88).abs() < 1e-12);
        assert!((r.e2e_delivery_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_power_efficiency_is_zero() {
        let mut m = DeliveryMetrics::new(1);
        m.per_node[0].data_bits_received = 10;
        // Build a degenerate report by hand:
        let r = MetricsReport {
            protocol: "X",
            nodes: 1,
            duration: SimDuration::from_secs(1),
            throughput_kbps: 1.0,
            data_bits_received: 10,
            extra_bits_received: 0,
            sdus_received: 1,
            sdus_generated: 1,
            sink_bits_received: 0,
            avg_power_mw: 0.0,
            channel_utilization: 0.0,
            total_energy_j: 0.0,
            overhead_bits: 0,
            control_bits_sent: 0,
            maintenance_bits: 0,
            retx_bits: 0,
            collisions: 0,
            half_duplex_losses: 0,
            drops: VerdictHistogram::new(),
            tx_dropped: 0,
            unroutable: 0,
            ttl_dropped: 0,
            retry_dropped: 0,
            sdus_dropped: 0,
            e2e_delivered: 0,
            mean_latency_s: 0.0,
            latency_p95_s: None,
            mean_concurrent_tx: 0.0,
            fairness_index: 0.0,
            completion_time: None,
            delivery_latency_us: LogHistogram::new(),
            e2e_latency_us: LogHistogram::new(),
            path_hops: LogHistogram::new(),
        };
        assert_eq!(r.efficiency_raw(), 0.0);
    }

    #[test]
    fn throughput_unit_helper() {
        // 90 kbit over 300 s = 0.3 kbps — the scale of the paper's Fig 6.
        assert!((kbps(90_000, SimDuration::from_secs(300)) - 0.3).abs() < 1e-12);
    }
}
