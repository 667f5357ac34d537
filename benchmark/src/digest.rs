//! Output digests: an FNV-1a 64 hash over a run's `MetricsReport`.
//!
//! Floats hash by their bit patterns, so two reports digest equal only when
//! every field is bit-identical — the same bar the golden-trace suite sets
//! for traces. Fields are read by name rather than destructured, so a field
//! added to the report later leaves this file compiling (and unhashed).

use uasn_net::metrics::MetricsReport;
use uasn_sim::hist::LogHistogram;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Folds a `u64` in (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` in by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a histogram in: its exact summary plus every occupied bucket.
    pub fn hist(&mut self, h: &LogHistogram) -> &mut Self {
        self.u64(h.count()).u64(h.sum());
        for (lo, hi, count) in h.iter_nonzero() {
            self.u64(lo).u64(hi).u64(count);
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of one simulation's report.
pub fn report_digest(r: &MetricsReport) -> u64 {
    let mut h = Fnv::default();
    h.bytes(r.protocol.as_bytes())
        .u64(r.nodes as u64)
        .u64(r.duration.as_micros())
        .f64(r.throughput_kbps)
        .u64(r.data_bits_received)
        .u64(r.extra_bits_received)
        .u64(r.sdus_received)
        .u64(r.sdus_generated)
        .u64(r.sink_bits_received)
        .f64(r.avg_power_mw)
        .f64(r.channel_utilization)
        .f64(r.total_energy_j)
        .u64(r.overhead_bits)
        .u64(r.control_bits_sent)
        .u64(r.maintenance_bits)
        .u64(r.retx_bits)
        .u64(r.collisions)
        .u64(r.half_duplex_losses)
        .u64(r.tx_dropped)
        .u64(r.unroutable)
        .u64(r.ttl_dropped)
        .u64(r.retry_dropped)
        .u64(r.sdus_dropped)
        .u64(r.e2e_delivered)
        .f64(r.mean_latency_s)
        .f64(r.latency_p95_s.unwrap_or(-1.0))
        .f64(r.mean_concurrent_tx)
        .f64(r.fairness_index)
        .u64(r.completion_time.map_or(u64::MAX, |t| t.as_micros()))
        .hist(&r.delivery_latency_us)
        .hist(&r.e2e_latency_us)
        .hist(&r.path_hops);
    h.finish()
}

/// Combines per-simulation digests, in order, into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.u64(d);
    }
    h.finish()
}
