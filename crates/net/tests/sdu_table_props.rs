//! Differential property test for the SDU table: random operation
//! sequences, in the shapes the world issues them, drive
//! `DeliveryMetrics` (which owns the table) and a reference built from the
//! four hashed maps the table replaced — generation times, batch
//! membership, per-copy hop counters and the transport's pending entries —
//! and every observable must agree after every step: hop counts, the
//! end-to-end latency, timeout verdicts, pending-ness, batch completion
//! and the second-fate count.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use uasn_net::metrics::DeliveryMetrics;
use uasn_route::{PendingSdu, TimeoutVerdict, TransportConfig, TransportTable};
use uasn_sim::time::{SimDuration, SimTime};

/// One step of a run, as the world issues it. `pick` selects an SDU (or
/// a registered copy) among those minted so far, modulo their count.
#[derive(Debug, Clone)]
enum Op {
    /// The traffic process mints an SDU; an unroutable one is a hole.
    Generate {
        routable: bool,
        origin: u32,
        bits: u32,
    },
    /// A registered copy reaches a relay: one hop charged, then the copy
    /// is sent on or lost there (TTL or no next hop).
    Relay { pick: usize, sent: bool },
    /// A copy (or, unrouted, any SDU) lands on a sink.
    Sink { pick: usize },
    /// A sink ack reaches the origin.
    Ack { pick: usize },
    /// An armed timeout fires; a retry may find no next hop.
    Timeout { pick: usize, routable: bool },
    /// The first MAC delivery, or a MAC drop, of an SDU.
    Mac { pick: usize, drop: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..15, 0usize..1 << 20, 0.0f64..1.0, 0u32..8, 1u32..4_096).prop_map(
        |(kind, pick, coin, origin, bits)| match kind {
            0..=2 => Op::Generate {
                routable: coin < 0.85,
                origin,
                bits,
            },
            3..=6 => Op::Relay {
                pick,
                sent: coin < 0.8,
            },
            7..=8 => Op::Sink { pick },
            9 => Op::Ack { pick },
            10..=12 => Op::Timeout {
                pick,
                routable: coin < 0.9,
            },
            _ => Op::Mac {
                pick,
                drop: coin < 0.5,
            },
        },
    )
}

/// The run's routing: none, routed without transport, or routed with a
/// retry budget (budgets past the table's inline counters included).
fn arb_mode() -> impl Strategy<Value = Option<Option<u32>>> {
    (0u32..8).prop_map(|k| match k {
        0 => None,
        1 => Some(None),
        k => Some(Some(k - 2)),
    })
}

/// Today's four maps and the bookkeeping the world and `DeliveryMetrics`
/// did over them.
#[derive(Default)]
struct Reference {
    origin_time: HashMap<u64, SimTime>,
    batch_outstanding: HashSet<u64>,
    batch_expected: u32,
    completion_time: Option<SimTime>,
    hops: HashMap<(u64, u32), u32>,
    pending: HashMap<u64, PendingSdu>,
    lost: HashSet<u64>,
    arrived: HashSet<u64>,
    second_fates: u64,
}

impl Reference {
    fn sink_arrival(&mut self, id: u64, now: SimTime) -> Option<SimDuration> {
        let generated = self.origin_time.remove(&id)?;
        if self.lost.contains(&id) {
            self.second_fates += 1;
        }
        self.arrived.insert(id);
        Some(now.duration_since(generated))
    }

    fn mac_delivery(&mut self, id: u64, now: SimTime) {
        if self.batch_outstanding.remove(&id)
            && self.batch_expected == 0
            && self.batch_outstanding.is_empty()
        {
            self.completion_time.get_or_insert(now);
        }
    }

    fn batch_complete(&self) -> bool {
        self.batch_expected == 0 && self.batch_outstanding.is_empty()
    }

    /// `trace_route_drop`'s terminal test.
    fn copy_loss(&mut self, id: u64) -> bool {
        let terminal = !self.pending.contains_key(&id);
        if terminal {
            self.lose(id);
        }
        terminal
    }

    /// A terminal loss; its first one after a sink arrival is a second
    /// fate.
    fn lose(&mut self, id: u64) {
        if self.lost.insert(id) && self.arrived.contains(&id) {
            self.second_fates += 1;
        }
    }

    fn on_timeout(
        &mut self,
        cfg: &TransportConfig,
        id: u64,
        now_us: u64,
    ) -> Option<(PendingSdu, TimeoutVerdict)> {
        let entry = self.pending.get_mut(&id)?;
        if entry.attempts >= cfg.retry_budget {
            let entry = self.pending.remove(&id).expect("just present");
            for a in 0..=entry.attempts {
                self.hops.remove(&(id, a));
            }
            self.lose(id);
            return Some((entry, TimeoutVerdict::Exhausted));
        }
        entry.attempts += 1;
        let deadline_us = now_us.saturating_add(cfg.timeout_us(entry.attempts));
        Some((*entry, TimeoutVerdict::Retry { deadline_us }))
    }
}

proptest! {
    #[test]
    fn sdu_table_matches_the_four_maps(
        mode in arb_mode(),
        batch in proptest::bool::ANY,
        ttl in 1u32..6,
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let routed = mode.is_some();
        let cfg = mode.flatten().map(|retry_budget| TransportConfig {
            retry_budget,
            base_timeout_us: 1_000,
        });
        let policy = cfg.map(TransportTable::new);
        let mut m = DeliveryMetrics::new(8);
        let mut r = Reference::default();
        let total = ops.iter().filter(|op| matches!(op, Op::Generate { .. })).count() as u32;
        if batch {
            m.expect_batch(total);
            r.batch_expected = total;
        }
        let mut minted = 0u64;
        // Every copy ever registered, `(id, attempt)`: a copy can come
        // back after its counter died (exhaustion reset it, or a split
        // frame of it already ended).
        let mut copies: Vec<(u64, u32)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_micros(1_000 * step as u64);
            let now_us = now.as_micros();
            match *op {
                Op::Generate { routable, origin, bits } => {
                    let id = minted;
                    minted += 1;
                    if !routable {
                        if batch {
                            m.register_batch_sdu(None);
                            r.batch_expected -= 1;
                        }
                        if routed {
                            prop_assert_eq!(m.sdus.settle_copy_loss(id), r.copy_loss(id));
                        }
                        continue;
                    }
                    m.record_sdu_generated(now, id);
                    r.origin_time.entry(id).or_insert(now);
                    if batch {
                        m.register_batch_sdu(Some(id));
                        r.batch_expected -= 1;
                        r.batch_outstanding.insert(id);
                    }
                    if routed {
                        m.sdus.register_copy(id, 0);
                        r.hops.insert((id, 0), 0);
                        copies.push((id, 0));
                        if let (Some(policy), Some(cfg)) = (&policy, &cfg) {
                            let deadline = m.sdus.register_transport(policy, id, origin, bits, now_us);
                            prop_assert_eq!(deadline, now_us + cfg.timeout_us(0));
                            r.pending.insert(id, PendingSdu { origin, bits, attempts: 0 });
                        }
                    }
                }
                Op::Relay { pick, sent } => {
                    if copies.is_empty() {
                        continue;
                    }
                    let (id, attempt) = copies[pick % copies.len()];
                    let traversed = m.sdus.advance_hop(id, attempt);
                    let expected = r.hops.get(&(id, attempt)).copied().unwrap_or(0) + 1;
                    r.hops.insert((id, attempt), expected);
                    prop_assert_eq!(traversed, expected, "hops of copy {:?}", (id, attempt));
                    if traversed >= ttl || !sent {
                        prop_assert_eq!(m.sdus.settle_copy_loss(id), r.copy_loss(id));
                        m.sdus.end_copy(id, attempt);
                        r.hops.remove(&(id, attempt));
                    }
                }
                Op::Sink { pick } => {
                    let (id, attempt) = if routed {
                        if copies.is_empty() {
                            continue;
                        }
                        copies[pick % copies.len()]
                    } else {
                        // Unrouted, any id: holes, duplicates and ids
                        // past the last one minted included.
                        ((pick as u64) % (minted + 2), 0)
                    };
                    let e2e = m.record_sink_arrival(now, id, 64);
                    prop_assert_eq!(e2e, r.sink_arrival(id, now), "e2e of {}", id);
                    if routed {
                        prop_assert_eq!(m.sdus.end_copy(id, attempt), r.hops.remove(&(id, attempt)));
                    }
                }
                Op::Ack { pick } => {
                    let id = (pick as u64) % (minted + 2);
                    prop_assert_eq!(m.sdus.ack(id), r.pending.remove(&id));
                }
                Op::Timeout { pick, routable } => {
                    let (Some(policy), Some(cfg)) = (&policy, &cfg) else {
                        continue;
                    };
                    let id = (pick as u64) % (minted + 2);
                    let outcome = m.sdus.on_timeout(policy, id, now_us);
                    prop_assert_eq!(outcome, r.on_timeout(cfg, id, now_us), "timeout of {}", id);
                    if let Some((entry, TimeoutVerdict::Retry { .. })) = outcome {
                        if routable {
                            m.sdus.register_copy(id, entry.attempts);
                            r.hops.insert((id, entry.attempts), 0);
                            copies.push((id, entry.attempts));
                        } else {
                            prop_assert_eq!(m.sdus.settle_copy_loss(id), r.copy_loss(id));
                        }
                    }
                }
                Op::Mac { pick, drop } => {
                    let id = (pick as u64) % (minted + 2);
                    if drop {
                        m.record_mac_drop(now, id);
                    } else {
                        m.record_mac_delivery(now, id);
                    }
                    if batch {
                        r.mac_delivery(id, now);
                    }
                }
            }
            prop_assert_eq!(m.batch_complete(), batch && r.batch_complete());
            prop_assert_eq!(m.completion_time, r.completion_time);
            prop_assert_eq!(m.sdus.second_fates(), r.second_fates);
            for id in 0..minted + 2 {
                prop_assert_eq!(m.sdus.pending(id), r.pending.contains_key(&id), "pending {}", id);
            }
        }
        // Whatever remains: every generation time and hop counter the
        // reference still holds, the table reads back too.
        for id in 0..minted + 2 {
            prop_assert_eq!(
                m.record_sink_arrival(SimTime::MAX, id, 1),
                r.sink_arrival(id, SimTime::MAX)
            );
        }
        for &(id, attempt) in &copies {
            prop_assert_eq!(m.sdus.end_copy(id, attempt), r.hops.remove(&(id, attempt)));
        }
    }
}
