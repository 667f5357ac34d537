//! Property tests for the one-hop table: its bulk install, `observe_all`,
//! leaves exactly the table a loop of `observe` calls would, for sorted,
//! unsorted and repeated-id lists, on empty and non-empty tables; and any
//! sequence of `observe` and `observe_all` calls reads back as the same
//! sequence applied to a `BTreeMap` keyed by id.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uasn_net::neighbor::{NeighborEntry, OneHopTable};
use uasn_net::node::NodeId;
use uasn_sim::time::{SimDuration, SimTime};

fn entries(raw: &[(u32, u64)]) -> Vec<(NodeId, SimDuration)> {
    raw.iter()
        .map(|&(id, us)| (NodeId::new(id), SimDuration::from_micros(us)))
        .collect()
}

/// The reference: one `observe` per entry, in order.
fn observe_each(table: &mut OneHopTable, list: &[(NodeId, SimDuration)], now: SimTime) {
    for &(id, delay) in list {
        table.observe(id, delay, now);
    }
}

proptest! {
    /// `shape` 0 keeps the list as drawn (unsorted, ids repeat), 1 sorts it
    /// stably by id (repeats stay, in draw order), 2 sorts it and keeps
    /// each id once (a fan-out walk's shape). The table starts empty when
    /// `prior` is, and otherwise holds entries measured at an earlier time,
    /// so a replaced entry shows in `measured_at`.
    #[test]
    fn observe_all_matches_an_observe_loop(
        prior in proptest::collection::vec((0u32..30, 0u64..2_000_000), 0..12),
        raw in proptest::collection::vec((0u32..30, 0u64..2_000_000), 0..40),
        shape in 0u8..3,
        empty in proptest::bool::ANY,
    ) {
        let mut list = entries(&raw);
        if shape > 0 {
            list.sort_by_key(|&(id, _)| id);
        }
        if shape == 2 {
            list.dedup_by_key(|&mut (id, _)| id);
        }
        let mut reference = OneHopTable::new();
        if !empty {
            observe_each(&mut reference, &entries(&prior), SimTime::ZERO);
        }
        let mut bulk = reference.clone();
        let now = SimTime::from_secs(3);
        observe_each(&mut reference, &list, now);
        bulk.observe_all(&list, now);
        prop_assert_eq!(bulk, reference);
    }

    /// Each step observes the first entry of its list alone (`single`)
    /// or the whole list (unsorted, ids may repeat) at a later time, so
    /// refreshes show in `measured_at`. After every step the table and
    /// the map agree on iteration order, every id's delay and age, the
    /// oldest age and the length.
    #[test]
    fn observe_sequences_match_a_btree_map(
        steps in proptest::collection::vec(
            (
                proptest::bool::ANY,
                proptest::collection::vec((0u32..30, 0u64..2_000_000), 0..12),
            ),
            0..24,
        ),
    ) {
        let mut table = OneHopTable::new();
        let mut model: BTreeMap<NodeId, NeighborEntry> = BTreeMap::new();
        for (k, step) in steps.iter().enumerate() {
            let now = SimTime::from_secs(k as u64);
            let (single, raw) = step;
            let mut list = entries(raw);
            if *single {
                list.truncate(1);
                for &(id, delay) in &list {
                    table.observe(id, delay, now);
                }
            } else {
                table.observe_all(&list, now);
            }
            for (id, delay) in list {
                model.insert(id, NeighborEntry { delay, measured_at: now });
            }
            let later = SimTime::from_secs(k as u64 + 7);
            let got: Vec<(NodeId, NeighborEntry)> = table.iter().map(|(id, e)| (id, *e)).collect();
            let want: Vec<(NodeId, NeighborEntry)> = model.iter().map(|(&id, &e)| (id, e)).collect();
            prop_assert_eq!(got, want, "step {}", k);
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.oldest_age(later), model.values().map(|e| e.age(later)).max());
            for id in (0..32).map(NodeId::new) {
                let entry = model.get(&id);
                prop_assert_eq!(table.delay_of(id), entry.map(|e| e.delay), "step {}, {:?}", k, id);
                prop_assert_eq!(table.age_of(id, later), entry.map(|e| e.age(later)));
            }
        }
    }
}
