//! Property test for the one-hop table's bulk install: `observe_all`
//! leaves exactly the table a loop of `observe` calls would, for sorted,
//! unsorted and repeated-id lists, on empty and non-empty tables.

use proptest::prelude::*;

use uasn_net::neighbor::OneHopTable;
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
}
