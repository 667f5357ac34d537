//! Property tests for the two-hop table: lookups over shared, id-sorted
//! delay snapshots answer exactly what a table of per-neighbour
//! `OneHopTable`s would, for announcement lists in any order and with
//! repeated ids, and a re-install replaces a neighbour's snapshot
//! wholesale.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uasn_net::neighbor::{snapshot_of, OneHopTable, TwoHopTable};
use uasn_net::node::NodeId;
use uasn_sim::time::{SimDuration, SimTime};

/// Ids drawn below this bound; lookups probe one past it for misses.
const IDS: u32 = 24;

fn entries(raw: &[(u32, u64)]) -> Vec<(NodeId, SimDuration)> {
    raw.iter()
        .map(|&(id, us)| (NodeId::new(id), SimDuration::from_micros(us)))
        .collect()
}

/// The table-per-neighbour reference: each install observes the list into
/// a fresh `OneHopTable`, so a later entry for an id wins.
fn one_hop_of(list: &[(NodeId, SimDuration)]) -> OneHopTable {
    let mut table = OneHopTable::new();
    for &(id, delay) in list {
        table.observe(id, delay, SimTime::ZERO);
    }
    table
}

proptest! {
    /// A sequence of installs (neighbours repeat, lists repeat ids and come
    /// unsorted) answers every `(neighbour, other)` lookup like the
    /// reference.
    #[test]
    fn slice_lookups_match_one_hop_tables(
        installs in proptest::collection::vec(
            (0u32..6, proptest::collection::vec((0u32..IDS, 0u64..2_000_000), 0..40)),
            1..12,
        ),
    ) {
        let mut table = TwoHopTable::new();
        let mut reference: BTreeMap<NodeId, OneHopTable> = BTreeMap::new();
        for (neighbor, raw) in &installs {
            let list = entries(raw);
            let neighbor = NodeId::new(*neighbor);
            table.install(neighbor, snapshot_of(&list));
            reference.insert(neighbor, one_hop_of(&list));
        }
        prop_assert_eq!(table.len(), reference.len());
        for neighbor in (0..7).map(NodeId::new) {
            for other in (0..=IDS).map(NodeId::new) {
                let expected = reference.get(&neighbor).and_then(|t| t.delay_of(other));
                prop_assert_eq!(table.delay_between(neighbor, other), expected);
            }
            let snapshot = table.snapshot(neighbor);
            let ids: Option<Vec<NodeId>> =
                snapshot.map(|s| s.iter().map(|&(id, _)| id).collect());
            let expected: Option<Vec<NodeId>> =
                reference.get(&neighbor).map(|t| t.neighbors().collect());
            prop_assert_eq!(ids, expected);
        }
    }

    /// Installing `second` over `first` forgets every id `second` lacks and
    /// leaves other neighbours' snapshots alone.
    #[test]
    fn reinstall_replaces_the_snapshot_wholesale(
        first in proptest::collection::vec((0u32..IDS, 0u64..2_000_000), 1..30),
        second in proptest::collection::vec((0u32..IDS, 0u64..2_000_000), 0..30),
        bystander in proptest::collection::vec((0u32..IDS, 0u64..2_000_000), 1..30),
    ) {
        let (first, second, bystander) = (entries(&first), entries(&second), entries(&bystander));
        let (me, other) = (NodeId::new(3), NodeId::new(4));
        let mut table = TwoHopTable::new();
        table.install(me, snapshot_of(&first));
        table.install(other, snapshot_of(&bystander));
        table.install(me, snapshot_of(&second));
        let fresh = one_hop_of(&second);
        let kept = one_hop_of(&bystander);
        for id in (0..IDS).map(NodeId::new) {
            prop_assert_eq!(table.delay_between(me, id), fresh.delay_of(id));
            prop_assert_eq!(table.delay_between(other, id), kept.delay_of(id));
        }
        prop_assert_eq!(table.snapshot(me).map(|s| s.len()), Some(fresh.len()));
    }
}
