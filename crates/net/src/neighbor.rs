//! Neighbour propagation-delay tables.
//!
//! §4.3: every packet carries its sending timestamp; a receiver computes the
//! propagation delay as `arrival − timestamp` and keeps a per-neighbour
//! entry, refreshed on every reception. EW-MAC maintains **one-hop** tables
//! only; ROPA and CS-MAC additionally maintain **two-hop** tables (their
//! published designs), which the paper charges against their overhead and
//! energy. The bit-size constants here drive that accounting.

use std::collections::BTreeMap;

use uasn_sim::time::{SimDuration, SimTime};

use crate::node::NodeId;

/// Bits of one neighbour entry (id + delay); EW-MAC prices the entry it
/// piggybacks on every packet at this size.
pub const ENTRY_BITS: u64 = 32;

/// Bits charged per entry when a table is *announced* over the channel.
/// Announcements are delta-compressed relative to the previous broadcast,
/// so the on-air cost per entry is below the storage cost.
pub const ANNOUNCE_BITS_PER_ENTRY: u64 = 8;

/// One neighbour's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// Last measured propagation delay to/from the neighbour.
    pub delay: SimDuration,
    /// When the measurement was taken.
    pub measured_at: SimTime,
}

impl NeighborEntry {
    /// Age of the measurement at `now` (zero if `now` reads earlier than
    /// the measurement — possible when timestamps come from a stepped-back
    /// local clock).
    pub fn age(&self, now: SimTime) -> SimDuration {
        SimDuration::from_micros(now.as_micros().saturating_sub(self.measured_at.as_micros()))
    }
}

/// One-hop propagation-delay table (what EW-MAC maintains).
///
/// Deterministically ordered (`BTreeMap`) so iteration order can never
/// perturb reproducibility.
///
/// # Examples
///
/// ```
/// use uasn_net::neighbor::OneHopTable;
/// use uasn_net::node::NodeId;
/// use uasn_sim::time::{SimDuration, SimTime};
///
/// let mut table = OneHopTable::new();
/// table.observe(NodeId::new(3), SimDuration::from_millis(400), SimTime::ZERO);
/// assert_eq!(
///     table.delay_of(NodeId::new(3)),
///     Some(SimDuration::from_millis(400))
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OneHopTable {
    entries: BTreeMap<NodeId, NeighborEntry>,
}

impl OneHopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OneHopTable::default()
    }

    /// Records (or refreshes) a delay measurement for `neighbor`.
    pub fn observe(&mut self, neighbor: NodeId, delay: SimDuration, now: SimTime) {
        self.entries.insert(
            neighbor,
            NeighborEntry {
                delay,
                measured_at: now,
            },
        );
    }

    /// The last measured delay to `neighbor`, if any.
    pub fn delay_of(&self, neighbor: NodeId) -> Option<SimDuration> {
        self.entries.get(&neighbor).map(|e| e.delay)
    }

    /// The full entry for `neighbor`, if any.
    pub fn entry(&self, neighbor: NodeId) -> Option<&NeighborEntry> {
        self.entries.get(&neighbor)
    }

    /// All known neighbours, ascending by id.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }

    /// Iterates `(neighbor, entry)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry)> + '_ {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Age of the stored measurement for `neighbor` at `now`, if any.
    /// Under mobility this is what bounds how far the stored delay can
    /// have drifted from the true one (see `uasn-clock`'s
    /// `DelayEstimator::staleness_bound`).
    pub fn age_of(&self, neighbor: NodeId, now: SimTime) -> Option<SimDuration> {
        self.entries.get(&neighbor).map(|e| e.age(now))
    }

    /// The oldest measurement age in the table at `now` — the staleness a
    /// node must budget for when it trusts any entry without knowing which
    /// one a future exchange will use.
    pub fn oldest_age(&self, now: SimTime) -> Option<SimDuration> {
        self.entries.values().map(|e| e.age(now)).max()
    }
}

/// Two-hop table: for each one-hop neighbour, a snapshot of *their* one-hop
/// delays (what ROPA and CS-MAC maintain and periodically re-broadcast).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwoHopTable {
    snapshots: BTreeMap<NodeId, OneHopTable>,
}

impl TwoHopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TwoHopTable::default()
    }

    /// Installs `neighbor`'s announced one-hop table.
    pub fn install(&mut self, neighbor: NodeId, table: OneHopTable) {
        self.snapshots.insert(neighbor, table);
    }

    /// The delay between `neighbor` and one of *its* neighbours `other`, if
    /// known.
    pub fn delay_between(&self, neighbor: NodeId, other: NodeId) -> Option<SimDuration> {
        self.snapshots.get(&neighbor)?.delay_of(other)
    }

    /// The snapshot announced by `neighbor`, if any.
    pub fn snapshot(&self, neighbor: NodeId) -> Option<&OneHopTable> {
        self.snapshots.get(&neighbor)
    }

    /// Number of neighbours with installed snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no snapshots are installed.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn observe_and_query() {
        let mut table = OneHopTable::new();
        assert!(table.is_empty());
        table.observe(NodeId::new(1), d(300), t(0));
        table.observe(NodeId::new(2), d(900), t(0));
        assert_eq!(table.len(), 2);
        assert_eq!(table.delay_of(NodeId::new(1)), Some(d(300)));
        assert_eq!(table.delay_of(NodeId::new(9)), None);
    }

    #[test]
    fn observation_refreshes() {
        let mut table = OneHopTable::new();
        table.observe(NodeId::new(1), d(300), t(0));
        table.observe(NodeId::new(1), d(350), t(10));
        assert_eq!(table.len(), 1);
        assert_eq!(table.delay_of(NodeId::new(1)), Some(d(350)));
        assert_eq!(table.entry(NodeId::new(1)).unwrap().measured_at, t(10));
    }

    #[test]
    fn neighbors_iterate_in_id_order() {
        let mut table = OneHopTable::new();
        for id in [5u32, 1, 3] {
            table.observe(NodeId::new(id), d(100), t(0));
        }
        let ids: Vec<u32> = table.neighbors().map(|n| n.index() as u32).collect();
        assert_eq!(ids, [1, 3, 5]);
    }

    #[test]
    fn ages_track_measurement_time() {
        let mut table = OneHopTable::new();
        table.observe(NodeId::new(1), d(300), t(10));
        table.observe(NodeId::new(2), d(400), t(40));
        assert_eq!(
            table.age_of(NodeId::new(1), t(100)),
            Some(SimDuration::from_secs(90))
        );
        assert_eq!(table.age_of(NodeId::new(9), t(100)), None);
        assert_eq!(table.oldest_age(t(100)), Some(SimDuration::from_secs(90)));
        // A stepped-back clock can present `now` before `measured_at`;
        // ages saturate at zero instead of underflowing.
        assert_eq!(table.age_of(NodeId::new(2), t(0)), Some(SimDuration::ZERO));
        assert_eq!(OneHopTable::new().oldest_age(t(5)), None);
    }

    #[test]
    fn two_hop_lookup() {
        let mut mine = TwoHopTable::new();
        let mut theirs = OneHopTable::new();
        theirs.observe(NodeId::new(7), d(420), t(0));
        mine.install(NodeId::new(3), theirs);
        assert_eq!(
            mine.delay_between(NodeId::new(3), NodeId::new(7)),
            Some(d(420))
        );
        assert_eq!(mine.delay_between(NodeId::new(3), NodeId::new(8)), None);
        assert_eq!(mine.delay_between(NodeId::new(4), NodeId::new(7)), None);
        assert_eq!(mine.len(), 1);
    }

    #[test]
    fn two_hop_reinstall_replaces() {
        let mut mine = TwoHopTable::new();
        let mut a = OneHopTable::new();
        a.observe(NodeId::new(7), d(420), t(0));
        a.observe(NodeId::new(8), d(100), t(0));
        mine.install(NodeId::new(3), a);
        let entries = |t: &TwoHopTable| t.snapshot(NodeId::new(3)).map(OneHopTable::len);
        assert_eq!(entries(&mine), Some(2));
        let mut b = OneHopTable::new();
        b.observe(NodeId::new(9), d(50), t(5));
        mine.install(NodeId::new(3), b);
        assert_eq!(entries(&mine), Some(1));
        assert_eq!(mine.delay_between(NodeId::new(3), NodeId::new(7)), None);
    }
}
