//! Neighbour propagation-delay tables.
//!
//! §4.3: every packet carries its sending timestamp; a receiver computes the
//! propagation delay as `arrival − timestamp` and keeps a per-neighbour
//! entry, refreshed on every reception. EW-MAC maintains **one-hop** tables
//! only; ROPA and CS-MAC additionally maintain **two-hop** tables (their
//! published designs), which the paper charges against their overhead and
//! energy. The bit-size constants here drive that accounting.

use std::sync::Arc;

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
/// One vector of `(neighbour, entry)` pairs, ascending by id with each id
/// once, searched by binary search: iteration order can never perturb
/// reproducibility, and the oracle install copies its sorted list into a
/// single allocation.
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
    entries: Vec<(NodeId, NeighborEntry)>,
}

impl OneHopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OneHopTable::default()
    }

    /// Records (or refreshes) a delay measurement for `neighbor`; a new
    /// neighbour is inserted in id order.
    pub fn observe(&mut self, neighbor: NodeId, delay: SimDuration, now: SimTime) {
        let entry = NeighborEntry {
            delay,
            measured_at: now,
        };
        match self.find(neighbor) {
            Ok(at) => self.entries[at].1 = entry,
            Err(at) => self.entries.insert(at, (neighbor, entry)),
        }
    }

    /// Records every `(neighbor, delay)` of `entries` as measured at `now`:
    /// the same table as calling [`observe`](Self::observe) for each entry
    /// in order (a later entry for an id replaces an earlier one). An
    /// empty table, the oracle install's case, is built in one bulk pass
    /// instead of one insert per entry.
    pub fn observe_all(&mut self, entries: &[(NodeId, SimDuration)], now: SimTime) {
        if !self.entries.is_empty() {
            for &(id, delay) in entries {
                self.observe(id, delay, now);
            }
            return;
        }
        let entry = |&(id, delay): &(NodeId, SimDuration)| {
            let measured = NeighborEntry {
                delay,
                measured_at: now,
            };
            (id, measured)
        };
        self.entries = entries.iter().map(entry).collect();
        sort_keeping_last(&mut self.entries);
    }

    /// Where `neighbor` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, neighbor: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&neighbor, |&(id, _)| id)
    }

    /// The last measured delay to `neighbor`, if any.
    pub fn delay_of(&self, neighbor: NodeId) -> Option<SimDuration> {
        self.entry(neighbor).map(|e| e.delay)
    }

    /// The full entry for `neighbor`, if any.
    pub fn entry(&self, neighbor: NodeId) -> Option<&NeighborEntry> {
        self.find(neighbor).ok().map(|at| &self.entries[at].1)
    }

    /// All known neighbours, ascending by id.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|&(id, _)| id)
    }

    /// Iterates `(neighbor, entry)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry)> + '_ {
        self.entries.iter().map(|(id, e)| (*id, e))
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
        self.entry(neighbor).map(|e| e.age(now))
    }

    /// The oldest measurement age in the table at `now` — the staleness a
    /// node must budget for when it trusts any entry without knowing which
    /// one a future exchange will use.
    pub fn oldest_age(&self, now: SimTime) -> Option<SimDuration> {
        self.entries.iter().map(|(_, e)| e.age(now)).max()
    }
}

/// One node's one-hop delays as a shared slice, ascending by neighbour id
/// with each id once: what a control frame piggybacks
/// ([`Frame::announced`](crate::packet::Frame::announced)) and what a
/// [`TwoHopTable`] keeps per neighbour. Cloning it clones a pointer, so
/// every receiver of one announcement installs the same allocation.
pub type DelaySnapshot = Arc<[(NodeId, SimDuration)]>;

/// Builds a [`DelaySnapshot`] from `entries` in any order. A later entry
/// for an id replaces an earlier one, as repeated
/// [`OneHopTable::observe`] calls would. An already sorted, duplicate-free
/// list (a fan-out row, a table walk) is copied once without sorting.
pub fn snapshot_of(entries: &[(NodeId, SimDuration)]) -> DelaySnapshot {
    if is_sorted_unique(entries) {
        return Arc::from(entries);
    }
    let mut unique = entries.to_vec();
    sort_keeping_last(&mut unique);
    Arc::from(unique)
}

/// Whether `entries` ascend strictly by id.
fn is_sorted_unique<T>(entries: &[(NodeId, T)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Sorts `entries` by id, keeping each id's last entry, as repeated
/// inserts would. An already sorted, duplicate-free list is left as is.
fn sort_keeping_last<T>(entries: &mut Vec<(NodeId, T)>) {
    if is_sorted_unique(entries) {
        return;
    }
    // Reversed first, the stable sort puts each id's last entry ahead of
    // its earlier ones, and `dedup_by_key` keeps the first of each run.
    entries.reverse();
    entries.sort_by_key(|(id, _)| *id);
    entries.dedup_by_key(|(id, _)| *id);
}

/// Two-hop table: for each one-hop neighbour, a snapshot of *their* one-hop
/// delays (what ROPA and CS-MAC maintain and periodically re-broadcast).
///
/// A snapshot is the neighbour's announcement itself, shared with the frame
/// that carried it. Snapshots sit in one vector ascending by neighbour id,
/// as [`OneHopTable`]'s entries do; lookups binary-search the vector and
/// then the snapshot.
///
/// # Examples
///
/// ```
/// use uasn_net::neighbor::{snapshot_of, TwoHopTable};
/// use uasn_net::node::NodeId;
/// use uasn_sim::time::SimDuration;
///
/// let mut table = TwoHopTable::new();
/// let theirs = snapshot_of(&[(NodeId::new(7), SimDuration::from_millis(420))]);
/// table.install(NodeId::new(3), theirs);
/// assert_eq!(
///     table.delay_between(NodeId::new(3), NodeId::new(7)),
///     Some(SimDuration::from_millis(420))
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwoHopTable {
    snapshots: Vec<(NodeId, DelaySnapshot)>,
}

impl TwoHopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TwoHopTable::default()
    }

    /// Installs `neighbor`'s announced delays, replacing its previous
    /// snapshot wholesale. `snapshot` must be ascending by id with each id
    /// once (see [`snapshot_of`]).
    pub fn install(&mut self, neighbor: NodeId, snapshot: DelaySnapshot) {
        debug_assert!(
            snapshot.windows(2).all(|w| w[0].0 < w[1].0),
            "a two-hop snapshot must be sorted by id without duplicates"
        );
        match self.find(neighbor) {
            Ok(at) => self.snapshots[at].1 = snapshot,
            Err(at) => self.snapshots.insert(at, (neighbor, snapshot)),
        }
    }

    /// Where `neighbor` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, neighbor: NodeId) -> Result<usize, usize> {
        self.snapshots
            .binary_search_by_key(&neighbor, |&(id, _)| id)
    }

    /// The delay between `neighbor` and one of *its* neighbours `other`, if
    /// known.
    pub fn delay_between(&self, neighbor: NodeId, other: NodeId) -> Option<SimDuration> {
        let snapshot = self.snapshot(neighbor)?;
        let at = snapshot.binary_search_by_key(&other, |&(id, _)| id).ok()?;
        Some(snapshot[at].1)
    }

    /// The snapshot announced by `neighbor`, if any.
    pub fn snapshot(&self, neighbor: NodeId) -> Option<&DelaySnapshot> {
        self.find(neighbor).ok().map(|at| &self.snapshots[at].1)
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
        mine.install(NodeId::new(3), snapshot_of(&[(NodeId::new(7), d(420))]));
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
        let a = snapshot_of(&[(NodeId::new(7), d(420)), (NodeId::new(8), d(100))]);
        mine.install(NodeId::new(3), a);
        let entries = |t: &TwoHopTable| t.snapshot(NodeId::new(3)).map(|s| s.len());
        assert_eq!(entries(&mine), Some(2));
        let b = snapshot_of(&[(NodeId::new(9), d(50))]);
        mine.install(NodeId::new(3), Arc::clone(&b));
        assert_eq!(entries(&mine), Some(1));
        assert!(Arc::ptr_eq(mine.snapshot(NodeId::new(3)).unwrap(), &b));
        assert_eq!(mine.delay_between(NodeId::new(3), NodeId::new(7)), None);
        assert_eq!(
            mine.delay_between(NodeId::new(3), NodeId::new(9)),
            Some(d(50))
        );
    }
}
