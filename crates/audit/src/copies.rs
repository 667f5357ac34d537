//! The open copies of routed SDUs, indexed by SDU.
//!
//! A transport retry puts a fresh copy of an SDU in flight while earlier
//! copies may still be travelling, so routed path state lives per copy,
//! `(sdu, attempt)`. A terminal drop retires every copy of its SDU at once;
//! each SDU with an open copy records the highest attempt it opened, so
//! that costs the SDU's own attempt count instead of a scan over every
//! copy in flight. Both tables are flat hash maps: opening and closing
//! copies allocates nothing beyond the tables' own growth.

use uasn_sim::hash::FxHashMap;

/// Per-copy state `V` of the routed SDU copies in flight, keyed by
/// `(sdu, attempt)`. The maps are only probed, never iterated, so their
/// hash order cannot reach any output.
#[derive(Debug, Default)]
pub(crate) struct CopyIndex<V> {
    copies: FxHashMap<(u64, u64), V>,
    /// Per SDU with an open copy: the highest attempt opened and how many
    /// of its copies are open.
    sdus: FxHashMap<u64, (u64, usize)>,
}

impl<V: Default> CopyIndex<V> {
    /// Opens copy `(sdu, attempt)` with state `v`, re-seeding it if it is
    /// already open; returns the state it replaced.
    pub(crate) fn insert(&mut self, sdu: u64, attempt: u64, v: V) -> Option<V> {
        let replaced = self.copies.insert((sdu, attempt), v);
        if replaced.is_none() {
            let (top, open) = self.sdus.entry(sdu).or_insert((attempt, 0));
            *top = (*top).max(attempt);
            *open += 1;
        }
        replaced
    }

    /// The state of an open copy.
    pub(crate) fn get(&self, sdu: u64, attempt: u64) -> Option<&V> {
        self.copies.get(&(sdu, attempt))
    }

    /// The state of copy `(sdu, attempt)`, opened with `V::default()` if
    /// it is not open yet.
    pub(crate) fn get_or_default(&mut self, sdu: u64, attempt: u64) -> &mut V {
        if !self.copies.contains_key(&(sdu, attempt)) {
            self.insert(sdu, attempt, V::default());
        }
        self.copies.get_mut(&(sdu, attempt)).expect("just opened")
    }

    /// Closes one copy, returning its state if it was open.
    pub(crate) fn remove(&mut self, sdu: u64, attempt: u64) -> Option<V> {
        let v = self.copies.remove(&(sdu, attempt))?;
        let (_, open) = self
            .sdus
            .get_mut(&sdu)
            .expect("an open copy's SDU is listed");
        *open -= 1;
        if *open == 0 {
            self.sdus.remove(&sdu);
        }
        Some(v)
    }

    /// Closes every open copy of `sdu`, handing each to `closed` as
    /// `(attempt, state)` in ascending attempt order.
    pub(crate) fn retire(&mut self, sdu: u64, mut closed: impl FnMut(u64, V)) {
        let Some((top, _)) = self.sdus.remove(&sdu) else {
            return;
        };
        for attempt in 0..=top {
            if let Some(v) = self.copies.remove(&(sdu, attempt)) {
                closed(attempt, v);
            }
        }
    }

    /// Open copies across all SDUs.
    pub(crate) fn len(&self) -> usize {
        self.copies.len()
    }
}

/// The nodes each open routed copy has visited, stored as chains in one
/// slab: an entry holds a node and the entry before it on the same path,
/// and a path is named by its last entry (`None`: empty). A released
/// path's entries are reused, so the slab grows only with the peak number
/// of path nodes held at once.
#[derive(Debug, Default)]
pub(crate) struct PathSlab {
    entries: Vec<(usize, Option<usize>)>,
    free: Vec<usize>,
}

impl PathSlab {
    /// Appends `node` to the path ending at `tail`; returns the new tail.
    pub(crate) fn push(&mut self, tail: Option<usize>, node: usize) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.entries[i] = (node, tail);
                i
            }
            None => {
                self.entries.push((node, tail));
                self.entries.len() - 1
            }
        }
    }

    /// The path ending at `tail`, last node first.
    fn walk(&self, tail: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(tail, |&i| self.entries[i].1).map(|i| self.entries[i].0)
    }

    /// Whether the path ending at `tail` visits `node`.
    pub(crate) fn contains(&self, tail: Option<usize>, node: usize) -> bool {
        self.walk(tail).any(|n| n == node)
    }

    /// The path ending at `tail`, first node first.
    pub(crate) fn nodes(&self, tail: Option<usize>) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.walk(tail).collect();
        nodes.reverse();
        nodes
    }

    /// Frees the path ending at `tail` for reuse.
    pub(crate) fn release(&mut self, tail: Option<usize>) {
        let mut at = tail;
        while let Some(i) = at {
            at = self.entries[i].1;
            self.free.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_share_one_slab_and_reuse_released_entries() {
        let mut slab = PathSlab::default();
        let a = slab.push(None, 3);
        let a = slab.push(Some(a), 5);
        let b = slab.push(None, 8);
        assert_eq!(slab.nodes(Some(a)), [3, 5]);
        assert!(slab.contains(Some(a), 3) && !slab.contains(Some(a), 8));
        assert!(!slab.contains(None, 3));
        slab.release(Some(a));
        let c = slab.push(Some(b), 9);
        assert_eq!(slab.nodes(Some(c)), [8, 9]);
        assert_eq!(slab.entries.len(), 3, "a released entry was reused");
    }

    #[test]
    fn copies_open_close_and_retire_per_sdu() {
        let mut index: CopyIndex<u32> = CopyIndex::default();
        assert_eq!(index.insert(7, 0, 10), None);
        assert_eq!(index.insert(7, 2, 12), None);
        assert_eq!(index.insert(8, 0, 20), None);
        assert_eq!(index.insert(7, 0, 11), Some(10), "re-seeding replaces");
        assert_eq!(index.len(), 3);
        *index.get_or_default(8, 1) += 5;
        assert_eq!(index.get(8, 1), Some(&5));
        assert_eq!(index.remove(8, 0), Some(20));
        assert_eq!(index.remove(8, 0), None);

        let mut closed = Vec::new();
        index.retire(7, |attempt, v| closed.push((attempt, v)));
        assert_eq!(closed, [(0, 11), (2, 12)]);
        assert_eq!(index.get(7, 0), None);
        index.retire(7, |_, _| panic!("nothing left to retire"));
        assert_eq!(index.len(), 1, "sdu 8's second copy stays open");
    }
}
