//! The open copies of routed SDUs, indexed by SDU.
//!
//! A transport retry puts a fresh copy of an SDU in flight while earlier
//! copies may still be travelling, so routed path state lives per copy,
//! `(sdu, attempt)`. A terminal drop retires every copy of its SDU at once;
//! grouping the copies under their SDU makes that cost the SDU's own copy
//! count instead of a scan over every copy in flight.

use std::collections::HashMap;

/// Per-copy state `V` of the routed SDU copies in flight, grouped by SDU
/// id. Each SDU holds a short list of `(attempt, V)` — one entry per open
/// transport attempt — and SDUs with no open copy hold no entry.
#[derive(Debug, Default)]
pub(crate) struct CopyIndex<V> {
    by_sdu: HashMap<u64, Vec<(u64, V)>>,
    live: usize,
}

impl<V: Default> CopyIndex<V> {
    /// Opens copy `(sdu, attempt)` with state `v`, re-seeding it if it is
    /// already open.
    pub(crate) fn insert(&mut self, sdu: u64, attempt: u64, v: V) {
        *self.get_or_default(sdu, attempt) = v;
    }

    /// The state of an open copy.
    pub(crate) fn get(&self, sdu: u64, attempt: u64) -> Option<&V> {
        let copies = self.by_sdu.get(&sdu)?;
        copies.iter().find(|(a, _)| *a == attempt).map(|(_, v)| v)
    }

    /// The state of copy `(sdu, attempt)`, opened with `V::default()` if
    /// it is not open yet.
    pub(crate) fn get_or_default(&mut self, sdu: u64, attempt: u64) -> &mut V {
        let copies = self.by_sdu.entry(sdu).or_default();
        let i = match copies.iter().position(|(a, _)| *a == attempt) {
            Some(i) => i,
            None => {
                copies.push((attempt, V::default()));
                self.live += 1;
                copies.len() - 1
            }
        };
        &mut copies[i].1
    }

    /// Closes one copy, returning its state if it was open.
    pub(crate) fn remove(&mut self, sdu: u64, attempt: u64) -> Option<V> {
        let copies = self.by_sdu.get_mut(&sdu)?;
        let i = copies.iter().position(|(a, _)| *a == attempt)?;
        let (_, v) = copies.swap_remove(i);
        if copies.is_empty() {
            self.by_sdu.remove(&sdu);
        }
        self.live -= 1;
        Some(v)
    }

    /// Closes every open copy of `sdu`, returning them as
    /// `(attempt, state)` in no particular order.
    pub(crate) fn retire(&mut self, sdu: u64) -> Vec<(u64, V)> {
        let copies = self.by_sdu.remove(&sdu).unwrap_or_default();
        self.live -= copies.len();
        copies
    }

    /// Open copies across all SDUs.
    pub(crate) fn len(&self) -> usize {
        self.live
    }
}
