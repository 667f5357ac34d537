//! The SDU table: every per-SDU fact the world keeps, one entry per id.
//!
//! SDU ids are minted sequentially from 0, so the table is a ring indexed
//! by `id − base`, with no hashing. An entry holds the generation time
//! (until the first sink arrival), batch membership, the transport's
//! pending slot and one hop counter per transport attempt, shared by every
//! frame of that copy. Each FIFO timeout lane fires in registration
//! order, so the timeout path walks the table roughly in id order. An id
//! the world never filled (an SDU unroutable at its origin) is a hole:
//! lookups on it, as on ids not reached yet or retired, find nothing.
//!
//! Entries retire from the ring's prefix once nothing can read them:
//! no generation time left, no batch waiting, and no routed copy ever
//! registered. A copy still queued in some MAC can be relayed after every
//! counter of its SDU died (exhaustion resets them; split frames of one
//! copy share one), so a routed entry stays to the end of the run.

use std::collections::VecDeque;

use uasn_route::{PendingSdu, TimeoutVerdict, TransportTable};
use uasn_sim::time::SimTime;

/// Hop counters held inline; later attempts spill into a vector.
const INLINE_ATTEMPTS: usize = 3;
/// `Entry::generated_us` with no generation time.
const NOT_GENERATED: u64 = u64::MAX;
/// Flag: the SDU awaits its first MAC delivery to complete a batch.
const BATCH: u8 = 1;
/// Flag: a routed copy of the SDU was registered.
const COPIED: u8 = 2;
/// Flag: the SDU already met a terminal end-to-end loss.
const LOST: u8 = 4;
/// Flag: the SDU already reached a sink end to end.
const ARRIVED: u8 = 8;

/// One SDU's state, 56 bytes.
#[derive(Debug, Clone)]
struct Entry {
    generated_us: u64,
    transport: Option<PendingSdu>,
    /// Per attempt: 0 with no live counter, `n + 1` after `n` hops.
    hops: [u32; INLINE_ATTEMPTS],
    spill: Option<Box<[u32]>>,
    flags: u8,
}

const HOLE: Entry = Entry {
    generated_us: NOT_GENERATED,
    transport: None,
    hops: [0; INLINE_ATTEMPTS],
    spill: None,
    flags: 0,
};

impl Entry {
    /// The counter of `attempt`; `grow` makes room for a spilled one.
    fn hop(&mut self, attempt: u32, grow: bool) -> Option<&mut u32> {
        let Some(at) = (attempt as usize).checked_sub(INLINE_ATTEMPTS) else {
            return Some(&mut self.hops[attempt as usize]);
        };
        if grow && self.spill.as_ref().map_or(0, |s| s.len()) <= at {
            let mut grown = self.spill.take().map_or_else(Vec::new, Vec::from);
            grown.resize(at + 1, 0);
            self.spill = Some(grown.into_boxed_slice());
        }
        self.spill.as_mut()?.get_mut(at)
    }
}

/// Per-SDU state of one run, indexed by SDU id; see the module docs.
#[derive(Debug, Default)]
pub struct SduTable {
    /// Id of `entries[0]`; every id below it is retired.
    base: u64,
    entries: VecDeque<Entry>,
    batch_remaining: usize,
    second_fates: u64,
}

impl SduTable {
    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Entry> {
        let at = self.index(id)?;
        self.entries.get_mut(at)
    }

    /// The entry of `id`, materializing it and any holes before it.
    /// `None` for a retired id.
    fn slot(&mut self, id: u64) -> Option<&mut Entry> {
        debug_assert!(id >= self.base, "SDU {id} written after retirement");
        let at = self.index(id)?;
        if at >= self.entries.len() {
            self.entries.resize(at + 1, HOLE);
        }
        self.entries.get_mut(at)
    }

    fn retire_prefix(&mut self) {
        while self
            .entries
            .front()
            .is_some_and(|e| e.generated_us == NOT_GENERATED && e.flags & (BATCH | COPIED) == 0)
        {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    /// Records `id`'s generation at `now`; an earlier time stands.
    pub fn generate(&mut self, id: u64, now: SimTime) {
        if let Some(e) = self.slot(id).filter(|e| e.generated_us == NOT_GENERATED) {
            e.generated_us = now.as_micros();
        }
        self.retire_prefix();
    }

    /// Takes `id`'s generation time at a sink arrival: `Some` only on the
    /// first arrival of a generated SDU, a second fate when the SDU was
    /// already lost end to end.
    pub fn take_generated(&mut self, id: u64) -> Option<SimTime> {
        let e = self
            .get_mut(id)
            .filter(|e| e.generated_us != NOT_GENERATED)?;
        let generated = std::mem::replace(&mut e.generated_us, NOT_GENERATED);
        self.second_fates += u64::from(Self::meet(e, ARRIVED));
        self.retire_prefix();
        Some(SimTime::from_micros(generated))
    }

    /// Makes `id` an outstanding batch member.
    pub fn join_batch(&mut self, id: u64) {
        if let Some(e) = self.slot(id).filter(|e| e.flags & BATCH == 0) {
            e.flags |= BATCH;
            self.batch_remaining += 1;
        }
    }

    /// Clears `id`'s batch membership; returns whether it was outstanding.
    pub fn leave_batch(&mut self, id: u64) -> bool {
        let Some(e) = self.get_mut(id).filter(|e| e.flags & BATCH != 0) else {
            return false;
        };
        e.flags &= !BATCH;
        self.batch_remaining -= 1;
        self.retire_prefix();
        true
    }

    /// Batch members not yet MAC-delivered.
    pub fn batch_remaining(&self) -> usize {
        self.batch_remaining
    }

    /// Starts the hop counter of copy `(id, attempt)` at 0.
    pub fn register_copy(&mut self, id: u64, attempt: u32) {
        if let Some(e) = self.slot(id) {
            e.flags |= COPIED;
            *e.hop(attempt, true).expect("grown") = 1;
        }
    }

    /// Charges one hop to copy `(id, attempt)`, starting at 0 when no
    /// counter is live, and returns its hops so far.
    pub fn advance_hop(&mut self, id: u64, attempt: u32) -> u32 {
        let Some(e) = self.slot(id) else { return 1 };
        e.flags |= COPIED;
        let counter = e.hop(attempt, true).expect("grown");
        *counter = (*counter).max(1) + 1;
        *counter - 1
    }

    /// Ends copy `(id, attempt)`'s counter; its hops when one was live.
    pub fn end_copy(&mut self, id: u64, attempt: u32) -> Option<u32> {
        let counter = self.get_mut(id)?.hop(attempt, false)?;
        std::mem::take(counter).checked_sub(1)
    }

    /// Fills `id`'s transport slot; returns the first deadline, µs.
    pub fn register_transport(
        &mut self,
        policy: &TransportTable,
        id: u64,
        origin: u32,
        bits: u32,
        now_us: u64,
    ) -> u64 {
        let mut filled = None;
        let deadline = policy.register(&mut filled, origin, bits, now_us);
        if let Some(e) = self.slot(id) {
            (e.transport, e.flags) = (filled, e.flags | COPIED);
        }
        deadline
    }

    /// Whether the transport holds a pending entry for `id`.
    pub fn pending(&self, id: u64) -> bool {
        let entry = self.index(id).and_then(|at| self.entries.get(at));
        entry.is_some_and(|e| e.transport.is_some())
    }

    /// Retires `id`'s pending entry on a sink ack.
    pub fn ack(&mut self, id: u64) -> Option<PendingSdu> {
        self.get_mut(id)?.transport.take()
    }

    /// A fired transport timeout for `id`; `None` when nothing is
    /// pending. Exhaustion also resets every attempt's hop counter and
    /// makes the SDU lost end to end.
    pub fn on_timeout(
        &mut self,
        policy: &TransportTable,
        id: u64,
        now_us: u64,
    ) -> Option<(PendingSdu, TimeoutVerdict)> {
        let e = self.get_mut(id)?;
        let outcome = policy.on_timeout(&mut e.transport, now_us)?;
        if outcome.1 == TimeoutVerdict::Exhausted {
            (e.hops, e.spill) = ([0; INLINE_ATTEMPTS], None);
            self.second_fates += u64::from(Self::meet(e, LOST));
        }
        Some(outcome)
    }

    /// A routed copy was lost: terminal (`true`, and the SDU is lost end
    /// to end) unless the transport still holds a pending entry.
    pub fn settle_copy_loss(&mut self, id: u64) -> bool {
        let Some(e) = self.get_mut(id) else {
            return true;
        };
        let terminal = e.transport.is_none();
        if terminal {
            self.second_fates += u64::from(Self::meet(e, LOST));
        }
        terminal
    }

    /// Marks `e` with the end-to-end `fate` (`LOST` or `ARRIVED`);
    /// whether that is its second fate: the first of its kind after the
    /// other one.
    fn meet(e: &mut Entry, fate: u8) -> bool {
        let second = e.flags & (LOST | ARRIVED) == (LOST | ARRIVED) ^ fate;
        e.flags |= fate;
        second
    }

    /// SDUs that met both end-to-end fates, in either order: delivered to
    /// a sink after their terminal loss, or lost after their first sink
    /// arrival. Each such SDU counts once.
    #[doc(hidden)]
    pub fn second_fates(&self) -> u64 {
        self.second_fates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_stays_compact() {
        assert_eq!(std::mem::size_of::<Entry>(), 56);
    }

    #[test]
    fn unrouted_entries_retire_once_nothing_reads_them() {
        let mut t = SduTable::default();
        t.generate(3, SimTime::from_secs(1));
        assert_eq!(t.entries.len(), 1, "leading holes retire at once");
        t.generate(5, SimTime::from_secs(2));
        t.join_batch(5);
        assert_eq!(
            t.entries.len(),
            3,
            "3 holds the prefix: 3, the hole 4, and 5"
        );
        assert_eq!(t.take_generated(3), Some(SimTime::from_secs(1)));
        assert_eq!(t.entries.len(), 1, "3 and the hole 4 retired; 5 waits");
        assert_eq!(t.take_generated(5), Some(SimTime::from_secs(2)));
        assert_eq!(t.entries.len(), 1, "the batch still waits for 5");
        assert!(t.leave_batch(5));
        assert!(t.entries.is_empty());
        assert_eq!(t.take_generated(5), None);
        assert!(!t.leave_batch(5));
    }

    #[test]
    fn routed_entries_stay_and_late_copies_restart() {
        let policy = TransportTable::new(uasn_route::TransportConfig {
            retry_budget: 4,
            base_timeout_us: 10,
        });
        let mut t = SduTable::default();
        t.generate(0, SimTime::ZERO);
        t.register_copy(0, 0);
        t.register_transport(&policy, 0, 2, 64, 0);
        assert_eq!(t.advance_hop(0, 0), 1);
        for now in 1..=4 {
            let (entry, _) = t.on_timeout(&policy, 0, now).expect("pending");
            t.register_copy(0, entry.attempts);
        }
        assert_eq!(t.advance_hop(0, 4), 1, "a spilled attempt counts too");
        assert_eq!(t.advance_hop(0, 4), 2);
        let (_, verdict) = t.on_timeout(&policy, 0, 9).expect("pending");
        assert_eq!(verdict, TimeoutVerdict::Exhausted);
        assert!(!t.pending(0));
        assert_eq!(t.end_copy(0, 0), None, "exhaustion reset every counter");
        assert_eq!(t.advance_hop(0, 4), 1, "a late copy restarts at 0");
        assert_eq!(t.take_generated(0), Some(SimTime::ZERO));
        assert_eq!(t.second_fates(), 1, "delivered after its terminal loss");
        assert!(t.settle_copy_loss(0), "a later copy loss is terminal");
        assert_eq!(t.second_fates(), 1, "an SDU counts once");
        assert_eq!(t.end_copy(0, 4), Some(1));
        assert_eq!(t.entries.len(), 1, "a routed entry is never retired");
    }

    #[test]
    fn a_loss_after_the_first_arrival_is_a_second_fate() {
        let policy = TransportTable::new(uasn_route::TransportConfig {
            retry_budget: 0,
            base_timeout_us: 10,
        });
        let mut t = SduTable::default();
        for id in 0..3 {
            t.generate(id, SimTime::ZERO);
            t.register_copy(id, 0);
        }
        t.register_transport(&policy, 2, 0, 64, 0);
        for id in 0..3 {
            assert_eq!(t.take_generated(id), Some(SimTime::ZERO));
        }
        assert_eq!(t.second_fates(), 0);
        assert!(t.settle_copy_loss(0), "no transport: the loss is terminal");
        assert_eq!(t.second_fates(), 1, "a copy lost after SDU 0 arrived");
        assert!(t.settle_copy_loss(0));
        assert_eq!(t.second_fates(), 1, "SDU 0 counts once");
        let (_, verdict) = t.on_timeout(&policy, 2, 10).expect("pending");
        assert_eq!(verdict, TimeoutVerdict::Exhausted);
        assert_eq!(t.second_fates(), 2, "SDU 2 exhausted after it arrived");
        assert_eq!(t.take_generated(1), None);
        assert_eq!(t.second_fates(), 2, "SDU 1 met one fate");
    }
}
