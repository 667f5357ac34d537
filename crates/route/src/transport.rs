//! Minimal end-to-end transport: origin-side retransmission with sink
//! acks, exponential backoff, and a bounded retry budget.
//!
//! The transport is a pure state machine over microsecond timestamps. Its
//! policy, [`TransportTable`], holds no per-SDU state: the caller keeps
//! one `Option<PendingSdu>` slot per SDU and drives it with three calls:
//!
//! 1. [`TransportTable::register`] when the origin injects an SDU — fills
//!    the slot and returns the first timeout deadline.
//! 2. `slot.take()` when the sink's ack reaches the origin — retires the
//!    pending entry.
//! 3. [`TransportTable::on_timeout`] when an armed timeout fires —
//!    answers [`TimeoutVerdict::Retry`] (with the next deadline) while
//!    attempts remain, [`TimeoutVerdict::Exhausted`] (emptying the slot)
//!    when the retry budget is spent.
//!
//! Because acks may still be in flight when a timeout fires, a fired
//! timeout for an already-acked SDU is a no-op (`on_timeout` returns
//! `None`). Deadlines are fully deterministic: `timeout(attempt) =
//! base_timeout_us << min(attempt, BACKOFF_SHIFT_CAP)`, no randomness;
//! both the shift and `now + timeout` saturate at `u64::MAX` rather than
//! wrap.
//!
//! Because the delay depends on the attempt number alone, the deadlines
//! armed for one attempt number never decrease as the clock advances: the
//! simulator queues each attempt's timeouts in their own FIFO lane
//! ([`timeout_lane`]). Attempts at or past the shift cap share one lane.
//!
//! The simulator keeps the slots in its SDU table, indexed by the SDU id
//! (`uasn_net::sdu`), next to the SDU's other per-id state.

/// Attempt number past which the backoff stops doubling; also the last
/// timeout lane, shared by every attempt at or past the cap.
pub const BACKOFF_SHIFT_CAP: u32 = 16;

/// The event-queue FIFO lane for timeouts armed at zero-based `attempt`:
/// one lane per distinct backoff delay.
pub fn timeout_lane(attempt: u32) -> usize {
    attempt.min(BACKOFF_SHIFT_CAP) as usize
}

/// Transport parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Retransmissions after the initial send (0 = send once, never
    /// retry; the timeout then only detects the loss).
    pub retry_budget: u32,
    /// First-attempt timeout, microseconds. Must comfortably exceed one
    /// worst-case source→sink→source round trip through the MAC.
    pub base_timeout_us: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        // 60 s base: several slot cycles of MAC queueing plus the
        // multi-hop traversal of a 6 km column, doubling per retry.
        TransportConfig {
            retry_budget: 2,
            base_timeout_us: 60_000_000,
        }
    }
}

impl TransportConfig {
    /// Timeout for the given zero-based attempt number (exponential
    /// backoff, shift-capped so it cannot overflow).
    pub fn timeout_us(&self, attempt: u32) -> u64 {
        self.base_timeout_us
            .saturating_mul(1u64 << attempt.min(BACKOFF_SHIFT_CAP))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a `(field, reason)` pair naming the first offending field.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        if self.base_timeout_us == 0 {
            return Err((
                "route.transport.base_timeout_us",
                "base timeout must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// Origin-side state for one in-flight SDU: the contents of a filled
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingSdu {
    /// Origin node id (where retries re-enter the MAC).
    pub origin: u32,
    /// Payload size, bits (retries rebuild the SDU).
    pub bits: u32,
    /// Zero-based attempt number of the copy currently in flight.
    pub attempts: u32,
}

/// What a fired timeout means for a still-pending SDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutVerdict {
    /// Retransmit now; the next timeout fires at `deadline_us`.
    Retry {
        /// Absolute deadline of the next timeout, microseconds.
        deadline_us: u64,
    },
    /// The retry budget is exhausted: the SDU is an end-to-end loss.
    Exhausted,
}

/// The transport policy: first deadline, backoff and budget check, applied
/// to a caller-kept per-SDU slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportTable {
    cfg: TransportConfig,
}

impl TransportTable {
    /// The policy of `cfg`.
    pub fn new(cfg: TransportConfig) -> TransportTable {
        TransportTable { cfg }
    }

    /// Fills `slot` for a freshly injected SDU and returns the absolute
    /// deadline of its first timeout (saturating at `u64::MAX`).
    pub fn register(
        &self,
        slot: &mut Option<PendingSdu>,
        origin: u32,
        bits: u32,
        now_us: u64,
    ) -> u64 {
        *slot = Some(PendingSdu {
            origin,
            bits,
            attempts: 0,
        });
        now_us.saturating_add(self.cfg.timeout_us(0))
    }

    /// Handles a fired timeout at `now_us`. Returns `None` when the slot
    /// is empty (already acked or already exhausted); otherwise the
    /// verdict, with the attempt counter advanced on
    /// [`TimeoutVerdict::Retry`] and the slot emptied on
    /// [`TimeoutVerdict::Exhausted`].
    pub fn on_timeout(
        &self,
        slot: &mut Option<PendingSdu>,
        now_us: u64,
    ) -> Option<(PendingSdu, TimeoutVerdict)> {
        let entry = slot.as_mut()?;
        if entry.attempts >= self.cfg.retry_budget {
            return slot.take().map(|e| (e, TimeoutVerdict::Exhausted));
        }
        entry.attempts += 1;
        let deadline = now_us.saturating_add(self.cfg.timeout_us(entry.attempts));
        Some((
            *entry,
            TimeoutVerdict::Retry {
                deadline_us: deadline,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(budget: u32) -> TransportTable {
        TransportTable::new(TransportConfig {
            retry_budget: budget,
            base_timeout_us: 1_000,
        })
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let cfg = TransportConfig {
            retry_budget: 3,
            base_timeout_us: 1_000,
        };
        assert_eq!(cfg.timeout_us(0), 1_000);
        assert_eq!(cfg.timeout_us(1), 2_000);
        assert_eq!(cfg.timeout_us(2), 4_000);
        // Shift cap: enormous attempt numbers cannot overflow, and share
        // the cap's lane.
        assert_eq!(cfg.timeout_us(200), 1_000 << BACKOFF_SHIFT_CAP);
        assert_eq!(timeout_lane(2), 2);
        assert_eq!(timeout_lane(200), timeout_lane(BACKOFF_SHIFT_CAP));
        assert_eq!(
            cfg.timeout_us(BACKOFF_SHIFT_CAP + 1),
            cfg.timeout_us(BACKOFF_SHIFT_CAP)
        );
        let huge = TransportConfig {
            retry_budget: 0,
            base_timeout_us: u64::MAX / 2,
        };
        assert_eq!(huge.timeout_us(63), u64::MAX);
    }

    #[test]
    fn ack_retires_and_duplicates_are_noops() {
        let t = table(2);
        let mut slot = None;
        let deadline = t.register(&mut slot, 4, 2_048, 100);
        assert_eq!(deadline, 1_100);
        assert_eq!(slot.map(|e| e.attempts), Some(0));
        let entry = slot.take().expect("pending");
        assert_eq!(entry.origin, 4);
        assert_eq!(entry.bits, 2_048);
        assert!(slot.is_none(), "the ack retired the entry");
        assert!(slot.take().is_none(), "duplicate ack");
        assert!(t.on_timeout(&mut slot, 5_000).is_none(), "stale timeout");
    }

    #[test]
    fn timeouts_walk_the_budget_then_exhaust() {
        let t = table(2);
        let mut slot = None;
        t.register(&mut slot, 1, 512, 0);
        let (e, v) = t.on_timeout(&mut slot, 1_000).expect("pending");
        assert_eq!(e.attempts, 1);
        assert_eq!(v, TimeoutVerdict::Retry { deadline_us: 3_000 });
        let (e, v) = t.on_timeout(&mut slot, 3_000).expect("pending");
        assert_eq!(e.attempts, 2);
        assert_eq!(v, TimeoutVerdict::Retry { deadline_us: 7_000 });
        let (e, v) = t.on_timeout(&mut slot, 7_000).expect("pending");
        assert_eq!(v, TimeoutVerdict::Exhausted);
        assert_eq!(e.attempts, 2);
        assert!(slot.is_none(), "exhaustion retired the entry");
        assert!(
            t.on_timeout(&mut slot, 9_000).is_none(),
            "already exhausted"
        );
    }

    #[test]
    fn deadlines_saturate_instead_of_overflowing() {
        // A validated config whose first timeout overflows any clock.
        let cfg = TransportConfig {
            retry_budget: 1,
            base_timeout_us: u64::MAX,
        };
        assert!(cfg.validate().is_ok());
        let t = TransportTable::new(cfg);
        let mut slot = None;
        assert_eq!(t.register(&mut slot, 0, 64, 5), u64::MAX);
        let (_, v) = t.on_timeout(&mut slot, 10).expect("pending");
        assert_eq!(
            v,
            TimeoutVerdict::Retry {
                deadline_us: u64::MAX
            }
        );
    }

    #[test]
    fn zero_budget_exhausts_on_first_timeout() {
        let t = table(0);
        let mut slot = None;
        t.register(&mut slot, 0, 64, 0);
        let (_, v) = t.on_timeout(&mut slot, 1_000).expect("pending");
        assert_eq!(v, TimeoutVerdict::Exhausted);
    }

    #[test]
    fn validation_rejects_zero_timeout() {
        let bad = TransportConfig {
            retry_budget: 1,
            base_timeout_us: 0,
        };
        assert_eq!(
            bad.validate().unwrap_err().0,
            "route.transport.base_timeout_us"
        );
        assert!(TransportConfig::default().validate().is_ok());
    }
}
