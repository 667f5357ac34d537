//! Half-duplex acoustic modem model.
//!
//! Tracks the radio state of one node (idle-listening, transmitting, or
//! receiving), enforces the paper's antenna constraint — *"a sensor cannot
//! transmit and receive simultaneously"* — and converts packet sizes to
//! transmit durations at the configured bitrate. The reception ledger
//! detects overlapping arrivals (Eq 1 collisions) including partial
//! overlaps, and remembers whether a reception was corrupted by the node's
//! own transmission.

use std::num::NonZeroU32;

use uasn_sim::time::{SimDuration, SimTime};

/// Radio state of a modem at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModemState {
    /// Listening (the paper: "the antenna remains in the receive state when
    /// it is not transmitting").
    #[default]
    Idle,
    /// Actively transmitting.
    Transmitting,
    /// At least one arrival currently in progress.
    Receiving,
}

/// Identifier for one in-flight reception at a modem. Never zero, so an
/// `Option<ReceptionId>` is no larger than the id, and 32 bits wide, so a
/// caller's pending-reception entry packs it beside other `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReceptionId(NonZeroU32);

#[derive(Debug, Clone)]
struct Reception {
    id: ReceptionId,
    /// Frames sharing a group are copies of the same transmission
    /// (direct path + multipath echoes): they never corrupt each other.
    group: u64,
    end: SimTime,
    corrupted: bool,
}

/// Link-speed configuration shared by every modem in a network.
///
/// # Examples
///
/// ```
/// use uasn_phy::modem::ModemSpec;
/// use uasn_sim::time::SimDuration;
///
/// // Table 2: 12 kbps, 64-bit control packets.
/// let spec = ModemSpec::new(12_000.0);
/// let omega = spec.tx_duration(64);
/// assert_eq!(omega, SimDuration::from_micros(5_333));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModemSpec {
    bitrate_bps: f64,
}

impl ModemSpec {
    /// Creates a spec at the given bitrate (bits/second).
    ///
    /// # Panics
    ///
    /// Panics if `bitrate_bps` is not finite and positive.
    pub fn new(bitrate_bps: f64) -> Self {
        assert!(
            bitrate_bps.is_finite() && bitrate_bps > 0.0,
            "bitrate must be finite and positive, got {bitrate_bps}"
        );
        ModemSpec { bitrate_bps }
    }

    /// The configured bitrate in bits/second.
    pub fn bitrate_bps(&self) -> f64 {
        self.bitrate_bps
    }

    /// Time to transmit `bits` bits, rounded to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn tx_duration(&self, bits: u32) -> SimDuration {
        assert!(bits > 0, "cannot transmit a zero-bit packet");
        SimDuration::from_secs_f64(bits as f64 / self.bitrate_bps)
    }
}

/// The per-node half-duplex modem: transmit bookkeeping plus a ledger of
/// overlapping receptions.
///
/// The network world calls [`begin_transmit`](Modem::begin_transmit) /
/// [`end_transmit`](Modem::end_transmit) around the node's own
/// transmissions and [`end_reception`](Modem::end_reception) when an
/// arriving frame's last bit lands. It begins a reception
/// ([`begin_reception_grouped`](Modem::begin_reception_grouped)) lazily:
/// with the arrival's own first-bit instant, just before the next call
/// for the same modem, so every modem sees its calls in arrival order.
/// The modem answers whether each completed reception survived.
///
/// # Examples
///
/// ```
/// use uasn_phy::modem::{Modem, ModemState};
/// use uasn_sim::time::{SimDuration, SimTime};
///
/// let mut modem = Modem::new();
/// let t0 = SimTime::ZERO;
/// let id = modem.begin_reception(t0, t0 + SimDuration::from_millis(100));
/// assert_eq!(modem.state(), ModemState::Receiving);
/// let ok = modem.end_reception(t0 + SimDuration::from_millis(100), id);
/// assert!(ok); // nothing overlapped
/// ```
#[derive(Debug, Clone, Default)]
pub struct Modem {
    transmitting_until: Option<SimTime>,
    receptions: Vec<Reception>,
    /// The last reception id handed out; ids count up from 1.
    last_id: u32,
    collisions: u64,
    half_duplex_losses: u64,
}

impl Modem {
    /// Creates an idle modem.
    pub fn new() -> Self {
        Modem::default()
    }

    /// The radio state right now.
    pub fn state(&self) -> ModemState {
        if self.transmitting_until.is_some() {
            ModemState::Transmitting
        } else if self.receptions.is_empty() {
            ModemState::Idle
        } else {
            ModemState::Receiving
        }
    }

    /// Whether the modem is mid-transmission.
    pub fn is_transmitting(&self) -> bool {
        self.transmitting_until.is_some()
    }

    /// Starts a transmission lasting until `until`.
    ///
    /// Any reception in progress is corrupted (half-duplex).
    ///
    /// # Panics
    ///
    /// Panics if a transmission is already in progress — the MAC layer must
    /// never double-book its own transmitter, so this is a protocol bug.
    pub fn begin_transmit(&mut self, now: SimTime, until: SimTime) {
        assert!(
            self.transmitting_until.is_none(),
            "transmit while already transmitting at {now}"
        );
        assert!(until > now, "transmission must have positive duration");
        for r in &mut self.receptions {
            if !r.corrupted {
                r.corrupted = true;
                self.half_duplex_losses += 1;
            }
        }
        self.transmitting_until = Some(until);
    }

    /// Ends the transmission.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in progress.
    pub fn end_transmit(&mut self, now: SimTime) {
        let until = self
            .transmitting_until
            .take()
            .expect("end_transmit without begin_transmit");
        debug_assert!(now >= until, "transmission ended early");
    }

    /// Registers a frame starting to arrive now and finishing at `end`.
    ///
    /// Marks the collision set: if any other reception is in progress, both
    /// this one and the in-progress ones are corrupted (Eq 1 — two packets
    /// overlapping at a receiver destroy each other). Arriving during the
    /// node's own transmission also corrupts the new arrival.
    pub fn begin_reception(&mut self, now: SimTime, end: SimTime) -> ReceptionId {
        self.begin_reception_grouped(now, end, u64::MAX)
    }

    /// Like [`begin_reception`](Self::begin_reception), but receptions
    /// sharing `group` (≠ `u64::MAX`) are path copies of one transmission —
    /// a direct arrival and its multipath echoes — and do not corrupt each
    /// other, while still corrupting (and being corrupted by) every other
    /// group.
    pub fn begin_reception_grouped(
        &mut self,
        now: SimTime,
        end: SimTime,
        group: u64,
    ) -> ReceptionId {
        assert!(end > now, "reception must have positive duration");
        let mut corrupted = false;
        if self.transmitting_until.is_some() {
            corrupted = true;
            self.half_duplex_losses += 1;
        }
        let clashes = self
            .receptions
            .iter()
            .any(|r| group == u64::MAX || r.group != group);
        if clashes {
            corrupted = true;
            self.collisions += 1;
            for r in &mut self.receptions {
                if !r.corrupted && (group == u64::MAX || r.group != group) {
                    r.corrupted = true;
                    self.collisions += 1;
                }
            }
        }
        self.last_id = self
            .last_id
            .checked_add(1)
            .expect("fewer than 2^32 receptions per modem");
        let id = ReceptionId(NonZeroU32::new(self.last_id).expect("ids count up from 1"));
        self.receptions.push(Reception {
            id,
            group,
            end,
            corrupted,
        });
        id
    }

    /// Completes a reception; returns `true` if the frame survived (no
    /// overlap with other frames or own transmission for its whole
    /// duration).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not correspond to an in-progress reception.
    pub fn end_reception(&mut self, now: SimTime, id: ReceptionId) -> bool {
        let idx = self
            .receptions
            .iter()
            .position(|r| r.id == id)
            .expect("end_reception for unknown reception");
        let r = self.receptions.swap_remove(idx);
        debug_assert!(now >= r.end, "reception completed before its scheduled end");
        !r.corrupted
    }

    /// Number of receptions corrupted by overlapping arrivals so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Number of receptions corrupted by the node's own transmissions.
    pub fn half_duplex_losses(&self) -> u64 {
        self.half_duplex_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1_000)
    }

    #[test]
    fn spec_durations_match_table2() {
        let spec = ModemSpec::new(12_000.0);
        // 64-bit control packet: 5.333 ms
        assert_eq!(spec.tx_duration(64).as_micros(), 5_333);
        // 2048-bit data packet: 170.667 ms
        assert_eq!(spec.tx_duration(2_048).as_micros(), 170_667);
    }

    #[test]
    #[should_panic(expected = "zero-bit")]
    fn zero_bit_duration_panics() {
        ModemSpec::new(12_000.0).tx_duration(0);
    }

    #[test]
    fn clean_reception_survives() {
        let mut m = Modem::new();
        let id = m.begin_reception(t(0), t(100));
        assert_eq!(m.state(), ModemState::Receiving);
        assert!(m.end_reception(t(100), id));
        assert_eq!(m.state(), ModemState::Idle);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn overlapping_receptions_destroy_each_other() {
        let mut m = Modem::new();
        let a = m.begin_reception(t(0), t(100));
        let b = m.begin_reception(t(50), t(150));
        assert!(!m.end_reception(t(100), a));
        assert!(!m.end_reception(t(150), b));
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn three_way_collision_destroys_all() {
        let mut m = Modem::new();
        let a = m.begin_reception(t(0), t(100));
        let b = m.begin_reception(t(10), t(110));
        let c = m.begin_reception(t(20), t(120));
        assert!(!m.end_reception(t(100), a));
        assert!(!m.end_reception(t(110), b));
        assert!(!m.end_reception(t(120), c));
    }

    #[test]
    fn sequential_receptions_both_survive() {
        let mut m = Modem::new();
        let a = m.begin_reception(t(0), t(100));
        assert!(m.end_reception(t(100), a));
        let b = m.begin_reception(t(100), t(200));
        assert!(m.end_reception(t(200), b));
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn arrival_during_transmit_is_lost() {
        let mut m = Modem::new();
        m.begin_transmit(t(0), t(50));
        let a = m.begin_reception(t(10), t(60));
        m.end_transmit(t(50));
        assert!(!m.end_reception(t(60), a));
        assert_eq!(m.half_duplex_losses(), 1);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn transmit_corrupts_reception_in_progress() {
        let mut m = Modem::new();
        let a = m.begin_reception(t(0), t(100));
        m.begin_transmit(t(10), t(20));
        m.end_transmit(t(20));
        assert!(!m.end_reception(t(100), a));
        assert_eq!(m.half_duplex_losses(), 1);
    }

    #[test]
    fn reception_after_transmit_ends_survives() {
        let mut m = Modem::new();
        m.begin_transmit(t(0), t(50));
        m.end_transmit(t(50));
        let a = m.begin_reception(t(50), t(150));
        assert!(m.end_reception(t(150), a));
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_transmit_panics() {
        let mut m = Modem::new();
        m.begin_transmit(t(0), t(50));
        m.begin_transmit(t(10), t(60));
    }

    #[test]
    #[should_panic(expected = "unknown reception")]
    fn ending_unknown_reception_panics() {
        let mut m = Modem::new();
        let id = m.begin_reception(t(0), t(10));
        m.end_reception(t(10), id);
        m.end_reception(t(10), id);
    }

    #[test]
    fn state_reports_transmitting_over_receiving() {
        let mut m = Modem::new();
        let _ = m.begin_reception(t(0), t(100));
        m.begin_transmit(t(10), t(20));
        assert_eq!(m.state(), ModemState::Transmitting);
        m.end_transmit(t(20));
        assert_eq!(m.state(), ModemState::Receiving);
    }

    #[test]
    fn grouped_copies_do_not_corrupt_each_other() {
        // A direct arrival and its surface echo are one transmission.
        let mut m = Modem::new();
        let direct = m.begin_reception_grouped(t(0), t(100), 7);
        let echo = m.begin_reception_grouped(t(30), t(130), 7);
        assert!(m.end_reception(t(100), direct), "direct survives its echo");
        let _ = m.end_reception(t(130), echo); // echo outcome unused
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn grouped_copies_still_corrupt_other_frames() {
        let mut m = Modem::new();
        let direct = m.begin_reception_grouped(t(0), t(100), 7);
        let other = m.begin_reception_grouped(t(50), t(150), 8);
        assert!(!m.end_reception(t(100), direct));
        assert!(!m.end_reception(t(150), other));
        assert!(m.collisions() >= 2);
    }

    #[test]
    fn echo_tail_corrupts_later_frames() {
        let mut m = Modem::new();
        let direct = m.begin_reception_grouped(t(0), t(100), 7);
        assert!(m.end_reception(t(100), direct));
        let echo = m.begin_reception_grouped(t(80), t(180), 7);
        // A different frame landing inside the echo tail dies.
        let late = m.begin_reception_grouped(t(150), t(250), 9);
        assert!(!m.end_reception(t(180), echo));
        assert!(!m.end_reception(t(250), late));
    }
}
