//! Property-based tests for EW-MAC's §4.2 timing algebra: for every
//! geometry the extra-communication windows must respect the negotiated
//! exchange — this is the paper's central non-interference claim, checked
//! as arithmetic rather than by simulation.

use proptest::prelude::*;

use uasn_ewmac::extra::{
    exc_reply_ok, exdata_grant_timeout, exdata_send_time, exr_send_time, ObservedNegotiation,
};
use uasn_net::node::NodeId;
use uasn_net::priority::pick_winner;
use uasn_net::slots::SlotClock;
use uasn_sim::time::SimDuration;

fn clock() -> SlotClock {
    SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1))
}

fn arb_obs() -> impl Strategy<Value = ObservedNegotiation> {
    (
        proptest::bool::ANY,
        0u64..500,
        1_000u64..1_000_000,  // pair delay µs (≤ τmax)
        10_000u64..2_000_000, // data duration µs
    )
        .prop_map(
            |(peer_is_receiver, control_slot, pair_us, td_us)| ObservedNegotiation {
                peer: NodeId::new(1),
                other: NodeId::new(2),
                peer_is_receiver,
                control_slot,
                pair_delay: SimDuration::from_micros(pair_us),
                data_duration: SimDuration::from_micros(td_us),
            },
        )
}

proptest! {
    /// Eq 5: the Ack slot always starts after the data has fully arrived.
    #[test]
    fn ack_slot_clears_the_data(obs in arb_obs()) {
        let c = clock();
        let ack_start = c.start_of(obs.ack_slot(&c));
        let data_arrival_end =
            c.start_of(obs.data_slot()) + obs.data_duration + obs.pair_delay;
        prop_assert!(ack_start >= data_arrival_end);
    }

    /// When the EXR is admitted, its full reception at the peer ends before
    /// the peer's next negotiated packet starts arriving — period III/V of
    /// Fig 2, the request-phase non-interference guarantee.
    #[test]
    fn admitted_exr_never_touches_the_negotiated_window(
        obs in arb_obs(),
        tau_ij_us in 1_000u64..1_000_000,
        decode_offset_us in 0u64..2_000_000,
    ) {
        let c = clock();
        let tau_ij = SimDuration::from_micros(tau_ij_us);
        let guard = SimDuration::from_millis(2);
        // The loser decodes the overheard packet somewhere after the
        // control slot began.
        let now = c.start_of(obs.control_slot)
            + SimDuration::from_micros(5_333 + decode_offset_us);
        if let Some(send_at) = exr_send_time(&c, &obs, now, tau_ij, guard) {
            prop_assert_eq!(send_at, now, "extra requests go out immediately");
            let arrival_end = send_at + tau_ij + c.omega();
            let window_close = if obs.peer_is_receiver {
                obs.data_arrival_at_receiver(&c)
            } else {
                c.start_of(obs.control_slot + 1) + obs.pair_delay
            };
            prop_assert!(
                arrival_end + guard <= window_close,
                "EXR tail {arrival_end} crosses the window close {window_close}"
            );
        }
    }

    /// Eq 6 (+guard): the EXData always starts arriving strictly after the
    /// peer has finished its Ack business — never during it.
    #[test]
    fn exdata_arrival_is_strictly_after_the_ack(
        obs in arb_obs(),
        tau_ij_us in 1_000u64..1_000_000,
    ) {
        let c = clock();
        let tau_ij = SimDuration::from_micros(tau_ij_us);
        let guard = SimDuration::from_millis(2);
        let send_at = exdata_send_time(&c, &obs, tau_ij, guard);
        let arrival = send_at + tau_ij;
        let ack_business_end = if obs.peer_is_receiver {
            // peer transmits the Ack
            c.start_of(obs.ack_slot(&c)) + c.omega()
        } else {
            // peer receives the Ack
            c.start_of(obs.ack_slot(&c)) + obs.pair_delay + c.omega()
        };
        prop_assert!(arrival > ack_business_end);
        prop_assert_eq!(arrival, ack_business_end + guard);
    }

    /// The grant timeout always postdates the promised EXData arrival, so a
    /// granting node can never abandon an extra exchange that is still on
    /// schedule.
    #[test]
    fn grant_timeout_covers_the_promised_arrival(
        obs in arb_obs(),
        tau_ij_us in 1_000u64..1_000_000,
        exdata_us in 10_000u64..2_000_000,
    ) {
        let c = clock();
        let guard = SimDuration::from_millis(2);
        let tau_ij = SimDuration::from_micros(tau_ij_us);
        let exdata = SimDuration::from_micros(exdata_us);
        let timeout = exdata_grant_timeout(&c, &obs, exdata, guard);
        let arrival_end = exdata_send_time(&c, &obs, tau_ij, guard) + tau_ij + exdata;
        prop_assert!(timeout >= arrival_end);
    }

    /// EXC admission implies the EXC itself clears the peer's schedule.
    #[test]
    fn admitted_exc_fits_before_the_busy_moment(
        obs in arb_obs(),
        reply_offset_us in 0u64..3_000_000,
    ) {
        let c = clock();
        let guard = SimDuration::from_millis(2);
        let now = c.start_of(obs.control_slot) + SimDuration::from_micros(reply_offset_us);
        if exc_reply_ok(&c, &obs, now, guard) {
            let busy_at = if obs.peer_is_receiver {
                obs.data_arrival_at_receiver(&c)
            } else {
                c.start_of(obs.control_slot + 1) + obs.pair_delay
            };
            prop_assert!(now + c.omega() + guard <= busy_at);
        }
    }

    /// Winner selection is permutation-invariant on the winning value.
    #[test]
    fn rts_winner_is_the_max_rp(
        candidates in proptest::collection::vec((0u32..64, 0u32..10_000), 1..10),
    ) {
        let winner = pick_winner(candidates.iter().copied()).expect("non-empty");
        let best = candidates.iter().map(|&(_, rp)| rp).max().unwrap();
        prop_assert_eq!(candidates[winner].1, best);
        // Deterministic tie-break: lowest sender id among the maxima.
        let min_id_among_best = candidates
            .iter()
            .filter(|&&(_, rp)| rp == best)
            .map(|&(id, _)| id)
            .min()
            .unwrap();
        prop_assert_eq!(candidates[winner].0, min_id_among_best);
    }
}
