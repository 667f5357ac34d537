//! Property-based tests for the network substrate: slot arithmetic, the
//! quiet schedule against an interval oracle, topology connectivity, and
//! routing progress.

use proptest::prelude::*;
use rand::SeedableRng;

use uasn_net::node::NodeId;
use uasn_net::quiet::QuietSchedule;
use uasn_net::routing::route_uphill;
use uasn_net::slots::SlotClock;
use uasn_net::topology::{stranded_sensors, Deployment};
use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::geometry::Point;
use uasn_sim::time::{SimDuration, SimTime};

fn clock() -> SlotClock {
    SlotClock::new(SimDuration::from_micros(5_333), SimDuration::from_secs(1))
}

proptest! {
    #[test]
    fn slot_of_start_of_roundtrips(slot in 0u64..1_000_000) {
        let c = clock();
        prop_assert_eq!(c.slot_of(c.start_of(slot)), slot);
        prop_assert!(c.is_boundary(c.start_of(slot)));
    }

    #[test]
    fn every_instant_lies_in_its_slot(micros in 0u64..1_000_000_000_000) {
        let c = clock();
        let t = SimTime::from_micros(micros);
        let slot = c.slot_of(t);
        prop_assert!(c.start_of(slot) <= t);
        prop_assert!(t < c.start_of(slot + 1));
        prop_assert!(c.next_boundary(t) > t);
        prop_assert_eq!(c.next_boundary(t), c.start_of(slot + 1));
    }

    #[test]
    fn eq5_ack_slot_is_exact_ceiling(
        data_slot in 0u64..10_000,
        td_micros in 1u64..5_000_000,
        tau_micros in 0u64..1_000_000,
    ) {
        let c = clock();
        let td = SimDuration::from_micros(td_micros);
        let tau = SimDuration::from_micros(tau_micros);
        let ack = c.ack_slot(data_slot, td, tau);
        // Definition: the first slot whose start is at or after the data's
        // arrival end.
        let arrival_end = c.start_of(data_slot) + td + tau;
        prop_assert!(c.start_of(ack) >= arrival_end);
        if ack > data_slot {
            prop_assert!(c.start_of(ack - 1) < arrival_end);
        }
    }

    /// QuietSchedule against a brute-force membership oracle.
    #[test]
    fn quiet_schedule_matches_interval_oracle(
        intervals in proptest::collection::vec((0u64..1_000, 0u64..200), 0..40),
        probes in proptest::collection::vec(0u64..1_400, 1..50),
    ) {
        let mut q = QuietSchedule::new();
        let spans: Vec<(u64, u64)> = intervals.iter().map(|&(s, d)| (s, s + d)).collect();
        for &(s, e) in &spans {
            q.add(SimTime::from_micros(s), SimTime::from_micros(e));
        }
        for &p in &probes {
            let oracle = spans.iter().any(|&(s, e)| s <= p && p < e);
            prop_assert_eq!(
                q.is_quiet(SimTime::from_micros(p)),
                oracle,
                "probe {} against {:?}", p, spans
            );
        }
        //

        // overlaps() agrees with a window oracle too.
        for w in probes.windows(2) {
            let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
            if a == b { continue; }
            // Zero-length spans were never stored; skip them in the oracle.
            let oracle = spans.iter().any(|&(s, e)| s < e && s < b && a < e);
            prop_assert_eq!(
                q.overlaps(SimTime::from_micros(a), SimTime::from_micros(b)),
                oracle
            );
        }
    }

    #[test]
    fn quiet_prune_removes_exactly_the_expired(
        intervals in proptest::collection::vec((0u64..1_000, 1u64..200), 1..30),
        now in 0u64..1_400,
    ) {
        let mut q = QuietSchedule::new();
        for &(s, d) in &intervals {
            q.add(SimTime::from_micros(s), SimTime::from_micros(s + d));
        }
        let before = q.len();
        let pruned = q.prune(SimTime::from_micros(now));
        prop_assert_eq!(q.len() + pruned, before);
        // Everything still quiet after `now` must remain reachable.
        prop_assert!(!q.is_quiet(SimTime::from_micros(now)) || q.quiet_until(SimTime::from_micros(now)).is_some());
    }

    /// The layered column always yields an uphill-connected topology, for
    /// any seed and node count, and depth routing always terminates at a
    /// sink.
    #[test]
    fn layered_column_connectivity_and_routing(
        seed in 0u64..5_000,
        sensors in 4u32..80,
        sinks in 1u32..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let deployment = Deployment::paper_column_for(sensors.max(12));
        let nodes = deployment
            .generate(&mut rng, sensors, sinks, 1_500.0)
            .expect("column generates");
        prop_assert!(stranded_sensors(&nodes, 1_500.0).is_empty());

        let positions: Vec<Point> = nodes.iter().map(|n| n.position).collect();
        let channel = AcousticChannel::paper_default();
        let mut cache = LinkBudgetCache::with_index(&channel, &positions);
        for idx in sinks as usize..nodes.len() {
            let route = route_uphill(&mut cache, &channel, &positions, NodeId::new(idx as u32));
            let last = *route.last().expect("route is non-empty");
            // Depth strictly decreases along the route and it ends at the
            // surface (a sink).
            for pair in route.windows(2) {
                prop_assert!(
                    positions[pair[1].index()].depth() < positions[pair[0].index()].depth()
                );
            }
            prop_assert!(
                positions[last.index()].depth() == 0.0,
                "route from n{idx} ended at depth {}",
                positions[last.index()].depth()
            );
            prop_assert!(route.len() <= nodes.len(), "route cannot repeat nodes");
        }
    }

    #[test]
    fn next_hop_makes_strict_depth_progress(
        seed in 0u64..5_000,
        sensors in 4u32..60,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nodes = Deployment::paper_column()
            .generate(&mut rng, sensors, 2, 1_500.0)
            .expect("generates");
        let positions: Vec<Point> = nodes.iter().map(|n| n.position).collect();
        let channel = AcousticChannel::paper_default();
        let mut cache = LinkBudgetCache::with_index(&channel, &positions);
        for (idx, p) in positions.iter().enumerate() {
            let route = route_uphill(&mut cache, &channel, &positions, NodeId::new(idx as u32));
            if let Some(&next) = route.get(1) {
                prop_assert!(positions[next.index()].depth() < p.depth());
                prop_assert!(p.distance(positions[next.index()]) <= 1_500.0);
            }
        }
    }
}
