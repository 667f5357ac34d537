//! Property tests for the routing policies and the transport state
//! machine — the pure halves of the ISSUE-8 determinism and
//! loop-freedom guarantees. (The simulation-level halves — identical
//! trace bytes across worker counts, monitor/checker agreement — live
//! in `uasn-bench`'s route e2e tests, which can build networks.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use uasn_route::{
    select_next_hop, Candidate, ForwardPolicy, TimeoutVerdict, TransportConfig, TransportTable,
};

fn arb_candidate() -> impl Strategy<Value = Candidate> {
    (0u32..200, 0.0f64..6_000.0, 1.0f64..1_500.0).prop_map(|(node, depth_m, dist_m)| Candidate {
        node,
        depth_m,
        dist_m,
    })
}

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec(arb_candidate(), 0..20).prop_map(|mut cs| {
        // Unique ids: in the simulation a node appears at most once in a
        // candidate list.
        cs.sort_by_key(|c| c.node);
        cs.dedup_by_key(|c| c.node);
        cs
    })
}

fn arb_policy() -> impl Strategy<Value = ForwardPolicy> {
    // 0 encodes greedy; k >= 1 the randomized policy at width k.
    (0u32..8).prop_map(|k| {
        if k == 0 {
            ForwardPolicy::Greedy
        } else {
            ForwardPolicy::RandomShallowest { k }
        }
    })
}

proptest! {
    /// Same seed and candidate list ⇒ the same choice, every time.
    #[test]
    fn selection_is_deterministic(
        policy in arb_policy(),
        cs in arb_candidates(),
        seed in proptest::num::u64::ANY,
    ) {
        let a = select_next_hop(policy, &cs, &mut StdRng::seed_from_u64(seed));
        let b = select_next_hop(policy, &cs, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    /// The choice is invariant under candidate-list order: only the
    /// (depth, dist, id) ranks matter, never the iteration order the
    /// world happened to gather neighbours in.
    #[test]
    fn selection_ignores_candidate_order(
        policy in arb_policy(),
        cs in arb_candidates(),
        seed in proptest::num::u64::ANY,
    ) {
        let forward = select_next_hop(policy, &cs, &mut StdRng::seed_from_u64(seed));
        let mut rev = cs.clone();
        rev.reverse();
        let backward = select_next_hop(policy, &rev, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(forward, backward);
    }

    /// Greedy picks exactly the (depth, dist, id) minimum — the next-hop
    /// rule of every run without a routing configuration.
    #[test]
    fn greedy_is_the_rank_minimum(cs in arb_candidates()) {
        let pick = select_next_hop(ForwardPolicy::Greedy, &cs, &mut StdRng::seed_from_u64(0));
        let expect = cs
            .iter()
            .min_by(|a, b| {
                (a.depth_m, a.dist_m, a.node)
                    .partial_cmp(&(b.depth_m, b.dist_m, b.node))
                    .unwrap()
            })
            .map(|c| c.node);
        prop_assert_eq!(pick, expect);
    }

    /// Every policy returns a member of the candidate set (or None only
    /// when the set is empty) — a next hop is never invented.
    #[test]
    fn choice_is_always_a_candidate(
        policy in arb_policy(),
        cs in arb_candidates(),
        seed in proptest::num::u64::ANY,
    ) {
        match select_next_hop(policy, &cs, &mut StdRng::seed_from_u64(seed)) {
            Some(node) => prop_assert!(cs.iter().any(|c| c.node == node)),
            None => prop_assert!(cs.is_empty()),
        }
    }

    /// RandomShallowest{k} never picks outside the k best-ranked
    /// candidates, for any seed.
    #[test]
    fn random_choice_stays_within_k_best(
        k in 1u32..8,
        cs in arb_candidates(),
        seed in proptest::num::u64::ANY,
    ) {
        prop_assume!(!cs.is_empty());
        let pick = select_next_hop(
            ForwardPolicy::RandomShallowest { k },
            &cs,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        let mut ranked = cs.clone();
        ranked.sort_by(|a, b| {
            (a.depth_m, a.dist_m, a.node)
                .partial_cmp(&(b.depth_m, b.dist_m, b.node))
                .unwrap()
        });
        let k = (k as usize).min(ranked.len());
        prop_assert!(ranked[..k].iter().any(|c| c.node == pick));
    }

    /// Transport: for any budget/timeout and any fired-timeout schedule,
    /// an unacked SDU sees exactly `retry_budget` retries and then one
    /// Exhausted verdict; deadlines strictly increase; exhaustion retires
    /// the entry, so later timeouts and acks find nothing.
    #[test]
    fn transport_walks_the_budget_exactly(
        budget in 0u32..6,
        base_timeout_us in 1u64..10_000_000,
        start_us in 0u64..1_000_000,
    ) {
        let table = TransportTable::new(TransportConfig {
            retry_budget: budget,
            base_timeout_us,
        });
        let mut slot = None;
        let mut deadline = table.register(&mut slot, 7, 2_048, start_us);
        prop_assert_eq!(deadline, start_us + base_timeout_us);
        let mut retries = 0u32;
        loop {
            let (entry, verdict) = table.on_timeout(&mut slot, deadline).expect("pending");
            match verdict {
                TimeoutVerdict::Retry { deadline_us } => {
                    retries += 1;
                    prop_assert!(deadline_us > deadline, "deadlines must advance");
                    prop_assert_eq!(entry.attempts, retries);
                    deadline = deadline_us;
                }
                TimeoutVerdict::Exhausted => break,
            }
            prop_assert!(retries <= budget, "retried past the budget");
        }
        prop_assert_eq!(retries, budget);
        prop_assert!(slot.is_none());
        // Exhaustion is reported once; a late timeout or ack is a no-op.
        prop_assert!(table.on_timeout(&mut slot, deadline).is_none());
        prop_assert!(slot.take().is_none());
    }

    /// Transport: an ack at any point retires the SDU; every later
    /// timeout and duplicate ack is a no-op, and exactly one of the ack
    /// and an Exhausted verdict retires it.
    #[test]
    fn transport_ack_wins_at_any_attempt(
        budget in 0u32..6,
        ack_after in 0u32..6,
    ) {
        let cfg = TransportConfig {
            retry_budget: budget,
            base_timeout_us: 1_000,
        };
        let table = TransportTable::new(cfg);
        let mut slot = None;
        let mut deadline = table.register(&mut slot, 3, 512, 0);
        let mut fired = 0u32;
        let mut exhausted = false;
        while fired < ack_after {
            match table.on_timeout(&mut slot, deadline) {
                Some((_, TimeoutVerdict::Retry { deadline_us })) => {
                    deadline = deadline_us;
                    fired += 1;
                }
                Some((_, TimeoutVerdict::Exhausted)) => {
                    exhausted = true;
                    break;
                }
                None => break,
            }
        }
        let was_pending = slot.is_some();
        let acked = slot.take().is_some();
        prop_assert_eq!(acked, was_pending);
        prop_assert!(table.on_timeout(&mut slot, deadline + 1).is_none());
        prop_assert!(slot.take().is_none());
        prop_assert!(acked != exhausted, "exactly one retirement");
    }
}
