//! Depth-based next-hop selection policies.
//!
//! Every policy operates on a caller-supplied candidate list — the
//! strictly-shallower, in-range neighbours of the forwarding node — and
//! returns the chosen next hop's id. Candidates carry only what the
//! decision needs (id, depth, distance), so the policies are pure
//! functions over plain data and never allocate.
//!
//! `uasn-net` forwards every SDU of every run through
//! [`select_next_hop`]: runs without a routing configuration use
//! [`ForwardPolicy::Greedy`], so the `(depth, distance, id)` ranking here
//! is the simulator's only next-hop rule.

use rand::Rng;

/// Default hop-count TTL: generous for the paper's ≤20-layer columns
/// while still bounding any pathological path.
pub const DEFAULT_TTL: u32 = 32;

/// One forwarding candidate: a strictly-shallower neighbour within
/// communication range of the forwarding node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Node id of the candidate.
    pub node: u32,
    /// Candidate depth, metres (smaller = closer to the surface).
    pub depth_m: f64,
    /// 3-D distance from the forwarder, metres.
    pub dist_m: f64,
}

impl Candidate {
    /// The total-order ranking key: shallower first, then nearer, then
    /// smaller id — the deterministic preference every policy builds on.
    fn rank(&self) -> (f64, f64, u32) {
        (self.depth_m, self.dist_m, self.node)
    }

    fn better_than(&self, other: &Candidate) -> bool {
        self.rank() < other.rank()
    }
}

/// How the forwarder picks among its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPolicy {
    /// Always the best-ranked candidate (min depth, then distance, then
    /// id) — the policy of every run without a routing configuration.
    Greedy,
    /// Uniformly random choice among the `k` best-ranked candidates
    /// (`k >= 1`), drawn from the seeded routing stream. Spreads relay
    /// load across the candidate set at the cost of occasionally longer
    /// paths; `k = 1` degenerates to [`ForwardPolicy::Greedy`] without
    /// consuming randomness.
    RandomShallowest {
        /// Candidate-set width.
        k: u32,
    },
}

impl ForwardPolicy {
    /// Stable label for traces and manifests.
    pub fn as_str(self) -> &'static str {
        match self {
            ForwardPolicy::Greedy => "greedy",
            ForwardPolicy::RandomShallowest { .. } => "random-shallowest",
        }
    }
}

/// The routing layer's configuration, carried inside the simulation
/// config. `None` transport means pure best-effort forwarding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Candidate-set policy.
    pub policy: ForwardPolicy,
    /// Hop-count TTL: a relay holding a copy that has already made `ttl`
    /// hops discards it instead of forwarding again.
    pub ttl: u32,
    /// End-to-end transport (origin-side retry with sink acks); `None`
    /// disables retransmission.
    pub transport: Option<crate::transport::TransportConfig>,
}

impl RouteConfig {
    /// Greedy forwarding, default TTL, no transport.
    pub fn greedy() -> RouteConfig {
        RouteConfig {
            policy: ForwardPolicy::Greedy,
            ttl: DEFAULT_TTL,
            transport: None,
        }
    }

    /// Greedy forwarding plus the default reliability transport.
    pub fn reliable() -> RouteConfig {
        RouteConfig {
            transport: Some(crate::transport::TransportConfig::default()),
            ..RouteConfig::greedy()
        }
    }

    /// Replaces the TTL.
    pub fn with_ttl(mut self, ttl: u32) -> RouteConfig {
        self.ttl = ttl;
        self
    }

    /// Replaces the candidate-set policy.
    pub fn with_policy(mut self, policy: ForwardPolicy) -> RouteConfig {
        self.policy = policy;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a `(field, reason)` pair naming the first offending field.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        if self.ttl == 0 {
            return Err(("route.ttl", "TTL must be at least 1".to_string()));
        }
        if let ForwardPolicy::RandomShallowest { k } = self.policy {
            if k == 0 {
                return Err((
                    "route.policy",
                    "random-shallowest candidate width k must be at least 1".to_string(),
                ));
            }
        }
        if let Some(t) = &self.transport {
            t.validate()?;
        }
        Ok(())
    }
}

/// Selects the next hop among `candidates` under `policy`.
///
/// Returns `None` when the candidate list is empty (the forwarder is
/// stranded). The choice is fully determined by the candidate list and —
/// for randomized policies — the state of `rng`; greedy selection never
/// touches the RNG, so enabling greedy routing consumes no randomness.
pub fn select_next_hop<R: Rng>(
    policy: ForwardPolicy,
    candidates: &[Candidate],
    rng: &mut R,
) -> Option<u32> {
    if candidates.is_empty() {
        return None;
    }
    match policy {
        ForwardPolicy::Greedy => {
            let mut best = &candidates[0];
            for c in &candidates[1..] {
                if c.better_than(best) {
                    best = c;
                }
            }
            Some(best.node)
        }
        ForwardPolicy::RandomShallowest { k } => {
            let k = (k as usize).min(candidates.len());
            if k <= 1 {
                return select_next_hop(ForwardPolicy::Greedy, candidates, rng);
            }
            let pick = rng.gen_range(0..k);
            // k-th-best selection without allocating: repeatedly scan for
            // the best candidate ranked strictly after the previous pick.
            // Candidate ranks are unique (the id breaks all ties), so the
            // walk is well-defined. O(k·n) with tiny k.
            let mut chosen: Option<&Candidate> = None;
            for _ in 0..=pick {
                let floor = chosen.map(Candidate::rank);
                chosen = candidates
                    .iter()
                    .filter(|c| floor.is_none_or(|f| c.rank() > f))
                    .fold(None, |best: Option<&Candidate>, c| match best {
                        Some(b) if b.better_than(c) => Some(b),
                        _ => Some(c),
                    });
            }
            chosen.map(|c| c.node)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cand(node: u32, depth_m: f64, dist_m: f64) -> Candidate {
        Candidate {
            node,
            depth_m,
            dist_m,
        }
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn greedy_prefers_depth_then_distance_then_id() {
        let cs = [
            cand(5, 1_200.0, 300.0),
            cand(2, 1_100.0, 900.0), // shallowest wins despite distance
            cand(7, 1_100.0, 950.0),
        ];
        assert_eq!(
            select_next_hop(ForwardPolicy::Greedy, &cs, &mut rng(0)),
            Some(2)
        );
        // Equal depth and distance: smaller id wins.
        let tie = [cand(9, 500.0, 100.0), cand(3, 500.0, 100.0)];
        assert_eq!(
            select_next_hop(ForwardPolicy::Greedy, &tie, &mut rng(0)),
            Some(3)
        );
    }

    #[test]
    fn empty_candidates_mean_stranded() {
        assert_eq!(
            select_next_hop(ForwardPolicy::Greedy, &[], &mut rng(0)),
            None
        );
        assert_eq!(
            select_next_hop(ForwardPolicy::RandomShallowest { k: 3 }, &[], &mut rng(0)),
            None
        );
    }

    #[test]
    fn greedy_never_consumes_randomness() {
        use rand::RngCore;
        let cs = [cand(1, 10.0, 10.0), cand(2, 20.0, 20.0)];
        let mut a = rng(42);
        select_next_hop(ForwardPolicy::Greedy, &cs, &mut a);
        let mut b = rng(42);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn random_shallowest_stays_within_the_k_best() {
        let cs = [
            cand(1, 100.0, 10.0),
            cand(2, 200.0, 10.0),
            cand(3, 300.0, 10.0),
            cand(4, 400.0, 10.0),
        ];
        for seed in 0..64 {
            let pick = select_next_hop(
                ForwardPolicy::RandomShallowest { k: 2 },
                &cs,
                &mut rng(seed),
            )
            .unwrap();
            assert!(pick == 1 || pick == 2, "seed {seed} picked {pick}");
        }
    }

    #[test]
    fn random_shallowest_is_deterministic_per_rng_state() {
        let cs = [
            cand(1, 100.0, 10.0),
            cand(2, 200.0, 10.0),
            cand(3, 300.0, 10.0),
        ];
        let policy = ForwardPolicy::RandomShallowest { k: 3 };
        let a = select_next_hop(policy, &cs, &mut rng(7));
        let b = select_next_hop(policy, &cs, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn k_of_one_degenerates_to_greedy_without_randomness() {
        use rand::RngCore;
        let cs = [cand(4, 50.0, 5.0), cand(1, 40.0, 5.0)];
        let mut a = rng(3);
        let pick = select_next_hop(ForwardPolicy::RandomShallowest { k: 1 }, &cs, &mut a);
        assert_eq!(pick, Some(1));
        let mut b = rng(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(RouteConfig::greedy().validate().is_ok());
        assert!(RouteConfig::reliable().validate().is_ok());
        let err = RouteConfig::greedy().with_ttl(0).validate().unwrap_err();
        assert_eq!(err.0, "route.ttl");
        let err = RouteConfig::greedy()
            .with_policy(ForwardPolicy::RandomShallowest { k: 0 })
            .validate()
            .unwrap_err();
        assert_eq!(err.0, "route.policy");
    }
}
