//! Topology diagnostics.
//!
//! Static analyses of a deployment that explain *why* the protocols behave
//! as they do on it: hidden-terminal exposure (the collisions RTS/CTS
//! handshakes exist to prevent), the propagation-delay distribution (the
//! waiting resources EW-MAC harvests), and route depth (how many MAC hops
//! Eq 2–3 count per generated packet).

use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_sim::stats::Accumulator;
use uasn_sim::time::SimDuration;

use crate::node::{NodeId, NodeInfo};
use crate::routing::route_uphill;

/// Summary statistics of a deployment under a given channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyAnalysis {
    /// Total nodes.
    pub nodes: usize,
    /// Audible (directed) links.
    pub links: usize,
    /// Mean audible neighbours per node.
    pub mean_degree: f64,
    /// Hidden-terminal triples: ordered pairs `(a, b)` both audible to some
    /// receiver `r` but not to each other — the configurations where a
    /// plain carrier-sense MAC collides and a handshake MAC must negotiate.
    pub hidden_pairs: usize,
    /// Fraction of potentially interfering pairs that are hidden.
    pub hidden_ratio: f64,
    /// One-hop propagation delay distribution over audible links.
    pub delay_stats: Accumulator,
    /// Mean uphill route length (hops) from each sensor to its terminal
    /// node.
    pub mean_route_hops: f64,
    /// Delay distribution of the links depth routing actually uses
    /// (node → next hop). Under min-depth routing these stay near the
    /// communication range regardless of density — the contention growth
    /// (degree, hidden pairs), not hop shortening, is what squeezes the
    /// reuse protocols in dense networks.
    pub route_delay_stats: Accumulator,
}

/// Analyses `nodes` under `channel`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use uasn_net::analysis::analyze_topology;
/// use uasn_net::topology::Deployment;
/// use uasn_phy::channel::AcousticChannel;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let nodes = Deployment::paper_column()
///     .generate(&mut rng, 30, 2, 1_500.0)
///     .expect("generates");
/// let analysis = analyze_topology(&nodes, &AcousticChannel::paper_default());
/// assert_eq!(analysis.nodes, 32);
/// assert!(analysis.mean_degree > 1.0);
/// ```
pub fn analyze_topology(nodes: &[NodeInfo], channel: &AcousticChannel) -> TopologyAnalysis {
    let n = nodes.len();
    let audible = |i: usize, j: usize| -> bool {
        i != j && channel.is_audible(nodes[i].position, nodes[j].position)
    };

    let mut links = 0;
    let mut delay_stats = Accumulator::new();
    for i in 0..n {
        for j in 0..n {
            if audible(i, j) {
                links += 1;
                let tau: SimDuration =
                    channel.propagation_delay(nodes[i].position, nodes[j].position);
                delay_stats.add(tau.as_secs_f64());
            }
        }
    }

    // Hidden pairs: unordered {a, b}, not audible to each other, sharing at
    // least one common audible receiver.
    let mut hidden = 0;
    let mut share_receiver_pairs = 0;
    for a in 0..n {
        for b in (a + 1)..n {
            let share = (0..n).any(|r| r != a && r != b && audible(a, r) && audible(b, r));
            if share {
                share_receiver_pairs += 1;
                if !audible(a, b) {
                    hidden += 1;
                }
            }
        }
    }

    let positions: Vec<_> = nodes.iter().map(|nd| nd.position).collect();
    let mut cache = LinkBudgetCache::with_index(channel, &positions);
    let mut route_hops = Accumulator::new();
    let mut route_delay_stats = Accumulator::new();
    for (idx, node) in nodes.iter().enumerate() {
        if !node.is_sink() {
            let route = route_uphill(&mut cache, channel, &positions, NodeId::new(idx as u32));
            route_hops.add((route.len() - 1) as f64);
            for hop in route.windows(2) {
                let tau =
                    channel.propagation_delay(positions[hop[0].index()], positions[hop[1].index()]);
                route_delay_stats.add(tau.as_secs_f64());
            }
        }
    }

    TopologyAnalysis {
        nodes: n,
        links,
        mean_degree: if n == 0 { 0.0 } else { links as f64 / n as f64 },
        hidden_pairs: hidden,
        hidden_ratio: if share_receiver_pairs == 0 {
            0.0
        } else {
            hidden as f64 / share_receiver_pairs as f64
        },
        delay_stats,
        mean_route_hops: route_hops.mean(),
        route_delay_stats,
    }
}

/// Upper bound on the waiting resource a single negotiated exchange leaves
/// idle at a neighbouring loser, per the paper's Fig 2 geometry: the gap
/// between the overheard control packet and the negotiated data reaching
/// the receiver, `|ts| + τ(pair) − τ(loser, peer) − ω`, clamped at zero.
///
/// This is exactly the window `exr_send_time` admits requests into; summed
/// over a topology it estimates how much extra capacity EW-MAC could ever
/// harvest.
pub fn exploitable_window(
    slot_len: SimDuration,
    omega: SimDuration,
    pair_delay: SimDuration,
    loser_delay: SimDuration,
) -> SimDuration {
    let close = slot_len + pair_delay;
    let open = loser_delay + omega;
    if close > open {
        close - open
    } else {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Deployment;
    use rand::SeedableRng;

    fn analysis(sensors: u32, seed: u64) -> TopologyAnalysis {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nodes = Deployment::paper_column()
            .generate(&mut rng, sensors, 3, 1_500.0)
            .expect("generates");
        analyze_topology(&nodes, &AcousticChannel::paper_default())
    }

    #[test]
    fn paper_column_has_hidden_terminals() {
        let a = analysis(60, 1);
        assert!(
            a.hidden_pairs > 0,
            "a 6 km column must hide deep from shallow nodes"
        );
        assert!(a.hidden_ratio > 0.0 && a.hidden_ratio < 1.0);
    }

    #[test]
    fn link_delays_respect_tau_max() {
        let a = analysis(60, 2);
        assert!(a.delay_stats.max().expect("links exist") <= 1.0 + 1e-9);
        assert!(a.delay_stats.min().expect("links exist") > 0.0);
        assert!(
            a.delay_stats.mean() > 0.1,
            "column links are not trivially short"
        );
    }

    #[test]
    fn degree_grows_with_node_count() {
        assert!(analysis(120, 3).mean_degree > analysis(40, 3).mean_degree);
    }

    #[test]
    fn routes_span_multiple_hops() {
        let a = analysis(60, 4);
        assert!(
            a.mean_route_hops >= 2.0,
            "five layers should route in >= 2 hops, got {}",
            a.mean_route_hops
        );
    }

    #[test]
    fn links_are_symmetric_in_count() {
        // Audibility inside the horizon is symmetric, so directed links are even.
        let a = analysis(50, 5);
        assert_eq!(a.links % 2, 0);
    }

    #[test]
    fn exploitable_window_geometry() {
        let slot = SimDuration::from_micros(1_005_333);
        let omega = SimDuration::from_micros(5_333);
        // Far pair, near loser: a big window.
        let w1 = exploitable_window(
            slot,
            omega,
            SimDuration::from_millis(900),
            SimDuration::from_millis(200),
        );
        assert!(w1 > SimDuration::from_secs(1));
        // Near pair, far loser: smaller.
        let w2 = exploitable_window(
            slot,
            omega,
            SimDuration::from_millis(200),
            SimDuration::from_millis(900),
        );
        assert!(w2 < w1);
        // Degenerate: loser farther than slot + pair -> zero, not panic.
        let w3 = exploitable_window(
            SimDuration::from_millis(100),
            omega,
            SimDuration::ZERO,
            SimDuration::from_secs(2),
        );
        assert_eq!(w3, SimDuration::ZERO);
    }

    #[test]
    fn denser_networks_raise_contention_not_hop_delay() {
        // The Fig-7 mechanism, measured statically: packing more nodes into
        // the fixed volume multiplies the audible degree and the
        // hidden-terminal pairs (more overheard exchanges, more quiet, more
        // contention per receiver) while min-depth routing keeps hop delays
        // near the range limit.
        let at = |n: u32| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let nodes = Deployment::paper_column_for(n)
                .generate(&mut rng, n, 3, 1_500.0)
                .unwrap();
            analyze_topology(&nodes, &AcousticChannel::paper_default())
        };
        let sparse = at(60);
        let dense = at(200);
        assert!(dense.mean_degree > 2.0 * sparse.mean_degree);
        assert!(dense.hidden_pairs > 4 * sparse.hidden_pairs);
        // Route hop delays barely move (within 25%).
        let ratio = dense.route_delay_stats.mean() / sparse.route_delay_stats.mean();
        assert!(
            (0.75..1.25).contains(&ratio),
            "routing hop delay moved unexpectedly: {ratio}"
        );
    }
}
