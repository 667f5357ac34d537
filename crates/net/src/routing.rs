//! Depth-based next-hop candidates.
//!
//! The paper assumes routing is solved elsewhere ("sensors at greater
//! depths transmit packets to sensors closer to the surface"; localization
//! "has been dealt with by other protocols"). We implement the standard
//! greedy depth routing that realises that assumption. This module owns
//! the one candidate rule: a node's candidates are the strictly shallower
//! receivers of its link-cache row, the nodes that can hear it inside the
//! channel's horizon, so routing scans no node the fan-out would not.
//! The choice among them is [`uasn_route::select_next_hop`]'s; under
//! [`ForwardPolicy::Greedy`] it is the candidate with the smallest depth,
//! i.e. the one closest to the surface (ties broken by distance, then id
//! for determinism). Every run of the world forwards through this pair,
//! with greedy as the policy when no routing configuration is set.

use rand::rngs::mock::StepRng;
use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::soa::PositionSource;
use uasn_route::{select_next_hop, Candidate, ForwardPolicy};

use crate::node::NodeId;

/// Fills `buf` with `from`'s forwarding candidates: the strictly shallower
/// receivers of `from`'s row in `cache` (built if stale), in row order,
/// which is ascending node order, with the row's distances. The buffer is
/// cleared first and reused, so the walk does not allocate once it has
/// grown to the largest neighbourhood.
///
/// An empty result means the node is stranded (no shallower neighbour in
/// range) — the caller counts the packet as unroutable.
///
/// # Examples
///
/// ```
/// use uasn_net::routing::uphill_candidates;
/// use uasn_phy::cache::LinkBudgetCache;
/// use uasn_phy::channel::AcousticChannel;
/// use uasn_phy::geometry::Point;
///
/// let channel = AcousticChannel::paper_default(); // 1.5 km horizon
/// let positions = vec![
///     Point::surface(0.0, 0.0),          // n0: sink
///     Point::new(0.0, 0.0, 1_200.0),     // n1
///     Point::new(0.0, 0.0, 2_400.0),     // n2
/// ];
/// let mut cache = LinkBudgetCache::with_index(&channel, &positions);
/// let mut buf = Vec::new();
/// uphill_candidates(&mut cache, &channel, &positions, 2, &mut buf);
/// assert_eq!(buf.len(), 1);
/// assert_eq!(buf[0].node, 1);
/// uphill_candidates(&mut cache, &channel, &positions, 0, &mut buf);
/// assert!(buf.is_empty());
/// ```
pub fn uphill_candidates<P: PositionSource + ?Sized>(
    cache: &mut LinkBudgetCache,
    channel: &AcousticChannel,
    positions: &P,
    from: usize,
    buf: &mut Vec<Candidate>,
) {
    buf.clear();
    cache.ensure_row(channel, positions, from);
    let depth = positions.position(from).depth();
    buf.extend(cache.row(from).iter().filter_map(|link| {
        let depth_m = positions.position(link.rx as usize).depth();
        (depth_m < depth).then_some(Candidate {
            node: link.rx,
            depth_m,
            dist_m: link.distance_m,
        })
    }));
}

/// The full greedy uphill route from `from` to the first node with no
/// shallower neighbour (a sink if the topology is connected). Includes
/// `from` itself.
///
/// The route is guaranteed to terminate because every hop strictly
/// decreases depth.
pub fn route_uphill<P: PositionSource + ?Sized>(
    cache: &mut LinkBudgetCache,
    channel: &AcousticChannel,
    positions: &P,
    from: NodeId,
) -> Vec<NodeId> {
    let mut route = vec![from];
    let mut cur = from;
    let mut buf = Vec::new();
    // Greedy never draws randomness, so a constant stream serves.
    let mut no_draws = StepRng::new(0, 0);
    loop {
        uphill_candidates(cache, channel, positions, cur.index(), &mut buf);
        let Some(next) = select_next_hop(ForwardPolicy::Greedy, &buf, &mut no_draws) else {
            return route;
        };
        cur = NodeId::new(next);
        route.push(cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uasn_phy::geometry::Point;

    /// `p`'s uphill route from `from` over the paper channel's 1.5 km
    /// horizon.
    fn route(p: &[Point], from: NodeId) -> Vec<NodeId> {
        let channel = AcousticChannel::paper_default();
        let mut cache = LinkBudgetCache::with_index(&channel, p);
        route_uphill(&mut cache, &channel, p, from)
    }

    /// The greedy next hop: the second node of the uphill route.
    fn next_hop_uphill(p: &[Point], from: NodeId) -> Option<NodeId> {
        route(p, from).get(1).copied()
    }

    fn column() -> Vec<Point> {
        vec![
            Point::surface(0.0, 0.0),        // n0 sink
            Point::new(100.0, 0.0, 1_100.0), // n1
            Point::new(0.0, 100.0, 2_200.0), // n2
            Point::new(50.0, 50.0, 3_300.0), // n3
        ]
    }

    #[test]
    fn picks_shallowest_in_range() {
        let p = column();
        assert_eq!(next_hop_uphill(&p, NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(next_hop_uphill(&p, NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(next_hop_uphill(&p, NodeId::new(1)), Some(NodeId::new(0)));
    }

    #[test]
    fn prefers_minimum_depth_over_proximity() {
        let p = vec![
            Point::new(0.0, 0.0, 100.0),    // n0 shallow but 1.4 km away
            Point::new(0.0, 0.0, 1_450.0),  // n1 nearby but deep
            Point::new(0.0, 10.0, 1_500.0), // n2: the sender
        ];
        assert_eq!(next_hop_uphill(&p, NodeId::new(2)), Some(NodeId::new(0)));
    }

    #[test]
    fn tie_on_depth_breaks_by_distance_then_id() {
        let p = vec![
            Point::new(0.0, 0.0, 500.0),       // n0, 1000 m away
            Point::new(600.0, 0.0, 500.0),     // n1, 781 m away -> wins
            Point::new(600.0, 800.0, 1_300.0), // n2: sender
        ];
        assert_eq!(next_hop_uphill(&p, NodeId::new(2)), Some(NodeId::new(1)));
    }

    #[test]
    fn stranded_node_has_no_next_hop() {
        let p = vec![
            Point::surface(0.0, 0.0),
            Point::new(0.0, 0.0, 5_000.0), // far below everything
        ];
        assert_eq!(next_hop_uphill(&p, NodeId::new(1)), None);
    }

    #[test]
    fn sink_has_no_next_hop() {
        let p = column();
        assert_eq!(next_hop_uphill(&p, NodeId::new(0)), None);
    }

    #[test]
    fn route_terminates_at_sink() {
        let p = column();
        let route = route(&p, NodeId::new(3));
        assert_eq!(
            route,
            vec![
                NodeId::new(3),
                NodeId::new(2),
                NodeId::new(1),
                NodeId::new(0)
            ]
        );
    }

    #[test]
    fn route_from_sink_is_single_node() {
        let p = column();
        assert_eq!(route(&p, NodeId::new(0)), vec![NodeId::new(0)]);
    }

    #[test]
    fn equal_depth_nodes_do_not_route_to_each_other() {
        let p = vec![Point::new(0.0, 0.0, 500.0), Point::new(100.0, 0.0, 500.0)];
        assert_eq!(next_hop_uphill(&p, NodeId::new(0)), None);
        assert_eq!(next_hop_uphill(&p, NodeId::new(1)), None);
    }
}
