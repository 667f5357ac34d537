//! Depth-based next-hop candidates.
//!
//! The paper assumes routing is solved elsewhere ("sensors at greater
//! depths transmit packets to sensors closer to the surface"; localization
//! "has been dealt with by other protocols"). We implement the standard
//! greedy depth routing that realises that assumption. This module owns
//! the one neighbourhood scan: a node's candidates are the strictly
//! shallower nodes within acoustic range. The choice among them is
//! [`uasn_route::select_next_hop`]'s; under [`ForwardPolicy::Greedy`] it is
//! the candidate with the smallest depth, i.e. the one closest to the
//! surface (ties broken by distance, then id for determinism). Every run
//! of the world forwards through this pair, with greedy as the policy when
//! no routing configuration is set.

use rand::rngs::mock::StepRng;
use uasn_phy::soa::PositionSource;
use uasn_route::{select_next_hop, Candidate, ForwardPolicy};

use crate::node::NodeId;

/// Fills `buf` with `from`'s forwarding candidates: every strictly
/// shallower node within `comm_range_m`, in ascending node order. The
/// buffer is cleared first and reused, so the scan does not allocate once
/// it has grown to the largest neighbourhood.
///
/// An empty result means the node is stranded (no shallower neighbour in
/// range) — the caller counts the packet as unroutable.
///
/// # Examples
///
/// ```
/// use uasn_net::routing::uphill_candidates;
/// use uasn_phy::geometry::Point;
///
/// let positions = vec![
///     Point::surface(0.0, 0.0),          // n0: sink
///     Point::new(0.0, 0.0, 1_200.0),     // n1
///     Point::new(0.0, 0.0, 2_400.0),     // n2
/// ];
/// let mut buf = Vec::new();
/// uphill_candidates(&positions, 2, 1_500.0, &mut buf);
/// assert_eq!(buf.len(), 1);
/// assert_eq!(buf[0].node, 1);
/// uphill_candidates(&positions, 0, 1_500.0, &mut buf);
/// assert!(buf.is_empty());
/// ```
pub fn uphill_candidates<P: PositionSource + ?Sized>(
    positions: &P,
    from: usize,
    comm_range_m: f64,
    buf: &mut Vec<Candidate>,
) {
    buf.clear();
    let me = positions.position(from);
    for idx in 0..positions.node_count() {
        let p = positions.position(idx);
        if idx == from || p.depth() >= me.depth() {
            continue;
        }
        let dist = me.distance(p);
        if dist > comm_range_m {
            continue;
        }
        buf.push(Candidate {
            node: idx as u32,
            depth_m: p.depth(),
            dist_m: dist,
        });
    }
}

/// The full greedy uphill route from `from` to the first node with no
/// shallower neighbour (a sink if the topology is connected). Includes
/// `from` itself.
///
/// The route is guaranteed to terminate because every hop strictly
/// decreases depth.
pub fn route_uphill<P: PositionSource + ?Sized>(
    positions: &P,
    from: NodeId,
    comm_range_m: f64,
) -> Vec<NodeId> {
    let mut route = vec![from];
    let mut cur = from;
    let mut buf = Vec::new();
    // Greedy never draws randomness, so a constant stream serves.
    let mut no_draws = StepRng::new(0, 0);
    loop {
        uphill_candidates(positions, cur.index(), comm_range_m, &mut buf);
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

    /// The greedy next hop: the second node of the uphill route.
    fn next_hop_uphill(p: &[Point], from: NodeId, range: f64) -> Option<NodeId> {
        route_uphill(p, from, range).get(1).copied()
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
        assert_eq!(
            next_hop_uphill(&p, NodeId::new(3), 1_500.0),
            Some(NodeId::new(2))
        );
        assert_eq!(
            next_hop_uphill(&p, NodeId::new(2), 1_500.0),
            Some(NodeId::new(1))
        );
        assert_eq!(
            next_hop_uphill(&p, NodeId::new(1), 1_500.0),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn prefers_minimum_depth_over_proximity() {
        let p = vec![
            Point::new(0.0, 0.0, 100.0),    // n0 shallow but 1.4 km away
            Point::new(0.0, 0.0, 1_450.0),  // n1 nearby but deep
            Point::new(0.0, 10.0, 1_500.0), // n2: the sender
        ];
        assert_eq!(
            next_hop_uphill(&p, NodeId::new(2), 1_500.0),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn tie_on_depth_breaks_by_distance_then_id() {
        let p = vec![
            Point::new(0.0, 0.0, 500.0),       // n0, 1000 m away
            Point::new(600.0, 0.0, 500.0),     // n1, 781 m away -> wins
            Point::new(600.0, 800.0, 1_300.0), // n2: sender
        ];
        assert_eq!(
            next_hop_uphill(&p, NodeId::new(2), 1_500.0),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn stranded_node_has_no_next_hop() {
        let p = vec![
            Point::surface(0.0, 0.0),
            Point::new(0.0, 0.0, 5_000.0), // far below everything
        ];
        assert_eq!(next_hop_uphill(&p, NodeId::new(1), 1_500.0), None);
    }

    #[test]
    fn sink_has_no_next_hop() {
        let p = column();
        assert_eq!(next_hop_uphill(&p, NodeId::new(0), 1_500.0), None);
    }

    #[test]
    fn route_terminates_at_sink() {
        let p = column();
        let route = route_uphill(&p, NodeId::new(3), 1_500.0);
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
        assert_eq!(
            route_uphill(&p, NodeId::new(0), 1_500.0),
            vec![NodeId::new(0)]
        );
    }

    #[test]
    fn equal_depth_nodes_do_not_route_to_each_other() {
        let p = vec![Point::new(0.0, 0.0, 500.0), Point::new(100.0, 0.0, 500.0)];
        assert_eq!(next_hop_uphill(&p, NodeId::new(0), 1_500.0), None);
        assert_eq!(next_hop_uphill(&p, NodeId::new(1), 1_500.0), None);
    }
}
