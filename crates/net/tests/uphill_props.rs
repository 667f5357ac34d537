//! Differential properties of the routing candidates read off the link
//! cache's rows against the geometric all-node scan they replaced.
//!
//! Under the lossless PER model a node hears exactly the nodes within the
//! channel's horizon, so the strictly shallower receivers of its row must
//! be the scan's candidates: the same nodes, in the same (ascending) order,
//! with bit-equal distances — the greedy tie-break and every randomized
//! policy read them in that order. The properties run over random layouts,
//! horizons and mobility epochs, with and without the spatial index.

use proptest::prelude::*;
use rand::rngs::mock::StepRng;

use uasn_net::node::NodeId;
use uasn_net::routing::{route_uphill, uphill_candidates};
use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::geometry::Point;
use uasn_phy::per::PerModel;
use uasn_route::{select_next_hop, Candidate, ForwardPolicy};

/// The paper channel's budget and lossless PER under a horizon of
/// `range_m`.
fn lossless(range_m: f64) -> AcousticChannel {
    let paper = AcousticChannel::paper_default();
    AcousticChannel::new(*paper.sound(), *paper.budget(), PerModel::Lossless, range_m)
}

/// The geometric scan the candidates used to come from: every strictly
/// shallower node within `comm_range_m`, ascending.
fn scan_candidates(positions: &[Point], from: usize, comm_range_m: f64) -> Vec<Candidate> {
    let me = positions[from];
    let mut buf = Vec::new();
    for (idx, &p) in positions.iter().enumerate() {
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
    buf
}

/// The greedy route over [`scan_candidates`].
fn scan_route(positions: &[Point], from: NodeId, comm_range_m: f64) -> Vec<NodeId> {
    let mut route = vec![from];
    let mut cur = from;
    let mut no_draws = StepRng::new(0, 0);
    loop {
        let buf = scan_candidates(positions, cur.index(), comm_range_m);
        let Some(next) = select_next_hop(ForwardPolicy::Greedy, &buf, &mut no_draws) else {
            return route;
        };
        cur = NodeId::new(next);
        route.push(cur);
    }
}

/// Candidates as comparable bits: `(node, depth bits, distance bits)`.
fn bits(candidates: &[Candidate]) -> Vec<(u32, u64, u64)> {
    candidates
        .iter()
        .map(|c| (c.node, c.depth_m.to_bits(), c.dist_m.to_bits()))
        .collect()
}

/// Random node positions inside a 5 km × 5 km × 4 km box; some nodes sit
/// at the surface, as sinks do.
fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0f64..5_000.0, 0.0f64..5_000.0, 0.0f64..4_000.0, 0u8..5),
        2..40,
    )
    .prop_map(|coords| {
        coords
            .into_iter()
            .map(|(x, y, z, kind)| {
                if kind == 0 {
                    Point::surface(x, y)
                } else {
                    Point::new(x, y, z)
                }
            })
            .collect()
    })
}

proptest! {
    /// Row-based candidates and routes equal the geometric scan's, epoch
    /// after epoch, whether each row is fresh or rebuilt.
    #[test]
    fn row_candidates_match_the_geometric_scan(
        start in positions_strategy(),
        range_m in 300.0f64..3_000.0,
        indexed in proptest::bool::ANY,
        prebuilt in proptest::num::u64::ANY,
        moves in proptest::collection::vec(
            (0usize..40, -2_000.0f64..2_000.0, -2_000.0f64..2_000.0, -1_500.0f64..1_500.0),
            0..12,
        ),
    ) {
        let channel = lossless(range_m);
        let mut positions = start;
        let n = positions.len();
        let mut cache = if indexed {
            LinkBudgetCache::with_index(&channel, &positions)
        } else {
            LinkBudgetCache::new(&channel, n)
        };
        let mut buf = Vec::new();
        for epoch in 0..3 {
            for from in 0..n {
                // Rows picked by `prebuilt` are fresh before the lookup.
                if prebuilt >> ((from + 7 * epoch) % 64) & 1 == 1 {
                    cache.ensure_row(&channel, &positions, from);
                }
                uphill_candidates(&mut cache, &channel, &positions, from, &mut buf);
                prop_assert_eq!(
                    bits(&buf),
                    bits(&scan_candidates(&positions, from, range_m)),
                    "epoch {}, node {}", epoch, from
                );
            }
            for from in 0..n {
                let id = NodeId::new(from as u32);
                prop_assert_eq!(
                    route_uphill(&mut cache, &channel, &positions, id),
                    scan_route(&positions, id, range_m),
                    "epoch {}, node {}", epoch, from
                );
            }
            // One mobility epoch: move some nodes, keep the index current,
            // invalidate every row.
            for &(node, dx, dy, dz) in moves.iter().skip(4 * epoch).take(4) {
                let node = node % n;
                let p = positions[node];
                let moved = Point::new(p.x + dx, p.y + dy, (p.z + dz).max(0.0));
                positions[node] = moved;
                cache.note_move(node as u32, moved);
            }
            cache.invalidate();
        }
    }
}
