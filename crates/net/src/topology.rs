//! Deployment generation.
//!
//! The paper deploys sensors in a water column with sinks on the surface
//! (Figure 1): *"sensors at greater depths transmit packets to sensors
//! closer to the surface"*. Table 2 says "1000 km³" — which, taken as a
//! uniform box with a 1.5 km range and 60 nodes, is severely disconnected.
//! Reproduction decision (DESIGN.md): the default generator is a
//! **layered column** that realises Figure 1 — depth layers one hop apart,
//! sinks on top, guaranteed uphill connectivity — inside a fixed volume, so
//! that raising the node count raises density (degree, hidden-terminal
//! pairs) the way §5's Figure 7 sweep requires. The literal
//! [`Deployment::UniformBox`] remains available.

use rand::Rng;

use uasn_phy::geometry::{Point, Region};
use uasn_phy::grid::SpatialGrid;

use crate::error::BuildNetworkError;
use crate::node::{NodeId, NodeInfo, NodeRole};

/// How nodes are placed in the water.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// Uniformly random positions in a region (paper Table 2 taken
    /// literally). No connectivity guarantee.
    UniformBox {
        /// The deployment region.
        region: Region,
    },
    /// Figure-1-style column: sinks on the surface, sensors stratified into
    /// depth layers spaced one acoustic hop apart, with a repair pass that
    /// guarantees every sensor an in-range shallower neighbour.
    LayeredColumn {
        /// Horizontal extent (square side), metres.
        extent_m: f64,
        /// Number of sensor layers below the surface.
        layers: u32,
        /// Vertical spacing between layers, metres. Must be below the
        /// communication range for connectivity to be repairable.
        layer_spacing_m: f64,
    },
}

impl Deployment {
    /// The deployment the figure experiments use: a 2.5 km × 2.5 km column,
    /// five layers 1.2 km apart (inside the 1.5 km range).
    pub fn paper_column() -> Self {
        Deployment::LayeredColumn {
            extent_m: 2_500.0,
            layers: 5,
            layer_spacing_m: 1_200.0,
        }
    }

    /// The density-sweep variant (Figures 7, 9b, 10a): the column volume is
    /// fixed (2.5 km × 2.5 km × 6 km) while the layer count grows with the
    /// node count. Denser deployments multiply the audible degree and the
    /// hidden-terminal pairs each exchange must coexist with — the
    /// contention squeeze behind the paper's Figure-7 claim that reuse
    /// protocols lose their advantage as density grows (see
    /// `crate::analysis` for the static measurement).
    pub fn paper_column_for(sensors: u32) -> Self {
        let layers = (sensors / 12).clamp(5, 20);
        Deployment::LayeredColumn {
            extent_m: 2_500.0,
            layers,
            layer_spacing_m: 6_000.0 / layers as f64,
        }
    }

    /// The bounding region of this deployment.
    pub fn region(&self) -> Region {
        match *self {
            Deployment::UniformBox { region } => region,
            Deployment::LayeredColumn {
                extent_m,
                layers,
                layer_spacing_m,
            } => Region::new(extent_m, extent_m, (layers as f64 + 0.5) * layer_spacing_m),
        }
    }

    /// Generates `sensors` sensor nodes and `sinks` surface sinks.
    ///
    /// Node ids: sinks occupy `0..sinks`, sensors follow. All nodes are
    /// generated with static mobility; callers overlay mobility models
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError::PlacementFailed`] for impossible
    /// parameters (zero sensors/sinks, layer spacing ≥ communication range
    /// in the layered generator).
    pub fn generate<R: Rng>(
        &self,
        rng: &mut R,
        sensors: u32,
        sinks: u32,
        comm_range_m: f64,
    ) -> Result<Vec<NodeInfo>, BuildNetworkError> {
        if sensors == 0 {
            return Err(BuildNetworkError::PlacementFailed {
                reason: "at least one sensor is required".into(),
            });
        }
        if sinks == 0 {
            return Err(BuildNetworkError::PlacementFailed {
                reason: "at least one sink is required".into(),
            });
        }
        match *self {
            Deployment::UniformBox { region } => Ok(generate_uniform(rng, sensors, sinks, &region)),
            Deployment::LayeredColumn {
                extent_m,
                layers,
                layer_spacing_m,
            } => generate_layered(
                rng,
                sensors,
                sinks,
                extent_m,
                layers,
                layer_spacing_m,
                comm_range_m,
            ),
        }
    }
}

fn generate_uniform<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    region: &Region,
) -> Vec<NodeInfo> {
    let mut nodes = Vec::with_capacity((sensors + sinks) as usize);
    for i in 0..sinks {
        let p = Point::surface(
            rng.gen_range(0.0..=region.width()),
            rng.gen_range(0.0..=region.length()),
        );
        nodes.push(NodeInfo::anchored(NodeId::new(i), p, NodeRole::Sink));
    }
    for i in 0..sensors {
        let p = Point::new(
            rng.gen_range(0.0..=region.width()),
            rng.gen_range(0.0..=region.length()),
            rng.gen_range(0.0..=region.depth()),
        );
        nodes.push(NodeInfo::anchored(
            NodeId::new(sinks + i),
            p,
            NodeRole::Sensor,
        ));
    }
    nodes
}

#[allow(clippy::too_many_arguments)]
fn generate_layered<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    extent_m: f64,
    layers: u32,
    layer_spacing_m: f64,
    comm_range_m: f64,
) -> Result<Vec<NodeInfo>, BuildNetworkError> {
    if layers == 0 {
        return Err(BuildNetworkError::PlacementFailed {
            reason: "layered column needs at least one layer".into(),
        });
    }
    if layer_spacing_m >= comm_range_m {
        return Err(BuildNetworkError::PlacementFailed {
            reason: format!(
                "layer spacing {layer_spacing_m} m is not below the communication range {comm_range_m} m; uphill links cannot exist"
            ),
        });
    }

    let mut nodes = place_layered(rng, sensors, sinks, extent_m, layers, layer_spacing_m);
    repair_layered(&mut nodes, sinks, comm_range_m)?;
    Ok(nodes)
}

/// The layered column's random placement, before the repair pass: every
/// RNG draw of [`Deployment::generate`] for a layered column happens here.
fn place_layered<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    extent_m: f64,
    layers: u32,
    layer_spacing_m: f64,
) -> Vec<NodeInfo> {
    let mut nodes = Vec::with_capacity((sensors + sinks) as usize);
    // Sinks: spread over the surface.
    for i in 0..sinks {
        let p = Point::surface(rng.gen_range(0.0..=extent_m), rng.gen_range(0.0..=extent_m));
        nodes.push(NodeInfo::anchored(NodeId::new(i), p, NodeRole::Sink));
    }
    // Sensors: round-robin layer assignment with ±20% depth jitter.
    for i in 0..sensors {
        let layer = 1 + (i % layers);
        let jitter = rng.gen_range(-0.2..0.2) * layer_spacing_m;
        let depth = (layer as f64 * layer_spacing_m + jitter).max(1.0);
        let p = Point::new(
            rng.gen_range(0.0..=extent_m),
            rng.gen_range(0.0..=extent_m),
            depth,
        );
        nodes.push(NodeInfo::anchored(
            NodeId::new(sinks + i),
            p,
            NodeRole::Sensor,
        ));
    }
    nodes
}

/// Repair pass, shallowest sensors first so repaired nodes can serve as
/// anchors for deeper ones: each sensor farther than 0.95 × range from its
/// nearest shallower node slides toward it until it is in range.
///
/// The anchor is the nearest eligible node. A sensor with an eligible node
/// within the target range stays put whichever node is nearest, so from
/// `STRANDED_GRID_THRESHOLD` nodes up the pass first asks a uniform grid
/// with cell edge `comm_range_m`, kept current with
/// [`SpatialGrid::note_move`] as sensors slide, whether such a node exists:
/// every node within the target range is in the queried neighbourhood.
/// Only when none does, and below the threshold, does the pass scan every
/// node for the anchor; both paths give the same positions.
fn repair_layered(
    nodes: &mut [NodeInfo],
    sinks: u32,
    comm_range_m: f64,
) -> Result<(), BuildNetworkError> {
    let mut order: Vec<usize> = (sinks as usize..nodes.len()).collect();
    order.sort_by(|&a, &b| {
        nodes[a]
            .position
            .depth()
            .partial_cmp(&nodes[b].position.depth())
            .expect("depths are finite")
    });
    let mut grid = range_grid(nodes, comm_range_m);
    let mut near = Vec::new();
    let target_range = 0.95 * comm_range_m;
    for idx in order {
        let me = nodes[idx].position;
        let eligible = |p: Point, vertical_cap: f64| {
            p.depth() < me.depth() && me.depth() - p.depth() <= vertical_cap
        };
        if let Some(grid) = &grid {
            grid.within_into(me, comm_range_m * comm_range_m, &mut near);
            let anchored = near.iter().any(|&j| {
                let p = nodes[j as usize].position;
                eligible(p, 0.9 * target_range) && me.distance(p) <= target_range
            });
            if anchored {
                continue;
            }
        }
        // Prefer an anchor whose vertical separation alone leaves horizontal
        // slack; with heavy depth jitter in sparse layers none may exist, in
        // which case take the nearest shallower node and move in 3-D.
        let nearest = |vertical_cap: f64| -> Option<Point> {
            nodes
                .iter()
                .filter(|n| eligible(n.position, vertical_cap))
                .min_by(|a, b| {
                    me.distance(a.position)
                        .partial_cmp(&me.distance(b.position))
                        .expect("distances are finite")
                })
                .map(|n| n.position)
        };
        let (anchor, slide_3d) = match nearest(0.9 * target_range) {
            Some(a) => (a, false),
            None => (
                nearest(f64::INFINITY).ok_or_else(|| BuildNetworkError::PlacementFailed {
                    reason: "sensor has no shallower node to anchor to".into(),
                })?,
                true,
            ),
        };
        if me.distance(anchor) <= target_range {
            continue;
        }
        let moved = if slide_3d {
            // Move along the line toward the anchor to 0.9 × range,
            // staying strictly deeper than it.
            let d = me.distance(anchor);
            let keep = (0.9 * target_range) / d;
            Point::new(
                anchor.x + (me.x - anchor.x) * keep,
                anchor.y + (me.y - anchor.y) * keep,
                (anchor.z + (me.z - anchor.z) * keep).max(anchor.z + 1.0),
            )
        } else {
            // Slide horizontally toward the anchor until in range; the
            // anchor was chosen with enough vertical slack.
            let dx = anchor.x - me.x;
            let dy = anchor.y - me.y;
            let horiz = (dx * dx + dy * dy).sqrt();
            let dz = me.z - anchor.z;
            let allowed_horiz = (target_range * target_range - dz * dz).max(0.0).sqrt();
            let scale = if horiz > 0.0 {
                ((horiz - allowed_horiz) / horiz).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Point::new(me.x + dx * scale, me.y + dy * scale, me.z)
        };
        nodes[idx].position = moved;
        if let Some(grid) = &mut grid {
            grid.note_move(idx as u32, moved);
        }
    }
    Ok(())
}

/// From this node count up, the repair pass and the strandedness scan look
/// for nearby nodes in a uniform grid; below it a plain O(N²) scan beats
/// building the index.
const STRANDED_GRID_THRESHOLD: usize = 256;

/// A grid over `nodes` with cell edge `comm_range_m`, or `None` below
/// `STRANDED_GRID_THRESHOLD` nodes or for a range no grid can use.
fn range_grid(nodes: &[NodeInfo], comm_range_m: f64) -> Option<SpatialGrid> {
    let usable = comm_range_m.is_finite() && comm_range_m > 0.0;
    (usable && nodes.len() >= STRANDED_GRID_THRESHOLD).then(|| {
        let positions: Vec<Point> = nodes.iter().map(|n| n.position).collect();
        SpatialGrid::build(comm_range_m, positions.as_slice())
    })
}

/// Sensors with **no** shallower node within `comm_range_m` — the stranded
/// set that would make depth routing impossible, by geometry alone.
/// `Simulation::new` checks the channel's audible pairs instead
/// (`LinkBudgetCache::audible_sweep`), which agree with this scan at
/// `max_range_m` under the lossless model.
///
/// From `STRANDED_GRID_THRESHOLD` nodes up each sensor's witnesses come
/// from one unsorted query of a uniform grid with cell edge `comm_range_m`,
/// into one reused buffer: any in-range witness is in the 27-cell
/// neighbourhood, and each candidate still takes the exact distance check,
/// so the result is identical to the brute-force scan for every input.
pub fn stranded_sensors(nodes: &[NodeInfo], comm_range_m: f64) -> Vec<NodeId> {
    let witnesses = |n: &NodeInfo, m: &NodeInfo| {
        m.position.depth() < n.position.depth() && n.position.distance(m.position) <= comm_range_m
    };
    let sensors = nodes.iter().filter(|n| !n.is_sink());
    if let Some(grid) = range_grid(nodes, comm_range_m) {
        let mut near = Vec::new();
        sensors
            .filter(|n| {
                grid.within_into(n.position, f64::INFINITY, &mut near);
                !near.iter().any(|&j| witnesses(n, &nodes[j as usize]))
            })
            .map(|n| n.id)
            .collect()
    } else {
        sensors
            .filter(|n| !nodes.iter().any(|m| witnesses(n, m)))
            .map(|n| n.id)
            .collect()
    }
}

/// All ordered audible pairs `(hearer, speaker)` within `comm_range_m`
/// (symmetric range model).
pub fn audible_pairs(nodes: &[NodeInfo], comm_range_m: f64) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for a in nodes {
        for b in nodes {
            if a.id != b.id && a.position.distance(b.position) <= comm_range_m {
                pairs.push((a.id, b.id));
            }
        }
    }
    pairs
}

/// Mean number of audible neighbours per node — the density statistic the
/// Figure 7/9b/10a sweeps vary.
pub fn mean_degree(nodes: &[NodeInfo], comm_range_m: f64) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    audible_pairs(nodes, comm_range_m).len() as f64 / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// The O(N²) repair loop as it stood before the pass was indexed, kept
    /// as the reference the production pass must reproduce bit for bit.
    fn repair_layered_brute(nodes: &mut [NodeInfo], sinks: u32, comm_range_m: f64) {
        let mut order: Vec<usize> = (sinks as usize..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            nodes[a]
                .position
                .depth()
                .partial_cmp(&nodes[b].position.depth())
                .expect("depths are finite")
        });
        for idx in order {
            let me = nodes[idx].position;
            let target_range = 0.95 * comm_range_m;
            let nearest = |vertical_cap: f64| -> Option<Point> {
                nodes
                    .iter()
                    .filter(|n| {
                        n.position.depth() < me.depth()
                            && me.depth() - n.position.depth() <= vertical_cap
                    })
                    .min_by(|a, b| {
                        me.distance(a.position)
                            .partial_cmp(&me.distance(b.position))
                            .expect("distances are finite")
                    })
                    .map(|n| n.position)
            };
            let (anchor, slide_3d) = match nearest(0.9 * target_range) {
                Some(a) => (a, false),
                None => (nearest(f64::INFINITY).expect("sinks are shallower"), true),
            };
            if me.distance(anchor) > target_range {
                if slide_3d {
                    let d = me.distance(anchor);
                    let keep = (0.9 * target_range) / d;
                    nodes[idx].position = Point::new(
                        anchor.x + (me.x - anchor.x) * keep,
                        anchor.y + (me.y - anchor.y) * keep,
                        (anchor.z + (me.z - anchor.z) * keep).max(anchor.z + 1.0),
                    );
                } else {
                    let dx = anchor.x - me.x;
                    let dy = anchor.y - me.y;
                    let horiz = (dx * dx + dy * dy).sqrt();
                    let dz = me.z - anchor.z;
                    let allowed_horiz = (target_range * target_range - dz * dz).max(0.0).sqrt();
                    let scale = if horiz > 0.0 {
                        ((horiz - allowed_horiz) / horiz).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    nodes[idx].position = Point::new(me.x + dx * scale, me.y + dy * scale, me.z);
                }
            }
        }
    }

    /// Generates `d` through the production path and through the same
    /// placement plus the brute-force repair, and requires every coordinate
    /// to match bit for bit.
    fn assert_repair_matches_brute(d: Deployment, seed: u64, sensors: u32, sinks: u32) {
        let Deployment::LayeredColumn {
            extent_m,
            layers,
            layer_spacing_m,
        } = d
        else {
            panic!("layered deployments only");
        };
        let range = 1_500.0;
        let got = d
            .generate(&mut rng(seed), sensors, sinks, range)
            .expect("generation succeeds");
        let mut want = place_layered(
            &mut rng(seed),
            sensors,
            sinks,
            extent_m,
            layers,
            layer_spacing_m,
        );
        repair_layered_brute(&mut want, sinks, range);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let (g, w) = (g.position, w.position);
            assert!(
                g.x.to_bits() == w.x.to_bits()
                    && g.y.to_bits() == w.y.to_bits()
                    && g.z.to_bits() == w.z.to_bits(),
                "seed {seed}, {sensors} sensors: node {i} at {g}, brute force {w}"
            );
        }
    }

    #[test]
    fn repair_pass_matches_brute_force_on_dense_columns() {
        let d = Deployment::LayeredColumn {
            extent_m: 5_000.0,
            layers: 10,
            layer_spacing_m: 450.0,
        };
        for seed in 0..24 {
            assert_repair_matches_brute(d, seed, 300 + 40 * (seed as u32 % 5), 3);
        }
        for seed in 0..8 {
            assert_repair_matches_brute(Deployment::paper_column_for(400), seed, 400, 3);
        }
    }

    #[test]
    fn repair_pass_matches_brute_force_on_sparse_columns() {
        // ~60 sensors per layer over 3,600 km²: most sensors have no
        // shallower node within one range, so anchors come from far away.
        let d = Deployment::LayeredColumn {
            extent_m: 60_000.0,
            layers: 5,
            layer_spacing_m: 1_200.0,
        };
        for seed in 0..16 {
            assert_repair_matches_brute(d, seed, 300, 2);
        }
    }

    #[test]
    fn repair_pass_matches_brute_force_below_the_index_threshold() {
        for seed in 0..16 {
            assert_repair_matches_brute(Deployment::paper_column(), seed, 60, 3);
        }
    }

    #[test]
    fn layered_column_is_always_uphill_connected() {
        for seed in 0..10 {
            let nodes = Deployment::paper_column()
                .generate(&mut rng(seed), 60, 3, 1_500.0)
                .expect("generation succeeds");
            assert_eq!(nodes.len(), 63);
            let stranded = stranded_sensors(&nodes, 1_500.0);
            assert!(stranded.is_empty(), "seed {seed}: stranded {stranded:?}");
        }
    }

    #[test]
    fn layered_column_scales_to_dense_networks() {
        for n in [60, 100, 140, 200] {
            let nodes = Deployment::paper_column()
                .generate(&mut rng(42), n, 3, 1_500.0)
                .expect("generation succeeds");
            assert!(stranded_sensors(&nodes, 1_500.0).is_empty(), "n={n}");
        }
    }

    #[test]
    fn density_grows_with_node_count() {
        let sparse = Deployment::paper_column()
            .generate(&mut rng(1), 60, 3, 1_500.0)
            .unwrap();
        let dense = Deployment::paper_column()
            .generate(&mut rng(1), 140, 3, 1_500.0)
            .unwrap();
        assert!(mean_degree(&dense, 1_500.0) > mean_degree(&sparse, 1_500.0));
    }

    #[test]
    fn sinks_are_first_and_on_surface() {
        let nodes = Deployment::paper_column()
            .generate(&mut rng(5), 20, 4, 1_500.0)
            .unwrap();
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, NodeId::new(i as u32));
            if i < 4 {
                assert!(n.is_sink());
                assert_eq!(n.position.depth(), 0.0);
            } else {
                assert!(!n.is_sink());
                assert!(n.position.depth() > 0.0);
            }
        }
    }

    #[test]
    fn uniform_box_fills_region() {
        let region = Region::cube(10_000.0);
        let nodes = Deployment::UniformBox { region }
            .generate(&mut rng(9), 200, 2, 1_500.0)
            .unwrap();
        for n in &nodes {
            assert!(region.contains(n.position), "{} outside region", n.position);
        }
        // Table-2-literal box at 60 nodes is expected to be disconnected —
        // documenting the reproduction decision as a test.
        let sparse = Deployment::UniformBox { region }
            .generate(&mut rng(10), 60, 2, 1_500.0)
            .unwrap();
        assert!(!stranded_sensors(&sparse, 1_500.0).is_empty());
    }

    #[test]
    fn zero_sensor_or_sink_rejected() {
        let d = Deployment::paper_column();
        assert!(d.generate(&mut rng(0), 0, 1, 1_500.0).is_err());
        assert!(d.generate(&mut rng(0), 10, 0, 1_500.0).is_err());
    }

    #[test]
    fn layer_spacing_must_be_below_range() {
        let d = Deployment::LayeredColumn {
            extent_m: 2_000.0,
            layers: 3,
            layer_spacing_m: 1_600.0,
        };
        let err = d.generate(&mut rng(0), 10, 1, 1_500.0).unwrap_err();
        assert!(matches!(err, BuildNetworkError::PlacementFailed { .. }));
    }

    #[test]
    fn audible_pairs_are_symmetric() {
        let nodes = Deployment::paper_column()
            .generate(&mut rng(2), 30, 2, 1_500.0)
            .unwrap();
        let pairs = audible_pairs(&nodes, 1_500.0);
        for &(a, b) in &pairs {
            assert!(pairs.contains(&(b, a)), "({a},{b}) missing reverse");
        }
    }

    #[test]
    fn region_covers_layers() {
        let d = Deployment::paper_column();
        let r = d.region();
        assert!(r.depth() >= 5.0 * 1_200.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Deployment::paper_column()
            .generate(&mut rng(77), 40, 2, 1_500.0)
            .unwrap();
        let b = Deployment::paper_column()
            .generate(&mut rng(77), 40, 2, 1_500.0)
            .unwrap();
        assert_eq!(a, b);
    }
}
