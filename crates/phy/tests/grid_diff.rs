//! Differential properties of the spatial grid index against the
//! brute-force O(N) scan, over random geometries and all three PER models.
//!
//! The index accelerates [`LinkBudgetCache`] row builds by visiting only
//! the transmitter's 27-cell neighbourhood. Its contract is exact: for any
//! geometry, mobility history, and PER model, the indexed cache must
//! produce **bit-identical** rows — same receivers, same order, same link
//! budgets, same statistics — as the unindexed cache, because the network
//! layer's channel-RNG stream is consumed per row entry. These properties
//! pin the two clauses the acceptance gate singles out: the candidate set
//! is always a superset of the audible set (no receiver with PER < 1 is
//! ever skipped), and indexed rows equal brute-force rows exactly.

use proptest::prelude::*;

use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::geometry::Point;
use uasn_phy::grid::SpatialGrid;
use uasn_phy::noise::AmbientNoise;
use uasn_phy::per::{Modulation, PerModel};
use uasn_phy::propagation::{LinkBudget, Spreading, TransmissionLoss};
use uasn_phy::soa::PositionTable;
use uasn_phy::sound::SoundSpeedProfile;

/// A channel for PER-model index `model` (0 = lossless, 1 = SNR
/// threshold, 2 = probabilistic modulation), with a configurable horizon
/// (`cutoff`, also scaling the SNR threshold) so the sweep exercises
/// different audible-set shapes. The horizon bounds every model, so every
/// model gets an index.
fn channel_for(model: u8, cutoff: f64) -> AcousticChannel {
    let per = match model {
        0 => PerModel::Lossless,
        1 => PerModel::SnrThreshold {
            threshold_db: cutoff / 100.0,
        },
        _ => PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        },
    };
    AcousticChannel::new(
        SoundSpeedProfile::default(),
        LinkBudget::new(
            170.0,
            TransmissionLoss::new(Spreading::Spherical, 10.0),
            AmbientNoise::default(),
            12_000.0,
        ),
        per,
        cutoff,
    )
}

/// Raw per-node draws: `(x, y, depth fraction, layer jitter)`.
fn raw_nodes() -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec(
        (0.0f64..4_000.0, 0.0f64..4_000.0, 0.0f64..1.0, -0.2f64..0.2),
        2..14,
    )
}

/// Realizes one of the two geometry families from raw node draws:
/// `geom == 0` is a uniform 6 km × 6 km × 1 km box, `geom == 1` a
/// layered column (nodes snapped to depth layers with ±20% jitter — the
/// paper's Figure-1 deployment family, whose stratified depths stress grid
/// binning along one axis).
fn build_geometry(geom: u8, layers: u32, spacing: f64, raw: &[(f64, f64, f64, f64)]) -> Vec<Point> {
    raw.iter()
        .map(|&(x, y, u, jitter)| {
            if geom == 0 {
                Point::new(x * 1.5, y * 1.5, u * 1_000.0)
            } else {
                let layer = (u * layers as f64).floor().min(layers as f64 - 1.0);
                Point::new(x, y, (layer + 1.0 + jitter) * spacing)
            }
        })
        .collect()
}

/// Bounded per-node displacements standing in for mobility-epoch steps:
/// large ones that usually change a node's cell, ±50 m ones that usually
/// keep it in its cell but still move it across the cull radius of nearby
/// transmitters, and ±48 km ones that leave the build-time bounding box,
/// so the grid must clamp the node into a border cell.
fn moves() -> impl Strategy<Value = Vec<(usize, f64, f64, f64)>> {
    let step = (
        0usize..14,
        -800.0f64..800.0,
        -800.0f64..800.0,
        -200.0f64..200.0,
        0u8..3,
    )
        .prop_map(|(node, dx, dy, dz, kind)| match kind {
            0 => (node, dx, dy, dz),
            1 => (node, dx / 16.0, dy / 16.0, dz / 4.0),
            _ => (node, dx * 60.0, dy * 60.0, dz * 20.0),
        });
    proptest::collection::vec(step, 0..12)
}

/// Sorted bounded grid query, for comparison with a brute-force filter.
fn sorted_within(grid: &SpatialGrid, p: Point, r2: f64) -> Vec<u32> {
    let mut got = Vec::new();
    grid.within_into(p, r2, &mut got);
    got.sort_unstable();
    got
}

fn brute_within(positions: &[Point], p: Point, r2: f64) -> Vec<u32> {
    (0..positions.len() as u32)
        .filter(|&j| p.distance_sq(positions[j as usize]) <= r2)
        .collect()
}

/// Asserts two caches hold bit-identical rows and statistics for every
/// transmitter (rows must already be built on both). Panics on divergence,
/// which the proptest runner reports with the failing case's seed.
fn assert_rows_identical(a: &LinkBudgetCache, b: &LinkBudgetCache, n: usize) {
    for tx in 0..n {
        let (ra, rb) = (a.row(tx), b.row(tx));
        assert_eq!(ra.len(), rb.len(), "row length mismatch for tx {tx}");
        for (la, lb) in ra.iter().zip(rb.iter()) {
            assert_eq!(la.rx, lb.rx, "receiver set diverged for tx {tx}");
            assert_eq!(la.distance_m.to_bits(), lb.distance_m.to_bits());
            assert_eq!(la.snr_db.to_bits(), lb.snr_db.to_bits());
            assert_eq!(la.delay, lb.delay);
            assert_eq!(la.echo_delay, lb.echo_delay);
        }
    }
    assert_eq!(a.stats(), b.stats(), "cache statistics diverged");
}

proptest! {
    /// Grid candidate sets are a superset of the brute-force audible set:
    /// for arbitrary geometry and any PER model that admits an index, no
    /// receiver with packet-error rate < 1 is outside the transmitter's
    /// 27-cell neighbourhood.
    #[test]
    fn candidates_are_a_superset_of_the_audible_set(
        geom in 0u8..2,
        layers in 2u32..6,
        spacing in 300.0f64..1_200.0,
        raw in raw_nodes(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        bits in 1u32..2_048,
    ) {
        let positions = build_geometry(geom, layers, spacing, &raw);
        let ch = channel_for(model, cutoff);
        let grid = SpatialGrid::build(ch.index_cell_m().unwrap(), positions.as_slice());
        let mut cand = Vec::new();
        for tx in 0..positions.len() {
            grid.candidates_into(positions[tx], &mut cand);
            for (j, &to) in positions.iter().enumerate() {
                if j == tx {
                    continue;
                }
                if ch.loss_probability(positions[tx], to, bits) < 1.0 {
                    prop_assert!(
                        cand.binary_search(&(j as u32)).is_ok(),
                        "grid dropped deliverable receiver {} of tx {}", j, tx
                    );
                }
            }
        }
    }

    /// Indexed and unindexed caches produce bit-identical rows and
    /// statistics on static geometries, for all three PER models.
    #[test]
    fn indexed_rows_match_brute_force_rows(
        geom in 0u8..2,
        layers in 2u32..6,
        spacing in 300.0f64..1_200.0,
        raw in raw_nodes(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
    ) {
        let positions = build_geometry(geom, layers, spacing, &raw);
        let ch = channel_for(model, cutoff);
        let mut plain = LinkBudgetCache::new(&ch, positions.len());
        let mut indexed = LinkBudgetCache::with_index(&ch, &positions);
        prop_assert_eq!(indexed.has_index(), ch.index_cell_m().is_some());
        for tx in 0..positions.len() {
            plain.ensure_row(&ch, &positions, tx);
            indexed.ensure_row(&ch, &positions, tx);
        }
        assert_rows_identical(&plain, &indexed, positions.len());
    }

    /// Mobility epochs: after arbitrary moves kept fresh via `note_move` +
    /// `invalidate`, the incrementally maintained index still yields rows
    /// bit-identical to both a fresh unindexed cache and a fresh index
    /// built from the final geometry.
    #[test]
    fn incremental_index_survives_mobility_epochs(
        geom in 0u8..2,
        layers in 2u32..6,
        spacing in 300.0f64..1_200.0,
        raw in raw_nodes(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        steps in moves(),
    ) {
        let mut positions = build_geometry(geom, layers, spacing, &raw);
        let ch = channel_for(model, cutoff);
        let n = positions.len();
        let mut incremental = LinkBudgetCache::with_index(&ch, &positions);
        // Warm every row so the epoch bumps below really exercise stale
        // invalidation, not first builds.
        for tx in 0..n {
            incremental.ensure_row(&ch, &positions, tx);
        }
        for &(node, dx, dy, dz) in &steps {
            let node = node % n;
            let p = positions[node];
            let moved = Point::new(p.x + dx, p.y + dy, (p.z + dz).max(0.0));
            positions[node] = moved;
            incremental.note_move(node as u32, moved);
            incremental.invalidate();
        }
        let mut fresh_plain = LinkBudgetCache::new(&ch, n);
        let mut fresh_indexed = LinkBudgetCache::with_index(&ch, &positions);
        for tx in 0..n {
            incremental.ensure_row(&ch, &positions, tx);
            fresh_plain.ensure_row(&ch, &positions, tx);
            fresh_indexed.ensure_row(&ch, &positions, tx);
        }
        // Lifetime stats necessarily differ (the incremental cache lived
        // through the epochs), so compare its rows only, then the two
        // fresh caches in full.
        for tx in 0..n {
            let (ri, rf) = (incremental.row(tx), fresh_indexed.row(tx));
            prop_assert_eq!(ri.len(), rf.len(), "row length mismatch for tx {}", tx);
            for (a, b) in ri.iter().zip(rf.iter()) {
                prop_assert_eq!(a.rx, b.rx);
                prop_assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
            }
        }
        assert_rows_identical(&fresh_plain, &fresh_indexed, n);
    }

    /// The struct-of-arrays position table drives the cache to the exact
    /// rows the `Vec<Point>` layout produces: layout is invisible to the
    /// link-budget arithmetic.
    #[test]
    fn soa_layout_is_bit_identical_to_aos(
        geom in 0u8..2,
        layers in 2u32..6,
        spacing in 300.0f64..1_200.0,
        raw in raw_nodes(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
    ) {
        let positions = build_geometry(geom, layers, spacing, &raw);
        let ch = channel_for(model, cutoff);
        let table = PositionTable::from_points(&positions);
        let mut from_vec = LinkBudgetCache::with_index(&ch, &positions);
        let mut from_table = LinkBudgetCache::with_index(&ch, &table);
        for tx in 0..positions.len() {
            from_vec.ensure_row(&ch, &positions, tx);
            from_table.ensure_row(&ch, &table, tx);
        }
        assert_rows_identical(&from_vec, &from_table, positions.len());
    }

    /// Moves far outside the build-time bounding box: the incrementally
    /// maintained grid clamps them into border cells, and its bounded
    /// queries still equal both a fresh grid's and the brute-force filter,
    /// at node positions and at arbitrary points inside and outside the box.
    #[test]
    fn far_moves_keep_bounded_queries_exact(
        geom in 0u8..2,
        layers in 2u32..6,
        spacing in 300.0f64..1_200.0,
        raw in raw_nodes(),
        cell in 300.0f64..3_000.0,
        steps in moves(),
        probes in proptest::collection::vec(
            (-60_000.0f64..60_000.0, -60_000.0f64..60_000.0, -5_000.0f64..20_000.0, 0.0f64..1.0),
            1..8,
        ),
    ) {
        let mut positions = build_geometry(geom, layers, spacing, &raw);
        let n = positions.len();
        let mut grid = SpatialGrid::build(cell, positions.as_slice());
        for &(node, dx, dy, dz) in &steps {
            let node = node % n;
            let p = positions[node];
            positions[node] = Point::new(p.x + dx, p.y + dy, p.z + dz);
            grid.note_move(node as u32, positions[node]);
        }
        let fresh = SpatialGrid::build(cell, positions.as_slice());
        let points = positions
            .iter()
            .map(|&p| (p, 1.0))
            .chain(probes.iter().map(|&(x, y, z, f)| (Point::new(x, y, z), f)));
        for (p, frac) in points {
            let r2 = (frac * cell) * (frac * cell);
            let want = brute_within(&positions, p, r2);
            prop_assert_eq!(sorted_within(&grid, p, r2), want.clone(), "incremental at {}", p);
            prop_assert_eq!(sorted_within(&fresh, p, r2), want, "fresh at {}", p);
        }
    }

    /// Sparse layouts over extents up to 4,000 km would need far more cells
    /// than nodes at the requested edge. The build grows the edge, keeps the
    /// array within about two cells per node (or the small fixed budget),
    /// and bounded queries up to the requested edge stay exact.
    #[test]
    fn sparse_huge_extents_grow_the_edge_and_stay_exact(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..1_200),
        extent in 1.0e4f64..4.0e6,
        cell in 300.0f64..3_000.0,
        frac in 0.0f64..1.0,
    ) {
        let positions: Vec<Point> = raw
            .iter()
            .map(|&(x, y, z)| Point::new(x * extent, y * extent, z * 5_000.0))
            .collect();
        let n = positions.len();
        let grid = SpatialGrid::build(cell, positions.as_slice());
        prop_assert!(grid.cell_m() >= cell);
        prop_assert!(
            grid.cell_count() <= (2 * n).max(1_024),
            "{} cells for {} nodes", grid.cell_count(), n
        );
        let r2 = (frac * cell) * (frac * cell);
        for &p in positions.iter().step_by(13) {
            prop_assert_eq!(sorted_within(&grid, p, r2), brute_within(&positions, p, r2));
        }
    }
}
