//! Uniform-grid spatial index over node positions.
//!
//! Partitions the build-time bounding box into axis-aligned cubic cells of
//! edge `cell_m` and stores one bucket per cell in a flat, row-major array
//! (x fastest, then y, then z). A node's cell is `floor(coordinate /
//! cell_m)` per axis, offset by the box's minimum cell. Each bucket stores
//! its nodes' positions next to their indices, so a query walks contiguous
//! memory, and it finds its buckets by index arithmetic with no hashing.
//!
//! A query gathers the 27-cell neighbourhood (3×3×3) around a query point,
//! which is a **superset** of every node within `cell_m` of the point: a
//! node outside the neighbourhood differs from the query by at least two
//! whole cells along some axis, so its distance along that axis alone
//! exceeds `cell_m`. Three details keep that argument true on the flat
//! array:
//!
//! - **Clamping.** A position outside the build-time box (a node that moved
//!   away, or a query point) clamps into the border cell along each axis it
//!   overshoots. Clamping is monotone and never widens the gap between two
//!   cell indices, so two points at most one cell apart stay at most one
//!   cell apart, and the neighbourhood still holds every node within
//!   `cell_m`. Border cells simply collect more nodes.
//! - **Edge growth.** A sparse layout over a huge extent would need far
//!   more cells than nodes. When the box needs more than about two cells
//!   per node (and more than a small fixed budget), [`SpatialGrid::build`]
//!   doubles the edge until it does not.
//!   Any edge at least the requested one keeps the superset argument, so
//!   queries stay exact; they only see more candidates.
//! - **The cull.** [`SpatialGrid::within_into`] applies a squared-distance
//!   bound to the stored positions while it walks the buckets, so callers
//!   see only the survivors. The loop writes every candidate and advances
//!   the output length by the comparison's outcome, so it has no
//!   data-dependent branch.
//! - **The pair sweep.** [`SpatialGrid::for_each_pair_within`] asks the
//!   bounded question for every node at once. Each cell pairs its nodes
//!   among themselves and with its 13 forward neighbour cells (one of each
//!   opposite pair of the 26), so every unordered pair of nodes in
//!   touching cells is tested once, with the same comparison on the same
//!   stored positions as the per-node query.
//!
//! The link-budget cache sizes cells at the channel's horizon padded
//! by [`crate::cache::CULL_MARGIN`] **twice** (see
//! [`crate::channel::AcousticChannel::index_cell_m`]): once is the margin the
//! brute-force cull itself applies, and the second keeps a full 5% gap
//! between the neighbourhood boundary and the cull radius so no
//! floating-point edge case (cell binning divides, the cull multiplies) can
//! make the grid skip a node the brute-force scan would have kept. Skipped
//! nodes are therefore provably beyond the cull radius. The bound test is
//! the cull's own [`Point::distance_sq`] comparison on the same stored
//! coordinates, so visiting the sorted survivors reproduces the brute-force
//! scan's row — and its RNG consumption — bit for bit. The differential
//! property tests in `crates/phy/tests/grid_diff.rs` enforce exactly this.

use crate::geometry::Point;
use crate::soa::PositionSource;

/// Cells the array may always use, whatever the node count. An array this
/// small (24 KiB of empty buckets) costs less than coarse cells would in
/// extra candidates per query. It must be at least 8: a box that straddles
/// a cell boundary on every axis spans 2 cells per axis at any edge.
const MIN_CELL_BUDGET: usize = 1024;

/// A uniform grid of node indices over a flat cell array, supporting
/// incremental moves.
///
/// # Examples
///
/// ```
/// use uasn_phy::geometry::Point;
/// use uasn_phy::grid::SpatialGrid;
///
/// let positions = vec![
///     Point::new(0.0, 0.0, 0.0),
///     Point::new(500.0, 0.0, 0.0),
///     Point::new(50_000.0, 0.0, 0.0),
/// ];
/// let grid = SpatialGrid::build(1_000.0, &positions);
/// let mut near = Vec::new();
/// grid.candidates_into(positions[0], &mut near);
/// assert_eq!(near, [0, 1]); // the 50 km node is not a candidate
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell edge in use: the requested edge, or a multiple of it.
    cell_m: f64,
    /// Cell coordinates of the box's minimum corner, per axis.
    origin: [i64; 3],
    /// Cells along each axis, each at least 1.
    dims: [usize; 3],
    /// Each cell's nodes with their current positions, row-major.
    cells: Vec<Vec<(u32, Point)>>,
    /// Each node's index into `cells`.
    node_cell: Vec<u32>,
}

impl SpatialGrid {
    /// Builds the index over `positions` with cubic cells of edge `cell_m`,
    /// or of a larger edge when the positions' bounding box would need more
    /// than about two cells per node.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_m` is finite and positive.
    pub fn build<P: PositionSource + ?Sized>(cell_m: f64, positions: &P) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell edge must be finite and positive, got {cell_m}"
        );
        let n = positions.node_count();
        // Non-finite coordinates bin by clamping; they do not size the box.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for i in 0..n {
            let p = positions.position(i);
            for (axis, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                if v.is_finite() {
                    lo[axis] = lo[axis].min(v);
                    hi[axis] = hi[axis].max(v);
                }
            }
        }
        let max_cells = (2 * n).max(MIN_CELL_BUDGET) as f64;
        let mut edge = cell_m;
        let (origin, dims) = loop {
            let mut origin = [0i64; 3];
            let mut spans = [1.0f64; 3];
            for axis in 0..3 {
                if lo[axis] <= hi[axis] {
                    let first = (lo[axis] / edge).floor();
                    origin[axis] = first as i64;
                    spans[axis] = (hi[axis] / edge).floor() - first + 1.0;
                }
            }
            if spans.iter().product::<f64>() <= max_cells {
                break (origin, spans.map(|s| s as usize));
            }
            edge *= 2.0;
        };
        let mut grid = SpatialGrid {
            cell_m: edge,
            origin,
            dims,
            cells: vec![Vec::new(); dims.iter().product()],
            node_cell: Vec::with_capacity(n),
        };
        for i in 0..n {
            let p = positions.position(i);
            let cell = grid.cell_of(p);
            grid.cells[cell].push((i as u32, p));
            grid.node_cell.push(cell as u32);
        }
        grid
    }

    /// The cell edge in use, metres: the requested edge, or a larger one
    /// if the build grew it. Queries are exact for any bound up to it.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.node_cell.len()
    }

    /// Number of cells in the array, empty or not.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of non-empty cells (occupancy statistic).
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_empty()).count()
    }

    /// The cell coordinates of `p` along each axis, clamped into the box.
    fn coords_of(&self, p: Point) -> [usize; 3] {
        let mut out = [0; 3];
        for (axis, v) in [p.x, p.y, p.z].into_iter().enumerate() {
            // `as` saturates (and maps NaN to 0), so any input clamps.
            let c = ((v / self.cell_m).floor() as i64).saturating_sub(self.origin[axis]);
            out[axis] = c.clamp(0, self.dims[axis] as i64 - 1) as usize;
        }
        out
    }

    /// The flat index of `p`'s cell.
    fn cell_of(&self, p: Point) -> usize {
        let [x, y, z] = self.coords_of(p);
        (z * self.dims[1] + y) * self.dims[0] + x
    }

    /// Records that `node` moved to `p`: refreshes its stored position and
    /// re-bins it when it left its cell. O(bucket size).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the indexed set.
    pub fn note_move(&mut self, node: u32, p: Point) {
        let new_cell = self.cell_of(p);
        let old_cell = self.node_cell[node as usize] as usize;
        let bucket = &mut self.cells[old_cell];
        let at = bucket
            .iter()
            .position(|&(m, _)| m == node)
            .expect("node listed in its recorded cell");
        if new_cell == old_cell {
            // Queries cull on the stored position, so it must follow even
            // a move that stays inside the cell.
            bucket[at].1 = p;
            return;
        }
        bucket.swap_remove(at);
        self.cells[new_cell].push((node, p));
        self.node_cell[node as usize] = new_cell as u32;
    }

    /// Collects into `out`, in no particular order, every node of the
    /// 27-cell neighbourhood around `p` whose stored position `q` has
    /// `p.distance_sq(q) <= r2`.
    ///
    /// For `r2 ≤ cell_m()²` the result is exactly the set of indexed nodes
    /// within that squared distance of `p`: everything outside the
    /// neighbourhood lies strictly farther than `cell_m()`. With an infinite
    /// bound it is the whole neighbourhood.
    pub fn within_into(&self, p: Point, r2: f64, out: &mut Vec<u32>) {
        out.clear();
        let [cx, cy, cz] = self.coords_of(p);
        let [nx, ny, nz] = self.dims;
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(nx - 1));
        for z in cz.saturating_sub(1)..=(cz + 1).min(nz - 1) {
            for y in cy.saturating_sub(1)..=(cy + 1).min(ny - 1) {
                let row = (z * ny + y) * nx;
                for bucket in &self.cells[row + x0..=row + x1] {
                    let start = out.len();
                    out.resize(start + bucket.len(), 0);
                    let slots = &mut out[start..];
                    let mut kept = 0;
                    for &(j, q) in bucket {
                        slots[kept] = j;
                        kept += usize::from(p.distance_sq(q) <= r2);
                    }
                    out.truncate(start + kept);
                }
            }
        }
    }

    /// Calls `visit(i, j, d2)` once for every unordered pair of indexed
    /// nodes whose stored positions lie within squared distance `r2` of
    /// each other, `d2` being that squared distance, in no particular
    /// order.
    ///
    /// Each cell pairs its nodes among themselves and with its 13 forward
    /// neighbour cells, so every pair of touching cells is visited once.
    /// Like `within_into`, the cull writes every candidate and advances by
    /// the comparison's outcome, so it has no data-dependent branch.
    /// For `r2 ≤ cell_m()²` that is every pair within the bound, by the
    /// argument that makes [`within_into`](Self::within_into) exact, and
    /// `d2` is the value `within_into` compares from either end:
    /// [`Point::distance_sq`] is symmetric bit for bit.
    pub fn for_each_pair_within(&self, r2: f64, mut visit: impl FnMut(u32, u32, f64)) {
        /// The cell offsets after `(0, 0, 0)` in row-major order, each
        /// axis shifted by one: one of each opposite pair of the 26
        /// neighbours. Offset `(dx, dy, dz)` is the base-3 number
        /// `dz+1, dy+1, dx+1`, so the home cell is 13.
        const FORWARD: [[usize; 3]; 13] = {
            let mut out = [[0; 3]; 13];
            let mut k = 0;
            let mut code = 14;
            while code < 27 {
                out[k] = [code % 3, code / 3 % 3, code / 9];
                k += 1;
                code += 1;
            }
            out
        };
        let [nx, ny, nz] = self.dims;
        // The home cell's forward neighbours, and one node's survivors.
        let mut forward: Vec<usize> = Vec::with_capacity(FORWARD.len());
        let mut near: Vec<(u32, f64)> = Vec::new();
        for (home, bucket) in self.cells.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let (x, y, z) = (home % nx, home / nx % ny, home / (nx * ny));
            forward.clear();
            for [dx, dy, dz] in FORWARD {
                let (x2, y2, z2) = (x + dx, y + dy, z + dz);
                if x2 > 0 && x2 <= nx && y2 > 0 && y2 <= ny && z2 > 0 && z2 <= nz {
                    forward.push(((z2 - 1) * ny + y2 - 1) * nx + x2 - 1);
                }
            }
            let forward_len: usize = forward.iter().map(|&c| self.cells[c].len()).sum();
            for (k, &(i, p)) in bucket.iter().enumerate() {
                // Later nodes of the home cell, then the forward cells,
                // culled branch-free as in `within_into`.
                let later = &bucket[k + 1..];
                near.resize(later.len() + forward_len, (0, 0.0));
                let mut kept = 0;
                let others = forward.iter().flat_map(|&c| &self.cells[c]);
                for &(j, q) in later.iter().chain(others) {
                    let d2 = p.distance_sq(q);
                    near[kept] = (j, d2);
                    kept += usize::from(d2 <= r2);
                }
                for &(j, d2) in &near[..kept] {
                    visit(i, j, d2);
                }
            }
        }
    }

    /// Collects into `out` every node in the 27-cell neighbourhood around
    /// `p`, sorted ascending by node index.
    ///
    /// The result is a superset of all indexed nodes within `cell_m` of `p`
    /// (including any node located exactly at `p`); nodes missing from it
    /// are guaranteed to lie strictly farther than `cell_m` away.
    pub fn candidates_into(&self, p: Point, out: &mut Vec<u32>) {
        self.within_into(p, f64::INFINITY, out);
        // Ascending order is part of the determinism contract: callers
        // visit candidates in the same order the brute-force scan would.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_within(positions: &[Point], p: Point, radius: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, q)| p.distance(**q) <= radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn candidates_cover_everything_within_one_cell_edge() {
        let cell = 750.0;
        let positions: Vec<Point> = (0..40)
            .map(|i| {
                let f = i as f64;
                Point::new(f * 311.7 % 5_000.0, f * 173.3 % 5_000.0, f * 97.1 % 2_000.0)
            })
            .collect();
        let grid = SpatialGrid::build(cell, &positions);
        let mut cand = Vec::new();
        for &p in &positions {
            grid.candidates_into(p, &mut cand);
            for near in brute_within(&positions, p, cell) {
                assert!(cand.contains(&near), "grid dropped node {near} near {p}");
            }
            let sorted = {
                let mut c = cand.clone();
                c.sort_unstable();
                c
            };
            assert_eq!(cand, sorted, "candidates must come out ascending");
        }
    }

    #[test]
    fn note_move_rebins_incrementally() {
        let positions = vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(100.0, 0.0, 0.0),
            Point::new(10_000.0, 0.0, 0.0),
        ];
        let mut grid = SpatialGrid::build(1_000.0, &positions);
        let mut cand = Vec::new();
        grid.candidates_into(positions[0], &mut cand);
        assert_eq!(cand, [0, 1]);

        // Node 2 drifts next to node 0; node 1 leaves for the far corner.
        grid.note_move(2, Point::new(200.0, 0.0, 0.0));
        grid.note_move(1, Point::new(9_900.0, 9_900.0, 0.0));
        grid.candidates_into(positions[0], &mut cand);
        assert_eq!(cand, [0, 2]);

        // An incrementally maintained grid matches a fresh rebuild.
        let moved = vec![
            positions[0],
            Point::new(9_900.0, 9_900.0, 0.0),
            Point::new(200.0, 0.0, 0.0),
        ];
        let fresh = SpatialGrid::build(1_000.0, &moved);
        let mut fresh_cand = Vec::new();
        for &p in &moved {
            grid.candidates_into(p, &mut cand);
            fresh.candidates_into(p, &mut fresh_cand);
            assert_eq!(
                cand, fresh_cand,
                "incremental and fresh grids diverge at {p}"
            );
        }
    }

    #[test]
    fn within_cell_moves_are_no_ops() {
        let positions = vec![Point::new(10.0, 10.0, 10.0), Point::new(20.0, 20.0, 20.0)];
        let mut grid = SpatialGrid::build(1_000.0, &positions);
        let cells_before = grid.occupied_cells();
        grid.note_move(0, Point::new(900.0, 900.0, 900.0));
        assert_eq!(grid.occupied_cells(), cells_before);
        let mut cand = Vec::new();
        grid.candidates_into(Point::new(0.0, 0.0, 0.0), &mut cand);
        assert_eq!(cand, [0, 1]);
    }

    #[test]
    fn in_cell_moves_across_the_cull_radius_reach_the_next_row() {
        use crate::cache::LinkBudgetCache;
        use crate::channel::AcousticChannel;

        let ch = AcousticChannel::paper_default();
        let cell = ch.index_cell_m().expect("the horizon admits an index");
        // Transmitter and receiver share the cell [cell, 2·cell) along x;
        // the receiver walks out of range, into it and out again without
        // ever leaving that cell.
        let tx = Point::new(cell + 5.0, 10.0, 500.0);
        let stops = [2.0 * cell - 5.0, cell + 300.0, 2.0 * cell - 5.0];
        for x in [tx.x, stops[0], stops[1]] {
            assert_eq!((x / cell).floor(), 1.0, "{x} m is in the shared cell");
        }
        let mut positions = vec![tx, Point::new(stops[0], 10.0, 500.0)];
        let mut indexed = LinkBudgetCache::with_index(&ch, &positions);
        let mut plain = LinkBudgetCache::new(&ch, positions.len());
        for (step, &x) in stops.iter().enumerate() {
            let p = Point::new(x, 10.0, 500.0);
            positions[1] = p;
            indexed.note_move(1, p);
            indexed.invalidate();
            plain.invalidate();
            indexed.ensure_row(&ch, &positions, 0);
            plain.ensure_row(&ch, &positions, 0);
            let audible = ch.is_audible(tx, p);
            assert_eq!(audible, step == 1, "step {step} crosses the radius");
            assert_eq!(indexed.row(0), plain.row(0), "step {step}");
            assert_eq!(indexed.row_len(0), usize::from(audible), "step {step}");
            assert_eq!(indexed.stats(), plain.stats(), "step {step}");
        }
    }

    #[test]
    fn bounded_query_equals_brute_force_filter() {
        use rand::{Rng, SeedableRng};

        let cell = 1_000.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut positions: Vec<Point> = (0..200)
                .map(|_| {
                    Point::new(
                        rng.gen_range(-4_000.0..4_000.0),
                        rng.gen_range(-4_000.0..4_000.0),
                        rng.gen_range(0.0..3_000.0),
                    )
                })
                .collect();
            let mut grid = SpatialGrid::build(cell, &positions);
            // Small moves, most of them inside a cell, keep the stored
            // positions under test too.
            for (node, p) in positions.iter_mut().enumerate() {
                *p = Point::new(
                    p.x + rng.gen_range(-50.0..50.0),
                    p.y + rng.gen_range(-50.0..50.0),
                    p.z + rng.gen_range(-50.0..50.0),
                );
                grid.note_move(node as u32, *p);
            }
            for _ in 0..20 {
                let p = positions[rng.gen_range(0..positions.len())];
                let r = rng.gen_range(0.0..=cell);
                assert_eq!(
                    sorted_within(&grid, p, r * r),
                    brute_within_sq(&positions, p, r * r),
                    "bound {r} m around {p}"
                );
            }
        }
    }

    /// Sorted bounded query, for comparison with a brute-force filter.
    fn sorted_within(grid: &SpatialGrid, p: Point, r2: f64) -> Vec<u32> {
        let mut got = Vec::new();
        grid.within_into(p, r2, &mut got);
        got.sort_unstable();
        got
    }

    fn brute_within_sq(positions: &[Point], p: Point, r2: f64) -> Vec<u32> {
        (0..positions.len() as u32)
            .filter(|&j| p.distance_sq(positions[j as usize]) <= r2)
            .collect()
    }

    #[test]
    fn sparse_huge_extent_grows_the_edge_and_stays_exact() {
        use rand::{Rng, SeedableRng};

        // Pairs of nodes 600 m apart, scattered over 2,000 km × 2,000 km:
        // at the requested edge the box would need ~4·10^6 cells per depth.
        let cell = 1_000.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut positions = Vec::new();
        for _ in 0..1_500 {
            let p = Point::new(
                rng.gen_range(0.0..2.0e6),
                rng.gen_range(0.0..2.0e6),
                rng.gen_range(0.0..5_000.0),
            );
            positions.push(p);
            positions.push(Point::new(p.x + 600.0, p.y, p.z));
        }
        let n = positions.len();
        let grid = SpatialGrid::build(cell, &positions);
        assert!(grid.cell_m() > cell, "edge grew to {}", grid.cell_m());
        assert!(
            grid.cell_count() <= 2 * n,
            "{} cells for {n} nodes",
            grid.cell_count()
        );
        for (i, &p) in positions.iter().enumerate().step_by(7) {
            for r in [600.0, cell, grid.cell_m()] {
                let want = brute_within_sq(&positions, p, r * r);
                assert_eq!(sorted_within(&grid, p, r * r), want, "node {i}, {r} m");
            }
        }
    }

    #[test]
    fn degenerate_layouts_index_and_query() {
        let r2 = 1_000.0 * 1_000.0;
        let far = Point::new(1.0e6, -1.0e6, 7.0e5);

        let empty: Vec<Point> = Vec::new();
        let grid = SpatialGrid::build(1_000.0, &empty);
        assert_eq!((grid.node_count(), grid.cell_count()), (0, 1));
        assert!(sorted_within(&grid, Point::new(0.0, 0.0, 0.0), f64::INFINITY).is_empty());

        let one = vec![Point::new(-20.0, 35.0, 400.0)];
        let mut grid = SpatialGrid::build(1_000.0, &one);
        assert_eq!(grid.cell_count(), 1);
        assert_eq!(sorted_within(&grid, one[0], 0.0), [0]);
        assert!(sorted_within(&grid, far, r2).is_empty());
        // Moved far outside its build-time box, the node clamps into the
        // only cell and is still found by distance.
        grid.note_move(0, far);
        assert_eq!(sorted_within(&grid, far, 0.0), [0]);
        assert!(sorted_within(&grid, one[0], r2).is_empty());

        let stacked = vec![Point::new(3.0, 3.0, 3.0); 50];
        let grid = SpatialGrid::build(1_000.0, &stacked);
        assert_eq!((grid.cell_count(), grid.occupied_cells()), (1, 1));
        let all: Vec<u32> = (0..50).collect();
        assert_eq!(sorted_within(&grid, stacked[0], 0.0), all);
        assert!(sorted_within(&grid, far, r2).is_empty());
    }

    /// Every unordered pair within `r2`, as `(low, high, d2)`, sorted.
    fn swept_pairs(grid: &SpatialGrid, r2: f64) -> Vec<(u32, u32, u64)> {
        let mut pairs = Vec::new();
        grid.for_each_pair_within(r2, |i, j, d2| {
            pairs.push((i.min(j), i.max(j), d2.to_bits()))
        });
        pairs.sort_unstable();
        pairs
    }

    fn brute_pairs(positions: &[Point], r2: f64) -> Vec<(u32, u32, u64)> {
        let mut pairs = Vec::new();
        for (i, &p) in positions.iter().enumerate() {
            for (j, &q) in positions.iter().enumerate().skip(i + 1) {
                let d2 = p.distance_sq(q);
                if d2 <= r2 {
                    pairs.push((i as u32, j as u32, d2.to_bits()));
                }
            }
        }
        pairs
    }

    #[test]
    fn pair_sweep_visits_every_pair_within_the_bound_once() {
        use rand::{Rng, SeedableRng};

        let cell = 1_000.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for round in 0..10 {
            let mut positions: Vec<Point> = (0..150)
                .map(|_| {
                    Point::new(
                        rng.gen_range(-3_000.0..3_000.0),
                        rng.gen_range(-3_000.0..3_000.0),
                        rng.gen_range(0.0..2_000.0),
                    )
                })
                .collect();
            // Coincident nodes share a cell and a zero distance.
            positions[1] = positions[0];
            let mut grid = SpatialGrid::build(cell, &positions);
            // Far moves clamp into border cells; small ones stay in place.
            for node in (0..positions.len()).step_by(7) {
                let p = positions[node];
                let far = if node % 2 == 0 { 40_000.0 } else { -40_000.0 };
                let moved = if round % 2 == 0 {
                    Point::new(p.x + far, p.y, p.z)
                } else {
                    Point::new(p.x + 30.0, p.y - 30.0, p.z + 30.0)
                };
                positions[node] = moved;
                grid.note_move(node as u32, moved);
            }
            for r in [0.0, 400.0, cell] {
                assert_eq!(
                    swept_pairs(&grid, r * r),
                    brute_pairs(&positions, r * r),
                    "round {round}, {r} m"
                );
            }
        }
    }

    #[test]
    fn pair_sweep_is_exact_on_a_grown_edge_and_tiny_layouts() {
        let mut positions = Vec::new();
        for k in 0..600 {
            let p = Point::new(
                k as f64 * 3_331.0 % 2.0e6,
                k as f64 * 7_919.0 % 2.0e6,
                100.0,
            );
            positions.push(p);
            positions.push(Point::new(p.x + 600.0, p.y, p.z));
        }
        let grid = SpatialGrid::build(1_000.0, &positions);
        assert!(grid.cell_m() > 1_000.0, "edge grew to {}", grid.cell_m());
        for r in [600.0, 1_000.0, grid.cell_m()] {
            assert_eq!(swept_pairs(&grid, r * r), brute_pairs(&positions, r * r));
        }
        for n in 0..3 {
            let few = &positions[..n];
            let grid = SpatialGrid::build(1_000.0, few);
            assert_eq!(
                swept_pairs(&grid, 1.0e6),
                brute_pairs(few, 1.0e6),
                "n = {n}"
            );
        }
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        let positions = vec![
            Point::new(-10.0, -10.0, 5.0),
            Point::new(10.0, 10.0, 5.0),
            Point::new(-5_000.0, -5_000.0, 5.0),
        ];
        let grid = SpatialGrid::build(1_000.0, &positions);
        let mut cand = Vec::new();
        grid.candidates_into(positions[0], &mut cand);
        assert!(cand.contains(&0) && cand.contains(&1));
        assert!(!cand.contains(&2), "the -5 km node is two cells away");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_cell_edge_is_rejected() {
        let positions: Vec<Point> = Vec::new();
        let _ = SpatialGrid::build(0.0, &positions);
    }
}
