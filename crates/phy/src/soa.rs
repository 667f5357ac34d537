//! Struct-of-arrays storage for hot per-node state.
//!
//! The fan-out hot path needs each node's coordinates and nothing else
//! about it, so [`PositionTable`] keeps the three coordinate arrays
//! separate (`xs`/`ys`/`zs`) instead of leaving `Point`s inside a larger
//! per-node struct. The unindexed cull in
//! [`crate::cache::LinkBudgetCache`] streams through them linearly. With a
//! spatial index the cull reads the positions stored in the grid's buckets
//! instead, and the table is read only for the few receivers that survive
//! it.
//!
//! [`PositionSource`] abstracts over the layouts so the cache and the
//! spatial index accept either a plain `&[Point]` (tests, small tools) or a
//! `PositionTable` (the simulator's world state) without copying. Reads
//! reconstruct the exact same `f64` coordinates either way, so switching
//! layouts cannot perturb a seeded run.

use crate::geometry::Point;

/// Read access to an indexed set of node positions, independent of layout.
pub trait PositionSource {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// The position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= node_count()`.
    fn position(&self, i: usize) -> Point;
}

impl PositionSource for [Point] {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn position(&self, i: usize) -> Point {
        self[i]
    }
}

impl PositionSource for Vec<Point> {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn position(&self, i: usize) -> Point {
        self[i]
    }
}

impl PositionSource for PositionTable {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn position(&self, i: usize) -> Point {
        self.get(i)
    }
}

/// Node positions in struct-of-arrays layout.
///
/// # Examples
///
/// ```
/// use uasn_phy::geometry::Point;
/// use uasn_phy::soa::PositionTable;
///
/// let mut table = PositionTable::from_points(&[Point::new(1.0, 2.0, 3.0)]);
/// table.push(Point::new(4.0, 5.0, 6.0));
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.get(1), Point::new(4.0, 5.0, 6.0));
/// table.set(0, Point::new(9.0, 9.0, 9.0));
/// assert_eq!(table.get(0).x, 9.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PositionTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl PositionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table pre-sized for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        PositionTable {
            xs: Vec::with_capacity(capacity),
            ys: Vec::with_capacity(capacity),
            zs: Vec::with_capacity(capacity),
        }
    }

    /// Builds a table from an array-of-structs slice.
    pub fn from_points(points: &[Point]) -> Self {
        let mut table = Self::with_capacity(points.len());
        for &p in points {
            table.push(p);
        }
        table
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the table holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Appends a node position.
    pub fn push(&mut self, p: Point) {
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
    }

    /// The position of node `i` (bit-identical to what was stored).
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Overwrites the position of node `i`.
    pub fn set(&mut self, i: usize, p: Point) {
        self.xs[i] = p.x;
        self.ys[i] = p.y;
        self.zs[i] = p.z;
    }

    /// Iterates positions in index order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_points_bit_identically() {
        let pts = [
            Point::new(0.25, -3.5, 1.0e9),
            Point::new(f64::MIN_POSITIVE, 0.0, 7.125),
        ];
        let table = PositionTable::from_points(&pts);
        assert_eq!(table.len(), 2);
        for (i, &p) in pts.iter().enumerate() {
            let q = table.get(i);
            assert_eq!(p.x.to_bits(), q.x.to_bits());
            assert_eq!(p.y.to_bits(), q.y.to_bits());
            assert_eq!(p.z.to_bits(), q.z.to_bits());
        }
    }

    #[test]
    fn source_impls_agree_across_layouts() {
        let pts = vec![Point::new(1.0, 2.0, 3.0), Point::new(4.0, 5.0, 6.0)];
        let table = PositionTable::from_points(&pts);
        let slice: &[Point] = &pts;
        assert_eq!(slice.node_count(), table.node_count());
        assert_eq!(pts.node_count(), table.node_count());
        for i in 0..pts.len() {
            assert_eq!(slice.position(i), table.position(i));
            assert_eq!(pts.position(i), table.position(i));
        }
    }

    #[test]
    fn set_and_iter_update_in_place() {
        let mut table = PositionTable::new();
        assert!(table.is_empty());
        table.push(Point::new(0.0, 0.0, 0.0));
        table.push(Point::new(1.0, 1.0, 1.0));
        table.set(1, Point::new(2.0, 3.0, 4.0));
        let collected: Vec<Point> = table.iter().collect();
        assert_eq!(
            collected,
            vec![Point::new(0.0, 0.0, 0.0), Point::new(2.0, 3.0, 4.0)]
        );
    }
}
