//! 3-D geometry for underwater deployments.
//!
//! Coordinates are in metres. The convention throughout the workspace is
//! **z = depth**, positive downward: the surface (where sinks float) is
//! z = 0 and deeper sensors have larger z. "Shallower" therefore always
//! means "smaller z", which is the direction data flows (paper Figure 1).

use std::fmt;
use std::ops::{Add, Sub};

/// A point (or displacement) in metres; `z` is depth, positive down.
///
/// # Examples
///
/// ```
/// use uasn_phy::geometry::Point;
///
/// let a = Point::new(0.0, 0.0, 100.0);
/// let b = Point::new(300.0, 400.0, 100.0);
/// assert_eq!(a.distance(b), 500.0);
/// assert!(b.is_deeper_than(&Point::surface(0.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
    /// Depth in metres, positive downward.
    pub z: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is not finite.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        assert!(
            x.is_finite() && y.is_finite() && z.is_finite(),
            "point coordinates must be finite: ({x}, {y}, {z})"
        );
        Point { x, y, z }
    }

    /// A point on the surface (depth 0).
    pub fn surface(x: f64, y: f64) -> Self {
        Point::new(x, y, 0.0)
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in m²: the exact value
    /// [`distance`](Self::distance) takes the square root of.
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Horizontal (surface-projected) distance to `other`, in metres.
    pub fn horizontal_distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Depth in metres (alias of `z`).
    pub fn depth(self) -> f64 {
        self.z
    }

    /// Whether this point is strictly deeper than `other`.
    pub fn is_deeper_than(&self, other: &Point) -> bool {
        self.z > other.z
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1}, {:.1})m", self.x, self.y, self.z)
    }
}

/// An axis-aligned deployment volume: `[0, width] × [0, length] × [0, depth]`
/// in metres.
///
/// # Examples
///
/// ```
/// use uasn_phy::geometry::{Point, Region};
///
/// // The paper's 1000 km^3 region as a 10 km × 10 km × 10 km box.
/// let region = Region::new(10_000.0, 10_000.0, 10_000.0);
/// assert_eq!(region.volume_km3(), 1_000.0);
/// assert!(region.contains(Point::new(5_000.0, 5_000.0, 5_000.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    width: f64,
    length: f64,
    depth: f64,
}

impl Region {
    /// Creates a region from its extents in metres.
    ///
    /// # Panics
    ///
    /// Panics if any extent is not finite and positive.
    pub fn new(width: f64, length: f64, depth: f64) -> Self {
        for (name, v) in [("width", width), ("length", length), ("depth", depth)] {
            assert!(
                v.is_finite() && v > 0.0,
                "region {name} must be finite and positive, got {v}"
            );
        }
        Region {
            width,
            length,
            depth,
        }
    }

    /// A cube with the given edge in metres.
    pub fn cube(edge: f64) -> Self {
        Region::new(edge, edge, edge)
    }

    /// East extent in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// North extent in metres.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Vertical extent in metres.
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// Volume in cubic kilometres.
    pub fn volume_km3(&self) -> f64 {
        (self.width / 1_000.0) * (self.length / 1_000.0) * (self.depth / 1_000.0)
    }

    /// Whether `p` lies inside (inclusive of boundaries).
    pub fn contains(&self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x)
            && (0.0..=self.length).contains(&p.y)
            && (0.0..=self.depth).contains(&p.z)
    }

    /// Clamps `p` to the region boundary.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(0.0, self.width),
            p.y.clamp(0.0, self.length),
            p.z.clamp(0.0, self.depth),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_pythagoras() {
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(3.0, 4.0, 0.0);
        assert_eq!(a.distance(b), 5.0);
        let c = Point::new(3.0, 4.0, 12.0);
        assert_eq!(a.distance(c), 13.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0, 3.0);
        let b = Point::new(-4.0, 5.0, 6.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn horizontal_distance_ignores_depth() {
        let a = Point::new(0.0, 0.0, 100.0);
        let b = Point::new(3.0, 4.0, 900.0);
        assert_eq!(a.horizontal_distance(b), 5.0);
    }

    #[test]
    fn deeper_comparison() {
        let deep = Point::new(0.0, 0.0, 500.0);
        let shallow = Point::new(0.0, 0.0, 100.0);
        assert!(deep.is_deeper_than(&shallow));
        assert!(!shallow.is_deeper_than(&deep));
        assert!(!deep.is_deeper_than(&deep));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_point_panics() {
        let _ = Point::new(f64::NAN, 0.0, 0.0);
    }

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0, 3.0);
        let b = Point::new(10.0, 20.0, 30.0);
        assert_eq!(a + b, Point::new(11.0, 22.0, 33.0));
        assert_eq!(b - a, Point::new(9.0, 18.0, 27.0));
    }

    #[test]
    fn region_volume_matches_paper() {
        // Table 2: deployment area 1000 km^3.
        let region = Region::cube(10_000.0);
        assert!((region.volume_km3() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn region_contains_and_clamp() {
        let r = Region::new(100.0, 200.0, 300.0);
        assert!(r.contains(Point::new(0.0, 0.0, 0.0)));
        assert!(r.contains(Point::new(100.0, 200.0, 300.0)));
        assert!(!r.contains(Point::new(100.1, 0.0, 0.0)));
        assert!(!r.contains(Point::new(0.0, 0.0, -0.1)));
        assert_eq!(
            r.clamp(Point::new(-5.0, 500.0, 150.0)),
            Point::new(0.0, 200.0, 150.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_region_panics() {
        let _ = Region::new(0.0, 1.0, 1.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Point::new(1.0, 2.0, 3.0).to_string(), "(1.0, 2.0, 3.0)m");
    }
}
