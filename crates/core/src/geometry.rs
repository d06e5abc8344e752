//! Planar geometry primitives used throughout LIRA.
//!
//! All coordinates are in meters. The monitored space is an axis-aligned
//! rectangle (in the paper, a square of side ~14.14 km, i.e. ~200 km²).

use std::fmt;

/// A point in the monitored space, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, `[min.x, max.x) × [min.y, max.y)`.
///
/// Rectangles are half-open so that a partitioning of the space into
/// rectangles assigns every point to exactly one partition cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Inclusive lower-left corner.
    pub min: Point,
    /// Exclusive upper-right corner (must be component-wise `>= min`).
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from its min and max corners.
    ///
    /// # Panics
    /// Panics (in debug builds) if `min` is not component-wise `<= max`.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "degenerate rect");
        Rect { min, max }
    }

    /// Creates a rectangle from corner coordinates.
    #[inline]
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Creates a square with the given lower-left corner and side length.
    #[inline]
    pub fn square(min: Point, side: f64) -> Self {
        Rect::new(min, Point::new(min.x + side, min.y + side))
    }

    /// Creates a rectangle centered at `center` with the given width and height,
    /// clamped to stay inside `bounds`: shifted inward when it fits, shrunk
    /// to the bounds' extent when it does not.
    pub fn centered_clamped(center: Point, width: f64, height: f64, bounds: &Rect) -> Self {
        let width = width.min(bounds.width());
        let height = height.min(bounds.height());
        let hw = width / 2.0;
        let hh = height / 2.0;
        let mut x0 = center.x - hw;
        let mut y0 = center.y - hh;
        // Shift (rather than shrink) so the query keeps its area.
        x0 = x0.max(bounds.min.x).min(bounds.max.x - width);
        y0 = y0.max(bounds.min.y).min(bounds.max.y - height);
        Rect::from_coords(x0, y0, x0 + width, y0 + height)
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Whether the point lies inside the half-open rectangle.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// Whether the point lies inside the *closed* rectangle. Used at the
    /// outer boundary of the monitored space, which is otherwise excluded by
    /// the half-open convention.
    #[inline]
    pub fn contains_closed(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether the two rectangles overlap with positive area.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// The overlapping region of two rectangles, if it has positive area.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.min.x.max(other.min.x);
        let y0 = self.min.y.max(other.min.y);
        let x1 = self.max.x.min(other.max.x);
        let y1 = self.max.y.min(other.max.y);
        if x0 < x1 && y0 < y1 {
            Some(Rect::from_coords(x0, y0, x1, y1))
        } else {
            None
        }
    }

    /// Area of the overlap between the two rectangles (0 when disjoint).
    #[inline]
    pub(crate) fn intersection_area(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Splits the rectangle into four equal quadrants, ordered
    /// `[SW, SE, NW, NE]` (row-major from the min corner).
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::new(self.min, c),
            Rect::from_coords(c.x, self.min.y, self.max.x, c.y),
            Rect::from_coords(self.min.x, c.y, c.x, self.max.y),
            Rect::new(c, self.max),
        ]
    }

    /// Clamps a point to lie within the closed rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Minimum distance from `p` to the rectangle (0 when inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// How deep inside the rectangle `p` sits: the minimum distance from
    /// `p` to the boundary when inside, 0 when outside. A point with
    /// positional uncertainty `Δ ≤ interior_depth(p)` is *guaranteed* to
    /// truly lie in the rectangle.
    pub fn interior_depth(&self, p: &Point) -> f64 {
        if !self.contains(p) {
            return 0.0;
        }
        (p.x - self.min.x)
            .min(self.max.x - p.x)
            .min(p.y - self.min.y)
            .min(self.max.y - p.y)
    }

    /// The rectangle grown by `margin` on every side.
    pub fn expand(&self, margin: f64) -> Rect {
        Rect::from_coords(
            self.min.x - margin,
            self.min.y - margin,
            self.max.x + margin,
            self.max.y + margin,
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// A circle, used to model base-station coverage areas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius in meters (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle with the given center and radius.
    #[inline]
    pub const fn new(center: Point, radius: f64) -> Self {
        Circle { center, radius }
    }

    /// Whether the point lies inside the closed disk.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Whether the circle intersects the rectangle (shares at least a point).
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        rect.distance_to_point(&self.center) <= self.radius
    }
}

/// A total order wrapper for non-NaN `f64`, used as keys in heaps and
/// ordered maps inside the LIRA optimizers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Wraps `v`, panicking on NaN (NaN keys would corrupt ordered
    /// containers silently).
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "NaN is not orderable");
        OrdF64(v)
    }
}

impl Eq for OrdF64 {}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN in OrdF64")
    }
}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn rect_basic_properties() {
        let r = Rect::from_coords(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn rect_contains_half_open() {
        let r = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(0.5, 0.999)));
        assert!(!r.contains(&Point::new(1.0, 0.5)), "max edge is excluded");
        assert!(!r.contains(&Point::new(0.5, 1.0)), "max edge is excluded");
        assert!(r.contains_closed(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_coords(1.0, 1.0, 3.0, 3.0);
        let c = Rect::from_coords(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_area(&b), 1.0);
        assert!(!a.intersects(&c), "touching edges do not intersect");
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn rect_quadrants_tile_parent() {
        let r = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let qs = r.quadrants();
        let total: f64 = qs.iter().map(|q| q.area()).sum();
        assert_eq!(total, r.area());
        // Quadrants are pairwise disjoint.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!qs[i].intersects(&qs[j]), "quadrants {i} and {j} overlap");
            }
        }
        // Every quadrant is inside the parent.
        for q in &qs {
            assert_eq!(r.intersection_area(q), q.area());
        }
    }

    #[test]
    fn rect_centered_clamped_keeps_area_and_bounds() {
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        // Near a corner: the rect is shifted inward, not shrunk.
        let r = Rect::centered_clamped(Point::new(1.0, 99.0), 20.0, 20.0, &bounds);
        assert_eq!(r.area(), 400.0);
        assert!(r.min.x >= 0.0 && r.max.x <= 100.0);
        assert!(r.min.y >= 0.0 && r.max.y <= 100.0);
    }

    #[test]
    fn rect_centered_clamped_shrinks_oversized_requests() {
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let r = Rect::centered_clamped(Point::new(50.0, 50.0), 500.0, 40.0, &bounds);
        assert_eq!(r.width(), 100.0);
        assert_eq!(r.height(), 40.0);
        assert!(r.min.x >= 0.0 && r.max.x <= 100.0);
    }

    #[test]
    fn rect_works_in_negative_coordinate_spaces() {
        let r = Rect::from_coords(-100.0, -50.0, -20.0, 30.0);
        assert_eq!(r.width(), 80.0);
        assert!(r.contains(&Point::new(-60.0, 0.0)));
        assert!(!r.contains(&Point::new(0.0, 0.0)));
        assert_eq!(r.clamp(Point::new(5.0, -80.0)), Point::new(-20.0, -50.0));
        let q = r.quadrants();
        assert_eq!(q.iter().map(|x| x.area()).sum::<f64>(), r.area());
    }

    #[test]
    fn rect_distance_to_point() {
        let r = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.distance_to_point(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(r.distance_to_point(&Point::new(2.0, 0.5)), 1.0);
        assert!((r.distance_to_point(&Point::new(2.0, 2.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn interior_depth_and_expand() {
        let r = Rect::from_coords(0.0, 0.0, 10.0, 20.0);
        assert_eq!(r.interior_depth(&Point::new(5.0, 10.0)), 5.0);
        assert_eq!(r.interior_depth(&Point::new(1.0, 10.0)), 1.0);
        assert_eq!(r.interior_depth(&Point::new(5.0, 19.0)), 1.0);
        assert_eq!(r.interior_depth(&Point::new(-1.0, 10.0)), 0.0);
        let e = r.expand(2.0);
        assert_eq!(e, Rect::from_coords(-2.0, -2.0, 12.0, 22.0));
    }

    #[test]
    fn circle_rect_intersection() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(c.intersects_rect(&Rect::from_coords(0.5, 0.5, 2.0, 2.0)));
        assert!(!c.intersects_rect(&Rect::from_coords(1.0, 1.0, 2.0, 2.0)));
        assert!(c.intersects_rect(&Rect::from_coords(-0.1, -0.1, 0.1, 0.1)));
        assert!(c.contains(&Point::new(0.6, 0.6)));
        assert!(!c.contains(&Point::new(0.8, 0.8)));
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = [OrdF64::new(3.0), OrdF64::new(-1.0), OrdF64::new(2.0)];
        v.sort();
        assert_eq!(
            v.iter().map(|o| o.0).collect::<Vec<_>>(),
            vec![-1.0, 2.0, 3.0]
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordf64_rejects_nan() {
        let _ = OrdF64::new(f64::NAN);
    }
}
