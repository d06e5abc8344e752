//! Shedding plans: the artifact LIRA distributes to base stations and
//! mobile nodes — a set of shedding regions with their update throttlers.
//!
//! Matching Section 4.3.2 of the paper, a region is a square encoded as
//! three `f32`s (min-x, min-y, side) and its throttler as one `f32`:
//! 16 bytes per region, so the ~41 regions a base station must broadcast
//! fit in a single UDP packet (41·16 = 656 B < 1472 B MTU payload).

use crate::error::{LiraError, Result};
use crate::geometry::{Circle, Point, Rect};
use crate::greedy_increment::ThrottlerSolution;
use crate::grid_reduce::Partitioning;

/// Maps one coordinate onto a lookup-grid cell along one axis, clamped
/// into `[0, side)`. The *same* monotone map is used for point lookups and
/// for region cover computation, which makes the cover lists exact: for
/// any `x ∈ [lo, hi]`, `axis_cell(x)` lies in
/// `axis_cell(lo)..=axis_cell(hi)` — no epsilon padding needed.
#[inline]
fn axis_cell(v: f64, lo: f64, extent: f64, side: usize) -> usize {
    ((v - lo) / extent * side as f64)
        .floor()
        .clamp(0.0, (side - 1) as f64) as usize
}

/// One shedding region with its assigned update throttler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRegion {
    /// The region's area `A_i`.
    pub area: Rect,
    /// The update throttler `Δ_i` (meters).
    pub throttler: f64,
}

/// A complete shedding plan covering the monitored space.
#[derive(Debug, Clone, PartialEq)]
pub struct SheddingPlan {
    bounds: Rect,
    regions: Vec<PlanRegion>,
    /// Spatial acceleration: a uniform lookup grid mapping cells to region
    /// indices, giving O(1) throttler lookups on the hot update path.
    lookup_side: usize,
    lookup: Vec<u32>,
    /// Per lookup cell, the indices of every region whose *closed* area
    /// covers the cell, ascending, in CSR layout: cell `c`'s regions are
    /// `cell_regions[cell_regions_offsets[c]..cell_regions_offsets[c+1]]`.
    /// Backs the exact-scan fallback of [`Self::region_at`] and the
    /// [`Self::region_from`] hint's `alone` bits.
    cell_regions_offsets: Vec<u32>,
    cell_regions: Vec<u32>,
    /// Per region, whether no other region's closed area meets its open
    /// interior: inside that interior the region is the only answer
    /// [`Self::region_at`] can give, which is what lets
    /// [`Self::region_from`] trust a hint there.
    alone: Vec<bool>,
    /// Fallback threshold for points outside every region.
    default_delta: f64,
}

impl SheddingPlan {
    /// Assembles a plan from a partitioning and the corresponding
    /// GREEDYINCREMENT solution.
    pub fn from_solution(
        bounds: Rect,
        partitioning: &Partitioning,
        solution: &ThrottlerSolution,
        default_delta: f64,
    ) -> Result<Self> {
        if partitioning.regions.len() != solution.deltas.len() {
            return Err(LiraError::InvalidConfig(format!(
                "partitioning has {} regions but solution has {} throttlers",
                partitioning.regions.len(),
                solution.deltas.len()
            )));
        }
        let regions = partitioning
            .regions
            .iter()
            .zip(&solution.deltas)
            .map(|(r, d)| PlanRegion {
                area: r.area,
                throttler: *d,
            })
            .collect();
        Ok(Self::new(bounds, regions, default_delta))
    }

    /// Builds a plan from explicit regions. Regions are expected to tile
    /// `bounds`; points not covered fall back to `default_delta`.
    pub fn new(bounds: Rect, regions: Vec<PlanRegion>, default_delta: f64) -> Self {
        // Size the lookup grid so cells are no larger than the smallest
        // region (bounded to keep memory modest for tiny regions).
        let min_side = regions
            .iter()
            .map(|r| r.area.width().min(r.area.height()))
            .fold(f64::INFINITY, f64::min);
        let lookup_side = if min_side.is_finite() && min_side > 0.0 {
            ((bounds.width() / min_side).ceil() as usize).clamp(1, 1024)
        } else {
            1
        };
        let mut lookup = vec![u32::MAX; lookup_side * lookup_side];
        let cw = bounds.width() / lookup_side as f64;
        let ch = bounds.height() / lookup_side as f64;
        for (idx, region) in regions.iter().enumerate() {
            let c0 = (((region.area.min.x - bounds.min.x) / cw).floor().max(0.0)) as usize;
            let r0 = (((region.area.min.y - bounds.min.y) / ch).floor().max(0.0)) as usize;
            let c1 = ((((region.area.max.x - bounds.min.x) / cw).ceil()) as usize).min(lookup_side);
            let r1 = ((((region.area.max.y - bounds.min.y) / ch).ceil()) as usize).min(lookup_side);
            for row in r0..r1.max(r0 + 1).min(lookup_side) {
                for col in c0..c1.max(c0 + 1).min(lookup_side) {
                    let cell = Rect::from_coords(
                        bounds.min.x + col as f64 * cw,
                        bounds.min.y + row as f64 * ch,
                        bounds.min.x + (col + 1) as f64 * cw,
                        bounds.min.y + (row + 1) as f64 * ch,
                    );
                    // Assign the region containing the cell center; with a
                    // tiling partitioning and cells no bigger than the
                    // smallest region this is exact for interior cells.
                    if region.area.contains(&cell.center()) {
                        lookup[row * lookup_side + col] = idx as u32;
                    }
                }
            }
        }
        // Cell → covering regions, using the same cell map as `region_at`
        // so the lists are exact for clamped lookups. The cover is over
        // the *closed* region rect: any point a region can match — via
        // `contains` or `contains_closed` — maps into one of the covered
        // cells, even after out-of-bounds points clamp into border cells.
        let mut cell_lists: Vec<Vec<u32>> = vec![Vec::new(); lookup_side * lookup_side];
        let (w, h) = (bounds.width(), bounds.height());
        for (idx, region) in regions.iter().enumerate() {
            let c0 = axis_cell(region.area.min.x, bounds.min.x, w, lookup_side);
            let c1 = axis_cell(region.area.max.x, bounds.min.x, w, lookup_side);
            let r0 = axis_cell(region.area.min.y, bounds.min.y, h, lookup_side);
            let r1 = axis_cell(region.area.max.y, bounds.min.y, h, lookup_side);
            for row in r0..=r1 {
                for col in c0..=c1 {
                    cell_lists[row * lookup_side + col].push(idx as u32);
                }
            }
        }
        // Two regions whose closed areas share a point share that point's
        // cell in the cover, so only regions listed together in some cell
        // can overlap. `intersects` is the test that one's closed area
        // meets the other's open interior (either way round); it also
        // catches a zero-width region lying across another's interior.
        let mut alone = vec![true; regions.len()];
        for list in &cell_lists {
            for (k, &a) in list.iter().enumerate() {
                for &b in &list[k + 1..] {
                    let (a, b) = (a as usize, b as usize);
                    if (alone[a] || alone[b]) && regions[a].area.intersects(&regions[b].area) {
                        alone[a] = false;
                        alone[b] = false;
                    }
                }
            }
        }
        let mut cell_regions_offsets = Vec::with_capacity(cell_lists.len() + 1);
        cell_regions_offsets.push(0u32);
        let mut cell_regions = Vec::new();
        for list in &cell_lists {
            cell_regions.extend_from_slice(list);
            cell_regions_offsets.push(cell_regions.len() as u32);
        }
        SheddingPlan {
            bounds,
            regions,
            lookup_side,
            lookup,
            cell_regions_offsets,
            cell_regions,
            alone,
            default_delta,
        }
    }

    /// A trivial plan: one region covering the whole space with a single
    /// threshold (the Uniform Δ baseline).
    pub fn uniform(bounds: Rect, delta: f64) -> Self {
        SheddingPlan::new(
            bounds,
            vec![PlanRegion {
                area: bounds,
                throttler: delta,
            }],
            delta,
        )
    }

    /// The monitored space.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// All regions in the plan.
    pub fn regions(&self) -> &[PlanRegion] {
        &self.regions
    }

    /// Number of shedding regions `l`.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the plan has no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The update throttler for a mobile node at `p` — what a node looks up
    /// locally each time it crosses into a new shedding region.
    pub fn throttler_at(&self, p: &Point) -> f64 {
        self.region_at(p).1
    }

    /// The shedding region containing `p` — its index into
    /// [`Self::regions`] and its throttler. The index is `None` when `p`
    /// falls outside every region (the default throttler applies). Used
    /// by telemetry to attribute admitted/shed updates per region; the
    /// throttler returned is byte-identical to [`Self::throttler_at`].
    pub fn region_at(&self, p: &Point) -> (Option<usize>, f64) {
        let col = axis_cell(
            p.x,
            self.bounds.min.x,
            self.bounds.width(),
            self.lookup_side,
        );
        let row = axis_cell(
            p.y,
            self.bounds.min.y,
            self.bounds.height(),
            self.lookup_side,
        );
        let cell = row * self.lookup_side + col;
        let idx = self.lookup[cell];
        if idx != u32::MAX {
            let region = &self.regions[idx as usize];
            // `contains_closed` subsumes the half-open `contains`: one
            // closed test keeps both the interior and the upper edges
            // (borders resolve to the cell's assigned region, as before).
            if region.area.contains_closed(p) {
                return (Some(idx as usize), region.throttler);
            }
        }
        // Fallback: exact scan of the regions covering this cell, in
        // ascending region order. Any region containing `p` covers `p`'s
        // clamped cell (the cover uses the same monotone cell map), so the
        // first match here equals the first match of a full linear scan.
        let (lo, hi) = (
            self.cell_regions_offsets[cell] as usize,
            self.cell_regions_offsets[cell + 1] as usize,
        );
        for &ri in &self.cell_regions[lo..hi] {
            if self.regions[ri as usize].area.contains(p) {
                return (Some(ri as usize), self.regions[ri as usize].throttler);
            }
        }
        (None, self.default_delta)
    }

    /// Exactly [`Self::region_at`]`(p)`, for any `hint`, answered without
    /// the lookup grid when the hint is right: `hint` is the region index
    /// a caller last got for this node (`u32::MAX` for none; a stale or
    /// out-of-range index is fine). The hint is taken when `p` lies in
    /// the hinted region's *open* interior and no other region's closed
    /// area meets that interior, where `region_at` has no other answer to
    /// give. A point on a shared edge goes to `region_at`, which resolves
    /// it to the cell's assigned region, not necessarily to the hint.
    #[inline]
    pub fn region_from(&self, p: &Point, hint: u32) -> (Option<usize>, f64) {
        let h = hint as usize;
        if let Some(region) = self.regions.get(h) {
            let a = &region.area;
            if self.alone[h] && a.min.x < p.x && p.x < a.max.x && a.min.y < p.y && p.y < a.max.y {
                return (Some(h), region.throttler);
            }
        }
        self.region_at(p)
    }

    /// The subset of regions a base station with the given coverage area
    /// must broadcast (Section 2.2).
    pub fn subset_for(&self, coverage: &Circle) -> Vec<PlanRegion> {
        self.regions
            .iter()
            .filter(|r| coverage.intersects_rect(&r.area))
            .copied()
            .collect()
    }

    /// Serializes regions to the paper's broadcast format: per region the
    /// square's min-x, min-y, side and the throttler, each as an `f32`
    /// (16 bytes per region).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.regions.len() * 16);
        for r in &self.regions {
            out.extend_from_slice(&(r.area.min.x as f32).to_le_bytes());
            out.extend_from_slice(&(r.area.min.y as f32).to_le_bytes());
            out.extend_from_slice(&(r.area.width() as f32).to_le_bytes());
            out.extend_from_slice(&(r.throttler as f32).to_le_bytes());
        }
        out
    }

    /// The regions of `self` that differ from `old` (new areas, or same
    /// area with a changed throttler) — the *delta broadcast* a base
    /// station can send after a re-adaptation instead of the full subset.
    /// Throttlers are compared at the wire format's `f32` resolution, so a
    /// sub-representable change never triggers a broadcast.
    pub fn changed_regions(&self, old: &SheddingPlan) -> Vec<PlanRegion> {
        let same_rect = |a: &Rect, b: &Rect| {
            (a.min.x - b.min.x).abs() < 1e-6
                && (a.min.y - b.min.y).abs() < 1e-6
                && (a.max.x - b.max.x).abs() < 1e-6
                && (a.max.y - b.max.y).abs() < 1e-6
        };
        self.regions
            .iter()
            .filter(|r| {
                !old.regions.iter().any(|o| {
                    same_rect(&o.area, &r.area) && (o.throttler as f32) == (r.throttler as f32)
                })
            })
            .copied()
            .collect()
    }

    /// Decodes a broadcast payload back into plan regions.
    pub fn decode(bounds: Rect, bytes: &[u8], default_delta: f64) -> Result<Self> {
        if !bytes.len().is_multiple_of(16) {
            return Err(LiraError::MalformedPlan(format!(
                "payload length {} is not a multiple of 16",
                bytes.len()
            )));
        }
        let mut regions = Vec::with_capacity(bytes.len() / 16);
        for chunk in bytes.chunks_exact(16) {
            let read = |i: usize| {
                f32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]) as f64
            };
            let (x, y, side, delta) = (read(0), read(4), read(8), read(12));
            if side <= 0.0 || side.is_nan() || !delta.is_finite() || delta < 0.0 {
                return Err(LiraError::MalformedPlan(format!(
                    "invalid region: side {side}, delta {delta}"
                )));
            }
            regions.push(PlanRegion {
                area: Rect::square(Point::new(x, y), side),
                throttler: delta,
            });
        }
        Ok(SheddingPlan::new(bounds, regions, default_delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_plan() -> SheddingPlan {
        // Four quadrant regions of a 100x100 space with distinct deltas.
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = bounds
            .quadrants()
            .iter()
            .enumerate()
            .map(|(i, q)| PlanRegion {
                area: *q,
                throttler: 10.0 * (i + 1) as f64,
            })
            .collect();
        SheddingPlan::new(bounds, regions, 5.0)
    }

    #[test]
    fn lookup_finds_correct_region() {
        let p = quad_plan();
        assert_eq!(p.throttler_at(&Point::new(10.0, 10.0)), 10.0); // SW
        assert_eq!(p.throttler_at(&Point::new(90.0, 10.0)), 20.0); // SE
        assert_eq!(p.throttler_at(&Point::new(10.0, 90.0)), 30.0); // NW
        assert_eq!(p.throttler_at(&Point::new(90.0, 90.0)), 40.0); // NE
    }

    #[test]
    fn lookup_on_borders_is_consistent() {
        let p = quad_plan();
        // The half-open convention assigns borders to the upper region.
        assert_eq!(p.throttler_at(&Point::new(50.0, 10.0)), 20.0);
        assert_eq!(p.throttler_at(&Point::new(10.0, 50.0)), 30.0);
        assert_eq!(p.throttler_at(&Point::new(50.0, 50.0)), 40.0);
        // The space's own max corner still resolves to some region.
        let d = p.throttler_at(&Point::new(100.0, 100.0));
        assert!(d > 0.0);
    }

    #[test]
    fn lookup_agrees_with_linear_scan_everywhere() {
        let p = quad_plan();
        for i in 0..50 {
            for j in 0..50 {
                let pt = Point::new(i as f64 * 2.0 + 0.7, j as f64 * 2.0 + 0.3);
                let scan = p
                    .regions()
                    .iter()
                    .find(|r| r.area.contains(&pt))
                    .map(|r| r.throttler)
                    .unwrap();
                assert_eq!(p.throttler_at(&pt), scan, "at {pt}");
            }
        }
    }

    /// The pre-CSR `region_at` algorithm: lookup-table fast path, full
    /// linear-scan fallback. The refactored version must match it on
    /// every input, border points included.
    fn region_at_reference(plan: &SheddingPlan, p: &Point) -> (Option<usize>, f64) {
        let col = axis_cell(
            p.x,
            plan.bounds.min.x,
            plan.bounds.width(),
            plan.lookup_side,
        );
        let row = axis_cell(
            p.y,
            plan.bounds.min.y,
            plan.bounds.height(),
            plan.lookup_side,
        );
        let idx = plan.lookup[row * plan.lookup_side + col];
        if idx != u32::MAX {
            let region = &plan.regions[idx as usize];
            if region.area.contains(p) || region.area.contains_closed(p) {
                return (Some(idx as usize), region.throttler);
            }
        }
        match plan.regions.iter().position(|r| r.area.contains(p)) {
            Some(i) => (Some(i), plan.regions[i].throttler),
            None => (None, plan.default_delta),
        }
    }

    /// Regions deliberately misaligned with the lookup grid (and one
    /// poking outside bounds, as a decoded broadcast can produce), so
    /// many cells straddle region borders and exercise the fallback.
    fn misaligned_plan() -> SheddingPlan {
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let regions = vec![
            PlanRegion {
                area: Rect::from_coords(7.0, 3.0, 44.0, 61.0),
                throttler: 12.0,
            },
            PlanRegion {
                area: Rect::from_coords(44.0, 3.0, 93.0, 61.0),
                throttler: 33.0,
            },
            PlanRegion {
                area: Rect::from_coords(7.0, 61.0, 93.0, 97.0),
                throttler: 21.0,
            },
            PlanRegion {
                area: Rect::from_coords(85.0, -10.0, 115.0, 20.0),
                throttler: 48.0,
            },
        ];
        SheddingPlan::new(bounds, regions, 5.0)
    }

    #[test]
    fn region_at_matches_reference_on_borders() {
        for plan in [quad_plan(), misaligned_plan()] {
            // A lattice hitting region borders exactly (region edges of
            // both plans lie on integer coordinates), plus out-of-bounds
            // points and the bounds corners.
            let mut coords: Vec<f64> = (-2..=21).map(|i| i as f64 * 5.0).collect();
            coords.extend([3.0, 7.0, 44.0, 61.0, 85.0, 93.0, 97.0, 99.999, 100.0]);
            for &x in &coords {
                for &y in &coords {
                    let p = Point::new(x, y);
                    assert_eq!(plan.region_at(&p), region_at_reference(&plan, &p), "at {p}");
                }
            }
        }
    }

    #[test]
    fn uniform_plan() {
        let bounds = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let p = SheddingPlan::uniform(bounds, 42.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.throttler_at(&Point::new(3.0, 7.0)), 42.0);
    }

    #[test]
    fn outside_points_use_default() {
        let p = quad_plan();
        assert_eq!(p.throttler_at(&Point::new(-50.0, -50.0)), 5.0);
    }

    #[test]
    fn subset_for_coverage() {
        let p = quad_plan();
        // A small circle inside the SW quadrant sees one region.
        let c = Circle::new(Point::new(20.0, 20.0), 5.0);
        assert_eq!(p.subset_for(&c).len(), 1);
        // A circle at the center touches all four.
        let c = Circle::new(Point::new(50.0, 50.0), 5.0);
        assert_eq!(p.subset_for(&c).len(), 4);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = quad_plan();
        let bytes = p.encode();
        assert_eq!(bytes.len(), 4 * 16);
        let q = SheddingPlan::decode(*p.bounds(), &bytes, 5.0).unwrap();
        assert_eq!(q.len(), 4);
        for (a, b) in p.regions().iter().zip(q.regions()) {
            assert!((a.throttler - b.throttler).abs() < 1e-6);
            assert!((a.area.min.x - b.area.min.x).abs() < 1e-3);
            assert!((a.area.width() - b.area.width()).abs() < 1e-3);
        }
        // Lookups agree after the round trip.
        for pt in [Point::new(10.0, 10.0), Point::new(90.0, 90.0)] {
            assert_eq!(p.throttler_at(&pt), q.throttler_at(&pt));
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let bounds = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(SheddingPlan::decode(bounds, &[0u8; 15], 5.0).is_err());
        // Zero side length.
        let mut bad = Vec::new();
        bad.extend_from_slice(&0f32.to_le_bytes());
        bad.extend_from_slice(&0f32.to_le_bytes());
        bad.extend_from_slice(&0f32.to_le_bytes());
        bad.extend_from_slice(&5f32.to_le_bytes());
        assert!(SheddingPlan::decode(bounds, &bad, 5.0).is_err());
        // Negative throttler.
        let mut bad = Vec::new();
        bad.extend_from_slice(&0f32.to_le_bytes());
        bad.extend_from_slice(&0f32.to_le_bytes());
        bad.extend_from_slice(&1f32.to_le_bytes());
        bad.extend_from_slice(&(-1f32).to_le_bytes());
        assert!(SheddingPlan::decode(bounds, &bad, 5.0).is_err());
    }

    #[test]
    fn changed_regions_deltas() {
        let p = quad_plan();
        // Identical plan: nothing to broadcast.
        assert!(p.changed_regions(&p).is_empty());
        // One throttler changes: exactly that region is in the delta.
        let mut regions = p.regions().to_vec();
        regions[2].throttler = 99.0;
        let q = SheddingPlan::new(*p.bounds(), regions, 5.0);
        let delta = q.changed_regions(&p);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].throttler, 99.0);
        // A repartitioning: all four new quadrant-halves differ.
        let halves: Vec<PlanRegion> = Rect::from_coords(0.0, 0.0, 100.0, 100.0).quadrants()[0]
            .quadrants()
            .iter()
            .map(|r| PlanRegion {
                area: *r,
                throttler: 10.0,
            })
            .collect();
        let r = SheddingPlan::new(*p.bounds(), halves, 5.0);
        assert_eq!(r.changed_regions(&p).len(), 4);
        // Sub-f32 throttler jitter does not trigger a broadcast.
        let mut regions = p.regions().to_vec();
        regions[0].throttler += 1e-9;
        let s2 = SheddingPlan::new(*p.bounds(), regions, 5.0);
        assert!(s2.changed_regions(&p).is_empty());
    }

    #[test]
    fn paper_messaging_cost_example() {
        // Section 4.3.2: 41 regions -> 41·(3+1)·4 = 656 bytes, under the
        // 1472-byte UDP payload limit.
        let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let regions: Vec<PlanRegion> = (0..41)
            .map(|i| PlanRegion {
                area: Rect::square(
                    Point::new((i % 7) as f64 * 100.0, (i / 7) as f64 * 100.0),
                    100.0,
                ),
                throttler: 10.0,
            })
            .collect();
        let p = SheddingPlan::new(bounds, regions, 5.0);
        assert_eq!(p.encode().len(), 656);
        assert!(p.encode().len() <= 1472);
    }

    #[test]
    fn empty_plan_is_safe() {
        let bounds = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let p = SheddingPlan::new(bounds, vec![], 7.0);
        assert!(p.is_empty());
        assert_eq!(p.throttler_at(&Point::new(0.5, 0.5)), 7.0);
        assert_eq!(p.region_from(&Point::new(0.5, 0.5), 0), (None, 7.0));
        assert!(p.encode().is_empty());
    }

    /// Every hint a caller can hold for `plan`: each region, one past the
    /// last, a far index and none.
    fn every_hint(plan: &SheddingPlan) -> impl Iterator<Item = u32> {
        (0..=plan.len() as u32).chain([plan.len() as u32 + 7, u32::MAX])
    }

    /// Points on and around every region edge and corner: each edge
    /// coordinate, the midpoints between neighbouring ones, and points
    /// beyond the bounds on every side.
    fn probe_points(plan: &SheddingPlan) -> Vec<Point> {
        let axis = |lo: f64, hi: f64, edges: fn(&Rect) -> [f64; 2]| {
            let mut c: Vec<f64> = plan.regions.iter().flat_map(|r| edges(&r.area)).collect();
            c.extend([lo, hi, lo - 13.0, hi + 13.0]);
            c.sort_by(f64::total_cmp);
            c.dedup();
            let mids: Vec<f64> = c.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
            c.extend(mids);
            c
        };
        let b = plan.bounds;
        let xs = axis(b.min.x, b.max.x, |a| [a.min.x, a.max.x]);
        let ys = axis(b.min.y, b.max.y, |a| [a.min.y, a.max.y]);
        xs.iter()
            .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
            .collect()
    }

    #[test]
    fn hints_are_taken_only_where_region_at_has_no_other_answer() {
        // A tiling: every region is alone, and an interior point is the
        // hinted region's whatever the lookup grid holds.
        let quad = quad_plan();
        assert!(quad.alone.iter().all(|&a| a));
        assert_eq!(
            quad.region_from(&Point::new(10.0, 10.0), 0),
            (Some(0), 10.0)
        );
        // On the edge two quadrants share, `region_at` says SE (the
        // half-open rule); a hint of SW, whose closed area holds the
        // point, must not be taken.
        let edge = Point::new(50.0, 10.0);
        assert_eq!(quad.region_at(&edge), (Some(1), 20.0));
        assert_eq!(quad.region_from(&edge, 0), (Some(1), 20.0));
        // A region nested in another: neither is alone, so a point inside
        // both resolves as `region_at` resolves it whatever the hint.
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let nested = SheddingPlan::new(
            bounds,
            vec![
                PlanRegion {
                    area: bounds,
                    throttler: 10.0,
                },
                PlanRegion {
                    area: Rect::from_coords(20.0, 20.0, 40.0, 40.0),
                    throttler: 30.0,
                },
            ],
            5.0,
        );
        assert_eq!(nested.alone, vec![false, false]);
        let inner = Point::new(30.0, 30.0);
        assert_eq!(nested.region_at(&inner), (Some(1), 30.0));
        for hint in every_hint(&nested) {
            assert_eq!(nested.region_from(&inner, hint), (Some(1), 30.0));
        }
    }

    /// A plan drawn from four families: the uniform plan; GRIDREDUCE and
    /// the equal-size partitioning over a random statistics grid, through
    /// `from_solution`; and hand-built regions on a coarse lattice, so
    /// they overlap, nest, share edges and corners, poke outside the
    /// bounds and are sometimes zero wide or zero high.
    fn arbitrary_plan(family: usize, seed: u64, raw: &[(u32, u32, u32, u32, u32)]) -> SheddingPlan {
        use crate::greedy_increment::ThrottlerSolution;
        use crate::grid_reduce::{grid_reduce, l_partitioning, GridReduceParams};
        use crate::reduction::ReductionModel;
        use crate::stats_grid::StatsGrid;
        use rand::{Rng, SeedableRng};

        let bounds = Rect::from_coords(-37.5, 12.25, 962.5, 1012.25);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        if family == 0 {
            return SheddingPlan::uniform(bounds, 25.0);
        }
        if family == 3 {
            let regions = raw
                .iter()
                .map(|&(x, y, w, h, d)| {
                    let at = |v: u32, lo: f64| lo - 125.0 + f64::from(v) * 125.0;
                    let (x0, y0) = (at(x, bounds.min.x), at(y, bounds.min.y));
                    let side = |v: u32| f64::from(v) * 125.0;
                    PlanRegion {
                        area: Rect::from_coords(x0, y0, x0 + side(w), y0 + side(h)),
                        throttler: 5.0 + f64::from(d),
                    }
                })
                .collect();
            return SheddingPlan::new(bounds, regions, 3.0);
        }
        let mut grid = StatsGrid::new(8, bounds).unwrap();
        grid.begin_snapshot();
        for _ in 0..400 {
            let p = Point::new(
                rng.gen_range(bounds.min.x..bounds.max.x),
                rng.gen_range(bounds.min.y..bounds.max.y),
            );
            grid.observe_node(&p, rng.gen_range(1.0..30.0), 1.0);
        }
        grid.commit_snapshot();
        let l = [1, 4, 7, 16, 25][rng.gen_range(0..5)];
        let partitioning = if family == 1 {
            let model = ReductionModel::analytic(5.0, 100.0, 95);
            grid_reduce(&grid, &model, &GridReduceParams::new(l, 0.5, 0.0, true)).unwrap()
        } else {
            l_partitioning(&grid, l)
        };
        let solution = ThrottlerSolution {
            deltas: (0..partitioning.regions.len())
                .map(|_| rng.gen_range(5.0..100.0))
                .collect(),
            expenditure: 0.0,
            budget: 0.0,
            inaccuracy: 0.0,
            steps: 0,
            budget_met: true,
            final_gain: None,
        };
        SheddingPlan::from_solution(bounds, &partitioning, &solution, 3.0).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// `region_from(p, h)` is `region_at(p)` for every hint `h` a
        /// caller can hold, on and around every edge and corner of tilings
        /// and of overlapping, nested and zero-width regions, inside the
        /// bounds and out.
        #[test]
        fn region_from_equals_region_at_for_every_hint(
            family in 0usize..4,
            seed in 0u64..1_000_000,
            raw in proptest::collection::vec(
                (0u32..10, 0u32..10, 0u32..5, 0u32..5, 0u32..100),
                1..9,
            ),
        ) {
            let plan = arbitrary_plan(family, seed, &raw);
            for p in probe_points(&plan) {
                let want = plan.region_at(&p);
                for hint in every_hint(&plan) {
                    proptest::prop_assert_eq!(plan.region_from(&p, hint), want);
                }
            }
        }
    }
}
