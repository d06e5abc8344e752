//! The mobile-node side of LIRA (Sections 2.2 and 4.3.2): each node stores
//! only the shedding regions covering its base station's area, indexed by a
//! tiny 5×5 grid so the current throttler is found quickly even on
//! computationally weak devices.

use lira_core::geometry::{Point, Rect};
use lira_core::plan::PlanRegion;

/// Side cell count of the on-device lookup grid (the paper's "tiny 5×5
/// grid index on the mobile node side").
pub(crate) const LOCAL_GRID_SIDE: usize = 5;

/// The shedding state installed on one mobile node.
#[derive(Debug, Clone)]
pub struct MobileShedder {
    /// Owning node.
    pub node: u32,
    /// Bounding box of the installed regions (the station's relevant area).
    extent: Rect,
    regions: Vec<PlanRegion>,
    /// 5×5 cells, each listing the indices of regions overlapping it.
    cells: Vec<Vec<u16>>,
    /// Threshold used when the position matches no installed region
    /// (e.g. right after a hand-off race); the safest choice is `Δ⊢`.
    default_delta: f64,
}

impl MobileShedder {
    /// Installs a region subset received from a base-station broadcast.
    pub fn install(node: u32, regions: Vec<PlanRegion>, default_delta: f64) -> Self {
        let extent = regions
            .iter()
            .map(|r| r.area)
            .reduce(|a, b| {
                Rect::from_coords(
                    a.min.x.min(b.min.x),
                    a.min.y.min(b.min.y),
                    a.max.x.max(b.max.x),
                    a.max.y.max(b.max.y),
                )
            })
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let mut shedder = MobileShedder {
            node,
            extent,
            regions,
            cells: vec![Vec::new(); LOCAL_GRID_SIDE * LOCAL_GRID_SIDE],
            default_delta,
        };
        shedder.rebuild_cells();
        shedder
    }

    fn rebuild_cells(&mut self) {
        for c in &mut self.cells {
            c.clear();
        }
        let cw = self.extent.width() / LOCAL_GRID_SIDE as f64;
        let ch = self.extent.height() / LOCAL_GRID_SIDE as f64;
        for (i, region) in self.regions.iter().enumerate() {
            for row in 0..LOCAL_GRID_SIDE {
                for col in 0..LOCAL_GRID_SIDE {
                    let cell = Rect::from_coords(
                        self.extent.min.x + col as f64 * cw,
                        self.extent.min.y + row as f64 * ch,
                        self.extent.min.x + (col + 1) as f64 * cw,
                        self.extent.min.y + (row + 1) as f64 * ch,
                    );
                    if region.area.intersects(&cell) {
                        self.cells[row * LOCAL_GRID_SIDE + col].push(i as u16);
                    }
                }
            }
        }
    }

    /// Replaces the installed regions after a hand-off to a new base station.
    pub fn handoff(&mut self, regions: Vec<PlanRegion>) {
        *self = MobileShedder::install(self.node, regions, self.default_delta);
    }

    /// Number of regions installed (the paper's per-node memory metric).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The inaccuracy threshold to use at position `p`: the throttler of the
    /// shedding region containing `p` (determined locally, Section 2.2).
    pub fn throttler_at(&self, p: &Point) -> f64 {
        if self.regions.is_empty() || !self.extent.contains_closed(p) {
            return self.default_delta;
        }
        let col = ((p.x - self.extent.min.x) / self.extent.width() * LOCAL_GRID_SIDE as f64)
            .floor()
            .clamp(0.0, (LOCAL_GRID_SIDE - 1) as f64) as usize;
        let row = ((p.y - self.extent.min.y) / self.extent.height() * LOCAL_GRID_SIDE as f64)
            .floor()
            .clamp(0.0, (LOCAL_GRID_SIDE - 1) as f64) as usize;
        for &i in &self.cells[row * LOCAL_GRID_SIDE + col] {
            if self.regions[i as usize].area.contains(p) {
                return self.regions[i as usize].throttler;
            }
        }
        self.default_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions() -> Vec<PlanRegion> {
        Rect::from_coords(0.0, 0.0, 100.0, 100.0)
            .quadrants()
            .iter()
            .enumerate()
            .map(|(i, q)| PlanRegion {
                area: *q,
                throttler: 10.0 * (i + 1) as f64,
            })
            .collect()
    }

    #[test]
    fn lookup_matches_regions() {
        let m = MobileShedder::install(7, regions(), 5.0);
        assert_eq!(m.num_regions(), 4);
        assert_eq!(m.throttler_at(&Point::new(10.0, 10.0)), 10.0);
        assert_eq!(m.throttler_at(&Point::new(60.0, 10.0)), 20.0);
        assert_eq!(m.throttler_at(&Point::new(10.0, 60.0)), 30.0);
        assert_eq!(m.throttler_at(&Point::new(60.0, 60.0)), 40.0);
    }

    #[test]
    fn outside_extent_uses_default() {
        let m = MobileShedder::install(7, regions(), 5.0);
        assert_eq!(m.throttler_at(&Point::new(500.0, 500.0)), 5.0);
        assert_eq!(m.throttler_at(&Point::new(-1.0, 50.0)), 5.0);
    }

    #[test]
    fn empty_install_is_safe() {
        let m = MobileShedder::install(1, Vec::new(), 5.0);
        assert_eq!(m.num_regions(), 0);
        assert_eq!(m.throttler_at(&Point::new(3.0, 3.0)), 5.0);
    }

    #[test]
    fn tiny_extent_is_safe() {
        // A subset of one small region: the 5x5 grid degenerates gracefully.
        let m = MobileShedder::install(
            0,
            vec![PlanRegion {
                area: Rect::from_coords(10.0, 10.0, 10.5, 10.5),
                throttler: 42.0,
            }],
            5.0,
        );
        assert_eq!(m.throttler_at(&Point::new(10.2, 10.2)), 42.0);
        assert_eq!(m.throttler_at(&Point::new(11.0, 11.0)), 5.0);
    }

    #[test]
    fn handoff_replaces_regions() {
        let mut m = MobileShedder::install(7, regions(), 5.0);
        let new_regions = vec![PlanRegion {
            area: Rect::from_coords(1000.0, 1000.0, 2000.0, 2000.0),
            throttler: 77.0,
        }];
        m.handoff(new_regions);
        assert_eq!(m.num_regions(), 1);
        assert_eq!(m.throttler_at(&Point::new(1500.0, 1500.0)), 77.0);
        // Old area is no longer installed.
        assert_eq!(m.throttler_at(&Point::new(10.0, 10.0)), 5.0);
    }

    #[test]
    fn lookup_agrees_with_linear_scan() {
        // Irregular subset (non-tiling) as a station would really send.
        let rs = vec![
            PlanRegion {
                area: Rect::from_coords(0.0, 0.0, 30.0, 30.0),
                throttler: 11.0,
            },
            PlanRegion {
                area: Rect::from_coords(30.0, 0.0, 90.0, 60.0),
                throttler: 22.0,
            },
            PlanRegion {
                area: Rect::from_coords(0.0, 30.0, 30.0, 90.0),
                throttler: 33.0,
            },
        ];
        let m = MobileShedder::install(0, rs.clone(), 5.0);
        for i in 0..30 {
            for j in 0..30 {
                let p = Point::new(i as f64 * 3.1, j as f64 * 3.1);
                let scan = rs
                    .iter()
                    .find(|r| r.area.contains(&p))
                    .map_or(5.0, |r| r.throttler);
                assert_eq!(m.throttler_at(&p), scan, "at {p}");
            }
        }
    }
}
