//! The statistics grid (Section 3.2.1): the only data structure the LIRA
//! load shedder maintains.
//!
//! An `α × α` evenly spaced grid over the monitored space. Each cell
//! `c_{i,j}` stores the (average) number of mobile nodes `n_{i,j}`, the
//! fractional number of queries `m_{i,j}` (queries partially intersecting a
//! cell are counted by area fraction, per Section 3.1), and the average node
//! speed `s_{i,j}`.
//!
//! Maintenance is deliberately lightweight: constant-time per position
//! update. Three maintenance styles from the paper are supported:
//! exact per-snapshot rebuilds ([`StatsGrid::begin_snapshot`] +
//! [`StatsGrid::observe_node`]), sampled maintenance (callers simply observe
//! a subset of nodes and pass the sampling rate), and offline/historic
//! loading ([`StatsGrid::load_cells`]).

use crate::error::{LiraError, Result};
use crate::geometry::{Point, Rect};

/// Raw accumulators for one grid cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellStats {
    /// (Average) number of mobile nodes in the cell, `n_{i,j}`.
    pub nodes: f64,
    /// Fractional number of queries overlapping the cell, `m_{i,j}`.
    pub queries: f64,
    /// Sum of node speeds, so `mean speed = speed_sum / nodes`.
    pub speed_sum: f64,
}

impl CellStats {
    /// Mean node speed in the cell (0 when empty).
    #[inline]
    pub fn mean_speed(&self) -> f64 {
        if self.nodes > 0.0 {
            self.speed_sum / self.nodes
        } else {
            0.0
        }
    }
}

/// The `α × α` statistics grid.
#[derive(Debug, Clone)]
pub struct StatsGrid {
    alpha: usize,
    bounds: Rect,
    cells: Vec<CellStats>,
    /// Scratch accumulators for the snapshot under construction.
    pending: Vec<CellStats>,
    snapshots_committed: u64,
}

impl StatsGrid {
    /// Creates an empty grid with `alpha` cells per side over `bounds`.
    pub fn new(alpha: usize, bounds: Rect) -> Result<Self> {
        if alpha == 0 || !alpha.is_power_of_two() {
            return Err(LiraError::InvalidConfig(format!(
                "alpha = {alpha} must be a power of two"
            )));
        }
        if bounds.area() <= 0.0 {
            return Err(LiraError::InvalidConfig(
                "bounds must have positive area".into(),
            ));
        }
        Ok(StatsGrid {
            alpha,
            bounds,
            cells: vec![CellStats::default(); alpha * alpha],
            pending: vec![CellStats::default(); alpha * alpha],
            snapshots_committed: 0,
        })
    }

    /// Grid side cell count `α`.
    #[inline]
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The monitored space covered by the grid.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Number of committed snapshots (0 means the grid holds no data yet).
    #[inline]
    pub(crate) fn snapshots_committed(&self) -> u64 {
        self.snapshots_committed
    }

    /// `(row, col)` of the cell containing `p` (clamped to the grid edge so
    /// boundary points on the max edge still map to a cell).
    #[inline]
    pub(crate) fn cell_of(&self, p: &Point) -> (usize, usize) {
        let col = ((p.x - self.bounds.min.x) / self.bounds.width() * self.alpha as f64)
            .floor()
            .clamp(0.0, (self.alpha - 1) as f64) as usize;
        let row = ((p.y - self.bounds.min.y) / self.bounds.height() * self.alpha as f64)
            .floor()
            .clamp(0.0, (self.alpha - 1) as f64) as usize;
        (row, col)
    }

    /// The rectangle of cell `(row, col)`.
    pub fn cell_rect(&self, row: usize, col: usize) -> Rect {
        let w = self.bounds.width() / self.alpha as f64;
        let h = self.bounds.height() / self.alpha as f64;
        Rect::from_coords(
            self.bounds.min.x + col as f64 * w,
            self.bounds.min.y + row as f64 * h,
            self.bounds.min.x + (col + 1) as f64 * w,
            self.bounds.min.y + (row + 1) as f64 * h,
        )
    }

    /// Read access to a cell's statistics.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &CellStats {
        &self.cells[row * self.alpha + col]
    }

    /// Starts accumulating a new snapshot: clears the pending accumulators.
    pub fn begin_snapshot(&mut self) {
        for c in &mut self.pending {
            *c = CellStats::default();
        }
    }

    /// Records one mobile node observation (position + speed) into the
    /// pending snapshot. Constant time, as required by Section 3.2.1.
    ///
    /// `weight` supports sampled maintenance: when observing a `p`-fraction
    /// sample of the population, pass `weight = 1/p` so expectations match
    /// the full population. Pass `1.0` for exact maintenance.
    #[inline]
    pub fn observe_node(&mut self, position: &Point, speed: f64, weight: f64) {
        let (row, col) = self.cell_of(position);
        let cell = &mut self.pending[row * self.alpha + col];
        cell.nodes += weight;
        cell.speed_sum += speed * weight;
    }

    /// Records one registered query region into the pending snapshot.
    /// Queries partially intersecting a cell are counted fractionally by
    /// area, per the `m_i` definition in Section 3.1.
    pub fn observe_query(&mut self, region: &Rect) {
        let qarea = region.area();
        if qarea <= 0.0 {
            return;
        }
        // Only visit cells overlapping the query's bounding range.
        let (r0, c0) = self.cell_of(&region.min);
        // A point exactly on the max corner belongs to the previous cell.
        let eps = 1e-9;
        let (r1, c1) = self.cell_of(&Point::new(region.max.x - eps, region.max.y - eps));
        for row in r0..=r1 {
            for col in c0..=c1 {
                let overlap = self.cell_rect(row, col).intersection_area(region);
                if overlap > 0.0 {
                    self.pending[row * self.alpha + col].queries += overlap / qarea;
                }
            }
        }
    }

    /// Commits the pending snapshot: it replaces the live statistics.
    pub fn commit_snapshot(&mut self) {
        self.cells.copy_from_slice(&self.pending);
        self.snapshots_committed += 1;
    }

    /// Loads precomputed cell statistics (offline/historic maintenance mode,
    /// Section 3.2.1). `cells` must be row-major with `α²` entries.
    pub fn load_cells(&mut self, cells: &[CellStats]) -> Result<()> {
        if cells.len() != self.alpha * self.alpha {
            return Err(LiraError::InvalidConfig(format!(
                "expected {} cells, got {}",
                self.alpha * self.alpha,
                cells.len()
            )));
        }
        self.cells.copy_from_slice(cells);
        self.snapshots_committed += 1;
        Ok(())
    }

    /// Total node count over all cells.
    pub fn total_nodes(&self) -> f64 {
        self.cells.iter().map(|c| c.nodes).sum()
    }

    /// Total (fractional) query count over all cells.
    pub fn total_queries(&self) -> f64 {
        self.cells.iter().map(|c| c.queries).sum()
    }

    /// Raw row-major access to all cells.
    pub fn cells(&self) -> &[CellStats] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> StatsGrid {
        StatsGrid::new(4, Rect::from_coords(0.0, 0.0, 100.0, 100.0)).unwrap()
    }

    #[test]
    fn construction_validation() {
        let b = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(StatsGrid::new(0, b).is_err());
        assert!(StatsGrid::new(3, b).is_err());
        assert!(StatsGrid::new(4, Rect::from_coords(0.0, 0.0, 0.0, 1.0)).is_err());
        assert!(StatsGrid::new(4, b).is_ok());
    }

    #[test]
    fn cell_of_maps_and_clamps() {
        let g = grid4();
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_of(&Point::new(99.9, 0.0)), (0, 3));
        assert_eq!(g.cell_of(&Point::new(0.0, 99.9)), (3, 0));
        assert_eq!(g.cell_of(&Point::new(30.0, 80.0)), (3, 1));
        // Max edge (and beyond) clamps into the grid.
        assert_eq!(g.cell_of(&Point::new(100.0, 100.0)), (3, 3));
        assert_eq!(g.cell_of(&Point::new(-5.0, 250.0)), (3, 0));
    }

    #[test]
    fn cell_rects_tile_bounds() {
        let g = grid4();
        let mut total = 0.0;
        for r in 0..4 {
            for c in 0..4 {
                let rect = g.cell_rect(r, c);
                assert_eq!(rect.area(), 625.0);
                total += rect.area();
                // The cell's center maps back to (r, c).
                assert_eq!(g.cell_of(&rect.center()), (r, c));
            }
        }
        assert_eq!(total, g.bounds().area());
    }

    #[test]
    fn node_observation_accumulates() {
        let mut g = grid4();
        g.begin_snapshot();
        g.observe_node(&Point::new(10.0, 10.0), 20.0, 1.0);
        g.observe_node(&Point::new(12.0, 12.0), 10.0, 1.0);
        g.observe_node(&Point::new(90.0, 90.0), 30.0, 1.0);
        g.commit_snapshot();
        let c = g.cell(0, 0);
        assert_eq!(c.nodes, 2.0);
        assert_eq!(c.mean_speed(), 15.0);
        assert_eq!(g.cell(3, 3).nodes, 1.0);
        assert_eq!(g.total_nodes(), 3.0);
    }

    #[test]
    fn sampled_observation_weighting() {
        let mut g = grid4();
        g.begin_snapshot();
        // A 25% sample with weight 4 should reconstruct the population count.
        g.observe_node(&Point::new(10.0, 10.0), 10.0, 4.0);
        g.commit_snapshot();
        assert_eq!(g.cell(0, 0).nodes, 4.0);
        assert_eq!(g.cell(0, 0).mean_speed(), 10.0);
    }

    #[test]
    fn query_fractional_counting() {
        let mut g = grid4();
        g.begin_snapshot();
        // Query fully inside one cell.
        g.observe_query(&Rect::from_coords(5.0, 5.0, 15.0, 15.0));
        // Query straddling four cells equally (centered on a grid corner).
        g.observe_query(&Rect::from_coords(20.0, 20.0, 30.0, 30.0));
        g.commit_snapshot();
        assert!((g.cell(0, 0).queries - 1.25).abs() < 1e-9);
        assert!((g.cell(0, 1).queries - 0.25).abs() < 1e-9);
        assert!((g.cell(1, 0).queries - 0.25).abs() < 1e-9);
        assert!((g.cell(1, 1).queries - 0.25).abs() < 1e-9);
        // Fractions always add to the number of queries.
        assert!((g.total_queries() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn query_fraction_sums_to_one_for_any_rect() {
        let mut g = grid4();
        g.begin_snapshot();
        g.observe_query(&Rect::from_coords(13.7, 2.9, 88.4, 61.2));
        g.commit_snapshot();
        assert!((g.total_queries() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_replaces_by_default() {
        let mut g = grid4();
        g.begin_snapshot();
        g.observe_node(&Point::new(10.0, 10.0), 1.0, 1.0);
        g.commit_snapshot();
        g.begin_snapshot();
        g.observe_node(&Point::new(90.0, 90.0), 1.0, 1.0);
        g.commit_snapshot();
        assert_eq!(g.cell(0, 0).nodes, 0.0);
        assert_eq!(g.cell(3, 3).nodes, 1.0);
        assert_eq!(g.snapshots_committed(), 2);
    }

    #[test]
    fn load_cells_offline_mode() {
        let mut g = grid4();
        let mut cells = vec![CellStats::default(); 16];
        cells[5] = CellStats {
            nodes: 7.0,
            queries: 2.0,
            speed_sum: 70.0,
        };
        g.load_cells(&cells).unwrap();
        assert_eq!(g.cell(1, 1).nodes, 7.0);
        assert_eq!(g.cell(1, 1).mean_speed(), 10.0);
        assert!(g.load_cells(&cells[..4]).is_err());
    }

    #[test]
    fn empty_grid_aggregates_are_zero() {
        let g = grid4();
        assert_eq!(g.total_nodes(), 0.0);
        assert_eq!(g.total_queries(), 0.0);
        assert_eq!(g.cell(0, 0).mean_speed(), 0.0);
    }
}
