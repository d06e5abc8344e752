//! The region hierarchy of GRIDREDUCE stage I (Section 3.2.2): a complete
//! quad-tree built over the `α × α` statistics grid, with node/query/speed
//! statistics aggregated bottom-up.
//!
//! The tree is array-backed and complete: with `α` a power of two there are
//! `log2(α) + 1` levels and `α² + (α² − 1)/3` nodes in total. Construction
//! is `O(α²)` time and space, matching the paper's complexity analysis.

use crate::error::{LiraError, Result};
use crate::geometry::Rect;
use crate::stats_grid::StatsGrid;

/// Identifier of a quad-tree node: `(level, row, col)` with the root at
/// `(0, 0, 0)` and leaves at level `log2(α)` in grid-cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Tree depth: 0 at the root, `log2(α)` at the leaves.
    pub level: u32,
    /// Row within the level's `2^level × 2^level` lattice (south = 0).
    pub row: u32,
    /// Column within the level's lattice (west = 0).
    pub col: u32,
}

impl NodeId {
    /// The root node (the whole space).
    pub(crate) const ROOT: NodeId = NodeId {
        level: 0,
        row: 0,
        col: 0,
    };

    /// The four children of this node, ordered `[SW, SE, NW, NE]`.
    #[inline]
    pub(crate) fn children(&self) -> [NodeId; 4] {
        let l = self.level + 1;
        let (r, c) = (self.row * 2, self.col * 2);
        [
            NodeId {
                level: l,
                row: r,
                col: c,
            },
            NodeId {
                level: l,
                row: r,
                col: c + 1,
            },
            NodeId {
                level: l,
                row: r + 1,
                col: c,
            },
            NodeId {
                level: l,
                row: r + 1,
                col: c + 1,
            },
        ]
    }
}

/// Aggregated statistics for one tree node's region: `n[t]`, `m[t]`, `s[t]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Number of mobile nodes in the region, `n[t]`.
    pub nodes: f64,
    /// Fractional number of queries in the region, `m[t]`.
    pub queries: f64,
    /// Node-weighted mean speed in the region, `s[t]`.
    pub speed: f64,
}

/// A complete quad-tree over the statistics grid with aggregated statistics.
#[derive(Debug, Clone)]
pub struct RegionTree {
    /// Number of levels, `log2(α) + 1`.
    levels: u32,
    bounds: Rect,
    /// Per-level statistics, `stats[level][row * 2^level + col]`.
    stats: Vec<Vec<NodeStats>>,
}

impl RegionTree {
    /// Builds the hierarchy from a statistics grid (GRIDREDUCE stage I,
    /// Algorithm 1 lines 1–9). `O(α²)` time and space.
    pub fn build(grid: &StatsGrid) -> Result<Self> {
        let alpha = grid.alpha();
        if grid.snapshots_committed() == 0 {
            return Err(LiraError::MissingStatistics(
                "statistics grid holds no committed snapshot".into(),
            ));
        }
        let levels = alpha.trailing_zeros() + 1;
        let mut stats: Vec<Vec<NodeStats>> = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            let side = 1usize << level;
            stats.push(vec![NodeStats::default(); side * side]);
        }
        // Initialize leaves from grid cells.
        let leaf = (levels - 1) as usize;
        for row in 0..alpha {
            for col in 0..alpha {
                let c = grid.cell(row, col);
                stats[leaf][row * alpha + col] = NodeStats {
                    nodes: c.nodes,
                    queries: c.queries,
                    speed: c.mean_speed(),
                };
            }
        }
        // Aggregate bottom-up: n and m are sums; s is node-weighted mean.
        for level in (0..leaf).rev() {
            let side = 1usize << level;
            let child_side = side * 2;
            for row in 0..side {
                for col in 0..side {
                    let mut nodes = 0.0;
                    let mut queries = 0.0;
                    let mut speed_sum = 0.0;
                    for (dr, dc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let ch = stats[level + 1][(row * 2 + dr) * child_side + (col * 2 + dc)];
                        nodes += ch.nodes;
                        queries += ch.queries;
                        speed_sum += ch.speed * ch.nodes;
                    }
                    let speed = if nodes > 0.0 { speed_sum / nodes } else { 0.0 };
                    stats[level][row * side + col] = NodeStats {
                        nodes,
                        queries,
                        speed,
                    };
                }
            }
        }
        Ok(RegionTree {
            levels,
            bounds: *grid.bounds(),
            stats,
        })
    }

    /// Number of levels (`log2(α) + 1`).
    #[inline]
    pub(crate) fn levels(&self) -> u32 {
        self.levels
    }

    /// The monitored space.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Whether the node is a leaf (a single statistics-grid cell), beyond
    /// which no further partitioning is possible.
    #[inline]
    pub(crate) fn is_leaf(&self, id: NodeId) -> bool {
        id.level == self.levels - 1
    }

    /// Aggregated statistics of a node's region.
    #[inline]
    pub fn stats(&self, id: NodeId) -> NodeStats {
        let side = 1usize << id.level;
        self.stats[id.level as usize][id.row as usize * side + id.col as usize]
    }

    /// The rectangle covered by a node's region.
    pub fn region(&self, id: NodeId) -> Rect {
        let side = (1u32 << id.level) as f64;
        let w = self.bounds.width() / side;
        let h = self.bounds.height() / side;
        Rect::from_coords(
            self.bounds.min.x + id.col as f64 * w,
            self.bounds.min.y + id.row as f64 * h,
            self.bounds.min.x + (id.col + 1) as f64 * w,
            self.bounds.min.y + (id.row + 1) as f64 * h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn grid_with_data(alpha: usize) -> StatsGrid {
        let mut g = StatsGrid::new(alpha, Rect::from_coords(0.0, 0.0, 100.0, 100.0)).unwrap();
        g.begin_snapshot();
        // One node per cell at speed equal to its column index, plus an
        // extra cluster in the top-right cell.
        for row in 0..alpha {
            for col in 0..alpha {
                let rect = g.cell_rect(row, col);
                let c = rect.center();
                g.observe_node(&c, col as f64, 1.0);
            }
        }
        g.observe_node(&Point::new(99.0, 99.0), 8.0, 1.0);
        g.observe_query(&Rect::from_coords(0.0, 0.0, 50.0, 50.0));
        g.commit_snapshot();
        g
    }

    #[test]
    fn rejects_empty_grid() {
        let g = StatsGrid::new(4, Rect::from_coords(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert!(matches!(
            RegionTree::build(&g),
            Err(LiraError::MissingStatistics(_))
        ));
    }

    #[test]
    fn structure_counts() {
        let g = grid_with_data(8);
        let t = RegionTree::build(&g).unwrap();
        assert_eq!(t.levels(), 4); // log2(8) + 1
        assert!(t.is_leaf(NodeId {
            level: 3,
            row: 0,
            col: 0
        }));
        assert!(!t.is_leaf(NodeId::ROOT));
    }

    #[test]
    fn root_aggregates_everything() {
        let g = grid_with_data(8);
        let t = RegionTree::build(&g).unwrap();
        let root = t.stats(NodeId::ROOT);
        assert!((root.nodes - g.total_nodes()).abs() < 1e-9);
        assert!((root.queries - g.total_queries()).abs() < 1e-9);
        let speed_sum: f64 = g.cells().iter().map(|c| c.speed_sum).sum();
        assert!((root.speed - speed_sum / g.total_nodes()).abs() < 1e-9);
    }

    #[test]
    fn children_partition_parent_stats() {
        let g = grid_with_data(8);
        let t = RegionTree::build(&g).unwrap();
        // Check the invariant at every internal node.
        for level in 0..3u32 {
            let side = 1u32 << level;
            for row in 0..side {
                for col in 0..side {
                    let id = NodeId { level, row, col };
                    let parent = t.stats(id);
                    let kids = id.children().map(|c| t.stats(c));
                    let n: f64 = kids.iter().map(|k| k.nodes).sum();
                    let m: f64 = kids.iter().map(|k| k.queries).sum();
                    let s: f64 = kids.iter().map(|k| k.speed * k.nodes).sum();
                    assert!((parent.nodes - n).abs() < 1e-9);
                    assert!((parent.queries - m).abs() < 1e-9);
                    if n > 0.0 {
                        assert!((parent.speed - s / n).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn regions_tile_space() {
        let g = grid_with_data(4);
        let t = RegionTree::build(&g).unwrap();
        for level in 0..t.levels() {
            let side = 1u32 << level;
            let mut total = 0.0;
            for row in 0..side {
                for col in 0..side {
                    total += t.region(NodeId { level, row, col }).area();
                }
            }
            assert!((total - t.bounds().area()).abs() < 1e-6, "level {level}");
        }
        // Children regions equal the parent's quadrants.
        let root_q = t.region(NodeId::ROOT).quadrants();
        let kids = NodeId::ROOT.children().map(|c| t.region(c));
        for (a, b) in root_q.iter().zip(kids.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn leaf_stats_match_grid_cells() {
        let g = grid_with_data(4);
        let t = RegionTree::build(&g).unwrap();
        for row in 0..4u32 {
            for col in 0..4u32 {
                let s = t.stats(NodeId { level: 2, row, col });
                let c = g.cell(row as usize, col as usize);
                assert_eq!(s.nodes, c.nodes);
                assert_eq!(s.queries, c.queries);
                assert!((s.speed - c.mean_speed()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn alpha_one_grid_has_single_node() {
        let mut g = StatsGrid::new(1, Rect::from_coords(0.0, 0.0, 10.0, 10.0)).unwrap();
        g.begin_snapshot();
        g.observe_node(&Point::new(5.0, 5.0), 3.0, 1.0);
        g.commit_snapshot();
        let t = RegionTree::build(&g).unwrap();
        assert_eq!(t.levels(), 1);
        assert!(t.is_leaf(NodeId::ROOT));
        assert_eq!(t.stats(NodeId::ROOT).nodes, 1.0);
    }
}
