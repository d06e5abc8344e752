//! A uniform grid spatial index over node positions, in the style of the
//! grid indexes used by mobile CQ servers (Kalashnikov et al. \[9\],
//! SINA \[11\]) that the paper names as natural hosts for LIRA's statistics
//! grid.

use lira_core::geometry::{Point, Rect};

/// Uniform grid index mapping positions to node-id buckets.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    side: usize,
    cells: Vec<Vec<u32>>,
    /// Per node: the cell it currently occupies (`usize::MAX` = absent).
    /// Sized on first use — an index nobody updates costs no per-node
    /// memory.
    locations: Vec<usize>,
    num_nodes: usize,
}

impl GridIndex {
    /// Creates an index with `side × side` cells over `bounds`, tracking
    /// node ids `0..num_nodes`.
    pub fn new(bounds: Rect, side: usize, num_nodes: usize) -> Self {
        assert!(side > 0, "grid side must be positive");
        assert!(bounds.area() > 0.0, "bounds must have positive area");
        GridIndex {
            bounds,
            side,
            cells: vec![Vec::new(); side * side],
            locations: Vec::new(),
            num_nodes,
        }
    }

    /// Number of cells per side.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    fn cell_index(&self, p: &Point) -> usize {
        let col = ((p.x - self.bounds.min.x) / self.bounds.width() * self.side as f64)
            .floor()
            .clamp(0.0, (self.side - 1) as f64) as usize;
        let row = ((p.y - self.bounds.min.y) / self.bounds.height() * self.side as f64)
            .floor()
            .clamp(0.0, (self.side - 1) as f64) as usize;
        row * self.side + col
    }

    /// Inserts or moves `node` to position `p`. Constant expected time.
    pub fn update(&mut self, node: u32, p: &Point) {
        if self.locations.is_empty() {
            self.locations = vec![usize::MAX; self.num_nodes];
        }
        let new_cell = self.cell_index(p);
        let old_cell = self.locations[node as usize];
        if old_cell == new_cell {
            return;
        }
        if old_cell != usize::MAX {
            let bucket = &mut self.cells[old_cell];
            if let Some(pos) = bucket.iter().position(|&n| n == node) {
                bucket.swap_remove(pos);
            }
        }
        self.cells[new_cell].push(node);
        self.locations[node as usize] = new_cell;
    }

    /// Removes `node` from the index.
    pub fn remove(&mut self, node: u32) {
        let Some(&cell) = self.locations.get(node as usize) else {
            return; // never updated: nothing is indexed
        };
        if cell != usize::MAX {
            let bucket = &mut self.cells[cell];
            if let Some(pos) = bucket.iter().position(|&n| n == node) {
                bucket.swap_remove(pos);
            }
            self.locations[node as usize] = usize::MAX;
        }
    }

    /// Candidate nodes for a range query: every node indexed in a cell
    /// overlapping `range`. Callers must still filter by exact position
    /// (cells are coarse), but each node id is yielded **at most once**:
    /// the `locations` map guarantees every node occupies exactly one
    /// bucket ([`update`](Self::update) always removes from the old cell
    /// before pushing to the new one), and the cell walk visits each cell
    /// once.
    pub fn candidates(&self, range: &Rect) -> impl Iterator<Item = u32> + '_ {
        let c0 = ((range.min.x - self.bounds.min.x) / self.bounds.width() * self.side as f64)
            .floor()
            .clamp(0.0, (self.side - 1) as f64) as usize;
        let r0 = ((range.min.y - self.bounds.min.y) / self.bounds.height() * self.side as f64)
            .floor()
            .clamp(0.0, (self.side - 1) as f64) as usize;
        let c1 = ((range.max.x - self.bounds.min.x) / self.bounds.width() * self.side as f64)
            .ceil()
            .clamp(0.0, self.side as f64) as usize;
        let r1 = ((range.max.y - self.bounds.min.y) / self.bounds.height() * self.side as f64)
            .ceil()
            .clamp(0.0, self.side as f64) as usize;
        let side = self.side;
        (r0..r1.max(r0 + 1).min(side))
            .flat_map(move |row| (c0..c1.max(c0 + 1).min(side)).map(move |col| row * side + col))
            .flat_map(move |cell| self.cells[cell].iter().copied())
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.locations.iter().filter(|&&c| c != usize::MAX).count()
    }

    /// Whether the index holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> GridIndex {
        GridIndex::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 10, 16)
    }

    #[test]
    fn insert_and_query() {
        let mut g = index();
        g.update(0, &Point::new(5.0, 5.0));
        g.update(1, &Point::new(55.0, 55.0));
        g.update(2, &Point::new(95.0, 95.0));
        let hits: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 0.0, 20.0, 20.0))
            .collect();
        assert!(hits.contains(&0));
        assert!(!hits.contains(&2));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = index();
        g.update(0, &Point::new(5.0, 5.0));
        g.update(0, &Point::new(95.0, 95.0));
        let old: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 0.0, 15.0, 15.0))
            .collect();
        assert!(old.is_empty());
        let new: Vec<u32> = g
            .candidates(&Rect::from_coords(90.0, 90.0, 100.0, 100.0))
            .collect();
        assert_eq!(new, vec![0]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn update_within_cell_is_stable() {
        let mut g = index();
        g.update(0, &Point::new(5.0, 5.0));
        g.update(0, &Point::new(6.0, 6.0)); // Same cell.
        let hits: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 0.0, 10.0, 10.0))
            .collect();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn remove_clears_node() {
        let mut g = index();
        g.update(3, &Point::new(50.0, 50.0));
        g.remove(3);
        assert!(g.is_empty());
        let hits: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 0.0, 100.0, 100.0))
            .collect();
        assert!(hits.is_empty());
        // Removing twice is a no-op.
        g.remove(3);
    }

    #[test]
    fn candidates_superset_of_exact_matches() {
        let mut g = index();
        let positions = [
            Point::new(12.0, 13.0),
            Point::new(47.0, 52.0),
            Point::new(88.0, 3.0),
            Point::new(60.0, 60.0),
        ];
        for (i, p) in positions.iter().enumerate() {
            g.update(i as u32, p);
        }
        let range = Rect::from_coords(40.0, 40.0, 70.0, 70.0);
        let hits: Vec<u32> = g.candidates(&range).collect();
        for (i, p) in positions.iter().enumerate() {
            if range.contains(p) {
                assert!(hits.contains(&(i as u32)), "missing exact match {i}");
            }
        }
    }

    #[test]
    fn candidates_never_duplicate_a_node() {
        let mut g = index();
        // Churn node 0 across many cells, including repeats of earlier
        // cells, then check every query sees it once.
        for step in 0..30 {
            let x = (step * 37 % 100) as f64;
            let y = (step * 53 % 100) as f64;
            g.update(0, &Point::new(x, y));
            g.update(1, &Point::new(y, x));
        }
        let hits: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 0.0, 100.0, 100.0))
            .collect();
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hits.len(), "duplicate candidate: {hits:?}");
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn out_of_bounds_positions_clamp() {
        let mut g = index();
        g.update(0, &Point::new(-10.0, 500.0));
        assert_eq!(g.len(), 1);
        let hits: Vec<u32> = g
            .candidates(&Rect::from_coords(0.0, 90.0, 10.0, 100.0))
            .collect();
        assert_eq!(hits, vec![0]);
    }
}
