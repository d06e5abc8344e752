//! The cell→queries index shared by the unified evaluation engine: a
//! uniform grid over the monitored space mapping each cell to the
//! queries covering it, in CSR layout (see DESIGN.md §11/§13).
//!
//! One monotone clamped map ([`axis_cell`]) places both points and query
//! covers, which makes the cover argument exact with no epsilon; the
//! unified engine partitions space along this same map into contiguous
//! column stripes ([`QueryIndex::build_cols`]) and reuses the argument
//! unchanged per stripe.

use std::ops::Range;

use lira_core::geometry::{Point, Rect};

use crate::query::RangeQuery;

/// Maps one coordinate to a grid cell index along one axis, clamped into
/// `[0, side)`. This is the *single* cell-mapping function used for both
/// point placement and query cover computation — using one monotone map
/// for both is what makes the cover argument exact (no epsilon is needed:
/// `lo <= x <= hi` implies `cell(lo) <= cell(x) <= cell(hi)`).
#[inline]
pub(crate) fn axis_cell(v: f64, lo: f64, extent: f64, side: usize) -> usize {
    ((v - lo) / extent * side as f64)
        .floor()
        .clamp(0.0, (side - 1) as f64) as usize
}

/// Grid resolution for a query set: ~4·√Q cells per side. The incremental
/// round's per-node cost is driven by the number of *partially* covering
/// queries per cell (each needs an exact retest), which shrinks with cell
/// size, while full covers per cell stay roughly constant — so a finer
/// grid buys faster rounds for a build cost paid once per query set.
#[inline]
pub(crate) fn side_for(num_queries: usize) -> usize {
    ((4.0 * (num_queries as f64).sqrt()).ceil() as usize).clamp(1, 256)
}

/// A cell-to-queries index: for each cell of a uniform grid over the
/// monitored space, the queries *fully covering* the cell (membership
/// follows from the cell alone) and the queries *partially overlapping*
/// it (membership needs an exact point-in-range test).
///
/// Both per-cell lists are stored CSR-style (one offsets array plus one
/// flat id array) rather than as `Vec<Vec<u32>>`: the evaluation round
/// reads a random cell per node, and keeping the whole index in a few
/// hundred KB of contiguous memory is what keeps those lookups inside
/// the cache instead of chasing a pointer per cell.
#[derive(Debug, Clone)]
pub(crate) struct QueryIndex {
    min: Point,
    width: f64,
    height: f64,
    side: usize,
    /// Cell width and height, `extent / side`.
    cw: f64,
    ch: f64,
    /// First grid column this index stores (0 for a full-width index).
    col_lo: usize,
    /// Number of stored columns (`side` for a full-width index). The
    /// unified engine builds one index per contiguous column stripe;
    /// storage covers `side` rows × `stripe_w` columns.
    stripe_w: usize,
    /// CSR offsets into `full_ids`, `side · stripe_w + 1` entries.
    full_off: Vec<u32>,
    /// Concatenated per-cell lists of query positions (indices into the
    /// server's query vector) fully covering each cell, ascending.
    full_ids: Vec<u32>,
    /// CSR offsets into `partial_ids`, `side · stripe_w + 1` entries.
    partial_off: Vec<u32>,
    /// Concatenated per-cell lists of query positions overlapping but not
    /// covering each cell, ascending.
    partial_ids: Vec<u32>,
}

impl QueryIndex {
    /// A placeholder index for a server with no built state yet.
    pub(crate) fn unbuilt() -> Self {
        QueryIndex {
            min: Point::new(0.0, 0.0),
            width: 1.0,
            height: 1.0,
            side: 1,
            cw: 1.0,
            ch: 1.0,
            col_lo: 0,
            stripe_w: 1,
            full_off: vec![0; 2],
            full_ids: Vec::new(),
            partial_off: vec![0; 2],
            partial_ids: Vec::new(),
        }
    }

    /// Builds an index restricted to the grid columns in `cols` (storage
    /// and per-cell lists cover only that stripe; pass `0..side_for(len)`
    /// for the full width). Each query's range is grown by `expand` on
    /// every side (0 for exact evaluation; `Δ⊣` for the uncertain path).
    /// When `classify_full` is false every covered cell goes to the
    /// `partial` list (the uncertain path always needs exact tests, since
    /// membership also depends on the node's own Δ).
    ///
    /// The per-cell lists are *identical* to the corresponding cells of
    /// the full-width index: each query's closed cell cover is simply
    /// clipped to the stripe, so cover membership of an in-stripe cell
    /// never depends on the stripe bounds. The border rule likewise stays
    /// global (`col == 0` / `col == side-1`, not the stripe edges):
    /// clamped out-of-bounds points land only in *grid*-border cells.
    pub(crate) fn build_cols(
        bounds: &Rect,
        queries: &[RangeQuery],
        expand: f64,
        classify_full: bool,
        cols: Range<usize>,
    ) -> Self {
        let side = side_for(queries.len());
        debug_assert!(cols.start <= cols.end && cols.end <= side);
        let stripe_w = cols.end - cols.start;
        // Build into per-cell vectors (cold path), then flatten to CSR.
        let mut full = vec![Vec::new(); side * stripe_w];
        let mut partial = vec![Vec::new(); side * stripe_w];
        let mut index = QueryIndex {
            min: bounds.min,
            width: bounds.width(),
            height: bounds.height(),
            side,
            cw: bounds.width() / side as f64,
            ch: bounds.height() / side as f64,
            col_lo: cols.start,
            stripe_w,
            full_off: Vec::new(),
            full_ids: Vec::new(),
            partial_off: Vec::new(),
            partial_ids: Vec::new(),
        };
        let (cw, ch) = (index.cw, index.ch);
        // Full-cover tests compare against the cell rect shrunk by a
        // safety margin: the cell's floating-point corner can differ from
        // the true `axis_cell` breakpoint by an ulp, and misclassifying a
        // covered cell as partial merely costs an exact test (the reverse
        // would be unsound).
        let eps = index.edge_margin();
        for (qi, q) in queries.iter().enumerate() {
            let r = if expand > 0.0 {
                q.range.expand(expand)
            } else {
                q.range
            };
            // Closed cell cover: `axis_cell` is monotone and clamped, so
            // every point of the *closed* rect [r.min, r.max] — and hence
            // every point of the half-open range, and every clamped
            // out-of-bounds point the range can contain — lands in
            // [cell(min), cell(max)] on each axis. Columns outside the
            // stripe are clipped away, nothing else changes.
            let c0 = axis_cell(r.min.x, index.min.x, index.width, side).max(cols.start);
            let c1 = axis_cell(r.max.x, index.min.x, index.width, side);
            let c1 = if cols.end == 0 {
                0
            } else {
                c1.min(cols.end - 1)
            };
            let r0 = axis_cell(r.min.y, index.min.y, index.height, side);
            let r1 = axis_cell(r.max.y, index.min.y, index.height, side);
            if c0 > c1 || stripe_w == 0 {
                continue;
            }
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let slot = row * stripe_w + (col - cols.start);
                    // Border cells receive clamped out-of-bounds points,
                    // so membership there can never follow from the cell.
                    let border = row == 0 || row == side - 1 || col == 0 || col == side - 1;
                    let covers = classify_full && !border && {
                        let x0 = index.min.x + col as f64 * cw;
                        let y0 = index.min.y + row as f64 * ch;
                        q.range.min.x <= x0 - eps
                            && q.range.max.x >= x0 + cw + eps
                            && q.range.min.y <= y0 - eps
                            && q.range.max.y >= y0 + ch + eps
                    };
                    if covers {
                        full[slot].push(qi as u32);
                    } else {
                        partial[slot].push(qi as u32);
                    }
                }
            }
        }
        (index.full_off, index.full_ids) = flatten(&full);
        (index.partial_off, index.partial_ids) = flatten(&partial);
        index
    }

    /// Cells per side of the underlying (global) grid.
    #[inline]
    pub(crate) fn side(&self) -> usize {
        self.side
    }

    /// The distance by which a computed cell or query edge may differ
    /// from where [`axis_cell`] and the range comparisons actually break:
    /// a cell corner is `min + k·extent/side` in floating point, an ulp or
    /// so off the true breakpoint, and this margin is millions of ulps at
    /// the scale of the space. Every closed form that must err to one
    /// side (the full-cover test in [`build_cols`](Self::build_cols), the
    /// unified engine's `safe_until`) shrinks by it.
    #[inline]
    pub(crate) fn edge_margin(&self) -> f64 {
        1e-9 * (self.width + self.height)
    }

    /// The edge coordinates `(x0, x1, y0, y1)` of global cell
    /// `(row, col)`, from the same `min + k·extent/side` breakpoints
    /// [`axis_cell`] floors at (to within [`edge_margin`](Self::edge_margin)).
    /// The outer edges of grid-border cells are ±∞: `axis_cell` clamps,
    /// so a point never leaves the grid through them.
    #[inline]
    pub(crate) fn cell_edges(&self, row: usize, col: usize) -> (f64, f64, f64, f64) {
        let edge = |k: usize, lo: f64, cell: f64| {
            if k == 0 {
                f64::NEG_INFINITY
            } else if k == self.side {
                f64::INFINITY
            } else {
                lo + k as f64 * cell
            }
        };
        (
            edge(col, self.min.x, self.cw),
            edge(col + 1, self.min.x, self.cw),
            edge(row, self.min.y, self.ch),
            edge(row + 1, self.min.y, self.ch),
        )
    }

    /// The `(row, col)` of the *global* grid cell a predicted position
    /// belongs to (clamped into the grid).
    #[inline]
    pub(crate) fn rc_of(&self, p: &Point) -> (usize, usize) {
        (
            axis_cell(p.y, self.min.y, self.height, self.side),
            axis_cell(p.x, self.min.x, self.width, self.side),
        )
    }

    /// Storage slot of global cell `(row, col)`; the caller must ensure
    /// `col` lies inside this index's stripe.
    #[inline]
    pub(crate) fn slot(&self, row: usize, col: usize) -> usize {
        debug_assert!((self.col_lo..self.col_lo + self.stripe_w).contains(&col));
        row * self.stripe_w + (col - self.col_lo)
    }

    /// Storage slot of a flat global cell id (`row·side + col`).
    #[inline]
    pub(crate) fn slot_of_cell(&self, cell: usize) -> usize {
        self.slot(cell / self.side, cell % self.side)
    }

    /// The queries fully covering the cell at storage `slot`, ascending.
    #[inline]
    pub(crate) fn full_at(&self, slot: usize) -> &[u32] {
        &self.full_ids[self.full_off[slot] as usize..self.full_off[slot + 1] as usize]
    }

    /// The queries partially overlapping the cell at storage `slot`,
    /// ascending.
    #[inline]
    pub(crate) fn partial_at(&self, slot: usize) -> &[u32] {
        &self.partial_ids[self.partial_off[slot] as usize..self.partial_off[slot + 1] as usize]
    }
}

/// Flattens per-cell lists into a CSR (offsets, ids) pair.
fn flatten(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut ids = Vec::with_capacity(total);
    offsets.push(0);
    for list in lists {
        ids.extend_from_slice(list);
        offsets.push(ids.len() as u32);
    }
    (offsets, ids)
}

/// Inserts `n` into the sorted member list of query position `q`.
#[inline]
pub(crate) fn insert_member(members: &mut [Vec<u32>], q: u32, n: u32) {
    let list = &mut members[q as usize];
    if let Err(pos) = list.binary_search(&n) {
        list.insert(pos, n);
    } else {
        debug_assert!(false, "node {n} already a member of query slot {q}");
    }
}

/// Removes `n` from the sorted member list of query position `q`.
#[inline]
pub(crate) fn remove_member(members: &mut [Vec<u32>], q: u32, n: u32) {
    let list = &mut members[q as usize];
    if let Ok(pos) = list.binary_search(&n) {
        list.remove(pos);
    } else {
        debug_assert!(false, "node {n} was not a member of query slot {q}");
    }
}
