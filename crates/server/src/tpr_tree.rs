//! A TPR-tree (time-parameterized R-tree, Šaltenis et al., SIGMOD 2000):
//! the update-efficient moving-object index the paper names as a natural
//! companion for LIRA ("can be employed in conjunction with any CQ systems
//! that employ update-efficient index structures, such as the TPR-tree").
//!
//! Entries are moving points — a reference position plus a velocity — and
//! internal nodes keep *time-parameterized bounding rectangles* (TPBRs): a
//! spatial rectangle at a reference time together with velocity bounds, so
//! the node's bound at any future time is available without touching the
//! leaves. Range queries at time `t` prune with the TPBR extrapolated to
//! `t`; insertion minimizes integrated area enlargement over a horizon `H`.

use lira_core::geometry::{Point, Rect};
use std::collections::HashMap;

/// Maximum entries per node.
const MAX_FANOUT: usize = 16;
/// Minimum entries per node after a split.
const MIN_FANOUT: usize = MAX_FANOUT / 4;

/// A moving point: position at `time`, constant velocity thereafter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingPoint {
    pub node: u32,
    pub time: f64,
    pub origin: Point,
    pub velocity: (f64, f64),
}

impl MovingPoint {
    /// Predicted position at time `t`.
    #[inline]
    pub fn position_at(&self, t: f64) -> Point {
        let dt = t - self.time;
        Point::new(
            self.origin.x + self.velocity.0 * dt,
            self.origin.y + self.velocity.1 * dt,
        )
    }
}

/// A time-parameterized bounding rectangle: spatial bounds at `time`, plus
/// velocity bounds so the rectangle can be extrapolated conservatively.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tpbr {
    time: f64,
    min: Point,
    max: Point,
    vmin: (f64, f64),
    vmax: (f64, f64),
}

impl Tpbr {
    fn from_point(p: &MovingPoint) -> Self {
        Tpbr {
            time: p.time,
            min: p.origin,
            max: p.origin,
            vmin: p.velocity,
            vmax: p.velocity,
        }
    }

    /// The (conservative) spatial bounds at time `t ≥ self.time`. For
    /// `t < self.time` the velocity bounds are applied in reverse, which
    /// remains conservative for points inserted at or before `self.time`.
    fn rect_at(&self, t: f64) -> Rect {
        let dt = t - self.time;
        let (lo_vx, hi_vx, lo_vy, hi_vy) = if dt >= 0.0 {
            (self.vmin.0, self.vmax.0, self.vmin.1, self.vmax.1)
        } else {
            (self.vmax.0, self.vmin.0, self.vmax.1, self.vmin.1)
        };
        Rect::new(
            Point::new(self.min.x + lo_vx * dt, self.min.y + lo_vy * dt),
            Point::new(self.max.x + hi_vx * dt, self.max.y + hi_vy * dt),
        )
    }

    /// Expands to cover `other`, re-anchoring both at the later reference
    /// time so the merged TPBR stays conservative.
    fn merge(&self, other: &Tpbr) -> Tpbr {
        let t = self.time.max(other.time);
        let a = self.rect_at(t);
        let b = other.rect_at(t);
        Tpbr {
            time: t,
            min: Point::new(a.min.x.min(b.min.x), a.min.y.min(b.min.y)),
            max: Point::new(a.max.x.max(b.max.x), a.max.y.max(b.max.y)),
            vmin: (self.vmin.0.min(other.vmin.0), self.vmin.1.min(other.vmin.1)),
            vmax: (self.vmax.0.max(other.vmax.0), self.vmax.1.max(other.vmax.1)),
        }
    }

    /// Integrated area over `[t0, t0 + horizon]` (the TPR-tree's insertion
    /// objective), approximated by Simpson's rule — exact enough for
    /// subtree choice, cheap enough for the hot path.
    fn integrated_area(&self, t0: f64, horizon: f64) -> f64 {
        let a0 = self.rect_at(t0).area();
        let am = self.rect_at(t0 + horizon / 2.0).area();
        let a1 = self.rect_at(t0 + horizon).area();
        (a0 + 4.0 * am + a1) / 6.0
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Vec<MovingPoint>),
    Internal(Vec<(Tpbr, usize)>),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    parent: Option<usize>,
}

/// The TPR-tree index over moving points.
#[derive(Debug, Clone)]
pub struct TprTree {
    nodes: Vec<Node>,
    root: usize,
    /// Node-id → leaf index, for O(1) bottom-up deletes on update.
    locations: HashMap<u32, usize>,
    /// Insertion horizon `H`, seconds.
    horizon: f64,
    len: usize,
}

impl TprTree {
    /// Creates an empty tree with the given insertion horizon (seconds);
    /// the horizon should match the expected time between re-indexing, a
    /// few tens of seconds for second-granularity position updates.
    pub fn new(horizon: f64) -> Self {
        assert!(horizon > 0.0, "horizon must be positive");
        TprTree {
            nodes: vec![Node {
                kind: NodeKind::Leaf(Vec::new()),
                parent: None,
            }],
            root: 0,
            locations: HashMap::new(),
            horizon,
            len: 0,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces the moving point for `point.node`.
    pub fn update(&mut self, point: MovingPoint) {
        self.remove(point.node);
        let leaf = self.choose_leaf(&Tpbr::from_point(&point), point.time);
        match &mut self.nodes[leaf].kind {
            NodeKind::Leaf(pts) => pts.push(point),
            NodeKind::Internal(_) => unreachable!("choose_leaf returns a leaf"),
        }
        self.locations.insert(point.node, leaf);
        self.len += 1;
        if self.leaf_len(leaf) > MAX_FANOUT {
            self.split(leaf);
        } else {
            self.refresh_upward(leaf);
        }
    }

    /// Removes a node's point, if present. Underfull leaves are tolerated
    /// (the classic TPR-tree condenses; for LIRA's workload every node
    /// re-reports within the horizon, so tolerating underflow keeps deletes
    /// O(1) — the update-efficiency the paper cares about).
    pub fn remove(&mut self, node: u32) -> bool {
        let Some(leaf) = self.locations.remove(&node) else {
            return false;
        };
        let NodeKind::Leaf(pts) = &mut self.nodes[leaf].kind else {
            unreachable!("locations maps to leaves");
        };
        let before = pts.len();
        pts.retain(|p| p.node != node);
        debug_assert_eq!(pts.len() + 1, before, "location map out of sync");
        self.len -= 1;
        self.refresh_upward(leaf);
        // Removing the last point can leave an empty internal root; reset
        // to a fresh leaf so the tree is structurally valid again.
        if self.len == 0 {
            self.nodes.clear();
            self.nodes.push(Node {
                kind: NodeKind::Leaf(Vec::new()),
                parent: None,
            });
            self.root = 0;
        }
        true
    }

    /// All node ids whose predicted position at `t` lies in `range`.
    pub fn query(&self, range: &Rect, t: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(range, t, &mut out);
        out
    }

    /// `query`, reusing an output buffer. Each node id is appended at most
    /// once: [`update`](Self::update) removes any previous entry first, so
    /// a node lives in exactly one leaf.
    pub fn query_into(&self, range: &Rect, t: f64, out: &mut Vec<u32>) {
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(pts) => {
                    for p in pts {
                        if range.contains(&p.position_at(t)) {
                            out.push(p.node);
                        }
                    }
                }
                NodeKind::Internal(children) => {
                    for (tpbr, child) in children {
                        if tpbr.rect_at(t).intersects(range) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
    }

    /// The stored moving point for `node`, if any.
    pub fn get(&self, node: u32) -> Option<&MovingPoint> {
        let leaf = *self.locations.get(&node)?;
        match &self.nodes[leaf].kind {
            NodeKind::Leaf(pts) => pts.iter().find(|p| p.node == node),
            NodeKind::Internal(_) => None,
        }
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(_) => return h,
                NodeKind::Internal(children) => {
                    idx = children.first().expect("internal nodes are non-empty").1;
                    h += 1;
                }
            }
        }
    }

    fn leaf_len(&self, leaf: usize) -> usize {
        match &self.nodes[leaf].kind {
            NodeKind::Leaf(pts) => pts.len(),
            NodeKind::Internal(_) => 0,
        }
    }

    /// The TPBR covering a node's current entries.
    fn node_tpbr(&self, idx: usize) -> Option<Tpbr> {
        match &self.nodes[idx].kind {
            NodeKind::Leaf(pts) => {
                let mut it = pts.iter();
                let first = Tpbr::from_point(it.next()?);
                Some(it.fold(first, |acc, p| acc.merge(&Tpbr::from_point(p))))
            }
            NodeKind::Internal(children) => {
                let mut it = children.iter();
                let first = it.next()?.0;
                Some(it.fold(first, |acc, (t, _)| acc.merge(t)))
            }
        }
    }

    /// Descends from the root picking the child whose TPBR needs the least
    /// integrated-area enlargement over the horizon.
    fn choose_leaf(&self, entry: &Tpbr, now: f64) -> usize {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(_) => return idx,
                NodeKind::Internal(children) => {
                    debug_assert!(!children.is_empty());
                    let mut best = children[0].1;
                    let mut best_cost = f64::INFINITY;
                    for (tpbr, child) in children {
                        let before = tpbr.integrated_area(now, self.horizon);
                        let after = tpbr.merge(entry).integrated_area(now, self.horizon);
                        let cost = after - before;
                        if cost < best_cost {
                            best_cost = cost;
                            best = *child;
                        }
                    }
                    idx = best;
                }
            }
        }
    }

    /// Splits an overfull leaf, propagating splits upward as needed.
    fn split(&mut self, idx: usize) {
        // Partition entries by sorting on the coordinate (position at the
        // horizon midpoint) with the larger spread — a linear-cost split in
        // the spirit of the original TPR-tree's R*-derived algorithm.
        let mid_t = self.entry_time(idx) + self.horizon / 2.0;
        let new_idx = self.nodes.len();
        let parent = self.nodes[idx].parent;

        let sibling_kind = match &mut self.nodes[idx].kind {
            NodeKind::Leaf(pts) => {
                let key = |p: &MovingPoint| p.position_at(mid_t);
                let xs: Vec<f64> = pts.iter().map(|p| key(p).x).collect();
                let ys: Vec<f64> = pts.iter().map(|p| key(p).y).collect();
                let split_x = spread(&xs) >= spread(&ys);
                pts.sort_by(|a, b| {
                    let (ka, kb) = (key(a), key(b));
                    let (va, vb) = if split_x { (ka.x, kb.x) } else { (ka.y, kb.y) };
                    va.partial_cmp(&vb).expect("finite positions")
                });
                let tail = pts.split_off(pts.len() - MIN_FANOUT.max(pts.len() / 2));
                NodeKind::Leaf(tail)
            }
            NodeKind::Internal(children) => {
                let key = |c: &(Tpbr, usize)| c.0.rect_at(mid_t).center();
                let xs: Vec<f64> = children.iter().map(|c| key(c).x).collect();
                let ys: Vec<f64> = children.iter().map(|c| key(c).y).collect();
                let split_x = spread(&xs) >= spread(&ys);
                children.sort_by(|a, b| {
                    let (ka, kb) = (key(a), key(b));
                    let (va, vb) = if split_x { (ka.x, kb.x) } else { (ka.y, kb.y) };
                    va.partial_cmp(&vb).expect("finite positions")
                });
                let tail = children.split_off(children.len() - MIN_FANOUT.max(children.len() / 2));
                NodeKind::Internal(tail)
            }
        };
        self.nodes.push(Node {
            kind: sibling_kind,
            parent,
        });
        self.fix_children_links(new_idx);
        self.fix_locations(new_idx);

        match parent {
            Some(p) => {
                let tpbr_old = self.node_tpbr(idx).expect("non-empty after split");
                let tpbr_new = self.node_tpbr(new_idx).expect("non-empty after split");
                let NodeKind::Internal(children) = &mut self.nodes[p].kind else {
                    unreachable!("parents are internal");
                };
                for (t, c) in children.iter_mut() {
                    if *c == idx {
                        *t = tpbr_old;
                    }
                }
                children.push((tpbr_new, new_idx));
                if children.len() > MAX_FANOUT {
                    self.split(p);
                } else {
                    self.refresh_upward(p);
                }
            }
            None => {
                // Split the root: grow the tree by one level.
                let tpbr_old = self.node_tpbr(idx).expect("non-empty");
                let tpbr_new = self.node_tpbr(new_idx).expect("non-empty");
                let new_root = self.nodes.len();
                self.nodes.push(Node {
                    kind: NodeKind::Internal(vec![(tpbr_old, idx), (tpbr_new, new_idx)]),
                    parent: None,
                });
                self.nodes[idx].parent = Some(new_root);
                self.nodes[new_idx].parent = Some(new_root);
                self.root = new_root;
            }
        }
    }

    /// A representative reference time for a node's entries.
    fn entry_time(&self, idx: usize) -> f64 {
        match &self.nodes[idx].kind {
            NodeKind::Leaf(pts) => pts.iter().map(|p| p.time).fold(0.0, f64::max),
            NodeKind::Internal(children) => {
                children.iter().map(|(t, _)| t.time).fold(0.0, f64::max)
            }
        }
    }

    /// After moving children into a fresh internal node, update their
    /// parent pointers.
    fn fix_children_links(&mut self, idx: usize) {
        if let NodeKind::Internal(children) = &self.nodes[idx].kind {
            let kids: Vec<usize> = children.iter().map(|(_, c)| *c).collect();
            for k in kids {
                self.nodes[k].parent = Some(idx);
            }
        }
    }

    /// After moving points into a fresh leaf, update the location map.
    fn fix_locations(&mut self, idx: usize) {
        if let NodeKind::Leaf(pts) = &self.nodes[idx].kind {
            let ids: Vec<u32> = pts.iter().map(|p| p.node).collect();
            for id in ids {
                self.locations.insert(id, idx);
            }
        }
    }

    /// Recomputes TPBRs on the path from `idx` to the root.
    fn refresh_upward(&mut self, mut idx: usize) {
        while let Some(parent) = self.nodes[idx].parent {
            let tpbr = self.node_tpbr(idx);
            let NodeKind::Internal(children) = &mut self.nodes[parent].kind else {
                unreachable!("parents are internal");
            };
            match tpbr {
                Some(t) => {
                    for (ct, c) in children.iter_mut() {
                        if *c == idx {
                            *ct = t;
                        }
                    }
                }
                None => {
                    // The child emptied out: drop it from the parent.
                    children.retain(|(_, c)| *c != idx);
                }
            }
            idx = parent;
        }
    }

    /// Validates structural invariants (test/debug support): parent links,
    /// location map, fanout bounds, and TPBR containment at sampled times.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(pts) => {
                    count += pts.len();
                    assert!(pts.len() <= MAX_FANOUT, "leaf overflow");
                    for p in pts {
                        assert_eq!(self.locations.get(&p.node), Some(&idx), "location map");
                    }
                }
                NodeKind::Internal(children) => {
                    assert!(!children.is_empty(), "empty internal node");
                    assert!(children.len() <= MAX_FANOUT, "internal overflow");
                    for (tpbr, child) in children {
                        assert_eq!(self.nodes[*child].parent, Some(idx), "parent link");
                        // Stored TPBR must cover the child's recomputed one
                        // at representative times.
                        if let Some(actual) = self.node_tpbr(*child) {
                            for dt in [0.0, self.horizon / 2.0, self.horizon] {
                                let t = tpbr.time.max(actual.time) + dt;
                                let outer = tpbr.rect_at(t);
                                let inner = actual.rect_at(t);
                                assert!(
                                    outer.min.x <= inner.min.x + 1e-6
                                        && outer.min.y <= inner.min.y + 1e-6
                                        && outer.max.x >= inner.max.x - 1e-6
                                        && outer.max.y >= inner.max.y - 1e-6,
                                    "TPBR does not cover child at t = {t}"
                                );
                            }
                        }
                        stack.push(*child);
                    }
                }
            }
        }
        assert_eq!(count, self.len, "size bookkeeping");
        assert_eq!(self.locations.len(), self.len, "location map size");
    }
}

fn spread(values: &[f64]) -> f64 {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mp(node: u32, t: f64, x: f64, y: f64, vx: f64, vy: f64) -> MovingPoint {
        MovingPoint {
            node,
            time: t,
            origin: Point::new(x, y),
            velocity: (vx, vy),
        }
    }

    #[test]
    fn tpbr_extrapolation() {
        let t = Tpbr::from_point(&mp(0, 10.0, 100.0, 200.0, 2.0, -1.0));
        let r = t.rect_at(15.0);
        assert_eq!(r.min, Point::new(110.0, 195.0));
        assert_eq!(r.max, Point::new(110.0, 195.0));
    }

    #[test]
    fn tpbr_merge_is_conservative() {
        let a = Tpbr::from_point(&mp(0, 0.0, 0.0, 0.0, 1.0, 0.0));
        let b = Tpbr::from_point(&mp(1, 0.0, 10.0, 10.0, -1.0, 2.0));
        let m = a.merge(&b);
        for t in [0.0, 5.0, 20.0] {
            let r = m.rect_at(t);
            for p in [
                mp(0, 0.0, 0.0, 0.0, 1.0, 0.0).position_at(t),
                mp(1, 0.0, 10.0, 10.0, -1.0, 2.0).position_at(t),
            ] {
                assert!(r.contains_closed(&p), "t = {t}, p = {p}");
            }
        }
    }

    #[test]
    fn insert_query_basics() {
        let mut tree = TprTree::new(60.0);
        tree.update(mp(1, 0.0, 10.0, 10.0, 1.0, 0.0));
        tree.update(mp(2, 0.0, 500.0, 500.0, 0.0, 0.0));
        assert_eq!(tree.len(), 2);
        // At t = 0: node 1 in the corner box.
        let hits = tree.query(&Rect::from_coords(0.0, 0.0, 50.0, 50.0), 0.0);
        assert_eq!(hits, vec![1]);
        // At t = 100: node 1 moved to x = 110, out of the box.
        let hits = tree.query(&Rect::from_coords(0.0, 0.0, 50.0, 50.0), 100.0);
        assert!(hits.is_empty());
        let hits = tree.query(&Rect::from_coords(100.0, 0.0, 150.0, 50.0), 100.0);
        assert_eq!(hits, vec![1]);
        tree.check_invariants();
    }

    #[test]
    fn update_replaces_previous_point() {
        let mut tree = TprTree::new(60.0);
        tree.update(mp(7, 0.0, 10.0, 10.0, 0.0, 0.0));
        tree.update(mp(7, 50.0, 900.0, 900.0, 0.0, 0.0));
        assert_eq!(tree.len(), 1);
        assert!(tree
            .query(&Rect::from_coords(0.0, 0.0, 50.0, 50.0), 50.0)
            .is_empty());
        assert_eq!(
            tree.query(&Rect::from_coords(800.0, 800.0, 1000.0, 1000.0), 50.0),
            vec![7]
        );
        assert_eq!(tree.get(7).unwrap().origin, Point::new(900.0, 900.0));
    }

    #[test]
    fn remove_and_empty() {
        let mut tree = TprTree::new(60.0);
        assert!(!tree.remove(3));
        tree.update(mp(3, 0.0, 1.0, 1.0, 0.0, 0.0));
        assert!(tree.remove(3));
        assert!(tree.is_empty());
        assert!(tree.get(3).is_none());
        tree.check_invariants();
    }

    #[test]
    fn removing_everything_resets_cleanly() {
        let mut tree = TprTree::new(60.0);
        let mut rng = SmallRng::seed_from_u64(8);
        for i in 0..100u32 {
            tree.update(mp(
                i,
                0.0,
                rng.gen_range(0.0..500.0),
                rng.gen_range(0.0..500.0),
                0.0,
                0.0,
            ));
        }
        assert!(tree.height() > 1, "tree grew past one leaf");
        for i in 0..100u32 {
            assert!(tree.remove(i));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree
            .query(&Rect::from_coords(0.0, 0.0, 500.0, 500.0), 0.0)
            .is_empty());
        tree.check_invariants();
        // And the tree is fully usable again.
        tree.update(mp(7, 0.0, 10.0, 10.0, 0.0, 0.0));
        assert_eq!(
            tree.query(&Rect::from_coords(0.0, 0.0, 20.0, 20.0), 0.0),
            vec![7]
        );
        tree.check_invariants();
    }

    #[test]
    fn grows_and_splits_correctly() {
        let mut tree = TprTree::new(60.0);
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..500u32 {
            tree.update(mp(
                i,
                0.0,
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(-15.0..15.0),
                rng.gen_range(-15.0..15.0),
            ));
        }
        assert_eq!(tree.len(), 500);
        assert!(tree.height() >= 3, "height {}", tree.height());
        tree.check_invariants();
    }

    #[test]
    fn query_matches_brute_force_over_time() {
        let mut tree = TprTree::new(30.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut points = Vec::new();
        for i in 0..300u32 {
            let p = mp(
                i,
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..2000.0),
                rng.gen_range(0.0..2000.0),
                rng.gen_range(-20.0..20.0),
                rng.gen_range(-20.0..20.0),
            );
            tree.update(p);
            points.push(p);
        }
        for t in [10.0, 25.0, 60.0, 120.0] {
            for _ in 0..10 {
                let x = rng.gen_range(0.0..1500.0);
                let y = rng.gen_range(0.0..1500.0);
                let range = Rect::from_coords(x, y, x + 500.0, y + 500.0);
                let mut got = tree.query(&range, t);
                got.sort_unstable();
                let mut want: Vec<u32> = points
                    .iter()
                    .filter(|p| range.contains(&p.position_at(t)))
                    .map(|p| p.node)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "t = {t}, range = {range}");
            }
        }
    }

    #[test]
    fn interleaved_updates_stay_consistent() {
        let mut tree = TprTree::new(30.0);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut latest: HashMap<u32, MovingPoint> = HashMap::new();
        for step in 0..3000 {
            let id = rng.gen_range(0..150u32);
            if rng.gen_bool(0.15) {
                tree.remove(id);
                latest.remove(&id);
            } else {
                let p = mp(
                    id,
                    step as f64 * 0.1,
                    rng.gen_range(0.0..1000.0),
                    rng.gen_range(0.0..1000.0),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                );
                tree.update(p);
                latest.insert(id, p);
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), latest.len());
        let t = 400.0;
        let range = Rect::from_coords(200.0, 200.0, 800.0, 800.0);
        let mut got = tree.query(&range, t);
        got.sort_unstable();
        let mut want: Vec<u32> = latest
            .values()
            .filter(|p| range.contains(&p.position_at(t)))
            .map(|p| p.node)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_bad_horizon() {
        TprTree::new(0.0);
    }
}
