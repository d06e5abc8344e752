//! Shortest-path routing over the road network (Dijkstra on travel time).
//!
//! [`shortest_path`] is the point-to-point reference. The simulator routes
//! through a [`RouteCache`]: one full search per origin, remembered as a
//! shortest-path tree, from which every later trip out of that origin is
//! read by walking parents.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use lira_core::geometry::OrdF64;

use crate::road::RoadNetwork;

/// Computes the fastest route from `from` to `to` as a sequence of
/// intersection indices (inclusive of both endpoints). Returns `None` when
/// `to` is unreachable. `from == to` yields a single-node route.
pub fn shortest_path(network: &RoadNetwork, from: u32, to: u32) -> Option<Vec<u32>> {
    let n = network.num_nodes();
    assert!(
        (from as usize) < n && (to as usize) < n,
        "node out of range"
    );
    if from == to {
        return Some(vec![from]);
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[from as usize] = 0.0;
    heap.push(Reverse((OrdF64::new(0.0), from)));

    while let Some(Reverse((OrdF64(d), node))) = heap.pop() {
        if node == to {
            break;
        }
        if d > dist[node as usize] {
            continue; // Stale entry.
        }
        for &(edge, next) in network.neighbors(node) {
            let nd = d + network.edge(edge).travel_time();
            if nd < dist[next as usize] {
                dist[next as usize] = nd;
                prev[next as usize] = node;
                heap.push(Reverse((OrdF64::new(nd), next)));
            }
        }
    }

    if dist[to as usize].is_infinite() {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Parent slot of a tree's origin and of every intersection it cannot reach.
const NO_PARENT: u8 = u8::MAX;

/// Bytes of shortest-path trees a [`RouteCache`] holds before it drops
/// them all and starts over. A tree is one byte per intersection, so the
/// paper's 3 249-intersection world keeps every origin (10.1 MiB) while a
/// 10⁵-intersection one stays bounded at 167 trees.
const TREE_BUDGET_BYTES: usize = 16 << 20;

/// One direction of a road, as the tree search reads it.
#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    /// Free-flow traversal time, seconds.
    time: f64,
    /// The intersection this half-edge leads to.
    to: u32,
    /// Slot of the same road in `neighbors(to)` — what `to` records as its
    /// parent when reached over this half-edge.
    back_slot: u8,
}

/// The network's adjacency flattened for the tree search: `neighbors(v)`
/// is `half_edges[starts[v]..starts[v + 1]]`, in the same order, with the
/// travel time inline.
#[derive(Debug)]
struct FlatGraph {
    starts: Vec<u32>,
    half_edges: Vec<HalfEdge>,
}

impl FlatGraph {
    fn new(network: &RoadNetwork) -> Self {
        let n = network.num_nodes();
        let mut starts = Vec::with_capacity(n + 1);
        let mut half_edges = Vec::with_capacity(2 * network.num_edges());
        for v in 0..n as u32 {
            starts.push(half_edges.len() as u32);
            assert!(
                network.neighbors(v).len() < NO_PARENT as usize,
                "intersection {v} joins more roads than a one-byte parent slot can name"
            );
            for &(edge, to) in network.neighbors(v) {
                let time = network.edge(edge).travel_time();
                // `heap_key` orders times by their bits.
                assert!(time >= 0.0, "road {edge} has a negative or NaN length");
                let back_slot = network
                    .neighbors(to)
                    .iter()
                    .position(|&(e, back)| e == edge && back == v)
                    .expect("adjacency is symmetric");
                half_edges.push(HalfEdge {
                    time,
                    to,
                    back_slot: back_slot as u8,
                });
            }
        }
        starts.push(half_edges.len() as u32);
        FlatGraph { starts, half_edges }
    }

    #[inline]
    fn out(&self, v: u32) -> &[HalfEdge] {
        &self.half_edges[self.starts[v as usize] as usize..self.starts[v as usize + 1] as usize]
    }
}

/// `(time, node)` packed so that integer order is the reference search's
/// `(OrdF64, u32)` order: non-negative floats sort as their bit patterns.
#[inline]
fn heap_key(time: f64, node: u32) -> u128 {
    (u128::from(time.to_bits()) << 32) | u128::from(node)
}

/// Shortest-path trees memoized per origin, filled lazily.
///
/// [`route`](Self::route) returns exactly what [`shortest_path`] returns.
/// The tree search is that function's search without the early exit at
/// `to`: up to the moment `to` is settled both run the same relaxations in
/// the same order (strict `<`, same `(time, node)` heap order), and
/// afterwards no settled intersection's parent can change — so the parents
/// along the route to `to` are the ones the early-exit search leaves.
///
/// A tree stores, per intersection, the slot in its own `neighbors` list
/// that leads back toward the origin: one byte, not a four-byte node id.
/// Trees depend on the network only, are shared (not copied) by `clone`,
/// and are held within a fixed byte budget — when the next tree would
/// overflow it they are all dropped and refilled on demand.
#[derive(Clone)]
pub struct RouteCache {
    graph: Arc<FlatGraph>,
    /// By origin: the parent slot of every intersection.
    trees: Vec<Option<Arc<[u8]>>>,
    held_bytes: usize,
    budget_bytes: usize,
    // Search scratch, reused across tree builds.
    dist: Vec<f64>,
    heap: BinaryHeap<Reverse<u128>>,
}

impl fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteCache")
            .field("intersections", &self.trees.len())
            .field("held_bytes", &self.held_bytes)
            .field("budget_bytes", &self.budget_bytes)
            .finish_non_exhaustive()
    }
}

impl RouteCache {
    /// An empty cache over `network`.
    ///
    /// # Panics
    /// Panics if an intersection joins 255 or more roads, or a road's
    /// length is negative or NaN.
    pub fn new(network: &RoadNetwork) -> Self {
        Self::with_budget(network, TREE_BUDGET_BYTES)
    }

    pub(crate) fn with_budget(network: &RoadNetwork, budget_bytes: usize) -> Self {
        let n = network.num_nodes();
        RouteCache {
            graph: Arc::new(FlatGraph::new(network)),
            trees: vec![None; n],
            held_bytes: 0,
            budget_bytes,
            dist: vec![f64::INFINITY; n],
            heap: BinaryHeap::new(),
        }
    }

    /// The fastest route from `from` to `to`, node for node what
    /// [`shortest_path`] computes: inclusive of both endpoints, `None`
    /// when `to` is unreachable, a single node when `from == to`.
    pub fn route(&mut self, from: u32, to: u32) -> Option<Vec<u32>> {
        let n = self.trees.len();
        assert!(
            (from as usize) < n && (to as usize) < n,
            "node out of range"
        );
        if self.trees[from as usize].is_none() {
            self.grow_tree(from);
        }
        let tree = self.trees[from as usize].as_deref().expect("just grown");
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            let slot = tree[cur as usize];
            if slot == NO_PARENT {
                return None;
            }
            cur = self.graph.out(cur)[slot as usize].to;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Runs the full search from `from` and stores its tree.
    fn grow_tree(&mut self, from: u32) {
        let n = self.trees.len();
        if self.held_bytes + n > self.budget_bytes {
            self.trees.fill(None);
            self.held_bytes = 0;
        }
        let mut parent = vec![NO_PARENT; n];
        self.dist.fill(f64::INFINITY);
        self.dist[from as usize] = 0.0;
        self.heap.clear();
        self.heap.push(Reverse(heap_key(0.0, from)));
        while let Some(Reverse(key)) = self.heap.pop() {
            let (d, node) = (f64::from_bits((key >> 32) as u64), key as u32);
            if d > self.dist[node as usize] {
                continue; // Stale entry.
            }
            for half in self.graph.out(node) {
                let nd = d + half.time;
                if nd < self.dist[half.to as usize] {
                    self.dist[half.to as usize] = nd;
                    parent[half.to as usize] = half.back_slot;
                    self.heap.push(Reverse(heap_key(nd, half.to)));
                }
            }
        }
        self.trees[from as usize] = Some(parent.into());
        self.held_bytes += n;
    }

    /// How many origins currently have a tree.
    #[cfg(test)]
    pub(crate) fn trees_held(&self) -> usize {
        self.trees.iter().flatten().count()
    }
}

/// The free-flow travel time of a route, in seconds.
pub fn route_travel_time(network: &RoadNetwork, path: &[u32]) -> f64 {
    path.windows(2)
        .map(|w| {
            let (edge, _) =
                find_edge(network, w[0], w[1]).expect("consecutive route nodes adjacent");
            network.edge(edge).travel_time()
        })
        .sum()
}

/// Finds the edge connecting two adjacent intersections.
pub fn find_edge(network: &RoadNetwork, a: u32, b: u32) -> Option<(u32, u32)> {
    network
        .neighbors(a)
        .iter()
        .copied()
        .find(|&(_, next)| next == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, NetworkConfig};
    use crate::road::{Edge, RoadClass, RoadNetwork};
    use lira_core::geometry::{Point, Rect};
    use proptest::prelude::*;

    /// Two routes from 0 to 3: direct slow collector vs. two-hop expressway.
    fn fork() -> RoadNetwork {
        let bounds = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
        ];
        let edges = vec![
            // Direct: 0 -> 3 over a collector, 141 m at 8 m/s = 17.7 s.
            Edge {
                from: 0,
                to: 3,
                length: 141.0,
                class: RoadClass::Collector,
            },
            // Detour: 0 -> 1 -> 3 over expressways, 141 m at 30 m/s = 4.7 s.
            Edge {
                from: 0,
                to: 1,
                length: 70.7,
                class: RoadClass::Expressway,
            },
            Edge {
                from: 1,
                to: 3,
                length: 70.7,
                class: RoadClass::Expressway,
            },
            // Unreachable component would need node 2 disconnected; keep it
            // connected through a spur for the main tests.
            Edge {
                from: 1,
                to: 2,
                length: 70.7,
                class: RoadClass::Collector,
            },
        ];
        RoadNetwork::new(bounds, nodes, edges)
    }

    #[test]
    fn picks_fastest_not_shortest() {
        let net = fork();
        let path = shortest_path(&net, 0, 3).unwrap();
        assert_eq!(path, vec![0, 1, 3], "expressway detour wins on time");
        let t = route_travel_time(&net, &path);
        assert!((t - 2.0 * 70.7 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn trivial_and_unreachable_routes() {
        let net = fork();
        assert_eq!(shortest_path(&net, 2, 2).unwrap(), vec![2]);
        // Isolated node: extend with an unreachable intersection.
        let mut nodes = net.nodes().to_vec();
        nodes.push(Point::new(10.0, 90.0));
        let net2 = RoadNetwork::new(*net.bounds(), nodes, net.edges().to_vec());
        assert!(shortest_path(&net2, 0, 4).is_none());
    }

    #[test]
    fn route_endpoints_and_adjacency() {
        let net = generate_network(&NetworkConfig::small(11));
        let from = 0u32;
        let to = (net.num_nodes() - 1) as u32;
        let path = shortest_path(&net, from, to).unwrap();
        assert_eq!(*path.first().unwrap(), from);
        assert_eq!(*path.last().unwrap(), to);
        for w in path.windows(2) {
            assert!(find_edge(&net, w[0], w[1]).is_some(), "gap in route");
        }
    }

    #[test]
    fn route_is_optimal_vs_exhaustive_on_small_graph() {
        // On the fork graph, enumerate all simple paths 0 -> 3 and verify
        // Dijkstra found the minimum travel time.
        let net = fork();
        let best = route_travel_time(&net, &shortest_path(&net, 0, 3).unwrap());
        let candidates: [&[u32]; 2] = [&[0, 3], &[0, 1, 3]];
        let exhaustive = candidates
            .iter()
            .map(|p| route_travel_time(&net, p))
            .fold(f64::INFINITY, f64::min);
        assert!((best - exhaustive).abs() < 1e-12);
    }

    /// Two roads, 0 — 1 and 2 — 3, with nothing between them.
    fn two_islands() -> RoadNetwork {
        let nodes = (0..4).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let road = |from, to| Edge {
            from,
            to,
            length: 10.0,
            class: RoadClass::Arterial,
        };
        RoadNetwork::new(
            Rect::from_coords(0.0, 0.0, 30.0, 1.0),
            nodes,
            vec![road(0, 1), road(2, 3)],
        )
    }

    #[test]
    fn cache_agrees_with_the_reference_on_a_disconnected_network() {
        let net = two_islands();
        let mut cache = RouteCache::new(&net);
        for from in 0..4 {
            for to in 0..4 {
                assert_eq!(
                    cache.route(from, to),
                    shortest_path(&net, from, to),
                    "{from} -> {to}"
                );
            }
        }
        assert_eq!(cache.route(0, 1), Some(vec![0, 1]));
        assert_eq!(cache.route(3, 3), Some(vec![3]));
        assert_eq!(cache.route(1, 2), None);
    }

    #[test]
    fn full_budget_drops_every_tree_and_refills() {
        let net = generate_network(&NetworkConfig::small(4));
        let n = net.num_nodes();
        let mut cache = RouteCache::with_budget(&net, 3 * n);
        for from in 0..3 {
            cache.route(from, 50);
        }
        assert_eq!(cache.trees_held(), 3);
        cache.route(1, 60); // A held origin: nothing grows.
        assert_eq!(cache.trees_held(), 3);
        cache.route(3, 50); // The fourth tree does not fit: start over.
        assert_eq!(cache.trees_held(), 1);
        assert_eq!(cache.route(0, 50), shortest_path(&net, 0, 50));
        assert_eq!(cache.trees_held(), 2);
    }

    #[test]
    fn clone_shares_trees_instead_of_copying_them() {
        let net = generate_network(&NetworkConfig::small(4));
        let mut cache = RouteCache::new(&net);
        cache.route(7, 90);
        let mut probe = cache.clone();
        let shared = |a: &RouteCache, b: &RouteCache, origin: usize| {
            Arc::ptr_eq(
                a.trees[origin].as_ref().unwrap(),
                b.trees[origin].as_ref().unwrap(),
            )
        };
        assert!(shared(&cache, &probe, 7));
        assert!(Arc::ptr_eq(&cache.graph, &probe.graph));
        // What the probe grows stays the probe's.
        probe.route(8, 90);
        assert_eq!((cache.trees_held(), probe.trees_held()), (1, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A route read off a tree is `shortest_path`'s, node for node: on
        /// jittered networks and on perfect grids (where most travel times
        /// tie, so only identical relaxation order keeps the two equal),
        /// with and without a lake carved out, for `from == to` too — and
        /// under a three-tree budget, so the cache starts over many times
        /// within one case.
        #[test]
        fn tree_routes_equal_shortest_path(
            seed in 0u64..1_000_000,
            jitter in 0.0f64..0.45,
            perfect_grid in any::<bool>(),
            lake in (200.0f64..1200.0, 200.0f64..1200.0, 0.0f64..700.0),
            tight in any::<bool>(),
            pairs in prop::collection::vec((0usize..10_000, 0usize..10_000), 20..60),
        ) {
            let mut cfg = NetworkConfig::small(seed);
            cfg.jitter_frac = if perfect_grid { 0.0 } else { jitter };
            let (x, y, side) = lake;
            if side >= 150.0 {
                cfg.dead_zones = vec![Rect::from_coords(x, y, x + side, y + side)];
            }
            let net = generate_network(&cfg);
            let n = net.num_nodes();
            let mut cache = if tight {
                RouteCache::with_budget(&net, 3 * n)
            } else {
                RouteCache::new(&net)
            };
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let from = (a % n) as u32;
                let to = if i % 8 == 0 { from } else { (b % n) as u32 };
                prop_assert_eq!(cache.route(from, to), shortest_path(&net, from, to));
                prop_assert!(!tight || cache.trees_held() <= 3);
            }
        }
    }

    #[test]
    fn generated_network_routes_everywhere() {
        let net = generate_network(&NetworkConfig::small(2));
        // Spot-check a handful of pairs.
        for (a, b) in [(0u32, 17u32), (5, 80), (33, 99)] {
            let path = shortest_path(&net, a, b).expect("connected grid");
            assert!(path.len() >= 2);
        }
    }
}
