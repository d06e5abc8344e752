//! Shortest-path routing over the road network (Dijkstra on travel time).
//!
//! [`shortest_path`] is the point-to-point reference. The simulator routes
//! through a [`RouteCache`]: one full search per origin, remembered as a
//! shortest-path tree, from which every later trip out of that origin is
//! read by walking parents. When every origin's tree fits the cache's
//! budget the whole table is grown up front, on every core.

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
/// paper's 3 249-intersection world keeps every origin (10.1 MiB) and
/// grows them all up front, while a 10⁵-intersection one grows trees on
/// demand and stays bounded at 167 of them.
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

/// Runs the full search from `from` and writes its tree into `parent`: per
/// intersection, the slot in its own `neighbors` list that leads back
/// toward `from` ([`NO_PARENT`] for `from` itself and for every
/// intersection it cannot reach). `dist` and `heap` are scratch.
fn search(
    graph: &FlatGraph,
    from: u32,
    dist: &mut Vec<f64>,
    heap: &mut BinaryHeap<Reverse<u128>>,
    parent: &mut [u8],
) {
    parent.fill(NO_PARENT);
    dist.clear();
    dist.resize(parent.len(), f64::INFINITY);
    dist[from as usize] = 0.0;
    heap.clear();
    heap.push(Reverse(heap_key(0.0, from)));
    while let Some(Reverse(key)) = heap.pop() {
        let (d, node) = (f64::from_bits((key >> 32) as u64), key as u32);
        if d > dist[node as usize] {
            continue; // Stale entry.
        }
        for half in graph.out(node) {
            let nd = d + half.time;
            if nd < dist[half.to as usize] {
                dist[half.to as usize] = nd;
                parent[half.to as usize] = half.back_slot;
                heap.push(Reverse(heap_key(nd, half.to)));
            }
        }
    }
}

/// Shortest-path trees memoized per origin.
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
/// Trees depend on the network and their origin only, and are shared (not
/// copied) by `clone`. When every origin's tree fits the byte budget the
/// cache grows the whole table when it is built, split over the host's
/// cores; otherwise it grows a tree the first time a trip leaves its
/// origin, and when the next tree would overflow the budget it drops them
/// all and refills on demand. Either way every route is the same.
#[derive(Clone)]
pub struct RouteCache {
    graph: Arc<FlatGraph>,
    /// By origin: the parent slot of every intersection.
    trees: Vec<Option<Arc<[u8]>>>,
    held_bytes: usize,
    budget_bytes: usize,
    // Search scratch of the lazy path, reused across tree builds.
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
    /// A cache over `network`, holding every origin's tree already when
    /// they all fit its budget (the paper's world does), else none yet.
    ///
    /// The up-front table is grown on scoped threads, one per core the
    /// process may run on ([`std::thread::available_parallelism`]), and is
    /// the same at any count.
    ///
    /// # Panics
    /// Panics if an intersection joins 255 or more roads, or a road's
    /// length is negative or NaN.
    pub fn new(network: &RoadNetwork) -> Self {
        Self::with_budget(network, TREE_BUDGET_BYTES)
    }

    pub(crate) fn with_budget(network: &RoadNetwork, budget_bytes: usize) -> Self {
        let n = network.num_nodes();
        let mut cache = RouteCache {
            graph: Arc::new(FlatGraph::new(network)),
            trees: vec![None; n],
            held_bytes: 0,
            budget_bytes,
            dist: Vec::new(),
            heap: BinaryHeap::new(),
        };
        if n.saturating_mul(n) <= budget_bytes {
            let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
            cache.grow_all(workers);
        }
        cache
    }

    /// Grows every origin's tree, splitting the origins into `workers`
    /// contiguous runs. Each tree is allocated here, on the calling thread
    /// (trees allocated on the workers would sit in per-thread malloc
    /// arenas and raise the process's peak), and each worker fills its
    /// run's trees with its own search scratch.
    fn grow_all(&mut self, workers: usize) {
        let n = self.trees.len();
        let mut table: Vec<Arc<[u8]>> = (0..n).map(|_| vec![NO_PARENT; n].into()).collect();
        let per = n.div_ceil(workers.max(1)).max(1);
        let graph = &*self.graph;
        std::thread::scope(|scope| {
            let mut runs = table.chunks_mut(per).enumerate();
            let first = runs.next();
            for (w, run) in runs {
                scope.spawn(move || fill_run(graph, w * per, run));
            }
            if let Some((w, run)) = first {
                fill_run(graph, w * per, run);
            }
        });
        self.held_bytes = n * n;
        for (slot, tree) in self.trees.iter_mut().zip(table) {
            *slot = Some(tree);
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
        search(
            &self.graph,
            from,
            &mut self.dist,
            &mut self.heap,
            &mut parent,
        );
        self.trees[from as usize] = Some(parent.into());
        self.held_bytes += n;
    }

    /// How many origins currently have a tree.
    #[cfg(test)]
    pub(crate) fn trees_held(&self) -> usize {
        self.trees.iter().flatten().count()
    }
}

/// Fills the trees of the origins `first..first + run.len()`, in order.
fn fill_run(graph: &FlatGraph, first: usize, run: &mut [Arc<[u8]>]) {
    let (mut dist, mut heap) = (Vec::new(), BinaryHeap::new());
    for (j, tree) in run.iter_mut().enumerate() {
        let parent = Arc::get_mut(tree).expect("a tree being grown is not shared yet");
        search(graph, (first + j) as u32, &mut dist, &mut heap, parent);
    }
}

/// Finds the edge connecting two adjacent intersections.
pub(crate) fn find_edge(network: &RoadNetwork, a: u32, b: u32) -> Option<(u32, u32)> {
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

    /// The free-flow travel time of a route, in seconds.
    fn route_travel_time(network: &RoadNetwork, path: &[u32]) -> f64 {
        path.windows(2)
            .map(|w| {
                let (edge, _) =
                    find_edge(network, w[0], w[1]).expect("consecutive route nodes adjacent");
                network.edge(edge).travel_time()
            })
            .sum()
    }

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

    /// The budget one tree short of the whole table: the cache grows
    /// trees on demand, as it does on networks too large to hold whole.
    fn lazy(net: &RoadNetwork) -> RouteCache {
        let n = net.num_nodes();
        RouteCache::with_budget(net, n * n - 1)
    }

    #[test]
    fn cache_agrees_with_the_reference_on_a_disconnected_network() {
        let net = two_islands();
        for mut cache in [RouteCache::new(&net), lazy(&net)] {
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
    }

    #[test]
    fn a_table_that_fits_is_grown_up_front_and_the_same_at_any_worker_count() {
        let net = generate_network(&NetworkConfig::small(8));
        let n = net.num_nodes();
        let eager = RouteCache::new(&net);
        assert_eq!(eager.trees_held(), n);
        assert_eq!(eager.held_bytes, n * n);
        assert_eq!(lazy(&net).trees_held(), 0);
        for workers in [1, 2, 3, 7, n - 1, n, n + 5] {
            let mut cache = lazy(&net);
            cache.grow_all(workers);
            for origin in 0..n {
                assert_eq!(
                    cache.trees[origin], eager.trees[origin],
                    "origin {origin} at {workers} workers"
                );
            }
        }
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
        let mut cache = lazy(&net);
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
        // A table grown up front is shared whole.
        let eager = RouteCache::new(&net);
        let copy = eager.clone();
        assert!((0..net.num_nodes()).all(|origin| shared(&eager, &copy, origin)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// From every origin, a table grown up front, a cache grown on
        /// demand and `shortest_path` give the same route, node for node:
        /// on jittered networks and on perfect grids (where most travel
        /// times tie, so only identical relaxation order keeps them equal),
        /// with and without a lake carved out, for `from == to` too. The
        /// on-demand cache holds one tree short of the table, or, under a
        /// three-tree budget, starts over many times within one case.
        #[test]
        fn tree_routes_equal_shortest_path(
            seed in 0u64..1_000_000,
            jitter in 0.0f64..0.45,
            perfect_grid in any::<bool>(),
            lake in (200.0f64..1200.0, 200.0f64..1200.0, 0.0f64..700.0),
            tight in any::<bool>(),
            dests in prop::collection::vec(0usize..10_000, 2..5),
        ) {
            let mut cfg = NetworkConfig::small(seed);
            cfg.jitter_frac = if perfect_grid { 0.0 } else { jitter };
            let (x, y, side) = lake;
            if side >= 150.0 {
                cfg.dead_zones = vec![Rect::from_coords(x, y, x + side, y + side)];
            }
            let net = generate_network(&cfg);
            let n = net.num_nodes();
            let mut eager = RouteCache::new(&net);
            prop_assert_eq!(eager.trees_held(), n);
            let mut lazy = if tight {
                RouteCache::with_budget(&net, 3 * n)
            } else {
                lazy(&net)
            };
            for from in 0..n as u32 {
                for to in 0..n as u32 {
                    prop_assert_eq!(eager.route(from, to), lazy.route(from, to));
                }
                prop_assert!(!tight || lazy.trees_held() <= 3);
                for (i, &d) in dests.iter().enumerate() {
                    let to = if i == 0 { from } else { (d % n) as u32 };
                    prop_assert_eq!(eager.route(from, to), shortest_path(&net, from, to));
                }
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
