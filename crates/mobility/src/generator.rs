//! Synthetic road-network generator.
//!
//! The paper evaluates on a trace generated from the USGS Chamblee (GA)
//! road map. That data is not redistributable, so we generate a network
//! with the same *statistical* structure: a hierarchical grid where most
//! streets are slow collectors, every `arterial_period`-th line is an
//! arterial, and every `expressway_period`-th line is an expressway. The
//! resulting heterogeneity of node density and speed across the space is
//! what LIRA's region-aware partitioning exploits; the exact street shapes
//! are irrelevant to the algorithms (see DESIGN.md, substitutions).

use lira_core::geometry::{Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::road::{Edge, RoadClass, RoadNetwork};

/// Parameters of the synthetic network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// The space the network covers.
    pub bounds: Rect,
    /// Distance between neighboring grid intersections, meters.
    pub spacing: f64,
    /// Every `arterial_period`-th grid line is (at least) an arterial.
    pub arterial_period: usize,
    /// Every `expressway_period`-th grid line is an expressway.
    pub expressway_period: usize,
    /// Intersection positions are jittered by up to this fraction of the
    /// spacing, so the network does not look artificially regular.
    pub jitter_frac: f64,
    /// Unbuildable areas — rivers, lakes, restricted zones. Intersections
    /// falling inside any of these rectangles (half-open, like range
    /// queries) are removed along with their incident segments, and the
    /// network is then pruned to its largest connected component so every
    /// surviving intersection stays routable. Empty for the paper's
    /// single-city space.
    pub dead_zones: Vec<Rect>,
    /// RNG seed (the generator is fully deterministic given the config).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bounds: Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0),
            spacing: 250.0,
            arterial_period: 4,
            expressway_period: 16,
            jitter_frac: 0.2,
            dead_zones: Vec::new(),
            seed: 7,
        }
    }
}

impl NetworkConfig {
    /// A small network for tests and examples (~2 km × 2 km).
    pub fn small(seed: u64) -> Self {
        NetworkConfig {
            bounds: Rect::from_coords(0.0, 0.0, 2000.0, 2000.0),
            spacing: 200.0,
            arterial_period: 3,
            expressway_period: 9,
            jitter_frac: 0.2,
            dead_zones: Vec::new(),
            seed,
        }
    }
}

/// Generates the synthetic hierarchical road network.
pub fn generate_network(cfg: &NetworkConfig) -> RoadNetwork {
    assert!(cfg.spacing > 0.0, "spacing must be positive");
    assert!(cfg.arterial_period >= 1 && cfg.expressway_period >= 1);
    assert!(
        (0.0..0.5).contains(&cfg.jitter_frac),
        "jitter must be in [0, 0.5)"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let cols = ((cfg.bounds.width() / cfg.spacing).floor() as usize).max(1) + 1;
    let rows = ((cfg.bounds.height() / cfg.spacing).floor() as usize).max(1) + 1;

    // Intersections on a jittered grid, clamped inside the bounds.
    let mut nodes = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let jx = if cfg.jitter_frac > 0.0 {
                rng.gen_range(-cfg.jitter_frac..cfg.jitter_frac) * cfg.spacing
            } else {
                0.0
            };
            let jy = if cfg.jitter_frac > 0.0 {
                rng.gen_range(-cfg.jitter_frac..cfg.jitter_frac) * cfg.spacing
            } else {
                0.0
            };
            let p = Point::new(
                cfg.bounds.min.x + c as f64 * cfg.spacing + jx,
                cfg.bounds.min.y + r as f64 * cfg.spacing + jy,
            );
            nodes.push(cfg.bounds.clamp(p));
        }
    }

    let class_of_line = |idx: usize| -> RoadClass {
        if idx.is_multiple_of(cfg.expressway_period) {
            RoadClass::Expressway
        } else if idx.is_multiple_of(cfg.arterial_period) {
            RoadClass::Arterial
        } else {
            RoadClass::Collector
        }
    };

    let node_at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    // Horizontal segments lie on row lines, vertical on column lines.
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let (a, b) = (node_at(r, c), node_at(r, c + 1));
                edges.push(Edge {
                    from: a,
                    to: b,
                    length: nodes[a as usize].distance(&nodes[b as usize]).max(1.0),
                    class: class_of_line(r),
                });
            }
            if r + 1 < rows {
                let (a, b) = (node_at(r, c), node_at(r + 1, c));
                edges.push(Edge {
                    from: a,
                    to: b,
                    length: nodes[a as usize].distance(&nodes[b as usize]).max(1.0),
                    class: class_of_line(c),
                });
            }
        }
    }

    if cfg.dead_zones.is_empty() {
        return RoadNetwork::new(cfg.bounds, nodes, edges);
    }
    carve_dead_zones(cfg.bounds, nodes, edges, &cfg.dead_zones)
}

/// Removes intersections inside any dead zone (and their segments), then
/// keeps only the largest connected component of what remains, reindexing
/// nodes. Dead zones may split the grid — a river bisecting the space
/// leaves two banks, and only the bigger one survives — so multi-city
/// scenarios place their zones to leave corridors between the parts they
/// want to keep.
fn carve_dead_zones(
    bounds: Rect,
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    zones: &[Rect],
) -> RoadNetwork {
    let alive: Vec<bool> = nodes
        .iter()
        .map(|p| !zones.iter().any(|z| z.contains(p)))
        .collect();
    assert!(
        alive.iter().any(|&a| a),
        "dead zones swallowed the entire network"
    );

    // Union-find over surviving nodes to locate the largest component.
    let mut parent: Vec<usize> = (0..nodes.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in &edges {
        let (a, b) = (e.from as usize, e.to as usize);
        if alive[a] && alive[b] {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    let mut comp_size = vec![0usize; nodes.len()];
    for i in 0..nodes.len() {
        if alive[i] {
            comp_size[find(&mut parent, i)] += 1;
        }
    }
    let best_root = (0..nodes.len())
        .max_by_key(|&i| comp_size[i])
        .expect("non-empty network");

    // Reindex the surviving component.
    let mut remap = vec![u32::MAX; nodes.len()];
    let mut kept_nodes = Vec::new();
    for i in 0..nodes.len() {
        if alive[i] && find(&mut parent, i) == best_root {
            remap[i] = kept_nodes.len() as u32;
            kept_nodes.push(nodes[i]);
        }
    }
    let kept_edges: Vec<Edge> = edges
        .into_iter()
        .filter_map(|e| {
            let (a, b) = (remap[e.from as usize], remap[e.to as usize]);
            (a != u32::MAX && b != u32::MAX).then_some(Edge {
                from: a,
                to: b,
                ..e
            })
        })
        .collect();
    assert!(
        kept_nodes.len() >= 2 && !kept_edges.is_empty(),
        "dead zones left no routable network"
    );
    RoadNetwork::new(bounds, kept_nodes, kept_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether every intersection can reach every other (a search from
    /// node 0).
    fn is_connected(n: &RoadNetwork) -> bool {
        if n.num_nodes() == 0 {
            return true;
        }
        let mut seen = vec![false; n.num_nodes()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(node) = stack.pop() {
            for &(_, next) in n.neighbors(node) {
                if !seen[next as usize] {
                    seen[next as usize] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == n.num_nodes()
    }

    #[test]
    fn default_network_covers_paper_space() {
        let cfg = NetworkConfig::default();
        let n = generate_network(&cfg);
        assert!(n.num_nodes() > 3000, "{} nodes", n.num_nodes());
        assert!(is_connected(&n));
        // All intersections inside the bounds.
        for p in n.nodes() {
            assert!(n.bounds().contains_closed(p), "{p} outside bounds");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = NetworkConfig::small(42);
        let a = generate_network(&cfg);
        let b = generate_network(&cfg);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        // A different seed perturbs the jitter.
        let c = generate_network(&NetworkConfig::small(43));
        assert_ne!(a.nodes(), c.nodes());
    }

    #[test]
    fn has_all_three_road_classes() {
        let n = generate_network(&NetworkConfig::default());
        let mut counts = [0usize; 3];
        for e in n.edges() {
            match e.class {
                RoadClass::Expressway => counts[0] += 1,
                RoadClass::Arterial => counts[1] += 1,
                RoadClass::Collector => counts[2] += 1,
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // The hierarchy is a pyramid: collectors dominate.
        assert!(counts[2] > counts[1]);
        assert!(counts[1] > counts[0]);
    }

    #[test]
    fn grid_topology_degree_bounds() {
        let n = generate_network(&NetworkConfig::small(5));
        for id in 0..n.num_nodes() as u32 {
            let deg = n.neighbors(id).len();
            assert!((2..=4).contains(&deg), "degree {deg} at node {id}");
        }
    }

    #[test]
    fn zero_jitter_is_perfect_grid() {
        let mut cfg = NetworkConfig::small(0);
        cfg.jitter_frac = 0.0;
        let n = generate_network(&cfg);
        // First row nodes are exactly spaced.
        let a = n.node(0);
        let b = n.node(1);
        assert!((b.x - a.x - cfg.spacing).abs() < 1e-9);
        assert_eq!(a.y, b.y);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn rejects_bad_spacing() {
        let mut cfg = NetworkConfig::small(0);
        cfg.spacing = 0.0;
        generate_network(&cfg);
    }

    #[test]
    fn dead_zone_removes_intersections_but_keeps_connectivity() {
        let mut cfg = NetworkConfig::small(42);
        let full = generate_network(&cfg);
        // A lake in the middle of the space.
        cfg.dead_zones = vec![Rect::from_coords(700.0, 700.0, 1300.0, 1300.0)];
        let carved = generate_network(&cfg);
        assert!(carved.num_nodes() < full.num_nodes());
        assert!(is_connected(&carved), "carved network must stay routable");
        for p in carved.nodes() {
            assert!(
                !cfg.dead_zones[0].contains(p),
                "intersection {p} inside the dead zone"
            );
        }
        // Every surviving intersection still has a way out.
        for id in 0..carved.num_nodes() as u32 {
            assert!(!carved.neighbors(id).is_empty(), "isolated node {id}");
        }
    }

    #[test]
    fn splitting_dead_zone_keeps_only_the_larger_bank() {
        let mut cfg = NetworkConfig::small(7);
        cfg.jitter_frac = 0.0;
        // A river crossing the full 2 km space at x ∈ [800, 1000): the west
        // bank keeps 4 columns (x ∈ {0..600}), the east bank 6.
        cfg.dead_zones = vec![Rect::from_coords(800.0, -1.0, 1000.0, 2001.0)];
        let n = generate_network(&cfg);
        assert!(is_connected(&n));
        assert!(
            n.nodes().iter().all(|p| p.x >= 1000.0),
            "only the larger (east) bank survives"
        );
    }

    #[test]
    fn dead_zones_are_deterministic() {
        let mut cfg = NetworkConfig::small(3);
        cfg.dead_zones = vec![Rect::from_coords(0.0, 0.0, 500.0, 500.0)];
        let a = generate_network(&cfg);
        let b = generate_network(&cfg);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "entire network")]
    fn rejects_all_consuming_dead_zone() {
        let mut cfg = NetworkConfig::small(0);
        cfg.dead_zones = vec![Rect::from_coords(-1.0, -1.0, 3000.0, 3000.0)];
        generate_network(&cfg);
    }
}
