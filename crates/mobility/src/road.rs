//! Road-network model: an undirected graph of intersections connected by
//! road segments of three classes (expressway / arterial / collector),
//! mirroring the "rich mixture of expressways, arterial roads, and collector
//! roads" of the Chamblee map used in the paper's evaluation.

use lira_core::geometry::{Point, Rect};

/// Functional class of a road segment, with its free-flow speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Limited-access highway (~108 km/h).
    Expressway,
    /// Major through road (~58 km/h).
    Arterial,
    /// Local street (~29 km/h).
    Collector,
}

impl RoadClass {
    /// Free-flow speed in m/s.
    #[inline]
    pub(crate) fn speed_limit(self) -> f64 {
        match self {
            RoadClass::Expressway => 30.0,
            RoadClass::Arterial => 16.0,
            RoadClass::Collector => 8.0,
        }
    }

    /// Relative traffic volume carried by this class (used to weight trip
    /// routing onto bigger roads, in the spirit of the real-world traffic
    /// volume data the paper's trace generator consumed).
    #[inline]
    pub(crate) fn volume_weight(self) -> f64 {
        match self {
            RoadClass::Expressway => 8.0,
            RoadClass::Arterial => 3.0,
            RoadClass::Collector => 1.0,
        }
    }
}

/// A road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Endpoint intersection indices.
    pub from: u32,
    pub to: u32,
    /// Segment length in meters.
    pub length: f64,
    /// Functional class (determines speed).
    pub class: RoadClass,
}

impl Edge {
    /// Free-flow traversal time in seconds.
    #[inline]
    pub(crate) fn travel_time(&self) -> f64 {
        self.length / self.class.speed_limit()
    }
}

/// An undirected road network.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    bounds: Rect,
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    /// Adjacency: per node, `(edge index, neighbor node)` pairs.
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl RoadNetwork {
    /// Builds a network from intersections and segments. Edge endpoints
    /// must be valid node indices.
    pub fn new(bounds: Rect, nodes: Vec<Point>, edges: Vec<Edge>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            assert!(
                (e.from as usize) < nodes.len() && (e.to as usize) < nodes.len(),
                "edge endpoint out of range"
            );
            adjacency[e.from as usize].push((i as u32, e.to));
            adjacency[e.to as usize].push((i as u32, e.from));
        }
        RoadNetwork {
            bounds,
            nodes,
            edges,
            adjacency,
        }
    }

    /// The space the network covers.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Number of intersections.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of segments.
    #[inline]
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Position of intersection `id`.
    #[inline]
    pub fn node(&self, id: u32) -> Point {
        self.nodes[id as usize]
    }

    /// All intersection positions.
    #[inline]
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// Segment `id`.
    #[inline]
    pub fn edge(&self, id: u32) -> &Edge {
        &self.edges[id as usize]
    }

    /// All segments.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of intersection `id` as `(edge, neighbor)` pairs.
    #[inline]
    pub(crate) fn neighbors(&self, id: u32) -> &[(u32, u32)] {
        &self.adjacency[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let bounds = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ];
        let edges = vec![
            Edge {
                from: 0,
                to: 1,
                length: 10.0,
                class: RoadClass::Arterial,
            },
            Edge {
                from: 1,
                to: 2,
                length: 14.14,
                class: RoadClass::Collector,
            },
            Edge {
                from: 2,
                to: 0,
                length: 10.0,
                class: RoadClass::Expressway,
            },
        ];
        RoadNetwork::new(bounds, nodes, edges)
    }

    #[test]
    fn class_speeds_are_ordered() {
        assert!(RoadClass::Expressway.speed_limit() > RoadClass::Arterial.speed_limit());
        assert!(RoadClass::Arterial.speed_limit() > RoadClass::Collector.speed_limit());
        assert!(RoadClass::Expressway.volume_weight() > RoadClass::Collector.volume_weight());
    }

    #[test]
    fn travel_time() {
        let e = Edge {
            from: 0,
            to: 1,
            length: 300.0,
            class: RoadClass::Expressway,
        };
        assert_eq!(e.travel_time(), 10.0);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let n = triangle();
        assert_eq!(n.num_nodes(), 3);
        assert_eq!(n.num_edges(), 3);
        for node in 0..3u32 {
            assert_eq!(n.neighbors(node).len(), 2);
            for &(e, nb) in n.neighbors(node) {
                // The reverse direction exists with the same edge id.
                assert!(n
                    .neighbors(nb)
                    .iter()
                    .any(|&(e2, nb2)| e2 == e && nb2 == node));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge_endpoints() {
        RoadNetwork::new(
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            vec![Point::new(0.0, 0.0)],
            vec![Edge {
                from: 0,
                to: 5,
                length: 1.0,
                class: RoadClass::Collector,
            }],
        );
    }
}
