//! # lira-workload
//!
//! The workload subsystem of the LIRA reproduction:
//!
//! * **Query generators** (Section 4.2): range CQs with side lengths
//!   drawn from `[w/2, w]`, placed by one of three spatial distributions
//!   relative to the mobile-node population — **Proportional** (query
//!   centers follow the node distribution), **Inverse** (they follow its
//!   inverse), and **Random** (uniform).
//! * **Scenarios** ([`scenario`]): the full run configuration (Table 2
//!   presets plus phased demand, heterogeneous fleets, dead zones, and
//!   uplink fault profiles).
//! * **The adversarial catalog** ([`catalog`]): named, deterministic
//!   worlds engineered to stress region-aware shedding — the standing
//!   regression battery behind `exp_scenarios` (see docs/SCENARIOS.md).
//!
//! ```
//! use lira_workload::prelude::*;
//! use lira_core::geometry::{Point, Rect};
//!
//! let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
//! let nodes = vec![Point::new(100.0, 100.0); 50];
//! let cfg = WorkloadConfig { distribution: QueryDistribution::Proportional, count: 5, side_length: 100.0, seed: 1 };
//! let queries = generate_queries(&bounds, &nodes, &cfg);
//! assert_eq!(queries.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lira_core::geometry::{Point, Rect};
use lira_server::query::RangeQuery;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod catalog;
pub mod churn;
pub mod scenario;

/// Spatial distribution of query centers (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryDistribution {
    /// Query locations follow the mobile-node distribution.
    Proportional,
    /// Query locations follow the inverse of the node distribution.
    Inverse,
    /// Query locations are uniform over the space.
    Random,
}

impl QueryDistribution {
    /// All three distributions, in the paper's order.
    pub const ALL: [QueryDistribution; 3] = [
        QueryDistribution::Proportional,
        QueryDistribution::Inverse,
        QueryDistribution::Random,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            QueryDistribution::Proportional => "Proportional",
            QueryDistribution::Inverse => "Inverse",
            QueryDistribution::Random => "Random",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Query placement distribution.
    pub distribution: QueryDistribution,
    /// Number of queries `m` (the paper controls it via the `m/n` ratio).
    pub count: usize,
    /// Side-length parameter `w`: sides are drawn from `[w/2, w]` meters.
    pub side_length: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's parameterization: `count = ratio · num_nodes`
    /// (Table 2 default `m/n = 0.01`, `w = 1000`).
    pub fn from_ratio(
        distribution: QueryDistribution,
        num_nodes: usize,
        ratio: f64,
        side_length: f64,
        seed: u64,
    ) -> Self {
        WorkloadConfig {
            distribution,
            count: ((num_nodes as f64 * ratio).round() as usize).max(1),
            side_length,
            seed,
        }
    }
}

/// Side cell count of the density histogram behind the Inverse sampler.
const DENSITY_GRID_SIDE: usize = 32;

/// Generates the query set over `bounds`, using `node_positions` for the
/// Proportional and Inverse placements. Queries are squares clamped to stay
/// inside the bounds without shrinking.
pub fn generate_queries(
    bounds: &Rect,
    node_positions: &[Point],
    cfg: &WorkloadConfig,
) -> Vec<RangeQuery> {
    assert!(cfg.side_length > 0.0, "side length must be positive");
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xa076_1d64_78bd_642f);
    let inverse_sampler = if cfg.distribution == QueryDistribution::Inverse {
        Some(InverseSampler::new(bounds, node_positions))
    } else {
        None
    };

    (0..cfg.count)
        .map(|i| {
            let side = rng.gen_range(cfg.side_length / 2.0..=cfg.side_length);
            let center = match cfg.distribution {
                QueryDistribution::Random => uniform_point(bounds, &mut rng),
                QueryDistribution::Proportional => {
                    if node_positions.is_empty() {
                        uniform_point(bounds, &mut rng)
                    } else {
                        // A random node's position, jittered by up to half a
                        // query side so queries don't all share corners.
                        let p = node_positions[rng.gen_range(0..node_positions.len())];
                        Point::new(
                            p.x + rng.gen_range(-side / 2.0..=side / 2.0),
                            p.y + rng.gen_range(-side / 2.0..=side / 2.0),
                        )
                    }
                }
                QueryDistribution::Inverse => inverse_sampler
                    .as_ref()
                    .expect("sampler built for Inverse")
                    .sample(&mut rng),
            };
            RangeQuery {
                id: i as u32,
                range: Rect::centered_clamped(center, side, side, bounds),
            }
        })
        .collect()
}

/// Samples points with probability inversely proportional to the local
/// node density (computed over a coarse histogram).
struct InverseSampler {
    bounds: Rect,
    cumulative: Vec<f64>,
}

impl InverseSampler {
    fn new(bounds: &Rect, node_positions: &[Point]) -> Self {
        let side = DENSITY_GRID_SIDE;
        let mut counts = vec![0u32; side * side];
        for p in node_positions {
            let col = ((p.x - bounds.min.x) / bounds.width() * side as f64)
                .floor()
                .clamp(0.0, (side - 1) as f64) as usize;
            let row = ((p.y - bounds.min.y) / bounds.height() * side as f64)
                .floor()
                .clamp(0.0, (side - 1) as f64) as usize;
            counts[row * side + col] += 1;
        }
        let mut cumulative = Vec::with_capacity(side * side);
        let mut total = 0.0;
        for &c in &counts {
            total += 1.0 / (1.0 + c as f64);
            cumulative.push(total);
        }
        InverseSampler {
            bounds: *bounds,
            cumulative,
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> Point {
        let total = *self.cumulative.last().expect("non-empty histogram");
        let x = rng.gen_range(0.0..total);
        let cell = self.cumulative.partition_point(|&c| c <= x);
        let side = DENSITY_GRID_SIDE;
        let (row, col) = (cell / side, cell % side);
        let cw = self.bounds.width() / side as f64;
        let ch = self.bounds.height() / side as f64;
        Point::new(
            self.bounds.min.x + (col as f64 + rng.gen_range(0.0..1.0)) * cw,
            self.bounds.min.y + (row as f64 + rng.gen_range(0.0..1.0)) * ch,
        )
    }
}

fn uniform_point<R: Rng>(bounds: &Rect, rng: &mut R) -> Point {
    Point::new(
        rng.gen_range(bounds.min.x..bounds.max.x),
        rng.gen_range(bounds.min.y..bounds.max.y),
    )
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::catalog::NamedScenario;
    pub use crate::churn::ChurnWorkload;
    pub use crate::scenario::{DemandPhase, PhaseSchedule, Scenario, SpeedClass};
    pub use crate::{generate_queries, QueryDistribution, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Rect {
        Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0)
    }

    /// Node cluster in the SW corner.
    fn clustered_nodes() -> Vec<Point> {
        (0..500)
            .map(|i| {
                Point::new(
                    100.0 + (i % 25) as f64 * 40.0,
                    100.0 + (i / 25) as f64 * 40.0,
                )
            })
            .collect()
    }

    fn fraction_in_sw(queries: &[RangeQuery]) -> f64 {
        let sw = Rect::from_coords(0.0, 0.0, 2000.0, 2000.0);
        queries
            .iter()
            .filter(|q| sw.contains(&q.range.center()))
            .count() as f64
            / queries.len() as f64
    }

    fn cfg(d: QueryDistribution) -> WorkloadConfig {
        WorkloadConfig {
            distribution: d,
            count: 400,
            side_length: 1000.0,
            seed: 5,
        }
    }

    #[test]
    fn query_count_and_ids() {
        let qs = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Random),
        );
        assert_eq!(qs.len(), 400);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.id, i as u32);
        }
    }

    #[test]
    fn sides_in_w_range_and_inside_bounds() {
        for d in QueryDistribution::ALL {
            let qs = generate_queries(&bounds(), &clustered_nodes(), &cfg(d));
            for q in &qs {
                let w = q.range.width();
                let h = q.range.height();
                assert!((500.0..=1000.0).contains(&w), "{d:?}: side {w}");
                assert!((w - h).abs() < 1e-9, "queries are squares");
                assert!(q.range.min.x >= 0.0 && q.range.max.x <= 10_000.0);
                assert!(q.range.min.y >= 0.0 && q.range.max.y <= 10_000.0);
            }
        }
    }

    #[test]
    fn proportional_follows_nodes() {
        let qs = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Proportional),
        );
        assert!(
            fraction_in_sw(&qs) > 0.9,
            "proportional queries should cluster with the nodes: {}",
            fraction_in_sw(&qs)
        );
    }

    #[test]
    fn inverse_avoids_nodes() {
        let qs = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Inverse),
        );
        // The SW cluster occupies ~4% of the area; inverse placement should
        // put close to nothing there.
        assert!(
            fraction_in_sw(&qs) < 0.05,
            "inverse queries should avoid the cluster: {}",
            fraction_in_sw(&qs)
        );
    }

    #[test]
    fn random_is_roughly_uniform() {
        let qs = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Random),
        );
        let f = fraction_in_sw(&qs);
        // SW box is 4% of the area.
        assert!((0.005..0.12).contains(&f), "fraction {f}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Random),
        );
        let b = generate_queries(
            &bounds(),
            &clustered_nodes(),
            &cfg(QueryDistribution::Random),
        );
        assert_eq!(a, b);
        let mut c2 = cfg(QueryDistribution::Random);
        c2.seed = 6;
        let c = generate_queries(&bounds(), &clustered_nodes(), &c2);
        assert_ne!(a, c);
    }

    #[test]
    fn ratio_parameterization() {
        let c = WorkloadConfig::from_ratio(QueryDistribution::Random, 10_000, 0.01, 1000.0, 1);
        assert_eq!(c.count, 100);
        // At least one query even for tiny populations.
        let c = WorkloadConfig::from_ratio(QueryDistribution::Random, 10, 0.01, 1000.0, 1);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn proportional_without_nodes_falls_back_to_random() {
        let qs = generate_queries(&bounds(), &[], &cfg(QueryDistribution::Proportional));
        assert_eq!(qs.len(), 400);
    }

    #[test]
    fn inverse_without_nodes_is_uniform() {
        let qs = generate_queries(&bounds(), &[], &cfg(QueryDistribution::Inverse));
        let f = fraction_in_sw(&qs);
        assert!((0.005..0.12).contains(&f), "fraction {f}");
    }
}
