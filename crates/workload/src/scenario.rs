//! Experiment scenarios: bundled configuration for the end-to-end runs,
//! with presets matching Table 2 of the paper plus the composition hooks
//! the adversarial catalog ([`crate::catalog`]) builds on — phased
//! (time-varying) traffic demand, heterogeneous fleet speed classes with
//! per-class `Δ⊣` caps, and dead zones carved out of the road network.

use lira_core::config::{finite_positive, LiraConfig};
use lira_core::error::{LiraError, Result};
use lira_core::geometry::Rect;
use lira_mobility::simulator::TrafficSimulator;
use lira_mobility::traffic::{Hotspot, TrafficDemand};
use lira_server::channel::FaultProfile;

use crate::QueryDistribution;

/// One phase of a time-varying traffic demand: from [`start_s`]
/// (simulation seconds, warmup included) onward, trips are sampled from
/// this phase's hotspot mixture until the next phase begins.
///
/// [`start_s`]: DemandPhase::start_s
#[derive(Debug, Clone, PartialEq)]
pub struct DemandPhase {
    /// When the phase takes effect, in simulation seconds from the very
    /// start of the run (`t = 0`, i.e. including warmup). The first phase
    /// must start at `0` — it is the demand the fleet spawns under.
    pub start_s: f64,
    /// Gaussian attraction centers active during the phase.
    pub hotspots: Vec<Hotspot>,
    /// Weight of the uniform background component.
    pub uniform_weight: f64,
    /// When set, every car abandons its current trip the moment the phase
    /// begins and heads for a fresh destination drawn from the *new*
    /// demand (a flash crowd turning the fleet around at once). When
    /// clear, only future trips follow the new demand (a slow commute
    /// drift). Ignored on the first phase.
    pub reroute: bool,
}

impl DemandPhase {
    /// The demand surface of this phase.
    pub fn demand(&self) -> TrafficDemand {
        TrafficDemand::new(self.hotspots.clone(), self.uniform_weight)
    }
}

/// A speed class within a heterogeneous fleet (pedestrians, cars,
/// drones). Classes partition the fleet by car id in declaration order:
/// with fractions `[0.3, 0.5, 0.2]` over 100 cars, ids `0..30` take the
/// first class, `30..80` the second, and the rest the last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedClass {
    /// Display name ("pedestrian", "car", "drone").
    pub name: &'static str,
    /// Fraction of the fleet in this class. Fractions must sum to ~1.
    pub fraction: f64,
    /// Multiplicative speed factor on top of each car's personal factor
    /// (pedestrian ≪ 1, drone ≫ 1).
    pub speed_scale: f64,
    /// Per-class cap on the inaccuracy threshold `Δ` (meters): the
    /// simulation clamps every plan threshold for this class's nodes to
    /// `min(Δ, delta_cap)`. Models consumers that cannot tolerate the
    /// full `Δ⊣` (a slow pedestrian drifts little, so a wide threshold
    /// silences it entirely). `f64::INFINITY` leaves the plan unchanged.
    pub delta_cap: f64,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Side of the (square) monitored space, meters.
    pub space_side: f64,
    /// Road-grid spacing, meters.
    pub road_spacing: f64,
    /// Every n-th grid line is an arterial / expressway.
    pub arterial_period: usize,
    /// Every n-th grid line is an expressway.
    pub expressway_period: usize,
    /// Number of traffic hotspots (ignored when [`phases`](Self::phases)
    /// is non-empty).
    pub hotspots: usize,
    /// Number of mobile nodes.
    pub num_cars: usize,

    /// Query placement distribution.
    pub query_distribution: QueryDistribution,
    /// Queries per node, `m/n` (Table 2 default 0.01).
    pub query_ratio: f64,
    /// Query side-length parameter `w`, meters.
    pub query_side: f64,

    /// Number of shedding regions `l`.
    pub num_regions: usize,
    /// Statistics-grid side cell count `α`.
    pub alpha: usize,
    /// Throttle fraction `z`.
    pub throttle: f64,
    /// `Δ⊢`, meters.
    pub delta_min: f64,
    /// `Δ⊣`, meters.
    pub delta_max: f64,
    /// Greedy increment `c_Δ`, meters.
    pub increment: f64,
    /// Fairness threshold `Δ⇔`, meters.
    pub fairness: f64,
    /// Speed-factor extension on/off.
    pub use_speed_factor: bool,
    /// When set, the runner calibrates the update-reduction model `f(Δ)`
    /// empirically from a short trace of the warmed-up traffic instead of
    /// using the analytic default (ablation: Section "empirical vs
    /// analytic f" in DESIGN.md).
    pub calibrate_model: bool,

    /// Traffic warm-up before measurement, seconds.
    pub warmup_s: f64,
    /// Measured duration, seconds.
    pub duration_s: f64,
    /// Simulation tick, seconds.
    pub dt: f64,
    /// Query-evaluation period, seconds.
    pub eval_period_s: f64,
    /// Plan re-adaptation period, seconds.
    pub adapt_period_s: f64,

    /// Time-varying traffic demand. Empty keeps the historical behavior:
    /// one static demand of [`hotspots`](Self::hotspots) random hotspots
    /// derived from the seed. Non-empty replaces it with an explicit
    /// phase schedule (see [`DemandPhase`]); the first phase must start
    /// at `0` and governs fleet spawning.
    pub phases: Vec<DemandPhase>,
    /// Heterogeneous fleet speed classes. Empty is the historical
    /// homogeneous fleet (every car class "car", scale 1, no `Δ` cap).
    pub fleet: Vec<SpeedClass>,
    /// Unbuildable areas removed from the road network (see
    /// [`lira_mobility::generator::NetworkConfig::dead_zones`]).
    pub dead_zones: Vec<Rect>,

    /// Uplink fault model between the dead reckoners and the server's
    /// input queue. `None` is the historical perfect channel (and takes
    /// the exact code path the seed runs always took); `Some` routes
    /// every policy lane's updates through a
    /// [`FaultyChannel`](lira_server::channel::FaultyChannel) seeded from
    /// the lane-RNG rule (`seed + 2000 + lane index`).
    pub faults: Option<FaultProfile>,

    /// Master seed (traffic, queries, and drop decisions derive from it).
    pub seed: u64,
}

impl Default for Scenario {
    /// A medium scenario: ¼ of the paper's area, paper-like parameters,
    /// sized to run a full policy comparison in seconds.
    fn default() -> Self {
        Scenario {
            space_side: 7_071.0, // ~50 km²
            road_spacing: 250.0,
            arterial_period: 4,
            expressway_period: 16,
            hotspots: 5,
            num_cars: 2_000,
            query_distribution: QueryDistribution::Proportional,
            query_ratio: 0.01,
            query_side: 1_000.0,
            num_regions: 100,
            alpha: LiraConfig::alpha_for(100, 10.0),
            throttle: 0.5,
            delta_min: 5.0,
            delta_max: 100.0,
            increment: 1.0,
            fairness: 50.0,
            use_speed_factor: true,
            calibrate_model: false,
            warmup_s: 120.0,
            duration_s: 300.0,
            dt: 1.0,
            eval_period_s: 15.0,
            adapt_period_s: 300.0,
            phases: Vec::new(),
            fleet: Vec::new(),
            dead_zones: Vec::new(),
            faults: None,
            seed: 17,
        }
    }
}

impl Scenario {
    /// A small, fast scenario for unit/integration tests (~2 km², a few
    /// hundred cars, tens of seconds of simulated time).
    pub fn small(seed: u64) -> Self {
        Scenario {
            space_side: 2_000.0,
            road_spacing: 200.0,
            arterial_period: 3,
            expressway_period: 9,
            hotspots: 3,
            num_cars: 250,
            query_ratio: 0.04,
            query_side: 400.0,
            num_regions: 13,
            alpha: 32,
            warmup_s: 30.0,
            duration_s: 120.0,
            eval_period_s: 10.0,
            adapt_period_s: 120.0,
            seed,
            ..Scenario::default()
        }
    }

    /// The paper's full Table 2 setup: ~200 km², `l = 250`, `α = 128`,
    /// 10 000 nodes, one hour of trace.
    pub fn paper(seed: u64) -> Self {
        Scenario {
            space_side: 14_142.0,
            num_cars: 10_000,
            num_regions: 250,
            alpha: 128,
            warmup_s: 300.0,
            duration_s: 3_600.0,
            adapt_period_s: 600.0,
            seed,
            ..Scenario::default()
        }
    }

    /// The monitored space.
    pub fn bounds(&self) -> Rect {
        Rect::from_coords(0.0, 0.0, self.space_side, self.space_side)
    }

    /// The LIRA configuration implied by this scenario.
    pub fn lira_config(&self) -> LiraConfig {
        LiraConfig {
            bounds: self.bounds(),
            num_regions: self.num_regions,
            alpha: self.alpha,
            throttle: self.throttle,
            delta_min: self.delta_min,
            delta_max: self.delta_max,
            increment: self.increment,
            fairness: self.fairness,
            use_speed_factor: self.use_speed_factor,
        }
    }

    /// Sets the number of shedding regions and re-derives `α` with the
    /// paper's `x = 10` rule.
    pub fn with_regions(mut self, l: usize) -> Self {
        self.num_regions = l;
        self.alpha = LiraConfig::alpha_for(l, 10.0);
        self
    }

    /// Routes the uplink through a faulty channel. The profile is
    /// validated here so a bad sweep parameter fails loudly at scenario
    /// construction, not mid-run inside a lane thread.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        profile.validate().expect("valid fault profile");
        self.faults = Some(profile);
        self
    }

    /// The demand surface the fleet spawns under: phase 0 when a phase
    /// schedule is set, the historical seed-derived random hotspots
    /// otherwise.
    pub fn base_demand(&self) -> TrafficDemand {
        match self.phases.first() {
            Some(p) => p.demand(),
            None => TrafficDemand::random_hotspots(&self.bounds(), self.hotspots, self.seed),
        }
    }

    /// The fleet speed class covering car `id`, by cumulative-fraction
    /// stripes over `num_cars`. `None` on a homogeneous fleet.
    pub(crate) fn fleet_class_of(&self, id: u32) -> Option<&SpeedClass> {
        if self.fleet.is_empty() {
            return None;
        }
        let n = self.num_cars as f64;
        let mut cum = 0.0;
        for class in &self.fleet {
            cum += class.fraction;
            if (id as f64) < (cum * n).floor() {
                return Some(class);
            }
        }
        // Rounding remainder: the last class absorbs it.
        self.fleet.last()
    }

    /// Per-node speed scale for the whole fleet, or `None` when
    /// homogeneous (so callers can skip the work entirely).
    pub fn fleet_speed_scales(&self) -> Option<Vec<f64>> {
        if self.fleet.is_empty() {
            return None;
        }
        Some(
            (0..self.num_cars as u32)
                .map(|id| self.fleet_class_of(id).map_or(1.0, |c| c.speed_scale))
                .collect(),
        )
    }

    /// Per-node `Δ` caps, or `None` when no class caps anything (the
    /// common case — the per-update `min` is then skipped).
    pub fn fleet_delta_caps(&self) -> Option<Vec<f64>> {
        if self.fleet.iter().all(|c| c.delta_cap.is_infinite()) {
            return None;
        }
        Some(
            (0..self.num_cars as u32)
                .map(|id| {
                    self.fleet_class_of(id)
                        .map_or(f64::INFINITY, |c| c.delta_cap)
                })
                .collect(),
        )
    }

    /// Validates the car count (at least one), the run's timing (every
    /// period finite and positive, the warmup finite and non-negative — a
    /// run that would never end or never measure is refused) and the
    /// catalog-facing extensions (phases, fleet, dead zones). The base
    /// parameters are covered by [`LiraConfig::validate`] via
    /// [`Self::lira_config`].
    pub fn validate(&self) -> Result<()> {
        if self.num_cars == 0 {
            return Err(LiraError::InvalidConfig(
                "num_cars must be at least 1".into(),
            ));
        }
        for (name, value) in [
            ("dt", self.dt),
            ("duration_s", self.duration_s),
            ("eval_period_s", self.eval_period_s),
            ("adapt_period_s", self.adapt_period_s),
        ] {
            finite_positive(name, value).map_err(LiraError::InvalidConfig)?;
        }
        if !(self.warmup_s.is_finite() && self.warmup_s >= 0.0) {
            return Err(LiraError::InvalidConfig(format!(
                "warmup_s must be finite and non-negative, got {}",
                self.warmup_s
            )));
        }
        if let Some(first) = self.phases.first() {
            if first.start_s != 0.0 {
                return Err(LiraError::InvalidConfig(format!(
                    "first demand phase must start at 0, got {}",
                    first.start_s
                )));
            }
        }
        for pair in self.phases.windows(2) {
            if pair[1].start_s <= pair[0].start_s {
                return Err(LiraError::InvalidConfig(format!(
                    "demand phases must be strictly ordered: {} then {}",
                    pair[0].start_s, pair[1].start_s
                )));
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            if !p.start_s.is_finite() || p.start_s < 0.0 {
                return Err(LiraError::InvalidConfig(format!(
                    "phase {i} start {} must be finite and non-negative",
                    p.start_s
                )));
            }
            if p.uniform_weight <= 0.0 && p.hotspots.is_empty() {
                return Err(LiraError::InvalidConfig(format!(
                    "phase {i} has neither hotspots nor uniform background"
                )));
            }
        }
        if !self.fleet.is_empty() {
            let total: f64 = self.fleet.iter().map(|c| c.fraction).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(LiraError::InvalidConfig(format!(
                    "fleet fractions sum to {total}, expected 1"
                )));
            }
            for c in &self.fleet {
                if !(c.fraction > 0.0 && c.speed_scale > 0.0 && c.speed_scale.is_finite()) {
                    return Err(LiraError::InvalidConfig(format!(
                        "speed class {:?} needs positive fraction and finite positive scale",
                        c.name
                    )));
                }
                if c.delta_cap.is_nan() || c.delta_cap < self.delta_min {
                    return Err(LiraError::InvalidConfig(format!(
                        "speed class {:?} caps Δ at {} below Δ⊢ = {}",
                        c.name, c.delta_cap, self.delta_min
                    )));
                }
            }
        }
        for z in &self.dead_zones {
            let finite = z.min.x.is_finite()
                && z.min.y.is_finite()
                && z.max.x.is_finite()
                && z.max.y.is_finite();
            if !finite || z.width() <= 0.0 || z.height() <= 0.0 {
                return Err(LiraError::InvalidConfig(format!(
                    "dead zone {z:?} must be finite with positive area"
                )));
            }
        }
        Ok(())
    }
}

/// Replays a scenario's [`DemandPhase`] schedule against a running
/// [`TrafficSimulator`]: call [`apply_due`](Self::apply_due) immediately
/// before every `sim.step(dt)` (warmup ticks included) and each phase
/// switches exactly once, at the first tick whose start time has reached
/// the phase's `start_s`. Phase 0 is considered applied at construction
/// (the fleet spawned under it).
#[derive(Debug, Clone)]
pub struct PhaseSchedule {
    pending: Vec<DemandPhase>,
    next: usize,
}

impl PhaseSchedule {
    /// The schedule of `sc`'s phases past the first (empty when the
    /// scenario has no phase schedule at all).
    pub fn new(sc: &Scenario) -> Self {
        PhaseSchedule {
            pending: sc.phases.iter().skip(1).cloned().collect(),
            next: 0,
        }
    }

    /// Applies every phase whose start time has arrived at the
    /// simulator's current clock. Deterministic: demand swaps consume no
    /// RNG draws, and rerouting runs on the simulator's own seeded RNG in
    /// car-id order.
    pub fn apply_due(&mut self, sim: &mut TrafficSimulator) {
        while let Some(phase) = self.pending.get(self.next) {
            if sim.time() + 1e-9 < phase.start_s {
                break;
            }
            sim.set_demand(&phase.demand());
            if phase.reroute {
                sim.reroute_all();
            }
            self.next += 1;
        }
    }

    /// Number of phase switches still pending.
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_core::geometry::Point;

    #[test]
    fn presets_validate() {
        for sc in [Scenario::default(), Scenario::small(1), Scenario::paper(1)] {
            sc.lira_config()
                .validate()
                .unwrap_or_else(|e| panic!("{sc:?}: {e}"));
            sc.validate().unwrap_or_else(|e| panic!("{sc:?}: {e}"));
            assert!(sc.warmup_s >= 0.0 && sc.duration_s > 0.0);
            assert!(sc.num_cars > 0);
        }
    }

    #[test]
    fn paper_preset_matches_table2() {
        let sc = Scenario::paper(0);
        assert_eq!(sc.num_regions, 250);
        assert_eq!(sc.alpha, 128);
        assert_eq!(sc.throttle, 0.5);
        assert_eq!(sc.delta_min, 5.0);
        assert_eq!(sc.delta_max, 100.0);
        assert_eq!(sc.increment, 1.0);
        assert_eq!(sc.fairness, 50.0);
        assert_eq!(sc.query_ratio, 0.01);
        assert_eq!(sc.query_side, 1000.0);
        assert_eq!(sc.duration_s, 3600.0);
        // ~200 km².
        assert!((sc.space_side * sc.space_side / 1e6 - 200.0).abs() < 1.0);
    }

    #[test]
    fn with_regions_rederives_alpha() {
        let sc = Scenario::default().with_regions(250);
        assert_eq!(sc.alpha, 128);
        let sc = Scenario::default().with_regions(4000);
        assert_eq!(sc.alpha, 512);
    }

    fn one_phase(start_s: f64) -> DemandPhase {
        DemandPhase {
            start_s,
            hotspots: vec![Hotspot {
                center: Point::new(500.0, 500.0),
                sigma: 100.0,
                weight: 5.0,
            }],
            uniform_weight: 0.2,
            reroute: false,
        }
    }

    #[test]
    fn validate_rejects_bad_phase_schedules() {
        let mut sc = Scenario::small(1);
        sc.phases = vec![one_phase(10.0)];
        assert!(sc.validate().is_err(), "first phase must start at 0");
        sc.phases = vec![one_phase(0.0), one_phase(50.0), one_phase(50.0)];
        assert!(sc.validate().is_err(), "phases must be strictly ordered");
        sc.phases = vec![one_phase(0.0), one_phase(50.0)];
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_fleets() {
        let mut sc = Scenario::small(1);
        sc.fleet = vec![SpeedClass {
            name: "half",
            fraction: 0.5,
            speed_scale: 1.0,
            delta_cap: f64::INFINITY,
        }];
        assert!(sc.validate().is_err(), "fractions must sum to 1");
        sc.fleet = vec![SpeedClass {
            name: "capped-too-low",
            fraction: 1.0,
            speed_scale: 1.0,
            delta_cap: 1.0, // below Δ⊢ = 5
        }];
        assert!(sc.validate().is_err(), "caps below Δ⊢ are rejected");
        sc.fleet = vec![SpeedClass {
            name: "ok",
            fraction: 1.0,
            speed_scale: 1.0,
            delta_cap: 20.0,
        }];
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_timing() {
        let bad = [f64::INFINITY, f64::NAN, -5.0, 0.0];
        let periods: [fn(&mut Scenario) -> &mut f64; 4] = [
            |sc| &mut sc.dt,
            |sc| &mut sc.duration_s,
            |sc| &mut sc.eval_period_s,
            |sc| &mut sc.adapt_period_s,
        ];
        for field in periods {
            for value in bad {
                let mut sc = Scenario::small(1);
                *field(&mut sc) = value;
                assert!(sc.validate().is_err(), "period {value} accepted");
            }
        }
        for value in [f64::INFINITY, f64::NAN, -1.0] {
            let mut sc = Scenario::small(1);
            sc.warmup_s = value;
            assert!(sc.validate().is_err(), "warmup {value} accepted");
        }
        let mut sc = Scenario::small(1);
        sc.warmup_s = 0.0;
        assert!(sc.validate().is_ok(), "no warmup is a valid run");
        sc.num_cars = 0;
        assert!(sc.validate().is_err(), "an empty fleet accepted");
    }

    #[test]
    fn validate_rejects_bad_dead_zones() {
        let mut sc = Scenario::small(1);
        sc.dead_zones = vec![Rect::from_coords(10.0, 10.0, 10.0, 50.0)];
        assert!(sc.validate().is_err());
        sc.dead_zones = vec![Rect::from_coords(10.0, 10.0, 200.0, 200.0)];
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn fleet_stripes_partition_by_cumulative_fraction() {
        let mut sc = Scenario::small(1);
        sc.num_cars = 100;
        sc.fleet = vec![
            SpeedClass {
                name: "pedestrian",
                fraction: 0.3,
                speed_scale: 0.12,
                delta_cap: 20.0,
            },
            SpeedClass {
                name: "car",
                fraction: 0.5,
                speed_scale: 1.0,
                delta_cap: f64::INFINITY,
            },
            SpeedClass {
                name: "drone",
                fraction: 0.2,
                speed_scale: 2.0,
                delta_cap: f64::INFINITY,
            },
        ];
        sc.validate().unwrap();
        assert_eq!(sc.fleet_class_of(0).unwrap().name, "pedestrian");
        assert_eq!(sc.fleet_class_of(29).unwrap().name, "pedestrian");
        assert_eq!(sc.fleet_class_of(30).unwrap().name, "car");
        assert_eq!(sc.fleet_class_of(79).unwrap().name, "car");
        assert_eq!(sc.fleet_class_of(80).unwrap().name, "drone");
        assert_eq!(sc.fleet_class_of(99).unwrap().name, "drone");
        let scales = sc.fleet_speed_scales().unwrap();
        assert_eq!(scales.len(), 100);
        assert_eq!(scales[0], 0.12);
        assert_eq!(scales[50], 1.0);
        assert_eq!(scales[99], 2.0);
        let caps = sc.fleet_delta_caps().unwrap();
        assert_eq!(caps[0], 20.0);
        assert!(caps[50].is_infinite());
    }

    #[test]
    fn uncapped_fleet_yields_no_cap_vector() {
        let mut sc = Scenario::small(1);
        sc.fleet = vec![SpeedClass {
            name: "car",
            fraction: 1.0,
            speed_scale: 1.0,
            delta_cap: f64::INFINITY,
        }];
        assert!(sc.fleet_delta_caps().is_none());
        assert!(sc.fleet_speed_scales().is_some());
    }

    #[test]
    fn base_demand_prefers_phase_zero() {
        let mut sc = Scenario::small(1);
        let unphased = sc.base_demand();
        assert_eq!(unphased.hotspots().len(), sc.hotspots);
        sc.phases = vec![one_phase(0.0)];
        let phased = sc.base_demand();
        assert_eq!(phased.hotspots().len(), 1);
        assert_eq!(phased.hotspots()[0].center, Point::new(500.0, 500.0));
    }

    #[test]
    fn phase_schedule_switches_once_at_the_right_tick() {
        use lira_mobility::generator::{generate_network, NetworkConfig};
        use lira_mobility::simulator::TrafficConfig;
        let mut sc = Scenario::small(4);
        sc.phases = vec![one_phase(0.0), {
            let mut p = one_phase(10.0);
            p.reroute = true;
            p
        }];
        let net = generate_network(&NetworkConfig::small(4));
        let mut sim = TrafficSimulator::new(
            net,
            &sc.base_demand(),
            TrafficConfig {
                num_cars: 20,
                seed: 4,
            },
        );
        let mut schedule = PhaseSchedule::new(&sc);
        assert_eq!(schedule.remaining(), 1);
        for _ in 0..9 {
            schedule.apply_due(&mut sim);
            sim.step(1.0);
        }
        assert_eq!(schedule.remaining(), 1, "not due until t = 10");
        schedule.apply_due(&mut sim); // sim.time() == 9 → still not due
        assert_eq!(schedule.remaining(), 1);
        sim.step(1.0); // t = 10
        schedule.apply_due(&mut sim);
        assert_eq!(schedule.remaining(), 0, "switched exactly at t = 10");
    }
}
