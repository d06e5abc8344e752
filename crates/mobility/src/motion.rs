//! Linear motion modeling / dead reckoning (Section 2.1).
//!
//! Mobile nodes do not report every position sample. Each node remembers
//! the last motion model it reported (position + velocity at a reference
//! time). The server predicts the node's position by extrapolating that
//! model; the node sends a new report only when the *actual* position
//! deviates from the prediction by more than its inaccuracy threshold `Δ` —
//! LIRA's control knob.
//!
//! [`count_reports`] runs dead reckoning over simulated traffic at several
//! thresholds in one pass — exactly how Figure 1 of the paper measures the
//! update-reduction function — and [`calibrate_reduction`] turns those
//! counts into a [`ReductionModel`].

use lira_core::geometry::Point;
use lira_core::reduction::ReductionModel;

use crate::simulator::TrafficSimulator;

/// A piece-wise linear motion model: position + velocity at a reference time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Reference time (seconds).
    pub time: f64,
    /// Position at the reference time.
    pub origin: Point,
    /// Velocity at the reference time (m/s).
    pub velocity: (f64, f64),
}

impl LinearModel {
    /// Predicted position at time `t` (extrapolation is linear; `t` may be
    /// before the reference time, which extrapolates backwards).
    #[inline]
    pub fn predict(&self, t: f64) -> Point {
        let dt = t - self.time;
        Point::new(
            self.origin.x + self.velocity.0 * dt,
            self.origin.y + self.velocity.1 * dt,
        )
    }
}

/// A position report sent to the CQ server: new motion-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionReport {
    /// Reporting node.
    pub node: u32,
    /// The new model.
    pub model: LinearModel,
}

/// The mobile-node-side dead-reckoning reporter for one node.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadReckoner {
    last: Option<LinearModel>,
    reports: u64,
}

impl DeadReckoner {
    /// Creates a reporter with no reported model yet (the first observation
    /// always reports).
    pub fn new() -> Self {
        DeadReckoner::default()
    }

    /// Observes the node's true state at time `t` under inaccuracy
    /// threshold `delta`. Returns a report iff the deviation between the
    /// predicted and actual position exceeds `delta` (or nothing was ever
    /// reported).
    pub fn observe(
        &mut self,
        node: u32,
        t: f64,
        position: Point,
        velocity: (f64, f64),
        delta: f64,
    ) -> Option<MotionReport> {
        let must_report = match &self.last {
            None => true,
            Some(model) => model.predict(t).distance(&position) > delta,
        };
        if must_report {
            let model = LinearModel {
                time: t,
                origin: position,
                velocity,
            };
            self.last = Some(model);
            self.reports += 1;
            Some(MotionReport { node, model })
        } else {
            None
        }
    }

    /// Total number of reports sent.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Forgets the reported model (e.g. after a hand-off reset).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// Steps `sim` for `duration_s` seconds at `dt`-second ticks and counts the
/// reports one [`DeadReckoner`] per car sends under each threshold in
/// `deltas`, all in one pass. The starting state is tick 0 and tick `k` is
/// observed at time `k·dt`; states are rounded through `f32`, the precision
/// the recorded Figure 1 and every calibrated model were measured at. Each
/// car's first report is not counted, so the counts reflect the threshold's
/// effect only.
pub fn count_reports(
    sim: &mut TrafficSimulator,
    duration_s: f64,
    dt: f64,
    deltas: &[f64],
) -> Vec<u64> {
    assert!(dt > 0.0 && duration_s >= dt);
    let ticks = (duration_s / dt).round() as usize + 1;
    let per_car = deltas.len();
    let mut reckoners = vec![DeadReckoner::new(); sim.cars().len() * per_car];
    for tick in 0..ticks {
        if tick > 0 {
            sim.step(dt);
        }
        let t = tick as f64 * dt;
        for (node, car) in sim.cars().iter().enumerate() {
            let (p, v) = (car.position(), car.velocity());
            let position = Point::new(p.x as f32 as f64, p.y as f32 as f64);
            let velocity = (v.0 as f32 as f64, v.1 as f32 as f64);
            let bank = &mut reckoners[node * per_car..(node + 1) * per_car];
            for (reckoner, &delta) in bank.iter_mut().zip(deltas) {
                reckoner.observe(node as u32, t, position, velocity, delta);
            }
        }
    }
    let mut counts = vec![0u64; per_car];
    for (i, reckoner) in reckoners.iter().enumerate() {
        counts[i % per_car] += reckoner.reports() - 1;
    }
    counts
}

/// Calibrates a piecewise-linear [`ReductionModel`] from [`count_reports`]
/// at `num_samples` thresholds spread over `[Δ⊢, Δ⊣]` (geometric spacing:
/// the curve bends hardest near `Δ⊢`).
pub fn calibrate_reduction(
    sim: &mut TrafficSimulator,
    duration_s: f64,
    dt: f64,
    delta_min: f64,
    delta_max: f64,
    kappa: usize,
    num_samples: usize,
) -> lira_core::error::Result<ReductionModel> {
    assert!(num_samples >= 2);
    let ratio = delta_max / delta_min;
    let deltas: Vec<f64> = (0..num_samples)
        .map(|i| delta_min * ratio.powf(i as f64 / (num_samples - 1) as f64))
        .collect();
    let counts = count_reports(sim, duration_s, dt, &deltas);
    let samples: Vec<(f64, f64)> = deltas
        .iter()
        .zip(counts)
        .map(|(&d, c)| (d, c as f64))
        .collect();
    ReductionModel::from_samples(delta_min, delta_max, kappa, &samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, NetworkConfig};
    use crate::simulator::TrafficConfig;
    use crate::traffic::TrafficDemand;
    use lira_core::geometry::Rect;

    /// 40 cars on `network`'s roads, metered for 120 s at 1 Hz.
    fn world(network: NetworkConfig) -> TrafficSimulator {
        let net = generate_network(&network);
        let demand = TrafficDemand::random_hotspots(net.bounds(), 2, 31);
        let cfg = TrafficConfig {
            num_cars: 40,
            seed: 31,
        };
        TrafficSimulator::new(net, &demand, cfg)
    }

    fn small_world() -> TrafficSimulator {
        world(NetworkConfig::small(31))
    }

    #[test]
    fn meter_reproduces_the_stored_trace_replay() {
        // Captured from the stored-trace replay this meter replaced: a
        // change to tick timing, rounding or first-report counting moves
        // them.
        let counts = count_reports(
            &mut small_world(),
            120.0,
            1.0,
            &[5.0, 10.0, 25.0, 50.0, 100.0],
        );
        assert_eq!(counts, [1108, 743, 477, 350, 269]);
        let model = calibrate_reduction(&mut small_world(), 120.0, 1.0, 5.0, 100.0, 19, 8).unwrap();
        let bits: Vec<u64> = model.knots().iter().map(|k| k.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3ff0000000000000,
                0x3fe627f62a0bc4df,
                0x3fe1adb56d45b6ea,
                0x3fde64db05578814,
                0x3fdb28c552d212af,
                0x3fd8db7cd5e63181,
                0x3fd7a59dcb1eee1e,
                0x3fd66fbec057aabc,
                0x3fd57698d4863477,
                0x3fd4b9a498d9e591,
                0x3fd3fcb05d2d96aa,
                0x3fd33fbc218147c4,
                0x3fd282c7e5d4f8de,
                0x3fd2138442c2dee2,
                0x3fd1a736eb8afabd,
                0x3fd13ae994531698,
                0x3fd0ce9c3d1b3272,
                0x3fd0624ee5e34e4d,
                0x3fcfec031d56d44e,
                0x3fcf13686ee70c04,
            ]
        );
        // As wide as the paper's space, `f32` rounding flips reports at the
        // finest thresholds; the small world is too narrow to show it.
        let wide = NetworkConfig {
            bounds: Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0),
            spacing: 1000.0,
            ..NetworkConfig::small(31)
        };
        let counts = count_reports(&mut world(wide), 120.0, 1.0, &[5.0, 7.5, 10.0]);
        assert_eq!(counts, [878, 646, 525]);
    }

    /// Dead reckoning need not report less at every wider Δ (a wider
    /// threshold moves the instants a car reports at, and so what it
    /// reports after), so the counts are pinned exactly; the finest
    /// threshold reports and the coarsest sheds.
    #[test]
    fn update_counts_per_delta_are_pinned() {
        let counts = count_reports(
            &mut small_world(),
            120.0,
            1.0,
            &[5.0, 10.0, 25.0, 50.0, 100.0],
        );
        assert_eq!(counts, [1108, 743, 477, 350, 269]);
        assert!(counts[0] > 0, "no updates at the finest threshold");
        assert!(
            counts[4] < counts[0],
            "coarse threshold did not shed: {counts:?}"
        );
    }

    #[test]
    fn calibrated_model_is_valid_and_matches_measurements() {
        let model = calibrate_reduction(&mut small_world(), 120.0, 1.0, 5.0, 100.0, 19, 8).unwrap();
        assert!((model.f(5.0) - 1.0).abs() < 1e-9);
        assert!(model.f(100.0) < 1.0);
        // The model approximates the directly measured ratio at a midpoint.
        let counts = count_reports(&mut small_world(), 120.0, 1.0, &[5.0, 50.0]);
        let measured = counts[1] as f64 / counts[0] as f64;
        assert!(
            (model.f(50.0) - measured).abs() < 0.15,
            "model {} vs measured {measured}",
            model.f(50.0)
        );
    }

    #[test]
    fn linear_prediction() {
        let m = LinearModel {
            time: 10.0,
            origin: Point::new(100.0, 200.0),
            velocity: (2.0, -1.0),
        };
        assert_eq!(m.predict(10.0), Point::new(100.0, 200.0));
        assert_eq!(m.predict(15.0), Point::new(110.0, 195.0));
        assert_eq!(m.predict(8.0), Point::new(96.0, 202.0));
    }

    #[test]
    fn first_observation_always_reports() {
        let mut r = DeadReckoner::new();
        let rep = r.observe(3, 0.0, Point::new(1.0, 1.0), (1.0, 0.0), 100.0);
        assert!(rep.is_some());
        assert_eq!(rep.unwrap().node, 3);
        assert_eq!(r.reports(), 1);
    }

    #[test]
    fn no_report_while_prediction_holds() {
        let mut r = DeadReckoner::new();
        r.observe(0, 0.0, Point::new(0.0, 0.0), (10.0, 0.0), 5.0);
        // Moving exactly as predicted: never report.
        for t in 1..=60 {
            let p = Point::new(10.0 * t as f64, 0.0);
            assert!(
                r.observe(0, t as f64, p, (10.0, 0.0), 5.0).is_none(),
                "t = {t}"
            );
        }
        assert_eq!(r.reports(), 1);
    }

    #[test]
    fn reports_on_deviation_beyond_delta() {
        let mut r = DeadReckoner::new();
        r.observe(0, 0.0, Point::new(0.0, 0.0), (10.0, 0.0), 5.0);
        // Deviation of exactly delta: not yet (> is strict).
        assert!(r
            .observe(0, 1.0, Point::new(10.0, 5.0), (10.0, 0.0), 5.0)
            .is_none());
        // Beyond delta: report, model resets to the actual state.
        let rep = r.observe(0, 2.0, Point::new(20.0, 5.1), (10.0, 0.0), 5.0);
        assert!(rep.is_some());
        let m = rep.unwrap().model;
        assert_eq!(m.origin, Point::new(20.0, 5.1));
        assert_eq!(m.time, 2.0);
    }

    #[test]
    fn smaller_delta_reports_at_least_as_often() {
        // Shared synthetic trajectory: a sine wander around a straight line.
        let traj: Vec<(f64, Point, (f64, f64))> = (0..600)
            .map(|i| {
                let t = i as f64;
                let y = 30.0 * (t / 40.0).sin();
                let vy = 30.0 / 40.0 * (t / 40.0).cos();
                (t, Point::new(10.0 * t, y), (10.0, vy))
            })
            .collect();
        let mut counts = Vec::new();
        for delta in [2.0, 5.0, 10.0, 25.0, 60.0] {
            let mut r = DeadReckoner::new();
            for &(t, p, v) in &traj {
                r.observe(0, t, p, v, delta);
            }
            counts.push(r.reports());
        }
        for w in counts.windows(2) {
            assert!(
                w[1] <= w[0],
                "update counts must be non-increasing in delta: {counts:?}"
            );
        }
        assert!(counts[0] > counts[counts.len() - 1], "{counts:?}");
    }

    #[test]
    fn reset_forces_next_report() {
        let mut r = DeadReckoner::new();
        r.observe(0, 0.0, Point::new(0.0, 0.0), (1.0, 0.0), 50.0);
        assert!(r
            .observe(0, 1.0, Point::new(1.0, 0.0), (1.0, 0.0), 50.0)
            .is_none());
        r.reset();
        assert!(r.last.is_none());
        assert!(r
            .observe(0, 2.0, Point::new(2.0, 0.0), (1.0, 0.0), 50.0)
            .is_some());
    }
}
