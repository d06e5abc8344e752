//! Linear motion modeling / dead reckoning (Section 2.1).
//!
//! Mobile nodes do not report every position sample. Each node remembers
//! the last motion model it reported (position + velocity at a reference
//! time). The server predicts the node's position by extrapolating that
//! model; the node sends a new report only when the *actual* position
//! deviates from the prediction by more than its inaccuracy threshold `Δ` —
//! LIRA's control knob.

use lira_core::geometry::Point;

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

#[cfg(test)]
mod tests {
    use super::*;

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
