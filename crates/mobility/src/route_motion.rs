//! Route-based motion modeling — the "more advanced models" the paper
//! points to (Civilis, Jensen, Pakalnis \[2\]): instead of a straight-line
//! extrapolation, the node shares its remaining *route* (a polyline over
//! the road network) and a speed; both sides predict the position by
//! advancing along that polyline.
//!
//! On road networks this cuts updates dramatically versus the linear model
//! — prediction follows turns instead of breaking at every intersection —
//! which is exactly why the paper treats the motion model as a pluggable
//! actuator: LIRA's `Δ` knob throttles *any* of them. The
//! `exp_motion_models` experiment quantifies the difference.

use lira_core::geometry::Point;

/// A route-based motion model: advance along `waypoints` at `speed`,
/// parking at the final waypoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteModel {
    /// Reference time of the report (seconds).
    pub time: f64,
    /// The remaining route polyline, starting at the reported position.
    pub waypoints: Vec<Point>,
    /// Assumed travel speed along the polyline (m/s).
    pub speed: f64,
    /// Cumulative arc length at each waypoint (derived).
    cumulative: Vec<f64>,
}

impl RouteModel {
    /// Builds a model from a polyline and speed.
    ///
    /// # Panics
    /// Panics if `waypoints` is empty or `speed` is negative/non-finite.
    pub fn new(time: f64, waypoints: Vec<Point>, speed: f64) -> Self {
        assert!(!waypoints.is_empty(), "route needs at least one waypoint");
        assert!(
            speed.is_finite() && speed >= 0.0,
            "speed must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(waypoints.len());
        let mut total = 0.0;
        cumulative.push(0.0);
        for w in waypoints.windows(2) {
            total += w[0].distance(&w[1]);
            cumulative.push(total);
        }
        RouteModel {
            time,
            waypoints,
            speed,
            cumulative,
        }
    }

    /// Total length of the remaining route, meters.
    pub(crate) fn route_length(&self) -> f64 {
        *self.cumulative.last().expect("non-empty route")
    }

    /// Predicted position at time `t`: `speed·(t − time)` meters along the
    /// polyline, clamped to its endpoints.
    pub fn predict(&self, t: f64) -> Point {
        let distance = (self.speed * (t - self.time)).clamp(0.0, self.route_length());
        let idx = self
            .cumulative
            .partition_point(|&c| c <= distance)
            .min(self.waypoints.len() - 1);
        if idx == 0 {
            return self.waypoints[0];
        }
        let (a, b) = (self.waypoints[idx - 1], self.waypoints[idx]);
        let seg_len = self.cumulative[idx] - self.cumulative[idx - 1];
        if seg_len <= 0.0 {
            return b;
        }
        let frac = (distance - self.cumulative[idx - 1]) / seg_len;
        Point::new(a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac)
    }
}

/// A route-model report.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// Reporting node.
    pub node: u32,
    /// The new model.
    pub model: RouteModel,
}

/// The node-side dead reckoner for route-based models: reports when the
/// route prediction deviates from the actual position by more than `Δ`.
#[derive(Debug, Clone, Default)]
pub struct RouteReckoner {
    last: Option<RouteModel>,
    reports: u64,
}

impl RouteReckoner {
    /// Creates a reckoner with no reported model (first observation reports).
    pub fn new() -> Self {
        RouteReckoner::default()
    }

    /// Observes the node's state. `route` is the remaining trip polyline
    /// starting at the actual position; `speed` the current scalar speed.
    /// Returns a report iff the deviation exceeds `delta`.
    pub fn observe(
        &mut self,
        node: u32,
        t: f64,
        position: Point,
        route: impl FnOnce() -> Vec<Point>,
        speed: f64,
        delta: f64,
    ) -> Option<RouteReport> {
        let must_report = match &self.last {
            None => true,
            Some(model) => model.predict(t).distance(&position) > delta,
        };
        if must_report {
            let model = RouteModel::new(t, route(), speed);
            self.last = Some(model.clone());
            self.reports += 1;
            Some(RouteReport { node, model })
        } else {
            None
        }
    }

    /// The last reported model, if any. `pub` for the crate's
    /// `tests/determinism.rs`, its one caller.
    pub fn last_model(&self) -> Option<&RouteModel> {
        self.last.as_ref()
    }

    /// Total reports sent.
    pub fn reports(&self) -> u64 {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_route() -> RouteModel {
        // An L-shaped route: 100 m east, then 100 m north, at 10 m/s.
        RouteModel::new(
            0.0,
            vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 100.0),
            ],
            10.0,
        )
    }

    #[test]
    fn predicts_along_polyline() {
        let m = l_route();
        assert_eq!(m.route_length(), 200.0);
        assert_eq!(m.predict(0.0), Point::new(0.0, 0.0));
        assert_eq!(m.predict(5.0), Point::new(50.0, 0.0));
        // Past the corner: prediction turns with the road.
        assert_eq!(m.predict(15.0), Point::new(100.0, 50.0));
        // Past the end: parked at the destination.
        assert_eq!(m.predict(100.0), Point::new(100.0, 100.0));
        // Before the report: clamped at the start.
        assert_eq!(m.predict(-5.0), Point::new(0.0, 0.0));
    }

    #[test]
    fn single_waypoint_route_is_stationary() {
        let m = RouteModel::new(3.0, vec![Point::new(7.0, 7.0)], 12.0);
        assert_eq!(m.route_length(), 0.0);
        assert_eq!(m.predict(100.0), Point::new(7.0, 7.0));
    }

    #[test]
    fn reckoner_reports_only_on_deviation() {
        let mut r = RouteReckoner::new();
        let route = || {
            vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 100.0),
            ]
        };
        assert!(r
            .observe(0, 0.0, Point::new(0.0, 0.0), route, 10.0, 20.0)
            .is_some());
        // Following the route exactly — including around the corner — never
        // triggers a report (the linear model would report at the turn).
        for t in 1..=19 {
            let d = 10.0 * t as f64;
            let pos = if d <= 100.0 {
                Point::new(d, 0.0)
            } else {
                Point::new(100.0, d - 100.0)
            };
            assert!(
                r.observe(
                    0,
                    t as f64,
                    pos,
                    || unreachable!("no report expected"),
                    10.0,
                    20.0
                )
                .is_none(),
                "t = {t}"
            );
        }
        assert_eq!(r.reports(), 1);
        // A detour beyond delta triggers a fresh report.
        let rep = r.observe(
            0,
            20.0,
            Point::new(50.0, 50.0),
            || vec![Point::new(50.0, 50.0)],
            0.0,
            20.0,
        );
        assert!(rep.is_some());
        assert_eq!(r.reports(), 2);
    }

    #[test]
    fn duplicate_waypoints_are_skipped() {
        let m = RouteModel::new(
            0.0,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0), // zero-length segment
                Point::new(10.0, 0.0),
            ],
            1.0,
        );
        assert_eq!(m.route_length(), 10.0);
        assert_eq!(m.predict(5.0), Point::new(5.0, 0.0));
        assert_eq!(m.predict(0.0), Point::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn rejects_empty_route() {
        RouteModel::new(0.0, vec![], 1.0);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn rejects_negative_speed() {
        RouteModel::new(0.0, vec![Point::new(0.0, 0.0)], -1.0);
    }
}
