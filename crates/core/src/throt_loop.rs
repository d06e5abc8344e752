//! THROTLOOP (Section 3.4): the feedback controller that adapts the
//! throttle fraction `z` to the server's load.
//!
//! The controller observes the position-update input queue. With arrival
//! rate `λ`, service rate `μ`, and utilization `ρ = λ/μ`, an M/M/1 queue
//! keeps its average length within a maximum size `B` when
//! `ρ = 1 − 1/B`. THROTLOOP therefore periodically computes
//! `u = ρ / (1 − 1/B)` and updates `z ← min(1, z/u)`: utilization above the
//! sustainable level shrinks the budget, spare capacity grows it back.
//!
//! The controller degrades gracefully under measurement faults: the
//! multiplicative step is clamped (one window can at most halve or double
//! `z`), so rate estimates that collapse to zero or blow up to infinity
//! during a base-station outage can neither slam `z` to the floor in one
//! step nor poison it with NaN/∞.

use crate::error::{LiraError, Result};

/// Largest per-window step factor: one observation may at most halve
/// (`u = MAX_STEP`) or double (`u = 1/MAX_STEP`) the throttle fraction.
/// Keeps the loop stable when λ/μ estimates degenerate during outages.
const MAX_STEP: f64 = 2.0;

/// The lower bound on `z`: a zero throttle fraction would demand zero
/// updates, which no threshold in `[Δ⊢, Δ⊣]` attains.
const FLOOR: f64 = 1e-3;

/// The throttle-fraction controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrotLoop {
    z: f64,
    queue_capacity: f64,
    iterations: u64,
    clamped_steps: u64,
    held_steps: u64,
    overload_steps: u64,
}

/// A single observation window of the input queue.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueObservation {
    /// Update arrival rate `λ` over the window (updates/sec).
    pub arrival_rate: f64,
    /// Update service rate `μ` the server can sustain (updates/sec).
    pub service_rate: f64,
}

/// How THROTLOOP classified one window's step; the first that applies,
/// in the order overload, held, clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// `z` followed the observed utilisation (an idle window resets it
    /// to 1).
    Tracked,
    /// The raw step factor fell outside `[1/2, 2]` and was clamped.
    Clamped,
    /// No signal (a NaN rate, or ∞/∞): `z` held.
    Held,
    /// No service capacity (`µ ≤ 0`) while updates arrived: `z` stepped
    /// down at the clamp.
    Overload,
}

/// What one closed window decided, and the books it was decided on: the
/// one record of a THROTLOOP step, built by the input-queue governor
/// (`lira_server::governor::Governor::close_window`) and kept by both
/// control loops and their telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDecision {
    /// The caller's clock at the close.
    pub time: f64,
    /// Observed arrival rate λ (updates/s): the window's arrivals divided
    /// by `window_s`.
    pub arrival_rate: f64,
    /// Throttle fraction in force after the window.
    pub throttle: f64,
    /// Queued updates at the close, before any service the caller does
    /// after it.
    pub queue_len: usize,
    /// Updates tail-dropped during the window.
    pub dropped: u64,
    /// The declared service rate µ (updates/s).
    pub service_rate: f64,
    /// Throttle fraction in force before the window.
    pub throttle_before: f64,
    /// THROTLOOP's step classification.
    pub step: StepClass,
    /// Whether the caller should re-plan now: this is every
    /// `adapt_every_windows`-th window, and updates were admitted since
    /// the last re-plan.
    pub adapt_due: bool,
}

impl ThrotLoop {
    /// Creates a controller for an input queue of maximum size `B ≥ 2`.
    /// `z` starts at 1 (no shedding).
    pub fn new(queue_capacity: usize) -> Result<Self> {
        if queue_capacity < 2 {
            return Err(LiraError::InvalidConfig(
                "queue capacity B must be at least 2".into(),
            ));
        }
        Ok(ThrotLoop {
            z: 1.0,
            queue_capacity: queue_capacity as f64,
            iterations: 0,
            clamped_steps: 0,
            held_steps: 0,
            overload_steps: 0,
        })
    }

    /// The current throttle fraction `z`.
    #[inline]
    pub fn throttle(&self) -> f64 {
        self.z
    }

    /// Number of adaptation iterations performed.
    #[inline]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Windows whose raw step factor `u` fell outside `[1/2, 2]` and was
    /// clamped (includes every dead-server window).
    #[inline]
    pub fn clamped_steps(&self) -> u64 {
        self.clamped_steps
    }

    /// Windows that carried no signal (NaN λ or μ, or ∞/∞) and left `z`
    /// unchanged — the NaN/outage holds.
    #[inline]
    pub fn held_steps(&self) -> u64 {
        self.held_steps
    }

    /// Windows with no observed service capacity (`μ ≤ 0` while updates
    /// were arriving): full-overload steps at the clamp.
    #[inline]
    pub fn overload_steps(&self) -> u64 {
        self.overload_steps
    }

    /// The sustainable utilization level `ρ* = 1 − 1/B`.
    #[inline]
    pub(crate) fn target_utilization(&self) -> f64 {
        1.0 - 1.0 / self.queue_capacity
    }

    /// Performs one periodic adaptation step:
    /// `u ← ρ/(1 − B⁻¹)`, `z ← min(1, z/u)`, with `u` clamped to
    /// `[1/MAX_STEP, MAX_STEP]` and `z` clamped to `FLOOR`.
    ///
    /// Degenerate windows are handled explicitly: a NaN rate estimate
    /// (e.g. a measurement window torn apart by an outage) carries no
    /// signal and leaves `z` unchanged; a window with no observed service
    /// capacity (`μ ≤ 0`, dead server or outage) is full overload and
    /// steps `z` down at the cap. `z` is therefore always finite and in
    /// `[FLOOR, 1]`, whatever the observation.
    pub fn observe(&mut self, obs: QueueObservation) -> f64 {
        self.iterations += 1;
        if obs.arrival_rate.is_nan() || obs.service_rate.is_nan() {
            self.held_steps += 1;
            return self.z;
        }
        if obs.arrival_rate <= 0.0 {
            // Nothing arriving: the system is trivially underloaded.
            self.z = 1.0;
            return self.z;
        }
        let raw = if obs.service_rate <= 0.0 {
            // Full overload: step down at the cap (and count the clamp —
            // the true ρ is unbounded).
            self.overload_steps += 1;
            self.clamped_steps += 1;
            MAX_STEP
        } else {
            let rho = obs.arrival_rate / obs.service_rate;
            if rho.is_nan() {
                // ∞/∞: two blown-up estimates cancel into no signal.
                self.held_steps += 1;
                return self.z;
            }
            rho / self.target_utilization()
        };
        // The clamp both bounds the reaction speed and absorbs ρ = ∞
        // (λ = ∞, or μ underflowed): the division below stays finite.
        let u = raw.clamp(1.0 / MAX_STEP, MAX_STEP);
        if u != raw {
            self.clamped_steps += 1;
        }
        self.z = (self.z / u).clamp(FLOOR, 1.0);
        self.z
    }

    /// Resets the controller to its initial state (`z = 1`).
    pub fn reset(&mut self) {
        self.z = 1.0;
        self.iterations = 0;
        self.clamped_steps = 0;
        self.held_steps = 0;
        self.overload_steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(lambda: f64, mu: f64) -> QueueObservation {
        QueueObservation {
            arrival_rate: lambda,
            service_rate: mu,
        }
    }

    #[test]
    fn construction_validation() {
        assert!(ThrotLoop::new(1).is_err());
        assert!(ThrotLoop::new(2).is_ok());
    }

    #[test]
    fn starts_at_full_budget() {
        let t = ThrotLoop::new(100).unwrap();
        assert_eq!(t.throttle(), 1.0);
        assert_eq!(t.iterations(), 0);
    }

    #[test]
    fn target_utilization_formula() {
        let t = ThrotLoop::new(100).unwrap();
        assert!((t.target_utilization() - 0.99).abs() < 1e-12);
        let t = ThrotLoop::new(2).unwrap();
        assert_eq!(t.target_utilization(), 0.5);
    }

    #[test]
    fn overload_decreases_z_proportionally() {
        let mut t = ThrotLoop::new(100).unwrap();
        // Twice the sustainable load: z should halve (modulo the 0.99).
        let z = t.observe(obs(2.0 * 0.99, 1.0));
        assert!((z - 0.5).abs() < 1e-9, "got {z}");
        // Another identical window halves again.
        let z = t.observe(obs(2.0 * 0.99, 1.0));
        assert!((z - 0.25).abs() < 1e-9);
    }

    #[test]
    fn underload_recovers_z() {
        let mut t = ThrotLoop::new(100).unwrap();
        t.observe(obs(4.0 * 0.99, 1.0)); // clamped step -> 0.5
        t.observe(obs(2.0 * 0.99, 1.0)); // -> 0.25
                                         // Load drops to half the sustainable rate: z doubles.
        let z = t.observe(obs(0.5 * 0.99, 1.0));
        assert!((z - 0.5).abs() < 1e-9, "got {z}");
        // And is capped at 1.
        let z = t.observe(obs(0.1 * 0.99, 1.0));
        assert!((z - 1.0).abs() < 1e-9);
    }

    #[test]
    fn converges_when_shedding_scales_arrivals() {
        // Closed loop: arrivals are proportional to z (ideal shedder) with
        // an unshed demand 3x the service rate. Fixed point: z·3 = 0.99.
        let mut t = ThrotLoop::new(100).unwrap();
        let demand = 3.0;
        for _ in 0..30 {
            let lambda = t.throttle() * demand;
            t.observe(obs(lambda, 1.0));
        }
        assert!(
            (t.throttle() - 0.99 / demand).abs() < 1e-6,
            "z = {}",
            t.throttle()
        );
    }

    #[test]
    fn idle_system_restores_full_budget() {
        let mut t = ThrotLoop::new(100).unwrap();
        t.observe(obs(10.0, 1.0));
        assert!(t.throttle() < 1.0);
        t.observe(obs(0.0, 1.0));
        assert_eq!(t.throttle(), 1.0);
    }

    #[test]
    fn dead_server_halves_z() {
        let mut t = ThrotLoop::new(100).unwrap();
        let z = t.observe(obs(5.0, 0.0));
        assert!((z - 0.5).abs() < 1e-12);
    }

    #[test]
    fn floor_is_respected() {
        let mut t = ThrotLoop::new(100).unwrap();
        // Eleven halvings would take z below 1e-3.
        for _ in 0..20 {
            t.observe(obs(100.0, 1.0));
        }
        assert_eq!(t.throttle(), FLOOR);
    }

    #[test]
    fn step_factor_is_clamped_both_ways() {
        // A 100x overload window halves z instead of slamming it down...
        let mut t = ThrotLoop::new(100).unwrap();
        let z = t.observe(obs(100.0, 1.0));
        assert!((z - 0.5).abs() < 1e-12, "got {z}");
        // ...and a near-idle (but non-zero) window doubles it back.
        let z = t.observe(obs(1e-6, 1.0));
        assert!((z - 1.0).abs() < 1e-12, "got {z}");
    }

    #[test]
    fn z_recovers_after_outage() {
        // An outage collapses the μ estimate to zero for several windows;
        // z steps down at the clamp but stays above the floor, and once
        // service resumes with slack capacity z climbs back to 1.
        let mut t = ThrotLoop::new(100).unwrap();
        for _ in 0..4 {
            let z = t.observe(obs(50.0, 0.0));
            assert!(z.is_finite() && z >= 1e-3);
        }
        assert!(t.throttle() <= 0.0625 + 1e-12);
        let mut recovered = 0;
        while t.throttle() < 1.0 {
            t.observe(obs(0.2 * 0.99, 1.0));
            recovered += 1;
            assert!(recovered < 32, "z must recover, stuck at {}", t.throttle());
        }
        assert_eq!(t.throttle(), 1.0);
    }

    #[test]
    fn nan_window_holds_z_steady() {
        let mut t = ThrotLoop::new(100).unwrap();
        t.observe(obs(2.0 * 0.99, 1.0)); // -> 0.5
        let z = t.observe(obs(f64::NAN, 1.0));
        assert_eq!(z, 0.5);
        let z = t.observe(obs(5.0, f64::NAN));
        assert_eq!(z, 0.5);
    }

    #[test]
    fn degenerate_observations_never_poison_z() {
        let bad = [0.0, -1.0, 1e-300, 1e300, f64::INFINITY, f64::NAN];
        let mut t = ThrotLoop::new(100).unwrap();
        for &lambda in &bad {
            for &mu in &bad {
                let z = t.observe(obs(lambda, mu));
                assert!(
                    z.is_finite() && (1e-3..=1.0).contains(&z),
                    "λ = {lambda}, μ = {mu} produced z = {z}"
                );
            }
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut t = ThrotLoop::new(100).unwrap();
        t.observe(obs(10.0, 1.0));
        t.reset();
        assert_eq!(t.throttle(), 1.0);
        assert_eq!(t.iterations(), 0);
        assert_eq!(t.clamped_steps(), 0);
        assert_eq!(t.held_steps(), 0);
        assert_eq!(t.overload_steps(), 0);
    }

    #[test]
    fn counters_classify_degenerate_windows() {
        let mut t = ThrotLoop::new(100).unwrap();
        t.observe(obs(1.0 * 0.99, 1.0)); // balanced: no counter moves
        assert_eq!(
            (t.clamped_steps(), t.held_steps(), t.overload_steps()),
            (0, 0, 0)
        );
        t.observe(obs(100.0, 1.0)); // 100x overload: clamped
        assert_eq!(t.clamped_steps(), 1);
        t.observe(obs(f64::NAN, 1.0)); // no signal: held
        t.observe(obs(f64::INFINITY, f64::INFINITY)); // ∞/∞: held
        assert_eq!(t.held_steps(), 2);
        t.observe(obs(5.0, 0.0)); // dead server: overload + clamp
        assert_eq!(t.overload_steps(), 1);
        assert_eq!(t.clamped_steps(), 2);
        assert_eq!(t.iterations(), 5);
    }
}
