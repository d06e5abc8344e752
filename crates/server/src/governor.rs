//! The input-queue governor (Section 3.4): the one bounded queue in front
//! of a server, the THROTLOOP controller that reads it, and the books both
//! keep. It is the one body of the control loop, driven by the
//! simulator's closed lane and by the served session alike.
//!
//! What the two callers really differ in stays theirs, as inputs to this
//! body: how long a window is (`window_s`), when and how much they
//! service (`service_at`), and which clock stamps an offer.

use lira_core::config::finite_positive;
use lira_core::throt_loop::{QueueObservation, StepClass, ThrotLoop, WindowDecision};

use crate::queue::{Drain, UpdateQueue};

/// The bounded input queue, the THROTLOOP controller over it, the
/// declared service rate µ, the drop/admit books and the adapt cadence.
#[derive(Debug, Clone)]
pub struct Governor<T> {
    queue: UpdateQueue<T>,
    controller: ThrotLoop,
    service_rate: f64,
    adapt_every: u32,
    /// Lifetime drops at the previous window close.
    dropped_at_window: u64,
    /// Lifetime admissions at the previous re-plan.
    admitted_at_adapt: u64,
}

impl<T> Governor<T> {
    /// Says why no governor can run a queue of `capacity` slots at
    /// `service_rate`: THROTLOOP's `1 − 1/B` needs `B ≥ 2`, and µ must be
    /// positive and finite.
    pub fn check(capacity: usize, service_rate: f64) -> Result<(), String> {
        if capacity < 2 {
            return Err(format!(
                "queue capacity must be at least 2 (two for THROTLOOP), got {capacity}"
            ));
        }
        finite_positive("service rate", service_rate)
    }

    /// A queue of `capacity` slots (THROTLOOP's `B`), steering toward
    /// `service_rate`, with a re-plan due every `adapt_every_windows`
    /// windows (never at 0). Refuses what [`Self::check`] refuses.
    pub fn new(
        capacity: usize,
        service_rate: f64,
        adapt_every_windows: u32,
    ) -> Result<Self, String> {
        Self::check(capacity, service_rate)?;
        Ok(Governor {
            queue: UpdateQueue::new(capacity),
            controller: ThrotLoop::new(capacity).map_err(|e| e.to_string())?,
            service_rate,
            adapt_every: adapt_every_windows,
            dropped_at_window: 0,
            admitted_at_adapt: 0,
        })
    }

    /// Offers `item` at the caller's clock `now`; a full queue tail-drops
    /// it and returns `false`.
    #[inline]
    pub fn offer_at(&mut self, now: f64, item: T) -> bool {
        self.queue.offer_at(now, item)
    }

    /// Dequeues up to `n` updates with their offer times, in FIFO order
    /// and in place ([`UpdateQueue::service_at`]): dropping the iterator
    /// early still dequeues all of them.
    pub fn service_at(&mut self, n: usize) -> Drain<'_, T> {
        self.queue.service_at(n)
    }

    /// Lifetime offers.
    pub fn arrived(&self) -> u64 {
        self.queue.arrived()
    }

    /// Lifetime admissions.
    pub fn admitted(&self) -> u64 {
        self.arrived() - self.dropped()
    }

    /// Lifetime tail drops.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped()
    }

    /// Queued updates.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Fraction of all offers dropped so far (0 before the first).
    pub fn drop_fraction(&self) -> f64 {
        self.dropped() as f64 / self.arrived().max(1) as f64
    }

    /// The throttle fraction in force (1 before the first window).
    pub fn throttle(&self) -> f64 {
        self.controller.throttle()
    }

    /// Windows closed so far.
    pub fn windows(&self) -> u64 {
        self.controller.iterations()
    }

    /// Closes a window of `window_s` seconds at the caller's clock
    /// `time`: THROTLOOP observes `(λ, µ)` and sets the next throttle.
    pub fn close_window(&mut self, time: f64, window_s: f64) -> WindowDecision {
        let arrival_rate = self.queue.window_arrival_rate(window_s);
        let c = &self.controller;
        let before = (c.overload_steps(), c.held_steps(), c.clamped_steps());
        let throttle_before = c.throttle();
        let throttle = self.controller.observe(QueueObservation {
            arrival_rate,
            service_rate: self.service_rate,
        });
        let c = &self.controller;
        let step = if c.overload_steps() > before.0 {
            StepClass::Overload
        } else if c.held_steps() > before.1 {
            StepClass::Held
        } else if c.clamped_steps() > before.2 {
            StepClass::Clamped
        } else {
            StepClass::Tracked
        };

        let dropped = self.dropped();
        let admitted = self.arrived() - dropped;
        let adapt_due = self.adapt_every > 0
            && self.windows().is_multiple_of(u64::from(self.adapt_every))
            && admitted > self.admitted_at_adapt;
        if adapt_due {
            self.admitted_at_adapt = admitted;
        }
        WindowDecision {
            time,
            arrival_rate,
            throttle,
            queue_len: self.depth(),
            dropped: dropped - std::mem::replace(&mut self.dropped_at_window, dropped),
            service_rate: self.service_rate,
            throttle_before,
            step,
            adapt_due,
        }
    }
}

impl Governor<()> {
    /// The queued offer times as `(time, count)` runs, oldest first
    /// ([`UpdateQueue::runs`]). Dequeues nothing.
    pub fn runs(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.queue.runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_what_no_governor_can_run() {
        let refused = |capacity, mu: f64, needle: &str| {
            let why = Governor::<()>::check(capacity, mu).expect_err(needle);
            assert!(why.contains(needle), "{why:?} should mention {needle:?}");
            assert!(Governor::<()>::new(capacity, mu, 1).is_err());
        };
        refused(0, 1.0, "queue capacity");
        refused(1, 1.0, "two for THROTLOOP");
        for mu in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            refused(10, mu, "service rate");
        }
        assert!(Governor::<()>::new(2, 0.25, 1).is_ok());
        assert!(Governor::<()>::new(4, 1e9, 0).is_ok());
    }

    /// Windowed as the simulator's closed loop windowed its one queue
    /// before the governor: λ = arrivals / period, µ the declared rate,
    /// drops and depth off the queue — bit for bit, window after window,
    /// through overload and recovery.
    #[test]
    fn reproduces_the_bare_queue_window_arithmetic() {
        let (capacity, mu, period) = (200, 25.0, 20.0);
        let mut g = Governor::new(capacity, mu, 1).unwrap();
        let mut queue = UpdateQueue::new(capacity);
        let mut controller = ThrotLoop::new(capacity).unwrap();
        let (mut offered_in_window, mut dropped_before) = (0u64, 0u64);
        for window in 0..12u64 {
            for tick in 0..20u64 {
                let load = [90, 10, 40, 0][(window / 3) as usize] + (tick * 7 + window) % 13;
                for i in 0..load {
                    let now = (window * 20 + tick) as f64;
                    assert_eq!(g.offer_at(now, i), queue.offer_at(now, i));
                    offered_in_window += 1;
                }
                let served: Vec<_> = g.service_at(25).collect();
                assert_eq!(served, queue.service_at(25).collect::<Vec<_>>());
            }
            let t = (window * 20 + 20) as f64;
            let w = g.close_window(t, period);
            let arrival_rate = offered_in_window as f64 / period;
            offered_in_window = 0;
            let z = controller.observe(QueueObservation {
                arrival_rate,
                service_rate: mu,
            });
            let dropped = queue.dropped() - dropped_before;
            dropped_before = queue.dropped();
            assert_eq!(w.time, t);
            assert_eq!(w.arrival_rate.to_bits(), arrival_rate.to_bits());
            assert_eq!(w.throttle.to_bits(), z.to_bits());
            assert_eq!((w.queue_len, w.dropped), (queue.len(), dropped));
            assert_eq!(w.service_rate, mu);
        }
        assert!(dropped_before > 0, "the run must overflow");
        assert_eq!(g.throttle().to_bits(), controller.throttle().to_bits());
        let drop_fraction = queue.dropped() as f64 / queue.arrived() as f64;
        assert_eq!(g.drop_fraction().to_bits(), drop_fraction.to_bits());
    }

    #[test]
    fn step_class_matches_the_controllers_counters() {
        let mut g = Governor::new(100, 10.0, 1).unwrap();
        let window = |g: &mut Governor<()>, arrivals: u32, mu: f64| {
            g.service_rate = mu;
            for _ in 0..arrivals {
                g.offer_at(0.0, ());
            }
            drop(g.service_at(usize::MAX));
            let c = &g.controller;
            let before = (c.clamped_steps(), c.held_steps(), c.overload_steps());
            let w = g.close_window(1.0, 1.0);
            let c = &g.controller;
            let after = (c.clamped_steps(), c.held_steps(), c.overload_steps());
            (
                w,
                (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            )
        };
        // ρ = 1 against the target 0.99: a step inside the clamp.
        let (w, moved) = window(&mut g, 10, 10.0);
        assert_eq!((w.step, moved), (StepClass::Tracked, (0, 0, 0)));
        let (w, moved) = window(&mut g, 100, 10.0);
        assert_eq!((w.step, moved), (StepClass::Clamped, (1, 0, 0)));
        assert_eq!(w.throttle, w.throttle_before / 2.0);
        let (w, moved) = window(&mut g, 5, f64::NAN);
        assert_eq!((w.step, moved), (StepClass::Held, (0, 1, 0)));
        assert_eq!(w.throttle, w.throttle_before);
        // An outage window: arrivals, no service capacity. z steps down
        // at the clamp and stays finite — no division by zero.
        for mu in [0.0, -1.0] {
            let (w, moved) = window(&mut g, 5, mu);
            assert_eq!((w.step, moved), (StepClass::Overload, (1, 0, 1)));
            assert_eq!(w.throttle, w.throttle_before / 2.0);
        }
        // An idle window resets z to 1 without a counter.
        let (w, moved) = window(&mut g, 0, 10.0);
        assert_eq!(
            (w.step, moved, w.throttle),
            (StepClass::Tracked, (0, 0, 0), 1.0)
        );
    }

    #[test]
    fn adapt_is_due_on_cadence_and_only_after_admissions() {
        let mut g = Governor::new(20, 10.0, 3).unwrap();
        let mut due = Vec::new();
        for window in 0..12u32 {
            // The fourth to sixth windows admit nothing.
            if !(3..6).contains(&window) {
                g.offer_at(0.0, ());
            }
            due.push(g.close_window(window as f64, 1.0).adapt_due);
        }
        // Windows 3, 6, 9 and 12 are on the cadence; 6 saw no admission
        // since the re-plan at 3.
        let on: Vec<usize> = (0..12).filter(|&i| due[i]).map(|i| i + 1).collect();
        assert_eq!(on, [3, 9, 12]);
        assert_eq!(g.windows(), 12);

        let mut never = Governor::new(8, 10.0, 0).unwrap();
        never.offer_at(0.0, ());
        assert!(!never.close_window(1.0, 1.0).adapt_due);
    }

    #[test]
    fn books_conserve_and_depth_is_read_at_the_close() {
        let mut g = Governor::new(6, 10.0, 1).unwrap();
        assert_eq!(g.drop_fraction(), 0.0);
        for i in 0..20u32 {
            g.offer_at(i as f64, i);
        }
        let taken: Vec<u32> = g.service_at(1).map(|(_, i)| i).collect();
        assert_eq!(taken, [0]);
        assert_eq!((g.arrived(), g.admitted(), g.dropped()), (20, 6, 14));
        assert_eq!(g.arrived(), g.admitted() + g.dropped());
        let w = g.close_window(1.0, 1.0);
        assert_eq!((w.queue_len, g.depth(), w.dropped), (5, 5, 14));
        assert_eq!(g.drop_fraction(), 14.0 / 20.0);
        // The next window's drops start from zero.
        g.offer_at(2.0, 20);
        g.offer_at(2.0, 21);
        let w = g.close_window(2.0, 1.0);
        assert_eq!((w.queue_len, w.dropped), (6, 1));
        assert_eq!(g.arrived(), g.admitted() + g.dropped());
    }

    #[test]
    fn overload_drives_z_toward_the_service_rate() {
        let mut g = Governor::new(100, 100.0, 1).unwrap();
        // 200 updates/s arriving, capacity 100/s: z falls toward 0.5.
        for _ in 0..5 {
            for i in 0..200 {
                g.offer_at(0.0, i);
            }
            drop(g.service_at(100));
            g.close_window(1.0, 1.0);
        }
        assert!(g.throttle() < 0.55, "z = {}", g.throttle());
    }
}
