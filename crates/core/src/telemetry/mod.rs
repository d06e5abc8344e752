//! Zero-overhead telemetry: plain metric data held by whoever records
//! it, and a bounded record of THROTLOOP's window decisions.
//!
//! # Architecture
//!
//! Every recorder (a policy lane, the pipeline, a served session) runs
//! on one thread and owns its telemetry as plain fields. Most of what a
//! snapshot reports is a count the owner already keeps for its report
//! (updates sent, admitted and dropped, bytes and frames received,
//! window step classes); the snapshot reads it there when it is taken,
//! so nothing is counted twice. What no report keeps is a
//! distribution: a [`Histogram`] is 65 `u64` buckets plus exact count,
//! sum, min and max, recorded through `&mut self`. A [`WindowRing`]
//! keeps the newest window decisions a control loop closed.
//!
//! Nothing here reads a clock. A window decision carries the caller's
//! clock (sim seconds in the simulator), keeping instrumented
//! simulations bit-deterministic. A wall timing is an
//! [`std::time::Instant`] its caller reads and records into a histogram
//! documented as nondeterministic.
//!
//! A [`TelemetrySnapshot`] is built from `(name, component, unit,
//! value)` entries ([`TelemetrySnapshot::from_entries`]), in the order
//! its owner lists them; it serializes to JSON, with the schema
//! documented in `docs/TELEMETRY.md`.
//!
//! # Disabling
//!
//! One switch, leaving the API intact: the `telemetry-off` cargo feature
//! compiles every recording body to a no-op ([`COMPILED_OUT`]), and a
//! snapshot then reads zero for every entry its owner lists. It is the
//! baseline of the `exp_overhead` gate, and every golden must hold in
//! both builds.

pub mod json;
mod metrics;
mod snapshot;

pub use metrics::Histogram;
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, SnapshotParseError, TelemetrySnapshot,
};

use std::collections::VecDeque;

use crate::throt_loop::WindowDecision;

/// How many window decisions a ring keeps: the newest, the older ones
/// evicted and counted.
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
const WINDOW_CAPACITY: usize = 4096;

/// `true` when this crate was built with the `telemetry-off` feature,
/// i.e. every recording body is a no-op. Downstream crates consult this
/// instead of a feature flag of their own.
pub const COMPILED_OUT: bool = cfg!(feature = "telemetry-off");

/// Static description of a metric: where it lives and what it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted metric name, unique per snapshot (e.g. `"queue.overflow_drops"`).
    pub name: &'static str,
    /// Owning component (e.g. `"server.queue"`).
    pub component: &'static str,
    /// Unit of the recorded value (e.g. `"updates"`, `"us"`, `"m"`).
    pub unit: &'static str,
}

impl MetricSpec {
    /// Shorthand constructor.
    pub const fn new(name: &'static str, component: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            component,
            unit,
        }
    }
}

/// The newest window decisions a control loop closed, oldest first, and
/// how many older ones it evicted: a `VecDeque` that grows as it fills,
/// up to 4 096. Under `telemetry-off` it keeps nothing.
#[derive(Debug, Clone, Default)]
pub struct WindowRing {
    kept: VecDeque<WindowDecision>,
    evicted: u64,
}

impl WindowRing {
    /// Keeps one closed window's decision, evicting (and counting) the
    /// oldest once 4 096 are held.
    pub fn push(&mut self, decision: &WindowDecision) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            if self.kept.len() == WINDOW_CAPACITY {
                self.kept.pop_front();
                self.evicted += 1;
            }
            self.kept.push_back(*decision);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = decision;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throt_loop::StepClass;

    fn window(time: f64) -> WindowDecision {
        WindowDecision {
            time,
            arrival_rate: 10.0,
            throttle: 0.5,
            queue_len: 3,
            dropped: 0,
            service_rate: 20.0,
            throttle_before: 1.0,
            step: StepClass::Tracked,
            adapt_due: true,
        }
    }

    #[test]
    fn a_snapshot_lists_its_entries_in_order() {
        let mut h = Histogram::default();
        h.record(9);
        let mut ring = WindowRing::default();
        ring.push(&window(1.0));
        let snap = TelemetrySnapshot::from_entries(
            "unit",
            &[
                (MetricSpec::new("b.count", "test", "updates"), 3),
                (MetricSpec::new("a.count", "test", "updates"), 4),
            ],
            &[(MetricSpec::new("a.level", "test", "fraction"), 0.5)],
            &[(MetricSpec::new("a.lat", "test", "us"), &h)],
            &ring,
        );
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b.count", "a.count"]);
        assert_eq!(snap.enabled, !COMPILED_OUT);
        let lat = snap.histogram("a.lat").unwrap();
        if COMPILED_OUT {
            assert_eq!(snap.counter("b.count"), Some(0));
            assert_eq!(snap.gauge("a.level"), Some(0.0));
            assert_eq!(lat.count, 0);
            assert!(snap.windows.is_empty());
            return;
        }
        assert_eq!(snap.counter("b.count"), Some(3));
        assert_eq!(snap.gauge("a.level"), Some(0.5));
        assert_eq!(lat.count, 1);
        assert_eq!(snap.windows, [window(1.0)]);
        assert_eq!(snap.windows_dropped, 0);
    }

    #[test]
    fn the_window_ring_keeps_the_newest_and_counts_the_evicted() {
        let extra = 5;
        let run: Vec<WindowDecision> = (0..WINDOW_CAPACITY + extra)
            .map(|i| window(i as f64))
            .collect();
        let mut ring = WindowRing::default();
        run.iter().for_each(|w| ring.push(w));
        let snap = TelemetrySnapshot::from_entries("unit", &[], &[], &[], &ring);
        if COMPILED_OUT {
            assert!(snap.windows.is_empty());
            assert_eq!(snap.windows_dropped, 0);
            return;
        }
        assert_eq!(snap.windows.len(), WINDOW_CAPACITY);
        assert_eq!(snap.windows_dropped, extra as u64);
        assert_eq!(
            snap.windows,
            run[extra..],
            "the oldest are evicted, in order"
        );
    }
}
