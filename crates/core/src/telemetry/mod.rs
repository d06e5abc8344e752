//! Zero-overhead telemetry: lock-free metrics and a bounded record of
//! THROTLOOP's window decisions.
//!
//! # Architecture
//!
//! A [`Telemetry`] registry hands out [`Arc`] handles to three metric
//! kinds — [`Counter`], [`Gauge`] and log-scale [`Histogram`] — and
//! keeps a ring of the newest [`WindowDecision`]s a control loop closed
//! ([`Telemetry::record_window`]). Registration (name lookup,
//! allocation) takes a mutex and happens once per run; *recording* a
//! metric is a single relaxed atomic RMW per call, wait-free and
//! allocation-free, so handles can be hammered from every pipeline lane
//! thread concurrently.
//!
//! The registry reads no clock. A window decision carries the caller's
//! clock (sim seconds in the simulator), keeping instrumented
//! simulations bit-deterministic. A wall timing is an
//! [`std::time::Instant`] its caller reads and records into a histogram
//! documented as nondeterministic.
//!
//! # Disabling
//!
//! One switch, leaving the API intact: the `telemetry-off` cargo feature
//! compiles every recording body to a no-op ([`COMPILED_OUT`]). It is
//! the baseline of the `exp_overhead` gate, and every golden must hold
//! in both builds.
//!
//! Snapshots ([`TelemetrySnapshot`]) serialize to JSON; the schema is
//! documented in `docs/TELEMETRY.md`.

pub mod json;
mod metrics;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, SnapshotParseError, TelemetrySnapshot,
};

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::throt_loop::WindowDecision;

/// How many window decisions a registry keeps: the newest, the older
/// ones evicted and counted.
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
const WINDOW_CAPACITY: usize = 4096;

/// `true` when this crate was built with the `telemetry-off` feature,
/// i.e. every recording body is a no-op. Downstream crates consult this
/// instead of a feature flag of their own.
pub const COMPILED_OUT: bool = cfg!(feature = "telemetry-off");

/// Static description of a metric: where it lives and what it measures.
///
/// The `name` is the registry key — registering the same name twice
/// returns the existing handle (the first spec wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted metric name, unique per registry (e.g. `"queue.overflow_drops"`).
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

/// A registry of metrics and window decisions for one run, lane or
/// component.
///
/// Cheap to create (a few empty `Vec`s); intended to be instantiated
/// per pipeline lane so snapshots are naturally per-policy. All handles
/// are `Arc`s — recording never touches the registry's mutex.
pub struct Telemetry {
    counters: Mutex<Vec<(MetricSpec, Arc<Counter>)>>,
    gauges: Mutex<Vec<(MetricSpec, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(MetricSpec, Arc<Histogram>)>>,
    /// The newest window decisions, oldest first, and how many older
    /// ones were evicted. Grows as it fills, up to [`WINDOW_CAPACITY`].
    windows: Mutex<(VecDeque<WindowDecision>, u64)>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            windows: Mutex::new((VecDeque::new(), 0)),
        }
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, spec: MetricSpec) -> Arc<Counter> {
        let mut metrics = self.counters.lock().unwrap();
        if let Some((_, c)) = metrics.iter().find(|(s, _)| s.name == spec.name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        metrics.push((spec, Arc::clone(&c)));
        c
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, spec: MetricSpec) -> Arc<Gauge> {
        let mut metrics = self.gauges.lock().unwrap();
        if let Some((_, g)) = metrics.iter().find(|(s, _)| s.name == spec.name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        metrics.push((spec, Arc::clone(&g)));
        g
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, spec: MetricSpec) -> Arc<Histogram> {
        let mut metrics = self.histograms.lock().unwrap();
        if let Some((_, h)) = metrics.iter().find(|(s, _)| s.name == spec.name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        metrics.push((spec, Arc::clone(&h)));
        h
    }

    /// Records one closed window's decision. Takes a mutex, so it is
    /// not for the per-update hot path: a control loop calls it once a
    /// window. Once 4 096 decisions are held, the oldest is evicted and
    /// counted.
    pub fn record_window(&self, decision: &WindowDecision) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            let mut guard = self.windows.lock().unwrap();
            let (ring, evicted) = &mut *guard;
            if ring.len() == WINDOW_CAPACITY {
                ring.pop_front();
                *evicted += 1;
            }
            ring.push_back(*decision);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = decision;
    }

    /// Exports everything into a plain-data [`TelemetrySnapshot`]
    /// labelled with `component`.
    pub fn snapshot(&self, component: &str) -> TelemetrySnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(s, c)| CounterSnapshot {
                name: s.name.to_string(),
                component: s.component.to_string(),
                unit: s.unit.to_string(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(s, g)| GaugeSnapshot {
                name: s.name.to_string(),
                component: s.component.to_string(),
                unit: s.unit.to_string(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(s, h)| {
                let counts = h.bucket_counts();
                HistogramSnapshot {
                    name: s.name.to_string(),
                    component: s.component.to_string(),
                    unit: s.unit.to_string(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: counts
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i as u32, n))
                        .collect(),
                }
            })
            .collect();
        let (windows, windows_dropped) = {
            let guard = self.windows.lock().unwrap();
            (guard.0.iter().copied().collect(), guard.1)
        };
        TelemetrySnapshot {
            component: component.to_string(),
            enabled: !COMPILED_OUT,
            counters,
            gauges,
            histograms,
            windows,
            windows_dropped,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
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

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn registry_snapshot_reflects_recordings() {
        let tel = Telemetry::new();
        let c = tel.counter(MetricSpec::new("a.count", "test", "updates"));
        let g = tel.gauge(MetricSpec::new("a.level", "test", "fraction"));
        let h = tel.histogram(MetricSpec::new("a.lat", "test", "us"));
        c.add(3);
        g.set(0.5);
        h.record(9);
        tel.record_window(&window(1.0));
        let snap = tel.snapshot("unit");
        assert!(snap.enabled);
        assert_eq!(snap.counter("a.count"), Some(3));
        assert_eq!(snap.gauge("a.level"), Some(0.5));
        assert_eq!(snap.histogram("a.lat").unwrap().count, 1);
        assert_eq!(snap.windows, [window(1.0)]);
        assert_eq!(snap.windows_dropped, 0);
    }

    #[test]
    fn the_window_ring_keeps_the_newest_and_counts_the_evicted() {
        let tel = Telemetry::new();
        let extra = 5;
        for i in 0..WINDOW_CAPACITY + extra {
            tel.record_window(&window(i as f64));
        }
        let snap = tel.snapshot("unit");
        if COMPILED_OUT {
            assert!(snap.windows.is_empty());
            assert_eq!(snap.windows_dropped, 0);
            return;
        }
        assert_eq!(snap.windows.len(), WINDOW_CAPACITY);
        assert_eq!(snap.windows_dropped, extra as u64);
        let times: Vec<f64> = snap.windows.iter().map(|w| w.time).collect();
        let newest: Vec<f64> = (extra..WINDOW_CAPACITY + extra).map(|i| i as f64).collect();
        assert_eq!(times, newest, "the oldest are evicted, in order");
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let tel = Telemetry::new();
        let a = tel.counter(MetricSpec::new("x", "t", "u"));
        let b = tel.counter(MetricSpec::new("x", "t2", "u2"));
        a.incr();
        assert_eq!(b.get(), a.get());
        assert_eq!(tel.snapshot("s").counters.len(), 1);
    }
}
