//! Zero-overhead telemetry: lock-free metrics and a structured event
//! journal.
//!
//! # Architecture
//!
//! A [`Telemetry`] registry hands out [`Arc`] handles to three metric
//! kinds — [`Counter`], [`Gauge`] and log-scale [`Histogram`] — plus a
//! bounded [`Journal`] of structured events. Registration (name lookup,
//! allocation) takes a mutex and happens once per run; *recording* is a
//! single relaxed atomic RMW per call, wait-free and allocation-free, so
//! handles can be hammered from every pipeline lane thread concurrently.
//!
//! The registry reads no clock. Sim time is threaded explicitly (journal
//! events are stamped with sim seconds, never wall-clock), keeping
//! instrumented simulations bit-deterministic. A wall timing is an
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

mod journal;
pub mod json;
mod metrics;
mod snapshot;

pub use journal::{Event, Journal, Level, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use snapshot::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, SnapshotParseError,
    TelemetrySnapshot, SNAPSHOT_SCHEMA_VERSION,
};

use std::sync::{Arc, Mutex};

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
    /// Dotted metric name, unique per registry (e.g. `"queue.depth"`).
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

/// A registry of metrics and events for one run, lane or component.
///
/// Cheap to create (a few empty `Vec`s); intended to be instantiated
/// per pipeline lane so snapshots are naturally per-policy. All handles
/// are `Arc`s — recording never touches the registry's mutex.
pub struct Telemetry {
    counters: Mutex<Vec<(MetricSpec, Arc<Counter>)>>,
    gauges: Mutex<Vec<(MetricSpec, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(MetricSpec, Arc<Histogram>)>>,
    journal: Journal,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A registry with the default journal capacity at [`Level::Debug`].
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            journal: Journal::new(Level::Debug, DEFAULT_JOURNAL_CAPACITY),
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

    /// Records a journal event stamped with *sim* time (seconds).
    pub fn event(&self, level: Level, target: &'static str, sim_time_s: f64, message: String) {
        self.journal.record(level, target, sim_time_s, message);
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
        TelemetrySnapshot {
            component: component.to_string(),
            enabled: !COMPILED_OUT,
            counters,
            gauges,
            histograms,
            events: self
                .journal
                .events()
                .iter()
                .map(EventSnapshot::from)
                .collect(),
            events_dropped: self.journal.dropped(),
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
        tel.event(Level::Info, "test", 1.0, "hello".into());
        let snap = tel.snapshot("unit");
        assert!(snap.enabled);
        assert_eq!(snap.counter("a.count"), Some(3));
        assert_eq!(snap.gauge("a.level"), Some(0.5));
        assert_eq!(snap.histogram("a.lat").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
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
