//! A bounded, structured event journal.
//!
//! Events carry a severity [`Level`], a static per-component `target`
//! (e.g. `"throt_loop"`, `"queue"`), the *simulation* time at which they
//! fired (never wall-clock, so journals are deterministic), and a short
//! message. The journal is bounded: once `capacity` events are stored,
//! further events are counted in `dropped` instead of allocated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event severity, ordered `Debug < Info < Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-window details).
    Debug,
    /// Notable but expected state changes (re-plans, recoveries).
    Info,
    /// Conditions an operator should look at (clamps, overflow, NaN holds).
    Warn,
}

impl Level {
    /// Stable lowercase name used in JSON snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }

    /// Parses the stable name produced by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            _ => None,
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity of the event.
    pub level: Level,
    /// Component that emitted it (static target string).
    pub target: &'static str,
    /// Simulation time in seconds at which the event fired.
    pub sim_time_s: f64,
    /// Human-readable description.
    pub message: String,
}

/// Bounded in-memory event log.
///
/// Recording takes a mutex, so the journal is *not* on the per-update
/// hot path — call sites are per-window / per-adaptation (tens of Hz),
/// where a short uncontended lock is noise. Under `telemetry-off` the
/// recording body compiles away entirely.
#[derive(Debug)]
pub struct Journal {
    #[cfg_attr(feature = "telemetry-off", allow(dead_code))]
    min_level: Level,
    #[cfg_attr(feature = "telemetry-off", allow(dead_code))]
    capacity: usize,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

/// Default maximum number of retained events per journal.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

impl Journal {
    pub(super) fn new(min_level: Level, capacity: usize) -> Self {
        Self {
            min_level,
            capacity,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends an event if its level passes the journal's filter and
    /// there is room; otherwise bumps the dropped count.
    pub fn record(&self, level: Level, target: &'static str, sim_time_s: f64, message: String) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            if level < self.min_level {
                return;
            }
            let mut events = self.events.lock().unwrap();
            if events.len() >= self.capacity {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                events.push(Event {
                    level,
                    target,
                    sim_time_s,
                    message,
                });
            }
        }
        #[cfg(feature = "telemetry-off")]
        let _ = (level, target, sim_time_s, message);
    }

    /// Number of events rejected because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the retained events out, in insertion order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

#[cfg(test)]
#[cfg(not(feature = "telemetry-off"))]
mod tests {
    use super::*;

    #[test]
    fn journal_filters_below_min_level() {
        let j = Journal::new(Level::Info, 16);
        j.record(Level::Debug, "t", 0.0, "hidden".into());
        j.record(Level::Warn, "t", 1.0, "shown".into());
        let evs = j.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].message, "shown");
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn journal_bounds_capacity_and_counts_drops() {
        let j = Journal::new(Level::Debug, 2);
        for i in 0..5 {
            j.record(Level::Info, "t", i as f64, format!("e{i}"));
        }
        assert_eq!(j.events().len(), 2);
        assert_eq!(j.dropped(), 3);
    }
}
