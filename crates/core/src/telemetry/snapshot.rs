//! Point-in-time export of one recorder's telemetry.
//!
//! A [`TelemetrySnapshot`] is plain data: it owns copies of every metric
//! value plus the window decisions, serializes to/from JSON (schema
//! documented in `docs/TELEMETRY.md`, version [`SNAPSHOT_SCHEMA_VERSION`]),
//! and merges with snapshots from other runs (counters and histograms
//! accumulate; gauges are last-write-wins; windows concatenate). Snapshots of a `telemetry-off` build
//! read zero but are still valid JSON, so downstream tooling never
//! branches on the feature.

use super::json::{Json, JsonError};
use super::metrics::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use super::{Histogram, MetricSpec, WindowRing, COMPILED_OUT};
use crate::throt_loop::{StepClass, WindowDecision};

/// Version tag written into every snapshot (`"schema"` field); bump on
/// breaking changes to the JSON layout.
pub(crate) const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// A window's `step` as its JSON name.
const STEP_NAMES: [(StepClass, &str); 4] = [
    (StepClass::Tracked, "tracked"),
    (StepClass::Clamped, "clamped"),
    (StepClass::Held, "held"),
    (StepClass::Overload, "overload"),
];

/// Exported value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Dotted metric name, e.g. `"queue.overflow_drops"`.
    pub name: String,
    /// Component that owns the metric, e.g. `"server.queue"`.
    pub component: String,
    /// Unit of the value, e.g. `"updates"`.
    pub unit: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// Exported value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Dotted metric name, e.g. `"throt_loop.z"`.
    pub name: String,
    /// Component that owns the metric.
    pub component: String,
    /// Unit of the value, e.g. `"fraction"`.
    pub unit: String,
    /// Gauge value at snapshot time (always finite).
    pub value: f64,
}

/// Exported state of one histogram. Only non-empty buckets are stored,
/// as `(bucket_index, count)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Dotted metric name, e.g. `"queue.service_latency_ms"`.
    pub name: String,
    /// Component that owns the metric.
    pub component: String,
    /// Unit of recorded samples, e.g. `"ms"`.
    pub unit: String,
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample, if any were recorded.
    pub min: Option<u64>,
    /// Largest sample, if any were recorded.
    pub max: Option<u64>,
    /// Sparse `(bucket_index, count)` pairs, ascending by index. Bucket
    /// `i` covers `[2^(i-1), 2^i - 1]`; bucket 0 holds the value 0.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Exact mean from `sum`/`count`, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Bucket-resolution quantile: the upper bound of the first bucket
    /// at which the cumulative count reaches `q * count`. Overestimates
    /// by at most 2× (one bucket width). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let ub = bucket_upper_bound(idx as usize);
                // Exact aggregates can tighten the bucket bound.
                return Some(match self.max {
                    Some(max) => ub.min(max),
                    None => ub,
                });
            }
        }
        self.max
    }
}

/// A complete, serializable export of one recorder's telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Label of the run or lane this snapshot describes (e.g. a policy
    /// name like `"lira"`, or `"run"` for pipeline-level telemetry).
    pub component: String,
    /// Whether the recorder was recording: `false` only in a
    /// `telemetry-off` build, whose metrics all read zero.
    pub enabled: bool,
    /// All counters, in the order their owner lists them.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, in the order their owner lists them.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, in the order their owner lists them.
    pub histograms: Vec<HistogramSnapshot>,
    /// The newest window decisions, oldest first (at most 4 096 per
    /// recorder; a merge concatenates them).
    pub windows: Vec<WindowDecision>,
    /// Older window decisions the recorder evicted to keep the newest.
    pub windows_dropped: u64,
}

impl TelemetrySnapshot {
    /// A snapshot labelled `component` of `(name, component, unit,
    /// value)` entries, kept in the order given, and of a window ring.
    /// Under `telemetry-off` every counter and gauge reads zero (the
    /// histograms and the ring recorded nothing), and the keys stay.
    pub fn from_entries(
        component: &str,
        counters: &[(MetricSpec, u64)],
        gauges: &[(MetricSpec, f64)],
        histograms: &[(MetricSpec, &Histogram)],
        windows: &WindowRing,
    ) -> Self {
        let live = !COMPILED_OUT;
        TelemetrySnapshot {
            component: component.to_string(),
            enabled: live,
            counters: (counters.iter())
                .map(|&(s, value)| CounterSnapshot {
                    name: s.name.to_string(),
                    component: s.component.to_string(),
                    unit: s.unit.to_string(),
                    value: if live { value } else { 0 },
                })
                .collect(),
            gauges: (gauges.iter())
                .map(|&(s, value)| GaugeSnapshot {
                    name: s.name.to_string(),
                    component: s.component.to_string(),
                    unit: s.unit.to_string(),
                    value: if live { value } else { 0.0 },
                })
                .collect(),
            histograms: histograms.iter().map(|&(s, h)| h.snapshot(s)).collect(),
            windows: windows.kept.iter().copied().collect(),
            windows_dropped: windows.evicted,
        }
    }

    /// Looks up a counter value by metric name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by metric name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by metric name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds `other` into `self`: counters add, histograms add
    /// bucket-wise (min/max widen), gauges take `other`'s value
    /// (last-write-wins), windows concatenate. Metrics present only in
    /// `other` are appended. Used to aggregate across seeds in sweeps.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.enabled |= other.enabled;
        for oc in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.value += oc.value,
                None => self.counters.push(oc.clone()),
            }
        }
        for og in &other.gauges {
            match self.gauges.iter_mut().find(|g| g.name == og.name) {
                Some(g) => g.value = og.value,
                None => self.gauges.push(og.clone()),
            }
        }
        for oh in &other.histograms {
            match self.histograms.iter_mut().find(|h| h.name == oh.name) {
                Some(h) => {
                    h.count += oh.count;
                    h.sum = h.sum.wrapping_add(oh.sum);
                    h.min = match (h.min, oh.min) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    h.max = match (h.max, oh.max) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    for &(idx, n) in &oh.buckets {
                        match h.buckets.iter_mut().find(|(i, _)| *i == idx) {
                            Some((_, c)) => *c += n,
                            None => h.buckets.push((idx, n)),
                        }
                    }
                    h.buckets.sort_by_key(|&(i, _)| i);
                }
                None => self.histograms.push(oh.clone()),
            }
        }
        self.windows.extend_from_slice(&other.windows);
        self.windows_dropped += other.windows_dropped;
    }

    /// Serializes to the compact JSON schema documented in
    /// `docs/TELEMETRY.md`.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("component".into(), Json::Str(c.component.clone())),
                    ("unit".into(), Json::Str(c.unit.clone())),
                    ("value".into(), Json::UInt(c.value)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(g.name.clone())),
                    ("component".into(), Json::Str(g.component.clone())),
                    ("unit".into(), Json::Str(g.unit.clone())),
                    ("value".into(), Json::Float(g.value)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let mut members = vec![
                    ("name".into(), Json::Str(h.name.clone())),
                    ("component".into(), Json::Str(h.component.clone())),
                    ("unit".into(), Json::Str(h.unit.clone())),
                    ("count".into(), Json::UInt(h.count)),
                    ("sum".into(), Json::UInt(h.sum)),
                ];
                if let Some(min) = h.min {
                    members.push(("min".into(), Json::UInt(min)));
                }
                if let Some(max) = h.max {
                    members.push(("max".into(), Json::UInt(max)));
                }
                members.push((
                    "buckets".into(),
                    Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(i, n)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(n)]))
                            .collect(),
                    ),
                ));
                Json::Obj(members)
            })
            .collect();
        // A non-finite rate is written `null` and read back as NaN.
        let windows = self
            .windows
            .iter()
            .map(|w| {
                let step = STEP_NAMES.iter().find(|(c, _)| *c == w.step).unwrap().1;
                Json::Obj(vec![
                    ("t".into(), Json::Float(w.time)),
                    ("lambda".into(), Json::Float(w.arrival_rate)),
                    ("mu".into(), Json::Float(w.service_rate)),
                    ("z_before".into(), Json::Float(w.throttle_before)),
                    ("z".into(), Json::Float(w.throttle)),
                    ("queue".into(), Json::UInt(w.queue_len as u64)),
                    ("dropped".into(), Json::UInt(w.dropped)),
                    ("step".into(), Json::Str(step.into())),
                    ("adapt".into(), Json::Bool(w.adapt_due)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::UInt(SNAPSHOT_SCHEMA_VERSION)),
            ("component".into(), Json::Str(self.component.clone())),
            ("enabled".into(), Json::Bool(self.enabled)),
            ("counters".into(), Json::Arr(counters)),
            ("gauges".into(), Json::Arr(gauges)),
            ("histograms".into(), Json::Arr(histograms)),
            ("windows".into(), Json::Arr(windows)),
            ("windows_dropped".into(), Json::UInt(self.windows_dropped)),
        ])
        .to_string()
    }

    /// Parses a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotParseError> {
        let root = Json::parse(text)?;
        let schema = field_u64(&root, "schema")?;
        if schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotParseError::Schema(schema));
        }
        let component = field_str(&root, "component")?.to_string();
        let enabled = root
            .get("enabled")
            .and_then(Json::as_bool)
            .ok_or(SnapshotParseError::Missing("enabled"))?;
        let mut snap = TelemetrySnapshot {
            component,
            enabled,
            windows_dropped: field_u64(&root, "windows_dropped")?,
            ..Default::default()
        };
        for c in field_array(&root, "counters")? {
            snap.counters.push(CounterSnapshot {
                name: field_str(c, "name")?.to_string(),
                component: field_str(c, "component")?.to_string(),
                unit: field_str(c, "unit")?.to_string(),
                value: field_u64(c, "value")?,
            });
        }
        for g in field_array(&root, "gauges")? {
            snap.gauges.push(GaugeSnapshot {
                name: field_str(g, "name")?.to_string(),
                component: field_str(g, "component")?.to_string(),
                unit: field_str(g, "unit")?.to_string(),
                value: field_f64(g, "value")?,
            });
        }
        for h in field_array(&root, "histograms")? {
            let mut buckets = Vec::new();
            for pair in field_array(h, "buckets")? {
                let pair = pair
                    .as_array()
                    .ok_or(SnapshotParseError::Missing("bucket"))?;
                if pair.len() != 2 {
                    return Err(SnapshotParseError::Missing("bucket pair"));
                }
                let idx = pair[0]
                    .as_u64()
                    .ok_or(SnapshotParseError::Missing("bucket idx"))?;
                if idx as usize >= HISTOGRAM_BUCKETS {
                    return Err(SnapshotParseError::Missing("bucket idx range"));
                }
                let n = pair[1]
                    .as_u64()
                    .ok_or(SnapshotParseError::Missing("bucket count"))?;
                buckets.push((idx as u32, n));
            }
            snap.histograms.push(HistogramSnapshot {
                name: field_str(h, "name")?.to_string(),
                component: field_str(h, "component")?.to_string(),
                unit: field_str(h, "unit")?.to_string(),
                count: field_u64(h, "count")?,
                sum: field_u64(h, "sum")?,
                min: h.get("min").and_then(Json::as_u64),
                max: h.get("max").and_then(Json::as_u64),
                buckets,
            });
        }
        for w in field_array(&root, "windows")? {
            let step = field_str(w, "step")?;
            let step = STEP_NAMES
                .iter()
                .find(|(_, name)| *name == step)
                .ok_or(SnapshotParseError::Missing("step"))?
                .0;
            let queue_len = usize::try_from(field_u64(w, "queue")?)
                .map_err(|_| SnapshotParseError::Missing("queue"))?;
            snap.windows.push(WindowDecision {
                time: field_real(w, "t")?,
                arrival_rate: field_real(w, "lambda")?,
                throttle: field_real(w, "z")?,
                queue_len,
                dropped: field_u64(w, "dropped")?,
                service_rate: field_real(w, "mu")?,
                throttle_before: field_real(w, "z_before")?,
                step,
                adapt_due: w
                    .get("adapt")
                    .and_then(Json::as_bool)
                    .ok_or(SnapshotParseError::Missing("adapt"))?,
            });
        }
        Ok(snap)
    }
}

fn field_u64(v: &Json, key: &'static str) -> Result<u64, SnapshotParseError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(SnapshotParseError::Missing(key))
}

fn field_f64(v: &Json, key: &'static str) -> Result<f64, SnapshotParseError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or(SnapshotParseError::Missing(key))
}

/// A real that may have been written non-finite: `null` reads as NaN.
fn field_real(v: &Json, key: &'static str) -> Result<f64, SnapshotParseError> {
    match v.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        _ => field_f64(v, key),
    }
}

fn field_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, SnapshotParseError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(SnapshotParseError::Missing(key))
}

fn field_array<'a>(v: &'a Json, key: &'static str) -> Result<&'a [Json], SnapshotParseError> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or(SnapshotParseError::Missing(key))
}

/// Why a snapshot failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotParseError {
    /// The text was not valid JSON.
    Json(JsonError),
    /// The JSON was valid but a required field was missing or mistyped.
    Missing(&'static str),
    /// The snapshot was written by an incompatible schema version.
    Schema(u64),
}

impl From<JsonError> for SnapshotParseError {
    fn from(e: JsonError) -> Self {
        SnapshotParseError::Json(e)
    }
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotParseError::Json(e) => write!(f, "{e}"),
            SnapshotParseError::Missing(k) => write!(f, "missing or mistyped field: {k}"),
            SnapshotParseError::Schema(v) => {
                write!(f, "unsupported snapshot schema version {v}")
            }
        }
    }
}

impl std::error::Error for SnapshotParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            component: "lira".into(),
            enabled: true,
            counters: vec![CounterSnapshot {
                name: "lane.updates_sent".into(),
                component: "sim.lane".into(),
                unit: "updates".into(),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: "throt_loop.z".into(),
                component: "core.throt_loop".into(),
                unit: "fraction".into(),
                value: 0.75,
            }],
            histograms: vec![HistogramSnapshot {
                name: "lane.adapt_us".into(),
                component: "sim.lane".into(),
                unit: "us".into(),
                count: 3,
                sum: 700,
                min: Some(100),
                max: Some(400),
                buckets: vec![(7, 1), (8, 1), (9, 1)],
            }],
            windows: vec![WindowDecision {
                time: 12.5,
                arrival_rate: 400.0,
                throttle: 0.5,
                queue_len: 64,
                dropped: 7,
                service_rate: 100.0,
                throttle_before: 1.0,
                step: StepClass::Clamped,
                adapt_due: true,
            }],
            windows_dropped: 1,
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let snap = sample();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = TelemetrySnapshot::default();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    /// A held window saw no signal: its λ is NaN, which the JSON writes
    /// as `null` and the parse reads back as NaN.
    #[test]
    fn a_held_window_with_a_nan_rate_round_trips() {
        let mut snap = sample();
        let w = &mut snap.windows[0];
        (w.arrival_rate, w.step, w.throttle) = (f64::NAN, StepClass::Held, w.throttle_before);
        let text = snap.to_json();
        assert!(text.contains("\"lambda\":null"), "{text}");
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        let (w, b) = (snap.windows[0], back.windows[0]);
        assert!(b.arrival_rate.is_nan());
        assert_eq!(
            WindowDecision {
                arrival_rate: 0.0,
                ..b
            },
            WindowDecision {
                arrival_rate: 0.0,
                ..w
            }
        );
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample()
            .to_json()
            .replacen("\"schema\":2", "\"schema\":999", 1);
        assert!(matches!(
            TelemetrySnapshot::from_json(&text),
            Err(SnapshotParseError::Schema(999))
        ));
    }

    #[test]
    fn merge_accumulates_counters_and_histograms() {
        let mut a = sample();
        let mut b = sample();
        b.gauges[0].value = 0.5;
        b.histograms[0].min = Some(50);
        b.counters.push(CounterSnapshot {
            name: "lane.only_in_b".into(),
            component: "sim.lane".into(),
            unit: "updates".into(),
            value: 7,
        });
        a.merge(&b);
        assert_eq!(a.counter("lane.updates_sent"), Some(84));
        assert_eq!(a.counter("lane.only_in_b"), Some(7));
        assert_eq!(a.gauge("throt_loop.z"), Some(0.5));
        let h = a.histogram("lane.adapt_us").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1400);
        assert_eq!(h.min, Some(50));
        assert_eq!(h.max, Some(400));
        assert_eq!(h.buckets, vec![(7, 2), (8, 2), (9, 2)]);
        assert_eq!(a.windows, [sample().windows[0]; 2]);
        assert_eq!(a.windows_dropped, 2);
    }

    #[test]
    fn quantile_reads_bucket_upper_bounds() {
        let h = sample().histograms[0].clone();
        // rank 1 of 3 → bucket 7 (ub 127); p100 → bucket 9 capped by max.
        assert_eq!(h.quantile(0.0), Some(127));
        assert_eq!(h.quantile(1.0), Some(400));
        assert_eq!(h.mean(), Some(700.0 / 3.0));
    }
}
