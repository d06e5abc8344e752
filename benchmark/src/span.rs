//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's side of each layer boundary (around the calls into
//! the layer's public functions), kept in memory, and written out once
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use lira_core::telemetry::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (module path of the function called).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The workload round the call belongs to (0 = set-up).
    pub round: u32,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time (duration minus the part child spans cover), ns.
    pub self_ns: u64,
}

/// The recorder. A disabled tracer records nothing and never reads the
/// clock, so the same driver code runs with and without spans.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A recording tracer.
    pub fn recording() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    /// Sets the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round as u32;
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per span name, over the spans whose
    /// index is in `range` and whose round is at least `from_round`.
    pub fn totals(
        &self,
        range: std::ops::Range<usize>,
        from_round: u32,
    ) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for i in range {
            let s = &self.spans[i];
            if s.round < from_round {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`,
    /// `round`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::UInt(s.start_ns)),
                        ("end_ns".into(), Json::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("round".into(), Json::UInt(s.round as u64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::recording();
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let totals = t.totals(0..2, 0);
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 2_000_000);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            outer.self_ns + inner.self_ns,
            s[0].end_ns - s[0].start_ns,
            "self times partition the root"
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
