//! `expected.json`: what the pinned seeds must produce, bit for bit. A
//! served workload pins its checkpoint tally; `sim_paper` pins its
//! per-policy accuracy tuples. Keys are `<workload>/<scale>/<seed>`.

use std::path::{Path, PathBuf};

use lira_core::telemetry::json::Json;

/// The seeds whose outputs are pinned. Any other seed is checked for
/// internal consistency only.
pub const PINNED_SEEDS: [u64; 2] = [42, 7];

/// The pin file and which entry this run is about.
pub struct Expected {
    path: PathBuf,
    key: String,
    pinned: bool,
}

/// How a run compared with its pin.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The seed is not a pinned one.
    NotPinned,
    /// The observed value equals the pin.
    Match,
    /// It does not (or a pinned seed has no entry): the message says how.
    Mismatch(String),
}

impl Expected {
    /// The entry of `workload` at `seed` in the pin file under `dir`.
    pub fn new(dir: &Path, workload: &str, smoke: bool, seed: u64) -> Self {
        let scale = if smoke { "smoke" } else { "full" };
        Expected {
            path: dir.join("expected.json"),
            key: format!("{workload}/{scale}/{seed}"),
            pinned: PINNED_SEEDS.contains(&seed),
        }
    }

    fn load(&self) -> Vec<(String, Json)> {
        match std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
        {
            Some(Json::Obj(entries)) => entries,
            _ => Vec::new(),
        }
    }

    /// Compares `observed` with the pinned entry, as written: floats are
    /// written shortest-round-trip, so equal text is equal bits (and a
    /// whole-valued float reads back as an integer token, which only the
    /// text comparison forgives).
    pub fn check(&self, observed: &Json) -> Verdict {
        if !self.pinned {
            return Verdict::NotPinned;
        }
        match self.load().iter().find(|(k, _)| *k == self.key) {
            Some((_, want)) if want.to_string() == observed.to_string() => Verdict::Match,
            Some((_, want)) => Verdict::Mismatch(format!(
                "{}: expected {want}, observed {observed}",
                self.key
            )),
            None => Verdict::Mismatch(format!("{}: no entry in {}", self.key, self.path.display())),
        }
    }

    /// [`check`](Self::check), or with `bless` make `observed` the pin
    /// first (a pin that cannot be written is a mismatch).
    pub fn settle(&self, observed: &Json, bless: bool) -> Verdict {
        if bless {
            if let Err(e) = self.bless(observed.clone()) {
                return Verdict::Mismatch(format!("cannot write {}: {e}", self.path.display()));
            }
        }
        self.check(observed)
    }

    /// Writes `observed` as the new pin (`--bless`), keeping the file
    /// sorted by key and one entry per line.
    pub fn bless(&self, observed: Json) -> std::io::Result<()> {
        let mut entries = self.load();
        entries.retain(|(k, _)| *k != self.key);
        entries.push((self.key.clone(), observed));
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let body: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("  {}: {v}", Json::Str(k.clone())))
            .collect();
        std::fs::write(&self.path, format!("{{\n{}\n}}\n", body.join(",\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_then_check_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("expected-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let value = Json::Obj(vec![
            ("digest".into(), Json::Str("00ff".into())),
            ("pos".into(), Json::Float(3.3000000000000003)),
            ("z".into(), Json::Float(1.0)),
        ]);
        let e = Expected::new(&dir, "w", true, 42);
        assert!(matches!(e.check(&value), Verdict::Mismatch(_)));
        e.bless(value.clone()).unwrap();
        Expected::new(&dir, "a", true, 7)
            .bless(Json::UInt(1))
            .unwrap();
        assert_eq!(e.check(&value), Verdict::Match);
        assert!(matches!(e.check(&Json::UInt(2)), Verdict::Mismatch(_)));
        assert_eq!(
            Expected::new(&dir, "w", true, 5).check(&value),
            Verdict::NotPinned
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
