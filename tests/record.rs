//! EXPERIMENTS.md holds the standard suite's record in blocks that
//! `results/regenerate.sh` writes, one per binary of its `BINS`, between
//! `<!-- record:<binary> -->` and `<!-- /record -->`. The script rewrites
//! only the blocks it finds, so a binary without one would drop out of
//! the record and out of `--check` unnoticed; this test keeps the
//! markers and the suite aligned.

const DOC: &str = include_str!("../EXPERIMENTS.md");
const SCRIPT: &str = include_str!("../results/regenerate.sh");

/// The binaries of the script's `BINS=(...)` array.
fn suite() -> Vec<&'static str> {
    let start = SCRIPT.find("\nBINS=(").expect("regenerate.sh defines BINS") + "\nBINS=(".len();
    let len = SCRIPT[start..].find(')').expect("BINS=( is closed");
    SCRIPT[start..start + len].split_whitespace().collect()
}

/// The binary each block names, in document order, or why the markers
/// do not pair up.
fn blocks(doc: &str) -> Result<Vec<&str>, String> {
    let mut open: Option<&str> = None;
    let mut named = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        // The names `regenerate.sh`'s awk matches: `[A-Za-z0-9_]+`.
        if let Some(bin) = line
            .strip_prefix("<!-- record:")
            .and_then(|rest| rest.strip_suffix(" -->"))
            .filter(|bin| {
                !bin.is_empty() && bin.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            })
        {
            if let Some(prev) = open {
                return Err(format!("line {n}: block {bin} opens inside {prev}'s"));
            }
            open = Some(bin);
            named.push(bin);
        } else if line == "<!-- /record -->" {
            if open.take().is_none() {
                return Err(format!("line {n}: a block closes that never opened"));
            }
        } else if line.starts_with("<!-- record") || line.starts_with("<!-- /record") {
            return Err(format!("line {n}: malformed marker {line:?}"));
        }
    }
    match open {
        Some(bin) => Err(format!("block {bin} is never closed")),
        None => Ok(named),
    }
}

/// Everything that makes the record and the suite disagree.
fn misalignment(doc: &str, bins: &[&str]) -> Result<(), String> {
    let named = blocks(doc)?;
    for bin in bins {
        match named.iter().filter(|b| *b == bin).count() {
            1 => {}
            0 => return Err(format!("{bin} runs in the suite but has no record block")),
            k => return Err(format!("{bin} has {k} record blocks")),
        }
    }
    match named.iter().find(|b| !bins.contains(b)) {
        Some(stray) => Err(format!(
            "a record block names {stray}, which the suite does not run"
        )),
        None => Ok(()),
    }
}

#[test]
fn every_suite_binary_has_exactly_one_record_block() {
    let bins = suite();
    assert_eq!(bins.len(), 20, "{bins:?}");
    misalignment(DOC, &bins).unwrap();
}

#[test]
fn misaligned_records_are_refused() {
    let bins = ["fig01", "tab01"];
    let block = |bin: &str| format!("<!-- record:{bin} -->\n```text\nx\n```\n<!-- /record -->\n");
    let good = block("fig01") + &block("tab01");
    assert_eq!(misalignment(&good, &bins), Ok(()));
    for (doc, why) in [
        (block("fig01"), "no record block"),
        (good.clone() + &block("tab01"), "2 record blocks"),
        (good.clone() + &block("fig99"), "does not run"),
        (good.clone() + "<!-- record:fig99 -->\n", "never closed"),
        (good.clone() + "<!-- /record -->\n", "never opened"),
        (
            "<!-- record:fig01 -->\n".to_string() + &good,
            "opens inside",
        ),
        (good.clone() + "<!-- record: fig01 -->\n", "malformed"),
    ] {
        let err = misalignment(&doc, &bins).unwrap_err();
        assert!(err.contains(why), "{why:?}: {err}");
    }
}
