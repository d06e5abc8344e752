//! docs/WIRE.md §5's refusal table names, in its last column, the tests
//! that pin each row; every name must be a `#[test] fn` in
//! `crates/serve/src/session.rs`, and every row must name one. A row
//! whose test is renamed or deleted fails here instead of leaving the
//! document's claim unpinned.

const WIRE: &str = include_str!("../../../docs/WIRE.md");
const SESSION: &str = include_str!("../src/session.rs");

/// The rows of the table in §5, as their cells.
fn refusal_rows() -> Vec<Vec<&'static str>> {
    let heading = "## 5. Error and overload semantics";
    let start = WIRE
        .find(heading)
        .unwrap_or_else(|| panic!("WIRE.md has no {heading:?}"));
    let section = &WIRE[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|line| line.trim().strip_prefix('|')?.strip_suffix('|'))
        .map(|row| row.split('|').map(str::trim).collect::<Vec<_>>())
        // The header row and the `|---|` rule.
        .filter(|cells| cells[0] != "frame" && !cells[0].starts_with("---"))
        .collect()
}

/// The backticked names in one cell.
fn names(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

#[test]
fn every_refusal_row_names_a_session_test_that_exists() {
    let rows = refusal_rows();
    assert_eq!(rows.len(), 5, "the table's rows: {rows:?}");
    for cells in rows {
        let pinned = cells.last().expect("a row has cells");
        let tests = names(pinned);
        assert!(!tests.is_empty(), "row {:?} names no test", cells[0]);
        for name in tests {
            assert!(
                SESSION.contains(&format!("#[test]\n    fn {name}()")),
                "row {:?}: session.rs has no test `{name}`",
                cells[0]
            );
        }
    }
}
