//! docs/OPERATIONS.md's flag tables are the binaries' flags: §2 lists
//! exactly the `--flag`s `lira-serve --help` prints, §3 exactly those of
//! `lira-storm --help`. And a value §2 bounds is refused as it says.

use std::collections::BTreeSet;
use std::process::Command;

const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");

/// Every `--flag` token in `text`.
fn flags(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.len() > 2 && t.starts_with("--"))
        .map(str::to_string)
        .collect()
}

/// The flags in the first column of the table under `heading`.
fn documented(heading: &str) -> BTreeSet<String> {
    let start = OPERATIONS
        .find(heading)
        .unwrap_or_else(|| panic!("OPERATIONS.md has no {heading:?}"));
    let section = &OPERATIONS[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
        .flat_map(|(cell, _)| flags(cell))
        .collect()
}

/// The flags in the usage text `--help` prints (exit 2, on stderr).
fn usage(exe: &str) -> BTreeSet<String> {
    let out = Command::new(exe)
        .arg("--help")
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(2), "{exe} --help");
    let mut found = flags(&String::from_utf8_lossy(&out.stderr));
    found.remove("--help");
    found
}

#[test]
fn the_lira_serve_table_is_its_usage() {
    let table = documented("## 2. `lira-serve` flags");
    assert_eq!(table, usage(env!("CARGO_BIN_EXE_lira-serve")));
}

#[test]
fn the_lira_storm_table_is_its_usage() {
    let table = documented("## 3. `lira-storm` flags");
    assert_eq!(table, usage(env!("CARGO_BIN_EXE_lira-storm")));
}

/// A shard count the engine would clamp is refused before the server
/// binds (OPERATIONS.md §2): `Welcome` and the report would otherwise
/// advertise stripes that do not run.
#[test]
fn lira_serve_refuses_more_shards_than_the_engine_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_lira-serve"))
        .args(["--nodes", "10", "--shards", "33"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid configuration") && stderr.contains("at most 32"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing listens");
}
