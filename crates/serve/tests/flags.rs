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

/// A shard count other than one is refused before the server binds
/// (OPERATIONS.md §2): the engine evaluates one stripe, and `Welcome`
/// and the report would otherwise advertise stripes that do not run.
/// `--shards 1` is still accepted.
#[test]
fn lira_serve_refuses_more_shards_than_the_engine_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_lira-serve"))
        .args(["--nodes", "10", "--shards", "2"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid configuration") && stderr.contains("one stripe"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing listens");
}

/// A workload the churn generator cannot make is refused before the
/// storm connects, with the usage error's exit status: `--nodes 0` once
/// panicked in the generator (exit 101), and here nothing listens on the
/// address, so a storm that tried to connect would exit 1.
#[test]
fn lira_storm_refuses_an_empty_fleet_before_it_connects() {
    let out = Command::new(env!("CARGO_BIN_EXE_lira-storm"))
        .args(["--connect", "127.0.0.1:1", "--nodes", "0"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("lira-storm: invalid configuration") && stderr.contains("nodes"),
        "{stderr}"
    );
}

/// A server with no node capacity is refused before it binds: every id
/// is at least 0, so it would answer each `Batch` with a protocol error.
#[test]
fn lira_serve_refuses_an_empty_fleet_before_it_binds() {
    let out = Command::new(env!("CARGO_BIN_EXE_lira-serve"))
        .args(["--nodes", "0"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("lira-serve: invalid configuration") && stderr.contains("nodes"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing listens");
}

/// A refusal names "invalid configuration" once, whichever check made
/// it, although the LIRA configuration's own error carries the prefix
/// the binary adds.
#[test]
fn lira_serve_names_an_invalid_configuration_once() {
    for args in [
        ["--space", "nan"],
        ["--space", "0"],
        ["--space", "-100"],
        ["--regions", "5"],
        ["--shards", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lira-serve"))
            .args(["--nodes", "10"])
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.matches("invalid configuration").count(),
            1,
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.starts_with("lira-serve: invalid configuration: "),
            "{stderr}"
        );
    }
}
