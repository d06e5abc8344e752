//! # lira-bench
//!
//! Experiment harness for the LIRA reproduction: one binary per table and
//! figure of the paper's evaluation (see DESIGN.md §6 for the index), plus
//! Criterion micro-benchmarks of the server-side algorithms.
//!
//! Every binary accepts:
//!
//! * `--quick` — a reduced scale for smoke runs (seconds);
//! * `--full`  — the paper's full Table 2 scale (`l = 250`, `α = 128`,
//!   10 000 nodes, ~200 km², 1 h trace);
//! * `--seeds N` — number of seeds to average over (default 3: 17, 101
//!   and 202; `N` takes the first `N` of 17, 101, 202, then `17 + 85·i`);
//! * `--nodes N`, `--duration S` — explicit overrides.
//!
//! The default (no flags) is the *standard* scale recorded in
//! EXPERIMENTS.md: ~50 km², 2 000 nodes, 240 s measured — big enough for
//! the paper's effects, small enough that the full suite reruns in minutes.

#![forbid(unsafe_code)]

use lira_sim::prelude::*;

pub mod sweep;

pub use sweep::{run_averaged, run_sweep, AveragedOutcome};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Use the paper's full Table 2 scale.
    pub full: bool,
    /// Use a reduced smoke-test scale.
    pub quick: bool,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Override the number of mobile nodes.
    pub nodes: Option<usize>,
    /// Override the measured duration (seconds).
    pub duration: Option<f64>,
}

/// The `i`-th seed of the one seed list: the default three, then
/// `17 + 85·i` (≡ 17 mod 85, so never one of the three). `--seeds N` runs
/// the first `N`.
fn seed(i: usize) -> u64 {
    [17, 101, 202].get(i).copied().unwrap_or(17 + 85 * i as u64)
}

impl ExpArgs {
    /// Parses `std::env::args()`. Unknown flags and bad values abort with
    /// a usage message (exit 2), and so does a scale the simulator would
    /// refuse (`--nodes 0`, a `--duration` that is not finite and
    /// positive), before any binary prints its header.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg))
    }

    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            v: Option<String>,
            what: &str,
        ) -> Result<T, String> {
            v.and_then(|v| v.parse().ok())
                .ok_or(format!("{flag} needs {what}"))
        }
        let mut parsed = ExpArgs {
            full: false,
            quick: false,
            seeds: (0..3).map(seed).collect(),
            nodes: None,
            duration: None,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => parsed.full = true,
                "--quick" => parsed.quick = true,
                "--seeds" => match value(&a, it.next(), "a count")? {
                    0 => return Err("--seeds needs a count of at least 1".into()),
                    n => parsed.seeds = (0..n).map(seed).collect(),
                },
                "--nodes" => parsed.nodes = Some(value(&a, it.next(), "a count")?),
                "--duration" => parsed.duration = Some(value(&a, it.next(), "seconds")?),
                "--help" | "-h" => {
                    return Err(
                        "options: --quick | --full | --seeds N | --nodes N | --duration S".into(),
                    )
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        parsed
            .base_scenario()
            .validate()
            .map_err(|e| format!("invalid scale: {e}"))?;
        Ok(parsed)
    }

    /// The base scenario at the selected scale (before per-experiment
    /// parameter overrides).
    pub fn base_scenario(&self) -> Scenario {
        let mut sc = if self.full {
            Scenario::paper(17)
        } else if self.quick {
            let mut s = Scenario::small(17);
            s.num_cars = 400;
            s.duration_s = 90.0;
            s
        } else {
            Scenario::default()
        };
        if let Some(n) = self.nodes {
            sc.num_cars = n;
        }
        if let Some(d) = self.duration {
            sc.duration_s = d;
        }
        sc
    }

    /// Human-readable scale label for the output header.
    pub(crate) fn scale_label(&self) -> &'static str {
        if self.full {
            "full (paper Table 2)"
        } else if self.quick {
            "quick (smoke)"
        } else {
            "standard"
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The `host` block a `BENCH_*.json` carries so its numbers can be read
/// against the machine and the code that produced them: logical cores,
/// CPU model, `rustc -V`, the commit of the checkout in the current
/// directory with a dirty flag (`"unknown"` / `null` outside a git
/// checkout), and the cargo profile. The same fields `benchmark/` stamps
/// on its results.
pub fn host_json() -> lira_core::telemetry::json::Json {
    use lira_core::telemetry::json::Json;
    let run = |program: &str, args: &[&str]| {
        let out = std::process::Command::new(program)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    let dirty = run("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        (
            "logical_cores".into(),
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model".into(), Json::Str(cpu_model)),
        (
            "rustc".into(),
            Json::Str(run("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "commit".into(),
            Json::Str(run("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        ("profile".into(), Json::Str(profile.into())),
    ])
}

/// Writes labelled telemetry snapshots to `results/telemetry/<id>.json`
/// (created if missing) and returns the path. The file is a JSON array of
/// `{"label": ..., "snapshot": ...}` objects, each snapshot in the schema
/// of docs/TELEMETRY.md, so experiment telemetry lands next to the
/// experiment's printed results without altering them.
pub(crate) fn write_telemetry_json(
    id: &str,
    entries: &[(String, &TelemetrySnapshot)],
) -> std::io::Result<std::path::PathBuf> {
    use lira_core::telemetry::json::Json;
    let dir = std::path::Path::new("results").join("telemetry");
    std::fs::create_dir_all(&dir)?;
    let items = entries
        .iter()
        .map(|(label, snap)| {
            let snapshot = Json::parse(&snap.to_json()).expect("snapshot serializes to valid JSON");
            Json::Obj(vec![
                ("label".to_string(), Json::Str(label.clone())),
                ("snapshot".to_string(), snapshot),
            ])
        })
        .collect();
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, format!("{}\n", Json::Arr(items)))?;
    Ok(path)
}

/// Prints the standard experiment header.
pub fn print_header(id: &str, title: &str, args: &ExpArgs, sc: &Scenario) {
    println!("== {id}: {title}");
    println!(
        "scale: {} | {} nodes | {:.0} km² | {} s measured | {} seed(s) | l = {}, α = {}",
        args.scale_label(),
        sc.num_cars,
        sc.space_side * sc.space_side / 1e6,
        sc.duration_s,
        args.seeds.len(),
        sc.num_regions,
        sc.alpha,
    );
    println!();
}

/// Builds a committed [`StatsGrid`](lira_core::stats_grid::StatsGrid)
/// snapshot from the simulator's current
/// cars and the query workload — the observation step every experiment
/// binary performs before asking a policy for a shedding plan.
pub fn snapshot_grid(
    alpha: usize,
    bounds: lira_core::geometry::Rect,
    sim: &lira_mobility::simulator::TrafficSimulator,
    queries: &[lira_server::query::RangeQuery],
) -> lira_core::stats_grid::StatsGrid {
    let mut grid = lira_core::stats_grid::StatsGrid::new(alpha, bounds).unwrap();
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    for q in queries {
        grid.observe_query(&q.range);
    }
    grid.commit_snapshot();
    grid
}

/// Formats a ratio column: "x.xx", or "-" when the base is zero.
pub fn ratio(v: f64, base: f64) -> String {
    if base > 0.0 {
        format!("{:.2}", v / base)
    } else {
        "-".to_string()
    }
}

/// Shared implementation of the throttle-fraction sweeps (Figures 4–7):
/// every policy in the roster across `z` values, reporting both error
/// metrics absolutely and relative to LIRA, and beside them the fraction
/// of the reference's updates each policy processed (`proc:`), which
/// says whether the policies spent the same budget.
pub fn z_sweep_experiment(id: &str, title: &str, distribution: lira_workload::QueryDistribution) {
    let args = ExpArgs::parse();
    let base = args.base_scenario();
    print_header(id, title, &args, &base);

    let zs = [0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9];
    println!("metric columns: absolute value (relative to LIRA)");
    print!("     z |");
    for p in Policy::ALL {
        print!(" {:>22} |", p.name());
    }
    println!();
    println!("{}", "-".repeat(8 + Policy::ALL.len() * 25));
    let fmt = |v: f64, base: f64, position: bool| -> String {
        let abs = if position {
            format!("{v:.3} m")
        } else {
            format!("{v:.4}")
        };
        format!("{abs} ({})", ratio(v, base))
    };
    let rows = run_sweep(&args.seeds, &Policy::ALL, &zs, |&z, seed| {
        let mut sc = base.clone();
        sc.seed = seed;
        sc.throttle = z;
        sc.query_distribution = distribution;
        sc
    });
    for (z, outcomes) in zs.iter().zip(&rows) {
        let lira_pos = outcomes[0].1.mean_position;
        let lira_con = outcomes[0].1.mean_containment;
        let pos_row: Vec<String> = outcomes
            .iter()
            .map(|(_, o)| fmt(o.mean_position, lira_pos, true))
            .collect();
        let con_row: Vec<String> = outcomes
            .iter()
            .map(|(_, o)| fmt(o.mean_containment, lira_con, false))
            .collect();
        let proc_row: Vec<String> = outcomes
            .iter()
            .map(|(_, o)| format!("{:.3}", o.processed_fraction))
            .collect();
        let join = |row: &[String]| {
            row[1..]
                .iter()
                .map(|c| format!(" | {c:>22}"))
                .collect::<String>()
        };
        println!("{z:>6.2} | E^P: {:>17}{}", pos_row[0], join(&pos_row));
        println!("       | E^C: {:>17}{}", con_row[0], join(&con_row));
        println!("       | proc: {:>16}{}", proc_row[0], join(&proc_row));
    }
    println!();
    println!("paper shape to check: LIRA best everywhere; Random Drop worst by orders of");
    println!("magnitude near z = 1; all threshold policies converge at small z (≈ 0.25).");

    // Telemetry rides along: one merged snapshot per (z, policy) cell.
    let entries: Vec<(String, &TelemetrySnapshot)> = zs
        .iter()
        .zip(&rows)
        .flat_map(|(z, outcomes)| {
            outcomes
                .iter()
                .map(move |(p, o)| (format!("z={z} {}", p.name()), &o.telemetry))
        })
        .collect();
    match write_telemetry_json(id, &entries) {
        Ok(path) => println!("telemetry: {}", path.display()),
        Err(e) => eprintln!("telemetry: not written ({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds_of(args: &[&str]) -> Result<Vec<u64>, String> {
        parse(args).map(|a| a.seeds)
    }

    #[test]
    fn seeds_3_equals_the_default() {
        assert_eq!(seeds_of(&[]).unwrap(), [17, 101, 202]);
        assert_eq!(seeds_of(&["--seeds", "3"]).unwrap(), seeds_of(&[]).unwrap());
    }

    #[test]
    fn seeds_1_is_the_first_default() {
        assert_eq!(seeds_of(&["--quick", "--seeds", "1"]).unwrap(), [17]);
    }

    #[test]
    fn seeds_10_extends_the_default_with_distinct_seeds() {
        let ten = seeds_of(&["--seeds", "10"]).unwrap();
        assert_eq!(ten.len(), 10);
        assert_eq!(ten[..3], seeds_of(&[]).unwrap()[..]);
        let mut distinct = ten.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 10, "{ten:?}");
    }

    #[test]
    fn seeds_0_and_bad_counts_are_refused() {
        for bad in [&["--seeds", "0"][..], &["--seeds", "x"], &["--seeds"]] {
            assert!(seeds_of(bad).is_err(), "{bad:?}");
        }
    }

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn scales_the_simulator_refuses_are_refused() {
        for d in ["nan", "inf", "0", "-5"] {
            assert!(
                parse(&["--quick", "--duration", d]).is_err(),
                "--duration {d}"
            );
        }
        assert!(parse(&["--quick", "--nodes", "0"]).is_err(), "--nodes 0");
    }

    #[test]
    fn edge_scales_the_simulator_runs_are_accepted() {
        let a = parse(&["--quick", "--duration", "0.5", "--nodes", "1"]).unwrap();
        assert_eq!((a.nodes, a.duration), (Some(1), Some(0.5)));
    }

    #[test]
    fn base_scenarios_are_valid() {
        let a = ExpArgs {
            full: false,
            quick: true,
            seeds: vec![1],
            nodes: Some(100),
            duration: Some(30.0),
        };
        let sc = a.base_scenario();
        assert_eq!(sc.num_cars, 100);
        assert_eq!(sc.duration_s, 30.0);
        sc.lira_config().validate().unwrap();
        assert_eq!(a.scale_label(), "quick (smoke)");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(2.0, 1.0), "2.00");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
