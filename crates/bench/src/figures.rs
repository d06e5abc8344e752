//! The paper's sweep figures (4–13), and `exp_faults`, as rows of one
//! table. A row's points are values of its row axis (and column axis,
//! if any); each point runs the row's policy roster over the seeds
//! through `run_sweep`. Points run row-major and the roster in table
//! order, because a lane's RNG is `seed + 1000 + index`. [`run`] prints
//! any row through one renderer: under each row value, one line per
//! metric and one with each policy's processed fraction (`proc`), then
//! the row's summaries, read down each column.

use lira_server::prelude::{DelayModel, FaultProfile, LossModel, RetryPolicy};
use lira_sim::prelude::*;
use lira_workload::QueryDistribution;

use crate::{print_header, ratio, run_sweep, write_telemetry_json, AveragedOutcome, ExpArgs};

/// A scenario parameter a figure sets. `Queries` takes an index into
/// [`QueryDistribution::ALL`]; `L` re-derives `α`
/// ([`Scenario::with_regions`]).
#[derive(Debug, Clone, Copy)]
enum Param {
    Z,
    L,
    Queries,
    Fairness,
    QueryRatio,
    QuerySide,
    /// I.i.d. uplink loss through the faulty channel, with up to 0.5 s of
    /// delivery jitter and a 2-shot retry; 0 is the perfect channel.
    Loss,
}

impl Param {
    fn apply(self, v: f64, sc: &mut Scenario) {
        match self {
            Param::Z => sc.throttle = v,
            Param::L => *sc = sc.clone().with_regions(v as usize),
            Param::Queries => sc.query_distribution = QueryDistribution::ALL[v as usize],
            Param::Fairness => sc.fairness = v,
            Param::QueryRatio => sc.query_ratio = v,
            Param::QuerySide => sc.query_side = v,
            Param::Loss if v > 0.0 => {
                *sc = sc.clone().with_faults(FaultProfile {
                    loss: LossModel::Iid { p: v },
                    delay: DelayModel::Uniform {
                        min_s: 0.0,
                        max_s: 0.5,
                    },
                    duplicate_prob: 0.0,
                    outages: Vec::new(),
                    retry: RetryPolicy {
                        max_retries: 2,
                        backoff_s: 0.5,
                    },
                })
            }
            Param::Loss => {}
        }
    }

    fn name(self) -> &'static str {
        match self {
            Param::Z => "z",
            Param::L => "l",
            Param::Queries => "queries",
            Param::Fairness => "Δ⇔",
            Param::QueryRatio => "m/n",
            Param::QuerySide => "w (m)",
            Param::Loss => "loss",
        }
    }

    /// The value as shown: a distribution by name, `z` as a row label to
    /// two places.
    fn shown(self, v: f64, row: bool) -> String {
        match self {
            Param::Queries => QueryDistribution::ALL[v as usize].name().into(),
            Param::Z | Param::Loss if row => format!("{v:.2}"),
            _ => v.to_string(),
        }
    }
}

/// A sweep axis: its values at the standard scale, and at `--full` and
/// `--quick` where those differ (empty where they do not).
struct Axis {
    param: Param,
    values: &'static [f64],
    full: &'static [f64],
    quick: &'static [f64],
}

impl Axis {
    const fn same(param: Param, values: &'static [f64]) -> Self {
        Axis {
            param,
            values,
            full: &[],
            quick: &[],
        }
    }

    fn values(&self, args: &ExpArgs) -> &'static [f64] {
        match (args.full, args.quick) {
            (true, _) if !self.full.is_empty() => self.full,
            (false, true) if !self.quick.is_empty() => self.quick,
            _ => self.values,
        }
    }
}

/// What a line reads off each policy's averaged outcome.
#[derive(Clone, Copy)]
struct Measure {
    label: &'static str,
    digits: usize,
    of: fn(&AveragedOutcome) -> f64,
}

const fn measure(label: &'static str, digits: usize, of: fn(&AveragedOutcome) -> f64) -> Measure {
    Measure { label, digits, of }
}

const POSITION: Measure = measure("E^P_rr (m)", 3, |o| o.mean_position);
const CONTAINMENT: Measure = measure("E^C_rr", 4, |o| o.mean_containment);
const STDDEV: Measure = measure("D^C_ev", 4, |o| o.stddev_containment);
const COV: Measure = measure("C^C_ov", 3, |o| o.cov_containment);
const PROCESSED: Measure = measure("proc", 3, |o| o.processed_fraction);
const DELIVERED: Measure = measure("delivered (%)", 1, |o| (1.0 - o.loss_fraction) * 100.0);
const STALENESS: Measure = measure("staleness (s)", 2, |o| o.mean_staleness_s);

/// One line of a figure: what each policy's cell shows.
#[derive(Clone, Copy)]
enum Metric {
    Value(Measure),
    /// The value with its ratio to the first policy's beside it.
    Versus(Measure),
    /// The value over the first policy's, to the given places; the first
    /// policy's own cell is blank.
    Ratio(Measure, usize),
}

impl Metric {
    fn label(self, base: Policy) -> String {
        match self {
            Metric::Value(m) | Metric::Versus(m) => m.label.into(),
            Metric::Ratio(m, _) => format!("{} / {}", m.label, base.name()),
        }
    }

    /// Policy `p`'s cell: the number the summaries read (none for a blank
    /// or a ratio over zero) and its text.
    fn cell(self, outcomes: &[(Policy, AveragedOutcome)], p: usize) -> (Option<f64>, String) {
        let (Metric::Value(m) | Metric::Versus(m) | Metric::Ratio(m, _)) = self;
        let (v, base) = ((m.of)(&outcomes[p].1), (m.of)(&outcomes[0].1));
        match self {
            Metric::Value(_) => (Some(v), format!("{v:.*}", m.digits)),
            Metric::Versus(_) => (Some(v), format!("{v:.*} ({})", m.digits, ratio(v, base))),
            Metric::Ratio(..) if p == 0 => (None, String::new()),
            Metric::Ratio(..) if base <= 0.0 => (None, "-".into()),
            Metric::Ratio(_, digits) => (Some(v / base), format!("{:.digits$}", v / base)),
        }
    }
}

/// A line under the rows, one per metric, read down each column.
#[derive(Clone, Copy)]
enum Summary {
    /// The column's largest value over its smallest.
    Spread,
    Mean,
    /// Whether the last row's value is above the first's.
    Trend,
}

impl Summary {
    fn of(self, column: &[f64]) -> String {
        let (Some(&first), Some(&last)) = (column.first(), column.last()) else {
            return String::new();
        };
        match self {
            Summary::Spread => {
                let max = column.iter().copied().fold(f64::MIN, f64::max);
                let min = column.iter().copied().fold(f64::MAX, f64::min).max(1e-12);
                format!("{:.2}x", max / min)
            }
            Summary::Mean => format!("{:.2}x", column.iter().sum::<f64>() / column.len() as f64),
            Summary::Trend if last > first => "rises".into(),
            Summary::Trend => "falls".into(),
        }
    }
}

/// One sweep figure.
struct Figure {
    id: &'static str,
    title: &'static str,
    /// The lanes of every cell, in lane order.
    policies: &'static [Policy],
    /// Settings every cell shares.
    fixed: &'static [(Param, f64)],
    rows: Axis,
    cols: Option<Axis>,
    metrics: &'static [Metric],
    /// Each with its label.
    summaries: &'static [(Summary, &'static str)],
    /// What to look for, printed under the table.
    shape: &'static str,
}

const ZS: &[f64] = &[0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9];
const FAIRNESS: Axis = Axis::same(Param::Fairness, &[5.0, 10.0, 25.0, 50.0, 75.0, 95.0]);
const LIRA: &[Policy] = &[Policy::Lira];

/// Figures 4–7: every policy across `z` under one query distribution.
const Z_SWEEP: Figure = Figure {
    id: "",
    title: "",
    policies: &Policy::ALL,
    fixed: &[],
    rows: Axis::same(Param::Z, ZS),
    cols: None,
    metrics: &[Metric::Versus(POSITION), Metric::Versus(CONTAINMENT)],
    summaries: &[],
    shape: "\
paper shape to check: LIRA best everywhere; Random Drop worst by orders of
magnitude near z = 1; all threshold policies converge at small z (≈ 0.25).",
};

/// Every sweep, by binary: the paper's figures (there is no `fig05`:
/// `fig04` prints Figures 4 and 5 from one sweep) and `exp_faults`.
const FIGURES: &[Figure] = &[
    Figure {
        id: "fig04",
        title: "E^P_rr and E^C_rr vs z — Proportional query distribution",
        fixed: &[(Param::Queries, 0.0)],
        ..Z_SWEEP
    },
    Figure {
        id: "fig06",
        title: "E^C_rr vs z — Inverse query distribution",
        fixed: &[(Param::Queries, 1.0)],
        ..Z_SWEEP
    },
    Figure {
        id: "fig07",
        title: "E^C_rr vs z — Random query distribution",
        fixed: &[(Param::Queries, 2.0)],
        ..Z_SWEEP
    },
    Figure {
        id: "fig08",
        title: "Lira-Grid E^C_rr relative to LIRA vs l (z = 0.5)",
        policies: &[Policy::Lira, Policy::LiraGrid],
        fixed: &[(Param::Z, 0.5)],
        rows: Axis {
            full: &[16.0, 64.0, 100.0, 250.0, 400.0],
            ..Axis::same(Param::L, &[16.0, 40.0, 100.0, 169.0, 256.0])
        },
        cols: Some(Axis::same(Param::Queries, &[0.0, 1.0, 2.0])),
        metrics: &[Metric::Ratio(CONTAINMENT, 3)],
        shape: "\
paper shape to check: ratios ≥ ~1 at moderate l, shrinking toward 1 at large l
(the equal grid eventually reaches sufficient granularity).",
        ..Z_SWEEP
    },
    Figure {
        id: "fig09",
        title: "LIRA E^C_rr vs l for different z",
        policies: LIRA,
        rows: Axis {
            full: &[4.0, 16.0, 64.0, 100.0, 250.0, 400.0],
            ..Axis::same(Param::L, &[4.0, 16.0, 40.0, 100.0, 169.0, 256.0])
        },
        cols: Some(Axis::same(Param::Z, &[0.4, 0.5, 0.6, 0.75])),
        metrics: &[Metric::Value(CONTAINMENT)],
        shape: "\
paper shape to check: each column decreases in l then flattens; larger z
columns benefit more from extra regions (more placement freedom to exploit).",
        ..Z_SWEEP
    },
    Figure {
        id: "fig10",
        title: "fairness: D^C_ev and C^C_ov vs Δ⇔ (z = 0.75)",
        policies: &[Policy::Lira, Policy::UniformDelta],
        fixed: &[(Param::Z, 0.75)],
        rows: FAIRNESS,
        metrics: &[Metric::Value(STDDEV), Metric::Value(COV)],
        shape: "\
paper shape to check: LIRA's D^C_ev falls as Δ⇔ grows and stays below
Uniform Δ's; LIRA's C^C_ov grows with Δ⇔ (absolute errors shrink faster
than their spread), so Uniform Δ wins on the normalized fairness measure.",
        ..Z_SWEEP
    },
    Figure {
        id: "fig11",
        title: "LIRA E^P_rr vs Δ⇔ for different z",
        policies: LIRA,
        rows: FAIRNESS,
        cols: Some(Axis::same(Param::Z, &[0.3, 0.5, 0.7, 0.9])),
        metrics: &[Metric::Value(POSITION)],
        summaries: &[(Summary::Spread, "max/min")],
        shape: "\
paper shape to check: columns at the extreme z values are the least
sensitive; intermediate z columns respond most to relaxing Δ⇔.",
        ..Z_SWEEP
    },
    Figure {
        id: "fig12",
        title: "Uniform Δ E^C_rr relative to LIRA vs l, m/n ∈ {0.01, 0.1} (z = 0.5)",
        policies: &[Policy::Lira, Policy::UniformDelta],
        fixed: &[(Param::Z, 0.5)],
        rows: Axis {
            full: &[16.0, 64.0, 250.0],
            ..Axis::same(Param::L, &[16.0, 64.0, 169.0])
        },
        cols: Some(Axis::same(Param::QueryRatio, &[0.01, 0.1])),
        metrics: &[Metric::Ratio(CONTAINMENT, 2)],
        summaries: &[(Summary::Mean, "mean")],
        shape: "\
paper shape to check: the advantage over Uniform Δ is far larger at the
small query ratio, but LIRA still wins clearly at m/n = 0.1.",
    },
    Figure {
        id: "fig13",
        title: "LIRA E^P_rr and E^C_rr vs query side length w (z = 0.5)",
        policies: LIRA,
        fixed: &[(Param::Z, 0.5)],
        rows: Axis {
            quick: &[200.0, 400.0, 800.0],
            ..Axis::same(Param::QuerySide, &[250.0, 500.0, 1000.0, 2000.0, 3000.0])
        },
        metrics: &[Metric::Value(POSITION), Metric::Value(CONTAINMENT)],
        summaries: &[(Summary::Trend, "trend")],
        shape: "paper shape to check: position error increasing, containment error decreasing.",
        ..Z_SWEEP
    },
    Figure {
        id: "exp_faults",
        title: "policy accuracy vs uplink loss rate (faulty channel, 2-shot retry)",
        rows: Axis::same(Param::Loss, &[0.0, 0.1, 0.2, 0.4, 0.6]),
        metrics: &[
            Metric::Versus(CONTAINMENT),
            Metric::Value(DELIVERED),
            Metric::Value(STALENESS),
        ],
        shape: "\
paper shape to check: errors grow with loss for every policy, but the ordering
is preserved — LIRA stays best, Random Drop worst. The retry budget recovers
most single losses (delivered stays high until the loss rate swamps 3 shots).",
        ..Z_SWEEP
    },
];

/// Runs the sweep figure `id` (a `figNN` binary's name) at the scale the
/// command line selects and prints it; the z sweeps also write their
/// telemetry. Panics on an id `FIGURES` does not hold.
pub fn run(id: &str) {
    let fig = FIGURES
        .iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("no sweep figure {id}"));
    let args = ExpArgs::parse();
    let base = args.base_scenario();
    print_header(fig.id, fig.title, &args, &base);

    let rows = fig.rows.values(&args);
    // A figure without a column axis has one column that sets nothing.
    let cols: Vec<Option<f64>> = match &fig.cols {
        Some(axis) => axis.values(&args).iter().copied().map(Some).collect(),
        None => vec![None],
    };
    let points: Vec<(f64, Option<f64>)> = rows
        .iter()
        .flat_map(|&r| cols.iter().map(move |&c| (r, c)))
        .collect();
    let cells = run_sweep(&args.seeds, fig.policies, &points, |&(r, c), seed| {
        let mut sc = base.clone();
        sc.seed = seed;
        let col = fig.cols.as_ref().zip(c).map(|(axis, v)| (axis.param, v));
        let row = [(fig.rows.param, r)];
        for (param, v) in fig.fixed.iter().copied().chain(row).chain(col) {
            param.apply(v, &mut sc);
        }
        sc
    });
    print!("{}", fig.render(rows, &cols, &cells));

    // The z sweeps (4–7) write each (point, policy)'s merged lane
    // telemetry to `results/telemetry/<id>.json`.
    if matches!(fig.rows.param, Param::Z) {
        let name = fig.rows.param.name();
        let entries: Vec<(String, &TelemetrySnapshot)> = points
            .iter()
            .zip(&cells)
            .flat_map(|(&(r, _), outcomes)| {
                let label = move |p: &Policy| format!("{name}={r} {}", p.name());
                outcomes.iter().map(move |(p, o)| (label(p), &o.telemetry))
            })
            .collect();
        match write_telemetry_json(fig.id, &entries) {
            Ok(path) => println!("telemetry: {}", path.display()),
            Err(e) => eprintln!("telemetry: not written ({e})"),
        }
    }
}

impl Figure {
    /// The table and the shape note. `cells` holds one roster of averaged
    /// outcomes per (row, column) point, row-major.
    fn render(
        &self,
        rows: &[f64],
        cols: &[Option<f64>],
        cells: &[Vec<(Policy, AveragedOutcome)>],
    ) -> String {
        let (base, n) = (self.policies[0], self.policies.len());
        // A column heading over each value's first policy, then the roster.
        let mut header = Vec::new();
        if let Some(axis) = &self.cols {
            let mut line = vec![String::new(); 2 + cols.len() * n];
            for (k, &v) in cols.iter().flatten().enumerate() {
                line[2 + k * n] = match axis.param {
                    Param::Queries => axis.param.shown(v, false),
                    p => format!("{} = {}", p.name(), p.shown(v, false)),
                };
            }
            header.push(line);
        }
        if n > 1 || self.cols.is_none() {
            let names = self.policies.iter().map(|p| p.name().to_string());
            header.push(
                [String::new(), String::new()]
                    .into_iter()
                    .chain(names.cycle().take(cols.len() * n))
                    .collect(),
            );
        }
        header[0][0] = self.rows.param.name().into();

        let metrics = [self.metrics, &[Metric::Value(PROCESSED)]].concat();
        // values[metric][row][column]: the numbers the summaries read.
        let mut values = vec![vec![Vec::new(); rows.len()]; metrics.len()];
        let mut body = Vec::new();
        for (ri, &row) in rows.iter().enumerate() {
            for (mi, metric) in metrics.iter().enumerate() {
                let label = (mi == 0).then(|| self.rows.param.shown(row, true));
                let label = label.unwrap_or_default();
                let mut line = vec![label, metric.label(base)];
                for outcomes in &cells[ri * cols.len()..(ri + 1) * cols.len()] {
                    for p in 0..n {
                        let (value, text) = metric.cell(outcomes, p);
                        values[mi][ri].push(value);
                        line.push(text);
                    }
                }
                body.push(line);
            }
        }
        for &(summary, name) in self.summaries {
            for (mi, metric) in self.metrics.iter().enumerate() {
                let mut line = vec![name.to_string(), metric.label(base)];
                for k in 0..cols.len() * n {
                    let column: Vec<f64> = values[mi].iter().filter_map(|row| row[k]).collect();
                    line.push(summary.of(&column));
                }
                body.push(line);
            }
        }

        let versus = self.metrics.iter().any(|m| matches!(m, Metric::Versus(_)));
        let legend = format!(
            "metric columns: absolute value (relative to {})\n",
            base.name()
        );
        let legend = if versus { legend } else { String::new() };
        legend + &table(&header, &body) + "\n" + self.shape + "\n"
    }
}

/// Lays out equally long lines as a text table under a rule: the first
/// column right-aligned, the second left-aligned, the cells
/// right-aligned, each as wide as its widest entry.
fn table(header: &[Vec<String>], body: &[Vec<String>]) -> String {
    let mut widths = vec![0; header[0].len()];
    for line in header.iter().chain(body) {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let render = |line: &Vec<String>| {
        let cells = line
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(k, (cell, &w))| match k {
                1 => format!("{cell:<w$}"),
                _ => format!("{cell:>w$}"),
            });
        cells
            .collect::<Vec<_>>()
            .join(" | ")
            .trim_end_matches([' ', '|'])
            .to_string()
            + "\n"
    };
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let header: String = header.iter().map(render).collect();
    header + &rule.join("-+-") + "\n" + &body.iter().map(render).collect::<String>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(containment: f64, processed: f64) -> AveragedOutcome {
        AveragedOutcome {
            mean_containment: containment,
            processed_fraction: processed,
            ..AveragedOutcome::default()
        }
    }

    #[test]
    fn every_sweep_binary_has_one_row() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "fig04",
                "fig06",
                "fig07",
                "fig08",
                "fig09",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "exp_faults"
            ]
        );
    }

    #[test]
    fn a_ratio_line_leaves_the_base_blank_and_every_row_prints_its_budget() {
        let fig = &FIGURES[7]; // fig12: LIRA vs Uniform Δ, l × m/n, mean summary
        let cell = |lira: f64, uni: f64| {
            vec![
                (Policy::Lira, outcome(lira, 0.5)),
                (Policy::UniformDelta, outcome(uni, 0.45)),
            ]
        };
        let cells = [
            cell(0.01, 0.02),
            cell(0.01, 0.011),
            cell(0.02, 0.02),
            cell(0.0, 0.01),
        ];
        let out = fig.render(&[16.0, 64.0], &[Some(0.01), Some(0.1)], &cells);
        let lines: Vec<Vec<&str>> = out
            .lines()
            .map(|line| line.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(lines[0], ["l", "", "m/n = 0.01", "", "m/n = 0.1"]);
        assert_eq!(
            lines[1],
            ["", "", "LIRA", "Uniform Delta", "LIRA", "Uniform Delta"]
        );
        assert_eq!(lines[3], ["16", "E^C_rr / LIRA", "", "2.00", "", "1.10"]);
        assert_eq!(lines[4], ["", "proc", "0.500", "0.450", "0.500", "0.450"]);
        // A zero base prints "-" and drops out of the mean.
        assert_eq!(lines[5], ["64", "E^C_rr / LIRA", "", "1.00", "", "-"]);
        assert_eq!(
            lines[7],
            ["mean", "E^C_rr / LIRA", "", "1.50x", "", "1.10x"]
        );
    }

    #[test]
    fn summaries_read_down_a_column() {
        assert_eq!(Summary::Spread.of(&[2.0, 6.0, 3.0]), "3.00x");
        assert_eq!(Summary::Mean.of(&[1.0, 2.0]), "1.50x");
        assert_eq!(Summary::Trend.of(&[1.0, 0.5, 2.0]), "rises");
        assert_eq!(Summary::Trend.of(&[2.0, 3.0, 1.0]), "falls");
        assert_eq!(Summary::Mean.of(&[]), "");
    }
}
