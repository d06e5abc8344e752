//! The workloads' fixed parameters. Everything the server's behaviour
//! depends on is set here and nowhere else; `--seed` only seeds the
//! node scatter, the walk and the query placement.

use std::time::Duration;

use lira_serve::session::ServeConfig;

/// Side of the monitored square at 10 000 nodes; grows with √nodes so
/// node density is the same at every scale (the convention of
/// `exp_serve` and `exp_shard`).
const SPACE_AT_10K_M: f64 = 10_000.0;

/// Sim-seconds per round.
pub const DT_S: f64 = 1.0;

/// Largest `Batch` frame the generator sends.
pub const BATCH_CAP: usize = 50_000;

/// Engine shards of the server under test. One, not `lira-serve`'s
/// default of four: a shard is a thread, and on the 2-core reference
/// host four of them (plus the generator) are spread over the cores as
/// the scheduler happens to wake them. An evaluation then takes 11 ms
/// when they land on both cores and 18 ms when they stack on one, and a
/// run flips between the two every few seconds — a benchmark of the
/// scheduler. With one shard the server is one thread, the generator at
/// most two, and no more than two are ever runnable. Results do not
/// depend on the shard count, so digests are those of the default.
pub const SHARDS: usize = 1;

/// One served workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Fleet size.
    pub nodes: usize,
    /// Registered continual queries.
    pub queries: usize,
    /// Fraction of the fleet that moves and re-reports each round.
    pub churn: f64,
    /// `EvalReq` every this many rounds.
    pub eval_every: usize,
    /// `WindowClose` every this many rounds.
    pub window_every: usize,
    /// Open loop: a round is due every `period`, replies or not. `None`
    /// is the closed loop (the next request waits for the reply).
    pub period: Option<Duration>,
    /// The round whose `EvalRes` is the checkpoint: counts and digest up
    /// to here depend on the seed alone, never on `--seconds`. A
    /// multiple of both cadences; every run reaches it, and a `--smoke`
    /// run ends there.
    pub check_round: usize,
    /// Rounds per nominal second: sized once on the 2-core reference
    /// host so that the measured phase takes about `--seconds`, and
    /// never scaled by time at run time. Work must be fixed: evaluation
    /// gets slower as a run goes on (`serve_eval_1m` at four shards:
    /// 76 → 98 ms over 120 rounds in-process), so a faster server given
    /// the same time would be measured on later, slower rounds.
    pub rounds_per_s: f64,
    /// Set-ups per untraced run; `setup_s` is their median. The smaller
    /// the fleet the shorter one set-up and the more it takes to steady
    /// the median.
    pub setups: usize,
}

impl ServeSpec {
    /// Side of the monitored square (m).
    pub fn space_m(&self) -> f64 {
        SPACE_AT_10K_M * (self.nodes as f64 / 10_000.0).max(1.0).sqrt()
    }

    /// Updates per round.
    pub fn churn_per_round(&self) -> usize {
        ((self.nodes as f64 * self.churn) as usize).max(1)
    }

    /// Rounds between two drains of the input queues.
    fn drain_every(&self) -> usize {
        self.eval_every.min(self.window_every)
    }

    /// Total bounded-queue capacity: twice the most updates that can
    /// arrive between two drains (priming the whole fleet included), so
    /// a healthy run drops nothing.
    pub fn queue_capacity(&self) -> usize {
        2 * self.nodes.max(self.churn_per_round() * self.drain_every())
    }

    /// Provisioned service rate µ: twice the offered sim-time rate, so
    /// THROTLOOP holds `z = 1`.
    pub fn service_rate(&self) -> f64 {
        2.0 * self.offered_rate()
    }

    /// Offered load in updates per sim-second.
    pub fn offered_rate(&self) -> f64 {
        self.churn_per_round() as f64 / DT_S
    }

    /// The window length that makes priming the fleet look like
    /// steady-state arrivals to THROTLOOP (λ = the offered rate).
    pub fn prime_window_s(&self) -> f64 {
        self.nodes as f64 / self.offered_rate()
    }

    /// Rounds of one churn cycle: after this many every node has
    /// re-reported once.
    pub fn warmup_rounds(&self) -> usize {
        self.nodes.div_ceil(self.churn_per_round())
    }

    /// The measured phase's round count for a nominal `seconds`: a whole
    /// number of cadence cycles, at least up to the checkpoint.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        let sized = (seconds * self.rounds_per_s).ceil() as usize;
        sized.max(self.check_round).next_multiple_of(self.cycle())
    }

    /// Rounds after which both cadences line up.
    pub fn cycle(&self) -> usize {
        lcm(self.eval_every, self.window_every)
    }

    /// `lira-serve`'s command line for this workload: everything not
    /// listed stays at the binary's defaults.
    pub fn serve_args(&self) -> Vec<String> {
        vec![
            "--nodes".into(),
            self.nodes.to_string(),
            "--space".into(),
            self.space_m().to_string(),
            "--queue-capacity".into(),
            self.queue_capacity().to_string(),
            "--service-rate".into(),
            self.service_rate().to_string(),
            "--conns".into(),
            "1".into(),
            "--shards".into(),
            SHARDS.to_string(),
        ]
    }

    /// The same configuration for the in-process replica.
    pub fn serve_config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.space_m(), self.nodes);
        cfg.queue_capacity = self.queue_capacity();
        cfg.service_rate = self.service_rate();
        cfg.shards = SHARDS;
        cfg.rebalance = false;
        cfg
    }
}

fn lcm(a: usize, b: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    a / gcd(a, b) * b
}

/// Period of `serve_paced`, and its latency limit: a result must be out
/// before the next round is due. One round costs the one-shard server
/// about 18 ms over TCP on the reference host: 45 % utilisation.
pub const PACED_PERIOD: Duration = Duration::from_millis(40);

/// Write-heavy closed loop: ingest-side layers dominate.
pub fn serve_ingest(smoke: bool) -> ServeSpec {
    ServeSpec {
        name: "serve_ingest",
        nodes: if smoke { 2_000 } else { 100_000 },
        queries: if smoke { 20 } else { 1_000 },
        churn: 1.0,
        eval_every: 10,
        window_every: 10,
        period: None,
        check_round: 20,
        rounds_per_s: 50.0,
        setups: 15,
    }
}

/// Read-heavy closed loop over a ~300 MB working set: evaluation at an
/// advancing `t` dominates.
pub fn serve_eval_1m(smoke: bool) -> ServeSpec {
    ServeSpec {
        name: "serve_eval_1m",
        nodes: if smoke { 2_000 } else { 1_000_000 },
        queries: if smoke { 20 } else { 1_000 },
        churn: 0.01,
        eval_every: 1,
        window_every: 10,
        period: None,
        check_round: 10,
        rounds_per_s: 5.0,
        setups: 7,
    }
}

/// Open loop at a fixed rate: freshness with queue wait included.
pub fn serve_paced(smoke: bool) -> ServeSpec {
    ServeSpec {
        name: "serve_paced",
        nodes: if smoke { 2_000 } else { 100_000 },
        queries: if smoke { 20 } else { 1_000 },
        churn: 0.1,
        eval_every: 1,
        window_every: 10,
        period: Some(if smoke {
            Duration::from_millis(20)
        } else {
            PACED_PERIOD
        }),
        check_round: 50,
        rounds_per_s: 1.0 / PACED_PERIOD.as_secs_f64(),
        setups: 15,
    }
}

/// Names of the served workloads, in run order.
pub const SERVE_WORKLOADS: [&str; 3] = ["serve_ingest", "serve_eval_1m", "serve_paced"];

/// Name of the simulator workload.
pub const SIM_WORKLOAD: &str = "sim_paper";

/// Looks a served workload up by name.
pub fn serve_spec(name: &str, smoke: bool) -> Option<ServeSpec> {
    match name {
        "serve_ingest" => Some(serve_ingest(smoke)),
        "serve_eval_1m" => Some(serve_eval_1m(smoke)),
        "serve_paced" => Some(serve_paced(smoke)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rules_hold() {
        for smoke in [false, true] {
            for name in SERVE_WORKLOADS {
                let s = serve_spec(name, smoke).unwrap();
                assert!(s.queue_capacity() >= 2 * s.nodes);
                assert!(s.queue_capacity() >= 2 * s.churn_per_round() * s.drain_every());
                assert_eq!(s.service_rate(), 2.0 * s.churn_per_round() as f64);
                assert_eq!(s.check_round % s.cycle(), 0, "{name}");
                assert_eq!(s.rounds_for(0.0), s.check_round);
                assert_eq!(s.rounds_for(20.0) % s.cycle(), 0);
            }
        }
        assert_eq!(serve_eval_1m(false).space_m(), 100_000.0);
        assert_eq!(serve_ingest(false).rounds_for(20.0), 1000);
        assert_eq!(serve_eval_1m(false).rounds_for(20.0), 100);
        assert_eq!(serve_paced(false).rounds_for(20.0), 500);
        assert_eq!(lcm(4, 6), 12);
    }
}
