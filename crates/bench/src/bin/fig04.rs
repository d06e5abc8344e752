//! Figures 4 and 5: mean position error E^P_rr (Figure 4) and mean
//! containment error E^C_rr (Figure 5) vs throttle fraction z, Proportional
//! query distribution, every policy, absolute + relative-to-LIRA. One
//! sweep prints both figures' rows.

fn main() {
    lira_bench::z_sweep_experiment(
        "fig04",
        "E^P_rr and E^C_rr vs z — Proportional query distribution",
        lira_workload::QueryDistribution::Proportional,
    );
}
