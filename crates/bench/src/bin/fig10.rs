//! Figure 10: fairness, D^C_ev and C^C_ov vs Δ⇔ (row `fig10` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig10");
}
