//! Figure 11: LIRA's E^P_rr vs Δ⇔ for different z (row `fig11` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig11");
}
