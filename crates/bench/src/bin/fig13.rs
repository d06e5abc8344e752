//! Figure 13: LIRA's E^P_rr and E^C_rr vs query side length w (row `fig13` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig13");
}
