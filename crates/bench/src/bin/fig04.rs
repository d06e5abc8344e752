//! Figures 4 and 5: E^P_rr and E^C_rr vs z, Proportional queries (one sweep; row `fig04` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig04");
}
