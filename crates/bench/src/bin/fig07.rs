//! Figure 7: E^C_rr vs z, Random queries (row `fig07` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig07");
}
