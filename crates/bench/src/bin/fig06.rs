//! Figure 6: E^C_rr vs z, Inverse queries (row `fig06` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig06");
}
