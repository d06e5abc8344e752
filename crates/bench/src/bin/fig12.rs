//! Figure 12: Uniform Δ E^C_rr relative to LIRA vs l and m/n (`lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig12");
}
