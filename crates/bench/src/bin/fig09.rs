//! Figure 9: LIRA's E^C_rr vs l for different z (row `fig09` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig09");
}
