//! Figure 8: Lira-Grid's E^C_rr relative to LIRA vs l (row `fig08` of `lira_bench::figures`).
fn main() {
    lira_bench::figures::run("fig08");
}
