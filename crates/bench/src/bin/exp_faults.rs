//! Accuracy under an imperfect uplink: the policy roster across an
//! i.i.d. loss rate, through the deterministic fault-injection channel
//! (`FaultyChannel`) with a small bounded delivery delay and a two-shot
//! retry budget. The shape to check: every policy degrades as loss grows,
//! but the source-side policies degrade gracefully while Random Drop
//! starts worst and stays worst. A row of `lira_bench::figures`.
fn main() {
    lira_bench::figures::run("exp_faults");
}
