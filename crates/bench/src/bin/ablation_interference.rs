//! A3 — exact vs the hybrid near/far kernel: reception agreement and
//! wall-clock speedup over the churn schedule.
//!
//! Thin wrapper over `sinr-lab legacy ablation_interference`.
//!
//! Run with: `cargo run --release -p sinr-bench --bin ablation_interference`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "ablation_interference"]);
}
