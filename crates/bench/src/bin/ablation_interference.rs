//! A3 — exact vs grid-aggregated interference: reception agreement and
//! wall-clock speedup of the kernel.
//!
//! Thin wrapper over `sinr-lab legacy ablation_interference`.
//!
//! Run with: `cargo run --release -p sinr-bench --bin ablation_interference`

fn main() {
    sinr_bench::lab::legacy("ablation_interference", &[]).expect("known legacy name");
}
