//! E5 — regenerates the Theorem 8.1 comparison: Decay vs Algorithm 9.1
//! approximate progress on the two-ball gadget.
//!
//! Thin wrapper over `sinr-lab legacy decay_vs_approg` (the experiment
//! is spec-driven; see `sinr_bench::exp_decay::decay_pair`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin decay_vs_approg`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "decay_vs_approg"]);
}
