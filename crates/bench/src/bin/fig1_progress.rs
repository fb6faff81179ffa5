//! E4 — regenerates Figure 1 / Theorem 6.1: progress is Ω(Δ) even for an
//! optimal schedule; approximate progress is not.
//!
//! Thin wrapper over `sinr-lab legacy fig1_progress` (the experiment is
//! spec-driven; see `sinr_bench::exp_fig1::mac_spec`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin fig1_progress`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "fig1_progress"]);
}
