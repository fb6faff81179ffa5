//! E1 — regenerates the local rows of Table 1: empirical `f_ack`,
//! `f_prog`, `f_approg` across density and Λ sweeps.
//!
//! Thin wrapper over `sinr-lab legacy table1_local` (the experiment is
//! spec-driven; see `sinr_bench::exp_local`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin table1_local`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "table1_local"]);
}
