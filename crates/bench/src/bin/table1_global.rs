//! E2 — regenerates the global rows of Table 1: SMB, MMB, CONS over the
//! SINR absMAC.
//!
//! Thin wrapper over `sinr-lab legacy table1_global` (the experiment is
//! spec-driven; see `sinr_bench::exp_global`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin table1_global`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "table1_global"]);
}
