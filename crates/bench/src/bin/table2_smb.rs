//! E3 — regenerates Table 2: global SMB, ours vs DGKN [14] vs the
//! Decay/[32] proxy, with the paper's crossover quantities.
//!
//! Thin wrapper over `sinr-lab legacy table2_smb` (the experiment is
//! spec-driven; see `sinr_bench::exp_table2::table2_specs`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin table2_smb`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "table2_smb"]);
}
