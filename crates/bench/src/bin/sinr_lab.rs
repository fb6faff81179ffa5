//! `sinr-lab` — the single spec-driven experiment driver: list, show,
//! run and sweep declarative scenarios, benchmark the sweep runner, and
//! reprint any legacy regenerator's tables.
//!
//! Run with: `cargo run --release -p sinr-bench --bin sinr_lab -- help`

fn main() {
    sinr_bench::lab::process_main(&[]);
}
