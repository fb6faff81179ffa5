//! `sinr-lab` — the single spec-driven experiment driver: list, show,
//! run, sweep and serve declarative scenarios, write and check the
//! paper's results file, and benchmark the sweep runner, the service and
//! the reception kernels.
//!
//! Run with: `cargo run --release -p sinr-bench --bin sinr_lab -- help`

fn main() {
    sinr_bench::lab::process_main();
}
