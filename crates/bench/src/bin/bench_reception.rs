//! Reception-kernel throughput benchmark, emitting
//! `BENCH_reception.json` (see `sinr_bench::reception_bench`).
//!
//! Thin wrapper over `sinr-lab legacy bench_reception`.
//!
//! Run with:
//! `cargo run --release -p sinr-bench --bin bench_reception [OUT.json]`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "bench_reception"]);
}
