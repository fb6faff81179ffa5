//! A1 — ablation of the repetition count `T` (§10.1.2): short estimation
//! windows mis-estimate H̃̃ and inflate the drop-out set `W`.
//!
//! Thin wrapper over `sinr-lab legacy ablation_t` (the sweep is a
//! `ScenarioSet` over `mac.t_mult`; see `sinr_bench::exp_ablation`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin ablation_t`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "ablation_t"]);
}
