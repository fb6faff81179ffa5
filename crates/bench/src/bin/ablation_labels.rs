//! A2 — ablation of the temporary-label range (§10.2): small label
//! ranges cause collisions, which block the MIS (ties keep competing)
//! and slow approximate progress.
//!
//! Thin wrapper over `sinr-lab legacy ablation_labels` (the sweep is a
//! `ScenarioSet` over `mac.label_exp`; see `sinr_bench::exp_ablation`).
//!
//! Run with: `cargo run --release -p sinr-bench --bin ablation_labels`

fn main() {
    sinr_bench::lab::process_main(&["legacy", "ablation_labels"]);
}
