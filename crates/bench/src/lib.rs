//! Experiment harness regenerating the paper's tables (the README's
//! "Paper results" table indexes them), built on the declarative
//! scenario API of `sinr-scenario`.
//!
//! Each experiment module exposes **spec constructors** (a
//! `ScenarioSpec` per measurement leg, on the `cached` backend) plus a
//! post-processor that runs the spec and extracts the paper's
//! quantities. The [`paper`] module runs them into the thirteen tables of
//! the committed `PAPER_RESULTS.json` and checks each table's claim; the
//! [`lab`] driver (`sinr-lab` binary) exposes that as `sinr-lab paper`
//! next to `list`/`show`/`run`/`sweep`/`serve` over specs and `bench`,
//! which writes the three `BENCH_*.json` files through [`harness`].
//!
//! The paper tables measure **slot counts** of the simulated network —
//! the unit the paper's bounds are stated in — not wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod exp_ablation;
pub mod exp_decay;
pub mod exp_fig1;
pub mod exp_global;
pub mod exp_local;
pub mod exp_table2;
pub mod harness;
pub mod lab;
pub mod paper;
pub mod reception_bench;
pub mod service_bench;
