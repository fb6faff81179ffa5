//! Experiment harness regenerating the paper's tables and figures (the
//! README's "Legacy regenerators" table indexes them), built on the
//! declarative scenario API of `sinr-scenario`.
//!
//! Each experiment module exposes **spec constructors** (a
//! `ScenarioSpec` per measurement leg) plus a post-processor that runs
//! the spec and extracts the paper's quantities. They are called by
//!
//! * the [`lab`] driver (`sinr-lab` binary: `list`/`show`/`run`/`sweep`
//!   over specs, JSON reports, plus `legacy` reprints of every table), and
//! * the legacy binaries in `src/bin/` — thin wrappers over
//!   [`lab::legacy`], kept so published invocations stay valid.
//!
//! All measurements are **slot counts** of the simulated network — the
//! unit the paper's bounds are stated in — not wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod exp_ablation;
pub mod exp_decay;
pub mod exp_fig1;
pub mod exp_global;
pub mod exp_local;
pub mod exp_table2;
pub mod lab;
pub mod reception_bench;
pub mod service_bench;
