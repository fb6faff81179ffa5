//! `sinr-serve`: a persistent scenario service for the SINR lab.
//!
//! The batch tools (`sinr-lab run` / `sweep`) pay the dominant cost of
//! every invocation — preparing gain tables, O(n²) dense or O(n·near)
//! hybrid — from scratch each time. This crate keeps a process alive
//! instead: clients submit [`sinr_scenario::ScenarioSpec`] /
//! [`sinr_scenario::ScenarioSet`] requests as JSON lines over stdin or
//! a Unix-domain socket, a fixed worker pool executes them, and
//! per-cell reports stream back as NDJSON while a byte-budgeted LRU
//! cache of prepared deployments ([`sinr_scenario::TableCache`], the
//! structure sweeps share preparations through) turns repeat geometry
//! into O(1) setup. Every cell runs through
//! [`sinr_scenario::execute_cell`], so a panicking request becomes an
//! error record and the service serves on.
//!
//! Layering: `geom` → `phys` → … → `scenario` → **`serve`** → `bench`
//! (the `sinr-lab serve` subcommand is the shipping entry point; this
//! crate stays binary-free so the bench crate can also drive it
//! in-process for the request-storm benchmark).
//!
//! Everything is std-only, like the rest of the workspace. The single
//! `#[allow(unsafe_code)]` exception is the SIGTERM handler
//! registration in [`install_sigterm_drain`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod service;
mod signal;

pub use service::{ServeConfig, ServeSummary, Service};
pub use signal::{draining, install_sigterm_drain};
pub use sinr_scenario::CacheStats;
