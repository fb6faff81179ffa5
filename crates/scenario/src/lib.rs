//! Declarative scenario API for the SINR local-broadcast workspace.
//!
//! The paper's central systems claim (§2.2, §12) is *plug-and-play*:
//! protocols written against the abstract MAC layer run unchanged over
//! any implementation. This crate makes that claim real at the tooling
//! layer: one [`ScenarioSpec`] — a serializable, builder-constructed
//! value — describes a full experiment, and swapping the MAC (or the
//! deployment, or the reception backend) is a one-field edit, not a new
//! binary.
//!
//! # The knobs and their paper provenance
//!
//! | spec field | paper source |
//! |------------|--------------|
//! | `deploy`   | evaluation workloads: uniform/cluster deployments, the two-lines gadget of Fig. 1/Thm 6.1, the two-balls gadget of Thm 8.1 |
//! | `sinr`     | the SINR model parameters `α, β, N, ε, R` of §4.2 |
//! | `backend`  | reception computation (exact / cached / hybrid, threads for the last two) — an implementation choice, not a model choice |
//! | `mac`      | the plug-and-play axis: Algorithm 11.1 (`sinr`), the ideal reference layer, Decay (Thm 8.1 baseline), or the self-contained SMB baselines (TDMA schedule of Thm 6.1, DGKN \[14\], Decay/\[32\] proxy) |
//! | `workload` | §4.5 problems: continuous/one-shot local broadcast (Defs. 5.1/7.1 measurement workloads), SMB/MMB (Thms 12.1/12.7), consensus (Cor. 5.5) |
//! | `mobility` | beyond-the-paper movement: random-waypoint / drift trajectories evolved deterministically per slot (physical-engine MACs) |
//! | `dyn`      | beyond-the-paper dynamics: jammers (failure injection), node arrival/departure (churn), scripted teleports |
//! | `stop`     | slot horizons; `epochs:N` counts Algorithm 9.1 epochs |
//! | `seed`     | every random choice is seeded — runs reproduce bit-for-bit from the spec text |
//! | `measure`  | trace recording (latency extraction) and drop-out polling (Def. 10.2's set `W`) |
//!
//! # From spec to numbers
//!
//! ```
//! use sinr_scenario::prelude::*;
//!
//! let spec = ScenarioSpec::parse(
//!     "deploy=lattice:4:4:2\n\
//!      sinr=alpha:3,beta:1.5,noise:1,eps:0.1,range:8\n\
//!      workload=oneshot:count:2\n\
//!      stop=done:20000\n",
//! )
//! .unwrap();
//! let run = spec.build().unwrap().run().unwrap();
//! assert!(run.outcome.completed_at.is_some());
//! let report = report_for(&run);
//! assert!(report.to_json().contains("\"ack_count\""));
//! ```
//!
//! Parameter sweeps batch over a spec grid with [`ScenarioSet`]; the
//! `sinr-lab` binary (in `sinr-bench`) drives all of this from the
//! command line. Sweeps and the scenario service (`sinr-serve`) share
//! prepared deployments through one [`TableCache`] and run every cell
//! through one panic boundary, [`execute_cell`]. Reports, shard records and service requests all go
//! through one JSON codec, [`json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod cache;
mod error;
mod report;
mod shard;
mod spec;
mod sweep;

pub mod clients;
pub mod json;

pub use build::{
    connected_uniform, PreparedDeployment, RunnableScenario, ScenarioCtx, ScenarioMac,
    ScenarioOutcome, ScenarioRun, WorkClient, CONNECTED_SEED_BUDGET,
};
pub use cache::{execute_cell, lock_unpoisoned, CacheStats, TableCache};
pub use error::ScenarioError;
pub use json::Json;
pub use report::{report_for, Report};
pub use shard::{
    manifest_path, merge_shards, output_path, sweep_key, MergedSweep, ReportRecord, ShardOutput,
};
pub use spec::{
    DeploymentSpec, DynEvent, DynKind, IdealPolicy, MacKnob, MacSpec, MeasureSpec, ScenarioSpec,
    SeedSpec, SinrSpec, SourceSet, StopSpec, WorkloadSpec,
};
pub use sweep::{
    escape_component, splitmix64, unescape_cell_name, unescape_component, Axis, ScenarioSet, Shard,
    ShardSummary,
};

/// The items most scenario programs need, in one import.
pub mod prelude {
    pub use crate::clients::{Gated, OneShot, Repeater};
    pub use crate::{
        connected_uniform, env_backend_override, pool_threads, report_for, resolve_backend,
        DeploymentSpec, DynEvent, DynKind, IdealPolicy, Json, MacKnob, MacSpec, MeasureSpec,
        PreparedDeployment, Report, RunnableScenario, ScenarioCtx, ScenarioError, ScenarioRun,
        ScenarioSet, ScenarioSpec, SeedSpec, Shard, ShardOutput, ShardSummary, SinrSpec, SourceSet,
        StopSpec, WorkloadSpec,
    };
}

/// Applies the `SINR_BACKEND` environment override on top of a spec's
/// backend field.
///
/// The spec's `backend=` field is the source of truth, so published runs
/// are reproducible from the spec alone; the environment variable is a
/// deliberate operator override (e.g. forcing `cached:par:8` on a big
/// machine)
/// and **wins with a warning on stderr** when it differs from the spec.
/// The warning is printed once per process ([`std::sync::Once`]) — a
/// sweep builds hundreds of scenarios and must not repeat it per cell.
///
/// # Panics
///
/// Panics with the parse error if `SINR_BACKEND` is set but malformed —
/// a misconfigured run must not silently fall back.
pub fn env_backend_override(spec: sinr_phys::BackendSpec) -> sinr_phys::BackendSpec {
    static OVERRIDE_WARNING: std::sync::Once = std::sync::Once::new();
    match std::env::var("SINR_BACKEND") {
        Ok(raw) => {
            let over =
                sinr_phys::BackendSpec::parse(&raw).unwrap_or_else(|e| panic!("SINR_BACKEND: {e}"));
            if over != spec {
                OVERRIDE_WARNING.call_once(|| {
                    eprintln!(
                        "warning: SINR_BACKEND={raw} overrides the spec backend `{spec}` \
                         (reported once per process; the override applies to every build); \
                         results will not match the published spec"
                    );
                });
            }
            over
        }
        Err(_) => spec,
    }
}

/// Resolves the backend a scenario over `listeners` nodes will actually
/// run: the [`env_backend_override`] wins over the spec field, then
/// [`sinr_phys::BackendSpec::tuned`] applies the serial/parallel
/// crossover and the dense-table memory fallback against the realized
/// deployment size.
///
/// [`ScenarioSpec::build`] resolves the backend it runs through this
/// helper, and [`PreparedDeployment::prepare`] builds its table for the
/// same [`sinr_phys::BackendSpec::tuned`] resolution, so the table a
/// cell is handed is always the one its kernel consumes.
///
/// # Panics
///
/// Panics if `SINR_BACKEND` is set but malformed (see
/// [`env_backend_override`]).
pub fn resolve_backend(spec: sinr_phys::BackendSpec, listeners: usize) -> sinr_phys::BackendSpec {
    env_backend_override(spec).tuned(listeners)
}

/// Resolves a worker count for a pool driving many independent jobs
/// (sweep cells, service requests).
///
/// `requested = None` (or `Some(0)`) means "use the machine":
/// [`std::thread::available_parallelism`]. The result is clamped to at
/// least 1 and — when the job count is known — to `jobs`, so a
/// two-cell sweep never spins up eight idle workers.
pub fn pool_threads(requested: Option<usize>, jobs: Option<usize>) -> usize {
    let base = match requested {
        Some(t) if t > 0 => t,
        _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
    };
    base.clamp(1, jobs.unwrap_or(usize::MAX).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_threads_clamps_to_jobs_and_floor() {
        assert_eq!(pool_threads(Some(8), Some(2)), 2);
        assert_eq!(pool_threads(Some(2), Some(8)), 2);
        assert_eq!(pool_threads(Some(4), None), 4);
        assert_eq!(pool_threads(Some(3), Some(0)), 1);
        assert!(pool_threads(None, None) >= 1);
        assert_eq!(pool_threads(Some(0), Some(1)), 1);
    }

    #[test]
    fn resolve_backend_applies_crossover() {
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let spec = sinr_phys::BackendSpec::cached().with_threads(8);
        assert_eq!(resolve_backend(spec, 64).threads, 1);
        // Past the crossover the resolved count is hardware-capped, so
        // pin it against the phys resolver rather than an absolute.
        assert_eq!(
            resolve_backend(spec, 2048).threads,
            sinr_phys::effective_threads(8, 2048)
        );
    }

    #[test]
    fn env_override_passes_spec_through_when_unset() {
        // The test environment must not leak a backend override.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let spec = sinr_phys::BackendSpec::hybrid(8.0);
        assert_eq!(env_backend_override(spec), spec);
    }
}
