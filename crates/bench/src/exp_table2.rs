//! E3 — Table 2: global SMB, ours vs. DGKN \[14\] vs. the Decay/\[32\]
//! proxy, on identical deployments.
//!
//! Table 2 of the paper claims: our runtime
//! `(D + log n)·log^{α+1}Λ` improves on \[14\]
//! (`D·log^{α+1}Λ·log n`) for **all** parameters, and on \[32\]
//! (`D·log²n`) when `log^{α+1}Λ ≤ min(D·log n, log²n)`. The experiment
//! reports measured slots for all three on the same deployment so the
//! winner and the crossover regime can be read off directly.
//!
//! The three-way comparison is literally one scenario run three times
//! with a different `mac=` line — the plug-and-play axis doing the work.

use sinr_phys::BackendSpec;
use sinr_scenario::{
    DeploymentSpec, MacSpec, MeasureSpec, ScenarioSpec, SeedSpec, SinrSpec, StopSpec, WorkloadSpec,
};

/// The three scenarios of one Table 2 cell: identical deployment,
/// physics, seed and workload; only the MAC differs.
pub fn table2_specs(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    horizon: u64,
    seed: SeedSpec,
) -> [ScenarioSpec; 3] {
    let base = |name: &str, mac: MacSpec| {
        ScenarioSpec::new(
            format!("table2-{name}"),
            deploy,
            WorkloadSpec::Smb { source: 0 },
            StopSpec::Done(horizon),
        )
        .with_sinr(sinr)
        .with_backend(BackendSpec::cached())
        .with_mac(mac)
        .with_seed(seed)
        .with_measure(MeasureSpec::none())
    };
    [
        base("ours", MacSpec::sinr()),
        base("dgkn", MacSpec::Dgkn),
        base("decay", MacSpec::DecaySmb),
    ]
}

/// One Table 2 comparison point.
#[derive(Debug, Clone)]
pub struct Table2Point {
    /// Network size.
    pub n: usize,
    /// Strong-graph diameter.
    pub diameter: u32,
    /// `Λ` of the deployment.
    pub lambda: f64,
    /// Slots for BSMB over the paper's MAC (`None` = horizon).
    pub ours: Option<u64>,
    /// Slots for DGKN \[14\].
    pub dgkn: Option<u64>,
    /// Slots for the Decay/\[32\] proxy.
    pub decay_proxy: Option<u64>,
    /// The paper's crossover quantity `log₂^{α+1} Λ`.
    pub crossover_lhs: f64,
    /// The paper's crossover quantity `min(D·log₂ n, log₂² n)`.
    pub crossover_rhs: f64,
}

/// Runs all three algorithms on one deployment.
///
/// # Panics
///
/// Panics if a scenario fails to build or run — a configuration bug.
pub fn compare_smb(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    horizon: u64,
    seed: SeedSpec,
) -> Table2Point {
    let [ours_spec, dgkn_spec, decay_spec] = table2_specs(deploy, sinr, horizon, seed);
    let ours_run = ours_spec.run().expect("ours");
    let dgkn_run = dgkn_spec.run().expect("dgkn");
    let decay_run = decay_spec.run().expect("decay");

    let ctx = &ours_run.ctx;
    let n = ctx.positions.len();
    let d = ctx.graphs.strong.diameter().unwrap_or(n as u32);
    let log_l = ctx.graphs.lambda.log2().max(1.0);
    let log_n = (n as f64).log2().max(1.0);
    Table2Point {
        n,
        diameter: d,
        lambda: ctx.graphs.lambda,
        ours: ours_run.outcome.completed_at,
        dgkn: dgkn_run.outcome.completed_at,
        decay_proxy: decay_run.outcome.completed_at,
        crossover_lhs: log_l.powf(ctx.sinr.alpha() + 1.0),
        crossover_rhs: (d as f64 * log_n).min(log_n * log_n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_complete_on_a_small_network() {
        let p = compare_smb(
            DeploymentSpec::uniform_connected(12, 14.0, 5),
            SinrSpec::with_range(8.0),
            3_000_000,
            SeedSpec::FromDeploy,
        );
        assert!(p.ours.is_some(), "ours timed out");
        assert!(p.dgkn.is_some(), "dgkn timed out");
        assert!(p.decay_proxy.is_some(), "decay timed out");
    }

    #[test]
    fn ours_beats_dgkn() {
        // The headline claim of Table 2: improvement over [14] in the
        // full range of parameters (the log n epoch factor).
        let p = compare_smb(
            DeploymentSpec::uniform_connected(16, 16.0, 11),
            SinrSpec::with_range(8.0),
            5_000_000,
            SeedSpec::FromDeploy,
        );
        let (ours, dgkn) = (p.ours.unwrap(), p.dgkn.unwrap());
        assert!(ours < dgkn, "expected ours ({ours}) to beat DGKN ({dgkn})");
    }
}
