//! A1/A2 — ablations over the paper's Θ(·) constants, expressed as
//! [`ScenarioSet`] sweeps over one MAC knob.
//!
//! * **A1 (repetitions `T`, §10.1.2):** the paper's key trick is using
//!   `T = Θ(log(f(h₁)/ε_approg))` repetitions instead of \[14\]'s
//!   `Θ(… log n)`. Sweeping the `T` multiplier shows the trade-off:
//!   short windows mis-estimate `H̃̃` (drop-outs, set `W`), long windows
//!   burn slots.
//! * **A2 (temporary labels, §10.2):** the label range
//!   `(Λ/ε)^label_exp` controls collision probability; collisions block
//!   MIS progress (ties keep competing), hurting sparsification.

use absmac::measure::{self, LatencyStats};
use sinr_phys::BackendSpec;
use sinr_scenario::{
    DeploymentSpec, MacKnob, MeasureSpec, ScenarioSet, ScenarioSpec, SeedSpec, SinrSpec, SourceSet,
    StopSpec, WorkloadSpec,
};

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The sweep cell's spec, as it ran.
    pub spec: ScenarioSpec,
    /// The swept multiplier value.
    pub value: f64,
    /// Epoch length (slots) under this configuration.
    pub epoch_len: u64,
    /// Temporary labels are drawn from `[1, label_range]`.
    pub label_range: u64,
    /// Approximate-progress latencies (satisfied obligations).
    pub approg: LatencyStats,
    /// Obligations unsatisfied at the horizon.
    pub pending: usize,
    /// Peak number of dropped-out nodes observed (the realized set `W`).
    pub max_dropped: usize,
}

/// The base scenario every ablation cell starts from: half the nodes
/// broadcasting continuously, trace + drop-out recording on.
pub fn ablation_base(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    epochs: u64,
    seed: SeedSpec,
) -> ScenarioSpec {
    ScenarioSpec::new(
        "ablation",
        deploy,
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Epochs(epochs),
    )
    .with_sinr(sinr)
    .with_backend(BackendSpec::cached())
    .with_seed(seed)
    .with_measure(MeasureSpec {
        trace: true,
        dropped: true,
    })
}

/// Sweeps one MAC knob over `values` and measures each cell.
///
/// # Panics
///
/// Panics if a cell fails to build or run — a configuration bug.
pub fn sweep_knob(base: ScenarioSpec, knob: MacKnob, values: &[f64]) -> Vec<AblationPoint> {
    let set = ScenarioSet::new(base)
        .axis(
            format!("mac.{}", knob.name()),
            values.iter().map(|v| v.to_string()).collect(),
        )
        .with_traces();
    let runs = set.run(1).expect("ablation sweep");
    runs.iter()
        .zip(values)
        .map(|(run, &value)| {
            let horizon = run.outcome.horizon;
            let outcomes = measure::first_progress(
                &run.outcome.trace,
                &run.ctx.graphs.approx,
                &run.ctx.graphs.strong,
                horizon,
            );
            let (approg, pending) = measure::progress_summary(&outcomes);
            let params = run.ctx.mac_params.as_ref().expect("sinr mac");
            AblationPoint {
                spec: run.ctx.spec.clone(),
                value,
                epoch_len: 2 * params.layout().epoch_len(),
                label_range: params.label_range,
                approg,
                pending,
                max_dropped: run.outcome.max_dropped.unwrap_or(0),
            }
        })
        .collect()
}

/// A1: sweep the estimation-window multiplier `t_mult`.
///
/// # Panics
///
/// Panics if a cell fails to build or run.
pub fn sweep_t_mult(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    values: &[f64],
    epochs: u64,
    seed: SeedSpec,
) -> Vec<AblationPoint> {
    sweep_knob(
        ablation_base(deploy, sinr, epochs, seed),
        MacKnob::TMult,
        values,
    )
}

/// A2: sweep the label-range exponent.
///
/// # Panics
///
/// Panics if a cell fails to build or run.
pub fn sweep_label_exp(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    values: &[f64],
    epochs: u64,
    seed: SeedSpec,
) -> Vec<AblationPoint> {
    sweep_knob(
        ablation_base(deploy, sinr, epochs, seed),
        MacKnob::LabelExp,
        values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deploy() -> DeploymentSpec {
        DeploymentSpec::uniform_connected(12, 14.0, 7)
    }

    #[test]
    fn t_mult_sweep_runs() {
        let points = sweep_t_mult(
            deploy(),
            SinrSpec::with_range(8.0),
            &[1.0, 2.0],
            3,
            SeedSpec::FromDeploy,
        );
        assert_eq!(points.len(), 2);
        // Longer windows → longer epochs.
        assert!(points[1].epoch_len > points[0].epoch_len);
    }

    #[test]
    fn label_exp_sweep_runs() {
        let points = sweep_label_exp(
            deploy(),
            SinrSpec::with_range(8.0),
            &[0.5, 2.0],
            3,
            SeedSpec::FromDeploy,
        );
        assert_eq!(points.len(), 2);
    }
}
