//! E1 — Table 1, local rows: empirical `f_ack`, `f_prog`, `f_approg`.
//!
//! Workload: a uniform (or clustered) deployment in which a chosen set of
//! nodes broadcasts continuously. Acknowledgment latency comes straight
//! from the trace; progress latencies are the cold-start measurement of
//! [`absmac::measure::first_progress`] with
//! `trigger = rcv = G₁₋ε` (standard progress) and
//! `trigger = G₁₋₂ε, rcv = G₁₋ε` (the paper's approximate progress).
//!
//! Each measurement is one [`ScenarioSpec`] ([`fack_spec`] /
//! [`progress_spec`]); the measurement functions run the spec and
//! post-process its trace.

use absmac::measure::{self, LatencyStats};
use absmac::TraceKind;
use sinr_phys::BackendSpec;
use sinr_scenario::{
    DeploymentSpec, MacKnob, MacSpec, ScenarioSpec, SeedSpec, SinrSpec, SourceSet, StopSpec,
    WorkloadSpec,
};

pub use sinr_scenario::clients::OneShot;

/// Scenario: `broadcasters` one-shot senders (evenly spread) contending
/// on `deploy`; runs until every ack fires, with the legacy horizon
/// `16·ack_slot_cap + 1024`.
pub fn fack_spec(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    broadcasters: usize,
    seed: SeedSpec,
) -> ScenarioSpec {
    // The horizon depends on the resolved ack cap, which only needs the
    // SINR parameters (the f_ack experiments always run paper-default
    // MacParams).
    let horizon = match sinr.to_params() {
        Ok(params) => 16 * sinr_mac::MacParams::builder().build(&params).ack_slot_cap as u64 + 1024,
        Err(_) => 1024, // invalid physics: let build() surface the error
    };
    ScenarioSpec::new(
        format!("fack-b{broadcasters}"),
        deploy,
        WorkloadSpec::OneShot(SourceSet::Count(broadcasters)),
        StopSpec::Done(horizon),
    )
    .with_sinr(sinr)
    .with_backend(BackendSpec::cached())
    .with_seed(seed)
}

/// Scenario: every `stride`-th node broadcasting continuously for
/// `epochs` approximate-progress epochs, with optional MAC knob
/// overrides (the `eps_approg` sweep of Table 1).
pub fn progress_spec(
    deploy: DeploymentSpec,
    sinr: SinrSpec,
    overrides: Vec<(MacKnob, f64)>,
    stride: usize,
    epochs: u64,
    seed: SeedSpec,
) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("progress-s{stride}"),
        deploy,
        WorkloadSpec::Repeat(SourceSet::Stride(stride)),
        StopSpec::Epochs(epochs),
    )
    .with_sinr(sinr)
    .with_backend(BackendSpec::cached())
    .with_mac(MacSpec::Sinr { overrides })
    .with_seed(seed)
}

/// Result of one acknowledgment measurement.
#[derive(Debug, Clone)]
pub struct FackResult {
    /// Latency of every acknowledged broadcast.
    pub latencies: LatencyStats,
    /// Ground truth: fraction of (broadcast, strong-neighbor) pairs where
    /// the neighbor received the message before the ack — the empirical
    /// `1 − ε_ack`.
    pub delivery_rate: f64,
    /// Theory shape: `Δ·log₂(Λ/ε) + log₂Λ·log₂(Λ/ε)`.
    pub theory: f64,
    /// Realized deployment size.
    pub n: usize,
    /// Realized strong-graph maximum degree.
    pub max_degree: usize,
    /// Realized `Λ`.
    pub lambda: f64,
}

/// Runs a [`fack_spec`]-shaped scenario and measures `f_ack`.
///
/// # Panics
///
/// Panics if the scenario fails to build or run (an
/// experiment-configuration bug), or if its measurement flags are
/// incompatible (no trace).
pub fn measure_fack(spec: &ScenarioSpec) -> FackResult {
    assert!(spec.measure.trace, "f_ack measurement needs measure=trace");
    let run = spec.run().expect("fack scenario");
    let graphs = &run.ctx.graphs;
    let trace = &run.outcome.trace;
    let params = run.ctx.mac_params.as_ref().expect("sinr mac");
    let eps_ack = params.eps_ack;
    let n = run.ctx.positions.len();
    let acks = measure::ack_latencies(trace);
    // Ground truth deliveries before the ack.
    let mut pairs = 0usize;
    let mut ok = 0usize;
    for ev in trace {
        if let TraceKind::Bcast(id) = ev.kind {
            let ack_t = trace
                .iter()
                .find(|e| e.kind == TraceKind::Ack(id))
                .map(|e| e.t)
                .unwrap_or(u64::MAX);
            let deliveries = measure::delivery_times(trace, id, n);
            for &v in graphs.strong.neighbors(ev.node) {
                pairs += 1;
                if deliveries[v as usize].is_some_and(|t| t <= ack_t) {
                    ok += 1;
                }
            }
        }
    }
    let delta = graphs.strong.max_degree() as f64;
    let lambda = graphs.lambda;
    let theory = delta * (lambda / eps_ack).log2() + lambda.log2() * (lambda / eps_ack).log2();
    FackResult {
        latencies: LatencyStats::from_samples(acks.into_iter().map(|(_, l)| l).collect()),
        delivery_rate: if pairs == 0 {
            1.0
        } else {
            ok as f64 / pairs as f64
        },
        theory,
        n,
        max_degree: graphs.strong.max_degree(),
        lambda,
    }
}

/// Result of one progress measurement (standard and approximate).
#[derive(Debug, Clone)]
pub struct ProgressResult {
    /// Latencies of satisfied standard-progress obligations (`f_prog`).
    pub prog: LatencyStats,
    /// Standard-progress obligations still unsatisfied at the horizon.
    pub prog_pending: usize,
    /// Latencies of satisfied approximate-progress obligations
    /// (`f_approg`).
    pub approg: LatencyStats,
    /// Approximate-progress obligations unsatisfied at the horizon.
    pub approg_pending: usize,
    /// Theory shape for `f_approg`:
    /// `(log₂^α Λ + log* 1/ε)·log₂ Λ·log₂(1/ε)`.
    pub theory_approg: f64,
    /// Realized deployment size.
    pub n: usize,
    /// Realized strong-graph maximum degree.
    pub max_degree: usize,
    /// Realized `Λ`.
    pub lambda: f64,
    /// Resolved epoch length in slots (both layers interleaved).
    pub epoch_len: u64,
}

/// Runs a [`progress_spec`]-shaped scenario and measures progress and
/// approximate progress.
///
/// # Panics
///
/// Panics if the scenario fails to build or run, or records no trace.
pub fn measure_progress(spec: &ScenarioSpec) -> ProgressResult {
    assert!(spec.measure.trace, "progress measurement needs a trace");
    let run = spec.run().expect("progress scenario");
    let graphs = &run.ctx.graphs;
    let params = run.ctx.mac_params.as_ref().expect("sinr mac");
    let sinr = &run.ctx.sinr;
    let horizon = run.outcome.horizon;
    let eps = params.eps_approg;
    let collect = |trigger, rcv| {
        measure::progress_summary(&measure::first_progress(
            &run.outcome.trace,
            trigger,
            rcv,
            horizon,
        ))
    };
    let (prog, prog_pending) = collect(&graphs.strong, &graphs.strong);
    let (approg, approg_pending) = collect(&graphs.approx, &graphs.strong);
    let lambda = graphs.lambda;
    let log_l = lambda.log2().max(1.0);
    let theory_approg = (log_l.powf(sinr.alpha()) + sinr_mac::log_star(1.0 / eps) as f64)
        * log_l
        * (1.0 / eps).log2().max(1.0);
    ProgressResult {
        prog,
        prog_pending,
        approg,
        approg_pending,
        theory_approg,
        n: run.ctx.positions.len(),
        max_degree: graphs.strong.max_degree(),
        lambda,
        epoch_len: 2 * params.layout().epoch_len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fack_measurement_on_small_network() {
        let spec = fack_spec(
            DeploymentSpec::uniform_connected(12, 14.0, 1),
            SinrSpec::with_range(8.0),
            3,
            SeedSpec::FromDeploy,
        );
        let r = measure_fack(&spec);
        assert_eq!(r.latencies.count(), 3, "every broadcast must ack");
        assert!(r.delivery_rate > 0.5, "rate {}", r.delivery_rate);
        assert!(r.theory > 0.0);
        assert_eq!(r.n, 12);
    }

    #[test]
    fn progress_measurement_on_small_network() {
        let spec = progress_spec(
            DeploymentSpec::uniform_connected(12, 14.0, 9),
            SinrSpec::with_range(8.0),
            vec![],
            2,
            6,
            SeedSpec::FromDeploy,
        );
        let r = measure_progress(&spec);
        // Someone must have made approximate progress.
        assert!(
            r.approg.count() > 0,
            "no approximate progress at all (pending {})",
            r.approg_pending
        );
        assert!(r.epoch_len > 0);
    }

    #[test]
    fn measurement_specs_round_trip() {
        let specs = [
            fack_spec(
                DeploymentSpec::uniform_connected(96, 60.0, 1),
                SinrSpec::with_range(16.0),
                16,
                SeedSpec::FromDeploy,
            ),
            progress_spec(
                DeploymentSpec::uniform_connected(64, 55.0, 3),
                SinrSpec::with_range(16.0),
                vec![(MacKnob::EpsApprog, 0.03125)],
                2,
                8,
                SeedSpec::FromDeploy,
            ),
        ];
        for spec in specs {
            assert_eq!(ScenarioSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }
}
