//! E5 — Theorem 8.1: Decay cannot make fast approximate progress.
//!
//! On the two-ball gadget (2 nodes in `B₁`, `Δ` nodes in `B₂`, balls
//! `2R` apart), everyone broadcasts. The `B₁` nodes have an approximate-
//! progress obligation towards each other; `B₂`'s aggregate interference
//! is what Decay cannot shed — its probabilities sink in lockstep, so
//! whenever a `B₁` node is likely to transmit, `B₂` drowns it
//! (`f_approg = Ω(Δ·log 1/ε)`). Algorithm 9.1 instead *sparsifies* `B₂`
//! through its MIS phases, so the same obligation is met in polylog time.
//!
//! The two MACs run the *same* scenario with a different `mac=` line.

use absmac::measure::{self, LatencyStats};
use sinr_geom::DeploySpec;
use sinr_phys::BackendSpec;
use sinr_scenario::{
    DeploymentSpec, MacSpec, ScenarioSpec, SeedSpec, SinrSpec, SourceSet, StopSpec, WorkloadSpec,
};

/// The Theorem 8.1 operating point: β = 6, α = 2.5 — at this point the
/// `B₁` pole-to-pole link tolerates only ~2 concurrent `B₂` interferers,
/// which is the regime the lower-bound argument needs (with a generous
/// margin the link is unjammable and Decay looks artificially good).
pub fn decay_sinr(range: f64) -> SinrSpec {
    SinrSpec {
        alpha: 2.5,
        beta: 6.0,
        epsilon: 0.1,
        range,
        ..SinrSpec::default()
    }
}

/// The pair of scenarios for one E5 point: Decay and Algorithm 9.1 on
/// the identical two-ball gadget.
pub fn decay_pair(delta: usize, range: f64, horizon: u64, seed: u64) -> [ScenarioSpec; 2] {
    let deploy = DeploymentSpec::plain(DeploySpec::TwoBalls { delta, range, seed });
    let base = |name: &str, mac: MacSpec| {
        ScenarioSpec::new(
            format!("thm81-{name}-d{delta}"),
            deploy,
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(horizon),
        )
        .with_sinr(decay_sinr(range))
        .with_backend(BackendSpec::cached())
        .with_mac(mac)
        .with_seed(SeedSpec::Fixed(seed))
    };
    [
        // Decay contention bound matching the gadget population.
        base(
            "decay",
            MacSpec::Decay {
                n_tilde: (2 * delta).max(4) as f64,
                eps: 0.125,
                budget_mult: 4.0,
            },
        ),
        base("approg", MacSpec::sinr()),
    ]
}

/// One E5 measurement point.
#[derive(Debug, Clone)]
pub struct DecayPoint {
    /// Crowded-ball population `Δ`.
    pub delta: usize,
    /// `B₁`-side approximate-progress latencies under Decay.
    pub decay: LatencyStats,
    /// `B₁` obligations unsatisfied under Decay at the horizon.
    pub decay_pending: usize,
    /// `B₁`-side approximate-progress latencies under Algorithm 9.1.
    pub approg: LatencyStats,
    /// `B₁` obligations unsatisfied under Algorithm 9.1.
    pub approg_pending: usize,
    /// Horizon used for both runs.
    pub horizon: u64,
}

/// Runs both MACs on the same gadget and measures `B₁`-side approximate
/// progress (`two_balls` places the two `B₁` nodes first).
///
/// # Panics
///
/// Panics if either scenario fails to build or run.
pub fn run_decay_comparison(delta: usize, range: f64, horizon: u64, seed: u64) -> DecayPoint {
    let [decay_spec, approg_spec] = decay_pair(delta, range, horizon, seed);
    let b1_outcomes = |run: &sinr_scenario::ScenarioRun| {
        let outcomes = measure::first_progress(
            &run.outcome.trace,
            &run.ctx.graphs.approx,
            &run.ctx.graphs.strong,
            horizon,
        );
        measure::progress_summary(&outcomes[0..2])
    };

    let decay_run = decay_spec.run().expect("decay leg");
    let (decay, decay_pending) = b1_outcomes(&decay_run);
    drop(decay_run);

    let approg_run = approg_spec.run().expect("approg leg");
    let (approg, approg_pending) = b1_outcomes(&approg_run);

    DecayPoint {
        delta,
        decay,
        decay_pending,
        approg,
        approg_pending,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_macs_produce_measurements() {
        let p = run_decay_comparison(8, 48.0, 60_000, 2);
        // Two obligations exist (one per B1 node); each is satisfied or
        // pending under each MAC.
        assert_eq!(p.decay.count() + p.decay_pending, 2);
        assert_eq!(p.approg.count() + p.approg_pending, 2);
    }

    #[test]
    fn b1_indices_match_the_generator() {
        // The measurement hardcodes B1 = {0, 1}; pin it to the
        // generator's role field so a node-order change in two_balls
        // cannot silently move the measured obligation.
        let gadget = sinr_geom::deploy::two_balls(8, 48.0, 2).unwrap();
        assert_eq!(gadget.b1, vec![0, 1]);
    }

    #[test]
    fn pair_differs_only_in_mac_and_name() {
        let [a, b] = decay_pair(8, 48.0, 1000, 2);
        assert_ne!(a.mac, b.mac);
        assert_eq!(a.deploy, b.deploy);
        assert_eq!(a.sinr, b.sinr);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.stop, b.stop);
    }
}
