//! E4 — Figure 1 / Theorem 6.1: the progress lower bound, measured.
//!
//! On the two-parallel-lines gadget with `Δ` nodes per line:
//!
//! * an **optimal centralized schedule** (round-robin TDMA over the
//!   broadcasters) still leaves the last receiver waiting `Δ − 1` slots —
//!   the measured form of `f_prog ≥ Δ`;
//! * the paper's MAC, measured on the `U` side with the *standard*
//!   progress definition, is likewise slow (it must serve `Δ` cross
//!   pairs one at a time);
//! * measured with **approximate progress** (trigger graph `G₁₋₂ε`), the
//!   cross obligations vanish and the broadcaster side `V` satisfies its
//!   obligations in polylog time — Definition 7.1 in action.
//!
//! Both measurement legs are plain [`ScenarioSpec`]s ([`tdma_spec`] /
//! [`mac_spec`]); `sinr-lab run fig1` executes the MAC leg directly.

use absmac::measure::{self, LatencyStats};
use sinr_geom::DeploySpec;
use sinr_phys::BackendSpec;
use sinr_scenario::{
    DeploymentSpec, MacSpec, ScenarioSpec, SeedSpec, SinrSpec, SourceSet, StopSpec, WorkloadSpec,
};

/// The Figure 1 SINR parameters for a given `Δ`: the paper's `ε = 0.1`
/// slack with the weak range chosen so `R₁₋ε` equals the gadget's line
/// separation `10·Δ`.
pub fn fig1_sinr(delta: usize) -> SinrSpec {
    let eps = 0.1;
    let strong_radius = 10.0 * delta as f64;
    SinrSpec {
        epsilon: eps,
        range: strong_radius / (1.0 - eps),
        ..SinrSpec::default()
    }
}

fn gadget(delta: usize) -> DeploymentSpec {
    DeploymentSpec::plain(DeploySpec::TwoLines {
        delta,
        separation: None,
    })
}

/// The line-`V` node indices of the gadget (`two_lines` places `V`
/// first).
pub fn line_v(delta: usize) -> std::ops::Range<usize> {
    0..delta
}

/// The line-`U` node indices of the gadget.
pub fn line_u(delta: usize) -> std::ops::Range<usize> {
    delta..2 * delta
}

/// Scenario: the optimal centralized round-robin schedule over line `V`,
/// run for one full rotation plus slack (`2Δ` slots).
pub fn tdma_spec(delta: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("fig1-tdma-d{delta}"),
        gadget(delta),
        WorkloadSpec::Repeat(SourceSet::Range(0, delta)),
        StopSpec::Slots(2 * delta as u64),
    )
    .with_sinr(fig1_sinr(delta))
    .with_backend(BackendSpec::cached())
    .with_mac(MacSpec::Tdma)
    .with_seed(SeedSpec::Fixed(seed))
}

/// Scenario: the paper's MAC with line `V` broadcasting continuously for
/// `epochs` approximate-progress epochs.
pub fn mac_spec(delta: usize, epochs: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("fig1-mac-d{delta}"),
        gadget(delta),
        WorkloadSpec::Repeat(SourceSet::Range(0, delta)),
        StopSpec::Epochs(epochs),
    )
    .with_sinr(fig1_sinr(delta))
    .with_backend(BackendSpec::cached())
    .with_seed(SeedSpec::Fixed(seed))
}

/// One Figure 1 measurement point.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Per-line node count `Δ` (also the `G₁₋ε` degree).
    pub delta: usize,
    /// Worst receiver-side progress under the optimal TDMA schedule
    /// (theory: exactly `Δ − 1` slots after the first).
    pub tdma_worst: u64,
    /// `U`-side standard progress under the paper's MAC: satisfied
    /// latencies.
    pub mac_prog_u: LatencyStats,
    /// `U`-side obligations still pending at the horizon.
    pub mac_prog_u_pending: usize,
    /// `V`-side approximate progress under the paper's MAC.
    pub mac_approg_v: LatencyStats,
    /// `V`-side obligations still pending at the horizon.
    pub mac_approg_v_pending: usize,
    /// The horizon used for the MAC run.
    pub horizon: u64,
}

/// Runs the Figure 1 experiment for one `Δ` (both scenario legs).
///
/// # Panics
///
/// Panics if either scenario fails to build or run — a configuration bug
/// in this experiment, not a measurement outcome.
pub fn run_fig1(delta: usize, epochs: u64, seed: u64) -> Fig1Point {
    // (a) Optimal centralized schedule.
    let tdma = tdma_spec(delta, seed).run().expect("tdma leg");
    let report = tdma.outcome.smb.expect("tdma produces an SmbReport");
    let tdma_worst = line_u(delta)
        .filter_map(|u| report.informed_at[u])
        .max()
        .unwrap_or(0);

    // (b) The paper's MAC with line V broadcasting continuously.
    let run = mac_spec(delta, epochs, seed).run().expect("mac leg");
    let graphs = &run.ctx.graphs;
    let horizon = run.outcome.horizon;
    let trace = &run.outcome.trace;
    let prog = measure::first_progress(trace, &graphs.strong, &graphs.strong, horizon);
    let (mac_prog_u, mac_prog_u_pending) = measure::progress_summary(&prog[line_u(delta)]);
    let approg = measure::first_progress(trace, &graphs.approx, &graphs.strong, horizon);
    let (mac_approg_v, mac_approg_v_pending) = measure::progress_summary(&approg[line_v(delta)]);

    Fig1Point {
        delta,
        tdma_worst,
        mac_prog_u,
        mac_prog_u_pending,
        mac_approg_v,
        mac_approg_v_pending,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdma_lower_bound_is_exactly_delta_minus_one() {
        let p = run_fig1(4, 2, 3);
        assert_eq!(p.tdma_worst, 3);
    }

    #[test]
    fn approximate_progress_on_v_side_is_satisfied() {
        let p = run_fig1(4, 4, 3);
        assert!(
            p.mac_approg_v.count() > 0,
            "V side must make approximate progress (pending {})",
            p.mac_approg_v_pending
        );
    }

    #[test]
    fn side_index_ranges_match_the_generator() {
        // The measurement code derives the V/U sides from index ranges;
        // pin them to the generator's own role fields so a node-order
        // change in two_lines cannot silently flip the measured side.
        for delta in [2usize, 4, 9] {
            let gadget = sinr_geom::deploy::two_lines(delta, None).unwrap();
            assert_eq!(line_v(delta).collect::<Vec<_>>(), gadget.line_v);
            assert_eq!(line_u(delta).collect::<Vec<_>>(), gadget.line_u);
        }
    }

    #[test]
    fn specs_round_trip_through_text() {
        for spec in [tdma_spec(4, 11), mac_spec(4, 6, 11)] {
            let parsed = ScenarioSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(parsed, spec);
        }
    }
}
