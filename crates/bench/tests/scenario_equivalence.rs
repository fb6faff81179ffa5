//! The acceptance test of the scenario redesign: running the Figure 1
//! experiment through the declarative spec pipeline (construct →
//! serialize → parse → build → run) reproduces the **exact trace** of a
//! hand-wired harness at the same seed. The spec legs run on `cached`
//! and the hand-wired ones on `exact` (unless `SINR_BACKEND` overrides
//! both), so the paper tables measured through specs are the ones the
//! pre-scenario harness measured.

use absmac::Runner;
use sinr_bench::exp_fig1;
use sinr_graphs::SinrGraphs;
use sinr_mac::{MacParams, SinrAbsMac};
use sinr_phys::{BackendSpec, SinrParams};
use sinr_scenario::clients::Repeater;
use sinr_scenario::{env_backend_override, ScenarioSpec};

const DELTA: usize = 4;
const EPOCHS: u64 = 2;
const SEED: u64 = 11;

/// The MAC leg of the Figure 1 experiment, inlined exactly as the
/// pre-scenario harness wired it (two_lines gadget, Repeater clients
/// on line V, fixed-slot horizon).
fn legacy_fig1_trace() -> (Vec<absmac::TraceEvent>, u64) {
    let gadget = sinr_geom::deploy::two_lines(DELTA, None).expect("gadget");
    let eps = 0.1;
    let sinr = SinrParams::builder()
        .epsilon(eps)
        .range(gadget.strong_radius / (1.0 - eps))
        .build()
        .expect("params");
    let params = MacParams::builder().build(&sinr);
    let horizon = EPOCHS * 2 * params.layout().epoch_len();
    let backend = env_backend_override(BackendSpec::exact());
    let mac = SinrAbsMac::with_backend(sinr, &gadget.points, params, SEED, backend)
        .expect("valid deployment");
    let in_v = |i: usize| gadget.line_v.contains(&i);
    let clients = Repeater::network(gadget.points.len(), |i| in_v(i).then_some(i as u64));
    let mut runner = Runner::new(mac, clients).expect("runner");
    for _ in 0..horizon {
        runner.step().expect("contract");
    }
    (runner.take_trace(), horizon)
}

#[test]
fn fig1_spec_reproduces_the_legacy_trace_exactly() {
    let (legacy_trace, legacy_horizon) = legacy_fig1_trace();

    // The spec path, through the full text round trip a committed spec
    // file would take.
    let spec = exp_fig1::mac_spec(DELTA, EPOCHS, SEED);
    let text = spec.to_string();
    let reparsed = ScenarioSpec::parse(&text).expect("spec text parses");
    assert_eq!(reparsed, spec, "canonical text round trip");
    let run = reparsed.build().expect("build").run().expect("run");

    assert_eq!(run.outcome.horizon, legacy_horizon, "same slot budget");
    assert_eq!(
        run.outcome.trace.len(),
        legacy_trace.len(),
        "same event count"
    );
    assert_eq!(run.outcome.trace, legacy_trace, "bit-identical trace");
}

#[test]
fn fig1_tdma_leg_reproduces_the_legacy_schedule() {
    // Legacy wiring of the optimal-schedule leg.
    let gadget = sinr_geom::deploy::two_lines(DELTA, None).expect("gadget");
    let eps = 0.1;
    let sinr = SinrParams::builder()
        .epsilon(eps)
        .range(gadget.strong_radius / (1.0 - eps))
        .build()
        .expect("params");
    let config = sinr_baselines::RoundRobinConfig {
        broadcasters: gadget.line_v.clone(),
    };
    let mut tdma: sinr_baselines::RoundRobinSmb<u64> = sinr_baselines::RoundRobinSmb::with_backend(
        sinr,
        &gadget.points,
        &config,
        |i| i as u64,
        SEED,
        env_backend_override(BackendSpec::exact()),
    )
    .expect("tdma");
    let legacy = tdma.run(2 * DELTA as u64);

    let run = exp_fig1::tdma_spec(DELTA, SEED).run().expect("spec leg");
    let spec_report = run.outcome.smb.expect("tdma leg yields an SmbReport");
    assert_eq!(spec_report, legacy, "identical per-node informed times");
}

#[test]
fn fig1_measurements_match_between_paths() {
    // The numbers the printed table derives from the trace agree too
    // (they must, given trace equality — this guards the measurement
    // plumbing itself).
    let (legacy_trace, horizon) = legacy_fig1_trace();
    let gadget = sinr_geom::deploy::two_lines(DELTA, None).expect("gadget");
    let eps = 0.1;
    let sinr = SinrParams::builder()
        .epsilon(eps)
        .range(gadget.strong_radius / (1.0 - eps))
        .build()
        .expect("params");
    let graphs = SinrGraphs::induce(&sinr, &gadget.points);
    let legacy_approg =
        absmac::measure::first_progress(&legacy_trace, &graphs.approx, &graphs.strong, horizon);

    let p = exp_fig1::run_fig1(DELTA, EPOCHS, SEED);
    let legacy_satisfied = gadget
        .line_v
        .iter()
        .filter_map(|&i| legacy_approg[i].latency())
        .count();
    assert_eq!(p.mac_approg_v.count(), legacy_satisfied);
    assert_eq!(p.horizon, horizon);
}
