//! The traced run's direct calls into each layer: deployment
//! generation, graph induction, table build, the reception kernel, the
//! MAC runner, and a short service session.

use std::time::{Duration, Instant};

use absmac::Runner;
use sinr_graphs::SinrGraphs;
use sinr_mac::SinrAbsMac;
use sinr_phys::{BackendSpec, GainTable, HybridTable, InterferenceModel};
use sinr_scenario::prelude::Repeater;
use sinr_scenario::WorkloadSpec;
use sinr_serve::{ServeConfig, Service};

use crate::pipeline::Kept;
use crate::serve_mixed::{serve_layer_metrics, tally};
use crate::session::{self, Kind, Request};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Outcome;

/// Span id shared by the layer probes.
const PROBE_ID: u64 = 1_000_000;

/// Slots in one churn cycle of the kernel replay.
const CYCLE: usize = 16;

/// How much work the kernel and MAC probes do.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Timed churn cycles of `decide_slot` calls.
    pub cycles: usize,
    /// MAC runner steps.
    pub mac_steps: u64,
}

/// The reception bench's churn schedule: even nodes always send, plus
/// the odd cohort `2·(slot % 16) + 1 (mod 32)`, so each slot swaps
/// about `n/16` transmitters.
fn churn_schedule(n: usize) -> Vec<Vec<usize>> {
    (0..CYCLE)
        .map(|v| {
            (0..n)
                .filter(|i| i % 2 == 0 || i % 32 == 2 * v + 1)
                .collect()
        })
        .collect()
}

/// Times each layer's public entry points over a pipeline pass's own
/// deployment, resolved backend and shared tables, and checks the
/// kernel against `exact`.
///
/// # Errors
///
/// A layer call that fails outright.
pub fn layers(
    kept: &Kept,
    tr: &mut Tracer,
    sizes: ProbeSizes,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = &kept.run.ctx;
    let id = PROBE_ID;

    let positions = tr
        .span("geom.deploy", id, |_| kept.spec.deploy.geom.build())
        .map_err(|e| format!("geom.deploy: {e}"))?;
    if positions != ctx.positions {
        out.mismatches
            .push("DeploySpec::build is not deterministic".into());
    }
    let graphs = tr.span("graphs.induce", id, |_| {
        SinrGraphs::induce(&ctx.sinr, &positions)
    });
    if graphs.strong.edge_count() != ctx.graphs.strong.edge_count() {
        out.mismatches
            .push("SinrGraphs::induce is not deterministic".into());
    }
    drop(graphs);

    let threads = ctx.backend.threads;
    let table_bytes = tr.span("phys.table_build", id, |_| match ctx.backend.model {
        InterferenceModel::Cached => GainTable::try_build(&ctx.sinr, &positions, threads)
            .map(|t| t.bytes())
            .map_err(|e| format!("phys.table_build: {e}")),
        InterferenceModel::Hybrid { cutoff } => {
            Ok(HybridTable::build(&ctx.sinr, &positions, cutoff, threads).bytes())
        }
        other => Err(format!("no table-backed kernel for {other:?}")),
    })?;

    kernel_replay(kept, tr, sizes.cycles, out);
    mac_steps(kept, tr, sizes.mac_steps, out)?;

    let m = &mut out.metrics;
    m.set("geom.deploy_ms", median(&tr.durations("geom.deploy")) * 1e3);
    m.set(
        "graphs.induce_ms",
        median(&tr.durations("graphs.induce")) * 1e3,
    );
    m.set("graphs.strong_edges", ctx.graphs.strong.edge_count() as f64);
    m.set(
        "phys.table_build_ms",
        median(&tr.durations("phys.table_build")) * 1e3,
    );
    m.set("phys.table_bytes", table_bytes as f64);
    let decide = tr.durations("phys.decide_slot");
    m.set("phys.decide_slot_us", median(&decide) * 1e6);
    m.set("phys.decide_slot_p99_us", percentile(&decide, 99.0) * 1e6);
    let steps = tr.durations("mac.step");
    m.set("mac.step_p50_us", median(&steps) * 1e6);
    m.set("mac.step_p99_us", percentile(&steps, 99.0) * 1e6);
    Ok(())
}

/// Replays the churn schedule through the run's resolved backend over
/// its shared tables. The first (untimed) cycle is checked against a
/// fresh `exact` backend: `cached` must decide exactly what `exact`
/// decides, `hybrid` must never decode a listener `exact` denies.
fn kernel_replay(kept: &Kept, tr: &mut Tracer, cycles: usize, out: &mut Outcome) {
    let ctx = &kept.run.ctx;
    let (sinr, positions) = (&ctx.sinr, &ctx.positions[..]);
    let n = positions.len();
    let schedule = churn_schedule(n);
    let mut kernel = ctx.backend.build_with_tables(Some(kept.prepared.tables()));
    let mut exact = BackendSpec::exact().build();
    if let Err(e) = kernel.prepare(sinr, positions) {
        out.mismatches.push(format!("kernel prepare failed: {e}"));
        return;
    }
    let (mut got, mut want) = (vec![None; n], vec![None; n]);
    let mut decoded = 0usize;
    for senders in &schedule {
        kernel.decide_slot(sinr, positions, senders, &mut got);
        exact.decide_slot(sinr, positions, senders, &mut want);
        decoded += got.iter().flatten().count();
        match ctx.backend.model {
            InterferenceModel::Cached if got != want => {
                out.mismatches
                    .push("cached decided differently from exact".into());
                return;
            }
            InterferenceModel::Hybrid { .. } => {
                if let Some(node) = (0..n).find(|&i| got[i].is_some() && got[i] != want[i]) {
                    out.mismatches.push(format!(
                        "hybrid decoded listener {node} from {:?}, exact says {:?}",
                        got[node], want[node]
                    ));
                    return;
                }
            }
            _ => {}
        }
    }
    if decoded == 0 {
        out.mismatches
            .push("the kernel replay decoded nothing".into());
    }
    for _ in 0..cycles {
        for senders in &schedule {
            tr.span("phys.decide_slot", PROBE_ID, |_| {
                kernel.decide_slot(sinr, positions, senders, &mut got);
            });
        }
    }
}

/// Steps Algorithm 11.1 one slot at a time over the run's deployment
/// and shared tables, with the workload's broadcasters.
fn mac_steps(kept: &Kept, tr: &mut Tracer, steps: u64, out: &mut Outcome) -> Result<(), String> {
    let ctx = &kept.run.ctx;
    let n = ctx.positions.len();
    let params = ctx
        .mac_params
        .clone()
        .ok_or("the workload does not run mac=sinr")?;
    let WorkloadSpec::Repeat(sources) = &ctx.spec.workload else {
        return Err("the workload is not a repeat workload".into());
    };
    let mac = SinrAbsMac::<u64>::with_prepared(
        ctx.sinr,
        &ctx.positions,
        params,
        ctx.seed,
        ctx.backend,
        Some(kept.prepared.tables()),
    )
    .map_err(|e| format!("SinrAbsMac::with_prepared: {e}"))?;
    let clients = Repeater::network(n, |i| sources.is_source(i, n).then_some(i as u64));
    let mut runner =
        Runner::with_trace_capacity(mac, clients, 0).map_err(|e| format!("Runner: {e}"))?;
    let before = runner.mac().phys_stats();
    for _ in 0..steps {
        tr.span("mac.step", PROBE_ID, |_| runner.step())
            .map_err(|e| format!("mac.step: {e}"))?;
    }
    let after = runner.mac().phys_stats();
    let per_slot = |a: u64, b: u64| (b - a) as f64 / steps.max(1) as f64;
    let m = &mut out.metrics;
    m.set(
        "mac.tx_per_slot",
        per_slot(before.transmissions, after.transmissions),
    );
    m.set(
        "mac.rx_per_slot",
        per_slot(before.receptions, after.receptions),
    );
    if after.slots - before.slots != steps {
        out.mismatches.push("the MAC runner skipped slots".into());
    }
    Ok(())
}

/// The minimal request of [`serve_probe`].
const SERVE_PROBE_SPEC: &str = "name=serve-probe\ndeploy=lattice:4:4:2\nsinr=range:8\n\
     backend=cached\nmac=sinr\nworkload=repeat:stride:2\nstop=slots:20\nseed=7\nmeasure=none\n";

/// Serves a minimal request (`lattice:4:4:2`, 20 slots) once through a fresh service, then
/// replays it: the serve-side per-layer metrics of a single-run
/// workload.
///
/// # Errors
///
/// The connection's I/O error.
pub fn serve_probe(tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let spec = SERVE_PROBE_SPEC;
    let service = Service::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let run = Request {
        due: Duration::ZERO,
        id: 1,
        line: session::run_line(1, spec),
        kind: Kind::Run {
            spec: spec.to_string(),
            cells: 1,
        },
    };
    let replay = Request {
        due: Duration::ZERO,
        id: 1,
        line: session::replay_line(1),
        kind: Kind::Replay,
    };
    let requests = [run, replay];
    let before = service.cache_stats();
    let session = session::serve(&service, &requests, Instant::now())?;
    tally(&session, out);
    serve_layer_metrics(&session, &requests, before, tr, out);
    Ok(())
}
