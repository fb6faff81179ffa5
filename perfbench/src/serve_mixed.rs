//! The `serve-mixed` workload: open-loop mixed traffic through the
//! scenario service, driven in-process with two workers.
//!
//! Independent users make an open loop: arrival gaps are seeded
//! exponential at a fixed offered rate (about half the measured
//! capacity), a paced reader releases each request on schedule, and
//! every request is timed from its due time to its closing record. The
//! mix: ~75% short `run`s over three hot deployments, ~10% four-cell
//! `sweep`s over `mac.t_mult` on them, ~15% runs on a fresh deployment
//! seed each (a cold prepare plus an LRU eviction, since the cache
//! budget holds the hot set plus one entry), ~1% `{"replay":N}` probes.

use std::time::{Duration, Instant};

use sinr_scenario::{PreparedDeployment, ScenarioSpec};
use sinr_serve::{CacheStats, ServeConfig, Service};

use crate::pipeline::{self, Stages};
use crate::probes::{self, ProbeSizes};
use crate::session::{self, secs, Kind, Request, Session};
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use crate::{add_self_times, peak_rss_mb, Config, Outcome, Scale};

/// Worker threads of the service.
const WORKERS: usize = 2;
/// The offered rate, requests per second: about half the closed-loop
/// capacity of this mix with two workers, which measured 50–72
/// requests/s on a 2-CPU box depending on its load (see README.md).
const OFFERED_RATE: f64 = 30.0;
/// Requests per timed window, at least: p99 then has ≥ 10 samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// Set-ups per run that `setup_s` is the median of.
const SETUPS: usize = 5;
/// Served reports per hot deployment and of the cold runs that are
/// re-run through the batch pipeline and compared byte for byte.
const CHECKS_PER_CLASS: usize = 3;
/// The sweep axis of the sweep requests.
const SWEEP_KEY: &str = "mac.t_mult";
const SWEEP_VALUES: [&str; 4] = ["1", "2", "3", "4"];

struct Shape {
    hot: [String; 3],
    cold: &'static str,
    slots: u64,
    min_requests: usize,
    rate: f64,
    checks_per_class: usize,
}

fn shape(cfg: &Config) -> Shape {
    let s = cfg.seed;
    match cfg.scale {
        Scale::Full => Shape {
            hot: [
                format!("uniform:512:50:{s}"),
                format!("uniform:1024:70:{s}"),
                "lattice:23:23:2".into(),
            ],
            cold: "uniform:512:50",
            slots: 20,
            min_requests: MIN_REQUESTS,
            rate: OFFERED_RATE,
            checks_per_class: CHECKS_PER_CLASS,
        },
        Scale::Smoke => Shape {
            hot: [
                format!("uniform:48:15:{s}"),
                format!("uniform:64:17.5:{s}"),
                "lattice:5:5:2".into(),
            ],
            cold: "uniform:48:15",
            slots: 10,
            min_requests: 40,
            rate: 200.0,
            checks_per_class: 1,
        },
    }
}

fn spec(id: u64, deploy: &str, slots: u64, seed: u64) -> String {
    format!(
        "name=serve-{id}\ndeploy={deploy}\nsinr=range:16\nbackend=cached\nmac=sinr\n\
         workload=repeat:stride:2\nstop=slots:{slots}\nseed={seed}\nmeasure=none\n"
    )
}

fn run_request(due: Duration, id: u64, text: String) -> Request {
    Request {
        due,
        id,
        line: session::run_line(id, &text),
        kind: Kind::Run {
            spec: text,
            cells: 1,
        },
    }
}

/// What a generated request is, for the mix and the batch cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A run over hot deployment `i`.
    Hot(usize),
    /// A four-cell sweep over hot deployment `i`.
    Sweep(usize),
    /// A run over a fresh deployment seed.
    Cold,
    /// A replay probe.
    Replay,
}

/// One block of the mix before shuffling: 74 hot runs spread over the
/// three hot deployments, 10 sweeps, 15 cold runs and 1 replay. Whole
/// blocks keep the mix exact in every run; only the order is seeded.
fn block() -> Vec<Class> {
    let mut b = Vec::with_capacity(100);
    b.extend((0..74).map(|i| Class::Hot(i % 3)));
    b.extend((0..10).map(|i| Class::Sweep(i % 3)));
    b.extend((0..15).map(|_| Class::Cold));
    b.push(Class::Replay);
    b
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The seeded request stream of one timed window. Arrival gaps are
/// exponential, rescaled so the window lasts exactly `count / rate`:
/// the offered rate is fixed, the burst pattern is seeded.
fn requests(cfg: &Config, shape: &Shape) -> (Vec<Request>, Vec<Class>) {
    let mut rng = Rng::new(cfg.seed, 0x5e7e);
    let count = shape
        .min_requests
        .max((shape.rate * cfg.seconds).ceil() as usize);
    let mut classes = Vec::with_capacity(count + 100);
    while classes.len() < count {
        let mut b = block();
        shuffle(&mut b, &mut rng);
        classes.extend(b);
    }
    classes.truncate(count);
    let gaps: Vec<f64> = (0..count).map(|_| rng.exp(1.0)).collect();
    let scale = count as f64 / shape.rate / gaps.iter().sum::<f64>();
    let mut out: Vec<Request> = Vec::with_capacity(count);
    let mut replayed = std::collections::HashSet::new();
    let mut t = 0.0;
    for (i, gap) in gaps.iter().enumerate() {
        t += gap * scale;
        let due = Duration::from_secs_f64(t);
        let id = i as u64 + 1;
        let run_seed = rng.next_u64() >> 16;
        if classes[i] == Class::Replay {
            // A replay of a hot run issued 15–40 requests earlier: long
            // enough ago to have completed, recent enough to still be
            // in the service's replay log. Too early in the stream, it
            // is a hot run instead.
            let target = (i.saturating_sub(40)..i.saturating_sub(15))
                .rev()
                .find(|&j| matches!(classes[j], Class::Hot(_)) && !replayed.contains(&out[j].id))
                .map(|j| out[j].id);
            match target {
                Some(target) => {
                    replayed.insert(target);
                    out.push(Request {
                        due,
                        id: target,
                        line: session::replay_line(target),
                        kind: Kind::Replay,
                    });
                    continue;
                }
                None => classes[i] = Class::Hot(i % 3),
            }
        }
        out.push(match classes[i] {
            Class::Hot(h) => run_request(due, id, spec(id, &shape.hot[h], shape.slots, run_seed)),
            Class::Sweep(h) => {
                let text = spec(id, &shape.hot[h], shape.slots, run_seed);
                Request {
                    due,
                    id,
                    line: session::sweep_line(id, &text, SWEEP_KEY, &SWEEP_VALUES),
                    kind: Kind::Run {
                        spec: text,
                        cells: SWEEP_VALUES.len(),
                    },
                }
            }
            Class::Cold => {
                let deploy = format!("{}:{}", shape.cold, rng.next_u64() >> 16);
                run_request(due, id, spec(id, &deploy, shape.slots, run_seed))
            }
            Class::Replay => unreachable!("replays are placed above"),
        });
    }
    (out, classes)
}

/// The cache budget: the hot set plus one cold entry, so every cold
/// request evicts.
fn budget(shape: &Shape) -> Result<u64, String> {
    let resident = |deploy: &str| -> Result<u64, String> {
        let spec =
            ScenarioSpec::parse(&spec(0, deploy, shape.slots, 0)).map_err(|e| e.to_string())?;
        Ok(PreparedDeployment::prepare(&spec)
            .map_err(|e| e.to_string())?
            .resident_bytes() as u64)
    };
    let cold = resident(&format!("{}:0", shape.cold))?;
    let mut total = cold + cold / 2;
    for deploy in &shape.hot {
        total += resident(deploy)?;
    }
    Ok(total)
}

/// One set-up (service construction plus the cold requests that fill
/// the hot set) and one timed window.
struct Window {
    requests: Vec<Request>,
    session: Session,
    before: CacheStats,
    setups: Vec<f64>,
    checks: Vec<Check>,
    out: Outcome,
}

fn window(cfg: &Config, tr: &mut Tracer) -> Result<Window, String> {
    let shape = shape(cfg);
    let config = ServeConfig {
        workers: WORKERS,
        cache_bytes: budget(&shape)?,
        ..ServeConfig::default()
    };
    let fill: Vec<Request> = shape
        .hot
        .iter()
        .enumerate()
        .map(|(i, deploy)| {
            let id = i as u64 + 1;
            run_request(Duration::ZERO, id, spec(id, deploy, shape.slots, 0))
        })
        .collect();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut service = None;
    let mut out = Outcome::default();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = Service::new(config.clone());
        let filled = session::serve(&s, &fill, t0)?;
        setups.push(t0.elapsed().as_secs_f64());
        tally(&filled, &mut out);
        service = Some(s);
    }
    let service = service.expect("at least one set-up");

    let (requests, classes) = requests(cfg, &shape);
    // A seeded sample of runs, the same number from each hot deployment
    // and from the cold runs, goes through the batch pipeline from spec
    // text; the served bytes must match. Half the sample runs before the
    // window and half after it, so its timings span the run.
    let mut rng = Rng::new(cfg.seed, 0xc4ec);
    let mut sample = Vec::new();
    for class in [Class::Hot(0), Class::Hot(1), Class::Hot(2), Class::Cold] {
        let mut members: Vec<usize> = (0..requests.len())
            .filter(|&i| classes[i] == class)
            .collect();
        shuffle(&mut members, &mut rng);
        sample.extend(members.into_iter().take(shape.checks_per_class));
    }
    let (before_window, after_window) = sample.split_at(sample.len() / 2);
    let mut batch = batch_pipelines(&requests, before_window, tr, &mut out);

    let before = service.cache_stats();
    let session = session::serve(
        &service,
        &requests,
        Instant::now() + Duration::from_millis(5),
    )?;
    tally(&session, &mut out);
    if session.summary.replay_mismatches != 0 {
        out.mismatches.push(format!(
            "{} replays were not byte-identical",
            session.summary.replay_mismatches
        ));
    }
    batch.extend(batch_pipelines(&requests, after_window, tr, &mut out));
    let mut checks = Vec::with_capacity(batch.len());
    for (i, stages, report_s) in batch {
        let served = &session.outcomes[i];
        if served.ok && served.reports[0].as_bytes() != stages.bytes.as_slice() {
            out.mismatches.push(format!(
                "served report of request {} differs from the batch pipeline's",
                requests[i].id
            ));
        }
        checks.push(Check {
            class: classes[i],
            stages,
            report_s,
        });
    }
    Ok(Window {
        requests,
        session,
        before,
        setups,
        checks,
        out,
    })
}

/// Runs the sampled requests' specs through the batch pipeline.
fn batch_pipelines(
    requests: &[Request],
    sample: &[usize],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<(usize, Stages, f64)> {
    let mut done = Vec::with_capacity(sample.len());
    for &i in sample {
        let Kind::Run { spec, .. } = &requests[i].kind else {
            unreachable!("hot and cold requests are runs")
        };
        out.attempted += 1;
        let pass = pipeline::pipeline(spec, tr, 2_000_000 + i as u64).and_then(|(stages, kept)| {
            let report_s = pipeline::best_report_s(&stages, &kept)?;
            Ok((stages, report_s))
        });
        match pass {
            Ok((stages, report_s)) => done.push((i, stages, report_s)),
            Err(e) => {
                eprintln!("batch check of request {} failed: {e}", requests[i].id);
                out.failed += 1;
            }
        }
    }
    done
}

/// Counts a session's requests and failures into `out`.
pub fn tally(session: &Session, out: &mut Outcome) {
    out.attempted += session.outcomes.len() as u64;
    let failed = session.outcomes.iter().filter(|o| !o.ok).count() as u64;
    out.failed += failed;
    if failed == 0 {
        out.mismatches.extend(session.problems.iter().cloned());
    } else {
        for p in &session.problems {
            eprintln!("serve: {p}");
        }
    }
}

/// The serve-side per-layer metrics of a session, plus its spans:
/// per request a `serve.request` span (due → closing record) with
/// `loadgen.lag` (due → released), `serve.accept` (released →
/// `accepted`) and `serve.exec` (`accepted` → closing record) children.
pub fn serve_layer_metrics(
    session: &Session,
    requests: &[Request],
    before: CacheStats,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let (mut accept, mut exec, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (o, _)) in session.outcomes.iter().zip(requests).enumerate() {
        let (Some(released), Some(accepted), Some(closed)) = (o.released, o.accepted, o.closed)
        else {
            continue;
        };
        let span_id = 3_000_000 + i as u64;
        let root = tr.record("serve.request", span_id, o.due, closed, None);
        tr.record("loadgen.lag", span_id, o.due, released, root);
        tr.record("serve.accept", span_id, released, accepted, root);
        tr.record("serve.exec", span_id, accepted, closed, root);
        accept.push(secs(o.due, accepted));
        exec.push(secs(accepted, closed));
        lag.push(secs(o.due, released));
    }
    let cache = session.summary.cache;
    let (hits, misses) = (cache.hits - before.hits, cache.misses - before.misses);
    let m = &mut out.metrics;
    m.set("serve.accept_p99_ms", percentile(&accept, 99.0) * 1e3);
    m.set("serve.exec_p50_ms", median(&exec) * 1e3);
    m.set("serve.exec_p99_ms", percentile(&exec, 99.0) * 1e3);
    m.set(
        "serve.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("serve.misses", misses as f64);
    m.set("serve.resident_bytes", cache.resident_bytes as f64);
    m.set(
        "serve.replay_mismatches",
        session.summary.replay_mismatches as f64,
    );
    m.set("loadgen.lag_p99_ms", percentile(&lag, 99.0) * 1e3);
}

/// Due → closing record of every successful request, in seconds.
fn latencies(w: &Window) -> Vec<f64> {
    w.session
        .outcomes
        .iter()
        .filter(|o| o.ok)
        .filter_map(session::Outcome::latency)
        .collect()
}

/// Runs the serve-mixed workload.
///
/// # Errors
///
/// A service I/O error or a failed budget preparation.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        return traced(cfg);
    }
    let mut w = window(cfg, &mut Tracer::new(false))?;
    let lat = latencies(&w);
    let completed = lat.len();
    let first_due = w.session.outcomes.first().map(|o| o.due);
    let last_close = w.session.outcomes.iter().filter_map(|o| o.closed).max();
    let span = match (first_due, last_close) {
        (Some(a), Some(b)) => secs(a, b),
        _ => 0.0,
    };
    let checks = &w.checks;
    let slots_per_s = 1.0 / best_per_class(checks, |c| c.stages.run / c.stages.horizon as f64);
    let report_s = best_per_class(checks, |c| c.report_s);
    let time_to_report_s = best_per_class(checks, |c| c.stages.total);
    let mut out = std::mem::take(&mut w.out);
    let m = &mut out.metrics;
    m.set("setup_s", median(&w.setups));
    m.set("slots_per_s", slots_per_s);
    m.set("report_s", report_s);
    m.set("time_to_report_s", time_to_report_s);
    m.set("req_p50_ms", median(&lat) * 1e3);
    m.set("req_p99_ms", percentile(&lat, 99.0) * 1e3);
    m.set("req_per_s", completed as f64 / span.max(1e-9));
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// One batch-pipeline pass of a sampled request.
struct Check {
    class: Class,
    stages: Stages,
    /// [`pipeline::best_report_s`] of the pass.
    report_s: f64,
}

/// The mean over the batch sample's request classes of each class's
/// lowest `f`. The runs of one class do the same pipeline work, so the
/// differences between them are the host's interference.
fn best_per_class(checks: &[Check], f: fn(&Check) -> f64) -> f64 {
    let mut best: Vec<(Class, f64)> = Vec::new();
    for check in checks {
        let v = f(check);
        match best.iter_mut().find(|(c, _)| *c == check.class) {
            Some((_, b)) => *b = b.min(v),
            None => best.push((check.class, v)),
        }
    }
    best.iter().map(|&(_, b)| b).sum::<f64>() / best.len().max(1) as f64
}

fn traced(cfg: &Config) -> Result<Outcome, String> {
    // The untraced reference window first: same inputs, no spans.
    let reference = window(cfg, &mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let mut w = window(cfg, &mut tr)?;
    let mut out = std::mem::take(&mut w.out);
    out.attempted += reference.out.attempted;
    out.failed += reference.out.failed;
    out.mismatches
        .extend(reference.out.mismatches.iter().cloned());
    serve_layer_metrics(&w.session, &w.requests, w.before, &mut tr, &mut out);

    let col = |f: fn(&Stages) -> f64| w.checks.iter().map(|c| f(&c.stages)).collect::<Vec<f64>>();
    let m = &mut out.metrics;
    m.set("scenario.parse_us", median(&col(|s| s.parse)) * 1e6);
    m.set("scenario.prepare_ms", median(&col(|s| s.prepare)) * 1e3);
    m.set("scenario.build_ms", median(&col(|s| s.build)) * 1e3);
    m.set("scenario.run_s", median(&col(|s| s.run)));
    m.set("scenario.report_ms", median(&col(|s| s.report)) * 1e3);
    m.set("scenario.serialize_us", median(&col(|s| s.serialize)) * 1e6);
    m.set(
        "scenario.report_bytes",
        median(&col(|s| s.bytes.len() as f64)),
    );
    m.set(
        "graphs.diameter_ms",
        median(&tr.durations("graphs.diameter")) * 1e3,
    );
    m.set(
        "trace.time_to_report_s",
        best_per_class(&w.checks, |c| c.stages.total),
    );
    m.set(
        "trace.untraced_time_to_report_s",
        best_per_class(&reference.checks, |c| c.stages.total),
    );
    m.set("trace.req_p50_ms", median(&latencies(&w)) * 1e3);
    m.set(
        "trace.untraced_req_p50_ms",
        median(&latencies(&reference)) * 1e3,
    );

    // The layer probes over the largest hot deployment.
    let shape = shape(cfg);
    let text = spec(0, &shape.hot[1], shape.slots, cfg.seed);
    out.attempted += 1;
    let (_, kept) = pipeline::pipeline(&text, &mut tr, 1)?;
    let sizes = ProbeSizes {
        cycles: if cfg.scale == Scale::Full { 8 } else { 2 },
        mac_steps: 200,
    };
    probes::layers(&kept, &mut tr, sizes, &mut out)?;
    add_self_times(&tr, &mut out.metrics);
    out.spans = Some(tr);
    Ok(out)
}
