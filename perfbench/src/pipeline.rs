//! The single-run workloads, `paper-mac-1024` and `city-hybrid-10k`:
//! spec text → parse → prepare → build → run → report → bytes, timed
//! stage by stage.

use std::time::{Duration, Instant};

use sinr_graphs::SinrGraphs;
use sinr_scenario::{report_for, PreparedDeployment, ScenarioRun, ScenarioSpec};
use sinr_serve::json::{self, Value};

use crate::probes::{self, ProbeSizes};
use crate::stats::{fnv1a, median, percentile};
use crate::trace::Tracer;
use crate::{add_self_times, peak_rss_mb, Config, Outcome, Scale, Workload};

/// Set-ups per run that `setup_s` is the median of.
const MIN_SETUPS: usize = 5;
/// A report stage shorter than this is timed again [`REPORT_REPEATS`]
/// times: one short sample is at the mercy of a momentary slow-down of
/// the host.
const REPEAT_REPORT_BELOW_S: f64 = 1.0;
/// Extra timings of a short report stage.
const REPORT_REPEATS: usize = 4;

/// Digests of the report bytes of the contracted workloads, one
/// `workload seed fnv1a-hex` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// The spec text of a single-run workload at `seed`.
pub fn spec_text(workload: Workload, seed: u64, scale: Scale) -> String {
    let (name, deploy, backend, slots, measure) = match (workload, scale) {
        (Workload::PaperMac, Scale::Full) => (
            "paper-mac-1024",
            "uniform:1024:70",
            "cached",
            10_000,
            "trace",
        ),
        (Workload::PaperMac, Scale::Smoke) => {
            ("paper-mac-1024", "uniform:64:17.5", "cached", 2500, "trace")
        }
        (Workload::CityHybrid, Scale::Full) => (
            "city-hybrid-10k",
            "uniform:10000:220",
            "hybrid",
            200,
            "none",
        ),
        (Workload::CityHybrid, Scale::Smoke) => {
            ("city-hybrid-10k", "uniform:256:35.2", "hybrid", 20, "none")
        }
        (Workload::ServeMixed, _) => unreachable!("serve-mixed has no single spec"),
    };
    format!(
        "name={name}\ndeploy={deploy}:{seed}\nsinr=range:16\nbackend={backend}\nmac=sinr\n\
         workload=repeat:stride:2\nstop=slots:{slots}\nseed={seed}\nmeasure={measure}\n"
    )
}

/// Stage times of one pipeline pass, in seconds.
#[derive(Debug, Clone)]
pub struct Stages {
    /// `ScenarioSpec::parse`.
    pub parse: f64,
    /// `PreparedDeployment::prepare`.
    pub prepare: f64,
    /// `ScenarioSpec::build_with_prepared`.
    pub build: f64,
    /// `RunnableScenario::run`.
    pub run: f64,
    /// `report_for`.
    pub report: f64,
    /// `Report::write_json`.
    pub serialize: f64,
    /// Spec text → report bytes.
    pub total: f64,
    /// Simulated slots.
    pub horizon: u64,
    /// The report bytes.
    pub bytes: Vec<u8>,
}

impl Stages {
    /// parse + prepare + build.
    pub fn setup(&self) -> f64 {
        self.parse + self.prepare + self.build
    }
}

/// What a pipeline pass leaves for the layer probes.
pub struct Kept {
    /// The parsed spec.
    pub spec: ScenarioSpec,
    /// The prepared deployment the run was built from.
    pub prepared: PreparedDeployment,
    /// The finished run.
    pub run: ScenarioRun,
}

/// One pass from spec text to report bytes. Spans (when `tr` is on)
/// wrap each public call; the report span times the memoized
/// `Graph::diameter` first, as its own child, so the report's dominant
/// step shows as a layer of its own.
///
/// # Errors
///
/// The first stage error, as text.
pub fn pipeline(text: &str, tr: &mut Tracer, id: u64) -> Result<(Stages, Kept), String> {
    tr.span("bench.pipeline", id, |tr| {
        let t0 = Instant::now();
        let spec = tr
            .span("scenario.parse", id, |_| ScenarioSpec::parse(text))
            .map_err(|e| format!("parse: {e}"))?;
        let t1 = Instant::now();
        let prepared = tr
            .span("scenario.prepare", id, |_| {
                PreparedDeployment::prepare(&spec)
            })
            .map_err(|e| format!("prepare: {e}"))?;
        let t2 = Instant::now();
        let runnable = tr
            .span("scenario.build", id, |_| {
                spec.build_with_prepared(&prepared)
            })
            .map_err(|e| format!("build: {e}"))?;
        let t3 = Instant::now();
        let run = tr
            .span("scenario.run", id, |_| runnable.run())
            .map_err(|e| format!("run: {e}"))?;
        let t4 = Instant::now();
        let report = tr.span("scenario.report", id, |tr| {
            if tr.enabled() {
                tr.span("graphs.diameter", id, |_| run.ctx.graphs.strong.diameter());
            }
            report_for(&run)
        });
        let t5 = Instant::now();
        let mut bytes = Vec::new();
        tr.span("scenario.serialize", id, |_| report.write_json(&mut bytes))
            .map_err(|e| format!("serialize: {e}"))?;
        let t6 = Instant::now();
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let stages = Stages {
            parse: s(t0, t1),
            prepare: s(t1, t2),
            build: s(t2, t3),
            run: s(t3, t4),
            report: s(t4, t5),
            serialize: s(t5, t6),
            total: s(t0, t6),
            horizon: run.outcome.horizon,
            bytes,
        };
        Ok((
            stages,
            Kept {
                spec,
                prepared,
                run,
            },
        ))
    })
}

/// The pass's report + serialize time, or a better one from timing
/// `report_for` + `write_json` again on copies of the run whose graphs
/// are induced afresh, so the memoized diameter is recomputed as in the
/// pass. Only short report stages are repeated.
///
/// # Errors
///
/// A copy that renders different bytes from the pass.
pub fn best_report_s(stages: &Stages, kept: &Kept) -> Result<f64, String> {
    let mut best = stages.report + stages.serialize;
    if stages.report >= REPEAT_REPORT_BELOW_S {
        return Ok(best);
    }
    for _ in 0..REPORT_REPEATS {
        let mut copy = kept.run.clone();
        copy.ctx.graphs = SinrGraphs::induce(&copy.ctx.sinr, &copy.ctx.positions);
        let t0 = Instant::now();
        let mut bytes = Vec::new();
        report_for(&copy)
            .write_json(&mut bytes)
            .map_err(|e| format!("serialize: {e}"))?;
        best = best.min(t0.elapsed().as_secs_f64());
        if bytes != stages.bytes {
            return Err("a repeated report rendered different bytes".into());
        }
    }
    Ok(best)
}

/// parse + prepare + build only, in seconds.
fn setup_once(text: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::parse(text).map_err(|e| format!("parse: {e}"))?;
    let prepared = PreparedDeployment::prepare(&spec).map_err(|e| format!("prepare: {e}"))?;
    let runnable = spec
        .build_with_prepared(&prepared)
        .map_err(|e| format!("build: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(runnable));
    Ok(secs)
}

/// Runs a single-run workload.
///
/// # Errors
///
/// Only for failures outside a pipeline pass; pass failures are counted.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let text = spec_text(cfg.workload, cfg.seed, cfg.scale);
    if cfg.trace {
        traced(cfg, &text)
    } else {
        untraced(cfg, &text)
    }
}

fn untraced(cfg: &Config, text: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut passes: Vec<Stages> = Vec::new();
    let mut setups = Vec::new();
    let mut reports = Vec::new();
    // The peak resident set of the first pass alone, read before the
    // benchmark's own report copies. Later passes only add allocator
    // fragmentation, which grows with however many passes the host's
    // speed allows in a run.
    let mut first_peak_mb = None;
    loop {
        out.attempted += 1;
        match pipeline(text, &mut off, out.attempted) {
            Ok((stages, kept)) => {
                first_peak_mb.get_or_insert_with(peak_rss_mb);
                if let Some(first) = passes.first() {
                    if first.bytes != stages.bytes {
                        out.mismatches
                            .push("the same spec gave different report bytes".into());
                    }
                }
                match best_report_s(&stages, &kept) {
                    Ok(r) => reports.push(r),
                    Err(e) => out.mismatches.push(e),
                }
                setups.push(stages.setup());
                passes.push(stages);
            }
            Err(e) => {
                eprintln!("pipeline pass failed: {e}");
                out.failed += 1;
                break;
            }
        }
        // Start another pass only if it should end before the deadline,
        // so a run lasts about `seconds` whatever a pass costs.
        let per_pass = start.elapsed() / passes.len().max(1) as u32;
        if Instant::now() + per_pass > deadline {
            break;
        }
    }
    let Some(first) = passes.first() else {
        return Ok(out);
    };
    check_report(cfg, &first.bytes, &mut out.mismatches);
    while setups.len() < MIN_SETUPS {
        setups.push(setup_once(text)?);
    }

    // Every pass does the same work (its bytes are checked equal), so the
    // differences between passes are the host's interference: the stage
    // metrics take the best pass, the request metrics keep them all.
    let col = |f: fn(&Stages) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let best = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let totals = col(|s| s.total);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("slots_per_s", 1.0 / best(col(|s| s.run / s.horizon as f64)));
    m.set("report_s", best(reports));
    m.set("time_to_report_s", best(totals.clone()));
    m.set("req_p50_ms", median(&totals) * 1e3);
    m.set("req_p99_ms", percentile(&totals, 99.0) * 1e3);
    m.set(
        "req_per_s",
        totals.len() as f64 / totals.iter().sum::<f64>(),
    );
    m.set("peak_rss_mb", first_peak_mb.unwrap_or_else(peak_rss_mb));
    Ok(out)
}

fn traced(cfg: &Config, text: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The untraced reference pass: same inputs, no spans, so the traced
    // pass's time shows the tracing overhead next to it.
    out.attempted += 1;
    let reference = match pipeline(text, &mut Tracer::new(false), 0) {
        Ok((stages, _)) => stages,
        Err(e) => {
            eprintln!("reference pass failed: {e}");
            out.failed += 1;
            return Ok(out);
        }
    };
    let mut tr = Tracer::new(true);
    out.attempted += 1;
    let (stages, kept) = match pipeline(text, &mut tr, 1) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("traced pass failed: {e}");
            out.failed += 1;
            return Ok(out);
        }
    };
    if stages.bytes != reference.bytes {
        out.mismatches
            .push("traced and untraced passes gave different report bytes".into());
    }
    check_report(cfg, &stages.bytes, &mut out.mismatches);

    let m = &mut out.metrics;
    m.set("scenario.parse_us", stages.parse * 1e6);
    m.set("scenario.prepare_ms", stages.prepare * 1e3);
    m.set("scenario.build_ms", stages.build * 1e3);
    m.set("scenario.run_s", stages.run);
    m.set("scenario.report_ms", stages.report * 1e3);
    m.set("scenario.serialize_us", stages.serialize * 1e6);
    m.set("scenario.report_bytes", stages.bytes.len() as f64);
    m.set(
        "graphs.diameter_ms",
        median(&tr.durations("graphs.diameter")) * 1e3,
    );
    m.set("trace.time_to_report_s", stages.total);
    m.set("trace.untraced_time_to_report_s", reference.total);
    m.set("trace.req_p50_ms", stages.total * 1e3);
    m.set("trace.untraced_req_p50_ms", reference.total * 1e3);

    let sizes = match cfg.scale {
        Scale::Full => ProbeSizes {
            cycles: 8,
            mac_steps: stages.horizon.min(2000),
        },
        Scale::Smoke => ProbeSizes {
            cycles: 2,
            mac_steps: stages.horizon.min(50),
        },
    };
    probes::layers(&kept, &mut tr, sizes, &mut out)?;
    drop(kept);
    // The serve layer's fixed per-request cost on a minimal request:
    // serving this workload's own spec would repeat its whole report
    // (the city diameter alone is tens of seconds) for no new layer.
    probes::serve_probe(&mut tr, &mut out)?;
    add_self_times(&tr, &mut out.metrics);
    out.spans = Some(tr);
    Ok(out)
}

/// Checks report bytes: they parse, describe the contracted deployment,
/// and match the pinned digest when one is kept for this seed.
fn check_report(cfg: &Config, bytes: &[u8], mismatches: &mut Vec<String>) {
    let text = String::from_utf8_lossy(bytes);
    let report = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            mismatches.push(format!("report is not JSON: {e}"));
            return;
        }
    };
    let realized = |k: &str| report.get("realized").and_then(|r| r.get(k)).cloned();
    let (n, backend) = match (cfg.workload, cfg.scale) {
        (Workload::PaperMac, Scale::Full) => (1024, "cached"),
        (Workload::PaperMac, Scale::Smoke) => (64, "cached"),
        (Workload::CityHybrid, Scale::Full) => (10_000, "hybrid"),
        (Workload::CityHybrid, Scale::Smoke) => (256, "hybrid"),
        (Workload::ServeMixed, _) => unreachable!("serve-mixed has no single report"),
    };
    if realized("n").as_ref().and_then(Value::as_u64) != Some(n) {
        mismatches.push(format!("report realized n is not {n}"));
    }
    if realized("backend").as_ref().and_then(Value::as_str) != Some(backend) {
        mismatches.push(format!("report realized backend is not {backend}"));
    }
    if cfg.workload == Workload::PaperMac {
        let acks = report
            .get("metrics")
            .and_then(|m| m.get("ack_count"))
            .and_then(Value::as_u64);
        if acks.is_none_or(|a| a == 0) {
            mismatches.push("paper-mac run acknowledged no broadcast".into());
        }
    }
    if cfg.scale == Scale::Full {
        let digest = fnv1a(bytes);
        match pinned_digest(cfg.workload, cfg.seed) {
            Some(want) if want != digest => mismatches.push(format!(
                "report digest {digest:016x} differs from the pinned {want:016x} for seed {}",
                cfg.seed
            )),
            Some(_) => {}
            None => eprintln!(
                "note: no pinned digest for {} seed {}; checked determinism only (digest {digest:016x})",
                cfg.workload, cfg.seed
            ),
        }
    }
}

/// The pinned report digest of `workload` at `seed`, if one is kept.
pub fn pinned_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Prints `workload seed digest` lines for the given seeds: how the
/// pinned digests in `digests.txt` are made.
///
/// # Errors
///
/// A pipeline pass failure.
pub fn print_digests(workload: Workload, seeds: std::ops::Range<u64>) -> Result<(), String> {
    for seed in seeds {
        let text = spec_text(workload, seed, Scale::Full);
        let (stages, _) = pipeline(&text, &mut Tracer::new(false), seed)?;
        println!("{} {seed} {:016x}", workload.name(), fnv1a(&stages.bytes));
    }
    Ok(())
}
