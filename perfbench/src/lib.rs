//! End-to-end spec → report benchmark of the SINR workspace, with a
//! traced per-layer breakdown.
//!
//! Every input is generated from the workload seed; the library only
//! ever sees spec text and NDJSON requests. An untraced run measures
//! the end-to-end metrics ([`END_TO_END`]); a traced run (`--trace 1`)
//! records spans around the benchmark's calls into each layer's public
//! functions and reports [`PER_LAYER`]. See `README.md` next to this
//! crate for the workloads and the layer → end-to-end map.

#![forbid(unsafe_code)]

pub mod pipeline;
pub mod probes;
pub mod serve_mixed;
pub mod session;
pub mod stats;
pub mod trace;

use std::fmt;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slots_per_s", "slots/s"),
    ("report_s", "s"),
    ("time_to_report_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_us", "us"),
    ("scenario.prepare_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("geom.deploy_ms", "ms"),
    ("graphs.induce_ms", "ms"),
    ("graphs.strong_edges", "count"),
    ("graphs.diameter_ms", "ms"),
    ("phys.table_build_ms", "ms"),
    ("phys.table_bytes", "bytes"),
    ("phys.decide_slot_us", "us"),
    ("phys.decide_slot_p99_us", "us"),
    ("mac.step_p50_us", "us"),
    ("mac.step_p99_us", "us"),
    ("mac.tx_per_slot", "count"),
    ("mac.rx_per_slot", "count"),
    ("scenario.run_s", "s"),
    ("scenario.report_ms", "ms"),
    ("scenario.serialize_us", "us"),
    ("scenario.report_bytes", "bytes"),
    ("serve.accept_p99_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.misses", "count"),
    ("serve.resident_bytes", "bytes"),
    ("serve.replay_mismatches", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.geom_ms", "ms"),
    ("self.graphs_ms", "ms"),
    ("self.phys_ms", "ms"),
    ("self.mac_ms", "ms"),
    ("self.scenario_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.loadgen_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.time_to_report_s", "s"),
    ("trace.untraced_time_to_report_s", "s"),
    ("trace.req_p50_ms", "ms"),
    ("trace.untraced_req_p50_ms", "ms"),
];

/// Each span layer and the metric its self time is reported as.
const SELF_METRICS: [(&str, &str); 8] = [
    ("bench", "self.bench_ms"),
    ("geom", "self.geom_ms"),
    ("graphs", "self.graphs_ms"),
    ("phys", "self.phys_ms"),
    ("mac", "self.mac_ms"),
    ("scenario", "self.scenario_ms"),
    ("serve", "self.serve_ms"),
    ("loadgen", "self.loadgen_ms"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 11.1 over the dense incremental kernel, n = 1024.
    PaperMac,
    /// The same MAC over the sparse hybrid kernel at city density,
    /// n = 10⁴.
    CityHybrid,
    /// Open-loop mixed traffic through the scenario service.
    ServeMixed,
}

impl Workload {
    /// Every workload. `serve-mixed` is not in `BENCHMARK.json`: its
    /// run-to-run spread on a noisy 2-CPU host exceeded every allowed
    /// bound (see README.md), but it runs by name.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMac,
        Workload::CityHybrid,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMac => "paper-mac-1024",
            Workload::CityHybrid => "city-hybrid-10k",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// A message naming the valid workloads.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {s:?}; expected one of {names:?}")
            })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input size: the contracted workloads, or a tiny-n variant of each
/// for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The contracted sizes.
    Full,
    /// Tiny n and short windows, same code paths.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// The measured metrics of one run, in print order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (pipelines or requests).
    pub attempted: u64,
    /// Attempts that errored, were refused or produced an error record.
    pub failed: u64,
    /// Correctness-check failures; any entry fails the run.
    pub mismatches: Vec<String>,
    /// The metrics, unordered.
    pub metrics: Metrics,
    /// The recorded spans (empty unless traced).
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    /// Whether every correctness check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The final result line. A run that is not correct publishes no
    /// numbers.
    ///
    /// # Errors
    ///
    /// A message naming a contracted metric the run did not produce, or
    /// produced as a non-finite number.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        if self.correct() {
            for &(name, unit) in table {
                let v = self
                    .metrics
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if !v.is_finite() {
                    return Err(format!("metric {name} is not finite: {v}"));
                }
                fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
            }
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload cannot run at all (a build error, a
/// service I/O error); failed checks are reported in the outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::PaperMac | Workload::CityHybrid => pipeline::run(cfg),
        Workload::ServeMixed => serve_mixed::run(cfg),
    }
}

/// Fills the `self.<layer>_ms` and `trace.spans` metrics from a traced
/// run's spans.
pub fn add_self_times(tracer: &trace::Tracer, metrics: &mut Metrics) {
    let by_layer = tracer.self_secs_by_layer();
    for (layer, name) in SELF_METRICS {
        metrics.set(name, by_layer.get(layer).copied().unwrap_or(0.0) * 1e3);
    }
    metrics.set("trace.spans", tracer.spans().len() as f64);
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
