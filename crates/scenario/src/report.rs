//! Machine-readable run reports: the standard measurement extraction
//! every run gets for free, rendered through [`Json`].
//!
//! The report computes the paper's empirical quantities from the trace
//! when one was recorded: acknowledgment latencies (`f_ack`,
//! Theorem 5.1), standard progress (`f_prog`, trigger = receive =
//! `G₁₋ε`) and approximate progress (`f_approg`, Definition 7.1,
//! trigger `G₁₋₂ε`, receive `G₁₋ε`) — plus completion data for global
//! workloads and the realized deployment facts needed to reproduce the
//! run.

use absmac::measure::{self, LatencyStats};

use crate::build::ScenarioRun;
use crate::json::Json;

/// A finished run rendered as structured data, ready for `to_json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name.
    pub name: String,
    /// The full spec text, so the report alone reproduces the run.
    pub spec: String,
    /// Realized deployment and parameter facts.
    pub realized: Vec<(String, Json)>,
    /// Measured quantities.
    pub metrics: Vec<(String, Json)>,
}

impl Report {
    /// The report as a [`Json`] value — what [`Report::to_json`]
    /// serializes.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("spec".into(), Json::str(&self.spec)),
            ("realized".into(), Json::Obj(self.realized.clone())),
            ("metrics".into(), Json::Obj(self.metrics.clone())),
        ])
    }

    /// Serializes to one JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Streams the report's JSON into `w` instead of buffering it —
    /// byte-identical to [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Any I/O error `w` reports.
    pub fn write_json(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        write!(w, "{}", self.to_json_value())
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Json> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

fn stats_fields(prefix: &str, stats: &LatencyStats, out: &mut Vec<(String, Json)>) {
    out.push((format!("{prefix}_count"), Json::int(stats.count() as u64)));
    if let Some(mean) = stats.mean() {
        out.push((format!("{prefix}_mean"), Json::Num(mean)));
    }
    if let Some(p50) = stats.percentile(50.0) {
        out.push((format!("{prefix}_p50"), Json::int(p50)));
    }
    if let Some(max) = stats.max() {
        out.push((format!("{prefix}_max"), Json::int(max)));
    }
}

/// Computes the standard report for a finished run.
pub fn report_for(run: &ScenarioRun) -> Report {
    let ctx = &run.ctx;
    let out = &run.outcome;
    let mut realized = vec![
        ("n".into(), Json::int(ctx.positions.len() as u64)),
        ("seed".into(), Json::int(ctx.seed)),
        ("deploy_seed".into(), Json::opt_int(ctx.deploy_seed)),
        ("lambda".into(), Json::Num(ctx.graphs.lambda)),
        (
            "max_degree_strong".into(),
            Json::int(ctx.graphs.strong.max_degree() as u64),
        ),
        (
            "diameter_strong".into(),
            Json::opt_int(ctx.graphs.strong.diameter().map(u64::from)),
        ),
        (
            "connected_strong".into(),
            Json::Bool(ctx.graphs.strong.is_connected()),
        ),
        ("backend".into(), Json::str(ctx.backend.to_string())),
        ("max_slots".into(), Json::int(ctx.max_slots)),
    ];
    if let Some(params) = &ctx.mac_params {
        realized.push((
            "epoch_len".into(),
            Json::int(2 * params.layout().epoch_len()),
        ));
        realized.push(("ack_slot_cap".into(), Json::int(params.ack_slot_cap as u64)));
    }

    let mut metrics = vec![
        ("completed_at".into(), Json::opt_int(out.completed_at)),
        ("horizon".into(), Json::int(out.horizon)),
        ("trace_events".into(), Json::int(out.trace.len() as u64)),
        ("trace_truncated".into(), Json::Bool(out.trace_truncated)),
    ];
    if let Some(d) = out.max_dropped {
        metrics.push(("max_dropped".into(), Json::int(d as u64)));
    }
    if let Some(digests) = &out.geometry_digests {
        // Hex strings: u64 digests do not fit a JSON double exactly.
        metrics.push((
            "geometry_digests".into(),
            Json::Arr(
                digests
                    .iter()
                    .map(|d| Json::str(format!("{d:016x}")))
                    .collect(),
            ),
        ));
        let moved = digests.windows(2).any(|w| w[0] != w[1]);
        metrics.push(("geometry_changed".into(), Json::Bool(moved)));
    }
    if let Some(smb) = &out.smb {
        metrics.push((
            "informed_count".into(),
            Json::int(smb.informed_count() as u64),
        ));
        metrics.push(("informed_all".into(), Json::Bool(smb.complete())));
    }
    if let Some(decisions) = &out.decisions {
        let decided = decisions.iter().filter(|d| d.is_some()).count();
        let agreement = decisions.windows(2).all(|w| w[0] == w[1])
            && decisions.first().is_some_and(Option::is_some);
        metrics.push(("decided_count".into(), Json::int(decided as u64)));
        metrics.push(("agreement".into(), Json::Bool(agreement)));
    }
    if !out.trace.is_empty() {
        let acks = measure::ack_latencies(&out.trace);
        let ack_stats = LatencyStats::from_samples(acks.into_iter().map(|(_, l)| l).collect());
        stats_fields("ack", &ack_stats, &mut metrics);
        for (label, trigger) in [("prog", &ctx.graphs.strong), ("approg", &ctx.graphs.approx)] {
            let (stats, pending) = measure::progress_summary(&measure::first_progress(
                &out.trace,
                trigger,
                &ctx.graphs.strong,
                out.horizon,
            ));
            stats_fields(label, &stats, &mut metrics);
            metrics.push((format!("{label}_pending"), Json::int(pending as u64)));
        }
    }

    Report {
        name: ctx.spec.name.clone(),
        spec: ctx.spec.to_string(),
        realized,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeploymentSpec, MacSpec, ScenarioSpec, SourceSet, StopSpec, WorkloadSpec};
    use sinr_geom::DeploySpec;

    #[test]
    fn report_for_a_tiny_run_has_standard_metrics() {
        let spec = ScenarioSpec::new(
            "tiny",
            DeploymentSpec::plain(DeploySpec::Lattice {
                rows: 3,
                cols: 3,
                spacing: 2.0,
            }),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(300),
        )
        .with_sinr(crate::spec::SinrSpec::with_range(8.0))
        .with_mac(MacSpec::sinr());
        let run = spec.run().unwrap();
        let report = report_for(&run);
        assert!(report.metric("ack_count").is_some());
        assert!(report.metric("approg_pending").is_some());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"realized\""));
    }
}
