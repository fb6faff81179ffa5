//! Shared plumbing for all experiments: deployment search, trace
//! capture, workload clients and table printing.
//!
//! Most of the heavy lifting moved into the `sinr-scenario` crate when
//! the harness became spec-driven; this module keeps the legacy entry
//! points alive (delegating to the scenario layer) plus the [`Table`]
//! renderer the regenerator binaries print with.

use absmac::{MacClient, MacLayer, Runner, TraceEvent};
use sinr_geom::Point;
use sinr_graphs::SinrGraphs;
use sinr_phys::{BackendSpec, SinrParams};

pub use sinr_scenario::clients::Repeater;

/// Reception backend for code paths that predate spec-carried backends,
/// parsed from the `SINR_BACKEND` environment variable (`exact`,
/// `cached`, `hybrid[:CUTOFF]`, `cached:par:THREADS`; threads reach only
/// `cached` and `hybrid`).
///
/// **This is a legacy override layer.** Scenario-driven runs carry their
/// backend in the spec's `backend=` field, which is what published
/// results should rely on; `SINR_BACKEND` remains a deliberate operator
/// override *on top of* the spec (it wins, and
/// [`sinr_scenario::env_backend_override`] prints a stderr warning when
/// it changes the spec's choice). With no spec in play — this function —
/// the override applies over the `exact` default, silently, exactly as
/// the pre-scenario harness behaved.
///
/// # Panics
///
/// Panics with the parse error if `SINR_BACKEND` is set but malformed —
/// a misconfigured benchmark run must not silently fall back.
pub fn backend_spec() -> BackendSpec {
    match std::env::var("SINR_BACKEND") {
        Ok(s) => BackendSpec::parse(&s).unwrap_or_else(|e| panic!("SINR_BACKEND: {e}")),
        Err(_) => BackendSpec::exact(),
    }
}

/// Finds a seed (starting at `seed0`) whose uniform deployment has a
/// connected strong graph; the paper assumes `G₁₋ε` connected (§4.6).
/// Delegates to [`sinr_scenario::connected_uniform`] — the spec form is
/// `deploy=connected:uniform:N:SIDE:SEED0`.
///
/// # Panics
///
/// Panics if 64 consecutive seeds fail — the density is too low for the
/// requested size, which is an experiment-configuration bug.
pub fn connected_uniform(
    sinr: &SinrParams,
    n: usize,
    side: f64,
    seed0: u64,
) -> (Vec<Point>, SinrGraphs, u64) {
    sinr_scenario::connected_uniform(sinr, n, side, seed0).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `clients` over `mac` for `horizon` steps and returns the trace
/// (drained out of the runner, not cloned).
///
/// # Panics
///
/// Panics if a client violates the MAC contract (surfacing protocol bugs
/// rather than corrupting measurements).
pub fn run_for_trace<M, C>(mac: M, clients: Vec<C>, horizon: u64) -> Vec<TraceEvent>
where
    M: MacLayer,
    C: MacClient<M::Payload>,
{
    let mut runner = Runner::new(mac, clients).expect("runner construction");
    for _ in 0..horizon {
        runner.step().expect("client respected MAC contract");
    }
    runner.take_trace()
}

/// A printed experiment table: aligned text for humans plus a `# csv`
/// block for machines, in one pass.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders aligned text followed by a CSV block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str("# csv\n");
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a,long_header"));
        assert!(s.contains("1,2"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn connected_uniform_returns_connected() {
        let sinr = SinrParams::builder().range(16.0).build().unwrap();
        let (pts, graphs, _) = connected_uniform(&sinr, 24, 28.0, 0);
        assert_eq!(pts.len(), 24);
        assert!(graphs.strong.is_connected());
    }
}
