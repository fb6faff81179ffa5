//! The paper's evidence as one committed file: `sinr-lab paper [OUT]`
//! runs the thirteen tables of experiments E1–E5 and ablations A1–A2
//! from the `exp_*` spec constructors, prints each table, writes
//! `PAPER_RESULTS.json` and checks every table's claim — a list of
//! relations over its rows — against what it wrote.
//!
//! Each table in the file holds its id, the theorem it tests, the claim
//! in words, the column names, the rows (numbers, `null` for a timeout
//! or an empty sample, booleans) and the spec text of every scenario
//! behind each row. The cells are slot counts and quantities of the
//! realized deployments, derived reals rounded, so the bytes repeat from
//! run to run and do not depend on which of `exact` and `cached` decides
//! receptions: CI regenerates the file on both and compares it byte for
//! byte with the committed one. A claim that fails makes `paper` exit 2
//! naming the table, the theorem and the relation.

use std::fmt;

use absmac::measure::LatencyStats;
use sinr_geom::DeploySpec;
use sinr_scenario::json::{self, Json};
use sinr_scenario::{DeploymentSpec, MacKnob, ScenarioSpec, SeedSpec, SinrSpec};

use crate::common::Table;
use crate::{exp_ablation, exp_decay, exp_fig1, exp_global, exp_local, exp_table2};

/// One relation a table's rows must satisfy, over named columns.
#[derive(Debug, Clone, Copy)]
enum Rel {
    /// In every row, `a == b - k`.
    Offset(&'static str, &'static str, f64),
    /// In every row, the column equals the number.
    Equals(&'static str, f64),
    /// In every row, the column is at least the number.
    AtLeast(&'static str, f64),
    /// In every row, the column is `true`.
    True(&'static str),
    /// In every row, the column is a number, not `null` (a timeout).
    Present(&'static str),
    /// In every row, `a < b`.
    Below(&'static str, &'static str),
    /// Down the rows, the column never decreases.
    NonDecreasing(&'static str),
    /// Down the rows, the column strictly increases.
    Increasing(&'static str),
    /// Down the rows, the column never increases.
    NonIncreasing(&'static str),
    /// From the first row to the last, `a` grows by a smaller factor
    /// than `b`.
    SlowerThan(&'static str, &'static str),
    /// The last row's value is at least `k` times the first row's.
    GrowsBy(&'static str, f64),
}

/// The values of one column of a results-file table, top to bottom;
/// `None` if the column or a cell is missing or the table has no rows.
fn column<'a>(table: &'a Json, name: &str) -> Option<Vec<&'a Json>> {
    let columns = table.get("columns")?.as_arr()?;
    let i = columns.iter().position(|c| c.as_str() == Some(name))?;
    let rows = table.get("rows")?.as_arr()?;
    if rows.is_empty() {
        return None;
    }
    rows.iter().map(|row| row.as_arr()?.get(i)).collect()
}

impl Rel {
    fn holds(self, table: &Json) -> bool {
        let nums = |name| -> Option<Vec<f64>> {
            column(table, name)?.iter().map(|v| v.as_f64()).collect()
        };
        let pairs = |a, b| nums(a).zip(nums(b));
        let down = |name, ok: fn(f64, f64) -> bool| {
            nums(name).is_some_and(|v| v.windows(2).all(|w| ok(w[0], w[1])))
        };
        let growth = |name| nums(name).and_then(|v| Some(v.last()? / v.first()?));
        match self {
            Rel::Offset(a, b, k) => {
                pairs(a, b).is_some_and(|(a, b)| a.iter().zip(&b).all(|(a, b)| *a == b - k))
            }
            Rel::Equals(a, k) => nums(a).is_some_and(|v| v.iter().all(|x| *x == k)),
            Rel::AtLeast(a, k) => nums(a).is_some_and(|v| v.iter().all(|x| *x >= k)),
            Rel::True(a) => {
                column(table, a).is_some_and(|v| v.iter().all(|x| x.as_bool() == Some(true)))
            }
            Rel::Present(a) => nums(a).is_some(),
            Rel::Below(a, b) => {
                pairs(a, b).is_some_and(|(a, b)| a.iter().zip(&b).all(|(a, b)| a < b))
            }
            Rel::NonDecreasing(a) => down(a, |x, y| x <= y),
            Rel::Increasing(a) => down(a, |x, y| x < y),
            Rel::NonIncreasing(a) => down(a, |x, y| x >= y),
            Rel::SlowerThan(a, b) => growth(a).zip(growth(b)).is_some_and(|(a, b)| a < b),
            Rel::GrowsBy(a, k) => growth(a).is_some_and(|g| g >= k),
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Rel::Offset(a, b, k) => write!(f, "{a} == {b} - {k} in every row"),
            Rel::Equals(a, k) => write!(f, "{a} == {k} in every row"),
            Rel::AtLeast(a, k) => write!(f, "{a} >= {k} in every row"),
            Rel::True(a) => write!(f, "{a} is true in every row"),
            Rel::Present(a) => write!(f, "{a} is never null (no timeout)"),
            Rel::Below(a, b) => write!(f, "{a} < {b} in every row"),
            Rel::NonDecreasing(a) => write!(f, "{a} never decreases down the rows"),
            Rel::Increasing(a) => write!(f, "{a} strictly increases down the rows"),
            Rel::NonIncreasing(a) => write!(f, "{a} never increases down the rows"),
            Rel::SlowerThan(a, b) => write!(
                f,
                "{a} grows by a smaller factor than {b} from the first row to the last"
            ),
            Rel::GrowsBy(a, k) => {
                write!(f, "{a} grows at least {k}x from the first row to the last")
            }
        }
    }
}

/// One measured row: its cells and the scenarios behind them.
struct Row {
    cells: Vec<Json>,
    specs: Vec<ScenarioSpec>,
}

impl Row {
    /// A row measured by one scenario.
    fn of(spec: ScenarioSpec, cells: Vec<Json>) -> Row {
        let specs = vec![spec];
        Row { cells, specs }
    }
}

/// One table of the paper results: where it comes from, what it claims
/// and how its rows are measured.
pub(crate) struct PaperTable {
    /// Stable id, the `id` field in the results file.
    pub(crate) id: &'static str,
    /// The theorem, table or figure of the paper the rows test.
    pub(crate) theorem: &'static str,
    /// What the table sweeps.
    pub(crate) title: &'static str,
    /// Column names, separated by spaces.
    columns: &'static str,
    claim: &'static [Rel],
    rows: fn() -> Vec<Row>,
}

impl PaperTable {
    fn columns(&self) -> Vec<&'static str> {
        self.columns.split_whitespace().collect()
    }

    fn claim_text(&self) -> String {
        let rels: Vec<String> = self.claim.iter().map(Rel::to_string).collect();
        rels.join("; ")
    }

    /// Runs the table's scenarios, prints the table and returns its
    /// results-file entry.
    fn run(&self) -> Json {
        let rows = (self.rows)();
        let title = format!("{} · {} · {}", self.id, self.theorem, self.title);
        let mut printed = Table::new(&title, &self.columns());
        for r in &rows {
            printed.row(r.cells.iter().map(Json::to_string).collect());
        }
        printed.print();
        println!("claim: {}\n", self.claim_text());
        let strs = |items: Vec<String>| Json::Arr(items.into_iter().map(Json::Str).collect());
        let specs = |r: &Row| strs(r.specs.iter().map(ScenarioSpec::to_string).collect());
        Json::Obj(vec![
            ("id".into(), Json::str(self.id)),
            ("theorem".into(), Json::str(self.theorem)),
            ("title".into(), Json::str(self.title)),
            ("claim".into(), Json::str(self.claim_text())),
            (
                "columns".into(),
                strs(self.columns().into_iter().map(String::from).collect()),
            ),
            (
                "rows".into(),
                Json::Arr(rows.iter().map(|r| Json::Arr(r.cells.clone())).collect()),
            ),
            ("specs".into(), Json::Arr(rows.iter().map(specs).collect())),
        ])
    }
}

/// The paper-default `ε_ack` the E1 runs use: Thm 5.1 delivers each
/// broadcast to every strong neighbour before its ack with probability
/// at least `1 − ε_ack`.
const EPS_ACK: f64 = 0.125;

const FACK_COLUMNS: &str = "n max_deg lambda bcasters fack_mean fack_max deliv_rate theory_shape";
const FACK_CLAIM: &[Rel] = &[
    Rel::NonDecreasing("fack_mean"),
    Rel::AtLeast("deliv_rate", 1.0 - EPS_ACK),
];
/// Table 2's columns. `paper_predicts_ours` is the paper's crossover
/// rule, `log_a1_lambda <= min_dlogn_log2n`: recorded, not claimed.
const TABLE2_COLUMNS: &str =
    "n d lambda ours dgkn decay log_a1_lambda min_dlogn_log2n paper_predicts_ours";

/// The thirteen paper tables, in the order of the results file.
pub(crate) const TABLES: [PaperTable; 13] = [
    PaperTable {
        id: "E1-fack",
        theorem: "Table 1 / Thm 5.1",
        title: "f_ack: sweep broadcasters (contention) on one deployment",
        columns: FACK_COLUMNS,
        claim: FACK_CLAIM,
        rows: e1_fack,
    },
    PaperTable {
        id: "E1-lambda",
        theorem: "Table 1 / Thm 5.1",
        title: "f_prog and f_approg: sweep lambda (transmission range, fixed arena)",
        columns: "n lambda deg prog_p50 prog_pend approg_p50 approg_max approg_pend theory_approg",
        claim: &[Rel::Equals("approg_pend", 0.0)],
        rows: e1_lambda,
    },
    PaperTable {
        id: "E1-cluster",
        theorem: "Table 1 / Thm 5.1",
        title: "f_ack under clustered contention (one cluster, all nodes broadcast)",
        columns: FACK_COLUMNS,
        claim: FACK_CLAIM,
        rows: e1_cluster,
    },
    PaperTable {
        id: "E1-eps",
        theorem: "Table 1 / Thm 5.1",
        title: "f_approg: sweep eps_approg (the localized-analysis payoff)",
        columns: "eps epoch_slots approg_p50 approg_max approg_pend",
        claim: &[Rel::Equals("approg_pend", 0.0)],
        rows: e1_eps,
    },
    PaperTable {
        id: "E2-smb",
        theorem: "Table 1 / Thm 12.7",
        title: "global SMB: sweep n",
        columns: "n d_approx lambda slots theory_shape",
        claim: &[Rel::Present("slots")],
        rows: e2_smb,
    },
    PaperTable {
        id: "E2-mmb",
        theorem: "Table 1 / Thm 12.7",
        title: "global MMB: sweep k on one deployment (n = 64)",
        columns: "k d_approx lambda slots theory_shape",
        claim: &[Rel::Present("slots")],
        rows: e2_mmb,
    },
    PaperTable {
        id: "E2-consensus",
        theorem: "Table 1 / Cor. 5.5",
        title: "global consensus: sweep n",
        columns: "n d_strong decided_at agreement validity theory_shape",
        claim: &[Rel::True("agreement"), Rel::True("validity")],
        rows: e2_consensus,
    },
    PaperTable {
        id: "E3-n",
        theorem: "Table 2",
        title: "SMB, ours vs DGKN [14] vs the Decay/[32] proxy: sweep n (range 8)",
        columns: TABLE2_COLUMNS,
        claim: &[Rel::Below("ours", "dgkn")],
        rows: e3_n,
    },
    PaperTable {
        id: "E3-lambda",
        theorem: "Table 2",
        title: "SMB, ours vs DGKN [14] vs the Decay/[32] proxy: sweep lambda (n = 64)",
        columns: TABLE2_COLUMNS,
        claim: &[Rel::Below("ours", "dgkn")],
        rows: e3_lambda,
    },
    PaperTable {
        id: "E4",
        theorem: "Fig. 1 / Thm 6.1",
        title: "two-parallel-lines gadget: optimal TDMA vs the paper's MAC, sweep delta",
        columns:
            "delta tdma_worst prog_u_p50 u_pending approg_v_p50 approg_v_max v_pending horizon",
        claim: &[
            Rel::Offset("tdma_worst", "delta", 1.0),
            Rel::Equals("v_pending", 0.0),
            Rel::SlowerThan("approg_v_p50", "delta"),
        ],
        rows: e4,
    },
    PaperTable {
        id: "E5",
        theorem: "Thm 8.1",
        title: "two-ball gadget: B1-side approximate progress, Decay vs Algorithm 9.1, sweep delta",
        columns: "delta decay_p50 decay_max decay_pend approg_p50 approg_max approg_pend horizon",
        claim: &[
            Rel::NonDecreasing("decay_p50"),
            Rel::GrowsBy("decay_p50", 8.0),
            Rel::NonIncreasing("approg_p50"),
        ],
        rows: e5,
    },
    PaperTable {
        id: "A1",
        theorem: "§10.1.2",
        title: "sweep the estimation-window multiplier T (half the nodes broadcasting)",
        columns: "t_mult epoch_slots label_range approg_p50 approg_pend max_dropped",
        claim: &[
            Rel::Increasing("epoch_slots"),
            Rel::Equals("approg_pend", 0.0),
        ],
        rows: a1,
    },
    PaperTable {
        id: "A2",
        theorem: "§10.2",
        title: "sweep the temporary-label range exponent (half the nodes broadcasting)",
        columns: "label_exp epoch_slots label_range approg_p50 approg_pend max_dropped",
        claim: &[
            Rel::Increasing("label_range"),
            Rel::Equals("approg_pend", 0.0),
        ],
        rows: a2,
    },
];

fn int(v: usize) -> Json {
    Json::int(v as u64)
}

/// `v` rounded to `decimals` places, so derived reals stay short and
/// readable in the file.
fn fixed(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

fn p50(stats: &LatencyStats) -> Json {
    Json::opt_int(stats.percentile(50.0))
}

fn max(stats: &LatencyStats) -> Json {
    Json::opt_int(stats.max())
}

fn diameter(d: Option<u32>) -> Json {
    Json::opt_int(d.map(u64::from))
}

fn range16() -> SinrSpec {
    SinrSpec::with_range(16.0)
}

/// An f_ack row: `bcasters` one-shot senders on `spec`'s deployment.
fn fack_row(bcasters: usize, spec: ScenarioSpec) -> Row {
    let r = exp_local::measure_fack(&spec);
    let cells = vec![
        int(r.n),
        int(r.max_degree),
        fixed(r.lambda, 1),
        int(bcasters),
        r.latencies.mean().map_or(Json::Null, |m| fixed(m, 0)),
        max(&r.latencies),
        fixed(r.delivery_rate, 3),
        fixed(r.theory, 0),
    ];
    Row::of(spec, cells)
}

fn e1_fack() -> Vec<Row> {
    let deploy = DeploymentSpec::uniform_connected(96, 60.0, 1);
    let spec = |b| exp_local::fack_spec(deploy, range16(), b, SeedSpec::FromDeploy);
    [1, 4, 16, 48, 96].map(|b| fack_row(b, spec(b))).into()
}

fn e1_cluster() -> Vec<Row> {
    // Remark 5.3: Δ bounds f_ack from below (a listener decodes one
    // message per slot), so the fall-back must stretch the halting time
    // as the cluster grows.
    [16, 32, 64]
        .map(|n| {
            let deploy = DeploymentSpec::plain(DeploySpec::Clusters {
                clusters: 1,
                per_cluster: n,
                side: 10.0,
                radius: 7.0,
                seed: 23,
            });
            fack_row(
                n,
                exp_local::fack_spec(deploy, range16(), n, SeedSpec::Fixed(23)),
            )
        })
        .into()
}

/// Every other node broadcasting for 8 epochs (E1-lambda, E1-eps).
fn progress_spec(deploy: DeploymentSpec, sinr: SinrSpec, eps: Option<f64>) -> ScenarioSpec {
    let knobs = eps.map(|e| (MacKnob::EpsApprog, e)).into_iter().collect();
    exp_local::progress_spec(deploy, sinr, knobs, 2, 8, SeedSpec::FromDeploy)
}

fn e1_lambda() -> Vec<Row> {
    // The arena is fixed, so the minimum distance stays put and Λ grows
    // with the range.
    let deploy = DeploymentSpec::uniform_connected(64, 40.0, 2);
    [8.0, 16.0, 32.0, 64.0]
        .map(|range| {
            let spec = progress_spec(deploy, SinrSpec::with_range(range), None);
            let r = exp_local::measure_progress(&spec);
            let cells = vec![
                int(r.n),
                fixed(r.lambda, 1),
                int(r.max_degree),
                p50(&r.prog),
                int(r.prog_pending),
                p50(&r.approg),
                max(&r.approg),
                int(r.approg_pending),
                fixed(r.theory_approg, 0),
            ];
            Row::of(spec, cells)
        })
        .into()
}

fn e1_eps() -> Vec<Row> {
    let deploy = DeploymentSpec::uniform_connected(64, 55.0, 3);
    [0.5, 0.25, 0.125, 0.03125]
        .map(|eps| {
            let spec = progress_spec(deploy, range16(), Some(eps));
            let r = exp_local::measure_progress(&spec);
            let cells = vec![
                Json::Num(eps),
                Json::int(r.epoch_len),
                p50(&r.approg),
                max(&r.approg),
                int(r.approg_pending),
            ];
            Row::of(spec, cells)
        })
        .into()
}

/// A global-broadcast row led by the swept value (`n` or `k`).
fn global_row(lead: usize, spec: ScenarioSpec, p: exp_global::GlobalPoint) -> Row {
    let cells = vec![
        int(lead),
        diameter(p.diameter_approx),
        fixed(p.lambda, 1),
        Json::opt_int(p.done),
        fixed(p.theory, 0),
    ];
    Row::of(spec, cells)
}

fn e2_smb() -> Vec<Row> {
    [(32, 40.0), (64, 55.0), (128, 78.0), (256, 110.0)]
        .map(|(n, side)| {
            let deploy = DeploymentSpec::uniform_connected(n, side, 4);
            let spec = exp_global::smb_spec(deploy, range16(), 40_000_000, SeedSpec::FromDeploy);
            let p = exp_global::run_smb(&spec);
            global_row(p.n, spec, p)
        })
        .into()
}

fn e2_mmb() -> Vec<Row> {
    let deploy = DeploymentSpec::uniform_connected(64, 55.0, 5);
    [1, 2, 4, 8, 16]
        .map(|k| {
            let spec = exp_global::mmb_spec(deploy, range16(), k, 80_000_000, SeedSpec::FromDeploy);
            let p = exp_global::run_mmb(&spec);
            global_row(k, spec, p)
        })
        .into()
}

fn e2_consensus() -> Vec<Row> {
    [(16, 28.0), (32, 40.0), (64, 55.0)]
        .map(|(n, side)| {
            let deploy = DeploymentSpec::uniform_connected(n, side, 6);
            let spec = exp_global::consensus_spec(deploy, range16(), SeedSpec::FromDeploy);
            let r = exp_global::run_consensus(&spec);
            let cells = vec![
                int(n),
                diameter(r.diameter_strong),
                Json::opt_int(r.decided_at),
                Json::Bool(r.agreement),
                Json::Bool(r.validity),
                fixed(r.theory, 0),
            ];
            Row::of(spec, cells)
        })
        .into()
}

/// One Table 2 row: all three SMB algorithms on one deployment.
fn table2_row(deploy: DeploymentSpec, sinr: SinrSpec) -> Row {
    let (horizon, seed) = (40_000_000, SeedSpec::FromDeploy);
    let p = exp_table2::compare_smb(deploy, sinr, horizon, seed);
    let cells = vec![
        int(p.n),
        Json::int(u64::from(p.diameter)),
        fixed(p.lambda, 1),
        Json::opt_int(p.ours),
        Json::opt_int(p.dgkn),
        Json::opt_int(p.decay_proxy),
        fixed(p.crossover_lhs, 0),
        fixed(p.crossover_rhs, 0),
        Json::Bool(p.crossover_lhs <= p.crossover_rhs),
    ];
    let specs = exp_table2::table2_specs(deploy, sinr, horizon, seed).into();
    Row { cells, specs }
}

fn e3_n() -> Vec<Row> {
    [(32, 25.0), (64, 36.0), (128, 51.0), (256, 72.0)]
        .map(|(n, side)| {
            let deploy = DeploymentSpec::uniform_connected(n, side, 7);
            table2_row(deploy, SinrSpec::with_range(8.0))
        })
        .into()
}

fn e3_lambda() -> Vec<Row> {
    [4.0, 8.0, 16.0, 32.0]
        .map(|range: f64| {
            let deploy = DeploymentSpec::uniform_connected(64, (range * 3.0).max(12.0), 8);
            table2_row(deploy, SinrSpec::with_range(range))
        })
        .into()
}

fn e4() -> Vec<Row> {
    let (epochs, seed) = (6, 11);
    [4, 8, 16, 32]
        .map(|delta| {
            let p = exp_fig1::run_fig1(delta, epochs, seed);
            let cells = vec![
                int(p.delta),
                Json::int(p.tdma_worst),
                p50(&p.mac_prog_u),
                int(p.mac_prog_u_pending),
                p50(&p.mac_approg_v),
                max(&p.mac_approg_v),
                int(p.mac_approg_v_pending),
                Json::int(p.horizon),
            ];
            let specs = vec![
                exp_fig1::tdma_spec(delta, seed),
                exp_fig1::mac_spec(delta, epochs, seed),
            ];
            Row { cells, specs }
        })
        .into()
}

fn e5() -> Vec<Row> {
    let (range, horizon, seed) = (64.0, 4_096, 13);
    [8, 16, 32, 64]
        .map(|delta| {
            let p = exp_decay::run_decay_comparison(delta, range, horizon, seed);
            let cells = vec![
                int(p.delta),
                p50(&p.decay),
                max(&p.decay),
                int(p.decay_pending),
                p50(&p.approg),
                max(&p.approg),
                int(p.approg_pending),
                Json::int(p.horizon),
            ];
            let specs = exp_decay::decay_pair(delta, range, horizon, seed).into();
            Row { cells, specs }
        })
        .into()
}

/// The rows of one ablation sweep, one per swept value.
fn ablation_rows(points: Vec<exp_ablation::AblationPoint>) -> Vec<Row> {
    let row = |p: exp_ablation::AblationPoint| {
        let cells = vec![
            Json::Num(p.value),
            Json::int(p.epoch_len),
            Json::int(p.label_range),
            p50(&p.approg),
            int(p.pending),
            int(p.max_dropped),
        ];
        Row::of(p.spec, cells)
    };
    points.into_iter().map(row).collect()
}

fn a1() -> Vec<Row> {
    let deploy = DeploymentSpec::uniform_connected(64, 40.0, 17);
    let values = [0.5, 1.0, 2.0, 4.0];
    let points = exp_ablation::sweep_t_mult(deploy, range16(), &values, 8, SeedSpec::FromDeploy);
    ablation_rows(points)
}

fn a2() -> Vec<Row> {
    let deploy = DeploymentSpec::uniform_connected(64, 40.0, 19);
    let values = [0.25, 0.5, 1.0, 2.0];
    let points = exp_ablation::sweep_label_exp(deploy, range16(), &values, 8, SeedSpec::FromDeploy);
    ablation_rows(points)
}

/// Checks every table's claim against a parsed results file; returns one
/// message per failing relation (or missing table), empty when all hold.
fn check(doc: &Json) -> Vec<String> {
    let tables = doc.get("tables").and_then(Json::as_arr).unwrap_or_default();
    let mut failures = Vec::new();
    for def in &TABLES {
        match tables
            .iter()
            .find(|t| t.get("id").and_then(Json::as_str) == Some(def.id))
        {
            None => failures.push(format!("{} ({}): table missing", def.id, def.theorem)),
            Some(table) => failures.extend(
                def.claim
                    .iter()
                    .filter(|rel| !rel.holds(table))
                    .map(|rel| format!("{} ({}): {rel}", def.id, def.theorem)),
            ),
        }
    }
    failures
}

/// `sinr-lab paper [OUT]`: runs and prints every table, writes the
/// results file to `out` (one table per line) and checks every claim
/// against the written bytes.
///
/// # Errors
///
/// A message if the file cannot be written, or naming every claim that
/// fails.
pub fn run(out: &str) -> Result<(), String> {
    let tables: Vec<String> = TABLES.iter().map(|t| t.run().to_string()).collect();
    let text = format!("{{\"tables\":[\n{}\n]}}\n", tables.join(",\n"));
    std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{out} does not parse: {e}"))?;
    let failures = check(&doc);
    if !failures.is_empty() {
        return Err(format!("{out}: claims fail: {}", failures.join("; ")));
    }
    println!("wrote {out}: {} tables, every claim holds", TABLES.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../PAPER_RESULTS.json");

    #[test]
    fn committed_results_pass_every_claim() {
        let doc = json::parse(COMMITTED).expect("the committed results file parses");
        assert_eq!(check(&doc), Vec::<String>::new());
        let tables = doc.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables.len(), TABLES.len());
        for (table, def) in tables.iter().zip(&TABLES) {
            assert_eq!(table.get("id").and_then(Json::as_str), Some(def.id));
            let claim = table.get("claim").and_then(Json::as_str);
            assert_eq!(claim, Some(def.claim_text().as_str()), "{}", def.id);
        }
    }

    #[test]
    fn the_delivery_claim_uses_the_mac_default_eps_ack() {
        let sinr = range16().to_params().unwrap();
        let params = sinr_mac::MacParams::builder().build(&sinr);
        assert_eq!(params.eps_ack, EPS_ACK);
    }

    fn field<'a>(value: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(fields) = value else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    fn element(value: &mut Json, i: usize) -> &mut Json {
        let Json::Arr(items) = value else {
            panic!("not an array")
        };
        &mut items[i]
    }

    /// The committed file with one cell of one table replaced.
    fn perturbed(id: &str, row: usize, name: &str, value: Json) -> Json {
        let mut doc = json::parse(COMMITTED).unwrap();
        let i = TABLES.iter().position(|t| t.id == id).unwrap();
        let table = element(field(&mut doc, "tables"), i);
        let col = TABLES[i].columns().iter().position(|c| *c == name).unwrap();
        *element(element(field(table, "rows"), row), col) = value;
        doc
    }

    #[test]
    fn each_claim_rejects_a_one_cell_perturbation() {
        // (table, row, column, new value, relations it breaks): between
        // them the cases break every relation kind, and E5's first
        // decay_p50 breaks both the monotone and the growth relation.
        let huge = Json::int(1_000_000_000);
        let cases = [
            ("E1-fack", 4, "fack_mean", Json::int(0), 1),
            ("E1-fack", 4, "deliv_rate", Json::Num(0.8), 1),
            ("E1-lambda", 0, "approg_pend", Json::int(1), 1),
            ("E1-cluster", 2, "fack_mean", Json::int(0), 1),
            ("E1-eps", 3, "approg_pend", Json::int(1), 1),
            ("E2-smb", 3, "slots", Json::Null, 1),
            ("E2-mmb", 4, "slots", Json::Null, 1),
            ("E2-consensus", 0, "validity", Json::Bool(false), 1),
            ("E3-n", 0, "ours", huge.clone(), 1),
            ("E3-lambda", 3, "ours", huge.clone(), 1),
            ("E4", 3, "tdma_worst", Json::int(30), 1),
            ("E4", 3, "approg_v_p50", huge.clone(), 1),
            ("E4", 0, "v_pending", Json::int(1), 1),
            ("E5", 0, "decay_p50", huge.clone(), 2),
            ("E5", 3, "approg_p50", huge, 1),
            ("A1", 3, "epoch_slots", Json::int(0), 1),
            ("A2", 3, "label_range", Json::int(0), 1),
        ];
        for (id, row, name, value, breaks) in cases {
            let failures = check(&perturbed(id, row, name, value));
            assert!(
                failures.len() == breaks
                    && failures.iter().all(|f| f.starts_with(&format!("{id} "))),
                "{id} row {row} {name}: {failures:?}"
            );
        }
    }

    #[test]
    fn a_missing_table_fails_the_check() {
        let mut doc = json::parse(COMMITTED).unwrap();
        let Json::Arr(tables) = field(&mut doc, "tables") else {
            panic!("tables is not an array")
        };
        tables.remove(0);
        assert_eq!(check(&doc), ["E1-fack (Table 1 / Thm 5.1): table missing"]);
    }
}
