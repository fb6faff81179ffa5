//! `sinr-lab` — the single spec-driven experiment driver.
//!
//! Everything the nine legacy regenerator binaries did is reachable from
//! here: `list` the named scenario presets, `show` a spec's text, `run`
//! one spec (emitting a machine-readable JSON report), `sweep` a spec
//! grid in a thread batch, `bench` the sweep runner's throughput, and
//! `legacy NAME` to reprint any legacy binary's full tables (the legacy
//! binaries themselves run `sinr-lab legacy NAME` through
//! [`process_main`]).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sinr_mac::MacParams;
use sinr_phys::SinrParams;
use sinr_scenario::{
    json, merge_shards, pool_threads, report_for, DeploymentSpec, Json, MeasureSpec, Report,
    ScenarioSet, ScenarioSpec, SeedSpec, Shard, ShardOutput, SinrSpec, SourceSet, StopSpec,
    WorkloadSpec,
};

use crate::common::Table;
use crate::{exp_ablation, exp_decay, exp_fig1, exp_global, exp_local, exp_table2};

/// A named scenario preset: a spec constructor plus provenance notes.
pub struct Preset {
    /// The registry name (`sinr-lab run NAME`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Constructor.
    pub spec: fn() -> ScenarioSpec,
}

fn smoke_deploy() -> DeploymentSpec {
    DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
        rows: 4,
        cols: 4,
        spacing: 2.0,
    })
}

fn smoke(name: &str, mac: &str, workload: &str, measure: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        name,
        smoke_deploy(),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(200),
    )
    .with_sinr(SinrSpec::with_range(8.0));
    spec.set("mac", mac).expect("preset mac");
    spec.set("workload", workload).expect("preset workload");
    spec.set("measure", measure).expect("preset measure");
    if workload.starts_with("smb") {
        spec.stop = StopSpec::Done(200);
    }
    spec
}

/// The named scenario presets `sinr-lab` ships with: the Figure 1 legs,
/// a Table 1 progress point, and one tiny smoke scenario per MAC choice
/// (n = 16, 200 slots — what CI runs on every push).
pub fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "fig1",
            about: "Figure 1 MAC leg at delta=4 (two-lines gadget, V broadcasting)",
            spec: || exp_fig1::mac_spec(4, 6, 11),
        },
        Preset {
            name: "fig1-tdma",
            about: "Figure 1 optimal TDMA leg at delta=4",
            spec: || exp_fig1::tdma_spec(4, 11),
        },
        Preset {
            name: "progress-n64",
            about: "Table 1 progress point: n=64 uniform, half broadcasting",
            spec: || {
                exp_local::progress_spec(
                    DeploymentSpec::uniform_connected(64, 55.0, 3),
                    SinrSpec::with_range(16.0),
                    vec![],
                    2,
                    8,
                    SeedSpec::FromDeploy,
                )
            },
        },
        Preset {
            name: "smoke-sinr",
            about: "CI smoke: paper MAC (Algorithm 11.1)",
            spec: || smoke("smoke-sinr", "sinr", "repeat:stride:2", "trace"),
        },
        Preset {
            name: "smoke-ideal",
            about: "CI smoke: ideal reference MAC",
            spec: || smoke("smoke-ideal", "ideal:eager", "repeat:stride:2", "trace"),
        },
        Preset {
            name: "smoke-decay",
            about: "CI smoke: Decay MAC (Thm 8.1 baseline)",
            spec: || {
                smoke(
                    "smoke-decay",
                    "decay:16:0.125:4",
                    "repeat:stride:2",
                    "trace",
                )
            },
        },
        Preset {
            name: "smoke-tdma",
            about: "CI smoke: optimal round-robin TDMA baseline",
            spec: || smoke("smoke-tdma", "tdma", "repeat:count:4", "none"),
        },
        Preset {
            name: "smoke-dgkn",
            about: "CI smoke: DGKN [14] SMB baseline",
            spec: || smoke("smoke-dgkn", "dgkn", "smb:0", "none"),
        },
        Preset {
            name: "smoke-decay-smb",
            about: "CI smoke: Decay/[32] SMB proxy baseline",
            spec: || smoke("smoke-decay-smb", "decay_smb", "smb:0", "none"),
        },
        Preset {
            name: "smoke-hybrid",
            about: "CI smoke: paper MAC over the sparse hybrid reception kernel \
                    (near-field rows + far-field cell aggregates)",
            spec: || {
                let mut spec = smoke("smoke-hybrid", "sinr", "repeat:stride:2", "trace");
                spec.set("backend", "hybrid").expect("preset backend");
                spec
            },
        },
        Preset {
            name: "smoke-mobility",
            about: "CI smoke: waypoint mobility over the paper MAC (cached backend, \
                    incremental gain-cache repair)",
            spec: || {
                let mut spec = smoke("smoke-mobility", "sinr", "repeat:stride:2", "trace");
                spec.set("backend", "cached").expect("preset backend");
                spec.set("mobility", "waypoint:0.25:4:7")
                    .expect("preset mobility");
                spec
            },
        },
    ]
}

/// Resolves `NAME` against the preset registry, then the filesystem.
///
/// # Errors
///
/// A human-readable message when neither resolves.
pub fn resolve_spec(name: &str) -> Result<ScenarioSpec, String> {
    if let Some(p) = presets().into_iter().find(|p| p.name == name) {
        return Ok((p.spec)());
    }
    match std::fs::read_to_string(name) {
        Ok(text) => ScenarioSpec::parse(&text).map_err(|e| format!("{name}: {e}")),
        Err(io) => Err(format!(
            "{name:?} is neither a preset (see `sinr-lab list`) nor a readable spec file ({io})"
        )),
    }
}

/// The legacy binaries and the experiment each regenerates.
pub const LEGACY: [(&str, &str); 9] = [
    (
        "fig1_progress",
        "E4: Figure 1 / Thm 6.1 progress lower bound",
    ),
    (
        "table1_local",
        "E1: Table 1 local rows (f_ack, f_prog, f_approg)",
    ),
    (
        "table1_global",
        "E2: Table 1 global rows (SMB, MMB, consensus)",
    ),
    ("table2_smb", "E3: Table 2 three-way SMB comparison"),
    ("decay_vs_approg", "E5: Thm 8.1 Decay vs Algorithm 9.1"),
    ("ablation_t", "A1: estimation-window multiplier sweep"),
    ("ablation_labels", "A2: label-range exponent sweep"),
    (
        "ablation_interference",
        "A3: interference-model agreement/speed",
    ),
    (
        "bench_reception",
        "reception-kernel throughput (BENCH_reception.json)",
    ),
];

/// Checks the `SINR_*` variables the library reads lazily, so a
/// malformed value is refused before any command runs instead of
/// panicking mid-run: `SINR_BACKEND` must parse as a
/// [`BackendSpec`](sinr_phys::BackendSpec), `SINR_MAX_TABLE_BYTES` as
/// the `u64` [`max_table_bytes`](sinr_phys::max_table_bytes) reads.
fn check_env() -> Result<(), String> {
    if let Ok(raw) = std::env::var("SINR_BACKEND") {
        sinr_phys::BackendSpec::parse(&raw).map_err(|e| format!("SINR_BACKEND: {e}"))?;
    }
    if let Ok(raw) = std::env::var("SINR_MAX_TABLE_BYTES") {
        raw.trim()
            .parse::<u64>()
            .map_err(|e| format!("SINR_MAX_TABLE_BYTES: bad value {raw:?}: {e}"))?;
    }
    Ok(())
}

/// The `main` of the `sinr_lab` binary and of the nine legacy wrapper
/// binaries: runs [`cli_main`] on `prefix` followed by the process
/// arguments and exits 2 with `sinr-lab: MSG` on stderr when it fails.
/// A wrapper passes `["legacy", NAME]`, so it gets the same start-up
/// check of the `SINR_*` variables and the same error path.
pub fn process_main(prefix: &[&str]) {
    let args: Vec<String> = prefix
        .iter()
        .map(|s| s.to_string())
        .chain(std::env::args().skip(1))
        .collect();
    if let Err(msg) = cli_main(&args) {
        eprintln!("sinr-lab: {msg}");
        std::process::exit(2);
    }
}

/// Entry point shared by the `sinr-lab` binary and tests.
///
/// # Errors
///
/// A human-readable message on bad usage, a malformed `SINR_BACKEND` or
/// `SINR_MAX_TABLE_BYTES`, or a failed run; the caller turns it into a
/// non-zero exit.
pub fn cli_main(args: &[String]) -> Result<(), String> {
    check_env()?;
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("named scenario presets:");
            for p in presets() {
                println!("  {:16} {}", p.name, p.about);
            }
            println!("\nlegacy regenerators (`sinr-lab legacy NAME`):");
            for (name, about) in LEGACY {
                println!("  {name:22} {about}");
            }
            Ok(())
        }
        Some("show") => {
            let name = args.get(1).ok_or("usage: sinr-lab show NAME|FILE")?;
            print!("{}", resolve_spec(name)?);
            Ok(())
        }
        Some("run") => {
            let name = args
                .get(1)
                .ok_or("usage: sinr-lab run NAME|FILE [--json PATH]")?;
            // Validate flags before the (possibly long) run so a typo'd
            // --json fails in milliseconds, not after the horizon.
            let mut json_path = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => {
                        json_path = Some(rest.next().ok_or("--json needs a path (or -)")?.clone());
                    }
                    other => return Err(format!("unknown argument {other:?} for run")),
                }
            }
            let spec = resolve_spec(name)?;
            let run = spec.run().map_err(|e| format!("{name}: {e}"))?;
            let report = report_for(&run);
            print_summary(&report);
            write_json(json_path.as_deref(), &report.to_json())
        }
        Some("sweep") => {
            let name = args
                .get(1)
                .ok_or("usage: sinr-lab sweep NAME|FILE KEY=V1,V2,… [--threads N] [--reseed] [--traces] [--no-shared-prepare] [--json PATH] [--out DIR [--shard K/N] [--resume]]")?;
            let mut set = ScenarioSet::new(resolve_spec(name)?);
            let mut threads = pool_threads(None, None);
            let mut json_path = None;
            let mut out_dir: Option<String> = None;
            let mut shard = Shard::full();
            let mut resume = false;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--threads" => {
                        threads = rest
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--threads needs a number")?;
                    }
                    "--reseed" => set = set.with_reseed(),
                    "--traces" => set = set.with_traces(),
                    "--no-shared-prepare" => set = set.without_shared_prepare(),
                    "--json" => {
                        json_path = Some(rest.next().ok_or("--json needs a path (or -)")?.clone());
                    }
                    "--out" => {
                        out_dir = Some(rest.next().ok_or("--out needs a directory")?.clone());
                    }
                    "--shard" => {
                        shard = Shard::parse(rest.next().ok_or("--shard needs K/N (e.g. 0/4)")?)?;
                    }
                    "--resume" => resume = true,
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag {flag:?} for sweep"))
                    }
                    axis => {
                        let (key, values) = axis
                            .split_once('=')
                            .ok_or_else(|| format!("axis {axis:?} is not KEY=V1,V2,…"))?;
                        set = set.axis(key, values.split(',').map(str::to_string).collect());
                    }
                }
            }
            if set.axes.is_empty() {
                return Err("sweep needs at least one KEY=V1,V2,… axis".into());
            }
            let Some(dir) = out_dir else {
                if shard != Shard::full() || resume {
                    return Err("--shard/--resume need --out DIR (crash-safe NDJSON output)".into());
                }
                return sweep_in_memory(&set, threads, json_path.as_deref());
            };
            if json_path.is_some() {
                return Err(
                    "--json and --out are mutually exclusive; merge shard outputs with \
                     `sinr-lab sweep-merge DIR --json PATH`"
                        .into(),
                );
            }
            let dir = Path::new(&dir);
            let plan = set.execution_plan().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let (output, completed) = if resume {
                ShardOutput::resume(dir, &set, &plan.cells, shard).map_err(|e| e.to_string())?
            } else {
                let fresh = ShardOutput::create(dir, &set, plan.cells.len(), shard)
                    .map_err(|e| e.to_string())?;
                (fresh, BTreeSet::new())
            };
            let summary = set
                .run_sharded(&plan, threads, shard, &completed, &|i, run| {
                    output.record(i, &report_for(&run))
                })
                .map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            println!(
                "sweep shard {shard}: {} executed, {} already complete, {}/{} cells owned, \
                 {threads} threads, {secs:.2}s ({:.2} scenarios/sec, peak {} runs resident)",
                summary.executed,
                summary.skipped,
                summary.cells_in_shard,
                summary.cells_total,
                summary.executed as f64 / secs.max(1e-9),
                summary.peak_resident_runs,
            );
            Ok(())
        }
        Some("sweep-merge") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("usage: sinr-lab sweep-merge DIR [--json PATH]")?;
            let mut json_path = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => {
                        json_path = Some(rest.next().ok_or("--json needs a path (or -)")?.clone());
                    }
                    other => return Err(format!("unknown argument {other:?} for sweep-merge")),
                }
            }
            let merged = merge_shards(Path::new(dir)).map_err(|e| e.to_string())?;
            println!(
                "merged {} cells from {} shards (sweep key {:016x})",
                merged.reports.len(),
                merged.shards,
                merged.key
            );
            write_json(
                json_path.as_deref(),
                &format!("[{}]", merged.reports.join(",")),
            )
        }
        Some("bench") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let out = args[1..]
                .iter()
                .find(|a| !a.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "BENCH_scenario.json".to_string());
            bench_scenario(&out, smoke)
        }
        Some("serve") => crate::service_bench::serve_cmd(&args[1..]),
        Some("bench-service") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let out = args[1..]
                .iter()
                .find(|a| !a.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "BENCH_service.json".to_string());
            crate::service_bench::bench_service(&out, smoke)
        }
        Some("legacy") => {
            let name = args.get(1).ok_or("usage: sinr-lab legacy NAME")?;
            legacy(name, &args[2..])
        }
        _ => {
            println!(
                "sinr-lab — spec-driven experiment driver\n\
                 \n\
                 usage:\n\
                 \x20 sinr-lab list                               named presets + legacy regenerators\n\
                 \x20 sinr-lab show NAME|FILE                     print a spec's text form\n\
                 \x20 sinr-lab run NAME|FILE [--json PATH]        run one scenario, emit a JSON report\n\
                 \x20 sinr-lab sweep NAME|FILE KEY=V1,V2,… \n\
                 \x20          [--threads N] [--reseed] [--traces] [--no-shared-prepare] [--json PATH]\n\
                 \x20          [--out DIR [--shard K/N] [--resume]]\n\
                 \x20                                             batch a spec grid across threads; with --out, stream\n\
                 \x20                                             crash-safe NDJSON per cell (shard K of N owns cells\n\
                 \x20                                             i%N==K; --resume skips recorded cells after a kill)\n\
                 \x20 sinr-lab sweep-merge DIR [--json PATH]      validate + merge a sharded sweep's output directory\n\
                 \x20                                             (byte-identical to the single-process --json array)\n\
                 \x20 sinr-lab bench [OUT.json] [--smoke]         sweep throughput + shared-prepare speedups (BENCH_scenario.json)\n\
                 \x20 sinr-lab serve [--socket PATH] [--once] [--workers N] [--queue N]\n\
                 \x20          [--cache-bytes N] [--replay-log N] [--no-cache]\n\
                 \x20                                             persistent scenario service: NDJSON requests on stdin or a\n\
                 \x20                                             Unix socket, streamed reports, LRU-cached prepared tables\n\
                 \x20 sinr-lab bench-service [OUT.json] [--smoke] request-storm service benchmark (BENCH_service.json)\n\
                 \x20 sinr-lab legacy NAME [ARGS…]                reprint a legacy binary's tables\n\
                 \n\
                 spec files are key=value text; see `sinr-lab show fig1` for an example\n\
                 and the README's \"Running experiments\" section for the grammar."
            );
            Ok(())
        }
    }
}

/// The classic in-process sweep (`sinr-lab sweep` without `--out`),
/// reworked to stream: each cell's report is summarized (and, with
/// `--json`, rendered) the moment it completes and the `ScenarioRun` —
/// traces included — is dropped inside the executor's sink, so resident
/// memory is O(threads) plus the rendered JSON strings, never the runs
/// themselves.
fn sweep_in_memory(
    set: &ScenarioSet,
    threads: usize,
    json_path: Option<&str>,
) -> Result<(), String> {
    let plan = set.execution_plan().map_err(|e| e.to_string())?;
    let cells = plan.cells.len();
    let rendered: Vec<Mutex<Option<String>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let stdout = Mutex::new(());
    let t0 = Instant::now();
    let summary = set
        .run_sharded(
            &plan,
            threads,
            Shard::full(),
            &BTreeSet::new(),
            &|i, run| {
                let report = report_for(&run);
                drop(run);
                {
                    let _guard = stdout
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    print_summary(&report);
                }
                if json_path.is_some() {
                    let json = report.to_json();
                    *rendered[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(json);
                }
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "sweep: {cells} cells on {threads} threads in {secs:.2}s ({:.2} scenarios/sec, \
         peak {} runs resident)",
        cells as f64 / secs.max(1e-9),
        summary.peak_resident_runs,
    );
    let joined = format!(
        "[{}]",
        rendered
            .into_iter()
            .filter_map(|slot| slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect::<Vec<_>>()
            .join(",")
    );
    write_json(json_path, &joined)
}

fn print_summary(report: &Report) {
    println!("== {} ==", report.name);
    for (k, v) in report.realized.iter().chain(&report.metrics) {
        println!("  {k} = {v}");
    }
}

fn write_json(path: Option<&str>, json: &str) -> Result<(), String> {
    match path {
        None => Ok(()),
        Some("-") => {
            println!("{json}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("report: {path}");
            Ok(())
        }
    }
}

/// One prepare-heavy measurement: an 8-cell `mac.t_mult` sweep on a
/// fixed cached-backend uniform deployment, timed with shared
/// preparation (the planner's one-table-per-group path) and with the
/// legacy per-cell preparation.
struct PrepareHeavyRow {
    n: usize,
    cells: usize,
    slots_per_cell: u64,
    shared_secs: f64,
    percell_secs: f64,
}

impl PrepareHeavyRow {
    fn speedup(&self) -> f64 {
        self.percell_secs / self.shared_secs.max(1e-9)
    }
}

/// The 8 `mac.t_mult` values of the prepare-heavy sweep.
fn t_mult_axis() -> Vec<String> {
    ["0.5", "0.75", "1", "1.25", "1.5", "2", "3", "4"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Times the prepare-heavy sweep at one deployment size (short
/// horizon, so the O(n²) preparation dominates each cell — the regime
/// the sweep planner exists for).
fn measure_prepare_heavy(
    n: usize,
    slots_per_cell: u64,
    threads: usize,
) -> Result<PrepareHeavyRow, String> {
    let side = (n as f64).sqrt() * 2.2;
    let base = ScenarioSpec::new(
        format!("prep-heavy-n{n}"),
        DeploymentSpec::plain(sinr_geom::DeploySpec::Uniform { n, side, seed: 5 }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(slots_per_cell),
    )
    .with_sinr(SinrSpec::with_range(16.0))
    .with_backend(sinr_phys::BackendSpec::cached())
    .with_measure(MeasureSpec::none());
    let set = ScenarioSet::new(base).axis("mac.t_mult", t_mult_axis());
    let cells = set.cells().map_err(|e| e.to_string())?.len();
    // Per-cell first, shared second: both orders warm the allocator for
    // the other, and the pinned ratio is far above plausible
    // ordering noise (the per-cell leg repeats the O(n²) preparation
    // `cells` times).
    let t0 = Instant::now();
    set.clone()
        .without_shared_prepare()
        .run(threads)
        .map_err(|e| e.to_string())?;
    let percell_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let runs = set.run(threads).map_err(|e| e.to_string())?;
    let shared_secs = t0.elapsed().as_secs_f64();
    if runs.len() != cells {
        return Err(format!(
            "prepare-heavy n={n}: expected {cells} runs, got {}",
            runs.len()
        ));
    }
    Ok(PrepareHeavyRow {
        n,
        cells,
        slots_per_cell,
        shared_secs,
        percell_secs,
    })
}

/// One sharded-executor measurement: the same seed sweep run once in a
/// single process and once as 4 sequential in-process shards (each
/// streaming crash-safe NDJSON), plus a resume pass over the completed
/// shard 0 to price the manifest/output scan.
struct ShardedRow {
    cells: usize,
    shards: usize,
    single_secs: f64,
    sharded_secs: f64,
    merged_identical: bool,
    resume_scan_secs: f64,
    resume_reexecuted: usize,
}

/// Times the sharded streaming executor against the single-process run
/// on a `cells`-cell seed sweep of tiny scenarios (the per-cell work is
/// small on purpose: this row prices the executor + output machinery,
/// not the MAC).
fn measure_sharded(cells: usize, threads: usize) -> Result<ShardedRow, String> {
    let base = ScenarioSpec::new(
        "bench-shard",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(60),
    )
    .with_sinr(SinrSpec::with_range(8.0))
    .with_measure(MeasureSpec::none());
    let seeds: Vec<String> = (1..=cells as u64).map(|s| s.to_string()).collect();
    let set = ScenarioSet::new(base).axis("seed", seeds);
    let plan = set.execution_plan().map_err(|e| e.to_string())?;
    let tmp = std::env::temp_dir().join(format!("sinr-lab-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let run_shard = |dir: &Path, shard: Shard| -> Result<(), String> {
        let out =
            ShardOutput::create(dir, &set, plan.cells.len(), shard).map_err(|e| e.to_string())?;
        set.run_sharded(&plan, threads, shard, &BTreeSet::new(), &|i, run| {
            out.record(i, &report_for(&run))
        })
        .map_err(|e| e.to_string())?;
        Ok(())
    };
    let single_dir = tmp.join("single");
    let shard_dir = tmp.join("sharded");
    let t0 = Instant::now();
    run_shard(&single_dir, Shard::full())?;
    let single_secs = t0.elapsed().as_secs_f64();
    let shards = 4usize;
    let t0 = Instant::now();
    for index in 0..shards {
        run_shard(
            &shard_dir,
            Shard {
                index,
                count: shards,
            },
        )?;
    }
    let sharded_secs = t0.elapsed().as_secs_f64();
    let merged_identical = merge_shards(&single_dir)
        .map_err(|e| e.to_string())?
        .reports
        == merge_shards(&shard_dir).map_err(|e| e.to_string())?.reports;
    // Resume over the fully-complete shard 0: everything is skipped, so
    // the elapsed time is pure manifest/output scanning overhead.
    let shard0 = Shard {
        index: 0,
        count: shards,
    };
    let t0 = Instant::now();
    let (out, completed) =
        ShardOutput::resume(&shard_dir, &set, &plan.cells, shard0).map_err(|e| e.to_string())?;
    let summary = set
        .run_sharded(&plan, threads, shard0, &completed, &|i, run| {
            out.record(i, &report_for(&run))
        })
        .map_err(|e| e.to_string())?;
    let resume_scan_secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(ShardedRow {
        cells,
        shards,
        single_secs,
        sharded_secs,
        merged_identical,
        resume_scan_secs,
        resume_reexecuted: summary.executed,
    })
}

/// Validation of the emitted `BENCH_scenario.json`: expected shape, one
/// prepare-heavy row per size, strictly positive speedups.
///
/// # Panics
///
/// Panics with a description when the file does not meet the contract —
/// CI fails loudly instead of committing a rotten BENCH file.
fn validate_scenario_json(text: &str, prepare_heavy_rows: usize) {
    let doc =
        json::parse(text).unwrap_or_else(|e| panic!("BENCH_scenario json does not parse: {e}"));
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("BENCH_scenario json is missing {}", path.join(".")))
    };
    assert_eq!(at(&["bench"]).as_str(), Some("scenario_sweep"));
    for path in [&["threads"][..], &["throughput", "scenarios_per_sec"]] {
        assert!(at(path).as_f64().is_some(), "{path:?} is not a number");
    }
    assert_eq!(at(&["sharded", "merged_identical"]).as_bool(), Some(true));
    assert_eq!(at(&["resume", "reexecuted"]).as_u64(), Some(0));
    let speedups: Vec<Option<f64>> = at(&["prepare_heavy"])
        .as_arr()
        .unwrap_or_default()
        .iter()
        .map(|row| row.get("shared_speedup").and_then(Json::as_f64))
        .collect();
    assert_eq!(
        speedups.len(),
        prepare_heavy_rows,
        "expected one prepare-heavy row per size"
    );
    assert!(
        speedups.iter().all(|s| s.is_some_and(|s| s > 0.0)),
        "speedups must be positive: {speedups:?}"
    );
}

/// Measures the sweep executor and writes `BENCH_scenario.json`:
///
/// * **throughput** — the historical metric: a batch of 8 seeds at
///   n = 64, 500 slots each, reception via the cached-gain kernel.
/// * **prepare_heavy** — the sweep-planner metric this PR pins: for
///   n ∈ {64, 256, 512, 1024}, an 8-cell `mac.t_mult` sweep over one
///   fixed uniform deployment with a short horizon, timed with shared
///   preparation vs per-cell preparation. The n = 512 row is the
///   headline (target ≥3x).
///
/// `--smoke` (the CI mode) shrinks everything to n = 32 and validates
/// the JSON without claiming performance numbers. After writing, the
/// emitted JSON is read back and validated so a refactor cannot
/// silently rot the BENCH file.
///
/// # Errors
///
/// A message if a sweep fails or the file cannot be written.
pub fn bench_scenario(out: &str, smoke: bool) -> Result<(), String> {
    let threads = pool_threads(None, None);

    // ---- historical throughput row ----
    let batch = 8usize;
    let throughput_slots = if smoke { 100u64 } else { 500 };
    let base = ScenarioSpec::new(
        "bench-sweep",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
            rows: 8,
            cols: 8,
            spacing: 2.0,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(throughput_slots),
    )
    .with_sinr(SinrSpec::with_range(8.0))
    .with_backend(sinr_phys::BackendSpec::cached())
    .with_measure(MeasureSpec::none());
    let seeds: Vec<String> = (1..=batch as u64).map(|s| s.to_string()).collect();
    let set = ScenarioSet::new(base).axis("seed", seeds);
    // Warm-up pass so thread start-up is off the measured path.
    set.run(threads).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let runs = set.run(threads).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let per_sec = batch as f64 / secs.max(1e-9);
    println!("sweep throughput: {per_sec:.2} scenarios/sec (batch {batch}, {threads} threads)");

    // ---- prepare-heavy rows: shared vs per-cell preparation ----
    let sizes: &[usize] = if smoke { &[32] } else { &[64, 256, 512, 1024] };
    let slots_per_cell = if smoke { 60 } else { 20 };
    let mut rows = Vec::new();
    for &n in sizes {
        let row = measure_prepare_heavy(n, slots_per_cell, threads)?;
        println!(
            "prepare-heavy n={:5}: shared {:.3}s vs per-cell {:.3}s ({:.2}x, {} cells x {} slots)",
            row.n,
            row.shared_secs,
            row.percell_secs,
            row.speedup(),
            row.cells,
            row.slots_per_cell,
        );
        rows.push(row);
    }
    if let Some(row) = rows.iter().find(|r| r.n == 512) {
        println!(
            "n=512 8-cell mac.t_mult sweep: shared prepare {:.2}x over per-cell (target >= 3x)",
            row.speedup()
        );
    }

    // ---- sharded streaming executor + resume overhead ----
    let shard_cells = if smoke { 64 } else { 10_240 };
    let sharded = measure_sharded(shard_cells, threads)?;
    println!(
        "sharded: {} cells single {:.2}s vs {}x sequential shards {:.2}s \
         ({:.0} cells/sec sharded), merged identical: {}",
        sharded.cells,
        sharded.single_secs,
        sharded.shards,
        sharded.sharded_secs,
        sharded.cells as f64 / sharded.sharded_secs.max(1e-9),
        sharded.merged_identical,
    );
    println!(
        "resume: complete-shard scan {:.3}s ({} cells, {} re-executed)",
        sharded.resume_scan_secs,
        sharded.cells / sharded.shards,
        sharded.resume_reexecuted,
    );
    if !sharded.merged_identical {
        return Err("sharded merge is not byte-identical to the single-process run".into());
    }
    if sharded.resume_reexecuted != 0 {
        return Err(format!(
            "resume re-executed {} completed cells",
            sharded.resume_reexecuted
        ));
    }

    let json = Json::Obj(vec![
        ("bench".into(), Json::str("scenario_sweep")),
        ("smoke".into(), Json::Bool(smoke)),
        ("threads".into(), Json::int(threads as u64)),
        (
            "throughput".into(),
            Json::Obj(vec![
                ("n".into(), Json::int(64)),
                ("slots_per_cell".into(), Json::int(throughput_slots)),
                ("batch".into(), Json::int(batch as u64)),
                ("seconds".into(), Json::Num(secs)),
                ("scenarios_per_sec".into(), Json::Num(per_sec)),
                ("cells_completed".into(), Json::int(runs.len() as u64)),
            ]),
        ),
        (
            "prepare_heavy".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("n".into(), Json::int(r.n as u64)),
                            ("cells".into(), Json::int(r.cells as u64)),
                            ("slots_per_cell".into(), Json::int(r.slots_per_cell)),
                            ("shared_secs".into(), Json::Num(r.shared_secs)),
                            ("percell_secs".into(), Json::Num(r.percell_secs)),
                            ("shared_speedup".into(), Json::Num(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sharded".into(),
            Json::Obj(vec![
                ("cells".into(), Json::int(sharded.cells as u64)),
                ("shards".into(), Json::int(sharded.shards as u64)),
                ("single_secs".into(), Json::Num(sharded.single_secs)),
                ("sharded_secs".into(), Json::Num(sharded.sharded_secs)),
                (
                    "cells_per_sec".into(),
                    Json::Num(sharded.cells as f64 / sharded.sharded_secs.max(1e-9)),
                ),
                (
                    "merged_identical".into(),
                    Json::Bool(sharded.merged_identical),
                ),
            ]),
        ),
        (
            "resume".into(),
            Json::Obj(vec![
                (
                    "cells_in_shard".into(),
                    Json::int((sharded.cells / sharded.shards) as u64),
                ),
                ("scan_secs".into(), Json::Num(sharded.resume_scan_secs)),
                (
                    "reexecuted".into(),
                    Json::int(sharded.resume_reexecuted as u64),
                ),
            ]),
        ),
    ]);
    std::fs::write(out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    let written = std::fs::read_to_string(out).map_err(|e| format!("reading back {out}: {e}"))?;
    validate_scenario_json(&written, rows.len());
    println!("wrote {out} (validated)");
    Ok(())
}

/// Reprints the full table output of one legacy regenerator binary.
///
/// # Errors
///
/// A message for an unknown name.
pub fn legacy(name: &str, args: &[String]) -> Result<(), String> {
    match name {
        "fig1_progress" => legacy_fig1_progress(),
        "table1_local" => legacy_table1_local(),
        "table1_global" => legacy_table1_global(),
        "table2_smb" => legacy_table2_smb(),
        "decay_vs_approg" => legacy_decay_vs_approg(),
        "ablation_t" => legacy_ablation_t(),
        "ablation_labels" => legacy_ablation_labels(),
        "ablation_interference" => legacy_ablation_interference(),
        "bench_reception" => legacy_bench_reception(args),
        other => {
            return Err(format!(
                "unknown legacy regenerator {other:?}; one of {:?}",
                LEGACY.map(|(n, _)| n)
            ))
        }
    }
    Ok(())
}

fn legacy_fig1_progress() {
    let mut t = Table::new(
        "Figure 1 / Thm 6.1: two-parallel-lines gadget, sweep delta",
        &[
            "delta",
            "tdma_worst(=D-1?)",
            "mac_prog_u_p50",
            "u_pending",
            "mac_approg_v_p50",
            "mac_approg_v_max",
            "v_pending",
            "horizon",
        ],
    );
    for delta in [4usize, 8, 16, 32] {
        let p = exp_fig1::run_fig1(delta, 6, 11);
        t.row(vec![
            p.delta.to_string(),
            p.tdma_worst.to_string(),
            p.mac_prog_u
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.mac_prog_u_pending.to_string(),
            p.mac_approg_v
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.mac_approg_v.max().map_or("-".into(), |v| v.to_string()),
            p.mac_approg_v_pending.to_string(),
            p.horizon.to_string(),
        ]);
    }
    t.print();
    println!("reading: tdma_worst grows linearly in delta (the f_prog >= Delta bound);");
    println!("V-side approximate progress stays flat/polylog — Definition 7.1's payoff.");
}

fn legacy_table1_local() {
    // ---- f_ack vs contention (degree) ----
    let mut t = Table::new(
        "Table 1 / f_ack: sweep broadcasters (contention) on one deployment",
        &[
            "n",
            "max_deg",
            "lambda",
            "bcasters",
            "fack_mean",
            "fack_max",
            "deliv_rate",
            "theory_shape",
        ],
    );
    let deploy = DeploymentSpec::uniform_connected(96, 60.0, 1);
    let sinr = SinrSpec::with_range(16.0);
    for bcasters in [1usize, 4, 16, 48, 96] {
        let r = exp_local::measure_fack(&exp_local::fack_spec(
            deploy,
            sinr,
            bcasters,
            SeedSpec::FromDeploy,
        ));
        t.row(vec![
            r.n.to_string(),
            r.max_degree.to_string(),
            format!("{:.1}", r.lambda),
            bcasters.to_string(),
            format!("{:.0}", r.latencies.mean().unwrap_or(0.0)),
            r.latencies.max().unwrap_or(0).to_string(),
            format!("{:.3}", r.delivery_rate),
            format!("{:.0}", r.theory),
        ]);
    }
    t.print();

    // ---- f_prog / f_approg vs Λ (range sweep, fixed arena) ----
    // The arena is fixed so the measured minimum distance stays put and
    // Λ genuinely grows with the range.
    let mut t = Table::new(
        "Table 1 / f_prog & f_approg: sweep lambda (transmission range)",
        &[
            "n",
            "lambda",
            "deg",
            "prog_p50",
            "prog_pend",
            "approg_p50",
            "approg_max",
            "approg_pend",
            "theory_approg",
        ],
    );
    for range in [8.0f64, 16.0, 32.0, 64.0] {
        let r = exp_local::measure_progress(&exp_local::progress_spec(
            DeploymentSpec::uniform_connected(64, 40.0, 2),
            SinrSpec::with_range(range),
            vec![],
            2,
            8,
            SeedSpec::FromDeploy,
        ));
        t.row(vec![
            r.n.to_string(),
            format!("{:.1}", r.lambda),
            r.max_degree.to_string(),
            r.prog
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            r.prog_pending.to_string(),
            r.approg
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            r.approg.max().map_or("-".into(), |v| v.to_string()),
            r.approg_pending.to_string(),
            format!("{:.0}", r.theory_approg),
        ]);
    }
    t.print();

    // ---- f_ack under extreme contention (one dense cluster) ----
    // Remark 5.3: Δ is a lower bound on f_ack — a listener decodes one
    // message per slot. The fall-back mechanism must stretch the halting
    // time as the cluster grows.
    let mut t = Table::new(
        "Table 1 / f_ack under clustered contention (all nodes broadcast)",
        &[
            "cluster_n",
            "max_deg",
            "fack_mean",
            "fack_max",
            "deliv_rate",
        ],
    );
    for cluster_n in [16usize, 32, 64] {
        let deploy = DeploymentSpec::plain(sinr_geom::DeploySpec::Clusters {
            clusters: 1,
            per_cluster: cluster_n,
            side: 10.0,
            radius: 7.0,
            seed: 23,
        });
        let r = exp_local::measure_fack(&exp_local::fack_spec(
            deploy,
            SinrSpec::with_range(16.0),
            cluster_n,
            SeedSpec::Fixed(23),
        ));
        t.row(vec![
            cluster_n.to_string(),
            r.max_degree.to_string(),
            format!("{:.0}", r.latencies.mean().unwrap_or(0.0)),
            r.latencies.max().unwrap_or(0).to_string(),
            format!("{:.3}", r.delivery_rate),
        ]);
    }
    t.print();

    // ---- f_approg vs eps_approg ----
    let mut t = Table::new(
        "Table 1 / f_approg: sweep eps_approg (the localized-analysis payoff)",
        &[
            "eps",
            "epoch_slots",
            "approg_p50",
            "approg_max",
            "approg_pend",
        ],
    );
    let deploy = DeploymentSpec::uniform_connected(64, 55.0, 3);
    for eps in [0.5f64, 0.25, 0.125, 0.03125] {
        let r = exp_local::measure_progress(&exp_local::progress_spec(
            deploy,
            SinrSpec::with_range(16.0),
            vec![(sinr_scenario::MacKnob::EpsApprog, eps)],
            2,
            8,
            SeedSpec::FromDeploy,
        ));
        t.row(vec![
            format!("{eps}"),
            r.epoch_len.to_string(),
            r.approg
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            r.approg.max().map_or("-".into(), |v| v.to_string()),
            r.approg_pending.to_string(),
        ]);
    }
    t.print();
}

fn legacy_table1_global() {
    let sinr = SinrSpec::with_range(16.0);

    // ---- SMB vs n ----
    let mut t = Table::new(
        "Table 1 / global SMB: sweep n",
        &["n", "D_approx", "lambda", "slots", "theory_shape"],
    );
    for (n, side) in [(32usize, 40.0), (64, 55.0), (128, 78.0), (256, 110.0)] {
        let p = exp_global::run_smb(&exp_global::smb_spec(
            DeploymentSpec::uniform_connected(n, side, 4),
            sinr,
            40_000_000,
            SeedSpec::FromDeploy,
        ));
        t.row(vec![
            p.n.to_string(),
            p.diameter_approx.map_or("-".into(), |d| d.to_string()),
            format!("{:.1}", p.lambda),
            p.done.map_or("timeout".into(), |d| d.to_string()),
            format!("{:.0}", p.theory),
        ]);
    }
    t.print();

    // ---- MMB vs k ----
    let mut t = Table::new(
        "Table 1 / global MMB: sweep k on one deployment (n=64)",
        &["k", "slots", "theory_shape"],
    );
    let deploy = DeploymentSpec::uniform_connected(64, 55.0, 5);
    for k in [1usize, 2, 4, 8, 16] {
        let p = exp_global::run_mmb(&exp_global::mmb_spec(
            deploy,
            sinr,
            k,
            80_000_000,
            SeedSpec::FromDeploy,
        ));
        t.row(vec![
            k.to_string(),
            p.done.map_or("timeout".into(), |d| d.to_string()),
            format!("{:.0}", p.theory),
        ]);
    }
    t.print();

    // ---- CONS vs n ----
    let mut t = Table::new(
        "Table 1 / global consensus: sweep n",
        &[
            "n",
            "D_strong",
            "decided_at",
            "agreement",
            "validity",
            "theory_shape",
        ],
    );
    for (n, side) in [(16usize, 28.0), (32, 40.0), (64, 55.0)] {
        let spec = exp_global::consensus_spec(
            DeploymentSpec::uniform_connected(n, side, 6),
            sinr,
            SeedSpec::FromDeploy,
        );
        let r = exp_global::run_consensus(&spec);
        t.row(vec![
            n.to_string(),
            r.diameter_strong.map_or("-".into(), |d| d.to_string()),
            r.decided_at.map_or("timeout".into(), |d| d.to_string()),
            r.agreement.to_string(),
            r.validity.to_string(),
            format!("{:.0}", r.theory),
        ]);
    }
    t.print();
}

fn table2_headers() -> [&'static str; 10] {
    [
        "n",
        "D",
        "lambda",
        "ours",
        "dgkn[14]",
        "decay[32]",
        "winner",
        "log^{a+1}L",
        "min(Dlogn,log2n)",
        "paper_predicts",
    ]
}

fn table2_prediction(lhs: f64, rhs: f64) -> &'static str {
    // Paper: we beat [32] iff log^{α+1}Λ ≤ min(D·log n, log² n); we beat
    // [14] always.
    if lhs <= rhs {
        "ours"
    } else {
        "decay[32]"
    }
}

fn table2_row(t: &mut Table, p: &exp_table2::Table2Point) {
    t.row(vec![
        p.n.to_string(),
        p.diameter.to_string(),
        format!("{:.1}", p.lambda),
        p.ours.map_or("timeout".into(), |v| v.to_string()),
        p.dgkn.map_or("timeout".into(), |v| v.to_string()),
        p.decay_proxy.map_or("timeout".into(), |v| v.to_string()),
        p.winner().to_string(),
        format!("{:.0}", p.crossover_lhs),
        format!("{:.0}", p.crossover_rhs),
        table2_prediction(p.crossover_lhs, p.crossover_rhs).to_string(),
    ]);
}

fn legacy_table2_smb() {
    // ---- sweep n at fixed Λ ----
    let mut t = Table::new(
        "Table 2: sweep n (range=8, lambda fixed)",
        &table2_headers(),
    );
    for (n, side) in [(32usize, 25.0), (64, 36.0), (128, 51.0), (256, 72.0)] {
        let p = exp_table2::compare_smb(
            DeploymentSpec::uniform_connected(n, side, 7),
            SinrSpec::with_range(8.0),
            40_000_000,
            SeedSpec::FromDeploy,
        );
        table2_row(&mut t, &p);
    }
    t.print();

    // ---- sweep Λ at fixed n ----
    let mut t = Table::new("Table 2: sweep lambda (n=64)", &table2_headers());
    for range in [4.0f64, 8.0, 16.0, 32.0] {
        let side = (range * 3.0).max(12.0);
        let p = exp_table2::compare_smb(
            DeploymentSpec::uniform_connected(64, side, 8),
            SinrSpec::with_range(range),
            40_000_000,
            SeedSpec::FromDeploy,
        );
        table2_row(&mut t, &p);
    }
    t.print();
}

fn legacy_decay_vs_approg() {
    let mut t = Table::new(
        "Thm 8.1: two-ball gadget, B1-side approximate progress, sweep delta",
        &[
            "delta",
            "decay_p50",
            "decay_max",
            "decay_pend",
            "approg_p50",
            "approg_max",
            "approg_pend",
            "horizon",
        ],
    );
    for delta in [8usize, 16, 32, 64] {
        let p = exp_decay::run_decay_comparison(delta, 64.0, 400_000, 13);
        t.row(vec![
            p.delta.to_string(),
            p.decay
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.decay.max().map_or("-".into(), |v| v.to_string()),
            p.decay_pending.to_string(),
            p.approg
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.approg.max().map_or("-".into(), |v| v.to_string()),
            p.approg_pending.to_string(),
            p.horizon.to_string(),
        ]);
    }
    t.print();
    println!("reading: Decay's B1 latency grows with delta (Thm 8.1's Omega(Delta log 1/eps));");
    println!("Algorithm 9.1 sparsifies B2 and stays roughly flat.");
}

fn legacy_ablation_t() {
    let deploy = DeploymentSpec::uniform_connected(64, 40.0, 17);
    let mut t = Table::new(
        "A1: sweep T multiplier (dense deployment, half the nodes broadcasting)",
        &[
            "t_mult",
            "epoch_slots",
            "approg_p50",
            "approg_pend",
            "max_dropped(W)",
        ],
    );
    for p in exp_ablation::sweep_t_mult(
        deploy,
        SinrSpec::with_range(16.0),
        &[0.5, 1.0, 2.0, 4.0],
        8,
        SeedSpec::FromDeploy,
    ) {
        t.row(vec![
            format!("{}", p.value),
            p.epoch_len.to_string(),
            p.approg
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.pending.to_string(),
            p.max_dropped.to_string(),
        ]);
    }
    t.print();
}

fn legacy_ablation_labels() {
    let deploy = DeploymentSpec::uniform_connected(64, 40.0, 19);
    let sinr_params = SinrSpec::with_range(16.0).to_params().expect("params");
    let mut t = Table::new(
        "A2: sweep label-range exponent",
        &[
            "label_exp",
            "label_range",
            "approg_p50",
            "approg_pend",
            "max_dropped",
        ],
    );
    for p in exp_ablation::sweep_label_exp(
        deploy,
        SinrSpec::with_range(16.0),
        &[0.25, 0.5, 1.0, 2.0],
        8,
        SeedSpec::FromDeploy,
    ) {
        let range = MacParams::builder()
            .label_exp(p.value)
            .build(&sinr_params)
            .label_range;
        t.row(vec![
            format!("{}", p.value),
            range.to_string(),
            p.approg
                .percentile(50.0)
                .map_or("-".into(), |v| v.to_string()),
            p.pending.to_string(),
            p.max_dropped.to_string(),
        ]);
    }
    t.print();
}

fn legacy_ablation_interference() {
    use crate::reception_bench::{churn_schedule, measure};
    use sinr_phys::reception::{decide_receptions, BackendSpec};

    let sinr = SinrParams::builder().range(16.0).build().unwrap();
    let mut t = Table::new(
        "A3: exact vs hybrid agreement and speed (churn schedule: ≈ n/2 transmitters, ~n/16 change per slot)",
        &[
            "n",
            "exact_us",
            "hybrid_us",
            "hybrid_speedup",
            "agree_rate",
            "hybrid_missed",
        ],
    );
    for &n in &[128usize, 256, 512, 1024] {
        let side = (n as f64).sqrt() * 2.2;
        let positions = sinr_geom::deploy::uniform(n, side, 5).unwrap();
        let schedule = churn_schedule(n);
        let slot_us = |spec| 1e6 / measure(&sinr, &positions, &schedule, spec, 0.2).0;
        let exact_us = slot_us(BackendSpec::exact());
        let hybrid_us = slot_us(BackendSpec::hybrid(0.0));

        let senders = &schedule[0];
        let exact = decide_receptions(&sinr, &positions, senders, BackendSpec::exact());
        let hybrid = decide_receptions(&sinr, &positions, senders, BackendSpec::hybrid(0.0));
        let agree = exact.iter().zip(&hybrid).filter(|(e, h)| e == h).count();
        let missed = exact
            .iter()
            .zip(&hybrid)
            .filter(|(e, h)| e.is_some() && h.is_none())
            .count();
        t.row(vec![
            n.to_string(),
            format!("{exact_us:.1}"),
            format!("{hybrid_us:.1}"),
            format!("{:.2}x", exact_us / hybrid_us),
            format!("{:.4}", agree as f64 / n as f64),
            missed.to_string(),
        ]);
    }
    t.print();
    println!("hybrid receptions are a subset of exact ones (conservative; property-tested).");
}

fn legacy_bench_reception(args: &[String]) {
    crate::reception_bench::run(args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_all_build() {
        for p in presets() {
            let spec = (p.spec)();
            spec.build().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            // Every preset round-trips through its text form.
            assert_eq!(
                ScenarioSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn smoke_presets_cover_every_mac_choice() {
        let names: Vec<&str> = presets().iter().map(|p| p.name).collect();
        for mac in ["sinr", "ideal", "decay", "tdma", "dgkn", "decay-smb"] {
            assert!(
                names.contains(&format!("smoke-{mac}").as_str()),
                "missing smoke preset for {mac}"
            );
        }
    }

    #[test]
    fn resolve_rejects_unknown_names() {
        assert!(resolve_spec("no-such-preset-or-file").is_err());
    }

    #[test]
    fn run_smoke_end_to_end_produces_json() {
        let spec = resolve_spec("smoke-sinr").unwrap();
        let run = spec.run().unwrap();
        let json = report_for(&run).to_json();
        assert!(json.contains("\"name\":\"smoke-sinr\""));
    }

    #[test]
    fn every_preset_report_re_renders_byte_identically() {
        // Shard resume and merge accept a record only if parsing and
        // re-rendering it gives back its bytes; every preset's report
        // must pass that check.
        for p in presets() {
            let report = report_for(&(p.spec)().run().unwrap()).to_json();
            let parsed = json::parse(&report).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(parsed.to_string(), report, "{}", p.name);
        }
    }

    #[test]
    fn validator_accepts_the_committed_bench_file() {
        validate_scenario_json(include_str!("../../../BENCH_scenario.json"), 4);
    }
}
