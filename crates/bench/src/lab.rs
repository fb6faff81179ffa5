//! `sinr-lab` — the single spec-driven experiment driver: `list` the
//! named scenario presets and paper tables, `show` a spec's text, `run`
//! one spec (emitting a machine-readable JSON report), `sweep` a spec
//! grid in a thread batch, `serve` specs over NDJSON, write the paper's
//! tables to `PAPER_RESULTS.json` and check their claims (`paper`), and
//! time the reception kernels, the sweep runner and the service into the
//! three `BENCH_*.json` files (`bench`, see [`crate::harness`]).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sinr_scenario::{
    merge_shards, pool_threads, report_for, DeploymentSpec, Json, MeasureSpec, Report, ScenarioSet,
    ScenarioSpec, SeedSpec, Shard, ShardOutput, SinrSpec, SourceSet, StopSpec, WorkloadSpec,
};

use crate::harness::{self, field, legs, median, obj, positive, row, timed, Body};
use crate::{exp_fig1, exp_local, paper, service_bench};

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

/// The `main` of the `sinr_lab` binary: runs [`cli_main`] on the
/// process arguments and exits 2 with `sinr-lab: MSG` on stderr when it
/// fails.
pub fn process_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
            println!("\npaper tables (`sinr-lab paper`):");
            for t in &paper::TABLES {
                println!("  {:13} {:19} {}", t.id, t.theorem, t.title);
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
        Some("paper") => match &args[1..] {
            [] => paper::run("PAPER_RESULTS.json"),
            [out] if !out.starts_with("--") => paper::run(out),
            _ => Err("usage: sinr-lab paper [OUT]".into()),
        },
        Some("bench") => {
            let (flags, rest): (Vec<_>, Vec<_>) = args[1..].iter().partition(|a| *a == "--smoke");
            let smoke = !flags.is_empty();
            match rest[..] {
                [] => harness::run(Path::new("."), smoke),
                [dir] if !dir.starts_with("--") => harness::run(Path::new(dir), smoke),
                _ => Err("usage: sinr-lab bench [DIR] [--smoke]".into()),
            }
        }
        Some("serve") => service_bench::serve_cmd(&args[1..]),
        None | Some("help" | "--help" | "-h") => {
            println!(
                "sinr-lab — spec-driven experiment driver\n\
                 \n\
                 usage:\n\
                 \x20 sinr-lab list                               named presets + paper tables\n\
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
                 \x20 sinr-lab paper [OUT.json]                   run the paper's 13 tables, write PAPER_RESULTS.json,\n\
                 \x20                                             exit 2 if a table's claim fails\n\
                 \x20 sinr-lab bench [DIR] [--smoke]              time the reception kernels, the sweep runner and the\n\
                 \x20                                             service into DIR/BENCH_{{reception,scenario,service}}.json\n\
                 \x20 sinr-lab serve [--socket PATH] [--once] [--workers N] [--queue N]\n\
                 \x20          [--cache-bytes N] [--replay-log N] [--no-cache]\n\
                 \x20                                             persistent scenario service: NDJSON requests on stdin or a\n\
                 \x20                                             Unix socket, streamed reports, LRU-cached prepared tables\n\
                 \n\
                 spec files are key=value text; see `sinr-lab show fig1` for an example\n\
                 and the README's \"Running experiments\" section for the grammar."
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (see `sinr-lab help`)")),
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

/// The prepare-heavy row at one deployment size: an 8-cell `mac.t_mult`
/// sweep over one fixed cached-backend uniform deployment with a short
/// horizon, so the O(n²) preparation dominates each cell — the regime
/// the sweep planner exists for — timed with shared preparation (one
/// table per group) and with per-cell preparation.
fn prepare_heavy_row(
    smoke: bool,
    n: usize,
    slots_per_cell: u64,
    threads: usize,
) -> Result<Json, String> {
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
    let t_mult = ["0.5", "0.75", "1", "1.25", "1.5", "2", "3", "4"].map(String::from);
    let set = ScenarioSet::new(base).axis("mac.t_mult", t_mult.to_vec());
    let cells = set.cells().map_err(|e| e.to_string())?.len();
    let per_cell = set.clone().without_shared_prepare();
    let measured = harness::trials(smoke, |i| {
        let ((shared, shared_secs), (percell, percell_secs)) = legs(
            i,
            || timed(|| set.run(threads)),
            || timed(|| per_cell.run(threads)),
        );
        for runs in [
            shared.map_err(|e| e.to_string())?,
            percell.map_err(|e| e.to_string())?,
        ] {
            if runs.len() != cells {
                return Err(format!(
                    "prepare-heavy n={n}: expected {cells} runs, got {}",
                    runs.len()
                ));
            }
        }
        Ok(obj(vec![
            ("shared_secs", Json::Num(shared_secs)),
            ("percell_secs", Json::Num(percell_secs)),
            ("shared_speedup", Json::Num(percell_secs / shared_secs)),
        ]))
    })?;
    Ok(row(
        vec![
            ("n", Json::int(n as u64)),
            ("cells", Json::int(cells as u64)),
            ("slots_per_cell", Json::int(slots_per_cell)),
        ],
        measured,
    ))
}

/// One trial of the sharded streaming executor against the
/// single-process run on `set`, a seed sweep of tiny scenarios (the
/// per-cell work is small on purpose: this prices the executor and
/// output machinery, not the MAC): the sweep once in a single process
/// and once as `shards` sequential in-process shards, each streaming
/// crash-safe NDJSON, then a resume pass over the completed shard 0 to
/// price the manifest and output scan.
fn sharded_trial(
    set: &ScenarioSet,
    shards: usize,
    threads: usize,
    trial: usize,
) -> Result<Json, String> {
    let plan = set.execution_plan().map_err(|e| e.to_string())?;
    let tmp = std::env::temp_dir().join(format!(
        "sinr-lab-bench-shard-{}-{trial}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&tmp);
    let run_shard = |dir: &Path, shard: Shard| -> Result<(), String> {
        let out =
            ShardOutput::create(dir, set, plan.cells.len(), shard).map_err(|e| e.to_string())?;
        set.run_sharded(&plan, threads, shard, &BTreeSet::new(), &|i, run| {
            out.record(i, &report_for(&run))
        })
        .map_err(|e| e.to_string())?;
        Ok(())
    };
    let (single_dir, shard_dir) = (tmp.join("single"), tmp.join("sharded"));
    let (single, single_secs) = timed(|| run_shard(&single_dir, Shard::full()));
    single?;
    let (sharded, sharded_secs) = timed(|| {
        (0..shards).try_for_each(|index| {
            run_shard(
                &shard_dir,
                Shard {
                    index,
                    count: shards,
                },
            )
        })
    });
    sharded?;
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
    let (resumed, scan_secs) = timed(|| -> Result<usize, String> {
        let (out, completed) =
            ShardOutput::resume(&shard_dir, set, &plan.cells, shard0).map_err(|e| e.to_string())?;
        let summary = set
            .run_sharded(&plan, threads, shard0, &completed, &|i, run| {
                out.record(i, &report_for(&run))
            })
            .map_err(|e| e.to_string())?;
        Ok(summary.executed)
    });
    let reexecuted = resumed?;
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(obj(vec![
        (
            "sharded",
            obj(vec![
                ("single_secs", Json::Num(single_secs)),
                ("sharded_secs", Json::Num(sharded_secs)),
                (
                    "cells_per_sec",
                    Json::Num(plan.cells.len() as f64 / sharded_secs),
                ),
                ("merged_identical", Json::Bool(merged_identical)),
            ]),
        ),
        (
            "resume",
            obj(vec![
                ("scan_secs", Json::Num(scan_secs)),
                ("reexecuted", Json::int(reexecuted as u64)),
            ]),
        ),
    ]))
}

/// Measures the sweep executor, the body of `BENCH_scenario.json`:
///
/// * **throughput** — a batch of 8 seeds at n = 64, 500 slots each,
///   reception via the cached-gain kernel.
/// * **prepare_heavy** — for n ∈ {64, 256, 512, 1024}, an 8-cell
///   `mac.t_mult` sweep timed with shared vs per-cell preparation
///   (see [`prepare_heavy_row`]); the n = 512 row is the headline
///   (target ≥3x).
/// * **sharded** and **resume** — the sharded streaming executor on a
///   10,240-cell seed sweep (see [`sharded_trial`]).
///
/// `--smoke` (the CI mode) shrinks everything to n = 32 and 64 cells.
///
/// # Errors
///
/// A message if a sweep fails.
pub(crate) fn bench_scenario(smoke: bool) -> Result<Body, String> {
    let threads = pool_threads(None, None);

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
    let measured = harness::trials(smoke, |_| {
        let (runs, secs) = timed(|| set.run(threads));
        let runs = runs.map_err(|e| e.to_string())?;
        Ok(obj(vec![
            ("seconds", Json::Num(secs)),
            ("scenarios_per_sec", Json::Num(batch as f64 / secs)),
            ("cells_completed", Json::int(runs.len() as u64)),
        ]))
    })?;
    let throughput = row(
        vec![
            ("n", Json::int(64)),
            ("slots_per_cell", Json::int(throughput_slots)),
            ("batch", Json::int(batch as u64)),
        ],
        measured,
    );
    harness::print(
        &format!("sweep throughput ({threads} threads)"),
        std::slice::from_ref(&throughput),
    );

    let sizes: &[usize] = if smoke { &[32] } else { &[64, 256, 512, 1024] };
    let slots_per_cell = if smoke { 60 } else { 20 };
    let prepare_heavy = sizes
        .iter()
        .map(|&n| prepare_heavy_row(smoke, n, slots_per_cell, threads))
        .collect::<Result<Vec<_>, _>>()?;
    harness::print(
        "prepare-heavy 8-cell mac.t_mult sweeps: shared vs per-cell preparation",
        &prepare_heavy,
    );

    let cells = if smoke { 64 } else { 10_240 };
    let shards = 4usize;
    let shard_set = ScenarioSet::new(
        ScenarioSpec::new(
            "bench-shard",
            smoke_deploy(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(60),
        )
        .with_sinr(SinrSpec::with_range(8.0))
        .with_measure(MeasureSpec::none()),
    )
    .axis("seed", (1..=cells as u64).map(|s| s.to_string()).collect());
    let measured = harness::trials(smoke, |i| sharded_trial(&shard_set, shards, threads, i))?;
    let part = |key| measured.get(key).cloned().expect("every trial reports it");
    let sharded = row(
        vec![
            ("cells", Json::int(cells as u64)),
            ("shards", Json::int(shards as u64)),
        ],
        part("sharded"),
    );
    let resume = row(
        vec![("cells_in_shard", Json::int((cells / shards) as u64))],
        part("resume"),
    );
    harness::print(
        &format!("sharded sweep: {shards} sequential shards"),
        std::slice::from_ref(&sharded),
    );
    harness::print(
        "resume over a complete shard",
        std::slice::from_ref(&resume),
    );

    Ok(vec![
        ("threads", Json::int(threads as u64)),
        ("throughput", throughput),
        ("prepare_heavy", Json::Arr(prepare_heavy)),
        ("sharded", sharded),
        ("resume", resume),
    ])
}

/// The relations of `BENCH_scenario.json`: every timing and speedup is
/// positive, the batch completed every cell, there is one prepare-heavy
/// row per size, the sharded merge is byte-identical to the
/// single-process run, and resuming a complete shard re-executes
/// nothing.
///
/// # Errors
///
/// A message naming the first relation that fails.
pub(crate) fn check_scenario(doc: &Json) -> Result<(), String> {
    field(doc, &["threads"], Json::as_u64)?;
    let throughput = field(doc, &["throughput"], Some)?;
    positive(throughput, &["seconds", "scenarios_per_sec"])?;
    if median(throughput, "cells_completed")? != field(throughput, &["batch"], Json::as_f64)? {
        return Err("the throughput batch did not complete every cell".into());
    }
    let rows = field(doc, &["prepare_heavy"], Json::as_arr)?;
    let want = if field(doc, &["smoke"], Json::as_bool)? {
        1
    } else {
        4
    };
    if rows.len() != want {
        return Err(format!(
            "expected {want} prepare-heavy rows, found {}",
            rows.len()
        ));
    }
    for r in rows {
        positive(r, &["shared_secs", "percell_secs", "shared_speedup"])?;
    }
    let sharded = field(doc, &["sharded"], Some)?;
    positive(sharded, &["single_secs", "sharded_secs", "cells_per_sec"])?;
    if !field(sharded, &["merged_identical"], Json::as_bool)? {
        return Err("the sharded merge is not byte-identical to the single-process run".into());
    }
    let resume = field(doc, &["resume"], Some)?;
    positive(resume, &["scan_secs"])?;
    if median(resume, "reexecuted")? != 0.0 {
        return Err("resume re-executed completed cells".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_scenario::json;

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
        use crate::harness::tests::{assert_checks, same};
        assert_checks(
            include_str!("../../../BENCH_scenario.json"),
            "scenario_sweep",
            &[
                (&["sharded", "merged_identical"], Json::Bool(false)),
                (&["resume", "reexecuted"], same(1.0)),
                (&["prepare_heavy", "2", "shared_speedup"], same(0.0)),
                (&["prepare_heavy"], Json::Arr(vec![])),
                (&["throughput", "scenarios_per_sec"], same(-1.0)),
                (&["throughput", "cells_completed"], same(7.0)),
                (&["sharded", "cells_per_sec"], Json::Num(6000.0)),
                (&["bench"], Json::str("scenario_service")),
                (&["stamp", "cpus"], Json::str("two")),
            ],
        );
    }

    #[test]
    fn bench_refuses_unknown_arguments() {
        // Refused before anything runs: a mistyped `--smoke` must not
        // start the full bench, and the retired per-file bench commands
        // must not pass silently.
        for (args, why) in [
            (&["bench", "--smok"][..], "usage: sinr-lab bench"),
            (&["bench", "dir", "extra"], "usage: sinr-lab bench"),
            (&["bench-reception"], "unknown command"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = cli_main(&args).expect_err("refused");
            assert!(err.contains(why), "{err}");
        }
    }
}
