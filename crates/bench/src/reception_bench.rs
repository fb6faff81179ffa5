//! Reception-kernel throughput: slots/sec per backend, emitted as
//! machine-readable `BENCH_reception.json` so successive PRs have a perf
//! trajectory to compare against.
//!
//! For every deployment shape (lattice, uniform) and size
//! `n ∈ {64, 256, 1024}`, each backend (`exact`, `cached`, `hybrid`)
//! repeatedly resolves whole slots against a
//! **churning transmitter schedule**: roughly half the nodes always
//! transmit and an extra cohort of `n/32` rotates every slot, so
//! consecutive slots differ in ~n/16 transmitters — the access pattern
//! a MAC layer actually produces, and the one the cached kernel's
//! delta-driven hot path is built for. Backends persist across slots
//! (scratch buffers and gain caches are reused — the exact hot path the
//! `Engine` drives) and each reports decided slots per second of wall
//! clock.
//!
//! The uniform deployments are also run on a **turnover schedule**:
//! sixteen seeded sender sets in which each node sends with probability
//! 1/12 (Algorithm 11.1 sends ~867 per 10⁴ nodes at city density).
//! Consecutive sets differ in more nodes than either holds, so every
//! slot takes the table kernels' full-refresh path — the path the
//! paper's MAC drives, where the churn rows measure only the delta path.
//! Every row names its `schedule`: `churn`, `turnover`, or `fixed` for
//! the moving-uniform rows below, whose senders never change.
//!
//! A second, **moving-uniform** workload measures the mobility fast
//! path: each slot teleports a cohort of `n/32` nodes between their home
//! position and a parking row (the near-field invariant holds throughout)
//! and then decides the slot. Three kernels are timed — the cached
//! backend repairing its gain cache incrementally through
//! `update_positions` (`repair`), the same backend forced through a full
//! `prepare` rebuild per slot (`reprepare`, what a position change costs
//! without the hook), and serial `exact` — and the row records the
//! repair-over-reprepare speedup this PR pins (target ≥5x at n = 1024).
//! Before timing, the repair kernel's decisions are checked against
//! exact for a full movement cycle, so the bench cannot quietly measure
//! a divergent kernel.
//!
//! A third, **city-scale** section (full runs only, not `--smoke`)
//! measures the sparse hybrid kernel on uniform deployments at
//! n = 10⁴ and n = 10⁵ — sizes where the dense n×n gain table is
//! respectively marginal (1.6 GB) and refused outright (160 GB, over
//! the `SINR_MAX_TABLE_BYTES` cap; the refusal is asserted before
//! measuring). The hybrid rows run serial and threaded (`hybrid+par`)
//! on the churn schedule, and on the turnover schedule (serial only at
//! n = 10⁵).
//! Every city-scale row records its table build time (`prepare_ms`).
//! The hybrid rows run at an explicit near-field cutoff tuned for the
//! bench density (see [`CITY_CUTOFF`]).
//!
//! After writing, the emitted JSON is read back and validated (parses
//! shallowly, one row per backend per configuration and schedule) so a
//! refactor cannot silently rot the BENCH file; CI runs the same binary in
//! `--smoke` mode (n = 64 only, short measurements) on every push.
//!
//! Entry point: `sinr-lab bench-reception [OUT] [--smoke]`, which calls
//! [`run`]. The output path defaults to `BENCH_reception.json` in the
//! current directory.

use std::time::Instant;

use crate::common::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_geom::{deploy, Point};
use sinr_phys::{dense_table_bytes, max_table_bytes, BackendSpec, GainTable, SinrParams};
use sinr_scenario::json::{self, Json};

/// Slots in one churn cycle (and distinct transmitter sets).
const CYCLE: usize = 16;

/// Seed of the turnover schedule's sender sets.
const TURNOVER_SEED: u64 = 12;

/// One measured configuration.
struct Sample {
    deployment: &'static str,
    n: usize,
    schedule: Schedule,
    backend: String,
    slots_per_sec: f64,
    /// Receptions in the cycle's first slot, as a sanity anchor: backends
    /// on the same deployment must broadly agree (hybrid is conservative,
    /// cached is bit-identical to exact).
    receptions: usize,
    /// Wall-clock milliseconds of the one-time `prepare` call, so
    /// table-fill speedups stay visible separately from slot-loop
    /// speedups (`exact` reports ~0).
    prepare_ms: f64,
}

/// The rotating transmitter schedule: even nodes always send, plus the
/// odd-node cohort `2·(slot % 16) + 1 (mod 32)` — so each slot churns
/// about `2 · n/32` transmitters against the previous one.
fn churn_schedule(n: usize) -> Vec<Vec<usize>> {
    (0..CYCLE)
        .map(|v| {
            (0..n)
                .filter(|i| i % 2 == 0 || i % 32 == 2 * v + 1)
                .collect()
        })
        .collect()
}

/// The turnover schedule: `CYCLE` seeded sender sets, each node sending
/// with probability 1/12, so every slot refreshes (see the module docs).
fn turnover_schedule(n: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(TURNOVER_SEED);
    (0..CYCLE)
        .map(|_| (0..n).filter(|_| rng.random_bool(1.0 / 12.0)).collect())
        .collect()
}

/// The transmitter schedule a row runs (see the module docs).
#[derive(Clone, Copy, PartialEq)]
enum Schedule {
    /// [`churn_schedule`]: the delta path.
    Churn,
    /// [`turnover_schedule`]: every slot refreshes.
    Turnover,
}

impl Schedule {
    fn name(self) -> &'static str {
        match self {
            Schedule::Churn => "churn",
            Schedule::Turnover => "turnover",
        }
    }

    fn sets(self, n: usize) -> Vec<Vec<usize>> {
        match self {
            Schedule::Churn => churn_schedule(n),
            Schedule::Turnover => turnover_schedule(n),
        }
    }
}

/// Times `spec` over `schedule` on a backend that persists across slots:
/// one untimed `prepare` and warm-up cycle, then ~`target_secs` of whole
/// cycles. Returns slots per second, the receptions of the schedule's
/// first slot and the `prepare` time in milliseconds.
fn measure(
    sinr: &SinrParams,
    positions: &[Point],
    schedule: &[Vec<usize>],
    spec: BackendSpec,
    target_secs: f64,
) -> (f64, usize, f64) {
    let mut backend = spec.build();
    let t_prep = Instant::now();
    backend.prepare(sinr, positions).expect("bench prepare");
    let prepare_ms = t_prep.elapsed().as_secs_f64() * 1e3;
    let mut out = vec![None; positions.len()];
    // Warm up one full cycle (pays scratch allocation, thread start-up
    // and the cached kernel's first full refresh).
    for senders in schedule {
        backend.decide_slot(sinr, positions, senders, &mut out);
    }
    let receptions = {
        backend.decide_slot(sinr, positions, &schedule[0], &mut out);
        out.iter().flatten().count()
    };
    // Calibrate the repeat count so each measurement runs ~target_secs.
    let t0 = Instant::now();
    for senders in schedule {
        backend.decide_slot(sinr, positions, senders, &mut out);
    }
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let cycles = ((target_secs / once) as usize).clamp(1, 20_000);
    let t0 = Instant::now();
    for _ in 0..cycles {
        for senders in schedule {
            backend.decide_slot(sinr, positions, senders, &mut out);
        }
    }
    let per_slot = t0.elapsed().as_secs_f64() / (cycles * schedule.len()) as f64;
    (1.0 / per_slot, receptions, prepare_ms)
}

/// Nodes moved per slot in the moving-uniform workload: `n / MOVERS_DIV`.
const MOVERS_DIV: usize = 32;

/// One moving-uniform configuration: the three kernel rates plus the
/// headline ratio.
struct MobilitySample {
    n: usize,
    movers: usize,
    repair: f64,
    reprepare: f64,
    exact: f64,
}

impl MobilitySample {
    fn speedup(&self) -> f64 {
        self.repair / self.reprepare.max(1e-9)
    }
}

/// Advances the oscillating movement schedule by one slot: cohort
/// `slot % cohorts` toggles between home and a parking row 10 units
/// below the deployment (2-unit spacing, so near-field holds for any
/// parked subset). Returns the moves through `moved`.
fn mobility_step(
    positions: &mut [Point],
    home: &[Point],
    parked: &mut [bool],
    slot: usize,
    movers: usize,
    moved: &mut Vec<(usize, Point)>,
) {
    moved.clear();
    let n = positions.len();
    let cohorts = (n / movers).max(1);
    let c = slot % cohorts;
    for i in (c * movers..(c + 1) * movers).take_while(|&i| i < n) {
        let to = if parked[i] {
            home[i]
        } else {
            Point::new(2.0 * i as f64, -10.0)
        };
        parked[i] = !parked[i];
        positions[i] = to;
        moved.push((i, to));
    }
}

/// Near-field cutoff for the city-scale hybrid rows. The per-slot cost
/// trades near-row degree (∝ cutoff²) against far-cell count
/// (∝ 1/cell_size² with cell_size = cutoff/3); at the bench density
/// (~0.21 nodes/unit²) the curve bottoms out slightly above the decode
/// range — cutoff 20 measures ~25% faster than the default
/// (cutoff = range = 16) and decodes more listeners, since a wider
/// exact band leaves less interference to over-estimate.
const CITY_CUTOFF: f64 = 20.0;

/// One city-scale configuration: a kernel's rate at a size where the
/// dense n×n table is marginal or refused.
struct LargeSample {
    n: usize,
    schedule: Schedule,
    kernel: String,
    slots_per_sec: f64,
    receptions: usize,
    prepare_ms: f64,
}

/// Which per-slot procedure a mobility kernel runs.
#[derive(Clone, Copy, PartialEq)]
enum MobilityKernel {
    /// Cached backend, incremental `update_positions` repair.
    Repair,
    /// Cached backend, full `prepare` rebuild every slot.
    Reprepare,
    /// Serial exact (reads positions fresh; nothing to maintain).
    Exact,
}

fn measure_mobility_kernel(
    sinr: &SinrParams,
    home: &[Point],
    senders: &[usize],
    movers: usize,
    kernel: MobilityKernel,
    target_secs: f64,
) -> f64 {
    let n = home.len();
    let cohorts = (n / movers).max(1);
    let spec = match kernel {
        MobilityKernel::Exact => BackendSpec::exact(),
        _ => BackendSpec::cached(),
    };
    let mut backend = spec.build();
    let mut positions = home.to_vec();
    let mut parked = vec![false; n];
    let mut moved: Vec<(usize, Point)> = Vec::new();
    let mut out = vec![None; n];
    backend.prepare(sinr, &positions).expect("bench prepare");
    let mut slot = 0usize;
    let mut run_slots = |backend: &mut Box<dyn sinr_phys::InterferenceBackend>,
                         positions: &mut Vec<Point>,
                         parked: &mut Vec<bool>,
                         slot: &mut usize,
                         count: usize| {
        for _ in 0..count {
            mobility_step(positions, home, parked, *slot, movers, &mut moved);
            match kernel {
                MobilityKernel::Repair => backend.update_positions(sinr, positions, &moved),
                MobilityKernel::Reprepare => {
                    backend.prepare(sinr, positions).expect("bench re-prepare");
                }
                MobilityKernel::Exact => {}
            }
            backend.decide_slot(sinr, positions, senders, &mut out);
            *slot += 1;
        }
    };
    // Warm up two full movement cycles (everything parks and returns).
    run_slots(
        &mut backend,
        &mut positions,
        &mut parked,
        &mut slot,
        2 * cohorts,
    );
    // Calibrate so each measurement runs ~target_secs.
    let t0 = Instant::now();
    run_slots(
        &mut backend,
        &mut positions,
        &mut parked,
        &mut slot,
        cohorts,
    );
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let reps = ((target_secs / once) as usize).clamp(1, 20_000);
    let t0 = Instant::now();
    run_slots(
        &mut backend,
        &mut positions,
        &mut parked,
        &mut slot,
        reps * cohorts,
    );
    let per_slot = t0.elapsed().as_secs_f64() / (reps * cohorts) as f64;
    1.0 / per_slot
}

/// The repair kernel's self-check: decisions under incremental position
/// repair must equal fresh exact computation for one full movement
/// cycle.
///
/// # Panics
///
/// Panics on the first divergent slot — the bench must not publish
/// numbers for a kernel that stopped being exact.
fn check_mobility_exactness(sinr: &SinrParams, home: &[Point], senders: &[usize], movers: usize) {
    let n = home.len();
    let cohorts = (n / movers).max(1);
    let mut cached = BackendSpec::cached().build();
    let mut exact = BackendSpec::exact().build();
    cached.prepare(sinr, home).expect("bench prepare");
    let mut positions = home.to_vec();
    let mut parked = vec![false; n];
    let mut moved = Vec::new();
    let (mut got, mut want) = (vec![None; n], vec![None; n]);
    for slot in 0..2 * cohorts {
        mobility_step(&mut positions, home, &mut parked, slot, movers, &mut moved);
        cached.update_positions(sinr, &positions, &moved);
        cached.decide_slot(sinr, &positions, senders, &mut got);
        exact.decide_slot(sinr, &positions, senders, &mut want);
        assert_eq!(
            got, want,
            "mobility repair diverged from exact at slot {slot}"
        );
    }
}

/// Validation of the emitted JSON: it must parse as the expected shape,
/// carry one row per backend per (deployment, n) pair of each schedule,
/// and name every row's schedule.
///
/// # Panics
///
/// Panics with a description when the file does not meet the contract —
/// the whole point is that CI fails loudly instead of committing a
/// rotten BENCH file.
fn validate_json(
    text: &str,
    backends: &[String],
    (churn, turnover): (usize, usize),
    mobility_rows: usize,
    large_rows: usize,
) {
    let doc = json::parse(text).unwrap_or_else(|e| panic!("BENCH json does not parse: {e}"));
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCH json is missing the {key} array"))
    };
    let all_numbers = |rows: &[Json], key: &str| {
        rows.iter()
            .all(|r| r.get(key).and_then(Json::as_f64).is_some())
    };
    fn schedule(row: &Json) -> Option<&str> {
        row.get("schedule").and_then(Json::as_str)
    }
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("reception"));
    assert_eq!(
        doc.get("unit").and_then(Json::as_str),
        Some("slots_per_sec")
    );
    assert!(
        doc.get("dense_table_cap").and_then(Json::as_f64).is_some(),
        "BENCH json is missing the dense-table cap"
    );
    let mobility = rows("mobility_samples");
    assert!(
        mobility.len() == mobility_rows && all_numbers(mobility, "repair_speedup"),
        "expected one moving-uniform row per size"
    );
    let large = rows("large_samples");
    assert!(
        large.len() == large_rows
            && large
                .iter()
                .all(|r| r.get("kernel").and_then(Json::as_str).is_some())
            && all_numbers(large, "prepare_ms"),
        "expected {large_rows} city-scale rows, each with its prepare time"
    );
    let samples = rows("samples");
    assert!(
        [samples, mobility, large]
            .iter()
            .all(|rows| rows.iter().all(|r| schedule(r).is_some())),
        "every row must name its schedule"
    );
    assert_eq!(
        samples.len(),
        backends.len() * (churn + turnover),
        "expected {} rows ({} backends x {churn} churn + {turnover} turnover configurations)",
        backends.len() * (churn + turnover),
        backends.len(),
    );
    for b in backends {
        for (name, configurations) in [("churn", churn), ("turnover", turnover)] {
            let count = samples
                .iter()
                .filter(|r| {
                    r.get("backend").and_then(Json::as_str) == Some(b.as_str())
                        && schedule(r) == Some(name)
                })
                .count();
            assert_eq!(
                count, configurations,
                "backend {b} does not appear once per {name} configuration"
            );
        }
    }
    assert!(
        all_numbers(samples, "slots_per_sec") && all_numbers(samples, "prepare_ms"),
        "every sample row must carry its rate and prepare-vs-slot breakdown"
    );
}

/// The churn-schedule `slots_per_sec` a previous BENCH file recorded for
/// one sample row. Files written before rows named their schedule hold
/// churn rows only.
fn prev_rate(prev: &Json, deployment: &str, n: usize, backend: &str) -> Option<f64> {
    prev.get("samples")?
        .as_arr()?
        .iter()
        .find(|row| {
            row.get("deployment").and_then(Json::as_str) == Some(deployment)
                && row.get("n").and_then(Json::as_u64) == Some(n as u64)
                && row.get("backend").and_then(Json::as_str) == Some(backend)
                && row
                    .get("schedule")
                    .and_then(Json::as_str)
                    .unwrap_or("churn")
                    == "churn"
        })?
        .get("slots_per_sec")?
        .as_f64()
}

/// The CPU count and model of the machine the bench runs on.
fn machine() -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("cpus".into(), Json::int(cpus as u64)),
        ("cpu_model".into(), Json::str(model)),
    ])
}

/// Runs the benchmark and writes `out_path`; `smoke` is the tiny mode
/// (n = 64 only, short measurements — the CI configuration).
///
/// # Errors
///
/// A message if the output file cannot be written or read back.
///
/// # Panics
///
/// Panics if a deployment cannot be generated or the emitted JSON fails
/// validation — bugs a benchmark must not mask.
pub fn run(out_path: &str, smoke: bool) -> Result<(), String> {
    let sizes: &[usize] = if smoke { &[64] } else { &[64, 256, 1024] };
    let target_secs = if smoke { 0.01 } else { 0.2 };

    // Snapshot the previous report (if any) before overwriting it, so
    // the new JSON can record before/after rows for the cached kernel —
    // the artifact carries its own regression history.
    let prev = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|text| json::parse(&text).ok());

    let sinr = SinrParams::builder().range(16.0).build().unwrap();
    // Threads for the city-scale `hybrid+par` rows and the dense-table
    // refusal check: at least 2 so the threaded rows exist even on
    // single-core runners (there they measure the automatic serial
    // fallback, which is itself worth tracking); capped to keep thread
    // start-up noise bounded.
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let backends = [
        BackendSpec::exact(),
        BackendSpec::cached(),
        BackendSpec::hybrid(0.0),
    ];
    let backend_names: Vec<String> = backends
        .iter()
        .map(|s| s.build().name().to_string())
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    let mut table = Table::new(
        "reception kernel throughput (churn: ≈ n/2 transmitters, ~n/16 change per slot; turnover: ≈ n/12, every slot refreshes)",
        &[
            "deployment",
            "n",
            "schedule",
            "backend",
            "slots_per_sec",
            "receptions",
            "prepare_ms",
        ],
    );
    for &n in sizes {
        let side = (n as f64).sqrt() * 2.2;
        let rows = (n as f64).sqrt().ceil() as usize;
        let cols = n.div_ceil(rows);
        let deployments: [(&'static str, Vec<Point>); 2] = [
            (
                "lattice",
                deploy::lattice(rows, cols, 2.0).expect("lattice")[..n].to_vec(),
            ),
            ("uniform", deploy::uniform(n, side, 5).expect("uniform")),
        ];
        for (name, positions) in deployments {
            for schedule in [Schedule::Churn, Schedule::Turnover] {
                // The turnover rows run on the uniform deployment only.
                if schedule == Schedule::Turnover && name != "uniform" {
                    continue;
                }
                let sets = schedule.sets(n);
                for (spec, backend_name) in backends.iter().zip(&backend_names) {
                    let (slots_per_sec, receptions, prepare_ms) =
                        measure(&sinr, &positions, &sets, *spec, target_secs);
                    table.row(vec![
                        name.to_string(),
                        n.to_string(),
                        schedule.name().to_string(),
                        backend_name.clone(),
                        format!("{slots_per_sec:.0}"),
                        receptions.to_string(),
                        format!("{prepare_ms:.2}"),
                    ]);
                    samples.push(Sample {
                        deployment: name,
                        n,
                        schedule,
                        backend: backend_name.clone(),
                        slots_per_sec,
                        receptions,
                        prepare_ms,
                    });
                }
            }
        }
    }
    table.print();

    // The moving-uniform workload: ~n/32 movers per slot, fixed senders,
    // three kernels (see module docs).
    let mut mobility_samples: Vec<MobilitySample> = Vec::new();
    let mut mobility_table = Table::new(
        "moving-uniform: cached incremental repair vs full re-prepare (n/32 movers per slot)",
        &[
            "n",
            "movers",
            "repair/s",
            "reprepare/s",
            "exact/s",
            "speedup",
        ],
    );
    for &n in sizes {
        let side = (n as f64).sqrt() * 2.2;
        let home = deploy::uniform(n, side, 5).expect("uniform");
        let senders: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let movers = (n / MOVERS_DIV).max(1);
        check_mobility_exactness(&sinr, &home, &senders, movers);
        let rate =
            |kernel| measure_mobility_kernel(&sinr, &home, &senders, movers, kernel, target_secs);
        let sample = MobilitySample {
            n,
            movers,
            repair: rate(MobilityKernel::Repair),
            reprepare: rate(MobilityKernel::Reprepare),
            exact: rate(MobilityKernel::Exact),
        };
        mobility_table.row(vec![
            n.to_string(),
            movers.to_string(),
            format!("{:.0}", sample.repair),
            format!("{:.0}", sample.reprepare),
            format!("{:.0}", sample.exact),
            format!("{:.2}x", sample.speedup()),
        ]);
        mobility_samples.push(sample);
    }
    mobility_table.print();

    // City-scale rows: the sparse hybrid kernel where the dense table
    // stops being an option (see the module docs). Skipped in smoke
    // mode — deployment generation alone is seconds at n = 10⁵.
    let mut large_samples: Vec<LargeSample> = Vec::new();
    if !smoke {
        let mut large_table = Table::new(
            "city-scale uniform: sparse hybrid kernel (churn: ~n/2 transmitters, ~n/16 change; turnover: ~n/12, every slot refreshes)",
            &[
                "n",
                "schedule",
                "kernel",
                "slots_per_sec",
                "receptions",
                "prepare_ms",
            ],
        );
        let hybrid = BackendSpec::hybrid(CITY_CUTOFF);
        let rows = [
            (10_000usize, Schedule::Churn, hybrid),
            (10_000, Schedule::Churn, hybrid.with_threads(threads)),
            (10_000, Schedule::Turnover, hybrid),
            (10_000, Schedule::Turnover, hybrid.with_threads(threads)),
            (100_000, Schedule::Churn, hybrid),
            (100_000, Schedule::Churn, hybrid.with_threads(threads)),
            (100_000, Schedule::Turnover, hybrid),
        ];
        for n in [10_000usize, 100_000] {
            let side = (n as f64).sqrt() * 2.2;
            let positions = deploy::uniform(n, side, 5).expect("uniform");
            // Past the byte cap the dense table must refuse with a
            // structured error (not OOM) — the refusal the hybrid
            // kernel exists to answer.
            if dense_table_bytes(n) > max_table_bytes() {
                assert!(
                    GainTable::try_build(&sinr, &positions, threads).is_err(),
                    "dense table must refuse at n={n}"
                );
            }
            for &(_, schedule, spec) in rows.iter().filter(|r| r.0 == n) {
                let kernel = spec.build().name().to_string();
                let (slots_per_sec, receptions, prepare_ms) =
                    measure(&sinr, &positions, &schedule.sets(n), spec, target_secs);
                large_table.row(vec![
                    n.to_string(),
                    schedule.name().to_string(),
                    kernel.clone(),
                    format!("{slots_per_sec:.1}"),
                    receptions.to_string(),
                    format!("{prepare_ms:.0}"),
                ]);
                large_samples.push(LargeSample {
                    n,
                    schedule,
                    kernel,
                    slots_per_sec,
                    receptions,
                    prepare_ms,
                });
            }
        }
        large_table.print();
    }

    let mut fields = vec![
        ("bench".into(), Json::str("reception")),
        ("unit".into(), Json::str("slots_per_sec")),
        ("threads".into(), Json::int(threads as u64)),
        ("machine".into(), machine()),
        ("churn_cycle".into(), Json::int(CYCLE as u64)),
        ("movers_div".into(), Json::int(MOVERS_DIV as u64)),
        (
            "samples".into(),
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("deployment".into(), Json::str(s.deployment)),
                            ("n".into(), Json::int(s.n as u64)),
                            ("schedule".into(), Json::str(s.schedule.name())),
                            ("backend".into(), Json::str(&s.backend)),
                            ("slots_per_sec".into(), Json::Num(s.slots_per_sec)),
                            ("receptions".into(), Json::int(s.receptions as u64)),
                            ("prepare_ms".into(), Json::Num(s.prepare_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mobility_samples".into(),
            Json::Arr(
                mobility_samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("deployment".into(), Json::str("moving-uniform")),
                            ("n".into(), Json::int(s.n as u64)),
                            ("schedule".into(), Json::str("fixed")),
                            ("movers".into(), Json::int(s.movers as u64)),
                            ("repair_slots_per_sec".into(), Json::Num(s.repair)),
                            ("reprepare_slots_per_sec".into(), Json::Num(s.reprepare)),
                            ("exact_slots_per_sec".into(), Json::Num(s.exact)),
                            ("repair_speedup".into(), Json::Num(s.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "large_samples".into(),
            Json::Arr(
                large_samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("deployment".into(), Json::str("uniform-large")),
                            ("n".into(), Json::int(s.n as u64)),
                            ("schedule".into(), Json::str(s.schedule.name())),
                            ("kernel".into(), Json::str(&s.kernel)),
                            ("cutoff".into(), Json::Num(CITY_CUTOFF)),
                            ("slots_per_sec".into(), Json::Num(s.slots_per_sec)),
                            ("receptions".into(), Json::int(s.receptions as u64)),
                            ("prepare_ms".into(), Json::Num(s.prepare_ms)),
                            (
                                "dense_table_bytes".into(),
                                Json::int(dense_table_bytes(s.n)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let vs_previous: Vec<Json> = samples
        .iter()
        .filter(|s| s.backend == "cached" && s.schedule == Schedule::Churn)
        .filter_map(|s| {
            let p = prev_rate(prev.as_ref()?, s.deployment, s.n, "cached")?;
            Some(Json::Obj(vec![
                ("deployment".into(), Json::str(s.deployment)),
                ("n".into(), Json::int(s.n as u64)),
                ("prev_slots_per_sec".into(), Json::Num(p)),
                ("now_slots_per_sec".into(), Json::Num(s.slots_per_sec)),
                ("speedup".into(), Json::Num(s.slots_per_sec / p.max(1e-9))),
            ]))
        })
        .collect();
    if !vs_previous.is_empty() {
        fields.push(("cached_vs_previous".into(), Json::Arr(vs_previous)));
    }
    fields.push(("dense_table_cap".into(), Json::int(max_table_bytes())));
    let json = format!("{}\n", Json::Obj(fields));
    std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    let written =
        std::fs::read_to_string(out_path).map_err(|e| format!("reading back {out_path}: {e}"))?;
    validate_json(
        &written,
        &backend_names,
        (sizes.len() * 2, sizes.len()),
        sizes.len(),
        large_samples.len(),
    );
    println!(
        "wrote {out_path} ({} rows, validated)",
        samples.len() + mobility_samples.len() + large_samples.len()
    );

    // The headline claim: at n = 1024 the cached kernel must beat serial
    // exact by a wide margin under realistic churn.
    if !smoke {
        for deployment in ["lattice", "uniform"] {
            let rate = |backend: &str| {
                samples
                    .iter()
                    .find(|s| {
                        s.deployment == deployment
                            && s.n == 1024
                            && s.schedule == Schedule::Churn
                            && s.backend == backend
                    })
                    .map(|s| s.slots_per_sec)
                    .unwrap_or(0.0)
            };
            let exact = rate("exact");
            let cached = rate("cached");
            println!(
                "n=1024 {deployment}: exact {exact:.0}/s, cached {cached:.0}/s ({:.2}x)",
                cached / exact.max(1e-9),
            );
        }
        // The mobility claim: incremental repair must beat the full
        // re-prepare by a wide margin at n = 1024 with n/32 movers.
        if let Some(s) = mobility_samples.iter().find(|s| s.n == 1024) {
            println!(
                "n=1024 moving-uniform ({} movers/slot): repair {:.0}/s vs reprepare {:.0}/s ({:.2}x), exact {:.0}/s",
                s.movers,
                s.repair,
                s.reprepare,
                s.speedup(),
                s.exact
            );
        }
        // The city-scale claim: hybrid decides slots at n = 10⁵, where
        // the dense table refuses to build at all.
        let large_rate = |n: usize, schedule: Schedule, kernel: &str| {
            large_samples
                .iter()
                .find(|s| s.n == n && s.schedule == schedule && s.kernel == kernel)
                .map(|s| s.slots_per_sec)
                .unwrap_or(0.0)
        };
        println!(
            "n=10000 uniform: hybrid:{CITY_CUTOFF} {:.1}/s, hybrid+par {:.1}/s",
            large_rate(10_000, Schedule::Churn, "hybrid"),
            large_rate(10_000, Schedule::Churn, "hybrid+par"),
        );
        println!(
            "n=100000 uniform: dense table ({} bytes) over the {}-byte cap, refused; hybrid {:.1}/s, hybrid+par {:.1}/s",
            dense_table_bytes(100_000),
            max_table_bytes(),
            large_rate(100_000, Schedule::Churn, "hybrid"),
            large_rate(100_000, Schedule::Churn, "hybrid+par"),
        );
        println!(
            "turnover (every slot refreshes): n=10000 hybrid:{CITY_CUTOFF} {:.1}/s, hybrid+par {:.1}/s; n=100000 hybrid {:.1}/s",
            large_rate(10_000, Schedule::Turnover, "hybrid"),
            large_rate(10_000, Schedule::Turnover, "hybrid+par"),
            large_rate(100_000, Schedule::Turnover, "hybrid"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_reception.json");

    #[test]
    fn prev_rate_reads_the_committed_bench_file() {
        let committed = json::parse(COMMITTED).expect("the committed BENCH file parses");
        let rate = prev_rate(&committed, "lattice", 1024, "cached");
        assert!(rate.is_some_and(|r| r > 0.0), "{rate:?}");
        assert_eq!(prev_rate(&committed, "lattice", 1024, "warp"), None);
    }

    #[test]
    fn validator_accepts_the_committed_bench_file() {
        let backends = ["exact", "cached", "hybrid"];
        let backends: Vec<String> = backends.map(String::from).to_vec();
        validate_json(COMMITTED, &backends, (6, 3), 3, 7);
    }
}
