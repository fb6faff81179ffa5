//! Reception-kernel throughput: slots/sec per backend, the rows of
//! `BENCH_reception.json`.
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
//! repair-over-reprepare speedup (target ≥5x at n = 1024).
//! Before timing, the repair kernel's decisions are checked against
//! exact for two full movement cycles, so the bench cannot quietly
//! measure a divergent kernel.
//!
//! A third, **city-scale** section (full runs only, not `--smoke`)
//! measures the sparse hybrid kernel on uniform deployments at
//! n = 10⁴ and n = 10⁵ — sizes where the dense n×n gain table is
//! respectively marginal (1.6 GB) and refused outright (160 GB, over
//! the `SINR_MAX_TABLE_BYTES` cap; the refusal is checked before
//! measuring). The hybrid rows run serial and threaded (`hybrid+par`)
//! on the churn schedule, and on the turnover schedule (serial only at
//! n = 10⁵).
//! Every city-scale row records its table build time (`prepare_ms`).
//! The hybrid rows run at an explicit near-field cutoff tuned for the
//! bench density (see [`CITY_CUTOFF`]).
//!
//! Each trial of a row builds a fresh backend, so every trial pays and
//! times its own `prepare`. `--smoke` (the CI mode) runs n = 64 only,
//! with short measurements. The file is written and checked by
//! [`crate::harness`]; [`check`] holds its relations.

use crate::harness::{self, field, legs, median, obj, positive, row, timed, Body};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_geom::{deploy, Point};
use sinr_phys::{dense_table_bytes, max_table_bytes, BackendSpec, GainTable, SinrParams};
use sinr_scenario::json::Json;

/// Slots in one churn cycle (and distinct transmitter sets).
const CYCLE: usize = 16;

/// Seed of the turnover schedule's sender sets.
const TURNOVER_SEED: u64 = 12;

/// The deployment sizes of the sample and moving-uniform rows.
fn sizes(smoke: bool) -> &'static [usize] {
    if smoke {
        &[64]
    } else {
        &[64, 256, 1024]
    }
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

/// One trial of `spec` over `schedule` on a backend that persists across
/// slots: a timed `prepare`, a window of whole cycles, then the
/// receptions of the schedule's first slot (the window ends on a cycle
/// boundary, so that slot follows the cycle's last, as in every cycle).
fn measure(
    sinr: &SinrParams,
    positions: &[Point],
    schedule: &[Vec<usize>],
    spec: BackendSpec,
    target_secs: f64,
) -> Result<Json, String> {
    let mut backend = spec.build();
    let (prepared, prepare_secs) = timed(|| backend.prepare(sinr, positions));
    prepared.map_err(|e| format!("{spec} prepare: {e}"))?;
    let mut out = vec![None; positions.len()];
    let slots_per_sec = harness::rate(target_secs, schedule.len(), || {
        for senders in schedule {
            backend.decide_slot(sinr, positions, senders, &mut out);
        }
    });
    backend.decide_slot(sinr, positions, &schedule[0], &mut out);
    Ok(obj(vec![
        ("slots_per_sec", Json::Num(slots_per_sec)),
        ("receptions", Json::int(out.iter().flatten().count() as u64)),
        ("prepare_ms", Json::Num(prepare_secs * 1e3)),
    ]))
}

/// Nodes moved per slot in the moving-uniform workload: `n / MOVERS_DIV`.
const MOVERS_DIV: usize = 32;

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

/// Slots per second of one mobility kernel over a window of whole
/// movement cycles.
fn measure_mobility_kernel(
    sinr: &SinrParams,
    home: &[Point],
    senders: &[usize],
    movers: usize,
    kernel: MobilityKernel,
    target_secs: f64,
) -> Result<f64, String> {
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
    backend
        .prepare(sinr, &positions)
        .map_err(|e| format!("{spec} prepare: {e}"))?;
    let mut slot = 0usize;
    Ok(harness::rate(target_secs, cohorts, || {
        for _ in 0..cohorts {
            mobility_step(&mut positions, home, &mut parked, slot, movers, &mut moved);
            match kernel {
                MobilityKernel::Repair => backend.update_positions(sinr, &positions, &moved),
                MobilityKernel::Reprepare => {
                    // Same size as the first prepare, which succeeded.
                    backend
                        .prepare(sinr, &positions)
                        .expect("re-prepare at an accepted size");
                }
                MobilityKernel::Exact => {}
            }
            backend.decide_slot(sinr, &positions, senders, &mut out);
            slot += 1;
        }
    }))
}

/// The repair kernel's self-check: decisions under incremental position
/// repair must equal fresh exact computation for two full movement
/// cycles — the bench must not publish numbers for a kernel that
/// stopped being exact.
fn check_mobility_exactness(
    sinr: &SinrParams,
    home: &[Point],
    senders: &[usize],
    movers: usize,
) -> Result<(), String> {
    let n = home.len();
    let cohorts = (n / movers).max(1);
    let mut cached = BackendSpec::cached().build();
    let mut exact = BackendSpec::exact().build();
    cached
        .prepare(sinr, home)
        .map_err(|e| format!("cached prepare: {e}"))?;
    let mut positions = home.to_vec();
    let mut parked = vec![false; n];
    let mut moved = Vec::new();
    let (mut got, mut want) = (vec![None; n], vec![None; n]);
    for slot in 0..2 * cohorts {
        mobility_step(&mut positions, home, &mut parked, slot, movers, &mut moved);
        cached.update_positions(sinr, &positions, &moved);
        cached.decide_slot(sinr, &positions, senders, &mut got);
        exact.decide_slot(sinr, &positions, senders, &mut want);
        if got != want {
            return Err(format!(
                "n={n}: mobility repair diverged from exact at slot {slot}"
            ));
        }
    }
    Ok(())
}

/// Runs the reception benchmark: the sample rows, the moving-uniform
/// rows and (full runs only) the city-scale rows, each printed as its
/// section completes.
///
/// # Errors
///
/// A message if a deployment cannot be generated, a backend refuses to
/// prepare, the repair kernel diverges from exact, or the dense table
/// fails to refuse a size past its cap.
pub(crate) fn run(smoke: bool) -> Result<Body, String> {
    let target_secs = if smoke { 0.01 } else { 0.2 };
    let sinr = SinrParams::builder().range(16.0).build();
    let sinr = sinr.expect("range 16 with default SINR parameters is valid");
    let uniform = |n: usize| {
        deploy::uniform(n, (n as f64).sqrt() * 2.2, 5).map_err(|e| format!("uniform n={n}: {e}"))
    };
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

    let mut samples = Vec::new();
    for &n in sizes(smoke) {
        let rows = (n as f64).sqrt().ceil() as usize;
        let lattice = deploy::lattice(rows, n.div_ceil(rows), 2.0)
            .map_err(|e| format!("lattice n={n}: {e}"))?;
        // The turnover rows run on the uniform deployment only.
        for (name, positions, schedules) in [
            ("lattice", lattice[..n].to_vec(), &[Schedule::Churn][..]),
            (
                "uniform",
                uniform(n)?,
                &[Schedule::Churn, Schedule::Turnover],
            ),
        ] {
            for &schedule in schedules {
                let sets = schedule.sets(n);
                for spec in backends {
                    let measured = harness::trials(smoke, |_| {
                        measure(&sinr, &positions, &sets, spec, target_secs)
                    })?;
                    samples.push(row(
                        vec![
                            ("deployment", Json::str(name)),
                            ("n", Json::int(n as u64)),
                            ("schedule", Json::str(schedule.name())),
                            ("backend", Json::str(spec.build().name())),
                        ],
                        measured,
                    ));
                }
            }
        }
    }
    harness::print(
        "reception kernel throughput (churn: ≈ n/2 transmitters, ~n/16 change per slot; turnover: ≈ n/12, every slot refreshes)",
        &samples,
    );

    // The moving-uniform workload: ~n/32 movers per slot, fixed senders,
    // three kernels (see module docs).
    let mut mobility = Vec::new();
    for &n in sizes(smoke) {
        let home = uniform(n)?;
        let senders: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let movers = (n / MOVERS_DIV).max(1);
        check_mobility_exactness(&sinr, &home, &senders, movers)?;
        let rate =
            |kernel| measure_mobility_kernel(&sinr, &home, &senders, movers, kernel, target_secs);
        let measured = harness::trials(smoke, |i| {
            let (repair, reprepare) = legs(
                i,
                || rate(MobilityKernel::Repair),
                || rate(MobilityKernel::Reprepare),
            );
            let (repair, reprepare) = (repair?, reprepare?);
            Ok(obj(vec![
                ("repair_slots_per_sec", Json::Num(repair)),
                ("reprepare_slots_per_sec", Json::Num(reprepare)),
                (
                    "exact_slots_per_sec",
                    Json::Num(rate(MobilityKernel::Exact)?),
                ),
                ("repair_speedup", Json::Num(repair / reprepare)),
            ]))
        })?;
        mobility.push(row(
            vec![
                ("deployment", Json::str("moving-uniform")),
                ("n", Json::int(n as u64)),
                ("schedule", Json::str("fixed")),
                ("movers", Json::int(movers as u64)),
            ],
            measured,
        ));
    }
    harness::print(
        "moving-uniform: cached incremental repair vs full re-prepare (n/32 movers per slot)",
        &mobility,
    );

    // City-scale rows: the sparse hybrid kernel where the dense table
    // stops being an option (see the module docs). Skipped in smoke
    // mode — deployment generation alone is seconds at n = 10⁵.
    let mut large = Vec::new();
    if !smoke {
        let hybrid = BackendSpec::hybrid(CITY_CUTOFF);
        let par = hybrid.with_threads(threads);
        let city_rows = [
            (10_000usize, Schedule::Churn, hybrid),
            (10_000, Schedule::Churn, par),
            (10_000, Schedule::Turnover, hybrid),
            (10_000, Schedule::Turnover, par),
            (100_000, Schedule::Churn, hybrid),
            (100_000, Schedule::Churn, par),
            (100_000, Schedule::Turnover, hybrid),
        ];
        for n in [10_000usize, 100_000] {
            let positions = uniform(n)?;
            // Past the byte cap the dense table must refuse with a
            // structured error (not OOM) — the refusal the hybrid
            // kernel exists to answer.
            if dense_table_bytes(n) > max_table_bytes()
                && GainTable::try_build(&sinr, &positions, threads).is_ok()
            {
                return Err(format!("the dense table did not refuse n={n}"));
            }
            for &(_, schedule, spec) in city_rows.iter().filter(|r| r.0 == n) {
                let sets = schedule.sets(n);
                let measured = harness::trials(smoke, |_| {
                    measure(&sinr, &positions, &sets, spec, target_secs)
                })?;
                large.push(row(
                    vec![
                        ("deployment", Json::str("uniform-large")),
                        ("n", Json::int(n as u64)),
                        ("schedule", Json::str(schedule.name())),
                        ("kernel", Json::str(spec.build().name())),
                        ("cutoff", Json::Num(CITY_CUTOFF)),
                        ("dense_table_bytes", Json::int(dense_table_bytes(n))),
                    ],
                    measured,
                ));
            }
        }
        harness::print(
            "city-scale uniform: sparse hybrid kernel (churn: ~n/2 transmitters, ~n/16 change; turnover: ~n/12, every slot refreshes)",
            &large,
        );
    }

    Ok(vec![
        ("unit", Json::str("slots_per_sec")),
        ("threads", Json::int(threads as u64)),
        ("churn_cycle", Json::int(CYCLE as u64)),
        ("movers_div", Json::int(MOVERS_DIV as u64)),
        ("dense_table_cap", Json::int(max_table_bytes())),
        ("samples", Json::Arr(samples)),
        ("mobility_samples", Json::Arr(mobility)),
        ("large_samples", Json::Arr(large)),
    ])
}

/// The relations of `BENCH_reception.json`:
/// * the sample rows are exactly one per backend (`exact`, `cached`,
///   `hybrid`) per (deployment, n, schedule) — lattice and uniform
///   churn plus uniform turnover at each size — and no row names the
///   retired `grid` model;
/// * per group, `cached` receives exactly what `exact` receives and
///   `hybrid` never more;
/// * every rate and every table kernel's `prepare_ms` is positive;
/// * one moving-uniform row per size, with positive rates and speedup;
/// * the 7 city-scale rows of a full run, where `hybrid` and
///   `hybrid+par` receive the same on every (n, schedule);
/// * every row names its schedule.
///
/// # Errors
///
/// A message naming the first relation that fails.
pub(crate) fn check(doc: &Json) -> Result<(), String> {
    let smoke = field(doc, &["smoke"], Json::as_bool)?;
    if field(doc, &["unit"], Json::as_str)? != "slots_per_sec" {
        return Err("unit is not slots_per_sec".into());
    }
    field(doc, &["threads"], Json::as_u64)?;
    field(doc, &["dense_table_cap"], Json::as_u64)?;
    let samples = field(doc, &["samples"], Json::as_arr)?;
    let sizes = sizes(smoke).len();
    if samples.len() != 9 * sizes {
        return Err(format!(
            "expected {} sample rows (3 backends x 3 configurations x {sizes} sizes), found {}",
            9 * sizes,
            samples.len()
        ));
    }
    // The sample rows per (deployment, n, schedule), in file order.
    let mut groups: Vec<(String, Vec<(&str, f64)>)> = Vec::new();
    for r in samples {
        let backend = field(r, &["backend"], Json::as_str)?;
        positive(r, &["slots_per_sec"])?;
        if backend != "exact" {
            positive(r, &["prepare_ms"])?;
        }
        let [deployment, schedule] =
            ["deployment", "schedule"].map(|k| field(r, &[k], Json::as_str));
        let key = format!(
            "{} n={} {}",
            deployment?,
            field(r, &["n"], Json::as_u64)?,
            schedule?
        );
        let entry = (backend, median(r, "receptions")?);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rx)) => rx.push(entry),
            None => groups.push((key, vec![entry])),
        }
    }
    if groups
        .iter()
        .filter(|(k, _)| k.ends_with(" turnover"))
        .count()
        != sizes
    {
        return Err(format!(
            "expected turnover rows at each of the {sizes} sizes"
        ));
    }
    for (key, rx) in &groups {
        let [("exact", exact), ("cached", cached), ("hybrid", hybrid)] = rx[..] else {
            return Err(format!(
                "{key}: expected one exact, cached and hybrid row each, found {rx:?}"
            ));
        };
        if cached != exact || hybrid > exact {
            return Err(format!(
                "{key}: receptions must satisfy cached == exact and hybrid <= exact: {rx:?}"
            ));
        }
    }
    let mobility = field(doc, &["mobility_samples"], Json::as_arr)?;
    if mobility.len() != sizes {
        return Err(format!("expected {sizes} moving-uniform rows"));
    }
    for r in mobility {
        field(r, &["schedule"], Json::as_str)?;
        positive(
            r,
            &[
                "repair_slots_per_sec",
                "reprepare_slots_per_sec",
                "exact_slots_per_sec",
                "repair_speedup",
            ],
        )?;
    }
    let large = field(doc, &["large_samples"], Json::as_arr)?;
    let want = if smoke { 0 } else { 7 };
    if large.len() != want {
        return Err(format!(
            "expected {want} city-scale rows, found {}",
            large.len()
        ));
    }
    for r in large {
        field(r, &["schedule"], Json::as_str)?;
        positive(r, &["slots_per_sec", "prepare_ms"])?;
        if field(r, &["kernel"], Json::as_str)? == "hybrid+par" {
            let serial = large
                .iter()
                .find(|s| {
                    s.get("kernel").and_then(Json::as_str) == Some("hybrid")
                        && s.get("n") == r.get("n")
                        && s.get("schedule") == r.get("schedule")
                })
                .ok_or("a hybrid+par row has no serial hybrid row")?;
            if median(serial, "receptions")? != median(r, "receptions")? {
                return Err("hybrid+par must receive exactly what hybrid receives".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::{assert_checks, same};

    const COMMITTED: &str = include_str!("../../../BENCH_reception.json");

    #[test]
    fn validator_accepts_the_committed_bench_file() {
        // Row 3 is uniform n=64 churn `exact`, rows 4 and 5 its `cached`
        // and `hybrid` rows; large row 1 is `hybrid+par` at n = 10⁴.
        let doc = sinr_scenario::json::parse(COMMITTED).expect("parses");
        let samples = field(&doc, &["samples"], Json::as_arr).expect("samples");
        let exact = median(&samples[3], "receptions").expect("receptions");
        assert_checks(
            COMMITTED,
            "reception",
            &[
                (&["samples", "4", "receptions"], same(exact + 1.0)),
                (&["samples", "5", "receptions"], same(exact + 1.0)),
                (&["samples", "4", "backend"], Json::str("grid")),
                (&["samples", "4", "prepare_ms"], same(0.0)),
                (&["samples", "0", "slots_per_sec"], same(0.0)),
                (&["samples", "8", "schedule"], Json::str("churn")),
                (&["samples"], Json::Arr(vec![])),
                (&["mobility_samples", "2", "repair_speedup"], same(0.0)),
                (&["large_samples", "1", "receptions"], same(1.0)),
                (&["large_samples"], Json::Arr(vec![])),
                (&["stamp", "trials"], Json::int(3)),
                (&["smoke"], Json::Bool(true)),
                (
                    &["samples", "3", "receptions"],
                    obj(vec![
                        ("median", Json::Num(exact)),
                        ("min", Json::Num(exact)),
                        ("max", Json::Num(exact + 1.0)),
                    ]),
                ),
            ],
        );
    }
}
