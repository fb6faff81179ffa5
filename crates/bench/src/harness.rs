//! The one bench harness behind `sinr-lab bench [DIR] [--smoke]`, which
//! writes `BENCH_reception.json`, `BENCH_scenario.json` and
//! `BENCH_service.json` into `DIR`. It has three parts:
//!
//! * a **trial runner** ([`trials`]): every timed cell and every ratio
//!   is measured in [`TRIALS`] independent trials ([`SMOKE_TRIALS`]
//!   under `--smoke`) and recorded as a *spread*,
//!   `{"median":…,"min":…,"max":…}`. Counts that do not depend on time
//!   (receptions, cells, cache hits) are spreads too, so the checker can
//!   see that every trial agreed on them. Two-leg ratios alternate which
//!   leg runs first ([`legs`]);
//! * one **stamp** per file ([`stamp`]): CPU count and model, git
//!   revision, build profile, the `SINR_*` environment and the trial
//!   count;
//! * one **write-then-check** path: each file is written, read back,
//!   parsed with [`sinr_scenario::json`] and checked — the shared checks
//!   (stamp, well-formed spreads, counts equal in every trial) and then
//!   the file's own relations, such as `cached` receiving exactly what
//!   `exact` receives. A failed check is an error, which `sinr-lab`
//!   turns into exit 2.
//!
//! CI runs the smoke mode and checks the relations, never the rates.

use std::path::Path;
use std::time::Instant;

use sinr_scenario::json::{self, Json};

use crate::common::Table;
use crate::{lab, reception_bench, service_bench};

/// Trials per timed cell in a full run.
pub const TRIALS: usize = 5;

/// Trials per timed cell under `--smoke`.
pub const SMOKE_TRIALS: usize = 2;

/// The fields of one BENCH file below its `bench`, `smoke` and `stamp`
/// header.
pub(crate) type Body = Vec<(&'static str, Json)>;

/// One BENCH file: its name, the `bench` tag it carries, the
/// measurement that fills it and the relations its rows must satisfy.
pub(crate) struct BenchFile {
    pub file: &'static str,
    pub bench: &'static str,
    pub measure: fn(bool) -> Result<Body, String>,
    pub relations: fn(&Json) -> Result<(), String>,
}

/// The three files, in the order `sinr-lab bench` writes them.
pub(crate) const FILES: [BenchFile; 3] = [
    BenchFile {
        file: "BENCH_reception.json",
        bench: "reception",
        measure: reception_bench::run,
        relations: reception_bench::check,
    },
    BenchFile {
        file: "BENCH_scenario.json",
        bench: "scenario_sweep",
        measure: lab::bench_scenario,
        relations: lab::check_scenario,
    },
    BenchFile {
        file: "BENCH_service.json",
        bench: "scenario_service",
        measure: service_bench::bench_service,
        relations: service_bench::check,
    },
];

/// Measures, writes and checks every BENCH file into `dir`.
///
/// # Errors
///
/// A message naming the file when a measurement fails, a file cannot be
/// written or read back, or a written file fails its checks.
pub fn run(dir: &Path, smoke: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for file in &FILES {
        let path = dir.join(file.file);
        let mut doc = vec![
            ("bench", Json::str(file.bench)),
            ("smoke", Json::Bool(smoke)),
            ("stamp", stamp(smoke)),
        ];
        doc.extend((file.measure)(smoke)?);
        let path_err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        std::fs::write(&path, format!("{}\n", obj(doc))).map_err(|e| path_err(&e))?;
        let text = std::fs::read_to_string(&path).map_err(|e| path_err(&e))?;
        let written = json::parse(&text).map_err(|e| path_err(&e))?;
        check(&written, file).map_err(|e| path_err(&e))?;
        println!("wrote {} (checked)\n", path.display());
    }
    Ok(())
}

/// The trial count of a run.
pub fn trial_count(smoke: bool) -> usize {
    if smoke {
        SMOKE_TRIALS
    } else {
        TRIALS
    }
}

/// Runs `trial` [`trial_count`] times, passing the trial index, and
/// folds the trials' outputs into one value of the same shape: each
/// number becomes the spread of its values across trials, each boolean
/// their conjunction, and objects fold field by field.
///
/// # Errors
///
/// The first trial's error.
pub fn trials(
    smoke: bool,
    trial: impl FnMut(usize) -> Result<Json, String>,
) -> Result<Json, String> {
    let runs = (0..trial_count(smoke))
        .map(trial)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(fold(&runs.iter().collect::<Vec<_>>()))
}

fn fold(values: &[&Json]) -> Json {
    match values[0] {
        Json::Num(_) => spread(values.iter().filter_map(|v| v.as_f64())),
        Json::Bool(_) => Json::Bool(values.iter().all(|v| v.as_bool() == Some(true))),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(key, _)| {
                    let column: Vec<&Json> = values.iter().filter_map(|v| v.get(key)).collect();
                    (key.clone(), fold(&column))
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `{"median","min","max"}` of `values` (the median of an even count is
/// the mean of the middle two).
pub fn spread(values: impl Iterator<Item = f64>) -> Json {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    obj(vec![
        ("median", Json::Num(median)),
        ("min", Json::Num(v[0])),
        ("max", Json::Num(v[v.len() - 1])),
    ])
}

/// Runs both legs of trial `trial` of a two-leg ratio: `a` first on
/// even trials and `b` first on odd ones, so neither leg always runs
/// on the caches and allocator state the other left behind.
pub fn legs<A, B>(trial: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if trial.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// `f`'s result and its wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Operations per second of `unit`, one call of which performs `ops`
/// operations: the first call warms up and sizes the window, then whole
/// calls are timed for about `target_secs` (at least one call).
pub fn rate(target_secs: f64, ops: usize, mut unit: impl FnMut()) -> f64 {
    let ((), once) = timed(&mut unit);
    let calls = ((target_secs / once.max(1e-7)) as usize).clamp(1, 20_000);
    let ((), secs) = timed(|| (0..calls).for_each(|_| unit()));
    (calls * ops) as f64 / secs
}

/// A JSON object from `&str` keys.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    row(fields, Json::Null)
}

/// A row: the `fixed` configuration fields followed by the fields of
/// the `measured` object.
pub fn row(fixed: Vec<(&str, Json)>, measured: Json) -> Json {
    let mut fields: Vec<(String, Json)> = fixed.into_iter().map(|(k, v)| (k.into(), v)).collect();
    if let Json::Obj(more) = measured {
        fields.extend(more);
    }
    Json::Obj(fields)
}

/// The file's provenance: CPU count and model, git revision (`-dirty`
/// when tracked files differ from it), build profile, every `SINR_*`
/// variable, and the trial count.
pub fn stamp(smoke: bool) -> Json {
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
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(rev), Some(status)) if !status.is_empty() => format!("{rev}-dirty"),
        (Some(rev), _) => rev,
        (None, _) => "unknown".into(),
    };
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SINR_"))
        .map(|(k, v)| (k, Json::str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    obj(vec![
        ("cpus", Json::int(cpus as u64)),
        ("cpu_model", Json::str(model)),
        ("git_rev", Json::str(rev)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("sinr_env", Json::Obj(env)),
        ("trials", Json::int(trial_count(smoke) as u64)),
    ])
}

/// Keys whose spreads are counts: every trial must agree on them.
const COUNTS: [&str; 8] = [
    "receptions",
    "cells_completed",
    "cells",
    "cache_hits",
    "cache_misses",
    "resident_bytes",
    "reexecuted",
    "requests",
];

/// The checks of one written file: its `bench` tag, the stamp and the
/// trial count its mode implies, well-formed spreads with counts equal
/// in every trial, then the file's own relations.
///
/// # Errors
///
/// A message naming the first check that fails.
pub(crate) fn check(doc: &Json, file: &BenchFile) -> Result<(), String> {
    if field(doc, &["bench"], Json::as_str)? != file.bench {
        return Err(format!("bench tag is not {:?}", file.bench));
    }
    let smoke = field(doc, &["smoke"], Json::as_bool)?;
    for key in ["cpu_model", "git_rev", "profile"] {
        field(doc, &["stamp", key], Json::as_str)?;
    }
    field(doc, &["stamp", "cpus"], Json::as_u64)?;
    field(doc, &["stamp", "sinr_env"], Some)?;
    if field(doc, &["stamp", "trials"], Json::as_u64)? != trial_count(smoke) as u64 {
        return Err(format!(
            "stamp.trials is not {} for smoke={smoke}",
            trial_count(smoke)
        ));
    }
    check_spreads("", doc)?;
    (file.relations)(doc)
}

fn check_spreads(key: &str, v: &Json) -> Result<(), String> {
    match v {
        Json::Obj(_) if v.get("median").is_some() => {
            let [Some(median), Some(min), Some(max)] =
                ["median", "min", "max"].map(|k| v.get(k).and_then(Json::as_f64))
            else {
                return Err(format!("{key}: a spread needs numeric median, min and max"));
            };
            if !(min <= median && median <= max) {
                return Err(format!("{key}: spread {v} is out of order"));
            }
            if COUNTS.contains(&key) && min != max {
                return Err(format!("{key}: a count differs between trials ({v})"));
            }
            Ok(())
        }
        Json::Obj(fields) => fields.iter().try_for_each(|(k, v)| check_spreads(k, v)),
        Json::Arr(items) => items.iter().try_for_each(|v| check_spreads(key, v)),
        _ => Ok(()),
    }
}

/// The value at `path` (object keys) of `doc`, read by `read` — for
/// example [`Json::as_u64`], or `Some` for the value itself.
///
/// # Errors
///
/// A message naming the path when it is missing or `read` refuses it.
pub fn field<'a, T>(
    doc: &'a Json,
    path: &[&str],
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(read)
        .ok_or_else(|| format!("{} is missing or has the wrong type", path.join(".")))
}

/// The median of the spread at `key` of `row`.
///
/// # Errors
///
/// A message when it is missing or not a spread.
pub fn median(row: &Json, key: &str) -> Result<f64, String> {
    field(row, &[key, "median"], Json::as_f64)
}

/// Checks that each of `keys` in `row` is a spread with a positive
/// median.
///
/// # Errors
///
/// A message naming the first key that is not.
pub fn positive(row: &Json, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        let m = median(row, key)?;
        if m.is_nan() || m <= 0.0 {
            return Err(format!("{key} must be positive, median is {m}"));
        }
    }
    Ok(())
}

/// Prints `rows` (objects with the same keys) as one table: a spread
/// shows its median and, when the trials differ, `[min, max]`.
pub fn print(title: &str, rows: &[Json]) {
    let Some(Json::Obj(first)) = rows.first() else {
        return;
    };
    let headers: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let mut table = Table::new(title, &headers);
    for row in rows {
        table.row(
            headers
                .iter()
                .map(|h| row.get(h).map_or_else(String::new, cell))
                .collect(),
        );
    }
    table.print();
}

fn cell(v: &Json) -> String {
    let num = |x: f64| {
        let digits = if x.fract() == 0.0 {
            0
        } else {
            (3 - x.abs().log10().floor() as i64).max(0) as usize
        };
        format!("{x:.digits$}")
    };
    let spread = ["median", "min", "max"].map(|k| v.get(k).and_then(Json::as_f64));
    match (v, spread) {
        (_, [Some(m), Some(lo), Some(hi)]) if lo != hi => {
            format!("{} [{}, {}]", num(m), num(lo), num(hi))
        }
        (_, [Some(m), ..]) | (&Json::Num(m), _) => num(m),
        (Json::Str(s), _) => s.clone(),
        _ => v.to_string(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `doc` with the value at `path` (object keys, or array indices)
    /// replaced by `value`.
    pub(crate) fn perturbed(doc: &Json, path: &[&str], value: Json) -> Json {
        let mut doc = doc.clone();
        let mut v = &mut doc;
        for key in path {
            v = match v {
                Json::Arr(items) => &mut items[key.parse::<usize>().expect("array index")],
                Json::Obj(fields) => {
                    &mut fields
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no field {key}"))
                        .1
                }
                other => panic!("cannot descend into {other}"),
            };
        }
        *v = value;
        doc
    }

    /// The committed file `text` passes `file`'s checks, and each
    /// one-cell perturbation in `cases` is rejected with an error.
    pub(crate) fn assert_checks(text: &str, bench: &str, cases: &[(&[&str], Json)]) {
        let file = FILES
            .iter()
            .find(|f| f.bench == bench)
            .expect("a BENCH file");
        let doc = json::parse(text).expect("the committed file parses");
        check(&doc, file).expect("the committed file passes its checks");
        for (path, value) in cases {
            let bad = perturbed(&doc, path, value.clone());
            assert!(check(&bad, file).is_err(), "{path:?} = {value} passed");
        }
    }

    /// A spread whose trials all read `x`.
    pub(crate) fn same(x: f64) -> Json {
        spread([x, x].into_iter())
    }

    #[test]
    fn trials_fold_numbers_into_spreads_and_flags_into_conjunctions() {
        let folded = trials(false, |i| {
            Ok(obj(vec![
                ("rate", Json::Num([5.0, 1.0, 4.0, 2.0, 3.0][i])),
                ("ok", Json::Bool(i != 3)),
                ("leg", obj(vec![("cells", Json::int(7))])),
                ("name", Json::str("fixed")),
            ]))
        })
        .unwrap();
        assert_eq!(
            folded.to_string(),
            r#"{"rate":{"median":3,"min":1,"max":5},"ok":false,"leg":{"cells":{"median":7,"min":7,"max":7}},"name":"fixed"}"#
        );
        assert_eq!(
            spread([1.0, 4.0].into_iter()),
            spread([4.0, 1.0].into_iter())
        );
        assert_eq!(
            median(&obj(vec![("x", spread([1.0, 4.0].into_iter()))]), "x"),
            Ok(2.5)
        );
    }

    #[test]
    fn legs_alternate_which_runs_first() {
        let order = |trial| {
            let log = std::cell::RefCell::new(Vec::new());
            legs(
                trial,
                || log.borrow_mut().push('a'),
                || log.borrow_mut().push('b'),
            );
            log.into_inner()
        };
        assert_eq!((order(0), order(1)), (vec!['a', 'b'], vec!['b', 'a']));
    }

    #[test]
    fn spreads_and_counts_are_checked_everywhere() {
        let counts = |lo: f64, hi: f64| {
            obj(vec![(
                "rows",
                Json::Arr(vec![obj(vec![(
                    "receptions",
                    obj(vec![
                        ("median", Json::Num(lo)),
                        ("min", Json::Num(lo)),
                        ("max", Json::Num(hi)),
                    ]),
                )])]),
            )])
        };
        assert!(check_spreads("", &counts(3.0, 3.0)).is_ok());
        assert!(check_spreads("", &counts(3.0, 4.0)).is_err());
        assert!(check_spreads("", &counts(4.0, 3.0)).is_err());
    }
}
