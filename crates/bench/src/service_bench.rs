//! The `sinr-lab serve` entry point and the request-storm service
//! benchmark (the rows of `BENCH_service.json`).
//!
//! The storm drives [`sinr_serve::Service`] **in-process** (requests
//! from a `Cursor`, responses into a `Vec`), so the measurement is the
//! service itself — queueing, the worker pool and the table cache —
//! with no pipe or process-spawn noise on the timed path.

use std::io::Cursor;

use crate::harness::{self, field, legs, median, obj, positive, row, timed, Body};
use sinr_scenario::json::Json;
use sinr_scenario::pool_threads;
use sinr_serve::{install_sigterm_drain, ServeConfig, ServeSummary, Service};

/// `sinr-lab serve [--socket PATH] [--once] [--workers N] [--queue N]
/// [--cache-bytes N] [--replay-log N] [--no-cache]`.
///
/// Without `--socket`, serves exactly one connection on stdin/stdout.
///
/// # Errors
///
/// A usage message for bad flags, or the connection's I/O error.
pub fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut socket: Option<String> = None;
    let mut once = false;
    let mut rest = args.iter();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    };
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(rest.next().ok_or("--socket needs a path")?.clone());
            }
            "--once" => once = true,
            "--workers" => config.workers = number("--workers", rest.next())? as usize,
            "--queue" => config.queue_depth = number("--queue", rest.next())? as usize,
            "--cache-bytes" => config.cache_bytes = number("--cache-bytes", rest.next())?,
            "--replay-log" => config.replay_log = number("--replay-log", rest.next())? as usize,
            "--no-cache" => config.cache = false,
            other => return Err(format!("unknown argument {other:?} for serve")),
        }
    }
    if once && socket.is_none() {
        return Err("--once needs --socket PATH (stdin is always one connection)".into());
    }
    install_sigterm_drain();
    let service = Service::new(config);
    match socket {
        #[cfg(unix)]
        Some(path) => service
            .serve_socket(std::path::Path::new(&path), once)
            .map_err(|e| format!("serving on {path}: {e}")),
        #[cfg(not(unix))]
        Some(path) => Err(format!(
            "--socket {path}: Unix-domain sockets are not available on this platform"
        )),
        None => {
            let summary = service
                .serve_connection(std::io::stdin().lock(), std::io::stdout())
                .map_err(|e| format!("serving stdin: {e}"))?;
            eprintln!(
                "serve: {} completed, {} cancelled, {} errors, {} cells \
                 ({:.2} scenarios/sec, cache hit rate {:.2})",
                summary.completed,
                summary.cancelled,
                summary.errors,
                summary.cells,
                summary.scenarios_per_sec,
                summary.cache.hit_rate(),
            );
            Ok(())
        }
    }
}

/// The mixed deployment set of the storm: four distinct geometries
/// (two uniform seeds, a cluster field, a lattice), all n ≥ 512 in the
/// full bench so the O(n²) dense preparation dominates each cold
/// request.
fn storm_deployments(smoke: bool) -> Vec<&'static str> {
    if smoke {
        vec![
            "uniform:48:15:1",
            "uniform:48:15:2",
            "clusters:6:8:15:3:3",
            "lattice:7:7:2",
        ]
    } else {
        vec![
            "uniform:512:50:1",
            "uniform:512:50:2",
            "clusters:16:32:50:8:3",
            "lattice:23:23:2",
        ]
    }
}

const STORM_RUNS_PER_DEPLOYMENT: usize = 8;
const STORM_SLOTS: u64 = 10;

/// Builds the storm's NDJSON input: `runs_per × deployments` run
/// requests interleaved across deployments (worst case for a
/// single-entry cache, the natural case for an LRU), then two replay
/// probes whose byte-identity the service asserts.
fn storm_input(smoke: bool) -> (String, usize) {
    let deployments = storm_deployments(smoke);
    let mut lines = String::new();
    let mut id = 0u64;
    for seed in 1..=STORM_RUNS_PER_DEPLOYMENT as u64 {
        for deploy in &deployments {
            id += 1;
            let spec = format!(
                "name=storm-{id}\n\
                 deploy={deploy}\n\
                 sinr=alpha:3,beta:1.5,noise:1,eps:0.1,range:16\n\
                 backend=cached\n\
                 mac=sinr\n\
                 workload=repeat:stride:16\n\
                 stop=slots:{STORM_SLOTS}\n\
                 seed={seed}\n\
                 measure=none\n"
            );
            lines.push_str(
                &Json::Obj(vec![
                    ("id".into(), Json::int(id)),
                    ("run".into(), Json::str(spec)),
                ])
                .to_string(),
            );
            lines.push('\n');
        }
    }
    let requests = id as usize;
    lines.push_str(&format!("{{\"replay\":1}}\n{{\"replay\":{id}}}\n"));
    (lines, requests)
}

/// One timed leg of the storm: a fresh service, the whole request
/// stream, the connection summary and the leg's wall-clock seconds.
fn run_storm(config: ServeConfig, input: &str) -> Result<(ServeSummary, f64), String> {
    let service = Service::new(config);
    let mut out = Vec::new();
    let (served, secs) =
        timed(|| service.serve_connection(Cursor::new(input.as_bytes().to_vec()), &mut out));
    let summary = served.map_err(|e| format!("storm connection: {e}"))?;
    if summary.errors > 0 {
        return Err(format!(
            "storm leg hit {} error records — inspect: {}",
            summary.errors,
            String::from_utf8_lossy(&out)
        ));
    }
    Ok((summary, secs))
}

/// Measures the scenario service under a mixed-deployment request storm,
/// the body of `BENCH_service.json`:
///
/// * **cached leg** — 32 run requests (4 deployments × 8 seeds,
///   n ≥ 512, 10 slots each) through the LRU table cache: 4 cold
///   preparations, 28 O(1) adoptions. Two replay probes ride along and
///   must answer byte-identical.
/// * **no-cache leg** — the identical stream with the cache disabled:
///   every request pays the O(n²) preparation. `cache_speedup` is the
///   ratio of sustained scenarios/sec (target ≥ 3x in the full bench).
///
/// `--smoke` (the CI mode) shrinks the deployments to n ≈ 48.
///
/// # Errors
///
/// A message if a storm leg fails or completes fewer requests than it
/// was sent.
pub(crate) fn bench_service(smoke: bool) -> Result<Body, String> {
    let workers = pool_threads(None, None);
    let (input, requests) = storm_input(smoke);
    let no_cache = ServeConfig {
        cache: false,
        ..ServeConfig::default()
    };
    // Warm-up pass: thread start-up and the allocator off the timed path.
    run_storm(ServeConfig::default(), &input)?;
    let measured = harness::trials(smoke, |i| {
        let (cached, cold) = legs(
            i,
            || run_storm(ServeConfig::default(), &input),
            || run_storm(no_cache.clone(), &input),
        );
        let ((cached, cached_secs), (cold, cold_secs)) = (cached?, cold?);
        for (leg, summary) in [("cached", &cached), ("no-cache", &cold)] {
            if summary.completed != requests as u64 {
                return Err(format!(
                    "{leg} leg: {}/{requests} requests completed",
                    summary.completed
                ));
            }
        }
        let leg = |summary: &ServeSummary, secs: f64| {
            obj(vec![
                ("seconds", Json::Num(secs)),
                ("scenarios_per_sec", Json::Num(summary.scenarios_per_sec)),
                ("cells", Json::int(summary.cells)),
                ("cache_hits", Json::int(summary.cache.hits)),
                ("cache_misses", Json::int(summary.cache.misses)),
                ("hit_rate", Json::Num(summary.cache.hit_rate())),
                ("resident_bytes", Json::int(summary.cache.resident_bytes)),
            ])
        };
        Ok(obj(vec![
            (
                "storm",
                obj(vec![
                    ("cached", leg(&cached, cached_secs)),
                    ("no_cache", leg(&cold, cold_secs)),
                    (
                        "cache_speedup",
                        Json::Num(cached.scenarios_per_sec / cold.scenarios_per_sec),
                    ),
                ]),
            ),
            (
                "replay",
                obj(vec![
                    ("requests", Json::int(cached.replays)),
                    (
                        "identical",
                        Json::Bool(cached.replay_mismatches == 0 && cold.replay_mismatches == 0),
                    ),
                ]),
            ),
        ]))
    })?;
    let part = |key| measured.get(key).cloned().expect("every trial reports it");
    let storm = row(
        vec![
            (
                "deployments",
                Json::int(storm_deployments(smoke).len() as u64),
            ),
            ("requests", Json::int(requests as u64)),
            ("slots_per_cell", Json::int(STORM_SLOTS)),
        ],
        part("storm"),
    );
    let leg_rows: Vec<Json> = ["cached", "no_cache"]
        .map(|leg| {
            row(
                vec![("leg", Json::str(leg))],
                storm.get(leg).cloned().unwrap_or(Json::Null),
            )
        })
        .into();
    harness::print(
        &format!("service storm: {requests} requests, {workers} workers"),
        &leg_rows,
    );
    Ok(vec![
        ("workers", Json::int(workers as u64)),
        ("storm", storm),
        ("replay", part("replay")),
    ])
}

/// The relations of `BENCH_service.json`: both legs served at a
/// positive rate with a hit rate in [0, 1], the cached leg hit its
/// cache, the cache speedup is positive, and every replay probe
/// answered byte-identical.
///
/// # Errors
///
/// A message naming the first relation that fails.
pub(crate) fn check(doc: &Json) -> Result<(), String> {
    field(doc, &["workers"], Json::as_u64)?;
    if !field(doc, &["replay", "identical"], Json::as_bool)? {
        return Err("a replay probe was not byte-identical".into());
    }
    let storm = field(doc, &["storm"], Some)?;
    positive(storm, &["cache_speedup"])?;
    for leg in ["cached", "no_cache"] {
        let leg_row = field(storm, &[leg], Some)?;
        positive(leg_row, &["seconds", "scenarios_per_sec"])?;
        for key in ["cells", "cache_hits", "cache_misses", "resident_bytes"] {
            median(leg_row, key)?;
        }
        let lo = field(leg_row, &["hit_rate", "min"], Json::as_f64)?;
        let hi = field(leg_row, &["hit_rate", "max"], Json::as_f64)?;
        if lo < 0.0 || hi > 1.0 {
            return Err(format!("{leg} hit rate out of [0, 1]: [{lo}, {hi}]"));
        }
    }
    positive(field(storm, &["cached"], Some)?, &["cache_hits"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::{assert_checks, same};

    #[test]
    fn storm_input_covers_the_contracted_mix() {
        let (input, requests) = storm_input(false);
        assert_eq!(requests, 32, "4 deployments x 8 seeds");
        assert_eq!(storm_deployments(false).len(), 4);
        assert_eq!(input.lines().count(), 34, "32 runs + 2 replays");
        for deploy in storm_deployments(false) {
            assert!(input.contains(deploy), "storm is missing {deploy}");
        }
        // Full-bench deployments are all n >= 512.
        for n in ["512", "16:32", "23:23"] {
            assert!(input.contains(n));
        }
    }

    #[test]
    fn validator_accepts_the_committed_bench_file() {
        assert_checks(
            include_str!("../../../BENCH_service.json"),
            "scenario_service",
            &[
                (&["replay", "identical"], Json::Bool(false)),
                (&["storm", "cached", "hit_rate"], same(1.5)),
                (&["storm", "no_cache", "hit_rate"], same(-0.5)),
                (&["storm", "cache_speedup"], same(0.0)),
                (&["storm", "cached", "cache_hits"], same(0.0)),
                (&["storm", "cached", "scenarios_per_sec"], Json::Num(100.0)),
                (&["storm", "no_cache"], Json::Null),
                (&["workers"], Json::str("two")),
                (
                    &["storm", "cached", "cache_misses"],
                    obj(vec![
                        ("median", Json::Num(4.0)),
                        ("min", Json::Num(4.0)),
                        ("max", Json::Num(5.0)),
                    ]),
                ),
            ],
        );
    }

    #[test]
    fn serve_refuses_once_without_a_socket() {
        let err = serve_cmd(&["--once".to_string()]).expect_err("refused");
        assert!(err.contains("--once needs --socket"), "{err}");
    }

    #[test]
    fn smoke_storm_runs_end_to_end() {
        let (input, requests) = storm_input(true);
        let (summary, _) = run_storm(ServeConfig::default(), &input).expect("smoke storm serves");
        assert_eq!(summary.completed, requests as u64);
        assert_eq!(summary.replays, 2);
        assert_eq!(summary.replay_mismatches, 0);
        assert_eq!(
            summary.cache.misses, 4,
            "one cold preparation per deployment"
        );
        assert_eq!(
            summary.cache.hits as usize,
            requests - 4 + 2,
            "re-runs and replays adopt"
        );
    }
}
