//! The `sinr-lab serve` entry point and the request-storm service
//! benchmark (`sinr-lab bench-service`, `BENCH_service.json`).
//!
//! The storm drives [`sinr_serve::Service`] **in-process** (requests
//! from a `Cursor`, responses into a `Vec`), so the measurement is the
//! service itself — queueing, the worker pool and the table cache —
//! with no pipe or process-spawn noise on the timed path.

use std::io::Cursor;
use std::time::Instant;

use sinr_scenario::json::{self, Json};
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
            let _ = once;
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
/// stream, the connection summary.
fn run_storm(config: ServeConfig, input: &str) -> Result<(ServeSummary, f64), String> {
    let service = Service::new(config);
    let mut out = Vec::new();
    let t0 = Instant::now();
    let summary = service
        .serve_connection(Cursor::new(input.as_bytes().to_vec()), &mut out)
        .map_err(|e| format!("storm connection: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if summary.errors > 0 {
        return Err(format!(
            "storm leg hit {} error records — inspect: {}",
            summary.errors,
            String::from_utf8_lossy(&out)
        ));
    }
    Ok((summary, secs))
}

/// Validation of the emitted `BENCH_service.json`: expected shape, a
/// positive cached-over-cold speedup, byte-identical replays.
///
/// # Panics
///
/// Panics with a description when the file does not meet the contract —
/// CI fails loudly instead of committing a rotten BENCH file.
fn validate_service_json(text: &str) {
    let doc =
        json::parse(text).unwrap_or_else(|e| panic!("BENCH_service json does not parse: {e}"));
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("BENCH_service json is missing {}", path.join(".")))
    };
    assert_eq!(at(&["bench"]).as_str(), Some("scenario_service"));
    assert!(
        at(&["workers"]).as_u64().is_some(),
        "workers is not a count"
    );
    assert_eq!(at(&["replay", "identical"]).as_bool(), Some(true));
    assert!(
        at(&["storm", "cache_speedup"])
            .as_f64()
            .is_some_and(|s| s > 0.0),
        "cache speedup must be positive"
    );
    for leg in ["cached", "no_cache"] {
        let hit_rate = at(&["storm", leg, "hit_rate"]).as_f64();
        assert!(
            hit_rate.is_some_and(|h| (0.0..=1.0).contains(&h)),
            "{leg} hit rate out of range: {hit_rate:?}"
        );
        assert!(at(&["storm", leg, "resident_bytes"]).as_u64().is_some());
    }
}

/// Measures the scenario service under a mixed-deployment request storm
/// and writes `BENCH_service.json`:
///
/// * **cached leg** — 32 run requests (4 deployments × 8 seeds,
///   n ≥ 512, 10 slots each) through the LRU table cache: 4 cold
///   preparations, 28 O(1) adoptions. Two replay probes ride along and
///   their byte-identity is asserted.
/// * **no-cache leg** — the identical stream with the cache disabled:
///   every request pays the O(n²) preparation. The pinned
///   `cache_speedup` is the ratio of sustained scenarios/sec
///   (target ≥ 3x in the full bench).
///
/// `--smoke` (the CI mode) shrinks the deployments to n ≈ 48 and
/// validates the JSON without claiming performance numbers. After
/// writing, the JSON is read back and validated so a refactor cannot
/// silently rot the BENCH file.
///
/// # Errors
///
/// A message if a storm leg fails, a replay mismatches, or the file
/// cannot be written.
pub fn bench_service(out: &str, smoke: bool) -> Result<(), String> {
    let workers = pool_threads(None, None);
    let (input, requests) = storm_input(smoke);
    let deployments = storm_deployments(smoke).len();

    // Warm-up pass (thread start-up and allocator off the timed path),
    // then the two timed legs.
    run_storm(ServeConfig::default(), &input)?;
    let (cached, cached_secs) = run_storm(ServeConfig::default(), &input)?;
    let (cold, cold_secs) = run_storm(
        ServeConfig {
            cache: false,
            ..ServeConfig::default()
        },
        &input,
    )?;

    for (leg, summary) in [("cached", &cached), ("no-cache", &cold)] {
        if summary.completed != requests as u64 || summary.replay_mismatches != 0 {
            return Err(format!(
                "{leg} leg: {}/{requests} requests completed, {} replay mismatches",
                summary.completed, summary.replay_mismatches
            ));
        }
    }
    let speedup = cached.scenarios_per_sec / cold.scenarios_per_sec.max(1e-9);
    println!(
        "service storm: {requests} requests over {deployments} deployments, {workers} workers"
    );
    println!(
        "  cached:   {:.2} scenarios/sec ({:.3}s, hit rate {:.3}, {} B resident)",
        cached.scenarios_per_sec,
        cached_secs,
        cached.cache.hit_rate(),
        cached.cache.resident_bytes,
    );
    println!(
        "  no-cache: {:.2} scenarios/sec ({:.3}s)",
        cold.scenarios_per_sec, cold_secs
    );
    println!("  cache speedup: {speedup:.2}x (target >= 3x in the full bench)");

    let leg = |summary: &ServeSummary, secs: f64| {
        Json::Obj(vec![
            ("seconds".into(), Json::Num(secs)),
            (
                "scenarios_per_sec".into(),
                Json::Num(summary.scenarios_per_sec),
            ),
            ("cells".into(), Json::int(summary.cells)),
            ("cache_hits".into(), Json::int(summary.cache.hits)),
            ("cache_misses".into(), Json::int(summary.cache.misses)),
            ("hit_rate".into(), Json::Num(summary.cache.hit_rate())),
            (
                "resident_bytes".into(),
                Json::int(summary.cache.resident_bytes),
            ),
        ])
    };
    let json = Json::Obj(vec![
        ("bench".into(), Json::str("scenario_service")),
        ("smoke".into(), Json::Bool(smoke)),
        ("workers".into(), Json::int(workers as u64)),
        (
            "storm".into(),
            Json::Obj(vec![
                ("deployments".into(), Json::int(deployments as u64)),
                ("requests".into(), Json::int(requests as u64)),
                ("slots_per_cell".into(), Json::int(STORM_SLOTS)),
                ("cached".into(), leg(&cached, cached_secs)),
                ("no_cache".into(), leg(&cold, cold_secs)),
                ("cache_speedup".into(), Json::Num(speedup)),
            ]),
        ),
        (
            "replay".into(),
            Json::Obj(vec![
                ("requests".into(), Json::int(cached.replays)),
                (
                    "identical".into(),
                    Json::Bool(cached.replay_mismatches == 0 && cold.replay_mismatches == 0),
                ),
            ]),
        ),
    ]);
    std::fs::write(out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    let written = std::fs::read_to_string(out).map_err(|e| format!("reading back {out}: {e}"))?;
    validate_service_json(&written);
    println!("wrote {out} (validated)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        validate_service_json(include_str!("../../../BENCH_service.json"));
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
