//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. The line
//! before it is the run's provenance. A traced run also writes its
//! spans as NDJSON (default `.bench_trace/WORKLOAD-seedN.ndjson`).
//!
//! `perfbench digests WORKLOAD FROM TO` prints the report digests of
//! seeds `FROM..TO`, the format of `digests.txt`.

use std::process::ExitCode;

use perfbench::{Config, Scale, Workload};

/// Environment variables that change the program being measured.
const REFUSED_ENV: [&str; 3] = ["SINR_BACKEND", "SINR_MAX_TABLE_BYTES", "SINR_NO_SIMD"];

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--trace-out PATH]\n       \
                     perfbench digests WORKLOAD FROM TO";

struct Args {
    cfg: Config,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Args {
        cfg: Config {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            scale: Scale::Full,
        },
        trace_out,
    })
}

/// CPU count and model, git revision, build profile, the workload
/// seed and every `SINR_*` variable, as one JSON line.
fn provenance(cfg: &Config) -> String {
    use sinr_scenario::Json;
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
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SINR_"))
        .collect();
    env.sort();
    Json::Obj(vec![(
        "provenance".into(),
        Json::Obj(vec![
            ("workload".into(), Json::str(cfg.workload.name())),
            ("seed".into(), Json::int(cfg.seed)),
            ("seconds".into(), Json::Num(cfg.seconds)),
            ("trace".into(), Json::Bool(cfg.trace)),
            ("cpus".into(), Json::int(cpus as u64)),
            ("cpu_model".into(), Json::str(model)),
            ("git_rev".into(), Json::str(rev)),
            (
                "profile".into(),
                Json::str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            (
                "sinr_env".into(),
                Json::Obj(env.into_iter().map(|(k, v)| (k, Json::str(v))).collect()),
            ),
        ]),
    )])
    .to_string()
}

fn digests(args: &[String]) -> Result<(), String> {
    let [w, from, to] = args else {
        return Err(USAGE.into());
    };
    let num = |s: &String| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    perfbench::pipeline::print_digests(Workload::parse(w)?, num(from)?..num(to)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("digests") {
        return match digests(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refused: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set: it changes the program being measured",
            refused.join(", ")
        );
        return ExitCode::from(3);
    }
    let cfg = args.cfg;
    println!("{}", provenance(&cfg));
    let outcome = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &outcome.spans {
        let path = args
            .trace_out
            .unwrap_or_else(|| format!(".bench_trace/{}-seed{}.ndjson", cfg.workload, cfg.seed));
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_ndjson(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {path}",
                tracer.spans().len()
            ),
            Err(e) => {
                eprintln!("perfbench: writing spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &outcome.mismatches {
        eprintln!("perfbench: check failed: {m}");
    }
    match outcome.result_line(cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
