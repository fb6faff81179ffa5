//! Tiny-n smoke runs of every workload, untraced and traced: each run
//! is correct and emits every contracted metric with its unit, and the
//! names match `BENCHMARK.json`.

use perfbench::{Config, Scale, Workload, END_TO_END, PER_LAYER};
use sinr_serve::json::{self, Value};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let c = contract();
    assert_eq!(
        names_and_units(c.get("end_to_end").unwrap()),
        owned(END_TO_END)
    );
    assert_eq!(
        names_and_units(c.get("per_layer").unwrap()),
        owned(PER_LAYER)
    );
    for w in c.get("workloads").and_then(Value::as_arr).unwrap() {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        assert!(Workload::parse(name).is_ok(), "unknown workload {name}");
    }
}

fn smoke(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
    };
    let outcome = perfbench::run(&cfg).expect("smoke run completes");
    assert!(
        outcome.correct(),
        "{workload} trace={trace}: failed={} mismatches={:?}",
        outcome.failed,
        outcome.mismatches
    );
    let line = outcome.result_line(trace).expect("every metric measured");
    let result = json::parse(&line).expect("result line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object missing: {line}");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Value::Num(v)) if v.is_finite()),
                "{name} has no finite value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let want = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(emitted, owned(want), "{workload} trace={trace}");
    assert_eq!(outcome.spans.is_some(), trace);
}

#[test]
fn paper_mac_smoke() {
    smoke(Workload::PaperMac, false);
    smoke(Workload::PaperMac, true);
}

#[test]
fn city_hybrid_smoke() {
    smoke(Workload::CityHybrid, false);
    smoke(Workload::CityHybrid, true);
}

#[test]
fn serve_mixed_smoke() {
    smoke(Workload::ServeMixed, false);
    smoke(Workload::ServeMixed, true);
}

#[test]
fn refuses_env_that_changes_the_program() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "paper-mac-1024",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SINR_NO_SIMD", "1")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
