//! Malformed `SINR_*` variables through the real binary: `sinr-lab`
//! refuses them at start-up, before any command, with a structured
//! error (exit 2) instead of panicking mid-run (exit 101), and
//! well-formed values pass.

use std::process::{Command, Output};

const SINR_LAB: &str = env!("CARGO_BIN_EXE_sinr_lab");

fn run(args: &[&str], var: &str, value: &str) -> Output {
    Command::new(SINR_LAB)
        .args(args)
        .env_remove("SINR_BACKEND")
        .env_remove("SINR_MAX_TABLE_BYTES")
        .env(var, value)
        .output()
        .expect("run the binary")
}

fn assert_refused_by(args: &[&str], var: &str, value: &str, names: &str) {
    let out = run(args, var, value);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
    assert!(
        stderr.starts_with(&format!("sinr-lab: {var}: ")) && stderr.contains(names),
        "{var}={value}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "the run must not start");
}

fn assert_refused(var: &str, value: &str, names: &str) {
    assert_refused_by(&["run", "smoke-sinr"], var, value, names);
}

#[test]
fn a_malformed_backend_is_refused_at_startup() {
    assert_refused("SINR_BACKEND", "warp", "\"warp\"");
    assert_refused("SINR_BACKEND", "cached:par:0", "nonzero");
    assert_refused("SINR_BACKEND", "grid:8", "\"grid\"");
    assert_refused("SINR_BACKEND", "hybrid:0.001", "at least 1");
    // `paper` takes the same start-up check before it runs a table (the
    // output path is never written when the check holds).
    let out = std::env::temp_dir().join(format!("sinr-lab-env-{}.json", std::process::id()));
    let out = out.to_str().expect("UTF-8 temp path");
    assert_refused_by(&["paper", out], "SINR_BACKEND", "warp", "\"warp\"");
    let ok = run(&["list"], "SINR_BACKEND", "hybrid:16:par:2");
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn a_malformed_table_cap_is_refused_at_startup() {
    assert_refused("SINR_MAX_TABLE_BYTES", "lots", "\"lots\"");
    assert_refused("SINR_MAX_TABLE_BYTES", "-1", "\"-1\"");
    let ok = run(&["list"], "SINR_MAX_TABLE_BYTES", " 1048576 ");
    assert!(ok.status.success(), "{ok:?}");
}
