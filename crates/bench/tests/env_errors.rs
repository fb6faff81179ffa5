//! Malformed `SINR_*` variables through the real binaries: `sinr-lab`
//! and the legacy wrappers refuse them at start-up with a structured
//! error (exit 2) instead of panicking mid-run (exit 101), and
//! well-formed values pass.

use std::process::{Command, Output};

const SINR_LAB: &str = env!("CARGO_BIN_EXE_sinr_lab");

fn run(bin: &str, args: &[&str], var: &str, value: &str) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("SINR_BACKEND")
        .env_remove("SINR_MAX_TABLE_BYTES")
        .env(var, value)
        .output()
        .expect("run the binary")
}

fn assert_refused_by(bin: &str, args: &[&str], var: &str, value: &str, names: &str) {
    let out = run(bin, args, var, value);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
    assert!(
        stderr.starts_with(&format!("sinr-lab: {var}: ")) && stderr.contains(names),
        "{var}={value}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "the run must not start");
}

fn assert_refused(var: &str, value: &str, names: &str) {
    assert_refused_by(SINR_LAB, &["run", "smoke-sinr"], var, value, names);
}

#[test]
fn a_malformed_backend_is_refused_at_startup() {
    assert_refused("SINR_BACKEND", "warp", "\"warp\"");
    assert_refused("SINR_BACKEND", "cached:par:0", "nonzero");
    assert_refused("SINR_BACKEND", "grid:8", "\"grid\"");
    // A legacy wrapper takes the same start-up check and error path.
    let wrapper = env!("CARGO_BIN_EXE_fig1_progress");
    assert_refused_by(wrapper, &[], "SINR_BACKEND", "warp", "\"warp\"");
    let ok = run(SINR_LAB, &["list"], "SINR_BACKEND", "hybrid:16:par:2");
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn a_malformed_table_cap_is_refused_at_startup() {
    assert_refused("SINR_MAX_TABLE_BYTES", "lots", "\"lots\"");
    assert_refused("SINR_MAX_TABLE_BYTES", "-1", "\"-1\"");
    let ok = run(SINR_LAB, &["list"], "SINR_MAX_TABLE_BYTES", " 1048576 ");
    assert!(ok.status.success(), "{ok:?}");
}
