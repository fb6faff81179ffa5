//! The shared-preparation equivalence contract, differentially tested.
//!
//! A sweep executed with shared preparation (one deployment
//! realization, graph induction and gain-table build per cache key,
//! `Arc`-shared across cells) must produce **byte-identical JSON
//! reports** to the same sweep executed with per-cell preparation —
//! across exact, cached and hybrid
//! backends, physical MAC choices, dynamics schedules and mobility.
//! This is the acceptance gate of shared preparation: if sharing ever
//! changed a single byte of a report, it would be an unsoundness in the
//! `GainTable`/`SlotState` split (a shared table diverging from what a
//! cell would have built, or copy-on-write failing to isolate a moving
//! cell), not a tolerable approximation.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sinr_scenario::{
    report_for, DeploymentSpec, MacSpec, ScenarioSet, ScenarioSpec, Shard, SourceSet, StopSpec,
    WorkloadSpec,
};

/// Runs the set both ways and asserts per-cell byte identity of the
/// JSON reports.
fn assert_shared_equals_percell(set: &ScenarioSet, label: &str) {
    let shared = set
        .run(2)
        .unwrap_or_else(|e| panic!("{label}: shared run failed: {e}"));
    let percell = set
        .clone()
        .without_shared_prepare()
        .run(2)
        .unwrap_or_else(|e| panic!("{label}: per-cell run failed: {e}"));
    assert_eq!(shared.len(), percell.len(), "{label}: cell count");
    for (s, p) in shared.iter().zip(&percell) {
        assert_eq!(
            report_for(s).to_json(),
            report_for(p).to_json(),
            "{label}: cell {} diverged",
            s.ctx.spec.name
        );
    }
}

/// Runs the set with shared preparation and returns its cache's
/// (misses, hits): one miss per shared key, one hit per adopting cell.
fn cache_counts(set: &ScenarioSet) -> (u64, u64) {
    let cells = set.cells().unwrap();
    let summary = set
        .run_sharded(&cells, 2, Shard::full(), &BTreeSet::new(), &|_, _| Ok(()))
        .unwrap();
    (summary.cache.misses, summary.cache.hits)
}

fn deploy_strategy() -> impl Strategy<Value = String> {
    (0u8..3, 12usize..20, 0u64..5).prop_map(|(variant, n, seed)| match variant {
        0 => "lattice:4:4:2".to_string(),
        1 => format!("uniform:{n}:24:{seed}"),
        _ => format!("connected:uniform:{n}:20:{seed}"),
    })
}

fn mac_strategy() -> impl Strategy<Value = String> {
    (0u8..2).prop_map(|variant| match variant {
        0 => "sinr".to_string(),
        _ => "decay:16:0.125:4".to_string(),
    })
}

fn mobility_strategy() -> impl Strategy<Value = Option<String>> {
    (0u8..3, 1u64..40).prop_map(|(variant, seed)| match variant {
        0 => None,
        1 => Some(format!("drift:0.2:{seed}")),
        _ => Some(format!("waypoint:0.3:2:{seed}")),
    })
}

/// A dynamics event compatible with every generated MAC (jam requires
/// mac=sinr, so it is gated at assembly time).
fn dyn_strategy() -> impl Strategy<Value = Option<(bool, String)>> {
    (0u8..3, 1usize..12, 10u64..80).prop_map(|(variant, node, at)| match variant {
        0 => None,
        1 => Some((true, format!("jam:{node}:0.8@{at}"))),
        _ => Some((false, format!("teleport:{node}:{}:60@{at}", 40 + 2 * node))),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_prepare_reports_are_byte_identical(
        deploy in deploy_strategy(),
        mac in mac_strategy(),
        backend_kind in 0u8..3,
        mobility in mobility_strategy(),
        dynamics in dyn_strategy(),
        axis_kind in 0u8..3,
        slots in 80u64..200,
        seed in 0u64..1000,
    ) {
        let mut spec = ScenarioSpec::new(
            "prop-sweep",
            DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
                rows: 4,
                cols: 4,
                spacing: 2.0,
            }),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(slots),
        );
        spec.set("sinr", "range:8").unwrap();
        spec.set("deploy", &deploy).unwrap();
        spec.set("mac", &mac).unwrap();
        spec.set(
            "backend",
            match backend_kind {
                0 => "exact",
                1 => "cached",
                _ => "hybrid",
            },
        )
        .unwrap();
        spec.set("seed", &seed.to_string()).unwrap();
        if deploy.starts_with("connected:") {
            spec.set("seed", "deploy").unwrap();
        }
        if let Some(m) = &mobility {
            spec.set("mobility", m).unwrap();
        }
        if let Some((needs_sinr_mac, ev)) = &dynamics {
            if !*needs_sinr_mac || mac == "sinr" {
                spec.set("dyn", ev).unwrap();
            }
        }
        // Guard: the generated spec must build at all before comparing
        // the two executors (e.g. a teleport target could violate the
        // near-field bound mid-run; both executors must then fail the
        // same way, which assert_shared_equals_percell's unwraps would
        // obscure — so skip those cases).
        if spec.build().is_err() || spec.clone().run().is_err() {
            let set = ScenarioSet::new(spec).axis("seed", vec!["1".into()]);
            prop_assert_eq!(
                set.run(2).is_err(),
                set.clone().without_shared_prepare().run(2).is_err(),
                "both executors must agree on failure"
            );
            return;
        }
        let set = match axis_kind {
            0 if matches!(spec.mac, MacSpec::Sinr { .. }) => ScenarioSet::new(spec)
                .axis("mac.t_mult", vec!["1".into(), "2".into()]),
            1 => ScenarioSet::new(spec).axis("seed", vec!["3".into(), "4".into()]),
            _ => ScenarioSet::new(spec)
                .axis("measure", vec!["none".into(), "dropped".into()]),
        };
        assert_shared_equals_percell(&set, "prop case");
    }
}

#[test]
fn prepare_heavy_t_mult_sweep_is_equivalent() {
    // The exact shape the BENCH_scenario prepare-heavy rows time: an
    // 8-cell mac.t_mult sweep on one cached-backend uniform deployment.
    let mut spec = ScenarioSpec::new(
        "bench-shape",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Uniform {
            n: 48,
            side: 16.0,
            seed: 5,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(120),
    );
    spec.set("sinr", "range:8").unwrap();
    spec.set("backend", "cached").unwrap();
    spec.set("measure", "none").unwrap();
    let t_mults: Vec<String> = ["0.5", "0.75", "1", "1.25", "1.5", "2", "3", "4"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let set = ScenarioSet::new(spec).axis("mac.t_mult", t_mults);
    assert_shared_equals_percell(&set, "prepare-heavy shape");
}

#[test]
fn hybrid_t_mult_sweep_is_equivalent() {
    // The hybrid analogue of the prepare-heavy shape: every cell
    // consumes one shared sparse table (same uniform deployment, hybrid
    // backend), and each must be byte-identical to its per-cell twin
    // that built its own rows.
    let mut spec = ScenarioSpec::new(
        "hybrid-shape",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Uniform {
            n: 48,
            side: 16.0,
            seed: 5,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(120),
    );
    spec.set("sinr", "range:8").unwrap();
    spec.set("backend", "hybrid:6").unwrap();
    spec.set("measure", "none").unwrap();
    let t_mults: Vec<String> = ["1", "1.5", "2", "3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let set = ScenarioSet::new(spec).axis("mac.t_mult", t_mults);
    assert_eq!(cache_counts(&set), (1, 3), "one deployment, one table");
    assert_shared_equals_percell(&set, "hybrid prepare-heavy shape");
}

#[test]
fn mixed_backend_axis_shares_one_table() {
    // backend itself as an axis: each model prepares its own cache
    // entry (the exact one holds no table), shared by that model's two
    // mac.t_mult cells; reports must still match per-cell preparation.
    let mut spec = ScenarioSpec::new(
        "mixed-backend",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(150),
    );
    spec.set("sinr", "range:8").unwrap();
    let set = ScenarioSet::new(spec)
        .axis("backend", vec!["exact".into(), "cached".into()])
        .axis("mac.t_mult", vec!["1".into(), "2".into()]);
    // SINR_BACKEND collapses every cell onto one model.
    let per_model = std::env::var("SINR_BACKEND").is_err();
    if per_model {
        assert_eq!(cache_counts(&set), (2, 2), "one preparation per model");
    }
    assert_shared_equals_percell(&set, "mixed backend axis");

    // With hybrid in the mix, each hybrid cutoff is a model of its own:
    // auto and 6 prepare separate sparse tables.
    let mut spec = ScenarioSpec::new(
        "mixed-backend-hybrid",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(150),
    );
    spec.set("sinr", "range:8").unwrap();
    let set = ScenarioSet::new(spec)
        .axis(
            "backend",
            vec![
                "exact".into(),
                "cached".into(),
                "hybrid".into(),
                "hybrid:6".into(),
            ],
        )
        .axis("mac.t_mult", vec!["1".into(), "2".into()]);
    if per_model {
        assert_eq!(cache_counts(&set), (4, 4), "one preparation per model");
    }
    assert_shared_equals_percell(&set, "mixed backend axis with hybrid");
}
