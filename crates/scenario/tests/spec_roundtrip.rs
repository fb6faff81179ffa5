//! Property test: every `ScenarioSpec` survives the text round trip —
//! `parse(spec.to_string()) == spec` — across randomly generated
//! deployments, MAC choices, workloads, dynamics and stop conditions.
//! This is the guarantee that makes a committed spec file a faithful
//! record of the run it produced.

use proptest::prelude::*;

use sinr_geom::DeploySpec;
use sinr_scenario::prelude::*;

fn deploy_strategy() -> impl Strategy<Value = DeploymentSpec> {
    (0u8..6, 2usize..64, 1u64..1000, 1.0f64..64.0).prop_map(|(variant, n, seed, scale)| {
        let geom = match variant {
            0 => DeploySpec::Lattice {
                rows: (n % 8) + 1,
                cols: (n % 5) + 1,
                spacing: 1.0 + scale / 16.0,
            },
            1 => DeploySpec::Line {
                n,
                spacing: 1.0 + scale / 16.0,
            },
            2 => DeploySpec::Uniform {
                n,
                side: scale,
                seed,
            },
            3 => DeploySpec::Clusters {
                clusters: (n % 4) + 1,
                per_cluster: (n % 9) + 1,
                side: scale,
                radius: 1.0 + scale / 8.0,
                seed,
            },
            4 => DeploySpec::TwoLines {
                delta: n.max(2),
                separation: (seed % 2 == 0).then_some(10.0 * n.max(2) as f64 + scale),
            },
            _ => DeploySpec::TwoBalls {
                delta: n,
                range: 8.0 + scale,
                seed,
            },
        };
        let connected = matches!(geom, DeploySpec::Uniform { .. }) && seed % 3 == 0;
        DeploymentSpec { geom, connected }
    })
}

fn mac_strategy() -> impl Strategy<Value = MacSpec> {
    (0u8..6, 0usize..4, 1u64..64, 0.01f64..4.0).prop_map(|(variant, knobs, f, v)| match variant {
        0 => MacSpec::Sinr {
            overrides: MacKnob::ALL
                .into_iter()
                .take(knobs)
                .map(|k| (k, v))
                .collect(),
        },
        1 => MacSpec::Ideal(IdealPolicy::Eager),
        2 => MacSpec::Ideal(IdealPolicy::Random {
            fack: f,
            fprog: f.min(3),
        }),
        3 => MacSpec::Decay {
            n_tilde: 2.0 + v,
            eps: 0.125,
            budget_mult: v,
        },
        4 => MacSpec::Tdma,
        _ => MacSpec::DecaySmb,
    })
}

fn sources_strategy() -> impl Strategy<Value = SourceSet> {
    (0u8..5, 1usize..32, 0usize..8).prop_map(|(variant, a, b)| match variant {
        0 => SourceSet::All,
        1 => SourceSet::Stride(a),
        2 => SourceSet::Count(a),
        3 => SourceSet::Range(b, b + a),
        _ => SourceSet::List((0..=b).collect()),
    })
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (0u8..5, sources_strategy(), 0usize..16, 1u64..100_000).prop_map(
        |(variant, sources, k, deadline)| match variant {
            0 => WorkloadSpec::Repeat(sources),
            1 => WorkloadSpec::OneShot(sources),
            2 => WorkloadSpec::Smb { source: k },
            3 => WorkloadSpec::Mmb { k: k + 1 },
            _ => WorkloadSpec::Consensus { deadline },
        },
    )
}

fn dyn_strategy() -> impl Strategy<Value = DynEvent> {
    (0u8..5, 0usize..64, 1u64..100_000, 0.0f64..1.0).prop_map(|(variant, node, at, p)| DynEvent {
        at,
        kind: match variant {
            0 => DynKind::Jam { node, p },
            1 => DynKind::Unjam { node },
            2 => DynKind::Arrive { node },
            3 => DynKind::Depart { node },
            _ => DynKind::Teleport {
                node,
                x: p * 128.0 - 32.0,
                y: p * 64.0,
            },
        },
    })
}

fn mobility_strategy() -> impl Strategy<Value = Option<sinr_geom::MobilitySpec>> {
    (0u8..3, 0.01f64..8.0, 0u64..64, 0u64..1000).prop_map(|(variant, v, pause, seed)| match variant
    {
        0 => None,
        1 => Some(sinr_geom::MobilitySpec::Waypoint {
            speed: v,
            pause,
            seed,
        }),
        _ => Some(sinr_geom::MobilitySpec::Drift { sigma: v, seed }),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_spec_round_trips(
        deploy in deploy_strategy(),
        mac in mac_strategy(),
        workload in workload_strategy(),
        mobility in mobility_strategy(),
        dynamics in prop::collection::vec(dyn_strategy(), 0..4),
        stop_kind in 0u8..3,
        slots in 1u64..10_000_000,
        seed in 0u64..1_000_000,
        from_deploy in 0u8..2,
        alpha in 2.1f64..6.0,
        eps in 0.01f64..0.49,
        range in 2.0f64..200.0,
        threads in 1usize..9,
        measure_bits in 0u8..4,
        backend_kind in 0u8..4,
    ) {
        let stop = match stop_kind {
            0 => StopSpec::Slots(slots),
            1 => StopSpec::Done(slots),
            _ => StopSpec::Epochs(slots % 64 + 1),
        };
        let mut spec = ScenarioSpec::new("prop/test-1", deploy, workload, stop)
            .with_sinr(SinrSpec {
                alpha,
                epsilon: eps,
                range,
                ..SinrSpec::default()
            })
            .with_mac(mac)
            .with_backend(
                // Every backend family must survive the spec round trip.
                match backend_kind {
                    0 => sinr_phys::BackendSpec::exact(),
                    1 => sinr_phys::BackendSpec::hybrid(0.0),
                    2 => sinr_phys::BackendSpec::cached(),
                    _ => sinr_phys::BackendSpec::hybrid(range / 2.0),
                }
                .with_threads(threads),
            )
            .with_seed(if from_deploy == 0 {
                SeedSpec::Fixed(seed)
            } else {
                SeedSpec::FromDeploy
            })
            .with_measure(MeasureSpec {
                trace: measure_bits & 1 != 0,
                dropped: measure_bits & 2 != 0,
            });
        for ev in dynamics {
            spec = spec.with_dynamics(ev);
        }
        spec.mobility = mobility;

        let text = spec.to_string();
        let parsed = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(&parsed, &spec, "round trip mismatch for:\n{}", text);
        // Display is canonical: a second round trip is textually stable.
        prop_assert_eq!(parsed.to_string(), text);
    }
}
