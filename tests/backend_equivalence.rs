//! Property-based equivalence guarantees across reception backends.
//!
//! The claims the module docs of `sinr_phys::reception` make, checked on
//! randomized deployments:
//!
//! 1. **Thread-count invariance** — the table kernels (`cached`,
//!    `hybrid`) are bit-identical to their own serial execution at any
//!    thread count (listeners are independent, so chunking their sweeps
//!    cannot change any decision); checked past the serial/parallel
//!    crossover, where threads actually spawn. `exact` always runs
//!    serial, so it has no thread count to vary.
//! 2. *Retired* — it covered the deleted stateless `grid` model. Claim
//!    numbers are stable IDs; Claim 6 is the conservativeness claim.
//! 3. **Cached-kernel exactness** — the delta-driven `CachedBackend`
//!    produces receptions bit-identical to `Exact` on lattice-like and
//!    uniform deployments, across churn (transmitters entering and
//!    leaving between slots): incremental interference maintenance plus
//!    the guarded near-threshold fallback never flips a decision.
//! 4. **Mobility-repair exactness** — the same bit-identity holds when
//!    node positions change between slots and the cached kernel repairs
//!    its gain cache incrementally through `update_positions` instead of
//!    rebuilding, including combined movement + churn.
//! 5. **Scenario-level backend invariance** — an entire scenario run
//!    (any physical MAC, any dynamics, mobility on or off) produces a
//!    byte-identical JSON report under `backend=exact` and
//!    `backend=cached` (modulo the backend name itself).
//! 6. **Hybrid conservativeness** — the sparse near/far kernel
//!    over-estimates far-field interference (per-cell aggregates at
//!    box-distance lower bounds, Lemma 10.3's ring decomposition), so it
//!    never grants a reception `Exact` denies and any grant names the
//!    same sender — across churn, at any cutoff, and under mobility
//!    repair (`update_positions` patching sparse rows and cell sums).

use proptest::prelude::*;

use sinr_local_broadcast::phys::reception::{decide_receptions, BackendSpec};
use sinr_local_broadcast::prelude::*;
use sinr_local_broadcast::scenario::{
    report_for, DeploymentSpec, DynEvent, DynKind, MacSpec, ScenarioSpec, SourceSet, StopSpec,
    WorkloadSpec,
};

/// Random point sets with the near-field property, by snapping to a unit
/// sub-lattice (guarantees pairwise distance ≥ 1 without rejection).
fn near_field_points(max_n: usize, extent: i32) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set((0..extent, 0..extent), 2..max_n).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(x, y)| Point::new(x as f64 * 1.5, y as f64 * 1.5))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 3, lattice-like deployments: a persistent cached backend
    /// fed an evolving transmitter schedule equals fresh exact
    /// computation bit for bit, slot by slot. The snapped sub-lattice
    /// geometry produces *exact* SINR ties (symmetric interferers), the
    /// territory where incremental float drift would first flip a
    /// decision if the guard band failed.
    #[test]
    fn cached_is_bit_identical_to_exact_under_churn(
        pts in near_field_points(48, 28),
        range in 4.0f64..30.0,
        stride in 1usize..4,
        phase in 0usize..3,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let mut cached = BackendSpec::cached().build();
        cached.prepare(&sinr, &pts).unwrap();
        let mut got = vec![None; pts.len()];
        for step in 0..6usize {
            // Stride and offset both evolve: senders enter and leave
            // between consecutive slots, including an all-silent slot.
            let senders: Vec<usize> = if step == 4 {
                Vec::new()
            } else {
                (0..pts.len())
                    .skip((phase + step) % 3)
                    .step_by(stride + step % 2)
                    .collect()
            };
            cached.decide_slot(&sinr, &pts, &senders, &mut got);
            let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
            prop_assert_eq!(&got, &want, "slot {} (stride {})", step, stride);
        }
    }

    /// Claim 3, uniform deployments: same bit-identity on the random
    /// geometry the experiments actually sweep.
    #[test]
    fn cached_matches_exact_on_uniform_deployments(
        n in 16usize..56,
        seed in 0u64..200,
        range in 6.0f64..24.0,
        stride in 1usize..5,
    ) {
        let side = (n as f64).sqrt() * 2.5;
        // Rejection-sampled deployments can fail the near-field check for
        // a given seed; such cases carry nothing to test.
        if let Ok(pts) = deploy::uniform(n, side, seed) {
            let sinr = SinrParams::builder().range(range).build().unwrap();
            let mut cached = BackendSpec::cached().build();
            cached.prepare(&sinr, &pts).unwrap();
            let mut got = vec![None; pts.len()];
            for step in 0..5usize {
                let senders: Vec<usize> =
                    (0..n).skip(step % 2).step_by(stride + step % 3).collect();
                cached.decide_slot(&sinr, &pts, &senders, &mut got);
                let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
                prop_assert_eq!(&got, &want, "slot {}", step);
            }
        }
    }

    /// Claim 4: a cached backend whose positions are patched through
    /// `update_positions` (the mobility fast path) stays bit-identical
    /// to fresh exact computation, under combined movement and sender
    /// churn. Movers park on a distant row, so the near-field invariant
    /// is maintained the way the engine maintains it.
    #[test]
    fn cached_repair_matches_exact_under_movement_and_churn(
        pts in near_field_points(40, 24),
        range in 4.0f64..30.0,
        stride in 1usize..4,
        movers_per_slot in 1usize..4,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let mut pts = pts;
        let mut cached = BackendSpec::cached().build();
        cached.prepare(&sinr, &pts).unwrap();
        let mut got = vec![None; pts.len()];
        let mut park = 0usize;
        for step in 0..6usize {
            let mut idxs: Vec<usize> = (0..movers_per_slot)
                .map(|k| (step * movers_per_slot + k) % pts.len())
                .collect();
            idxs.sort_unstable();
            idxs.dedup();
            let mut moved: Vec<(usize, Point)> = Vec::new();
            for &m in &idxs {
                let to = Point::new(200.0 + 2.0 * park as f64, 200.0);
                park += 1;
                pts[m] = to;
                moved.push((m, to));
            }
            cached.update_positions(&sinr, &pts, &moved);
            let senders: Vec<usize> =
                (0..pts.len()).skip(step % 2).step_by(stride + step % 2).collect();
            cached.decide_slot(&sinr, &pts, &senders, &mut got);
            let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
            prop_assert_eq!(&got, &want, "slot {} (movers {})", step, movers_per_slot);
        }
    }

    /// Claim 3 at SIMD tail sizes: n straddling the 4-lane chunk width
    /// and the 64-listener prune blocks (63/64/65, 127/128/129, ...)
    /// exercises every remainder path of the unrolled kernels. Decisions
    /// must equal exact at each.
    #[test]
    fn cached_matches_exact_at_lane_remainder_sizes(
        which in 0usize..8,
        seed in 0u64..100,
        range in 6.0f64..24.0,
        stride in 1usize..4,
    ) {
        const NS: [usize; 8] = [63, 64, 65, 127, 128, 129, 255, 257];
        let n = NS[which];
        let side = (n as f64).sqrt() * 2.5;
        if let Ok(pts) = deploy::uniform(n, side, seed) {
            let sinr = SinrParams::builder().range(range).build().unwrap();
            let mut cached = BackendSpec::cached().build();
            cached.prepare(&sinr, &pts).unwrap();
            let mut got = vec![None; n];
            for step in 0..4usize {
                let senders: Vec<usize> =
                    (0..n).skip(step % 2).step_by(stride + step % 3).collect();
                cached.decide_slot(&sinr, &pts, &senders, &mut got);
                let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
                prop_assert_eq!(&got, &want, "n {} slot {}", n, step);
            }
        }
    }

    /// Claim 6, lattice-like deployments: a persistent hybrid backend
    /// fed an evolving transmitter schedule never grants a reception
    /// exact denies, at any cutoff — including cutoffs small enough
    /// that most interference flows through the far-field cell
    /// aggregates. The snapped sub-lattice produces exact SINR ties,
    /// the territory where an under-estimate would first show.
    #[test]
    fn hybrid_never_grants_what_exact_denies_under_churn(
        pts in near_field_points(48, 28),
        range in 4.0f64..24.0,
        cutoff in 2.0f64..20.0,
        stride in 1usize..4,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let mut hybrid = BackendSpec::hybrid(cutoff).build();
        hybrid.prepare(&sinr, &pts).unwrap();
        let mut got = vec![None; pts.len()];
        for step in 0..6usize {
            let senders: Vec<usize> = if step == 4 {
                Vec::new()
            } else {
                (0..pts.len()).skip(step % 3).step_by(stride + step % 2).collect()
            };
            hybrid.decide_slot(&sinr, &pts, &senders, &mut got);
            let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
            for (u, (g, e)) in got.iter().zip(want.iter()).enumerate() {
                if let Some(gs) = g {
                    prop_assert_eq!(
                        e.as_ref(), Some(gs),
                        "slot {}, listener {}: hybrid granted {:?}, exact {:?}", step, u, g, e
                    );
                }
            }
        }
    }

    /// Claim 6, uniform deployments: same conservativeness on the
    /// random geometry the experiments actually sweep.
    #[test]
    fn hybrid_is_conservative_on_uniform_deployments(
        n in 16usize..56,
        seed in 0u64..200,
        range in 6.0f64..24.0,
        cutoff in 2.0f64..16.0,
        stride in 1usize..5,
    ) {
        let side = (n as f64).sqrt() * 2.5;
        if let Ok(pts) = deploy::uniform(n, side, seed) {
            let sinr = SinrParams::builder().range(range).build().unwrap();
            let mut hybrid = BackendSpec::hybrid(cutoff).build();
            hybrid.prepare(&sinr, &pts).unwrap();
            let mut got = vec![None; pts.len()];
            for step in 0..5usize {
                let senders: Vec<usize> =
                    (0..n).skip(step % 2).step_by(stride + step % 3).collect();
                hybrid.decide_slot(&sinr, &pts, &senders, &mut got);
                let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
                for (u, (g, e)) in got.iter().zip(want.iter()).enumerate() {
                    if let Some(gs) = g {
                        prop_assert_eq!(
                            e.as_ref(), Some(gs),
                            "slot {}, listener {}", step, u
                        );
                    }
                }
            }
        }
    }

    /// Claim 6 under mobility: a hybrid backend whose positions are
    /// patched through `update_positions` (re-bucketing movers, patching
    /// their sparse rows and the far-field cell sums) stays
    /// conservative vs fresh exact computation, under combined movement
    /// and sender churn.
    #[test]
    fn hybrid_repair_stays_conservative_under_movement_and_churn(
        pts in near_field_points(40, 24),
        range in 4.0f64..24.0,
        cutoff in 2.0f64..16.0,
        stride in 1usize..4,
        movers_per_slot in 1usize..4,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let mut pts = pts;
        let mut hybrid = BackendSpec::hybrid(cutoff).build();
        hybrid.prepare(&sinr, &pts).unwrap();
        let mut got = vec![None; pts.len()];
        let mut park = 0usize;
        for step in 0..6usize {
            let mut idxs: Vec<usize> = (0..movers_per_slot)
                .map(|k| (step * movers_per_slot + k) % pts.len())
                .collect();
            idxs.sort_unstable();
            idxs.dedup();
            let mut moved: Vec<(usize, Point)> = Vec::new();
            for &m in &idxs {
                let to = Point::new(200.0 + 2.0 * park as f64, 200.0);
                park += 1;
                pts[m] = to;
                moved.push((m, to));
            }
            hybrid.update_positions(&sinr, &pts, &moved);
            let senders: Vec<usize> =
                (0..pts.len()).skip(step % 2).step_by(stride + step % 2).collect();
            hybrid.decide_slot(&sinr, &pts, &senders, &mut got);
            let want = decide_receptions(&sinr, &pts, &senders, BackendSpec::exact());
            for (u, (g, e)) in got.iter().zip(want.iter()).enumerate() {
                if let Some(gs) = g {
                    prop_assert_eq!(
                        e.as_ref(), Some(gs),
                        "slot {}, listener {} (movers {})", step, u, movers_per_slot
                    );
                }
            }
        }
    }

    /// A long-lived hybrid backend fed varying sender sets (the Engine's
    /// usage pattern) matches fresh per-call computation: the state it
    /// carries across slots is observationally invisible.
    #[test]
    fn stateful_backend_reuse_matches_fresh_calls(
        pts in near_field_points(40, 24),
        range in 4.0f64..24.0,
        cutoff in 2.0f64..12.0,
        threads in 1usize..5,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let spec = BackendSpec::hybrid(cutoff).with_threads(threads);
        let mut backend = spec.build();
        let mut out = vec![None; pts.len()];
        for step in 0..4usize {
            let senders: Vec<usize> = (0..pts.len()).skip(step % 2).step_by(2 + step).collect();
            backend.decide_slot(&sinr, &pts, &senders, &mut out);
            let fresh = decide_receptions(&sinr, &pts, &senders, spec);
            prop_assert_eq!(&out, &fresh, "slot {}", step);
        }
    }
}

/// Builds the scenario half of Claim 5: a small lattice spec with the
/// given MAC, mobility and dynamics choices, parameterized only by the
/// backend under test.
fn differential_spec(
    backend: BackendSpec,
    mac_kind: u8,
    workload_kind: u8,
    mobility_kind: u8,
    dyn_kind: u8,
    seed: u64,
) -> ScenarioSpec {
    use sinr_local_broadcast::scenario::{MeasureSpec, SeedSpec, SinrSpec};
    let mac = if mac_kind == 0 {
        MacSpec::sinr()
    } else {
        MacSpec::Decay {
            n_tilde: 16.0,
            eps: 0.125,
            budget_mult: 4.0,
        }
    };
    let workload = if workload_kind == 0 {
        WorkloadSpec::Repeat(SourceSet::Stride(2))
    } else {
        WorkloadSpec::OneShot(SourceSet::Count(3))
    };
    let mut spec = ScenarioSpec::new(
        "differential",
        DeploymentSpec::plain(sinr_local_broadcast::geom::DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        }),
        workload,
        StopSpec::Slots(300),
    )
    .with_sinr(SinrSpec::with_range(8.0))
    .with_mac(mac)
    .with_backend(backend)
    .with_seed(SeedSpec::Fixed(seed))
    .with_measure(MeasureSpec::trace_only());
    spec.mobility = match mobility_kind {
        0 => None,
        1 => Some(sinr_local_broadcast::geom::MobilitySpec::Waypoint {
            speed: 0.3,
            pause: 3,
            seed: seed ^ 0x5EED,
        }),
        _ => Some(sinr_local_broadcast::geom::MobilitySpec::Drift {
            sigma: 0.25,
            seed: seed ^ 0x5EED,
        }),
    };
    match dyn_kind {
        0 => {}
        1 if mac_kind == 0 => {
            // Jammers exist only on the paper's MAC.
            spec = spec
                .with_dynamics(DynEvent {
                    at: 40,
                    kind: DynKind::Jam { node: 1, p: 0.8 },
                })
                .with_dynamics(DynEvent {
                    at: 160,
                    kind: DynKind::Unjam { node: 1 },
                });
        }
        1 | 2 => {
            spec = spec
                .with_dynamics(DynEvent {
                    at: 30,
                    kind: DynKind::Arrive { node: 5 },
                })
                .with_dynamics(DynEvent {
                    at: 200,
                    kind: DynKind::Depart { node: 7 },
                });
        }
        _ => {
            // Teleports park far outside the lattice (and the mobility
            // bounding box), so near-field always holds at fire time.
            spec = spec
                .with_dynamics(DynEvent {
                    at: 50,
                    kind: DynKind::Teleport {
                        node: 2,
                        x: 200.0,
                        y: 200.0,
                    },
                })
                .with_dynamics(DynEvent {
                    at: 120,
                    kind: DynKind::Teleport {
                        node: 9,
                        x: 210.0,
                        y: 200.0,
                    },
                });
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Claim 5 (the scenario-level differential): an arbitrary small
    /// spec — any physical MAC, any dynamics, mobility on or off — run
    /// under `backend=exact` and `backend=cached` yields byte-identical
    /// JSON reports once the backend name itself is normalized away.
    /// This closes the gap between the slot-level proptests above and
    /// what an experimenter actually publishes: the report, including
    /// traces, latency statistics and per-epoch geometry digests.
    #[test]
    fn scenario_reports_are_identical_across_backends(
        mac_kind in 0u8..2,
        workload_kind in 0u8..2,
        mobility_kind in 0u8..3,
        dyn_kind in 0u8..4,
        seed in 0u64..10_000,
    ) {
        let spec = |backend| {
            differential_spec(backend, mac_kind, workload_kind, mobility_kind, dyn_kind, seed)
        };
        let exact = spec(BackendSpec::exact()).run();
        let cached = spec(BackendSpec::cached()).run();
        match (exact, cached) {
            (Ok(exact), Ok(cached)) => {
                let exact_json = report_for(&exact).to_json();
                let cached_json = report_for(&cached)
                    .to_json()
                    .replace("backend=cached", "backend=exact")
                    .replace("\"backend\":\"cached\"", "\"backend\":\"exact\"");
                prop_assert_eq!(&exact_json, &cached_json);
            }
            // A run may fail (e.g. a teleport colliding with a walker),
            // but then both backends must fail identically.
            (exact, cached) => {
                prop_assert_eq!(exact.err(), cached.err());
            }
        }
    }
}

/// Claims 1, 3, 4 and 6 past the serial/parallel crossover: at n ≥ 512 the
/// table kernels' chunked sweeps — the churn sweeps and the leave and
/// re-enter sweeps of the mobility repair alike — actually spawn
/// threads, and must be bit-identical to their own serial execution,
/// with `cached` still equal to `Exact` and `hybrid` never granting what
/// `Exact` denies. (Kept out of the proptest loop — the O(n²) gain cache
/// makes per-case costs non-trivial at this size.)
#[test]
fn cached_parallel_sweeps_are_bit_identical_past_the_crossover() {
    let n = 600usize;
    let home = deploy::uniform(n, 62.0, 3).unwrap();
    let sinr = SinrParams::builder().range(16.0).build().unwrap();
    for kernel in [BackendSpec::cached(), BackendSpec::hybrid(8.0)] {
        let mut pts = home.clone();
        let mut serial = kernel.build();
        let mut par = kernel.with_threads(3).build();
        serial.prepare(&sinr, &pts).unwrap();
        par.prepare(&sinr, &pts).unwrap();
        let mut got_serial = vec![None; n];
        let mut got_par = vec![None; n];
        let mut exact = BackendSpec::exact().build();
        let mut want = vec![None; n];
        let mut park = 0usize;
        for step in 0..6usize {
            if step > 0 {
                // A few movers per slot, senders among them, parked on a
                // distant row so the near-field invariant holds.
                let mut idxs: Vec<usize> = [7 * step, 7 * step + 1, 97 * step + 2]
                    .iter()
                    .map(|m| m % n)
                    .collect();
                idxs.sort_unstable();
                idxs.dedup();
                let moved: Vec<(usize, Point)> = idxs
                    .into_iter()
                    .map(|m| {
                        let to = Point::new(200.0 + 2.0 * park as f64, 200.0);
                        park += 1;
                        pts[m] = to;
                        (m, to)
                    })
                    .collect();
                serial.update_positions(&sinr, &pts, &moved);
                par.update_positions(&sinr, &pts, &moved);
            }
            let senders: Vec<usize> = (0..n).skip(step % 2).step_by(2 + step % 2).collect();
            serial.decide_slot(&sinr, &pts, &senders, &mut got_serial);
            par.decide_slot(&sinr, &pts, &senders, &mut got_par);
            exact.decide_slot(&sinr, &pts, &senders, &mut want);
            let name = serial.name();
            assert_eq!(got_serial, got_par, "{name} serial vs par:3, slot {step}");
            if kernel.model == InterferenceModel::Cached {
                assert_eq!(got_serial, want, "serial cached vs exact, slot {step}");
                assert_eq!(got_par, want, "parallel cached vs exact, slot {step}");
            } else {
                for (u, (g, e)) in got_serial.iter().zip(&want).enumerate() {
                    if let Some(gs) = g {
                        assert_eq!(
                            e.as_ref(),
                            Some(gs),
                            "slot {step}, listener {u}: hybrid granted {g:?}, exact {e:?}"
                        );
                    }
                }
            }
        }
    }
}
