use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::incremental::{ListenerState, RowSource, Senders, NO_SENDER, REFRESH_OPS};
use super::sparse::{refresh_by_senders, FarField, NearLink};
use super::*;

fn params() -> SinrParams {
    SinrParams::builder().range(16.0).build().unwrap()
}

#[test]
fn single_sender_in_range_is_decoded() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
    let got = decide_receptions(&p, &pos, &[0], BackendSpec::exact());
    assert_eq!(got, vec![None, Some(0)]);
}

#[test]
fn single_sender_out_of_range_is_not_decoded() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(17.0, 0.0)];
    let got = decide_receptions(&p, &pos, &[0], BackendSpec::exact());
    assert_eq!(got, vec![None, None]);
}

#[test]
fn symmetric_senders_jam_each_other() {
    let p = params();
    // Listener exactly between two transmitters: equal signal, beta > 1
    // makes decoding impossible.
    let pos = vec![
        Point::new(0.0, 0.0),
        Point::new(4.0, 0.0),
        Point::new(8.0, 0.0),
    ];
    let got = decide_receptions(&p, &pos, &[0, 2], BackendSpec::exact());
    assert_eq!(got[1], None);
}

#[test]
fn transmitters_never_receive() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
    let got = decide_receptions(&p, &pos, &[0, 1], BackendSpec::exact());
    assert_eq!(got, vec![None, None]);
}

#[test]
fn nearest_sender_wins_when_dominant() {
    let p = params();
    let pos = vec![
        Point::new(0.0, 0.0),  // listener
        Point::new(1.5, 0.0),  // close sender
        Point::new(14.0, 0.0), // far sender
    ];
    let got = decide_receptions(&p, &pos, &[1, 2], BackendSpec::exact());
    assert_eq!(got[0], Some(1));
}

#[test]
fn no_senders_means_silence() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
    let got = decide_receptions(&p, &pos, &[], BackendSpec::exact());
    assert_eq!(got, vec![None, None]);
}

#[test]
fn sinr_at_matches_decode_boundary() {
    let p = params();
    let pos = vec![
        Point::new(0.0, 0.0),
        Point::new(8.0, 0.0),
        Point::new(30.0, 0.0),
    ];
    let s = sinr_at(&p, &pos, &[1, 2], 0, 1);
    let decoded = decide_receptions(&p, &pos, &[1, 2], BackendSpec::exact())[0];
    assert_eq!(decoded.is_some(), s >= p.beta());
}

#[test]
#[should_panic(expected = "sorted")]
fn unsorted_senders_panic() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
    let _ = decide_receptions(&p, &pos, &[1, 0], BackendSpec::exact());
}

#[test]
fn backends_reuse_cleanly_across_slots() {
    // Feeding different sender sets through the same backend must
    // match fresh-backend results (scratch reuse is invisible).
    let p = params();
    let pos = sinr_geom::deploy::uniform(40, 50.0, 5).unwrap();
    let mut backend = BackendSpec::hybrid(8.0).build();
    let mut out = vec![None; pos.len()];
    for step in 0..5usize {
        let senders: Vec<usize> = (0..40).skip(step).step_by(3).collect();
        backend.decide_slot(&p, &pos, &senders, &mut out);
        let fresh = decide_receptions(&p, &pos, &senders, BackendSpec::hybrid(8.0));
        assert_eq!(out, fresh, "slot {step}");
    }
}

#[test]
fn cached_matches_exact_across_churn() {
    // A persistent cached backend fed an evolving transmitter set
    // (arrivals, departures, a full swap, an empty slot) must equal
    // fresh exact computation bit for bit.
    let p = params();
    let pos = sinr_geom::deploy::uniform(60, 70.0, 9).unwrap();
    let mut cached = BackendSpec::cached().build();
    let mut exact = BackendSpec::exact().build();
    cached.prepare(&p, &pos).unwrap();
    let mut got = vec![None; pos.len()];
    let mut want = vec![None; pos.len()];
    let schedules: Vec<Vec<usize>> = vec![
        (0..60).step_by(2).collect(),
        (0..60).step_by(2).skip(3).collect(), // departures only
        (0..60).step_by(3).collect(),         // mixed churn
        (1..60).step_by(2).collect(),         // full swap
        Vec::new(),                           // silence
        (0..60).step_by(4).collect(),         // restart from empty
        vec![7],                              // lone sender
        (0..60).collect(),                    // everyone talks
    ];
    for (step, senders) in schedules.iter().enumerate() {
        cached.decide_slot(&p, &pos, senders, &mut got);
        exact.decide_slot(&p, &pos, senders, &mut want);
        assert_eq!(got, want, "slot {step}");
    }
}

#[test]
fn cached_is_exact_on_symmetric_ties() {
    // Lattice symmetry produces exact SINR ties — the near-threshold
    // territory where the guarded fallback must engage.
    let p = params();
    let pos = sinr_geom::deploy::lattice(6, 6, 2.0).unwrap();
    let mut cached = BackendSpec::cached().build();
    cached.prepare(&p, &pos).unwrap();
    for step in 0..6usize {
        let senders: Vec<usize> = (0..36).skip(step % 3).step_by(2 + step % 2).collect();
        assert_matches_exact(&p, cached.as_mut(), &pos, &senders, &format!("slot {step}"));
    }
}

#[test]
fn cached_reprepares_on_deployment_change() {
    // Feeding a different deployment through a live backend must not
    // reuse stale gains.
    let p = params();
    let mut cached = BackendSpec::cached().build();
    for seed in [3u64, 4, 5] {
        let pos = sinr_geom::deploy::uniform(30, 40.0, seed).unwrap();
        let senders: Vec<usize> = (0..30).step_by(3).collect();
        assert_matches_exact(&p, cached.as_mut(), &pos, &senders, &format!("seed {seed}"));
    }
}

#[test]
fn try_decide_slot_refuses_oversized_table_structurally() {
    // A deployment past the dense-table byte cap must surface as a
    // structured error from the fallible entry point — a long-lived
    // service rejects the request; the process is not poisoned.
    let p = params();
    let n = 12_100; // n²·16 ≈ 2.34 GB > default 2 GiB cap
    let pos = sinr_geom::deploy::lattice(110, 110, 2.0).unwrap();
    let mut cached = BackendSpec::cached().build();
    let senders = vec![0usize];
    let mut out = vec![None; pos.len()];
    let err = cached
        .try_decide_slot(&p, &pos, &senders, &mut out)
        .unwrap_err();
    assert!(
        matches!(err, PhysError::GainTableTooLarge { n: en, .. } if en == n),
        "want GainTableTooLarge for n={n}, got {err}"
    );
    // The fallible entry point succeeds on a sane size.
    let pos = sinr_geom::deploy::lattice(4, 4, 2.0).unwrap();
    let mut out = vec![None; pos.len()];
    cached
        .try_decide_slot(&p, &pos, &[0], &mut out)
        .expect("small deployment prepares fine");
    assert!(out.iter().any(Option::is_some));
}

#[test]
fn table_byte_reporting_matches_layout() {
    let p = params();
    let pos = sinr_geom::deploy::uniform(24, 30.0, 7).unwrap();
    let dense = Arc::new(GainTable::build(&p, &pos, 1));
    // gains + d2 are both n×n f64, positions are n Points.
    // gains + d2 are n×n f64, the prune index adds n×⌈n/64⌉ f64.
    let expect =
        (2 * 24 * 24 + 24) * std::mem::size_of::<f64>() + 24 * std::mem::size_of::<Point>();
    assert_eq!(dense.bytes(), expect);

    let hybrid = Arc::new(HybridTable::build(&p, &pos, 8.0, 1));
    assert!(
        hybrid.bytes() >= hybrid.near_links() * std::mem::size_of::<NearLink>(),
        "hybrid bytes must cover at least the near rows"
    );
    assert!(hybrid.bytes() < dense.bytes() * 4, "sane upper bound");

    let both = SharedTables::new()
        .with_dense(Arc::clone(&dense))
        .with_hybrid(Arc::clone(&hybrid));
    assert_eq!(both.bytes(), dense.bytes() + hybrid.bytes());
    assert_eq!(SharedTables::new().bytes(), 0);
}

#[test]
fn gain_table_entries_match_exact_arithmetic() {
    let p = params();
    let pos = sinr_geom::deploy::uniform(12, 20.0, 1).unwrap();
    let cache = GainTable::build(&p, &pos, 1);
    assert_eq!(cache.n(), 12);
    assert!(cache.matches(&p, &pos));
    for s in 0..12 {
        for u in 0..12 {
            if s == u {
                assert_eq!(cache.gain(s, u), 0.0);
                assert_eq!(cache.dist_sq(s, u), f64::INFINITY);
            } else {
                let d_sq = pos[s].dist_sq(pos[u]);
                assert_eq!(cache.dist_sq(s, u), d_sq);
                assert_eq!(cache.gain(s, u), p.received_power(d_sq.sqrt()));
            }
        }
    }
}

#[test]
fn crossover_keeps_small_deployments_serial() {
    // The injectable core pins every decision hw-independently.
    // Below the crossover, requested threads are ignored outright.
    assert_eq!(effective_threads_for(8, 64, 8), 1);
    assert_eq!(effective_threads_for(8, 256, 8), 1);
    assert_eq!(effective_threads_for(8, PAR_CROSSOVER_LISTENERS - 1, 8), 1);
    // The n ≥ 256 regression: a single-core host (a CI runner, a
    // container with one vCPU) must never oversubscribe — requested
    // parallelism collapses to serial instead of context-thrashing.
    assert_eq!(effective_threads_for(8, 1024, 1), 1);
    assert_eq!(effective_threads_for(8, 4096, 1), 1);
    // Past the crossover on a big machine: capped by cores and by
    // the per-thread work floor (1024 listeners / PAR_MIN_CHUNK=256
    // → at most 4 chunks worth spawning).
    assert_eq!(effective_threads_for(8, PAR_CROSSOVER_LISTENERS, 8), 2);
    assert_eq!(effective_threads_for(8, 1024, 8), 4);
    assert_eq!(effective_threads_for(8, 4096, 8), 8);
    assert_eq!(effective_threads_for(2, 4096, 8), 2);
    assert_eq!(effective_threads_for(1, 4096, 8), 1);
    // Never more threads than the work floor allows.
    assert_eq!(effective_threads_for(4096, 4096, 64), 16);

    // The public wrapper supplies the real core count. Past the
    // crossover only the table kernels keep their threads; exact always
    // resolves serial, the form it is built in.
    assert_eq!(effective_threads(8, 64), 1);
    for spec in [BackendSpec::cached(), BackendSpec::hybrid(0.0)] {
        let spec = spec.with_threads(8);
        assert_eq!(spec.tuned(64).threads, 1, "{spec}");
        assert_eq!(
            spec.tuned(2048).threads,
            effective_threads(8, 2048),
            "{spec}"
        );
        assert_eq!(spec.tuned(64).model, spec.model);
    }
    let exact = BackendSpec::exact().with_threads(8);
    assert_eq!(exact.tuned(2048).threads, 1, "{exact}");
    assert_eq!(exact.tuned(2048).model, exact.model);
}

#[test]
fn spec_parsing_round_trips() {
    for s in [
        "exact",
        "cached",
        "hybrid",
        "hybrid:16",
        "exact:par:4",
        "par:8",
        "cached:par:4",
        "hybrid:par:4",
        "hybrid:2.5:par:8",
    ] {
        let spec = BackendSpec::parse(s).unwrap();
        let rendered = spec.to_string();
        assert_eq!(BackendSpec::parse(&rendered).unwrap(), spec, "{s}");
    }
    assert_eq!(
        BackendSpec::parse("par:4").unwrap(),
        BackendSpec::exact().with_threads(4)
    );
    // A thread request on `exact` is kept verbatim: it only resolves to
    // serial when tuned against a deployment.
    assert_eq!(
        BackendSpec::parse("exact:par:2").unwrap(),
        BackendSpec::exact().with_threads(2)
    );
    assert_eq!(BackendSpec::parse("cached").unwrap(), BackendSpec::cached());
    assert_eq!(
        BackendSpec::parse("hybrid").unwrap(),
        BackendSpec::hybrid(0.0)
    );
    assert_eq!(
        BackendSpec::parse("hybrid:16").unwrap(),
        BackendSpec::hybrid(16.0)
    );
    // The optional cutoff must not swallow a following component.
    assert_eq!(
        BackendSpec::parse("hybrid:par:4").unwrap(),
        BackendSpec::hybrid(0.0).with_threads(4)
    );
    assert!(BackendSpec::parse("par:0").is_err());
    assert!(BackendSpec::parse("hybrid:-2").is_err());
    // A positive cutoff below the minimum node distance holds no near
    // link and would size the far-field table by (extent / cutoff)².
    for tiny in ["hybrid:0.5", "hybrid:0.001", "hybrid:1e-300"] {
        let err = BackendSpec::parse(tiny).unwrap_err();
        assert!(err.contains("at least 1"), "{tiny}: {err}");
    }
    assert_eq!(
        BackendSpec::parse("hybrid:0").unwrap(),
        BackendSpec::hybrid(0.0)
    );
    assert_eq!(
        BackendSpec::parse("hybrid:1").unwrap(),
        BackendSpec::hybrid(1.0)
    );
    assert!(BackendSpec::parse("warp").is_err());
    // The retired `f32` component and `grid` model are refused by name
    // wherever they appear (a bare `hybrid` must not swallow one as a
    // cutoff).
    for (retired, name) in [("f32", "\"f32\""), ("grid:8", "\"grid\"")] {
        let err = BackendSpec::parse(retired).unwrap_err();
        assert!(err.contains(name), "{err}");
        for base in ["cached", "hybrid", "hybrid:16", "exact"] {
            let s = format!("{base}:{retired}");
            let err = BackendSpec::parse(&s).unwrap_err();
            assert!(err.contains(name), "{s}: {err}");
        }
    }
}

#[test]
fn backend_names_are_stable() {
    assert_eq!(BackendSpec::exact().build().name(), "exact");
    assert_eq!(BackendSpec::cached().build().name(), "cached");
    assert_eq!(
        BackendSpec::cached().with_threads(2).build().name(),
        "cached+par"
    );
    // Threads reach only the table kernels: exact builds serial.
    assert_eq!(BackendSpec::exact().with_threads(2).build().name(), "exact");
    assert_eq!(BackendSpec::hybrid(8.0).build().name(), "hybrid");
    assert_eq!(
        BackendSpec::hybrid(8.0).with_threads(2).build().name(),
        "hybrid+par"
    );
}

#[test]
#[should_panic(expected = "one entry per node")]
fn mismatched_output_slice_panics() {
    let p = params();
    let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
    let mut out = vec![None; 1];
    ExactBackend::new().decide_slot(&p, &pos, &[0], &mut out);
}

/// Asserts a backend's decisions equal fresh exact computation for the
/// given positions/senders.
fn assert_matches_exact(
    p: &SinrParams,
    backend: &mut dyn InterferenceBackend,
    pos: &[Point],
    senders: &[usize],
    label: &str,
) {
    let mut got = vec![None; pos.len()];
    backend.decide_slot(p, pos, senders, &mut got);
    let want = decide_receptions(p, pos, senders, BackendSpec::exact());
    assert_eq!(got, want, "{label}");
}

#[test]
fn gain_table_move_node_matches_a_fresh_build() {
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(14, 24.0, 2).unwrap();
    let mut cache = GainTable::build(&p, &pos, 1);
    pos[3] = Point::new(100.0, 5.25);
    pos[9] = Point::new(100.0, 12.5);
    cache.move_node(3, pos[3]);
    cache.move_node(9, pos[9]);
    let fresh = GainTable::build(&p, &pos, 1);
    assert!(cache.matches(&p, &pos));
    for s in 0..14 {
        for u in 0..14 {
            assert_eq!(cache.gain(s, u), fresh.gain(s, u), "gain {s}->{u}");
            assert_eq!(cache.dist_sq(s, u), fresh.dist_sq(s, u), "d2 {s}->{u}");
        }
    }
}

#[test]
fn update_positions_repairs_instead_of_rebuilding() {
    // The repaired kernel must keep producing exact decisions across
    // moves of senders, listeners, and the current nearest sender.
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(40, 50.0, 7).unwrap();
    let mut cached = CachedBackend::new();
    cached.prepare(&p, &pos).unwrap();
    let senders: Vec<usize> = (0..40).step_by(3).collect();
    assert_matches_exact(&p, &mut cached, &pos, &senders, "before any move");
    for step in 0..30usize {
        // Rotate a mover through senders and listeners alike; the
        // parking row sits clear of the deployment and spaces its
        // spots two units apart, so near-field always holds.
        let m = (step * 7) % 40;
        let to = Point::new(70.0 + 2.0 * step as f64, 70.0);
        pos[m] = to;
        cached.update_positions(&p, &pos, &[(m, to)]);
        assert_matches_exact(&p, &mut cached, &pos, &senders, &format!("move {step}"));
    }
}

/// Appends `count` silent listeners parked far from everything else,
/// so that moving one node stays below the mass-move threshold
/// (`moved * 4 >= n`) and exercises the incremental repair.
fn park_listeners(pos: &mut Vec<Point>, count: usize) {
    pos.extend((0..count).map(|k| Point::new(500.0 + 2.0 * k as f64, 500.0)));
}

#[test]
fn update_positions_handles_moved_best_sender() {
    // Listener 0's nearest sender walks away until a different
    // sender becomes nearest — the orphan-rescan path.
    let p = params();
    let mut pos = vec![
        Point::new(0.0, 0.0),  // listener
        Point::new(2.0, 0.0),  // nearest sender, about to leave
        Point::new(6.0, 0.0),  // second sender
        Point::new(40.0, 0.0), // far sender
    ];
    park_listeners(&mut pos, 4);
    let senders = vec![1, 2, 3];
    let mut cached = CachedBackend::new();
    cached.prepare(&p, &pos).unwrap();
    assert_matches_exact(&p, &mut cached, &pos, &senders, "initial");
    for step in 1..=12 {
        // The walker drifts away on an offset row, staying a unit
        // clear of the in-line senders it passes.
        pos[1] = Point::new(2.0 + step as f64 * 1.5, 2.0);
        cached.update_positions(&p, &pos, &[(1, pos[1])]);
        // The rebuild path would have cleared the previous sender set.
        assert_eq!(cached.state.prev, senders, "step {step} rebuilt");
        assert_matches_exact(&p, &mut cached, &pos, &senders, &format!("step {step}"));
    }
}

#[test]
fn teleporting_across_the_threshold_never_leaves_a_stale_total() {
    // The adversarial drift-bound test: one interferer teleports back
    // and forth across the exact decode boundary of a near-threshold
    // link, every hop landing the decision inside the guarded
    // fallback band. Run long enough to cross several REFRESH_OPS
    // cycles and assert (a) decisions stay bit-identical to exact
    // and (b) the tracked drift bound really covers the distance to
    // the exact ordered sum — i.e. no stale total ever survives a
    // refresh cycle.
    let p = params();
    // Listener 0 decodes sender 1; interferer 2 hops between a spot
    // where the SINR is comfortably above beta and one where it is
    // just below.
    let near = Point::new(11.0, 0.0);
    let far = Point::new(26.0, 0.0);
    let mut pos = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0), far];
    park_listeners(&mut pos, 5);
    let senders = vec![1, 2];
    let mut cached = CachedBackend::new();
    cached.prepare(&p, &pos).unwrap();
    assert_matches_exact(&p, &mut cached, &pos, &senders, "initial");
    let total_ops = REFRESH_OPS * 3 + 17;
    for step in 0..total_ops {
        let to = if step % 2 == 0 { near } else { far };
        pos[2] = to;
        cached.update_positions(&p, &pos, &[(2, to)]);
        // The rebuild path would have cleared the previous sender set.
        assert_eq!(cached.state.prev, senders, "teleport {step} rebuilt");
        assert_matches_exact(&p, &mut cached, &pos, &senders, &format!("teleport {step}"));
        // Drift-bound bookkeeping: the maintained total must sit
        // within the tracked error of the exact ordered sum.
        let cache = cached.table().unwrap();
        for u in 0..pos.len() {
            let exact: f64 = senders.iter().map(|&s| cache.gain(s, u)).sum();
            assert!(
                (cached.state.total[u] - exact).abs()
                    <= cached.state.err[u] + f64::EPSILON * exact.abs(),
                "stale total at listener {u} after {step} teleports: \
                 total {} vs exact {exact}, err bound {}",
                cached.state.total[u],
                cached.state.err[u]
            );
        }
    }
    // The periodic refresh must actually have fired along the way.
    assert!(
        cached.state.ops_since_refresh < total_ops,
        "refresh never ran"
    );
}

#[test]
fn update_positions_mass_move_takes_the_rebuild_path() {
    // Moving >= n/4 nodes at once rebuilds the cache outright; the
    // decisions must still be exact.
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(24, 30.0, 4).unwrap();
    let mut cached = CachedBackend::new();
    cached.prepare(&p, &pos).unwrap();
    let senders: Vec<usize> = (0..24).step_by(2).collect();
    assert_matches_exact(&p, &mut cached, &pos, &senders, "before");
    let moved: Vec<(usize, Point)> = (0..12)
        .map(|i| {
            let to = Point::new(pos[i].x + 40.0, pos[i].y);
            pos[i] = to;
            (i, to)
        })
        .collect();
    cached.update_positions(&p, &pos, &moved);
    assert!(cached.table().unwrap().matches(&p, &pos));
    assert_matches_exact(&p, &mut cached, &pos, &senders, "after mass move");
}

#[test]
fn update_positions_before_prepare_is_a_safe_noop() {
    let p = params();
    let pos = sinr_geom::deploy::line(6, 3.0).unwrap();
    let mut cached = CachedBackend::new();
    // No cache yet: the hook must not panic, and the first
    // decide_slot prepares lazily.
    cached.update_positions(&p, &pos, &[(0, pos[0])]);
    assert_matches_exact(&p, &mut cached, &pos, &[0, 3], "lazy prepare");
}

#[test]
fn update_positions_is_a_noop_for_stateless_backends() {
    // Exact (threads requested or not) reads positions fresh per slot;
    // the hook must not disturb it.
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(20, 30.0, 6).unwrap();
    let senders: Vec<usize> = (0..20).step_by(2).collect();
    for spec in [BackendSpec::exact(), BackendSpec::exact().with_threads(2)] {
        let mut backend = spec.build();
        backend.prepare(&p, &pos).unwrap();
        let mut out = vec![None; pos.len()];
        backend.decide_slot(&p, &pos, &senders, &mut out);
        pos[5] = Point::new(pos[5].x + 9.0, pos[5].y);
        backend.update_positions(&p, &pos, &[(5, pos[5])]);
        backend.decide_slot(&p, &pos, &senders, &mut out);
        let want = decide_receptions(&p, &pos, &senders, BackendSpec::exact());
        if spec.model == InterferenceModel::Exact {
            assert_eq!(out, want, "{spec}");
        }
    }
}

#[test]
fn shared_table_is_adopted_without_a_rebuild() {
    let p = params();
    let pos = sinr_geom::deploy::uniform(20, 30.0, 3).unwrap();
    let table = Arc::new(GainTable::build(&p, &pos, 1));
    let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
    backend.prepare(&p, &pos).unwrap();
    // prepare must keep the very same allocation, not clone or
    // rebuild it.
    assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
    let senders: Vec<usize> = (0..20).step_by(2).collect();
    assert_matches_exact(&p, &mut backend, &pos, &senders, "shared table");
    assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
}

#[test]
fn shared_table_works_without_an_explicit_prepare() {
    // The lazy path: a backend built around a matching table whose
    // prepare was never called must initialize its slot state on the
    // first decide_slot instead of reading empty vectors.
    let p = params();
    let pos = sinr_geom::deploy::uniform(16, 24.0, 9).unwrap();
    let table = Arc::new(GainTable::build(&p, &pos, 1));
    let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
    let senders: Vec<usize> = (0..16).step_by(3).collect();
    assert_matches_exact(&p, &mut backend, &pos, &senders, "lazy shared");
    assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
}

#[test]
fn mismatched_shared_table_is_rebuilt_not_trusted() {
    let p = params();
    let other = sinr_geom::deploy::uniform(12, 20.0, 1).unwrap();
    let pos = sinr_geom::deploy::uniform(12, 20.0, 2).unwrap();
    let table = Arc::new(GainTable::build(&p, &other, 1));
    let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
    let senders: Vec<usize> = (0..12).step_by(2).collect();
    assert_matches_exact(&p, &mut backend, &pos, &senders, "mismatched table");
    assert!(
        !Arc::ptr_eq(&backend.shared_table().unwrap(), &table),
        "a non-matching table must be replaced"
    );
    assert!(backend.table().unwrap().matches(&p, &pos));
}

#[test]
fn movement_forks_a_shared_table_copy_on_write() {
    // Two backends share one table; one of them moves a node. The
    // mover must fork a private copy (and stay exact against the
    // moved geometry), the other must keep the original allocation
    // (and stay exact against the unmoved geometry).
    let p = params();
    let home = sinr_geom::deploy::uniform(24, 32.0, 6).unwrap();
    let table = Arc::new(GainTable::build(&p, &home, 1));
    let mut mover = CachedBackend::with_shared_table(Arc::clone(&table), 1);
    let mut bystander = CachedBackend::with_shared_table(Arc::clone(&table), 1);
    mover.prepare(&p, &home).unwrap();
    bystander.prepare(&p, &home).unwrap();
    let senders: Vec<usize> = (0..24).step_by(2).collect();
    assert_matches_exact(&p, &mut mover, &home, &senders, "mover before");
    assert_matches_exact(&p, &mut bystander, &home, &senders, "bystander before");

    let mut moved_pos = home.clone();
    moved_pos[5] = Point::new(80.0, 80.0);
    mover.update_positions(&p, &moved_pos, &[(5, moved_pos[5])]);
    assert!(
        !Arc::ptr_eq(&mover.shared_table().unwrap(), &table),
        "repair on a shared table must fork"
    );
    assert!(
        Arc::ptr_eq(&bystander.shared_table().unwrap(), &table),
        "the bystander's table must be untouched"
    );
    assert_matches_exact(&p, &mut mover, &moved_pos, &senders, "mover after");
    assert_matches_exact(&p, &mut bystander, &home, &senders, "bystander after");
    // And the original table still holds the unmoved geometry.
    assert!(table.matches(&p, &home));
}

#[test]
fn update_positions_composes_with_sender_churn() {
    // Movement and churn interleaved — the combination the mobility
    // engine actually produces.
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(36, 44.0, 13).unwrap();
    let mut cached = CachedBackend::new();
    cached.prepare(&p, &pos).unwrap();
    for step in 0..25usize {
        let m = (step * 5) % 36;
        let to = Point::new(2.0 * step as f64, 120.0);
        pos[m] = to;
        cached.update_positions(&p, &pos, &[(m, to)]);
        let senders: Vec<usize> = (0..36).skip(step % 3).step_by(2 + step % 2).collect();
        assert_matches_exact(&p, &mut cached, &pos, &senders, &format!("slot {step}"));
    }
}

/// Asserts the hybrid backend's decisions are conservative against
/// fresh exact computation: every grant must be a grant exact makes
/// of the same sender (denials are free). Returns the grant count so
/// callers can assert the test exercised something.
fn assert_hybrid_conservative(
    p: &SinrParams,
    hybrid: &mut HybridBackend,
    pos: &[Point],
    senders: &[usize],
    label: &str,
) -> usize {
    let mut got = vec![None; pos.len()];
    hybrid.decide_slot(p, pos, senders, &mut got);
    let want = decide_receptions(p, pos, senders, BackendSpec::exact());
    let mut grants = 0;
    for (u, (h, e)) in got.iter().zip(&want).enumerate() {
        if let Some(s) = h {
            grants += 1;
            assert_eq!(
                Some(*s),
                *e,
                "{label}: hybrid granted {s} to listener {u}, exact says {e:?}"
            );
        }
    }
    grants
}

#[test]
fn hybrid_is_conservative_across_churn() {
    // A deployment several cutoffs wide, so the far field is
    // genuinely exercised, driven through churny sender sets (delta
    // and refresh paths both hit).
    let p = params();
    let pos = sinr_geom::deploy::uniform(60, 48.0, 7).unwrap();
    let mut hybrid = HybridBackend::new(8.0);
    let mut total_grants = 0;
    for step in 0..24usize {
        let senders: Vec<usize> = (0..60).skip(step % 4).step_by(2 + step % 3).collect();
        total_grants +=
            assert_hybrid_conservative(&p, &mut hybrid, &pos, &senders, &format!("slot {step}"));
    }
    assert!(total_grants > 0, "the workload must decode something");
}

#[test]
fn hybrid_with_generous_cutoff_matches_exact() {
    // A cutoff wider than the deployment's diameter makes every
    // pair near: the sparse rows then hold the full exact gains in
    // ascending order, the far field is empty, and decisions are
    // bit-identical to the exact backend.
    let p = params();
    let pos = sinr_geom::deploy::uniform(40, 20.0, 11).unwrap();
    let mut hybrid = HybridBackend::new(64.0);
    for step in 0..10usize {
        let senders: Vec<usize> = (step % 3..40).step_by(2).collect();
        assert_matches_exact(&p, &mut hybrid, &pos, &senders, &format!("slot {step}"));
    }
}

#[test]
fn hybrid_is_identical_across_thread_counts() {
    // Past the parallel crossover so the chunked sweeps really
    // split; decisions must not depend on the thread count.
    let p = params();
    let pos = sinr_geom::deploy::uniform(600, 96.0, 3).unwrap();
    let mut serial = HybridBackend::new(8.0);
    let mut par = HybridBackend::with_threads(8.0, 4);
    for step in 0..6usize {
        let senders: Vec<usize> = (step % 2..600).step_by(3 + step % 2).collect();
        let mut a = vec![None; pos.len()];
        let mut b = vec![None; pos.len()];
        serial.decide_slot(&p, &pos, &senders, &mut a);
        par.decide_slot(&p, &pos, &senders, &mut b);
        assert_eq!(a, b, "slot {step}");
    }
}

#[test]
fn hybrid_mobility_repair_matches_a_fresh_build() {
    // The incremental re-bucketing must converge to the same table
    // (hence the same decisions) a from-scratch build would produce,
    // and stay conservative against exact throughout.
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(48, 40.0, 19).unwrap();
    let mut repaired = HybridBackend::new(8.0);
    let senders: Vec<usize> = (0..48).step_by(3).collect();
    let mut warmup = vec![None; pos.len()];
    repaired.decide_slot(&p, &pos, &senders, &mut warmup);
    for step in 0..12usize {
        let m = (step * 7) % 48;
        // Long hops: movers cross cells and reach fresh ground
        // (appended slots) as well as previously occupied cells.
        let to = Point::new(
            (step as f64 * 9.0) % 55.0,
            if step % 2 == 0 {
                60.0 + step as f64
            } else {
                3.0
            },
        );
        pos[m] = to;
        repaired.update_positions(&p, &pos, &[(m, to)]);
        let senders: Vec<usize> = (0..48).skip(step % 2).step_by(3).collect();
        let mut got = vec![None; pos.len()];
        repaired.decide_slot(&p, &pos, &senders, &mut got);
        let mut fresh = HybridBackend::new(8.0);
        let mut want = vec![None; pos.len()];
        fresh.decide_slot(&p, &pos, &senders, &mut want);
        assert_eq!(got, want, "step {step}: repair diverged from rebuild");
        assert_hybrid_conservative(&p, &mut repaired, &pos, &senders, &format!("step {step}"));
    }
}

#[test]
fn hybrid_mass_move_takes_the_rebuild_path() {
    let p = params();
    let mut pos = sinr_geom::deploy::uniform(16, 20.0, 23).unwrap();
    let mut hybrid = HybridBackend::new(8.0);
    hybrid.prepare(&p, &pos).unwrap();
    let moved: Vec<(usize, Point)> = (0..8)
        .map(|i| (i, Point::new(30.0 + 2.5 * i as f64, 30.0)))
        .collect();
    for &(i, to) in &moved {
        pos[i] = to;
    }
    hybrid.update_positions(&p, &pos, &moved);
    assert!(
        hybrid.table().unwrap().matches(&p, &pos, 8.0),
        "mass move must rebuild against the new positions"
    );
    let senders: Vec<usize> = (0..16).step_by(2).collect();
    assert_hybrid_conservative(&p, &mut hybrid, &pos, &senders, "after mass move");
}

#[test]
fn hybrid_shared_table_is_adopted_and_forked_copy_on_write() {
    let p = params();
    let home = sinr_geom::deploy::uniform(24, 24.0, 31).unwrap();
    let table = Arc::new(HybridTable::build(&p, &home, 8.0, 1));
    let mut mover = HybridBackend::with_shared_table(8.0, Arc::clone(&table), 1);
    let mut bystander = HybridBackend::with_shared_table(8.0, Arc::clone(&table), 1);
    mover.prepare(&p, &home).unwrap();
    bystander.prepare(&p, &home).unwrap();
    // Adoption is by reference, not copy.
    assert!(Arc::ptr_eq(&mover.shared_table().unwrap(), &table));

    let mut moved_pos = home.clone();
    moved_pos[5] = Point::new(50.0, 50.0);
    mover.update_positions(&p, &moved_pos, &[(5, moved_pos[5])]);
    assert!(
        !Arc::ptr_eq(&mover.shared_table().unwrap(), &table),
        "movement must fork the shared table"
    );
    assert!(
        Arc::ptr_eq(&bystander.shared_table().unwrap(), &table),
        "the bystander's table must be untouched"
    );
    let senders: Vec<usize> = (0..24).step_by(2).collect();
    assert_hybrid_conservative(&p, &mut mover, &moved_pos, &senders, "mover after");
    assert_hybrid_conservative(&p, &mut bystander, &home, &senders, "bystander after");
    assert!(table.matches(&p, &home, 8.0));
}

#[test]
fn gain_table_cap_refuses_with_a_structured_error() {
    let p = params();
    let pos = sinr_geom::deploy::uniform(12, 16.0, 2).unwrap();
    // 12 nodes need 2304 bytes; a 1 KB cap must refuse without
    // allocating.
    let err = GainTable::try_build_with_cap(&p, &pos, 1, 1024).unwrap_err();
    match err {
        PhysError::GainTableTooLarge { n, bytes, cap } => {
            assert_eq!(n, 12);
            assert_eq!(bytes, 12 * 12 * 16);
            assert_eq!(cap, 1024);
        }
        other => panic!("expected GainTableTooLarge, got {other}"),
    }
    assert!(
        err.to_string().contains("hybrid"),
        "the refusal must point at the sparse escape hatch: {err}"
    );
    // Under the cap the build succeeds and matches the plain path.
    let ok = GainTable::try_build_with_cap(&p, &pos, 1, 1 << 20).unwrap();
    assert!(ok.matches(&p, &pos));
}

#[test]
fn dense_table_bytes_saturates() {
    assert_eq!(dense_table_bytes(1024), 16 * 1024 * 1024);
    assert_eq!(dense_table_bytes(usize::MAX), u64::MAX);
}

#[test]
fn tuned_falls_back_to_hybrid_over_the_memory_cap() {
    // n=1024 needs 16 MB — fine; n=100_000 needs 160 GB — over any
    // sane cap, so tuned() must swap in the sparse kernel. (Uses the
    // default cap; the env override is validated in the bench
    // harness, not here, to keep tests env-independent.)
    if std::env::var("SINR_MAX_TABLE_BYTES").is_ok() {
        return;
    }
    let small = BackendSpec::cached().tuned(1024);
    assert_eq!(small.model, InterferenceModel::Cached);
    let big = BackendSpec::cached().with_threads(8).tuned(100_000);
    assert_eq!(big.model, InterferenceModel::Hybrid { cutoff: 0.0 });
    assert_eq!(big.threads, effective_threads(8, 100_000));
    // The resolved thread count is hardware-capped, so the name is
    // pinned relative to it rather than absolutely.
    let expected = if big.threads > 1 {
        "hybrid+par"
    } else {
        "hybrid"
    };
    assert_eq!(big.build().name(), expected);
    // Non-cached models never switch, and exact never keeps a thread
    // request.
    let exact = BackendSpec::exact().with_threads(8).tuned(100_000);
    assert_eq!(exact.model, InterferenceModel::Exact);
    assert_eq!(exact.threads, 1);
    assert_eq!(exact.build().name(), "exact");
    let hybrid = BackendSpec::hybrid(8.0).with_threads(8).tuned(100_000);
    assert_eq!(hybrid.model, InterferenceModel::Hybrid { cutoff: 8.0 });
}

#[test]
fn build_with_tables_routes_by_model() {
    let p = params();
    let pos = sinr_geom::deploy::uniform(10, 16.0, 4).unwrap();
    let dense = Arc::new(GainTable::build(&p, &pos, 1));
    let sparse = Arc::new(HybridTable::build(&p, &pos, 8.0, 1));
    let tables = SharedTables::new()
        .with_dense(Arc::clone(&dense))
        .with_hybrid(Arc::clone(&sparse));
    assert_eq!(
        BackendSpec::cached()
            .build_with_tables(Some(&tables))
            .name(),
        "cached"
    );
    assert_eq!(
        BackendSpec::hybrid(8.0)
            .build_with_tables(Some(&tables))
            .name(),
        "hybrid"
    );
    assert_eq!(
        BackendSpec::exact().build_with_tables(Some(&tables)).name(),
        "exact"
    );
    assert_eq!(
        BackendSpec::hybrid(8.0).build_with_tables(None).name(),
        "hybrid"
    );
    assert_eq!(
        BackendSpec::cached().build_with_tables(None).name(),
        "cached"
    );
    // An adopted dense table decides exactly, threaded or not.
    let mut backend = BackendSpec::cached()
        .with_threads(2)
        .build_with_tables(Some(&tables));
    backend.prepare(&p, &pos).unwrap();
    let senders: Vec<usize> = (0..10).step_by(2).collect();
    assert_matches_exact(&p, backend.as_mut(), &pos, &senders, "adopted dense table");
    // A table adopted for another deployment, or a hybrid table built
    // for another cutoff, is replaced by prepare instead of serving
    // stale gains.
    let other = sinr_geom::deploy::uniform(10, 16.0, 5).unwrap();
    let mut dense_backend = CachedBackend::with_shared_table(Arc::clone(&dense), 1);
    dense_backend.prepare(&p, &other).unwrap();
    assert!(!Arc::ptr_eq(&dense_backend.shared_table().unwrap(), &dense));
    assert_matches_exact(&p, &mut dense_backend, &other, &senders, "wrong deployment");
    for (cutoff, positions) in [(8.0, &other), (4.0, &pos)] {
        let mut sparse_backend = HybridBackend::with_shared_table(cutoff, Arc::clone(&sparse), 1);
        sparse_backend.prepare(&p, positions).unwrap();
        let adopted = sparse_backend.shared_table().unwrap();
        assert!(!Arc::ptr_eq(&adopted, &sparse), "cutoff {cutoff}");
        assert!(adopted.matches(&p, positions, cutoff), "cutoff {cutoff}");
    }
}

/// A uniform deployment past the parallel crossover at the city bench
/// density (side 2.2·√n).
fn crossover_deployment(n: usize, seed: u64) -> Vec<Point> {
    assert!(n >= PAR_CROSSOVER_LISTENERS);
    sinr_geom::deploy::uniform(n, (n as f64).sqrt() * 2.2, seed).unwrap()
}

/// Sixteen seeded sender sets in which each node sends with probability
/// 1/12: consecutive sets differ in more nodes than either holds, so
/// every slot takes the refresh path.
fn turnover_schedule(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..16)
        .map(|_| (0..n).filter(|_| rng.random_bool(1.0 / 12.0)).collect())
        .collect()
}

/// Half the nodes always send and an odd cohort of n/32 rotates, so
/// consecutive sets differ in ~n/16 nodes: the delta path.
fn churn_schedule(n: usize) -> Vec<Vec<usize>> {
    (0..16)
        .map(|v| {
            (0..n)
                .filter(|i| i % 2 == 0 || i % 32 == 2 * v + 1)
                .collect()
        })
        .collect()
}

/// Sender sets from empty to everyone: none, one node, ~1/12, ~1/2, all.
fn refresh_sender_sets(n: usize) -> Vec<Vec<usize>> {
    vec![
        Vec::new(),
        vec![n / 3],
        turnover_schedule(n, 12).swap_remove(0),
        (0..n).filter(|i| i % 2 == 1).collect(),
        (0..n).collect(),
    ]
}

fn sending_flags(n: usize, senders: &[usize]) -> Vec<bool> {
    let mut sending = vec![false; n];
    for &s in senders {
        sending[s] = true;
    }
    sending
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One listener range's refreshed state: total, err, best_d2, best_s.
type RangeState = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<usize>);

/// Runs `refresh` over the listener range `[lo, hi)`, starting from
/// garbage so every entry must be written.
fn refreshed_range(lo: usize, hi: usize, refresh: impl FnOnce(ListenerState<'_>)) -> RangeState {
    let len = hi - lo;
    let (mut total, mut err, mut best_d2) = (vec![f64::NAN; len], vec![-1.0; len], vec![0.5; len]);
    let mut best_s = vec![7usize; len];
    refresh(ListenerState {
        base: lo,
        total: &mut total,
        err: &mut err,
        best_d2: &mut best_d2,
        best_s: &mut best_s,
    });
    (total, err, best_d2, best_s)
}

#[test]
fn hybrid_sender_major_refresh_matches_the_listener_scan() {
    // The lattice adds exact distance ties, which pin the tie-break.
    let p = params();
    let n = 1024;
    let deployments = [
        crossover_deployment(n, 4),
        sinr_geom::deploy::lattice(32, 32, 2.0).unwrap(),
    ];
    for (pos, cutoff) in deployments.iter().flat_map(|pos| [(pos, 8.0), (pos, 0.0)]) {
        let table = HybridTable::build(&p, pos, cutoff, 1);
        for senders in refresh_sender_sets(n) {
            let sending = sending_flags(n, &senders);
            let mut want: RangeState = Default::default();
            for u in 0..n {
                let (total, terms, bd, bs) = table.scan_near(u, &sending);
                want.0.push(total);
                want.1
                    .push((f64::from(terms) + 1.0) * f64::EPSILON * total.abs());
                want.2.push(bd);
                want.3.push(bs);
            }
            let list = senders.as_slice();
            let ranges = [
                (0, n),
                (0, n / 2),
                (n / 2, n),
                (0, 1),
                (n / 3, n / 3 + 1),
                (n - 1, n),
            ];
            for (lo, hi) in ranges {
                let by_senders = refreshed_range(lo, hi, |ls| refresh_by_senders(ls, &table, list));
                let via_trait = refreshed_range(lo, hi, |ls| {
                    table.refresh(
                        ls,
                        Senders {
                            list,
                            sending: &sending,
                        },
                    );
                });
                for (label, got) in [("sender-major", by_senders), ("refresh", via_trait)] {
                    let at = format!(
                        "{label}, cutoff {cutoff}, {} senders, [{lo}, {hi})",
                        list.len()
                    );
                    assert_eq!(bits(&got.0), bits(&want.0[lo..hi]), "total: {at}");
                    assert_eq!(bits(&got.1), bits(&want.1[lo..hi]), "err: {at}");
                    assert_eq!(bits(&got.2), bits(&want.2[lo..hi]), "best_d2: {at}");
                    assert_eq!(got.3, want.3[lo..hi], "best_s: {at}");
                }
            }
        }
    }
}

#[test]
fn hybrid_far_refresh_matches_far_from_counts() {
    // Walking through the sender sets in turn also moves the per-cell
    // counts by deltas before each refresh, as the kernel does.
    let p = params();
    let n = 1024;
    let pos = crossover_deployment(n, 5);
    for cutoff in [8.0, 0.0] {
        let table = HybridTable::build(&p, &pos, cutoff, 1);
        for threads in [1, 2] {
            let mut far = FarField::default();
            table.reset_far(&mut far);
            let mut prev: Vec<usize> = Vec::new();
            for senders in refresh_sender_sets(n) {
                let enters: Vec<usize> = senders
                    .iter()
                    .copied()
                    .filter(|s| prev.binary_search(s).is_err())
                    .collect();
                let leaves: Vec<usize> = prev
                    .iter()
                    .copied()
                    .filter(|s| senders.binary_search(s).is_err())
                    .collect();
                table.far_update(&mut far, &enters, &leaves, true, threads);
                let counts = table.cell_counts(&senders);
                assert_eq!(far.count, counts);
                for dest in 0..counts.len() {
                    let (sum, terms) = table.far_from_counts(dest as u32, &counts);
                    let err = (f64::from(terms) + 1.0) * f64::EPSILON * sum.abs();
                    let at = format!(
                        "cutoff {cutoff}, {threads} threads, {} senders, cell {dest}",
                        senders.len()
                    );
                    assert_eq!(far.sum[dest].to_bits(), sum.to_bits(), "sum: {at}");
                    assert_eq!(far.err[dest].to_bits(), err.to_bits(), "err: {at}");
                }
                prev = senders;
            }
        }
    }
}

/// Asserts `signal(u, s)` equals the stored gain of every near link.
fn assert_signal_is_the_stored_gain(table: &HybridTable, label: &str) {
    let mut links = 0;
    for u in 0..table.n() {
        for link in table.near_row(u) {
            let s = link.node as usize;
            assert_eq!(
                table.signal(u, s).to_bits(),
                link.gain.to_bits(),
                "{label}: link {s} -> {u}"
            );
            links += 1;
        }
    }
    assert!(links > 0, "{label}: no near links");
}

/// Moves `count` nodes: the first half to a row below the deployment
/// (fresh cells), the rest to free spots inside it (occupied cells),
/// keeping every pair at least 1.5 apart. Returns the ascending moves
/// and applies them to `pos`.
fn move_some(pos: &mut [Point], count: usize) -> Vec<(usize, Point)> {
    let n = pos.len();
    let movers: Vec<usize> = (0..count).map(|k| 7 + k * (n / count)).collect();
    let mut moved = Vec::new();
    for (k, &m) in movers.iter().enumerate() {
        let to = if k < count / 2 {
            Point::new(2.0 * k as f64, -10.0)
        } else {
            (0..)
                .map(|c| Point::new(1.0 + 0.75 * (c % 80) as f64, 1.0 + 0.75 * (c / 80) as f64))
                .find(|q| pos.iter().all(|o| o.dist_sq(*q) >= 1.5 * 1.5))
                .unwrap()
        };
        pos[m] = to;
        moved.push((m, to));
    }
    moved
}

#[test]
fn hybrid_signal_equals_the_stored_link_gain() {
    let p = params();
    let n = 1024;
    for cutoff in [8.0, 0.0] {
        let mut pos = crossover_deployment(n, 6);
        let mut hybrid = HybridBackend::new(cutoff);
        hybrid.prepare(&p, &pos).unwrap();
        assert_signal_is_the_stored_gain(hybrid.table().unwrap(), &format!("cutoff {cutoff}"));
        let moved = move_some(&mut pos, 16);
        hybrid.update_positions(&p, &pos, &moved);
        let table = hybrid.table().unwrap();
        assert!(
            table.matches(&p, &pos, cutoff),
            "the moves must be repaired, not rebuilt"
        );
        assert_signal_is_the_stored_gain(table, &format!("cutoff {cutoff}, after moves"));
    }
}

/// The hybrid model evaluated from scratch for one slot: per listener,
/// the nearest near sender by (d², index), the ordered near sum of
/// `scan_near` and the far sum `far_from_counts` gives over freshly
/// counted cells, decided by `SinrParams::decodes` with the stored gain
/// as the signal.
fn hybrid_oracle(p: &SinrParams, table: &HybridTable, senders: &[usize]) -> Vec<Option<usize>> {
    let n = table.n();
    let sending = sending_flags(n, senders);
    let counts = table.cell_counts(senders);
    (0..n)
        .map(|u| {
            if sending[u] {
                return None;
            }
            let (near, _, _, best) = table.scan_near(u, &sending);
            if best == NO_SENDER {
                return None;
            }
            let row = table.near_row(u);
            let signal = row[row
                .binary_search_by_key(&(best as u32), |l| l.node)
                .unwrap()]
            .gain;
            let far = table.far_from_counts(table.cell_of(u), &counts).0;
            p.decodes(signal, (near + far) - signal).then_some(best)
        })
        .collect()
}

#[test]
fn hybrid_decisions_match_a_from_scratch_oracle() {
    let p = params();
    let n = 1024;
    for cutoff in [8.0, 0.0] {
        for (name, schedule) in [
            ("turnover", turnover_schedule(n, 3)),
            ("churn", churn_schedule(n)),
        ] {
            for threads in [1, 2] {
                let mut pos = crossover_deployment(n, 7);
                let mut hybrid = HybridBackend::with_threads(cutoff, threads);
                hybrid.prepare(&p, &pos).unwrap();
                let mut grants = 0;
                for (slot, senders) in schedule.iter().enumerate() {
                    if slot == schedule.len() / 2 {
                        let moved = move_some(&mut pos, 16);
                        hybrid.update_positions(&p, &pos, &moved);
                    }
                    let mut got = vec![None; n];
                    hybrid.decide_slot(&p, &pos, senders, &mut got);
                    let at = format!("{name}, cutoff {cutoff}, {threads} threads, slot {slot}");
                    // The turnover schedule refreshes every slot; the
                    // churn schedule takes the delta path after slot 0.
                    let refreshed = hybrid.state.ops_since_refresh == 0;
                    assert_eq!(refreshed, name == "turnover" || slot == 0, "{at}");
                    let table = hybrid.table().unwrap();
                    assert!(table.matches(&p, &pos, cutoff), "{at}");
                    assert_eq!(got, hybrid_oracle(&p, table, senders), "{at}");
                    grants += got.iter().flatten().count();
                }
                assert!(grants > 0, "{name}: nothing decoded");
            }
        }
    }
}
