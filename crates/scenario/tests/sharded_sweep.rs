//! The sharded/resumable executor contract, end to end:
//!
//! * Running a sweep as N shards through [`ShardOutput`] and merging
//!   the directory yields reports **byte-identical** to the
//!   single-process run — across shard counts, axes and the
//!   shared-prepare toggle.
//! * Resume skips exactly the recorded cells, tolerates torn tails and
//!   rejects foreign sweeps.
//! * The streaming executor's resident-run gauge stays O(threads) on a
//!   large traced sweep — the collect-then-print memory bug this layer
//!   replaced would make it O(cells).
//! * `escape_component`/`unescape_component` round-trip over arbitrary
//!   separator-dense strings (the property the resume-path name
//!   matching rests on).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use sinr_scenario::{
    escape_component, merge_shards, report_for, unescape_cell_name, unescape_component,
    DeploymentSpec, MeasureSpec, ScenarioSet, ScenarioSpec, Shard, ShardOutput, SourceSet,
    StopSpec, WorkloadSpec,
};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sinr-sharded-{tag}-{}", std::process::id()))
}

fn tiny_base(slots: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "sharded",
        DeploymentSpec::plain(sinr_geom::DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        }),
        WorkloadSpec::Repeat(SourceSet::Stride(2)),
        StopSpec::Slots(slots),
    )
}

/// Runs the whole sweep through shard files and asserts the merged
/// directory reproduces the single-process `run()` reports byte for
/// byte, with every cell executed exactly once across shards.
fn assert_sharded_matches_single(set: &ScenarioSet, shards: usize, tag: &str) {
    let single: Vec<String> = set
        .run(2)
        .unwrap_or_else(|e| panic!("{tag}: single run failed: {e}"))
        .iter()
        .map(|r| report_for(r).to_json())
        .collect();
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let cells = set.cells().unwrap();
    let executions = AtomicUsize::new(0);
    for index in 0..shards {
        let shard = Shard {
            index,
            count: shards,
        };
        let out = ShardOutput::create(&dir, set, cells.len(), shard).unwrap();
        set.run_sharded(&cells, 2, shard, &BTreeSet::new(), &|i, run| {
            executions.fetch_add(1, Ordering::Relaxed);
            assert!(
                shard.owns(i),
                "{tag}: cell {i} ran in foreign shard {shard}"
            );
            out.record(i, &report_for(&run))
        })
        .unwrap_or_else(|e| panic!("{tag}: shard {index} failed: {e}"));
    }
    assert_eq!(
        executions.load(Ordering::Relaxed),
        single.len(),
        "{tag}: every cell exactly once"
    );
    let merged = merge_shards(&dir).unwrap_or_else(|e| panic!("{tag}: merge failed: {e}"));
    assert_eq!(merged.shards, shards, "{tag}");
    assert_eq!(merged.reports, single, "{tag}: merged bytes diverge");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_way_shards_merge_byte_identically() {
    let set = ScenarioSet::new(tiny_base(120))
        .axis("mac.t_mult", vec!["1".into(), "2".into()])
        .axis("seed", (1..=5).map(|s| s.to_string()).collect())
        .with_reseed();
    assert_sharded_matches_single(&set, 4, "four-way");
}

#[test]
fn shard_counts_and_prepare_modes_agree() {
    // Shard-count invariance (1, 3 and 7 shards over 6 cells — more
    // shards than some own cells) and shared-prepare invariance: the
    // manifest key deliberately ignores shared_prepare, so the two
    // modes must land the same bytes in the same files.
    let set =
        ScenarioSet::new(tiny_base(80)).axis("seed", (1..=6).map(|s| s.to_string()).collect());
    for shards in [1, 3, 7] {
        assert_sharded_matches_single(&set, shards, &format!("count-{shards}"));
    }
    assert_sharded_matches_single(&set.clone().without_shared_prepare(), 3, "percell-prepare");
}

#[test]
fn resume_skips_recorded_cells_and_completes_the_shard() {
    let set =
        ScenarioSet::new(tiny_base(80)).axis("seed", (1..=8).map(|s| s.to_string()).collect());
    let cells = set.cells().unwrap();
    let shard = Shard { index: 0, count: 2 };
    let dir = tmp_dir("resume");
    let _ = std::fs::remove_dir_all(&dir);
    // First pass: record only cells 0 and 2, as if killed mid-sweep.
    let out = ShardOutput::create(&dir, &set, cells.len(), shard).unwrap();
    let stop_after = BTreeSet::from([0usize, 2]);
    set.run_sharded(&cells, 1, shard, &BTreeSet::new(), &|i, run| {
        if stop_after.contains(&i) {
            out.record(i, &report_for(&run))?;
        }
        Ok(())
    })
    .unwrap();
    drop(out);
    // Resume: exactly the unrecorded owned cells (4 and 6) run.
    let (out, completed) = ShardOutput::resume(&dir, &set, &cells, shard).unwrap();
    assert_eq!(completed, stop_after);
    let executed = Mutex::new(Vec::new());
    let summary = set
        .run_sharded(&cells, 2, shard, &completed, &|i, run| {
            executed.lock().unwrap().push(i);
            out.record(i, &report_for(&run))
        })
        .unwrap();
    assert_eq!(summary.skipped, 2);
    assert_eq!(summary.executed, 2);
    let mut ran = executed.into_inner().unwrap();
    ran.sort_unstable();
    assert_eq!(ran, vec![4, 6]);
    // The finished shard's file holds each owned cell exactly once.
    let (_, completed) = ShardOutput::resume(&dir, &set, &cells, shard).unwrap();
    assert_eq!(completed, BTreeSet::from([0, 2, 4, 6]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_foreign_sweep_and_merge_rejects_gaps() {
    let set = ScenarioSet::new(tiny_base(60)).axis("seed", vec!["1".into(), "2".into()]);
    let cells = set.cells().unwrap();
    let dir = tmp_dir("foreign");
    let _ = std::fs::remove_dir_all(&dir);
    let shard = Shard::full();
    let out = ShardOutput::create(&dir, &set, cells.len(), shard).unwrap();
    set.run_sharded(&cells, 1, shard, &BTreeSet::new(), &|i, run| {
        out.record(i, &report_for(&run))
    })
    .unwrap();
    drop(out);
    // A different axis is a different sweep key: resume must refuse.
    let other = ScenarioSet::new(tiny_base(60)).axis("seed", vec!["1".into(), "3".into()]);
    let err = ShardOutput::resume(&dir, &other, &other.cells().unwrap(), shard)
        .unwrap_err()
        .to_string();
    assert!(err.contains("identity mismatch"), "{err}");
    // Dropping a report line leaves a coverage gap merge must name.
    let path = dir.join("shard-0-of-1.ndjson");
    let text = std::fs::read_to_string(&path).unwrap();
    let first_line_len = text.find('\n').unwrap() + 1;
    std::fs::write(&path, &text[first_line_len..]).unwrap();
    let err = merge_shards(&dir).unwrap_err().to_string();
    assert!(err.contains("incomplete sweep"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_keeps_resident_runs_bounded_by_threads() {
    // 256 cells with traces retained: the old collect-then-print sweep
    // held all 256 traced runs alive at once. The streaming executor
    // hands each run to the sink by value, so the high-water mark of
    // in-flight runs is the worker count, not the cell count.
    let threads = 4;
    let set = ScenarioSet::new(tiny_base(40))
        .axis("seed", (1..=256).map(|s| s.to_string()).collect())
        .with_traces();
    let cells = set.cells().unwrap();
    let sink_calls = AtomicUsize::new(0);
    let summary = set
        .run_sharded(
            &cells,
            threads,
            Shard::full(),
            &BTreeSet::new(),
            &|_, run| {
                assert!(!run.outcome.trace.is_empty(), "traces requested");
                sink_calls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        )
        .unwrap();
    assert_eq!(sink_calls.load(Ordering::Relaxed), 256);
    assert!(
        summary.peak_resident_runs <= threads,
        "peak {} resident runs exceeds the {threads} workers",
        summary.peak_resident_runs
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip over strings dense in the escaper's special
    /// characters. (The proptest shim has no string strategies, so the
    /// bytes map through a palette that overweights `/ = %` and hex
    /// digits — the confusable neighborhood.)
    #[test]
    fn escape_component_round_trips(bytes in prop::collection::vec(0u8..16, 0..24)) {
        const PALETTE: [char; 16] = [
            '/', '=', '%', '2', '5', 'F', 'f', '3', 'D', 'd',
            'a', 'é', '∀', '0', ' ', '.',
        ];
        let raw: String = bytes.iter().map(|b| PALETTE[*b as usize]).collect();
        let escaped = escape_component(&raw);
        prop_assert_eq!(unescape_component(&escaped).unwrap(), raw.clone());
        // Escaped components never contain raw separators, so a full
        // cell name assembled from them splits back exactly.
        let name = format!("{escaped}/k={escaped}");
        prop_assert_eq!(
            unescape_cell_name(&name).unwrap(),
            vec![raw.clone(), format!("k={raw}")]
        );
    }
}

#[test]
fn sweep_default_measure_is_unchanged() {
    // Pin that the streaming rework did not disturb the sweep-default
    // measurement policy (traces off unless asked) the byte-identity
    // guarantees build on.
    let set = ScenarioSet::new(tiny_base(40).with_measure(MeasureSpec::trace_only()))
        .axis("seed", vec!["1".into()]);
    assert!(!set.cells().unwrap()[0].measure.trace);
    assert!(set.clone().with_traces().cells().unwrap()[0].measure.trace);
}
