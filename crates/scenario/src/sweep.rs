//! Parameter sweeps: a base spec plus override axes, expanded into a
//! grid of cells and executed in a batch across OS threads.
//!
//! This is the spec-driven form of "run the experiment at every point
//! of Table 1/Table 2": each axis is a spec key (see
//! [`ScenarioSpec::set`]) with a list of values, cells are the
//! Cartesian product, and execution uses `std::thread::scope` with a
//! shared work queue. Per-cell seeds are deterministic: with
//! [`ScenarioSet::reseed`] enabled, cell `i` runs with seed
//! `splitmix64(base_seed ⊕ (i+1))`, so a sweep is reproducible without
//! every cell sharing one RNG stream.
//!
//! # Shared preparation
//!
//! Most sweeps vary MAC knobs, workloads or seeds over one *fixed*
//! deployment, yet deployment preparation (geometry realization, graph
//! induction and — for `backend=cached` / `backend=hybrid` — the
//! dense or sparse gain-table build) is the dominant per-cell cost at
//! large n. The executor therefore shares preparations through one
//! [`TableCache`], whose key — deployment spec (geometry + seed +
//! connectivity search) × SINR parameters × the table's interference
//! model — names exactly one [`crate::PreparedDeployment::prepare`]
//! result. Before it runs, the executor counts the cells it will
//! execute per key, leaving out cells that move nodes (`mobility=`,
//! `dyn=teleport:…`). A key used at least twice is shared: the first
//! worker to reach it prepares once, every other cell gets `Arc` clones
//! of the shared state through [`ScenarioSpec::build_with_prepared`],
//! and the count is the cache's release hint, so the key's last cell
//! to finish releases it and a many-deployment sweep never holds every
//! gain table alive at once. Every other cell prepares privately.
//! Results are **byte-identical** to per-cell preparation
//! ([`ScenarioSet::without_shared_prepare`]; differentially
//! property-tested in `tests/sweep_equivalence.rs`): both paths run the
//! same preparation of the same spec, and a cell that moves nodes
//! anyway forks its gain table copy-on-write.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::build::ScenarioRun;
use crate::cache::{cache_key, execute_cell, lock_unpoisoned, CacheStats, TableCache};
use crate::spec::{ScenarioSpec, SeedSpec};
use crate::ScenarioError;

/// SplitMix64 — the standard 64-bit seed scrambler, used to derive
/// independent per-cell seeds from one base seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Percent-escapes the characters that would make a rendered sweep cell
/// name (`base/key=value/key=value…`) ambiguous: `/` (the segment
/// separator), `=` (the key/value separator) and `%` (the escape
/// itself). Axis keys and values pass through otherwise unchanged, so
/// the common cells (`mac.t_mult=2`, `seed=7`) render exactly as
/// before; an axis value like `a/b=c` renders as `a%2Fb%3Dc` instead of
/// silently forging extra segments.
pub fn escape_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            '=' => out.push_str("%3D"),
            c => out.push(c),
        }
    }
    out
}

/// The inverse of [`escape_component`]: decodes the three escape
/// sequences the escaper emits (`%25` → `%`, `%2F` → `/`, `%3D` → `=`,
/// hex case-insensitive) and rejects everything else — a `%` followed
/// by any other sequence cannot have come from [`escape_component`], so
/// a manifest or filename containing one is corrupt, not merely odd.
///
/// # Errors
///
/// A human-readable message naming the offending position.
pub fn unescape_component(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).map(|(_, c)| c).collect();
        match hex.to_ascii_uppercase().as_str() {
            "25" => out.push('%'),
            "2F" => out.push('/'),
            "3D" => out.push('='),
            _ => {
                return Err(format!(
                    "invalid escape %{hex} at byte {i} of {s:?} (expected %25, %2F or %3D)"
                ))
            }
        }
    }
    Ok(out)
}

/// Splits a rendered sweep cell name (`base/key=value/…`) into its
/// unescaped segments. After [`escape_component`], a raw `/` appears
/// only as the segment separator, so a plain split followed by
/// per-segment unescaping is exact. The resume path matches recorded
/// cell names against the expanded grid through this helper, so a
/// manifest whose names decode differently — or not at all — fails
/// loudly instead of silently pairing the wrong cells.
///
/// # Errors
///
/// The first segment's [`unescape_component`] error.
pub fn unescape_cell_name(name: &str) -> Result<Vec<String>, String> {
    name.split('/').map(unescape_component).collect()
}

/// One sweep axis: a spec key and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// The spec key (any key accepted by [`ScenarioSpec::set`], e.g.
    /// `mac.t_mult`, `deploy`, `sinr.range`).
    pub key: String,
    /// The values, in sweep order.
    pub values: Vec<String>,
}

/// A parameter sweep: base spec × override axes.
#[derive(Debug, Clone)]
pub struct ScenarioSet {
    /// The spec every cell starts from.
    pub base: ScenarioSpec,
    /// Override axes; cells are their Cartesian product (row-major, the
    /// last axis varying fastest).
    pub axes: Vec<Axis>,
    /// Derive a distinct deterministic seed per cell (off by default:
    /// paper-table sweeps deliberately reuse one seed across cells so
    /// only the swept knob changes).
    pub reseed: bool,
    /// Keep per-cell trace recording on. Off by default: a batch that
    /// records every trace holds all of them in memory at once, which is
    /// exactly the unbounded growth a sweep must avoid. Enable only for
    /// small sweeps whose post-processing needs the traces.
    pub keep_traces: bool,
    /// Prepare each cache key once and share it across the cells that
    /// use it (on by default; see the module docs). Turning it off
    /// forces per-cell preparation — the reference the differential
    /// tests and the `bench_scenario` prepare-heavy rows compare
    /// against. Results are byte-identical either way.
    pub shared_prepare: bool,
}

impl ScenarioSet {
    /// A sweep with no axes (a single cell: the base spec).
    pub fn new(base: ScenarioSpec) -> Self {
        ScenarioSet {
            base,
            axes: Vec::new(),
            reseed: false,
            keep_traces: false,
            shared_prepare: true,
        }
    }

    /// Adds an axis.
    pub fn axis(mut self, key: impl Into<String>, values: Vec<String>) -> Self {
        self.axes.push(Axis {
            key: key.into(),
            values,
        });
        self
    }

    /// Enables deterministic per-cell reseeding.
    pub fn with_reseed(mut self) -> Self {
        self.reseed = true;
        self
    }

    /// Keeps trace recording on in every cell.
    pub fn with_traces(mut self) -> Self {
        self.keep_traces = true;
        self
    }

    /// Disables shared preparation: every cell realizes its deployment,
    /// induces its graphs and builds its gain table from scratch.
    pub fn without_shared_prepare(mut self) -> Self {
        self.shared_prepare = false;
        self
    }

    /// Expands the grid into concrete specs, applying overrides, cell
    /// naming, sweep-default measurement (tracing off unless
    /// `keep_traces`) and per-cell reseeding.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] if an axis key or value is rejected by
    /// [`ScenarioSpec::set`].
    pub fn cells(&self) -> Result<Vec<ScenarioSpec>, ScenarioError> {
        let mut cells = vec![self.base.clone()];
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(ScenarioError::Parse(format!(
                    "sweep axis {:?} has no values",
                    axis.key
                )));
            }
            let mut next = Vec::with_capacity(cells.len() * axis.values.len());
            for cell in &cells {
                for value in &axis.values {
                    let mut c = cell.clone();
                    c.set(&axis.key, value)?;
                    c.name = format!(
                        "{}/{}={}",
                        c.name,
                        escape_component(&axis.key),
                        escape_component(value)
                    );
                    next.push(c);
                }
            }
            cells = next;
        }
        let seed_swept = self.axes.iter().any(|a| a.key == "seed");
        for (i, cell) in cells.iter_mut().enumerate() {
            if !self.keep_traces {
                cell.measure.trace = false;
            }
            if self.reseed && !seed_swept {
                let base = match self.base.seed {
                    SeedSpec::Fixed(s) => s,
                    SeedSpec::FromDeploy => 0,
                };
                cell.seed = SeedSpec::Fixed(splitmix64(base ^ (i as u64 + 1)));
            }
        }
        Ok(cells)
    }

    /// Builds and runs every cell across `threads` OS threads
    /// (`std::thread::scope`; a shared chunk-stealing work queue keeps
    /// the threads busy regardless of per-cell cost). Results come back
    /// in cell order. The first cell error stops workers from claiming
    /// further cells (already-running cells finish) and is returned.
    ///
    /// With [`shared_prepare`](ScenarioSet::shared_prepare) on (the
    /// default), cells that share a cache key prepare it once — see the
    /// module docs; reports are byte-identical to per-cell preparation.
    ///
    /// This is the collect-everything convenience over
    /// [`ScenarioSet::run_sharded`]; a sweep too large to hold in
    /// memory streams through `run_sharded` instead.
    ///
    /// # Errors
    ///
    /// The first (in cell order) [`ScenarioError`] any cell produced.
    pub fn run(&self, threads: usize) -> Result<Vec<ScenarioRun>, ScenarioError> {
        let cells = self.cells()?;
        let results: Vec<Mutex<Option<ScenarioRun>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        self.run_sharded(
            &cells,
            threads,
            Shard::full(),
            &BTreeSet::new(),
            &|i, run| {
                *lock_unpoisoned(&results[i]) = Some(run);
                Ok(())
            },
        )?;
        Ok(results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("run_sharded returned Ok, so every cell produced a run")
            })
            .collect())
    }

    /// The streaming sweep executor: runs the `cells` (this set's
    /// [`ScenarioSet::cells`]) of `shard` that are not already
    /// `completed`, handing each finished [`ScenarioRun`] to `sink`
    /// **by value** — the executor retains nothing, so resident memory
    /// stays O(threads) regardless of sweep size (pinned by
    /// [`ShardSummary::peak_resident_runs`]).
    ///
    /// Workers claim cells from a shared atomic cursor in chunks
    /// (`≈ work/8·threads`, capped at 64) — the `std::thread::scope`
    /// reimplementation of rayon's work-stealing `par_iter` idiom — so
    /// a million-cell sweep pays one atomic per chunk, not per cell,
    /// while uneven per-cell cost still rebalances across threads.
    /// With [`shared_prepare`](ScenarioSet::shared_prepare) on, the
    /// executor counts the non-moving cells this invocation actually
    /// executes per cache key: a key used at least twice is shared, its
    /// count is the [`TableCache`] release hint, so its last *executed*
    /// cell releases the shared tables, and a key left with a single
    /// cell after shard/resume filtering prepares per cell (sharing
    /// would buy nothing). [`ShardSummary::cache`] reports the hits and
    /// misses. Reports are byte-identical to [`ScenarioSet::run`] on the
    /// full grid: per-cell seeds derive from the **global** cell index,
    /// which sharding never renumbers.
    ///
    /// Every cell runs through [`execute_cell`], which catches a panic
    /// at the cell boundary ([`ScenarioError::Panicked`]); a panic in a
    /// shared preparation releases its in-flight key, so the key's
    /// other cells prepare again and one bad cell surfaces one error
    /// instead of aborting the process.
    ///
    /// # Errors
    ///
    /// The first (in cell order) error any executed cell or `sink` call
    /// produced; in-flight cells still finish (and flush) first.
    pub fn run_sharded(
        &self,
        cells: &[ScenarioSpec],
        threads: usize,
        shard: Shard,
        completed: &BTreeSet<usize>,
        sink: &(dyn Fn(usize, ScenarioRun) -> Result<(), ScenarioError> + Sync),
    ) -> Result<ShardSummary, ScenarioError> {
        let cache = TableCache::new(u64::MAX);
        self.run_with_cache(cells, threads, shard, completed, &cache, sink)
    }

    /// [`ScenarioSet::run_sharded`] with the cache its cells share.
    fn run_with_cache(
        &self,
        cells: &[ScenarioSpec],
        threads: usize,
        shard: Shard,
        completed: &BTreeSet<usize>,
        cache: &TableCache,
        sink: &(dyn Fn(usize, ScenarioRun) -> Result<(), ScenarioError> + Sync),
    ) -> Result<ShardSummary, ScenarioError> {
        let cells_in_shard = (0..cells.len()).filter(|i| shard.owns(*i)).count();
        let work: Vec<usize> = (0..cells.len())
            .filter(|i| shard.owns(*i) && !completed.contains(i))
            .collect();
        let threads = crate::pool_threads(Some(threads), Some(work.len()));
        // Distinct cache keys with their executed, non-moving users, and
        // per executed cell the index of its key; a key is shared only
        // when at least two executed cells use it.
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut uses: Vec<(String, usize)> = Vec::new();
        let key_of: Vec<Option<usize>> = work
            .iter()
            .map(|&i| {
                if !self.shared_prepare || cells[i].moves_nodes() {
                    return None;
                }
                let k = *index.entry(cache_key(&cells[i])).or_insert_with_key(|key| {
                    uses.push((key.clone(), 0));
                    uses.len() - 1
                });
                uses[k].1 += 1;
                Some(k)
            })
            .collect();
        for (key, count) in &uses {
            if *count >= 2 {
                cache.release_after(key, *count);
            }
        }
        let shared_key = |k: Option<usize>| {
            k.map(|k| &uses[k])
                .filter(|(_, count)| *count >= 2)
                .map(|(key, _)| key.as_str())
        };
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let chunk = (work.len() / (threads * 8).max(1)).clamp(1, 64);
        let errors: Mutex<Vec<(usize, ScenarioError)>> = Mutex::new(Vec::new());
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= work.len() {
                        break;
                    }
                    let end = (start + chunk).min(work.len());
                    for (&i, &k) in work[start..end].iter().zip(&key_of[start..end]) {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let key = shared_key(k);
                        let outcome = execute_cell(&cells[i], key.map(|_| cache));
                        if let Some(key) = key {
                            cache.finished(key);
                        }
                        match outcome {
                            Ok((run, _)) => {
                                let now = resident.fetch_add(1, Ordering::Relaxed) + 1;
                                peak.fetch_max(now, Ordering::Relaxed);
                                let flushed = sink(i, run);
                                resident.fetch_sub(1, Ordering::Relaxed);
                                if let Err(e) = flushed {
                                    abort.store(true, Ordering::Relaxed);
                                    lock_unpoisoned(&errors).push((i, e));
                                }
                            }
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                lock_unpoisoned(&errors).push((i, e));
                            }
                        }
                    }
                });
            }
        });
        let mut errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
        errors.sort_by_key(|(i, _)| *i);
        if let Some((_, e)) = errors.into_iter().next() {
            return Err(e);
        }
        Ok(ShardSummary {
            cells_total: cells.len(),
            cells_in_shard,
            skipped: cells_in_shard - work.len(),
            executed: work.len(),
            peak_resident_runs: peak.load(Ordering::Relaxed),
            cache: cache.stats(),
        })
    }
}

/// A deterministic cross-process partition of a sweep's cells: shard
/// `index` of `count` owns exactly the cells whose **global** index
/// `i` satisfies `i % count == index`. Partitioning happens after grid
/// expansion and reseeding, so a cell's spec, seed and report are
/// byte-identical no matter which shard (or how many) executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The trivial partition: one shard owning every cell.
    pub fn full() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// Parses the CLI grammar `K/N` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// A human-readable message for anything but `K/N` with `K < N`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not K/N (e.g. 0/4)"))?;
        let index = k.parse().map_err(|_| format!("shard index {k:?}"))?;
        let count = n.parse().map_err(|_| format!("shard count {n:?}"))?;
        if count == 0 || index >= count {
            return Err(format!("shard {s:?} needs 0 <= K < N"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns global cell index `cell`.
    pub fn owns(&self, cell: usize) -> bool {
        cell % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// What one [`ScenarioSet::run_sharded`] invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Cells in the whole sweep grid.
    pub cells_total: usize,
    /// Cells this shard owns.
    pub cells_in_shard: usize,
    /// Owned cells skipped because they were already completed.
    pub skipped: usize,
    /// Owned cells executed (and flushed) by this invocation.
    pub executed: usize,
    /// The most [`ScenarioRun`]s alive inside the executor at once
    /// (from cell completion until the sink returned). Bounded by the
    /// worker count — the executor hands every run to the sink by value
    /// and buffers nothing, which is what makes a million-cell sweep's
    /// resident memory O(threads) instead of O(cells).
    pub peak_resident_runs: usize,
    /// The shared-preparation cache's counters: one miss per shared key
    /// prepared, one hit per cell that adopted it. Cells that prepare
    /// privately (moving cells, keys used once, or every cell without
    /// [`shared_prepare`](ScenarioSet::shared_prepare)) count neither.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        DeploymentSpec, MacSpec, MeasureSpec, SinrSpec, SourceSet, StopSpec, WorkloadSpec,
    };
    use sinr_geom::DeploySpec;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(
            "sweep-base",
            DeploymentSpec::plain(DeploySpec::Lattice {
                rows: 3,
                cols: 3,
                spacing: 2.0,
            }),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(150),
        )
        .with_sinr(SinrSpec::with_range(8.0))
        .with_mac(MacSpec::sinr())
    }

    #[test]
    fn cells_form_the_cartesian_product_with_tracing_off() {
        let set = ScenarioSet::new(base())
            .axis("mac.t_mult", vec!["1".into(), "2".into()])
            .axis("seed", vec!["1".into(), "2".into(), "3".into()]);
        let cells = set.cells().unwrap();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| !c.measure.trace), "sweeps trace off");
        assert!(cells[0].name.contains("mac.t_mult=1"));
        assert!(cells[5].name.contains("seed=3"));
    }

    #[test]
    fn keep_traces_preserves_tracing() {
        let set = ScenarioSet::new(base().with_measure(MeasureSpec::trace_only())).with_traces();
        assert!(set.cells().unwrap()[0].measure.trace);
    }

    #[test]
    fn reseed_is_deterministic_and_distinct() {
        let set = ScenarioSet::new(base())
            .axis("mac.t_mult", vec!["1".into(), "2".into()])
            .with_reseed();
        let a = set.cells().unwrap();
        let b = set.cells().unwrap();
        assert_eq!(a[0].seed, b[0].seed, "deterministic");
        assert_ne!(a[0].seed, a[1].seed, "distinct per cell");
    }

    #[test]
    fn reseed_defers_to_an_explicit_seed_axis() {
        let set = ScenarioSet::new(base())
            .axis("seed", vec!["5".into(), "6".into()])
            .with_reseed();
        let cells = set.cells().unwrap();
        assert_eq!(cells[0].seed, crate::spec::SeedSpec::Fixed(5));
        assert_eq!(cells[1].seed, crate::spec::SeedSpec::Fixed(6));
    }

    #[test]
    fn batch_run_returns_results_in_cell_order() {
        let set = ScenarioSet::new(base()).axis("seed", vec!["1".into(), "2".into()]);
        let runs = set.run(2).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].ctx.seed, 1);
        assert_eq!(runs[1].ctx.seed, 2);
        // Batch default: no traces retained.
        assert!(runs.iter().all(|r| r.outcome.trace.is_empty()));
    }

    #[test]
    fn batch_surfaces_cell_errors() {
        let set = ScenarioSet::new(base()).axis("sinr.eps", vec!["0.9".into()]);
        assert!(set.run(2).is_err(), "eps=0.9 violates 0<eps<1/2");
    }

    #[test]
    fn splitmix_scrambles() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(splitmix64(7), splitmix64(7));
    }

    #[test]
    fn cell_names_escape_separator_characters() {
        // The `name` key accepts arbitrary values, so an axis value can
        // contain the separators the rendered cell name is built from;
        // escaping keeps the name unambiguous. Pin the exact rendering.
        // (`set("name", …)` first replaces the base name with the raw
        // value; the appended `key=value` segment is what's escaped.)
        let set = ScenarioSet::new(base()).axis("name", vec!["a/b=c%d".into()]);
        let cells = set.cells().unwrap();
        assert_eq!(cells[0].name, "a/b=c%d/name=a%2Fb%3Dc%25d");
        // The common case renders exactly as before the escaping.
        let set = ScenarioSet::new(base()).axis("mac.t_mult", vec!["2".into()]);
        assert_eq!(set.cells().unwrap()[0].name, "sweep-base/mac.t_mult=2");
    }

    /// Runs the whole sweep and returns its cache's (misses, hits).
    fn cache_counts(set: &ScenarioSet) -> (u64, u64) {
        let cells = set.cells().unwrap();
        let summary = set
            .run_sharded(&cells, 2, Shard::full(), &BTreeSet::new(), &|_, _| Ok(()))
            .unwrap();
        (summary.cache.misses, summary.cache.hits)
    }

    #[test]
    fn fixed_deployment_cells_share_one_preparation() {
        // Four mac.t_mult cells over one deployment: one key, prepared
        // once and adopted three times.
        let set = ScenarioSet::new(base()).axis(
            "mac.t_mult",
            vec!["1".into(), "2".into(), "3".into(), "4".into()],
        );
        assert_eq!(cache_counts(&set), (1, 3));
        assert_eq!(cache_counts(&set.without_shared_prepare()), (0, 0));
    }

    #[test]
    fn distinct_deployments_and_sinr_params_prepare_apart() {
        // The seed axis changes only the run seed (lattice geometry has
        // no generator seed), so cells share by sinr.range: 2 keys of 2
        // cells.
        let set = ScenarioSet::new(base())
            .axis("sinr.range", vec!["8".into(), "12".into()])
            .axis("seed", vec!["1".into(), "2".into()]);
        assert_eq!(cache_counts(&set), (2, 2));

        // A swept deployment makes every cell the sole user of its key:
        // nothing is shared and every cell prepares privately.
        let set = ScenarioSet::new(base()).axis(
            "deploy",
            vec!["lattice:3:3:2".into(), "lattice:4:4:2".into()],
        );
        assert_eq!(cache_counts(&set), (0, 0));
    }

    #[test]
    fn moving_cells_prepare_privately() {
        // mobility=none cells share one key; drift cells are private.
        let set = ScenarioSet::new(base())
            .axis("mobility", vec!["none".into(), "drift:0.2:5".into()])
            .axis("mac.t_mult", vec!["1".into(), "2".into()]);
        assert_eq!(cache_counts(&set), (1, 1));

        // A teleport event also forces private preparation.
        let mut spec = base();
        spec.set("dyn", "teleport:1:40:40@50").unwrap();
        let set = ScenarioSet::new(spec).axis("mac.t_mult", vec!["1".into(), "2".into()]);
        assert_eq!(cache_counts(&set), (0, 0));
    }

    #[test]
    fn unescape_inverts_escape_and_rejects_foreign_escapes() {
        for raw in ["plain", "a/b=c%d", "%%//==", "", "héllo/=%", "%2F"] {
            assert_eq!(unescape_component(&escape_component(raw)).unwrap(), raw);
        }
        // Lower-case hex (hand-written manifests) decodes too.
        assert_eq!(unescape_component("a%2fb%3dc%25d").unwrap(), "a/b=c%d");
        // Anything escape_component could not have produced is corrupt.
        assert!(unescape_component("%").is_err());
        assert!(unescape_component("%2").is_err());
        assert!(unescape_component("%41").is_err());
        assert_eq!(
            unescape_cell_name("a%2Fb/name=a%2Fb%3Dc%25d").unwrap(),
            vec!["a/b".to_string(), "name=a/b=c%d".to_string()]
        );
        assert!(unescape_cell_name("ok/%zz").is_err());
    }

    #[test]
    fn shard_parse_owns_and_displays() {
        let s = Shard::parse("1/4").unwrap();
        assert_eq!(s, Shard { index: 1, count: 4 });
        assert_eq!(s.to_string(), "1/4");
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        let owned: Vec<usize> = (0..10).filter(|i| s.owns(*i)).collect();
        assert_eq!(owned, vec![1, 5, 9]);
        assert!((0..10).all(|i| Shard::full().owns(i)));
        // Every cell has exactly one owner.
        for i in 0..10 {
            let owners = (0..4)
                .filter(|k| {
                    Shard {
                        index: *k,
                        count: 4,
                    }
                    .owns(i)
                })
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn sharded_runs_union_to_the_full_sweep_byte_for_byte() {
        let set = ScenarioSet::new(base())
            .axis("mac.t_mult", vec!["1".into(), "2".into()])
            .axis("seed", vec!["1".into(), "2".into(), "3".into()]);
        let full: Vec<String> = set
            .run(2)
            .unwrap()
            .iter()
            .map(|r| crate::report_for(r).to_json())
            .collect();
        let cells = set.cells().unwrap();
        let merged: Vec<Mutex<Option<String>>> =
            (0..cells.len()).map(|_| Mutex::new(None)).collect();
        let mut summaries = Vec::new();
        for index in 0..3 {
            let shard = Shard { index, count: 3 };
            let summary = set
                .run_sharded(&cells, 2, shard, &BTreeSet::new(), &|i, run| {
                    let prev =
                        lock_unpoisoned(&merged[i]).replace(crate::report_for(&run).to_json());
                    assert!(prev.is_none(), "cell {i} executed twice");
                    Ok(())
                })
                .unwrap();
            assert_eq!(summary.cells_total, 6);
            assert_eq!(summary.executed, summary.cells_in_shard);
            assert_eq!(summary.skipped, 0);
            summaries.push(summary);
        }
        assert_eq!(summaries.iter().map(|s| s.executed).sum::<usize>(), 6);
        for (i, want) in full.iter().enumerate() {
            assert_eq!(
                lock_unpoisoned(&merged[i]).as_ref(),
                Some(want),
                "cell {i} differs from the single-process run"
            );
        }
    }

    #[test]
    fn run_sharded_skips_completed_cells() {
        let set = ScenarioSet::new(base()).axis("seed", vec!["1".into(), "2".into(), "3".into()]);
        let cells = set.cells().unwrap();
        let completed = BTreeSet::from([0, 2]);
        let executed = Mutex::new(Vec::new());
        let summary = set
            .run_sharded(&cells, 2, Shard::full(), &completed, &|i, _| {
                lock_unpoisoned(&executed).push(i);
                Ok(())
            })
            .unwrap();
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.executed, 1);
        assert_eq!(*lock_unpoisoned(&executed), vec![1]);
    }

    #[test]
    fn panicking_cell_surfaces_its_own_error_and_spares_the_group() {
        // Two cells under one shared cache key; the injected panic
        // fires in the first cell's preparation, while its key is in
        // flight. That cell gets Panicked; the key's other cell still
        // prepares through the cache and completes.
        let set = ScenarioSet::new(base())
            .axis("name", vec!["__panic_in_prepare__".into(), "spared".into()]);
        let cells = set.cells().unwrap();
        assert_eq!(
            cache_key(&cells[0]),
            cache_key(&cells[1]),
            "panic path needs a shared key"
        );
        // Drive execute_cell directly (the executor aborts on the first
        // error, which would hide the spared cell).
        let cache = TableCache::new(u64::MAX);
        match execute_cell(&cells[0], Some(&cache)).unwrap_err() {
            ScenarioError::Panicked { cell, message } => {
                assert!(cell.contains("__panic_in_prepare__"), "{cell}");
                assert!(message.contains("injected test panic"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        let (_, hit) = execute_cell(&cells[1], Some(&cache)).expect("the spared cell completes");
        assert!(!hit, "the panicked preparation left nothing to adopt");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (2, 1), "{stats:?}");
        // The whole-sweep behavior: an orderly error, not an abort of
        // the process.
        let err = set
            .run_sharded(&cells, 1, Shard::full(), &BTreeSet::new(), &|_, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Panicked { .. }), "{err}");
    }

    #[test]
    fn each_group_releases_its_preparation_when_its_last_cell_finishes() {
        // Two keys of two cells (sinr.range splits the deployment key)
        // on one thread, so cells run in order: each key's entry is
        // gone by the time its last cell is flushed, before the next
        // key prepares, and nothing is left once the sweep returns.
        let mut spec = base();
        spec.set("backend", "cached").unwrap();
        let set = ScenarioSet::new(spec)
            .axis("sinr.range", vec!["8".into(), "12".into()])
            .axis("mac.t_mult", vec!["1".into(), "2".into()]);
        let cells = set.cells().unwrap();
        let cache = TableCache::new(u64::MAX);
        let held = Mutex::new(Vec::new());
        let sink = |_, _| {
            let stats = cache.stats();
            lock_unpoisoned(&held).push((stats.entries, stats.resident_bytes > 0));
            Ok(())
        };
        set.run_with_cache(&cells, 1, Shard::full(), &BTreeSet::new(), &cache, &sink)
            .unwrap();
        assert_eq!(
            *lock_unpoisoned(&held),
            vec![(1, true), (0, false), (1, true), (0, false)],
            "at most one key's preparation is ever resident"
        );
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.resident_bytes), (0, 0));
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn shared_prepare_matches_per_cell_prepare_byte_for_byte() {
        // The executor-level pin of the equivalence contract (the
        // differential proptest in tests/sweep_equivalence.rs covers the
        // randomized space): one cached-backend sweep, run both ways,
        // identical JSON reports including the uniform + connected
        // deployment search.
        let mut spec = base();
        spec.set("deploy", "connected:uniform:24:28:3").unwrap();
        spec.set("backend", "cached").unwrap();
        spec.set("seed", "deploy").unwrap();
        let set = ScenarioSet::new(spec).axis("mac.t_mult", vec!["1".into(), "2".into()]);
        let shared = set.run(2).unwrap();
        let percell = set.clone().without_shared_prepare().run(2).unwrap();
        assert_eq!(shared.len(), percell.len());
        for (s, p) in shared.iter().zip(&percell) {
            assert_eq!(
                crate::report_for(s).to_json(),
                crate::report_for(p).to_json(),
                "cell {}",
                s.ctx.spec.name
            );
        }
    }
}
