//! The one structure that shares prepared deployments between cells
//! ([`TableCache`]), and the one cell boundary that sweeps, shards and
//! the scenario service run every cell through ([`execute_cell`]).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::build::{table_backend, PreparedDeployment, ScenarioRun};
use crate::spec::ScenarioSpec;
use crate::ScenarioError;

/// Locks a mutex, recovering from poisoning: no lock is held across a
/// cell and cell panics are caught at [`execute_cell`], so a poisoned
/// lock only means another thread panicked between consistent states.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A point-in-time snapshot of cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a resident entry.
    pub hits: u64,
    /// Requests that had to prepare (including uncacheably large ones).
    pub misses: u64,
    /// Bytes currently resident (tables + positions, per
    /// [`PreparedDeployment::resident_bytes`]).
    pub resident_bytes: u64,
    /// Number of resident entries.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over lookups, `0.0` when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    prep: Arc<PreparedDeployment>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    /// Keys whose preparation is in flight right now — same-key
    /// lookups wait on [`TableCache::built`] and adopt the result
    /// instead of duplicating the O(n²) work.
    building: HashSet<String>,
    /// Release hints ([`TableCache::release_after`]): uses left per key.
    uses_left: HashMap<String, usize>,
    resident: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A byte-budgeted LRU cache of [`PreparedDeployment`]s: a hit hands
/// the cell `Arc` clones of the positions, graphs and gain table and
/// skips the O(n²)/O(n·near) preparation entirely.
///
/// Keys are [`ScenarioSpec::deployment_key`] (deployment spec × SINR
/// parameters) × the interference model of the spec's table backend
/// (its `SINR_BACKEND`-resolved backend, `exact` for `mac=ideal`). One
/// key therefore names exactly one [`PreparedDeployment::prepare`]
/// result: an exact-model request (positions + graphs only) and a
/// cached-model request (dense gain table) of the same deployment
/// occupy separate entries instead of serving each other stripped-down
/// state. Cells that move nodes may share an entry: the cached kernels
/// fork their table copy-on-write on the first repair, so sharers stay
/// untouched (tested below); whether sharing pays is the caller's
/// policy.
pub struct TableCache {
    budget: u64,
    inner: Mutex<Inner>,
    built: Condvar,
}

/// The [`TableCache`] key `spec` prepares under.
pub(crate) fn cache_key(spec: &ScenarioSpec) -> String {
    // '\u{1}' appears in neither half (deployment_key uses it as its
    // own separator, the model's Debug form is plain ASCII), so the key
    // is unambiguous.
    format!(
        "{}\u{1}{:?}",
        spec.deployment_key(),
        table_backend(spec).model
    )
}

/// Marks a key in flight for as long as it lives; dropping it — after
/// the preparation returned, failed or panicked — releases the key and
/// wakes the lookups waiting on it, so they retry instead of hanging.
struct InFlight<'a> {
    cache: &'a TableCache,
    key: &'a str,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.cache.inner).building.remove(self.key);
        self.cache.built.notify_all();
    }
}

impl TableCache {
    /// An empty cache holding at most `budget` resident bytes.
    pub fn new(budget: u64) -> Self {
        TableCache {
            budget,
            inner: Mutex::default(),
            built: Condvar::new(),
        }
    }

    /// Returns `spec`'s [`PreparedDeployment`], preparing (and
    /// caching) it on a miss. The boolean is `true` on a hit.
    ///
    /// The preparation runs **outside** the cache lock: an O(n²) build
    /// must not stall every other worker's lookups. Concurrent misses
    /// on the same cold key coalesce: the first requester prepares, the
    /// rest wait on the condvar and adopt the inserted entry as a hit —
    /// a request storm over one deployment pays for exactly one build.
    ///
    /// # Errors
    ///
    /// Whatever [`PreparedDeployment::prepare`] reports for `spec`.
    pub(crate) fn get_or_prepare(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(Arc<PreparedDeployment>, bool), ScenarioError> {
        let key = cache_key(spec);
        {
            let mut inner = lock_unpoisoned(&self.inner);
            while inner.building.contains(&key) {
                #[cfg(test)]
                tests::on_wait(&key);
                inner = self
                    .built
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            inner.tick += 1;
            let tick = inner.tick;
            // `matches` holds while deployment_key covers exactly the
            // match keys; it is a backstop so a future key widening
            // degrades to a miss (which replaces the entry), never to
            // wrong state.
            if let Some(entry) = inner.entries.get_mut(&key).filter(|e| e.prep.matches(spec)) {
                entry.last_used = tick;
                let prep = Arc::clone(&entry.prep);
                inner.hits += 1;
                return Ok((prep, true));
            }
            inner.misses += 1;
            inner.building.insert(key.clone());
        }
        let _in_flight = InFlight {
            cache: self,
            key: &key,
        };
        #[cfg(test)]
        tests::on_prepare(&spec.name, &key);
        let prep = Arc::new(PreparedDeployment::prepare(spec)?);
        let bytes = prep.resident_bytes() as u64;
        // A preparation larger than the whole budget is served uncached
        // rather than flushing everything for a single tenant; waiters
        // on its key wake and prepare their own copy.
        if bytes <= self.budget {
            let mut inner = lock_unpoisoned(&self.inner);
            inner.tick += 1;
            let entry = Entry {
                prep: Arc::clone(&prep),
                bytes,
                last_used: inner.tick,
            };
            inner.resident += bytes;
            if let Some(stale) = inner.entries.insert(key.clone(), entry) {
                inner.resident -= stale.bytes;
            }
            while inner.resident > self.budget {
                let victim = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("resident > 0 implies entries");
                let evicted = inner.entries.remove(&victim).expect("victim resident");
                inner.resident -= evicted.bytes;
            }
        }
        Ok((prep, false))
    }

    /// Release hint: the entry under `key` (a [`cache_key`]) leaves the
    /// cache once [`TableCache::finished`] has been called for it `uses`
    /// times. The sweep passes each key's executed-cell count, so a
    /// many-deployment sweep never holds every table at once. Keys
    /// without a hint stay until the LRU budget evicts them.
    pub(crate) fn release_after(&self, key: &str, uses: usize) {
        lock_unpoisoned(&self.inner)
            .uses_left
            .insert(key.to_string(), uses);
    }

    /// One use of a hinted key is over; the last one releases its entry.
    pub(crate) fn finished(&self, key: &str) {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(left) = inner.uses_left.get_mut(key) else {
            return;
        };
        *left -= 1;
        if *left == 0 {
            inner.uses_left.remove(key);
            let released = inner.entries.remove(key).map_or(0, |e| e.bytes);
            inner.resident -= released;
        }
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            resident_bytes: inner.resident,
            entries: inner.entries.len(),
        }
    }
}

/// Builds and runs one cell: through `cache` when given, cold
/// otherwise. Both paths prepare once, with
/// [`PreparedDeployment::prepare`] on the same spec, so a cache's
/// preparation error is returned as it is — a cold retry would only
/// repeat the failing work. A panic is caught at this boundary and
/// returned as [`ScenarioError::Panicked`], so one bad cell never takes
/// down a sweep or the service. The boolean is `true` on a cache hit.
///
/// # Errors
///
/// Whatever preparing, building or running the cell reports, or
/// [`ScenarioError::Panicked`].
pub fn execute_cell(
    cell: &ScenarioSpec,
    cache: Option<&TableCache>,
) -> Result<(ScenarioRun, bool), ScenarioError> {
    let body = || {
        let (runnable, hit) = match cache {
            Some(cache) => {
                let (prep, hit) = cache.get_or_prepare(cell)?;
                (cell.build_with_prepared(&prep)?, hit)
            }
            None => (cell.build()?, false),
        };
        #[cfg(test)]
        tests::before_run(&cell.name);
        Ok((runnable.run()?, hit))
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        ScenarioError::Panicked {
            cell: cell.name.clone(),
            message,
        }
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_phys::SharedTables;

    /// Keys some lookup found in flight and waited on.
    static WAITED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    static WAITED_CHANGED: Condvar = Condvar::new();

    /// Hook in the wait loop of [`TableCache::get_or_prepare`].
    pub(super) fn on_wait(key: &str) {
        lock_unpoisoned(&WAITED).push(key.to_string());
        WAITED_CHANGED.notify_all();
    }

    /// Name hook before a cell runs: `__panic_in_run__` panics.
    pub(super) fn before_run(name: &str) {
        if name.contains("__panic_in_run__") {
            panic!("injected test panic in run");
        }
    }

    /// Name hook between marking a key in flight and preparing it:
    /// `__panic_in_prepare__` panics at once, `__panic_once_waited__`
    /// first holds the key in flight until another lookup waits on it.
    pub(super) fn on_prepare(name: &str, key: &str) {
        if name.contains("__panic_once_waited__") {
            let mut waited = lock_unpoisoned(&WAITED);
            while !waited.iter().any(|k| k == key) {
                waited = WAITED_CHANGED
                    .wait(waited)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        } else if !name.contains("__panic_in_prepare__") {
            return;
        }
        panic!("injected test panic in prepare");
    }

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "name=cache-{seed}\n\
             deploy=uniform:24:18:{seed}\n\
             sinr=alpha:3,beta:1.5,noise:1,eps:0.1,range:8\n\
             backend=cached\n\
             workload=repeat:stride:2\n\
             stop=slots:20\n\
             measure=none\n"
        ))
        .expect("test spec parses")
    }

    fn entry_bytes(s: &ScenarioSpec) -> u64 {
        PreparedDeployment::prepare(s).unwrap().resident_bytes() as u64
    }

    #[test]
    fn hit_miss_and_lru_eviction_order() {
        let a = spec(1);
        let b = spec(2);
        let c = spec(3);
        let each = entry_bytes(&a);
        assert_eq!(each, entry_bytes(&b), "same-shape specs weigh the same");
        // Room for exactly two entries.
        let cache = TableCache::new(2 * each);

        let (pa, hit) = cache.get_or_prepare(&a).unwrap();
        assert!(!hit);
        assert!(!cache.get_or_prepare(&b).unwrap().1);
        // Touch A so B becomes the least recently used…
        let (pa2, hit) = cache.get_or_prepare(&a).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&pa, &pa2), "a hit returns the resident Arc");
        // …then C's insert must evict B, not A.
        assert!(!cache.get_or_prepare(&c).unwrap().1);
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get_or_prepare(&a).unwrap().1, "A survived");
        assert!(!cache.get_or_prepare(&b).unwrap().1, "B was evicted");

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert!((stats.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn byte_accounting_matches_reported_table_sizes() {
        let dense = spec(5);
        let mut hybrid = spec(6);
        hybrid.set("backend", "hybrid:8").unwrap();
        let cache = TableCache::new(u64::MAX);

        let (pd, _) = cache.get_or_prepare(&dense).unwrap();
        let (ph, _) = cache.get_or_prepare(&hybrid).unwrap();
        // The charged bytes are exactly what the phys tables report
        // plus the positions each preparation carries.
        let pos_bytes = std::mem::size_of_val(pd.positions());
        assert_eq!(pd.resident_bytes(), pd.tables().bytes() + pos_bytes);
        assert_eq!(ph.resident_bytes(), ph.tables().bytes() + pos_bytes);
        assert_eq!(
            cache.stats().resident_bytes,
            (pd.resident_bytes() + ph.resident_bytes()) as u64
        );
        // SINR_BACKEND overrides the specs' backends, and with them the
        // tables their preparations build.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let SharedTables::Dense(table) = pd.tables() else {
            panic!("dense wanted");
        };
        assert_eq!(pd.resident_bytes(), table.bytes() + pos_bytes);
        let SharedTables::Hybrid(table) = ph.tables() else {
            panic!("hybrid wanted");
        };
        assert_eq!(ph.resident_bytes(), table.bytes() + pos_bytes);
    }

    #[test]
    fn want_classes_do_not_serve_each_other() {
        // Same deployment, different effective backend: separate
        // entries, no stripped-down hits.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let dense = spec(7);
        let mut plain = spec(7);
        plain.set("backend", "exact").unwrap();
        let cache = TableCache::new(u64::MAX);
        assert!(!cache.get_or_prepare(&dense).unwrap().1);
        let (pp, hit) = cache.get_or_prepare(&plain).unwrap();
        assert!(!hit, "an exact request must not adopt the dense entry");
        assert!(
            matches!(pp.tables(), SharedTables::Empty),
            "plain entries carry no table"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn charged_bytes_stay_resident_bytes_after_runs() {
        // An entry is charged once, at insert, so running through a
        // resident entry must never grow what it holds: after dense,
        // hybrid and mobile runs the budget still equals what the
        // entries actually keep resident.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let dense = spec(12);
        let mut hybrid = spec(13);
        hybrid.set("backend", "hybrid:8").unwrap();
        let mut mobile = spec(12);
        mobile.set("mobility", "drift:0.2:11").unwrap();
        let cache = TableCache::new(u64::MAX);
        let mut entries: Vec<Arc<PreparedDeployment>> = Vec::new();
        for s in [&dense, &hybrid, &mobile] {
            let (prep, _) = cache.get_or_prepare(s).unwrap();
            s.build_with_prepared(&prep).unwrap().run().unwrap();
            if !entries.iter().any(|e| Arc::ptr_eq(e, &prep)) {
                entries.push(prep);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "the mobile run shares the dense entry");
        assert_eq!(entries.len(), 2);
        let resident: usize = entries.iter().map(|e| e.resident_bytes()).sum();
        assert_eq!(stats.resident_bytes, resident as u64);
    }

    #[test]
    fn oversized_entries_are_served_uncached() {
        let a = spec(8);
        let cache = TableCache::new(16); // nothing fits
        let (prep, hit) = cache.get_or_prepare(&a).unwrap();
        assert!(!hit);
        assert!(prep.matches(&a));
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn mobile_request_forks_copy_on_write_and_leaves_the_entry_intact() {
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let fixed = spec(9);
        let mut mobile = spec(9);
        mobile.set("mobility", "drift:0.2:11").unwrap();
        let cache = TableCache::new(u64::MAX);

        // Cold reference: what the static spec reports without any
        // cache in the picture.
        let cold = crate::report_for(&fixed.build().unwrap().run().unwrap()).to_json();

        let (prep, _) = cache.get_or_prepare(&fixed).unwrap();
        let before = prep.positions().to_vec();

        // The mobile request shares the same key (mobility is not part
        // of the deployment identity) and must hit.
        let (same, hit) = cache.get_or_prepare(&mobile).unwrap();
        assert!(hit, "mobility must not bypass the cache");
        assert!(Arc::ptr_eq(&prep, &same));
        let run = mobile.build_with_prepared(&same).unwrap().run().unwrap();
        let report = crate::report_for(&run).to_json();
        assert!(
            report.contains("\"geometry_changed\":true"),
            "the mobile run must actually move: {report}"
        );

        // Copy-on-write isolation: the cached entry still describes
        // slot-0 geometry, and a static run through it is byte-identical
        // to the cold build.
        assert_eq!(prep.positions(), &before[..]);
        let (again, hit) = cache.get_or_prepare(&fixed).unwrap();
        assert!(hit);
        let warm =
            crate::report_for(&fixed.build_with_prepared(&again).unwrap().run().unwrap()).to_json();
        assert_eq!(cold, warm, "a mobile sharer corrupted the cached tables");
    }

    #[test]
    fn concurrent_adoption_from_many_workers() {
        let a = spec(10);
        let cache = TableCache::new(u64::MAX);
        let (warm, _) = cache.get_or_prepare(&a).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (prep, hit) = cache.get_or_prepare(&a).unwrap();
                    assert!(hit);
                    assert!(Arc::ptr_eq(&warm, &prep));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (8, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn racing_cold_misses_converge_to_one_entry() {
        let a = spec(11);
        let cache = TableCache::new(u64::MAX);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (prep, _) = cache.get_or_prepare(&a).unwrap();
                    assert!(prep.matches(&a));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "racing misses must adopt one entry");
        assert_eq!(
            (stats.hits, stats.misses),
            (3, 1),
            "in-flight coalescing: one build, three adoptions"
        );
    }

    fn in_flight(cache: &TableCache) -> usize {
        lock_unpoisoned(&cache.inner).building.len()
    }

    #[test]
    fn a_panicking_preparation_wakes_its_waiter_and_leaves_no_key_in_flight() {
        // The panic fires while the key is in flight and another cell
        // waits on it: the doomed cell gets Panicked, the waiter wakes,
        // prepares the key itself and completes.
        let waiter = spec(14);
        let mut doomed = spec(14);
        doomed.name = "__panic_once_waited__".into();
        let cache = TableCache::new(u64::MAX);
        std::thread::scope(|s| {
            let doomed_cell = s.spawn(|| execute_cell(&doomed, Some(&cache)));
            // Look up only once the doomed preparation holds the key.
            while in_flight(&cache) == 0 {
                std::thread::yield_now();
            }
            let (_, hit) = execute_cell(&waiter, Some(&cache)).expect("the waiter completes");
            assert!(!hit, "the panicked preparation inserted nothing");
            match doomed_cell.join().expect("the panic is caught in the cell") {
                Err(ScenarioError::Panicked { cell, message }) => {
                    assert_eq!(cell, "__panic_once_waited__");
                    assert!(message.contains("injected test panic"), "{message}");
                }
                other => panic!("expected Panicked, got {:?}", other.map(|(_, hit)| hit)),
            }
        });
        assert_eq!(in_flight(&cache), 0, "no key stays in flight");
        assert_eq!(
            cache.stats().entries,
            1,
            "the waiter's preparation is cached"
        );
    }

    #[test]
    fn a_panicking_run_keeps_the_entry_for_the_next_cell() {
        let next = spec(15);
        let mut doomed = spec(15);
        doomed.name = "__panic_in_run__".into();
        let cache = TableCache::new(u64::MAX);
        let err = execute_cell(&doomed, Some(&cache)).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Panicked { message, .. } if message.contains("in run")),
            "{err}"
        );
        assert_eq!(in_flight(&cache), 0);
        let (_, hit) = execute_cell(&next, Some(&cache)).expect("the next cell runs");
        assert!(
            hit,
            "the entry prepared before the run panic serves the next cell"
        );
    }

    #[test]
    fn a_failing_preparation_runs_once() {
        // 40 nodes on a 4000-wide square never connect at range 8, so
        // the search exhausts its seed budget. The cache's error is the
        // cell's error: the deployment is not searched a second time.
        let mut lonely = spec(16);
        lonely
            .set("deploy", "connected:uniform:40:4000:77")
            .unwrap();
        let cache = TableCache::new(u64::MAX);
        let err = execute_cell(&lonely, Some(&cache)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::NoConnectedDeployment { .. }),
            "{err}"
        );
        assert_eq!(crate::build::tests::realized(&lonely.deploy), 1);
        assert_eq!(in_flight(&cache), 0);
    }

    #[test]
    fn ideal_specs_prepare_no_table_and_share_the_exact_entry() {
        // mac=ideal runs no reception engine, so whatever its backend
        // field says, its preparation carries no table.
        let mut ideal = spec(17);
        ideal.set("mac", "ideal:eager").unwrap();
        let prep = PreparedDeployment::prepare(&ideal).unwrap();
        assert!(matches!(prep.tables(), SharedTables::Empty));
        assert_eq!(prep.tables().bytes(), 0);
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        let mut exact = spec(17);
        exact.set("backend", "exact").unwrap();
        let cache = TableCache::new(u64::MAX);
        assert!(!cache.get_or_prepare(&exact).unwrap().1);
        let (_, hit) = execute_cell(&ideal, Some(&cache)).unwrap();
        assert!(hit, "an ideal cell adopts the exact entry");
        assert_eq!(cache.stats().entries, 1);
    }
}
