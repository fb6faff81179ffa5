//! The byte-budgeted LRU cache of prepared deployments — the heart of
//! the service: a cache hit hands the worker `Arc` clones of the
//! positions, graphs and gain tables and skips the O(n²)/O(n·near)
//! preparation entirely.
//!
//! Keys are [`ScenarioSpec::deployment_key`] (deployment spec × SINR
//! parameters — exactly the sweep planner's sharing rule) extended with
//! the *want class* of the request's effective backend, so an
//! exact-model request (positions + graphs only) and a cached-model
//! request (dense gain table) of the same deployment occupy separate
//! entries instead of serving each other stripped-down state.
//!
//! Unlike the sweep planner, requests that move nodes (`mobility=`,
//! `dyn=teleport:…`) **do** use the cache: the cached kernels fork
//! their table copy-on-write on the first repair, so sharers stay
//! untouched (tested below), and a service cannot know how many future
//! requests will reuse the geometry — the planner's profitability
//! heuristic does not apply to a long-lived cache.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sinr_scenario::{PreparedDeployment, ScenarioError, ScenarioSpec};

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

struct Inner {
    entries: HashMap<String, Entry>,
    /// Keys whose preparation is in flight right now — same-key
    /// lookups wait on [`TableCache::built`] and adopt the result
    /// instead of duplicating the O(n²) work.
    building: HashSet<String>,
    resident: u64,
    tick: u64,
}

/// A byte-budgeted LRU cache of [`PreparedDeployment`]s.
pub struct TableCache {
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    inner: Mutex<Inner>,
    built: Condvar,
}

/// The table shape `spec`'s effective backend consumes — part of the
/// cache key (see the module docs).
fn want_class(spec: &ScenarioSpec) -> String {
    match sinr_scenario::env_backend_override(spec.backend).model {
        sinr_phys::InterferenceModel::Cached => "dense".into(),
        sinr_phys::InterferenceModel::Hybrid { cutoff } => format!("hybrid:{cutoff}"),
        _ => "plain".into(),
    }
}

fn cache_key(spec: &ScenarioSpec) -> String {
    // '\u{1}' appears in neither half (deployment_key uses it as its
    // own separator, want_class is plain ASCII), so the key is
    // unambiguous.
    format!("{}\u{1}{}", spec.deployment_key(), want_class(spec))
}

impl TableCache {
    /// An empty cache holding at most `budget` resident bytes.
    pub fn new(budget: u64) -> Self {
        TableCache {
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                building: HashSet::new(),
                resident: 0,
                tick: 0,
            }),
            built: Condvar::new(),
        }
    }

    /// Returns the prepared deployment for `spec`, preparing (and
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
    pub fn get_or_prepare(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(Arc<PreparedDeployment>, bool), ScenarioError> {
        let key = cache_key(spec);
        {
            let mut inner = self.inner.lock().expect("cache lock");
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(entry) = inner.entries.get_mut(&key) {
                    if entry.prep.matches(spec) {
                        entry.last_used = tick;
                        let prep = Arc::clone(&entry.prep);
                        drop(inner);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((prep, true));
                    }
                    // Unreachable while deployment_key covers exactly
                    // the match keys; kept as a correctness backstop so
                    // a future key widening degrades to a miss, never
                    // to wrong state.
                    break;
                }
                if !inner.building.contains(&key) {
                    break;
                }
                inner = self.built.wait(inner).expect("cache lock");
            }
            inner.building.insert(key.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prep = match PreparedDeployment::prepare(spec) {
            Ok(prep) => Arc::new(prep),
            Err(e) => {
                // Release the key so a waiter can retry (and fail with
                // its own error rather than hanging on ours).
                self.inner.lock().expect("cache lock").building.remove(&key);
                self.built.notify_all();
                return Err(e);
            }
        };
        let bytes = prep.resident_bytes() as u64;
        Ok((self.insert(key, prep, bytes), false))
    }

    fn insert(
        &self,
        key: String,
        prep: Arc<PreparedDeployment>,
        bytes: u64,
    ) -> Arc<PreparedDeployment> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.building.remove(&key);
        self.built.notify_all();
        if bytes > self.budget {
            // Larger than the whole budget: serve it uncached rather
            // than flushing everything for a single tenant. Waiters on
            // this key wake and prepare their own copy.
            return prep;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.entries.get_mut(&key) {
            // Backstop for an entry that appeared meanwhile — adopt it.
            existing.last_used = tick;
            return Arc::clone(&existing.prep);
        }
        inner.resident += bytes;
        inner.entries.insert(
            key,
            Entry {
                prep: Arc::clone(&prep),
                bytes,
                last_used: tick,
            },
        );
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
        prep
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resident_bytes: inner.resident,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            pd.resident_bytes(),
            pd.gain_table().expect("dense wanted").bytes() + pos_bytes
        );
        assert_eq!(
            ph.resident_bytes(),
            ph.hybrid_table().expect("hybrid wanted").bytes() + pos_bytes
        );
        assert_eq!(
            cache.stats().resident_bytes,
            (pd.resident_bytes() + ph.resident_bytes()) as u64
        );
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
        assert!(pp.gain_table().is_none(), "plain entries carry no table");
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
        let cold = sinr_scenario::report_for(&fixed.build().unwrap().run().unwrap()).to_json();

        let (prep, _) = cache.get_or_prepare(&fixed).unwrap();
        let before = prep.positions().to_vec();

        // The mobile request shares the same key (mobility is not part
        // of the deployment identity) and must hit.
        let (same, hit) = cache.get_or_prepare(&mobile).unwrap();
        assert!(hit, "mobility must not bypass the cache");
        assert!(Arc::ptr_eq(&prep, &same));
        let run = mobile.build_with_prepared(&same).unwrap().run().unwrap();
        let report = sinr_scenario::report_for(&run).to_json();
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
            sinr_scenario::report_for(&fixed.build_with_prepared(&again).unwrap().run().unwrap())
                .to_json();
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
}
