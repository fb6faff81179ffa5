//! Reception decisions: who decodes whom in a slot.
//!
//! Because the decoding threshold satisfies `β > 1`, at most one
//! transmitter can be decoded by a given listener in a given slot, and it
//! can only be the transmitter with the strongest received signal (any
//! weaker candidate has both less signal and more interference). The
//! backends here exploit that: per listener they find the nearest
//! transmitter and evaluate the SINR inequality once.
//!
//! # The [`InterferenceBackend`] trait
//!
//! Every slot of every simulation funnels through one reception decision
//! per listener, so this is the hot path of the whole workspace. The
//! computation is pluggable through [`InterferenceBackend`], with three
//! implementations offering different accuracy/throughput trade-offs:
//!
//! * [`ExactBackend`] sums `P/d^α` over every transmitter — the ground
//!   truth, O(listeners × senders) per slot. Use it for small networks and
//!   as the reference the other backends are validated against.
//!
//! * [`CachedBackend`] precomputes every pairwise link gain `P/d^α` once
//!   per deployment into an immutable [`GainTable`] (flat row-major
//!   `n×n`, held in an `Arc` so many runs over one deployment share a
//!   single copy), then drives each slot from the *delta* of the
//!   transmitter set: the total interference at every listener is
//!   maintained incrementally — in a small per-run state — as senders
//!   enter and leave, with a periodic exact refresh bounding float drift
//!   and a guarded near-threshold fallback that replays the exact
//!   summation — receptions are **bit-identical** to [`ExactBackend`]
//!   (verified by proptest, including churn). Per-slot cost is
//!   O(|Δ senders| × n) instead of O(n × senders), at O(n²) memory *per
//!   deployment* (not per run: sweeps over a fixed deployment hand every
//!   cell a clone of one `Arc<GainTable>`). The fastest choice for long
//!   simulations whose transmitter set evolves gradually (every MAC layer
//!   in this workspace).
//!
//! * [`HybridBackend`] is the approximate kernel for city-scale
//!   deployments (n = 10⁴–10⁵, where the dense table would need 1.6 GB
//!   to 160 GB): pairs within a spatial-hash cutoff radius get the
//!   cached treatment — exact gains in CSR-style sparse rows
//!   ([`HybridTable`], O(n·near_degree) memory), driven incrementally by
//!   transmitter deltas — while each far cell is aggregated as
//!   `count · P/box^α` with `box` the cell-pair lower-bound distance,
//!   maintained incrementally from per-cell transmitter counts — the
//!   ring bound of the paper's Lemma 10.3. Far distances are
//!   under-estimated, so the kernel is **conservative**: it never
//!   decodes a message [`ExactBackend`] would reject (and since `β > 1`
//!   forces any granted sender to strictly dominate, a granted message
//!   always names the sender exact would name). The near-field half of
//!   the arithmetic is bit-identical to the dense kernel's.
//!   [`BackendSpec::tuned`] auto-selects this model when a requested
//!   dense table would exceed [`max_table_bytes`].
//!
//! The two table kernels are one algorithm: [`IncrementalBackend`] owns
//! the sender diff, the refresh-or-delta cadence, the threaded listener
//! sweeps, the guard-band decision loop with exact replay and the
//! mobility repair, and is generic over a *row source* — the dense
//! [`GainTable`] or the sparse [`HybridTable`] — that supplies only its
//! row sweeps, its far-field term and how it follows node moves.
//! `CachedBackend` and `HybridBackend` are that skeleton over each
//! source. The dense source has no far field (its term is zero), so the
//! hybrid's per-cell aggregate — the Lemma 10.3 ring bound — is the only
//! difference in what the two kernels compute.
//!
//! Threads (`:par:T` in a spec) act only on the two table kernels, which
//! split their listener sweeps across OS threads (`std::thread::scope`).
//! Listeners are independent, so receptions are **bit-identical** at any
//! thread count (verified by proptest) — threading is purely a
//! wall-clock lever. Below [`PAR_CROSSOVER_LISTENERS`] listeners the
//! fan-out costs more than it saves, so the sweeps run serial (see
//! [`effective_threads`]). `exact` always runs serial: `cached` decides
//! what `exact` decides, several times faster on any thread count.
//!
//! # Lifecycle: `prepare` once, `decide_slot` every slot
//!
//! Backends are stateful. [`InterferenceBackend::prepare`] is called once
//! per run with the deployment (the `Engine` does this at construction)
//! and front-loads whatever the backend can precompute — the gain matrix
//! for [`CachedBackend`], nothing for [`ExactBackend`].
//! [`decide_slot`](InterferenceBackend::decide_slot) then runs every slot
//! against the prepared deployment; scratch
//! allocations (sender position buffers, delta sets) are reused across
//! slots. Calling `decide_slot` without `prepare`
//! (or with a different deployment) stays correct — backends detect the
//! mismatch and re-prepare lazily — so the [`decide_receptions`]
//! convenience wrapper keeps working, it just pays the preparation cost
//! on every call.
//!
//! Moving deployments add a third lifecycle hook:
//! [`update_positions`](InterferenceBackend::update_positions), called by
//! the engine between slots with the nodes that moved. [`ExactBackend`]
//! ignores it; the cached kernel repairs only the touched gain
//! rows/columns and the affected incremental totals — O(movers × n)
//! instead of the O(n²) re-`prepare` a position change would otherwise
//! force (measured ≥5x per slot at n = 1024 with n/32 movers; see
//! `BENCH_reception.json`). When the kernel's [`GainTable`] is shared
//! with other runs, the first repair forks a private copy
//! (`Arc::make_mut` copy-on-write), so movement in one run can never
//! corrupt another run's gains — sharing stays safe even if a moving
//! scenario is accidentally handed a shared table.
//!
//! Selection is data-driven through [`BackendSpec`], the one backend
//! selector: a small `Copy` value that travels through constructor APIs
//! (`Engine`, `SinrAbsMac`, `DecayMac`, the baselines, the bench
//! binaries) and builds the backend at the edge.

use std::sync::{Arc, OnceLock};

use sinr_geom::Point;

use crate::{PhysError, SinrParams};

mod dense;
mod incremental;
mod sparse;
mod stateless;

pub use dense::{dense_table_bytes, max_table_bytes, CachedBackend, GainTable};
pub use incremental::IncrementalBackend;
pub use sparse::{HybridBackend, HybridTable};
pub use stateless::ExactBackend;

/// How interference sums are computed: the [`BackendSpec::model`] half of
/// a backend choice. Backends are chosen through [`BackendSpec`] alone.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum InterferenceModel {
    /// Exact summation over all transmitters.
    #[default]
    Exact,
    /// Cached-gain kernel: pairwise gains precomputed once per deployment,
    /// per-listener interference maintained incrementally from transmitter
    /// deltas. Receptions are bit-identical to [`Exact`](Self::Exact) at
    /// O(|Δ senders| × n) per slot and O(n²) memory (see module docs).
    Cached,
    /// Sparse near-field / aggregated far-field kernel: exact cached gains
    /// only for pairs within a spatial-hash cutoff radius (sparse
    /// CSR-style rows), per-cell far-field interference maintained
    /// incrementally from transmitter deltas. Conservative (it never
    /// decodes what [`Exact`](Self::Exact) denies), O(n · near_degree)
    /// memory — the city-scale kernel for n = 10⁴–10⁵ where the dense
    /// table cannot exist (see module docs).
    Hybrid {
        /// Near-field cutoff radius; `0.0` means auto (the weak range R).
        cutoff: f64,
    },
}

/// Checks a hybrid near-field cutoff: `0.0` (auto) or a finite radius of
/// at least [`MIN_NODE_DISTANCE`](sinr_geom::deploy::MIN_NODE_DISTANCE).
/// No two nodes of a deployment are closer than that, so a smaller
/// cutoff holds no near link, while the far-field offset table over
/// cells of side cutoff/3 grows as (extent / cutoff)²: at `hybrid:0.001`
/// on a 62 × 62 lattice it asked for 277 GB, and at `hybrid:1e-300` the
/// cell keys saturate and the build never ends.
///
/// # Errors
///
/// A description naming the refused value.
pub(crate) fn check_hybrid_cutoff(cutoff: f64) -> Result<(), String> {
    let floor = sinr_geom::deploy::MIN_NODE_DISTANCE;
    if cutoff == 0.0 || (cutoff.is_finite() && cutoff >= floor) {
        Ok(())
    } else {
        Err(format!(
            "hybrid cutoff must be 0 (auto) or a finite radius of at least {floor} \
             (the minimum node distance), got {cutoff:?}"
        ))
    }
}

/// Complete, serializable description of a reception backend: which
/// interference model to run and across how many threads.
///
/// `BackendSpec` is the value that travels through constructor APIs; the
/// actual worker state is built once at the edge with
/// [`BackendSpec::build`]. Threads reach only the table kernels
/// (`cached`, `hybrid`); `exact` always runs serial.
///
/// # Examples
///
/// ```
/// use sinr_phys::reception::BackendSpec;
///
/// let spec = BackendSpec::cached().with_threads(4);
/// assert_eq!(spec.build().name(), "cached+par");
/// // A thread request on `exact` parses but runs serial.
/// let exact = BackendSpec::exact().with_threads(4);
/// assert_eq!(exact.build().name(), "exact");
/// assert_eq!(exact.tuned(4096).to_string(), "exact");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    /// The serial interference model each listener decision uses.
    pub model: InterferenceModel,
    /// OS threads the per-listener loop is split across (1 = serial).
    pub threads: usize,
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::serial(InterferenceModel::Exact)
    }
}

impl BackendSpec {
    fn serial(model: InterferenceModel) -> Self {
        BackendSpec { model, threads: 1 }
    }

    /// Serial exact summation.
    pub fn exact() -> Self {
        BackendSpec::default()
    }

    /// The cached-gain delta kernel (bit-identical to exact, fastest for
    /// long runs; see module docs).
    pub fn cached() -> Self {
        BackendSpec::serial(InterferenceModel::Cached)
    }

    /// The sparse hybrid near/far kernel with the given near-field cutoff
    /// radius (`0.0` = auto: the weak range R of the parameters the
    /// backend is later prepared with).
    ///
    /// # Panics
    ///
    /// Panics unless `cutoff` is `0.0` or a finite radius of at least
    /// [`MIN_NODE_DISTANCE`](sinr_geom::deploy::MIN_NODE_DISTANCE);
    /// [`BackendSpec::parse`] refuses other values with an error.
    pub fn hybrid(cutoff: f64) -> Self {
        check_hybrid_cutoff(cutoff).unwrap_or_else(|e| panic!("{e}"));
        BackendSpec::serial(InterferenceModel::Hybrid { cutoff })
    }

    /// The same model with `threads` OS threads requested for its
    /// listener sweeps. Only the table kernels use them; [`build`] runs
    /// `exact` serial and [`tuned`] resolves its count to 1.
    ///
    /// [`build`]: Self::build
    /// [`tuned`]: Self::tuned
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        BackendSpec { threads, ..self }
    }

    /// Resolves the thread count against a concrete deployment size.
    /// `exact` always resolves to 1, the serial form it runs in, so the
    /// resolved spec names the backend that runs. The table kernels go
    /// through the serial/parallel crossover
    /// ([`effective_threads`]): below [`PAR_CROSSOVER_LISTENERS`]
    /// listeners the returned spec is serial, so small scenarios never pay
    /// thread fan-out that costs more than it saves. Thread tuning never
    /// changes results — only wall clock.
    ///
    /// **Memory fallback:** a [`Cached`](InterferenceModel::Cached) model
    /// whose dense table would exceed [`max_table_bytes`] at this
    /// deployment size is replaced by the sparse
    /// [`Hybrid`](InterferenceModel::Hybrid) kernel (auto cutoff). Unlike
    /// thread tuning this **does change results** — hybrid is a
    /// conservative approximation, not bit-identical to exact — but the
    /// alternative is a structured refusal
    /// ([`PhysError::GainTableTooLarge`]) at preparation time, and a
    /// scenario that opted into `tuned` sizing asked for the backend to
    /// fit the deployment. The swap is loud in reports: the backend name
    /// becomes `hybrid`.
    pub fn tuned(self, listeners: usize) -> Self {
        let model = match self.model {
            InterferenceModel::Cached if dense_table_bytes(listeners) > max_table_bytes() => {
                InterferenceModel::Hybrid { cutoff: 0.0 }
            }
            m => m,
        };
        let threads = match model {
            InterferenceModel::Exact => 1,
            InterferenceModel::Cached | InterferenceModel::Hybrid { .. } => {
                effective_threads(self.threads, listeners)
            }
        };
        BackendSpec { model, threads }
    }

    /// Builds the worker for this spec. The table kernels chunk their own
    /// listener sweeps across `threads`; `exact` ignores it.
    pub fn build(self) -> Box<dyn InterferenceBackend> {
        match self.model {
            InterferenceModel::Exact => Box::new(ExactBackend::new()),
            InterferenceModel::Cached => Box::new(CachedBackend::with_threads(self.threads)),
            InterferenceModel::Hybrid { cutoff } => {
                Box::new(HybridBackend::with_threads(cutoff, self.threads))
            }
        }
    }

    /// Builds the worker for this spec around an already-built shared
    /// table: the cached kernel adopts a [`SharedTables::Dense`] table,
    /// the hybrid kernel a [`SharedTables::Hybrid`] one, and every other
    /// pairing (an empty carrier, the other model's table, `exact`)
    /// builds privately.
    ///
    /// An adopted table is only used when it matches the deployment the
    /// backend is later prepared against (and, for the hybrid kernel,
    /// this spec's cutoff) — a mismatching table degrades to a private
    /// build by `prepare`, never to an error, so this is always correct
    /// and at worst as expensive as [`BackendSpec::build`]. This is the
    /// construction path shared preparation uses to amortize one table
    /// across every run over a fixed deployment.
    pub fn build_with_tables(self, tables: Option<&SharedTables>) -> Box<dyn InterferenceBackend> {
        match (self.model, tables) {
            (InterferenceModel::Cached, Some(SharedTables::Dense(table))) => Box::new(
                CachedBackend::with_shared_table(Arc::clone(table), self.threads),
            ),
            (InterferenceModel::Hybrid { cutoff }, Some(SharedTables::Hybrid(table))) => Box::new(
                HybridBackend::with_shared_table(cutoff, Arc::clone(table), self.threads),
            ),
            _ => self.build(),
        }
    }

    /// Parses a spec from a compact string, for CLI/bench selection:
    /// `exact`, `cached`, `hybrid[:CUTOFF]`, `par:THREADS`,
    /// or combinations like `cached:par:THREADS` and `hybrid:16:par:8`.
    /// The hybrid cutoff is optional — bare `hybrid` auto-selects the
    /// weak range R at preparation time. `par:THREADS` parses after any
    /// model, but only `cached` and `hybrid` run threaded (see
    /// [`BackendSpec::tuned`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = BackendSpec::exact();
        let mut parts = s.split(':').peekable();
        loop {
            match parts.next() {
                None => return Ok(spec),
                Some("exact") => spec.model = InterferenceModel::Exact,
                Some("cached") => spec.model = InterferenceModel::Cached,
                Some("hybrid") => {
                    // The cutoff component is optional: consume the next
                    // component only if it is numeric (so `hybrid:par:8`
                    // keeps working).
                    let mut cutoff = 0.0f64;
                    if let Some(c) = parts.peek().and_then(|p| p.parse::<f64>().ok()) {
                        check_hybrid_cutoff(c)?;
                        cutoff = c;
                        parts.next();
                    }
                    spec.model = InterferenceModel::Hybrid { cutoff };
                }
                Some("par") => {
                    let t = parts
                        .next()
                        .ok_or_else(|| "par needs a thread count, e.g. par:4".to_string())?;
                    let threads: usize = t
                        .parse()
                        .map_err(|e| format!("bad thread count {t:?}: {e}"))?;
                    if threads == 0 {
                        return Err("thread count must be nonzero".to_string());
                    }
                    spec.threads = threads;
                }
                Some(other) => {
                    return Err(format!(
                    "unknown backend component {other:?}; expected exact, cached, hybrid[:CUTOFF] or par:THREADS"
                ))
                }
            }
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.model {
            InterferenceModel::Exact => write!(f, "exact")?,
            InterferenceModel::Cached => write!(f, "cached")?,
            InterferenceModel::Hybrid { cutoff: 0.0 } => write!(f, "hybrid")?,
            InterferenceModel::Hybrid { cutoff } => write!(f, "hybrid:{cutoff}")?,
        }
        if self.threads > 1 {
            write!(f, ":par:{}", self.threads)?;
        }
        Ok(())
    }
}

/// A reusable worker that resolves all reception decisions of one slot.
///
/// Implementations own their scratch buffers, so calling
/// [`decide_slot`](InterferenceBackend::decide_slot) every slot performs
/// no per-slot allocations beyond what the slot's sender count forces.
/// See the module docs for the trade-offs between the implementations.
pub trait InterferenceBackend: Send {
    /// Short stable identifier (`"exact"`, `"cached"`, `"hybrid"`, and `"cached+par"` / `"hybrid+par"` for a table kernel
    /// built with more than one thread), used by benches and diagnostics.
    fn name(&self) -> &'static str;

    /// Front-loads per-deployment work (first phase of the lifecycle;
    /// see module docs).
    ///
    /// Called once per run before the first
    /// [`decide_slot`](InterferenceBackend::decide_slot), and again
    /// whenever positions or parameters change. The default is a no-op:
    /// the exact model has nothing to precompute. The cached
    /// kernel builds its [`GainTable`] here (unless it was constructed
    /// around a matching shared table, in which case only the per-run
    /// incremental state is reset), so the O(n²) gain matrix is paid at
    /// construction instead of inside the first simulated slot; the
    /// hybrid kernel builds its sparse [`HybridTable`] likewise.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when the cached kernel's dense
    /// table would exceed [`max_table_bytes`] — a structured refusal
    /// instead of an OOM abort inside the n×n allocation. The exact and
    /// hybrid backends never fail.
    fn prepare(&mut self, _params: &SinrParams, _positions: &[Point]) -> Result<(), PhysError> {
        Ok(())
    }

    /// Decides receptions for every node given the set of transmitters.
    ///
    /// Writes one entry per node into `out` (which must have
    /// `positions.len()` entries): `Some(sender)` if that node decodes a
    /// transmission this slot, `None` otherwise. Transmitters themselves
    /// are always `None` (half-duplex).
    ///
    /// `senders` must be sorted, deduplicated node indices into
    /// `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len()`, or if `senders` is not
    /// sorted/deduplicated or contains an index out of range — all are
    /// engine invariants, not user input.
    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    );

    /// Fallible variant of
    /// [`decide_slot`](InterferenceBackend::decide_slot) for callers that
    /// drive a backend directly: backends whose slot path can fail — the
    /// table-backed kernels, whose lazy re-preparation can hit the
    /// [`max_table_bytes`] cap — return the structured [`PhysError`]
    /// here and reserve panicking for the infallible-signature
    /// `decide_slot` edge. The default forwards to `decide_slot`: the
    /// exact model has no failure mode.
    ///
    /// The [`Engine`](crate::Engine), and with it the scenario service,
    /// never calls it: the engine prepares its backend at construction,
    /// where an over-cap dense table surfaces as
    /// [`PhysError::GainTableTooLarge`] (a resolved scenario backend
    /// never asks for one: [`BackendSpec::tuned`] swaps it for
    /// `hybrid`), and its slots run `decide_slot` — in the service,
    /// inside the per-cell panic boundary.
    ///
    /// # Errors
    ///
    /// Whatever [`prepare`](InterferenceBackend::prepare) can produce
    /// (the lazy re-preparation runs it), plus
    /// [`PhysError::BackendNotPrepared`] if a table-backed kernel's
    /// state went missing mid-decision.
    fn try_decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) -> Result<(), PhysError> {
        self.decide_slot(params, positions, senders, out);
        Ok(())
    }

    /// Notifies the backend that nodes moved between slots (the mobility
    /// lifecycle hook).
    ///
    /// `positions` is the **already updated** full position slice and
    /// `moved` lists the changed nodes as `(index, new position)` pairs —
    /// ascending indices, each node at most once. The exact backend reads
    /// positions fresh every slot, so the default is a no-op. The table kernels override this to repair only the touched
    /// table rows and the affected incremental interference totals —
    /// O(movers × row length) instead of the full re-`prepare` the
    /// position change would otherwise force on the next slot.
    ///
    /// Calling [`decide_slot`](InterferenceBackend::decide_slot) after a
    /// position change *without* this hook stays correct for every
    /// backend (the table kernels detect the mismatch and re-prepare
    /// lazily); the hook is purely the fast path.
    fn update_positions(
        &mut self,
        _params: &SinrParams,
        _positions: &[Point],
        _moved: &[(usize, Point)],
    ) {
    }
}

/// Validates the shared `decide_slot` preconditions.
fn check_invariants(positions: &[Point], senders: &[usize], out: &[Option<usize>]) {
    assert_eq!(
        out.len(),
        positions.len(),
        "output slice must have one entry per node"
    );
    assert!(
        senders.windows(2).all(|w| w[0] < w[1]),
        "senders must be sorted and deduplicated"
    );
    if let Some(&last) = senders.last() {
        assert!(last < positions.len(), "sender index out of range");
    }
}

/// Below this many listeners, parallel reception paths run serial.
///
/// Thread spawn/join costs a few tens of microseconds per slot, so
/// requesting threads for a small deployment must not be honored
/// blindly: a threaded per-slot listener loop measured 2.2x *slower*
/// than the serial loop at n = 64 and still behind at n = 256. The
/// threshold sits at 512 rather than at that run's break-even (~1024)
/// because those numbers came from a core-starved CI container whose
/// threaded rows mostly price spawn overhead — on machines with real
/// cores the crossover lands earlier — and because the same gate serves
/// the one-shot [`GainTable::build`] and [`HybridTable::build`] row
/// fills, jobs that amortize their spawns far sooner than the per-slot
/// `cached` and `hybrid` sweeps do.
pub const PAR_CROSSOVER_LISTENERS: usize = 512;

/// Minimum listeners each spawned thread must own past the crossover.
///
/// A per-slot sweep touches ~8–16 bytes per listener per delta sender —
/// a few microseconds of work per 256 listeners — which is the smallest
/// chunk that reliably pays for a `thread::scope` spawn/join. Smaller
/// chunks made a threaded n = 1024 listener loop *slower* than its
/// serial form; this floor (together with the hardware cap) is what
/// keeps `cached+par` and `hybrid+par` from running slower than serial
/// `cached` and `hybrid` at the benched sizes.
pub const PAR_MIN_CHUNK: usize = 256;

/// Resolves a requested thread count against a deployment size: serial
/// below [`PAR_CROSSOVER_LISTENERS`] listeners, never more threads than
/// the machine has cores, and never fewer than [`PAR_MIN_CHUNK`]
/// listeners per thread. Every parallel path in this module routes
/// through this, so `with_threads(8)` on a 64-node scenario — or on a
/// single-core container — is a no-op rather than a slowdown.
pub fn effective_threads(requested: usize, listeners: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    effective_threads_for(requested, listeners, hw)
}

/// The injectable core of [`effective_threads`]: the same resolution
/// against an explicit hardware thread count `hw`, so the crossover,
/// the hardware cap (no oversubscription: spawning 8 threads on 1 core
/// made a threaded n = 1024 listener loop 2x slower than serial) and the
/// per-thread work floor can be pinned by tests independently of the
/// machine running them.
pub fn effective_threads_for(requested: usize, listeners: usize, hw: usize) -> usize {
    if listeners < PAR_CROSSOVER_LISTENERS {
        return 1;
    }
    requested
        .min(hw.max(1))
        .clamp(1, (listeners / PAR_MIN_CHUNK).max(1))
}

/// Runs one task per chunk of pre-split work, spawning a scoped OS
/// thread per chunk — the single chunking primitive behind every
/// parallel loop in this module (the gain-table and hybrid-table row
/// fills, the cached and hybrid listener-state sweeps).
///
/// Callers split their mutable state into disjoint chunk values first
/// (`chunks_mut` plus whatever per-chunk context the task needs) and
/// decide the chunk count via [`effective_threads`]; a single chunk runs
/// inline on the calling thread, so the serial path never pays
/// `thread::scope` setup.
fn chunked_scope<T: Send>(chunks: Vec<T>, task: impl Fn(T) + Sync) {
    if chunks.len() <= 1 {
        for chunk in chunks {
            task(chunk);
        }
        return;
    }
    let task = &task;
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || task(chunk));
        }
    });
}

/// The one table a shared preparation built for a deployment, carried
/// into backend construction: the dense n×n [`GainTable`] of the cached
/// kernel, the sparse [`HybridTable`] of the hybrid kernel, or nothing
/// (`exact` has nothing to precompute).
/// [`BackendSpec::build_with_tables`] adopts it when the spec's model
/// runs that table and builds privately otherwise.
#[derive(Debug, Clone, Default)]
pub enum SharedTables {
    /// No table: every build degrades to a private prepare.
    #[default]
    Empty,
    /// A dense gain table for the cached kernel.
    Dense(Arc<GainTable>),
    /// A sparse table for the hybrid kernel.
    Hybrid(Arc<HybridTable>),
}

impl SharedTables {
    /// Resident bytes of the held table ([`GainTable::bytes`] or
    /// [`HybridTable::bytes`], 0 when empty) — what a byte-budgeted
    /// cache charges for keeping this carrier alive.
    pub fn bytes(&self) -> usize {
        match self {
            SharedTables::Empty => 0,
            SharedTables::Dense(table) => table.bytes(),
            SharedTables::Hybrid(table) => table.bytes(),
        }
    }
}

/// The raw SINR of transmitter `sender` at `listener` given the
/// transmitter set `senders` (exact model). Intended for diagnostics and
/// tests; the engine uses an [`InterferenceBackend`].
///
/// # Panics
///
/// Panics if `sender` is not an element of `senders` or equals `listener`.
pub fn sinr_at(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    listener: usize,
    sender: usize,
) -> f64 {
    assert!(senders.contains(&sender), "sender must be transmitting");
    assert_ne!(sender, listener, "a node does not receive from itself");
    let signal = params.received_power(positions[sender].dist(positions[listener]));
    let mut interference = 0.0;
    for &w in senders {
        if w != sender && w != listener {
            interference += params.received_power(positions[w].dist(positions[listener]));
        }
    }
    signal / (interference + params.noise())
}

/// Decides receptions for every node given the set of transmitters.
///
/// Returns one entry per node: `Some(sender)` if that node decodes a
/// transmission this slot, `None` otherwise. Transmitters themselves are
/// always `None` (half-duplex).
///
/// This is a convenience wrapper building a fresh backend for `spec` per
/// call (a table kernel pays its preparation every time); hot loops
/// should hold an [`InterferenceBackend`] instead so scratch buffers and
/// tables carry over between slots.
///
/// `senders` must be sorted, deduplicated node indices into `positions`.
///
/// # Panics
///
/// Panics if `senders` is not sorted/deduplicated or contains an index out
/// of range — both are engine invariants, not user input.
pub fn decide_receptions(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    spec: BackendSpec,
) -> Vec<Option<usize>> {
    let mut out = vec![None; positions.len()];
    spec.build()
        .decide_slot(params, positions, senders, &mut out);
    out
}

#[cfg(test)]
mod tests;
