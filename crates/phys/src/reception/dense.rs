//! The dense row source: every pairwise gain of a deployment in one
//! immutable n×n [`GainTable`], swept by fused cache-blocked deltas —
//! the `cached` kernel ([`CachedBackend`]).

use std::sync::{Arc, OnceLock};

use sinr_geom::Point;

use super::incremental::{IncrementalBackend, ListenerState, RowSource, Senders, NO_SENDER};
use super::{chunked_scope, effective_threads};
use crate::{simd, PhysError, SinrParams};

/// Default dense gain-table memory cap: 2 GiB (n ≈ 11586).
const DEFAULT_MAX_TABLE_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Granularity of the nearest-sender prune index: one entry of the
/// gain table's block-min array covers this many consecutive
/// listeners, and one `u64` word of a sender bitmap covers exactly
/// one block.
const PRUNE_BLOCK: usize = 64;

/// Per-row minima of `matrix` (row-major, `n` columns) over
/// [`PRUNE_BLOCK`]-wide column blocks.
fn block_min_rows(matrix: &[f64], n: usize) -> Vec<f64> {
    let nb = n.div_ceil(PRUNE_BLOCK);
    let mut bmin = vec![f64::INFINITY; n * nb];
    for (bmins, row) in bmin.chunks_mut(nb.max(1)).zip(matrix.chunks(n.max(1))) {
        block_mins(bmins, row);
    }
    bmin
}

/// One row's minima over [`PRUNE_BLOCK`]-wide column blocks.
fn block_mins(bmins: &mut [f64], row: &[f64]) {
    for (bm, chunk) in bmins.iter_mut().zip(row.chunks(PRUNE_BLOCK)) {
        *bm = chunk
            .iter()
            .fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
    }
}

/// Bytes a dense [`GainTable`] needs for an `n`-node deployment: two
/// n×n `f64` matrices (gains and squared distances), 16 bytes per pair.
pub fn dense_table_bytes(n: usize) -> u64 {
    (n as u64).saturating_mul(n as u64).saturating_mul(16)
}

/// The dense gain-table memory cap in bytes: `SINR_MAX_TABLE_BYTES` if
/// set (read once per process), else 2 GiB. [`GainTable::try_build`] and
/// [`CachedBackend::prepare`](super::InterferenceBackend::prepare) refuse —
/// with a structured [`PhysError::GainTableTooLarge`] — deployments
/// whose table would exceed it, and [`BackendSpec::tuned`](super::BackendSpec::tuned) swaps such
/// deployments to the sparse hybrid kernel instead.
///
/// # Panics
///
/// Panics if `SINR_MAX_TABLE_BYTES` is set but not a valid `u64` — a
/// misconfigured cap must not silently fall back to the default.
pub fn max_table_bytes() -> u64 {
    static CAP: OnceLock<u64> = OnceLock::new();
    *CAP.get_or_init(|| match std::env::var("SINR_MAX_TABLE_BYTES") {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("SINR_MAX_TABLE_BYTES: bad value {raw:?}: {e}")),
        Err(_) => DEFAULT_MAX_TABLE_BYTES,
    })
}

/// All pairwise link gains of a deployment, precomputed once.
///
/// Flat row-major storage: `gain(s, u) = P / d(s, u)^α` lives at
/// `s·n + u`, so applying one sender's arrival or departure to every
/// listener is a single contiguous row sweep. A parallel matrix of
/// squared distances backs nearest-sender selection with the same
/// tie-breaking the exact backend uses. Diagonal entries are
/// gain `0` / distance `+∞`: a node never interferes with itself and
/// never becomes its own decode candidate.
///
/// Gains are computed with exactly the operations [`ExactBackend`](super::ExactBackend)
/// performs per pair (`dist_sq → sqrt → received_power`), so sums over
/// cached entries reproduce exact-backend sums bit for bit.
///
/// Memory is O(n²) — 16 MiB of `f64` at n = 1024 — the price of turning
/// per-slot `powf` calls into loads. The table is **immutable from the
/// kernel's point of view**: all per-run mutability lives in the
/// kernel's own state, so one `Arc<GainTable>` built once per deployment can
/// back any number of concurrent [`CachedBackend`]s (sweep cells, worker
/// threads). The only mutation, [`GainTable::move_node`], is applied by
/// the cached kernel through `Arc::make_mut` — copy-on-write, so a
/// moving run forks a private table instead of disturbing its sharers.
#[derive(Debug, Clone)]
pub struct GainTable {
    n: usize,
    params: SinrParams,
    positions: Vec<Point>,
    gains: Vec<f64>,
    d2: Vec<f64>,
    /// Per-sender *lower bounds* on the squared distance into each
    /// [`PRUNE_BLOCK`]-wide listener block (`n × ⌈n/PRUNE_BLOCK⌉`,
    /// row-major). Exact after a build; [`GainTable::move_node`] keeps
    /// them conservative in O(1) per touched row, so pruning can only
    /// get less effective under mobility, never unsound.
    d2_bmin: Vec<f64>,
}

impl GainTable {
    /// Precomputes the gain and distance matrices for a deployment,
    /// chunking the row fill across up to `threads` OS threads (rows are
    /// independent; [`effective_threads`] applies, so small deployments
    /// build serially). The thread count never changes the entries —
    /// each pair is computed independently — so a table built by shared
    /// preparation equals the one any cell would have built for itself,
    /// bit for bit.
    pub fn build(params: &SinrParams, positions: &[Point], threads: usize) -> Self {
        Self::try_build_with_cap(params, positions, threads, u64::MAX)
            .expect("uncapped build cannot fail")
    }

    /// Like [`GainTable::build`], but refusing — with
    /// [`PhysError::GainTableTooLarge`] — deployments whose n×n matrices
    /// would exceed [`max_table_bytes`], instead of OOM-aborting inside
    /// the allocation. This is the build the cached kernel's
    /// [`prepare`](super::InterferenceBackend::prepare) uses.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when `n × n × 16` bytes exceed
    /// the cap.
    pub fn try_build(
        params: &SinrParams,
        positions: &[Point],
        threads: usize,
    ) -> Result<Self, PhysError> {
        Self::try_build_with_cap(params, positions, threads, max_table_bytes())
    }

    /// [`GainTable::try_build`] against an explicit byte cap — the
    /// injectable core, so tests can exercise the refusal without
    /// mutating process environment.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when `n × n × 16` bytes exceed
    /// `cap`.
    pub fn try_build_with_cap(
        params: &SinrParams,
        positions: &[Point],
        threads: usize,
        cap: u64,
    ) -> Result<Self, PhysError> {
        let n = positions.len();
        let bytes = dense_table_bytes(n);
        if bytes > cap {
            return Err(PhysError::GainTableTooLarge { n, bytes, cap });
        }
        let mut gains = vec![0.0f64; n * n];
        let mut d2 = vec![f64::INFINITY; n * n];
        let fill = |first_row: usize, grows: &mut [f64], drows: &mut [f64]| {
            for (i, (grow, drow)) in grows.chunks_mut(n).zip(drows.chunks_mut(n)).enumerate() {
                let s = first_row + i;
                let ps = positions[s];
                // Two passes per row: the squared-distance sweep is pure
                // mul/add over contiguous memory (the autovectorizable
                // half of the fill), the gain pass then runs the
                // transcendental `sqrt → received_power` chain. Per pair
                // the arithmetic is unchanged — `dist_sq` then
                // `received_power(dd.sqrt())` — so entries stay
                // bit-identical to the fused single-pass fill.
                for (u, dv) in drow.iter_mut().enumerate() {
                    if s != u {
                        *dv = ps.dist_sq(positions[u]);
                    }
                }
                for (u, (gv, dv)) in grow.iter_mut().zip(drow.iter()).enumerate() {
                    if s != u {
                        *gv = params.received_power(dv.sqrt());
                    }
                }
            }
        };
        let eff = effective_threads(threads.max(1), n);
        let rows = n.div_ceil(eff);
        let tasks: Vec<(usize, &mut [f64], &mut [f64])> = gains
            .chunks_mut((rows * n).max(1))
            .zip(d2.chunks_mut((rows * n).max(1)))
            .enumerate()
            .map(|(k, (grows, drows))| (k * rows, grows, drows))
            .collect();
        chunked_scope(tasks, |(first_row, grows, drows)| {
            fill(first_row, grows, drows)
        });
        let d2_bmin = block_min_rows(&d2, n);
        Ok(GainTable {
            n,
            params: *params,
            positions: positions.to_vec(),
            gains,
            d2,
            d2_bmin,
        })
    }

    /// Number of nodes the cache was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resident size of the table in bytes: the gain and distance
    /// matrices (`2 × n² × 8`), the prune index and the retained
    /// position copy. This is the quantity byte-budgeted caches account
    /// per entry — a shared `Arc` costs this once no matter how many
    /// runs adopt it, and it never grows after the build.
    pub fn bytes(&self) -> usize {
        (self.gains.len() + self.d2.len() + self.d2_bmin.len()) * std::mem::size_of::<f64>()
            + self.positions.len() * std::mem::size_of::<Point>()
    }

    /// Whether this cache was built for exactly these parameters and
    /// positions (bitwise position equality — the kernel's totals are
    /// only valid against the deployment the gains were derived from).
    pub fn matches(&self, params: &SinrParams, positions: &[Point]) -> bool {
        self.params == *params && self.positions == positions
    }

    /// Received power of sender `s` at listener `u` (0 on the diagonal).
    #[inline]
    pub fn gain(&self, s: usize, u: usize) -> f64 {
        self.gains[s * self.n + u]
    }

    /// Squared distance from sender `s` to listener `u` (`+∞` on the
    /// diagonal).
    #[inline]
    pub fn dist_sq(&self, s: usize, u: usize) -> f64 {
        self.d2[s * self.n + u]
    }

    /// Sender `s`'s gains at the listener range `[base, base + len)`.
    #[inline]
    fn gain_row(&self, s: usize, base: usize, len: usize) -> &[f64] {
        &self.gains[s * self.n + base..s * self.n + base + len]
    }

    /// Sender `s`'s squared distances at the listener range
    /// `[base, base + len)`.
    #[inline]
    fn d2_row(&self, s: usize, base: usize, len: usize) -> &[f64] {
        &self.d2[s * self.n + base..s * self.n + base + len]
    }

    /// Lower bound on sender `s`'s squared distance into listener
    /// block `b` (covering listeners `[b·PRUNE_BLOCK, (b+1)·PRUNE_BLOCK)`).
    #[inline]
    fn d2_block_min(&self, s: usize, b: usize) -> f64 {
        self.d2_bmin[s * self.n.div_ceil(PRUNE_BLOCK) + b]
    }

    /// Repairs the table after `node` moved to `to`: its gain/distance
    /// row (node as sender) and column (node as listener) are recomputed
    /// against the current positions, O(n) with the same per-pair
    /// arithmetic as [`GainTable::build`] — so sums over patched entries
    /// still reproduce exact-backend sums bit for bit. `dist_sq` is
    /// symmetric at the bit level (`(-x)·(-x) == x·x` in IEEE 754), so
    /// one distance computation serves both orientations.
    pub fn move_node(&mut self, node: usize, to: Point) {
        let GainTable {
            n,
            params,
            positions,
            gains,
            d2,
            d2_bmin,
        } = self;
        let n = *n;
        let nb = n.div_ceil(PRUNE_BLOCK);
        let bnode = node / PRUNE_BLOCK;
        positions[node] = to;
        for other in 0..n {
            if other == node {
                continue;
            }
            let dd = to.dist_sq(positions[other]);
            let g = params.received_power(dd.sqrt());
            d2[node * n + other] = dd;
            gains[node * n + other] = g;
            d2[other * n + node] = dd;
            gains[other * n + node] = g;
            // The other row's block bound only needs to stay a lower
            // bound: lowering it towards the new entry is O(1); the
            // (rare) case where the moved entry *was* the minimum and
            // grew just leaves the bound conservatively loose.
            let bm = &mut d2_bmin[other * nb + bnode];
            if dd < *bm {
                *bm = dd;
            }
        }
        // The moved node's own row changed wholesale — recompute its
        // block minima exactly.
        block_mins(
            &mut d2_bmin[node * nb..node * nb + nb],
            &d2[node * n..node * n + n],
        );
    }
}

/// Rebuilds a listener range from scratch: totals summed sender-major in
/// ascending sender order (per listener, the identical operation sequence
/// [`ExactBackend`](super::ExactBackend) performs, hence identical bits) and nearest senders
/// re-selected with the exact backend's first-minimum tie-break. Resets
/// the drift bound to cover only the inherent ordered-sum rounding.
fn refresh_range(ls: ListenerState<'_>, cache: &GainTable, senders: &[usize]) {
    let len = ls.total.len();
    ls.total.fill(0.0);
    ls.best_d2.fill(f64::INFINITY);
    ls.best_s.fill(NO_SENDER);
    for &s in senders {
        // The unrolled kernel performs the same single add per listener
        // in the same sender order as the scalar loop — identical bits,
        // wider pipes.
        simd::add_assign(ls.total, cache.gain_row(s, ls.base, len));
        // Ascending sender order + strict < == the exact backend's
        // first-minimum tie-break, in select lanes instead of branches.
        // The +∞ diagonal never wins, so a sender never becomes its own
        // nearest sender and its entry stays valid once it stops.
        simd::lex_min_row(ls.best_d2, ls.best_s, cache.d2_row(s, ls.base, len), s);
    }
    let kf = senders.len() as f64;
    for (e, t) in ls.err.iter_mut().zip(ls.total.iter()) {
        *e = (kf + 1.0) * f64::EPSILON * t.abs();
    }
}

/// The nearest-sender half of a dense delta application. The selection
/// state is *exact* (never error-bounded): every listener must end on
/// the lexicographic (distance, sender index) minimum over the new
/// sender set — the choice a from-scratch ascending scan would make.
///
/// Three phases, each pruned:
///
/// 1. **Mark** — listeners whose tracked nearest departed are flagged
///    with one bitmap test per listener (no per-listener search).
/// 2. **Rescan** — each orphan re-derives its nearest from scratch by
///    reading its *own* distance row (d² is exactly symmetric — dx² +
///    dy² rounds identically in both directions — so the row holds the
///    same bits as the column walk the naive rescan would do, without
///    one cold cache line per candidate). Candidate senders come one
///    `u64` bitmap word per [`PRUNE_BLOCK`]; a block whose distance
///    lower bound exceeds the best found so far is skipped whole. The
///    running comparison is the full (d², s) lexicographic order, so
///    the seeded out-of-index-order sweep (the orphan's own
///    neighborhood first, to tighten the prune bound early) still
///    lands on exactly the ascending scan's winner.
/// 3. **Arrivals** — per listener block, the loosest tracked entry
///    bounds what an arriving sender must beat: any arrival whose
///    block minimum *strictly* exceeds it cannot change a single
///    selection there (equality could still win the index tie-break,
///    hence `>` not `>=`) and is skipped without touching the row.
///    Surviving rows fold with the branchless lexicographic select.
///
/// Rescan runs before arrivals so orphan entries are finite again by
/// the time block maxima are taken (an ∞ entry would disable pruning
/// for its whole block); arrivals re-competing against already-correct
/// orphan entries is idempotent under the lexicographic fold.
fn patch_nearest_after_delta(
    ls: &mut ListenerState<'_>,
    cache: &GainTable,
    senders: &[usize],
    enters: &[usize],
    leaves: &[usize],
) {
    let len = ls.best_d2.len();
    let nb = cache.n.div_ceil(PRUNE_BLOCK);
    let mut orphaned: Vec<usize> = Vec::new();
    if !leaves.is_empty() {
        // One bit per node beats a binary search per listener: the scan
        // runs over every listener whether or not anything left.
        let mut leave_mask = vec![0u64; nb];
        for &s in leaves {
            leave_mask[s >> 6] |= 1 << (s & 63);
        }
        for (u, (bd, bs)) in ls.best_d2.iter_mut().zip(ls.best_s.iter_mut()).enumerate() {
            let b = *bs;
            if b != NO_SENDER && leave_mask[b >> 6] & (1 << (b & 63)) != 0 {
                *bd = f64::INFINITY;
                *bs = NO_SENDER;
                orphaned.push(ls.base + u);
            }
        }
    }
    if !orphaned.is_empty() {
        let mut sender_words = vec![0u64; nb];
        for &s in senders {
            sender_words[s >> 6] |= 1 << (s & 63);
        }
        for &gu in &orphaned {
            let drow = cache.d2_row(gu, 0, cache.n);
            let mut bd = f64::INFINITY;
            let mut bs = NO_SENDER;
            let scan_block = |b: usize, bd: &mut f64, bs: &mut usize| {
                let mut w = sender_words[b];
                while w != 0 {
                    let sc = (b << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    let d = drow[sc];
                    // The `d < ∞` guard keeps the orphan's own +∞
                    // diagonal (it may itself still be sending) from
                    // tying into the selection.
                    if d < *bd || (d == *bd && d < f64::INFINITY && sc < *bs) {
                        *bd = d;
                        *bs = sc;
                    }
                }
            };
            let b0 = gu / PRUNE_BLOCK;
            for b in b0.saturating_sub(1)..(b0 + 2).min(nb) {
                scan_block(b, &mut bd, &mut bs);
            }
            for b in 0..nb {
                if cache.d2_block_min(gu, b) > bd {
                    continue;
                }
                scan_block(b, &mut bd, &mut bs);
            }
            ls.best_d2[gu - ls.base] = bd;
            ls.best_s[gu - ls.base] = bs;
        }
    }
    if !enters.is_empty() {
        let bfirst = ls.base / PRUNE_BLOCK;
        let blast = (ls.base + len).div_ceil(PRUNE_BLOCK);
        for b in bfirst..blast {
            let lo = (b * PRUNE_BLOCK).max(ls.base);
            let hi = ((b + 1) * PRUNE_BLOCK).min(ls.base + len);
            let bd = &mut ls.best_d2[lo - ls.base..hi - ls.base];
            let bs = &mut ls.best_s[lo - ls.base..hi - ls.base];
            let bmax = bd.iter().fold(0.0f64, |m, &v| if v > m { v } else { m });
            for &s in enters {
                if cache.d2_block_min(s, b) > bmax {
                    continue;
                }
                simd::lex_min_row_idx(bd, bs, cache.d2_row(s, lo, hi - lo), s);
            }
        }
    }
}

/// Cache-block width of the fused delta sweeps: 1024 listeners × two
/// f64 scratch lanes is 16 KiB of stack — L1-resident alongside the
/// gain rows being streamed, so past-L2 tables (n ≥ ~1500) reuse each
/// scratch line k times instead of refetching totals per sender.
const DELTA_BLOCK: usize = 1024;

/// Applies a transmitter-set delta to a dense listener range, fused and
/// cache-blocked: all of a slot's arrivals and departures are folded
/// per listener block in one pass — two pure-add accumulations (`pos`
/// over enter rows, `neg` over leave rows, both SIMD-friendly)
/// finalized by a single `total += pos − neg` — instead of k separate
/// read-modify-write row sweeps.
///
/// Totals take a *different* rounding path than a one-sender-at-a-time
/// sweep would, which is fine: decisions only ever depend on totals
/// through the guarded near-threshold machinery, and the drift bound
/// grown here stays conservative for the fused path. Per block, accumulating
/// `pos` (ke adds) errs ≤ ke·ε·pos, `neg` ≤ kl·ε·neg, the
/// subtraction ≤ ε·(pos+neg) and the final add ≤ ε·|new total| —
/// all absorbed (with the (1+O(ε)) cross terms doubled away) by
/// `ε·((kf+2)·(pos+neg) + 2·|new total|)` with kf the full delta
/// count. The nearest-sender half runs [`patch_nearest_after_delta`].
fn delta_range_batched(
    ls: ListenerState<'_>,
    cache: &GainTable,
    senders: &[usize],
    enters: &[usize],
    leaves: &[usize],
) {
    let mut ls = ls;
    let len = ls.total.len();
    let kf = (enters.len() + leaves.len()) as f64;
    let mut pos_block = [0.0f64; DELTA_BLOCK];
    let mut neg_block = [0.0f64; DELTA_BLOCK];
    let mut start = 0usize;
    while start < len {
        let blk = (len - start).min(DELTA_BLOCK);
        let pos = &mut pos_block[..blk];
        let neg = &mut neg_block[..blk];
        pos.fill(0.0);
        neg.fill(0.0);
        for &s in leaves {
            simd::add_assign(neg, cache.gain_row(s, ls.base + start, blk));
        }
        for &s in enters {
            simd::add_assign(pos, cache.gain_row(s, ls.base + start, blk));
        }
        for ((t, e), (&p, &ng)) in ls.total[start..start + blk]
            .iter_mut()
            .zip(ls.err[start..start + blk].iter_mut())
            .zip(pos.iter().zip(neg.iter()))
        {
            let t_new = *t + (p - ng);
            *t = t_new;
            *e += f64::EPSILON * ((kf + 2.0) * (p + ng) + 2.0 * t_new.abs());
        }
        start += blk;
    }
    patch_nearest_after_delta(&mut ls, cache, senders, enters, leaves);
}

impl RowSource for GainTable {
    type Key = ();
    type Far = ();
    const NAME: &'static str = "cached";
    const PAR_NAME: &'static str = "cached+par";
    /// With fused batched deltas a refresh is worth ~n/k delta slots, so
    /// at large n the fixed `REFRESH_OPS` budget alone would spend more
    /// time refreshing than applying deltas. The guarded replay keeps
    /// decisions exact regardless of how long drift accumulates.
    const REFRESH_PER_NODE: u64 = 4;

    fn build(
        params: &SinrParams,
        positions: &[Point],
        _key: (),
        threads: usize,
        capped: bool,
    ) -> Result<Self, PhysError> {
        let cap = if capped { max_table_bytes() } else { u64::MAX };
        GainTable::try_build_with_cap(params, positions, threads, cap)
    }

    fn fits(&self, params: &SinrParams, positions: &[Point], _key: ()) -> bool {
        self.matches(params, positions)
    }

    fn built_for(&self, params: &SinrParams, n: usize) -> bool {
        self.params == *params && self.n == n
    }

    fn refresh(&self, ls: ListenerState<'_>, senders: Senders<'_>) {
        refresh_range(ls, self, senders.list);
    }

    fn delta(
        &self,
        ls: ListenerState<'_>,
        senders: Senders<'_>,
        enters: &[usize],
        leaves: &[usize],
    ) {
        delta_range_batched(ls, self, senders.list, enters, leaves);
    }

    #[inline]
    fn signal(&self, u: usize, s: usize) -> f64 {
        self.gain(s, u)
    }

    fn replay_near(&self, senders: Senders<'_>, u: usize) -> (f64, usize) {
        let total = senders.list.iter().fold(0.0, |t, &s| t + self.gain(s, u));
        (total, senders.list.len())
    }

    fn move_nodes(&mut self, _far: &mut (), moved: &[(usize, Point)]) {
        for &(i, p) in moved {
            self.move_node(i, p);
        }
    }
}

/// Cached-gain reception kernel: the incremental skeleton over the dense
/// [`GainTable`] (see the module docs). Receptions are **bit-identical**
/// to [`ExactBackend`](super::ExactBackend).
pub type CachedBackend = IncrementalBackend<GainTable>;

impl Default for CachedBackend {
    fn default() -> Self {
        CachedBackend::new()
    }
}

impl CachedBackend {
    /// A fresh serial cached kernel (no gain table yet; it is built by
    /// [`prepare`](super::InterferenceBackend::prepare) or lazily on first use).
    pub fn new() -> Self {
        CachedBackend::with_threads(1)
    }

    /// Like [`CachedBackend::new`] with the delta/refresh sweeps chunked
    /// across up to `threads` OS threads (subject to the
    /// [`effective_threads`] crossover; results are bit-identical at any
    /// thread count since every listener's update sequence is unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        IncrementalBackend::with_key((), threads)
    }

    /// A cached kernel around an already-built shared gain table: when
    /// the deployment later handed to
    /// [`prepare`](super::InterferenceBackend::prepare) matches the table,
    /// preparation only resets the per-run state — O(n) instead of the
    /// O(n²) table build. A non-matching deployment rebuilds a private
    /// table exactly as [`CachedBackend::with_threads`] would, so
    /// adopting a table is never incorrect, only sometimes useless.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_shared_table(table: Arc<GainTable>, threads: usize) -> Self {
        CachedBackend::with_threads(threads).adopting(table)
    }
}
