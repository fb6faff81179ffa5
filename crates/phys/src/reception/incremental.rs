//! The incremental table kernel: one delta-driven skeleton,
//! [`IncrementalBackend`], shared by the dense and sparse row sources
//! through the [`RowSource`] trait (see the parent module docs).

use std::cmp::Ordering;
use std::fmt::Debug;
use std::sync::Arc;

use sinr_geom::Point;

use super::{check_invariants, chunked_scope, effective_threads, InterferenceBackend};
use crate::{PhysError, SinrParams};

/// Sentinel in the per-listener best-sender arrays: no current sender.
pub(super) const NO_SENDER: usize = usize::MAX;

/// Incremental updates per listener between mandatory full refreshes of
/// the interference totals — the floor of every row source's interval
/// (see [`RowSource::REFRESH_PER_NODE`]). Each update contributes at most
/// one rounding error of relative size `f64::EPSILON`, so the accumulated
/// drift stays orders of magnitude below the near-threshold guard band
/// that triggers exact recomputation.
pub(super) const REFRESH_OPS: u64 = 1024;

/// Diffs two sorted, deduplicated index sets into `enters` (in `curr`
/// only) and `leaves` (in `prev` only), clearing both outputs first.
fn diff_sorted(prev: &[usize], curr: &[usize], enters: &mut Vec<usize>, leaves: &mut Vec<usize>) {
    enters.clear();
    leaves.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev.len() && j < curr.len() {
        match prev[i].cmp(&curr[j]) {
            Ordering::Less => {
                leaves.push(prev[i]);
                i += 1;
            }
            Ordering::Greater => {
                enters.push(curr[j]);
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    leaves.extend_from_slice(&prev[i..]);
    enters.extend_from_slice(&curr[j..]);
}

/// A contiguous range of the per-listener state, the unit of work one
/// thread processes. `base` is the global index of the first listener in
/// the slices.
pub struct ListenerState<'a> {
    pub(super) base: usize,
    pub(super) total: &'a mut [f64],
    pub(super) err: &'a mut [f64],
    pub(super) best_d2: &'a mut [f64],
    pub(super) best_s: &'a mut [usize],
}

/// Splits the four per-listener state arrays into `eff` contiguous
/// [`ListenerState`] chunks (one whole-range chunk when `eff <= 1`),
/// ready for [`chunked_scope`].
fn listener_chunks<'a>(
    total: &'a mut [f64],
    err: &'a mut [f64],
    best_d2: &'a mut [f64],
    best_s: &'a mut [usize],
    n: usize,
    eff: usize,
) -> Vec<ListenerState<'a>> {
    let chunk = n.div_ceil(eff.max(1)).max(1);
    total
        .chunks_mut(chunk)
        .zip(err.chunks_mut(chunk))
        .zip(best_d2.chunks_mut(chunk))
        .zip(best_s.chunks_mut(chunk))
        .enumerate()
        .map(|(k, (((total, err), best_d2), best_s))| ListenerState {
            base: k * chunk,
            total,
            err,
            best_d2,
            best_s,
        })
        .collect()
}

/// The transmitter set a sweep works against, in both shapes a row
/// source may read: the sorted index list (sweeps by sender) and the
/// per-node flags (row scans by listener). The two always describe the
/// same set.
#[derive(Clone, Copy)]
pub struct Senders<'a> {
    pub(super) list: &'a [usize],
    pub(super) sending: &'a [bool],
}

/// What a gain table supplies to [`IncrementalBackend`]: how it is built
/// and matched, its listener sweeps, its far-field term and how it
/// follows node moves.
///
/// The far-field methods default to "no far field" — a zero term with a
/// zero drift bound and no per-run state — which is what the dense table
/// uses, so its arithmetic stays that of a kernel without a far term.
pub trait RowSource: Clone + Debug + Send + Sync {
    /// What selects a table besides the parameters and positions (the
    /// hybrid cutoff as specified; nothing for the dense table).
    type Key: Copy + Debug + Send + Sync;
    /// Per-run far-field state.
    type Far: Debug + Default + Send;
    /// Kernel name of the serial backend, also the `backend` of
    /// [`PhysError::BackendNotPrepared`].
    const NAME: &'static str;
    /// Kernel name when the sweeps are threaded.
    const PAR_NAME: &'static str;
    /// Full refreshes happen at least every `max(REFRESH_OPS,
    /// REFRESH_PER_NODE · n)` delta updates.
    const REFRESH_PER_NODE: u64;

    /// Builds the table for a deployment; `capped` applies the table
    /// kind's memory cap, if it has one.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when a capped build refuses.
    fn build(
        params: &SinrParams,
        positions: &[Point],
        key: Self::Key,
        threads: usize,
        capped: bool,
    ) -> Result<Self, PhysError>;
    /// Whether the table was built for exactly this deployment and key.
    fn fits(&self, params: &SinrParams, positions: &[Point], key: Self::Key) -> bool;
    /// Whether the table holds `n` nodes under `params` (positions may
    /// have moved since).
    fn built_for(&self, params: &SinrParams, n: usize) -> bool;
    /// Rebuilds a listener range from scratch over `senders`: ordered
    /// totals, nearest senders, and drift bounds covering only the
    /// ordered sum's own rounding.
    fn refresh(&self, ls: ListenerState<'_>, senders: Senders<'_>);
    /// Applies arrivals and departures to a listener range; `senders` is
    /// the set after the change, and the drift bounds grow by at least
    /// the rounding the update commits.
    fn delta(
        &self,
        ls: ListenerState<'_>,
        senders: Senders<'_>,
        enters: &[usize],
        leaves: &[usize],
    );
    /// The received power of sender `s` at listener `u`.
    fn signal(&self, u: usize, s: usize) -> f64;
    /// Listener `u`'s exact ordered sum over `senders` (the near field,
    /// for a source with a far term), with its number of terms.
    fn replay_near(&self, senders: Senders<'_>, u: usize) -> (f64, usize);
    /// Follows node moves (the copy-on-write fork already happened),
    /// growing `far` if the moves create new far-field slots.
    fn move_nodes(&mut self, far: &mut Self::Far, moved: &[(usize, Point)]);

    /// Resets the far-field state for a fresh run over this table.
    fn reset_far(&self, _far: &mut Self::Far) {}
    /// Whether the far-field state is sized for this table.
    fn far_ready(&self, _far: &Self::Far) -> bool {
        true
    }
    /// Folds a transmitter delta into the far-field state, or rebuilds it
    /// from scratch on a full refresh.
    fn far_update(
        &self,
        _far: &mut Self::Far,
        _enters: &[usize],
        _leaves: &[usize],
        _refresh: bool,
        _threads: usize,
    ) {
    }
    /// Listener `u`'s maintained far-field term and its drift bound.
    fn far_at(&self, _far: &Self::Far, _u: usize) -> (f64, f64) {
        (0.0, 0.0)
    }
    /// Listener `u`'s far-field term recomputed from scratch.
    fn replay_far(&self, _far: &Self::Far, _u: usize) -> f64 {
        0.0
    }
    /// Extra worst-case terms in a listener's sum beyond one per sender
    /// (the far cells), for the comparison-arithmetic slack.
    fn guard_terms(&self) -> usize {
        0
    }
}

/// The per-run mutable half of a table kernel: incremental interference
/// totals, drift bounds, nearest-sender choices, the previous
/// transmitter set and the row source's far-field state.
///
/// Everything expensive and deployment-derived lives in the immutable
/// table; this is a handful of O(n) vectors that are cheap to allocate
/// and reset, which is what makes sharing one table across many runs
/// worthwhile — each run brings only its own state.
#[derive(Debug, Default)]
pub(super) struct SlotState<F> {
    /// Per-listener total received power over the current sender set
    /// (the near field, when the source has a far term).
    pub(super) total: Vec<f64>,
    /// Per-listener conservative bound on |total − exact ordered sum|.
    pub(super) err: Vec<f64>,
    /// Per-listener squared distance to the nearest current sender.
    best_d2: Vec<f64>,
    /// Per-listener nearest current sender ([`NO_SENDER`] when none).
    best_s: Vec<usize>,
    /// Whether each node transmitted in the previous `decide_slot`.
    sending: Vec<bool>,
    /// The previous slot's sorted sender set.
    pub(super) prev: Vec<usize>,
    enters: Vec<usize>,
    leaves: Vec<usize>,
    pub(super) ops_since_refresh: u64,
    far: F,
}

impl<F: Default> SlotState<F> {
    /// Resets the near-field state for a fresh run over `n` nodes (the
    /// row source resets `far`).
    fn reset(&mut self, n: usize) {
        *self = SlotState {
            total: vec![0.0; n],
            err: vec![0.0; n],
            best_d2: vec![f64::INFINITY; n],
            best_s: vec![NO_SENDER; n],
            sending: vec![false; n],
            prev: Vec::new(),
            enters: Vec::new(),
            leaves: Vec::new(),
            ops_since_refresh: 0,
            far: std::mem::take(&mut self.far),
        };
    }
}

/// Delta-driven reception kernel over a row source:
/// [`CachedBackend`](super::CachedBackend) over the dense
/// [`GainTable`](super::GainTable), [`HybridBackend`](super::HybridBackend)
/// over the sparse [`HybridTable`](super::HybridTable).
///
/// [`prepare`](InterferenceBackend::prepare) builds the table (or adopts
/// a matching shared one handed in at construction) and resets the
/// per-run state; each [`decide_slot`](InterferenceBackend::decide_slot)
/// then diffs the sender set against the previous slot and either
/// refreshes every listener or applies the arrivals and departures as
/// deltas — O(|Δ| × row length) instead of the exact backend's
/// O(n × senders). Near-threshold decisions (the only ones float drift
/// could flip) are detected by a conservative guard band derived from a
/// tracked per-listener drift bound and resolved by replaying the
/// listener's sum exactly; a periodic full refresh keeps the band tiny.
/// Over the dense table, receptions are therefore **bit-identical** to
/// [`ExactBackend`](super::ExactBackend); over the sparse table they
/// equal a drift-free evaluation of the conservative hybrid model.
#[derive(Debug)]
pub struct IncrementalBackend<S: RowSource> {
    threads: usize,
    key: S::Key,
    table: Option<Arc<S>>,
    pub(super) state: SlotState<S::Far>,
}

impl<S: RowSource> IncrementalBackend<S> {
    /// A kernel without a table yet, selecting its table by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub(super) fn with_key(key: S::Key, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        IncrementalBackend {
            threads,
            key,
            table: None,
            state: SlotState::default(),
        }
    }

    /// Hands the kernel an already-built shared table, adopted by
    /// `prepare` when it fits the deployment and rebuilt otherwise.
    pub(super) fn adopting(mut self, table: Arc<S>) -> Self {
        self.table = Some(table);
        self
    }

    /// The prepared table, if any.
    pub fn table(&self) -> Option<&S> {
        self.table.as_deref()
    }

    /// A shareable handle to the prepared table, if any — hand clones of
    /// this to other backends over the same deployment to amortize the
    /// build.
    pub fn shared_table(&self) -> Option<Arc<S>> {
        self.table.clone()
    }

    /// Whether the per-run state is sized for `table` over `n` nodes
    /// (false on a fresh backend whose `prepare` has not run yet, even
    /// if it adopted a matching shared table).
    fn state_fits(table: &S, state: &SlotState<S::Far>, n: usize) -> bool {
        state.total.len() == n && table.far_ready(&state.far)
    }

    fn reset_state(&mut self, n: usize) {
        self.state.reset(n);
        if let Some(table) = self.table.as_deref() {
            table.reset_far(&mut self.state.far);
        }
    }

    /// Brings every listener and the far field up to date with a
    /// transmitter change: a full `refresh` over `list`, or the arrivals
    /// `enters` and departures `leaves` (with `list` the set after them).
    /// The listener sweep is chunked across threads past the crossover;
    /// every chunk sees `list` together with the current sending flags.
    /// The table is an explicit argument: callers fetch it fallibly once,
    /// so no "prepared above" assertion is left to poison the process.
    fn apply(
        table: &S,
        threads: usize,
        state: &mut SlotState<S::Far>,
        list: &[usize],
        (enters, leaves): (&[usize], &[usize]),
        refresh: bool,
    ) {
        let SlotState {
            total,
            err,
            best_d2,
            best_s,
            sending,
            far,
            ..
        } = state;
        if refresh || !enters.is_empty() || !leaves.is_empty() {
            let n = total.len();
            let senders = Senders { list, sending };
            let eff = effective_threads(threads, n);
            let tasks = listener_chunks(total, err, best_d2, best_s, n, eff);
            chunked_scope(tasks, |ls| {
                if refresh {
                    table.refresh(ls, senders);
                } else {
                    table.delta(ls, senders, enters, leaves);
                }
            });
        }
        table.far_update(far, enters, leaves, refresh, threads);
    }
}

impl<S: RowSource> InterferenceBackend for IncrementalBackend<S> {
    fn name(&self) -> &'static str {
        if self.threads > 1 {
            S::PAR_NAME
        } else {
            S::NAME
        }
    }

    /// (Re)builds the table unless the held one already fits, then
    /// resets all incremental state. Fails — without touching the held
    /// table — when the build refuses.
    fn prepare(&mut self, params: &SinrParams, positions: &[Point]) -> Result<(), PhysError> {
        if !self
            .table
            .as_ref()
            .is_some_and(|t| t.fits(params, positions, self.key))
        {
            self.table = Some(Arc::new(S::build(
                params,
                positions,
                self.key,
                self.threads,
                true,
            )?));
        }
        self.reset_state(positions.len());
        Ok(())
    }

    /// Applies a position change to the prepared kernel: the table
    /// follows the movers and every affected incremental quantity is
    /// repaired — O(movers × row length) against the full rebuild a
    /// re-`prepare` would cost.
    ///
    /// The repair reuses the churn machinery. A mover that is currently
    /// transmitting *leaves* at its old gains before the table is
    /// touched (its flag dropped, so orphan rescans cannot resurrect it
    /// at stale distances) and *re-enters* at its new gains after, each
    /// update growing the tracked drift bound like sender churn does.
    /// Every distance *to* a mover changed, so each mover's own
    /// listening state is then rebuilt by the row source's refresh over
    /// its one-listener range. Decisions keep their guarantee by the same
    /// argument as for churn: totals stay within the tracked drift bound
    /// of the exact ordered sum, and near-threshold decisions replay it.
    ///
    /// If the table is shared with other backends, the first repair
    /// forks a private copy (`Arc::make_mut`): the copy is paid once per
    /// moving run, every later move mutates the now-unique table in
    /// place, and no sharer ever observes the movement.
    fn update_positions(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        moved: &[(usize, Point)],
    ) {
        if moved.is_empty() {
            return;
        }
        let n = positions.len();
        // A release assert, not a debug one: an unsorted `moved` list
        // would silently corrupt the incremental totals by a full gain
        // value — far outside the tracked drift bound, so the guarded
        // exact-replay fallback would never catch it. The O(movers)
        // check is noise next to the repair itself.
        assert!(
            moved.windows(2).all(|w| w[0].0 < w[1].0),
            "moved nodes must be ascending and unique"
        );
        let Some(table) = self.table.as_deref() else {
            // Never prepared: nothing to repair, the first decide_slot
            // prepares lazily against whatever positions it sees.
            return;
        };
        if !table.built_for(params, n) || !Self::state_fits(table, &self.state, n) {
            // Parameter or size change (or an adopted shared table whose
            // state was never prepared): fall back to the lazy rebuild.
            return;
        }
        if moved.len() * 4 >= n {
            // Surgery on a quarter of the nodes costs as much as the
            // (thread-chunked) rebuild; take the simple path. The state
            // reset makes the next decide_slot run a full refresh. The
            // rebuild replaces an existing same-size table, so it is
            // deliberately uncapped: a table that already exists is
            // proof the size fits in memory. Should it fail anyway, the
            // stale table no longer matches and the next slot re-prepares.
            if let Ok(rebuilt) = S::build(params, positions, self.key, self.threads, false) {
                self.table = Some(Arc::new(rebuilt));
            }
            self.reset_state(n);
            return;
        }

        let IncrementalBackend {
            threads,
            table: Some(arc),
            state,
            ..
        } = self
        else {
            return;
        };
        let threads = *threads;
        let moved_senders: Vec<usize> = moved
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| state.sending[i])
            .collect();
        // Departure at the old gains; orphaned listeners (their nearest
        // sender moved) rescan over the unmoved senders, whose table
        // entries are still valid.
        for &s in &moved_senders {
            state.sending[s] = false;
        }
        let remaining: Vec<usize> = state
            .prev
            .iter()
            .copied()
            .filter(|i| moved_senders.binary_search(i).is_err())
            .collect();
        let leave = (&[][..], &moved_senders[..]);
        Self::apply(arc, threads, state, &remaining, leave, false);

        // Copy-on-write: a shared table is forked here, a private one is
        // patched in place.
        Arc::make_mut(arc).move_nodes(&mut state.far, moved);
        let table: &S = arc;

        // Re-entry at the new gains; the enter path also lets each moved
        // sender re-compete for nearest sender with the exact backend's
        // (distance, index) tie-break.
        for &s in &moved_senders {
            state.sending[s] = true;
        }
        let prev = std::mem::take(&mut state.prev);
        let enter = (&moved_senders[..], &[][..]);
        Self::apply(table, threads, state, &prev, enter, false);
        for &(m, _) in moved {
            let ls = ListenerState {
                base: m,
                total: &mut state.total[m..=m],
                err: &mut state.err[m..=m],
                best_d2: &mut state.best_d2[m..=m],
                best_s: &mut state.best_s[m..=m],
            };
            let senders = Senders {
                list: &prev,
                sending: &state.sending,
            };
            table.refresh(ls, senders);
        }
        state.prev = prev;

        // Each leave/enter pair and each rebuilt listener counts toward
        // the periodic full refresh that keeps the guard band tight.
        state.ops_since_refresh += (2 * moved_senders.len() + moved.len()) as u64;
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        // The infallible-signature edge: inside `decide_slot` there is
        // no error channel, so the one fallible step (an over-cap lazy
        // re-preparation) panics with the structured message. The engine
        // prepares at construction, where that error is returned; direct
        // callers who want it per slot use `try_decide_slot`.
        if let Err(e) = self.try_decide_slot(params, positions, senders, out) {
            panic!("{} backend: {e}", S::NAME);
        }
    }

    fn try_decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) -> Result<(), PhysError> {
        check_invariants(positions, senders, out);
        out.fill(None);
        let prepared = self.table.as_deref().is_some_and(|t| {
            t.fits(params, positions, self.key) && Self::state_fits(t, &self.state, positions.len())
        });
        if !prepared {
            // Lazy (re)preparation: correct for one-shot wrappers and
            // deployment swaps, at the cost of a table build — or just
            // the O(n) state reset when a matching shared table was
            // adopted at construction. An over-cap deployment surfaces
            // here as the structured error.
            self.prepare(params, positions)?;
        }
        let IncrementalBackend {
            threads,
            table,
            state,
            ..
        } = self;
        let threads = *threads;
        let Some(table) = table.as_deref() else {
            return Err(PhysError::BackendNotPrepared { backend: S::NAME });
        };

        diff_sorted(&state.prev, senders, &mut state.enters, &mut state.leaves);
        let delta = state.enters.len() + state.leaves.len();
        state.ops_since_refresh += delta as u64;
        // Sending flags flip before the sweeps: sparse orphan rescans
        // filter rows by the current flags instead of a sender list.
        for &s in &state.leaves {
            state.sending[s] = false;
        }
        for &s in &state.enters {
            state.sending[s] = true;
        }
        let (enters, leaves) = (
            std::mem::take(&mut state.enters),
            std::mem::take(&mut state.leaves),
        );
        let interval = REFRESH_OPS.max(S::REFRESH_PER_NODE * positions.len() as u64);
        // A delta as large as the set itself makes the rebuild the
        // cheaper path for either row source, since a rebuild reads one
        // row per sender and a delta one per changed sender; the
        // periodic refresh bounds float drift.
        let refresh = delta >= senders.len().max(1) || state.ops_since_refresh >= interval;
        if refresh {
            state.ops_since_refresh = 0;
        }
        Self::apply(table, threads, state, senders, (&enters, &leaves), refresh);
        state.enters = enters;
        state.leaves = leaves;
        state.prev.clear();
        state.prev.extend_from_slice(senders);
        if senders.is_empty() {
            return Ok(());
        }

        let SlotState {
            total,
            err,
            best_s,
            sending,
            far,
            ..
        } = state;
        let kf = (senders.len() + table.guard_terms()) as f64;
        let beta = params.beta();
        let noise = params.noise();
        for (u, slot) in out.iter_mut().enumerate() {
            if sending[u] {
                continue;
            }
            let best = best_s[u];
            if best == NO_SENDER {
                continue;
            }
            let signal = table.signal(u, best);
            let (far_u, far_err) = table.far_at(far, u);
            let t = total[u] + far_u;
            let rhs = beta * ((t - signal) + noise);
            let margin = signal - rhs;
            // |total − ordered exact sum| is bounded by the tracked
            // incremental drift (near and far) plus the ordered sum's
            // own rounding; the guard doubles both and adds ulp slack
            // for the comparison arithmetic itself. Outside the band the
            // decision provably matches a drift-free evaluation; inside,
            // replay it.
            let slack = 2.0 * (err[u] + far_err) + (kf + 2.0) * f64::EPSILON * t.abs();
            let guard = 2.0 * beta * slack + 1e-13 * (signal.abs() + rhs.abs());
            let decodes = if margin.abs() <= guard {
                let current = Senders {
                    list: senders,
                    sending,
                };
                let (near, terms) = table.replay_near(current, u);
                let far_sum = table.replay_far(far, u);
                total[u] = near;
                err[u] = (terms as f64 + 1.0) * f64::EPSILON * near.abs();
                params.decodes(signal, (near + far_sum) - signal)
            } else {
                margin > 0.0
            };
            if decodes {
                *slot = Some(best);
            }
        }
        Ok(())
    }
}
