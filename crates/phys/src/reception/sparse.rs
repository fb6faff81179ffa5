//! The sparse row source: exact near-field rows within a spatial-hash
//! cutoff plus per-cell far-field aggregates in one [`HybridTable`] —
//! the city-scale `hybrid` kernel ([`HybridBackend`]).

use std::collections::HashMap;
use std::sync::Arc;

use sinr_geom::{HashGrid, Point};

use super::incremental::{IncrementalBackend, ListenerState, RowSource, Senders, NO_SENDER};
use super::{check_hybrid_cutoff, chunked_scope, effective_threads};
use crate::{PhysError, SinrParams};

/// How many spatial-hash cells span the hybrid near-field cutoff
/// radius.
///
/// Smaller cells tighten the far-field over-estimate (a cell's
/// lower-bound distance approaches its members' true distances) and
/// trim the near neighborhood's area overshoot, at the price of more
/// cells in the far sweeps. Three cells per cutoff keeps the near
/// neighborhood at ~60 cells while per-cell far aggregation stays
/// coarse enough that table loads, not `powf` calls, dominate.
const HYBRID_CELLS_PER_CUTOFF: f64 = 3.0;

/// One spatial-hash bucket of the hybrid kernel: its integer grid key
/// and member nodes (ascending). Slots are **append-only** — mobility
/// may occupy new keys, and emptied cells persist with no members — so
/// a slot index, once assigned, stays valid for the table's lifetime
/// and every far-field iteration can run in slot-index order
/// (deterministic, unlike `HashMap` iteration).
#[derive(Debug, Clone)]
struct CellSlot {
    key: (i64, i64),
    members: Vec<u32>,
}

/// One sparse near-field link: a neighboring node and the exact link
/// gain to it, computed with the same `dist_sq → sqrt →
/// received_power` arithmetic as [`GainTable`](super::GainTable) so near-field sums
/// reproduce the dense kernel's bits. Distances are recomputed from
/// positions on demand (`Point::dist_sq` is bitwise symmetric), keeping
/// a link at 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct NearLink {
    pub(super) node: u32,
    pub(super) gain: f64,
}

/// Squared lower bound on the distance between any point of the cell at
/// key offset `(di, dj)` and any point of the origin cell: adjacent or
/// identical cells can touch (bound 0); beyond that each axis
/// contributes `(|Δ| − 1) · cell_size` of guaranteed separation.
#[inline]
fn box_dist_sq(di: i64, dj: i64, cell_size: f64) -> f64 {
    let dx = (di.abs() - 1).max(0) as f64 * cell_size;
    let dy = (dj.abs() - 1).max(0) as f64 * cell_size;
    dx * dx + dy * dy
}

/// The cell key of `p`, matching [`HashGrid`]'s bucketing exactly (the
/// build buckets through `HashGrid`, mobility re-buckets through this).
#[inline]
fn hybrid_key(p: Point, cell_size: f64) -> (i64, i64) {
    (
        (p.x / cell_size).floor() as i64,
        (p.y / cell_size).floor() as i64,
    )
}

/// Per-cell-pair far-field gains, indexed by absolute key offset.
///
/// A far cell's aggregate contribution to a listener is
/// `count · P/box^α` with `box` the cell-pair lower-bound distance,
/// which depends only on the absolute key offset `(|Δi|, |Δj|)` — so
/// all O(cells²) far pair gains collapse into one small offset-indexed
/// table and the far sweeps become multiply-adds instead of `powf`
/// storms. Near offsets store `+0.0`, so adding one is a no-op.
#[derive(Debug, Clone, Default)]
struct PairGain {
    dj_max: i64,
    vals: Vec<f64>,
}

impl PairGain {
    fn build(
        params: &SinrParams,
        cell_size: f64,
        cutoff_sq: f64,
        di_max: i64,
        dj_max: i64,
    ) -> Self {
        let mut vals = vec![0.0; ((di_max + 1) * (dj_max + 1)) as usize];
        for di in 0..=di_max {
            for dj in 0..=dj_max {
                let b2 = box_dist_sq(di, dj, cell_size);
                if b2 > cutoff_sq {
                    // The near-field assumption puts every true pair
                    // distance at ≥ 1, so clamping the box bound to 1
                    // keeps it a valid lower bound while honoring
                    // `received_power`'s domain.
                    vals[(di * (dj_max + 1) + dj) as usize] =
                        params.received_power(b2.sqrt().max(1.0));
                }
            }
        }
        PairGain { dj_max, vals }
    }

    #[inline]
    fn get(&self, di: i64, dj: i64) -> f64 {
        self.vals[(di * (self.dj_max + 1) + dj) as usize]
    }

    /// The gains at row offset `di`, indexed by `dj`.
    #[inline]
    fn row(&self, di: i64) -> &[f64] {
        let w = (self.dj_max + 1) as usize;
        &self.vals[di as usize * w..(di as usize + 1) * w]
    }
}

/// Collects node `u`'s sparse near row: exact links to every other
/// member of each cell whose pair box distance to `u`'s cell is within
/// the cutoff, sorted by node index (so row iteration visits senders in
/// the exact backend's ascending order).
#[allow(clippy::too_many_arguments)]
fn build_row(
    params: &SinrParams,
    positions: &[Point],
    cells: &[CellSlot],
    slot_of: &HashMap<(i64, i64), u32>,
    cell_size: f64,
    cutoff_sq: f64,
    reach: i64,
    u: usize,
    key: (i64, i64),
    row: &mut Vec<NearLink>,
) {
    row.clear();
    let pu = positions[u];
    for di in -reach..=reach {
        for dj in -reach..=reach {
            if box_dist_sq(di, dj, cell_size) > cutoff_sq {
                continue;
            }
            let Some(&slot) = slot_of.get(&(key.0 + di, key.1 + dj)) else {
                continue;
            };
            for &m in &cells[slot as usize].members {
                if m as usize == u {
                    continue;
                }
                let d2 = positions[m as usize].dist_sq(pu);
                let gain = params.received_power(d2.sqrt());
                row.push(NearLink { node: m, gain });
            }
        }
    }
    row.sort_unstable_by_key(|l| l.node);
}

/// Immutable sparse preparation of the hybrid kernel for one deployment
/// (the O(n·near_degree) analogue of the dense [`GainTable`](super::GainTable)): exact
/// link gains for every **near** pair — pairs whose spatial-hash cells
/// are within the cutoff radius of each other — in per-node sorted
/// rows, plus the cell bucketing and the offset-indexed far pair gains.
///
/// Like `GainTable` it is deployment-derived and shareable: sweeps hand
/// every cell a clone of one `Arc<HybridTable>`, and mobility forks a
/// private copy on first write (`Arc::make_mut`). The build is
/// thread-count invariant — rows are computed per node independently —
/// so a shared table is bitwise identical to a private one.
#[derive(Debug, Clone)]
pub struct HybridTable {
    params: SinrParams,
    positions: Vec<Point>,
    /// The cutoff as specified (0.0 = auto), compared by `matches`.
    cutoff_spec: f64,
    /// The resolved near-field cutoff radius (> 0).
    cutoff: f64,
    cell_size: f64,
    /// Per-node slot index into `cells`.
    cell_of: Vec<u32>,
    /// Append-only cell slots, created in sorted-key order at build.
    cells: Vec<CellSlot>,
    /// Key → slot lookups only; never iterated (HashMap order is not
    /// deterministic).
    slot_of: HashMap<(i64, i64), u32>,
    /// Per-node sorted near links (symmetric: `v ∈ rows[u] ⇔ u ∈
    /// rows[v]`, with bitwise-equal gains).
    rows: Vec<Vec<NearLink>>,
    /// Bounding box of occupied keys, sized to grow `pair_gain`.
    key_lo: (i64, i64),
    key_hi: (i64, i64),
    pair_gain: PairGain,
}

impl HybridTable {
    /// Builds the sparse table: spatial-hash bucketing via [`HashGrid`]
    /// with cell size `cutoff / 3`, near rows thread-chunked across up
    /// to `threads` OS threads. A `cutoff_spec` of `0.0` resolves to
    /// the deployment's weak range `R` — every in-range link is then
    /// exact and only genuinely out-of-range interference is
    /// aggregated.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_spec` fails the cutoff check of
    /// [`BackendSpec::hybrid`](super::BackendSpec::hybrid), or if any
    /// position is non-finite.
    pub fn build(
        params: &SinrParams,
        positions: &[Point],
        cutoff_spec: f64,
        threads: usize,
    ) -> Self {
        check_hybrid_cutoff(cutoff_spec).unwrap_or_else(|e| panic!("{e}"));
        let cutoff = if cutoff_spec > 0.0 {
            cutoff_spec
        } else {
            params.range()
        };
        let cell_size = cutoff / HYBRID_CELLS_PER_CUTOFF;
        let cutoff_sq = cutoff * cutoff;
        let n = positions.len();

        // Bucket through the shared spatial hash, then freeze the
        // buckets into slots in sorted-key order: slot numbering (and
        // with it every far-field iteration) is deterministic.
        let grid = HashGrid::build(positions, cell_size);
        let mut cells: Vec<CellSlot> = grid
            .cells()
            .map(|(key, members)| CellSlot {
                key,
                members: members.iter().map(|&m| m as u32).collect(),
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.key);
        let mut slot_of = HashMap::with_capacity(cells.len());
        let mut cell_of = vec![0u32; n];
        let mut key_lo = (0i64, 0i64);
        let mut key_hi = (0i64, 0i64);
        for (slot, cell) in cells.iter_mut().enumerate() {
            cell.members.sort_unstable();
            slot_of.insert(cell.key, slot as u32);
            for &m in &cell.members {
                cell_of[m as usize] = slot as u32;
            }
            if slot == 0 {
                key_lo = cell.key;
                key_hi = cell.key;
            } else {
                key_lo = (key_lo.0.min(cell.key.0), key_lo.1.min(cell.key.1));
                key_hi = (key_hi.0.max(cell.key.0), key_hi.1.max(cell.key.1));
            }
        }
        let pair_gain = PairGain::build(
            params,
            cell_size,
            cutoff_sq,
            key_hi.0 - key_lo.0,
            key_hi.1 - key_lo.1,
        );

        let reach = hybrid_reach(cutoff, cell_size);
        let mut rows: Vec<Vec<NearLink>> = vec![Vec::new(); n];
        let eff = effective_threads(threads.max(1), n);
        let chunk = (if eff <= 1 { n } else { n.div_ceil(eff) }).max(1);
        let tasks: Vec<(usize, &mut [Vec<NearLink>])> = rows
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, r)| (k * chunk, r))
            .collect();
        let (cells_ref, slot_ref, cell_ref) = (&cells, &slot_of, &cell_of);
        chunked_scope(tasks, |(base, row_chunk)| {
            for (i, row) in row_chunk.iter_mut().enumerate() {
                let u = base + i;
                let key = cells_ref[cell_ref[u] as usize].key;
                build_row(
                    params, positions, cells_ref, slot_ref, cell_size, cutoff_sq, reach, u, key,
                    row,
                );
            }
        });

        HybridTable {
            params: *params,
            positions: positions.to_vec(),
            cutoff_spec,
            cutoff,
            cell_size,
            cell_of,
            cells,
            slot_of,
            rows,
            key_lo,
            key_hi,
            pair_gain,
        }
    }

    /// Whether this table was built for exactly this deployment and
    /// cutoff specification.
    pub fn matches(&self, params: &SinrParams, positions: &[Point], cutoff_spec: f64) -> bool {
        self.params == *params && self.cutoff_spec == cutoff_spec && self.positions == positions
    }

    /// Number of nodes the table was built for.
    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// The resolved near-field cutoff radius.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Total number of stored near links (both directions counted);
    /// sparse memory is ~16 bytes per link versus the dense table's
    /// fixed `16·n²`.
    pub fn near_links(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Resident size of the sparse table in bytes: the near-link rows
    /// (16 bytes per stored link), position copy, cell bucketing and
    /// the offset-indexed far pair gains. The same cache-accounting
    /// quantity as [`GainTable::bytes`](super::GainTable::bytes), typically orders of magnitude
    /// smaller at equal n.
    pub fn bytes(&self) -> usize {
        self.near_links() * std::mem::size_of::<NearLink>()
            + self.positions.len() * std::mem::size_of::<Point>()
            + self.cell_of.len() * std::mem::size_of::<u32>()
            + self
                .cells
                .iter()
                .map(|c| std::mem::size_of::<CellSlot>() + c.members.len() * 4)
                .sum::<usize>()
            + self.slot_of.len() * (std::mem::size_of::<(i64, i64)>() + 4)
            + self.pair_gain.vals.len() * std::mem::size_of::<f64>()
    }

    /// Node `u`'s near row: its links in ascending node order.
    #[cfg(test)]
    pub(super) fn near_row(&self, u: usize) -> &[NearLink] {
        &self.rows[u]
    }

    /// The far-field gain from source cell `src` to destination cell
    /// `dest`, or `None` when the pair is near (its members live in the
    /// sparse rows instead).
    #[inline]
    fn far_pair(&self, dest: u32, src: u32) -> Option<f64> {
        let kd = self.cells[dest as usize].key;
        let ks = self.cells[src as usize].key;
        let di = (kd.0 - ks.0).abs();
        let dj = (kd.1 - ks.1).abs();
        if box_dist_sq(di, dj, self.cell_size) > self.cutoff * self.cutoff {
            Some(self.pair_gain.get(di, dj))
        } else {
            None
        }
    }

    /// Listener `u`'s near row restricted to the current transmitters,
    /// scanned in ascending node order: the ordered gain sum, its number
    /// of terms, and the nearest transmitter with its squared distance
    /// (first minimum, the exact backend's tie-break).
    pub(super) fn scan_near(&self, u: usize, sending: &[bool]) -> (f64, u32, f64, usize) {
        let pu = self.positions[u];
        let mut total = 0.0;
        let mut terms = 0u32;
        let mut bd = f64::INFINITY;
        let mut bs = NO_SENDER;
        for link in &self.rows[u] {
            let v = link.node as usize;
            if !sending[v] {
                continue;
            }
            total += link.gain;
            terms += 1;
            let d = self.positions[v].dist_sq(pu);
            if d < bd {
                bd = d;
                bs = v;
            }
        }
        (total, terms, bd, bs)
    }

    /// The links of node `s`'s row whose far end lies in `[lo, hi)`.
    fn row_within(&self, s: usize, lo: usize, hi: usize) -> &[NearLink] {
        let row = &self.rows[s];
        let start = row.partition_point(|l| (l.node as usize) < lo);
        let end = row.partition_point(|l| (l.node as usize) < hi);
        &row[start..end]
    }

    /// Destination cell `dest`'s far-field aggregate recomputed from the
    /// per-cell transmitter counts in slot order, with its number of
    /// terms.
    pub(super) fn far_from_counts(&self, dest: u32, counts: &[u32]) -> (f64, u32) {
        let mut sum = 0.0;
        let mut terms = 0u32;
        for (src, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            if let Some(pg) = self.far_pair(dest, src as u32) {
                sum += f64::from(cnt) * pg;
                terms += 1;
            }
        }
        (sum, terms)
    }

    /// [`HybridTable::far_from_counts`] over the transmitting cells
    /// `sources` alone: the same terms in the same slot order, hence the
    /// same bits. A near pair adds its stored `+0.0`, which leaves a sum
    /// that starts at `+0.0` and only grows bitwise unchanged, and counts
    /// no term. A run of sources more than [`hybrid_reach`] key rows from
    /// `dest` is far throughout (the bound [`build_row`]'s window rests
    /// on), so only runs inside that band test pairs one by one.
    fn far_sum(&self, dest: u32, sources: &FarSources) -> (f64, u32) {
        let kd = self.cells[dest as usize].key;
        let reach = hybrid_reach(self.cutoff, self.cell_size);
        let cutoff_sq = self.cutoff * self.cutoff;
        let mut sum = 0.0;
        let mut terms = 0u32;
        for &(k0, lo, hi) in &sources.runs {
            let di = (kd.0 - k0).abs();
            let gains = self.pair_gain.row(di);
            let cells = sources.k1[lo..hi].iter().zip(&sources.count[lo..hi]);
            if di > reach {
                for (&k1, &cnt) in cells {
                    sum += cnt * gains[(kd.1 - k1).unsigned_abs() as usize];
                }
                terms += (hi - lo) as u32;
            } else {
                for (&k1, &cnt) in cells {
                    let dj = (kd.1 - k1).abs();
                    sum += cnt * gains[dj as usize];
                    terms += u32::from(box_dist_sq(di, dj, self.cell_size) > cutoff_sq);
                }
            }
        }
        (sum, terms)
    }

    /// Per-cell transmitter counts of the sender set `senders`, counted
    /// from scratch.
    #[cfg(test)]
    pub(super) fn cell_counts(&self, senders: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.cells.len()];
        for &s in senders {
            counts[self.cell_of[s] as usize] += 1;
        }
        counts
    }

    /// Node `u`'s cell slot.
    #[cfg(test)]
    pub(super) fn cell_of(&self, u: usize) -> u32 {
        self.cell_of[u]
    }

    /// Grows the pair-gain table when `key` falls outside the occupied
    /// bounding box (mobility reaching fresh ground).
    fn grow_pair_gain(&mut self, key: (i64, i64)) {
        let lo = (self.key_lo.0.min(key.0), self.key_lo.1.min(key.1));
        let hi = (self.key_hi.0.max(key.0), self.key_hi.1.max(key.1));
        if lo == self.key_lo && hi == self.key_hi {
            return;
        }
        self.key_lo = lo;
        self.key_hi = hi;
        self.pair_gain = PairGain::build(
            &self.params,
            self.cell_size,
            self.cutoff * self.cutoff,
            hi.0 - lo.0,
            hi.1 - lo.1,
        );
    }

    /// Re-buckets one moved node: detaches it from its old cell and its
    /// old neighbors' rows, rebuilds its own row at the new position,
    /// mirrors the new links into the new neighbors' rows, and appends
    /// a fresh cell slot when the new key was unoccupied. Returns the
    /// node's new slot and whether that slot was appended.
    fn rebucket(&mut self, m: usize, to: Point) -> (u32, bool) {
        let mu = m as u32;
        let mut row = std::mem::take(&mut self.rows[m]);
        for link in &row {
            let nrow = &mut self.rows[link.node as usize];
            if let Ok(i) = nrow.binary_search_by_key(&mu, |l| l.node) {
                nrow.remove(i);
            }
        }
        let old = &mut self.cells[self.cell_of[m] as usize].members;
        if let Ok(i) = old.binary_search(&mu) {
            old.remove(i);
        }

        self.positions[m] = to;
        let key = hybrid_key(to, self.cell_size);
        let (slot, appended) = match self.slot_of.get(&key) {
            Some(&s) => (s, false),
            None => {
                let s = self.cells.len() as u32;
                self.cells.push(CellSlot {
                    key,
                    members: Vec::new(),
                });
                self.slot_of.insert(key, s);
                self.grow_pair_gain(key);
                (s, true)
            }
        };
        self.cell_of[m] = slot;
        let members = &mut self.cells[slot as usize].members;
        let at = members.binary_search(&mu).unwrap_err();
        members.insert(at, mu);

        let cutoff_sq = self.cutoff * self.cutoff;
        let reach = hybrid_reach(self.cutoff, self.cell_size);
        build_row(
            &self.params,
            &self.positions,
            &self.cells,
            &self.slot_of,
            self.cell_size,
            cutoff_sq,
            reach,
            m,
            key,
            &mut row,
        );
        for link in &row {
            let nrow = &mut self.rows[link.node as usize];
            if let Err(i) = nrow.binary_search_by_key(&mu, |l| l.node) {
                nrow.insert(i, NearLink { node: mu, ..*link });
            }
        }
        self.rows[m] = row;
        (slot, appended)
    }
}

/// Cell offsets out to `reach` cover every cell whose box distance can
/// be within the cutoff (the +1 absorbs the touching-cell slack in
/// [`box_dist_sq`]).
#[inline]
fn hybrid_reach(cutoff: f64, cell_size: f64) -> i64 {
    1 + (cutoff / cell_size).ceil() as i64
}

/// Rebuilds a listener range of the hybrid kernel from scratch: near
/// totals summed over each listener's sparse row in ascending node
/// order restricted to the current transmitters — per listener, the
/// exact backend's ordered sub-sum over the near senders, hence
/// identical bits for the near-field portion — and nearest **near**
/// senders re-selected with the exact backend's first-minimum
/// tie-break.
///
/// The range is rebuilt sender-major ([`refresh_by_senders`]), reading
/// only the senders' rows, unless it holds no more listeners than there
/// are senders (a mover's one-listener refresh): then scanning the
/// listeners' own rows ([`refresh_by_listeners`]) reads less. Both give
/// the same bits.
fn hybrid_refresh_range(ls: ListenerState<'_>, table: &HybridTable, senders: Senders<'_>) {
    if ls.total.len() <= senders.list.len() {
        refresh_by_listeners(ls, table, senders.sending);
    } else {
        refresh_by_senders(ls, table, senders.list);
    }
}

/// [`hybrid_refresh_range`] by scanning each listener's row against the
/// sending flags.
fn refresh_by_listeners(ls: ListenerState<'_>, table: &HybridTable, sending: &[bool]) {
    for i in 0..ls.total.len() {
        let (total, terms, bd, bs) = table.scan_near(ls.base + i, sending);
        ls.total[i] = total;
        ls.err[i] = (f64::from(terms) + 1.0) * f64::EPSILON * total.abs();
        ls.best_d2[i] = bd;
        ls.best_s[i] = bs;
    }
}

/// [`hybrid_refresh_range`] by adding each sender's links into the range
/// in ascending sender order. Rows are symmetric with bitwise-equal
/// gains and `dist_sq` is bitwise symmetric, so every listener receives
/// the gains, distances and (first-minimum) nearest sender of its own
/// row scan, in the same order. `err` counts each listener's terms
/// until the final pass turns the count into the drift bound.
pub(super) fn refresh_by_senders(ls: ListenerState<'_>, table: &HybridTable, list: &[usize]) {
    let (lo, hi) = (ls.base, ls.base + ls.total.len());
    ls.total.fill(0.0);
    ls.err.fill(0.0);
    ls.best_d2.fill(f64::INFINITY);
    ls.best_s.fill(NO_SENDER);
    for &s in list {
        let ps = table.positions[s];
        for link in table.row_within(s, lo, hi) {
            let i = link.node as usize - lo;
            ls.total[i] += link.gain;
            ls.err[i] += 1.0;
            let d = table.positions[link.node as usize].dist_sq(ps);
            if d < ls.best_d2[i] {
                ls.best_d2[i] = d;
                ls.best_s[i] = s;
            }
        }
    }
    for (err, total) in ls.err.iter_mut().zip(ls.total.iter()) {
        *err = (*err + 1.0) * f64::EPSILON * total.abs();
    }
}

/// Applies a transmitter-set delta to a listener range of the hybrid
/// kernel: departed near senders' gains leave each row-adjacent
/// listener's total, arrivals enter, the nearest-near-sender choice is
/// patched with the (distance, index) tie-break, and listeners orphaned
/// by a departure rescan their own row against the **current** sending
/// flags — which the caller must have updated before this sweep runs.
fn hybrid_delta_range(
    ls: ListenerState<'_>,
    table: &HybridTable,
    sending: &[bool],
    enters: &[usize],
    leaves: &[usize],
) {
    let (lo, hi) = (ls.base, ls.base + ls.total.len());
    for &s in leaves {
        for link in table.row_within(s, lo, hi) {
            let i = link.node as usize - ls.base;
            ls.total[i] -= link.gain;
            ls.err[i] += f64::EPSILON * ls.total[i].abs();
        }
    }
    let mut orphaned: Vec<usize> = Vec::new();
    if !leaves.is_empty() {
        for (i, (bd, bs)) in ls.best_d2.iter_mut().zip(ls.best_s.iter_mut()).enumerate() {
            if *bs != NO_SENDER && leaves.binary_search(bs).is_ok() {
                *bd = f64::INFINITY;
                *bs = NO_SENDER;
                orphaned.push(ls.base + i);
            }
        }
    }
    for &s in enters {
        let ps = table.positions[s];
        for link in table.row_within(s, lo, hi) {
            let i = link.node as usize - ls.base;
            ls.total[i] += link.gain;
            ls.err[i] += f64::EPSILON * ls.total[i].abs();
            let d = table.positions[link.node as usize].dist_sq(ps);
            if d < ls.best_d2[i] || (d == ls.best_d2[i] && s < ls.best_s[i]) {
                ls.best_d2[i] = d;
                ls.best_s[i] = s;
            }
        }
    }
    for &u in &orphaned {
        let (_, _, bd, bs) = table.scan_near(u, sending);
        ls.best_d2[u - ls.base] = bd;
        ls.best_s[u - ls.base] = bs;
    }
}

/// Collapses `(cell, ±1)` pairs into net per-cell deltas sorted by slot
/// index (the deterministic application order of the far-field folds),
/// dropping cells whose net change is zero.
fn compact_cell_deltas(cd: &mut Vec<(u32, i32)>) {
    cd.sort_unstable_by_key(|&(c, _)| c);
    let mut w = 0;
    for r in 0..cd.len() {
        if w > 0 && cd[w - 1].0 == cd[r].0 {
            cd[w - 1].1 += cd[r].1;
        } else {
            cd[w] = cd[r];
            w += 1;
        }
    }
    cd.truncate(w);
    cd.retain(|&(_, d)| d != 0);
}

/// Runs `op(dest, sum, err)` over every destination cell's far-field
/// aggregate, thread-chunked over destinations past the crossover. Each
/// destination is computed independently, so results are thread-count
/// invariant.
fn for_each_cell(
    sum: &mut [f64],
    err: &mut [f64],
    threads: usize,
    op: impl Fn(u32, &mut f64, &mut f64) + Sync,
) {
    let cells = sum.len();
    let chunk = cells.div_ceil(effective_threads(threads, cells)).max(1);
    let tasks: Vec<(usize, &mut [f64], &mut [f64])> = sum
        .chunks_mut(chunk)
        .zip(err.chunks_mut(chunk))
        .enumerate()
        .map(|(k, (f, e))| (k * chunk, f, e))
        .collect();
    chunked_scope(tasks, |(base, fs, es)| {
        for (i, (fv, ev)) in fs.iter_mut().zip(es.iter_mut()).enumerate() {
            op((base + i) as u32, fv, ev);
        }
    });
}

/// The per-run far-field half of the hybrid kernel: per-cell transmitter
/// counts and the aggregated far-field interference they cause at each
/// destination cell, maintained from the same enter/leave deltas as the
/// near rows.
#[derive(Debug, Default)]
pub struct FarField {
    /// Per-cell current transmitter count.
    pub(super) count: Vec<u32>,
    /// Per-cell aggregated far-field interference at any listener in the
    /// cell (destination-keyed).
    pub(super) sum: Vec<f64>,
    /// Per-cell conservative drift bound on `sum`.
    pub(super) err: Vec<f64>,
    /// Scratch: net `(cell, count delta)` pairs for the current update.
    delta: Vec<(u32, i32)>,
    /// Scratch: the transmitting cells a refresh sums over.
    sources: FarSources,
}

/// The transmitting cells of one far refresh, listed once in slot order
/// and cut into runs of equal first key component, so that a
/// destination reads one pair-gain row per run.
#[derive(Debug, Default)]
struct FarSources {
    /// `(first key component, start, end)` of each run in `k1`/`count`.
    runs: Vec<(i64, usize, usize)>,
    /// Second key component of each transmitting cell.
    k1: Vec<i64>,
    /// Transmitter count of each transmitting cell.
    count: Vec<f64>,
}

impl FarSources {
    /// Lists the cells whose entry in `counts` is nonzero.
    fn collect(&mut self, cells: &[CellSlot], counts: &[u32]) {
        self.runs.clear();
        self.k1.clear();
        self.count.clear();
        for (cell, &cnt) in cells.iter().zip(counts) {
            if cnt == 0 {
                continue;
            }
            let at = self.k1.len();
            match self.runs.last_mut() {
                Some(run) if run.0 == cell.key.0 => run.2 = at + 1,
                _ => self.runs.push((cell.key.0, at, at + 1)),
            }
            self.k1.push(cell.key.1);
            self.count.push(f64::from(cnt));
        }
    }
}

impl RowSource for HybridTable {
    type Key = f64;
    type Far = FarField;
    const NAME: &'static str = "hybrid";
    const PAR_NAME: &'static str = "hybrid+par";
    /// At city scale the churn delta alone exceeds `REFRESH_OPS` every
    /// slot, and the tracked drift bounds (not the interval) carry
    /// correctness — a longer interval only widens the guard band
    /// slightly.
    const REFRESH_PER_NODE: u64 = 1;

    fn build(
        params: &SinrParams,
        positions: &[Point],
        cutoff: f64,
        threads: usize,
        _capped: bool,
    ) -> Result<Self, PhysError> {
        Ok(HybridTable::build(params, positions, cutoff, threads))
    }

    fn fits(&self, params: &SinrParams, positions: &[Point], cutoff: f64) -> bool {
        self.matches(params, positions, cutoff)
    }

    fn built_for(&self, params: &SinrParams, n: usize) -> bool {
        self.params == *params && self.n() == n
    }

    fn refresh(&self, ls: ListenerState<'_>, senders: Senders<'_>) {
        hybrid_refresh_range(ls, self, senders);
    }

    fn delta(
        &self,
        ls: ListenerState<'_>,
        senders: Senders<'_>,
        enters: &[usize],
        leaves: &[usize],
    ) {
        hybrid_delta_range(ls, self, senders.sending, enters, leaves);
    }

    /// Recomputed from the table's positions with the expression
    /// [`build_row`] stored, so it equals the near link's gain bit for
    /// bit (the skeleton only asks for a listener's nearest near
    /// sender).
    fn signal(&self, u: usize, s: usize) -> f64 {
        let d2 = self.positions[s].dist_sq(self.positions[u]);
        self.params.received_power(d2.sqrt())
    }

    fn replay_near(&self, senders: Senders<'_>, u: usize) -> (f64, usize) {
        let (sum, terms, _, _) = self.scan_near(u, senders.sending);
        (sum, terms as usize)
    }

    /// Movers are re-bucketed sequentially (pairs of movers converge to
    /// their new-position gains once both have re-bucketed); moves into
    /// unoccupied keys append cell slots, whose far field is then
    /// computed from scratch — every other cell's aggregate is
    /// unaffected by new empty destinations.
    fn move_nodes(&mut self, far: &mut FarField, moved: &[(usize, Point)]) {
        let mut appended: Vec<u32> = Vec::new();
        for &(m, to) in moved {
            let (slot, was_new) = self.rebucket(m, to);
            if was_new {
                appended.push(slot);
                far.count.push(0);
                far.sum.push(0.0);
                far.err.push(0.0);
            }
        }
        for &slot in &appended {
            let (sum, terms) = self.far_from_counts(slot, &far.count);
            far.sum[slot as usize] = sum;
            far.err[slot as usize] = (f64::from(terms) + 1.0) * f64::EPSILON * sum.abs();
        }
    }

    fn reset_far(&self, far: &mut FarField) {
        let cells = self.cells.len();
        *far = FarField {
            count: vec![0; cells],
            sum: vec![0.0; cells],
            err: vec![0.0; cells],
            delta: Vec::new(),
            sources: FarSources::default(),
        };
    }

    fn far_ready(&self, far: &FarField) -> bool {
        far.sum.len() == self.cells.len()
    }

    fn far_update(
        &self,
        far: &mut FarField,
        enters: &[usize],
        leaves: &[usize],
        refresh: bool,
        threads: usize,
    ) {
        let FarField {
            count,
            sum,
            err,
            delta,
            sources,
        } = far;
        delta.clear();
        delta.extend(leaves.iter().map(|&s| (self.cell_of[s], -1)));
        delta.extend(enters.iter().map(|&s| (self.cell_of[s], 1)));
        compact_cell_deltas(delta);
        for &(c, d) in delta.iter() {
            let cnt = &mut count[c as usize];
            *cnt = (i64::from(*cnt) + i64::from(d)) as u32;
        }
        if refresh {
            // The transmitting cells are listed once, so each
            // destination visits only them, not every cell.
            sources.collect(&self.cells, count);
            let sources: &FarSources = sources;
            for_each_cell(sum, err, threads, |dest, fv, ev| {
                let (s, terms) = self.far_sum(dest, sources);
                *fv = s;
                *ev = (f64::from(terms) + 1.0) * f64::EPSILON * s.abs();
            });
        } else if !delta.is_empty() {
            let deltas: &[(u32, i32)] = delta;
            for_each_cell(sum, err, threads, |dest, fv, ev| {
                for &(src, d) in deltas {
                    if let Some(pg) = self.far_pair(dest, src) {
                        *fv += f64::from(d) * pg;
                        *ev += f64::EPSILON * fv.abs();
                    }
                }
            });
        }
    }

    #[inline]
    fn far_at(&self, far: &FarField, u: usize) -> (f64, f64) {
        let cu = self.cell_of[u] as usize;
        (far.sum[cu], far.err[cu])
    }

    fn replay_far(&self, far: &FarField, u: usize) -> f64 {
        self.far_from_counts(self.cell_of[u], &far.count).0
    }

    /// Worst case, every cell contributes a far term.
    fn guard_terms(&self) -> usize {
        self.cells.len()
    }
}

/// Sparse near-field / aggregated far-field reception kernel for
/// deployments too large for the dense [`GainTable`](super::GainTable): the incremental
/// skeleton over the sparse [`HybridTable`] (see the module docs).
///
/// Near pairs (within the spatial-hash cutoff radius) get the cached
/// kernel's treatment — exact gains in CSR-style sparse rows, driven
/// incrementally by transmitter deltas with a guarded deterministic
/// replay for near-threshold decisions. Far pairs are aggregated per
/// cell: each cell tracks how many of its members transmit, and every
/// listener adds `Σ_cells count · P/box^α` with `box` the cell-pair
/// lower-bound distance. This is the ring decomposition in the proof of
/// Lemma 10.3 of the paper: there, interference from the transmitters
/// in concentric distance ring `i` is bounded by `|ring_i| · P/r_i^α`
/// with `r_i` the ring's inner radius; here each far cell plays one
/// ring segment, with the box distance as its inner radius.
///
/// Far distances are under-estimated, so interference is over-estimated
/// and the kernel is **conservative**: it never decodes a message
/// [`ExactBackend`](super::ExactBackend) would reject, and a granted
/// message always names the exact backend's sender (verified by the
/// `tests/backend_equivalence.rs` proptests, including churn and
/// mobility). Results are bit-reproducible across thread counts and
/// shared-vs-private tables.
///
/// Per-slot cost is O(senders × near row + cells × transmitting cells)
/// on a refresh and O(|Δ senders| × near row + cells × changed cells)
/// on a delta; memory is O(n · near_degree + cells).
pub type HybridBackend = IncrementalBackend<HybridTable>;

impl HybridBackend {
    /// A fresh serial hybrid kernel; `cutoff` of 0.0 auto-selects the
    /// deployment's weak range `R` at preparation time.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` fails the cutoff check of
    /// [`BackendSpec::hybrid`](super::BackendSpec::hybrid).
    pub fn new(cutoff: f64) -> Self {
        HybridBackend::with_threads(cutoff, 1)
    }

    /// Like [`HybridBackend::new`] with sweeps chunked across up to
    /// `threads` OS threads (bit-identical results at any thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `cutoff` is invalid.
    pub fn with_threads(cutoff: f64, threads: usize) -> Self {
        check_hybrid_cutoff(cutoff).unwrap_or_else(|e| panic!("{e}"));
        IncrementalBackend::with_key(cutoff, threads)
    }

    /// A hybrid kernel around an already-built shared sparse table:
    /// matching deployments skip straight to the O(n) state reset,
    /// mismatching ones rebuild privately (adoption is never incorrect,
    /// only sometimes useless). The same copy-on-write discipline as
    /// [`CachedBackend::with_shared_table`](super::CachedBackend::with_shared_table) applies under mobility.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `cutoff` is invalid.
    pub fn with_shared_table(cutoff: f64, table: Arc<HybridTable>, threads: usize) -> Self {
        HybridBackend::with_threads(cutoff, threads).adopting(table)
    }
}
