//! The stateless reception models: [`ExactBackend`] (the ground truth)
//! and [`GridFarFieldBackend`] (conservative per-cell far field). They
//! read positions fresh every slot, so they keep nothing between slots
//! but scratch buffers, and they always run on the calling thread.

use sinr_geom::{HashGrid, Point};

use super::{check_invariants, InterferenceBackend};
use crate::SinrParams;

/// Exact interference summation (see module docs).
#[derive(Debug, Default)]
pub struct ExactBackend {
    sender_pts: Vec<Point>,
}

impl ExactBackend {
    /// A fresh backend with empty scratch buffers.
    pub fn new() -> Self {
        ExactBackend::default()
    }
}

impl InterferenceBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        check_invariants(positions, senders, out);
        out.fill(None);
        if senders.is_empty() {
            return;
        }
        self.sender_pts.clear();
        self.sender_pts
            .extend(senders.iter().map(|&s| positions[s]));
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = decide_exact(params, positions, senders, &self.sender_pts, u);
        }
    }
}

/// Grid-aggregated far-field interference (see module docs).
#[derive(Debug)]
pub struct GridFarFieldBackend {
    cell_size: f64,
    sender_pts: Vec<Point>,
    /// Flattened `(cell, members)` list rebuilt each slot; the outer `Vec`
    /// and the per-cell member `Vec`s are recycled across slots.
    cells: Vec<((i64, i64), Vec<usize>)>,
}

impl GridFarFieldBackend {
    /// A fresh backend with square cells of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive"
        );
        GridFarFieldBackend {
            cell_size,
            sender_pts: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// The grid cell side this backend aggregates with.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }
}

impl InterferenceBackend for GridFarFieldBackend {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        check_invariants(positions, senders, out);
        out.fill(None);
        if senders.is_empty() {
            return;
        }
        self.sender_pts.clear();
        self.sender_pts
            .extend(senders.iter().map(|&s| positions[s]));
        // The grid is built once per slot over this slot's transmitter
        // set; the flattened cell list reuses last slot's allocations.
        let grid = HashGrid::build(&self.sender_pts, self.cell_size);
        rebuild_cells(&grid, &mut self.cells);
        let ctx = GridSlot {
            grid: &grid,
            cells: &self.cells,
            near_cutoff: near_cutoff(params, self.cell_size),
        };
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = decide_grid(params, positions, senders, &self.sender_pts, &ctx, u);
        }
    }
}

/// Any transmitter within the weak range R of a listener is handled
/// exactly (it could be the decode candidate or a dominant interferer);
/// one cell diagonal of slack means such a cell is never aggregated.
fn near_cutoff(params: &SinrParams, cell_size: f64) -> f64 {
    params.range() + cell_size * std::f64::consts::SQRT_2
}

/// Refills the reusable flattened cell list from a freshly built grid,
/// recycling last slot's member allocations. Sorted by cell key: the
/// grid's hash map iterates in a per-instance random order, and float
/// interference sums are order-sensitive, so without the sort the same
/// seeded simulation could differ by ulps across process runs — breaking
/// the workspace's determinism contract at near-threshold decodes.
fn rebuild_cells(grid: &HashGrid, cells: &mut Vec<((i64, i64), Vec<usize>)>) {
    let mut pool: Vec<Vec<usize>> = cells
        .drain(..)
        .map(|(_, mut members)| {
            members.clear();
            members
        })
        .collect();
    for (cell, members) in grid.cells() {
        let mut owned = pool.pop().unwrap_or_default();
        owned.extend_from_slice(members);
        cells.push((cell, owned));
    }
    cells.sort_unstable_by_key(|(cell, _)| *cell);
}

/// Per-slot grid state shared (immutably) by all listener decisions.
struct GridSlot<'a> {
    grid: &'a HashGrid,
    cells: &'a [((i64, i64), Vec<usize>)],
    near_cutoff: f64,
}

/// One listener decision under the exact model.
fn decide_exact(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    sender_pts: &[Point],
    u: usize,
) -> Option<usize> {
    if is_sender(senders, u) {
        return None;
    }
    let pu = positions[u];
    let mut total = 0.0;
    let mut best_idx = 0usize;
    let mut best_d_sq = f64::INFINITY;
    for (k, &ps) in sender_pts.iter().enumerate() {
        let d_sq = ps.dist_sq(pu);
        total += params.received_power(d_sq.sqrt());
        if d_sq < best_d_sq {
            best_d_sq = d_sq;
            best_idx = k;
        }
    }
    let signal = params.received_power(best_d_sq.sqrt());
    params
        .decodes(signal, total - signal)
        .then(|| senders[best_idx])
}

/// One listener decision under the grid far-field model.
fn decide_grid(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    sender_pts: &[Point],
    ctx: &GridSlot<'_>,
    u: usize,
) -> Option<usize> {
    if is_sender(senders, u) {
        return None;
    }
    let pu = positions[u];
    let mut total = 0.0;
    let mut best_idx: Option<usize> = None;
    let mut best_d_sq = f64::INFINITY;
    for (cell, members) in ctx.cells {
        let lb = ctx.grid.cell_min_dist(*cell, pu);
        if lb <= ctx.near_cutoff {
            for &k in members {
                let d_sq = sender_pts[k].dist_sq(pu);
                total += params.received_power(d_sq.sqrt());
                if d_sq < best_d_sq {
                    best_d_sq = d_sq;
                    best_idx = Some(k);
                }
            }
        } else {
            // Conservative: every member treated as sitting at the cell's
            // nearest point to the listener.
            total += members.len() as f64 * params.received_power(lb);
        }
    }
    let best = best_idx?;
    let signal = params.received_power(best_d_sq.sqrt());
    params
        .decodes(signal, total - signal)
        .then(|| senders[best])
}

fn is_sender(senders: &[usize], i: usize) -> bool {
    senders.binary_search(&i).is_ok()
}
