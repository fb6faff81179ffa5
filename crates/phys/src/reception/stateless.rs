//! The stateless reception model: [`ExactBackend`], the ground truth.
//! It reads positions fresh every slot, so it keeps nothing between
//! slots but a scratch buffer, and it always runs on the calling thread.

use sinr_geom::Point;

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

fn is_sender(senders: &[usize], i: usize) -> bool {
    senders.binary_search(&i).is_ok()
}
