//! Empirical latency extraction from execution traces.
//!
//! Every experiment in this repository reduces to three measurements over
//! a [`TraceEvent`] log:
//!
//! * **Acknowledgment latency** ([`ack_latencies`]) — `bcast → ack` per
//!   message; the empirical `f_ack`.
//! * **Progress latency** ([`first_progress`]) — the *cold-start* reading
//!   of the (approximate) progress bound: from the moment a node first has
//!   a broadcasting trigger-graph neighbor until it first receives a
//!   message originating at a rcv-graph neighbor whose broadcast is still
//!   active. With `trigger = rcv = G₁₋ε` this is the empirical `f_prog`
//!   (standard absMAC); with `trigger = G₁₋₂ε`, `rcv = G₁₋ε` it is the
//!   paper's `f_approg` (Definition 7.1).
//! * **Delivery times** ([`delivery_times`]) — first reception of a given
//!   message per node, for single-hop experiments.
//!
//! [`LatencyStats`] summarizes sample sets for the table printers.

use std::collections::HashMap;

use sinr_graphs::Graph;

use crate::{MsgId, TraceEvent, TraceKind};

/// Message activity windows extracted from a trace: per message id, the
/// first `bcast` time and the first `ack`/`abort` time (absent when the
/// message never started or never ended inside the trace). Both progress
/// measurements qualify receptions against these windows, so the
/// aggregation lives here once instead of being repeated per consumer.
fn activity_windows(trace: &[TraceEvent]) -> (HashMap<MsgId, u64>, HashMap<MsgId, u64>) {
    let mut start: HashMap<MsgId, u64> = HashMap::new();
    let mut end: HashMap<MsgId, u64> = HashMap::new();
    for ev in trace {
        match ev.kind {
            TraceKind::Bcast(id) => {
                start.entry(id).or_insert(ev.t);
            }
            TraceKind::Ack(id) | TraceKind::Abort(id) => {
                end.entry(id).or_insert(ev.t);
            }
            _ => {}
        }
    }
    (start, end)
}

/// Summary statistics over latency samples (slot counts).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// Builds stats from raw samples (sorted internally).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencyStats { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.first().copied()
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.last().copied()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }

    /// The `p`-th percentile (nearest-rank), `0 < p <= 100`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.samples.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1)])
    }

    /// The raw, sorted samples.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

/// `bcast → ack` latency for every acknowledged message in the trace.
pub fn ack_latencies(trace: &[TraceEvent]) -> Vec<(MsgId, u64)> {
    let mut started: Vec<(MsgId, u64)> = Vec::new();
    let mut out = Vec::new();
    for ev in trace {
        match ev.kind {
            TraceKind::Bcast(id) => started.push((id, ev.t)),
            TraceKind::Ack(id) => {
                if let Some(pos) = started.iter().position(|(i, _)| *i == id) {
                    let (_, t0) = started.swap_remove(pos);
                    out.push((id, ev.t - t0));
                }
            }
            _ => {}
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

/// First reception time of message `id` at every node (`None` = never).
pub fn delivery_times(trace: &[TraceEvent], id: MsgId, n: usize) -> Vec<Option<u64>> {
    let mut out = vec![None; n];
    for ev in trace {
        if let TraceKind::Rcv(rid) = ev.kind {
            if rid == id && out[ev.node].is_none() {
                out[ev.node] = Some(ev.t);
            }
        }
    }
    out
}

/// Outcome of the progress measurement at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressOutcome {
    /// A qualifying reception arrived `latency` steps after the trigger.
    Satisfied {
        /// Steps from trigger to qualifying reception.
        latency: u64,
    },
    /// Triggered but no qualifying reception within the horizon.
    Pending {
        /// Steps waited without a qualifying reception.
        waited: u64,
    },
    /// No trigger-graph neighbor ever broadcast; the bound is vacuous.
    NotTriggered,
}

impl ProgressOutcome {
    /// The latency if satisfied.
    pub fn latency(&self) -> Option<u64> {
        match self {
            ProgressOutcome::Satisfied { latency } => Some(*latency),
            _ => None,
        }
    }
}

/// Cold-start progress measurement (see module docs).
///
/// For each node `j`: the trigger time `t0(j)` is the earliest `bcast` at
/// a `trigger`-neighbor of `j`; a reception qualifies if the message
/// originates at a `rcv`-neighbor of `j` and its broadcast is still
/// active (not yet acknowledged or aborted). `horizon` is the trace
/// length used for censored (`Pending`) outcomes.
///
/// # Panics
///
/// Panics if the two graphs have different sizes.
pub fn first_progress(
    trace: &[TraceEvent],
    trigger: &Graph,
    rcv: &Graph,
    horizon: u64,
) -> Vec<ProgressOutcome> {
    assert_eq!(
        trigger.len(),
        rcv.len(),
        "trigger and rcv graphs must have the same node count"
    );
    let n = trigger.len();
    let (start, end) = activity_windows(trace);
    // Trigger time per node.
    let mut t0 = vec![None::<u64>; n];
    for ev in trace {
        if let TraceKind::Bcast(_) = ev.kind {
            for &j in trigger.neighbors(ev.node) {
                let j = j as usize;
                if t0[j].is_none() {
                    t0[j] = Some(ev.t);
                }
            }
        }
    }
    // First qualifying reception per node.
    let mut satisfied = vec![None::<u64>; n];
    for ev in trace {
        if let TraceKind::Rcv(id) = ev.kind {
            let j = ev.node;
            if satisfied[j].is_some() {
                continue;
            }
            let Some(trigger_t) = t0[j] else { continue };
            if ev.t < trigger_t {
                continue;
            }
            if !rcv.has_edge(id.origin, j) {
                continue;
            }
            let active_end = end.get(&id).copied().unwrap_or(u64::MAX);
            let active_start = start.get(&id).copied().unwrap_or(0);
            if ev.t >= active_start && ev.t <= active_end {
                satisfied[j] = Some(ev.t - trigger_t);
            }
        }
    }
    (0..n)
        .map(|j| match (t0[j], satisfied[j]) {
            (None, _) => ProgressOutcome::NotTriggered,
            (Some(_), Some(latency)) => ProgressOutcome::Satisfied { latency },
            (Some(t), None) => ProgressOutcome::Pending {
                waited: horizon.saturating_sub(t),
            },
        })
        .collect()
}

/// Summarizes [`first_progress`] outcomes: the latency stats of the
/// satisfied nodes and the number still pending at the horizon
/// (untriggered nodes count in neither). Pass a sub-slice to summarize
/// one side of a gadget.
pub fn progress_summary(outcomes: &[ProgressOutcome]) -> (LatencyStats, usize) {
    let satisfied = outcomes
        .iter()
        .filter_map(ProgressOutcome::latency)
        .collect();
    let pending = outcomes
        .iter()
        .filter(|o| matches!(o, ProgressOutcome::Pending { .. }))
        .count();
    (LatencyStats::from_samples(satisfied), pending)
}

/// Per-node result of the interval (gap) based progress measurement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GapReport {
    /// Completed progress gaps: stretches (in steps) during which the
    /// node had an active trigger-neighbor broadcast but no qualifying
    /// reception, each terminated by a qualifying reception. The maximum
    /// over all nodes estimates the *interval* form of the progress
    /// bound (Definition 7.1 quantifies over every interval, not just
    /// the first).
    pub gaps: Vec<u64>,
    /// A trailing gap cut off by the horizon while the obligation was
    /// still live, if any.
    pub censored: Option<u64>,
}

impl GapReport {
    /// The largest completed gap.
    pub fn max_gap(&self) -> Option<u64> {
        self.gaps.iter().max().copied()
    }
}

/// Interval-based progress measurement: the literal reading of the
/// (approximate) progress bound. Where [`first_progress`] measures only
/// the cold-start latency, this reports *every* gap between qualifying
/// receptions while the node's trigger-graph neighborhood is actively
/// broadcasting. Obligations that end because the neighbors finished
/// their broadcasts produce no trailing gap; obligations cut by the
/// horizon are reported as censored.
///
/// # Panics
///
/// Panics if the two graphs have different sizes.
pub fn progress_gaps(
    trace: &[TraceEvent],
    trigger: &Graph,
    rcv: &Graph,
    horizon: u64,
) -> Vec<GapReport> {
    assert_eq!(
        trigger.len(),
        rcv.len(),
        "trigger and rcv graphs must have the same node count"
    );
    let n = trigger.len();
    let (start, end) = activity_windows(trace);
    // Per node: merged activity intervals of trigger-neighbor broadcasts.
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for (&id, &t0) in &start {
        let t1 = end.get(&id).copied().unwrap_or(horizon).min(horizon);
        for &j in trigger.neighbors(id.origin) {
            intervals[j as usize].push((t0, t1));
        }
    }
    for iv in &mut intervals {
        iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
        for &(a, b) in iv.iter() {
            match merged.last_mut() {
                Some((_, last_b)) if a <= *last_b => *last_b = (*last_b).max(b),
                _ => merged.push((a, b)),
            }
        }
        *iv = merged;
    }
    // Qualifying receptions per node, in time order (trace is ordered).
    let mut rcvs: Vec<Vec<u64>> = vec![Vec::new(); n];
    for ev in trace {
        if let TraceKind::Rcv(id) = ev.kind {
            if !rcv.has_edge(id.origin, ev.node) {
                continue;
            }
            let a = start.get(&id).copied().unwrap_or(0);
            let b = end.get(&id).copied().unwrap_or(u64::MAX);
            if ev.t >= a && ev.t <= b {
                rcvs[ev.node].push(ev.t);
            }
        }
    }
    (0..n)
        .map(|j| {
            let mut report = GapReport::default();
            for &(a, b) in &intervals[j] {
                let mut mark = a;
                for &t in rcvs[j].iter().filter(|&&t| t >= a && t <= b) {
                    report.gaps.push(t - mark);
                    mark = t;
                }
                if b >= horizon && b > mark {
                    let trailing = b - mark;
                    report.censored = Some(report.censored.map_or(trailing, |c| c.max(trailing)));
                }
            }
            report
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, node: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent { t, node, kind }
    }

    fn id(origin: usize, seq: u32) -> MsgId {
        MsgId { origin, seq }
    }

    #[test]
    fn stats_basics() {
        let s = LatencyStats::from_samples(vec![5, 1, 3]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(5));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.percentile(50.0), Some(3));
        assert_eq!(s.percentile(100.0), Some(5));
    }

    #[test]
    fn stats_empty() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn ack_latency_extraction() {
        let m = id(0, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(m)),
            ev(3, 1, TraceKind::Rcv(m)),
            ev(7, 0, TraceKind::Ack(m)),
        ];
        assert_eq!(ack_latencies(&trace), vec![(m, 7)]);
    }

    #[test]
    fn unacked_broadcasts_are_excluded() {
        let trace = vec![ev(0, 0, TraceKind::Bcast(id(0, 0)))];
        assert!(ack_latencies(&trace).is_empty());
    }

    #[test]
    fn delivery_times_first_only() {
        let m = id(0, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(m)),
            ev(2, 1, TraceKind::Rcv(m)),
            ev(4, 1, TraceKind::Rcv(m)),
            ev(5, 2, TraceKind::Rcv(m)),
        ];
        assert_eq!(delivery_times(&trace, m, 3), vec![None, Some(2), Some(5)]);
    }

    #[test]
    fn progress_on_a_path() {
        // 0 - 1 - 2; node 0 broadcasts at t=1, node 1 receives at t=4.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let m = id(0, 0);
        let trace = vec![
            ev(1, 0, TraceKind::Bcast(m)),
            ev(4, 1, TraceKind::Rcv(m)),
            ev(9, 0, TraceKind::Ack(m)),
        ];
        let out = first_progress(&trace, &g, &g, 20);
        assert_eq!(out[1], ProgressOutcome::Satisfied { latency: 3 });
        // Node 2 is triggered (its neighbor 1 never broadcast — wait, only
        // node 0 broadcast and 0 is not adjacent to 2) → NotTriggered.
        assert_eq!(out[2], ProgressOutcome::NotTriggered);
        // Node 0 itself has no broadcasting neighbor.
        assert_eq!(out[0], ProgressOutcome::NotTriggered);
    }

    #[test]
    fn progress_distinguishes_trigger_and_rcv_graphs() {
        // Approximate progress: trigger graph lacks the (0,1) edge, so
        // node 1 is not triggered even though rcv graph has the edge.
        let trigger = Graph::from_edges(2, []);
        let rcv = Graph::from_edges(2, [(0, 1)]);
        let m = id(0, 0);
        let trace = vec![ev(0, 0, TraceKind::Bcast(m)), ev(2, 1, TraceKind::Rcv(m))];
        let out = first_progress(&trace, &trigger, &rcv, 10);
        assert_eq!(out[1], ProgressOutcome::NotTriggered);
    }

    #[test]
    fn progress_ignores_non_rcv_graph_origins() {
        // Trigger edge exists, but reception comes from a non-rcv-neighbor
        // origin: outcome stays Pending.
        let trigger = Graph::from_edges(2, [(0, 1)]);
        let rcv = Graph::from_edges(2, []);
        let m = id(0, 0);
        let trace = vec![ev(0, 0, TraceKind::Bcast(m)), ev(2, 1, TraceKind::Rcv(m))];
        let out = first_progress(&trace, &trigger, &rcv, 10);
        assert_eq!(out[1], ProgressOutcome::Pending { waited: 10 });
    }

    #[test]
    fn progress_summary_splits_satisfied_from_pending() {
        let outcomes = [
            ProgressOutcome::Satisfied { latency: 3 },
            ProgressOutcome::Pending { waited: 7 },
            ProgressOutcome::NotTriggered,
            ProgressOutcome::Satisfied { latency: 1 },
        ];
        let (stats, pending) = progress_summary(&outcomes);
        assert_eq!((stats.samples(), pending), (&[1, 3][..], 1));
        let (stats, pending) = progress_summary(&outcomes[2..]);
        assert_eq!((stats.samples(), pending), (&[1][..], 0));
    }

    #[test]
    fn gaps_measure_every_interval() {
        // Node 1 triggered from t=0 (neighbor 0 broadcasts 0..=20);
        // receptions at 4 and 10 → gaps 4 and 6, censored 10 (20..horizon
        // cut: end=20 < horizon → no censor). Horizon 15 cuts at 15.
        let g = Graph::from_edges(2, [(0, 1)]);
        let m = id(0, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(m)),
            ev(4, 1, TraceKind::Rcv(m)),
            ev(10, 1, TraceKind::Rcv(m)),
        ];
        let out = progress_gaps(&trace, &g, &g, 15);
        assert_eq!(out[1].gaps, vec![4, 6]);
        assert_eq!(out[1].censored, Some(5));
        assert_eq!(out[1].max_gap(), Some(6));
        // Node 0 has no broadcasting neighbor.
        assert!(out[0].gaps.is_empty());
        assert_eq!(out[0].censored, None);
    }

    #[test]
    fn gaps_end_with_the_obligation() {
        // The broadcast acks at t=6; no trailing censored gap because the
        // obligation expired before the horizon.
        let g = Graph::from_edges(2, [(0, 1)]);
        let m = id(0, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(m)),
            ev(3, 1, TraceKind::Rcv(m)),
            ev(6, 0, TraceKind::Ack(m)),
        ];
        let out = progress_gaps(&trace, &g, &g, 100);
        assert_eq!(out[1].gaps, vec![3]);
        assert_eq!(out[1].censored, None);
    }

    #[test]
    fn overlapping_broadcasts_merge_intervals() {
        // Two neighbors broadcast back to back: one merged obligation.
        let g = Graph::from_edges(3, [(0, 1), (2, 1)]);
        let a = id(0, 0);
        let b = id(2, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(a)),
            ev(2, 1, TraceKind::Rcv(a)),
            ev(3, 0, TraceKind::Ack(a)),
            ev(3, 2, TraceKind::Bcast(b)),
            ev(7, 1, TraceKind::Rcv(b)),
            ev(9, 2, TraceKind::Ack(b)),
        ];
        let out = progress_gaps(&trace, &g, &g, 100);
        assert_eq!(out[1].gaps, vec![2, 5]);
    }

    #[test]
    fn stale_receptions_do_not_qualify() {
        // Reception after the ack (message no longer active) is stale.
        let g = Graph::from_edges(2, [(0, 1)]);
        let m = id(0, 0);
        let trace = vec![
            ev(0, 0, TraceKind::Bcast(m)),
            ev(3, 0, TraceKind::Ack(m)),
            ev(5, 1, TraceKind::Rcv(m)),
        ];
        let out = first_progress(&trace, &g, &g, 10);
        assert_eq!(out[1], ProgressOutcome::Pending { waited: 10 });
    }
}
