//! Common result type for global broadcast runs, and the run loop the
//! flooding baselines share.

use sinr_phys::{Engine, EngineStats, Protocol};

/// Outcome of a global single-message broadcast execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmbReport {
    /// Slot at which each node first held the message (`Some(0)` for the
    /// source, `None` if never informed within the horizon).
    pub informed_at: Vec<Option<u64>>,
    /// Slot at which the last node became informed, or `None` on timeout.
    pub completion: Option<u64>,
    /// Physical-layer counters at the end of the run.
    pub stats: EngineStats,
}

impl SmbReport {
    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.informed_at.iter().filter(|t| t.is_some()).count()
    }

    /// Whether every node was informed.
    pub fn complete(&self) -> bool {
        self.completion.is_some()
    }

    /// The report of `engine`'s run so far: each node's information time
    /// as `informed_at` reads it from the node's automaton, the given
    /// `completion` and the engine's counters.
    pub(crate) fn of<P: Protocol>(
        engine: &Engine<P>,
        informed_at: impl Fn(&P) -> Option<u64>,
        completion: Option<u64>,
    ) -> Self {
        SmbReport {
            informed_at: engine.protocols().map(informed_at).collect(),
            completion,
            stats: engine.stats(),
        }
    }
}

/// Steps `engine` until every node is informed (as `informed_at` reads
/// it) or `max_slots` elapse. Only a reception informs a node, so the
/// check runs after slots with receptions; completion is the slot count
/// at which the last node was informed.
pub(crate) fn run_until_informed<P: Protocol>(
    engine: &mut Engine<P>,
    max_slots: u64,
    informed_at: impl Fn(&P) -> Option<u64>,
) -> SmbReport {
    let completion = (0..max_slots).find_map(|_| {
        let out = engine.step();
        let all_informed = !out.receptions.is_empty()
            && engine.protocols().all(|node| informed_at(node).is_some());
        all_informed.then_some(out.slot + 1)
    });
    SmbReport::of(engine, informed_at, completion)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_helpers() {
        let r = SmbReport {
            informed_at: vec![Some(0), Some(5), None],
            completion: None,
            stats: EngineStats::default(),
        };
        assert_eq!(r.informed_count(), 2);
        assert!(!r.complete());
    }
}
