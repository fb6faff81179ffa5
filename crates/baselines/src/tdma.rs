//! Centrally scheduled round-robin (TDMA) broadcast.
//!
//! Theorem 6.1 proves `f_prog ≥ Δ` *even for an optimal schedule computed
//! by a central entity with full knowledge*. On the two-parallel-lines
//! gadget (Figure 1), any schedule can serve at most one cross pair per
//! slot, and round-robin TDMA over the broadcasters is an optimal
//! schedule. This module simulates exactly that, so the Figure 1
//! experiment measures the lower bound rather than assuming it.

use absmac::MsgId;
use sinr_geom::Point;
use sinr_mac::Frame;
use sinr_phys::{Action, BackendSpec, Engine, PhysError, Protocol, SinrParams, SlotCtx};

use crate::SmbReport;

/// Configuration of [`RoundRobinSmb`]: which nodes broadcast, in which
/// fixed rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinConfig {
    /// The broadcasters, in schedule order; broadcaster `k` transmits in
    /// slots `s` with `s mod len == k`.
    pub broadcasters: Vec<usize>,
}

#[derive(Debug)]
struct TdmaNode<P> {
    /// This node's slot residue in the rotation, if it broadcasts.
    turn: Option<usize>,
    rotation: usize,
    message: Option<(MsgId, P)>,
    informed_at: Option<u64>,
    /// Sorted `G₁₋ε`-neighbors; only their messages count (§4.6: nodes
    /// can detect whether a message originated at a strong neighbor, and
    /// the absMAC of [37] discards the rest — Remark 4.6).
    strong_neighbors: Vec<usize>,
}

impl<P: Clone> Protocol for TdmaNode<P> {
    type Msg = Frame<P>;

    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Frame<P>> {
        match (self.turn, &self.message) {
            (Some(turn), Some((id, payload))) if ctx.slot % self.rotation as u64 == turn as u64 => {
                Action::Transmit(Frame::Data {
                    id: *id,
                    payload: payload.clone(),
                })
            }
            _ => Action::Listen,
        }
    }

    fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, frame: &Frame<P>) {
        if let Frame::Data { id, .. } = frame {
            if self.informed_at.is_none() && self.strong_neighbors.binary_search(&id.origin).is_ok()
            {
                self.informed_at = Some(ctx.slot);
            }
        }
    }
}

/// Round-robin TDMA broadcast (see module docs). Each broadcaster holds
/// its own message; receivers record the first slot they decode anything.
pub struct RoundRobinSmb<P: Clone> {
    engine: Engine<TdmaNode<P>>,
}

impl<P: Clone> RoundRobinSmb<P> {
    /// Builds the execution. `payload_of(i)` supplies broadcaster
    /// payloads.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    ///
    /// # Panics
    ///
    /// Panics if `config.broadcasters` is empty or contains an
    /// out-of-range or duplicate index.
    pub fn new(
        sinr: SinrParams,
        positions: &[Point],
        config: &RoundRobinConfig,
        payload_of: impl FnMut(usize) -> P,
        seed: u64,
    ) -> Result<Self, PhysError> {
        Self::with_prepared(
            sinr,
            positions,
            config,
            payload_of,
            seed,
            BackendSpec::exact(),
            None,
        )
    }

    /// Like [`RoundRobinSmb::new`] with an explicit reception backend
    /// (interference model + thread count) and, optionally, the table a
    /// shared preparation built for this deployment (see
    /// `Engine::with_prepared`): a matching table skips the O(n²)
    /// preparation. Executions are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    ///
    /// # Panics
    ///
    /// Same as [`RoundRobinSmb::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_prepared(
        sinr: SinrParams,
        positions: &[Point],
        config: &RoundRobinConfig,
        mut payload_of: impl FnMut(usize) -> P,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&sinr_phys::SharedTables>,
    ) -> Result<Self, PhysError> {
        assert!(!config.broadcasters.is_empty(), "need broadcasters");
        let rotation = config.broadcasters.len();
        let mut turn = vec![None; positions.len()];
        for (k, &b) in config.broadcasters.iter().enumerate() {
            assert!(b < positions.len(), "broadcaster {b} out of range");
            assert!(turn[b].is_none(), "duplicate broadcaster {b}");
            turn[b] = Some(k);
        }
        let strong = sinr_graphs::induce_graph(positions, sinr.strong_radius());
        let nodes = (0..positions.len())
            .map(|i| TdmaNode {
                turn: turn[i],
                rotation,
                message: turn[i].map(|_| (MsgId { origin: i, seq: 0 }, payload_of(i))),
                informed_at: None,
                strong_neighbors: strong.neighbors(i).iter().map(|&x| x as usize).collect(),
            })
            .collect();
        let engine = Engine::with_prepared(sinr, positions.to_vec(), nodes, seed, spec, tables)?;
        Ok(RoundRobinSmb { engine })
    }

    /// Runs `slots` slots and reports per-node first-reception times;
    /// completion is one past the latest of them, `None` if some node
    /// received nothing.
    pub fn run(&mut self, slots: u64) -> SmbReport {
        self.engine.run(slots);
        let completion = self
            .engine
            .protocols()
            .try_fold(0, |last, node| node.informed_at.map(|t| last.max(t + 1)));
        SmbReport::of(&self.engine, |node| node.informed_at, completion)
    }
}

impl<P: Clone> std::fmt::Debug for RoundRobinSmb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundRobinSmb")
            .field("n", &self.engine.len())
            .field("slot", &self.engine.slot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::deploy;

    #[test]
    fn two_lines_gadget_needs_delta_slots_for_last_pair() {
        // Theorem 6.1's construction: the k-th receiver is served in the
        // k-th slot; the last strong-neighbor reception happens at slot
        // Δ−1 even under this optimal schedule.
        let delta = 6;
        let gadget = deploy::two_lines(delta, None).unwrap();
        // The gadget separation equals R₁₋ε; derive R accordingly.
        let eps = 0.1;
        let sinr = SinrParams::builder()
            .epsilon(eps)
            .range(gadget.strong_radius / (1.0 - eps))
            .build()
            .unwrap();
        let config = RoundRobinConfig {
            broadcasters: gadget.line_v.clone(),
        };
        let mut tdma: RoundRobinSmb<u32> =
            RoundRobinSmb::new(sinr, &gadget.points, &config, |i| i as u32, 1).unwrap();
        let report = tdma.run(delta as u64);
        // Every u_k receives (from its cross partner v_k) at slot k, and
        // never earlier: one pair per slot is the best any schedule does.
        for (k, &u) in gadget.line_u.iter().enumerate() {
            assert_eq!(report.informed_at[u], Some(k as u64), "receiver u_{k}");
        }
    }

    #[test]
    #[should_panic(expected = "need broadcasters")]
    fn empty_broadcasters_panics() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        let positions = deploy::line(2, 3.0).unwrap();
        let _ = RoundRobinSmb::<u32>::new(
            sinr,
            &positions,
            &RoundRobinConfig {
                broadcasters: vec![],
            },
            |_| 0,
            0,
        );
    }
}
