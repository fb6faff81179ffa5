//! The Decay baseline (Bar-Yehuda–Goldreich–Itai) as a MAC layer.
//!
//! Theorem 8.1 of the paper proves that Decay cannot achieve fast
//! approximate progress in the SINR model:
//! `f_approg = Ω(Δ_{G₁₋ε} · log(1/ε_approg))`. This implementation exists
//! as the baseline for experiment E5 (the two-ball gadget): broadcasters
//! run synchronized Decay cycles — transmit with probability `2^{−j}` in
//! slot `j` of each cycle — and acknowledge after a fixed cycle budget,
//! mirroring the timer-based acknowledgment of Algorithm B.1.

use absmac::{IndexedSet, MacError, MacEvent, MacLayer, MacMessage, MsgId, StepEvents};
use sinr_geom::Point;
use sinr_phys::{
    Action, BackendSpec, Engine, EngineStats, NodeId, PhysError, Protocol, SinrParams, SlotCtx,
};

use crate::Frame;

/// Configuration of [`DecayMac`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayParams {
    /// Cycle length: probabilities run `1, 1/2, …, 2^{−(cycle_len−1)}`.
    pub cycle_len: u32,
    /// Cycles run per broadcast before the (timer-based) ack fires.
    pub cycles_budget: u32,
}

impl DecayParams {
    /// Derives the classic parameterization from a contention bound `Ñ`
    /// and a failure probability: cycle length `⌈log₂ Ñ⌉ + 1`, budget
    /// `⌈c·log(Ñ/ε)⌉` cycles.
    pub fn from_contention(n_tilde: f64, eps: f64, budget_mult: f64) -> Self {
        assert!(n_tilde >= 2.0, "contention bound must be at least 2");
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(budget_mult > 0.0, "budget_mult must be positive");
        let cycle_len = (n_tilde.log2().ceil() as u32 + 1).max(2);
        let cycles_budget = ((budget_mult * (n_tilde / eps).ln()).ceil() as u32).max(1);
        DecayParams {
            cycle_len,
            cycles_budget,
        }
    }
}

#[derive(Debug)]
struct DecayNode<P> {
    me: usize,
    cycle_len: u32,
    budget_slots: u64,
    active: Option<(MsgId, P)>,
    slots_used: u64,
    delivered: IndexedSet<MsgId>,
    outbox: Vec<MacEvent<P>>,
}

impl<P: Clone> Protocol for DecayNode<P> {
    type Msg = Frame<P>;

    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Frame<P>> {
        let Some((id, payload)) = self.active.clone() else {
            return Action::Listen;
        };
        let j = (self.slots_used % self.cycle_len as u64) as i32;
        self.slots_used += 1;
        if self.slots_used >= self.budget_slots {
            self.outbox.push(MacEvent::Ack(id));
            self.active = None;
        }
        let p = 2f64.powi(-j);
        if rand::Rng::random_bool(ctx.rng, p) {
            Action::Transmit(Frame::Data { id, payload })
        } else {
            Action::Listen
        }
    }

    fn on_receive(&mut self, _ctx: &mut SlotCtx<'_>, frame: &Frame<P>) {
        if let Frame::Data { id, payload } = frame {
            if id.origin != self.me && self.delivered.insert(*id) {
                self.outbox.push(MacEvent::Rcv(MacMessage {
                    id: *id,
                    payload: payload.clone(),
                }));
            }
        }
    }
}

/// Decay as an absMAC implementation (baseline; see module docs).
pub struct DecayMac<P: Clone> {
    engine: Engine<DecayNode<P>>,
    seqs: Vec<u32>,
}

impl<P: Clone> DecayMac<P> {
    /// Creates the layer over `positions`.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    pub fn new(
        sinr: SinrParams,
        positions: &[Point],
        params: DecayParams,
        seed: u64,
    ) -> Result<Self, PhysError> {
        Self::with_prepared(sinr, positions, params, seed, BackendSpec::exact(), None)
    }

    /// Like [`DecayMac::new`] with an explicit reception backend
    /// (interference model + thread count) and, optionally, the table a
    /// shared preparation built for this deployment (see
    /// [`Engine::with_prepared`]). Executions are bit-identical with or
    /// without a shared table.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    pub fn with_prepared(
        sinr: SinrParams,
        positions: &[Point],
        params: DecayParams,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&sinr_phys::SharedTables>,
    ) -> Result<Self, PhysError> {
        let budget_slots = params.cycle_len as u64 * params.cycles_budget as u64;
        let nodes = (0..positions.len())
            .map(|i| DecayNode {
                me: i,
                cycle_len: params.cycle_len,
                budget_slots,
                active: None,
                slots_used: 0,
                delivered: IndexedSet::new(),
                outbox: Vec::new(),
            })
            .collect();
        let engine = Engine::with_prepared(sinr, positions.to_vec(), nodes, seed, spec, tables)?;
        let n = positions.len();
        Ok(DecayMac {
            engine,
            seqs: vec![0; n],
        })
    }

    /// Physical-layer counters.
    pub fn phys_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The current node positions (moving under mobility, otherwise the
    /// construction-time deployment).
    pub fn positions(&self) -> &[Point] {
        self.engine.positions()
    }

    /// Installs (or removes) a mobility model on the underlying engine
    /// (see [`Engine::set_mobility`]).
    ///
    /// # Panics
    ///
    /// Panics if the model was not built over this MAC's current
    /// positions.
    pub fn set_mobility(&mut self, mobility: Option<sinr_geom::MobilityModel>) {
        self.engine.set_mobility(mobility);
    }

    /// Scripted movement: relocates `node` to `to` between slots.
    ///
    /// # Errors
    ///
    /// [`PhysError::NearFieldViolation`] if the target violates the
    /// minimum-distance assumption; the move is not applied.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `to` is non-finite.
    pub fn teleport(&mut self, node: usize, to: Point) -> Result<(), PhysError> {
        self.engine.teleport(node, to)
    }
}

impl<P: Clone> MacLayer for DecayMac<P> {
    type Payload = P;

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn now(&self) -> u64 {
        self.engine.slot()
    }

    fn bcast(&mut self, node: usize, payload: P) -> Result<MsgId, MacError> {
        if node >= self.engine.len() {
            return Err(MacError::NodeOutOfRange {
                node,
                len: self.engine.len(),
            });
        }
        let state = self.engine.protocol_mut(NodeId::from(node));
        if let Some((in_progress, _)) = state.active {
            return Err(MacError::Busy { node, in_progress });
        }
        let id = MsgId {
            origin: node,
            seq: self.seqs[node],
        };
        self.seqs[node] += 1;
        state.active = Some((id, payload));
        state.slots_used = 0;
        Ok(id)
    }

    fn abort(&mut self, node: usize, id: MsgId) -> Result<(), MacError> {
        if node >= self.engine.len() {
            return Err(MacError::NodeOutOfRange {
                node,
                len: self.engine.len(),
            });
        }
        let state = self.engine.protocol_mut(NodeId::from(node));
        match &state.active {
            Some((active_id, _)) if *active_id == id => {
                state.active = None;
                Ok(())
            }
            _ => Err(MacError::UnknownMessage { node, id }),
        }
    }

    fn step(&mut self) -> StepEvents<P> {
        let _ = self.engine.step();
        let t = self.engine.slot();
        let mut events = Vec::new();
        for i in 0..self.engine.len() {
            let node = self.engine.protocol_mut(NodeId::from(i));
            for ev in std::mem::take(&mut node.outbox) {
                events.push((i, ev));
            }
        }
        StepEvents { t, events }
    }
}

impl<P: Clone> std::fmt::Debug for DecayMac<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecayMac")
            .field("n", &self.engine.len())
            .field("slot", &self.engine.slot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::deploy;

    fn sinr() -> SinrParams {
        SinrParams::builder().range(8.0).build().unwrap()
    }

    #[test]
    fn params_from_contention() {
        let p = DecayParams::from_contention(64.0, 0.125, 1.0);
        assert_eq!(p.cycle_len, 7);
        assert!(p.cycles_budget >= 6);
    }

    #[test]
    fn lone_broadcaster_delivers_within_one_cycle_whp() {
        let positions = deploy::line(2, 3.0).unwrap();
        let params = DecayParams::from_contention(16.0, 0.125, 1.0);
        let mut mac: DecayMac<u32> = DecayMac::new(sinr(), &positions, params, 3).unwrap();
        let id = mac.bcast(0, 5).unwrap();
        let mut got = false;
        for _ in 0..(params.cycle_len as u64 * params.cycles_budget as u64) {
            let step = mac.step();
            if step
                .events
                .iter()
                .any(|(n, e)| *n == 1 && matches!(e, MacEvent::Rcv(m) if m.id == id))
            {
                got = true;
                break;
            }
        }
        assert!(got, "a lone Decay broadcaster reaches its neighbor");
    }

    #[test]
    fn ack_fires_at_budget() {
        let positions = deploy::line(2, 3.0).unwrap();
        let params = DecayParams {
            cycle_len: 4,
            cycles_budget: 3,
        };
        let mut mac: DecayMac<u32> = DecayMac::new(sinr(), &positions, params, 3).unwrap();
        let id = mac.bcast(0, 5).unwrap();
        let mut ack_t = None;
        for _ in 0..30 {
            let step = mac.step();
            if step
                .events
                .iter()
                .any(|(n, e)| *n == 0 && matches!(e, MacEvent::Ack(i) if *i == id))
            {
                ack_t = Some(step.t);
                break;
            }
        }
        assert_eq!(ack_t, Some(12));
    }

    #[test]
    fn busy_contract_holds() {
        let positions = deploy::line(2, 3.0).unwrap();
        let params = DecayParams {
            cycle_len: 4,
            cycles_budget: 3,
        };
        let mut mac: DecayMac<u32> = DecayMac::new(sinr(), &positions, params, 3).unwrap();
        mac.bcast(0, 5).unwrap();
        assert!(matches!(mac.bcast(0, 6), Err(MacError::Busy { .. })));
    }
}
