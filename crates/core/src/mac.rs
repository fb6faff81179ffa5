//! Algorithm 11.1: the combined absMAC implementation in the SINR model.
//!
//! Even physical slots run the acknowledgment layer (Algorithm B.1); odd
//! slots run the approximate-progress layer (Algorithm 9.1). The two
//! complement each other (§11): the ack layer alone yields no fast
//! approximate progress, and Algorithm 9.1 alone never acknowledges.
//!
//! Conditional wake-up (Definition 4.4) holds by construction: a node
//! transmits nothing before its first `bcast` input, and receptions are
//! passive. `rcv(m)` is delivered at most once per distinct message per
//! node, whichever sublayer decodes it first. The per-node `delivered`
//! set is an [`IndexedSet`] rather than a `HashSet`, so its iteration
//! order is deterministic and can never leak hasher state into reports.

use absmac::{IndexedSet, MacError, MacEvent, MacLayer, MacMessage, MsgId, StepEvents};
use sinr_geom::Point;
use sinr_phys::{
    Action, BackendSpec, Engine, EngineStats, NodeId, PhysError, Protocol, SinrParams, SlotCtx,
};

use crate::{AckLayer, ApprogLayer, Frame, MacParams};

/// Per-node automaton coupling the two sublayers (crate-internal).
#[derive(Debug)]
pub(crate) struct MacNode<P> {
    me: usize,
    ack: AckLayer<P>,
    approg: ApprogLayer<P>,
    active: Option<MsgId>,
    delivered: IndexedSet<MsgId>,
    outbox: Vec<MacEvent<P>>,
    /// Failure injection: a jammer transmits junk label frames with this
    /// probability every slot instead of running the protocol. Outside
    /// the paper's model; used by the robustness tests (A4).
    jam: Option<f64>,
}

impl<P: Clone> MacNode<P> {
    fn new(params: &MacParams, me: usize) -> Self {
        MacNode {
            me,
            ack: AckLayer::new(params),
            approg: ApprogLayer::new(params),
            active: None,
            delivered: IndexedSet::new(),
            outbox: Vec::new(),
            jam: None,
        }
    }

    fn start(&mut self, id: MsgId, payload: P) {
        self.active = Some(id);
        self.ack.start(id, payload.clone());
        self.approg.start(id, payload);
    }

    fn abort(&mut self) {
        self.active = None;
        self.ack.abort();
        self.approg.finish();
    }

    fn take_outbox(&mut self) -> Vec<MacEvent<P>> {
        std::mem::take(&mut self.outbox)
    }
}

impl<P: Clone> Protocol for MacNode<P> {
    type Msg = Frame<P>;

    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Frame<P>> {
        if let Some(p) = self.jam {
            return if rand::Rng::random_bool(ctx.rng, p) {
                Action::Transmit(Frame::Label {
                    label: rand::Rng::random(ctx.rng),
                })
            } else {
                Action::Listen
            };
        }
        if ctx.slot.is_multiple_of(2) {
            self.ack.on_slot(ctx.rng)
        } else {
            self.approg.on_slot(ctx.slot / 2, ctx.rng)
        }
    }

    fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, frame: &Frame<P>) {
        if let Frame::Data { id, payload } = frame {
            if id.origin != self.me && self.delivered.insert(*id) {
                self.outbox.push(MacEvent::Rcv(MacMessage {
                    id: *id,
                    payload: payload.clone(),
                }));
            }
        }
        if ctx.slot.is_multiple_of(2) {
            self.ack.on_receive(frame);
        } else {
            self.approg.on_receive(ctx.slot / 2, frame);
        }
    }

    fn on_slot_end(&mut self, ctx: &mut SlotCtx<'_>) {
        if ctx.slot % 2 == 1 {
            self.approg.on_slot_end(ctx.slot / 2);
        }
        if let Some(id) = self.ack.poll_ack() {
            self.outbox.push(MacEvent::Ack(id));
            self.active = None;
            self.approg.finish();
        }
    }
}

/// The paper's absMAC implementation for `G₁₋ε` in the SINR model, with
/// approximate progress measured on `G̃ = G₁₋₂ε` (Theorem 11.1).
///
/// Implements [`absmac::MacLayer`]; one [`MacLayer::step`] is one physical
/// slot. See the crate-level example.
pub struct SinrAbsMac<P: Clone> {
    engine: Engine<MacNode<P>>,
    params: MacParams,
    seqs: Vec<u32>,
}

impl<P: Clone> SinrAbsMac<P> {
    /// Creates the MAC over `positions` with the exact interference model.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction (mismatched
    /// inputs, near-field violations).
    pub fn new(
        sinr: SinrParams,
        positions: &[Point],
        params: MacParams,
        seed: u64,
    ) -> Result<Self, PhysError> {
        Self::with_prepared(sinr, positions, params, seed, BackendSpec::exact(), None)
    }

    /// Like [`SinrAbsMac::new`] with an explicit reception backend
    /// (interference model + thread count) and, optionally, the table a
    /// shared preparation built for this deployment (see
    /// [`Engine::with_prepared`]). `BackendSpec::cached()` is the fast
    /// choice for long runs: the engine prepares the backend at
    /// construction, so the gain matrix is built (or a matching shared
    /// one adopted) here, before slot 0. Executions are bit-identical
    /// with or without a shared table.
    ///
    /// # Errors
    ///
    /// Same as [`SinrAbsMac::new`].
    pub fn with_prepared(
        sinr: SinrParams,
        positions: &[Point],
        params: MacParams,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&sinr_phys::SharedTables>,
    ) -> Result<Self, PhysError> {
        let nodes = (0..positions.len())
            .map(|i| MacNode::new(&params, i))
            .collect();
        let engine = Engine::with_prepared(sinr, positions.to_vec(), nodes, seed, spec, tables)?;
        let n = positions.len();
        Ok(SinrAbsMac {
            engine,
            params,
            seqs: vec![0; n],
        })
    }

    /// The resolved MAC parameters.
    pub fn params(&self) -> &MacParams {
        &self.params
    }

    /// Physical-layer counters (slots, transmissions, receptions).
    pub fn phys_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Whether `node` currently has a broadcast in progress.
    pub fn is_broadcasting(&self, node: usize) -> bool {
        self.engine.protocol(NodeId::from(node)).active.is_some()
    }

    /// Turns `node` into a jammer that transmits junk frames with
    /// probability `p` every slot instead of running the protocol.
    ///
    /// This is *failure injection outside the paper's model* (the SINR
    /// model has no adversary): it exists to measure how gracefully the
    /// probabilistic guarantees degrade under hostile interference — see
    /// `tests/failure_injection.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `p` is not in `[0, 1]`.
    pub fn set_jammer(&mut self, node: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "jam probability must be in [0,1]");
        assert!(node < self.engine.len(), "node {node} out of range");
        self.engine.protocol_mut(NodeId::from(node)).jam = Some(p);
    }

    /// Restores a node turned into a jammer by [`SinrAbsMac::set_jammer`]
    /// to normal protocol operation.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn clear_jammer(&mut self, node: usize) {
        assert!(node < self.engine.len(), "node {node} out of range");
        self.engine.protocol_mut(NodeId::from(node)).jam = None;
    }

    /// The current node positions (moving under mobility, otherwise the
    /// construction-time deployment).
    pub fn positions(&self) -> &[Point] {
        self.engine.positions()
    }

    /// Installs (or removes) a mobility model on the underlying engine;
    /// movement is applied at the top of every physical slot and the
    /// reception backend repairs its caches incrementally. See
    /// [`Engine::set_mobility`] for the invariants.
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

    /// How many nodes have dropped out of the current approximate-progress
    /// epoch due to unsuccessful communication (the set `W` of Definition
    /// 10.2, observable for the ablation experiments).
    pub fn dropped_count(&self) -> usize {
        (0..self.engine.len())
            .filter(|&i| self.engine.protocol(NodeId::from(i)).approg.is_dropped())
            .count()
    }
}

impl<P: Clone> MacLayer for SinrAbsMac<P> {
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
        if let Some(in_progress) = state.active {
            return Err(MacError::Busy { node, in_progress });
        }
        let id = MsgId {
            origin: node,
            seq: self.seqs[node],
        };
        self.seqs[node] += 1;
        state.start(id, payload);
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
        if state.active != Some(id) {
            return Err(MacError::UnknownMessage { node, id });
        }
        state.abort();
        Ok(())
    }

    fn step(&mut self) -> StepEvents<P> {
        let _ = self.engine.step();
        let t = self.engine.slot();
        let mut events = Vec::new();
        for i in 0..self.engine.len() {
            let node = self.engine.protocol_mut(NodeId::from(i));
            for ev in node.take_outbox() {
                events.push((i, ev));
            }
        }
        StepEvents { t, events }
    }
}

impl<P: Clone> std::fmt::Debug for SinrAbsMac<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinrAbsMac")
            .field("n", &self.engine.len())
            .field("slot", &self.engine.slot())
            .field("params", &self.params)
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

    fn mac(positions: &[Point], seed: u64) -> SinrAbsMac<u32> {
        let params = MacParams::builder().build(&sinr());
        SinrAbsMac::new(sinr(), positions, params, seed).unwrap()
    }

    fn run_until<P: Clone>(
        mac: &mut SinrAbsMac<P>,
        max: u64,
        mut pred: impl FnMut(&StepEvents<P>) -> bool,
    ) -> Option<u64> {
        for _ in 0..max {
            let step = mac.step();
            if pred(&step) {
                return Some(step.t);
            }
        }
        None
    }

    #[test]
    fn lone_pair_delivers_and_acks() {
        let positions = deploy::line(2, 3.0).unwrap();
        let mut m = mac(&positions, 7);
        let id = m.bcast(0, 42).unwrap();
        let mut got_rcv = false;
        let acked = run_until(&mut m, 200_000, |step| {
            for (n, ev) in &step.events {
                match ev {
                    MacEvent::Rcv(msg) if *n == 1 && msg.id == id => got_rcv = true,
                    MacEvent::Ack(i) if *n == 0 && *i == id => return true,
                    _ => {}
                }
            }
            false
        });
        assert!(acked.is_some(), "ack must fire");
        assert!(got_rcv, "neighbor must receive before/around the ack");
    }

    #[test]
    fn rcv_is_deduplicated() {
        let positions = deploy::line(2, 3.0).unwrap();
        let mut m = mac(&positions, 8);
        let id = m.bcast(0, 42).unwrap();
        let mut rcv_count = 0;
        let _ = run_until(&mut m, 200_000, |step| {
            for (n, ev) in &step.events {
                if let MacEvent::Rcv(msg) = ev {
                    if *n == 1 && msg.id == id {
                        rcv_count += 1;
                    }
                }
            }
            false
        });
        assert_eq!(rcv_count, 1, "rcv(m) must be delivered exactly once");
    }

    #[test]
    fn busy_and_abort_contracts() {
        let positions = deploy::line(2, 3.0).unwrap();
        let mut m = mac(&positions, 9);
        let id = m.bcast(0, 1).unwrap();
        assert!(matches!(m.bcast(0, 2), Err(MacError::Busy { .. })));
        assert!(m.abort(0, id).is_ok());
        assert!(matches!(
            m.abort(0, id),
            Err(MacError::UnknownMessage { .. })
        ));
        // Free to broadcast again after abort.
        assert!(m.bcast(0, 3).is_ok());
    }

    #[test]
    fn aborted_broadcast_never_acks() {
        let positions = deploy::line(2, 3.0).unwrap();
        let mut m = mac(&positions, 10);
        let id = m.bcast(0, 1).unwrap();
        m.abort(0, id).unwrap();
        let acked = run_until(&mut m, 50_000, |step| {
            step.events
                .iter()
                .any(|(_, ev)| matches!(ev, MacEvent::Ack(i) if *i == id))
        });
        assert_eq!(acked, None);
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let positions = deploy::line(2, 3.0).unwrap();
        let mut m = mac(&positions, 11);
        assert!(matches!(
            m.bcast(5, 0),
            Err(MacError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn silent_network_stays_silent() {
        // Conditional wake-up: with no bcast inputs nobody ever transmits.
        let positions = deploy::uniform(10, 20.0, 3).unwrap();
        let mut m = mac(&positions, 12);
        for _ in 0..500 {
            let step = m.step();
            assert!(step.events.is_empty());
        }
        assert_eq!(m.phys_stats().transmissions, 0);
    }
}
