//! The slotted simulation engine driving [`Protocol`] automata.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sinr_geom::{deploy, MobilityModel, Point};

use crate::reception::{BackendSpec, InterferenceBackend, SharedTables};
use crate::{PhysError, SinrParams};

/// Identifier of a node in a simulation (its index in the position list).
///
/// A dedicated type keeps node indices from being confused with the
/// paper's *temporary labels* (which are protocol-visible and non-unique)
/// or with message identifiers.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into position/protocol vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// What a node does in a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Transmit the message; the node cannot receive this slot.
    Transmit(M),
    /// Stay silent and listen.
    Listen,
}

/// Per-slot context handed to protocol callbacks.
///
/// Protocols receive their own deterministic RNG stream: two runs with the
/// same master seed and the same protocol logic produce identical
/// executions.
pub struct SlotCtx<'a> {
    /// The current slot number (0-based).
    pub slot: u64,
    /// The node this callback belongs to.
    pub node: NodeId,
    /// This node's private random source (paper §4.6: every node has
    /// private access to a perfect random source).
    pub rng: &'a mut StdRng,
}

/// A node automaton running above the physical layer.
///
/// The engine calls [`Protocol::on_slot`] for every node (in index order),
/// resolves the SINR reception outcome, delivers at most one
/// [`Protocol::on_receive`] per listening node, and finally calls
/// [`Protocol::on_slot_end`] for every node.
pub trait Protocol {
    /// The frame type this protocol puts on the air.
    type Msg: Clone;

    /// Decide this node's action for the slot.
    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Self::Msg>;

    /// Called when this node decodes `msg` (at most once per slot, never
    /// on a slot in which the node transmitted).
    fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, msg: &Self::Msg);

    /// Called after reception resolution, for every node, every slot.
    fn on_slot_end(&mut self, _ctx: &mut SlotCtx<'_>) {}
}

/// Outcome of a single slot, for instrumentation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlotOutcome {
    /// The slot that was executed.
    pub slot: u64,
    /// Nodes that transmitted.
    pub senders: Vec<NodeId>,
    /// Successful receptions as `(receiver, sender)` pairs, in receiver
    /// order.
    pub receptions: Vec<(NodeId, NodeId)>,
}

/// Cumulative counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Slots executed so far.
    pub slots: u64,
    /// Total transmissions across all nodes and slots.
    pub transmissions: u64,
    /// Total successful receptions.
    pub receptions: u64,
}

/// The slotted SINR simulation engine.
///
/// Owns the node positions, the protocol automata and per-node RNG
/// streams; see the crate-level example for usage.
pub struct Engine<P: Protocol> {
    params: SinrParams,
    positions: Vec<Point>,
    protocols: Vec<P>,
    rngs: Vec<StdRng>,
    spec: BackendSpec,
    backend: Box<dyn InterferenceBackend>,
    /// Per-slot reception decisions, reused across slots.
    decisions: Vec<Option<usize>>,
    /// Optional movement model, advanced at the top of every slot.
    mobility: Option<MobilityModel>,
    slot: u64,
    stats: EngineStats,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over `positions` with one protocol automaton per
    /// node, using the exact interference model.
    ///
    /// # Errors
    ///
    /// * [`PhysError::MismatchedInputs`] if lengths differ.
    /// * [`PhysError::NearFieldViolation`] if two nodes are closer than the
    ///   minimum distance 1 (§4.2).
    pub fn new(
        params: SinrParams,
        positions: Vec<Point>,
        protocols: Vec<P>,
        seed: u64,
    ) -> Result<Self, PhysError> {
        Self::with_backend(params, positions, protocols, seed, BackendSpec::exact())
    }

    /// Like [`Engine::new`] with an explicit reception backend
    /// specification (interference model + thread count).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::new`].
    pub fn with_backend(
        params: SinrParams,
        positions: Vec<Point>,
        protocols: Vec<P>,
        seed: u64,
        spec: BackendSpec,
    ) -> Result<Self, PhysError> {
        Self::with_prepared(params, positions, protocols, seed, spec, None)
    }

    /// Like [`Engine::with_backend`] with already-built shared
    /// preparation artifacts ([`SharedTables`]): when a carried table
    /// matches `params`/`positions` (and, for the hybrid kernel, this
    /// spec's cutoff), backend preparation only resets per-run slot
    /// state instead of rebuilding the gain table — the construction
    /// path sweep executors use to amortize one preparation across many
    /// runs over a fixed deployment. A non-matching table is replaced
    /// by `prepare` (the backend builds its own, so this constructor
    /// is never less correct than [`Engine::with_backend`]); `exact`
    /// ignores the carrier entirely. The execution is bit-identical
    /// either way — the table entries equal what the backend would
    /// have computed itself.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::new`], plus [`PhysError::GainTableTooLarge`]
    /// when a cached-model spec would need a dense table over the
    /// configured memory cap (switch to `hybrid:CUTOFF` or raise
    /// `SINR_MAX_TABLE_BYTES`).
    pub fn with_prepared(
        params: SinrParams,
        positions: Vec<Point>,
        protocols: Vec<P>,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&SharedTables>,
    ) -> Result<Self, PhysError> {
        if positions.len() != protocols.len() {
            return Err(PhysError::MismatchedInputs {
                positions: positions.len(),
                protocols: protocols.len(),
            });
        }
        if let Some(pair) = deploy::near_field_violation(&positions) {
            return Err(PhysError::NearFieldViolation { pair });
        }
        // Distinct, deterministic stream per node: hash the node index into
        // the master seed with an odd multiplier (splitmix-style).
        let rngs = (0..positions.len())
            .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let n = positions.len();
        let mut engine = Engine {
            params,
            positions,
            protocols,
            rngs,
            spec,
            backend: spec.build_with_tables(tables),
            decisions: vec![None; n],
            mobility: None,
            slot: 0,
            stats: EngineStats::default(),
        };
        // First phase of the backend lifecycle: per-deployment
        // precomputation (the cached kernel builds its gain matrix here,
        // outside the first simulated slot — and refuses structurally,
        // instead of OOM-aborting, when the dense table would be too
        // large).
        engine.backend.prepare(&engine.params, &engine.positions)?;
        Ok(engine)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the simulation has zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The SINR parameters this engine runs with.
    #[inline]
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// Node positions (index ↔ [`NodeId`]).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The next slot to be executed.
    #[inline]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The backend specification reception decisions run with.
    #[inline]
    pub fn backend_spec(&self) -> BackendSpec {
        self.spec
    }

    /// Short identifier of the active backend (`"exact"`, `"cached"`, …).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Installs (or removes) a mobility model. Movement is applied at
    /// the top of every [`Engine::step`], *before* protocols decide
    /// their slot actions, and the reception backend is notified through
    /// [`InterferenceBackend::update_positions`] so the cached kernel
    /// repairs its gain cache incrementally instead of rebuilding.
    ///
    /// Trajectories are driven by the model's own seeded RNG, never by
    /// protocol state, so the same model produces the same movement
    /// under every backend — the invariant the differential tests rely
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if the model was not built over this engine's current
    /// positions (its working copy must match bit for bit).
    pub fn set_mobility(&mut self, mobility: Option<MobilityModel>) {
        if let Some(model) = &mobility {
            assert_eq!(
                model.positions(),
                &self.positions[..],
                "mobility model must be built over the engine's current positions"
            );
        }
        self.mobility = mobility;
    }

    /// Whether a mobility model is installed.
    pub fn has_mobility(&self) -> bool {
        self.mobility.is_some()
    }

    /// Scripted movement: instantly relocates `node` to `to`, keeping
    /// any installed mobility model in sync and notifying the backend.
    ///
    /// # Errors
    ///
    /// [`PhysError::NearFieldViolation`] if the target sits closer than
    /// the minimum distance 1 to another node (§4.2) — the move is not
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `to` has a non-finite
    /// coordinate (both are validated by callers that accept user
    /// input).
    pub fn teleport(&mut self, node: usize, to: Point) -> Result<(), PhysError> {
        assert!(node < self.positions.len(), "node {node} out of range");
        assert!(
            to.x.is_finite() && to.y.is_finite(),
            "teleport target must be finite"
        );
        for (j, p) in self.positions.iter().enumerate() {
            if j != node && p.dist_sq(to) < deploy::MIN_NODE_DISTANCE * deploy::MIN_NODE_DISTANCE {
                return Err(PhysError::NearFieldViolation {
                    pair: (j.min(node), j.max(node)),
                });
            }
        }
        self.positions[node] = to;
        if let Some(model) = &mut self.mobility {
            model.displace(node, to);
        }
        self.backend
            .update_positions(&self.params, &self.positions, &[(node, to)]);
        Ok(())
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Shared access to a node's protocol automaton.
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// Exclusive access to a node's protocol automaton (used by MAC layers
    /// to inject environment inputs such as `bcast` between slots).
    pub fn protocol_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.protocols[node.index()]
    }

    /// Iterates over all protocol automata in node order.
    pub fn protocols(&self) -> impl Iterator<Item = &P> {
        self.protocols.iter()
    }

    /// Executes one slot and returns its outcome.
    ///
    /// When a mobility model is installed, movement for the slot is
    /// applied first — before protocols act and before the reception
    /// decision — and the backend's incremental repair hook is invoked
    /// with the moved nodes.
    pub fn step(&mut self) -> SlotOutcome {
        let slot = self.slot;
        if self.mobility.is_some() {
            let Engine {
                mobility,
                positions,
                backend,
                params,
                ..
            } = self;
            let moves = mobility.as_mut().expect("checked above").step(slot);
            if !moves.is_empty() {
                for &(i, p) in moves {
                    positions[i] = p;
                }
                backend.update_positions(params, positions, moves);
            }
        }
        let n = self.positions.len();
        let mut senders: Vec<usize> = Vec::new();
        let mut frames: Vec<Option<P::Msg>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut ctx = SlotCtx {
                slot,
                node: NodeId::from(i),
                rng: &mut self.rngs[i],
            };
            match self.protocols[i].on_slot(&mut ctx) {
                Action::Transmit(m) => {
                    senders.push(i);
                    frames.push(Some(m));
                }
                Action::Listen => frames.push(None),
            }
        }
        let mut decisions = std::mem::take(&mut self.decisions);
        self.backend
            .decide_slot(&self.params, &self.positions, &senders, &mut decisions);
        let mut receptions = Vec::new();
        for (u, decision) in decisions.iter().enumerate() {
            if let Some(s) = decision {
                let msg = frames[*s]
                    .as_ref()
                    .expect("decoded sender must have a frame")
                    .clone();
                let mut ctx = SlotCtx {
                    slot,
                    node: NodeId::from(u),
                    rng: &mut self.rngs[u],
                };
                self.protocols[u].on_receive(&mut ctx, &msg);
                receptions.push((NodeId::from(u), NodeId::from(*s)));
            }
        }
        self.decisions = decisions;
        for i in 0..n {
            let mut ctx = SlotCtx {
                slot,
                node: NodeId::from(i),
                rng: &mut self.rngs[i],
            };
            self.protocols[i].on_slot_end(&mut ctx);
        }
        self.slot += 1;
        self.stats.slots += 1;
        self.stats.transmissions += senders.len() as u64;
        self.stats.receptions += receptions.len() as u64;
        SlotOutcome {
            slot,
            senders: senders.into_iter().map(NodeId::from).collect(),
            receptions,
        }
    }

    /// Runs `slots` consecutive slots, discarding per-slot outcomes.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Runs until `pred` returns true for a slot outcome or `max_slots` is
    /// reached; returns the number of slots executed by this call.
    pub fn run_until(&mut self, max_slots: u64, mut pred: impl FnMut(&SlotOutcome) -> bool) -> u64 {
        for executed in 0..max_slots {
            let outcome = self.step();
            if pred(&outcome) {
                return executed + 1;
            }
        }
        max_slots
    }
}

impl<P: Protocol> fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.positions.len())
            .field("slot", &self.slot)
            .field("params", &self.params)
            .field("backend", &self.spec)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transmits `msg` on every slot in `active`, listens otherwise, and
    /// records everything it hears.
    struct Scripted {
        active: Vec<u64>,
        msg: u32,
        heard: Vec<(u64, u32)>,
    }

    impl Scripted {
        fn talker(active: Vec<u64>, msg: u32) -> Self {
            Scripted {
                active,
                msg,
                heard: Vec::new(),
            }
        }
        fn listener() -> Self {
            Scripted {
                active: Vec::new(),
                msg: 0,
                heard: Vec::new(),
            }
        }
    }

    impl Protocol for Scripted {
        type Msg = u32;
        fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
            if self.active.contains(&ctx.slot) {
                Action::Transmit(self.msg)
            } else {
                Action::Listen
            }
        }
        fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, msg: &u32) {
            self.heard.push((ctx.slot, *msg));
        }
    }

    fn params() -> SinrParams {
        SinrParams::builder().range(16.0).build().unwrap()
    }

    #[test]
    fn lone_transmission_is_heard_by_neighbors() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let protos = vec![
            Scripted::talker(vec![0], 7),
            Scripted::listener(),
            Scripted::listener(),
        ];
        let mut e = Engine::new(params(), pos, protos, 1).unwrap();
        let out = e.step();
        assert_eq!(out.senders, vec![NodeId(0)]);
        assert_eq!(out.receptions.len(), 2);
        assert_eq!(e.protocol(NodeId(1)).heard, vec![(0, 7)]);
        assert_eq!(e.protocol(NodeId(2)).heard, vec![(0, 7)]);
    }

    #[test]
    fn simultaneous_equal_transmitters_collide() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let protos = vec![
            Scripted::talker(vec![0], 1),
            Scripted::listener(),
            Scripted::talker(vec![0], 2),
        ];
        let mut e = Engine::new(params(), pos, protos, 1).unwrap();
        let out = e.step();
        assert!(out.receptions.is_empty());
        assert!(e.protocol(NodeId(1)).heard.is_empty());
    }

    #[test]
    fn staggered_transmitters_round_robin() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let protos = vec![
            Scripted::talker(vec![0], 1),
            Scripted::listener(),
            Scripted::talker(vec![1], 2),
        ];
        let mut e = Engine::new(params(), pos, protos, 1).unwrap();
        e.run(2);
        assert_eq!(e.protocol(NodeId(1)).heard, vec![(0, 1), (1, 2)]);
        assert_eq!(e.stats().transmissions, 2);
        assert_eq!(e.stats().receptions, 4); // each talk heard by 2 others
    }

    #[test]
    fn constructor_validates_lengths() {
        let pos = vec![Point::new(0.0, 0.0)];
        let protos: Vec<Scripted> = vec![];
        assert!(matches!(
            Engine::new(params(), pos, protos, 0),
            Err(PhysError::MismatchedInputs { .. })
        ));
    }

    #[test]
    fn constructor_validates_near_field() {
        let pos = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.0)];
        let protos = vec![Scripted::listener(), Scripted::listener()];
        assert!(matches!(
            Engine::new(params(), pos, protos, 0),
            Err(PhysError::NearFieldViolation { pair: (0, 1) })
        ));
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let pos = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let protos = vec![Scripted::talker(vec![3], 9), Scripted::listener()];
        let mut e = Engine::new(params(), pos, protos, 0).unwrap();
        let steps = e.run_until(100, |o| !o.receptions.is_empty());
        assert_eq!(steps, 4); // slots 0..=3, reception on slot 3
        assert_eq!(e.slot(), 4);
    }

    /// A protocol that transmits with probability 1/2 each slot.
    struct CoinFlip;
    impl Protocol for CoinFlip {
        type Msg = ();
        fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<()> {
            if rand::Rng::random_bool(ctx.rng, 0.5) {
                Action::Transmit(())
            } else {
                Action::Listen
            }
        }
        fn on_receive(&mut self, _: &mut SlotCtx<'_>, _: &()) {}
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let pos = sinr_geom::deploy::uniform(20, 30.0, 5).unwrap();
            let protos: Vec<CoinFlip> = (0..20).map(|_| CoinFlip).collect();
            let mut e = Engine::new(params(), pos, protos, seed).unwrap();
            let mut log = Vec::new();
            for _ in 0..50 {
                log.push(e.step());
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cached_backend_execution_is_identical_to_exact() {
        // The cached kernel is bit-identical at the reception level, so a
        // full protocol execution (decisions feed back into RNG-driven
        // behavior) must coincide slot for slot.
        let run = |spec: BackendSpec| {
            let pos = sinr_geom::deploy::uniform(30, 40.0, 5).unwrap();
            let protos: Vec<CoinFlip> = (0..30).map(|_| CoinFlip).collect();
            let mut e = Engine::with_backend(params(), pos, protos, 3, spec).unwrap();
            (0..60).map(|_| e.step()).collect::<Vec<_>>()
        };
        assert_eq!(run(BackendSpec::exact()), run(BackendSpec::cached()));
    }

    #[test]
    fn engine_with_prepared_matches_cold_construction() {
        // An engine handed a pre-built gain table must produce the exact
        // execution a cold engine does; a mismatched table must be
        // ignored rather than trusted.
        use crate::reception::{GainTable, HybridTable};
        use std::sync::Arc;
        let p = params();
        let pos = sinr_geom::deploy::uniform(30, 40.0, 5).unwrap();
        let run = |spec: BackendSpec, tables: Option<&SharedTables>| {
            let protos: Vec<CoinFlip> = (0..30).map(|_| CoinFlip).collect();
            let mut e = Engine::with_prepared(p, pos.clone(), protos, 3, spec, tables).unwrap();
            (0..60).map(|_| e.step()).collect::<Vec<_>>()
        };
        let cold = run(BackendSpec::cached(), None);
        let table = Arc::new(GainTable::build(&p, &pos, 1));
        let tables = SharedTables::from(Arc::clone(&table));
        assert_eq!(
            cold,
            run(BackendSpec::cached(), Some(&tables)),
            "shared table"
        );
        let mismatched = SharedTables::from(Arc::new(GainTable::build(
            &p,
            &sinr_geom::deploy::uniform(30, 40.0, 6).unwrap(),
            1,
        )));
        assert_eq!(
            cold,
            run(BackendSpec::cached(), Some(&mismatched)),
            "mismatched table ignored"
        );
        // Same contract for the sparse kernel: a shared hybrid table
        // changes nothing about the execution, and one built at another
        // cutoff is not trusted.
        let hybrid_cold = run(BackendSpec::hybrid(8.0), None);
        for (cutoff, why) in [(8.0, "shared hybrid table"), (4.0, "other cutoff ignored")] {
            let sparse =
                SharedTables::new().with_hybrid(Arc::new(HybridTable::build(&p, &pos, cutoff, 1)));
            assert_eq!(
                hybrid_cold,
                run(BackendSpec::hybrid(8.0), Some(&sparse)),
                "{why}"
            );
        }
    }

    #[test]
    fn mobile_execution_is_identical_across_backends() {
        // Mobility is driven by its own seeded RNG, so positions evolve
        // identically under every backend; with the cached kernel's
        // incremental repair bit-identical to exact, whole executions
        // must coincide.
        use sinr_geom::{MobilityModel, MobilitySpec};
        let run = |spec: BackendSpec| {
            let pos = sinr_geom::deploy::uniform(30, 40.0, 5).unwrap();
            let protos: Vec<CoinFlip> = (0..30).map(|_| CoinFlip).collect();
            let mut e = Engine::with_backend(params(), pos, protos, 3, spec).unwrap();
            let model = MobilityModel::new(
                MobilitySpec::Waypoint {
                    speed: 0.4,
                    pause: 2,
                    seed: 9,
                },
                e.positions(),
            )
            .unwrap();
            e.set_mobility(Some(model));
            let log: Vec<SlotOutcome> = (0..80).map(|_| e.step()).collect();
            (log, e.positions().to_vec())
        };
        let (log_exact, pos_exact) = run(BackendSpec::exact());
        let (log_cached, pos_cached) = run(BackendSpec::cached());
        assert_eq!(log_exact, log_cached);
        assert_eq!(
            pos_exact, pos_cached,
            "trajectories must not depend on backend"
        );
        // And movement actually happened.
        assert_ne!(pos_exact, sinr_geom::deploy::uniform(30, 40.0, 5).unwrap());
    }

    #[test]
    fn teleport_moves_a_node_and_rejects_near_field_violations() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let protos = vec![
            Scripted::talker(vec![0, 1], 7),
            Scripted::listener(),
            Scripted::listener(),
        ];
        let mut e = Engine::with_backend(params(), pos, protos, 1, BackendSpec::cached()).unwrap();
        // Too close to node 0: rejected, position unchanged.
        let err = e.teleport(1, Point::new(0.5, 0.0)).unwrap_err();
        assert!(matches!(
            err,
            PhysError::NearFieldViolation { pair: (0, 1) }
        ));
        assert_eq!(e.positions()[1], Point::new(5.0, 0.0));
        // A legal teleport out of range of the talker: node 1 stops
        // hearing it.
        e.step();
        assert_eq!(e.protocol(NodeId(1)).heard, vec![(0, 7)]);
        e.teleport(1, Point::new(100.0, 0.0)).unwrap();
        e.step();
        assert_eq!(e.protocol(NodeId(1)).heard, vec![(0, 7)], "out of range");
        assert_eq!(e.positions()[1], Point::new(100.0, 0.0));
    }

    #[test]
    fn set_mobility_rejects_mismatched_model() {
        use sinr_geom::{MobilityModel, MobilitySpec};
        let pos = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let protos = vec![Scripted::listener(), Scripted::listener()];
        let mut e = Engine::new(params(), pos, protos, 0).unwrap();
        let other = sinr_geom::deploy::line(2, 3.0).unwrap();
        let model = MobilityModel::new(
            MobilitySpec::Drift {
                sigma: 0.1,
                seed: 0,
            },
            &other,
        )
        .unwrap();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.set_mobility(Some(model))));
        assert!(result.is_err(), "mismatched model must be rejected");
    }

    #[test]
    fn node_id_display_and_conversion() {
        let id = NodeId::from(3usize);
        assert_eq!(id.to_string(), "n3");
        assert_eq!(id.index(), 3);
    }
}
