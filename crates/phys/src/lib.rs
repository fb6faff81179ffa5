//! Slotted SINR physical-layer simulator.
//!
//! This crate is the substrate every algorithm in the reproduction runs on:
//! a synchronous, slotted radio network in the plane governed by the SINR
//! inequality of §4.2 of *“A Local Broadcast Layer for the SINR Network
//! Model”* (Halldórsson, Holzer, Lynch — PODC 2015):
//!
//! ```text
//!                P / d(v,u)^α
//!   SINR_u(v) = ──────────────────────────────  ≥ β
//!               Σ_{w ∈ S\{u,v}} P/d(w,u)^α + N
//! ```
//!
//! * Uniform transmission power `P`, path-loss exponent `α > 2`, decoding
//!   threshold `β > 1`, ambient noise `N > 0` ([`SinrParams`]).
//! * `β > 1` implies at most one transmitter is decodable per listener per
//!   slot; the engine exploits this ([`reception`]).
//! * Half-duplex: a node that transmits in a slot cannot receive in it.
//! * No collision detection (§4.6): protocols observe either one decoded
//!   message or silence — nothing else.
//!
//! Algorithms are written as [`Protocol`] automata; an [`Engine`] advances
//! all automata one slot at a time with per-node deterministic RNG streams,
//! so every simulation in this repository is reproducible from a seed.
//!
//! # Examples
//!
//! A two-node network where node 0 shouts and node 1 listens:
//!
//! ```
//! use sinr_geom::Point;
//! use sinr_phys::{Action, Engine, NodeId, Protocol, SinrParams, SlotCtx};
//!
//! struct Shouter(bool);
//! impl Protocol for Shouter {
//!     type Msg = &'static str;
//!     fn on_slot(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<&'static str> {
//!         if self.0 { Action::Transmit("hello") } else { Action::Listen }
//!     }
//!     fn on_receive(&mut self, _ctx: &mut SlotCtx<'_>, msg: &&'static str) {
//!         assert_eq!(*msg, "hello");
//!     }
//! }
//!
//! let params = SinrParams::builder().build().unwrap();
//! let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
//! let protos = vec![Shouter(true), Shouter(false)];
//! let mut engine = Engine::new(params, positions, protos, 42).unwrap();
//! let outcome = engine.step();
//! assert_eq!(outcome.receptions, vec![(NodeId(1), NodeId(0))]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod params;

pub mod reception;
mod simd;

pub use engine::{Action, Engine, EngineStats, NodeId, Protocol, SlotCtx, SlotOutcome};
pub use error::PhysError;
pub use params::{SinrParams, SinrParamsBuilder};
pub use reception::{
    dense_table_bytes, effective_threads, effective_threads_for, max_table_bytes, BackendSpec,
    CachedBackend, GainTable, HybridBackend, HybridTable, InterferenceBackend, InterferenceModel,
    SharedTables, PAR_CROSSOVER_LISTENERS, PAR_MIN_CHUNK,
};
