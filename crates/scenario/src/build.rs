//! Building a [`ScenarioSpec`] into a runnable execution and driving it.
//!
//! [`ScenarioSpec::build`] resolves the spec against real parameter
//! structs (deployment search, `MacParams`, stop condition), constructs
//! the chosen MAC behind a type-erased [`ScenarioMac`] trait object —
//! the paper's plug-and-play claim (§2.2, §12) made concrete: one
//! [`absmac::Runner`] drives the SINR MAC, the ideal MAC and Decay
//! through the same `dyn MacLayer` vtable — and returns a
//! [`RunnableScenario`]. [`RunnableScenario::run`] steps the execution,
//! applying the dynamics schedule, and yields a [`ScenarioRun`] holding
//! the build context and the measured [`ScenarioOutcome`].

use std::sync::Arc;

use absmac::{IdealMac, MacClient, MacEvent, MacLayer, Runner};
use rand::{Rng, SeedableRng};
use sinr_baselines::{
    DecaySmb, DecaySmbConfig, DgknSmb, DgknSmbConfig, RoundRobinConfig, RoundRobinSmb, SmbReport,
};
use sinr_geom::{geometry_digest, DeploySpec, MobilityModel, MobilitySpec, Point};
use sinr_graphs::SinrGraphs;
use sinr_mac::{DecayMac, DecayParams, MacParams, SinrAbsMac};
use sinr_phys::{BackendSpec, GainTable, HybridTable, InterferenceModel, SharedTables, SinrParams};
use sinr_protocols::{Bmmb, Bsmb, FloodMaxConsensus, Proposal};

use crate::clients::{Gated, OneShot, Repeater};
use crate::spec::{
    DeploymentSpec, DynEvent, DynKind, IdealPolicy, MacSpec, ScenarioSpec, SeedSpec, SinrSpec,
    SourceSet, StopSpec, WorkloadSpec,
};
use crate::ScenarioError;

/// How many consecutive seeds the connected-deployment search tries
/// before giving up.
pub const CONNECTED_SEED_BUDGET: u64 = 64;

/// Finds a seed (starting at `seed0`) whose uniform deployment has a
/// connected strong graph; the paper assumes `G₁₋ε` connected (§4.6).
/// Returns the positions, induced graphs and the realized seed.
///
/// # Errors
///
/// [`ScenarioError::NoConnectedDeployment`] if
/// [`CONNECTED_SEED_BUDGET`] consecutive seeds fail — the density is too
/// low for the requested size.
pub fn connected_uniform(
    sinr: &SinrParams,
    n: usize,
    side: f64,
    seed0: u64,
) -> Result<(Vec<Point>, SinrGraphs, u64), ScenarioError> {
    for seed in seed0..seed0 + CONNECTED_SEED_BUDGET {
        if let Ok(positions) = sinr_geom::deploy::uniform(n, side, seed) {
            let graphs = SinrGraphs::induce(sinr, &positions);
            if graphs.strong.is_connected() {
                return Ok((positions, graphs, seed));
            }
        }
    }
    Err(ScenarioError::NoConnectedDeployment {
        n,
        side,
        seed0,
        tried: CONNECTED_SEED_BUDGET,
    })
}

impl DeploymentSpec {
    /// Materializes the deployment against validated SINR parameters:
    /// positions, the induced graphs and the realized generator seed
    /// (the found seed after any connectivity search, `None` for
    /// deterministic geometry). Spec constructors that need realized
    /// facts (e.g. a diameter-derived deadline) use this directly
    /// instead of building a full runnable scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Geom`] from the generator,
    /// [`ScenarioError::NoConnectedDeployment`] from the search, or
    /// [`ScenarioError::Unsupported`] if `connected` is combined with
    /// non-uniform geometry.
    pub fn realize(
        &self,
        sinr: &SinrParams,
    ) -> Result<(Vec<Point>, SinrGraphs, Option<u64>), ScenarioError> {
        #[cfg(test)]
        tests::on_realize(self);
        if self.connected {
            let DeploySpec::Uniform { n, side, seed } = self.geom else {
                return Err(unsupported(
                    "connected deployment search requires uniform geometry",
                ));
            };
            let (positions, graphs, found) = connected_uniform(sinr, n, side, seed)?;
            Ok((positions, graphs, Some(found)))
        } else {
            let positions = self.geom.build()?;
            let graphs = SinrGraphs::induce(sinr, &positions);
            Ok((positions, graphs, self.geom.seed()))
        }
    }
}

/// A MAC layer a scenario can drive: [`MacLayer`] plus the optional
/// control hooks the dynamics schedule and the ablation measurements
/// need. Implementations that lack a hook inherit the defaults
/// (`set_jammer` fails, `dropped_count` reports nothing).
pub trait ScenarioMac: MacLayer {
    /// Turns `node` into a jammer with per-slot probability `p`
    /// (`None` restores normal operation).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Unsupported`] if this MAC has no failure
    /// injection.
    fn set_jammer(&mut self, _node: usize, _p: Option<f64>) -> Result<(), ScenarioError> {
        Err(ScenarioError::Unsupported(
            "this MAC implementation has no jammer hook".into(),
        ))
    }

    /// Current size of the drop-out set `W` (Definition 10.2), if this
    /// MAC tracks one.
    fn dropped_count(&self) -> Option<usize> {
        None
    }

    /// Installs a continuous mobility model over the MAC's deployment.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Unsupported`] if this MAC has no physical
    /// engine to move nodes in (the graph-based ideal MAC, the
    /// self-contained baselines).
    fn set_mobility(&mut self, _spec: &MobilitySpec) -> Result<(), ScenarioError> {
        Err(ScenarioError::Unsupported(
            "this MAC implementation has no physical engine to move nodes in".into(),
        ))
    }

    /// Scripted movement: relocates `node` to `to` between slots.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Unsupported`] if this MAC has no physical
    /// engine; [`ScenarioError::Phys`] if the target violates the
    /// near-field assumption at the moment the event fires.
    fn teleport(&mut self, _node: usize, _to: Point) -> Result<(), ScenarioError> {
        Err(ScenarioError::Unsupported(
            "this MAC implementation has no physical engine to move nodes in".into(),
        ))
    }

    /// A 64-bit fingerprint of the current node positions, if this MAC
    /// has physical geometry (see [`sinr_geom::geometry_digest`]).
    fn geometry_digest(&self) -> Option<u64> {
        None
    }
}

impl<P: Clone> ScenarioMac for SinrAbsMac<P> {
    fn set_jammer(&mut self, node: usize, p: Option<f64>) -> Result<(), ScenarioError> {
        if node >= self.len() {
            return Err(ScenarioError::Unsupported(format!(
                "jammer node {node} out of range"
            )));
        }
        match p {
            Some(p) if (0.0..=1.0).contains(&p) => SinrAbsMac::set_jammer(self, node, p),
            Some(p) => {
                return Err(ScenarioError::Unsupported(format!(
                    "jam probability {p} outside [0,1]"
                )))
            }
            None => self.clear_jammer(node),
        }
        Ok(())
    }

    fn dropped_count(&self) -> Option<usize> {
        Some(SinrAbsMac::dropped_count(self))
    }

    fn set_mobility(&mut self, spec: &MobilitySpec) -> Result<(), ScenarioError> {
        let model = MobilityModel::new(*spec, self.positions())?;
        SinrAbsMac::set_mobility(self, Some(model));
        Ok(())
    }

    fn teleport(&mut self, node: usize, to: Point) -> Result<(), ScenarioError> {
        SinrAbsMac::teleport(self, node, to).map_err(ScenarioError::from)
    }

    fn geometry_digest(&self) -> Option<u64> {
        Some(geometry_digest(self.positions()))
    }
}

impl<P: Clone> ScenarioMac for DecayMac<P> {
    fn set_mobility(&mut self, spec: &MobilitySpec) -> Result<(), ScenarioError> {
        let model = MobilityModel::new(*spec, self.positions())?;
        DecayMac::set_mobility(self, Some(model));
        Ok(())
    }

    fn teleport(&mut self, node: usize, to: Point) -> Result<(), ScenarioError> {
        DecayMac::teleport(self, node, to).map_err(ScenarioError::from)
    }

    fn geometry_digest(&self) -> Option<u64> {
        Some(geometry_digest(self.positions()))
    }
}

impl<P: Clone> ScenarioMac for IdealMac<P> {}

/// The node-indexed `u64` payload workloads, unified so one erased
/// runner type drives them all.
#[derive(Debug, Clone)]
pub enum WorkClient {
    /// Continuous broadcast ([`WorkloadSpec::Repeat`]).
    Repeat(Repeater<u64>),
    /// Single broadcast ([`WorkloadSpec::OneShot`]).
    OneShot(OneShot<u64>),
    /// Global single-message broadcast ([`WorkloadSpec::Smb`]).
    Smb(Bsmb<u64>),
    /// Global multi-message broadcast ([`WorkloadSpec::Mmb`]).
    Mmb(Bmmb<u64>),
}

impl MacClient<u64> for WorkClient {
    fn on_start(&mut self, node: usize, sink: &mut absmac::CmdSink<u64>) {
        match self {
            WorkClient::Repeat(c) => c.on_start(node, sink),
            WorkClient::OneShot(c) => c.on_start(node, sink),
            WorkClient::Smb(c) => c.on_start(node, sink),
            WorkClient::Mmb(c) => c.on_start(node, sink),
        }
    }

    fn on_event(
        &mut self,
        node: usize,
        now: u64,
        ev: &MacEvent<u64>,
        sink: &mut absmac::CmdSink<u64>,
    ) {
        match self {
            WorkClient::Repeat(c) => c.on_event(node, now, ev, sink),
            WorkClient::OneShot(c) => c.on_event(node, now, ev, sink),
            WorkClient::Smb(c) => c.on_event(node, now, ev, sink),
            WorkClient::Mmb(c) => c.on_event(node, now, ev, sink),
        }
    }

    fn on_step(&mut self, node: usize, now: u64, sink: &mut absmac::CmdSink<u64>) {
        match self {
            WorkClient::Repeat(c) => c.on_step(node, now, sink),
            WorkClient::OneShot(c) => c.on_step(node, now, sink),
            WorkClient::Smb(c) => c.on_step(node, now, sink),
            WorkClient::Mmb(c) => c.on_step(node, now, sink),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            WorkClient::Repeat(c) => c.is_done(),
            WorkClient::OneShot(c) => c.is_done(),
            WorkClient::Smb(c) => c.is_done(),
            WorkClient::Mmb(c) => c.is_done(),
        }
    }
}

/// The backend whose table a preparation of `spec` builds: the spec's
/// backend after the `SINR_BACKEND` override, or `exact` for
/// `mac=ideal`, which runs no reception engine and so reads no table.
/// Its model, with [`ScenarioSpec::deployment_key`], keys the
/// [`crate::TableCache`] entry `spec` shares.
///
/// # Panics
///
/// Panics if `SINR_BACKEND` is set but malformed (see
/// [`crate::env_backend_override`]).
pub(crate) fn table_backend(spec: &ScenarioSpec) -> BackendSpec {
    match spec.mac {
        MacSpec::Ideal(_) => BackendSpec::exact(),
        _ => crate::env_backend_override(spec.backend),
    }
}

/// The shareable, immutable outcome of deployment preparation: realized
/// positions, induced graphs, the realized deployment seed and — when
/// the spec runs a cached or hybrid reception kernel — its `Arc`'d
/// table ([`GainTable`] dense or [`HybridTable`] sparse).
///
/// Preparing a deployment is the expensive half of building a scenario
/// (graph induction plus, for `backend=cached`/`backend=hybrid`, the
/// gain-table build); everything else in [`ScenarioSpec::build`] is
/// O(n) or cheaper. [`PreparedDeployment::prepare`] is the only place
/// the scenario layer realizes a deployment and builds its table: a
/// cold [`ScenarioSpec::build`] prepares and consumes the result, and a
/// sweep or the scenario service prepares **once** per
/// [`crate::TableCache`] key and hands every cell this value via
/// [`ScenarioSpec::build_with_prepared`] — each cell clones the
/// positions/graphs (cheap relative to recomputing them) and shares the
/// table by `Arc`. Shared and cold cells are byte-identical
/// (differentially property-tested in `tests/sweep_equivalence.rs`):
/// the generators are deterministic, one function builds every table,
/// and a moving cell copy-on-writes its table fork instead of
/// disturbing sharers.
#[derive(Debug, Clone)]
pub struct PreparedDeployment {
    /// The spec keys this preparation is valid for.
    sinr_spec: SinrSpec,
    deploy: DeploymentSpec,
    positions: Vec<Point>,
    graphs: SinrGraphs,
    deploy_seed: Option<u64>,
    /// Empty unless the spec runs a table-backed kernel.
    tables: SharedTables,
}

impl PreparedDeployment {
    /// Realizes `spec`'s deployment and builds the table of
    /// [`table_backend`] resolved against the realized size — the same
    /// resolution [`ScenarioSpec::build`] applies
    /// ([`BackendSpec::tuned`]): a dense table over the
    /// `SINR_MAX_TABLE_BYTES` cap becomes the sparse auto-cutoff table
    /// the cell will run, and `exact` (or `mac=ideal`) builds none.
    ///
    /// # Errors
    ///
    /// The same errors [`ScenarioSpec::build`] would produce for the
    /// deployment half: invalid physics, infeasible geometry or a failed
    /// connectivity search.
    pub fn prepare(spec: &ScenarioSpec) -> Result<Self, ScenarioError> {
        let sinr = spec.sinr.to_params()?;
        let (positions, graphs, deploy_seed) = spec.deploy.realize(&sinr)?;
        let backend = table_backend(spec).tuned(positions.len());
        // Thread count never changes the entries of either table (each
        // pair / row is computed independently), so the table equals
        // any kernel's private build bit for bit.
        let tables = match backend.model {
            InterferenceModel::Cached => {
                let table = GainTable::try_build(&sinr, &positions, backend.threads)?;
                SharedTables::Dense(Arc::new(table))
            }
            InterferenceModel::Hybrid { cutoff } => SharedTables::Hybrid(Arc::new(
                HybridTable::build(&sinr, &positions, cutoff, backend.threads),
            )),
            _ => SharedTables::Empty,
        };
        Ok(PreparedDeployment {
            sinr_spec: spec.sinr,
            deploy: spec.deploy,
            positions,
            graphs,
            deploy_seed,
            tables,
        })
    }

    /// Whether this preparation is valid for `spec`: same deployment
    /// spec (geometry, seed, connectivity search) and same SINR
    /// parameters — the two keys the realized positions, graphs and
    /// gains are functions of. Mobility deliberately does **not**
    /// invalidate a match: movement happens after slot 0, the prepared
    /// state describes slot 0, and the cached kernel forks its table
    /// copy-on-write on the first repair.
    pub fn matches(&self, spec: &ScenarioSpec) -> bool {
        self.deploy == spec.deploy && self.sinr_spec == spec.sinr
    }

    /// The realized node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The shared table, [`SharedTables::Empty`] when none was built.
    pub fn tables(&self) -> &SharedTables {
        &self.tables
    }

    /// Resident bytes of this preparation: the shared gain tables plus
    /// the realized positions — what a byte-budgeted cache charges for
    /// keeping it warm. (Graphs are adjacency lists, small next to the
    /// tables; they are deliberately not counted.)
    pub fn resident_bytes(&self) -> usize {
        self.tables.bytes() + self.positions.len() * std::mem::size_of::<Point>()
    }
}

/// Everything resolved while building a scenario: the realized
/// deployment, induced graphs, parameters and effective backend. Kept
/// alongside the execution so measurement post-processing (latency
/// extraction against `G₁₋ε`/`G₁₋₂ε`, theory shapes) needs no second
/// build.
#[derive(Debug, Clone)]
pub struct ScenarioCtx {
    /// The spec this context was built from.
    pub spec: ScenarioSpec,
    /// Validated SINR parameters.
    pub sinr: SinrParams,
    /// Realized node positions.
    pub positions: Vec<Point>,
    /// Graphs `G₁ ⊇ G₁₋ε ⊇ G₁₋₂ε` induced on the deployment.
    pub graphs: SinrGraphs,
    /// The run RNG seed after resolving [`SeedSpec`].
    pub seed: u64,
    /// The realized deployment seed (after any connectivity search);
    /// `None` for deterministic geometry.
    pub deploy_seed: Option<u64>,
    /// Resolved MAC parameters when the spec runs the paper's MAC.
    pub mac_params: Option<MacParams>,
    /// The reception backend actually in effect (spec field, or the
    /// `SINR_BACKEND` environment override).
    pub backend: BackendSpec,
    /// The resolved slot budget of the stop condition.
    pub max_slots: u64,
}

enum Exec {
    /// `u64`-payload workloads over an erased MAC.
    Mac(Runner<Box<dyn ScenarioMac<Payload = u64>>, Gated<WorkClient>>),
    /// Consensus (Proposal payload) over an erased MAC, with the random
    /// input values it was built with.
    Consensus(
        Runner<Box<dyn ScenarioMac<Payload = Proposal>>, FloodMaxConsensus>,
        Vec<bool>,
    ),
    /// Self-contained baseline executions.
    Tdma(RoundRobinSmb<u64>),
    Dgkn(DgknSmb<u64>),
    DecaySmb(DecaySmb<u64>),
}

/// A built scenario, ready to run once.
pub struct RunnableScenario {
    /// The resolved build context.
    pub ctx: ScenarioCtx,
    exec: Exec,
    check_done: bool,
    poll_dropped: bool,
    /// Geometry-digest sampling period in slots (`None` = geometry is
    /// static, record nothing). One epoch for the paper's MAC, an
    /// eighth of the horizon otherwise.
    digest_every: Option<u64>,
}

/// What a finished run measured.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The recorded execution trace (empty when tracing was off or the
    /// execution was a self-contained baseline).
    pub trace: Vec<absmac::TraceEvent>,
    /// Whether trace recording hit its capacity limit.
    pub trace_truncated: bool,
    /// The slot at which a `done`-stopped run completed, or the slot the
    /// last node of a baseline broadcast was informed; `None` on horizon
    /// overrun or for fixed-slot runs.
    pub completed_at: Option<u64>,
    /// The slot budget the run was given.
    pub horizon: u64,
    /// Baseline broadcast report, when the execution was one.
    pub smb: Option<SmbReport>,
    /// Per-node consensus decisions, for consensus workloads.
    pub decisions: Option<Vec<Option<bool>>>,
    /// The random per-node input values a consensus workload was built
    /// with (validity checks need them).
    pub consensus_inputs: Option<Vec<bool>>,
    /// Peak drop-out set size, when `measure=dropped`.
    pub max_dropped: Option<usize>,
    /// Per-epoch geometry fingerprints (initial, each epoch boundary,
    /// final), recorded only when the scenario moves nodes (`mobility=`
    /// or `dyn=teleport:…`). Trajectories are backend-independent, so
    /// these digests must agree bit for bit across reception backends —
    /// the cheap observable the differential tests pin.
    pub geometry_digests: Option<Vec<u64>>,
}

/// A finished run: the build context plus the outcome.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The resolved build context.
    pub ctx: ScenarioCtx,
    /// The measurements.
    pub outcome: ScenarioOutcome,
}

fn unsupported(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Unsupported(msg.into())
}

impl ScenarioSpec {
    /// Resolves the spec and constructs the execution. See the module
    /// docs for what resolution entails.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`]: invalid physics, infeasible deployment,
    /// failed connectivity search, or an unsupported combination (e.g.
    /// `stop=epochs` on a MAC without an epoch structure).
    pub fn build(&self) -> Result<RunnableScenario, ScenarioError> {
        self.build_inner(PreparedDeployment::prepare(self)?)
    }

    /// Like [`ScenarioSpec::build`] against an already-prepared
    /// deployment: the O(n²) preparation (geometry realization, graph
    /// induction and — for the table kernels — the gain-table build) is
    /// taken from `prepared` instead of recomputed, which is what lets a
    /// sweep or the scenario service amortize one preparation across
    /// every cell that shares its [`crate::TableCache`] key. The built
    /// scenario is byte-identical to a cold [`ScenarioSpec::build`]
    /// (property-tested).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Unsupported`] if `prepared` was made for a
    /// different deployment or SINR spec
    /// ([`PreparedDeployment::matches`]), plus everything
    /// [`ScenarioSpec::build`] can produce.
    pub fn build_with_prepared(
        &self,
        prepared: &PreparedDeployment,
    ) -> Result<RunnableScenario, ScenarioError> {
        if !prepared.matches(self) {
            return Err(unsupported(format!(
                "prepared deployment (deploy={}, sinr={}) does not match spec {} \
                 (deploy={}, sinr={})",
                prepared.deploy, prepared.sinr_spec, self.name, self.deploy, self.sinr
            )));
        }
        self.build_inner(prepared.clone())
    }

    /// The one build body: takes the preparation by value, so a cold
    /// build moves the positions and graphs into the context instead of
    /// cloning them, and a table nobody else holds stays unshared.
    fn build_inner(&self, prepared: PreparedDeployment) -> Result<RunnableScenario, ScenarioError> {
        let sinr = self.sinr.to_params()?;
        let PreparedDeployment {
            positions,
            graphs,
            deploy_seed,
            tables,
            ..
        } = prepared;
        let n = positions.len();
        // Serial/parallel crossover: now that the deployment size is
        // known, resolve the env override and the requested thread count
        // against it so small scenarios never pay thread fan-out
        // (`backend=cached:par:8` on a 16-node spec runs serial;
        // receptions are thread-invariant, so this changes wall clock
        // only). The effective spec is what the run context reports.
        //
        // The resolution is deliberately made ONCE, against the
        // deployment realized at slot 0. Mobility moves nodes but never
        // adds or removes them, and the crossover depends only on the
        // listener COUNT — so the slot-0 choice remains exactly right
        // for the whole run, no matter how the geometry evolves. If a
        // future dynamics axis ever changes n mid-run, this is the line
        // to revisit (unit-tested in
        // `backend_threads_resolved_once_at_slot_zero_under_mobility`).
        let backend = crate::resolve_backend(self.backend, n);

        let seed = match self.seed {
            SeedSpec::Fixed(s) => s,
            SeedSpec::FromDeploy => deploy_seed.ok_or_else(|| {
                unsupported("seed=deploy requires a seeded (randomized) deployment")
            })?,
        };

        let mac_params = match &self.mac {
            MacSpec::Sinr { overrides } => {
                let mut b = MacParams::builder();
                for &(knob, v) in overrides {
                    knob.apply(&mut b, v);
                }
                Some(b.build(&sinr))
            }
            _ => None,
        };

        let (max_slots, check_done) = match self.stop {
            StopSpec::Slots(s) => (s, false),
            StopSpec::Done(m) => (m, true),
            StopSpec::Epochs(e) => {
                let params = mac_params.as_ref().ok_or_else(|| {
                    unsupported("stop=epochs requires mac=sinr (only it has an epoch layout)")
                })?;
                (e * 2 * params.layout().epoch_len(), false)
            }
        };

        // Validate workload addressing against the realized deployment —
        // a spec typo must fail the build, not burn the horizon and
        // masquerade as a timeout.
        match &self.workload {
            WorkloadSpec::Smb { source } => {
                if *source >= n {
                    return Err(unsupported(format!(
                        "workload=smb:{source} names a source outside the {n}-node deployment"
                    )));
                }
            }
            WorkloadSpec::Mmb { k } => {
                if *k == 0 || *k > n {
                    return Err(unsupported(format!(
                        "workload=mmb:{k} needs between 1 and n messages for an n={n} deployment"
                    )));
                }
            }
            WorkloadSpec::Repeat(srcs) | WorkloadSpec::OneShot(srcs) => match srcs {
                SourceSet::Range(lo, hi) if *lo >= *hi || *hi > n => {
                    return Err(unsupported(format!(
                        "source range:{lo}:{hi} is empty or outside the {n}-node deployment"
                    )));
                }
                SourceSet::List(v) => {
                    if let Some(&bad) = v.iter().find(|&&i| i >= n) {
                        return Err(unsupported(format!(
                            "source list names node {bad}, but the deployment has {n} nodes"
                        )));
                    }
                }
                SourceSet::Count(k) if *k == 0 || *k > n => {
                    return Err(unsupported(format!(
                        "source count:{k} needs between 1 and n broadcasters for an n={n} deployment"
                    )));
                }
                SourceSet::Stride(0) => {
                    return Err(unsupported("source stride must be >= 1"));
                }
                _ => {}
            },
            WorkloadSpec::Consensus { .. } => {}
        }

        // Mobility (continuous movement and scripted teleports) needs a
        // physical engine to move nodes in: only the SINR MAC and Decay
        // run one. The ideal MAC is graph-based and the SMB baselines
        // are self-contained executions.
        let physical_mac = matches!(self.mac, MacSpec::Sinr { .. } | MacSpec::Decay { .. });
        if self.mobility.is_some() && !physical_mac {
            return Err(unsupported(format!(
                "mobility requires a physical-engine MAC (sinr or decay), got mac={}",
                self.mac
            )));
        }

        // Validate dynamics against the chosen MAC and workload.
        for ev in &self.dynamics {
            let node = match ev.kind {
                DynKind::Jam { node, .. }
                | DynKind::Unjam { node }
                | DynKind::Arrive { node }
                | DynKind::Depart { node }
                | DynKind::Teleport { node, .. } => node,
            };
            if node >= n {
                return Err(unsupported(format!(
                    "dynamics event {ev} names node {node}, but the deployment has {n} nodes"
                )));
            }
            match ev.kind {
                DynKind::Jam { .. } | DynKind::Unjam { .. } => {
                    if !matches!(self.mac, MacSpec::Sinr { .. }) {
                        return Err(unsupported(format!(
                            "jammer dynamics require mac=sinr, got mac={}",
                            self.mac
                        )));
                    }
                }
                DynKind::Arrive { .. } | DynKind::Depart { .. } => {
                    if matches!(self.workload, WorkloadSpec::Consensus { .. })
                        || matches!(self.mac, MacSpec::Tdma | MacSpec::Dgkn | MacSpec::DecaySmb)
                    {
                        return Err(unsupported(format!(
                            "arrival/departure dynamics are not supported for workload={} over mac={}",
                            self.workload, self.mac
                        )));
                    }
                }
                DynKind::Teleport { x, y, .. } => {
                    if !physical_mac {
                        return Err(unsupported(format!(
                            "teleport dynamics require a physical-engine MAC (sinr or decay), got mac={}",
                            self.mac
                        )));
                    }
                    if !(x.is_finite() && y.is_finite()) {
                        return Err(unsupported(format!(
                            "teleport target ({x}, {y}) must be finite"
                        )));
                    }
                }
            }
        }

        // Arrival/departure windows must be single and well-ordered per
        // node: the gate supports one activity window, so a second event
        // of the same kind or a re-arrival after departure would be
        // silently collapsed — reject it instead.
        let mut windows: std::collections::BTreeMap<usize, (Option<u64>, Option<u64>)> =
            std::collections::BTreeMap::new();
        for ev in &self.dynamics {
            let (is_arrive, node) = match ev.kind {
                DynKind::Arrive { node } => (true, node),
                DynKind::Depart { node } => (false, node),
                _ => continue,
            };
            let entry = windows.entry(node).or_default();
            let slot = if is_arrive {
                &mut entry.0
            } else {
                &mut entry.1
            };
            if slot.replace(ev.at).is_some() {
                let kind = if is_arrive { "arrive" } else { "depart" };
                return Err(unsupported(format!(
                    "node {node} has more than one {kind} event"
                )));
            }
        }
        for (node, (arrive, depart)) in &windows {
            if let (Some(a), Some(d)) = (arrive, depart) {
                if d <= a {
                    return Err(unsupported(format!(
                        "node {node} departs at {d} but only arrives at {a}; \
                         re-arrival after departure is not supported"
                    )));
                }
            }
        }

        let exec = self.build_exec(
            &sinr,
            &positions,
            &graphs,
            mac_params.as_ref(),
            seed,
            backend,
            &tables,
        )?;

        // Geometry digests are only worth recording when something can
        // move; sample once per approximate-progress epoch when the
        // paper's MAC defines one (the ×2 converts the layout's
        // odd-slot count into physical slots, the same convention as
        // `stop=epochs` and the reported `epoch_len`), else eight
        // samples across the horizon.
        let moves_nodes = self.mobility.is_some()
            || self
                .dynamics
                .iter()
                .any(|ev| matches!(ev.kind, DynKind::Teleport { .. }));
        let digest_every = moves_nodes.then(|| match &mac_params {
            Some(params) => 2 * params.layout().epoch_len(),
            None => (max_slots / 8).max(1),
        });

        Ok(RunnableScenario {
            ctx: ScenarioCtx {
                spec: self.clone(),
                sinr,
                positions,
                graphs,
                seed,
                deploy_seed,
                mac_params,
                backend,
                max_slots,
            },
            exec,
            check_done,
            poll_dropped: self.measure.dropped,
            digest_every,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn build_exec(
        &self,
        sinr: &SinrParams,
        positions: &[Point],
        graphs: &SinrGraphs,
        mac_params: Option<&MacParams>,
        seed: u64,
        backend: BackendSpec,
        tables: &SharedTables,
    ) -> Result<Exec, ScenarioError> {
        let n = positions.len();
        let source_set = |w: &WorkloadSpec| match w {
            WorkloadSpec::Repeat(s) | WorkloadSpec::OneShot(s) => Some(s.clone()),
            WorkloadSpec::Smb { source } => Some(SourceSet::List(vec![*source])),
            _ => None,
        };
        match &self.mac {
            MacSpec::Tdma => {
                let sources = source_set(&self.workload).ok_or_else(|| {
                    unsupported(format!(
                        "mac=tdma needs a broadcaster set (repeat/oneshot/smb workload), got {}",
                        self.workload
                    ))
                })?;
                let broadcasters = sources.members(n);
                if broadcasters.is_empty() {
                    return Err(unsupported("mac=tdma needs at least one broadcaster"));
                }
                let tdma = RoundRobinSmb::with_prepared(
                    *sinr,
                    positions,
                    &RoundRobinConfig { broadcasters },
                    |i| i as u64,
                    seed,
                    backend,
                    Some(tables),
                )?;
                Ok(Exec::Tdma(tdma))
            }
            MacSpec::Dgkn => {
                let WorkloadSpec::Smb { source } = self.workload else {
                    return Err(unsupported(format!(
                        "mac=dgkn runs only workload=smb, got {}",
                        self.workload
                    )));
                };
                let dgkn = DgknSmb::with_prepared(
                    *sinr,
                    positions,
                    &DgknSmbConfig::default(),
                    source,
                    7u64,
                    seed,
                    backend,
                    Some(tables),
                )?;
                Ok(Exec::Dgkn(dgkn))
            }
            MacSpec::DecaySmb => {
                let WorkloadSpec::Smb { source } = self.workload else {
                    return Err(unsupported(format!(
                        "mac=decay_smb runs only workload=smb, got {}",
                        self.workload
                    )));
                };
                let decay = DecaySmb::with_prepared(
                    *sinr,
                    positions,
                    DecaySmbConfig::for_network_size(n),
                    source,
                    7u64,
                    seed,
                    backend,
                    Some(tables),
                )?;
                Ok(Exec::DecaySmb(decay))
            }
            mac @ (MacSpec::Sinr { .. } | MacSpec::Ideal(_) | MacSpec::Decay { .. }) => {
                if let WorkloadSpec::Consensus { deadline } = self.workload {
                    let mut mac: Box<dyn ScenarioMac<Payload = Proposal>> = build_layer(
                        mac, sinr, positions, graphs, mac_params, seed, backend, tables,
                    )?;
                    if let Some(m) = &self.mobility {
                        mac.set_mobility(m)?;
                    }
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE);
                    let values: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
                    let clients = FloodMaxConsensus::network(&values, deadline);
                    let cap = if self.measure.trace { usize::MAX } else { 0 };
                    Ok(Exec::Consensus(
                        Runner::with_trace_capacity(mac, clients, cap)?,
                        values,
                    ))
                } else {
                    let mut mac: Box<dyn ScenarioMac<Payload = u64>> = build_layer(
                        mac, sinr, positions, graphs, mac_params, seed, backend, tables,
                    )?;
                    if let Some(m) = &self.mobility {
                        mac.set_mobility(m)?;
                    }
                    let base: Vec<WorkClient> = match &self.workload {
                        WorkloadSpec::Repeat(srcs) => {
                            Repeater::network(n, |i| srcs.is_source(i, n).then_some(i as u64))
                                .into_iter()
                                .map(WorkClient::Repeat)
                                .collect()
                        }
                        WorkloadSpec::OneShot(srcs) => {
                            OneShot::network(n, |i| srcs.is_source(i, n).then_some(i as u64))
                                .into_iter()
                                .map(WorkClient::OneShot)
                                .collect()
                        }
                        WorkloadSpec::Smb { source } => Bsmb::network(n, *source, 7u64)
                            .into_iter()
                            .map(WorkClient::Smb)
                            .collect(),
                        WorkloadSpec::Mmb { k } => {
                            let k = *k;
                            let stride = (n / k.max(1)).max(1);
                            Bmmb::network(
                                n,
                                |i| {
                                    if i % stride == 0 && i / stride < k {
                                        vec![1000 + (i / stride) as u64]
                                    } else {
                                        vec![]
                                    }
                                },
                                Some(k),
                            )
                            .into_iter()
                            .map(WorkClient::Mmb)
                            .collect()
                        }
                        WorkloadSpec::Consensus { .. } => unreachable!("handled above"),
                    };
                    let clients = base
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let window = |want: fn(&DynKind, usize) -> bool| {
                                self.dynamics
                                    .iter()
                                    .filter(|ev| want(&ev.kind, i))
                                    .map(|ev| ev.at)
                                    .min()
                            };
                            let arrive =
                                window(|k, i| matches!(k, DynKind::Arrive { node } if *node == i));
                            let depart =
                                window(|k, i| matches!(k, DynKind::Depart { node } if *node == i));
                            Gated::windowed(c, arrive, depart)
                        })
                        .collect();
                    let cap = if self.measure.trace { usize::MAX } else { 0 };
                    Ok(Exec::Mac(Runner::with_trace_capacity(mac, clients, cap)?))
                }
            }
        }
    }

    /// Builds and runs in one call.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`] from [`ScenarioSpec::build`] or
    /// [`RunnableScenario::run`].
    pub fn run(&self) -> Result<ScenarioRun, ScenarioError> {
        self.build()?.run()
    }
}

/// Constructs one of the plug-and-play MAC layers behind the erased
/// [`ScenarioMac`] interface, for any payload type. `tables` is the
/// prepared deployment's table (consumed only by the cached/hybrid
/// reception kernels of the physical-engine MACs).
#[allow(clippy::too_many_arguments)]
fn build_layer<P: Clone + 'static>(
    mac: &MacSpec,
    sinr: &SinrParams,
    positions: &[Point],
    graphs: &SinrGraphs,
    mac_params: Option<&MacParams>,
    seed: u64,
    backend: BackendSpec,
    tables: &SharedTables,
) -> Result<Box<dyn ScenarioMac<Payload = P>>, ScenarioError> {
    let tables = Some(tables);
    match mac {
        MacSpec::Sinr { .. } => {
            let params = mac_params.expect("mac=sinr resolves params").clone();
            Ok(Box::new(SinrAbsMac::with_prepared(
                *sinr, positions, params, seed, backend, tables,
            )?))
        }
        MacSpec::Ideal(policy) => {
            let policy = match *policy {
                IdealPolicy::Eager => absmac::SchedulerPolicy::Eager,
                IdealPolicy::Random { fack, fprog } | IdealPolicy::Adversarial { fack, fprog }
                    if fprog == 0 || fprog > fack =>
                {
                    return Err(unsupported(format!("{mac} needs 1 <= fprog <= fack")));
                }
                IdealPolicy::Random { fack, fprog } => {
                    absmac::SchedulerPolicy::Random { fack, fprog }
                }
                IdealPolicy::Adversarial { fack, fprog } => {
                    absmac::SchedulerPolicy::Adversarial { fack, fprog }
                }
            };
            Ok(Box::new(IdealMac::new(graphs.strong.clone(), policy, seed)))
        }
        MacSpec::Decay {
            n_tilde,
            eps,
            budget_mult,
        } => {
            if !(n_tilde.is_finite() && *n_tilde >= 2.0) {
                return Err(unsupported("decay contention bound must be >= 2"));
            }
            if !(*eps > 0.0 && *eps < 1.0) {
                return Err(unsupported("decay eps must be in (0,1)"));
            }
            if !(budget_mult.is_finite() && *budget_mult > 0.0) {
                return Err(unsupported("decay budget_mult must be positive"));
            }
            let params = DecayParams::from_contention(*n_tilde, *eps, *budget_mult);
            Ok(Box::new(DecayMac::with_prepared(
                *sinr, positions, params, seed, backend, tables,
            )?))
        }
        _ => Err(unsupported(format!("{mac} is not a steppable MAC layer"))),
    }
}

/// What [`drive`] measured beyond the trace.
struct DriveOutcome {
    completed_at: Option<u64>,
    max_dropped: Option<usize>,
    geometry_digests: Option<Vec<u64>>,
}

/// Steps a runner for up to `max_slots`, applying MAC-directed dynamics
/// (jammers, scripted teleports), polling the drop-out set and sampling
/// geometry digests at the given period.
fn drive<P: Clone, C: MacClient<P>>(
    runner: &mut Runner<Box<dyn ScenarioMac<Payload = P>>, C>,
    max_slots: u64,
    check_done: bool,
    dynamics: &[DynEvent],
    poll_dropped: bool,
    digest_every: Option<u64>,
) -> Result<DriveOutcome, ScenarioError> {
    let mut events: Vec<&DynEvent> = dynamics
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                DynKind::Jam { .. } | DynKind::Unjam { .. } | DynKind::Teleport { .. }
            )
        })
        .collect();
    events.sort_by_key(|ev| ev.at);
    let mut next_event = 0usize;
    let mut max_dropped: Option<usize> = None;
    let mut digests: Vec<u64> = Vec::new();
    let mut last_sampled: Option<u64> = None;
    // Sampling is keyed by slot so the unconditional final sample never
    // duplicates an epoch-boundary sample taken the same slot (the
    // common case: the default period divides the horizon evenly).
    let mut sample_digest = |runner: &Runner<Box<dyn ScenarioMac<Payload = P>>, C>, at: u64| {
        if digest_every.is_some() && last_sampled != Some(at) {
            if let Some(d) = runner.mac().geometry_digest() {
                digests.push(d);
                last_sampled = Some(at);
            }
        }
    };
    sample_digest(runner, 0);
    let mut completed_at = None;
    for _ in 0..max_slots {
        let now = runner.mac().now();
        while next_event < events.len() && events[next_event].at <= now {
            match events[next_event].kind {
                DynKind::Jam { node, p } => runner.mac_mut().set_jammer(node, Some(p))?,
                DynKind::Unjam { node } => runner.mac_mut().set_jammer(node, None)?,
                DynKind::Teleport { node, x, y } => {
                    runner.mac_mut().teleport(node, Point::new(x, y))?
                }
                _ => unreachable!("filtered above"),
            }
            next_event += 1;
        }
        let t = runner.step()?;
        if let Some(k) = digest_every {
            if t.is_multiple_of(k) {
                sample_digest(runner, t);
            }
        }
        if poll_dropped {
            if let Some(d) = runner.mac().dropped_count() {
                max_dropped = Some(max_dropped.unwrap_or(0).max(d));
            }
        }
        if check_done && runner.clients().all(|c| c.is_done()) {
            completed_at = Some(t);
            break;
        }
    }
    // The final geometry, whether the run completed or hit its horizon
    // (skipped when the last slot was already an epoch-boundary sample).
    sample_digest(runner, runner.mac().now());
    Ok(DriveOutcome {
        completed_at,
        max_dropped,
        geometry_digests: (digest_every.is_some() && !digests.is_empty()).then_some(digests),
    })
}

impl RunnableScenario {
    /// Runs the scenario to its stop condition.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Mac`] if a client violates the MAC contract —
    /// surfaced rather than masked, exactly as the legacy harness did.
    pub fn run(mut self) -> Result<ScenarioRun, ScenarioError> {
        let max_slots = self.ctx.max_slots;
        let dynamics = self.ctx.spec.dynamics.clone();
        let outcome = match &mut self.exec {
            Exec::Mac(runner) => {
                let driven = drive(
                    runner,
                    max_slots,
                    self.check_done,
                    &dynamics,
                    self.poll_dropped,
                    self.digest_every,
                )?;
                ScenarioOutcome {
                    trace: runner.take_trace(),
                    trace_truncated: runner.trace_truncated(),
                    completed_at: driven.completed_at,
                    horizon: max_slots,
                    smb: None,
                    decisions: None,
                    consensus_inputs: None,
                    max_dropped: driven.max_dropped,
                    geometry_digests: driven.geometry_digests,
                }
            }
            Exec::Consensus(runner, values) => {
                let driven = drive(
                    runner,
                    max_slots,
                    self.check_done,
                    &dynamics,
                    self.poll_dropped,
                    self.digest_every,
                )?;
                let decisions = runner.clients().map(|c| c.decision()).collect();
                ScenarioOutcome {
                    trace: runner.take_trace(),
                    trace_truncated: runner.trace_truncated(),
                    completed_at: driven.completed_at,
                    horizon: max_slots,
                    smb: None,
                    decisions: Some(decisions),
                    consensus_inputs: Some(std::mem::take(values)),
                    max_dropped: driven.max_dropped,
                    geometry_digests: driven.geometry_digests,
                }
            }
            Exec::Tdma(tdma) => {
                let report = tdma.run(max_slots);
                baseline_outcome(report, max_slots)
            }
            Exec::Dgkn(dgkn) => {
                let report = dgkn.run(max_slots);
                baseline_outcome(report, max_slots)
            }
            Exec::DecaySmb(decay) => {
                let report = decay.run(max_slots);
                baseline_outcome(report, max_slots)
            }
        };
        Ok(ScenarioRun {
            ctx: self.ctx,
            outcome,
        })
    }
}

fn baseline_outcome(report: SmbReport, horizon: u64) -> ScenarioOutcome {
    ScenarioOutcome {
        trace: Vec::new(),
        trace_truncated: false,
        completed_at: report.completion,
        horizon,
        smb: Some(report),
        decisions: None,
        consensus_inputs: None,
        max_dropped: None,
        geometry_digests: None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every deployment [`DeploymentSpec::realize`] was asked for, in
    /// call order, across all tests of this process.
    static REALIZED: std::sync::Mutex<Vec<DeploymentSpec>> = std::sync::Mutex::new(Vec::new());

    /// Hook at the top of [`DeploymentSpec::realize`].
    pub(super) fn on_realize(deploy: &DeploymentSpec) {
        crate::lock_unpoisoned(&REALIZED).push(*deploy);
    }

    /// How many times `deploy` was realized so far.
    pub(crate) fn realized(deploy: &DeploymentSpec) -> usize {
        crate::lock_unpoisoned(&REALIZED)
            .iter()
            .filter(|d| *d == deploy)
            .count()
    }
    use crate::spec::{DeploymentSpec, MeasureSpec, SinrSpec, SourceSet};

    fn lattice16() -> DeploymentSpec {
        DeploymentSpec::plain(DeploySpec::Lattice {
            rows: 4,
            cols: 4,
            spacing: 2.0,
        })
    }

    fn base(mac: MacSpec, workload: WorkloadSpec, stop: StopSpec) -> ScenarioSpec {
        ScenarioSpec::new("test", lattice16(), workload, stop)
            .with_sinr(SinrSpec::with_range(8.0))
            .with_mac(mac)
    }

    #[test]
    fn sinr_repeat_runs_and_traces() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(300),
        );
        let run = spec.run().unwrap();
        assert_eq!(run.ctx.positions.len(), 16);
        assert!(run.ctx.mac_params.is_some());
        assert!(!run.outcome.trace.is_empty(), "repeat must trace bcasts");
        assert_eq!(run.outcome.horizon, 300);
    }

    #[test]
    fn every_steppable_mac_runs_the_same_workload() {
        for mac in [
            MacSpec::sinr(),
            MacSpec::Ideal(IdealPolicy::Eager),
            MacSpec::Decay {
                n_tilde: 16.0,
                eps: 0.125,
                budget_mult: 4.0,
            },
        ] {
            let spec = base(
                mac.clone(),
                WorkloadSpec::OneShot(SourceSet::Count(2)),
                StopSpec::Done(20_000),
            );
            let run = spec.run().unwrap_or_else(|e| panic!("{mac}: {e}"));
            assert!(
                run.outcome.completed_at.is_some(),
                "{mac} did not ack within budget"
            );
        }
    }

    #[test]
    fn baseline_macs_produce_smb_reports() {
        for mac in [MacSpec::Tdma, MacSpec::Dgkn, MacSpec::DecaySmb] {
            let spec = base(
                mac.clone(),
                WorkloadSpec::Smb { source: 0 },
                StopSpec::Done(200_000),
            );
            let run = spec.run().unwrap_or_else(|e| panic!("{mac}: {e}"));
            let smb = run.outcome.smb.expect("baseline yields an SmbReport");
            assert!(smb.informed_count() > 1, "{mac} informed nobody");
        }
    }

    #[test]
    fn epochs_stop_resolves_against_mac_params() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Epochs(2),
        );
        let built = spec.build().unwrap();
        let epoch = built.ctx.mac_params.as_ref().unwrap().layout().epoch_len();
        assert_eq!(built.ctx.max_slots, 2 * 2 * epoch);
    }

    #[test]
    fn ideal_policies_outside_one_to_fack_are_rejected() {
        for policy in [
            IdealPolicy::Random { fack: 2, fprog: 5 },
            IdealPolicy::Random { fack: 1, fprog: 0 },
            IdealPolicy::Adversarial { fack: 0, fprog: 0 },
        ] {
            let spec = base(
                MacSpec::Ideal(policy),
                WorkloadSpec::Repeat(SourceSet::All),
                StopSpec::Slots(10),
            );
            assert!(
                matches!(spec.build(), Err(ScenarioError::Unsupported(_))),
                "{} must be rejected at build time",
                spec.mac
            );
        }
    }

    #[test]
    fn epochs_stop_rejected_off_sinr_mac() {
        let spec = base(
            MacSpec::Ideal(IdealPolicy::Eager),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Epochs(2),
        );
        assert!(matches!(spec.build(), Err(ScenarioError::Unsupported(_))));
    }

    #[test]
    fn workload_indices_validated_against_deployment() {
        // All of these would otherwise burn their horizon and read as
        // timeouts; the 4×4 lattice has 16 nodes.
        let bad = [
            base(
                MacSpec::sinr(),
                WorkloadSpec::Smb { source: 99 },
                StopSpec::Done(100),
            ),
            base(
                MacSpec::sinr(),
                WorkloadSpec::Mmb { k: 99 },
                StopSpec::Done(100),
            ),
            base(
                MacSpec::sinr(),
                WorkloadSpec::Repeat(SourceSet::List(vec![2, 20])),
                StopSpec::Slots(10),
            ),
            base(
                MacSpec::sinr(),
                WorkloadSpec::OneShot(SourceSet::Range(4, 20)),
                StopSpec::Slots(10),
            ),
        ];
        for spec in bad {
            assert!(
                matches!(spec.build(), Err(ScenarioError::Unsupported(_))),
                "{} must be rejected at build time",
                spec.workload
            );
        }
    }

    #[test]
    fn jammer_dynamics_rejected_off_sinr_mac() {
        let spec = base(
            MacSpec::Ideal(IdealPolicy::Eager),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Jam { node: 0, p: 0.5 },
        });
        assert!(matches!(spec.build(), Err(ScenarioError::Unsupported(_))));
    }

    #[test]
    fn jam_then_unjam_executes() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(400),
        )
        .with_dynamics(DynEvent {
            at: 50,
            kind: DynKind::Jam { node: 1, p: 1.0 },
        })
        .with_dynamics(DynEvent {
            at: 200,
            kind: DynKind::Unjam { node: 1 },
        });
        let run = spec.run().unwrap();
        assert_eq!(run.outcome.horizon, 400);
    }

    #[test]
    fn departure_stops_a_sources_broadcasts() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::List(vec![0])),
            StopSpec::Slots(600),
        )
        .with_dynamics(DynEvent {
            at: 100,
            kind: DynKind::Depart { node: 0 },
        });
        let run = spec.run().unwrap();
        let last_bcast = run
            .outcome
            .trace
            .iter()
            .filter(|e| matches!(e.kind, absmac::TraceKind::Bcast(_)))
            .map(|e| e.t)
            .max()
            .expect("node 0 broadcast before departing");
        assert!(
            last_bcast < 102,
            "broadcast after departure at {last_bcast}"
        );
    }

    #[test]
    fn inconsistent_activity_windows_rejected() {
        // Re-arrival after departure (the gate supports one window).
        let rearrive = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 50,
            kind: DynKind::Depart { node: 3 },
        })
        .with_dynamics(DynEvent {
            at: 100,
            kind: DynKind::Arrive { node: 3 },
        });
        assert!(matches!(
            rearrive.build(),
            Err(ScenarioError::Unsupported(_))
        ));
        // Duplicate events of one kind.
        let twice = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Arrive { node: 3 },
        })
        .with_dynamics(DynEvent {
            at: 20,
            kind: DynKind::Arrive { node: 3 },
        });
        assert!(matches!(twice.build(), Err(ScenarioError::Unsupported(_))));
        // A well-ordered window still builds.
        let ok = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Arrive { node: 3 },
        })
        .with_dynamics(DynEvent {
            at: 50,
            kind: DynKind::Depart { node: 3 },
        });
        assert!(ok.build().is_ok());
    }

    #[test]
    fn consensus_workload_decides() {
        let mut spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Consensus { deadline: 0 },
            StopSpec::Done(0),
        );
        // Deadline/stop need graph-aware numbers; resolve them the way
        // the table constructors do.
        let sinr = spec.sinr.to_params().unwrap();
        let positions = spec.deploy.geom.build().unwrap();
        let graphs = SinrGraphs::induce(&sinr, &positions);
        let params = MacParams::builder().build(&sinr);
        let d = graphs.strong.diameter().unwrap_or(16) as u64;
        let deadline = 2 * (d + 1) * 2 * params.ack_slot_cap as u64;
        spec.workload = WorkloadSpec::Consensus { deadline };
        spec.stop = StopSpec::Done(deadline + 1000);
        spec.measure = MeasureSpec::none();
        let run = spec.run().unwrap();
        let decisions = run.outcome.decisions.unwrap();
        assert!(decisions[0].is_some(), "nobody decided");
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "disagreement: {decisions:?}"
        );
    }

    #[test]
    fn connected_uniform_search_reports_realized_seed() {
        let spec = ScenarioSpec::new(
            "conn",
            DeploymentSpec::uniform_connected(24, 28.0, 0),
            WorkloadSpec::OneShot(SourceSet::Count(1)),
            StopSpec::Done(20_000),
        )
        .with_sinr(SinrSpec::with_range(16.0))
        .with_seed(SeedSpec::FromDeploy);
        let built = spec.build().unwrap();
        let realized = built.ctx.deploy_seed.unwrap();
        assert_eq!(built.ctx.seed, realized);
        assert!(built.ctx.graphs.strong.is_connected());
    }

    #[test]
    fn cached_backend_reproduces_exact_runs() {
        // backend=cached is bit-identical to exact, so the whole scenario
        // pipeline (build → run → trace) must produce the same execution.
        let build = |backend| {
            base(
                MacSpec::sinr(),
                WorkloadSpec::Repeat(SourceSet::Stride(2)),
                StopSpec::Slots(300),
            )
            .with_backend(backend)
        };
        let exact = build(BackendSpec::exact()).run().unwrap();
        let cached = build(BackendSpec::cached()).run().unwrap();
        assert_eq!(exact.outcome.trace, cached.outcome.trace);
        // SINR_BACKEND overrides the spec's backend.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        assert_eq!(cached.ctx.backend, BackendSpec::cached());
    }

    #[test]
    fn backend_threads_are_tuned_to_deployment_size() {
        // A 16-node scenario requesting 8 threads must resolve serial
        // (the parallel crossover); the effective spec is recorded.
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(10),
        )
        .with_backend(BackendSpec::cached().with_threads(8));
        let built = spec.build().unwrap();
        assert_eq!(built.ctx.backend.threads, 1);
        // SINR_BACKEND overrides the spec's model.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        assert_eq!(
            built.ctx.backend.model,
            sinr_phys::InterferenceModel::Cached
        );
    }

    #[test]
    fn mobility_runs_and_records_geometry_digests() {
        for mac in [
            MacSpec::sinr(),
            MacSpec::Decay {
                n_tilde: 16.0,
                eps: 0.125,
                budget_mult: 4.0,
            },
        ] {
            let mut spec = base(
                mac.clone(),
                WorkloadSpec::Repeat(SourceSet::Stride(2)),
                StopSpec::Slots(400),
            );
            spec.mobility = Some(sinr_geom::MobilitySpec::Waypoint {
                speed: 0.3,
                pause: 2,
                seed: 11,
            });
            let run = spec.run().unwrap_or_else(|e| panic!("{mac}: {e}"));
            let digests = run
                .outcome
                .geometry_digests
                .as_ref()
                .unwrap_or_else(|| panic!("{mac}: no digests"));
            assert!(digests.len() >= 2, "{mac}: initial + final at least");
            assert!(
                digests.windows(2).any(|w| w[0] != w[1]),
                "{mac}: geometry never changed under waypoint mobility"
            );
        }
    }

    #[test]
    fn final_digest_is_not_duplicated_on_epoch_boundaries() {
        // Non-sinr MAC, 400 slots: digest_every = 400/8 = 50, so the
        // last in-loop sample lands exactly on the horizon — the final
        // sample must be skipped, giving 9 entries (slot 0 + 8
        // boundaries), not 10.
        let mut spec = base(
            MacSpec::Decay {
                n_tilde: 16.0,
                eps: 0.125,
                budget_mult: 4.0,
            },
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(400),
        );
        spec.mobility = Some(sinr_geom::MobilitySpec::Drift {
            sigma: 0.2,
            seed: 5,
        });
        let run = spec.run().unwrap();
        let digests = run.outcome.geometry_digests.unwrap();
        assert_eq!(digests.len(), 9, "{digests:?}");
    }

    #[test]
    fn static_runs_record_no_geometry_digests() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(100),
        );
        let run = spec.run().unwrap();
        assert!(run.outcome.geometry_digests.is_none());
    }

    #[test]
    fn teleport_dynamics_move_the_node() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(200),
        )
        .with_dynamics(DynEvent {
            at: 50,
            kind: DynKind::Teleport {
                node: 3,
                x: 100.0,
                y: 100.0,
            },
        });
        let run = spec.run().unwrap();
        let digests = run.outcome.geometry_digests.unwrap();
        assert!(
            digests.first() != digests.last(),
            "teleport must change the recorded geometry"
        );
    }

    #[test]
    fn teleport_into_near_field_violation_fails_the_run() {
        // The 4x4 lattice has node 0 at the origin; teleporting node 5
        // on top of it must surface as a physical-layer error, not be
        // silently skipped.
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Teleport {
                node: 5,
                x: 0.1,
                y: 0.0,
            },
        });
        assert!(matches!(spec.run(), Err(ScenarioError::Phys(_))));
    }

    #[test]
    fn mobility_and_teleports_rejected_off_physical_macs() {
        for mac in [
            MacSpec::Ideal(IdealPolicy::Eager),
            MacSpec::Tdma,
            MacSpec::Dgkn,
            MacSpec::DecaySmb,
        ] {
            let workload = if matches!(mac, MacSpec::Ideal(_)) {
                WorkloadSpec::Repeat(SourceSet::All)
            } else {
                WorkloadSpec::Smb { source: 0 }
            };
            let mut with_mobility = base(mac.clone(), workload.clone(), StopSpec::Slots(100));
            with_mobility.mobility = Some(sinr_geom::MobilitySpec::Drift {
                sigma: 0.2,
                seed: 1,
            });
            assert!(
                matches!(with_mobility.build(), Err(ScenarioError::Unsupported(_))),
                "mobility over {mac} must be rejected"
            );
            let with_teleport =
                base(mac.clone(), workload, StopSpec::Slots(100)).with_dynamics(DynEvent {
                    at: 10,
                    kind: DynKind::Teleport {
                        node: 1,
                        x: 50.0,
                        y: 50.0,
                    },
                });
            assert!(
                matches!(with_teleport.build(), Err(ScenarioError::Unsupported(_))),
                "teleport over {mac} must be rejected"
            );
        }
    }

    #[test]
    fn teleport_validation_catches_bad_targets_at_build_time() {
        let out_of_range = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Teleport {
                node: 99,
                x: 5.0,
                y: 5.0,
            },
        });
        assert!(matches!(
            out_of_range.build(),
            Err(ScenarioError::Unsupported(_))
        ));
        let non_finite = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(100),
        )
        .with_dynamics(DynEvent {
            at: 10,
            kind: DynKind::Teleport {
                node: 1,
                x: f64::NAN,
                y: 5.0,
            },
        });
        assert!(matches!(
            non_finite.build(),
            Err(ScenarioError::Unsupported(_))
        ));
    }

    #[test]
    fn backend_threads_resolved_once_at_slot_zero_under_mobility() {
        // `ScenarioSpec::build` resolves the requested thread count
        // against the deployment realized at slot 0 — a deliberate,
        // documented choice: mobility moves nodes but never changes n,
        // and the serial/parallel crossover depends only on the listener
        // count, so the slot-0 resolution stays exactly right for the
        // whole run. This pins both halves: the resolution itself and
        // that a moving run completes under the resolved backend.
        let mut spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(120),
        )
        .with_backend(BackendSpec::cached().with_threads(8));
        spec.mobility = Some(sinr_geom::MobilitySpec::Drift {
            sigma: 0.2,
            seed: 3,
        });
        let built = spec.build().unwrap();
        // 16 nodes < PAR_CROSSOVER_LISTENERS: resolved serial at slot 0.
        assert_eq!(built.ctx.backend.threads, 1);
        let model = built.ctx.backend.model;
        let run = built.run().unwrap();
        // n never changed, so the slot-0 resolution stayed valid.
        assert_eq!(run.ctx.positions.len(), 16);
        assert!(run.outcome.geometry_digests.is_some());
        // SINR_BACKEND overrides the spec's model.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        assert_eq!(model, sinr_phys::InterferenceModel::Cached);
    }

    #[test]
    fn build_with_prepared_reproduces_cold_builds() {
        // One prepared deployment drives two cells (different MAC
        // knobs); each must match its cold-built twin byte for byte at
        // the report level, and the cached kernel must actually share
        // the prepared table.
        let mut spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Slots(300),
        )
        .with_backend(BackendSpec::cached());
        let prepared = PreparedDeployment::prepare(&spec).unwrap();
        for t_mult in ["1", "2"] {
            spec.set("mac.t_mult", t_mult).unwrap();
            let warm = spec.build_with_prepared(&prepared).unwrap().run().unwrap();
            let cold = spec.run().unwrap();
            assert_eq!(
                crate::report_for(&warm).to_json(),
                crate::report_for(&cold).to_json(),
                "t_mult={t_mult}"
            );
        }
        // SINR_BACKEND overrides the spec's backend, and with it the
        // table a preparation builds.
        if std::env::var("SINR_BACKEND").is_ok() {
            return;
        }
        assert!(
            matches!(prepared.tables(), SharedTables::Dense(_)),
            "cached spec builds a dense table"
        );
        // An exact-backend spec prepares without a gain table.
        let exact = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(50),
        );
        assert!(matches!(
            PreparedDeployment::prepare(&exact).unwrap().tables(),
            SharedTables::Empty
        ));
    }

    #[test]
    fn build_with_prepared_rejects_mismatched_deployments() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(50),
        );
        let prepared = PreparedDeployment::prepare(&spec).unwrap();
        let mut other = spec.clone();
        other.set("deploy", "lattice:5:5:2").unwrap();
        assert!(matches!(
            other.build_with_prepared(&prepared),
            Err(ScenarioError::Unsupported(_))
        ));
        let mut other_sinr = spec.clone();
        other_sinr.set("sinr.range", "9").unwrap();
        assert!(matches!(
            other_sinr.build_with_prepared(&prepared),
            Err(ScenarioError::Unsupported(_))
        ));
    }

    #[test]
    fn measure_none_disables_tracing() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(200),
        )
        .with_measure(MeasureSpec::none());
        let run = spec.run().unwrap();
        assert!(run.outcome.trace.is_empty());
    }

    #[test]
    fn dropped_polling_reports_for_sinr_mac() {
        let spec = base(
            MacSpec::sinr(),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(300),
        )
        .with_measure(MeasureSpec {
            trace: false,
            dropped: true,
        });
        let run = spec.run().unwrap();
        assert!(run.outcome.max_dropped.is_some());
    }
}
