//! The declarative scenario specification and its text format.
//!
//! A [`ScenarioSpec`] is a complete, serializable description of one
//! experiment: *where* the nodes are ([`DeploymentSpec`]), *what physics
//! they obey* ([`SinrSpec`], §4.2), *how reception is computed*
//! ([`sinr_phys::BackendSpec`]), *which MAC implementation runs*
//! ([`MacSpec`]), *what the protocol layer does* ([`WorkloadSpec`]),
//! *what goes wrong mid-run* ([`DynEvent`]), *when the run ends*
//! ([`StopSpec`]) and *what is recorded* ([`MeasureSpec`]).
//!
//! The text format is line-oriented `key=value` with `#` comments, and
//! every spec round-trips: `ScenarioSpec::parse(&spec.to_string())`
//! yields the identical spec (property-tested). The format has no
//! external dependencies, so specs can be committed next to results and
//! replayed bit-for-bit years later.

use std::fmt;

use sinr_geom::{DeploySpec, MobilitySpec};
use sinr_phys::{BackendSpec, SinrParams};

use crate::ScenarioError;

fn parse_err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse(msg.into())
}

fn num<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, ScenarioError>
where
    T::Err: fmt::Display,
{
    raw.parse()
        .map_err(|e| parse_err(format!("bad {what} {raw:?}: {e}")))
}

/// Deployment half of a scenario: the geometry plus the option to search
/// seeds until the strong graph `G₁₋ε` comes out connected (the paper
/// assumes connectivity of `G₁₋ε` throughout, §4.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentSpec {
    /// The geometric generator and its parameters.
    pub geom: DeploySpec,
    /// When `true` (uniform deployments only), the builder retries seeds
    /// `seed, seed+1, …` until `G₁₋ε` is connected; the realized seed is
    /// reported in the run context.
    pub connected: bool,
}

impl DeploymentSpec {
    /// A plain deployment with no connectivity search.
    pub fn plain(geom: DeploySpec) -> Self {
        DeploymentSpec {
            geom,
            connected: false,
        }
    }

    /// A uniform deployment that searches seeds from `seed0` until the
    /// strong graph is connected — the spec form of the harness's
    /// `connected_uniform` helper.
    pub fn uniform_connected(n: usize, side: f64, seed0: u64) -> Self {
        DeploymentSpec {
            geom: DeploySpec::Uniform {
                n,
                side,
                seed: seed0,
            },
            connected: true,
        }
    }

    /// Parses `[connected:]<deploy>` (see [`DeploySpec::parse`]).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let (connected, rest) = match s.strip_prefix("connected:") {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let geom = DeploySpec::parse(rest).map_err(parse_err)?;
        if connected && !matches!(geom, DeploySpec::Uniform { .. }) {
            return Err(parse_err(format!(
                "connected: is only defined for uniform deployments, got {rest:?}"
            )));
        }
        Ok(DeploymentSpec { geom, connected })
    }
}

impl fmt::Display for DeploymentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.connected {
            write!(f, "connected:{}", self.geom)
        } else {
            write!(f, "{}", self.geom)
        }
    }
}

/// SINR model parameters in spec form (§4.2): `alpha`, `beta`, `noise`,
/// `eps` and the weak range `R` (power is derived as `R^α·β·N`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrSpec {
    /// Path-loss exponent `α > 2`.
    pub alpha: f64,
    /// Decoding threshold `β > 1`.
    pub beta: f64,
    /// Ambient noise `N > 0`.
    pub noise: f64,
    /// Strong-connectivity slack `0 < ε < 1/2`.
    pub epsilon: f64,
    /// Weak transmission range `R`.
    pub range: f64,
}

impl Default for SinrSpec {
    fn default() -> Self {
        // Mirrors SinrParams::builder() defaults.
        SinrSpec {
            alpha: 3.0,
            beta: 1.5,
            noise: 1.0,
            epsilon: 0.1,
            range: 16.0,
        }
    }
}

impl SinrSpec {
    /// The default parameters with the weak range replaced.
    pub fn with_range(range: f64) -> Self {
        SinrSpec {
            range,
            ..SinrSpec::default()
        }
    }

    /// Resolves into validated [`SinrParams`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Phys`] if a constraint of §4.2 fails.
    pub fn to_params(&self) -> Result<SinrParams, ScenarioError> {
        Ok(SinrParams::builder()
            .alpha(self.alpha)
            .beta(self.beta)
            .noise(self.noise)
            .epsilon(self.epsilon)
            .range(self.range)
            .build()?)
    }

    /// Parses comma-separated `field:value` pairs; missing fields keep
    /// their defaults.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let mut spec = SinrSpec::default();
        for pair in s.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| parse_err(format!("sinr field {pair:?} is not field:value")))?;
            let v: f64 = num(value, key)?;
            match key {
                "alpha" => spec.alpha = v,
                "beta" => spec.beta = v,
                "noise" => spec.noise = v,
                "eps" => spec.epsilon = v,
                "range" => spec.range = v,
                other => {
                    return Err(parse_err(format!(
                        "unknown sinr field {other:?}; expected alpha, beta, noise, eps or range"
                    )))
                }
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for SinrSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alpha:{},beta:{},noise:{},eps:{},range:{}",
            self.alpha, self.beta, self.noise, self.epsilon, self.range
        )
    }
}

/// One tunable Θ(·) constant of [`sinr_mac::MacParams`], named so specs
/// can override it (`mac=sinr:t_mult:2`). Each knob corresponds to one
/// hidden constant in the paper's analysis; see `MacParamsBuilder` for
/// the paper-section provenance of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // knob names are their documentation; see MacParamsBuilder
pub enum MacKnob {
    EpsAck,
    EpsApprog,
    NTildeMult,
    DeltaMult,
    GammaAck,
    RcMult,
    AckCapMult,
    PhiMult,
    TMult,
    MisMult,
    DataMult,
    P,
    QMult,
    PotentialFrac,
    LabelExp,
}

impl MacKnob {
    /// All knobs, for enumeration in docs and sweeps.
    pub const ALL: [MacKnob; 15] = [
        MacKnob::EpsAck,
        MacKnob::EpsApprog,
        MacKnob::NTildeMult,
        MacKnob::DeltaMult,
        MacKnob::GammaAck,
        MacKnob::RcMult,
        MacKnob::AckCapMult,
        MacKnob::PhiMult,
        MacKnob::TMult,
        MacKnob::MisMult,
        MacKnob::DataMult,
        MacKnob::P,
        MacKnob::QMult,
        MacKnob::PotentialFrac,
        MacKnob::LabelExp,
    ];

    /// The spec-format name of this knob.
    pub fn name(self) -> &'static str {
        match self {
            MacKnob::EpsAck => "eps_ack",
            MacKnob::EpsApprog => "eps_approg",
            MacKnob::NTildeMult => "n_tilde_mult",
            MacKnob::DeltaMult => "delta_mult",
            MacKnob::GammaAck => "gamma_ack",
            MacKnob::RcMult => "rc_mult",
            MacKnob::AckCapMult => "ack_cap_mult",
            MacKnob::PhiMult => "phi_mult",
            MacKnob::TMult => "t_mult",
            MacKnob::MisMult => "mis_mult",
            MacKnob::DataMult => "data_mult",
            MacKnob::P => "p",
            MacKnob::QMult => "q_mult",
            MacKnob::PotentialFrac => "potential_frac",
            MacKnob::LabelExp => "label_exp",
        }
    }

    /// Parses a knob name.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for an unknown name.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        MacKnob::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| parse_err(format!("unknown MAC knob {s:?}")))
    }

    /// Applies this knob to a params builder.
    pub fn apply(self, b: &mut sinr_mac::MacParamsBuilder, v: f64) {
        match self {
            MacKnob::EpsAck => b.eps_ack(v),
            MacKnob::EpsApprog => b.eps_approg(v),
            MacKnob::NTildeMult => b.n_tilde_mult(v),
            MacKnob::DeltaMult => b.delta_mult(v),
            MacKnob::GammaAck => b.gamma_ack(v),
            MacKnob::RcMult => b.rc_mult(v),
            MacKnob::AckCapMult => b.ack_cap_mult(v),
            MacKnob::PhiMult => b.phi_mult(v),
            MacKnob::TMult => b.t_mult(v),
            MacKnob::MisMult => b.mis_mult(v),
            MacKnob::DataMult => b.data_mult(v),
            MacKnob::P => b.p(v),
            MacKnob::QMult => b.q_mult(v),
            MacKnob::PotentialFrac => b.potential_frac(v),
            MacKnob::LabelExp => b.label_exp(v),
        };
    }
}

/// Scheduler policy of the ideal reference MAC, in spec form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdealPolicy {
    /// Next-step delivery, ack one step later.
    Eager,
    /// Random legal timing within `(fack, fprog)`.
    Random {
        /// Acknowledgment bound.
        fack: u64,
        /// Progress bound.
        fprog: u64,
    },
    /// Worst-case legal timing within `(fack, fprog)`.
    Adversarial {
        /// Acknowledgment bound.
        fack: u64,
        /// Progress bound.
        fprog: u64,
    },
}

/// Which MAC implementation (or self-contained baseline execution) a
/// scenario runs — the plug-and-play axis of §2.2/§12.
#[derive(Debug, Clone, PartialEq)]
pub enum MacSpec {
    /// The paper's SINR absMAC (Algorithm 11.1), with optional overrides
    /// of its Θ(·) constants.
    Sinr {
        /// Knob overrides applied on top of the paper defaults, in order.
        overrides: Vec<(MacKnob, f64)>,
    },
    /// The graph-based ideal reference MAC.
    Ideal(IdealPolicy),
    /// The Decay MAC (Theorem 8.1 baseline):
    /// `DecayParams::from_contention(n_tilde, eps, budget_mult)`.
    Decay {
        /// Contention bound `Ñ`.
        n_tilde: f64,
        /// Failure probability.
        eps: f64,
        /// Cycle-budget multiplier.
        budget_mult: f64,
    },
    /// Optimal centralized round-robin TDMA over the workload's source
    /// set (the Figure 1 / Theorem 6.1 reference schedule).
    Tdma,
    /// The DGKN \[14\] global-SMB baseline (workload must be `smb`).
    Dgkn,
    /// The Decay/\[32\] global-SMB proxy (workload must be `smb`).
    DecaySmb,
}

impl MacSpec {
    /// The paper's MAC with default constants.
    pub fn sinr() -> Self {
        MacSpec::Sinr {
            overrides: Vec::new(),
        }
    }

    /// The paper's MAC with one knob overridden.
    pub fn sinr_with(knob: MacKnob, v: f64) -> Self {
        MacSpec::Sinr {
            overrides: vec![(knob, v)],
        }
    }

    /// Parses the `mac=` value.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (s, None),
        };
        match (head, rest) {
            ("sinr", None) => Ok(MacSpec::sinr()),
            ("sinr", Some(rest)) => {
                let mut overrides = Vec::new();
                for pair in rest.split(',') {
                    let (k, v) = pair.split_once(':').ok_or_else(|| {
                        parse_err(format!("mac knob {pair:?} is not knob:value"))
                    })?;
                    overrides.push((MacKnob::parse(k)?, num(v, k)?));
                }
                Ok(MacSpec::Sinr { overrides })
            }
            ("ideal", Some("eager")) => Ok(MacSpec::Ideal(IdealPolicy::Eager)),
            ("ideal", Some(rest)) => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err(parse_err(format!(
                        "ideal takes eager, random:FACK:FPROG or adversarial:FACK:FPROG, got {rest:?}"
                    )));
                }
                let fack = num(parts[1], "fack")?;
                let fprog = num(parts[2], "fprog")?;
                match parts[0] {
                    "random" => Ok(MacSpec::Ideal(IdealPolicy::Random { fack, fprog })),
                    "adversarial" => Ok(MacSpec::Ideal(IdealPolicy::Adversarial { fack, fprog })),
                    other => Err(parse_err(format!("unknown ideal policy {other:?}"))),
                }
            }
            ("decay", Some(rest)) => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err(parse_err(format!(
                        "decay takes NTILDE:EPS:BUDGET_MULT, got {rest:?}"
                    )));
                }
                Ok(MacSpec::Decay {
                    n_tilde: num(parts[0], "n_tilde")?,
                    eps: num(parts[1], "eps")?,
                    budget_mult: num(parts[2], "budget_mult")?,
                })
            }
            ("tdma", None) => Ok(MacSpec::Tdma),
            ("dgkn", None) => Ok(MacSpec::Dgkn),
            ("decay_smb", None) => Ok(MacSpec::DecaySmb),
            _ => Err(parse_err(format!(
                "unknown mac {s:?}; expected sinr[:knob:v,…], ideal:…, decay:…, tdma, dgkn or decay_smb"
            ))),
        }
    }
}

impl fmt::Display for MacSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacSpec::Sinr { overrides } if overrides.is_empty() => write!(f, "sinr"),
            MacSpec::Sinr { overrides } => {
                write!(f, "sinr:")?;
                for (i, (k, v)) in overrides.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{}", k.name(), v)?;
                }
                Ok(())
            }
            MacSpec::Ideal(IdealPolicy::Eager) => write!(f, "ideal:eager"),
            MacSpec::Ideal(IdealPolicy::Random { fack, fprog }) => {
                write!(f, "ideal:random:{fack}:{fprog}")
            }
            MacSpec::Ideal(IdealPolicy::Adversarial { fack, fprog }) => {
                write!(f, "ideal:adversarial:{fack}:{fprog}")
            }
            MacSpec::Decay {
                n_tilde,
                eps,
                budget_mult,
            } => write!(f, "decay:{n_tilde}:{eps}:{budget_mult}"),
            MacSpec::Tdma => write!(f, "tdma"),
            MacSpec::Dgkn => write!(f, "dgkn"),
            MacSpec::DecaySmb => write!(f, "decay_smb"),
        }
    }
}

/// A named set of broadcasting nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSet {
    /// Every node broadcasts.
    All,
    /// Nodes `i` with `i % stride == 0`.
    Stride(usize),
    /// `k` nodes spread evenly: stride `⌊n/k⌋` (min 1), first `k` hits —
    /// the broadcaster-count sweep of the `f_ack` measurements.
    Count(usize),
    /// The half-open index range `[lo, hi)`.
    Range(usize, usize),
    /// An explicit index list.
    List(Vec<usize>),
}

impl SourceSet {
    /// Whether node `i` of `n` is a source.
    pub fn is_source(&self, i: usize, n: usize) -> bool {
        match *self {
            SourceSet::All => true,
            SourceSet::Stride(s) => i.is_multiple_of(s.max(1)),
            SourceSet::Count(k) => {
                let stride = (n / k.max(1)).max(1);
                i.is_multiple_of(stride) && i / stride < k
            }
            SourceSet::Range(lo, hi) => (lo..hi).contains(&i),
            SourceSet::List(ref v) => v.contains(&i),
        }
    }

    /// The member indices, in increasing order.
    pub fn members(&self, n: usize) -> Vec<usize> {
        (0..n).filter(|&i| self.is_source(i, n)).collect()
    }

    /// Parses a source-set value.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        if s == "all" {
            return Ok(SourceSet::All);
        }
        let (head, rest) = s
            .split_once(':')
            .ok_or_else(|| parse_err(format!("unknown source set {s:?}")))?;
        match head {
            "stride" => Ok(SourceSet::Stride(num(rest, "stride")?)),
            "count" => Ok(SourceSet::Count(num(rest, "count")?)),
            "range" => {
                let (lo, hi) = rest
                    .split_once(':')
                    .ok_or_else(|| parse_err(format!("range needs LO:HI, got {rest:?}")))?;
                Ok(SourceSet::Range(num(lo, "lo")?, num(hi, "hi")?))
            }
            "list" => {
                let v = rest
                    .split('+')
                    .map(|x| num(x, "node index"))
                    .collect::<Result<Vec<usize>, _>>()?;
                Ok(SourceSet::List(v))
            }
            other => Err(parse_err(format!(
                "unknown source set {other:?}; expected all, stride:K, count:K, range:LO:HI or list:A+B+…"
            ))),
        }
    }
}

impl fmt::Display for SourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceSet::All => write!(f, "all"),
            SourceSet::Stride(s) => write!(f, "stride:{s}"),
            SourceSet::Count(k) => write!(f, "count:{k}"),
            SourceSet::Range(lo, hi) => write!(f, "range:{lo}:{hi}"),
            SourceSet::List(v) => {
                write!(f, "list:")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
        }
    }
}

/// The protocol-layer workload driven over the MAC.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Sources broadcast continuously (re-broadcast on every ack): the
    /// progress-measurement workload of Definition 7.1. Payloads are the
    /// node index.
    Repeat(SourceSet),
    /// Sources broadcast once and stop on their ack: the `f_ack`
    /// workload of Theorem 5.1. Payloads are the node index.
    OneShot(SourceSet),
    /// Basic Single-Message Broadcast from `source` (§4.5, Thm 12.1).
    Smb {
        /// The initially-informed node.
        source: usize,
    },
    /// Basic Multi-Message Broadcast with `k` messages spread evenly
    /// (§4.5, Thm 12.7).
    Mmb {
        /// Number of messages.
        k: usize,
    },
    /// Flood-max binary consensus with random inputs (Corollary 5.5);
    /// every node decides at `deadline`.
    Consensus {
        /// The decision slot handed to every node.
        deadline: u64,
    },
}

impl WorkloadSpec {
    /// Parses the `workload=` value.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (s, None),
        };
        match (head, rest) {
            ("repeat", Some(rest)) => Ok(WorkloadSpec::Repeat(SourceSet::parse(rest)?)),
            ("oneshot", Some(rest)) => Ok(WorkloadSpec::OneShot(SourceSet::parse(rest)?)),
            ("smb", Some(rest)) => Ok(WorkloadSpec::Smb {
                source: num(rest, "source")?,
            }),
            ("mmb", Some(rest)) => Ok(WorkloadSpec::Mmb { k: num(rest, "k")? }),
            ("consensus", Some(rest)) => Ok(WorkloadSpec::Consensus {
                deadline: num(rest, "deadline")?,
            }),
            _ => Err(parse_err(format!(
                "unknown workload {s:?}; expected repeat:SRC, oneshot:SRC, smb:NODE, mmb:K or consensus:DEADLINE"
            ))),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Repeat(s) => write!(f, "repeat:{s}"),
            WorkloadSpec::OneShot(s) => write!(f, "oneshot:{s}"),
            WorkloadSpec::Smb { source } => write!(f, "smb:{source}"),
            WorkloadSpec::Mmb { k } => write!(f, "mmb:{k}"),
            WorkloadSpec::Consensus { deadline } => write!(f, "consensus:{deadline}"),
        }
    }
}

/// When a scenario run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopSpec {
    /// Run exactly this many slots.
    Slots(u64),
    /// Run until every client reports done, up to this many slots.
    Done(u64),
    /// Run this many approximate-progress epochs (`epochs · 2 ·
    /// epoch_len` slots; SINR MAC only, since only it has an epoch
    /// layout).
    Epochs(u64),
}

impl StopSpec {
    /// Parses the `stop=` value.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let (head, rest) = s
            .split_once(':')
            .ok_or_else(|| parse_err(format!("stop {s:?} is not kind:N")))?;
        match head {
            "slots" => Ok(StopSpec::Slots(num(rest, "slots")?)),
            "done" => Ok(StopSpec::Done(num(rest, "max slots")?)),
            "epochs" => Ok(StopSpec::Epochs(num(rest, "epochs")?)),
            other => Err(parse_err(format!(
                "unknown stop {other:?}; expected slots:N, done:N or epochs:N"
            ))),
        }
    }
}

impl fmt::Display for StopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopSpec::Slots(n) => write!(f, "slots:{n}"),
            StopSpec::Done(n) => write!(f, "done:{n}"),
            StopSpec::Epochs(n) => write!(f, "epochs:{n}"),
        }
    }
}

/// Where the run's RNG seed comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSpec {
    /// A fixed seed.
    Fixed(u64),
    /// The realized deployment seed (after any connectivity search) —
    /// the convention of the paper-table experiments, which reuse the
    /// deployment seed for the MAC's coin flips.
    FromDeploy,
}

impl SeedSpec {
    /// Parses the `seed=` value: a number or `deploy`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        if s == "deploy" {
            Ok(SeedSpec::FromDeploy)
        } else {
            Ok(SeedSpec::Fixed(num(s, "seed")?))
        }
    }
}

impl fmt::Display for SeedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedSpec::Fixed(s) => write!(f, "{s}"),
            SeedSpec::FromDeploy => write!(f, "deploy"),
        }
    }
}

/// What a run records beyond its completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Record the full execution trace (needed for latency measurements;
    /// costs memory linear in events — sweeps default it off).
    pub trace: bool,
    /// Poll the SINR MAC's drop-out set `W` (Definition 10.2) every slot
    /// and report the peak — the ablation-experiment observable.
    pub dropped: bool,
}

impl MeasureSpec {
    /// Trace recording only — the default for single runs.
    pub fn trace_only() -> Self {
        MeasureSpec {
            trace: true,
            dropped: false,
        }
    }

    /// No recording at all — the default for batch sweeps.
    pub fn none() -> Self {
        MeasureSpec {
            trace: false,
            dropped: false,
        }
    }

    /// Parses `none` or a `+`-joined flag list (`trace`, `dropped`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let mut m = MeasureSpec::none();
        if s == "none" {
            return Ok(m);
        }
        for flag in s.split('+') {
            match flag {
                "trace" => m.trace = true,
                "dropped" => m.dropped = true,
                other => {
                    return Err(parse_err(format!(
                        "unknown measure flag {other:?}; expected none, trace or dropped"
                    )))
                }
            }
        }
        Ok(m)
    }
}

impl fmt::Display for MeasureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.trace, self.dropped) {
            (false, false) => write!(f, "none"),
            (true, false) => write!(f, "trace"),
            (false, true) => write!(f, "dropped"),
            (true, true) => write!(f, "trace+dropped"),
        }
    }
}

/// One entry of the dynamics schedule: something changes at slot `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynEvent {
    /// The slot at which the change takes effect.
    pub at: u64,
    /// What changes.
    pub kind: DynKind,
}

/// The kinds of mid-run dynamics a scenario can schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynKind {
    /// Node becomes a jammer transmitting junk with probability `p`
    /// (failure injection outside the paper's model; SINR MAC only).
    Jam {
        /// The jamming node.
        node: usize,
        /// Per-slot transmit probability.
        p: f64,
    },
    /// Stops a jammer started by [`DynKind::Jam`].
    Unjam {
        /// The node to restore.
        node: usize,
    },
    /// Scripted movement: the node relocates to `(x, y)` at this slot
    /// (physical-engine MACs only; the move is rejected at run time if
    /// it violates the near-field assumption).
    Teleport {
        /// The moving node.
        node: usize,
        /// Target x coordinate.
        x: f64,
        /// Target y coordinate.
        y: f64,
    },
    /// The node's client comes alive at this slot (late arrival).
    Arrive {
        /// The arriving node.
        node: usize,
    },
    /// The node's client goes silent from this slot on (churn).
    Depart {
        /// The departing node.
        node: usize,
    },
}

impl DynEvent {
    /// Parses one `dyn=` value: `jam:NODE:P@SLOT`, `unjam:NODE@SLOT`,
    /// `arrive:NODE@SLOT`, `depart:NODE@SLOT` or
    /// `teleport:NODE:X:Y@SLOT`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let (body, at) = s
            .rsplit_once('@')
            .ok_or_else(|| parse_err(format!("dynamics event {s:?} is missing @SLOT")))?;
        let at: u64 = num(at, "slot")?;
        let parts: Vec<&str> = body.split(':').collect();
        let kind = match (parts[0], parts.len()) {
            ("jam", 3) => DynKind::Jam {
                node: num(parts[1], "node")?,
                p: num(parts[2], "probability")?,
            },
            ("unjam", 2) => DynKind::Unjam {
                node: num(parts[1], "node")?,
            },
            ("arrive", 2) => DynKind::Arrive {
                node: num(parts[1], "node")?,
            },
            ("depart", 2) => DynKind::Depart {
                node: num(parts[1], "node")?,
            },
            ("teleport", 4) => DynKind::Teleport {
                node: num(parts[1], "node")?,
                x: num(parts[2], "x")?,
                y: num(parts[3], "y")?,
            },
            _ => {
                return Err(parse_err(format!(
                    "unknown dynamics event {body:?}; expected jam:NODE:P, unjam:NODE, \
                     arrive:NODE, depart:NODE or teleport:NODE:X:Y"
                )))
            }
        };
        Ok(DynEvent { at, kind })
    }
}

impl fmt::Display for DynEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DynKind::Jam { node, p } => write!(f, "jam:{node}:{p}@{}", self.at),
            DynKind::Unjam { node } => write!(f, "unjam:{node}@{}", self.at),
            DynKind::Arrive { node } => write!(f, "arrive:{node}@{}", self.at),
            DynKind::Depart { node } => write!(f, "depart:{node}@{}", self.at),
            DynKind::Teleport { node, x, y } => write!(f, "teleport:{node}:{x}:{y}@{}", self.at),
        }
    }
}

/// A complete, serializable experiment description. See the module docs
/// for the format and [`crate::RunnableScenario`] for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (reported, used in sweep cell names).
    pub name: String,
    /// Node placement.
    pub deploy: DeploymentSpec,
    /// SINR physical model.
    pub sinr: SinrSpec,
    /// Reception backend (interference model + threads): `exact`,
    /// `cached`, `hybrid[:CUTOFF]`, with `:par:T` threading the last two.
    /// The `SINR_BACKEND` environment variable can override this at run time
    /// (with a warning); published runs should rely on the spec field.
    /// At build time the thread count is resolved against the realized
    /// deployment size ([`BackendSpec::tuned`]), so requesting threads on
    /// a small scenario runs serial rather than paying thread fan-out.
    pub backend: BackendSpec,
    /// MAC implementation under test.
    pub mac: MacSpec,
    /// Protocol workload.
    pub workload: WorkloadSpec,
    /// Continuous node movement (`mobility=waypoint:…` /
    /// `drift:…`), applied at the top of every physical slot;
    /// `None` freezes the deployment as the paper does. Physical-engine
    /// MACs only (`sinr`, `decay`). Scripted single moves go through
    /// `dyn=teleport:…` instead.
    pub mobility: Option<MobilitySpec>,
    /// Mid-run dynamics schedule, in effect-slot order.
    pub dynamics: Vec<DynEvent>,
    /// Stop condition.
    pub stop: StopSpec,
    /// Run RNG seed.
    pub seed: SeedSpec,
    /// Recording configuration.
    pub measure: MeasureSpec,
}

impl ScenarioSpec {
    /// Starts a spec with the given name, deployment, workload and stop
    /// condition; everything else takes defaults (default SINR physics,
    /// exact backend, the paper's MAC, seed 0, trace recording on).
    pub fn new(
        name: impl Into<String>,
        deploy: DeploymentSpec,
        workload: WorkloadSpec,
        stop: StopSpec,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            deploy,
            sinr: SinrSpec::default(),
            backend: BackendSpec::exact(),
            mac: MacSpec::sinr(),
            workload,
            mobility: None,
            dynamics: Vec::new(),
            stop,
            seed: SeedSpec::Fixed(0),
            measure: MeasureSpec::trace_only(),
        }
    }

    /// Replaces the SINR parameters.
    pub fn with_sinr(mut self, sinr: SinrSpec) -> Self {
        self.sinr = sinr;
        self
    }

    /// Replaces the MAC choice.
    pub fn with_mac(mut self, mac: MacSpec) -> Self {
        self.mac = mac;
        self
    }

    /// Replaces the reception backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the seed policy.
    pub fn with_seed(mut self, seed: SeedSpec) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the measurement configuration.
    pub fn with_measure(mut self, measure: MeasureSpec) -> Self {
        self.measure = measure;
        self
    }

    /// Appends a dynamics event.
    pub fn with_dynamics(mut self, ev: DynEvent) -> Self {
        self.dynamics.push(ev);
        self
    }

    /// Installs a mobility model.
    pub fn with_mobility(mut self, mobility: MobilitySpec) -> Self {
        self.mobility = Some(mobility);
        self
    }

    /// Whether this scenario moves nodes after slot 0 — continuous
    /// `mobility=` or a scripted `dyn=teleport:…`. Moving runs fork any
    /// shared gain table copy-on-write at the first repair, so sharers
    /// stay safe but the sharing buys less.
    pub fn moves_nodes(&self) -> bool {
        self.mobility.is_some()
            || self
                .dynamics
                .iter()
                .any(|ev| matches!(ev.kind, DynKind::Teleport { .. }))
    }

    /// The shared-preparation identity of this spec: two specs with
    /// equal keys are guaranteed to realize bit-identical positions,
    /// graphs and gains, so one [`crate::PreparedDeployment`] serves
    /// both. The key covers exactly the deployment spec (geometry,
    /// generator seed, connectivity search) and the SINR parameters
    /// (gains are `P/d^α` with `P` derived from the SINR spec); with
    /// the table's interference model it keys the [`crate::TableCache`]
    /// that sweeps and the scenario service share.
    pub fn deployment_key(&self) -> String {
        // '\u{1}' cannot appear in either Display form, so the key is
        // unambiguous.
        format!("{}\u{1}{}", self.deploy, self.sinr)
    }

    /// Applies one `key=value` override — the sweep mechanism. Accepted
    /// keys are the spec lines (`name`, `deploy`, `sinr`, `backend`,
    /// `mac`, `workload`, `mobility` where `none` clears it, `stop`,
    /// `seed`, `measure`, `dyn` which appends) plus the dotted forms
    /// `sinr.FIELD` and `mac.KNOB` for single-field overrides.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for an unknown key or malformed value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        if let Some(field) = key.strip_prefix("sinr.") {
            let v: f64 = num(value, field)?;
            match field {
                "alpha" => self.sinr.alpha = v,
                "beta" => self.sinr.beta = v,
                "noise" => self.sinr.noise = v,
                "eps" => self.sinr.epsilon = v,
                "range" => self.sinr.range = v,
                other => {
                    return Err(parse_err(format!(
                        "unknown sinr field {other:?}; expected alpha, beta, noise, eps or range"
                    )))
                }
            }
            return Ok(());
        }
        if let Some(knob) = key.strip_prefix("mac.") {
            let knob = MacKnob::parse(knob)?;
            let v: f64 = num(value, knob.name())?;
            let MacSpec::Sinr { overrides } = &mut self.mac else {
                return Err(parse_err(format!(
                    "mac.{} requires mac=sinr, got mac={}",
                    knob.name(),
                    self.mac
                )));
            };
            match overrides.iter_mut().find(|(k, _)| *k == knob) {
                Some(entry) => entry.1 = v,
                None => overrides.push((knob, v)),
            }
            return Ok(());
        }
        match key {
            "name" => self.name = value.to_string(),
            "deploy" => self.deploy = DeploymentSpec::parse(value)?,
            "sinr" => self.sinr = SinrSpec::parse(value)?,
            "backend" => self.backend = BackendSpec::parse(value).map_err(parse_err)?,
            "mac" => self.mac = MacSpec::parse(value)?,
            "workload" => self.workload = WorkloadSpec::parse(value)?,
            "mobility" => {
                self.mobility = if value == "none" {
                    None
                } else {
                    Some(
                        MobilitySpec::parse(value)
                            .map_err(|e| parse_err(format!("mobility: {e}")))?,
                    )
                }
            }
            "stop" => self.stop = StopSpec::parse(value)?,
            "seed" => self.seed = SeedSpec::parse(value)?,
            "measure" => self.measure = MeasureSpec::parse(value)?,
            "dyn" => self.dynamics.push(DynEvent::parse(value)?),
            other => return Err(parse_err(format!("unknown spec key {other:?}"))),
        }
        Ok(())
    }

    /// Parses a full spec from its text form (see module docs). Lines
    /// are `key=value`; blank lines and `#` comments are skipped.
    /// `deploy`, `workload` and `stop` are required; every other key
    /// defaults as in [`ScenarioSpec::new`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input or missing required
    /// keys.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut spec = ScenarioSpec::new(
            "scenario",
            DeploymentSpec::plain(DeploySpec::Line { n: 2, spacing: 2.0 }),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(0),
        );
        let mut seen = [false; 3]; // deploy, workload, stop
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                parse_err(format!("line {}: {line:?} is not key=value", lineno + 1))
            })?;
            let (key, value) = (key.trim(), value.trim());
            spec.set(key, value)
                .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
            match key {
                "deploy" => seen[0] = true,
                "workload" => seen[1] = true,
                "stop" => seen[2] = true,
                _ => {}
            }
        }
        for (i, name) in ["deploy", "workload", "stop"].iter().enumerate() {
            if !seen[i] {
                return Err(parse_err(format!("missing required key {name}")));
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "name={}", self.name)?;
        writeln!(f, "deploy={}", self.deploy)?;
        writeln!(f, "sinr={}", self.sinr)?;
        writeln!(f, "backend={}", self.backend)?;
        writeln!(f, "mac={}", self.mac)?;
        writeln!(f, "workload={}", self.workload)?;
        writeln!(f, "stop={}", self.stop)?;
        writeln!(f, "seed={}", self.seed)?;
        writeln!(f, "measure={}", self.measure)?;
        if let Some(mobility) = &self.mobility {
            writeln!(f, "mobility={mobility}")?;
        }
        for ev in &self.dynamics {
            writeln!(f, "dyn={ev}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "sample",
            DeploymentSpec::uniform_connected(64, 55.0, 3),
            WorkloadSpec::Repeat(SourceSet::Stride(2)),
            StopSpec::Epochs(8),
        )
        .with_sinr(SinrSpec::with_range(16.0))
        .with_mac(MacSpec::sinr_with(MacKnob::EpsApprog, 0.03125))
        .with_seed(SeedSpec::FromDeploy)
        .with_dynamics(DynEvent {
            at: 100,
            kind: DynKind::Jam { node: 3, p: 0.5 },
        })
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = sample_spec();
        let text = spec.to_string();
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec, "\n{text}");
    }

    #[test]
    fn parse_accepts_comments_and_defaults() {
        let spec = ScenarioSpec::parse(
            "# tiny smoke scenario\n\
             deploy=lattice:4:4:2\n\
             workload=repeat:all\n\
             stop=slots:200\n",
        )
        .unwrap();
        assert_eq!(spec.name, "scenario");
        assert_eq!(spec.sinr, SinrSpec::default());
        assert_eq!(spec.mac, MacSpec::sinr());
        assert_eq!(spec.seed, SeedSpec::Fixed(0));
        assert!(spec.measure.trace);
    }

    #[test]
    fn parse_rejects_missing_required_keys() {
        let err = ScenarioSpec::parse("deploy=lattice:4:4:2\nworkload=repeat:all\n").unwrap_err();
        assert!(err.to_string().contains("stop"), "{err}");
    }

    #[test]
    fn set_handles_dotted_overrides() {
        let mut spec = sample_spec();
        spec.set("mac.t_mult", "4").unwrap();
        spec.set("mac.eps_approg", "0.25").unwrap();
        spec.set("sinr.range", "32").unwrap();
        let MacSpec::Sinr { overrides } = &spec.mac else {
            panic!()
        };
        assert!(overrides.contains(&(MacKnob::TMult, 4.0)));
        // eps_approg was already overridden: replaced, not duplicated.
        assert_eq!(
            overrides
                .iter()
                .filter(|(k, _)| *k == MacKnob::EpsApprog)
                .count(),
            1
        );
        assert!(overrides.contains(&(MacKnob::EpsApprog, 0.25)));
        assert_eq!(spec.sinr.range, 32.0);
        assert_eq!(spec.sinr.epsilon, 0.1, "other sinr fields untouched");
    }

    #[test]
    fn source_set_count_matches_stride_convention() {
        // count:K must reproduce the legacy broadcaster-spread rule
        // stride = (n/k).max(1), i % stride == 0 && i/stride < k.
        let n = 96;
        for k in [1usize, 4, 16, 48, 96] {
            let stride = (n / k).max(1);
            let legacy: Vec<usize> = (0..n)
                .filter(|&i| i % stride == 0 && i / stride < k)
                .collect();
            assert_eq!(SourceSet::Count(k).members(n), legacy, "k={k}");
        }
    }

    #[test]
    fn dyn_events_round_trip() {
        for s in [
            "jam:3:0.5@100",
            "unjam:3@200",
            "arrive:1@50",
            "depart:0@75",
            "teleport:4:12.5:-3@60",
        ] {
            let ev = DynEvent::parse(s).unwrap();
            assert_eq!(ev.to_string(), s);
        }
    }

    #[test]
    fn mobility_round_trips_and_none_clears() {
        let mut spec = sample_spec().with_mobility(MobilitySpec::Waypoint {
            speed: 0.5,
            pause: 8,
            seed: 42,
        });
        let parsed = ScenarioSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(parsed, spec);
        spec.set("mobility", "drift:0.25:7").unwrap();
        assert_eq!(
            spec.mobility,
            Some(MobilitySpec::Drift {
                sigma: 0.25,
                seed: 7
            })
        );
        spec.set("mobility", "none").unwrap();
        assert_eq!(spec.mobility, None);
    }

    #[test]
    fn dyn_event_parse_failures_name_the_offending_part() {
        // Every malformed form must produce a typed parse error whose
        // message names what was wrong — not a generic failure.
        for (bad, needle) in [
            ("jam:3:0.5", "missing @SLOT"),
            ("jam:3@100", "jam:3"),             // wrong arity
            ("jam:3:0.5:9@100", "jam:3:0.5:9"), // wrong arity
            ("jam:x:0.5@100", "node"),
            ("jam:3:maybe@100", "probability"),
            ("unjam@100", "unjam"),
            ("arrive:1:2@50", "arrive:1:2"),
            ("depart:@75", "node"),
            ("teleport:1:2@60", "teleport:1:2"), // missing y
            ("teleport:1:2:3:4@60", "teleport:1:2:3:4"),
            ("teleport:a:2:3@60", "node"),
            ("teleport:1:east:3@60", "\"east\""),
            ("teleport:1:2:north@60", "\"north\""),
            ("teleport:1:2:3@soon", "slot"),
            ("warp:1@10", "warp"),
        ] {
            let err = DynEvent::parse(bad).unwrap_err();
            assert!(matches!(err, ScenarioError::Parse(_)), "{bad}");
            assert!(
                err.to_string().contains(needle),
                "{bad}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn mobility_parse_failures_name_the_key() {
        let mut spec = sample_spec();
        for (bad, needle) in [
            ("hover:1:2", "hover"),
            ("waypoint:0:5:1", "speed"),
            ("waypoint:1:2", "waypoint"),
            ("drift:-1:2", "sigma"),
            ("drift", "drift"),
        ] {
            let err = spec.set("mobility", bad).unwrap_err();
            assert!(matches!(err, ScenarioError::Parse(_)), "{bad}");
            let msg = err.to_string();
            assert!(
                msg.contains("mobility") && msg.contains(needle),
                "{bad}: error {msg:?} should mention mobility and {needle:?}"
            );
        }
        // A full-text parse prefixes the line number.
        let text = "deploy=lattice:4:4:2\nworkload=repeat:all\nstop=slots:10\nmobility=hover:1:2\n";
        let err = ScenarioSpec::parse(text).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn deploy_parse_failures_name_the_offending_field() {
        for (bad, needle) in [
            ("hexgrid:3:3:1", "hexgrid"),
            ("uniform:64:40", "uniform"), // wrong arity
            ("uniform:many:40:7", "n"),
            ("lattice:3:3:tight", "spacing"),
            ("clusters:2:4:50:r:3", "radius"),
            ("two_balls:6:48", "two_balls"),
        ] {
            let err = DeploymentSpec::parse(bad).unwrap_err();
            assert!(matches!(err, ScenarioError::Parse(_)), "{bad}");
            assert!(
                err.to_string().contains(needle),
                "{bad}: error {err} should mention {needle:?}"
            );
        }
        // connected: on non-uniform geometry is a typed error too.
        let err = DeploymentSpec::parse("connected:lattice:3:3:2").unwrap_err();
        assert!(err.to_string().contains("uniform"), "{err}");
    }

    #[test]
    fn mac_spec_rejects_unknown_knob() {
        assert!(MacSpec::parse("sinr:warp_factor:9").is_err());
        assert!(MacSpec::parse("quantum").is_err());
    }

    #[test]
    fn float_fields_round_trip_exactly() {
        // Shortest-round-trip f64 formatting must preserve awkward
        // values like the fig1 range 10Δ/(1−ε).
        let mut spec = sample_spec();
        spec.sinr.range = 10.0 * 4.0 / 0.9;
        let parsed = ScenarioSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(parsed.sinr.range, spec.sinr.range);
    }
}
