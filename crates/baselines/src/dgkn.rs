//! The Daum–Gilbert–Kuhn–Newport (DISC 2013) global single-message
//! broadcast, reconstructed from the paper's own description of how
//! Algorithm 9.1 relates to it (§9): the *same* epoch machinery —
//! reliability-graph estimation, schedule replay, label MIS, `p/Q` data
//! slots — but with **w.h.p. parameters** (`ε := 1/n^c`, so every window
//! carries an extra `log n` factor) and no acknowledgment layer: informed
//! nodes simply keep broadcasting until the horizon.
//!
//! This is the Table 2 comparator: the paper's improvement over \[14\] is
//! precisely the removal of the `log n` factor from the epochs, plus the
//! plug-in analysis of \[37\].

use absmac::MsgId;
use sinr_geom::Point;
use sinr_mac::{ApprogLayer, Frame, MacParams};
use sinr_phys::{Action, BackendSpec, Engine, PhysError, Protocol, SinrParams, SlotCtx};

use crate::report::run_until_informed;
use crate::SmbReport;

/// Configuration of [`DgknSmb`].
#[derive(Debug, Clone)]
pub struct DgknSmbConfig {
    /// The exponent `c` of the w.h.p. failure bound `ε = 1/n^c`.
    pub whp_exponent: f64,
    /// Forwarded to [`MacParams`] construction (every Θ constant).
    pub params: sinr_mac::MacParamsBuilder,
}

impl Default for DgknSmbConfig {
    fn default() -> Self {
        DgknSmbConfig {
            whp_exponent: 1.0,
            params: MacParams::builder(),
        }
    }
}

#[derive(Debug)]
struct DgknNode<P> {
    approg: ApprogLayer<P>,
    informed_at: Option<u64>,
}

impl<P: Clone> Protocol for DgknNode<P> {
    type Msg = Frame<P>;

    fn on_slot(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Frame<P>> {
        // Every physical slot belongs to the progress machinery — DGKN has
        // no interleaved acknowledgment layer.
        self.approg.on_slot(ctx.slot, ctx.rng)
    }

    fn on_receive(&mut self, ctx: &mut SlotCtx<'_>, frame: &Frame<P>) {
        if let Frame::Data { id, payload } = frame {
            if self.informed_at.is_none() {
                self.informed_at = Some(ctx.slot);
                // Forward the *same* message (single-message broadcast);
                // the node joins S₁ at the next epoch boundary.
                self.approg.start(*id, payload.clone());
            }
        }
        self.approg.on_receive(ctx.slot, frame);
    }

    fn on_slot_end(&mut self, ctx: &mut SlotCtx<'_>) {
        self.approg.on_slot_end(ctx.slot);
    }
}

/// Global SMB after \[14\] (see module docs). Construct, then call
/// [`DgknSmb::run`].
pub struct DgknSmb<P: Clone> {
    engine: Engine<DgknNode<P>>,
}

impl<P: Clone> DgknSmb<P> {
    /// Builds the execution: node `source` knows the message initially.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysError`] from engine construction.
    pub fn new(
        sinr: SinrParams,
        positions: &[Point],
        config: &DgknSmbConfig,
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

    /// Like [`DgknSmb::new`] with an explicit reception backend
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
        config: &DgknSmbConfig,
        source: usize,
        payload: P,
        seed: u64,
        spec: BackendSpec,
        tables: Option<&sinr_phys::SharedTables>,
    ) -> Result<Self, PhysError> {
        let n = positions.len().max(2) as f64;
        // The defining parameter choice of [14]: w.h.p. everywhere.
        let eps = n.powf(-config.whp_exponent).clamp(1e-12, 0.49);
        let params = config.params.clone().eps_approg(eps).build(&sinr);
        let nodes = (0..positions.len())
            .map(|i: usize| {
                let mut node = DgknNode {
                    approg: ApprogLayer::new(&params),
                    informed_at: None,
                };
                if i == source {
                    node.informed_at = Some(0);
                    node.approg.start(
                        MsgId {
                            origin: source,
                            seq: 0,
                        },
                        payload.clone(),
                    );
                }
                node
            })
            .collect();
        let engine = Engine::with_prepared(sinr, positions.to_vec(), nodes, seed, spec, tables)?;
        Ok(DgknSmb { engine })
    }

    /// Runs until every node is informed or `max_slots` elapse.
    pub fn run(&mut self, max_slots: u64) -> SmbReport {
        run_until_informed(&mut self.engine, max_slots, |node| node.informed_at)
    }
}

impl<P: Clone> std::fmt::Debug for DgknSmb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DgknSmb")
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
    fn informs_a_line() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        let positions = deploy::line(5, 3.0).unwrap();
        let mut smb: DgknSmb<u32> =
            DgknSmb::new(sinr, &positions, &DgknSmbConfig::default(), 0, 9, 4).unwrap();
        let report = smb.run(2_000_000);
        assert!(report.complete(), "informed {}/5", report.informed_count());
        // Information times are 0 at the source and positive elsewhere.
        assert_eq!(report.informed_at[0], Some(0));
        for t in &report.informed_at[1..] {
            assert!(t.unwrap() > 0);
        }
    }

    #[test]
    fn whp_parameters_are_slower_than_constant_eps() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        // Window lengths grow with the w.h.p. exponent.
        let loose = DgknSmbConfig {
            whp_exponent: 0.5,
            ..Default::default()
        };
        let tight = DgknSmbConfig {
            whp_exponent: 3.0,
            ..Default::default()
        };
        let n: f64 = 64.0;
        let pl = loose.params.clone().eps_approg(n.powf(-0.5)).build(&sinr);
        let pt = tight.params.clone().eps_approg(n.powf(-3.0)).build(&sinr);
        assert!(pt.t_window > pl.t_window);
        assert!(pt.data_slots > pl.data_slots);
    }

    #[test]
    fn source_only_network_reports_immediately() {
        let sinr = SinrParams::builder().range(8.0).build().unwrap();
        let positions = vec![sinr_geom::Point::new(0.0, 0.0)];
        let mut smb: DgknSmb<u32> =
            DgknSmb::new(sinr, &positions, &DgknSmbConfig::default(), 0, 9, 4).unwrap();
        let report = smb.run(10);
        // Single node: nothing to do, but never "completes" via reception;
        // informed_count is still 1.
        assert_eq!(report.informed_count(), 1);
    }
}
