//! All tunable constants of the MAC implementation.
//!
//! The paper states its algorithms with Θ(·) parameters; every hidden
//! constant is an explicit field here so the ablation experiments (A1/A2)
//! can sweep them. Defaults are tuned so the simulated executions satisfy
//! the probabilistic guarantees on the workloads of the experiment suite
//! while keeping epochs short.

use sinr_phys::SinrParams;

use crate::EpochLayout;

/// Iterated logarithm `log* x` (base 2): the number of times `log₂` must
/// be applied before the value drops to at most 1.
///
/// # Examples
///
/// ```
/// assert_eq!(sinr_mac::log_star(1.0), 0);
/// assert_eq!(sinr_mac::log_star(2.0), 1);
/// assert_eq!(sinr_mac::log_star(16.0), 3);
/// assert_eq!(sinr_mac::log_star(65536.0), 4);
/// ```
pub fn log_star(mut x: f64) -> u32 {
    let mut k = 0;
    while x > 1.0 {
        x = x.log2();
        k += 1;
        if k > 64 {
            break;
        }
    }
    k
}

/// Configuration of [`crate::SinrAbsMac`] (Algorithms B.1, 9.1, 11.1).
///
/// Derived from [`SinrParams`] through [`MacParams::builder`]; the fields
/// below are the *resolved* values (counts, probabilities), with every
/// paper quantity documented next to its field.
#[derive(Debug, Clone, PartialEq)]
pub struct MacParams {
    // ---- shared ----
    /// Target failure probability `ε_ack` of the acknowledgment bound.
    pub eps_ack: f64,
    /// Target failure probability `ε_approg` of approximate progress.
    pub eps_approg: f64,

    // ---- Algorithm B.1 (ack layer, even slots) ----
    /// Contention upper bound `Ñ` (paper default `4Λ²`).
    pub n_tilde: f64,
    /// Inner-loop length `δ·log(Ñ/ε_ack)` in slots.
    pub ack_inner_slots: u32,
    /// Halting threshold `γ'·log(Ñ/ε_ack)` on accumulated transmission
    /// probability.
    pub ack_tp_budget: f64,
    /// Fall-back trigger: `8·log(2Ñ/ε_ack)` receptions.
    pub ack_rc_trigger: u32,
    /// Hard cap on ack-layer slots per broadcast (`f_ack` cut-off of
    /// Theorem 5.1); the ack fires at the cap at the latest.
    pub ack_slot_cap: u32,

    // ---- Algorithm 9.1 (approximate-progress layer, odd slots) ----
    /// Number of phases `Φ = Θ(log Λ)` per epoch.
    pub phases: u32,
    /// Estimation window length `T` (slots per window; two windows and
    /// `2T` per simulated CONGEST round).
    pub t_window: u32,
    /// MIS rounds simulated per phase (`c'·(log*(Λ/ε) + 2)`).
    pub mis_rounds: u32,
    /// Data-window length (`Θ(Q·log(1/ε_approg))` slots).
    pub data_slots: u32,
    /// Estimation transmission probability `p ∈ (0, 1/2]`.
    pub p: f64,
    /// Probability divisor `Q = Θ(log^α Λ)` for data slots (`p/Q`).
    pub q: f64,
    /// Reception-count threshold for *potential neighbor* status
    /// (`(1−γ/2)·μ·T` in the paper), as an absolute count.
    pub potential_threshold: u32,
    /// Temporary labels are drawn uniformly from `[1, label_range]`
    /// (`poly(Λ/ε_approg)` in the paper).
    pub label_range: u64,
}

impl MacParams {
    /// Starts a builder with the paper's default scalings.
    pub fn builder() -> MacParamsBuilder {
        MacParamsBuilder::default()
    }

    /// The slot layout of one approximate-progress epoch.
    pub fn layout(&self) -> EpochLayout {
        EpochLayout::new(self.phases, self.t_window, self.mis_rounds, self.data_slots)
    }
}

/// Builder for [`MacParams`]; every multiplier corresponds to one hidden
/// constant in the paper's Θ(·) notation.
#[derive(Debug, Clone)]
pub struct MacParamsBuilder {
    eps_ack: f64,
    eps_approg: f64,
    /// Multiplier on `4Λ²` for `Ñ` (1.0 = paper value).
    n_tilde_mult: f64,
    /// `δ` of Algorithm B.1.
    delta_mult: f64,
    /// `γ'` of Algorithm B.1.
    gamma_ack: f64,
    /// Multiplier on the fall-back reception trigger `8·log(2Ñ/ε_ack)`.
    rc_mult: f64,
    /// Multiplier on the `f_ack` cut-off.
    ack_cap_mult: f64,
    /// Multiplier on `Φ = log₂ Λ`.
    phi_mult: f64,
    /// Multiplier on `T`.
    t_mult: f64,
    /// `c'`: multiplier on MIS rounds.
    mis_mult: f64,
    /// Multiplier on data-window length.
    data_mult: f64,
    /// Estimation transmission probability `p`.
    p: f64,
    /// Multiplier on `Q = log₂^α Λ`.
    q_mult: f64,
    /// Fraction of `T` required for potential-neighbor status
    /// (`(1−γ/2)·μ`).
    potential_frac: f64,
    /// Exponent: label range is `(Λ/ε_approg)^label_exp`, min 2.
    label_exp: f64,
}

impl Default for MacParamsBuilder {
    fn default() -> Self {
        MacParamsBuilder {
            eps_ack: 0.125,
            eps_approg: 0.125,
            n_tilde_mult: 1.0,
            delta_mult: 1.0,
            gamma_ack: 1.0,
            // Tuned so the fall-back engages early enough that the
            // 1 − ε_ack delivery guarantee holds even in Δ≈64 cliques
            // (measured in PAPER_RESULTS.json's E1-cluster table, whose
            // delivery claim fails at rc_mult = 1).
            rc_mult: 0.1,
            ack_cap_mult: 1.0,
            phi_mult: 1.0,
            t_mult: 2.0,
            mis_mult: 1.0,
            data_mult: 1.0,
            p: 0.5,
            q_mult: 0.25,
            potential_frac: 0.08,
            label_exp: 2.0,
        }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(&mut self, v: $ty) -> &mut Self {
            self.$name = v;
            self
        }
    };
}

impl MacParamsBuilder {
    setter!(
        /// Sets `ε_ack`, the ack-bound failure probability.
        eps_ack: f64
    );
    setter!(
        /// Sets `ε_approg`, the approximate-progress failure probability.
        eps_approg: f64
    );
    setter!(
        /// Sets the multiplier on the contention bound `Ñ = 4Λ²`.
        n_tilde_mult: f64
    );
    setter!(
        /// Sets `δ` (inner-loop length multiplier) of Algorithm B.1.
        delta_mult: f64
    );
    setter!(
        /// Sets `γ'` (halting budget multiplier) of Algorithm B.1.
        gamma_ack: f64
    );
    setter!(
        /// Sets the multiplier on the fall-back trigger `8·log₂(2Ñ/ε)`.
        rc_mult: f64
    );
    setter!(
        /// Sets the multiplier on the `f_ack` slot cap.
        ack_cap_mult: f64
    );
    setter!(
        /// Sets the multiplier on the phase count `Φ`.
        phi_mult: f64
    );
    setter!(
        /// Sets the multiplier on the estimation window `T`.
        t_mult: f64
    );
    setter!(
        /// Sets `c'`, the MIS round multiplier.
        mis_mult: f64
    );
    setter!(
        /// Sets the multiplier on the data-window length.
        data_mult: f64
    );
    setter!(
        /// Sets the estimation transmission probability `p ∈ (0, 1/2]`.
        p: f64
    );
    setter!(
        /// Sets the multiplier on `Q = log₂^α Λ`.
        q_mult: f64
    );
    setter!(
        /// Sets the potential-neighbor threshold as a fraction of `T`.
        potential_frac: f64
    );
    setter!(
        /// Sets the label-range exponent (`label_range = (Λ/ε)^exp`).
        label_exp: f64
    );

    /// Resolves the configuration against SINR parameters.
    ///
    /// # Panics
    ///
    /// Panics if a probability or multiplier is outside its domain; these
    /// are experiment-configuration errors, caught loudly.
    pub fn build(&self, sinr: &SinrParams) -> MacParams {
        assert!(
            self.p > 0.0 && self.p <= 0.5,
            "p must be in (0, 1/2], got {}",
            self.p
        );
        assert!(
            self.eps_ack > 0.0 && self.eps_ack < 1.0,
            "eps_ack must be in (0,1)"
        );
        assert!(
            self.eps_approg > 0.0 && self.eps_approg < 1.0,
            "eps_approg must be in (0,1)"
        );
        assert!(
            self.potential_frac > 0.0 && self.potential_frac <= 1.0,
            "potential_frac must be in (0,1]"
        );
        let lambda = sinr.lambda();
        let log_lambda = sinr.log_lambda();

        // ---- ack layer (Theorem 5.1 / Appendix B) ----
        let n_tilde = (self.n_tilde_mult * 4.0 * lambda * lambda).max(4.0);
        let log_ne = (n_tilde / self.eps_ack).ln().max(1.0);
        let ack_inner_slots = (self.delta_mult * log_ne).ceil().max(1.0) as u32;
        let ack_tp_budget = self.gamma_ack * log_ne;
        let ack_rc_trigger = (self.rc_mult * 8.0 * (2.0 * n_tilde / self.eps_ack).log2())
            .ceil()
            .max(1.0) as u32;
        // f_ack cut-off: Ñ·log(Ñ/ε) + log(Λ)·log(Ñ/ε), scaled. The tp
        // budget is reached after ~16·γ'·log(Ñ/ε)·δ⁻¹ high-probability
        // slots in the worst case; the cap below dominates it.
        let ack_slot_cap = (self.ack_cap_mult
            * (16.0 * ack_tp_budget / self.delta_mult).max(1.0)
            * ack_inner_slots as f64)
            .ceil() as u32;

        // ---- approximate-progress layer (Algorithm 9.1) ----
        let phases = (self.phi_mult * log_lambda).ceil().max(1.0) as u32;
        let ls = log_star(lambda / self.eps_approg) as f64;
        // h₁ ≤ c·4^Φ·log*(Λ/ε) grows too fast to use literally at our
        // scales; the growth-bound argument only needs f(h₁) inside a
        // logarithm, so T = Θ(log(f(h₁)/ε)) = Θ(Φ + log log* + log 1/ε),
        // which is what we compute (Lemma 10.10's simplification).
        let t_window = (self.t_mult
            * (phases as f64 + ls.max(1.0).ln() + (1.0 / self.eps_approg).ln()))
        .ceil()
        .max(2.0) as u32;
        let mis_rounds = (self.mis_mult * (ls + 2.0)).ceil().max(1.0) as u32;
        let q = (self.q_mult * log_lambda.powf(sinr.alpha())).max(1.0);
        let data_slots = (self.data_mult * q * (1.0 / self.eps_approg).ln().max(1.0))
            .ceil()
            .max(1.0) as u32;
        let potential_threshold = ((self.potential_frac * t_window as f64).ceil() as u32).max(1);
        let label_range = ((lambda / self.eps_approg).powf(self.label_exp).ceil() as u64).max(2);

        MacParams {
            eps_ack: self.eps_ack,
            eps_approg: self.eps_approg,
            n_tilde,
            ack_inner_slots,
            ack_tp_budget,
            ack_rc_trigger,
            ack_slot_cap,
            phases,
            t_window,
            mis_rounds,
            data_slots,
            p: self.p,
            q,
            potential_threshold,
            label_range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinr() -> SinrParams {
        SinrParams::builder().range(16.0).build().unwrap()
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0.5), 0);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(1e9), 5);
    }

    #[test]
    fn defaults_resolve_sanely() {
        let p = MacParams::builder().build(&sinr());
        assert!(p.phases >= 1);
        assert!(p.t_window >= 2);
        assert!(p.mis_rounds >= 1);
        assert!(p.data_slots >= 1);
        assert!(p.q >= 1.0);
        assert!(p.label_range >= 2);
        assert!(p.potential_threshold >= 1);
        assert!(p.ack_slot_cap > p.ack_inner_slots);
    }

    #[test]
    fn phases_scale_with_lambda() {
        let small = SinrParams::builder().range(4.0).build().unwrap();
        let large = SinrParams::builder().range(256.0).build().unwrap();
        let ps = MacParams::builder().build(&small);
        let pl = MacParams::builder().build(&large);
        assert!(pl.phases > ps.phases);
        assert!(pl.q > ps.q);
    }

    #[test]
    fn smaller_eps_means_longer_windows() {
        let loose = MacParams::builder().eps_approg(0.25).build(&sinr());
        let tight = MacParams::builder().eps_approg(0.01).build(&sinr());
        assert!(tight.t_window >= loose.t_window);
        assert!(tight.data_slots >= loose.data_slots);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn p_validation() {
        let _ = MacParams::builder().p(0.9).build(&sinr());
    }

    #[test]
    fn layout_round_trips() {
        let p = MacParams::builder().build(&sinr());
        let layout = p.layout();
        assert_eq!(layout.phases(), p.phases);
        assert!(layout.epoch_len() > 0);
    }
}
