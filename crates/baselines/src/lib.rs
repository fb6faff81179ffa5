//! Baseline algorithms the paper compares against (Tables 1–2, Fig. 1).
//!
//! * [`DgknSmb`] — global single-message broadcast of Daum, Gilbert, Kuhn
//!   and Newport (DISC 2013, \[14\] in the paper). The paper's Algorithm
//!   9.1 *is* a localized re-parameterization of this machinery, so the
//!   baseline reuses [`sinr_mac::ApprogLayer`] verbatim with the w.h.p.
//!   parameters of \[14\]: `ε := 1/n^c`, making every window a
//!   `log n`-factor longer — exactly the gap Table 2 reports.
//! * [`DecaySmb`] — global broadcast by synchronized Decay cycles
//!   (Bar-Yehuda–Goldreich–Itai). With cycle length `⌈log₂ n⌉ + 1` this
//!   realizes the `O(D·log n + log² n)` *shape* of Jurdziński et al.
//!   (PODC 2014, \[32\]) under its synchronized-start assumption. It is a
//!   proxy for \[32\]: it reproduces the runtime shape, not the
//!   algorithm.
//! * [`RoundRobinSmb`] — a centrally scheduled TDMA broadcast: the
//!   optimal schedule of Theorem 6.1's lower-bound argument, used by the
//!   Figure 1 experiment to show `f_prog ≥ Δ` even with free central
//!   coordination.
//!
//! All baselines report per-node information times ([`SmbReport`]) from
//! the same slotted SINR engine the MAC implementation runs on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decay_smb;
mod dgkn;
mod report;
mod tdma;

pub use decay_smb::{DecaySmb, DecaySmbConfig};
pub use dgkn::{DgknSmb, DgknSmbConfig};
pub use report::SmbReport;
pub use tdma::{RoundRobinConfig, RoundRobinSmb};
