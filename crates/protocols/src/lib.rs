//! Higher-level protocols over an abstract MAC layer.
//!
//! The paper's thesis (§2.2, §12) is that once an absMAC hides the SINR
//! platform, *graph-based* algorithms solve global problems with no
//! knowledge of the physical layer. This crate contains the three such
//! algorithms the paper derives results for, written as
//! [`absmac::MacClient`]s and therefore runnable over both the ideal MAC
//! and the paper's SINR implementation:
//!
//! * [`Bmmb`] — Basic Multi-Message Broadcast of Khabbazian, Kowalski,
//!   Kuhn, Lynch \[37\] (FIFO `bcastq` + `rcvd` set); Theorems 12.5/12.7.
//! * [`Bsmb`] — Basic Single-Message Broadcast, the `k = 1` special case;
//!   Theorems 12.1/12.7.
//! * [`FloodMaxConsensus`] — network-wide consensus in `O(D·f_ack)` MAC
//!   time (Corollary 5.5). The paper invokes Newport's wPAXOS \[44\] but
//!   uses only its `O(D·f_ack)` bound and the absMAC interface; in the
//!   failure-free reliable setting studied here flood-max provides the
//!   identical guarantees (agreement, validity, termination) with the
//!   same time structure, so it substitutes for wPAXOS here.
//!
//! # Examples
//!
//! Single-message broadcast over an ideal MAC:
//!
//! ```
//! use absmac::{IdealMac, Runner, SchedulerPolicy};
//! use sinr_graphs::Graph;
//! use sinr_protocols::Bsmb;
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
//! let mac: IdealMac<u64> = IdealMac::new(g, SchedulerPolicy::Eager, 0);
//! let clients = Bsmb::network(4, 0, 99u64);
//! let mut runner = Runner::new(mac, clients).unwrap();
//! let done = runner.run_until_done(100).unwrap();
//! assert!(done.is_some());
//! assert!(runner.clients().all(|c| c.delivered(&99)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmmb;
mod consensus;

pub use bmmb::{Bmmb, Bsmb};
pub use consensus::{FloodMaxConsensus, Proposal};
