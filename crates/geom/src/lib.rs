//! Geometry substrate for the SINR local-broadcast reproduction.
//!
//! The SINR model of Halldórsson, Holzer and Lynch (PODC 2015) places nodes
//! in the Euclidean plane with a minimum pairwise distance of `1` (the
//! *near-field* assumption of §4.2 of the paper). This crate provides:
//!
//! * [`Point`] — plane points with exact distance helpers,
//! * [`HashGrid`] — a uniform spatial hash used both for fast range queries
//!   and for the cell buckets of the `hybrid` far-field interference
//!   kernel in `sinr-phys`,
//! * [`deploy`] — deployment generators for every workload in the paper's
//!   evaluation, including the Figure 1 lower-bound gadget
//!   ([`deploy::two_lines`]) and the Theorem 8.1 Decay gadget
//!   ([`deploy::two_balls`]).
//!
//! # Examples
//!
//! ```
//! use sinr_geom::{deploy, Point};
//!
//! # fn main() -> Result<(), sinr_geom::GeomError> {
//! let pts = deploy::uniform(64, 40.0, 7)?;
//! assert_eq!(pts.len(), 64);
//! // The near-field assumption holds for every generated deployment.
//! assert!(deploy::min_pairwise_distance(&pts) >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod point;

pub mod deploy;
pub mod mobility;

pub use deploy::DeploySpec;
pub use error::GeomError;
pub use grid::HashGrid;
pub use mobility::{geometry_digest, MobilityModel, MobilitySpec};
pub use point::Point;
