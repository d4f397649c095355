//! Graph substrate for the TCIM reproduction.
//!
//! The TCIM paper evaluates on nine SNAP graphs (Table II). This crate
//! provides everything needed to feed such graphs into the accelerator
//! simulation:
//!
//! * [`CsrGraph`] — an undirected simple graph in compressed-sparse-row
//!   form with sorted neighbour lists.
//! * [`io`] — a parser/writer for the SNAP edge-list format, so the real
//!   datasets drop in when available.
//! * [`generators`] — deterministic, seedable synthetic generators
//!   (Erdős–Rényi, Barabási–Albert, R-MAT, Watts–Strogatz, road-style grid
//!   lattices, and closed-form reference graphs).
//! * [`datasets`] — the Table II catalog with family-matched synthetic
//!   stand-ins at configurable scale (its module docs give the
//!   substitution rationale).
//! * [`Orientation`] — the edge orientations used to make the paper's
//!   Equation (5) count each triangle exactly once.
//! * [`components`] — connected components and the largest-component
//!   extraction SNAP datasets conventionally apply.
//! * [`oracle`] — naive, obviously-correct reference implementations of
//!   the motif analytics (k-truss trussness, 4-clique counts) that the
//!   accelerated kernel paths are differentially tested against.
//!
//! # Example
//!
//! ```
//! use tcim_graph::generators::classic;
//! use tcim_graph::Orientation;
//!
//! // The 4-vertex, 5-edge, 2-triangle graph of the paper's Fig. 2.
//! let g = classic::fig2_example();
//! assert_eq!(g.vertex_count(), 4);
//! assert_eq!(g.edge_count(), 5);
//!
//! // Orient it upper-triangularly, as the paper's Fig. 2 does.
//! let oriented = Orientation::Natural.orient(&g);
//! assert_eq!(oriented.arc_count(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
mod csr;
pub mod datasets;
mod error;
pub mod generators;
pub mod io;
pub mod oracle;
mod orientation;
mod stats;

pub use csr::CsrGraph;
pub use error::{GraphError, Result};
pub use orientation::{Orientation, OrientedGraph};
pub use stats::DegreeStats;
