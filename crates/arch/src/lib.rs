//! Processing-in-MRAM architecture simulator (the paper's §IV).
//!
//! This crate is the Rust counterpart of the authors' in-house Java
//! architecture simulator: it executes Algorithm 1 — iterate the non-zero
//! elements of the oriented adjacency matrix, load valid slice pairs into
//! the computational array, perform `AND` + `BitCount`, manage the column
//! slice cache with LRU replacement — and accounts every operation's
//! latency and energy using the NVSim-style array characterization.
//!
//! Modules:
//!
//! * [`buffer`] — the data buffer of Fig. 4 tracking which slices are
//!   resident in the array, with LRU (paper), FIFO and Random policies.
//! * [`bitcounter`] — the synthesized 8→256-LUT bit counter (§V-A):
//!   functional model plus synthesis-style latency/energy constants.
//! * [`PimConfig`] — simulator configuration (slice size, array size,
//!   replacement policy, controller overhead).
//! * [`PimEngine`] — the characterized engine: device, array and
//!   bit-counter models resolved once per configuration, with
//!   [`PimEngine::run`] executing prepared matrices against them.
//! * [`kernel`] — the one AND + BitCount kernel (Eq. 5) and the one
//!   matrix walker over it, generic over residency and attribution.
//! * [`runtime`] — the run-time half: Algorithm 1 executed over a
//!   prepared sliced matrix against an engine.
//! * [`SliceCostModel`] — per-operation cost hooks for external
//!   schedulers (`tcim-sched`) that place work onto arrays themselves.
//! * [`stats`] — access statistics behind Fig. 5 and the WRITE-saving
//!   claim.
//! * [`sweep`] — structured capacity/policy sweeps over the buffer
//!   configuration.
//!
//! Kernel-event tracing lives in [`tcim_telemetry`]: runs record
//! [`KernelEvent`]s into a bounded [`EventTrace`] when
//! [`PimConfig::trace_capacity`] is non-zero (both types are
//! re-exported here for convenience).
//!
//! # Example
//!
//! ```
//! use tcim_arch::{PimConfig, PimEngine};
//! use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};
//!
//! // The paper's Fig. 2 graph: 4 vertices, 5 edges, 2 triangles.
//! let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
//! for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
//!     b.add_edge(u, v)?;
//! }
//! let matrix = b.build();
//!
//! let engine = PimEngine::new(&PimConfig::default())?;
//! let run = engine.run(&matrix);
//! assert_eq!(run.triangles, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitcounter;
pub mod buffer;
mod config;
mod costs;
mod engine;
mod error;
pub mod kernel;
pub mod runtime;
pub mod stats;
pub mod sweep;

pub use bitcounter::BitCounterModel;
pub use buffer::{AccessOutcome, ReplacementPolicy, SliceCache};
pub use config::PimConfig;
pub use costs::SliceCostModel;
pub use engine::PimEngine;
pub use error::{ArchError, Result};
pub use kernel::{ArcIndex, ArcOffsets, Attribution, TriangleSink, TriangleTally};
pub use runtime::{EnergyBreakdown, LatencyBreakdown, PimRunResult};
pub use stats::AccessStats;
pub use tcim_telemetry::{EventTrace, KernelEvent};
