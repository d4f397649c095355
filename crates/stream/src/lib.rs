//! Dynamic-graph subsystem for the TCIM reproduction: live triangle
//! counting under streams of edge insertions and deletions.
//!
//! Everything below this crate is *static*: `tcim-core`'s pipeline
//! prepares a graph once and re-executes it, so a single edge change
//! forces a full re-orient + re-slice. Real serving workloads are write
//! streams — and the per-update triangle delta `|N(u) ∩ N(v)|` is
//! exactly one row-AND + BitCount, the TCIM kernel itself (PAPER.md
//! §IV, Alg. 1). This crate opens that workload:
//!
//! * [`DynamicGraph`] — mutable adjacency plus mutable sliced bit-rows
//!   (patched in place via `tcim-bitmatrix`'s `set_bit`/`clear_bit`),
//!   maintaining an exact triangle count under updates.
//! * [`UpdateBatch`]/[`Delta`] — batched updates partitioned into
//!   endpoint-disjoint rounds whose delta kernels are priced through
//!   the engine's `SliceCostModel` and fanned across arrays via
//!   `tcim-sched`'s [delta jobs](tcim_sched::delta).
//! * [`DriftPolicy`] — epoch/snapshot integration with `tcim-core`:
//!   when enough rows were touched (or the valid-slice population
//!   decayed), the live state folds back into a fresh `PreparedGraph`
//!   through `TcimPipeline`/`PreparedCache`.
//! * [`StreamReport`] — deltas applied, kernel invocations, rebuilds
//!   and amortized per-update cost, alongside the static pipeline's
//!   `ExecutionReport`.
//!
//! # Example
//!
//! ```
//! use tcim_graph::generators::classic;
//! use tcim_stream::{DynamicGraph, StreamConfig, UpdateBatch};
//!
//! let mut dg = DynamicGraph::new(&classic::wheel(12), StreamConfig::default())?;
//! assert_eq!(dg.triangles(), 11);
//!
//! // A chord across the rim closes one extra triangle per shared hub.
//! let mut batch = UpdateBatch::new();
//! batch.insert(1, 3).delete(2, 3);
//! let outcome = dg.apply_batch(&batch)?;
//! assert_eq!(dg.triangles(), (11 + outcome.net_delta() as u64));
//! println!("{}", dg.report());
//! # Ok::<(), tcim_stream::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod drift;
mod dynamic;
mod error;
mod report;
mod update;

pub use drift::{DriftMeasure, DriftPolicy};
pub use dynamic::{DynamicGraph, EpochSnapshot, StreamConfig};
pub use error::{Result, StreamError};
pub use report::{BatchReport, Delta, Rejected, StreamReport};
pub use update::{Update, UpdateBatch};
