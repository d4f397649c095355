//! Sharded large-graph execution for the TCIM reproduction: vertex-range
//! partitioning, cross-shard boundary slices, and the composition pass
//! that counts the triangles no single shard sees.
//!
//! The paper's evaluation stops at graphs whose sliced bit-matrix fits
//! one computational array. The journal follow-up ("Triangle Counting
//! Accelerations: From Algorithm to In-Memory Computing Architecture")
//! and the UPMEM study ("Accelerating Triangle Counting with Real
//! Processing-in-Memory Systems") both scale past that point the same
//! way: partition the graph across in-memory compute units and reason
//! about cross-partition triangles explicitly. This crate is that layer
//! for the TCIM stack:
//!
//! * [`ShardSpec`] / [`plan_shards`] — degree-aware 1D partitioning of
//!   the *oriented* DAG into contiguous, slice-aligned vertex ranges
//!   ([`ShardPlan`]), with an optional 2D edge-block grouping mode for
//!   the composition pass ([`ShardMode::TwoD`]).
//! * [`BoundarySlices`] — per cross-arc endpoint, the global sliced
//!   row/column split at the shard cuts via
//!   [`SlicedBitVector::restrict_slices`](tcim_bitmatrix::SlicedBitVector::restrict_slices)
//!   into a local part and a *boundary* part.
//! * [`compose`] — the cross-shard pass: one AND + BitCount kernel per
//!   cross arc, decomposed into three region-disjoint sub-passes over
//!   the split operands, priced as `tcim-sched` delta jobs and fanned
//!   over arrays with a deterministic merge ([`CompositionRun`]). The
//!   pricing and placement form a [`CompositionPlan`], so a caller
//!   running many passes over one boundary plans once; `compose` plans
//!   and executes in one call.
//!
//! **Exactness.** Shards own contiguous ranges of oriented ids, and the
//! TCIM kernel counts a triangle `a < b < c` at its extreme arc
//! `(a, c)`. If `a` and `c` share a shard, so does `b` — the triangle
//! is intra-shard and counted by that shard's own induced-subgraph run.
//! Otherwise `(a, c)` is a cross arc and the triangle is counted by
//! exactly one composition kernel. Intra runs plus composition
//! therefore count every triangle exactly once (property-tested in
//! `tests/exactness.rs` and at the workspace level).
//!
//! The pipeline-level artifact of this scheme — per-shard
//! `PreparedGraph`s behind a `ShardedPreparedGraph`, selected as
//! `Backend::Sharded` — lives in `tcim-core`, which builds on the
//! primitives here; `tcim-service` auto-selects it when a registered
//! graph exceeds the configured per-array slice budget.
//!
//! # Example
//!
//! ```
//! use tcim_arch::{PimConfig, PimEngine};
//! use tcim_bitmatrix::SliceSize;
//! use tcim_graph::{generators::gnm, Orientation};
//! use tcim_sched::SchedPolicy;
//! use tcim_shard::{compose, plan_shards, BoundarySlices, ShardSpec};
//!
//! let g = gnm(512, 4000, 7)?;
//! let oriented = Orientation::Natural.orient(&g);
//!
//! // Partition into 4 slice-aligned vertex ranges…
//! let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64)?;
//! assert!(plan.cross_arcs() > 0);
//!
//! // …extract the boundary material and run the composition pass.
//! let boundary = BoundarySlices::extract(&oriented, &plan, SliceSize::S64,
//!                                          tcim_bitmatrix::RowEncoding::Dense);
//! let engine = PimEngine::new(&PimConfig::default())?;
//! let run = compose(
//!     oriented.vertex_count(),
//!     &plan,
//!     &boundary,
//!     &SchedPolicy::with_arrays(4),
//!     &engine.cost_model(),
//!     false,
//!     false,
//! )?;
//! assert_eq!(run.kernel_invocations, plan.cross_arcs());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod boundary;
mod compose;
mod error;
mod plan;
mod spec;

pub use boundary::{BoundarySlices, ComposeCensus, SplitOperand};
pub use compose::{compose, CompositionPartial, CompositionPlan, CompositionRun};
pub use error::{Result, ShardError};
pub use plan::{plan_shards, ShardPlan};
pub use spec::{ShardMode, ShardSpec};
