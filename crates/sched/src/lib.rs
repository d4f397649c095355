//! Multi-array scheduling and parallel execution runtime for the TCIM
//! reproduction.
//!
//! The TCIM paper (Wang et al., DAC 2020) derives its speedup from
//! mapping bit-sliced row/column intersections onto many independent
//! MRAM computational subarrays, but the serial engine in `tcim-arch`
//! approximates that parallelism by dividing total work uniformly over
//! the subarray count. This crate replaces the approximation with an
//! explicit runtime, sitting between `tcim-bitmatrix` slicing and the
//! `tcim-arch` engine:
//!
//! * **Work decomposition** ([`jobs`]) — one schedulable [`RowJob`] per
//!   non-empty matrix row, priced via the engine's
//!   [`SliceCostModel`](tcim_arch::SliceCostModel) hooks.
//! * **Placement policies** ([`PlacementPolicy`]) —
//!   [`RoundRobin`](PlacementPolicy::RoundRobin) dealing,
//!   popcount-load-balanced greedy LPT
//!   ([`LoadBalanced`](PlacementPolicy::LoadBalanced)), and a
//!   [`ReuseAware`](PlacementPolicy::ReuseAware) policy with a per-array
//!   LRU row-buffer residency model so jobs sharing column slices land
//!   on arrays that already hold them — cf. the load-balancing findings
//!   of Asquini et al. (2025) for triangle counting on real PIM systems.
//! * **Inter-array aggregation** ([`ScheduledReport`]) — critical-path
//!   latency (serial host dispatch + slowest array), per-array
//!   utilization, and the load-imbalance factor, instead of a serial
//!   sum.
//! * **Batch delta jobs** ([`delta`]) — placement of the per-update
//!   AND + BitCount kernels a dynamic-graph batch (`tcim-stream`)
//!   produces: tiny, independent, residency-free jobs priced by the
//!   same cost model and balanced by the same policies.
//! * **Execution** ([`ScheduledRun`], [`SchedulePlan`]) — each array
//!   runs the serial engine's kernel walker over its own rows, fanned
//!   out over scoped host threads; partial counts merge
//!   deterministically in array order. The frozen [`SchedulePlan`]
//!   keeps only the rows each array runs, so a prepared artifact plans
//!   once per policy and executes the same plan on every query.
//!
//! Functional correctness is independent of scheduling by construction:
//! every policy executes the identical AND + BitCount dataflow per edge,
//! so the scheduled count always equals the serial engine's (property
//! tests in `tests/properties.rs` pin this, alongside the
//! every-slice-placed-exactly-once invariant).
//!
//! # Example
//!
//! ```
//! use tcim_arch::{PimConfig, PimEngine};
//! use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};
//! use tcim_sched::{PlacementPolicy, SchedPolicy, ScheduledRun};
//!
//! // The paper's Fig. 2 graph: 2 triangles.
//! let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
//! for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
//!     b.add_edge(u, v)?;
//! }
//! let matrix = b.build();
//!
//! let engine = PimEngine::new(&PimConfig::default())?;
//! let policy = SchedPolicy::with_arrays(4).placement(PlacementPolicy::LoadBalanced);
//! let report = ScheduledRun::plan(&engine, &matrix, &policy)?.execute();
//! assert_eq!(report.triangles, 2);
//! assert!(report.imbalance >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod delta;
mod error;
mod executor;
pub mod jobs;
mod placement;
mod policy;
mod report;
mod runner;

pub use delta::{plan_deltas, DeltaJob, DeltaLoads, DeltaPlan};
pub use error::{Result, SchedError};
pub use jobs::RowJob;
pub use placement::{ArrayAssignment, Placement};
pub use policy::{PlacementPolicy, SchedPolicy};
pub use report::{ArrayReport, ScheduledReport};
pub use runner::{parallel_map_indexed, SchedulePlan, ScheduledRun};
