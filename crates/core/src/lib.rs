//! TCIM: triangle counting with a processing-in-MRAM architecture.
//!
//! This crate is the public API of the TCIM reproduction (Wang et al.,
//! DAC 2020). It ties the substrates together — graphs (`tcim-graph`),
//! sliced bit matrices (`tcim-bitmatrix`), MTJ devices (`tcim-mtj`), the
//! NVSim-style array model (`tcim-nvsim`) and the architecture simulator
//! (`tcim-arch`) — behind one entry point, [`TcimPipeline`], and
//! provides everything the paper's evaluation compares against:
//!
//! * [`baseline`] — CPU triangle-counting algorithms: a deliberately
//!   framework-flavoured hash-intersect baseline (the paper's Spark
//!   GraphX column), merge-based edge iteration, the forward algorithm,
//!   and a crossbeam-parallel variant.
//! * [`software`] — the paper's "This Work w/o PIM" column: the same
//!   slicing/reuse dataflow executed in software.
//! * [`reported`] — runtimes and energy ratios quoted from the paper for
//!   CPU/GPU/FPGA platforms that cannot be rerun here.
//! * [`experiments`] — drivers that regenerate every table and figure.
//! * [`verify`] — a one-call cross-check of all five counting paths.
//! * scheduling — [`Backend::ScheduledPim`] runs the dataflow on the
//!   `tcim-sched` multi-array runtime ([`SchedPolicy`],
//!   [`ScheduledReport`] are re-exported here).
//! * [`ablations`] — structured drivers for the design-choice ablations
//!   (orientation, slice size and buffer replacement), with their
//!   findings pinned by tests.
//!
//! The counting path itself is a **staged pipeline**: graphs are
//! *prepared* once (orient → slice → price, [`PreparedGraph`], cached by
//! [`PreparedCache`]) and then *executed* any number of times on
//! interchangeable [`ExecutionBackend`]s selected by value
//! ([`Backend`], resolved by [`TcimPipeline::backend`]) — serial PIM,
//! scheduled multi-array PIM, the sliced software path, CPU baselines
//! and sharded execution. Every backend
//! implements one primitive, [`ExecutionBackend::run`]: execute at an
//! [`Attribution`] level (count only, per-vertex, per-vertex plus
//! per-arc support) and return one [`ExecutionReport`]. Backends only
//! execute; the pipeline answers the questions.
//!
//! Execution is **query-shaped** ([`query`]): a typed [`Query`] (total
//! count, per-vertex counts, local/global clustering, edge support,
//! top-k, k-truss, 4-cliques) is answered on any backend from one
//! prepared artifact, returning a [`QueryReport`] with normalized
//! [`KernelStats`]. Every query takes one path,
//! [`TcimPipeline::query_coalesced`], and [`TcimPipeline::query`] is a
//! batch of one: the classic members share one run at the highest
//! member [`Query::attribution`] level, and the k-truss and 4-clique
//! members each share one run of the motif engine ([`motifs`]),
//! anchored on a run at their level. The count-only entry points
//! ([`TcimPipeline::execute`], [`TcimPipeline::count`]) run the backend
//! at [`Attribution::Count`] and shape no query.
//!
//! For *dynamic* graphs (streams of edge insertions/deletions), the
//! `tcim-stream` crate layers incremental delta counting on top of this
//! pipeline: it maintains the count with per-update AND + BitCount
//! kernels and folds drifted state back through [`TcimPipeline::prepare`]
//! into the [`PreparedCache`].
//!
//! For graphs **beyond one array's slice budget**, [`sharded`]
//! execution ([`Backend::Sharded`], built on the `tcim-shard` crate)
//! partitions the oriented DAG into slice-aligned vertex ranges,
//! prepares each induced subgraph as its own artifact
//! ([`ShardedPreparedGraph`], cached by [`ShardedCache`]) and counts
//! intra-shard runs plus a cross-shard composition pass — answering
//! every [`Query`] shape with shard provenance
//! ([`ShardProvenance`]). [`PreparedCache`] and [`ShardedCache`] are
//! one bounded LRU type, [`ArtifactCache`], and every placement a query
//! runs (a scheduled plan, a composition plan) is built once and
//! memoized on its artifact.
//!
//! Every routing decision above is inspectable *before* executing:
//! [`TcimPipeline::explain`] assembles an [`ExplainReport`] — resolved
//! encoding, backend selection, scheduler placement, shard plan, cache
//! provenance, and the exact predicted kernel census next to the cost
//! model's latency estimate — from the same structs the executor
//! consumes ([`explain`]). The pipeline's [`PipelineMetrics`] score
//! that prediction against every executed run in the
//! `tcim_model_error_permille` calibration histograms.
//!
//! # Quickstart
//!
//! ```
//! use tcim_core::{Backend, SchedPolicy, TcimConfig, TcimPipeline};
//! use tcim_graph::generators::classic;
//!
//! // The paper's Fig. 2 example graph: 2 triangles.
//! let graph = classic::fig2_example();
//!
//! // Stage 1: prepare once (orient → slice → price; cached by graph).
//! let pipeline = TcimPipeline::new(&TcimConfig::default())?;
//! let prepared = pipeline.prepare(&graph);
//!
//! // Stage 2: execute the same artifact on any backend.
//! let pim = pipeline.execute(&prepared, &Backend::SerialPim)?;
//! let sched = pipeline.execute(&prepared, &Backend::ScheduledPim(SchedPolicy::with_arrays(4)))?;
//! let cpu = pipeline.execute(&prepared, &Backend::CpuMerge)?;
//! assert_eq!(pim.triangles, 2);
//! assert_eq!(sched.triangles, 2);
//! assert_eq!(cpu.triangles, 2);
//! println!("modelled runtime: {:.3e} s", pim.modelled_time_s.unwrap());
//! # Ok::<(), tcim_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod backend;
pub mod baseline;
mod cache;
pub mod coalesce;
mod error;
pub mod experiments;
pub mod explain;
pub mod motifs;
pub mod pipeline;
pub mod query;
pub mod reported;
pub mod sharded;
pub mod software;
pub mod telemetry;
pub mod verify;

pub use backend::{Backend, BackendDetail, ExecutionBackend, ExecutionReport};
pub use cache::ArtifactCache;
pub use coalesce::CoalescedOutcome;
pub use error::{CoreError, Result};
pub use explain::{
    CacheProvenance, EncodingDecision, ExplainReport, KernelCensus, MeasuredCost,
    PredictedCost, SchedPlanSummary, ShardPieceSummary, ShardPlanSummary,
};
pub use motifs::{four_cliques_from_adjacency, ktruss_value_from_adjacency};
pub use pipeline::{
    PreparedCache, PreparedGraph, PreparedKey, PreparedPricing, TcimConfig, TcimPipeline,
};
pub use query::{
    EdgeSupport, EdgeTruss, KernelStats, Query, QueryReport, QueryValue, VertexClustering,
    VertexTriangles,
};
pub use sharded::{
    ShardPolicy, ShardProvenance, ShardSliceReport, ShardedBackend, ShardedCache,
    ShardedPreparedGraph,
};
pub use telemetry::{ExecutionSample, PipelineMetrics};
// The attribution level surfaces in `ExecutionBackend::run` and
// `Query::attribution`.
pub use tcim_arch::Attribution;
// Scheduling types surface in `Backend::ScheduledPim` and its
// `BackendDetail`, so re-export them.
pub use tcim_sched::{PlacementPolicy, SchedPolicy, ScheduledReport};
// Shard-spec types surface in `Backend::Sharded`'s `ShardPolicy`.
pub use tcim_shard::{ShardMode, ShardSpec};

#[cfg(test)]
mod accelerator;
