//! Sharded execution at the pipeline level: graphs larger than one
//! array's slice budget, prepared as per-shard artifacts and counted as
//! intra-shard runs plus a cross-shard composition pass.
//!
//! The `tcim-shard` crate provides the mechanics (degree-aware
//! slice-aligned partitioning, boundary-slice extraction, the
//! composition kernels); this module ties them to the pipeline's
//! artifact model:
//!
//! * [`ShardPolicy`] — the value-level selection carried by
//!   [`Backend::Sharded`]: a
//!   [`ShardSpec`] (shard count + composition mode) plus the inner
//!   [`SchedPolicy`] each shard's multi-array run and the composition
//!   fan-out execute with.
//! * [`ShardedPreparedGraph`] — per-shard [`PreparedGraph`]s over the
//!   induced subgraphs of slice-aligned vertex ranges, plus the
//!   cross-shard [`BoundarySlices`].
//! * [`ShardedCache`] — the pipeline's
//!   [`ArtifactCache`] of sharded artifacts, keyed
//!   by base artifact × spec, so repeated sharded queries through one
//!   [`TcimPipeline`](crate::TcimPipeline) partition and re-slice
//!   nothing.
//! * [`ShardedBackend`] — the [`ExecutionBackend`] answering every
//!   [`Query`](crate::Query) shape: shards run concurrently through the `tcim-sched`
//!   executor, the composition pass rides its delta-job machinery, and
//!   partial results merge deterministically in shard/array order.
//! * [`ShardProvenance`] — shard-count / imbalance / boundary-edge
//!   provenance, surfaced on [`QueryReport`](crate::QueryReport) and `tcim-service`'s
//!   `QueryResponse`.
//!
//! **Exactness.** Shard ranges are contiguous in oriented-id order and
//! the kernel counts a triangle `a < b < c` at its extreme arc
//! `(a, c)`: same-shard extremes pin the middle to that shard (the
//! triangle is counted by that shard's induced run), different-shard
//! extremes make `(a, c)` a composition kernel. Every triangle is
//! counted exactly once; the sharded backend therefore agrees
//! bit-exactly with every other backend on every query shape
//! (`tests/sharding.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcim_arch::{AccessStats, ArcIndex, Attribution, PimEngine, SliceCostModel};
use tcim_bitmatrix::EncodingPolicy;
use tcim_graph::CsrGraph;
use tcim_sched::{parallel_map_indexed, SchedPolicy};
use tcim_shard::{
    plan_shards, BoundarySlices, ComposeCensus, CompositionPartial, CompositionPlan,
    ShardError, ShardMode, ShardPlan, ShardSpec,
};

use crate::backend::{
    Backend, BackendDetail, ExecutionBackend, ExecutionReport, ScheduledPimBackend,
};
use crate::cache::{ArtifactCache, PlanMemo};
use crate::error::{CoreError, Result};
use crate::pipeline::{PreparedGraph, PreparedKey};
use crate::query::KernelStats;

/// Value-level selection of a sharded execution: how to partition and
/// what each piece runs on.
///
/// # Examples
///
/// ```
/// use tcim_core::{Backend, ShardPolicy, TcimConfig, TcimPipeline};
/// use tcim_graph::generators::gnm;
///
/// let pipeline = TcimPipeline::new(&TcimConfig::default())?;
/// let prepared = pipeline.prepare(&gnm(512, 4000, 7)?);
///
/// // Count the same artifact sharded 4 ways and unsharded.
/// let sharded = pipeline.execute(&prepared, &Backend::Sharded(ShardPolicy::with_shards(4)))?;
/// let serial = pipeline.execute(&prepared, &Backend::SerialPim)?;
/// assert_eq!(sharded.triangles, serial.triangles);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardPolicy {
    /// Partition specification: shard count and composition mode.
    pub spec: ShardSpec,
    /// Scheduling policy of each shard's intra run *and* of the
    /// composition pass's array fan-out.
    pub inner: SchedPolicy,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy { spec: ShardSpec::default(), inner: SchedPolicy::with_arrays(4) }
    }
}

impl ShardPolicy {
    /// A 1D policy with `shards` shards and the default inner policy.
    pub fn with_shards(shards: usize) -> Self {
        ShardPolicy { spec: ShardSpec::one_d(shards), ..ShardPolicy::default() }
    }

    /// Selects the composition grouping mode (builder style).
    #[must_use]
    pub fn mode(mut self, mode: ShardMode) -> Self {
        self.spec.mode = mode;
        self
    }

    /// Selects the inner scheduling policy (builder style).
    #[must_use]
    pub fn inner(mut self, inner: SchedPolicy) -> Self {
        self.inner = inner;
        self
    }
}

/// One shard of a [`ShardedPreparedGraph`]: its oriented-id range and
/// the prepared artifact of the subgraph induced on it.
#[derive(Debug)]
pub struct ShardPiece {
    range: (u32, u32),
    prepared: PreparedGraph,
}

impl ShardPiece {
    /// The oriented-id range `(lo, hi)` this piece owns.
    pub fn range(&self) -> (u32, u32) {
        self.range
    }

    /// The prepared induced subgraph (local ids `0..hi-lo`).
    pub fn prepared(&self) -> &PreparedGraph {
        &self.prepared
    }
}

/// A graph prepared for sharded execution: the global oriented DAG
/// partitioned into slice-aligned vertex ranges, one [`PreparedGraph`]
/// per induced subgraph, plus the cross-shard boundary slices the
/// composition pass ANDs and the composition plans built over them.
///
/// # Examples
///
/// ```
/// use tcim_core::{ShardSpec, TcimConfig, TcimPipeline};
/// use tcim_graph::generators::gnm;
///
/// let pipeline = TcimPipeline::new(&TcimConfig::default())?;
/// let prepared = pipeline.prepare(&gnm(512, 4000, 7)?);
/// let sharded = pipeline.prepare_sharded(&prepared, &ShardSpec::one_d(4))?;
/// assert_eq!(sharded.pieces().len(), 4);
/// // Intra and cross arcs partition the DAG's arcs.
/// let intra: usize = sharded.pieces().iter().map(|p| p.prepared().oriented().arc_count()).sum();
/// assert_eq!(intra as u64 + sharded.plan().cross_arcs(), 4000);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ShardedPreparedGraph {
    spec: ShardSpec,
    plan: ShardPlan,
    boundary: BoundarySlices,
    /// Composition plans built so far, at most one per array count ×
    /// placement × cost model.
    compose_plans: PlanMemo<CompositionPlan>,
    pieces: Vec<ShardPiece>,
    prepare_time: Duration,
}

impl ShardedPreparedGraph {
    /// Partitions `prepared`'s oriented DAG, extracts boundary slices
    /// and prepares every induced subgraph — the sharded analogue of
    /// [`TcimPipeline::prepare_uncached`](crate::TcimPipeline::prepare_uncached).
    /// Cached callers go through
    /// [`TcimPipeline::prepare_sharded`](crate::TcimPipeline::prepare_sharded).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] for an invalid spec and
    /// [`CoreError::Pipeline`] when `prepared`'s slice size does not
    /// match the engine's.
    pub fn build(
        prepared: &PreparedGraph,
        spec: &ShardSpec,
        engine: &PimEngine,
    ) -> Result<ShardedPreparedGraph> {
        if prepared.slice_size() != engine.config().slice_size {
            return Err(CoreError::Pipeline {
                reason: format!(
                    "sharded prepare: artifact has |S| = {} but the engine is characterized \
                     for |S| = {}",
                    prepared.slice_size(),
                    engine.config().slice_size
                ),
            });
        }
        let start = Instant::now();
        let oriented = prepared.oriented();
        let slice_size = prepared.slice_size();
        let plan = plan_shards(oriented, spec, slice_size).map_err(CoreError::Shard)?;
        // Extraction also takes the composition pass's kernel census.
        // It is structural (it depends only on the boundary operands,
        // not on placement), so that one dry walk at preparation time
        // makes every later EXPLAIN plan and calibration prediction
        // O(shards) instead of O(cross arcs).
        let boundary =
            BoundarySlices::extract(oriented, &plan, slice_size, prepared.encoding());

        let pieces = plan
            .ranges()
            .iter()
            .map(|&(lo, hi)| {
                let mut edges = Vec::new();
                for a in lo..hi {
                    for &c in oriented.row(a) {
                        if c >= hi {
                            break;
                        }
                        edges.push((a - lo, c - lo));
                    }
                }
                let local = CsrGraph::from_edges((hi - lo) as usize, edges)
                    .expect("intra-shard arcs are in bounds by construction");
                // Pieces inherit the base artifact's *resolved* encoding
                // rather than re-measuring their own density: a sharded
                // run must process exactly the encoding the unsharded
                // artifact committed to.
                let prepared_local = PreparedGraph::build(
                    &local,
                    prepared.orientation(),
                    slice_size,
                    EncodingPolicy::force(prepared.encoding()),
                    engine,
                );
                ShardPiece { range: (lo, hi), prepared: prepared_local }
            })
            .collect();

        Ok(ShardedPreparedGraph {
            spec: *spec,
            plan,
            boundary,
            compose_plans: PlanMemo::default(),
            pieces,
            prepare_time: start.elapsed(),
        })
    }

    /// The specification this artifact was partitioned under. The
    /// inner scheduling policy is deliberately *not* part of the
    /// artifact: partitioning, boundary extraction and per-shard
    /// slicing depend only on the spec, so policies differing only in
    /// inner scheduling share one cached artifact.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The partition plan (ranges, weights, imbalance, arc census).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The extracted cross-shard boundary slices.
    pub fn boundary(&self) -> &BoundarySlices {
        &self.boundary
    }

    /// The composition pass's exact kernel census (dispatches, slice
    /// pairs, skipped blocks), measured structurally at preparation
    /// time — what the pass *will* execute, before it runs.
    pub fn compose_census(&self) -> ComposeCensus {
        self.boundary.census()
    }

    /// The composition plan for `policy` under `costs`: built the first
    /// time an array count × placement × cost model asks for it, then
    /// memoized on the artifact, so later queries — whatever their host
    /// threads or attribution — only execute it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] for an invalid policy.
    pub fn compose_plan(
        &self,
        policy: &SchedPolicy,
        costs: &SliceCostModel,
    ) -> Result<Arc<CompositionPlan>> {
        policy.validate().map_err(|e| CoreError::Shard(ShardError::from(e)))?;
        let (plan, _) = self.compose_plans.get_or_build(
            |plan| plan.is_for(policy, costs),
            || {
                CompositionPlan::new(&self.plan, &self.boundary, policy, costs)
                    .map_err(CoreError::Shard)
            },
        )?;
        Ok(plan)
    }

    /// Composition plans this artifact has built so far.
    pub fn compose_plans_built(&self) -> usize {
        self.compose_plans.len()
    }

    /// The per-shard prepared pieces, in shard order.
    pub fn pieces(&self) -> &[ShardPiece] {
        &self.pieces
    }

    /// Host wall-clock time of partitioning + boundary extraction +
    /// per-shard preparation.
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
    }
}

/// Shard-level provenance of a sharded execution, surfaced on
/// [`QueryReport`](crate::QueryReport) and the service's `QueryResponse`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardProvenance {
    /// Configured shard count.
    pub shards: usize,
    /// Shards that own a non-empty vertex range.
    pub occupied_shards: usize,
    /// Composition grouping mode.
    pub mode: ShardMode,
    /// Partition-weight imbalance (`max / mean` shard weight).
    pub imbalance: f64,
    /// Cross-shard arcs — the boundary edges the composition pass
    /// processed.
    pub boundary_arcs: u64,
    /// Valid slices in the boundary parts of the extracted operands.
    pub boundary_valid_slices: u64,
    /// Triangles counted inside shards.
    pub intra_triangles: u64,
    /// Triangles counted by the composition pass.
    pub cross_triangles: u64,
    /// Placement units the composition pass scheduled (arcs in 1D,
    /// edge blocks in 2D).
    pub composition_units: usize,
    /// Per-shard execution reports, in shard order.
    pub per_shard: Vec<ShardSliceReport>,
}

/// One shard's slice of a sharded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSliceReport {
    /// The oriented-id range the shard owns.
    pub range: (u32, u32),
    /// Arcs of the induced subgraph.
    pub arcs: u64,
    /// Cross arcs whose tail the shard owns: the composition work its
    /// rows feed.
    pub cross_arcs: u64,
    /// Triangles the shard's intra run found.
    pub triangles: u64,
    /// The shard run's normalized kernel accounting.
    pub kernel: KernelStats,
}

/// The bounded LRU cache of [`ShardedPreparedGraph`]s, keyed by base
/// artifact × shard spec.
pub type ShardedCache = ArtifactCache<(PreparedKey, ShardSpec), ShardedPreparedGraph>;

/// The sharded artifact of `prepared` under `spec` from `cache`, built
/// on a miss, and whether the cache served it — the one path every
/// sharded caller resolves its artifact through.
///
/// # Errors
///
/// Propagates [`ShardedPreparedGraph::build`] failures.
pub(crate) fn cached_artifact(
    cache: &ShardedCache,
    prepared: &PreparedGraph,
    spec: &ShardSpec,
    engine: &PimEngine,
) -> Result<(Arc<ShardedPreparedGraph>, bool)> {
    cache.get_or_build((*prepared.key(), *spec), || {
        ShardedPreparedGraph::build(prepared, spec, engine)
    })
}

/// One shard's partial result, normalized for merging in shard order.
#[derive(Default)]
struct IntraPartial {
    triangles: u64,
    kernel: KernelStats,
    modelled_time_s: f64,
    modelled_energy_j: f64,
    stats: AccessStats,
    /// Per-vertex counts indexed by *local input* id (dense over the
    /// shard's range); present above [`Attribution::Count`].
    per_vertex: Option<Vec<u64>>,
    /// Support per local arc, each with its *global* arc position.
    support: Option<Vec<(usize, u64)>>,
}

/// Sharded execution over a prepared graph: intra-shard scheduled runs
/// plus the cross-shard composition pass, answering every [`Query`](crate::Query)
/// shape.
///
/// The backend resolves its sharded artifact through a [`ShardedCache`]:
/// [`TcimPipeline::backend`](crate::TcimPipeline::backend) binds it to
/// the pipeline's, so repeated executions partition once.
#[derive(Debug, Clone)]
pub struct ShardedBackend<'e> {
    engine: &'e PimEngine,
    policy: ShardPolicy,
    cache: &'e ShardedCache,
}

impl<'e> ShardedBackend<'e> {
    /// A sharded backend running `policy` on `engine`, resolving its
    /// artifacts through `cache`.
    pub fn new(engine: &'e PimEngine, policy: ShardPolicy, cache: &'e ShardedCache) -> Self {
        ShardedBackend { engine, policy, cache }
    }

    /// The shard policy this backend executes with.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }
}

/// Runs one shard piece through the scheduled backend and normalizes
/// the partial: per-vertex counts mapped to local *input* ids (dense
/// over the range), each local arc's support mapped to its position in
/// the global `arcs`. A piece without arcs contributes nothing and runs
/// nothing.
fn intra_partial(
    backend: &ScheduledPimBackend<'_>,
    piece: &ShardPiece,
    arcs: ArcIndex<'_>,
    attribution: Attribution,
) -> Result<IntraPartial> {
    let oriented = piece.prepared().oriented();
    if oriented.arc_count() == 0 {
        return Ok(IntraPartial::default());
    }
    let (lo, _) = piece.range();
    let run = backend.run(piece.prepared(), attribution)?;
    // Local matrix ids → local input ids (undo the piece's own
    // orientation relabelling).
    let per_vertex = run.per_vertex.map(|by_matrix_id| {
        let mut per_vertex = vec![0u64; oriented.vertex_count()];
        for (m, &count) in by_matrix_id.iter().enumerate() {
            per_vertex[oriented.original_id(m as u32) as usize] += count;
        }
        per_vertex
    });
    // Local arc → global oriented arc: shard ranges hold global
    // oriented ids `lo..hi` as local input ids, and global arcs point
    // upward.
    let support = run.support.map(|counts| {
        oriented
            .arcs()
            .zip(counts)
            .map(|((i, j), count)| {
                let x = lo + oriented.original_id(i);
                let y = lo + oriented.original_id(j);
                let global = arcs.position(x.min(y), x.max(y));
                (global.expect("intra-shard arcs are arcs of the global DAG"), count)
            })
            .collect()
    });
    Ok(IntraPartial {
        triangles: run.triangles,
        kernel: run.kernel,
        modelled_time_s: run.modelled_time_s.unwrap_or(0.0),
        modelled_energy_j: run.modelled_energy_j.unwrap_or(0.0),
        stats: run.stats.unwrap_or_default(),
        per_vertex,
        support,
    })
}

/// One task of a sharded query's fan-out.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// The intra run of the piece at this shard index.
    Piece(usize),
    /// The composition kernels placed on this array.
    Array(usize),
}

/// A finished [`Task`], tagged with its shard or array index.
enum Partial<'a> {
    Intra(usize, Result<IntraPartial>),
    Cross(usize, CompositionPartial<'a>),
}

/// Every piece and every composition array, ordered by the slice pairs
/// it will AND (largest first; pieces before arrays on ties), so the
/// fan-out's dynamic claiming starts the long tasks first.
fn largest_first(pieces: &[ShardPiece], composition: &CompositionPlan) -> Vec<Task> {
    let mut sized: Vec<(u64, Task)> = pieces
        .iter()
        .enumerate()
        .map(|(s, piece)| (piece.prepared().pricing().slice_pairs, Task::Piece(s)))
        .chain((0..composition.arrays()).map(|a| (composition.array_pairs(a), Task::Array(a))))
        .collect();
    sized.sort_by_key(|&(pairs, _)| std::cmp::Reverse(pairs));
    sized.into_iter().map(|(_, task)| task).collect()
}

impl ExecutionBackend for ShardedBackend<'_> {
    fn name(&self) -> String {
        Backend::Sharded(self.policy.clone()).label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        let start = Instant::now();
        let (sharded, _) =
            cached_artifact(self.cache, prepared, &self.policy.spec, self.engine)?;
        let pieces = sharded.pieces();
        let n = prepared.oriented().vertex_count();
        let arcs = sharded.plan().arcs();

        // The cross-shard composition pass, planned once per artifact and
        // policy.
        let compose_span = tcim_telemetry::span("compose");
        let composition =
            sharded.compose_plan(&self.policy.inner, &self.engine.cost_model())?;
        drop(compose_span);

        // One fan-out runs every piece's intra run (through the tcim-sched
        // executor, its arrays simulated serially so the host is never
        // oversubscribed) and every composition array. Workers claim the
        // tasks largest first, so the composition never waits for the
        // slowest piece to finish first.
        let inner = SchedPolicy { host_threads: Some(1), ..self.policy.inner.clone() };
        let backend = ScheduledPimBackend::new(self.engine, inner);
        let tasks = largest_first(pieces, &composition);
        let shard_span = tcim_telemetry::span("shard");
        let done = parallel_map_indexed(
            tasks.len(),
            self.policy.inner.resolved_host_threads(),
            |t| match tasks[t] {
                Task::Piece(s) => {
                    Partial::Intra(s, intra_partial(&backend, &pieces[s], arcs, attribution))
                }
                Task::Array(a) => Partial::Cross(
                    a,
                    composition.run_array(a, n, arcs, sharded.boundary(), attribution),
                ),
            },
        );
        drop(shard_span);
        let mut intra: Vec<Option<Result<IntraPartial>>> =
            pieces.iter().map(|_| None).collect();
        let mut cross: Vec<Option<CompositionPartial<'_>>> =
            (0..composition.arrays()).map(|_| None).collect();
        for partial in done {
            match partial {
                Partial::Intra(s, partial) => intra[s] = Some(partial),
                Partial::Cross(a, partial) => cross[a] = Some(partial),
            }
        }

        // Partials merge in shard order, then in array order.
        let mut triangles = 0u64;
        let mut kernel = KernelStats::default();
        let mut stats = AccessStats::default();
        let mut intra_critical = 0.0f64;
        let mut energy = 0.0f64;
        let mut per_vertex = (attribution > Attribution::Count).then(|| vec![0u64; n]);
        let mut support = (attribution == Attribution::PerVertexWithSupport)
            .then(|| vec![0u64; arcs.arc_count()]);
        let mut per_shard = Vec::with_capacity(pieces.len());
        for (s, partial) in intra.into_iter().enumerate() {
            let partial = partial.expect("every piece ran")?;
            triangles += partial.triangles;
            kernel.merge(&partial.kernel);
            stats.merge(&partial.stats);
            // Shards execute concurrently on disjoint array groups: the
            // intra phase runs on the slowest shard's clock.
            intra_critical = intra_critical.max(partial.modelled_time_s);
            energy += partial.modelled_energy_j;
            per_shard.push(ShardSliceReport {
                range: pieces[s].range(),
                arcs: pieces[s].prepared().oriented().arc_count() as u64,
                cross_arcs: sharded.plan().cross_arcs_by_tail()[s],
                triangles: partial.triangles,
                kernel: partial.kernel,
            });
            let (lo, _) = pieces[s].range();
            if let (Some(total), Some(local)) = (per_vertex.as_mut(), partial.per_vertex) {
                for (offset, count) in local.into_iter().enumerate() {
                    total[lo as usize + offset] += count;
                }
            }
            if let (Some(total), Some(local)) = (support.as_mut(), partial.support) {
                for (position, count) in local {
                    total[position] += count;
                }
            }
        }
        let intra_triangles = triangles;

        let compose_span = tcim_telemetry::span("compose");
        let comp = composition.merge(cross.into_iter().map(|p| p.expect("every array ran")));
        drop(compose_span);
        triangles += comp.triangles;
        kernel.merge(&KernelStats {
            kernel_invocations: comp.kernel_invocations,
            slice_pairs: comp.slice_pairs,
            result_readouts: comp.result_readouts,
            blocks_skipped: comp.blocks_skipped,
        });
        stats.merge(&AccessStats {
            edges: comp.kernel_invocations,
            and_ops: comp.slice_pairs,
            bitcount_ops: comp.slice_pairs,
            row_slice_writes: comp.write_slices,
            result_readouts: comp.result_readouts,
            ..AccessStats::default()
        });
        energy += comp.modelled_energy_j;
        if let (Some(total), Some(cross)) = (per_vertex.as_mut(), comp.per_vertex) {
            for (v, count) in cross.into_iter().enumerate() {
                total[v] += count;
            }
        }
        if let (Some(total), Some(cross)) = (support.as_mut(), comp.support) {
            for (sum, count) in total.iter_mut().zip(cross) {
                *sum += count;
            }
        }

        let provenance = ShardProvenance {
            shards: sharded.plan().shard_count(),
            occupied_shards: sharded.plan().occupied_shards(),
            mode: sharded.plan().mode(),
            imbalance: sharded.plan().imbalance(),
            boundary_arcs: sharded.plan().cross_arcs(),
            boundary_valid_slices: sharded.boundary().boundary_valid_slices(),
            intra_triangles,
            cross_triangles: comp.triangles,
            composition_units: comp.placement_units,
            per_shard,
        };
        Ok(ExecutionReport {
            backend: self.name(),
            triangles,
            execute_time: start.elapsed(),
            modelled_time_s: Some(intra_critical + comp.critical_path_s),
            modelled_energy_j: Some(energy),
            stats: Some(stats),
            kernel,
            per_vertex,
            support,
            detail: BackendDetail::Sharded(Box::new(provenance)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use crate::query::Query;
    use tcim_graph::generators::gnm;

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    #[test]
    fn sharded_count_agrees_with_serial_and_carries_provenance() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(512, 3600, 21).unwrap());
        let serial = p.execute(&prepared, &Backend::SerialPim).unwrap();
        let sharded =
            p.execute(&prepared, &Backend::Sharded(ShardPolicy::with_shards(4))).unwrap();
        assert_eq!(sharded.triangles, serial.triangles);
        // The arc census is preserved: intra + cross dispatches equal
        // the monolithic per-edge dispatch count.
        assert_eq!(sharded.kernel.kernel_invocations, serial.kernel.kernel_invocations);
        let BackendDetail::Sharded(detail) = &sharded.detail else {
            panic!("sharded runs carry sharded detail");
        };
        assert_eq!(detail.shards, 4);
        assert!(detail.boundary_arcs > 0);
        assert_eq!(detail.intra_triangles + detail.cross_triangles, sharded.triangles);
        assert_eq!(detail.per_shard.len(), 4);
        assert!(detail.imbalance >= 1.0);
        assert!(sharded.modelled_time_s.unwrap() > 0.0);
        assert!(sharded.modelled_energy_j.unwrap() > 0.0);
    }

    #[test]
    fn pipeline_sharded_cache_prevents_repartitioning() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(256, 1800, 5).unwrap());
        let spec = Backend::Sharded(ShardPolicy::with_shards(2));
        p.execute(&prepared, &spec).unwrap();
        let builds = || p.metrics_snapshot().counter("tcim_prepared_cache_misses_total");
        let built = builds();
        for _ in 0..3 {
            p.query(&prepared, &spec, &Query::PerVertexTriangles).unwrap();
        }
        assert_eq!(p.sharded_cache().misses(), 1, "partitioned once");
        assert_eq!(builds(), built, "no re-slicing after first build");
        assert_eq!(p.sharded_cache().len(), 1);
        assert_eq!(p.sharded_cache().hits(), 3, "one counted lookup per query");
        let artifact = p.prepare_sharded(&prepared, &ShardSpec::one_d(2)).unwrap();
        assert_eq!(artifact.compose_plans_built(), 1, "composition planned once");
    }

    #[test]
    fn a_poisoned_sharded_cache_keeps_answering() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(256, 1800, 5).unwrap());
        let spec = ShardSpec::one_d(2);
        let first = p.prepare_sharded(&prepared, &spec).unwrap();
        p.sharded_cache().poison();
        assert!(Arc::ptr_eq(&first, &p.prepare_sharded(&prepared, &spec).unwrap()));
        p.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
        assert_eq!(p.sharded_cache().len(), 2);
        assert_eq!((p.sharded_cache().hits(), p.sharded_cache().misses()), (1, 2));
    }

    #[test]
    fn sharded_artifact_is_keyed_by_spec_not_inner_policy() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(256, 1800, 5).unwrap());
        let a = p.prepare_sharded(&prepared, &ShardSpec::one_d(2)).unwrap();
        let b = p.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(p.sharded_cache().len(), 2);
        let again = p.prepare_sharded(&prepared, &ShardSpec::one_d(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        // Policies differing only in inner scheduling share the
        // artifact; each array count × placement plans composition once
        // on it, and host threads alone never re-plan.
        let run = |inner: SchedPolicy| {
            let hits = p.sharded_cache().hits();
            p.execute(&prepared, &Backend::Sharded(ShardPolicy::with_shards(2).inner(inner)))
                .unwrap();
            assert_eq!(p.sharded_cache().hits(), hits + 1, "served from the cache, once");
            a.compose_plans_built()
        };
        assert_eq!(run(SchedPolicy::with_arrays(4)), 1);
        assert_eq!(run(SchedPolicy::with_arrays(4)), 1, "a repeated policy builds no plan");
        assert_eq!(run(SchedPolicy::with_arrays(8)), 2, "new arrays build exactly one plan");
        let threads = SchedPolicy { host_threads: Some(1), ..SchedPolicy::with_arrays(8) };
        assert_eq!(run(threads), 2, "host threads alone build no plan");
        assert_eq!(p.sharded_cache().len(), 2, "no duplicate artifact");
        assert_eq!(b.compose_plans_built(), 0, "the other artifact never composed");
    }

    #[test]
    fn compose_plan_lookup_reuses_the_memoized_plan() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(256, 1800, 5).unwrap());
        let sharded = p.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
        let costs = p.engine().cost_model();
        let policy = SchedPolicy::with_arrays(4);
        let first = sharded.compose_plan(&policy, &costs).unwrap();
        let threads = SchedPolicy { host_threads: Some(1), ..policy.clone() };
        assert!(Arc::ptr_eq(&first, &sharded.compose_plan(&threads, &costs).unwrap()));
        let round_robin = policy.clone().placement(tcim_sched::PlacementPolicy::RoundRobin);
        assert!(!Arc::ptr_eq(&first, &sharded.compose_plan(&round_robin, &costs).unwrap()));
        assert_eq!(sharded.compose_plans_built(), 2);
        // An invalid policy is rejected even when its key would hit.
        let zero_threads = SchedPolicy { host_threads: Some(0), ..policy.clone() };
        let err = sharded.compose_plan(&zero_threads, &costs).unwrap_err();
        assert!(matches!(err, CoreError::Shard(ShardError::Sched(_))), "{err}");
        assert_eq!(sharded.compose_plans_built(), 2);
        assert!(Arc::ptr_eq(&first, &sharded.compose_plan(&policy, &costs).unwrap()));
    }

    #[test]
    fn warm_sharded_queries_plan_nothing() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(512, 3600, 21).unwrap());
        let spec = Backend::Sharded(ShardPolicy::with_shards(4));
        p.execute(&prepared, &spec).unwrap();
        let artifact = p.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
        let built = || -> Vec<usize> {
            artifact
                .pieces()
                .iter()
                .map(|piece| piece.prepared().schedule_plans_built())
                .collect()
        };
        let warm = built();
        assert!(warm.contains(&1), "{warm:?}");
        for query in [Query::TotalTriangles, Query::PerVertexTriangles, Query::EdgeSupport] {
            p.query(&prepared, &spec, &query).unwrap();
        }
        p.explain_prepared(&prepared, true, &spec, &Query::TotalTriangles).unwrap();
        assert_eq!(built(), warm, "no piece plans again");
        assert_eq!(artifact.compose_plans_built(), 1, "composition planned once");
    }

    #[test]
    fn slice_size_mismatch_is_a_pipeline_error() {
        let p = pipeline();
        let g = gnm(128, 700, 2).unwrap();
        let prepared = PreparedGraph::build(
            &g,
            tcim_graph::Orientation::Natural,
            tcim_bitmatrix::SliceSize::S32,
            EncodingPolicy::default(),
            p.engine(),
        );
        let err = p.execute(&prepared, &Backend::Sharded(ShardPolicy::default())).unwrap_err();
        assert!(matches!(err, CoreError::Pipeline { .. }), "{err}");
    }

    #[test]
    fn invalid_shard_spec_propagates() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(128, 700, 2).unwrap());
        let err =
            p.execute(&prepared, &Backend::Sharded(ShardPolicy::with_shards(0))).unwrap_err();
        assert!(matches!(err, CoreError::Shard(_)), "{err}");
    }
}
