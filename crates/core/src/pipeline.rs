//! The staged counting pipeline: one-time graph *preparation*
//! ([`PreparedGraph`], cached by [`PreparedCache`]) separated from
//! repeated *execution* against interchangeable backends
//! ([`crate::backend`]), which [`TcimPipeline::backend`] resolves.
//!
//! The paper's dataflow is inherently two-phase — orient, slice and map
//! the graph once (§IV-A/B), then run Algorithm 1's AND + BitCount
//! kernel over the prepared form. Serving workloads repeat the second
//! phase many times per graph (different backends, policies, or repeated
//! queries), so the pipeline materialises phase one as a reusable
//! artifact, keyed by the graph's identity and the preparation
//! parameters ([`PreparedKey`]). The prepared and sharded caches are
//! one LRU type, [`ArtifactCache`]; each artifact memoizes the
//! scheduled plans built over it ([`PreparedGraph::schedule_plan`]).

use std::convert::Infallible;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tcim_arch::{kernel, ArcIndex, ArcOffsets, PimConfig, PimEngine, SliceCostModel};
use tcim_bitmatrix::{EncodingPolicy, RowEncoding, SliceSize, SliceStats, SlicedMatrix};
use tcim_graph::{CsrGraph, Orientation, OrientedGraph};
use tcim_sched::{SchedPolicy, SchedulePlan, ScheduledRun};

use crate::backend::{
    Backend, CpuForwardBackend, CpuMergeBackend, ExecutionBackend, ExecutionReport,
    ScheduledPimBackend, SerialPimBackend, SoftwareBackend,
};
use crate::cache::{ArtifactCache, PlanMemo};
use crate::error::Result;
use crate::query::{KernelStats, Query, QueryReport};
use crate::sharded::{self, ShardedBackend, ShardedCache, ShardedPreparedGraph};
use crate::telemetry::{ExecutionSample, PipelineMetrics};
use tcim_shard::ShardSpec;

/// Configuration of a [`TcimPipeline`]: how to orient the graph, how to
/// encode its rows, plus the full PIM simulator configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TcimConfig {
    /// Edge orientation applied before slicing (paper: natural order).
    pub orientation: Orientation,
    /// Row-encoding selection policy: measure the sliced matrix's
    /// valid-slice density and pick the dense or the sparse encoding
    /// (default: automatic with a 25% density threshold).
    pub encoding: EncodingPolicy,
    /// Architecture-simulator configuration (paper defaults).
    pub pim: PimConfig,
}

/// Cache key of one prepared artifact: the graph's structural
/// fingerprint (paired with its exact sizes to make collisions
/// vanishingly unlikely) plus the preparation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedKey {
    /// [`CsrGraph::fingerprint`] of the input graph.
    pub fingerprint: u64,
    /// Vertex count of the input graph.
    pub vertices: usize,
    /// Undirected edge count of the input graph.
    pub edges: usize,
    /// Orientation applied during preparation.
    pub orientation: Orientation,
    /// Slice size the matrix was built with.
    pub slice_size: SliceSize,
    /// Row-encoding policy the matrix was built under. Part of the key
    /// because the policy changes the artifact (different policies can
    /// resolve the same graph to different encodings).
    pub encoding: EncodingPolicy,
}

impl PreparedKey {
    /// The key `g` prepares under with the given parameters.
    pub fn for_graph(
        g: &CsrGraph,
        orientation: Orientation,
        slice_size: SliceSize,
        encoding: EncodingPolicy,
    ) -> Self {
        PreparedKey {
            fingerprint: g.fingerprint(),
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            orientation,
            slice_size,
            encoding,
        }
    }
}

/// Cost-model pricing of a prepared graph: the work Algorithm 1 will
/// perform, priced at preparation time against the engine's
/// characterization so schedulers and capacity planners can reason about
/// a query before running it. The counts are read from the matrix's
/// kernel census ([`SlicedMatrix::census`]), which preparation takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedPricing {
    /// Valid slice pairs across all edges — the exact number of AND +
    /// BitCount operations any faithful execution performs.
    pub slice_pairs: u64,
    /// Per-arc kernel dispatches a faithful sliced execution performs:
    /// every arc under the dense encoding; under the sparse encoding
    /// only the arcs with at least one mutually valid slice pair (the
    /// controller proves the rest empty and never launches). This is
    /// the exact `kernel_invocations` the serial, scheduled and
    /// software backends report.
    pub kernel_dispatches: u64,
    /// Mutually valid slice pairs the sparse row encoding proves zero
    /// and skips before the AND (always 0 under the dense encoding).
    pub blocks_skipped: u64,
    /// Optimistic single-array busy time (s): every valid slice written
    /// once plus the AND/BitCount work (an all-hits lower bound).
    pub est_busy_s: f64,
}

/// A graph prepared for execution: oriented, sliced, measured and
/// priced. Built once per [`PreparedKey`] and shared (via `Arc`) by
/// every backend execution — backends never re-orient or re-slice.
#[derive(Debug)]
pub struct PreparedGraph {
    key: PreparedKey,
    oriented: OrientedGraph,
    matrix: SlicedMatrix,
    stats: SliceStats,
    pricing: PreparedPricing,
    prepare_time: Duration,
    /// Offsets over the matrix's arc list, built on first support-level
    /// use: count-only traffic never pays for them.
    arc_offsets: OnceLock<ArcOffsets>,
    /// Scheduled plans built so far, at most one per array count ×
    /// placement × cost model × per-array residency buffer.
    schedule_plans: PlanMemo<SchedulePlan>,
}

impl PreparedGraph {
    /// Orients, slices and prices `g`; the uncached preparation
    /// primitive behind [`TcimPipeline::prepare`].
    pub(crate) fn build(
        g: &CsrGraph,
        orientation: Orientation,
        slice_size: SliceSize,
        encoding: EncodingPolicy,
        engine: &PimEngine,
    ) -> PreparedGraph {
        let prepare_span = tcim_telemetry::span("prepare");
        let start = Instant::now();
        let key = PreparedKey::for_graph(g, orientation, slice_size, encoding);
        let oriented = orientation.orient(g);
        let slice_span = tcim_telemetry::span("slice");
        let matrix = SlicedMatrix::from_adjacency_with(oriented.rows(), slice_size, encoding)
            .expect("oriented adjacency is always in bounds");
        let stats = matrix.stats();
        drop(slice_span);

        // Price the run from the matrix's kernel census: the
        // visited-pair population is exact (the same index-only merge the
        // controller performs, skipping what the sparse encoding proves
        // zero, under the kernel's own dispatch rule), the busy time
        // optimistic. Taking the census here also readies it for every
        // walk over the artifact.
        let census = matrix.census();
        let idle = matrix.edge_count() as u64 - census.visiting_arcs();
        let pricing = PreparedPricing {
            slice_pairs: census.slice_pairs(),
            kernel_dispatches: census.visiting_arcs()
                + kernel::idle_dispatches(matrix.encoding(), idle),
            blocks_skipped: census.blocks_skipped(),
            est_busy_s: engine
                .cost_model()
                .estimate_busy_s(stats.valid_slices, census.slice_pairs()),
        };

        drop(prepare_span);
        PreparedGraph {
            key,
            oriented,
            matrix,
            stats,
            pricing,
            prepare_time: start.elapsed(),
            arc_offsets: OnceLock::new(),
            schedule_plans: PlanMemo::default(),
        }
    }

    /// The cache key this artifact was built under.
    pub fn key(&self) -> &PreparedKey {
        &self.key
    }

    /// The oriented (DAG) adjacency — what CPU backends execute over.
    pub fn oriented(&self) -> &OrientedGraph {
        &self.oriented
    }

    /// The sliced matrix — what PIM and software backends execute over.
    pub fn matrix(&self) -> &SlicedMatrix {
        &self.matrix
    }

    /// The index of the DAG's arcs in row-major order — the order of
    /// [`OrientedGraph::arcs`] and [`SlicedMatrix::arcs`] alike, and of
    /// [`ExecutionReport::support`](crate::ExecutionReport::support). It
    /// indexes the matrix's own arc list; the offsets over it are built
    /// the first time a support-level run asks, then memoized on the
    /// artifact, and so is the column index the run's tally builds in
    /// them.
    pub fn arc_index(&self) -> ArcIndex<'_> {
        let arcs = self.matrix.arcs();
        let offsets =
            self.arc_offsets.get_or_init(|| ArcOffsets::new(self.matrix.dim(), arcs));
        ArcIndex::new(arcs, offsets)
    }

    /// The scheduled plan for `policy` on `engine` under `costs`, and
    /// whether this call built it: built the first time an array count ×
    /// placement × cost model × per-array residency buffer asks for it,
    /// then memoized on the artifact, so later queries — whatever their
    /// host threads or attribution — only execute it. The plan is
    /// compact ([`SchedulePlan`]): the placement's row jobs are dropped
    /// once it is frozen.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidPolicy`](tcim_sched::SchedError) for
    /// a malformed policy and a slice-size mismatch when the matrix was
    /// sliced for another engine, as [`ScheduledRun::plan_with_costs`]
    /// does, whether or not a plan is memoized.
    pub fn schedule_plan(
        &self,
        engine: &PimEngine,
        policy: &SchedPolicy,
        costs: &SliceCostModel,
    ) -> Result<(Arc<SchedulePlan>, bool)> {
        policy.validate()?;
        self.schedule_plans.get_or_build(
            |plan| plan.is_for(engine, policy, costs),
            || {
                Ok(ScheduledRun::plan_with_costs(engine, &self.matrix, policy, *costs)?
                    .into_plan())
            },
        )
    }

    /// Scheduled plans this artifact has built so far.
    pub fn schedule_plans_built(&self) -> usize {
        self.schedule_plans.len()
    }

    /// Slicing statistics (Table III/IV quantities), measured once at
    /// preparation time.
    pub fn slice_stats(&self) -> SliceStats {
        self.stats
    }

    /// Cost-model pricing of the prepared work.
    pub fn pricing(&self) -> PreparedPricing {
        self.pricing
    }

    /// Host wall-clock time the preparation took.
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
    }

    /// The orientation the graph was prepared with.
    pub fn orientation(&self) -> Orientation {
        self.key.orientation
    }

    /// The slice size the matrix was built with.
    pub fn slice_size(&self) -> SliceSize {
        self.key.slice_size
    }

    /// The row encoding the matrix resolved to under the build policy.
    pub fn encoding(&self) -> RowEncoding {
        self.matrix.encoding()
    }
}

/// The bounded LRU cache of prepared graphs, keyed by [`PreparedKey`].
pub type PreparedCache = ArtifactCache<PreparedKey, PreparedGraph>;

/// The staged counting pipeline: a characterized engine, a prepared-graph
/// cache, and value-selected execution backends.
///
/// # Example
///
/// ```
/// use tcim_core::{Backend, TcimConfig, TcimPipeline};
/// use tcim_graph::generators::classic;
///
/// let pipeline = TcimPipeline::new(&TcimConfig::default())?;
/// let prepared = pipeline.prepare(&classic::wheel(12));
/// // Execute the same prepared artifact on two different backends.
/// let pim = pipeline.execute(&prepared, &Backend::SerialPim)?;
/// let cpu = pipeline.execute(&prepared, &Backend::CpuMerge)?;
/// assert_eq!(pim.triangles, 11);
/// assert_eq!(cpu.triangles, 11);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct TcimPipeline {
    config: TcimConfig,
    engine: PimEngine,
    cache: PreparedCache,
    sharded: ShardedCache,
    metrics: PipelineMetrics,
}

impl Clone for TcimPipeline {
    /// Clones the configuration and characterized engine (no
    /// re-characterization); the clone starts with fresh, empty caches
    /// of the same capacity — prepared artifacts are shared by `Arc`,
    /// not by cloning pipelines — and a fresh metrics registry, so the
    /// clone's counts start from zero.
    fn clone(&self) -> Self {
        TcimPipeline {
            config: self.config.clone(),
            engine: self.engine.clone(),
            cache: PreparedCache::new(self.cache.capacity()),
            sharded: ShardedCache::new(self.sharded.capacity()),
            metrics: PipelineMetrics::new(),
        }
    }
}

impl TcimPipeline {
    /// Default capacity of the prepared-graph cache.
    pub const DEFAULT_CACHE_CAPACITY: usize = 8;

    /// Characterizes the engine for `config` with the default cache
    /// capacity.
    ///
    /// # Errors
    ///
    /// Propagates configuration and characterization failures.
    pub fn new(config: &TcimConfig) -> Result<Self> {
        TcimPipeline::with_cache_capacity(config, TcimPipeline::DEFAULT_CACHE_CAPACITY)
    }

    /// As [`TcimPipeline::new`] with an explicit cache capacity.
    ///
    /// # Errors
    ///
    /// Propagates configuration and characterization failures.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_cache_capacity(config: &TcimConfig, capacity: usize) -> Result<Self> {
        let engine = PimEngine::new(&config.pim)?;
        Ok(TcimPipeline {
            config: config.clone(),
            engine,
            cache: PreparedCache::new(capacity),
            sharded: ShardedCache::new(capacity),
            metrics: PipelineMetrics::new(),
        })
    }

    /// The configuration this pipeline was built from.
    pub fn config(&self) -> &TcimConfig {
        &self.config
    }

    /// The characterized engine shared by the PIM backends.
    pub fn engine(&self) -> &PimEngine {
        &self.engine
    }

    /// The prepared-graph cache (for hit/miss inspection).
    pub fn cache(&self) -> &PreparedCache {
        &self.cache
    }

    /// The sharded-artifact cache (for hit/miss inspection).
    pub fn sharded_cache(&self) -> &ShardedCache {
        &self.sharded
    }

    /// This pipeline's metric instruments (recorded automatically by
    /// the prepare/execute/query entry points).
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// A point-in-time read of this pipeline's metrics, extended with
    /// the prepared- and sharded-cache hit/miss counters.
    pub fn metrics_snapshot(&self) -> tcim_telemetry::MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.push_counter(
            "tcim_prepared_cache_hits_total",
            "prepared-graph cache lookups that found an artifact",
            self.cache.hits(),
        );
        snapshot.push_counter(
            "tcim_prepared_cache_misses_total",
            "prepared-graph cache lookups that missed",
            self.cache.misses(),
        );
        snapshot.push_counter(
            "tcim_sharded_cache_hits_total",
            "sharded-artifact cache lookups that found an artifact",
            self.sharded.hits(),
        );
        snapshot.push_counter(
            "tcim_sharded_cache_misses_total",
            "sharded-artifact cache lookups that missed",
            self.sharded.misses(),
        );
        snapshot
    }

    /// Partitions an already-prepared graph under `spec`, returning
    /// the cached [`ShardedPreparedGraph`] when one exists — repeated
    /// sharded executions re-partition and re-slice nothing. The
    /// artifact is keyed by spec alone: [`Backend::Sharded`] policies
    /// differing only in inner scheduling share it.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedPreparedGraph::build`] failures (invalid
    /// spec, slice-size mismatch).
    pub fn prepare_sharded(
        &self,
        prepared: &PreparedGraph,
        spec: &ShardSpec,
    ) -> Result<Arc<ShardedPreparedGraph>> {
        Ok(sharded::cached_artifact(&self.sharded, prepared, spec, &self.engine)?.0)
    }

    /// Prepares `g` under this pipeline's orientation and slice size,
    /// returning the cached artifact when one exists — repeated calls on
    /// the same graph re-orient and re-slice nothing.
    pub fn prepare(&self, g: &CsrGraph) -> Arc<PreparedGraph> {
        self.prepare_reporting(g).0
    }

    /// As [`TcimPipeline::prepare`], additionally reporting whether the
    /// artifact was served from the cache (`true`) or built by this
    /// call (`false`) — the provenance serving layers record.
    pub fn prepare_reporting(&self, g: &CsrGraph) -> (Arc<PreparedGraph>, bool) {
        let key = PreparedKey::for_graph(
            g,
            self.config.orientation,
            self.config.pim.slice_size,
            self.config.encoding,
        );
        let Ok((prepared, hit)) =
            self.cache.get_or_build(key, || Ok::<_, Infallible>(self.prepare_uncached(g)));
        if !hit {
            self.metrics.record_prepared_build(prepared.encoding());
        }
        (prepared, hit)
    }

    /// Prepares `g` without touching the cache (benchmarking, or callers
    /// managing artifact lifetime themselves).
    pub fn prepare_uncached(&self, g: &CsrGraph) -> PreparedGraph {
        PreparedGraph::build(
            g,
            self.config.orientation,
            self.config.pim.slice_size,
            self.config.encoding,
            &self.engine,
        )
    }

    /// Resolves a backend selection into an executable backend bound to
    /// this pipeline's engine — the one place a [`Backend`] becomes an
    /// [`ExecutionBackend`]. CPU and software backends ignore the
    /// engine; sharded selections also share the pipeline's
    /// [`ShardedCache`], so repeated executions reuse one partitioned
    /// artifact.
    pub fn backend(&self, spec: &Backend) -> Box<dyn ExecutionBackend + '_> {
        let engine = &self.engine;
        match spec {
            Backend::SerialPim => Box::new(SerialPimBackend::new(engine)),
            Backend::ScheduledPim(policy) => {
                Box::new(ScheduledPimBackend::new(engine, policy.clone()))
            }
            Backend::Software(popcount) => Box::new(SoftwareBackend::new(*popcount)),
            Backend::CpuMerge => Box::new(CpuMergeBackend),
            Backend::CpuForward => Box::new(CpuForwardBackend),
            Backend::Sharded(policy) => {
                Box::new(ShardedBackend::new(engine, policy.clone(), &self.sharded))
            }
        }
    }

    /// Executes `spec` over a prepared graph at
    /// [`Attribution::Count`](tcim_arch::Attribution::Count).
    ///
    /// # Errors
    ///
    /// Propagates backend errors (mismatched slice size, invalid
    /// scheduling policy).
    pub fn execute(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
    ) -> Result<ExecutionReport> {
        let report = self.backend(spec).execute(prepared)?;
        self.record(prepared, spec, None, &report, report.modelled_time_s);
        Ok(report)
    }

    /// Answers a typed [`Query`] over a prepared graph on the selected
    /// backend: a coalesced batch of one
    /// ([`TcimPipeline::query_coalesced`]), so a single query and a batch
    /// member take the same path.
    ///
    /// # Errors
    ///
    /// Propagates backend errors, plus
    /// [`CoreError::Query`](crate::CoreError::Query) for invalid query
    /// parameters.
    pub fn query(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
        query: &Query,
    ) -> Result<QueryReport> {
        let mut outcome = self.query_coalesced(prepared, spec, std::slice::from_ref(query))?;
        outcome.reports.pop().expect("a batch of one answers one report")
    }

    /// One-shot convenience: prepare (cached) and execute — the
    /// [`Query::TotalTriangles`] shim kept for existing drivers.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn count(&self, g: &CsrGraph, spec: &Backend) -> Result<ExecutionReport> {
        self.execute(&self.prepare(g), spec)
    }

    /// Records one completed execution of `spec` over `prepared` in this
    /// pipeline's metrics: the report's own accounting, the artifact's
    /// encoding, the cost model's prediction scored against
    /// `scored_modelled_s` and, for typed queries, the query's label.
    pub(crate) fn record(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
        query: Option<&Query>,
        report: &impl Accounted,
        scored_modelled_s: Option<f64>,
    ) {
        let (backend, kernel, execute_time, modelled_time_s) = report.accounting();
        self.metrics.record_execution(&ExecutionSample {
            backend,
            encoding: prepared.encoding(),
            kernel,
            execute_time,
            modelled_time_s,
            predicted_modelled_s: self.predicted_modelled_s(prepared, spec),
            scored_modelled_s,
            query: query.map(Query::label),
        });
    }
}

/// The accounting a pipeline records per execution, read off either
/// report type its entry points return.
pub(crate) trait Accounted {
    /// Backend label, kernel census, host wall and modelled latency.
    fn accounting(&self) -> (&str, &KernelStats, Duration, Option<f64>);
}

impl Accounted for ExecutionReport {
    fn accounting(&self) -> (&str, &KernelStats, Duration, Option<f64>) {
        (&self.backend, &self.kernel, self.execute_time, self.modelled_time_s)
    }
}

impl Accounted for QueryReport {
    fn accounting(&self) -> (&str, &KernelStats, Duration, Option<f64>) {
        (&self.backend, &self.kernel, self.execute_time, self.modelled_time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::generators::{classic, gnm};

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    #[test]
    fn prepare_is_cached_by_graph_identity() {
        let p = pipeline();
        let g = gnm(120, 700, 3).unwrap();
        let a = p.prepare(&g);
        let b = p.prepare(&g);
        assert!(Arc::ptr_eq(&a, &b), "second prepare must return the cached artifact");
        assert_eq!(p.cache().hits(), 1);
        assert_eq!(p.cache().misses(), 1);
        // An equal reconstruction of the graph also hits.
        let g2 =
            CsrGraph::from_edges(g.vertex_count(), g.edges().collect::<Vec<_>>()).unwrap();
        let c = p.prepare(&g2);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinct_graphs_prepare_distinct_artifacts() {
        let p = pipeline();
        let a = p.prepare(&classic::wheel(10));
        let b = p.prepare(&classic::wheel(11));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.key(), b.key());
        assert_eq!(p.cache().len(), 2);
    }

    #[test]
    fn pricing_matches_measured_work() {
        let p = pipeline();
        let g = gnm(200, 1400, 9).unwrap();
        let prepared = p.prepare(&g);
        let run = p.engine().run(prepared.matrix());
        // The priced pair population is exact.
        assert_eq!(prepared.pricing().slice_pairs, run.stats.and_ops);
        assert!(prepared.pricing().est_busy_s > 0.0);
        assert_eq!(prepared.pricing().kernel_dispatches, run.stats.edges);
        assert_eq!(prepared.slice_stats().nnz as usize, g.edge_count());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let p = TcimPipeline::with_cache_capacity(&TcimConfig::default(), 2).unwrap();
        let g1 = classic::wheel(10);
        let g2 = classic::wheel(11);
        let g3 = classic::wheel(12);
        let first = p.prepare(&g1);
        p.prepare(&g2);
        p.prepare(&g1); // refresh g1 → g2 becomes LRU
        p.prepare(&g3); // evicts g2
        assert_eq!(p.cache().len(), 2);
        assert!(Arc::ptr_eq(&first, &p.prepare(&g1)), "g1 must have survived");
        let misses_before = p.cache().misses();
        p.prepare(&g2); // g2 was evicted → rebuild
        assert_eq!(p.cache().misses(), misses_before + 1);
    }

    /// Racing first `prepare`s of one graph agree on one artifact, and
    /// every call that built reports a miss and counts one prepared
    /// build.
    #[test]
    fn racing_prepares_agree_and_count_every_build() {
        let p = pipeline();
        let g = gnm(400, 3000, 17).unwrap();
        let barrier = std::sync::Barrier::new(8);
        let served: Vec<(Arc<PreparedGraph>, bool)> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        p.prepare_reporting(&g)
                    })
                })
                .collect();
            callers.into_iter().map(|caller| caller.join().unwrap()).collect()
        });
        assert!(served.iter().all(|(prepared, _)| Arc::ptr_eq(prepared, &served[0].0)));
        let built = served.iter().filter(|(_, hit)| !hit).count() as u64;
        assert_eq!(built, p.cache().misses(), "every call that built reports a miss");
        let snap = p.metrics_snapshot();
        let misses = snap.counter("tcim_prepared_cache_misses_total");
        assert_eq!(misses, Some(p.cache().misses()), "every build is counted once");
        let encodings = ["dense", "sparse"]
            .map(|e| snap.counter(&format!("tcim_encoding_selected_{e}_total")).unwrap_or(0));
        assert_eq!(encodings.iter().sum::<u64>(), built, "every build records its encoding");
        assert_eq!(p.cache().hits() + p.cache().misses(), 8);
        assert_eq!(p.cache().len(), 1);
    }

    #[test]
    fn schedule_plan_lookup_reuses_the_memoized_plan() {
        use crate::query::Query;
        use tcim_sched::PlacementPolicy;

        let p = pipeline();
        let g = gnm(256, 1800, 5).unwrap();
        let prepared = p.prepare(&g);
        let scheduled = |policy: SchedPolicy| {
            p.execute(&prepared, &Backend::ScheduledPim(policy)).unwrap();
            prepared.schedule_plans_built()
        };
        assert_eq!(prepared.schedule_plans_built(), 0, "preparing plans nothing");
        assert_eq!(scheduled(SchedPolicy::with_arrays(4)), 1);
        assert_eq!(
            scheduled(SchedPolicy::with_arrays(4)),
            1,
            "a repeated policy builds no plan"
        );
        assert_eq!(scheduled(SchedPolicy::with_arrays(8)), 2, "new arrays build exactly one");
        let round_robin = SchedPolicy::with_arrays(8).placement(PlacementPolicy::RoundRobin);
        assert_eq!(scheduled(round_robin.clone()), 3, "a new placement builds exactly one");
        let threads = SchedPolicy { host_threads: Some(1), ..round_robin };
        assert_eq!(scheduled(threads), 3, "host threads alone build no plan");

        // EXPLAIN summarizes the memoized plan and builds none.
        let spec = Backend::ScheduledPim(SchedPolicy::with_arrays(4));
        let plan = p.explain_prepared(&prepared, true, &spec, &Query::TotalTriangles).unwrap();
        assert_eq!(plan.sched.expect("scheduled plans summarize placement").arrays, 4);
        assert_eq!(prepared.schedule_plans_built(), 3, "EXPLAIN plans nothing");

        // Another engine's residency buffer is another key.
        let costs = p.engine().cost_model();
        let policy = SchedPolicy::with_arrays(4);
        let (first, built) = prepared.schedule_plan(p.engine(), &policy, &costs).unwrap();
        assert!(!built);
        for pim in [
            PimConfig { capacity_slices_override: Some(512), ..PimConfig::default() },
            PimConfig { replacement_seed: 99, ..PimConfig::default() },
        ] {
            let other = PimEngine::new(&pim).unwrap();
            let before = prepared.schedule_plans_built();
            let (own, built) = prepared.schedule_plan(&other, &policy, &costs).unwrap();
            assert!(built && !Arc::ptr_eq(&first, &own), "{pim:?}");
            let (again, built) = prepared.schedule_plan(&other, &policy, &costs).unwrap();
            assert!(!built && Arc::ptr_eq(&own, &again));
            assert_eq!(prepared.schedule_plans_built(), before + 1);
        }

        // An invalid policy is rejected even when its key would hit.
        let zero_threads = SchedPolicy { host_threads: Some(0), ..policy.clone() };
        assert!(prepared.schedule_plan(p.engine(), &zero_threads, &costs).is_err());
        let built = prepared.schedule_plans_built();
        let (again, built_now) = prepared.schedule_plan(p.engine(), &policy, &costs).unwrap();
        assert!(!built_now && Arc::ptr_eq(&first, &again));
        assert_eq!(prepared.schedule_plans_built(), built);
    }

    #[test]
    fn a_poisoned_prepared_cache_keeps_answering() {
        let p = TcimPipeline::with_cache_capacity(&TcimConfig::default(), 2).unwrap();
        let first = p.prepare(&classic::wheel(10));
        p.cache().poison();
        assert!(Arc::ptr_eq(&first, &p.prepare(&classic::wheel(10))));
        p.prepare(&classic::wheel(11));
        assert_eq!(p.cache().len(), 2);
        assert_eq!(p.cache().keys_lru_first().len(), 2);
        assert_eq!((p.cache().hits(), p.cache().misses()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_cache_panics() {
        let _ = TcimPipeline::with_cache_capacity(&TcimConfig::default(), 0);
    }
}
