//! The serving facade: concurrent typed queries over many registered
//! graphs, from one engine and one prepared-artifact pool.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use tcim_core::query::shape_value;
use tcim_core::{
    Backend, EdgeSupport, ExplainReport, KernelStats, PreparedGraph, Query, QueryValue,
    ShardPolicy, ShardProvenance, ShardSpec, TcimConfig, TcimPipeline,
};
use tcim_graph::CsrGraph;
use tcim_stream::{BatchReport, DynamicGraph, EpochSnapshot, StreamConfig, UpdateBatch};
use tcim_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, PhaseBreakdown,
};

use crate::batch::{BatchOptions, BatchProvenance, LiveReadMode};
use crate::error::{Result, ServiceError};
use crate::slow_query::{SlowQueryLog, SlowQueryRecord};
use crate::store::{GraphInfo, GraphStore};

/// Configuration of a [`TcimService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pipeline configuration (orientation, PIM parameters and the
    /// row-encoding policy) shared by every registered graph, static
    /// and live.
    pub tcim: TcimConfig,
    /// Capacity of the underlying `PreparedCache`.
    pub cache_capacity: usize,
    /// Backend used when a request does not select one.
    pub default_backend: Backend,
    /// Template for live graphs (drift policy, delta fan-out). Its
    /// `tcim` field is overridden by [`ServiceConfig::tcim`] so live
    /// and static graphs always share one engine configuration.
    pub stream: StreamConfig,
    /// Worker threads [`TcimService::serve`] fans requests over
    /// (`None` = available parallelism).
    pub serve_threads: Option<usize>,
    /// Per-array slice budget: when a registered graph's prepared
    /// artifact holds more valid slices than this, requests without an
    /// explicit backend are answered by sharded execution
    /// ([`Backend::Sharded`]) instead of [`ServiceConfig::default_backend`].
    /// `None` disables auto-sharding.
    pub shard_slice_budget: Option<u64>,
    /// Template for auto-selected sharded execution: its composition
    /// mode and inner scheduling policy are used as-is, while the shard
    /// count is computed per graph as `⌈valid slices / budget⌉`
    /// (clamped to at least the template's count).
    pub shard: ShardPolicy,
    /// When set, every query is profiled and its [`QueryResponse`]
    /// carries a per-phase wall-time breakdown
    /// ([`QueryResponse::phases`]). Profiling is scoped to the serving
    /// thread for the duration of one request, so concurrent requests
    /// never observe each other's spans.
    pub profile_queries: bool,
    /// When set, every static-graph response carries the full
    /// [`ExplainReport`] of its execution — the plan assembled before
    /// running, with the measured kernel accounting attached after —
    /// on [`QueryResponse::explain`].
    pub explain_queries: bool,
    /// Wall-time threshold for slow-query capture: requests slower
    /// than this are recorded (with their explain plan and, when
    /// profiling is on, per-phase breakdown) in the service's
    /// [`SlowQueryLog`] and counted by `tcim_slow_queries_total`.
    /// `None` disables capture.
    pub slow_query_threshold: Option<Duration>,
    /// Capacity of the slow-query flight recorder (drop-oldest; 0
    /// counts offenders without retaining records).
    pub slow_query_capacity: usize,
    /// When set, [`TcimService::serve`] coalesces compatible requests
    /// (same graph, same resolved backend) into one attributed
    /// execution each, exactly as the gateway's batch path does.
    /// Off by default: direct `serve` callers keep per-request
    /// execution provenance unless they opt in.
    pub coalesce: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tcim: TcimConfig::default(),
            cache_capacity: TcimPipeline::DEFAULT_CACHE_CAPACITY,
            default_backend: Backend::SerialPim,
            stream: StreamConfig::default(),
            serve_threads: None,
            shard_slice_budget: None,
            shard: ShardPolicy::with_shards(2),
            profile_queries: false,
            explain_queries: false,
            slow_query_threshold: None,
            slow_query_capacity: 32,
            coalesce: false,
        }
    }
}

/// One query addressed to a named graph, with an optional backend
/// override.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The registered graph to answer from.
    pub graph: String,
    /// The question.
    pub query: Query,
    /// Backend override (`None` = the service's default backend).
    /// Ignored by live graphs, which answer from maintained state.
    pub backend: Option<Backend>,
}

impl QueryRequest {
    /// A request for `query` on the graph registered as `graph`, using
    /// the service's default backend.
    pub fn new(graph: impl Into<String>, query: Query) -> Self {
        QueryRequest { graph: graph.into(), query, backend: None }
    }

    /// Selects an explicit backend for this request.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// A served answer with full provenance: which graph (by name and
/// fingerprint) and which backend answered, whether the prepared
/// artifact was served from cache, the modelled hardware cost, and the
/// host wall time.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The graph that answered.
    pub graph: String,
    /// Structural fingerprint of the artifact that answered (for live
    /// graphs: the latest folded epoch snapshot).
    pub fingerprint: u64,
    /// The backend label that answered (`stream-incremental` for live
    /// graphs).
    pub backend: String,
    /// The question, echoed.
    pub query: Query,
    /// The typed answer.
    pub value: QueryValue,
    /// The graph's global triangle count.
    pub triangles: u64,
    /// Whether the answer came from an already-prepared artifact
    /// (true for every query on a registered graph — preparation
    /// happened at registration; false never escapes registration
    /// itself, which reports its hit/miss on
    /// [`GraphInfo::prepared_cache_hit`]).
    pub prepared_cache_hit: bool,
    /// Whether a live (incrementally maintained) graph answered.
    pub live: bool,
    /// Modelled accelerator latency (s), for simulated-hardware
    /// backends.
    pub modelled_time_s: Option<f64>,
    /// Modelled accelerator energy (J), for simulated-hardware
    /// backends.
    pub modelled_energy_j: Option<f64>,
    /// Normalized kernel accounting of the answering run.
    pub kernel: KernelStats,
    /// Compressed bytes of the sliced artifact that answered, under its
    /// resolved row encoding (for live graphs: the live rows).
    pub compressed_bytes: u64,
    /// Shard provenance (shard count, imbalance, boundary arcs) when a
    /// sharded backend answered — whether selected explicitly or by
    /// the service's slice-budget auto-selection.
    pub sharding: Option<ShardProvenance>,
    /// Host wall-clock time spent serving this request.
    pub wall: Duration,
    /// Per-phase wall-time breakdown of this request (`route`,
    /// `execute`, …), present when [`ServiceConfig::profile_queries`]
    /// is set.
    pub phases: Option<PhaseBreakdown>,
    /// The full explain plan of this execution — routing, predicted
    /// kernel census, scheduler/shard summaries — with the measured
    /// accounting attached, present for static-graph answers when
    /// [`ServiceConfig::explain_queries`] is set.
    pub explain: Option<ExplainReport>,
    /// Coalescing provenance: which batch answered this request and
    /// how many requests shared its one execution. Present only when
    /// the request went through a coalescing batch path (the gateway,
    /// or [`TcimService::serve`] with [`ServiceConfig::coalesce`]).
    pub batch: Option<BatchProvenance>,
    /// The fold epoch that answered, for snapshot-isolated reads over
    /// a live graph ([`LiveReadMode::Pinned`]). `None` for static
    /// graphs and for maintained-state live answers.
    pub epoch: Option<u64>,
}

impl fmt::Display for QueryResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:<22} via {:<28} {:>10} triangles  ({:.3} ms, {})",
            self.graph,
            self.query.to_string(),
            self.backend,
            self.triangles,
            self.wall.as_secs_f64() * 1e3,
            if self.live { "live" } else { "prepared" }
        )
    }
}

pub(crate) struct LiveGraph {
    pub(crate) dynamic: Mutex<DynamicGraph>,
    /// The latest published epoch snapshot, refreshed whenever the
    /// dynamic graph folds. Readers clone it out from under the
    /// `RwLock` without ever touching the `dynamic` mutex, so update
    /// batches never block snapshot-isolated reads. Lock order on
    /// writer paths is `dynamic` → `published`; readers take only
    /// `published`.
    pub(crate) published: RwLock<EpochSnapshot>,
    pub(crate) served: AtomicU64,
}

/// Service-level instruments, registered once per service.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) queries: Counter,
    pub(crate) failures: Counter,
    pub(crate) updates: Counter,
    pub(crate) slow: Counter,
    pub(crate) inflight: Gauge,
    pub(crate) wall: Histogram,
    /// Batches the coalescing path answered (singleton groups
    /// included — every group is one batch).
    pub(crate) batches: Counter,
    /// Requests answered through the coalescing path.
    pub(crate) coalesced: Counter,
    /// Attributed executions the coalescing path avoided
    /// (`Σ (batch size − executions run)`).
    pub(crate) executions_saved: Counter,
    /// Distribution of coalesced-batch sizes.
    pub(crate) batch_size: Histogram,
}

impl ServiceMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServiceMetrics {
            queries: registry
                .counter("tcim_service_queries_total", "queries served (including failures)"),
            failures: registry.counter(
                "tcim_service_query_failures_total",
                "queries that returned an error",
            ),
            updates: registry.counter(
                "tcim_service_update_batches_total",
                "update batches applied to live graphs",
            ),
            slow: registry.counter(
                "tcim_slow_queries_total",
                "queries that exceeded the slow-query wall-time threshold",
            ),
            inflight: registry
                .gauge("tcim_service_inflight_queries", "queries currently executing"),
            wall: registry.histogram(
                "tcim_service_query_wall_nanoseconds",
                "host wall-clock time per served query",
            ),
            batches: registry.counter(
                "tcim_service_batches_total",
                "coalesced batches answered (singleton groups included)",
            ),
            coalesced: registry.counter(
                "tcim_service_coalesced_queries_total",
                "queries answered through the coalescing batch path",
            ),
            executions_saved: registry.counter(
                "tcim_service_executions_saved_total",
                "attributed executions avoided by query coalescing",
            ),
            batch_size: registry.histogram(
                "tcim_service_batch_size",
                "requests sharing one coalesced execution, per batch",
            ),
            registry,
        }
    }
}

/// The TCIM serving facade: one characterized engine and one prepared
/// artifact pool behind a named-graph registry, answering typed
/// [`Query`]s — concurrently, across graphs — with per-response
/// provenance.
///
/// Two kinds of graphs are served from one namespace:
///
/// * **static** graphs ([`TcimService::register`]) are prepared once
///   and answered by any [`Backend`] from the shared
///   `Arc<PreparedGraph>`;
/// * **live** graphs ([`TcimService::register_live`]) are
///   `tcim-stream` dynamic graphs whose total *and* per-vertex counts
///   are maintained incrementally under [`TcimService::update`]
///   batches, so queries answer from state without recounting.
///
/// # Example
///
/// ```
/// use tcim_service::{QueryRequest, ServiceConfig, TcimService};
/// use tcim_core::{Backend, Query};
/// use tcim_graph::generators::classic;
///
/// let service = TcimService::new(&ServiceConfig::default())?;
/// service.register("wheel", &classic::wheel(12))?;
/// service.register("k5", &classic::complete(5))?;
///
/// // Concurrent mixed queries across graphs, one artifact each.
/// let responses = service.serve(&[
///     QueryRequest::new("wheel", Query::TotalTriangles),
///     QueryRequest::new("k5", Query::PerVertexTriangles),
///     QueryRequest::new("wheel", Query::TopKVertices { k: 1 }).with_backend(Backend::CpuMerge),
///     QueryRequest::new("k5", Query::GlobalClustering),
/// ]);
/// let responses: Vec<_> = responses.into_iter().collect::<Result<_, _>>()?;
/// assert_eq!(responses[0].triangles, 11);
/// assert_eq!(responses[1].value.per_vertex().unwrap(), &[6, 6, 6, 6, 6]);
/// assert_eq!(responses[2].value.top_k().unwrap()[0].vertex, 0); // the hub
/// assert!(responses.iter().all(|r| r.prepared_cache_hit));
/// # Ok::<(), tcim_service::ServiceError>(())
/// ```
pub struct TcimService {
    pub(crate) config: ServiceConfig,
    pub(crate) pipeline: TcimPipeline,
    pub(crate) store: GraphStore,
    pub(crate) live: RwLock<HashMap<String, Arc<LiveGraph>>>,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) slow_queries: SlowQueryLog,
    /// Monotonic batch-id source for coalescing provenance.
    pub(crate) batch_ids: AtomicU64,
}

impl fmt::Debug for TcimService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TcimService(static={}, live={}, cache={:?})",
            self.store.len(),
            self.live.read().expect("live lock is never poisoned").len(),
            self.pipeline.cache()
        )
    }
}

impl TcimService {
    /// Characterizes the engine and opens an empty registry.
    ///
    /// # Errors
    ///
    /// Propagates engine characterization failures.
    pub fn new(config: &ServiceConfig) -> Result<Self> {
        let pipeline = TcimPipeline::with_cache_capacity(&config.tcim, config.cache_capacity)
            .map_err(ServiceError::Core)?;
        Ok(TcimService {
            config: config.clone(),
            pipeline,
            store: GraphStore::new(),
            live: RwLock::new(HashMap::new()),
            metrics: ServiceMetrics::new(),
            slow_queries: SlowQueryLog::new(config.slow_query_capacity),
            batch_ids: AtomicU64::new(0),
        })
    }

    /// The pipeline serving every static graph (exposes the
    /// `PreparedCache` for hit/miss inspection).
    pub fn pipeline(&self) -> &TcimPipeline {
        &self.pipeline
    }

    /// The static-graph registry.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// The backend answering requests that do not select one.
    pub fn default_backend(&self) -> &Backend {
        &self.config.default_backend
    }

    /// Registers `g` under `name`: prepares it (once — re-registration
    /// and fingerprint-equal graphs hit the `PreparedCache`) and makes
    /// it queryable. Returns the graph's card, whose
    /// `prepared_cache_hit` records whether preparation was served
    /// from cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NameInUse`] when `name` is bound to a
    /// live graph.
    pub fn register(&self, name: &str, g: &CsrGraph) -> Result<GraphInfo> {
        // Hold the live-registry lock across the whole registration.
        // Both registration paths acquire `live` before touching the
        // store, so a concurrent `register_live` can never slip the
        // same name in between this check and the store insert.
        let live = self.live.read().expect("live lock is never poisoned");
        if live.contains_key(name) {
            return Err(ServiceError::NameInUse { name: name.to_string() });
        }
        let (prepared, hit) = self.pipeline.prepare_reporting(g);
        Ok(self.store.insert(name, prepared, hit))
    }

    /// Registers `g` under `name` as a *live* graph: a dynamic graph
    /// whose total and per-vertex triangle counts are maintained
    /// incrementally under [`TcimService::update`] batches.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NameInUse`] when `name` is already
    /// bound, and propagates dynamic-graph construction failures.
    pub fn register_live(&self, name: &str, g: &CsrGraph) -> Result<GraphInfo> {
        // Build the dynamic state before locking anything (slow), then
        // check *both* namespaces under the live write lock: `register`
        // holds the live lock while it inserts into the store, so this
        // store check cannot race it (lock order is live → store on
        // every path).
        let stream_config =
            StreamConfig { tcim: self.config.tcim.clone(), ..self.config.stream.clone() };
        let dynamic = DynamicGraph::new(g, stream_config)?;
        let mut live = self.live.write().expect("live lock is never poisoned");
        if live.contains_key(name) || self.store.contains(name) {
            return Err(ServiceError::NameInUse { name: name.to_string() });
        }
        let info = live_info(name, &dynamic, 0);
        let published = RwLock::new(dynamic.epoch_snapshot());
        live.insert(
            name.to_string(),
            Arc::new(LiveGraph {
                dynamic: Mutex::new(dynamic),
                published,
                served: AtomicU64::new(0),
            }),
        );
        Ok(info)
    }

    /// Applies an update batch to the live graph bound to `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound (or static)
    /// names and propagates batch failures.
    pub fn update(&self, name: &str, batch: &UpdateBatch) -> Result<BatchReport> {
        let graph = self
            .live_graph(name)
            .ok_or_else(|| ServiceError::UnknownGraph { name: name.to_string() })?;
        let mut dynamic = graph.dynamic.lock().expect("live graph lock is never poisoned");
        let report = dynamic.apply_batch(batch)?;
        if report.folded {
            // The drift policy folded a fresh epoch: publish it for
            // snapshot-isolated readers. Lock order dynamic → published
            // (readers only ever take `published`, so no cycle).
            *graph.published.write().expect("published lock is never poisoned") =
                dynamic.epoch_snapshot();
        }
        self.metrics.updates.incr();
        Ok(report)
    }

    /// Forces the live graph bound to `name` to fold and publish its
    /// current state as the next epoch, returning the fresh snapshot.
    /// A no-op (returning the current snapshot) when no update has been
    /// applied since the last fold. Concurrent snapshot-isolated
    /// readers are never blocked: they keep answering from the
    /// previously published epoch until the atomic swap.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound (or static)
    /// names and propagates fold failures.
    pub fn publish(&self, name: &str) -> Result<EpochSnapshot> {
        let graph = self
            .live_graph(name)
            .ok_or_else(|| ServiceError::UnknownGraph { name: name.to_string() })?;
        let mut dynamic = graph.dynamic.lock().expect("live graph lock is never poisoned");
        let snapshot = dynamic.publish()?;
        *graph.published.write().expect("published lock is never poisoned") = snapshot.clone();
        Ok(snapshot)
    }

    /// The latest *published* epoch snapshot of the live graph bound to
    /// `name` — what snapshot-isolated reads answer from. Never touches
    /// the dynamic state's mutex, so it cannot be blocked by an
    /// in-flight update batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound (or static)
    /// names.
    pub fn pinned_snapshot(&self, name: &str) -> Result<EpochSnapshot> {
        let graph = self
            .live_graph(name)
            .ok_or_else(|| ServiceError::UnknownGraph { name: name.to_string() })?;
        let snapshot =
            graph.published.read().expect("published lock is never poisoned").clone();
        Ok(snapshot)
    }

    /// Evicts the graph bound to `name` (static or live), returning
    /// its final card. A static artifact survives in the
    /// `PreparedCache` until LRU eviction drops it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] when nothing is bound.
    pub fn evict(&self, name: &str) -> Result<GraphInfo> {
        if let Some(info) = self.store.remove(name) {
            return Ok(info);
        }
        let mut live = self.live.write().expect("live lock is never poisoned");
        match live.remove(name) {
            Some(graph) => {
                let dynamic = graph.dynamic.lock().expect("live graph lock is never poisoned");
                Ok(live_info(name, &dynamic, graph.served.load(Ordering::Relaxed)))
            }
            None => Err(ServiceError::UnknownGraph { name: name.to_string() }),
        }
    }

    /// Every registered graph's card — static and live — sorted by
    /// name.
    pub fn list(&self) -> Vec<GraphInfo> {
        let mut infos = self.store.list();
        let snapshot: Vec<(String, Arc<LiveGraph>)> = {
            let live = self.live.read().expect("live lock is never poisoned");
            live.iter().map(|(name, graph)| (name.clone(), Arc::clone(graph))).collect()
        };
        for (name, graph) in snapshot {
            let dynamic = graph.dynamic.lock().expect("live graph lock is never poisoned");
            infos.push(live_info(&name, &dynamic, graph.served.load(Ordering::Relaxed)));
        }
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Answers one query on the graph bound to `graph`, with the
    /// default backend.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound names and
    /// propagates backend/query failures.
    pub fn query(&self, graph: &str, query: &Query) -> Result<QueryResponse> {
        self.query_with(&QueryRequest::new(graph, query.clone()))
    }

    /// Answers one request (graph + query + optional backend
    /// override).
    ///
    /// # Errors
    ///
    /// As [`TcimService::query`].
    pub fn query_with(&self, request: &QueryRequest) -> Result<QueryResponse> {
        self.query_with_mode(request, LiveReadMode::Maintained)
    }

    /// The metrics-instrumented single-request path shared by direct
    /// queries and singleton batch groups: the in-flight gauge is held
    /// by an RAII guard, so `?` propagation (or a panicking backend)
    /// can never leak it.
    pub(crate) fn query_with_mode(
        &self,
        request: &QueryRequest,
        mode: LiveReadMode,
    ) -> Result<QueryResponse> {
        let _inflight = self.metrics.inflight.track();
        let start = Instant::now();
        let (result, profiled) = if self.config.profile_queries {
            tcim_telemetry::profile("query", || self.answer(request, mode))
        } else {
            (self.answer(request, mode), None)
        };
        self.metrics.queries.incr();
        self.metrics.wall.observe_duration(start.elapsed());
        if result.is_err() {
            self.metrics.failures.incr();
        }
        let mut response = result?;
        response.phases = profiled.map(|report| report.breakdown());
        self.capture_slow(&response);
        // The plan was assembled for the slow-query record even when
        // responses are not asked to carry it; strip it here so the
        // response surface follows `explain_queries` exactly.
        if !self.config.explain_queries {
            response.explain = None;
        }
        Ok(response)
    }

    /// Records `response` in the slow-query flight recorder when it
    /// breached the configured threshold.
    pub(crate) fn capture_slow(&self, response: &QueryResponse) {
        if let Some(threshold) = self.config.slow_query_threshold {
            if response.wall >= threshold {
                self.metrics.slow.incr();
                self.slow_queries.record(SlowQueryRecord {
                    graph: response.graph.clone(),
                    backend: response.backend.clone(),
                    query: response.query.clone(),
                    wall: response.wall,
                    threshold,
                    triangles: response.triangles,
                    explain: response.explain.clone(),
                    phases: response.phases.clone(),
                });
            }
        }
    }

    /// Plans one query on the graph bound to `graph` — backend
    /// auto-selection included — without executing anything.
    ///
    /// # Errors
    ///
    /// As [`TcimService::explain_with`].
    pub fn explain(&self, graph: &str, query: &Query) -> Result<ExplainReport> {
        self.explain_with(&QueryRequest::new(graph, query.clone()))
    }

    /// Plans one request without executing it: resolves the graph,
    /// runs the *same* backend selection a real request would get
    /// (explicit override, else the default backend or slice-budget
    /// auto-sharding), and assembles the [`ExplainReport`] from the
    /// artifacts a subsequent execution will consume.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound names,
    /// [`ServiceError::NotPlannable`] for live graphs (they answer
    /// from maintained state, not a planned execution), and propagates
    /// planning failures.
    pub fn explain_with(&self, request: &QueryRequest) -> Result<ExplainReport> {
        let Some(prepared) = self.store.get(&request.graph) else {
            return Err(if self.live_graph(&request.graph).is_some() {
                ServiceError::NotPlannable { name: request.graph.clone() }
            } else {
                ServiceError::UnknownGraph { name: request.graph.clone() }
            });
        };
        let backend = match &request.backend {
            Some(explicit) => explicit.clone(),
            None => self.select_backend(&prepared),
        };
        Ok(self.pipeline.explain_prepared(&prepared, true, &backend, &request.query)?)
    }

    /// The slow-query flight recorder: drain or snapshot the captured
    /// records (always empty unless
    /// [`ServiceConfig::slow_query_threshold`] is set).
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow_queries
    }

    /// Routes the request to the answering graph and executes it
    /// (the profiled body of [`TcimService::query_with`]).
    fn answer(&self, request: &QueryRequest, mode: LiveReadMode) -> Result<QueryResponse> {
        let start = Instant::now();
        let route_span = tcim_telemetry::span("route");
        if let Some(prepared) = self.store.get(&request.graph) {
            let backend = match &request.backend {
                Some(explicit) => explicit.clone(),
                None => self.select_backend(&prepared),
            };
            drop(route_span);
            return self.answer_static(request, &prepared, backend, start);
        }
        match self.live_graph(&request.graph) {
            Some(graph) => {
                graph.served.fetch_add(1, Ordering::Relaxed);
                match mode {
                    LiveReadMode::Maintained => {
                        let dynamic =
                            graph.dynamic.lock().expect("live graph lock is never poisoned");
                        drop(route_span);
                        let _execute = tcim_telemetry::span("execute");
                        answer_live(&request.graph, &dynamic, &request.query, start)
                    }
                    LiveReadMode::Pinned => {
                        let snapshot = graph
                            .published
                            .read()
                            .expect("published lock is never poisoned")
                            .clone();
                        drop(route_span);
                        let _execute = tcim_telemetry::span("execute");
                        self.answer_pinned(request, &snapshot, start)
                    }
                }
            }
            None => Err(ServiceError::UnknownGraph { name: request.graph.clone() }),
        }
    }

    /// Answers one request from an epoch-pinned snapshot: the published
    /// prepared artifact is queried exactly like a static graph (same
    /// backend selection), so the response reflects the pinned epoch's
    /// state no matter how far the live state has moved on.
    fn answer_pinned(
        &self,
        request: &QueryRequest,
        snapshot: &EpochSnapshot,
        start: Instant,
    ) -> Result<QueryResponse> {
        let backend = match &request.backend {
            Some(explicit) => explicit.clone(),
            None => self.select_backend(&snapshot.prepared),
        };
        let report = self.pipeline.query(&snapshot.prepared, &backend, &request.query)?;
        Ok(QueryResponse {
            graph: request.graph.clone(),
            fingerprint: snapshot.prepared.key().fingerprint,
            backend: report.backend,
            query: report.query,
            value: report.value,
            triangles: report.triangles,
            prepared_cache_hit: true,
            live: true,
            modelled_time_s: report.modelled_time_s,
            modelled_energy_j: report.modelled_energy_j,
            kernel: report.kernel,
            compressed_bytes: report.compressed_bytes,
            sharding: report.sharding,
            wall: start.elapsed(),
            phases: None,
            explain: None,
            batch: None,
            epoch: Some(snapshot.epoch),
        })
    }

    /// Clones the live graph bound to `name` out of the registry, so
    /// callers never hold the registry lock while executing against the
    /// graph (the registry lock guards only the name table; each live
    /// graph serializes behind its own mutex).
    pub(crate) fn live_graph(&self, name: &str) -> Option<Arc<LiveGraph>> {
        self.live.read().expect("live lock is never poisoned").get(name).cloned()
    }

    /// The worker-thread count batch paths fan over.
    pub(crate) fn serve_threads(&self) -> usize {
        self.config.serve_threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
        })
    }

    /// Serves a batch of requests concurrently over scoped worker
    /// threads, returning per-request outcomes in submission order.
    /// Requests may mix graphs, query shapes and backends freely; all
    /// of them answer from already-prepared artifacts (nothing is
    /// re-oriented or re-sliced at serve time).
    ///
    /// This is a thin compatibility shim over the shared batch path
    /// ([`TcimService::serve_with`]) — the same code the gateway's
    /// dispatcher drains its admission queue into. By default requests
    /// keep per-request execution provenance; set
    /// [`ServiceConfig::coalesce`] to let compatible requests share one
    /// attributed execution each.
    pub fn serve(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        self.serve_with(
            requests,
            &BatchOptions { coalesce: self.config.coalesce, live: LiveReadMode::Maintained },
        )
    }

    fn answer_static(
        &self,
        request: &QueryRequest,
        prepared: &Arc<PreparedGraph>,
        backend: Backend,
        start: Instant,
    ) -> Result<QueryResponse> {
        // Plan before executing when anything downstream wants the
        // explain — the response itself or a potential slow-query
        // record. The plan reads the same cached artifacts the
        // execution consumes, so nothing is re-prepared.
        let mut plan = if self.config.explain_queries
            || self.config.slow_query_threshold.is_some()
        {
            let _explain = tcim_telemetry::span("explain");
            Some(self.pipeline.explain_prepared(prepared, true, &backend, &request.query)?)
        } else {
            None
        };
        let execute_span = tcim_telemetry::span("execute");
        let report = self.pipeline.query(prepared, &backend, &request.query)?;
        drop(execute_span);
        if let Some(plan) = plan.as_mut() {
            plan.attach_measured(&report);
        }
        Ok(QueryResponse {
            graph: request.graph.clone(),
            fingerprint: prepared.key().fingerprint,
            backend: report.backend,
            query: report.query,
            value: report.value,
            triangles: report.triangles,
            prepared_cache_hit: true,
            live: false,
            modelled_time_s: report.modelled_time_s,
            modelled_energy_j: report.modelled_energy_j,
            kernel: report.kernel,
            compressed_bytes: report.compressed_bytes,
            sharding: report.sharding,
            wall: start.elapsed(),
            phases: None,
            explain: plan,
            batch: None,
            epoch: None,
        })
    }

    /// Picks the backend for a request with no explicit selection:
    /// the default backend, unless the artifact exceeds the configured
    /// per-array slice budget — then sharded execution with
    /// `⌈valid slices / budget⌉` shards (the sharded artifact is built
    /// once and cached in the pipeline's `ShardedCache`).
    pub(crate) fn select_backend(&self, prepared: &PreparedGraph) -> Backend {
        let Some(budget) = self.config.shard_slice_budget else {
            return self.config.default_backend.clone();
        };
        let valid = prepared.slice_stats().valid_slices;
        if budget == 0 || valid <= budget {
            return self.config.default_backend.clone();
        }
        let shards = (valid.div_ceil(budget) as usize).max(self.config.shard.spec.shards);
        Backend::Sharded(ShardPolicy {
            spec: ShardSpec { shards, ..self.config.shard.spec },
            inner: self.config.shard.inner.clone(),
        })
    }

    /// A point-in-time read of every metric this service can see:
    /// service-level request instruments, the pipeline's execution
    /// instruments and cache counters, and registry-size gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.registry.snapshot();
        snapshot.samples.extend(self.pipeline.metrics_snapshot().samples);
        snapshot.push_gauge(
            "tcim_service_static_graphs",
            "static graphs currently registered",
            self.store.len() as i64,
        );
        snapshot.push_gauge(
            "tcim_service_live_graphs",
            "live graphs currently registered",
            self.live.read().expect("live lock is never poisoned").len() as i64,
        );
        snapshot.push_gauge(
            "tcim_slow_query_log_retained",
            "slow-query records currently retained in the flight recorder",
            self.slow_queries.len() as i64,
        );
        let flight = tcim_telemetry::flight_recorder_stats();
        snapshot.push_counter(
            "tcim_spans_dropped_total",
            "spans evicted from the span flight recorder by capacity pressure",
            flight.dropped,
        );
        snapshot.push_gauge(
            "tcim_flight_recorder_capacity",
            "configured span flight-recorder capacity (0 = disabled)",
            flight.capacity as i64,
        );
        snapshot.push_gauge(
            "tcim_flight_recorder_retained_spans",
            "spans currently retained by the span flight recorder",
            flight.retained as i64,
        );
        snapshot
    }

    /// [`TcimService::metrics_snapshot`] rendered in the Prometheus
    /// text exposition format, ready to serve from a `/metrics`
    /// endpoint.
    pub fn render_prometheus(&self) -> String {
        tcim_telemetry::render_prometheus(&self.metrics_snapshot())
    }
}

/// The card of a live graph (the fingerprint is the latest epoch
/// snapshot's).
fn live_info(name: &str, dynamic: &DynamicGraph, queries_served: u64) -> GraphInfo {
    GraphInfo {
        name: name.to_string(),
        fingerprint: dynamic.prepared().key().fingerprint,
        vertices: dynamic.vertex_count(),
        edges: dynamic.edge_count(),
        prepared_cache_hit: false,
        queries_served,
        live: true,
    }
}

/// Answers a query from a live graph's incrementally maintained state:
/// total and per-vertex counts are read directly, clustering derives
/// from them plus live degrees, and edge support runs one delta kernel
/// per live edge — never a re-slice.
fn answer_live(
    name: &str,
    dynamic: &DynamicGraph,
    query: &Query,
    start: Instant,
) -> Result<QueryResponse> {
    // Motif queries run their own kernel rounds over the live rows
    // (peeling for trusses, chained ANDs for cliques) instead of
    // reshaping the maintained counters — still never a re-slice.
    if query.is_motif() {
        let (value, kernel) = match *query {
            Query::KTruss { k } => dynamic.trussness(k),
            _ => dynamic.four_cliques(),
        };
        return Ok(QueryResponse {
            graph: name.to_string(),
            fingerprint: dynamic.prepared().key().fingerprint,
            backend: "stream-incremental".to_string(),
            query: query.clone(),
            value,
            triangles: dynamic.triangles(),
            prepared_cache_hit: true,
            live: true,
            modelled_time_s: None,
            modelled_energy_j: None,
            kernel,
            compressed_bytes: dynamic.compressed_bytes(),
            sharding: None,
            wall: start.elapsed(),
            phases: None,
            explain: None,
            batch: None,
            epoch: None,
        });
    }
    let n = dynamic.vertex_count();
    let degrees: Vec<u64> = match query {
        Query::LocalClustering { .. } | Query::GlobalClustering => {
            (0..n as u32).map(|v| dynamic.neighbors(v).len() as u64).collect()
        }
        _ => Vec::new(),
    };
    let (edge_support, kernel) = if matches!(query, Query::EdgeSupport) {
        let (entries, slice_pairs, blocks_skipped) = dynamic.edge_support();
        let support: Vec<EdgeSupport> =
            entries.into_iter().map(|(u, v, support)| EdgeSupport { u, v, support }).collect();
        let kernel = KernelStats {
            kernel_invocations: support.len() as u64,
            slice_pairs,
            result_readouts: 0,
            blocks_skipped,
        };
        (Some(support), kernel)
    } else {
        (None, KernelStats::default())
    };
    let value =
        shape_value(query, dynamic.triangles(), dynamic.per_vertex(), &degrees, edge_support)?;
    Ok(QueryResponse {
        graph: name.to_string(),
        fingerprint: dynamic.prepared().key().fingerprint,
        backend: "stream-incremental".to_string(),
        query: query.clone(),
        value,
        triangles: dynamic.triangles(),
        prepared_cache_hit: true,
        live: true,
        modelled_time_s: None,
        modelled_energy_j: None,
        kernel,
        compressed_bytes: dynamic.compressed_bytes(),
        sharding: None,
        wall: start.elapsed(),
        phases: None,
        explain: None,
        batch: None,
        epoch: None,
    })
}
