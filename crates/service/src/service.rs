//! The serving facade: concurrent typed queries over many registered
//! graphs, from one engine and one prepared-artifact pool.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use tcim_core::{
    Backend, ExplainReport, KernelStats, PreparedGraph, Query, QueryValue, ShardPolicy,
    ShardProvenance, ShardSpec, TcimConfig, TcimPipeline,
};
use tcim_graph::CsrGraph;
use tcim_stream::{BatchReport, DynamicGraph, EpochSnapshot, StreamConfig, UpdateBatch};
use tcim_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, PhaseBreakdown,
};

use crate::batch::{BatchOptions, BatchProvenance, Group, LiveReadMode};
use crate::error::{Result, ServiceError};
use crate::slow_query::{SlowQueryLog, SlowQueryRecord};
use crate::store::{Graph, GraphInfo, GraphStore, LiveGraph};

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
    /// accounting attached, present for static-graph answers (direct
    /// or coalesced) when [`ServiceConfig::explain_queries`] is set.
    pub explain: Option<ExplainReport>,
    /// Coalescing provenance: which batch answered this request and
    /// how many requests shared its one execution. Present only when
    /// the request went through a coalescing wave
    /// ([`BatchOptions::coalesce`], as the gateway sets it).
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
    pub(crate) metrics: ServiceMetrics,
    pub(crate) slow_queries: SlowQueryLog,
    /// Monotonic batch-id source for coalescing provenance.
    pub(crate) batch_ids: AtomicU64,
}

impl fmt::Debug for TcimService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (static_graphs, live_graphs) = self.store.counts();
        write!(
            f,
            "TcimService(static={static_graphs}, live={live_graphs}, cache={:?})",
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
            store: GraphStore::default(),
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
        let (prepared, hit) = self.pipeline.prepare_reporting(g);
        self.store.insert(name, prepared, hit)
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
        let stream_config =
            StreamConfig { tcim: self.config.tcim.clone(), ..self.config.stream.clone() };
        self.store.insert_live(name, DynamicGraph::new(g, stream_config)?)
    }

    /// Applies an update batch to the live graph bound to `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] for unbound (or static)
    /// names and propagates batch failures.
    pub fn update(&self, name: &str, batch: &UpdateBatch) -> Result<BatchReport> {
        let graph = self.live_graph(name)?;
        let mut dynamic = graph.dynamic();
        let report = dynamic.apply_batch(batch)?;
        if report.folded {
            // The drift policy folded a fresh epoch: publish it for
            // snapshot-isolated readers.
            graph.publish(dynamic.epoch_snapshot());
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
        let graph = self.live_graph(name)?;
        // Publish under the dynamic lock, so a concurrent update's
        // newer epoch can never be overwritten by this older one.
        let mut dynamic = graph.dynamic();
        let snapshot = dynamic.publish()?;
        graph.publish(snapshot.clone());
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
        Ok(self.live_graph(name)?.published())
    }

    /// The live graph bound to `name`, out of the name table: callers
    /// never hold the table lock while working on the graph.
    fn live_graph(&self, name: &str) -> Result<Arc<LiveGraph>> {
        match self.store.get(name, 0) {
            Some(Graph::Live(graph)) => Ok(graph),
            _ => Err(ServiceError::UnknownGraph { name: name.to_string() }),
        }
    }

    /// Evicts the graph bound to `name` (static or live), returning
    /// its final card. A static artifact survives in the
    /// `PreparedCache` until LRU eviction drops it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownGraph`] when nothing is bound.
    pub fn evict(&self, name: &str) -> Result<GraphInfo> {
        self.store
            .remove(name)
            .ok_or_else(|| ServiceError::UnknownGraph { name: name.to_string() })
    }

    /// Every registered graph's card — static and live — sorted by
    /// name.
    pub fn list(&self) -> Vec<GraphInfo> {
        self.store.list()
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
        let requests = std::slice::from_ref(request);
        let group = Group::single(requests, 0);
        let mut answered =
            self.answer_group(requests, &group, LiveReadMode::Maintained, false);
        answered.pop().expect("a group of one has one answer")
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
        let prepared = match self.store.get(&request.graph, 0) {
            Some(Graph::Static(prepared)) => prepared,
            Some(Graph::Live(_)) => {
                return Err(ServiceError::NotPlannable { name: request.graph.clone() })
            }
            None => return Err(ServiceError::UnknownGraph { name: request.graph.clone() }),
        };
        let backend = self.select_backend(request.backend.as_ref(), &prepared);
        Ok(self.pipeline.explain_prepared(&prepared, true, &backend, &request.query)?)
    }

    /// The slow-query flight recorder: drain or snapshot the captured
    /// records (always empty unless
    /// [`ServiceConfig::slow_query_threshold`] is set).
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow_queries
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
    /// This is [`TcimService::serve_with`] without coalescing: every
    /// request is answered as a group of one, exactly as
    /// [`TcimService::query_with`] answers it, and its response carries
    /// no batch provenance.
    pub fn serve(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        self.serve_with(requests, &BatchOptions::default())
    }

    /// Picks the backend a request runs on: its `explicit` selection,
    /// else the default backend, unless the artifact exceeds the
    /// configured per-array slice budget — then sharded execution with
    /// `⌈valid slices / budget⌉` shards (the sharded artifact is built
    /// once and cached in the pipeline's `ShardedCache`).
    pub(crate) fn select_backend(
        &self,
        explicit: Option<&Backend>,
        prepared: &PreparedGraph,
    ) -> Backend {
        if let Some(explicit) = explicit {
            return explicit.clone();
        }
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
        let (static_graphs, live_graphs) = self.store.counts();
        snapshot.push_gauge(
            "tcim_service_static_graphs",
            "static graphs currently registered",
            static_graphs as i64,
        );
        snapshot.push_gauge(
            "tcim_service_live_graphs",
            "live graphs currently registered",
            live_graphs as i64,
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
