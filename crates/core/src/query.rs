//! The typed query layer: one prepared graph, many question shapes.
//!
//! TCIM's row kernel computes `|N(u) ∩ N(v)|` per processed edge, so
//! per-vertex triangle counts, clustering coefficients and per-edge
//! triangle support are attributable for free at the kernel level —
//! the follow-up journal version of the paper treats triangle counting
//! as exactly this family of queries served from one in-memory layout.
//! This module gives that family a type: a [`Query`] selects the
//! question, every [`ExecutionBackend`](crate::ExecutionBackend)
//! answers it against a [`PreparedGraph`]
//! (without re-orienting or re-slicing), and the answer comes back as
//! a [`QueryReport`] carrying a [`QueryValue`] plus normalized kernel
//! accounting ([`KernelStats`]).
//!
//! # Example
//!
//! ```
//! use tcim_core::{Backend, Query, QueryValue, TcimConfig, TcimPipeline};
//! use tcim_graph::generators::classic;
//!
//! let pipeline = TcimPipeline::new(&TcimConfig::default())?;
//! let prepared = pipeline.prepare(&classic::fig2_example());
//!
//! // One artifact answers every query shape, on any backend.
//! let total = pipeline.query(&prepared, &Backend::SerialPim, &Query::TotalTriangles)?;
//! assert_eq!(total.triangles, 2);
//!
//! let local = pipeline.query(&prepared, &Backend::CpuMerge, &Query::PerVertexTriangles)?;
//! let QueryValue::PerVertex(counts) = local.value else { unreachable!() };
//! assert_eq!(counts, vec![1, 2, 2, 1]); // Fig. 2: triangles 0-1-2, 1-2-3
//! # Ok::<(), tcim_core::CoreError>(())
//! ```

use std::fmt;
use std::time::Duration;

use tcim_arch::Attribution;

use crate::backend::ExecutionReport;
use crate::error::{CoreError, Result};
use crate::pipeline::PreparedGraph;

/// A typed triangle query, answered by any backend from one prepared
/// graph. Vertex ids always refer to the *input* graph's ids — the
/// orientation's relabelling is undone inside the execution layer.
///
/// # Examples
///
/// ```
/// use tcim_core::{Backend, Query, TcimConfig, TcimPipeline};
/// use tcim_graph::generators::classic;
///
/// let pipeline = TcimPipeline::new(&TcimConfig::default())?;
/// let prepared = pipeline.prepare(&classic::wheel(12));
///
/// // The cheap shape runs without AND-result readouts…
/// let total = pipeline.query(&prepared, &Backend::SerialPim, &Query::TotalTriangles)?;
/// assert_eq!((total.triangles, total.kernel.result_readouts), (11, 0));
///
/// // …attributed shapes read each surviving AND result back out.
/// let ranked =
///     pipeline.query(&prepared, &Backend::SerialPim, &Query::TopKVertices { k: 1 })?;
/// assert_eq!(ranked.value.top_k().unwrap()[0].vertex, 0); // the hub
/// assert!(ranked.kernel.result_readouts > 0);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Query {
    /// The global triangle count `TC(G)`.
    TotalTriangles,
    /// Triangles each vertex participates in (sums to `3 × TC(G)`).
    PerVertexTriangles,
    /// Local clustering coefficients `tri(v) / C(deg(v), 2)` for the
    /// selected vertices (`None` = every vertex).
    LocalClustering {
        /// The vertices to report, or `None` for all of them.
        vertices: Option<Vec<u32>>,
    },
    /// Global transitivity `3·TC(G) / wedges` (plus its ingredients).
    GlobalClustering,
    /// Per-edge triangle support `|N(u) ∩ N(v)|` for every edge — the
    /// quantity k-truss decompositions are built on.
    EdgeSupport,
    /// The `k` vertices participating in the most triangles,
    /// descending (ties broken by ascending vertex id).
    TopKVertices {
        /// How many vertices to return.
        k: usize,
    },
    /// The maximal k-truss edge set plus per-edge trussness, computed
    /// by iterated support peeling over the same AND+BitCount kernels
    /// (one deletion-delta kernel per peeled edge, never a re-slice).
    KTruss {
        /// The truss level: members must close at least `k − 2`
        /// triangles inside the truss. Levels below 3 return every
        /// edge (the 2-truss is the whole graph).
        k: u32,
    },
    /// Total and per-vertex 4-clique counts, computed by chaining a
    /// second AND over each triangle's witness row.
    FourCliques,
}

impl Query {
    /// Stable label of the query shape (used in service provenance).
    pub fn label(&self) -> &'static str {
        match self {
            Query::TotalTriangles => "total-triangles",
            Query::PerVertexTriangles => "per-vertex-triangles",
            Query::LocalClustering { .. } => "local-clustering",
            Query::GlobalClustering => "global-clustering",
            Query::EdgeSupport => "edge-support",
            Query::TopKVertices { .. } => "top-k-vertices",
            Query::KTruss { .. } => "k-truss",
            Query::FourCliques => "four-cliques",
        }
    }

    /// The [`Attribution`] level an execution must run at to answer this
    /// query — for motif queries, the level of the run they anchor on.
    /// Above [`Attribution::Count`] the PIM backends read AND results
    /// back out.
    pub fn attribution(&self) -> Attribution {
        match self {
            Query::TotalTriangles | Query::GlobalClustering => Attribution::Count,
            Query::PerVertexTriangles
            | Query::LocalClustering { .. }
            | Query::TopKVertices { .. }
            | Query::FourCliques => Attribution::PerVertex,
            Query::EdgeSupport | Query::KTruss { .. } => Attribution::PerVertexWithSupport,
        }
    }

    /// One representative of every *triangle-quantity* query shape —
    /// the shapes a single attributed carrier execution can answer.
    /// Test grids iterate this; the motif shapes ([`Query::KTruss`],
    /// [`Query::FourCliques`]) are not in it.
    pub fn example_suite() -> Vec<Query> {
        vec![
            Query::TotalTriangles,
            Query::PerVertexTriangles,
            Query::LocalClustering { vertices: None },
            Query::GlobalClustering,
            Query::EdgeSupport,
            Query::TopKVertices { k: 5 },
        ]
    }

    /// Whether this query is answered by the motif engine (iterated
    /// peeling / chained AND) rather than shaped from the triangle
    /// quantities of a single attributed execution.
    pub fn is_motif(&self) -> bool {
        matches!(self, Query::KTruss { .. } | Query::FourCliques)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::LocalClustering { vertices: Some(v) } => {
                write!(f, "local-clustering[{} vertices]", v.len())
            }
            Query::TopKVertices { k } => write!(f, "top-{k}-vertices"),
            Query::KTruss { k } => write!(f, "{k}-truss"),
            _ => f.write_str(self.label()),
        }
    }
}

/// One vertex's clustering entry in a [`QueryValue::LocalClustering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexClustering {
    /// The vertex (input-graph id).
    pub vertex: u32,
    /// Triangles the vertex participates in.
    pub triangles: u64,
    /// Degree in the undirected input graph.
    pub degree: u64,
    /// `triangles / C(degree, 2)`; 0 for degree ≤ 1.
    pub coefficient: f64,
}

/// One edge's entry in a [`QueryValue::EdgeSupport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSupport {
    /// Smaller endpoint (input-graph id).
    pub u: u32,
    /// Larger endpoint (input-graph id).
    pub v: u32,
    /// Triangles containing the edge `{u, v}`.
    pub support: u64,
}

/// One edge's entry in a [`QueryValue::KTruss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTruss {
    /// Smaller endpoint (input-graph id).
    pub u: u32,
    /// Larger endpoint (input-graph id).
    pub v: u32,
    /// The largest `k` such that the edge belongs to the k-truss
    /// (2 for edges in no triangle).
    pub trussness: u32,
}

/// One vertex's entry in a [`QueryValue::TopK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexTriangles {
    /// The vertex (input-graph id).
    pub vertex: u32,
    /// Triangles the vertex participates in.
    pub triangles: u64,
}

/// The typed answer of a [`Query`], one variant per query shape.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryValue {
    /// Answer to [`Query::TotalTriangles`].
    Total(u64),
    /// Answer to [`Query::PerVertexTriangles`], indexed by input-graph
    /// vertex id.
    PerVertex(Vec<u64>),
    /// Answer to [`Query::LocalClustering`], in requested order (or
    /// ascending vertex id when all vertices were requested).
    LocalClustering(Vec<VertexClustering>),
    /// Answer to [`Query::GlobalClustering`].
    ///
    /// # Example
    ///
    /// ```
    /// use tcim_core::{Backend, Query, QueryValue, TcimConfig, TcimPipeline};
    /// use tcim_graph::generators::classic;
    ///
    /// // Every wedge of a complete graph closes.
    /// let pipeline = TcimPipeline::new(&TcimConfig::default())?;
    /// let k5 = pipeline.prepare(&classic::complete(5));
    /// let report = pipeline.query(&k5, &Backend::CpuForward, &Query::GlobalClustering)?;
    /// let QueryValue::GlobalClustering { transitivity, .. } = report.value else {
    ///     unreachable!()
    /// };
    /// assert!((transitivity - 1.0).abs() < 1e-12);
    /// # Ok::<(), tcim_core::CoreError>(())
    /// ```
    GlobalClustering {
        /// The global triangle count.
        triangles: u64,
        /// Wedges (paths of length two): `Σ_v C(deg(v), 2)`.
        wedges: u64,
        /// `3·triangles / wedges` (0 for wedge-free graphs).
        transitivity: f64,
    },
    /// Answer to [`Query::EdgeSupport`], every edge once, ascending
    /// `(u, v)`.
    EdgeSupport(Vec<EdgeSupport>),
    /// Answer to [`Query::TopKVertices`], descending triangle count,
    /// ties broken by ascending **input** vertex id — deterministic
    /// and backend-independent even when every vertex ties (regular
    /// graphs), because ranking always runs over the input-id
    /// `per_vertex` array, never the oriented ordering.
    TopK(Vec<VertexTriangles>),
    /// Answer to [`Query::KTruss`]: the full trussness decomposition
    /// (every edge once, ascending `(u, v)`), with the queried level
    /// carried so members can be filtered without re-peeling.
    KTruss {
        /// The queried truss level.
        k: u32,
        /// Every edge's trussness, ascending `(u, v)`.
        edges: Vec<EdgeTruss>,
    },
    /// Answer to [`Query::FourCliques`].
    FourCliques {
        /// Total 4-cliques in the graph.
        total: u64,
        /// 4-cliques through each vertex, indexed by input-graph id
        /// (sums to `4 × total`).
        per_vertex: Vec<u64>,
    },
}

impl QueryValue {
    /// The total count, when this is a [`QueryValue::Total`].
    pub fn total(&self) -> Option<u64> {
        match self {
            QueryValue::Total(t) => Some(*t),
            _ => None,
        }
    }

    /// The per-vertex counts, when this is a [`QueryValue::PerVertex`].
    pub fn per_vertex(&self) -> Option<&[u64]> {
        match self {
            QueryValue::PerVertex(v) => Some(v),
            _ => None,
        }
    }

    /// The clustering entries, when this is a
    /// [`QueryValue::LocalClustering`].
    pub fn local_clustering(&self) -> Option<&[VertexClustering]> {
        match self {
            QueryValue::LocalClustering(v) => Some(v),
            _ => None,
        }
    }

    /// The edge-support entries, when this is a
    /// [`QueryValue::EdgeSupport`].
    pub fn edge_support(&self) -> Option<&[EdgeSupport]> {
        match self {
            QueryValue::EdgeSupport(v) => Some(v),
            _ => None,
        }
    }

    /// The ranked vertices, when this is a [`QueryValue::TopK`].
    pub fn top_k(&self) -> Option<&[VertexTriangles]> {
        match self {
            QueryValue::TopK(v) => Some(v),
            _ => None,
        }
    }

    /// The full trussness decomposition, when this is a
    /// [`QueryValue::KTruss`].
    pub fn trussness(&self) -> Option<&[EdgeTruss]> {
        match self {
            QueryValue::KTruss { edges, .. } => Some(edges),
            _ => None,
        }
    }

    /// The maximal k-truss members at the queried level — edges with
    /// trussness at least `k` — when this is a [`QueryValue::KTruss`].
    pub fn truss_members(&self) -> Option<Vec<(u32, u32)>> {
        match self {
            QueryValue::KTruss { k, edges } => {
                Some(edges.iter().filter(|e| e.trussness >= *k).map(|e| (e.u, e.v)).collect())
            }
            _ => None,
        }
    }

    /// The `(total, per_vertex)` 4-clique counts, when this is a
    /// [`QueryValue::FourCliques`].
    pub fn four_cliques(&self) -> Option<(u64, &[u64])> {
        match self {
            QueryValue::FourCliques { total, per_vertex } => Some((*total, per_vertex)),
            _ => None,
        }
    }
}

/// Normalized kernel accounting shared by every backend and query:
/// the same three counters mean the same thing whether the run was
/// serial PIM, scheduled multi-array PIM, sliced software or a CPU
/// baseline, so reports are comparable across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Per-edge kernel dispatches: processed arcs of the oriented DAG
    /// (identical across faithful backends on one prepared graph).
    pub kernel_invocations: u64,
    /// Valid slice pairs AND + BitCounted. Zero for CPU baselines,
    /// which intersect adjacency lists instead of slices; identical
    /// between the serial and scheduled PIM paths by construction.
    pub slice_pairs: u64,
    /// AND results read back out of the array — non-zero only for
    /// attributed (per-vertex / edge-support) queries on PIM backends.
    pub result_readouts: u64,
    /// Mutually valid slice pairs proven zero by the sparse encoding's
    /// byte-mask filter and skipped before the AND. Always zero on
    /// dense-encoded graphs; `slice_pairs + blocks_skipped` is the pair
    /// count a dense run would have computed.
    pub blocks_skipped: u64,
}

impl KernelStats {
    /// Accumulates `other` into `self`, counter by counter.
    ///
    /// This is the single accumulation primitive for every place that
    /// sums kernel accounting — per-shard partials inside a sharded
    /// run, the composition pass, and top-level report sums — so the
    /// three counters can never drift apart. Merging is associative
    /// and commutative with [`KernelStats::default`] as identity.
    pub fn merge(&mut self, other: &KernelStats) {
        self.kernel_invocations += other.kernel_invocations;
        self.slice_pairs += other.slice_pairs;
        self.result_readouts += other.result_readouts;
        self.blocks_skipped += other.blocks_skipped;
    }

    /// [`merge`](KernelStats::merge) as a by-value fold operator, for
    /// iterator `fold`/`reduce` chains.
    #[must_use]
    pub fn merged(mut self, other: &KernelStats) -> KernelStats {
        self.merge(other);
        self
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernels / {} slice pairs / {} readouts",
            self.kernel_invocations, self.slice_pairs, self.result_readouts
        )
    }
}

/// The common answer envelope every backend returns for a query:
/// the typed value plus execution accounting.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Which backend produced this report.
    pub backend: String,
    /// The query that was answered.
    pub query: Query,
    /// The typed answer.
    pub value: QueryValue,
    /// The global triangle count the run established along the way.
    pub triangles: u64,
    /// Host wall-clock time of the execution stage.
    pub execute_time: Duration,
    /// Modelled accelerator latency (s), for simulated-hardware
    /// backends.
    pub modelled_time_s: Option<f64>,
    /// Modelled accelerator energy (J), for simulated-hardware
    /// backends.
    pub modelled_energy_j: Option<f64>,
    /// Normalized kernel accounting.
    pub kernel: KernelStats,
    /// Compressed size in bytes of the prepared matrix that answered
    /// the query, under its actual row encoding — the memory side of
    /// the capacity claim, carried as provenance with every answer.
    pub compressed_bytes: u64,
    /// Shard-level provenance (shard count, imbalance, boundary arcs);
    /// present only when a sharded backend answered.
    pub sharding: Option<crate::sharded::ShardProvenance>,
}

impl QueryReport {
    /// The answer envelope of `run`: its execution accounting around
    /// `query`'s shaped `value`.
    pub(crate) fn of_run(
        query: &Query,
        value: QueryValue,
        prepared: &PreparedGraph,
        run: &ExecutionReport,
    ) -> QueryReport {
        QueryReport {
            backend: run.backend.clone(),
            query: query.clone(),
            value,
            triangles: run.triangles,
            execute_time: run.execute_time,
            modelled_time_s: run.modelled_time_s,
            modelled_energy_j: run.modelled_energy_j,
            kernel: run.kernel,
            compressed_bytes: prepared.slice_stats().compressed_bytes,
            sharding: run.sharding().cloned(),
        }
    }
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:<22} ({:.3} ms host, {})",
            self.backend,
            self.query.to_string(),
            self.execute_time.as_secs_f64() * 1e3,
            self.kernel
        )
    }
}

/// Undirected degree of every vertex, indexed by *input-graph* id,
/// recovered from the prepared DAG (out-degree + in-degree per
/// oriented vertex, mapped back through the relabelling).
pub(crate) fn original_degrees(prepared: &PreparedGraph) -> Vec<u64> {
    let oriented = prepared.oriented();
    let mut by_new = vec![0u64; oriented.vertex_count()];
    for (i, j) in oriented.arcs() {
        by_new[i as usize] += 1;
        by_new[j as usize] += 1;
    }
    to_original_ids(prepared, &by_new)
}

/// Maps a matrix-id-indexed vector back to input-graph ids.
pub(crate) fn to_original_ids(prepared: &PreparedGraph, by_new: &[u64]) -> Vec<u64> {
    let oriented = prepared.oriented();
    let mut by_original = vec![0u64; by_new.len()];
    for (new_id, &value) in by_new.iter().enumerate() {
        by_original[oriented.original_id(new_id as u32) as usize] = value;
    }
    by_original
}

fn clustering_entry(vertex: u32, triangles: u64, degree: u64) -> VertexClustering {
    let wedges = degree * degree.saturating_sub(1) / 2;
    VertexClustering {
        vertex,
        triangles,
        degree,
        coefficient: if wedges == 0 { 0.0 } else { triangles as f64 / wedges as f64 },
    }
}

/// Shapes raw triangle quantities — all in *input-graph* ids — into the
/// typed value of any query.
///
/// The backend layer feeds this from an attributed execution; serving
/// layers that maintain the quantities incrementally (a live
/// `tcim-stream` graph) feed it directly, so live and prepared answers
/// share one shaping path. `edge_support` must be the complete
/// ascending per-edge list and is only consulted (and required) for
/// [`Query::EdgeSupport`].
///
/// # Errors
///
/// Returns [`CoreError::Query`] when the query names a vertex beyond
/// `per_vertex.len()`.
pub fn shape_value(
    query: &Query,
    triangles: u64,
    per_vertex: &[u64],
    degrees: &[u64],
    edge_support: Option<Vec<EdgeSupport>>,
) -> Result<QueryValue> {
    let n = per_vertex.len();
    match query {
        Query::TotalTriangles => Ok(QueryValue::Total(triangles)),
        Query::GlobalClustering => {
            let wedges: u64 = degrees.iter().map(|d| d * d.saturating_sub(1) / 2).sum();
            Ok(QueryValue::GlobalClustering {
                triangles,
                wedges,
                transitivity: if wedges == 0 {
                    0.0
                } else {
                    3.0 * triangles as f64 / wedges as f64
                },
            })
        }
        Query::PerVertexTriangles => Ok(QueryValue::PerVertex(per_vertex.to_vec())),
        Query::LocalClustering { vertices } => {
            let selected: Vec<u32> = match vertices {
                Some(list) => {
                    if let Some(&bad) = list.iter().find(|&&v| v as usize >= n) {
                        return Err(CoreError::Query {
                            reason: format!(
                                "local-clustering vertex {bad} out of bounds for {n} vertices"
                            ),
                        });
                    }
                    list.clone()
                }
                None => (0..n as u32).collect(),
            };
            Ok(QueryValue::LocalClustering(
                selected
                    .into_iter()
                    .map(|v| clustering_entry(v, per_vertex[v as usize], degrees[v as usize]))
                    .collect(),
            ))
        }
        Query::TopKVertices { k } => {
            let mut ranked: Vec<VertexTriangles> = per_vertex
                .iter()
                .enumerate()
                .map(|(v, &t)| VertexTriangles { vertex: v as u32, triangles: t })
                .collect();
            ranked.sort_by_key(|e| (std::cmp::Reverse(e.triangles), e.vertex));
            ranked.truncate(*k);
            Ok(QueryValue::TopK(ranked))
        }
        Query::EdgeSupport => Ok(QueryValue::EdgeSupport(
            edge_support.expect("edge-support queries always carry the per-edge list"),
        )),
        // Motif queries are not projections of the triangle quantities:
        // they need the iterated peeling / chained-AND engine
        // (`crate::motifs`), which every dispatch path routes them to
        // before shaping. Reaching here is a routing bug.
        Query::KTruss { .. } | Query::FourCliques => Err(CoreError::Query {
            reason: format!(
                "{query} is a motif query; it is answered by the motif engine, \
                 not shaped from triangle quantities"
            ),
        }),
    }
}

/// Shapes one execution into the values of `queries`: a solo query's
/// answer, or every member of a coalesced batch from its carrier's run.
/// `run` must have executed at (at least) every member's
/// [`Query::attribution`] level. The quantities members need —
/// per-vertex counts and degrees in input-graph ids, the per-edge support
/// list — are derived from it once.
pub(crate) fn shape(
    queries: &[Query],
    prepared: &PreparedGraph,
    run: &ExecutionReport,
) -> Vec<Result<QueryValue>> {
    let _span = tcim_telemetry::span("query.shape");
    let any = |wanted: fn(&Query) -> bool| queries.iter().any(wanted);
    let per_vertex = match &run.per_vertex {
        Some(by_matrix_id) => to_original_ids(prepared, by_matrix_id),
        None => Vec::new(),
    };
    let degrees =
        if any(|q| matches!(q, Query::LocalClustering { .. } | Query::GlobalClustering)) {
            original_degrees(prepared)
        } else {
            Vec::new()
        };
    let edge_support = any(|q| matches!(q, Query::EdgeSupport)).then(|| {
        let support = run.support.as_ref().expect("edge-support queries run with support");
        let oriented = prepared.oriented();
        let mut edges = Vec::with_capacity(support.len());
        edges.extend(oriented.arcs().zip(support).map(|((i, j), &support)| {
            let a = oriented.original_id(i);
            let b = oriented.original_id(j);
            EdgeSupport { u: a.min(b), v: a.max(b), support }
        }));
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        edges
    });
    queries
        .iter()
        .map(|query| {
            let support =
                if matches!(query, Query::EdgeSupport) { edge_support.clone() } else { None };
            shape_value(query, run.triangles, &per_vertex, &degrees, support)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use tcim_graph::generators::classic;

    fn prepared_fig2() -> (TcimPipeline, std::sync::Arc<PreparedGraph>) {
        let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
        let prepared = p.prepare(&classic::fig2_example());
        (p, prepared)
    }

    #[test]
    fn labels_and_display_are_stable() {
        assert_eq!(Query::TotalTriangles.label(), "total-triangles");
        assert_eq!(Query::TopKVertices { k: 3 }.to_string(), "top-3-vertices");
        assert_eq!(
            Query::LocalClustering { vertices: Some(vec![1, 2]) }.to_string(),
            "local-clustering[2 vertices]"
        );
        assert_eq!(Query::EdgeSupport.to_string(), "edge-support");
        assert_eq!(Query::example_suite().len(), 6);
    }

    #[test]
    fn attribution_need_follows_the_query_shape() {
        assert_eq!(Query::TotalTriangles.attribution(), Attribution::Count);
        assert_eq!(Query::GlobalClustering.attribution(), Attribution::Count);
        assert_eq!(Query::PerVertexTriangles.attribution(), Attribution::PerVertex);
        assert_eq!(Query::TopKVertices { k: 2 }.attribution(), Attribution::PerVertex);
        assert_eq!(Query::EdgeSupport.attribution(), Attribution::PerVertexWithSupport);
        // Motif queries anchor on the level their engine consumes.
        assert_eq!(Query::FourCliques.attribution(), Attribution::PerVertex);
        assert_eq!(Query::KTruss { k: 3 }.attribution(), Attribution::PerVertexWithSupport);
        assert!(Attribution::Count < Attribution::PerVertex);
        assert!(Attribution::PerVertex < Attribution::PerVertexWithSupport);
    }

    #[test]
    fn fig2_local_clustering_matches_hand_computation() {
        let (p, prepared) = prepared_fig2();
        let report = p
            .query(&prepared, &Backend::SerialPim, &Query::LocalClustering { vertices: None })
            .unwrap();
        let entries = report.value.local_clustering().unwrap().to_vec();
        // Fig. 2 degrees: 2, 3, 3, 2; triangles: 1, 2, 2, 1.
        let coeffs: Vec<f64> = entries.iter().map(|e| e.coefficient).collect();
        assert_eq!(coeffs, vec![1.0, 2.0 / 3.0, 2.0 / 3.0, 1.0]);
        assert_eq!(entries[1].degree, 3);
        assert_eq!(entries[1].triangles, 2);
    }

    #[test]
    fn fig2_edge_support_lists_every_edge_once() {
        let (p, prepared) = prepared_fig2();
        let report = p.query(&prepared, &Backend::CpuForward, &Query::EdgeSupport).unwrap();
        let edges = report.value.edge_support().unwrap().to_vec();
        let expected = vec![
            EdgeSupport { u: 0, v: 1, support: 1 },
            EdgeSupport { u: 0, v: 2, support: 1 },
            EdgeSupport { u: 1, v: 2, support: 2 },
            EdgeSupport { u: 1, v: 3, support: 1 },
            EdgeSupport { u: 2, v: 3, support: 1 },
        ];
        assert_eq!(edges, expected);
        // Each triangle supports three edges.
        assert_eq!(edges.iter().map(|e| e.support).sum::<u64>(), 3 * report.triangles);
    }

    #[test]
    fn top_k_ranks_descending_with_id_tiebreak() {
        let (p, prepared) = prepared_fig2();
        let report =
            p.query(&prepared, &Backend::CpuMerge, &Query::TopKVertices { k: 3 }).unwrap();
        let ranked = report.value.top_k().unwrap();
        assert_eq!(ranked.len(), 3);
        assert_eq!((ranked[0].vertex, ranked[0].triangles), (1, 2));
        assert_eq!((ranked[1].vertex, ranked[1].triangles), (2, 2));
        assert_eq!((ranked[2].vertex, ranked[2].triangles), (0, 1));
        // k beyond n clamps.
        let all =
            p.query(&prepared, &Backend::CpuMerge, &Query::TopKVertices { k: 100 }).unwrap();
        assert_eq!(all.value.top_k().unwrap().len(), 4);
    }

    #[test]
    fn global_clustering_carries_its_ingredients() {
        let (p, prepared) = prepared_fig2();
        let report =
            p.query(&prepared, &Backend::SerialPim, &Query::GlobalClustering).unwrap();
        let QueryValue::GlobalClustering { triangles, wedges, transitivity } = report.value
        else {
            panic!("wrong value shape");
        };
        // Degrees 2, 3, 3, 2 → wedges 1 + 3 + 3 + 1 = 8.
        assert_eq!((triangles, wedges), (2, 8));
        assert!((transitivity - 6.0 / 8.0).abs() < 1e-12);
    }

    /// Transitivity, wedges and the average local clustering
    /// coefficient (over vertices of degree ≥ 2) of `g`, answered by
    /// one global and one local clustering query.
    fn clustering_of(g: &tcim_graph::CsrGraph) -> (f64, u64, f64) {
        let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
        let prepared = p.prepare(g);
        let global = p.query(&prepared, &Backend::CpuForward, &Query::GlobalClustering);
        let QueryValue::GlobalClustering { wedges, transitivity, .. } = global.unwrap().value
        else {
            panic!("wrong value shape");
        };
        let all = Query::LocalClustering { vertices: None };
        let local = p.query(&prepared, &Backend::CpuForward, &all).unwrap();
        let coefficients: Vec<f64> = local
            .value
            .local_clustering()
            .unwrap()
            .iter()
            .filter(|e| e.degree >= 2)
            .map(|e| e.coefficient)
            .collect();
        let average = coefficients.iter().sum::<f64>() / coefficients.len().max(1) as f64;
        (transitivity, wedges, average)
    }

    #[test]
    fn complete_graph_is_fully_clustered() {
        let (transitivity, _, average) = clustering_of(&classic::complete(6));
        assert!((transitivity - 1.0).abs() < 1e-12);
        assert!((average - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        assert_eq!(clustering_of(&classic::star(20)), (0.0, 19 * 18 / 2, 0.0));
    }

    #[test]
    fn wedge_count_of_star() {
        // Hub of degree n−1 contributes C(n−1, 2) wedges.
        assert_eq!(clustering_of(&classic::star(10)).1, 9 * 8 / 2);
    }

    #[test]
    fn path_has_wedges_but_no_triangles() {
        // 8 interior vertices of degree 2.
        assert_eq!(clustering_of(&classic::path(10)), (0.0, 8, 0.0));
    }

    #[test]
    fn empty_graph_metrics_are_zero() {
        let g = tcim_graph::CsrGraph::from_edges(0, []).unwrap();
        assert_eq!(clustering_of(&g), (0.0, 0, 0.0));
    }

    #[test]
    fn out_of_bounds_clustering_vertex_is_a_query_error() {
        let (p, prepared) = prepared_fig2();
        let err = p
            .query(
                &prepared,
                &Backend::CpuMerge,
                &Query::LocalClustering { vertices: Some(vec![0, 9]) },
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Query { .. }), "{err}");
        assert!(err.to_string().contains("9"));
    }

    #[test]
    fn query_value_accessors_are_shape_checked() {
        let v = QueryValue::Total(7);
        assert_eq!(v.total(), Some(7));
        assert!(v.per_vertex().is_none());
        assert!(v.local_clustering().is_none());
        assert!(v.edge_support().is_none());
        assert!(v.top_k().is_none());
    }

    /// `KernelStats::merge` is the single accumulation primitive for
    /// every stats sum (per-shard partials, composition, report
    /// totals); pin the algebra that makes any merge order correct:
    /// associativity, commutativity, and the default as identity.
    #[test]
    fn kernel_stats_merge_is_associative_and_commutative() {
        let a = KernelStats {
            kernel_invocations: 3,
            slice_pairs: 10,
            result_readouts: 1,
            blocks_skipped: 2,
        };
        let b = KernelStats {
            kernel_invocations: 7,
            slice_pairs: 0,
            result_readouts: 4,
            blocks_skipped: 0,
        };
        let c = KernelStats {
            kernel_invocations: 11,
            slice_pairs: 5,
            result_readouts: 0,
            blocks_skipped: 1,
        };

        let left = a.merged(&b).merged(&c);
        let right = a.merged(&b.merged(&c));
        assert_eq!(left, right, "associativity");
        assert_eq!(a.merged(&b), b.merged(&a), "commutativity");
        assert_eq!(a.merged(&KernelStats::default()), a, "right identity");
        assert_eq!(KernelStats::default().merged(&a), a, "left identity");
        assert_eq!(
            left,
            KernelStats {
                kernel_invocations: 21,
                slice_pairs: 15,
                result_readouts: 5,
                blocks_skipped: 3,
            }
        );

        // The in-place form agrees with the by-value fold form.
        let mut acc = KernelStats::default();
        for part in [&a, &b, &c] {
            acc.merge(part);
        }
        assert_eq!(acc, left);
    }
}
