//! The dynamic graph: live triangle-count maintenance under edge
//! insertions and deletions, without re-slicing the whole graph.
//!
//! # Dataflow
//!
//! A [`DynamicGraph`] owns mutable adjacency plus one mutable sliced
//! bit-row per vertex holding its **full** neighbourhood `N(v)` (not the
//! oriented DAG rows a one-shot count uses). Under that representation
//! the triangle delta of an edge update `{u, v}` is *exactly one* TCIM
//! kernel invocation — `BitCount(AND(N(u), N(v)))` over valid slice
//! pairs (PAPER.md §IV, Alg. 1):
//!
//! * insert `{u, v}`: every common neighbour closes a new triangle, so
//!   `ΔTC = +|N(u) ∩ N(v)|`;
//! * delete `{u, v}`: every common neighbour loses one, `ΔTC = −|N(u) ∩
//!   N(v)|` (the edge itself never appears in the intersection, so the
//!   kernel is the same either side of the mutation).
//!
//! Batches are partitioned into endpoint-disjoint *rounds*: updates in
//! one round touch pairwise-disjoint vertex sets, so their kernels read
//! disjoint neighbourhoods and execute concurrently — fanned across
//! arrays via `tcim-sched`'s [delta jobs](tcim_sched::delta) — while
//! conflicting updates serialize into later rounds, preserving exact
//! sequential semantics.
//!
//! Mutations patch the sliced rows in place
//! ([`SlicedRow::set_bit`]/[`clear_bit`]); nothing is re-sliced
//! until the [`DriftPolicy`] decides the epoch snapshot has decayed,
//! at which point [`DynamicGraph::fold`] rebuilds one fresh
//! [`PreparedGraph`] through the pipeline's `PreparedCache`.
//!
//! Every row keeps the paper's Fig. 3 layout (ascending valid-slice
//! indices plus payload words) under one [`RowEncoding`], resolved once
//! at construction from the configured
//! [`EncodingPolicy`](tcim_bitmatrix::EncodingPolicy) and the initial
//! density. The encoding picks the delta kernel's skip and dispatch
//! rule and the footprint the rows report, not their layout, so a patch
//! costs the same under both: it flips one payload bit, and inserts or
//! drops a slice only when the bit's slice fills or empties.
//!
//! [`clear_bit`]: SlicedRow::clear_bit

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tcim_arch::kernel::{self, ArcKernel};
use tcim_arch::SliceCostModel;
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::{RowEncoding, SliceSize, SlicedBitVector, SlicedRow};
use tcim_core::{Backend, PreparedGraph, Query, TcimConfig, TcimPipeline};
use tcim_graph::CsrGraph;
use tcim_sched::{parallel_map_indexed, plan_deltas, DeltaJob, SchedPolicy};

use crate::drift::{DriftMeasure, DriftPolicy};
use crate::error::{Result, StreamError};
use crate::report::{BatchReport, Delta, Rejected, StreamReport};
use crate::update::{Update, UpdateBatch};

/// Minimum round size that engages the multi-array fan-out; smaller
/// rounds run serially on one array.
const FANOUT_THRESHOLD: usize = 8;

/// Configuration of a [`DynamicGraph`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The underlying pipeline configuration (orientation and PIM
    /// parameters used for prepared snapshots and the initial count).
    pub tcim: TcimConfig,
    /// When to fold dynamic state into a fresh prepared artifact.
    pub drift: DriftPolicy,
    /// Arrays/placement/host threads used to fan rounds of at least
    /// eight delta kernels out via `tcim-sched`.
    pub sched: SchedPolicy,
    /// Recount the folded artifact on the CPU merge backend and fail on
    /// disagreement with the maintained count (a self-check; disabled
    /// by default).
    pub verify_on_fold: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            tcim: TcimConfig::default(),
            drift: DriftPolicy::default(),
            sched: SchedPolicy::with_arrays(4),
            verify_on_fold: false,
        }
    }
}

/// An immutable, epoch-pinned view of a dynamic graph as of its last
/// fold: the prepared artifact together with the maintained counts
/// captured at the instant the fold ran, when the artifact and the
/// live state agree exactly.
///
/// Snapshots are what serving layers hand to concurrent readers: a
/// reader holding one answers every query shape against a consistent
/// epoch without touching (or being blocked by) the mutable dynamic
/// state, while writers keep applying batches and publish the *next*
/// epoch by swapping in a fresh snapshot. Cloning is cheap (two `Arc`
/// bumps), so publication is a pointer swap, never a copy.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The fold epoch this snapshot pins (0 = the construction state).
    pub epoch: u64,
    /// The epoch's prepared artifact — queryable on any backend like
    /// any static graph.
    pub prepared: Arc<PreparedGraph>,
    /// The exact triangle count at the pinned epoch.
    pub triangles: u64,
    /// The exact per-vertex participation counts at the pinned epoch.
    pub per_vertex: Arc<Vec<u64>>,
    /// Undirected edge count at the pinned epoch.
    pub edges: usize,
}

/// One member of an endpoint-disjoint execution round.
#[derive(Debug, Clone, Copy)]
struct RoundMember {
    /// Position in the accepted-update sequence (submission order).
    idx: usize,
    u: u32,
    v: u32,
    insert: bool,
}

/// A graph under write traffic: mutable adjacency, mutable sliced
/// bit-rows, an incrementally maintained triangle count and an epoch
/// snapshot folded through the [`TcimPipeline`] on drift.
///
/// # Example
///
/// ```
/// use tcim_graph::generators::classic;
/// use tcim_stream::{DynamicGraph, StreamConfig, UpdateBatch};
///
/// // Fig. 2 of the paper: 2 triangles.
/// let mut dg = DynamicGraph::new(&classic::fig2_example(), StreamConfig::default())?;
/// assert_eq!(dg.triangles(), 2);
///
/// // Closing {0, 3} creates two new triangles — one delta kernel.
/// let mut batch = UpdateBatch::new();
/// batch.insert(0, 3);
/// let outcome = dg.apply_batch(&batch)?;
/// assert_eq!(outcome.net_delta(), 2);
/// assert_eq!(dg.triangles(), 4);
/// # Ok::<(), tcim_stream::StreamError>(())
/// ```
#[derive(Debug)]
pub struct DynamicGraph {
    config: StreamConfig,
    pipeline: TcimPipeline,
    costs: SliceCostModel,
    slice_size: SliceSize,
    /// Sorted full neighbour lists (both directions of every edge).
    adjacency: Vec<Vec<u32>>,
    /// `rows[v]` is `N(v)` in compressed sliced form, all under
    /// `encoding`.
    rows: Vec<SlicedRow>,
    /// The row encoding resolved at construction (fixed for the
    /// graph's lifetime; folds re-resolve inside the pipeline).
    encoding: RowEncoding,
    triangles: u64,
    /// Triangles each vertex participates in, maintained incrementally
    /// alongside the total (sums to `3 × triangles`).
    per_vertex: Vec<u64>,
    edges: usize,
    touched: Vec<bool>,
    touched_rows: usize,
    valid_slices: u64,
    valid_at_fold: u64,
    updates_since_fold: u64,
    epoch: u64,
    prepared: Arc<PreparedGraph>,
    /// The epoch snapshot captured at construction / the last fold,
    /// handed out (cheaply, by clone) to snapshot-isolated readers.
    published: EpochSnapshot,
    report: StreamReport,
}

impl DynamicGraph {
    /// Builds the dynamic state from an initial graph: prepares (and
    /// caches) the epoch-0 artifact, obtains the initial count on the
    /// CPU merge backend, and slices every full neighbourhood row.
    ///
    /// # Errors
    ///
    /// Propagates engine characterization and backend failures.
    pub fn new(g: &CsrGraph, config: StreamConfig) -> Result<Self> {
        let pipeline = TcimPipeline::new(&config.tcim)?;
        let prepared = pipeline.prepare(g);
        // One attributed execution seeds both maintained quantities:
        // the per-vertex query's report carries the total alongside.
        let local =
            pipeline.query(&prepared, &Backend::CpuMerge, &Query::PerVertexTriangles)?;
        let per_vertex = local
            .value
            .per_vertex()
            .expect("a per-vertex query always returns a per-vertex value")
            .to_vec();
        let n = g.vertex_count();
        let slice_size = config.tcim.pim.slice_size;
        let slices: Vec<SlicedBitVector> = g
            .vertices()
            .map(|v| {
                SlicedBitVector::from_sorted_indices(
                    n,
                    g.neighbors(v).iter().map(|&x| x as usize),
                    slice_size,
                )
            })
            .collect();
        // Resolve the encoding from the *full*-neighbourhood density
        // (roughly twice the oriented artifact's) so streaming skips
        // exactly where its own kernels would find empty slices.
        let total: usize = slices.iter().map(SlicedBitVector::total_slices).sum();
        let valid: usize = slices.iter().map(SlicedBitVector::valid_slice_count).sum();
        let fraction = if total == 0 { 1.0 } else { valid as f64 / total as f64 };
        let encoding = config.tcim.encoding.resolve(fraction);
        let rows: Vec<SlicedRow> =
            slices.into_iter().map(|v| SlicedRow::encode(v, encoding)).collect();
        let valid_slices = valid as u64;
        let costs = pipeline.engine().cost_model();
        let published = EpochSnapshot {
            epoch: 0,
            prepared: Arc::clone(&prepared),
            triangles: local.triangles,
            per_vertex: Arc::new(per_vertex.clone()),
            edges: g.edge_count(),
        };
        Ok(DynamicGraph {
            config,
            costs,
            slice_size,
            adjacency: g.vertices().map(|v| g.neighbors(v).to_vec()).collect(),
            rows,
            encoding,
            triangles: local.triangles,
            per_vertex,
            edges: g.edge_count(),
            touched: vec![false; n],
            touched_rows: 0,
            valid_slices,
            valid_at_fold: valid_slices,
            updates_since_fold: 0,
            epoch: 0,
            prepared,
            published,
            pipeline,
            report: StreamReport::default(),
        })
    }

    /// Number of vertices (fixed at construction).
    pub fn vertex_count(&self) -> usize {
        self.rows.len()
    }

    /// Current number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The incrementally maintained exact triangle count.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// The incrementally maintained exact per-vertex participation
    /// counts (sums to `3 ×` [`DynamicGraph::triangles`]): every delta
    /// kernel's surviving bits are attributed to the update's endpoints
    /// and witnesses as the batch applies, so per-vertex queries on a
    /// live graph never recount.
    pub fn per_vertex(&self) -> &[u64] {
        &self.per_vertex
    }

    /// Live per-edge triangle support: for every current edge `{u, v}`
    /// (ascending), `|N(u) ∩ N(v)|` computed with one delta kernel over
    /// the live sliced rows — `O(m)` kernels, no re-slicing. Returns
    /// the per-edge entries together with the valid slice pairs the
    /// kernels processed and the pairs the sparse filter proved zero
    /// and skipped (provenance for serving layers).
    pub fn edge_support(&self) -> (Vec<(u32, u32, u64)>, u64, u64) {
        let mut support = Vec::with_capacity(self.edges);
        let mut slice_pairs = 0u64;
        let mut skipped = 0u64;
        for (u, list) in self.adjacency.iter().enumerate() {
            let u = u as u32;
            for &v in list.iter().filter(|&&v| v > u) {
                let arc = delta_kernel(&self.rows, (u, v), None);
                slice_pairs += arc.pairs.visited;
                skipped += arc.pairs.skipped;
                support.push((u, v, arc.count));
            }
        }
        (support, slice_pairs, skipped)
    }

    /// The live k-truss decomposition: trussness for every current
    /// edge plus the maximal `k`-truss membership, answered directly
    /// over the maintained adjacency with the same peeling engine the
    /// prepared path runs — no fold, no re-slice. Returns the
    /// [`QueryValue::KTruss`] value and the motif kernel accounting.
    ///
    /// [`QueryValue::KTruss`]: tcim_core::QueryValue::KTruss
    pub fn trussness(&self, k: u32) -> (tcim_core::QueryValue, tcim_core::KernelStats) {
        tcim_core::ktruss_value_from_adjacency(
            &self.adjacency,
            self.slice_size,
            self.encoding,
            k,
        )
    }

    /// The live 4-clique census: total count plus per-vertex
    /// memberships, answered by chained ANDs over full-neighbourhood
    /// rows built from the maintained adjacency. Returns the
    /// [`QueryValue::FourCliques`] value and the motif kernel
    /// accounting.
    ///
    /// [`QueryValue::FourCliques`]: tcim_core::QueryValue::FourCliques
    pub fn four_cliques(&self) -> (tcim_core::QueryValue, tcim_core::KernelStats) {
        tcim_core::four_cliques_from_adjacency(&self.adjacency, self.slice_size, self.encoding)
    }

    /// The slice size `|S|` every dynamic row is compressed with.
    pub fn slice_size(&self) -> SliceSize {
        self.slice_size
    }

    /// The row encoding every dynamic row lives under, resolved once at
    /// construction from the configured policy and initial density.
    pub fn encoding(&self) -> RowEncoding {
        self.encoding
    }

    /// Compressed bytes across all live rows under the active encoding
    /// (provenance for serving layers; tracks in-place patches).
    pub fn compressed_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.compressed_bytes() as u64).sum()
    }

    /// Current valid slices across all dynamic rows (the live `NVS`).
    pub fn valid_slices(&self) -> u64 {
        self.valid_slices
    }

    /// Whether the undirected edge `{u, v}` currently exists.
    ///
    /// # Panics
    ///
    /// Panics when `u` is out of bounds.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adjacency[u as usize].binary_search(&v).is_ok()
    }

    /// The sliced neighbourhood row `N(v)`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of bounds.
    pub fn row(&self, v: u32) -> &SlicedRow {
        &self.rows[v as usize]
    }

    /// The sorted live neighbour list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of bounds.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[v as usize]
    }

    /// The fold epoch: how many times the state was folded back into a
    /// fresh prepared artifact.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest epoch artifact (from construction or the last fold).
    /// May lag the live state by up to one drift threshold.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// The latest published [`EpochSnapshot`] (from construction or the
    /// last fold), cheap to clone and safe to read long after the live
    /// state has moved on. Like [`DynamicGraph::prepared`], it may lag
    /// the live state by up to one drift threshold; use
    /// [`DynamicGraph::publish`] to force it current.
    pub fn epoch_snapshot(&self) -> EpochSnapshot {
        self.published.clone()
    }

    /// Publishes the live state as the next epoch: folds (exactly as
    /// the drift policy would) when any update has been applied since
    /// the last fold, then returns the now-current snapshot. A no-op
    /// returning the existing snapshot when nothing changed.
    ///
    /// # Errors
    ///
    /// Propagates fold failures.
    pub fn publish(&mut self) -> Result<EpochSnapshot> {
        if self.updates_since_fold > 0 {
            self.fold()?;
        }
        Ok(self.published.clone())
    }

    /// The pipeline folding snapshots (exposes the `PreparedCache`).
    pub fn pipeline(&self) -> &TcimPipeline {
        &self.pipeline
    }

    /// The configuration this dynamic graph runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Cumulative streaming accounting.
    pub fn report(&self) -> &StreamReport {
        &self.report
    }

    /// The current drift of the dynamic state relative to its last fold.
    pub fn drift(&self) -> DriftMeasure {
        DriftMeasure {
            touched_rows: self.touched_rows,
            total_rows: self.rows.len(),
            valid_slices: self.valid_slices,
            valid_slices_at_fold: self.valid_at_fold,
            updates_since_fold: self.updates_since_fold,
        }
    }

    /// Materialises the live state as an immutable [`CsrGraph`].
    pub fn snapshot(&self) -> CsrGraph {
        let edges: Vec<(u32, u32)> = self
            .adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, list)| {
                let u = u as u32;
                list.iter().copied().filter(move |&v| v > u).map(move |v| (u, v))
            })
            .collect();
        CsrGraph::from_edges(self.rows.len(), edges)
            .expect("dynamic adjacency is always in bounds")
    }

    /// Applies a single update; a one-update [`DynamicGraph::apply_batch`].
    ///
    /// # Errors
    ///
    /// Returns the validation error when the update is rejected, and
    /// propagates fold failures.
    pub fn apply(&mut self, update: Update) -> Result<Delta> {
        let mut batch = UpdateBatch::new();
        batch.push(update);
        let mut outcome = self.apply_batch(&batch)?;
        if let Some(r) = outcome.rejected.pop() {
            return Err(r.error);
        }
        Ok(outcome
            .deltas
            .pop()
            .expect("a one-update batch yields exactly one delta or rejection"))
    }

    /// Applies a batch of updates: validates sequentially, partitions
    /// accepted updates into endpoint-disjoint rounds, computes every
    /// round's triangle deltas with the PIM AND + BitCount kernel
    /// (fanned across arrays for large rounds), patches the sliced rows
    /// in place, and folds the state through the pipeline when the
    /// drift policy trips.
    ///
    /// Rejected updates are reported in the outcome and leave the graph
    /// untouched; the rest of the batch still applies.
    ///
    /// # Errors
    ///
    /// Propagates fold failures ([`StreamError::Core`],
    /// [`StreamError::CountDrift`]); validation failures are *not*
    /// errors of the batch.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<BatchReport> {
        let update_span = tcim_telemetry::span("update");
        let start = Instant::now();
        let (round_members, rejected) = self.validate(batch);
        let rounds = round_members.len();
        let accepted: usize = round_members.iter().map(Vec::len).sum();

        let mut deltas: Vec<Option<Delta>> = vec![None; accepted];
        let mut modelled_kernel_s = 0.0f64;
        for (round, members) in round_members.iter().enumerate() {
            let delta_span = tcim_telemetry::span("delta");
            let (results, round_critical_s) = self.run_round(members)?;
            drop(delta_span);
            modelled_kernel_s += round_critical_s;
            for (m, (common, pairs, witnesses)) in members.iter().zip(&results) {
                let signed = if m.insert { *common as i64 } else { -(*common as i64) };
                self.patch(m.u, m.v, m.insert);
                self.triangles = self
                    .triangles
                    .checked_add_signed(signed)
                    .expect("deletion deltas never exceed the maintained count");
                // Attribute the delta: the endpoints gain/lose every
                // closed triangle, each witness exactly one.
                let attribute = |counts: &mut [u64], vertex: u32, delta: u64| {
                    let slot = &mut counts[vertex as usize];
                    *slot = if m.insert {
                        *slot + delta
                    } else {
                        slot.checked_sub(delta)
                            .expect("deletions never detach more triangles than maintained")
                    };
                };
                attribute(&mut self.per_vertex, m.u, *common);
                attribute(&mut self.per_vertex, m.v, *common);
                for &w in witnesses {
                    attribute(&mut self.per_vertex, w, 1);
                }
                let update =
                    if m.insert { Update::Insert(m.u, m.v) } else { Update::Delete(m.u, m.v) };
                deltas[m.idx] =
                    Some(Delta { update, triangles: signed, slice_pairs: *pairs, round });
            }
        }
        let deltas: Vec<Delta> = deltas
            .into_iter()
            .map(|d| d.expect("every accepted update executed in exactly one round"))
            .collect();

        // Cumulative accounting (before the fold, which bills its own
        // host time separately).
        self.report.batches += 1;
        self.report.rounds += rounds as u64;
        self.report.kernel_invocations += deltas.len() as u64;
        self.report.slice_pairs += deltas.iter().map(|d| d.slice_pairs).sum::<u64>();
        self.report.inserts += deltas.iter().filter(|d| d.update.is_insert()).count() as u64;
        self.report.deletes += deltas.iter().filter(|d| !d.update.is_insert()).count() as u64;
        self.report.rejected += rejected.len() as u64;
        self.report.modelled_kernel_s += modelled_kernel_s;
        self.report.host_update_time += start.elapsed();

        let folded = self.config.drift.should_fold(&self.drift());
        if folded {
            self.fold()?;
        }
        drop(update_span);
        Ok(BatchReport {
            deltas,
            rejected,
            rounds,
            modelled_kernel_s,
            folded,
            triangles: self.triangles,
        })
    }

    /// Folds the live state into a fresh prepared artifact through the
    /// pipeline (one re-slice, landing in the `PreparedCache`), resets
    /// the drift measure and advances the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::CountDrift`] when `verify_on_fold` is set
    /// and the recount disagrees, and propagates backend failures.
    pub fn fold(&mut self) -> Result<Arc<PreparedGraph>> {
        let _fold_span = tcim_telemetry::span("fold");
        let start = Instant::now();
        let snapshot = self.snapshot();
        let prepared = self.pipeline.prepare(&snapshot);
        self.prepared = Arc::clone(&prepared);
        self.epoch += 1;
        // At fold time the artifact and the maintained quantities agree
        // exactly, so this is the one moment an epoch snapshot can be
        // captured consistently.
        self.published = EpochSnapshot {
            epoch: self.epoch,
            prepared: Arc::clone(&prepared),
            triangles: self.triangles,
            per_vertex: Arc::new(self.per_vertex.clone()),
            edges: self.edges,
        };
        self.report.rebuilds += 1;
        self.touched.fill(false);
        self.touched_rows = 0;
        self.valid_at_fold = self.valid_slices;
        self.updates_since_fold = 0;
        if self.config.verify_on_fold {
            // One attributed recount checks both maintained quantities.
            let local = self.pipeline.query(
                &prepared,
                &Backend::CpuMerge,
                &Query::PerVertexTriangles,
            )?;
            if local.triangles != self.triangles {
                return Err(StreamError::CountDrift {
                    maintained: self.triangles,
                    recount: local.triangles,
                });
            }
            let recounted = local
                .value
                .per_vertex()
                .expect("a per-vertex query always returns a per-vertex value");
            for (v, (&maintained, &recount)) in
                self.per_vertex.iter().zip(recounted).enumerate()
            {
                if maintained != recount {
                    return Err(StreamError::PerVertexDrift {
                        vertex: v as u32,
                        maintained,
                        recount,
                    });
                }
            }
        }
        self.report.host_rebuild_time += start.elapsed();
        Ok(prepared)
    }

    /// Sequential validation with in-batch awareness: each update sees
    /// the graph as left by every earlier accepted update. Accepted
    /// updates are assigned the earliest round after every earlier
    /// update sharing an endpoint, grouped by round (outer index) so
    /// batch execution never re-scans the accepted list.
    fn validate(&self, batch: &UpdateBatch) -> (Vec<Vec<RoundMember>>, Vec<Rejected>) {
        let n = self.rows.len();
        let mut overlay: HashMap<(u32, u32), bool> = HashMap::new();
        let mut last_round: HashMap<u32, usize> = HashMap::new();
        let mut accepted = 0usize;
        let mut rounds: Vec<Vec<RoundMember>> = Vec::new();
        let mut rejected = Vec::new();
        for &update in batch {
            let (a, b) = update.endpoints();
            let error = if a as usize >= n {
                Some(StreamError::VertexOutOfBounds { vertex: a, count: n })
            } else if b as usize >= n {
                Some(StreamError::VertexOutOfBounds { vertex: b, count: n })
            } else if a == b {
                Some(StreamError::SelfLoop { vertex: a })
            } else {
                let key = (a.min(b), a.max(b));
                let exists =
                    overlay.get(&key).copied().unwrap_or_else(|| self.has_edge(key.0, key.1));
                match (update.is_insert(), exists) {
                    (true, true) => Some(StreamError::DuplicateEdge { u: key.0, v: key.1 }),
                    (false, false) => Some(StreamError::UnknownEdge { u: key.0, v: key.1 }),
                    (insert, _) => {
                        overlay.insert(key, insert);
                        None
                    }
                }
            };
            if let Some(error) = error {
                rejected.push(Rejected { update, error });
                continue;
            }
            let (u, v) = (a.min(b), a.max(b));
            let round =
                [u, v].iter().filter_map(|x| last_round.get(x)).max().map_or(0, |&r| r + 1);
            last_round.insert(u, round);
            last_round.insert(v, round);
            if rounds.len() <= round {
                rounds.push(Vec::new());
            }
            rounds[round].push(RoundMember {
                idx: accepted,
                u,
                v,
                insert: update.is_insert(),
            });
            accepted += 1;
        }
        (rounds, rejected)
    }

    /// Executes one endpoint-disjoint round of delta kernels. Returns
    /// `(common-neighbour count, slice pairs, witnesses)` per member
    /// (member order) and the round's modelled critical path; the
    /// witnesses are the common neighbours read back out of the AND
    /// result, which per-vertex maintenance attributes.
    #[allow(clippy::type_complexity)]
    fn run_round(&self, members: &[RoundMember]) -> Result<(Vec<(u64, u64, Vec<u32>)>, f64)> {
        if members.is_empty() {
            return Ok((Vec::new(), 0.0));
        }
        let fan_out = members.len() >= FANOUT_THRESHOLD && self.config.sched.arrays > 1;
        let plan_policy = if fan_out {
            self.config.sched.clone()
        } else {
            SchedPolicy { arrays: 1, host_threads: Some(1), ..self.config.sched.clone() }
        };
        // Price each kernel for placement: both operands are written
        // once; the pair estimate is the upper bound min(valid, valid).
        let jobs: Vec<DeltaJob> = members
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let va = self.rows[m.u as usize].valid_slice_count() as u64;
                let vb = self.rows[m.v as usize].valid_slice_count() as u64;
                DeltaJob::price(k, va, vb, va.min(vb), &self.costs)
            })
            .collect();
        let plan = plan_deltas(&jobs, &plan_policy)?;

        let rows = &self.rows;
        let run = |m: &RoundMember| {
            let mut witnesses = Vec::new();
            let arc = delta_kernel(rows, (m.u, m.v), Some(&mut witnesses));
            (arc.count, arc.pairs.visited, witnesses)
        };
        let results = if fan_out {
            let per_array = plan.per_array_jobs();
            let outs: Vec<Vec<(usize, (u64, u64, Vec<u32>))>> = parallel_map_indexed(
                plan.arrays,
                self.config.sched.resolved_host_threads(),
                |a| per_array[a].iter().map(|&k| (k, run(&members[k]))).collect(),
            );
            let mut results = vec![(0u64, 0u64, Vec::new()); members.len()];
            for out in outs {
                for (k, r) in out {
                    results[k] = r;
                }
            }
            results
        } else {
            members.iter().map(run).collect()
        };
        Ok((results, plan.critical_path_s()))
    }

    /// Patches one validated update into rows, adjacency and the drift
    /// bookkeeping.
    fn patch(&mut self, u: u32, v: u32, insert: bool) {
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.rows[a as usize];
            let before = row.valid_slice_count() as u64;
            let changed =
                if insert { row.set_bit(b as usize) } else { row.clear_bit(b as usize) }
                    .expect("validated endpoints are in bounds");
            debug_assert!(changed, "validation guarantees the mutation is effective");
            let after = row.valid_slice_count() as u64;
            // The total always includes this row's `before` slices, so
            // the subtraction cannot underflow.
            self.valid_slices = self.valid_slices - before + after;
            let list = &mut self.adjacency[a as usize];
            match (list.binary_search(&b), insert) {
                (Err(pos), true) => list.insert(pos, b),
                (Ok(pos), false) => {
                    list.remove(pos);
                }
                _ => debug_assert!(false, "validation guarantees adjacency consistency"),
            }
            if !self.touched[a as usize] {
                self.touched[a as usize] = true;
                self.touched_rows += 1;
            }
        }
        if insert {
            self.edges += 1;
        } else {
            self.edges -= 1;
        }
        self.updates_since_fold += 1;
    }
}

/// The TCIM delta kernel `N(u) AND N(v)` over the live rows (the sparse
/// encoding skips pairs whose payloads share no non-zero byte). With `witnesses`,
/// each non-zero result is read back out and the common neighbours
/// land there, ascending — what per-vertex maintenance attributes.
fn delta_kernel(
    rows: &[SlicedRow],
    (u, v): (u32, u32),
    witnesses: Option<&mut Vec<u32>>,
) -> ArcKernel {
    kernel::and_bitcount(
        (u, v),
        &rows[u as usize],
        &rows[v as usize],
        PopcountMethod::Native,
        witnesses,
        |_, _| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::generators::classic;

    fn fig2_dynamic(config: StreamConfig) -> DynamicGraph {
        DynamicGraph::new(&classic::fig2_example(), config).unwrap()
    }

    fn no_fold() -> StreamConfig {
        StreamConfig { drift: DriftPolicy::never(), ..StreamConfig::default() }
    }

    #[test]
    fn single_updates_track_fig2_deltas() {
        let mut dg = fig2_dynamic(no_fold());
        assert_eq!(dg.triangles(), 2);
        assert_eq!(dg.edge_count(), 5);

        // {0, 3}: N(0) = {1, 2}, N(3) = {1, 2} → +2.
        let d = dg.apply(Update::Insert(3, 0)).unwrap();
        assert_eq!(d.triangles, 2);
        assert_eq!(d.update, Update::Insert(0, 3), "endpoints are normalized");
        assert_eq!(dg.triangles(), 4);
        assert!(dg.has_edge(0, 3) && dg.has_edge(3, 0));

        // Deleting it reverses the delta exactly.
        let d = dg.apply(Update::Delete(0, 3)).unwrap();
        assert_eq!(d.triangles, -2);
        assert_eq!(dg.triangles(), 2);
        assert_eq!(dg.edge_count(), 5);

        // Removing a triangle edge.
        let d = dg.apply(Update::Delete(1, 2)).unwrap();
        assert_eq!(d.triangles, -2);
        assert_eq!(dg.triangles(), 0);
    }

    #[test]
    fn per_vertex_counts_track_updates_exactly() {
        let mut dg = fig2_dynamic(no_fold());
        // Fig. 2: triangles 0-1-2 and 1-2-3.
        assert_eq!(dg.per_vertex(), &[1, 2, 2, 1]);
        dg.apply(Update::Insert(0, 3)).unwrap();
        // {0, 3} closes 0-1-3 and 0-2-3.
        assert_eq!(dg.per_vertex(), &[3, 3, 3, 3]);
        // Deleting {1, 2} destroys 0-1-2 and 1-2-3; 0-1-3 and 0-2-3
        // survive.
        dg.apply(Update::Delete(1, 2)).unwrap();
        assert_eq!(dg.per_vertex(), &[2, 1, 1, 2]);
        let total: u64 = dg.per_vertex().iter().sum();
        assert_eq!(total, 3 * dg.triangles());
    }

    #[test]
    fn live_edge_support_matches_definition() {
        let mut dg = fig2_dynamic(no_fold());
        dg.apply(Update::Insert(0, 3)).unwrap();
        // K4: every edge supports two triangles.
        let (support, slice_pairs, skipped) = dg.edge_support();
        assert_eq!(skipped, 0, "a dense fig2 graph skips nothing");
        assert_eq!(support.len(), dg.edge_count());
        assert!(slice_pairs >= support.len() as u64, "every kernel touched a pair");
        assert!(support.iter().all(|&(_, _, s)| s == 2));
        assert!(support.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        // Every triangle supports three edges.
        let total: u64 = support.iter().map(|&(_, _, s)| s).sum();
        assert_eq!(total, 3 * dg.triangles());
    }

    #[test]
    fn invalid_updates_are_rejected_without_state_change() {
        let mut dg = fig2_dynamic(no_fold());
        assert!(matches!(
            dg.apply(Update::Insert(0, 1)),
            Err(StreamError::DuplicateEdge { u: 0, v: 1 })
        ));
        assert!(matches!(
            dg.apply(Update::Delete(0, 3)),
            Err(StreamError::UnknownEdge { u: 0, v: 3 })
        ));
        assert!(matches!(dg.apply(Update::Insert(2, 2)), Err(StreamError::SelfLoop { .. })));
        assert!(matches!(
            dg.apply(Update::Delete(0, 9)),
            Err(StreamError::VertexOutOfBounds { vertex: 9, count: 4 })
        ));
        assert_eq!(dg.triangles(), 2);
        assert_eq!(dg.edge_count(), 5);
        assert_eq!(dg.report().rejected, 4);
        assert_eq!(dg.report().kernel_invocations, 0);
    }

    #[test]
    fn batch_validation_sees_earlier_batch_members() {
        let mut dg = fig2_dynamic(no_fold());
        let mut batch = UpdateBatch::new();
        batch
            .insert(0, 3) // ok → +2
            .insert(0, 3) // duplicate of the in-batch insert
            .delete(0, 3) // ok (inserted above) → −2
            .delete(0, 3); // unknown again
        let outcome = dg.apply_batch(&batch).unwrap();
        assert_eq!(outcome.applied(), 2);
        assert_eq!(outcome.rejected.len(), 2);
        assert_eq!(outcome.net_delta(), 0);
        // Conflicting updates serialize into distinct rounds.
        assert_eq!(outcome.rounds, 2);
        assert_eq!(dg.triangles(), 2);
        assert!(!dg.has_edge(0, 3));
        assert!(matches!(outcome.rejected[0].error, StreamError::DuplicateEdge { .. }));
        assert!(matches!(outcome.rejected[1].error, StreamError::UnknownEdge { .. }));
    }

    #[test]
    fn independent_updates_share_a_round() {
        // Wheel on 8 rim vertices: plenty of disjoint pairs.
        let g = classic::wheel(9);
        let mut dg = DynamicGraph::new(&g, no_fold()).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(1, 3).insert(2, 4).insert(5, 7);
        let outcome = dg.apply_batch(&batch).unwrap();
        assert_eq!(outcome.rounds, 1, "endpoint-disjoint updates run in one round");
        assert_eq!(outcome.applied(), 3);
    }

    #[test]
    fn parallel_fanout_agrees_with_serial_execution() {
        let g = classic::wheel(40);
        let updates: Vec<Update> =
            (1..20)
                .map(|v| {
                    if v % 3 == 0 {
                        Update::Delete(v, v + 1)
                    } else {
                        Update::Insert(v, v + 19)
                    }
                })
                .collect();
        // One array never fans out; four fan out every round of at
        // least the threshold's size.
        let config = |arrays| StreamConfig {
            drift: DriftPolicy::never(),
            sched: SchedPolicy::with_arrays(arrays),
            ..StreamConfig::default()
        };
        let mut serial = DynamicGraph::new(&g, config(1)).unwrap();
        let mut fanned = DynamicGraph::new(&g, config(4)).unwrap();
        let batch: UpdateBatch = updates.into_iter().collect();
        let a = serial.apply_batch(&batch).unwrap();
        let b = fanned.apply_batch(&batch).unwrap();
        let first_round = b.deltas.iter().filter(|d| d.round == 0).count();
        assert!(first_round >= FANOUT_THRESHOLD, "the first round fans out: {first_round}");
        assert_eq!(a.deltas.len(), b.deltas.len());
        for (x, y) in a.deltas.iter().zip(&b.deltas) {
            assert_eq!(x, y);
        }
        assert_eq!(serial.triangles(), fanned.triangles());
        assert_eq!(serial.snapshot(), fanned.snapshot());
    }

    #[test]
    fn drift_policy_folds_and_advances_the_epoch() {
        let config = StreamConfig {
            drift: DriftPolicy {
                max_touched_fraction: None,
                max_valid_slice_drift: None,
                max_updates: Some(2),
            },
            verify_on_fold: true,
            ..StreamConfig::default()
        };
        let mut dg = fig2_dynamic(config);
        assert_eq!(dg.epoch(), 0);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3).delete(1, 2).delete(0, 1);
        let outcome = dg.apply_batch(&batch).unwrap();
        assert!(outcome.folded);
        assert_eq!(dg.epoch(), 1);
        assert_eq!(dg.report().rebuilds, 1);
        assert_eq!(dg.drift().updates_since_fold, 0);
        assert_eq!(dg.drift().touched_rows, 0);
        // The folded artifact reflects the live state.
        assert_eq!(dg.prepared().key().edges, dg.edge_count());
    }

    #[test]
    fn epoch_snapshots_pin_fold_time_state() {
        let mut dg = fig2_dynamic(no_fold());
        let epoch0 = dg.epoch_snapshot();
        assert_eq!(epoch0.epoch, 0);
        assert_eq!(epoch0.triangles, 2);
        assert_eq!(epoch0.per_vertex.as_slice(), &[1, 2, 2, 1]);
        assert_eq!(epoch0.edges, 5);

        // Updates move the live state but never the pinned snapshot.
        dg.apply(Update::Insert(0, 3)).unwrap();
        assert_eq!(dg.triangles(), 4);
        assert_eq!(epoch0.triangles, 2);
        assert_eq!(dg.epoch_snapshot().epoch, 0, "no fold ⇒ no new epoch");
        assert_eq!(dg.epoch_snapshot().triangles, 2, "published state lags until a fold");

        // Publishing folds and captures the live state exactly.
        let epoch1 = dg.publish().unwrap();
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.triangles, 4);
        assert_eq!(epoch1.per_vertex.as_slice(), &[3, 3, 3, 3]);
        assert_eq!(epoch1.edges, 6);
        assert_eq!(epoch1.prepared.key().edges, 6);
        // The old snapshot is still intact for readers pinned to it.
        assert_eq!(epoch0.triangles, 2);

        // Publishing with nothing applied is a no-op.
        let again = dg.publish().unwrap();
        assert_eq!(again.epoch, 1);
        assert_eq!(dg.report().rebuilds, 1);
    }

    #[test]
    fn drift_folds_refresh_the_published_snapshot() {
        let config = StreamConfig {
            drift: DriftPolicy {
                max_touched_fraction: None,
                max_valid_slice_drift: None,
                max_updates: Some(1),
            },
            ..StreamConfig::default()
        };
        let mut dg = fig2_dynamic(config);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3).delete(1, 2);
        let outcome = dg.apply_batch(&batch).unwrap();
        assert!(outcome.folded);
        let snap = dg.epoch_snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.triangles, dg.triangles());
    }

    #[test]
    fn snapshot_round_trips_through_the_pipeline() {
        let mut dg = fig2_dynamic(no_fold());
        dg.apply(Update::Insert(0, 3)).unwrap();
        let snapshot = dg.snapshot();
        assert_eq!(snapshot.edge_count(), 6);
        let fresh = DynamicGraph::new(&snapshot, no_fold()).unwrap();
        assert_eq!(fresh.triangles(), dg.triangles());
    }

    #[test]
    fn report_accumulates_and_prices_work() {
        let mut dg = fig2_dynamic(no_fold());
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3).delete(2, 3);
        dg.apply_batch(&batch).unwrap();
        let r = dg.report();
        assert_eq!(r.inserts, 1);
        assert_eq!(r.deletes, 1);
        assert_eq!(r.kernel_invocations, 2);
        assert!(r.slice_pairs >= 2, "every kernel touched at least one pair");
        assert!(r.modelled_kernel_s > 0.0);
        assert!(r.amortized_kernel_s() > 0.0);
        assert_eq!(r.rebuilds, 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut dg = fig2_dynamic(no_fold());
        let outcome = dg.apply_batch(&UpdateBatch::new()).unwrap();
        assert_eq!(outcome.applied(), 0);
        assert_eq!(outcome.rounds, 0);
        assert!(!outcome.folded);
        assert_eq!(outcome.triangles, 2);
        assert_eq!(dg.report().batches, 1);
    }

    #[test]
    fn valid_slice_bookkeeping_matches_recomputation() {
        let g = classic::wheel(20);
        let mut dg = DynamicGraph::new(&g, no_fold()).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 10).insert(3, 11).delete(1, 2).delete(5, 6);
        dg.apply_batch(&batch).unwrap();
        let recomputed: u64 =
            (0..dg.vertex_count() as u32).map(|v| dg.row(v).valid_slice_count() as u64).sum();
        assert_eq!(dg.valid_slices(), recomputed);
    }
}
