//! The unified execution layer: interchangeable query engines behind
//! one [`ExecutionBackend`] trait, selected by value via [`Backend`]
//! (resolved by [`TcimPipeline::backend`](crate::TcimPipeline::backend))
//! and all consuming the same [`PreparedGraph`] artifact.
//!
//! Every backend implements one primitive,
//! [`run`](ExecutionBackend::run): execute the prepared graph at an
//! [`Attribution`] level and return one [`ExecutionReport`]. The level
//! says what the run reads out beyond the count — nothing, per-vertex
//! participation, or per-vertex participation plus per-arc support.
//! Backends only execute: the pipeline answers every
//! [`Query`](crate::Query) by running its backend at the level the query
//! needs ([`TcimPipeline::query_coalesced`](crate::TcimPipeline::query_coalesced)).
//! Swap the engine, keep the call site *and* the question.

use std::fmt;
use std::time::{Duration, Instant};

use tcim_arch::kernel;
use tcim_arch::{
    AccessStats, Attribution, PimEngine, PimRunResult, SliceCostModel, TriangleTally,
};
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_graph::OrientedGraph;
use tcim_sched::{SchedPolicy, ScheduledReport};

use crate::error::{CoreError, Result};
use crate::pipeline::PreparedGraph;
use crate::query::KernelStats;
use crate::sharded::{ShardPolicy, ShardProvenance};

/// A query engine that executes prepared graphs.
///
/// Implementations must be *pure executors*: they consume the prepared
/// oriented/sliced artifacts as-is and never re-orient or re-slice —
/// that is the pipeline's preparation stage. All faithful backends
/// produce identical answers for every query shape (property-tested
/// across the repository).
pub trait ExecutionBackend {
    /// Human-readable backend name (stable per configuration).
    fn name(&self) -> String;

    /// Executes a prepared graph at `attribution` — the engine's one
    /// primitive. [`Attribution::Count`] only counts (no AND-result
    /// readouts); the higher levels also attribute every triangle to its
    /// three vertices and, at [`Attribution::PerVertexWithSupport`], to
    /// its three arcs. On the PIM backends that reads each non-zero AND
    /// result back out of the array, which the modelled costs include.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] when the artifact does not match
    /// the backend (wrong slice size), and propagates engine-specific
    /// failures (e.g. invalid scheduling policies).
    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport>;

    /// [`run`](ExecutionBackend::run) at [`Attribution::Count`].
    ///
    /// # Errors
    ///
    /// As [`ExecutionBackend::run`].
    fn execute(&self, prepared: &PreparedGraph) -> Result<ExecutionReport> {
        self.run(prepared, Attribution::Count)
    }

    /// [`run`](ExecutionBackend::run) at [`Attribution::PerVertex`], or
    /// at [`Attribution::PerVertexWithSupport`] when `need_support` is
    /// set.
    ///
    /// # Errors
    ///
    /// As [`ExecutionBackend::run`].
    fn execute_attributed(
        &self,
        prepared: &PreparedGraph,
        need_support: bool,
    ) -> Result<ExecutionReport> {
        let attribution = if need_support {
            Attribution::PerVertexWithSupport
        } else {
            Attribution::PerVertex
        };
        self.run(prepared, attribution)
    }
}

/// Backend-specific payload of an [`ExecutionReport`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum BackendDetail {
    /// Full serial PIM simulation result.
    SerialPim(Box<PimRunResult>),
    /// Full scheduled multi-array report.
    ScheduledPim(Box<ScheduledReport>),
    /// Software slicing payload (work counters live in the shared
    /// [`ExecutionReport::kernel`]).
    Software {
        /// The popcount kernel used.
        popcount: PopcountMethod,
    },
    /// CPU baselines carry no extra payload.
    Cpu,
    /// Sharded execution provenance: shard count, imbalance, boundary
    /// arcs, per-shard kernel accounting.
    Sharded(Box<ShardProvenance>),
}

/// What one backend execution produced, at the [`Attribution`] level it
/// ran. Ids are *matrix* ids (the query layer maps them back to the
/// input graph).
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Which backend produced this report.
    pub backend: String,
    /// Exact triangle count.
    pub triangles: u64,
    /// Host wall-clock time of the execution stage only (preparation is
    /// accounted on the [`PreparedGraph`]).
    pub execute_time: Duration,
    /// Modelled accelerator latency (s), for simulated-hardware backends.
    pub modelled_time_s: Option<f64>,
    /// Modelled accelerator energy (J), for simulated-hardware backends.
    pub modelled_energy_j: Option<f64>,
    /// Access statistics, for backends that simulate the data buffer.
    pub stats: Option<AccessStats>,
    /// Normalized kernel accounting, identical in meaning across
    /// backends (the serial and scheduled PIM paths report identical
    /// `slice_pairs`/`kernel_invocations` by construction); includes
    /// the readouts of attributed runs.
    pub kernel: KernelStats,
    /// Triangles each matrix vertex participates in, summing to
    /// `3 × triangles`; present above [`Attribution::Count`].
    pub per_vertex: Option<Vec<u64>>,
    /// Triangle support per DAG arc, one count per arc in
    /// [`OrientedGraph::arcs`] order (row-major; zero for arcs in no
    /// triangle), as [`PreparedGraph::arc_index`] positions them;
    /// present at [`Attribution::PerVertexWithSupport`].
    pub support: Option<Vec<u64>>,
    /// Backend-specific payload.
    pub detail: BackendDetail,
}

impl ExecutionReport {
    /// Shard-level provenance, carried only by sharded executions.
    pub(crate) fn sharding(&self) -> Option<&ShardProvenance> {
        match &self.detail {
            BackendDetail::Sharded(provenance) => Some(provenance),
            _ => None,
        }
    }

    /// Moves an attributed run's tally into the report (a no-op at
    /// [`Attribution::Count`], which has none).
    fn with_tally(mut self, tally: Option<TriangleTally<'_>>) -> Self {
        if let Some(tally) = tally {
            let (_, per_vertex, support) = tally.into_parts();
            self.per_vertex = Some(per_vertex);
            self.support = support;
        }
        self
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>12} triangles  ({:.3} ms host",
            self.backend,
            self.triangles,
            self.execute_time.as_secs_f64() * 1e3
        )?;
        if let Some(t) = self.modelled_time_s {
            write!(f, ", {t:.3e} s modelled")?;
        }
        write!(f, ")")
    }
}

/// Value-based backend selection: which engine to run, with its
/// engine-specific knobs. Resolved against a pipeline's characterized
/// engine (and, for sharded selections, its sharded-artifact cache) by
/// [`TcimPipeline::backend`], which [`TcimPipeline::execute`] and
/// [`TcimPipeline::query_coalesced`] call.
///
/// [`TcimPipeline::backend`]: crate::TcimPipeline::backend
/// [`TcimPipeline::execute`]: crate::TcimPipeline::execute
/// [`TcimPipeline::query_coalesced`]: crate::TcimPipeline::query_coalesced
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backend {
    /// The serial processing-in-MRAM engine (`tcim-arch`).
    SerialPim,
    /// The multi-array scheduled PIM runtime (`tcim-sched`).
    ScheduledPim(SchedPolicy),
    /// The paper's "w/o PIM" column: the sliced dataflow in software.
    Software(PopcountMethod),
    /// CPU baseline: merge intersection over the oriented DAG.
    CpuMerge,
    /// CPU baseline: the forward algorithm over the oriented DAG.
    CpuForward,
    /// Sharded execution for graphs beyond one array's slice budget:
    /// per-shard scheduled PIM runs plus a cross-shard composition
    /// pass (`tcim-shard`). Unlike the other backends this one derives
    /// a [`ShardedPreparedGraph`](crate::ShardedPreparedGraph) from
    /// the prepared artifact, cached by the
    /// [`TcimPipeline`](crate::TcimPipeline) that binds it.
    Sharded(ShardPolicy),
}

impl Backend {
    /// The backend's display label (matches [`ExecutionBackend::name`]).
    pub fn label(&self) -> String {
        match self {
            Backend::SerialPim => "tcim-serial".to_string(),
            Backend::ScheduledPim(policy) => {
                format!("tcim-sched[{}x {}]", policy.arrays, policy.placement)
            }
            Backend::Software(PopcountMethod::Native) => "software-sliced[native]".to_string(),
            Backend::Software(PopcountMethod::Lut8) => "software-sliced[lut8]".to_string(),
            Backend::CpuMerge => "cpu-merge".to_string(),
            Backend::CpuForward => "cpu-forward".to_string(),
            Backend::Sharded(policy) => {
                format!(
                    "tcim-shard[{} via tcim-sched[{}x {}]]",
                    policy.spec, policy.inner.arrays, policy.inner.placement
                )
            }
        }
    }

    /// One representative of every backend family — the suite
    /// verification and experiments iterate.
    pub fn default_suite() -> Vec<Backend> {
        vec![
            Backend::CpuMerge,
            Backend::CpuForward,
            Backend::Software(PopcountMethod::Native),
            Backend::SerialPim,
            Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
        ]
    }
}

/// The shared [`KernelStats`] mapping for engines that simulate the
/// array: one kernel dispatch per processed edge, one slice pair per
/// AND.
fn kernel_from_stats(stats: &AccessStats) -> KernelStats {
    KernelStats {
        kernel_invocations: stats.edges,
        slice_pairs: stats.and_ops,
        result_readouts: stats.result_readouts,
        blocks_skipped: stats.blocks_skipped,
    }
}

/// The report of a host-only backend (software or CPU): nothing
/// modelled, no simulated data buffer.
fn host_report(
    backend: String,
    triangles: u64,
    start: Instant,
    kernel: KernelStats,
    detail: BackendDetail,
) -> ExecutionReport {
    ExecutionReport {
        backend,
        triangles,
        execute_time: start.elapsed(),
        modelled_time_s: None,
        modelled_energy_j: None,
        stats: None,
        kernel,
        per_vertex: None,
        support: None,
        detail,
    }
}

fn check_slice_size(
    backend: &str,
    engine: &PimEngine,
    prepared: &PreparedGraph,
) -> Result<()> {
    if prepared.slice_size() != engine.config().slice_size {
        return Err(CoreError::Pipeline {
            reason: format!(
                "{backend}: prepared with |S| = {} but the engine is characterized for |S| = {}",
                prepared.slice_size(),
                engine.config().slice_size
            ),
        });
    }
    Ok(())
}

/// Serial PIM execution over the prepared sliced matrix.
#[derive(Debug, Clone)]
pub struct SerialPimBackend<'e> {
    engine: &'e PimEngine,
}

impl<'e> SerialPimBackend<'e> {
    /// A serial backend running on `engine`.
    pub fn new(engine: &'e PimEngine) -> Self {
        SerialPimBackend { engine }
    }
}

impl ExecutionBackend for SerialPimBackend<'_> {
    fn name(&self) -> String {
        Backend::SerialPim.label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        check_slice_size(&self.name(), self.engine, prepared)?;
        let start = Instant::now();
        let mut tally = attribution.tally(prepared.matrix().dim(), || prepared.arc_index());
        let sim = match tally.as_mut() {
            Some(tally) => self.engine.run_attributed(prepared.matrix(), tally),
            None => self.engine.run(prepared.matrix()),
        };
        let report = ExecutionReport {
            backend: self.name(),
            triangles: sim.triangles,
            execute_time: start.elapsed(),
            modelled_time_s: Some(sim.total_time_s()),
            modelled_energy_j: Some(sim.total_energy_j()),
            stats: Some(sim.stats),
            kernel: kernel_from_stats(&sim.stats),
            per_vertex: None,
            support: None,
            detail: BackendDetail::SerialPim(Box::new(sim)),
        };
        Ok(report.with_tally(tally))
    }
}

/// Scheduled multi-array PIM execution over the prepared sliced matrix.
///
/// The cost model is resolved once at construction. A run executes the
/// artifact's memoized plan for this backend's policy
/// ([`PreparedGraph::schedule_plan`]), so only the first run on an
/// artifact decomposes and places.
#[derive(Debug, Clone)]
pub struct ScheduledPimBackend<'e> {
    engine: &'e PimEngine,
    policy: SchedPolicy,
    costs: SliceCostModel,
}

impl<'e> ScheduledPimBackend<'e> {
    /// A scheduled backend running `policy` on `engine`.
    pub fn new(engine: &'e PimEngine, policy: SchedPolicy) -> Self {
        let costs = engine.cost_model();
        ScheduledPimBackend { engine, policy, costs }
    }

    /// The scheduling policy this backend executes with.
    pub fn policy(&self) -> &SchedPolicy {
        &self.policy
    }
}

impl ExecutionBackend for ScheduledPimBackend<'_> {
    fn name(&self) -> String {
        Backend::ScheduledPim(self.policy.clone()).label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        let start = Instant::now();
        let (plan, built) = prepared.schedule_plan(self.engine, &self.policy, &self.costs)?;
        // The report bills the planning this run paid: none on a reuse.
        let paid = if built { plan.plan_time() } else { Duration::ZERO };
        let mut tally = attribution.tally(prepared.matrix().dim(), || prepared.arc_index());
        let report = plan.execute_into(prepared.matrix(), &self.policy, tally.as_mut(), paid);
        let report = ExecutionReport {
            backend: self.name(),
            triangles: report.triangles,
            execute_time: start.elapsed(),
            modelled_time_s: Some(report.critical_path_s),
            modelled_energy_j: Some(report.total_energy_j),
            stats: Some(report.stats),
            kernel: kernel_from_stats(&report.stats),
            per_vertex: None,
            support: None,
            detail: BackendDetail::ScheduledPim(Box::new(report)),
        };
        Ok(report.with_tally(tally))
    }
}

/// The sliced dataflow executed in software over the prepared matrix
/// (the paper's "This Work w/o PIM" column).
#[derive(Debug, Clone, Copy)]
pub struct SoftwareBackend {
    popcount: PopcountMethod,
}

impl SoftwareBackend {
    /// A software backend using `popcount` for bit counting.
    pub fn new(popcount: PopcountMethod) -> Self {
        SoftwareBackend { popcount }
    }
}

impl ExecutionBackend for SoftwareBackend {
    fn name(&self) -> String {
        Backend::Software(self.popcount).label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        let start = Instant::now();
        let matrix = prepared.matrix();
        let mut tally = attribution.tally(matrix.dim(), || prepared.arc_index());
        let rows = std::iter::once(0..matrix.edge_count());
        let walk = kernel::walk(matrix, rows, self.popcount, &mut (), tally.as_mut());
        // Host-side: no array, so no readouts to bill.
        let kernel = KernelStats { result_readouts: 0, ..kernel_from_stats(&walk.stats) };
        let detail = BackendDetail::Software { popcount: self.popcount };
        Ok(host_report(self.name(), walk.triangles, start, kernel, detail).with_tally(tally))
    }
}

/// Visits each common element of two sorted slices — the two-pointer
/// walk the CPU merge baseline and the motif engine's adjacency flavor
/// build on.
pub(crate) fn merge_intersect_visit(a: &[u32], b: &[u32], mut visit: impl FnMut(u32)) {
    merge_intersect_ranks(a, b, |x, _| visit(a[x]));
}

/// Visits each common element of two sorted slices by its ranks `(x,
/// y)` in `a` and `b` — the one implementation of the two-pointer walk.
fn merge_intersect_ranks(a: &[u32], b: &[u32], mut visit: impl FnMut(usize, usize)) {
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                visit(x, y);
                x += 1;
                y += 1;
            }
        }
    }
}

/// The CPU baselines' [`KernelStats`]: one per-edge intersection per
/// arc, no slicing, no readouts.
fn cpu_kernel(prepared: &PreparedGraph) -> KernelStats {
    KernelStats {
        kernel_invocations: prepared.oriented().arc_count() as u64,
        slice_pairs: 0,
        result_readouts: 0,
        blocks_skipped: 0,
    }
}

/// CPU merge-intersection baseline over the prepared DAG: for every arc
/// `(i, j)`, count the common out-neighbours of `i` and `j`. Under any
/// acyclic orientation each triangle has exactly one vertex with arcs to
/// the other two, so the per-arc intersections sum to the triangle count
/// without division.
#[derive(Debug, Clone, Copy)]
pub struct CpuMergeBackend;

impl ExecutionBackend for CpuMergeBackend {
    fn name(&self) -> String {
        Backend::CpuMerge.label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        let start = Instant::now();
        let dag = prepared.oriented();
        let mut tally = attribution.tally(dag.vertex_count(), || prepared.arc_index());
        let mut sink = tally.as_mut();
        let mut triangles = 0u64;
        // A per-vertex tally ignores arc positions, so they are looked up
        // only when support is kept.
        let arcs =
            (attribution == Attribution::PerVertexWithSupport).then(|| prepared.arc_index());
        let at =
            |a, b| arcs.map_or(0, |arcs| arcs.position(a, b).expect("DAG arcs are indexed"));
        for (position, (i, j)) in dag.arcs().enumerate() {
            // A common out-neighbour w closes the triangle {i, j, w},
            // whose arcs are (i, j), (i, w) and (j, w).
            merge_intersect_visit(dag.row(i), dag.row(j), |w| {
                triangles += 1;
                if let Some(sink) = sink.as_deref_mut() {
                    sink.triangle_at([i, j, w], [position, at(i, w), at(j, w)]);
                }
            });
        }
        let report = host_report(
            self.name(),
            triangles,
            start,
            cpu_kernel(prepared),
            BackendDetail::Cpu,
        );
        Ok(report.with_tally(tally))
    }
}

/// CPU forward-algorithm baseline (Schank & Wagner) over the prepared
/// DAG: processing vertices in id order, intersect the dynamically grown
/// predecessor sets `A[i] ∩ A[j]` per arc `(i, j)`, then append `i` to
/// `A[j]`. Exact for any topologically ordered DAG, which every
/// [`Orientation`](tcim_graph::Orientation) produces.
#[derive(Debug, Clone, Copy)]
pub struct CpuForwardBackend;

impl ExecutionBackend for CpuForwardBackend {
    fn name(&self) -> String {
        Backend::CpuForward.label()
    }

    fn run(
        &self,
        prepared: &PreparedGraph,
        attribution: Attribution,
    ) -> Result<ExecutionReport> {
        let start = Instant::now();
        let dag = prepared.oriented();
        let mut tally = attribution.tally(dag.vertex_count(), || prepared.arc_index());
        let triangles = forward(dag, tally.as_mut());
        let report = host_report(
            self.name(),
            triangles,
            start,
            cpu_kernel(prepared),
            BackendDetail::Cpu,
        );
        Ok(report.with_tally(tally))
    }
}

/// The forward algorithm's one loop, at every attribution level. The
/// predecessor sets live in one flat array, vertex `v`'s in a block
/// sized by its in-degree, and every entry carries the position of its
/// arc (arcs are visited row-major, so a running counter is the
/// position): a common predecessor's two entries name the triangle's
/// other two arcs, so no arc is ever looked up. Returns the triangle
/// count.
fn forward(dag: &OrientedGraph, mut tally: Option<&mut TriangleTally<'_>>) -> u64 {
    let n = dag.vertex_count();
    let arc_count = u32::try_from(dag.arc_count()).expect("arc positions fit in u32");
    // `starts[v]..ends[v]` holds the predecessors of `v` seen so far:
    // tails ascending, each beside its arc's position.
    let mut starts = vec![0u32; n + 1];
    for (_, j) in dag.arcs() {
        starts[j as usize + 1] += 1;
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut ends = starts[..n].to_vec();
    let mut tails = vec![0u32; arc_count as usize];
    let mut positions = vec![0u32; arc_count as usize];
    let mut triangles = 0u64;
    let mut position = 0u32;
    for i in 0..n as u32 {
        let into_i = starts[i as usize] as usize..ends[i as usize] as usize;
        for &j in dag.row(i) {
            let into_j = starts[j as usize] as usize..ends[j as usize] as usize;
            let (from_i, from_j) = (&tails[into_i.clone()], &tails[into_j.clone()]);
            merge_intersect_ranks(from_i, from_j, |x, y| {
                // A common predecessor w closes the triangle {w, i, j},
                // whose arcs are (w, i), (w, j) and (i, j).
                triangles += 1;
                if let Some(tally) = tally.as_deref_mut() {
                    let (wi, wj) = (positions[into_i.start + x], positions[into_j.start + y]);
                    let arcs = [wi as usize, wj as usize, position as usize];
                    tally.triangle_at([from_i[x], i, j], arcs);
                }
            });
            // Predecessors arrive in ascending i, so blocks stay sorted.
            let slot = &mut ends[j as usize];
            tails[*slot as usize] = i;
            positions[*slot as usize] = position;
            *slot += 1;
            position += 1;
        }
    }
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use tcim_bitmatrix::SliceSize;
    use tcim_graph::generators::{classic, gnm};
    use tcim_graph::Orientation;

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    #[test]
    fn every_backend_counts_fig2() {
        let p = pipeline();
        let prepared = p.prepare(&classic::fig2_example());
        for spec in Backend::default_suite() {
            let report = p.execute(&prepared, &spec).unwrap();
            assert_eq!(report.triangles, 2, "{}", spec.label());
            assert_eq!(report.backend, spec.label());
        }
    }

    #[test]
    fn backends_agree_with_the_graph_level_baseline() {
        let g = gnm(300, 2100, 5).unwrap();
        let expected = baseline::edge_iterator_merge(&g);
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            let p = TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() })
                .unwrap();
            let prepared = p.prepare(&g);
            for spec in Backend::default_suite() {
                let report = p.execute(&prepared, &spec).unwrap();
                assert_eq!(report.triangles, expected, "{orientation:?} {}", spec.label());
            }
        }
    }

    #[test]
    fn pim_backends_carry_modelled_costs_and_stats() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(150, 900, 2).unwrap());
        for spec in [Backend::SerialPim, Backend::ScheduledPim(SchedPolicy::with_arrays(2))] {
            let report = p.execute(&prepared, &spec).unwrap();
            assert!(report.modelled_time_s.unwrap() > 0.0, "{}", spec.label());
            assert!(report.modelled_energy_j.unwrap() > 0.0, "{}", spec.label());
            let stats = report.stats.unwrap();
            assert_eq!(stats.edges as usize, prepared.matrix().edge_count());
            assert_eq!(stats.and_ops, prepared.pricing().slice_pairs);
        }
        let sw = p.execute(&prepared, &Backend::Software(PopcountMethod::Lut8)).unwrap();
        assert!(sw.modelled_time_s.is_none());
        assert!(matches!(
            sw.detail,
            BackendDetail::Software { popcount: PopcountMethod::Lut8 }
        ));
        assert_eq!(sw.kernel.slice_pairs, prepared.pricing().slice_pairs);
    }

    /// Satellite regression: the normalized `KernelStats` report the
    /// identical work for the serial and scheduled PIM paths, and the
    /// software path's pair count matches them too.
    #[test]
    fn kernel_stats_are_identical_across_faithful_backends() {
        let p = pipeline();
        let prepared = p.prepare(&gnm(220, 1600, 13).unwrap());
        let serial = p.execute(&prepared, &Backend::SerialPim).unwrap().kernel;
        for arrays in [1usize, 2, 4, 8] {
            let sched = p
                .execute(&prepared, &Backend::ScheduledPim(SchedPolicy::with_arrays(arrays)))
                .unwrap()
                .kernel;
            assert_eq!(sched, serial, "{arrays} arrays");
        }
        let sw = p.execute(&prepared, &Backend::Software(PopcountMethod::Native)).unwrap();
        assert_eq!(sw.kernel.slice_pairs, serial.slice_pairs);
        assert_eq!(sw.kernel.kernel_invocations, serial.kernel_invocations);
        // CPU baselines dispatch per arc but process no slices.
        let cpu = p.execute(&prepared, &Backend::CpuMerge).unwrap().kernel;
        assert_eq!(cpu.kernel_invocations, serial.kernel_invocations);
        assert_eq!(cpu.slice_pairs, 0);
    }

    /// Attributed runs account for the same work as the count run: the
    /// same access statistics, kernel census and backend detail, apart
    /// from the readouts the attribution adds — on all six backends over
    /// dense and sparse rows.
    #[test]
    fn attributed_runs_keep_the_count_runs_stats_and_detail() {
        use crate::sharded::ShardPolicy;
        use tcim_bitmatrix::EncodingPolicy;
        use tcim_graph::generators::barabasi_albert;

        let g = barabasi_albert(300, 5, 7).unwrap();
        let backends = [
            Backend::SerialPim,
            Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
            Backend::Software(PopcountMethod::Lut8),
            Backend::CpuMerge,
            Backend::CpuForward,
            Backend::Sharded(ShardPolicy::with_shards(4).inner(SchedPolicy::with_arrays(2))),
        ];
        let without_readouts = |stats: Option<AccessStats>| {
            stats.map(|s| AccessStats { result_readouts: 0, ..s })
        };
        for encoding in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
            let p =
                TcimPipeline::new(&TcimConfig { encoding, ..TcimConfig::default() }).unwrap();
            let prepared = p.prepare(&g);
            for spec in &backends {
                let backend = p.backend(spec);
                let count = backend.run(&prepared, Attribution::Count).unwrap();
                assert!(count.per_vertex.is_none() && count.support.is_none());
                for level in [Attribution::PerVertex, Attribution::PerVertexWithSupport] {
                    let ctx = format!("{encoding:?} {} {level:?}", spec.label());
                    let run = backend.run(&prepared, level).unwrap();
                    assert_eq!(run.triangles, count.triangles, "{ctx}");
                    assert_eq!(
                        without_readouts(run.stats),
                        without_readouts(count.stats),
                        "{ctx}"
                    );
                    assert_eq!(
                        KernelStats { result_readouts: 0, ..run.kernel },
                        KernelStats { result_readouts: 0, ..count.kernel },
                        "{ctx}"
                    );
                    assert_eq!(
                        std::mem::discriminant(&run.detail),
                        std::mem::discriminant(&count.detail),
                        "{ctx}"
                    );
                    if let BackendDetail::Software { popcount } = run.detail {
                        assert_eq!(popcount, PopcountMethod::Lut8, "{ctx}");
                    }
                    let per_vertex = run.per_vertex.unwrap();
                    assert_eq!(per_vertex.iter().sum::<u64>(), 3 * run.triangles, "{ctx}");
                    let support = run.support.map(|s| s.iter().sum());
                    let expected = (level == Attribution::PerVertexWithSupport)
                        .then_some(3 * run.triangles);
                    assert_eq!(support, expected, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn slice_size_mismatch_is_a_pipeline_error() {
        let p = pipeline();
        // Prepare with a *different* slice size than the engine's.
        let g = classic::wheel(20);
        let prepared = crate::pipeline::PreparedGraph::build(
            &g,
            Orientation::Natural,
            SliceSize::S32,
            tcim_bitmatrix::EncodingPolicy::default(),
            p.engine(),
        );
        let err = p.execute(&prepared, &Backend::SerialPim).unwrap_err();
        assert!(matches!(err, CoreError::Pipeline { .. }), "{err}");
        // Scheduled PIM reports the same mismatch through sched's error.
        assert!(p.execute(&prepared, &Backend::ScheduledPim(SchedPolicy::default())).is_err());
        // Backends that do not touch the engine still run.
        assert_eq!(p.execute(&prepared, &Backend::CpuMerge).unwrap().triangles, 19);
    }

    #[test]
    fn invalid_policy_propagates() {
        let p = pipeline();
        let prepared = p.prepare(&classic::wheel(8));
        let err = p
            .execute(&prepared, &Backend::ScheduledPim(SchedPolicy::with_arrays(0)))
            .unwrap_err();
        assert!(matches!(err, CoreError::Sched(_)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Backend::SerialPim.label(), "tcim-serial");
        assert_eq!(Backend::CpuMerge.label(), "cpu-merge");
        assert_eq!(Backend::CpuForward.label(), "cpu-forward");
        assert_eq!(Backend::Software(PopcountMethod::Lut8).label(), "software-sliced[lut8]");
        assert_eq!(
            Backend::ScheduledPim(SchedPolicy::with_arrays(4)).label(),
            "tcim-sched[4x load-balanced]"
        );
    }

    #[test]
    fn report_display_is_informative() {
        let p = pipeline();
        let prepared = p.prepare(&classic::fig2_example());
        let report = p.execute(&prepared, &Backend::SerialPim).unwrap();
        let text = report.to_string();
        assert!(text.contains("tcim-serial"));
        assert!(text.contains("2 triangles"));
        assert!(text.contains("modelled"));
    }
}
