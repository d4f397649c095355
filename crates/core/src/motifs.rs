//! The motif engine: k-truss decomposition and 4-clique counting on
//! the same AND+BitCount kernel family that counts triangles.
//!
//! The journal extension of the source paper frames triangle counting
//! as the base case of a family of subgraph analytics that all reduce
//! to bulk bitwise AND plus BitCount. This module implements the next
//! two members over the *full-neighbourhood* rows of the input graph
//! (in input-id space, so answers are orientation-invariant by
//! construction):
//!
//! * **k-truss** ([`Query::KTruss`]): the full trussness decomposition
//!   by iterated support peeling. Each peeled edge costs exactly one
//!   deletion-delta kernel — `N(u) AND N(v)` over the *live* rows to
//!   find the triangles the removal destroys — and edges are cleared
//!   with in-place bit patches, exactly like `tcim-stream` deletion
//!   deltas: **no re-slice between rounds**, ever. The initial per-edge
//!   supports are seeded from the anchoring attributed execution
//!   (`EdgeSupport` is already computed on every backend), so peeling
//!   starts from the kernels the backend already ran.
//! * **4-clique** ([`Query::FourCliques`]): for every edge, the first
//!   AND yields the triangle witness row; its above-the-edge witnesses
//!   flow through the existing [`TriangleSink`] attribution hook (a
//!   [`TriangleTally`] re-derives the anchor run's census as a built-in
//!   cross-check), then a **second AND** is chained over the
//!   re-materialized witness row against each witness's neighbourhood
//!   row, closing each `K_4` exactly once at its two smallest vertices.
//!
//! Kernel accounting is honest per flavor: PIM/software backends run
//! [`MotifFlavor::Sliced`] (real sliced rows, pair/readout/skip
//! accounting identical in meaning to the triangle kernels), CPU
//! baselines run [`MotifFlavor::Adjacency`] (sorted-list merges, one
//! kernel invocation per intersection and zero slice pairs — the same
//! invariant the triangle path keeps). Backends with a hardware cost
//! model attach a [`MotifPricing`]: every peel pass / chained-AND wave
//! becomes a round of [`DeltaJob`]s placed by [`plan_deltas`] under
//! the backend's own scheduling policy, and the modelled time/energy
//! land on top of the anchor run's.

use std::collections::BTreeMap;
use std::time::Instant;

use tcim_arch::{kernel, SliceCostModel, TriangleSink, TriangleTally};
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::{RowEncoding, SliceSize, SlicedRow};
use tcim_sched::{plan_deltas, DeltaJob, SchedPolicy};

use crate::backend::{merge_intersect_visit, ExecutionReport};
use crate::error::{CoreError, Result};
use crate::pipeline::PreparedGraph;
use crate::query::{EdgeTruss, KernelStats, Query, QueryReport, QueryValue};

/// What a motif engine hands back: the answer payload plus the kernel
/// stats and the modelled time/energy accumulated over its rounds.
type MotifOutcome<T> = Result<(T, KernelStats, Option<f64>, Option<f64>)>;

/// How a backend's motif engine runs its intersections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MotifFlavor {
    /// Real sliced-row AND+BitCount kernels over full-neighbourhood
    /// rows (PIM and software-sliced backends). Pair, readout and
    /// skip accounting mean exactly what they mean for triangles.
    Sliced,
    /// Sorted adjacency-list merges (the CPU baselines): one kernel
    /// invocation per intersection, zero slice pairs — the same
    /// "CPU baselines intersect adjacency lists" invariant the
    /// triangle path keeps.
    Adjacency,
}

/// The cost model a simulated-hardware backend prices motif kernels
/// with: its engine's slice costs plus its own scheduling policy, so
/// peel passes and chained-AND waves are placed as delta-job rounds
/// exactly like streaming updates and shard composition.
#[derive(Debug, Clone)]
pub struct MotifPricing {
    /// Per-operation slice costs of the characterized engine.
    pub costs: SliceCostModel,
    /// The placement policy delta rounds are planned under.
    pub sched: SchedPolicy,
}

impl MotifPricing {
    /// Prices motif kernels with `costs` under `sched`.
    pub fn new(costs: SliceCostModel, sched: SchedPolicy) -> Self {
        MotifPricing { costs, sched }
    }
}

/// One intersection's pricing sample (operand sizes + observed work).
#[derive(Debug, Clone, Copy, Default)]
struct KernelSample {
    valid_a: u64,
    valid_b: u64,
    pairs: u64,
    readouts: u64,
}

/// Accumulates delta-job rounds into modelled time/energy under a
/// [`MotifPricing`]; a no-op when the backend has none.
struct PricedRounds<'p> {
    pricing: Option<&'p MotifPricing>,
    round: Vec<DeltaJob>,
    time_s: f64,
    energy_j: f64,
}

impl<'p> PricedRounds<'p> {
    fn new(pricing: Option<&'p MotifPricing>) -> Self {
        PricedRounds { pricing, round: Vec::new(), time_s: 0.0, energy_j: 0.0 }
    }

    /// Adds one kernel to the open round and bills its energy (energy
    /// is placement-independent; latency waits for the round plan).
    fn push(&mut self, sample: KernelSample) {
        let Some(p) = self.pricing else { return };
        let id = self.round.len();
        let job = DeltaJob::price(id, sample.valid_a, sample.valid_b, sample.pairs, &p.costs);
        self.energy_j += job.write_slices as f64 * p.costs.write_energy_j
            + sample.pairs as f64 * (p.costs.and_energy_j + p.costs.bitcount_energy_j)
            + sample.readouts as f64 * p.costs.readout_energy_j;
        self.round.push(job);
    }

    /// Closes the open round: places its jobs under the policy and
    /// adds the plan's critical path plus per-kernel dispatch overhead.
    fn close_round(&mut self) -> Result<()> {
        let Some(p) = self.pricing else { return Ok(()) };
        if self.round.is_empty() {
            return Ok(());
        }
        let plan = plan_deltas(&self.round, &p.sched)?;
        self.time_s +=
            plan.critical_path_s() + self.round.len() as f64 * p.costs.controller_overhead_s;
        self.round.clear();
        Ok(())
    }

    fn modelled(&self) -> (Option<f64>, Option<f64>) {
        match self.pricing {
            Some(_) => (Some(self.time_s), Some(self.energy_j)),
            None => (None, None),
        }
    }
}

/// The live motif state: full-neighbourhood adjacency (input ids,
/// sorted) plus, for the sliced flavor, one [`SlicedRow`] per vertex.
/// Rows are built with [`SlicedRow::from_sorted_indices`] and patched
/// in place with `clear_bit` — never via a matrix build, so
/// `matrices_built()` provably stays flat across peeling.
struct MotifState {
    adjacency: Vec<Vec<u32>>,
    rows: Option<Vec<SlicedRow>>,
    slice_size: SliceSize,
    kernel: KernelStats,
}

impl MotifState {
    fn new(
        adjacency: Vec<Vec<u32>>,
        flavor: MotifFlavor,
        slice_size: SliceSize,
        encoding: RowEncoding,
    ) -> Self {
        let n = adjacency.len();
        let rows = match flavor {
            MotifFlavor::Adjacency => None,
            MotifFlavor::Sliced => Some(
                adjacency
                    .iter()
                    .map(|list| {
                        SlicedRow::from_sorted_indices(
                            n,
                            list.iter().map(|&v| v as usize),
                            slice_size,
                            encoding,
                        )
                    })
                    .collect(),
            ),
        };
        MotifState { adjacency, rows, slice_size, kernel: KernelStats::default() }
    }

    /// `N(u) ∩ N(v)` over the live state: one AND+BitCount kernel
    /// (sliced flavor) or one sorted merge (adjacency flavor), with
    /// the flavor's honest accounting.
    fn intersect(&mut self, u: u32, v: u32) -> (Vec<u32>, KernelSample) {
        match &self.rows {
            Some(rows) => {
                sliced_kernel((u, v), &rows[u as usize], &rows[v as usize], &mut self.kernel)
            }
            None => merged_kernel(
                &self.adjacency[u as usize],
                &self.adjacency[v as usize],
                &mut self.kernel,
            ),
        }
    }

    /// As [`MotifState::intersect`], against an ad-hoc operand row
    /// (the chained second AND over a re-materialized witness row).
    fn intersect_row(&mut self, c: u32, witness_row: &WitnessRow) -> (Vec<u32>, KernelSample) {
        match (&self.rows, witness_row) {
            // The witness row has no vertex of its own; the witness
            // sink reads only the surviving bits.
            (Some(rows), WitnessRow::Sliced(row)) => {
                sliced_kernel((c, c), &rows[c as usize], row, &mut self.kernel)
            }
            (None, WitnessRow::List(list)) => {
                merged_kernel(&self.adjacency[c as usize], list, &mut self.kernel)
            }
            _ => unreachable!("witness rows are built by the same state"),
        }
    }

    /// Removes edge `{u, v}` from the live state: list removal plus an
    /// in-place `clear_bit` patch on both rows (a deletion delta).
    fn remove_edge(&mut self, u: u32, v: u32) {
        for (x, y) in [(u, v), (v, u)] {
            let list = &mut self.adjacency[x as usize];
            if let Ok(pos) = list.binary_search(&y) {
                list.remove(pos);
            }
            if let Some(rows) = &mut self.rows {
                rows[x as usize]
                    .clear_bit(y as usize)
                    .expect("edge endpoints are within the row universe");
            }
        }
    }

    /// Materializes a witness set as a kernel operand for the chained
    /// second AND.
    fn witness_row(&self, n: usize, witnesses: &[u32]) -> WitnessRow {
        match &self.rows {
            Some(rows) => {
                let encoding = rows.first().map_or(RowEncoding::Dense, SlicedRow::encoding);
                let row = SlicedRow::from_sorted_indices(
                    n,
                    witnesses.iter().map(|&w| w as usize),
                    self.slice_size,
                    encoding,
                );
                WitnessRow::Sliced(row)
            }
            None => WitnessRow::List(witnesses.to_vec()),
        }
    }
}

/// The sliced kernel over `arc`: AND matching valid pairs, read each
/// non-zero result back out for its witnesses. Sparse operands whose
/// byte masks prove every pair disjoint are never dispatched — the
/// kernel's one dispatch rule.
fn sliced_kernel(
    arc: (u32, u32),
    a: &SlicedRow,
    b: &SlicedRow,
    stats: &mut KernelStats,
) -> (Vec<u32>, KernelSample) {
    let mut witnesses = Vec::new();
    let run = kernel::and_bitcount(
        arc,
        a,
        b,
        PopcountMethod::Native,
        Some(&mut witnesses),
        |_, _| {},
    );
    stats.kernel_invocations += u64::from(run.dispatched);
    stats.slice_pairs += run.pairs.visited;
    stats.blocks_skipped += run.pairs.skipped;
    stats.result_readouts += run.readouts;
    let sample = KernelSample {
        valid_a: a.valid_slice_count() as u64,
        valid_b: b.valid_slice_count() as u64,
        pairs: run.pairs.visited,
        readouts: run.readouts,
    };
    (witnesses, sample)
}

/// A re-materialized witness set, in the state's operand form.
enum WitnessRow {
    Sliced(SlicedRow),
    List(Vec<u32>),
}

/// The adjacency flavor's kernel: one sorted-list merge, counted as one
/// invocation with no slice pairs.
fn merged_kernel(a: &[u32], b: &[u32], stats: &mut KernelStats) -> (Vec<u32>, KernelSample) {
    let mut witnesses = Vec::new();
    merge_intersect_visit(a, b, |w| witnesses.push(w));
    stats.kernel_invocations += 1;
    (witnesses, KernelSample::default())
}

/// Full-neighbourhood adjacency of the prepared graph in *input-id*
/// space (the orientation's relabelling undone), sorted ascending.
fn full_adjacency(prepared: &PreparedGraph) -> Vec<Vec<u32>> {
    let oriented = prepared.oriented();
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); oriented.vertex_count()];
    for (i, j) in oriented.arcs() {
        let a = oriented.original_id(i);
        let b = oriented.original_id(j);
        adjacency[a as usize].push(b);
        adjacency[b as usize].push(a);
    }
    for list in &mut adjacency {
        list.sort_unstable();
    }
    adjacency
}

/// Seeds the per-edge support map (every edge, input ids, `u < v`)
/// from the anchor run's arc-support list — zero-filled for edges in
/// no triangle, which the attributed run omits.
fn seeded_support(
    prepared: &PreparedGraph,
    adjacency: &[Vec<u32>],
    support: Option<&[(u32, u32, u64)]>,
) -> BTreeMap<(u32, u32), u64> {
    let mut map = BTreeMap::new();
    for (u, list) in adjacency.iter().enumerate() {
        let u = u as u32;
        for &v in list.iter().filter(|&&v| v > u) {
            map.insert((u, v), 0u64);
        }
    }
    let oriented = prepared.oriented();
    for &(i, j, s) in support.into_iter().flatten() {
        let a = oriented.original_id(i);
        let b = oriented.original_id(j);
        map.insert((a.min(b), a.max(b)), s);
    }
    map
}

/// The peeling engine: full trussness decomposition by iterated
/// support peeling. At level `k = 3, 4, …`, edges with support below
/// `k − 2` are peeled to a fixpoint (each peel is one deletion-delta
/// kernel over the live rows; the destroyed triangles' other two edges
/// are decremented in place) and assigned trussness `k − 1`. Each peel
/// pass is priced as one delta-job round. The decomposition computes
/// *every* edge's trussness regardless of the queried level, so one
/// run answers any `k` (and cross-`k` batches coalesce for free).
fn truss_decompose(
    mut state: MotifState,
    mut support: BTreeMap<(u32, u32), u64>,
    pricing: Option<&MotifPricing>,
) -> MotifOutcome<Vec<EdgeTruss>> {
    let mut priced = PricedRounds::new(pricing);
    let mut truss: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut level = 3u32;
    while !support.is_empty() {
        loop {
            // The peel set is re-read from the live supports each pass
            // (deterministic ascending edge order); supports only ever
            // decrease, so every selected edge still qualifies when
            // its turn comes, whatever its batch-mates destroyed.
            let peel: Vec<(u32, u32)> = support
                .iter()
                .filter(|&(_, &s)| s < u64::from(level - 2))
                .map(|(&e, _)| e)
                .collect();
            if peel.is_empty() {
                break;
            }
            for (u, v) in peel {
                let (witnesses, sample) = state.intersect(u, v);
                priced.push(sample);
                for w in witnesses {
                    // Removing {u, v} destroys triangle {u, v, w}: its
                    // other two edges each lose one support.
                    for e in [(u.min(w), u.max(w)), (v.min(w), v.max(w))] {
                        let s = support
                            .get_mut(&e)
                            .expect("witnesses come from live rows, so both edges are live");
                        *s = s.saturating_sub(1);
                    }
                }
                state.remove_edge(u, v);
                support.remove(&(u, v));
                truss.insert((u, v), level - 1);
            }
            priced.close_round()?;
        }
        level += 1;
    }
    let edges =
        truss.into_iter().map(|((u, v), trussness)| EdgeTruss { u, v, trussness }).collect();
    let (time_s, energy_j) = priced.modelled();
    Ok((edges, state.kernel, time_s, energy_j))
}

/// The chained-AND 4-clique engine. For every edge `(u, v)`, `u < v`:
/// the first AND yields the witness set; witnesses above `v` flow
/// through the [`TriangleSink`] hook (each triangle exactly once, at
/// its smallest edge) and form the witness row `W`; then for each
/// witness `c` (except the largest, which has no candidate partner) a
/// second AND of `N(c)` against the re-materialized `W` closes every
/// `K_4 = {u < v < c < x}` exactly once. The witness-row writes and
/// both AND waves are billed (rounds: all first ANDs, then all
/// chained ANDs).
fn four_clique_engine(
    mut state: MotifState,
    pricing: Option<&MotifPricing>,
    expected_triangles: Option<u64>,
) -> MotifOutcome<(u64, Vec<u64>)> {
    let n = state.adjacency.len();
    let mut priced = PricedRounds::new(pricing);
    let mut tally = TriangleTally::new(n, false);
    let mut per_vertex = vec![0u64; n];
    let mut total = 0u64;
    let edges: Vec<(u32, u32)> = state
        .adjacency
        .iter()
        .enumerate()
        .flat_map(|(u, list)| {
            let u = u as u32;
            list.iter().copied().filter(move |&v| v > u).map(move |v| (u, v))
        })
        .collect();
    // Pass 1: per-edge triangle witness rows (the kernels the triangle
    // count already runs, re-driven here over full-neighbourhood rows).
    let mut chained: Vec<((u32, u32), Vec<u32>)> = Vec::new();
    for (u, v) in edges {
        let (witnesses, sample) = state.intersect(u, v);
        priced.push(sample);
        let above: Vec<u32> = witnesses.into_iter().filter(|&w| w > v).collect();
        for &w in &above {
            tally.triangle(u, v, w);
        }
        if above.len() >= 2 {
            chained.push(((u, v), above));
        }
    }
    priced.close_round()?;
    if let Some(expected) = expected_triangles {
        let (found, _, _) = tally.into_parts();
        if found != expected {
            return Err(CoreError::Pipeline {
                reason: format!(
                    "4-clique witness pass found {found} triangles but the anchor \
                     run counted {expected}"
                ),
            });
        }
    }
    // Pass 2: chain the second AND over each witness row. The row's
    // valid slices are billed as the second operand's write cost in
    // each chained job — the array must hold W to AND against it.
    for ((u, v), above) in chained {
        let witness_row = state.witness_row(n, &above);
        for &c in &above[..above.len() - 1] {
            let (xs, sample) = state.intersect_row(c, &witness_row);
            priced.push(sample);
            for x in xs.into_iter().filter(|&x| x > c) {
                total += 1;
                for p in [u, v, c, x] {
                    per_vertex[p as usize] += 1;
                }
            }
        }
    }
    priced.close_round()?;
    let (time_s, energy_j) = priced.modelled();
    Ok(((total, per_vertex), state.kernel, time_s, energy_j))
}

/// Merges the motif engine's accounting on top of the anchor run's
/// into the final report envelope.
#[allow(clippy::too_many_arguments)]
fn assemble(
    prepared: &PreparedGraph,
    query: &Query,
    base: ExecutionReport,
    value: QueryValue,
    motif_kernel: KernelStats,
    motif_time_s: Option<f64>,
    motif_energy_j: Option<f64>,
    started: Instant,
) -> QueryReport {
    let combine = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        (a, b) => a.or(b),
    };
    QueryReport {
        execute_time: base.execute_time + started.elapsed(),
        modelled_time_s: combine(base.modelled_time_s, motif_time_s),
        modelled_energy_j: combine(base.modelled_energy_j, motif_energy_j),
        kernel: base.kernel.merged(&motif_kernel),
        ..QueryReport::of_run(query, value, prepared, &base)
    }
}

/// Answers [`Query::KTruss`] over a prepared graph, anchored on the
/// backend's own attributed run (`base` must carry the support list).
pub(crate) fn ktruss_report(
    prepared: &PreparedGraph,
    query: &Query,
    base: ExecutionReport,
    flavor: MotifFlavor,
    pricing: Option<MotifPricing>,
    k: u32,
) -> Result<QueryReport> {
    let started = Instant::now();
    let adjacency = full_adjacency(prepared);
    let support = seeded_support(prepared, &adjacency, base.support.as_deref());
    let state = MotifState::new(adjacency, flavor, prepared.slice_size(), prepared.encoding());
    let (edges, kernel, time_s, energy_j) = truss_decompose(state, support, pricing.as_ref())?;
    let value = QueryValue::KTruss { k, edges };
    Ok(assemble(prepared, query, base, value, kernel, time_s, energy_j, started))
}

/// Answers [`Query::FourCliques`] over a prepared graph, anchored on
/// the backend's own attributed run (whose triangle census the first
/// witness pass must reproduce).
pub(crate) fn four_clique_report(
    prepared: &PreparedGraph,
    query: &Query,
    base: ExecutionReport,
    flavor: MotifFlavor,
    pricing: Option<MotifPricing>,
) -> Result<QueryReport> {
    let started = Instant::now();
    let adjacency = full_adjacency(prepared);
    let state = MotifState::new(adjacency, flavor, prepared.slice_size(), prepared.encoding());
    let ((total, per_vertex), kernel, time_s, energy_j) =
        four_clique_engine(state, pricing.as_ref(), Some(base.triangles))?;
    let value = QueryValue::FourCliques { total, per_vertex };
    Ok(assemble(prepared, query, base, value, kernel, time_s, energy_j, started))
}

/// The live-graph entry point for [`Query::KTruss`]: peels directly
/// over full-neighbourhood rows built from a maintained adjacency
/// (sorted neighbour lists, input ids). Initial supports are computed
/// with one kernel per edge — the same kernels a live
/// [`Query::EdgeSupport`] runs — then peeling proceeds as on the
/// prepared path. Returns the value plus the motif kernel accounting.
pub fn ktruss_value_from_adjacency(
    adjacency: &[Vec<u32>],
    slice_size: SliceSize,
    encoding: RowEncoding,
    k: u32,
) -> (QueryValue, KernelStats) {
    let mut state =
        MotifState::new(adjacency.to_vec(), MotifFlavor::Sliced, slice_size, encoding);
    let mut support = BTreeMap::new();
    for (u, list) in adjacency.iter().enumerate() {
        let u = u as u32;
        for &v in list.iter().filter(|&&v| v > u) {
            let (witnesses, _) = state.intersect(u, v);
            support.insert((u, v), witnesses.len() as u64);
        }
    }
    let (edges, kernel, _, _) =
        truss_decompose(state, support, None).expect("unpriced peeling cannot fail");
    (QueryValue::KTruss { k, edges }, kernel)
}

/// The live-graph entry point for [`Query::FourCliques`]: chained
/// ANDs over full-neighbourhood rows built from a maintained
/// adjacency. Returns the value plus the motif kernel accounting.
pub fn four_cliques_from_adjacency(
    adjacency: &[Vec<u32>],
    slice_size: SliceSize,
    encoding: RowEncoding,
) -> (QueryValue, KernelStats) {
    let state = MotifState::new(adjacency.to_vec(), MotifFlavor::Sliced, slice_size, encoding);
    let ((total, per_vertex), kernel, _, _) =
        four_clique_engine(state, None, None).expect("unpriced clique chaining cannot fail");
    (QueryValue::FourCliques { total, per_vertex }, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::generators::classic;
    use tcim_graph::oracle;

    fn adjacency_of(g: &tcim_graph::CsrGraph) -> Vec<Vec<u32>> {
        g.vertices().map(|v| g.neighbors(v).to_vec()).collect()
    }

    fn slice16() -> SliceSize {
        SliceSize::S16
    }

    #[test]
    fn sliced_and_adjacency_flavors_agree_on_trussness() {
        for g in [classic::fig2_example(), classic::wheel(10), classic::complete(6)] {
            let adjacency = adjacency_of(&g);
            let mut values = Vec::new();
            for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
                let (value, _) =
                    ktruss_value_from_adjacency(&adjacency, slice16(), encoding, 3);
                values.push(value);
            }
            assert_eq!(values[0], values[1]);
            let expected: Vec<EdgeTruss> = oracle::trussness(&g)
                .into_iter()
                .map(|(u, v, trussness)| EdgeTruss { u, v, trussness })
                .collect();
            assert_eq!(values[0].trussness().unwrap(), &expected[..]);
        }
    }

    #[test]
    fn four_clique_chaining_matches_the_oracle() {
        for g in [classic::fig2_example(), classic::complete(5), classic::complete(7)] {
            let adjacency = adjacency_of(&g);
            let (value, kernel) =
                four_cliques_from_adjacency(&adjacency, slice16(), RowEncoding::Dense);
            let (expected_total, expected_per_vertex) = oracle::four_cliques(&g);
            let (total, per_vertex) = value.four_cliques().unwrap();
            assert_eq!(total, expected_total);
            assert_eq!(per_vertex, &expected_per_vertex[..]);
            assert!(kernel.kernel_invocations >= g.edge_count() as u64);
        }
    }

    #[test]
    fn peeling_kernel_budget_is_one_per_edge_plus_seeding() {
        // Every edge is peeled exactly once, and the live entry point
        // seeds supports with one kernel per edge: 2m kernels total on
        // a dense encoding (no skipped dispatches).
        let g = classic::wheel(12);
        let adjacency = adjacency_of(&g);
        let (_, kernel) =
            ktruss_value_from_adjacency(&adjacency, slice16(), RowEncoding::Dense, 3);
        assert_eq!(kernel.kernel_invocations, 2 * g.edge_count() as u64);
    }
}
