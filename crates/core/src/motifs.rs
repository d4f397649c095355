//! The motif engine: k-truss decomposition and 4-clique counting on
//! the same AND+BitCount kernel family that counts triangles.
//!
//! The journal extension of the source paper frames triangle counting
//! as the base case of a family of subgraph analytics that all reduce
//! to bulk bitwise AND plus BitCount. This module implements the next
//! two members over the *full-neighbourhood* rows of the input graph
//! (in input-id space, so answers are orientation-invariant by
//! construction). Both number the graph's edges once, in ascending
//! input-id order (`u < v`); per-edge state — support, trussness, a
//! live flag — is a `Vec` indexed by edge number, and each vertex lists
//! its neighbours with the numbers of the edges to them.
//!
//! * **k-truss** ([`Query::KTruss`]): the full trussness decomposition
//!   by iterated support peeling. Each peeled edge costs exactly one
//!   deletion-delta kernel — `N(u) AND N(v)` over the *live* rows to
//!   find the triangles the removal destroys — and the edge leaves its
//!   two rows as one cleared bit each, patched in place in a row store
//!   built for deletion (`NeighbourRows`): **no re-slice between
//!   rounds**, and no payload shifts. The initial per-edge supports are
//!   seeded from the anchoring attributed execution (its per-arc
//!   support, mapped through each edge's arc position), so peeling
//!   starts from the kernels the backend already ran. The live edges
//!   are scanned once per level, over a list compacted at each level;
//!   every later peel pass is the worklist of edges whose support
//!   crossed below the level's floor during the pass before. A
//!   destroyed triangle's two other edges are read off the witness's
//!   rank inside its slice of each endpoint's row: the rank plus the
//!   slice's first neighbour position is the witness's position in the
//!   endpoint's neighbour list, so no list is searched.
//! * **4-clique** ([`Query::FourCliques`]): for every edge, the first
//!   AND yields the triangle witness row; its above-the-edge witnesses
//!   flow through the existing [`TriangleSink`] attribution hook (a
//!   [`TriangleTally`] re-derives the anchor run's census as a built-in
//!   cross-check), then a **second AND** is chained over the
//!   re-materialized witness row against each witness's neighbourhood
//!   row, closing each `K_4` exactly once at its two smallest vertices.
//!
//! Kernel accounting is honest per flavor: PIM/software backends run
//! the sliced flavor (the row store's kernel, which runs the one
//! matching walk, [`tcim_bitmatrix::matching::walk`], so its pair,
//! readout, skip and dispatch accounting is
//! `tcim_arch::kernel::and_bitcount`'s over the same bits), CPU
//! baselines the adjacency flavor (sorted-list
//! intersections, one kernel invocation per intersection and zero slice
//! pairs — the same invariant the triangle path keeps). Backends with a
//! hardware cost model price the engine: every peel pass / chained-AND
//! wave becomes a round of [`DeltaJob`]s placed under the backend's own
//! scheduling policy ([`DeltaLoads`], the loads `plan_deltas` would
//! place), and the modelled time/energy land on top of the anchor
//! run's. The pipeline's motif classes
//! ([`TcimPipeline::query_coalesced`](crate::TcimPipeline::query_coalesced))
//! run the anchor and pick the flavor and pricing from the
//! [`Backend`](crate::Backend) value.
//!
//! The engine's work shows as the `motif.peel` (k-truss) and
//! `motif.chain` (4-clique) spans, next to the pipeline's
//! `motif.anchor` span around the anchoring run. Inside `motif.peel`,
//! `motif.rows` covers numbering the edges, seeding their supports and
//! building the rows, and `motif.rounds` the peel passes.

use std::time::Instant;

use tcim_arch::kernel::{self, ArcKernel};
use tcim_arch::{SliceCostModel, TriangleSink, TriangleTally};
use tcim_bitmatrix::matching::{self, SliceWords};
use tcim_bitmatrix::popcount::visit_set_bits;
use tcim_bitmatrix::{RowEncoding, SliceSize, SlicedBitVector};
use tcim_sched::{DeltaJob, DeltaLoads, SchedPolicy};

use crate::backend::{merge_intersect_visit, ExecutionReport};
use crate::error::{CoreError, Result};
use crate::pipeline::PreparedGraph;
use crate::query::{EdgeTruss, KernelStats, Query, QueryReport, QueryValue};

/// What a motif engine hands back: the answer payload plus the kernel
/// stats and the modelled time/energy accumulated over its rounds.
type MotifOutcome<T> = Result<(T, KernelStats, Option<f64>, Option<f64>)>;

/// How a backend's motif engine runs its intersections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MotifFlavor {
    /// Real AND+BitCount kernels over full-neighbourhood rows held in
    /// a [`NeighbourRows`] store (PIM and software-sliced backends).
    /// Pair, readout and skip accounting mean exactly what they mean
    /// for triangles.
    Sliced,
    /// Sorted adjacency-list intersections (the CPU baselines): one
    /// kernel invocation per intersection, zero slice pairs — the same
    /// "CPU baselines intersect adjacency lists" invariant the
    /// triangle path keeps.
    Adjacency,
}

/// The cost model a simulated-hardware backend prices motif kernels
/// with: its engine's slice costs plus its own scheduling policy, so
/// peel passes and chained-AND waves are placed as delta-job rounds
/// exactly like streaming updates and shard composition.
#[derive(Debug, Clone)]
pub(crate) struct MotifPricing {
    /// Per-operation slice costs of the characterized engine.
    costs: SliceCostModel,
    /// The placement policy delta rounds are planned under.
    sched: SchedPolicy,
}

impl MotifPricing {
    /// Prices motif kernels with `costs` under `sched`.
    pub(crate) fn new(costs: SliceCostModel, sched: SchedPolicy) -> Self {
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
/// [`MotifPricing`]; a no-op when the backend has none. The round's
/// jobs and the placement scratch are kept across rounds, so pricing a
/// pass allocates nothing once they have grown.
struct PricedRounds<'p> {
    pricing: Option<&'p MotifPricing>,
    round: Vec<DeltaJob>,
    loads: DeltaLoads,
    time_s: f64,
    energy_j: f64,
}

impl<'p> PricedRounds<'p> {
    fn new(pricing: Option<&'p MotifPricing>) -> Self {
        PricedRounds {
            pricing,
            round: Vec::new(),
            loads: DeltaLoads::default(),
            time_s: 0.0,
            energy_j: 0.0,
        }
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
    /// adds the placement's critical path plus per-kernel dispatch
    /// overhead.
    fn close_round(&mut self) -> Result<()> {
        let Some(p) = self.pricing else { return Ok(()) };
        if self.round.is_empty() {
            return Ok(());
        }
        self.time_s += self.loads.critical_path_s(&self.round, &p.sched)?
            + self.round.len() as f64 * p.costs.controller_overhead_s;
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

/// Full-neighbourhood adjacency over numbered edges: every neighbour of
/// each vertex, ascending, with the number of the edge to it.
struct Adjacency {
    /// `offsets[x]..offsets[x + 1]` indexes vertex `x`'s entries.
    offsets: Vec<usize>,
    neighbours: Vec<u32>,
    /// `edge_ids[k]` numbers the edge to `neighbours[k]`.
    edge_ids: Vec<u32>,
}

impl Adjacency {
    /// The adjacency of `edges` (`u < v`, ascending) over `n` vertices.
    /// Ascending edges list each vertex's smaller neighbours first and
    /// its larger ones after, both ascending, so no list needs sorting.
    fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        let mut fill = offsets.clone();
        let mut neighbours = vec![0u32; 2 * edges.len()];
        let mut edge_ids = vec![0u32; 2 * edges.len()];
        let count = u32::try_from(edges.len()).expect("edge numbers fit in u32");
        for (e, &(u, v)) in (0..count).zip(edges) {
            for (x, y) in [(u, v), (v, u)] {
                let slot = &mut fill[x as usize];
                neighbours[*slot] = y;
                edge_ids[*slot] = e;
                *slot += 1;
            }
        }
        Adjacency { offsets, neighbours, edge_ids }
    }

    fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Vertex `x`'s neighbours and the numbers of the edges to them.
    fn of(&self, x: u32) -> (&[u32], &[u32]) {
        let range = self.offsets[x as usize]..self.offsets[x as usize + 1];
        (&self.neighbours[range.clone()], &self.edge_ids[range])
    }

    /// Visits every common neighbour `w` of `u` and `v` over live edges,
    /// ascending, with the numbers of edges `{u, w}` and `{v, w}`: the
    /// smaller list is walked and each entry probed in the larger one.
    fn probe(&self, live: &[bool], u: u32, v: u32, mut visit: impl FnMut(u32, u32, u32)) {
        let (small, large) =
            if self.of(u).0.len() <= self.of(v).0.len() { (u, v) } else { (v, u) };
        let ((walked, walked_ids), (probed, probed_ids)) = (self.of(small), self.of(large));
        for (&w, &near) in walked.iter().zip(walked_ids) {
            if !live[near as usize] {
                continue;
            }
            let Ok(rank) = probed.binary_search(&w) else { continue };
            let far = probed_ids[rank];
            if live[far as usize] {
                let (via_u, via_v) = if small == u { (near, far) } else { (far, near) };
                visit(w, via_u, via_v);
            }
        }
    }
}

/// Appends the slices of the ascending set bits `ones` to `indices` and
/// `words` (`words_per_slice` payload words per slice), calling
/// `opened(i)` for each new slice with the index in `ones` of its first
/// bit.
fn append_slices(
    ones: &[u32],
    slice_size: SliceSize,
    indices: &mut Vec<u32>,
    words: &mut Vec<u64>,
    mut opened: impl FnMut(usize),
) {
    let (bits, wps) = (slice_size.bits(), slice_size.words_per_slice());
    let mut open = None;
    for (i, &one) in ones.iter().enumerate() {
        let slice = one / bits;
        if open != Some(slice) {
            open = Some(slice);
            indices.push(slice);
            words.resize(words.len() + wps, 0);
            opened(i);
        }
        let within = (one % bits) as usize;
        let base = words.len() - wps;
        words[base + within / 64] |= 1u64 << (within % 64);
    }
}

/// The full-neighbourhood rows of the motif engine, in a word-payload
/// layout built for deletion, straight from an [`Adjacency`].
///
/// Each vertex lists its valid slices ascending. Each slice holds its
/// live payload words, its build-time words and the [`Adjacency`]
/// position of its first neighbour; each vertex keeps its count of
/// live valid slices. Clearing a bit patches one word in place: a slice
/// whose words reach zero stops counting as valid but stays listed, so
/// nothing shifts. A live bit's rank among its slice's build-time bits,
/// added to the slice's first position, is the neighbour's position in
/// the [`Adjacency`], and so gives the number of the edge to it.
struct NeighbourRows {
    slice_size: SliceSize,
    encoding: RowEncoding,
    /// Vertex `x`'s slices are `offsets[x]..offsets[x + 1]`.
    offsets: Vec<usize>,
    /// Slice `s` covers bits `indices[s] · |S|` onwards.
    indices: Vec<u32>,
    /// The [`Adjacency`] position of slice `s`'s first neighbour.
    firsts: Vec<u32>,
    /// The live payload words, `words_per_slice` per slice.
    live: Vec<u64>,
    /// The payload words as built, which ranks count over.
    built: Vec<u64>,
    /// Each vertex's live valid slices.
    valid: Vec<u32>,
}

impl NeighbourRows {
    /// The rows of every vertex of `adjacency`, sliced by `slice_size`;
    /// `encoding` sets the kernel's skip and dispatch rules.
    fn new(adjacency: &Adjacency, slice_size: SliceSize, encoding: RowEncoding) -> Self {
        let n = adjacency.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut indices, mut firsts, mut live) = (Vec::new(), Vec::new(), Vec::new());
        let mut valid = Vec::with_capacity(n);
        u32::try_from(adjacency.neighbours.len()).expect("adjacency positions fit in u32");
        for x in 0..n as u32 {
            let (listed, start) = (indices.len(), adjacency.offsets[x as usize]);
            append_slices(adjacency.of(x).0, slice_size, &mut indices, &mut live, |i| {
                firsts.push((start + i) as u32)
            });
            valid.push((indices.len() - listed) as u32);
            offsets.push(indices.len());
        }
        let built = live.clone();
        NeighbourRows { slice_size, encoding, offsets, indices, firsts, live, built, valid }
    }

    fn words_per_slice(&self) -> usize {
        self.slice_size.words_per_slice()
    }

    /// Vertex `x`'s row as a kernel operand.
    fn row(&self, x: u32) -> SliceWords<'_> {
        let wps = self.words_per_slice();
        let (start, end) = (self.offsets[x as usize], self.offsets[x as usize + 1]);
        SliceWords {
            indices: &self.indices[start..end],
            words: &self.live[start * wps..end * wps],
        }
    }

    /// The [`Adjacency`] position of bit `offset` of vertex `x`'s slice
    /// at `ordinal` in its row: the slice's first position plus the
    /// bit's rank among the slice's build-time bits.
    fn position(&self, x: u32, ordinal: usize, offset: u32) -> usize {
        let wps = self.words_per_slice();
        let s = self.offsets[x as usize] + ordinal;
        let words = &self.built[s * wps..][..wps];
        let (word, bit) = (offset as usize / 64, offset % 64);
        let below: u32 = words[..word].iter().map(|w| w.count_ones()).sum::<u32>()
            + (words[word] & ((1u64 << bit) - 1)).count_ones();
        self.firsts[s] as usize + below as usize
    }

    /// Clears bit `y` of vertex `x`'s row in place. A slice whose words
    /// reach zero stops counting as valid but stays listed.
    fn clear(&mut self, x: u32, y: u32) {
        let (bits, wps) = (self.slice_size.bits(), self.words_per_slice());
        let (start, end) = (self.offsets[x as usize], self.offsets[x as usize + 1]);
        let rank = self.indices[start..end]
            .binary_search(&(y / bits))
            .expect("a row lists its neighbours' slices");
        let within = (y % bits) as usize;
        let words = &mut self.live[(start + rank) * wps..][..wps];
        let mask = 1u64 << (within % 64);
        assert!(words[within / 64] & mask != 0, "only a live edge is cleared");
        words[within / 64] &= !mask;
        if words.iter().all(|&w| w == 0) {
            self.valid[x as usize] -= 1;
        }
    }

    /// The store's AND+BitCount kernel over `a AND b`: the matching
    /// walk ([`matching::walk`]) under the store's encoding, counting
    /// each visited pair's surviving bits. Each non-zero result is one
    /// readout, handed to `readout(slice number, ordinal in a, ordinal
    /// in b, words)` in ascending slice order, and the kernel
    /// dispatches by `tcim_arch::kernel::dispatches`. So every count is
    /// `tcim_arch::kernel::and_bitcount`'s over sliced rows of the same
    /// bits with a witness sink attached.
    fn and_bitcount(
        &self,
        a: SliceWords<'_>,
        b: SliceWords<'_>,
        mut readout: impl FnMut(u32, usize, usize, &[u64]),
    ) -> ArcKernel {
        let (mut count, mut readouts) = (0u64, 0u64);
        let pairs =
            matching::walk(a, b, self.slice_size, self.encoding, |k, in_a, in_b, anded| {
                let bits: u64 = anded.iter().map(|w| u64::from(w.count_ones())).sum();
                count += bits;
                if bits > 0 {
                    readouts += 1;
                    readout(k, in_a, in_b, anded);
                }
            });
        ArcKernel {
            count,
            pairs,
            readouts,
            dispatched: kernel::dispatches(self.encoding, pairs),
        }
    }
}

/// Adds one store kernel to `stats` and samples it for pricing, with
/// operands of `valid_a` and `valid_b` live valid slices.
fn bill(stats: &mut KernelStats, run: ArcKernel, valid_a: u32, valid_b: u32) -> KernelSample {
    stats.kernel_invocations += u64::from(run.dispatched);
    stats.slice_pairs += run.pairs.visited;
    stats.blocks_skipped += run.pairs.skipped;
    stats.result_readouts += run.readouts;
    KernelSample {
        valid_a: u64::from(valid_a),
        valid_b: u64::from(valid_b),
        pairs: run.pairs.visited,
        readouts: run.readouts,
    }
}

/// The live motif state: the graph's edges numbered once, in ascending
/// input-id order (`u < v`), their [`Adjacency`], one live flag per
/// edge, and, for the sliced flavor, the [`NeighbourRows`] store. The
/// store is built straight from the adjacency — never via a matrix
/// build, so peeling prepares no artifact and leaves the pipeline's
/// cache misses flat — and a peel patches it in place, one cleared bit
/// per endpoint row.
struct MotifState {
    /// Edge `e`'s endpoints `(u, v)`, `u < v`, ascending in `e`.
    edges: Vec<(u32, u32)>,
    adjacency: Adjacency,
    live: Vec<bool>,
    rows: Option<NeighbourRows>,
    kernel: KernelStats,
}

impl MotifState {
    /// The state of `edges` (`u < v`, ascending) over `n` vertices.
    fn new(
        n: usize,
        edges: Vec<(u32, u32)>,
        flavor: MotifFlavor,
        slice_size: SliceSize,
        encoding: RowEncoding,
    ) -> Self {
        let adjacency = Adjacency::new(n, &edges);
        let rows = match flavor {
            MotifFlavor::Adjacency => None,
            MotifFlavor::Sliced => Some(NeighbourRows::new(&adjacency, slice_size, encoding)),
        };
        MotifState {
            live: vec![true; edges.len()],
            edges,
            adjacency,
            rows,
            kernel: KernelStats::default(),
        }
    }

    /// `N(u) ∩ N(v)` over the live state, ascending: one AND+BitCount
    /// kernel (sliced flavor) or one probe of the larger live list from
    /// the smaller (adjacency flavor), with the flavor's honest
    /// accounting.
    fn intersect(&mut self, u: u32, v: u32) -> (Vec<u32>, KernelSample) {
        let mut witnesses = Vec::new();
        let sample = match &self.rows {
            Some(rows) => {
                let run =
                    rows.and_bitcount(rows.row(u), rows.row(v), collect(rows, &mut witnesses));
                bill(&mut self.kernel, run, rows.valid[u as usize], rows.valid[v as usize])
            }
            None => {
                self.adjacency.probe(&self.live, u, v, |w, _, _| witnesses.push(w));
                list_kernel(&mut self.kernel)
            }
        };
        (witnesses, sample)
    }

    /// As [`MotifState::intersect`], against an ad-hoc operand row
    /// (the chained second AND over a re-materialized witness row). The
    /// 4-clique engine removes no edge, so every listed neighbour is live.
    fn intersect_row(&mut self, c: u32, witness_row: &WitnessRow) -> (Vec<u32>, KernelSample) {
        let mut witnesses = Vec::new();
        let sample = match (&self.rows, witness_row) {
            (Some(rows), WitnessRow::Sliced(row)) => {
                let run = rows.and_bitcount(
                    rows.row(c),
                    row.slice_words(),
                    collect(rows, &mut witnesses),
                );
                let valid =
                    u32::try_from(row.valid_slice_count()).expect("slice counts fit in u32");
                bill(&mut self.kernel, run, rows.valid[c as usize], valid)
            }
            (None, WitnessRow::List(list)) => {
                merge_intersect_visit(self.adjacency.of(c).0, list, |w| witnesses.push(w));
                list_kernel(&mut self.kernel)
            }
            _ => unreachable!("witness rows are built by the same state"),
        };
        (witnesses, sample)
    }

    /// Peels live edge `e`: one kernel over the live state finds the
    /// triangles its removal destroys, and `destroyed` gets the numbers
    /// of each one's other two edges. The edge is then removed: its live
    /// flag cleared and, for the sliced flavor, one bit cleared in each
    /// endpoint's row (a deletion delta).
    fn peel(&mut self, e: u32, mut destroyed: impl FnMut(u32, u32)) -> KernelSample {
        let (u, v) = self.edges[e as usize];
        let MotifState { adjacency, live, rows, kernel, .. } = self;
        let sample = match rows {
            Some(rows) => {
                let edge_to = |x: u32, ordinal: usize, offset: u32| {
                    let position = rows.position(x, ordinal, offset);
                    adjacency.edge_ids[position]
                };
                let run =
                    rows.and_bitcount(rows.row(u), rows.row(v), |_, at_u, at_v, anded| {
                        visit_set_bits(anded.iter().copied(), |offset| {
                            destroyed(edge_to(u, at_u, offset), edge_to(v, at_v, offset));
                        });
                    });
                let sample = bill(kernel, run, rows.valid[u as usize], rows.valid[v as usize]);
                rows.clear(u, v);
                rows.clear(v, u);
                sample
            }
            None => {
                adjacency.probe(live, u, v, |_, via_u, via_v| destroyed(via_u, via_v));
                list_kernel(kernel)
            }
        };
        live[e as usize] = false;
        sample
    }

    /// Materializes a witness set as a kernel operand for the chained
    /// second AND.
    fn witness_row(&self, witnesses: &[u32]) -> WitnessRow {
        match &self.rows {
            Some(rows) => WitnessRow::Sliced(SlicedBitVector::from_sorted_indices(
                rows.valid.len(),
                witnesses.iter().map(|&w| w as usize),
                rows.slice_size,
            )),
            None => WitnessRow::List(witnesses.to_vec()),
        }
    }
}

/// A readout that appends each surviving bit of a store kernel to
/// `witnesses` as a vertex id.
fn collect<'w>(
    rows: &NeighbourRows,
    witnesses: &'w mut Vec<u32>,
) -> impl FnMut(u32, usize, usize, &[u64]) + 'w {
    let bits = rows.slice_size.bits();
    move |k, _, _, anded| {
        visit_set_bits(anded.iter().copied(), |offset| witnesses.push(k * bits + offset));
    }
}

/// A re-materialized witness set, in the state's operand form.
enum WitnessRow {
    Sliced(SlicedBitVector),
    List(Vec<u32>),
}

/// The adjacency flavor's accounting: one list intersection is one
/// invocation with no slice pairs.
fn list_kernel(stats: &mut KernelStats) -> KernelSample {
    stats.kernel_invocations += 1;
    KernelSample::default()
}

/// The prepared graph's edges, numbered once in ascending input-id
/// order (`u < v`, the orientation's relabelling undone), with the
/// position of each one's arc in the prepared DAG
/// ([`PreparedGraph::arc_index`]).
fn numbered_edges(prepared: &PreparedGraph) -> (Vec<(u32, u32)>, Vec<u32>) {
    let oriented = prepared.oriented();
    let positions = 0..u32::try_from(oriented.arc_count()).expect("arc positions fit in u32");
    let mut by_edge = Vec::with_capacity(positions.len());
    by_edge.extend(oriented.arcs().zip(positions).map(|((i, j), position)| {
        let (a, b) = (oriented.original_id(i), oriented.original_id(j));
        (a.min(b), a.max(b), position)
    }));
    by_edge.sort_unstable();
    by_edge.into_iter().map(|(u, v, position)| ((u, v), position)).unzip()
}

/// The edges of a maintained adjacency (sorted neighbour lists, input
/// ids), `u < v`, ascending.
fn edges_of(adjacency: &[Vec<u32>]) -> Vec<(u32, u32)> {
    adjacency
        .iter()
        .enumerate()
        .flat_map(|(u, list)| {
            let u = u as u32;
            list.iter().copied().filter(move |&v| v > u).map(move |v| (u, v))
        })
        .collect()
}

/// Seeds every edge's support from the anchor run's per-arc support,
/// through each edge's arc position.
///
/// # Errors
///
/// Returns [`CoreError::Pipeline`] when the anchor run carries no
/// support for every arc, or a support no graph with `u32` vertex ids
/// can have: peeling from made-up supports would silently give wrong
/// trussness.
fn seeded_support(anchor: &ExecutionReport, arc_positions: &[u32]) -> Result<Vec<u32>> {
    let Some(support) = anchor.support.as_deref().filter(|s| s.len() == arc_positions.len())
    else {
        return Err(CoreError::Pipeline {
            reason: format!(
                "the k-truss anchor run of {} carries no support for the {} arcs of the \
                 prepared graph",
                anchor.backend,
                arc_positions.len()
            ),
        });
    };
    arc_positions
        .iter()
        .map(|&position| {
            u32::try_from(support[position as usize]).map_err(|_| CoreError::Pipeline {
                reason: format!(
                    "the k-truss anchor run of {} reports a support beyond any vertex count",
                    anchor.backend
                ),
            })
        })
        .collect()
}

/// The peeling engine: full trussness decomposition by iterated
/// support peeling. At level `k = 3, 4, …`, edges with support below
/// the floor `k − 2` are peeled to a fixpoint (each peel is one
/// deletion-delta kernel over the live rows; the destroyed triangles'
/// other two edges are decremented in place) and assigned trussness
/// `k − 1`. Each peel pass is priced as one delta-job round and shown
/// to `on_pass` as `(k, edges)`. The decomposition computes *every*
/// edge's trussness regardless of the queried level, so one run answers
/// any `k` (and cross-`k` batches coalesce for free).
///
/// The live edges are scanned once per level, for the level's first
/// pass, over a list of live edge numbers compacted at the start of each
/// level (ascending, as the numbers are). Each later pass is exactly the
/// live edges whose support crossed below the floor during the pass
/// before, ascending: supports only ever decrease by one, so an edge
/// crosses once, and that is the set, in the order, a rescan of every
/// support would select.
fn truss_decompose(
    mut state: MotifState,
    mut support: Vec<u32>,
    pricing: Option<&MotifPricing>,
    mut on_pass: impl FnMut(u32, &[u32]),
) -> MotifOutcome<Vec<EdgeTruss>> {
    let mut priced = PricedRounds::new(pricing);
    let edge_count = u32::try_from(state.edges.len()).expect("edge numbers fit in u32");
    let mut truss = vec![0u32; state.edges.len()];
    let mut alive: Vec<u32> = (0..edge_count).collect();
    let mut pass: Vec<u32> = Vec::new();
    let mut crossed: Vec<u32> = Vec::new();
    let mut level = 3u32;
    loop {
        alive.retain(|&e| state.live[e as usize]);
        if alive.is_empty() {
            break;
        }
        let floor = level - 2;
        pass.extend(alive.iter().copied().filter(|&e| support[e as usize] < floor));
        while !pass.is_empty() {
            on_pass(level, &pass);
            // Every selected edge still qualifies when its turn comes,
            // whatever its batch-mates destroyed.
            for &e in &pass {
                let sample = state.peel(e, |via_u, via_v| {
                    // Removing the edge destroys a triangle: its other
                    // two edges each lose one support.
                    for f in [via_u, via_v] {
                        let s = &mut support[f as usize];
                        if *s == floor {
                            crossed.push(f);
                        }
                        *s = s.checked_sub(1).expect(
                            "a destroyed live triangle's edge has positive support: its \
                             support counts that triangle",
                        );
                    }
                });
                priced.push(sample);
                truss[e as usize] = level - 1;
            }
            priced.close_round()?;
            crossed.sort_unstable();
            std::mem::swap(&mut pass, &mut crossed);
            crossed.clear();
        }
        level += 1;
    }
    let edges = state
        .edges
        .iter()
        .zip(truss)
        .map(|(&(u, v), trussness)| EdgeTruss { u, v, trussness })
        .collect();
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
    let n = state.adjacency.vertex_count();
    let mut priced = PricedRounds::new(pricing);
    let mut tally = TriangleTally::new(n, None);
    let mut per_vertex = vec![0u64; n];
    let mut total = 0u64;
    // Pass 1: per-edge triangle witness rows (the kernels the triangle
    // count already runs, re-driven here over full-neighbourhood rows).
    let mut chained: Vec<((u32, u32), Vec<u32>)> = Vec::new();
    for e in 0..state.edges.len() {
        let (u, v) = state.edges[e];
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
        let found = tally.triangles();
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
        let witness_row = state.witness_row(&above);
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
/// backend's own attributed run.
///
/// # Errors
///
/// Returns [`CoreError::Pipeline`] when `base` carries no per-arc
/// support.
pub(crate) fn ktruss_report(
    prepared: &PreparedGraph,
    query: &Query,
    base: ExecutionReport,
    flavor: MotifFlavor,
    pricing: Option<MotifPricing>,
    k: u32,
) -> Result<QueryReport> {
    let started = Instant::now();
    let peel_span = tcim_telemetry::span("motif.peel");
    let rows_span = tcim_telemetry::span("motif.rows");
    let (edges, arc_positions) = numbered_edges(prepared);
    let support = seeded_support(&base, &arc_positions)?;
    let n = prepared.oriented().vertex_count();
    let state = MotifState::new(n, edges, flavor, prepared.slice_size(), prepared.encoding());
    drop(rows_span);
    let rounds_span = tcim_telemetry::span("motif.rounds");
    let (edges, kernel, time_s, energy_j) =
        truss_decompose(state, support, pricing.as_ref(), |_, _| {})?;
    drop(rounds_span);
    drop(peel_span);
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
    let chain_span = tcim_telemetry::span("motif.chain");
    let (edges, _) = numbered_edges(prepared);
    let n = prepared.oriented().vertex_count();
    let state = MotifState::new(n, edges, flavor, prepared.slice_size(), prepared.encoding());
    let ((total, per_vertex), kernel, time_s, energy_j) =
        four_clique_engine(state, pricing.as_ref(), Some(base.triangles))?;
    drop(chain_span);
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
    let mut state = MotifState::new(
        adjacency.len(),
        edges_of(adjacency),
        MotifFlavor::Sliced,
        slice_size,
        encoding,
    );
    let support: Vec<u32> = (0..state.edges.len())
        .map(|e| {
            let (u, v) = state.edges[e];
            u32::try_from(state.intersect(u, v).0.len()).expect("a support counts vertices")
        })
        .collect();
    let (edges, kernel, _, _) = truss_decompose(state, support, None, |_, _| {})
        .expect("unpriced peeling cannot fail");
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
    let state = MotifState::new(
        adjacency.len(),
        edges_of(adjacency),
        MotifFlavor::Sliced,
        slice_size,
        encoding,
    );
    let ((total, per_vertex), kernel, _, _) =
        four_clique_engine(state, None, None).expect("unpriced clique chaining cannot fail");
    (QueryValue::FourCliques { total, per_vertex }, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuForwardBackend, ExecutionBackend};
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use tcim_bitmatrix::popcount::PopcountMethod;
    use tcim_bitmatrix::SlicedRow;
    use tcim_graph::generators::{barabasi_albert, classic, rmat, RmatParams};
    use tcim_graph::{oracle, CsrGraph};

    fn adjacency_of(g: &CsrGraph) -> Vec<Vec<u32>> {
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

    /// The store's kernel over edge `(u, v)` with its witnesses,
    /// asserting that each witness's rank-found position in each
    /// endpoint's neighbour list holds the witness.
    fn store_kernel(
        store: &NeighbourRows,
        adjacency: &Adjacency,
        (u, v): (u32, u32),
    ) -> (ArcKernel, Vec<u32>) {
        let bits = store.slice_size.bits();
        let mut witnesses = Vec::new();
        let run = store.and_bitcount(store.row(u), store.row(v), |k, at_u, at_v, anded| {
            visit_set_bits(anded.iter().copied(), |offset| {
                let w = k * bits + offset;
                for (x, at) in [(u, at_u), (v, at_v)] {
                    let position = store.position(x, at, offset);
                    let list =
                        adjacency.offsets[x as usize]..adjacency.offsets[x as usize + 1];
                    assert!(list.contains(&position), "({u}, {v}): {w} in the list of {x}");
                    assert_eq!(adjacency.neighbours[position], w, "({u}, {v})");
                }
                witnesses.push(w);
            })
        });
        (run, witnesses)
    }

    /// The store's kernel against `tcim_arch::kernel::and_bitcount`
    /// with a witness sink, over `SlicedRow`s of the same bits, at every
    /// slice size under both encodings: every edge's kernel, once as
    /// built and once after every third edge is deleted from both of
    /// its rows (the store clears in place, the reference rows with
    /// `clear_bit`). Outcomes, witnesses and live valid-slice counts
    /// agree, and every rank-found position holds its witness.
    #[test]
    fn store_kernel_equals_and_bitcount_over_sliced_rows() {
        let graphs = [
            ("rmat", rmat(10, 6000, RmatParams::default(), 7).unwrap()),
            ("ba", barabasi_albert(800, 6, 5).unwrap()),
            ("wheel", classic::wheel(12)),
        ];
        for (name, g) in graphs {
            let n = g.vertex_count();
            let edges = edges_of(&adjacency_of(&g));
            let adjacency = Adjacency::new(n, &edges);
            for (slice_size, encoding) in SliceSize::ALL
                .into_iter()
                .flat_map(|s| [(s, RowEncoding::Dense), (s, RowEncoding::Sparse)])
            {
                let mut store = NeighbourRows::new(&adjacency, slice_size, encoding);
                let mut reference: Vec<SlicedRow> = (0..n as u32)
                    .map(|x| {
                        let ones = adjacency.of(x).0.iter().map(|&y| y as usize);
                        SlicedRow::from_sorted_indices(n, ones, slice_size, encoding)
                    })
                    .collect();
                for phase in ["built", "after deletes"] {
                    if phase == "after deletes" {
                        for &(u, v) in edges.iter().step_by(3) {
                            for (x, y) in [(u, v), (v, u)] {
                                store.clear(x, y);
                                assert!(reference[x as usize].clear_bit(y as usize).unwrap());
                            }
                        }
                    }
                    for &(u, v) in &edges {
                        let ctx =
                            format!("{name} {slice_size} {encoding:?} {phase} ({u}, {v})");
                        let (row_u, row_v) = (&reference[u as usize], &reference[v as usize]);
                        let mut expected = Vec::new();
                        let want = kernel::and_bitcount(
                            (u, v),
                            row_u,
                            row_v,
                            PopcountMethod::Native,
                            Some(&mut expected),
                            |_, _| {},
                        );
                        let (got, witnesses) = store_kernel(&store, &adjacency, (u, v));
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(witnesses, expected, "{ctx}");
                        for (x, row) in [(u, row_u), (v, row_v)] {
                            let live = store.valid[x as usize] as usize;
                            assert_eq!(live, row.valid_slice_count(), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// The peel passes of one decomposition: `(level, edges)` in order.
    type Passes = Vec<(u32, Vec<(u32, u32)>)>;

    /// The peel loop as it stood before the worklist, kept as the
    /// reference: every pass re-reads every live support, and edges
    /// leave sorted neighbour lists that sorted merges intersect.
    /// Returns the passes, every edge's trussness and the initial
    /// supports.
    fn rescan_peel(g: &CsrGraph) -> (Passes, Vec<EdgeTruss>, Vec<u32>) {
        let mut adjacency = adjacency_of(g);
        let edges = edges_of(&adjacency);
        let number = |u: u32, v: u32| {
            edges.binary_search(&(u.min(v), u.max(v))).expect("witness pairs are edges")
        };
        let common = |adjacency: &[Vec<u32>], u: u32, v: u32| {
            let mut witnesses = Vec::new();
            merge_intersect_visit(&adjacency[u as usize], &adjacency[v as usize], |w| {
                witnesses.push(w)
            });
            witnesses
        };
        let initial: Vec<u32> =
            edges.iter().map(|&(u, v)| common(&adjacency, u, v).len() as u32).collect();
        // `None` once peeled.
        let mut support: Vec<Option<u32>> = initial.iter().copied().map(Some).collect();
        let mut truss = vec![0u32; edges.len()];
        let mut passes = Vec::new();
        let mut level = 3u32;
        while support.iter().any(Option::is_some) {
            loop {
                let floor = level - 2;
                let peel: Vec<usize> = (0..edges.len())
                    .filter(|&e| support[e].is_some_and(|s| s < floor))
                    .collect();
                if peel.is_empty() {
                    break;
                }
                passes.push((level, peel.iter().map(|&e| edges[e]).collect()));
                for e in peel {
                    let (u, v) = edges[e];
                    for w in common(&adjacency, u, v) {
                        for f in [number(u, w), number(v, w)] {
                            let s = support[f].as_mut().expect("both edges are live");
                            *s = s.saturating_sub(1);
                        }
                    }
                    for (x, y) in [(u, v), (v, u)] {
                        let list = &mut adjacency[x as usize];
                        list.remove(list.binary_search(&y).expect("a live neighbour"));
                    }
                    support[e] = None;
                    truss[e] = level - 1;
                }
            }
            level += 1;
        }
        let truss = edges
            .iter()
            .zip(truss)
            .map(|(&(u, v), trussness)| EdgeTruss { u, v, trussness })
            .collect();
        (passes, truss, initial)
    }

    #[test]
    fn worklist_peel_equals_the_rescan_peel_pass_by_pass() {
        let graphs = [
            ("rmat", rmat(10, 6000, RmatParams::default(), 7).unwrap()),
            ("ba", barabasi_albert(800, 6, 5).unwrap()),
            ("wheel", classic::wheel(12)),
            ("k7", classic::complete(7)),
        ];
        for (name, g) in graphs {
            let (expected_passes, expected_truss, initial) = rescan_peel(&g);
            assert!(!expected_passes.is_empty(), "{name}");
            let edges = edges_of(&adjacency_of(&g));
            for flavor in [MotifFlavor::Sliced, MotifFlavor::Adjacency] {
                for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
                    let ctx = format!("{name} {flavor:?} {encoding:?}");
                    let state = MotifState::new(
                        g.vertex_count(),
                        edges.clone(),
                        flavor,
                        slice16(),
                        encoding,
                    );
                    let mut passes = Passes::new();
                    let (truss, ..) =
                        truss_decompose(state, initial.clone(), None, |level, pass| {
                            passes.push((
                                level,
                                pass.iter().map(|&e| edges[e as usize]).collect(),
                            ))
                        })
                        .unwrap();
                    assert_eq!(passes, expected_passes, "{ctx}");
                    assert_eq!(truss, expected_truss, "{ctx}");
                }
            }
        }
    }

    /// The k-truss engine refuses an anchor run whose per-arc support is
    /// missing or beyond any vertex count: a CPU forward anchor, once
    /// with its support removed and once with every entry pushed past
    /// `u32`.
    #[test]
    fn an_anchor_run_without_support_is_a_pipeline_error() {
        let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
        let prepared = p.prepare(&classic::wheel(12));
        let query = Query::KTruss { k: 3 };
        let anchor = CpuForwardBackend.run(&prepared, query.attribution()).unwrap();
        let beyond =
            anchor.support.as_ref().map(|s| s.iter().map(|c| c + (1 << 32)).collect());
        for (support, message) in [(None, "no support"), (beyond, "beyond any vertex count")] {
            let anchor = ExecutionReport { support, ..anchor.clone() };
            let err =
                ktruss_report(&prepared, &query, anchor, MotifFlavor::Adjacency, None, 3)
                    .unwrap_err();
            assert!(matches!(err, CoreError::Pipeline { .. }), "{err}");
            assert!(err.to_string().contains(message), "{err}");
        }
    }
}
