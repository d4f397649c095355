//! The one AND + BitCount kernel of the TCIM dataflow — Eq. (5),
//! `TC = Σ BitCount(AND(R_i, C_j))` — and the one matrix walker over it.
//!
//! [`and_bitcount`] is the per-arc kernel: it ANDs every visited slice
//! pair of a row and a column, counts the surviving bits, optionally
//! reads non-zero results out into a [`TriangleSink`], and makes the
//! sparse dispatch decision ([`dispatches`]). The serial engine, the
//! scheduler's arrays and the software path run it via [`walk`], and
//! the streaming deltas and shard composition arc by arc. Its slice
//! pairs come from the one matching walk,
//! [`tcim_bitmatrix::matching::walk`], which the motif rounds in
//! `tcim-core` also run over their word-payload row store; a test there
//! pins that kernel to this one over the same bits, counter for counter.
//!
//! [`walk`] is Algorithm 1 over a prepared matrix, generic over the
//! [`Residency`] model the operands are charged to (`()` for none, an
//! [`ArrayBuffer`] for the computational array) and over the sink that
//! carries the [`Attribution`] level (`None` counts only). It runs the
//! kernel only on the arcs that visit at least one slice pair, which the
//! matrix's [`KernelCensus`](tcim_bitmatrix::KernelCensus) lists; an arc
//! that visits none ANDs nothing, reads nothing out, closes no triangle
//! and touches no residency, so the walk bills what it does contribute
//! — a dispatch on dense rows ([`idle_dispatches`]) and its skipped
//! pairs — from the census instead.
//!
//! Per-arc quantities are indexed by an arc's *position* in the
//! matrix's row-major arc list ([`ArcIndex`]): the walker knows the
//! position of the arc it is reading out, and a [`TriangleTally`] finds
//! the triangle's other two arcs with forward cursors, one along the
//! arc's row and one along its column ([`gallop`]), because one kernel
//! pass reads an arc's witnesses out in ascending order.

use std::ops::Range;
use std::sync::OnceLock;

use tcim_bitmatrix::matching::gallop;
use tcim_bitmatrix::popcount::{popcount_word, visit_set_bits, PopcountMethod};
use tcim_bitmatrix::{PairStats, RowEncoding, SlicedMatrix, SlicedRow};
use tcim_telemetry::{EventTrace, KernelEvent};

use crate::buffer::{AccessOutcome, SliceCache};
use crate::stats::AccessStats;

/// What an execution accumulates beyond the triangle count. Levels are
/// ordered by what they read out: each level answers everything the
/// levels below it answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Attribution {
    /// Plain counting: the bit counter consumes AND results in place.
    Count,
    /// Per-vertex participation: every non-zero AND result is read back
    /// out (one read-class access) and its bits attributed.
    PerVertex,
    /// Per-vertex participation plus per-arc triangle support.
    PerVertexWithSupport,
}

impl Attribution {
    /// The sink this level accumulates into over `dim` vertices: `None`
    /// for [`Attribution::Count`]. `arcs` is asked for the arc index of
    /// the walked matrix only at [`Attribution::PerVertexWithSupport`].
    pub fn tally<'a>(
        self,
        dim: usize,
        arcs: impl FnOnce() -> ArcIndex<'a>,
    ) -> Option<TriangleTally<'a>> {
        match self {
            Attribution::Count => None,
            Attribution::PerVertex => Some(TriangleTally::new(dim, None)),
            Attribution::PerVertexWithSupport => Some(TriangleTally::new(dim, Some(arcs()))),
        }
    }
}

/// What an owner keeps to index its row-major arc list: the row offsets,
/// and a column index over the same arcs that is built the first time a
/// [`TriangleTally`] keeps support over it, then memoized here. An
/// [`ArcIndex`] borrows the list and these offsets.
#[derive(Debug, Clone)]
pub struct ArcOffsets {
    /// Row `i`'s arcs sit at positions `rows[i]..rows[i + 1]`.
    rows: Vec<u32>,
    columns: OnceLock<ArcColumns>,
}

/// Every column's arcs: the arcs `(·, j)` sit at positions
/// `positions[offsets[j]..offsets[j + 1]]`, ascending, so ascending by
/// tail. One `u32` per arc plus one per vertex.
#[derive(Debug, Clone)]
struct ArcColumns {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl ArcOffsets {
    /// The row offsets of `arcs` over `dim` vertices.
    ///
    /// # Panics
    ///
    /// Panics when the arcs are not row-major (tails ascending, heads
    /// strictly ascending within a row), a tail is out of bounds, or
    /// there are more than `u32::MAX` arcs.
    pub fn new(dim: usize, arcs: &[(u32, u32)]) -> Self {
        assert!(u32::try_from(arcs.len()).is_ok(), "arc positions fit in u32");
        assert!(arcs.windows(2).all(|w| w[0] < w[1]), "arcs are listed row-major");
        ArcOffsets {
            rows: prefix_counts(dim, arcs.iter().map(|&(i, _)| i)),
            columns: OnceLock::new(),
        }
    }

    /// The column index of `arcs`, which these offsets index: built on
    /// first use.
    fn columns(&self, arcs: &[(u32, u32)]) -> &ArcColumns {
        self.columns.get_or_init(|| {
            let offsets = prefix_counts(self.rows.len() - 1, arcs.iter().map(|&(_, j)| j));
            let mut fill = offsets.clone();
            let mut positions = vec![0u32; arcs.len()];
            for (position, &(_, j)) in (0u32..).zip(arcs) {
                let slot = &mut fill[j as usize];
                positions[*slot as usize] = position;
                *slot += 1;
            }
            ArcColumns { offsets, positions }
        })
    }
}

/// Offsets over `dim` buckets of ascending items: bucket `x`'s items sit
/// at `offsets[x]..offsets[x + 1]`.
fn prefix_counts(dim: usize, items: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut offsets = vec![0u32; dim + 1];
    for x in items {
        offsets[x as usize + 1] += 1;
    }
    for v in 0..dim {
        offsets[v + 1] += offsets[v];
    }
    offsets
}

/// Offsets compare by the arcs they index, whether or not the column
/// index has been built.
impl PartialEq for ArcOffsets {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for ArcOffsets {}

/// Where each arc of a row-major arc list sits — the order
/// [`SlicedMatrix::arcs`] and an oriented graph's arcs are listed in:
/// the list plus its [`ArcOffsets`], so arc `(i, j)` sits at row `i`'s
/// offset plus `j`'s rank among the row's heads. The index borrows both;
/// the offsets are all an owner keeps. Per-arc quantities (triangle
/// support) live in a `Vec` indexed by position.
#[derive(Debug, Clone, Copy)]
pub struct ArcIndex<'a> {
    arcs: &'a [(u32, u32)],
    offsets: &'a ArcOffsets,
}

impl<'a> ArcIndex<'a> {
    /// Indexes `arcs` with their [`ArcOffsets`].
    ///
    /// # Panics
    ///
    /// Panics when the offsets do not span the arcs.
    pub fn new(arcs: &'a [(u32, u32)], offsets: &'a ArcOffsets) -> Self {
        let end = offsets.rows.last().map(|&end| end as usize);
        assert_eq!(end, Some(arcs.len()), "row offsets span the arcs");
        ArcIndex { arcs, offsets }
    }

    /// Number of arcs indexed.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The positions of row `i`'s arcs.
    fn row(&self, i: u32) -> Range<usize> {
        self.offsets.rows[i as usize] as usize..self.offsets.rows[i as usize + 1] as usize
    }

    /// The position of arc `(i, j)`, or `None` when it is not an arc.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn position(&self, i: u32, j: u32) -> Option<usize> {
        let row = self.row(i);
        let heads = &self.arcs[row.clone()];
        heads.binary_search_by_key(&j, |&(_, head)| head).ok().map(|rank| row.start + rank)
    }
}

/// Receives every triangle an attributed kernel surfaces — the per-row
/// accumulation hook behind every query that needs more than the
/// global count (per-vertex participation, clustering coefficients,
/// edge support).
///
/// While processing arc `(i, j)` the kernel's AND result is read back
/// out of the array; a surviving bit `w` is set in both row `i` and
/// column `j`, so over an oriented matrix `i < w < j` and the triangle
/// is reported as `triangle(i, w, j)`. The contract: `triangle(a, b,
/// c)` is called with `a < b < c` in matrix id order while arc `(a, c)`
/// is read out, so the triangle's three edges are exactly the DAG arcs
/// `(a, b)`, `(a, c)` and `(b, c)` and a sink can attribute per-vertex
/// or per-edge quantities without any further graph lookups. Kernels
/// over full-neighbourhood rows (streaming deltas) only collect the
/// witness `b`.
///
/// Closures `FnMut(u32, u32, u32)` implement the trait, so ad-hoc
/// sinks need no named type; a `Vec<u32>` collects the witnesses.
pub trait TriangleSink {
    /// The next triangles are read out of the arc at `position` in the
    /// walked matrix's row-major arc list ([`ArcIndex`]). Sinks that
    /// keep nothing per arc ignore it.
    fn enter_arc(&mut self, _position: usize) {}

    /// Called once per triangle `{a, b, c}`, `a < b < c` in matrix id
    /// order (arcs `(a, b)`, `(a, c)`, `(b, c)`), while arc `(a, c)` is
    /// read out.
    fn triangle(&mut self, a: u32, b: u32, c: u32);
}

impl<F: FnMut(u32, u32, u32)> TriangleSink for F {
    fn triangle(&mut self, a: u32, b: u32, c: u32) {
        self(a, b, c);
    }
}

/// Collects each triangle's witness (middle vertex), ascending per arc.
impl TriangleSink for Vec<u32> {
    fn triangle(&mut self, _: u32, b: u32, _: u32) {
        self.push(b);
    }
}

/// The canonical [`TriangleSink`]: accumulates per-vertex triangle
/// participation and (optionally) per-arc triangle support, shared by
/// every attributed execution path in the repository so the attribution
/// bookkeeping has exactly one implementation.
///
/// Support is one counter per arc of an [`ArcIndex`], at the arc's
/// position. The arc `(a, c)` being read out is the position the walker
/// entered ([`TriangleSink::enter_arc`]). Its witnesses `b` arrive in
/// ascending order within one kernel pass, so the triangle's other two
/// arcs are found by forward cursors that [`gallop`]: `(a, b)` along row
/// `a`, and `(b, c)` along column `c`'s arc positions, as the first one
/// at or past row `b`'s offset. Entering an arc resets both cursors, and
/// a witness below its predecessor restarts them at the row and column
/// start, so an arc read out in several passes (a shard composition arc
/// runs three sub-passes) is tallied exactly in any pass order. The
/// column index is memoized on the [`ArcOffsets`] the first time a tally
/// keeps support over them. Callers that already know all three
/// positions (the CPU forward baseline) use [`TriangleTally::triangle_at`].
#[derive(Debug, Clone)]
pub struct TriangleTally<'a> {
    per_vertex: Vec<u64>,
    support: Option<ArcSupport<'a>>,
    triangles: u64,
}

/// Per-arc support counters over one arc index, with the cursors that
/// find each triangle's other two arcs.
#[derive(Debug, Clone)]
struct ArcSupport<'a> {
    arcs: ArcIndex<'a>,
    columns: &'a ArcColumns,
    counts: Vec<u64>,
    /// Position of the arc being read out.
    current: usize,
    /// The last witness, and where its arcs were found: a position on
    /// the current arc's row, and an index into its column's positions.
    witness: u32,
    row_cursor: usize,
    column_cursor: usize,
}

impl<'a> ArcSupport<'a> {
    /// Moves both cursors to the start of the current arc's row and
    /// column.
    fn rewind(&mut self) {
        let (a, c) = self.arcs.arcs[self.current];
        self.witness = 0;
        self.row_cursor = self.arcs.row(a).start;
        self.column_cursor = self.columns.offsets[c as usize] as usize;
    }

    /// The positions of arcs `(a, b)` and `(b, c)` of a triangle read out
    /// of the current arc `(a, c)`.
    fn find(&mut self, a: u32, b: u32, c: u32) -> (usize, usize) {
        debug_assert_eq!(self.arcs.arcs[self.current], (a, c), "triangles of the entered arc");
        if b < self.witness {
            self.rewind();
        }
        self.witness = b;
        let row = &self.arcs.arcs[..self.arcs.row(a).end];
        self.row_cursor = gallop(row, self.row_cursor, |&(_, head)| head < b);
        let column = &self.columns.positions[..self.columns.offsets[c as usize + 1] as usize];
        let row_b = self.arcs.offsets.rows[b as usize];
        self.column_cursor = gallop(column, self.column_cursor, |&position| position < row_b);
        let ab = Some(self.row_cursor).filter(|&ab| row.get(ab) == Some(&(a, b)));
        let bc = column
            .get(self.column_cursor)
            .map(|&position| position as usize)
            .filter(|&bc| self.arcs.arcs[bc] == (b, c));
        ab.zip(bc).expect("a triangle's arcs are arcs of the index")
    }
}

impl<'a> TriangleTally<'a> {
    /// An empty tally over `dim` vertices; accumulates per-arc support
    /// over the arcs of `support` when one is given, building their
    /// column index if no tally has yet.
    pub fn new(dim: usize, support: Option<ArcIndex<'a>>) -> Self {
        TriangleTally {
            per_vertex: vec![0u64; dim],
            support: support.map(|arcs| ArcSupport {
                arcs,
                columns: arcs.offsets.columns(arcs.arcs),
                counts: vec![0u64; arcs.arc_count()],
                current: 0,
                witness: 0,
                row_cursor: 0,
                column_cursor: 0,
            }),
            triangles: 0,
        }
    }

    /// An empty tally of the same shape: same vertex count, support
    /// over the same arc index if this one keeps it (one array's partial,
    /// say).
    pub fn empty_like(&self) -> Self {
        TriangleTally::new(self.per_vertex.len(), self.support.as_ref().map(|s| s.arcs))
    }

    /// Triangles recorded so far.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Records triangle `{a, b, c}`, `a < b < c`, whose arcs `(a, b)`,
    /// `(a, c)` and `(b, c)` sit at `arcs` (in any order) — for callers
    /// that know every position, so no arc is looked up. A tally without
    /// support ignores the positions.
    pub fn triangle_at(&mut self, [a, b, c]: [u32; 3], arcs: [usize; 3]) {
        self.count_vertices(a, b, c);
        if let Some(support) = self.support.as_mut() {
            for position in arcs {
                support.counts[position] += 1;
            }
        }
    }

    fn count_vertices(&mut self, a: u32, b: u32, c: u32) {
        self.triangles += 1;
        self.per_vertex[a as usize] += 1;
        self.per_vertex[b as usize] += 1;
        self.per_vertex[c as usize] += 1;
    }

    /// Adds a partial tally of the same shape (one array's, say) into
    /// this one: element-wise vector adds. Sums are order-independent,
    /// so merging partials in any fixed order gives identical results.
    ///
    /// # Panics
    ///
    /// Panics when the tallies differ in shape.
    pub fn merge(&mut self, other: TriangleTally<'_>) {
        self.triangles += other.triangles;
        add_into(&mut self.per_vertex, &other.per_vertex);
        match (self.support.as_mut(), other.support) {
            (Some(total), Some(part)) => add_into(&mut total.counts, &part.counts),
            (None, None) => {}
            _ => panic!("tallies differ in shape"),
        }
    }

    /// Consumes the tally: `(triangles, per-vertex counts, per-arc
    /// support)`. Support is one count per arc of the index, in
    /// position order; `None` unless requested at construction.
    pub fn into_parts(self) -> (u64, Vec<u64>, Option<Vec<u64>>) {
        (self.triangles, self.per_vertex, self.support.map(|s| s.counts))
    }
}

/// `total[k] += part[k]` for every `k` of two tallies' vectors.
fn add_into(total: &mut [u64], part: &[u64]) {
    assert_eq!(total.len(), part.len(), "tallies differ in shape");
    for (sum, add) in total.iter_mut().zip(part) {
        *sum += add;
    }
}

impl TriangleSink for TriangleTally<'_> {
    fn enter_arc(&mut self, position: usize) {
        if let Some(support) = self.support.as_mut() {
            support.current = position;
            support.rewind();
        }
    }

    fn triangle(&mut self, a: u32, b: u32, c: u32) {
        self.count_vertices(a, b, c);
        if let Some(support) = self.support.as_mut() {
            let (ab, bc) = support.find(a, b, c);
            support.counts[support.current] += 1;
            support.counts[ab] += 1;
            support.counts[bc] += 1;
        }
    }
}

/// The sparse dispatch rule: dense rows launch the kernel for every
/// arc; on sparse rows the controller consults the summary masks first
/// and launches only when the walk visits at least one pair.
pub fn dispatches(encoding: RowEncoding, pairs: PairStats) -> bool {
    encoding == RowEncoding::Dense || pairs.visited > 0
}

/// The dispatches of `idle` arcs that visit no slice pair under
/// `encoding` ([`dispatches`]): one each on dense rows, none on sparse
/// ones.
pub fn idle_dispatches(encoding: RowEncoding, idle: u64) -> u64 {
    idle * u64::from(dispatches(encoding, PairStats::default()))
}

/// One arc's kernel outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArcKernel {
    /// Bits surviving the AND: the arc's triangles (common neighbours).
    pub count: u64,
    /// Slice pairs visited (one AND + BitCount each) and skipped.
    pub pairs: PairStats,
    /// Non-zero AND results read out into the sink (zero without one).
    pub readouts: u64,
    /// Whether the controller launches this kernel ([`dispatches`]).
    pub dispatched: bool,
}

impl ArcKernel {
    /// Folds in another pass over the same arc (shard composition runs
    /// one arc as region-disjoint sub-passes); the arc dispatches when
    /// any pass does.
    pub fn absorb(&mut self, other: ArcKernel) {
        self.count += other.count;
        self.pairs.visited += other.pairs.visited;
        self.pairs.skipped += other.pairs.skipped;
        self.readouts += other.readouts;
        self.dispatched |= other.dispatched;
    }
}

/// The AND + BitCount kernel over arc `arc = (i, j)`: ANDs every
/// visited slice pair of `row` and `col`, counts each result with
/// `popcount`, and calls `on_pair(slice, count)` per pair. With a
/// `sink`, each non-zero result is read out and every surviving bit
/// `w` is reported as `sink.triangle(i, w, j)`; zero results are
/// filtered by the bit counter and never read out.
///
/// # Panics
///
/// Panics when the operands disagree in slice size, length or encoding
/// (rows and columns of one matrix always agree by construction).
pub fn and_bitcount<S: TriangleSink + ?Sized>(
    (i, j): (u32, u32),
    row: &SlicedRow,
    col: &SlicedRow,
    popcount: PopcountMethod,
    mut sink: Option<&mut S>,
    mut on_pair: impl FnMut(u32, u64),
) -> ArcKernel {
    let mut count = 0u64;
    let mut readouts = 0u64;
    let pairs = row
        .for_each_matching(col, |k, anded| {
            let mut bits = 0u64;
            for &word in anded {
                bits += u64::from(popcount_word(word, popcount));
            }
            count += bits;
            on_pair(k, bits);
            if bits > 0 {
                if let Some(sink) = sink.as_deref_mut() {
                    readouts += 1;
                    let base = k * row.slice_size().bits();
                    visit_set_bits(anded.iter().copied(), |offset| {
                        sink.triangle(i, base + offset, j);
                    });
                }
            }
        })
        .expect("kernel operands share slice size, length and encoding");
    ArcKernel { count, pairs, readouts, dispatched: dispatches(row.encoding(), pairs) }
}

/// Where a walk's operands are charged to.
///
/// `()` is the host-only model (the software path: no array, nothing
/// loaded); [`ArrayBuffer`] is the computational array's.
pub trait Residency {
    /// A new row becomes the current row.
    fn begin_row(&mut self);
    /// Slice pair `k` of arc `(i, j)` was ANDed and counted `count` bits.
    fn pair(&mut self, i: u32, j: u32, k: u32, count: u64, stats: &mut AccessStats);
}

impl Residency for () {
    fn begin_row(&mut self) {}
    fn pair(&mut self, _: u32, _: u32, _: u32, _: u64, _: &mut AccessStats) {}
}

/// The computational array's data buffer (Fig. 4): the reserved row
/// region holding the current row's slices (§IV-A), the column-slice
/// cache, and the kernel-event trace (capacity 0 records nothing).
#[derive(Debug, Clone)]
pub struct ArrayBuffer {
    /// The row region: slice `k` of the current row is resident when
    /// `row_stamps[k] == row_epoch`, so a new row clears it by moving to
    /// the next epoch.
    row_stamps: Vec<u32>,
    row_epoch: u32,
    cache: SliceCache,
    trace: EventTrace,
}

impl ArrayBuffer {
    /// An empty buffer over `cache`, recording into `trace`.
    pub fn new(cache: SliceCache, trace: EventTrace) -> Self {
        ArrayBuffer { row_stamps: Vec::new(), row_epoch: 1, cache, trace }
    }

    /// The recorded kernel events.
    pub fn into_trace(self) -> EventTrace {
        self.trace
    }
}

impl Residency for ArrayBuffer {
    fn begin_row(&mut self) {
        // The new row overwrites the reserved row region (§IV-A).
        self.row_epoch = self.row_epoch.wrapping_add(1);
        if self.row_epoch == 0 {
            self.row_stamps.fill(0);
            self.row_epoch = 1;
        }
    }

    fn pair(&mut self, i: u32, j: u32, k: u32, count: u64, stats: &mut AccessStats) {
        let slice = k as usize;
        if slice >= self.row_stamps.len() {
            self.row_stamps.resize(slice + 1, 0);
        }
        if std::mem::replace(&mut self.row_stamps[slice], self.row_epoch) != self.row_epoch {
            stats.row_slice_writes += 1;
            self.trace.push(KernelEvent::RowSliceWrite { row: i, slice: k });
        }
        match self.cache.access((u64::from(j) << 32) | u64::from(k)) {
            AccessOutcome::Hit => {
                stats.col_hits += 1;
                self.trace.push(KernelEvent::ColHit { col: j, slice: k });
            }
            AccessOutcome::Miss => {
                stats.col_misses += 1;
                self.trace.push(KernelEvent::ColMiss { col: j, slice: k });
            }
            AccessOutcome::Exchange { .. } => {
                stats.col_exchanges += 1;
                self.trace.push(KernelEvent::ColExchange { col: j, slice: k });
            }
        }
        // The in-array AND feeds the bit counter (Fig. 4 dataflow).
        self.trace.push(KernelEvent::AndBitcount {
            row: i,
            col: j,
            slice: k,
            count: count as u32,
        });
    }
}

/// What a [`walk`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Triangles: bits surviving every AND.
    pub triangles: u64,
    /// Operation counts; `edges` holds the kernel dispatches. Residency
    /// counters stay zero under `()`.
    pub stats: AccessStats,
}

/// Algorithm 1 over `rows` of `matrix`: each is a span of positions in
/// the matrix's row-major arc list that covers whole rows
/// (`0..matrix.edge_count()` for the whole matrix). One
/// [`and_bitcount`] per arc that visits a slice pair, in arc order, with
/// the operands charged to `residency` and non-zero results read out
/// into `sink` (`None` counts only), which is told each arc's position
/// first. The arcs that visit no pair are not walked: the matrix's
/// [`KernelCensus`](tcim_bitmatrix::KernelCensus) adds their dispatches
/// ([`idle_dispatches`]) and skipped pairs, so every count equals a walk
/// over every arc.
///
/// # Panics
///
/// Panics when a span splits a row or reaches past the arc list.
pub fn walk<R: Residency, S: TriangleSink + ?Sized>(
    matrix: &SlicedMatrix,
    rows: impl IntoIterator<Item = Range<usize>>,
    popcount: PopcountMethod,
    residency: &mut R,
    mut sink: Option<&mut S>,
) -> Walk {
    let census = matrix.census();
    let arcs = matrix.arcs();
    let mut stats = AccessStats::default();
    let mut triangles = 0u64;
    let mut idle = 0u64;
    for span in rows {
        if span.is_empty() {
            continue;
        }
        let (first_row, last_row) = (arcs[span.start].0, arcs[span.end - 1].0);
        assert!(
            span.start == 0 || arcs[span.start - 1].0 != first_row,
            "a walked span starts at a row's first arc"
        );
        assert!(
            arcs.get(span.end).is_none_or(|&(i, _)| i != last_row),
            "a walked span ends at a row's last arc"
        );
        let mut current_row = None;
        let mut visiting = 0u64;
        for position in census.visiting(span.clone()) {
            let (i, j) = arcs[position];
            if current_row != Some(i) {
                current_row = Some(i);
                residency.begin_row();
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.enter_arc(position);
            }
            let arc = and_bitcount(
                (i, j),
                matrix.row(i),
                matrix.col(j),
                popcount,
                sink.as_deref_mut(),
                |k, count| residency.pair(i, j, k, count, &mut stats),
            );
            triangles += arc.count;
            stats.edges += u64::from(arc.dispatched);
            stats.and_ops += arc.pairs.visited;
            stats.bitcount_ops += arc.pairs.visited;
            stats.blocks_skipped += arc.pairs.skipped;
            stats.result_readouts += arc.readouts;
            visiting += 1;
        }
        idle += span.len() as u64 - visiting;
        stats.blocks_skipped += census.idle_skipped(first_row as usize..last_row as usize + 1);
    }
    stats.edges += idle_dispatches(matrix.encoding(), idle);
    Walk { triangles, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ReplacementPolicy;
    use tcim_bitmatrix::{EncodingPolicy, SliceSize};

    fn fig2(encoding: RowEncoding) -> SlicedMatrix {
        let adjacency = vec![vec![1, 2], vec![2, 3], vec![3], vec![]];
        SlicedMatrix::from_adjacency_with(
            &adjacency,
            SliceSize::S64,
            EncodingPolicy::force(encoding),
        )
        .unwrap()
    }

    #[test]
    fn dispatch_rule_launches_every_dense_arc_and_only_visited_sparse_arcs() {
        let none = PairStats { visited: 0, skipped: 3 };
        let some = PairStats { visited: 1, skipped: 0 };
        assert!(dispatches(RowEncoding::Dense, none));
        assert!(dispatches(RowEncoding::Dense, some));
        assert!(!dispatches(RowEncoding::Sparse, none));
        assert!(dispatches(RowEncoding::Sparse, some));
    }

    #[test]
    fn arc_kernel_counts_and_reads_out_witnesses() {
        let m = fig2(RowEncoding::Dense);
        let mut witnesses = Vec::new();
        let mut pairs = Vec::new();
        let arc = and_bitcount(
            (0, 2),
            m.row(0),
            m.col(2),
            PopcountMethod::Lut8,
            Some(&mut witnesses),
            |k, count| pairs.push((k, count)),
        );
        assert_eq!(witnesses, vec![1], "0 < 1 < 2 closes the triangle");
        assert_eq!(pairs, vec![(0, 1)]);
        assert_eq!(
            arc,
            ArcKernel {
                count: 1,
                pairs: PairStats { visited: 1, skipped: 0 },
                readouts: 1,
                dispatched: true
            }
        );
        let counted = and_bitcount(
            (0, 1),
            m.row(0),
            m.col(1),
            PopcountMethod::Native,
            None::<&mut Vec<u32>>,
            |_, _| {},
        );
        assert_eq!(
            (counted.count, counted.readouts),
            (0, 0),
            "zero results are never read out"
        );
    }

    #[test]
    fn absorbing_sub_passes_sums_work_and_ors_dispatch() {
        let mut arc = ArcKernel::default();
        arc.absorb(ArcKernel {
            pairs: PairStats { visited: 0, skipped: 2 },
            ..ArcKernel::default()
        });
        assert!(!arc.dispatched);
        arc.absorb(ArcKernel {
            count: 3,
            pairs: PairStats { visited: 2, skipped: 1 },
            readouts: 1,
            dispatched: true,
        });
        assert_eq!(arc.pairs, PairStats { visited: 2, skipped: 3 });
        assert_eq!((arc.count, arc.readouts, arc.dispatched), (3, 1, true));
    }

    #[test]
    fn host_and_array_walks_agree_on_every_shared_counter() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let m = fig2(encoding);
            let offsets = ArcOffsets::new(m.dim(), m.arcs());
            let arcs = ArcIndex::new(m.arcs(), &offsets);
            let host = walk(
                &m,
                std::iter::once(0..m.edge_count()),
                PopcountMethod::Native,
                &mut (),
                None::<&mut TriangleTally>,
            );
            let mut buffer = ArrayBuffer::new(
                SliceCache::new(8, ReplacementPolicy::Lru, 0),
                EventTrace::new(64),
            );
            let mut tally = TriangleTally::new(4, Some(arcs));
            let array = walk(
                &m,
                std::iter::once(0..m.edge_count()),
                PopcountMethod::Lut8,
                &mut buffer,
                Some(&mut tally),
            );
            assert_eq!(host.triangles, 2);
            assert_eq!(array.triangles, 2);
            assert_eq!(host.stats.edges, array.stats.edges);
            assert_eq!(host.stats.and_ops, array.stats.and_ops);
            assert_eq!(host.stats.row_slice_writes, 0, "the host loads nothing");
            assert_eq!(array.stats.row_slice_writes, 3);
            assert_eq!(array.stats.result_readouts, 2);
            // 3 row writes + 5 column accesses + 5 AND/BitCount events.
            assert_eq!(buffer.into_trace().len(), 13);
            let (_, per_vertex, support) = tally.into_parts();
            assert_eq!(per_vertex, vec![1, 2, 2, 1]);
            // Arcs (0,1) (0,2) (1,2) (1,3) (2,3): (1,2) closes both
            // triangles.
            assert_eq!(support.unwrap(), vec![1, 1, 2, 1, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "row's first arc")]
    fn a_walk_rejects_a_span_that_splits_a_row() {
        // Arcs (0,1) (0,2) (1,2) (1,3) (2,3): 1..4 starts inside row 0.
        let m = fig2(RowEncoding::Dense);
        let split = std::iter::once(1..4);
        walk(&m, split, PopcountMethod::Native, &mut (), None::<&mut TriangleTally>);
    }

    #[test]
    fn the_row_region_starts_empty_after_the_epoch_wraps() {
        let cache = SliceCache::new(8, ReplacementPolicy::Lru, 0);
        let mut buffer = ArrayBuffer::new(cache, EventTrace::new(0));
        let mut stats = AccessStats::default();
        buffer.begin_row();
        buffer.pair(0, 1, 2, 1, &mut stats);
        buffer.row_epoch = u32::MAX;
        buffer.begin_row();
        buffer.pair(3, 4, 2, 1, &mut stats);
        buffer.pair(3, 5, 5, 1, &mut stats);
        buffer.pair(3, 6, 5, 1, &mut stats);
        assert_eq!(stats.row_slice_writes, 3, "each row writes each of its slices once");
    }

    #[test]
    fn arc_index_positions_are_row_offsets_plus_ranks() {
        let m = fig2(RowEncoding::Dense);
        let offsets = ArcOffsets::new(m.dim(), m.arcs());
        assert_eq!(offsets.rows, vec![0, 2, 4, 5, 5]);
        let arcs = ArcIndex::new(m.arcs(), &offsets);
        assert_eq!(arcs.arc_count(), 5);
        for (position, (i, j)) in m.edges().enumerate() {
            assert_eq!(arcs.position(i, j), Some(position));
        }
        assert_eq!(arcs.position(0, 3), None);
        assert_eq!(arcs.position(3, 0), None, "arcs point upward only");
        assert_eq!(ArcIndex::new(&[], &ArcOffsets::new(0, &[])).arc_count(), 0);
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn arc_index_rejects_arcs_out_of_order() {
        ArcOffsets::new(3, &[(1, 2), (0, 1)]);
    }

    #[test]
    fn merged_tallies_equal_one_tally() {
        // K4 over 0..4: arcs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) at
        // positions 0..6, four triangles.
        let adjacency = vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![]];
        let m = SlicedMatrix::from_adjacency(&adjacency, SliceSize::S64).unwrap();
        let offsets = ArcOffsets::new(m.dim(), m.arcs());
        let mut whole = TriangleTally::new(4, Some(ArcIndex::new(m.arcs(), &offsets)));
        walk(
            &m,
            std::iter::once(0..m.edge_count()),
            PopcountMethod::Native,
            &mut (),
            Some(&mut whole),
        );
        // Partial walks over disjoint row sets — a leading block of rows,
        // and every other row — merge to the single-tally result.
        let rows = [0..3, 3..5, 5..6];
        let splits: [fn(usize) -> bool; 2] = [|r| r < 1, |r| r % 2 == 0];
        for in_first in splits {
            let mut parts = [whole.empty_like(), whole.empty_like()];
            for (r, span) in rows.iter().enumerate() {
                let part = &mut parts[usize::from(!in_first(r))];
                walk(&m, [span.clone()], PopcountMethod::Native, &mut (), Some(part));
            }
            let [mut merged, second] = parts;
            merged.merge(second);
            assert_eq!(merged.into_parts(), whole.clone().into_parts());
        }
        let (triangles, per_vertex, support) = whole.into_parts();
        assert_eq!(triangles, 4);
        assert_eq!(per_vertex, vec![3; 4]);
        assert_eq!(support.unwrap(), vec![2; 6], "every K4 edge is in two triangles");
    }

    #[test]
    fn known_positions_skip_the_lookups() {
        let m = fig2(RowEncoding::Dense);
        let offsets = ArcOffsets::new(m.dim(), m.arcs());
        let arcs = ArcIndex::new(m.arcs(), &offsets);
        let mut looked_up = TriangleTally::new(4, Some(arcs));
        looked_up.enter_arc(1);
        looked_up.triangle(0, 1, 2);
        let mut given = TriangleTally::new(4, Some(arcs));
        given.triangle_at([0, 1, 2], [0, 1, 2]);
        assert_eq!(looked_up.into_parts(), given.into_parts());
    }

    #[test]
    #[should_panic(expected = "differ in shape")]
    fn tallies_of_different_shapes_do_not_merge() {
        let offsets = ArcOffsets::new(4, &[(0, 1)]);
        let mut with_support = TriangleTally::new(4, Some(ArcIndex::new(&[(0, 1)], &offsets)));
        with_support.merge(TriangleTally::new(4, None));
    }

    #[test]
    fn attribution_levels_pick_their_tally() {
        let list = [(0, 1), (0, 2), (1, 2)];
        let offsets = ArcOffsets::new(3, &list);
        let unused = || -> ArcIndex { panic!("only support needs the arc index") };
        assert!(Attribution::Count.tally(3, unused).is_none());
        let mut tally = Attribution::PerVertex.tally(3, unused).unwrap();
        tally.triangle(0, 1, 2);
        assert!(tally.into_parts().2.is_none());
        assert!(offsets.columns.get().is_none(), "no tally kept support yet");
        let arcs = || ArcIndex::new(&list, &offsets);
        let mut tally = Attribution::PerVertexWithSupport.tally(3, arcs).unwrap();
        tally.enter_arc(1);
        tally.triangle(0, 1, 2);
        assert_eq!(tally.into_parts().2.unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn the_column_index_is_built_once_by_the_first_support_tally() {
        let list = [(0, 2), (0, 3), (1, 3), (2, 3)];
        let offsets = ArcOffsets::new(4, &list);
        let arcs = ArcIndex::new(&list, &offsets);
        TriangleTally::new(4, None);
        assert!(offsets.columns.get().is_none(), "a tally without support builds nothing");
        let first = TriangleTally::new(4, Some(arcs));
        let built = offsets.columns.get().expect("built by the support tally");
        assert_eq!(built.offsets, vec![0, 0, 0, 1, 4]);
        assert_eq!(built.positions, vec![0, 1, 2, 3], "column 3 lists its arcs by tail");
        let again = first.empty_like();
        let reused = again.support.as_ref().map(|s| s.columns as *const ArcColumns);
        assert_eq!(reused, Some(built as *const ArcColumns), "later tallies reuse it");
    }

    /// A DAG over 40 vertices, dense enough that rows and columns hold
    /// long runs of arcs, listed row-major.
    fn dense_dag() -> Vec<(u32, u32)> {
        let n = 40u32;
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| (i * 7 + j * 3) % 5 != 0)
            .collect()
    }

    #[test]
    fn cursors_restart_when_witnesses_go_backwards_across_sub_passes() {
        let list = dense_dag();
        let offsets = ArcOffsets::new(40, &list);
        let arcs = ArcIndex::new(&list, &offsets);
        let mut cursors = TriangleTally::new(40, Some(arcs));
        let mut searched = TriangleTally::new(40, Some(arcs));
        let mut triangles = 0;
        for (ac, &(a, c)) in list.iter().enumerate() {
            let witnesses: Vec<u32> = (a + 1..c)
                .filter(|&b| arcs.position(a, b).is_some() && arcs.position(b, c).is_some())
                .collect();
            // Three passes over the arc, each ascending, together not:
            // every third witness, from three offsets.
            cursors.enter_arc(ac);
            for pass in 0..3 {
                for &b in witnesses.iter().skip(pass).step_by(3) {
                    cursors.triangle(a, b, c);
                }
            }
            for &b in &witnesses {
                let ab = arcs.position(a, b).unwrap();
                let bc = arcs.position(b, c).unwrap();
                searched.triangle_at([a, b, c], [ab, ac, bc]);
            }
            triangles += witnesses.len();
        }
        assert!(triangles > 1000, "{triangles} triangles");
        assert_eq!(cursors.into_parts(), searched.into_parts());
    }

    #[test]
    #[should_panic(expected = "arcs of the index")]
    fn a_triangle_whose_arc_is_missing_panics() {
        // Arc (1, 2) is missing, so (0, 1, 2) is no triangle of the index.
        let list = [(0, 1), (0, 2)];
        let offsets = ArcOffsets::new(3, &list);
        let mut tally = TriangleTally::new(3, Some(ArcIndex::new(&list, &offsets)));
        tally.enter_arc(1);
        tally.triangle(0, 1, 2);
    }
}
