//! Cross-shard boundary slices: the sliced row/column material the
//! composition pass ANDs.
//!
//! For a cross-shard arc `(a, c)` the TCIM kernel needs row `R_a` and
//! column `C_c` of the *global* oriented matrix. Shard cuts are
//! slice-aligned, so each operand splits cleanly (via
//! [`SlicedRow::restrict_slices`]) into a **local** part — the
//! slices covering the owning shard's own vertex range — and a
//! **boundary** part — the slices referring to other shards. Only
//! vertices that actually terminate a cross arc get material extracted;
//! everything else stays inside its shard's own prepared artifact.
//! Operands are built under the caller's [`RowEncoding`] so a sparse
//! base artifact keeps its skip-empty walk across shard cuts, and each
//! cross arc's two operands are resolved to indices once, at
//! extraction, so the composition pass looks nothing up per arc.
//!
//! Extraction also makes the composition pass's one dry walk: the
//! slice pairs each of a cross arc's three sub-passes visits and skips,
//! without ANDing anything. It yields the pass's exact kernel census
//! ([`ComposeCensus`]) and lets a composition plan leave out the arcs
//! that visit no pair, and run only the sub-passes that visit one.

use tcim_arch::kernel;
use tcim_bitmatrix::{PairStats, RowEncoding, SliceSize, SlicedRow};
use tcim_graph::OrientedGraph;

use crate::plan::ShardPlan;

/// The structural kernel census of a composition pass, computed
/// without executing any kernels.
///
/// The composition's dispatch accounting is *structural*: whether an
/// arc dispatches and how many slice pairs it visits depend only on
/// the boundary operands' valid-slice structure (and the sparse
/// byte-mask filter), never on placement or AND results. The dry walk
/// over the same [`BoundarySlices`] therefore predicts the executed
/// [`CompositionRun`](crate::CompositionRun)'s `kernel_invocations` /
/// `slice_pairs` / `blocks_skipped` bit-exactly — which is what query
/// EXPLAIN plans rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComposeCensus {
    /// Kernel dispatches the pass will make (one per cross arc on
    /// dense operands; sparse arcs whose sub-passes all filter to
    /// nothing are skipped).
    pub kernel_invocations: u64,
    /// Valid slice pairs the pass will AND + BitCount.
    pub slice_pairs: u64,
    /// Mutually valid pairs the sparse byte-mask filter will skip.
    pub blocks_skipped: u64,
}

/// The dry walk's outcome for one cross arc: the slice pairs its three
/// sub-passes visit, which of them visit any, and the pairs the sparse
/// filter skips in the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArcPairs {
    /// Pairs ANDed and counted; zero for an arc that visits no pair.
    pub(crate) visited: u32,
    /// Mutually valid pairs the sparse filter proves zero in the
    /// sub-passes that visit no pair (every sub-pass of an idle arc).
    pub(crate) idle_skipped: u32,
    /// Bit `s` is set when sub-pass `s` ([`sub_passes`]) visits a pair.
    pub(crate) passes: u8,
}

/// One operand of a composition kernel, split at its owning shard's
/// slice range.
///
/// For a row (out-neighbourhood of a tail vertex) `local` covers the
/// shard's own slice range and `boundary` the slices *after* it (arcs
/// only point upward). For a column (in-neighbourhood of a head
/// vertex) `boundary` covers the slices *before* the shard and `local`
/// the shard's own range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitOperand {
    /// Slices inside the owning shard's slice range.
    pub local: SlicedRow,
    /// Slices outside it — the cross-shard boundary material.
    pub boundary: SlicedRow,
}

impl SplitOperand {
    /// Total valid slices across both parts (what a composition kernel
    /// writes for this operand).
    pub fn valid_slices(&self) -> u64 {
        (self.local.valid_slice_count() + self.boundary.valid_slice_count()) as u64
    }
}

/// The extracted boundary material of a sharded graph: split sliced
/// rows for every vertex with an outgoing cross arc, split sliced
/// columns for every vertex with an incoming one, plus the cross-arc
/// list itself (row-major, deterministic) with each arc's operands
/// resolved to indices.
#[derive(Debug, Clone)]
pub struct BoundarySlices {
    /// Cross-tail vertices, ascending; `rows[r]` is `row_ids[r]`'s row.
    row_ids: Vec<u32>,
    rows: Vec<SplitOperand>,
    /// Cross-head vertices, ascending; `cols[h]` is `col_ids[h]`'s column.
    col_ids: Vec<u32>,
    cols: Vec<SplitOperand>,
    cross_arcs: Vec<(u32, u32)>,
    /// `(row index, column index)` of each cross arc, aligned with
    /// `cross_arcs`.
    arc_operands: Vec<(usize, usize)>,
    /// The dry walk's pair census of each cross arc, aligned with
    /// `cross_arcs`.
    arc_pairs: Vec<ArcPairs>,
    encoding: RowEncoding,
    census: ComposeCensus,
    boundary_valid_slices: u64,
}

impl BoundarySlices {
    /// Extracts the boundary material for `plan` over `oriented`.
    ///
    /// One pass classifies arcs; marked tail vertices get their full
    /// oriented row sliced and split at their shard's upper cut, marked
    /// head vertices get their in-neighbour column sliced and split at
    /// their shard's lower cut. Every operand is compressed under
    /// `encoding` — pass the base artifact's resolved encoding so the
    /// composition pass runs the same kernel walk the shards do. A
    /// final index-only walk over the cross arcs takes the pass's
    /// kernel census ([`BoundarySlices::census`]).
    pub fn extract(
        oriented: &OrientedGraph,
        plan: &ShardPlan,
        slice_size: SliceSize,
        encoding: RowEncoding,
    ) -> BoundarySlices {
        let n = oriented.vertex_count();
        let total_slices = slice_size.slices_for(n) as u32;
        let cross_arcs: Vec<(u32, u32)> =
            oriented.arcs().filter(|&(a, c)| plan.is_cross(a, c)).collect();
        // Row-major arc order lists tails ascending already.
        let mut row_ids: Vec<u32> = cross_arcs.iter().map(|&(a, _)| a).collect();
        row_ids.dedup();
        let mut col_ids: Vec<u32> = cross_arcs.iter().map(|&(_, c)| c).collect();
        col_ids.sort_unstable();
        col_ids.dedup();
        let index = |ids: &[u32], v: u32| {
            ids.binary_search(&v).expect("every cross-arc endpoint has an operand")
        };
        let arc_operands: Vec<(usize, usize)> = cross_arcs
            .iter()
            .map(|&(a, c)| (index(&row_ids, a), index(&col_ids, c)))
            .collect();

        // Full in-neighbour lists for cross heads: a middle vertex `w`
        // closes the triangle through arc `(w, c)` whether that arc is
        // intra- or cross-shard, so the column operand must carry every
        // tail of `c`. Row-major arc order appends tails ascending, as
        // slicing requires.
        let mut col_tails: Vec<Vec<u32>> = vec![Vec::new(); col_ids.len()];
        for (a, c) in oriented.arcs() {
            if let Ok(h) = col_ids.binary_search(&c) {
                col_tails[h].push(a);
            }
        }

        let rows: Vec<SplitOperand> = row_ids
            .iter()
            .map(|&a| {
                let full = SlicedRow::from_sorted_indices(
                    n,
                    oriented.row(a).iter().map(|&j| j as usize),
                    slice_size,
                    encoding,
                );
                let own = plan.slice_range(plan.shard_of(a));
                SplitOperand {
                    local: full.restrict_slices(own.clone()),
                    boundary: full.restrict_slices(own.end..total_slices),
                }
            })
            .collect();
        let cols: Vec<SplitOperand> = col_ids
            .iter()
            .zip(col_tails)
            .map(|(&c, tails)| {
                let full = SlicedRow::from_sorted_indices(
                    n,
                    tails.iter().map(|&a| a as usize),
                    slice_size,
                    encoding,
                );
                let own = plan.slice_range(plan.shard_of(c));
                SplitOperand {
                    boundary: full.restrict_slices(0..own.start),
                    local: full.restrict_slices(own),
                }
            })
            .collect();

        let boundary_valid_slices =
            rows.iter().chain(&cols).map(|s| s.boundary.valid_slice_count() as u64).sum();

        // The dry walk: the same per-arc rule as the composition
        // kernels, minus the ANDs.
        let mut census = ComposeCensus::default();
        let arc_pairs = arc_operands
            .iter()
            .map(|&(r, h)| {
                let mut pairs = PairStats::default();
                let (mut idle_skipped, mut passes) = (0u64, 0u8);
                for (s, (left, right)) in
                    sub_passes(&rows[r], &cols[h]).into_iter().enumerate()
                {
                    let sub = left
                        .matching_stats(right)
                        .expect("boundary operands share slice size and universe");
                    pairs.visited += sub.visited;
                    pairs.skipped += sub.skipped;
                    if sub.visited > 0 {
                        passes |= 1 << s;
                    } else {
                        idle_skipped += sub.skipped;
                    }
                }
                census.slice_pairs += pairs.visited;
                census.blocks_skipped += pairs.skipped;
                census.kernel_invocations += u64::from(kernel::dispatches(encoding, pairs));
                let narrow =
                    |count: u64| u32::try_from(count).expect("pairs per arc fit in u32");
                ArcPairs {
                    visited: narrow(pairs.visited),
                    idle_skipped: narrow(idle_skipped),
                    passes,
                }
            })
            .collect();
        BoundarySlices {
            row_ids,
            rows,
            col_ids,
            cols,
            cross_arcs,
            arc_operands,
            arc_pairs,
            encoding,
            census,
            boundary_valid_slices,
        }
    }

    /// The split row of cross-tail vertex `a`, if one was extracted.
    pub fn row(&self, a: u32) -> Option<&SplitOperand> {
        self.row_ids.binary_search(&a).ok().map(|r| &self.rows[r])
    }

    /// The split column of cross-head vertex `c`, if one was extracted.
    pub fn col(&self, c: u32) -> Option<&SplitOperand> {
        self.col_ids.binary_search(&c).ok().map(|h| &self.cols[h])
    }

    /// The cross-shard arcs, in deterministic row-major order.
    pub fn cross_arcs(&self) -> &[(u32, u32)] {
        &self.cross_arcs
    }

    /// The `(row index, column index)` operand pair of cross arc `k`
    /// (a position in [`BoundarySlices::cross_arcs`]): equal indices
    /// mean the same operand.
    pub(crate) fn arc_operands(&self, k: usize) -> (usize, usize) {
        self.arc_operands[k]
    }

    /// The split row and split column cross arc `k` ANDs.
    pub(crate) fn operands(&self, k: usize) -> (&SplitOperand, &SplitOperand) {
        let (r, h) = self.arc_operands[k];
        (&self.rows[r], &self.cols[h])
    }

    /// The dry walk's pair census of cross arc `k`.
    pub(crate) fn arc_pairs(&self, k: usize) -> ArcPairs {
        self.arc_pairs[k]
    }

    /// The row encoding every operand was compressed under.
    pub(crate) fn encoding(&self) -> RowEncoding {
        self.encoding
    }

    /// The composition pass's exact kernel census, taken by the dry
    /// walk at extraction — what the pass *will* execute, before it
    /// runs.
    pub fn census(&self) -> ComposeCensus {
        self.census
    }

    /// Valid slices in the *boundary* parts across all extracted
    /// operands — the material that crosses shard cuts.
    pub fn boundary_valid_slices(&self) -> u64 {
        self.boundary_valid_slices
    }

    /// Number of extracted row operands.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of extracted column operands.
    pub fn col_count(&self) -> usize {
        self.cols.len()
    }
}

/// The three region-disjoint sub-passes of cross arc `row → col`, in
/// the order a composition kernel runs them.
pub(crate) fn sub_passes<'a>(
    row: &'a SplitOperand,
    col: &'a SplitOperand,
) -> [(&'a SlicedRow, &'a SlicedRow); 3] {
    [(&row.local, &col.boundary), (&row.boundary, &col.boundary), (&row.boundary, &col.local)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_shards;
    use crate::spec::ShardSpec;
    use std::collections::HashMap;
    use tcim_graph::generators::gnm;
    use tcim_graph::Orientation;

    fn fixture(shards: usize) -> (OrientedGraph, ShardPlan, BoundarySlices) {
        let g = gnm(512, 3500, 3).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(shards), SliceSize::S64).unwrap();
        let b = BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        (oriented, plan, b)
    }

    #[test]
    fn sparse_extraction_carries_the_same_material() {
        let (oriented, plan, dense) = fixture(4);
        let sparse =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Sparse);
        assert_eq!(sparse.cross_arcs(), dense.cross_arcs());
        assert_eq!(sparse.boundary_valid_slices(), dense.boundary_valid_slices());
        for &(a, c) in dense.cross_arcs() {
            let (ds, ss) = (dense.row(a).unwrap(), sparse.row(a).unwrap());
            assert_eq!(ss.local.encoding(), RowEncoding::Sparse);
            assert_eq!(ss.local.to_bitvec(), ds.local.to_bitvec(), "row {a} local");
            assert_eq!(ss.boundary.to_bitvec(), ds.boundary.to_bitvec(), "row {a} boundary");
            assert_eq!(ss.valid_slices(), ds.valid_slices());
            let (dc, sc) = (dense.col(c).unwrap(), sparse.col(c).unwrap());
            assert_eq!(sc.local.to_bitvec(), dc.local.to_bitvec(), "col {c} local");
            assert_eq!(sc.boundary.to_bitvec(), dc.boundary.to_bitvec(), "col {c} boundary");
        }
    }

    #[test]
    fn extracts_exactly_the_cross_arc_endpoints() {
        let (oriented, plan, b) = fixture(4);
        assert_eq!(b.cross_arcs().len() as u64, plan.cross_arcs());
        for (k, &(a, c)) in b.cross_arcs().iter().enumerate() {
            assert!(plan.is_cross(a, c));
            let row = b.row(a).expect("every cross tail has a split row");
            let col = b.col(c).expect("every cross head has a split column");
            // The per-arc indices resolve to the same operands.
            let (resolved_row, resolved_col) = b.operands(k);
            assert!(std::ptr::eq(resolved_row, row), "arc {k} row");
            assert!(std::ptr::eq(resolved_col, col), "arc {k} column");
        }
        // No spurious extractions: every extracted row belongs to some
        // cross arc tail.
        assert!(b.row_count() <= oriented.vertex_count());
        assert!(b.boundary_valid_slices() > 0);
    }

    #[test]
    fn split_row_reconstitutes_the_full_oriented_row() {
        let (oriented, _, b) = fixture(4);
        for &(a, _) in b.cross_arcs().iter().take(50) {
            let split = b.row(a).unwrap();
            let got = split.local.count_ones() + split.boundary.count_ones();
            assert_eq!(got, oriented.row(a).len() as u64, "row {a}");
            assert_eq!(
                split.valid_slices(),
                (split.local.valid_slice_count() + split.boundary.valid_slice_count()) as u64
            );
        }
    }

    #[test]
    fn column_carries_every_tail_of_each_cross_head() {
        let (oriented, plan, b) = fixture(4);
        // Full in-degree per cross head: intra tails complete cross
        // triangles too, so the column operand must carry all of them.
        let mut in_degree: HashMap<u32, u64> = HashMap::new();
        let mut cross_heads: std::collections::HashSet<u32> = Default::default();
        for (a, c) in oriented.arcs() {
            *in_degree.entry(c).or_default() += 1;
            if plan.is_cross(a, c) {
                cross_heads.insert(c);
            }
        }
        for c in cross_heads {
            let split = b.col(c).unwrap();
            assert_eq!(
                split.local.count_ones() + split.boundary.count_ones(),
                in_degree[&c],
                "column {c}"
            );
        }
    }

    #[test]
    fn single_shard_extracts_nothing() {
        let (_, plan, b) = fixture(1);
        assert_eq!(plan.cross_arcs(), 0);
        assert!(b.cross_arcs().is_empty());
        assert_eq!(b.row_count() + b.col_count(), 0);
        assert_eq!(b.boundary_valid_slices(), 0);
    }
}
