//! The paper's "This Work w/o PIM" column: the TCIM dataflow — slicing,
//! data reuse, AND + BitCount — executed entirely in software.
//!
//! §V-D: "without PIM, we achieved an average 53.7× speedup against the
//! baseline CPU implementation because of data slicing, reuse, and
//! exchange." This module reproduces that software path so Table V's
//! `w/o PIM` column can be measured rather than quoted.

use tcim_arch::kernel::{self, Walk};
use tcim_arch::TriangleTally;
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::SlicedMatrix;

/// Outcome of the pure counting kernel over an already-sliced matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareCount {
    /// Exact triangle count.
    pub triangles: u64,
    /// Valid slice pairs processed (pairs the sparse encoding proves
    /// zero are skipped, not processed).
    pub slice_pairs: u64,
    /// Per-edge kernel dispatches: every edge on dense matrices, edges
    /// with at least one visited pair on sparse ones.
    pub kernel_invocations: u64,
    /// Mutually valid pairs skipped by the sparse byte-mask filter.
    pub blocks_skipped: u64,
}

/// Runs the AND + BitCount kernel over a *prepared* sliced matrix — the
/// execution half of the software path, consuming the pipeline's
/// [`PreparedGraph`](crate::PreparedGraph) artifact without re-slicing.
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{popcount::PopcountMethod, SliceSize, SlicedMatrixBuilder};
/// use tcim_core::software::sliced_count;
///
/// let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
/// for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
///     b.add_edge(u, v)?;
/// }
/// let run = sliced_count(&b.build(), PopcountMethod::Native);
/// assert_eq!(run.triangles, 2);
/// # Ok::<(), tcim_bitmatrix::BitMatrixError>(())
/// ```
pub fn sliced_count(matrix: &SlicedMatrix, popcount: PopcountMethod) -> SoftwareCount {
    let rows = std::iter::once(0..matrix.edge_count());
    let walk = kernel::walk(matrix, rows, popcount, &mut (), None::<&mut TriangleTally>);
    SoftwareCount::from(walk)
}

impl From<Walk> for SoftwareCount {
    /// The host-side view of a walk: no array, so no readouts to bill.
    fn from(walk: Walk) -> Self {
        SoftwareCount {
            triangles: walk.triangles,
            slice_pairs: walk.stats.and_ops,
            kernel_invocations: walk.stats.edges,
            blocks_skipped: walk.stats.blocks_skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendDetail, ExecutionBackend, SoftwareBackend};
    use crate::baseline;
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use crate::query::to_original_ids;
    use tcim_arch::Attribution;
    use tcim_bitmatrix::SliceSize;
    use tcim_graph::generators::{classic, gnm};
    use tcim_graph::{CsrGraph, Orientation};

    fn sliced(g: &CsrGraph, slice_size: SliceSize, orientation: Orientation) -> SlicedMatrix {
        SlicedMatrix::from_adjacency(orientation.orient(g).rows(), slice_size).unwrap()
    }

    #[test]
    fn fig2_counts_two() {
        let m = sliced(&classic::fig2_example(), SliceSize::S64, Orientation::Natural);
        let run = sliced_count(&m, PopcountMethod::Native);
        assert_eq!(run.triangles, 2);
        assert_eq!(run.slice_pairs, 5);
    }

    /// The software backend's attributed runs walk exactly what the plain
    /// count walks, under the configured popcount.
    #[test]
    fn attributed_count_agrees_with_plain_count_and_sums_to_three() {
        let g = gnm(200, 1400, 5).unwrap();
        let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
        let prepared = pipeline.prepare(&g);
        let plain = sliced_count(prepared.matrix(), PopcountMethod::Native);
        for popcount in [PopcountMethod::Native, PopcountMethod::Lut8] {
            let run =
                SoftwareBackend::new(popcount).run(&prepared, Attribution::PerVertex).unwrap();
            assert_eq!(run.triangles, plain.triangles);
            assert_eq!(run.kernel.slice_pairs, plain.slice_pairs);
            assert_eq!(run.kernel.kernel_invocations, plain.kernel_invocations);
            assert!(
                matches!(run.detail, BackendDetail::Software { popcount: p } if p == popcount)
            );
            let per_vertex = to_original_ids(&prepared, &run.per_vertex.unwrap());
            assert_eq!(per_vertex.iter().sum::<u64>(), 3 * plain.triangles);
            assert_eq!(per_vertex, baseline::local_triangles(&g));
        }
    }

    #[test]
    fn matches_baselines_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm(300, 2000, seed).unwrap();
            let expected = baseline::edge_iterator_merge(&g);
            for orientation in [Orientation::Natural, Orientation::Degree] {
                let m = sliced(&g, SliceSize::S64, orientation);
                // The LUT path and the native instruction agree exactly.
                let native = sliced_count(&m, PopcountMethod::Native);
                assert_eq!(native.triangles, expected, "seed {seed}");
                assert_eq!(sliced_count(&m, PopcountMethod::Lut8), native, "seed {seed}");
            }
        }
    }

    #[test]
    fn slice_size_does_not_change_the_count() {
        let g = gnm(250, 1500, 9).unwrap();
        let expected = baseline::forward(&g);
        for s in SliceSize::ALL {
            let run =
                sliced_count(&sliced(&g, s, Orientation::Natural), PopcountMethod::Native);
            assert_eq!(run.triangles, expected, "slice size {s}");
        }
    }

    #[test]
    fn slice_pair_splitting_bound() {
        // Every 16-bit match lies inside a matching 512-bit pair, so
        // shrinking |S| by 32x multiplies the pair count by at most 32.
        let g = gnm(300, 2500, 4).unwrap();
        let pairs = |s| {
            sliced_count(&sliced(&g, s, Orientation::Natural), PopcountMethod::Native)
                .slice_pairs
        };
        let (p16, p512) = (pairs(SliceSize::S16), pairs(SliceSize::S512));
        assert!(p16 <= 32 * p512, "16-bit pairs {p16} vs 512-bit pairs {p512}");
    }
}
