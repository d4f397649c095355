//! The per-array executor: Algorithm 1 restricted to one array's
//! assigned rows, with the array's own column-slice buffer.
//!
//! The walk is the serial engine's own ([`tcim_arch::kernel::walk`]);
//! the difference is scope — each array only sees its assigned rows and
//! manages an independent (partitioned) data buffer, which is exactly
//! what makes the scheduled counts bit-identical to the serial engine:
//! the AND + BitCount dataflow per edge is unchanged, only *where* and
//! *when* each edge executes moves. Each assigned row is one span of
//! the walk, so within it only the arcs the matrix's kernel census lists
//! as visiting a slice pair run, as in the serial engine.

use std::ops::Range;

use tcim_arch::kernel::{self, ArrayBuffer, Walk};
use tcim_arch::{EventTrace, ReplacementPolicy, SliceCache, TriangleTally};
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::SlicedMatrix;

use crate::jobs::RowJob;

/// One assigned row: its arcs are `arcs` consecutive entries of the
/// matrix's row-major arc list, starting at position `first_arc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowSpan {
    first_arc: u32,
    arcs: u32,
}

impl RowSpan {
    /// The span of `job`'s arcs.
    pub(crate) fn of(job: &RowJob) -> RowSpan {
        let arcs = u32::try_from(job.cols.len()).expect("arc positions fit in u32");
        RowSpan { first_arc: job.first_arc, arcs }
    }

    /// The row's positions in the matrix's arc list.
    fn positions(self) -> Range<usize> {
        let first = self.first_arc as usize;
        first..first + self.arcs as usize
    }
}

/// Executes the assigned `rows` (ascending) on one array, reading
/// non-zero results out into the array's partial `tally` (matrix ids,
/// arcs at their matrix positions) when one is given.
pub(crate) fn run_array(
    matrix: &SlicedMatrix,
    rows: &[RowSpan],
    column_capacity: usize,
    replacement: ReplacementPolicy,
    replacement_seed: u64,
    tally: Option<&mut TriangleTally<'_>>,
) -> Walk {
    let cache = SliceCache::new(column_capacity.max(1), replacement, replacement_seed);
    let mut buffer = ArrayBuffer::new(cache, EventTrace::new(0));
    let spans = rows.iter().map(|&row| row.positions());
    // The bit counter is the 8→256 LUT of §V-A, as in the serial engine.
    kernel::walk(matrix, spans, PopcountMethod::Lut8, &mut buffer, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::decompose;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn spans(m: &SlicedMatrix, engine: &PimEngine) -> Vec<RowSpan> {
        decompose(m, &engine.cost_model()).iter().map(RowSpan::of).collect()
    }

    fn fig2() -> SlicedMatrix {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn one_array_reproduces_the_serial_engine() {
        let m = fig2();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let rows = spans(&m, &engine);
        let run = run_array(&m, &rows, 1024, ReplacementPolicy::Lru, 0, None);
        let serial = engine.run(&m);
        assert_eq!(run.triangles, serial.triangles);
        assert_eq!(run.stats, serial.stats);
    }

    #[test]
    fn disjoint_partitions_sum_to_the_whole() {
        let m = fig2();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let rows = spans(&m, &engine);
        let serial = engine.run(&m).triangles;
        let (first, rest) = rows.split_at(1);
        let a = run_array(&m, first, 64, ReplacementPolicy::Lru, 0, None);
        let b = run_array(&m, rest, 64, ReplacementPolicy::Lru, 1, None);
        assert_eq!(a.triangles + b.triangles, serial);
        assert_eq!(a.stats.edges + b.stats.edges, 5);
    }

    #[test]
    fn tiny_buffer_changes_traffic_not_counts() {
        let mut b = SlicedMatrixBuilder::new(500, SliceSize::S64);
        for v in 1..500 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..499 {
            b.add_edge(v, v + 1).unwrap();
        }
        let m = b.build();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let rows = spans(&m, &engine);
        let roomy = run_array(&m, &rows, 4096, ReplacementPolicy::Lru, 0, None);
        let tight = run_array(&m, &rows, 1, ReplacementPolicy::Lru, 0, None);
        assert_eq!(roomy.triangles, tight.triangles);
        assert!(tight.stats.col_exchanges > roomy.stats.col_exchanges);
    }
}
