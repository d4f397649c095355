//! Work decomposition: one schedulable job per non-empty matrix row.
//!
//! The TCIM dataflow processes the non-zero elements of the oriented
//! adjacency matrix row by row; a row's slices are written into the
//! array's reserved row region once and reused for all of the row's
//! edges (§IV-A). The row is therefore the natural placement unit — it
//! is the largest unit that never splits row-slice reuse across arrays,
//! and rows are plentiful enough to balance.

use tcim_arch::SliceCostModel;
use tcim_bitmatrix::SlicedMatrix;

/// One placement unit: a matrix row together with the precomputed
/// quantities every placement policy needs.
#[derive(Debug, Clone)]
pub struct RowJob {
    /// The row index `i`.
    pub row: u32,
    /// Position of the row's first arc in the matrix's row-major arc
    /// list: arc `(i, cols[r])` sits at `first_arc + r`.
    pub first_arc: u32,
    /// Column indices `j` of the row's edges `(i, j)`, ascending.
    pub cols: Vec<u32>,
    /// Valid slice pairs across all of the row's edges — the number of
    /// AND + BitCount operations the row costs.
    pub pairs: u64,
    /// Valid slices of the row itself (written once into the row region
    /// of whichever array the job lands on).
    pub row_slices: u64,
    /// Distinct column-slice keys (`column id << 32 | slice index`) the
    /// row touches — the reuse footprint the reuse-aware policy scores.
    pub col_keys: Vec<u64>,
    /// Cold-cache busy-time estimate (s): every touched slice written
    /// once plus the AND/BitCount work. The load metric of the
    /// load-balanced policy.
    pub est_busy_s: f64,
}

/// Decomposes `matrix` into row jobs, pricing each with `costs`.
///
/// Rows without edges produce no job. Host-side decomposition walks the
/// valid-slice index intersection once per edge — the same merge the
/// controller's valid-pair lookup performs, so the estimate is exact in
/// pair count, not a heuristic.
pub fn decompose(matrix: &SlicedMatrix, costs: &SliceCostModel) -> Vec<RowJob> {
    let mut jobs: Vec<RowJob> = Vec::new();
    for (position, (i, j)) in matrix.edges().enumerate() {
        if jobs.last().map(|job| job.row) != Some(i) {
            let row = matrix.row(i);
            jobs.push(RowJob {
                row: i,
                first_arc: u32::try_from(position).expect("arc positions fit in u32"),
                cols: Vec::new(),
                pairs: 0,
                row_slices: row.valid_slice_count() as u64,
                col_keys: Vec::new(),
                est_busy_s: 0.0,
            });
        }
        let job = jobs.last_mut().expect("job for current row was just pushed");
        job.cols.push(j);
        // The index-only walk skips sparse pairs the kernel will skip
        // too, so the job's pair count and reuse footprint price exactly
        // the work the executor will dispatch.
        matrix
            .row(i)
            .for_each_matching_index(matrix.col(j), |k| {
                job.pairs += 1;
                // Edges are unique within a row, so (j, k) keys never repeat.
                job.col_keys.push((u64::from(j) << 32) | u64::from(k));
            })
            .expect("rows and columns of one matrix always align");
    }
    for job in &mut jobs {
        job.est_busy_s =
            costs.estimate_busy_s(job.row_slices + job.col_keys.len() as u64, job.pairs);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn fig2() -> SlicedMatrix {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    #[test]
    fn fig2_decomposes_into_three_jobs() {
        let jobs = decompose(&fig2(), &costs());
        let rows: Vec<u32> = jobs.iter().map(|j| j.row).collect();
        assert_eq!(rows, vec![0, 1, 2]);
        let cols: Vec<Vec<u32>> = jobs.iter().map(|j| j.cols.clone()).collect();
        assert_eq!(cols, vec![vec![1, 2], vec![2, 3], vec![3]]);
        // n = 4 < 64: every edge is exactly one valid pair.
        assert_eq!(jobs.iter().map(|j| j.pairs).sum::<u64>(), 5);
        for job in &jobs {
            assert_eq!(job.row_slices, 1);
            assert_eq!(job.col_keys.len() as u64, job.pairs);
            assert!(job.est_busy_s > 0.0);
        }
    }

    #[test]
    fn empty_matrix_has_no_jobs() {
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        assert!(decompose(&m, &costs()).is_empty());
    }

    #[test]
    fn pair_totals_match_engine_and_ops() {
        let mut b = SlicedMatrixBuilder::new(200, SliceSize::S64);
        for v in 1..200 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..199 {
            b.add_edge(v, v + 1).unwrap();
        }
        let m = b.build();
        let jobs = decompose(&m, &costs());
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let run = engine.run(&m);
        assert_eq!(jobs.iter().map(|j| j.pairs).sum::<u64>(), run.stats.and_ops);
    }
}
