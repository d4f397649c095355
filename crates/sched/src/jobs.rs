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
/// valid-slice index intersection of every arc that visits a slice pair
/// (the matrix's kernel census lists them) — the same merge the
/// controller's valid-pair lookup performs, so the estimate is exact in
/// pair count, not a heuristic. An arc that visits no pair adds no pair
/// and no column key, but is still one of its job's `cols`.
pub fn decompose(matrix: &SlicedMatrix, costs: &SliceCostModel) -> Vec<RowJob> {
    let census = matrix.census();
    let mut jobs: Vec<RowJob> = Vec::new();
    let mut first_arc = 0usize;
    for row_arcs in matrix.arcs().chunk_by(|a, b| a.0 == b.0) {
        let i = row_arcs[0].0;
        let row = matrix.row(i);
        let mut job = RowJob {
            row: i,
            first_arc: u32::try_from(first_arc).expect("arc positions fit in u32"),
            cols: row_arcs.iter().map(|&(_, j)| j).collect(),
            pairs: 0,
            row_slices: row.valid_slice_count() as u64,
            col_keys: Vec::new(),
            est_busy_s: 0.0,
        };
        // The index-only walk skips sparse pairs the kernel will skip
        // too, so the job's pair count and reuse footprint price exactly
        // the work the executor will dispatch.
        for position in census.visiting(first_arc..first_arc + row_arcs.len()) {
            let j = row_arcs[position - first_arc].1;
            row.for_each_matching_index(matrix.col(j), |k| {
                job.pairs += 1;
                // Edges are unique within a row, so (j, k) keys never repeat.
                job.col_keys.push((u64::from(j) << 32) | u64::from(k));
            })
            .expect("rows and columns of one matrix always align");
        }
        job.est_busy_s =
            costs.estimate_busy_s(job.row_slices + job.col_keys.len() as u64, job.pairs);
        first_arc += row_arcs.len();
        jobs.push(job);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{EncodingPolicy, SliceSize, SlicedMatrixBuilder};

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

    /// Decomposition by every arc's index-only merge, idle or not — the
    /// reference the census-driven [`decompose`] must reproduce.
    fn decompose_every_arc(matrix: &SlicedMatrix, costs: &SliceCostModel) -> Vec<RowJob> {
        let mut jobs: Vec<RowJob> = Vec::new();
        for (position, (i, j)) in matrix.edges().enumerate() {
            if jobs.last().map(|job| job.row) != Some(i) {
                jobs.push(RowJob {
                    row: i,
                    first_arc: position as u32,
                    cols: Vec::new(),
                    pairs: 0,
                    row_slices: matrix.row(i).valid_slice_count() as u64,
                    col_keys: Vec::new(),
                    est_busy_s: 0.0,
                });
            }
            let job = jobs.last_mut().unwrap();
            job.cols.push(j);
            matrix
                .row(i)
                .for_each_matching_index(matrix.col(j), |k| {
                    job.pairs += 1;
                    job.col_keys.push((u64::from(j) << 32) | u64::from(k));
                })
                .unwrap();
        }
        for job in &mut jobs {
            job.est_busy_s =
                costs.estimate_busy_s(job.row_slices + job.col_keys.len() as u64, job.pairs);
        }
        jobs
    }

    #[test]
    fn the_census_decomposes_like_walking_every_arc() {
        let g = tcim_graph::generators::barabasi_albert(1500, 4, 3).unwrap();
        let oriented = tcim_graph::Orientation::Natural.orient(&g);
        for policy in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
            let m = SlicedMatrix::from_adjacency_with(oriented.rows(), SliceSize::S64, policy)
                .unwrap();
            let idle = m.edge_count() as u64 - m.census().visiting_arcs();
            assert!(idle > 0, "{policy}: some arcs visit no pair");
            let (got, want) = (decompose(&m, &costs()), decompose_every_arc(&m, &costs()));
            assert_eq!(got.len(), want.len(), "{policy}");
            for (a, b) in got.iter().zip(&want) {
                let ctx = format!("{policy} row {}", b.row);
                assert_eq!(
                    (a.row, a.first_arc, a.row_slices),
                    (b.row, b.first_arc, b.row_slices)
                );
                assert_eq!(a.cols, b.cols, "{ctx}");
                assert_eq!((a.pairs, &a.col_keys), (b.pairs, &b.col_keys), "{ctx}");
                assert_eq!(a.est_busy_s.to_bits(), b.est_busy_s.to_bits(), "{ctx}");
            }
        }
    }
}
