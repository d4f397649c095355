//! Whole-matrix sliced storage: every row and column of the (oriented)
//! adjacency matrix in compressed sliced form.

use std::fmt;
use std::sync::OnceLock;

use crate::census::KernelCensus;
use crate::error::{BitMatrixError, Result};
use crate::row::{EncodingPolicy, RowEncoding, SlicedRow};
use crate::slice::SliceSize;
use crate::sliced::SlicedBitVector;

/// Aggregate slicing statistics for a [`SlicedMatrix`] — the quantities
/// behind the paper's Table III (valid slice data size) and Table IV
/// (percentage of valid slices).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SliceStats {
    /// Valid slices across all rows and columns (`NVS`).
    pub valid_slices: u64,
    /// Total slice positions across all rows and columns,
    /// `2 · n · ⌈n / |S|⌉`.
    pub total_slices: u64,
    /// Compressed size in bytes under the matrix's row encoding:
    /// `NVS × (|S|/8 + 4)` for dense, the summary/mask/block hierarchy
    /// total for sparse.
    pub compressed_bytes: u64,
    /// Non-zero matrix entries counted over the rows.
    pub nnz: u64,
}

impl SliceStats {
    /// Fraction of valid slices (Table IV's percentage, as a ratio).
    pub fn valid_fraction(&self) -> f64 {
        if self.total_slices == 0 {
            0.0
        } else {
            self.valid_slices as f64 / self.total_slices as f64
        }
    }

    /// Compressed size in mebibytes (the unit of Table III).
    pub fn compressed_mib(&self) -> f64 {
        self.compressed_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// An adjacency matrix with every row `A[i][*]` and column `A[*][j]ᵀ`
/// stored as a [`SlicedBitVector`].
///
/// The matrix is *oriented*: the caller decides which direction each
/// undirected edge takes (the paper's Fig. 2 uses the upper-triangular
/// orientation `i < j`, which makes Equation (5) count each triangle exactly
/// once). Rows and columns are materialised separately because the TCIM
/// dataflow reads rows and columns independently (§IV-A).
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};
///
/// // Fig. 2 of the paper.
/// let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
/// for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
///     b.add_edge(u, v)?;
/// }
/// let m = b.build();
/// // Σ over edges of popcount(row AND column) = 2 triangles.
/// let mut tc = 0;
/// for (i, j) in m.edges() {
///     tc += m.row(i).and_popcount(m.col(j));
/// }
/// assert_eq!(tc, 2);
/// # Ok::<(), tcim_bitmatrix::BitMatrixError>(())
/// ```
#[derive(Clone)]
pub struct SlicedMatrix {
    n: usize,
    slice_size: SliceSize,
    encoding: RowEncoding,
    rows: Vec<SlicedRow>,
    cols: Vec<SlicedRow>,
    /// Oriented edges (i, j) in row-major order — the iteration order of
    /// Algorithm 1.
    edges: Vec<(u32, u32)>,
    /// Taken on first use ([`SlicedMatrix::census`]). It is a function
    /// of the fields above, so equality ignores it.
    census: OnceLock<KernelCensus>,
}

impl PartialEq for SlicedMatrix {
    fn eq(&self, other: &SlicedMatrix) -> bool {
        self.n == other.n
            && self.slice_size == other.slice_size
            && self.encoding == other.encoding
            && self.rows == other.rows
            && self.cols == other.cols
            && self.edges == other.edges
    }
}

impl Eq for SlicedMatrix {}

impl SlicedMatrix {
    /// Builds the matrix from per-row neighbour lists that are already
    /// oriented and **sorted ascending**, in the paper's dense encoding.
    ///
    /// `rows[i]` holds the column indices `j` with `A[i][j] = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::DimensionOutOfBounds`] if any neighbour
    /// index is `>= n` (checked before any allocation-heavy work).
    pub fn from_adjacency(adjacency: &[Vec<u32>], slice_size: SliceSize) -> Result<Self> {
        SlicedMatrix::from_adjacency_with(adjacency, slice_size, EncodingPolicy::ForceDense)
    }

    /// [`SlicedMatrix::from_adjacency`] with a row-encoding policy: the
    /// matrix is sliced densely first, its valid-slice fraction measured,
    /// and every row and column re-encoded when the policy resolves to
    /// [`RowEncoding::Sparse`].
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::DimensionOutOfBounds`] if any neighbour
    /// index is `>= n` (checked before any allocation-heavy work).
    pub fn from_adjacency_with(
        adjacency: &[Vec<u32>],
        slice_size: SliceSize,
        policy: EncodingPolicy,
    ) -> Result<Self> {
        let n = adjacency.len();
        for row in adjacency {
            for &j in row {
                if j as usize >= n {
                    return Err(BitMatrixError::DimensionOutOfBounds {
                        index: j as usize,
                        dim: n,
                    });
                }
            }
        }

        let mut edges = Vec::new();
        let mut col_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, row) in adjacency.iter().enumerate() {
            for &j in row {
                edges.push((i as u32, j));
                col_lists[j as usize].push(i as u32);
            }
        }

        let dense_rows: Vec<SlicedBitVector> = adjacency
            .iter()
            .map(|r| {
                SlicedBitVector::from_sorted_indices(
                    n,
                    r.iter().map(|&j| j as usize),
                    slice_size,
                )
            })
            .collect();
        // Column lists are filled in ascending i because rows are scanned in
        // order, so they are already sorted.
        let dense_cols: Vec<SlicedBitVector> = col_lists
            .iter()
            .map(|c| {
                SlicedBitVector::from_sorted_indices(
                    n,
                    c.iter().map(|&i| i as usize),
                    slice_size,
                )
            })
            .collect();

        // Resolve the encoding from the measured density, then wrap (or
        // re-encode) every vector under it.
        let valid: u64 = dense_rows
            .iter()
            .chain(dense_cols.iter())
            .map(|v| v.valid_slice_count() as u64)
            .sum();
        let total = 2 * slice_size.slices_for(n) as u64 * n as u64;
        let fraction = if total == 0 { 0.0 } else { valid as f64 / total as f64 };
        let encoding = policy.resolve(fraction);
        let wrap = |vs: Vec<SlicedBitVector>| -> Vec<SlicedRow> {
            vs.into_iter().map(|v| SlicedRow::encode(v, encoding)).collect()
        };
        let (rows, cols) = (wrap(dense_rows), wrap(dense_cols));

        Ok(SlicedMatrix {
            n,
            slice_size,
            encoding,
            rows,
            cols,
            edges,
            census: OnceLock::new(),
        })
    }

    /// Matrix dimension `n` (number of vertices).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The slice size `|S|`.
    pub fn slice_size(&self) -> SliceSize {
        self.slice_size
    }

    /// The row encoding every row and column of this matrix uses.
    pub fn encoding(&self) -> RowEncoding {
        self.encoding
    }

    /// Row `A[i][*]` in sliced form.
    ///
    /// # Panics
    ///
    /// Panics when `i >= n`.
    pub fn row(&self, i: u32) -> &SlicedRow {
        &self.rows[i as usize]
    }

    /// Column `A[*][j]ᵀ` in sliced form.
    ///
    /// # Panics
    ///
    /// Panics when `j >= n`.
    pub fn col(&self, j: u32) -> &SlicedRow {
        &self.cols[j as usize]
    }

    /// Oriented edges `(i, j)` in row-major order — the non-zero elements
    /// Algorithm 1 iterates over.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }

    /// The same row-major edge list as a slice, for indexing arcs by
    /// position.
    pub fn arcs(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of oriented edges (non-zero entries).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The kernel census ([`KernelCensus`]): which arcs visit at least
    /// one slice pair. Taken by one index-only pass over every arc the
    /// first time it is asked for, then kept with the matrix.
    pub fn census(&self) -> &KernelCensus {
        self.census.get_or_init(|| KernelCensus::take(self))
    }

    /// Aggregate slicing statistics over all rows *and* columns.
    ///
    /// `compressed_bytes` is summed per vector under the matrix's actual
    /// encoding, so dense (`NVS × (|S|/8 + 4)`) and sparse (hierarchy
    /// levels included) sizes are directly comparable.
    pub fn stats(&self) -> SliceStats {
        let row_valid: u64 = self.rows.iter().map(|r| r.valid_slice_count() as u64).sum();
        let col_valid: u64 = self.cols.iter().map(|c| c.valid_slice_count() as u64).sum();
        let valid = row_valid + col_valid;
        let per_vector = self.slice_size.slices_for(self.n) as u64;
        SliceStats {
            valid_slices: valid,
            total_slices: 2 * per_vector * self.n as u64,
            compressed_bytes: self
                .rows
                .iter()
                .chain(self.cols.iter())
                .map(|v| v.compressed_bytes() as u64)
                .sum(),
            nnz: self.rows.iter().map(SlicedRow::count_ones).sum(),
        }
    }
}

impl fmt::Debug for SlicedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SlicedMatrix(n={}, |S|={}, nnz={}, valid {}/{} slices, {:.3} MiB)",
            self.n,
            self.slice_size,
            s.nnz,
            s.valid_slices,
            s.total_slices,
            s.compressed_mib()
        )
    }
}

/// Incremental builder for a [`SlicedMatrix`] from individual undirected
/// edges, applying the paper's upper-triangular orientation.
#[derive(Debug, Clone)]
pub struct SlicedMatrixBuilder {
    n: usize,
    slice_size: SliceSize,
    adjacency: Vec<Vec<u32>>,
}

impl SlicedMatrixBuilder {
    /// Creates a builder for an `n × n` matrix with slice size `slice_size`.
    pub fn new(n: usize, slice_size: SliceSize) -> Self {
        SlicedMatrixBuilder { n, slice_size, adjacency: vec![Vec::new(); n] }
    }

    /// Adds undirected edge `{u, v}` (stored as `A[min][max] = 1`).
    ///
    /// The builder does not trust the caller: the streaming layer feeds
    /// it adversarial update streams, so malformed edges are rejected
    /// here rather than silently normalised away.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::DimensionOutOfBounds`] for vertices
    /// outside `0..n`, [`BitMatrixError::SelfLoop`] when `u == v`, and
    /// [`BitMatrixError::DuplicateEdge`] when the edge was already added
    /// (in either endpoint order).
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self> {
        if u >= self.n {
            return Err(BitMatrixError::DimensionOutOfBounds { index: u, dim: self.n });
        }
        if v >= self.n {
            return Err(BitMatrixError::DimensionOutOfBounds { index: v, dim: self.n });
        }
        if u == v {
            return Err(BitMatrixError::SelfLoop { vertex: u });
        }
        let (lo, hi) = (u.min(v), u.max(v) as u32);
        let row = &mut self.adjacency[lo];
        // Fast path for the dominant construction pattern (neighbours
        // arriving in ascending order): amortized O(1) append instead
        // of a shifting insert.
        if row.last().is_none_or(|&last| last < hi) {
            row.push(hi);
            return Ok(self);
        }
        match row.binary_search(&hi) {
            Ok(_) => Err(BitMatrixError::DuplicateEdge { u: lo, v: hi as usize }),
            Err(pos) => {
                row.insert(pos, hi);
                Ok(self)
            }
        }
    }

    /// Finishes the matrix. Rows are kept sorted and duplicate-free at
    /// insertion time, so no normalisation pass is needed.
    pub fn build(self) -> SlicedMatrix {
        SlicedMatrix::from_adjacency(&self.adjacency, self.slice_size)
            .expect("builder validated all indices")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> SlicedMatrix {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn fig2_edge_iteration_order_is_row_major() {
        let m = fig2();
        let edges: Vec<(u32, u32)> = m.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn fig2_bitwise_tc_is_two() {
        let m = fig2();
        let tc: u64 = m.edges().map(|(i, j)| m.row(i).and_popcount(m.col(j))).sum();
        assert_eq!(tc, 2);
    }

    #[test]
    fn rows_and_columns_are_consistent() {
        let m = fig2();
        for (i, j) in m.edges() {
            assert!(m.row(i).to_bitvec().get(j as usize));
            assert!(m.col(j).to_bitvec().get(i as usize));
        }
    }

    #[test]
    fn stats_accounting_identities() {
        let m = fig2();
        let s = m.stats();
        assert_eq!(s.nnz, 5);
        // n = 4, |S| = 64 → 1 slice per vector, 8 vectors total.
        assert_eq!(s.total_slices, 8);
        // Rows 0..2 valid, row 3 empty; cols 1..3 valid, col 0 empty.
        assert_eq!(s.valid_slices, 6);
        assert_eq!(s.compressed_bytes, 6 * 12);
        assert!((s.valid_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_are_rejected_in_either_order() {
        let mut b = SlicedMatrixBuilder::new(3, SliceSize::S64);
        b.add_edge(0, 1).unwrap();
        assert_eq!(
            b.add_edge(1, 0).unwrap_err(),
            BitMatrixError::DuplicateEdge { u: 0, v: 1 }
        );
        assert_eq!(
            b.add_edge(0, 1).unwrap_err(),
            BitMatrixError::DuplicateEdge { u: 0, v: 1 }
        );
        // The rejections left the builder state intact.
        let m = b.build();
        assert_eq!(m.edge_count(), 1);
        assert_eq!(m.stats().nnz, 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = SlicedMatrixBuilder::new(3, SliceSize::S64);
        assert_eq!(b.add_edge(1, 1).unwrap_err(), BitMatrixError::SelfLoop { vertex: 1 });
        assert_eq!(b.add_edge(0, 0).unwrap_err(), BitMatrixError::SelfLoop { vertex: 0 });
        assert_eq!(b.build().edge_count(), 0);
    }

    #[test]
    fn builder_rejects_out_of_bounds_edges() {
        let mut b = SlicedMatrixBuilder::new(3, SliceSize::S64);
        assert_eq!(
            b.add_edge(0, 3).unwrap_err(),
            BitMatrixError::DimensionOutOfBounds { index: 3, dim: 3 }
        );
        assert_eq!(
            b.add_edge(3, 0).unwrap_err(),
            BitMatrixError::DimensionOutOfBounds { index: 3, dim: 3 }
        );
    }

    #[test]
    fn from_adjacency_rejects_out_of_bounds() {
        let err = SlicedMatrix::from_adjacency(&[vec![5]], SliceSize::S64).unwrap_err();
        assert_eq!(err, BitMatrixError::DimensionOutOfBounds { index: 5, dim: 1 });
    }

    #[test]
    fn empty_matrix() {
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        assert_eq!(m.dim(), 0);
        assert_eq!(m.edge_count(), 0);
        let s = m.stats();
        assert_eq!(s.valid_slices, 0);
        assert_eq!(s.total_slices, 0);
        assert_eq!(s.valid_fraction(), 0.0);
    }

    #[test]
    fn auto_policy_selects_sparse_on_sparse_graphs_and_preserves_results() {
        // A scattered sparse random graph on 1024 vertices (~6 neighbours
        // each, spread across the whole index range): most slices are
        // empty, and valid slices hold only a few non-zero bytes.
        let n = 1024usize;
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, row) in adj.iter_mut().enumerate().take(n - 8) {
            let mut out = std::collections::BTreeSet::new();
            for _ in 0..6 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                out.insert((i + 1 + state as usize % (n - i - 1)) as u32);
            }
            *row = out.into_iter().collect();
        }
        let dense = SlicedMatrix::from_adjacency(&adj, SliceSize::S64).unwrap();
        let auto =
            SlicedMatrix::from_adjacency_with(&adj, SliceSize::S64, EncodingPolicy::default())
                .unwrap();
        assert_eq!(dense.encoding(), RowEncoding::Dense);
        assert_eq!(auto.encoding(), RowEncoding::Sparse);

        let tc = |m: &SlicedMatrix| -> u64 {
            m.edges().map(|(i, j)| m.row(i).and_popcount(m.col(j))).sum()
        };
        assert_eq!(tc(&auto), tc(&dense));

        let (ds, ss) = (dense.stats(), auto.stats());
        assert_eq!(ss.valid_slices, ds.valid_slices);
        assert_eq!(ss.nnz, ds.nnz);
        assert!(
            ss.compressed_bytes < ds.compressed_bytes,
            "sparse {} must undercut dense {}",
            ss.compressed_bytes,
            ds.compressed_bytes
        );
    }

    #[test]
    fn larger_graph_spans_multiple_slices() {
        // Star graph centred at 0 with 200 leaves: row 0 spans 4 slices.
        let mut b = SlicedMatrixBuilder::new(201, SliceSize::S64);
        for v in 1..201 {
            b.add_edge(0, v).unwrap();
        }
        let m = b.build();
        assert_eq!(m.row(0).valid_slice_count(), 4);
        // No triangles in a star.
        let tc: u64 = m.edges().map(|(i, j)| m.row(i).and_popcount(m.col(j))).sum();
        assert_eq!(tc, 0);
    }
}
