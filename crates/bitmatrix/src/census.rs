//! The kernel census of a sliced matrix: which arcs visit at least one
//! slice pair, and what the others contribute to a walk.
//!
//! Algorithm 1 runs one AND + BitCount kernel per arc, but an arc whose
//! row and column share no visited slice pair — none is mutually valid,
//! or the sparse byte masks prove every mutually valid one zero — ANDs
//! nothing, reads nothing out and closes no triangle. The census finds
//! those arcs once per matrix, with the same index-only merge the
//! controller's valid-pair lookup performs, so a walk runs only the
//! others. What an idle arc still contributes is a constant: its kernel
//! dispatch on dense rows, and the pairs the sparse filter skips on it.

use std::ops::Range;

use crate::sliced_matrix::SlicedMatrix;

/// Which arcs of a [`SlicedMatrix`] visit at least one slice pair, the
/// skipped pairs of the others row by row, and the totals of a walk over
/// every arc. Built by [`SlicedMatrix::census`].
///
/// Arcs are named by their position in the row-major arc list
/// ([`SlicedMatrix::arcs`]). The census keeps one bit per arc and one
/// `u32` per row.
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{SliceSize, SlicedMatrix};
///
/// // Arcs (0, 70), (0, 130), (70, 130) over 64-bit slices: only
/// // (0, 130) has a slice (the one holding vertex 70) valid in both its
/// // row and its column.
/// let mut adjacency = vec![Vec::new(); 256];
/// adjacency[0] = vec![70, 130];
/// adjacency[70] = vec![130];
/// let m = SlicedMatrix::from_adjacency(&adjacency, SliceSize::S64)?;
/// let census = m.census();
/// assert_eq!(census.visiting(0..m.edge_count()).collect::<Vec<_>>(), vec![1]);
/// assert_eq!(census.slice_pairs(), 1);
/// # Ok::<(), tcim_bitmatrix::BitMatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCensus {
    /// Bit `p % 64` of word `p / 64` is set when the arc at position `p`
    /// visits at least one slice pair.
    visiting: Vec<u64>,
    /// Per row: the mutually valid pairs the sparse filter skips on the
    /// row's arcs that visit no pair.
    idle_skipped: Vec<u32>,
    visiting_arcs: u64,
    slice_pairs: u64,
    blocks_skipped: u64,
}

impl KernelCensus {
    /// The census of `matrix`: one index-only merge per arc.
    pub(crate) fn take(matrix: &SlicedMatrix) -> KernelCensus {
        let arcs = matrix.arcs();
        let mut census = KernelCensus {
            visiting: vec![0u64; arcs.len().div_ceil(64)],
            idle_skipped: vec![0u32; matrix.dim()],
            visiting_arcs: 0,
            slice_pairs: 0,
            blocks_skipped: 0,
        };
        for (position, &(i, j)) in arcs.iter().enumerate() {
            let pairs = matrix
                .row(i)
                .matching_stats(matrix.col(j))
                .expect("rows and columns of one matrix always align");
            census.slice_pairs += pairs.visited;
            census.blocks_skipped += pairs.skipped;
            if pairs.visited > 0 {
                census.visiting[position / 64] |= 1 << (position % 64);
                census.visiting_arcs += 1;
            } else {
                let row = &mut census.idle_skipped[i as usize];
                *row = u32::try_from(u64::from(*row) + pairs.skipped)
                    .expect("skipped pairs per row fit in u32");
            }
        }
        census
    }

    /// Arcs that visit at least one slice pair.
    pub fn visiting_arcs(&self) -> u64 {
        self.visiting_arcs
    }

    /// Slice pairs a walk over every arc visits: one AND + BitCount each.
    pub fn slice_pairs(&self) -> u64 {
        self.slice_pairs
    }

    /// Mutually valid pairs the sparse filter skips over every arc (zero
    /// under the dense encoding).
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Positions in `span` of the arcs that visit at least one slice
    /// pair, ascending.
    pub fn visiting(&self, span: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let mut word = span.start / 64;
        let mut bits = self.word_in(word, &span);
        std::iter::from_fn(move || loop {
            if bits != 0 {
                let position = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                return Some(position);
            }
            word += 1;
            if word * 64 >= span.end {
                return None;
            }
            bits = self.word_in(word, &span);
        })
    }

    /// Word `word` of the visiting bits with the positions outside
    /// `span` cleared; the word starts at or before `span.end`.
    fn word_in(&self, word: usize, span: &Range<usize>) -> u64 {
        let base = word * 64;
        let mut bits = self.visiting.get(word).copied().unwrap_or(0);
        if span.start > base {
            bits &= u64::MAX << (span.start - base);
        }
        if span.end < base + 64 {
            bits &= !(u64::MAX << (span.end - base));
        }
        bits
    }

    /// The pairs the sparse filter skips on the arcs of `rows` that
    /// visit no pair.
    ///
    /// # Panics
    ///
    /// Panics when `rows` reaches past the matrix dimension.
    pub fn idle_skipped(&self, rows: Range<usize>) -> u64 {
        self.idle_skipped[rows].iter().map(|&pairs| u64::from(pairs)).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::row::{EncodingPolicy, RowEncoding};
    use crate::slice::SliceSize;
    use crate::sliced_matrix::SlicedMatrix;

    /// A scattered random DAG on 1024 vertices, about six heads per row,
    /// with the last rows left empty.
    fn scattered() -> Vec<Vec<u32>> {
        let n = 1024usize;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, row) in adjacency.iter_mut().enumerate().take(n - 8) {
            let mut heads = std::collections::BTreeSet::new();
            for _ in 0..6 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                heads.insert((i + 1 + state as usize % (n - i - 1)) as u32);
            }
            *row = heads.into_iter().collect();
        }
        adjacency
    }

    fn sliced(adjacency: &[Vec<u32>], encoding: RowEncoding) -> SlicedMatrix {
        let policy = EncodingPolicy::force(encoding);
        SlicedMatrix::from_adjacency_with(adjacency, SliceSize::S64, policy).unwrap()
    }

    #[test]
    fn visiting_arcs_are_those_whose_merge_visits_a_pair() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let m = sliced(&scattered(), encoding);
            let census = m.census();
            let visiting: Vec<usize> = census.visiting(0..m.edge_count()).collect();
            let want: Vec<usize> = m
                .edges()
                .enumerate()
                .filter(|&(_, (i, j))| m.row(i).matching_stats(m.col(j)).unwrap().visited > 0)
                .map(|(position, _)| position)
                .collect();
            assert_eq!(visiting, want, "{encoding}");
            assert_eq!(census.visiting_arcs(), want.len() as u64, "{encoding}");
            assert!(!want.is_empty() && want.len() < m.edge_count(), "{encoding}: mixed");
            // Any window lists the same positions as the whole list does.
            for span in [0..1, 3..64, 63..65, 64..128, 100..1000, 5..5] {
                let window: Vec<usize> = census.visiting(span.clone()).collect();
                let expected: Vec<usize> =
                    want.iter().copied().filter(|p| span.contains(p)).collect();
                assert_eq!(window, expected, "{encoding} {span:?}");
            }
        }
    }

    #[test]
    fn each_rows_idle_skipped_pairs_add_up() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let m = sliced(&scattered(), encoding);
            let census = m.census();
            let mut idle = vec![0u64; m.dim()];
            let (mut pairs, mut skipped) = (0u64, 0u64);
            for (i, j) in m.edges() {
                let stats = m.row(i).matching_stats(m.col(j)).unwrap();
                pairs += stats.visited;
                skipped += stats.skipped;
                if stats.visited == 0 {
                    idle[i as usize] += stats.skipped;
                }
            }
            for (i, &want) in idle.iter().enumerate() {
                assert_eq!(census.idle_skipped(i..i + 1), want, "{encoding} row {i}");
            }
            assert_eq!(census.idle_skipped(0..m.dim()), idle.iter().sum::<u64>());
            assert_eq!((census.slice_pairs(), census.blocks_skipped()), (pairs, skipped));
            if encoding == RowEncoding::Sparse {
                assert!(census.idle_skipped(0..m.dim()) > 0, "the filter skips idle pairs");
            } else {
                assert_eq!(census.blocks_skipped(), 0, "dense rows skip nothing");
            }
        }
    }

    #[test]
    fn dense_rows_mark_arcs_without_a_mutually_valid_slice_idle() {
        // Arcs (0, 70), (0, 130), (70, 130): only (0, 130)'s row and
        // column share a valid slice. Rows 1..70 and 71.. have no arcs.
        let mut adjacency = vec![Vec::new(); 256];
        adjacency[0] = vec![70, 130];
        adjacency[70] = vec![130];
        let m = sliced(&adjacency, RowEncoding::Dense);
        let census = m.census();
        assert_eq!(census.visiting(0..3).collect::<Vec<_>>(), vec![1]);
        assert_eq!((census.visiting_arcs(), census.slice_pairs()), (1, 1));
        assert_eq!(census.idle_skipped(0..256), 0);
        // A span of rows without arcs lists nothing.
        assert_eq!(census.visiting(2..2).count(), 0);
        assert_eq!(census.idle_skipped(1..70), 0);
    }

    #[test]
    fn an_empty_matrix_has_an_empty_census() {
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        let census = m.census();
        assert_eq!(census.visiting(0..0).count(), 0);
        assert_eq!(census.visiting_arcs(), 0);
        assert_eq!((census.slice_pairs(), census.blocks_skipped()), (0, 0));
        assert_eq!(census.idle_skipped(0..0), 0);
    }

    #[test]
    fn the_census_is_taken_once_and_ignored_by_equality() {
        let adjacency = scattered();
        let (a, b) =
            (sliced(&adjacency, RowEncoding::Sparse), sliced(&adjacency, RowEncoding::Sparse));
        let first: *const _ = a.census();
        assert!(std::ptr::eq(first, a.census()), "memoized");
        assert_eq!(a, b, "one side's census is taken, the other's not");
        assert_eq!(a.census(), b.census());
    }
}
