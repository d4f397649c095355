//! Density-adaptive row encoding: one type over the dense
//! [`SlicedBitVector`] and the hierarchical [`SparseSlicedRow`], plus the
//! policy that picks between them.
//!
//! Every consumer of a sliced row — the architecture simulator, the
//! scheduler's row jobs, shard boundary extraction, streaming patches —
//! goes through [`SlicedRow`], so a prepared graph can switch encodings
//! wholesale without its consumers caring which layout is underneath.
//! The dense encoding is bit-identical to the paper's `(index, payload)`
//! format; the sparse encoding stores the same bit set hierarchically
//! and intersects it with the two-level skip-empty walk.

use std::fmt;

use crate::bitvec::BitVec;
use crate::error::{BitMatrixError, Result};
use crate::popcount::{popcount_words, PopcountMethod};
use crate::slice::{SliceSize, MAX_WORDS_PER_SLICE};
use crate::sliced::{MatchingSlices, SlicedBitVector};
use crate::sparse::{walk_matching, SparseSlicedRow};

/// Which physical layout a row (or a whole prepared matrix) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum RowEncoding {
    /// The paper's flat `(u32 index, |S|-bit payload)` list.
    #[default]
    Dense,
    /// Hierarchical summary masks over packed non-zero payload bytes.
    Sparse,
}

impl fmt::Display for RowEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RowEncoding::Dense => "dense",
            RowEncoding::Sparse => "sparse",
        })
    }
}

/// Valid-slice fraction below which [`EncodingPolicy::Auto`] picks the
/// sparse encoding. Below it, the dispatches and slice pairs the sparse
/// walk skips make sparse the faster artifact in modelled accelerator
/// time, although the host's payload decode keeps dense faster on the
/// CPU at every density. The density sweep (0.1%–50%) that placed it is
/// described in CHANGES.md, in the entry that added sparse bit-rows.
const AUTO_SPARSE_THRESHOLD: f64 = 0.25;

/// How a prepared graph chooses its [`RowEncoding`].
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{EncodingPolicy, RowEncoding};
///
/// let auto = EncodingPolicy::default();
/// assert_eq!(auto.resolve(0.40), RowEncoding::Dense);
/// assert_eq!(auto.resolve(0.10), RowEncoding::Sparse);
/// assert_eq!(EncodingPolicy::ForceSparse.resolve(0.99), RowEncoding::Sparse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingPolicy {
    /// Measure the matrix's valid-slice fraction and go sparse below
    /// 25%.
    #[default]
    Auto,
    /// Always use the dense encoding (the paper's baseline layout).
    ForceDense,
    /// Always use the sparse encoding, regardless of density.
    ForceSparse,
}

impl EncodingPolicy {
    /// The encoding this policy selects for a matrix whose fraction of
    /// valid slices is `valid_fraction`.
    pub fn resolve(&self, valid_fraction: f64) -> RowEncoding {
        match *self {
            EncodingPolicy::ForceDense => RowEncoding::Dense,
            EncodingPolicy::ForceSparse => RowEncoding::Sparse,
            EncodingPolicy::Auto => {
                if valid_fraction < AUTO_SPARSE_THRESHOLD {
                    RowEncoding::Sparse
                } else {
                    RowEncoding::Dense
                }
            }
        }
    }

    /// The fixed encoding that reproduces this policy's choice, once
    /// resolved — used to keep shard-local rebuilds on the exact
    /// encoding the monolithic prepare selected.
    pub fn force(encoding: RowEncoding) -> EncodingPolicy {
        match encoding {
            RowEncoding::Dense => EncodingPolicy::ForceDense,
            RowEncoding::Sparse => EncodingPolicy::ForceSparse,
        }
    }
}

impl fmt::Display for EncodingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodingPolicy::Auto => write!(f, "auto<{AUTO_SPARSE_THRESHOLD:.3}"),
            EncodingPolicy::ForceDense => f.write_str("dense"),
            EncodingPolicy::ForceSparse => f.write_str("sparse"),
        }
    }
}

/// Slice-pair accounting of one row-column intersection: how many
/// mutually valid pairs the kernel actually visited and how many the
/// sparse byte-mask filter proved zero and skipped.
///
/// Dense rows visit every mutually valid pair (`skipped == 0`), so
/// `visited + skipped` is always the dense merge-join's pair count —
/// the sparse walk is a strict refinement, never a different population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Pairs decoded and fed to the AND + BitCount kernel.
    pub visited: u64,
    /// Mutually valid pairs skipped because their byte masks were
    /// disjoint (the AND is provably zero).
    pub skipped: u64,
}

impl PairStats {
    /// Total mutually valid pairs (what the dense encoding would visit).
    pub fn matched(&self) -> u64 {
        self.visited + self.skipped
    }
}

/// A sliced bit row in either encoding, with a common API for every
/// consumer of the prepared matrix.
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{RowEncoding, SliceSize, SlicedRow};
///
/// let len = 4096;
/// let a = SlicedRow::from_sorted_indices(len, [3, 700, 4000], SliceSize::S64,
///     RowEncoding::Sparse);
/// let b = SlicedRow::from_sorted_indices(len, [3, 700, 900], SliceSize::S64,
///     RowEncoding::Sparse);
/// assert_eq!(a.and_popcount(&b), 2);
/// // The skip-empty walk visits only byte-intersecting pairs.
/// let stats = a.matching_stats(&b).unwrap();
/// assert_eq!(stats.visited, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlicedRow {
    /// The paper's flat compressed layout.
    Dense(SlicedBitVector),
    /// The hierarchical summary-mask layout.
    Sparse(SparseSlicedRow),
}

impl From<SlicedBitVector> for SlicedRow {
    fn from(v: SlicedBitVector) -> Self {
        SlicedRow::Dense(v)
    }
}

impl From<SparseSlicedRow> for SlicedRow {
    fn from(v: SparseSlicedRow) -> Self {
        SlicedRow::Sparse(v)
    }
}

impl SlicedRow {
    /// Compresses `v` under `encoding`.
    pub fn from_bitvec(v: &BitVec, slice_size: SliceSize, encoding: RowEncoding) -> Self {
        match encoding {
            RowEncoding::Dense => {
                SlicedRow::Dense(SlicedBitVector::from_bitvec(v, slice_size))
            }
            RowEncoding::Sparse => {
                SlicedRow::Sparse(SparseSlicedRow::from_bitvec(v, slice_size))
            }
        }
    }

    /// Compresses a vector given the ascending indices of its set bits.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly ascending or reach
    /// `len_bits`.
    pub fn from_sorted_indices<I>(
        len_bits: usize,
        set_bits: I,
        slice_size: SliceSize,
        encoding: RowEncoding,
    ) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        match encoding {
            RowEncoding::Dense => SlicedRow::Dense(SlicedBitVector::from_sorted_indices(
                len_bits, set_bits, slice_size,
            )),
            RowEncoding::Sparse => SlicedRow::Sparse(SparseSlicedRow::from_sorted_indices(
                len_bits, set_bits, slice_size,
            )),
        }
    }

    /// Wraps (or re-encodes) an already-compressed dense vector.
    pub fn encode(dense: SlicedBitVector, encoding: RowEncoding) -> Self {
        match encoding {
            RowEncoding::Dense => SlicedRow::Dense(dense),
            RowEncoding::Sparse => SlicedRow::Sparse(SparseSlicedRow::from_dense(&dense)),
        }
    }

    /// This row's physical encoding.
    pub fn encoding(&self) -> RowEncoding {
        match self {
            SlicedRow::Dense(_) => RowEncoding::Dense,
            SlicedRow::Sparse(_) => RowEncoding::Sparse,
        }
    }

    /// The same bit set under `encoding` (a clone when it already is).
    pub fn reencoded(&self, encoding: RowEncoding) -> SlicedRow {
        match (self, encoding) {
            (SlicedRow::Dense(v), RowEncoding::Sparse) => {
                SlicedRow::Sparse(SparseSlicedRow::from_dense(v))
            }
            (SlicedRow::Sparse(v), RowEncoding::Dense) => SlicedRow::Dense(v.to_dense()),
            _ => self.clone(),
        }
    }

    /// The slice size this row was compressed with.
    pub fn slice_size(&self) -> SliceSize {
        match self {
            SlicedRow::Dense(v) => v.slice_size(),
            SlicedRow::Sparse(v) => v.slice_size(),
        }
    }

    /// Length of the uncompressed vector in bits.
    pub fn len_bits(&self) -> usize {
        match self {
            SlicedRow::Dense(v) => v.len_bits(),
            SlicedRow::Sparse(v) => v.len_bits(),
        }
    }

    /// Returns `true` when no slice is valid.
    pub fn is_empty(&self) -> bool {
        match self {
            SlicedRow::Dense(v) => v.is_empty(),
            SlicedRow::Sparse(v) => v.is_empty(),
        }
    }

    /// Number of valid slices (identical across encodings).
    pub fn valid_slice_count(&self) -> usize {
        match self {
            SlicedRow::Dense(v) => v.valid_slice_count(),
            SlicedRow::Sparse(v) => v.valid_slice_count(),
        }
    }

    /// Number of slices the uncompressed vector would occupy.
    pub fn total_slices(&self) -> usize {
        match self {
            SlicedRow::Dense(v) => v.total_slices(),
            SlicedRow::Sparse(v) => v.total_slices(),
        }
    }

    /// Fraction of slices that are valid, in `[0, 1]`.
    pub fn valid_fraction(&self) -> f64 {
        match self {
            SlicedRow::Dense(v) => v.valid_fraction(),
            SlicedRow::Sparse(v) => v.valid_fraction(),
        }
    }

    /// Bytes of the compressed representation under this row's own
    /// encoding: `NVS × (|S|/8 + 4)` for dense, the full hierarchy
    /// accounting for sparse.
    pub fn compressed_bytes(&self) -> usize {
        match self {
            SlicedRow::Dense(v) => v.compressed_bytes(),
            SlicedRow::Sparse(v) => v.compressed_bytes(),
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        match self {
            SlicedRow::Dense(v) => v.count_ones(),
            SlicedRow::Sparse(v) => v.count_ones(),
        }
    }

    /// Decompresses back to a dense [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        match self {
            SlicedRow::Dense(v) => v.to_bitvec(),
            SlicedRow::Sparse(v) => v.to_bitvec(),
        }
    }

    /// The dense merge-join iterator over mutually valid slice pairs.
    ///
    /// This is the raw dense-layout view; encoding-generic consumers use
    /// [`SlicedRow::for_each_matching`] instead, which also works (and
    /// skips) on sparse rows.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::EncodingMismatch`] unless both rows are
    /// dense, plus the dense iterator's own slice-size/length checks.
    pub fn matching_slices<'a>(&'a self, other: &'a SlicedRow) -> Result<MatchingSlices<'a>> {
        match (self, other) {
            (SlicedRow::Dense(a), SlicedRow::Dense(b)) => a.matching_slices(b),
            _ => Err(BitMatrixError::EncodingMismatch),
        }
    }

    fn check_compatible(&self, other: &SlicedRow) -> Result<()> {
        if self.slice_size() != other.slice_size() {
            return Err(BitMatrixError::SliceSizeMismatch {
                left: self.slice_size().bits(),
                right: other.slice_size().bits(),
            });
        }
        if self.len_bits() != other.len_bits() {
            return Err(BitMatrixError::LengthMismatch {
                left: self.len_bits(),
                right: other.len_bits(),
            });
        }
        if self.encoding() != other.encoding() {
            return Err(BitMatrixError::EncodingMismatch);
        }
        Ok(())
    }

    /// Runs `f(slice index, ANDed payload words)` over every visited
    /// slice pair of `self AND other` — the encoding-generic kernel
    /// walk. Dense rows visit every mutually valid pair; sparse rows
    /// additionally skip pairs whose byte masks are disjoint (the AND is
    /// provably zero), reported in [`PairStats::skipped`].
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::SliceSizeMismatch`],
    /// [`BitMatrixError::LengthMismatch`] or
    /// [`BitMatrixError::EncodingMismatch`] when the operands don't
    /// agree.
    pub fn for_each_matching(
        &self,
        other: &SlicedRow,
        mut f: impl FnMut(u32, &[u64]),
    ) -> Result<PairStats> {
        self.check_compatible(other)?;
        match (self, other) {
            (SlicedRow::Dense(a), SlicedRow::Dense(b)) => {
                let mut buf = [0u64; MAX_WORDS_PER_SLICE];
                let scratch = &mut buf[..self.slice_size().words_per_slice()];
                let mut stats = PairStats::default();
                for (k, left, right) in a.matching_slices(b)? {
                    for (s, (&x, &y)) in scratch.iter_mut().zip(left.iter().zip(right)) {
                        *s = x & y;
                    }
                    stats.visited += 1;
                    f(k, scratch);
                }
                Ok(stats)
            }
            (SlicedRow::Sparse(a), SlicedRow::Sparse(b)) => Ok(walk_matching::<true>(a, b, f)),
            _ => unreachable!("check_compatible rejects mixed encodings"),
        }
    }

    /// Like [`SlicedRow::for_each_matching`] but hands out only the
    /// slice index of each visited pair, skipping payload decode — the
    /// path for job decomposition, which needs pair identities, not
    /// data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SlicedRow::for_each_matching`].
    pub fn for_each_matching_index(
        &self,
        other: &SlicedRow,
        mut f: impl FnMut(u32),
    ) -> Result<PairStats> {
        self.check_compatible(other)?;
        match (self, other) {
            (SlicedRow::Dense(a), SlicedRow::Dense(b)) => {
                let mut stats = PairStats::default();
                for (k, _, _) in a.matching_slices(b)? {
                    stats.visited += 1;
                    f(k);
                }
                Ok(stats)
            }
            (SlicedRow::Sparse(a), SlicedRow::Sparse(b)) => {
                Ok(walk_matching::<false>(a, b, |k, _| f(k)))
            }
            _ => unreachable!("check_compatible rejects mixed encodings"),
        }
    }

    /// The pair accounting of `self AND other` without visiting payloads
    /// — what the cost model prices.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SlicedRow::for_each_matching`].
    pub fn matching_stats(&self, other: &SlicedRow) -> Result<PairStats> {
        self.for_each_matching_index(other, |_| {})
    }

    /// `popcount(self AND other)` — the full TCIM kernel over one
    /// row-column pair, in either encoding.
    ///
    /// # Panics
    ///
    /// Panics when the operands disagree in slice size, length or
    /// encoding (matrix rows and columns always agree by construction).
    pub fn and_popcount(&self, other: &SlicedRow) -> u64 {
        self.and_popcount_with(other, PopcountMethod::Native)
    }

    /// [`SlicedRow::and_popcount`] with an explicit bit-count method.
    ///
    /// # Panics
    ///
    /// Panics when the operands disagree in slice size, length or
    /// encoding.
    pub fn and_popcount_with(&self, other: &SlicedRow, method: PopcountMethod) -> u64 {
        match (self, other) {
            (SlicedRow::Dense(a), SlicedRow::Dense(b)) => a.and_popcount_with(b, method),
            _ => {
                let mut total = 0u64;
                self.for_each_matching(other, |_, anded| {
                    total += popcount_words(anded, method);
                })
                .expect("operands must agree in slice size, length and encoding");
                total
            }
        }
    }

    /// Sets bit `bit` in place under this row's encoding. Returns `true`
    /// when the bit was newly set.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn set_bit(&mut self, bit: usize) -> Result<bool> {
        match self {
            SlicedRow::Dense(v) => v.set_bit(bit),
            SlicedRow::Sparse(v) => v.set_bit(bit),
        }
    }

    /// Clears bit `bit` in place. Returns `true` when the bit was
    /// previously set.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn clear_bit(&mut self, bit: usize) -> Result<bool> {
        match self {
            SlicedRow::Dense(v) => v.clear_bit(bit),
            SlicedRow::Sparse(v) => v.clear_bit(bit),
        }
    }

    /// Extracts the valid slices whose index falls in `slices`,
    /// preserving length, slice size and encoding.
    pub fn restrict_slices(&self, slices: std::ops::Range<u32>) -> SlicedRow {
        match self {
            SlicedRow::Dense(v) => SlicedRow::Dense(v.restrict_slices(slices)),
            SlicedRow::Sparse(v) => SlicedRow::Sparse(v.restrict_slices(slices)),
        }
    }

    /// Number of valid slices whose index falls in `slices`.
    pub fn valid_slices_in(&self, slices: std::ops::Range<u32>) -> usize {
        match self {
            SlicedRow::Dense(v) => v.valid_slices_in(slices),
            SlicedRow::Sparse(v) => v.valid_slices_in(slices),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(
        len: usize,
        a: &[usize],
        b: &[usize],
        encoding: RowEncoding,
    ) -> (SlicedRow, SlicedRow) {
        (
            SlicedRow::from_sorted_indices(len, a.iter().copied(), SliceSize::S64, encoding),
            SlicedRow::from_sorted_indices(len, b.iter().copied(), SliceSize::S64, encoding),
        )
    }

    #[test]
    fn policy_resolution_and_threshold() {
        let auto = EncodingPolicy::default();
        assert_eq!(auto, EncodingPolicy::Auto);
        assert_eq!(auto.resolve(0.25), RowEncoding::Dense, "threshold is exclusive");
        assert_eq!(auto.resolve(0.2499), RowEncoding::Sparse);
        assert_eq!(EncodingPolicy::ForceDense.resolve(0.0), RowEncoding::Dense);
        assert_eq!(EncodingPolicy::ForceSparse.resolve(1.0), RowEncoding::Sparse);
        assert_eq!(EncodingPolicy::force(RowEncoding::Sparse), EncodingPolicy::ForceSparse);
        assert_eq!(EncodingPolicy::force(RowEncoding::Dense), EncodingPolicy::ForceDense);
    }

    #[test]
    fn encodings_agree_on_every_accessor() {
        let ones: Vec<usize> = (0..900).step_by(7).collect();
        let dense = SlicedRow::from_sorted_indices(
            1000,
            ones.iter().copied(),
            SliceSize::S64,
            RowEncoding::Dense,
        );
        let sparse = dense.reencoded(RowEncoding::Sparse);
        assert_eq!(sparse.encoding(), RowEncoding::Sparse);
        assert_eq!(sparse.count_ones(), dense.count_ones());
        assert_eq!(sparse.valid_slice_count(), dense.valid_slice_count());
        assert_eq!(sparse.total_slices(), dense.total_slices());
        assert_eq!(sparse.valid_fraction(), dense.valid_fraction());
        assert_eq!(sparse.to_bitvec(), dense.to_bitvec());
        assert_eq!(sparse.reencoded(RowEncoding::Dense), dense, "round trip");
    }

    #[test]
    fn kernel_results_are_encoding_invariant() {
        let a_ones: Vec<usize> = (0..2000).step_by(3).collect();
        let b_ones: Vec<usize> = (0..2000).step_by(5).collect();
        let (da, db) = pair(2000, &a_ones, &b_ones, RowEncoding::Dense);
        let (sa, sb) = pair(2000, &a_ones, &b_ones, RowEncoding::Sparse);
        assert_eq!(sa.and_popcount(&sb), da.and_popcount(&db));
        assert_eq!(
            sa.and_popcount_with(&sb, PopcountMethod::Lut8),
            da.and_popcount_with(&db, PopcountMethod::Lut8)
        );
        let dense_stats = da.matching_stats(&db).unwrap();
        let sparse_stats = sa.matching_stats(&sb).unwrap();
        assert_eq!(dense_stats.skipped, 0, "dense never skips");
        assert_eq!(sparse_stats.matched(), dense_stats.matched());
        assert!(sparse_stats.visited <= dense_stats.visited);
    }

    #[test]
    fn mixed_encodings_are_rejected() {
        let (a, _) = pair(128, &[1, 2], &[2, 3], RowEncoding::Dense);
        let (_, b) = pair(128, &[1, 2], &[2, 3], RowEncoding::Sparse);
        assert_eq!(
            a.for_each_matching(&b, |_, _| {}).unwrap_err(),
            BitMatrixError::EncodingMismatch
        );
        assert_eq!(a.matching_stats(&b).unwrap_err(), BitMatrixError::EncodingMismatch);
        assert_eq!(b.matching_slices(&a).unwrap_err(), BitMatrixError::EncodingMismatch);
        assert!(a.matching_slices(&a).is_ok(), "dense pairs keep the raw view");
    }

    #[test]
    fn size_and_length_mismatches_still_surface() {
        let a = SlicedRow::from_sorted_indices(100, [1], SliceSize::S64, RowEncoding::Sparse);
        let b = SlicedRow::from_sorted_indices(100, [1], SliceSize::S32, RowEncoding::Sparse);
        assert!(matches!(a.matching_stats(&b), Err(BitMatrixError::SliceSizeMismatch { .. })));
        let c = SlicedRow::from_sorted_indices(99, [1], SliceSize::S64, RowEncoding::Sparse);
        assert!(matches!(a.matching_stats(&c), Err(BitMatrixError::LengthMismatch { .. })));
    }

    #[test]
    fn index_walk_matches_decode_walk() {
        let a_ones: Vec<usize> = (0..3000).step_by(11).collect();
        let b_ones: Vec<usize> = (0..3000).step_by(13).collect();
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let (a, b) = pair(3000, &a_ones, &b_ones, encoding);
            let mut decoded = Vec::new();
            let full = a.for_each_matching(&b, |k, _| decoded.push(k)).unwrap();
            let mut indexed = Vec::new();
            let index = a.for_each_matching_index(&b, |k| indexed.push(k)).unwrap();
            assert_eq!(decoded, indexed, "{encoding}");
            assert_eq!(full, index, "{encoding}");
        }
    }

    #[test]
    fn patches_work_under_both_encodings() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let mut row =
                SlicedRow::from_sorted_indices(500, [7, 450], SliceSize::S64, encoding);
            assert!(row.set_bit(100).unwrap());
            assert!(row.clear_bit(7).unwrap());
            assert_eq!(
                row,
                SlicedRow::from_sorted_indices(500, [100, 450], SliceSize::S64, encoding),
                "{encoding}"
            );
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(RowEncoding::Dense.to_string(), "dense");
        assert_eq!(RowEncoding::Sparse.to_string(), "sparse");
        assert_eq!(EncodingPolicy::default().to_string(), "auto<0.250");
        assert_eq!(EncodingPolicy::ForceSparse.to_string(), "sparse");
    }
}
