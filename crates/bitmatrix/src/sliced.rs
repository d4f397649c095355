//! The compressed `(valid slice index, slice data)` vector of §IV-B.

use std::fmt;

use crate::bitvec::BitVec;
use crate::error::{BitMatrixError, Result};
use crate::matching::SliceWords;
use crate::popcount::{popcount_words, PopcountMethod};
use crate::slice::SliceSize;

/// One valid slice of a [`SlicedBitVector`]: its position and payload.
///
/// For slice sizes below 64 bits the payload still occupies one `u64` word
/// with the unused high bits zeroed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidSlice<'a> {
    /// The slice index `k` (the slice covers bits `[k·|S|, (k+1)·|S|)`).
    pub index: u32,
    /// The slice payload, `words_per_slice` little-endian words.
    pub words: &'a [u64],
}

/// A bit vector stored in the paper's compressed sliced format.
///
/// Only *valid* (non-zero) slices are stored, each as a `u32` index plus
/// `|S|` bits of payload, which is exactly the format the paper maps onto
/// the computational STT-MRAM array: `NVS × (|S|/8 + 4)` bytes total
/// ([`SlicedBitVector::compressed_bytes`]).
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{BitVec, SliceSize, SlicedBitVector};
///
/// // The Fig. 3 row of the paper: bits set only in slices 3 and 5 … here a
/// // small analogue with |S| = 16 for readability.
/// let v = BitVec::from_indices(96, [50, 85]);
/// let s = SlicedBitVector::from_bitvec(&v, SliceSize::S16);
/// assert_eq!(s.valid_slice_count(), 2);
/// assert_eq!(s.total_slices(), 6);
/// assert_eq!(s.compressed_bytes(), 2 * (2 + 4));
/// assert_eq!(s.to_bitvec(), v);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SlicedBitVector {
    slice_size: SliceSize,
    len_bits: usize,
    /// Sorted indices of valid slices.
    indices: Vec<u32>,
    /// `indices.len() * words_per_slice` payload words.
    data: Vec<u64>,
}

impl SlicedBitVector {
    /// Compresses `v` with slice size `slice_size`.
    pub fn from_bitvec(v: &BitVec, slice_size: SliceSize) -> Self {
        let bits = slice_size.bits() as usize;
        let wps = slice_size.words_per_slice();
        let n_slices = slice_size.slices_for(v.len());
        let mut indices = Vec::new();
        let mut data = Vec::new();

        if bits >= 64 {
            // Each slice groups `wps` whole words.
            for k in 0..n_slices {
                let start = k * wps;
                let end = ((k + 1) * wps).min(v.words().len());
                let words = &v.words()[start..end];
                if words.iter().any(|&w| w != 0) {
                    indices.push(k as u32);
                    data.extend_from_slice(words);
                    // Pad a trailing partial slice to full width.
                    data.extend(std::iter::repeat_n(0, wps - words.len()));
                }
            }
        } else {
            // Multiple slices per word; extract with shift + mask.
            let per_word = 64 / bits;
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            for k in 0..n_slices {
                let word = v.words().get(k / per_word).copied().unwrap_or(0);
                let payload = (word >> ((k % per_word) * bits)) & mask;
                if payload != 0 {
                    indices.push(k as u32);
                    data.push(payload);
                }
            }
        }

        SlicedBitVector { slice_size, len_bits: v.len(), indices, data }
    }

    /// Compresses a vector of `len_bits` bits given the ascending indices of
    /// its set bits, without materialising an intermediate [`BitVec`].
    ///
    /// This is the path used for CSR adjacency rows, whose neighbour lists
    /// are already sorted.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly ascending or reach `len_bits`.
    pub fn from_sorted_indices<I>(len_bits: usize, set_bits: I, slice_size: SliceSize) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let bits = slice_size.bits() as usize;
        let wps = slice_size.words_per_slice();
        let mut indices: Vec<u32> = Vec::new();
        let mut data: Vec<u64> = Vec::new();
        let mut last: Option<usize> = None;

        for b in set_bits {
            assert!(b < len_bits, "set bit {b} out of bounds for {len_bits}");
            if let Some(prev) = last {
                assert!(b > prev, "set-bit indices must be strictly ascending");
            }
            last = Some(b);
            let slice = (b / bits) as u32;
            if indices.last() != Some(&slice) {
                indices.push(slice);
                data.extend(std::iter::repeat_n(0, wps));
            }
            let within = b % bits;
            let base = data.len() - wps;
            data[base + within / 64] |= 1u64 << (within % 64);
        }

        SlicedBitVector { slice_size, len_bits, indices, data }
    }

    /// The slice size this vector was compressed with.
    pub fn slice_size(&self) -> SliceSize {
        self.slice_size
    }

    /// Length of the uncompressed vector in bits.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Returns `true` when no slice is valid (the all-zero vector).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of valid (stored) slices — the paper's `NVS` contribution of
    /// this vector.
    pub fn valid_slice_count(&self) -> usize {
        self.indices.len()
    }

    /// Number of slices the uncompressed vector would occupy,
    /// `⌈len / |S|⌉`.
    pub fn total_slices(&self) -> usize {
        self.slice_size.slices_for(self.len_bits)
    }

    /// Fraction of slices that are valid, in `[0, 1]`.
    pub fn valid_fraction(&self) -> f64 {
        if self.total_slices() == 0 {
            0.0
        } else {
            self.valid_slice_count() as f64 / self.total_slices() as f64
        }
    }

    /// Bytes of the compressed representation per the paper's formula
    /// `NVS × (|S|/8 + 4)`.
    pub fn compressed_bytes(&self) -> usize {
        self.valid_slice_count() * self.slice_size.bytes_per_valid_slice()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        popcount_words(&self.data, PopcountMethod::Native)
    }

    /// The vector as an operand of the matching walk
    /// ([`crate::matching::walk`]): its slice indices and payload words.
    pub fn slice_words(&self) -> SliceWords<'_> {
        SliceWords { indices: &self.indices, words: &self.data }
    }

    /// Iterates over the valid slices in ascending index order.
    pub fn valid_slices(&self) -> impl Iterator<Item = ValidSlice<'_>> + '_ {
        let wps = self.slice_size.words_per_slice();
        self.indices.iter().enumerate().map(move |(pos, &index)| ValidSlice {
            index,
            words: &self.data[pos * wps..(pos + 1) * wps],
        })
    }

    /// The merge-join of valid slices of `self` and `other`: yields the
    /// *valid slice pairs* `(RiSk, CjSk)` of the paper — exactly the pairs
    /// TCIM loads into the computational array under the dense encoding.
    /// It is the plain reference for the kernels' matching walk
    /// ([`crate::matching::walk`]), which gallops and, under the sparse
    /// encoding, skips the pairs that share no non-zero byte.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::SliceSizeMismatch`] when the operands use
    /// different slice sizes and [`BitMatrixError::LengthMismatch`] when the
    /// uncompressed lengths differ.
    pub fn matching_slices<'a>(
        &'a self,
        other: &'a SlicedBitVector,
    ) -> Result<MatchingSlices<'a>> {
        if self.slice_size != other.slice_size {
            return Err(BitMatrixError::SliceSizeMismatch {
                left: self.slice_size.bits(),
                right: other.slice_size.bits(),
            });
        }
        if self.len_bits != other.len_bits {
            return Err(BitMatrixError::LengthMismatch {
                left: self.len_bits,
                right: other.len_bits,
            });
        }
        Ok(MatchingSlices { left: self, right: other, li: 0, ri: 0 })
    }

    /// `popcount(self AND other)` over valid slice pairs only — the TCIM
    /// kernel of Equation (5).
    ///
    /// Lengths are reconciled implicitly: both vectors must describe the same
    /// universe; call sites in the accelerator guarantee this and the method
    /// panics otherwise to surface mapping bugs early.
    ///
    /// # Panics
    ///
    /// Panics if the slice sizes or lengths differ.
    pub fn and_popcount(&self, other: &SlicedBitVector) -> u64 {
        self.and_popcount_with(other, PopcountMethod::Native)
    }

    /// [`SlicedBitVector::and_popcount`] with an explicit popcount strategy.
    ///
    /// # Panics
    ///
    /// Panics if the slice sizes or lengths differ.
    pub fn and_popcount_with(&self, other: &SlicedBitVector, method: PopcountMethod) -> u64 {
        let pairs =
            self.matching_slices(other).expect("operands must share slice size and length");
        let mut total = 0u64;
        for (_, a, b) in pairs {
            for (x, y) in a.iter().zip(b) {
                total += u64::from(crate::popcount::popcount_word(x & y, method));
            }
        }
        total
    }

    /// Sets bit `bit` in place, inserting a freshly valid slice when the
    /// bit's slice was previously all-zero. Returns `true` when the bit
    /// was newly set (`false` when it was already 1).
    ///
    /// The compressed invariant — only non-zero slices are stored, in
    /// ascending index order — is preserved, so a mutated vector compares
    /// equal to a from-scratch compression of the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn set_bit(&mut self, bit: usize) -> Result<bool> {
        let (slice, word, mask) = self.locate(bit)?;
        let wps = self.slice_size.words_per_slice();
        match self.indices.binary_search(&slice) {
            Ok(pos) => {
                let w = &mut self.data[pos * wps + word];
                let was_set = *w & mask != 0;
                *w |= mask;
                Ok(!was_set)
            }
            Err(pos) => {
                self.indices.insert(pos, slice);
                let base = pos * wps;
                self.data.splice(base..base, std::iter::repeat_n(0u64, wps));
                self.data[base + word] |= mask;
                Ok(true)
            }
        }
    }

    /// Clears bit `bit` in place, dropping the slice from the valid set
    /// when it becomes all-zero. Returns `true` when the bit was
    /// previously set (`false` when it was already 0).
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn clear_bit(&mut self, bit: usize) -> Result<bool> {
        let (slice, word, mask) = self.locate(bit)?;
        let wps = self.slice_size.words_per_slice();
        let Ok(pos) = self.indices.binary_search(&slice) else {
            return Ok(false); // bit lives in an invalid (all-zero) slice
        };
        let base = pos * wps;
        let w = &mut self.data[base + word];
        if *w & mask == 0 {
            return Ok(false);
        }
        *w &= !mask;
        if self.data[base..base + wps].iter().all(|&x| x == 0) {
            self.indices.remove(pos);
            self.data.drain(base..base + wps);
        }
        Ok(true)
    }

    /// Extracts the valid slices whose index falls in `slices`,
    /// preserving the vector's length and slice size — the
    /// *boundary-slice extraction* primitive of sharded execution.
    ///
    /// A shard owns a contiguous, slice-aligned vertex range, so the
    /// part of a row (or column) that refers to *other* shards is
    /// exactly a slice-index range of the compressed vector. The result
    /// is a well-formed [`SlicedBitVector`] over the same bit universe:
    /// restrictions with disjoint slice ranges AND/popcount
    /// independently and their valid-pair counts sum to the full
    /// vector's, which is what makes the cross-shard composition pass
    /// exact.
    ///
    /// # Example
    ///
    /// ```
    /// use tcim_bitmatrix::{BitVec, SliceSize, SlicedBitVector};
    ///
    /// // Bits in slices 0, 2 and 5 of a 6-slice vector (|S| = 16).
    /// let v = BitVec::from_indices(96, [3, 40, 85]);
    /// let s = SlicedBitVector::from_bitvec(&v, SliceSize::S16);
    ///
    /// // Split at slice 3: a "local" prefix and a "boundary" tail.
    /// let local = s.restrict_slices(0..3);
    /// let boundary = s.restrict_slices(3..6);
    /// assert_eq!(local.valid_slice_count(), 2);
    /// assert_eq!(boundary.valid_slice_count(), 1);
    /// assert_eq!(local.count_ones() + boundary.count_ones(), s.count_ones());
    /// // Both halves still describe the original 96-bit universe.
    /// assert_eq!(boundary.len_bits(), 96);
    /// // Empty (or decreasing) ranges restrict to the empty vector.
    /// assert!(s.restrict_slices(3..1).is_empty());
    /// ```
    pub fn restrict_slices(&self, slices: std::ops::Range<u32>) -> SlicedBitVector {
        let wps = self.slice_size.words_per_slice();
        let lo = self.indices.partition_point(|&k| k < slices.start);
        let hi = self.indices.partition_point(|&k| k < slices.end).max(lo);
        SlicedBitVector {
            slice_size: self.slice_size,
            len_bits: self.len_bits,
            indices: self.indices[lo..hi].to_vec(),
            data: self.data[lo * wps..hi * wps].to_vec(),
        }
    }

    /// Number of valid slices whose index falls in `slices`, without
    /// materialising the restriction (sizing pass of boundary
    /// extraction). Empty and decreasing ranges count zero.
    pub fn valid_slices_in(&self, slices: std::ops::Range<u32>) -> usize {
        let lo = self.indices.partition_point(|&k| k < slices.start);
        self.indices.partition_point(|&k| k < slices.end).saturating_sub(lo)
    }

    /// Resolves `bit` into its `(slice index, word-within-slice, mask)`
    /// coordinates, bounds-checked.
    fn locate(&self, bit: usize) -> Result<(u32, usize, u64)> {
        if bit >= self.len_bits {
            return Err(BitMatrixError::IndexOutOfBounds { index: bit, len: self.len_bits });
        }
        let bits = self.slice_size.bits() as usize;
        let within = bit % bits;
        Ok(((bit / bits) as u32, within / 64, 1u64 << (within % 64)))
    }

    /// Decompresses back to a dense [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        let mut v = BitVec::new(self.len_bits);
        let bits = self.slice_size.bits() as usize;
        for s in self.valid_slices() {
            let base = s.index as usize * bits;
            for (w, &word) in s.words.iter().enumerate() {
                let mut rem = word;
                while rem != 0 {
                    let tz = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let bit = base + w * 64 + tz;
                    if bit < self.len_bits {
                        v.set(bit);
                    }
                }
            }
        }
        v
    }
}

impl fmt::Debug for SlicedBitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlicedBitVector(|S|={}, len={}, valid={}/{})",
            self.slice_size,
            self.len_bits,
            self.valid_slice_count(),
            self.total_slices()
        )
    }
}

/// Iterator over matching valid slice pairs, created by
/// [`SlicedBitVector::matching_slices`].
#[derive(Debug, Clone)]
pub struct MatchingSlices<'a> {
    left: &'a SlicedBitVector,
    right: &'a SlicedBitVector,
    li: usize,
    ri: usize,
}

impl<'a> Iterator for MatchingSlices<'a> {
    /// `(slice index, left payload, right payload)`.
    type Item = (u32, &'a [u64], &'a [u64]);

    fn next(&mut self) -> Option<Self::Item> {
        let wps = self.left.slice_size.words_per_slice();
        while self.li < self.left.indices.len() && self.ri < self.right.indices.len() {
            let l = self.left.indices[self.li];
            let r = self.right.indices[self.ri];
            match l.cmp(&r) {
                std::cmp::Ordering::Less => self.li += 1,
                std::cmp::Ordering::Greater => self.ri += 1,
                std::cmp::Ordering::Equal => {
                    let a = &self.left.data[self.li * wps..(self.li + 1) * wps];
                    let b = &self.right.data[self.ri * wps..(self.ri + 1) * wps];
                    self.li += 1;
                    self.ri += 1;
                    return Some((l, a, b));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sliced(len: usize, ones: &[usize], s: SliceSize) -> SlicedBitVector {
        SlicedBitVector::from_bitvec(&BitVec::from_indices(len, ones.iter().copied()), s)
    }

    #[test]
    fn roundtrip_all_slice_sizes() {
        let ones = [0usize, 3, 17, 64, 100, 255, 256, 511];
        for s in SliceSize::ALL {
            let v = BitVec::from_indices(512, ones.iter().copied());
            let c = SlicedBitVector::from_bitvec(&v, s);
            assert_eq!(c.to_bitvec(), v, "slice size {s}");
            assert_eq!(c.count_ones(), ones.len() as u64, "slice size {s}");
        }
    }

    #[test]
    fn from_sorted_indices_matches_from_bitvec() {
        let ones = [1usize, 62, 63, 64, 127, 200, 201, 450];
        for s in SliceSize::ALL {
            let a = sliced(451, &ones, s);
            let b = SlicedBitVector::from_sorted_indices(451, ones.iter().copied(), s);
            assert_eq!(a, b, "slice size {s}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_unsorted_indices_panics() {
        SlicedBitVector::from_sorted_indices(100, [5usize, 3], SliceSize::S64);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_indices_rejects_a_repeated_index() {
        SlicedBitVector::from_sorted_indices(100, [5usize, 5], SliceSize::S16);
    }

    #[test]
    #[should_panic(expected = "set bit 100 out of bounds for 100")]
    fn from_sorted_indices_rejects_an_index_out_of_bounds() {
        SlicedBitVector::from_sorted_indices(100, [3usize, 100], SliceSize::S512);
    }

    #[test]
    fn fig3_style_valid_slices() {
        // Mirror of the paper's Fig. 3: row valid in slices {0, 3, 5},
        // column valid in slices {2, 3, 5} with |S| = 4 … we use |S| = 16.
        let bits = 16;
        let row = sliced(96, &[2, 3 * bits + 1, 5 * bits + 2], SliceSize::S16);
        let col = sliced(96, &[2 * bits, 3 * bits + 1, 5 * bits + 3], SliceSize::S16);
        let row_valid: Vec<u32> = row.valid_slices().map(|s| s.index).collect();
        let col_valid: Vec<u32> = col.valid_slices().map(|s| s.index).collect();
        assert_eq!(row_valid, vec![0, 3, 5]);
        assert_eq!(col_valid, vec![2, 3, 5]);
        // Only the {3, 5} pairs match.
        let pairs: Vec<u32> = row.matching_slices(&col).unwrap().map(|(k, _, _)| k).collect();
        assert_eq!(pairs, vec![3, 5]);
        // One common bit (3·16+1); the slice-5 pair ANDs to zero.
        assert_eq!(row.and_popcount(&col), 1);
    }

    #[test]
    fn and_popcount_matches_dense() {
        let a_ones: Vec<usize> = (0..700).step_by(3).collect();
        let b_ones: Vec<usize> = (0..700).step_by(5).collect();
        let da = BitVec::from_indices(700, a_ones.iter().copied());
        let db = BitVec::from_indices(700, b_ones.iter().copied());
        let expected = da.and_popcount(&db).unwrap();
        for s in SliceSize::ALL {
            let ca = SlicedBitVector::from_bitvec(&da, s);
            let cb = SlicedBitVector::from_bitvec(&db, s);
            assert_eq!(ca.and_popcount(&cb), expected, "slice size {s}");
            assert_eq!(
                ca.and_popcount_with(&cb, PopcountMethod::Lut8),
                expected,
                "LUT, slice size {s}"
            );
        }
    }

    #[test]
    fn compressed_bytes_formula() {
        // 3 valid 64-bit slices → 3 × (8 + 4) = 36 bytes.
        let v = sliced(64 * 10, &[0, 64 * 4 + 7, 64 * 9 + 63], SliceSize::S64);
        assert_eq!(v.valid_slice_count(), 3);
        assert_eq!(v.compressed_bytes(), 36);
    }

    #[test]
    fn empty_vector_has_no_valid_slices() {
        let v = sliced(1000, &[], SliceSize::S64);
        assert!(v.is_empty());
        assert_eq!(v.valid_slice_count(), 0);
        assert_eq!(v.compressed_bytes(), 0);
        assert_eq!(v.valid_fraction(), 0.0);
        assert_eq!(v.to_bitvec(), BitVec::new(1000));
    }

    #[test]
    fn dense_vector_is_fully_valid() {
        let ones: Vec<usize> = (0..256).collect();
        let v = sliced(256, &ones, SliceSize::S64);
        assert_eq!(v.valid_fraction(), 1.0);
        assert_eq!(v.valid_slice_count(), 4);
    }

    #[test]
    fn mismatched_slice_size_is_error() {
        let a = sliced(128, &[0], SliceSize::S64);
        let b = sliced(128, &[0], SliceSize::S32);
        assert!(matches!(
            a.matching_slices(&b),
            Err(BitMatrixError::SliceSizeMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_length_is_error() {
        let a = sliced(128, &[0], SliceSize::S64);
        let b = sliced(129, &[0], SliceSize::S64);
        assert!(matches!(a.matching_slices(&b), Err(BitMatrixError::LengthMismatch { .. })));
    }

    #[test]
    fn set_bit_inserts_and_clear_bit_drops_valid_slices() {
        for s in SliceSize::ALL {
            let mut v = sliced(600, &[], s);
            assert!(v.set_bit(70).unwrap());
            assert!(v.set_bit(71).unwrap());
            assert!(!v.set_bit(70).unwrap(), "already set, slice size {s}");
            assert_eq!(v, sliced(600, &[70, 71], s), "slice size {s}");

            assert!(v.clear_bit(70).unwrap());
            assert!(!v.clear_bit(70).unwrap(), "already clear, slice size {s}");
            assert!(!v.clear_bit(599).unwrap(), "never set, slice size {s}");
            assert_eq!(v, sliced(600, &[71], s), "slice size {s}");

            // Emptying the last slice restores the canonical empty form.
            assert!(v.clear_bit(71).unwrap());
            assert_eq!(v, sliced(600, &[], s), "slice size {s}");
            assert!(v.is_empty());
        }
    }

    #[test]
    fn random_mutation_sequence_matches_rebuild() {
        // Deterministic pseudo-random set/clear churn; after every step the
        // mutated vector must equal a fresh compression of the dense truth.
        let len = 900usize;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for s in [SliceSize::S16, SliceSize::S64, SliceSize::S256] {
            let mut dense = BitVec::new(len);
            let mut v = SlicedBitVector::from_bitvec(&dense, s);
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bit = (x >> 11) as usize % len;
                if x & 1 == 0 {
                    let newly = v.set_bit(bit).unwrap();
                    assert_eq!(newly, !dense.get(bit));
                    dense.set(bit);
                } else {
                    let was = v.clear_bit(bit).unwrap();
                    assert_eq!(was, dense.get(bit));
                    dense.clear(bit);
                }
            }
            assert_eq!(v, SlicedBitVector::from_bitvec(&dense, s), "slice size {s}");
            assert_eq!(v.count_ones(), dense.count_ones(), "slice size {s}");
        }
    }

    #[test]
    fn mutation_out_of_bounds_is_error() {
        let mut v = sliced(100, &[3], SliceSize::S64);
        assert!(matches!(
            v.set_bit(100),
            Err(BitMatrixError::IndexOutOfBounds { index: 100, len: 100 })
        ));
        assert!(matches!(v.clear_bit(512), Err(BitMatrixError::IndexOutOfBounds { .. })));
        // The failed mutations left the vector untouched.
        assert_eq!(v, sliced(100, &[3], SliceSize::S64));
    }

    #[test]
    fn restrict_slices_partitions_valid_slices_exactly() {
        let ones = [1usize, 62, 64, 127, 200, 450, 700];
        for s in SliceSize::ALL {
            let v = sliced(701, &ones, s);
            let total = v.total_slices() as u32;
            // Any split point partitions ones and valid slices exactly.
            for cut in [0u32, 1, total / 2, total] {
                let head = v.restrict_slices(0..cut);
                let tail = v.restrict_slices(cut..total);
                assert_eq!(
                    head.count_ones() + tail.count_ones(),
                    v.count_ones(),
                    "cut {cut}, slice size {s}"
                );
                assert_eq!(
                    head.valid_slice_count() + tail.valid_slice_count(),
                    v.valid_slice_count(),
                    "cut {cut}, slice size {s}"
                );
                assert_eq!(head.valid_slices_in(0..cut), head.valid_slice_count());
                assert_eq!(v.valid_slices_in(0..cut), head.valid_slice_count());
                // Restrictions stay canonical: re-compressing the dense
                // form of the restriction reproduces it.
                let dense = head.to_bitvec();
                assert_eq!(SlicedBitVector::from_bitvec(&dense, s), head, "slice size {s}");
            }
        }
    }

    #[test]
    fn disjoint_restrictions_and_popcount_independently() {
        // The sharded composition invariant: AND over disjoint slice
        // ranges sums to the AND over the whole vector.
        let a = sliced(640, &(0..640).step_by(3).collect::<Vec<_>>(), SliceSize::S64);
        let b = sliced(640, &(0..640).step_by(5).collect::<Vec<_>>(), SliceSize::S64);
        let full = a.and_popcount(&b);
        let cut = 4u32;
        let split = a.restrict_slices(0..cut).and_popcount(&b.restrict_slices(0..cut))
            + a.restrict_slices(cut..10).and_popcount(&b.restrict_slices(cut..10));
        assert_eq!(split, full);
        // Restricting only one operand also works: matching pairs only
        // exist where both operands hold valid slices.
        let one_sided = a.restrict_slices(0..cut).and_popcount(&b)
            + a.restrict_slices(cut..10).and_popcount(&b);
        assert_eq!(one_sided, full);
    }

    #[test]
    fn restrict_slices_of_empty_range_is_empty() {
        let v = sliced(256, &[0, 70, 200], SliceSize::S64);
        assert!(v.restrict_slices(2..2).is_empty());
        assert_eq!(v.restrict_slices(99..120).valid_slice_count(), 0);
        assert_eq!(v.valid_slices_in(99..120), 0);
    }

    #[test]
    fn wide_slices_pad_trailing_partial_slice() {
        // 100 bits with |S| = 512: one partial slice padded to 8 words.
        let v = sliced(100, &[99], SliceSize::S512);
        assert_eq!(v.valid_slice_count(), 1);
        let s = v.valid_slices().next().unwrap();
        assert_eq!(s.words.len(), 8);
        assert_eq!(v.to_bitvec(), BitVec::from_indices(100, [99]));
    }
}
