//! A growable bit vector backed by `u64` words.

use std::fmt;

use crate::error::{BitMatrixError, Result};
use crate::popcount::{popcount_words, PopcountMethod};

const WORD_BITS: usize = 64;

/// A fixed-length vector of bits stored in little-endian `u64` words.
///
/// `BitVec` is the uncompressed representation of one row or column of an
/// adjacency matrix. Bit `i` lives in word `i / 64` at position `i % 64`.
/// All bits beyond `len` are kept at zero (an internal invariant every
/// mutating method maintains), so whole-word operations such as
/// [`BitVec::count_ones`] need no masking.
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::BitVec;
///
/// let mut v = BitVec::new(8);
/// v.set(1);
/// v.set(2);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(1));
/// assert!(!v.get(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a zeroed bit vector of `len` bits.
    pub fn new(len: usize) -> Self {
        BitVec { words: vec![0; len.div_ceil(WORD_BITS)], len }
    }

    /// Creates a bit vector of `len` bits with the given indices set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices<I>(len: usize, indices: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut v = BitVec::new(len);
        for i in indices {
            v.set(i);
        }
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, little-endian, trailing bits zeroed.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`. Use [`BitVec::try_get`] for a fallible
    /// variant.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of bounds");
        self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Reads bit `index`, returning an error when out of bounds.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] if `index >= len`.
    pub fn try_get(&self, index: usize) -> Result<bool> {
        if index < self.len {
            Ok(self.get(index))
        } else {
            Err(BitMatrixError::IndexOutOfBounds { index, len: self.len })
        }
    }

    /// Sets bit `index` to one.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        assert!(index < self.len, "bit index {index} out of bounds");
        self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
    }

    /// Clears bit `index` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "bit index {index} out of bounds");
        self.words[index / WORD_BITS] &= !(1u64 << (index % WORD_BITS));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        popcount_words(&self.words, PopcountMethod::Native)
    }

    /// `popcount(self AND other)` without materialising the intermediate
    /// vector — the software analogue of the TCIM kernel.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::LengthMismatch`] when lengths differ.
    pub fn and_popcount(&self, other: &BitVec) -> Result<u64> {
        if self.len != other.len {
            return Err(BitMatrixError::LengthMismatch { left: self.len, right: other.len });
        }
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| u64::from((a & b).count_ones()))
            .sum())
    }

    /// Element-wise AND, producing a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::LengthMismatch`] when lengths differ.
    pub fn and(&self, other: &BitVec) -> Result<BitVec> {
        if self.len != other.len {
            return Err(BitMatrixError::LengthMismatch { left: self.len, right: other.len });
        }
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a & b).collect();
        Ok(BitVec { words, len: self.len })
    }

    /// Element-wise OR, producing a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::LengthMismatch`] when lengths differ.
    pub fn or(&self, other: &BitVec) -> Result<BitVec> {
        if self.len != other.len {
            return Err(BitMatrixError::LengthMismatch { left: self.len, right: other.len });
        }
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a | b).collect();
        Ok(BitVec { words, len: self.len })
    }

    /// Iterates over the indices of set bits in ascending order.
    ///
    /// # Example
    ///
    /// ```
    /// use tcim_bitmatrix::BitVec;
    ///
    /// let v = BitVec::from_indices(100, [3, 65, 99]);
    /// let ones: Vec<usize> = v.iter_ones().collect();
    /// assert_eq!(ones, vec![3, 65, 99]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones=[", self.len)?;
        for (n, i) in self.iter_ones().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            if n >= 16 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{i}")?;
        }
        write!(f, "])")
    }
}

impl fmt::Binary for BitVec {
    /// Formats the vector MSB-last (bit 0 printed first), matching the
    /// row-vector notation used in the paper's Fig. 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut v = BitVec::new(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if *b {
                v.set(i);
            }
        }
        v
    }
}

/// Iterator over set-bit indices, created by [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.is_empty());
        assert!(BitVec::new(0).is_empty());
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            assert!(!v.get(i));
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 6);
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitVec::new(8).get(8);
    }

    #[test]
    fn try_get_reports_error() {
        let v = BitVec::new(8);
        assert_eq!(v.try_get(9), Err(BitMatrixError::IndexOutOfBounds { index: 9, len: 8 }));
        assert_eq!(v.try_get(7), Ok(false));
    }

    #[test]
    fn and_popcount_matches_materialised_and() {
        let a = BitVec::from_indices(300, [0, 5, 70, 150, 299]);
        let b = BitVec::from_indices(300, [5, 70, 151, 299]);
        let anded = a.and(&b).unwrap();
        assert_eq!(a.and_popcount(&b).unwrap(), anded.count_ones());
        assert_eq!(a.and_popcount(&b).unwrap(), 3);
    }

    #[test]
    fn or_unions_bits() {
        let a = BitVec::from_indices(70, [1, 65]);
        let b = BitVec::from_indices(70, [2, 65]);
        let o = a.or(&b).unwrap();
        assert_eq!(o.iter_ones().collect::<Vec<_>>(), vec![1, 2, 65]);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let a = BitVec::new(64);
        let b = BitVec::new(65);
        assert!(matches!(
            a.and_popcount(&b),
            Err(BitMatrixError::LengthMismatch { left: 64, right: 65 })
        ));
        assert!(a.and(&b).is_err());
        assert!(a.or(&b).is_err());
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let idx = vec![0, 1, 63, 64, 65, 191, 192];
        let v = BitVec::from_indices(193, idx.clone());
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn from_iterator_of_bools() {
        let v: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn binary_format_matches_paper_notation() {
        // Row R0 of the paper's Fig. 2 example: 0110.
        let v = BitVec::from_indices(4, [1, 2]);
        assert_eq!(format!("{v:b}"), "0110");
    }

    #[test]
    fn debug_is_never_empty() {
        let v = BitVec::new(0);
        assert!(!format!("{v:?}").is_empty());
    }
}
