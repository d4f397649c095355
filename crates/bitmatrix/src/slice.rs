//! The `|S|` slice-size parameter of the paper's data-slicing scheme.

use std::fmt;

use crate::error::{BitMatrixError, Result};

/// Size of one slice in bits (the paper's `|S|`, fixed to 64 in §IV-B).
///
/// Every row and column of the adjacency matrix is partitioned into
/// `⌈|V| / |S|⌉` slices; a slice is *valid* iff it contains at least one set
/// bit, and only valid slices are stored or computed on. The paper evaluates
/// with `|S| = 64`; the other variants exist for the slice-size ablation
/// (`tcim_core::ablations::slice_size_ablation`).
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::SliceSize;
///
/// let s = SliceSize::S64;
/// assert_eq!(s.bits(), 64);
/// assert_eq!(s.slices_for(100), 2);   // ⌈100 / 64⌉
/// assert_eq!(s.index_bytes(), 4);     // a u32 slice index
/// assert_eq!(s.data_bytes(), 8);      // 64 bits of payload
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[non_exhaustive]
pub enum SliceSize {
    /// 16-bit slices.
    S16,
    /// 32-bit slices.
    S32,
    /// 64-bit slices — the paper's configuration.
    #[default]
    S64,
    /// 128-bit slices.
    S128,
    /// 256-bit slices.
    S256,
    /// 512-bit slices.
    S512,
}

/// Words of the widest slice ([`SliceSize::S512`]): the length of the
/// stack buffers the pair walks decode and AND into.
pub(crate) const MAX_WORDS_PER_SLICE: usize = 8;

impl SliceSize {
    /// All supported sizes in ascending order (useful for sweeps).
    pub const ALL: [SliceSize; 6] = [
        SliceSize::S16,
        SliceSize::S32,
        SliceSize::S64,
        SliceSize::S128,
        SliceSize::S256,
        SliceSize::S512,
    ];

    /// Builds a slice size from a bit count.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::InvalidSliceSize`] for anything other than
    /// 16, 32, 64, 128, 256 or 512.
    pub fn from_bits(bits: u32) -> Result<Self> {
        match bits {
            16 => Ok(SliceSize::S16),
            32 => Ok(SliceSize::S32),
            64 => Ok(SliceSize::S64),
            128 => Ok(SliceSize::S128),
            256 => Ok(SliceSize::S256),
            512 => Ok(SliceSize::S512),
            _ => Err(BitMatrixError::InvalidSliceSize { bits }),
        }
    }

    /// The slice width in bits.
    pub fn bits(self) -> u32 {
        match self {
            SliceSize::S16 => 16,
            SliceSize::S32 => 32,
            SliceSize::S64 => 64,
            SliceSize::S128 => 128,
            SliceSize::S256 => 256,
            SliceSize::S512 => 512,
        }
    }

    /// Number of backing `u64` words one slice occupies (1 for ≤ 64 bits).
    pub fn words_per_slice(self) -> usize {
        (self.bits() as usize).div_ceil(64)
    }

    /// Number of slices needed to cover a vector of `len` bits
    /// (the paper's `⌈|V| / |S|⌉`).
    pub fn slices_for(self, len: usize) -> usize {
        len.div_ceil(self.bits() as usize)
    }

    /// Bytes used to store one valid-slice index. The paper uses "an integer
    /// (four Bytes)".
    pub fn index_bytes(self) -> usize {
        4
    }

    /// Bytes used to store one slice's payload (`|S| / 8`).
    pub fn data_bytes(self) -> usize {
        self.bits() as usize / 8
    }

    /// Bytes per stored valid slice: `|S|/8 + 4` per the paper's
    /// memory-requirement analysis in §IV-B.
    pub fn bytes_per_valid_slice(self) -> usize {
        self.data_bytes() + self.index_bytes()
    }
}

impl fmt::Display for SliceSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        assert_eq!(SliceSize::default(), SliceSize::S64);
        assert_eq!(SliceSize::default().bits(), 64);
    }

    #[test]
    fn from_bits_roundtrips() {
        for s in SliceSize::ALL {
            assert_eq!(SliceSize::from_bits(s.bits()).unwrap(), s);
        }
    }

    #[test]
    fn from_bits_rejects_odd_sizes() {
        for bits in [0, 1, 8, 24, 63, 65, 1024] {
            assert_eq!(
                SliceSize::from_bits(bits),
                Err(BitMatrixError::InvalidSliceSize { bits })
            );
        }
    }

    #[test]
    fn paper_byte_accounting() {
        // |S| = 64 → 8 bytes data + 4 bytes index = 12 bytes per valid slice.
        let s = SliceSize::S64;
        assert_eq!(s.bytes_per_valid_slice(), 12);
        assert_eq!(SliceSize::S16.bytes_per_valid_slice(), 6);
        assert_eq!(SliceSize::S512.bytes_per_valid_slice(), 68);
    }

    #[test]
    fn words_per_slice_geometry() {
        assert_eq!(SliceSize::S16.words_per_slice(), 1);
        assert_eq!(SliceSize::S64.words_per_slice(), 1);
        assert_eq!(SliceSize::S128.words_per_slice(), 2);
        assert_eq!(SliceSize::S512.words_per_slice(), 8);
        let widest = SliceSize::ALL.iter().map(|s| s.words_per_slice()).max();
        assert_eq!(widest, Some(MAX_WORDS_PER_SLICE));
    }

    #[test]
    fn slices_for_rounds_up() {
        assert_eq!(SliceSize::S64.slices_for(0), 0);
        assert_eq!(SliceSize::S64.slices_for(1), 1);
        assert_eq!(SliceSize::S64.slices_for(64), 1);
        assert_eq!(SliceSize::S64.slices_for(65), 2);
        assert_eq!(SliceSize::S16.slices_for(64), 4);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SliceSize::S64.to_string(), "64b");
    }
}
