//! Hierarchical sparse row encoding: a summary-bitmask level over packed
//! non-empty payload bytes.
//!
//! The dense [`SlicedBitVector`](crate::SlicedBitVector) stores one
//! `(u32 index, |S|-bit payload)` pair per valid slice — a flat, one-level
//! skip structure. On power-law graphs most neighbourhood rows are >99%
//! zero *and* the valid slices themselves are mostly zero bytes, so this
//! module adds two more levels beneath the valid-slice level:
//!
//! ```text
//! top      1 bit per summary group (64 slices)      "any valid slice here?"
//! summary  1 bit per slice, packed non-zero words   "is slice k valid?"
//! masks    1 bit per payload byte, per valid slice  "is byte b non-zero?"
//! blocks   packed non-zero payload bytes            the data itself
//! ```
//!
//! Intersection ANDs the summary levels first and visits only mutually
//! valid slices whose byte masks intersect: `mask(a) & mask(b) == 0`
//! implies `a & b == 0` (every set bit lives in a non-zero byte), so the
//! byte-mask filter is *exact* — it never skips a pair that would have
//! produced triangles — and *monotone* — a sparse walk never visits more
//! pairs than the dense merge-join matches.
//!
//! No rank tables are stored: cursors advance by popcount during the
//! (ascending) walks, trading O(1) random access for the memory win that
//! motivates the encoding in the first place.

use std::fmt;

use crate::bitvec::BitVec;
use crate::error::{BitMatrixError, Result};
use crate::row::PairStats;
use crate::slice::{SliceSize, MAX_WORDS_PER_SLICE};
use crate::sliced::SlicedBitVector;

/// A bit row compressed with the hierarchical sparse encoding:
/// top/summary bitmask levels over per-slice byte masks and packed
/// non-zero payload bytes.
///
/// The represented bit set is identical to the dense encoding's — the
/// two are interconvertible without loss ([`SparseSlicedRow::from_dense`]
/// / [`SparseSlicedRow::to_dense`]) — only the storage layout and the
/// intersection algorithm differ.
///
/// # Example
///
/// ```
/// use tcim_bitmatrix::{BitVec, SliceSize, SlicedBitVector, SparseSlicedRow};
///
/// let v = BitVec::from_indices(4096, [3, 700, 701, 4000]);
/// let dense = SlicedBitVector::from_bitvec(&v, SliceSize::S64);
/// let sparse = SparseSlicedRow::from_dense(&dense);
/// assert_eq!(sparse.count_ones(), 4);
/// assert_eq!(sparse.valid_slice_count(), dense.valid_slice_count());
/// assert_eq!(sparse.to_dense(), dense);
/// // 3 valid slices with 1 non-zero byte each beat NVS x (8 + 4).
/// assert!(sparse.compressed_bytes() < dense.compressed_bytes());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SparseSlicedRow {
    slice_size: SliceSize,
    len_bits: usize,
    /// Bit `g` set ⇔ summary group `g` (slices `64g..64g+64`) holds at
    /// least one valid slice. Fixed size `⌈⌈total_slices/64⌉/64⌉` words.
    top: Vec<u64>,
    /// Packed non-zero summary words, ascending group order; bit
    /// `k mod 64` of group `k / 64`'s word ⇔ slice `k` is valid.
    summary: Vec<u64>,
    /// One byte mask per valid slice (`words_per_slice` bytes each,
    /// ascending slice order): bit `b` of mask byte `w` ⇔ byte `b` of
    /// payload word `w` is non-zero.
    masks: Vec<u8>,
    /// Packed non-zero payload bytes, in (slice, word, byte) order.
    blocks: Vec<u8>,
}

impl SparseSlicedRow {
    /// Re-encodes a dense sliced vector without changing the bit set.
    pub fn from_dense(dense: &SlicedBitVector) -> Self {
        let mut row = SparseSlicedRow::empty(dense.len_bits(), dense.slice_size());
        for s in dense.valid_slices() {
            row.push_slice(s.index, s.words);
        }
        row
    }

    /// Compresses a [`BitVec`] directly (via the dense form).
    pub fn from_bitvec(v: &BitVec, slice_size: SliceSize) -> Self {
        SparseSlicedRow::from_dense(&SlicedBitVector::from_bitvec(v, slice_size))
    }

    /// Compresses a vector of `len_bits` bits given the ascending indices
    /// of its set bits — the CSR-adjacency path.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly ascending or reach
    /// `len_bits`.
    pub fn from_sorted_indices<I>(len_bits: usize, set_bits: I, slice_size: SliceSize) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let bits = slice_size.bits() as usize;
        let wps = slice_size.words_per_slice();
        let mut row = SparseSlicedRow::empty(len_bits, slice_size);
        // The slice being filled and its payload.
        let mut open: Option<usize> = None;
        let mut words = [0u64; MAX_WORDS_PER_SLICE];
        let mut last: Option<usize> = None;
        for b in set_bits {
            assert!(b < len_bits, "set bit {b} out of bounds for {len_bits}");
            if let Some(prev) = last {
                assert!(b > prev, "set-bit indices must be strictly ascending");
            }
            last = Some(b);
            let slice = b / bits;
            if open != Some(slice) {
                if let Some(k) = open.replace(slice) {
                    row.push_slice(k as u32, &words[..wps]);
                    words = [0; MAX_WORDS_PER_SLICE];
                }
            }
            let within = b % bits;
            words[within / 64] |= 1u64 << (within % 64);
        }
        if let Some(k) = open {
            row.push_slice(k as u32, &words[..wps]);
        }
        row
    }

    /// The all-zero row over `len_bits` bits.
    ///
    /// `top` is kept trimmed to its last non-zero word (so an all-empty
    /// row — the common case in a sparse matrix — costs zero bytes) and
    /// grows on demand.
    pub fn empty(len_bits: usize, slice_size: SliceSize) -> Self {
        SparseSlicedRow {
            slice_size,
            len_bits,
            top: Vec::new(),
            summary: Vec::new(),
            masks: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Appends slice `k` (must exceed every stored index) with payload
    /// `words`; zero payloads are ignored.
    fn push_slice(&mut self, k: u32, words: &[u64]) {
        if words.iter().all(|&w| w == 0) {
            return;
        }
        let g = k as usize / 64;
        if self.top.len() <= g / 64 {
            self.top.resize(g / 64 + 1, 0);
        }
        if self.top[g / 64] & (1u64 << (g % 64)) == 0 {
            self.top[g / 64] |= 1u64 << (g % 64);
            self.summary.push(0);
        }
        *self.summary.last_mut().expect("group word was just ensured") |= 1u64 << (k % 64);
        for &word in words {
            let mut mask = 0u8;
            for b in 0..8 {
                let byte = (word >> (8 * b)) as u8;
                if byte != 0 {
                    mask |= 1 << b;
                    self.blocks.push(byte);
                }
            }
            self.masks.push(mask);
        }
    }

    /// The slice size this row was compressed with.
    pub fn slice_size(&self) -> SliceSize {
        self.slice_size
    }

    /// Length of the uncompressed vector in bits.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Returns `true` when no slice is valid (the all-zero vector).
    pub fn is_empty(&self) -> bool {
        self.summary.is_empty()
    }

    /// Number of valid slices — identical to the dense encoding's `NVS`
    /// contribution for the same bit set.
    pub fn valid_slice_count(&self) -> usize {
        self.masks.len() / self.slice_size.words_per_slice()
    }

    /// Number of slices the uncompressed vector would occupy.
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

    /// Bytes of the compressed representation, counting every level of
    /// the hierarchy: top words + packed summary words + per-slice byte
    /// masks + packed payload bytes. The sparse analogue of the dense
    /// `NVS × (|S|/8 + 4)` accounting.
    pub fn compressed_bytes(&self) -> usize {
        8 * self.top.len() + 8 * self.summary.len() + self.masks.len() + self.blocks.len()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// Decodes every valid slice in ascending index order into `f`.
    pub(crate) fn for_each_valid_slice(&self, mut f: impl FnMut(u32, &[u64])) {
        let wps = self.slice_size.words_per_slice();
        let mut scratch = vec![0u64; wps];
        let mut spos = 0usize; // packed summary cursor
        let mut ord = 0usize; // valid-slice ordinal
        let mut boff = 0usize; // blocks cursor
        for (ti, &tw) in self.top.iter().enumerate() {
            let mut trem = tw;
            while trem != 0 {
                let g = ti * 64 + trem.trailing_zeros() as usize;
                trem &= trem - 1;
                let gw = self.summary[spos];
                spos += 1;
                let mut grem = gw;
                while grem != 0 {
                    let k = g * 64 + grem.trailing_zeros() as usize;
                    grem &= grem - 1;
                    scratch.fill(0);
                    for (w, word) in scratch.iter_mut().enumerate() {
                        let mut mrem = self.masks[ord * wps + w];
                        while mrem != 0 {
                            let b = mrem.trailing_zeros();
                            mrem &= mrem - 1;
                            *word |= u64::from(self.blocks[boff]) << (8 * b);
                            boff += 1;
                        }
                    }
                    f(k as u32, &scratch);
                    ord += 1;
                }
            }
        }
    }

    /// Decompresses back into the dense sliced encoding.
    pub fn to_dense(&self) -> SlicedBitVector {
        let wps = self.slice_size.words_per_slice();
        let mut indices = Vec::with_capacity(self.valid_slice_count());
        let mut data = Vec::with_capacity(self.valid_slice_count() * wps);
        self.for_each_valid_slice(|k, words| {
            indices.push(k);
            data.extend_from_slice(words);
        });
        SlicedBitVector::from_parts(self.slice_size, self.len_bits, indices, data)
    }

    /// Decompresses back to a dense [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        self.to_dense().to_bitvec()
    }

    /// Extracts the valid slices whose index falls in `slices`,
    /// preserving length and slice size — the sparse twin of
    /// [`SlicedBitVector::restrict_slices`].
    pub fn restrict_slices(&self, slices: std::ops::Range<u32>) -> SparseSlicedRow {
        let mut out = SparseSlicedRow::empty(self.len_bits, self.slice_size);
        self.for_each_valid_slice(|k, words| {
            if k >= slices.start && k < slices.end {
                out.push_slice(k, words);
            }
        });
        out
    }

    /// Number of valid slices whose index falls in `slices`.
    pub fn valid_slices_in(&self, slices: std::ops::Range<u32>) -> usize {
        let mut count = 0usize;
        let mut spos = 0usize;
        for (ti, &tw) in self.top.iter().enumerate() {
            let mut trem = tw;
            while trem != 0 {
                let g = ti * 64 + trem.trailing_zeros() as usize;
                trem &= trem - 1;
                let gw = self.summary[spos];
                spos += 1;
                let mut grem = gw;
                while grem != 0 {
                    let k = (g * 64 + grem.trailing_zeros() as usize) as u32;
                    grem &= grem - 1;
                    if k >= slices.start && k < slices.end {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Resolves `bit` into `(slice, word, byte-in-word, bit-in-byte)`.
    fn locate(&self, bit: usize) -> Result<(usize, usize, u32, u32)> {
        if bit >= self.len_bits {
            return Err(BitMatrixError::IndexOutOfBounds { index: bit, len: self.len_bits });
        }
        let bits = self.slice_size.bits() as usize;
        let within = bit % bits;
        Ok((bit / bits, within / 64, ((within % 64) / 8) as u32, (within % 8) as u32))
    }

    /// Position of group `g`'s word in the packed `summary` array, or
    /// `Err(insertion point)` when the group is absent.
    fn summary_pos(&self, g: usize) -> std::result::Result<usize, usize> {
        if g / 64 >= self.top.len() {
            return Err(self.summary.len());
        }
        let below: usize = self.top[..g / 64].iter().map(|w| w.count_ones() as usize).sum();
        let pos = below + (self.top[g / 64] & ((1u64 << (g % 64)) - 1)).count_ones() as usize;
        if self.top[g / 64] & (1u64 << (g % 64)) != 0 {
            Ok(pos)
        } else {
            Err(pos)
        }
    }

    /// Ordinal of slice `k` among valid slices given its group's packed
    /// summary position (slice need not itself be valid).
    fn slice_ordinal(&self, spos: usize, k: usize) -> usize {
        let before: usize = self.summary[..spos].iter().map(|w| w.count_ones() as usize).sum();
        before + (self.summary[spos] & ((1u64 << (k % 64)) - 1)).count_ones() as usize
    }

    /// Offset into `blocks` of byte `byte_in_word` of the payload word
    /// whose mask is `masks[mask_idx]`, set or not: the set mask bits
    /// before it.
    fn byte_offset(&self, mask_idx: usize, byte_in_word: u32) -> usize {
        mask_ones(&self.masks[..mask_idx])
            + (self.masks[mask_idx] & ((1u8 << byte_in_word) - 1)).count_ones() as usize
    }

    /// Sets bit `bit` in place, maintaining every level of the hierarchy
    /// (summary insert, mask-bit insert, block-byte insert). Returns
    /// `true` when the bit was newly set.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn set_bit(&mut self, bit: usize) -> Result<bool> {
        let (k, w, byte_in_word, bit_in_byte) = self.locate(bit)?;
        let wps = self.slice_size.words_per_slice();
        let g = k / 64;
        let spos = match self.summary_pos(g) {
            Ok(spos) => spos,
            Err(ins) => {
                if self.top.len() <= g / 64 {
                    self.top.resize(g / 64 + 1, 0);
                }
                self.top[g / 64] |= 1u64 << (g % 64);
                self.summary.insert(ins, 0);
                ins
            }
        };
        let ord = self.slice_ordinal(spos, k);
        if self.summary[spos] & (1u64 << (k % 64)) == 0 {
            // Freshly valid slice: zeroed masks, summary bit.
            self.summary[spos] |= 1u64 << (k % 64);
            self.masks.splice(ord * wps..ord * wps, std::iter::repeat_n(0u8, wps));
        }
        let mask_idx = ord * wps + w;
        let boff = self.byte_offset(mask_idx, byte_in_word);
        if self.masks[mask_idx] & (1 << byte_in_word) != 0 {
            let byte = &mut self.blocks[boff];
            let was_set = *byte & (1 << bit_in_byte) != 0;
            *byte |= 1 << bit_in_byte;
            Ok(!was_set)
        } else {
            self.masks[mask_idx] |= 1 << byte_in_word;
            self.blocks.insert(boff, 1 << bit_in_byte);
            Ok(true)
        }
    }

    /// Clears bit `bit` in place, dropping empty bytes, slices, summary
    /// words and top bits as they zero out — a mutated row stays
    /// canonical and compares equal to a from-scratch compression of the
    /// same bits. Returns `true` when the bit was previously set.
    ///
    /// # Errors
    ///
    /// Returns [`BitMatrixError::IndexOutOfBounds`] when `bit` is at or
    /// beyond the vector length.
    pub fn clear_bit(&mut self, bit: usize) -> Result<bool> {
        let (k, w, byte_in_word, bit_in_byte) = self.locate(bit)?;
        let wps = self.slice_size.words_per_slice();
        let g = k / 64;
        let Ok(spos) = self.summary_pos(g) else {
            return Ok(false);
        };
        if self.summary[spos] & (1u64 << (k % 64)) == 0 {
            return Ok(false);
        }
        let ord = self.slice_ordinal(spos, k);
        let mask_idx = ord * wps + w;
        if self.masks[mask_idx] & (1 << byte_in_word) == 0 {
            return Ok(false);
        }
        let boff = self.byte_offset(mask_idx, byte_in_word);
        if self.blocks[boff] & (1 << bit_in_byte) == 0 {
            return Ok(false);
        }
        self.blocks[boff] &= !(1 << bit_in_byte);
        if self.blocks[boff] == 0 {
            self.blocks.remove(boff);
            self.masks[mask_idx] &= !(1 << byte_in_word);
            if self.masks[ord * wps..(ord + 1) * wps].iter().all(|&m| m == 0) {
                self.masks.drain(ord * wps..(ord + 1) * wps);
                self.summary[spos] &= !(1u64 << (k % 64));
                if self.summary[spos] == 0 {
                    self.summary.remove(spos);
                    self.top[g / 64] &= !(1u64 << (g % 64));
                    while self.top.last() == Some(&0) {
                        self.top.pop();
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Set bits across `masks`, eight mask bytes per `u64::count_ones`: the
/// number of packed payload bytes the masks stand for.
fn mask_ones(masks: &[u8]) -> usize {
    let mut chunks = masks.chunks_exact(8);
    let mut ones = 0usize;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks of eight bytes"));
        ones += word.count_ones() as usize;
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    ones + u64::from_le_bytes(tail).count_ones() as usize
}

/// Per-row forward cursor over the packed hierarchy, used by the
/// two-level matching walk. Groups are consumed in ascending order;
/// `base_rank` tracks the valid-slice ordinal at the current group and
/// `(mask_ord, block_off)` lag behind, advancing only to slices the walk
/// actually reads.
struct Walk<'a> {
    row: &'a SparseSlicedRow,
    ti: usize,
    trem: u64,
    spos: usize,
    /// Valid slices in groups fully consumed before the current one.
    base_rank: usize,
    /// Pending rank adjustment: popcount of the group word most recently
    /// handed out, folded into `base_rank` on the next advance.
    pending: usize,
    mask_ord: usize,
    block_off: usize,
}

impl<'a> Walk<'a> {
    fn new(row: &'a SparseSlicedRow) -> Self {
        Walk {
            row,
            ti: 0,
            trem: row.top.first().copied().unwrap_or(0),
            spos: 0,
            base_rank: 0,
            pending: 0,
            mask_ord: 0,
            block_off: 0,
        }
    }

    /// The next `(group index, summary word)` in ascending order.
    fn next_group(&mut self) -> Option<(usize, u64)> {
        self.base_rank += self.pending;
        self.pending = 0;
        loop {
            if self.trem != 0 {
                let g = self.ti * 64 + self.trem.trailing_zeros() as usize;
                self.trem &= self.trem - 1;
                let gw = self.row.summary[self.spos];
                self.spos += 1;
                self.pending = gw.count_ones() as usize;
                return Some((g, gw));
            }
            self.ti += 1;
            if self.ti >= self.row.top.len() {
                return None;
            }
            self.trem = self.row.top[self.ti];
        }
    }

    /// The offset into `blocks` of valid-slice ordinal `ord`'s payload,
    /// advancing the cursors to it (monotone: callers request ascending
    /// ordinals).
    fn block_offset(&mut self, ord: usize) -> usize {
        let wps = self.row.slice_size.words_per_slice();
        self.block_off += mask_ones(&self.row.masks[self.mask_ord * wps..ord * wps]);
        self.mask_ord = ord;
        self.block_off
    }
}

/// The two-level skip-empty intersection of two sparse rows: AND the
/// summary levels, then visit only mutually valid slices whose byte
/// masks intersect. `DECODE` controls whether visited pairs are ANDed
/// into `f` (index-only callers skip the payload work).
///
/// The byte-mask test indexes the masks by rank directly, so the payload
/// cursors advance only to pairs that are ANDed: skipped pairs and
/// index-only walks never count masks. A visited pair reads only the
/// payload bytes set in both masks, the only ones that can survive the
/// AND; a byte's rank within its mask gives its packed offset.
pub(crate) fn walk_matching<const DECODE: bool>(
    a: &SparseSlicedRow,
    b: &SparseSlicedRow,
    mut f: impl FnMut(u32, &[u64]),
) -> PairStats {
    let wps = a.slice_size.words_per_slice();
    let mut buf = [0u64; MAX_WORDS_PER_SLICE];
    let anded = &mut buf[..wps];
    let mut stats = PairStats::default();
    let mut wa = Walk::new(a);
    let mut wb = Walk::new(b);
    let mut ga = wa.next_group();
    let mut gb = wb.next_group();
    while let (Some((g1, w1)), Some((g2, w2))) = (ga, gb) {
        if g1 < g2 {
            ga = wa.next_group();
            continue;
        }
        if g2 < g1 {
            gb = wb.next_group();
            continue;
        }
        let mut common = w1 & w2;
        while common != 0 {
            let kin = common.trailing_zeros() as usize;
            common &= common - 1;
            let k = (g1 * 64 + kin) as u32;
            let ra = wa.base_rank + (w1 & ((1u64 << kin) - 1)).count_ones() as usize;
            let rb = wb.base_rank + (w2 & ((1u64 << kin) - 1)).count_ones() as usize;
            let (masks_a, masks_b) =
                (&a.masks[ra * wps..][..wps], &b.masks[rb * wps..][..wps]);
            if masks_a.iter().zip(masks_b).all(|(x, y)| x & y == 0) {
                stats.skipped += 1;
                continue;
            }
            stats.visited += 1;
            if !DECODE {
                f(k, &[]);
                continue;
            }
            let (mut off_a, mut off_b) = (wa.block_offset(ra), wb.block_offset(rb));
            for ((word, &x), &y) in anded.iter_mut().zip(masks_a).zip(masks_b) {
                *word = 0;
                let mut both = x & y;
                while both != 0 {
                    let byte = both.trailing_zeros();
                    both &= both - 1;
                    let below = (1u8 << byte) - 1;
                    let left = a.blocks[off_a + (x & below).count_ones() as usize];
                    let right = b.blocks[off_b + (y & below).count_ones() as usize];
                    *word |= u64::from(left & right) << (8 * byte);
                }
                off_a += x.count_ones() as usize;
                off_b += y.count_ones() as usize;
            }
            f(k, anded);
        }
        ga = wa.next_group();
        gb = wb.next_group();
    }
    stats
}

impl fmt::Debug for SparseSlicedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseSlicedRow(|S|={}, len={}, valid={}/{}, blocks={}B)",
            self.slice_size,
            self.len_bits,
            self.valid_slice_count(),
            self.total_slices(),
            self.blocks.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(len: usize, ones: &[usize], s: SliceSize) -> SparseSlicedRow {
        SparseSlicedRow::from_sorted_indices(len, ones.iter().copied(), s)
    }

    /// Deterministic pseudo-random bit sets for round-trip checks.
    fn pseudo_ones(len: usize, density_recip: u64, seed: u64) -> Vec<usize> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .filter(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.is_multiple_of(density_recip)
            })
            .collect()
    }

    #[test]
    fn round_trips_through_dense_for_every_slice_size() {
        for s in SliceSize::ALL {
            for density in [3u64, 17, 113] {
                let ones = pseudo_ones(2000, density, u64::from(s.bits()));
                let dense =
                    SlicedBitVector::from_sorted_indices(2000, ones.iter().copied(), s);
                let sp = SparseSlicedRow::from_dense(&dense);
                assert_eq!(sp.to_dense(), dense, "|S|={s} 1/{density}");
                assert_eq!(sp.count_ones(), dense.count_ones());
                assert_eq!(sp.valid_slice_count(), dense.valid_slice_count());
                assert_eq!(sp.valid_fraction(), dense.valid_fraction());
            }
        }
    }

    #[test]
    fn direct_builder_equals_the_dense_round_trip() {
        for s in SliceSize::ALL {
            // A length that ends inside a slice, so the last bit sits in a
            // partial one.
            let len = 40 * s.bits() as usize + 7;
            let mut cases = vec![Vec::new(), vec![0], vec![len - 1], vec![0, len - 1]];
            for density in [1u64, 2, 3, 17, 113, 997] {
                let mut ones = pseudo_ones(len, density, density + u64::from(s.bits()));
                if ones.last() != Some(&(len - 1)) {
                    ones.push(len - 1);
                }
                cases.push(ones);
            }
            for ones in cases {
                let direct =
                    SparseSlicedRow::from_sorted_indices(len, ones.iter().copied(), s);
                let dense = SlicedBitVector::from_sorted_indices(len, ones.iter().copied(), s);
                let ctx = format!("|S|={s}, {} bits", ones.len());
                assert_eq!(direct, SparseSlicedRow::from_dense(&dense), "{ctx}");
                assert_eq!(direct.count_ones(), ones.len() as u64, "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn direct_builder_rejects_indices_out_of_order() {
        SparseSlicedRow::from_sorted_indices(100, [5usize, 3], SliceSize::S64);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn direct_builder_rejects_a_repeated_index() {
        SparseSlicedRow::from_sorted_indices(100, [5usize, 5], SliceSize::S16);
    }

    #[test]
    #[should_panic(expected = "set bit 100 out of bounds for 100")]
    fn direct_builder_rejects_an_index_out_of_bounds() {
        SparseSlicedRow::from_sorted_indices(100, [3usize, 100], SliceSize::S512);
    }

    #[test]
    fn mask_ones_counts_every_byte_at_every_length() {
        let masks: Vec<u8> =
            (0..40u32).map(|i| (i.wrapping_mul(0x9D) ^ i >> 2) as u8).collect();
        for len in 0..=masks.len() {
            let naive: usize = masks[..len].iter().map(|m| m.count_ones() as usize).sum();
            assert_eq!(mask_ones(&masks[..len]), naive, "{len} bytes");
        }
    }

    #[test]
    fn matching_walk_agrees_with_dense_merge_join_and_never_visits_more() {
        for s in [SliceSize::S16, SliceSize::S64, SliceSize::S512] {
            let a_ones = pseudo_ones(3000, 19, 5);
            let b_ones = pseudo_ones(3000, 13, 9);
            let da = SlicedBitVector::from_sorted_indices(3000, a_ones.iter().copied(), s);
            let db = SlicedBitVector::from_sorted_indices(3000, b_ones.iter().copied(), s);
            let sa = SparseSlicedRow::from_dense(&da);
            let sb = SparseSlicedRow::from_dense(&db);

            let mut sparse_count = 0u64;
            let mut visited_ks = Vec::new();
            let stats = walk_matching::<true>(&sa, &sb, |k, anded| {
                visited_ks.push(k);
                sparse_count += anded.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            });
            assert_eq!(sparse_count, da.and_popcount(&db), "|S|={s}");
            let dense_pairs = da.matching_slices(&db).unwrap().count() as u64;
            assert_eq!(stats.visited + stats.skipped, dense_pairs, "|S|={s}");
            assert!(stats.visited <= dense_pairs);
            assert!(visited_ks.windows(2).all(|w| w[0] < w[1]), "ascending slice order");

            // The index-only walk sees the identical pair population.
            let mut index_ks = Vec::new();
            let index_stats = walk_matching::<false>(&sa, &sb, |k, _| index_ks.push(k));
            assert_eq!(index_ks, visited_ks);
            assert_eq!(index_stats, stats);
        }
    }

    /// Bit `b` of the result is set ⇔ byte `b` of `word` is non-zero.
    fn byte_mask(word: u64) -> u8 {
        (0..8).filter(|b| (word >> (8 * b)) & 0xff != 0).fold(0, |m, b| m | 1 << b)
    }

    #[test]
    fn visited_pairs_and_to_the_dense_merge_join_words_for_every_slice_size() {
        // S128 and S512 spread a slice over several payload words, so the
        // packed offsets run across word boundaries.
        for s in SliceSize::ALL {
            for (da, db) in [(3u64, 5u64), (19, 13), (2, 61)] {
                let len = 3000;
                let a_ones = pseudo_ones(len, da, 7 + da);
                let b_ones = pseudo_ones(len, db, 11 + db);
                let dense_a =
                    SlicedBitVector::from_sorted_indices(len, a_ones.iter().copied(), s);
                let dense_b =
                    SlicedBitVector::from_sorted_indices(len, b_ones.iter().copied(), s);

                let mut want: Vec<(u32, Vec<u64>)> = Vec::new();
                let mut want_stats = PairStats::default();
                for (k, left, right) in dense_a.matching_slices(&dense_b).unwrap() {
                    let words: Vec<u64> = left.iter().zip(right).map(|(x, y)| x & y).collect();
                    if left.iter().zip(right).any(|(&x, &y)| byte_mask(x) & byte_mask(y) != 0)
                    {
                        want_stats.visited += 1;
                        want.push((k, words));
                    } else {
                        assert!(words.iter().all(|&w| w == 0), "a skipped pair ANDs to zero");
                        want_stats.skipped += 1;
                    }
                }

                let sa = SparseSlicedRow::from_sorted_indices(len, a_ones.iter().copied(), s);
                let sb = SparseSlicedRow::from_sorted_indices(len, b_ones.iter().copied(), s);
                let mut got: Vec<(u32, Vec<u64>)> = Vec::new();
                let stats = walk_matching::<true>(&sa, &sb, |k, anded| {
                    got.push((k, anded.to_vec()));
                });
                let ctx = format!("|S|={s}, densities 1/{da} and 1/{db}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(stats, want_stats, "{ctx}");
                assert!(want_stats.visited > 0, "{ctx}: the case visits pairs");
            }
        }
    }

    #[test]
    fn deferred_cursors_decode_exact_payloads_after_runs_of_skips() {
        // Skipped runs lead group 0, sit between visits, straddle the
        // group 0/1 boundary (60..70) and fill part of group 2; every
        // skipped slice carries several payload bytes, so a cursor that
        // fell behind would decode the wrong bytes for the next visit.
        let skipped = [0..5, 20..23, 60..70, 130..140];
        let visited = [5, 6, 24, 40, 70, 71, 100, 141];
        for s in [SliceSize::S16, SliceSize::S128, SliceSize::S512] {
            let bits = s.bits() as usize;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for k in 0..150usize {
                for y in 0..bits / 8 {
                    let byte = k * bits + 8 * y;
                    if skipped.iter().any(|r| r.contains(&k)) {
                        // Byte-disjoint: `a` owns even bytes, `b` odd.
                        let row = if y % 2 == 0 { &mut a } else { &mut b };
                        row.push(byte + (y + k) % 8);
                    } else if visited.contains(&k) {
                        // Shared bytes: one row holds a two-bit pattern
                        // unique to (k, y), the other the full byte, so
                        // the AND is the pattern and any misread shows.
                        let pattern = [byte + (k + y) % 8, byte + (k + y + 3) % 8];
                        let (patterned, full) =
                            if y % 2 == 0 { (&mut a, &mut b) } else { (&mut b, &mut a) };
                        patterned.extend(pattern);
                        full.extend(byte..byte + 8);
                    }
                }
            }
            a.extend([10 * bits + 1, 75 * bits + 1]); // valid in `a` only
            b.extend([11 * bits + 2, 76 * bits + 2]); // valid in `b` only
            a.sort_unstable();
            b.sort_unstable();
            let len = 150 * bits;
            let da = SlicedBitVector::from_sorted_indices(len, a.iter().copied(), s);
            let db = SlicedBitVector::from_sorted_indices(len, b.iter().copied(), s);

            // The dense merge-join, split by the byte-mask rule.
            let mut want = Vec::new();
            let mut want_stats = PairStats::default();
            for (k, left, right) in da.matching_slices(&db).unwrap() {
                if left.iter().zip(right).any(|(&x, &y)| byte_mask(x) & byte_mask(y) != 0) {
                    want_stats.visited += 1;
                    want.push((k, left.iter().zip(right).map(|(x, y)| x & y).collect()));
                } else {
                    want_stats.skipped += 1;
                }
            }
            assert_eq!(want_stats.visited, visited.len() as u64, "|S|={s}");
            assert_eq!(want_stats.skipped, 5 + 3 + 10 + 10, "|S|={s}");

            let (sa, sb) =
                (SparseSlicedRow::from_dense(&da), SparseSlicedRow::from_dense(&db));
            let mut got: Vec<(u32, Vec<u64>)> = Vec::new();
            let stats =
                walk_matching::<true>(&sa, &sb, |k, anded| got.push((k, anded.to_vec())));
            assert_eq!(got, want, "|S|={s}: decoded payloads");
            assert_eq!(stats, want_stats, "|S|={s}");
            let index_stats = walk_matching::<false>(&sa, &sb, |_, _| {});
            assert_eq!(index_stats, want_stats, "|S|={s}: index-only walk");
        }
    }

    #[test]
    fn byte_mask_filter_skips_byte_disjoint_slices() {
        // Both rows valid in slice 0, but in different bytes of it.
        let a = sparse(128, &[0, 1], SliceSize::S64); // byte 0
        let b = sparse(128, &[40, 41], SliceSize::S64); // byte 5
        let stats = walk_matching::<true>(&a, &b, |_, _| panic!("no pair may be visited"));
        assert_eq!(stats.visited, 0);
        assert_eq!(stats.skipped, 1);
        // Same byte, different bits: visited, AND = 0.
        let c = sparse(128, &[2], SliceSize::S64);
        let mut count = 0u64;
        let stats = walk_matching::<true>(&a, &c, |_, anded| {
            count += anded.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        });
        assert_eq!((stats.visited, stats.skipped, count), (1, 0, 0));
    }

    #[test]
    fn set_and_clear_keep_the_row_canonical() {
        for s in [SliceSize::S16, SliceSize::S64, SliceSize::S256] {
            let mut row = SparseSlicedRow::empty(1500, s);
            let script = pseudo_ones(1500, 7, 42);
            for &b in &script {
                assert!(row.set_bit(b).unwrap(), "fresh set of {b}");
                assert!(!row.set_bit(b).unwrap(), "double set of {b}");
            }
            assert_eq!(row, sparse(1500, &script, s), "|S|={s} after inserts");
            // Clear every other bit, then compare against from-scratch.
            let (dropped, kept): (Vec<_>, Vec<_>) =
                script.iter().enumerate().partition(|(i, _)| i % 2 == 0);
            for (_, &b) in &dropped {
                assert!(row.clear_bit(b).unwrap(), "clear of {b}");
                assert!(!row.clear_bit(b).unwrap(), "double clear of {b}");
            }
            let kept: Vec<usize> = kept.into_iter().map(|(_, &b)| b).collect();
            assert_eq!(row, sparse(1500, &kept, s), "|S|={s} after removals");
            for &b in &kept {
                row.clear_bit(b).unwrap();
            }
            assert!(row.is_empty());
            assert_eq!(row, SparseSlicedRow::empty(1500, s));
        }
    }

    #[test]
    fn out_of_bounds_bit_is_an_error() {
        let mut row = SparseSlicedRow::empty(100, SliceSize::S64);
        assert!(matches!(
            row.set_bit(100),
            Err(BitMatrixError::IndexOutOfBounds { index: 100, len: 100 })
        ));
        assert!(matches!(row.clear_bit(700), Err(BitMatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn restrict_partitions_exactly() {
        let ones = pseudo_ones(4000, 11, 3);
        let row = sparse(4000, &ones, SliceSize::S64);
        let cut = 31u32;
        let head = row.restrict_slices(0..cut);
        let tail = row.restrict_slices(cut..row.total_slices() as u32);
        assert_eq!(head.count_ones() + tail.count_ones(), row.count_ones());
        assert_eq!(
            head.valid_slice_count() + tail.valid_slice_count(),
            row.valid_slice_count()
        );
        assert_eq!(head.valid_slice_count(), row.valid_slices_in(0..cut));
        assert_eq!(head.len_bits(), 4000);
        assert_eq!(
            head.to_dense(),
            row.to_dense().restrict_slices(0..cut),
            "restriction commutes with re-encoding"
        );
    }

    #[test]
    fn compressed_bytes_counts_every_level() {
        // One bit: 1 top word + 1 summary word + 1 mask byte/word + 1 block.
        let row = sparse(128, &[0], SliceSize::S64);
        assert_eq!(row.compressed_bytes(), 8 + 8 + 1 + 1);
        // Empty rows cost nothing — the top level is trimmed.
        assert_eq!(SparseSlicedRow::empty(128, SliceSize::S64).compressed_bytes(), 0);
        assert_eq!(SparseSlicedRow::empty(0, SliceSize::S64).compressed_bytes(), 0);
    }
}
