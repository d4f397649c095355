//! The one matching walk: how the TCIM controller pairs the valid slices
//! of two rows in the Fig. 3 layout (ascending `u32` slice indices plus
//! `|S|` payload bits each) and feeds each visited pair to AND +
//! BitCount.
//!
//! Every kernel of the repository runs [`walk`]: the matrix rows'
//! [`SlicedRow`](crate::SlicedRow) walks, and with them the arc kernel,
//! the kernel census, job decomposition, shard composition and stream
//! deltas, and the motif engine's word-payload row store. The walk
//! visits the operand that lists fewer slices and [`gallop`]s into the
//! other, so a short row against a long one costs `O(short · log)`, and
//! it skips a listed slice whose words are all zero (the motif store
//! keeps a slice listed when its last bit is cleared).
//!
//! The [`RowEncoding`] is a rule of the walk, not a layout. Under
//! [`RowEncoding::Dense`] every mutually valid pair is visited. Under
//! [`RowEncoding::Sparse`] the controller first compares per-byte
//! non-zero masks and skips a pair whose payloads share no non-zero
//! byte: their AND is zero, since every set bit lives in a non-zero byte.
//! So the sparse walk never skips a pair that holds a triangle, and
//! `visited + skipped` is always the dense walk's pair count.

use crate::row::{PairStats, RowEncoding};
use crate::slice::{SliceSize, MAX_WORDS_PER_SLICE};

/// One operand of the matching walk: ascending slice indices and their
/// payload words, `words_per_slice` per slice. A listed slice whose
/// words are all zero is not valid and is never paired.
#[derive(Debug, Clone, Copy)]
pub struct SliceWords<'a> {
    /// The listed slices' indices, strictly ascending.
    pub indices: &'a [u32],
    /// `indices.len() × words_per_slice` payload words.
    pub words: &'a [u64],
}

/// The first index at or after `from` whose item `below` rejects, in
/// `items[from..]` partitioned by `below` (every item it accepts comes
/// before every item it rejects); `items.len()` when it accepts them
/// all. The search gallops: it probes `from`, then doubles its stride
/// until it passes the answer, and binary-searches the last stride. So a
/// cursor that moves forward by `d` items costs `O(log d)` probes, and
/// one probe when it stays put.
///
/// ```
/// use tcim_bitmatrix::matching::gallop;
///
/// let heads = [2, 3, 5, 8, 13, 21, 34];
/// assert_eq!(gallop(&heads, 0, |&h| h < 5), 2);
/// assert_eq!(gallop(&heads, 2, |&h| h < 5), 2, "already there: one probe");
/// assert_eq!(gallop(&heads, 2, |&h| h < 30), 6);
/// assert_eq!(gallop(&heads, 3, |&h| h < 99), heads.len());
/// ```
///
/// # Panics
///
/// Panics when `from` is past `items.len()`.
pub fn gallop<T>(items: &[T], from: usize, mut below: impl FnMut(&T) -> bool) -> usize {
    // Invariant: every item in `from..lo` is below.
    let (mut lo, mut probe, mut stride) = (from, from, 1);
    while probe < items.len() && below(&items[probe]) {
        lo = probe + 1;
        probe += stride;
        stride *= 2;
    }
    let end = probe.min(items.len());
    lo + items[lo..end].partition_point(below)
}

/// The high bit of every byte of `word` that is non-zero: the sparse
/// controller's byte mask of one payload word.
pub(crate) fn non_zero_bytes(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (((word & LOW7) + LOW7) | word) & !LOW7
}

/// Walks the mutually valid slice pairs of `a AND b`, both sliced by
/// `slice_size`, in ascending slice order. Each pair the `encoding`'s
/// rule visits is ANDed and handed to `visit(slice index, ordinal in a,
/// ordinal in b, ANDed words)`, zero results included; the ordinals
/// index the operands' listed slices. Returns the visited and skipped
/// pair counts.
///
/// ```
/// use tcim_bitmatrix::matching::{walk, SliceWords};
/// use tcim_bitmatrix::{RowEncoding, SliceSize};
///
/// // Slices 1 and 4 are listed in both operands; slice 4 of `b` is
/// // cleared, and slice 1's payloads share no non-zero byte.
/// let a = SliceWords { indices: &[1, 4, 9], words: &[0x00ff, 0x1, 0x2] };
/// let b = SliceWords { indices: &[1, 4], words: &[0xff00, 0] };
/// let dense = walk(a, b, SliceSize::S64, RowEncoding::Dense, |k, _, _, anded| {
///     assert_eq!((k, anded), (1, &[0][..]));
/// });
/// assert_eq!((dense.visited, dense.skipped), (1, 0));
/// let sparse = walk(a, b, SliceSize::S64, RowEncoding::Sparse, |_, _, _, _| {
///     unreachable!("byte-disjoint pairs are skipped")
/// });
/// assert_eq!((sparse.visited, sparse.skipped), (0, 1));
/// ```
pub fn walk(
    a: SliceWords<'_>,
    b: SliceWords<'_>,
    slice_size: SliceSize,
    encoding: RowEncoding,
    visit: impl FnMut(u32, usize, usize, &[u64]),
) -> PairStats {
    let sparse = encoding == RowEncoding::Sparse;
    // One walk per slice width, so the word loops unroll.
    match slice_size.words_per_slice() {
        1 => walk_words::<1>(a, b, sparse, visit),
        2 => walk_words::<2>(a, b, sparse, visit),
        4 => walk_words::<4>(a, b, sparse, visit),
        _ => walk_words::<MAX_WORDS_PER_SLICE>(a, b, sparse, visit),
    }
}

/// [`walk`] over slices of `W` words.
fn walk_words<const W: usize>(
    a: SliceWords<'_>,
    b: SliceWords<'_>,
    sparse: bool,
    mut visit: impl FnMut(u32, usize, usize, &[u64]),
) -> PairStats {
    debug_assert_eq!(a.words.len(), a.indices.len() * W);
    debug_assert_eq!(b.words.len(), b.indices.len() * W);
    let swapped = b.indices.len() < a.indices.len();
    let (walked, probed) = if swapped { (b, a) } else { (a, b) };
    let mut anded = [0u64; W];
    let mut pairs = PairStats::default();
    let mut cursor = 0;
    for (ordinal, (&k, left)) in
        walked.indices.iter().zip(walked.words.chunks_exact(W)).enumerate()
    {
        if left.iter().all(|&w| w == 0) {
            continue;
        }
        cursor = gallop(probed.indices, cursor, |&j| j < k);
        match probed.indices.get(cursor) {
            None => break,
            Some(&j) if j != k => continue,
            Some(_) => {}
        }
        let right = &probed.words[cursor * W..][..W];
        if right.iter().all(|&w| w == 0) {
            continue;
        }
        if sparse
            && left
                .iter()
                .zip(right)
                .all(|(&x, &y)| non_zero_bytes(x) & non_zero_bytes(y) == 0)
        {
            pairs.skipped += 1;
            continue;
        }
        pairs.visited += 1;
        for ((out, &x), &y) in anded.iter_mut().zip(left).zip(right) {
            *out = x & y;
        }
        let (in_a, in_b) = if swapped { (cursor, ordinal) } else { (ordinal, cursor) };
        visit(k, in_a, in_b, &anded);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlicedBitVector;

    #[test]
    fn gallop_finds_the_partition_point_from_any_start() {
        let items: Vec<u32> = (0..200).map(|x| x * 3).collect();
        for from in [0, 1, 5, 64, 199, 200] {
            for target in [0, 1, 3, 100, 299, 597, 598, 1000] {
                let want = from + items[from..].partition_point(|&x| x < target);
                assert_eq!(gallop(&items, from, |&x| x < target), want, "{from} {target}");
            }
        }
        assert_eq!(gallop::<u32>(&[], 0, |_| true), 0);
    }

    /// Bit `b` of the result is set ⇔ byte `b` of `word` is non-zero.
    fn byte_mask(word: u64) -> u8 {
        (0..8).filter(|b| (word >> (8 * b)) & 0xff != 0).fold(0, |m, b| m | 1 << b)
    }

    #[test]
    fn non_zero_bytes_flags_exactly_the_non_zero_bytes() {
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        let mut cases = vec![0, u64::MAX, 1, 0x80, 0x7f00, 1 << 63, 0x0100_0000_0000_0080];
        for _ in 0..200 {
            word ^= word << 13;
            word ^= word >> 7;
            word ^= word << 17;
            // Clear a pseudo-random set of bytes so zero bytes occur.
            let keep = (0..8)
                .filter(|b| word >> (b + 3) & 1 == 1)
                .fold(0u64, |m, b| m | 0xff << (8 * b));
            cases.push(word & keep);
        }
        for word in cases {
            let high_bits = non_zero_bytes(word);
            let flagged =
                (0..8).fold(0u8, |m, b| m | (((high_bits >> (8 * b + 7)) & 1) as u8) << b);
            assert_eq!(flagged, byte_mask(word), "{word:#x}");
            assert_eq!(high_bits & 0x7f7f_7f7f_7f7f_7f7f, 0, "{word:#x}: high bits only");
        }
    }

    /// Deterministic pseudo-random bit sets.
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

    /// A visited pair of a walk: its slice, both ordinals and the AND.
    type Visit = (u32, usize, usize, Vec<u64>);

    /// What [`walk`] must return over `a` and `b`, from the reference
    /// merge-join of the operands' valid slices: every mutually valid
    /// pair is visited under the dense rule, and under the sparse rule
    /// only those whose byte masks intersect, each of the others
    /// counted as skipped after checking that it ANDs to zero.
    fn reference(
        a: &SlicedBitVector,
        b: &SlicedBitVector,
        encoding: RowEncoding,
    ) -> (Vec<Visit>, PairStats) {
        let ordinal =
            |v: &SlicedBitVector, k| v.valid_slices().position(|s| s.index == k).unwrap();
        let mut visits = Vec::new();
        let mut stats = PairStats::default();
        for (k, left, right) in a.matching_slices(b).unwrap() {
            let anded: Vec<u64> = left.iter().zip(right).map(|(x, y)| x & y).collect();
            let share =
                left.iter().zip(right).any(|(&x, &y)| byte_mask(x) & byte_mask(y) != 0);
            if encoding == RowEncoding::Sparse && !share {
                assert!(anded.iter().all(|&w| w == 0), "a skipped pair ANDs to zero");
                stats.skipped += 1;
            } else {
                stats.visited += 1;
                visits.push((k, ordinal(a, k), ordinal(b, k), anded));
            }
        }
        (visits, stats)
    }

    fn run(
        a: SliceWords<'_>,
        b: SliceWords<'_>,
        s: SliceSize,
        e: RowEncoding,
    ) -> (Vec<Visit>, PairStats) {
        let mut visits = Vec::new();
        let stats = walk(a, b, s, e, |k, in_a, in_b, anded| {
            visits.push((k, in_a, in_b, anded.to_vec()))
        });
        (visits, stats)
    }

    #[test]
    fn the_walk_equals_the_reference_merge_join_at_every_slice_size() {
        // Equal densities, very unequal ones (the short operand gallops
        // far into the long one) and a near-empty operand.
        for s in SliceSize::ALL {
            for (da, db) in [(3u64, 5u64), (19, 13), (2, 61), (997, 2), (1, 4001)] {
                let len = 4000;
                let a =
                    SlicedBitVector::from_sorted_indices(len, pseudo_ones(len, da, 7 + da), s);
                let b = SlicedBitVector::from_sorted_indices(
                    len,
                    pseudo_ones(len, db, 11 + db),
                    s,
                );
                let dense_pairs = a.matching_slices(&b).unwrap().count() as u64;
                for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
                    let ctx = format!("|S|={s}, densities 1/{da} and 1/{db}, {encoding}");
                    let (want, want_stats) = reference(&a, &b, encoding);
                    let (got, stats) = run(a.slice_words(), b.slice_words(), s, encoding);
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(stats, want_stats, "{ctx}");
                    assert_eq!(stats.visited + stats.skipped, dense_pairs, "{ctx}");
                    if encoding == RowEncoding::Dense {
                        assert_eq!(stats.skipped, 0, "{ctx}: dense never skips");
                    }
                    // The walk is symmetric in its operands.
                    let (swapped, swapped_stats) =
                        run(b.slice_words(), a.slice_words(), s, encoding);
                    let mirrored: Vec<Visit> = swapped
                        .into_iter()
                        .map(|(k, in_b, in_a, anded)| (k, in_a, in_b, anded))
                        .collect();
                    assert_eq!(mirrored, want, "{ctx}: swapped operands");
                    assert_eq!(swapped_stats, want_stats, "{ctx}: swapped operands");
                }
            }
        }
    }

    #[test]
    fn visited_payloads_are_exact_after_runs_of_skips() {
        // Skipped runs lead, sit between visits and straddle the 64-slice
        // group boundaries; every skipped slice carries several payload
        // bytes, and a visited pair's AND is a two-bit pattern unique to
        // its slice and word, so a pair misread shows.
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
            let a = SlicedBitVector::from_sorted_indices(len, a, s);
            let b = SlicedBitVector::from_sorted_indices(len, b, s);
            let (want, want_stats) = reference(&a, &b, RowEncoding::Sparse);
            assert_eq!(want_stats.visited, visited.len() as u64, "|S|={s}");
            assert_eq!(want_stats.skipped, 5 + 3 + 10 + 10, "|S|={s}");
            let (got, stats) = run(a.slice_words(), b.slice_words(), s, RowEncoding::Sparse);
            assert_eq!(got, want, "|S|={s}: visited payloads");
            assert_eq!(stats, want_stats, "|S|={s}");
        }
    }

    #[test]
    fn listed_all_zero_slices_are_never_paired() {
        // The motif store clears bits in place: a slice whose words reach
        // zero stays listed. Slices 2 and 7 are cleared in `a`, slice 7
        // in `b`; slice 5 is live in both and slice 9 only in `a`.
        let a = SliceWords { indices: &[2, 5, 7, 9], words: &[0, 0b1010, 0, 0b1] };
        let b = SliceWords { indices: &[2, 3, 5, 7], words: &[0b1, 0b1, 0b0110, 0] };
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let (got, stats) = run(a, b, SliceSize::S16, encoding);
            assert_eq!(got, vec![(5, 1, 2, vec![0b0010])], "{encoding}");
            assert_eq!(stats, PairStats { visited: 1, skipped: 0 }, "{encoding}");
        }
        // A long operand of cleared slices is walked past, never paired.
        let indices: Vec<u32> = (0..200).collect();
        let mut words = vec![0u64; 200];
        words[150] = 0b100;
        let long = SliceWords { indices: &indices, words: &words };
        let short = SliceWords { indices: &[0, 150, 199], words: &[0b1, 0b110, 0b1] };
        let (got, stats) = run(long, short, SliceSize::S16, RowEncoding::Dense);
        assert_eq!(got, vec![(150, 150, 1, vec![0b100])]);
        assert_eq!(stats.visited, 1);
    }
}
