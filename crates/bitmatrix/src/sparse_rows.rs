//! The sparse encoding's row contract. A [`SlicedRow`] under
//! [`RowEncoding::Sparse`] holds the same bits as the dense reference
//! ([`SlicedBitVector`]), builds, patches and restricts like it, reports
//! the summary-hierarchy footprint, and its kernel walk visits exactly
//! the reference merge-join's pairs whose payloads share a non-zero byte.
//!
//! [`SlicedRow`]: crate::SlicedRow
//! [`RowEncoding::Sparse`]: crate::RowEncoding::Sparse
//! [`SlicedBitVector`]: crate::SlicedBitVector

#[cfg(test)]
mod tests {
    use crate::bitvec::BitVec;
    use crate::error::BitMatrixError;
    use crate::row::{PairStats, RowEncoding, SlicedRow};
    use crate::slice::SliceSize;
    use crate::sliced::SlicedBitVector;

    fn sparse(len: usize, ones: &[usize], s: SliceSize) -> SlicedRow {
        SlicedRow::from_sorted_indices(len, ones.iter().copied(), s, RowEncoding::Sparse)
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

    /// Bit `b` of the result is set ⇔ byte `b` of `word` is non-zero.
    fn byte_mask(word: u64) -> u8 {
        (0..8).filter(|b| (word >> (8 * b)) & 0xff != 0).fold(0, |m, b| m | 1 << b)
    }

    #[test]
    fn round_trips_through_dense_for_every_slice_size() {
        for s in SliceSize::ALL {
            for density in [3u64, 17, 113] {
                let ones = pseudo_ones(2000, density, u64::from(s.bits()));
                let dense =
                    SlicedBitVector::from_sorted_indices(2000, ones.iter().copied(), s);
                let sp = SlicedRow::encode(dense.clone(), RowEncoding::Sparse);
                let ctx = format!("|S|={s} 1/{density}");
                assert_eq!(
                    sp.reencoded(RowEncoding::Dense),
                    SlicedRow::encode(dense.clone(), RowEncoding::Dense),
                    "{ctx}"
                );
                assert_eq!(sp.to_bitvec(), dense.to_bitvec(), "{ctx}");
                assert_eq!(sp.count_ones(), dense.count_ones(), "{ctx}");
                assert_eq!(sp.valid_slice_count(), dense.valid_slice_count(), "{ctx}");
                assert_eq!(sp.valid_fraction(), dense.valid_fraction(), "{ctx}");
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
                let direct = sparse(len, &ones, s);
                let dense = BitVec::from_indices(len, ones.iter().copied());
                let round_trip = SlicedRow::encode(
                    SlicedBitVector::from_bitvec(&dense, s),
                    RowEncoding::Sparse,
                );
                let ctx = format!("|S|={s}, {} bits", ones.len());
                assert_eq!(direct, round_trip, "{ctx}");
                assert_eq!(direct.compressed_bytes(), round_trip.compressed_bytes(), "{ctx}");
                assert_eq!(direct.count_ones(), ones.len() as u64, "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn direct_builder_rejects_indices_out_of_order() {
        sparse(100, &[5, 3], SliceSize::S64);
    }

    #[test]
    fn matching_walk_agrees_with_dense_merge_join_and_never_visits_more() {
        for s in [SliceSize::S16, SliceSize::S64, SliceSize::S512] {
            let a_ones = pseudo_ones(3000, 19, 5);
            let b_ones = pseudo_ones(3000, 13, 9);
            let da = SlicedBitVector::from_sorted_indices(3000, a_ones.iter().copied(), s);
            let db = SlicedBitVector::from_sorted_indices(3000, b_ones.iter().copied(), s);
            let sa = SlicedRow::encode(da.clone(), RowEncoding::Sparse);
            let sb = SlicedRow::encode(db.clone(), RowEncoding::Sparse);

            let mut sparse_count = 0u64;
            let mut visited_ks = Vec::new();
            let stats = sa
                .for_each_matching(&sb, |k, anded| {
                    visited_ks.push(k);
                    sparse_count +=
                        anded.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                })
                .unwrap();
            assert_eq!(sparse_count, da.and_popcount(&db), "|S|={s}");
            let dense_pairs = da.matching_slices(&db).unwrap().count() as u64;
            assert_eq!(stats.visited + stats.skipped, dense_pairs, "|S|={s}");
            assert!(stats.visited <= dense_pairs);
            assert!(visited_ks.windows(2).all(|w| w[0] < w[1]), "ascending slice order");

            // The index-only walk sees the identical pair population.
            let mut index_ks = Vec::new();
            let index_stats = sa.for_each_matching_index(&sb, |k| index_ks.push(k)).unwrap();
            assert_eq!(index_ks, visited_ks);
            assert_eq!(index_stats, stats);
        }
    }

    #[test]
    fn visited_pairs_and_to_the_dense_merge_join_words_for_every_slice_size() {
        // S128 and S512 spread a slice over several payload words, so the
        // byte-mask rule runs across word boundaries.
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

                let sa = sparse(len, &a_ones, s);
                let sb = sparse(len, &b_ones, s);
                let mut got: Vec<(u32, Vec<u64>)> = Vec::new();
                let stats =
                    sa.for_each_matching(&sb, |k, anded| got.push((k, anded.to_vec())));
                let ctx = format!("|S|={s}, densities 1/{da} and 1/{db}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(stats.unwrap(), want_stats, "{ctx}");
                assert!(want_stats.visited > 0, "{ctx}: the case visits pairs");
            }
        }
    }

    #[test]
    fn byte_mask_filter_skips_byte_disjoint_slices() {
        // Both rows valid in slice 0, but in different bytes of it.
        let a = sparse(128, &[0, 1], SliceSize::S64); // byte 0
        let b = sparse(128, &[40, 41], SliceSize::S64); // byte 5
        let stats = a.for_each_matching(&b, |_, _| panic!("no pair may be visited")).unwrap();
        assert_eq!(stats, PairStats { visited: 0, skipped: 1 });
        // Same byte, different bits: visited, AND = 0.
        let c = sparse(128, &[2], SliceSize::S64);
        let mut count = 0u64;
        let stats = a
            .for_each_matching(&c, |_, anded| {
                count += anded.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            })
            .unwrap();
        assert_eq!((stats.visited, stats.skipped, count), (1, 0, 0));
    }

    #[test]
    fn set_and_clear_keep_the_row_canonical() {
        for s in [SliceSize::S16, SliceSize::S64, SliceSize::S256] {
            let mut row = sparse(1500, &[], s);
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
            let rebuilt = sparse(1500, &kept, s);
            assert_eq!(row, rebuilt, "|S|={s} after removals");
            assert_eq!(row.compressed_bytes(), rebuilt.compressed_bytes(), "|S|={s}");
            for &b in &kept {
                row.clear_bit(b).unwrap();
            }
            assert!(row.is_empty());
            assert_eq!(row, sparse(1500, &[], s));
            assert_eq!(row.compressed_bytes(), 0);
        }
    }

    #[test]
    fn out_of_bounds_bit_is_an_error() {
        let mut row = sparse(100, &[], SliceSize::S64);
        assert!(matches!(
            row.set_bit(100),
            Err(BitMatrixError::IndexOutOfBounds { index: 100, len: 100 })
        ));
        assert!(matches!(row.clear_bit(700), Err(BitMatrixError::IndexOutOfBounds { .. })));
        assert_eq!(row, sparse(100, &[], SliceSize::S64), "failed patches change nothing");
    }

    #[test]
    fn restrict_partitions_exactly() {
        let ones = pseudo_ones(4000, 11, 3);
        let dense =
            SlicedBitVector::from_sorted_indices(4000, ones.iter().copied(), SliceSize::S64);
        let row = SlicedRow::encode(dense.clone(), RowEncoding::Sparse);
        let cut = 31u32;
        let head = row.restrict_slices(0..cut);
        let tail = row.restrict_slices(cut..row.total_slices() as u32);
        assert_eq!(head.count_ones() + tail.count_ones(), row.count_ones());
        assert_eq!(
            head.valid_slice_count() + tail.valid_slice_count(),
            row.valid_slice_count()
        );
        assert_eq!(head.valid_slice_count(), dense.valid_slices_in(0..cut));
        assert_eq!(head.len_bits(), 4000);
        assert_eq!(head.encoding(), RowEncoding::Sparse);
        assert_eq!(
            head.reencoded(RowEncoding::Dense),
            SlicedRow::encode(dense.restrict_slices(0..cut), RowEncoding::Dense),
            "restriction commutes with re-encoding"
        );
    }

    #[test]
    fn compressed_bytes_counts_every_level() {
        // One bit: 1 top word + 1 summary word + 1 mask byte + 1 payload
        // byte; the dense layout stores 4 + 8 bytes.
        let one = sparse(128, &[0], SliceSize::S64);
        assert_eq!(one.compressed_bytes(), 8 + 8 + 1 + 1);
        assert_eq!(one.reencoded(RowEncoding::Dense).compressed_bytes(), 12);
        // Slices 3 and 70 sit in two 64-slice groups; slice 70 holds two
        // non-zero bytes.
        let s16 = 16;
        let two_groups =
            sparse(200 * s16, &[3 * s16 + 1, 70 * s16, 70 * s16 + 9], SliceSize::S16);
        assert_eq!(two_groups.compressed_bytes(), 8 + 2 * 8 + 2 + 3);
        // Slice 4100 lies past the first top word's 4096 slices.
        let mut far = sparse(5000 * s16, &[4100 * s16 + 2], SliceSize::S16);
        assert_eq!(far.compressed_bytes(), 2 * 8 + 8 + 1 + 1);
        // A 512-bit slice: eight mask bytes, one per payload word, and
        // five non-zero payload bytes (bits 0 and 1 share one).
        let wide = sparse(1024, &[0, 1, 9, 70, 200, 511], SliceSize::S512);
        assert_eq!(wide.compressed_bytes(), 8 + 8 + 8 + 5);
        // Empty rows cost nothing, also once a patch empties them.
        assert!(far.clear_bit(4100 * s16 + 2).unwrap());
        assert_eq!(far.compressed_bytes(), 0);
        assert_eq!(sparse(128, &[], SliceSize::S64).compressed_bytes(), 0);
        assert_eq!(sparse(0, &[], SliceSize::S64).compressed_bytes(), 0);
    }
}
