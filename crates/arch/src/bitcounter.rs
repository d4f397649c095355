//! The synthesized bit-counter module of §V-A.
//!
//! "We design a bit counter module based on Verilog HDL … we split the
//! vector and feed each 8-bit sub-vector into an 8-256 look-up-table to
//! get its non-zero element number, then sum up the non-zero numbers in
//! all sub-vectors. We synthesis the module with Synopsis Tool and conduct
//! post-synthesis simulation based on 45nm FreePDK."
//!
//! The functional path reuses the LUT popcount from `tcim-bitmatrix`
//! (identical dataflow); this module adds the post-synthesis-style cost
//! constants: per-count latency, energy, and area at 45 nm.

use tcim_bitmatrix::popcount::{popcount_words, PopcountMethod};

/// Cost-annotated model of the LUT-based bit counter.
///
/// # Example
///
/// ```
/// use tcim_arch::BitCounterModel;
///
/// let bc = BitCounterModel::freepdk45(64);
/// assert_eq!(bc.count(&[0b0110]), 2); // the paper's BitCount(0110) = 2
/// assert!(bc.latency_s > 0.0 && bc.energy_j > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BitCounterModel {
    /// Input width in bits (the slice size |S|).
    pub width_bits: u32,
    /// Latency of one count: LUT lookups in parallel plus the adder tree
    /// (s).
    pub latency_s: f64,
    /// Energy of one count (J).
    pub energy_j: f64,
    /// Synthesized area (m²).
    pub area_m2: f64,
}

impl BitCounterModel {
    /// Post-synthesis-style constants at 45 nm for a counter of
    /// `width_bits` inputs.
    ///
    /// The LUT stage is one ROM access (~0.3 ns); the adder tree adds
    /// `log2(width/8)` carry-save stages of ~0.1 ns each. Energy is ~2 fJ
    /// per byte-lane plus ~1 fJ per adder; area follows the 8-256 LUT
    /// (≈ 300 F² per lane).
    ///
    /// # Panics
    ///
    /// Panics unless `width_bits` is a positive multiple of 8.
    pub fn freepdk45(width_bits: u32) -> Self {
        assert!(
            width_bits > 0 && width_bits.is_multiple_of(8),
            "bit counter width must be a positive multiple of 8"
        );
        let lanes = f64::from(width_bits / 8);
        let adder_stages = lanes.log2().ceil().max(1.0);
        let f = 45e-9_f64;
        BitCounterModel {
            width_bits,
            latency_s: 0.3e-9 + adder_stages * 0.1e-9,
            energy_j: lanes * 2e-15 + (lanes - 1.0).max(1.0) * 1e-15,
            area_m2: lanes * 300.0 * f * f,
        }
    }

    /// Counts set bits in `words` through the hardware-faithful LUT path.
    /// Only the low `width_bits` matter for a single slice, but whole
    /// multi-word slices are accepted for wide-|S| configurations.
    pub fn count(&self, words: &[u64]) -> u64 {
        popcount_words(words, PopcountMethod::Lut8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_count_matches_native() {
        let bc = BitCounterModel::freepdk45(64);
        for w in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(bc.count(&[w]), w.count_ones() as u64);
        }
    }

    #[test]
    fn wider_counters_are_slower_and_bigger() {
        let c64 = BitCounterModel::freepdk45(64);
        let c512 = BitCounterModel::freepdk45(512);
        assert!(c512.latency_s > c64.latency_s);
        assert!(c512.energy_j > c64.energy_j);
        assert!(c512.area_m2 > c64.area_m2);
    }

    #[test]
    fn latency_magnitude_sub_nanosecond_for_64() {
        let bc = BitCounterModel::freepdk45(64);
        assert!(bc.latency_s < 1e-9, "{:e}", bc.latency_s);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_non_byte_width() {
        BitCounterModel::freepdk45(65);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_zero_width() {
        BitCounterModel::freepdk45(0);
    }
}
