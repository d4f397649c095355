//! The bank → mat → sub-array hierarchy of the computational chip (Fig. 4).

use crate::error::{NvsimError, Result};

/// Organization of the computational STT-MRAM chip.
///
/// Fig. 4 of the paper: "each chip consists of multiple Banks … Each Bank
/// is comprised of multiple computational memory sub-arrays, which are
/// connected to a global row decoder and a shared global row buffer."
/// Mats group sub-arrays that share local drivers.
///
/// # Example
///
/// ```
/// use tcim_nvsim::ArrayOrganization;
///
/// let org = ArrayOrganization::tcim_16mb();
/// assert_eq!(org.total_bytes(), 16 * 1024 * 1024);
/// org.validate()?;
/// # Ok::<(), tcim_nvsim::NvsimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayOrganization {
    /// Rows per sub-array (word lines).
    pub rows_per_subarray: usize,
    /// Columns per sub-array (bit lines).
    pub cols_per_subarray: usize,
    /// Sub-arrays per mat.
    pub subarrays_per_mat: usize,
    /// Mats per bank.
    pub mats_per_bank: usize,
    /// Banks per chip.
    pub banks: usize,
}

impl ArrayOrganization {
    /// The 16 MB configuration of the paper's evaluation (§V-A):
    /// 512×512 sub-arrays, 8 per mat, 16 mats per bank, 4 banks.
    pub fn tcim_16mb() -> Self {
        ArrayOrganization {
            rows_per_subarray: 512,
            cols_per_subarray: 512,
            subarrays_per_mat: 8,
            mats_per_bank: 16,
            banks: 4,
        }
    }

    /// A small single-bank configuration for unit tests and examples.
    pub fn small_256kb() -> Self {
        ArrayOrganization {
            rows_per_subarray: 256,
            cols_per_subarray: 256,
            subarrays_per_mat: 4,
            mats_per_bank: 8,
            banks: 1,
        }
    }

    /// Checks all fields are non-zero and the geometry is addressable.
    ///
    /// # Errors
    ///
    /// Returns [`NvsimError::InvalidOrganization`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("rows_per_subarray", self.rows_per_subarray),
            ("cols_per_subarray", self.cols_per_subarray),
            ("subarrays_per_mat", self.subarrays_per_mat),
            ("mats_per_bank", self.mats_per_bank),
            ("banks", self.banks),
        ];
        for (name, value) in fields {
            if value == 0 {
                return Err(NvsimError::InvalidOrganization {
                    reason: format!("{name} must be non-zero"),
                });
            }
        }
        if !self.rows_per_subarray.is_power_of_two()
            || !self.cols_per_subarray.is_power_of_two()
        {
            return Err(NvsimError::InvalidOrganization {
                reason: "sub-array dimensions must be powers of two for the decoder model"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Bits per sub-array.
    pub fn bits_per_subarray(&self) -> u64 {
        self.rows_per_subarray as u64 * self.cols_per_subarray as u64
    }

    /// Total sub-arrays on the chip.
    pub fn total_subarrays(&self) -> u64 {
        (self.subarrays_per_mat * self.mats_per_bank * self.banks) as u64
    }

    /// Total capacity in bits.
    pub fn total_bits(&self) -> u64 {
        self.bits_per_subarray() * self.total_subarrays()
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bits() / 8
    }

    /// Sub-arrays that can operate concurrently. The paper's architecture
    /// activates one sub-array per mat at a time (shared local buffer), so
    /// the concurrency is `mats_per_bank × banks`.
    pub fn parallel_subarrays(&self) -> u64 {
        (self.mats_per_bank * self.banks) as u64
    }
}

impl Default for ArrayOrganization {
    fn default() -> Self {
        ArrayOrganization::tcim_16mb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcim_16mb_capacity() {
        let org = ArrayOrganization::tcim_16mb();
        org.validate().unwrap();
        // 512·512 bits = 32 KiB per sub-array; 8·16·4 = 512 sub-arrays.
        assert_eq!(org.bits_per_subarray(), 262_144);
        assert_eq!(org.total_subarrays(), 512);
        assert_eq!(org.total_bytes(), 16 * 1024 * 1024);
    }

    #[test]
    fn small_config_capacity() {
        let org = ArrayOrganization::small_256kb();
        org.validate().unwrap();
        assert_eq!(org.total_bytes(), 256 * 1024);
    }

    #[test]
    fn parallelism_counts_mats_and_banks() {
        let org = ArrayOrganization::tcim_16mb();
        assert_eq!(org.parallel_subarrays(), 64);
    }

    #[test]
    fn rejects_zero_and_non_power_of_two() {
        let mut org = ArrayOrganization::tcim_16mb();
        org.banks = 0;
        assert!(org.validate().is_err());
        let mut org = ArrayOrganization::tcim_16mb();
        org.rows_per_subarray = 500;
        assert!(org.validate().is_err());
    }
}
