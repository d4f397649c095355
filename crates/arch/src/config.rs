//! Simulator configuration.

use tcim_bitmatrix::SliceSize;
use tcim_mtj::MtjParams;
use tcim_nvsim::ArrayOrganization;

use crate::buffer::ReplacementPolicy;
use crate::error::{ArchError, Result};

/// Configuration of one PIM simulation run.
///
/// The default reproduces the paper's evaluation setup: `|S| = 64`,
/// a 16 MB computational STT-MRAM array, Table I devices, LRU
/// replacement, and a single-core host issuing edges to the controller.
///
/// # Example
///
/// ```
/// use tcim_arch::PimConfig;
///
/// let config = PimConfig::default();
/// assert_eq!(config.slice_size.bits(), 64);
/// // 16 MiB over (8 + 4) bytes per valid slice.
/// assert_eq!(config.capacity_slices()?, 16 * 1024 * 1024 / 12);
/// # Ok::<(), tcim_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PimConfig {
    /// Slice size `|S|` (paper: 64 bits).
    pub slice_size: SliceSize,
    /// Computational array organization (paper: 16 MB).
    pub organization: ArrayOrganization,
    /// MTJ device parameters (paper: Table I).
    pub mtj: MtjParams,
    /// Column-slice replacement policy (paper: LRU).
    pub replacement: ReplacementPolicy,
    /// Seed for the Random replacement policy (ignored by LRU/FIFO).
    pub replacement_seed: u64,
    /// Host-side controller overhead per edge (s): decoding the edge,
    /// consulting the valid-slice index, issuing commands. The paper's
    /// TCIM column implies ~30-60 ns/edge on its 2008-era host; we default
    /// to 15 ns/edge, self-consistent with our own measured software inner
    /// loop (~19 ns/edge on road graphs — the dispatch does strictly less
    /// work than the software path's AND+popcount per edge, so it must
    /// cost less).
    pub controller_overhead_s: f64,
    /// Active package power of the single-core host driving the
    /// controller (W). 25 W matches the Intel E5430-class machine of
    /// §V-A; used to convert controller time into energy, which is what
    /// makes the paper's Fig. 6 arithmetic work out
    /// (`tcim_core::experiments::fig6`).
    pub host_power_w: f64,
    /// Event-trace capacity (0 disables tracing).
    pub trace_capacity: usize,
    /// Overrides the slice capacity derived from the organization.
    /// Used by scaled-down experiments to shrink the data buffer in
    /// proportion to the graph (e.g. Fig. 5 at 1 % scale); `None` uses
    /// the organization's real capacity.
    pub capacity_slices_override: Option<usize>,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            slice_size: SliceSize::S64,
            organization: ArrayOrganization::tcim_16mb(),
            mtj: MtjParams::table_i(),
            replacement: ReplacementPolicy::Lru,
            replacement_seed: 0,
            controller_overhead_s: 15e-9,
            host_power_w: 25.0,
            trace_capacity: 0,
            capacity_slices_override: None,
        }
    }
}

impl PimConfig {
    /// How many valid slices the array can hold, using the paper's byte
    /// accounting of §IV-B: `capacity_bytes / (|S|/8 + 4)` — each resident
    /// slice costs its payload plus a 4-byte index entry in the data
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] when the array cannot hold a
    /// single slice or the organization is invalid.
    pub fn capacity_slices(&self) -> Result<usize> {
        self.organization
            .validate()
            .map_err(|e| ArchError::InvalidConfig { reason: e.to_string() })?;
        let capacity = self.capacity_slices_override.unwrap_or(
            self.organization.total_bytes() as usize / self.slice_size.bytes_per_valid_slice(),
        );
        if capacity == 0 {
            return Err(ArchError::InvalidConfig {
                reason: "array too small to hold one slice".to_string(),
            });
        }
        Ok(capacity)
    }

    /// Validates the full configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for inconsistent geometry or
    /// a negative controller overhead, and propagates device-parameter
    /// validation.
    pub fn validate(&self) -> Result<()> {
        self.capacity_slices()?;
        if !(self.controller_overhead_s >= 0.0 && self.controller_overhead_s.is_finite()) {
            return Err(ArchError::InvalidConfig {
                reason: format!(
                    "controller overhead {} must be non-negative and finite",
                    self.controller_overhead_s
                ),
            });
        }
        if !(self.host_power_w >= 0.0 && self.host_power_w.is_finite()) {
            return Err(ArchError::InvalidConfig {
                reason: format!(
                    "host power {} must be non-negative and finite",
                    self.host_power_w
                ),
            });
        }
        self.mtj.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = PimConfig::default();
        assert_eq!(c.organization.total_bytes(), 16 * 1024 * 1024);
        assert_eq!(c.replacement, ReplacementPolicy::Lru);
        c.validate().unwrap();
    }

    #[test]
    fn capacity_uses_paper_byte_accounting() {
        let c = PimConfig::default();
        // 16 MiB / 12 B = 1 398 101 slices.
        assert_eq!(c.capacity_slices().unwrap(), 1_398_101);
    }

    #[test]
    fn invalid_organization_is_rejected() {
        let mut c = PimConfig::default();
        c.organization.banks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn negative_overhead_is_rejected() {
        let c = PimConfig { controller_overhead_s: -1.0, ..PimConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn capacity_override_takes_effect() {
        let mut c = PimConfig { capacity_slices_override: Some(1000), ..PimConfig::default() };
        assert_eq!(c.capacity_slices().unwrap(), 1000);
        c.capacity_slices_override = Some(0);
        assert!(c.capacity_slices().is_err());
    }

    #[test]
    fn invalid_mtj_is_rejected() {
        let mut c = PimConfig::default();
        c.mtj.tmr = -0.5;
        assert!(c.validate().is_err());
    }
}
