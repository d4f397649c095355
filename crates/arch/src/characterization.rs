//! Characterize-time state of the PIM engine: the device, array and
//! bit-counter models resolved once per configuration.
//!
//! The TCIM dataflow is two-phase. *Characterization* runs the MTJ
//! device co-simulation and the NVSim-style array model — expensive,
//! configuration-dependent, graph-independent. *Execution* (the
//! [`runtime`](crate::runtime) module) replays Algorithm 1 over a
//! prepared [`SlicedMatrix`] — cheap per run and repeatable. Splitting
//! the two lets callers characterize once and execute many matrices (or
//! the same matrix many times) without re-characterizing, and gives
//! external runtimes (`tcim-sched`) a stable object to price work
//! against.

use tcim_bitmatrix::SlicedMatrix;
use tcim_mtj::MtjCell;
use tcim_nvsim::{ArrayCharacterization, ArrayModel};

use crate::bitcounter::BitCounterModel;
use crate::config::PimConfig;
use crate::costs::SliceCostModel;
use crate::error::Result;
use crate::runtime::{EnergyBreakdown, LatencyBreakdown};
use crate::stats::AccessStats;

/// A fully characterized PIM configuration: everything Algorithm 1 needs
/// that does not depend on the graph.
#[derive(Debug, Clone)]
pub struct PimCharacterization {
    config: PimConfig,
    array: ArrayCharacterization,
    bitcounter: BitCounterModel,
    capacity_slices: usize,
}

impl PimCharacterization {
    /// Characterizes the device, array and bit counter for `config`.
    ///
    /// # Errors
    ///
    /// Returns configuration/characterization errors; see
    /// [`PimConfig::validate`].
    pub fn characterize(config: &PimConfig) -> Result<Self> {
        config.validate()?;
        let cell = MtjCell::characterize(&config.mtj)?;
        let array = ArrayModel::characterize(&cell, &config.organization)?;
        let bitcounter = BitCounterModel::freepdk45(config.slice_size.bits());
        let capacity_slices = config.capacity_slices()?;
        Ok(PimCharacterization { config: config.clone(), array, bitcounter, capacity_slices })
    }

    /// The configuration this characterization was resolved from.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// The NVSim-style array characterization.
    pub fn array(&self) -> &ArrayCharacterization {
        &self.array
    }

    /// The bit-counter model.
    pub fn bitcounter(&self) -> &BitCounterModel {
        &self.bitcounter
    }

    /// Total data-buffer capacity in valid slices (rows + columns), per
    /// [`PimConfig::capacity_slices`].
    pub fn capacity_slices(&self) -> usize {
        self.capacity_slices
    }

    /// The resolved per-operation cost model — the hooks an external
    /// scheduler (`tcim-sched`) uses to account work it places onto
    /// arrays itself.
    pub fn cost_model(&self) -> SliceCostModel {
        SliceCostModel::resolve(&self.config, &self.array, &self.bitcounter)
    }

    /// Column-slice cache capacity after reserving the row region: the
    /// current row's slices must be resident while its edges process, so
    /// the widest row of `matrix` is set aside.
    pub(crate) fn column_capacity(&self, matrix: &SlicedMatrix) -> usize {
        let row_reserve = (0..matrix.dim() as u32)
            .map(|i| matrix.row(i).valid_slice_count())
            .max()
            .unwrap_or(0);
        self.capacity_slices.saturating_sub(row_reserve).max(1)
    }

    /// Converts operation counts into time and energy using the array
    /// characterization. Writes and compute ops are spread across the
    /// concurrently operating sub-arrays; controller dispatch is serial on
    /// the host. Host controller energy is the single-core host burning
    /// its active package power for as long as it dispatches edges — the
    /// term that dominates end-to-end TCIM energy, exactly as in the
    /// paper's Fig. 6 arithmetic (`tcim_core::experiments::fig6`).
    pub(crate) fn roll_up(&self, stats: &AccessStats) -> (LatencyBreakdown, EnergyBreakdown) {
        let parallel = self.array.organization.parallel_subarrays() as f64;
        self.cost_model().roll_up(stats, parallel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_once_matches_engine_construction() {
        let config = PimConfig::default();
        let chr = PimCharacterization::characterize(&config).unwrap();
        let engine = crate::PimEngine::new(&config).unwrap();
        assert_eq!(chr.capacity_slices(), engine.capacity_slices());
        assert_eq!(chr.cost_model(), engine.cost_model());
        assert_eq!(chr.config(), engine.config());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = PimConfig { capacity_slices_override: Some(0), ..PimConfig::default() };
        assert!(PimCharacterization::characterize(&config).is_err());
    }
}
