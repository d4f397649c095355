//! The PIM engine: the device, array and bit-counter models resolved
//! once per configuration, which the [`runtime`](crate::runtime)
//! executes prepared matrices against.
//!
//! The TCIM dataflow is two-phase. *Characterization*
//! ([`PimEngine::new`]) runs the MTJ device co-simulation and the
//! NVSim-style array model — expensive, configuration-dependent,
//! graph-independent. *Execution* ([`PimEngine::run`]) replays
//! Algorithm 1 over a prepared [`SlicedMatrix`] — cheap per run and
//! repeatable. Splitting the two lets callers characterize once and
//! execute many matrices (or the same matrix many times), and gives
//! external runtimes (`tcim-sched`) a stable object to price work
//! against.

use tcim_bitmatrix::SlicedMatrix;
use tcim_mtj::MtjCell;
use tcim_nvsim::{ArrayCharacterization, ArrayModel};

use crate::bitcounter::BitCounterModel;
use crate::config::PimConfig;
use crate::costs::SliceCostModel;
use crate::error::Result;
use crate::kernel::{TriangleSink, TriangleTally};
use crate::runtime::{self, EnergyBreakdown, LatencyBreakdown, PimRunResult};
use crate::stats::AccessStats;

/// The processing-in-MRAM engine: a characterized array plus the
/// controller logic of Algorithm 1 — everything a run needs that does
/// not depend on the graph.
#[derive(Debug, Clone)]
pub struct PimEngine {
    config: PimConfig,
    array: ArrayCharacterization,
    bitcounter: BitCounterModel,
    capacity_slices: usize,
}

impl PimEngine {
    /// Characterizes the device, array and bit counter for `config`.
    ///
    /// # Errors
    ///
    /// Returns configuration/characterization errors; see
    /// [`PimConfig::validate`].
    pub fn new(config: &PimConfig) -> Result<Self> {
        config.validate()?;
        let cell = MtjCell::characterize(&config.mtj)?;
        let array = ArrayModel::characterize(&cell, &config.organization)?;
        let bitcounter = BitCounterModel::freepdk45(config.slice_size.bits());
        let capacity_slices = config.capacity_slices()?;
        Ok(PimEngine { config: config.clone(), array, bitcounter, capacity_slices })
    }

    /// The NVSim-style characterization backing this engine.
    pub fn array(&self) -> &ArrayCharacterization {
        &self.array
    }

    /// The bit-counter model backing this engine.
    pub fn bitcounter(&self) -> &BitCounterModel {
        &self.bitcounter
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// The resolved per-operation cost model — the hooks an external
    /// scheduler (`tcim-sched`) uses to account work it places onto
    /// arrays itself.
    pub fn cost_model(&self) -> SliceCostModel {
        SliceCostModel::resolve(&self.config, &self.array, &self.bitcounter)
    }

    /// Total data-buffer capacity in valid slices (rows + columns), per
    /// [`PimConfig::capacity_slices`].
    pub fn capacity_slices(&self) -> usize {
        self.capacity_slices
    }

    /// Executes Algorithm 1 over an oriented sliced matrix: the one
    /// kernel walker charged to the array's buffer, then rolled up into
    /// latency and energy.
    ///
    /// The returned triangle count is computed by the simulated dataflow
    /// itself (LUT bit counter over sliced ANDs), so functional
    /// correctness of the architecture is checked on every run.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` was built with a different slice size than the
    /// engine configuration — a mapping bug at the call site.
    pub fn run(&self, matrix: &SlicedMatrix) -> PimRunResult {
        runtime::execute(self, matrix, None::<&mut TriangleTally>)
    }

    /// Executes Algorithm 1 with triangle attribution, reporting every
    /// surviving triangle to `sink` (ascending matrix ids — the
    /// [`TriangleSink`] contract).
    ///
    /// Hardware-wise this costs one extra operation class relative to
    /// [`PimEngine::run`]: one read-class array access per *non-zero*
    /// slice pair ([`AccessStats::result_readouts`]), rolled into the
    /// latency/energy model. Zero results are filtered by the bit
    /// counter and never read out.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` was built with a different slice size than the
    /// engine configuration.
    pub fn run_attributed<S: TriangleSink + ?Sized>(
        &self,
        matrix: &SlicedMatrix,
        sink: &mut S,
    ) -> PimRunResult {
        runtime::execute(self, matrix, Some(sink))
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
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn fig2_matrix() -> SlicedMatrix {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    fn engine() -> PimEngine {
        PimEngine::new(&PimConfig::default()).unwrap()
    }

    #[test]
    fn fig2_counts_two_triangles() {
        let run = engine().run(&fig2_matrix());
        assert_eq!(run.triangles, 2);
        assert_eq!(run.stats.edges, 5);
        // Every edge produces exactly one valid pair here (n = 4 < 64).
        assert_eq!(run.stats.and_ops, 5);
        assert_eq!(run.stats.bitcount_ops, 5);
    }

    #[test]
    fn fig2_reuse_matches_paper_walkthrough() {
        // Fig. 2: C2 is loaded at step 2 and reused at step 3; C3 loaded at
        // step 4 and reused at step 5; C1 used once. Three rows load once
        // each.
        let run = engine().run(&fig2_matrix());
        assert_eq!(run.stats.col_misses, 3); // C1, C2, C3 first touches
        assert_eq!(run.stats.col_hits, 2); // C2 and C3 reuses
        assert_eq!(run.stats.col_exchanges, 0); // 16 MB ≫ this graph
        assert_eq!(run.stats.row_slice_writes, 3); // R0, R1, R2
    }

    #[test]
    fn energy_and_latency_accounting_identities() {
        let e = engine();
        let run = e.run(&fig2_matrix());
        let slice_bits = e.config().slice_size.bits();
        let parallel = e.array().organization.parallel_subarrays() as f64;
        let expected_write_s =
            run.stats.total_writes() as f64 * e.array().write_latency_s / parallel;
        assert!((run.latency.write_s - expected_write_s).abs() < 1e-18);
        let expected_and_j =
            run.stats.and_ops as f64 * e.array().and_slice_energy_j(slice_bits);
        assert!((run.energy.and_j - expected_and_j).abs() < 1e-18);
        assert!(run.total_time_s() > 0.0);
        assert!(run.total_energy_j() > 0.0);
    }

    #[test]
    fn tiny_cache_forces_exchanges() {
        // A 4-vertex graph with a cache big enough for the row reserve but
        // only one column slice forces every second access to exchange.
        let config = PimConfig {
            organization: tcim_nvsim::ArrayOrganization {
                rows_per_subarray: 32,
                cols_per_subarray: 16,
                subarrays_per_mat: 1,
                mats_per_bank: 1,
                banks: 1,
            },
            // 32×16 = 512 bits = 64 B → 5 slices capacity.
            ..PimConfig::default()
        };
        let engine = PimEngine::new(&config).unwrap();

        // A graph whose columns span many distinct slices: star + chain on
        // 300 vertices (5 column slices at |S| = 64).
        let mut b = SlicedMatrixBuilder::new(300, SliceSize::S64);
        for v in 1..300 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..299 {
            b.add_edge(v, v + 1).unwrap();
        }
        let run = engine.run(&b.build());
        assert!(run.stats.col_exchanges > 0, "{}", run.stats);
        // Functional correctness survives cache pressure: triangles in the
        // fan are (0, v, v+1) for v in 1..299 → 298.
        assert_eq!(run.triangles, 298);
    }

    #[test]
    fn triangle_count_matches_dense_reference_on_random_graph() {
        use tcim_bitmatrix::BitMatrix;
        // Deterministic pseudo-random graph.
        let n = 150usize;
        let mut edges = Vec::new();
        let mut x = 9u64;
        for u in 0..n {
            for v in (u + 1)..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33).is_multiple_of(10) {
                    edges.push((u, v));
                }
            }
        }
        let reference = BitMatrix::from_edges(n, &edges).unwrap();
        let expected = reference.triangle_count_trace();

        let mut b = SlicedMatrixBuilder::new(n, SliceSize::S64);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let run = engine().run(&b.build());
        assert_eq!(run.triangles, expected);
    }

    #[test]
    fn local_counts_sum_to_three_per_triangle() {
        let mut tally = crate::TriangleTally::new(4, None);
        let run = engine().run_attributed(&fig2_matrix(), &mut tally);
        assert_eq!(run.triangles, 2);
        // Fig. 2: triangles 0-1-2 and 1-2-3 → participation 1,2,2,1.
        let (_, per_vertex, _) = tally.into_parts();
        assert_eq!(per_vertex, vec![1, 2, 2, 1]);
        assert_eq!(per_vertex.iter().sum::<u64>(), 3 * run.triangles);
        // Two of the five pairs produce non-zero counts → two readouts.
        assert_eq!(run.stats.result_readouts, 2);
        assert!(run.latency.readout_s > 0.0);
        assert!(run.energy.readout_j > 0.0);
    }

    #[test]
    fn local_and_global_runs_agree() {
        let mut b = SlicedMatrixBuilder::new(120, SliceSize::S64);
        let mut x = 5u64;
        for u in 0..120u32 {
            for v in (u + 1)..120 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33).is_multiple_of(7) {
                    b.add_edge(u as usize, v as usize).unwrap();
                }
            }
        }
        let m = b.build();
        let e = engine();
        let global = e.run(&m);
        let mut tally = crate::TriangleTally::new(m.dim(), None);
        let local = e.run_attributed(&m, &mut tally);
        assert_eq!(local.triangles, global.triangles);
        assert_eq!(tally.into_parts().1.iter().sum::<u64>(), 3 * global.triangles);
        // Same traffic statistics, plus the readouts.
        assert_eq!(local.stats.col_accesses(), global.stats.col_accesses());
        assert!(local.stats.result_readouts <= local.stats.and_ops);
        // Readouts make the local run cost strictly more.
        assert!(local.energy.total_j() >= global.energy.total_j());
    }

    #[test]
    fn empty_graph_runs_cleanly() {
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        let run = engine().run(&m);
        assert_eq!(run.triangles, 0);
        assert_eq!(run.stats.edges, 0);
        assert_eq!(run.total_time_s(), 0.0);
    }

    #[test]
    #[should_panic(expected = "slice size")]
    fn mismatched_slice_size_panics() {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S32);
        b.add_edge(0, 1).unwrap();
        engine().run(&b.build());
    }

    #[test]
    fn trace_records_when_enabled() {
        let config = PimConfig { trace_capacity: 64, ..PimConfig::default() };
        let engine = PimEngine::new(&config).unwrap();
        let run = engine.run(&fig2_matrix());
        assert!(!run.trace.is_empty());
        // 3 row writes + 5 col accesses + 5 and/bitcount events = 13.
        assert_eq!(run.trace.len(), 13);
    }

    #[test]
    fn attributed_trace_records_when_enabled() {
        let config = PimConfig { trace_capacity: 64, ..PimConfig::default() };
        let engine = PimEngine::new(&config).unwrap();
        let mut sink = |_: u32, _: u32, _: u32| {};
        let run = engine.run_attributed(&fig2_matrix(), &mut sink);
        // Same event stream as the plain run: 3 row writes + 5 col
        // accesses + 5 and/bitcount events.
        assert_eq!(run.trace.len(), 13);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = PimConfig { capacity_slices_override: Some(0), ..PimConfig::default() };
        assert!(PimEngine::new(&config).is_err());
    }
}
