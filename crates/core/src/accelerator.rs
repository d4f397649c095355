//! The top-level TCIM accelerator facade — thin shims over the staged
//! pipeline.
//!
//! [`TcimAccelerator`] predates the [`TcimPipeline`] and is kept as the
//! convenience entry point: every method delegates to the pipeline's
//! prepare/execute stages (sharing its prepared-graph cache), so
//! repeated calls on the same graph re-orient and re-slice nothing —
//! counting methods are thin shims over
//! [`Query::TotalTriangles`](crate::Query::TotalTriangles) on the
//! respective backend. New code that selects backends, reuses prepared
//! artifacts explicitly, or asks richer questions (per-vertex counts,
//! clustering, edge support) should use [`TcimPipeline`] and the typed
//! [`Query`](crate::Query) API directly; these per-path methods remain
//! as shims for existing callers.

use std::time::{Duration, Instant};

use tcim_arch::{PimConfig, PimEngine, PimRunResult, TriangleTally};
use tcim_bitmatrix::{EncodingPolicy, SliceStats, SlicedMatrix};
use tcim_graph::{CsrGraph, Orientation};
use tcim_sched::{SchedPolicy, ScheduledReport};

use crate::backend::{Backend, BackendDetail};
use crate::error::Result;
use crate::pipeline::TcimPipeline;

/// Configuration of the accelerator facade: how to orient the graph plus
/// the full PIM simulator configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TcimConfig {
    /// Edge orientation applied before slicing (paper: natural order).
    pub orientation: Orientation,
    /// Row-encoding selection policy: measure the sliced matrix's
    /// valid-slice density and pick dense or hierarchical sparse rows
    /// (default: automatic with a 25% density threshold).
    pub encoding: EncodingPolicy,
    /// Architecture-simulator configuration (paper defaults).
    pub pim: PimConfig,
}

/// Everything one accelerated counting run produces.
#[derive(Debug, Clone)]
pub struct TcimReport {
    /// Exact triangle count, produced by the simulated dataflow.
    pub triangles: u64,
    /// The architecture simulation result: statistics, latency, energy.
    pub sim: PimRunResult,
    /// Slicing statistics of the compressed graph (Table III/IV
    /// quantities).
    pub slice_stats: SliceStats,
    /// Host wall-clock time spent orienting + slicing the graph (zero
    /// when the prepared form came out of the pipeline cache).
    pub preprocess_time: Duration,
    /// Host wall-clock time spent driving the simulation itself (this is
    /// simulator overhead, not modelled accelerator time).
    pub host_sim_time: Duration,
}

/// Everything one local (per-vertex) counting run produces.
#[derive(Debug, Clone)]
pub struct LocalTcimReport {
    /// Global triangle count.
    pub triangles: u64,
    /// Triangles each input-graph vertex participates in; sums to
    /// `3 × triangles`.
    pub per_vertex: Vec<u64>,
    /// The raw architecture result (statistics, latency, energy).
    pub sim: PimRunResult,
}

/// The TCIM accelerator: a characterized PIM engine bound to a graph
/// pipeline (orient → slice → map → run Algorithm 1).
///
/// # Example
///
/// ```
/// use tcim_core::{TcimAccelerator, TcimConfig};
/// use tcim_graph::generators::classic;
///
/// let acc = TcimAccelerator::new(&TcimConfig::default())?;
/// let report = acc.count_triangles(&classic::wheel(12));
/// assert_eq!(report.triangles, 11);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
///
/// Cloning clones the configuration and characterized engine; the clone
/// starts with an empty prepared-graph cache (see
/// [`TcimPipeline::clone`]).
#[derive(Debug, Clone)]
pub struct TcimAccelerator {
    pipeline: TcimPipeline,
}

impl TcimAccelerator {
    /// Characterizes the device, array and bit counter for `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration and characterization failures.
    pub fn new(config: &TcimConfig) -> Result<Self> {
        Ok(TcimAccelerator { pipeline: TcimPipeline::new(config)? })
    }

    /// The staged pipeline backing this facade — prepare/execute stages,
    /// backend dispatch and the prepared-graph cache.
    pub fn pipeline(&self) -> &TcimPipeline {
        &self.pipeline
    }

    /// The underlying architecture engine (for inspecting the array
    /// characterization).
    pub fn engine(&self) -> &PimEngine {
        self.pipeline.engine()
    }

    /// The configuration this accelerator was built from.
    pub fn config(&self) -> &TcimConfig {
        self.pipeline.config()
    }

    /// Compresses `g` into the sliced in-memory format (orient + slice).
    ///
    /// Legacy one-shot compression: builds the matrix directly, without
    /// pricing it or pinning anything in the pipeline cache — the
    /// caller owns the only copy. New code that reuses compressed forms
    /// should hold a [`PreparedGraph`](crate::PreparedGraph) from
    /// [`TcimPipeline::prepare`] instead.
    pub fn compress(&self, g: &CsrGraph) -> SlicedMatrix {
        let oriented = self.config().orientation.orient(g);
        SlicedMatrix::from_adjacency_with(
            oriented.rows(),
            self.config().pim.slice_size,
            self.config().encoding,
        )
        .expect("oriented adjacency is always in bounds")
    }

    /// Counts the triangles of `g` on the simulated accelerator.
    ///
    /// Shim over the pipeline's [`Backend::SerialPim`]; the preparation
    /// stage is cached across calls.
    pub fn count_triangles(&self, g: &CsrGraph) -> TcimReport {
        let pre_start = Instant::now();
        let prepared = self.pipeline.prepare(g);
        let preprocess_time = pre_start.elapsed();
        let report = self
            .pipeline
            .execute(&prepared, &Backend::SerialPim)
            .expect("pipeline-prepared artifacts always match the engine");
        let BackendDetail::SerialPim(sim) = report.detail else {
            unreachable!("the serial PIM backend always returns a serial detail")
        };
        TcimReport {
            triangles: report.triangles,
            sim: *sim,
            slice_stats: prepared.slice_stats(),
            preprocess_time,
            host_sim_time: report.execute_time,
        }
    }

    /// Counts per-vertex (local) triangle participation on the simulated
    /// accelerator: the quantity behind local clustering coefficients.
    ///
    /// Results are indexed by the *input graph's* vertex ids regardless of
    /// the configured orientation (relabellings are undone internally).
    /// The run costs one extra read-class array access per non-zero slice
    /// pair; see `tcim_arch::runtime::run_attributed`.
    pub fn count_local_triangles(&self, g: &CsrGraph) -> LocalTcimReport {
        let prepared = self.pipeline.prepare(g);
        let mut tally = TriangleTally::new(prepared.matrix().dim(), false);
        let run = self.engine().run_attributed(prepared.matrix(), &mut tally);
        let (_, local, _) = tally.into_parts();
        let mut per_vertex = vec![0u64; g.vertex_count()];
        for (new_id, &count) in local.iter().enumerate() {
            per_vertex[prepared.oriented().original_id(new_id as u32) as usize] = count;
        }
        LocalTcimReport { triangles: run.triangles, per_vertex, sim: run }
    }

    /// Counts the triangles of `g` on a scheduled multi-array runtime
    /// instead of the serial engine: the oriented, sliced matrix is
    /// decomposed into row jobs, placed onto `policy.arrays` independent
    /// computational arrays by `policy.placement`, and executed with
    /// per-array data buffers over host worker threads.
    ///
    /// Shim over the pipeline's [`Backend::ScheduledPim`].
    ///
    /// The returned [`ScheduledReport`] carries the exact triangle count
    /// (always equal to [`TcimAccelerator::count_triangles`]'s — the
    /// dataflow per edge is identical), per-array statistics and
    /// utilization, the critical-path latency and the load-imbalance
    /// factor.
    ///
    /// # Errors
    ///
    /// Propagates scheduling-policy validation errors as
    /// [`CoreError::Sched`](crate::CoreError::Sched).
    ///
    /// # Example
    ///
    /// ```
    /// use tcim_core::{TcimAccelerator, TcimConfig};
    /// use tcim_graph::generators::classic;
    /// use tcim_sched::SchedPolicy;
    ///
    /// let acc = TcimAccelerator::new(&TcimConfig::default())?;
    /// let report = acc
    ///     .count_triangles_scheduled(&classic::wheel(12), &SchedPolicy::with_arrays(4))?;
    /// assert_eq!(report.triangles, 11);
    /// assert!(report.imbalance >= 1.0);
    /// # Ok::<(), tcim_core::CoreError>(())
    /// ```
    pub fn count_triangles_scheduled(
        &self,
        g: &CsrGraph,
        policy: &SchedPolicy,
    ) -> Result<ScheduledReport> {
        let prepared = self.pipeline.prepare(g);
        let report =
            self.pipeline.execute(&prepared, &Backend::ScheduledPim(policy.clone()))?;
        let BackendDetail::ScheduledPim(sched) = report.detail else {
            unreachable!("the scheduled PIM backend always returns a scheduled detail")
        };
        Ok(*sched)
    }

    /// Counts triangles over an already-compressed matrix.
    pub fn count_compressed(
        &self,
        matrix: &SlicedMatrix,
        preprocess_time: Duration,
    ) -> TcimReport {
        let slice_stats = matrix.stats();
        let host_start = Instant::now();
        let sim = self.engine().run(matrix);
        let host_sim_time = host_start.elapsed();
        TcimReport {
            triangles: sim.triangles,
            sim,
            slice_stats,
            preprocess_time,
            host_sim_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use tcim_graph::generators::{classic, gnm, road_grid};

    fn accelerator() -> TcimAccelerator {
        TcimAccelerator::new(&TcimConfig::default()).unwrap()
    }

    #[test]
    fn counts_match_baselines_across_graph_families() {
        let acc = accelerator();
        let graphs = vec![
            classic::fig2_example(),
            classic::complete(25),
            classic::wheel(30),
            gnm(400, 3000, 3).unwrap(),
            road_grid(20, 20, 0.9, 0.3, 5).unwrap(),
        ];
        for g in graphs {
            let expected = baseline::edge_iterator_merge(&g);
            let report = acc.count_triangles(&g);
            assert_eq!(report.triangles, expected, "graph {g:?}");
        }
    }

    #[test]
    fn orientation_does_not_change_the_count() {
        let g = gnm(300, 2200, 11).unwrap();
        let natural = accelerator().count_triangles(&g).triangles;
        let config = TcimConfig { orientation: Orientation::Degree, ..TcimConfig::default() };
        let degree = TcimAccelerator::new(&config).unwrap().count_triangles(&g).triangles;
        assert_eq!(natural, degree);
    }

    #[test]
    fn report_carries_consistent_statistics() {
        let g = gnm(200, 1500, 2).unwrap();
        let acc = accelerator();
        let report = acc.count_triangles(&g);
        assert_eq!(report.sim.stats.edges as usize, g.edge_count());
        assert_eq!(report.sim.stats.and_ops, report.sim.stats.bitcount_ops);
        assert!(report.slice_stats.nnz as usize == g.edge_count());
        assert!(report.sim.total_time_s() > 0.0);
    }

    #[test]
    fn repeated_counts_hit_the_pipeline_cache() {
        let g = gnm(150, 1000, 6).unwrap();
        let acc = accelerator();
        let first = acc.count_triangles(&g);
        let misses = acc.pipeline().cache().misses();
        let second = acc.count_triangles(&g);
        assert_eq!(first.triangles, second.triangles);
        assert_eq!(first.sim.stats, second.sim.stats);
        // The second run prepared nothing new.
        assert_eq!(acc.pipeline().cache().misses(), misses);
        assert!(acc.pipeline().cache().hits() >= 1);
    }

    #[test]
    fn local_counts_match_baseline_under_every_orientation() {
        let g = gnm(250, 1800, 4).unwrap();
        let expected = baseline::local_triangles(&g);
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            let config = TcimConfig { orientation, ..TcimConfig::default() };
            let report = TcimAccelerator::new(&config).unwrap().count_local_triangles(&g);
            assert_eq!(report.per_vertex, expected, "{orientation:?}");
            assert_eq!(
                report.per_vertex.iter().sum::<u64>(),
                3 * report.triangles,
                "{orientation:?}"
            );
        }
    }

    #[test]
    fn scheduled_counts_match_serial_and_software_baseline() {
        use tcim_graph::generators::barabasi_albert;
        use tcim_sched::PlacementPolicy;

        let acc = accelerator();
        let g = barabasi_albert(400, 6, 3).unwrap();
        let software = baseline::edge_iterator_merge(&g);
        let serial = acc.count_triangles(&g).triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: Some(2) };
                let report = acc.count_triangles_scheduled(&g, &policy).unwrap();
                assert_eq!(report.triangles, software, "{placement} x{arrays}");
                assert_eq!(report.arrays(), arrays);
                assert!(report.imbalance >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn load_balanced_critical_path_beats_round_robin_on_skewed_graphs() {
        use tcim_graph::generators::barabasi_albert;
        use tcim_sched::PlacementPolicy;

        let acc = accelerator();
        // Preferential attachment: heavy-tailed degree distribution, the
        // adversarial case for reuse-blind dealing.
        for seed in [3u64, 11] {
            let g = barabasi_albert(600, 8, seed).unwrap();
            for arrays in [2usize, 4, 8, 16] {
                let rr = acc
                    .count_triangles_scheduled(
                        &g,
                        &SchedPolicy::with_arrays(arrays)
                            .placement(PlacementPolicy::RoundRobin),
                    )
                    .unwrap();
                let lpt = acc
                    .count_triangles_scheduled(
                        &g,
                        &SchedPolicy::with_arrays(arrays)
                            .placement(PlacementPolicy::LoadBalanced),
                    )
                    .unwrap();
                assert_eq!(rr.triangles, lpt.triangles);
                assert!(
                    lpt.critical_path_s <= rr.critical_path_s + 1e-18,
                    "seed {seed}, {arrays} arrays: LPT {} vs RR {}",
                    lpt.critical_path_s,
                    rr.critical_path_s
                );
            }
        }
    }

    #[test]
    fn compress_then_count_matches_direct_path() {
        let g = gnm(150, 900, 8).unwrap();
        let acc = accelerator();
        let direct = acc.count_triangles(&g);
        let matrix = acc.compress(&g);
        let reused = acc.count_compressed(&matrix, Duration::ZERO);
        assert_eq!(direct.triangles, reused.triangles);
        assert_eq!(direct.sim.stats, reused.sim.stats);
    }
}
