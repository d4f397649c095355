//! Outside-in layer probes for the traced run: each probe calls one
//! layer's public entry point directly and times it from here. Nothing
//! inside the program is instrumented.

use std::time::Instant;

use tcim_arch::AccessStats;
use tcim_bitmatrix::{PopcountMethod, SlicedMatrix};
use tcim_core::backend::{ScheduledPimBackend, SerialPimBackend};
use tcim_core::{ExecutionBackend, KernelStats, ShardedPreparedGraph};
use tcim_sched::{parallel_map_indexed, SchedPolicy, ScheduledRun};

use crate::stats::Samples;
use crate::sweep::{Reference, Sweep};
use crate::workload::{shard_policy, WorkloadSpec};

/// Fork-joins timed per probe round (the per-call cost is tens of µs).
const FORKJOIN_REPS: usize = 32;

/// Milliseconds since `start`, × `scale` (see [`crate::host`]).
fn ms_since(start: Instant, scale: f64) -> f64 {
    start.elapsed().as_secs_f64() * 1e3 * scale
}

/// Probes of the query-time layers, one round per traced rotation.
#[derive(Debug, Default)]
pub struct QueryProbes {
    /// `tcim_core::baseline::forward` wall (ms).
    pub forward_ms: Samples,
    /// `tcim_core::software::sliced_count` wall (ms).
    pub walk_ms: Samples,
    /// `PimEngine::run` wall (ms).
    pub arch_run_ms: Samples,
    /// `ScheduledRun::plan_with_costs` wall (ms), 4 arrays.
    pub plan_ms: Samples,
    /// `ScheduledRun::execute` wall (ms), 4 arrays.
    pub execute_ms: Samples,
    /// `parallel_map_indexed(4, threads, no-op)` wall (µs).
    pub forkjoin_us: Samples,
    /// Σ `ScheduledPimBackend::execute` over the shard pieces (ms).
    pub intra_ms: Samples,
    /// `tcim_shard::compose` wall (ms).
    pub compose_ms: Samples,
    /// `execute_attributed(prepared, true)` on serial PIM (ms).
    pub attributed_ms: Samples,
    /// The serial engine's access statistics (identical every round).
    pub arch_stats: Option<AccessStats>,
    /// Bits of the serial engine's modelled time and energy.
    pub arch_modelled_bits: Option<(u64, u64)>,
    /// The placement's estimated busy-time imbalance.
    pub est_imbalance: f64,
    /// Kernel accounting of the attributed run.
    pub attributed_kernel: Option<KernelStats>,
}

impl QueryProbes {
    /// Runs one round of probes over the closed loop's prepared state,
    /// checking every count against `reference` (and the forward
    /// baseline) and every modelled statistic against the last round.
    /// Walls are recorded × `scale`.
    ///
    /// # Errors
    ///
    /// A description of the first disagreement found.
    pub fn probe(
        &mut self,
        sweep: &Sweep,
        spec: &WorkloadSpec,
        reference: &Reference,
        scale: f64,
    ) -> Result<(), String> {
        let engine = sweep.pipeline.engine();
        let matrix = sweep.prepared.matrix();
        let check = |layer: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{layer}: counted {got} triangles, the baseline {want}"))
            }
        };

        let start = Instant::now();
        let triangles = tcim_core::baseline::forward(&sweep.graph);
        self.forward_ms.push(ms_since(start, scale));
        if let Some(expected) = reference.total() {
            check("baseline.forward", triangles, expected)?;
        }

        let start = Instant::now();
        let walk = tcim_core::software::sliced_count(matrix, PopcountMethod::Native);
        self.walk_ms.push(ms_since(start, scale));
        check("software.walk", walk.triangles, triangles)?;

        let start = Instant::now();
        let sim = engine.run(matrix);
        self.arch_run_ms.push(ms_since(start, scale));
        check("arch.run", sim.triangles, triangles)?;
        let bits = (sim.total_time_s().to_bits(), sim.total_energy_j().to_bits());
        if self.arch_stats.get_or_insert(sim.stats) != &sim.stats
            || self.arch_modelled_bits.get_or_insert(bits) != &bits
        {
            return Err("arch.run: modelled statistics drifted between rounds".to_string());
        }

        let policy = SchedPolicy::with_arrays(4);
        let start = Instant::now();
        let planned =
            ScheduledRun::plan_with_costs(engine, matrix, &policy, engine.cost_model())
                .map_err(|e| format!("sched.plan: {e}"))?;
        self.plan_ms.push(ms_since(start, scale));
        self.est_imbalance = planned.placement().est_imbalance();
        let start = Instant::now();
        let report = planned.execute();
        self.execute_ms.push(ms_since(start, scale));
        check("sched.execute", report.triangles, triangles)?;

        let threads = policy.resolved_host_threads();
        for _ in 0..FORKJOIN_REPS {
            let start = Instant::now();
            std::hint::black_box(parallel_map_indexed(4, threads, std::hint::black_box));
            self.forkjoin_us.push(start.elapsed().as_secs_f64() * 1e6 * scale);
        }

        self.probe_shards(sweep, triangles, scale)?;

        if spec.attributed {
            let start = Instant::now();
            let run = SerialPimBackend::new(engine)
                .execute_attributed(&sweep.prepared, true)
                .map_err(|e| format!("core.attributed: {e}"))?;
            self.attributed_ms.push(ms_since(start, scale));
            check("core.attributed", run.triangles, triangles)?;
            self.attributed_kernel = Some(run.kernel);
        }
        Ok(())
    }

    /// The sharded path split into its two public halves: every piece
    /// through the scheduled backend, then the composition pass.
    fn probe_shards(
        &mut self,
        sweep: &Sweep,
        triangles: u64,
        scale: f64,
    ) -> Result<(), String> {
        let engine = sweep.pipeline.engine();
        let policy = shard_policy();
        // Pieces run with one host thread each, as the sharded backend
        // runs them.
        let inner = SchedPolicy { host_threads: Some(1), ..policy.inner.clone() };
        let backend = ScheduledPimBackend::new(engine, inner);
        let start = Instant::now();
        let mut intra = 0u64;
        for piece in sweep.sharded.pieces() {
            intra += backend
                .execute(piece.prepared())
                .map_err(|e| format!("shard.intra: {e}"))?
                .triangles;
        }
        self.intra_ms.push(ms_since(start, scale));

        let start = Instant::now();
        let composed = tcim_shard::compose(
            sweep.prepared.oriented().vertex_count(),
            sweep.sharded.plan(),
            sweep.sharded.boundary(),
            &policy.inner,
            &engine.cost_model(),
            false,
            false,
        )
        .map_err(|e| format!("shard.compose: {e}"))?;
        self.compose_ms.push(ms_since(start, scale));
        if intra + composed.triangles != triangles {
            return Err(format!(
                "shard: {intra} intra + {} cross triangles, the baseline {triangles}",
                composed.triangles
            ));
        }
        Ok(())
    }
}

/// Probes of the set-up layers, repeated a few times after set-up.
#[derive(Debug, Default)]
pub struct SetupProbes {
    /// Graph generator wall (ms).
    pub generate_ms: Samples,
    /// `Orientation::orient` wall (ms).
    pub orient_ms: Samples,
    /// `SlicedMatrix::from_adjacency_with` wall (ms).
    pub slice_ms: Samples,
    /// `TcimPipeline::prepare_uncached` wall (ms).
    pub prepare_ms: Samples,
    /// Cold `ShardedPreparedGraph::build` wall (ms).
    pub shard_build_ms: Samples,
    /// Valid slices of the prepared matrix.
    pub valid_slices: u64,
    /// Compressed bytes of the prepared matrix.
    pub compressed_bytes: u64,
    /// Cross-shard arcs ÷ all arcs.
    pub cross_arc_frac: f64,
    /// Kernels the composition pass dispatches.
    pub compose_kernels: u64,
}

impl SetupProbes {
    /// Runs one round of set-up probes on a freshly generated graph;
    /// walls are recorded × `scale`.
    ///
    /// # Errors
    ///
    /// A description of a failed layer call.
    pub fn probe(
        &mut self,
        sweep: &Sweep,
        spec: &WorkloadSpec,
        seed: u64,
        scale: f64,
    ) -> Result<(), String> {
        let config = sweep.pipeline.config();
        let start = Instant::now();
        let graph = spec.graph.generate(seed);
        self.generate_ms.push(ms_since(start, scale));

        let start = Instant::now();
        let oriented = config.orientation.orient(&graph);
        self.orient_ms.push(ms_since(start, scale));

        let start = Instant::now();
        let matrix = SlicedMatrix::from_adjacency_with(
            oriented.rows(),
            config.pim.slice_size,
            config.encoding,
        )
        .map_err(|e| format!("bitmatrix.slice: {e}"))?;
        self.slice_ms.push(ms_since(start, scale));
        drop(matrix);

        let start = Instant::now();
        let prepared = sweep.pipeline.prepare_uncached(&graph);
        self.prepare_ms.push(ms_since(start, scale));

        let start = Instant::now();
        let sharded = ShardedPreparedGraph::build(
            &prepared,
            &shard_policy().spec,
            sweep.pipeline.engine(),
        )
        .map_err(|e| format!("shard.build: {e}"))?;
        self.shard_build_ms.push(ms_since(start, scale));

        let stats = prepared.slice_stats();
        self.valid_slices = stats.valid_slices;
        self.compressed_bytes = stats.compressed_bytes;
        let arcs = prepared.oriented().arc_count().max(1);
        self.cross_arc_frac = sharded.plan().cross_arcs() as f64 / arcs as f64;
        self.compose_kernels = sharded.compose_census().kernel_invocations;
        Ok(())
    }
}
