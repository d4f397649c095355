//! Run-time execution of Algorithm 1 over a prepared [`SlicedMatrix`]:
//! the [`kernel`] walker charged to the computational array, with
//! latency and energy accounted from its operation counts. The walk
//! covers every row but runs the kernel only on the arcs the matrix's
//! kernel census lists as visiting a slice pair; the census bills the
//! others, so every count and modelled bit is that of walking every arc.
//!
//! The walk takes a [`PimEngine`] (characterized once per
//! configuration) and a matrix that is already oriented and sliced — the
//! run-time half of the characterize/run split. It never re-slices or
//! re-characterizes.

use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::SlicedMatrix;

use crate::buffer::SliceCache;
use crate::engine::PimEngine;
use crate::kernel::{self, ArrayBuffer, TriangleSink};
use crate::stats::AccessStats;
use tcim_telemetry::EventTrace;

/// Where the simulated time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Array WRITE time (row loads + column loads), after parallelism (s).
    pub write_s: f64,
    /// AND operation time, after parallelism (s).
    pub and_s: f64,
    /// Bit-counter time, after parallelism (s).
    pub bitcount_s: f64,
    /// AND-result readout time (local counting only), after
    /// parallelism (s).
    pub readout_s: f64,
    /// Host controller dispatch time (serial) (s).
    pub controller_s: f64,
}

impl LatencyBreakdown {
    /// Total simulated runtime (s).
    pub fn total_s(&self) -> f64 {
        self.write_s + self.and_s + self.bitcount_s + self.readout_s + self.controller_s
    }
}

/// Where the simulated energy went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Array WRITE energy (J).
    pub write_j: f64,
    /// AND energy (J).
    pub and_j: f64,
    /// Bit-counter energy (J).
    pub bitcount_j: f64,
    /// AND-result readout energy (local counting only) (J).
    pub readout_j: f64,
    /// Peripheral leakage over the runtime (J).
    pub leakage_j: f64,
    /// Host controller energy (J).
    pub controller_j: f64,
}

impl EnergyBreakdown {
    /// Total energy (J).
    pub fn total_j(&self) -> f64 {
        self.write_j
            + self.and_j
            + self.bitcount_j
            + self.readout_j
            + self.leakage_j
            + self.controller_j
    }
}

/// Result of one simulated TCIM run.
#[derive(Debug, Clone)]
pub struct PimRunResult {
    /// The triangle count — functionally exact, produced by the simulated
    /// AND/BitCount dataflow itself.
    pub triangles: u64,
    /// Access statistics (Fig. 5 quantities).
    pub stats: AccessStats,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Event trace (empty unless enabled in the config).
    pub trace: EventTrace,
}

impl PimRunResult {
    /// Total simulated runtime (s).
    pub fn total_time_s(&self) -> f64 {
        self.latency.total_s()
    }

    /// Total simulated energy (J).
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// Executes Algorithm 1 over an oriented sliced matrix: the one kernel
/// walker ([`kernel::walk`]) charged to the array's buffer, then rolled
/// up into latency and energy. With a `sink`, every non-zero AND result
/// is also read back out of the array and its surviving bits are
/// reported as triangles. The entry points are [`PimEngine::run`] and
/// [`PimEngine::run_attributed`].
///
/// # Panics
///
/// Panics if `matrix` was built with a different slice size than the
/// engine's configuration — a mapping bug at the call site.
pub(crate) fn execute<S: TriangleSink + ?Sized>(
    engine: &PimEngine,
    matrix: &SlicedMatrix,
    sink: Option<&mut S>,
) -> PimRunResult {
    let config = engine.config();
    assert_eq!(
        matrix.slice_size(),
        config.slice_size,
        "matrix slice size must match the engine configuration"
    );
    let cache = SliceCache::new(
        engine.column_capacity(matrix),
        config.replacement,
        config.replacement_seed,
    );
    let mut buffer = ArrayBuffer::new(cache, EventTrace::new(config.trace_capacity));
    // The bit counter is the 8→256 LUT of §V-A.
    let rows = std::iter::once(0..matrix.edge_count());
    let walk = kernel::walk(matrix, rows, PopcountMethod::Lut8, &mut buffer, sink);
    let (latency, energy) = engine.roll_up(&walk.stats);
    PimRunResult {
        triangles: walk.triangles,
        stats: walk.stats,
        latency,
        energy,
        trace: buffer.into_trace(),
    }
}
