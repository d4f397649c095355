//! The planned-run API ([`ScheduledRun`]), executed over host worker
//! threads with a deterministic merge.
//!
//! Host-side parallelism uses `std::thread::scope` worker fan-out (the
//! build environment has no registry access, so a rayon dependency is
//! deliberately avoided; scoped threads give the same fork-join shape).
//! Determinism: per-array results are merged in array order, so the
//! reported counts and statistics are independent of thread
//! interleaving.

use std::time::Instant;

use tcim_arch::{PimEngine, SliceCostModel, TriangleTally};
use tcim_bitmatrix::SlicedMatrix;

use crate::error::{Result, SchedError};
use crate::executor::run_array;
use crate::jobs::{decompose, RowJob};
use crate::placement::Placement;
use crate::policy::SchedPolicy;
use crate::report::ScheduledReport;

/// A planned scheduled run: a matrix bound to a placement, ready to
/// execute (possibly several times).
#[derive(Debug)]
pub struct ScheduledRun<'a> {
    engine: &'a PimEngine,
    matrix: &'a SlicedMatrix,
    policy: SchedPolicy,
    placement: Placement,
    /// The cost model resolved once at plan time and reused by every
    /// `execute` call, so repeated executions of one plan never
    /// re-resolve characterization-derived pricing.
    costs: SliceCostModel,
    placement_time: std::time::Duration,
}

impl<'a> ScheduledRun<'a> {
    /// Plans a run: decomposes `matrix` into row jobs and places them
    /// onto `policy.arrays` arrays. Resolves the engine's cost model
    /// internally; callers that already hold one (a prepared pipeline)
    /// use [`ScheduledRun::plan_with_costs`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidPolicy`] for a malformed policy and
    /// [`SchedError::SliceSizeMismatch`] when `matrix` was sliced with a
    /// different slice size than `engine` is characterized for.
    pub fn plan(
        engine: &'a PimEngine,
        matrix: &'a SlicedMatrix,
        policy: &SchedPolicy,
    ) -> Result<ScheduledRun<'a>> {
        let costs = engine.cost_model();
        ScheduledRun::plan_with_costs(engine, matrix, policy, costs)
    }

    /// Plans a run against an externally prepared cost model — the
    /// characterize-once seam: the caller resolved pricing once (e.g. at
    /// graph-preparation time) and every plan/execute cycle reuses it.
    ///
    /// # Errors
    ///
    /// As [`ScheduledRun::plan`].
    pub fn plan_with_costs(
        engine: &'a PimEngine,
        matrix: &'a SlicedMatrix,
        policy: &SchedPolicy,
        costs: SliceCostModel,
    ) -> Result<ScheduledRun<'a>> {
        policy.validate()?;
        if matrix.slice_size() != engine.config().slice_size {
            return Err(SchedError::SliceSizeMismatch {
                engine_bits: engine.config().slice_size.bits(),
                matrix_bits: matrix.slice_size().bits(),
            });
        }
        let schedule_span = tcim_telemetry::span("schedule");
        let start = Instant::now();
        let jobs = decompose(matrix, &costs);
        // Model the residency buffer the run will actually have: the
        // per-array share minus the row-region reservation. Assignments
        // are unknown while placing, so reserve the widest row of the
        // whole matrix — conservative for arrays that end up with
        // narrower rows.
        let widest_row = jobs.iter().map(|j| j.row_slices as usize).max().unwrap_or(0);
        let residency_capacity =
            per_array_capacity(engine, policy.arrays).saturating_sub(widest_row).max(1);
        let placement = Placement::place(
            jobs,
            policy.arrays,
            policy.placement,
            &costs,
            residency_capacity,
            engine.config().replacement,
            engine.config().replacement_seed,
        );
        placement.validate();
        drop(schedule_span);
        Ok(ScheduledRun {
            engine,
            matrix,
            policy: policy.clone(),
            placement,
            costs,
            placement_time: start.elapsed(),
        })
    }

    /// The placement this run will execute.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Executes the planned run: fans per-array work over host worker
    /// threads, merges triangle counts and statistics deterministically,
    /// and aggregates inter-array timing/energy.
    pub fn execute(&self) -> ScheduledReport {
        self.execute_into(None)
    }

    /// Executes the planned run, reading non-zero AND results out into
    /// `tally` when one is given: every array fills an empty partial of
    /// the tally's shape ([`TriangleTally::empty_like`]; matrix ids,
    /// arcs at their matrix positions), and the partials merge into
    /// `tally` deterministically in array order.
    ///
    /// The readouts appear in the per-array statistics and are priced
    /// into the report's critical path and energy, mirroring the serial
    /// engine's attributed run.
    pub fn execute_into(&self, mut tally: Option<&mut TriangleTally<'_>>) -> ScheduledReport {
        let arrays = self.policy.arrays;
        let per_array_jobs: Vec<Vec<&RowJob>> = (0..arrays)
            .map(|a| {
                self.placement
                    .rows_of(a)
                    .into_iter()
                    .map(|j| &self.placement.jobs[j])
                    .collect()
            })
            .collect();
        let capacity = per_array_capacity(self.engine, arrays);
        let replacement = self.engine.config().replacement;
        let base_seed = self.engine.config().replacement_seed;

        let start = Instant::now();
        // One span covers the whole fan-out: per-array work runs on
        // worker threads, which the calling thread's profiler cannot
        // observe, so the array phase is timed as a unit here.
        let array_span = tcim_telemetry::span("array");
        let shape = tally.as_deref();
        let runs = parallel_map_indexed(arrays, self.host_threads(), |a| {
            let jobs = &per_array_jobs[a];
            // Reserve the widest assigned row inside this array's
            // share of the buffer, exactly like the serial engine
            // reserves its widest row.
            let row_reserve = jobs.iter().map(|j| j.row_slices as usize).max().unwrap_or(0);
            let mut partial = shape.map(TriangleTally::empty_like);
            let walk = run_array(
                self.matrix,
                jobs,
                capacity.saturating_sub(row_reserve).max(1),
                replacement,
                base_seed.wrapping_add(a as u64),
                partial.as_mut(),
            );
            (walk, partial)
        });
        drop(array_span);
        let host_sim_time = start.elapsed();

        // Deterministic merge: array order, independent of thread timing.
        let triangles = runs.iter().map(|(walk, _)| walk.triangles).sum();
        let rows_per_array: Vec<usize> =
            per_array_jobs.iter().map(std::vec::Vec::len).collect();
        let mut stats_per_array = Vec::with_capacity(runs.len());
        for (walk, partial) in runs {
            stats_per_array.push(walk.stats);
            if let (Some(total), Some(partial)) = (tally.as_deref_mut(), partial) {
                total.merge(partial);
            }
        }
        ScheduledReport::assemble(
            triangles,
            self.policy.clone(),
            &rows_per_array,
            stats_per_array,
            &self.costs,
            self.placement_time,
            host_sim_time,
        )
    }

    fn host_threads(&self) -> usize {
        self.policy.resolved_host_threads()
    }
}

/// Applies `f` to `0..n`, fanning over at most `threads` scoped worker
/// threads; results come back indexed, so output order is deterministic
/// regardless of scheduling.
///
/// Exposed because every layer that fans per-array work over the host
/// (this crate's runner, the `tcim-stream` delta executor) needs the
/// identical deterministic fork-join shape.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let chunks = results.chunks_mut(n.div_ceil(workers));
        for (w, chunk) in chunks.enumerate() {
            let f = &f;
            let base = w * n.div_ceil(workers);
            scope.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is computed by exactly one worker"))
        .collect()
}

/// Column-slice buffer capacity available to each of `arrays` equal
/// partitions of the engine's data buffer.
fn per_array_capacity(engine: &PimEngine, arrays: usize) -> usize {
    (engine.capacity_slices() / arrays.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlacementPolicy;
    use tcim_arch::PimConfig;
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn engine() -> PimEngine {
        PimEngine::new(&PimConfig::default()).unwrap()
    }

    fn wheel_matrix(n: usize) -> SlicedMatrix {
        // Hub 0 plus a rim cycle: n - 1 rim triangles.
        let mut b = SlicedMatrixBuilder::new(n, SliceSize::S64);
        for v in 1..n {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..n - 1 {
            b.add_edge(v, v + 1).unwrap();
        }
        b.add_edge(n - 1, 1).unwrap();
        b.build()
    }

    #[test]
    fn scheduled_count_matches_serial_for_every_policy_and_width() {
        let e = engine();
        let m = wheel_matrix(300);
        let serial = e.run(&m).triangles;
        assert_eq!(serial, 299);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: Some(2) };
                let report = ScheduledRun::plan(&e, &m, &policy).unwrap().execute().triangles;
                assert_eq!(report, serial, "{placement} x{arrays}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_host_agree_exactly() {
        let e = engine();
        let m = wheel_matrix(500);
        let serial_host = SchedPolicy { host_threads: Some(1), ..SchedPolicy::with_arrays(8) };
        let parallel_host = SchedPolicy { host_threads: None, ..SchedPolicy::with_arrays(8) };
        let a = ScheduledRun::plan(&e, &m, &serial_host).unwrap().execute();
        let b = ScheduledRun::plan(&e, &m, &parallel_host).unwrap().execute();
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.critical_path_s, b.critical_path_s);
    }

    #[test]
    fn attributed_run_matches_serial_local_counts() {
        let e = engine();
        let m = wheel_matrix(120);
        let offsets = tcim_arch::ArcIndex::row_offsets(m.dim(), m.arcs());
        let arcs = tcim_arch::ArcIndex::new(m.arcs(), &offsets);
        let mut tally = TriangleTally::new(m.dim(), Some(arcs));
        let serial = e.run_attributed(&m, &mut tally);
        let (_, serial_per_vertex, serial_support) = tally.into_parts();
        for arrays in [1usize, 2, 4, 8] {
            let policy =
                SchedPolicy { arrays, host_threads: Some(2), ..SchedPolicy::default() };
            let mut tally = TriangleTally::new(m.dim(), Some(arcs));
            let report =
                ScheduledRun::plan(&e, &m, &policy).unwrap().execute_into(Some(&mut tally));
            let (_, per_vertex, support) = tally.into_parts();
            assert_eq!(report.triangles, serial.triangles, "{arrays} arrays");
            assert_eq!(per_vertex, serial_per_vertex, "{arrays} arrays");
            assert_eq!(support, serial_support, "{arrays} arrays");
            assert_eq!(report.stats.result_readouts, serial.stats.result_readouts);
        }
        // Every triangle contributes to exactly three arcs.
        let total: u64 = serial_support.unwrap().iter().sum();
        assert_eq!(total, 3 * serial.triangles);
    }

    #[test]
    fn plan_rejects_slice_size_mismatch() {
        let e = engine();
        let mut b = SlicedMatrixBuilder::new(8, SliceSize::S32);
        b.add_edge(0, 1).unwrap();
        let m = b.build();
        let err = ScheduledRun::plan(&e, &m, &SchedPolicy::default()).unwrap_err();
        assert!(matches!(err, SchedError::SliceSizeMismatch { .. }));
    }

    #[test]
    fn empty_matrix_schedules_cleanly() {
        let e = engine();
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        let report = ScheduledRun::plan(&e, &m, &SchedPolicy::default()).unwrap().execute();
        assert_eq!(report.triangles, 0);
        assert_eq!(report.critical_path_s, 0.0);
        assert_eq!(report.imbalance, 1.0);
    }

    #[test]
    fn parallel_map_is_deterministic_and_complete() {
        let out = parallel_map_indexed(37, 5, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let serial = parallel_map_indexed(7, 1, |i| i + 1);
        assert_eq!(serial, vec![1, 2, 3, 4, 5, 6, 7]);
    }
}
