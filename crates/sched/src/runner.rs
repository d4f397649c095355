//! The planned-run API ([`ScheduledRun`]) and the compact plan it
//! executes ([`SchedulePlan`]), run over host worker threads with a
//! deterministic merge.
//!
//! Planning decomposes the matrix into row jobs and places them
//! ([`Placement`]); the plan keeps only what execution reads — per
//! array, each assigned row's span of the matrix's arc list — so a
//! caller can memoize it per matrix and policy and run it many times.
//!
//! Host-side parallelism uses `std::thread::scope` worker fan-out (the
//! build environment has no registry access, so a rayon dependency is
//! deliberately avoided; scoped threads give the same fork-join shape).
//! Determinism: per-array results are merged in array order, so the
//! reported counts and statistics are independent of thread
//! interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tcim_arch::{PimEngine, ReplacementPolicy, SliceCostModel, TriangleTally};
use tcim_bitmatrix::{SliceSize, SlicedMatrix};

use crate::error::{Result, SchedError};
use crate::executor::{run_array, RowSpan};
use crate::jobs::decompose;
use crate::placement::{imbalance, ArrayAssignment, Placement};
use crate::policy::{PlacementPolicy, SchedPolicy};
use crate::report::ScheduledReport;

/// A planned scheduled run: a matrix bound to a placement, ready to
/// execute (possibly several times).
#[derive(Debug)]
pub struct ScheduledRun<'a> {
    matrix: &'a SlicedMatrix,
    policy: SchedPolicy,
    placement: Placement,
    plan: SchedulePlan,
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
        engine: &PimEngine,
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
        engine: &PimEngine,
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
        let key = PlanKey::of(engine, policy, costs);
        let jobs = decompose(matrix, &costs);
        // Model the residency buffer the run will actually have: the
        // per-array share minus the row-region reservation. Assignments
        // are unknown while placing, so reserve the widest row of the
        // whole matrix — conservative for arrays that end up with
        // narrower rows.
        let widest_row = jobs.iter().map(|j| j.row_slices as usize).max().unwrap_or(0);
        let placement = Placement::place(
            jobs,
            policy.arrays,
            policy.placement,
            &costs,
            key.capacity.saturating_sub(widest_row).max(1),
            key.replacement,
            key.replacement_seed,
        );
        placement.validate();
        let plan = SchedulePlan::freeze(key, matrix, &placement, start);
        drop(schedule_span);
        Ok(ScheduledRun { matrix, policy: policy.clone(), placement, plan })
    }

    /// The placement this run will execute.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The compact plan this run executes, without the placement's row
    /// jobs — the form a prepared artifact memoizes.
    pub fn into_plan(self) -> SchedulePlan {
        self.plan
    }

    /// Executes the planned run: fans per-array work over host worker
    /// threads, merges triangle counts and statistics deterministically,
    /// and aggregates inter-array timing/energy.
    pub fn execute(&self) -> ScheduledReport {
        self.execute_into(None)
    }

    /// Executes the planned run, reading non-zero AND results out into
    /// `tally` when one is given (see [`SchedulePlan::execute_into`]).
    pub fn execute_into(&self, tally: Option<&mut TriangleTally<'_>>) -> ScheduledReport {
        self.plan.execute_into(self.matrix, &self.policy, tally, self.plan.plan_time())
    }
}

/// Everything a placement reads besides the matrix: the array count
/// and placement policy, the cost model, the engine's slice size and
/// each array's residency buffer (capacity, replacement policy and
/// seed). Host threads are not part of it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanKey {
    arrays: usize,
    placement: PlacementPolicy,
    costs: SliceCostModel,
    slice_size: SliceSize,
    capacity: usize,
    replacement: ReplacementPolicy,
    replacement_seed: u64,
}

impl PlanKey {
    fn of(engine: &PimEngine, policy: &SchedPolicy, costs: SliceCostModel) -> PlanKey {
        let config = engine.config();
        PlanKey {
            arrays: policy.arrays,
            placement: policy.placement,
            costs,
            slice_size: config.slice_size,
            capacity: per_array_capacity(engine, policy.arrays),
            replacement: config.replacement,
            replacement_seed: config.replacement_seed,
        }
    }
}

/// A placement frozen for execution: per array, each assigned row's
/// span of the matrix's arc list (first arc position, arc count) and
/// the [`ArrayAssignment`] summary, plus the residency buffer the arrays
/// run with. It holds no
/// row job's columns or column keys — only placement reads those — so
/// it stays small enough to memoize on a prepared artifact
/// ([`ScheduledRun::into_plan`]).
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    key: PlanKey,
    arcs: usize,
    per_array: Vec<ArrayPlan>,
    plan_time: Duration,
}

/// One array's share of a [`SchedulePlan`].
#[derive(Debug, Clone)]
struct ArrayPlan {
    /// Assigned rows, ascending (the execution order within the array).
    rows: Vec<RowSpan>,
    /// Valid slices of the widest assigned row: the row-region
    /// reservation inside the array's buffer share.
    row_reserve: usize,
    summary: ArrayAssignment,
}

impl SchedulePlan {
    fn freeze(
        key: PlanKey,
        matrix: &SlicedMatrix,
        placement: &Placement,
        start: Instant,
    ) -> SchedulePlan {
        let mut per_array: Vec<ArrayPlan> = placement
            .per_array_summary()
            .into_iter()
            .map(|summary| ArrayPlan { rows: Vec::new(), row_reserve: 0, summary })
            .collect();
        // Jobs are in row order, so each array's rows stay ascending.
        for (job, &a) in placement.jobs.iter().zip(&placement.assignment) {
            let array = &mut per_array[a as usize];
            array.rows.push(RowSpan::of(job));
            array.row_reserve = array.row_reserve.max(job.row_slices as usize);
        }
        SchedulePlan { key, arcs: matrix.edge_count(), per_array, plan_time: start.elapsed() }
    }

    /// Whether this plan is the one [`ScheduledRun::plan_with_costs`]
    /// freezes for `policy` and `costs` on `engine` (over the same
    /// matrix): array count, placement, cost model, slice size and
    /// per-array residency buffer agree. Host threads do not matter.
    pub fn is_for(
        &self,
        engine: &PimEngine,
        policy: &SchedPolicy,
        costs: &SliceCostModel,
    ) -> bool {
        self.key == PlanKey::of(engine, policy, *costs)
    }

    /// Each array's share — job count, arcs, slice pairs, estimated
    /// busy time — in array order (query EXPLAIN plans render one line
    /// per array from this).
    pub fn per_array_summary(&self) -> Vec<ArrayAssignment> {
        self.per_array.iter().map(|array| array.summary).collect()
    }

    /// Estimated load-imbalance factor of the placement (see
    /// [`Placement::est_imbalance`]).
    pub fn est_imbalance(&self) -> f64 {
        let loads: Vec<f64> = self.per_array.iter().map(|a| a.summary.est_busy_s).collect();
        imbalance(&loads)
    }

    /// Host wall-clock time decomposing, placing and freezing took.
    pub fn plan_time(&self) -> Duration {
        self.plan_time
    }

    /// Executes the plan over `matrix` — the matrix it was planned
    /// for — fanning arrays over `policy`'s host threads. Non-zero AND
    /// results are read out into `tally` when one is given: every array
    /// fills an empty partial of the tally's shape
    /// ([`TriangleTally::empty_like`]; matrix ids, arcs at their matrix
    /// positions), and the partials merge into `tally` in array order.
    /// The readouts appear in the per-array statistics and are priced
    /// into the report's critical path and energy, mirroring the serial
    /// engine's attributed run. `placement_time` is the planning the
    /// caller paid for this run (zero when the plan was reused).
    ///
    /// # Panics
    ///
    /// Panics when `matrix` has a different arc count, or `policy` a
    /// different array count or placement, than the plan was built for.
    pub fn execute_into(
        &self,
        matrix: &SlicedMatrix,
        policy: &SchedPolicy,
        mut tally: Option<&mut TriangleTally<'_>>,
        placement_time: Duration,
    ) -> ScheduledReport {
        assert_eq!(
            matrix.edge_count(),
            self.arcs,
            "a plan runs over the matrix it was built for"
        );
        assert!(
            policy.arrays == self.key.arrays && policy.placement == self.key.placement,
            "a plan runs under the array count and placement it was built for"
        );
        let key = &self.key;
        let start = Instant::now();
        // One span covers the whole fan-out: per-array work runs on
        // worker threads, which the calling thread's profiler cannot
        // observe, so the array phase is timed as a unit here.
        let array_span = tcim_telemetry::span("array");
        let shape = tally.as_deref();
        let runs = parallel_map_indexed(key.arrays, policy.resolved_host_threads(), |a| {
            let array = &self.per_array[a];
            // Reserve the widest assigned row inside this array's share
            // of the buffer, exactly like the serial engine reserves its
            // widest row.
            let mut partial = shape.map(TriangleTally::empty_like);
            let walk = run_array(
                matrix,
                &array.rows,
                key.capacity.saturating_sub(array.row_reserve).max(1),
                key.replacement,
                key.replacement_seed.wrapping_add(a as u64),
                partial.as_mut(),
            );
            (walk, partial)
        });
        drop(array_span);
        let host_sim_time = start.elapsed();

        // Deterministic merge: array order, independent of thread timing.
        let triangles = runs.iter().map(|(walk, _)| walk.triangles).sum();
        let rows_per_array: Vec<usize> = self.per_array.iter().map(|a| a.rows.len()).collect();
        let mut stats_per_array = Vec::with_capacity(runs.len());
        for (walk, partial) in runs {
            stats_per_array.push(walk.stats);
            if let (Some(total), Some(partial)) = (tally.as_deref_mut(), partial) {
                total.merge(partial);
            }
        }
        ScheduledReport::assemble(
            triangles,
            policy.clone(),
            &rows_per_array,
            stats_per_array,
            &key.costs,
            placement_time,
            host_sim_time,
        )
    }
}

/// Applies `f` to `0..n` over at most `threads` scoped worker threads
/// and returns the results indexed, so output order is deterministic
/// regardless of scheduling.
///
/// Workers claim indices one at a time from a shared counter, so an
/// expensive index never holds cheap ones back behind it: callers that
/// list their work largest first get a greedy longest-first schedule.
/// One worker (or one index) runs inline on the calling thread.
///
/// Every host fan-out goes through it: this crate's arrays, the sharded
/// backend's pieces and composition arrays (one fan-out per query), the
/// composition pass on its own, the `tcim-stream` delta rounds and the
/// service's batch groups.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices, each exactly once (atomic
    // increments never repeat a value); results travel back through
    // `join`, which orders them. So the claims can be `Relaxed`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, value) in done {
                        results[i] = Some(value);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
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
        let offsets = tcim_arch::ArcOffsets::new(m.dim(), m.arcs());
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
        // Every index runs exactly once, whatever the per-index cost and
        // however n compares with the thread count.
        for (n, threads) in [(0usize, 4usize), (1, 4), (3, 8), (25, 3), (64, 2)] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map_indexed(n, threads, |i| {
                // Uneven costs: every fifth index spins far longer.
                let spins = if i % 5 == 0 { 20_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                runs[i].fetch_add(1, Ordering::Relaxed);
                (i, acc)
            });
            let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "n={n} threads={threads}: an index ran other than once"
            );
        }
    }

    #[test]
    fn a_frozen_plan_reruns_like_the_run_it_came_from() {
        let e = engine();
        let m = wheel_matrix(400);
        for placement in PlacementPolicy::ALL {
            let policy = SchedPolicy { host_threads: Some(2), ..SchedPolicy::with_arrays(4) }
                .placement(placement);
            let run = ScheduledRun::plan(&e, &m, &policy).unwrap();
            let summary = run.placement().per_array_summary();
            let imbalance = run.placement().est_imbalance();
            let first = run.execute();
            let plan = run.into_plan();
            assert_eq!(plan.per_array_summary(), summary, "{placement}");
            assert_eq!(plan.est_imbalance().to_bits(), imbalance.to_bits(), "{placement}");
            assert!(plan.is_for(&e, &policy, &e.cost_model()));
            let serial = SchedPolicy { host_threads: Some(1), ..policy.clone() };
            assert!(plan.is_for(&e, &serial, &e.cost_model()), "host threads are not a key");
            assert!(!plan.is_for(&e, &SchedPolicy::with_arrays(2), &e.cost_model()));
            let again = plan.execute_into(&m, &serial, None, Duration::ZERO);
            assert_eq!(again.triangles, first.triangles);
            assert_eq!(again.stats, first.stats);
            assert_eq!(again.critical_path_s.to_bits(), first.critical_path_s.to_bits());
            assert_eq!(again.total_energy_j.to_bits(), first.total_energy_j.to_bits());
            assert_eq!(again.placement_time, Duration::ZERO);
        }
    }
}
