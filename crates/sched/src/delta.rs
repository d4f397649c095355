//! Batch *delta* jobs: placing per-update AND + BitCount kernels of a
//! dynamic-graph batch onto computational arrays.
//!
//! The streaming layer (`tcim-stream`) turns every edge update into one
//! TCIM kernel invocation — `popcount(N(u) AND N(v))` over the two
//! endpoints' sliced neighbourhood rows. Unlike the row jobs of a full
//! count, delta jobs are tiny, independent and arrive in bursts, so they
//! get their own placement path: no residency model (each pair of rows
//! is touched once), just the cost-model busy-time estimate and the
//! policy's balancing discipline.

use tcim_arch::SliceCostModel;

use crate::error::Result;
use crate::policy::{PlacementPolicy, SchedPolicy};

/// One schedulable delta kernel: the AND + BitCount of a single edge
/// update, priced for placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaJob {
    /// Caller-side identifier (index into the batch round).
    pub id: usize,
    /// Slices written into the array: both operands' valid slices.
    pub write_slices: u64,
    /// Estimated AND + BitCount passes — the matching valid-pair count
    /// of the two operands (exact when computed by an index merge, an
    /// upper bound `min(valid_a, valid_b)` otherwise).
    pub est_pairs: u64,
    /// Cold busy-time estimate (s) from the engine's cost model.
    pub est_busy_s: f64,
}

impl DeltaJob {
    /// Prices a delta kernel whose operands hold `valid_a` and `valid_b`
    /// valid slices with `est_pairs` matching pairs.
    pub fn price(
        id: usize,
        valid_a: u64,
        valid_b: u64,
        est_pairs: u64,
        costs: &SliceCostModel,
    ) -> Self {
        let write_slices = valid_a + valid_b;
        DeltaJob {
            id,
            write_slices,
            est_pairs,
            est_busy_s: costs.estimate_busy_s(write_slices, est_pairs),
        }
    }
}

/// A placement of delta jobs onto arrays, with the modelled per-array
/// busy times the placement implies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPlan {
    /// Number of arrays placed onto.
    pub arrays: usize,
    /// `assignment[k]` is the array of `jobs[k]` (input order).
    pub assignment: Vec<usize>,
    /// Modelled busy time per array (s).
    pub per_array_busy_s: Vec<f64>,
}

impl DeltaPlan {
    /// The modelled critical path of the round: the busiest array.
    pub fn critical_path_s(&self) -> f64 {
        self.per_array_busy_s.iter().copied().fold(0.0, f64::max)
    }

    /// Load-imbalance factor `max / mean` over all arrays, idle ones
    /// included (`1.0` for an empty or perfectly balanced plan) — the
    /// same metric `ScheduledReport` reports for row-job placements.
    pub fn imbalance(&self) -> f64 {
        crate::placement::imbalance(&self.per_array_busy_s)
    }

    /// Job positions grouped by array in one pass: `result[a]` holds
    /// the input-order positions assigned to array `a` (ascending).
    /// The grouped form every per-array executor (stream delta rounds,
    /// shard composition passes) consumes.
    pub fn per_array_jobs(&self) -> Vec<Vec<usize>> {
        let mut per: Vec<Vec<usize>> = vec![Vec::new(); self.arrays];
        for (k, &a) in self.assignment.iter().enumerate() {
            per[a].push(k);
        }
        per
    }
}

/// Places `jobs` onto `policy.arrays` arrays.
///
/// [`PlacementPolicy::RoundRobin`] deals jobs in input order; the
/// cost-aware policies ([`PlacementPolicy::LoadBalanced`] and
/// [`PlacementPolicy::ReuseAware`], which has no residency to exploit
/// for one-shot pairs) run greedy LPT on the busy-time estimates.
///
/// # Errors
///
/// Returns [`SchedError::InvalidPolicy`](crate::SchedError::InvalidPolicy)
/// for a malformed policy.
pub fn plan_deltas(jobs: &[DeltaJob], policy: &SchedPolicy) -> Result<DeltaPlan> {
    policy.validate()?;
    let arrays = policy.arrays;
    let (assignment, per_array_busy_s) = match policy.placement {
        PlacementPolicy::RoundRobin => {
            let assignment: Vec<usize> = (0..jobs.len()).map(|k| k % arrays).collect();
            let mut busy = vec![0.0f64; arrays];
            for (job, &a) in jobs.iter().zip(&assignment) {
                busy[a] += job.est_busy_s;
            }
            (assignment, busy)
        }
        // One-shot operand pairs leave the reuse-aware policy nothing to
        // colocate, so both cost-aware policies balance by LPT.
        PlacementPolicy::LoadBalanced | PlacementPolicy::ReuseAware => {
            crate::placement::lpt(jobs, arrays, |job| job.est_busy_s)
        }
    };
    Ok(DeltaPlan { arrays, assignment, per_array_busy_s })
}

/// The per-array loads of delta rounds, kept across rounds: prices a
/// round by its critical path alone, without materializing a
/// [`DeltaPlan`]. The placement order and the loads are reused, so a
/// caller that prices many rounds (the motif engine's peel passes)
/// allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub struct DeltaLoads {
    order: Vec<usize>,
    loads: Vec<f64>,
}

impl DeltaLoads {
    /// The critical path of `jobs` placed under `policy`: bit for bit
    /// `plan_deltas(jobs, policy)?.critical_path_s()`. Jobs are placed
    /// exactly as [`plan_deltas`] places them and each array's load is
    /// summed in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidPolicy`](crate::SchedError::InvalidPolicy)
    /// for a malformed policy.
    pub fn critical_path_s(&mut self, jobs: &[DeltaJob], policy: &SchedPolicy) -> Result<f64> {
        policy.validate()?;
        self.loads.clear();
        self.loads.resize(policy.arrays, 0.0);
        match policy.placement {
            PlacementPolicy::RoundRobin => {
                for (k, job) in jobs.iter().enumerate() {
                    self.loads[k % policy.arrays] += job.est_busy_s;
                }
            }
            PlacementPolicy::LoadBalanced | PlacementPolicy::ReuseAware => {
                crate::placement::lpt_into(
                    jobs,
                    &mut self.loads,
                    &mut self.order,
                    |job| job.est_busy_s,
                    |_, _| {},
                );
            }
        }
        Ok(self.loads.iter().copied().fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_arch::{PimConfig, PimEngine};

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    fn jobs(busy: &[u64]) -> Vec<DeltaJob> {
        let c = costs();
        busy.iter().enumerate().map(|(id, &p)| DeltaJob::price(id, p, p, p, &c)).collect()
    }

    #[test]
    fn pricing_tracks_writes_and_pairs() {
        let c = costs();
        let small = DeltaJob::price(0, 1, 1, 1, &c);
        let large = DeltaJob::price(1, 10, 10, 10, &c);
        assert_eq!(small.write_slices, 2);
        assert_eq!(large.write_slices, 20);
        assert!(large.est_busy_s > small.est_busy_s);
    }

    #[test]
    fn round_robin_deals_in_input_order() {
        let policy = SchedPolicy::with_arrays(3).placement(PlacementPolicy::RoundRobin);
        let plan = plan_deltas(&jobs(&[1, 1, 1, 1, 1]), &policy).unwrap();
        assert_eq!(plan.assignment, vec![0, 1, 2, 0, 1]);
        assert_eq!(plan.per_array_jobs()[0], vec![0, 3]);
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_rounds() {
        // One giant job plus many small ones: LPT isolates the giant.
        let skew = jobs(&[100, 1, 1, 1, 1, 1, 1, 1]);
        let rr = plan_deltas(
            &skew,
            &SchedPolicy::with_arrays(4).placement(PlacementPolicy::RoundRobin),
        )
        .unwrap();
        let lpt = plan_deltas(
            &skew,
            &SchedPolicy::with_arrays(4).placement(PlacementPolicy::LoadBalanced),
        )
        .unwrap();
        assert!(lpt.critical_path_s() <= rr.critical_path_s());
        assert!(lpt.imbalance() >= 1.0);
        // Every job was placed exactly once.
        assert_eq!(lpt.assignment.len(), skew.len());
        assert!(lpt.assignment.iter().all(|&a| a < 4));
        let placed: usize = lpt.per_array_jobs().iter().map(Vec::len).sum();
        assert_eq!(placed, skew.len());
    }

    #[test]
    fn reuse_aware_falls_back_to_lpt() {
        let j = jobs(&[5, 3, 8, 1]);
        let a = plan_deltas(
            &j,
            &SchedPolicy::with_arrays(2).placement(PlacementPolicy::LoadBalanced),
        )
        .unwrap();
        let b = plan_deltas(
            &j,
            &SchedPolicy::with_arrays(2).placement(PlacementPolicy::ReuseAware),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_round_plans_cleanly() {
        let plan = plan_deltas(&[], &SchedPolicy::with_arrays(4)).unwrap();
        assert!(plan.assignment.is_empty());
        assert_eq!(plan.critical_path_s(), 0.0);
        assert_eq!(plan.imbalance(), 1.0);
    }

    /// Reused loads price every round exactly as a fresh plan does,
    /// under every policy and array count, over rounds that shrink,
    /// grow and tie.
    #[test]
    fn reused_loads_price_rounds_exactly_as_plans_do() {
        let rounds = [
            jobs(&[5, 3, 8, 1, 8, 3, 3]),
            jobs(&[100, 1, 1, 1, 1, 1, 1, 1]),
            jobs(&[2]),
            jobs(&[]),
        ];
        let mut loads = DeltaLoads::default();
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LoadBalanced,
            PlacementPolicy::ReuseAware,
        ] {
            for arrays in [1, 2, 3, 4, 8] {
                let policy = SchedPolicy::with_arrays(arrays).placement(placement);
                for round in &rounds {
                    let planned = plan_deltas(round, &policy).unwrap().critical_path_s();
                    let priced = loads.critical_path_s(round, &policy).unwrap();
                    assert_eq!(priced.to_bits(), planned.to_bits(), "{placement:?} x{arrays}");
                }
            }
        }
        assert!(loads.critical_path_s(&rounds[0], &SchedPolicy::with_arrays(0)).is_err());
    }

    #[test]
    fn invalid_policy_is_rejected() {
        assert!(plan_deltas(&jobs(&[1]), &SchedPolicy::with_arrays(0)).is_err());
    }
}
