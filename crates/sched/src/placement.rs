//! Slice-to-array placement: the three policies and their invariants.

use tcim_arch::{ReplacementPolicy, SliceCache, SliceCostModel};

use crate::jobs::RowJob;
use crate::policy::PlacementPolicy;

/// The result of placing row jobs onto `arrays` computational arrays.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of arrays placed onto.
    pub arrays: usize,
    /// The policy that produced this placement.
    pub policy: PlacementPolicy,
    /// The decomposed jobs, in row order.
    pub jobs: Vec<RowJob>,
    /// `assignment[j]` is the array index of `jobs[j]`.
    pub assignment: Vec<u32>,
    /// Estimated busy time per array under the cold-cache cost model.
    pub est_busy_per_array: Vec<f64>,
}

impl Placement {
    /// Places `jobs` onto `arrays` arrays with `policy`.
    ///
    /// `residency_capacity`, `residency` and `residency_seed` describe
    /// the per-array column-slice buffer the reuse-aware policy models —
    /// size, replacement behavior and the per-array seeding, which must
    /// match what the run will actually execute with (ignored by the
    /// other policies).
    pub fn place(
        jobs: Vec<RowJob>,
        arrays: usize,
        policy: PlacementPolicy,
        costs: &SliceCostModel,
        residency_capacity: usize,
        residency: ReplacementPolicy,
        residency_seed: u64,
    ) -> Placement {
        assert!(arrays > 0, "placement requires at least one array");
        let assignment = match policy {
            PlacementPolicy::RoundRobin => round_robin(&jobs, arrays),
            // Jobs come in row order, so LPT's input-order tie-break
            // is the row order.
            PlacementPolicy::LoadBalanced => lpt(&jobs, arrays, |job| job.est_busy_s)
                .0
                .into_iter()
                .map(|a| a as u32)
                .collect(),
            PlacementPolicy::ReuseAware => reuse_aware(
                &jobs,
                arrays,
                costs,
                residency_capacity,
                residency,
                residency_seed,
            ),
        };
        let mut est_busy_per_array = vec![0.0f64; arrays];
        for (job, &a) in jobs.iter().zip(&assignment) {
            est_busy_per_array[a as usize] += job.est_busy_s;
        }
        Placement { arrays, policy, jobs, assignment, est_busy_per_array }
    }

    /// Checks the fundamental invariant: every job is placed exactly once
    /// onto a valid array. Returns the per-array job counts.
    ///
    /// # Panics
    ///
    /// Panics when the invariant is violated — placement bugs must not
    /// silently drop or duplicate work.
    pub fn validate(&self) -> Vec<usize> {
        assert_eq!(
            self.assignment.len(),
            self.jobs.len(),
            "every job needs exactly one assignment"
        );
        let mut counts = vec![0usize; self.arrays];
        for &a in &self.assignment {
            assert!(
                (a as usize) < self.arrays,
                "job assigned to array {a} of {}",
                self.arrays
            );
            counts[a as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), self.jobs.len());
        counts
    }

    /// Estimated load-imbalance factor: max over mean of per-array
    /// estimated busy time (1.0 = perfectly balanced; only meaningful
    /// when there is work).
    pub fn est_imbalance(&self) -> f64 {
        imbalance(&self.est_busy_per_array)
    }

    /// Summarizes each array's share of the placement — job count,
    /// arcs, slice pairs, estimated busy time — for diagnostics (query
    /// EXPLAIN plans render one line per array from this).
    pub fn per_array_summary(&self) -> Vec<ArrayAssignment> {
        let mut summary: Vec<ArrayAssignment> = (0..self.arrays)
            .map(|array| ArrayAssignment {
                array,
                jobs: 0,
                arcs: 0,
                slice_pairs: 0,
                est_busy_s: self.est_busy_per_array[array],
            })
            .collect();
        for (job, &a) in self.jobs.iter().zip(&self.assignment) {
            let entry = &mut summary[a as usize];
            entry.jobs += 1;
            entry.arcs += job.cols.len() as u64;
            entry.slice_pairs += job.pairs;
        }
        summary
    }
}

/// One array's share of a [`Placement`], summarized for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayAssignment {
    /// Array index.
    pub array: usize,
    /// Row jobs assigned to this array.
    pub jobs: usize,
    /// Processed arcs (edges) across those jobs.
    pub arcs: u64,
    /// Valid slice pairs across those jobs.
    pub slice_pairs: u64,
    /// Estimated busy time under the cold-cache cost model (s).
    pub est_busy_s: f64,
}

/// Max-over-mean of a non-negative load vector; 1.0 when empty or idle.
pub(crate) fn imbalance(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

fn round_robin(jobs: &[RowJob], arrays: usize) -> Vec<u32> {
    (0..jobs.len()).map(|j| (j % arrays) as u32).collect()
}

/// Longest-processing-time-first list scheduling, the one LPT behind
/// [`PlacementPolicy::LoadBalanced`] row placement and cost-aware delta
/// placement ([`plan_deltas`](crate::plan_deltas)): jobs are taken
/// largest `est` first, in input order on ties, and each goes to the
/// least-loaded array, the lowest-numbered one on ties. Returns each
/// job's array, in input order, and each array's load summed in
/// placement order.
///
/// # Panics
///
/// Panics when an estimate is NaN, or when `arrays` is zero and there
/// are jobs.
pub(crate) fn lpt<J>(
    jobs: &[J],
    arrays: usize,
    est: impl Fn(&J) -> f64,
) -> (Vec<usize>, Vec<f64>) {
    // The returned vectors are allocated before the scratch `order`, so
    // freeing `order` leaves no hole under them. Delta placement runs
    // once per priced peel pass; in the other order the k-truss
    // workload's peak RSS read about 3% higher.
    let mut assignment = vec![0usize; jobs.len()];
    let mut load = vec![0.0f64; arrays];
    lpt_into(jobs, &mut load, &mut Vec::new(), est, |j, target| assignment[j] = target);
    (assignment, load)
}

/// [`lpt`] into caller-kept buffers: adds each job's `est` to its
/// array's entry of `load` (one entry per array, summed onto what it
/// holds) and calls `place(job, array)` in placement order. `order` is
/// scratch, overwritten.
///
/// # Panics
///
/// As [`lpt`], with `load.len()` arrays.
pub(crate) fn lpt_into<J>(
    jobs: &[J],
    load: &mut [f64],
    order: &mut Vec<usize>,
    est: impl Fn(&J) -> f64,
    mut place: impl FnMut(usize, usize),
) {
    order.clear();
    order.extend(0..jobs.len());
    // Equal estimates keep input order: ties break on the job's index,
    // so the unstable sort, which allocates nothing, orders exactly as a
    // stable one.
    order.sort_unstable_by(|&a, &b| {
        let by_est = est(&jobs[b]).partial_cmp(&est(&jobs[a]));
        by_est.expect("busy estimates are finite").then(a.cmp(&b))
    });
    for &j in order.iter() {
        let target =
            (1..load.len()).fold(0, |best, a| if load[a] < load[best] { a } else { best });
        place(j, target);
        load[target] += est(&jobs[j]);
    }
}

/// Reuse-aware greedy: jobs are visited in row order (the order arrays
/// will execute them) and each is placed on the array minimising the
/// projected finish time *after* subtracting the WRITE cost its resident
/// column slices would save. Each array's residency is modelled with the
/// same buffer (capacity *and* replacement policy) the run executes
/// with.
fn reuse_aware(
    jobs: &[RowJob],
    arrays: usize,
    costs: &SliceCostModel,
    residency_capacity: usize,
    replacement: ReplacementPolicy,
    replacement_seed: u64,
) -> Vec<u32> {
    let mut load = vec![0.0f64; arrays];
    let mut residency: Vec<SliceCache> = (0..arrays)
        .map(|a| {
            SliceCache::new(
                residency_capacity.max(1),
                replacement,
                replacement_seed.wrapping_add(a as u64),
            )
        })
        .collect();
    let mut assignment = vec![0u32; jobs.len()];
    for (j, job) in jobs.iter().enumerate() {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        let mut best_saved = 0.0f64;
        for (a, model) in residency.iter().enumerate() {
            let hits = job.col_keys.iter().filter(|&&k| model.contains(k)).count() as u64;
            let saved = hits as f64 * costs.write_latency_s;
            let score = load[a] + job.est_busy_s - saved;
            if score < best_score {
                best_score = score;
                best = a;
                best_saved = saved;
            }
        }
        assignment[j] = best as u32;
        load[best] += job.est_busy_s - best_saved;
        for &key in &job.col_keys {
            residency[best].access(key);
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::decompose;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    /// A star + chain graph: row 0 is far heavier than the others.
    fn skewed_jobs() -> Vec<RowJob> {
        let mut b = SlicedMatrixBuilder::new(400, SliceSize::S64);
        for v in 1..400 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..399 {
            b.add_edge(v, v + 1).unwrap();
        }
        decompose(&b.build(), &costs())
    }

    #[test]
    fn every_policy_places_each_job_exactly_once() {
        let c = costs();
        for policy in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let p = Placement::place(
                    skewed_jobs(),
                    arrays,
                    policy,
                    &c,
                    64,
                    ReplacementPolicy::Lru,
                    0,
                );
                let counts = p.validate();
                assert_eq!(counts.iter().sum::<usize>(), p.jobs.len(), "{policy} x{arrays}");
            }
        }
    }

    #[test]
    fn round_robin_deals_in_rotation() {
        let p = Placement::place(
            skewed_jobs(),
            4,
            PlacementPolicy::RoundRobin,
            &costs(),
            64,
            ReplacementPolicy::Lru,
            0,
        );
        for (j, &a) in p.assignment.iter().enumerate() {
            assert_eq!(a as usize, j % 4);
        }
    }

    #[test]
    fn lpt_beats_round_robin_on_skew() {
        let c = costs();
        for arrays in [2usize, 4, 8] {
            let rr = Placement::place(
                skewed_jobs(),
                arrays,
                PlacementPolicy::RoundRobin,
                &c,
                64,
                ReplacementPolicy::Lru,
                0,
            );
            let lpt = Placement::place(
                skewed_jobs(),
                arrays,
                PlacementPolicy::LoadBalanced,
                &c,
                64,
                ReplacementPolicy::Lru,
                0,
            );
            let rr_max = rr.est_busy_per_array.iter().cloned().fold(0.0, f64::max);
            let lpt_max = lpt.est_busy_per_array.iter().cloned().fold(0.0, f64::max);
            assert!(
                lpt_max <= rr_max + 1e-18,
                "LPT {lpt_max} vs RR {rr_max} on {arrays} arrays"
            );
            assert!(lpt.est_imbalance() <= rr.est_imbalance() + 1e-12);
        }
    }

    #[test]
    fn single_array_placement_is_trivial() {
        let c = costs();
        for policy in PlacementPolicy::ALL {
            let p =
                Placement::place(skewed_jobs(), 1, policy, &c, 64, ReplacementPolicy::Lru, 0);
            assert!(p.assignment.iter().all(|&a| a == 0));
            assert!((p.est_imbalance() - 1.0).abs() < 1e-12);
        }
    }

    /// Two interleaved cliques with disjoint column-slice footprints:
    /// clique A on the even vertices of 0..64, clique B on the odd ones.
    /// Row order interleaves A and B jobs, so a reuse-blind balancer
    /// scatters both cliques over both arrays while the reuse-aware
    /// policy can colocate each clique with its resident slices.
    fn two_clique_jobs() -> Vec<RowJob> {
        let mut b = SlicedMatrixBuilder::new(64, SliceSize::S64);
        for u in (0..64usize).step_by(2) {
            for v in ((u + 2)..64).step_by(2) {
                b.add_edge(u, v).unwrap();
            }
        }
        for u in (1..64usize).step_by(2) {
            for v in ((u + 2)..64).step_by(2) {
                b.add_edge(u, v).unwrap();
            }
        }
        decompose(&b.build(), &costs())
    }

    #[test]
    fn reuse_aware_colocates_shared_column_slices() {
        let c = costs();
        let jobs = two_clique_jobs();
        let p = Placement::place(
            jobs.clone(),
            2,
            PlacementPolicy::ReuseAware,
            &c,
            4096,
            ReplacementPolicy::Lru,
            0,
        );
        p.validate();
        // Estimated total resident hits of an assignment: keys already
        // placed on the same array by an earlier job.
        let hits = |assignment: &[u32]| -> usize {
            let mut seen: Vec<std::collections::HashSet<u64>> =
                vec![std::collections::HashSet::new(); 2];
            let mut total = 0;
            for (job, &a) in jobs.iter().zip(assignment) {
                total +=
                    job.col_keys.iter().filter(|&&k| seen[a as usize].contains(&k)).count();
                seen[a as usize].extend(job.col_keys.iter().copied());
            }
            total
        };
        let rr = Placement::place(
            jobs.clone(),
            2,
            PlacementPolicy::RoundRobin,
            &c,
            4096,
            ReplacementPolicy::Lru,
            0,
        );
        assert!(
            hits(&p.assignment) >= hits(&rr.assignment),
            "reuse-aware {:?} vs round-robin {:?}",
            p.assignment,
            rr.assignment
        );
    }

    /// LPT's two tie-breaks, on which every load-balanced and delta
    /// placement (and so every modelled bit) depends: equal estimates
    /// keep input order, and equal loads go to the lowest-numbered
    /// array.
    #[test]
    fn lpt_breaks_ties_by_input_order_then_lowest_array() {
        // Equal estimates only: jobs deal out in input order, each to
        // the first of the equally idle arrays, and the fourth finds all
        // three loads equal again.
        let (assignment, load) = lpt(&[1.0, 1.0, 1.0, 1.0], 3, |&e| e);
        assert_eq!(assignment, vec![0, 1, 2, 0]);
        assert_eq!(load, vec![2.0, 1.0, 1.0]);
        // Jobs 0 and 3 tie at 2.0, so job 0 goes first (array 0) and job
        // 3 second (array 1). Both loads then read 2.0, so job 1 goes to
        // array 0 and job 2 to array 1. Breaking either tie the other
        // way gives [1, 1, 0, 0].
        let (assignment, load) = lpt(&[2.0, 1.0, 1.0, 2.0], 2, |&e| e);
        assert_eq!(assignment, vec![0, 0, 1, 1]);
        assert_eq!(load, vec![3.0, 3.0]);
    }

    #[test]
    fn imbalance_of_idle_load_is_one() {
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance(&[]), 1.0);
        assert!((imbalance(&[2.0, 1.0, 1.0]) - 1.5).abs() < 1e-12);
    }
}
