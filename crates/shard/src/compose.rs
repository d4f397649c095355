//! The cross-shard composition pass: one AND + BitCount kernel per
//! cross-shard arc, fanned over computational arrays through the
//! `tcim-sched` delta-job machinery.
//!
//! A cross arc `(a, c)` (tail shard `s`, head shard `t > s`) needs
//! `popcount(R_a AND C_c)` over the global bit universe. Both operands
//! are stored split at their shard cuts ([`crate::boundary`]), and
//! because shard slice ranges are disjoint the full kernel decomposes
//! into three region-disjoint sub-passes whose valid-pair counts sum to
//! the monolithic arc's:
//!
//! ```text
//!   R_a.local    AND  C_c.boundary   → middles in shard s
//!   R_a.boundary AND  C_c.boundary   → middles in shards between s and t
//!   R_a.boundary AND  C_c.local      → middles in shard t
//! ```
//!
//! Each surviving bit `w` names the triangle `(a, w, c)` — read back
//! out when attribution is requested, exactly like the monolithic
//! attributed run.
//!
//! The pass is a [`CompositionPlan`] — placement units priced as delta
//! jobs and placed onto arrays, which depends on neither the query nor
//! the host — followed by one [`CompositionPlan::run_array`] per array
//! and one [`CompositionPlan::merge`]. [`CompositionPlan::execute`] fans
//! the arrays out itself; the sharded backend folds them into its own
//! fan-out. [`compose`] plans and executes in one call.
//!
//! A plan lists, per array, only the cross arcs whose walk visits at
//! least one slice pair, and for each the sub-passes that do (the dry
//! walk at extraction knows which, [`BoundarySlices::census`]). An arc
//! or sub-pass that visits no pair ANDs nothing, reads nothing out and
//! closes no triangle; what it does contribute — the pairs the sparse
//! filter skips, and for a whole idle arc one dispatch on dense
//! operands — is added to its array's totals up front, and an idle
//! arc's operand writes stay in its unit's price. An arc dispatches when
//! any of its sub-passes visits a pair, so a listed arc always does.
//! Every [`CompositionRun`] field is the same as walking every sub-pass
//! of every arc.

use tcim_arch::kernel::{self, ArcKernel};
use tcim_arch::{ArcIndex, Attribution, SliceCostModel, TriangleSink, TriangleTally};
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_sched::{parallel_map_indexed, plan_deltas, DeltaJob, PlacementPolicy, SchedPolicy};

use crate::boundary::{sub_passes, BoundarySlices};
use crate::error::{Result, ShardError};
use crate::plan::ShardPlan;
use crate::spec::ShardMode;

/// The merged outcome of one composition pass.
#[derive(Debug, Clone)]
pub struct CompositionRun {
    /// Triangles spanning at least two shards.
    pub triangles: u64,
    /// Per-vertex participation over the *global oriented* id space;
    /// present only for attributed runs.
    pub per_vertex: Option<Vec<u64>>,
    /// Triangle support per global oriented arc, in the partitioned
    /// DAG's row-major arc order ([`ShardPlan::arcs`]); present only
    /// when support was requested.
    pub support: Option<Vec<u64>>,
    /// Kernel dispatches: one per cross-shard arc on dense operands;
    /// sparse operands skip arcs whose summary walk visits nothing.
    pub kernel_invocations: u64,
    /// Valid slice pairs AND + BitCounted across all region sub-passes
    /// (equal to the monolithic pair count over the same arcs on dense
    /// operands; sparse operands skip byte-disjoint pairs).
    pub slice_pairs: u64,
    /// Mutually valid pairs proven zero by the sparse byte-mask filter
    /// and skipped before the AND (zero on dense operands).
    pub blocks_skipped: u64,
    /// Non-zero AND results read back out (attributed runs only).
    pub result_readouts: u64,
    /// Operand slices written into arrays.
    pub write_slices: u64,
    /// Modelled critical path of the pass (serial host dispatch plus
    /// the busiest array's AND/BitCount/readout work), in seconds.
    pub critical_path_s: f64,
    /// Modelled energy of the pass (J).
    pub modelled_energy_j: f64,
    /// Load-imbalance factor of the placement (`max / mean` busy time).
    pub imbalance: f64,
    /// Placement units the pass was scheduled as: arcs in
    /// [`ShardMode::OneD`], `(tail shard, head shard)` edge blocks in
    /// [`ShardMode::TwoD`].
    pub placement_units: usize,
}

/// The placement half of a composition pass: the cross arcs grouped
/// into placement units (single arcs in [`ShardMode::OneD`],
/// `(tail shard, head shard)` edge blocks in [`ShardMode::TwoD`]),
/// priced as `tcim-sched` delta jobs, placed onto arrays, and laid out
/// as the arc list each array runs.
///
/// A plan depends only on the boundary, the shard mode, the policy's
/// array count and placement, and the cost model — not on host threads,
/// attribution or the query — so a sharded artifact builds one per
/// policy and every query reuses it.
#[derive(Debug, Clone)]
pub struct CompositionPlan {
    placement: PlacementPolicy,
    costs: SliceCostModel,
    per_array: Vec<ArrayWork>,
    cross_arcs: usize,
    placement_units: usize,
}

/// One array's share of a plan.
#[derive(Debug, Clone)]
struct ArrayWork {
    /// Positions in [`BoundarySlices::cross_arcs`] of the array's arcs
    /// that visit at least one slice pair, unit by unit.
    arcs: Vec<u32>,
    /// For each listed arc, the sub-passes that visit a pair (bit `s`
    /// for sub-pass `s`).
    passes: Vec<u8>,
    /// Operand slices the array's units write (every arc's operands).
    writes: u64,
    /// Dispatches of the array's arcs that visit no pair: one each on
    /// dense operands, none on sparse ones.
    idle_dispatches: u64,
    /// Pairs the sparse filter skips in the sub-passes that visit no
    /// pair, of idle and listed arcs alike.
    idle_skipped: u64,
    /// Slice pairs the listed arcs visit.
    pairs: u64,
}

impl ArrayWork {
    /// The work of an array placed `arcs` (every arc, unit by unit)
    /// writing `writes` operand slices: the arcs that visit a pair are
    /// listed with the sub-passes that do, the rest folded into the
    /// totals.
    fn keep_visiting(boundary: &BoundarySlices, arcs: &[usize], writes: u64) -> ArrayWork {
        let mut work = ArrayWork {
            arcs: Vec::new(),
            passes: Vec::new(),
            writes,
            idle_dispatches: 0,
            idle_skipped: 0,
            pairs: 0,
        };
        let mut idle = 0u64;
        for &k in arcs {
            let pairs = boundary.arc_pairs(k);
            work.idle_skipped += u64::from(pairs.idle_skipped);
            if pairs.passes != 0 {
                work.arcs.push(u32::try_from(k).expect("cross-arc positions fit in u32"));
                work.passes.push(pairs.passes);
                work.pairs += u64::from(pairs.visited);
            } else {
                idle += 1;
            }
        }
        work.idle_dispatches = kernel::idle_dispatches(boundary.encoding(), idle);
        work
    }
}

/// One array's share of a placement: every arc it runs, unit by unit,
/// and the operand slices its units write.
struct Placed {
    arcs: Vec<usize>,
    writes: u64,
}

/// Groups the cross arcs of `boundary` into placement units, prices
/// each as a delta job and places them onto `policy.arrays` arrays:
/// each array's share, plus the number of units.
fn place_units(
    plan: &ShardPlan,
    boundary: &BoundarySlices,
    policy: &SchedPolicy,
    costs: &SliceCostModel,
) -> Result<(Vec<Placed>, usize)> {
    let arcs = boundary.cross_arcs();
    let positions: Vec<usize> = (0..arcs.len()).collect();
    let blocks: Vec<Vec<usize>>;
    let units: Vec<&[usize]> = match plan.mode() {
        ShardMode::OneD => positions.iter().map(std::slice::from_ref).collect(),
        ShardMode::TwoD => {
            let mut grouped: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
                std::collections::BTreeMap::new();
            for (k, &(a, c)) in arcs.iter().enumerate() {
                grouped.entry((plan.shard_of(a), plan.shard_of(c))).or_default().push(k);
            }
            blocks = grouped.into_values().collect();
            blocks.iter().map(Vec::as_slice).collect()
        }
    };

    // Price each unit: every distinct operand is written once per unit
    // (the 2D mode's reuse), plus a pair upper bound for load
    // balancing. `last_unit_*` remember which unit last wrote each
    // operand.
    let mut last_unit_row = vec![usize::MAX; boundary.row_count()];
    let mut last_unit_col = vec![usize::MAX; boundary.col_count()];
    let jobs: Vec<DeltaJob> = units
        .iter()
        .enumerate()
        .map(|(id, unit)| {
            let (mut row_writes, mut col_writes, mut est_pairs) = (0u64, 0u64, 0u64);
            for &k in *unit {
                let (r, h) = boundary.arc_operands(k);
                let (row, col) = boundary.operands(k);
                if std::mem::replace(&mut last_unit_row[r], id) != id {
                    row_writes += row.valid_slices();
                }
                if std::mem::replace(&mut last_unit_col[h], id) != id {
                    col_writes += col.valid_slices();
                }
                est_pairs += row.valid_slices().min(col.valid_slices());
            }
            DeltaJob::price(id, row_writes, col_writes, est_pairs, costs)
        })
        .collect();
    let placed = plan_deltas(&jobs, policy)
        .map_err(ShardError::Sched)?
        .per_array_jobs()
        .into_iter()
        .map(|placed| Placed {
            arcs: placed.iter().flat_map(|&u| units[u].iter().copied()).collect(),
            writes: placed.iter().map(|&u| jobs[u].write_slices).sum(),
        })
        .collect();
    Ok((placed, units.len()))
}

impl CompositionPlan {
    /// Groups, prices and places the cross arcs of `boundary` (extracted
    /// for `plan`) onto `policy.arrays` arrays under `policy.placement`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Sched`] for an invalid policy.
    pub fn new(
        plan: &ShardPlan,
        boundary: &BoundarySlices,
        policy: &SchedPolicy,
        costs: &SliceCostModel,
    ) -> Result<CompositionPlan> {
        policy.validate().map_err(ShardError::Sched)?;
        let (placed, placement_units) = place_units(plan, boundary, policy, costs)?;
        let per_array = placed
            .iter()
            .map(|placed| ArrayWork::keep_visiting(boundary, &placed.arcs, placed.writes))
            .collect();
        Ok(CompositionPlan {
            placement: policy.placement,
            costs: *costs,
            per_array,
            cross_arcs: boundary.cross_arcs().len(),
            placement_units,
        })
    }

    /// Whether this plan is the one [`CompositionPlan::new`] builds for
    /// `policy` and `costs` (over the same boundary): the array count,
    /// placement policy and cost model agree. Host threads do not matter.
    pub fn is_for(&self, policy: &SchedPolicy, costs: &SliceCostModel) -> bool {
        self.per_array.len() == policy.arrays
            && self.placement == policy.placement
            && self.costs == *costs
    }

    /// Number of arrays the plan places onto.
    pub fn arrays(&self) -> usize {
        self.per_array.len()
    }

    /// Slice pairs `array`'s kernels visit — the size a fan-out orders
    /// the array's run by.
    pub fn array_pairs(&self, array: usize) -> u64 {
        self.per_array[array].pairs
    }

    /// Runs the pass over `boundary` — the material the plan was built
    /// from — with `host_threads` host worker threads: one
    /// [`CompositionPlan::run_array`] per array, then
    /// [`CompositionPlan::merge`].
    ///
    /// # Panics
    ///
    /// As [`CompositionPlan::run_array`].
    pub fn execute(
        &self,
        vertex_count: usize,
        arcs: ArcIndex<'_>,
        boundary: &BoundarySlices,
        host_threads: usize,
        attribution: Attribution,
    ) -> CompositionRun {
        let partials = parallel_map_indexed(self.arrays(), host_threads, |array| {
            self.run_array(array, vertex_count, arcs, boundary, attribution)
        });
        self.merge(partials)
    }

    /// Runs `array`'s kernels over `boundary`, the material the plan was
    /// built from.
    ///
    /// Above [`Attribution::Count`], every non-zero AND result is read
    /// back out and each surviving middle vertex `w` is recorded as the
    /// triangle `(a, w, c)` over `vertex_count` global oriented ids,
    /// with per-arc support at [`Attribution::PerVertexWithSupport`]
    /// over `arcs`, the partitioned DAG's arc index
    /// ([`ShardPlan::arcs`]).
    ///
    /// # Panics
    ///
    /// Panics when `boundary` holds a different number of cross arcs
    /// than the one the plan was built over, or `array` is out of range.
    pub fn run_array<'a>(
        &self,
        array: usize,
        vertex_count: usize,
        arcs: ArcIndex<'a>,
        boundary: &BoundarySlices,
        attribution: Attribution,
    ) -> CompositionPartial<'a> {
        assert_eq!(
            boundary.cross_arcs().len(),
            self.cross_arcs,
            "a composition plan runs over the boundary it was built from"
        );
        let cross_arcs = boundary.cross_arcs();
        let costs = &self.costs;
        let need_support = attribution == Attribution::PerVertexWithSupport;
        let work = &self.per_array[array];
        let mut partial = CompositionPartial {
            invocations: work.idle_dispatches,
            skipped: work.idle_skipped,
            writes: work.writes,
            tally: attribution.tally(vertex_count, || arcs),
            ..CompositionPartial::default()
        };
        for (&k, &passes) in work.arcs.iter().zip(&work.passes) {
            let k = k as usize;
            // Support accrues at the cross arc's global position.
            if let Some(tally) = partial.tally.as_mut().filter(|_| need_support) {
                let (a, c) = cross_arcs[k];
                let position = arcs.position(a, c);
                tally.enter_arc(position.expect("cross arcs are arcs of the DAG"));
            }
            let (row, col) = boundary.operands(k);
            let mut arc = ArcKernel::default();
            for (s, (left, right)) in sub_passes(row, col).into_iter().enumerate() {
                if passes & (1 << s) == 0 {
                    continue;
                }
                arc.absorb(kernel::and_bitcount(
                    cross_arcs[k],
                    left,
                    right,
                    PopcountMethod::Native,
                    partial.tally.as_mut(),
                    |_, _| {},
                ));
            }
            partial.triangles += arc.count;
            partial.invocations += u64::from(arc.dispatched);
            partial.pairs += arc.pairs.visited;
            partial.skipped += arc.pairs.skipped;
            partial.readouts += arc.readouts;
        }
        partial.busy_s = costs.write_latency_s * partial.writes as f64
            + (costs.and_latency_s + costs.bitcount_latency_s) * partial.pairs as f64
            + costs.readout_latency_s * partial.readouts as f64;
        partial
    }

    /// Merges every array's partial, in array order, into the pass's
    /// run: counts and tallies add up, the host dispatches every cross
    /// arc serially, and the busiest array sets the clock.
    ///
    /// # Panics
    ///
    /// Panics when the partials' tallies differ in shape.
    pub fn merge<'a>(
        &self,
        partials: impl IntoIterator<Item = CompositionPartial<'a>>,
    ) -> CompositionRun {
        let mut triangles = 0u64;
        let mut invocations = 0u64;
        let mut pairs = 0u64;
        let mut skipped = 0u64;
        let mut readouts = 0u64;
        let mut writes = 0u64;
        let mut busy: Vec<f64> = Vec::with_capacity(self.per_array.len());
        let mut tally: Option<TriangleTally<'a>> = None;
        for partial in partials {
            triangles += partial.triangles;
            invocations += partial.invocations;
            pairs += partial.pairs;
            skipped += partial.skipped;
            readouts += partial.readouts;
            writes += partial.writes;
            busy.push(partial.busy_s);
            match (tally.as_mut(), partial.tally) {
                (Some(total), Some(part)) => total.merge(part),
                (None, part) => tally = part,
                (Some(_), None) => panic!("partials differ in shape"),
            }
        }
        let (per_vertex, support) = match tally.map(TriangleTally::into_parts) {
            Some((_, per_vertex, support)) => (Some(per_vertex), support),
            None => (None, None),
        };

        // Host dispatch stays serial (one controller), array work runs on
        // the busiest array's clock.
        let costs = &self.costs;
        let host_s = self.cross_arcs as f64 * costs.controller_overhead_s;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let mean_busy =
            if busy.is_empty() { 0.0 } else { busy.iter().sum::<f64>() / busy.len() as f64 };
        let energy = costs.write_energy_j * writes as f64
            + (costs.and_energy_j + costs.bitcount_energy_j) * pairs as f64
            + costs.readout_energy_j * readouts as f64;

        CompositionRun {
            triangles,
            per_vertex,
            support,
            kernel_invocations: invocations,
            slice_pairs: pairs,
            blocks_skipped: skipped,
            result_readouts: readouts,
            write_slices: writes,
            critical_path_s: host_s + max_busy,
            modelled_energy_j: energy,
            imbalance: if mean_busy > 0.0 { max_busy / mean_busy } else { 1.0 },
            placement_units: self.placement_units,
        }
    }
}

/// One array's share of a composition pass, produced by
/// [`CompositionPlan::run_array`] and consumed by
/// [`CompositionPlan::merge`].
#[derive(Debug, Default)]
pub struct CompositionPartial<'a> {
    triangles: u64,
    invocations: u64,
    pairs: u64,
    skipped: u64,
    readouts: u64,
    writes: u64,
    busy_s: f64,
    tally: Option<TriangleTally<'a>>,
}

/// Runs the composition pass for `plan` over the extracted `boundary`
/// material, placing kernels onto `policy.arrays` arrays: a fresh
/// [`CompositionPlan`] executed once. Callers that run many passes over
/// one boundary keep the plan instead.
///
/// The flags select the [`Attribution`] level: `attributed` reads
/// triangles out per vertex, and `need_support` (with `attributed`)
/// adds per-arc support.
///
/// # Errors
///
/// Returns [`ShardError::Sched`] for an invalid policy.
pub fn compose(
    vertex_count: usize,
    plan: &ShardPlan,
    boundary: &BoundarySlices,
    policy: &SchedPolicy,
    costs: &SliceCostModel,
    attributed: bool,
    need_support: bool,
) -> Result<CompositionRun> {
    let attribution = match (attributed, need_support) {
        (false, _) => Attribution::Count,
        (true, false) => Attribution::PerVertex,
        (true, true) => Attribution::PerVertexWithSupport,
    };
    let composition = CompositionPlan::new(plan, boundary, policy, costs)?;
    Ok(composition.execute(
        vertex_count,
        plan.arcs(),
        boundary,
        policy.resolved_host_threads(),
        attribution,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_shards;
    use crate::spec::ShardSpec;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{RowEncoding, SliceSize};
    use tcim_graph::generators::{barabasi_albert, gnm};
    use tcim_graph::{CsrGraph, Orientation, OrientedGraph};

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    fn fixture(shards: usize, mode_2d: bool) -> (CsrGraph, OrientedGraph, CompositionRun) {
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let spec = if mode_2d { ShardSpec::two_d(shards) } else { ShardSpec::one_d(shards) };
        let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(4),
            &costs(),
            true,
            true,
        )
        .unwrap();
        (g, oriented, run)
    }

    /// CPU reference: triangles whose extreme vertices span shards.
    fn cross_reference(oriented: &OrientedGraph, plan: &ShardPlan) -> u64 {
        let mut count = 0u64;
        for (a, c) in oriented.arcs() {
            if !plan.is_cross(a, c) {
                continue;
            }
            // Middles w: heads of a that are tails of c.
            for &w in oriented.row(a) {
                if w < c && oriented.row(w).binary_search(&c).is_ok() {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn composition_counts_exactly_the_cross_shard_triangles() {
        for shards in [2usize, 4, 8] {
            let g = gnm(512, 3500, 9).unwrap();
            let oriented = Orientation::Natural.orient(&g);
            let plan =
                plan_shards(&oriented, &ShardSpec::one_d(shards), SliceSize::S64).unwrap();
            let boundary =
                BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
            let run = compose(
                oriented.vertex_count(),
                &plan,
                &boundary,
                &SchedPolicy::with_arrays(4),
                &costs(),
                false,
                false,
            )
            .unwrap();
            assert_eq!(run.triangles, cross_reference(&oriented, &plan), "{shards} shards");
            assert_eq!(run.kernel_invocations, plan.cross_arcs());
            assert_eq!(run.result_readouts, 0, "count-only runs read nothing out");
        }
    }

    #[test]
    fn attribution_sums_to_three_per_triangle_and_support_to_three() {
        let (_, _, run) = fixture(4, false);
        let pv = run.per_vertex.as_ref().unwrap();
        assert_eq!(pv.iter().sum::<u64>(), 3 * run.triangles);
        let support = run.support.as_ref().unwrap();
        assert_eq!(support.iter().sum::<u64>(), 3 * run.triangles);
        assert!(run.result_readouts > 0);
        assert!(run.critical_path_s > 0.0);
        assert!(run.modelled_energy_j > 0.0);
    }

    #[test]
    fn two_d_blocks_count_identically_with_fewer_units_and_writes() {
        let (_, _, one_d) = fixture(4, false);
        let (_, _, two_d) = fixture(4, true);
        assert_eq!(one_d.triangles, two_d.triangles);
        assert_eq!(one_d.slice_pairs, two_d.slice_pairs);
        assert_eq!(one_d.per_vertex, two_d.per_vertex);
        assert_eq!(one_d.support, two_d.support);
        assert!(
            two_d.placement_units < one_d.placement_units,
            "blocks must coarsen placement ({} vs {})",
            two_d.placement_units,
            one_d.placement_units
        );
        assert!(
            two_d.write_slices < one_d.write_slices,
            "block operand reuse must save writes ({} vs {})",
            two_d.write_slices,
            one_d.write_slices
        );
    }

    #[test]
    fn slice_pairs_match_the_monolithic_pair_count_over_cross_arcs() {
        // The three region sub-passes partition the monolithic arc's
        // matching pairs, so totals must agree with a full-vector AND.
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(2),
            &costs(),
            false,
            false,
        )
        .unwrap();

        let n = oriented.vertex_count();
        let mut in_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, c) in oriented.arcs() {
            in_lists[c as usize].push(a as usize);
        }
        let mut expected = 0u64;
        for &(a, c) in boundary.cross_arcs() {
            let row = tcim_bitmatrix::SlicedBitVector::from_sorted_indices(
                n,
                oriented.row(a).iter().map(|&j| j as usize),
                SliceSize::S64,
            );
            let col = tcim_bitmatrix::SlicedBitVector::from_sorted_indices(
                n,
                in_lists[c as usize].iter().copied(),
                SliceSize::S64,
            );
            expected += row.matching_slices(&col).unwrap().count() as u64;
        }
        assert_eq!(run.slice_pairs, expected);
    }

    #[test]
    fn census_dry_run_matches_the_executed_pass_exactly() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let g = gnm(512, 3500, 9).unwrap();
            let oriented = Orientation::Natural.orient(&g);
            let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64).unwrap();
            let boundary = BoundarySlices::extract(&oriented, &plan, SliceSize::S64, encoding);
            let census = boundary.census();
            let run = compose(
                oriented.vertex_count(),
                &plan,
                &boundary,
                &SchedPolicy::with_arrays(4),
                &costs(),
                false,
                false,
            )
            .unwrap();
            assert_eq!(census.kernel_invocations, run.kernel_invocations, "{encoding}");
            assert_eq!(census.slice_pairs, run.slice_pairs, "{encoding}");
            assert_eq!(census.blocks_skipped, run.blocks_skipped, "{encoding}");
        }
    }

    /// Every field of a run, f64s by their bits.
    #[allow(clippy::type_complexity)]
    fn fields(
        run: &CompositionRun,
    ) -> (u64, Option<Vec<u64>>, Option<Vec<u64>>, u64, u64, u64, u64, u64, u64, u64, u64, usize)
    {
        (
            run.triangles,
            run.per_vertex.clone(),
            run.support.clone(),
            run.kernel_invocations,
            run.slice_pairs,
            run.blocks_skipped,
            run.result_readouts,
            run.write_slices,
            run.critical_path_s.to_bits(),
            run.modelled_energy_j.to_bits(),
            run.imbalance.to_bits(),
            run.placement_units,
        )
    }

    #[test]
    fn one_plan_reruns_identically_and_equals_the_free_compose() {
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let n = oriented.vertex_count();
        let policy = SchedPolicy::with_arrays(4);
        for spec in [ShardSpec::one_d(4), ShardSpec::two_d(4)] {
            let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
            for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
                let boundary =
                    BoundarySlices::extract(&oriented, &plan, SliceSize::S64, encoding);
                let composition =
                    CompositionPlan::new(&plan, &boundary, &policy, &costs()).unwrap();
                // `compose`'s flags map onto the three levels.
                for (attribution, attributed, need_support) in [
                    (Attribution::Count, false, false),
                    (Attribution::PerVertex, true, false),
                    (Attribution::PerVertexWithSupport, true, true),
                ] {
                    let ctx = format!("{} {encoding} {attribution:?}", spec.mode);
                    let run = |threads| {
                        composition.execute(n, plan.arcs(), &boundary, threads, attribution)
                    };
                    let (first, again) = (run(1), run(2));
                    let free = compose(
                        n,
                        &plan,
                        &boundary,
                        &policy,
                        &costs(),
                        attributed,
                        need_support,
                    )
                    .unwrap();
                    assert_eq!(fields(&first), fields(&again), "{ctx}: rerun");
                    assert_eq!(fields(&first), fields(&free), "{ctx}: free compose");
                    assert!(first.triangles > 0, "{ctx}");
                    if spec.mode == ShardMode::OneD {
                        // A one-arc unit writes both its operands once.
                        let writes: u64 = (0..boundary.cross_arcs().len())
                            .map(|k| {
                                let (row, col) = boundary.operands(k);
                                row.valid_slices() + col.valid_slices()
                            })
                            .sum();
                        assert_eq!(first.write_slices, writes, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_plan_is_for_its_arrays_placement_and_costs_not_host_threads() {
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let policy = SchedPolicy::with_arrays(4);
        let composition = CompositionPlan::new(&plan, &boundary, &policy, &costs()).unwrap();
        assert!(composition.is_for(&policy, &costs()));
        assert!(composition
            .is_for(&SchedPolicy { host_threads: Some(1), ..policy.clone() }, &costs()));
        assert!(!composition.is_for(&SchedPolicy::with_arrays(8), &costs()));
        assert!(!composition
            .is_for(&policy.clone().placement(PlacementPolicy::RoundRobin), &costs()));
        let cheaper = SliceCostModel { write_latency_s: 0.0, ..costs() };
        assert!(!composition.is_for(&policy, &cheaper));
    }

    /// The pass walking every sub-pass of every placed cross arc, idle
    /// or not — the reference a plan that lists only the arcs and
    /// sub-passes visiting a pair must reproduce field for field.
    fn walk_every_arc(
        n: usize,
        plan: &ShardPlan,
        boundary: &BoundarySlices,
        policy: &SchedPolicy,
        attribution: Attribution,
    ) -> CompositionRun {
        let c = costs();
        let (placed, placement_units) = place_units(plan, boundary, policy, &c).unwrap();
        let arcs = plan.arcs();
        let cross_arcs = boundary.cross_arcs();
        let (mut triangles, mut invocations, mut skipped) = (0u64, 0u64, 0u64);
        let (mut all_pairs, mut all_readouts, mut all_writes) = (0u64, 0u64, 0u64);
        let mut busy = Vec::new();
        let mut tally = attribution.tally(n, || arcs);
        for Placed { arcs: list, writes } in &placed {
            let mut part = attribution.tally(n, || arcs);
            let (mut pairs, mut readouts) = (0u64, 0u64);
            for &k in list {
                if attribution == Attribution::PerVertexWithSupport {
                    let (a, head) = cross_arcs[k];
                    part.as_mut().unwrap().enter_arc(arcs.position(a, head).unwrap());
                }
                let (row, col) = boundary.operands(k);
                let mut arc = ArcKernel::default();
                for (left, right) in sub_passes(row, col) {
                    arc.absorb(kernel::and_bitcount(
                        cross_arcs[k],
                        left,
                        right,
                        PopcountMethod::Native,
                        part.as_mut(),
                        |_, _| {},
                    ));
                }
                triangles += arc.count;
                invocations += u64::from(arc.dispatched);
                pairs += arc.pairs.visited;
                skipped += arc.pairs.skipped;
                readouts += arc.readouts;
            }
            busy.push(
                c.write_latency_s * *writes as f64
                    + (c.and_latency_s + c.bitcount_latency_s) * pairs as f64
                    + c.readout_latency_s * readouts as f64,
            );
            all_pairs += pairs;
            all_readouts += readouts;
            all_writes += writes;
            if let (Some(total), Some(part)) = (tally.as_mut(), part) {
                total.merge(part);
            }
        }
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        let (per_vertex, support) = match tally.map(TriangleTally::into_parts) {
            Some((_, per_vertex, support)) => (Some(per_vertex), support),
            None => (None, None),
        };
        CompositionRun {
            triangles,
            per_vertex,
            support,
            kernel_invocations: invocations,
            slice_pairs: all_pairs,
            blocks_skipped: skipped,
            result_readouts: all_readouts,
            write_slices: all_writes,
            critical_path_s: cross_arcs.len() as f64 * c.controller_overhead_s + max_busy,
            modelled_energy_j: c.write_energy_j * all_writes as f64
                + (c.and_energy_j + c.bitcount_energy_j) * all_pairs as f64
                + c.readout_energy_j * all_readouts as f64,
            imbalance: if mean_busy > 0.0 { max_busy / mean_busy } else { 1.0 },
            placement_units,
        }
    }

    #[test]
    fn leaving_out_arcs_that_visit_no_pair_changes_no_field() {
        // A power-law graph over 32 slices: most cross arcs share no
        // valid slice pair between their operands.
        let g = barabasi_albert(2000, 4, 5).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let n = oriented.vertex_count();
        for spec in [ShardSpec::one_d(4), ShardSpec::two_d(4)] {
            let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
            for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
                let boundary =
                    BoundarySlices::extract(&oriented, &plan, SliceSize::S64, encoding);
                for arrays in [1usize, 3] {
                    let policy = SchedPolicy::with_arrays(arrays);
                    let composition =
                        CompositionPlan::new(&plan, &boundary, &policy, &costs()).unwrap();
                    let listed: usize =
                        composition.per_array.iter().map(|w| w.arcs.len()).sum();
                    let sub_passes: u32 = composition
                        .per_array
                        .iter()
                        .flat_map(|w| &w.passes)
                        .map(|passes| passes.count_ones())
                        .sum();
                    let ctx = format!("{} {encoding} x{arrays}", spec.mode);
                    assert!(listed < boundary.cross_arcs().len(), "{ctx}: no arc left out");
                    assert!(listed > 0, "{ctx}");
                    assert!(
                        (sub_passes as usize) < 3 * listed,
                        "{ctx}: no sub-pass left out ({sub_passes} for {listed} arcs)"
                    );
                    for attribution in [
                        Attribution::Count,
                        Attribution::PerVertex,
                        Attribution::PerVertexWithSupport,
                    ] {
                        let got =
                            composition.execute(n, plan.arcs(), &boundary, 2, attribution);
                        let want = walk_every_arc(n, &plan, &boundary, &policy, attribution);
                        assert_eq!(fields(&got), fields(&want), "{ctx} {attribution:?}");
                        assert!(got.triangles > 0, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_composition_is_a_no_op() {
        let g = gnm(128, 600, 1).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(1), SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(4),
            &costs(),
            true,
            true,
        )
        .unwrap();
        assert_eq!(run.triangles, 0);
        assert_eq!(run.slice_pairs, 0);
        assert_eq!(run.imbalance, 1.0);
        assert_eq!(run.placement_units, 0);
    }
}
