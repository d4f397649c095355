//! Degree-aware 1D partitioning of the oriented DAG into contiguous,
//! slice-aligned vertex ranges.
//!
//! A shard owns a contiguous range of *oriented* vertex ids, cut at
//! multiples of the slice size so every shard's bit-space is a whole
//! number of slices — the property that makes boundary extraction
//! ([`crate::boundary`]) a pure slice-index restriction. Cuts are
//! placed by weighted prefix sums (weight = 1 + out-degree), so a
//! hub-heavy prefix gets a narrower range than a sparse tail: the
//! degree-aware balancing the UPMEM triangle-counting study found
//! necessary for real PIM fleets.

use tcim_arch::{ArcIndex, ArcOffsets};
use tcim_bitmatrix::SliceSize;
use tcim_graph::OrientedGraph;

use crate::error::Result;
use crate::spec::{ShardMode, ShardSpec};

/// A partition of the oriented DAG's vertices into contiguous,
/// slice-aligned ranges, one per shard.
///
/// Because ranges are contiguous in oriented-id order, a triangle
/// `a < b < c` whose extreme vertices `a` and `c` land in one shard has
/// its middle vertex `b` in the same shard — so intra-shard runs over
/// induced subgraphs and a composition pass over cross-shard arcs
/// `(a, c)` together count every triangle exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `ranges[s] = (lo, hi)`: shard `s` owns oriented ids `lo..hi`.
    ranges: Vec<(u32, u32)>,
    mode: ShardMode,
    /// Per-shard weight (1 + out-degree summed over owned vertices).
    weights: Vec<u64>,
    /// Slice width the cuts are aligned to.
    align_bits: u32,
    /// Arcs with both endpoints in one shard.
    intra_arcs: u64,
    /// Per shard, the arcs whose tail it owns and whose head another
    /// shard owns.
    cross_arcs_by_tail: Vec<u64>,
    /// The global oriented DAG's arcs, row-major, and their offsets:
    /// where per-arc support accumulates ([`ShardPlan::arcs`]). A copy
    /// made at planning, with its row offsets, at every level, because
    /// [`compose`](fn@crate::compose) gets only the plan and still
    /// reports support at global positions. The column index inside the
    /// offsets is built by the first support-level run.
    arcs: Vec<(u32, u32)>,
    arc_offsets: ArcOffsets,
}

impl ShardPlan {
    /// Number of shards (including empty trailing ranges).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The vertex range `(lo, hi)` owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of bounds.
    pub fn range(&self, s: usize) -> (u32, u32) {
        self.ranges[s]
    }

    /// All ranges, in shard order.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// The shard owning oriented vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is beyond the partitioned universe.
    pub fn shard_of(&self, v: u32) -> usize {
        let s = self.ranges.partition_point(|&(_, hi)| hi <= v);
        assert!(
            s < self.ranges.len() && v >= self.ranges[s].0,
            "vertex {v} outside the partitioned universe"
        );
        s
    }

    /// Whether arc `(a, c)` spans two shards (and therefore belongs to
    /// the composition pass rather than an intra-shard run).
    pub fn is_cross(&self, a: u32, c: u32) -> bool {
        self.shard_of(a) != self.shard_of(c)
    }

    /// The composition grouping mode the plan was built for.
    pub fn mode(&self) -> ShardMode {
        self.mode
    }

    /// The slice width (bits) the cuts are aligned to.
    pub fn align_bits(&self) -> u32 {
        self.align_bits
    }

    /// The slice-index range `[lo / |S|, ⌈hi / |S|⌉)` of shard `s` —
    /// disjoint across shards because cuts are slice-aligned and empty
    /// ranges yield empty slice ranges (a trailing empty shard after a
    /// cut clamped to an unaligned `n` must not re-cover the final
    /// partial slice).
    pub fn slice_range(&self, s: usize) -> std::ops::Range<u32> {
        let (lo, hi) = self.ranges[s];
        let start = lo / self.align_bits;
        if lo == hi {
            return start..start;
        }
        start..hi.div_ceil(self.align_bits)
    }

    /// Per-shard partition weight (1 + out-degree over owned vertices).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Load-imbalance factor of the partition: heaviest shard weight
    /// over mean shard weight (idle shards included); `1.0` for an
    /// empty graph or a perfect split.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.weights.iter().sum();
        if total == 0 || self.weights.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.weights.len() as f64;
        let max = self.weights.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Arcs with both endpoints inside one shard.
    pub fn intra_arcs(&self) -> u64 {
        self.intra_arcs
    }

    /// Arcs spanning two shards — the composition pass's workload (the
    /// *boundary edges* of the partition).
    pub fn cross_arcs(&self) -> u64 {
        self.cross_arcs_by_tail.iter().sum()
    }

    /// Per shard, in shard order, the cross arcs whose tail it owns:
    /// where the composition pass's work comes from.
    pub fn cross_arcs_by_tail(&self) -> &[u64] {
        &self.cross_arcs_by_tail
    }

    /// Number of shards owning a non-empty vertex range.
    pub fn occupied_shards(&self) -> usize {
        self.ranges.iter().filter(|&&(lo, hi)| hi > lo).count()
    }

    /// The partitioned DAG's arc index: the global arc positions
    /// per-arc support is reported at, whichever shard or composition
    /// kernel counted the triangle.
    pub fn arcs(&self) -> ArcIndex<'_> {
        ArcIndex::new(&self.arcs, &self.arc_offsets)
    }
}

/// Partitions `oriented` into `spec.shards` contiguous, slice-aligned
/// vertex ranges balanced by out-degree weight.
///
/// # Errors
///
/// Returns [`ShardError::InvalidSpec`](crate::ShardError::InvalidSpec)
/// for a malformed spec.
///
/// # Examples
///
/// ```
/// use tcim_bitmatrix::SliceSize;
/// use tcim_graph::{generators::gnm, Orientation};
/// use tcim_shard::{plan_shards, ShardSpec};
///
/// let g = gnm(512, 4000, 7)?;
/// let oriented = Orientation::Natural.orient(&g);
/// let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64)?;
/// assert_eq!(plan.shard_count(), 4);
/// // Every cut lands on a slice boundary and the ranges tile 0..512.
/// assert_eq!(plan.range(0).0, 0);
/// assert_eq!(plan.range(3).1, 512);
/// assert_eq!(plan.intra_arcs() + plan.cross_arcs(), g.edge_count() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn plan_shards(
    oriented: &OrientedGraph,
    spec: &ShardSpec,
    slice_size: SliceSize,
) -> Result<ShardPlan> {
    spec.validate()?;
    let n = oriented.vertex_count();
    let align = slice_size.bits();
    let k = spec.shards;

    // Weighted prefix sums: weight = 1 + out-degree, so empty rows
    // still advance cuts and hub rows attract narrower ranges.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for v in 0..n as u32 {
        prefix.push(prefix[v as usize] + 1 + oriented.row(v).len() as u64);
    }
    let total = *prefix.last().unwrap_or(&0);

    // Ideal cut s sits where the prefix reaches s/k of the total;
    // round to the nearest slice boundary, keeping cuts monotone.
    let mut cuts = Vec::with_capacity(k + 1);
    cuts.push(0u32);
    for s in 1..k {
        let target = total.div_ceil(k as u64) * s as u64;
        let ideal = prefix.partition_point(|&w| w < target).min(n);
        let aligned = ((ideal as u32 + align / 2) / align) * align;
        let cut = aligned.min(n as u32).max(*cuts.last().expect("cuts start non-empty"));
        cuts.push(cut);
    }
    cuts.push(n as u32);

    let ranges: Vec<(u32, u32)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
    let mut arcs = Vec::with_capacity(oriented.arc_count());
    arcs.extend(oriented.arcs());
    let weights: Vec<u64> =
        ranges.iter().map(|&(lo, hi)| prefix[hi as usize] - prefix[lo as usize]).collect();

    let mut plan = ShardPlan {
        ranges,
        mode: spec.mode,
        weights,
        align_bits: align,
        intra_arcs: 0,
        cross_arcs_by_tail: vec![0; k],
        arc_offsets: ArcOffsets::new(n, &arcs),
        arcs,
    };
    for (a, c) in oriented.arcs() {
        let tail = plan.shard_of(a);
        if tail == plan.shard_of(c) {
            plan.intra_arcs += 1;
        } else {
            plan.cross_arcs_by_tail[tail] += 1;
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::generators::{classic, gnm};
    use tcim_graph::Orientation;

    fn plan(n: usize, m: usize, shards: usize) -> ShardPlan {
        let g = gnm(n, m, 11).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        plan_shards(&oriented, &ShardSpec::one_d(shards), SliceSize::S64).unwrap()
    }

    #[test]
    fn ranges_tile_the_vertex_universe_with_aligned_cuts() {
        let p = plan(1000, 8000, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.range(0).0, 0);
        assert_eq!(p.range(3).1, 1000);
        for w in p.ranges().windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
        for s in 0..3 {
            assert_eq!(p.range(s).1 % 64, 0, "interior cuts must be slice-aligned");
        }
        // Slice ranges are pairwise disjoint.
        for s in 0..3 {
            assert!(p.slice_range(s).end <= p.slice_range(s + 1).start);
        }
    }

    #[test]
    fn shard_of_respects_ranges_and_classifies_arcs() {
        let p = plan(640, 4000, 4);
        for s in 0..p.shard_count() {
            let (lo, hi) = p.range(s);
            if hi > lo {
                assert_eq!(p.shard_of(lo), s);
                assert_eq!(p.shard_of(hi - 1), s);
            }
        }
        assert_eq!(p.intra_arcs() + p.cross_arcs(), 4000);
        // Cross arcs are attributed to their tail's shard; arcs point
        // upward, so the last shard owns no cross tail.
        let g = gnm(640, 4000, 11).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let mut by_tail = vec![0u64; p.shard_count()];
        for (a, c) in oriented.arcs() {
            if p.is_cross(a, c) {
                by_tail[p.shard_of(a)] += 1;
            }
        }
        assert_eq!(p.cross_arcs_by_tail(), by_tail);
        assert_eq!(p.cross_arcs_by_tail()[p.shard_count() - 1], 0);
    }

    #[test]
    fn degree_weighting_narrows_hub_ranges() {
        // A star with hub 0 under natural orientation: the hub row
        // carries all the weight, so the first cut hugs the hub.
        let g = classic::star(1024);
        let oriented = Orientation::Natural.orient(&g);
        let p = plan_shards(&oriented, &ShardSpec::one_d(2), SliceSize::S64).unwrap();
        let (lo, hi) = p.range(0);
        assert_eq!(lo, 0);
        assert!(hi <= 128, "hub-heavy prefix should get a narrow range, got 0..{hi}");
        assert!(p.imbalance() >= 1.0);
    }

    #[test]
    fn small_graphs_degenerate_to_fewer_occupied_shards() {
        let g = classic::wheel(20);
        let oriented = Orientation::Natural.orient(&g);
        let p = plan_shards(&oriented, &ShardSpec::one_d(8), SliceSize::S64).unwrap();
        assert_eq!(p.shard_count(), 8);
        assert_eq!(p.occupied_shards(), 1, "20 vertices < one 64-bit slice");
        assert_eq!(p.cross_arcs(), 0);
        // Empty shards own empty slice ranges — even when the occupied
        // shard ends at an unaligned n, no empty shard may re-cover
        // its final partial slice.
        for s in 0..8 {
            let (lo, hi) = p.range(s);
            if hi > lo {
                assert_eq!(p.slice_range(s), 0..1, "occupied shard {s}");
            } else {
                assert!(p.slice_range(s).is_empty(), "empty shard {s}");
            }
        }
    }

    #[test]
    fn single_shard_has_no_cross_arcs() {
        let p = plan(300, 2000, 1);
        assert_eq!(p.cross_arcs(), 0);
        assert_eq!(p.intra_arcs(), 2000);
        assert_eq!(p.imbalance(), 1.0);
    }

    #[test]
    fn empty_graph_plans_cleanly() {
        let g = tcim_graph::CsrGraph::from_edges(0, []).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let p = plan_shards(&oriented, &ShardSpec::one_d(3), SliceSize::S64).unwrap();
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.occupied_shards(), 0);
        assert_eq!(p.imbalance(), 1.0);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let g = classic::wheel(10);
        let oriented = Orientation::Natural.orient(&g);
        assert!(plan_shards(&oriented, &ShardSpec::one_d(0), SliceSize::S64).is_err());
    }
}
