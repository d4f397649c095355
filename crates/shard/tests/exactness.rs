//! The exactly-once property of sharded counting: partition the
//! oriented DAG any way the planner allows, and every triangle is
//! counted by precisely one of (a) its home shard's induced subgraph or
//! (b) one cross-shard composition kernel — never zero, never twice.

use proptest::prelude::*;
use tcim_arch::{PimConfig, PimEngine, SliceCostModel};
use tcim_bitmatrix::{RowEncoding, SliceSize};
use tcim_graph::{CsrGraph, Orientation, OrientedGraph};
use tcim_sched::SchedPolicy;
use tcim_shard::{compose, plan_shards, BoundarySlices, ShardMode, ShardPlan, ShardSpec};

fn costs() -> SliceCostModel {
    PimEngine::new(&PimConfig::default()).unwrap().cost_model()
}

/// Enumerates every triangle `(a, b, c)` with `a < b < c` of the
/// oriented DAG and classifies it: `Some(s)` when all three vertices
/// live in shard `s`, `None` when it spans shards.
fn classify_triangles(oriented: &OrientedGraph, plan: &ShardPlan) -> (Vec<u64>, u64) {
    let mut intra = vec![0u64; plan.shard_count()];
    let mut cross = 0u64;
    for (a, b) in oriented.arcs() {
        for &c in oriented.row(b) {
            if oriented.row(a).binary_search(&c).is_ok() {
                // Contiguous ranges: a and c agreeing pins b too.
                if plan.shard_of(a) == plan.shard_of(c) {
                    intra[plan.shard_of(a)] += 1;
                } else {
                    cross += 1;
                }
            }
        }
    }
    (intra, cross)
}

/// Triangle count of the subgraph induced on `lo..hi` (merge-intersect
/// over range-filtered rows).
fn induced_triangles(oriented: &OrientedGraph, lo: u32, hi: u32) -> u64 {
    let mut count = 0u64;
    for a in lo..hi {
        for &b in oriented.row(a) {
            if b >= hi {
                break;
            }
            for &c in oriented.row(b) {
                if c >= hi {
                    break;
                }
                if oriented.row(a).binary_search(&c).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (30usize..400).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..1500)
            .prop_map(move |edges| CsrGraph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every triangle is counted exactly once across the intra-shard
    /// and cross-shard passes, for every shard count and both
    /// composition modes.
    #[test]
    fn every_triangle_is_counted_exactly_once(
        g in graph_strategy(),
        shards in 1usize..9,
        two_d in 0u8..2,
    ) {
        let oriented = Orientation::Natural.orient(&g);
        let spec =
            ShardSpec { shards, mode: if two_d == 1 { ShardMode::TwoD } else { ShardMode::OneD } };
        let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
        let (intra_expected, cross_expected) = classify_triangles(&oriented, &plan);

        // Intra pass: each shard's induced subgraph holds exactly its
        // classified triangles.
        let mut intra_total = 0u64;
        for (s, &expected) in intra_expected.iter().enumerate() {
            let (lo, hi) = plan.range(s);
            let got = induced_triangles(&oriented, lo, hi);
            prop_assert_eq!(got, expected, "shard {} of {}", s, shards);
            intra_total += got;
        }

        // Cross pass: the composition kernels find exactly the rest.
        let boundary = BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(3),
            &costs(),
            true,
            true,
        ).unwrap();
        prop_assert_eq!(run.triangles, cross_expected);

        // Together: the whole graph, exactly once.
        let total: u64 = intra_total + run.triangles;
        let whole = induced_triangles(&oriented, 0, oriented.vertex_count() as u32);
        prop_assert_eq!(total, whole);

        // Attribution conserves the same invariant per vertex and per arc.
        let pv = run.per_vertex.unwrap();
        prop_assert_eq!(pv.iter().sum::<u64>(), 3 * cross_expected);
        let support = run.support.unwrap();
        prop_assert_eq!(support.iter().sum::<u64>(), 3 * cross_expected);
        // One counter per arc of the DAG, at the arc's row-major position.
        prop_assert_eq!(support.len(), oriented.arc_count());
    }
}
