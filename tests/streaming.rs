//! Acceptance property for the dynamic-graph subsystem: for randomized
//! insert/delete sequences over every graph family, the incrementally
//! maintained count equals a from-scratch recount after every batch,
//! and invalid updates are rejected cleanly. A batch below the drift
//! threshold builds no new artifact (the per-update delta kernels run
//! on the in-place patched rows), while one above it triggers exactly
//! one rebuild, pinned by the live graph's own pipeline cache misses.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_repro::graph::generators::{barabasi_albert, classic, gnm, rmat, RmatParams};
use tcim_repro::graph::CsrGraph;
use tcim_repro::stream::{
    DriftPolicy, DynamicGraph, StreamConfig, StreamError, Update, UpdateBatch,
};
use tcim_repro::tcim::baseline;

fn seed_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("fig2", classic::fig2_example()),
        ("wheel", classic::wheel(30)),
        ("er", gnm(80, 400, 5).unwrap()),
        ("ba", barabasi_albert(90, 4, 9).unwrap()),
        ("rmat", rmat(6, 220, RmatParams::default(), 21).unwrap()),
    ]
}

/// Turn a raw `(u, v, kind)` triple into an update; proptest drives the
/// raw values, the graph's vertex count bounds them only loosely so the
/// stream stays adversarial (out-of-range ids, self-loops, duplicates).
fn to_update(u: u32, v: u32, kind: bool) -> Update {
    if kind {
        Update::Insert(u, v)
    } else {
        Update::Delete(u, v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized churn over every seed family: after every batch the
    /// incremental count equals the graph-level recount of the live
    /// snapshot, every update is either applied or rejected, and
    /// rejections leave the edge set untouched.
    #[test]
    fn incremental_count_equals_recount_after_every_batch(
        raw in proptest::collection::vec((0u32..100, 0u32..100, any::<bool>()), 1..120),
        batch_size in 1usize..24,
    ) {
        for (label, g) in seed_graphs() {
            let config = StreamConfig {
                drift: DriftPolicy {
                    max_touched_fraction: Some(0.5),
                    max_valid_slice_drift: None,
                    max_updates: None,
                },
                verify_on_fold: true,
                fanout_threshold: 6,
                ..StreamConfig::default()
            };
            let mut dg = DynamicGraph::new(&g, config).unwrap();
            for chunk in raw.chunks(batch_size) {
                let batch: UpdateBatch =
                    chunk.iter().map(|&(u, v, k)| to_update(u, v, k)).collect();
                let before_edges = dg.edge_count();
                let outcome = dg.apply_batch(&batch).unwrap();
                prop_assert_eq!(
                    outcome.applied() + outcome.rejected.len(),
                    batch.len(),
                    "{}: every update is accounted for", label
                );
                let recount = baseline::edge_iterator_merge(&dg.snapshot());
                prop_assert_eq!(
                    dg.triangles(), recount,
                    "{}: incremental count must equal recount", label
                );
                // Edge bookkeeping is consistent with the deltas.
                let net_edges: i64 = outcome
                    .deltas
                    .iter()
                    .map(|d| if d.update.is_insert() { 1 } else { -1 })
                    .sum();
                prop_assert_eq!(
                    dg.edge_count() as i64,
                    before_edges as i64 + net_edges,
                    "{}: edge count tracks applied updates", label
                );
            }
        }
    }
}

/// Churn, then motif: after a randomized insert/delete sequence, the
/// live graph's k-truss and 4-clique answers equal both the naive
/// oracle on the live snapshot and a from-scratch prepared-pipeline
/// recount of the same snapshot — the live motif path peels the
/// maintained rows, it never folds or re-slices.
#[test]
fn churned_motif_answers_equal_from_scratch_recount() {
    use tcim_repro::graph::oracle;
    use tcim_repro::tcim::{Backend, Query, TcimConfig, TcimPipeline};

    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    for (label, g) in seed_graphs() {
        let config = StreamConfig { drift: DriftPolicy::never(), ..StreamConfig::default() };
        let mut dg = DynamicGraph::new(&g, config).unwrap();
        // Deterministic churn: delete every third edge, then wire each
        // deleted endpoint to a handful of new partners.
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut batch = UpdateBatch::new();
        for &(u, v) in edges.iter().step_by(3) {
            batch.delete(u, v);
        }
        let n = g.vertex_count() as u32;
        for (i, &(u, _)) in edges.iter().step_by(3).enumerate() {
            let w = (u + 2 + i as u32) % n;
            let pending = |a: u32, b: u32| {
                batch.iter().any(|up| {
                    let (x, y) = up.normalized().endpoints();
                    (x, y) == (a.min(b), a.max(b))
                })
            };
            if u != w && !dg.has_edge(u, w) && !pending(u, w) {
                batch.insert(u, w);
            }
        }
        let outcome = dg.apply_batch(&batch).unwrap();
        assert_eq!(outcome.rejected.len(), 0, "{label}: churn batch is valid");

        let live = dg.snapshot();
        let truss = oracle::trussness(&live);
        let (k4_total, k4_per_vertex) = oracle::four_cliques(&live);

        // Live answers against the oracle on the live snapshot.
        let (value, kernel) = dg.trussness(4);
        let got: Vec<(u32, u32, u32)> =
            value.trussness().unwrap().iter().map(|e| (e.u, e.v, e.trussness)).collect();
        assert_eq!(got, truss, "{label}: live trussness equals the oracle");
        assert!(kernel.kernel_invocations >= live.edge_count() as u64, "{label}");
        let (value, _) = dg.four_cliques();
        assert_eq!(
            value.four_cliques().unwrap(),
            (k4_total, k4_per_vertex.as_slice()),
            "{label}: live 4-cliques equal the oracle"
        );

        // And against a from-scratch prepared recount of the snapshot.
        let prepared = pipeline.prepare(&live);
        for (query, expected_truss) in
            [(Query::KTruss { k: 4 }, true), (Query::FourCliques, false)]
        {
            let report = pipeline.query(&prepared, &Backend::SerialPim, &query).unwrap();
            if expected_truss {
                let scratch: Vec<(u32, u32, u32)> = report
                    .value
                    .trussness()
                    .unwrap()
                    .iter()
                    .map(|e| (e.u, e.v, e.trussness))
                    .collect();
                assert_eq!(scratch, truss, "{label}: from-scratch trussness agrees");
            } else {
                assert_eq!(
                    report.value.four_cliques().unwrap(),
                    (k4_total, k4_per_vertex.as_slice()),
                    "{label}: from-scratch 4-cliques agree"
                );
            }
        }
    }
}

/// Deleting edges that were never inserted is rejected cleanly, with
/// the precise error and zero state change — including edges deleted
/// earlier in the same batch.
#[test]
fn never_inserted_deletions_are_rejected_cleanly() {
    let mut dg = DynamicGraph::new(&classic::fig2_example(), StreamConfig::default()).unwrap();
    let err = dg.apply(Update::Delete(0, 3)).unwrap_err();
    assert!(matches!(err, StreamError::UnknownEdge { u: 0, v: 3 }), "{err}");

    let mut batch = UpdateBatch::new();
    batch.delete(1, 2).delete(2, 1); // second delete hits a now-absent edge
    let outcome = dg.apply_batch(&batch).unwrap();
    assert_eq!(outcome.applied(), 1);
    assert_eq!(outcome.rejected.len(), 1);
    assert!(matches!(outcome.rejected[0].error, StreamError::UnknownEdge { u: 1, v: 2 }));
    assert_eq!(dg.triangles(), baseline::edge_iterator_merge(&dg.snapshot()));
    assert_eq!(dg.report().rejected, 2);
}

/// A full insert-everything / delete-everything cycle returns to the
/// empty graph with a zero count and an exact report trail.
#[test]
fn full_drain_returns_to_zero() {
    let g = classic::wheel(25);
    let config = StreamConfig { drift: DriftPolicy::never(), ..StreamConfig::default() };
    let mut dg = DynamicGraph::new(&g, config).unwrap();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let deletions: UpdateBatch = edges.iter().map(|&(u, v)| Update::Delete(u, v)).collect();
    let outcome = dg.apply_batch(&deletions).unwrap();
    assert_eq!(outcome.applied(), edges.len());
    assert_eq!(dg.triangles(), 0);
    assert_eq!(dg.edge_count(), 0);
    assert_eq!(outcome.net_delta(), -24);

    let insertions: UpdateBatch = edges.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
    dg.apply_batch(&insertions).unwrap();
    assert_eq!(dg.triangles(), 24);
    assert_eq!(dg.edge_count(), edges.len());
    assert_eq!(dg.snapshot(), g);
    let r = dg.report();
    assert_eq!(r.inserts, edges.len() as u64);
    assert_eq!(r.deletes, edges.len() as u64);
    assert_eq!(r.kernel_invocations, 2 * edges.len() as u64);
}

/// The artifacts `dg`'s pipeline has built: prepared-cache misses, then
/// sharded-cache misses. A pipeline slices matrices only inside those
/// caches' builds, so an unchanged pair means nothing was re-sliced.
fn artifacts_built(dg: &DynamicGraph) -> (u64, u64) {
    (dg.pipeline().cache().misses(), dg.pipeline().sharded_cache().misses())
}

/// Applying a batch below the drift threshold builds **zero** new
/// artifacts, while exceeding the threshold triggers exactly one
/// rebuild that lands in the pipeline's `PreparedCache`.
#[test]
fn deltas_never_reslice_and_drift_triggers_exactly_one_rebuild() {
    let g = gnm(200, 1200, 31).unwrap();
    let config = StreamConfig {
        drift: DriftPolicy {
            // 200 vertices: trip the fold once more than 25% of the
            // rows (50) were touched since the last fold.
            max_touched_fraction: Some(0.25),
            max_valid_slice_drift: None,
            max_updates: None,
        },
        verify_on_fold: true,
        ..StreamConfig::default()
    };

    // Construction prepares (slices) the epoch-0 artifact exactly once.
    let mut dg = DynamicGraph::new(&g, config).unwrap();
    assert_eq!(artifacts_built(&dg), (1, 0));
    assert_eq!(dg.pipeline().cache().len(), 1);

    // A small batch (touches ≤ 20 rows out of 200) stays below the
    // drift threshold: zero new SlicedMatrix builds, no fold.
    let mut small = UpdateBatch::new();
    for v in 0..10u32 {
        small.push(Update::Insert(2 * v, 2 * v + 1));
    }
    let before_small = artifacts_built(&dg);
    let outcome = dg.apply_batch(&small).unwrap();
    assert!(outcome.applied() > 0, "the batch did real work");
    assert!(!outcome.folded, "below the drift threshold");
    assert_eq!(
        artifacts_built(&dg),
        before_small,
        "sub-threshold batches must not build any SlicedMatrix"
    );
    assert_eq!(dg.epoch(), 0);
    assert_eq!(dg.report().rebuilds, 0);

    // A wide batch (touches 120 distinct rows) exceeds the threshold:
    // exactly one rebuild, landing in the PreparedCache.
    let mut wide = UpdateBatch::new();
    for v in 20..80u32 {
        wide.push(Update::Insert(v, v + 100));
    }
    let (misses_before, sharded_before) = artifacts_built(&dg);
    let outcome = dg.apply_batch(&wide).unwrap();
    assert!(outcome.folded, "above the drift threshold");
    assert_eq!(
        artifacts_built(&dg),
        (misses_before + 1, sharded_before),
        "the fold rebuilds exactly one SlicedMatrix"
    );
    assert_eq!(dg.epoch(), 1);
    assert_eq!(dg.report().rebuilds, 1);
    // …and the artifact landed in the cache: one miss (the build, pinned
    // above), and re-preparing the same snapshot is a pure hit on the
    // same Arc.
    assert_eq!(dg.pipeline().cache().len(), 2);
    let hits_before = dg.pipeline().cache().hits();
    let again = dg.pipeline().prepare(&dg.snapshot());
    assert!(Arc::ptr_eq(dg.prepared(), &again));
    assert_eq!(dg.pipeline().cache().hits(), hits_before + 1);
    assert_eq!(
        artifacts_built(&dg),
        (misses_before + 1, sharded_before),
        "the hit resliced nothing"
    );

    // The drift measure reset after the fold.
    assert_eq!(dg.drift().touched_rows, 0);
    assert_eq!(dg.drift().updates_since_fold, 0);
}
