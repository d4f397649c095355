//! Cross-crate pipeline properties: for every backend × orientation ×
//! graph family, prepare-once/execute-many equals the one-shot path and
//! all backends agree on the triangle count; and a second execution on
//! a cached `PreparedGraph` performs **no re-slicing**, pinned by the
//! pipeline's own cache misses (a pipeline slices matrices only when
//! one of its caches misses).

use std::sync::Arc;

use proptest::prelude::*;
use tcim_repro::graph::generators::{
    barabasi_albert, classic, gnm, rmat, watts_strogatz, RmatParams,
};
use tcim_repro::graph::{CsrGraph, Orientation};
use tcim_repro::tcim::{baseline, Backend, TcimConfig, TcimPipeline};

const ORIENTATIONS: [Orientation; 3] =
    [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy];

fn pipeline(orientation: Orientation) -> TcimPipeline {
    TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() }).unwrap()
}

fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("fig2", classic::fig2_example()),
        ("wheel", classic::wheel(40)),
        ("er", gnm(250, 1600, 11).unwrap()),
        ("ba", barabasi_albert(300, 5, 7).unwrap()),
        ("rmat", rmat(8, 1800, RmatParams::default(), 17).unwrap()),
        ("ws", watts_strogatz(260, 6, 0.1, 23).unwrap()),
    ]
}

/// The acceptance grid: every backend × orientation × {fig2, wheel, ER,
/// BA, R-MAT, Watts–Strogatz}. A second execution of the same prepared
/// artifact and the one-shot `count` path must all equal the
/// graph-level baseline.
#[test]
fn every_backend_orientation_and_family_agrees() {
    for orientation in ORIENTATIONS {
        let p = pipeline(orientation);
        for (label, g) in test_graphs() {
            let expected = baseline::edge_iterator_merge(&g);
            let prepared = p.prepare(&g);
            for spec in Backend::default_suite() {
                let name = spec.label();
                let first = p.execute(&prepared, &spec).unwrap();
                let second = p.execute(&prepared, &spec).unwrap();
                let one_shot = p.count(&g, &spec).unwrap();
                assert_eq!(
                    first.triangles, expected,
                    "{label} {orientation:?} {name}: prepared execution"
                );
                assert_eq!(
                    second.triangles, expected,
                    "{label} {orientation:?} {name}: repeated execution"
                );
                assert_eq!(
                    one_shot.triangles, expected,
                    "{label} {orientation:?} {name}: one-shot path"
                );
                // Work statistics are deterministic across executions of
                // one artifact.
                assert_eq!(first.stats, second.stats, "{label} {orientation:?} {name}");
            }
        }
    }
}

/// The one-shot `count` calls above must have hit the cache (same
/// graph), never rebuilding the artifact.
#[test]
fn one_shot_counts_reuse_the_prepared_artifact() {
    let p = pipeline(Orientation::Natural);
    let g = gnm(200, 1300, 3).unwrap();
    let prepared = p.prepare(&g);
    assert_eq!(p.cache().misses(), 1);
    for spec in Backend::default_suite() {
        p.count(&g, &spec).unwrap();
    }
    // Five counts → five cache hits, zero further misses.
    assert_eq!(p.cache().misses(), 1);
    assert_eq!(p.cache().hits(), 5);
    assert!(Arc::ptr_eq(&prepared, &p.prepare(&g)));
}

/// Acceptance proof for the prepared-graph cache: executing the whole
/// backend suite twice over a cached artifact builds no further
/// artifact, and the artifact's slice statistics and pricing stay
/// unchanged.
#[test]
fn cached_prepared_graph_is_never_resliced() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let g = gnm(300, 2200, 19).unwrap();
    let artifacts_built = || (pipeline.cache().misses(), pipeline.sharded_cache().misses());

    // First preparation slices exactly once: one prepared-cache miss.
    assert_eq!(artifacts_built(), (0, 0));
    let prepared = pipeline.prepare(&g);
    assert_eq!(artifacts_built(), (1, 0));
    let stats = prepared.slice_stats();
    let pricing = prepared.pricing();

    // Execute the full backend suite twice over the cached artifact:
    // no backend, planner or popcount path may slice anything.
    let builds_after_prepare = artifacts_built();
    let mut counts = Vec::new();
    for round in 0..2 {
        let again = pipeline.prepare(&g);
        assert!(
            Arc::ptr_eq(&prepared, &again),
            "round {round}: prepare must return the cached artifact"
        );
        for spec in Backend::default_suite() {
            counts.push(pipeline.execute(&again, &spec).unwrap().triangles);
        }
    }
    assert_eq!(artifacts_built(), builds_after_prepare, "execution must not re-slice");

    // Work counters of the artifact are untouched…
    assert_eq!(prepared.slice_stats(), stats);
    assert_eq!(prepared.pricing(), pricing);
    // …and every execution agreed.
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");

    // Cache accounting: one miss (the initial build), hits ever after.
    assert_eq!(pipeline.cache().misses(), 1);
    assert_eq!(pipeline.cache().hits(), 2);
}

/// The pipeline's metric counters are the same accounting its reports
/// and caches carry: executions, kernel work sums, cache hits/misses
/// and prepared builds all line up exactly.
#[test]
fn pipeline_metrics_mirror_report_and_cache_accounting() {
    let p = pipeline(Orientation::Degree);
    let g = barabasi_albert(300, 5, 7).unwrap();
    let prepared = p.prepare(&g);

    let mut kernels = 0u64;
    let mut pairs = 0u64;
    let mut executions = 0u64;
    for spec in Backend::default_suite() {
        let report = p.execute(&prepared, &spec).unwrap();
        kernels += report.kernel.kernel_invocations;
        pairs += report.kernel.slice_pairs;
        executions += 1;
        // The one-shot path routes through the same instrumented
        // execute, so it counts too (and hits the prepared cache).
        let one_shot = p.count(&g, &spec).unwrap();
        kernels += one_shot.kernel.kernel_invocations;
        pairs += one_shot.kernel.slice_pairs;
        executions += 1;
    }

    let snap = p.metrics_snapshot();
    assert_eq!(snap.counter("tcim_executions_total"), Some(executions));
    assert_eq!(snap.counter("tcim_kernel_invocations_total"), Some(kernels));
    assert_eq!(snap.counter("tcim_slice_pairs_total"), Some(pairs));
    // One explicit prepare → one build, which is one miss; the five
    // `count` calls above all hit (the same pins as the cache test).
    assert_eq!(snap.counter("tcim_prepared_cache_misses_total"), Some(1));
    assert_eq!(snap.counter("tcim_prepared_cache_hits_total"), Some(p.cache().hits()));
    assert_eq!(p.cache().misses(), 1);
    assert_eq!(p.cache().hits(), 5);
    let latency = snap.histogram("tcim_execute_latency_nanoseconds").unwrap();
    assert_eq!(latency.count, executions);
}

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..250)
            .prop_map(move |edges| CsrGraph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary graphs under arbitrary orientations: the full backend
    /// suite is exact and agrees with the graph-level baseline.
    #[test]
    fn backend_suite_is_exact_on_arbitrary_graphs(
        g in graph_strategy(),
        orientation_idx in 0usize..3,
    ) {
        let expected = baseline::edge_iterator_merge(&g);
        let p = pipeline(ORIENTATIONS[orientation_idx]);
        let prepared = p.prepare(&g);
        for spec in Backend::default_suite() {
            let report = p.execute(&prepared, &spec).unwrap();
            prop_assert_eq!(report.triangles, expected, "{}", spec.label());
        }
    }
}
