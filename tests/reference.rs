//! The differential reference-oracle harness for the motif queries:
//! every backend's [`Query::KTruss`] and [`Query::FourCliques`] answer
//! is compared whole-`QueryValue` against the naive CPU oracle
//! (`tcim_repro::graph::oracle`), across generators × orientations ×
//! encodings × shard counts — plus golden fixtures whose decomposition
//! is checkable by hand.
//!
//! The oracle enumerates triangles and quadruples directly on the raw
//! adjacency; the engine peels supports and chains ANDs over sliced
//! rows. Any divergence anywhere in the grid is a bug in exactly one
//! of them, which is the point of keeping both.

use tcim_repro::bitmatrix::popcount::PopcountMethod;
use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::graph::generators::{
    barabasi_albert, classic, gnm, rmat, watts_strogatz, RmatParams,
};
use tcim_repro::graph::{oracle, CsrGraph, Orientation};
use tcim_repro::shard::{ShardMode, ShardSpec};
use tcim_repro::tcim::{
    Backend, EdgeTruss, Query, QueryValue, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// The artifacts `pipeline` has built: prepared-cache misses, then
/// sharded-cache misses. A pipeline slices matrices only inside those
/// caches' builds, so an unchanged pair means nothing was re-sliced.
fn artifacts_built(pipeline: &TcimPipeline) -> (u64, u64) {
    (pipeline.cache().misses(), pipeline.sharded_cache().misses())
}

/// The generator grid the satellite task names.
fn generator_grid() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("erdos-renyi", gnm(220, 1500, 7).unwrap()),
        ("barabasi-albert", barabasi_albert(200, 5, 3).unwrap()),
        ("rmat", rmat(8, 1100, RmatParams::default(), 11).unwrap()),
        ("watts-strogatz", watts_strogatz(180, 8, 0.2, 5).unwrap()),
    ]
}

/// All six backend families (the sharded member is parameterized
/// separately by `sharded(n)` for the shard-count axis).
fn backends() -> Vec<Backend> {
    vec![
        Backend::SerialPim,
        Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
        Backend::Software(PopcountMethod::Native),
        Backend::CpuMerge,
        Backend::CpuForward,
        sharded(4),
    ]
}

fn sharded(shards: usize) -> Backend {
    Backend::Sharded(ShardPolicy {
        spec: ShardSpec { shards, mode: ShardMode::OneD },
        inner: SchedPolicy::with_arrays(2),
    })
}

/// The oracle's trussness, shaped like the engine's answer: every edge
/// once, ascending `(u, v)`, input ids.
fn oracle_truss_edges(g: &CsrGraph) -> Vec<EdgeTruss> {
    oracle::trussness(g)
        .into_iter()
        .map(|(u, v, trussness)| EdgeTruss { u, v, trussness })
        .collect()
}

/// Asserts one backend's two motif answers are bit-identical to the
/// oracle's, whole `QueryValue`.
fn assert_motifs_match_oracle(
    pipeline: &TcimPipeline,
    prepared: &std::sync::Arc<tcim_repro::tcim::PreparedGraph>,
    g: &CsrGraph,
    backend: &Backend,
    ctx: &str,
) {
    let truss = oracle_truss_edges(g);
    let (total, per_vertex) = oracle::four_cliques(g);
    for k in [3u32, 4] {
        let report = pipeline.query(prepared, backend, &Query::KTruss { k }).unwrap();
        assert_eq!(
            report.value,
            QueryValue::KTruss { k, edges: truss.clone() },
            "{ctx}: {k}-truss"
        );
        // The membership view filters the same decomposition.
        let members = report.value.truss_members().unwrap();
        let expected = oracle::ktruss_edges(g, k);
        assert_eq!(members, expected, "{ctx}: {k}-truss members");
    }
    let report = pipeline.query(prepared, backend, &Query::FourCliques).unwrap();
    assert_eq!(
        report.value,
        QueryValue::FourCliques { total, per_vertex: per_vertex.clone() },
        "{ctx}: four-cliques"
    );
    // Every K4 holds four vertices: the attribution must tally to 4·total.
    let (t, pv) = report.value.four_cliques().unwrap();
    assert_eq!(pv.iter().sum::<u64>(), 4 * t, "{ctx}: per-vertex tallies 4 per clique");
}

/// Golden fixtures with hand-checkable decompositions: the paper's
/// Fig. 2 graph, a wheel, and the complete graphs K5/K6.
#[test]
fn golden_fixtures_match_hand_derived_values() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();

    // Fig. 2: triangles {0,1,2}, {1,2,3}; edge (1,2) closes both, the
    // other four close one each — all five edges form the 3-truss (each
    // has 1 ≥ 3−2 support inside it), none survive at level 4.
    let fig2 = classic::fig2_example();
    let prepared = pipeline.prepare(&fig2);
    let report =
        pipeline.query(&prepared, &Backend::SerialPim, &Query::KTruss { k: 3 }).unwrap();
    let edges = report.value.trussness().unwrap();
    assert_eq!(edges.len(), 5);
    assert!(edges.iter().all(|e| e.trussness == 3), "{edges:?}");
    let report = pipeline.query(&prepared, &Backend::SerialPim, &Query::FourCliques).unwrap();
    assert_eq!(report.value.four_cliques().unwrap().0, 0, "fig2 holds no K4");

    // Wheel(8): hub + 7-cycle rim. Every triangle is {hub, rim, rim};
    // all 14 edges sit in the 3-truss and no K4 exists.
    let wheel = classic::wheel(8);
    let prepared = pipeline.prepare(&wheel);
    let report =
        pipeline.query(&prepared, &Backend::SerialPim, &Query::KTruss { k: 3 }).unwrap();
    assert!(report.value.trussness().unwrap().iter().all(|e| e.trussness == 3));
    assert_eq!(report.value.truss_members().unwrap().len(), 14);
    let report = pipeline.query(&prepared, &Backend::SerialPim, &Query::FourCliques).unwrap();
    assert_eq!(report.value.four_cliques().unwrap().0, 0, "wheels hold no K4");

    // K_n: every edge has support n−2, the whole graph is the n-truss,
    // and the K4 census is C(n, 4) with every vertex in C(n−1, 3).
    for (n, k4s, per_vertex) in [(5u32, 5u64, 4u64), (6, 15, 10)] {
        let g = classic::complete(n as usize);
        let prepared = pipeline.prepare(&g);
        let ctx = format!("K{n}");
        let report =
            pipeline.query(&prepared, &Backend::SerialPim, &Query::KTruss { k: 3 }).unwrap();
        let edges = report.value.trussness().unwrap();
        assert_eq!(edges.len(), (n * (n - 1) / 2) as usize, "{ctx}");
        assert!(edges.iter().all(|e| e.trussness == n), "{ctx}: K{n} is the {n}-truss");
        let report =
            pipeline.query(&prepared, &Backend::SerialPim, &Query::FourCliques).unwrap();
        let (total, pv) = report.value.four_cliques().unwrap();
        assert_eq!(total, k4s, "{ctx}");
        assert!(pv.iter().all(|&c| c == per_vertex), "{ctx}: symmetric attribution");
    }
}

/// The tentpole grid: six backends × four generators × all three
/// orientations × forced dense and sparse encodings, every motif
/// answer bit-identical to the oracle, and zero matrix builds at query
/// time — peeling mutates rows in place, it never re-slices.
#[test]
fn motif_answers_match_the_oracle_across_the_grid() {
    for (name, g) in generator_grid() {
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            for encoding in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
                let pipeline = TcimPipeline::new(&TcimConfig {
                    orientation,
                    encoding,
                    ..TcimConfig::default()
                })
                .unwrap();
                let prepared = pipeline.prepare(&g);
                // Warm every backend's prepare-time artifacts (the
                // sharded member slices its shards once, cached) so
                // the pin below isolates the motif rounds themselves.
                for backend in backends() {
                    pipeline.query(&prepared, &backend, &Query::TotalTriangles).unwrap();
                }
                let built = artifacts_built(&pipeline);
                for backend in backends() {
                    let ctx = format!("{name} {orientation:?} {encoding:?} {backend:?}");
                    assert_motifs_match_oracle(&pipeline, &prepared, &g, &backend, &ctx);
                }
                assert_eq!(
                    artifacts_built(&pipeline),
                    built,
                    "{name} {orientation:?} {encoding:?}: motif queries must never re-slice"
                );
            }
        }
    }
}

/// The shard-count axis: 1, 2, 4 and 8 shards all answer the motif
/// queries bit-identically to the oracle (and hence to each other) —
/// the sharded backend's anchor run merges shard-local counts, then
/// the motif rounds run over the merged input-id adjacency.
#[test]
fn sharded_motifs_are_shard_count_invariant() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let graphs =
        vec![("ba", barabasi_albert(150, 5, 3).unwrap()), ("er", gnm(140, 900, 7).unwrap())];
    for (name, g) in graphs {
        let prepared = pipeline.prepare(&g);
        for shards in [1usize, 2, 4, 8] {
            let ctx = format!("{name} shards={shards}");
            assert_motifs_match_oracle(&pipeline, &prepared, &g, &sharded(shards), &ctx);
        }
    }
}
