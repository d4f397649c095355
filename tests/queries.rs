//! The backend × query agreement grid: every execution backend answers
//! every `Query` variant from one `PreparedGraph`, and all answers
//! agree exactly with naive CPU references computed on the raw graph —
//! across the full generator grid and every orientation, without any
//! re-slicing at query time (pinned via the pipeline's cache misses).

use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::graph::generators::{
    barabasi_albert, classic, gnm, rmat, watts_strogatz, RmatParams,
};
use tcim_repro::graph::{oracle, CsrGraph, Orientation};
use tcim_repro::shard::{ShardMode, ShardSpec};
use tcim_repro::tcim::{
    baseline, Backend, Query, QueryValue, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// The artifacts `pipeline` has built: prepared-cache misses, then
/// sharded-cache misses. A pipeline slices matrices only inside those
/// caches' builds, so an unchanged pair means nothing was re-sliced.
fn artifacts_built(pipeline: &TcimPipeline) -> (u64, u64) {
    (pipeline.cache().misses(), pipeline.sharded_cache().misses())
}

/// The generator grid the satellite task names: fig2, wheel, ER, BA,
/// R-MAT and Watts–Strogatz.
fn generator_grid() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("fig2", classic::fig2_example()),
        ("wheel", classic::wheel(40)),
        ("erdos-renyi", gnm(300, 2100, 7).unwrap()),
        ("barabasi-albert", barabasi_albert(250, 5, 3).unwrap()),
        ("rmat", rmat(8, 1200, RmatParams::default(), 11).unwrap()),
        ("watts-strogatz", watts_strogatz(200, 8, 0.2, 5).unwrap()),
    ]
}

/// Naive per-edge triangle support on the raw graph: common-neighbour
/// count of the endpoints.
fn naive_edge_support(g: &CsrGraph) -> Vec<(u32, u32, u64)> {
    let mut support = Vec::with_capacity(g.edge_count());
    for (u, v) in g.edges() {
        let nu = g.neighbors(u);
        let nv = g.neighbors(v);
        let (mut i, mut j, mut common) = (0usize, 0usize, 0u64);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        support.push((u, v, common));
    }
    support.sort_unstable();
    support
}

/// Every backend × every query variant × the full generator grid: all
/// answers equal the naive references, and nothing re-slices after
/// preparation.
#[test]
fn backend_query_agreement_grid() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    for (name, g) in generator_grid() {
        let total = baseline::edge_iterator_merge(&g);
        let local = baseline::local_triangles(&g);
        let support = naive_edge_support(&g);
        let wedges: u64 = g
            .vertices()
            .map(|v| {
                let d = g.degree(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();

        let prepared = pipeline.prepare(&g);
        let built_after_prepare = artifacts_built(&pipeline);
        for spec in Backend::default_suite() {
            let ctx = format!("{name} on {}", spec.label());
            for query in Query::example_suite() {
                let report = pipeline.query(&prepared, &spec, &query).unwrap();
                assert_eq!(report.triangles, total, "{ctx}: {query}");
                match report.value {
                    QueryValue::Total(t) => assert_eq!(t, total, "{ctx}"),
                    QueryValue::PerVertex(pv) => {
                        assert_eq!(pv, local, "{ctx}");
                        assert_eq!(pv.iter().sum::<u64>(), 3 * total, "{ctx}");
                    }
                    QueryValue::LocalClustering(entries) => {
                        assert_eq!(entries.len(), g.vertex_count(), "{ctx}");
                        for e in &entries {
                            assert_eq!(e.triangles, local[e.vertex as usize], "{ctx}");
                            assert_eq!(e.degree, g.degree(e.vertex) as u64, "{ctx}");
                            let wedge = e.degree * e.degree.saturating_sub(1) / 2;
                            let expected = if wedge == 0 {
                                0.0
                            } else {
                                e.triangles as f64 / wedge as f64
                            };
                            assert!((e.coefficient - expected).abs() < 1e-12, "{ctx}");
                        }
                    }
                    QueryValue::GlobalClustering { triangles, wedges: w, transitivity } => {
                        assert_eq!((triangles, w), (total, wedges), "{ctx}");
                        let expected =
                            if wedges == 0 { 0.0 } else { 3.0 * total as f64 / wedges as f64 };
                        assert!((transitivity - expected).abs() < 1e-12, "{ctx}");
                    }
                    QueryValue::EdgeSupport(entries) => {
                        let got: Vec<(u32, u32, u64)> =
                            entries.iter().map(|e| (e.u, e.v, e.support)).collect();
                        assert_eq!(got, support, "{ctx}");
                    }
                    QueryValue::TopK(ranked) => {
                        assert_eq!(ranked.len(), 5.min(g.vertex_count()), "{ctx}");
                        let mut expected: Vec<(u32, u64)> =
                            local.iter().enumerate().map(|(v, &t)| (v as u32, t)).collect();
                        expected.sort_by_key(|&(v, t)| (std::cmp::Reverse(t), v));
                        for (entry, &(v, t)) in ranked.iter().zip(&expected) {
                            assert_eq!((entry.vertex, entry.triangles), (v, t), "{ctx}");
                        }
                    }
                    other => panic!("{ctx}: unexpected value shape {other:?}"),
                }
            }
        }
        // Acceptance: every backend answered every query variant from
        // the one artifact — nothing was re-oriented or re-sliced.
        assert_eq!(
            artifacts_built(&pipeline),
            built_after_prepare,
            "{name}: queries must never re-slice"
        );
    }
}

/// Edge support against the naive common-neighbour count on every
/// support path: each default-suite backend and sharded runs in both
/// composition modes at 2 and 4 shards, under both row encodings, on a
/// skewed R-MAT and a BA graph. Support is tallied by forward cursors
/// along each triangle's row and column, so a cursor that missed an arc
/// would move one edge's support here.
#[test]
fn edge_support_matches_the_naive_count_on_every_backend_and_encoding() {
    let graphs = [
        ("rmat", rmat(10, 9000, RmatParams::default(), 5).unwrap()),
        ("barabasi-albert", barabasi_albert(900, 9, 13).unwrap()),
    ];
    let mut suite = Backend::default_suite();
    for mode in [ShardMode::OneD, ShardMode::TwoD] {
        for shards in [2, 4] {
            suite.push(Backend::Sharded(ShardPolicy::with_shards(shards).mode(mode)));
        }
    }
    for encoding in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
        let pipeline =
            TcimPipeline::new(&TcimConfig { encoding, ..TcimConfig::default() }).unwrap();
        for (name, g) in &graphs {
            let support = naive_edge_support(g);
            assert!(support.iter().any(|&(.., s)| s > 10), "{name}: hub edges");
            let prepared = pipeline.prepare(g);
            for spec in &suite {
                let ctx = format!("{name} {encoding} on {}", spec.label());
                let report = pipeline.query(&prepared, spec, &Query::EdgeSupport).unwrap();
                let QueryValue::EdgeSupport(entries) = report.value else {
                    panic!("{ctx}: not an edge-support value");
                };
                let got: Vec<(u32, u32, u64)> =
                    entries.iter().map(|e| (e.u, e.v, e.support)).collect();
                assert_eq!(got, support, "{ctx}");
            }
        }
    }
}

/// The motif extension of the agreement grid: every backend (the
/// default suite plus a sharded member) answers `KTruss` and
/// `FourCliques` whole-`QueryValue`-identically to the naive oracle on
/// every generator, and the peeling rounds never re-slice — the pin is
/// taken after each backend's one-time prepare so it isolates the
/// motif rounds.
#[test]
fn motif_queries_agree_with_the_oracle_across_the_grid() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let mut suite = Backend::default_suite();
    suite.push(Backend::Sharded(ShardPolicy {
        spec: ShardSpec { shards: 4, mode: ShardMode::OneD },
        inner: SchedPolicy::with_arrays(2),
    }));
    for (name, g) in generator_grid() {
        let truss = oracle::trussness(&g);
        let (k4_total, k4_per_vertex) = oracle::four_cliques(&g);
        let prepared = pipeline.prepare(&g);
        for spec in &suite {
            pipeline.query(&prepared, spec, &Query::TotalTriangles).unwrap();
        }
        let built = artifacts_built(&pipeline);
        for spec in &suite {
            let ctx = format!("{name} on {}", spec.label());
            let report = pipeline.query(&prepared, spec, &Query::KTruss { k: 4 }).unwrap();
            let got: Vec<(u32, u32, u32)> = report
                .value
                .trussness()
                .unwrap()
                .iter()
                .map(|e| (e.u, e.v, e.trussness))
                .collect();
            assert_eq!(got, truss, "{ctx}: trussness");
            assert_eq!(
                report.value.truss_members().unwrap(),
                oracle::ktruss_edges(&g, 4),
                "{ctx}: 4-truss members"
            );
            let report = pipeline.query(&prepared, spec, &Query::FourCliques).unwrap();
            assert_eq!(
                report.value,
                QueryValue::FourCliques { total: k4_total, per_vertex: k4_per_vertex.clone() },
                "{ctx}: four-cliques"
            );
        }
        assert_eq!(
            artifacts_built(&pipeline),
            built,
            "{name}: motif peeling must never re-slice"
        );
    }
}

/// When *every* vertex ties (a p=0 Watts–Strogatz ring is
/// vertex-transitive: every vertex closes the same number of
/// triangles), the top-k ranking must still be deterministic and
/// backend-independent — ascending input id, on every backend, under
/// every orientation. This pins the documented tie-break on the
/// all-ties worst case.
#[test]
fn topk_breaks_total_ties_by_ascending_input_id_on_every_backend() {
    let g = watts_strogatz(64, 6, 0.0, 1).unwrap();
    let local = baseline::local_triangles(&g);
    assert!(
        local.iter().all(|&t| t == local[0]) && local[0] > 0,
        "the ring must be a non-trivial all-ties instance"
    );
    for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy] {
        let pipeline =
            TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() }).unwrap();
        let prepared = pipeline.prepare(&g);
        for spec in Backend::default_suite() {
            let ctx = format!("{orientation:?} on {}", spec.label());
            let report =
                pipeline.query(&prepared, &spec, &Query::TopKVertices { k: 7 }).unwrap();
            let ranked = match report.value {
                QueryValue::TopK(ranked) => ranked,
                other => panic!("{ctx}: unexpected value shape {other:?}"),
            };
            let got: Vec<(u32, u64)> =
                ranked.iter().map(|e| (e.vertex, e.triangles)).collect();
            let expected: Vec<(u32, u64)> = (0..7).map(|v| (v, local[0])).collect();
            assert_eq!(got, expected, "{ctx}: ties break by ascending input id");
        }
    }
}

/// Relabelling orientations (degree, degeneracy) must not change any
/// per-vertex-attributed answer: ids are mapped back to the input
/// graph inside the execution layer.
#[test]
fn attributed_queries_are_orientation_invariant() {
    let g = barabasi_albert(200, 6, 9).unwrap();
    let local = baseline::local_triangles(&g);
    let support = naive_edge_support(&g);
    for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy] {
        let pipeline =
            TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() }).unwrap();
        let prepared = pipeline.prepare(&g);
        for spec in Backend::default_suite() {
            let ctx = format!("{orientation:?} on {}", spec.label());
            let pv = pipeline.query(&prepared, &spec, &Query::PerVertexTriangles).unwrap();
            assert_eq!(pv.value.per_vertex().unwrap(), local.as_slice(), "{ctx}");
            let es = pipeline.query(&prepared, &spec, &Query::EdgeSupport).unwrap();
            let got: Vec<(u32, u32, u64)> = es
                .value
                .edge_support()
                .unwrap()
                .iter()
                .map(|e| (e.u, e.v, e.support))
                .collect();
            assert_eq!(got, support, "{ctx}");
        }
    }
}

/// The attributed PIM run pays for its readouts: the kernel stats of a
/// per-vertex query report one readout per non-zero AND result and the
/// modelled cost exceeds the plain count's, while slice pairs stay
/// identical between serial and scheduled paths.
#[test]
fn attributed_queries_cost_readouts_and_report_normalized_stats() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&gnm(250, 1800, 2).unwrap());
    let total =
        pipeline.query(&prepared, &Backend::SerialPim, &Query::TotalTriangles).unwrap();
    let local =
        pipeline.query(&prepared, &Backend::SerialPim, &Query::PerVertexTriangles).unwrap();
    assert_eq!(total.kernel.result_readouts, 0);
    assert!(local.kernel.result_readouts > 0);
    assert_eq!(local.kernel.slice_pairs, total.kernel.slice_pairs);
    assert!(local.modelled_time_s.unwrap() > total.modelled_time_s.unwrap());
    assert!(local.modelled_energy_j.unwrap() > total.modelled_energy_j.unwrap());
    // Scheduled attribution reports the identical normalized stats.
    let sched = pipeline
        .query(
            &prepared,
            &Backend::ScheduledPim(tcim_repro::sched::SchedPolicy::with_arrays(4)),
            &Query::PerVertexTriangles,
        )
        .unwrap();
    assert_eq!(sched.kernel, local.kernel);
    assert_eq!(sched.value, local.value);
}
