//! Acceptance tests of the `tcim-service` facade: concurrent mixed
//! queries across multiple registered graphs with correct per-response
//! provenance, live (incrementally maintained) graphs that survive
//! randomized churn, and registry lifecycle.

use std::sync::Barrier;

use tcim_repro::graph::generators::{barabasi_albert, classic, gnm};
use tcim_repro::service::{QueryRequest, ServiceConfig, ServiceError, TcimService};
use tcim_repro::stream::UpdateBatch;
use tcim_repro::tcim::{baseline, Backend, Query, QueryValue};

fn service() -> TcimService {
    TcimService::new(&ServiceConfig::default()).unwrap()
}

/// The headline acceptance criterion: ≥ 4 concurrent mixed queries
/// across ≥ 2 registered graphs, every response carrying correct
/// provenance (graph, fingerprint, backend, cache hit, wall time).
#[test]
fn serves_concurrent_mixed_queries_across_graphs_with_provenance() {
    let service = service();
    let ba = barabasi_albert(300, 5, 21).unwrap();
    let er = gnm(250, 1700, 4).unwrap();
    let info_ba = service.register("ba", &ba).unwrap();
    let info_er = service.register("er", &er).unwrap();
    assert_ne!(info_ba.fingerprint, info_er.fingerprint);

    let requests = vec![
        QueryRequest::new("ba", Query::TotalTriangles),
        QueryRequest::new("er", Query::PerVertexTriangles),
        QueryRequest::new("ba", Query::LocalClustering { vertices: Some(vec![0, 5, 17]) })
            .with_backend(Backend::CpuForward),
        QueryRequest::new("er", Query::GlobalClustering).with_backend(Backend::CpuMerge),
        QueryRequest::new("ba", Query::TopKVertices { k: 3 }),
        QueryRequest::new("er", Query::EdgeSupport).with_backend(Backend::CpuMerge),
    ];
    let responses = service.serve(&requests);
    assert_eq!(responses.len(), 6);
    let responses: Vec<_> = responses.into_iter().map(Result::unwrap).collect();

    let ba_total = baseline::edge_iterator_merge(&ba);
    let er_total = baseline::edge_iterator_merge(&er);
    let er_local = baseline::local_triangles(&er);

    // Response 0: total on ba, default backend.
    assert_eq!(responses[0].triangles, ba_total);
    assert_eq!(responses[0].backend, Backend::SerialPim.label());
    // Response 1: per-vertex on er.
    assert_eq!(responses[1].value.per_vertex().unwrap(), er_local.as_slice());
    // Response 2: explicit backend override is honoured and echoed.
    assert_eq!(responses[2].backend, Backend::CpuForward.label());
    assert_eq!(responses[2].value.local_clustering().unwrap().len(), 3);
    // Response 3: global clustering on er.
    let QueryValue::GlobalClustering { triangles, .. } = responses[3].value else {
        panic!("wrong shape");
    };
    assert_eq!(triangles, er_total);
    // Response 4/5 shapes.
    assert_eq!(responses[4].value.top_k().unwrap().len(), 3);
    assert_eq!(responses[5].value.edge_support().unwrap().len(), er.edge_count());

    // Shared provenance invariants.
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.graph, request.graph);
        assert_eq!(response.query, request.query);
        assert!(
            response.prepared_cache_hit,
            "{}: registered artifacts always hit",
            response.graph
        );
        assert!(!response.live);
        let expected_fingerprint =
            if request.graph == "ba" { info_ba.fingerprint } else { info_er.fingerprint };
        assert_eq!(response.fingerprint, expected_fingerprint);
        assert!(response.wall.as_nanos() > 0);
    }
    // Serving counters advanced.
    let cards = service.list();
    assert_eq!(cards.len(), 2);
    assert_eq!(cards.iter().map(|c| c.queries_served).sum::<u64>(), 6);
}

/// Queries answer from the one artifact prepared at registration:
/// nothing re-orients or re-slices at serve time, pinned via the
/// serving pipeline's prepared- and sharded-cache misses (the only
/// places it slices a matrix).
#[test]
fn serving_never_reslices() {
    let service = service();
    service.register("a", &classic::wheel(60)).unwrap();
    service.register("b", &gnm(150, 900, 8).unwrap()).unwrap();
    let pipeline = service.pipeline();
    let artifacts_built = || (pipeline.cache().misses(), pipeline.sharded_cache().misses());
    let built = artifacts_built();
    assert_eq!(built, (2, 0), "registration prepared each graph once");
    let requests: Vec<QueryRequest> = Query::example_suite()
        .into_iter()
        .flat_map(|q| [QueryRequest::new("a", q.clone()), QueryRequest::new("b", q)])
        .collect();
    for outcome in service.serve(&requests) {
        outcome.unwrap();
    }
    assert_eq!(artifacts_built(), built);
    // Re-registering the same graph hits the prepared cache.
    let again = service.register("a-alias", &classic::wheel(60)).unwrap();
    assert!(again.prepared_cache_hit);
    assert_eq!(artifacts_built(), built);
}

/// Live graphs serve the motif queries straight off the maintained
/// rows: after churn, `KTruss` and `FourCliques` answers from the
/// live path equal the naive oracle on the materialised snapshot, and
/// the response provenance names the incremental backend.
#[test]
fn live_graphs_serve_motif_queries_from_maintained_rows() {
    use tcim_repro::graph::oracle;
    let service = service();
    let g = gnm(90, 450, 5).unwrap();
    service.register_live("feed", &g).unwrap();
    let mut batch = UpdateBatch::new();
    for (i, (u, v)) in g.edges().enumerate() {
        if i % 4 == 0 {
            batch.delete(u, v);
        }
    }
    service.update("feed", &batch).unwrap();

    // Materialise the live edge set through the served edge-support
    // list (the same reconstruction the churn test below uses).
    let responses = service.serve(&[QueryRequest::new("feed", Query::EdgeSupport)]);
    let support = responses[0].as_ref().unwrap().value.edge_support().unwrap().to_vec();
    let snapshot = tcim_repro::graph::CsrGraph::from_edges(
        90,
        support.iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
    )
    .unwrap();
    let truss = oracle::trussness(&snapshot);
    let (k4_total, k4_per_vertex) = oracle::four_cliques(&snapshot);

    let responses = service.serve(&[
        QueryRequest::new("feed", Query::KTruss { k: 4 }),
        QueryRequest::new("feed", Query::FourCliques),
    ]);
    let ktruss = responses[0].as_ref().unwrap();
    assert_eq!(ktruss.backend, "stream-incremental");
    assert!(ktruss.live);
    let got: Vec<(u32, u32, u32)> =
        ktruss.value.trussness().unwrap().iter().map(|e| (e.u, e.v, e.trussness)).collect();
    assert_eq!(got, truss, "live trussness equals the oracle on the snapshot");
    assert!(ktruss.kernel.kernel_invocations >= snapshot.edge_count() as u64);

    let cliques = responses[1].as_ref().unwrap();
    assert_eq!(cliques.backend, "stream-incremental");
    assert_eq!(
        cliques.value.four_cliques().unwrap(),
        (k4_total, k4_per_vertex.as_slice()),
        "live 4-cliques equal the oracle on the snapshot"
    );
}

/// Live graphs answer total + per-vertex queries from incrementally
/// maintained state; after randomized churn every answer equals a
/// from-scratch recount of the materialised snapshot.
#[test]
fn live_graph_answers_match_recount_after_randomized_churn() {
    let service = service();
    let g = gnm(120, 700, 33).unwrap();
    let info = service.register_live("feed", &g).unwrap();
    assert!(info.live);

    // Deterministic pseudo-random churn: mix of inserts and deletes.
    let mut x = 77u64;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    for round in 0..10 {
        let mut batch = UpdateBatch::new();
        for _ in 0..20 {
            let u = (step() % 120) as u32;
            let v = (step() % 120) as u32;
            if u == v {
                continue;
            }
            if step() % 2 == 0 {
                batch.insert(u, v);
            } else {
                batch.delete(u, v);
            }
        }
        // Invalid updates are rejected per-update, not per-batch.
        service.update("feed", &batch).unwrap();

        // Every round: the maintained answers must equal a from-scratch
        // recount of the live state, reconstructed independently from
        // the served edge list.
        let responses = service.serve(&[
            QueryRequest::new("feed", Query::TotalTriangles),
            QueryRequest::new("feed", Query::PerVertexTriangles),
            QueryRequest::new("feed", Query::EdgeSupport),
            QueryRequest::new("feed", Query::GlobalClustering),
        ]);
        let responses: Vec<_> = responses.into_iter().map(Result::unwrap).collect();
        assert!(responses.iter().all(|r| r.live), "round {round}");
        assert_eq!(responses[1].backend, "stream-incremental");
        let support = responses[2].value.edge_support().unwrap();
        let snapshot = tcim_repro::graph::CsrGraph::from_edges(
            120,
            support.iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(
            baseline::edge_iterator_merge(&snapshot),
            responses[0].triangles,
            "round {round}"
        );
        assert_eq!(
            baseline::local_triangles(&snapshot).as_slice(),
            responses[1].value.per_vertex().unwrap(),
            "round {round}"
        );
        let naive_support: Vec<u64> = snapshot
            .edges()
            .map(|(u, v)| {
                let nu = snapshot.neighbors(u);
                let nv = snapshot.neighbors(v);
                nu.iter().filter(|w| nv.binary_search(w).is_ok()).count() as u64
            })
            .collect();
        let served: Vec<u64> = support.iter().map(|e| e.support).collect();
        assert_eq!(served, naive_support, "round {round}");
        let QueryValue::GlobalClustering { triangles, .. } = responses[3].value else {
            panic!("wrong shape");
        };
        assert_eq!(triangles, responses[0].triangles, "round {round}");
    }
}

/// Registry lifecycle: names are exclusive across the static and live
/// namespaces, unknown names fail cleanly, and eviction frees the
/// name.
#[test]
fn registry_lifecycle_and_name_conflicts() {
    let service = service();
    service.register("g", &classic::wheel(12)).unwrap();
    assert!(matches!(
        service.register_live("g", &classic::wheel(12)),
        Err(ServiceError::NameInUse { .. })
    ));
    service.register_live("live", &classic::fig2_example()).unwrap();
    assert!(matches!(
        service.register("live", &classic::wheel(12)),
        Err(ServiceError::NameInUse { .. })
    ));
    assert!(matches!(
        service.query("missing", &Query::TotalTriangles),
        Err(ServiceError::UnknownGraph { .. })
    ));
    assert!(
        matches!(
            service.update("g", &UpdateBatch::new()),
            Err(ServiceError::UnknownGraph { .. }),
        ),
        "static graphs reject updates"
    );

    assert_eq!(service.list().len(), 2);
    let evicted = service.evict("g").unwrap();
    assert_eq!(evicted.name, "g");
    let evicted_live = service.evict("live").unwrap();
    assert!(evicted_live.live);
    assert!(service.list().is_empty());
    assert!(matches!(service.evict("g"), Err(ServiceError::UnknownGraph { .. })));
    // The freed names can be reused.
    service.register_live("g", &classic::wheel(12)).unwrap();
    let report = service.query("g", &Query::TotalTriangles).unwrap();
    assert_eq!(report.triangles, 11);
}

/// Static and live registrations racing for one name: exactly one kind
/// wins it, every losing call reports `NameInUse`, and the static
/// winners (idempotent re-registrations of one graph) agree on its
/// fingerprint.
#[test]
fn concurrent_registration_keeps_names_exclusive() {
    let g = classic::wheel(40);
    for round in 0..6 {
        let service = service();
        let name = format!("race-{round}");
        let barrier = Barrier::new(6);
        // (live call?, outcome) per thread; statics and lives interleave.
        let outcomes: Vec<(bool, Result<_, ServiceError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|t| {
                    let (service, name, barrier, g) = (&service, &name, &barrier, &g);
                    scope.spawn(move || {
                        let live = t % 2 == 1;
                        barrier.wait();
                        let outcome = if live {
                            service.register_live(name, g)
                        } else {
                            service.register(name, g)
                        };
                        (live, outcome)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let won =
            |live: bool| outcomes.iter().filter(|(l, o)| *l == live && o.is_ok()).count();
        let (static_wins, live_wins) = (won(false), won(true));
        assert!(
            (static_wins > 0 && live_wins == 0) || (static_wins == 0 && live_wins == 1),
            "round {round}: {static_wins} static and {live_wins} live registrations won"
        );
        for (_, outcome) in &outcomes {
            if let Err(e) = outcome {
                assert!(matches!(e, ServiceError::NameInUse { .. }), "round {round}: {e}");
            }
        }
        let fingerprints: std::collections::BTreeSet<u64> = outcomes
            .iter()
            .filter(|(live, _)| !live)
            .filter_map(|(_, o)| o.as_ref().ok().map(|info| info.fingerprint))
            .collect();
        assert!(fingerprints.len() <= 1, "round {round}: {fingerprints:?}");

        let cards = service.list();
        assert_eq!(cards.len(), 1, "round {round}: one card for the name");
        assert_eq!(cards[0].name, name);
        assert_eq!(cards[0].live, live_wins == 1, "round {round}: the card names the winner");
    }
}

/// Out-of-bounds query parameters surface as wrapped core errors, for
/// static and live graphs alike.
#[test]
fn invalid_query_parameters_fail_cleanly() {
    let service = service();
    service.register("s", &classic::wheel(10)).unwrap();
    service.register_live("l", &classic::wheel(10)).unwrap();
    for name in ["s", "l"] {
        let err = service
            .query(name, &Query::LocalClustering { vertices: Some(vec![99]) })
            .unwrap_err();
        assert!(matches!(err, ServiceError::Core(_)), "{name}: {err}");
        assert!(err.to_string().contains("99"), "{name}");
    }
}
