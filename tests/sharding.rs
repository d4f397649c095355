//! The sharded × unsharded agreement grid: `Backend::Sharded` answers
//! every `Query` variant bit-identically to the unsharded backends,
//! across the generator grid × shard counts {1, 2, 4, 8} × both
//! composition modes — plus the service's slice-budget auto-selection
//! with shard provenance.

use tcim_repro::graph::generators::{barabasi_albert, gnm, rmat, watts_strogatz, RmatParams};
use tcim_repro::graph::CsrGraph;
use tcim_repro::service::{QueryRequest, ServiceConfig, TcimService};
use tcim_repro::shard::{ShardMode, ShardSpec};
use tcim_repro::tcim::{
    Backend, Query, QueryValue, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// The generator grid the satellite task names — sized so 64-bit
/// slice-aligned cuts produce genuinely occupied shards at count 8.
fn generator_grid() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("erdos-renyi", gnm(640, 4800, 7).unwrap()),
        ("barabasi-albert", barabasi_albert(600, 5, 3).unwrap()),
        ("rmat", rmat(9, 2600, RmatParams::default(), 11).unwrap()),
        ("watts-strogatz", watts_strogatz(576, 8, 0.2, 5).unwrap()),
    ]
}

fn sharded(shards: usize, mode: ShardMode) -> Backend {
    Backend::Sharded(ShardPolicy {
        spec: ShardSpec { shards, mode },
        inner: SchedPolicy::with_arrays(2),
    })
}

/// Sharded answers equal the CPU reference backend's answer for every
/// query shape, shard count and composition mode — the whole
/// `QueryValue`, not just the count.
#[test]
fn sharded_matches_unsharded_across_the_grid() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    for (name, g) in generator_grid() {
        let prepared = pipeline.prepare(&g);
        for query in Query::example_suite() {
            let reference = pipeline.query(&prepared, &Backend::CpuMerge, &query).unwrap();
            // The dispatch census depends on the resolved row encoding
            // (sparse skips provably-empty arcs), so it is compared
            // against an unsharded run of the same artifact, not the
            // CPU reference.
            let pim = pipeline.query(&prepared, &Backend::SerialPim, &query).unwrap();
            for shards in [1usize, 2, 4, 8] {
                for mode in [ShardMode::OneD, ShardMode::TwoD] {
                    let spec = sharded(shards, mode);
                    let report = pipeline.query(&prepared, &spec, &query).unwrap();
                    let ctx = format!("{name} {query} {shards}x{mode}");
                    assert_eq!(report.triangles, reference.triangles, "{ctx}");
                    assert_eq!(report.value, reference.value, "{ctx}");
                    // Per-arc dispatch census is partition-invariant
                    // under one encoding.
                    assert_eq!(
                        report.kernel.kernel_invocations, pim.kernel.kernel_invocations,
                        "{ctx}"
                    );
                    assert_eq!(report.kernel.slice_pairs, pim.kernel.slice_pairs, "{ctx}");
                    assert_eq!(
                        report.kernel.blocks_skipped, pim.kernel.blocks_skipped,
                        "{ctx}"
                    );
                    let prov = report.sharding.expect("sharded runs carry provenance");
                    assert_eq!(prov.shards, shards, "{ctx}");
                    assert_eq!(
                        prov.intra_triangles + prov.cross_triangles,
                        report.triangles,
                        "{ctx}"
                    );
                    if shards == 1 {
                        assert_eq!(prov.boundary_arcs, 0, "{ctx}");
                    }
                    assert!(prov.imbalance >= 1.0, "{ctx}");
                }
            }
        }
    }
}

/// Once a sharded artifact is cached, further sharded queries build no
/// new sliced matrices and no new composition plan — partitioning and
/// composition planning happen once per (graph, policy). Every count
/// read here belongs to this test's own pipeline and artifact.
#[test]
fn sharded_queries_reuse_the_partitioned_artifact() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&gnm(512, 3600, 13).unwrap());
    let spec = sharded(4, ShardMode::OneD);
    pipeline.query(&prepared, &spec, &Query::TotalTriangles).unwrap();
    let builds = || pipeline.metrics_snapshot().counter("tcim_prepared_cache_misses_total");
    let built = builds();
    for query in Query::example_suite() {
        pipeline.query(&prepared, &spec, &query).unwrap();
    }
    assert_eq!(pipeline.sharded_cache().misses(), 1, "partitioned once");
    assert_eq!(builds(), built, "queries after the first sharded build must not re-slice");
    assert_eq!(
        pipeline.sharded_cache().hits(),
        Query::example_suite().len() as u64,
        "one counted lookup per query after the first"
    );
    let artifact = pipeline.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
    assert_eq!(artifact.compose_plans_built(), 1, "composition planned once");

    // The same reuse story told by the metrics snapshot: sharded-cache
    // counters fold in from the cache itself, and the execution counter
    // equals the 1 + example-suite queries run above.
    let snap = pipeline.metrics_snapshot();
    assert_eq!(
        snap.counter("tcim_sharded_cache_hits_total"),
        Some(pipeline.sharded_cache().hits())
    );
    assert_eq!(
        snap.counter("tcim_sharded_cache_misses_total"),
        Some(pipeline.sharded_cache().misses())
    );
    assert_eq!(
        snap.counter("tcim_executions_total"),
        Some(1 + Query::example_suite().len() as u64)
    );
}

/// Sharded runs account their work into the pipeline's metrics exactly
/// as their reports do — the per-shard sums that `KernelStats::merge`
/// folds reach the counters unchanged.
#[test]
fn sharded_kernel_work_reaches_the_metrics() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&rmat(9, 2600, RmatParams::default(), 11).unwrap());
    let mut kernels = 0u64;
    let mut readouts = 0u64;
    for shards in [2usize, 4] {
        let report = pipeline
            .query(&prepared, &sharded(shards, ShardMode::TwoD), &Query::TotalTriangles)
            .unwrap();
        kernels += report.kernel.kernel_invocations;
        readouts += report.kernel.result_readouts;
    }
    let snap = pipeline.metrics_snapshot();
    assert_eq!(snap.counter("tcim_kernel_invocations_total"), Some(kernels));
    assert_eq!(snap.counter("tcim_result_readouts_total"), Some(readouts));
    assert_eq!(snap.counter("tcim_executions_total"), Some(2));
}

/// The service auto-selects sharded execution above the slice budget
/// (with provenance on the response) and keeps the default backend
/// below it or when the request names a backend explicitly.
#[test]
fn service_auto_selects_sharding_above_the_slice_budget() {
    let g = gnm(640, 5200, 17).unwrap();

    // Budget low enough that this graph exceeds it.
    let config = ServiceConfig { shard_slice_budget: Some(500), ..ServiceConfig::default() };
    let service = TcimService::new(&config).unwrap();
    service.register("big", &g).unwrap();

    let auto = service.query("big", &Query::TotalTriangles).unwrap();
    assert!(
        auto.backend.starts_with("tcim-shard["),
        "expected sharded auto-selection, got {}",
        auto.backend
    );
    let prov = auto.sharding.as_ref().expect("auto-sharded responses carry provenance");
    assert!(prov.shards >= 2);
    assert!(prov.boundary_arcs > 0);

    // The answer agrees with an explicitly unsharded request.
    let explicit = service
        .query_with(
            &QueryRequest::new("big", Query::PerVertexTriangles)
                .with_backend(Backend::CpuMerge),
        )
        .unwrap();
    assert!(explicit.sharding.is_none());
    let auto_pv = service.query("big", &Query::PerVertexTriangles).unwrap();
    match (&auto_pv.value, &explicit.value) {
        (QueryValue::PerVertex(a), QueryValue::PerVertex(b)) => assert_eq!(a, b),
        other => panic!("unexpected value shapes {other:?}"),
    }

    // A graph under the budget keeps the default backend.
    let service_small = TcimService::new(&config).unwrap();
    service_small.register("small", &gnm(96, 300, 1).unwrap()).unwrap();
    let small = service_small.query("small", &Query::TotalTriangles).unwrap();
    assert!(small.sharding.is_none());
    assert_eq!(small.backend, Backend::SerialPim.label());

    // No budget → never auto-shards.
    let service_off = TcimService::new(&ServiceConfig::default()).unwrap();
    service_off.register("big", &g).unwrap();
    let off = service_off.query("big", &Query::TotalTriangles).unwrap();
    assert!(off.sharding.is_none());
}

/// Concurrent mixed sharded/unsharded serving stays exact and each
/// response's provenance matches how it was answered.
#[test]
fn mixed_sharded_serving_is_exact() {
    let g = gnm(640, 5200, 23).unwrap();
    let config = ServiceConfig {
        shard_slice_budget: Some(600),
        serve_threads: Some(4),
        ..ServiceConfig::default()
    };
    let service = TcimService::new(&config).unwrap();
    service.register("g", &g).unwrap();
    let requests = vec![
        QueryRequest::new("g", Query::TotalTriangles),
        QueryRequest::new("g", Query::TotalTriangles).with_backend(Backend::CpuForward),
        QueryRequest::new("g", Query::GlobalClustering),
        QueryRequest::new("g", Query::TopKVertices { k: 3 }),
    ];
    let responses: Vec<_> =
        service.serve(&requests).into_iter().collect::<Result<_, _>>().unwrap();
    assert_eq!(responses[0].triangles, responses[1].triangles);
    assert!(responses[0].sharding.is_some(), "auto-sharded");
    assert!(responses[1].sharding.is_none(), "explicit backend wins");
    assert!(responses[2].sharding.is_some());
    assert_eq!(responses[3].triangles, responses[0].triangles);
}
