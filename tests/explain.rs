//! Acceptance tests of query EXPLAIN: across every backend of the
//! default suite (plus sharded execution), both generators and every
//! encoding policy, the plan assembled *before* running must agree
//! with the executed run — same backend label, same resolved encoding,
//! same shard count, and a bit-exact kernel-dispatch census
//! (`kernel_invocations`, `slice_pairs`, `blocks_skipped`; readouts are
//! data-dependent and excluded by design).

use std::sync::Arc;

use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::gateway::{Gateway, GatewayConfig};
use tcim_repro::graph::generators::{barabasi_albert, gnm};
use tcim_repro::graph::CsrGraph;
use tcim_repro::service::{
    QueryRequest, QueryResponse, ServiceConfig, ServiceError, TcimService,
};
use tcim_repro::tcim::{Backend, Query, ShardPolicy, TcimConfig, TcimPipeline};

fn generators() -> Vec<(&'static str, CsrGraph)> {
    vec![("ba", barabasi_albert(240, 5, 7).unwrap()), ("gnm", gnm(300, 2100, 17).unwrap())]
}

fn backends() -> Vec<Backend> {
    let mut suite = Backend::default_suite();
    suite.push(Backend::Sharded(ShardPolicy::with_shards(3)));
    suite
}

fn policies() -> [EncodingPolicy; 3] {
    [EncodingPolicy::default(), EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse]
}

/// The headline property: the predicted census of every plan matches
/// the executed run bit-exactly, for every backend × generator ×
/// encoding-policy cell of the grid.
#[test]
fn predicted_census_matches_execution_across_the_grid() {
    for policy in policies() {
        let config = TcimConfig { encoding: policy, ..TcimConfig::default() };
        let pipeline = TcimPipeline::new(&config).unwrap();
        for (graph_name, g) in generators() {
            let prepared = pipeline.prepare(&g);
            for backend in backends() {
                let label = format!("{policy:?}/{graph_name}/{}", backend.label());
                let plan = pipeline.explain(&g, &backend, &Query::TotalTriangles).unwrap();
                let report =
                    pipeline.query(&prepared, &backend, &Query::TotalTriangles).unwrap();

                // Routing agrees.
                assert_eq!(plan.backend, report.backend, "{label}");
                assert_eq!(plan.encoding.resolved, prepared.encoding(), "{label}");
                assert_eq!(plan.encoding.policy, policy, "{label}");

                // The census is exact, component by component.
                assert_eq!(
                    plan.predicted.census.kernel_invocations, report.kernel.kernel_invocations,
                    "{label}: kernel invocations"
                );
                assert_eq!(
                    plan.predicted.census.slice_pairs, report.kernel.slice_pairs,
                    "{label}: slice pairs"
                );
                assert_eq!(
                    plan.predicted.census.blocks_skipped, report.kernel.blocks_skipped,
                    "{label}: blocks skipped"
                );
                assert!(plan.predicted.census.matches(&report.kernel), "{label}");

                // Shard plans agree with shard provenance.
                match (&plan.sharding, &report.sharding) {
                    (Some(planned), Some(ran)) => {
                        assert_eq!(planned.per_shard.len(), ran.shards, "{label}");
                        assert_eq!(planned.occupied_shards, ran.occupied_shards, "{label}");
                        assert_eq!(planned.cross_arcs, ran.boundary_arcs, "{label}");
                        let planned_cross: Vec<u64> =
                            planned.per_shard.iter().map(|p| p.cross_arcs).collect();
                        let ran_cross: Vec<u64> =
                            ran.per_shard.iter().map(|s| s.cross_arcs).collect();
                        assert_eq!(planned_cross, ran_cross, "{label}: cross arcs per shard");
                    }
                    (None, None) => {}
                    (planned, ran) => {
                        panic!("{label}: plan/run shard disagreement: {planned:?} vs {ran:?}")
                    }
                }

                // Modelled-time prediction exists exactly for the
                // backends that report a modelled time.
                assert_eq!(
                    plan.predicted.modelled_s.is_some(),
                    report.modelled_time_s.is_some(),
                    "{label}"
                );
            }
        }
    }
}

/// The census holds on the attributed (readout-heavy) execution path
/// too: per-vertex queries dispatch the same kernels as total counts.
#[test]
fn census_is_exact_on_the_attributed_path() {
    for policy in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
        let config = TcimConfig { encoding: policy, ..TcimConfig::default() };
        let pipeline = TcimPipeline::new(&config).unwrap();
        let g = gnm(200, 1500, 5).unwrap();
        let prepared = pipeline.prepare(&g);
        for backend in [Backend::SerialPim, Backend::Sharded(ShardPolicy::with_shards(2))] {
            let plan = pipeline.explain(&g, &backend, &Query::PerVertexTriangles).unwrap();
            assert!(plan.needs_attribution);
            let report =
                pipeline.query(&prepared, &backend, &Query::PerVertexTriangles).unwrap();
            assert!(
                plan.predicted.census.matches(&report.kernel),
                "{policy:?}/{}: {plan}",
                backend.label()
            );
        }
    }
}

/// Service-level explain runs the same backend auto-selection as a
/// real request: under a slice budget, the plan goes sharded with the
/// same shard count the executed response reports.
#[test]
fn service_explain_reuses_backend_auto_selection() {
    let config = ServiceConfig {
        shard_slice_budget: Some(64),
        shard: ShardPolicy::with_shards(2),
        ..ServiceConfig::default()
    };
    let service = TcimService::new(&config).unwrap();
    let g = gnm(400, 2800, 23).unwrap();
    service.register("big", &g).unwrap();

    let plan = service.explain("big", &Query::TotalTriangles).unwrap();
    assert!(plan.backend.starts_with("tcim-shard"), "{}", plan.backend);
    let response = service.query("big", &Query::TotalTriangles).unwrap();
    assert_eq!(plan.backend, response.backend);
    let planned = plan.sharding.as_ref().unwrap();
    let ran = response.sharding.as_ref().unwrap();
    assert_eq!(planned.per_shard.len(), ran.shards);
    assert!(plan.predicted.census.matches(&response.kernel), "{plan}");

    // Explicit overrides are honoured by the planner too.
    let merged = service
        .explain_with(
            &QueryRequest::new("big", Query::TotalTriangles).with_backend(Backend::CpuMerge),
        )
        .unwrap();
    assert_eq!(merged.backend, "cpu-merge");
}

/// Three static queries on graph `g`, sent through a gateway as one
/// coalesced wave (caller-driven dispatch): their responses, in
/// submission order.
fn coalesced_wave(service: &Arc<TcimService>) -> Vec<QueryResponse> {
    let gateway = Gateway::new(
        Arc::clone(service),
        &GatewayConfig { workers: 0, ..GatewayConfig::default() },
    );
    let tickets: Vec<_> =
        [Query::TotalTriangles, Query::PerVertexTriangles, Query::GlobalClustering]
            .into_iter()
            .map(|query| gateway.submit("t", QueryRequest::new("g", query)).unwrap())
            .collect();
    assert_eq!(gateway.run_until_idle(), 3);
    let responses: Vec<QueryResponse> =
        tickets.into_iter().map(|ticket| ticket.wait().unwrap()).collect();
    for response in &responses {
        let batch = response.batch.as_ref().expect("gateway answers carry provenance");
        assert_eq!((batch.coalesced, batch.executions), (3, 1), "one coalesced run");
    }
    responses
}

/// With `explain_queries` on, every static response carries its plan
/// with measured accounting attached — and the census verdict is an
/// exact match, for direct answers and coalesced ones alike.
#[test]
fn responses_carry_explain_with_measurement_when_enabled() {
    let config = ServiceConfig { explain_queries: true, ..ServiceConfig::default() };
    let service = Arc::new(TcimService::new(&config).unwrap());
    service.register("g", &barabasi_albert(150, 4, 3).unwrap()).unwrap();

    let response = service.query("g", &Query::TotalTriangles).unwrap();
    let explain = response.explain.as_ref().expect("explain_queries is on");
    assert_eq!(explain.backend, response.backend);
    assert_eq!(explain.census_matches(), Some(true), "{explain}");
    let measured = explain.measured.as_ref().unwrap();
    assert_eq!(measured.kernel, response.kernel);

    // A coalesced wave's members each carry their own plan, measured
    // against the one carrier run they shared.
    for response in coalesced_wave(&service) {
        let explain = response.explain.as_ref().expect("coalesced answers carry their plan");
        assert_eq!(explain.query, response.query);
        assert_eq!(explain.backend, response.backend);
        assert_eq!(explain.census_matches(), Some(true), "{explain}");
        assert_eq!(explain.measured.as_ref().unwrap().kernel, response.kernel);
    }

    // Off by default: responses stay lean.
    let lean = TcimService::new(&ServiceConfig::default()).unwrap();
    lean.register("g", &barabasi_albert(150, 4, 3).unwrap()).unwrap();
    assert!(lean.query("g", &Query::TotalTriangles).unwrap().explain.is_none());
}

/// Slow-query capture: with a zero threshold every request is an
/// offender; records retain the full explain + phase breakdown, the
/// counter is monotonic, and live graphs refuse to be explained.
#[test]
fn slow_queries_are_captured_with_full_forensics() {
    let config = ServiceConfig {
        profile_queries: true,
        slow_query_threshold: Some(std::time::Duration::ZERO),
        slow_query_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = Arc::new(TcimService::new(&config).unwrap());
    service.register("g", &gnm(120, 700, 9).unwrap()).unwrap();

    for _ in 0..3 {
        service.query("g", &Query::TotalTriangles).unwrap();
    }
    assert_eq!(service.slow_queries().total(), 3);
    let records = service.slow_queries().drain();
    assert_eq!(records.len(), 3);
    for record in &records {
        assert_eq!(record.graph, "g");
        let explain = record.explain.as_ref().expect("static answers carry their plan");
        assert_eq!(explain.census_matches(), Some(true));
        let phases = record.phases.as_ref().expect("profile_queries is on");
        assert!(phases.phases.iter().any(|p| p.name == "execute"));
        assert!(record.to_string().contains("SLOW g"));
    }
    // Drain empties retention but not the monotonic counter.
    assert!(service.slow_queries().is_empty());
    assert_eq!(service.slow_queries().total(), 3);
    // Responses do NOT carry explain (explain_queries is off) even
    // though the slow log captured it.
    assert!(service.query("g", &Query::TotalTriangles).unwrap().explain.is_none());
    assert_eq!(service.slow_queries().total(), 4);

    // The counter renders in the Prometheus exposition.
    let text = service.render_prometheus();
    assert!(text.contains("tcim_slow_queries_total 4"), "{text}");

    // A coalesced wave's slow members are recorded with their plans
    // too; the responses still carry none.
    service.slow_queries().drain();
    for response in coalesced_wave(&service) {
        assert!(response.explain.is_none(), "explain_queries is off");
    }
    let records = service.slow_queries().drain();
    assert_eq!(records.len(), 3);
    for record in &records {
        let explain = record.explain.as_ref().expect("coalesced static answers carry a plan");
        assert_eq!(explain.query, record.query);
        assert_eq!(explain.census_matches(), Some(true), "{explain}");
        let phases = record.phases.as_ref().expect("profile_queries is on");
        assert!(phases.phases.iter().any(|p| p.name == "execute"));
    }

    // Live graphs answer from maintained state: nothing to explain.
    service.register_live("live", &gnm(40, 120, 1).unwrap()).unwrap();
    assert!(matches!(
        service.explain("live", &Query::TotalTriangles),
        Err(ServiceError::NotPlannable { .. })
    ));
    assert!(matches!(
        service.explain("missing", &Query::TotalTriangles),
        Err(ServiceError::UnknownGraph { .. })
    ));
}

/// The observability surface of the metrics endpoint: flight-recorder
/// health, calibration histograms and the per-backend/per-encoding
/// labelled series all render.
#[test]
fn prometheus_exposition_carries_observability_families() {
    let service = TcimService::new(&ServiceConfig::default()).unwrap();
    service.register("g", &gnm(150, 900, 13).unwrap()).unwrap();
    service.query("g", &Query::TotalTriangles).unwrap();
    service
        .query_with(
            &QueryRequest::new("g", Query::TotalTriangles).with_backend(Backend::CpuMerge),
        )
        .unwrap();

    let text = service.render_prometheus();
    for family in [
        "tcim_slow_queries_total",
        "tcim_spans_dropped_total",
        "tcim_flight_recorder_capacity",
        "tcim_flight_recorder_retained_spans",
        "tcim_slow_query_log_retained",
        "tcim_model_error_permille",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    // Labelled per-backend/per-encoding execution series.
    assert!(
        text.contains("tcim_executions_total{backend=\"tcim-serial\",encoding="),
        "{text}"
    );
    assert!(text.contains("backend=\"cpu-merge\""), "{text}");
    // The calibration histogram recorded the serial-PIM run.
    assert!(text.contains("tcim_model_error_permille_count"), "{text}");
}
