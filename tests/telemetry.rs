//! Telemetry invariants across the stack: profiling changes no answer,
//! phase breakdowns account for the wall time they claim to cover, and
//! the metrics a pipeline reports equal the accounting its reports
//! already pin.

use std::sync::Arc;

use proptest::prelude::*;
use tcim_repro::gateway::{Gateway, GatewayConfig};
use tcim_repro::graph::generators::{barabasi_albert, classic, gnm, rmat, RmatParams};
use tcim_repro::graph::CsrGraph;
use tcim_repro::service::{QueryRequest, QueryResponse, ServiceConfig, TcimService};
use tcim_repro::stream::UpdateBatch;
use tcim_repro::tcim::{Backend, Query, SchedPolicy, TcimConfig, TcimPipeline};
use tcim_repro::telemetry::{profile, recent_spans, set_flight_recorder, span};

fn suite() -> Vec<Backend> {
    let mut suite = Backend::default_suite();
    suite.push(Backend::Sharded(tcim_repro::tcim::ShardPolicy::with_shards(3)));
    suite
}

/// The best phase coverage of three profiled runs. A thread preempted
/// in a gap no span covers charges that slice to the total only, so
/// one run under a busy parallel harness can read low while the phases
/// still account for the work; the coverage floors hold for the best
/// run.
fn best_of_three(mut coverage: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| coverage()).fold(0.0, f64::max)
}

/// A profiled service query carries a per-phase breakdown whose phase
/// sum is within 5% of the total profiled wall time (the acceptance
/// criterion): `route` + `execute` cover everything `query_with` does,
/// and everything a coalesced gateway wave's group does. Each case is
/// judged by its best of three profiled runs.
#[test]
fn profiled_query_phases_sum_to_wall_time() {
    let config = ServiceConfig { profile_queries: true, ..ServiceConfig::default() };
    let service = Arc::new(TcimService::new(&config).unwrap());
    let g = gnm(400, 2600, 7).unwrap();
    service.register("g", &g).unwrap();
    let coverage = |response: &QueryResponse| {
        let phases = response.phases.as_ref().expect("profiling is enabled");
        let names: Vec<&str> = phases.phases.iter().map(|p| p.name).collect();
        assert!(names.contains(&"route"), "{names:?}");
        assert!(names.contains(&"execute"), "{names:?}");
        let sum = phases.phase_sum();
        assert!(sum <= phases.total, "phases cannot exceed the total");
        sum.as_secs_f64() / phases.total.as_secs_f64()
    };
    let check = |case: &str, covered: f64| {
        assert!(covered >= 0.95, "{case}: phases cover only {:.1}%", covered * 100.0);
    };

    for backend in suite() {
        let label = backend.label();
        let request = QueryRequest::new("g", Query::TotalTriangles).with_backend(backend);
        check(&label, best_of_three(|| coverage(&service.query_with(&request).unwrap())));
    }

    // One coalesced wave of three, caller-driven, three times over:
    // each member is judged by its best wave.
    let gateway = Gateway::new(
        Arc::clone(&service),
        &GatewayConfig { workers: 0, ..GatewayConfig::default() },
    );
    let wave = [Query::TotalTriangles, Query::PerVertexTriangles, Query::EdgeSupport];
    let mut best = [0.0f64; 3];
    for _ in 0..3 {
        let tickets: Vec<_> = wave
            .iter()
            .map(|query| gateway.submit("t", QueryRequest::new("g", query.clone())).unwrap())
            .collect();
        assert_eq!(gateway.run_until_idle(), 3);
        for (best, ticket) in best.iter_mut().zip(tickets) {
            let response = ticket.wait().unwrap();
            assert_eq!(response.batch.as_ref().map(|b| b.coalesced), Some(3));
            *best = best.max(coverage(&response));
        }
    }
    for (query, covered) in wave.iter().zip(best) {
        check(&format!("coalesced {query}"), covered);
    }
}

/// Profiling disabled → no breakdown; enabling it changes no answer.
#[test]
fn profiling_is_inert_on_answers() {
    let g = barabasi_albert(260, 5, 3).unwrap();
    let plain = TcimService::new(&ServiceConfig::default()).unwrap();
    let profiled =
        TcimService::new(&ServiceConfig { profile_queries: true, ..ServiceConfig::default() })
            .unwrap();
    plain.register("g", &g).unwrap();
    profiled.register("g", &g).unwrap();

    for query in Query::example_suite() {
        let a = plain.query("g", &query).unwrap();
        let b = profiled.query("g", &query).unwrap();
        assert!(a.phases.is_none(), "plain service must not profile");
        assert!(b.phases.is_some(), "profiled service must report phases");
        assert_eq!(a.value, b.value, "{query}");
        assert_eq!(a.triangles, b.triangles, "{query}");
        assert_eq!(a.kernel, b.kernel, "{query}");
    }
}

/// Live-graph queries profile too: the breakdown covers the
/// incremental answer path.
#[test]
fn live_queries_carry_phase_breakdowns() {
    let config = ServiceConfig { profile_queries: true, ..ServiceConfig::default() };
    let service = TcimService::new(&config).unwrap();
    service.register_live("feed", &classic::fig2_example()).unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert(0, 3);
    service.update("feed", &batch).unwrap();

    let response = service.query("feed", &Query::PerVertexTriangles).unwrap();
    assert!(response.live);
    let phases = response.phases.expect("profiling is enabled");
    assert!(phases.phases.iter().any(|p| p.name == "execute"));
}

/// The pipeline's metric counters equal the values its own reports
/// carry — the same `KernelStats` the existing tests pin. A motif query
/// records one execution whose kernel totals are its report's: the
/// anchor run plus the motif engine's rounds.
#[test]
fn pipeline_metrics_equal_report_accounting() {
    let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let g = rmat(8, 1500, RmatParams::default(), 5).unwrap();
    let prepared = p.prepare(&g);

    let mut kernels = 0u64;
    let mut pairs = 0u64;
    let mut readouts = 0u64;
    let mut executions = 0u64;
    for backend in suite() {
        for query in [
            Query::TotalTriangles,
            Query::PerVertexTriangles,
            Query::KTruss { k: 4 },
            Query::FourCliques,
        ] {
            let report = p.query(&prepared, &backend, &query).unwrap();
            kernels += report.kernel.kernel_invocations;
            pairs += report.kernel.slice_pairs;
            readouts += report.kernel.result_readouts;
            executions += 1;
        }
    }

    let snap = p.metrics_snapshot();
    assert_eq!(snap.counter("tcim_executions_total"), Some(executions));
    assert_eq!(snap.counter("tcim_kernel_invocations_total"), Some(kernels));
    assert_eq!(snap.counter("tcim_slice_pairs_total"), Some(pairs));
    assert_eq!(snap.counter("tcim_result_readouts_total"), Some(readouts));
    // Cache counters fold into the snapshot from the caches themselves.
    assert_eq!(snap.counter("tcim_prepared_cache_hits_total"), Some(p.cache().hits()));
    assert_eq!(snap.counter("tcim_prepared_cache_misses_total"), Some(p.cache().misses()));
    assert_eq!(snap.counter("tcim_prepared_cache_misses_total"), Some(1));
    let latency = snap.histogram("tcim_execute_latency_nanoseconds").unwrap();
    assert_eq!(latency.count, executions);
    assert!(latency.p50 <= latency.p99);
}

/// The service's Prometheus rendering exposes service, pipeline and
/// cache series in the text exposition format.
#[test]
fn prometheus_export_covers_the_stack() {
    let service = TcimService::new(&ServiceConfig::default()).unwrap();
    service.register("w", &classic::wheel(20)).unwrap();
    service.query("w", &Query::TotalTriangles).unwrap();
    service.query("w", &Query::GlobalClustering).unwrap();
    assert!(service.query("missing", &Query::TotalTriangles).is_err());

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("tcim_service_queries_total"), Some(3));
    assert_eq!(snap.counter("tcim_service_query_failures_total"), Some(1));
    assert_eq!(snap.counter("tcim_executions_total"), Some(2));
    assert_eq!(snap.gauge("tcim_service_inflight_queries"), Some(0));
    assert_eq!(snap.gauge("tcim_service_static_graphs"), Some(1));

    let text = service.render_prometheus();
    for series in [
        "# TYPE tcim_service_queries_total counter",
        "tcim_service_queries_total 3",
        "# TYPE tcim_service_query_wall_nanoseconds summary",
        "tcim_service_query_wall_nanoseconds_count 3",
        "tcim_kernel_invocations_total",
        "tcim_prepared_cache_hits_total",
        "tcim_service_static_graphs 1",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
}

/// The flight recorder retains the most recent spans across profiles,
/// bounded by its capacity.
#[test]
fn flight_recorder_retains_recent_spans() {
    set_flight_recorder(64);
    let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let g = classic::wheel(16);
    let ((), report) = profile("prepare_once", || {
        let _x = span("caller");
        p.prepare(&g);
    });
    assert!(report.is_some());
    let names: Vec<&str> = recent_spans().iter().map(|s| s.name).collect();
    assert!(names.contains(&"prepare"), "{names:?}");
    assert!(names.contains(&"slice"), "{names:?}");
    assert!(names.contains(&"prepare_once"), "{names:?}");
    set_flight_recorder(0);
    assert!(recent_spans().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identical answers with and without profiling, across the
    /// backend suite on arbitrary graphs — telemetry can never change
    /// a result.
    #[test]
    fn profiling_never_changes_query_values(
        n in 2usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        backend_idx in 0usize..6,
    ) {
        let edges: Vec<(u32, u32)> =
            edges.into_iter().filter(|(u, v)| (*u as usize) < n && (*v as usize) < n).collect();
        let g = CsrGraph::from_edges(n, edges).unwrap();
        let backend = suite()[backend_idx % suite().len()].clone();
        let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
        let prepared = p.prepare(&g);

        let bare = p.query(&prepared, &backend, &Query::PerVertexTriangles).unwrap();
        let (profiled, report) = profile("query", || {
            p.query(&prepared, &backend, &Query::PerVertexTriangles).unwrap()
        });
        prop_assert!(report.is_some());
        prop_assert_eq!(bare.value, profiled.value);
        prop_assert_eq!(bare.triangles, profiled.triangles);
        prop_assert_eq!(bare.kernel, profiled.kernel);
    }
}

/// Scheduled-PIM backends answer identically under profiling too. The
/// scheduled path runs its own spans around planning and the array
/// fan-out; planning happens once per artifact and policy, so only the
/// first query on a fresh artifact shows a `schedule` span.
#[test]
fn scheduled_path_profiles_without_drift() {
    let g = gnm(300, 2000, 9).unwrap();
    let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = p.prepare(&g);
    let backend = Backend::ScheduledPim(SchedPolicy::with_arrays(4));
    let profiled_query = || {
        let (answer, report) =
            profile("query", || p.query(&prepared, &backend, &Query::TotalTriangles).unwrap());
        let names: Vec<&str> =
            report.expect("top-level profile").spans.iter().map(|s| s.name).collect();
        (answer, names)
    };

    let (first, names) = profiled_query();
    assert!(names.contains(&"schedule"), "first query plans: {names:?}");
    assert!(names.contains(&"array"), "{names:?}");
    let (again, names) = profiled_query();
    assert!(!names.contains(&"schedule"), "a repeat reuses the plan: {names:?}");
    assert!(names.contains(&"array"), "{names:?}");
    assert_eq!(first.triangles, again.triangles);
    assert_eq!(first.kernel, again.kernel);
}

/// The motif layer profiles on every backend: a k-truss query splits
/// into its anchoring run and the peel, a 4-clique query into the
/// anchor and the chained ANDs, and a classic query shows its shaping.
/// The top-level phases cover the profiled wall, judged by the best of
/// three profiled runs per case.
#[test]
fn motif_queries_profile_their_anchor_and_peel() {
    let g = barabasi_albert(300, 5, 3).unwrap();
    let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = p.prepare(&g);
    let cases = [
        (Query::KTruss { k: 4 }, ["motif.anchor", "motif.peel"]),
        (Query::FourCliques, ["motif.anchor", "motif.chain"]),
    ];
    for backend in suite() {
        // Build lazy artifacts (shards, composition plans) first.
        p.query(&prepared, &backend, &Query::KTruss { k: 4 }).unwrap();
        for (query, expected) in &cases {
            let ctx = format!("{} {query}", backend.label());
            let covered = best_of_three(|| {
                let (answer, report) =
                    profile("query", || p.query(&prepared, &backend, query));
                answer.unwrap();
                let phases = report.expect("top-level profile").breakdown();
                let names: Vec<&str> = phases.phases.iter().map(|p| p.name).collect();
                assert!(expected.iter().all(|name| names.contains(name)), "{ctx}: {names:?}");
                phases.phase_sum().as_secs_f64() / phases.total.as_secs_f64()
            });
            assert!(covered >= 0.9, "{ctx}: phases cover {:.1}%", covered * 100.0);
        }
        let (_, report) =
            profile("query", || p.query(&prepared, &backend, &Query::EdgeSupport).unwrap());
        let names: Vec<&str> = report.unwrap().spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"query.shape"), "{}: {names:?}", backend.label());
    }
}

/// The peel splits into building its rows and running its passes: a
/// profiled k-truss query records `motif.rows` and then `motif.rounds`
/// one level below `motif.peel`, within its interval.
#[test]
fn the_peel_records_its_rows_and_rounds_inside_it() {
    let g = rmat(9, 3000, RmatParams::default(), 3).unwrap();
    let p = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = p.prepare(&g);
    for backend in suite() {
        let (answer, report) =
            profile("query", || p.query(&prepared, &backend, &Query::KTruss { k: 4 }));
        answer.unwrap();
        let spans = report.expect("top-level profile").spans;
        let ctx = backend.label();
        let find = |name: &str| {
            let found: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(found.len(), 1, "{ctx}: one {name} span in {spans:?}");
            *found[0]
        };
        let (peel, rows, rounds) =
            (find("motif.peel"), find("motif.rows"), find("motif.rounds"));
        assert_eq!(peel.depth, 1, "{ctx}");
        for child in [rows, rounds] {
            assert_eq!(child.depth, 2, "{ctx}: {}", child.name);
            assert!(child.start >= peel.start, "{ctx}: {} starts inside the peel", child.name);
            assert!(
                child.start + child.elapsed <= peel.start + peel.elapsed,
                "{ctx}: {} ends inside the peel",
                child.name
            );
        }
        assert!(rows.start + rows.elapsed <= rounds.start, "{ctx}: rows before rounds");
    }
}
