//! The encoding-equivalence grid: sparse rows answer every `Query`
//! bit-identically to dense rows, across all six backends × the
//! generator grid × both orientations — while strictly reducing kernel
//! dispatches and AND+BitCount work on power-law graphs.
//!
//! The sparse encoding is an *exact* filter (skipped pairs are provably
//! zero), so only the work accounting may change, never an answer.

use std::fmt::Write as _;

use tcim_repro::arch::{PimConfig, TriangleTally};
use tcim_repro::bitmatrix::popcount::PopcountMethod;
use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::graph::generators::{barabasi_albert, gnm, rmat, watts_strogatz, RmatParams};
use tcim_repro::graph::{CsrGraph, Orientation};
use tcim_repro::shard::{ShardMode, ShardSpec};
use tcim_repro::stream::{DriftPolicy, DynamicGraph, StreamConfig, UpdateBatch};
use tcim_repro::tcim::{
    Backend, BackendDetail, Query, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// The generator grid the satellite task names.
fn generator_grid() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("erdos-renyi", gnm(640, 4800, 7).unwrap()),
        ("barabasi-albert", barabasi_albert(600, 5, 7).unwrap()),
        ("rmat", rmat(9, 2600, RmatParams::default(), 17).unwrap()),
        ("watts-strogatz", watts_strogatz(576, 8, 0.2, 5).unwrap()),
    ]
}

/// All six backend families.
fn backends() -> Vec<Backend> {
    vec![
        Backend::SerialPim,
        Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
        Backend::Software(PopcountMethod::Native),
        Backend::CpuMerge,
        Backend::CpuForward,
        Backend::Sharded(ShardPolicy {
            spec: ShardSpec { shards: 4, mode: ShardMode::OneD },
            inner: SchedPolicy::with_arrays(2),
        }),
    ]
}

fn pipeline_for(orientation: Orientation, encoding: EncodingPolicy) -> TcimPipeline {
    TcimPipeline::new(&TcimConfig { orientation, encoding, ..TcimConfig::default() }).unwrap()
}

/// Sparse and dense artifacts answer every query shape identically —
/// the whole `QueryValue`, on every backend, under both orientations.
#[test]
fn sparse_answers_are_bit_identical_to_dense_across_the_grid() {
    for (name, g) in generator_grid() {
        for orientation in [Orientation::Natural, Orientation::Degree] {
            let dense_pipeline = pipeline_for(orientation, EncodingPolicy::ForceDense);
            let sparse_pipeline = pipeline_for(orientation, EncodingPolicy::ForceSparse);
            let dense = dense_pipeline.prepare(&g);
            let sparse = sparse_pipeline.prepare(&g);
            for query in Query::example_suite() {
                for backend in backends() {
                    let ctx = format!("{name} {orientation:?} {query} {backend:?}");
                    let d = dense_pipeline.query(&dense, &backend, &query).unwrap();
                    let s = sparse_pipeline.query(&sparse, &backend, &query).unwrap();
                    assert_eq!(s.triangles, d.triangles, "{ctx}");
                    assert_eq!(s.value, d.value, "{ctx}");
                }
            }
        }
    }
}

/// The motif extension of the equivalence grid: `KTruss` and
/// `FourCliques` answers are bit-identical between forced-sparse and
/// forced-dense artifacts on every backend — the skip-empty filter
/// must stay exact through peeling's in-place row mutations and the
/// chained witness-row ANDs, not just on static rows.
#[test]
fn sparse_motif_answers_are_bit_identical_to_dense() {
    let graphs = vec![
        ("barabasi-albert", barabasi_albert(220, 5, 7).unwrap()),
        ("rmat", rmat(8, 1100, RmatParams::default(), 17).unwrap()),
    ];
    for (name, g) in graphs {
        for orientation in [Orientation::Natural, Orientation::Degree] {
            let dense_pipeline = pipeline_for(orientation, EncodingPolicy::ForceDense);
            let sparse_pipeline = pipeline_for(orientation, EncodingPolicy::ForceSparse);
            let dense = dense_pipeline.prepare(&g);
            let sparse = sparse_pipeline.prepare(&g);
            for query in [Query::KTruss { k: 3 }, Query::KTruss { k: 5 }, Query::FourCliques] {
                for backend in backends() {
                    let ctx = format!("{name} {orientation:?} {query} {backend:?}");
                    let d = dense_pipeline.query(&dense, &backend, &query).unwrap();
                    let s = sparse_pipeline.query(&sparse, &backend, &query).unwrap();
                    assert_eq!(s.triangles, d.triangles, "{ctx}");
                    assert_eq!(s.value, d.value, "{ctx}");
                }
            }
        }
    }
}

/// On power-law graphs (BA, rmat) the sparse encoding strictly reduces
/// both kernel dispatches and AND+BitCount slice pairs, at equal exact
/// counts — the PR's headline win, read off `KernelStats`.
#[test]
fn sparse_reduces_kernel_work_on_power_law_graphs() {
    let graphs = vec![
        ("barabasi-albert", barabasi_albert(600, 5, 7).unwrap()),
        ("rmat", rmat(9, 2600, RmatParams::default(), 17).unwrap()),
    ];
    for (name, g) in graphs {
        let dense_pipeline = pipeline_for(Orientation::Natural, EncodingPolicy::ForceDense);
        let sparse_pipeline = pipeline_for(Orientation::Natural, EncodingPolicy::ForceSparse);
        let dense = dense_pipeline.prepare(&g);
        let sparse = sparse_pipeline.prepare(&g);
        for backend in [Backend::SerialPim, Backend::Software(PopcountMethod::Native)] {
            let ctx = format!("{name} {backend:?}");
            let d = dense_pipeline.query(&dense, &backend, &Query::TotalTriangles).unwrap();
            let s = sparse_pipeline.query(&sparse, &backend, &Query::TotalTriangles).unwrap();
            assert_eq!(s.triangles, d.triangles, "{ctx}");
            assert!(
                s.kernel.kernel_invocations < d.kernel.kernel_invocations,
                "{ctx}: sparse must dispatch fewer kernels \
                 ({} vs {})",
                s.kernel.kernel_invocations,
                d.kernel.kernel_invocations
            );
            assert!(
                s.kernel.slice_pairs < d.kernel.slice_pairs,
                "{ctx}: sparse must AND fewer pairs ({} vs {})",
                s.kernel.slice_pairs,
                d.kernel.slice_pairs
            );
            // The byte-mask filter is exact: every pair it drops was a
            // mutually valid pair of the dense walk, so visited and
            // skipped partition the dense census.
            assert_eq!(
                s.kernel.slice_pairs + s.kernel.blocks_skipped,
                d.kernel.slice_pairs,
                "{ctx}: visited + skipped must partition the dense pairs"
            );
            assert!(s.kernel.blocks_skipped > 0, "{ctx}");
            assert_eq!(d.kernel.blocks_skipped, 0, "{ctx}: dense rows never skip");
            // Compression provenance: sparse rows spend fewer bytes on
            // these graphs, and both reports expose the footprint.
            assert!(
                s.compressed_bytes < d.compressed_bytes,
                "{ctx}: sparse bytes {} vs dense bytes {}",
                s.compressed_bytes,
                d.compressed_bytes
            );
        }
    }
}

/// Bit pattern of an optional modelled quantity (`-` for host backends).
fn bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

/// Every counter and modelled bit the kernel walks produce, one line per
/// cell: BA(600, 5, 7) and rmat(9, 2600) under forced dense and forced
/// sparse rows; the six backends × {TotalTriangles, PerVertexTriangles,
/// EdgeSupport, KTruss{k: 4}, FourCliques} with their EXPLAIN
/// predictions, plus one coalesced batch of [`Query::example_suite`] per
/// backend (executions and the shared carrier census); the serial and
/// scheduled `AccessStats`; the serial event-trace lengths; the
/// artifact's valid slices and compressed bytes; and a live graph's
/// stream counters and footprint after one fixed churn batch.
fn golden_census() -> String {
    let graphs = [
        ("ba600", barabasi_albert(600, 5, 7).unwrap()),
        ("rmat9", rmat(9, 2600, RmatParams::default(), 17).unwrap()),
    ];
    let encodings =
        [("dense", EncodingPolicy::ForceDense), ("sparse", EncodingPolicy::ForceSparse)];
    let queries = [
        Query::TotalTriangles,
        Query::PerVertexTriangles,
        Query::EdgeSupport,
        Query::KTruss { k: 4 },
        Query::FourCliques,
    ];
    let mut out = String::new();
    for (name, g) in &graphs {
        for (enc, encoding) in encodings {
            let cell = format!("{name} {enc}");
            let pipeline = pipeline_for(Orientation::Natural, encoding);
            let prepared = pipeline.prepare(g);
            let p = prepared.pricing();
            writeln!(
                out,
                "{cell} pricing pairs {} dispatches {} skipped {} busy {}",
                p.slice_pairs,
                p.kernel_dispatches,
                p.blocks_skipped,
                bits(Some(p.est_busy_s))
            )
            .unwrap();
            let footprint = prepared.slice_stats();
            writeln!(
                out,
                "{cell} footprint valid {} bytes {}",
                footprint.valid_slices, footprint.compressed_bytes
            )
            .unwrap();
            for backend in backends() {
                for query in &queries {
                    let r = pipeline.query(&prepared, &backend, query).unwrap();
                    let k = r.kernel;
                    writeln!(
                        out,
                        "{cell} {} {query}: tri {} kernels {} pairs {} readouts {} \
                         skipped {} time {} energy {}",
                        r.backend,
                        r.triangles,
                        k.kernel_invocations,
                        k.slice_pairs,
                        k.result_readouts,
                        k.blocks_skipped,
                        bits(r.modelled_time_s),
                        bits(r.modelled_energy_j)
                    )
                    .unwrap();
                    let plan = pipeline.explain_prepared(&prepared, false, &backend, query);
                    let predicted = plan.unwrap().predicted;
                    writeln!(
                        out,
                        "{cell} {} {query}: explain {:?} exact {} time {}",
                        r.backend,
                        predicted.census,
                        predicted.exact,
                        bits(predicted.modelled_s)
                    )
                    .unwrap();
                }
                let suite = Query::example_suite();
                let outcome = pipeline.query_coalesced(&prepared, &backend, &suite).unwrap();
                let r = outcome.reports[0].as_ref().unwrap();
                let k = r.kernel;
                writeln!(
                    out,
                    "{cell} {} coalesced suite: executions {} kernels {} pairs {} readouts {} \
                     skipped {} time {} energy {}",
                    r.backend,
                    outcome.executions,
                    k.kernel_invocations,
                    k.slice_pairs,
                    k.result_readouts,
                    k.blocks_skipped,
                    bits(r.modelled_time_s),
                    bits(r.modelled_energy_j)
                )
                .unwrap();
            }
            let serial = pipeline.execute(&prepared, &Backend::SerialPim).unwrap();
            writeln!(out, "{cell} serial stats {:?}", serial.stats.unwrap()).unwrap();
            let scheduled = pipeline
                .execute(&prepared, &Backend::ScheduledPim(SchedPolicy::with_arrays(4)))
                .unwrap();
            let BackendDetail::ScheduledPim(report) = scheduled.detail else {
                panic!("the scheduled backend returns a scheduled detail")
            };
            writeln!(out, "{cell} scheduled stats {:?}", report.stats).unwrap();
            for (a, array) in report.per_array.iter().enumerate() {
                writeln!(out, "{cell} scheduled array {a} {:?}", array.stats).unwrap();
            }
            writeln!(
                out,
                "{cell} scheduled critical {} energy {}",
                bits(Some(report.critical_path_s)),
                bits(Some(report.total_energy_j))
            )
            .unwrap();

            let traced = TcimPipeline::new(&TcimConfig {
                encoding,
                pim: PimConfig { trace_capacity: 1 << 22, ..PimConfig::default() },
                ..TcimConfig::default()
            })
            .unwrap();
            let traced_prepared = traced.prepare(g);
            let run = traced.engine().run(traced_prepared.matrix());
            let mut tally = TriangleTally::new(
                traced_prepared.matrix().dim(),
                Some(traced_prepared.arc_index()),
            );
            let attributed =
                traced.engine().run_attributed(traced_prepared.matrix(), &mut tally);
            writeln!(
                out,
                "{cell} trace count {} attributed {} readouts {}",
                run.trace.len(),
                attributed.trace.len(),
                attributed.stats.result_readouts
            )
            .unwrap();

            let mut live = DynamicGraph::new(
                g,
                StreamConfig {
                    tcim: TcimConfig { encoding, ..TcimConfig::default() },
                    drift: DriftPolicy::never(),
                    ..StreamConfig::default()
                },
            )
            .unwrap();
            let n = live.vertex_count() as u32;
            let mut batch = UpdateBatch::new();
            for k in 0..48u32 {
                let (u, v) = ((k * 37 + 5) % n, (k * 101 + 13) % n);
                if u == v {
                    continue;
                }
                if live.has_edge(u, v) {
                    batch.delete(u, v);
                } else {
                    batch.insert(u, v);
                }
            }
            live.apply_batch(&batch).unwrap();
            let s = live.report();
            writeln!(
                out,
                "{cell} stream tri {} ins {} del {} rej {} rounds {} kernels {} pairs {} \
                 time {}",
                live.triangles(),
                s.inserts,
                s.deletes,
                s.rejected,
                s.rounds,
                s.kernel_invocations,
                s.slice_pairs,
                bits(Some(s.modelled_kernel_s))
            )
            .unwrap();
            writeln!(
                out,
                "{cell} live footprint valid {} bytes {}",
                live.valid_slices(),
                live.compressed_bytes()
            )
            .unwrap();
            let (support, pairs, skipped) = live.edge_support();
            let total: u64 = support.iter().map(|&(_, _, c)| c).sum();
            writeln!(out, "{cell} live support {total} pairs {pairs} skipped {skipped}")
                .unwrap();
            let (_, truss) = live.trussness(4);
            let (_, cliques) = live.four_cliques();
            writeln!(out, "{cell} live truss {truss:?}").unwrap();
            writeln!(out, "{cell} live cliques {cliques:?}").unwrap();
        }
    }
    out
}

/// The golden census table: every `KernelStats`, `AccessStats`, EXPLAIN
/// census, trace length, stream counter and modelled time/energy bit
/// the kernel walks produce, pinned to values recorded before the walks
/// were unified. Answers are checked by the oracle grids; this test
/// checks the accounting around them, independently of the dispatch
/// rule the executor and EXPLAIN now share.
#[test]
fn golden_census_pins_every_counter_and_modelled_bit() {
    let actual = golden_census();
    let expected = include_str!("golden_census.txt");
    for (line, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "golden census line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden census length; full table:\n{actual}"
    );
}

/// The default automatic policy picks sparse exactly when the measured
/// valid-slice density is below the threshold: rmat at 2600 edges over
/// 512 vertices sits under 25%, the denser ER graph stays dense.
#[test]
fn automatic_policy_resolves_from_measured_density() {
    use tcim_repro::bitmatrix::RowEncoding;
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let sparse = pipeline.prepare(&rmat(9, 2600, RmatParams::default(), 17).unwrap());
    assert_eq!(sparse.encoding(), RowEncoding::Sparse);
    assert!(sparse.slice_stats().valid_fraction() < 0.25);
    let dense = pipeline.prepare(&gnm(640, 4800, 7).unwrap());
    assert_eq!(dense.encoding(), RowEncoding::Dense);
    assert!(dense.slice_stats().valid_fraction() >= 0.25);
}
