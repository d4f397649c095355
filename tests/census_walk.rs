//! The census walk against a walk over every arc.
//!
//! `kernel::walk` runs the AND + BitCount kernel only on the arcs the
//! matrix's kernel census lists as visiting a slice pair, and bills the
//! others from the census. The reference here walks every arc in
//! row-major order, starting a row at each new tail, as every walk did
//! before the census. Every backend that walks a matrix — the serial
//! engine, the scheduled arrays, the software path and every shard piece
//! — must match it field for field: triangles, access statistics (so
//! every residency hit, miss and exchange), kernel events, per-vertex
//! counts, support and modelled bits.

use tcim_repro::arch::kernel::{self, ArrayBuffer, Residency, Walk};
use tcim_repro::arch::{
    AccessStats, Attribution, PimConfig, PimEngine, ReplacementPolicy, SliceCache,
    TriangleSink, TriangleTally,
};
use tcim_repro::bitmatrix::{EncodingPolicy, PopcountMethod, SlicedMatrix};
use tcim_repro::graph::generators::barabasi_albert;
use tcim_repro::graph::CsrGraph;
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledRun};
use tcim_repro::tcim::backend::{ScheduledPimBackend, SoftwareBackend};
use tcim_repro::tcim::{software, ExecutionBackend, ShardSpec, TcimConfig, TcimPipeline};
use tcim_repro::telemetry::EventTrace;

const LEVELS: [Attribution; 3] =
    [Attribution::Count, Attribution::PerVertex, Attribution::PerVertexWithSupport];

const ENCODINGS: [EncodingPolicy; 2] =
    [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse];

const REPLACEMENTS: [ReplacementPolicy; 3] =
    [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random];

/// A power-law graph over ten 64-bit slices: most arcs' rows and columns
/// share no valid slice, so the census leaves most arcs out.
fn graph() -> CsrGraph {
    barabasi_albert(600, 4, 3).unwrap()
}

fn pipeline(encoding: EncodingPolicy, pim: PimConfig) -> TcimPipeline {
    TcimPipeline::new(&TcimConfig { encoding, pim, ..TcimConfig::default() }).unwrap()
}

/// The walk over every arc at `positions`, in order.
fn walk_every_arc<R: Residency>(
    matrix: &SlicedMatrix,
    positions: impl IntoIterator<Item = usize>,
    popcount: PopcountMethod,
    residency: &mut R,
    mut sink: Option<&mut TriangleTally<'_>>,
) -> Walk {
    let mut stats = AccessStats::default();
    let mut triangles = 0u64;
    let mut current_row = None;
    for position in positions {
        let (i, j) = matrix.arcs()[position];
        if current_row != Some(i) {
            current_row = Some(i);
            residency.begin_row();
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.enter_arc(position);
        }
        let arc = kernel::and_bitcount(
            (i, j),
            matrix.row(i),
            matrix.col(j),
            popcount,
            sink.as_deref_mut(),
            |k, count| residency.pair(i, j, k, count, &mut stats),
        );
        triangles += arc.count;
        stats.edges += u64::from(arc.dispatched);
        stats.and_ops += arc.pairs.visited;
        stats.bitcount_ops += arc.pairs.visited;
        stats.blocks_skipped += arc.pairs.skipped;
        stats.result_readouts += arc.readouts;
    }
    Walk { triangles, stats }
}

/// A tally's per-vertex counts and support.
fn parts(tally: Option<TriangleTally<'_>>) -> (Option<Vec<u64>>, Option<Vec<u64>>) {
    match tally.map(TriangleTally::into_parts) {
        Some((_, per_vertex, support)) => (Some(per_vertex), support),
        None => (None, None),
    }
}

/// Asserts that `matrix` has arcs the census leaves out.
fn assert_some_arcs_idle(matrix: &SlicedMatrix, ctx: &str) {
    let visiting = matrix.census().visiting_arcs();
    assert!(0 < visiting && visiting < matrix.edge_count() as u64, "{ctx}: {visiting} visit");
}

/// Every array of `policy`'s placement over `matrix`, each walked over
/// every arc of its rows with the buffer the scheduler gives it: the
/// triangles and per-array statistics, with non-zero results read out
/// into per-array partials merged into `tally`.
fn scheduled_every_arc(
    engine: &PimEngine,
    matrix: &SlicedMatrix,
    policy: &SchedPolicy,
    mut tally: Option<&mut TriangleTally<'_>>,
) -> (u64, Vec<AccessStats>) {
    let run = ScheduledRun::plan(engine, matrix, policy).unwrap();
    let placement = run.placement();
    let config = engine.config();
    let capacity = (engine.capacity_slices() / policy.arrays).max(1);
    let mut triangles = 0u64;
    let mut per_array = Vec::new();
    for a in 0..policy.arrays {
        let jobs: Vec<_> = placement
            .jobs
            .iter()
            .zip(&placement.assignment)
            .filter(|&(_, &array)| array as usize == a)
            .map(|(job, _)| job)
            .collect();
        let reserve = jobs.iter().map(|job| job.row_slices as usize).max().unwrap_or(0);
        let cache = SliceCache::new(
            capacity.saturating_sub(reserve).max(1),
            config.replacement,
            config.replacement_seed.wrapping_add(a as u64),
        );
        let mut buffer = ArrayBuffer::new(cache, EventTrace::new(0));
        let positions = jobs.iter().flat_map(|job| {
            let first = job.first_arc as usize;
            first..first + job.cols.len()
        });
        let mut partial = tally.as_deref().map(TriangleTally::empty_like);
        let walk = walk_every_arc(
            matrix,
            positions,
            PopcountMethod::Lut8,
            &mut buffer,
            partial.as_mut(),
        );
        triangles += walk.triangles;
        per_array.push(walk.stats);
        if let (Some(total), Some(partial)) = (tally.as_deref_mut(), partial) {
            total.merge(partial);
        }
    }
    (triangles, per_array)
}

#[test]
fn the_serial_engine_walks_like_every_arc() {
    for encoding in ENCODINGS {
        let pim = PimConfig { trace_capacity: 1 << 20, ..PimConfig::default() };
        let p = pipeline(encoding, pim);
        let prepared = p.prepare(&graph());
        let (m, engine) = (prepared.matrix(), p.engine());
        assert_some_arcs_idle(m, &format!("{encoding}"));
        for attribution in LEVELS {
            let ctx = format!("{encoding} {attribution:?}");
            let mut tally = attribution.tally(m.dim(), || prepared.arc_index());
            let got = match tally.as_mut() {
                Some(tally) => engine.run_attributed(m, tally),
                None => engine.run(m),
            };

            let config = engine.config();
            let widest = (0..m.dim() as u32).map(|i| m.row(i).valid_slice_count()).max();
            let cache = SliceCache::new(
                engine.capacity_slices().saturating_sub(widest.unwrap_or(0)).max(1),
                config.replacement,
                config.replacement_seed,
            );
            let mut buffer = ArrayBuffer::new(cache, EventTrace::new(config.trace_capacity));
            let mut want_tally = attribution.tally(m.dim(), || prepared.arc_index());
            let want = walk_every_arc(
                m,
                0..m.edge_count(),
                PopcountMethod::Lut8,
                &mut buffer,
                want_tally.as_mut(),
            );
            let parallel = engine.array().organization.parallel_subarrays() as f64;
            let (latency, energy) = engine.cost_model().roll_up(&want.stats, parallel);

            assert_eq!(got.triangles, want.triangles, "{ctx}");
            assert_eq!(got.stats, want.stats, "{ctx}");
            assert_eq!(got.total_time_s().to_bits(), latency.total_s().to_bits(), "{ctx}");
            assert_eq!(got.total_energy_j().to_bits(), energy.total_j().to_bits(), "{ctx}");
            let trace = buffer.into_trace();
            assert!(trace.len() > 1000 && trace.dropped() == 0, "{ctx}: the whole trace");
            assert!(got.trace.iter().eq(trace.iter()), "{ctx}: kernel events");
            assert_eq!(parts(tally), parts(want_tally), "{ctx}");
        }
    }
}

#[test]
fn scheduled_arrays_walk_like_every_arc() {
    for encoding in ENCODINGS {
        for replacement in REPLACEMENTS {
            let p = pipeline(encoding, PimConfig { replacement, ..PimConfig::default() });
            let prepared = p.prepare(&graph());
            let (m, engine) = (prepared.matrix(), p.engine());
            assert_some_arcs_idle(m, &format!("{encoding}"));
            for placement in PlacementPolicy::ALL {
                for arrays in [1usize, 2, 4, 8] {
                    let policy = SchedPolicy::with_arrays(arrays).placement(placement);
                    for attribution in LEVELS {
                        let ctx = format!(
                            "{encoding} {replacement:?} {placement} x{arrays} {attribution:?}"
                        );
                        let mut tally = attribution.tally(m.dim(), || prepared.arc_index());
                        let got = ScheduledRun::plan(engine, m, &policy)
                            .unwrap()
                            .execute_into(tally.as_mut());
                        let mut want_tally =
                            attribution.tally(m.dim(), || prepared.arc_index());
                        let (triangles, per_array) =
                            scheduled_every_arc(engine, m, &policy, want_tally.as_mut());
                        assert_eq!(got.triangles, triangles, "{ctx}");
                        let got_stats: Vec<AccessStats> =
                            got.per_array.iter().map(|array| array.stats).collect();
                        assert_eq!(got_stats, per_array, "{ctx}");
                        assert_eq!(parts(tally), parts(want_tally), "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_software_path_walks_like_every_arc() {
    for encoding in ENCODINGS {
        let prepared = pipeline(encoding, PimConfig::default()).prepare(&graph());
        let m = prepared.matrix();
        assert_some_arcs_idle(m, &format!("{encoding}"));
        for popcount in [PopcountMethod::Native, PopcountMethod::Lut8] {
            for attribution in LEVELS {
                let ctx = format!("{encoding} {popcount:?} {attribution:?}");
                let got = SoftwareBackend::new(popcount).run(&prepared, attribution).unwrap();
                let mut tally = attribution.tally(m.dim(), || prepared.arc_index());
                let want =
                    walk_every_arc(m, 0..m.edge_count(), popcount, &mut (), tally.as_mut());
                assert_eq!(got.triangles, want.triangles, "{ctx}");
                assert_eq!(got.kernel.kernel_invocations, want.stats.edges, "{ctx}");
                assert_eq!(got.kernel.slice_pairs, want.stats.and_ops, "{ctx}");
                assert_eq!(got.kernel.blocks_skipped, want.stats.blocks_skipped, "{ctx}");
                assert_eq!((got.per_vertex, got.support), parts(tally), "{ctx}");
            }
            let plain = software::sliced_count(m, popcount);
            let want = walk_every_arc(m, 0..m.edge_count(), popcount, &mut (), None);
            assert_eq!(plain.triangles, want.triangles);
            assert_eq!(plain.kernel_invocations, want.stats.edges);
            assert_eq!(plain.slice_pairs, want.stats.and_ops);
            assert_eq!(plain.blocks_skipped, want.stats.blocks_skipped);
        }
    }
}

#[test]
fn every_shard_piece_walks_like_every_arc() {
    for encoding in ENCODINGS {
        let p = pipeline(encoding, PimConfig::default());
        let prepared = p.prepare(&graph());
        let sharded = p.prepare_sharded(&prepared, &ShardSpec::one_d(4)).unwrap();
        let engine = p.engine();
        let policy = SchedPolicy::with_arrays(2);
        let backend = ScheduledPimBackend::new(engine, policy.clone());
        let (mut arcs, mut visiting) = (0u64, 0u64);
        for (s, piece) in sharded.pieces().iter().enumerate() {
            let piece = piece.prepared();
            let m = piece.matrix();
            arcs += m.edge_count() as u64;
            visiting += m.census().visiting_arcs();
            for attribution in LEVELS {
                let ctx = format!("{encoding} piece {s} {attribution:?}");
                let got = backend.run(piece, attribution).unwrap();
                let mut tally = attribution.tally(m.dim(), || piece.arc_index());
                let (triangles, per_array) =
                    scheduled_every_arc(engine, m, &policy, tally.as_mut());
                let total = per_array.iter().fold(AccessStats::default(), |mut sum, stats| {
                    sum.merge(stats);
                    sum
                });
                assert_eq!(got.triangles, triangles, "{ctx}");
                assert_eq!(got.stats, Some(total), "{ctx}");
                assert_eq!((got.per_vertex, got.support), parts(tally), "{ctx}");
            }
        }
        assert!(
            0 < visiting && visiting < arcs,
            "{encoding}: {visiting} of {arcs} intra arcs"
        );
    }
}
