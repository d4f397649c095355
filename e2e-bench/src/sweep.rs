//! The closed loop: one caller asks the workload's query of every
//! backend in rotation, request by request, and checks every answer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcim_core::{
    Backend, KernelStats, PreparedGraph, Query, QueryReport, QueryValue, ShardedPreparedGraph,
    TcimConfig, TcimPipeline,
};
use tcim_graph::CsrGraph;

use crate::layers::QueryProbes;
use crate::stats::Samples;
use crate::workload::{backends, shard_policy, WorkloadSpec};

/// The closed loop's prepared state: built during set-up, with every
/// cache filled and every backend run once.
pub struct Sweep {
    /// The pipeline every closed-loop query runs through.
    pub pipeline: TcimPipeline,
    /// The generated input graph.
    pub graph: CsrGraph,
    /// The prepared artifact (cached in `pipeline`).
    pub prepared: Arc<PreparedGraph>,
    /// The sharded artifact (cached in `pipeline`).
    pub sharded: Arc<ShardedPreparedGraph>,
}

impl Sweep {
    /// Generates, prepares and shards the workload's graph, then runs
    /// every backend once so no lazy build lands in a timed sample.
    ///
    /// # Panics
    ///
    /// Panics when the default configuration fails to characterize or a
    /// warm-up query fails: set-up of a fixed workload cannot fail.
    pub fn build(spec: &WorkloadSpec, seed: u64) -> Sweep {
        let graph = spec.graph.generate(seed);
        let pipeline = TcimPipeline::new(&TcimConfig::default())
            .expect("the default config characterizes");
        let prepared = pipeline.prepare(&graph);
        let sharded = pipeline
            .prepare_sharded(&prepared, &shard_policy().spec)
            .expect("the shard spec is valid");
        for (_, backend) in backends() {
            pipeline
                .query(&prepared, &backend, &Query::TotalTriangles)
                .expect("warm-up query succeeds");
        }
        Sweep { pipeline, graph, prepared, sharded }
    }
}

/// The independently computed answer every closed-loop result is
/// checked against.
#[derive(Debug, Clone)]
pub enum Reference {
    /// `tcim_core::baseline::forward` of the input graph.
    Total(u64),
    /// [`crate::truss::trussness`] of the input graph (the tests check it
    /// against `tcim_graph::oracle::trussness`).
    Truss(Vec<(u32, u32, u32)>),
}

impl Reference {
    /// Computes the reference answer of `query` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics for a query shape no workload asks.
    pub fn compute(query: &Query, graph: &CsrGraph) -> Reference {
        match query {
            Query::TotalTriangles => Reference::Total(tcim_core::baseline::forward(graph)),
            Query::KTruss { .. } => Reference::Truss(crate::truss::trussness(graph)),
            other => panic!("no closed-loop reference for {other}"),
        }
    }

    /// Perturbs the reference so every correct answer disagrees with it
    /// (the self-test of the correctness gate).
    pub fn corrupt(&mut self) {
        match self {
            Reference::Total(t) => *t += 1,
            Reference::Truss(edges) => match edges.first_mut() {
                Some(first) => first.2 += 1,
                None => edges.push((0, 0, 0)),
            },
        }
    }

    /// The triangle count, when this reference is one.
    pub fn total(&self) -> Option<u64> {
        match self {
            Reference::Total(t) => Some(*t),
            Reference::Truss(_) => None,
        }
    }

    /// Whether `value` is the right answer.
    pub fn matches(&self, value: &QueryValue) -> bool {
        match (self, value) {
            (Reference::Total(t), QueryValue::Total(v)) => t == v,
            (Reference::Truss(expected), QueryValue::KTruss { edges, .. }) => {
                edges.len() == expected.len()
                    && edges
                        .iter()
                        .zip(expected)
                        .all(|(e, &(u, v, t))| (e.u, e.v, e.trussness) == (u, v, t))
            }
            _ => false,
        }
    }
}

/// The modelled side of one answer: kernel census and the bit patterns
/// of modelled time and energy. Host-only changes must keep it exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// Normalized kernel accounting.
    pub kernel: KernelStats,
    /// `modelled_time_s.to_bits()`, for simulated-hardware backends.
    pub time_bits: Option<u64>,
    /// `modelled_energy_j.to_bits()`, for simulated-hardware backends.
    pub energy_bits: Option<u64>,
}

impl Census {
    fn of(report: &QueryReport) -> Census {
        Census {
            kernel: report.kernel,
            time_bits: report.modelled_time_s.map(f64::to_bits),
            energy_bits: report.modelled_energy_j.map(f64::to_bits),
        }
    }
}

/// Everything the closed loop measured for one backend.
#[derive(Debug)]
pub struct BackendRecord {
    /// The end-to-end metric this backend feeds.
    pub metric: &'static str,
    /// The backend.
    pub backend: Backend,
    /// Query walls (ms) with no layer probe in the rotation.
    pub untraced: Samples,
    /// Query walls (ms) in rotations followed by layer probes.
    pub traced: Samples,
    /// The census of the first answer; every later one must equal it.
    pub census: Option<Census>,
}

/// The outcome of the closed loop.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Per-backend measurements, in rotation order.
    pub records: Vec<BackendRecord>,
    /// Queries asked.
    pub attempted: u64,
    /// Queries that errored or answered wrongly.
    pub failed: u64,
    /// Problems found (wrong answers, census drift), for the report.
    pub problems: Vec<String>,
    /// Layer probes of the traced half (traced runs only).
    pub probes: Option<QueryProbes>,
}

impl ClosedLoop {
    /// An empty record of the five backends; `trace` adds layer probes.
    pub fn new(trace: bool) -> ClosedLoop {
        ClosedLoop {
            records: backends()
                .into_iter()
                .map(|(metric, backend)| BackendRecord {
                    metric,
                    backend,
                    untraced: Samples::new(),
                    traced: Samples::new(),
                    census: None,
                })
                .collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            probes: trace.then(QueryProbes::default),
        }
    }

    /// The record feeding `metric`.
    ///
    /// # Panics
    ///
    /// Panics for a metric no backend feeds.
    pub fn record(&self, metric: &str) -> &BackendRecord {
        self.records
            .iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no backend feeds {metric}"))
    }

    /// Runs whole rotations, each asking every backend once, for about
    /// `budget`: at least one, then until the next would overrun. With
    /// `traced`, every rotation is followed by one round of layer probes
    /// and its walls are recorded as traced. Walls are recorded × `scale`
    /// (see [`crate::host`]).
    pub fn run(
        &mut self,
        sweep: &Sweep,
        spec: &WorkloadSpec,
        reference: &Reference,
        budget: Duration,
        traced: bool,
        scale: f64,
    ) {
        let started = Instant::now();
        let mut rotation = Duration::ZERO;
        while rotation.is_zero() || started.elapsed() + rotation <= budget {
            let rotation_start = Instant::now();
            for record in &mut self.records {
                self.attempted += 1;
                let start = Instant::now();
                let result =
                    sweep.pipeline.query(&sweep.prepared, &record.backend, &spec.query);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3 * scale;
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        self.failed += 1;
                        self.problems.push(format!("{}: {e}", record.metric));
                        continue;
                    }
                };
                if !reference.matches(&report.value) {
                    self.failed += 1;
                    self.problems.push(format!("{}: wrong answer", record.metric));
                    continue;
                }
                let census = Census::of(&report);
                if *record.census.get_or_insert(census) != census {
                    self.problems.push(format!("{}: modelled census drifted", record.metric));
                }
                if traced { &mut record.traced } else { &mut record.untraced }.push(wall_ms);
            }
            if let (true, Some(probes)) = (traced, self.probes.as_mut()) {
                if let Err(problem) = probes.probe(sweep, spec, reference, scale) {
                    self.problems.push(problem);
                }
            }
            rotation = rotation_start.elapsed();
        }
    }
}
