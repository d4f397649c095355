//! The workloads: which graphs are generated from the seed, which query
//! the closed loop asks, and how a run's seconds are split between the
//! closed loop and the open-loop gateway phase.

use tcim_bitmatrix::PopcountMethod;
use tcim_core::{Backend, Query, SchedPolicy, ShardMode, ShardPolicy, ShardSpec};
use tcim_graph::generators::{barabasi_albert, gnm, rmat, RmatParams};
use tcim_graph::CsrGraph;

/// A seeded graph generator call.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// `barabasi_albert(n, m, seed)`.
    Ba { n: usize, m: usize },
    /// `rmat(scale, edges, RmatParams::default(), seed)`.
    Rmat { scale: u32, edges: usize },
    /// `gnm(n, m, seed)`.
    Gnm { n: usize, m: usize },
}

impl GraphSpec {
    /// Generates the graph for `seed`.
    ///
    /// # Panics
    ///
    /// Panics on invalid generator parameters (the specs below are
    /// fixed and valid).
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match *self {
            GraphSpec::Ba { n, m } => barabasi_albert(n, m, seed),
            GraphSpec::Rmat { scale, edges } => {
                rmat(scale, edges, RmatParams::default(), seed)
            }
            GraphSpec::Gnm { n, m } => gnm(n, m, seed),
        }
        .expect("workload generator parameters are valid")
    }

    /// The generator call, for the report header.
    pub fn describe(&self, seed: u64) -> String {
        match *self {
            GraphSpec::Ba { n, m } => format!("barabasi_albert({n}, {m}, {seed})"),
            GraphSpec::Rmat { scale, edges } => {
                format!("rmat({scale}, {edges}, RmatParams::default(), {seed})")
            }
            GraphSpec::Gnm { n, m } => format!("gnm({n}, {m}, {seed})"),
        }
    }
}

/// The open-loop gateway phase: traffic mix, offered rate and latency
/// limit. The same traffic runs on every workload; only its share of
/// the run differs.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// The static graph three of four reads go to (seed: the run seed).
    pub static_graph: GraphSpec,
    /// The live graph the fourth read and every write go to (seed: run
    /// seed + 1).
    pub live_graph: GraphSpec,
    /// Offered submissions per second (reads and writes).
    pub rate_qps: f64,
    /// The p99 latency limit goodput is counted against.
    pub limit_ms: f64,
    /// Every `write_every`-th submission is an update batch.
    pub write_every: usize,
    /// Updates in one batch (half inserts, half deletes).
    pub batch_updates: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The closed loop's graph (seed: the run seed).
    pub graph: GraphSpec,
    /// The query the closed loop asks every backend.
    pub query: Query,
    /// Share of the run's seconds given to the closed loop; the rest
    /// goes to the gateway phase.
    pub closed_share: f64,
    /// Whether the workload's traffic uses triangle attribution, so the
    /// traced run measures the attributed primitive.
    pub attributed: bool,
    /// The gateway phase.
    pub serving: ServingSpec,
}

/// Graph sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small graphs for the benchmark's own tests.
    Tiny,
}

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["ba20k-count", "rmat14-ktruss", "gateway-live"];

fn serving(scale: Scale) -> ServingSpec {
    match scale {
        Scale::Full => ServingSpec {
            static_graph: GraphSpec::Ba { n: 5_000, m: 8 },
            live_graph: GraphSpec::Gnm { n: 1_000, m: 8_000 },
            rate_qps: 400.0,
            limit_ms: 100.0,
            write_every: 20,
            batch_updates: 32,
        },
        Scale::Tiny => ServingSpec {
            static_graph: GraphSpec::Ba { n: 600, m: 5 },
            live_graph: GraphSpec::Gnm { n: 200, m: 1_200 },
            rate_qps: 300.0,
            limit_ms: 100.0,
            write_every: 20,
            batch_updates: 8,
        },
    }
}

/// The workload called `name`, or `None` for an unknown name.
pub fn workload(name: &str, scale: Scale) -> Option<WorkloadSpec> {
    let full = scale == Scale::Full;
    let serving = serving(scale);
    let spec = match name {
        "ba20k-count" => WorkloadSpec {
            name: "ba20k-count",
            graph: if full {
                GraphSpec::Ba { n: 20_000, m: 8 }
            } else {
                GraphSpec::Ba { n: 2_000, m: 8 }
            },
            query: Query::TotalTriangles,
            closed_share: 0.7,
            attributed: false,
            serving,
        },
        "rmat14-ktruss" => WorkloadSpec {
            name: "rmat14-ktruss",
            graph: if full {
                GraphSpec::Rmat { scale: 14, edges: 160_000 }
            } else {
                GraphSpec::Rmat { scale: 10, edges: 6_000 }
            },
            query: Query::KTruss { k: 4 },
            closed_share: 0.7,
            attributed: true,
            serving,
        },
        "gateway-live" => WorkloadSpec {
            name: "gateway-live",
            // The closed loop runs on the gateway's own static graph.
            graph: serving.static_graph,
            query: Query::TotalTriangles,
            closed_share: 0.2,
            attributed: true,
            serving,
        },
        _ => return None,
    };
    Some(spec)
}

/// The sharding every sharded execution uses: 4 one-dimensional
/// shards, each scheduled on 2 arrays.
pub fn shard_policy() -> ShardPolicy {
    ShardPolicy {
        spec: ShardSpec { shards: 4, mode: ShardMode::OneD },
        inner: SchedPolicy::with_arrays(2),
    }
}

/// The closed loop's backends, by the metric each one feeds, in the
/// order one rotation asks them.
pub fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("cpu_forward_ms", Backend::CpuForward),
        ("software_sliced_ms", Backend::Software(PopcountMethod::Native)),
        ("serial_pim_ms", Backend::SerialPim),
        ("scheduled_pim4_ms", Backend::ScheduledPim(SchedPolicy::with_arrays(4))),
        ("sharded4_ms", Backend::Sharded(shard_policy())),
    ]
}

/// The read rotation of the gateway phase.
pub fn read_rotation() -> Vec<Query> {
    vec![
        Query::TotalTriangles,
        Query::PerVertexTriangles,
        Query::TopKVertices { k: 8 },
        Query::GlobalClustering,
        Query::EdgeSupport,
    ]
}
