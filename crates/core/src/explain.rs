//! Query EXPLAIN: the routing and cost plan of a query, assembled from
//! the very structs the executor consumes — without executing anything.
//!
//! [`TcimPipeline::explain`] answers "what *would* running this query
//! do?": which backend label will execute, how the
//! [`EncodingPolicy`] resolved, whether
//! the prepared (and sharded) artifacts came from cache, the scheduler's
//! per-array job placement, the shard plan, and — centrally — the exact
//! kernel-dispatch census the run will produce. The census is *exact*,
//! not estimated: preparation already walks every arc's mutually valid
//! slice pairs ([`PreparedPricing`]), mirroring the runtime dispatch
//! rule (dense rows always launch; sparse rows launch only when a valid
//! pair was visited), and the sharded composition pass is pre-measured
//! structurally at artifact-build time
//! ([`ShardedPreparedGraph::compose_census`]). Only
//! [`KernelStats::result_readouts`] is excluded — readouts are
//! data-dependent (one per non-zero AND result), which no plan can know
//! without running the kernels.
//!
//! `tests/explain.rs` pins the bit-exactness property across every
//! backend × generator × encoding combination; the worked walkthrough
//! lives in ARCHITECTURE.md §6.

use std::fmt;
use std::time::Duration;

use tcim_arch::Attribution;
use tcim_bitmatrix::{EncodingPolicy, RowEncoding};
use tcim_graph::CsrGraph;
use tcim_sched::{ArrayAssignment, PlacementPolicy};
use tcim_shard::ShardSpec;

use crate::backend::Backend;
use crate::error::Result;
use crate::pipeline::{PreparedGraph, PreparedPricing, TcimPipeline};
use crate::query::{KernelStats, Query, QueryReport};
use crate::sharded::{self, ShardedPreparedGraph};

/// The deterministic part of a run's [`KernelStats`], predicted before
/// executing: kernel dispatches, AND + BitCount slice pairs, and the
/// pairs the sparse encoding skips. Result readouts are excluded — they
/// depend on which ANDs come back non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCensus {
    /// Per-arc kernel dispatches the run will launch.
    pub kernel_invocations: u64,
    /// Valid slice pairs the run will AND + BitCount.
    pub slice_pairs: u64,
    /// Mutually valid pairs the sparse encoding will prove zero and
    /// skip.
    pub blocks_skipped: u64,
}

impl KernelCensus {
    /// Whether a measured [`KernelStats`] agrees with this prediction
    /// on every predicted component (readouts are not compared).
    pub fn matches(&self, measured: &KernelStats) -> bool {
        self.kernel_invocations == measured.kernel_invocations
            && self.slice_pairs == measured.slice_pairs
            && self.blocks_skipped == measured.blocks_skipped
    }

    /// Component-wise sum of two censuses.
    #[must_use]
    pub fn merged(&self, other: &KernelCensus) -> KernelCensus {
        KernelCensus {
            kernel_invocations: self.kernel_invocations + other.kernel_invocations,
            slice_pairs: self.slice_pairs + other.slice_pairs,
            blocks_skipped: self.blocks_skipped + other.blocks_skipped,
        }
    }
}

impl From<PreparedPricing> for KernelCensus {
    /// The census of an unsharded sliced execution, straight from the
    /// preparation-time pricing walk.
    fn from(pricing: PreparedPricing) -> Self {
        KernelCensus {
            kernel_invocations: pricing.kernel_dispatches,
            slice_pairs: pricing.slice_pairs,
            blocks_skipped: pricing.blocks_skipped,
        }
    }
}

impl fmt::Display for KernelCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernel dispatches, {} slice pairs, {} blocks skipped",
            self.kernel_invocations, self.slice_pairs, self.blocks_skipped
        )
    }
}

/// How the row-encoding policy resolved for the prepared artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodingDecision {
    /// The policy the artifact was prepared under.
    pub policy: EncodingPolicy,
    /// The encoding the policy resolved to at build time.
    pub resolved: RowEncoding,
    /// Fraction of slice positions that are valid (the density signal
    /// the auto policy decides on).
    pub valid_fraction: f64,
    /// Compressed artifact size in bytes under the resolved encoding.
    pub compressed_bytes: u64,
}

/// Where the plan's artifacts came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheProvenance {
    /// Whether the prepared artifact was served from the pipeline's
    /// prepared-graph cache (`false`: this plan built it).
    pub prepared_cache_hit: bool,
    /// For sharded plans, whether the sharded artifact was cached.
    /// `None` for unsharded backends.
    pub sharded_cache_hit: Option<bool>,
}

/// The scheduler's placement decision for a [`Backend::ScheduledPim`]
/// plan: the same [`Placement`](tcim_sched::Placement) the executor
/// runs, summarized per array.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPlanSummary {
    /// Number of arrays the policy places onto.
    pub arrays: usize,
    /// The placement policy in force.
    pub placement: PlacementPolicy,
    /// Per-array job/arc/pair assignment with estimated busy time.
    pub per_array: Vec<ArrayAssignment>,
    /// Placement-aware critical-path estimate (s): serial host dispatch
    /// plus the busiest array's estimated busy time.
    pub est_critical_path_s: f64,
}

/// One shard's slice of a sharded plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPieceSummary {
    /// Shard index, in plan order.
    pub shard: usize,
    /// The oriented-id range the shard owns.
    pub range: (u32, u32),
    /// Arcs of the induced subgraph the shard executes.
    pub arcs: u64,
    /// Cross arcs whose tail the shard owns: the composition work its
    /// rows feed.
    pub cross_arcs: u64,
    /// The shard's exact intra-run kernel census.
    pub census: KernelCensus,
}

/// The shard plan of a [`Backend::Sharded`] selection: the partition
/// the executor will run, summarized per shard plus the pre-measured
/// composition census.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlanSummary {
    /// Partition specification (shard count × composition mode).
    pub spec: ShardSpec,
    /// Shards owning a non-empty vertex range.
    pub occupied_shards: usize,
    /// Partition-weight imbalance (`max / mean` shard weight).
    pub imbalance: f64,
    /// Arcs inside shards (handled by intra runs).
    pub intra_arcs: u64,
    /// Arcs crossing shard boundaries (handled by the composition pass).
    pub cross_arcs: u64,
    /// Valid slices in the boundary parts of the extracted operands.
    pub boundary_valid_slices: u64,
    /// The composition pass's exact kernel census.
    pub compose: KernelCensus,
    /// Per-shard piece summaries, in shard order.
    pub per_shard: Vec<ShardPieceSummary>,
}

/// What the cost model predicts the run will do and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedCost {
    /// The kernel census of the *anchor* execution. When
    /// [`exact`](PredictedCost::exact) is set this is the run's full,
    /// bit-exact census (property-tested in `tests/explain.rs`); for
    /// motif queries it covers only the anchoring attributed pass —
    /// the data-dependent peeling / chained-AND rounds on top cannot
    /// be counted without running them.
    pub census: KernelCensus,
    /// Whether [`census`](PredictedCost::census) is the run's complete
    /// kernel census. `false` for motif queries
    /// ([`Query::is_motif`](crate::Query::is_motif)), whose extra
    /// rounds are data-dependent.
    pub exact: bool,
    /// The cost model's modelled-latency estimate (s). `None` for host
    /// backends, which have no modelled time to predict.
    pub modelled_s: Option<f64>,
}

/// What an execution actually did — attached to a plan after the fact
/// (e.g. by the service when `explain_queries` is enabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCost {
    /// The run's full measured kernel accounting (readouts included).
    pub kernel: KernelStats,
    /// Host wall-clock time of the execution stage.
    pub wall: Duration,
    /// Modelled accelerator latency (s), for simulated backends.
    pub modelled_s: Option<f64>,
}

/// Every routing decision and cost prediction of one query, assembled
/// from the same structs the executor consumes.
///
/// Produced by [`TcimPipeline::explain`] (plan without executing) and
/// surfaced by `tcim-service` as `QueryResponse::explain` (plan plus
/// [`MeasuredCost`]) when explain capture is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Display label of the backend that will execute (matches
    /// [`Backend::label`]).
    pub backend: String,
    /// The query being planned.
    pub query: Query,
    /// Whether the query needs the attributed (readout-heavy) primitive.
    pub needs_attribution: bool,
    /// How the encoding policy resolved.
    pub encoding: EncodingDecision,
    /// Artifact cache provenance.
    pub cache: CacheProvenance,
    /// The cost model's prediction.
    pub predicted: PredictedCost,
    /// Scheduler placement summary, for [`Backend::ScheduledPim`] plans.
    pub sched: Option<SchedPlanSummary>,
    /// Shard plan summary, for [`Backend::Sharded`] plans.
    pub sharding: Option<ShardPlanSummary>,
    /// The executed run's accounting, once attached.
    pub measured: Option<MeasuredCost>,
}

impl ExplainReport {
    /// Attaches the accounting of the execution this plan preceded.
    pub fn attach_measured(&mut self, report: &QueryReport) {
        self.measured = Some(MeasuredCost {
            kernel: report.kernel,
            wall: report.execute_time,
            modelled_s: report.modelled_time_s,
        });
    }

    /// Whether the predicted census matched the measured run exactly
    /// (`None` until a measurement is attached, and `None` for plans
    /// whose census is not exact — motif queries run data-dependent
    /// rounds the anchor census deliberately excludes).
    pub fn census_matches(&self) -> Option<bool> {
        if !self.predicted.exact {
            return None;
        }
        self.measured.as_ref().map(|m| self.predicted.census.matches(&m.kernel))
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN {}", self.query.label())?;
        writeln!(f, "  backend    {}", self.backend)?;
        writeln!(
            f,
            "  encoding   {} -> {}  ({:.1}% valid slices, {} compressed bytes)",
            self.encoding.policy,
            self.encoding.resolved,
            self.encoding.valid_fraction * 100.0,
            self.encoding.compressed_bytes
        )?;
        let sharded_cache = match self.cache.sharded_cache_hit {
            Some(true) => ", sharded=hit",
            Some(false) => ", sharded=miss",
            None => "",
        };
        writeln!(
            f,
            "  cache      prepared={}{}",
            if self.cache.prepared_cache_hit { "hit" } else { "miss" },
            sharded_cache
        )?;
        writeln!(
            f,
            "  predicted  {}{}",
            self.predicted.census,
            if self.predicted.exact {
                ""
            } else {
                "  (anchor pass only; motif rounds on top)"
            }
        )?;
        if let Some(s) = self.predicted.modelled_s {
            writeln!(f, "  modelled   {s:.3e} s (cost model)")?;
        }
        if let Some(sched) = &self.sched {
            writeln!(
                f,
                "  schedule   {} arrays, {} placement, est critical path {:.3e} s",
                sched.arrays, sched.placement, sched.est_critical_path_s
            )?;
            for a in &sched.per_array {
                writeln!(
                    f,
                    "    array {:>2}  {:>4} jobs  {:>6} arcs  {:>8} slice pairs  {:.3e} s busy",
                    a.array, a.jobs, a.arcs, a.slice_pairs, a.est_busy_s
                )?;
            }
        }
        if let Some(shard) = &self.sharding {
            writeln!(
                f,
                "  sharding   {} ({} occupied), imbalance {:.3}, {} intra / {} cross arcs",
                shard.spec,
                shard.occupied_shards,
                shard.imbalance,
                shard.intra_arcs,
                shard.cross_arcs
            )?;
            for piece in &shard.per_shard {
                writeln!(
                    f,
                    "    shard {:>2}  [{:>6}, {:>6})  {:>6} arcs  {:>6} cross  {}",
                    piece.shard,
                    piece.range.0,
                    piece.range.1,
                    piece.arcs,
                    piece.cross_arcs,
                    piece.census
                )?;
            }
            writeln!(f, "    compose   {}", shard.compose)?;
        }
        if let Some(measured) = &self.measured {
            writeln!(
                f,
                "  measured   {} kernel dispatches, {} slice pairs, {} blocks skipped, \
                 {} readouts",
                measured.kernel.kernel_invocations,
                measured.kernel.slice_pairs,
                measured.kernel.blocks_skipped,
                measured.kernel.result_readouts
            )?;
            write!(
                f,
                "  wall       {:.3} ms{}",
                measured.wall.as_secs_f64() * 1e3,
                match measured.modelled_s {
                    Some(s) => format!(", {s:.3e} s modelled"),
                    None => String::new(),
                }
            )?;
            if let Some(matches) = self.census_matches() {
                write!(
                    f,
                    "\n  census     {}",
                    if matches { "exact match" } else { "MISMATCH" }
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The exact census of a sharded execution: the sum of every piece's
/// pricing walk plus the pre-measured composition census.
fn sharded_census(artifact: &ShardedPreparedGraph) -> KernelCensus {
    let mut census = artifact
        .pieces()
        .iter()
        .map(|piece| KernelCensus::from(piece.prepared().pricing()))
        .fold(KernelCensus::default(), |acc, c| acc.merged(&c));
    let compose = artifact.compose_census();
    census.kernel_invocations += compose.kernel_invocations;
    census.slice_pairs += compose.slice_pairs;
    census.blocks_skipped += compose.blocks_skipped;
    census
}

impl TcimPipeline {
    /// Plans `query` on `spec` over `g` without executing anything:
    /// prepares (cached) and assembles the [`ExplainReport`] from the
    /// same artifacts a subsequent execution will consume.
    ///
    /// # Errors
    ///
    /// Propagates the same planning failures execution would hit
    /// (invalid scheduling policy, invalid shard spec, slice-size
    /// mismatch).
    pub fn explain(
        &self,
        g: &CsrGraph,
        spec: &Backend,
        query: &Query,
    ) -> Result<ExplainReport> {
        let (prepared, cache_hit) = self.prepare_reporting(g);
        self.explain_prepared(&prepared, cache_hit, spec, query)
    }

    /// As [`TcimPipeline::explain`] over an already-prepared artifact,
    /// with the prepared-cache provenance supplied by the caller (the
    /// seam `tcim-service` plans through after its own backend
    /// auto-selection).
    ///
    /// # Errors
    ///
    /// As [`TcimPipeline::explain`].
    pub fn explain_prepared(
        &self,
        prepared: &PreparedGraph,
        prepared_cache_hit: bool,
        spec: &Backend,
        query: &Query,
    ) -> Result<ExplainReport> {
        let stats = prepared.slice_stats();
        let pricing = prepared.pricing();
        let costs = self.engine().cost_model();
        let mut cache = CacheProvenance { prepared_cache_hit, sharded_cache_hit: None };
        let mut sched = None;
        let mut sharding = None;

        let census = match spec {
            // CPU baselines dispatch one intersection per arc and touch
            // no slices.
            Backend::CpuMerge | Backend::CpuForward => KernelCensus {
                kernel_invocations: prepared.oriented().arc_count() as u64,
                slice_pairs: 0,
                blocks_skipped: 0,
            },
            Backend::SerialPim | Backend::Software(_) => KernelCensus::from(pricing),
            Backend::ScheduledPim(policy) => {
                // The artifact's memoized plan, the one the executor
                // runs: summarizing it plans nothing once a query (or an
                // earlier EXPLAIN) has built it.
                let (plan, _) = prepared.schedule_plan(self.engine(), policy, &costs)?;
                let per_array = plan.per_array_summary();
                let busiest = per_array.iter().map(|a| a.est_busy_s).fold(0.0f64, f64::max);
                sched = Some(SchedPlanSummary {
                    arrays: policy.arrays,
                    placement: policy.placement,
                    per_array,
                    est_critical_path_s: pricing.kernel_dispatches as f64
                        * costs.controller_overhead_s
                        + busiest,
                });
                KernelCensus::from(pricing)
            }
            Backend::Sharded(policy) => {
                let (artifact, sharded_hit) = sharded::cached_artifact(
                    self.sharded_cache(),
                    prepared,
                    &policy.spec,
                    self.engine(),
                )?;
                cache.sharded_cache_hit = Some(sharded_hit);
                let compose = artifact.compose_census();
                sharding = Some(ShardPlanSummary {
                    spec: artifact.spec(),
                    occupied_shards: artifact.plan().occupied_shards(),
                    imbalance: artifact.plan().imbalance(),
                    intra_arcs: artifact.plan().intra_arcs(),
                    cross_arcs: artifact.plan().cross_arcs(),
                    boundary_valid_slices: artifact.boundary().boundary_valid_slices(),
                    compose: KernelCensus {
                        kernel_invocations: compose.kernel_invocations,
                        slice_pairs: compose.slice_pairs,
                        blocks_skipped: compose.blocks_skipped,
                    },
                    per_shard: artifact
                        .pieces()
                        .iter()
                        .enumerate()
                        .map(|(shard, piece)| ShardPieceSummary {
                            shard,
                            range: piece.range(),
                            arcs: piece.prepared().oriented().arc_count() as u64,
                            cross_arcs: artifact.plan().cross_arcs_by_tail()[shard],
                            census: KernelCensus::from(piece.prepared().pricing()),
                        })
                        .collect(),
                });
                sharded_census(&artifact)
            }
        };

        Ok(ExplainReport {
            backend: spec.label(),
            query: query.clone(),
            needs_attribution: query.attribution() > Attribution::Count,
            encoding: EncodingDecision {
                policy: prepared.key().encoding,
                resolved: prepared.encoding(),
                valid_fraction: stats.valid_fraction(),
                compressed_bytes: stats.compressed_bytes,
            },
            cache,
            predicted: PredictedCost {
                census,
                exact: !query.is_motif(),
                modelled_s: self.predicted_modelled_s(prepared, spec),
            },
            sched,
            sharding,
            measured: None,
        })
    }

    /// The cost model's cheap pre-execution estimate of the modelled
    /// latency `spec` will report for `prepared` — `None` for host
    /// backends (no modelled time) and for sharded plans whose artifact
    /// is not in the pipeline's sharded cache (pricing never counts a
    /// cache lookup or builds an artifact). This is the prediction the
    /// `tcim_model_error_permille` calibration histograms score against
    /// the executed run.
    pub fn predicted_modelled_s(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
    ) -> Option<f64> {
        let costs = self.engine().cost_model();
        let stats = prepared.slice_stats();
        let pricing = prepared.pricing();
        match spec {
            Backend::CpuMerge | Backend::CpuForward | Backend::Software(_) => None,
            Backend::SerialPim => Some(costs.estimate_modelled_s(
                stats.valid_slices,
                pricing.slice_pairs,
                pricing.kernel_dispatches,
            )),
            // Ideal-split estimate: array work spread perfectly over the
            // arrays, host dispatch serial. The calibration histograms
            // absorb the (placement-dependent) imbalance this ignores.
            Backend::ScheduledPim(policy) => Some(
                costs.estimate_busy_s(stats.valid_slices, pricing.slice_pairs)
                    / policy.arrays as f64
                    + pricing.kernel_dispatches as f64 * costs.controller_overhead_s,
            ),
            Backend::Sharded(policy) => {
                let artifact = self.sharded_cache().peek(&(*prepared.key(), policy.spec))?;
                let arrays = policy.inner.arrays as f64;
                // Shards run concurrently: the intra phase finishes on
                // the slowest shard's clock.
                let intra = artifact
                    .pieces()
                    .iter()
                    .map(|piece| {
                        let p = piece.prepared().pricing();
                        let s = piece.prepared().slice_stats();
                        p.kernel_dispatches as f64 * costs.controller_overhead_s
                            + costs.estimate_busy_s(s.valid_slices, p.slice_pairs) / arrays
                    })
                    .fold(0.0f64, f64::max);
                let compose = artifact.compose_census();
                let compose_s = compose.kernel_invocations as f64
                    * costs.controller_overhead_s
                    + costs.estimate_busy_s(
                        artifact.boundary().boundary_valid_slices(),
                        compose.slice_pairs,
                    ) / arrays;
                Some(intra + compose_s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TcimConfig;
    use crate::sharded::ShardPolicy;
    use tcim_graph::generators::gnm;
    use tcim_sched::SchedPolicy;

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    #[test]
    fn explain_census_matches_execution_for_serial_pim() {
        let p = pipeline();
        let g = gnm(300, 2200, 11).unwrap();
        let plan = p.explain(&g, &Backend::SerialPim, &Query::TotalTriangles).unwrap();
        assert_eq!(plan.backend, "tcim-serial");
        assert!(!plan.cache.prepared_cache_hit, "first touch builds");
        assert!(plan.predicted.modelled_s.unwrap() > 0.0);
        let prepared = p.prepare(&g);
        let report = p.query(&prepared, &Backend::SerialPim, &Query::TotalTriangles).unwrap();
        assert!(plan.predicted.census.matches(&report.kernel));
        // A second explain hits the prepared cache.
        let again = p.explain(&g, &Backend::SerialPim, &Query::TotalTriangles).unwrap();
        assert!(again.cache.prepared_cache_hit);
    }

    #[test]
    fn scheduled_plans_carry_per_array_placement() {
        let p = pipeline();
        let g = gnm(256, 1800, 3).unwrap();
        let spec = Backend::ScheduledPim(SchedPolicy::with_arrays(4));
        let plan = p.explain(&g, &spec, &Query::TotalTriangles).unwrap();
        let sched = plan.sched.as_ref().unwrap();
        assert_eq!(sched.arrays, 4);
        assert_eq!(sched.per_array.len(), 4);
        let placed_pairs: u64 = sched.per_array.iter().map(|a| a.slice_pairs).sum();
        assert_eq!(placed_pairs, plan.predicted.census.slice_pairs);
        assert!(sched.est_critical_path_s > 0.0);
    }

    #[test]
    fn sharded_plans_sum_piece_and_compose_censuses() {
        let p = pipeline();
        let g = gnm(512, 3600, 21).unwrap();
        let spec = Backend::Sharded(ShardPolicy::with_shards(4));
        let plan = p.explain(&g, &spec, &Query::TotalTriangles).unwrap();
        let shard = plan.sharding.as_ref().unwrap();
        assert_eq!(shard.per_shard.len(), 4);
        assert_eq!(plan.cache.sharded_cache_hit, Some(false));
        let pieces: u64 = shard.per_shard.iter().map(|s| s.census.kernel_invocations).sum();
        assert_eq!(
            pieces + shard.compose.kernel_invocations,
            plan.predicted.census.kernel_invocations
        );
        let cross: u64 = shard.per_shard.iter().map(|s| s.cross_arcs).sum();
        assert_eq!(cross, shard.cross_arcs);
        let prepared = p.prepare(&g);
        let report = p.query(&prepared, &spec, &Query::TotalTriangles).unwrap();
        assert!(plan.predicted.census.matches(&report.kernel), "{plan}");
        assert_eq!(
            p.explain(&g, &spec, &Query::TotalTriangles).unwrap().cache.sharded_cache_hit,
            Some(true)
        );
    }

    #[test]
    fn attach_measured_closes_the_loop() {
        let p = pipeline();
        let g = gnm(200, 1400, 7).unwrap();
        let mut plan = p.explain(&g, &Backend::CpuMerge, &Query::TotalTriangles).unwrap();
        assert!(plan.census_matches().is_none());
        let report =
            p.query(&p.prepare(&g), &Backend::CpuMerge, &Query::TotalTriangles).unwrap();
        plan.attach_measured(&report);
        assert_eq!(plan.census_matches(), Some(true));
        let text = plan.to_string();
        assert!(text.contains("EXPLAIN"));
        assert!(text.contains("cpu-merge"));
        assert!(text.contains("exact match"));
    }

    /// Motif plans carry the anchor pass's census but are marked
    /// inexact: the peeling / chained-AND rounds on top are
    /// data-dependent, so `census_matches` must stay `None` even after
    /// a measurement is attached (the measured kernel counts are a
    /// strict superset of the anchor census).
    #[test]
    fn motif_plans_are_census_inexact() {
        let p = pipeline();
        let g = gnm(150, 900, 5).unwrap();
        for query in [Query::KTruss { k: 3 }, Query::FourCliques] {
            let mut plan = p.explain(&g, &Backend::SerialPim, &query).unwrap();
            assert!(!plan.predicted.exact, "{query}");
            assert!(plan.to_string().contains("anchor pass only"));
            let report = p.query(&p.prepare(&g), &Backend::SerialPim, &query).unwrap();
            assert!(
                report.kernel.kernel_invocations > plan.predicted.census.kernel_invocations,
                "{query}: motif rounds add kernels on top of the anchor pass"
            );
            plan.attach_measured(&report);
            assert_eq!(plan.census_matches(), None, "{query}");
        }
        // Classic plans are unaffected.
        let plan = p.explain(&g, &Backend::SerialPim, &Query::TotalTriangles).unwrap();
        assert!(plan.predicted.exact);
    }

    #[test]
    fn planning_failures_match_execution_failures() {
        let p = pipeline();
        let g = gnm(128, 700, 2).unwrap();
        let invalid = Backend::ScheduledPim(SchedPolicy::with_arrays(0));
        assert!(p.explain(&g, &invalid, &Query::TotalTriangles).is_err());
        let invalid_shard = Backend::Sharded(ShardPolicy::with_shards(0));
        assert!(p.explain(&g, &invalid_shard, &Query::TotalTriangles).is_err());
    }
}
