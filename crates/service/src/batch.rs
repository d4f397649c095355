//! The one answer path: every request is answered as a member of a
//! group, and every group over a prepared artifact by one coalesced
//! execution.
//!
//! A group is a set of requests that name one graph with one backend
//! override, which together determine the answering artifact and the
//! resolved backend. A direct request ([`TcimService::query_with`]) is
//! a group of one. A wave ([`TcimService::serve_with`], the path the
//! gateway's dispatcher drains its admission queue into) is split into
//! groups of one, or, with coalescing, into groups keyed by graph ×
//! backend override, whose responses are stamped with
//! [`BatchProvenance`] so the saving is provable per response.
//!
//! One function answers every group: it routes the group to its graph
//! once, runs [`TcimPipeline::query_coalesced`] over the members of a
//! prepared artifact (a static graph, or a live graph's pinned epoch),
//! plans EXPLAIN for static members when a plan is wanted, and builds
//! each member's [`QueryResponse`].
//!
//! Live graphs are read in one of two [`LiveReadMode`]s: `Maintained`
//! locks the dynamic state and answers from the incrementally
//! maintained counts, while `Pinned` answers from the last *published*
//! [`EpochSnapshot`](tcim_stream::EpochSnapshot)'s prepared artifact
//! without ever touching the dynamic mutex — the gateway's
//! snapshot-isolated read path, on which update batches never block
//! readers.
//!
//! [`TcimPipeline::query_coalesced`]: tcim_core::TcimPipeline::query_coalesced

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use tcim_core::query::shape_value;
use tcim_core::{
    Backend, EdgeSupport, ExplainReport, KernelStats, PreparedGraph, Query, QueryReport,
};
use tcim_sched::parallel_map_indexed;
use tcim_stream::DynamicGraph;

use crate::error::{Result, ServiceError};
use crate::service::{QueryRequest, QueryResponse, TcimService};
use crate::store::Graph;

/// Coalescing provenance carried by every response a coalescing wave
/// produced: which batch answered, how many requests shared it, and
/// how many attributed executions actually ran for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchProvenance {
    /// Service-wide monotonic id of the batch that answered.
    pub batch_id: u64,
    /// Requests that shared this batch (1 = a singleton group).
    pub coalesced: usize,
    /// Attributed executions the batch actually ran. A burst is
    /// provably coalesced when `executions < coalesced` across its
    /// batches.
    pub executions: u64,
}

/// How waves read live (dynamic) graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LiveReadMode {
    /// Lock the dynamic state briefly and answer from the maintained
    /// counts — the freshest possible answer, serialized behind
    /// writers. The classic [`TcimService::serve`] behaviour.
    #[default]
    Maintained,
    /// Answer from the last *published*
    /// [`EpochSnapshot`](tcim_stream::EpochSnapshot) without touching
    /// the dynamic mutex: readers are never blocked by update batches
    /// and see exactly their pinned epoch's state. The gateway's
    /// snapshot-isolation mode.
    Pinned,
}

/// Options of one [`TcimService::serve_with`] wave.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Coalesce compatible requests (same graph × same backend
    /// override) into one attributed execution per group, and stamp
    /// their responses with [`BatchProvenance`]. Off, every request is
    /// answered as a group of one, as a direct request is.
    pub coalesce: bool,
    /// How live graphs are read.
    pub live: LiveReadMode,
}

/// One group of compatible requests: indices into the wave, in
/// submission order.
pub(crate) struct Group<'a> {
    graph: &'a str,
    backend: Option<&'a Backend>,
    members: Vec<usize>,
}

impl<'a> Group<'a> {
    /// The group of `requests[index]` alone.
    pub(crate) fn single(requests: &'a [QueryRequest], index: usize) -> Self {
        let request = &requests[index];
        Group {
            graph: &request.graph,
            backend: request.backend.as_ref(),
            members: vec![index],
        }
    }
}

/// One member's answer before its response envelope: its report, and
/// its plan when one was made.
type Member = Result<(QueryReport, Option<ExplainReport>)>;

/// A group's member answers, and what answered them.
struct Answers {
    fingerprint: u64,
    /// The fold epoch a pinned read answered from.
    epoch: Option<u64>,
    live: bool,
    executions: u64,
    members: Vec<Member>,
}

impl TcimService {
    /// Serves `requests` in one wave, returning per-request outcomes in
    /// submission order. Groups execute concurrently over scoped
    /// worker threads; with `opts.coalesce`, each group of compatible
    /// requests is answered by a single attributed execution whose
    /// per-triangle attribution fans out into every member's response.
    pub fn serve_with(
        &self,
        requests: &[QueryRequest],
        opts: &BatchOptions,
    ) -> Vec<Result<QueryResponse>> {
        let groups = if opts.coalesce {
            group_requests(requests)
        } else {
            (0..requests.len()).map(|i| Group::single(requests, i)).collect()
        };
        let answered = parallel_map_indexed(groups.len(), self.serve_threads(), |gi| {
            self.answer_group(requests, &groups[gi], opts.live, opts.coalesce)
        });
        let mut out: Vec<Option<Result<QueryResponse>>> =
            (0..requests.len()).map(|_| None).collect();
        for (group, results) in groups.iter().zip(answered) {
            for (&idx, result) in group.members.iter().zip(results) {
                out[idx] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every request lands in exactly one group"))
            .collect()
    }

    /// Answers one group, members in order: the service's one answer
    /// path. Counts every member in the service metrics, profiles the
    /// group when `profile_queries` is set, records slow members, and
    /// stamps `batched` groups with their [`BatchProvenance`]. The
    /// in-flight gauge is held by RAII guards, so a panicking backend
    /// can never leak it.
    pub(crate) fn answer_group(
        &self,
        requests: &[QueryRequest],
        group: &Group<'_>,
        live: LiveReadMode,
        batched: bool,
    ) -> Vec<Result<QueryResponse>> {
        let size = group.members.len();
        let batch_id = batched.then(|| {
            self.metrics.batches.incr();
            self.metrics.coalesced.add(size as u64);
            self.metrics.batch_size.observe(size as u64);
            self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1
        });
        let _inflight: Vec<_> =
            group.members.iter().map(|_| self.metrics.inflight.track()).collect();
        let start = Instant::now();
        let queries: Vec<Query> =
            group.members.iter().map(|&i| requests[i].query.clone()).collect();
        let (answers, phases) = if self.config.profile_queries {
            let (answers, profile) =
                tcim_telemetry::profile("query", || self.answer(group, &queries, live));
            (answers, profile.map(|report| report.breakdown()))
        } else {
            (self.answer(group, &queries, live), None)
        };
        let wall = start.elapsed();
        let results: Vec<Result<QueryResponse>> = match answers {
            None => (0..size)
                .map(|_| Err(ServiceError::UnknownGraph { name: group.graph.to_string() }))
                .collect(),
            Some(answers) => {
                let batch = batch_id.map(|batch_id| BatchProvenance {
                    batch_id,
                    coalesced: size,
                    executions: answers.executions,
                });
                answers
                    .members
                    .into_iter()
                    .map(|member| {
                        let (report, explain) = member?;
                        Ok(QueryResponse {
                            graph: group.graph.to_string(),
                            fingerprint: answers.fingerprint,
                            backend: report.backend,
                            query: report.query,
                            value: report.value,
                            triangles: report.triangles,
                            prepared_cache_hit: true,
                            live: answers.live,
                            modelled_time_s: report.modelled_time_s,
                            modelled_energy_j: report.modelled_energy_j,
                            kernel: report.kernel,
                            compressed_bytes: report.compressed_bytes,
                            sharding: report.sharding,
                            wall,
                            phases: phases.clone(),
                            explain,
                            batch: batch.clone(),
                            epoch: answers.epoch,
                        })
                    })
                    .collect()
            }
        };
        results
            .into_iter()
            .map(|result| {
                self.metrics.queries.incr();
                self.metrics.wall.observe_duration(wall);
                let mut response = result.inspect_err(|_| self.metrics.failures.incr())?;
                self.capture_slow(&response);
                // A plan made only for the slow-query record is not the
                // response's to carry.
                if !self.config.explain_queries {
                    response.explain = None;
                }
                Ok(response)
            })
            .collect()
    }

    /// Routes a group to its graph and answers every member (the
    /// profiled body of [`TcimService::answer_group`]); `None` when no
    /// graph is bound to the group's name.
    fn answer(
        &self,
        group: &Group<'_>,
        queries: &[Query],
        live: LiveReadMode,
    ) -> Option<Answers> {
        let route = tcim_telemetry::span("route");
        let (prepared, epoch) = match self.store.get(group.graph, queries.len() as u64)? {
            Graph::Static(prepared) => (prepared, None),
            Graph::Live(graph) if live == LiveReadMode::Pinned => {
                let snapshot = graph.published();
                (snapshot.prepared, Some(snapshot.epoch))
            }
            Graph::Live(graph) => {
                let dynamic = graph.dynamic();
                drop(route);
                let _execute = tcim_telemetry::span("execute");
                let members = queries
                    .iter()
                    .map(|query| Ok((answer_live(&dynamic, query)?, None)))
                    .collect();
                return Some(Answers {
                    fingerprint: dynamic.prepared().key().fingerprint,
                    epoch: None,
                    live: true,
                    executions: queries.len() as u64,
                    members,
                });
            }
        };
        let backend = self.select_backend(group.backend, &prepared);
        drop(route);
        let (executions, members) =
            self.answer_prepared(&prepared, &backend, queries, epoch.is_none());
        Some(Answers {
            fingerprint: prepared.key().fingerprint,
            epoch,
            live: epoch.is_some(),
            executions,
            members,
        })
    }

    /// Answers `queries` over one prepared artifact with one coalesced
    /// execution, returning the executions it ran and each member's
    /// report. `plannable` members (static graphs: a live graph's epoch
    /// has no plan to explain) are planned first when a response or a
    /// slow-query record may want the plan, and carry it with the
    /// measured accounting attached. When the carrier run fails, each
    /// member gets its own run and so its own error, or its answer when
    /// the failure was narrower than the group.
    fn answer_prepared(
        &self,
        prepared: &PreparedGraph,
        backend: &Backend,
        queries: &[Query],
        plannable: bool,
    ) -> (u64, Vec<Member>) {
        let plan = plannable
            && (self.config.explain_queries || self.config.slow_query_threshold.is_some());
        let run = || -> tcim_core::Result<_> {
            // The plan reads the same cached artifacts the execution
            // consumes, so nothing is re-prepared.
            let plans = if plan {
                let _explain = tcim_telemetry::span("explain");
                queries
                    .iter()
                    .map(|query| {
                        self.pipeline
                            .explain_prepared(prepared, true, backend, query)
                            .map(Some)
                    })
                    .collect::<tcim_core::Result<Vec<_>>>()?
            } else {
                vec![None; queries.len()]
            };
            let _execute = tcim_telemetry::span("execute");
            let outcome = self.pipeline.query_coalesced(prepared, backend, queries)?;
            let members = outcome.reports.into_iter().zip(plans).map(|(report, plan)| {
                let report = report?;
                let explain = plan.map(|mut plan| {
                    plan.attach_measured(&report);
                    plan
                });
                Ok((report, explain))
            });
            Ok((outcome.executions, members.collect()))
        };
        match run() {
            Ok((executions, members)) => {
                let size = queries.len() as u64;
                self.metrics.executions_saved.add(size - executions.min(size));
                (executions, members)
            }
            Err(e) if queries.len() == 1 => (0, vec![Err(e.into())]),
            Err(_) => {
                let mut executions = 0;
                let members = queries
                    .iter()
                    .flat_map(|query| {
                        let single = std::slice::from_ref(query);
                        let (ran, member) =
                            self.answer_prepared(prepared, backend, single, plannable);
                        executions += ran;
                        member
                    })
                    .collect();
                (executions, members)
            }
        }
    }
}

/// Answers a query from a live graph's incrementally maintained state:
/// total and per-vertex counts are read directly, clustering derives
/// from them plus live degrees, and edge support runs one delta kernel
/// per live edge. Motif queries run their own kernel rounds over the
/// live rows (peeling for trusses, chained ANDs for cliques) — still
/// never a re-slice.
fn answer_live(dynamic: &DynamicGraph, query: &Query) -> Result<QueryReport> {
    let start = Instant::now();
    let (value, kernel) = match *query {
        Query::KTruss { k } => dynamic.trussness(k),
        Query::FourCliques => dynamic.four_cliques(),
        _ => {
            let degrees: Vec<u64> = match query {
                Query::LocalClustering { .. } | Query::GlobalClustering => {
                    (0..dynamic.vertex_count() as u32)
                        .map(|v| dynamic.neighbors(v).len() as u64)
                        .collect()
                }
                _ => Vec::new(),
            };
            let (edge_support, kernel) = if matches!(query, Query::EdgeSupport) {
                let (entries, slice_pairs, blocks_skipped) = dynamic.edge_support();
                let support: Vec<EdgeSupport> = entries
                    .into_iter()
                    .map(|(u, v, support)| EdgeSupport { u, v, support })
                    .collect();
                let kernel = KernelStats {
                    kernel_invocations: support.len() as u64,
                    slice_pairs,
                    result_readouts: 0,
                    blocks_skipped,
                };
                (Some(support), kernel)
            } else {
                (None, KernelStats::default())
            };
            let value = shape_value(
                query,
                dynamic.triangles(),
                dynamic.per_vertex(),
                &degrees,
                edge_support,
            )?;
            (value, kernel)
        }
    };
    Ok(QueryReport {
        backend: "stream-incremental".to_string(),
        query: query.clone(),
        value,
        triangles: dynamic.triangles(),
        execute_time: start.elapsed(),
        modelled_time_s: None,
        modelled_energy_j: None,
        kernel,
        compressed_bytes: dynamic.compressed_bytes(),
        sharding: None,
    })
}

/// Groups wave indices by answering artifact: graph name × explicit
/// backend override (the override participates in the key because it
/// changes the resolved execution; requests without one coalesce under
/// the service's selection). First-seen order, members in submission
/// order.
fn group_requests(requests: &[QueryRequest]) -> Vec<Group<'_>> {
    let mut order: Vec<Group<'_>> = Vec::new();
    let mut index: HashMap<(&str, String), usize> = HashMap::new();
    for (i, request) in requests.iter().enumerate() {
        let backend_key = request.backend.as_ref().map(Backend::label).unwrap_or_default();
        match index.get(&(request.graph.as_str(), backend_key.clone())) {
            Some(&slot) => order[slot].members.push(i),
            None => {
                index.insert((&request.graph, backend_key), order.len());
                order.push(Group::single(requests, i));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_keys_on_graph_and_backend_override() {
        let requests = vec![
            QueryRequest::new("a", Query::TotalTriangles),
            QueryRequest::new("b", Query::TotalTriangles),
            QueryRequest::new("a", Query::PerVertexTriangles),
            QueryRequest::new("a", Query::TotalTriangles).with_backend(Backend::CpuMerge),
            QueryRequest::new("b", Query::EdgeSupport),
        ];
        let groups = group_requests(&requests);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].members, vec![0, 2]);
        assert_eq!(groups[1].members, vec![1, 4]);
        assert_eq!(groups[2].members, vec![3], "an explicit backend splits the group");
    }
}
