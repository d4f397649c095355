//! Batched attributed dispatch: answer many compatible queries from
//! one execution.
//!
//! Every classic [`Query`] shape is a projection of the same underlying
//! triangle quantities — the global count, the per-vertex
//! participation vector, undirected degrees, and the per-edge support
//! list — and each needs an execution at its
//! [`attribution`](Query::attribution) level. A *batch* of queries
//! against one prepared artifact therefore never needs one kernel sweep
//! per member: a single **carrier** execution at the highest member
//! level reads out every quantity any member needs, and its report fans
//! out into each member's [`QueryReport`] through the shared shaping
//! path ([`crate::query::shape_value`]).
//!
//! Because the quantities are exact integers (degrees are re-read from
//! the prepared DAG exactly as the unbatched path reads them), every
//! shaped value is **bit-identical** to what a one-at-a-time execution
//! of the same member would have produced — floating-point clustering
//! coefficients included, since they are computed from the same integer
//! inputs by the same expressions.
//!
//! **Motif queries** are not projections of those quantities, so they
//! form their own coalescing classes alongside the classic carrier:
//! all [`Query::KTruss`] members share one decomposition run (the
//! value carries *every* edge's trussness, so members differing only
//! in `k` re-filter without re-peeling) and all [`Query::FourCliques`]
//! members share one chained-AND run. A mixed batch therefore performs
//! one execution per non-empty class — still far fewer than one per
//! member — and `carrier` reports the classic class's carrier level.

use tcim_arch::Attribution;
use tcim_sched::SchedPolicy;

use crate::backend::Backend;
use crate::error::Result;
use crate::motifs::{self, MotifFlavor, MotifPricing};
use crate::pipeline::{PreparedGraph, TcimPipeline};
use crate::query::{shape, Query, QueryReport, QueryValue};

/// The outcome of answering a batch of queries through one carrier
/// execution: per-member reports (in input order) plus the execution
/// accounting that proves the coalescing happened.
#[derive(Debug)]
pub struct CoalescedOutcome {
    /// One report per input query, in input order. Individual members
    /// can fail shaping (an out-of-bounds local-clustering vertex)
    /// without failing their batch-mates.
    pub reports: Vec<Result<QueryReport>>,
    /// Executions actually performed: one per non-empty coalescing
    /// class (classic carrier, k-truss decomposition, 4-clique run),
    /// `0` for an empty batch. The saving is
    /// `queries answered − executions`.
    pub executions: u64,
    /// The level the *classic* class's carrier ran at — the highest
    /// member [`Query::attribution`] — when one ran (`None` for empty or
    /// motif-only batches).
    pub carrier: Option<Attribution>,
}

impl TcimPipeline {
    /// Answers every query in `queries` over one prepared artifact on
    /// one backend with a **single** carrier execution, fanning the
    /// carrier's attribution out into per-member reports. This is the
    /// one query path: [`TcimPipeline::query`] is a batch of one.
    ///
    /// Each member's report carries the carrier's execution envelope
    /// (backend label, kernel accounting, modelled cost, wall time) —
    /// the members shared that one run — with the member's own query
    /// and its bit-identical shaped value. Pipeline execution metrics
    /// record one execution, because one happened.
    ///
    /// # Errors
    ///
    /// Propagates carrier execution failures. Per-member *shaping*
    /// failures (invalid query parameters) are returned in that
    /// member's slot without failing the batch.
    pub fn query_coalesced(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
        queries: &[Query],
    ) -> Result<CoalescedOutcome> {
        let mut slots: Vec<Option<Result<QueryReport>>> =
            queries.iter().map(|_| None).collect();
        let mut executions = 0u64;

        // The k-truss class: one decomposition answers every member —
        // the value carries the full trussness map, so members that
        // only differ in `k` re-filter the same edges.
        let ktruss: Vec<usize> = (0..queries.len())
            .filter(|&i| matches!(queries[i], Query::KTruss { .. }))
            .collect();
        if let Some(&first) = ktruss.first() {
            executions += 1;
            let base = self.motif(prepared, spec, &queries[first])?;
            share(&mut slots, queries, &ktruss, base);
        }

        // The 4-clique class: members are identical; run once, share.
        let cliques: Vec<usize> =
            (0..queries.len()).filter(|&i| matches!(queries[i], Query::FourCliques)).collect();
        if let Some(&first) = cliques.first() {
            executions += 1;
            let base = self.motif(prepared, spec, &queries[first])?;
            share(&mut slots, queries, &cliques, base);
        }

        // The classic class: one carrier execution at the highest member
        // level, shaped member by member.
        let (positions, classic): (Vec<usize>, Vec<Query>) =
            queries.iter().cloned().enumerate().filter(|(_, q)| !q.is_motif()).unzip();
        let carrier = classic.iter().map(Query::attribution).max();
        if let Some(level) = carrier {
            executions += 1;
            let run = self.backend(spec).run(prepared, level)?;
            // The member the carrier level came from labels the sample.
            let labelled = classic.iter().find(|q| q.attribution() == level);
            self.record(prepared, spec, labelled, &run, run.modelled_time_s);
            let values = shape(&classic, prepared, &run);
            for ((i, query), value) in positions.into_iter().zip(&classic).zip(values) {
                slots[i] =
                    Some(value.map(|value| QueryReport::of_run(query, value, prepared, &run)));
            }
        }

        let reports = slots
            .into_iter()
            .map(|slot| slot.expect("every member belongs to exactly one class"))
            .collect();
        Ok(CoalescedOutcome { reports, executions, carrier })
    }

    /// Answers one motif query: the anchoring run at the query's
    /// [`attribution`](Query::attribution) level, handed to the motif
    /// engine ([`crate::motifs`]), which peels or chains further kernels
    /// without re-slicing. Records one execution with the report's full
    /// accounting; its calibration observation scores the prediction
    /// against the anchor run's modelled time, the part the count-level
    /// prediction prices.
    fn motif(
        &self,
        prepared: &PreparedGraph,
        spec: &Backend,
        query: &Query,
    ) -> Result<QueryReport> {
        let backend = self.backend(spec);
        let anchor_span = tcim_telemetry::span("motif.anchor");
        let anchor = backend.run(prepared, query.attribution())?;
        drop(anchor_span);
        let anchor_modelled_s = anchor.modelled_time_s;
        // The CPU baselines intersect sorted adjacency lists (zero slice
        // pairs, as in their triangle runs); every other backend runs
        // sliced kernels. The simulated-hardware backends price each
        // peel pass or chained-AND wave as a round of delta jobs, placed
        // under the policy their triangle kernels run under.
        let priced = |sched| Some(MotifPricing::new(self.engine().cost_model(), sched));
        let (flavor, pricing) = match spec {
            Backend::CpuMerge | Backend::CpuForward => (MotifFlavor::Adjacency, None),
            Backend::Software(_) => (MotifFlavor::Sliced, None),
            Backend::SerialPim => (MotifFlavor::Sliced, priced(SchedPolicy::with_arrays(1))),
            Backend::ScheduledPim(policy) => (MotifFlavor::Sliced, priced(policy.clone())),
            Backend::Sharded(policy) => (MotifFlavor::Sliced, priced(policy.inner.clone())),
        };
        let report = match query {
            // The k-truss peel seeds from the anchor run's edge supports.
            Query::KTruss { k } => {
                motifs::ktruss_report(prepared, query, anchor, flavor, pricing, *k)
            }
            // The 4-clique witness pass re-derives the triangle census
            // as a built-in cross-check against the anchor run.
            Query::FourCliques => {
                motifs::four_clique_report(prepared, query, anchor, flavor, pricing)
            }
            _ => unreachable!("only the motif classes run the motif engine"),
        }?;
        self.record(prepared, spec, Some(query), &report, anchor_modelled_s);
        Ok(report)
    }
}

/// Hands one motif run's report to every member at `members`, each
/// under its own query (a k-truss member also under its own `k`).
/// `repeat_n` clones the report for every member but the last, which
/// takes it by move, so a group of one copies nothing.
fn share(
    slots: &mut [Option<Result<QueryReport>>],
    queries: &[Query],
    members: &[usize],
    base: QueryReport,
) {
    for (&i, mut report) in members.iter().zip(std::iter::repeat_n(base, members.len())) {
        if let (Query::KTruss { k }, QueryValue::KTruss { k: level, .. }) =
            (&queries[i], &mut report.value)
        {
            *level = *k;
        }
        report.query = queries[i].clone();
        slots[i] = Some(Ok(report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TcimConfig;
    use tcim_graph::generators::{barabasi_albert, classic, rmat, RmatParams};

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    /// The carrier runs at the highest member level: the weakest
    /// execution that reads out everything any member needs.
    #[test]
    fn carrier_ladder_picks_the_weakest_sufficient_shape() {
        let p = pipeline();
        let prepared = p.prepare(&classic::wheel(9));
        let carrier = |batch: &[Query]| {
            let outcome = p.query_coalesced(&prepared, &Backend::SerialPim, batch).unwrap();
            assert_eq!(outcome.executions, 1);
            outcome.carrier
        };
        assert_eq!(carrier(&[Query::TotalTriangles]), Some(Attribution::Count));
        assert_eq!(
            carrier(&[Query::TotalTriangles, Query::GlobalClustering]),
            Some(Attribution::Count)
        );
        assert_eq!(
            carrier(&[Query::TotalTriangles, Query::TopKVertices { k: 2 }]),
            Some(Attribution::PerVertex)
        );
        assert_eq!(
            carrier(&[Query::PerVertexTriangles, Query::EdgeSupport]),
            Some(Attribution::PerVertexWithSupport)
        );
    }

    #[test]
    fn coalesced_reports_are_bit_identical_to_one_at_a_time() {
        let p = pipeline();
        let g = barabasi_albert(160, 4, 11).unwrap();
        let prepared = p.prepare(&g);
        let suite = Query::example_suite();
        for backend in [Backend::SerialPim, Backend::CpuMerge, Backend::CpuForward] {
            let outcome = p.query_coalesced(&prepared, &backend, &suite).unwrap();
            assert_eq!(outcome.executions, 1);
            assert_eq!(outcome.carrier, Some(Attribution::PerVertexWithSupport));
            for (query, coalesced) in suite.iter().zip(&outcome.reports) {
                let coalesced = coalesced.as_ref().unwrap();
                let solo = p.query(&prepared, &backend, query).unwrap();
                assert_eq!(coalesced.value, solo.value, "{backend:?} {query}");
                assert_eq!(coalesced.triangles, solo.triangles);
                assert_eq!(&coalesced.query, query);
            }
        }
    }

    #[test]
    fn count_only_batches_never_pay_for_attribution() {
        let p = pipeline();
        let prepared = p.prepare(&classic::complete(6));
        let outcome = p
            .query_coalesced(
                &prepared,
                &Backend::SerialPim,
                &[Query::TotalTriangles, Query::TotalTriangles],
            )
            .unwrap();
        assert_eq!(outcome.carrier, Some(Attribution::Count));
        for report in &outcome.reports {
            assert_eq!(report.as_ref().unwrap().kernel.result_readouts, 0);
            assert_eq!(report.as_ref().unwrap().triangles, 20);
        }
    }

    #[test]
    fn member_failures_do_not_poison_batch_mates() {
        let p = pipeline();
        let prepared = p.prepare(&classic::fig2_example());
        let outcome = p
            .query_coalesced(
                &prepared,
                &Backend::SerialPim,
                &[Query::LocalClustering { vertices: Some(vec![999]) }, Query::TotalTriangles],
            )
            .unwrap();
        assert!(outcome.reports[0].is_err());
        assert_eq!(outcome.reports[1].as_ref().unwrap().triangles, 2);
    }

    #[test]
    fn empty_batches_execute_nothing() {
        let p = pipeline();
        let prepared = p.prepare(&classic::fig2_example());
        let outcome = p.query_coalesced(&prepared, &Backend::SerialPim, &[]).unwrap();
        assert_eq!(outcome.executions, 0);
        assert!(outcome.reports.is_empty());
        assert!(outcome.carrier.is_none());
    }

    /// The k-truss class shares one decomposition across members that
    /// differ only in `k`, and a mixed batch pays one execution per
    /// non-empty class while staying bit-identical to solo serving.
    #[test]
    fn motif_classes_coalesce_without_changing_answers() {
        let p = pipeline();
        let g = barabasi_albert(120, 5, 3).unwrap();
        let prepared = p.prepare(&g);
        let batch = vec![
            Query::KTruss { k: 3 },
            Query::TotalTriangles,
            Query::FourCliques,
            Query::KTruss { k: 4 },
            Query::EdgeSupport,
        ];
        let outcome = p.query_coalesced(&prepared, &Backend::SerialPim, &batch).unwrap();
        // Three classes ran: classic carrier, k-truss, 4-clique.
        assert_eq!(outcome.executions, 3);
        assert_eq!(outcome.carrier, Some(Attribution::PerVertexWithSupport));
        for (query, coalesced) in batch.iter().zip(&outcome.reports) {
            let coalesced = coalesced.as_ref().unwrap();
            let solo = p.query(&prepared, &Backend::SerialPim, query).unwrap();
            assert_eq!(coalesced.value, solo.value, "{query}");
            assert_eq!(&coalesced.query, query);
        }
        // Both k-truss members carry the same full decomposition with
        // their own k.
        let (t3, t4) =
            (outcome.reports[0].as_ref().unwrap(), outcome.reports[3].as_ref().unwrap());
        assert_eq!(t3.value.trussness(), t4.value.trussness());
        assert!(
            t3.value.truss_members().unwrap().len() >= t4.value.truss_members().unwrap().len()
        );
    }

    #[test]
    fn motif_only_batches_have_no_classic_carrier() {
        let p = pipeline();
        let prepared = p.prepare(&classic::wheel(10));
        let outcome = p
            .query_coalesced(
                &prepared,
                &Backend::CpuMerge,
                &[Query::KTruss { k: 3 }, Query::KTruss { k: 4 }],
            )
            .unwrap();
        assert_eq!(outcome.executions, 1);
        assert!(outcome.carrier.is_none());
        assert!(outcome.reports.iter().all(|r| r.is_ok()));
    }

    /// A motif query's calibration observation scores the count-level
    /// prediction against its anchor run, which is the classic run at
    /// the query's attribution level: a k-truss query observes what
    /// `EdgeSupport` does, and a 4-clique query what
    /// `PerVertexTriangles` does, although both report more modelled
    /// time. Each query runs on a pipeline of its own.
    #[test]
    fn motif_calibration_scores_the_anchor_run() {
        let g = rmat(10, 6000, RmatParams::default(), 7).unwrap();
        let observe = |query: Query| {
            let p = pipeline();
            let prepared = p.prepare(&g);
            let report = p.query(&prepared, &Backend::SerialPim, &query).unwrap();
            let snapshot = p.metrics_snapshot();
            let errors = snapshot.histogram("tcim_model_error_permille").unwrap();
            assert_eq!(errors.count, 1, "{query}");
            (errors.sum, report.modelled_time_s.unwrap())
        };
        for (motif, classic) in [
            (Query::KTruss { k: 4 }, Query::EdgeSupport),
            (Query::FourCliques, Query::PerVertexTriangles),
        ] {
            let ((motif_error, motif_s), (classic_error, classic_s)) =
                (observe(motif.clone()), observe(classic));
            assert_eq!(motif_error, classic_error, "{motif}");
            assert!(motif_s > classic_s, "{motif}: the rounds add modelled time");
        }
    }

    /// A per-vertex member riding a support-level carrier reads the
    /// carrier's per-vertex tally and matches its solo answer.
    #[test]
    fn per_vertex_recovered_from_support_matches_attribution() {
        let p = pipeline();
        let g = classic::wheel(9);
        let prepared = p.prepare(&g);
        let outcome = p
            .query_coalesced(
                &prepared,
                &Backend::CpuForward,
                &[Query::EdgeSupport, Query::PerVertexTriangles],
            )
            .unwrap();
        let solo =
            p.query(&prepared, &Backend::CpuForward, &Query::PerVertexTriangles).unwrap();
        assert_eq!(outcome.reports[1].as_ref().unwrap().value, solo.value);
    }
}
