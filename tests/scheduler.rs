//! Repository-level end-to-end tests of the multi-array scheduler: the
//! acceptance criteria of the `tcim-sched` subsystem, checked through
//! the public `TcimPipeline` API against the software baselines.

use tcim_repro::arch::{Attribution, TriangleTally};
use tcim_repro::graph::generators::{barabasi_albert, classic, gnm};
use tcim_repro::graph::CsrGraph;
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledReport, ScheduledRun};
use tcim_repro::tcim::{baseline, Backend, BackendDetail, TcimConfig, TcimPipeline};

fn pipeline() -> TcimPipeline {
    TcimPipeline::new(&TcimConfig::default()).unwrap()
}

/// The scheduled backend's full report for `g` under `policy`.
fn scheduled(p: &TcimPipeline, g: &CsrGraph, policy: SchedPolicy) -> ScheduledReport {
    let BackendDetail::ScheduledPim(report) =
        p.count(g, &Backend::ScheduledPim(policy)).unwrap().detail
    else {
        unreachable!("the scheduled backend returns a scheduled detail")
    };
    *report
}

/// For every policy and array count in {1, 2, 4, 8, 16}: scheduled ==
/// serial == software baseline.
#[test]
fn scheduled_serial_and_software_counts_agree_everywhere() {
    let p = pipeline();
    let graphs = vec![
        classic::fig2_example(),
        classic::complete(25),
        gnm(300, 2200, 9).unwrap(),
        barabasi_albert(300, 5, 4).unwrap(),
    ];
    for g in graphs {
        let software = baseline::edge_iterator_merge(&g);
        let serial = p.count(&g, &Backend::SerialPim).unwrap().triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: None };
                let report = scheduled(&p, &g, policy);
                assert_eq!(report.triangles, software, "{placement} x{arrays} on {g:?}");
            }
        }
    }
}

/// On a skewed (Barabási–Albert) graph the load-balanced policy's
/// critical path never exceeds round-robin's, at any width.
#[test]
fn load_balancing_never_loses_to_round_robin_on_skewed_graphs() {
    let p = pipeline();
    for seed in [1u64, 7, 23] {
        let g = barabasi_albert(500, 7, seed).unwrap();
        for arrays in [1usize, 2, 4, 8, 16] {
            let policy = |placement| SchedPolicy::with_arrays(arrays).placement(placement);
            let rr = scheduled(&p, &g, policy(PlacementPolicy::RoundRobin));
            let lpt = scheduled(&p, &g, policy(PlacementPolicy::LoadBalanced));
            assert!(
                lpt.critical_path_s <= rr.critical_path_s + 1e-18,
                "seed {seed} x{arrays}: LPT {} vs RR {}",
                lpt.critical_path_s,
                rr.critical_path_s
            );
            assert!(lpt.imbalance <= rr.imbalance + 1e-12);
        }
    }
}

/// More arrays shorten the modelled critical path (the parallelism the
/// scheduler exists to expose) while counts stay fixed.
#[test]
fn wider_schedules_shorten_the_critical_path() {
    let p = pipeline();
    let g = barabasi_albert(800, 8, 5).unwrap();
    let expected = baseline::edge_iterator_merge(&g);
    let mut previous = f64::INFINITY;
    for arrays in [1usize, 2, 4, 8, 16] {
        let report = scheduled(&p, &g, SchedPolicy::with_arrays(arrays));
        assert_eq!(report.triangles, expected);
        assert!(
            report.critical_path_s <= previous + 1e-18,
            "{arrays} arrays: {} after {previous}",
            report.critical_path_s
        );
        previous = report.critical_path_s;
    }
}

/// Planned runs over independent graphs are exact and deterministic:
/// executing one plan twice repeats every count and statistic.
#[test]
fn scheduled_runs_are_deterministic_end_to_end() {
    let p = pipeline();
    let graphs = [classic::wheel(40), gnm(200, 1200, 3).unwrap(), classic::complete(15)];
    for g in &graphs {
        let prepared = p.prepare(g);
        let run =
            ScheduledRun::plan(p.engine(), prepared.matrix(), &SchedPolicy::with_arrays(4))
                .unwrap();
        let (first, second) = (run.execute(), run.execute());
        assert_eq!(first.triangles, baseline::edge_iterator_merge(g));
        assert_eq!(first.triangles, second.triangles, "execution must be deterministic");
        assert_eq!(first.stats, second.stats);
    }
}

/// The plan a prepared artifact memoizes executes exactly like a fresh
/// `plan_with_costs(..).execute_into`: every per-array statistic, the
/// critical-path and energy bits, per-vertex counts and support, for
/// every placement, array count and attribution level.
#[test]
fn the_memoized_plan_matches_a_fresh_plan() {
    let p = pipeline();
    let prepared = p.prepare(&barabasi_albert(400, 6, 11).unwrap());
    let costs = p.engine().cost_model();
    for placement in PlacementPolicy::ALL {
        for arrays in [1usize, 2, 4, 8] {
            let policy = SchedPolicy::with_arrays(arrays).placement(placement);
            let backend = p.backend(&Backend::ScheduledPim(policy.clone()));
            for attribution in
                [Attribution::Count, Attribution::PerVertex, Attribution::PerVertexWithSupport]
            {
                let ctx = format!("{placement} x{arrays} {attribution:?}");
                let memoized = backend.run(&prepared, attribution).unwrap();
                let BackendDetail::ScheduledPim(report) = &memoized.detail else {
                    unreachable!("the scheduled backend returns a scheduled detail")
                };
                let fresh = ScheduledRun::plan_with_costs(
                    p.engine(),
                    prepared.matrix(),
                    &policy,
                    costs,
                )
                .unwrap();
                let mut tally =
                    attribution.tally(prepared.matrix().dim(), || prepared.arc_index());
                let want = fresh.execute_into(tally.as_mut());
                assert_eq!(report.triangles, want.triangles, "{ctx}");
                let stats = |r: &ScheduledReport| -> Vec<_> {
                    r.per_array.iter().map(|a| (a.rows, a.stats, a.busy_s.to_bits())).collect()
                };
                assert_eq!(stats(report), stats(&want), "{ctx}");
                assert_eq!(report.critical_path_s.to_bits(), want.critical_path_s.to_bits());
                assert_eq!(report.total_energy_j.to_bits(), want.total_energy_j.to_bits());
                let (per_vertex, support) = match tally.map(TriangleTally::into_parts) {
                    Some((_, per_vertex, support)) => (Some(per_vertex), support),
                    None => (None, None),
                };
                assert_eq!(memoized.per_vertex, per_vertex, "{ctx}");
                assert_eq!(memoized.support, support, "{ctx}");
            }
        }
    }
    // One plan per placement × array count, whatever the level.
    assert_eq!(prepared.schedule_plans_built(), PlacementPolicy::ALL.len() * 4);
}
