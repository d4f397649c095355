//! Repository-level end-to-end tests of the multi-array scheduler: the
//! acceptance criteria of the `tcim-sched` subsystem, checked through
//! the public `TcimAccelerator` API against the software baselines.

use tcim_repro::graph::generators::{barabasi_albert, classic, gnm};
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledRun};
use tcim_repro::tcim::{baseline, TcimAccelerator, TcimConfig};

fn accelerator() -> TcimAccelerator {
    TcimAccelerator::new(&TcimConfig::default()).unwrap()
}

/// For every policy and array count in {1, 2, 4, 8, 16}: scheduled ==
/// serial == software baseline.
#[test]
fn scheduled_serial_and_software_counts_agree_everywhere() {
    let acc = accelerator();
    let graphs = vec![
        classic::fig2_example(),
        classic::complete(25),
        gnm(300, 2200, 9).unwrap(),
        barabasi_albert(300, 5, 4).unwrap(),
    ];
    for g in graphs {
        let software = baseline::edge_iterator_merge(&g);
        let serial = acc.count_triangles(&g).triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: None };
                let scheduled = acc.count_triangles_scheduled(&g, &policy).unwrap();
                assert_eq!(scheduled.triangles, software, "{placement} x{arrays} on {g:?}");
            }
        }
    }
}

/// On a skewed (Barabási–Albert) graph the load-balanced policy's
/// critical path never exceeds round-robin's, at any width.
#[test]
fn load_balancing_never_loses_to_round_robin_on_skewed_graphs() {
    let acc = accelerator();
    for seed in [1u64, 7, 23] {
        let g = barabasi_albert(500, 7, seed).unwrap();
        for arrays in [1usize, 2, 4, 8, 16] {
            let rr = acc
                .count_triangles_scheduled(
                    &g,
                    &SchedPolicy::with_arrays(arrays).placement(PlacementPolicy::RoundRobin),
                )
                .unwrap();
            let lpt = acc
                .count_triangles_scheduled(
                    &g,
                    &SchedPolicy::with_arrays(arrays).placement(PlacementPolicy::LoadBalanced),
                )
                .unwrap();
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
    let acc = accelerator();
    let g = barabasi_albert(800, 8, 5).unwrap();
    let expected = baseline::edge_iterator_merge(&g);
    let mut previous = f64::INFINITY;
    for arrays in [1usize, 2, 4, 8, 16] {
        let report =
            acc.count_triangles_scheduled(&g, &SchedPolicy::with_arrays(arrays)).unwrap();
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
    let acc = accelerator();
    let graphs = [classic::wheel(40), gnm(200, 1200, 3).unwrap(), classic::complete(15)];
    for g in &graphs {
        let matrix = acc.compress(g);
        let run =
            ScheduledRun::plan(acc.engine(), &matrix, &SchedPolicy::with_arrays(4)).unwrap();
        let (first, second) = (run.execute(), run.execute());
        assert_eq!(first.triangles, baseline::edge_iterator_merge(g));
        assert_eq!(first.triangles, second.triangles, "execution must be deterministic");
        assert_eq!(first.stats, second.stats);
    }
}
