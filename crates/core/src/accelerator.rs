//! End-to-end checks of the simulated accelerator, driven through the
//! pipeline: exact counts across graph families and orientations,
//! consistent statistics, prepared-artifact reuse, per-vertex counts,
//! and the scheduled runtime's agreement and placement quality.

#[cfg(test)]
mod tests {
    use tcim_bitmatrix::SlicedMatrix;
    use tcim_graph::generators::{barabasi_albert, classic, gnm, road_grid};
    use tcim_graph::{CsrGraph, Orientation};
    use tcim_sched::{PlacementPolicy, SchedPolicy, ScheduledReport};

    use crate::backend::{Backend, BackendDetail};
    use crate::baseline;
    use crate::pipeline::{TcimConfig, TcimPipeline};
    use crate::query::Query;

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    fn scheduled(p: &TcimPipeline, g: &CsrGraph, policy: &SchedPolicy) -> ScheduledReport {
        let report = p.count(g, &Backend::ScheduledPim(policy.clone())).unwrap();
        let BackendDetail::ScheduledPim(sched) = report.detail else {
            unreachable!("the scheduled PIM backend always returns a scheduled detail")
        };
        *sched
    }

    #[test]
    fn counts_match_baselines_across_graph_families() {
        let p = pipeline();
        let graphs = vec![
            classic::fig2_example(),
            classic::complete(25),
            classic::wheel(30),
            gnm(400, 3000, 3).unwrap(),
            road_grid(20, 20, 0.9, 0.3, 5).unwrap(),
        ];
        for g in graphs {
            let expected = baseline::edge_iterator_merge(&g);
            let report = p.count(&g, &Backend::SerialPim).unwrap();
            assert_eq!(report.triangles, expected, "graph {g:?}");
        }
    }

    #[test]
    fn orientation_does_not_change_the_count() {
        let g = gnm(300, 2200, 11).unwrap();
        let natural = pipeline().count(&g, &Backend::SerialPim).unwrap().triangles;
        let config = TcimConfig { orientation: Orientation::Degree, ..TcimConfig::default() };
        let degree = TcimPipeline::new(&config)
            .unwrap()
            .count(&g, &Backend::SerialPim)
            .unwrap()
            .triangles;
        assert_eq!(natural, degree);
    }

    #[test]
    fn report_carries_consistent_statistics() {
        let g = gnm(200, 1500, 2).unwrap();
        let p = pipeline();
        let prepared = p.prepare(&g);
        let report = p.execute(&prepared, &Backend::SerialPim).unwrap();
        let stats = report.stats.unwrap();
        assert_eq!(stats.edges as usize, g.edge_count());
        assert_eq!(stats.and_ops, stats.bitcount_ops);
        assert!(prepared.slice_stats().nnz as usize == g.edge_count());
        assert!(report.modelled_time_s.unwrap() > 0.0);
    }

    #[test]
    fn repeated_counts_hit_the_pipeline_cache() {
        let g = gnm(150, 1000, 6).unwrap();
        let p = pipeline();
        let first = p.count(&g, &Backend::SerialPim).unwrap();
        let misses = p.cache().misses();
        let second = p.count(&g, &Backend::SerialPim).unwrap();
        assert_eq!(first.triangles, second.triangles);
        assert_eq!(first.stats, second.stats);
        // The second run prepared nothing new.
        assert_eq!(p.cache().misses(), misses);
        assert!(p.cache().hits() >= 1);
    }

    #[test]
    fn local_counts_match_baseline_under_every_orientation() {
        let g = gnm(250, 1800, 4).unwrap();
        let expected = baseline::local_triangles(&g);
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            let p = TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() })
                .unwrap();
            let prepared = p.prepare(&g);
            let report =
                p.query(&prepared, &Backend::SerialPim, &Query::PerVertexTriangles).unwrap();
            let per_vertex = report.value.per_vertex().unwrap();
            assert_eq!(per_vertex, expected, "{orientation:?}");
            assert_eq!(
                per_vertex.iter().sum::<u64>(),
                3 * report.triangles,
                "{orientation:?}"
            );
        }
    }

    #[test]
    fn scheduled_counts_match_serial_and_software_baseline() {
        let p = pipeline();
        let g = barabasi_albert(400, 6, 3).unwrap();
        let software = baseline::edge_iterator_merge(&g);
        let serial = p.count(&g, &Backend::SerialPim).unwrap().triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: Some(2) };
                let report = scheduled(&p, &g, &policy);
                assert_eq!(report.triangles, software, "{placement} x{arrays}");
                assert_eq!(report.arrays(), arrays);
                assert!(report.imbalance >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn load_balanced_critical_path_beats_round_robin_on_skewed_graphs() {
        let p = pipeline();
        // Preferential attachment: heavy-tailed degree distribution, the
        // adversarial case for reuse-blind dealing.
        for seed in [3u64, 11] {
            let g = barabasi_albert(600, 8, seed).unwrap();
            for arrays in [2usize, 4, 8, 16] {
                let policy = |placement| SchedPolicy::with_arrays(arrays).placement(placement);
                let rr = scheduled(&p, &g, &policy(PlacementPolicy::RoundRobin));
                let lpt = scheduled(&p, &g, &policy(PlacementPolicy::LoadBalanced));
                assert_eq!(rr.triangles, lpt.triangles);
                assert!(
                    lpt.critical_path_s <= rr.critical_path_s + 1e-18,
                    "seed {seed}, {arrays} arrays: LPT {} vs RR {}",
                    lpt.critical_path_s,
                    rr.critical_path_s
                );
            }
        }
    }

    /// A matrix compressed outside the pipeline counts exactly like the
    /// pipeline's prepared artifact.
    #[test]
    fn compress_then_count_matches_direct_path() {
        let g = gnm(150, 900, 8).unwrap();
        let p = pipeline();
        let config = p.config();
        let direct = p.count(&g, &Backend::SerialPim).unwrap();
        let matrix = SlicedMatrix::from_adjacency_with(
            config.orientation.orient(&g).rows(),
            config.pim.slice_size,
            config.encoding,
        )
        .unwrap();
        let reused = p.engine().run(&matrix);
        assert_eq!(direct.triangles, reused.triangles);
        assert_eq!(direct.stats, Some(reused.stats));
    }
}
