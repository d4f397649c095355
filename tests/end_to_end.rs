//! Cross-crate integration: every counting path in the repository must
//! agree on every graph family, end to end.

use tcim_repro::bitmatrix::popcount::PopcountMethod;
use tcim_repro::bitmatrix::{BitMatrix, SliceSize, SlicedMatrix};
use tcim_repro::graph::datasets::TABLE_II;
use tcim_repro::graph::generators::{
    barabasi_albert, classic, gnm, rmat, road_grid, watts_strogatz, RmatParams,
};
use tcim_repro::graph::{CsrGraph, Orientation};
use tcim_repro::tcim::software::sliced_count;
use tcim_repro::tcim::{baseline, Backend, Query, QueryValue, TcimConfig, TcimPipeline};

/// Counts with every implemented method and asserts unanimity.
fn assert_all_paths_agree(g: &CsrGraph, label: &str) -> u64 {
    let reference = baseline::edge_iterator_merge(g);
    assert_eq!(baseline::hash_intersect(g), reference, "{label}: hash");
    assert_eq!(baseline::forward(g), reference, "{label}: forward");
    assert_eq!(baseline::parallel_edge_iterator(g, 4), reference, "{label}: parallel");

    for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy] {
        let oriented = orientation.orient(g);
        let matrix = SlicedMatrix::from_adjacency(oriented.rows(), SliceSize::S64)
            .expect("oriented adjacency is in bounds");
        let run = sliced_count(&matrix, PopcountMethod::Lut8);
        assert_eq!(run.triangles, reference, "{label}: software {orientation:?}");
    }

    let pipeline =
        TcimPipeline::new(&TcimConfig::default()).expect("default config characterizes");
    let tcim = pipeline.count(g, &Backend::SerialPim).expect("pipeline artifacts match");
    assert_eq!(tcim.triangles, reference, "{label}: tcim");

    // Dense verification is only affordable on small graphs.
    if g.vertex_count() <= 400 {
        let edges: Vec<(usize, usize)> =
            g.edges().map(|(u, v)| (u as usize, v as usize)).collect();
        let dense = BitMatrix::from_edges(g.vertex_count(), &edges).expect("edges in bounds");
        assert_eq!(dense.triangle_count_trace(), reference, "{label}: trace(A^3)/6");
        assert_eq!(
            dense.triangle_count_bitwise().expect("square matrix"),
            reference,
            "{label}: eq5"
        );
    }
    reference
}

#[test]
fn closed_form_families() {
    assert_eq!(assert_all_paths_agree(&classic::fig2_example(), "fig2"), 2);
    assert_eq!(
        assert_all_paths_agree(&classic::complete(20), "k20"),
        classic::complete_triangles(20)
    );
    assert_eq!(assert_all_paths_agree(&classic::wheel(25), "w25"), 24);
    assert_eq!(assert_all_paths_agree(&classic::star(100), "star"), 0);
    assert_eq!(assert_all_paths_agree(&classic::cycle(30), "c30"), 0);
    assert_eq!(assert_all_paths_agree(&classic::complete_bipartite(8, 9), "k89"), 0);
}

#[test]
fn random_families() {
    assert_all_paths_agree(&gnm(300, 2500, 1).unwrap(), "gnm");
    assert_all_paths_agree(&barabasi_albert(400, 5, 2).unwrap(), "ba");
    assert_all_paths_agree(&rmat(9, 4000, RmatParams::default(), 3).unwrap(), "rmat");
    assert_all_paths_agree(&watts_strogatz(350, 6, 0.1, 4).unwrap(), "ws");
    assert_all_paths_agree(&road_grid(18, 18, 0.9, 0.3, 5).unwrap(), "road");
}

#[test]
fn dataset_stand_ins_count_consistently() {
    for d in &TABLE_II {
        let g = d.synthesize(0.003, 11).unwrap();
        assert_all_paths_agree(&g, d.name);
    }
}

#[test]
fn snap_io_roundtrip_preserves_triangles() {
    let g = barabasi_albert(300, 4, 9).unwrap();
    let before = baseline::forward(&g);
    let mut buf = Vec::new();
    tcim_repro::graph::io::write_snap_edges(&g, &mut buf).unwrap();
    let parsed = tcim_repro::graph::io::read_snap_edges(buf.as_slice()).unwrap();
    assert_eq!(baseline::forward(&parsed), before);
}

#[test]
fn transitivity_is_consistent_between_metrics_and_counts() {
    let g = watts_strogatz(500, 6, 0.05, 13).unwrap();
    let triangles = assert_all_paths_agree(&g, "ws-metrics");
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&g);
    let global = pipeline.query(&prepared, &Backend::SerialPim, &Query::GlobalClustering);
    let QueryValue::GlobalClustering { triangles: counted, transitivity: t, .. } =
        global.unwrap().value
    else {
        panic!("wrong value shape");
    };
    assert_eq!(counted, triangles);
    // A barely rewired k=6 ring lattice keeps transitivity near the
    // lattice value of 0.6.
    assert!(t > 0.3 && t < 0.7, "transitivity {t}");
    let local_sum: u64 = baseline::local_triangles(&g).iter().sum();
    assert_eq!(local_sum, 3 * triangles);
}
