//! Benchmarks of the CPU triangle-counting baselines (Table V's software
//! columns): framework-style hash intersect vs merge vs forward vs the
//! sliced software path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_bitmatrix::{SliceSize, SlicedMatrix};
use tcim_core::baseline;
use tcim_core::software::sliced_count;
use tcim_graph::generators::{barabasi_albert, road_grid};
use tcim_graph::{CsrGraph, Orientation};

fn workloads() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("social_ba_5k", barabasi_albert(5_000, 10, 1).unwrap()),
        ("road_50x50", road_grid(50, 50, 0.95, 0.03, 1).unwrap()),
    ]
}

fn bench_baselines(c: &mut Criterion) {
    for (name, g) in workloads() {
        let mut group = c.benchmark_group(format!("baselines/{name}"));
        group.sample_size(20);
        group.bench_function(BenchmarkId::from_parameter("hash_intersect"), |b| {
            b.iter(|| baseline::hash_intersect(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("edge_iterator_merge"), |b| {
            b.iter(|| baseline::edge_iterator_merge(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("forward"), |b| {
            b.iter(|| baseline::forward(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("parallel_x4"), |b| {
            b.iter(|| baseline::parallel_edge_iterator(black_box(&g), 4))
        });
        group.bench_function(BenchmarkId::from_parameter("sliced_software"), |b| {
            // Orient + slice + count: the whole software path.
            b.iter(|| {
                let oriented = Orientation::Natural.orient(black_box(&g));
                let matrix =
                    SlicedMatrix::from_adjacency(oriented.rows(), SliceSize::S64).unwrap();
                sliced_count(&matrix, PopcountMethod::Native).triangles
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
