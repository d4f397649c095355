//! Host-side cost of the multi-array runtime: serial engine vs
//! scheduled execution across array counts, plus the planning
//! (decompose + place) overhead on its own.
//!
//! These benchmarks time the *simulator* (host wall-clock), answering
//! "what does scheduling cost the harness", not the modelled accelerator
//! time — that is what `--bin ablation_placement` reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcim_core::{PlacementPolicy, SchedPolicy, TcimConfig, TcimPipeline};
use tcim_graph::generators::barabasi_albert;
use tcim_sched::ScheduledRun;

fn bench_serial_vs_scheduled(c: &mut Criterion) {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&barabasi_albert(2000, 8, 42).unwrap());
    let (engine, matrix) = (pipeline.engine(), prepared.matrix());

    let mut group = c.benchmark_group("scheduler/execute");
    group.sample_size(10);
    group.bench_function("serial_engine", |b| {
        b.iter(|| engine.run(black_box(matrix)).triangles)
    });
    for arrays in [2usize, 4, 8, 16] {
        let policy = SchedPolicy::with_arrays(arrays);
        let run = ScheduledRun::plan(engine, matrix, &policy).unwrap();
        group.bench_with_input(BenchmarkId::new("scheduled", arrays), &run, |b, run| {
            b.iter(|| black_box(run).execute().triangles)
        });
    }
    group.finish();
}

fn bench_planning(c: &mut Criterion) {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&barabasi_albert(2000, 8, 42).unwrap());
    let (engine, matrix) = (pipeline.engine(), prepared.matrix());

    let mut group = c.benchmark_group("scheduler/plan");
    group.sample_size(10);
    for placement in PlacementPolicy::ALL {
        let policy = SchedPolicy { arrays: 8, placement, host_threads: Some(1) };
        group.bench_with_input(
            BenchmarkId::from_parameter(placement),
            &policy,
            |b, policy| {
                b.iter(|| {
                    ScheduledRun::plan(engine, black_box(matrix), policy)
                        .unwrap()
                        .placement()
                        .est_imbalance()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serial_vs_scheduled, bench_planning);
criterion_main!(benches);
