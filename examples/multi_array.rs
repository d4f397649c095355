//! Multi-array scheduling: place a skewed graph's rows onto independent
//! computational arrays, compare placement policies, and batch several
//! graphs through the runtime.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_array
//! ```

use tcim_repro::graph::generators::{barabasi_albert, road_grid};
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledReport, ScheduledRun};
use tcim_repro::tcim::{
    baseline, Backend, BackendDetail, CoreError, TcimConfig, TcimPipeline,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;

    // --- Part 1: one skewed graph, three placement policies ----------
    let graph = barabasi_albert(3000, 8, 7)?;
    let expected = baseline::edge_iterator_merge(&graph);
    println!(
        "== Barabási–Albert graph: |V| = {}, |E| = {}, {} triangles ==",
        graph.vertex_count(),
        graph.edge_count(),
        expected
    );
    let prepared = pipeline.prepare(&graph);
    // The scheduled backend's full multi-array report.
    let scheduled = |policy: SchedPolicy| -> Result<ScheduledReport, CoreError> {
        let run = pipeline.execute(&prepared, &Backend::ScheduledPim(policy))?;
        let BackendDetail::ScheduledPim(report) = run.detail else {
            unreachable!("the scheduled backend returns a scheduled detail")
        };
        Ok(*report)
    };

    for placement in PlacementPolicy::ALL {
        let policy = SchedPolicy::with_arrays(8).placement(placement);
        let report = scheduled(policy)?;
        assert_eq!(report.triangles, expected, "scheduling never changes counts");
        println!(
            "  {placement:>13} x8: critical path {:.3e} s, imbalance {:.3}, \
             array speedup {:.2}x, hit rate {:.1}%",
            report.critical_path_s,
            report.imbalance,
            report.array_speedup(),
            100.0 * report.stats.hit_rate(),
        );
    }

    // --- Part 2: per-array utilization under the default policy ------
    let report = scheduled(SchedPolicy::with_arrays(8))?;
    println!("\n== per-array utilization (load-balanced, 8 arrays) ==");
    for array in &report.per_array {
        println!(
            "  array {}: {:>4} rows, busy {:.3e} s, utilization {:>5.1}%, {}",
            array.array,
            array.rows,
            array.busy_s,
            100.0 * array.utilization,
            array.stats,
        );
    }

    // --- Part 3: a batch of independent jobs --------------------------
    println!("\n== batch: three graphs, one planned run each ==");
    let jobs = [
        pipeline.prepare(&barabasi_albert(1500, 6, 1)?),
        pipeline.prepare(&road_grid(25, 25, 0.9, 0.3, 2)?),
        pipeline.prepare(&barabasi_albert(800, 4, 3)?),
    ];
    let policy = SchedPolicy::with_arrays(4);
    for (i, prepared) in jobs.iter().enumerate() {
        let job = ScheduledRun::plan(pipeline.engine(), prepared.matrix(), &policy)?.execute();
        println!(
            "  job {i}: {} triangles, critical path {:.3e} s, imbalance {:.3}",
            job.triangles, job.critical_path_s, job.imbalance
        );
    }
    Ok(())
}
