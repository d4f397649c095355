//! Ablation: slice-to-array placement policy × array count.
//!
//! Compares the three `tcim-sched` placement policies across array
//! counts {1, 2, 4, 8, 16} on a skewed (Barabási–Albert) and a uniform
//! (road-grid) graph, reporting critical-path latency, load imbalance,
//! array speedup and column-slice hit rate. The headline effect: on
//! skewed degree distributions round-robin dealing leaves the heavy
//! rows stacked on few arrays, while LPT placement keeps the critical
//! path near `serial / arrays`.

use tcim_core::{
    Backend, BackendDetail, PlacementPolicy, SchedPolicy, TcimConfig, TcimPipeline,
};
use tcim_graph::generators::{barabasi_albert, road_grid};
use tcim_graph::CsrGraph;

fn report_graph(
    pipeline: &TcimPipeline,
    name: &str,
    g: &CsrGraph,
) -> Result<(), Box<dyn std::error::Error>> {
    let prepared = pipeline.prepare(g);
    let serial = pipeline.execute(&prepared, &Backend::SerialPim)?;
    println!(
        "\n== {name}: |V| = {}, |E| = {}, {} triangles, serial {:.3e} s ==",
        g.vertex_count(),
        g.edge_count(),
        serial.triangles,
        serial.modelled_time_s.unwrap(),
    );
    println!(
        "{:>14} {:>7} {:>14} {:>10} {:>9} {:>8}",
        "placement", "arrays", "crit path (s)", "imbalance", "speedup", "hit %"
    );
    for placement in PlacementPolicy::ALL {
        for arrays in [1usize, 2, 4, 8, 16] {
            let policy = SchedPolicy { arrays, placement, host_threads: None };
            let report = pipeline.execute(&prepared, &Backend::ScheduledPim(policy))?;
            let BackendDetail::ScheduledPim(r) = report.detail else {
                unreachable!("the scheduled backend returns a scheduled detail")
            };
            assert_eq!(r.triangles, serial.triangles, "scheduling must not change counts");
            println!(
                "{:>14} {:>7} {:>14.3e} {:>10.3} {:>9.2} {:>8.1}",
                placement.to_string(),
                arrays,
                r.critical_path_s,
                r.imbalance,
                r.array_speedup(),
                100.0 * r.stats.hit_rate(),
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = tcim_bench::scale_from_env();
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;

    let n = ((4000.0 * scale.scale) / 0.05).max(200.0) as usize;
    let skewed = barabasi_albert(n, 8, scale.seed)?;
    report_graph(&pipeline, "barabasi-albert (skewed)", &skewed)?;

    let side = ((30.0 * (scale.scale / 0.05).sqrt()).max(10.0)) as usize;
    let uniform = road_grid(side, side, 0.9, 0.3, scale.seed)?;
    report_graph(&pipeline, "road grid (uniform)", &uniform)?;
    Ok(())
}
