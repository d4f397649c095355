//! Ablation: column-slice replacement policy (the paper uses LRU and
//! notes "more optimized replacement strategy could be possible").
//!
//! Sweeps buffer capacity × policy over a social and a road stand-in and
//! prints hit/exchange rates plus total WRITEs.

use tcim_arch::{PimConfig, ReplacementPolicy};
use tcim_core::{Backend, TcimConfig, TcimPipeline};
use tcim_graph::datasets::Dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = tcim_bench::scale_from_env();
    for name in ["ego-facebook", "roadnet-pa"] {
        let g = Dataset::by_name(name).unwrap().synthesize(scale.scale, scale.seed)?;
        println!("\n== {name} (|V| = {}, |E| = {}) ==", g.vertex_count(), g.edge_count());
        println!(
            "{:<10} {:>10} {:>8} {:>8} {:>8} {:>12}",
            "policy", "capacity", "hit %", "miss %", "exch %", "writes"
        );
        for capacity in [100_000usize, 10_000, 1_000] {
            for policy in
                [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random]
            {
                let config = TcimConfig {
                    pim: PimConfig {
                        replacement: policy,
                        capacity_slices_override: Some(capacity),
                        ..PimConfig::default()
                    },
                    ..TcimConfig::default()
                };
                let report = TcimPipeline::new(&config)?.count(&g, &Backend::SerialPim)?;
                let s = report.stats.expect("serial PIM simulates the data buffer");
                println!(
                    "{:<10} {:>10} {:>8.1} {:>8.1} {:>8.1} {:>12}",
                    format!("{policy:?}"),
                    capacity,
                    100.0 * s.hit_rate(),
                    100.0 * s.miss_rate(),
                    100.0 * s.exchange_rate(),
                    s.total_writes()
                );
            }
        }
    }
    Ok(())
}
