//! Road-network workload under memory pressure: a roadNet-style graph
//! driven through a deliberately small computational array so the LRU
//! data-exchange machinery of §IV-A is visible, comparing replacement
//! policies.
//!
//! Run with:
//! ```text
//! cargo run --release --example road_network
//! ```

use tcim_repro::arch::{PimConfig, ReplacementPolicy};
use tcim_repro::graph::datasets::Dataset;
use tcim_repro::tcim::{baseline, Backend, TcimConfig, TcimPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A roadNet-PA-style stand-in at 2 % published size.
    let dataset = Dataset::by_name("roadnet-pa").expect("catalog entry exists");
    let graph = dataset.synthesize(0.02, 3)?;
    let expected = baseline::forward(&graph);
    println!(
        "road graph: |V| = {}, |E| = {}, triangles = {}, {}",
        graph.vertex_count(),
        graph.edge_count(),
        expected,
        graph.degree_stats()
    );

    // Shrink the data buffer until the working set no longer fits, then
    // compare the paper's LRU with FIFO and Random replacement.
    println!(
        "\n{:<10} {:>12} {:>8} {:>8} {:>10} {:>12}",
        "policy", "capacity", "hit %", "miss %", "exch %", "writes"
    );
    for capacity in [50_000usize, 5_000, 500] {
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
            let report = TcimPipeline::new(&config)?.count(&graph, &Backend::SerialPim)?;
            assert_eq!(report.triangles, expected, "policy must not change the count");
            let s = report.stats.expect("serial PIM simulates the data buffer");
            println!(
                "{:<10} {:>12} {:>8.1} {:>8.1} {:>10.1} {:>12}",
                format!("{policy:?}"),
                capacity,
                100.0 * s.hit_rate(),
                100.0 * s.miss_rate(),
                100.0 * s.exchange_rate(),
                s.total_writes()
            );
        }
    }

    println!(
        "\nNote: road networks touch each column slice few times, so shrinking \
         the buffer converts hits into exchanges — exactly the Fig. 5 regime \
         of the paper's three largest graphs."
    );
    Ok(())
}
