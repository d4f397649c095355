//! Drop-in path for the real SNAP datasets.
//!
//! The reproduction ships synthetic stand-ins, but the loaders accept the
//! original files unchanged. Point this example at any SNAP edge list
//! (e.g. `roadNet-PA.txt` from <https://snap.stanford.edu/data/>) or a
//! SuiteSparse MatrixMarket mirror:
//!
//! ```text
//! cargo run --release --example snap_file -- path/to/roadNet-PA.txt
//! ```
//!
//! Without an argument it falls back to a synthesized stand-in, so the
//! example always runs.

use std::fs::File;
use std::path::Path;

use tcim_repro::graph::components::largest_component;
use tcim_repro::graph::datasets::Dataset;
use tcim_repro::graph::io::{read_matrix_market, read_snap_edges};
use tcim_repro::graph::CsrGraph;
use tcim_repro::tcim::verify::cross_check;
use tcim_repro::tcim::{Backend, TcimConfig, TcimPipeline};

fn load(path: &str) -> Result<CsrGraph, Box<dyn std::error::Error>> {
    let file = File::open(path)?;
    let graph = if Path::new(path).extension().is_some_and(|e| e == "mtx") {
        read_matrix_market(file)?
    } else {
        read_snap_edges(file)?
    };
    Ok(graph)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = match std::env::args().nth(1) {
        Some(path) => {
            println!("loading {path} …");
            let raw = load(&path)?;
            println!("  parsed: |V| = {}, |E| = {}", raw.vertex_count(), raw.edge_count());
            // SNAP's published statistics refer to the largest connected
            // component; apply the same preprocessing.
            let lcc = largest_component(&raw);
            println!(
                "  largest component: |V| = {}, |E| = {}",
                lcc.vertex_count(),
                lcc.edge_count()
            );
            lcc
        }
        None => {
            println!("no file given — synthesizing the roadNet-PA stand-in at 5% scale");
            println!("(pass a SNAP .txt or MatrixMarket .mtx file to use real data)");
            Dataset::by_name("roadnet-pa").unwrap().synthesize(0.05, 42)?
        }
    };

    // Cross-check all five counting paths on this graph.
    let report = cross_check(&graph)?;
    print!("\n{report}");
    assert!(report.consistent());

    // And the full accelerator report.
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;
    let prepared = pipeline.prepare(&graph);
    let r = pipeline.execute(&prepared, &Backend::SerialPim)?;
    let (slices, stats) = (prepared.slice_stats(), r.stats.expect("serial PIM has stats"));
    println!("\nTCIM simulation:");
    println!("  triangles        = {}", r.triangles);
    println!("  compressed size  = {:.3} MiB", slices.compressed_mib());
    println!("  valid slices     = {:.4} %", 100.0 * slices.valid_fraction());
    println!("  simulated time   = {:.3} ms", r.modelled_time_s.unwrap() * 1e3);
    println!("  simulated energy = {:.3} mJ", r.modelled_energy_j.unwrap() * 1e3);
    println!(
        "  col traffic      = {:.1}% hit / {:.1}% miss / {:.1}% exchange",
        100.0 * stats.hit_rate(),
        100.0 * stats.miss_rate(),
        100.0 * stats.exchange_rate()
    );
    Ok(())
}
