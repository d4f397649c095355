//! Social-network analysis: the workload class the paper's introduction
//! motivates (clustering coefficient, transitivity, community structure
//! signals) on a heavy-tailed graph, comparing all counting paths.
//!
//! Run with:
//! ```text
//! cargo run --release --example social_network
//! ```

use std::time::Instant;

use tcim_repro::bitmatrix::popcount::PopcountMethod;
use tcim_repro::graph::datasets::Dataset;
use tcim_repro::tcim::{baseline, Backend, Query, QueryValue, TcimConfig, TcimPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ego-facebook-style stand-in at 50 % published size.
    let dataset = Dataset::by_name("ego-facebook").expect("catalog entry exists");
    let graph = dataset.synthesize(0.5, 7)?;
    println!(
        "social graph: |V| = {}, |E| = {}, {}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.degree_stats()
    );

    // --- Count with the three paths of Table V -----------------------
    let t = Instant::now();
    let cpu = baseline::hash_intersect(&graph);
    let cpu_time = t.elapsed();

    let pipeline = TcimPipeline::new(&TcimConfig::default())?;
    let prepared = pipeline.prepare(&graph);
    let sw = pipeline.execute(&prepared, &Backend::Software(PopcountMethod::Native))?;

    let report = pipeline.execute(&prepared, &Backend::SerialPim)?;

    assert_eq!(cpu, sw.triangles);
    assert_eq!(cpu, report.triangles);
    println!("\ntriangles = {cpu} (all three paths agree)");
    println!("  framework-style CPU  : {:>10.3} ms (measured)", cpu_time.as_secs_f64() * 1e3);
    println!(
        "  sliced software      : {:>10.3} ms (measured)",
        sw.execute_time.as_secs_f64() * 1e3
    );
    println!(
        "  TCIM                 : {:>10.3} ms (simulated)",
        report.modelled_time_s.unwrap() * 1e3
    );

    // --- The metrics the paper says TC unlocks -----------------------
    let global = pipeline.query(&prepared, &Backend::SerialPim, &Query::GlobalClustering)?;
    let QueryValue::GlobalClustering { wedges, transitivity, .. } = global.value else {
        unreachable!("a global clustering answer")
    };
    let all = Query::LocalClustering { vertices: None };
    let local = pipeline.query(&prepared, &Backend::SerialPim, &all)?;
    // The Watts–Strogatz average skips vertices of degree ≤ 1.
    let clustered: Vec<f64> = local
        .value
        .local_clustering()
        .expect("a clustering answer")
        .iter()
        .filter(|e| e.degree >= 2)
        .map(|e| e.coefficient)
        .collect();
    let average = clustered.iter().sum::<f64>() / clustered.len().max(1) as f64;
    println!("\nnetwork metrics built on the triangle count:");
    println!("  transitivity ratio           = {transitivity:.4}");
    println!("  average clustering coeff.    = {average:.4}");
    println!("  wedges                       = {wedges}");

    // Per-vertex counts straight from the accelerator (extra AND-result
    // readouts), cross-checked against the CPU path.
    let local_report =
        pipeline.query(&prepared, &Backend::SerialPim, &Query::PerVertexTriangles)?;
    let local = local_report.value.per_vertex().expect("a per-vertex answer");
    assert_eq!(local, baseline::local_triangles(&graph));
    println!(
        "  per-vertex counts from PIM   : {} result readouts, {:.3} ms simulated",
        local_report.kernel.result_readouts,
        local_report.modelled_time_s.unwrap() * 1e3,
    );

    // Top-5 most clustered hubs: candidate community centres.
    let mut hubs: Vec<(u32, u64)> = graph.vertices().map(|v| (v, local[v as usize])).collect();
    hubs.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    println!("\n  top-5 triangle-dense vertices (community centres):");
    for &(v, t) in hubs.iter().take(5) {
        println!("    vertex {v:>6}: {t:>8} triangles, degree {}", graph.degree(v));
    }
    Ok(())
}
