//! Sharded large-graph execution: partition a graph past one array's
//! slice budget, run intra-shard counts in parallel, compose the
//! cross-shard triangles, and let the service auto-select the whole
//! path from a slice budget.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharding
//! ```

use tcim_repro::graph::generators::barabasi_albert;
use tcim_repro::service::{ServiceConfig, TcimService};
use tcim_repro::shard::ShardMode;
use tcim_repro::tcim::{Backend, Query, ShardPolicy, TcimConfig, TcimPipeline};

fn main() -> tcim_repro::Result<()> {
    let g = barabasi_albert(4_096, 8, 7)?;
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;
    let prepared = pipeline.prepare(&g);
    println!(
        "graph: {} vertices, {} edges, {} valid slices prepared",
        g.vertex_count(),
        g.edge_count(),
        prepared.slice_stats().valid_slices,
    );

    // --- Shard-count sweep: same artifact, same answer ---------------
    println!("\n== shard sweep (vs. unsharded serial PIM) ==");
    let serial = pipeline.execute(&prepared, &Backend::SerialPim)?;
    println!("  {serial}");
    for shards in [2usize, 4, 8] {
        let spec = Backend::Sharded(ShardPolicy::with_shards(shards));
        let report = pipeline.execute(&prepared, &spec)?;
        assert_eq!(report.triangles, serial.triangles);
        println!("  {report}");
    }

    // --- The partitioned artifact, inspected -------------------------
    let policy = ShardPolicy::with_shards(4);
    let sharded = pipeline.prepare_sharded(&prepared, &policy.spec)?;
    println!(
        "\n== 4-shard partition == imbalance {:.3}, {} cross arcs ({:.3} of all arcs), \
         {} boundary slices",
        sharded.plan().imbalance(),
        sharded.plan().cross_arcs(),
        sharded.plan().cross_arcs() as f64 / prepared.oriented().arc_count() as f64,
        sharded.boundary().boundary_valid_slices(),
    );
    for (s, piece) in sharded.pieces().iter().enumerate() {
        let (lo, hi) = piece.range();
        println!(
            "  shard {s}: vertices {lo:>5}..{hi:<5}  {:>6} intra arcs  {:>6} cross arcs out",
            piece.prepared().oriented().arc_count(),
            sharded.plan().cross_arcs_by_tail()[s],
        );
    }
    // The sweep above composed on this artifact once; another query
    // executes the memoized composition plan instead of re-planning.
    assert_eq!(sharded.compose_plans_built(), 1);
    pipeline.execute(&prepared, &Backend::Sharded(policy.clone()))?;
    assert_eq!(sharded.compose_plans_built(), 1, "a second query re-plans nothing");
    println!("  composition planned once, reused by every later query");

    // --- Rich queries + provenance, 1D vs 2D composition -------------
    println!("\n== queries with shard provenance ==");
    for mode in [ShardMode::OneD, ShardMode::TwoD] {
        let spec = Backend::Sharded(policy.clone().mode(mode));
        let report = pipeline.query(&prepared, &spec, &Query::TopKVertices { k: 3 })?;
        let prov = report.sharding.as_ref().expect("sharded runs carry provenance");
        println!(
            "  {mode}: top-3 {:?}  ({} intra + {} cross triangles, {} composition units)",
            report
                .value
                .top_k()
                .expect("top-k value shape")
                .iter()
                .map(|e| e.vertex)
                .collect::<Vec<_>>(),
            prov.intra_triangles,
            prov.cross_triangles,
            prov.composition_units,
        );
    }

    // --- Service auto-selection from a slice budget -------------------
    println!("\n== service auto-selection ==");
    let config = ServiceConfig { shard_slice_budget: Some(2_000), ..ServiceConfig::default() };
    let service = TcimService::new(&config)?;
    service.register("big", &g)?;
    let response = service.query("big", &Query::TotalTriangles)?;
    println!("  {response}");
    match &response.sharding {
        Some(prov) => println!(
        "  auto-selected {} shards (budget 2000 slices), imbalance {:.3}, {} boundary arcs",
            prov.shards, prov.imbalance, prov.boundary_arcs,
        ),
        None => println!("  under budget: served unsharded"),
    }
    Ok(())
}
