//! Hierarchical sparse bit-rows: density-adaptive row encoding and the
//! skip-empty AND+BitCount kernels it unlocks.
//!
//! Prepares the same power-law graph under forced-dense, forced-sparse
//! and automatic encoding policies, then compares the dispatch census
//! (`KernelStats`), modelled accelerator time and compressed footprint
//! — the answers stay bit-identical, only the work accounting moves.
//!
//! Run with:
//! ```text
//! cargo run --release --example sparse_rows
//! ```

use tcim_repro::bitmatrix::{EncodingPolicy, RowEncoding};
use tcim_repro::graph::generators::{barabasi_albert, gnm, rmat, RmatParams};
use tcim_repro::tcim::{Backend, Query, TcimConfig, TcimPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = rmat(9, 2600, RmatParams::default(), 17)?;
    println!(
        "== R-MAT graph: |V| = {}, |E| = {} ==",
        graph.vertex_count(),
        graph.edge_count()
    );

    // One pipeline per policy: the encoding is part of the prepared
    // artifact (and of its cache key), chosen once per graph.
    println!("\n== encoding policies over one graph ==");
    let policies = [
        ("force-dense", EncodingPolicy::ForceDense),
        ("force-sparse", EncodingPolicy::ForceSparse),
        ("auto (default)", EncodingPolicy::default()),
    ];
    let mut reports = Vec::new();
    for (name, encoding) in policies {
        let pipeline = TcimPipeline::new(&TcimConfig { encoding, ..TcimConfig::default() })?;
        let prepared = pipeline.prepare(&graph);
        let report = pipeline.query(&prepared, &Backend::SerialPim, &Query::TotalTriangles)?;
        println!(
            "  {name:15} -> {:?} rows ({:.1}% slices valid): {} triangles, \
             {} kernels, {} pairs ANDed, {} pairs skipped, {} bytes, modelled {:.3e} s",
            prepared.encoding(),
            prepared.slice_stats().valid_fraction() * 100.0,
            report.triangles,
            report.kernel.kernel_invocations,
            report.kernel.slice_pairs,
            report.kernel.blocks_skipped,
            report.compressed_bytes,
            report.modelled_time_s.unwrap_or(0.0),
        );
        reports.push(report);
    }

    // The sparse byte-mask filter is exact: every pair it skips was a
    // mutually valid pair of the dense walk, proven all-zero before the
    // AND — so visited + skipped partitions the dense census and the
    // count never moves.
    let (dense, sparse) = (&reports[0], &reports[1]);
    assert_eq!(dense.triangles, sparse.triangles);
    assert_eq!(
        sparse.kernel.slice_pairs + sparse.kernel.blocks_skipped,
        dense.kernel.slice_pairs,
    );
    println!(
        "\nsparse visited {} + skipped {} = dense {} pairs; saved {} kernel dispatches",
        sparse.kernel.slice_pairs,
        sparse.kernel.blocks_skipped,
        dense.kernel.slice_pairs,
        dense.kernel.kernel_invocations - sparse.kernel.kernel_invocations,
    );

    // The automatic policy measures density at prepare time: this
    // power-law graph sits under the default 25% threshold and resolves
    // sparse; a denser Erdős–Rényi graph stays dense.
    println!("\n== automatic resolution across graphs ==");
    let auto = TcimPipeline::new(&TcimConfig::default())?;
    for (name, g) in [
        ("rmat (power-law)", graph),
        ("barabasi-albert", barabasi_albert(600, 5, 7)?),
        ("erdos-renyi", gnm(640, 4800, 7)?),
    ] {
        let prepared = auto.prepare(&g);
        println!(
            "  {name:18} {:.1}% valid slices -> {:?}",
            prepared.slice_stats().valid_fraction() * 100.0,
            prepared.encoding(),
        );
    }

    // Per-graph override when the measured default is wrong for the
    // workload: force an encoding.
    let forced = TcimPipeline::new(&TcimConfig {
        encoding: EncodingPolicy::force(RowEncoding::Dense),
        ..TcimConfig::default()
    })?;
    let prepared = forced.prepare(&rmat(9, 2600, RmatParams::default(), 17)?);
    assert_eq!(prepared.encoding(), RowEncoding::Dense);
    println!(
        "\nforced override: rmat prepared as {:?} despite its density",
        prepared.encoding()
    );
    Ok(())
}
