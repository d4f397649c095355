//! Crate-level invariant: under deterministic randomized churn, the
//! incrementally maintained count always equals a from-scratch recount,
//! and the dynamic rows always equal a fresh compression of the live
//! adjacency.

use tcim_core::baseline;
use tcim_graph::generators::{classic, gnm};
use tcim_graph::CsrGraph;
use tcim_stream::{DriftPolicy, DynamicGraph, StreamConfig, Update, UpdateBatch};

/// Splitmix-style deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn random_batch(rng: &mut Rng, dg: &DynamicGraph, len: usize) -> UpdateBatch {
    let n = dg.vertex_count() as u64;
    let mut batch = UpdateBatch::new();
    for _ in 0..len {
        let u = (rng.next() % n) as u32;
        let v = (rng.next() % n) as u32;
        // Bias towards valid updates but keep some adversarial ones
        // (self-loops, duplicates, unknown deletes) in the stream.
        if rng.next().is_multiple_of(2) {
            batch.push(Update::Insert(u, v));
        } else {
            batch.push(Update::Delete(u, v));
        }
    }
    batch
}

fn churn(g: &CsrGraph, label: &str, seed: u64) {
    churn_with(g, label, seed, tcim_bitmatrix::EncodingPolicy::default());
}

fn churn_with(g: &CsrGraph, label: &str, seed: u64, encoding: tcim_bitmatrix::EncodingPolicy) {
    let config = StreamConfig {
        tcim: tcim_core::TcimConfig { encoding, ..Default::default() },
        drift: DriftPolicy {
            max_touched_fraction: Some(0.6),
            max_valid_slice_drift: None,
            max_updates: None,
        },
        verify_on_fold: true,
        ..StreamConfig::default()
    };
    let mut dg = DynamicGraph::new(g, config).unwrap();
    let mut rng = Rng(seed);
    for round in 0..12 {
        let batch = random_batch(&mut rng, &dg, 17);
        let outcome = dg.apply_batch(&batch).unwrap();
        let recount = baseline::edge_iterator_merge(&dg.snapshot());
        assert_eq!(
            dg.triangles(),
            recount,
            "{label} seed {seed} batch {round}: incremental vs recount"
        );
        assert_eq!(outcome.triangles, dg.triangles());
        assert_eq!(
            outcome.applied() + outcome.rejected.len(),
            batch.len(),
            "{label}: every update is either applied or rejected"
        );
    }
    // The dynamic rows stayed canonical: equal to a fresh slicing of
    // the final adjacency under the same encoding. (The fresh graph may
    // resolve a different encoding — churn changes density — so the
    // reference is re-encoded to the churned graph's.)
    let final_graph = dg.snapshot();
    let fresh = DynamicGraph::new(&final_graph, StreamConfig::default()).unwrap();
    for v in 0..dg.vertex_count() as u32 {
        assert_eq!(
            dg.row(v),
            &fresh.row(v).reencoded(dg.encoding()),
            "{label}: row {v} canonical form"
        );
    }
    assert_eq!(dg.valid_slices(), fresh.valid_slices());
    assert_eq!(
        dg.compressed_bytes(),
        (0..dg.vertex_count() as u32)
            .map(|v| fresh.row(v).reencoded(dg.encoding()).compressed_bytes() as u64)
            .sum::<u64>(),
        "{label}: patched bytes match a fresh compression"
    );
}

#[test]
fn fig2_churn_stays_exact() {
    churn(&classic::fig2_example(), "fig2", 1);
}

#[test]
fn wheel_churn_stays_exact() {
    churn(&classic::wheel(40), "wheel", 7);
}

#[test]
fn er_churn_stays_exact() {
    churn(&gnm(120, 700, 3).unwrap(), "er", 13);
}

#[test]
fn empty_graph_churn_stays_exact() {
    churn(&CsrGraph::from_edges(30, []).unwrap(), "empty", 29);
}

/// Sparse rows under churn: in-place patches under the sparse encoding
/// stay canonical and the maintained count stays exact, with
/// folds recounted through the sparse pipeline (`verify_on_fold`).
#[test]
fn er_churn_stays_exact_on_forced_sparse_rows() {
    let g = gnm(120, 700, 3).unwrap();
    churn_with(&g, "er-sparse", 13, tcim_bitmatrix::EncodingPolicy::ForceSparse);
}

#[test]
fn wheel_churn_stays_exact_on_forced_sparse_rows() {
    churn_with(
        &classic::wheel(40),
        "wheel-sparse",
        7,
        tcim_bitmatrix::EncodingPolicy::ForceSparse,
    );
}
