//! Structured ablation drivers for the design choices the paper fixes:
//! orientation, slice size and buffer replacement policy.
//!
//! The `tcim-bench` ablation binaries print these results; keeping the
//! logic here means the *findings* (e.g. "degree ordering raises the
//! column hit rate on collaboration graphs") are assertable in the test
//! suite rather than living only in harness stdout.

use tcim_arch::sweep::{policy_sweep, SweepPoint};
use tcim_arch::PimConfig;
use tcim_bitmatrix::{SliceSize, SlicedMatrix};
use tcim_graph::{CsrGraph, Orientation};

use crate::backend::Backend;
use crate::error::Result;
use crate::pipeline::{TcimConfig, TcimPipeline};

/// One point of the orientation ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientationPoint {
    /// The orientation used.
    pub orientation: Orientation,
    /// AND operations issued (valid slice pairs).
    pub and_ops: u64,
    /// Column-slice hit rate.
    pub hit_rate: f64,
    /// Valid-slice fraction of the compressed matrix.
    pub valid_fraction: f64,
    /// Triangles (must be invariant across points).
    pub triangles: u64,
}

/// Runs the orientation ablation on one graph with paper-default PIM
/// settings.
///
/// # Errors
///
/// Propagates engine characterization failures.
///
/// # Panics
///
/// Panics if two orientations disagree on the count — that would be a
/// correctness bug, not an ablation result.
pub fn orientation_ablation(g: &CsrGraph) -> Result<Vec<OrientationPoint>> {
    let mut points = Vec::with_capacity(3);
    let mut reference: Option<u64> = None;
    for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy] {
        let pipeline =
            TcimPipeline::new(&TcimConfig { orientation, ..TcimConfig::default() })?;
        let prepared = pipeline.prepare(g);
        let report = pipeline.execute(&prepared, &Backend::SerialPim)?;
        let stats = report.stats.expect("serial PIM simulates the data buffer");
        match reference {
            None => reference = Some(report.triangles),
            Some(r) => assert_eq!(r, report.triangles, "orientation changed the count"),
        }
        points.push(OrientationPoint {
            orientation,
            and_ops: stats.and_ops,
            hit_rate: stats.hit_rate(),
            valid_fraction: prepared.slice_stats().valid_fraction(),
            triangles: report.triangles,
        });
    }
    Ok(points)
}

/// One point of the slice-size ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSizePoint {
    /// The slice size used.
    pub slice_size: SliceSize,
    /// Compressed bytes of the sliced matrix.
    pub compressed_bytes: u64,
    /// AND operations issued.
    pub and_ops: u64,
    /// Simulated runtime (s).
    pub time_s: f64,
    /// Triangles (invariant).
    pub triangles: u64,
}

/// Runs the |S| ablation on one graph.
///
/// # Errors
///
/// Propagates engine characterization failures.
///
/// # Panics
///
/// Panics if two slice sizes disagree on the count.
pub fn slice_size_ablation(g: &CsrGraph) -> Result<Vec<SliceSizePoint>> {
    let mut points = Vec::with_capacity(SliceSize::ALL.len());
    let mut reference: Option<u64> = None;
    for slice_size in SliceSize::ALL {
        let config = TcimConfig {
            pim: PimConfig { slice_size, ..PimConfig::default() },
            ..TcimConfig::default()
        };
        let pipeline = TcimPipeline::new(&config)?;
        let prepared = pipeline.prepare(g);
        let report = pipeline.execute(&prepared, &Backend::SerialPim)?;
        match reference {
            None => reference = Some(report.triangles),
            Some(r) => assert_eq!(r, report.triangles, "slice size changed the count"),
        }
        points.push(SliceSizePoint {
            slice_size,
            compressed_bytes: prepared.slice_stats().compressed_bytes,
            and_ops: report.kernel.slice_pairs,
            time_s: report.modelled_time_s.expect("serial PIM models its latency"),
            triangles: report.triangles,
        });
    }
    Ok(points)
}

/// Runs the replacement-policy ablation (LRU/FIFO/Random at a fixed
/// capacity) over one graph, via the arch-level sweep API.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn replacement_ablation(g: &CsrGraph, capacity_slices: usize) -> Result<Vec<SweepPoint>> {
    let oriented = Orientation::Natural.orient(g);
    let matrix =
        SlicedMatrix::from_adjacency(oriented.rows(), PimConfig::default().slice_size)?;
    Ok(policy_sweep(&PimConfig::default(), &matrix, capacity_slices)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_arch::ReplacementPolicy;
    use tcim_graph::datasets::Dataset;

    fn dblp_standin() -> CsrGraph {
        Dataset::by_name("com-dblp").unwrap().synthesize(0.01, 42).unwrap()
    }

    fn road_standin() -> CsrGraph {
        Dataset::by_name("roadnet-pa").unwrap().synthesize(0.01, 42).unwrap()
    }

    #[test]
    fn degree_order_beats_natural_hit_rate_on_collaboration_graphs() {
        // The finding this test pins: degree ordering lifts
        // the column-slice hit rate substantially on community graphs.
        let points = orientation_ablation(&dblp_standin()).unwrap();
        let natural = points.iter().find(|p| p.orientation == Orientation::Natural).unwrap();
        let degree = points.iter().find(|p| p.orientation == Orientation::Degree).unwrap();
        assert!(
            degree.hit_rate > natural.hit_rate,
            "degree {} vs natural {}",
            degree.hit_rate,
            natural.hit_rate
        );
    }

    #[test]
    fn slice_size_64_is_near_the_byte_size_knee_for_road_graphs() {
        // |S| = 64 must not be beaten by more than ~15 % by any other
        // size on a road-style graph — the reason the paper fixed it.
        let points = slice_size_ablation(&road_standin()).unwrap();
        let at_64 = points.iter().find(|p| p.slice_size == SliceSize::S64).unwrap();
        let best = points.iter().map(|p| p.compressed_bytes).min().unwrap();
        assert!(
            (at_64.compressed_bytes as f64) < 2.0 * best as f64,
            "64b {} vs best {}",
            at_64.compressed_bytes,
            best
        );
    }

    #[test]
    fn lru_never_loses_to_random_under_pressure() {
        let points = replacement_ablation(&road_standin(), 200).unwrap();
        let hit = |p: ReplacementPolicy| {
            points.iter().find(|x| x.policy == p).unwrap().stats.hit_rate()
        };
        assert!(hit(ReplacementPolicy::Lru) >= hit(ReplacementPolicy::Random));
    }
}
