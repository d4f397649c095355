//! Self-verification: run every counting path in the repository on one
//! graph and cross-check them — the one-call version of the repository's
//! verification strategy (ARCHITECTURE.md §5).
//!
//! Since the staged-pipeline refactor this is backend-driven: one
//! [`PreparedGraph`](crate::PreparedGraph) is built and every
//! [`Backend`] in the default suite executes it, plus one
//! pipeline-independent reference (the graph-level hash-intersect
//! baseline) so a preparation bug cannot hide by corrupting every
//! backend identically.
//!
//! Downstream users porting the crate to a new platform (or modifying
//! the device model) can call [`cross_check`] on their own graphs to
//! confirm the full stack still counts exactly.

use std::fmt;
use std::time::{Duration, Instant};

use tcim_graph::CsrGraph;

use crate::backend::Backend;
use crate::baseline;
use crate::error::Result;
use crate::pipeline::{TcimConfig, TcimPipeline};

/// One path's verdict inside a [`CrossCheckReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathResult {
    /// Human-readable path name.
    pub name: String,
    /// The count this path produced.
    pub triangles: u64,
    /// Wall-clock time of the path (host time; for the PIM paths this is
    /// simulator time, not modelled accelerator time).
    pub elapsed: Duration,
}

/// Outcome of a full cross-check run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheckReport {
    /// Every path's count and timing.
    pub paths: Vec<PathResult>,
}

impl CrossCheckReport {
    /// Whether all paths agreed.
    pub fn consistent(&self) -> bool {
        self.paths.windows(2).all(|w| w[0].triangles == w[1].triangles)
    }

    /// The agreed count.
    ///
    /// # Panics
    ///
    /// Panics when the paths disagree — check [`CrossCheckReport::consistent`]
    /// first, or rely on [`cross_check`] which already did.
    pub fn triangles(&self) -> u64 {
        assert!(self.consistent(), "counting paths disagree: {self}");
        self.paths.first().map(|p| p.triangles).unwrap_or(0)
    }
}

impl fmt::Display for CrossCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cross-check ({}):",
            if self.consistent() { "consistent" } else { "INCONSISTENT" }
        )?;
        for p in &self.paths {
            writeln!(
                f,
                "  {:<28} {:>12} triangles  ({:.3} ms)",
                p.name,
                p.triangles,
                p.elapsed.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

/// Runs every backend of the default suite (CPU merge, CPU forward,
/// sliced software, serial PIM, scheduled multi-array PIM) plus the
/// LUT-popcount software variant over one prepared graph, plus the
/// pipeline-independent hash-intersect baseline, and verifies unanimity.
///
/// The pipeline prepares with **degeneracy** orientation so the
/// relabelling machinery is exercised too — the hash-intersect
/// reference never sees the relabelled graph, so an orientation bug
/// cannot cancel out.
///
/// # Errors
///
/// Propagates characterization and backend failures. A count
/// *disagreement* is not an error — it is reported in the returned
/// struct so callers can inspect all values.
///
/// # Example
///
/// ```
/// use tcim_core::verify::cross_check;
/// use tcim_graph::generators::classic;
///
/// let report = cross_check(&classic::wheel(20))?;
/// assert!(report.consistent());
/// assert_eq!(report.triangles(), 19);
/// # Ok::<(), tcim_core::CoreError>(())
/// ```
pub fn cross_check(g: &CsrGraph) -> Result<CrossCheckReport> {
    use tcim_bitmatrix::popcount::PopcountMethod;
    use tcim_graph::Orientation;

    let mut backends = Backend::default_suite();
    backends.push(Backend::Software(PopcountMethod::Lut8));
    let config = TcimConfig { orientation: Orientation::Degeneracy, ..TcimConfig::default() };
    cross_check_with(g, &config, &backends)
}

/// [`cross_check`] with an explicit configuration and backend list; the
/// hash-intersect reference is always prepended.
///
/// # Errors
///
/// As [`cross_check`].
pub fn cross_check_with(
    g: &CsrGraph,
    config: &TcimConfig,
    backends: &[Backend],
) -> Result<CrossCheckReport> {
    let mut paths = Vec::with_capacity(backends.len() + 1);

    // Pipeline-independent reference: counts on the raw graph, touching
    // neither orientation, slicing, nor any backend.
    let start = Instant::now();
    let reference = baseline::hash_intersect(g);
    paths.push(PathResult {
        name: "hash-intersect (reference)".to_string(),
        triangles: reference,
        elapsed: start.elapsed(),
    });

    let pipeline = TcimPipeline::new(config)?;
    let prepared = pipeline.prepare(g);
    for backend in backends {
        let report = pipeline.execute(&prepared, backend)?;
        paths.push(PathResult {
            name: report.backend,
            triangles: report.triangles,
            elapsed: report.execute_time,
        });
    }

    Ok(CrossCheckReport { paths })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::generators::{classic, gnm};

    #[test]
    fn fig2_cross_checks_to_two() {
        let report = cross_check(&classic::fig2_example()).unwrap();
        assert!(report.consistent());
        assert_eq!(report.triangles(), 2);
        // The reference, the five default backends, and the LUT variant.
        assert_eq!(report.paths.len(), 7);
    }

    #[test]
    fn random_graph_cross_checks() {
        let report = cross_check(&gnm(300, 2000, 17).unwrap()).unwrap();
        assert!(report.consistent());
    }

    #[test]
    fn display_lists_every_path() {
        let report = cross_check(&classic::complete(8)).unwrap();
        let text = report.to_string();
        assert!(text.contains("consistent"));
        assert!(text.contains("cpu-forward"));
        assert!(text.contains("tcim-serial"));
        assert!(text.contains("tcim-sched"));
        assert!(text.contains("software-sliced[lut8]"));
        assert!(text.contains("hash-intersect"));
    }

    #[test]
    fn explicit_backend_selection_is_respected() {
        let report = cross_check_with(
            &classic::wheel(15),
            &TcimConfig::default(),
            &[Backend::CpuMerge],
        )
        .unwrap();
        assert_eq!(report.paths.len(), 2);
        assert_eq!(report.triangles(), 14);
    }

    #[test]
    fn empty_graph_reports_zero() {
        let g = CsrGraph::from_edges(0, []).unwrap();
        let report = cross_check(&g).unwrap();
        assert!(report.consistent());
        assert_eq!(report.triangles(), 0);
    }
}
