//! Shared helpers for the table, figure and ablation binaries.
//!
//! The `src/bin/` binaries regenerate every table and figure of the
//! paper and the design-choice ablations (see README "Benchmarks and
//! experiments"), mostly through `tcim_core::experiments` and
//! `tcim_core::ablations`. Apart from Table V's two host-measured
//! columns they report modelled quantities; the repository's timing
//! harness, whose runs the `BENCH_<n>.json` records hold, is the
//! separate `e2e-bench` package.

use tcim_core::experiments::ExperimentScale;

/// Reads the experiment scale from `TCIM_SCALE` / `TCIM_SEED` environment
/// variables, defaulting to the fast harness configuration (5 % scale).
///
/// Full-size paper runs: `TCIM_SCALE=1.0 cargo run --release -p tcim-bench
/// --bin table5`.
pub fn scale_from_env() -> ExperimentScale {
    let scale =
        std::env::var("TCIM_SCALE").ok().and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.05);
    let seed =
        std::env::var("TCIM_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(42);
    ExperimentScale { scale, seed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_without_env() {
        // The test environment does not set the variables.
        if std::env::var("TCIM_SCALE").is_err() {
            let s = scale_from_env();
            assert_eq!(s.scale, 0.05);
            assert_eq!(s.seed, 42);
        }
    }
}
