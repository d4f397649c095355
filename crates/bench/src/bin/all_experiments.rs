//! Runs every table and figure back to back (README "Benchmarks and
//! experiments" lists the single-experiment binaries).
//!
//! ```text
//! TCIM_SCALE=0.05 cargo run --release -p tcim-bench --bin all_experiments
//! ```

use tcim_core::experiments;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = tcim_bench::scale_from_env();
    println!(
        "TCIM reproduction — all experiments at scale {} (seed {})\n",
        scale.scale, scale.seed
    );
    println!("{}\n", experiments::table1()?);
    println!("{}\n", experiments::table2(scale)?);
    println!("{}\n", experiments::tables3_and_4(scale)?);
    println!("{}\n", experiments::table5(scale)?);
    println!("{}\n", experiments::fig5(scale)?);
    println!("{}", experiments::fig6(scale)?);
    Ok(())
}
