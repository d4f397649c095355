//! Command line of the end-to-end benchmark.
//!
//! ```text
//! tcim-e2e-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With one workload, the last line printed is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: every end-to-end
//! metric untraced, every per-layer metric traced. `--workload all` (the
//! default) runs each workload in a child process of its own. A wrong
//! answer prints the result with no metrics and exits with code 1.

use std::process::{Command, ExitCode};

use tcim_e2e_bench::metrics::{self, END_TO_END, PER_LAYER, UNBOUNDED_LATENCIES};
use tcim_e2e_bench::workload::{Scale, NAMES};
use tcim_e2e_bench::Options;

const USAGE: &str = "usage: tcim-e2e-bench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--tiny] [--corrupt-reference]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".to_string(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        corrupt_reference: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            // Flags, not options: no value follows.
            "--tiny" => {
                opts.scale = Scale::Tiny;
                i += 1;
                continue;
            }
            "--corrupt-reference" => {
                opts.corrupt_reference = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(opts)
}

/// Runs every workload in a child process of its own, so peak memory
/// and warm caches do not carry over between workloads.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("tcim-e2e-bench: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    // The last `--workload` on a command line wins, so the child's
    // appended one overrides a forwarded `--workload all`.
    for name in NAMES {
        match Command::new(&exe).args(args).args(["--workload", name]).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("tcim-e2e-bench: workload {name} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("tcim-e2e-bench: cannot start workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tcim-e2e-bench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if opts.workload == "all" {
        return run_all(&args);
    }
    let outcome = match tcim_e2e_bench::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("tcim-e2e-bench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.header {
        println!("# {line}");
    }
    println!("# end-to-end (from unprobed slices in traced runs):");
    print!("{}", outcome.values.table(END_TO_END));
    let shown = if opts.trace { PER_LAYER.len() } else { UNBOUNDED_LATENCIES };
    println!("# per-layer:");
    print!("{}", outcome.values.table(&PER_LAYER[..shown]));
    println!("# modelled census fingerprint {:016x}", outcome.census_fingerprint);
    println!(
        "# failed_frac {:.6} ({} of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        eprintln!("tcim-e2e-bench: {problem}");
    }
    if !outcome.correct {
        println!("{}", metrics::result_line(false, outcome.attempted, outcome.failed, "{}"));
        return ExitCode::FAILURE;
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        metrics::result_line(
            true,
            outcome.attempted,
            outcome.failed,
            &outcome.values.json(defs)
        )
    );
    ExitCode::SUCCESS
}
