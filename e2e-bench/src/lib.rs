//! The TCIM reproduction's end-to-end benchmark.
//!
//! One run measures one workload in its own process: set-up (repeated,
//! median reported), a closed loop that asks the workload's query of
//! five backends in rotation, and an open-loop phase through the
//! gateway. Every answer is checked against a reference computed during
//! set-up; a wrong answer fails the run. A traced run (`trace`) adds
//! outside-in probes of each layer's public entry points and reports
//! per-layer metrics instead of end-to-end ones.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod serving;
pub mod stats;
pub mod sweep;
pub mod truss;
pub mod workload;

use std::time::{Duration, Instant};

use tcim_core::{Query, QueryValue};

use crate::layers::{QueryProbes, SetupProbes};
use crate::metrics::Values;
use crate::serving::{OpenLoop, Serving};
use crate::stats::Samples;
use crate::sweep::{ClosedLoop, Reference, Sweep};
use crate::workload::{Scale, WorkloadSpec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Closed-loop/open-loop slices the measured window alternates.
const SLICES: u32 = 6;

/// Rounds of set-up layer probes in a traced run.
const SETUP_PROBE_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`workload::NAMES`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds (closed loop plus open loop).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Graph sizes.
    pub scale: Scale,
    /// Perturb every reference answer (the correctness gate's
    /// self-test: the run must fail).
    pub corrupt_reference: bool,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer matched its reference and every modelled number
    /// repeated exactly.
    pub correct: bool,
    /// Requests attempted (closed-loop queries, gateway reads and
    /// writes).
    pub attempted: u64,
    /// Requests that failed, were shed or answered wrongly.
    pub failed: u64,
    /// Every measured metric.
    pub values: Values,
    /// Report lines describing the inputs.
    pub header: Vec<String>,
    /// Problems found.
    pub problems: Vec<String>,
    /// Hash of every modelled number of the closed loop; equal across
    /// traced and untraced runs of one seed.
    pub census_fingerprint: u64,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = workload::workload(&opts.workload, opts.scale)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;

    // Set-up, several times; the last one is kept. Each set-up fills
    // the prepared and sharded caches and runs every backend once.
    let mut setup_s = Samples::new();
    let mut calibration_ms = Samples::new();
    let mut kept: Option<(Sweep, Serving)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, serving)) = kept.take() {
            serving.shutdown();
        }
        let scale = calibrate(&mut calibration_ms);
        let start = Instant::now();
        let sweep = Sweep::build(&spec, opts.seed);
        let serving = Serving::build(&spec.serving, opts.seed);
        setup_s.push(start.elapsed().as_secs_f64() * scale);
        kept = Some((sweep, serving));
    }
    let (sweep, mut serving) = kept.expect("at least one set-up ran");

    // References, outside the timed set-up.
    let mut reference = Reference::compute(&spec.query, &sweep.graph);
    let mut static_refs = serving.static_references();
    if opts.corrupt_reference {
        reference.corrupt();
        for value in static_refs.values_mut() {
            if let QueryValue::Total(t) = value {
                *t += 1;
            }
        }
    }

    let mut problems = Vec::new();
    let mut setup_probes = SetupProbes::default();
    if opts.trace {
        for _ in 0..SETUP_PROBE_REPS {
            let scale = calibrate(&mut calibration_ms);
            if let Err(problem) = setup_probes.probe(&sweep, &spec, opts.seed, scale) {
                problems.push(problem);
            }
        }
    }

    // The window alternates closed-loop and open-loop slices, so both
    // phases see the whole run's machine conditions. Traced runs probe
    // the layers in every other slice.
    let window = Duration::from_secs_f64(opts.seconds.max(0.0));
    let closed_budget = window.mul_f64(spec.closed_share);
    let open_budget = window - closed_budget;
    let mut closed = ClosedLoop::new(opts.trace);
    let mut open = OpenLoop::default();
    for slice in 0..SLICES {
        let traced = opts.trace && slice % 2 == 1;
        let scale = calibrate(&mut calibration_ms);
        closed.run(&sweep, &spec, &reference, closed_budget / SLICES, traced, scale);
        let scale = calibrate(&mut calibration_ms);
        open.run(&mut serving, &spec.serving, &static_refs, open_budget / SLICES, scale);
    }
    open.check_live_answers(&serving);
    serving.shutdown();

    problems.extend(closed.problems.iter().cloned());
    problems.extend(open.sent.problems.iter().cloned());
    problems.extend(open.reads.problems.iter().cloned());
    if let Some(probes) = &closed.probes {
        problems.extend(census_agreement(&spec, &closed, probes));
    }

    let mut values = Values::default();
    end_to_end(&mut values, &setup_s, &closed, &open);
    if opts.trace {
        per_layer(&mut values, &spec, &setup_probes, &closed, &open);
    }

    let failed = closed.failed + open.failed();
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted: closed.attempted + open.attempted(),
        failed,
        values,
        header: header(opts, &spec, &sweep, &calibration_ms),
        problems,
        census_fingerprint: fingerprint(&closed),
    })
}

fn header(
    opts: &Options,
    spec: &WorkloadSpec,
    sweep: &Sweep,
    calibration_ms: &Samples,
) -> Vec<String> {
    let s = &spec.serving;
    let parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    vec![
        format!(
            "workload {} · seed {} · {} s measured · trace {} · {parallelism} host threads",
            spec.name,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!(
            "closed loop ({:.0}% of the window): {} on {} — {} vertices, {} edges, {:?} rows",
            spec.closed_share * 100.0,
            spec.query,
            spec.graph.describe(opts.seed),
            sweep.graph.vertex_count(),
            sweep.graph.edge_count(),
            sweep.prepared.encoding()
        ),
        format!(
            "gateway phase: {} qps offered, p99 limit {} ms, static {}, live {}, a {}-update \
             write every {} submissions",
            s.rate_qps,
            s.limit_ms,
            s.static_graph.describe(opts.seed),
            s.live_graph.describe(opts.seed + 1),
            s.batch_updates,
            s.write_every
        ),
        format!(
            "host speed: calibration kernel {} ms against {} ms nominal; every host time \
             is scaled by nominal ÷ the calibration taken just before it",
            calibration_ms.summary(),
            host::NOMINAL_MS
        ),
    ]
}

/// Times the calibration kernel, records it, and returns the factor
/// host times measured next are scaled by.
fn calibrate(calibration_ms: &mut Samples) -> f64 {
    let ms = host::calibrate_ms();
    calibration_ms.push(ms);
    host::NOMINAL_MS / ms
}

fn end_to_end(values: &mut Values, setup_s: &Samples, closed: &ClosedLoop, open: &OpenLoop) {
    values.set("setup_s", setup_s.median());
    values.detail("setup_s", setup_s.summary());
    for record in &closed.records {
        values.set(record.metric, record.untraced.median());
        values.detail(record.metric, record.untraced.summary());
    }
    let serial = closed.record("serial_pim_ms").census;
    let modelled =
        |bits: Option<Option<u64>>| bits.flatten().map_or(0.0, f64::from_bits) * 1e6;
    values.set("pim_modelled_us", modelled(serial.map(|c| c.time_bits)));
    values.set("pim_energy_uj", modelled(serial.map(|c| c.energy_bits)));
    let latency = &open.reads.latency_ms;
    values.set("gw_p50_ms", latency.median());
    values.detail("gw_p50_ms", latency.summary());
    values.set("gw_p99_ms", latency.percentile(99.0));
    values.detail(
        "gw_p99_ms",
        format!("{} beyond p99 of n={}", latency.beyond(99.0), latency.len()),
    );
    let (good, reads) = (open.reads.good, open.sent.reads);
    values.set("gw_goodput_qps", good as f64 / open.elapsed_s);
    values.detail(
        "gw_goodput_qps",
        format!("goodput {:.4} of {reads} reads", good as f64 / reads.max(1) as f64),
    );
    values.set("peak_rss_mb", host::peak_rss_mb());
}

fn per_layer(
    values: &mut Values,
    spec: &WorkloadSpec,
    setup: &SetupProbes,
    closed: &ClosedLoop,
    open: &OpenLoop,
) {
    let probes = closed.probes.as_ref().expect("traced runs probe the layers");
    let traced = |metric: &str| closed.record(metric).traced.median();

    values.set("graph.generate_ms", setup.generate_ms.median());
    values.set("graph.orient_ms", setup.orient_ms.median());
    values.set("bitmatrix.slice_ms", setup.slice_ms.median());
    values.set("core.prepare_ms", setup.prepare_ms.median());
    values.set("bitmatrix.valid_slices", setup.valid_slices as f64);
    values.set("bitmatrix.compressed_bytes", setup.compressed_bytes as f64);

    values.set("baseline.forward_ms", probes.forward_ms.median());
    values.set("software.walk_ms", probes.walk_ms.median());
    let run_ms = probes.arch_run_ms.median();
    values.set("arch.run_ms", run_ms);
    let stats = probes.arch_stats.unwrap_or_default();
    values.set("arch.kernels", stats.edges as f64);
    values.set("arch.and_ops", stats.and_ops as f64);
    values.set("arch.blocks_skipped", stats.blocks_skipped as f64);
    let readouts =
        probes.attributed_kernel.map_or(stats.result_readouts, |k| k.result_readouts);
    values.set("arch.readouts", readouts as f64);
    values.set("arch.ns_per_kernel", run_ms * 1e6 / stats.edges as f64);
    values.set("arch.walk_ratio", run_ms / probes.walk_ms.median());
    values.set("arch.row_writes", stats.row_slice_writes as f64);
    values.set("arch.col_hit_rate", stats.hit_rate());
    values.set("arch.col_exchanges", stats.col_exchanges as f64);

    let (plan_ms, execute_ms) = (probes.plan_ms.median(), probes.execute_ms.median());
    values.set("sched.plan_ms", plan_ms);
    values.set("sched.execute_ms", execute_ms);
    values.set("sched.est_imbalance", probes.est_imbalance);
    values.set("sched.forkjoin_us", probes.forkjoin_us.median());
    values.set("sched.coverage", (plan_ms + execute_ms) / traced("scheduled_pim4_ms"));

    let (intra_ms, compose_ms) = (probes.intra_ms.median(), probes.compose_ms.median());
    values.set("shard.build_ms", setup.shard_build_ms.median());
    values.set("shard.intra_ms", intra_ms);
    values.set("shard.compose_ms", compose_ms);
    values.set("shard.cross_arc_frac", setup.cross_arc_frac);
    values.set("shard.compose_kernels", setup.compose_kernels as f64);
    values.set("shard.coverage", (intra_ms + compose_ms) / traced("sharded4_ms"));

    let attributed_ms = probes.attributed_ms.median();
    values.set("core.attributed_ms", attributed_ms);
    values.set(
        "core.attribution_ratio",
        if spec.attributed { attributed_ms / run_ms } else { 0.0 },
    );
    let motif = spec.query.is_motif();
    let serial_ms = traced("serial_pim_ms");
    values.set("motif.peel_ms", if motif { serial_ms - attributed_ms } else { 0.0 });
    let peel_kernels =
        match (motif, closed.record("serial_pim_ms").census, probes.attributed_kernel) {
            (true, Some(census), Some(anchor)) => {
                census.kernel.kernel_invocations.saturating_sub(anchor.kernel_invocations)
            }
            _ => 0,
        };
    values.set("motif.peel_kernels", peel_kernels as f64);
    values.set("motif.coverage", if motif { attributed_ms / serial_ms } else { 0.0 });

    let (reads, sent) = (&open.reads, &open.sent);
    values.set("service.wall_ms", reads.service_wall_ms.median());
    values.set("gateway.submit_us", sent.submit_us.median());
    values.set("gateway.overhead_ms", reads.overhead_ms.median());
    values.set("gateway.overhead_p99_ms", reads.overhead_ms.percentile(99.0));
    values.set("gateway.exec_per_query", reads.executions() as f64 / reads.answered as f64);
    values.set("gateway.shed", sent.shed as f64);
    values.set("stream.apply_ms", sent.update_ms.median());
    values.detail("stream.apply_ms", sent.update_ms.summary());
    values.set("stream.deltas", sent.deltas as f64);
    values.set("stream.folds", sent.folds as f64);
    values.set("gen.late_p99_ms", sent.late_ms.percentile(99.0));

    // Interference of the probes with the closed loop: per backend,
    // traced over untraced median, minus one; the median of those.
    let mut overhead = Samples::new();
    for record in &closed.records {
        overhead.push(record.traced.median() / record.untraced.median() - 1.0);
    }
    values.set("trace.overhead_frac", overhead.median());
}

/// In a count workload the serial engine probe and the serial backend
/// run the same walk: their modelled numbers must agree to the bit.
fn census_agreement(
    spec: &WorkloadSpec,
    closed: &ClosedLoop,
    probes: &QueryProbes,
) -> Vec<String> {
    let (Some(census), Some(stats), Some((time, energy))) =
        (closed.record("serial_pim_ms").census, probes.arch_stats, probes.arch_modelled_bits)
    else {
        return Vec::new();
    };
    if spec.query != Query::TotalTriangles {
        return Vec::new();
    }
    let agree = census.kernel.kernel_invocations == stats.edges
        && census.kernel.slice_pairs == stats.and_ops
        && census.kernel.blocks_skipped == stats.blocks_skipped
        && census.time_bits == Some(time)
        && census.energy_bits == Some(energy);
    if agree {
        Vec::new()
    } else {
        vec!["arch.run and the serial backend disagree on the modelled census".to_string()]
    }
}

/// FNV-1a over every backend's modelled census, in rotation order.
fn fingerprint(closed: &ClosedLoop) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for record in &closed.records {
        let Some(c) = record.census else { continue };
        for word in [
            c.kernel.kernel_invocations,
            c.kernel.slice_pairs,
            c.kernel.result_readouts,
            c.kernel.blocks_skipped,
            c.time_bits.unwrap_or(0),
            c.energy_bits.unwrap_or(0),
        ] {
            feed(word);
        }
    }
    hash
}
