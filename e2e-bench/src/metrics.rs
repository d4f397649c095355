//! The metric catalogue and the result line.
//!
//! Every metric is labelled *host* (measured on this machine: wall
//! time, memory, host-side counts) or *modelled* (computed by the PIM
//! cost model, identical on every machine and every run of one seed).
//! The two kinds are never added together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured on the host running the simulator.
    Host,
    /// Produced by the modelled PIM hardware.
    Modelled,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Host => "host",
            Source::Modelled => "modelled",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// Host-measured or modelled.
    pub source: Source,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, source: Source::Host }
}

const fn modelled(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, source: Source::Modelled }
}

/// End-to-end metrics: printed by every untraced run of every workload.
/// Only metrics whose run-to-run spread on a shared 2-vCPU host stays
/// well inside their bound are here; the rest of the user-visible
/// latencies head [`PER_LAYER`].
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("cpu_forward_ms", "ms"),
    host("sharded4_ms", "ms"),
    modelled("pim_modelled_us", "us"),
    modelled("pim_energy_uj", "uJ"),
    host("gw_goodput_qps", "1/s"),
    host("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run of every workload.
/// The first [`UNBOUNDED_LATENCIES`] are end-to-end latencies too noisy
/// on shared hosts to carry a bound. A layer the workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    host("software_sliced_ms", "ms"),
    host("serial_pim_ms", "ms"),
    host("scheduled_pim4_ms", "ms"),
    host("gw_p50_ms", "ms"),
    host("gw_p99_ms", "ms"),
    host("graph.generate_ms", "ms"),
    host("graph.orient_ms", "ms"),
    host("bitmatrix.slice_ms", "ms"),
    host("core.prepare_ms", "ms"),
    modelled("bitmatrix.valid_slices", "count"),
    modelled("bitmatrix.compressed_bytes", "bytes"),
    host("baseline.forward_ms", "ms"),
    host("software.walk_ms", "ms"),
    host("arch.run_ms", "ms"),
    modelled("arch.kernels", "count"),
    modelled("arch.and_ops", "count"),
    modelled("arch.blocks_skipped", "count"),
    modelled("arch.readouts", "count"),
    host("arch.ns_per_kernel", "ns"),
    host("arch.walk_ratio", "ratio"),
    modelled("arch.row_writes", "count"),
    modelled("arch.col_hit_rate", "ratio"),
    modelled("arch.col_exchanges", "count"),
    host("sched.plan_ms", "ms"),
    host("sched.execute_ms", "ms"),
    modelled("sched.est_imbalance", "ratio"),
    host("sched.forkjoin_us", "us"),
    host("sched.coverage", "ratio"),
    host("shard.build_ms", "ms"),
    host("shard.intra_ms", "ms"),
    host("shard.compose_ms", "ms"),
    modelled("shard.cross_arc_frac", "ratio"),
    modelled("shard.compose_kernels", "count"),
    host("shard.coverage", "ratio"),
    host("core.attributed_ms", "ms"),
    host("core.attribution_ratio", "ratio"),
    host("motif.peel_ms", "ms"),
    modelled("motif.peel_kernels", "count"),
    host("motif.coverage", "ratio"),
    host("service.wall_ms", "ms"),
    host("gateway.submit_us", "us"),
    host("gateway.overhead_ms", "ms"),
    host("gateway.overhead_p99_ms", "ms"),
    host("gateway.exec_per_query", "ratio"),
    host("gateway.shed", "count"),
    host("stream.apply_ms", "ms"),
    host("stream.deltas", "count"),
    host("stream.folds", "count"),
    host("gen.late_p99_ms", "ms"),
    host("trace.overhead_frac", "ratio"),
];

/// How many of [`PER_LAYER`]'s first entries are end-to-end latencies
/// (every run measures them; untraced runs print them in the report).
pub const UNBOUNDED_LATENCIES: usize = 5;

/// The catalogue entry for `name`.
///
/// # Panics
///
/// Panics when `name` is in neither catalogue (a bug in this crate).
pub fn def(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Measured values by metric name, plus a free-text detail per metric
/// (percentiles and sample counts) for the human-readable report.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
    detail: BTreeMap<&'static str, String>,
}

impl Values {
    /// Records `value` for the catalogue metric `name`. Non-finite
    /// values (a ratio over an empty layer) are stored as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name);
        self.values.insert(d.name, if value.is_finite() { value } else { 0.0 });
    }

    /// Attaches a human-readable detail string to `name`.
    pub fn detail(&mut self, name: &str, text: String) {
        self.detail.insert(def(name).name, text);
    }

    /// Renders `defs` as a fixed-width table, one metric per line.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let value = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let detail = self.detail.get(d.name).map(String::as_str).unwrap_or("");
            let _ = writeln!(
                out,
                "  {:<26} {:>16.4} {:<6} {:<9} {detail}",
                d.name,
                value,
                d.unit,
                d.source.label()
            );
        }
        out
    }

    /// The JSON object of `defs` (`{"name": {"value": v, "unit": u}}`).
    ///
    /// # Panics
    ///
    /// Panics when a metric in `defs` was never recorded: every run
    /// must emit its whole catalogue.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}
