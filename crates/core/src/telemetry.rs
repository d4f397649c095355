//! Pipeline-level metrics: one [`PipelineMetrics`] registry per
//! [`TcimPipeline`](crate::TcimPipeline), recorded at execution
//! boundaries.
//!
//! Instruments are registered once when the pipeline is built and
//! recorded from already-aggregated values ([`KernelStats`], report
//! wall/modelled times) at the end of each execute/query — never inside
//! the per-edge kernel loop — so the hot path carries no metric cost
//! at all. Snapshots additionally fold in the prepared- and
//! sharded-cache hit/miss counters, which the caches themselves own.
//!
//! Besides the unlabelled totals, every execution is attributed to its
//! `{backend, encoding}` series: the execution/kernel/slice-pair
//! counter families gain one labelled series per combination observed,
//! and the `tcim_model_error_permille` histogram family records how far
//! the cost model's *predicted* modelled time landed from the executed
//! run's — the calibration loop a query EXPLAIN plan closes.
//!
//! Metric names follow the Prometheus convention and are listed in the
//! ARCHITECTURE.md observability glossary.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tcim_bitmatrix::RowEncoding;
use tcim_telemetry::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::query::KernelStats;

/// Per-`{backend, encoding}` series, keyed by the pre-rendered
/// Prometheus label pairs.
#[derive(Debug, Default)]
struct LabelledSeries {
    executions: u64,
    kernel_invocations: u64,
    slice_pairs: u64,
    model_error: Histogram,
}

/// One completed execution's accounting, handed to
/// [`PipelineMetrics::record_execution`] by the pipeline entry points.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionSample<'a> {
    /// The executing backend's display label (e.g. `tcim-serial`).
    pub backend: &'a str,
    /// The row encoding the prepared artifact resolved to.
    pub encoding: RowEncoding,
    /// The run's normalized kernel accounting.
    pub kernel: &'a KernelStats,
    /// Host wall-clock time of the execution stage.
    pub execute_time: Duration,
    /// Modelled accelerator latency (s), for simulated backends.
    pub modelled_time_s: Option<f64>,
    /// The cost model's *pre-execution* prediction of the modelled
    /// latency (s), when the backend has one — feeds the
    /// `tcim_model_error_permille` calibration histograms.
    pub predicted_modelled_s: Option<f64>,
    /// The modelled latency (s) the prediction is scored against: the
    /// run's own for a classic execution, the anchor run's for a motif
    /// query, whose rounds the count-level prediction does not price.
    pub scored_modelled_s: Option<f64>,
    /// The answered query's stable label ([`Query::label`]), when the
    /// execution served a typed query — feeds the per-variant
    /// `tcim_query_variant_total` series. `None` for plain count
    /// executions.
    ///
    /// [`Query::label`]: crate::Query::label
    pub query: Option<&'a str>,
}

/// Per-pipeline metric instruments, recorded at execution boundaries.
///
/// Cheap to clone (handles share the underlying atomics); every
/// pipeline owns its own registry so co-resident pipelines and
/// parallel tests never mix counts.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    registry: MetricsRegistry,
    executions: Counter,
    kernel_invocations: Counter,
    slice_pairs: Counter,
    result_readouts: Counter,
    blocks_skipped: Counter,
    encoding_dense: Counter,
    encoding_sparse: Counter,
    execute_latency: Histogram,
    modelled_latency: Histogram,
    model_error: Histogram,
    labelled: Arc<Mutex<BTreeMap<String, LabelledSeries>>>,
    query_variants: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineMetrics {
    /// Registers the pipeline instrument set on a fresh registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        PipelineMetrics {
            executions: registry.counter(
                "tcim_executions_total",
                "backend executions (execute or query) completed",
            ),
            kernel_invocations: registry.counter(
                "tcim_kernel_invocations_total",
                "per-edge kernel dispatches across all executions",
            ),
            slice_pairs: registry.counter(
                "tcim_slice_pairs_total",
                "valid slice pairs AND + BitCounted across all executions",
            ),
            result_readouts: registry.counter(
                "tcim_result_readouts_total",
                "AND results read back out of the array across all executions",
            ),
            blocks_skipped: registry.counter(
                "tcim_blocks_skipped_total",
                "mutually valid slice pairs proven zero by the sparse row \
                 encoding and skipped before the AND",
            ),
            encoding_dense: registry.counter(
                "tcim_encoding_selected_dense_total",
                "prepared-graph builds that resolved to the dense row encoding",
            ),
            encoding_sparse: registry.counter(
                "tcim_encoding_selected_sparse_total",
                "prepared-graph builds that resolved to the sparse row encoding",
            ),
            execute_latency: registry.histogram(
                "tcim_execute_latency_nanoseconds",
                "host wall-clock time of the execution stage",
            ),
            modelled_latency: registry.histogram(
                "tcim_modelled_latency_nanoseconds",
                "modelled accelerator latency, for simulated-hardware backends",
            ),
            model_error: registry.histogram(
                "tcim_model_error_permille",
                "absolute relative error of the cost model's predicted modelled \
                 time against the executed run's, in permille",
            ),
            labelled: Arc::new(Mutex::new(BTreeMap::new())),
            query_variants: Arc::new(Mutex::new(BTreeMap::new())),
            registry,
        }
    }

    /// The underlying registry (for registering additional instruments
    /// that should appear in this pipeline's snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The pre-rendered Prometheus label pairs a `{backend, encoding}`
    /// series is keyed by.
    pub fn series_labels(backend: &str, encoding: RowEncoding) -> String {
        format!("backend=\"{backend}\",encoding=\"{encoding}\"")
    }

    /// Records one completed execution's aggregate accounting: the
    /// unlabelled totals, the `{backend, encoding}` labelled series,
    /// and (when both a prediction and a scored modelled time are
    /// present) one cost-model calibration observation.
    pub fn record_execution(&self, sample: &ExecutionSample<'_>) {
        self.executions.incr();
        self.kernel_invocations.add(sample.kernel.kernel_invocations);
        self.slice_pairs.add(sample.kernel.slice_pairs);
        self.result_readouts.add(sample.kernel.result_readouts);
        self.blocks_skipped.add(sample.kernel.blocks_skipped);
        self.execute_latency.observe_duration(sample.execute_time);
        if let Some(s) = sample.modelled_time_s {
            self.modelled_latency.observe_duration(Duration::from_secs_f64(s.max(0.0)));
        }
        let error_permille = match (sample.predicted_modelled_s, sample.scored_modelled_s) {
            (Some(predicted), Some(measured)) if measured > 0.0 => {
                let permille = ((predicted - measured).abs() / measured) * 1000.0;
                Some(permille.round().min(u64::MAX as f64) as u64)
            }
            _ => None,
        };
        if let Some(err) = error_permille {
            self.model_error.observe(err);
        }

        let labels = Self::series_labels(sample.backend, sample.encoding);
        let mut labelled = counters(&self.labelled);
        let series = labelled.entry(labels).or_default();
        series.executions += 1;
        series.kernel_invocations += sample.kernel.kernel_invocations;
        series.slice_pairs += sample.kernel.slice_pairs;
        if let Some(err) = error_permille {
            series.model_error.observe(err);
        }
        drop(labelled);

        if let Some(query) = sample.query {
            let mut variants = counters(&self.query_variants);
            *variants.entry(format!("query=\"{query}\"")).or_insert(0) += 1;
        }
    }

    /// Records the row encoding one prepared-graph build resolved to
    /// (the build itself is the prepared cache's miss, which the cache
    /// counts).
    pub fn record_prepared_build(&self, encoding: RowEncoding) {
        match encoding {
            RowEncoding::Dense => self.encoding_dense.incr(),
            RowEncoding::Sparse => self.encoding_sparse.incr(),
        }
    }

    /// Point-in-time read of every instrument: the registry's
    /// unlabelled totals followed by one labelled series per
    /// `{backend, encoding}` combination observed so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.registry.snapshot();
        let labelled = counters(&self.labelled);
        for (labels, series) in labelled.iter() {
            snapshot.push_labelled_counter(
                "tcim_executions_total",
                "backend executions (execute or query) completed",
                labels,
                series.executions,
            );
            snapshot.push_labelled_counter(
                "tcim_kernel_invocations_total",
                "per-edge kernel dispatches across all executions",
                labels,
                series.kernel_invocations,
            );
            snapshot.push_labelled_counter(
                "tcim_slice_pairs_total",
                "valid slice pairs AND + BitCounted across all executions",
                labels,
                series.slice_pairs,
            );
            let errors = series.model_error.summary();
            if errors.count > 0 {
                snapshot.push_labelled_histogram(
                    "tcim_model_error_permille",
                    "absolute relative error of the cost model's predicted \
                     modelled time against the executed run's, in permille",
                    labels,
                    errors,
                );
            }
        }
        let variants = counters(&self.query_variants);
        for (labels, &count) in variants.iter() {
            snapshot.push_labelled_counter(
                "tcim_query_variant_total",
                "typed queries answered, by query shape",
                labels,
                count,
            );
        }
        snapshot
    }
}

/// Locks one of the labelled series maps. They hold only counters, each
/// of them valid after every single add, so a lock poisoned by a
/// panicking holder is recovered, not propagated.
fn counters<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(
        backend: &'a str,
        kernel: &'a KernelStats,
        modelled: Option<f64>,
        predicted: Option<f64>,
    ) -> ExecutionSample<'a> {
        ExecutionSample {
            backend,
            encoding: RowEncoding::Dense,
            kernel,
            execute_time: Duration::from_micros(10),
            modelled_time_s: modelled,
            predicted_modelled_s: predicted,
            scored_modelled_s: modelled,
            query: None,
        }
    }

    #[test]
    fn execution_recording_accumulates_kernel_counters() {
        let m = PipelineMetrics::new();
        let a = KernelStats {
            kernel_invocations: 5,
            slice_pairs: 9,
            result_readouts: 1,
            blocks_skipped: 3,
        };
        let b = KernelStats {
            kernel_invocations: 2,
            slice_pairs: 4,
            result_readouts: 0,
            blocks_skipped: 1,
        };
        m.record_execution(&sample("tcim-serial", &a, Some(1e-6), None));
        m.record_execution(&sample("cpu-merge", &b, None, None));
        let snap = m.snapshot();
        assert_eq!(snap.counter("tcim_executions_total"), Some(2));
        assert_eq!(snap.counter("tcim_kernel_invocations_total"), Some(7));
        assert_eq!(snap.counter("tcim_slice_pairs_total"), Some(13));
        assert_eq!(snap.counter("tcim_result_readouts_total"), Some(1));
        assert_eq!(snap.counter("tcim_blocks_skipped_total"), Some(4));
        let lat = snap.histogram("tcim_execute_latency_nanoseconds").unwrap();
        assert_eq!(lat.count, 2);
        let modelled = snap.histogram("tcim_modelled_latency_nanoseconds").unwrap();
        assert_eq!(modelled.count, 1);
    }

    #[test]
    fn executions_split_into_backend_encoding_series() {
        let m = PipelineMetrics::new();
        let k = KernelStats {
            kernel_invocations: 4,
            slice_pairs: 6,
            result_readouts: 0,
            blocks_skipped: 0,
        };
        m.record_execution(&sample("tcim-serial", &k, None, None));
        m.record_execution(&sample("tcim-serial", &k, None, None));
        m.record_execution(&sample("cpu-merge", &k, None, None));
        let snap = m.snapshot();
        let serial = PipelineMetrics::series_labels("tcim-serial", RowEncoding::Dense);
        assert_eq!(serial, "backend=\"tcim-serial\",encoding=\"dense\"");
        assert_eq!(snap.labelled_counter("tcim_executions_total", &serial), Some(2));
        assert_eq!(snap.labelled_counter("tcim_kernel_invocations_total", &serial), Some(8));
        assert_eq!(snap.labelled_counter("tcim_slice_pairs_total", &serial), Some(12));
        let cpu = PipelineMetrics::series_labels("cpu-merge", RowEncoding::Dense);
        assert_eq!(snap.labelled_counter("tcim_executions_total", &cpu), Some(1));
        // The unlabelled totals keep covering everything.
        assert_eq!(snap.counter("tcim_executions_total"), Some(3));
    }

    #[test]
    fn model_error_records_permille_gap_when_both_sides_present() {
        let m = PipelineMetrics::new();
        let k = KernelStats::default();
        // 10% over-prediction → 100 permille.
        m.record_execution(&sample("tcim-serial", &k, Some(1.0), Some(1.1)));
        // Missing either side records nothing.
        m.record_execution(&sample("tcim-serial", &k, Some(1.0), None));
        m.record_execution(&sample("cpu-merge", &k, None, Some(1.0)));
        let snap = m.snapshot();
        let errors = snap.histogram("tcim_model_error_permille").unwrap();
        assert_eq!(errors.count, 1);
        assert_eq!(errors.sum, 100);
        let serial = PipelineMetrics::series_labels("tcim-serial", RowEncoding::Dense);
        let labelled = snap.labelled_histogram("tcim_model_error_permille", &serial).unwrap();
        assert_eq!(labelled.count, 1);
        // Series that never produced a calibration sample render none.
        let cpu = PipelineMetrics::series_labels("cpu-merge", RowEncoding::Dense);
        assert!(snap.labelled_histogram("tcim_model_error_permille", &cpu).is_none());
    }

    #[test]
    fn prepared_builds_count_per_encoding() {
        let m = PipelineMetrics::new();
        m.record_prepared_build(RowEncoding::Dense);
        m.record_prepared_build(RowEncoding::Sparse);
        m.record_prepared_build(RowEncoding::Dense);
        let snap = m.snapshot();
        assert_eq!(snap.counter("tcim_encoding_selected_dense_total"), Some(2));
        assert_eq!(snap.counter("tcim_encoding_selected_sparse_total"), Some(1));
    }

    #[test]
    fn query_variants_split_into_per_shape_series() {
        let m = PipelineMetrics::new();
        let k = KernelStats::default();
        m.record_execution(&ExecutionSample {
            query: Some("k-truss"),
            ..sample("tcim-serial", &k, None, None)
        });
        m.record_execution(&ExecutionSample {
            query: Some("k-truss"),
            ..sample("cpu-merge", &k, None, None)
        });
        m.record_execution(&ExecutionSample {
            query: Some("four-cliques"),
            ..sample("tcim-serial", &k, None, None)
        });
        // A plain count execution carries no query label and records no variant.
        m.record_execution(&sample("tcim-serial", &k, None, None));
        let snap = m.snapshot();
        assert_eq!(
            snap.labelled_counter("tcim_query_variant_total", "query=\"k-truss\""),
            Some(2)
        );
        assert_eq!(
            snap.labelled_counter("tcim_query_variant_total", "query=\"four-cliques\""),
            Some(1)
        );
        assert_eq!(
            snap.labelled_counter("tcim_query_variant_total", "query=\"total-triangles\""),
            None
        );
        assert_eq!(snap.counter("tcim_executions_total"), Some(4));
    }

    #[test]
    fn clones_share_instruments() {
        let m = PipelineMetrics::new();
        m.clone().record_prepared_build(RowEncoding::Dense);
        assert_eq!(m.snapshot().counter("tcim_encoding_selected_dense_total"), Some(1));
    }

    #[test]
    fn poisoned_series_locks_keep_answering() {
        let m = PipelineMetrics::new();
        let kernel = KernelStats {
            kernel_invocations: 2,
            slice_pairs: 3,
            result_readouts: 0,
            blocks_skipped: 0,
        };
        let with_query =
            ExecutionSample { query: Some("count"), ..sample("a", &kernel, None, None) };
        m.record_execution(&with_query);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _labelled = m.labelled.lock();
            panic!("poison the labelled series");
        }));
        assert!(poisoned.is_err() && m.labelled.is_poisoned());
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _variants = m.query_variants.lock();
            panic!("poison the query variants");
        }));
        assert!(poisoned.is_err() && m.query_variants.is_poisoned());
        m.record_execution(&with_query);
        let snap = m.snapshot();
        let labels = PipelineMetrics::series_labels("a", RowEncoding::Dense);
        assert_eq!(snap.labelled_counter("tcim_executions_total", &labels), Some(2));
        assert_eq!(snap.labelled_counter("tcim_slice_pairs_total", &labels), Some(6));
        let count = "query=\"count\"";
        assert_eq!(snap.labelled_counter("tcim_query_variant_total", count), Some(2));
    }
}
