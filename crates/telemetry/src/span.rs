//! Zero-cost-when-disabled hierarchical tracing spans.
//!
//! The facade has two halves:
//!
//! * [`span`] — an RAII guard that times a named phase. When no
//!   profiler is installed on the current thread it does a single
//!   thread-local check and nothing else, so instrumented code pays
//!   essentially nothing in the common (disabled) case.
//! * [`profile`] — installs a per-thread collector for the duration of
//!   one closure (one request, one batch, one bench iteration) and
//!   returns every span recorded inside it as a [`ProfileReport`].
//!   Profiling is scoped per call rather than toggled globally, so
//!   concurrent requests — and Rust's parallel test threads — never
//!   observe each other's spans.
//!
//! A finished profile can also be mirrored into a global bounded
//! flight-recorder ring ([`set_flight_recorder`] / [`recent_spans`])
//! for post-hoc inspection of the last N spans process-wide.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::ring::BoundedRing;

/// One timed span recorded under a [`profile`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static phase name (e.g. `"slice"`, `"compose"`).
    pub name: &'static str,
    /// Nesting depth below the profile root (root itself is depth 0).
    pub depth: u16,
    /// Start offset from the beginning of the enclosing profile.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub elapsed: Duration,
    /// Process-unique id of the enclosing [`profile`] call, so spans
    /// from interleaved requests stay attributable after they are
    /// mixed in the flight recorder or a merged trace export.
    pub trace_id: u64,
}

struct Collector {
    root: &'static str,
    origin: Instant,
    depth: u16,
    trace_id: u64,
    records: Vec<SpanRecord>,
}

/// Monotonic allocator for [`SpanRecord::trace_id`]; ids start at 1 so
/// 0 never names a real trace.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

static FLIGHT: Mutex<Option<BoundedRing<SpanRecord>>> = Mutex::new(None);

/// Everything recorded by one [`profile`] call.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Name passed to [`profile`].
    pub root: &'static str,
    /// Process-unique id allocated for this profile; every span in
    /// [`ProfileReport::spans`] carries the same value.
    pub trace_id: u64,
    /// Total wall-clock time of the profiled closure.
    pub total: Duration,
    /// Spans recorded inside the closure, in completion order.
    pub spans: Vec<SpanRecord>,
}

/// Time attributed to one named phase of a [`PhaseBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTime {
    /// Phase name.
    pub name: &'static str,
    /// Summed wall-clock time across all spans with this name.
    pub total: Duration,
    /// Number of spans aggregated.
    pub count: u64,
}

/// A flat per-phase time breakdown derived from a [`ProfileReport`]:
/// depth-1 spans aggregated by name, in first-appearance order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Total wall-clock time of the profiled region.
    pub total: Duration,
    /// Top-level phases in first-appearance order.
    pub phases: Vec<PhaseTime>,
}

impl PhaseBreakdown {
    /// Summed time of all top-level phases (untracked time is
    /// `total - phase_sum()`).
    pub fn phase_sum(&self) -> Duration {
        self.phases.iter().map(|p| p.total).sum()
    }
}

impl ProfileReport {
    /// Aggregates the report's depth-1 spans into a flat per-phase
    /// breakdown.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut phases: Vec<PhaseTime> = Vec::new();
        for record in self.spans.iter().filter(|s| s.depth == 1) {
            match phases.iter_mut().find(|p| p.name == record.name) {
                Some(phase) => {
                    phase.total += record.elapsed;
                    phase.count += 1;
                }
                None => phases.push(PhaseTime {
                    name: record.name,
                    total: record.elapsed,
                    count: 1,
                }),
            }
        }
        PhaseBreakdown { total: self.total, phases }
    }
}

/// RAII guard produced by [`span`]; records the span on drop.
#[must_use = "a span is timed from creation until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    // `None` when no profiler is installed on this thread.
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    depth: u16,
    start_offset: Duration,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.started.elapsed();
        COLLECTOR.with(|slot| {
            if let Some(collector) = slot.borrow_mut().as_mut() {
                collector.records.push(SpanRecord {
                    name: active.name,
                    depth: active.depth,
                    start: active.start_offset,
                    elapsed,
                    trace_id: collector.trace_id,
                });
                collector.depth = collector.depth.saturating_sub(1);
            }
        });
    }
}

/// Opens a named span on the current thread. A no-op unless a
/// [`profile`] is active on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    let active = COLLECTOR.with(|slot| {
        slot.borrow_mut().as_mut().map(|collector| {
            collector.depth += 1;
            ActiveSpan {
                name,
                depth: collector.depth,
                start_offset: collector.origin.elapsed(),
                started: Instant::now(),
            }
        })
    });
    SpanGuard { active }
}

// Uninstalls the thread-local collector even if the profiled closure
// panics, so a poisoned request can't leak spans into the next one.
struct Uninstall;

impl Drop for Uninstall {
    fn drop(&mut self) {
        COLLECTOR.with(|slot| slot.borrow_mut().take());
    }
}

/// Runs `f` with span collection enabled on the current thread and
/// returns its result together with the recorded [`ProfileReport`].
///
/// Returns `None` for the report when a profile is already active on
/// this thread (the inner call's spans then attach to the outer
/// profile instead of starting a new one).
pub fn profile<R>(root: &'static str, f: impl FnOnce() -> R) -> (R, Option<ProfileReport>) {
    let installed = COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(Collector {
            root,
            origin: Instant::now(),
            depth: 0,
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            records: Vec::new(),
        });
        true
    });
    if !installed {
        return (f(), None);
    }
    let guard = Uninstall;
    let result = f();
    let collector = COLLECTOR.with(|slot| slot.borrow_mut().take());
    std::mem::forget(guard);
    let report = collector.map(|collector| {
        let total = collector.origin.elapsed();
        let mut spans = collector.records;
        spans.push(SpanRecord {
            name: collector.root,
            depth: 0,
            start: Duration::ZERO,
            elapsed: total,
            trace_id: collector.trace_id,
        });
        let report =
            ProfileReport { root: collector.root, trace_id: collector.trace_id, total, spans };
        record_flight(&report);
        report
    });
    (result, report)
}

/// Sizes the global flight-recorder ring that mirrors every completed
/// [`profile`]'s spans (capacity 0 disables it and clears any retained
/// spans).
pub fn set_flight_recorder(capacity: usize) {
    let mut flight = FLIGHT.lock().expect("flight recorder lock");
    *flight = if capacity == 0 { None } else { Some(BoundedRing::new(capacity)) };
}

/// The most recent spans retained by the flight recorder, oldest
/// first (empty when the recorder is disabled).
pub fn recent_spans() -> Vec<SpanRecord> {
    let flight = FLIGHT.lock().expect("flight recorder lock");
    flight.as_ref().map(|ring| ring.iter().copied().collect()).unwrap_or_default()
}

/// Health counters of the global flight recorder, for export as
/// metrics (`tcim_spans_dropped_total`, capacity/occupancy gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightRecorderStats {
    /// Configured ring capacity (0 when the recorder is disabled).
    pub capacity: usize,
    /// Spans currently retained.
    pub retained: usize,
    /// Spans evicted since the recorder was last (re)sized — silent
    /// span loss made visible.
    pub dropped: u64,
}

/// Reads the flight recorder's health counters (all zero when the
/// recorder is disabled).
pub fn flight_recorder_stats() -> FlightRecorderStats {
    let flight = FLIGHT.lock().expect("flight recorder lock");
    flight
        .as_ref()
        .map(|ring| FlightRecorderStats {
            capacity: ring.capacity(),
            retained: ring.len(),
            dropped: ring.dropped(),
        })
        .unwrap_or_default()
}

fn record_flight(report: &ProfileReport) {
    let mut flight = FLIGHT.lock().expect("flight recorder lock");
    if let Some(ring) = flight.as_mut() {
        for span in &report.spans {
            ring.push(*span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_profile_is_a_no_op() {
        let no_collector = || COLLECTOR.with(|slot| slot.borrow().is_none());
        assert!(no_collector(), "a test thread starts with no profile");
        // A disabled guard holds no `ActiveSpan`: no clock was read and
        // no depth was counted, so dropping it returns at once.
        let outer = span("orphan");
        assert!(outer.active.is_none());
        let nested: Vec<SpanGuard> = (0..1_000).map(|_| span("orphan")).collect();
        assert!(nested.iter().all(|guard| guard.active.is_none()));
        drop(nested);
        drop(outer);
        assert!(no_collector(), "dropping disabled guards installs no collector");
        // A later profile holds none of them, only its own root.
        let (_, report) = profile("empty", || ());
        let spans = report.expect("top-level profile").spans;
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].depth), ("empty", 0));
    }

    #[test]
    fn profile_collects_nested_spans() {
        let ((), report) = profile("query", || {
            let _execute = span("execute");
            {
                let _shard = span("shard");
                std::hint::black_box(0u64);
            }
            let _compose = span("compose");
        });
        let report = report.expect("top-level profile");
        assert_eq!(report.root, "query");
        let names: Vec<_> = report.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert!(names.contains(&("shard", 2)));
        assert!(names.contains(&("execute", 1)));
        assert!(names.contains(&("compose", 2)));
        assert!(names.contains(&("query", 0)));
    }

    #[test]
    fn sibling_spans_sit_at_equal_depth() {
        let ((), report) = profile("round", || {
            drop(span("delta"));
            drop(span("fold"));
        });
        let report = report.expect("top-level profile");
        let depths: Vec<_> =
            report.spans.iter().filter(|s| s.depth > 0).map(|s| s.depth).collect();
        assert_eq!(depths, vec![1, 1]);
    }

    #[test]
    fn breakdown_aggregates_depth_one_by_name() {
        let ((), report) = profile("loop", || {
            for _ in 0..3 {
                drop(span("step"));
            }
            drop(span("finish"));
        });
        let breakdown = report.expect("top-level profile").breakdown();
        assert_eq!(breakdown.phases.len(), 2);
        assert_eq!(breakdown.phases[0].name, "step");
        assert_eq!(breakdown.phases[0].count, 3);
        assert_eq!(breakdown.phases[1].name, "finish");
        assert!(breakdown.phase_sum() <= breakdown.total);
    }

    #[test]
    fn nested_profile_returns_no_report() {
        let ((), outer) = profile("outer", || {
            let ((), inner) = profile("inner", || drop(span("work")));
            assert!(inner.is_none());
        });
        let outer = outer.expect("outer profile");
        // The inner profile's spans attach to the outer collector.
        assert!(outer.spans.iter().any(|s| s.name == "work"));
    }

    #[test]
    fn trace_ids_are_unique_per_profile_and_shared_by_spans() {
        let ((), first) = profile("first", || drop(span("work")));
        let ((), second) = profile("second", || drop(span("work")));
        let first = first.expect("top-level profile");
        let second = second.expect("top-level profile");
        assert_ne!(first.trace_id, 0);
        assert_ne!(first.trace_id, second.trace_id);
        for report in [&first, &second] {
            assert!(report.spans.iter().all(|s| s.trace_id == report.trace_id));
        }
    }

    #[test]
    fn panic_inside_profile_uninstalls_collector() {
        let caught = std::panic::catch_unwind(|| {
            profile("doomed", || panic!("boom"));
        });
        assert!(caught.is_err());
        let ((), report) = profile("after", || ());
        assert!(report.is_some(), "collector must be free after a panic");
    }
}
