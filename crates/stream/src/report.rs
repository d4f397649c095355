//! Streaming accounting: per-update deltas, per-batch outcomes and the
//! cumulative [`StreamReport`] — the dynamic-workload counterpart of
//! `tcim-core`'s per-execution `ExecutionReport`.

use std::fmt;
use std::time::Duration;

use crate::error::StreamError;
use crate::update::Update;

/// The outcome of one accepted update: its triangle delta and the PIM
/// kernel work that computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// The update (normalized endpoint order).
    pub update: Update,
    /// Signed triangle delta: `+|N(u) ∩ N(v)|` for insertions,
    /// `−|N(u) ∩ N(v)|` for deletions.
    pub triangles: i64,
    /// Valid slice pairs the delta kernel processed (the AND + BitCount
    /// passes of this update).
    pub slice_pairs: u64,
    /// The intra-batch round the kernel executed in.
    pub round: usize,
}

/// An update rejected by batch validation, with the reason. The batch
/// continues past rejections — they consume no kernel work and leave
/// the graph untouched.
#[derive(Debug)]
pub struct Rejected {
    /// The offending update as submitted.
    pub update: Update,
    /// Why it was rejected.
    pub error: StreamError,
}

/// The outcome of applying one [`UpdateBatch`](crate::UpdateBatch).
#[derive(Debug)]
pub struct BatchReport {
    /// Per accepted update, in submission order.
    pub deltas: Vec<Delta>,
    /// Updates rejected by validation, in submission order.
    pub rejected: Vec<Rejected>,
    /// Endpoint-disjoint rounds the batch was partitioned into.
    pub rounds: usize,
    /// Modelled kernel time of the batch (s): the sum over rounds of
    /// each round's critical path across arrays.
    pub modelled_kernel_s: f64,
    /// Whether the drift policy folded the state after this batch.
    pub folded: bool,
    /// The maintained triangle count after the batch.
    pub triangles: u64,
}

impl BatchReport {
    /// Number of updates actually applied.
    pub fn applied(&self) -> usize {
        self.deltas.len()
    }

    /// The batch's net triangle delta.
    pub fn net_delta(&self) -> i64 {
        self.deltas.iter().map(|d| d.triangles).sum()
    }
}

/// Cumulative accounting over the life of a
/// [`DynamicGraph`](crate::DynamicGraph): deltas applied, kernel
/// invocations, rebuilds and amortized per-update cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamReport {
    /// Edge insertions applied.
    pub inserts: u64,
    /// Edge deletions applied.
    pub deletes: u64,
    /// Updates rejected by validation.
    pub rejected: u64,
    /// Batches applied.
    pub batches: u64,
    /// Endpoint-disjoint rounds executed across all batches.
    pub rounds: u64,
    /// Delta-kernel invocations (one AND + BitCount kernel per applied
    /// update).
    pub kernel_invocations: u64,
    /// Valid slice pairs processed across all delta kernels.
    pub slice_pairs: u64,
    /// Folds back into a fresh prepared artifact (re-slices).
    pub rebuilds: u64,
    /// Modelled kernel time across all batches (s).
    pub modelled_kernel_s: f64,
    /// Host wall-clock time spent applying updates (validation, kernels,
    /// row patching).
    pub host_update_time: Duration,
    /// Host wall-clock time spent folding (snapshot + re-prepare).
    pub host_rebuild_time: Duration,
}

impl StreamReport {
    /// Total updates applied (insertions + deletions).
    pub fn updates_applied(&self) -> u64 {
        self.inserts + self.deletes
    }

    /// Modelled kernel time amortized per applied update (s), `0.0`
    /// before any update was applied.
    pub fn amortized_kernel_s(&self) -> f64 {
        let n = self.updates_applied();
        if n == 0 {
            0.0
        } else {
            self.modelled_kernel_s / n as f64
        }
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} updates (+{} −{}, {} rejected) in {} batches/{} rounds: \
             {} kernels over {} slice pairs, {} rebuilds, \
             {:.3e} s modelled ({:.3e} s/update)",
            self.updates_applied(),
            self.inserts,
            self.deletes,
            self.rejected,
            self.batches,
            self.rounds,
            self.kernel_invocations,
            self.slice_pairs,
            self.rebuilds,
            self.modelled_kernel_s,
            self.amortized_kernel_s(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_divides_by_applied_updates() {
        let mut r = StreamReport { inserts: 3, deletes: 1, ..StreamReport::default() };
        r.modelled_kernel_s = 8.0;
        assert_eq!(r.updates_applied(), 4);
        assert_eq!(r.amortized_kernel_s(), 2.0);
        assert_eq!(StreamReport::default().amortized_kernel_s(), 0.0);
    }

    #[test]
    fn display_mentions_the_key_counters() {
        let r = StreamReport {
            inserts: 2,
            deletes: 1,
            rejected: 1,
            batches: 1,
            rounds: 2,
            kernel_invocations: 3,
            slice_pairs: 9,
            rebuilds: 1,
            ..StreamReport::default()
        };
        let text = r.to_string();
        assert!(text.contains("3 updates"));
        assert!(text.contains("1 rejected"));
        assert!(text.contains("1 rebuilds"));
    }
}
