//! Access statistics: the quantities behind Fig. 5 and the paper's
//! 72 %-fewer-WRITEs claim.

use std::fmt;

/// Counters accumulated over one Algorithm 1 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStats {
    /// Edges (non-zero adjacency elements) processed.
    pub edges: u64,
    /// Valid slice pairs computed (`AND` operations issued).
    pub and_ops: u64,
    /// `BitCount` operations issued (one per AND).
    pub bitcount_ops: u64,
    /// Row slices written into the reserved row region.
    pub row_slice_writes: u64,
    /// Column-slice accesses that hit in the array.
    pub col_hits: u64,
    /// Column-slice accesses that missed and loaded into free space.
    pub col_misses: u64,
    /// Column-slice misses that additionally evicted a victim
    /// (the paper's "data exchange").
    pub col_exchanges: u64,
    /// AND-result slices read back out of the array. Zero for plain
    /// counting (the bit counter consumes the result in place); non-zero
    /// for local (per-vertex) counting, which must see *which* bits
    /// survived the AND.
    pub result_readouts: u64,
    /// Mutually valid slice pairs the sparse row encoding's byte-mask
    /// filter proved zero and skipped before the AND. Always zero on
    /// dense matrices; `and_ops + blocks_skipped` is the pair count the
    /// dense encoding would have computed.
    pub blocks_skipped: u64,
}

impl AccessStats {
    /// Total column-slice accesses (hits + misses + exchanges).
    pub fn col_accesses(&self) -> u64 {
        self.col_hits + self.col_misses + self.col_exchanges
    }

    /// Fraction of column accesses served without a WRITE — Fig. 5's
    /// "Data Hit" share. It is also the fraction of WRITEs that data
    /// reuse eliminated, relative to reloading every column slice on
    /// every access: the paper's "saves on average 72 % memory WRITE
    /// operations".
    pub fn hit_rate(&self) -> f64 {
        ratio(self.col_hits, self.col_accesses())
    }

    /// Fig. 5's "Data Miss" share (first-time loads into free space).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.col_misses, self.col_accesses())
    }

    /// Fig. 5's "Data Exchange" share (loads that evicted a victim).
    pub fn exchange_rate(&self) -> f64 {
        ratio(self.col_exchanges, self.col_accesses())
    }

    /// Total WRITE operations into the computational array.
    pub fn total_writes(&self) -> u64 {
        self.row_slice_writes + self.col_misses + self.col_exchanges
    }

    /// Accumulates another run's counters into `self` — the aggregation
    /// multi-array schedulers apply over per-array statistics. Lives
    /// here so a new counter field cannot be silently dropped from
    /// aggregates elsewhere.
    pub fn merge(&mut self, other: &AccessStats) {
        let AccessStats {
            edges,
            and_ops,
            bitcount_ops,
            row_slice_writes,
            col_hits,
            col_misses,
            col_exchanges,
            result_readouts,
            blocks_skipped,
        } = *other;
        self.edges += edges;
        self.and_ops += and_ops;
        self.bitcount_ops += bitcount_ops;
        self.row_slice_writes += row_slice_writes;
        self.col_hits += col_hits;
        self.col_misses += col_misses;
        self.col_exchanges += col_exchanges;
        self.result_readouts += result_readouts;
        self.blocks_skipped += blocks_skipped;
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "edges {} / AND {} / row-writes {} / col hit {:.1}% miss {:.1}% exch {:.1}%",
            self.edges,
            self.and_ops,
            self.row_slice_writes,
            100.0 * self.hit_rate(),
            100.0 * self.miss_rate(),
            100.0 * self.exchange_rate(),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessStats {
        AccessStats {
            edges: 10,
            and_ops: 40,
            bitcount_ops: 40,
            row_slice_writes: 12,
            col_hits: 30,
            col_misses: 8,
            col_exchanges: 2,
            result_readouts: 0,
            blocks_skipped: 0,
        }
    }

    #[test]
    fn rates_sum_to_one() {
        let s = sample();
        let total = s.hit_rate() + s.miss_rate() + s.exchange_rate();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_accounting() {
        let s = sample();
        assert_eq!(s.total_writes(), 12 + 8 + 2);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = AccessStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.col_accesses(), 0);
        assert_eq!(s.total_writes(), 0);
    }

    #[test]
    fn display_is_informative() {
        let text = sample().to_string();
        assert!(text.contains("edges 10"));
        assert!(text.contains("75.0%"));
    }
}
