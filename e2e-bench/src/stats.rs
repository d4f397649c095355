//! Sample sets and the percentiles the report prints.

/// The percentiles a tail is reported at, highest first. A tail is the
/// highest of these with at least [`TAIL_BEYOND`] samples above it.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The median (mean of the two middle values for an even count);
    /// 0 for an empty set.
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        let n = sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank `pct` percentile; 0 for an empty set.
    pub fn percentile(&self, pct: f64) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0.0;
        }
        let rank =
            ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Samples strictly above the nearest-rank `pct` percentile.
    pub fn beyond(&self, pct: f64) -> usize {
        let cut = self.percentile(pct);
        self.values.iter().filter(|&&v| v > cut).count()
    }

    /// The highest ladder percentile with at least [`TAIL_BEYOND`]
    /// samples above it, as `(percentile, value)`; `None` when even the
    /// median has fewer.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .find(|&&pct| self.beyond(pct) >= TAIL_BEYOND)
            .map(|&pct| (pct, self.percentile(pct)))
    }

    /// `median · tail · n` for the human-readable report.
    pub fn summary(&self) -> String {
        let tail = match self.tail() {
            Some((pct, value)) => format!("p{pct}={value:.3}"),
            None => "tail=n/a".to_string(),
        };
        format!("p50={:.3} {tail} n={}", self.median(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(of([3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of([4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1..=1000: p99 = 990 with exactly 10 samples above it.
        let s = of((1..=1000).map(f64::from));
        assert_eq!(s.tail(), Some((99.0, 990.0)));
        // 100 samples: p90 is the highest with 10 beyond.
        let s = of((1..=100).map(f64::from));
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        // Too few samples for any tail.
        assert_eq!(of((1..=15).map(f64::from)).tail(), None);
    }
}
