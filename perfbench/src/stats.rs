//! Sample summaries: the median, and the highest percentile that still
//! has at least ten samples beyond it.

/// Samples a tail percentile must leave beyond itself before it is
/// reported; with fewer, the tail is noise and only the median is given.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail is reported at, in tenths of a percent,
/// highest first (integers, so ranks are exact).
const TAIL_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The median of `samples` (mean of the middle two for an even count);
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The highest of 75/90/95/99/99.9 whose nearest-rank value has at least
/// [`MIN_BEYOND`] samples above its rank, as `(percentile, value)`.
/// `None` when even the 75th percentile has too few samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PERMILLE.iter().find_map(|&pm| {
        // Nearest rank: the smallest 1-based rank covering pm/1000 of
        // the samples.
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (pm as f64 / 10.0, sorted[rank - 1]))
    })
}

/// A named series of samples with its unit, summarised for the report.
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The raw samples.
    pub samples: Vec<f64>,
    /// Measurements behind the value: the sample count, or for a
    /// total, the operations it was summed over.
    pub basis: usize,
}

impl Series {
    /// An empty series.
    pub fn new(name: &'static str, unit: &'static str) -> Series {
        Series {
            name,
            unit,
            samples: Vec::new(),
            basis: 0,
        }
    }

    /// A series of the given samples.
    pub fn of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Series {
        let basis = samples.len();
        Series {
            name,
            unit,
            samples,
            basis,
        }
    }

    /// A series holding one value aggregated over `basis` measurements.
    pub fn total(name: &'static str, unit: &'static str, value: f64, basis: usize) -> Series {
        Series {
            name,
            unit,
            samples: vec![value],
            basis,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.basis += 1;
    }

    /// The reported value: the median, or 0 for a series with no samples
    /// (a layer the workload never crosses).
    pub fn value(&self) -> f64 {
        median(&self.samples).unwrap_or(0.0)
    }

    /// One human-readable line: value, unit, sample count and tail.
    pub fn describe(&self) -> String {
        let tail = match tail(&self.samples) {
            Some((p, v)) => format!(", p{p} {v:.6}"),
            None => String::new(),
        };
        format!(
            "{:<28} {:>14.6} {:<6} (n = {}{tail})",
            self.name,
            self.value(),
            self.unit,
            self.basis
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn no_tail_without_ten_samples_beyond_the_75th() {
        // 75th percentile of 39 samples is rank 30: only 9 beyond.
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(5)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 40 samples: p75 is rank 30 with exactly 10 beyond; p90 has 4.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 has 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 is rank 9990 with 10 beyond.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 1..400 {
            let samples = ramp(n);
            if let Some((_, v)) = tail(&samples) {
                let beyond = samples.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            }
        }
    }

    #[test]
    fn empty_series_reports_zero() {
        let s = Series::new("x", "s");
        assert_eq!(s.value(), 0.0);
        assert!(s.describe().contains("n = 0"));
    }
}
