//! Sample summaries and the small arithmetic the metrics are built from.

use std::time::Duration;

/// The fewest samples that must lie strictly beyond a reported percentile:
/// a p90 read from fewer than this many tail samples is a guess, not a
/// measurement, so [`percentile`] refuses it.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Clone, Debug, PartialEq)]
pub enum PercentileError {
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested rank.
    TooFewBeyond {
        /// The requested quantile, in `(0, 1)`.
        q: f64,
        /// Samples available.
        count: usize,
        /// Samples beyond the percentile's rank.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::TooFewBeyond { q, count, beyond } => write!(
                f,
                "p{} of {count} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0
            ),
        }
    }
}

/// The nearest-rank `q`-quantile of `samples` (sorted in place): the value
/// at 1-based rank `ceil(q * n)`. Refuses when fewer than [`MIN_BEYOND`]
/// samples rank above it.
pub fn percentile(samples: &mut [f64], q: f64) -> Result<f64, PercentileError> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let count = samples.len();
    let rank = ((q * count as f64).ceil() as usize).max(1);
    let beyond = count.saturating_sub(rank);
    if count == 0 || beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { q, count, beyond });
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[rank - 1])
}

/// The median of a small sample set that needs no tail (set-up repetitions,
/// per-election layer times): the middle value, or the mean of the two
/// middle values. `None` for an empty set.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    Some(if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    })
}

/// `part / whole`, or `None` when `whole` is zero (a share of nothing is
/// undefined, not zero).
pub fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole != 0.0).then(|| part / whole)
}

/// Milliseconds the transport adds to a request: the client's median round
/// trip minus the median in-process cost of serving the same request line.
pub fn transport_gap_ms(rtt_p50_ms: f64, inproc_p50_us: f64) -> f64 {
    rtt_p50_ms - inproc_p50_us / 1_000.0
}

/// Per-cent by which `traced` exceeds `plain`: `(traced / plain - 1) * 100`.
pub fn overhead_pct(traced: f64, plain: f64) -> Option<f64> {
    ratio(traced, plain).map(|r| (r - 1.0) * 100.0)
}

/// A duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in fractional microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 100 samples: p90 sits at rank 90 with exactly 10 beyond it.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.9), Ok(90.0));
        // 99 samples: rank ceil(89.1) = 90 leaves only 9 beyond.
        let mut samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&mut samples, 0.9),
            Err(PercentileError::TooFewBeyond {
                q: 0.9,
                count: 99,
                beyond: 9
            })
        );
        assert!(percentile(&mut [], 0.5).is_err());
    }

    #[test]
    fn percentile_sorts_and_uses_nearest_rank() {
        let mut samples: Vec<f64> = (0..25).rev().map(f64::from).collect();
        // rank ceil(12.5) = 13 -> the 13th smallest of 0..25 is 12.
        assert_eq!(percentile(&mut samples, 0.5), Ok(12.0));
        assert_eq!(samples.first(), Some(&0.0), "sorted in place");
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn gap_and_ratio_arithmetic() {
        // 88 ms round trip against 25 us of in-process work.
        assert!((transport_gap_ms(88.0, 25.0) - 87.975).abs() < 1e-12);
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(1.0, 0.0), None);
        let pct = overhead_pct(10.2, 10.0).expect("non-zero base");
        assert!((pct - 2.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), None);
        assert!((ms(Duration::from_micros(1500)) - 1.5).abs() < 1e-12);
        assert!((us(Duration::from_nanos(2500)) - 2.5).abs() < 1e-12);
    }
}
