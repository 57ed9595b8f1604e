//! The timing estimator: best-of-N over many short iterations.
//!
//! Interference on a shared host is one-sided — a neighbour can only
//! make an iteration slower — and every workload here is deterministic,
//! so the fastest iteration is the one closest to the program's own
//! cost. The median and the 66th percentile are printed beside it (p66
//! is the highest percentile that still has ten samples beyond it at
//! the ~30 iterations a run makes).

/// The three fastest samples must lie within this share of the fastest
/// for a run to count as settled.
pub const SETTLE_BAND: f64 = 0.03;

/// What one run's timed iterations reduce to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The fastest sample — the reported value.
    pub fastest: f64,
    /// The median sample.
    pub median: f64,
    /// The 66th-percentile sample.
    pub p66: f64,
    /// Number of samples.
    pub n: usize,
    /// Whether the three fastest samples agree within [`SETTLE_BAND`].
    pub settled: bool,
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Whether the three fastest of `samples` lie within [`SETTLE_BAND`] of
/// the fastest. Fewer than three samples never settle.
pub fn settled(samples: &[f64]) -> bool {
    let sorted = ascending(samples);
    sorted.len() >= 3 && sorted[2] <= sorted[0] * (1.0 + SETTLE_BAND)
}

/// Reduce the wall times of a run's iterations (seconds, lower is
/// better).
pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = ascending(samples);
    Summary {
        fastest: sorted[0],
        median: quantile(&sorted, 0.5),
        p66: quantile(&sorted, 0.66),
        n: sorted.len(),
        settled: settled(samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_ignores_one_sided_interference() {
        // A steady 1.00 s program under interference that only ever adds
        // time: the minimum recovers the program's cost, the median
        // does not.
        let samples = [1.31, 1.002, 1.25, 1.0, 1.9, 1.001, 1.4, 1.12];
        let s = summarize(&samples);
        assert_eq!(s.fastest, 1.0);
        assert!(s.median > 1.1, "median {}", s.median);
        assert_eq!(s.n, 8);
        assert!(s.settled);
    }

    #[test]
    fn settle_rule_needs_three_agreeing_fastest() {
        assert!(!settled(&[1.0, 1.0]), "two samples cannot settle");
        assert!(settled(&[1.0, 1.02, 1.03, 5.0]));
        assert!(!settled(&[1.0, 1.02, 1.031, 1.031]));
        // One lucky outlier below the pack is not a settled minimum.
        assert!(!settled(&[0.9, 1.0, 1.0, 1.0, 1.0]));
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 1.0), 5.0);
        assert!((quantile(&sorted, 0.66) - 3.64).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = summarize(&[3.0, 1.0, 2.0, 1.01, 1.02]);
        let b = summarize(&[1.02, 2.0, 1.01, 3.0, 1.0]);
        assert_eq!(a, b);
    }
}
