//! Sample summaries: median, quartiles, and p90 where it is resolvable.

/// The spread record kept for every timed metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile, only when at least ten samples lie beyond it.
    pub p90: Option<f64>,
}

/// Linear-interpolation quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let beyond_p90 = n - (0.9 * n as f64).ceil() as usize;
    Some(Summary {
        n,
        q1: quantile(&s, 0.25),
        p50: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        p90: (beyond_p90 >= 10).then(|| quantile(&s, 0.9)),
    })
}

/// Arithmetic mean; 0 for no samples (a layer the workload never calls).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_and_p90_needs_ten_beyond() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.p50, s.q3), (1.75, 2.5, 3.25));
        assert!(s.p90.is_none());
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        let s = summarize(&many).expect("non-empty");
        assert!((s.p90.expect("100 samples resolve p90") - 89.1).abs() < 1e-9);
        assert!(summarize(&many[..99]).expect("non-empty").p90.is_none());
    }
}
