//! Summary statistics for Monte-Carlo output.

/// Mean of a sample (NaN for empty input is avoided by returning 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation (0 for fewer than two samples).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// The `p`-th percentile (0 < p ≤ 1) by the nearest-rank method.
/// Returns 0 for empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Half-width of a 95% normal-approximation confidence interval on the
/// mean.
pub fn ci95_halfwidth(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * stddev(xs) / (xs.len() as f64).sqrt()
}

/// A labelled (x, y) series — one curve of a figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label ("k = 3 (recovery)").
    pub label: String,
    /// The curve's points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Construct from label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y value at the given x (exact match), if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-12)
            .map(|&(_, y)| y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138089935299395).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(ci95_halfwidth(&[1.0]), 0.0);
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.99), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = vec![1.0, 2.0, 3.0, 4.0];
        let many: Vec<f64> = few.iter().cycle().take(400).cloned().collect();
        assert!(ci95_halfwidth(&many) < ci95_halfwidth(&few));
    }

    #[test]
    fn series_lookup() {
        let s = Series::new("k = 2", vec![(0.01, 0.1), (0.02, 0.2)]);
        assert_eq!(s.y_at(0.02), Some(0.2));
        assert_eq!(s.y_at(0.03), None);
        assert_eq!(s.label, "k = 2");
    }
}
