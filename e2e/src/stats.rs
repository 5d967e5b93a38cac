//! Order statistics for the report: nearest-rank quantiles, the
//! median-of-fifths tail estimate, and Python-compatible quartiles for
//! run-to-run spread.

/// Sort a copy of `values` ascending (NaNs last; none are expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    quantile_sorted(&sorted(values), q)
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Tail estimate that one stall cannot own: split `in_time_order` into
/// five consecutive fifths, take quantile `q` of each, report the median
/// of the five. A single slow stretch of the run lands in one fifth and
/// is voted out; a tail that is really there shows in all five. Falls
/// back to the plain quantile below five samples.
pub fn median_of_fifths(in_time_order: &[f64], q: f64) -> Option<f64> {
    let n = in_time_order.len();
    if n < 5 {
        return quantile(in_time_order, q);
    }
    let per_fifth: Vec<f64> = (0..5)
        .filter_map(|i| quantile(&in_time_order[i * n / 5..(i + 1) * n / 5], q))
        .collect();
    median(&per_fifth)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the spread the driver
/// computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two samples).
pub fn iqr_share(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_median() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&v), Some(50.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_fifths_votes_out_one_bad_stretch() {
        // 500 samples at 1.0 with a 40-sample stall of 100.0 inside the
        // second fifth: the plain p99 is the stall, the voted p99 is not.
        let mut v = vec![1.0; 500];
        for x in &mut v[120..160] {
            *x = 100.0;
        }
        assert_eq!(quantile(&v, 0.99), Some(100.0));
        assert_eq!(median_of_fifths(&v, 0.99), Some(1.0));
        // A tail present everywhere survives the vote.
        let w: Vec<f64> = (0..500)
            .map(|i| if i % 20 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(median_of_fifths(&w, 0.99), Some(9.0));
        assert_eq!(median_of_fifths(&[4.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
