//! Order statistics on exact samples.
//!
//! Latencies are kept as exact `u64` nanosecond samples and reduced
//! here; nothing in the benchmark goes through the product's
//! power-of-two histogram, which cannot resolve a tail (ROADMAP item 2).

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median absolute deviation as a share of the median: the dispersion
/// printed beside every repetition median.
pub fn mad_share(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    if m == 0.0 {
        return None;
    }
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    Some(median(&dev)? / m.abs())
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the acceptance rule uses.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(&v)?;
    if m == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_share_on_known_vector() {
        // median 10, deviations {2,1,0,1,5} → MAD 1 → 0.1.
        assert_eq!(mad_share(&[8.0, 9.0, 10.0, 11.0, 15.0]), Some(0.1));
        assert_eq!(mad_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
