//! Summaries over the repository's one latency histogram
//! (`kex_bench::contend::LatencyHist`) and over per-window figures.

use kex_bench::contend::LatencyHist;

/// Sub-buckets per power of two in `LatencyHist`; values below
/// `2 * SUBS` have a bucket each.
const SUBS: u64 = 16;

/// The `q`-quantile of `h` in ns, interpolated linearly inside its
/// bucket.
///
/// `LatencyHist::percentile` answers with a bucket's midpoint, so on its
/// own a median moves in steps of 1/16 of its value and two runs often
/// read exactly the same. This finds the ranks the bucket spans (by
/// bisection on `percentile`, which is monotone in its rank) and places
/// the requested rank proportionally inside the bucket's value range.
/// 0 for an empty histogram.
pub fn quantile(h: &LatencyHist, q: f64) -> f64 {
    let n = h.samples();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    // `(r - 0.5) / n` makes `percentile` pick exactly rank `r`.
    let at = |r: u64| h.percentile((r as f64 - 0.5) / n as f64);
    let mid = at(rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let m = (lo + hi) / 2;
        if at(m) == mid {
            hi = m;
        } else {
            lo = m + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let m = (lo + hi).div_ceil(2);
        if at(m) == mid {
            lo = m;
        } else {
            hi = m - 1;
        }
    }
    let last = lo;
    let (low, width) = bucket_range(mid);
    low + width * ((rank - first) as f64 + 0.5) / ((last - first + 1) as f64)
}

/// Lower edge and width of the bucket whose midpoint is `mid`.
fn bucket_range(mid: u64) -> (f64, f64) {
    if mid < 2 * SUBS {
        return (mid as f64 - 0.5, 1.0);
    }
    let major = 63 - mid.leading_zeros();
    let width = 1u64 << (major - SUBS.trailing_zeros());
    ((mid - width / 2) as f64, width as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> LatencyHist {
        let mut h = LatencyHist::new();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn quantiles_of_uniform_data_are_close_to_exact() {
        // 1000..=1999 ns. Buckets that the data fills evenly interpolate
        // almost exactly; the top bucket [1984, 2048) is only partly
        // filled, so there the error is bounded by the bucket width.
        let h = hist(1000..2000);
        for (q, exact, tolerance) in [(0.5, 1499.5, 2.0), (0.1, 1099.5, 2.0), (0.99, 1989.5, 64.0)]
        {
            let got = quantile(&h, q);
            assert!((got - exact).abs() < tolerance, "q={q}: {got} vs {exact}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = hist([3, 3, 3, 7, 7, 9, 9, 9, 9, 9]);
        assert!((quantile(&h, 0.5) - 7.0).abs() <= 0.5);
        assert!((quantile(&h, 0.2) - 3.0).abs() <= 0.5);
        assert!((quantile(&h, 1.0) - 9.0).abs() <= 0.5);
    }

    #[test]
    fn interpolation_moves_inside_one_bucket() {
        // 256..=271 share one bucket. The median falls in it for both
        // histograms, so `percentile` reads the same; the interpolated
        // quantile tracks how much of the mass lies below.
        let low = hist((0..100).map(|i| if i < 60 { 260 } else { 300 }));
        let high = hist((0..100).map(|i| if i < 50 { 260 } else { 300 }));
        assert_eq!(low.percentile(0.5), high.percentile(0.5));
        assert!(quantile(&low, 0.5) < quantile(&high, 0.5));
        for h in [&low, &high] {
            let q = quantile(h, 0.5);
            assert!((256.0..272.0).contains(&q), "{q}");
        }
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(quantile(&LatencyHist::new(), 0.5), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
