//! Order statistics for op latencies: median, quartile spread, and the
//! tail rule ("the highest percentile that still has at least ten samples
//! beyond it").

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle elements for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// benchmark driver computes spreads with. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against. 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The diagnostic tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`), 0 when the sample is too small.
    pub pct: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples strictly beyond its rank.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut best = Tail {
        pct: 0.0,
        value: 0.0,
        samples: n,
    };
    for pct in [50.0, 90.0, 99.0, 99.9, 99.99] {
        // Nearest-rank percentile: the smallest sample with at least pct %
        // of the sample at or below it.
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || rank > n || n - rank < TAIL_SAMPLES_BEYOND {
            break;
        }
        best.pct = pct;
        best.value = v[rank - 1];
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p50 is rank 10, 9 beyond -> nothing qualifies.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 0.0);
        // 20 samples: p50 is rank 10 with 10 beyond; p90 is rank 18, 2 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
        // 100 samples: p90 = rank 90, exactly 10 beyond; p99 has 1 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 1000 samples: p99 = rank 990, 10 beyond; p99.9 has 1 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 999 samples: p99 = rank 990, 9 beyond -> falls back to p90.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 90.0);
    }
}
