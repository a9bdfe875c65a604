//! The benchmark's one statistics module: median, quartiles, the tail
//! percentile rule, and run-to-run spread.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is the function the acceptance check
//! of this benchmark uses; computing them any other way would make
//! `aa.sh` disagree with it on small samples.

/// A sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("statistics over NaN-free samples"));
    v
}

/// The median (mean of the two middle values for an even count); 0.0 for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, as
/// `statistics.quantiles(values, n=4)` gives them. `None` below two
/// samples, where that function raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // j = i·(n+1) div 4, clamped to [1, n-1]; delta = i·(n+1) − 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median. `None` below two samples or for a zero median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The tail to report for a latency sample: the highest of p75/p90/p95/p99
/// that still has at least ten samples beyond it, as `(percentile, value)`
/// with the value taken by nearest rank. `None` when even p75 has fewer
/// than ten samples above it (under 40 samples) — a tail that thin is one
/// or two outliers, not a percentile.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    [99usize, 95, 90, 75].into_iter().find_map(|pct| {
        let beyond = n * (100 - pct) / 100;
        let rank = (pct * n).div_ceil(100).clamp(1, n.max(1));
        (beyond >= 10).then(|| (pct as u32, v[rank - 1]))
    })
}

/// How much worse `b` is than `a`, as a share of `a`: positive means worse.
/// `higher_is_better` flips the sign for rates.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some([15.0, 30.0, 45.0])
        );
        // statistics.quantiles([3.1, 0.4, 9.9, 2.2, 7.5, 5.0, 1.8], n=4)
        assert_eq!(
            quartiles(&[3.1, 0.4, 9.9, 2.2, 7.5, 5.0, 1.8]),
            Some([1.8, 3.1, 7.5])
        );
        // Ten unsorted, uneven values: [120.725, 123.7, 126.75] in Python.
        let runs = [
            124.1, 118.7, 129.3, 121.0, 126.4, 123.3, 119.9, 127.8, 125.5, 122.2,
        ];
        let [q1, q2, q3] = quartiles(&runs).expect("ten samples");
        assert!((q1 - 120.725).abs() < 1e-9 && (q2 - 123.7).abs() < 1e-9);
        assert!((q3 - 126.75).abs() < 1e-9);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_over_median(&v), Some(1.0)); // (8.25 − 2.75) / 5.5
        assert_eq!(iqr_over_median(&[5.0]), None);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 39 samples: p75 has only 9 beyond it.
        assert_eq!(tail(&sample(39)), None);
        // 40 samples: p75 has exactly 10 beyond; nearest rank 30.
        assert_eq!(tail(&sample(40)), Some((75, 30.0)));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&sample(100)), Some((90, 90.0)));
        // 200 samples: p95 has 10 beyond.
        assert_eq!(tail(&sample(200)), Some((95, 190.0)));
        // 1000 samples: p99 has 10 beyond.
        assert_eq!(tail(&sample(1000)), Some((99, 990.0)));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, false) < 0.0);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }
}
