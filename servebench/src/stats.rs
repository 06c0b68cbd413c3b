//! Order statistics for reporting: nearest-rank percentiles, the tail
//! percentile a sample supports, and Python-compatible quartiles.

/// Nearest-rank `q`-quantile (0 < q <= 1) of an ascending slice.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[r - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A latency distribution: median, p90, p99 and the highest percentile
/// with at least ten samples beyond it.
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Label of the tail percentile, e.g. `p99.9`.
    pub tail_label: &'static str,
    pub tail: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond: usize,
    pub max: f64,
}

impl Tail {
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let mut tail_label = "p50";
        let mut tail_q = 0.5;
        for (label, q) in [
            ("p90", 0.9),
            ("p99", 0.99),
            ("p99.9", 0.999),
            ("p99.99", 0.9999),
        ] {
            if (n as f64 * (1.0 - q)).floor() >= 10.0 {
                tail_label = label;
                tail_q = q;
            }
        }
        let r = ((tail_q * n as f64).ceil() as usize).clamp(1, n);
        Tail {
            count: n,
            p50: rank(&v, 0.5),
            p90: rank(&v, 0.9),
            p99: rank(&v, 0.99),
            tail_label,
            tail: v[r - 1],
            beyond: n - r,
            max: v[n - 1],
        }
    }

    pub fn line(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}  p90 {:.1}  p99 {:.1}  {} {:.1} ({} samples, {} beyond)  max {:.1}",
            self.p50,
            self.p90,
            self.p99,
            self.tail_label,
            self.tail,
            self.count,
            self.beyond,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.tail_label, "p99");
        assert_eq!(t.beyond, 10);
    }
}
