//! Order statistics shared by the runner and `compare`.

/// The median of `xs` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one
/// sample by construction.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (the default `exclusive`
/// method), so spreads printed here match the ones the acceptance
/// check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let ld = s.len() as i64;
    let m = ld + 1;
    let n = 4;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        // delta may fall outside 0..n once j is clamped; Python
        // extrapolates in that case, and so does this
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // two samples clamp to the ends: quantiles([1, 3], n=4) ==
        // [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
