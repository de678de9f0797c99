//! Sample summaries: median, quartiles (the same definition as Python's
//! `statistics.quantiles(values, n=4)`), a tail percentile, and the
//! steadiness flags the benchmark prints next to each timing.

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles` (positions `i·(n+1)/4`, clamped, interpolated).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = (n + 1) as i64;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// The highest whole percentile that still has at least ten samples above
/// it, with its value; `None` when there are too few samples for any
/// percentile above the median.
pub fn tail_percentile(v: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return None;
    }
    (50..100u32).rev().find_map(|q| {
        // Nearest-rank percentile.
        let rank = ((q as f64 / 100.0) * n as f64).ceil().max(1.0) as usize;
        let x = s[rank - 1];
        let above = s.iter().filter(|&&y| y > x).count();
        (above >= 10).then_some((q, x))
    })
}

/// Flags a series whose samples split into two separated groups, or whose
/// second half sits away from its first half (drift).
pub fn steadiness(v: &[f64]) -> Vec<&'static str> {
    let mut flags = Vec::new();
    let n = v.len();
    if n < 4 {
        return flags;
    }
    let med = median(v);
    let s = sorted(v);
    // Bimodal: the widest gap between neighbours exceeds 15% of the median
    // and leaves at least a quarter of the samples on each side.
    let (k, gap) = s
        .windows(2)
        .enumerate()
        .map(|(k, w)| (k + 1, w[1] - w[0]))
        .fold((0, 0.0), |best, x| if x.1 > best.1 { x } else { best });
    if gap > 0.15 * med && k >= n / 4 && n - k >= n / 4 {
        flags.push("bimodal");
    }
    let (first, second) = v.split_at(n / 2);
    if (median(second) - median(first)).abs() > 0.10 * med {
        flags.push("drifting");
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&many), Some((90, 90.0)));
    }

    #[test]
    fn steadiness_flags_two_modes_and_drift() {
        let steady = [1.0, 1.01, 0.99, 1.02, 1.0, 0.98, 1.01, 1.0];
        assert!(steadiness(&steady).is_empty());
        let two = [0.6, 1.0, 0.61, 1.02, 0.6, 1.01, 0.62, 1.0];
        assert_eq!(steadiness(&two), ["bimodal"]);
        let drift = [1.0, 1.0, 1.01, 1.0, 1.3, 1.31, 1.3, 1.32];
        assert!(steadiness(&drift).contains(&"drifting"));
    }
}
