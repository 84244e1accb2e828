//! Median / quartile / bound arithmetic shared by the runner, `--compare`
//! and the unit tests.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// What a timed metric reports: median, min, max and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// Share of `base` by which `new` is worse (negative when it is better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Whether `new` stays within `bound` of `base`; a bound of 0 means the
/// metric is exact and must be equal.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    if bound == 0.0 {
        base == new
    } else {
        worse_by(base, new, better) <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = summarize(&[2.0, 9.0, 4.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 9.0, 5));
    }

    #[test]
    fn bounds_follow_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10));
        assert!(!within_bound(10.0, 11.2, Better::Lower, 0.10));
        assert!(within_bound(10.0, 2.0, Better::Lower, 0.10), "gains pass");
        assert!(within_bound(10.0, 9.5, Better::Higher, 0.10));
        assert!(!within_bound(10.0, 8.0, Better::Higher, 0.10));
    }

    #[test]
    fn zero_bound_means_exact() {
        assert!(within_bound(14.64, 14.64, Better::Lower, 0.0));
        assert!(!within_bound(14.64, 14.639, Better::Lower, 0.0));
    }
}
