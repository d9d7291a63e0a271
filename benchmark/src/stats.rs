//! Order statistics: nearest-rank percentiles for simulated latencies and
//! median/quartile summaries for host timings.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of all samples at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], p: u64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median, quartiles, minimum and count of a sample of host timings.
///
/// The quartiles follow Python's `statistics.quantiles(data, n=4)` (its
/// default "exclusive" method), so a reader can recompute them from the
/// raw samples with the standard library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    /// Panics on an empty sample or a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (s[0], s[0])
        } else {
            (exclusive_quartile(&s, 1), exclusive_quartile(&s, 3))
        };
        Summary {
            median,
            q1,
            q3,
            min: s[0],
            n,
        }
    }
}

/// Quartile `i` (1 or 3) of an ascending sample of at least two values, by
/// the exclusive method of Python's `statistics.quantiles`.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_fixed_vectors() {
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[7], 50), Some(7));
        assert_eq!(nearest_rank(&[7], 99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), Some(50));
        assert_eq!(nearest_rank(&v, 99), Some(99));
        assert_eq!(nearest_rank(&v, 100), Some(100));
        // 1,000 samples: p99 is the 990th, leaving ten beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 99), Some(990));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 50), Some(20));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 51), Some(30));
    }

    /// Expected values are Python's `statistics.quantiles(v, n=4)` and
    /// `statistics.median(v)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.n), (1.0, 10));
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        let s = Summary::of(&[4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        let s = Summary::of(&[0.25]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (0.25, 0.25, 0.25, 1));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
    }
}
