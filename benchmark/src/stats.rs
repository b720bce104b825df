//! Medians, quartiles and percentiles over timing samples.

/// Median, quartiles and sample count of one timed quantity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The quartiles Python's `statistics.quantiles(xs, n=4)` gives (the
/// default "exclusive" method), so spreads printed here are the spreads
/// the acceptance driver computes. Fewer than two samples give that sample
/// three times.
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            n: m,
            q1: x,
            median: x,
            q3: x,
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: m,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Median of one number per item.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fastest of repeated timings of the same work. What slows a pass on
/// a shared host — a neighbour on the core's other thread or in the cache —
/// only ever adds time, for seconds at a stretch, so a run's median moves
/// with it and its fastest pass does not (README, "Measured noise").
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The lowest, over passes, of each pass's `p`-th percentile. A run has
/// few passes, and on most workloads a pass has few operations, so the
/// percentile of the pooled samples would be the single worst operation of
/// the run; this is the tail of a pass the host left alone instead.
pub fn pass_percentile(passes: &[Vec<f64>], p: f64) -> f64 {
    fastest(
        &passes
            .iter()
            .map(|xs| percentile(xs, p))
            .collect::<Vec<_>>(),
    )
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn pass_percentile_is_the_quietest_pass_not_the_worst_operation() {
        let passes = vec![
            vec![1.0, 2.0, 4.0],
            vec![1.0, 2.0, 90.0],
            vec![1.5, 2.5, 3.0],
        ];
        assert_eq!(pass_percentile(&passes, 99.0), 3.0);
        assert_eq!(pass_percentile(&passes, 50.0), 2.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
