//! Order statistics for timed samples.

use std::collections::BTreeMap;

/// Percentiles a tail is reported at, in per-mille, highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones the acceptance check computes.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some((q3 - q1) / q2)
}

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile, given in per-mille (1–1000), of the samples.
pub fn percentile(xs: &[f64], per_mille: usize) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(per_mille, v.len()) - 1]
}

/// The highest ladder percentile, in per-mille, with at least
/// [`MIN_BEYOND`] of `n` samples above its rank, or `None` when even the
/// median has too few.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= MIN_BEYOND && n - rank(p, n) >= MIN_BEYOND)
}

/// How [`best_of_repeats`] reduces the times of identical calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The fastest: contention from other processes only ever adds time,
    /// so the fastest repeat is what the code itself costs.
    Fastest,
    /// The median, for calls too long for any repeat to find the host
    /// uncontended, where the fastest is itself noisy.
    Median,
}

/// Host time of a job repeated several times, with time lost to other
/// tenants taken out. `jobs[j][k]` is call `k` of repeat `j` as
/// `(work, seconds)`, where `work` identifies the simulated work the call
/// did. Calls that did identical work are repeats of one another: each
/// call is costed at the `pick` of every time seen for its work, and the
/// job at the sum over its calls. `None` when the repeats made different
/// calls (a deterministic job never does) or there are none.
pub fn best_of_repeats<W: Ord>(jobs: &[Vec<(W, f64)>], pick: Pick) -> Option<f64> {
    let first = jobs.first()?;
    let same_calls =
        |j: &Vec<(W, f64)>| j.len() == first.len() && j.iter().zip(first).all(|(a, b)| a.0 == b.0);
    if !jobs.iter().all(same_calls) {
        return None;
    }
    let mut times: BTreeMap<&W, Vec<f64>> = BTreeMap::new();
    for (work, secs) in jobs.iter().flatten() {
        times.entry(work).or_default().push(*secs);
    }
    let cost: BTreeMap<&W, f64> = times
        .into_iter()
        .map(|(work, t)| {
            let c = match pick {
                Pick::Fastest => t.iter().copied().fold(f64::INFINITY, f64::min),
                Pick::Median => median(&t),
            };
            (work, c)
        })
        .collect();
    Some(first.iter().map(|(work, _)| cost[work]).sum())
}

/// How one metric's samples are summarised: the median, the tail at
/// [`tail_percentile`] on the slow side, the spread and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(percentile in per-mille, value)`; the slow side is the high end
    /// for costs and the low end for rates.
    pub tail: Option<(usize, f64)>,
    /// Interquartile distance over the median ([`spread`]).
    pub spread: Option<f64>,
    pub n: usize,
}

/// Summarises `xs`. `rate` marks a higher-is-better metric, whose slow
/// tail is the low end of the distribution.
pub fn summarise(xs: &[f64], rate: bool) -> Summary {
    let tail = tail_percentile(xs.len()).map(|p| {
        let at = if rate { 1000 - p } else { p };
        (p, percentile(xs, at))
    });
    Summary {
        median: median(xs),
        tail,
        spread: spread(xs),
        n: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some([1.0, 4.0, 7.0]));
        // statistics.quantiles([2, 9], n=4) == [0.25, 5.5, 10.75]
        assert_eq!(quartiles(&[2.0, 9.0]), Some([0.25, 5.5, 10.75]));
        // statistics.quantiles([1..12], n=4) == [3.25, 6.5, 9.75]
        let xs12: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(quartiles(&xs12), Some([3.25, 6.5, 9.75]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).expect("two or more samples");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 990), 99.0);
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&xs, 1), 1.0);
        assert_eq!(percentile(&[5.0], 10), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn best_of_repeats_takes_each_calls_fastest_repeat() {
        let jobs = vec![
            vec![('a', 1.0), ('b', 5.0), ('c', 2.0)],
            vec![('a', 2.0), ('b', 3.0), ('c', 2.5)],
            vec![('a', 1.5), ('b', 4.0), ('c', 1.0)],
        ];
        assert_eq!(best_of_repeats(&jobs, Pick::Fastest), Some(1.0 + 3.0 + 1.0));
        assert_eq!(best_of_repeats(&jobs, Pick::Median), Some(1.5 + 4.0 + 2.0));
        assert_eq!(best_of_repeats(&jobs[..1], Pick::Fastest), Some(8.0));
        assert_eq!(best_of_repeats::<char>(&[], Pick::Fastest), None);
        // Repeats that made different calls are not repeats.
        let longer = [vec![('a', 1.0)], vec![('a', 1.0), ('b', 2.0)]];
        assert_eq!(best_of_repeats(&longer, Pick::Fastest), None);
        let other = [vec![('a', 1.0)], vec![('b', 1.0)]];
        assert_eq!(best_of_repeats(&other, Pick::Median), None);
    }

    #[test]
    fn calls_with_identical_work_pool_their_best() {
        // Every `s` call does the same work: each takes the fastest `s`.
        let jobs = vec![
            vec![('w', 9.0), ('s', 4.0), ('s', 3.0)],
            vec![('w', 8.0), ('s', 2.0), ('s', 5.0)],
        ];
        assert_eq!(best_of_repeats(&jobs, Pick::Fastest), Some(8.0 + 2.0 + 2.0));
        assert_eq!(best_of_repeats(&jobs, Pick::Median), Some(8.5 + 3.5 + 3.5));
    }

    #[test]
    fn rate_tail_is_the_low_end() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let cost = summarise(&xs, false);
        assert_eq!(cost.tail, Some((500, 10.0)));
        let rate = summarise(&xs, true);
        assert_eq!(rate.tail, Some((500, 10.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(summarise(&xs, false).tail, Some((750, 30.0)));
        assert_eq!(summarise(&xs, true).tail, Some((750, 10.0)));
        assert_eq!(summarise(&xs, true).n, 40);
    }
}
