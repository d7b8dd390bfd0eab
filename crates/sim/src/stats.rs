//! Counters, running statistics, histograms and least-squares fits.
//!
//! The experiment harnesses (crate `swallow-bench`) lean on these: Fig. 3 of
//! the paper reports a *linear fit* of power against frequency
//! (`Pc = 46 + 0.30 f` mW), which [`LinearFit`] recovers from simulated
//! sweep points; latency distributions use [`Histogram`].

use std::fmt;

/// A saturating event counter.
///
/// ```
/// use swallow_sim::stats::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Welford's online mean/variance accumulator.
///
/// ```
/// use swallow_sim::stats::MeanVar;
/// let mut m = MeanVar::new();
/// for x in [2.0, 4.0, 6.0] { m.push(x); }
/// assert_eq!(m.mean(), 4.0);
/// assert_eq!(m.sample_variance(), 4.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MeanVar {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MeanVar {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (zero for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A power-of-two bucketed histogram for latency-style distributions.
///
/// Bucket `i` counts values in `[2^i, 2^(i+1))`, with bucket 0 also
/// holding zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a value.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Lower bound of the smallest value `>=` the requested quantile
    /// (`q` in `[0, 1]`), or `None` when empty.
    pub fn quantile_lower_bound(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(1u64 << (self.buckets.len() - 1))
    }

    /// Iterates `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

/// A streaming quantile accumulator for latency-style `u64` values
/// (sub-bucketed base-2 histogram, ≤ 1/32 relative error).
///
/// [`Histogram`]'s power-of-two buckets are too coarse for tail-latency
/// reporting (p99 would snap to the nearest octave). This sketch keeps
/// 32 linear sub-buckets per octave — values below 64 are exact — so any
/// quantile is recovered within 3.2 % from O(1) memory per recorded
/// magnitude, deterministically: the same inserts produce bit-identical
/// state and quantiles regardless of order, and two sketches merge into
/// exactly the sketch of the concatenated stream. The fleet layer leans
/// on both properties for reproducible `BENCH_fleet.json` rows.
///
/// ```
/// use swallow_sim::stats::LatencySketch;
/// let mut s = LatencySketch::new();
/// for v in 1..=1000u64 { s.record(v); }
/// let p50 = s.quantile(0.50).expect("non-empty");
/// assert!(p50 <= 500 && 500 - p50 <= 500 / 32);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySketch {
    buckets: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Sub-bucket resolution: 2^5 linear steps per octave.
const SKETCH_SUB_BITS: u32 = 5;
/// Values below this are bucketed exactly (one bucket per value).
const SKETCH_EXACT: u64 = 1 << (SKETCH_SUB_BITS + 1);

impl LatencySketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        LatencySketch {
            buckets: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SKETCH_EXACT {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as u64;
        let sub = (value >> (octave - SKETCH_SUB_BITS as u64)) & ((1 << SKETCH_SUB_BITS) - 1);
        (SKETCH_EXACT + (octave - SKETCH_SUB_BITS as u64 - 1) * (1 << SKETCH_SUB_BITS) + sub)
            as usize
    }

    fn lower_bound_of(bucket: usize) -> u64 {
        if bucket < SKETCH_EXACT as usize {
            return bucket as u64;
        }
        let rel = bucket as u64 - SKETCH_EXACT;
        let octave = rel / (1 << SKETCH_SUB_BITS) + SKETCH_SUB_BITS as u64 + 1;
        let sub = rel % (1 << SKETCH_SUB_BITS);
        (1 << octave) + sub * (1 << (octave - SKETCH_SUB_BITS as u64))
    }

    /// Records a value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The quantile's bucket lower bound (`q` in `[0, 1]`), or `None`
    /// when empty: at most 1/32 below the exact order statistic, never
    /// above it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::lower_bound_of(i));
            }
        }
        Some(Self::lower_bound_of(self.buckets.len() - 1))
    }

    /// Folds another sketch in; the result equals the sketch of both
    /// input streams concatenated.
    pub fn merge(&mut self, other: &LatencySketch) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// Ordinary least-squares fit of `y = intercept + slope * x`.
///
/// The paper's Eq. 1 (`Pc = 46 + 0.30 f` mW) is exactly such a fit over the
/// Fig. 3 frequency sweep.
///
/// ```
/// use swallow_sim::stats::LinearFit;
/// let mut fit = LinearFit::new();
/// for x in 0..10 {
///     fit.push(x as f64, 46.0 + 0.30 * x as f64);
/// }
/// let (a, b) = fit.solve().expect("enough points");
/// assert!((a - 46.0).abs() < 1e-9);
/// assert!((b - 0.30).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinearFit {
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    syy: f64,
}

impl LinearFit {
    /// Creates an empty fit.
    pub fn new() -> Self {
        LinearFit::default()
    }

    /// Adds a sample point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
        self.syy += y * y;
    }

    /// Solves for `(intercept, slope)`.
    ///
    /// Returns `None` with fewer than two points or degenerate x values.
    pub fn solve(&self) -> Option<(f64, f64)> {
        if self.n < 2.0 {
            return None;
        }
        let denom = self.n * self.sxx - self.sx * self.sx;
        if denom.abs() < f64::EPSILON * self.sxx.abs().max(1.0) {
            return None;
        }
        let slope = (self.n * self.sxy - self.sx * self.sy) / denom;
        let intercept = (self.sy - slope * self.sx) / self.n;
        Some((intercept, slope))
    }

    /// Coefficient of determination R², or `None` when unsolvable.
    pub fn r_squared(&self) -> Option<f64> {
        let (intercept, slope) = self.solve()?;
        let ss_tot = self.syy - self.sy * self.sy / self.n;
        if ss_tot.abs() < f64::EPSILON {
            return Some(1.0);
        }
        // SS_res = Σ(y - a - b x)² expanded in terms of accumulated moments.
        let ss_res = self.syy - 2.0 * intercept * self.sy - 2.0 * slope * self.sxy
            + self.n * intercept * intercept
            + 2.0 * intercept * slope * self.sx
            + slope * slope * self.sxx;
        Some(1.0 - ss_res / ss_tot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(c.take(), u64::MAX);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn meanvar_tracks_extremes() {
        let mut m = MeanVar::new();
        for x in [5.0, -3.0, 7.5] {
            m.push(x);
        }
        assert_eq!(m.min(), -3.0);
        assert_eq!(m.max(), 7.5);
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 3.1666666).abs() < 1e-6);
    }

    #[test]
    fn meanvar_empty_is_safe() {
        let m = MeanVar::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_lower_bound(0.0), Some(0));
        let p99 = h.quantile_lower_bound(0.99).expect("non-empty");
        assert!(p99 >= 64);
        assert_eq!(Histogram::new().quantile_lower_bound(0.5), None);
    }

    #[test]
    fn sketch_is_exact_below_64() {
        let mut s = LatencySketch::new();
        for v in 0..64u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 64);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(63));
        for v in 0..64u64 {
            let q = (v + 1) as f64 / 64.0;
            assert_eq!(s.quantile(q), Some(v));
        }
    }

    #[test]
    fn sketch_bounds_relative_error() {
        let mut s = LatencySketch::new();
        let mut values: Vec<u64> = (0..2000u64).map(|i| i * i * 31 + 7).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let rank = ((values.len() as f64 * q).ceil().max(1.0) as usize).min(values.len());
            let exact = values[rank - 1];
            let est = s.quantile(q).expect("non-empty");
            assert!(est <= exact, "q={q}: est {est} > exact {exact}");
            assert!(
                exact - est <= est / 32,
                "q={q}: exact {exact} vs est {est} off by more than 1/32"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_concatenation() {
        let (mut a, mut b, mut both) = (
            LatencySketch::new(),
            LatencySketch::new(),
            LatencySketch::new(),
        );
        for i in 0..500u64 {
            let v = i.wrapping_mul(0x9e37_79b9) >> 12;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.mean(), both.mean());
    }

    #[test]
    fn sketch_empty_is_safe() {
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn sketch_handles_huge_values() {
        let mut s = LatencySketch::new();
        s.record(u64::MAX);
        s.record(1 << 62);
        let est = s.quantile(1.0).expect("non-empty");
        assert!(u64::MAX - est <= est / 32);
    }

    #[test]
    fn linear_fit_recovers_eq1() {
        let mut fit = LinearFit::new();
        for mhz in [71.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
            fit.push(mhz, 46.0 + 0.30 * mhz);
        }
        let (a, b) = fit.solve().expect("solvable");
        assert!((a - 46.0).abs() < 1e-9);
        assert!((b - 0.30).abs() < 1e-9);
        assert!((fit.r_squared().expect("solvable") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        let mut fit = LinearFit::new();
        assert_eq!(fit.solve(), None);
        fit.push(1.0, 1.0);
        assert_eq!(fit.solve(), None);
        fit.push(1.0, 2.0); // same x twice: vertical line
        assert_eq!(fit.solve(), None);
    }

    #[test]
    fn linear_fit_r_squared_for_noisy_data() {
        let mut fit = LinearFit::new();
        for i in 0..50 {
            let x = i as f64;
            let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
            fit.push(x, 10.0 + 2.0 * x + noise);
        }
        let r2 = fit.r_squared().expect("solvable");
        assert!(r2 > 0.99 && r2 <= 1.0);
    }
}
