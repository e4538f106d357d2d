//! Online statistics for simulation output analysis.
//!
//! The paper's protocol is: discard the warm-up transient, then "run the
//! experiment until the response time stabilized". We implement that with
//! the method of batch means ([`BatchMeans`]): observations are grouped
//! into fixed-size batches, batch averages are treated as approximately
//! independent normal samples, and the run stops when the confidence
//! interval around the grand mean is tight relative to the mean.

/// Confidence levels supported by [`BatchMeans::half_width`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// 90% two-sided confidence.
    P90,
    /// 95% two-sided confidence.
    P95,
    /// 99% two-sided confidence.
    P99,
}

impl Confidence {
    /// Two-sided Student-t critical value for `df` degrees of freedom.
    /// Exact table for small df, normal approximation beyond 30.
    fn t_value(self, df: usize) -> f64 {
        const T90: [f64; 30] = [
            6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782,
            1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
            1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
        ];
        const T95: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        const T99: [f64; 30] = [
            63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055,
            3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
            2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
        ];
        let (table, z) = match self {
            Confidence::P90 => (&T90, 1.645),
            Confidence::P95 => (&T95, 1.960),
            Confidence::P99 => (&T99, 2.576),
        };
        if df == 0 {
            f64::INFINITY
        } else if df <= 30 {
            table[df - 1]
        } else {
            z
        }
    }
}

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long runs (tens of millions of observations) where
/// the naive sum-of-squares formulation loses precision.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observations must be finite");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
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

/// Exponentially weighted moving average.
///
/// A constant-memory smoother for noisy per-slot signals (queue occupancy,
/// arrival rates): `v ← α·x + (1−α)·v`, seeded with the first observation.
/// Small `α` smooths harder. Used by the server's saturation detector to
/// keep degradation decisions from flapping on single-slot spikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    primed: bool,
}

impl Ewma {
    /// A smoother with weight `alpha` in `(0, 1]` for new observations.
    ///
    /// # Panics
    /// If `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0,1], got {alpha}"
        );
        Ewma {
            alpha,
            value: 0.0,
            primed: false,
        }
    }

    /// Record one observation and return the updated average.
    pub fn record(&mut self, x: f64) -> f64 {
        debug_assert!(x.is_finite(), "observations must be finite");
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// The current average (0 before any observation).
    pub fn value(&self) -> f64 {
        if self.primed {
            self.value
        } else {
            0.0
        }
    }

    /// True once at least one observation was recorded.
    pub fn primed(&self) -> bool {
        self.primed
    }
}

/// Batch-means steady-state estimator with a relative-precision stopping
/// rule.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Vec<f64>,
    all: Welford,
}

impl BatchMeans {
    /// Create an estimator with the given batch size (observations/batch).
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current: Welford::new(),
            batches: Vec::new(),
            all: Welford::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.all.record(x);
        self.current.record(x);
        if self.current.count() == self.batch_size {
            self.batches.push(self.current.mean());
            self.current = Welford::new();
        }
    }

    /// Grand mean over every observation (including the unfinished batch).
    pub fn mean(&self) -> f64 {
        self.all.mean()
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.all.count()
    }

    /// Number of completed batches.
    pub fn completed_batches(&self) -> usize {
        self.batches.len()
    }

    /// Confidence-interval half width around the grand mean, from the
    /// completed batch means. `inf` until at least two batches complete.
    pub fn half_width(&self, conf: Confidence) -> f64 {
        let k = self.batches.len();
        if k < 2 {
            return f64::INFINITY;
        }
        let mut w = Welford::new();
        for &b in &self.batches {
            w.record(b);
        }
        conf.t_value(k - 1) * w.std_dev() / (k as f64).sqrt()
    }

    /// True when the CI half-width is within `rel` of the mean (and at least
    /// `min_batches` batches have completed). A zero mean is treated as
    /// converged only when the half-width is also ~zero.
    pub fn converged(&self, conf: Confidence, rel: f64, min_batches: usize) -> bool {
        if self.batches.len() < min_batches.max(2) {
            return false;
        }
        let hw = self.half_width(conf);
        let m = self.mean().abs();
        if m < f64::EPSILON {
            hw < f64::EPSILON
        } else {
            hw / m <= rel
        }
    }
}

/// Fixed-width histogram with an overflow bucket; supports quantile
/// estimation by linear interpolation within a bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// `num_bins` bins of `bin_width` starting at zero; values beyond the
    /// last bin land in the overflow bucket.
    pub fn new(bin_width: f64, num_bins: usize) -> Self {
        assert!(bin_width > 0.0 && num_bins > 0);
        Histogram {
            bin_width,
            bins: vec![0; num_bins],
            overflow: 0,
            count: 0,
        }
    }

    /// Record one non-negative observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x >= 0.0, "histogram observations must be non-negative");
        self.count += 1;
        let idx = (x / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations that fell past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate `q`-quantile (`0 < q < 1`). Returns `None` when empty or
    /// when the quantile falls in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0,1)");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= target {
                let within = if c == 0 {
                    0.0
                } else {
                    (target - prev) as f64 / c as f64
                };
                return Some((i as f64 + within) * self.bin_width);
            }
        }
        None
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic data set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn batch_means_converges_on_iid_data() {
        // Deterministic pseudo-noise around 10.0.
        let mut bm = BatchMeans::new(50);
        let mut x = 0x12345u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            bm.record(10.0 + (u - 0.5));
        }
        assert!(bm.converged(Confidence::P95, 0.01, 10));
        assert!((bm.mean() - 10.0).abs() < 0.05);
    }

    #[test]
    fn batch_means_not_converged_with_few_batches() {
        let mut bm = BatchMeans::new(100);
        for i in 0..150 {
            bm.record(f64::from(i));
        }
        assert_eq!(bm.completed_batches(), 1);
        assert!(!bm.converged(Confidence::P95, 0.5, 2));
        assert!(bm.half_width(Confidence::P95).is_infinite());
    }

    #[test]
    fn batch_means_grand_mean_includes_partial_batch() {
        let mut bm = BatchMeans::new(4);
        for &x in &[1.0, 1.0, 1.0, 1.0, 9.0] {
            bm.record(x);
        }
        assert!((bm.mean() - 13.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn t_values_decrease_with_df() {
        assert!(Confidence::P95.t_value(1) > Confidence::P95.t_value(5));
        assert!(Confidence::P95.t_value(5) > Confidence::P95.t_value(30));
        assert!((Confidence::P95.t_value(100) - 1.960).abs() < 1e-9);
        assert!(Confidence::P95.t_value(0).is_infinite());
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(f64::from(i) + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() <= 1.0, "p90 {p90}");
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(1.0, 10);
        h.record(5.0);
        h.record(100.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        // q=0.9 target falls in overflow -> None.
        assert_eq!(h.quantile(0.9), None);
    }

    #[test]
    fn ewma_seeds_with_first_observation() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), 0.0);
        assert!(!e.primed());
        assert_eq!(e.record(4.0), 4.0);
        assert!(e.primed());
        // 0.9 * 4 + 0.1 * 14 = 5.0
        assert!((e.record(14.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.record(3.0);
        }
        assert!((e.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.record(1.0);
        e.record(9.0);
        assert_eq!(e.value(), 9.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn ewma_rejects_zero_alpha() {
        Ewma::new(0.0);
    }
}
