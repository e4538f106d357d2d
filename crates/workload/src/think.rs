//! Inter-request think times.
//!
//! The Measured Client waits a fixed `MC_ThinkTime` (20 broadcast units in
//! the paper) between the completion of one request and the issue of the
//! next. The Virtual Client — standing in for a whole population — draws its
//! think time from an exponential distribution with mean
//! `MC_ThinkTime / ThinkTimeRatio`, so the aggregate arrival process is
//! Poisson-like with intensity proportional to the modelled population.

use bpp_sim::rng::Rng;

/// A think-time distribution, sampled in broadcast units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThinkTime {
    /// Always exactly this long.
    Fixed(f64),
    /// Exponentially distributed with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
}

impl ThinkTime {
    /// Draw one think time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ThinkTime::Fixed(t) => t,
            ThinkTime::Exponential { mean } => {
                // Inverse CDF; 1-u avoids ln(0).
                let u: f64 = rng.random();
                -mean * (1.0 - u).ln()
            }
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        match *self {
            ThinkTime::Fixed(t) => t,
            ThinkTime::Exponential { mean } => mean,
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use bpp_sim::rng::Xoshiro256pp;

    #[test]
    fn fixed_is_constant() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let t = ThinkTime::Fixed(20.0);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 20.0);
        }
        assert_eq!(t.mean(), 20.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let t = ThinkTime::Exponential { mean: 0.08 };
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| t.sample(&mut rng)).sum();
        let emp = sum / f64::from(n);
        assert!((emp - 0.08).abs() < 0.002, "empirical mean {emp}");
    }

    #[test]
    fn exponential_samples_are_positive_and_finite() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let t = ThinkTime::Exponential { mean: 1.0 };
        for _ in 0..100_000 {
            let x = t.sample(&mut rng);
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn exponential_is_memorylessly_skewed() {
        // Median of Exp(mean) is mean*ln2 < mean: check the empirical median.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let t = ThinkTime::Exponential { mean: 10.0 };
        let mut xs: Vec<f64> = (0..10_001).map(|_| t.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[5000];
        assert!(
            (median - 10.0 * std::f64::consts::LN_2).abs() < 0.4,
            "median {median}"
        );
    }
}
