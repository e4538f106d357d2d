//! The Zipf popularity distribution.
//!
//! Following \[Knut81\] (as cited by the paper), rank `i ∈ 1..=n` has
//! probability proportional to `(1/i)^θ`. θ = 0 is uniform; θ → 1 is the
//! classic Zipf law. The paper fixes θ = 0.95.

/// A Zipf(θ) distribution over `n` ranks, rank 1 being the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    theta: f64,
    probs: Vec<f64>,
}

impl Zipf {
    /// Build the distribution for `n ≥ 1` ranks with skew `θ ≥ 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be >= 0");
        let mut probs: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let h: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= h;
        }
        Zipf { theta, probs }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when the distribution has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // n >= 1 is enforced at construction
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of the 0-based rank `r` (rank 0 is the hottest).
    pub fn prob(&self, r: usize) -> f64 {
        self.probs[r]
    }

    /// All rank probabilities, hottest first.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Total probability mass of the `k` hottest ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        self.probs[..k.min(self.probs.len())].iter().sum()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        for &(n, theta) in &[(1usize, 0.5), (10, 0.0), (1000, 0.95), (5000, 1.2)] {
            let z = Zipf::new(n, theta);
            let sum: f64 = z.probs().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} theta={theta} sum={sum}");
        }
    }

    #[test]
    fn probabilities_are_monotone_nonincreasing() {
        let z = Zipf::new(1000, 0.95);
        for w in z.probs().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(8, 0.0);
        for r in 0..8 {
            assert!((z.prob(r) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_configuration_head_mass() {
        // θ=0.95 over 1000 pages: the 100 hottest pages carry roughly
        // two-thirds of the access mass. This pins the distribution the
        // whole evaluation depends on.
        let z = Zipf::new(1000, 0.95);
        let m = z.head_mass(100);
        assert!((0.60..0.70).contains(&m), "head mass {m}");
        assert!((z.head_mass(1000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_follows_power_law() {
        let z = Zipf::new(100, 0.95);
        let expected = 2f64.powf(0.95);
        assert!((z.prob(0) / z.prob(1) - expected).abs() < 1e-9);
    }

    #[test]
    fn head_mass_clamps_at_n() {
        let z = Zipf::new(4, 0.5);
        assert!((z.head_mass(100) - 1.0).abs() < 1e-12);
        assert_eq!(z.head_mass(0), 0.0);
    }
}
