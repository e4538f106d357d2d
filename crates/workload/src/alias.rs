//! Walker/Vose alias method: O(n) preprocessing, O(1) sampling from an
//! arbitrary finite discrete distribution.
//!
//! The Virtual Client draws up to `ThinkTimeRatio / MC_ThinkTime` accesses
//! per broadcast unit — at the paper's heaviest load that is 12.5 draws per
//! simulated unit over millions of units, so constant-time sampling matters.

use bpp_sim::rng::Rng;

/// Preprocessed alias table for a discrete distribution over `0..n`.
#[derive(Debug, Clone)]
pub struct AliasTable {
    // For bucket i: with probability `accept[i]` return i, else `alias[i]`.
    accept: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from (not necessarily normalised) non-negative weights.
    ///
    /// # Panics
    /// If `weights` is empty, contains a negative/non-finite value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table supports at most 2^32 - 1 outcomes"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut accept = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scaled probabilities: mean 1.0.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            accept[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: both queues drain to probability-1 buckets.
        for i in small.into_iter().chain(large) {
            accept[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        AliasTable { accept, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.accept.len()
    }

    /// True when there are no outcomes (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.accept.is_empty()
    }

    /// Draw one outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.accept.len());
        if rng.random::<f64>() < self.accept[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use bpp_sim::rng::Xoshiro256pp;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let t = AliasTable::new(weights);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let freq = empirical(&weights, 400_000, 1);
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / 10.0;
            assert!(
                (freq[i] - expect).abs() < 0.01,
                "outcome {i}: got {} want {expect}",
                freq[i]
            );
        }
    }

    #[test]
    fn handles_unnormalised_and_zero_weights() {
        let weights = [0.0, 5.0, 0.0, 5.0];
        let freq = empirical(&weights, 200_000, 2);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.01);
    }

    #[test]
    fn single_outcome_always_wins() {
        let t = AliasTable::new(&[3.5]);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_tail_is_sampled() {
        // Even rank 999 of Zipf(0.95, 1000) must occasionally appear.
        let z = crate::Zipf::new(1000, 0.95);
        let t = AliasTable::new(z.probs());
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut saw_tail = false;
        for _ in 0..2_000_000 {
            if t.sample(&mut rng) >= 990 {
                saw_tail = true;
                break;
            }
        }
        assert!(saw_tail, "tail never sampled");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -0.5]);
    }
}
