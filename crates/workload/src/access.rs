//! Complete access patterns: a rank distribution composed with a rank→item
//! permutation.
//!
//! The Virtual Client's pattern is `Zipf ∘ identity` — the server builds the
//! broadcast program directly from it. The Measured Client's pattern is
//! `Zipf ∘ NoisePermutation`, diverging from the program as `Noise` grows.

use crate::{AliasTable, NoisePermutation, Zipf};
use bpp_sim::rng::Rng;

/// A sampleable access pattern over items `0..n` with known per-item
/// probabilities (needed by the cost-based cache policies).
#[derive(Debug, Clone)]
pub struct AccessPattern {
    perm: NoisePermutation,
    item_prob: Vec<f64>,
    sampler: AliasTable,
}

impl AccessPattern {
    /// Compose a Zipf rank distribution with a permutation.
    ///
    /// # Panics
    /// If the permutation and distribution sizes differ.
    pub fn new(zipf: &Zipf, perm: NoisePermutation) -> Self {
        assert_eq!(
            zipf.len(),
            perm.len(),
            "distribution and permutation must cover the same items"
        );
        let mut item_prob = vec![0.0f64; zipf.len()];
        for r in 0..zipf.len() {
            item_prob[perm.item_at_rank(r)] = zipf.prob(r);
        }
        let sampler = AliasTable::new(&item_prob);
        AccessPattern {
            perm,
            item_prob,
            sampler,
        }
    }

    /// The identity (population / Virtual Client) pattern.
    pub fn population(zipf: &Zipf) -> Self {
        Self::new(zipf, NoisePermutation::identity(zipf.len()))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.item_prob.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.item_prob.is_empty()
    }

    /// Draw one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }

    /// Probability of accessing `item` on any given request.
    pub fn prob(&self, item: usize) -> f64 {
        self.item_prob[item]
    }

    /// Per-item probabilities (index = item).
    pub fn probs(&self) -> &[f64] {
        &self.item_prob
    }

    /// The underlying rank→item permutation.
    pub fn permutation(&self) -> &NoisePermutation {
        &self.perm
    }

    /// The `k` most popular items under this pattern, hottest first.
    pub fn top_items(&self, k: usize) -> Vec<usize> {
        (0..k.min(self.len()))
            .map(|r| self.perm.item_at_rank(r))
            .collect()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use bpp_sim::rng::Xoshiro256pp;

    #[test]
    fn population_pattern_matches_zipf_directly() {
        let z = Zipf::new(100, 0.95);
        let p = AccessPattern::population(&z);
        for i in 0..100 {
            assert_eq!(p.prob(i), z.prob(i));
        }
        assert_eq!(p.top_items(3), vec![0, 1, 2]);
    }

    #[test]
    fn permuted_pattern_moves_mass_with_items() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let perm = NoisePermutation::new(10, 1.0, &mut rng);
        let p = AccessPattern::new(&z, perm);
        // Hottest item must carry the rank-0 probability wherever it moved.
        let hot = p.top_items(1)[0];
        assert_eq!(p.prob(hot), z.prob(0));
        let sum: f64 = p.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_frequency_tracks_item_probability() {
        let z = Zipf::new(50, 0.95);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let perm = NoisePermutation::new(50, 0.35, &mut rng);
        let p = AccessPattern::new(&z, perm);
        let mut counts = vec![0usize; 50];
        let draws = 300_000;
        for _ in 0..draws {
            counts[p.sample(&mut rng)] += 1;
        }
        for (item, &count) in counts.iter().enumerate() {
            let emp = count as f64 / draws as f64;
            assert!(
                (emp - p.prob(item)).abs() < 0.01,
                "item {item}: emp {emp} want {}",
                p.prob(item)
            );
        }
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn size_mismatch_panics() {
        let z = Zipf::new(10, 0.95);
        AccessPattern::new(&z, NoisePermutation::identity(5));
    }
}
