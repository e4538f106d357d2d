//! The *Noise* perturbation of access patterns.
//!
//! The server builds its broadcast program for the aggregate (Virtual
//! Client) pattern, in which rank `r` maps to item `r`. `Noise` measures how
//! far the Measured Client's own pattern diverges from that: per \[Acha95a\],
//! the MC's rank→item mapping is systematically permuted — with probability
//! `noise`, each rank is swapped with another, uniformly chosen rank.
//!
//! `noise = 0` leaves the identity mapping (MC and VC agree exactly);
//! larger values scramble progressively more of the mapping, so the pages
//! the MC wants are no longer the ones the program favours.

use bpp_sim::approx::exactly_zero;
use bpp_sim::rng::Rng;

/// A rank → item permutation produced by the noise process.
#[derive(Debug, Clone)]
pub struct NoisePermutation {
    forward: Vec<u32>, // rank -> item
    inverse: Vec<u32>, // item -> rank
    noise: f64,
}

impl NoisePermutation {
    /// Identity mapping over `n` items (noise = 0).
    pub fn identity(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        let forward: Vec<u32> = (0..n as u32).collect();
        NoisePermutation {
            inverse: forward.clone(),
            forward,
            noise: 0.0,
        }
    }

    /// Build a noisy mapping over `n` items: each rank is, with probability
    /// `noise`, swapped with a uniformly random rank.
    pub fn new<R: Rng + ?Sized>(n: usize, noise: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be in [0,1]");
        let mut p = Self::identity(n);
        p.noise = noise;
        if exactly_zero(noise) || n < 2 {
            return p;
        }
        for r in 0..n {
            if rng.random::<f64>() < noise {
                let s = rng.random_range(0..n);
                p.forward.swap(r, s);
            }
        }
        for (rank, &item) in p.forward.iter().enumerate() {
            p.inverse[item as usize] = rank as u32;
        }
        p
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The noise level this permutation was built with.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The item that holds 0-based popularity rank `r`.
    pub fn item_at_rank(&self, r: usize) -> usize {
        self.forward[r] as usize
    }

    /// The 0-based popularity rank of `item`.
    pub fn rank_of_item(&self, item: usize) -> usize {
        self.inverse[item] as usize
    }

    /// Fraction of ranks mapped away from the identity — a direct measure of
    /// MC/VC disagreement.
    pub fn displacement(&self) -> f64 {
        if self.forward.is_empty() {
            return 0.0;
        }
        let moved = self
            .forward
            .iter()
            .enumerate()
            .filter(|&(r, &item)| r as u32 != item)
            .count();
        moved as f64 / self.forward.len() as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use bpp_sim::rng::Xoshiro256pp;

    #[test]
    fn identity_maps_rank_to_itself() {
        let p = NoisePermutation::identity(100);
        for r in 0..100 {
            assert_eq!(p.item_at_rank(r), r);
            assert_eq!(p.rank_of_item(r), r);
        }
        assert_eq!(p.displacement(), 0.0);
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let p = NoisePermutation::new(50, 0.0, &mut rng);
        assert_eq!(p.displacement(), 0.0);
    }

    #[test]
    fn result_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for &noise in &[0.15, 0.35, 1.0] {
            let p = NoisePermutation::new(1000, noise, &mut rng);
            let mut seen = vec![false; 1000];
            for r in 0..1000 {
                let item = p.item_at_rank(r);
                assert!(!seen[item], "item {item} mapped twice");
                seen[item] = true;
            }
        }
    }

    #[test]
    fn inverse_is_consistent() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let p = NoisePermutation::new(500, 0.35, &mut rng);
        for r in 0..500 {
            assert_eq!(p.rank_of_item(p.item_at_rank(r)), r);
        }
    }

    #[test]
    fn displacement_grows_with_noise() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let d15 = NoisePermutation::new(1000, 0.15, &mut rng).displacement();
        let d35 = NoisePermutation::new(1000, 0.35, &mut rng).displacement();
        assert!(d15 > 0.1, "noise 15% moved only {d15}");
        assert!(d35 > d15, "d35={d35} d15={d15}");
    }

    #[test]
    fn tiny_domains_are_safe() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let p1 = NoisePermutation::new(1, 0.5, &mut rng);
        assert_eq!(p1.item_at_rank(0), 0);
        let p2 = NoisePermutation::new(2, 1.0, &mut rng);
        assert_eq!(p2.len(), 2);
    }
}
