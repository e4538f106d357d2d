//! Cost-based replacement with static per-item scores.
//!
//! Covers both of the paper's cost-based policies:
//!
//! * **PIX**: score = `p / x` — access probability over broadcast frequency.
//!   A page that is likely to be needed *and* slow to come around again is
//!   the most valuable to cache.
//! * **P**: score = `p` — under Pure-Pull every page costs the same to
//!   re-fetch, so plain access probability is the right value.
//!
//! The simulation gives clients perfect knowledge of their own access
//! probabilities (as in the paper), so scores are fixed at construction.
//! Admission is value-based: inserting into a full cache evicts the
//! lowest-scored of (cached ∪ incoming) — if the incoming item scores lowest
//! it is simply not cached.

use crate::policy::{CacheStats, ReplacementPolicy};
use std::collections::BTreeSet;

/// Orders items by (score, id) — total, deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    score: f64,
    item: usize,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[expect(
        clippy::expect_used,
        reason = "scores are validated finite at construction"
    )]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .partial_cmp(&other.score)
            .expect("scores are finite")
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// Fixed-capacity cache evicting the lowest static score.
#[derive(Debug, Clone)]
pub struct StaticScoreCache {
    scores: Vec<f64>,
    cached: Vec<bool>,
    ordered: BTreeSet<Entry>,
    capacity: usize,
    stats: CacheStats,
}

impl StaticScoreCache {
    /// Build a cache of `capacity` items with one finite score per item.
    ///
    /// # Panics
    /// If any score is non-finite.
    pub fn new(capacity: usize, scores: Vec<f64>) -> Self {
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "scores must be finite"
        );
        let n = scores.len();
        StaticScoreCache {
            scores,
            cached: vec![false; n],
            ordered: BTreeSet::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// The PIX policy: score `p/x` from access probabilities and broadcast
    /// frequencies. Pages never broadcast (`x = 0`) get the score `p / x_min`
    /// scaled by the major cycle — effectively "maximally expensive to
    /// re-fetch", so they are favoured for retention; this matches the
    /// intuition that a pull-only page can take unboundedly long to recover.
    pub fn pix(capacity: usize, probs: &[f64], freqs: &[usize]) -> Self {
        assert_eq!(probs.len(), freqs.len(), "probs/freqs length mismatch");
        let scores = probs
            .iter()
            .zip(freqs)
            .map(|(&p, &x)| {
                if x == 0 {
                    // Not on the broadcast: treat as rarer than the rarest
                    // broadcast page (x = 1) by a full order of magnitude.
                    p * 10.0
                } else {
                    p / x as f64
                }
            })
            .collect();
        StaticScoreCache::new(capacity, scores)
    }

    /// The P policy: score is the access probability itself (Pure-Pull).
    pub fn p(capacity: usize, probs: &[f64]) -> Self {
        StaticScoreCache::new(capacity, probs.to_vec())
    }

    /// The static score of `item`.
    pub fn score(&self, item: usize) -> f64 {
        self.scores[item]
    }

    /// The `capacity` highest-scored items — the steady-state cache content.
    /// Deterministic (ties broken by item id, matching eviction order).
    pub fn ideal_content(&self) -> Vec<usize> {
        let mut entries: Vec<Entry> = self
            .scores
            .iter()
            .enumerate()
            .map(|(item, &score)| Entry { score, item })
            .collect();
        entries.sort_unstable_by(|a, b| b.cmp(a));
        entries
            .into_iter()
            .take(self.capacity)
            .map(|e| e.item)
            .collect()
    }

    /// Pre-fill the cache with its ideal (steady-state) content.
    pub fn warm(&mut self) {
        for item in self.ideal_content() {
            self.cached[item] = true;
            self.ordered.insert(Entry {
                score: self.scores[item],
                item,
            });
        }
    }
}

impl ReplacementPolicy for StaticScoreCache {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.ordered.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.cached[item]
    }

    fn lookup(&mut self, item: usize) -> bool {
        if self.cached[item] {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn insert(&mut self, item: usize) -> Option<usize> {
        if self.capacity == 0 || self.cached[item] {
            return None;
        }
        let entry = Entry {
            score: self.scores[item],
            item,
        };
        if self.ordered.len() < self.capacity {
            self.cached[item] = true;
            self.ordered.insert(entry);
            self.stats.insertions += 1;
            return None;
        }
        #[expect(clippy::expect_used, reason = "a full cache has a minimum")]
        let min = *self
            .ordered
            .first()
            .expect("cache is full, hence non-empty");
        if entry <= min {
            // Incoming item is the lowest-valued candidate: do not admit.
            self.stats.rejected += 1;
            return None;
        }
        self.ordered.remove(&min);
        self.cached[min.item] = false;
        self.cached[item] = true;
        self.ordered.insert(entry);
        self.stats.insertions += 1;
        self.stats.evictions += 1;
        Some(min.item)
    }

    fn remove(&mut self, item: usize) -> bool {
        if !self.cached[item] {
            return false;
        }
        self.cached[item] = false;
        self.ordered.remove(&Entry {
            score: self.scores[item],
            item,
        });
        self.stats.evictions += 1;
        true
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_to_capacity_without_eviction() {
        let mut c = StaticScoreCache::new(3, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(c.insert(0), None);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.len(), 3);
        assert!(c.is_full());
    }

    #[test]
    fn evicts_lowest_score() {
        let mut c = StaticScoreCache::new(2, vec![0.5, 0.1, 0.9]);
        c.insert(0);
        c.insert(1);
        // 2 scores 0.9 > min 0.1 -> evict item 1.
        assert_eq!(c.insert(2), Some(1));
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    #[test]
    fn refuses_admission_of_lowest_value_item() {
        let mut c = StaticScoreCache::new(2, vec![0.5, 0.4, 0.1]);
        c.insert(0);
        c.insert(1);
        assert_eq!(c.insert(2), None);
        assert!(!c.contains(2));
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_cached_item_is_noop() {
        let mut c = StaticScoreCache::new(2, vec![0.5, 0.4]);
        c.insert(0);
        assert_eq!(c.insert(0), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = StaticScoreCache::new(0, vec![1.0, 2.0]);
        assert_eq!(c.insert(1), None);
        assert!(!c.contains(1));
        assert!(c.is_full());
    }

    #[test]
    fn lookup_tracks_stats() {
        let mut c = StaticScoreCache::new(2, vec![0.5, 0.4]);
        c.insert(0);
        assert!(c.lookup(0));
        assert!(!c.lookup(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pix_prefers_slow_disk_pages_over_hotter_fast_ones() {
        // Paper example: p_a=0.3 on x=4 vs p_b=0.1 on x=1.
        // PIX(a) = 0.075 < PIX(b) = 0.1, so a is ejected before b.
        let probs = vec![0.3, 0.1];
        let freqs = vec![4usize, 1];
        let mut c = StaticScoreCache::pix(1, &probs, &freqs);
        c.insert(0);
        assert_eq!(c.insert(1), Some(0));
        assert!(c.contains(1));
    }

    #[test]
    fn pix_treats_pull_only_pages_as_most_expensive() {
        let probs = vec![0.2, 0.2];
        let freqs = vec![1usize, 0];
        let c = StaticScoreCache::pix(2, &probs, &freqs);
        assert!(c.score(1) > c.score(0));
    }

    #[test]
    fn p_policy_orders_by_probability() {
        let c = StaticScoreCache::p(2, &[0.1, 0.5, 0.3]);
        assert_eq!(c.ideal_content(), vec![1, 2]);
    }

    #[test]
    fn warm_fills_with_ideal_content() {
        let mut c = StaticScoreCache::p(2, &[0.1, 0.5, 0.3]);
        c.warm();
        assert!(c.is_full());
        assert!(c.contains(1) && c.contains(2) && !c.contains(0));
    }

    #[test]
    fn ideal_content_ties_break_deterministically() {
        let c = StaticScoreCache::p(2, &[0.5, 0.5, 0.5]);
        // Higher item id wins a tie (matches eviction order: Entry cmp).
        assert_eq!(c.ideal_content(), vec![2, 1]);
    }

    #[test]
    fn remove_invalidates_and_allows_reinsertion() {
        let mut c = StaticScoreCache::new(2, vec![0.5, 0.4, 0.1]);
        c.insert(0);
        c.insert(1);
        assert!(c.remove(0));
        assert!(!c.contains(0));
        assert_eq!(c.len(), 1);
        assert!(!c.remove(0), "double remove is a no-op");
        assert_eq!(c.stats().evictions, 1);
        // The slot freed by the invalidation is reusable.
        assert_eq!(c.insert(2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_and_ideal_content_agree_under_churn() {
        let scores: Vec<f64> = (0..50).map(|i| f64::from(i) * 0.01).collect();
        let mut c = StaticScoreCache::new(10, scores);
        for i in 0..50 {
            c.insert(i);
        }
        let mut content: Vec<usize> = (0..50).filter(|&i| c.contains(i)).collect();
        content.sort_unstable();
        let mut ideal = c.ideal_content();
        ideal.sort_unstable();
        assert_eq!(content, ideal);
    }
}
