//! Least-frequently-used replacement — a frequency-based baseline.
//!
//! LFU approximates the P policy without oracle probabilities: observed
//! access counts stand in for `p`. Ties (common early on) break by recency,
//! oldest out first.

use crate::policy::{CacheStats, ReplacementPolicy};
use std::collections::{BTreeSet, HashMap};

/// LFU cache over dense item indexes.
#[derive(Debug, Clone, Default)]
pub struct LfuCache {
    capacity: usize,
    /// item -> (count, stamp)
    state: HashMap<usize, (u64, u64)>,
    /// (count, stamp, item): least frequent, then oldest, first.
    order: BTreeSet<(u64, u64, usize)>,
    clock: u64,
    stats: CacheStats,
}

impl LfuCache {
    /// An empty LFU cache of `capacity` items.
    pub fn new(capacity: usize) -> Self {
        LfuCache {
            capacity,
            ..Default::default()
        }
    }

    fn bump(&mut self, item: usize) {
        self.clock += 1;
        let stamp = self.clock;
        let entry = self.state.entry(item).or_insert((0, 0));
        let old = *entry;
        entry.0 += 1;
        entry.1 = stamp;
        if old.0 > 0 || self.order.contains(&(old.0, old.1, item)) {
            self.order.remove(&(old.0, old.1, item));
        }
        self.order.insert((entry.0, stamp, item));
    }
}

impl ReplacementPolicy for LfuCache {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.state.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.state.contains_key(&item)
    }

    fn lookup(&mut self, item: usize) -> bool {
        if self.state.contains_key(&item) {
            self.stats.hits += 1;
            self.bump(item);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn insert(&mut self, item: usize) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        if self.state.contains_key(&item) {
            self.bump(item);
            return None;
        }
        let evicted = if self.state.len() == self.capacity {
            #[expect(clippy::expect_used, reason = "a full cache has a non-empty order set")]
            let &(c, s, victim) = self.order.first().expect("full cache non-empty");
            self.order.remove(&(c, s, victim));
            self.state.remove(&victim);
            self.stats.evictions += 1;
            Some(victim)
        } else {
            None
        };
        self.bump(item);
        self.stats.insertions += 1;
        evicted
    }

    fn remove(&mut self, item: usize) -> bool {
        match self.state.remove(&item) {
            Some((count, stamp)) => {
                self.order.remove(&(count, stamp, item));
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.insert(1);
        c.insert(2);
        c.lookup(1);
        c.lookup(1); // 1 now hot
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn frequency_ties_evict_oldest() {
        let mut c = LfuCache::new(2);
        c.insert(1);
        c.insert(2); // both freq 1; 1 older
        assert_eq!(c.insert(3), Some(1));
    }

    #[test]
    fn counts_persist_across_hits() {
        let mut c = LfuCache::new(3);
        c.insert(1);
        for _ in 0..5 {
            assert!(c.lookup(1));
        }
        assert_eq!(c.stats().hits, 5);
        assert_eq!(c.state[&1].0, 6); // insert + 5 hits
    }

    #[test]
    fn capacity_bound_holds() {
        let mut c = LfuCache::new(4);
        for i in 0..50 {
            c.insert(i % 10);
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn remove_clears_frequency_state() {
        let mut c = LfuCache::new(2);
        c.insert(1);
        c.lookup(1);
        c.lookup(1);
        assert!(c.remove(1));
        assert!(!c.contains(1));
        // Re-inserted item starts from a fresh count.
        c.insert(1);
        assert_eq!(c.state[&1].0, 1);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut c = LfuCache::new(0);
        assert_eq!(c.insert(5), None);
        assert!(!c.contains(5));
    }
}
