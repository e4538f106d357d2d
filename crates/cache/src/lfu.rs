//! Least-frequently-used replacement — a frequency-based baseline.
//!
//! LFU approximates the P policy without oracle probabilities: observed
//! access counts stand in for `p`. Ties (common early on) break by recency,
//! oldest out first.

use crate::policy::{CacheStats, ReplacementPolicy};
use std::collections::BTreeSet;

/// LFU cache over dense item indexes.
///
/// Per-item state is a vector indexed by item that grows on demand, so
/// memory is O(largest item seen).
#[derive(Debug, Clone, Default)]
pub struct LfuCache {
    capacity: usize,
    /// `state[item]`: (access count, last-use stamp) of a cached item;
    /// `(0, 0)` when the item is not cached (a cached count is >= 1).
    state: Vec<(u64, u64)>,
    /// (count, stamp, item): least frequent, then oldest, first. One entry
    /// per cached item, so its length is the cache's.
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

    /// Count an access to a cached `item`, or admit an uncached one.
    fn bump(&mut self, item: usize) {
        self.clock += 1;
        let stamp = self.clock;
        if item >= self.state.len() {
            self.state.resize(item + 1, (0, 0));
        }
        let (count, old_stamp) = self.state[item];
        if count > 0 {
            self.order.remove(&(count, old_stamp, item));
        }
        self.state[item] = (count + 1, stamp);
        self.order.insert((count + 1, stamp, item));
    }

    /// Drop a cached `item` whose state is `(count, stamp)`.
    fn forget(&mut self, item: usize, (count, stamp): (u64, u64)) {
        self.order.remove(&(count, stamp, item));
        self.state[item] = (0, 0);
        self.stats.evictions += 1;
    }

    /// `item`'s (count, stamp), `(0, 0)` when it is not cached.
    fn entry(&self, item: usize) -> (u64, u64) {
        self.state.get(item).copied().unwrap_or((0, 0))
    }
}

impl ReplacementPolicy for LfuCache {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.entry(item).0 > 0
    }

    fn lookup(&mut self, item: usize) -> bool {
        if self.contains(item) {
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
        if self.contains(item) {
            self.bump(item);
            return None;
        }
        let evicted = if self.len() == self.capacity {
            #[expect(clippy::expect_used, reason = "a full cache has a non-empty order set")]
            let &(c, s, victim) = self.order.first().expect("full cache non-empty");
            self.forget(victim, (c, s));
            Some(victim)
        } else {
            None
        };
        self.bump(item);
        self.stats.insertions += 1;
        evicted
    }

    fn remove(&mut self, item: usize) -> bool {
        let entry = self.entry(item);
        if entry.0 > 0 {
            self.forget(item, entry);
        }
        entry.0 > 0
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
        assert_eq!(c.state[1].0, 6); // insert + 5 hits
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
        assert_eq!(c.state[1].0, 1);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut c = LfuCache::new(0);
        assert_eq!(c.insert(5), None);
        assert!(!c.contains(5));
    }
}
