//! Least-recently-used replacement — the paper's strawman baseline.
//!
//! \[Acha95a\] showed LRU "can perform poorly in this environment" because it
//! ignores broadcast frequency; we keep it for the ablation benches that
//! reproduce that claim.

use crate::policy::{CacheStats, ReplacementPolicy};
use std::collections::BTreeSet;

/// Classic LRU over dense item indexes.
///
/// Per-item state is a vector indexed by item that grows on demand, so
/// memory is O(largest item seen).
#[derive(Debug, Clone, Default)]
pub struct LruCache {
    capacity: usize,
    /// `stamp_of[item]`: last-use stamp of a cached item; 0 when the item
    /// is not cached (stamps start at 1).
    stamp_of: Vec<u64>,
    /// (stamp, item) ordered oldest first: one entry per cached item, so
    /// its length is the cache's.
    by_age: BTreeSet<(u64, usize)>,
    clock: u64,
    stats: CacheStats,
}

impl LruCache {
    /// An empty LRU cache of `capacity` items.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            ..Default::default()
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Refresh a cached `item`'s recency, or admit an uncached one.
    fn touch(&mut self, item: usize) {
        let stamp = self.tick();
        if item >= self.stamp_of.len() {
            self.stamp_of.resize(item + 1, 0);
        }
        let old = std::mem::replace(&mut self.stamp_of[item], stamp);
        if old > 0 {
            self.by_age.remove(&(old, item));
        }
        self.by_age.insert((stamp, item));
    }

    /// Drop a cached `item` whose stamp is `stamp`.
    fn forget(&mut self, item: usize, stamp: u64) {
        self.by_age.remove(&(stamp, item));
        self.stamp_of[item] = 0;
        self.stats.evictions += 1;
    }

    /// `item`'s last-use stamp, 0 when it is not cached.
    fn stamp(&self, item: usize) -> u64 {
        self.stamp_of.get(item).copied().unwrap_or(0)
    }
}

impl ReplacementPolicy for LruCache {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.by_age.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.stamp(item) > 0
    }

    fn lookup(&mut self, item: usize) -> bool {
        if self.contains(item) {
            self.stats.hits += 1;
            self.touch(item);
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
            self.touch(item);
            return None;
        }
        let evicted = if self.len() == self.capacity {
            #[expect(clippy::expect_used, reason = "a full cache has a non-empty age set")]
            let &(stamp, victim) = self.by_age.first().expect("full cache non-empty");
            self.forget(victim, stamp);
            Some(victim)
        } else {
            None
        };
        self.touch(item);
        self.stats.insertions += 1;
        evicted
    }

    fn remove(&mut self, item: usize) -> bool {
        let stamp = self.stamp(item);
        if stamp > 0 {
            self.forget(item, stamp);
        }
        stamp > 0
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.lookup(1)); // 2 becomes LRU
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn insert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        c.insert(1); // refresh, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn lookup_miss_does_not_admit() {
        let mut c = LruCache::new(2);
        assert!(!c.lookup(9));
        assert!(!c.contains(9));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_drops_membership_and_age_entry() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.remove(1));
        assert!(!c.contains(1));
        assert!(!c.remove(1));
        // 2 is now alone; inserting 3 must not evict anything.
        assert_eq!(c.insert(3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = LruCache::new(5);
        for i in 0..100 {
            c.insert(i);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
        // Content is the 5 most recent.
        for i in 95..100 {
            assert!(c.contains(i));
        }
    }
}
