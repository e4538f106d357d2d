//! Least-recently-used replacement — the paper's strawman baseline.
//!
//! \[Acha95a\] showed LRU "can perform poorly in this environment" because it
//! ignores broadcast frequency; we keep it for the ablation benches that
//! reproduce that claim.

use crate::policy::{CacheStats, ReplacementPolicy};
use std::collections::{BTreeSet, HashMap};

/// Classic LRU over dense item indexes.
#[derive(Debug, Clone, Default)]
pub struct LruCache {
    capacity: usize,
    /// item -> last-use stamp
    stamp_of: HashMap<usize, u64>,
    /// (stamp, item) ordered oldest first
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

    fn touch(&mut self, item: usize) {
        let stamp = self.tick();
        if let Some(old) = self.stamp_of.insert(item, stamp) {
            self.by_age.remove(&(old, item));
        }
        self.by_age.insert((stamp, item));
    }
}

impl ReplacementPolicy for LruCache {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.stamp_of.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.stamp_of.contains_key(&item)
    }

    fn lookup(&mut self, item: usize) -> bool {
        if self.stamp_of.contains_key(&item) {
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
        if self.stamp_of.contains_key(&item) {
            self.touch(item);
            return None;
        }
        let evicted = if self.stamp_of.len() == self.capacity {
            #[expect(clippy::expect_used, reason = "a full cache has a non-empty age set")]
            let &(stamp, victim) = self.by_age.first().expect("full cache non-empty");
            self.by_age.remove(&(stamp, victim));
            self.stamp_of.remove(&victim);
            self.stats.evictions += 1;
            Some(victim)
        } else {
            None
        };
        self.touch(item);
        self.stats.insertions += 1;
        evicted
    }

    fn remove(&mut self, item: usize) -> bool {
        match self.stamp_of.remove(&item) {
            Some(stamp) => {
                self.by_age.remove(&(stamp, item));
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
