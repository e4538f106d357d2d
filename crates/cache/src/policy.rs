//! The replacement-policy trait and shared accounting.

/// A fixed-capacity page cache with a replacement policy.
///
/// The access protocol is: on every page access call
/// [`lookup`](ReplacementPolicy::lookup); on a miss, once the page has been
/// retrieved from the broadcast or the server, call
/// [`insert`](ReplacementPolicy::insert).
pub trait ReplacementPolicy {
    /// Maximum number of items the cache holds.
    fn capacity(&self) -> usize;

    /// Current number of cached items.
    fn len(&self) -> usize;

    /// True when no items are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the cache is at capacity.
    fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Membership test *without* recording an access (no statistics, no
    /// recency update). For instrumentation such as warm-up tracking.
    fn contains(&self, item: usize) -> bool;

    /// Access `item`: returns `true` on a hit (updating recency/frequency
    /// state and statistics), `false` on a miss.
    fn lookup(&mut self, item: usize) -> bool;

    /// Insert `item` after a miss was satisfied. Returns the evicted item,
    /// if any. Policies with value-based admission may refuse the insert
    /// and return `None` while leaving the cache unchanged (the incoming
    /// item itself was the lowest-valued candidate).
    fn insert(&mut self, item: usize) -> Option<usize>;

    /// Drop `item` from the cache (server-side update invalidated it).
    /// Returns `true` if it was cached. Counted as an eviction.
    fn remove(&mut self, item: usize) -> bool;

    /// Statistics accumulated so far.
    fn stats(&self) -> &CacheStats;
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the item.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Successful insertions.
    pub insertions: u64,
    /// Items pushed out by an insertion.
    pub evictions: u64,
    /// Insertions refused by value-based admission.
    pub rejected: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_is_fractional() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
