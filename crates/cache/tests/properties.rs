//! Property tests: invariants every replacement policy must uphold, driven
//! by deterministic generator loops — case `i` derives its inputs from
//! `stream_rng_raw(SEED, i)`, so failures reproduce from the case index
//! alone.

#![expect(
    clippy::disallowed_methods,
    reason = "property cases derive one RNG stream per case index"
)]

use bpp_cache::{LfuCache, LruCache, ReplacementPolicy, StaticScoreCache};
use bpp_sim::rng::{stream_rng_raw, Rng, Xoshiro256pp};

const SEED: u64 = 0x5EED_B0DC;
const CASES: u64 = 64;

/// Run a random access trace against a policy and check the universal
/// invariants: capacity bound, contains/lookup agreement, eviction accuracy.
fn exercise<P: ReplacementPolicy>(mut cache: P, universe: usize, ops: usize, seed: u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut shadow = std::collections::HashSet::new();
    for _ in 0..ops {
        // Occasionally invalidate (server-side update), otherwise access.
        if rng.random_range(0..10) == 0 {
            let item = rng.random_range(0..universe);
            let removed = cache.remove(item);
            assert_eq!(removed, shadow.remove(&item), "remove/shadow disagree");
        } else {
            let item = rng.random_range(0..universe);
            let hit = cache.lookup(item);
            assert_eq!(hit, shadow.contains(&item), "lookup/shadow disagree");
            if !hit {
                if let Some(victim) = cache.insert(item) {
                    assert!(shadow.remove(&victim), "evicted non-member {victim}");
                    assert!(!cache.contains(victim));
                }
                if cache.contains(item) {
                    shadow.insert(item);
                }
            }
        }
        assert!(cache.len() <= cache.capacity(), "over capacity");
        assert_eq!(cache.len(), shadow.len(), "len/shadow disagree");
    }
    let s = cache.stats();
    assert!(s.hits + s.misses <= ops as u64);
}

/// Generator: (capacity in 0..20, universe in 1..50, trace seed).
fn gen_case(case: u64) -> (usize, usize, u64) {
    let mut rng = stream_rng_raw(SEED, case);
    let cap = rng.random_range(0..20);
    let universe = 1 + rng.random_range(0..49);
    let seed = rng.random::<u64>();
    (cap, universe, seed)
}

#[test]
fn lru_invariants() {
    for case in 0..CASES {
        let (cap, universe, seed) = gen_case(case);
        exercise(LruCache::new(cap), universe, 500, seed);
    }
}

#[test]
fn lfu_invariants() {
    for case in 0..CASES {
        let (cap, universe, seed) = gen_case(case);
        exercise(LfuCache::new(cap), universe, 500, seed);
    }
}

#[test]
fn static_score_invariants() {
    for case in 0..CASES {
        let (cap, universe, seed) = gen_case(case);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xABCD);
        let scores: Vec<f64> = (0..universe).map(|_| rng.random::<f64>()).collect();
        exercise(StaticScoreCache::new(cap, scores), universe, 500, seed);
    }
}

#[test]
fn static_score_converges_to_ideal() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let cap = 1 + rng.random_range(0..19);
        let universe = 20 + rng.random_range(0..40);
        let scores: Vec<f64> = (0..universe).map(|_| rng.random::<f64>()).collect();
        let mut c = StaticScoreCache::new(cap, scores);
        // Insert every item once: cache must end up holding the ideal set.
        for i in 0..universe {
            c.insert(i);
        }
        let mut content: Vec<usize> = (0..universe).filter(|&i| c.contains(i)).collect();
        let mut ideal = c.ideal_content();
        content.sort_unstable();
        ideal.sort_unstable();
        assert_eq!(content, ideal, "case {case}");
    }
}

#[test]
fn pix_scores_scale_inversely_with_frequency() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let p = 0.0001 + rng.random::<f64>() * 0.9999;
        let x = 1 + rng.random_range(0..19);
        let c = StaticScoreCache::pix(1, &[p, p], &[x, x * 2]);
        assert!(c.score(0) > c.score(1), "case {case}: p={p} x={x}");
    }
}
