//! Closed-form analysis of broadcast programs.
//!
//! Used by the analytic comparator (`bpp-core::analytic`) and by reports:
//! given a program and a per-page access probability vector, compute the
//! expected push response time without running the simulator. At Noise=0
//! with a warmed cache this matches the Pure-Push steady-state measurement,
//! which makes it a powerful cross-check on the event-driven machinery.

use crate::{BroadcastProgram, PageId};

/// Aggregate analysis of a program against an access pattern.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Expected response time over all accesses, counting cache hits as 0
    /// and assuming the `cached` pages never reach the broadcast.
    pub expected_response: f64,
    /// Expected response time over broadcast-served misses only.
    pub expected_miss_response: f64,
    /// Probability mass served from the cache.
    pub cache_hit_mass: f64,
    /// Probability mass of pages that are neither cached nor broadcast
    /// (pull-only pages — the analytic push model cannot serve them).
    pub unserved_mass: f64,
}

/// Analyse `program` under `probs` (per-page access probabilities) with a
/// statically warmed cache holding `cached` pages.
///
/// # Panics
/// If `probs.len()` differs from the program's database size.
pub fn analyse(program: &BroadcastProgram, probs: &[f64], cached: &[PageId]) -> ProgramAnalysis {
    assert_eq!(probs.len(), program.db_size(), "probability vector size");
    let mut is_cached = vec![false; probs.len()];
    for p in cached {
        is_cached[p.index()] = true;
    }
    let mut hit_mass = 0.0;
    let mut unserved = 0.0;
    let mut weighted = 0.0;
    let mut miss_mass = 0.0;
    for (i, &pr) in probs.iter().enumerate() {
        if is_cached[i] {
            hit_mass += pr;
        } else {
            match program.expected_slots(PageId(i as u32)) {
                Some(d) => {
                    weighted += pr * d;
                    miss_mass += pr;
                }
                None => unserved += pr,
            }
        }
    }
    ProgramAnalysis {
        expected_response: weighted, // hits contribute 0
        expected_miss_response: if miss_mass > 0.0 {
            weighted / miss_mass
        } else {
            0.0
        },
        cache_hit_mass: hit_mass,
        unserved_mass: unserved,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::assignment::{identity_ranking, Assignment, DiskSpec};

    #[test]
    fn uniform_flat_disk_matches_hand_calculation() {
        let spec = DiskSpec::flat(4);
        let a = Assignment::from_ranking(&identity_ranking(4), &spec);
        let p = BroadcastProgram::generate(&a, 4);
        let probs = [0.25; 4];
        let r = analyse(&p, &probs, &[]);
        // Every page waits mean of 1..=4 = 2.5 slots.
        assert!((r.expected_response - 2.5).abs() < 1e-12);
        assert!((r.expected_miss_response - 2.5).abs() < 1e-12);
        assert_eq!(r.cache_hit_mass, 0.0);
        assert_eq!(r.unserved_mass, 0.0);
    }

    #[test]
    fn caching_removes_mass_and_latency() {
        let spec = DiskSpec::flat(4);
        let a = Assignment::from_ranking(&identity_ranking(4), &spec);
        let p = BroadcastProgram::generate(&a, 4);
        let probs = [0.7, 0.1, 0.1, 0.1];
        let r = analyse(&p, &probs, &[PageId(0)]);
        assert!((r.cache_hit_mass - 0.7).abs() < 1e-12);
        assert!((r.expected_response - 0.3 * 2.5).abs() < 1e-12);
        assert!((r.expected_miss_response - 2.5).abs() < 1e-12);
    }

    #[test]
    fn chopped_pages_are_unserved() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let mut a = Assignment::from_ranking(&identity_ranking(4), &spec);
        a.chop(1); // removes the coldest page (3)
        let p = BroadcastProgram::generate(&a, 4);
        let probs = [0.4, 0.3, 0.2, 0.1];
        let r = analyse(&p, &probs, &[]);
        assert!((r.unserved_mass - 0.1).abs() < 1e-12);
    }
}
