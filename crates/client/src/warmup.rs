//! Warm-up progress tracking (the metric of Figure 4).
//!
//! A client joining the broadcast starts with an empty cache. The warm-up
//! experiment asks: how long until the cache holds 10%, 20%, ..., 95% of the
//! `CacheSize` *highest-valued* pages? The tracker is told the target set up
//! front and observes cache insertions/evictions.

use bpp_sim::Time;

/// Tracks when the cache first contained each fraction of its ideal content.
#[derive(Debug, Clone)]
pub struct WarmupTracker {
    is_target: Vec<bool>,
    target_size: usize,
    in_cache: usize,
    /// milestones[i] = first time `fractions[i]` of the target was cached.
    fractions: Vec<f64>,
    reached_at: Vec<Option<Time>>,
}

impl WarmupTracker {
    /// Track the given target items (the ideal cache content) over a
    /// universe of `universe` items, reporting the paper's milestones
    /// (10%..90% in steps of 10, then 95%).
    pub fn new(universe: usize, target: &[usize]) -> Self {
        Self::with_fractions(
            universe,
            target,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
        )
    }

    /// Track custom milestone fractions (each in `(0, 1]`, ascending).
    pub fn with_fractions(universe: usize, target: &[usize], fractions: &[f64]) -> Self {
        assert!(
            fractions.windows(2).all(|w| w[0] < w[1]),
            "fractions must be ascending"
        );
        assert!(
            fractions.iter().all(|&f| f > 0.0 && f <= 1.0),
            "fractions must be in (0,1]"
        );
        let mut is_target = vec![false; universe];
        for &t in target {
            is_target[t] = true;
        }
        WarmupTracker {
            is_target,
            target_size: target.len(),
            in_cache: 0,
            fractions: fractions.to_vec(),
            reached_at: vec![None; fractions.len()],
        }
    }

    /// Observe an insertion into the cache at `now`.
    pub fn on_insert(&mut self, now: Time, item: usize) {
        if self.is_target[item] {
            self.in_cache += 1;
            let frac = self.in_cache as f64 / self.target_size.max(1) as f64;
            for (i, &f) in self.fractions.iter().enumerate() {
                if self.reached_at[i].is_none() && frac >= f {
                    self.reached_at[i] = Some(now);
                }
            }
        }
    }

    /// Observe an eviction from the cache. Milestones already reached stay
    /// reached (the paper measures first-hit times).
    pub fn on_evict(&mut self, item: usize) {
        if self.is_target[item] {
            self.in_cache -= 1;
        }
    }

    /// Current fraction of the target set in the cache.
    pub fn progress(&self) -> f64 {
        if self.target_size == 0 {
            1.0
        } else {
            self.in_cache as f64 / self.target_size as f64
        }
    }

    /// The milestone fractions being tracked.
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// First-reach time per milestone (`None` = not yet reached).
    pub fn milestones(&self) -> &[Option<Time>] {
        &self.reached_at
    }

    /// True when every milestone has been reached.
    pub fn complete(&self) -> bool {
        self.reached_at.iter().all(Option::is_some)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn milestones_fire_in_order() {
        let target: Vec<usize> = (0..10).collect();
        let mut w = WarmupTracker::with_fractions(20, &target, &[0.5, 1.0]);
        for i in 0..4 {
            w.on_insert(i as f64, i);
        }
        assert_eq!(w.milestones(), &[None, None]);
        w.on_insert(4.0, 4); // 5/10 = 50%
        assert_eq!(w.milestones()[0], Some(4.0));
        for i in 5..10 {
            w.on_insert(i as f64, i);
        }
        assert_eq!(w.milestones()[1], Some(9.0));
        assert!(w.complete());
    }

    #[test]
    fn non_target_items_are_ignored() {
        let mut w = WarmupTracker::with_fractions(10, &[0, 1], &[1.0]);
        w.on_insert(1.0, 5);
        w.on_insert(2.0, 7);
        assert_eq!(w.progress(), 0.0);
        w.on_insert(3.0, 0);
        w.on_insert(4.0, 1);
        assert_eq!(w.milestones()[0], Some(4.0));
    }

    #[test]
    fn eviction_reduces_progress_but_keeps_milestones() {
        let mut w = WarmupTracker::with_fractions(10, &[0, 1], &[0.5]);
        w.on_insert(1.0, 0);
        assert_eq!(w.milestones()[0], Some(1.0));
        w.on_evict(0);
        assert_eq!(w.progress(), 0.0);
        assert_eq!(w.milestones()[0], Some(1.0));
        // Re-inserting later does not overwrite the first-reach time.
        w.on_insert(9.0, 1);
        assert_eq!(w.milestones()[0], Some(1.0));
    }

    #[test]
    fn default_fractions_match_figure_4() {
        let w = WarmupTracker::new(100, &[0]);
        assert_eq!(w.fractions().len(), 10);
        assert_eq!(w.fractions()[0], 0.1);
        assert_eq!(*w.fractions().last().unwrap(), 0.95);
    }

    #[test]
    fn empty_target_is_trivially_complete_progress() {
        let w = WarmupTracker::with_fractions(10, &[], &[0.5]);
        assert_eq!(w.progress(), 1.0);
    }
}
