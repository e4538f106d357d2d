//! The Measured Client — the closed-loop client whose response times are
//! the paper's reported metric.
//!
//! Lifecycle per access: think → draw a page from the (Noise-permuted) Zipf
//! pattern → probe the cache. A hit completes instantly (response 0). On a
//! miss the client tunes to the channel airing the page soonest and blocks,
//! listening there; if the page's next scheduled appearance is beyond the
//! threshold (or the page is not on the schedule) it also fires a pull
//! request at the server. Whichever slot — push or pull, its own request or
//! another client's — first carries the page completes the access, and the
//! page enters the cache.

use crate::threshold::ThresholdFilter;
use crate::tuning::route;
use crate::warmup::WarmupTracker;
use bpp_broadcast::{MultiChannelProgram, PageId};
use bpp_cache::ReplacementPolicy;
use bpp_sim::rng::Rng;
use bpp_sim::Time;
use bpp_workload::{AccessPattern, ThinkTime};

/// Outcome of starting an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// Served from the cache; response time 0.
    Hit {
        /// The page that was accessed.
        page: PageId,
    },
    /// Cache miss: the client now blocks on the frontchannel.
    Miss {
        /// The page being waited for.
        page: PageId,
        /// True when the threshold filter lets a pull request through.
        send_request: bool,
        /// The channel the client tuned to (see [`crate::tuning::route`]).
        channel: usize,
    },
}

/// Basic lifetime counters for the Measured Client.
#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    /// Accesses begun.
    pub accesses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Pull requests the threshold filter let through.
    pub requests_sent: u64,
    /// Misses completed via the frontchannel.
    pub completed: u64,
}

impl McStats {
    /// Misses the threshold filter swallowed — the client chose to wait for
    /// the broadcast instead of spending a backchannel request. Together
    /// with [`McStats::requests_sent`] this gives the filter's hit rate:
    /// every miss either sends a request or is filtered.
    pub fn requests_filtered(&self) -> u64 {
        self.misses - self.requests_sent
    }

    /// Cache hit fraction over all accesses begun (0 before the first).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Idle,
    Waiting { page: PageId, since: Time },
}

/// The Measured Client.
pub struct MeasuredClient {
    pattern: AccessPattern,
    cache: Box<dyn ReplacementPolicy>,
    think: ThinkTime,
    state: State,
    warmup: Option<WarmupTracker>,
    stats: McStats,
}

impl MeasuredClient {
    /// Assemble a client. `cache` decides the replacement policy (PIX, P,
    /// LRU, ...).
    pub fn new(
        pattern: AccessPattern,
        cache: Box<dyn ReplacementPolicy>,
        think: ThinkTime,
    ) -> Self {
        MeasuredClient {
            pattern,
            cache,
            think,
            state: State::Idle,
            warmup: None,
            stats: McStats::default(),
        }
    }

    /// Attach a warm-up tracker observing this client's cache.
    pub fn attach_warmup(&mut self, tracker: WarmupTracker) {
        self.warmup = Some(tracker);
    }

    /// The attached warm-up tracker, if any.
    pub fn warmup(&self) -> Option<&WarmupTracker> {
        self.warmup.as_ref()
    }

    /// Draw the next think time.
    pub fn draw_think<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.think.sample(rng)
    }

    /// The client's access pattern (for score/ideal-content computations).
    pub fn pattern(&self) -> &AccessPattern {
        &self.pattern
    }

    /// The cache (for hit-rate reporting and warm-up state).
    pub fn cache(&self) -> &dyn ReplacementPolicy {
        self.cache.as_ref()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The page this client is currently blocked on, if any.
    pub fn waiting_on(&self) -> Option<PageId> {
        match self.state {
            State::Idle => None,
            State::Waiting { page, .. } => Some(page),
        }
    }

    /// Begin one access at time `now` against the broadcast `channels`
    /// (one program for the paper's single channel; any may be empty, as
    /// under Pure-Pull), whose next push slots are at `cursors`. On a miss
    /// the client tunes to the channel [`route`] picks, and the threshold
    /// is judged there with that channel's entry of `filters`. One pattern
    /// draw per access.
    ///
    /// # Panics
    /// If the client is already blocked on a page.
    pub fn begin_access<R: Rng + ?Sized>(
        &mut self,
        now: Time,
        channels: &MultiChannelProgram,
        cursors: &[usize],
        filters: &[ThresholdFilter],
        rng: &mut R,
    ) -> BeginOutcome {
        assert!(
            matches!(self.state, State::Idle),
            "begin_access while already waiting"
        );
        self.stats.accesses += 1;
        let item = self.pattern.sample(rng);
        let page = PageId(item as u32);
        if self.cache.lookup(item) {
            self.stats.hits += 1;
            return BeginOutcome::Hit { page };
        }
        self.stats.misses += 1;
        let route = route(channels, cursors, filters, page);
        if route.send_request {
            self.stats.requests_sent += 1;
        }
        self.state = State::Waiting { page, since: now };
        BeginOutcome::Miss {
            page,
            send_request: route.send_request,
            channel: route.channel,
        }
    }

    /// A page was heard on the frontchannel. If the client was blocked on
    /// it, the access completes: returns the response time (now − request
    /// time) and inserts the page into the cache.
    pub fn on_broadcast(&mut self, now: Time, page: PageId) -> Option<f64> {
        let State::Waiting {
            page: waiting,
            since,
        } = self.state
        else {
            return None;
        };
        if waiting != page {
            return None;
        }
        self.state = State::Idle;
        self.stats.completed += 1;
        self.admit(now, page);
        Some(now - since)
    }

    /// Opportunistic prefetch (\[Acha96a\]): offer a page flying by on the
    /// frontchannel to the cache even though no request is pending on it.
    /// With a value-based policy (PIX/P) the cache's own admission test
    /// decides — the page enters only if it outscores the current minimum.
    ///
    /// Do not call this for the page the client is blocked on; that
    /// delivery goes through [`on_broadcast`](Self::on_broadcast).
    pub fn prefetch(&mut self, now: Time, page: PageId) {
        debug_assert!(
            self.waiting_on() != Some(page),
            "prefetch of the awaited page; use on_broadcast"
        );
        self.admit(now, page);
    }

    /// A server-side update invalidated `page` (\[Acha96b\] extension): drop
    /// any cached copy. Returns `true` if a copy was dropped.
    pub fn invalidate(&mut self, page: PageId) -> bool {
        let removed = self.cache.remove(page.index());
        if removed {
            if let Some(w) = &mut self.warmup {
                w.on_evict(page.index());
            }
        }
        removed
    }

    fn admit(&mut self, now: Time, page: PageId) {
        if self.cache.contains(page.index()) {
            return;
        }
        let evicted = self.cache.insert(page.index());
        if let Some(w) = &mut self.warmup {
            if let Some(v) = evicted {
                w.on_evict(v);
            }
            if self.cache.contains(page.index()) {
                w.on_insert(now, page.index());
            }
        }
    }
}

impl std::fmt::Debug for MeasuredClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasuredClient")
            .field("state", &self.state)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_broadcast::{assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec};
    use bpp_cache::StaticScoreCache;
    use bpp_sim::rng::Xoshiro256pp;
    use bpp_workload::{NoisePermutation, Zipf};

    /// The paper's single channel: the one-channel program and its filter,
    /// accessed with the cursor at slot 0.
    struct Air {
        channels: MultiChannelProgram,
        filters: [ThresholdFilter; 1],
    }

    impl Air {
        fn begin(
            &self,
            mc: &mut MeasuredClient,
            now: Time,
            rng: &mut Xoshiro256pp,
        ) -> BeginOutcome {
            mc.begin_access(now, &self.channels, &[0], &self.filters, rng)
        }
    }

    fn setup(cache_cap: usize, thres: f64) -> (MeasuredClient, Air) {
        let n = 7;
        let spec = DiskSpec::new(vec![1, 2, 4], vec![4, 2, 1]);
        let a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let program = BroadcastProgram::generate(&a, n);
        let zipf = Zipf::new(n, 0.95);
        let pattern = AccessPattern::new(&zipf, NoisePermutation::identity(n));
        let freqs: Vec<usize> = (0..n)
            .map(|i| program.frequency(PageId(i as u32)))
            .collect();
        let cache = StaticScoreCache::pix(cache_cap, pattern.probs(), &freqs);
        let filter = ThresholdFilter::from_percentage(thres, program.major_cycle());
        let mc = MeasuredClient::new(pattern, Box::new(cache), ThinkTime::Fixed(2.0));
        let air = Air {
            channels: MultiChannelProgram::single(program),
            filters: [filter],
        };
        (mc, air)
    }

    #[test]
    fn miss_then_delivery_yields_response_time() {
        let (mut mc, air) = setup(0, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let out = air.begin(&mut mc, 10.0, &mut rng);
        let BeginOutcome::Miss {
            page, send_request, ..
        } = out
        else {
            panic!("cache is empty; must miss");
        };
        assert!(send_request, "zero threshold requests everything");
        assert_eq!(mc.waiting_on(), Some(page));
        // Unrelated pages do not complete the access.
        let other = PageId(if page.0 == 0 { 1 } else { 0 });
        assert_eq!(mc.on_broadcast(12.0, other), None);
        let r = mc.on_broadcast(15.5, page).expect("delivery completes");
        assert!((r - 5.5).abs() < 1e-12);
        assert_eq!(mc.waiting_on(), None);
        assert_eq!(mc.stats().completed, 1);
    }

    #[test]
    fn cached_page_hits_and_does_not_block() {
        let (mut mc, air) = setup(7, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        // Fill the cache by running accesses and delivering.
        for _ in 0..50 {
            match air.begin(&mut mc, 0.0, &mut rng) {
                BeginOutcome::Miss { page, .. } => {
                    mc.on_broadcast(0.0, page);
                }
                BeginOutcome::Hit { .. } => {}
            }
        }
        // Cache holds all 7 pages now: every access hits.
        let out = air.begin(&mut mc, 1.0, &mut rng);
        assert!(matches!(out, BeginOutcome::Hit { .. }));
        assert!(mc.stats().hits > 0);
    }

    #[test]
    fn threshold_suppresses_near_pages() {
        let (mut mc, air) = setup(0, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // Full threshold: nothing on the broadcast is ever requested.
        for _ in 0..20 {
            match air.begin(&mut mc, 0.0, &mut rng) {
                BeginOutcome::Miss {
                    page, send_request, ..
                } => {
                    assert!(!send_request);
                    mc.on_broadcast(0.0, page);
                }
                BeginOutcome::Hit { .. } => unreachable!("capacity 0"),
            }
        }
        assert_eq!(mc.stats().requests_sent, 0);
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_begin_panics() {
        let (mut mc, air) = setup(0, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        air.begin(&mut mc, 0.0, &mut rng);
        air.begin(&mut mc, 1.0, &mut rng);
    }

    #[test]
    fn warmup_tracker_observes_insertions() {
        let (mut mc, air) = setup(2, 0.0);
        // Recompute the PIX ideal content exactly as setup() builds it.
        let freqs: Vec<usize> = (0..7)
            .map(|i| air.channels.channel(0).frequency(PageId(i as u32)))
            .collect();
        let ideal = StaticScoreCache::pix(2, mc.pattern().probs(), &freqs).ideal_content();
        mc.attach_warmup(WarmupTracker::with_fractions(7, &ideal, &[0.5, 1.0]));
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..200 {
            match air.begin(&mut mc, 0.0, &mut rng) {
                BeginOutcome::Miss { page, .. } => {
                    mc.on_broadcast(0.0, page);
                }
                BeginOutcome::Hit { .. } => {}
            }
        }
        let w = mc.warmup().unwrap();
        assert!(w.complete(), "progress {}", w.progress());
    }

    #[test]
    fn stats_balance() {
        let (mut mc, air) = setup(3, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for _ in 0..100 {
            if let BeginOutcome::Miss { page, .. } = air.begin(&mut mc, 0.0, &mut rng) {
                mc.on_broadcast(0.0, page);
            }
        }
        let s = mc.stats();
        assert_eq!(s.accesses, 100);
        assert_eq!(s.hits + s.misses, 100);
        assert_eq!(s.completed, s.misses);
        assert_eq!(s.requests_filtered(), s.misses - s.requests_sent);
    }

    #[test]
    fn requests_filtered_counts_threshold_swallowed_misses() {
        // Full threshold (setup ratio 1.0): every miss is filtered.
        let (mut mc, air) = setup(0, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..20 {
            if let BeginOutcome::Miss { page, .. } = air.begin(&mut mc, 0.0, &mut rng) {
                mc.on_broadcast(0.0, page);
            }
        }
        let s = mc.stats();
        assert_eq!(s.requests_sent, 0);
        assert_eq!(s.requests_filtered(), s.misses);
    }
}
