//! The arena-backed client fleet — real clients at population scale.
//!
//! The Virtual Client models "everyone else" as a single open-loop arrival
//! process. That is the paper's trick for simulating an arbitrarily large
//! population cheaply, but it cannot answer per-client questions (flow-time
//! percentiles, stretch, warm-up of individuals) and it assumes the
//! open-loop limit holds. [`ClientArena`] is the other end of the trade:
//! `n` real closed-loop clients, stored as index-addressed structure-of-
//! arrays slabs so that a 10⁵–10⁶-client fleet costs a few flat `Vec`s
//! instead of a million boxed client objects.
//!
//! ## Layout
//!
//! Per-client state lives in parallel slabs indexed by a dense `u32` id:
//!
//! * **cache** — every fleet client runs the static-score policy of the
//!   Virtual Client's steady-state model: a page is cacheable iff it is in
//!   the ideal content (top `CacheSize` by P/PIX score). Membership is a
//!   bitset over *ideal-rank space* (`CacheSize` bits per client, not
//!   `DBSize`), because a page outside the ideal set is never cached by
//!   this policy. Warm clients start with every bit set; cold clients
//!   start empty and acquire ideal pages as deliveries arrive.
//! * **think-timer** — `waiting_page` (`u32::MAX` = thinking) and
//!   `waiting_since` (access start time, the flow-time origin).
//! * **retry** — a [`RetryState`] plus a generation counter per client;
//!   stale timers (their access already completed) fail the gen match.
//! * **waiter lists** — an intrusive singly-linked list per page
//!   (`waiters_head[page]` / `waiters_next[client]`), so a delivered page
//!   completes *all* clients blocked on it in one pass over exactly those
//!   clients — never a scan of the fleet.
//!
//! Fleet clients do not snoop pages they are not waiting for (the Measured
//! Client's prefetch is a per-client refinement; at fleet scale it would
//! make every slot O(n)). A delivery therefore costs O(waiters on that
//! page) and a wake costs O(1), which is what keeps a million-client run
//! inside the per-slot budget.
//!
//! ## Flow time and stretch
//!
//! Every completed miss records its *flow time* (access start → delivery).
//! Pages are unit-size in this model — one page per slot — so a request's
//! *stretch* (flow / service) equals its flow time, and the reported
//! maximum flow is exactly the fleet's max-stretch.

use crate::retry::{RetryPolicy, RetryState};
use crate::threshold::ThresholdFilter;
use crate::tuning::route;
use bpp_broadcast::{MultiChannelProgram, PageId};
use bpp_sim::rng::Rng;
use bpp_sim::{Histogram, Welford};
use bpp_workload::{AccessPattern, ThinkTime};

/// Sentinel for "no page / no client" in the slab links.
const NONE: u32 = u32::MAX;

/// Aggregate counters over the whole fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Accesses begun (hits + misses).
    pub accesses: u64,
    /// Accesses absorbed by a client's cache.
    pub hits: u64,
    /// Misses that passed the threshold filter and were handed to the
    /// backchannel.
    pub requests_sent: u64,
    /// Misses the threshold filter swallowed (the client waits for the
    /// push schedule instead).
    pub requests_filtered: u64,
    /// Misses completed by a delivered page.
    pub completed: u64,
    /// Retry resends issued by fleet clients.
    pub retries: u64,
    /// Fleet accesses whose retry budget ran out (fell back to the push
    /// safety net).
    pub retries_exhausted: u64,
}

impl FleetStats {
    /// Fleet-wide cache hit rate (0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Outcome of one fleet-client wake (mirrors the Measured Client's
/// `BeginOutcome`, with the next think-wake pre-drawn on hits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WakeOutcome {
    /// Cache hit: the access completed instantly; wake the client again at
    /// `next_wake`.
    Hit {
        /// Absolute time of the client's next access.
        next_wake: f64,
    },
    /// Cache miss: the client now blocks on `page`. `send_request` is the
    /// threshold filter's verdict; the caller owns the backchannel submit.
    Miss {
        /// The missed page.
        page: PageId,
        /// Whether the miss passed the threshold filter.
        send_request: bool,
        /// The channel the client tuned to (see [`crate::tuning::route`]).
        channel: usize,
    },
}

/// An index-addressed fleet of closed-loop clients (see module docs).
#[derive(Debug, Clone)]
pub struct ClientArena {
    // --- Shared, read-only model state. ---
    pattern: AccessPattern,
    think: ThinkTime,
    /// Page → rank within the ideal cache content, `NONE` when the page is
    /// not cacheable under the static-score policy.
    ideal_rank: Vec<u32>,
    /// Bitset words per client (`ideal size` bits rounded up).
    words_per_client: usize,
    // --- Per-client SoA slabs. ---
    /// `n × words_per_client` bitset words: which ideal pages each client
    /// has acquired.
    acquired: Vec<u64>,
    /// Page each client is blocked on (`NONE` = thinking).
    waiting_page: Vec<u32>,
    /// Access start time of the outstanding miss (flow-time origin).
    waiting_since: Vec<f64>,
    /// Head of the per-page intrusive waiter list.
    waiters_head: Vec<u32>,
    /// Next pointer of the per-client waiter-list node.
    waiters_next: Vec<u32>,
    /// Retry backoff progress of the outstanding request.
    retry: Vec<RetryState>,
    /// Generation counter invalidating timers of completed accesses.
    retry_gen: Vec<u32>,
    /// Channel the client is tuned to while blocked (`NONE` = thinking).
    tuned: Vec<u32>,
    // --- Fleet-wide statistics. ---
    stats: FleetStats,
    flow: Welford,
    flow_dist: Histogram,
    /// Reused batch-completion buffer: `(client, next_wake)` pairs.
    wake_buf: Vec<(u32, f64)>,
}

impl ClientArena {
    /// Build a fleet of `n` clients.
    ///
    /// * `db_size` — pages in the database (sizes the waiter-list heads);
    /// * `ideal_items` — the ideal cache content of a warmed-up client
    ///   (same list the Virtual Client filters through);
    /// * `warm_clients` — how many clients (ids `0..warm_clients`) start
    ///   with the full ideal content; the rest start cold;
    /// * `think` — per-client think-time distribution;
    /// * `pattern` — the shared access pattern (the population Zipf).
    pub fn new(
        n: usize,
        db_size: usize,
        ideal_items: &[usize],
        warm_clients: usize,
        think: ThinkTime,
        pattern: AccessPattern,
    ) -> Self {
        assert!(n > 0, "fleet must have at least one client");
        assert!(n < NONE as usize, "fleet ids must fit in u32");
        assert!(warm_clients <= n, "warm count exceeds fleet size");
        let mut ideal_rank = vec![NONE; db_size];
        for (r, &item) in ideal_items.iter().enumerate() {
            ideal_rank[item] = r as u32;
        }
        let words_per_client = ideal_items.len().div_ceil(64).max(1);
        let mut acquired = vec![0u64; n * words_per_client];
        if !ideal_items.is_empty() {
            // Warm clients own the whole ideal set: full words, then the
            // partial tail word.
            let full = ideal_items.len() / 64;
            let tail_bits = ideal_items.len() % 64;
            for c in 0..warm_clients {
                let base = c * words_per_client;
                for w in &mut acquired[base..base + full] {
                    *w = u64::MAX;
                }
                if tail_bits > 0 {
                    acquired[base + full] = (1u64 << tail_bits) - 1;
                }
            }
        }
        ClientArena {
            pattern,
            think,
            ideal_rank,
            words_per_client,
            acquired,
            waiting_page: vec![NONE; n],
            waiting_since: vec![0.0; n],
            waiters_head: vec![NONE; db_size],
            waiters_next: vec![NONE; n],
            retry: vec![RetryState::default(); n],
            retry_gen: vec![0; n],
            tuned: vec![NONE; n],
            stats: FleetStats::default(),
            flow: Welford::new(),
            // Same geometry as the MC response histogram: 4-unit bins out
            // to 4× the paper's major cycle; heavier tails overflow and
            // void the affected quantiles.
            flow_dist: Histogram::new(4.0, 1608),
            wake_buf: Vec::new(),
        }
    }

    /// Number of clients in the fleet.
    pub fn len(&self) -> usize {
        self.waiting_page.len()
    }

    /// Whether the fleet is empty (never true: `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.waiting_page.is_empty()
    }

    /// Draw one think time (used to stagger the initial wakes).
    pub fn draw_think<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.think.sample(rng)
    }

    fn cached(&self, client: usize, item: usize) -> bool {
        let rank = self.ideal_rank[item];
        if rank == NONE {
            return false;
        }
        let word = self.acquired[client * self.words_per_client + rank as usize / 64];
        word >> (rank % 64) & 1 == 1
    }

    fn insert(&mut self, client: usize, item: usize) {
        let rank = self.ideal_rank[item];
        if rank != NONE {
            self.acquired[client * self.words_per_client + rank as usize / 64] |=
                1u64 << (rank % 64);
        }
    }

    /// One client finishes thinking and begins an access at `now` against
    /// the broadcast `channels`, whose next push slots are at `cursors`.
    ///
    /// On a hit the access completes instantly and the next wake time is
    /// drawn. On a miss the client joins `page`'s waiter list and tunes to
    /// the channel [`route`] picks (the deterministic fallback shard for
    /// pull-only pages, so every requester of a page agrees on where its
    /// response will fly); the threshold verdict, made there with that
    /// channel's entry of `filters`, is returned and the caller submits
    /// the request and arms the retry timer. The tuned channel is retained
    /// until the access completes (query it with
    /// [`tuned_channel`](Self::tuned_channel)) so retry resends target the
    /// same shard. One pattern draw per access, one think draw per hit.
    pub fn wake<R: Rng + ?Sized>(
        &mut self,
        client: u32,
        now: f64,
        channels: &MultiChannelProgram,
        cursors: &[usize],
        filters: &[ThresholdFilter],
        rng: &mut R,
    ) -> WakeOutcome {
        let c = client as usize;
        debug_assert_eq!(self.waiting_page[c], NONE, "wake of a blocked client");
        self.stats.accesses += 1;
        let item = self.pattern.sample(rng);
        if self.cached(c, item) {
            self.stats.hits += 1;
            return WakeOutcome::Hit {
                next_wake: now + self.think.sample(rng),
            };
        }
        self.waiting_page[c] = item as u32;
        self.waiting_since[c] = now;
        self.waiters_next[c] = self.waiters_head[item];
        self.waiters_head[item] = client;
        let page = PageId(item as u32);
        let route = route(channels, cursors, filters, page);
        self.tuned[c] = route.channel as u32;
        if route.send_request {
            self.stats.requests_sent += 1;
        } else {
            self.stats.requests_filtered += 1;
        }
        WakeOutcome::Miss {
            page,
            send_request: route.send_request,
            channel: route.channel,
        }
    }

    /// The channel `client` is tuned to while blocked (`None` while
    /// thinking).
    pub fn tuned_channel(&self, client: u32) -> Option<usize> {
        let t = self.tuned[client as usize];
        (t != NONE).then_some(t as usize)
    }

    /// A page finished transmission at `now`: complete every client
    /// blocked on it in one pass and return `(client, next_wake)` pairs
    /// for the caller to schedule. The returned slice is a reused internal
    /// buffer, valid until the next `deliver` call.
    pub fn deliver<R: Rng + ?Sized>(
        &mut self,
        page: PageId,
        now: f64,
        rng: &mut R,
    ) -> &[(u32, f64)] {
        self.wake_buf.clear();
        let item = page.index();
        if item >= self.waiters_head.len() {
            return &self.wake_buf;
        }
        let mut c = self.waiters_head[item];
        self.waiters_head[item] = NONE;
        while c != NONE {
            let ci = c as usize;
            let next = self.waiters_next[ci];
            self.waiters_next[ci] = NONE;
            let flow = now - self.waiting_since[ci];
            self.flow.record(flow);
            self.flow_dist.record(flow);
            self.stats.completed += 1;
            self.insert(ci, item);
            self.waiting_page[ci] = NONE;
            self.tuned[ci] = NONE;
            // Invalidate any retry timer armed for this access.
            self.retry_gen[ci] = self.retry_gen[ci].wrapping_add(1);
            self.wake_buf.push((c, now + self.think.sample(rng)));
            c = next;
        }
        &self.wake_buf
    }

    /// Arm the retry state for `client`'s just-sent request; returns the
    /// generation the timer must carry.
    pub fn arm_retry(&mut self, client: u32) -> u32 {
        let c = client as usize;
        self.retry[c] = RetryState::arm();
        self.retry_gen[c]
    }

    /// Current retry generation of `client` (timers with an older value
    /// belong to a completed access).
    pub fn retry_gen(&self, client: u32) -> u32 {
        self.retry_gen[client as usize]
    }

    /// The next backoff delay for `client`, or `None` when the budget is
    /// spent (the client falls back to the push safety net).
    pub fn next_retry_delay<R: Rng>(
        &mut self,
        client: u32,
        policy: &RetryPolicy,
        rng: &mut R,
    ) -> Option<f64> {
        self.retry[client as usize].next_delay(policy, rng)
    }

    /// The page `client` is blocked on, if any.
    pub fn waiting_on(&self, client: u32) -> Option<PageId> {
        let p = self.waiting_page[client as usize];
        (p != NONE).then_some(PageId(p))
    }

    /// Count one retry resend.
    pub fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Count one exhausted retry budget.
    pub fn note_retry_exhausted(&mut self) {
        self.stats.retries_exhausted += 1;
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Accesses currently blocked on a page.
    pub fn outstanding(&self) -> u64 {
        self.stats.accesses - self.stats.hits - self.stats.completed
    }

    /// Flow-time accumulator over completed misses (mean/max; max equals
    /// the fleet's max-stretch for unit-size pages).
    pub fn flow(&self) -> &Welford {
        &self.flow
    }

    /// Flow-time histogram (percentile source, 4-unit bins).
    pub fn flow_dist(&self) -> &Histogram {
        &self.flow_dist
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use bpp_broadcast::{assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec};
    use bpp_sim::rng::Xoshiro256pp;
    use bpp_workload::Zipf;

    const DB: usize = 20;

    /// The paper's single channel: one flat program over the database.
    fn program() -> MultiChannelProgram {
        let spec = DiskSpec::flat(DB);
        let a = Assignment::from_ranking(&identity_ranking(DB), &spec);
        MultiChannelProgram::single(BroadcastProgram::generate(&a, DB))
    }

    /// Wake `c` on the single channel with its cursor at slot 0 and a
    /// pass-all filter.
    fn wake(
        a: &mut ClientArena,
        c: u32,
        now: f64,
        p: &MultiChannelProgram,
        rng: &mut Xoshiro256pp,
    ) -> WakeOutcome {
        a.wake(c, now, p, &[0], &[ThresholdFilter::pass_all()], rng)
    }

    fn arena(n: usize, warm: usize) -> ClientArena {
        let z = Zipf::new(DB, 0.95);
        let pattern = AccessPattern::population(&z);
        let ideal = pattern.top_items(5);
        ClientArena::new(n, DB, &ideal, warm, ThinkTime::Fixed(10.0), pattern)
    }

    #[test]
    fn warm_clients_hit_ideal_pages_and_cold_clients_start_missing() {
        let p = program();

        // A warm client eventually hits (ideal pages are the hot ranks).
        let mut warm = arena(1, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..200 {
            if let WakeOutcome::Miss { page, .. } = wake(&mut warm, 0, 0.0, &p, &mut rng) {
                warm.deliver(page, 1.0, &mut rng);
            }
        }
        assert!(warm.stats().hits > 0, "warm client never hit");

        // A cold client misses everything until deliveries warm it; once an
        // ideal page is delivered, a repeat access to it hits.
        let mut cold = arena(1, 0);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut acquired_ideal = false;
        for _ in 0..200 {
            match wake(&mut cold, 0, 0.0, &p, &mut rng) {
                WakeOutcome::Hit { .. } => {
                    assert!(acquired_ideal, "cold client hit before any delivery");
                }
                WakeOutcome::Miss { page, .. } => {
                    if cold.ideal_rank[page.index()] != NONE {
                        acquired_ideal = true;
                    }
                    cold.deliver(page, 1.0, &mut rng);
                }
            }
        }
        assert!(acquired_ideal, "cold client never accessed an ideal page");
        assert!(cold.stats().hits > 0, "warmed-up cold client never hit");
    }

    #[test]
    fn delivery_completes_every_waiter_in_one_pass() {
        let mut a = arena(8, 0);
        let p = program();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        // Force all 8 clients to wait on the same page by driving wakes
        // until their sampled items collide; instead, block them manually
        // through the public API: wake until each is waiting, then deliver
        // every distinct waited page and count completions.
        let mut waited = std::collections::BTreeSet::new();
        for c in 0..8u32 {
            match wake(&mut a, c, 5.0, &p, &mut rng) {
                WakeOutcome::Miss { page, .. } => {
                    waited.insert(page.index());
                }
                WakeOutcome::Hit { .. } => unreachable!("cold fleet cannot hit"),
            }
        }
        assert_eq!(a.outstanding(), 8);
        let mut wakes = 0;
        for item in waited {
            let batch = a.deliver(PageId(item as u32), 6.0, &mut rng).to_vec();
            for &(_, at) in &batch {
                assert_eq!(at, 16.0, "next wake = deliver + fixed think");
            }
            wakes += batch.len();
        }
        assert_eq!(wakes, 8);
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats().completed, 8);
        assert_eq!(a.flow().count(), 8);
        assert_eq!(a.flow().max(), 1.0);
    }

    #[test]
    fn cold_client_acquires_ideal_pages_through_deliveries() {
        let mut a = arena(1, 0);
        let ideal_item = a.ideal_rank.iter().position(|&r| r == 0).unwrap();
        assert!(!a.cached(0, ideal_item));
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // Simulate the client waiting on that page, then its delivery.
        a.waiting_page[0] = ideal_item as u32;
        a.waiting_since[0] = 0.0;
        a.waiters_next[0] = NONE;
        a.waiters_head[ideal_item] = 0;
        a.deliver(PageId(ideal_item as u32), 2.0, &mut rng);
        assert!(a.cached(0, ideal_item), "delivered ideal page not cached");
    }

    #[test]
    fn non_ideal_pages_are_never_cached() {
        let mut a = arena(1, 0);
        let outside = a.ideal_rank.iter().position(|&r| r == NONE).unwrap();
        a.insert(0, outside);
        assert!(!a.cached(0, outside));
    }

    #[test]
    fn threshold_filter_gates_requests() {
        let z = Zipf::new(DB, 0.95);
        let pattern = AccessPattern::population(&z);
        let p = program();
        // Full-cycle threshold: every scheduled page is filtered.
        let mut a = ClientArena::new(4, DB, &[], 0, ThinkTime::Fixed(1.0), pattern);
        let full = [ThresholdFilter::from_percentage(
            1.0,
            p.channel(0).major_cycle(),
        )];
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for c in 0..4u32 {
            match a.wake(c, 0.0, &p, &[0], &full, &mut rng) {
                WakeOutcome::Miss { send_request, .. } => assert!(!send_request),
                WakeOutcome::Hit { .. } => unreachable!("empty ideal set cannot hit"),
            }
        }
        assert_eq!(a.stats().requests_filtered, 4);
        assert_eq!(a.stats().requests_sent, 0);
    }

    #[test]
    fn retry_generation_invalidates_completed_accesses() {
        let mut a = arena(1, 0);
        let p = program();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let WakeOutcome::Miss { page, .. } = wake(&mut a, 0, 0.0, &p, &mut rng) else {
            unreachable!("cold fleet cannot hit");
        };
        let gen = a.arm_retry(0);
        assert_eq!(a.retry_gen(0), gen);
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        assert!(a.next_retry_delay(0, &policy, &mut rng).is_some());
        // Delivery completes the access and bumps the generation.
        a.deliver(page, 1.0, &mut rng);
        assert_ne!(a.retry_gen(0), gen, "completion must invalidate timers");
    }

    #[test]
    fn pull_only_misses_fall_back_to_a_per_page_shard_and_always_request() {
        // Channels only air pages 0..10; 10..20 are pull-only everywhere.
        let band = |lo: u32, hi: u32| {
            let pages: Vec<PageId> = (lo..hi).map(PageId).collect();
            let spec = DiskSpec::flat(pages.len());
            let a = Assignment::from_ranking(&pages, &spec);
            BroadcastProgram::generate(&a, DB)
        };
        let channels = MultiChannelProgram::from_channels(vec![band(0, 5), band(5, 10)]);
        // Full-cycle filters: on-air misses are filtered, pull-only never.
        let filters: Vec<ThresholdFilter> = (0..2)
            .map(|k| ThresholdFilter::from_percentage(1.0, channels.channel(k).major_cycle()))
            .collect();
        let mut a = arena(1, 0);
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let mut saw_pull_only = false;
        for round in 0..400 {
            let out = a.wake(0, round as f64, &channels, &[0, 0], &filters, &mut rng);
            let WakeOutcome::Miss {
                page, send_request, ..
            } = out
            else {
                continue;
            };
            if page.index() >= 10 {
                saw_pull_only = true;
                assert!(send_request, "pull-only miss must use the backchannel");
                assert_eq!(
                    a.tuned_channel(0),
                    Some(page.index() % 2),
                    "fallback shard is per-page deterministic"
                );
            } else {
                assert!(!send_request, "on-air page under a full filter");
            }
            a.deliver(page, round as f64 + 0.5, &mut rng);
        }
        assert!(saw_pull_only, "the workload never drew a pull-only page");
    }

    #[test]
    fn arena_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut a = arena(16, 8);
            let p = program();
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut log = Vec::new();
            for round in 0..50 {
                let now = round as f64;
                for c in 0..16u32 {
                    if a.waiting_on(c).is_some() {
                        continue;
                    }
                    if let WakeOutcome::Miss { page, .. } = wake(&mut a, c, now, &p, &mut rng) {
                        let batch = a.deliver(page, now + 1.0, &mut rng).to_vec();
                        log.extend(batch);
                    }
                }
            }
            (log, *a.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }
}
