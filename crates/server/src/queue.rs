//! The bounded, coalescing backchannel request queue.

use bpp_broadcast::PageId;
use bpp_json::Json;
use std::collections::{HashMap, VecDeque};

/// What happened to a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued as a new entry.
    Enqueued,
    /// A request for the page was already pending; this one piggybacks.
    Coalesced,
    /// The queue was full; the request is silently discarded.
    DroppedFull,
}

/// What to do with a *new* page request arriving at a full queue.
///
/// The paper's queue silently discards the newcomer ([`DropNewest`]);
/// the fault-model extension adds [`DropOldest`], which evicts the
/// longest-waiting entry to make room — trading head-of-line staleness for
/// admission of fresh demand. Either way somebody loses: the accounting in
/// [`QueueStats`] says who.
///
/// [`DropNewest`]: OverflowPolicy::DropNewest
/// [`DropOldest`]: OverflowPolicy::DropOldest
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Discard the arriving request (the paper's behavior).
    #[default]
    DropNewest,
    /// Evict the oldest queued entry (and all its coalesced waiters) to
    /// admit the arriving request.
    DropOldest,
}

impl bpp_json::ToJson for OverflowPolicy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                OverflowPolicy::DropNewest => "drop_newest",
                OverflowPolicy::DropOldest => "drop_oldest",
            }
            .into(),
        )
    }
}

/// Service order of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// First in, first out — the paper's discipline.
    #[default]
    Fifo,
    /// Serve the page with the most coalesced requests first (extension).
    /// Ties go to the older entry.
    MostRequested,
}

/// Counters matching the drop/coalesce accounting the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests submitted in total.
    pub received: u64,
    /// Requests that created a new queue entry.
    pub enqueued: u64,
    /// Requests absorbed by an existing entry for the same page.
    pub coalesced: u64,
    /// Requests discarded because the queue was full.
    pub dropped_full: u64,
    /// Queued entries evicted by [`OverflowPolicy::DropOldest`] to admit a
    /// newer request (always 0 under the paper's `DropNewest` policy).
    pub dropped_evicted: u64,
    /// Entries served (broadcast in a pull slot).
    pub served: u64,
    /// Individual requests served: every pop counts the entry's coalesced
    /// waiters too (request grain, where `served` is entry grain). The
    /// conservation auditor works at this grain.
    pub served_requests: u64,
    /// Individual requests evicted under `DropOldest` (riders included;
    /// request-grain counterpart of `dropped_evicted`).
    pub evicted_requests: u64,
}

impl QueueStats {
    /// Fraction of received requests discarded at a full queue.
    pub fn drop_rate(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.dropped_full as f64 / self.received as f64
        }
    }

    /// Fraction of received requests that were *ignored* by the server —
    /// the paper's wider definition, counting both full-queue drops and
    /// coalesced duplicates ("a request is dropped if either the queue is
    /// already full or if there is a pre-existing queued request").
    pub fn ignore_rate(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            (self.dropped_full + self.coalesced) as f64 / self.received as f64
        }
    }
}

/// Bounded queue of distinct page requests.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    capacity: usize,
    discipline: Discipline,
    // bpp-lint: allow(D13): config knob — restart preserves the configured policy
    overflow: OverflowPolicy,
    order: VecDeque<PageId>,
    /// page -> number of coalesced requests waiting on it (>= 1).
    pending: HashMap<PageId, u32>,
    /// page -> submission time of the entry, kept only when wait tracking
    /// is on. Pure keyed storage — never iterated — so hash order cannot
    /// leak into behavior.
    enqueue_at: Option<HashMap<PageId, f64>>,
    // bpp-lint: allow(D13): cumulative run accounting — the conservation ledger needs it across crashes
    stats: QueueStats,
}

impl RequestQueue {
    /// An empty FIFO queue holding at most `capacity` distinct pages.
    pub fn new(capacity: usize) -> Self {
        Self::with_discipline(capacity, Discipline::Fifo)
    }

    /// An empty queue with an explicit service discipline.
    pub fn with_discipline(capacity: usize, discipline: Discipline) -> Self {
        RequestQueue {
            capacity,
            discipline,
            overflow: OverflowPolicy::DropNewest,
            order: VecDeque::new(),
            pending: HashMap::new(),
            enqueue_at: None,
            stats: QueueStats::default(),
        }
    }

    /// Start remembering when each entry was enqueued so that
    /// [`RequestQueue::pop_wait`] can report queueing delays. Off by
    /// default: the untracked queue does zero extra work.
    pub fn track_waits(&mut self) {
        self.enqueue_at = Some(HashMap::new());
    }

    /// Change what happens when a new page arrives at a full queue.
    pub fn set_overflow(&mut self, overflow: OverflowPolicy) {
        self.overflow = overflow;
    }

    /// The configured overflow policy.
    pub fn overflow(&self) -> OverflowPolicy {
        self.overflow
    }

    /// Submit a pull request for `page`.
    pub fn submit(&mut self, page: PageId) -> SubmitOutcome {
        self.stats.received += 1;
        if let Some(count) = self.pending.get_mut(&page) {
            *count += 1;
            self.stats.coalesced += 1;
            return SubmitOutcome::Coalesced;
        }
        if self.order.len() >= self.capacity {
            match self.overflow {
                OverflowPolicy::DropOldest if !self.order.is_empty() => {
                    // bpp-lint: allow(D3): guarded by the at-capacity branch: a full queue has a front
                    let old = self.order.pop_front().expect("non-empty");
                    let riders = self.pending.remove(&old).unwrap_or(0);
                    if let Some(at) = &mut self.enqueue_at {
                        at.remove(&old);
                    }
                    self.stats.dropped_evicted += 1;
                    self.stats.evicted_requests += u64::from(riders);
                }
                _ => {
                    self.stats.dropped_full += 1;
                    return SubmitOutcome::DroppedFull;
                }
            }
        }
        self.pending.insert(page, 1);
        self.order.push_back(page);
        self.stats.enqueued += 1;
        SubmitOutcome::Enqueued
    }

    /// Submit a pull request for `page` at simulated time `now`, recording
    /// the enqueue time when wait tracking is on (see
    /// [`RequestQueue::track_waits`]). Identical to [`RequestQueue::submit`]
    /// when tracking is off.
    pub fn submit_at(&mut self, page: PageId, now: f64) -> SubmitOutcome {
        let outcome = self.submit(page);
        if outcome == SubmitOutcome::Enqueued {
            if let Some(at) = &mut self.enqueue_at {
                at.insert(page, now);
            }
        }
        outcome
    }

    /// Serve the next entry like [`RequestQueue::pop`], additionally
    /// reporting how long it waited in the queue (`now` minus its enqueue
    /// time). The wait is `None` when tracking is off or the entry predates
    /// [`RequestQueue::track_waits`].
    pub fn pop_wait(&mut self, now: f64) -> Option<(PageId, Option<f64>)> {
        let page = self.pop()?;
        let wait = self
            .enqueue_at
            .as_mut()
            .and_then(|at| at.remove(&page))
            .map(|t0| now - t0);
        Some((page, wait))
    }

    /// Serve the next entry according to the discipline. Returns the page to
    /// broadcast in the pull slot.
    pub fn pop(&mut self) -> Option<PageId> {
        let page = match self.discipline {
            Discipline::Fifo => self.order.pop_front()?,
            Discipline::MostRequested => {
                let (idx, _) = self
                    .order
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, p)| (self.pending[p], std::cmp::Reverse(i)))?;
                // bpp-lint: allow(D3): idx was just produced by position() over this very deque
                self.order.remove(idx).expect("index valid")
            }
        };
        let riders = self.pending.remove(&page).unwrap_or(0);
        self.stats.served += 1;
        self.stats.served_requests += u64::from(riders);
        Some(page)
    }

    /// Individual requests currently waiting, coalesced riders included
    /// (the `in_flight` term of the conservation ledger).
    pub fn pending_requests(&self) -> u64 {
        self.order.iter().map(|p| u64::from(self.pending[p])).sum()
    }

    /// Server crash: volatile state is lost. Discards every queued entry
    /// and returns the number of individual requests orphaned (riders
    /// included). The statistics survive — they are the *run's* ledger,
    /// not server memory.
    pub fn crash_drain(&mut self) -> u64 {
        let orphaned = self.pending_requests();
        self.order.clear();
        self.pending.clear();
        if let Some(at) = &mut self.enqueue_at {
            at.clear();
        }
        orphaned
    }

    /// True when a request for `page` is pending.
    pub fn is_pending(&self, page: PageId) -> bool {
        self.pending.contains_key(&page)
    }

    /// Number of coalesced requests waiting on `page` (0 if none).
    pub fn waiters(&self, page: PageId) -> u32 {
        self.pending.get(&page).copied().unwrap_or(0)
    }

    /// Distinct pages currently queued.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Maximum number of distinct queued pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut q = RequestQueue::new(10);
        q.submit(p(3));
        q.submit(p(1));
        q.submit(p(2));
        assert_eq!(q.pop(), Some(p(3)));
        assert_eq!(q.pop(), Some(p(1)));
        assert_eq!(q.pop(), Some(p(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn duplicate_requests_coalesce() {
        let mut q = RequestQueue::new(10);
        assert_eq!(q.submit(p(5)), SubmitOutcome::Enqueued);
        assert_eq!(q.submit(p(5)), SubmitOutcome::Coalesced);
        assert_eq!(q.len(), 1);
        assert_eq!(q.waiters(p(5)), 2);
        assert_eq!(q.stats().coalesced, 1);
    }

    #[test]
    fn full_queue_drops_new_pages_but_coalesces_known_ones() {
        let mut q = RequestQueue::new(2);
        q.submit(p(1));
        q.submit(p(2));
        assert_eq!(q.submit(p(3)), SubmitOutcome::DroppedFull);
        // Coalescing still works at capacity.
        assert_eq!(q.submit(p(1)), SubmitOutcome::Coalesced);
        assert_eq!(q.stats().dropped_full, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_clears_pending_so_page_can_requeue() {
        let mut q = RequestQueue::new(2);
        q.submit(p(7));
        assert!(q.is_pending(p(7)));
        assert_eq!(q.pop(), Some(p(7)));
        assert!(!q.is_pending(p(7)));
        assert_eq!(q.submit(p(7)), SubmitOutcome::Enqueued);
    }

    #[test]
    fn drop_and_ignore_rates() {
        let mut q = RequestQueue::new(1);
        q.submit(p(1)); // enqueued
        q.submit(p(1)); // coalesced
        q.submit(p(2)); // dropped
        q.submit(p(2)); // dropped
        let s = q.stats();
        assert_eq!(s.received, 4);
        assert!((s.drop_rate() - 0.5).abs() < 1e-12);
        assert!((s.ignore_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_with_no_traffic() {
        let q = RequestQueue::new(5);
        assert_eq!(q.stats().drop_rate(), 0.0);
        assert_eq!(q.stats().ignore_rate(), 0.0);
    }

    #[test]
    fn most_requested_discipline_prefers_popular_pages() {
        let mut q = RequestQueue::with_discipline(10, Discipline::MostRequested);
        q.submit(p(1));
        q.submit(p(2));
        q.submit(p(2));
        q.submit(p(3));
        assert_eq!(q.pop(), Some(p(2)));
        // Tie between 1 and 3 -> older entry (1) first.
        assert_eq!(q.pop(), Some(p(1)));
        assert_eq!(q.pop(), Some(p(3)));
    }

    #[test]
    fn zero_capacity_queue_drops_everything() {
        let mut q = RequestQueue::new(0);
        assert_eq!(q.submit(p(1)), SubmitOutcome::DroppedFull);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn served_counter_tracks_pops() {
        let mut q = RequestQueue::new(5);
        q.submit(p(1));
        q.submit(p(2));
        q.pop();
        assert_eq!(q.stats().served, 1);
    }

    #[test]
    fn drop_oldest_evicts_head_to_admit_newcomer() {
        let mut q = RequestQueue::new(2);
        q.set_overflow(OverflowPolicy::DropOldest);
        q.submit(p(1));
        q.submit(p(2));
        assert_eq!(q.submit(p(3)), SubmitOutcome::Enqueued);
        assert_eq!(q.len(), 2);
        assert!(!q.is_pending(p(1)), "oldest entry should have been evicted");
        assert!(q.is_pending(p(3)));
        let s = q.stats();
        assert_eq!(s.dropped_evicted, 1);
        assert_eq!(s.dropped_full, 0);
        assert_eq!(q.pop(), Some(p(2)));
        assert_eq!(q.pop(), Some(p(3)));
    }

    #[test]
    fn drop_oldest_with_zero_capacity_still_drops_newcomer() {
        let mut q = RequestQueue::new(0);
        q.set_overflow(OverflowPolicy::DropOldest);
        assert_eq!(q.submit(p(1)), SubmitOutcome::DroppedFull);
        assert_eq!(q.stats().dropped_full, 1);
        assert_eq!(q.stats().dropped_evicted, 0);
    }

    #[test]
    fn drop_oldest_still_coalesces_at_capacity() {
        let mut q = RequestQueue::new(1);
        q.set_overflow(OverflowPolicy::DropOldest);
        q.submit(p(1));
        assert_eq!(q.submit(p(1)), SubmitOutcome::Coalesced);
        assert_eq!(q.stats().dropped_evicted, 0);
    }

    #[test]
    fn pop_wait_reports_queueing_delay_when_tracking() {
        let mut q = RequestQueue::new(5);
        q.track_waits();
        q.submit_at(p(1), 10.0);
        q.submit_at(p(2), 12.0);
        let (page, wait) = q.pop_wait(15.0).unwrap();
        assert_eq!(page, p(1));
        assert_eq!(wait, Some(5.0));
        let (page, wait) = q.pop_wait(15.0).unwrap();
        assert_eq!(page, p(2));
        assert_eq!(wait, Some(3.0));
    }

    #[test]
    fn pop_wait_without_tracking_gives_no_wait() {
        let mut q = RequestQueue::new(5);
        q.submit_at(p(1), 10.0);
        assert_eq!(q.pop_wait(15.0), Some((p(1), None)));
    }

    #[test]
    fn submit_at_matches_submit_outcomes() {
        let mut q = RequestQueue::new(1);
        q.track_waits();
        assert_eq!(q.submit_at(p(1), 0.0), SubmitOutcome::Enqueued);
        assert_eq!(q.submit_at(p(1), 1.0), SubmitOutcome::Coalesced);
        assert_eq!(q.submit_at(p(2), 2.0), SubmitOutcome::DroppedFull);
        // Coalesced arrivals keep the original enqueue time.
        assert_eq!(q.pop_wait(4.0), Some((p(1), Some(4.0))));
    }

    #[test]
    fn drop_oldest_eviction_clears_the_evicted_timestamp() {
        let mut q = RequestQueue::new(1);
        q.set_overflow(OverflowPolicy::DropOldest);
        q.track_waits();
        q.submit_at(p(1), 0.0);
        assert_eq!(q.submit_at(p(2), 5.0), SubmitOutcome::Enqueued);
        // p(1)'s stale timestamp must not survive; a later re-submission of
        // p(1) starts a fresh wait.
        q.pop_wait(6.0);
        q.submit_at(p(1), 6.0);
        assert_eq!(q.pop_wait(8.0), Some((p(1), Some(2.0))));
    }

    #[test]
    fn request_grain_counters_include_coalesced_riders() {
        let mut q = RequestQueue::new(5);
        q.submit(p(1));
        q.submit(p(1));
        q.submit(p(2));
        assert_eq!(q.pending_requests(), 3);
        q.pop();
        assert_eq!(q.stats().served_requests, 2);
        assert_eq!(q.pending_requests(), 1);
    }

    #[test]
    fn crash_drain_orphans_every_pending_request() {
        let mut q = RequestQueue::new(5);
        q.track_waits();
        q.submit_at(p(1), 0.0);
        q.submit_at(p(1), 1.0);
        q.submit_at(p(2), 2.0);
        assert_eq!(q.crash_drain(), 3);
        assert!(q.is_empty());
        assert!(!q.is_pending(p(1)));
        // Counters survive the crash; the queue is usable again.
        assert_eq!(q.stats().received, 3);
        assert_eq!(q.submit_at(p(1), 3.0), SubmitOutcome::Enqueued);
        assert_eq!(q.pop_wait(5.0), Some((p(1), Some(2.0))));
    }

    #[test]
    fn drop_oldest_eviction_counts_riders() {
        let mut q = RequestQueue::new(1);
        q.set_overflow(OverflowPolicy::DropOldest);
        q.submit(p(1));
        q.submit(p(1));
        q.submit(p(2));
        assert_eq!(q.stats().dropped_evicted, 1);
        assert_eq!(q.stats().evicted_requests, 2);
    }

    #[test]
    fn overflow_policy_json_round_trip() {
        assert_eq!(
            bpp_json::to_string(&OverflowPolicy::DropNewest),
            r#""drop_newest""#
        );
        assert_eq!(
            bpp_json::to_string(&OverflowPolicy::DropOldest),
            r#""drop_oldest""#
        );
    }
}
