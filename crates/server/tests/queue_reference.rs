//! Differential test: the dense, page-indexed [`RequestQueue`] must behave
//! exactly like a plain `BTreeMap` model of the paper's bounded, coalescing
//! backchannel queue under seeded random operation sequences.
//!
//! Both sides see the same `submit`, `submit_at`, `pop`, `pop_wait`,
//! `track_waits` and `crash_drain` calls, across both disciplines, both
//! overflow policies and capacities 0, 1, 100 and 1000. Page ids reach
//! 5·10³ and the range widens as a run goes on, so the dense vectors grow
//! mid-run. After every operation the outcome, the popped page and wait,
//! `stats()`, `len()`, `pending_requests()`, and `waiters()` /
//! `is_pending()` of the pages involved must agree; every page is compared
//! after each crash, periodically, and at the end.

#![expect(
    clippy::unwrap_used,
    reason = "the reference model unwraps its own invariant: a queued page has an entry"
)]

use bpp_broadcast::PageId;
use bpp_server::{Discipline, OverflowPolicy, QueueStats, RequestQueue, SubmitOutcome};
use bpp_sim::{Rng, Xoshiro256pp};
use std::collections::{BTreeMap, VecDeque};

/// Largest page id any run submits.
const MAX_PAGE: u32 = 5_000;

/// The reference queue: one map entry per queued page holding its rider
/// count and its enqueue time (`None` when it has none).
struct Reference {
    capacity: usize,
    discipline: Discipline,
    overflow: OverflowPolicy,
    order: VecDeque<PageId>,
    entries: BTreeMap<PageId, (u32, Option<f64>)>,
    tracking: bool,
    stats: QueueStats,
}

impl Reference {
    fn new(capacity: usize, discipline: Discipline, overflow: OverflowPolicy) -> Self {
        Reference {
            capacity,
            discipline,
            overflow,
            order: VecDeque::new(),
            entries: BTreeMap::new(),
            tracking: false,
            stats: QueueStats::default(),
        }
    }

    /// Entries already queued keep no timestamp.
    fn track_waits(&mut self) {
        self.tracking = true;
        for entry in self.entries.values_mut() {
            entry.1 = None;
        }
    }

    /// `at` is the enqueue time of `submit_at`, `None` for plain `submit`.
    fn submit(&mut self, page: PageId, at: Option<f64>) -> SubmitOutcome {
        self.stats.received += 1;
        if let Some(entry) = self.entries.get_mut(&page) {
            entry.0 += 1;
            self.stats.coalesced += 1;
            return SubmitOutcome::Coalesced;
        }
        if self.order.len() >= self.capacity {
            let evicted = match self.overflow {
                OverflowPolicy::DropOldest => self.order.pop_front(),
                OverflowPolicy::DropNewest => None,
            };
            let Some(old) = evicted else {
                self.stats.dropped_full += 1;
                return SubmitOutcome::DroppedFull;
            };
            let (riders, _) = self.entries.remove(&old).unwrap();
            self.stats.dropped_evicted += 1;
            self.stats.evicted_requests += u64::from(riders);
        }
        let stamp = if self.tracking { at } else { None };
        self.entries.insert(page, (1, stamp));
        self.order.push_back(page);
        self.stats.enqueued += 1;
        SubmitOutcome::Enqueued
    }

    fn pop_wait(&mut self, now: f64) -> Option<(PageId, Option<f64>)> {
        let idx = match self.discipline {
            Discipline::Fifo => 0,
            // Most riders first; the first (oldest) of equals wins.
            Discipline::MostRequested => {
                let mut best = 0;
                for (i, page) in self.order.iter().enumerate() {
                    if self.entries[page].0 > self.entries[&self.order[best]].0 {
                        best = i;
                    }
                }
                best
            }
        };
        let page = self.order.remove(idx)?;
        let (riders, stamp) = self.entries.remove(&page).unwrap();
        self.stats.served += 1;
        self.stats.served_requests += u64::from(riders);
        Some((page, stamp.map(|t0| now - t0)))
    }

    fn crash_drain(&mut self) -> u64 {
        let orphaned = self.pending_requests();
        self.order.clear();
        self.entries.clear();
        orphaned
    }

    fn pending_requests(&self) -> u64 {
        self.entries
            .values()
            .map(|&(riders, _)| u64::from(riders))
            .sum()
    }

    fn waiters(&self, page: PageId) -> u32 {
        self.entries.get(&page).map_or(0, |&(riders, _)| riders)
    }
}

/// Asserts that `page` looks the same in both queues.
fn same_page(dense: &RequestQueue, model: &Reference, page: PageId, ctx: &str) {
    assert_eq!(
        dense.waiters(page),
        model.waiters(page),
        "{ctx}: waiters({page})"
    );
    assert_eq!(
        dense.is_pending(page),
        model.waiters(page) > 0,
        "{ctx}: is_pending({page})"
    );
}

/// Asserts the aggregate state of both queues is the same.
fn same_state(dense: &RequestQueue, model: &Reference, ctx: &str) {
    assert_eq!(dense.stats(), &model.stats, "{ctx}: stats");
    assert_eq!(dense.len(), model.order.len(), "{ctx}: len");
    assert_eq!(dense.is_empty(), model.order.is_empty(), "{ctx}: is_empty");
    assert_eq!(
        dense.pending_requests(),
        model.pending_requests(),
        "{ctx}: pending_requests"
    );
}

/// Asserts every page id a run can submit (and one past) looks the same.
fn same_pages(dense: &RequestQueue, model: &Reference, ctx: &str) {
    for i in 0..=MAX_PAGE + 1 {
        same_page(dense, model, PageId(i), ctx);
    }
}

fn page_id(i: usize) -> PageId {
    PageId(i as u32)
}

/// One differential run of `ops` random operations under `seed`. Returns
/// whether the queue overflowed at least once.
fn differential_run(
    seed: u64,
    ops: usize,
    capacity: usize,
    discipline: Discipline,
    overflow: OverflowPolicy,
) -> bool {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut dense = RequestQueue::with_discipline(capacity, discipline);
    dense.set_overflow(overflow);
    let mut model = Reference::new(capacity, discipline, overflow);
    let track_from = rng.random_range(0..ops);
    let mut now = 0.0;

    for step in 0..ops {
        let ctx = format!("seed {seed} cap {capacity} {discipline:?} {overflow:?} step {step}");
        now += rng.random::<f64>() * 2.0;
        if step == track_from {
            dense.track_waits();
            model.track_waits();
        }
        // A quarter of the requests go to a few hot pages so entries
        // coalesce; the rest spread over a page range that widens as the
        // run goes on.
        let span = 1 + MAX_PAGE as usize * (step + 1) / ops;
        let page = page_id(if rng.random::<f64>() < 0.25 {
            rng.random_range(0..16)
        } else {
            rng.random_range(0..span)
        });
        // Submits outnumber pops 7 to 3, so the queue fills and overflows;
        // a crash drains it about once in 5000 operations.
        match rng.random_range(0..5000) {
            0..=1749 => {
                assert_eq!(
                    dense.submit(page),
                    model.submit(page, None),
                    "{ctx}: submit"
                );
            }
            1750..=3499 => {
                assert_eq!(
                    dense.submit_at(page, now),
                    model.submit(page, Some(now)),
                    "{ctx}: submit_at"
                );
            }
            3500..=3999 => {
                let popped = dense.pop();
                assert_eq!(popped, model.pop_wait(now).map(|(p, _)| p), "{ctx}: pop");
                if let Some(p) = popped {
                    same_page(&dense, &model, p, &ctx);
                }
            }
            4000..=4996 => {
                let popped = dense.pop_wait(now);
                assert_eq!(popped, model.pop_wait(now), "{ctx}: pop_wait");
                if let Some((p, _)) = popped {
                    same_page(&dense, &model, p, &ctx);
                }
            }
            4997 | 4998 => {
                dense.track_waits();
                model.track_waits();
            }
            _ => {
                assert_eq!(
                    dense.crash_drain(),
                    model.crash_drain(),
                    "{ctx}: crash_drain"
                );
                same_pages(&dense, &model, &ctx);
            }
        }
        same_page(&dense, &model, page, &ctx);
        let probe = page_id(rng.random_range(0..MAX_PAGE as usize + 1));
        same_page(&dense, &model, probe, &ctx);
        same_state(&dense, &model, &ctx);
        if step % 1000 == 999 {
            same_pages(&dense, &model, &ctx);
        }
    }
    same_pages(&dense, &model, "end");
    model.stats.dropped_full + model.stats.dropped_evicted > 0
}

/// Runs `seeds` differential runs of every configuration. With
/// `must_overflow`, each configuration must reach its capacity in some run,
/// so the overflow policy is exercised at capacity 1000 too.
fn each_config(seeds: u64, ops: usize, must_overflow: bool) {
    for capacity in [0, 1, 100, 1000] {
        for discipline in [Discipline::Fifo, Discipline::MostRequested] {
            for overflow in [OverflowPolicy::DropNewest, OverflowPolicy::DropOldest] {
                let overflowed = (0..seeds)
                    .filter(|&seed| differential_run(seed, ops, capacity, discipline, overflow))
                    .count();
                assert!(
                    !must_overflow || overflowed > 0,
                    "cap {capacity} {discipline:?} {overflow:?} never overflowed"
                );
            }
        }
    }
}

#[test]
fn dense_queue_matches_reference_on_short_runs() {
    each_config(8, 2_000, false);
}

#[test]
fn dense_queue_matches_reference_on_long_runs() {
    each_config(2, 20_000, true);
}
