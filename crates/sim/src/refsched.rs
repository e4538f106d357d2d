//! Reference event queue: the pre-wheel binary-heap scheduler, retained
//! verbatim in behaviour as a differential-testing oracle.
//!
//! [`crate::engine::Scheduler`] is a hashed hierarchical timer wheel; its
//! correctness contract is "identical `(time, seq)` dispatch order to a
//! priority queue with FIFO tie-break". This module keeps that priority
//! queue alive — tombstone cancellation and all — so property tests can
//! drive both implementations with the same operation sequence and demand
//! identical dispatch logs, head times, and pending counts. It is not used
//! by any simulation path.
//!
//! Event handles are plain `u64` sequence numbers. The wheel's opaque
//! [`crate::EventId`] is a slab slot plus that same seq, and cannot be
//! constructed outside its module. The n-th `schedule_at` call on either
//! implementation gets the same seq, so a driver can cancel "the same
//! event" on both sides.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::engine::Time;

struct Scheduled<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get (earliest time, lowest seq)
        // at the top. Times are non-NaN at insertion, where total_cmp
        // agrees with IEEE ordering, so no panic path is needed.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The retained binary-heap scheduler with lazy tombstone cancellation.
///
/// Semantics match the timer wheel exactly: same panics on bad times, same
/// `(time, seq)` dispatch order, `pending()` counts live events only, and
/// `peek_live` reports the next *live* head time (draining tombstones).
pub struct ReferenceScheduler<E> {
    heap: BinaryHeap<Scheduled<E>>,
    live: HashSet<u64>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for ReferenceScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceScheduler<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        ReferenceScheduler {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at` (must be `>= now` and finite).
    /// Returns the event's sequence number, usable with [`Self::cancel`].
    pub fn schedule_at(&mut self, at: Time, event: E) -> u64 {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
        seq
    }

    /// Schedule `event` after a non-negative `delay` from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) -> u64 {
        assert!(
            delay >= 0.0,
            "delay must be non-negative, got {delay} at t={}",
            self.now
        );
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a pending event (tombstone; the entry is discarded lazily).
    /// Returns `true` if the event had not yet fired or been cancelled.
    pub fn cancel(&mut self, seq: u64) -> bool {
        if self.live.remove(&seq) {
            self.cancelled.insert(seq);
            true
        } else {
            false
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Time of the next *live* event, draining head tombstones first.
    pub fn peek_live(&mut self) -> Option<Time> {
        while let Some(head) = self.heap.peek() {
            if self.cancelled.remove(&head.seq) {
                self.heap.pop();
                continue;
            }
            return Some(head.time);
        }
        None
    }

    /// Pop the next live event, advancing `now` to its time — the heap-side
    /// equivalent of one [`crate::Engine::step`] dispatch.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(s) = self.heap.pop() {
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            self.live.remove(&s.seq);
            self.now = s.time;
            return Some((s.time, s.event));
        }
        None
    }

    /// Pop every live event at or before `t`, in `(time, seq)` order — the
    /// heap-side equivalent of [`crate::Engine::run_until`]. Returns the
    /// dispatched `(time, event)` pairs.
    pub fn drain_until(&mut self, t: Time) -> Vec<(Time, E)> {
        let mut out = Vec::new();
        while self.peek_live().is_some_and(|next| next <= t) {
            let Some(fired) = self.pop() else {
                break;
            };
            out.push(fired);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_in_time_then_seq_order() {
        let mut s = ReferenceScheduler::new();
        s.schedule_at(2.0, "b");
        s.schedule_at(1.0, "a");
        s.schedule_at(2.0, "c");
        let fired = s.drain_until(2.0);
        assert_eq!(fired, vec![(1.0, "a"), (2.0, "b"), (2.0, "c")]);
        assert_eq!(s.now(), 2.0);
    }

    #[test]
    fn tombstone_past_deadline_admits_no_dispatch() {
        // The PR 5 regression shape, on the oracle itself.
        let mut s = ReferenceScheduler::new();
        let victim = s.schedule_at(1.9, "victim");
        s.schedule_at(2.1, "live");
        assert!(s.cancel(victim));
        assert!(s.drain_until(2.0).is_empty());
        assert_eq!(s.now(), 0.0);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.drain_until(2.1), vec![(2.1, "live")]);
    }

    #[test]
    fn pending_excludes_tombstones() {
        let mut s = ReferenceScheduler::new();
        let a = s.schedule_at(1.0, ());
        s.schedule_at(2.0, ());
        assert_eq!(s.pending(), 2);
        assert!(s.cancel(a));
        assert!(!s.cancel(a));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.peek_live(), Some(2.0));
    }
}
