//! Reference event queue: a plain binary heap over `(time, seq)`, kept as
//! a differential-testing oracle.
//!
//! [`crate::engine::Scheduler`] is a hashed hierarchical timer wheel; its
//! correctness contract is "identical `(time, seq)` dispatch order to a
//! priority queue with FIFO tie-break". This module is that priority
//! queue, so property tests can drive both implementations with the same
//! operation sequence and demand identical dispatch logs, head times, and
//! pending counts. It is not used by any simulation path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// The binary-heap scheduler.
///
/// Semantics match the timer wheel exactly: same panics on bad times, same
/// `(time, seq)` dispatch order, `pending()` counts scheduled events not yet
/// popped, and `peek_live` reports the head time.
pub struct ReferenceScheduler<E> {
    heap: BinaryHeap<Scheduled<E>>,
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
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at` (must be `>= now` and finite).
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Schedule `event` after a non-negative `delay` from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        assert!(
            delay >= 0.0,
            "delay must be non-negative, got {delay} at t={}",
            self.now
        );
        self.schedule_at(self.now + delay, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Time of the next event, or `None` when nothing remains.
    pub fn peek_live(&self) -> Option<Time> {
        self.heap.peek().map(|head| head.time)
    }

    /// Pop the next event, advancing `now` to its time — the heap-side
    /// equivalent of one [`crate::Engine::step`] dispatch.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Pop every event at or before `t`, in `(time, seq)` order — the
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
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn dispatches_in_time_then_seq_order() {
        let mut s = ReferenceScheduler::new();
        s.schedule_at(2.0, "b");
        s.schedule_at(1.0, "a");
        s.schedule_at(2.0, "c");
        s.schedule_at(2.5, "d");
        let fired = s.drain_until(2.0);
        assert_eq!(fired, vec![(1.0, "a"), (2.0, "b"), (2.0, "c")]);
        assert_eq!(s.now(), 2.0);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.peek_live(), Some(2.5));
    }
}
