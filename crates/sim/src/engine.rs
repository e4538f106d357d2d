//! The event queue and dispatch loop.
//!
//! Design notes:
//!
//! * Time is `f64`. The model never produces NaN times; scheduling a NaN or
//!   negative-delay event is a programming error and panics immediately,
//!   which is the correct behaviour for a simulation (silently reordering
//!   time would invalidate every downstream statistic).
//! * Same-instant events fire in the order they were scheduled. This is
//!   load-bearing: the server slot at time `t` must observe every request
//!   that "arrived at `t`" only if it was scheduled before the slot event,
//!   exactly like a process-oriented simulator with deterministic process
//!   ordering.
//! * The queue is a hashed hierarchical timer wheel (11 levels × 64 slots,
//!   6 bits per level — 66 bits, so every `u64` tick is addressable and the
//!   top levels double as the overflow range). `schedule` and `cancel` are
//!   O(1): an event's integer tick (`time as u64`) picks its bucket directly,
//!   and a slab of handles records each pending event's bucket and position,
//!   so `cancel` deletes the entry in place — no tombstones, no lazy pops,
//!   and `pending()` is exactly the live count. An [`EventId`] names a slab
//!   slot plus the event's seq; slots are reused, seqs never are, so a stale
//!   id cannot cancel the slot's next occupant.
//! * Determinism: buckets are ordered by actual `(time, seq)` when they
//!   become the dispatch head, so the wheel reproduces the exact total order
//!   a priority queue would produce. Equal times share a tick and therefore
//!   a bucket, so ties can never straddle buckets. See the `Scheduler` docs
//!   for the full ordering argument.

use bpp_obs::EngineObs;
use std::cmp::Ordering;

/// Simulated time in broadcast units (the time to broadcast one page).
pub type Time = f64;

/// Handle for a scheduled event, usable with [`Scheduler::cancel`].
///
/// `slot` indexes the scheduler's handle slab and `seq` is the event's
/// schedule sequence number. A slot is reused once its event fires or is
/// cancelled, but seqs are unique for the scheduler's lifetime, so the
/// seq doubles as the slot's generation tag: an id whose seq no longer
/// matches its slot is stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// A simulation model: owns the domain state and interprets events.
///
/// The engine calls [`Model::handle`] for every dispatched event, passing the
/// current time and a [`Scheduler`] for planting future events.
pub trait Model: Sized {
    /// The event vocabulary of this model.
    type Event;

    /// React to `event` occurring at time `now`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// A short static label classifying `event`, used by the observability
    /// layer to key per-event-kind dispatch counters. The default collapses
    /// every event into a single bucket; models with a meaningful event
    /// vocabulary should override it.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }
}

struct Scheduled<E> {
    time: Time,
    seq: u64,
    /// The event's slab slot, so moves within a bucket can update its `pos`.
    slot: u32,
    event: E,
}

/// Where a pending event sits: `buckets[bucket][pos]`. `seq` identifies the
/// occupant, so an [`EventId`] from an earlier occupant fails to match.
#[derive(Clone, Copy)]
struct Handle {
    seq: u64,
    bucket: u16,
    pos: u32,
}

/// Bits per wheel level; each level indexes 64 slots.
const BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Mask extracting a level-0 slot from a tick.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels. 11 × 6 = 66 bits ≥ 64, so every `u64` tick has a home
/// bucket; the top levels are the "overflow" range for far-future events.
const LEVELS: usize = 11;
/// Total buckets across all levels (flat index = level · 64 + slot).
const BUCKETS: usize = LEVELS * SLOTS;
/// `Handle::bucket` of a free slab slot; never a real bucket index.
const FREE: u16 = u16::MAX;
const _: () = assert!(BUCKETS < FREE as usize);

/// The pending-event queue: a hashed hierarchical timer wheel. Handed to
/// [`Model::handle`] so models can plant future events while reacting to the
/// current one.
///
/// An event's *tick* is `time as u64` (times are finite and non-negative,
/// so the cast is exact flooring). A tick strictly greater than the wheel
/// cursor `wheel_pos` lands at the level of its highest 6-bit group that
/// differs from the cursor; a tick at or below the cursor is clamped into
/// the cursor's own level-0 bucket. Ordering stays exact because:
///
/// * equal times have equal ticks, hence share one bucket — ties never
///   straddle buckets and are broken by seq inside the bucket sort;
/// * every bucket other than the cursor bucket holds strictly larger ticks,
///   whose times are therefore strictly later than anything clamped into
///   the cursor bucket (`t < tick+1 ≤ tick' ≤ t'`);
/// * within a level, occupied slots are strictly beyond the cursor's group
///   value, and a level-`L` bucket's ticks are strictly beyond every
///   lower-level bucket's — so advancing to the first occupied slot of the
///   lowest occupied level (cascading it down re-bucketed) always selects
///   the globally earliest events next.
///
/// The bucket at the dispatch head is sorted descending by `(time, seq)`
/// once and popped from the back; inserts landing in it keep it sorted via
/// binary search, so the amortised cost stays O(1) per event for the
/// simulator's workloads.
///
/// Every pending event owns one slot of `slab`, which holds its bucket and
/// its position in that bucket; every move of an entry within or between
/// buckets rewrites that position, so `cancel` finds its entry with two
/// array reads. Fired and cancelled slots go on the `free` list and are
/// reused, so the slab's length is the peak pending count.
pub struct Scheduler<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-level occupancy bitmask: bit `s` set ⟺ bucket (level, s) is
    /// non-empty. Kept exact on every insert and delete.
    occ: [u64; LEVELS],
    /// Handle per slot; a free slot has `bucket == FREE`.
    slab: Vec<Handle>,
    /// Free slots of `slab`, reused last-in first-out.
    free: Vec<u32>,
    /// Flat index of the bucket currently being drained (sorted descending
    /// by `(time, seq)`), if any. Always a level-0 bucket, always non-empty.
    cur_bucket: Option<u16>,
    /// Wheel cursor: the tick of the bucket at the dispatch head. Only ever
    /// advances (events are never scheduled before `now`).
    wheel_pos: u64,
    next_seq: u64,
    now: Time,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            slab: Vec::new(),
            free: Vec::new(),
            cur_bucket: None,
            wheel_pos: 0,
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at` (must be `>= now` and finite).
    pub fn schedule_at(&mut self, at: Time, event: E) -> EventId {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let handle = Handle {
            seq,
            bucket: FREE,
            pos: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = handle;
                slot
            }
            None => {
                // Slots are bounded by the pending count, far below 2³².
                self.slab.push(handle);
                (self.slab.len() - 1) as u32
            }
        };
        self.place(Scheduled {
            time: at,
            seq,
            slot,
            event,
        });
        EventId { slot, seq }
    }

    /// Schedule `event` after a non-negative `delay` from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) -> EventId {
        assert!(
            delay >= 0.0,
            "delay must be non-negative, got {delay} at t={}",
            self.now
        );
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a pending event, deleting it from its bucket immediately.
    /// Returns `true` if the event had not yet fired (or been cancelled);
    /// cancelling an already-fired event is a no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(&h) = self.slab.get(id.slot as usize) else {
            return false;
        };
        if h.bucket == FREE || h.seq != id.seq {
            return false;
        }
        let (b, pos) = (h.bucket as usize, h.pos as usize);
        debug_assert_eq!(
            self.buckets[b][pos].seq, id.seq,
            "slab names a stale position"
        );
        if self.cur_bucket == Some(h.bucket) {
            // The head bucket is sorted; an order-preserving remove keeps it
            // valid for back-popping.
            self.buckets[b].remove(pos);
            self.renumber(b, pos);
        } else {
            self.buckets[b].swap_remove(pos);
            if let Some(moved) = self.buckets[b].get(pos) {
                self.slab[moved.slot as usize].pos = pos as u32;
            }
        }
        self.release(id.slot);
        if self.buckets[b].is_empty() {
            self.occ[b / SLOTS] &= !(1 << (b % SLOTS));
            if self.cur_bucket == Some(h.bucket) {
                self.cur_bucket = None;
            }
        }
        true
    }

    /// Number of pending (live) events. Cancelled events are deleted
    /// outright, so this is exactly the count of events that can still fire.
    pub fn pending(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Time of the next live event, or `None` when nothing remains. May
    /// advance the wheel cursor (never simulated time) to locate the head
    /// bucket.
    pub fn peek_live(&mut self) -> Option<Time> {
        if !self.ensure_current() {
            return None;
        }
        let b = self.cur_bucket? as usize;
        self.buckets[b].last().map(|s| s.time)
    }

    /// Return `slot` to the free list.
    fn release(&mut self, slot: u32) {
        self.slab[slot as usize].bucket = FREE;
        self.free.push(slot);
    }

    /// Rewrite the slab position of every entry of bucket `b` from `from` on.
    fn renumber(&mut self, b: usize, from: usize) {
        for (pos, s) in self.buckets[b].iter().enumerate().skip(from) {
            self.slab[s.slot as usize].pos = pos as u32;
        }
    }

    /// Route an entry to its bucket and record its position in the slab.
    fn place(&mut self, s: Scheduled<E>) {
        let tick = s.time as u64;
        let b = if tick <= self.wheel_pos {
            // At-or-behind the cursor (the cursor may run ahead of `now`
            // after a peek): clamp into the cursor bucket, which dispatches
            // before every other bucket. Order inside is by real (time, seq).
            (self.wheel_pos & SLOT_MASK) as usize
        } else {
            let high = 63 - (tick ^ self.wheel_pos).leading_zeros() as usize;
            let level = high / BITS;
            level * SLOTS + ((tick >> (level * BITS)) & SLOT_MASK) as usize
        };
        self.slab[s.slot as usize].bucket = b as u16;
        if self.buckets[b].is_empty() {
            self.occ[b / SLOTS] |= 1 << (b % SLOTS);
        }
        if self.cur_bucket == Some(b as u16) {
            // Keep the head bucket sorted (descending by (time, seq)) so
            // back-pops stay correct without re-sorting.
            let idx = self.buckets[b].partition_point(|e| {
                e.time.total_cmp(&s.time) == Ordering::Greater
                    || (e.time.total_cmp(&s.time) == Ordering::Equal && e.seq > s.seq)
            });
            self.buckets[b].insert(idx, s);
            self.renumber(b, idx);
        } else {
            self.slab[s.slot as usize].pos = self.buckets[b].len() as u32;
            self.buckets[b].push(s);
        }
    }

    /// Make `cur_bucket` point at the bucket holding the earliest pending
    /// events, cascading higher levels down as needed. Returns `false` when
    /// the wheel is empty.
    fn ensure_current(&mut self) -> bool {
        if self.cur_bucket.is_some() {
            return true;
        }
        loop {
            if self.occ[0] != 0 {
                let slot = self.occ[0].trailing_zeros() as u64;
                // Level-0 invariant: nothing is ever placed behind the
                // cursor slot (at-or-behind ticks clamp *into* it).
                debug_assert!(slot >= (self.wheel_pos & SLOT_MASK));
                self.wheel_pos = (self.wheel_pos & !SLOT_MASK) | slot;
                let b = slot as usize;
                self.buckets[b].sort_unstable_by(|a, z| {
                    z.time.total_cmp(&a.time).then_with(|| z.seq.cmp(&a.seq))
                });
                self.renumber(b, 0);
                self.cur_bucket = Some(b as u16);
                return true;
            }
            // Cascade: the lowest occupied level's first occupied slot holds
            // the earliest ticks; move the cursor there and re-bucket its
            // entries (they all land at strictly lower levels).
            let Some(level) = (1..LEVELS).find(|&l| self.occ[l] != 0) else {
                return false;
            };
            let slot = self.occ[level].trailing_zeros() as u64;
            let shift = level * BITS;
            let low_mask = if shift + BITS >= 64 {
                u64::MAX
            } else {
                (1u64 << (shift + BITS)) - 1
            };
            self.wheel_pos = (self.wheel_pos & !low_mask) | (slot << shift);
            let b = level * SLOTS + slot as usize;
            self.occ[level] &= !(1 << slot);
            let entries = std::mem::take(&mut self.buckets[b]);
            for s in entries {
                self.place(s);
            }
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        if !self.ensure_current() {
            return None;
        }
        let b = self.cur_bucket? as usize;
        let s = self.buckets[b].pop()?;
        self.release(s.slot);
        if self.buckets[b].is_empty() {
            self.occ[b / SLOTS] &= !(1 << (b % SLOTS));
            self.cur_bucket = None;
        }
        Some(s)
    }
}

/// The simulation engine: a [`Model`] plus its [`Scheduler`].
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    dispatched: u64,
    obs: Option<EngineObs>,
}

impl<M: Model> Engine<M> {
    /// Create an engine at time 0 with an empty event queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            dispatched: 0,
            obs: None,
        }
    }

    /// Attach an observability probe: every dispatched event bumps its
    /// per-kind counter (see [`Model::event_label`]) and feeds the
    /// pending-event timeline. Costs one branch per event when absent.
    pub fn enable_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    /// The attached observability probe, if any.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// Current simulated time (the time of the most recently fired event).
    pub fn now(&self) -> Time {
        self.sched.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to flip a measurement phase).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The scheduler, for priming initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Dispatch the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(s) = self.sched.pop() else {
            return false;
        };
        // Hard assert: a backwards step would silently corrupt every
        // time-weighted statistic downstream, not just misorder a log.
        assert!(s.time >= self.sched.now, "time must be monotone");
        self.sched.now = s.time;
        self.dispatched += 1;
        let label = M::event_label(&s.event);
        self.model.handle(s.time, s.event, &mut self.sched);
        if let Some(obs) = &mut self.obs {
            obs.on_dispatch(label, s.time, self.sched.pending());
        }
        true
    }

    /// Run until the event queue is drained.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time strictly exceeds `t` or the queue drains.
    /// Events scheduled exactly at `t` are still dispatched.
    ///
    /// The deadline is compared against the next *live* event
    /// ([`Scheduler::peek_live`]); cancellation deletes outright, so the
    /// head time is always the time `step()` would dispatch next.
    pub fn run_until(&mut self, t: Time) {
        while self.sched.peek_live().is_some_and(|next| next <= t) {
            if !self.step() {
                break;
            }
        }
    }

    /// Run while `keep_going(model)` holds and events remain.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&M) -> bool) {
        while keep_going(&self.model) && self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(Time, u32)>,
        cancel_target: Option<EventId>,
    }

    enum Ev {
        Tag(u32),
        CancelPlanted,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(t) => self.log.push((now, t)),
                Ev::CancelPlanted => {
                    let id = self.cancel_target.take().expect("target set");
                    assert!(sched.cancel(id));
                }
            }
        }
        fn event_label(ev: &Ev) -> &'static str {
            match ev {
                Ev::Tag(_) => "tag",
                Ev::CancelPlanted => "cancel",
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder {
            log: Vec::new(),
            cancel_target: None,
        })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.scheduler().schedule_at(5.0, Ev::Tag(5));
        e.scheduler().schedule_at(1.0, Ev::Tag(1));
        e.scheduler().schedule_at(3.0, Ev::Tag(3));
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(1.0, 1), (3.0, 3), (5.0, 5)]);
    }

    #[test]
    fn same_instant_events_fire_fifo() {
        let mut e = engine();
        for i in 0..100 {
            e.scheduler().schedule_at(2.0, Ev::Tag(i));
        }
        e.run_to_completion();
        let tags: Vec<u32> = e.model().log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = engine();
        e.scheduler().schedule_at(10.0, Ev::Tag(0));
        e.run_to_completion();
        assert_eq!(e.now(), 10.0);
        e.scheduler().schedule_in(2.5, Ev::Tag(1));
        e.run_to_completion();
        assert_eq!(e.model().log.last(), Some(&(12.5, 1)));
    }

    #[test]
    fn cancelled_event_never_fires() {
        let mut e = engine();
        let victim = e.scheduler().schedule_at(5.0, Ev::Tag(99));
        e.model_mut().cancel_target = Some(victim);
        e.scheduler().schedule_at(1.0, Ev::CancelPlanted);
        e.scheduler().schedule_at(6.0, Ev::Tag(1));
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(6.0, 1)]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut e = engine();
        let id = e.scheduler().schedule_at(1.0, Ev::Tag(7));
        e.run_to_completion();
        assert!(!e.scheduler().cancel(id));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut e = engine();
        let live = e.scheduler().schedule_at(1.0, Ev::Tag(0));
        assert_eq!(live, EventId { slot: 0, seq: 0 });
        // An unallocated slot, and a live slot under a seq it never held.
        assert!(!e.scheduler().cancel(EventId { slot: 1234, seq: 0 }));
        assert!(!e.scheduler().cancel(EventId { slot: 0, seq: 1234 }));
        assert_eq!(e.scheduler().pending(), 1);
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(1.0, 0)]);
    }

    #[test]
    fn stale_id_cannot_cancel_reused_slot() {
        let mut e = engine();
        let a = e.scheduler().schedule_at(1.0, Ev::Tag(1));
        e.run_to_completion();
        let b = e.scheduler().schedule_at(2.0, Ev::Tag(2));
        assert_eq!(a.slot, b.slot, "B reuses A's freed slot");
        assert!(!e.scheduler().cancel(a), "A already fired");
        assert_eq!(e.scheduler().pending(), 1);
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(1.0, 1), (2.0, 2)]);
        assert!(!e.scheduler().cancel(b));
    }

    #[test]
    fn slab_stays_bounded_by_peak_pending() {
        // A leaking free list would grow the slab on every schedule.
        let mut e = engine();
        for i in 0..3 {
            e.scheduler().schedule_at(f64::from(i), Ev::Tag(i));
        }
        for i in 3..10_003 {
            assert!(e.step());
            e.scheduler().schedule_in(1.5, Ev::Tag(i));
            assert_eq!(e.scheduler().pending(), 3);
        }
        assert!(
            e.sched.slab.len() <= 3,
            "slab grew to {}",
            e.sched.slab.len()
        );
        e.run_to_completion();
        assert_eq!(e.dispatched(), 10_003);
    }

    #[test]
    fn run_until_stops_at_boundary_inclusive() {
        let mut e = engine();
        e.scheduler().schedule_at(1.0, Ev::Tag(1));
        e.scheduler().schedule_at(2.0, Ev::Tag(2));
        e.scheduler().schedule_at(2.0, Ev::Tag(22));
        e.scheduler().schedule_at(3.0, Ev::Tag(3));
        e.run_until(2.0);
        assert_eq!(e.model().log, vec![(1.0, 1), (2.0, 2), (2.0, 22)]);
        // The t=3 event is still pending.
        assert_eq!(e.scheduler().pending(), 1);
    }

    #[test]
    fn run_until_ignores_cancelled_head_tombstone() {
        // Regression (binary-heap era): a cancelled entry at t-ε used to sit
        // at the heap head and satisfy `head.time <= t`, after which step()
        // skipped the tombstone and dispatched the live event at t+ε — past
        // the deadline the caller asked for. The wheel deletes on cancel, so
        // the head time is always live; the contract stays pinned here.
        let mut e = engine();
        let victim = e.scheduler().schedule_at(1.9, Ev::Tag(99));
        e.scheduler().schedule_at(2.1, Ev::Tag(1));
        e.scheduler().cancel(victim);
        e.run_until(2.0);
        assert_eq!(e.model().log, vec![], "no live event lies at or before t");
        assert_eq!(e.scheduler().pending(), 1, "the t+ε event must survive");
        assert_eq!(e.now(), 0.0, "time must not advance past the deadline");
        // The surviving event still fires once the deadline allows it.
        e.run_until(2.1);
        assert_eq!(e.model().log, vec![(2.1, 1)]);
    }

    #[test]
    fn run_until_drains_consecutive_tombstones() {
        let mut e = engine();
        let mut victims = Vec::new();
        for i in 0..5 {
            victims.push(
                e.scheduler()
                    .schedule_at(1.0 + f64::from(i) * 0.1, Ev::Tag(i)),
            );
        }
        e.scheduler().schedule_at(3.0, Ev::Tag(42));
        for v in victims {
            assert!(e.scheduler().cancel(v));
        }
        e.run_until(2.0);
        assert_eq!(e.model().log, vec![]);
        e.run_until(3.0);
        assert_eq!(e.model().log, vec![(3.0, 42)]);
    }

    #[test]
    fn peek_live_skips_tombstones_and_reports_next_live_time() {
        let mut e = engine();
        let victim = e.scheduler().schedule_at(1.0, Ev::Tag(0));
        e.scheduler().schedule_at(4.0, Ev::Tag(1));
        assert_eq!(e.scheduler().peek_live(), Some(1.0));
        e.scheduler().cancel(victim);
        assert_eq!(e.scheduler().peek_live(), Some(4.0));
        assert_eq!(e.scheduler().pending(), 1);
        e.run_to_completion();
        assert_eq!(e.scheduler().peek_live(), None);
    }

    #[test]
    fn cancel_then_reschedule_at_same_instant() {
        // Cancelling and replanting at the same time must fire only the
        // replacement, in the seq order of the *new* schedule call.
        let mut e = engine();
        let old = e.scheduler().schedule_at(5.0, Ev::Tag(1));
        e.scheduler().schedule_at(5.0, Ev::Tag(2));
        assert!(e.scheduler().cancel(old));
        e.scheduler().schedule_at(5.0, Ev::Tag(3));
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(5.0, 2), (5.0, 3)]);
    }

    #[test]
    fn pending_is_accurate_after_mixed_cancel_and_pop() {
        let mut e = engine();
        let a = e.scheduler().schedule_at(1.0, Ev::Tag(0));
        let b = e.scheduler().schedule_at(2.0, Ev::Tag(1));
        e.scheduler().schedule_at(3.0, Ev::Tag(2));
        assert_eq!(e.scheduler().pending(), 3);
        // Cancel the head, dispatch the next live event, cancel another.
        assert!(e.scheduler().cancel(a));
        assert_eq!(e.scheduler().pending(), 2);
        assert!(e.step());
        assert_eq!(e.model().log, vec![(2.0, 1)]);
        assert_eq!(e.scheduler().pending(), 1);
        assert!(!e.scheduler().cancel(b), "already fired");
        assert_eq!(e.scheduler().pending(), 1);
        e.run_to_completion();
        assert_eq!(e.scheduler().pending(), 0);
    }

    #[test]
    fn run_until_fires_events_exactly_at_t() {
        // The boundary is documented as inclusive, also when a same-instant
        // sibling was cancelled.
        let mut e = engine();
        let victim = e.scheduler().schedule_at(2.0, Ev::Tag(0));
        e.scheduler().schedule_at(2.0, Ev::Tag(1));
        e.scheduler().cancel(victim);
        e.run_until(2.0);
        assert_eq!(e.model().log, vec![(2.0, 1)]);
    }

    #[test]
    fn engine_obs_counts_dispatches_per_label() {
        let mut e = engine();
        e.enable_obs(bpp_obs::EngineObs::new(1.0));
        let victim = e.scheduler().schedule_at(4.0, Ev::Tag(9));
        e.model_mut().cancel_target = Some(victim);
        e.scheduler().schedule_at(1.0, Ev::CancelPlanted);
        for i in 0..3 {
            e.scheduler().schedule_at(2.0 + f64::from(i), Ev::Tag(i));
        }
        e.run_to_completion();
        let obs = e.obs().expect("enabled above");
        assert_eq!(obs.dispatch_count("tag"), 3);
        assert_eq!(obs.dispatch_count("cancel"), 1);
        assert_eq!(obs.dispatch_count("unknown"), 0);
    }

    #[test]
    fn run_while_predicate_stops_dispatch() {
        let mut e = engine();
        for i in 0..10 {
            e.scheduler().schedule_at(f64::from(i), Ev::Tag(i));
        }
        e.run_while(|m| m.log.len() < 4);
        assert_eq!(e.model().log.len(), 4);
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut e = engine();
        let a = e.scheduler().schedule_at(1.0, Ev::Tag(0));
        e.scheduler().schedule_at(2.0, Ev::Tag(1));
        assert_eq!(e.scheduler().pending(), 2);
        e.scheduler().cancel(a);
        assert_eq!(e.scheduler().pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = engine();
        e.scheduler().schedule_at(5.0, Ev::Tag(0));
        e.run_to_completion();
        e.scheduler().schedule_at(1.0, Ev::Tag(1));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_nan_panics() {
        let mut e = engine();
        e.scheduler().schedule_at(f64::NAN, Ev::Tag(0));
    }

    #[test]
    fn dispatched_counter_tracks_events() {
        let mut e = engine();
        for i in 0..7 {
            e.scheduler().schedule_at(f64::from(i), Ev::Tag(i));
        }
        e.run_to_completion();
        assert_eq!(e.dispatched(), 7);
    }

    // ---- timer-wheel specific coverage ----

    #[test]
    fn events_across_wheel_levels_fire_in_order() {
        // Ticks spanning level 0 (63, 64), level 1 (4095, 4096), level 2,
        // and a far-future overflow-level tick must still dispatch sorted.
        let times = [
            63.5, 64.0, 0.25, 4095.9, 4096.0, 262_144.5, 1.0e12, 2.0, 65.0,
        ];
        let mut e = engine();
        for (i, &t) in times.iter().enumerate() {
            e.scheduler().schedule_at(t, Ev::Tag(i as u32));
        }
        e.run_to_completion();
        let mut expect: Vec<(Time, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(e.model().log, expect);
    }

    #[test]
    fn schedule_behind_advanced_cursor_still_fires_in_time_order() {
        // peek_live advances the wheel cursor to the far event's bucket;
        // a later schedule at a smaller tick (but >= now) must clamp into
        // the cursor bucket and still dispatch strictly by time.
        let mut e = engine();
        e.scheduler().schedule_at(5.2, Ev::Tag(0));
        e.scheduler().schedule_at(70.5, Ev::Tag(2));
        e.run_until(5.2);
        assert_eq!(e.model().log, vec![(5.2, 0)]);
        // Cursor moves to tick 70's bucket while looking for the head...
        assert_eq!(e.scheduler().peek_live(), Some(70.5));
        // ...but an intervening event at t=6 must still fire first.
        e.scheduler().schedule_at(6.0, Ev::Tag(1));
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(5.2, 0), (6.0, 1), (70.5, 2)]);
    }

    #[test]
    fn distinct_times_in_one_tick_fire_by_time_not_seq() {
        let mut e = engine();
        e.scheduler().schedule_at(2.75, Ev::Tag(0));
        e.scheduler().schedule_at(2.25, Ev::Tag(1));
        e.scheduler().schedule_at(2.5, Ev::Tag(2));
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(2.25, 1), (2.5, 2), (2.75, 0)]);
    }

    #[test]
    fn cancel_in_far_bucket_truly_deletes() {
        let mut e = engine();
        let far = e.scheduler().schedule_at(1.0e9, Ev::Tag(0));
        e.scheduler().schedule_at(1.0, Ev::Tag(1));
        assert!(e.scheduler().cancel(far));
        assert_eq!(e.scheduler().pending(), 1);
        e.run_to_completion();
        assert_eq!(e.model().log, vec![(1.0, 1)]);
        assert_eq!(e.scheduler().peek_live(), None);
        assert_eq!(e.scheduler().pending(), 0);
    }

    #[test]
    fn interleaved_schedule_during_current_bucket_drain() {
        // A handler scheduling into the bucket currently being drained must
        // see its event slotted by (time, seq), not appended.
        struct Chain {
            log: Vec<(Time, u32)>,
        }
        enum Cev {
            Emit(u32),
            PlantSameInstant,
        }
        impl Model for Chain {
            type Event = Cev;
            fn handle(&mut self, now: Time, ev: Cev, sched: &mut Scheduler<Cev>) {
                match ev {
                    Cev::Emit(t) => self.log.push((now, t)),
                    Cev::PlantSameInstant => {
                        // Plants at the same instant (fires after existing
                        // same-instant events, by seq) and slightly later
                        // within the same tick.
                        sched.schedule_at(now, Cev::Emit(100));
                        sched.schedule_at(now + 0.25, Cev::Emit(200));
                    }
                }
            }
        }
        let mut e = Engine::new(Chain { log: Vec::new() });
        e.scheduler().schedule_at(3.0, Cev::PlantSameInstant);
        e.scheduler().schedule_at(3.0, Cev::Emit(1));
        e.scheduler().schedule_at(3.5, Cev::Emit(2));
        e.run_to_completion();
        assert_eq!(
            e.model().log,
            vec![(3.0, 1), (3.0, 100), (3.25, 200), (3.5, 2)]
        );
    }
}
