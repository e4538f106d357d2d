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
//!   top levels double as the overflow range). `schedule` is O(1): an
//!   event's integer tick (`time as u64`) picks its bucket directly, and a
//!   bucket entry is the bare `(time, seq, event)`. A scheduled event always
//!   fires: a model that outgrows a timer tags it (a generation counter in
//!   the event) and ignores it when it fires, so `pending()` counts every
//!   scheduled, not yet dispatched event.
//! * Determinism: buckets are ordered by actual `(time, seq)` when they
//!   become the dispatch head, so the wheel reproduces the exact total order
//!   a priority queue would produce. Equal times share a tick and therefore
//!   a bucket, so ties can never straddle buckets. See the `Scheduler` docs
//!   for the full ordering argument.

use bpp_obs::EngineObs;
use std::cmp::Ordering;

/// Simulated time in broadcast units (the time to broadcast one page).
pub type Time = f64;

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
    event: E,
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
pub struct Scheduler<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-level occupancy bitmask: bit `s` set ⟺ bucket (level, s) is
    /// non-empty. Kept exact on every insert and delete.
    occ: [u64; LEVELS],
    /// Flat index of the bucket currently being drained (sorted descending
    /// by `(time, seq)`), if any. Always a level-0 bucket, always non-empty.
    cur_bucket: Option<usize>,
    /// Wheel cursor: the tick of the bucket at the dispatch head. Only ever
    /// advances (events are never scheduled before `now`).
    wheel_pos: u64,
    next_seq: u64,
    /// Events scheduled and not yet dispatched.
    pending: usize,
    now: Time,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            cur_bucket: None,
            wheel_pos: 0,
            next_seq: 0,
            pending: 0,
            now: 0.0,
        }
    }

    /// Current simulated time.
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
        self.pending += 1;
        self.place(Scheduled {
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

    /// Number of pending events: scheduled and not yet dispatched.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Time of the next event, or `None` when nothing remains. May advance
    /// the wheel cursor (never simulated time) to locate the head bucket.
    pub fn peek_live(&mut self) -> Option<Time> {
        if !self.ensure_current() {
            return None;
        }
        let b = self.cur_bucket?;
        self.buckets[b].last().map(|s| s.time)
    }

    /// Route an entry to its bucket; returns the bucket's flat index.
    fn place(&mut self, s: Scheduled<E>) -> usize {
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
        if self.buckets[b].is_empty() {
            self.occ[b / SLOTS] |= 1 << (b % SLOTS);
        }
        if self.cur_bucket == Some(b) {
            // Keep the head bucket sorted (descending by (time, seq)) so
            // back-pops stay correct without re-sorting.
            let idx = self.buckets[b].partition_point(|e| {
                e.time.total_cmp(&s.time) == Ordering::Greater
                    || (e.time.total_cmp(&s.time) == Ordering::Equal && e.seq > s.seq)
            });
            self.buckets[b].insert(idx, s);
        } else {
            self.buckets[b].push(s);
        }
        b
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
                self.cur_bucket = Some(b);
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
                let to = self.place(s);
                // A re-placed entry that stayed at `level` would be
                // cascaded again forever; fail instead of spinning.
                debug_assert!(
                    to < level * SLOTS,
                    "cascade re-placed an entry from level {level} into bucket {to}"
                );
            }
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        if !self.ensure_current() {
            return None;
        }
        let b = self.cur_bucket?;
        let s = self.buckets[b].pop()?;
        self.pending -= 1;
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
    /// The deadline is compared against the head time
    /// ([`Scheduler::peek_live`]), which is always the time `step()` would
    /// dispatch next.
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
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(Time, u32)>,
    }

    enum Ev {
        Tag(u32),
        /// Plants `Tag(tag)` one time unit later.
        Plant(u32),
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(t) => self.log.push((now, t)),
                Ev::Plant(t) => sched.schedule_in(1.0, Ev::Tag(t)),
            }
        }
        fn event_label(ev: &Ev) -> &'static str {
            match ev {
                Ev::Tag(_) => "tag",
                Ev::Plant(_) => "plant",
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { log: Vec::new() })
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
    fn run_until_fires_events_exactly_at_t() {
        // The boundary is documented as inclusive, also when the events at
        // `t` sit in a far bucket that must cascade down to become the head,
        // beside a same-tick sibling just past `t`.
        let t: Time = 4096.0;
        let mut e = engine();
        e.scheduler().schedule_at(t.next_up(), Ev::Tag(2));
        e.scheduler().schedule_at(t, Ev::Tag(0));
        e.scheduler().schedule_at(t, Ev::Tag(1));
        e.run_until(t);
        assert_eq!(e.model().log, vec![(t, 0), (t, 1)]);
        assert_eq!(e.now(), t);
        assert_eq!(e.scheduler().pending(), 1, "the t+ε event must survive");
        assert_eq!(e.scheduler().peek_live(), Some(t.next_up()));
    }

    #[test]
    fn engine_obs_counts_dispatches_per_label() {
        let mut e = engine();
        e.enable_obs(bpp_obs::EngineObs::new(1.0));
        e.scheduler().schedule_at(1.0, Ev::Plant(0));
        for i in 1..3 {
            e.scheduler().schedule_at(2.0 + f64::from(i), Ev::Tag(i));
        }
        e.run_to_completion();
        let obs = e.obs().expect("enabled above");
        assert_eq!(obs.dispatch_count("tag"), 3, "one tag planted in-handler");
        assert_eq!(obs.dispatch_count("plant"), 1);
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
    fn pending_tracks_schedules_and_dispatches_across_cascades() {
        // Events spread over level 0, level 1, level 2 and the overflow
        // levels, plus an in-handler plant: every schedule adds one, every
        // dispatch removes one, and cascades (which move entries between
        // buckets) change nothing.
        let times = [0.5, 3.0, 3.0, 70.25, 4100.0, 300_000.5, 1.0e12];
        let mut e = engine();
        for (i, &t) in times.iter().enumerate() {
            e.scheduler().schedule_at(t, Ev::Tag(i as u32));
            assert_eq!(e.scheduler().pending(), i + 1);
        }
        e.scheduler().schedule_at(2.5, Ev::Plant(100));
        let mut expect = times.len() + 1;
        assert_eq!(e.scheduler().pending(), expect);
        while let Some(next) = e.scheduler().peek_live() {
            assert_eq!(e.scheduler().pending(), expect, "peek is not a pop");
            let logged = e.model().log.len();
            assert!(e.step());
            assert_eq!(e.now(), next);
            // A plant dispatches one event and schedules another.
            let planted = e.model().log.len() == logged;
            expect = expect - 1 + usize::from(planted);
            assert_eq!(e.scheduler().pending(), expect);
        }
        assert_eq!(expect, 0);
        assert!(!e.step());
        assert_eq!(e.dispatched(), times.len() as u64 + 2);
        assert_eq!(e.model().log[3], (3.5, 100));
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
