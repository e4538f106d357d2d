//! Differential property test: the timer-wheel scheduler must produce the
//! exact dispatch sequence of the retained reference binary-heap scheduler
//! under seeded random operation mixes.
//!
//! The wheel side runs through a full [`Engine`] (so `run_until`, cursor
//! advancement, and in-handler scheduling are exercised exactly as the
//! simulator uses them); the heap side is driven through
//! [`ReferenceScheduler::drain_until`]. Both sides see identical operation
//! streams; after every drain the `(time, tag)` dispatch logs, pending
//! counts, and head times must agree. Handles of fired and cancelled events
//! are kept and cancelled again later, so a stale [`EventId`] meets a
//! wheel slot that a newer event has reused.

use bpp_sim::{Engine, EventId, Model, ReferenceScheduler, Rng, Scheduler, Time, Xoshiro256pp};

/// Wheel-side model: records every dispatch as `(time, tag)`.
struct Recorder {
    log: Vec<(Time, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: Time, tag: u32, _sched: &mut Scheduler<u32>) {
        self.log.push((now, tag));
    }
}

/// One differential run: `ops` random operations under `seed`.
///
/// Events are tracked as `(wheel_id, heap_seq, tag)` triples so a cancel
/// targets "the same event" on both sides: `live` holds the pending ones,
/// `stale` the fired and cancelled ones, whose cancel must fail on both. The op mix leans on the
/// shapes the simulator produces: same-instant bursts, zero delays, short
/// think-time hops, and rare far-future jumps that cross wheel levels.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut wheel = Engine::new(Recorder { log: Vec::new() });
    let mut heap: ReferenceScheduler<u32> = ReferenceScheduler::new();
    let mut heap_log: Vec<(Time, u32)> = Vec::new();
    let mut live: Vec<(EventId, u64, u32)> = Vec::new();
    let mut stale: Vec<(EventId, u64, u32)> = Vec::new();
    let mut next_tag: u32 = 0;

    let schedule = |wheel: &mut Engine<Recorder>,
                    heap: &mut ReferenceScheduler<u32>,
                    live: &mut Vec<(EventId, u64, u32)>,
                    next_tag: &mut u32,
                    delay: f64| {
        let tag = *next_tag;
        *next_tag += 1;
        let at = wheel.now() + delay;
        let wid = wheel.scheduler().schedule_at(at, tag);
        let hid = heap.schedule_at(at, tag);
        live.push((wid, hid, tag));
    };

    for _ in 0..ops {
        match rng.random_range(0..10) {
            // Schedule with a short delay (often same-tick / same-instant).
            0..=3 => {
                let delay = match rng.random_range(0..4) {
                    0 => 0.0,
                    1 => rng.random::<f64>() * 0.5,
                    2 => 1.0,
                    _ => rng.random::<f64>() * 8.0,
                };
                schedule(&mut wheel, &mut heap, &mut live, &mut next_tag, delay);
            }
            // Schedule far ahead, crossing one or more wheel levels.
            4 => {
                let delay = 50.0 + rng.random::<f64>() * 10_000.0;
                schedule(&mut wheel, &mut heap, &mut live, &mut next_tag, delay);
            }
            // Cancel a random live event; both sides must agree that it
            // was still live.
            5 => {
                if !live.is_empty() {
                    let k = rng.random_range(0..live.len());
                    let (wid, hid, tag) = live.swap_remove(k);
                    let a = wheel.scheduler().cancel(wid);
                    let b = heap.cancel(hid);
                    assert_eq!(a, b, "cancel disagreement (seed {seed})");
                    stale.push((wid, hid, tag));
                }
            }
            // Cancel a fired or cancelled event: a no-op on both sides, even
            // when the wheel has handed its slot to a newer pending event.
            6 => {
                if !stale.is_empty() {
                    let k = rng.random_range(0..stale.len());
                    let (wid, hid, _) = stale[k];
                    assert!(
                        !wheel.scheduler().cancel(wid),
                        "stale wheel id cancelled an event (seed {seed})"
                    );
                    assert!(!heap.cancel(hid), "stale heap seq cancelled (seed {seed})");
                    assert_eq!(
                        wheel.scheduler().pending(),
                        heap.pending(),
                        "pending counts diverged after a stale cancel (seed {seed})"
                    );
                }
            }
            // Reschedule: cancel + replant at a fresh time.
            7 => {
                if !live.is_empty() {
                    let k = rng.random_range(0..live.len());
                    let (wid, hid, tag) = live.swap_remove(k);
                    let a = wheel.scheduler().cancel(wid);
                    let b = heap.cancel(hid);
                    assert_eq!(a, b, "cancel disagreement (seed {seed})");
                    stale.push((wid, hid, tag));
                    let delay = rng.random::<f64>() * 64.0;
                    schedule(&mut wheel, &mut heap, &mut live, &mut next_tag, delay);
                }
            }
            // Drain up to a deadline; sometimes ending exactly on a tick
            // boundary or between a tombstone and the next live event.
            _ => {
                let dt = match rng.random_range(0..3) {
                    0 => rng.random::<f64>() * 2.0,
                    1 => (rng.random_range(0..70)) as f64,
                    _ => rng.random::<f64>() * 300.0,
                };
                let t = wheel.now() + dt;
                let drained_from = heap_log.len();
                wheel.run_until(t);
                heap_log.extend(heap.drain_until(t));
                assert_eq!(
                    wheel.model().log,
                    heap_log,
                    "dispatch logs diverged (seed {seed})"
                );
                assert_eq!(
                    wheel.scheduler().pending(),
                    heap.pending(),
                    "pending counts diverged (seed {seed})"
                );
                assert_eq!(
                    wheel.scheduler().peek_live(),
                    heap.peek_live(),
                    "head times diverged (seed {seed})"
                );
                let fired: Vec<u32> = heap_log[drained_from..]
                    .iter()
                    .map(|&(_, tag)| tag)
                    .collect();
                let (gone, pending): (Vec<_>, Vec<_>) = std::mem::take(&mut live)
                    .into_iter()
                    .partition(|&(_, _, tag)| fired.contains(&tag));
                stale.extend(gone);
                live = pending;
            }
        }
    }

    // Final total drain: everything left must come out identically.
    wheel.run_to_completion();
    while let Some(fired) = heap.pop() {
        heap_log.push(fired);
    }
    assert_eq!(
        wheel.model().log,
        heap_log,
        "final dispatch logs diverged (seed {seed})"
    );
    assert_eq!(wheel.scheduler().pending(), 0);
    assert_eq!(heap.pending(), 0);
}

#[test]
fn wheel_matches_reference_heap_over_random_op_sequences() {
    for seed in 0..24u64 {
        differential_run(0x00D1_FF00 + seed, 400);
    }
}

#[test]
fn wheel_matches_reference_heap_on_long_mixed_run() {
    differential_run(0xFEED_FACE, 4000);
}

#[test]
fn tombstone_past_deadline_regression_matches_on_both() {
    // The PR 5 regression shape: a cancelled head at t-ε must not let a
    // live event at t+ε fire from `run_until(t)` — on either side.
    let mut wheel = Engine::new(Recorder { log: Vec::new() });
    let mut heap: ReferenceScheduler<u32> = ReferenceScheduler::new();

    let w_victim = wheel.scheduler().schedule_at(1.9, 0);
    let h_victim = heap.schedule_at(1.9, 0);
    wheel.scheduler().schedule_at(2.1, 1);
    heap.schedule_at(2.1, 1);
    assert!(wheel.scheduler().cancel(w_victim));
    assert!(heap.cancel(h_victim));

    wheel.run_until(2.0);
    let heap_fired = heap.drain_until(2.0);
    assert_eq!(wheel.model().log, heap_fired);
    assert!(wheel.model().log.is_empty());
    assert_eq!(wheel.now(), 0.0);
    assert_eq!(heap.now(), 0.0);
    assert_eq!(wheel.scheduler().pending(), heap.pending());

    wheel.run_until(2.1);
    let heap_fired = heap.drain_until(2.1);
    assert_eq!(wheel.model().log, heap_fired);
    assert_eq!(wheel.model().log, vec![(2.1, 1)]);
}
