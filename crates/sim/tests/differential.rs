//! Differential property test: the timer-wheel scheduler must produce the
//! exact dispatch sequence of the reference binary-heap scheduler under
//! seeded random operation mixes.
//!
//! The wheel side runs through a full [`Engine`] (so `run_until`, cursor
//! advancement, and in-handler scheduling are exercised exactly as the
//! simulator uses them); the heap side is driven through
//! [`ReferenceScheduler::drain_until`]. Both sides see identical operation
//! streams; after every drain the `(time, tag)` dispatch logs, pending
//! counts, and head times must agree.

use bpp_sim::{Engine, Model, ReferenceScheduler, Rng, Scheduler, Time, Xoshiro256pp};

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

/// An exponential delay with the given mean.
fn exp(rng: &mut Xoshiro256pp, mean: f64) -> f64 {
    -mean * (1.0 - rng.random::<f64>()).ln()
}

/// One differential run: `ops` random operations under `seed`, where the
/// burst arm schedules `burst` events at once. Returns the peak pending
/// count seen after a burst.
///
/// The op mix leans on the shapes the simulator produces: same-instant
/// bursts, zero delays, short think-time hops, rare far-future jumps that
/// cross wheel levels, and bursts at Exp(800) and Exp(8000) delays — the
/// think and retry timers of a large client fleet — so level-1 and level-2
/// buckets cascade down, and new schedules land in the head bucket that a
/// drain's closing peek left sorted.
fn differential_run(seed: u64, ops: usize, burst: usize) -> usize {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut wheel = Engine::new(Recorder { log: Vec::new() });
    let mut heap: ReferenceScheduler<u32> = ReferenceScheduler::new();
    let mut heap_log: Vec<(Time, u32)> = Vec::new();
    let mut next_tag: u32 = 0;
    let mut peak = 0;

    let mut schedule = |wheel: &mut Engine<Recorder>, heap: &mut ReferenceScheduler<u32>, delay| {
        let at = wheel.now() + delay;
        wheel.scheduler().schedule_at(at, next_tag);
        heap.schedule_at(at, next_tag);
        next_tag += 1;
    };

    for _ in 0..ops {
        match rng.random_range(0..10) {
            // Schedule with a short delay (often same-tick / same-instant).
            0..=4 => {
                let delay = match rng.random_range(0..4) {
                    0 => 0.0,
                    1 => rng.random::<f64>() * 0.5,
                    2 => 1.0,
                    _ => rng.random::<f64>() * 8.0,
                };
                schedule(&mut wheel, &mut heap, delay);
            }
            // Schedule far ahead, crossing one or more wheel levels.
            5 => {
                let delay = 50.0 + rng.random::<f64>() * 10_000.0;
                schedule(&mut wheel, &mut heap, delay);
            }
            // A fleet-shaped burst of think and retry timers.
            6 => {
                for _ in 0..burst {
                    let mean = if rng.random::<f64>() < 0.5 {
                        800.0
                    } else {
                        8000.0
                    };
                    let delay = exp(&mut rng, mean);
                    schedule(&mut wheel, &mut heap, delay);
                }
                peak = peak.max(heap.pending());
            }
            // Drain up to a deadline; sometimes ending exactly on a tick
            // boundary, sometimes far enough to cascade level-2 buckets.
            _ => {
                let dt = match rng.random_range(0..4) {
                    0 => rng.random::<f64>() * 2.0,
                    1 => (rng.random_range(0..70)) as f64,
                    2 => rng.random::<f64>() * 300.0,
                    _ => rng.random::<f64>() * 10_000.0,
                };
                let t = wheel.now() + dt;
                // Both logs only grow, and their prefixes already agree.
                let drained_from = heap_log.len();
                wheel.run_until(t);
                heap_log.extend(heap.drain_until(t));
                assert_eq!(
                    wheel.model().log.len(),
                    heap_log.len(),
                    "dispatch counts diverged (seed {seed})"
                );
                assert_eq!(
                    wheel.model().log[drained_from..],
                    heap_log[drained_from..],
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
    peak
}

#[test]
fn wheel_matches_reference_heap_over_random_op_sequences() {
    for seed in 0..24u64 {
        differential_run(0x00D1_FF00 + seed, 400, 64);
    }
}

#[test]
fn wheel_matches_reference_heap_on_long_mixed_run() {
    differential_run(0xFEED_FACE, 4000, 64);
}

#[test]
fn wheel_matches_reference_heap_under_fleet_scale_bursts() {
    // Bursts of 2.5·10⁴ timers; the run must reach the 10⁵ pending timers
    // of the largest fleet, or it compares less than it claims.
    let peak = differential_run(0x00F1_EE70, 400, 25_000);
    assert!(peak >= 100_000, "peak pending only {peak}");
}
