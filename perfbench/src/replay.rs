//! Layer replays: each times one crate's hot public call in isolation, on
//! inputs shaped like the workloads', and reports the per-call cost's
//! median and p90 over `samples` timed batches.
//!
//! Inputs come from the workload seed through a generator of the replay's
//! own, so a replay never draws on a simulation stream.

use crate::stats::{per_op_ns, Summary};
use bpp_broadcast::{
    assignment::identity_ranking, hot_access_sets, Assignment, DiskSpec, MultiChannelProgram,
    PageId,
};
use bpp_cache::{ReplacementPolicy, StaticScoreCache};
use bpp_core::analytic::{build_program, ideal_cache};
use bpp_core::{AdmissionConfig, RetryPolicy, RetryState, SystemConfig};
use bpp_obs::{Metrics, Timeline, TraceRing};
use bpp_server::{Admission, BandwidthMux, RequestQueue};
use bpp_sim::{BatchMeans, Engine, Model, Rng, Scheduler, Time, Xoshiro256pp};
use bpp_workload::{AliasTable, ThinkTime, Zipf};
use std::hint::black_box;

/// One replay's measurement.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Metric name of the median; the p90 is reported as `<name>.p90`.
    pub name: &'static str,
    pub unit: &'static str,
    /// Per-call cost in `unit`.
    pub cost: Summary,
}

/// Run every replay with `samples` timed batches each.
pub fn all(seed: u64, samples: usize) -> Vec<Replay> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let cfg = SystemConfig::paper_default();
    let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
    let alias = AliasTable::new(zipf.probs());
    let pages: Vec<usize> = (0..4096).map(|_| alias.sample(&mut rng)).collect();
    let program = build_program(&cfg);
    let mut out = Vec::new();
    let mut record = |name: &'static str, unit: &'static str, cost: Summary| {
        out.push(Replay { name, unit, cost });
    };

    // --- sim: the timer wheel at each workload's pending depth. ---
    record("sim.wheel.d2.ns", "ns", wheel(0, 0.0, samples, &mut rng));
    record(
        "sim.wheel.d10k.ns",
        "ns",
        wheel(10_000, 800.0, samples, &mut rng),
    );
    record(
        "sim.wheel.d100k.ns",
        "ns",
        wheel(100_000, 8000.0, samples, &mut rng),
    );
    let mut r = rng.clone();
    record(
        "sim.rng.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            black_box(r.random::<f64>());
        }),
    );
    let mut bm = BatchMeans::new(500);
    let mut i = 0;
    record(
        "sim.batchmeans.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            i += 1;
            bm.record(pages[i & 4095] as f64);
        }),
    );
    black_box(bm.mean());

    // --- workload: the samplers behind every client access. ---
    let mut r = rng.clone();
    record(
        "workload.alias_sample.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            black_box(alias.sample(&mut r));
        }),
    );
    let think = ThinkTime::Exponential { mean: 20.0 };
    record(
        "workload.think_exp.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            black_box(think.sample(&mut r));
        }),
    );

    // --- broadcast: next-arrival lookup and program generation. ---
    let on_air: Vec<(PageId, usize)> = pages
        .iter()
        .map(|&p| PageId(p as u32))
        .filter(|&p| program.contains(p))
        .map(|p| (p, r.random_range(0..program.major_cycle())))
        .collect();
    let mut i = 0;
    record(
        "broadcast.slots_until_present.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            i += 1;
            let (p, c) = on_air[i % on_air.len()];
            black_box(program.slots_until_present(p, c));
        }),
    );
    let generate = per_op_ns(samples, 4, || {
        black_box(build_program(black_box(&cfg)));
    });
    record("broadcast.program_generate.us", "us", generate.scaled(1e-3));
    let ranking = identity_ranking(cfg.db_size);
    let spec = DiskSpec::new(cfg.disk_sizes.clone(), cfg.rel_freqs.clone());
    let assignment = Assignment::with_offset(&ranking, &spec, cfg.cache_size);
    let sets = hot_access_sets(&program, zipf.probs(), &ideal_cache(&cfg, &program));
    let multichannel = per_op_ns(samples, 4, || {
        black_box(MultiChannelProgram::generate(
            &assignment,
            cfg.db_size,
            4,
            &sets,
        ));
    });
    record(
        "broadcast.multichannel_generate.us",
        "us",
        multichannel.scaled(1e-3),
    );

    // --- cache: a warmed 100-page PIX cache over a 1000-page Zipf trace. ---
    let freqs: Vec<usize> = (0..cfg.db_size)
        .map(|p| program.frequency(PageId(p as u32)))
        .collect();
    let mut cache = StaticScoreCache::pix(cfg.cache_size, zipf.probs(), &freqs);
    cache.warm();
    let mut i = 0;
    record(
        "cache.pix_lookup.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            i += 1;
            black_box(cache.lookup(pages[i & 4095]));
        }),
    );

    // --- server: queue, MUX coin, admission bucket. ---
    for (name, capacity) in [
        ("server.queue.cap100.ns", 100),
        ("server.queue.cap1000.ns", 1000),
    ] {
        let mut q = RequestQueue::new(capacity);
        let mut i = 0;
        record(
            name,
            "ns",
            per_op_ns(samples, 20_000, || {
                // Four submits per pop: the queue fills and then runs at its
                // bound, as it does under the workloads' loads.
                i += 1;
                if i % 5 == 0 {
                    black_box(q.pop());
                } else {
                    black_box(q.submit(PageId(pages[i & 4095] as u32)));
                }
            }),
        );
    }
    let mux = BandwidthMux::new(0.5);
    let mut r = rng.clone();
    record(
        "server.mux.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            black_box(mux.decide(false, &mut r));
        }),
    );
    let mut bucket = Admission::new(AdmissionConfig {
        rate: 16.0,
        burst: 64.0,
        retry_after: 32.0,
    });
    let mut now = 0.0;
    record(
        "server.admission.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            // 12.5 arrivals per unit against a 16-per-unit refill.
            now += 0.08;
            black_box(bucket.admit(now));
        }),
    );

    // --- client: the retry backoff schedule (re-exported by bpp-core). ---
    let policy = RetryPolicy {
        max_retries: 6,
        base_timeout: 8.0,
        backoff_factor: 2.0,
        max_backoff: 64.0,
        jitter: 0.5,
    };
    let mut state = RetryState::arm();
    record(
        "client.retry_delay.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            match state.next_delay(&policy, &mut r) {
                Some(d) => {
                    black_box(d);
                }
                None => state = RetryState::arm(),
            }
        }),
    );

    // --- obs: the three recording primitives. ---
    let mut metrics = Metrics::new();
    let handle = metrics.counter_handle("replay.counter");
    record(
        "obs.metrics_inc.ns",
        "ns",
        per_op_ns(samples, 20_000, || metrics.inc_handle(handle)),
    );
    black_box(metrics.counter("replay.counter"));
    let mut timeline = Timeline::new(100.0);
    let mut t = 0.0;
    record(
        "obs.timeline_update.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            t += 1.0;
            timeline.update(t, t % 7.0);
        }),
    );
    let mut ring = TraceRing::new(256);
    record(
        "obs.trace_push.ns",
        "ns",
        per_op_ns(samples, 20_000, || {
            t += 1.0;
            ring.push(t, "replay", t);
        }),
    );
    black_box((timeline, ring));
    out
}

/// An inert model for the wheel replay. Event 0 recurs every unit like
/// `Slot`, event 1 every 20 units like the Measured Client's wake, and
/// every other event reschedules itself after an exponential think like a
/// fleet client's `FleetWake`.
struct Inert {
    thinks: Vec<Time>,
    next: usize,
}

impl Model for Inert {
    type Event = u8;

    fn handle(&mut self, _now: Time, event: u8, sched: &mut Scheduler<u8>) {
        let delay = match event {
            0 => 1.0,
            1 => 20.0,
            _ => {
                self.next = (self.next + 1) & (self.thinks.len() - 1);
                self.thinks[self.next]
            }
        };
        sched.schedule_in(delay, event);
    }
}

/// Cost of one dispatch plus the reschedule it triggers, with `fleet`
/// think-time events pending next to the slot and wake events.
fn wheel(fleet: usize, mean_think: f64, samples: usize, rng: &mut Xoshiro256pp) -> Summary {
    let think = ThinkTime::Exponential {
        mean: mean_think.max(1.0),
    };
    let thinks: Vec<Time> = (0..4096).map(|_| think.sample(rng)).collect();
    let mut engine = Engine::new(Inert { thinks, next: 0 });
    engine.scheduler().schedule_at(0.0, 0);
    engine.scheduler().schedule_at(0.0, 1);
    for _ in 0..fleet {
        let at = think.sample(rng);
        engine.scheduler().schedule_at(at, 2);
    }
    // Step through about one think period first, so the wheel has reached
    // its steady bucket occupancy before timing starts.
    let warm = fleet.max(1000);
    for _ in 0..warm {
        engine.step();
    }
    per_op_ns(samples, 10_000, || {
        engine.step();
    })
}
