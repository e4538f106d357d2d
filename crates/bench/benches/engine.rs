//! Microbenchmarks for the event-engine hot paths: dispatch throughput
//! (with and without the observability probe), scheduler churn, and the
//! tombstone drain inside `run_until` / `peek_live`.

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_core::{Algorithm, ClientPopulation, MeasurementProtocol, SystemConfig, World};
use bpp_sim::{Engine, EngineObs, Model, Scheduler, Time};
use std::hint::black_box;

use bpp_bench::Group;

/// Self-rescheduling chain: one live event at a time, `remaining` dispatches.
struct Pump {
    remaining: u64,
}

struct Tick;

impl Model for Pump {
    type Event = Tick;
    fn handle(&mut self, _now: Time, _ev: Tick, sched: &mut Scheduler<Tick>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(1.0, Tick);
        }
    }
    fn event_label(_ev: &Tick) -> &'static str {
        "tick"
    }
}

/// Inert model for pure scheduler-churn measurements.
struct Sink;

impl Model for Sink {
    type Event = Tick;
    fn handle(&mut self, _now: Time, _ev: Tick, _sched: &mut Scheduler<Tick>) {}
}

fn dispatch_chain(n: u64, obs: bool) -> u64 {
    let mut engine = Engine::new(Pump { remaining: n });
    if obs {
        engine.enable_obs(EngineObs::new(100.0));
    }
    engine.scheduler().schedule_in(1.0, Tick);
    engine.run_to_completion();
    engine.dispatched()
}

fn main() {
    let mut g = Group::new("engine");
    g.sample_size(10);

    g.bench("dispatch_chain_10k", || dispatch_chain(10_000, false));
    g.bench("dispatch_chain_10k_obs", || dispatch_chain(10_000, true));

    // Schedule 1024 events, cancel every other one, then run_until past all
    // of them: each tombstoned head is drained by `peek_live`.
    g.bench("run_until_half_tombstoned_1k", || {
        let mut engine = Engine::new(Sink);
        let ids: Vec<_> = (0..1024)
            .map(|i| engine.scheduler().schedule_at(i as Time, Tick))
            .collect();
        for id in ids.iter().step_by(2) {
            engine.scheduler().cancel(*id);
        }
        engine.run_until(black_box(2048.0));
        engine.dispatched()
    });

    // Fleet events/sec: a 10k-client arena fleet driving the full world
    // for 500 broadcast units — wake/deliver/retry traffic through the
    // timer wheel, not just the bare engine.
    g.bench("fleet_world_10k_clients_500_slots", || {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.pull_bw = 0.5;
        cfg.thres_perc = 0.0;
        cfg.steady_state_perc = 0.95;
        cfg.think_time_ratio = 1.0;
        cfg.seed = 7;
        cfg.population = ClientPopulation::fleet(10_000);
        let proto = MeasurementProtocol::quick();
        let mut engine = World::steady_state(&cfg, &proto).into_engine();
        engine.run_until(black_box(500.0));
        engine.dispatched()
    });

    // Pure scheduler churn: schedule/cancel with no dispatch at all.
    g.bench("schedule_cancel_1k", || {
        let mut engine = Engine::new(Sink);
        let ids: Vec<_> = (0..1024)
            .map(|i| engine.scheduler().schedule_at(i as Time, Tick))
            .collect();
        let mut cancelled = 0u32;
        for id in ids {
            cancelled += u32::from(engine.scheduler().cancel(id));
        }
        cancelled
    });

    g.finish();
}
